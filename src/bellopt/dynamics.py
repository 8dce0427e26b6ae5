"""Amplitude-damping dynamics of two independent qubits and the trajectories
of the Bell maximum and its optimal settings.

Each qubit sits in its own zero-temperature bosonic environment, so the whole
reduced evolution is fixed by one complex amplitude q(t) with q(0) = 1: the
excited population scales by |q|^2, single-qubit coherences by q, and the
ground state absorbs the loss.  Applied independently per qubit the map
preserves the X pattern, which keeps the closed-form Bell machinery usable
along the entire trajectory.

Three environment models are shipped: exponential (memoryless decay),
a damped-oscillator form for a single Lorentzian resonance (decay for weak
coupling, collapses and revivals for strong coupling), and tabulated samples
with linear interpolation for anything else.

Every model's q(t) takes a float, giving a Python complex, or an array of
times, giving a complex array of its shape, from one implementation whose
array values equal the scalar ones bit for bit; time_scan relies on that to
evaluate all its probes in one pass.  Hence: exp goes through complex
arrays (np.exp of a real array differs from math.exp in ~5% of last bits),
abs is np.hypot (np.abs of complex differs from Python's abs in ~35%),
complex products and quotients with two complex factors are written out in
real arithmetic, and squares use np.float_power, libm's pow as in Python's
`v ** 2` (v * v differs in ~0.1%).
"""

from __future__ import annotations

import cmath
import csv
import math
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Union

import numpy as np

from .angles import AngleSettings, _sign, optimal_settings
from .chsh import BellEigenvalues, Region, x_state_eigenvalues
from .states import POSITIVITY_TOL, TRACE_TOL, DensityMatrix4, XState

EVENT_REL_TOL = 1e-9
_MAX_BISECT_ITERS = 80
_PROBES_PER_INTERVAL = 9


class GridTooCoarse(UserWarning):
    """More than one event of the same kind fell inside one grid interval."""


def _times(t) -> np.ndarray:
    """t as a float array (0-d for a float), validated."""
    t = np.asarray(t, dtype=float)
    if not (t >= 0.0).all():  # also rejects NaN
        raise ValueError("t must be >= 0")
    return t


def _finite_positive(**params: float) -> None:
    for name, v in params.items():
        if not (math.isfinite(v) and v > 0.0):
            raise ValueError(f"{name} must be finite and > 0, got {v!r}")


def _like_t(q: np.ndarray, t: np.ndarray):
    # a float t gives a Python complex, an array t an array of t's shape
    return complex(q) if t.ndim == 0 else q


def q_exponential(t, gamma: float):
    """Markovian amplitude: |q(t)|^2 = exp(-gamma t), phase zero."""
    t = _times(t)
    _finite_positive(gamma=gamma)
    # exp of a complex array is libm's exp, as math.exp; np.exp of a real
    # array is not, in the last bit
    q = np.exp(-0.5 * gamma * t + 0j).real + 0j
    return _like_t(q, t)


def _lorentz_d(lam: float, gamma0: float) -> complex:
    """sqrt(lam^2 - 2 gamma0 lam), for lam and gamma0 where it is finite."""
    _finite_positive(lam=lam, gamma0=gamma0)
    if math.isinf(lam * lam) or math.isinf(2.0 * gamma0 * lam):
        raise ValueError(f"lam^2 - 2*gamma0*lam overflows for lam = {lam!r}, "
                         f"gamma0 = {gamma0!r}")
    return cmath.sqrt(complex(lam * lam - 2.0 * gamma0 * lam))


@np.errstate(over="ignore", invalid="ignore")  # checked below
def q_lorentzian(t, lam: float, gamma0: float):
    """Damped-oscillator amplitude for a Lorentzian environment.

    q(t) = exp(-lam t / 2) [cosh(d t / 2) + (lam / d) sinh(d t / 2)] with
    d = sqrt(lam^2 - 2 gamma0 lam), continued to the trigonometric form when
    2 gamma0 > lam.  Weak coupling reduces to near-exponential decay of
    |q|^2 at rate gamma0; strong coupling yields collapses and revivals.
    """
    t = _times(t)
    d = _lorentz_d(lam, gamma0)
    # d is real (2 gamma0 <= lam) or imaginary, so z is too, and every
    # complex product below has a zero term: it rounds as Python's does.
    z = 0.5 * d * t
    val = np.empty(t.shape)
    far = (z.real > 1.0) & (lam * t > 1400.0)
    if far.any():
        # Weak coupling at large t: cosh/sinh overflow near z = 710, and
        # exp(-lam t / 2) loses precision below e^-708, although q only
        # decays.  The same q with the exponents combined: both are <= 0 and
        # the second term is e^(-2z) times smaller, so nothing cancels.
        r = lam / d
        tf = t[far]
        val[far] = (0.5 * (1.0 + r) * np.exp(0.5 * (d - lam) * tf)
                    + 0.5 * (1.0 - r) * np.exp(-0.5 * (d + lam) * tf)).real
    near = ~far
    zn, tn = z[near], t[near]
    small = np.hypot(zn.real, zn.imag) < 1e-6
    sinhc = np.empty(zn.shape)
    zs = zn[small]
    sinhc[small] = 1.0 + (zs.real * zs.real - zs.imag * zs.imag) / 6.0  # 1 + z^2/6
    zl = zn[~small]
    # sinh(z) / z with z real or imaginary is a quotient of real numbers;
    # numpy's complex division rounds differently from Python's
    s = np.sinh(zl)
    sinhc[~small] = s.real / zl.real if d.imag == 0.0 else s.imag / zl.imag
    val[near] = np.exp(-0.5 * lam * tn + 0j).real * (
        np.cosh(zn).real + 0.5 * lam * tn * sinhc)
    if not np.isfinite(val).all():
        # reached only when d t overflows, for absurd lam, gamma0 or t
        bad = float(t[~np.isfinite(val)].flat[0])
        raise ValueError(f"q(t) is not finite at t = {bad!r}")
    # q is real for this model
    return _like_t(val + 0j, t)


@dataclass(frozen=True)
class ExponentialModel:
    """Memoryless environment with decay rate gamma."""

    gamma: float

    def __post_init__(self):
        _finite_positive(gamma=self.gamma)

    def q(self, t):
        return q_exponential(t, self.gamma)


@dataclass(frozen=True)
class LorentzianModel:
    """Single-resonance environment with width lam and coupling gamma0."""

    lam: float
    gamma0: float

    def __post_init__(self):
        _lorentz_d(self.lam, self.gamma0)

    def q(self, t):
        return q_lorentzian(t, self.lam, self.gamma0)


@dataclass(frozen=True)
class TabulatedModel:
    """User-supplied q(t) samples, linearly interpolated (real and imaginary
    parts separately).  Requires at least two finite samples, strictly
    increasing times starting at 0, q(0) = 1 and |q| <= 1 at every sample."""

    times: tuple[float, ...]
    values: tuple[complex, ...]

    def __post_init__(self):
        times = tuple(float(t) for t in self.times)
        values = tuple(complex(v) for v in self.values)
        if len(times) != len(values) or len(times) < 2:
            raise ValueError("times and values must be equally long, with "
                             "at least two samples")
        for i, (t, v) in enumerate(zip(times, values)):
            if not (math.isfinite(t) and cmath.isfinite(v)):
                raise ValueError(f"sample {i} is not finite: t = {t!r}, q = {v!r}")
        if times[0] != 0.0:
            raise ValueError("samples must start at t = 0")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("times must be strictly increasing")
        if abs(values[0] - 1.0) > 1e-12:
            raise ValueError("q(0) must equal 1")
        worst = max(abs(v) for v in values)
        if worst > 1.0 + 1e-12:
            raise ValueError(f"|q| exceeds 1 at a sample: {worst!r}")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_t", np.array(times))
        object.__setattr__(self, "_v", np.array(values))

    @classmethod
    def from_csv(cls, path) -> "TabulatedModel":
        """Load samples from a CSV file with header `t,q_re,q_im`."""
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip() for h in header] != ["t", "q_re", "q_im"]:
                raise ValueError("expected CSV header 't,q_re,q_im'")
            times, values = [], []
            for row in reader:
                if not row:
                    continue
                times.append(float(row[0]))
                values.append(complex(float(row[1]), float(row[2])))
        return cls(tuple(times), tuple(values))

    def q(self, t):
        t = _times(t)
        beyond = t > self.times[-1]
        if beyond.any():
            raise ValueError(
                f"t = {float(t[beyond].flat[0])!r} beyond the last tabulated "
                f"sample {self.times[-1]!r}"
            )
        # The last sample is the right end of the last interval, where
        # w = 1 exactly and the blend is exactly that sample.
        i = np.minimum(np.searchsorted(self._t, t, side="right") - 1,
                       len(self.times) - 2)
        t0, t1 = self._t[i], self._t[i + 1]
        w = (t - t0) / (t1 - t0)
        # each product has a real factor, so it rounds as Python's does
        return _like_t(self._v[i] * (1.0 - w) + self._v[i + 1] * w, t)


QModel = Union[ExponentialModel, LorentzianModel, TabulatedModel]


def apply_amplitude_damping(rho0: DensityMatrix4, q: complex) -> DensityMatrix4:
    """Apply the one-qubit damping map with amplitude q to both qubits.

    Operator-sum form with Kraus pair K0 = diag(q, 1),
    K1 = sqrt(1 - |q|^2) |0><1| per qubit; the product map is CPTP and
    returns a validated state.
    """
    q = complex(q)
    if abs(q) > 1.0 + 1e-12:
        raise ValueError(f"|q| must be <= 1, got {abs(q)!r}")
    loss = math.sqrt(max(0.0, 1.0 - abs(q) ** 2))
    k0 = np.array([[q, 0.0], [0.0, 1.0]], dtype=complex)
    k1 = np.array([[0.0, 0.0], [loss, 0.0]], dtype=complex)
    out = np.zeros((4, 4), dtype=complex)
    for ka in (k0, k1):
        for kb in (k0, k1):
            k = np.kron(ka, kb)
            out += k @ rho0.entries @ k.conj().T
    return DensityMatrix4(out)


def evolve_x(x0: XState, q: complex) -> XState:
    """Closed-form element map of the two-qubit damping channel on X states.

    With x = |q|^2: rho11 -> rho11 x^2, rho22/rho33 gain the one-photon decay
    from rho11, rho44 absorbs the rest, rho14 -> q^2 rho14, rho23 -> x rho23.
    Identical to evolving the dense matrix through the product channel.
    """
    q = complex(q)
    if abs(q) > 1.0 + 1e-12:
        raise ValueError(f"|q| must be <= 1, got {abs(q)!r}")
    x = min(1.0, abs(q) ** 2)
    fed = x0.rho11 * (1.0 - x)
    r11 = x0.rho11 * x * x
    r22 = x * (x0.rho22 + fed)
    r33 = x * (x0.rho33 + fed)
    r44 = 1.0 - (r11 + r22 + r33)
    return XState(r11, r22, r33, r44, q * q * x0.rho14, x * x0.rho23)


@dataclass(frozen=True)
class EWLParams:
    """Extended Werner-like initial state: purity r times the projector on
    alpha|01> + beta e^{i delta}|10> plus white noise (1 - r) I/4."""

    alpha2: float
    r: float
    delta: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.alpha2 <= 1.0):
            raise ValueError("alpha2 must lie in [0, 1]")
        if not (0.0 <= self.r <= 1.0):
            raise ValueError("r must lie in [0, 1]")
        if not math.isfinite(self.delta):
            raise ValueError(f"delta must be finite, got {self.delta!r}")


def ewl_state(p: EWLParams) -> XState:
    beta2 = 1.0 - p.alpha2
    background = 0.25 * (1.0 - p.r)
    rho23 = p.r * math.sqrt(p.alpha2 * beta2) * cmath.exp(1j * p.delta)
    return XState(
        background,
        background + p.r * beta2,
        background + p.r * p.alpha2,
        background,
        0.0j,
        rho23,
    )


def ewl_eigenvalues(p: EWLParams, x: float) -> BellEigenvalues:
    """Closed-form eigenvalues along the damped trajectory, x = |q(t)|^2:
    u1 = u3 = 4 alpha^2 beta^2 r^2 x^2 and u2 = (1 - 2x + (1 - r) x^2)^2."""
    if not (0.0 <= x <= 1.0):
        raise ValueError("x must lie in [0, 1]")
    u13 = 4.0 * p.alpha2 * (1.0 - p.alpha2) * p.r * p.r * x * x
    u2 = (1.0 - 2.0 * x + (1.0 - p.r) * x * x) ** 2
    tie = abs(u2 - u13) <= 1e-12
    region = Region.SET1 if (tie or u2 >= u13) else Region.SET2
    return BellEigenvalues(u13, u2, u13, region, tie)


def _ewl_balance(p: EWLParams, x: float) -> float:
    # u2 - u3 as a polynomial, evaluable outside [0, 1] for root bracketing.
    coh = 2.0 * math.sqrt(p.alpha2 * (1.0 - p.alpha2)) * p.r
    gap = 1.0 - 2.0 * x + (1.0 - p.r) * x * x
    return gap * gap - (coh * x) ** 2


def crossing_roots(p: EWLParams) -> list[float]:
    """All x = |q|^2 in (0, 1] where u2 = u3 with a sign change.

    u2 = u3 reads |1 - 2x + (1 - r) x^2| = 2 alpha beta r x, i.e. two
    quadratics; only simple roots (where u2 - u3 actually flips sign) are
    kept, so tangencies are dropped.  Empty when alpha beta r = 0 (u3 is then
    identically zero and never exceeds u2).
    """
    coh = 2.0 * math.sqrt(p.alpha2 * (1.0 - p.alpha2)) * p.r
    if coh == 0.0:
        return []
    candidates: list[float] = []
    for branch in (1.0, -1.0):
        # (1 - r) x^2 - (2 + branch*coh) x + 1 = 0
        a = 1.0 - p.r
        b = -(2.0 + branch * coh)
        c = 1.0
        if a == 0.0:
            candidates.append(-c / b)
            continue
        disc = b * b - 4.0 * a * c
        scale = max(b * b, abs(4.0 * a * c))
        if disc <= 1e-14 * scale:
            # no real roots, or a double root where u2 - u3 only touches zero
            continue
        sq = math.sqrt(disc)
        r1 = (-b + sq) / (2.0 * a)
        r2 = c / (a * r1)
        candidates.extend((r1, r2))

    roots = []
    for x in sorted(candidates):
        if not (0.0 < x <= 1.0 + 1e-12):
            continue
        x = min(x, 1.0)
        if roots and abs(x - roots[-1]) <= 1e-12:
            continue
        u = ewl_eigenvalues(p, x)
        if abs(u.u2 - u.u3) > 1e-10:
            continue
        h = 1e-7
        if _ewl_balance(p, x - h) * _ewl_balance(p, x + h) >= 0.0:
            continue
        roots.append(x)
    return roots


class EventKind(str, Enum):
    SET_JUMP = "SetJump"
    VIOLATION_ON = "ViolationOn"
    VIOLATION_OFF = "ViolationOff"


@dataclass(frozen=True)
class ScanEvent:
    kind: EventKind
    t: float
    q2: float


@dataclass(frozen=True)
class TimeScanRecord:
    """One sample of a trajectory scan; `events` lists the refined events that
    occurred since the previous sample."""

    t: float
    q2: float
    u: BellEigenvalues
    bmax: float
    active_set: Region
    settings: AngleSettings
    events: tuple[ScanEvent, ...] = ()


def _bisect_event(f, lo: float, hi: float) -> float:
    s_lo = _sign(f(lo))
    for _ in range(_MAX_BISECT_ITERS):
        if hi - lo <= EVENT_REL_TOL * max(abs(lo), abs(hi)):
            break
        mid = 0.5 * (lo + hi)
        if _sign(f(mid)) == s_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _pow2(v):
    # Python's `v ** 2`: libm's pow, not v * v
    return np.float_power(v, 2.0)


@np.errstate(all="ignore")  # every non-finite value fails a check below
def _eigenvalues_along(x0: XState, q) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(u1, u2, u3) of x0 evolved to each amplitude of the array q.

    The evolve_x element map and the x_state_eigenvalues formulas in array
    form, bit for bit the scalar values.  An amplitude that fails any check
    of the scalar path is re-run through it, which raises that check's
    exception; the earliest such amplitude in q's order is the one reported.
    """
    q = np.asarray(q, dtype=complex)
    qr, qi = q.real, q.imag
    abs_q = np.hypot(qr, qi)
    x = np.minimum(1.0, _pow2(abs_q))
    fed = x0.rho11 * (1.0 - x)
    r11 = x0.rho11 * x * x
    r22 = x * (x0.rho22 + fed)
    r33 = x * (x0.rho33 + fed)
    r44 = 1.0 - (r11 + r22 + r33)
    # rho14 -> q q rho14, rho23 -> x rho23
    qq_re, qq_im = qr * qr - qi * qi, qr * qi + qi * qr
    a, b = x0.rho14.real, x0.rho14.imag
    mod14 = np.hypot(qq_re * a - qq_im * b, qq_re * b + qq_im * a)
    mod23 = np.hypot(x * x0.rho23.real, x * x0.rho23.imag)
    u1 = 4.0 * _pow2(mod14 + mod23)
    u2 = _pow2(r11 + r44 - r22 - r33)
    u3 = 4.0 * _pow2(mod14 - mod23)

    bad = (abs_q > 1.0 + 1e-12) | (np.abs(r11 + r22 + r33 + r44 - 1.0) > TRACE_TOL)
    for p in (r11, r22, r33, r44):
        bad |= ~((-POSITIVITY_TOL <= p) & (p <= 1.0 + POSITIVITY_TOL))
    bad |= ~(_pow2(mod14) - POSITIVITY_TOL <= r11 * r44)
    bad |= ~(_pow2(mod23) - POSITIVITY_TOL <= r22 * r33)
    for u in (u1, u2, u3):
        bad |= ~((-1e-12 <= u) & (u <= 1.0 + 1e-10))  # NaN is bad too
    bad |= u1 < u3 - 1e-12
    bad |= u1 + np.maximum(u2, u3) > 2.0 + 1e-10
    if bad.any():
        x_state_eigenvalues(evolve_x(x0, complex(q.flat[np.argmax(bad)])))
    return u1, u2, u3


def _probe_signs(x0: XState, q) -> tuple[np.ndarray, np.ndarray]:
    """Signs of u2 - u3 and of bmax - 2 (+1 for >= 0, else -1, as _sign)
    of x0 evolved to each amplitude of the array q."""
    u1, u2, u3 = _eigenvalues_along(x0, q)
    b1 = 2.0 * np.sqrt(np.maximum(0.0, u1 + u2))
    b2 = 2.0 * np.sqrt(np.maximum(0.0, u1 + u3))
    return (np.where(u2 - u3 >= 0.0, 1.0, -1.0),
            np.where(np.maximum(b1, b2) - 2.0 >= 0.0, 1.0, -1.0))


def time_scan(x0: XState, model: QModel, t_grid) -> list[TimeScanRecord]:
    """Evolve x0 along t_grid, tracking eigenvalues, Bell maximum, active
    settings, and refined SetJump / ViolationOn / ViolationOff events.

    Each grid interval is probed at 9 interior points, so several crossings
    per interval (non-monotonic |q(t)|^2) are found; when more than one
    crossing of the same quantity falls inside a single interval a
    GridTooCoarse warning is emitted, since endpoint signs alone would have
    missed them.

    All probes of all intervals are evaluated as one array: q(t) of every
    model takes an array of times, and _probe_signs gives the signs of
    u2 - u3 and bmax - 2 at each.  Only intervals where a sign changes are
    bisected.  Grid rows go through evolve_x and optimal_settings.
    """
    t_list = [float(t) for t in t_grid]
    if not t_list:
        raise ValueError("t_grid must not be empty")
    if t_list[0] != 0.0:
        raise ValueError("t_grid must start at 0")
    if any(b <= a for a, b in zip(t_list, t_list[1:])):
        raise ValueError("t_grid must be strictly increasing")
    if not all(map(math.isfinite, t_list)):
        raise ValueError("t_grid must be finite")
    t_grid = np.array(t_list)
    q_grid = model.q(t_grid).tolist()
    # row i: np.linspace(t_i, t_i+1, 11), the same values as a per-interval
    # call unless some interval is so narrow (< 1e-322) that its step is 0
    probes = np.linspace(t_grid[:-1], t_grid[1:], _PROBES_PER_INTERVAL + 2,
                         axis=1)
    signs = _probe_signs(x0, model.q(probes))
    flips = [s[:, 1:] != s[:, :-1] for s in signs]
    eventful = [False] + (flips[0].any(axis=1) | flips[1].any(axis=1)).tolist()

    records: list[TimeScanRecord] = []
    for i, (t, q) in enumerate(zip(t_list, q_grid)):
        settings, u = optimal_settings(evolve_x(x0, q))
        events: list[ScanEvent] = []
        if eventful[i]:
            p = probes[i - 1]
            for k, label in enumerate(("u2-u3", "bmax-2")):
                js = np.flatnonzero(flips[k][i - 1])
                if len(js) >= 2:
                    warnings.warn(GridTooCoarse(
                        f"{len(js)} sign changes of {label} inside grid "
                        f"interval [{t_list[i - 1]!r}, {t!r}]; endpoint signs "
                        f"alone would miss some of them"
                    ))
                for j in js:
                    t_star = _bisect_event(
                        lambda s, k=k: _probe_signs(x0, model.q(s))[k],
                        float(p[j]), float(p[j + 1]))
                    if k == 0:
                        kind = EventKind.SET_JUMP
                    elif signs[1][i - 1, j] < 0:
                        kind = EventKind.VIOLATION_ON
                    else:
                        kind = EventKind.VIOLATION_OFF
                    events.append(ScanEvent(kind, t_star,
                                            abs(model.q(t_star)) ** 2))
        events.sort(key=lambda e: e.t)
        records.append(TimeScanRecord(
            t=t, q2=abs(q) ** 2, u=u, bmax=u.bmax,
            active_set=u.region, settings=settings, events=tuple(events),
        ))
    return records


def scan_events(records: list[TimeScanRecord]) -> list[ScanEvent]:
    """All events of a scan in time order."""
    return [e for r in records for e in r.events]
