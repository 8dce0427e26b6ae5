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
"""

from __future__ import annotations

import bisect
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
from .states import DensityMatrix4, XState

EVENT_REL_TOL = 1e-9
_MAX_BISECT_ITERS = 80
_PROBES_PER_INTERVAL = 9


class GridTooCoarse(UserWarning):
    """More than one event of the same kind fell inside one grid interval."""


def q_exponential(t: float, gamma: float) -> complex:
    """Markovian amplitude: |q(t)|^2 = exp(-gamma t), phase zero."""
    if t < 0:
        raise ValueError("t must be >= 0")
    if gamma <= 0:
        raise ValueError("gamma must be > 0")
    return complex(math.exp(-0.5 * gamma * t), 0.0)


def q_lorentzian(t: float, lam: float, gamma0: float) -> complex:
    """Damped-oscillator amplitude for a Lorentzian environment.

    q(t) = exp(-lam t / 2) [cosh(d t / 2) + (lam / d) sinh(d t / 2)] with
    d = sqrt(lam^2 - 2 gamma0 lam), continued to the trigonometric form when
    2 gamma0 > lam.  Weak coupling reduces to near-exponential decay of
    |q|^2 at rate gamma0; strong coupling yields collapses and revivals.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    if lam <= 0 or gamma0 <= 0:
        raise ValueError("lam and gamma0 must be > 0")
    d = cmath.sqrt(complex(lam * lam - 2.0 * gamma0 * lam))
    z = 0.5 * d * t
    if z.real > 1.0 and lam * t > 1400.0:
        # Weak coupling at large t: cosh/sinh overflow near z = 710, and
        # exp(-lam t / 2) loses precision below e^-708, although q only
        # decays.  The same q with the exponents combined: both are <= 0 and
        # the second term is e^(-2z) times smaller, so nothing cancels.
        r = lam / d
        val = (0.5 * (1.0 + r) * cmath.exp(0.5 * (d - lam) * t)
               + 0.5 * (1.0 - r) * cmath.exp(-0.5 * (d + lam) * t))
    else:
        if abs(z) < 1e-6:
            sinhc = 1.0 + z * z / 6.0
        else:
            sinhc = cmath.sinh(z) / z
        val = cmath.exp(-0.5 * lam * t) * (cmath.cosh(z) + 0.5 * lam * t * sinhc)
    # q is real for this model; the imaginary residue is pure roundoff.
    return complex(val.real, 0.0)


@dataclass(frozen=True)
class ExponentialModel:
    """Memoryless environment with decay rate gamma."""

    gamma: float

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError("gamma must be > 0")

    def q(self, t: float) -> complex:
        return q_exponential(t, self.gamma)


@dataclass(frozen=True)
class LorentzianModel:
    """Single-resonance environment with width lam and coupling gamma0."""

    lam: float
    gamma0: float

    def __post_init__(self):
        if self.lam <= 0 or self.gamma0 <= 0:
            raise ValueError("lam and gamma0 must be > 0")

    def q(self, t: float) -> complex:
        return q_lorentzian(t, self.lam, self.gamma0)


@dataclass(frozen=True)
class TabulatedModel:
    """User-supplied q(t) samples, linearly interpolated (real and imaginary
    parts separately).  Requires strictly increasing times starting at 0 with
    q(0) = 1 and |q| <= 1 at every sample."""

    times: tuple[float, ...]
    values: tuple[complex, ...]

    def __post_init__(self):
        times = tuple(float(t) for t in self.times)
        values = tuple(complex(v) for v in self.values)
        if len(times) != len(values) or len(times) < 1:
            raise ValueError("times and values must be equally long and non-empty")
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

    def q(self, t: float) -> complex:
        if t < 0:
            raise ValueError("t must be >= 0")
        if t > self.times[-1]:
            raise ValueError(
                f"t = {t!r} beyond the last tabulated sample {self.times[-1]!r}"
            )
        i = bisect.bisect_right(self.times, t) - 1
        if i >= len(self.times) - 1:
            return self.values[-1]
        t0, t1 = self.times[i], self.times[i + 1]
        w = (t - t0) / (t1 - t0)
        return self.values[i] * (1.0 - w) + self.values[i + 1] * w


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


def time_scan(x0: XState, model: QModel, t_grid) -> list[TimeScanRecord]:
    """Evolve x0 along t_grid, tracking eigenvalues, Bell maximum, active
    settings, and refined SetJump / ViolationOn / ViolationOff events.

    Each grid interval is probed at 9 interior points, so several crossings
    per interval (non-monotonic |q(t)|^2) are found; when more than one
    crossing of the same quantity falls inside a single interval a
    GridTooCoarse warning is emitted, since endpoint signs alone would have
    missed them.
    """
    t_grid = [float(t) for t in t_grid]
    if not t_grid:
        raise ValueError("t_grid must not be empty")
    if t_grid[0] != 0.0:
        raise ValueError("t_grid must start at 0")
    if any(b <= a for a, b in zip(t_grid, t_grid[1:])):
        raise ValueError("t_grid must be strictly increasing")

    def eigs_at(t: float) -> BellEigenvalues:
        return x_state_eigenvalues(evolve_x(x0, model.q(t)))

    def jump_fn(t: float) -> float:
        u = eigs_at(t)
        return u.u2 - u.u3

    def violation_fn(t: float) -> float:
        return eigs_at(t).bmax - 2.0

    records: list[TimeScanRecord] = []
    for i, t in enumerate(t_grid):
        q = model.q(t)
        xt = evolve_x(x0, q)
        settings, u = optimal_settings(xt)
        events: list[ScanEvent] = []
        if i > 0:
            lo, hi = t_grid[i - 1], t
            probes = np.linspace(lo, hi, _PROBES_PER_INTERVAL + 2)
            for fn, kinds in (
                (jump_fn, None),
                (violation_fn, (EventKind.VIOLATION_ON, EventKind.VIOLATION_OFF)),
            ):
                signs = [_sign(fn(p)) for p in probes]
                crossings = [
                    (probes[j], probes[j + 1], signs[j])
                    for j in range(len(probes) - 1)
                    if signs[j] != signs[j + 1]
                ]
                if len(crossings) >= 2:
                    label = "u2-u3" if kinds is None else "bmax-2"
                    warnings.warn(GridTooCoarse(
                        f"{len(crossings)} sign changes of {label} inside grid "
                        f"interval [{lo!r}, {hi!r}]; endpoint signs alone would "
                        f"miss some of them"
                    ))
                for c_lo, c_hi, s_lo in crossings:
                    t_star = _bisect_event(fn, float(c_lo), float(c_hi))
                    if kinds is None:
                        kind = EventKind.SET_JUMP
                    else:
                        kind = kinds[0] if s_lo < 0 else kinds[1]
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
