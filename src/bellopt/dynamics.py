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
array values equal the scalar ones bit for bit, so a scan's rows are those
of per-time evaluation.  Hence exp goes through complex arrays (np.exp of a
real array differs from math.exp in ~5% of last bits) and complex products
keep a zero term.

Along a trajectory (u1, u2, u3) depend on t only through x = |q(t)|^2, so
its events are crossings of levels of x set by the initial state, found by
a secant with bisection fallback between the model's turning_times, where
|q|^2 is monotone.  time_scan gives a TimeScan of columns, one entry per
sample time, from one array pass that equals evolve_x and optimal_settings
bit for bit; scan_events(x0, model, tmax) gives the events up to tmax,
which depend on no sampling.
"""

from __future__ import annotations

import cmath
import csv
import math
from dataclasses import dataclass
from enum import Enum
from typing import Union

import numpy as np

from .angles import _HALF_PI, _sign, optimal_settings
from .chsh import TIE_TOL, Region
from .states import POSITIVITY_TOL, TRACE_TOL, DensityMatrix4, XState

EVENT_REL_TOL = 1e-9
_MAX_ROOT_ITERS = 80
MAX_PIECES = 10 ** 6
MAX_SAMPLES = 10 ** 6


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


def _check_pieces(count: float, tmax: float) -> None:
    if count > MAX_PIECES:
        raise ValueError(f"|q(t)|^2 has {count:.0f} monotone pieces up to "
                         f"t = {tmax!r}, more than {MAX_PIECES}")


def _like_t(q: np.ndarray, t: np.ndarray):
    # a float t gives a Python complex, an array t an array of t's shape
    return complex(q) if t.ndim == 0 else q


@dataclass(frozen=True)
class ExponentialModel:
    """Memoryless environment with decay rate gamma: |q(t)|^2 = exp(-gamma t),
    phase zero."""

    gamma: float

    def __post_init__(self):
        _finite_positive(gamma=self.gamma)

    @np.errstate(over="ignore")  # gamma t overflows to inf only where q = 0
    def q(self, t):
        t = _times(t)
        # exp of a complex array is libm's exp, as math.exp; np.exp of a real
        # array is not, in the last bit
        return _like_t(np.exp(-0.5 * self.gamma * t + 0j).real + 0j, t)

    def turning_times(self, tmax: float) -> np.ndarray:
        """Times in (0, tmax) between which |q|^2 is monotone: none."""
        return np.empty(0)


@dataclass(frozen=True)
class LorentzianModel:
    """Single-resonance environment with width lam and coupling gamma0.

    q(t) = exp(-lam t / 2) [cosh(d t / 2) + (lam / d) sinh(d t / 2)] with
    d = sqrt(lam^2 - 2 gamma0 lam), continued to the trigonometric form when
    2 gamma0 > lam.  Weak coupling reduces to near-exponential decay of
    |q|^2 at rate gamma0; strong coupling yields collapses and revivals.
    """

    lam: float
    gamma0: float

    def __post_init__(self):
        lam, gamma0 = self.lam, self.gamma0
        _finite_positive(lam=lam, gamma0=gamma0)
        if math.isinf(lam * lam) or math.isinf(2.0 * gamma0 * lam):
            raise ValueError(f"lam^2 - 2*gamma0*lam overflows for lam = {lam!r}, "
                             f"gamma0 = {gamma0!r}")
        object.__setattr__(self, "_d", cmath.sqrt(complex(lam * lam - 2.0 * gamma0 * lam)))

    @np.errstate(over="ignore", invalid="ignore")  # checked below
    def q(self, t):
        t = _times(t)
        lam, gamma0, d = self.lam, self.gamma0, self._d
        # d is real (2 gamma0 <= lam) or imaginary, so z is too, and every
        # complex product below has a zero term: it rounds as Python's does.
        z = 0.5 * d * t
        val = np.empty(t.shape)
        far = (z.real > 1.0) & (lam * t > 1400.0)
        if far.any():
            # Weak coupling at large t: cosh/sinh overflow near z = 710, and
            # exp(-lam t / 2) loses precision below e^-708, although q only
            # decays.  The same q with the exponents combined: both are <= 0
            # and the second term is e^(-2z) times smaller, so nothing
            # cancels.  (d - lam) / 2 is written -gamma0 lam / (d + lam),
            # which keeps its digits when lam >> gamma0 and d rounds to lam.
            r = lam / d
            tf = t[far]
            val[far] = (0.5 * (1.0 + r) * np.exp(-gamma0 * lam / (d + lam) * tf)
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

    def turning_times(self, tmax: float) -> np.ndarray:
        """Times in (0, tmax) between which |q|^2 is monotone.  With d = i Omega,
        q' = -exp(-lam t/2) sin(Omega t/2) (lam^2 + Omega^2)/(2 Omega): none if
        Omega = 0 (weak or critical coupling); else the extrema Omega t/2 = k pi
        and zeros tan(Omega t/2) = -Omega/lam: Omega t/2 = k pi - atan(Omega/lam)."""
        omega = self._d.imag
        phi = math.atan(omega / self.lam)
        k_max = (0.5 * omega * tmax + phi) / math.pi
        _check_pieces(2.0 * k_max, tmax)  # about one zero and one extremum per k
        k_pi = np.arange(1.0, math.ceil(k_max) + 1.0) * math.pi
        t = np.column_stack((k_pi - phi, k_pi)).ravel() * 2.0 / omega
        return t[t < tmax]


@dataclass(frozen=True)
class TabulatedModel:
    """User-supplied q(t) samples, linearly interpolated (real and imaginary
    parts separately).  Requires at least two finite samples, strictly
    increasing times starting at 0, q(0) = 1 and |q| <= 1 at every sample."""

    times: tuple[float, ...]
    values: tuple[complex, ...]

    def __post_init__(self):
        times = tuple(map(float, self.times))
        values = tuple(map(complex, self.values))
        if len(times) != len(values) or len(times) < 2:
            raise ValueError("times and values must be equally long, with "
                             "at least two samples")
        t, v = np.array(times), np.array(values)
        bad = ~(np.isfinite(t) & np.isfinite(v))  # complex: both parts finite
        if bad.any():
            i = int(bad.argmax())
            raise ValueError(f"sample {i} is not finite: t = {times[i]!r}, "
                             f"q = {values[i]!r}")
        if times[0] != 0.0:
            raise ValueError("samples must start at t = 0")
        if (t[1:] <= t[:-1]).any():
            raise ValueError("times must be strictly increasing")
        if abs(values[0] - 1.0) > 1e-12:
            raise ValueError("q(0) must equal 1")
        # np.abs of a complex may differ from abs() in the last bit, so it
        # only picks the samples whose abs() is compared
        near = np.flatnonzero(np.abs(v) > 1.0 + 0.5e-12).tolist()
        worst = max((abs(values[i]) for i in near), default=0.0)
        if worst > 1.0 + 1e-12:
            raise ValueError(f"|q| exceeds 1 at a sample: {worst!r}")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_t", t)
        object.__setattr__(self, "_v", v)

    @classmethod
    def from_csv(cls, path) -> "TabulatedModel":
        """Load samples from a CSV file with header `t,q_re,q_im` and three
        fields in every other non-empty row."""
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader, None)
                if header is None or [h.strip() for h in header] != ["t", "q_re", "q_im"]:
                    raise ValueError("expected CSV header 't,q_re,q_im'")
                times, values = [], []
                for row in reader:
                    if not row:
                        continue
                    if len(row) != 3:
                        raise ValueError(f"line {reader.line_num}: expected 3 "
                                         f"fields, got {len(row)}")
                    times.append(float(row[0]))
                    values.append(complex(float(row[1]), float(row[2])))
            except csv.Error as exc:  # a malformed or oversized field
                raise ValueError(f"line {reader.line_num}: {exc}") from exc
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

    @np.errstate(divide="ignore", invalid="ignore")  # constant segments
    def turning_times(self, tmax: float) -> np.ndarray:
        """Times in (0, tmax) between which |q|^2 is monotone: the sample
        times, and on each segment, where q is linear and |q|^2 a quadratic
        in t, its interior extremum."""
        v, dv = self._v[:-1], np.diff(self._v)
        w = -(v.real * dv.real + v.imag * dv.imag) / (dv.real ** 2 + dv.imag ** 2)
        inside = (w > 0.0) & (w < 1.0)
        turns = self._t[:-1][inside] + w[inside] * np.diff(self._t)[inside]
        t = np.sort(np.concatenate((self._t[1:], turns)))
        t = t[t < tmax]
        _check_pieces(len(t) + 1, tmax)
        return t


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


def trajectory_coefficients(x0: XState) -> tuple[float, float, float, float]:
    """(k1, k3, b, a) such that along evolve_x(x0, q), with x = |q|^2,
    u1 = (k1 x)^2, u3 = (k3 x)^2 and u2 = gap(x)^2, where the diagonal gap is
    1 - 2 x (rho22 + rho33 + 2 rho11 (1 - x)) = 1 + b x + a x^2."""
    m14, m23 = abs(x0.rho14), abs(x0.rho23)
    return (2.0 * (m14 + m23), 2.0 * abs(m14 - m23),
            -2.0 * (x0.rho22 + x0.rho33 + 2.0 * x0.rho11), 4.0 * x0.rho11)


def _quadratic_roots(a: float, b: float) -> list[float]:
    # real roots of a x^2 + b x + 1, but no double root: it only touches 0
    if a == 0.0:
        return [-1.0 / b] if b else []
    disc = b * b - 4.0 * a
    if disc <= 1e-14 * max(b * b, abs(4.0 * a)):
        return []
    r1 = (-b + math.copysign(math.sqrt(disc), -b)) / (2.0 * a)
    return [r1, 1.0 / (a * r1)]


def _sign_changes(f, candidates) -> list[tuple[float, float]]:
    """(x, sign of f just above x) for each distinct candidate x in (0, 1]
    across which f changes sign, judged 1e-7 away or halfway to a nearer
    neighbouring candidate; f must be defined a little beyond [0, 1]."""
    xs = sorted(min(x, 1.0) for x in candidates if 0.0 < x <= 1.0 + 1e-12)
    xs = [x for i, x in enumerate(xs) if i == 0 or x - xs[i - 1] > 1e-12]
    levels: list[tuple[float, float]] = []
    for prev, x, nxt in zip([-1.0] + xs, xs, xs[1:] + [3.0]):  # -1, 3: no neighbour
        below = _sign(f(max(x - 1e-7, 0.5 * (prev + x))))
        above = _sign(f(min(x + 1e-7, 0.5 * (x + nxt))))
        if below != above:
            levels.append((x, above))
    return levels


def crossing_levels(x0: XState) -> list[float]:
    """All x = |q|^2 in (0, 1] where u2 - u3 changes sign along evolve_x(x0, q):
    the simple roots of gap(x) = +-k3 x, two quadratics (a tangency is
    dropped).  Empty when k3 = 0, as u3 is then zero and never exceeds u2."""
    _, k3, b, a = trajectory_coefficients(x0)
    candidates = _quadratic_roots(a, b - k3) + _quadratic_roots(a, b + k3)
    return [x for x, _ in _sign_changes(
        lambda x: (1.0 + b * x + a * x * x) ** 2 - (k3 * x) ** 2, candidates)]


def crossing_roots(p: EWLParams) -> list[float]:
    """crossing_levels of the extended Werner-like state p."""
    return crossing_levels(ewl_state(p))


def _violation_levels(x0: XState) -> list[tuple[float, float]]:
    """(x, sign of bmax - 2 just above x) for each x = |q|^2 in (0, 1] where
    bmax - 2, like max(u1 + u2, u1 + u3) - 1, changes sign: u1 + u3 = 1 at
    x = 1 / sqrt(k1^2 + k3^2), and (u1 + u2 - 1) / x is a cubic."""
    k1, k3, b, a = trajectory_coefficients(x0)
    candidates = [1.0 / math.hypot(k1, k3)] if k1 else []
    cubic = np.roots([a * a, 2.0 * a * b, b * b + 2.0 * a + k1 * k1, 2.0 * b])
    candidates += cubic.real[np.abs(cubic.imag) <= 1e-9].tolist()

    def excess(x):  # max(u1 + u2, u1 + u3) - 1
        return (k1 * x) ** 2 + max((1.0 + b * x + a * x * x) ** 2, (k3 * x) ** 2) - 1.0
    return _sign_changes(excess, candidates)


class EventKind(str, Enum):
    SET_JUMP = "SetJump"
    VIOLATION_ON = "ViolationOn"
    VIOLATION_OFF = "ViolationOff"


@dataclass(frozen=True)
class ScanEvent:
    kind: EventKind
    t: float
    q2: float


def _crossing_times(model: QModel, lo: np.ndarray, hi: np.ndarray,
                    x_lo: np.ndarray, x_hi: np.ndarray,
                    target: np.ndarray) -> np.ndarray:
    """For brackets [lo, hi] with x = |q|^2 >= target at exactly one end (x
    at the ends: x_lo, x_hi), the midpoints of the brackets narrowed to
    EVENT_REL_TOL of t around the crossing, all stepped together by one array
    model.q call per step of the Illinois secant on g = x - target (Dowell
    and Jarratt, BIT 11, 168 (1971)) with the scale factor of Anderson and
    Bjorck (BIT 13, 253 (1973)).  The bit-pattern midpoint stands in for a
    secant point not strictly inside (lo, hi) and after a step that left g
    unchanged (x rounds to a constant there, as exp underflowing to 0)."""
    falling = x_lo >= target
    g_lo, g_hi = x_lo - target, x_hi - target
    kept_hi = kept_lo = flat = np.zeros(len(lo), dtype=bool)
    for _ in range(_MAX_ROOT_ITERS):
        open_ = hi - lo > EVENT_REL_TOL * hi
        if not open_.any():
            break
        # g_lo, g_hi have opposite signs, so the ratio is in [0, 1]; a point
        # EVENT_REL_TOL / 2 or more from either end closes the bracket in one
        # step once an end is that close to the root
        s = np.clip(hi - (hi - lo) * (g_hi / (g_hi - g_lo)),
                    lo + 0.5 * EVENT_REL_TOL * lo, hi - 0.5 * EVENT_REL_TOL * hi)
        # halfway between the bit patterns of floats >= 0: the arithmetic
        # midpoint within a binade, and across binades it halves the exponent
        # range, so a bracket up to [0, 1e308] closes in < 80 steps
        bits = lo.view(np.int64)
        mid = (bits + (hi.view(np.int64) - bits) // 2).view(np.float64)
        t = np.where((lo < s) & (s < hi) & ~flat, s, mid)
        q = model.q(t)
        x = q.real ** 2 + q.imag ** 2
        g = x - target
        to_lo = open_ & ((x >= target) == falling)
        to_hi = open_ & ~to_lo
        g_old = np.where(to_lo, g_lo, g_hi)  # at the end that t replaces
        flat = g == g_old
        # an end kept twice in a row has its g scaled down, so the next
        # secant point lands past the root: by 1 - g / g_old, else by 1/2
        with np.errstate(divide="ignore", invalid="ignore"):  # g_old = 0
            m = 1.0 - g / g_old
        m = np.where(m > 0.0, m, 0.5)
        g_hi = np.where(to_lo & kept_hi, m * g_hi, g_hi)
        g_lo = np.where(to_hi & kept_lo, m * g_lo, g_lo)
        lo, g_lo = np.where(to_lo, t, lo), np.where(to_lo, g, g_lo)
        hi, g_hi = np.where(to_hi, t, hi), np.where(to_hi, g, g_hi)
        kept_hi, kept_lo = to_lo, to_hi
    return 0.5 * (lo + hi)


def scan_events(x0: XState, model: QModel, tmax: float) -> list[ScanEvent]:
    """The SetJump / ViolationOn / ViolationOff events of evolve_x(x0, q(t))
    for t in (0, tmax), in time order.

    Every event is the crossing of a level of x = |q(t)|^2 computed once from
    x0 (crossing_levels for SetJump, the sign changes of bmax - 2 for
    ViolationOn/Off).  The model's turning_times cut (0, tmax) into pieces
    where x is monotone, and all crossings on all pieces are found together
    by a secant with bisection fallback, one array q(t) call per step, to
    EVENT_REL_TOL of t (_crossing_times).  A level within 1e-12 of x = 1 is
    left out: x <= 1 can only touch it.
    """
    tmax = float(tmax)
    if not (math.isfinite(tmax) and tmax >= 0.0):
        raise ValueError(f"tmax must be finite and >= 0, got {tmax!r}")
    jump, on, off = EventKind.SET_JUMP, EventKind.VIOLATION_ON, EventKind.VIOLATION_OFF
    # (x*, kind when x falls through x*, kind when it rises)
    levels = [(x, jump, jump) for x in crossing_levels(x0)]
    levels += [(x, off, on) if above > 0 else (x, on, off)
               for x, above in _violation_levels(x0)]
    levels = [lv for lv in levels if lv[0] < 1.0 - 1e-12]
    edges = np.concatenate(([0.0], model.turning_times(tmax), [tmax]))
    level_x = np.array([lv[0] for lv in levels])
    q = model.q(edges)
    x = q.real ** 2 + q.imag ** 2
    side = x[:, None] >= level_x
    piece, k = np.nonzero(side[1:] != side[:-1])
    t_star = _crossing_times(model, edges[piece], edges[piece + 1], x[piece],
                             x[piece + 1], level_x[k])
    kinds = [levels[i][1 if f else 2]
             for i, f in zip(k.tolist(), side[piece, k].tolist())]
    return sorted((ScanEvent(kind, t, abs(q) ** 2) for kind, t, q in
                   zip(kinds, t_star.tolist(), model.q(t_star).tolist())),
                  key=lambda e: e.t)


@dataclass(frozen=True)
class TimeScan:
    """A trajectory scan as columns, entry i for sample time t[i]: q2 =
    |q(t)|^2, the eigenvalues u1, u2, u3 of the evolved state, the Bell values
    b1, b2 and bmax, the active region (1 or 2) with its tie flag, and the
    eight angles of the active set as thetas and phis of shape (n, 4), in
    AngleSettings.thetas / .phis order.  Entry i equals what evolve_x,
    x_state_eigenvalues and optimal_settings give at t[i], bit for bit."""

    t: np.ndarray
    q2: np.ndarray
    u1: np.ndarray
    u2: np.ndarray
    u3: np.ndarray
    b1: np.ndarray
    b2: np.ndarray
    bmax: np.ndarray
    region: np.ndarray
    tie: np.ndarray
    thetas: np.ndarray
    phis: np.ndarray


# Array forms of the scalar row path evolve_x -> x_state_eigenvalues ->
# optimal_settings, equal to it bit for bit, the sign of zero included.
# That rules out the obvious numpy calls: v ** 2 is libm's pow, which
# differs from v * v in the last bit for some v; numpy's arctan2 differs
# from libm's atan2 for ~7% of arguments on AVX-512 hosts; and a complex
# product rounds as Python's only when written out in its order.  abs of a
# complex is hypot, and np.sqrt and np.fmod are exact.

def _sq(v: np.ndarray) -> np.ndarray:
    # float ** 2
    return np.float_power(v, 2.0)


def _atan2(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    # math.atan2, and cmath.phase(complex(x, y))
    return np.fromiter(map(math.atan2, y.tolist(), x.tolist()), float, len(y))


def _evolve_rows(x0: XState, q: np.ndarray, q2: np.ndarray):
    # evolve_x(x0, q) for each q, with q2 = abs(q) ** 2: the populations and
    # the coherences rho14, rho23 as (real, imaginary) pairs
    x = np.where(q2 < 1.0, q2, 1.0)  # min(1.0, q2)
    fed = x0.rho11 * (1.0 - x)
    r11 = x0.rho11 * x * x
    r22 = x * (x0.rho22 + fed)
    r33 = x * (x0.rho33 + fed)
    r44 = 1.0 - (r11 + r22 + r33)
    # q * q * rho14, and x * rho23 as Python multiplies: complex(x, 0.0) * rho23
    c14, c23 = complex(x0.rho14), complex(x0.rho23)
    sr, si = q.real * q.real - q.imag * q.imag, q.real * q.imag + q.imag * q.real
    rho14 = (sr * c14.real - si * c14.imag, sr * c14.imag + si * c14.real)
    rho23 = (x * c23.real - 0.0 * c23.imag, x * c23.imag + 0.0 * c23.real)
    return r11, r22, r33, r44, rho14, rho23


def _normalize_rows(theta: np.ndarray, phi: np.ndarray):
    # normalize_direction(theta, phi) elementwise
    theta = np.fmod(theta, 2.0 * math.pi)
    theta = np.where(theta < 0.0, theta + 2.0 * math.pi, theta)
    flip = theta > math.pi
    theta = np.where(flip, 2.0 * math.pi - theta, theta)
    phi = np.fmod(np.where(flip, phi + math.pi, phi), 2.0 * math.pi)
    phi = np.where(phi > math.pi, phi - 2.0 * math.pi,
                   np.where(phi <= -math.pi, phi + 2.0 * math.pi, phi))
    return theta + 0.0, phi + 0.0


def _settings_rows(set1, gap, u1, u2, u3, m14, m23, rho14, rho23):
    # the raw angles of _set1 where set1, else of _set2, normalized as
    # AngleSettings.from_angles does
    arg14, arg23 = _atan2(rho14[1], rho14[0]), _atan2(rho23[1], rho23[0])
    spread = _atan2(np.sqrt(np.where(set1, u2, u3)), np.sqrt(u1))  # set 1: tilt
    phi1 = -0.5 * (arg14 + arg23)
    half_rel = 0.5 * (arg23 - arg14)  # phi2 of set 1
    theta2 = _HALF_PI - np.where(gap >= 0.0, 1.0, -1.0) * spread
    phi1p = phi1 + np.where(m23 - m14 >= 0.0, 1.0, -1.0) * _HALF_PI
    zero = np.zeros_like(phi1)
    thetas = np.where(set1[:, None],
                      np.column_stack((zero + _HALF_PI, zero, theta2, math.pi - theta2)),
                      _HALF_PI)
    phis = np.where(set1[:, None],
                    np.column_stack((phi1, zero, half_rel, half_rel)),
                    np.column_stack((phi1, phi1p, half_rel + spread, half_rel - spread)))
    return _normalize_rows(thetas, phis)


def time_scan(x0: XState, model: QModel, t_grid) -> TimeScan:
    """Evolve x0 along t_grid (at most MAX_SAMPLES times) in one array pass,
    from one model.q call.  Each check of the scalar path is one mask, and
    the first row that fails one raises what the scalar path raises there.
    The events of the trajectory come from scan_events(x0, model,
    t_grid[-1]).
    """
    t = np.array(t_grid, dtype=float)
    if t.ndim != 1:
        raise ValueError("t_grid must be one-dimensional")
    if len(t) > MAX_SAMPLES:
        raise ValueError(f"t_grid has {len(t)} samples, more than {MAX_SAMPLES}")
    if not len(t):
        raise ValueError("t_grid must not be empty")
    if t[0] != 0.0:
        raise ValueError("t_grid must start at 0")
    if (t[1:] <= t[:-1]).any():
        raise ValueError("t_grid must be strictly increasing")
    if not np.isfinite(t).all():
        raise ValueError("t_grid must be finite")
    return _scan_columns(x0, t, model.q(t))


@np.errstate(all="ignore")  # a row that is not finite fails its check
def _scan_columns(x0: XState, t: np.ndarray, q: np.ndarray) -> TimeScan:
    mod_q = np.hypot(q.real, q.imag)
    q2 = _sq(mod_q)
    r11, r22, r33, r44, rho14, rho23 = _evolve_rows(x0, q, q2)
    pops = np.stack((r11, r22, r33, r44))
    # x_state_eigenvalues
    m14, m23 = np.hypot(*rho14), np.hypot(*rho23)
    gap = r11 + r44 - r22 - r33
    u1, u2, u3 = 4.0 * _sq(m14 + m23), _sq(gap), 4.0 * _sq(m14 - m23)
    u = np.stack((u1, u2, u3))
    failed = (
        (mod_q > 1.0 + 1e-12)  # evolve_x
        # XState: trace, populations, outer and inner 2x2 blocks PSD
        | (abs(r11 + r22 + r33 + r44 - 1.0) > TRACE_TOL)
        | ~((-POSITIVITY_TOL <= pops) & (pops <= 1.0 + POSITIVITY_TOL)).all(axis=0)
        | ~(_sq(m14) - POSITIVITY_TOL <= r11 * r44)
        | ~(_sq(m23) - POSITIVITY_TOL <= r22 * r33)
        # BellEigenvalues: range, u1 >= u3, Tsirelson
        | ~((-1e-12 <= u) & (u <= 1.0 + 1e-10)).all(axis=0)
        | (u1 < u3 - 1e-12)
        | (u1 + np.where(u3 > u2, u3, u2) > 2.0 + 1e-10)
    )
    if failed.any():  # the scalar path raises the first failing row's error
        optimal_settings(evolve_x(x0, complex(q[failed.argmax()])))
    tie = abs(u2 - u3) <= TIE_TOL
    set1 = tie | (u2 >= u3)
    # BellEigenvalues.b1, .b2 and .bmax, with max(0.0, s) and max(b1, b2)
    s1, s2 = u1 + u2, u1 + u3
    b1 = 2.0 * np.sqrt(np.where(s1 > 0.0, s1, 0.0))
    b2 = 2.0 * np.sqrt(np.where(s2 > 0.0, s2, 0.0))
    thetas, phis = _settings_rows(set1, gap, u1, u2, u3, m14, m23, rho14, rho23)
    return TimeScan(t=t, q2=q2, u1=u1, u2=u2, u3=u3, b1=b1, b2=b2,
                    bmax=np.where(b2 > b1, b2, b1),
                    region=np.where(set1, int(Region.SET1), int(Region.SET2)),
                    tie=tie, thetas=thetas, phis=phis)
