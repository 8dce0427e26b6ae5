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
with linear interpolation for anything else, held as two read-only arrays.

Every model's q(t) takes a float, giving a Python complex, or an array of
times, giving a complex array of its shape, from one implementation whose
array values equal the scalar ones bit for bit, so a scan's rows are those
of per-time evaluation.  Hence exp goes through complex arrays (np.exp of a
real array differs from math.exp in ~5% of last bits) and complex products
keep a zero term.

Along a trajectory (u1, u2, u3) depend on t only through x = |q(t)|^2, so
its events are crossings of levels of x set by the initial state
(scan_events), each a sign change at rows of candidates (_sign_changes), for
one state or a grid alike: the roots of two quadratics for SetJump, and
1 / hypot(k1, k3) and a cubic's roots, the eigenvalues of a 3x3 companion,
for ViolationOn/Off.  time_scan gives a TimeScan of columns, one entry per
sample time, from one array pass that equals evolve_x and optimal_settings
bit for bit: the eigenvalues come from chsh's one kernel, and each square is
a product, which Python and numpy round alike.
"""

from __future__ import annotations

import cmath
import csv
import io
import math
import re
from array import array
from dataclasses import dataclass
from enum import Enum
from functools import partial
from itertools import chain
from typing import Union

import numpy as np

from .angles import _settings_rows
from .chsh import _bell_rows, _eigenvalues
from .states import MAX_SAMPLES, DensityMatrix4, XState

EVENT_REL_TOL = 1e-9
Q_ABS_MAX = 1.0 + 1e-12  # largest damping amplitude |q| accepted
_MAX_ROOT_ITERS = 80
MAX_PIECES = 10 ** 6
_FIELD_LIMIT = 131072  # csv's default field size limit, in characters
MAX_LINE_BYTES = 3 * (4 * _FIELD_LIMIT + 2) + 4  # csv's limit: 3 quoted fields, 4-byte chars
# below _FIELD_LIMIT, so only a chunk's last line, which readline completes, can be longer
_BLOCK_CHARS = 1 << 16  # characters of table text parsed as one chunk
_PLAIN = b"0123456789.eE+-, \t\n"  # the bytes of a chunk numpy's reader takes
_LINE = re.compile(r"[^\r\n]*(?:\r\n?|\n)|[^\r\n]+")  # a line as readline splits it


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


@dataclass(frozen=True, eq=False)
class TabulatedModel:
    """User-supplied q(t) samples, linearly interpolated (real and imaginary
    parts separately).  Requires at least two finite samples, strictly
    increasing times starting at 0, q(0) = 1 and |q| <= 1 at every sample.
    times and values are read-only float and complex copies of the input."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t, v = np.array(self.times, dtype=float), np.array(self.values, dtype=complex)
        if t.ndim != 1 or t.shape != v.shape or len(t) < 2:
            raise ValueError("times and values must be equally long, with "
                             "at least two samples")
        bad = ~(np.isfinite(t) & np.isfinite(v))  # complex: both parts finite
        if bad.any():
            i = int(bad.argmax())
            raise ValueError(f"sample {i} is not finite: t = {float(t[i])!r}, "
                             f"q = {complex(v[i])!r}")
        if t[0] != 0.0:
            raise ValueError("samples must start at t = 0")
        if (t[1:] <= t[:-1]).any():
            raise ValueError("times must be strictly increasing")
        if abs(complex(v[0]) - 1.0) > 1e-12:
            raise ValueError("q(0) must equal 1")
        worst = float(np.hypot(v.real, v.imag).max())
        if worst > Q_ABS_MAX:
            raise ValueError(f"|q| exceeds 1 at a sample: {worst!r}")
        t.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    @classmethod
    def from_csv(cls, path) -> "TabulatedModel":
        """Load samples from a UTF-8 CSV file (a byte-order mark is skipped) with
        header `t,q_re,q_im`, three fields in every other non-empty row, at most
        MAX_PIECES + 1 rows, and no line (its break included) over MAX_LINE_BYTES.

        After the header, the file is read in chunks of about _BLOCK_CHARS
        characters, each completed to a line end.  A chunk of blank lines and
        plain rows (only the bytes 0-9 . e E + - , space, tab and LF or CRLF,
        no line over csv's field limit, three fields in each row, none past
        the row cap) goes through numpy's reader; any other chunk goes through
        the per-line reader from its first line on.  Over that alphabet numpy
        reads a field exactly when float() does, with the same bits, so the
        files accepted, the values read and the error texts are those of the
        per-line reader alone."""
        times, values = array("d"), array("d")  # t, and the (re, im) pairs of q
        with open(path, encoding="latin-1", newline="") as fh:
            lines = iter(partial(fh.readline, MAX_LINE_BYTES + 1), "")
            header = next(lines, "")
            # a quoted header may run on to later lines, so then all are read per line
            _read_rows(chain([header], lines) if '"' in header else [header], 0, times, values)
            start = 1  # lines before the chunk
            while chunk := fh.read(_BLOCK_CHARS):
                chunk += fh.readline(MAX_LINE_BYTES + 1)  # to the end of its last line
                if not _parse_chunk(chunk, times, values):
                    _read_rows(chain(_LINE.findall(chunk), lines), start, times, values)
                    break
                start += chunk.count("\n")
        return cls(np.frombuffer(times), np.frombuffer(values, dtype=complex))

    def q(self, t):
        t = _times(t)
        beyond = t > self.times[-1]
        if beyond.any():
            raise ValueError(
                f"t = {float(t[beyond].flat[0])!r} beyond the last tabulated "
                f"sample {float(self.times[-1])!r}"
            )
        # The last sample is the right end of the last interval, where
        # w = 1 exactly and the blend is exactly that sample.
        i = np.minimum(np.searchsorted(self.times, t, side="right") - 1,
                       len(self.times) - 2)
        t0, t1 = self.times[i], self.times[i + 1]
        w = (t - t0) / (t1 - t0)
        # each product has a real factor, so it rounds as Python's does
        return _like_t(self.values[i] * (1.0 - w) + self.values[i + 1] * w, t)

    @np.errstate(divide="ignore", invalid="ignore")  # constant segments
    def turning_times(self, tmax: float) -> np.ndarray:
        """Times in (0, tmax) between which |q|^2 is monotone: the sample
        times, and on each segment, where q is linear and |q|^2 a quadratic
        in t, its interior extremum."""
        v, dv = self.values[:-1], np.diff(self.values)
        w = -(v.real * dv.real + v.imag * dv.imag) / (dv.real ** 2 + dv.imag ** 2)
        inside = (w > 0.0) & (w < 1.0)
        turns = self.times[:-1][inside] + w[inside] * np.diff(self.times)[inside]
        t = np.sort(np.concatenate((self.times[1:], turns)))
        t = t[t < tmax]
        _check_pieces(len(t) + 1, tmax)
        return t


def _read_rows(lines, start, times, values) -> None:
    """The per-line reader: append the rows of lines, raw latin-1 text whose
    first line is line start + 1 of the file, to times and values, naming the
    line of any fault; from start = 0 the first row is the header."""
    def decoded():
        # latin-1 maps each byte to one character, so each line is read up
        # to its cap and decoded as UTF-8 by itself, and its errors name it
        for i, line in enumerate(lines, start):
            if len(line) > MAX_LINE_BYTES:
                raise ValueError(f"line {i + 1}: longer than {MAX_LINE_BYTES} bytes")
            yield line.encode("latin-1").decode("utf-8-sig" if i == 0 else "utf-8")
    reader = csv.reader(decoded())
    try:
        if start == 0:
            header = next(reader, None)
            if header is None or [h.strip() for h in header] != ["t", "q_re", "q_im"]:
                raise ValueError("expected CSV header 't,q_re,q_im'")
        for row in reader:
            if not row:
                continue
            try:
                if len(times) > MAX_PIECES:  # parse no further
                    raise ValueError(f"more than {MAX_PIECES + 1} samples")
                if len(row) != 3:
                    raise ValueError(f"expected 3 fields, got {len(row)}")
                times.append(float(row[0]))
                values.extend((float(row[1]), float(row[2])))
            except ValueError as exc:  # too many, too short or long, not a number
                raise ValueError(f"line {start + reader.line_num}: {exc}") from exc
    except csv.Error as exc:  # a malformed or oversized field
        raise ValueError(f"line {start + reader.line_num}: {exc}") from exc
    except UnicodeDecodeError as exc:  # the line after the last one read
        raise ValueError(f"line {start + reader.line_num + 1}: {exc}") from exc


def _parse_chunk(chunk, times, values) -> bool:
    """Append a chunk of blank lines and plain rows of three numbers to times
    and values through numpy's reader, with the per-line reader's row cap;
    False, appending nothing, if any line needs the per-line reader."""
    start = chunk.rfind("\n", 0, -1) + 1  # of the last line, the only one that can be long
    if len(chunk) - chunk.endswith("\n") - chunk.endswith("\r\n") - start > _FIELD_LIMIT or (
            text := chunk.replace("\r\n", "\n")).encode("latin-1").translate(None, _PLAIN):
        return False
    if text.count("\n") == len(text):  # blank lines only; numpy would warn of no data
        return True
    try:  # numpy skips empty lines only, so each other line is one row
        rows = np.loadtxt(io.StringIO(text), delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return False
    if rows.shape[1] != 3 or len(times) + len(rows) > MAX_PIECES + 1:
        return False
    times.frombytes(rows[:, 0].tobytes())
    values.frombytes(rows[:, 1:].tobytes())
    return True


QModel = Union[ExponentialModel, LorentzianModel, TabulatedModel]


def apply_amplitude_damping(rho0: DensityMatrix4, q: complex) -> DensityMatrix4:
    """Apply the one-qubit damping map with amplitude q to both qubits.

    Operator-sum form with Kraus pair K0 = diag(q, 1), K1 = sqrt(1 - |q|^2)
    |0><1| per qubit, with q / |q| where |q| rounds above 1.  The product map
    is CPTP: its image, the Kraus sum made Hermitian, is not judged again.
    """
    mod_q = abs(q := complex(q))
    if not mod_q <= Q_ABS_MAX:  # also rejects NaN
        raise ValueError(f"|q| must be <= 1, got {mod_q!r}")
    loss = math.sqrt(max(0.0, 1.0 - mod_q * mod_q))
    scale = max(1.0, mod_q)  # q / |q| where |q| rounds above 1, as _evolve divides
    k0 = np.array([[complex(q.real / scale, q.imag / scale), 0.0], [0.0, 1.0]], dtype=complex)
    k1 = np.array([[0.0, 0.0], [loss, 0.0]], dtype=complex)
    out, m = np.zeros((4, 4), dtype=complex), np.array(rho0.rows)
    for ka in (k0, k1):
        for kb in (k0, k1):
            k = np.kron(ka, kb)
            out += k @ m @ k.conj().T
    h = out.conj().T  # an entry off its mirror's conjugate by rounding becomes their mean
    return DensityMatrix4._derived(np.where(out == h, out, 0.5 * out + 0.5 * h).tolist())


def evolve_x(x0: XState, q: complex) -> XState:
    """Closed-form element map of the two-qubit damping channel on X states.

    With x = |q|^2: rho11 -> rho11 x^2, rho22/rho33 gain the one-photon decay
    from rho11, rho44 = 1 - the rest (a start's trace miss is dropped), rho14 ->
    q^2 rho14, rho23 -> x rho23: the dense product channel up to rounding, and
    CPTP, so it is not judged again.  A |q| in (1, Q_ABS_MAX] acts as q / |q|.
    Conjectured bound, tested but not proven: least eigenvalue >= -(POSITIVITY_TOL
    + max(0, tr x0 - 1)) up to a few ulp (test_edge_states_evolve_without_a_second_judgement).
    """
    mod_q = abs(q := complex(q))
    if not mod_q <= Q_ABS_MAX:  # also rejects NaN
        raise ValueError(f"|q| must be <= 1, got {mod_q!r}")
    r11, r22, r33, r44, rho14, rho23 = _evolve(x0, q, max(1.0, mod_q), min(1.0, mod_q * mod_q))
    return XState._derived(r11, r22, r33, r44, complex(*rho14), complex(*rho23))


def _evolve(x0: XState, q, scale, x):
    # evolve_x for a complex or array q, scale = max(1, |q|), x = min(1, |q|^2):
    # populations and the (re, im) of p * p * rho14, p = q / scale by parts (numpy's
    # complex division rounds unlike Python's), and complex(x, 0.0) * rho23, in Python's order
    qr, qi = q.real / scale, q.imag / scale
    fed = x0.rho11 * (1.0 - x)
    r11 = x0.rho11 * x * x
    r22 = x * (x0.rho22 + fed)
    r33 = x * (x0.rho33 + fed)
    r44 = 1.0 - (r11 + r22 + r33)
    c14, c23 = x0.rho14, x0.rho23
    sr, si = qr * qr - qi * qi, qr * qi + qi * qr
    rho14 = (sr * c14.real - si * c14.imag, sr * c14.imag + si * c14.real)
    rho23 = (x * c23.real - 0.0 * c23.imag, x * c23.imag + 0.0 * c23.real)
    return r11, r22, r33, r44, rho14, rho23


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


def _ewl_entries(alpha2, r):
    # rho11 = rho44, rho22, rho33 and |rho23| of the EWL state, for floats or arrays
    beta2, background = 1.0 - alpha2, 0.25 * (1.0 - r)
    return (background, background + r * beta2, background + r * alpha2,
            r * np.sqrt(alpha2 * beta2))


def ewl_state(p: EWLParams) -> XState:
    rho11, rho22, rho33, m23 = _ewl_entries(p.alpha2, p.r)
    return XState._derived(rho11, rho22, rho33, rho11, 0.0j, float(m23) * cmath.exp(1j * p.delta))


def _coefficients(rho11, rho22, rho33, m14, m23):
    # trajectory_coefficients from rho11..rho33, |rho14|, |rho23|: floats or arrays
    return (2.0 * (m14 + m23), 2.0 * abs(m14 - m23),
            -2.0 * (rho22 + rho33 + 2.0 * rho11), 4.0 * rho11)


def trajectory_coefficients(x0: XState) -> tuple[float, float, float, float]:
    """(k1, k3, b, a) such that along evolve_x(x0, q), with x = |q|^2,
    u1 = (k1 x)^2, u3 = (k3 x)^2 and u2 = gap(x)^2, where the diagonal gap is
    1 - 2 x (rho22 + rho33 + 2 rho11 (1 - x)) = 1 + b x + a x^2."""
    return _coefficients(x0.rho11, x0.rho22, x0.rho33, abs(x0.rho14), abs(x0.rho23))


@np.errstate(all="ignore")  # a = 0, no real root, or a root beyond float range
def _quadratic_roots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # the real roots of a x^2 + b x + 1 for columns a (n, 1) and b (n, k), as
    # (n, 2k), NaN or infinite where there is none; no double root: it only
    # touches 0.  Where r1 = s / (2a) overflows (a = 0 or subnormal), the
    # small root 1 / (a r1) is taken as 2 / s, which a = 0 makes -1 / b.
    bb, a4 = b * b, 4.0 * a
    disc = bb - a4
    s = -b + np.copysign(np.sqrt(disc), -b)
    r1 = np.where(disc > 1e-14 * np.maximum(bb, abs(a4)), s / (2.0 * a), np.nan)
    return np.concatenate((r1, np.where(np.isinf(r1), 2.0 / s, 1.0 / (a * r1))), axis=1)


def _sign_changes(f, candidates: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of candidates (n, m): the distinct candidates x in (0, 1]
    across which f changes sign, judged 1e-7 away or halfway to a nearer
    neighbouring candidate, and whether f >= 0 just above each, as (n, m)
    arrays with NaN for a candidate that is no level.  A candidate in
    (1, 1 + 1e-12] counts as 1, and one at most 1e-12 above the one before
    is dropped.  f maps (n, 2m) arrays in and a little beyond [0, 1]."""
    n, m = candidates.shape
    inside = (candidates > 0.0) & (candidates <= 1.0 + 1e-12)
    xs = np.sort(np.where(inside, np.minimum(candidates, 1.0), np.nan), axis=1)
    xs[:, 1:][xs[:, 1:] - xs[:, :-1] <= 1e-12] = np.nan
    # the sorted candidates between NaN ends and the midpoints of neighbours,
    # where fmax and fmin pass over a NaN (no neighbour)
    near = np.full((n, m + 2), np.nan)
    near[:, 1:-1] = np.sort(xs, axis=1)
    xs, mid = near[:, 1:-1], 0.5 * (near[:, :-1] + near[:, 1:])
    nonneg = f(np.concatenate((np.fmax(xs - 1e-7, mid[:, :-1]),
                               np.fmin(xs + 1e-7, mid[:, 1:])), axis=1)) >= 0.0
    above = nonneg[:, m:]
    return np.where(nonneg[:, :m] != above, xs, np.nan), above


def _crossing_rows(k3: np.ndarray, b: np.ndarray, a: np.ndarray) -> np.ndarray:
    # crossing_levels for columns k3, b, a (n, 1): sorted, NaN-padded rows of 4
    candidates = _quadratic_roots(a, np.concatenate((b - k3, b + k3), axis=1))
    levels, _ = _sign_changes(lambda x: (1.0 + b * x + a * x * x) ** 2 - (k3 * x) ** 2,
                              candidates)
    return np.sort(levels, axis=1)


def crossing_levels(x0: XState) -> list[float]:
    """All x = |q|^2 in (0, 1] where u2 - u3 changes sign along evolve_x(x0, q):
    the simple roots of gap(x) = +-k3 x, two quadratics (a tangency is
    dropped).  Empty when k3 = 0, as u3 is then zero and never exceeds u2."""
    row = _crossing_rows(*np.reshape(trajectory_coefficients(x0)[1:], (3, 1, 1)))[0]
    return row[~np.isnan(row)].tolist()


def crossing_roots(p: EWLParams) -> list[float]:
    """crossing_levels of the extended Werner-like state p."""
    return crossing_levels(ewl_state(p))


def crossing_surface(n_alpha: int, n_r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(alpha2, r, roots) on the grid alpha2 = i / n_alpha, r = (j + 1) / n_r,
    j fastest, with crossing_roots(EWLParams(alpha2, r)) as sorted rows of 4,
    NaN-padded, from one array pass."""
    alpha2 = np.repeat(np.arange(n_alpha) / n_alpha, n_r)
    r = np.tile(np.arange(1, n_r + 1) / n_r, n_alpha)
    rho11, rho22, rho33, m23 = _ewl_entries(alpha2[:, None], r[:, None])
    return alpha2, r, _crossing_rows(*_coefficients(rho11, rho22, rho33, 0.0, m23)[1:])


@np.errstate(all="ignore")  # a zero or subnormal b, y = 0 or p' = 0
def _violation_rows(k1, k3, b, a) -> tuple[np.ndarray, np.ndarray]:
    """_sign_changes of bmax - 2, as of max(u1 + u2, u1 + u3) - 1, for columns
    k1, k3, b, a (n, 1), at u1 + u3 = 1, x = 1 / hypot(k1, k3), and at the roots
    of p = a^2 x^3 + 2ab x^2 + c x + 2b = (u1 + u2 - 1) / x, c = b^2 + 2a + k1^2:
    1 / y for the eigenvalues y of the companion of p's reversal over 2b, each
    polished by one Newton step.  Populations >= 0 give |2b| >= 8 rho11 = 2a,
    |b| <= 4 and, with PSD blocks, k1^2 <= 2|b|: its first row (c, 2ab, a^2) / 2b
    is within 4 for any a.  Rows where it is not finite (b = 0, the ground state;
    a subnormal b in POSITIVITY_TOL's slack, whose root x ~ -2b / c no sign
    probe sees) have no cubic candidate."""
    p3, p2, p1, p0 = a * a, 2.0 * a * b, b * b + 2.0 * a + k1 * k1, 2.0 * b
    first = np.concatenate((p1, p2, p3), axis=1) / p0
    finite = np.isfinite(first).all(axis=1, keepdims=True)
    companion = np.zeros((len(first), 3, 3)) + np.eye(3, k=-1)
    companion[:, 0] = np.where(finite, -first, 0.0)
    x = 1.0 / np.linalg.eigvals(companion)
    x = np.where(finite & (abs(x.imag) <= 1e-9), x.real, np.nan)
    x -= (((p3 * x + p2) * x + p1) * x + p0) / ((3.0 * p3 * x + 2.0 * p2) * x + p1)
    candidates = np.concatenate((np.where(k1 != 0.0, 1.0 / np.hypot(k1, k3), np.nan), x), axis=1)
    return _sign_changes(lambda x: (k1 * x) ** 2 + np.maximum(
        (1.0 + b * x + a * x * x) ** 2, (k3 * x) ** 2) - 1.0, candidates)


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
    secant point not strictly inside (lo, hi), after a step that left g
    unchanged (x rounds to a constant there, as exp underflowing to 0), and
    for good once a step lands on a plateau of g = 0 from g = 0, where each
    secant point would be a minimum step from that end."""
    falling = x_lo >= target
    g_lo, g_hi = x_lo - target, x_hi - target
    kept_hi = kept_lo = flat = plateau = np.zeros(len(lo), dtype=bool)
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
        t = np.where((lo < s) & (s < hi) & ~(flat | plateau), s, mid)
        q = model.q(t)
        x = q.real ** 2 + q.imag ** 2
        g = x - target
        to_lo = open_ & ((x >= target) == falling)
        to_hi = open_ & ~to_lo
        g_old = np.where(to_lo, g_lo, g_hi)  # at the end that t replaces
        flat = g == g_old
        plateau = plateau | (flat & (g == 0.0))  # not |=: the zeros are shared
        # an end kept twice in a row has its g scaled down, so the next
        # secant point lands past the root: by 1 - g / g_old, else by 1/2
        with np.errstate(divide="ignore", invalid="ignore"):  # g_old = 0
            m = 1.0 - g / g_old
        m = np.where(open_ & (m > 0.0), m, 0.5)  # no inf * 0 on closed brackets
        g_hi = np.where(to_lo & kept_hi, m * g_hi, g_hi)
        g_lo = np.where(to_hi & kept_lo, m * g_lo, g_lo)
        lo, g_lo = np.where(to_lo, t, lo), np.where(to_lo, g, g_lo)
        hi, g_hi = np.where(to_hi, t, hi), np.where(to_hi, g, g_hi)
        kept_hi, kept_lo = to_lo, to_hi
    return 0.5 * (lo + hi)


def scan_events(x0: XState, model: QModel, tmax: float) -> list[ScanEvent]:
    """The SetJump / ViolationOn / ViolationOff events of evolve_x(x0, q(t))
    for t in (0, tmax), in time order, which depend on no sampling.

    Each is the crossing of a level of x = |q(t)|^2 found once from x0, by
    crossing_levels (SetJump) or _violation_rows (ViolationOn/Off); a level
    within 1e-12 of x = 1 is left out, as x <= 1 can only touch it.  The
    model's turning_times cut (0, tmax) into pieces where x is monotone, and
    all crossings on all pieces are found together by a secant with bisection
    fallback, one array q(t) call per step, to EVENT_REL_TOL of t
    (_crossing_times)."""
    tmax = float(tmax)
    if not (math.isfinite(tmax) and tmax >= 0.0):
        raise ValueError(f"tmax must be finite and >= 0, got {tmax!r}")
    jump, on, off = EventKind.SET_JUMP, EventKind.VIOLATION_ON, EventKind.VIOLATION_OFF
    # (x*, kind when x falls through x*, kind when it rises)
    levels = [(x, jump, jump) for x in crossing_levels(x0)]
    violation, above = _violation_rows(*np.reshape(trajectory_coefficients(x0), (4, 1, 1)))
    levels += [(x, off, on) if up else (x, on, off)
               for x, up in zip(violation[0].tolist(), above[0].tolist())]
    levels = [lv for lv in levels if lv[0] < 1.0 - 1e-12]  # NaN pads too
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
    return sorted((ScanEvent(kind, t, m * m) for kind, t, m in
                   zip(kinds, t_star.tolist(), map(abs, model.q(t_star).tolist()))),
                  key=lambda e: e.t)


@dataclass(frozen=True)
class TimeScan:
    """A trajectory scan as columns, entry i for sample time t[i]: q2 =
    |q(t)|^2, the eigenvalues u1, u2, u3 of the evolved state, the Bell values
    b1, b2 and bmax, the active region (1 or 2) with its tie flag, and the
    eight angles of the active set as thetas and phis of shape (n, 4), in
    AngleSettings.thetas / .phis order.  Entry i equals what evolve_x,
    x_state_eigenvalues and optimal_settings give at t[i], bit for bit; as
    there, an evolved state is the channel's image of x0, not judged again."""

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


def time_scan(x0: XState, model: QModel, t_grid) -> TimeScan:
    """Evolve x0 along t_grid (at most MAX_SAMPLES times) in one array pass,
    from one model.q call.  A row fails only evolve_x's |q| check, and the
    first that fails raises what the scalar path raises there.  The events
    of the trajectory come from scan_events(x0, model, t_grid[-1]).
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
    q2 = mod_q * mod_q
    r11, r22, r33, r44, rho14, rho23 = _evolve(x0, q, np.where(mod_q > 1.0, mod_q, 1.0),
                                               np.where(q2 < 1.0, q2, 1.0))
    m14, m23 = np.hypot(*rho14), np.hypot(*rho23)
    gap = r11 + r44 - r22 - r33
    u1, u2, u3 = _eigenvalues(m14, m23, gap)
    failed = ~(mod_q <= Q_ABS_MAX)  # evolve_x's one check, failing on NaN
    if failed.any():  # the scalar path raises the first failing row's error
        evolve_x(x0, complex(q[failed.argmax()]))
    tie, set1, region, b1, b2, bmax = _bell_rows(u1, u2, u3)
    thetas, phis = _settings_rows(set1, gap, u1, u2, u3, m14, m23, rho14, rho23)
    return TimeScan(t=t, q2=q2, u1=u1, u2=u2, u3=u3, b1=b1, b2=b2, bmax=bmax,
                    region=region, tie=tie, thetas=thetas, phis=phis)
