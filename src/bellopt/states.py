"""Two-qubit density matrices and their anti-diagonal ("X") coherence pattern.

Conventions used throughout the package:

* Two-qubit basis ordering is {|11>, |10>, |01>, |00>}; the first label is
  qubit 1, the second qubit 2, and within each qubit the excited state |1>
  comes before the ground state |0>.
* Pauli matrices are written in the single-qubit basis {|1>, |0>}, so
  sigma_z |1> = +|1>.
* The spin correlation matrix is t[m][n] = Tr(rho (sigma_n (x) sigma_m)),
  with the first Kronecker factor acting on qubit 1.  _pauli_vector gives its
  rows and every Bell-function trace: it is the one Pauli kernel.
* DensityMatrix4's one field is its Hermitian part, the tuple `rows`; its PSD check uses
  the 2x2 blocks if every off-X entry is exactly 0, else numpy's eigvalsh.
  XState(...) is judged by DensityMatrix4 on its dense completion; _derived judges nothing.
  The X-state route never loads numpy: what needs it imports it inside.
* BellSettings applies the range rule _check_direction to each of its four
  directions, and _unit_vector gives a direction's Bloch vector.

All types are immutable values and all operations are pure functions, so the
module is safe for unrestricted concurrent use.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
POSITIVITY_TOL = 1e-10
DEFAULT_OFF_X_TOL = 1e-9
MAX_SAMPLES = 10 ** 6  # most times a scan evaluates, and cells of a crossing surface

# Index pairs that must vanish for the X pattern (everything off the main
# diagonal and the anti-diagonal).
_OFF_X_INDICES = (
    (0, 1), (0, 2), (1, 0), (1, 3), (2, 0), (2, 3), (3, 1), (3, 2),
)
_UPPER = tuple((i, j) for i in range(4) for j in range(i, 4))  # defects are symmetric


class StateValidationError(ValueError):
    """A candidate state violates one of the density-matrix invariants."""


class NotHermitian(StateValidationError):
    pass


class TraceNotOne(StateValidationError):
    pass


class NotPositive(StateValidationError):
    pass


class NotXStructured(StateValidationError):
    """An entry outside the X pattern exceeds the allowed tolerance."""

    def __init__(self, magnitude: float, index: tuple[int, int]):
        self.magnitude = magnitude
        self.index = index
        super().__init__(
            f"off-pattern entry {index} has magnitude {magnitude:.3e}"
        )


@dataclass(frozen=True, eq=False, init=False)
class DensityMatrix4:
    """Validated 4x4 two-qubit state: Hermitian, unit trace, PSD.  `rows` holds
    the input's Hermitian part, so defects below HERMITICITY_TOL vanish.
    The input is an array (read by tolist()) or nested sequences of numbers.
    _derived holds Hermitian rows derived from judged states, judging nothing."""

    rows: tuple

    def __init__(self, entries):
        shape = getattr(entries, "shape", None)
        m = entries.tolist() if hasattr(entries, "tolist") else entries
        try:  # a complex 4x4 array's tolist() holds Python complexes already
            r = m if shape == (4, 4) and entries.dtype == complex else [
                [_number(v) for v in row] for row in m]
        except (TypeError, OverflowError) as exc:  # a row or a cell is no number
            if shape is None or len(shape) == 2:  # else the shape is the fault
                raise StateValidationError(
                    f"expected a 4x4 matrix of numbers: {exc}") from None
            r = []
        lengths = {len(row) for row in r}
        if (len(r), *lengths) != (4, 4):
            got = shape if shape is not None else (
                (len(r), *lengths) if len(lengths) < 2 else "rows that differ in length")
            raise StateValidationError(f"expected a 4x4 matrix, got {got}")
        try:
            herm = max([abs(r[i][j] - r[j][i].conjugate()) for i, j in _UPPER])
        except OverflowError:  # abs() of a finite defect past float range
            herm = math.inf
        if not math.isfinite(herm) or not all(map(cmath.isfinite, r[0] + r[1] + r[2] + r[3])):
            raise StateValidationError("matrix has a non-finite entry")
        if herm > HERMITICITY_TOL:
            raise NotHermitian(f"worst Hermiticity defect {herm:.3e}")
        tr = r[0][0] + r[1][1] + r[2][2] + r[3][3]
        if abs(tr - 1.0) > TRACE_TOL:
            raise TraceNotOne(f"trace deviates from 1 by {abs(tr - 1.0):.3e}")
        if herm:  # 0.5 * m + 0.5 * m^H; unlike 0.5 * (m + m^H), it cannot overflow
            r = [[_half(z) + _half(w.conjugate()) for z, w in zip(row, col)]
                 for row, col in zip(r, zip(*r))]
        rows = tuple(map(tuple, r))
        off_x = rows[0][1] or rows[0][2] or rows[1][3] or rows[2][3]  # 0 iff mirrors are
        if off_x:  # an exactly Hermitian complex array is its own Hermitian part
            import numpy as np
            lam_min = float(np.linalg.eigvalsh(entries if r is m else np.array(rows)).min())
        else:
            try:
                lam_min = _x_least_eigenvalue(rows[0][0].real, rows[1][1].real, rows[2][2].real,
                                              rows[3][3].real, abs(rows[0][3]), abs(rows[1][2]))
            except OverflowError:  # |c| or a block's hypot past float range: far from PSD
                lam_min = -math.inf
        if not lam_min >= -POSITIVITY_TOL:  # also rejects NaN
            raise NotPositive(f"smallest eigenvalue {lam_min:.3e}")
        object.__setattr__(self, "rows", rows)

    @classmethod
    def _derived(cls, rows) -> DensityMatrix4:  # also loads pickles that name it
        rho = object.__new__(cls)  # rows of Python complexes, unjudged
        object.__setattr__(rho, "rows", tuple(map(tuple, rows)))
        return rho


def _number(v) -> complex:  # complex(v), but text is no number though complex() parses it
    if isinstance(v, (str, bytes, bytearray)):
        raise TypeError(f"a cell is {type(v).__name__}, not a number")
    return complex(v)


def _half(z: complex) -> complex:
    """numpy's 0.5 * z: each part one fused multiply-add, as numpy's SIMD loops
    round it on hosts with FMA, so a part +-5e-324, whose half rounds to 0,
    keeps its sign where (0.5 + 0j) * z would add a +0.0."""
    re, im = 0.5 * z.real, 0.5 * z.imag
    return complex(re if z.real else re - 0.0 * z.imag, im if z.imag else im + 0.0 * z.real)


def _x_least_eigenvalue(rho11, rho22, rho33, rho44, m14, m23) -> float:
    """Least eigenvalue over the X blocks {0,3} and {1,2}, (a + d)/2 - hypot((a - d)/2, |c|)
    for a block ((a, c), (c*, d)): the smaller, or NaN if either is."""
    a = (rho11 + rho44) / 2 - abs(complex((rho11 - rho44) / 2, m14))
    b = (rho22 + rho33) / 2 - abs(complex((rho22 - rho33) / 2, m23))
    return min(a, b) if b == b else b  # min(a, NaN) would be a


def validate_density_matrix(entries) -> DensityMatrix4:
    """Validate a raw 4x4 complex array as a two-qubit density matrix; raises
    NotHermitian, TraceNotOne or NotPositive with the worst offending magnitude."""
    return DensityMatrix4(entries)


@dataclass(frozen=True)
class XState:
    """The 7 free parameters of an X-patterned two-qubit density matrix.

    Populations follow the basis ordering (|11>, |10>, |01>, |00>); rho14 is
    the |11><00| coherence and rho23 the |10><01| coherence.  XState(...) is
    judged by DensityMatrix4 on its dense completion x_to_dense, so it accepts
    and refuses what that matrix would, with the same texts.
    _derived, for derived states, judges nothing; both convert by _set_fields.
    """

    rho11: float
    rho22: float
    rho33: float
    rho44: float
    rho14: complex
    rho23: complex

    def __post_init__(self):  # judged as the matrix it stands for
        DensityMatrix4(x_to_dense(_set_fields(self, **vars(self))).rows)

    @classmethod
    def _derived(cls, rho11, rho22, rho33, rho44, rho14, rho23) -> XState:
        return _set_fields(object.__new__(cls), rho11, rho22, rho33, rho44, rho14, rho23)

    @property
    def diagonal_gap(self) -> float:
        """rho11 + rho44 - rho22 - rho33, the z-z spin correlation."""
        return self.rho11 + self.rho44 - self.rho22 - self.rho33


def _set_fields(x: XState, rho11, rho22, rho33, rho44, rho14, rho23) -> XState:
    """x with its fields set as XState keeps them, populations float and coherences complex."""
    x.__dict__.update(rho11=float(rho11), rho22=float(rho22), rho33=float(rho33),
                      rho44=float(rho44), rho14=complex(rho14), rho23=complex(rho23))
    return x


def as_x_state(rho: DensityMatrix4, off_x_tol: float = DEFAULT_OFF_X_TOL) -> XState:
    """Extract the 7 X parameters, requiring off-pattern entries <= off_x_tol; the
    X part of rho, a pinching, keeps its trace and least eigenvalue bound."""
    if not off_x_tol >= 0:  # also rejects NaN, for which every comparison is False
        raise ValueError(f"off_x_tol must be >= 0, got {off_x_tol!r}")
    r = rho.rows
    mags = [abs(r[i][j]) for i, j in _OFF_X_INDICES]
    if max(mags) > off_x_tol:
        raise NotXStructured(max(mags), _OFF_X_INDICES[mags.index(max(mags))])
    return XState._derived(r[0][0].real, r[1][1].real, r[2][2].real, r[3][3].real,
                           r[0][3], r[1][2])


def x_to_dense(x: XState) -> DensityMatrix4:
    """Hermitian completion of an XState into a DensityMatrix4, not judged again."""
    (a, b, c, d), c14, c23 = map(complex, (x.rho11, x.rho22, x.rho33, x.rho44)), x.rho14, x.rho23
    return DensityMatrix4._derived([[a, 0j, 0j, c14], [0j, b, c23, 0j],
                                    [0j, c23.conjugate(), c, 0j], [c14.conjugate(), 0j, 0j, d]])


def _pauli_vector(r: tuple, c) -> tuple[float, float, float]:
    """(Tr(m sigma_x), Tr(m sigma_y), Tr(m sigma_z)) of the qubit-1 block m = Tr_2(rho (1 (x)
    c.sigma)), n.sigma = ((nz, nx - i ny), (nx + i ny, -nz)), for rho as Hermitian rows r of
    Python complexes, as a DensityMatrix4's are (a trace's imaginary part is then rounding),
    and a real 3-vector c, so that a . _pauli_vector(r, c) = Tr(rho (a.sigma (x) c.sigma))."""
    cz, c01, c10 = c[2], complex(c[0], -c[1]), complex(c[0], c[1])
    m00 = cz * (r[0][0] - r[1][1]) + c10 * r[0][1] + c01 * r[1][0]
    m01 = cz * (r[0][2] - r[1][3]) + c10 * r[0][3] + c01 * r[1][2]
    m10 = cz * (r[2][0] - r[3][1]) + c10 * r[2][1] + c01 * r[3][0]
    m11 = cz * (r[2][2] - r[3][3]) + c10 * r[2][3] + c01 * r[3][2]
    # Tr(m n.sigma) = nx (m01 + m10) + ny i (m01 - m10) + nz (m00 - m11)
    x, y, z = m01 + m10, m01 - m10, m00 - m11
    return x.real, -y.imag, z.real


def pauli_correlation_matrix(rho: DensityMatrix4) -> np.ndarray:
    """t[m][n] = Tr(rho (sigma_n (x) sigma_m)), first factor on qubit 1, as a
    read-only 3x3 float array."""
    import numpy as np

    r, axes = rho.rows, ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
    t = np.array([_pauli_vector(r, e) for e in axes])
    t.setflags(write=False)
    return t


def _check_direction(theta: float, phi: float) -> None:
    if not (-1e-12 <= theta <= math.pi + 1e-12):
        raise ValueError(f"theta out of [0, pi]: {theta!r}")
    if not (-math.pi - 1e-12 < phi <= math.pi + 1e-12):
        raise ValueError(f"phi out of (-pi, pi]: {phi!r}")


def _unit_vector(theta: float, phi: float) -> tuple[float, float, float]:
    st = math.sin(theta)
    return st * math.cos(phi), st * math.sin(phi), math.cos(theta)


@dataclass(frozen=True)
class BellSettings:
    """The angles of A, A', B, B' in that order, each pair within the range
    rule _check_direction: theta in [0, pi], phi in (-pi, pi]."""

    thetas: tuple[float, float, float, float]
    phis: tuple[float, float, float, float]

    def __post_init__(self):
        if len(self.thetas) != 4 or len(self.phis) != 4:
            raise ValueError(f"expected 4 thetas and 4 phis, got "
                             f"{len(self.thetas)} and {len(self.phis)}")
        for theta, phi in zip(self.thetas, self.phis):
            _check_direction(theta, phi)
