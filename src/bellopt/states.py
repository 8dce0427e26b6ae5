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
* DensityMatrix4 keeps its Hermitian part as the array `entries` and the tuple
  `rows`; its PSD check uses the 2x2 blocks if every off-X entry is exactly 0.

All types are immutable values and all operations are pure functions, so the
module is safe for unrestricted concurrent use.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
POSITIVITY_TOL = 1e-10
DEFAULT_OFF_X_TOL = 1e-9

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


@dataclass(frozen=True, eq=False)
class DensityMatrix4:
    """Validated 4x4 two-qubit state: Hermitian, unit trace, PSD.  `entries`
    holds the input's Hermitian part, so defects below HERMITICITY_TOL vanish."""

    entries: np.ndarray
    rows: tuple = field(init=False, repr=False)

    def __post_init__(self):
        m = np.array(self.entries, dtype=complex)
        if m.shape != (4, 4):
            raise StateValidationError(f"expected a 4x4 matrix, got {m.shape}")
        r = m.tolist()
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
        m = 0.5 * (m + m.conj().T)  # exact on Hermitian input
        m.setflags(write=False)
        rows = tuple(map(tuple, m.tolist()))
        off_x = rows[0][1] or rows[0][2] or rows[1][3] or rows[2][3]  # 0 iff mirrors are
        lam_min = float(np.linalg.eigvalsh(m).min()) if off_x else _x_least_eigenvalue(rows)
        if not lam_min >= -POSITIVITY_TOL:  # also rejects NaN
            raise NotPositive(f"smallest eigenvalue {lam_min:.3e}")
        object.__setattr__(self, "entries", m)
        object.__setattr__(self, "rows", rows)


def _x_least_eigenvalue(r) -> float:
    """Least eigenvalue of a Hermitian X matrix, rows r, over its blocks {0,3} and {1,2}."""
    return min((a + d) / 2 - math.hypot((a - d) / 2, c.real, c.imag)
               for a, d, c in ((r[0][0].real, r[3][3].real, r[0][3]),
                               (r[1][1].real, r[2][2].real, r[1][2])))


def validate_density_matrix(entries) -> DensityMatrix4:
    """Validate a raw 4x4 complex array as a two-qubit density matrix.

    Raises NotHermitian, TraceNotOne or NotPositive naming the violated
    invariant together with the worst offending magnitude.
    """
    return DensityMatrix4(np.asarray(entries, dtype=complex))


@dataclass(frozen=True)
class XState:
    """The 7 free parameters of an X-patterned two-qubit density matrix.

    Populations follow the basis ordering (|11>, |10>, |01>, |00>); rho14 is
    the |11><00| coherence and rho23 the |10><01| coherence.
    """

    rho11: float
    rho22: float
    rho33: float
    rho44: float
    rho14: complex
    rho23: complex

    def __post_init__(self):
        object.__setattr__(self, "rho11", float(self.rho11))
        object.__setattr__(self, "rho22", float(self.rho22))
        object.__setattr__(self, "rho33", float(self.rho33))
        object.__setattr__(self, "rho44", float(self.rho44))
        object.__setattr__(self, "rho14", complex(self.rho14))
        object.__setattr__(self, "rho23", complex(self.rho23))
        pops = (self.rho11, self.rho22, self.rho33, self.rho44)
        total = sum(pops)
        if abs(total - 1.0) > TRACE_TOL:
            raise TraceNotOne(f"populations sum deviates from 1 by {abs(total - 1.0):.3e}")
        # each check is written to fail on NaN and infinite elements too
        for i, p in enumerate(pops):
            if not -POSITIVITY_TOL <= p <= 1.0 + POSITIVITY_TOL:
                raise NotPositive(f"population {i + 1} out of [0, 1]: {p!r}")
        if not abs(self.rho14) ** 2 - POSITIVITY_TOL <= self.rho11 * self.rho44:
            raise NotPositive(
                f"outer 2x2 block not PSD: rho11*rho44={self.rho11 * self.rho44:.3e} "
                f"< |rho14|^2={abs(self.rho14) ** 2:.3e}"
            )
        if not abs(self.rho23) ** 2 - POSITIVITY_TOL <= self.rho22 * self.rho33:
            raise NotPositive(
                f"inner 2x2 block not PSD: rho22*rho33={self.rho22 * self.rho33:.3e} "
                f"< |rho23|^2={abs(self.rho23) ** 2:.3e}"
            )

    @property
    def diagonal_gap(self) -> float:
        """rho11 + rho44 - rho22 - rho33, the z-z spin correlation."""
        return self.rho11 + self.rho44 - self.rho22 - self.rho33


def as_x_state(rho: DensityMatrix4, off_x_tol: float = DEFAULT_OFF_X_TOL) -> XState:
    """Extract the 7 X parameters, requiring off-pattern entries <= off_x_tol."""
    if not off_x_tol >= 0:  # also rejects NaN, for which every comparison is False
        raise ValueError(f"off_x_tol must be >= 0, got {off_x_tol!r}")
    r = rho.rows
    mags = [abs(r[i][j]) for i, j in _OFF_X_INDICES]
    if max(mags) > off_x_tol:
        raise NotXStructured(max(mags), _OFF_X_INDICES[mags.index(max(mags))])
    return XState(r[0][0].real, r[1][1].real, r[2][2].real, r[3][3].real, r[0][3], r[1][2])


def x_to_dense(x: XState) -> DensityMatrix4:
    """Hermitian completion of an XState back into a full density matrix."""
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0], m[1, 1], m[2, 2], m[3, 3] = x.rho11, x.rho22, x.rho33, x.rho44
    m[0, 3], m[3, 0] = x.rho14, x.rho14.conjugate()
    m[1, 2], m[2, 1] = x.rho23, x.rho23.conjugate()
    return DensityMatrix4(m)


def _pauli_vector(r: tuple, c) -> tuple[float, float, float]:
    """(Tr(m sigma_x), Tr(m sigma_y), Tr(m sigma_z)) of the qubit-1 block
    m = Tr_2(rho (1 (x) c.sigma)), for rho as rows r of Python complexes and a
    real 3-vector c, so that a . _pauli_vector(r, c) = Tr(rho (a.sigma (x)
    c.sigma)); n.sigma = ((nz, nx - i ny), (nx + i ny, -nz))."""
    cz, c01, c10 = c[2], complex(c[0], -c[1]), complex(c[0], c[1])
    m00 = cz * (r[0][0] - r[1][1]) + c10 * r[0][1] + c01 * r[1][0]
    m01 = cz * (r[0][2] - r[1][3]) + c10 * r[0][3] + c01 * r[1][2]
    m10 = cz * (r[2][0] - r[3][1]) + c10 * r[2][1] + c01 * r[3][0]
    m11 = cz * (r[2][2] - r[3][3]) + c10 * r[2][3] + c01 * r[3][2]
    # Tr(m n.sigma) = nx (m01 + m10) + ny i (m01 - m10) + nz (m00 - m11)
    x, y, z = m01 + m10, m01 - m10, m00 - m11
    if abs(x.imag) > 1e-12 or abs(y.real) > 1e-12 or abs(z.imag) > 1e-12:
        worst = max(abs(x.imag), abs(y.real), abs(z.imag))
        raise ValueError(f"correlation has imaginary residue {worst:.3e}")
    return x.real, -y.imag, z.real


def pauli_correlation_matrix(rho: DensityMatrix4) -> np.ndarray:
    """t[m][n] = Tr(rho (sigma_n (x) sigma_m)), first factor on qubit 1, as a
    read-only 3x3 float array."""
    r, axes = rho.rows, ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
    t = np.array([_pauli_vector(r, e) for e in axes])
    t.setflags(write=False)
    return t


@dataclass(frozen=True)
class ObservableDirection:
    """Measurement direction on the Bloch sphere, theta in [0, pi], phi in (-pi, pi]."""

    theta: float
    phi: float

    def __post_init__(self):
        object.__setattr__(self, "theta", float(self.theta))
        object.__setattr__(self, "phi", float(self.phi))
        if not (-1e-12 <= self.theta <= math.pi + 1e-12):
            raise ValueError(f"theta out of [0, pi]: {self.theta!r}")
        if not (-math.pi - 1e-12 < self.phi <= math.pi + 1e-12):
            raise ValueError(f"phi out of (-pi, pi]: {self.phi!r}")

    @property
    def unit_vector(self) -> tuple[float, float, float]:
        st = math.sin(self.theta)
        return st * math.cos(self.phi), st * math.sin(self.phi), math.cos(self.theta)


def normalize_direction(theta: float, phi: float) -> tuple[float, float]:
    """Canonicalize raw angles to theta in [0, pi], phi in (-pi, pi].

    A theta outside [0, pi] is reflected through the antipode (phi shifted by
    pi), which leaves the physical direction unchanged.
    """
    theta = math.fmod(theta, 2.0 * math.pi)
    if theta < 0.0:
        theta += 2.0 * math.pi
    if theta > math.pi:
        theta = 2.0 * math.pi - theta
        phi += math.pi
    phi = math.fmod(phi, 2.0 * math.pi)
    if phi > math.pi:
        phi -= 2.0 * math.pi
    elif phi <= -math.pi:
        phi += 2.0 * math.pi
    return theta + 0.0, phi + 0.0  # +0.0 turns -0.0 into 0.0
