"""CHSH-Bell function evaluation and its state-dependent maximum.

The Bell function is two direct traces of rho in Python complex arithmetic,
through the Pauli kernel of `states` that also gives the correlation matrix T.
Its maximum over all settings is 2*sqrt(s), s the sum of the two largest
eigenvalues of U = T^T T (the squared singular values of the Pauli
correlation matrix T).  For X states the three eigenvalues have closed forms
in the density matrix elements, which is what makes explicit optimal
settings possible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .states import (
    DensityMatrix4,
    ObservableDirection,
    XState,
    _pauli_vector,
    pauli_correlation_matrix,
)

TSIRELSON = 2.0 * math.sqrt(2.0)
TIE_TOL = 1e-12
# Bounds, with rounding room, that BellEigenvalues and dynamics._scan_columns
# check: each u in [U_MIN, U_MAX], u1 >= u3 - U_ORDER_TOL, u1 + max(u2, u3) <= U_SUM_MAX.
U_MIN = -1e-12
U_MAX = 1.0 + 1e-10
U_ORDER_TOL = 1e-12
U_SUM_MAX = 2.0 + 1e-10


class Region(IntEnum):
    """Which closed-form settings set is active: SET1 iff u2 >= u3."""

    SET1 = 1
    SET2 = 2


@dataclass(frozen=True)
class BellEigenvalues:
    """Eigenvalues (u1, u2, u3) of T^T T for an X state, in closed-form order.

    u1 = 4(|rho14| + |rho23|)^2 and u3 = 4(|rho14| - |rho23|)^2 come from the
    coherences, u2 = (rho11 + rho44 - rho22 - rho33)^2 from the populations;
    u1 >= u3 always.
    """

    u1: float
    u2: float
    u3: float

    def __post_init__(self):
        for name in ("u1", "u2", "u3"):
            v = getattr(self, name)
            if not (U_MIN <= v <= U_MAX):
                raise ValueError(f"{name} out of [0, 1]: {v!r}")
        if self.u1 < self.u3 - U_ORDER_TOL:
            raise ValueError(f"u1 < u3: {self.u1!r} < {self.u3!r}")
        if self.u1 + max(self.u2, self.u3) > U_SUM_MAX:
            raise ValueError("u1 + max(u2, u3) exceeds the Tsirelson bound")

    @property
    def tie(self) -> bool:
        """|u2 - u3| <= TIE_TOL: both sets give the Bell maximum."""
        return abs(self.u2 - self.u3) <= TIE_TOL

    @property
    def region(self) -> Region:
        """The active set: SET1 on a tie or when u2 >= u3, else SET2."""
        return Region.SET1 if (self.tie or self.u2 >= self.u3) else Region.SET2

    @property
    def b1(self) -> float:
        """Bell value at settings set 1: 2*sqrt(u1 + u2)."""
        return 2.0 * math.sqrt(max(0.0, self.u1 + self.u2))

    @property
    def b2(self) -> float:
        """Bell value at settings set 2: 2*sqrt(u1 + u3)."""
        return 2.0 * math.sqrt(max(0.0, self.u1 + self.u3))

    @property
    def bmax(self) -> float:
        return max(self.b1, self.b2)


@dataclass(frozen=True)
class BellSettings:
    """The four measurement directions of a CHSH test."""

    a: ObservableDirection
    a_prime: ObservableDirection
    b: ObservableDirection
    b_prime: ObservableDirection


def _dot(a: tuple, v: tuple) -> float:
    return a[0] * v[0] + a[1] * v[1] + a[2] * v[2]


def correlation(rho: DensityMatrix4, a: ObservableDirection,
                b: ObservableDirection) -> float:
    """Tr(rho (a.sigma (x) b.sigma)) by direct trace; a acts on qubit 1."""
    return _dot(a.unit_vector, _pauli_vector(rho.rows, b.unit_vector))


def bell_function(rho: DensityMatrix4, s: BellSettings) -> float:
    """|Tr(rho [A (x) (B + B') + A' (x) (B - B')])|, two direct traces of rho.

    This ground-truth evaluator shares only the Pauli kernel _pauli_vector
    with the correlation matrix T and never builds T itself."""
    r, b, bp = rho.rows, s.b.unit_vector, s.b_prime.unit_vector
    plus = _pauli_vector(r, [p + q for p, q in zip(b, bp)])
    minus = _pauli_vector(r, [p - q for p, q in zip(b, bp)])
    return abs(_dot(s.a.unit_vector, plus) + _dot(s.a_prime.unit_vector, minus))


def x_state_eigenvalues(x: XState) -> BellEigenvalues:
    """Closed-form (u1, u2, u3) for an X state."""
    mod14, mod23 = abs(x.rho14), abs(x.rho23)
    u1 = 4.0 * (mod14 + mod23) ** 2
    u2 = x.diagonal_gap ** 2
    u3 = 4.0 * (mod14 - mod23) ** 2
    return BellEigenvalues(u1, u2, u3)


def bmax_x(x: XState) -> float:
    """Maximum of the Bell function for an X state: 2*sqrt(u1 + max(u2, u3))."""
    return x_state_eigenvalues(x).bmax


def horodecki_eigenvalues(rho: DensityMatrix4) -> tuple[float, float, float]:
    """Eigenvalues of U = T^T T for an arbitrary two-qubit state, descending.

    They are the squared singular values of the Pauli correlation matrix T;
    taking them from the SVD of T avoids squaring its condition number.
    """
    s = np.linalg.svd(pauli_correlation_matrix(rho), compute_uv=False)
    return tuple((s * s).tolist())


def horodecki_bmax(rho: DensityMatrix4) -> float:
    """Maximum of the Bell function for an arbitrary two-qubit state:
    2*sqrt(u1 + u2) over the two largest eigenvalues of U = T^T T."""
    u1, u2, _ = horodecki_eigenvalues(rho)
    return 2.0 * math.sqrt(u1 + u2)
