"""CHSH-Bell function evaluation and its state-dependent maximum.

The maximum over all measurement settings is 2*sqrt(s) where s is the sum of
the two largest eigenvalues of U = T^T T (the squared singular values of T)
and T is the Pauli correlation matrix.  For X states the three eigenvalues
have closed forms in the density matrix elements, which is what makes
explicit optimal settings possible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .states import (
    DensityMatrix4,
    ObservableDirection,
    PAULIS,
    XState,
    pauli_correlation_matrix,
)

TSIRELSON = 2.0 * math.sqrt(2.0)
TIE_TOL = 1e-12


class Region(IntEnum):
    """Which closed-form settings set is active: SET1 iff u2 >= u3."""

    SET1 = 1
    SET2 = 2


@dataclass(frozen=True)
class BellEigenvalues:
    """Eigenvalues (u1, u2, u3) of T^T T for an X state, in closed-form order.

    u1 = 4(|rho14| + |rho23|)^2 and u3 = 4(|rho14| - |rho23|)^2 come from the
    coherences, u2 = (rho11 + rho44 - rho22 - rho33)^2 from the populations;
    u1 >= u3 always.  `tie` is set when |u2 - u3| <= 1e-12, in which case the
    region is reported as SET1.
    """

    u1: float
    u2: float
    u3: float
    region: Region
    tie: bool = False

    def __post_init__(self):
        for name in ("u1", "u2", "u3"):
            v = getattr(self, name)
            if not (-1e-12 <= v <= 1.0 + 1e-10):
                raise ValueError(f"{name} out of [0, 1]: {v!r}")
        if self.u1 < self.u3 - 1e-12:
            raise ValueError(f"u1 < u3: {self.u1!r} < {self.u3!r}")
        if self.u1 + max(self.u2, self.u3) > 2.0 + 1e-10:
            raise ValueError("u1 + max(u2, u3) exceeds the Tsirelson bound")

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


def _observable(d: ObservableDirection) -> np.ndarray:
    n = d.unit_vector
    return n[0] * PAULIS[0] + n[1] * PAULIS[1] + n[2] * PAULIS[2]


def correlation(rho: DensityMatrix4, a: ObservableDirection,
                b: ObservableDirection) -> float:
    """Tr(rho (a.sigma (x) b.sigma)) by direct 4x4 trace; a acts on qubit 1."""
    op = np.kron(_observable(a), _observable(b))
    val = np.einsum("ij,ji->", rho.entries, op)
    if abs(val.imag) > 1e-12:
        raise ValueError(f"correlation has imaginary residue {val.imag:.3e}")
    return float(val.real)


def bell_function(rho: DensityMatrix4, s: BellSettings) -> float:
    """|E(a,b) + E(a,b') + E(a',b) - E(a',b')| from direct traces.

    This is the ground-truth evaluator: it never goes through the correlation
    matrix, so it is immune to any index-convention slip there.
    """
    return abs(
        correlation(rho, s.a, s.b)
        + correlation(rho, s.a, s.b_prime)
        + correlation(rho, s.a_prime, s.b)
        - correlation(rho, s.a_prime, s.b_prime)
    )


def x_state_eigenvalues(x: XState) -> BellEigenvalues:
    """Closed-form (u1, u2, u3) for an X state, with the active region tag."""
    mod14, mod23 = abs(x.rho14), abs(x.rho23)
    u1 = 4.0 * (mod14 + mod23) ** 2
    u2 = x.diagonal_gap ** 2
    u3 = 4.0 * (mod14 - mod23) ** 2
    tie = abs(u2 - u3) <= TIE_TOL
    region = Region.SET1 if (tie or u2 >= u3) else Region.SET2
    return BellEigenvalues(u1, u2, u3, region, tie)


def bmax_x(x: XState) -> float:
    """Maximum of the Bell function for an X state: 2*sqrt(u1 + max(u2, u3))."""
    u = x_state_eigenvalues(x)
    return u.bmax


def horodecki_eigenvalues(rho: DensityMatrix4) -> tuple[float, float, float]:
    """Eigenvalues of U = T^T T for an arbitrary two-qubit state, descending.

    They are the squared singular values of the Pauli correlation matrix T;
    taking them from the SVD of T avoids squaring its condition number.
    """
    s = np.linalg.svd(pauli_correlation_matrix(rho).t, compute_uv=False)
    return tuple((s * s).tolist())


def horodecki_bmax(rho: DensityMatrix4) -> float:
    """Maximum of the Bell function for an arbitrary two-qubit state:
    2*sqrt(u1 + u2) over the two largest eigenvalues of U = T^T T."""
    u1, u2, _ = horodecki_eigenvalues(rho)
    return 2.0 * math.sqrt(u1 + u2)
