"""CHSH-Bell function evaluation and its state-dependent maximum.

The Bell function reads the eight angles of a `BellSettings` and takes two
direct traces of rho through the Pauli kernel of `states`, which also gives T.
Its maximum over all settings is 2*sqrt(s), s the sum of the two largest
eigenvalues of U = T^T T (the squared singular values of the Pauli
correlation matrix T).  For X states the three eigenvalues have closed forms
in the density matrix elements, which is what makes explicit optimal
settings possible.  _eigenvalues writes them once, for a state and for scan
rows, each square a product v * v, which Python and numpy round alike (a
float's v ** 2 is libm's pow, not always correctly rounded).  BellEigenvalues
holds them, or horodecki_eigenvalues' descending ones (region always set 1, not
printed by `bmax`).  The tie, the region and the bound are written only in it,
for one state, and in _bell_rows, for scan rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

from .states import (BellSettings, DensityMatrix4, XState, _pauli_vector, _unit_vector,
                     pauli_correlation_matrix)

TSIRELSON = 2.0 * math.sqrt(2.0)
TIE_TOL = 1e-12


class Region(IntEnum):
    """Which closed-form settings set is active: SET1 iff u2 >= u3."""

    SET1 = 1
    SET2 = 2


@dataclass(frozen=True)
class BellEigenvalues:
    """Eigenvalues (u1, u2, u3) of T^T T: an X state's closed forms, or any state's descending.

    For an X state u1 = 4(|rho14| + |rho23|)^2 and u3 = 4(|rho14| - |rho23|)^2
    come from the coherences, u2 = (rho11 + rho44 - rho22 - rho33)^2 from the
    populations; u1 >= u3 >= 0.  A record without checks that derives tie,
    region, b1, b2 and bmax: its values come from a state judged where it entered.
    """

    u1: float
    u2: float
    u3: float

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
        return 2.0 * math.sqrt(self.u1 + self.u2)

    @property
    def b2(self) -> float:
        """Bell value at settings set 2: 2*sqrt(u1 + u3)."""
        return 2.0 * math.sqrt(self.u1 + self.u3)

    @property
    def bmax(self) -> float:
        """The Bell maximum max(b1, b2): b1 unless b2 > b1, so b1 for descending u."""
        return max(self.b1, self.b2)


def _bell_rows(u1, u2, u3):
    # BellEigenvalues' tie, set-1 mask, region, b1, b2 and bmax on scan rows, bit for bit
    import numpy as np

    tie = abs(u2 - u3) <= TIE_TOL
    set1, b1, b2 = tie | (u2 >= u3), 2.0 * np.sqrt(u1 + u2), 2.0 * np.sqrt(u1 + u3)
    region = np.where(set1, int(Region.SET1), int(Region.SET2))
    return tie, set1, region, b1, b2, np.where(b2 > b1, b2, b1)


def _dot(a: tuple, v: tuple) -> float:
    return a[0] * v[0] + a[1] * v[1] + a[2] * v[2]


def bell_function(rho: DensityMatrix4, s: BellSettings) -> float:
    """|Tr(rho [A (x) (B + B') + A' (x) (B - B')])| at the angles of s.

    This ground-truth evaluator shares only the Pauli kernel _pauli_vector
    with the correlation matrix T and never builds T itself."""
    r, (a, ap, b, bp) = rho.rows, map(_unit_vector, s.thetas, s.phis)
    plus = _pauli_vector(r, [p + q for p, q in zip(b, bp)])
    minus = _pauli_vector(r, [p - q for p, q in zip(b, bp)])
    return abs(_dot(a, plus) + _dot(ap, minus))


def _eigenvalues(m14, m23, gap):
    # (u1, u2, u3) from |rho14|, |rho23| and the diagonal gap, floats or rows
    s, d = m14 + m23, m14 - m23
    return 4.0 * (s * s), gap * gap, 4.0 * (d * d)


def x_state_eigenvalues(x: XState) -> BellEigenvalues:
    """Closed-form (u1, u2, u3) for an X state."""
    return BellEigenvalues(*_eigenvalues(abs(x.rho14), abs(x.rho23), x.diagonal_gap))


def horodecki_eigenvalues(rho: DensityMatrix4) -> tuple[float, float, float]:
    """Eigenvalues of U = T^T T for an arbitrary two-qubit state, descending.

    They are the squared singular values of the Pauli correlation matrix T;
    taking them from the SVD of T avoids squaring its condition number.
    """
    import numpy as np

    s = np.linalg.svd(pauli_correlation_matrix(rho), compute_uv=False)
    return tuple((s * s).tolist())


def horodecki_bmax(rho: DensityMatrix4) -> float:
    """Maximum of the Bell function for an arbitrary two-qubit state:
    2*sqrt(u1 + u2) over the two largest eigenvalues of U = T^T T."""
    return BellEigenvalues(*horodecki_eigenvalues(rho)).bmax
