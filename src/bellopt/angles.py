"""Closed-form measurement settings that maximize the CHSH function on X states.

Two distinct parameter sets exist, selected by the sign of u2 - u3.  Both are
exact: evaluating the Bell function at set 1 gives 2*sqrt(u1 + u2) and at
set 2 gives 2*sqrt(u1 + u3), for every X state.  The two sets do not coincide
on the boundary u2 = u3, so a state crossing that boundary continuously forces
a finite jump of the optimal settings even though the optimal value itself is
continuous.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .chsh import BellEigenvalues, BellSettings, Region, x_state_eigenvalues
from .states import ObservableDirection, XState, normalize_direction

_HALF_PI = 0.5 * math.pi


def _sign(v: float) -> float:
    # +1 for v >= 0, -1 for v < 0 (the convention the closed forms rely on).
    return 1.0 if v >= 0.0 else -1.0


@dataclass(frozen=True)
class AngleSettings:
    """The optimized angles of A, A', B, B' in that order, theta in [0, pi]
    and phi in (-pi, pi], with the region whose closed-form set they are."""

    thetas: tuple[float, float, float, float]
    phis: tuple[float, float, float, float]
    set_id: Region

    def __post_init__(self):
        if len(self.thetas) != 4 or len(self.phis) != 4:
            raise ValueError(f"expected 4 thetas and 4 phis, got "
                             f"{len(self.thetas)} and {len(self.phis)}")

    def bell_settings(self) -> BellSettings:
        return BellSettings(*map(ObservableDirection, self.thetas, self.phis))

    @classmethod
    def from_angles(cls, set_id: Region, thetas, phis) -> "AngleSettings":
        """Settings from four raw (theta, phi) pairs, each canonicalized by
        normalize_direction."""
        pairs = [normalize_direction(t, p) for t, p in zip(thetas, phis, strict=True)]
        return cls(tuple(p[0] for p in pairs), tuple(p[1] for p in pairs), set_id)


def settings_set1(x: XState) -> AngleSettings:
    """Settings for the u2 >= u3 branch.

    Qubit 1 measures in the equator and along z; qubit 2 tilts between them
    by arctan(sqrt(u2/u1)), on the side fixed by the sign of the population
    gap.  Degenerate cases follow the limit values: arctan(sqrt(u2/0)) = pi/2
    for u2 > 0 and 0 when u1 = u2 = 0.
    """
    return _settings(x, x_state_eigenvalues(x), Region.SET1)


def settings_set2(x: XState) -> AngleSettings:
    """Settings for the u3 >= u2 branch: all four directions equatorial.

    Qubit 2's azimuths open symmetrically by arctan(sqrt(u3/u1)) around the
    relative coherence phase; qubit 1's primed azimuth steps by pi/2 with the
    sign of |rho23| - |rho14|.
    """
    return _settings(x, x_state_eigenvalues(x), Region.SET2)


def _settings(x: XState, u: BellEigenvalues, region: Region) -> AngleSettings:
    # cmath.phase(0) == 0.0, which is exactly the arg(0) := 0 convention.
    arg14, arg23 = cmath.phase(x.rho14), cmath.phase(x.rho23)
    set1 = region is Region.SET1
    spread = math.atan2(math.sqrt(u.u2 if set1 else u.u3), math.sqrt(u.u1))  # set 1: tilt
    phi1 = -0.5 * (arg14 + arg23)
    half_rel = 0.5 * (arg23 - arg14)  # phi2 of set 1
    if set1:
        theta2 = _HALF_PI - _sign(x.diagonal_gap) * spread
        return AngleSettings.from_angles(region, (_HALF_PI, 0.0, theta2, math.pi - theta2),
                                         (phi1, 0.0, half_rel, half_rel))
    phi1p = phi1 + _sign(abs(x.rho23) - abs(x.rho14)) * _HALF_PI
    return AngleSettings.from_angles(region, (_HALF_PI,) * 4,
                                     (phi1, phi1p, half_rel + spread, half_rel - spread))


def optimal_settings(x: XState) -> tuple[AngleSettings, BellEigenvalues]:
    """The active settings set together with the eigenvalues.

    Ties (|u2 - u3| <= 1e-12) report set 1; both sets give the same Bell value
    there and remain individually retrievable via settings_set1/settings_set2.
    """
    u = x_state_eigenvalues(x)
    return _settings(x, u, u.region), u


def settings_distance(a: AngleSettings, b: AngleSettings) -> float:
    """Largest angle (radians) between corresponding measurement directions."""
    worst = 0.0
    for ta, pa, tb, pb in zip(a.thetas, a.phis, b.thetas, b.phis):
        va = ObservableDirection(ta, pa).unit_vector
        vb = ObservableDirection(tb, pb).unit_vector
        dot = sum(p * q for p, q in zip(va, vb))
        worst = max(worst, math.acos(min(1.0, max(-1.0, dot))))
    return worst
