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


def _coherence_phases(x: XState) -> tuple[float, float]:
    # cmath.phase(0) == 0.0, which is exactly the arg(0) := 0 convention.
    return cmath.phase(x.rho14), cmath.phase(x.rho23)


@dataclass(frozen=True)
class AngleSettings:
    """The eight optimized angles, theta in [0, pi] and phi in (-pi, pi]."""

    theta1: float
    theta1p: float
    theta2: float
    theta2p: float
    phi1: float
    phi1p: float
    phi2: float
    phi2p: float
    set_id: Region

    def bell_settings(self) -> BellSettings:
        return BellSettings(
            a=ObservableDirection(self.theta1, self.phi1),
            a_prime=ObservableDirection(self.theta1p, self.phi1p),
            b=ObservableDirection(self.theta2, self.phi2),
            b_prime=ObservableDirection(self.theta2p, self.phi2p),
        )

    @property
    def thetas(self) -> tuple[float, float, float, float]:
        return (self.theta1, self.theta1p, self.theta2, self.theta2p)

    @property
    def phis(self) -> tuple[float, float, float, float]:
        return (self.phi1, self.phi1p, self.phi2, self.phi2p)

    @classmethod
    def from_angles(cls, set_id: Region, thetas, phis) -> "AngleSettings":
        """Settings from four raw (theta, phi) pairs, each canonicalized by
        normalize_direction."""
        pairs = [normalize_direction(t, p) for t, p in zip(thetas, phis)]
        return cls(
            theta1=pairs[0][0], theta1p=pairs[1][0],
            theta2=pairs[2][0], theta2p=pairs[3][0],
            phi1=pairs[0][1], phi1p=pairs[1][1],
            phi2=pairs[2][1], phi2p=pairs[3][1],
            set_id=set_id,
        )


def settings_set1(x: XState) -> AngleSettings:
    """Settings for the u2 >= u3 branch.

    Qubit 1 measures in the equator and along z; qubit 2 tilts between them
    by arctan(sqrt(u2/u1)), on the side fixed by the sign of the population
    gap.  Degenerate cases follow the limit values: arctan(sqrt(u2/0)) = pi/2
    for u2 > 0 and 0 when u1 = u2 = 0.
    """
    return _set1(x, x_state_eigenvalues(x))


def _set1(x: XState, u: BellEigenvalues) -> AngleSettings:
    arg14, arg23 = _coherence_phases(x)
    tilt = math.atan2(math.sqrt(u.u2), math.sqrt(u.u1))
    theta2 = _HALF_PI - _sign(x.diagonal_gap) * tilt
    phi1 = -0.5 * (arg14 + arg23)
    phi2 = 0.5 * (arg23 - arg14)
    return AngleSettings.from_angles(
        Region.SET1,
        (_HALF_PI, 0.0, theta2, math.pi - theta2),
        (phi1, 0.0, phi2, phi2),
    )


def settings_set2(x: XState) -> AngleSettings:
    """Settings for the u3 >= u2 branch: all four directions equatorial.

    Qubit 2's azimuths open symmetrically by arctan(sqrt(u3/u1)) around the
    relative coherence phase; qubit 1's primed azimuth steps by pi/2 with the
    sign of |rho23| - |rho14|.
    """
    return _set2(x, x_state_eigenvalues(x))


def _set2(x: XState, u: BellEigenvalues) -> AngleSettings:
    arg14, arg23 = _coherence_phases(x)
    spread = math.atan2(math.sqrt(u.u3), math.sqrt(u.u1))
    phi1 = -0.5 * (arg14 + arg23)
    phi1p = phi1 + _sign(abs(x.rho23) - abs(x.rho14)) * _HALF_PI
    half_rel = 0.5 * (arg23 - arg14)
    return AngleSettings.from_angles(
        Region.SET2,
        (_HALF_PI, _HALF_PI, _HALF_PI, _HALF_PI),
        (phi1, phi1p, half_rel + spread, half_rel - spread),
    )


def optimal_settings(x: XState) -> tuple[AngleSettings, BellEigenvalues]:
    """The active settings set together with the eigenvalues.

    Ties (|u2 - u3| <= 1e-12) report set 1; both sets give the same Bell value
    there and remain individually retrievable via settings_set1/settings_set2.
    """
    u = x_state_eigenvalues(x)
    if u.region is Region.SET1:
        return _set1(x, u), u
    return _set2(x, u), u


def settings_distance(a: AngleSettings, b: AngleSettings) -> float:
    """Largest angle (radians) between corresponding measurement directions."""
    sa, sb = a.bell_settings(), b.bell_settings()
    worst = 0.0
    for da, db in ((sa.a, sb.a), (sa.a_prime, sb.a_prime),
                   (sa.b, sb.b), (sa.b_prime, sb.b_prime)):
        dot = float(da.unit_vector @ db.unit_vector)
        worst = max(worst, math.acos(min(1.0, max(-1.0, dot))))
    return worst
