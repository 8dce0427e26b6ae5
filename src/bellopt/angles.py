"""Closed-form measurement settings that maximize the CHSH function on X states.

Two distinct parameter sets exist, selected by the sign of u2 - u3.  Both are
exact: evaluating the Bell function at set 1 gives 2*sqrt(u1 + u2) and at
set 2 gives 2*sqrt(u1 + u3), for every X state.  The two sets do not coincide
on the boundary u2 = u3, so a state crossing that boundary continuously forces
a finite jump of the optimal settings even though the optimal value itself is
continuous.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .chsh import BellEigenvalues, Region, x_state_eigenvalues
from .states import BellSettings, XState, _unit_vector

_HALF_PI = 0.5 * math.pi
_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class AngleSettings(BellSettings):
    """A `BellSettings` with the region whose closed-form set it is."""

    set_id: Region

    def bell_settings(self) -> "AngleSettings":
        """The settings themselves, which bell_function takes as they are; kept only
        for the benchmark's point-queries op, it goes with the next benchmark change."""
        return self


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


# The closed forms are built canonical: with phases in [-pi, pi] and the spread
# atan2(sqrt(u), sqrt(u1)) in [0, pi/2], every theta is in [0, pi], never -0.0,
# and every phi in [-3 pi/2, 3 pi/2], where one 2 pi step of _wrap lands it in (-pi, pi].

def _wrap(phi):
    # one 2 pi step into (-pi, pi], float or array; a last + 0.0 clears -0.0
    return phi - _TWO_PI * (phi > math.pi) + _TWO_PI * (phi <= -math.pi)


def _closed_forms(set1, gap, u1, u2, u3, m14, m23, re14, im14, re23, im23, atan2, sqrt, where):
    # both sets' (thetas, phis), phis unwrapped, for one state's floats or for
    # rows with the caller's atan2, sqrt and where; atan2(0.0, 0.0) is arg(0) := 0,
    # and 2.0 * (v >= 0.0) - 1.0 the sign of v, 1.0 at 0, that the forms rely on
    arg14, arg23 = atan2(im14, re14), atan2(im23, re23)
    spread = atan2(sqrt(where(set1, u2, u3)), sqrt(u1))  # set 1: tilt
    phi1 = -0.5 * (arg14 + arg23)
    half_rel = 0.5 * (arg23 - arg14)  # phi2 of set 1
    theta2 = _HALF_PI - (2.0 * (gap >= 0.0) - 1.0) * spread
    phi1p = phi1 + (2.0 * (m23 - m14 >= 0.0) - 1.0) * _HALF_PI
    return (((_HALF_PI, 0.0, theta2, math.pi - theta2), (phi1, 0.0, half_rel, half_rel)),
            ((_HALF_PI,) * 4, (phi1, phi1p, half_rel + spread, half_rel - spread)))


def _if(c, a, b):
    return a if c else b


def _settings(x: XState, u: BellEigenvalues, region: Region) -> AngleSettings:
    set1, r14, r23 = region is Region.SET1, x.rho14, x.rho23
    sets = _closed_forms(set1, x.diagonal_gap, u.u1, u.u2, u.u3, abs(r14), abs(r23),
                         r14.real, r14.imag, r23.real, r23.imag, math.atan2, math.sqrt, _if)
    thetas, phis = sets[0] if set1 else sets[1]
    return AngleSettings(thetas, tuple(map(_wrap, phis)), region)


def _atan2(y, x):
    # math.atan2, and cmath.phase(complex(x, y)), elementwise on arrays; numpy's
    # arctan2 differs from libm's for ~7% of arguments on AVX-512 hosts
    import numpy as np

    return np.fromiter(map(math.atan2, y.tolist(), x.tolist()), float, len(y))


def _settings_rows(set1, gap, u1, u2, u3, m14, m23, rho14, rho23):
    # _settings bit for bit on rows, SET1 where set1 else SET2, as (n, 4) thetas
    # and phis, column by column; gap is diagonal_gap, m14, m23 the |rho|,
    # rho14, rho23 (re, im)
    import numpy as np

    sets = _closed_forms(set1, gap, u1, u2, u3, m14, m23, *rho14, *rho23,
                         _atan2, np.sqrt, np.where)
    thetas, phis = (np.column_stack([np.where(set1, a, b) for a, b in zip(*pair)])
                    for pair in zip(*sets))
    return thetas, _wrap(phis)


def optimal_settings(x: XState) -> tuple[AngleSettings, BellEigenvalues]:
    """The active settings set together with the eigenvalues.

    Ties (|u2 - u3| <= 1e-12) report set 1; both sets give the same Bell value
    there and remain individually retrievable via settings_set1/settings_set2.
    """
    u = x_state_eigenvalues(x)
    return _settings(x, u, u.region), u


def settings_distance(a: BellSettings, b: BellSettings) -> float:
    """Largest angle (radians) between corresponding measurement directions."""
    worst = 0.0
    for ta, pa, tb, pb in zip(a.thetas, a.phis, b.thetas, b.phis):
        va, vb = _unit_vector(ta, pa), _unit_vector(tb, pb)
        dot = sum(p * q for p, q in zip(va, vb))
        worst = max(worst, math.acos(min(1.0, max(-1.0, dot))))
    return worst
