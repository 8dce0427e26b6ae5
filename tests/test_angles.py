import cmath
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellopt import (
    AngleSettings,
    BellSettings,
    ExponentialModel,
    LorentzianModel,
    OracleConfig,
    Region,
    TSIRELSON,
    XState,
    bell_function,
    brute_force_bmax,
    certify_settings,
    crossing_roots,
    evolve_x,
    ewl_state,
    EWLParams,
    optimal_settings,
    settings_distance,
    settings_set1,
    settings_set2,
    time_scan,
    x_state_eigenvalues,
    x_to_dense,
)
from bellopt.cli import main
from bellopt.states import _check_direction, _pauli_vector, _unit_vector
from conftest import random_density, random_x_state, werner, x_states

PI = math.pi


def wrap_to_pi(v: float) -> float:
    return math.remainder(v, 2.0 * PI)


class TestSet1:
    def test_bell_state(self, bell_x, bell_rho):
        s = settings_set1(bell_x)
        assert s.thetas[0] == PI / 2 and s.thetas[1] == 0.0
        assert s.thetas[2] == pytest.approx(3 * PI / 4, abs=1e-15)
        assert s.thetas[3] == pytest.approx(PI / 4, abs=1e-15)
        assert s.phis == (0.0, 0.0, 0.0, 0.0)
        assert bell_function(bell_rho, s) \
            == pytest.approx(TSIRELSON, abs=1e-12)

    def test_werner_has_same_angles_scaled_value(self, bell_x):
        w = werner(0.9)
        s = settings_set1(w)
        assert s.thetas == settings_set1(bell_x).thetas
        assert s.phis == settings_set1(bell_x).phis
        assert bell_function(x_to_dense(w), s) \
            == pytest.approx(0.9 * TSIRELSON, abs=1e-12)

    def test_complex_coherence_example(self):
        x = XState(0.3, 0.2, 0.2, 0.3, 0.25j, 0.1)
        s = settings_set1(x)
        assert s.phis[0] == pytest.approx(-PI / 4, abs=1e-15)
        assert s.phis[2] == pytest.approx(-PI / 4, abs=1e-15)
        assert s.phis[3] == pytest.approx(-PI / 4, abs=1e-15)
        assert s.thetas[2] == pytest.approx(
            PI / 2 - math.atan(math.sqrt(0.04 / 0.49)), abs=1e-15)
        # u3 > u2 here, so set 1 is the suboptimal branch: value 2*sqrt(u1+u2)
        assert bell_function(x_to_dense(x), s) \
            == pytest.approx(2 * math.sqrt(0.53), abs=1e-12)

    def test_degenerate_no_coherence(self):
        x = XState(0.7, 0.1, 0.1, 0.1, 0.0, 0.0)
        s = settings_set1(x)
        # arctan(sqrt(u2/0)) -> pi/2, positive gap: theta2 -> 0
        assert s.thetas[2] == pytest.approx(0.0, abs=1e-15)
        assert bell_function(x_to_dense(x), s) \
            == pytest.approx(x_state_eigenvalues(x).bmax, abs=1e-12)


class TestSet2:
    def test_bell_state(self, bell_x, bell_rho):
        s = settings_set2(bell_x)
        assert s.thetas == (PI / 2,) * 4
        assert s.phis[0] == 0.0
        assert s.phis[1] == pytest.approx(PI / 2, abs=1e-15)
        assert s.phis[2] == pytest.approx(PI / 4, abs=1e-15)
        assert s.phis[3] == pytest.approx(-PI / 4, abs=1e-15)
        assert bell_function(bell_rho, s) \
            == pytest.approx(TSIRELSON, abs=1e-12)

    def test_worked_example(self):
        x = XState(0.3, 0.2, 0.2, 0.3, 0.25, 0.1)
        s = settings_set2(x)
        assert s.phis[2] == pytest.approx(math.atan(3.0 / 7.0), abs=1e-15)
        assert s.phis[3] == pytest.approx(-math.atan(3.0 / 7.0), abs=1e-15)
        assert bell_function(x_to_dense(x), s) \
            == pytest.approx(2 * math.sqrt(0.58), abs=1e-12)

    def test_sign_convention_when_rho23_vanishes(self):
        x = XState(0.4, 0.1, 0.1, 0.4, 0.2, 0.0)
        s = settings_set2(x)
        assert wrap_to_pi(s.phis[1] - (s.phis[0] - PI / 2)) == pytest.approx(0.0, abs=1e-15)


class TestOptimalSettings:
    def test_werner_tie_keeps_both_sets(self):
        w = werner(0.8)
        s, u = optimal_settings(w)
        assert u.tie and s.set_id is Region.SET1
        rho = x_to_dense(w)
        b1 = bell_function(rho, settings_set1(w))
        b2 = bell_function(rho, settings_set2(w))
        assert b1 == pytest.approx(0.8 * TSIRELSON, abs=1e-12)
        assert b2 == pytest.approx(0.8 * TSIRELSON, abs=1e-12)

    def test_ewl_pure_branch_selection(self):
        p = EWLParams(alpha2=0.3, r=1.0)
        x_full = ewl_state(p)
        s, u = optimal_settings(x_full)
        assert (u.u2, u.u3) == pytest.approx((1.0, 0.84), abs=1e-12)
        assert s.set_id is Region.SET1
        x_half = evolve_x(x_full, math.sqrt(0.5))
        s, u = optimal_settings(x_half)
        assert (u.u2, u.u3) == pytest.approx((0.0, 0.21), abs=1e-12)
        assert s.set_id is Region.SET2

    def test_certificate_on_random_states(self):
        rng = np.random.default_rng(12)
        for _ in range(500):
            x = random_x_state(rng)
            s, _ = optimal_settings(x)
            assert bell_function(x_to_dense(x), s) \
                == pytest.approx(x_state_eigenvalues(x).bmax, abs=1e-10)

    def test_dominance_of_active_set(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            x = random_x_state(rng)
            rho = x_to_dense(x)
            s, _ = optimal_settings(x)
            active = bell_function(rho, s)
            other = settings_set2(x) if s.set_id is Region.SET1 else settings_set1(x)
            assert active >= bell_function(rho, other) - 1e-12


class TestValueFormulas:
    """Set 1 always evaluates to 2*sqrt(u1+u2), set 2 to 2*sqrt(u1+u3)."""

    @settings(max_examples=150, deadline=None)
    @given(x_states())
    def test_set1_value(self, x):
        u = x_state_eigenvalues(x)
        got = bell_function(x_to_dense(x), settings_set1(x))
        assert got == pytest.approx(2 * math.sqrt(u.u1 + u.u2), abs=1e-10)

    @settings(max_examples=150, deadline=None)
    @given(x_states())
    def test_set2_value(self, x):
        u = x_state_eigenvalues(x)
        got = bell_function(x_to_dense(x), settings_set2(x))
        assert got == pytest.approx(2 * math.sqrt(u.u1 + u.u3), abs=1e-10)

    @settings(max_examples=100)
    @given(x_states())
    def test_set1_pattern(self, x):
        s = settings_set1(x)
        assert s.thetas[0] == PI / 2 and s.thetas[1] == 0.0
        assert s.thetas[2] + s.thetas[3] == pytest.approx(PI, abs=0.0)

    @settings(max_examples=100)
    @given(x_states())
    def test_set2_pattern(self, x):
        import cmath

        s = settings_set2(x)
        assert s.thetas == (PI / 2,) * 4
        rel = cmath.phase(x.rho23) - cmath.phase(x.rho14)
        assert wrap_to_pi(s.phis[2] + s.phis[3] - rel) == pytest.approx(0.0, abs=1e-12)


def boundary_state(rng) -> XState:
    """Random X state with u1 > u2 = u3 > 0 (set boundary)."""
    while True:
        mod14 = rng.uniform(0.05, 0.45)
        mod23 = rng.uniform(0.0, mod14 - 0.02)
        gap = 2.0 * (mod14 - mod23)
        p_outer = 0.25 * (1.0 + gap)  # rho11 = rho44, rho22 = rho33
        p_inner = 0.5 - p_outer
        if p_inner < 0:
            continue
        if p_outer * p_outer < mod14 * mod14:
            continue
        if p_inner * p_inner < mod23 * mod23:
            continue
        return XState(p_outer, p_inner, p_inner, p_outer,
                      mod14 * np.exp(1j * rng.uniform(-PI, PI)),
                      mod23 * np.exp(1j * rng.uniform(-PI, PI)))


class TestBoundary:
    def test_equal_values_distinct_settings(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            x = boundary_state(rng)
            u = x_state_eigenvalues(x)
            assert abs(u.u2 - u.u3) <= 1e-12 and u.u1 > u.u2 > 0
            rho = x_to_dense(x)
            s1, s2 = settings_set1(x), settings_set2(x)
            b1 = bell_function(rho, s1)
            b2 = bell_function(rho, s2)
            assert b1 == pytest.approx(b2, abs=1e-10)
            assert settings_distance(s1, s2) > 1e-3


class TestAngleSettings:
    @pytest.mark.parametrize("thetas,phis", [
        ((0.0,) * 3, (0.0,) * 4),
        ((0.0,) * 4, (0.0,) * 5),
        ((), ()),
    ])
    def test_rejects_other_than_four_angles(self, thetas, phis):
        from bellopt import AngleSettings

        with pytest.raises(ValueError, match="expected 4 thetas and 4 phis"):
            AngleSettings(thetas, phis, Region.SET1)


def raw_closed_forms(x: XState):
    """The raw (thetas, phis) of set 1 and of set 2 as the paper writes them,
    before any canonicalization: the tilt of set 1 is arctan(sqrt(u2/u1)),
    the spread of set 2 arctan(sqrt(u3/u1)), taken as atan2 of the roots."""
    u = x_state_eigenvalues(x)
    arg14, arg23 = cmath.phase(x.rho14), cmath.phase(x.rho23)
    phi1, phi2 = -(arg14 + arg23) / 2, (arg23 - arg14) / 2
    tilt = math.atan2(math.sqrt(u.u2), math.sqrt(u.u1))
    theta2 = PI / 2 - tilt if x.diagonal_gap >= 0 else PI / 2 + tilt
    spread = math.atan2(math.sqrt(u.u3), math.sqrt(u.u1))
    phi1p = phi1 + PI / 2 if abs(x.rho23) >= abs(x.rho14) else phi1 - PI / 2
    return (((PI / 2, 0.0, theta2, PI - theta2), (phi1, 0.0, phi2, phi2)),
            ((PI / 2,) * 4, (phi1, phi1p, phi2 + spread, phi2 - spread)))


def normalize_direction(theta: float, phi: float) -> tuple[float, float]:
    """Canonicalize raw angles to theta in [0, pi], phi in (-pi, pi]: the
    general normalizer that the closed forms are compared against.

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


def canonical(set_id: Region, thetas, phis) -> AngleSettings:
    """Settings from four raw (theta, phi) pairs, each canonicalized by
    normalize_direction."""
    pairs = [normalize_direction(t, p) for t, p in zip(thetas, phis, strict=True)]
    return AngleSettings(tuple(p[0] for p in pairs), tuple(p[1] for p in pairs), set_id)


def hexes(s: AngleSettings):
    # float.hex tells -0.0 from 0.0 and every last bit
    return [v.hex() for v in s.thetas + s.phis], s.set_id


class TestCanonicalClosedForms:
    """The closed-form sets are built canonical, equal bit for bit to their
    raw angles canonicalized by the general normalizer normalize_direction."""

    @given(raw_theta=st.floats(-10, 10), raw_phi=st.floats(-10, 10))
    def test_normalize_preserves_direction(self, raw_theta, raw_phi):
        # the reference itself: a canonical direction, the same as the raw one
        theta, phi = normalize_direction(raw_theta, raw_phi)
        _check_direction(theta, phi)
        raw = np.array([
            math.sin(raw_theta) * math.cos(raw_phi),
            math.sin(raw_theta) * math.sin(raw_phi),
            math.cos(raw_theta),
        ])
        assert np.allclose(_unit_vector(theta, phi), raw, atol=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(x_states())
    # phases exactly +-pi: phi1, phi2 and phi2 +- spread land on +-pi or -0.0
    @example(XState(0.3, 0.2, 0.2, 0.3, complex(-0.2, 0.0), complex(-0.1, 0.0)))
    @example(XState(0.3, 0.2, 0.2, 0.3, complex(-0.2, -0.0), complex(-0.1, 0.0)))
    @example(XState(0.3, 0.2, 0.2, 0.3, complex(-0.2, 0.0), complex(-0.1, -0.0)))
    @example(XState(0.3, 0.2, 0.2, 0.3, complex(-0.15, 0.0), complex(-0.15, -0.0)))
    @example(XState(0.3, 0.2, 0.2, 0.3, complex(-0.15, -0.0), complex(-0.15, 0.0)))
    # zero coherences (u1 = 0), with signed zeros, whose phases are 0, -0.0 or -pi
    @example(XState(0.4, 0.1, 0.2, 0.3, 0.0, 0.0))
    @example(XState(0.4, 0.1, 0.2, 0.3, complex(-0.0, -0.0), complex(0.0, -0.0)))
    @example(werner(0.8))  # a tie u2 = u3
    @example(XState(0.25, 0.25, 0.25, 0.25, 0.1j, complex(-0.05, -0.0)))  # zero gap
    def test_equal_to_canonicalized_raw_angles(self, x):
        raw1, raw2 = raw_closed_forms(x)
        assert hexes(settings_set1(x)) == hexes(canonical(Region.SET1, *raw1))
        assert hexes(settings_set2(x)) == hexes(canonical(Region.SET2, *raw2))

    def test_every_call_path_gives_canonical_angles(self, tmp_path, capsys):
        # no library path canonicalizes raw angles: each builds them canonical,
        # so the general normalizer leaves them as they are, bit for bit
        rng = np.random.default_rng(20)
        xs = [random_x_state(rng) for _ in range(20)] + [
            werner(0.8), XState(0.4, 0.1, 0.2, 0.3, 0.0, 0.0),
            XState(0.3, 0.2, 0.2, 0.3, complex(-0.15, 0.0), complex(-0.15, -0.0))]
        path = tmp_path / "state.json"
        rows = x_to_dense(xs[0]).rows
        path.write_text(json.dumps({"rho": [[[z.real, z.imag] for z in r] for r in rows]}))
        t = np.linspace(0.0, 4.0, 41)
        for x in xs:
            for s in (optimal_settings(x)[0], settings_set1(x), settings_set2(x)):
                assert hexes(s) == hexes(canonical(s.set_id, s.thetas, s.phis))
            for model in (ExponentialModel(1.0), LorentzianModel(1.0, 5.0)):
                scan = time_scan(x, model, t)
                for thetas, phis, region in zip(scan.thetas.tolist(), scan.phis.tolist(),
                                                scan.region.tolist()):
                    s = AngleSettings(tuple(thetas), tuple(phis), Region(region))
                    assert hexes(s) == hexes(canonical(s.set_id, s.thetas, s.phis))
        assert main(["angles", "--input", str(path), "--degrees"]) == 0
        capsys.readouterr()
        assert main(["angles", "--input", str(path), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["set"] in (1, 2)


class TestSettingsDistance:
    def test_zero_on_identical(self, bell_x):
        s = settings_set1(bell_x)
        assert settings_distance(s, s) == 0.0

    def test_antipodal_theta1p(self):
        from bellopt import AngleSettings

        base = AngleSettings((PI / 2, 0.0, PI / 2, PI / 2), (0, 0, 0, 0),
                             set_id=Region.SET1)
        flipped = AngleSettings((PI / 2, PI, PI / 2, PI / 2), (0, 0, 0, 0),
                                set_id=Region.SET1)
        assert settings_distance(base, flipped) == pytest.approx(PI, abs=1e-12)

    def test_set1_vs_set2_differ_on_primed_qubit1(self, bell_x):
        # set 1 has a' along +z, set 2 has a' equatorial: distance >= pi/2
        assert settings_distance(settings_set1(bell_x), settings_set2(bell_x)) \
            >= PI / 2 - 1e-12

    def test_jump_at_crossing_is_finite(self):
        p = EWLParams(alpha2=0.3, r=1.0)
        x_root = crossing_roots(p)[-1]
        state = evolve_x(ewl_state(p), math.sqrt(x_root))
        gap = settings_distance(settings_set1(state), settings_set2(state))
        assert gap > 0.1


GOLDEN = Path(__file__).parent / "golden"


def direction_bell_function(rho, s):
    """bell_function as it was written over four direction objects, each one
    _unit_vector of its angles, kept as the reference that reading the angles
    directly must equal bit for bit."""
    def dot(u, v):
        return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]

    a, ap, b, bp = (_unit_vector(float(t), float(p)) for t, p in zip(s.thetas, s.phis))
    plus = _pauli_vector(rho.rows, [p + q for p, q in zip(b, bp)])
    minus = _pauli_vector(rho.rows, [p - q for p, q in zip(b, bp)])
    return abs(dot(a, plus) + dot(ap, minus))


class TestOneSettingsRecord:
    """BellSettings is the one settings record: the Bell function, the
    distance and the oracle's certificate read its angles directly."""

    def test_subclasses_are_the_settings_themselves(self, bell_x):
        s = settings_set1(bell_x)
        assert isinstance(s, BellSettings) and s.bell_settings() is s
        result = brute_force_bmax(x_to_dense(bell_x), OracleConfig(grid_n=4, restarts=1))
        assert isinstance(result, BellSettings)

    def test_bit_for_bit_equal_to_the_direction_formula(self):
        rng = np.random.default_rng(24)
        edges = [(0.0, 0.0), (PI, PI), (-1e-12, -PI), (PI + 1e-12, PI + 1e-12), (0.5 * PI, -0.0)]
        for k in range(300):
            x = random_x_state(rng)
            rho = random_density(rng) if k % 3 == 0 else x_to_dense(x)
            pairs = [edges[rng.integers(len(edges))] if rng.uniform() < 0.2
                     else (rng.uniform(0.0, PI), rng.uniform(-PI, PI)) for _ in range(4)]
            for s in (BellSettings(*zip(*pairs)), settings_set1(x), settings_set2(x)):
                assert bell_function(rho, s).hex() == direction_bell_function(rho, s).hex()

    def test_bell_value_path_reads_the_settings(self, capsys, monkeypatch):
        rng = np.random.default_rng(24)
        xs = [random_x_state(rng) for _ in range(10)] + [
            werner(0.8), XState(0.4, 0.1, 0.2, 0.3, 0.0, 0.0)]
        cfg = OracleConfig(grid_n=4, refine_iters=0, restarts=1)
        for x in xs:
            rho = x_to_dense(x)
            active, u = optimal_settings(x)
            s1, s2 = settings_set1(x), settings_set2(x)
            assert abs(bell_function(rho, s1) - u.b1) <= 1e-10
            assert abs(bell_function(rho, s2) - u.b2) <= 1e-10
            assert settings_distance(s1, s2) >= 0.0
            assert certify_settings(rho, active, cfg) <= 1e-6
            result = brute_force_bmax(rho, cfg)
            assert certify_settings(rho, result, cfg) >= 0.0
        monkeypatch.chdir(GOLDEN)
        cases = [c for c in json.loads((GOLDEN / "cases.json").read_text())
                 if c["argv"][0] == "angles"]
        assert {c["name"].rsplit("-", 1)[1] for c in cases} == {"text", "deg", "json"}
        for case in cases:
            assert main(case["argv"]) == case["exit"]
            assert capsys.readouterr().out == (GOLDEN / f"{case['name']}.out").read_text()
