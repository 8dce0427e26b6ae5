import bisect
import cmath
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings

from bellopt import (
    DensityMatrix4,
    EWLParams,
    EventKind,
    ExponentialModel,
    GridTooCoarse,
    LorentzianModel,
    Region,
    ScanEvent,
    TabulatedModel,
    XState,
    apply_amplitude_damping,
    as_x_state,
    bell_function,
    bmax_x,
    crossing_roots,
    evolve_x,
    ewl_eigenvalues,
    ewl_state,
    optimal_settings,
    q_exponential,
    q_lorentzian,
    scan_events,
    settings_set1,
    settings_set2,
    time_scan,
    validate_density_matrix,
    x_state_eigenvalues,
    x_to_dense,
)
from bellopt.angles import _sign
from bellopt.dynamics import (
    _PROBES_PER_INTERVAL,
    _bisect_event,
    _eigenvalues_along,
    _probe_signs,
)
from bellopt.states import StateValidationError
from conftest import damping_amplitudes, random_density, random_x_state, x_states


def kraus_oracle(rho: np.ndarray, q: complex) -> np.ndarray:
    """Independent product-channel reference, built from literal matrices."""
    loss = math.sqrt(max(0.0, 1.0 - abs(q) ** 2))
    k0 = np.array([[q, 0], [0, 1]], dtype=complex)
    k1 = np.array([[0, 0], [loss, 0]], dtype=complex)
    out = np.zeros((4, 4), dtype=complex)
    for ka in (k0, k1):
        for kb in (k0, k1):
            k = np.kron(ka, kb)
            out += k @ rho @ k.conj().T
    return out


class TestQExponential:
    def test_starts_at_one(self):
        assert q_exponential(0.0, 1.7) == 1.0

    def test_half_life(self):
        q = q_exponential(math.log(2.0), 1.0)
        assert abs(q) ** 2 == pytest.approx(0.5, abs=1e-15)

    def test_monotone_decay(self):
        ts = np.linspace(0, 20, 200)
        qs = [abs(q_exponential(t, 0.8)) ** 2 for t in ts]
        assert all(b < a for a, b in zip(qs, qs[1:]))
        assert qs[-1] < 1e-6

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            q_exponential(-1.0, 1.0)
        with pytest.raises(ValueError):
            q_exponential(1.0, 0.0)


class TestQLorentzian:
    def test_starts_at_one(self):
        assert q_lorentzian(0.0, 1.0, 5.0) == 1.0

    def test_weak_coupling_is_nearly_markovian(self):
        lam, gamma0 = 1.0, 0.01
        for t in np.linspace(5.0, 50.0, 60):
            q2 = abs(q_lorentzian(t, lam, gamma0)) ** 2
            assert q2 == pytest.approx(math.exp(-gamma0 * t), rel=0.05)

    def test_strong_coupling_collapses(self):
        # zeros of q on [0, 10] for lam=1, gamma0=5, counted by sign changes
        ts = np.linspace(0.0, 10.0, 20001)
        qs = [q_lorentzian(t, 1.0, 5.0).real for t in ts]
        flips = sum(1 for a, b in zip(qs, qs[1:]) if (a >= 0) != (b >= 0))
        assert flips == 5

    def test_amplitude_bounded(self):
        for lam, gamma0 in ((1.0, 5.0), (1.0, 0.51), (2.0, 1.0), (3.0, 0.1)):
            for t in np.linspace(0.0, 30.0, 500):
                assert abs(q_lorentzian(t, lam, gamma0)) <= 1.0 + 1e-12

    @pytest.mark.parametrize("lam,gamma0", [(10.0, 0.1), (10.0, 0.5), (50.0, 12.0)])
    def test_weak_coupling_large_t_finite_and_accurate(self, lam, gamma0):
        # Across lam*t = 1200..1600 cosh/sinh overflow and exp(-lam t/2)
        # underflows; q must follow its leading term, the slow exponential
        # (the other term is below 1e-300 of it here), and keep decreasing.
        d = math.sqrt(lam * lam - 2.0 * gamma0 * lam)
        prev = 1.0
        for t in np.linspace(1200.0 / lam, 1600.0 / lam, 2001):
            q = q_lorentzian(t, lam, gamma0)
            lead = 0.5 * (1.0 + lam / d) * math.exp(0.5 * (d - lam) * t)
            assert q.imag == 0.0 and 0.0 < q.real < prev
            assert q.real == pytest.approx(lead, rel=1e-12)
            prev = q.real
        assert q_lorentzian(1e6, lam, gamma0) == 0.0

    def test_critical_coupling_continuous(self):
        # d = 0 exactly at gamma0 = lam/2; series evaluation must match limits
        q_crit = q_lorentzian(2.0, 1.0, 0.5)
        q_near = q_lorentzian(2.0, 1.0, 0.5 + 1e-9)
        assert q_crit.real == pytest.approx(q_near.real, abs=1e-7)
        assert q_crit.real == pytest.approx(math.exp(-1.0) * 2.0, abs=1e-12)


class TestTabulated:
    def test_validation(self):
        with pytest.raises(ValueError):
            TabulatedModel((0.0, 1.0), (0.9, 0.5))  # q(0) != 1
        with pytest.raises(ValueError):
            TabulatedModel((0.5, 1.0), (1.0, 0.5))  # does not start at 0
        with pytest.raises(ValueError):
            TabulatedModel((0.0, 0.0), (1.0, 0.5))  # not increasing

    def test_interpolation(self):
        model = TabulatedModel((0.0, 2.0), (1.0, 0.0))
        assert model.q(1.0) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            model.q(3.0)

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "q.csv"
        path.write_text("t,q_re,q_im\n0,1,0\n1,0.6,0.1\n2,0.3,0.05\n")
        model = TabulatedModel.from_csv(path)
        assert model.q(0.5) == pytest.approx(0.8 + 0.05j)


class TestAmplitudeDamping:
    def test_identity_at_q_one(self):
        rng = np.random.default_rng(31)
        rho = random_density(rng)
        out = apply_amplitude_damping(rho, 1.0)
        assert np.allclose(out.entries, rho.entries, atol=1e-15)

    def test_full_decay_reaches_ground(self):
        rng = np.random.default_rng(32)
        rho = random_density(rng)
        out = apply_amplitude_damping(rho, 0.0)
        expected = np.zeros((4, 4), dtype=complex)
        expected[3, 3] = 1.0
        assert np.allclose(out.entries, expected, atol=1e-12)

    def test_double_excitation_binomial(self):
        rho = validate_density_matrix(np.diag([1.0, 0.0, 0.0, 0.0]))
        for x in (0.2, 0.5, 0.9):
            out = apply_amplitude_damping(rho, math.sqrt(x))
            got = np.real(np.diag(out.entries))
            expected = np.array([x * x, x * (1 - x), x * (1 - x), (1 - x) ** 2])
            oracle = np.real(np.diag(kraus_oracle(rho.entries, math.sqrt(x))))
            assert np.allclose(expected, oracle, atol=1e-15)
            assert np.allclose(got, expected, atol=1e-14)

    def test_cptp_on_random_inputs(self):
        rng = np.random.default_rng(33)
        for _ in range(100):
            rho = random_density(rng)
            q = math.sqrt(rng.uniform(0, 1)) * np.exp(1j * rng.uniform(-np.pi, np.pi))
            out = apply_amplitude_damping(rho, q).entries
            assert abs(out.trace() - 1.0) <= 1e-12
            assert np.abs(out - out.conj().T).max() <= 1e-12
            assert np.linalg.eigvalsh(out).min() >= -1e-10


class TestEvolveX:
    def test_identity_at_q_one(self):
        rng = np.random.default_rng(34)
        x = random_x_state(rng)
        assert evolve_x(x, 1.0) == x

    def test_bell_state_trajectory(self, bell_x):
        for x in (0.25, 0.5, 0.75):
            out = evolve_x(bell_x, math.sqrt(x))
            assert out.rho23 == pytest.approx(0.5 * x, abs=1e-15)
            assert out.rho22 == pytest.approx(0.5 * x, abs=1e-15)
            assert out.rho33 == pytest.approx(0.5 * x, abs=1e-15)
            assert out.rho44 == pytest.approx(1.0 - x, abs=1e-15)

    @settings(max_examples=150, deadline=None)
    @given(x_states(), damping_amplitudes())
    def test_matches_product_channel(self, x, q):
        closed = x_to_dense(evolve_x(x, q)).entries
        channel = apply_amplitude_damping(x_to_dense(x), q).entries
        assert np.abs(closed - channel).max() <= 1e-12

    def test_exponential_semigroup(self):
        rng = np.random.default_rng(35)
        model = ExponentialModel(gamma=0.7)
        for _ in range(50):
            x = random_x_state(rng)
            t1, t2 = rng.uniform(0, 3, 2)
            two_steps = evolve_x(evolve_x(x, model.q(t1)), model.q(t2))
            one_step = evolve_x(x, model.q(t1 + t2))
            dense_a, dense_b = x_to_dense(two_steps).entries, x_to_dense(one_step).entries
            assert np.abs(dense_a - dense_b).max() <= 1e-12


class TestEWL:
    def test_r_zero_is_maximally_mixed(self):
        x = ewl_state(EWLParams(alpha2=0.3, r=0.0, delta=1.0))
        assert np.allclose(x_to_dense(x).entries, np.eye(4) / 4.0, atol=1e-15)

    def test_r_one_balanced_is_bell(self, bell_x):
        x = ewl_state(EWLParams(alpha2=0.5, r=1.0, delta=0.0))
        assert x == bell_x

    def test_coherence_magnitude(self):
        x = ewl_state(EWLParams(alpha2=0.3, r=0.5, delta=math.pi / 3))
        assert abs(x.rho23) == pytest.approx(0.5 * math.sqrt(0.21), abs=1e-15)

    def test_dense_form_matches_projector_mixture(self):
        rng = np.random.default_rng(36)
        for _ in range(30):
            alpha2, r = rng.uniform(0, 1, 2)
            delta = rng.uniform(-np.pi, np.pi)
            alpha, beta = math.sqrt(alpha2), math.sqrt(1 - alpha2)
            ket = np.zeros(4, dtype=complex)
            ket[2] = alpha                          # |01>
            ket[1] = beta * np.exp(1j * delta)      # |10>
            expected = r * np.outer(ket, ket.conj()) + (1 - r) * np.eye(4) / 4
            got = x_to_dense(ewl_state(EWLParams(alpha2, r, delta))).entries
            assert np.abs(got - expected).max() <= 1e-15


class TestEWLEigenvalues:
    def test_pure_limits(self):
        u = ewl_eigenvalues(EWLParams(0.3, 1.0), 1.0)
        assert (u.u1, u.u2, u.u3) == pytest.approx((0.84, 1.0, 0.84), abs=1e-15)
        u0 = ewl_eigenvalues(EWLParams(0.3, 1.0), 0.0)
        assert (u0.u1, u0.u2, u0.u3) == (0.0, 1.0, 0.0)

    def test_half_decay_point(self):
        u = ewl_eigenvalues(EWLParams(0.3, 1.0), 0.5)
        assert u.u2 == pytest.approx(0.0, abs=1e-15)
        assert u.u1 == pytest.approx(0.21, abs=1e-15)
        assert u.region is Region.SET2

    def test_matches_channel_chain(self):
        for alpha2 in np.linspace(0.0, 1.0, 8):
            for r in np.linspace(0.0, 1.0, 8):
                for x in np.linspace(0.0, 1.0, 8):
                    closed = ewl_eigenvalues(EWLParams(alpha2, r, 0.4), x)
                    chained = x_state_eigenvalues(
                        evolve_x(ewl_state(EWLParams(alpha2, r, 0.4)), math.sqrt(x)))
                    assert closed.u1 == pytest.approx(chained.u1, abs=1e-12)
                    assert closed.u2 == pytest.approx(chained.u2, abs=1e-12)
                    assert closed.u3 == pytest.approx(chained.u3, abs=1e-12)


def bisect_crossings(p: EWLParams, n: int = 4001) -> list[float]:
    """Independent root oracle: sign scan + bisection on u2 - u3 of the
    channel-evolved state."""
    def f(x):
        u = x_state_eigenvalues(evolve_x(ewl_state(p), math.sqrt(x)))
        return u.u2 - u.u3

    xs = np.linspace(1e-9, 1.0, n)
    roots = []
    for a, b in zip(xs, xs[1:]):
        if (f(a) >= 0) == (f(b) >= 0):
            continue
        lo, hi = a, b
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if (f(lo) >= 0) == (f(mid) >= 0):
                lo = mid
            else:
                hi = mid
        roots.append(0.5 * (lo + hi))
    return roots


class TestCrossingRoots:
    def test_balanced_pure_state_exact_algebra(self):
        roots = crossing_roots(EWLParams(alpha2=0.5, r=1.0))
        assert roots == pytest.approx([1.0 / 3.0, 1.0], abs=1e-15)

    def test_reference_case_matches_bisection_oracle(self):
        p = EWLParams(alpha2=0.3, r=1.0)
        roots = crossing_roots(p)
        oracle = bisect_crossings(p)
        assert len(roots) == len(oracle) == 2
        assert roots == pytest.approx(oracle, abs=1e-10)
        # closed algebra for r = 1: x = 1 / (2 +- 2 alpha beta)
        coh = 2.0 * math.sqrt(0.21)
        assert roots == pytest.approx([1 / (2 + coh), 1 / (2 - coh)], abs=1e-14)

    def test_no_roots_without_coherence(self):
        assert crossing_roots(EWLParams(alpha2=0.3, r=0.0)) == []
        assert crossing_roots(EWLParams(alpha2=0.0, r=0.8)) == []
        assert crossing_roots(EWLParams(alpha2=1.0, r=0.8)) == []

    def test_random_parameters_match_oracle(self):
        rng = np.random.default_rng(37)
        for _ in range(25):
            p = EWLParams(alpha2=rng.uniform(0.05, 0.95), r=rng.uniform(0.05, 1.0))
            roots = crossing_roots(p)
            oracle = bisect_crossings(p)
            assert len(roots) == len(oracle)
            assert roots == pytest.approx(oracle, abs=1e-9)
            for x in roots:
                u = ewl_eigenvalues(p, x)
                assert abs(u.u2 - u.u3) <= 1e-10

    def test_sign_flips_across_each_root(self):
        p = EWLParams(alpha2=0.42, r=0.77)
        for x in crossing_roots(p):
            lo = ewl_eigenvalues(p, max(0.0, x - 1e-6))
            hi = ewl_eigenvalues(p, min(1.0, x + 1e-6))
            assert (lo.u2 - lo.u3) * (hi.u2 - hi.u3) < 0


class TestTimeScan:
    def test_reference_trajectory_events(self):
        p = EWLParams(alpha2=0.3, r=1.0, delta=0.0)
        records = time_scan(ewl_state(p), ExponentialModel(gamma=1.0),
                            np.linspace(0.0, 5.0, 400))
        events = scan_events(records)
        jumps = [e for e in events if e.kind is EventKind.SET_JUMP]
        offs = [e for e in events if e.kind is EventKind.VIOLATION_OFF]
        ons = [e for e in events if e.kind is EventKind.VIOLATION_ON]
        roots = crossing_roots(p)
        assert len(jumps) == 2 and len(offs) == 1 and len(ons) == 0
        assert sorted(j.q2 for j in jumps) == pytest.approx(roots, abs=1e-8)
        # B2 = 2 at x = 1 / sqrt(2 * u1-coefficient)
        assert offs[0].q2 == pytest.approx(1.0 / math.sqrt(4 * 0.21 * 2), abs=1e-8)
        u_off = x_state_eigenvalues(
            evolve_x(ewl_state(p), math.sqrt(offs[0].q2)))
        assert u_off.bmax == pytest.approx(2.0, abs=1e-8)

    def test_static_state_has_no_events(self, bell_x):
        model = TabulatedModel((0.0, 10.0), (1.0, 1.0))
        records = time_scan(bell_x, model, np.linspace(0, 10, 50))
        assert scan_events(records) == []
        assert all(r.bmax == pytest.approx(2 * math.sqrt(2), abs=1e-12)
                   for r in records)

    def test_maximally_mixed_never_violates(self):
        x0 = XState(0.25, 0.25, 0.25, 0.25, 0.0, 0.0)
        records = time_scan(x0, ExponentialModel(1.0), np.linspace(0, 5, 200))
        assert all(r.bmax < 2.0 for r in records)
        assert not [e for e in scan_events(records)
                    if e.kind in (EventKind.VIOLATION_ON, EventKind.VIOLATION_OFF)]

    def test_coarse_grid_warns_but_finds_events(self):
        p = EWLParams(alpha2=0.3, r=1.0, delta=0.0)
        with pytest.warns(GridTooCoarse):
            records = time_scan(ewl_state(p), ExponentialModel(gamma=1.0),
                                [0.0, 5.0])
        jumps = [e for e in scan_events(records) if e.kind is EventKind.SET_JUMP]
        assert len(jumps) == 2

    def test_bmax_consistency_invariant(self):
        p = EWLParams(alpha2=0.25, r=0.9, delta=0.3)
        records = time_scan(ewl_state(p), ExponentialModel(0.5),
                            np.linspace(0, 4, 50))
        for r in records:
            expected = 2.0 * math.sqrt(r.u.u1 + max(r.u.u2, r.u.u3))
            assert r.bmax == pytest.approx(expected, abs=1e-12)

    def test_delta_independence_of_bmax_not_of_phis(self):
        grid = np.linspace(0, 3, 40)
        rec0 = time_scan(ewl_state(EWLParams(0.3, 1.0, 0.0)),
                         ExponentialModel(1.0), grid)
        rec1 = time_scan(ewl_state(EWLParams(0.3, 1.0, math.pi / 2)),
                         ExponentialModel(1.0), grid)
        phi_differs = False
        for a, b in zip(rec0, rec1):
            assert a.bmax == pytest.approx(b.bmax, abs=1e-12)
            if any(abs(x - y) > 1e-6 for x, y in zip(a.settings.phis,
                                                     b.settings.phis)):
                phi_differs = True
        assert phi_differs

    def test_grid_validation(self, bell_x):
        model = ExponentialModel(1.0)
        with pytest.raises(ValueError):
            time_scan(bell_x, model, [0.5, 1.0])
        with pytest.raises(ValueError):
            time_scan(bell_x, model, [0.0, 1.0, 1.0])

    def test_lorentzian_revivals_cross_repeatedly(self):
        # strong coupling: |q|^2 revives, so the boundary is crossed > 2 times
        p = EWLParams(alpha2=0.3, r=1.0, delta=0.0)
        records = time_scan(ewl_state(p), LorentzianModel(lam=1.0, gamma0=20.0),
                            np.linspace(0.0, 6.0, 600))
        jumps = [e for e in scan_events(records) if e.kind is EventKind.SET_JUMP]
        assert len(jumps) > 2


# ---------------------------------------------------------------- references
# Scalar, probe-by-probe evaluations: the references for the array-valued
# q(t) and the one-pass time_scan.


def ref_q_exponential(t: float, gamma: float) -> complex:
    return complex(math.exp(-0.5 * gamma * t), 0.0)


def ref_q_lorentzian(t: float, lam: float, gamma0: float) -> complex:
    d = cmath.sqrt(complex(lam * lam - 2.0 * gamma0 * lam))
    z = 0.5 * d * t
    if z.real > 1.0 and lam * t > 1400.0:
        r = lam / d
        val = (0.5 * (1.0 + r) * cmath.exp(0.5 * (d - lam) * t)
               + 0.5 * (1.0 - r) * cmath.exp(-0.5 * (d + lam) * t))
    else:
        if abs(z) < 1e-6:
            sinhc = 1.0 + z * z / 6.0
        else:
            sinhc = cmath.sinh(z) / z
        val = cmath.exp(-0.5 * lam * t) * (cmath.cosh(z) + 0.5 * lam * t * sinhc)
    return complex(val.real, 0.0)


def ref_q_table(model: TabulatedModel, t: float) -> complex:
    i = bisect.bisect_right(model.times, t) - 1
    if i >= len(model.times) - 1:
        return model.values[-1]
    t0, t1 = model.times[i], model.times[i + 1]
    w = (t - t0) / (t1 - t0)
    return model.values[i] * (1.0 - w) + model.values[i + 1] * w


def reference_time_scan(x0: XState, model, t_grid):
    """time_scan as a per-probe scalar loop: every probe goes through
    model.q, evolve_x and x_state_eigenvalues on its own."""
    t_grid = [float(t) for t in t_grid]

    def eigs_at(t):
        return x_state_eigenvalues(evolve_x(x0, model.q(t)))

    def jump_fn(t):
        u = eigs_at(t)
        return u.u2 - u.u3

    def violation_fn(t):
        return eigs_at(t).bmax - 2.0

    records = []
    for i, t in enumerate(t_grid):
        q = model.q(t)
        settings_, u = optimal_settings(evolve_x(x0, q))
        events = []
        if i > 0:
            lo, hi = t_grid[i - 1], t
            probes = np.linspace(lo, hi, _PROBES_PER_INTERVAL + 2)
            for fn, kinds in (
                (jump_fn, None),
                (violation_fn, (EventKind.VIOLATION_ON, EventKind.VIOLATION_OFF)),
            ):
                signs = [_sign(fn(p)) for p in probes]
                crossings = [
                    (probes[j], probes[j + 1], signs[j])
                    for j in range(len(probes) - 1)
                    if signs[j] != signs[j + 1]
                ]
                if len(crossings) >= 2:
                    label = "u2-u3" if kinds is None else "bmax-2"
                    warnings.warn(GridTooCoarse(
                        f"{len(crossings)} sign changes of {label} inside grid "
                        f"interval [{lo!r}, {hi!r}]; endpoint signs alone would "
                        f"miss some of them"
                    ))
                for c_lo, c_hi, s_lo in crossings:
                    t_star = _bisect_event(fn, float(c_lo), float(c_hi))
                    if kinds is None:
                        kind = EventKind.SET_JUMP
                    else:
                        kind = kinds[0] if s_lo < 0 else kinds[1]
                    events.append(ScanEvent(kind, t_star,
                                            abs(model.q(t_star)) ** 2))
        events.sort(key=lambda e: e.t)
        records.append((t, abs(q) ** 2, u, u.bmax, u.region, settings_,
                        tuple(events)))
    return records


def _complex_table() -> TabulatedModel:
    # strong-coupling revivals with a rotating phase, so both parts vary
    times = np.linspace(0.0, 6.0, 121)
    values = [q_lorentzian(t, 1.0, 5.0) * cmath.exp(0.7j * t) for t in times]
    values[0] = 1.0
    return TabulatedModel(tuple(times.tolist()), tuple(values))


# ------------------------------------------------------------ array-valued q


def _q_cases():
    rng = np.random.default_rng(2024)

    def spread(hi, n=6000):
        # uniform times, tiny times (the small-z series) and t = 0
        return np.concatenate([rng.uniform(0.0, hi, n),
                               10.0 ** rng.uniform(-12.0, 0.0, 4000), [0.0]])

    table = _complex_table()
    table_times = np.concatenate([rng.uniform(0.0, 6.0, 10000), table.times])
    return [
        ("exp", ExponentialModel(0.8), spread(60.0),
         lambda t: ref_q_exponential(t, 0.8)),
        ("weak", LorentzianModel(1.0, 0.01), spread(400.0),
         lambda t: ref_q_lorentzian(t, 1.0, 0.01)),
        # lam t > 1400: the combined-exponent form, and the other side of it
        ("far", LorentzianModel(10.0, 0.1),
         np.concatenate([rng.uniform(100.0, 200.0, 10000), [140.0]]),
         lambda t: ref_q_lorentzian(t, 10.0, 0.1)),
        ("critical", LorentzianModel(1.0, 0.5), spread(30.0),
         lambda t: ref_q_lorentzian(t, 1.0, 0.5)),
        ("strong", LorentzianModel(1.0, 5.0), spread(30.0),
         lambda t: ref_q_lorentzian(t, 1.0, 5.0)),
        ("table", table, table_times, lambda t: ref_q_table(table, t)),
    ]


Q_CASES = _q_cases()


class TestArrayQ:
    @pytest.mark.parametrize("name,model,times,ref", Q_CASES,
                             ids=[c[0] for c in Q_CASES])
    def test_array_equals_scalar_bit_for_bit(self, name, model, times, ref):
        values = model.q(times)
        assert values.shape == times.shape and values.dtype == complex
        scalar = [model.q(t) for t in times.tolist()]
        assert all(type(v) is complex for v in scalar)
        assert values.tolist() == scalar
        # and both equal the scalar math/cmath evaluation they replaced
        assert scalar == [ref(t) for t in times.tolist()]

    def test_two_dimensional_times(self):
        model = LorentzianModel(1.0, 5.0)
        times = np.linspace(0.0, 3.0, 12).reshape(3, 4)
        assert model.q(times).tolist() == [[model.q(t) for t in row]
                                           for row in times.tolist()]

    @pytest.mark.parametrize("name,model,times,ref", Q_CASES,
                             ids=[c[0] for c in Q_CASES])
    def test_negative_time_raises_as_scalar(self, name, model, times, ref):
        with pytest.raises(ValueError) as scalar:
            model.q(-0.5)
        with pytest.raises(ValueError) as array:
            model.q(np.array([0.0, 1.0, -0.5]))
        assert str(array.value) == str(scalar.value) == "t must be >= 0"

    def test_beyond_table_raises_as_scalar(self):
        table = _complex_table()
        with pytest.raises(ValueError) as scalar:
            table.q(6.5)
        with pytest.raises(ValueError) as array:
            table.q(np.array([1.0, 6.5, 7.0]))
        assert str(array.value) == str(scalar.value)
        assert "t = 6.5 beyond the last tabulated sample 6.0" in str(scalar.value)


# ----------------------------------------------------- one-pass scan vs loop


def _scan_states():
    rng = np.random.default_rng(77)
    states = [ewl_state(EWLParams(float(rng.uniform()), float(rng.uniform()),
                                  float(rng.uniform(-math.pi, math.pi))))
              for _ in range(10)]
    states += [random_x_state(rng) for _ in range(10)]
    return states


SCAN_STATES = _scan_states()
SCAN_MODELS = [
    ("exp", ExponentialModel(1.3), 4.0),
    ("weak", LorentzianModel(5.0, 0.5), 8.0),
    ("strong", LorentzianModel(1.0, 5.0), 6.0),
    ("table", _complex_table(), 6.0),
]


def _both_scans(x0, model, grid):
    out = []
    for scan in (time_scan, reference_time_scan):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            records = scan(x0, model, grid)
        out.append((records, [(w.category, str(w.message)) for w in caught]))
    (new, new_warn), (ref, ref_warn) = out
    new = [(r.t, r.q2, r.u, r.bmax, r.active_set, r.settings, r.events)
           for r in new]
    return new, ref, new_warn, ref_warn


class TestScanMatchesScalarLoop:
    @pytest.mark.parametrize("name,model,tmax", SCAN_MODELS,
                             ids=[m[0] for m in SCAN_MODELS])
    def test_identical_records_events_and_warnings(self, name, model, tmax):
        grid = np.linspace(0.0, tmax, 45)
        n_events = 0
        for x0 in SCAN_STATES:
            new, ref, new_warn, ref_warn = _both_scans(x0, model, grid)
            assert new == ref
            assert new_warn == ref_warn
            n_events += sum(len(r[6]) for r in ref)
        assert n_events > 0

    def test_many_revivals_warn_identically(self):
        model = LorentzianModel(1.0, 20.0)
        grid = np.linspace(0.0, 6.0, 13)
        for x0 in SCAN_STATES[:4]:
            new, ref, new_warn, ref_warn = _both_scans(x0, model, grid)
            assert new == ref
            assert new_warn == ref_warn
            assert new_warn and all(c is GridTooCoarse for c, _ in new_warn)

    def test_array_eigenvalues_equal_scalar_bit_for_bit(self):
        rng = np.random.default_rng(5)
        n = 2000
        q = np.sqrt(rng.uniform(0.0, 1.0, n)) * np.exp(1j * rng.uniform(-4, 4, n))
        q[:3] = (1.0, 0.0, -1.0)
        for x0 in SCAN_STATES:
            arrays = _eigenvalues_along(x0, q)
            scalar = [x_state_eigenvalues(evolve_x(x0, v)) for v in q.tolist()]
            for k, name in enumerate(("u1", "u2", "u3")):
                assert arrays[k].tolist() == [getattr(u, name) for u in scalar]

    def test_uneven_grid(self):
        x0 = SCAN_STATES[1]
        grid = [0.0, 1e-3, 0.7, 2.0, 2.0 + 1e-12, 2.5, 3.9, 6.0]
        for _, model, _ in SCAN_MODELS:
            new, ref, new_warn, ref_warn = _both_scans(x0, model, grid)
            assert new == ref and new_warn == ref_warn

    def test_failing_probe_raises_the_scalar_error(self):
        # a table sample slightly above |q| = 1 + 1e-12 cannot be built, so
        # feed the evaluator directly: the scalar path names the first probe
        x0 = ewl_state(EWLParams(0.3, 1.0, 0.0))
        q = np.array([1.0, 0.5, 1.0 + 1e-9, 1.0 + 1e-6])
        with pytest.raises(ValueError, match=r"\|q\| must be <= 1, got 1.000000001"):
            _probe_signs(x0, q)
        with pytest.raises(StateValidationError, match="outer 2x2 block not PSD"):
            _probe_signs(x0, np.array([0.5, complex(math.nan, 0.0)]))


class TestExactTieStart:
    """The `scan-strong` golden case starts on an exact tie: at t = 0
    u2 - u3 = -1.1e-16, inside TIE_TOL, so Region reports SET1 while the
    event sign, taken from the raw u2 - u3, is already -1."""

    X0 = ewl_state(EWLParams(0.5, 0.8, 0.4))
    MODEL = LorentzianModel(1.0, 5.0)
    GRID = np.linspace(0.0, 6.0, 40)

    def test_array_signs_equal_scalar_signs_at_every_probe(self):
        probes = np.linspace(self.GRID[:-1], self.GRID[1:],
                             _PROBES_PER_INTERVAL + 2, axis=1)
        jump, violation = _probe_signs(self.X0, self.MODEL.q(probes))
        for (i, j), t in np.ndenumerate(probes):
            u = x_state_eigenvalues(evolve_x(self.X0, self.MODEL.q(float(t))))
            assert jump[i, j] == _sign(u.u2 - u.u3)
            assert violation[i, j] == _sign(u.bmax - 2.0)
        assert jump[0, 0] == -1.0

    def test_active_set_changes_without_a_set_jump(self):
        # Current semantics: the tie at t = 0 counts as SET1 for the active
        # set but as "u3 ahead" for events, so leaving it reports no SetJump.
        records = time_scan(self.X0, self.MODEL, self.GRID)
        u0 = records[0].u
        assert -1e-15 < u0.u2 - u0.u3 < 0.0 and u0.tie
        assert records[0].active_set is Region.SET1
        assert records[1].active_set is Region.SET2
        assert records[1].events == ()


# ------------------------------------------------------- non-finite inputs


class TestNonFiniteInputs:
    @pytest.mark.parametrize("build,message", [
        (lambda: ExponentialModel(math.nan), "gamma must be finite and > 0, got nan"),
        (lambda: ExponentialModel(math.inf), "gamma must be finite and > 0, got inf"),
        (lambda: LorentzianModel(math.nan, 1.0), "lam must be finite and > 0, got nan"),
        (lambda: LorentzianModel(1.0, math.inf), "gamma0 must be finite and > 0, got inf"),
        (lambda: q_exponential(1.0, math.nan), "gamma must be finite and > 0, got nan"),
        (lambda: q_lorentzian(1.0, 1.0, -math.inf), "gamma0 must be finite and > 0, got -inf"),
        (lambda: EWLParams(0.3, 1.0, math.nan), "delta must be finite, got nan"),
        (lambda: EWLParams(0.3, 1.0, -math.inf), "delta must be finite, got -inf"),
        (lambda: TabulatedModel((0.0, math.nan), (1.0, 0.5)), "sample 1 is not finite"),
        (lambda: TabulatedModel((0.0, 1.0), (1.0, complex(0.5, math.inf))),
         "sample 1 is not finite"),
        (lambda: TabulatedModel((0.0,), (1.0,)), "at least two samples"),
        (lambda: XState(math.nan, 0.5, 0.5, 0.0, 0.0, 0.0),
         "population 1 out of [0, 1]: nan"),
        (lambda: XState(0.0, 0.5, 0.5, 0.0, 0.0, complex(math.inf, 0.0)),
         "inner 2x2 block not PSD: rho22*rho33=2.500e-01 < |rho23|^2=inf"),
        (lambda: XState(0.5, 0.0, 0.0, 0.5, complex(0.0, math.nan), 0.0),
         "outer 2x2 block not PSD: rho11*rho44=2.500e-01 < |rho14|^2=nan"),
    ])
    def test_rejected_with_the_value(self, build, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            build()

    @pytest.mark.parametrize("row", ["nan,0.5,0", "1,nan,0", "1,0.5,inf"])
    def test_csv_table(self, tmp_path, row):
        path = tmp_path / "q.csv"
        path.write_text(f"t,q_re,q_im\n0,1,0\n{row}\n2,0.3,0\n")
        with pytest.raises(ValueError, match="sample 1 is not finite"):
            TabulatedModel.from_csv(path)

    def test_nan_time_rejected(self):
        with pytest.raises(ValueError, match="t must be >= 0"):
            ExponentialModel(1.0).q(math.nan)
        with pytest.raises(ValueError, match="t_grid must be finite"):
            time_scan(ewl_state(EWLParams(0.3, 1.0, 0.0)), ExponentialModel(1.0),
                      [0.0, 1.0, math.inf])

    def test_overflowing_lorentzian_raises(self):
        # d t / 2 overflows: cmath raised a domain error here, numpy gives NaN
        with pytest.raises(ValueError, match="q\\(t\\) is not finite at t = 1e\\+308"):
            LorentzianModel(1.0, 20.0).q(np.array([0.0, 1e308]))
