import ast
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from bellopt import (
    AngleSettings,
    BellSettings,
    BudgetExceeded,
    DensityMatrix4,
    ObservableDirection,
    OracleConfig,
    Region,
    Splitmix64,
    TSIRELSON,
    XState,
    bell_function,
    bmax_x,
    brute_force_bmax,
    certify_settings,
    horodecki_bmax,
    optimal_settings,
    pauli_correlation_matrix,
    settings_set2,
    x_to_dense,
)
from bellopt import oracle
from bellopt.oracle import (
    MAX_GRID_BYTES,
    _alice,
    _bell_values,
    _compass_search,
    _frame,
    _grid_bytes,
    _images,
    _norm2,
    _settings,
)
from conftest import random_density, random_x_state, werner

FAST_CFG = OracleConfig(grid_n=8, refine_iters=200, restarts=4, seed=2)


class TestSplitmix64:
    def test_reference_sequence_for_seed_zero(self):
        # published splitmix64 outputs for seed 0
        rng = Splitmix64(0)
        assert [rng.next_u64() for _ in range(3)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    def test_uniform_range_and_determinism(self):
        a = Splitmix64(123)
        b = Splitmix64(123)
        va = [a.uniform(-1.0, 1.0) for _ in range(100)]
        vb = [b.uniform(-1.0, 1.0) for _ in range(100)]
        assert va == vb
        assert all(-1.0 <= v < 1.0 for v in va)

    @pytest.mark.parametrize("seed", [0, 1, 2 ** 64 - 1])
    def test_bulk_draws_match_one_at_a_time(self, seed):
        lo = np.tile(np.repeat([0.0, -math.pi], 4), 5)
        hi = np.tile([math.pi, math.pi, 1.0, 2.5, 0.0, 1e-3, math.pi, 7.0], 5)
        bulk, single = Splitmix64(seed), Splitmix64(seed)
        for args, n in [((), 3), ((-0.3, 0.3), 17), ((lo, math.pi), 40),
                        ((lo, hi), 40), ((), 1), ((-1.0, 1.0), 0)]:
            got = bulk.uniforms(n, *args)
            lo_i = np.broadcast_to(args[0] if args else 0.0, n)
            hi_i = np.broadcast_to(args[1] if args else 1.0, n)
            want = [single.uniform(float(a), float(b)) for a, b in zip(lo_i, hi_i)]
            assert got.dtype == np.float64 and got.tolist() == want
        assert bulk.next_u64() == single.next_u64()


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            OracleConfig(grid_n=3)
        with pytest.raises(ValueError):
            OracleConfig(restarts=0)
        with pytest.raises(ValueError):
            OracleConfig(refine_iters=-1)

    def test_budget_guard(self, bell_rho, monkeypatch):
        restarts = OracleConfig().restarts
        n = 4
        while _grid_bytes(n, restarts) <= MAX_GRID_BYTES:
            n += 1
        assert _grid_bytes(n - 1, restarts) <= MAX_GRID_BYTES < _grid_bytes(n, restarts)

        def no_grid(t, grid_n):
            raise AssertionError("the rejected grid was evaluated")

        def no_draws(self, n, lo=0.0, hi=1.0):
            raise AssertionError("the rejected restarts were drawn")

        monkeypatch.setattr(oracle, "_coarse_grid_best", no_grid)
        monkeypatch.setattr(Splitmix64, "uniforms", no_draws)
        for cfg in (OracleConfig(grid_n=n), OracleConfig(restarts=10 ** 12)):
            need = _grid_bytes(cfg.grid_n, cfg.restarts)
            with pytest.raises(BudgetExceeded) as info:
                brute_force_bmax(bell_rho, cfg)
            assert str(info.value) == (f"oracle search needs {need} bytes "
                                       f"(limit {MAX_GRID_BYTES} bytes)")

    def test_budget_counts_what_the_search_holds(self):
        # a restart costs 2 draws and a place in a batch; grid points add up
        assert _grid_bytes(8, 2 * 10 ** 6) > _grid_bytes(8, 10 ** 6) > _grid_bytes(8, 16)
        assert _grid_bytes(100, 16) <= MAX_GRID_BYTES < _grid_bytes(3000, 16)


def _direct_bell(rho, row):
    thetas, phis = row[:4], row[4:]
    d = [ObservableDirection(th, ph) for th, ph in zip(thetas, phis)]
    return bell_function(rho, BellSettings(*d))


class TestBellValues:
    def test_rows_do_not_depend_on_batch(self):
        rng = np.random.default_rng(31)
        rho = random_density(rng)
        t = pauli_correlation_matrix(rho).t
        rows = np.hstack([rng.uniform(0.0, math.pi, (1000, 4)),
                          rng.uniform(-math.pi, math.pi, (1000, 4))])
        single = np.array([_bell_values(t, row) for row in rows])
        for n in (1, 16, 272, 1000):
            assert np.array_equal(_bell_values(t, rows[:n]), single[:n])
        assert np.array_equal(_bell_values(t, rows[:272].reshape(17, 16, 8)),
                              single[:272].reshape(17, 16))
        for row, value in zip(rows[:200], single):
            assert abs(value - _direct_bell(rho, row)) <= 1e-12


def _alice_value(t, row):
    """f(a, a') = |T(a + a')| + |T(a - a')| at Alice's 4 angles."""
    th, th2, ph, ph2 = row
    a = np.array([math.sin(th) * math.cos(ph), math.sin(th) * math.sin(ph), math.cos(th)])
    b = np.array([math.sin(th2) * math.cos(ph2), math.sin(th2) * math.sin(ph2),
                  math.cos(th2)])
    return float(np.linalg.norm(t @ (a + b)) + np.linalg.norm(t @ (a - b)))


def _random_alice(rng, n):
    return np.hstack([rng.uniform(0.0, math.pi, (n, 2)),
                      rng.uniform(-math.pi, math.pi, (n, 2))])


class TestAliceValues:
    def test_bob_directions_attain_the_bound(self):
        rng = np.random.default_rng(34)
        for rho in (random_density(rng), x_to_dense(random_x_state(rng)),
                    x_to_dense(werner(0.9))):
            t = pauli_correlation_matrix(rho).t
            for alice in _random_alice(rng, 50):
                f = _alice_value(t, alice)
                angles = _settings(t, alice)
                assert np.array_equal(angles[[0, 1, 4, 5]], alice)
                assert abs(_direct_bell(rho, angles) - f) <= 1e-12
                # no Bob directions do better (Cauchy-Schwarz)
                bob = _random_alice(rng, 200)
                others = np.repeat(angles[None, :], 200, axis=0)
                others[:, [2, 3, 6, 7]] = bob
                assert _bell_values(t, others).max() <= f + 1e-12

    def test_zero_vectors_get_a_fixed_direction(self, mixed_rho):
        t = pauli_correlation_matrix(mixed_rho).t
        angles = _settings(t, np.array([1.0, 2.0, -0.5, 0.5]))
        assert angles.tolist() == [1.0, 2.0, 0.0, 0.0, -0.5, 0.5, 0.0, 0.0]

    def test_alice_pair_attains_the_plane_bound(self, mixed_rho):
        # a, a' normal to n with f(a, a') = 2 sqrt(||T||_F^2 - |T n|^2),
        # the best any pair normal to n can do
        rng = np.random.default_rng(35)
        for rho in (random_density(rng), x_to_dense(random_x_state(rng)),
                    x_to_dense(werner(0.9))):
            t = pauli_correlation_matrix(rho).t
            for theta, phi in zip(rng.uniform(-1.0, 4.0, 50).tolist() + [0.0, math.pi],
                                  rng.uniform(-4.0, 4.0, 52).tolist()):
                n = np.array(_frame(theta, phi)[0])
                alice = _alice(t, theta, phi)
                bound = 2.0 * math.sqrt(np.sum(t * t) - np.sum((t @ n) ** 2))
                assert abs(_alice_value(t, alice) - bound) <= 1e-12
                for th, ph in alice.reshape(2, 2).T:
                    assert abs(np.dot(_frame(th, ph)[0], n)) <= 1e-12
                assert abs(_direct_bell(rho, _settings(t, alice)) - bound) <= 1e-12
        # T = 0: every pair is as good, and a = a' = e1 = n(theta + pi/2, phi)
        t = pauli_correlation_matrix(mixed_rho).t
        assert np.allclose(_alice(t, 1.0, 2.0), [1.0 + math.pi / 2] * 2 + [2.0] * 2,
                           rtol=0.0, atol=1e-15)


def _g(t, theta, phi, ui, uj):
    """g at the pattern point n + ui e1 + uj e2 around n(theta, phi), from
    one-element arrays."""
    frame = _frame(np.array([theta]), np.array([phi]))
    m = [a + ui * b + uj * c for a, b, c in zip(*frame)]
    return float(_norm2(_images(t, *m))[0] / (1.0 + ui * ui + uj * uj)), m


def _reference_search(t, start, step, max_iters):
    """One pattern search of |T n|^2, evaluating one pattern point at a
    time; the first of equal best points (theta offset outer) wins."""
    theta, phi = start.tolist()
    value, evals = _g(t, theta, phi, 0.0, 0.0)[0], 1
    rounding = 4.0 * np.finfo(float).eps * sum(v * v for v in t.ravel().tolist())
    for _ in range(max_iters):
        if step < 1e-8:
            break
        best = None
        for i in range(-4, 5):
            for j in range(-4, 5):
                v, m = _g(t, theta, phi, step * i, step * j)
                evals += 1
                if best is None or v < best[0]:
                    best = (v, i, j, m)
        top, i, j, m = best
        if (i, j) != (0, 0):
            x, y, z = (float(w[0]) for w in m)
            theta = float(np.arctan2(np.hypot([x], [y]), [z])[0])
            phi = float(np.arctan2([y], [x])[0])
        edge = abs(i) == 4 or abs(j) == 4
        step *= 0.25 if not edge or value - top <= rounding else 1.5
        value = top
    return value, np.array([theta, phi]), evals


class TestCompassBatch:
    @pytest.mark.parametrize("kind", ["werner", "ginibre", "x"])
    def test_batch_equals_one_start_calls(self, kind):
        rng = np.random.default_rng(32)
        rho = {"werner": lambda: x_to_dense(werner(0.9)),
               "ginibre": lambda: random_density(rng),
               "x": lambda: x_to_dense(random_x_state(rng))}[kind]()
        t = pauli_correlation_matrix(rho).t
        starts = np.column_stack([rng.uniform(0.0, math.pi, 6),
                                  rng.uniform(-math.pi, math.pi, 6)])
        starts[0] = [0.0, -0.0]  # the pole, as on the grid
        values, points, evals = _compass_search(t, starts, math.pi / 8, 120)
        if kind == "werner":
            # |T n|^2 is the same for every n: each poll gains only rounding
            # and zooms, so every start stops after 13 polls
            assert set(evals.tolist()) == {1 + 81 * 13}
        else:  # the starts leave the batch at different polls
            assert len(set(evals.tolist())) > 1
        for i, start in enumerate(starts):
            v1, p1, e1 = _compass_search(t, start[None, :], math.pi / 8, 120)
            ref = _reference_search(t, start, math.pi / 8, 120)
            assert v1[0] == values[i] == ref[0]
            assert np.array_equal(p1[0], points[i])
            assert np.array_equal(ref[1], points[i])
            assert e1[0] == evals[i] == ref[2]


def _golden_state(name):
    doc = json.loads((Path(__file__).parent / "golden" / "states" / f"{name}.json")
                     .read_text())
    return DensityMatrix4(np.array([[complex(*cell) for cell in row]
                                    for row in doc["rho"]]))


class TestBruteForce:
    def test_maximally_mixed(self, mixed_rho):
        res = brute_force_bmax(mixed_rho, FAST_CFG)
        assert res.bmax_est <= 1e-9

    def test_bell_state(self, bell_rho):
        res = brute_force_bmax(bell_rho, FAST_CFG)
        assert abs(res.bmax_est - TSIRELSON) <= 1e-4

    def test_random_x_states_match_closed_form(self):
        rng = np.random.default_rng(21)
        for _ in range(15):
            x = random_x_state(rng)
            analytic = bmax_x(x)
            res = brute_force_bmax(x_to_dense(x), FAST_CFG)
            assert res.bmax_est <= analytic + 1e-6
            if analytic >= 0.2:
                assert abs(res.bmax_est - analytic) <= 1e-4

    def test_never_exceeds_horodecki(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            rho = random_density(rng)
            res = brute_force_bmax(rho, FAST_CFG)
            assert res.bmax_est <= horodecki_bmax(rho) + 1e-6

    def test_deterministic_bit_for_bit(self, bell_rho):
        r1 = brute_force_bmax(bell_rho, FAST_CFG)
        r2 = brute_force_bmax(bell_rho, FAST_CFG)
        assert r1 == r2

    def test_restart_batches_do_not_change_the_result(self, monkeypatch):
        rho = random_density(np.random.default_rng(24))
        cfg = OracleConfig(grid_n=4, refine_iters=60, restarts=7, seed=3)
        whole = brute_force_bmax(rho, cfg)
        monkeypatch.setattr(oracle, "_COMPASS_BATCH", 3)
        assert brute_force_bmax(rho, cfg) == whole

    def test_counts_evaluations(self, bell_rho):
        # 4^2 grid directions, 1 per start, 81 per poll of each of the 3
        # starts (no step falls from pi/4 below 1e-8 in 3 polls)
        for refine in (0, 3):
            cfg = OracleConfig(grid_n=4, refine_iters=refine, restarts=2, seed=1)
            res = brute_force_bmax(bell_rho, cfg)
            assert res.evaluations == 4 ** 2 + 3 + 3 * 81 * refine

    def test_default_search_reaches_the_horodecki_value(self, monkeypatch):
        # every start stops on its step (not the poll cap) within 100 polls,
        # which a search stalled by rounding or crawling a valley would not
        polls = []

        def counted(*args):
            result = _compass_search(*args)
            polls.extend(((result[2] - 1) // 81).tolist())
            return result

        monkeypatch.setattr(oracle, "_compass_search", counted)
        rng = np.random.default_rng(36)
        states = [x_to_dense(random_x_state(rng)) for _ in range(300)]
        states += [random_density(rng) for _ in range(300)]
        states += [_golden_state(name) for name in ("tie", "u1zero", "purenonx", "mixed")]
        states += [x_to_dense(XState(0.36, 0.0, 0.0, 0.64, 0.48, 0.0)),  # pure X
                   x_to_dense(werner(0.5))]
        cfg = OracleConfig()
        for rho in states:
            res = brute_force_bmax(rho, cfg)
            assert abs(res.bmax_est - horodecki_bmax(rho)) <= 1e-12
        assert len(polls) == len(states) * (cfg.restarts + 1)
        assert max(polls) <= 100

    def test_value_is_the_bell_function_at_the_returned_angles(self, bell_rho,
                                                                mixed_rho):
        rng = np.random.default_rng(25)
        for rho in (bell_rho, mixed_rho, x_to_dense(werner(0.3)),
                    x_to_dense(random_x_state(rng)), random_density(rng)):
            res = brute_force_bmax(rho, FAST_CFG)
            t = pauli_correlation_matrix(rho).t
            angles = np.array(res.thetas + res.phis)
            assert res.bmax_est == float(_bell_values(t, angles))

    def test_independent_of_the_closed_forms(self):
        tree = ast.parse(Path(oracle.__file__).read_text())
        imported = {node.module for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom)}
        assert imported == {"__future__", "dataclasses", "states"}


def _sequential_certify(rho, s, cfg):
    """The certify walk proposing one move at a time."""
    t = pauli_correlation_matrix(rho).t
    current = np.array(s.thetas + s.phis)
    base = best = float(_bell_values(t, current))
    rng = Splitmix64(cfg.seed)
    for radius in (math.pi / 8.0, math.pi / 64.0):
        for _ in range(max(cfg.refine_iters, 64)):
            move = [rng.uniform(-radius, radius) for _ in range(8)]
            proposal = current + np.array(move)
            value = float(_bell_values(t, proposal))
            if value > best:
                best, current = value, proposal
    return best - base


class TestCertify:
    # 2500 spans three draws of _CERTIFY_DRAW moves, the last one partial
    @pytest.mark.parametrize("refine", [0, 64, 130, 500, 2500])
    def test_block_walk_equals_sequential_walk(self, refine):
        rng = np.random.default_rng(33)
        x = random_x_state(rng)
        rho = x_to_dense(x)
        zeros = AngleSettings(0, 0, 0, 0, 0, 0, 0, 0, set_id=Region.SET1)
        for s in (optimal_settings(x)[0], zeros):
            cfg = OracleConfig(refine_iters=refine, seed=11)
            assert certify_settings(rho, s, cfg) == _sequential_certify(rho, s, cfg)

    def test_memory_does_not_grow_with_refine(self):
        x = random_x_state(np.random.default_rng(33))
        s, _ = optimal_settings(x)
        rho = x_to_dense(x)
        tracemalloc.start()
        try:
            certify_settings(rho, s, OracleConfig(refine_iters=2 * 10 ** 5, seed=11))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20

    def test_optimal_settings_certify(self, bell_rho, bell_x):
        s = settings_set2(bell_x)
        assert certify_settings(bell_rho, s, OracleConfig(seed=5)) <= 1e-6

    def test_zero_angles_are_far_from_optimal(self, bell_rho):
        zeros = AngleSettings(0, 0, 0, 0, 0, 0, 0, 0, set_id=Region.SET1)
        assert certify_settings(bell_rho, zeros, OracleConfig(seed=5)) > 0.5

    def test_flat_landscape(self, mixed_rho):
        zeros = AngleSettings(0, 0, 0, 0, 0, 0, 0, 0, set_id=Region.SET1)
        assert certify_settings(mixed_rho, zeros, OracleConfig(seed=5)) <= 1e-9

    def test_certifies_active_set_of_random_states(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            x = random_x_state(rng)
            s, _ = optimal_settings(x)
            margin = certify_settings(x_to_dense(x), s, OracleConfig(seed=7))
            assert margin <= 1e-6
