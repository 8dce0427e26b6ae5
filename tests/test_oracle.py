import ast
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellopt import (
    AngleSettings,
    BellSettings,
    BudgetExceeded,
    DensityMatrix4,
    NotXStructured,
    OracleConfig,
    OracleResult,
    Region,
    Splitmix64,
    TSIRELSON,
    XState,
    as_x_state,
    bell_function,
    brute_force_bmax,
    certify_settings,
    horodecki_bmax,
    optimal_settings,
    pauli_correlation_matrix,
    settings_set2,
    x_state_eigenvalues,
    x_to_dense,
)
from bellopt import oracle
from bellopt.oracle import (
    MAX_GRID_BYTES,
    _alice,
    _bell_values,
    _circle_min,
    _compass_search,
    _frame,
    _gram,
    _grid_bytes,
    _settings,
)
from conftest import random_density, random_x_state, werner, x_states

FAST_CFG = OracleConfig(grid_n=8, refine_iters=200, restarts=4, seed=2)


class ScalarSplitmix64:
    """Scalar reference for Splitmix64.uniforms: one plain-integer draw at a
    time."""

    def __init__(self, seed: int):
        self.state = seed % 2 ** 64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) % 2 ** 64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2 ** 64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2 ** 64
        return z ^ (z >> 31)

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        # 53-bit mantissa in [0, 1)
        return lo + (hi - lo) * ((self.next_u64() >> 11) * (1.0 / (1 << 53)))


# published splitmix64 outputs for seed 0
SEED_ZERO_OUTPUTS = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


class TestSplitmix64:
    def test_reference_sequence_for_seed_zero(self):
        rng = ScalarSplitmix64(0)
        assert [rng.next_u64() for _ in range(3)] == SEED_ZERO_OUTPUTS
        assert Splitmix64(0).uniforms(3).tolist() == [
            (u >> 11) / 2.0 ** 53 for u in SEED_ZERO_OUTPUTS]

    def test_uniform_range_and_determinism(self):
        va = Splitmix64(123).uniforms(100, -1.0, 1.0)
        vb = Splitmix64(123).uniforms(100, -1.0, 1.0)
        assert va.tolist() == vb.tolist()
        assert ((-1.0 <= va) & (va < 1.0)).all()

    @pytest.mark.parametrize("seed", [0, 1, 2 ** 64 - 1])
    def test_bulk_draws_match_one_at_a_time(self, seed):
        lo = np.tile(np.repeat([0.0, -math.pi], 4), 5)
        hi = np.tile([math.pi, math.pi, 1.0, 2.5, 0.0, 1e-3, math.pi, 7.0], 5)
        bulk, single = Splitmix64(seed), ScalarSplitmix64(seed)
        for args, n in [((), 3), ((-0.3, 0.3), 17), ((lo, math.pi), 40),
                        ((lo, hi), 40), ((), 1), ((-1.0, 1.0), 0)]:
            got = bulk.uniforms(n, *args)
            lo_i = np.broadcast_to(args[0] if args else 0.0, n)
            hi_i = np.broadcast_to(args[1] if args else 1.0, n)
            want = [single.uniform(float(a), float(b)) for a, b in zip(lo_i, hi_i)]
            assert got.dtype == np.float64 and got.tolist() == want
        assert bulk.uniforms(1).tolist() == [single.uniform()]  # the states agree


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            OracleConfig(grid_n=3)
        with pytest.raises(ValueError):
            OracleConfig(restarts=0)
        with pytest.raises(ValueError):
            OracleConfig(refine_iters=-1)

    def test_result_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="bmax_est out of range: 3.0"):
            OracleResult(bmax_est=3.0, thetas=(0.0,) * 4, phis=(0.0,) * 4,
                         evaluations=1)
        for bmax in (-0.1, math.nan):
            with pytest.raises(ValueError, match=f"bmax_est out of range: {bmax!r}"):
                OracleResult(thetas=(0.0,) * 4, phis=(0.0,) * 4, bmax_est=bmax,
                             evaluations=1)

    def test_default_is_one_restart(self):
        # the grid's best point and one seeded start: |T n|^2 has no spurious minima
        assert OracleConfig().restarts == 1

    def test_budget_guard(self, bell_rho, monkeypatch):
        restarts = OracleConfig().restarts
        n = 4
        while _grid_bytes(n, restarts) <= MAX_GRID_BYTES:
            n += 1
        assert _grid_bytes(n - 1, restarts) <= MAX_GRID_BYTES < _grid_bytes(n, restarts)
        assert n - 1 == 2047  # README: "grid_n above 2047" exceeds the budget
        # at the default grid, one batch of every start fits up to 33 960 restarts
        assert _grid_bytes(8, 33960) <= MAX_GRID_BYTES < _grid_bytes(8, 33961)

        def no_grid(t, grid_n):
            raise AssertionError("the rejected grid was evaluated")

        def no_draws(self, n, lo=0.0, hi=1.0):
            raise AssertionError("the rejected restarts were drawn")

        monkeypatch.setattr(oracle, "_coarse_grid_best", no_grid)
        monkeypatch.setattr(Splitmix64, "uniforms", no_draws)
        for cfg, need in ((OracleConfig(grid_n=n), _grid_bytes(n, restarts)),
                          (OracleConfig(restarts=33961), 268439744),
                          (OracleConfig(restarts=10 ** 12), 7904000000012000)):
            with pytest.raises(BudgetExceeded) as info:
                brute_force_bmax(bell_rho, cfg)
            assert str(info.value) == (f"oracle search needs {need} bytes "
                                       f"(limit {MAX_GRID_BYTES} bytes)")

    def test_budget_counts_what_the_search_holds(self):
        # a restart costs 2 draws and its own 81 pattern points; grid points add up
        assert _grid_bytes(8, 2 * 10 ** 6) > _grid_bytes(8, 10 ** 6) > _grid_bytes(8, 16)
        assert _grid_bytes(100, 16) <= MAX_GRID_BYTES < _grid_bytes(3000, 16)

    @pytest.mark.parametrize("cfg", [OracleConfig(), OracleConfig(grid_n=60, restarts=300),
                                     OracleConfig(grid_n=300, restarts=4)],
                             ids=["default", "many-starts", "large-grid"])
    def test_budget_over_estimates_the_peak(self, cfg):
        # what the search holds at once, its compass buffers included, is
        # within the bytes the budget asks for
        rho = random_density(np.random.default_rng(37))
        tracemalloc.start()
        try:
            brute_force_bmax(rho, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= _grid_bytes(cfg.grid_n, cfg.restarts)


def _direct_bell(rho, row):
    return bell_function(rho, BellSettings(tuple(row[:4].tolist()), tuple(row[4:].tolist())))


class TestBellValues:
    def test_rows_do_not_depend_on_batch(self):
        rng = np.random.default_rng(31)
        rho = random_density(rng)
        t = pauli_correlation_matrix(rho)
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
            t = pauli_correlation_matrix(rho)
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
        t = pauli_correlation_matrix(mixed_rho)
        angles = _settings(t, np.array([1.0, 2.0, -0.5, 0.5]))
        assert angles.tolist() == [1.0, 2.0, 0.0, 0.0, -0.5, 0.5, 0.0, 0.0]

    def test_alice_pair_attains_the_plane_bound(self, mixed_rho):
        # a, a' normal to n with f(a, a') = 2 sqrt(||T||_F^2 - |T n|^2),
        # the best any pair normal to n can do
        rng = np.random.default_rng(35)
        for rho in (random_density(rng), x_to_dense(random_x_state(rng)),
                    x_to_dense(werner(0.9))):
            t = pauli_correlation_matrix(rho)
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
        t = pauli_correlation_matrix(mixed_rho)
        assert np.allclose(_alice(t, 1.0, 2.0), [1.0 + math.pi / 2] * 2 + [2.0] * 2,
                           rtol=0.0, atol=1e-15)


def _factor_buffer(rows):
    # _gram's factor buffer as _compass_search makes it: columns 6, 7 hold 1, 0
    e = np.full((rows, 9), np.nan)
    e[:, 6], e[:, 7] = 1.0, 0.0
    return e


def _stacked_gram(t, points, step):
    """_gram's f and G built another way, as the reference: `_frame`'s four
    strided trig calls, a column stack of the 9 entries, then h times e1, e2."""
    st, ct = np.sin(points[:, 0]), np.cos(points[:, 0])
    sp, cp = np.sin(points[:, 1]), np.cos(points[:, 1])
    n, e1, e2 = (st * cp, st * sp, ct), (ct * cp, ct * sp, -st), (-sp, cp, 0.0)
    f = np.column_stack([*n, *e1, *e2[:2], np.zeros(len(points))]).reshape(-1, 3, 3)
    f[:, 1:] *= step[:, None, None]
    w = np.einsum("pq,laq->lap", t, f)
    return f, np.einsum("lap,lbp->lab", w, w).reshape(-1, 9)


class TestGram:
    def test_gather_equals_the_column_stack(self):
        # f and G bit for bit (signed zeros included) in every batch size, at
        # the poles and at steps down to 1e-9, from a buffer a larger batch
        # has already filled; f is C-contiguous, so einsum sums as in the reference
        rng = np.random.default_rng(36)
        poles = [[0.0, 0.0], [0.0, -0.0], [math.pi, 0.0], [math.pi, -0.0],
                 [0.0, math.pi], [math.pi, -math.pi], [-0.0, 1.0]]
        points = np.vstack([poles, np.column_stack([rng.uniform(0.0, math.pi, 249),
                                                    rng.uniform(-math.pi, math.pi, 249)])])
        steps = np.concatenate([[math.pi / 8, 1e-8, 1e-9, 0.75],
                                10.0 ** rng.uniform(-9.0, 0.5, 252)])
        e = _factor_buffer(300)
        for rho in (random_density(rng), x_to_dense(random_x_state(rng)), x_to_dense(werner(0.9))):
            t = pauli_correlation_matrix(rho)
            for batch in (256, 17, 1):
                for i in range(0, len(points), batch):
                    p, h = points[i:i + batch], steps[i:i + batch]
                    f, g = _gram(t, p, h, e)
                    ref_f, ref_g = _stacked_gram(t, p, h)
                    assert f.flags.c_contiguous and f.shape == ref_f.shape
                    assert f.tobytes() == ref_f.tobytes()
                    assert g.tobytes() == ref_g.tobytes()


def _g(t, theta, phi, step, i, j):
    """g at the pattern point m = n + i h e1 + j h e2 around n(theta, phi)
    with h = step, as c^T G c for c = (1, i, j) and the start's Gram
    matrix G, summed one term at a time; and the components of m."""
    f, g = _gram(t, np.array([[theta, phi]]), np.array([step]), _factor_buffer(1))
    f, g, c = f[0].tolist(), g[0].tolist(), (1.0, float(i), float(j))
    value = 0.0
    for a in range(3):
        for b in range(3):
            value += g[3 * a + b] * (c[a] * c[b])
    m = [f[0][p] + i * f[1][p] + j * f[2][p] for p in range(3)]
    return value / (1.0 + step * step * (i * i + j * j)), m


def _reference_search(t, start, step, max_iters):
    """One pattern search of |T n|^2, evaluating one pattern point at a
    time; the first of equal best points (theta offset outer) wins."""
    theta, phi = start.tolist()
    value, evals = _g(t, theta, phi, step, 0, 0)[0], 1
    rounding = 4.0 * np.finfo(float).eps * sum(v * v for v in t.ravel().tolist())
    for _ in range(max_iters):
        if step < 1e-8:
            break
        best = None
        for i in range(-4, 5):
            for j in range(-4, 5):
                v, m = _g(t, theta, phi, step, i, j)
                evals += 1
                if best is None or v < best[0]:
                    best = (v, i, j, m)
        top, i, j, m = best
        if (i, j) != (0, 0):
            x, y, z = m
            theta = float(np.arctan2(np.hypot([x], [y]), [z])[0])
            phi = float(np.arctan2([y], [x])[0])
        edge = abs(i) == 4 or abs(j) == 4
        step *= 0.25 if not edge or value - top <= rounding else 1.5
        value = top
    return value, np.array([theta, phi]), evals


class TestCompassBatch:
    @pytest.mark.parametrize("kind", ["werner", "ginibre", "x"])
    def test_batch_equals_one_start_calls(self, kind):
        # each row of a batch, whatever its size, equals the one-start search
        # and the one-point-at-a-time reference, bit for bit
        rng = np.random.default_rng(32)
        rho = {"werner": lambda: x_to_dense(werner(0.9)),
               "ginibre": lambda: random_density(rng),
               "x": lambda: x_to_dense(random_x_state(rng))}[kind]()
        t = pauli_correlation_matrix(rho)
        starts = np.column_stack([rng.uniform(0.0, math.pi, 40),
                                  rng.uniform(-math.pi, math.pi, 40)])
        starts[:3] = [[0.0, -0.0], [0.0, 1.0], [math.pi, -2.5]]  # the poles
        singles = [_compass_search(t, start[None, :], math.pi / 8, 120)
                   for start in starts]
        for i, start in enumerate(starts):
            ref = _reference_search(t, start, math.pi / 8, 120)
            assert singles[i][0][0] == ref[0]
            assert np.array_equal(singles[i][1][0], ref[1])
            assert singles[i][2][0] == ref[2]
        for batch in (1, 17, 256):
            parts = [_compass_search(t, starts[i:i + batch], math.pi / 8, 120)
                     for i in range(0, len(starts), batch)]
            values, points, evals = (np.concatenate(p) for p in zip(*parts))
            assert values.tolist() == [s[0][0] for s in singles]
            assert np.array_equal(points, np.vstack([s[1] for s in singles]))
            assert evals.tolist() == [s[2][0] for s in singles]
        if kind == "werner":
            # |T n|^2 is the same for every n: each poll gains only rounding
            # and zooms, so every start stops after 13 polls
            assert set(evals.tolist()) == {1 + 81 * 13}
        else:  # the starts leave the batch at different polls
            assert len(set(evals.tolist())) > 1


def _golden_state(name):
    doc = json.loads((Path(__file__).parent / "golden" / "states" / f"{name}.json")
                     .read_text())
    return DensityMatrix4(np.array([[complex(*cell) for cell in row]
                                    for row in doc["rho"]]))


# u2 = 0.00764 just above u3 = 0.00652: n = z, the grid's best point, is a
# saddle of |T n|^2 whose descent directions lie within 2.5 degrees of one
# line, between the pattern's, so the compass search stops on it
NEAR_TIE = XState(0.2718523331414992, 0.2281476668585008, 0.2281476668585008,
                  0.2718523331414992, complex(-0.1310743444873232, 0.16317921794793575),
                  complex(-0.15779604585477208, -0.060306084520516084))


def rotated(x: XState, seed: int) -> DensityMatrix4:
    """x under local unitaries U (x) V drawn from the seed: T's singular
    values stay, its singular directions leave the axes and the grid."""
    rng = np.random.default_rng(seed)
    u, v = (np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
            for _ in range(2))
    k = np.kron(u, v)
    m = k @ np.array(x_to_dense(x).rows) @ k.conj().T
    return DensityMatrix4((m + m.conj().T) / 2.0)


@st.composite
def tie_states(draw):
    """X states whose T has two equal least singular values, u2 = u3 <= u1,
    or nearly equal ones: rho11 = rho44 = (1 + g) / 4 with the gap g =
    2(|rho14| - |rho23|)(1 + eps), so that for eps = 0 the minima of |T n|^2
    form a circle.  Werner states (a sphere of minima) are drawn too."""
    if draw(st.booleans()):
        return werner(draw(st.floats(0.0, 1.0)))
    total = draw(st.floats(0.0, 0.4))  # |rho14| + |rho23| <= 0.4 keeps both blocks PSD
    m14 = total * draw(st.floats(0.5, 1.0))
    m23 = total - m14
    eps = draw(st.one_of(st.just(0.0), st.floats(-0.2, 0.2)))
    outer = 0.25 * (1.0 + 2.0 * (m14 - m23) * (1.0 + eps))
    mu, nu = (draw(st.floats(-math.pi, math.pi)) for _ in range(2))
    return XState(outer, 0.5 - outer, 0.5 - outer, outer, m14 * np.exp(1j * mu),
                  m23 * np.exp(1j * nu))


class TestCircle:
    def test_least_value_on_the_circle(self):
        # against 20 000 directions spread over the circle through p and q
        rng = np.random.default_rng(41)
        psi = np.linspace(0.0, math.pi, 20000, endpoint=False)
        for rho in [random_density(rng) for _ in range(20)] + [x_to_dense(NEAR_TIE)]:
            t = pauli_correlation_matrix(rho)
            _, p, q = _frame(rng.uniform(0.0, math.pi), rng.uniform(-math.pi, math.pi))
            value, m, along = _circle_min(t, p, q)
            p, q, m, along = (np.array(v, dtype=float) for v in (p, q, m, along))
            assert np.linalg.det([p, q, m]) == pytest.approx(0.0, abs=1e-12)  # on the circle
            assert m @ m == pytest.approx(1.0) and along @ along == pytest.approx(1.0)
            assert abs(m @ along) <= 1e-12
            assert np.linalg.det([p, q, along]) == pytest.approx(0.0, abs=1e-12)
            assert value == pytest.approx(float(np.sum((t @ m) ** 2)), rel=1e-12, abs=1e-15)
            dense = t @ (np.cos(psi) * p[:, None] + np.sin(psi) * q[:, None])
            assert value <= np.min(np.sum(dense * dense, axis=0)) + 1e-15

    def test_sphere_and_zero(self, bell_rho, mixed_rho):
        # every direction is as good: the value is the sphere's
        _, p, q = _frame(0.3, 1.1)
        for rho, g in ((bell_rho, 1.0), (mixed_rho, 0.0)):
            value, _, _ = _circle_min(pauli_correlation_matrix(rho), p, q)
            assert value == pytest.approx(g, abs=1e-15)


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
            analytic = x_state_eigenvalues(x).bmax
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

    def test_counts_evaluations(self, bell_rho):
        # 4^2 grid directions, 1 per start, 81 per poll of each of the 3
        # starts (no step falls from pi/4 below 1e-8 in 3 polls), 62 on each of 3 circles
        for refine in (0, 3):
            cfg = OracleConfig(grid_n=4, refine_iters=refine, restarts=2, seed=1)
            res = brute_force_bmax(bell_rho, cfg)
            assert res.evaluations == 4 ** 2 + 3 + 3 * 81 * refine + 3 * 62

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

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(
        x_states().map(x_to_dense),
        st.integers(0, 2 ** 32 - 1).map(lambda k: random_density(np.random.default_rng(k))),
        tie_states().map(x_to_dense),
        st.builds(rotated, tie_states(), st.integers(0, 2 ** 32 - 1)),
        st.just(DensityMatrix4(np.eye(4, dtype=complex) / 4.0))))  # T = 0
    @example(_golden_state("tie"))
    @example(x_to_dense(NEAR_TIE))
    @example(x_to_dense(XState(0.24356875654017626, 0.235708140380459, 0.2843076115452857,
                               0.23641549153407895, complex(0.019362118351313965, 0.0),
                               complex(-0.0206920104887006, -0.033433310948075674))))
    def test_one_restart_is_enough(self, rho):
        # |T n|^2 is a Rayleigh quotient on the sphere: every local minimum is
        # global, and the circles leave a saddle or a flat valley where the
        # pattern search stopped, so 15 more starts find no larger value
        one = brute_force_bmax(rho, OracleConfig(restarts=1)).bmax_est
        many = brute_force_bmax(rho, OracleConfig(restarts=16)).bmax_est
        exact = horodecki_bmax(rho)
        assert abs(one - many) <= 1e-8
        assert abs(one - exact) <= 1e-8 and abs(many - exact) <= 1e-8

    def test_a_search_stopped_at_a_saddle_leaves_it(self):
        rho, u = x_to_dense(NEAR_TIE), x_state_eigenvalues(NEAR_TIE)
        t, cfg = pauli_correlation_matrix(rho), OracleConfig()
        start = oracle._coarse_grid_best(t, cfg.grid_n)
        assert start[0] == 0.0  # the pole: n = z is T^T T's middle eigenvector
        values, points, _ = _compass_search(t, start[None], math.pi / cfg.grid_n,
                                            cfg.refine_iters)
        assert points.tolist() == [start.tolist()]  # no poll moved it
        assert values[0] == pytest.approx(u.u2, rel=1e-12)
        # the normal circle holds the least direction
        _, e1, e2 = _frame(*start.tolist())
        assert _circle_min(t, e1, e2)[0] == pytest.approx(u.u3, rel=1e-12)
        res = brute_force_bmax(rho, cfg)
        assert abs(res.bmax_est - u.bmax) <= 1e-12

    def test_a_search_crawling_a_flat_valley_is_finished(self):
        # u2 = 0.159968 just below u3 = 0.16, off the axes: both starts spend
        # all 500 polls crawling the valley of near-minima, 6.4e-7 above u2
        gap = 0.4 * (1.0 - 1e-4)
        x = XState(0.25 * (1.0 + gap), 0.25 * (1.0 - gap), 0.25 * (1.0 - gap),
                   0.25 * (1.0 + gap), 0.3, 0.1)
        rho, u = rotated(x, 19), x_state_eigenvalues(x)
        t, cfg = pauli_correlation_matrix(rho), OracleConfig()
        polls = []

        def counted(*args):
            result = _compass_search(*args)
            polls.extend(((result[2] - 1) // 81).tolist())
            assert result[0].min() - u.u2 > 1e-7
            return result

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(oracle, "_compass_search", counted)
            res = brute_force_bmax(rho, cfg)
        assert polls == [500, 500]
        assert abs(res.bmax_est - u.bmax) <= 1e-12

    def test_value_is_the_bell_function_at_the_returned_angles(self, bell_rho,
                                                                mixed_rho):
        rng = np.random.default_rng(25)
        for rho in (bell_rho, mixed_rho, x_to_dense(werner(0.3)),
                    x_to_dense(random_x_state(rng)), random_density(rng)):
            res = brute_force_bmax(rho, FAST_CFG)
            t = pauli_correlation_matrix(rho)
            angles = np.array(res.thetas + res.phis)
            assert res.bmax_est == float(_bell_values(t, angles))

    def test_independent_of_the_closed_forms(self):
        tree = ast.parse(Path(oracle.__file__).read_text())
        imported = {node.module for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom)}
        assert imported == {"__future__", "dataclasses", "states"}


def _sequential_certify(rho, s, cfg, accepted=None):
    """The certify walk proposing one move at a time; each accepted move's
    (stage, step) is appended to `accepted` when it is given."""
    t = pauli_correlation_matrix(rho)
    current = np.array(s.thetas + s.phis)
    base = best = float(_bell_values(t, current))
    rng = ScalarSplitmix64(cfg.seed)
    for stage, radius in enumerate((math.pi / 8.0, math.pi / 64.0)):
        for step in range(max(cfg.refine_iters, 64)):
            move = [rng.uniform(-radius, radius) for _ in range(8)]
            proposal = current + np.array(move)
            value = float(_bell_values(t, proposal))
            if value > best:
                best, current = value, proposal
                if accepted is not None:
                    accepted.append((stage, step))
    return best - base


class TestCertify:
    # per stage of _CERTIFY_BLOCK-move blocks (the first block also holds the
    # base value): 1023 and 1024 are one block, 1025 and 2049 end in a block
    # of one move, 2500 spans three blocks, the last one partial
    @pytest.mark.parametrize("refine", [0, 64, 130, 500, 1023, 1024, 1025, 2049, 2500])
    def test_block_walk_equals_sequential_walk(self, monkeypatch, refine):
        rng = np.random.default_rng(33)
        x = random_x_state(rng)
        rho = x_to_dense(x)
        zeros = AngleSettings((0, 0, 0, 0), (0, 0, 0, 0), set_id=Region.SET1)
        # after an accepted move: windows of one move, of a few, and the default
        for window in (1, 5, oracle._CERTIFY_WINDOW):
            monkeypatch.setattr(oracle, "_CERTIFY_WINDOW", window)
            for s in (optimal_settings(x)[0], zeros):
                cfg = OracleConfig(refine_iters=refine, seed=11)
                assert certify_settings(rho, s, cfg) == _sequential_certify(rho, s, cfg)

    @staticmethod
    def _count_evaluations(monkeypatch) -> list:
        """The row count of every `_bell_values` call certify_settings makes."""
        calls = []

        def counted(t, angles):
            calls.append(len(angles))
            return _bell_values(t, angles)

        monkeypatch.setattr(oracle, "_bell_values", counted)
        return calls

    def test_optimal_settings_take_two_evaluations_at_the_defaults(self, monkeypatch):
        calls = self._count_evaluations(monkeypatch)
        x = random_x_state(np.random.default_rng(33))
        assert certify_settings(x_to_dense(x), optimal_settings(x)[0], OracleConfig()) <= 1e-6
        assert calls == [501, 500]  # the base value and 500 moves, then 500 moves

    @pytest.mark.parametrize("refine", [500, 1025, 2500])
    def test_one_evaluation_per_block_and_accepted_move(self, monkeypatch, refine):
        # a block is evaluated whole; after an accepted move, the moves left
        # in it are evaluated a window at a time up to the next accepted move
        calls = self._count_evaluations(monkeypatch)
        x = random_x_state(np.random.default_rng(33))
        zeros = BellSettings((0.0,) * 4, (0.0,) * 4)
        cfg = OracleConfig(refine_iters=refine)
        block, window = oracle._CERTIFY_BLOCK, oracle._CERTIFY_WINDOW
        for s in (optimal_settings(x)[0], zeros):
            accepted = []
            _sequential_certify(x_to_dense(x), s, cfg, accepted)
            expected = []
            for stage in (0, 1):
                moved = {k for st, k in accepted if st == stage}
                for start in range(0, refine, block):
                    end = min(start + block, refine)
                    k, size, base = start, end - start, stage == 0 and start == 0
                    while k < end:  # base: the first call also holds the base value
                        stop = min(k + size, end)
                        expected.append(stop - k + base)
                        hits, base = [j for j in range(k, stop) if j in moved], False
                        if hits:
                            k, size = hits[0] + 1, window
                        else:
                            k = stop
            calls.clear()
            certify_settings(x_to_dense(x), s, cfg)
            assert calls == expected
        assert len(accepted) > 5  # zero settings: the walk moves

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
        zeros = AngleSettings((0, 0, 0, 0), (0, 0, 0, 0), set_id=Region.SET1)
        assert certify_settings(bell_rho, zeros, OracleConfig(seed=5)) > 0.5

    def test_flat_landscape(self, mixed_rho):
        zeros = AngleSettings((0, 0, 0, 0), (0, 0, 0, 0), set_id=Region.SET1)
        assert certify_settings(mixed_rho, zeros, OracleConfig(seed=5)) <= 1e-9

    def test_certifies_active_set_of_random_states(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            x = random_x_state(rng)
            s, _ = optimal_settings(x)
            margin = certify_settings(x_to_dense(x), s, OracleConfig(seed=7))
            assert margin <= 1e-6

    def test_oracle_result_certifies_like_its_angle_settings(self):
        # certify_settings takes the OracleResult itself: the same margin, bit
        # for bit, as the AngleSettings built from its (canonical) angles
        rng = np.random.default_rng(41)
        cfg = OracleConfig(grid_n=4, refine_iters=0, restarts=1, seed=3)

        def local_unitary():
            q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            return q

        for i in range(210):  # 210 non-X states, 70 of each kind
            if i % 3 == 0:
                rho = random_density(rng)
            elif i % 3 == 1:  # rank 2
                g = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
                rho = DensityMatrix4(g @ g.conj().T / np.trace(g @ g.conj().T))
            else:  # diagonal in a random product basis
                u = np.kron(local_unitary(), local_unitary())
                rho = DensityMatrix4(u @ np.diag(rng.dirichlet(np.ones(4))) @ u.conj().T)
            with pytest.raises(NotXStructured):
                as_x_state(rho)
            result = brute_force_bmax(rho, cfg)
            settings = AngleSettings(result.thetas, result.phis, Region.SET1)
            assert certify_settings(rho, result, cfg) == certify_settings(rho, settings, cfg)
