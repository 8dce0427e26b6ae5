"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
complete.  Every tolerance is asserted exactly as stated; runtimes are
enforced with `time.perf_counter`.
"""

import json
import math
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from bellopt import (
    EWLParams,
    EventKind,
    ExponentialModel,
    OracleConfig,
    TSIRELSON,
    XState,
    apply_amplitude_damping,
    bell_function,
    bmax_x,
    brute_force_bmax,
    crossing_roots,
    evolve_x,
    ewl_state,
    horodecki_bmax,
    horodecki_eigenvalues,
    optimal_settings,
    scan_events,
    settings_distance,
    settings_set1,
    settings_set2,
    time_scan,
    trajectory_coefficients,
    x_state_eigenvalues,
    x_to_dense,
)
from bellopt.cli import main
from conftest import random_density, random_x_state, werner


@contextmanager
def criterion(num: int, description: str, limit_s: float):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:2d} FAIL  {description}")
        raise
    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE {num:2d} PASS  {description}  "
          f"[{elapsed:.2f}s / limit {limit_s:g}s]")
    assert elapsed < limit_s, f"runtime {elapsed:.2f}s exceeds {limit_s}s"


def bell_density_file(tmp_path):
    m = np.zeros((4, 4), dtype=complex)
    m[1, 1] = m[2, 2] = m[1, 2] = m[2, 1] = 0.5
    doc = {"rho": [[[z.real, z.imag] for z in row] for row in m]}
    path = tmp_path / "bell.json"
    path.write_text(json.dumps(doc))
    return path


def test_criterion_1_bell_state_exactness(tmp_path):
    with criterion(1, "Bell state: bmax = 2*sqrt(2) and both angle sets reach it", 1.0):
        out = tmp_path / "bmax.json"
        code = main(["bmax", "--input", str(bell_density_file(tmp_path)),
                     "--format", "json", "--output", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert abs(doc["bmax"] - TSIRELSON) <= 1e-12

        bell = XState(0.0, 0.5, 0.5, 0.0, 0.0, 0.5)
        rho = x_to_dense(bell)
        assert abs(bmax_x(bell) - TSIRELSON) <= 1e-12
        b1 = bell_function(rho, settings_set1(bell).bell_settings())
        b2 = bell_function(rho, settings_set2(bell).bell_settings())
        assert abs(b1 - TSIRELSON) <= 1e-10
        assert abs(b2 - TSIRELSON) <= 1e-10


def test_criterion_2_werner_threshold():
    with criterion(2, "Werner: bmax = 2*sqrt(2)*r, verdict flips at 1/sqrt(2)", 1.0):
        for k in range(1, 11):
            r = 0.1 * k
            assert abs(bmax_x(werner(r)) - TSIRELSON * r) <= 1e-12
        lo, hi = 0.5, 1.0  # verdict is False at 0.5, True at 1.0
        assert bmax_x(werner(lo)) <= 2.0 < bmax_x(werner(hi))
        while hi - lo > 1e-9:
            mid = 0.5 * (lo + hi)
            if bmax_x(werner(mid)) > 2.0:
                hi = mid
            else:
                lo = mid
        assert abs(0.5 * (lo + hi) - 1.0 / math.sqrt(2.0)) <= 1e-9


def test_criterion_3_pure_state_formula():
    with criterion(3, "pure alpha|01> + beta|10>: bmax = 2*sqrt(1 + 4 a^2 b^2)", 1.0):
        rng = np.random.default_rng(303)
        for _ in range(100):
            alpha2 = rng.uniform(1e-6, 1.0 - 1e-6)
            beta2 = 1.0 - alpha2
            x = XState(0.0, beta2, alpha2, 0.0, 0.0, math.sqrt(alpha2 * beta2))
            expected = 2.0 * math.sqrt(1.0 + 4.0 * alpha2 * beta2)
            assert abs(bmax_x(x) - expected) <= 1e-12


def test_criterion_4_angle_certification():
    with criterion(4, "10^4 random X states: optimal settings and Horodecki "
                      "agree with the closed form to 1e-10", 30.0):
        rng = np.random.default_rng(404)
        for _ in range(10_000):
            x = random_x_state(rng)
            analytic = bmax_x(x)
            rho = x_to_dense(x)
            settings, _ = optimal_settings(x)
            certified = bell_function(rho, settings.bell_settings())
            assert abs(certified - analytic) <= 1e-10
            assert abs(horodecki_bmax(rho) - analytic) <= 1e-10


def test_criterion_5_oracle_soundness_completeness():
    with criterion(5, "oracle within 1e-4 of the closed form on 100 states, "
                      "never above it by more than 1e-6", 300.0):
        cfg = OracleConfig(grid_n=8, refine_iters=500, restarts=16, seed=505)
        rng = np.random.default_rng(505)
        checked = 0
        while checked < 100:
            x = random_x_state(rng)
            analytic = bmax_x(x)
            if analytic < 0.2:
                continue
            checked += 1
            result = brute_force_bmax(x_to_dense(x), cfg)
            assert result.bmax_est <= analytic + 1e-6
            assert abs(result.bmax_est - analytic) <= 1e-4


def test_criterion_6_trajectory_eigenvalue_identity():
    with criterion(6, "closed-form trajectory eigenvalues match the evolved "
                      "channel on a 20^3 grid to 1e-12", 10.0):
        for alpha2 in np.linspace(0.0, 1.0, 20):
            for r in np.linspace(0.0, 1.0, 20):
                x0 = ewl_state(EWLParams(alpha2, r, 0.7))
                k1, k3, b, a = trajectory_coefficients(x0)
                for x in np.linspace(0.0, 1.0, 20):
                    closed = ((k1 * x) ** 2, (1.0 + b * x + a * x * x) ** 2,
                              (k3 * x) ** 2)
                    chained = x_state_eigenvalues(evolve_x(x0, math.sqrt(x)))
                    assert abs(closed[0] - chained.u1) <= 1e-12
                    assert abs(closed[1] - chained.u2) <= 1e-12
                    assert abs(closed[2] - chained.u3) <= 1e-12
                    # the dense Kraus channel, with the eigenvalues of T^T T
                    dense = horodecki_eigenvalues(
                        apply_amplitude_damping(x_to_dense(x0), math.sqrt(x)))
                    assert np.abs(np.sort(closed)[::-1] - dense).max() <= 1e-12


def test_criterion_7_jump_phenomenon():
    with criterion(7, "settings jump twice along the damped trajectory, with "
                      "a window where only set 2 violates", 10.0):
        p = EWLParams(alpha2=0.3, r=1.0, delta=0.0)
        x0 = ewl_state(p)
        gamma = 1.0

        # independent bisection oracle on u2 - u3 of the evolved state
        def balance(x):
            u = x_state_eigenvalues(evolve_x(x0, math.sqrt(x)))
            return u.u2 - u.u3

        oracle_roots = []
        xs = np.linspace(1e-9, 1.0, 4001)
        for a, b in zip(xs, xs[1:]):
            if (balance(a) >= 0) == (balance(b) >= 0):
                continue
            lo, hi = a, b
            for _ in range(100):
                mid = 0.5 * (lo + hi)
                if (balance(lo) >= 0) == (balance(mid) >= 0):
                    lo = mid
                else:
                    hi = mid
            oracle_roots.append(0.5 * (lo + hi))
        roots = crossing_roots(p)
        assert len(oracle_roots) == len(roots) == 2
        assert roots == pytest.approx(oracle_roots, abs=1e-10)

        records = time_scan(x0, ExponentialModel(gamma),
                            np.linspace(0.0, 5.0, 500))
        events = scan_events(x0, ExponentialModel(gamma), 5.0)
        jumps = sorted((e for e in events if e.kind is EventKind.SET_JUMP),
                       key=lambda e: e.q2)
        assert len(jumps) == 2
        for jump, root in zip(jumps, roots):
            assert abs(jump.q2 - root) <= 1e-8

        # finite settings jump across each crossing
        for root in roots:
            state = evolve_x(x0, math.sqrt(root))
            assert settings_distance(settings_set1(state),
                                     settings_set2(state)) > 0.1

        # violation window: starts violating at t = 0, single Off crossing
        violations = [e for e in events
                      if e.kind in (EventKind.VIOLATION_ON, EventKind.VIOLATION_OFF)]
        assert [e.kind for e in violations] == [EventKind.VIOLATION_OFF]
        assert records[0].u.bmax > 2.0
        for e in violations:
            u_evt = x_state_eigenvalues(evolve_x(x0, math.sqrt(e.q2)))
            assert abs(u_evt.bmax - 2.0) <= 1e-8
        x_off = violations[0].q2

        # the sub-window where only B2 = 2*sqrt(u1+u3) exceeds 2:
        # above x_off (B2 > 2) but below the point where B1 = 2
        def branch1(x):
            u = x_state_eigenvalues(evolve_x(x0, math.sqrt(x)))
            return 2.0 * math.sqrt(u.u1 + u.u2) - 2.0

        lo, hi = x_off, max(r for r in roots)
        assert branch1(lo) < 0 < branch1(hi)
        while hi - lo > 1e-12:
            mid = 0.5 * (lo + hi)
            if branch1(mid) < 0:
                lo = mid
            else:
                hi = mid
        x_b1 = 0.5 * (lo + hi)
        assert x_b1 > x_off
        for x_probe in np.linspace(x_off + 1e-6, x_b1 - 1e-6, 7):
            state = evolve_x(x0, math.sqrt(x_probe))
            rho = x_to_dense(state)
            b_set1 = bell_function(rho, settings_set1(state).bell_settings())
            b_set2 = bell_function(rho, settings_set2(state).bell_settings())
            assert b_set1 <= 2.0
            assert b_set2 > 2.0


def test_criterion_8_surface_reproduction(tmp_path):
    with criterion(8, "50x50 crossing surface: every root sits on u2 = u3; "
                      "(0.5, 1) gives the algebraic pair (1/3, 1)", 10.0):
        out = tmp_path / "surface.csv"
        assert main(["surface", "--grid", "50,50", "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "alpha2,r,x_root1,x_root2"
        reported = 0
        for line in lines[2:]:
            alpha2_s, r_s, root1_s, root2_s = line.split(",")
            p = EWLParams(float(alpha2_s), float(r_s))
            roots = crossing_roots(p)
            printed = [s for s in (root1_s, root2_s) if s]
            assert len(printed) == len(roots)
            x0 = ewl_state(p)
            for root, cell in zip(roots, printed):
                u = x_state_eigenvalues(evolve_x(x0, math.sqrt(root)))
                assert abs(u.u2 - u.u3) <= 1e-10
                # the dense Kraus channel: u2 = u3 is a double eigenvalue
                # of T^T T, next to u1 >= u3
                dense = horodecki_eigenvalues(
                    apply_amplitude_damping(x_to_dense(x0), math.sqrt(root)))
                assert abs(dense[1] - dense[2]) <= 1e-10
                assert float(cell) == pytest.approx(root, rel=5e-9)
                reported += 1
        assert reported > 4000  # nearly every interior grid point has 2 roots
        exact = crossing_roots(EWLParams(0.5, 1.0))
        assert exact == [1.0 / 3.0, 1.0]


def test_criterion_9_channel_properties():
    with criterion(9, "damping channel preserves trace/Hermiticity/PSD "
                      "and the closed-form map matches it to 1e-12", 10.0):
        rng = np.random.default_rng(909)
        for _ in range(1000):
            rho = random_density(rng)
            q = math.sqrt(rng.uniform(0, 1)) * np.exp(1j * rng.uniform(-np.pi, np.pi))
            out = apply_amplitude_damping(rho, q).entries
            assert abs(out.trace() - 1.0) <= 1e-12
            assert np.abs(out - out.conj().T).max() <= 1e-12
            assert float(np.linalg.eigvalsh(out).min()) >= -1e-10
        for _ in range(1000):
            x = random_x_state(rng)
            q = math.sqrt(rng.uniform(0, 1)) * np.exp(1j * rng.uniform(-np.pi, np.pi))
            closed = x_to_dense(evolve_x(x, q)).entries
            channel = apply_amplitude_damping(x_to_dense(x), q).entries
            assert np.abs(closed - channel).max() <= 1e-12


GOLDEN_COMMANDS = (
    ("bmax", "--format", "json"),
    ("angles", "--format", "json"),
    ("scan", "--ewl", "0.3,1,0", "--qmodel", "exp:1.0", "--tmax", "5",
     "--samples", "100", "--format", "csv"),
    ("scan", "--ewl", "0.4,0.85,0.2", "--qmodel", "lorentz:1.0,5.0",
     "--tmax", "8", "--samples", "80", "--format", "json"),
    ("surface", "--grid", "12,12"),
    ("oracle-check", "--grid-n", "5", "--restarts", "3", "--refine", "150",
     "--seed", "99", "--format", "json"),
)


def test_criterion_10_deterministic_output(tmp_path):
    with criterion(10, "byte-identical CSV/JSON across repeated CLI runs", 120.0):
        bell = str(bell_density_file(tmp_path))
        for base in GOLDEN_COMMANDS:
            cmd = list(base)
            if base[0] in ("bmax", "angles", "oracle-check"):
                cmd[1:1] = ["--input", bell]
            runs = [
                subprocess.run([sys.executable, "-m", "bellopt", *cmd],
                               capture_output=True, text=True)
                for _ in range(2)
            ]
            assert runs[0].returncode == runs[1].returncode == 0, runs[0].stderr
            assert runs[0].stdout == runs[1].stdout
            assert runs[0].stdout
