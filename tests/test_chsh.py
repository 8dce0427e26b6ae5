import json
import math

import numpy as np
import pytest
from hypothesis import given, settings

from bellopt import (
    BellEigenvalues,
    BellSettings,
    Region,
    TSIRELSON,
    bell_function,
    horodecki_bmax,
    horodecki_eigenvalues,
    pauli_correlation_matrix,
    settings_set2,
    validate_density_matrix,
    x_state_eigenvalues,
    x_to_dense,
)
from bellopt.chsh import TIE_TOL, _dot
from bellopt.cli import main
from bellopt.states import _pauli_vector, _unit_vector
from conftest import PAULIS, random_density, random_x_state, werner, x_states

Z_UP = (0.0, 0.0)  # (theta, phi) of +z


def all_z_settings():
    return BellSettings((0.0,) * 4, (0.0,) * 4)


def random_settings(rng):
    def d():
        return rng.uniform(0, math.pi), rng.uniform(-math.pi, math.pi)
    return BellSettings(*zip(d(), d(), d(), d()))


def directions(s):
    """A, A', B, B' of the settings s as (theta, phi) pairs."""
    return list(zip(s.thetas, s.phis))


def correlation(rho, a, b):
    """Tr(rho (a.sigma (x) b.sigma)), a acting on qubit 1, as one term of
    bell_function: a dot product with the Pauli kernel _pauli_vector."""
    return _dot(_unit_vector(*a), _pauli_vector(rho.rows, _unit_vector(*b)))


class TestCorrelation:
    def test_maximally_mixed_vanishes(self, mixed_rho):
        rng = np.random.default_rng(0)
        for _ in range(10):
            a, _, b, _ = directions(random_settings(rng))
            assert correlation(mixed_rho, a, b) == pytest.approx(0.0, abs=1e-14)

    def test_bell_state_antidiagonal_zz(self, bell_rho):
        # one up, one down: perfectly anti-correlated along z
        assert correlation(bell_rho, Z_UP, Z_UP) == pytest.approx(-1.0, abs=1e-14)

    def test_product_state_zz(self):
        rho = validate_density_matrix(np.diag([1.0, 0.0, 0.0, 0.0]))
        assert correlation(rho, Z_UP, Z_UP) == pytest.approx(1.0, abs=1e-14)


class TestBellFunction:
    def test_maximally_mixed_vanishes(self, mixed_rho):
        rng = np.random.default_rng(1)
        for _ in range(10):
            assert bell_function(mixed_rho, random_settings(rng)) <= 1e-14

    def test_bell_state_at_optimal_equatorial_settings(self, bell_rho, bell_x):
        assert bell_function(bell_rho, settings_set2(bell_x)) \
            == pytest.approx(TSIRELSON, abs=1e-12)

    def test_classical_saturation_all_z(self):
        rho = validate_density_matrix(np.diag([1.0, 0.0, 0.0, 0.0]))
        assert bell_function(rho, all_z_settings()) == pytest.approx(2.0, abs=1e-14)


def kron_correlation(rho, a, b):
    """The np.kron + einsum trace that bell_function replaced, kept as a
    reference: Tr(rho (a.sigma (x) b.sigma)) from dense 4x4 operators."""
    def observable(d):
        n = _unit_vector(*d)
        return n[0] * PAULIS[0] + n[1] * PAULIS[1] + n[2] * PAULIS[2]
    return float(np.einsum("ij,ji->", np.array(rho.rows),
                           np.kron(observable(a), observable(b))).real)


def kron_bell_function(rho, s):
    a, a_prime, b, b_prime = directions(s)
    return abs(kron_correlation(rho, a, b) + kron_correlation(rho, a, b_prime)
               + kron_correlation(rho, a_prime, b)
               - kron_correlation(rho, a_prime, b_prime))


def reference_cases():
    """Seeded Ginibre and random X states, each with random settings whose
    directions include the poles (theta = 0, pi) and phi = pi."""
    rng = np.random.default_rng(2024)
    special = [(0.0, 0.0), (math.pi, 0.0), (0.0, math.pi), (math.pi, math.pi),
               (0.5 * math.pi, math.pi), (rng.uniform(0, math.pi), math.pi)]

    def d():
        if rng.uniform() < 0.3:
            return special[rng.integers(len(special))]
        return rng.uniform(0, math.pi), rng.uniform(-math.pi, math.pi)

    for k in range(600):
        rho = random_density(rng) if k % 2 else x_to_dense(random_x_state(rng))
        yield rho, BellSettings(*zip(d(), d(), d(), d()))


class TestDirectTrace:
    def test_bell_function_equals_kron_trace(self):
        for rho, s in reference_cases():
            assert abs(bell_function(rho, s) - kron_bell_function(rho, s)) <= 4e-15

    def test_correlation_equals_kron_trace(self):
        for rho, s in reference_cases():
            a, a_prime, b, b_prime = directions(s)
            for u, v in ((a, b), (a_prime, b_prime), (b, a_prime)):
                assert abs(correlation(rho, u, v) - kron_correlation(rho, u, v)) <= 4e-15

    def test_bell_function_equals_correlation_matrix_form(self):
        # E(a, b) = b . T a.  Both sides use the Pauli kernel of `states`, so
        # this checks how bell_function and T apply it; a slip in the kernel
        # itself is caught by the literal-kron tests above and by
        # test_states.py::TestPauliCorrelationMatrix::test_equals_literal_kron_trace.
        for rho, s in reference_cases():
            t = pauli_correlation_matrix(rho)
            a, ap, b, bp = (np.array(_unit_vector(*d)) for d in directions(s))
            via_t = abs(b @ t @ a + bp @ t @ a + b @ t @ ap - bp @ t @ ap)
            assert abs(bell_function(rho, s) - via_t) <= 1e-14


class TestXStateEigenvalues:
    def test_bell_state(self, bell_x):
        u = x_state_eigenvalues(bell_x)
        assert (u.u1, u.u2, u.u3) == (1.0, 1.0, 1.0)
        assert u.tie and u.region is Region.SET1

    @pytest.mark.parametrize("r", [0.2, 0.5, 0.8, 1.0])
    def test_werner_triple(self, r):
        u = x_state_eigenvalues(werner(r))
        assert u.u1 == pytest.approx(r * r, abs=1e-15)
        assert u.u2 == pytest.approx(r * r, abs=1e-15)
        assert u.u3 == pytest.approx(r * r, abs=1e-15)

    def test_worked_example(self):
        from bellopt import XState

        u = x_state_eigenvalues(XState(0.3, 0.2, 0.2, 0.3, 0.25, 0.1))
        assert u.u1 == pytest.approx(0.49, abs=1e-15)
        assert u.u2 == pytest.approx(0.04, abs=1e-15)
        assert u.u3 == pytest.approx(0.09, abs=1e-15)
        assert u.region is Region.SET2 and not u.tie

    @settings(max_examples=100)
    @given(x_states())
    def test_u1_dominates_u3(self, x):
        u = x_state_eigenvalues(x)
        assert u.u1 >= u.u3


class TestBellEigenvalues:
    def test_region_and_tie_are_not_arguments(self):
        # a caller cannot pass a region that contradicts the tie rule
        with pytest.raises(TypeError):
            BellEigenvalues(0.5, 0.3, 0.3, Region.SET2)
        with pytest.raises(TypeError):
            BellEigenvalues(0.5, 0.3, 0.3, Region.SET1, True)

    @pytest.mark.parametrize("gap,tie", [
        (TIE_TOL, True),
        (math.nextafter(TIE_TOL, 0.0), True),
        (math.nextafter(TIE_TOL, 1.0), False),
        (2.0 * TIE_TOL, False),
    ])
    @pytest.mark.parametrize("side", ["u2-above", "u3-above"])
    def test_tie_and_region_at_the_tolerance(self, gap, tie, side):
        # u2 - u3 = +-gap exactly, since the other one is 0
        u2, u3 = (gap, 0.0) if side == "u2-above" else (0.0, gap)
        u = BellEigenvalues(0.5, u2, u3)
        assert abs(u.u2 - u.u3) == gap
        assert u.tie is tie
        expected = Region.SET1 if (tie or side == "u2-above") else Region.SET2
        assert u.region is expected


class TestBmaxX:
    def test_bell_state(self, bell_x):
        assert x_state_eigenvalues(bell_x).bmax == pytest.approx(TSIRELSON, abs=1e-15)

    @pytest.mark.parametrize("r", [0.1 * k for k in range(1, 11)])
    def test_werner_scaling(self, r):
        assert x_state_eigenvalues(werner(r)).bmax == pytest.approx(TSIRELSON * r, abs=1e-12)

    def test_werner_boundary(self):
        assert x_state_eigenvalues(werner(1.0 / math.sqrt(2.0))).bmax \
            == pytest.approx(2.0, abs=1e-12)

    def test_pure_bell_like_formula(self):
        from bellopt import XState

        rng = np.random.default_rng(10)
        for _ in range(50):
            a2 = rng.uniform(0.01, 0.99)
            ab = math.sqrt(a2 * (1 - a2))
            x = XState(0.0, 1 - a2, a2, 0.0, 0.0, ab)
            assert x_state_eigenvalues(x).bmax == pytest.approx(
                2.0 * math.sqrt(1.0 + 4.0 * a2 * (1 - a2)), abs=1e-12)

    @settings(max_examples=100)
    @given(x_states())
    def test_phase_invariance(self, x):
        from bellopt import XState

        rotated = XState(x.rho11, x.rho22, x.rho33, x.rho44,
                         abs(x.rho14) * np.exp(0.73j),
                         abs(x.rho23) * np.exp(-2.11j))
        assert x_state_eigenvalues(rotated).bmax \
            == pytest.approx(x_state_eigenvalues(x).bmax, abs=1e-12)


def bell_diagonal(c, rng=None):
    """(I + sum_i c_i sigma_i (x) sigma_i)/4, optionally rotated by random
    local unitaries, which leave the singular values of T unchanged."""
    m = np.eye(4, dtype=complex)
    for ci, s in zip(c, PAULIS):
        m = m + ci * np.kron(s, s)
    m = m / 4.0
    if rng is not None:
        def haar2():
            q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            return q * (np.diag(r) / np.abs(np.diag(r)))
        w = np.kron(haar2(), haar2())
        m = w @ m @ w.conj().T
    return validate_density_matrix(m)


def expected_u(c):
    return sorted((ci * ci for ci in c), reverse=True)


# Vertices of the tetrahedron of valid Bell-diagonal correlation vectors c.
TETRAHEDRON = np.array([[-1, -1, -1], [-1, 1, 1], [1, -1, 1], [1, 1, -1]], float)


class TestHorodeckiEigenvalues:
    def test_identity(self):
        # the singlet has T = -I, so U = T^T T = I
        got = horodecki_eigenvalues(bell_diagonal([-1.0, -1.0, -1.0]))
        assert np.allclose(got, [1.0, 1.0, 1.0], rtol=0, atol=1e-12)

    def test_diagonal(self):
        c = [0.5, -0.25, 0.0]
        got = horodecki_eigenvalues(bell_diagonal(c))
        assert np.allclose(got, [0.25, 0.0625, 0.0], rtol=0, atol=1e-12)

    def test_construct_then_recover(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            c = rng.dirichlet(np.ones(4)) @ TETRAHEDRON
            got = horodecki_eigenvalues(bell_diagonal(c, rng))
            assert np.allclose(got, expected_u(c), rtol=0, atol=1e-12)

    def test_near_degenerate_spectra(self):
        rng = np.random.default_rng(4)
        for gap in (1e-5, 1e-8, 1e-12, 0.0):
            c = [0.4, -math.sqrt(0.16 - gap), 0.1]
            got = horodecki_eigenvalues(bell_diagonal(c, rng))
            assert np.allclose(got, [0.16, 0.16 - gap, 0.01], rtol=0, atol=1e-12)


class TestHorodecki:
    def test_maximally_mixed(self, mixed_rho):
        assert horodecki_bmax(mixed_rho) == pytest.approx(0.0, abs=1e-12)

    def test_bound_is_the_two_largest_eigenvalues_bit_for_bit(self, tmp_path, capsys):
        # horodecki_eigenvalues are descending, so BellEigenvalues' max(b1, b2) is
        # b1 = 2*sqrt(u1 + u2) exactly, in the library and in `bmax` on the state
        rng = np.random.default_rng(12)
        kets = [np.array([1.0, 1.0, 0.0, 1.0]) / math.sqrt(3.0)]
        kets += [rng.normal(size=4) + 1j * rng.normal(size=4) for _ in range(5)]
        states = [random_density(rng) for _ in range(20)]
        states += [validate_density_matrix(np.outer(k, k.conj()) / np.vdot(k, k).real)
                   for k in kets]
        states.append(validate_density_matrix(np.eye(4) / 4.0))  # fully mixed, an X state
        for i, rho in enumerate(states):
            u1, u2, _ = horodecki_eigenvalues(rho)
            expected = 2.0 * math.sqrt(u1 + u2)
            assert horodecki_bmax(rho) == expected
            path = tmp_path / f"state{i}.json"
            path.write_text(json.dumps(
                {"rho": [[[z.real, z.imag] for z in row] for row in rho.rows]}))
            assert main(["bmax", "--input", str(path), "--format", "json"]) \
                == (0 if i == len(states) - 1 else 3)
            assert json.loads(capsys.readouterr().out)["bmax"] == expected

    def test_bell_state(self, bell_rho):
        assert horodecki_bmax(bell_rho) == pytest.approx(TSIRELSON, abs=1e-12)

    def test_matches_closed_form_on_random_x_states(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            x = random_x_state(rng)
            assert abs(horodecki_bmax(x_to_dense(x)) - x_state_eigenvalues(x).bmax) <= 1e-10

    def test_tsirelson_bound_on_random_states(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            assert horodecki_bmax(random_density(rng)) <= TSIRELSON + 1e-10

    def test_upper_bounds_bell_function(self):
        rng = np.random.default_rng(8)
        states = [random_density(rng) for _ in range(3)]
        states.append(x_to_dense(random_x_state(rng)))
        for rho in states:
            bound = horodecki_bmax(rho)
            for _ in range(2500):
                assert bell_function(rho, random_settings(rng)) <= bound + 1e-9

    def test_product_states_stay_classical(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            bloch_a = rng.normal(size=3)
            bloch_b = rng.normal(size=3)
            bloch_a *= rng.uniform(0, 1) / np.linalg.norm(bloch_a)
            bloch_b *= rng.uniform(0, 1) / np.linalg.norm(bloch_b)
            paulis = [np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
                      np.array([[1, 0], [0, -1]])]
            one = lambda v: 0.5 * (np.eye(2) + sum(c * s for c, s in zip(v, paulis)))
            rho = validate_density_matrix(np.kron(one(bloch_a), one(bloch_b)))
            assert horodecki_bmax(rho) <= 2.0 + 1e-9
