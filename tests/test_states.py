import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellopt import (
    DensityMatrix4,
    NotHermitian,
    NotPositive,
    NotXStructured,
    ObservableDirection,
    StateValidationError,
    TraceNotOne,
    XState,
    as_x_state,
    normalize_direction,
    pauli_correlation_matrix,
    validate_density_matrix,
    x_to_dense,
)
from conftest import PAULIS, random_density, random_x_state, werner, x_states


def trace_correlation(rho, pauli_q1, pauli_q2):
    return np.trace(rho @ np.kron(pauli_q1, pauli_q2)).real


class TestValidateDensityMatrix:
    def test_maximally_mixed_is_valid(self):
        rho = validate_density_matrix(np.eye(4) / 4.0)
        assert np.allclose(rho.entries, np.eye(4) / 4.0)

    def test_bell_projector_is_valid(self):
        m = np.zeros((4, 4), dtype=complex)
        m[1, 1] = m[2, 2] = m[1, 2] = m[2, 1] = 0.5
        validate_density_matrix(m)

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(NotPositive):
            validate_density_matrix(np.diag([0.6, 0.6, -0.1, -0.1]))

    def test_non_hermitian_rejected_with_magnitude(self):
        m = np.eye(4, dtype=complex) / 4.0
        m[0, 1] = 0.01
        with pytest.raises(NotHermitian, match="1.000e-02"):
            validate_density_matrix(m)

    def test_entries_are_the_hermitian_part(self):
        m = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
        m[0, 3], m[3, 0] = 0.5j, -0.5j + 4e-11
        entries = validate_density_matrix(m).entries
        assert np.array_equal(entries, 0.5 * (m + m.conj().T))
        assert np.array_equal(entries, entries.conj().T)

    def test_hermitian_input_is_kept_exactly(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            rho = random_density(rng)
            assert np.array_equal(validate_density_matrix(rho.entries).entries,
                                  rho.entries)

    def test_wrong_trace_rejected(self):
        with pytest.raises(TraceNotOne):
            validate_density_matrix(np.eye(4) / 2.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
    def test_non_finite_entry_rejected(self, bad):
        m = np.eye(4, dtype=complex) / 4.0
        m[1, 2] = bad
        with pytest.raises(StateValidationError, match="non-finite entry"):
            validate_density_matrix(m)

    def test_wrong_shape_rejected(self):
        with pytest.raises(StateValidationError, match=r"expected a 4x4 matrix, got \(3, 3\)"):
            validate_density_matrix(np.eye(3) / 3)

    def test_entries_are_immutable(self):
        rho = validate_density_matrix(np.eye(4) / 4.0)
        with pytest.raises(ValueError):
            rho.entries[0, 0] = 1.0


class TestXStateExtraction:
    def test_bell_state(self, bell_rho):
        x = as_x_state(bell_rho)
        assert (x.rho11, x.rho22, x.rho33, x.rho44) == (0.0, 0.5, 0.5, 0.0)
        assert x.rho14 == 0.0
        assert x.rho23 == 0.5

    def test_werner_half(self):
        x = as_x_state(x_to_dense(werner(0.5)))
        assert (x.rho11, x.rho22, x.rho33, x.rho44) == (0.125, 0.375, 0.375, 0.125)
        assert x.rho14 == 0.0
        assert x.rho23 == 0.25

    def test_off_pattern_entry_rejected(self):
        m = np.eye(4, dtype=complex) / 4.0
        m[0, 1] = m[1, 0] = 0.01
        rho = validate_density_matrix(m)
        with pytest.raises(NotXStructured) as err:
            as_x_state(rho, off_x_tol=1e-9)
        assert err.value.magnitude == pytest.approx(0.01)

    def test_off_pattern_entry_allowed_with_loose_tol(self):
        m = np.eye(4, dtype=complex) / 4.0
        m[0, 1] = m[1, 0] = 0.01
        as_x_state(validate_density_matrix(m), off_x_tol=0.02)

    @pytest.mark.parametrize("tol", [-1e-9, math.nan])
    def test_negative_or_nan_tol_rejected(self, tol):
        # NaN must not pass: every comparison with it is False, which would
        # accept any off-pattern entry as X-structured
        m = np.eye(4, dtype=complex) / 4.0
        m[0, 1] = m[1, 0] = 0.01
        with pytest.raises(ValueError, match="off_x_tol must be >= 0"):
            as_x_state(validate_density_matrix(m), off_x_tol=tol)

    def test_invalid_block_rejected(self):
        with pytest.raises(NotPositive):
            XState(0.25, 0.25, 0.25, 0.25, 0.3, 0.0)


class TestXToDense:
    def test_maximally_mixed(self):
        x = XState(0.25, 0.25, 0.25, 0.25, 0.0, 0.0)
        assert np.allclose(x_to_dense(x).entries, np.eye(4) / 4.0)

    def test_hermitian_completion_of_phase(self):
        coh = 0.5 * np.exp(1j * math.pi / 3)
        rho = x_to_dense(XState(0.0, 0.5, 0.5, 0.0, 0.0, coh))
        assert rho.entries[1, 2] == coh
        assert rho.entries[2, 1] == np.conj(coh)

    @settings(max_examples=100)
    @given(x_states())
    def test_round_trip_is_identity(self, x):
        back = as_x_state(x_to_dense(x))
        assert back == x  # exact equality of the 7 parameters


class TestPauliCorrelationMatrix:
    def test_maximally_mixed_is_zero(self, mixed_rho):
        assert np.all(pauli_correlation_matrix(mixed_rho) == 0.0)

    def test_bell_state_diagonal(self, bell_rho):
        # oracle: direct 4x4 traces with literal Pauli matrices
        expected = np.array([
            [trace_correlation(bell_rho.entries, n, m) for n in PAULIS]
            for m in PAULIS
        ])
        assert np.allclose(expected, np.diag([1.0, 1.0, -1.0]), atol=1e-12)
        got = pauli_correlation_matrix(bell_rho)
        assert np.allclose(got, np.diag([1.0, 1.0, -1.0]), atol=1e-12)

    def test_product_excited_state(self):
        rho = validate_density_matrix(np.diag([1.0, 0.0, 0.0, 0.0]))
        t = pauli_correlation_matrix(rho)
        assert t[2, 2] == pytest.approx(1.0, abs=1e-12)
        t_no_zz = t.copy()
        t_no_zz[2, 2] = 0.0
        assert np.abs(t_no_zz).max() <= 1e-12

    def test_entries_bounded_for_random_states(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            t = pauli_correlation_matrix(random_density(rng))
            assert np.abs(t).max() <= 1.0 + 1e-12

    def test_equals_literal_kron_trace(self):
        # T's own reference: the other users of the Pauli kernel (correlation,
        # bell_function) cannot catch a slip that the kernel shares with them
        rng = np.random.default_rng(2025)
        for k in range(600):
            rho = random_density(rng) if k % 2 else x_to_dense(random_x_state(rng))
            expected = [[trace_correlation(rho.entries, n, m) for n in PAULIS]
                        for m in PAULIS]
            assert np.abs(pauli_correlation_matrix(rho) - expected).max() <= 4e-15

    def test_is_a_read_only_float_array(self, bell_rho):
        t = pauli_correlation_matrix(bell_rho)
        assert t.shape == (3, 3) and t.dtype == np.float64
        with pytest.raises(ValueError):
            t[0, 0] = 0.0

    @settings(max_examples=60)
    @given(x_states())
    def test_x_state_block_structure(self, x):
        t = pauli_correlation_matrix(x_to_dense(x))
        assert t[2, 2] == pytest.approx(x.diagonal_gap, abs=1e-12)
        for i, j in ((0, 2), (2, 0), (1, 2), (2, 1)):
            assert abs(t[i, j]) <= 1e-12


class TestDirections:
    def test_unit_vector_normalized(self):
        d = ObservableDirection(1.234, -2.1)
        assert np.linalg.norm(d.unit_vector) == pytest.approx(1.0, abs=1e-12)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            ObservableDirection(4.0, 0.0)
        with pytest.raises(ValueError):
            ObservableDirection(1.0, 4.0)

    @given(raw_theta=st.floats(-10, 10), raw_phi=st.floats(-10, 10))
    def test_normalize_preserves_direction(self, raw_theta, raw_phi):
        theta, phi = normalize_direction(raw_theta, raw_phi)
        d = ObservableDirection(theta, phi)
        raw = np.array([
            math.sin(raw_theta) * math.cos(raw_phi),
            math.sin(raw_theta) * math.sin(raw_phi),
            math.cos(raw_theta),
        ])
        assert np.allclose(d.unit_vector, raw, atol=1e-12)
