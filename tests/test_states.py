import math

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from bellopt.angles import optimal_settings
from bellopt.chsh import bell_function, correlation
from bellopt.states import POSITIVITY_TOL, _x_least_eigenvalue
from conftest import (PAULIS, lower_triangle_fault, random_density, random_x_state, werner,
                      x_states)


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


def x_matrix(a1, d1, c14, a2, d2, c23):
    """Hermitian X matrix with blocks {0,3} = (a1, c14; c14*, d1) and
    {1,2} = (a2, c23; c23*, d2); its off-X entries are exactly 0."""
    m = np.diag([a1, a2, d2, d1]).astype(complex)
    m[0, 3], m[3, 0] = c14, np.conj(c14)
    m[1, 2], m[2, 1] = c23, np.conj(c23)
    return m


@st.composite
def x_blocks(draw):
    """Blocks (a, d, c) whose least eigenvalue is drawn, often within a few
    1e-10 of -POSITIVITY_TOL: |c|^2 = (a - lam)(d - lam)."""
    blocks = []
    for _ in range(2):
        a, d = draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0))
        lam = draw(st.one_of(st.floats(-3e-10, 1e-10), st.floats(-1.0, 1.0)))
        phase = draw(st.floats(-math.pi, math.pi))
        mod = math.sqrt((a - lam) * (d - lam)) if lam < min(a, d) else 0.0
        blocks += [a, d, mod * complex(math.cos(phase), math.sin(phase))]
    return tuple(blocks)


class TestPositivityOnTheStoredMatrix:
    """The PSD check reads the Hermitian part that `entries` keeps: from the
    two 2x2 blocks when every off-X entry is exactly 0, else from eigvalsh."""

    def test_fault_in_the_upper_triangle_rejected(self):
        m = lower_triangle_fault()
        assert np.linalg.eigvalsh(m).min() > -POSITIVITY_TOL
        with pytest.raises(NotPositive, match=r"^smallest eigenvalue -2\.475e-10$"):
            validate_density_matrix(m)

    @settings(max_examples=300)
    @given(x_blocks())
    @example((0.3, 0.3, 0j, 0.2, 0.2, 0.1 + 0j))  # a = d with c = 0
    @example((0.25, 0.25, 0j, 0.25, 0.25, 0j))  # fully mixed
    @example((0.0, 0.0, 0j, 0.5, 0.5, 0.5 + 0j))  # pure: least eigenvalue exactly 0
    @example((-1e-10, 0.0, 0j, 0.5, 0.5, 0j))  # least eigenvalue exactly -1e-10
    def test_block_formula_matches_eigvalsh(self, blocks):
        m = x_matrix(*blocks)
        by_blocks = _x_least_eigenvalue(tuple(map(tuple, m.tolist())))
        by_eigvalsh = float(np.linalg.eigvalsh(m).min())
        diff = abs(by_blocks - by_eigvalsh)
        assert diff <= 16 * math.ulp(np.abs(m).max())
        if abs(by_eigvalsh + POSITIVITY_TOL) > diff:
            assert (by_blocks < -POSITIVITY_TOL) == (by_eigvalsh < -POSITIVITY_TOL)

    def test_exact_examples(self):
        assert _x_least_eigenvalue(((0.5, 0, 0, 0.5), (0, 0, 0, 0),
                                    (0, 0, 0, 0), (0.5, 0, 0, 0.5))) == 0.0
        m = x_matrix(-1e-10, 0.0, 0j, 0.5, 0.5 + 1e-10, 0j)
        assert _x_least_eigenvalue(tuple(map(tuple, m.tolist()))) == -1e-10
        validate_density_matrix(m)  # -1e-10 is not below -POSITIVITY_TOL

    def test_x_states_never_call_eigvalsh(self, monkeypatch):
        rng = np.random.default_rng(18)
        xs = [x_to_dense(random_x_state(rng)).entries for _ in range(50)]

        def no_eigvalsh(m):
            raise AssertionError("eigvalsh called")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
        for m in xs + [np.eye(4) / 4.0, x_matrix(0.0, 0.0, 0j, 0.5, 0.5, 0.5)]:
            validate_density_matrix(m)
        with pytest.raises(AssertionError, match="eigvalsh called"):
            validate_density_matrix(random_density(rng).entries)
        near_x = np.eye(4, dtype=complex) / 4.0
        near_x[0, 1] = near_x[1, 0] = 1e-300  # not exactly 0: not an X matrix
        with pytest.raises(AssertionError, match="eigvalsh called"):
            validate_density_matrix(near_x)


class TestPlainPythonValidation:
    """The checks on the 16 Python complexes say what the numpy ones did."""

    def test_not_hermitian_magnitude_as_numpy_measures_it(self):
        rng = np.random.default_rng(181)
        for _ in range(400):
            m = random_density(rng).entries + 10.0 ** rng.uniform(-10, 3) * (
                rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
            herm = float(np.abs(m - m.conj().T).max())
            with pytest.raises(NotHermitian) as err:
                validate_density_matrix(m)
            assert str(err.value) == f"worst Hermiticity defect {herm:.3e}"
            # numpy's complex abs on arrays is its own SIMD formula, not libm's
            # hypot as for a Python complex: the two agree to a few ulp
            r = m.tolist()
            py = max(abs(r[i][j] - r[j][i].conjugate()) for i in range(4) for j in range(4))
            assert abs(py - herm) <= 4 * math.ulp(herm)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf,
                                     complex(math.inf, math.nan)])
    def test_non_finite_entry_in_every_position(self, bad):
        for i in range(4):
            for j in range(4):
                m = np.eye(4, dtype=complex) / 4.0
                m[i, j] = bad
                with pytest.raises(StateValidationError) as err:
                    validate_density_matrix(m)
                assert type(err.value) is StateValidationError
                assert str(err.value) == "matrix has a non-finite entry"

    def test_defect_beyond_float_range_is_non_finite(self):
        m = np.eye(4, dtype=complex) / 4.0
        m[0, 1], m[1, 0] = complex(1e308, 1e308), complex(-0.5e308, 0.5e308)
        with pytest.raises(StateValidationError, match="^matrix has a non-finite entry$"):
            validate_density_matrix(m)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("i, j", [(0, 1), (0, 3), (0, 0)])
    def test_entries_past_half_the_float_range_rejected(self, i, j):
        # the Hermitian part overflows; its NaN or inf must not pass the PSD check
        m = np.eye(4, dtype=complex) / 4.0
        m[i, j] = m[j, i] = 1e308
        if i == j:
            m[1, 1] = -1e308 + 0.25
        with pytest.raises(ValueError):
            validate_density_matrix(m)

    @settings(max_examples=100)
    @given(st.lists(st.sampled_from([0.0, -0.0, 1.0, -0.5, 20.0, -20.0]),
                    min_size=32, max_size=32))
    @example([-0.0] * 32)  # the Hermitian part then holds -0.0 real parts
    def test_rows_are_entries_bit_for_bit(self, parts):
        m = np.array([complex(re * 1e-12, im * 1e-12)
                      for re, im in zip(parts[::2], parts[1::2])]).reshape(4, 4)
        m[range(4), range(4)] += 0.25
        rho = validate_density_matrix(m)
        assert type(rho.rows) is tuple and all(type(row) is tuple for row in rho.rows)
        hexed = [[(z.real.hex(), z.imag.hex()) for z in row] for row in rho.rows]
        assert hexed == [[(z.real.hex(), z.imag.hex()) for z in row]
                         for row in rho.entries.tolist()]
        with pytest.raises(ValueError):
            rho.entries[0, 0] = 1.0
        assert "rows" not in repr(rho)

    def test_readers_need_only_rows(self, bell_rho):
        rows_only = type("RowsOnly", (), {"rows": bell_rho.rows})()
        x = as_x_state(rows_only)
        assert x == as_x_state(bell_rho)
        t = pauli_correlation_matrix(rows_only)
        assert np.array_equal(t, pauli_correlation_matrix(bell_rho))
        z = ObservableDirection(0.0, 0.0)
        assert correlation(rows_only, z, z) == correlation(bell_rho, z, z)
        s = optimal_settings(x)[0].bell_settings()
        assert bell_function(rows_only, s) == bell_function(bell_rho, s)


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
