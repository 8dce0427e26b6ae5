import cmath
import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from bellopt import (
    AngleSettings,
    BellSettings,
    DensityMatrix4,
    NotHermitian,
    NotPositive,
    NotXStructured,
    OracleResult,
    Region,
    StateValidationError,
    TraceNotOne,
    XState,
    apply_amplitude_damping,
    as_x_state,
    evolve_x,
    pauli_correlation_matrix,
    validate_density_matrix,
    x_to_dense,
)
from bellopt.angles import optimal_settings, settings_set1, settings_set2
from bellopt.chsh import bell_function, x_state_eigenvalues
from bellopt.dynamics import Q_ABS_MAX
from bellopt.states import (HERMITICITY_TOL, POSITIVITY_TOL, TRACE_TOL, _check_direction,
                            _unit_vector, _x_least_eigenvalue)
from conftest import (PAULIS, damping_amplitudes, lower_triangle_fault, random_density,
                      random_x_state, werner, x_states)


def trace_correlation(rho, pauli_q1, pauli_q2):
    return np.trace(rho @ np.kron(pauli_q1, pauli_q2)).real


class TestValidateDensityMatrix:
    def test_maximally_mixed_is_valid(self):
        rho = validate_density_matrix(np.eye(4) / 4.0)
        assert np.allclose(np.array(rho.rows), np.eye(4) / 4.0)

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
        entries = np.array(validate_density_matrix(m).rows)
        assert np.array_equal(entries, 0.5 * (m + m.conj().T))
        assert np.array_equal(entries, entries.conj().T)

    def test_hermitian_input_is_kept_exactly(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            rho = random_density(rng)
            assert np.array_equal(np.array(validate_density_matrix(np.array(rho.rows)).rows),
                                  np.array(rho.rows))

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

    @pytest.mark.parametrize("entries,message", [
        ([[1, 0, 0], [0, 0]], "expected a 4x4 matrix, got rows that differ in length"),
        ([[0.25, 0, 0, 0]] * 3 + [[0, 0, 0.25]],
         "expected a 4x4 matrix, got rows that differ in length"),
        ([0.25, 0.25, 0.25, 0.25],
         "expected a 4x4 matrix of numbers: 'float' object is not iterable"),
        ([[[0.25, 0.0]] * 4] * 4, "expected a 4x4 matrix of numbers: complex() first "
                                  "argument must be a string or a number, not 'list'"),
        (np.zeros((4, 4, 2)), "expected a 4x4 matrix, got (4, 4, 2)"),
        (np.full(4, 0.25), "expected a 4x4 matrix, got (4,)"),
        # the shape, or that the rows differ, not each row's length
        ([[0.25, 0, 0, 0]] * 200_000, "expected a 4x4 matrix, got (200000, 4)"),
        ([[0.25, 0, 0, 0]] * 199_999 + [[0.25]],
         "expected a 4x4 matrix, got rows that differ in length"),
        # complex() parses text, but text is no number
        ([["0.25" if i == j else "0" for j in range(4)] for i in range(4)],
         "expected a 4x4 matrix of numbers: a cell is str, not a number"),
        ([[b"0.25" if i == j else 0.0 for j in range(4)] for i in range(4)],
         "expected a 4x4 matrix of numbers: a cell is bytes, not a number"),
        ([[bytearray(b"0.25") if i == j else 0.0 for j in range(4)] for i in range(4)],
         "expected a 4x4 matrix of numbers: a cell is bytearray, not a number"),
        ([[0.25, 0, 0, 0]] + [["x"] * 4] * 3,
         "expected a 4x4 matrix of numbers: a cell is str, not a number"),
        (np.array([["0.25" if i == j else "0" for j in range(4)] for i in range(4)]),
         "expected a 4x4 matrix of numbers: a cell is str, not a number"),
        ([[10 ** 400 if i == j == 0 else 0 for j in range(4)] for i in range(4)],
         "expected a 4x4 matrix of numbers: int too large to convert to float"),
    ], ids=["ragged", "short-last-row", "flat", "re-im-pairs", "array-4x4x2", "array-4",
            "200000-rows", "200000-rows-ragged", "str-cells", "bytes-cells",
            "bytearray-cells", "malformed-str", "str-array", "int-past-float-range"])
    def test_malformed_shape_names_it(self, entries, message):
        with pytest.raises(StateValidationError) as info:
            validate_density_matrix(entries)
        assert str(info.value) == message

    def test_the_held_matrix_is_immutable(self):
        rho = validate_density_matrix(np.eye(4) / 4.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            rho.rows = ((1.0,) * 4,) * 4
        with pytest.raises(TypeError):
            rho.rows[0][0] = 1.0
        np.array(rho.rows)[0, 0] = 1.0  # the array is a copy
        assert rho.rows == tuple(map(tuple, (np.eye(4) / 4.0 + 0j).tolist()))


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
    """The PSD check reads the Hermitian part that `rows` keeps: from the
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
        a1, d1, c14, a2, d2, c23 = blocks
        by_blocks = _x_least_eigenvalue(a1, a2, d2, d1, abs(c14), abs(c23))
        by_eigvalsh = float(np.linalg.eigvalsh(m).min())
        diff = abs(by_blocks - by_eigvalsh)
        assert diff <= 16 * math.ulp(np.abs(m).max())
        if abs(by_eigvalsh + POSITIVITY_TOL) > diff:
            assert (by_blocks < -POSITIVITY_TOL) == (by_eigvalsh < -POSITIVITY_TOL)

    def test_exact_examples(self):
        assert _x_least_eigenvalue(0.5, 0.0, 0.0, 0.5, 0.5, 0.0) == 0.0
        assert _x_least_eigenvalue(-1e-10, 0.5, 0.5 + 1e-10, 0.0, 0.0, 0.0) == -1e-10
        validate_density_matrix(x_matrix(-1e-10, 0.0, 0j, 0.5, 0.5 + 1e-10, 0j))  # -1e-10 passes
        assert _x_least_eigenvalue(0.25, 0.25, 0.25, 0.25, 0.35, 0.75) == -0.5  # the smaller
        assert math.isnan(_x_least_eigenvalue(0.5, 0.0, 0.0, 0.5, 0.0, math.nan))

    def test_x_states_never_call_eigvalsh(self, monkeypatch):
        rng = np.random.default_rng(18)
        xs = [np.array(x_to_dense(random_x_state(rng)).rows) for _ in range(50)]

        def no_eigvalsh(m):
            raise AssertionError("eigvalsh called")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
        for m in xs + [np.eye(4) / 4.0, x_matrix(0.0, 0.0, 0j, 0.5, 0.5, 0.5)]:
            validate_density_matrix(m)
        with pytest.raises(AssertionError, match="eigvalsh called"):
            validate_density_matrix(np.array(random_density(rng).rows))
        near_x = np.eye(4, dtype=complex) / 4.0
        near_x[0, 1] = near_x[1, 0] = 1e-300  # not exactly 0: not an X matrix
        with pytest.raises(AssertionError, match="eigvalsh called"):
            validate_density_matrix(near_x)


class TestPlainPythonValidation:
    """The checks on the 16 Python complexes say what the numpy ones did."""

    def test_not_hermitian_magnitude_as_numpy_measures_it(self):
        rng = np.random.default_rng(181)
        for _ in range(400):
            m = np.array(random_density(rng).rows) + 10.0 ** rng.uniform(-10, 3) * (
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

    @pytest.mark.parametrize("args", [
        (0.5, 0.0, 0.0, 0.5, complex(1.7e308, 1.7e308), 0j),  # |rho14| past float range
        (0.0, 0.5, 0.5, 0.0, 0j, complex(-1.7e308, 1.7e308)),  # |rho23| past it
        (1e308, -1e308, 0.5, 0.5, 1.79e308, 0j),  # |rho14| finite, the block's hypot past it
    ], ids=["rho14", "rho23", "hypot"])
    def test_coherence_beyond_float_range_is_not_positive(self, args):
        # a finite X matrix whose block eigenvalue overflows is as far from
        # PSD as can be said: its least eigenvalue reads -inf, not OverflowError
        m = x_matrix(args[0], args[3], args[4], args[1], args[2], args[5])
        for build in (lambda: XState(*args), lambda: validate_density_matrix(m),
                      lambda: validate_density_matrix(m.tolist())):
            with pytest.raises(NotPositive) as err:
                build()
            assert str(err.value) == "smallest eigenvalue -inf"

    @pytest.mark.parametrize("i, j", [(0, 1), (0, 3), (0, 0)])
    def test_entries_past_half_the_float_range_rejected(self, i, j):
        # m + m^H would overflow here; the Hermitian part is taken without
        # it, so no warning is raised and the check that fails names the
        # true magnitude, with or without a small defect elsewhere
        for defect in (0.0, 1e-12):
            m = np.eye(4, dtype=complex) / 4.0
            m[i, j] = m[j, i] = 1e308
            m[2, 3] = defect
            if i == j:
                m[1, 1] = -1e308 + 0.25
                kind, text = TraceNotOne, "trace deviates from 1 by 5.000e-01"
            else:
                kind, text = NotPositive, "smallest eigenvalue -1.000e+308"
            with pytest.raises(kind) as err:
                validate_density_matrix(m)
            assert type(err.value) is kind and str(err.value) == text

    def test_entries_are_exactly_hermitian(self):
        # a + (b - a) / 2 and b + (a - b) / 2 would round apart here
        m = np.eye(4, dtype=complex) / 4.0
        m[0, 1], m[1, 0] = 1e-17, -2.7e-17
        entries = np.array(validate_density_matrix(m).rows)
        assert np.array_equal(entries, entries.conj().T)
        assert entries[0, 1] == 0.5 * (1e-17 - 2.7e-17)

    def test_hermitian_input_is_kept_byte_for_byte(self):
        # an exactly Hermitian input is its own Hermitian part, -0.0 and all
        m = np.eye(4, dtype=complex) / 4.0
        m[0, 1], m[1, 0] = complex(-0.0, 0.1), complex(-0.0, -0.1)
        m[2, 2] = complex(0.25, -0.0)
        assert np.array(validate_density_matrix(m).rows).tobytes() == m.tobytes()

    @settings(max_examples=300)
    @given(st.lists(st.sampled_from([0.0, -0.0, 0.01, -0.007, 1.0 / 300.0]),
                    min_size=32, max_size=32),
           st.lists(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-17, -3e-17, 1.5e-11,
                                     -2e-11]), min_size=32, max_size=32),
           st.booleans())
    @example([0.0] * 32, [-0.0] * 32, False)
    @example([0.0] * 32, [-0.0] * 31 + [5e-324], True)
    @example([0.0] * 32, [0.0] * 23 + [-5e-324] + [0.0] * 5 + [5e-324, 0.0, 5e-324], False)
    def test_hermitian_part_is_numpys_bit_for_bit(self, coherences, defects, as_list):
        # a Hermitian matrix with zero diagonal, plus defects below HERMITICITY_TOL,
        # read from an array or from nested lists of Python complex
        a = np.array([complex(re, im) for re, im in zip(coherences[::2], coherences[1::2])])
        a = a.reshape(4, 4) * (1.0 - np.eye(4))
        m = np.eye(4) / 4.0 + (a + a.conj().T) + np.array(
            [complex(re, im) for re, im in zip(defects[::2], defects[1::2])]).reshape(4, 4)
        rho = validate_density_matrix(m.tolist() if as_list else m)
        # an exactly Hermitian input is kept as it is, -0.0 parts and all
        expected = 0.5 * m + 0.5 * m.conj().T if np.any(m != m.conj().T) else m
        assert np.array(rho.rows).tobytes() == expected.tobytes()
        assert rho.rows == tuple(map(tuple, expected.tolist()))
        assert [[(z.real.hex(), z.imag.hex()) for z in row] for row in rho.rows] == [
            [(z.real.hex(), z.imag.hex()) for z in row] for row in expected.tolist()]

    @settings(max_examples=100)
    @given(st.lists(st.sampled_from([0.0, -0.0, 1.0, -0.5, 20.0, -20.0]),
                    min_size=32, max_size=32))
    @example([-0.0] * 32)  # the Hermitian part then holds -0.0 real parts
    @example([20.0, 20.0] + ([0.0] * 8 + [20.0, 20.0]) * 3)  # |tr - 1| = 1.131e-10
    def test_rows_are_tuples_of_the_hermitian_part(self, parts):
        m = np.array([complex(re * 1e-12, im * 1e-12)
                      for re, im in zip(parts[::2], parts[1::2])]).reshape(4, 4)
        m[range(4), range(4)] += 0.25
        tr = complex(m[0, 0]) + complex(m[1, 1]) + complex(m[2, 2]) + complex(m[3, 3])
        if abs(tr - 1.0) > TRACE_TOL:  # the diagonal's parts add up past the tolerance
            with pytest.raises(TraceNotOne):
                validate_density_matrix(m)
            return
        rho = validate_density_matrix(m)
        assert type(rho.rows) is tuple and all(type(row) is tuple for row in rho.rows)
        expected = 0.5 * m + 0.5 * m.conj().T if np.any(m != m.conj().T) else m
        hexed = [[(z.real.hex(), z.imag.hex()) for z in row] for row in rho.rows]
        assert hexed == [[(z.real.hex(), z.imag.hex()) for z in row]
                         for row in expected.tolist()]
        assert repr(rho) == f"DensityMatrix4(rows={rho.rows!r})"  # rows is all a state holds

    def test_readers_need_only_rows(self, bell_rho):
        rows_only = type("RowsOnly", (), {"rows": bell_rho.rows})()
        x = as_x_state(rows_only)
        assert x == as_x_state(bell_rho)
        t = pauli_correlation_matrix(rows_only)
        assert np.array_equal(t, pauli_correlation_matrix(bell_rho))
        z = BellSettings((0.0,) * 4, (0.0,) * 4)
        assert bell_function(rows_only, z) == bell_function(bell_rho, z)
        s = optimal_settings(x)[0]
        assert bell_function(rows_only, s) == bell_function(bell_rho, s)
        q = 0.6 - 0.3j  # the dense channel, at a q inside the unit disc
        hexed = [[[(z.real.hex(), z.imag.hex()) for z in row]
                  for row in apply_amplitude_damping(rho, q).rows] for rho in (rows_only, bell_rho)]
        assert hexed[0] == hexed[1]

    @pytest.mark.parametrize("duplicate", [lambda r: pickle.loads(pickle.dumps(r)),
                                           copy.copy, copy.deepcopy],
                             ids=["pickle", "copy", "deepcopy"])
    @pytest.mark.parametrize("read", [False, True], ids=["unread", "read"])
    def test_copies_keep_rows(self, duplicate, read):
        defect = np.zeros((4, 4), dtype=complex)
        defect[0, 1] = 3e-11j  # below HERMITICITY_TOL: rows is the Hermitian part
        states = [x_to_dense(werner(0.8)), random_density(np.random.default_rng(28)),
                  validate_density_matrix(np.eye(4) / 4.0 + defect)]
        for rho in states:
            pickled = pickle.dumps(rho)
            if read:  # the readers leave nothing behind on the state
                np.array(rho.rows)
                pauli_correlation_matrix(rho)
                bell_function(rho, BellSettings((0.0,) * 4, (0.0,) * 4))
                apply_amplitude_damping(rho, 0.6 - 0.3j)
            # a state holds rows alone
            assert vars(rho) == {"rows": rho.rows} and pickle.dumps(rho) == pickled
            dup = duplicate(rho)
            assert type(dup) is DensityMatrix4 and pickle.dumps(dup) == pickled
            assert [[(z.real.hex(), z.imag.hex()) for z in row] for row in dup.rows] == [
                [(z.real.hex(), z.imag.hex()) for z in row] for row in rho.rows]
            assert vars(dup) == {"rows": dup.rows}

    def test_pickles_that_name_derived_still_load(self):
        # the form pickles took when DensityMatrix4 rebuilt itself by _derived
        rho = random_density(np.random.default_rng(28))
        old = type("Old", (), {"__reduce__": lambda _: (DensityMatrix4._derived, (rho.rows,))})
        loaded = pickle.loads(pickle.dumps(old()))
        assert type(loaded) is DensityMatrix4 and loaded.rows == rho.rows
        assert vars(loaded) == {"rows": rho.rows}


def bits(v) -> tuple:
    """A float's or a complex's type and parts as float.hex, so -0.0 and every bit count."""
    return (type(v), v.hex()) if type(v) is float else (type(v), v.real.hex(), v.imag.hex())


@st.composite
def x_edge_args(draw):
    """XState arguments at the edges of the PSD and trace rules: populations
    down to and past -POSITIVITY_TOL, a trace off by up to twice TRACE_TOL,
    coherences at and past each block's eigenvalue bound, and NaN/inf entries."""
    edge = st.floats(-3 * POSITIVITY_TOL, POSITIVITY_TOL)
    pops = [draw(st.one_of(edge, st.just(-POSITIVITY_TOL), st.floats(0.0, 0.4)))
            for _ in range(3)]
    k = draw(st.integers(0, 3))  # the population that makes up the trace
    off = st.one_of(st.just(0.0), st.floats(-TRACE_TOL, TRACE_TOL),
                    st.floats(-2 * TRACE_TOL, 2 * TRACE_TOL))
    pops.insert(k, 1.0 - sum(pops) + draw(off))
    coherences = []
    for a, d in ((pops[0], pops[3]), (pops[1], pops[2])):
        lam = draw(st.one_of(edge, st.just(-POSITIVITY_TOL), st.floats(-1.0, 1.0)))
        mod = math.sqrt((a - lam) * (d - lam)) if lam < min(a, d) else 0.0
        coherences.append(mod * cmath.rect(1.0, draw(st.floats(-math.pi, math.pi))))
    args = [*pops, *coherences]
    i = draw(st.integers(0, 17))
    if i < 6:  # one entry not finite
        bad = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        args[i] = bad if i < 4 else draw(st.sampled_from(
            [complex(bad, 0.0), complex(0.0, bad), complex(0.1, bad)]))
    return tuple(args)


class TestOneRuleForXStates:
    """XState(...) is judged by DensityMatrix4 on its dense completion, so the
    two doors are one rule by construction; this guards the wiring: the same
    verdict, fault and text for every X matrix, and every closed form for
    each state XState accepts."""

    @settings(max_examples=1000, deadline=None)
    @given(x_edge_args())
    @example((0.0, 0.5, 0.5, 0.0, 0.99e-5, 0.0))  # rho14 with both populations 0
    @example((0.0, -0.9e-10, -0.9e-10, 1.0 + 1.8e-10, 0.0, 0.0))
    @example((-5e-11, 1.9e-11, -3.9e-11, 1.0 + 7e-11, 0.0, 0.0))
    @example((-POSITIVITY_TOL, 0.5, 0.5 + POSITIVITY_TOL, 0.0, 0.0, 0.0))
    @example((0.25, 0.25, 0.25, 0.25, 0.35, 0.75))  # both blocks fail, the second by more
    @example((math.nan, 0.0, 0.0, 1.0, 0.0, 0.0))  # not finite: no eigenvalue is named
    @example((0.5, 0.0, 0.0, 0.5, math.inf, 0.0))
    @example((1, 0, 0, 0, 0, 0))  # ints, bools and numpy scalars convert as Python numbers do
    @example((False, True, False, False, False, False))
    @example((np.float64(0.25), np.float32(0.25), np.int64(0), np.float16(0.5),
              np.complex64(0.1j), np.complex128(0)))
    def test_accepted_iff_the_dense_matrix_is(self, args):
        a1, a2, d2, d1, c14, c23 = args
        x = x_error = dense_error = None
        try:
            x = XState(*args)
        except StateValidationError as exc:
            x_error = exc
        # XState(...) and the unjudged XState._derived convert through one function
        twin = XState._derived(*args)
        assert [type(v) for v in vars(twin).values()] == [float] * 4 + [complex] * 2
        if x is not None:
            assert [bits(v) for v in vars(x).values()] == [bits(v) for v in vars(twin).values()]
            assert x == twin and hash(x) == hash(twin) and repr(x) == repr(twin)
        try:
            validate_density_matrix(x_matrix(a1, d1, c14, a2, d2, c23))
            dense_ok = True
        except StateValidationError as exc:
            dense_ok, dense_error = False, exc
        assert (x is not None) == dense_ok
        assert type(x_error) is type(dense_error)
        assert str(x_error) == str(dense_error)
        if x is not None:
            x_to_dense(x)
            x_state_eigenvalues(x)
            optimal_settings(x)
            settings_set1(x)
            settings_set2(x)


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
        assert np.allclose(np.array(x_to_dense(x).rows), np.eye(4) / 4.0)

    def test_hermitian_completion_of_phase(self):
        coh = 0.5 * np.exp(1j * math.pi / 3)
        rho = x_to_dense(XState(0.0, 0.5, 0.5, 0.0, 0.0, coh))
        assert rho.rows[1][2] == coh
        assert rho.rows[2][1] == np.conj(coh)

    @settings(max_examples=100)
    @given(x_states())
    def test_round_trip_is_identity(self, x):
        back = as_x_state(x_to_dense(x))
        assert back == x  # exact equality of the 7 parameters


@st.composite
def held_states(draw):
    """A DensityMatrix4 of each kind the library holds: built from an array or
    from nested lists, with +-0.0 and +-5e-324 parts in mirrored entries and
    Hermiticity defects up to HERMITICITY_TOL; an X state's dense completion;
    an evolve_x image; or an apply_amplitude_damping image of one of these."""
    kind = draw(st.sampled_from(["input", "x", "evolved", "damped"]))
    q = draw(st.one_of(damping_amplitudes(), st.sampled_from(
        [1.0, Q_ABS_MAX, -0.6035880804157655 - 0.7972963245745032j])))  # last: |q * q| > 1
    if kind in ("x", "evolved") or kind == "damped" and draw(st.booleans()):
        x = draw(x_states())
        rho = x_to_dense(evolve_x(x, q) if kind == "evolved" else x)
    else:
        tiny = st.sampled_from([0.0, -0.0, 5e-324, -5e-324])
        coherence = st.one_of(tiny, st.sampled_from([0.01, -0.007]))
        defect = st.sampled_from([1e-17, 0.5 * HERMITICITY_TOL, 0.999 * HERMITICITY_TOL,
                                  math.nextafter(HERMITICITY_TOL, 0.0)])
        if draw(st.booleans()):  # I/4 with coherences, else a Ginibre state mixed with I/4
            m = np.eye(4, dtype=complex) / 4.0
            for i, j in zip(*np.triu_indices(4, 1)):
                m[i, j] = complex(draw(coherence), draw(coherence))
                m[j, i] = m[i, j].conjugate()
        else:
            ginibre = random_density(np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))))
            m = 0.9 * np.array(ginibre.rows) + 0.025 * np.eye(4)
        for i, j in zip(*np.triu_indices(4, 1)):  # +-0.0 and +-5e-324 parts, then a defect
            m[j, i] += complex(draw(tiny), draw(tiny))
            if draw(st.booleans()):
                m[i, j] += draw(defect) * draw(st.sampled_from([1.0, -1.0, 1j, -1j]))
        for i in range(4):  # an imaginary diagonal part; four add up to at most 8e-11
            m[i, i] = complex(m[i, i].real, draw(st.one_of(tiny, st.sampled_from(
                [1e-17, 2e-11, -2e-11]))))
        try:
            rho = DensityMatrix4(m.tolist() if draw(st.booleans()) else m)
        except NotHermitian:  # a defect next to the tolerance that rounding took past it
            reject()
    return apply_amplitude_damping(rho, q) if kind == "damped" else rho


class TestPauliCorrelationMatrix:
    @settings(max_examples=300, deadline=None)
    @given(held_states())
    def test_every_held_state_is_exactly_hermitian(self, rho):
        # what lets _pauli_vector drop a trace's imaginary part: it is rounding alone
        r = rho.rows
        assert all(r[j][i] == r[i][j].conjugate() for i in range(4) for j in range(4))
        assert all(r[i][i].imag == 0 for i in range(4))

    def test_maximally_mixed_is_zero(self, mixed_rho):
        assert np.all(pauli_correlation_matrix(mixed_rho) == 0.0)

    def test_bell_state_diagonal(self, bell_rho):
        # oracle: direct 4x4 traces with literal Pauli matrices
        expected = np.array([
            [trace_correlation(np.array(bell_rho.rows), n, m) for n in PAULIS]
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
        # T's own reference: the other user of the Pauli kernel (bell_function)
        # cannot catch a slip that the kernel shares with them
        rng = np.random.default_rng(2025)
        for k in range(600):
            rho = random_density(rng) if k % 2 else x_to_dense(random_x_state(rng))
            expected = [[trace_correlation(np.array(rho.rows), n, m) for n in PAULIS]
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


def check_direction(theta, phi):
    # the rule itself, which every settings record below applies
    _check_direction(theta, phi)


def bell_settings(theta, phi):
    return BellSettings((0.0, theta, 0.0, 0.0), (0.0, phi, 0.0, 0.0))


def angle_settings(theta, phi):
    return AngleSettings((0.0, 0.0, 0.0, theta), (0.0, 0.0, 0.0, phi), Region.SET2)


def oracle_result(theta, phi):
    return OracleResult(thetas=(theta, 0.0, 0.0, 0.0), phis=(phi, 0.0, 0.0, 0.0),
                        bmax_est=2.0, evaluations=1)


RANGE_BUILDERS = [check_direction, bell_settings, angle_settings, oracle_result]


class TestDirections:
    def test_unit_vector_normalized(self):
        assert np.linalg.norm(_unit_vector(1.234, -2.1)) == pytest.approx(1.0, abs=1e-12)

    def test_range_validation(self):
        for build in RANGE_BUILDERS:
            with pytest.raises(ValueError):
                build(4.0, 0.0)
            with pytest.raises(ValueError):
                build(1.0, 4.0)

    @pytest.mark.parametrize("build", RANGE_BUILDERS, ids=lambda b: b.__name__)
    @pytest.mark.parametrize("theta,phi,message", [
        (math.nextafter(-1e-12, -math.inf), 0.0, "theta out of [0, pi]"),
        (math.nextafter(math.pi + 1e-12, math.inf), 0.0, "theta out of [0, pi]"),
        (math.nan, 0.0, "theta out of [0, pi]"),
        (1.0, -math.pi - 1e-12, "phi out of (-pi, pi]"),
        (1.0, math.nextafter(-math.pi - 1e-12, -math.inf), "phi out of (-pi, pi]"),
        (1.0, math.nextafter(math.pi + 1e-12, math.inf), "phi out of (-pi, pi]"),
        (1.0, math.nan, "phi out of (-pi, pi]"),
    ])
    def test_one_range_rule_rejects(self, build, theta, phi, message):
        # every settings record applies the one range rule and its texts
        bad = theta if message.startswith("theta") else phi
        with pytest.raises(ValueError) as info:
            build(theta, phi)
        assert str(info.value) == f"{message}: {bad!r}"

    @pytest.mark.parametrize("build", RANGE_BUILDERS, ids=lambda b: b.__name__)
    @pytest.mark.parametrize("theta,phi", [
        (-1e-12, math.nextafter(-math.pi - 1e-12, math.inf)),
        (math.pi + 1e-12, math.pi + 1e-12),
        (0.0, -math.pi),
        (math.pi, math.pi),
    ])
    def test_one_range_rule_accepts_the_edges(self, build, theta, phi):
        build(theta, phi)
