import bisect
import cmath
import csv
import math
import re
import time
import tracemalloc
import warnings
from array import array
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st

from bellopt import (
    DensityMatrix4,
    EWLParams,
    EventKind,
    ExponentialModel,
    LorentzianModel,
    Region,
    ScanEvent,
    TabulatedModel,
    XState,
    apply_amplitude_damping,
    as_x_state,
    bell_function,
    crossing_levels,
    crossing_roots,
    evolve_x,
    ewl_state,
    optimal_settings,
    scan_events,
    settings_set1,
    settings_set2,
    time_scan,
    trajectory_coefficients,
    validate_density_matrix,
    x_state_eigenvalues,
    x_to_dense,
)
from bellopt import dynamics
from bellopt.angles import _settings_rows
from bellopt.chsh import _eigenvalues
from bellopt.dynamics import (
    _MAX_ROOT_ITERS,
    EVENT_REL_TOL,
    MAX_LINE_BYTES,
    MAX_PIECES,
    MAX_SAMPLES,
    Q_ABS_MAX,
    _crossing_rows,
    _crossing_times,
    _violation_rows,
    crossing_surface,
)
from bellopt.states import POSITIVITY_TOL, TRACE_TOL, TraceNotOne, _x_least_eigenvalue
from conftest import (damping_amplitudes, largest_accepted_modulus, random_density,
                      random_x_state, werner, x_states)


def _sign(v: float) -> float:
    return 1.0 if v >= 0.0 else -1.0


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
        assert ExponentialModel(1.7).q(0.0) == 1.0

    def test_half_life(self):
        q = ExponentialModel(1.0).q(math.log(2.0))
        assert abs(q) ** 2 == pytest.approx(0.5, abs=1e-15)

    def test_monotone_decay(self):
        ts = np.linspace(0, 20, 200)
        qs = [abs(q) ** 2 for q in ExponentialModel(0.8).q(ts).tolist()]
        assert all(b < a for a, b in zip(qs, qs[1:]))
        assert qs[-1] < 1e-6

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            ExponentialModel(1.0).q(-1.0)
        with pytest.raises(ValueError):
            ExponentialModel(0.0).q(1.0)


class TestQLorentzian:
    def test_starts_at_one(self):
        assert LorentzianModel(1.0, 5.0).q(0.0) == 1.0

    def test_weak_coupling_is_nearly_markovian(self):
        lam, gamma0 = 1.0, 0.01
        model = LorentzianModel(lam, gamma0)
        for t in np.linspace(5.0, 50.0, 60):
            q2 = abs(model.q(t)) ** 2
            assert q2 == pytest.approx(math.exp(-gamma0 * t), rel=0.05)

    def test_strong_coupling_collapses(self):
        # zeros of q on [0, 10] for lam=1, gamma0=5, counted by sign changes
        ts = np.linspace(0.0, 10.0, 20001)
        qs = LorentzianModel(1.0, 5.0).q(ts).real.tolist()
        flips = sum(1 for a, b in zip(qs, qs[1:]) if (a >= 0) != (b >= 0))
        assert flips == 5

    def test_amplitude_bounded(self):
        for lam, gamma0 in ((1.0, 5.0), (1.0, 0.51), (2.0, 1.0), (3.0, 0.1)):
            model = LorentzianModel(lam, gamma0)
            for t in np.linspace(0.0, 30.0, 500):
                assert abs(model.q(t)) <= 1.0 + 1e-12

    @pytest.mark.parametrize("lam,gamma0", [(10.0, 0.1), (10.0, 0.5), (50.0, 12.0)])
    def test_weak_coupling_large_t_finite_and_accurate(self, lam, gamma0):
        # Across lam*t = 1200..1600 cosh/sinh overflow and exp(-lam t/2)
        # underflows; q must follow its leading term, the slow exponential
        # (the other term is below 1e-300 of it here), and keep decreasing.
        d = math.sqrt(lam * lam - 2.0 * gamma0 * lam)
        model = LorentzianModel(lam, gamma0)
        prev = 1.0
        for t in np.linspace(1200.0 / lam, 1600.0 / lam, 2001):
            q = model.q(t)
            lead = 0.5 * (1.0 + lam / d) * math.exp(0.5 * (d - lam) * t)
            assert q.imag == 0.0 and 0.0 < q.real < prev
            assert q.real == pytest.approx(lead, rel=1e-12)
            prev = q.real
        assert model.q(1e6) == 0.0

    @pytest.mark.parametrize("ratio", [1e12, 1e17, 1e20, 1e150])
    def test_markov_limit_keeps_its_digits(self, ratio):
        # lam >> gamma0: d rounds to lam, and (d - lam) / 2 once lost every
        # digit, leaving q = 1; |q|^2 must follow exp(-gamma0 t)
        gamma0 = 0.8
        for t in (2.5, 5.0):
            q2 = abs(LorentzianModel(ratio * gamma0, gamma0).q(t)) ** 2
            assert q2 == pytest.approx(math.exp(-gamma0 * t), rel=1e-9)

    def test_critical_coupling_continuous(self):
        # d = 0 exactly at gamma0 = lam/2; series evaluation must match limits
        q_crit = LorentzianModel(1.0, 0.5).q(2.0)
        q_near = LorentzianModel(1.0, 0.5 + 1e-9).q(2.0)
        assert q_crit.real == pytest.approx(q_near.real, abs=1e-7)
        assert q_crit.real == pytest.approx(math.exp(-1.0) * 2.0, abs=1e-12)


# whitespace that float() strips and that csv and the line reader keep in a field
_PADS = [" ", "\t", "\x0b", "\x0c", "\x85", "\u2028", "\u2029"]
# fields no plain chunk takes: NUL, a bad byte, a BOM, one character past csv's
# field limit, not a number, empty, an unclosed quote; and fields that numpy's
# reader and float() read differently: digits with an underscore or in another
# script, a hex float, an infinity, an overflow, \x1c/\x1e padding
_BAD_FIELDS = [b"1\x00", b"0.5\xff", b"\xef\xbb\xbf1", b"0" * 131073, b"abc", b"", b'"0.5',
               b"1_0", "\u0661\u0662".encode(), b"0x1p3", b"Infinity", b"1e400",
               b"\x1c0.5", b"0.5\x1e"]
# the plain header most often, so that most tables reach their rows
_HEADERS = [b"t,q_re,q_im"] * 4 + [b"\xef\xbb\xbft,q_re,q_im", b" t ,q_re,\tq_im ",
                                   b'"t",q_re,q_im', b'"t\n",q_re,q_im', b"time,q_re,q_im", b""]


@st.composite
def csv_tables(draw) -> bytes:
    """A table file: valid rows (increasing times from 0, q(0) = 1, |q| < 1),
    some fields padded, with LF or CRLF, and up to four edits at random lines:
    a quoted field (with or without a line break in it), a short, long or bad
    row, a trailing comma, a lone CR, a blank or whitespace-only line, a run
    of up to 40 blank lines, two rows joined into one by whitespace, a lone CR
    or a character str.splitlines() splits on."""
    step = draw(st.sampled_from([0.25, 5e-324, 2.5e-310, 1e300]))
    number = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-315]),
                       st.floats(-0.7, 0.7))
    eol = draw(st.sampled_from([b"\n", b"\r\n"]))

    def field(x: float) -> bytes:
        text = draw(st.sampled_from([repr, "{:.17e}".format, "{:.3G}".format]))(x)
        if draw(st.integers(0, 7)) == 0:
            text = draw(st.sampled_from(_PADS)) + text + draw(st.sampled_from(_PADS))
        return text.encode()

    lines = [[draw(st.sampled_from(_HEADERS)), eol]] + [
        [b",".join((field(k * step), field(1.0 if k == 0 else draw(number)),
                    field(0.0 if k == 0 else draw(number)))), eol]
        for k in range(draw(st.integers(1, 60)))]
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(1, len(lines) - 1))
        fields = lines[i][0].split(b",")
        j = draw(st.integers(0, len(fields) - 1))
        edit = draw(st.sampled_from(["quote", "quoted-break", "short", "long", "bad", "comma",
                                     "cr", "blank", "blanks", "space", "space-cr", "joined"]))
        if edit in ("quote", "quoted-break"):
            fields[j] = b'"' + fields[j] + (b'\n"' if edit == "quoted-break" else b'"')
        elif edit in ("short", "long"):
            fields = fields[:-1] if edit == "short" else fields + [b"0.5"]
        elif edit == "bad":
            fields[j] = draw(st.sampled_from(_BAD_FIELDS))
        elif edit == "comma":
            fields.append(b"")
        elif edit == "cr":
            lines[i][1] = b"\r"
        elif edit == "joined" and i + 1 < len(lines):
            sep = draw(st.sampled_from(_PADS + ["\x1c", "\x1d", "\x1e", "\r"])).encode()
            lines[i][0] = lines[i][0] + sep + lines.pop(i + 1)[0]
            continue
        elif edit == "blanks":
            lines[i:i] = [[b"", eol] for _ in range(draw(st.integers(2, 40)))]
            continue
        else:
            pad = b"" if edit == "blank" else draw(st.sampled_from(_PADS)).encode()
            lines.insert(i, [pad, b"\r" if edit == "space-cr" else eol])
            continue
        lines[i][0] = b",".join(fields)
    if draw(st.booleans()):
        lines[-1][1] = b""  # no break after the last line
    return b"".join(line + end for line, end in lines)


def _loaded(path):
    """The bits of the table at path, or the type and text of what it raises."""
    try:
        model = TabulatedModel.from_csv(path)
    except Exception as exc:  # compared, whatever it is
        return type(exc), str(exc)
    return model.times.tobytes(), model.values.tobytes()


class TestTabulated:
    def test_validation(self):
        with pytest.raises(ValueError):
            TabulatedModel((0.0, 1.0), (0.9, 0.5))  # q(0) != 1
        with pytest.raises(ValueError):
            TabulatedModel((0.5, 1.0), (1.0, 0.5))  # does not start at 0
        with pytest.raises(ValueError):
            TabulatedModel((0.0, 0.0), (1.0, 0.5))  # not increasing

    @pytest.mark.parametrize("times,values,message", [
        ((0.0, 1.0, math.nan, math.inf), (1.0, 0.5, 0.2, 0.1),
         "sample 2 is not finite: t = nan, q = (0.2+0j)"),
        ((0.0, 1.0, 2.0), (1.0, complex(0.5, math.nan), math.inf),
         "sample 1 is not finite: t = 1.0, q = (0.5+nanj)"),
        ((0.0, 1.0, 2.0, 2.0), (1.0, 0.5, 0.2, 0.1), "times must be strictly increasing"),
        ((0.0, 1.0, 2.0), (1.0, 0.5, -1.5j), "|q| exceeds 1 at a sample: 1.5"),
    ], ids=["nan-time", "nan-value", "repeated-time", "imaginary"])
    def test_first_offending_sample_named(self, times, values, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            TabulatedModel(times, values)

    def test_modulus_limit_is_judged_by_abs(self):
        # |q| within a few ulp of the limit 1 + 1e-12 at many phases, where
        # numpy's complex modulus and abs() (hypot) can differ in the last
        # bit: a table is rejected exactly when abs() exceeds the limit
        rng = np.random.default_rng(5)
        limit = 1.0 + 1e-12
        n_rejected = 0
        for phase in rng.uniform(-math.pi, math.pi, 400).tolist():
            r = limit + math.ulp(limit) * int(rng.integers(-3, 4))
            v = cmath.rect(r, phase)
            if abs(v) > limit:
                with pytest.raises(ValueError, match=re.escape(
                        f"|q| exceeds 1 at a sample: {abs(v)!r}")):
                    TabulatedModel((0.0, 1.0, 2.0), (1.0, v, 0.5))
                n_rejected += 1
            else:
                TabulatedModel((0.0, 1.0, 2.0), (1.0, v, 0.5))
        assert 0 < n_rejected < 400

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

    @pytest.mark.parametrize("eol", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_csv_line_endings(self, tmp_path, eol):
        path = tmp_path / "q.csv"
        path.write_bytes(eol.join(["t,q_re,q_im", "0,1,0", "1,0.6,0.1", ""]).encode())
        assert TabulatedModel.from_csv(path).values.tolist() == [1.0, 0.6 + 0.1j]

    def test_csv_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "q.csv"
        path.write_text("t,q_re,q_im\n0,1,0\n\n1,0.6,0.1\n\n2,0.3,0.05\n")
        model = TabulatedModel.from_csv(path)
        assert model.times.tolist() == [0.0, 1.0, 2.0]
        assert model.values.tolist() == [1.0, 0.6 + 0.1j, 0.3 + 0.05j]

    def test_fields_are_read_only_float_and_complex_arrays(self):
        model = TabulatedModel((0, 1, 2), (1, 0.5, 0.25j))
        assert model.times.dtype == np.float64 and model.values.dtype == np.complex128
        with pytest.raises(ValueError, match="read-only"):
            model.times[1] = 0.5
        with pytest.raises(ValueError, match="read-only"):
            model.values[1] = 0.0
        with pytest.raises(AttributeError):
            model.times = np.array([0.0, 1.0])
        assert model != TabulatedModel((0, 1, 2), (1, 0.5, 0.25j))  # by identity
        assert model == model

    def test_constructor_copies_its_input(self):
        times, values = np.array([0.0, 1.0, 2.0]), np.array([1.0, 0.5, 0.25j])
        model = TabulatedModel(times, values)
        before = model.q(1.5)
        times[1], values[1] = 1.9, 0.0
        assert model.q(1.5) == before == 0.25 + 0.125j
        assert model.times.tolist() == [0.0, 1.0, 2.0]

    @pytest.mark.parametrize("times,values", [
        ((0.0, 1.0, 2.0), (1.0, 0.5 - 0.1j, 0.25j)),
        ((0.0, 1.0, math.nan, math.inf), (1.0, 0.5, 0.2, 0.1)),
        ((0.0, 1.0, 2.0), (1.0, complex(0.5, math.nan), math.inf)),
        ((0.0, 1.0, 2.0, 2.0), (1.0, 0.5, 0.2, 0.1)),
        ((0.0, 1.0, 2.0), (1.0, 0.5, -1.5j)),
        ((0.5, 1.0), (1.0, 0.5)),
        ((0.0, 1.0), (0.9, 0.5)),
        ((0.0, 1.0), (1.0, 0.5, 0.2)),
        ((0.0,), (1.0,)),
    ], ids=["valid", "nan-time", "nan-value", "repeated-time", "imaginary",
            "late-start", "q0", "lengths", "one-sample"])
    def test_tuple_list_and_array_inputs_agree(self, times, values):
        outcomes = []
        for convert in (tuple, list, np.array):
            try:
                model = TabulatedModel(convert(times), convert(values))
                outcomes.append((model.times.tolist(), model.values.tolist()))
            except ValueError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1] == outcomes[2]

    def test_two_dimensional_times_are_rejected(self):
        with pytest.raises(ValueError, match="equally long"):
            TabulatedModel(((0.0, 1.0), (2.0, 3.0)), (1.0, 0.5))
        with pytest.raises(ValueError, match="equally long"):
            TabulatedModel(np.zeros((2, 2)), np.ones((2, 2)))

    def test_csv_samples_are_parsed_bit_for_bit(self, tmp_path):
        rng = np.random.default_rng(17)
        n = 2000
        times = np.concatenate(([0.0, 5e-324, 1e-310, 2.2e-308],
                                2e-308 + np.cumsum(rng.uniform(1e-3, 2.0, n - 4))))
        q_re, q_im = rng.uniform(-0.7, 0.7, (2, n))
        special = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-315])
        for part in (q_re, q_im):
            picks = rng.integers(0, n, n // 4)
            part[picks] = special[rng.integers(0, len(special), len(picks))]
        q_re[0], q_im[0], q_im[1], q_im[2] = 1.0, -0.0, 0.0, -0.0
        path = tmp_path / "q.csv"
        path.write_text("t,q_re,q_im\n" + "".join(
            f"{t!r},{x!r},{y!r}\n" for t, x, y in zip(times.tolist(), q_re.tolist(),
                                                    q_im.tolist())))
        model = TabulatedModel.from_csv(path)
        assert (np.signbit(q_im) & (q_im == 0.0)).sum() > 50  # -0.0 is written
        assert (model.times.view(np.uint64) == times.view(np.uint64)).all()
        assert (model.values.view(np.uint64)
                == np.column_stack((q_re, q_im)).ravel().view(np.uint64)).all()

    def test_loaded_table_holds_24_bytes_per_sample(self, tmp_path):
        n = 50_000
        t = np.linspace(0.0, 50.0, n)
        q = np.exp(-0.001 * t) * np.cos(0.3 * t)
        path = tmp_path / "q.csv"
        path.write_text("t,q_re,q_im\n" + "".join(
            f"{a!r},{b!r},0.0\n" for a, b in zip(t.tolist(), q.tolist())))
        tracemalloc.start()
        try:
            model = TabulatedModel.from_csv(path)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(model.times) == n
        assert held <= 1.25 * 24 * n
        assert peak <= 3.0 * 24 * n

    def test_csv_line_at_the_cap_loads(self, tmp_path):
        # three quoted fields of 131072 four-byte UTF-8 digits, the longest
        # csv lets through, and CRLF fill the cap exactly; one more byte is
        # refused
        zero, one = "\U0001D7CE", "\U0001D7CF"  # mathematical digits 0 and 1
        digits = '"' + zero * 131071 + one + '"'
        row = ",".join((digits, digits, '"' + zero * 131072 + '"'))
        assert len(row.encode()) + 2 == MAX_LINE_BYTES
        path = tmp_path / "q.csv"
        for eol in ("\n", "\r\n"):
            path.write_bytes(f"t,q_re,q_im{eol}0,1,0{eol}{row}{eol}".encode())
            assert TabulatedModel.from_csv(path).values.tolist() == [1.0, 1.0]
        path.write_bytes(f"t,q_re,q_im\n0,1,0\n {row}\r\n".encode())
        with pytest.raises(ValueError, match=f"^line 3: longer than {MAX_LINE_BYTES} bytes$"):
            TabulatedModel.from_csv(path)

    def test_field_limit_is_csvs_default(self):
        # _parse_chunk declines a last line longer than this copy, so that the
        # per-line reader raises csv's own field-limit error; bellopt never
        # sets the limit, so the current one is csv's default
        assert dynamics._FIELD_LIMIT == csv.field_size_limit()

    def test_csv_long_header_is_refused(self, tmp_path):
        path = tmp_path / "q.csv"
        path.write_text("t" + " " * MAX_LINE_BYTES + ",q_re,q_im\n0,1,0\n1,0.5,0\n")
        with pytest.raises(ValueError, match=f"^line 1: longer than {MAX_LINE_BYTES} bytes$"):
            TabulatedModel.from_csv(path)

    def test_csv_long_line_is_not_read_whole(self, tmp_path):
        path = tmp_path / "q.csv"
        with open(path, "wb") as fh:
            fh.write(b"t,q_re,q_im\n0,1,0\n1,")
            for _ in range(16):
                fh.write(b"0" * 2 ** 20)
            fh.write(b",0\n")
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="^line 3: longer than"):
                TabulatedModel.from_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * MAX_LINE_BYTES
        # only a chunk's last line can be long, and it is measured before
        # the chunk is copied, encoded or split
        assert peak < 3 * MAX_LINE_BYTES

    @settings(max_examples=300, deadline=None)
    @given(table=csv_tables(), budget=st.integers(1, 300),
           cap=st.one_of(st.just(MAX_PIECES), st.integers(1, 60)))
    # lines a plain chunk would misread: a whitespace line ending in a lone CR,
    # two rows joined by a character str.splitlines() splits on, one row past
    # the cap, a field float() reads but csv refuses, and a quoted row in a
    # later chunk
    @example(table=b"t,q_re,q_im\n0,1,0\n \r1,0.5,0\n", budget=300, cap=MAX_PIECES)
    @example(table=b"t,q_re,q_im\n0,1,0\n1,0.5,0\x1c2,0.25,0\n", budget=300, cap=MAX_PIECES)
    @example(table=b"t,q_re,q_im\n0,1,0\n1,0.5,0\n2,0.25,0\n", budget=300, cap=1)
    @example(table=b"t,q_re,q_im\n0,1,0\n1," + b"0" * 131073 + b",0\n", budget=300,
             cap=MAX_PIECES)
    @example(table=b't,q_re,q_im\n0,1,0\n1,0.5,0\n"2",0.25,0\n', budget=8, cap=MAX_PIECES)
    # padding that numpy strips and float() refuses, a chunk of short rows
    # alone, a whitespace-only line, a trailing comma, blank lines inside a
    # chunk, and chunks of blank lines only, some cut between the CR and LF of
    # a CRLF
    @example(table=b"t,q_re,q_im\n0,1,0\n1,\x1c0.5,0\n", budget=300, cap=MAX_PIECES)
    @example(table=b"t,q_re,q_im\n0,1\n1,0.5\n", budget=300, cap=MAX_PIECES)
    @example(table=b"t,q_re,q_im\n0,1,0\n \n1,0.5,0\n", budget=300, cap=MAX_PIECES)
    @example(table=b"t,q_re,q_im\n0,1,0\n1,0.5,0,\n", budget=300, cap=MAX_PIECES)
    @example(table=b"t,q_re,q_im\n0,1,0\n\n\n1,0.5,0\n\n", budget=300, cap=MAX_PIECES)
    @example(table=b"t,q_re,q_im\n0,1,0\n" + b"\n" * 20 + b"1,0.5,0\n", budget=8,
             cap=MAX_PIECES)
    @example(table=b"t,q_re,q_im\r\n0,1,0\r\n" + b"\r\n" * 20 + b"1,0.5,0\r\n", budget=7,
             cap=MAX_PIECES)
    def test_block_reader_matches_the_per_line_reader(self, tmp_path_factory, table,
                                                      budget, cap):
        # a small chunk budget starts the per-line reader at chunk 2 or later
        path = tmp_path_factory.getbasetemp() / "differential-table.csv"
        path.write_bytes(table)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dynamics, "MAX_PIECES", cap)
            default_chunks = _loaded(path)
            mp.setattr(dynamics, "_BLOCK_CHARS", budget)
            small_chunks = _loaded(path)
            mp.setattr(dynamics, "_parse_chunk", lambda chunk, times, values: False)
            per_line = _loaded(path)
        assert default_chunks == small_chunks == per_line

    @settings(max_examples=2000, deadline=None)
    @given(st.text("0123456789.eE+- \t", max_size=12))
    @example("1e400")
    @example("-1e-400")
    @example("5e-324")
    @example(" +.5e-3\t")
    @example("1.e5")
    @example("")
    def test_plain_fields_read_as_float_reads_them(self, field):
        # over the chunk alphabet, numpy's reader takes a field only if
        # float() does, with the same bits
        times, values = array("d"), array("d")
        if dynamics._parse_chunk(f"{field},{field},{field}\n", times, values):
            bits = np.float64(float(field)).tobytes()
            assert times.tobytes() == bits and values.tobytes() == bits * 2

    def test_plain_blocks_skip_the_per_line_reader(self, tmp_path, monkeypatch):
        # the per-line reader takes the header, then only the chunk holding the
        # first quoted row, from its first line on
        starts, read_rows = [], dynamics._read_rows

        def spy(lines, start, times, values):
            starts.append((start, len(times)))
            read_rows(lines, start, times, values)
        monkeypatch.setattr(dynamics, "_read_rows", spy)
        lines = ["t,q_re,q_im\n"] + [f"{k / 8!r},{0.999 ** k!r},0.0\n" for k in range(3000)]
        path = tmp_path / "q.csv"
        path.write_text("".join(lines))
        plain = TabulatedModel.from_csv(path)
        assert starts == [(0, 0)] and len(plain.times) == 3000
        path.write_bytes("".join(lines).replace("\n", "\r\n").encode())  # CRLF is plain too
        starts.clear()
        assert TabulatedModel.from_csv(path).values.tobytes() == plain.values.tobytes()
        assert starts == [(0, 0)]
        lines[2501] = '"' + lines[2501].replace(",", '","').rstrip("\n") + '"\n'
        path.write_text("".join(lines))
        starts.clear()
        quoted = TabulatedModel.from_csv(path)
        (_, _), (start, parsed) = starts
        assert 1 < start <= 2501 and parsed == start - 1
        assert sum(map(len, lines[start:2501])) < dynamics._BLOCK_CHARS
        assert quoted.times.tobytes() == plain.times.tobytes()
        assert quoted.values.tobytes() == plain.values.tobytes()


class TestAmplitudeDamping:
    def test_identity_at_q_one(self):
        rng = np.random.default_rng(31)
        rho = random_density(rng)
        out = apply_amplitude_damping(rho, 1.0)
        assert np.allclose(np.array(out.rows), np.array(rho.rows), atol=1e-15)

    def test_full_decay_reaches_ground(self):
        rng = np.random.default_rng(32)
        rho = random_density(rng)
        out = apply_amplitude_damping(rho, 0.0)
        expected = np.zeros((4, 4), dtype=complex)
        expected[3, 3] = 1.0
        assert np.allclose(np.array(out.rows), expected, atol=1e-12)

    def test_double_excitation_binomial(self):
        rho = validate_density_matrix(np.diag([1.0, 0.0, 0.0, 0.0]))
        for x in (0.2, 0.5, 0.9):
            out = apply_amplitude_damping(rho, math.sqrt(x))
            got = np.real(np.diag(np.array(out.rows)))
            expected = np.array([x * x, x * (1 - x), x * (1 - x), (1 - x) ** 2])
            oracle = np.real(np.diag(kraus_oracle(np.array(rho.rows), math.sqrt(x))))
            assert np.allclose(expected, oracle, atol=1e-15)
            assert np.allclose(got, expected, atol=1e-14)

    def test_cptp_on_random_inputs(self):
        rng = np.random.default_rng(33)
        for _ in range(100):
            rho = random_density(rng)
            q = math.sqrt(rng.uniform(0, 1)) * np.exp(1j * rng.uniform(-np.pi, np.pi))
            out = np.array(apply_amplitude_damping(rho, q).rows)
            assert abs(out.trace() - 1.0) <= 1e-12
            assert np.abs(out - out.conj().T).max() <= 1e-12
            assert np.linalg.eigvalsh(out).min() >= -1e-10

    def test_amplitude_above_one_rejected(self, mixed_rho):
        with pytest.raises(ValueError, match=r"\|q\| must be <= 1, got 1.1"):
            apply_amplitude_damping(mixed_rho, 1.1)


@st.composite
def psd_edge_x_states(draw, trace_miss=True):
    """X states at the tolerance edges of the PSD and trace rules: rho11..rho33
    drawn (one of them possibly down to -POSITIVITY_TOL), rho44 = 1 - (rho11 +
    rho22 + rho33) as evolve_x sums it, plus a trace miss within +-TRACE_TOL
    unless trace_miss is False, and each coherence 0 or the largest modulus
    its block accepts, at a phase of 1, -1, i or -i (which keep it exact)."""
    w = [draw(st.floats(1e-3, 1.0)) for _ in range(4)]
    p = [v / sum(w) for v in w][:3]
    negative = draw(st.sampled_from([None, 0, 1, 2]))
    if negative is not None:
        p[negative] = -draw(st.floats(0.0, POSITIVITY_TOL))
    rho44 = 1.0 - (p[0] + p[1] + p[2])
    if trace_miss:
        rho44 += draw(st.floats(-TRACE_TOL, TRACE_TOL))
    # a population near -POSITIVITY_TOL may fail the rule by rounding alone
    assume(_x_least_eigenvalue(*p, rho44, 0.0, 0.0) >= -POSITIVITY_TOL)
    phases = st.sampled_from([1.0, -1.0, 1j, -1j])
    rho14 = draw(st.sampled_from([0.0, largest_accepted_modulus(p[0], rho44)])) * draw(phases)
    rho23 = draw(st.sampled_from([0.0, largest_accepted_modulus(p[1], p[2])])) * draw(phases)
    try:
        return XState(*p, rho44, rho14, rho23)
    except TraceNotOne:  # a miss at TRACE_TOL may round past it in the sum
        reject()


class TestEvolveX:
    @settings(max_examples=200, deadline=None)
    @given(psd_edge_x_states(trace_miss=False), st.floats(1.0, Q_ABS_MAX, exclude_min=True),
           st.sampled_from([1.0, -1.0]))
    @example(XState(0.5, 0.0, 0.0, 0.5, 0.5000000000999999, 1e-10), 1.0 + 5e-13, 1.0)
    def test_q_rounding_above_one_keeps_an_edge_state(self, x0, mod_q, sign):
        # a real q with 1 < |q| <= Q_ABS_MAX acts as q / |q| = +-1, which
        # leaves the state as it is, where q^2 would scale rho14 past its bound
        q = sign * mod_q
        assert evolve_x(x0, q) == x0
        assert_rows_bit_for_bit(x0, TabulatedModel((0.0, 1.0), (1.0, q)), [0.0, 1.0])
        rho0 = x_to_dense(x0)
        assert np.array_equal(np.array(apply_amplitude_damping(rho0, q).rows), np.array(rho0.rows))

    # A unit-modulus q whose rounded q * q has modulus 1 + ulps scales rho14
    # of this edge state one ulp past its PSD bound, as the dense channel
    # does; the evolved state is not judged again, so neither path refuses it.
    EDGE_STATE = XState(0.5, 0.0, 0.0, 0.5, 0.5000000000999999, 1e-10)

    def test_unit_phase_keeps_an_edge_state(self):
        q = -0.6035880804157655 - 0.7972963245745032j
        assert abs(q) == 1.0
        x = evolve_x(self.EDGE_STATE, q)
        # the rotation rounds: |rho14| moves by at most one ulp
        m14 = abs(self.EDGE_STATE.rho14)
        assert abs(abs(x.rho14) - m14) <= math.ulp(m14)

    def test_rotating_phase_scan_of_an_edge_state(self):
        t = np.linspace(0.0, 1.0, 21)
        scan = time_scan(self.EDGE_STATE, TabulatedModel(t, np.exp(1j * np.pi * t)), t)
        assert len(scan.t) == 21

    @settings(max_examples=300, deadline=None)
    @given(psd_edge_x_states(), st.one_of(
        damping_amplitudes(), st.sampled_from([1.0, -1.0, 1j, -1j, 0.0]),
        st.floats(-math.pi, math.pi).map(lambda a: complex(math.cos(a), math.sin(a)))))
    # the reproductions: a unit phase whose rounded q * q has modulus 1 + ulps,
    # the first refused row of the rotating-phase scan, a start off in trace, and
    # one off in trace by 9.99e-11 with its outer block at the PSD edge, whose
    # image has least eigenvalue -1.999e-10 even at q = 1, within the bound
    @example(EDGE_STATE, -0.6035880804157655 - 0.7972963245745032j)
    @example(EDGE_STATE, 0.8910065241883679 + 0.4539904997395468j)
    @example(XState(0.5, 0.0, 0.0, 0.5 + 0.9e-10, 0.5 + 1.44e-10, 0.0), 1.0)
    @example(XState(0.8414893328205039, 5.539961710207487e-08, 0.15851057315837955,
                    3.8721399710092685e-08, 0.00018074234076465332, 0), 1.0)
    def test_edge_states_evolve_without_a_second_judgement(self, x0, q):
        # q in the closed unit disc: the evolved state is the channel's image
        # of a judged start, so neither evolve_x nor the dense channel refuses
        # it; they agree but for the start's trace miss, which evolve_x drops
        x = evolve_x(x0, q)
        channel = np.array(apply_amplitude_damping(x_to_dense(x0), q).rows)
        trace = x0.rho11 + x0.rho22 + x0.rho33 + x0.rho44
        assert np.abs(np.array(x_to_dense(x).rows) - channel).max() <= 1e-12 + abs(trace - 1.0)
        assert_rows_bit_for_bit(x0, TabulatedModel((0.0, 1.0), (1.0, q)), [0.0, 1.0])
        # the conjectured bound: the start's PSD slack plus the trace excess
        # that rho44 = 1 - the rest drops, up to a few ulp
        lam_min = _x_least_eigenvalue(x.rho11, x.rho22, x.rho33, x.rho44,
                                      abs(x.rho14), abs(x.rho23))
        assert lam_min >= -(POSITIVITY_TOL + max(0.0, trace - 1.0)) - 8 * math.ulp(1.0)

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
        closed = np.array(x_to_dense(evolve_x(x, q)).rows)
        channel = np.array(apply_amplitude_damping(x_to_dense(x), q).rows)
        assert np.abs(closed - channel).max() <= 1e-12

    def test_exponential_semigroup(self):
        rng = np.random.default_rng(35)
        model = ExponentialModel(gamma=0.7)
        for _ in range(50):
            x = random_x_state(rng)
            t1, t2 = rng.uniform(0, 3, 2)
            two_steps = evolve_x(evolve_x(x, model.q(t1)), model.q(t2))
            one_step = evolve_x(x, model.q(t1 + t2))
            dense_a, dense_b = (np.array(x_to_dense(x).rows) for x in (two_steps, one_step))
            assert np.abs(dense_a - dense_b).max() <= 1e-12


class TestEWL:
    def test_r_zero_is_maximally_mixed(self):
        x = ewl_state(EWLParams(alpha2=0.3, r=0.0, delta=1.0))
        assert np.allclose(np.array(x_to_dense(x).rows), np.eye(4) / 4.0, atol=1e-15)

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
            got = np.array(x_to_dense(ewl_state(EWLParams(alpha2, r, delta))).rows)
            assert np.abs(got - expected).max() <= 1e-15

    def test_entries_are_the_plain_float_formula(self):
        # bit for bit, delta != 0 included, with the formula in Python floats
        # and complexes: the array-capable entries change no scalar bit
        rng = np.random.default_rng(46)
        for _ in range(200):
            alpha2, r, delta = rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(-4, 4)
            bg = 0.25 * (1.0 - r)
            rho23 = r * math.sqrt(alpha2 * (1.0 - alpha2)) * cmath.exp(1j * delta)
            assert ewl_state(EWLParams(alpha2, r, delta)) == XState(
                bg, bg + r * (1.0 - alpha2), bg + r * alpha2, bg, 0.0j, rho23)


def trajectory_eigenvalues(x0: XState, x: float) -> tuple[float, float, float]:
    """(u1, u2, u3) of x0 evolved to |q|^2 = x, from its trajectory
    coefficients."""
    k1, k3, b, a = trajectory_coefficients(x0)
    return (k1 * x) ** 2, (1.0 + b * x + a * x * x) ** 2, (k3 * x) ** 2


def chained_eigenvalues(x0: XState, x: float):
    return x_state_eigenvalues(evolve_x(x0, math.sqrt(x)))


class TestEWLEigenvalues:
    def test_pure_limits(self):
        x0 = ewl_state(EWLParams(0.3, 1.0))
        assert trajectory_eigenvalues(x0, 1.0) == pytest.approx((0.84, 1.0, 0.84),
                                                                abs=1e-15)
        assert trajectory_eigenvalues(x0, 0.0) == (0.0, 1.0, 0.0)

    def test_half_decay_point(self):
        u1, u2, u3 = trajectory_eigenvalues(ewl_state(EWLParams(0.3, 1.0)), 0.5)
        assert u2 == pytest.approx(0.0, abs=1e-15)
        assert u1 == pytest.approx(0.21, abs=1e-15)
        assert u3 > u2  # set 2 is active

    def test_matches_channel_chain(self):
        rng = np.random.default_rng(38)
        states = [ewl_state(EWLParams(alpha2, r, 0.4))
                  for alpha2 in np.linspace(0.0, 1.0, 8)
                  for r in np.linspace(0.0, 1.0, 8)]
        states += [random_x_state(rng) for _ in range(64)]
        for x0 in states:
            for x in np.linspace(0.0, 1.0, 8):
                chained = chained_eigenvalues(x0, x)
                assert trajectory_eigenvalues(x0, x) == pytest.approx(
                    (chained.u1, chained.u2, chained.u3), abs=1e-12)


def bisect_crossings(p, n: int = 4001) -> list[float]:
    """Independent root oracle: sign scan + bisection on u2 - u3 of the
    channel-evolved state (p an EWLParams or an XState)."""
    x0 = ewl_state(p) if isinstance(p, EWLParams) else p

    def f(x):
        u = x_state_eigenvalues(evolve_x(x0, math.sqrt(x)))
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
                u = chained_eigenvalues(ewl_state(p), x)
                assert abs(u.u2 - u.u3) <= 1e-10

    def test_sign_flips_across_each_root(self):
        x0 = ewl_state(EWLParams(alpha2=0.42, r=0.77))
        for x in crossing_levels(x0):
            lo = chained_eigenvalues(x0, max(0.0, x - 1e-6))
            hi = chained_eigenvalues(x0, min(1.0, x + 1e-6))
            assert (lo.u2 - lo.u3) * (hi.u2 - hi.u3) < 0

    def test_general_x_states_match_oracle(self):
        # rho14 != 0 and rho11 > 0: the general coefficients, not the EWL ones
        rng = np.random.default_rng(39)
        for _ in range(25):
            x0 = random_x_state(rng)
            levels = crossing_levels(x0)
            oracle = bisect_crossings(x0)
            assert len(levels) == len(oracle)
            assert levels == pytest.approx(oracle, abs=1e-9)


def _scalar_quadratic_roots(a, b):
    # scalar reference for _quadratic_roots: one pair of coefficients
    if a == 0.0:
        return [-1.0 / b] if b else []
    disc = b * b - 4.0 * a
    if disc <= 1e-14 * max(b * b, abs(4.0 * a)):
        return []
    s = -b + math.copysign(math.sqrt(disc), -b)
    r1 = s / (2.0 * a)
    # 1 / (a r1) is 0 once r1 overflows, for a subnormal a
    return [r1, 2.0 / s if math.isinf(r1) else 1.0 / (a * r1)]


def _scalar_sign_changes(f, candidates):
    # scalar reference for _sign_changes: one list of candidates
    xs = sorted(min(x, 1.0) for x in candidates if 0.0 < x <= 1.0 + 1e-12)
    xs = [x for i, x in enumerate(xs) if i == 0 or x - xs[i - 1] > 1e-12]
    levels = []
    for prev, x, nxt in zip([-1.0] + xs, xs, xs[1:] + [3.0]):  # -1, 3: no neighbour
        below = _sign(f(max(x - 1e-7, 0.5 * (prev + x))))
        above = _sign(f(min(x + 1e-7, 0.5 * (x + nxt))))
        if below != above:
            levels.append((x, above))
    return levels


def _scalar_levels(k1, k3, b, a):
    """(crossing levels, violation levels) by the scalar path, the violation
    levels from np.roots on p(x) = (u1 + u2 - 1) / x.  np.roots divides by
    a^2, so it loses the small root of a tiny normal a (about 1e-150 to 1e-30)
    to rounding; _COEFFICIENTS draws no such a."""
    crossing = _scalar_sign_changes(
        lambda x: (1.0 + b * x + a * x * x) ** 2 - (k3 * x) ** 2,
        _scalar_quadratic_roots(a, b - k3) + _scalar_quadratic_roots(a, b + k3))
    candidates = [1.0 / math.hypot(k1, k3)] if k1 else []
    p = [a * a, 2.0 * a * b, b * b + 2.0 * a + k1 * k1, 2.0 * b]
    # np.roots overflows dividing by a leading coefficient this small
    while len(p) > 1 and (p[0] == 0.0 or max(abs(c / p[0]) for c in p) == math.inf):
        p.pop(0)
    cubic = np.roots(p)
    candidates += cubic.real[np.abs(cubic.imag) <= 1e-9].tolist()
    violation = _scalar_sign_changes(
        lambda x: (k1 * x) ** 2 + max((1.0 + b * x + a * x * x) ** 2, (k3 * x) ** 2) - 1.0,
        candidates)
    return [x for x, _ in crossing], violation


def violation_levels(x0: XState) -> list[tuple[float, bool]]:
    """x0's violation levels, with whether bmax >= 2 just above each."""
    levels, above = _violation_rows(*np.reshape(trajectory_coefficients(x0), (4, 1, 1)))
    found = ~np.isnan(levels[0])
    return list(zip(levels[0][found].tolist(), above[0][found].tolist()))


def _at_disc_cutoff(k1, k3, a, above):
    """Coefficients whose quadratic a x^2 + (b - k3) x + 1, with a near-double
    root at 1 / sqrt(a), has the last discriminant at or below the 1e-14
    cutoff, or the first one above it."""
    b = k3 - 2.0 * math.sqrt(a)  # disc = 0
    while True:
        bp = b - k3
        if bp * bp - 4.0 * a > 1e-14 * max(bp * bp, abs(4.0 * a)):
            return (k1, k3, b if above else last, a)
        last, b = b, math.nextafter(b, -math.inf)


def _magnitude(hi):
    return st.one_of(st.just(0.0), st.floats(1e-6, hi))


_COEFFICIENTS = st.one_of(
    x_states().map(trajectory_coefficients),
    st.tuples(_magnitude(2.0), _magnitude(2.0), _magnitude(4.0).map(lambda v: -v),
              st.one_of(_magnitude(4.0), st.floats(5e-324, 1e-300))))


_EWL_STATES = st.builds(EWLParams, st.floats(0.0, 1.0), st.floats(0.0, 1.0),
                        st.floats(-math.pi, math.pi)).map(ewl_state)


# the ground state (b = 0), and a state within the PSD slack with b = -1e-323
_NO_LEVEL_STATES = [XState(0.0, 0.0, 0.0, 1.0, 0j, 0j),
                    XState(0.0, 5e-324, 0.0, 1.0, 0.9e-5, 0j)]


class TestArrayLevels:
    """The row level finders against references, for every row of one call:
    crossing levels equal a scalar path bit for bit, and violation levels
    match np.roots, a dense sign scan and exact arithmetic."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_COEFFICIENTS, min_size=1, max_size=6))
    @example([trajectory_coefficients(ewl_state(EWLParams(0.3, 1.0))),  # a = 0
              trajectory_coefficients(ewl_state(EWLParams(0.5, 1.0))),  # a root at 1
              trajectory_coefficients(XState(0.25, 0.25, 0.25, 0.25, 0.1, 0.1j))])  # k3 = 0
    @example([_at_disc_cutoff(0.7, 0.5, 4.0, above=False),
              _at_disc_cutoff(0.7, 0.5, 4.0, above=True),
              _at_disc_cutoff(0.0, 0.25, 1.5, above=True)])
    @example([(0.5, 1e-13, -2.0, 0.0), (0.5, 2e-12, -2.0, 0.0),  # roots 1e-12 apart
              (0.5, 0.5, -0.5 - 4e-13, 0.0), (0.5, 0.5, -0.5 + 4e-13, 0.0),  # near 1
              (0.5, 0.5, -0.5, 0.0), (0.0, 0.0, 0.0, 0.0)])
    @example([trajectory_coefficients(XState(rho11, 0.5, 0.5, 0.0, 0j, 0.5))  # subnormal a
              for rho11 in (1e-310, 1e-320, 5e-324, 1e-160, 0.0)])
    @example([(0.3, 0.2, -1.5, 4e-310), (0.0, 0.7, -3.0, 5e-324), (0.9, 0.0, 0.0, 1e-315),
              (1.2, 1.0, -2.5, 2e-300), (0.4, 0.3, -1e-200, 1e-320)])
    @example([trajectory_coefficients(x0) for x0 in _NO_LEVEL_STATES])
    def test_rows_match_the_scalar_path(self, coefficients):
        # crossing levels bit for bit; violation levels, from the companion
        # rather than np.roots, with the same count and direction, each within
        # 1e-13 relative
        k1, k3, b, a = np.array(coefficients).T[:, :, None]
        rows = _crossing_rows(k3, b, a)
        levels, above = _violation_rows(k1, k3, b, a)
        for coefficient, row, x, up in zip(coefficients, rows, levels, above):
            crossing, violation = _scalar_levels(*coefficient)
            assert row[~np.isnan(row)].tolist() == crossing
            assert np.isnan(row[len(crossing):]).all()
            found = ~np.isnan(x)
            assert [1.0 if u else -1.0 for u in up[found]] == [s for _, s in violation]
            assert x[found] == pytest.approx([v for v, _ in violation], rel=1e-13, abs=0.0)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(x_states(), _EWL_STATES, psd_edge_x_states()))
    @example(XState(1e-100, 0.475, 0.475, 0.05, 0j, 0.285))  # np.roots lost its level
    @example(XState(5e-324, 0.5, 0.5, 0.0, 0j, 0.5))  # subnormal rho11
    @example(XState(1e-310, 0.5, 0.5, 0.0, 0j, 0.5))
    @example(_NO_LEVEL_STATES[0])  # b = 0
    @example(_NO_LEVEL_STATES[1])  # subnormal b
    def test_violation_levels_match_a_dense_sign_scan(self, x0):
        """Between neighbouring points of a dense grid, the violation levels are
        as many, modulo 2, as the sign changes of max(u1 + u2, u1 + u3) - 1 from
        the closed-form u1, u2, u3, and the last one leaves the sign of the
        right point.  No X state has a level below 0.2, so the grid sees every
        level but one within 1e-9 of x = 1."""
        k1, k3, b, a = trajectory_coefficients(x0)
        grid = np.linspace(1e-3, 1.0 - 1e-9, 20001)
        u1, u2, u3 = (k1 * grid) ** 2, (1.0 + b * grid + a * grid * grid) ** 2, (k3 * grid) ** 2
        nonneg = np.maximum(u1 + u2, u1 + u3) - 1.0 >= 0.0
        levels = [(x, up) for x, up in violation_levels(x0) if x <= grid[-1]]
        assert all(x > grid[0] for x, _ in levels)
        cell = np.searchsorted(grid, [x for x, _ in levels]).astype(int) - 1
        odd = np.zeros(len(grid) - 1, dtype=bool)
        np.logical_xor.at(odd, cell, True)
        np.testing.assert_array_equal(odd, nonneg[1:] != nonneg[:-1])
        for (_, up), i, after in zip(levels, cell.tolist(), cell[1:].tolist() + [-1]):
            if i != after:  # the last level in its cell
                assert up == nonneg[i + 1]

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(x_states(), psd_edge_x_states()))
    def test_companion_first_row_is_bounded(self, x0):
        # the companion's first row, -(c, 2ab, a^2) / 2b as eigvals receives it,
        # is finite and within 4
        companions, eigvals = [], np.linalg.eigvals

        def spy(m):
            companions.append(m.copy())
            return eigvals(m)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(np.linalg, "eigvals", spy)
            violation_levels(x0)
        first = companions[0][0, 0]
        assert np.isfinite(first).all() and (abs(first) <= 4.0).all()
        assert first[0] != 0.0  # -c / 2b, so not the zeros of a row left out

    def test_cubic_levels_lie_within_8_ulps_of_a_root(self):
        # p = (u1 + u2 - 1) / x changes sign, in exact arithmetic, within 8 ulps
        # of each level that is not 1 / hypot(k1, k3); without the Newton step
        # about a quarter of them lie further out
        rng = np.random.default_rng(41)
        coefficients = [trajectory_coefficients(random_x_state(rng)) for _ in range(3000)]
        levels, _ = _violation_rows(*np.array(coefficients).T[:, :, None])
        n_levels = 0
        for (k1, k3, b, a), row in zip(coefficients, levels):
            hypot = math.hypot(k1, k3)
            k1, b, a = map(Fraction, (k1, b, a))
            for x in row[~np.isnan(row)].tolist():
                if abs(x * hypot - 1.0) <= 1e-12 or x == 1.0:
                    continue
                lo, hi = (Fraction(x + d * math.ulp(x)) for d in (-8, 8))
                p = [((a * a * v + 2 * a * b) * v + b * b + 2 * a + k1 * k1) * v + 2 * b
                     for v in (lo, hi)]
                assert p[0] * p[1] <= 0
                n_levels += 1
        assert n_levels > 50

    @pytest.mark.parametrize("x0", _NO_LEVEL_STATES)
    def test_no_violation_level_without_a_finite_companion(self, x0):
        # the ground state has b = 0; a subnormal b in the PSD slack makes
        # c / 2b overflow, and its one real root lies near 1e-313
        assert violation_levels(x0) == []
        assert scan_events(x0, ExponentialModel(1.0), 800.0) == []

    def test_surface_equals_crossing_roots(self):
        alpha2, r, roots = crossing_surface(40, 25)
        assert len(alpha2) == len(r) == len(roots) == 1000
        for a2, rr, row in zip(alpha2.tolist(), r.tolist(), roots):
            found = crossing_roots(EWLParams(a2, rr))
            assert row[:len(found)].tolist() == found
            assert np.isnan(row[len(found):]).all()


class TestSubnormalRho11:
    """A state with a subnormal rho11 has the levels and events of rho11 = 0:
    a subnormal leading coefficient loses no root and overflows nothing."""

    @staticmethod
    def state(rho11):
        return XState(rho11, 0.5, 0.5, 0.0, 0j, 0.5)

    @pytest.mark.parametrize("rho11", [1e-310, 1e-320, 5e-324])
    def test_levels_and_events_equal_those_at_zero(self, rho11):
        x0, zero = self.state(rho11), self.state(0.0)
        assert crossing_levels(x0) == crossing_levels(zero) == [0.3333333333333333, 1.0]
        assert violation_levels(x0) == violation_levels(zero)
        for model, tmax in ((ExponentialModel(1.0), 5.0), (LorentzianModel(1.0, 5.0), 12.0)):
            events = scan_events(x0, model, tmax)
            assert events == scan_events(zero, model, tmax)
            assert EventKind.SET_JUMP in [e.kind for e in events]

    @pytest.mark.parametrize("rho11", [1e-40, 1e-100, 1e-150, 1e-310, 5e-324])
    def test_tiny_rho11_keeps_its_violation_level(self, rho11):
        # bmax = 2 where u1 + u2 = 1, at x = -2b / (b^2 + k1^2) for rho11 = 0;
        # np.roots, dividing by a^2, lost it for a tiny normal rho11
        x0, zero = (XState(r, 0.475, 0.475, 0.05 - r, 0j, 0.285) for r in (rho11, 0.0))
        assert violation_levels(x0) == violation_levels(zero)
        assert violation_levels(x0) == [(pytest.approx(3.8 / (1.9 ** 2 + 0.57 ** 2)), True)]
        kinds = [e.kind for e in scan_events(x0, ExponentialModel(1.0), 1.0)]
        assert kinds == [EventKind.VIOLATION_OFF, EventKind.SET_JUMP, EventKind.SET_JUMP]


class TestTimeScan:
    def test_reference_trajectory_events(self):
        p = EWLParams(alpha2=0.3, r=1.0, delta=0.0)
        events = scan_events(ewl_state(p), ExponentialModel(gamma=1.0), 5.0)
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
        scan = time_scan(bell_x, model, np.linspace(0, 10, 50))
        assert scan_events(bell_x, model, 10.0) == []
        assert scan.bmax.tolist() == pytest.approx([2 * math.sqrt(2)] * 50, abs=1e-12)

    def test_maximally_mixed_never_violates(self):
        x0 = XState(0.25, 0.25, 0.25, 0.25, 0.0, 0.0)
        scan = time_scan(x0, ExponentialModel(1.0), np.linspace(0, 5, 200))
        assert (scan.bmax < 2.0).all()
        assert not [e for e in scan_events(x0, ExponentialModel(1.0), 5.0)
                    if e.kind in (EventKind.VIOLATION_ON, EventKind.VIOLATION_OFF)]

    def test_two_point_grid_finds_both_jumps(self):
        p = EWLParams(alpha2=0.3, r=1.0, delta=0.0)
        x0, model = ewl_state(p), ExponentialModel(gamma=1.0)
        scan = time_scan(x0, model, [0.0, 5.0])
        events = scan_events(x0, model, 5.0)
        jumps = [e for e in events if e.kind is EventKind.SET_JUMP]
        assert len(jumps) == 2 and len(events) == 3 and len(scan.t) == 2
        assert all(0.0 < e.t <= 5.0 for e in events)
        assert sorted(j.q2 for j in jumps) == pytest.approx(crossing_roots(p), abs=1e-8)

    def test_bmax_consistency_invariant(self):
        p = EWLParams(alpha2=0.25, r=0.9, delta=0.3)
        scan = time_scan(ewl_state(p), ExponentialModel(0.5),
                         np.linspace(0, 4, 50))
        for u1, u2, u3, bmax in zip(scan.u1, scan.u2, scan.u3, scan.bmax):
            expected = 2.0 * math.sqrt(u1 + max(u2, u3))
            assert bmax == pytest.approx(expected, abs=1e-12)

    def test_delta_independence_of_bmax_not_of_phis(self):
        grid = np.linspace(0, 3, 40)
        scan0 = time_scan(ewl_state(EWLParams(0.3, 1.0, 0.0)),
                          ExponentialModel(1.0), grid)
        scan1 = time_scan(ewl_state(EWLParams(0.3, 1.0, math.pi / 2)),
                          ExponentialModel(1.0), grid)
        assert scan0.bmax.tolist() == pytest.approx(scan1.bmax.tolist(), abs=1e-12)
        assert (np.abs(scan0.phis - scan1.phis) > 1e-6).any()

    def test_grid_validation(self, bell_x):
        model = ExponentialModel(1.0)
        with pytest.raises(ValueError):
            time_scan(bell_x, model, [0.5, 1.0])
        with pytest.raises(ValueError):
            time_scan(bell_x, model, [0.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="t_grid must be one-dimensional"):
            time_scan(bell_x, model, [[0.0, 1.0]])
        with pytest.raises(ValueError, match="t_grid must not be empty"):
            time_scan(bell_x, model, [])

    def test_lorentzian_revivals_cross_repeatedly(self):
        # strong coupling: |q|^2 revives, so the boundary is crossed > 2 times
        p = EWLParams(alpha2=0.3, r=1.0, delta=0.0)
        events = scan_events(ewl_state(p), LorentzianModel(lam=1.0, gamma0=20.0), 6.0)
        jumps = [e for e in events if e.kind is EventKind.SET_JUMP]
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
        val = (0.5 * (1.0 + r) * cmath.exp(-gamma0 * lam / (d + lam) * t)
               + 0.5 * (1.0 - r) * cmath.exp(-0.5 * (d + lam) * t))
    else:
        if abs(z) < 1e-6:
            sinhc = 1.0 + z * z / 6.0
        else:
            sinhc = cmath.sinh(z) / z
        val = cmath.exp(-0.5 * lam * t) * (cmath.cosh(z) + 0.5 * lam * t * sinhc)
    return complex(val.real, 0.0)


def ref_q_table(model: TabulatedModel, t: float) -> complex:
    times, values = model.times.tolist(), model.values.tolist()
    i = bisect.bisect_right(times, t) - 1
    if i >= len(times) - 1:
        return values[-1]
    t0, t1 = times[i], times[i + 1]
    w = (t - t0) / (t1 - t0)
    return values[i] * (1.0 - w) + values[i + 1] * w


PROBES_PER_INTERVAL = 9


def _bisect_sign_change(f, lo: float, hi: float) -> float:
    s_lo = _sign(f(lo))
    for _ in range(80):
        if hi - lo <= EVENT_REL_TOL * max(abs(lo), abs(hi)):
            break
        mid = 0.5 * (lo + hi)
        if _sign(f(mid)) == s_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def reference_time_scan(x0: XState, model, t_grid):
    """A probe-grid scan as a scalar loop: each grid interval is probed at 9
    interior points for sign changes of u2 - u3 and bmax - 2 of the evolved
    state, and each change is bisected in t.  Returns the records and
    whether some interval held two or more changes of one quantity, where
    the probes may miss a pair of crossings."""
    t_grid = [float(t) for t in t_grid]

    def eigs_at(t):
        return x_state_eigenvalues(evolve_x(x0, model.q(t)))

    def jump_fn(t):
        u = eigs_at(t)
        return u.u2 - u.u3

    def violation_fn(t):
        return eigs_at(t).bmax - 2.0

    records = []
    coarse = False
    for i, t in enumerate(t_grid):
        q = model.q(t)
        settings_, u = optimal_settings(evolve_x(x0, q))
        events = []
        if i > 0:
            lo, hi = t_grid[i - 1], t
            probes = np.linspace(lo, hi, PROBES_PER_INTERVAL + 2)
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
                coarse |= len(crossings) >= 2
                for c_lo, c_hi, s_lo in crossings:
                    t_star = _bisect_sign_change(fn, float(c_lo), float(c_hi))
                    if kinds is None:
                        kind = EventKind.SET_JUMP
                    else:
                        kind = kinds[0] if s_lo < 0 else kinds[1]
                    events.append(ScanEvent(kind, t_star,
                                            abs(model.q(t_star)) ** 2))
        events.sort(key=lambda e: e.t)
        records.append((t, abs(q) ** 2, u, settings_, tuple(events)))
    return records, coarse


def scalar_row(t, q2, u, settings_) -> tuple:
    """A row of the scalar path, with the fields of a TimeScan row."""
    return (t, q2, u.u1, u.u2, u.u3, u.b1, u.b2, u.bmax, int(u.region), u.tie,
            *settings_.thetas, *settings_.phis)


def scan_rows(scan) -> list[tuple]:
    """The rows of a TimeScan, as Python values in scalar_row order."""
    columns = (scan.t, scan.q2, scan.u1, scan.u2, scan.u3, scan.b1, scan.b2,
               scan.bmax, scan.region, scan.tie, *scan.thetas.T, *scan.phis.T)
    return list(zip(*(c.tolist() for c in columns)))


def _complex_table() -> TabulatedModel:
    # strong-coupling revivals with a rotating phase, so both parts vary
    times = np.linspace(0.0, 6.0, 121)
    values = [LorentzianModel(1.0, 5.0).q(t) * cmath.exp(0.7j * t) for t in times]
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
    """(rows, events) of time_scan and scan_events and of the probe
    reference, and whether the reference grid was too coarse for its probes;
    neither scan may warn.  Each event is paired with the row i whose
    interval (t[i - 1], t[i]] holds it."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        new = time_scan(x0, model, grid)
        events = scan_events(x0, model, grid[-1])
    ref, coarse = reference_time_scan(x0, model, grid)
    new_events = [(int(np.searchsorted(grid, e.t, side="left")), e) for e in events]
    ref_events = [(i, e) for i, r in enumerate(ref) for e in r[4]]
    return (scan_rows(new), new_events, [scalar_row(*r[:4]) for r in ref],
            ref_events, coarse)


def _matches(ref_event, events) -> bool:
    """ref_event (row, event) is among events: same row and kind, t within
    EVENT_REL_TOL."""
    i, e = ref_event
    return any(j == i and f.kind is e.kind
               and abs(f.t - e.t) <= EVENT_REL_TOL * e.t for j, f in events)


def _unseen_pairs(new_events, ref_events, probe_step: float) -> bool:
    """The events the probe reference lacks come in pairs of one kind
    closer than a probe step: two crossings no probe sign could see."""
    extra = [e for _, e in new_events if not any(
        f.kind is e.kind and abs(f.t - e.t) <= EVENT_REL_TOL * e.t
        for _, f in ref_events)]
    return len(extra) % 2 == 0 and all(
        a.kind is b.kind and b.t - a.t < probe_step
        for a, b in zip(extra[::2], extra[1::2]))


class TestScanMatchesScalarLoop:
    @pytest.mark.parametrize("name,model,tmax", SCAN_MODELS,
                             ids=[m[0] for m in SCAN_MODELS])
    def test_identical_records_events_and_warnings(self, name, model, tmax):
        # rows bit for bit; every event of the probe reference, and beyond
        # them only pairs its probes could not see, wherever its grid is
        # fine enough; no warnings
        grid = np.linspace(0.0, tmax, 45)
        n_events = 0
        for x0 in SCAN_STATES:
            new_rows, new_events, ref_rows, ref_events, coarse = _both_scans(
                x0, model, grid)
            assert new_rows == ref_rows
            if not coarse:
                assert all(_matches(e, new_events) for e in ref_events)
                assert _unseen_pairs(new_events, ref_events, grid[1] / 10)
            n_events += len(ref_events)
        assert n_events > 0

    def test_many_revivals_find_every_reference_event(self):
        # 12 intervals over ~13 revivals: several crossings per interval
        model = LorentzianModel(1.0, 20.0)
        grid = np.linspace(0.0, 6.0, 13)
        for x0 in SCAN_STATES[:4]:
            new_rows, new_events, ref_rows, ref_events, coarse = _both_scans(
                x0, model, grid)
            assert new_rows == ref_rows and coarse
            assert all(_matches(e, new_events) for e in ref_events)
            assert _unseen_pairs(new_events, ref_events, grid[1] / 10)

    def test_uneven_grid(self):
        x0 = SCAN_STATES[1]
        grid = [0.0, 1e-3, 0.7, 2.0, 2.0 + 1e-12, 2.5, 3.9, 6.0]
        for _, model, _ in SCAN_MODELS:
            new_rows, new_events, ref_rows, ref_events, coarse = _both_scans(
                x0, model, grid)
            assert new_rows == ref_rows
            assert all(_matches(e, new_events) for e in ref_events)


# ------------------------------------------------------ scan rows bit for bit


def _same_bits(a, b) -> bool:
    """Equal values of one type, with the same sign (of zero too)."""
    return (type(a) is type(b) and a == b
            and math.copysign(1.0, a) == math.copysign(1.0, b))


def assert_rows_bit_for_bit(x0, model, grid):
    """Every value of time_scan equals optimal_settings(evolve_x(x0, q(t)))
    and its eigenvalues at each grid time, the sign of zero included."""
    rows = scan_rows(time_scan(x0, model, grid))
    assert len(rows) == len(grid)
    for t, row in zip(np.asarray(grid, dtype=float).tolist(), rows):
        q = model.q(t)
        settings_, u = optimal_settings(evolve_x(x0, q))
        expected = scalar_row(t, abs(q) * abs(q), u, settings_)
        assert all(map(_same_bits, row, expected)), (t, row, expected)


def _phase_edge_states():
    """X states with rho14 != 0 whose coherence phases lie on or next to
    +-pi and 0, where a last-bit change of atan2 moves an angle by 2 pi."""
    rng = np.random.default_rng(91)
    edges = [math.pi, -math.pi, math.nextafter(math.pi, 0.0),
             math.nextafter(-math.pi, 0.0), 0.0, -0.0, 1e-300, -1e-300]
    states = []
    for mu in edges:
        for nu in edges[::3]:
            p = rng.dirichlet(np.ones(4))
            f14, f23 = rng.uniform(0.2, 1.0, 2)
            states.append(XState(*p, f14 * math.sqrt(p[0] * p[3]) * cmath.rect(1.0, mu),
                                 f23 * math.sqrt(p[1] * p[2]) * cmath.rect(1.0, nu)))
    # phases of exactly +-pi with a signed zero imaginary part
    states.append(XState(0.3, 0.2, 0.2, 0.3, complex(-0.2, -0.0), complex(-0.1, 0.0)))
    return states


class TestScanRowsBitForBit:
    MODELS = [ExponentialModel(1.3), LorentzianModel(5.0, 0.5),
              LorentzianModel(1.0, 5.0), _complex_table()]
    GRID = np.linspace(0.0, 6.0, 61)

    def test_random_ewl_states(self):
        rng = np.random.default_rng(5)
        for i in range(40):
            p = EWLParams(float(rng.uniform()), float(rng.uniform()),
                          float(rng.uniform(-4.0, 4.0)))
            assert_rows_bit_for_bit(ewl_state(p), self.MODELS[i % 4], self.GRID)

    def test_random_x_states(self):
        rng = np.random.default_rng(6)
        for i in range(40):
            x0 = random_x_state(rng)
            assert x0.rho14 != 0.0
            assert_rows_bit_for_bit(x0, self.MODELS[i % 4], self.GRID)

    def test_phases_near_pi(self):
        for i, x0 in enumerate(_phase_edge_states()):
            assert_rows_bit_for_bit(x0, self.MODELS[i % 4], self.GRID)

    def test_q_exactly_zero(self):
        # a table through q = 0 and negative q, and exp past its underflow
        table = TabulatedModel((0.0, 1.0, 2.0, 3.0), (1.0, -0.5, 0.0, 0.3 - 0.2j))
        exp = ExponentialModel(1.0)
        assert table.q(2.0) == 0.0 and exp.q(1600.0) == 0.0
        states = _phase_edge_states()[::4] + [ewl_state(EWLParams(0.3, 1.0, 2.0))]
        for x0 in states:
            assert_rows_bit_for_bit(x0, table, np.linspace(0.0, 3.0, 31))
            assert_rows_bit_for_bit(x0, exp, [0.0, 1.0, 1490.0, 1600.0, 2000.0])

    def test_q_above_one_within_tolerance(self):
        # |q| up to 1 + 1e-12 is accepted; evolve_x takes x = min(1, |q|^2)
        table = TabulatedModel((0.0, 1.0, 2.0), (1.0, 1.0 + 5e-13, 0.5j))
        assert abs(table.q(1.0)) ** 2 > 1.0
        for x0 in _phase_edge_states()[::4]:
            assert_rows_bit_for_bit(x0, table, np.linspace(0.0, 2.0, 21))

    def test_rows_on_the_tie(self):
        # a constant q keeps the tie start u2 = u3 in every row
        x0 = ewl_state(EWLParams(0.5, 0.8, 0.4))
        static = TabulatedModel((0.0, 10.0), (1.0, 1.0))
        assert time_scan(x0, static, self.GRID).tie.all()
        assert_rows_bit_for_bit(x0, static, self.GRID)
        for model in self.MODELS:
            assert_rows_bit_for_bit(x0, model, self.GRID)

    @pytest.mark.parametrize("x0", [
        XState(0.1, 0.2, 0.3, 0.4, 0.0, 0.0),
        XState(0.1, 0.2, 0.3, 0.4, complex(-0.0, -0.0), complex(0.0, -0.0)),
        XState(0.25, 0.25, 0.25, 0.25, 0.0, 0.0),
    ], ids=["u1-zero", "u1-zero-signed", "fully-mixed"])
    def test_u1_zero_and_fully_mixed(self, x0):
        assert (time_scan(x0, self.MODELS[0], self.GRID).u1 == 0.0).all()
        for model in self.MODELS:
            assert_rows_bit_for_bit(x0, model, self.GRID)


class TestSettingsRowsBothSets:
    """_settings_rows with every row forced to one set equals that set's
    settings_set1 / settings_set2 of each state, bit for bit, so the set a
    jump switches to is checked on rows too."""

    STATES = _phase_edge_states() + [
        XState(0.3, 0.2, 0.2, 0.3, complex(-0.2, -0.0), complex(-0.0, 0.1)),
        XState(0.3, 0.2, 0.2, 0.3, complex(0.0, -0.0), complex(-0.1, -0.0)),
        XState(0.1, 0.2, 0.3, 0.4, complex(-0.0, -0.0), complex(0.0, -0.0)),
        werner(0.6),
        XState(0.1, 0.2, 0.3, 0.4, 0.0, 0.0),
        XState(0.25, 0.25, 0.25, 0.25, 0.0, 0.0),
    ]

    @pytest.mark.parametrize("set1,settings_of", [(True, settings_set1),
                                                  (False, settings_set2)],
                             ids=["set1", "set2"])
    def test_forced_set_matches_the_scalar_set(self, set1, settings_of):
        xs = self.STATES
        us = [x_state_eigenvalues(x) for x in xs]
        assert any(u.tie for u in us) and any(u.u1 == 0.0 for u in us)
        gap, u1, u2, u3, m14, m23, re14, im14, re23, im23 = np.array(
            [(x.diagonal_gap, u.u1, u.u2, u.u3, abs(x.rho14), abs(x.rho23),
              x.rho14.real, x.rho14.imag, x.rho23.real, x.rho23.imag)
             for x, u in zip(xs, us)]).T
        thetas, phis = _settings_rows(np.full(len(xs), set1), gap, u1, u2, u3, m14, m23,
                                      (re14, im14), (re23, im23))
        for x, row_thetas, row_phis in zip(xs, thetas.tolist(), phis.tolist()):
            s = settings_of(x)
            assert list(map(float.hex, row_thetas)) == list(map(float.hex, s.thetas)), x
            assert list(map(float.hex, row_phis)) == list(map(float.hex, s.phis)), x


@settings(max_examples=500, deadline=None)
@given(*[st.floats(-POSITIVITY_TOL, 1.0 + 3.0 * POSITIVITY_TOL)] * 3)
def test_rows_inside_the_population_mask_have_unit_trace(r11, r22, r33):
    # why time_scan has no trace mask: r44 = 1 - (r11 + r22 + r33) leaves
    # XState's sum within TRACE_TOL of 1 whenever each population is at least
    # about -POSITIVITY_TOL, as the block masks require
    r44 = 1.0 - (r11 + r22 + r33)
    assert abs(sum((r11, r22, r33, r44)) - 1.0) <= TRACE_TOL


@settings(max_examples=500, deadline=None)
@given(*[st.floats(0.0, 1.0)] * 2, st.floats(-1.0, 1.0))
def test_rows_cannot_have_u1_below_u3(m14, m23, gap):
    # why time_scan has no u1 >= u3 mask: rounding is monotone, so
    # m14 + m23 >= |m14 - m23| survives it for m14, m23 >= 0; and why neither
    # path clamps u1 + u2 or u1 + u3 before sqrt: a product v * v is never
    # below +0.0, whatever the sign of v or of its zero
    for u1, u2, u3 in (_eigenvalues(m14, m23, gap),
                       _eigenvalues(np.array([m14]), np.array([m23]), np.array([gap]))):
        assert np.all(u1 >= u3)
        assert np.all(np.copysign(1.0, [u1, u2, u3]) == 1.0)


def test_gap_squared_by_product():
    # a state whose diagonal gap g has g ** 2 != g * g under glibc's pow, found
    # by a seeded search (random_x_state with default_rng(2023), draw 1233, and
    # rho44 = 1 - (rho11 + rho22 + rho33), so that evolve_x(x0, 1) is x0)
    x0 = XState(0.7326420979274851, 0.033684126608324955, 0.16377795466537398,
                0.06989582079881584, -0.020703511785449512 + 0.02979748130473139j,
                -0.028966486022523094 - 0.0516335840356031j)
    assert evolve_x(x0, 1.0) == x0
    g = x0.diagonal_gap
    assert x_state_eigenvalues(x0).u2 == g * g
    scan = time_scan(x0, ExponentialModel(1.0), [0.0, 1.0])
    assert scan.u2[0] == g * g
    assert_rows_bit_for_bit(x0, ExponentialModel(1.0), [0.0, 1.0])


class _Overshoot:
    """q(t) = 1 + 1e-9 t: |q| exceeds 1 + 1e-12 from t = 1e-3 on."""

    def q(self, t):
        return np.asarray(1.0 + 1e-9 * np.asarray(t, dtype=float) + 0j)


class _NaNAfterStart:
    """q(t) = 1 at t = 0 and NaN after, as from a model that lost its digits."""

    def q(self, t):
        return np.where(np.asarray(t, dtype=float) > 0.0, complex(math.nan, 0.0), 1.0 + 0j)


class TestScanChecks:
    """The scalar row path checks only evolve_x's |q|, which is one mask in
    time_scan, and the first failing row raises the scalar path's exception.
    An evolved state is the damping channel's image of a judged start and is
    not judged again, so starts that bypass XState's checks scan like the
    scalar loop with no raise.  BellEigenvalues checks nothing, so the valid
    states at its former bounds do too."""

    TSIRELSON_E = 0.1125e-10  # u1 = u2 = 1 + 0.9e-10, just past Tsirelson's u1 + u2 <= 2

    @pytest.mark.parametrize("x0,model,error,message", [
        (ewl_state(EWLParams(0.3, 1.0)), _Overshoot(), ValueError,
         "|q| must be <= 1, got 1.0000000005"),
        (ewl_state(EWLParams(0.3, 1.0)), _NaNAfterStart(), ValueError,
         "|q| must be <= 1, got nan"),
        # starts that bypass XState's checks, built by the library's unjudged
        # XState._derived: an evolved state is not judged again, so neither
        # path raises, and the rows agree
        (XState._derived(1e20, 0.0, 0.0, 0.0, 0j, 0j), ExponentialModel(1.0), None, None),
        (XState._derived(0.0, 1.5, -0.5, 0.0, 0j, 0j), ExponentialModel(1.0), None, None),
        (XState._derived(0.5, 0.0, 0.0, 0.5, 0.6 + 0j, 0j), ExponentialModel(1.0),
         None, None),
        (XState._derived(0.0, 0.5, 0.5, 0.0, 0j, 0.6 + 0j), ExponentialModel(1.0),
         None, None),
        # valid states: neither path raises, and the rows agree
        (XState(1.0 + 0.9e-10, -0.9e-10, 0.0, 0.0, 0j, 0j), ExponentialModel(1.0),
         None, None),
        (XState(0.5 + TSIRELSON_E, -TSIRELSON_E, -TSIRELSON_E, 0.5 + TSIRELSON_E,
                math.sqrt(0.25 + 0.225e-10), 0j), ExponentialModel(1.0), None, None),
    ], ids=["q", "q-nan", "trace", "population", "outer-block", "inner-block",
            "eigenvalue-range", "tsirelson"])
    def test_raises_as_the_scalar_path(self, x0, model, error, message):
        grid = np.linspace(0.0, 2.0, 5)
        if error is None:
            assert_rows_bit_for_bit(x0, model, grid)
            return
        with pytest.raises(error) as scalar:
            for t in grid.tolist():
                optimal_settings(evolve_x(x0, model.q(t)))
        with pytest.raises(error) as array:
            time_scan(x0, model, grid)
        assert type(array.value) is type(scalar.value)
        assert str(array.value) == str(scalar.value)
        assert message in str(scalar.value)

    def test_first_failing_row_raises(self):
        # |q| grows with t: the scalar loop stops at the first row past the
        # limit, whose value the message names
        with pytest.raises(ValueError, match=re.escape("got 1.0000000005")):
            time_scan(ewl_state(EWLParams(0.3, 1.0)), _Overshoot(), [0.0, 0.5, 1.0])

    def test_sample_limit(self):
        grid = np.arange(MAX_SAMPLES + 1.0)
        with pytest.raises(ValueError, match=f"t_grid has {MAX_SAMPLES + 1} samples, "
                                             f"more than {MAX_SAMPLES}"):
            time_scan(ewl_state(EWLParams(0.3, 1.0)), ExponentialModel(1.0), grid)


# ------------------------------------------------------------- exact events


GOLDEN_SCANS = [  # the scan-* golden configurations
    (EWLParams(0.3, 1.0, 0.0), ExponentialModel(1.0), 5.0),
    (EWLParams(0.6, 0.95, 0.7), LorentzianModel(5.0, 0.5), 8.0),
    (EWLParams(0.5, 0.8, 0.4), LorentzianModel(1.0, 5.0), 6.0),
    (EWLParams(0.3, 1.0, 0.0), _complex_table(), 6.0),
]


def _event_scans():
    """(x0, model, events) over the scan test states and models."""
    for x0 in SCAN_STATES:
        for _, model, tmax in SCAN_MODELS:
            yield x0, model, scan_events(x0, model, tmax)
    for p, model, tmax in GOLDEN_SCANS:
        x0 = ewl_state(p)
        yield x0, model, scan_events(x0, model, tmax)


class TestExactEvents:
    def test_events_independent_of_the_grid(self):
        # a scan cut at any grid time finds the events of the whole scan up
        # to that time, of the same kinds, within the root-finding tolerance
        for p, model, tmax in GOLDEN_SCANS:
            x0 = ewl_state(p)
            whole = scan_events(x0, model, tmax)
            assert whole
            for cut in np.linspace(0.0, tmax, 7).tolist():
                part = scan_events(x0, model, cut)
                before = [e for e in whole if e.t <= cut]
                assert [e.kind for e in part] == [e.kind for e in before]
                assert all(abs(a.t - b.t) <= 2 * EVENT_REL_TOL * b.t
                           for a, b in zip(part, before))

    def test_scalar_sign_flips_across_every_event(self):
        n_events = 0
        for x0, model, events in _event_scans():
            for e in events:
                lo, hi = (chained_eigenvalues(x0, abs(model.q(e.t * f)) ** 2)
                          for f in (1.0 - 1e-7, 1.0 + 1e-7))
                if e.kind is EventKind.SET_JUMP:
                    assert _sign(lo.u2 - lo.u3) != _sign(hi.u2 - hi.u3)
                else:
                    assert _sign(lo.bmax - 2.0) != _sign(hi.bmax - 2.0)
                    violating_before = lo.bmax >= 2.0
                    assert e.kind is (EventKind.VIOLATION_OFF if violating_before
                                      else EventKind.VIOLATION_ON)
                n_events += 1
        assert n_events > 100

    def test_dense_channel_matches_at_every_event(self):
        for x0, model, events in _event_scans():
            for e in events:
                q = model.q(e.t)
                dense = np.array(apply_amplitude_damping(x_to_dense(x0), q).rows)
                assert np.abs(np.array(x_to_dense(evolve_x(x0, q)).rows) - dense).max() <= 1e-12

    def test_events_lie_on_their_levels(self):
        for x0, model, events in _event_scans():
            for e in events:
                u = chained_eigenvalues(x0, e.q2)
                if e.kind is EventKind.SET_JUMP:
                    assert abs(u.u2 - u.u3) <= 1e-7
                else:
                    assert abs(u.bmax - 2.0) <= 1e-7

    def test_candidates_closer_than_the_sign_probe_give_one_event(self):
        # u1 + u2 = 1 and u1 + u3 = 1 at x 3e-8 apart, just below the jump
        # level: bmax - 2 changes sign at the first only, and a sign taken
        # 1e-7 from each would count both
        x0 = ewl_state(EWLParams(0.5735675891832447, 0.7226360608908614,
                                 3.0106551908639796))
        events = scan_events(x0, ExponentialModel(0.19211756200399988), 20.0)
        assert [e.kind for e in events] == [
            EventKind.SET_JUMP, EventKind.VIOLATION_OFF, EventKind.SET_JUMP]

    @pytest.mark.parametrize("r", [0.5, 0.8, 1.0])
    @pytest.mark.parametrize("model", [ExponentialModel(1.0),
                                       LorentzianModel(0.7, 6.8)])
    def test_balanced_start_on_a_tie_is_not_an_event(self, r, model):
        # alpha2 = 1/2 starts with u2 = u3: x = 1 is a root of u2 - u3
        x0 = ewl_state(EWLParams(0.5, r, 0.0))
        assert crossing_levels(x0)[-1] == pytest.approx(1.0, abs=1e-12)
        events = scan_events(x0, model, 6.0)
        assert events and all(e.q2 < 1.0 - 1e-6 for e in events)
        first_level = max(x for x in crossing_levels(x0) if x < 1.0 - 1e-12)
        jumps = [e for e in events if e.kind is EventKind.SET_JUMP]
        assert jumps[0].q2 == pytest.approx(first_level, abs=1e-8)

    def test_table_turning_points_inside_segments(self):
        # q goes from 0.6 to -0.6 + 0.1i on [1, 2]: |q|^2 falls to its minimum
        # at w = 0.72 / 1.45 inside the segment, then rises again
        model = TabulatedModel((0.0, 1.0, 2.0), (1.0, 0.6, -0.6 + 0.1j))
        t_min = 1.0 + 0.72 / 1.45
        assert model.turning_times(2.0).tolist() == pytest.approx([1.0, t_min],
                                                                  abs=1e-12)
        x0 = ewl_state(EWLParams(0.3, 1.0, 0.0))
        events = scan_events(x0, model, 2.0)
        low_levels = [x for x in crossing_levels(x0) if x < abs(model.q(2.0)) ** 2]
        assert low_levels
        for level in low_levels:  # crossed falling, then rising
            hits = [e.t for e in events if e.q2 == pytest.approx(level, abs=1e-8)]
            assert len(hits) == 2 and hits[0] < t_min < hits[1]

    def test_piece_limit_checked_before_allocating(self):
        model = LorentzianModel(1e-9, 1e9)
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match=r"\|q\(t\)\|\^2 has \d+ monotone pieces "
                                             r"up to t = 1000000000.0, more than 1000000"):
            scan_events(ewl_state(EWLParams(0.3, 1.0)), model, 1e9)
        assert time.perf_counter() - t0 < 1.0
        strong = LorentzianModel(1.0, 5.0)
        omega = math.sqrt(2.0 * 5.0 - 1.0)
        t_max = 0.99 * MAX_PIECES * math.pi / omega  # just under the limit
        assert len(strong.turning_times(t_max)) == pytest.approx(0.99 * MAX_PIECES,
                                                                 rel=1e-5)

    def test_strong_coupling_turning_times(self):
        # extrema of q at Omega t/2 = k pi, zeros where q changes sign
        model = LorentzianModel(1.0, 5.0)
        turns = model.turning_times(10.0)
        ts = np.linspace(0.0, 10.0, 200001)
        q = model.q(ts).real
        zeros = ts[1:][np.sign(q[1:]) != np.sign(q[:-1])]
        dq = np.diff(q)
        extrema = ts[1:-1][np.sign(dq[1:]) != np.sign(dq[:-1])]
        expected = np.sort(np.concatenate([zeros, extrema]))
        assert len(turns) == len(expected) == 9
        assert turns == pytest.approx(expected, abs=1e-4)


class _CountingModel:
    """A model whose q(t) calls are counted."""

    def __init__(self, model):
        self.model, self.calls = model, 0

    def q(self, t):
        self.calls += 1
        return self.model.q(t)

    def turning_times(self, tmax):
        return self.model.turning_times(tmax)


def _root_steps(model, lo, hi, target):
    """(t*, q calls) of _crossing_times on the one bracket [lo, hi]."""
    counting = _CountingModel(model)
    x_lo, x_hi = (abs(q) ** 2 for q in model.q(np.array([lo, hi])).tolist())
    t_star = _crossing_times(counting, np.array([lo]), np.array([hi]),
                             np.array([x_lo]), np.array([x_hi]), np.array([target]))
    return float(t_star[0]), counting.calls


def _reference_root(model, lo, hi, target):
    """_bisect_sign_change of |q|^2 - target on [lo, hi], after halving hi
    while that keeps the sign at hi (a bracket spanning many binades)."""
    def f(t):
        return abs(model.q(t)) ** 2 - target
    while 0.5 * hi > max(lo, 1.0) and _sign(f(0.5 * hi)) == _sign(f(hi)):
        hi *= 0.5
    return _bisect_sign_change(f, lo, hi)


def _hard_brackets():
    """(id, model, lo, hi, target): levels on, or a few ulp below, a bracket
    end; just below a revival maximum; a root near t = 0; a bracket up to
    t = 1e300."""
    exp = ExponentialModel(1.0)
    rising = TabulatedModel((0.0, 1.0, 2.0), (1.0, 0.3, 0.8))  # up on [1, 2]
    strong = LorentzianModel(1.0, 5.0)
    zero, peak = strong.turning_times(3.0)[:2]  # q = 0, then |q| at a maximum
    x_lo, x_hi = abs(exp.q(0.5)) ** 2, abs(rising.q(2.0)) ** 2
    cases = [("lo-edge", exp, 0.5, 3.0, x_lo),
             ("hi-edge", rising, 1.0, 2.0, x_hi)]
    for n in (1, 3):
        cases += [(f"lo-edge-{n}ulp-below", exp, 0.5, 3.0, x_lo - n * math.ulp(x_lo)),
                  (f"hi-edge-{n}ulp-below", rising, 1.0, 2.0, x_hi - n * math.ulp(x_hi))]
    x_peak = abs(strong.q(peak)) ** 2
    cases += [(f"below-peak-{rel}", strong, zero, peak, x_peak * (1.0 - rel))
              for rel in (1e-12, 1e-9, 1e-6)]
    # near t = 0 |q|^2 of a Lorentzian is 1 - O(t^2): its rounding noise
    # puts sign changes 1e-5 apart there, so only the linear starts
    cases += [("near-t0-exp", exp, 0.0, 5.0, 1.0 - 1e-11),
              ("near-t0-table", rising, 0.0, 1.0, 1.0 - 1e-11),
              ("exp-1e300", exp, 0.0, 1e300, 0.5),
              ("exp-1e300-low", exp, 0.0, 1e300, 1e-3)]
    return cases


HARD_BRACKETS = _hard_brackets()
# near t = 0 an end sits on a plateau of x = level (x moves in 1-ulp stairs),
# which the root steps bisect off; 34 and 32 calls seen
_ROOT_CALL_BOUNDS = {"near-t0-exp": 36, "near-t0-table": 34}


def _constant_table():
    # |q|^2 rests on 0.36 on [1, 2] and on 0.09 on [3, 4]
    return TabulatedModel((0.0, 1.0, 2.0, 3.0, 4.0, 5.0),
                          (1.0, 0.6, 0.6, 0.3, 0.3, 0.1j))


class TestEventRoots:
    """The secant with bisection fallback in scan_events: few q calls per
    scan, and the root of an independent bisection on hard brackets."""

    def test_few_q_calls_per_scan(self):
        # one call at the piece edges, one at the event times, and the rest
        # root steps
        steps = []
        scans = [(x0, model, tmax) for x0 in SCAN_STATES for _, model, tmax in SCAN_MODELS]
        scans += [(ewl_state(p), model, tmax) for p, model, tmax in GOLDEN_SCANS]
        for x0, model, tmax in scans:
            counting = _CountingModel(model)
            if scan_events(x0, counting, tmax):
                steps.append(counting.calls - 2)
        assert len(steps) > 50
        assert max(steps) <= 16
        assert sorted(steps)[len(steps) // 2] <= 8

    @pytest.mark.parametrize("name,model,lo,hi,target", HARD_BRACKETS,
                             ids=[c[0] for c in HARD_BRACKETS])
    def test_hard_brackets_match_bisection(self, name, model, lo, hi, target):
        t_star, calls = _root_steps(model, lo, hi, target)
        reference = _reference_root(model, lo, hi, target)
        assert abs(t_star - reference) <= EVENT_REL_TOL * reference
        assert calls <= _ROOT_CALL_BOUNDS.get(name, _MAX_ROOT_ITERS - 1)

    def test_closed_bracket_on_its_level_stays_quiet(self):
        # a bracket closed from the start, whose x_hi is the level itself,
        # steps along with an open one: its g_old = 0 makes 1 - g / g_old
        # infinite, which must not meet its g_hi = 0 (the suite turns the
        # RuntimeWarning of inf * 0 into an error)
        rising = TabulatedModel((0.0, 1.0, 2.0), (1.0, 0.3, 0.8))  # up on [1, 2]
        x_hi = abs(rising.q(2.0)) ** 2
        lo = 2.0 * (1.0 - 0.5 * EVENT_REL_TOL)
        x = [abs(q) ** 2 for q in rising.q(np.array([1.0, lo, 2.0])).tolist()]
        t_star = _crossing_times(rising, np.array([1.0, lo]), np.array([2.0, 2.0]),
                                 np.array(x[:2]), np.array([x[2], x[2]]),
                                 np.array([0.25, x_hi]))
        assert t_star[1] == 0.5 * (lo + 2.0)
        assert t_star[0] == _root_steps(rising, 1.0, 2.0, 0.25)[0]

    def test_constant_segments(self):
        model = _constant_table()
        n_events = 0
        for x0 in SCAN_STATES:
            levels = crossing_levels(x0) + [
                x for x, _ in violation_levels(x0)]
            counting = _CountingModel(model)
            for e in scan_events(x0, counting, 5.0):
                level = min(levels, key=lambda x: abs(x - e.q2))
                i = bisect.bisect_right(model.times, e.t) - 1
                reference = _reference_root(model, model.times[i],
                                            model.times[i + 1], level)
                assert abs(e.t - reference) <= EVENT_REL_TOL * reference
                n_events += 1
            assert counting.calls - 2 < _MAX_ROOT_ITERS
        assert n_events > 20

    def test_exp_events_at_exact_roots(self):
        # x = exp(-gamma t) crosses x* at t = -ln(x*) / gamma
        scans = [(ewl_state(p), model, tmax) for p, model, tmax in GOLDEN_SCANS
                 if isinstance(model, ExponentialModel)]
        scans += [(x0, ExponentialModel(1.3), 4.0) for x0 in SCAN_STATES]
        n_events = 0
        for x0, model, tmax in scans:
            levels = crossing_levels(x0) + [
                x for x, _ in violation_levels(x0)]
            for e in scan_events(x0, model, tmax):
                level = min(levels, key=lambda x: abs(x - e.q2))
                exact = -math.log(level) / model.gamma
                assert abs(e.t - exact) <= EVENT_REL_TOL * e.t
                n_events += 1
        assert n_events > 20


class TestExactTieStart:
    """The `scan-strong` golden case starts on an exact tie: at t = 0
    u2 - u3 = -1.1e-16, inside TIE_TOL, so Region reports SET1, and x = 1 is
    a root of u2 - u3.  x <= 1 can only touch that level, so it is never a
    SetJump, whatever the rounding of u2 - u3 at t = 0."""

    X0 = ewl_state(EWLParams(0.5, 0.8, 0.4))
    MODEL = LorentzianModel(1.0, 5.0)
    GRID = np.linspace(0.0, 6.0, 40)

    def test_tie_level_at_x_one_is_not_an_event(self):
        assert crossing_levels(self.X0)[-1] == 1.0
        events = scan_events(self.X0, self.MODEL, self.GRID[-1])
        assert [e.kind for e in events] == [EventKind.VIOLATION_OFF,
                                            EventKind.SET_JUMP]
        assert all(e.q2 < 0.9 for e in events)

    def test_active_set_changes_without_a_set_jump(self):
        # The tie at t = 0 counts as SET1 for the active set; leaving it is
        # not a crossing, so it reports no SetJump.
        scan = time_scan(self.X0, self.MODEL, self.GRID)
        assert -1e-15 < scan.u2[0] - scan.u3[0] < 0.0 and scan.tie[0]
        assert scan.region[0] == Region.SET1
        assert scan.region[1] == Region.SET2
        events = scan_events(self.X0, self.MODEL, self.GRID[-1])
        assert events[0].t > self.GRID[1]


# ------------------------------------------------------- non-finite inputs


class TestNonFiniteInputs:
    @pytest.mark.parametrize("build,message", [
        (lambda: ExponentialModel(math.nan), "gamma must be finite and > 0, got nan"),
        (lambda: ExponentialModel(math.inf), "gamma must be finite and > 0, got inf"),
        (lambda: LorentzianModel(math.nan, 1.0), "lam must be finite and > 0, got nan"),
        (lambda: LorentzianModel(1.0, math.inf), "gamma0 must be finite and > 0, got inf"),
        (lambda: EWLParams(0.3, 1.0, math.nan), "delta must be finite, got nan"),
        (lambda: EWLParams(0.3, 1.0, -math.inf), "delta must be finite, got -inf"),
        (lambda: TabulatedModel((0.0, math.nan), (1.0, 0.5)), "sample 1 is not finite"),
        (lambda: TabulatedModel((0.0, 1.0), (1.0, complex(0.5, math.inf))),
         "sample 1 is not finite"),
        (lambda: TabulatedModel((0.0,), (1.0,)), "at least two samples"),
        pytest.param(lambda: XState(math.nan, 0.5, 0.5, 0.0, 0.0, 0.0),
                     "matrix has a non-finite entry", id="XState-rho11-nan"),
        pytest.param(lambda: XState(0.0, 0.5, 0.5, 0.0, 0.0, complex(math.inf, 0.0)),
                     "matrix has a non-finite entry", id="XState-rho23-inf"),
        pytest.param(lambda: XState(0.5, 0.0, 0.0, 0.5, complex(0.0, math.nan), 0.0),
                     "matrix has a non-finite entry", id="XState-rho14-nan"),
        # a NaN in the second block, refused before any eigenvalue
        pytest.param(lambda: XState(0.5, math.nan, 0.0, 0.5, 0.0, 0.0),
                     "matrix has a non-finite entry", id="XState-rho22-nan"),
        pytest.param(lambda: XState(0.5, 0.0, math.nan, 0.5, 0.0, 0.0),
                     "matrix has a non-finite entry", id="XState-rho33-nan"),
        pytest.param(lambda: XState(0.5, 0.0, 0.0, 0.5, 0.0, complex(math.nan, 0.0)),
                     "matrix has a non-finite entry", id="XState-rho23-nan"),
        *[pytest.param(lambda q=q: evolve_x(ewl_state(EWLParams(0.3, 1.0)), q),
                       "|q| must be <= 1, got nan", id=f"evolve_x-{q!r}")
          for q in (math.nan, complex(math.nan, 0.0), complex(0.5, math.nan))],
        *[pytest.param(lambda q=q: apply_amplitude_damping(x_to_dense(werner(0.5)), q),
                       "|q| must be <= 1, got nan", id=f"apply_amplitude_damping-{q!r}")
          for q in (math.nan, complex(math.nan, 0.0), complex(0.5, math.nan))],
        *[(lambda tmax=tmax: scan_events(ewl_state(EWLParams(0.3, 1.0)),
                                         ExponentialModel(1.0), tmax),
           f"tmax must be finite and >= 0, got {tmax!r}")
          for tmax in (math.nan, math.inf, -1.0)],
    ])
    def test_rejected_with_the_value(self, build, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            build()

    @pytest.mark.parametrize("row,message", [
        pytest.param(row, "sample 1 is not finite", id=row)
        for row in ("nan,0.5,0", "1,nan,0", "1,0.5,inf")
    ] + [
        pytest.param("1,0.5", "line 3: expected 3 fields, got 2", id="1,0.5"),
        pytest.param("1,0.5,0,7", "line 3: expected 3 fields, got 4", id="1,0.5,0,7"),
        pytest.param("0.5,abc,0", "line 3: could not convert string to float: 'abc'",
                     id="0.5,abc,0"),
        pytest.param("1," + "0" * 131073 + ",0",
                     "line 3: field larger than field limit (131072)", id="huge-field"),
    ])
    def test_csv_table(self, tmp_path, row, message):
        path = tmp_path / "q.csv"
        path.write_text(f"t,q_re,q_im\n0,1,0\n{row}\n2,0.3,0\n")
        with pytest.raises(ValueError, match=re.escape(message)):
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
