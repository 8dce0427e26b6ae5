#!/usr/bin/env python3
"""Record the library's outputs on a seeded corpus bit for bit, or compare
two such records.

    python scripts/differential.py --write before.txt
    # ... change the code ...
    python scripts/differential.py --write after.txt
    python scripts/differential.py --compare before.txt after.txt
    python scripts/differential.py --against HEAD   # git's HEAD against src/

--write runs a fixed corpus through the public closed-form, dynamics and
oracle functions (certify_settings at the closed-form settings, at the
oracle's own and at zero settings), and the Bell function at both
closed-form sets, and writes one line per value: a label, the value's type
and the value, floats as float.hex (so -0.0 and every last bit count), a
text as its length and SHA-256, or the exception type and message where a
call raises.  The corpus holds random X states, coherence phases of exactly
+-pi and next to them, +-0.0 parts, ties u2 = u3, u1 = 0, pure and fully
mixed states, subnormal rho11, extended Werner-like states, states at the
tolerance edges of the PSD rule (two also off in trace; time_scan and
scan_events run these under each of the four models, every other state
under one in turn, and each scan's CSV text is recorded too, as is that of
one 500-sample scan per model, long enough for the CSV formatter to write a
rarely changing column once per run, and of the surface), two with a
non-finite entry and one with a coherence whose modulus is past float
range, and Ginibre (non-X) states, and DensityMatrix4 built from arrays and
from nested lists with Hermiticity defects up to just past HERMITICITY_TOL
and +-0.0 and -5e-324 parts in mirrored entries, as the float.hex of its
rows and of np.array(rows), of its pauli_correlation_matrix and, for every 8th,
of the same two of a pickled and a deep-copied copy, and nested lists
it rejects (text cells, ragged and wrong shapes);
TabulatedModel.from_csv records the samples it loads, or the error it raises,
from generated table files (a BOM and CRLF, padded fields, +-0.0 parts,
subnormal samples, blank lines and a run of them longer than a chunk, and
after the first chunk the loader parses: quoted rows, fields with an
underscore, in Arabic-Indic digits, padded with \\x1c, in hex, Infinity and
1e400, a line only of whitespace and a trailing comma), written to a
temporary directory.  --compare pairs the records of two files by label
(the text before the type field, or before " !" where a call raised), prints
every label whose records differ or that one file lacks, with the count of
such labels and of the states they belong to, and exits 1; or it counts the
records and exits 0 when the files are identical.  Only --write imports
bellopt and numpy, so --compare runs without PYTHONPATH=src.  --against REV
extracts src/ at the git revision REV (`git archive REV src`, local git only)
to a temporary directory, runs --write once on that tree and once on this
checkout's src/, each in a subprocess with PYTHONPATH set to it, and compares
the two records as --compare does; a name one tree lacks is recorded as the
error it raises where it is used.
"""

from __future__ import annotations

import argparse
import cmath
import copy
import dataclasses
import hashlib
import itertools
import math
import os
import pickle
import re
import subprocess
import sys
import tempfile
from enum import Enum

SEED = 2009
TMAX = 6.0
Q_VALUES = (1.0, 1.0 + 5e-13, 0.8, -0.6, 0.3 + 0.4j, -0.5j, 1e-160, 0.0, 1.1,
            -0.6035880804157655 - 0.7972963245745032j)  # |q| == 1.0, but not |q * q|
SURFACE = (24, 24)
LONG_SAMPLES = 500  # one scan per model this long, so the CSV formatter bakes columns
CERTIFY_ITERS = 1100  # past one block of moves, so a certify stage spans two
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _models() -> list:
    # exp, weak and strong Lorentzian, and a table whose phase rotates
    import numpy as np

    from bellopt import ExponentialModel, LorentzianModel, TabulatedModel

    times = np.linspace(0.0, TMAX, 121)
    values = (LorentzianModel(1.0, 5.0).q(times) * np.exp(0.7j * times)).tolist()
    values[0] = 1.0
    return [ExponentialModel(1.3), LorentzianModel(5.0, 0.5),
            LorentzianModel(1.0, 5.0), TabulatedModel(times, values)]


def _coherent(p, f14, f23, mu, nu) -> tuple:
    # populations p with coherences a fraction f of their PSD bound, at phases mu, nu
    return (*p, f14 * math.sqrt(p[0] * p[3]) * cmath.rect(1.0, mu),
            f23 * math.sqrt(p[1] * p[2]) * cmath.rect(1.0, nu))


def x_corpus(rng) -> list[tuple]:
    """The X states as the six XState arguments, some of which XState rejects;
    rng is a numpy Generator."""
    import numpy as np

    from bellopt import EWLParams, ewl_state

    corpus = []
    for _ in range(120):  # random X states
        corpus.append(_coherent(rng.dirichlet(np.ones(4)), *rng.uniform(0.0, 1.0, 2),
                                *rng.uniform(-math.pi, math.pi, 2)))
    edges = (math.pi, -math.pi, math.nextafter(math.pi, 0.0),
             math.nextafter(-math.pi, 0.0), 0.0, -0.0, 1e-300, -1e-300)
    for mu in edges:  # phases on and next to +-pi and 0
        for nu in edges:
            corpus.append(_coherent(rng.dirichlet(np.ones(4)), *rng.uniform(0.2, 1.0, 2), mu, nu))
    signed = [complex(a, b) for a in (0.0, -0.0) for b in (0.0, -0.0)]
    parts = [complex(-0.1, 0.0), complex(-0.1, -0.0), complex(0.0, 0.1), complex(-0.0, -0.1)]
    for c14 in signed + parts:  # +-0.0 real and imaginary parts
        for c23 in signed + parts:
            corpus.append((0.3, 0.2, 0.2, 0.3, c14, c23))
    for r in (0.2, 1.0 / 3.0, 0.5, 0.9, 1.0):  # ties: Werner states and EWL at alpha2 = 1/2
        bg = 0.25 * (1.0 - r)
        corpus.append((bg, bg + 0.5 * r, bg + 0.5 * r, bg, 0.0, 0.5 * r))
        x = ewl_state(EWLParams(0.5, r, 2.0 * r))
        corpus.append((x.rho11, x.rho22, x.rho33, x.rho44, x.rho14, x.rho23))
    for eps in (1e-12, -1e-12, 2e-12, -2e-12, 1e-9):  # next to the tie
        corpus.append((0.1, 0.4 + eps, 0.4 - eps, 0.1, 0.1j, 0.3))
    for p in ((0.1, 0.2, 0.3, 0.4), (1.0, 0.0, 0.0, 0.0), (0.0, 0.5, 0.5, 0.0)):  # u1 = 0
        corpus.append((*p, 0j, 0j))
        corpus.append((*p, complex(-0.0, -0.0), complex(0.0, -0.0)))
    corpus.append((0.25, 0.25, 0.25, 0.25, 0j, 0j))  # fully mixed
    for phase in (0.0, 0.5 * math.pi, math.pi, -0.5 * math.pi, 2.5):  # pure X states
        corpus.append((0.5, 0.0, 0.0, 0.5, 0.5 * cmath.exp(1j * phase), 0j))
        corpus.append((0.0, 0.5, 0.5, 0.0, 0j, 0.5 * cmath.exp(1j * phase)))
        c, s = math.cos(0.4), math.sin(0.4)
        corpus.append((c * c, 0.0, 0.0, s * s, c * s * cmath.exp(1j * phase), 0j))
    for rho11 in (5e-324, 1e-310, 2.2250738585072014e-308, 1e-300):  # subnormal rho11
        corpus.append(_coherent((rho11, 0.3, 0.2, 0.5 - rho11), 0.9, 0.7, 1.0, -2.0))
        corpus.append((rho11, 0.3, 0.2, 0.5 - rho11, 0j, 0.2))
    corpus.append((0.5, 0.0, 0.0, 0.5, 0.6, 0j))  # not PSD
    corpus.append((0.5, 0.5, 0.5, 0.5, 0j, 0j))  # trace 2
    for _ in range(40):  # extended Werner-like states
        x = ewl_state(EWLParams(*rng.uniform(0.0, 1.0, 2), rng.uniform(-4.0, 4.0)))
        corpus.append((x.rho11, x.rho22, x.rho33, x.rho44, x.rho14, x.rho23))
    corpus += edge_x_states()
    corpus += [(math.nan, 0.0, 0.0, 1.0, 0j, 0j),  # not finite
               (0.5, 0.0, 0.0, 0.5, complex(math.inf, 0.0), 0j),
               (0.5, 0.0, 0.0, 0.5, complex(1.7e308, 1.7e308), 0j)]  # |rho14| past float range
    return corpus


def edge_x_states() -> list[tuple]:
    """States at the tolerance edges of the PSD and trace rules, as XState
    arguments; records() scans each of them under every model."""
    from bellopt.states import POSITIVITY_TOL

    tol, edge = POSITIVITY_TOL, 0.5000000000999999  # 0.5 - edge is the last float >= -tol
    return [
        (0.0, 0.5, 0.5, 0.0, 0.99e-5, 0j),  # a coherence between two zero populations
        (0.0, -0.9e-10, -0.9e-10, 1.0 + 1.8e-10, 0j, 0j),
        (-5e-11, 1.9e-11, -3.9e-11, 1.0 + 7e-11, 0j, 0j),
        (-tol, 0.5, 0.5 + tol, 0.0, 0j, 0j),  # a population of exactly -tol
        (0.5, 0.0, 0.0, 0.5, 0j, tol),  # inner block's least eigenvalue exactly -tol
        (0.5, 0.0, 0.0, 0.5, edge, tol),  # both blocks at the edge
        (0.5, 0.0, 0.0, 0.5, math.nextafter(edge, 1.0), tol),  # and one past it
        (0.25, 0.25, 0.25, 0.25, 0.35, 0.75),  # both blocks past it, the second by more
        (0.5, 0.0, 0.0, 0.5 + 0.9e-10, 0.5 + 1.44e-10, 0j),  # at the edge, off in trace
        # trace 1 + 9.99e-11 with the outer block at the edge: evolved, its least
        # eigenvalue reads -1.999e-10 at q = 1 (README, evolved states)
        (0.8414893328205039, 5.539961710207487e-08, 0.15851057315837955,
         3.8721399710092685e-08, 0.00018074234076465332, 0j),
    ]


def ginibre(rng):
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = g @ g.conj().T
    return m / m.trace()


def hermitian_corpus(rng) -> list:
    """4x4 complex arrays: valid states with +-0.0 and -5e-324 (whose half
    rounds to -0.0) real and imaginary parts in mirrored entries, with and
    without a defect elsewhere that makes the Hermitian part differ from the
    input, and with Hermiticity defects from a subnormal to just past
    HERMITICITY_TOL; rng is a numpy Generator."""
    import numpy as np

    from bellopt.states import HERMITICITY_TOL

    corpus = []
    for a, b, c, d in itertools.product((0.0, -0.0, -5e-324), repeat=4):  # mirrored parts
        for i, j in ((0, 1), (0, 3)):
            for defect in (0.0, 3e-11j):
                m = np.eye(4, dtype=complex) / 4.0
                m[i, j], m[j, i], m[2, 2] = complex(a, b), complex(c, d), complex(0.25, b)
                m[1, 2] += defect
                corpus.append(m)
    tol = HERMITICITY_TOL
    bases = (np.eye(4, dtype=complex) / 4.0, ginibre(rng), ginibre(rng),
             np.array([[0.5, 0, 0, 0.5j], [0, 0, 0, 0], [0, 0, 0, 0], [-0.5j, 0, 0, 0.5]]))
    for base in bases:
        for size in (5e-324, 1e-17, 0.5 * tol, 0.999 * tol, math.nextafter(tol, 0.0),
                     1.5 * tol):
            for i, j in ((0, 1), (3, 0), (1, 1)):
                for phase in (1.0, -1j):
                    m = base.copy()
                    m[i, j] += size * phase
                    corpus.append(m)
    return corpus


def list_corpus() -> list:
    """Nested lists that DensityMatrix4 must reject: text cells, which
    complex() would parse, and wrong shapes, one of them 1000 rows long."""
    mixed = [[0.25 if i == j else 0.0 for j in range(4)] for i in range(4)]
    malformed = [row[:] for row in mixed]
    malformed[1][1] = "x"
    return [[["0.25" if i == j else "0" for j in range(4)] for i in range(4)],
            [[b"0.25" if i == j else b"0" for j in range(4)] for i in range(4)],
            malformed, mixed[:3] + [[0.0, 0.0, 0.25]], mixed[:3], mixed * 250]


def table_files() -> dict[str, bytes]:
    """Table files of 3000 samples, each longer than the 64 KiB chunk that
    TabulatedModel.from_csv parses at once, by the name of what they hold.
    Fields that numpy's reader and float() read differently, a line only of
    whitespace and a trailing comma come after the first chunk, so that
    chunk goes through numpy's reader and the rest through the per-line one."""
    import numpy as np

    rng = np.random.default_rng(SEED)
    n = 3000
    times = np.linspace(0.0, TMAX, n).tolist()
    q = rng.uniform(-0.7, 0.7, (n, 2)).tolist()
    signed = [[math.copysign(0.0, v) if z else v for v, z in zip(pair, zeros)]
              for pair, zeros in zip(q, rng.random((n, 2)) < 0.5)]
    tiny = (5e-324, -5e-324, 1e-310, -2.5e-315, 2.2250738585072014e-308, -0.0)
    subnormal = [[tiny[i] for i in pair] for pair in rng.integers(0, len(tiny), (n, 2)).tolist()]
    q[0] = signed[0] = subnormal[0] = [1.0, 0.0]
    pads = (" ", "\t", "\x0b", "\x0c", "\x85", "\u2028", "\u2029")

    def table(samples, t=times, field=lambda k, x: repr(x), head="", eol="\n") -> bytes:
        rows = (",".join(field(k, x) for x in (t[k], *samples[k])) for k in range(n))
        return (head + "t,q_re,q_im" + eol + "".join(r + eol for r in rows)).encode()

    def late(text):
        # fields written by text in every 7th row from row 2000 on, after the first chunk
        return lambda k, x: text(x) if k >= 2000 and k % 7 == 0 else repr(x)

    def inserted(data, line, text) -> bytes:
        # data with text before its line `line`, the header being line 0
        cut = 0
        for _ in range(line):
            cut = data.index(b"\n", cut) + 1
        return data[:cut] + text + data[cut:]

    def underscored(x):
        mantissa, _, exponent = f"{x:.17e}".partition("e")
        return f"{mantissa[:-1]}_{mantissa[-1]}e{exponent}"
    arabic = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664"
                                         "\u0665\u0666\u0667\u0668\u0669")
    return {
        "bom-crlf": table(q, head="\ufeff", eol="\r\n"),
        "padded": table(q, field=lambda k, x: f"{pads[k % 7]}{x!r}{pads[k * 3 % 7]}"),
        "quoted": table(q, field=late(lambda x: f'"{x!r}"')),
        "signed-zero": table(signed),
        "subnormal": table(subnormal, t=[0.0, 5e-324, 1e-310, *times[3:]]),
        "underscore": table(q, field=late(underscored)),
        "arabic-digits": table(q, field=late(lambda x: repr(x).translate(arabic))),
        "x1c-padded": table(q, field=late(lambda x: f"\x1c{x!r}\x1e")),
        "hex": table(q, field=late(float.hex)),
        "infinity": table(q, field=late(lambda x: "Infinity")),
        "overflow": table(q, field=late(lambda x: "1e400")),
        # a blank line after each row, and a run of blank lines longer than a chunk
        "blank-lines": inserted(table(q, eol="\n\n"), 3000, b"\n" * 70000),
        "whitespace-line": inserted(table(q), 2500, b" \t\n"),
        "trailing-comma": inserted(table(q), 2500, b"9,0.5,0,\n"),
    }


def _api(*names) -> list:
    """bellopt's names; one this tree lacks is a function that raises
    AttributeError, so the calls that use it are records of that error."""
    import bellopt

    def lacking(name):
        def raiser(*args, **kwargs):
            raise AttributeError(f"module 'bellopt' has no attribute {name!r}")
        return raiser
    return [getattr(bellopt, name, None) or lacking(name) for name in names]


def _values(label: str, value):
    """(label, type, text) for every number in value, floats as float.hex."""
    import numpy as np

    if isinstance(value, Enum):
        yield label, type(value).__name__, value.name
    elif isinstance(value, str):  # a CSV text: its length and SHA-256
        yield label, "str", f"{len(value)}:{hashlib.sha256(value.encode()).hexdigest()}"
    elif isinstance(value, (bool, int, np.bool_, np.integer)):
        yield label, type(value).__name__, repr(value)
    elif isinstance(value, (float, np.floating)):
        yield label, type(value).__name__, float.hex(float(value))
    elif isinstance(value, complex):
        yield from _values(label + ".re", value.real)
        yield from _values(label + ".im", value.imag)
    elif isinstance(value, np.ndarray):
        yield from _values(label, value.tolist())
    elif dataclasses.is_dataclass(value):  # the fields it stores, so older trees record the same
        for f in dataclasses.fields(value):
            if f.name in vars(value):
                yield from _values(f"{label}.{f.name}", getattr(value, f.name))
    elif isinstance(value, (tuple, list)):
        for i, v in enumerate(value):
            yield from _values(f"{label}[{i}]", v)
    else:
        raise TypeError(f"{label}: no record for {type(value).__name__}")


def records() -> list[str]:
    """Every record line of the corpus, in a fixed order."""
    import numpy as np

    (BellSettings, DensityMatrix4, OracleConfig, TabulatedModel, XState, as_x_state,
     bell_function, brute_force_bmax, certify_settings, crossing_levels, evolve_x,
     horodecki_eigenvalues, optimal_settings, pauli_correlation_matrix, scan_events,
     settings_set1, settings_set2, time_scan, trajectory_coefficients, validate_density_matrix,
     x_state_eigenvalues, x_to_dense) = _api(
        "BellSettings", "DensityMatrix4", "OracleConfig", "TabulatedModel", "XState",
        "as_x_state", "bell_function", "brute_force_bmax", "certify_settings",
        "crossing_levels", "evolve_x", "horodecki_eigenvalues", "optimal_settings",
        "pauli_correlation_matrix", "scan_events", "settings_set1", "settings_set2",
        "time_scan", "trajectory_coefficients", "validate_density_matrix",
        "x_state_eigenvalues", "x_to_dense")
    from bellopt import EWLParams, ewl_state
    from bellopt.cli import _scan_csv, cmd_surface
    from bellopt.dynamics import crossing_surface

    grid = np.linspace(0.0, TMAX, 25)
    oracle = OracleConfig(grid_n=4, refine_iters=40, restarts=2)
    certify = OracleConfig(refine_iters=CERTIFY_ITERS)
    zeros = BellSettings((0.0,) * 4, (0.0,) * 4)  # far from optimal: the walk accepts moves
    rng = np.random.default_rng(SEED)
    models, edges = _models(), edge_x_states()
    lines = []

    def call(label, fn, *args):
        # the records of fn(*args), or of the exception it raises; its value
        try:
            value = fn(*args)
        except Exception as exc:  # recorded, and the corpus goes on
            lines.append(f"{label} !{type(exc).__name__} {exc}")
            return None
        lines.extend(" ".join(r) for r in _values(label, value))
        return value

    def scan_csv(name, x, k, t_grid):
        # the records of time_scan and scan_events under models[k], and the scan CSV of both
        scan = call(f"{name} scan{k}", time_scan, x, models[k], t_grid)
        events = call(f"{name} events{k}", scan_events, x, models[k], TMAX)
        if scan is not None and events is not None:
            call(f"{name} csv{k}", _scan_csv, scan, {"version": "v", "events": [
                {"kind": e.kind.value, "t": e.t, "q2": e.q2} for e in events]})

    for i, elements in enumerate(x_corpus(rng)):
        x = call(f"x{i}", XState, *elements)
        if x is not None:
            call(f"x{i} set1", settings_set1, x)
            call(f"x{i} set2", settings_set2, x)
            call(f"x{i} optimal", optimal_settings, x)
            u = call(f"x{i} eigenvalues", x_state_eigenvalues, x)
            if u is not None:
                call(f"x{i} bell", lambda: (u.b1, u.b2, u.bmax, u.region, u.tie))
            call(f"x{i} horodecki", lambda: horodecki_eigenvalues(x_to_dense(x)))
            call(f"x{i} bell_function", lambda: [  # at set 1 and set 2
                bell_function(x_to_dense(x), s(x))
                for s in (settings_set1, settings_set2)])
            for k, q in enumerate(Q_VALUES):
                call(f"x{i} evolve{k}", evolve_x, x, q)
            call(f"x{i} coefficients", trajectory_coefficients, x)
            call(f"x{i} levels", crossing_levels, x)
            # a state at the tolerance edges under every model, any other under one
            for k in range(len(models)) if elements in edges else [i % len(models)]:
                scan_csv(f"x{i}", x, k, grid)
            if i % 16 == 0:
                call(f"x{i} oracle", lambda: brute_force_bmax(x_to_dense(x), oracle))
                call(f"x{i} certify", lambda: certify_settings(
                    x_to_dense(x), optimal_settings(x)[0], certify))
                call(f"x{i} certify zeros",
                     lambda: certify_settings(x_to_dense(x), zeros, certify))
    for i in range(20):
        rho = call(f"g{i}", validate_density_matrix, ginibre(rng))
        call(f"g{i} horodecki", horodecki_eigenvalues, rho)
        call(f"g{i} as_x", as_x_state, rho)
        result = call(f"g{i} oracle", brute_force_bmax, rho, oracle)
        if result is not None:
            call(f"g{i} certify", certify_settings, rho, result, certify)

    def rows_and_array(entries):
        rho = DensityMatrix4(entries)
        return rho.rows, np.array(rho.rows)

    def copies(entries):
        # a pickled and a deep-copied copy
        rho = DensityMatrix4(entries)
        return [(c.rows, np.array(c.rows)) for c in (pickle.loads(pickle.dumps(rho)),
                                                    copy.deepcopy(rho))]

    for i, m in enumerate(hermitian_corpus(rng)):
        call(f"h{i} array", rows_and_array, m)
        call(f"h{i} list", rows_and_array, m.tolist())
        call(f"h{i} correlation", lambda: pauli_correlation_matrix(DensityMatrix4(m)))
        if i % 8 == 0:
            call(f"h{i} copies", copies, m)
    for i, entries in enumerate(list_corpus()):
        call(f"l{i}", rows_and_array, entries)
    call("surface", crossing_surface, *SURFACE)

    def surface_csv():
        _, doc, render = cmd_surface(argparse.Namespace(grid="%d,%d" % SURFACE))
        return render(doc)
    call("surface csv", surface_csv)
    x = ewl_state(EWLParams(0.3, 1.0))  # two SetJump levels, between which the angles hold
    for k in range(len(models)):
        scan_csv("long", x, k, np.linspace(0.0, TMAX, LONG_SAMPLES))
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in table_files().items():
            path = os.path.join(tmp, f"{name}.csv")
            with open(path, "wb") as fh:
                fh.write(data)
            call(f"table-{name}", lambda: TabulatedModel.from_csv(path))
    return lines


def write(path: str) -> int:
    lines = records()
    with open(path, "w", newline="\n") as fh:
        fh.writelines(line + "\n" for line in lines)
    return len(lines)


def _by_label(path: str) -> dict[str, str]:
    # every record of the file under its label
    records = {}
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            head, bang, _ = line.partition(" !")
            records[head if bang else line.rsplit(" ", 2)[0]] = line
    return records


def compare(path_a: str, path_b: str, names=None) -> str | None:
    """None if the files hold the same records, else, paired by label, every
    label whose records differ or that one file lacks, and the count of such
    labels and of their states (x0, g3, surface: the label's first name);
    the report names the files by names, else by their paths."""
    a, b = _by_label(path_a), _by_label(path_b)
    name_a, name_b = names or (path_a, path_b)
    report, states = [], set()
    for label in dict.fromkeys([*a, *b]):  # a's order, then labels only b has
        la, lb = a.get(label, "<absent>"), b.get(label, "<absent>")
        if la != lb:
            report.append(f"{label} differs:\n  {name_a}: {la}\n  {name_b}: {lb}")
            states.add(re.match(r"[^ .\[]+", label).group())
    if not report:
        return None
    return "\n".join(report + [f"{len(report)} records differ in {len(states)} states"])


def write_against(rev: str, tmp: str) -> tuple[str, str]:
    """The record files of src/ at git revision rev and of this checkout's
    src/, written under tmp; RuntimeError if git, tar or a --write run fails."""
    tree = os.path.join(tmp, "rev")
    os.mkdir(tree)
    archive = subprocess.run(["git", "archive", rev, "src"], cwd=ROOT, capture_output=True)
    if archive.returncode != 0:
        raise RuntimeError(f"git archive {rev} failed: {archive.stderr.decode().strip()}")
    if subprocess.run(["tar", "-x", "-C", tree], input=archive.stdout).returncode != 0:
        raise RuntimeError(f"tar could not extract git archive {rev}")
    paths = []
    for name, src in ((rev, os.path.join(tree, "src")), ("src", os.path.join(ROOT, "src"))):
        path = os.path.join(tmp, f"{len(paths)}.txt")
        run = subprocess.run([sys.executable, os.path.abspath(__file__), "--write", path],
                             env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                             text=True)
        if run.returncode != 0:
            raise RuntimeError(f"--write on {name} failed:\n{run.stderr.strip()}")
        paths.append(path)
    return paths[0], paths[1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", metavar="PATH", help="write the records of the corpus")
    mode.add_argument("--compare", nargs=2, metavar=("A", "B"),
                      help="print every label whose records in A and B differ, "
                           "and their count")
    mode.add_argument("--against", metavar="REV",
                      help="compare the records of src/ at git revision REV with "
                           "those of this checkout's src/")
    args = ap.parse_args(argv)
    if args.write:
        print(f"{write(args.write)} records written to {args.write}")
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        paths, names = args.compare, None
        if args.against:
            try:
                paths, names = write_against(args.against, tmp), (args.against, "src")
            except RuntimeError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
        diff = compare(*paths, names=names)
        if diff:
            print(diff)
            return 1
        with open(paths[0]) as fh:
            print(f"identical: {sum(1 for _ in fh)} records")
    return 0


if __name__ == "__main__":
    sys.exit(main())
