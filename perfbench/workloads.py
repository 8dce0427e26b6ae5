"""Seeded inputs, operations and output checks for the three workloads.

Every workload is a list of ops laid out in rounds: one round holds the same
mix of input kinds every time, so a run that stops at a round boundary has an
exact, seed-independent mix.  Inputs are generated and written to disk before
anything is timed; the values a check compares against are computed here
too, so no check runs inside a timed region or through a traced function.

Op kinds per workload:

* point-queries: library calls for one state, as `bmax` and `angles` do them.
  A round of 20 holds 13 random X states, one each of the edge cases (exact
  tie u2 = u3, u1 = 0, a pure X state, the fully mixed state) and 3 Ginibre
  (non-X) states.
* trajectory-scan: `bellopt.cli.main(["scan", ...])` with 500 samples.  A
  round holds one scan per environment model: exponential, weak-coupling
  Lorentzian, strong-coupling Lorentzian, and a 2000-row table of a
  strong-coupling q(t).
* oracle-check: `bellopt.cli.main(["oracle-check", ...])` with the CLI's
  default oracle settings and a per-op seed.  A round holds two random X
  states, one X state on the tie, and one Ginibre state.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import bellopt
import bellopt.cli

SCAN_SAMPLES = 500
TABLE_ROWS = 2000
POINT_ROUNDS = 1000
SCAN_ROUNDS = 64
ORACLE_ROUNDS = 160
BELL_TOL = 1e-9
ROOT_TOL = 1e-6
ORACLE_TOL = 1e-3
CERT_TOL = 1e-6

_PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
_PAULI_PAIRS = np.array([[np.kron(a, b) for b in _PAULI] for a in _PAULI])


class CheckFailed(Exception):
    """An op returned, but its output is wrong."""


@dataclass
class Op:
    """One closed-loop operation and what its output must satisfy.

    `run` is timed; `check` is not.  It raises CheckFailed, and returns the
    counts it read from the output (oracle evaluations, scan events) keyed by
    per-layer metric name.  `spec` is the op's input in JSON form.
    """

    kind: str
    run: Callable[[], object]
    check: Callable[[object], dict]
    spec: Callable[[], dict]


@dataclass
class Workload:
    name: str
    round_size: int
    ops: list[Op]
    workdir: str


# ---------------------------------------------------------------- states


def svd_bmax(m: np.ndarray) -> float:
    """Horodecki value 2 sqrt(s1^2 + s2^2) from numpy's SVD of the Pauli
    correlation matrix.  Singular values do not depend on the basis order or
    the transpose convention, so this is independent of bellopt's layout."""
    t = np.einsum("ij,mnji->mn", m, _PAULI_PAIRS).real
    s = np.linalg.svd(t, compute_uv=False)
    return 2.0 * math.sqrt(s[0] ** 2 + s[1] ** 2)


def _x_matrix(pops, c14: complex, c23: complex) -> np.ndarray:
    m = np.diag(np.asarray(pops, dtype=float)).astype(complex)
    m[0, 3], m[3, 0] = c14, np.conj(c14)
    m[1, 2], m[2, 1] = c23, np.conj(c23)
    return m


def _phase(rng) -> complex:
    return complex(np.exp(1j * rng.uniform(-math.pi, math.pi)))


def random_x(rng) -> np.ndarray:
    p = rng.dirichlet(np.ones(4))
    a = math.sqrt(p[0] * p[3]) * rng.uniform()
    b = math.sqrt(p[1] * p[2]) * rng.uniform()
    return _x_matrix(p, a * _phase(rng), b * _phase(rng))


def tie_x(rng) -> np.ndarray:
    """X state with u2 = u3: populations (s, h, h, s) with h = 1/2 - s give a
    diagonal gap g = 4s - 1, and coherence moduli a, b with 2|a - b| = |g|."""
    s = rng.uniform(0.0, 0.5)
    h = 0.5 - s
    if s >= 0.25:
        b = rng.uniform(0.0, h)
        a = b + (2.0 * s - 0.5)
    else:
        a = rng.uniform(0.0, s)
        b = a + (0.5 - 2.0 * s)
    return _x_matrix((s, h, h, s), a * _phase(rng), b * _phase(rng))


def u1_zero_x(rng) -> np.ndarray:
    return _x_matrix(rng.dirichlet(np.ones(4)), 0j, 0j)


def pure_x(rng) -> np.ndarray:
    th = rng.uniform(0.0, math.pi / 2.0)
    c, s = math.cos(th), math.sin(th)
    coh = c * s * _phase(rng)
    if rng.uniform() < 0.5:
        return _x_matrix((c * c, 0.0, 0.0, s * s), coh, 0j)
    return _x_matrix((0.0, c * c, s * s, 0.0), 0j, coh)


def mixed(rng) -> np.ndarray:
    return _x_matrix((0.25, 0.25, 0.25, 0.25), 0j, 0j)


def ginibre(rng) -> np.ndarray:
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = g @ g.conj().T
    return m / np.trace(m).real


def _pairs(m: np.ndarray) -> list:
    return [[[float(c.real), float(c.imag)] for c in row] for row in m]


def write_state(path: str, m: np.ndarray) -> None:
    with open(path, "w") as fh:
        json.dump({"rho": _pairs(m)}, fh)


# ------------------------------------------------------------ point-queries


def point_op(m: np.ndarray):
    """What `bmax` and `angles` compute for one state.  Every call goes
    through a module attribute, so the tracer's wrappers see it."""
    rho = bellopt.validate_density_matrix(m)
    try:
        x = bellopt.as_x_state(rho)
    except bellopt.NotXStructured:
        return False, bellopt.horodecki_bmax(rho), None, None
    u = bellopt.x_state_eigenvalues(x)
    settings, _ = bellopt.optimal_settings(x)
    value = bellopt.bell_function(rho, settings.bell_settings())
    alt_value = None
    if u.tie:
        alt = bellopt.settings_set2(x)
        alt_value = bellopt.bell_function(rho, alt.bell_settings())
    return True, u.bmax, value, alt_value


def _point_check(is_x: bool, expected: float):
    def check(out) -> dict:
        got_x, bmax, value, alt_value = out
        if got_x != is_x:
            raise CheckFailed(f"X detection {got_x}, expected {is_x}")
        if abs(bmax - expected) > BELL_TOL:
            raise CheckFailed(f"B_max {bmax!r} vs SVD {expected!r}")
        for v in (value, alt_value):
            if v is not None and abs(v - bmax) > BELL_TOL:
                raise CheckFailed(f"Bell value {v!r} at settings vs B_max {bmax!r}")
        return {}
    return check


_POINT_ROUND = (
    ("x",) * 4 + ("tie",) + ("x",) * 3 + ("ginibre", "u1-zero")
    + ("x",) * 3 + ("ginibre", "pure") + ("x",) * 3 + ("ginibre", "mixed")
)
_POINT_GEN = {
    "x": random_x, "tie": tie_x, "u1-zero": u1_zero_x, "pure": pure_x,
    "mixed": mixed, "ginibre": ginibre,
}


def point_queries(rng, workdir: str) -> Workload:
    ops = []
    for _ in range(POINT_ROUNDS):
        for kind in _POINT_ROUND:
            m = _POINT_GEN[kind](rng)
            m.setflags(write=False)
            ops.append(Op(
                kind, (lambda m=m: point_op(m)),
                _point_check(kind != "ginibre", svd_bmax(m)),
                (lambda m=m: {"rho": _pairs(m)}),
            ))
    return Workload("point-queries", len(_POINT_ROUND), ops, workdir)


# ----------------------------------------------------------- trajectory-scan


def _log_uniform(rng, lo: float, hi: float) -> float:
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def strong_q(t: np.ndarray, lam: float, gamma0: float) -> np.ndarray:
    """Damped-oscillator amplitude for 2 gamma0 > lam (strong coupling):
    exp(-lam t/2) [cos(w t) + lam/(2w) sin(w t)], w = sqrt(2 gamma0 lam - lam^2)/2."""
    w = 0.5 * math.sqrt(2.0 * gamma0 * lam - lam * lam)
    return np.exp(-0.5 * lam * t) * (np.cos(w * t) + lam / (2.0 * w) * np.sin(w * t))


def _strong_params(rng) -> tuple[float, float, float]:
    # coupling gamma0/lam in [1, 50]: from a few to ~10 revivals per horizon
    gamma0 = _log_uniform(rng, 0.5, 5.0)
    lam = gamma0 / _log_uniform(rng, 1.0, 50.0)
    tmax = rng.uniform(2.0, 5.0) / lam  # 2-5 envelope decay times
    return lam, gamma0, tmax


def _scan_check(output: str, roots: list[float], gamma):
    def check(rc) -> dict:
        if rc != 0:
            raise CheckFailed(f"exit code {rc}")
        with open(output) as fh:
            lines = fh.read().splitlines()
        rows = [ln for ln in lines if not ln.startswith("#")]
        if len(rows) - 1 != SCAN_SAMPLES:
            raise CheckFailed(f"{len(rows) - 1} rows, expected {SCAN_SAMPLES}")
        events = warnings = 0
        for ln in lines:
            if ln.startswith("# warning,GridTooCoarse"):
                warnings += 1
            if not ln.startswith("# event,"):
                continue
            events += 1
            _, kind, t, q2 = ln.split(",")
            if kind != "SetJump":
                continue
            t, q2 = float(t), float(q2)
            if not roots:
                raise CheckFailed(f"SetJump at q2={q2!r} but no crossing root")
            root = min(roots, key=lambda r: abs(r - q2))
            if abs(root - q2) > ROOT_TOL:
                raise CheckFailed(f"SetJump q2={q2!r} misses roots {roots!r}")
            if gamma is not None:
                t_root = -math.log(root) / gamma
                if abs(t - t_root) > ROOT_TOL * max(1.0, t_root):
                    raise CheckFailed(f"SetJump t={t!r}, -ln(x*)/gamma={t_root!r}")
        return {"dynamics.events": events, "dynamics.grid_too_coarse": warnings}
    return check


def trajectory_scan(rng, workdir: str) -> Workload:
    output = os.path.join(workdir, "scan.csv")
    ops = []
    for i in range(SCAN_ROUNDS):
        for kind in ("exp", "lorentz-weak", "lorentz-strong", "table"):
            alpha2, r = rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)
            delta = rng.uniform(-math.pi, math.pi)
            gamma = None
            if kind == "exp":
                gamma = _log_uniform(rng, 0.1, 10.0)
                qmodel = f"exp:{gamma!r}"
                tmax = rng.uniform(2.0, 5.0) / gamma
            elif kind == "lorentz-weak":
                # coupling gamma0/lam in [0.01, 0.25], below the 0.5 threshold
                lam = _log_uniform(rng, 0.5, 50.0)
                gamma0 = lam * _log_uniform(rng, 0.01, 0.25)
                qmodel = f"lorentz:{lam!r},{gamma0!r}"
                tmax = rng.uniform(2.0, 5.0) / gamma0
            elif kind == "lorentz-strong":
                lam, gamma0, tmax = _strong_params(rng)
                qmodel = f"lorentz:{lam!r},{gamma0!r}"
            else:
                lam, gamma0, tmax = _strong_params(rng)
                times = np.linspace(0.0, tmax, TABLE_ROWS)
                q = strong_q(times, lam, gamma0)
                path = os.path.join(workdir, f"table{i}.csv")
                with open(path, "w", newline="\n") as fh:
                    fh.write("t,q_re,q_im\n")
                    for t, v in zip(times.tolist(), q.tolist()):
                        fh.write(f"{t!r},{v!r},0.0\n")
                qmodel = f"table:{path}"
                tmax = float(times[-1])
            argv = ["scan", "--ewl", f"{alpha2!r},{r!r},{delta!r}",
                    "--qmodel", qmodel, "--tmax", repr(tmax),
                    "--samples", str(SCAN_SAMPLES), "--output", output]
            roots = bellopt.crossing_roots(bellopt.EWLParams(alpha2, r, delta))
            ops.append(Op(
                kind, (lambda argv=argv: bellopt.cli.main(argv)),
                _scan_check(output, roots, gamma), (lambda argv=argv: {"argv": argv}),
            ))
    return Workload("trajectory-scan", 4, ops, workdir)


# -------------------------------------------------------------- oracle-check


def _oracle_check(output: str, is_x: bool, expected: float):
    def check(rc) -> dict:
        if rc != 0:
            raise CheckFailed(f"exit code {rc}")
        with open(output) as fh:
            doc = json.load(fh)
        if doc["is_x"] != is_x:
            raise CheckFailed(f"is_x {doc['is_x']}, expected {is_x}")
        if abs(doc["analytic_bmax"] - expected) > BELL_TOL:
            raise CheckFailed(f"analytic {doc['analytic_bmax']!r} vs SVD {expected!r}")
        if abs(doc["difference"]) > ORACLE_TOL:
            raise CheckFailed(f"oracle difference {doc['difference']!r}")
        if is_x and doc["certificate_margin"] > CERT_TOL:
            raise CheckFailed(f"certificate margin {doc['certificate_margin']!r}")
        return {"oracle.evaluations": doc["evaluations"]}
    return check


def oracle_check(rng, workdir: str) -> Workload:
    output = os.path.join(workdir, "oracle.json")
    ops = []
    for i in range(ORACLE_ROUNDS):
        for j, kind in enumerate(("x", "x", "tie", "ginibre")):
            m = _POINT_GEN[kind](rng)
            path = os.path.join(workdir, f"state{i}_{j}.json")
            write_state(path, m)
            seed = int(rng.integers(0, 2 ** 32))
            argv = ["oracle-check", "--input", path, "--seed", str(seed),
                    "--format", "json", "--output", output]
            ops.append(Op(
                kind, (lambda argv=argv: bellopt.cli.main(argv)),
                _oracle_check(output, kind != "ginibre", svd_bmax(m)),
                (lambda argv=argv: {"argv": argv}),
            ))
    return Workload("oracle-check", 4, ops, workdir)


_GENERATORS = {
    "point-queries": point_queries,
    "trajectory-scan": trajectory_scan,
    "oracle-check": oracle_check,
}


def build(name: str, seed: int, workdir: str) -> Workload:
    """All inputs of one workload, from `seed` alone."""
    rng = np.random.default_rng([seed, list(_GENERATORS).index(name)])
    return _GENERATORS[name](rng, workdir)


def write_spec(w: Workload, j: int, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(w.ops[j].spec(), fh)


def run_spec(name: str, spec_path: str) -> None:
    """Run one op from its spec, as a fresh CLI invocation would; used to
    time set-up in a new interpreter."""
    with open(spec_path) as fh:
        spec = json.load(fh)
    if name == "point-queries":
        m = np.array([[complex(*c) for c in row] for row in spec["rho"]])
        point_op(m)
        return
    rc = bellopt.cli.main(spec["argv"])
    if rc != 0:
        raise SystemExit(f"op exited with {rc}")
