"""bellopt benchmark: three seeded, closed-loop, single-client workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is point-queries, trajectory-scan, oracle-check, or `all` (each
workload in its own fresh process, one after another).  Run from anywhere;
the package is imported from `src/` next to this directory.

--trace 0 measures the end-to-end metrics: `setup_s` (what a fresh
interpreter that imports bellopt and bellopt.cli pays to run one op, beyond
the op's warm time), then after a warm-up round, closed-loop ops for S
seconds of wall time in whole rounds: `ops_per_s` (ops that passed their
check per second of op time), `op_p50_ms` and `peak_rss_mb`.  Times are
scaled to a nominal host speed by readings of a reference loop taken around
the ops (see `measure`).  Every op's output is checked outside the timed
region; a failed op is counted and the run goes on.

--trace 1 measures the per-layer metrics: a fixed pass of ops is run
alternately without and with span wrappers around each layer's functions,
for S seconds and at least two traced passes.  Calls and output counts must
repeat exactly across passes; self times are medians over passes.

The process pins itself to one CPU.  The last stdout line is one JSON
object: correct, attempted, failed, metrics.  A fuller record goes to
perfbench/results/.
"""

from __future__ import annotations

import os

# One client on a small machine: pin BLAS/OpenMP pools before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import array
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

from tracer import LAYERS, SPAN_NAMES, Tracer, pass_totals

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("point-queries", "trajectory-scan", "oracle-check")
SETUP_REPEATS = 9
SETUP_KIND = {"point-queries": "x", "trajectory-scan": "exp", "oracle-check": "ginibre"}
MAX_MEASURE_S = 120.0
# ops timed between two readings of the host's speed; a round must split
# into whole blocks
BLOCK_OPS = {"point-queries": 200, "trajectory-scan": 1, "oracle-check": 1}
REF_LOOP = 10_000
REF_ARRAYS = 50
_REF_MATRIX = np.array([[2.0, 1.0, 0.0, 0.5], [1.0, 3.0, 0.2, 0.0],
                        [0.0, 0.2, 1.0, 0.1], [0.5, 0.0, 0.1, 4.0]])
_REF_PAULI = (np.array([[0, 1], [1, 0]], dtype=complex),
              np.array([[0, -1j], [1j, 0]]),
              np.array([[1, 0], [0, -1]], dtype=complex))
# the reference loop's time at nominal speed: about its time on a 2-vCPU
# VM when no other tenant slows it
REF_NOMINAL_NS = 2_300_000
MAX_SPANS = 1_000_000  # 56 MB of span records
TRACE_PASS_ROUNDS = {"point-queries": 200, "trajectory-scan": 2, "oracle-check": 4}
_LOAD = ("import sys; sys.path[:0] = [{src!r}, {bench!r}]; "
         "import bellopt, bellopt.cli, workloads; "
         "workloads.run_spec({name!r}, {spec!r})")


def _environment(seed: int) -> dict:
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=30)
        commit = out.stdout.strip() or commit
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "seed": seed, "commit": commit}


class Runner:
    """Runs ops closed loop, one at a time, and keeps the tallies."""

    def __init__(self, workload):
        self.w = workload
        self.attempted = 0
        self.failures: list[str] = []
        self.counts: dict[int, dict] = {}  # run id -> counts read by the check
        self.tracer = None

    def run(self, rid: int, j: int) -> tuple[int, bool]:
        """Run op j of the list as run `rid`; return (op ns, passed)."""
        op = self.w.ops[j]
        if self.tracer is not None:
            self.tracer.op = rid
        self.attempted += 1
        t0 = time.perf_counter_ns()
        try:
            out = op.run()
        except (Exception, SystemExit) as exc:  # counted; the loop goes on
            self.failures.append(f"op {j} ({op.kind}) raised {exc!r}")
            return time.perf_counter_ns() - t0, False
        ns = time.perf_counter_ns() - t0
        try:
            counts = op.check(out)
        except Exception as exc:
            self.failures.append(f"op {j} ({op.kind}) failed its check: {exc}")
            return ns, False
        if counts:
            self.counts[rid] = counts
        return ns, True


def measure_setup(w) -> float:
    """What a fresh CLI invocation pays beyond the op itself: interpreter
    start, importing the package, first-call caches.  The workload's first
    op of kind SETUP_KIND is run SETUP_REPEATS times in a fresh interpreter
    that imports bellopt and bellopt.cli, and each time again warm in this
    process; the result is the median of the differences.  Both times are
    scaled to nominal host speed like op times (see `measure`), and one
    untimed start first fills the bytecode cache.  Taking off the warm op
    time keeps how much work the seed's input happens to need out of this
    figure; the kind is the workload's cheapest, so that little is taken
    off."""
    import workloads

    def scaled(fn):
        ref = reference_ns()
        t0 = time.perf_counter()
        out = fn()
        seconds = time.perf_counter() - t0
        return out, seconds * 2.0 * REF_NOMINAL_NS / (ref + reference_ns())

    j = next(j for j, op in enumerate(w.ops) if op.kind == SETUP_KIND[w.name])
    op = w.ops[j]
    spec = os.path.join(w.workdir, "setup-op.json")
    workloads.write_spec(w, j, spec)
    code = _LOAD.format(src=SRC, bench=BENCH, name=w.name, spec=spec)

    def fresh():
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up run failed: {proc.stderr.strip()}")

    fresh()
    op.check(op.run())
    diffs = []
    for _ in range(SETUP_REPEATS):
        _, cold = scaled(fresh)
        out, warm = scaled(op.run)
        op.check(out)
        diffs.append(cold - warm)
    return statistics.median(diffs)


def reference_ns() -> int:
    """Median wall time of three runs of a fixed loop that never touches
    bellopt but does the kinds of work it does: pure-Python arithmetic,
    small numpy arrays built, multiplied and reduced, and 4x4 eigensolves.
    A reading of the host's current speed."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter_ns()
        s = 0
        for i in range(REF_LOOP):
            s += i * i
        acc = 0.0
        for i in range(REF_ARRAYS):
            k = np.kron(_REF_PAULI[i % 3], np.array([[1.0, 0.2j], [-0.2j, 0.5]]))
            m = k @ k.conj().T
            acc += float(np.trace(m).real) + abs(complex(m[0, 1]))
            acc += float(np.linalg.eigvalsh(_REF_MATRIX)[0])
        times.append(time.perf_counter_ns() - t0)
    return sorted(times)[1]


def measure(w, seconds: int) -> tuple[dict, Runner, dict]:
    """Closed-loop ops, in list order (from the start again if the run gets
    through the list), for `seconds` of wall time in whole rounds.  The
    host's CPU speed swings by up to 40% in states that last from seconds to
    minutes, so each block of ops is timed between two readings of the
    reference loop and its op times are scaled by
    REF_NOMINAL_NS / (mean of the two readings): ms at nominal host speed,
    equal to wall ms when the host runs at that speed.  Op times are kept in
    a flat array, so that the memory they take grows little with the number
    of ops a run gets through."""
    runner = Runner(w)
    n_ops = len(w.ops)
    block = BLOCK_OPS[w.name]
    for j in range(w.round_size):  # warm-up round: checked, not timed
        runner.run(j, j)
    rid = w.round_size
    scaled, wall_ns, passed, factors = array.array("d"), 0, 0, []
    times = array.array("d", bytes(8 * block))
    ref = reference_ns()
    start = time.perf_counter()
    while True:
        for _ in range(w.round_size // block or 1):
            for k in range(block):
                ns, ok = runner.run(rid, rid % n_ops)
                rid += 1
                times[k] = ns
                passed += ok
            ref_after = reference_ns()
            factor = 2.0 * REF_NOMINAL_NS / (ref + ref_after)
            ref = ref_after
            factors.append(factor)
            wall_ns += sum(times)
            scaled.extend(ns * factor for ns in times)
        elapsed = time.perf_counter() - start
        if elapsed >= seconds or elapsed >= MAX_MEASURE_S:
            break
    n = len(scaled)
    metrics = {
        "ops_per_s": passed / (sum(scaled) * 1e-9),
        "op_p50_ms": statistics.median(scaled) * 1e-6,
    }
    info = {"op_p90_ms": statistics.quantiles(scaled, n=10)[8] * 1e-6,
            "samples": n, "beyond_p90": n - math.ceil(0.9 * n),
            "speed_factor_median": statistics.median(factors),
            "wall_ops_per_s": passed / (wall_ns * 1e-9), "measure_s": elapsed}
    return metrics, runner, info


def trace_run(w, seconds: int, spans_path: str) -> tuple[dict, Runner, dict]:
    """Alternate untraced and traced passes over the same ops until
    `seconds` have passed and at least two passes were traced, or until the
    spans kept in memory reach MAX_SPANS."""
    runner = Runner(w)
    tracer = Tracer()
    size = min(len(w.ops), TRACE_PASS_ROUNDS[w.name] * w.round_size)
    passes = {False: [], True: []}  # traced -> [(run ids, op ns)]
    kinds: dict[int, str] = {}
    next_id = 0

    def one_pass(traced: bool) -> None:
        nonlocal next_id
        ids = range(next_id, next_id + size)
        next_id += size
        runner.tracer = tracer if traced else None
        if traced:
            tracer.install()
        try:
            total = 0
            for j, rid in enumerate(ids):
                kinds[rid] = w.ops[j].kind
                total += runner.run(rid, j)[0]
        finally:
            tracer.uninstall()
        passes[traced].append((list(ids), total))

    one_pass(False)  # warm-up
    passes[False].clear()
    start = time.perf_counter()
    while len(passes[True]) < 2 or (time.perf_counter() - start < seconds
                                    and tracer.count() < MAX_SPANS):
        one_pass(False)
        one_pass(True)

    spans = tracer.spans()
    tracer.write(spans_path)
    per_pass = [pass_totals(spans, ids, kinds) for ids, _ in passes[True]]
    out_counts = []
    for ids, _ in passes[False] + passes[True]:
        sums: dict[str, int] = {}
        for rid in ids:
            for key, v in runner.counts.get(rid, {}).items():
                sums[key] = sums.get(key, 0) + v
        out_counts.append(sums)
    mismatches = [f"span calls differ between traced passes 1 and {k + 1}"
                  for k, p in enumerate(per_pass) if p[0] != per_pass[0][0]]
    mismatches += [f"output counts differ between passes 1 and {k + 1}"
                   for k, c in enumerate(out_counts) if c != out_counts[0]]

    calls = per_pass[0][0]
    traced_ns = [t for _, t in passes[True]]
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.self_ms"] = statistics.median(
            p[1][name] for p in per_pass) * 1e-6
    metrics["dynamics.q.table_self_ms"] = statistics.median(
        p[2] for p in per_pass) * 1e-6
    for key in ("oracle.evaluations", "dynamics.events", "dynamics.grid_too_coarse"):
        metrics[key] = out_counts[0].get(key, 0)
    metrics["trace.overhead"] = (statistics.median(traced_ns)
                                 / statistics.median(t for _, t in passes[False]))
    for layer in LAYERS:
        metrics[f"{layer}.share_pct"] = 100.0 * statistics.median(
            sum(v for k, v in p[1].items() if k.startswith(layer + ".")) / t
            for p, t in zip(per_pass, traced_ns))
    info = {"pass_ops": size, "traced_passes": len(per_pass),
            "untraced_passes": len(passes[False]), "spans": len(spans),
            "absent": tracer.absent, "mismatches": mismatches,
            "span_file": os.path.relpath(spans_path, ROOT)}
    return metrics, runner, info


def run_one(args, spec: dict) -> int:
    sys.path.insert(0, SRC)
    import bellopt

    if not os.path.abspath(bellopt.__file__).startswith(SRC + os.sep):
        print(f"error: bellopt imported from {bellopt.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    results = os.path.join(BENCH, "results")
    os.makedirs(results, exist_ok=True)
    os.makedirs(os.path.join(BENCH, ".work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-",
                               dir=os.path.join(BENCH, ".work"))
    stem = os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    try:
        w = workloads.build(args.workload, args.seed, workdir)
        if args.trace:
            wanted = spec["per_layer"]
            metrics, runner, info = trace_run(w, args.seconds, stem + "-spans.npz")
        else:
            wanted = spec["end_to_end"]
            setup_s = measure_setup(w)
            metrics, runner, info = measure(w, args.seconds)
            metrics["setup_s"] = setup_s
            metrics["peak_rss_mb"] = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    names = [m["name"] for m in wanted]
    if set(names) != set(metrics):
        print(f"error: metrics {sorted(metrics)} do not match BENCHMARK.json "
              f"{sorted(names)}", file=sys.stderr)
        return 1
    failed = len(runner.failures)
    correct = failed == 0 and not info.get("mismatches")
    out = {name: {"value": metrics[name], "unit": m["unit"]}
           for name, m in zip(names, wanted)}
    record = {"workload": args.workload, "trace": args.trace,
              "env": _environment(args.seed), "correct": correct,
              "attempted": runner.attempted, "failed": failed,
              "fail_ratio": failed / runner.attempted, "metrics": out,
              "info": info, "failures": runner.failures[:50]}
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=2)

    env = record["env"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"python={env['python']} numpy={env['numpy']} nproc={env['nproc']} "
          f"commit={env['commit']}")
    for name in names:
        print(f"{args.workload:16s} {name:34s} {metrics[name]:>14.6g} {out[name]['unit']}")
    print(f"{args.workload:16s} {'fail_ratio':34s} {record['fail_ratio']:>14.6g} "
          f"({failed}/{runner.attempted})")
    if "op_p90_ms" in info:  # printed, not gated: see perfbench/README.md
        print(f"{args.workload:16s} {'op_p90_ms':34s} {info['op_p90_ms']:>14.6g} ms "
              f"({info['samples']} ops, {info['beyond_p90']} beyond)")
    for key, value in info.items():
        if key not in ("op_p90_ms", "samples", "beyond_p90"):
            print(f"# {key}: {value}")
    for line in runner.failures[:20] + info.get("mismatches", []):
        print(f"# FAIL {line}")
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": failed, "metrics": out}))
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process, so that peak RSS and set-up
    are per workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        doc = json.loads(lines[-1])
        total["correct"] = total["correct"] and doc["correct"]
        total["attempted"] += doc["attempted"]
        total["failed"] += doc["failed"]
        for key, m in doc["metrics"].items():
            total["metrics"][f"{name}.{key}"] = m
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "bellopt", "__init__.py")):
        print(f"error: no bellopt package under {SRC}", file=sys.stderr)
        return 2
    if not os.path.isfile(spec_path):
        print(f"error: {spec_path} is missing", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if hasattr(os, "sched_setaffinity"):
        # one CPU for the ops, the readings of the host's speed and the
        # fresh interpreters alike, so each reading is of the CPU it scales
        try:
            os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        except OSError as exc:
            print(f"# not pinned to one CPU: {exc}")
    with open(spec_path) as fh:
        spec = json.load(fh)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
