"""Span tracing of bellopt's layers from outside the package.

`Tracer.install` replaces each listed function with a wrapper at every place
a `bellopt` module holds a reference to it (the defining module, each module
that imported it by name, and the package namespace), so calls are seen no
matter which import site they go through.  `uninstall` puts the originals
back.  Each span records its id, name, parent span, op index, start, end and
self time (duration minus the time covered by its child spans); spans stay in
memory until `write` saves them.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# (span name, module, attribute); a dotted attribute is a method on a class.
# The oracle's private stages may be renamed by later versions: a missing
# target is reported as absent, not as an error.
TARGETS = (
    ("states.validate_density_matrix", "bellopt.states", "validate_density_matrix"),
    ("states.as_x_state", "bellopt.states", "as_x_state"),
    ("chsh.bell_function", "bellopt.chsh", "bell_function"),
    ("chsh.horodecki_bmax", "bellopt.chsh", "horodecki_bmax"),
    ("chsh.x_state_eigenvalues", "bellopt.chsh", "x_state_eigenvalues"),
    ("angles.optimal_settings", "bellopt.angles", "optimal_settings"),
    ("angles.settings_set2", "bellopt.angles", "settings_set2"),
    ("dynamics.time_scan", "bellopt.dynamics", "time_scan"),
    ("dynamics.q", "bellopt.dynamics", "ExponentialModel.q"),
    ("dynamics.q", "bellopt.dynamics", "LorentzianModel.q"),
    ("dynamics.q", "bellopt.dynamics", "TabulatedModel.q"),
    ("dynamics.evolve_x", "bellopt.dynamics", "evolve_x"),
    ("oracle.brute_force_bmax", "bellopt.oracle", "brute_force_bmax"),
    ("oracle.certify_settings", "bellopt.oracle", "certify_settings"),
    ("oracle.grid", "bellopt.oracle", "_coarse_grid_best"),
    ("oracle.compass", "bellopt.oracle", "_compass_search"),
    ("cli.main", "bellopt.cli", "main"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in TARGETS))
LAYERS = ("states", "chsh", "angles", "dynamics", "oracle", "cli")
_COLUMNS = ("id", "name", "parent", "op", "start_ns", "end_ns", "self_ns")


class Tracer:
    def __init__(self):
        self.op = -1  # index of the op in progress; set by the runner
        self.absent: list[str] = []
        self._spans = array("q")  # _COLUMNS per span, in order of completion
        self._stack: list[list[int]] = []  # [span id, child time] per open span
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name_id: int, fn):
        stack, spans, clock = self._stack, self._spans, time.perf_counter_ns

        def span(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                spans.extend((sid, name_id, parent, self.op, t0, t1,
                              t1 - t0 - frame[1]))

        return functools.update_wrapper(span, fn)

    def install(self) -> None:
        self.absent = []
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "bellopt" or k.startswith("bellopt."))]
        for name, module, attr in TARGETS:
            owner = sys.modules.get(module)
            for part in attr.split(".")[:-1]:
                owner = getattr(owner, part, None)
            leaf = attr.rsplit(".", 1)[-1]
            original = getattr(owner, leaf, None)
            if original is None:
                self.absent.append(f"{name} ({module}.{attr})")
                continue
            wrapper = self._wrap(SPAN_NAMES.index(name), original)
            holders = [owner] if "." in attr else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patches.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            holder, key, original = self._patches.pop()
            setattr(holder, key, original)

    def count(self) -> int:
        return len(self._spans) // len(_COLUMNS)

    def spans(self) -> np.ndarray:
        """One row per span, columns as in _COLUMNS."""
        # copy, so the array stays appendable after the view is dropped
        return np.frombuffer(self._spans, dtype=np.int64).copy().reshape(
            -1, len(_COLUMNS))

    def write(self, path: str) -> None:
        np.savez_compressed(path, spans=self.spans(), columns=np.array(_COLUMNS),
                            names=np.array(SPAN_NAMES))


def pass_totals(spans: np.ndarray, op_ids: list[int], kinds: dict[int, str]):
    """Calls and self time per span name over the given ops, plus the self
    time of `dynamics.q` inside table scans."""
    rows = spans[np.isin(spans[:, 3], op_ids)]
    n = len(SPAN_NAMES)
    calls = np.bincount(rows[:, 1], minlength=n)
    self_ns = np.bincount(rows[:, 1], weights=rows[:, 6], minlength=n)
    table_ops = [i for i in op_ids if kinds[i] == "table"]
    q_rows = rows[(rows[:, 1] == SPAN_NAMES.index("dynamics.q"))
                  & np.isin(rows[:, 3], table_ops)]
    return (
        {name: int(calls[i]) for i, name in enumerate(SPAN_NAMES)},
        {name: float(self_ns[i]) for i, name in enumerate(SPAN_NAMES)},
        float(q_rows[:, 6].sum()),
    )
