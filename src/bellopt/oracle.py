"""Brute-force maximization of the Bell function over all 8 angles.

This is the independent certification route: it never touches the closed-form
eigenvalues or angle formulas.  A coarse grid over every measurement direction
is followed by derivative-free compass refinement from the best grid point and
from seeded random restarts.  The restarts run as one batch (up to 1024 at a
time): each compass poll evaluates the 16 moves of every live restart in a
single call, while each restart keeps its own step and stop rule.  The
certification walk evaluates its proposals in blocks and takes the same steps
as proposing one move at a time.  The Bell evaluator is elementwise,
so a row's value does not depend on the batch it sits in, and results are
reproducible bit for bit whatever the batch composition.  Randomness comes
from a self-contained splitmix64 generator (drawn in bulk, bit-identical to
one draw at a time) so results are reproducible across platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .angles import AngleSettings
from .states import DensityMatrix4, pauli_correlation_matrix

MAX_COARSE_EVALS = 1_000_000_000

_MASK64 = (1 << 64) - 1
_GAMMA64 = 0x9E3779B97F4A7C15
# Proposals certify_settings evaluates per call.
_CERTIFY_BLOCK = 64
# Most restarts refined in one batch: a poll's working set is ~7.5 kB per
# restart, so a batch stays under ~8 MB however many restarts are asked for.
_COMPASS_BATCH = 1024
# The 16 compass moves: +/- one unit along each of the 8 angles; move m
# changes angle _MOVE_AXIS[m].
_COMPASS_MOVES = np.vstack([np.eye(8), -np.eye(8)])
_MOVE_INDEX = np.arange(16)
_MOVE_AXIS = _MOVE_INDEX % 8


class BudgetExceeded(ValueError):
    pass


class Splitmix64:
    """splitmix64: state += 0x9E3779B97F4A7C15; output is the state mixed by
    two xor-shift-multiply rounds (x ^= x>>30, *0xBF58476D1CE4E5B9;
    x ^= x>>27, *0x94D049BB133111EB; x ^= x>>31), all mod 2^64."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA64) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return (z ^ (z >> 31)) & _MASK64

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        # 53-bit mantissa in [0, 1)
        u = (self.next_u64() >> 11) * (1.0 / (1 << 53))
        return lo + (hi - lo) * u

    def uniforms(self, n: int, lo=0.0, hi=1.0) -> np.ndarray:
        """n draws at once, bit-identical to n successive uniform(lo, hi)
        calls; lo and hi may be scalars or length-n arrays."""
        k = np.arange(1, n + 1, dtype=np.uint64)
        z = np.uint64(self._state) + k * np.uint64(_GAMMA64)  # wraps mod 2^64
        self._state = (self._state + n * _GAMMA64) & _MASK64
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
        u = (z >> np.uint64(11)).astype(np.float64) * (1.0 / (1 << 53))
        return lo + (hi - lo) * u


@dataclass(frozen=True)
class OracleConfig:
    grid_n: int = 8
    refine_iters: int = 500
    restarts: int = 16
    seed: int = 0

    def __post_init__(self):
        if self.grid_n < 4:
            raise ValueError("grid_n must be >= 4")
        if self.refine_iters < 0:
            raise ValueError("refine_iters must be >= 0")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if not (0 <= self.seed <= _MASK64):
            raise ValueError("seed must fit in 64 bits")


@dataclass(frozen=True)
class OracleResult:
    bmax_est: float
    thetas: tuple[float, float, float, float]
    phis: tuple[float, float, float, float]
    evaluations: int

    def __post_init__(self):
        if not (0.0 <= self.bmax_est <= 2.0 * math.sqrt(2.0) + 1e-6):
            raise ValueError(f"bmax_est out of range: {self.bmax_est!r}")


def _trig(angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sines and cosines of a (..., 8) angle array, angle axis first."""
    a = np.moveaxis(angles, -1, 0)
    return np.sin(a, order="C"), np.cos(a, order="C")


def _bell_from_trig(t: np.ndarray, s: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Bell values from the sines and cosines of the 8 angles, via
    E(a,b) = b.(T a).

    Angle order along the first axis: (theta1, theta1', theta2, theta2',
    phi1, phi1', phi2, phi2').  Mathematically identical to the direct-trace
    evaluator.  Only elementwise arithmetic with a fixed summation order is
    used (no matrix products), so each value is the same bit for bit
    whatever batch it is evaluated in.
    """
    x, y, z = s[:4] * c[4:], s[:4] * s[4:], c[:4]
    xa, ya, za = x[:2], y[:2], z[:2]
    ta = [ti[0] * xa + ti[1] * ya + ti[2] * za for ti in t.tolist()]  # (T a)_i
    e = x[2:, None] * ta[0] + y[2:, None] * ta[1] + z[2:, None] * ta[2]
    # e[j, k] = E(a_k, b_j): E(a,b) + E(a,b') + E(a',b) - E(a',b')
    return np.abs(e[0, 0] + e[1, 0] + e[0, 1] - e[1, 1])


def _bell_values(t: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Bell values for a (..., 8) array of raw angles (see _bell_from_trig)."""
    return _bell_from_trig(t, *_trig(angles))


def _grid_angles(grid_n: int) -> tuple[np.ndarray, np.ndarray]:
    thetas = np.linspace(0.0, math.pi, grid_n)
    phis = -math.pi + 2.0 * math.pi * np.arange(1, grid_n + 1) / grid_n
    return thetas, phis


def _coarse_grid_best(t: np.ndarray, grid_n: int) -> tuple[float, np.ndarray]:
    """Exhaustive max over the grid_n^8 angle grid.

    E(a, b) is bilinear in the direction vectors, so the 8-dimensional sweep
    reduces to per-(a, a') extrema over b and b' of E[b,a] +/- E[b,a'] while
    still covering every grid combination exactly.
    """
    thetas, phis = _grid_angles(grid_n)
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    tt, pp = tt.ravel(), pp.ravel()
    st = np.sin(tt)
    dirs = np.stack([st * np.cos(pp), st * np.sin(pp), np.cos(tt)], axis=-1)
    e = dirs @ t @ dirs.T  # e[b, a] = b . (T a)

    plus = e[:, :, None] + e[:, None, :]   # (b, a, a')
    minus = e[:, :, None] - e[:, None, :]
    max_p, min_p = plus.max(axis=0), plus.min(axis=0)
    max_m, min_m = minus.max(axis=0), minus.min(axis=0)
    pos = max_p + max_m
    neg = -(min_p + min_m)

    best_pos = np.unravel_index(np.argmax(pos), pos.shape)
    best_neg = np.unravel_index(np.argmax(neg), neg.shape)
    if pos[best_pos] >= neg[best_neg]:
        a_i, ap_i = best_pos
        b_i = int(plus[:, a_i, ap_i].argmax())
        bp_i = int(minus[:, a_i, ap_i].argmax())
        value = float(pos[best_pos])
    else:
        a_i, ap_i = best_neg
        b_i = int(plus[:, a_i, ap_i].argmin())
        bp_i = int(minus[:, a_i, ap_i].argmin())
        value = float(neg[best_neg])
    idx = (a_i, ap_i, b_i, bp_i)
    start = np.array([tt[idx[0]], tt[idx[1]], tt[idx[2]], tt[idx[3]],
                      pp[idx[0]], pp[idx[1]], pp[idx[2]], pp[idx[3]]])
    return value, start


def _compass_search(t: np.ndarray, starts: np.ndarray, initial_step: float,
                    max_iters: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coordinate-wise compass search from each row of the (R, 8) `starts`.

    Every restart keeps its own step (halved when no move improves), value
    and evaluation count, and stops at step < 1e-8 or after max_iters polls.
    Each poll evaluates the 16 moves of all live restarts as one batch, and
    finished restarts drop out of it.  Restarts never interact, so each row's
    result equals a one-start search.  Returns the values (R,), angles (R, 8)
    and evaluation counts (R,).
    """
    current = np.array(starts, dtype=float)
    sin, cos = _trig(current)
    value = _bell_from_trig(t, sin, cos)
    step = np.full(len(current), float(initial_step))
    evals = np.ones(len(current), dtype=np.int64)
    n_moves = len(_COMPASS_MOVES)
    for _ in range(max_iters):
        live = np.flatnonzero(step >= 1e-8)
        if live.size == 0:
            break
        batch = current[live, None, :] + step[live, None, None] * _COMPASS_MOVES
        # A move changes one angle, so only its sine and cosine are new; the
        # others are the current point's.  Evaluating `batch` directly gives
        # the same values: current + 0.0 differs from current only in the
        # sign of a zero angle, which changes no magnitude and |B| drops.
        moved = batch[:, _MOVE_INDEX, _MOVE_AXIS].T
        s = np.repeat(sin[:, live, None], n_moves, axis=2)
        c = np.repeat(cos[:, live, None], n_moves, axis=2)
        s[_MOVE_AXIS, :, _MOVE_INDEX] = np.sin(moved)
        c[_MOVE_AXIS, :, _MOVE_INDEX] = np.cos(moved)
        vals = _bell_from_trig(t, s, c)  # (live, 16)
        rows = np.arange(live.size)
        k = vals.argmax(axis=1)
        top = vals[rows, k]
        up = top > value[live]
        won, rows, k = live[up], rows[up], k[up]
        value[won] = top[up]
        current[won] = batch[rows, k]
        sin[:, won] = s[:, rows, k]
        cos[:, won] = c[:, rows, k]
        step[live[~up]] *= 0.5
        evals[live] += n_moves
    return value, current, evals


def brute_force_bmax(rho: DensityMatrix4, cfg: OracleConfig) -> OracleResult:
    """Grid-then-refine maximization of the Bell function over all settings.

    Deterministic for a fixed cfg (including the seed); restarts are
    independent and merged by max, the earliest start winning ties.
    """
    if cfg.grid_n ** 8 > MAX_COARSE_EVALS:
        raise BudgetExceeded(
            f"coarse grid needs {cfg.grid_n ** 8} evaluations (limit {MAX_COARSE_EVALS})"
        )
    t = pauli_correlation_matrix(rho).t
    best_value, grid_start = _coarse_grid_best(t, cfg.grid_n)
    best_angles = grid_start

    # per restart: 4 thetas in [0, pi), then 4 phis in [-pi, pi)
    lo = np.tile(np.repeat([0.0, -math.pi], 4), cfg.restarts)
    restarts = Splitmix64(cfg.seed).uniforms(8 * cfg.restarts, lo, math.pi)
    starts = np.vstack([grid_start, restarts.reshape(cfg.restarts, 8)])
    batches = [_compass_search(t, starts[i:i + _COMPASS_BATCH],
                               math.pi / cfg.grid_n, cfg.refine_iters)
               for i in range(0, len(starts), _COMPASS_BATCH)]
    values, angles, evals = (np.concatenate(parts) for parts in zip(*batches))
    k = int(values.argmax())  # the first of equal maxima, as in start order
    if values[k] > best_value:
        best_value, best_angles = float(values[k]), angles[k]
    return OracleResult(
        bmax_est=best_value,
        thetas=tuple(float(v) for v in best_angles[:4]),
        phis=tuple(float(v) for v in best_angles[4:]),
        evaluations=cfg.grid_n ** 8 + int(evals.sum()),
    )


def certify_settings(rho: DensityMatrix4, s: AngleSettings,
                     cfg: OracleConfig) -> float:
    """Best Bell improvement found by a seeded random walk around `s`.

    Two stages of hill climbing (perturbation radius pi/8, then pi/64, each
    for max(refine_iters, 64) steps).  A return value <= 1e-6 certifies that
    `s` is a local maximum; a clearly positive value exhibits better settings
    nearby.
    """
    t = pauli_correlation_matrix(rho).t
    current = np.array(s.thetas + s.phis)
    base = float(_bell_values(t, current))
    rng = Splitmix64(cfg.seed)
    steps = max(cfg.refine_iters, 64)
    best = base
    for radius in (math.pi / 8.0, math.pi / 64.0):
        moves = rng.uniforms(8 * steps, -radius, radius).reshape(steps, 8)
        # Proposals are evaluated a block at a time; the walk accepts the
        # first one that beats `best` and resumes right after it, which is
        # the same walk as proposing one move at a time.
        i = 0
        while i < steps:
            proposals = current + moves[i:i + _CERTIFY_BLOCK]
            values = _bell_values(t, proposals)
            better = np.flatnonzero(values > best)
            if better.size == 0:
                i += _CERTIFY_BLOCK
                continue
            k = int(better[0])
            best, current = float(values[k]), proposals[k]
            i += k + 1
    return best - base
