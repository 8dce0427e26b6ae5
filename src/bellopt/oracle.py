"""Brute-force maximization of the Bell function over all measurement settings.

The independent certification route: it never touches the closed-form
eigenvalues or angle formulas.  The Bell function is bilinear, so for fixed
Alice directions a, a' the best Bob directions are those of T(a + a') and
T(a - a'), worth f(a, a') = |T(a + a')| + |T(a - a')| by Cauchy-Schwarz
(Horodecki, Horodecki & Horodecki, Phys. Lett. A 200, 340 (1995)).  f is
maximized over Alice's 4 angles on a grid of direction pairs, then by compass
search from the best pair and from seeded splitmix64 restarts.  The reported
value is the Bell function at the 8 angles found.  All evaluators are
elementwise, so results are reproducible bit for bit whatever the batching.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .states import DensityMatrix4, pauli_correlation_matrix

# Largest coarse grid accepted, in bytes of the arrays it evaluates at once.
MAX_GRID_BYTES = 256 * 2 ** 20

_MASK64 = (1 << 64) - 1
_GAMMA64 = 0x9E3779B97F4A7C15
# Proposals certify_settings evaluates per call.
_CERTIFY_BLOCK = 64
# Most restarts refined in one batch: a poll's working set is ~2 kB per
# restart, so a batch stays under ~2 MB however many restarts are asked for.
_COMPASS_BATCH = 1024
# The 8 compass moves: move m steps Alice's angle _MOVE_AXIS[m] (of theta1,
# theta1', phi1, phi1') by _MOVE_SIGN[m] times the step.
_MOVE_INDEX = np.arange(8)
_MOVE_AXIS = _MOVE_INDEX % 4
_MOVE_SIGN = np.repeat([1.0, -1.0], 4)


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
    """Sines and cosines of a (..., n) angle array, angle axis first."""
    a = np.moveaxis(angles, -1, 0)
    return np.sin(a, order="C"), np.cos(a, order="C")


def _images(t: np.ndarray, x, y, z) -> list:
    """Components of T v for the direction components x, y, z."""
    return [ti[0] * x + ti[1] * y + ti[2] * z for ti in t.tolist()]


def _bell_from_trig(t: np.ndarray, s: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Bell values from the sines and cosines of the 8 angles, via
    E(a,b) = b.(T a).

    Angle order along the first axis: (theta1, theta1', theta2, theta2',
    phi1, phi1', phi2, phi2').  Only elementwise arithmetic with a fixed
    summation order is used, so each value is the same bit for bit whatever
    batch it is evaluated in.
    """
    x, y, z = s[:4] * c[4:], s[:4] * s[4:], c[:4]
    ta = _images(t, x[:2], y[:2], z[:2])  # (T a)_i
    e = x[2:, None] * ta[0] + y[2:, None] * ta[1] + z[2:, None] * ta[2]
    # e[j, k] = E(a_k, b_j): E(a,b) + E(a,b') + E(a',b) - E(a',b')
    return np.abs(e[0, 0] + e[1, 0] + e[0, 1] - e[1, 1])


def _bell_values(t: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Bell values for a (..., 8) array of raw angles (see _bell_from_trig)."""
    return _bell_from_trig(t, *_trig(angles))


def _sum_diff(t: np.ndarray, s, c):
    """Yields T(a + a') then T(a - a') (component lists) from the sines s and
    cosines c of Alice's 4 angles, indexed first; their arrays broadcast."""
    u = _images(t, s[0] * c[2], s[0] * s[2], c[0])
    v = _images(t, s[1] * c[3], s[1] * s[3], c[1])
    yield [a + b for a, b in zip(u, v)]
    yield [a - b for a, b in zip(u, v)]


def _alice_values(t: np.ndarray, s, c) -> np.ndarray:
    """f(a, a') = |T(a + a')| + |T(a - a')| (see _sum_diff)."""
    return sum(np.sqrt(w[0] * w[0] + w[1] * w[1] + w[2] * w[2])
               for w in _sum_diff(t, s, c))


def _grid_bytes(grid_n: int) -> int:
    # _coarse_grid_best holds at most 7 float64 arrays over the pairs at once
    return 7 * 8 * grid_n ** 4


def _coarse_grid_best(t: np.ndarray, grid_n: int) -> np.ndarray:
    """Alice's angles (theta1, theta1', phi1, phi1') of the best ordered pair
    of grid directions, with f evaluated on all grid_n^2 x grid_n^2 pairs."""
    phis = -math.pi + 2.0 * math.pi * np.arange(1, grid_n + 1) / grid_n
    tt, pp = (g.ravel() for g in np.meshgrid(np.linspace(0.0, math.pi, grid_n),
                                             phis, indexing="ij"))
    pairs = (tt[:, None], tt[None, :], pp[:, None], pp[None, :])
    f = _alice_values(t, [np.sin(g) for g in pairs], [np.cos(g) for g in pairs])
    i, j = np.unravel_index(np.argmax(f), f.shape)
    return np.array([tt[i], tt[j], pp[i], pp[j]])


def _compass_search(t: np.ndarray, starts: np.ndarray, initial_step: float,
                    max_iters: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coordinate-wise compass search of f from each row of the (R, 4)
    `starts` (Alice's angles).

    Every restart keeps its own step (halved when no move improves), value
    and evaluation count, and stops at step < 1e-8 or after max_iters polls.
    Each poll evaluates the 8 moves of all live restarts as one batch; each
    row's result equals a one-start search.  Returns values, angles, counts.
    """
    current = np.array(starts, dtype=float)
    sin, cos = _trig(current)
    value = _alice_values(t, sin, cos)
    step = np.full(len(current), float(initial_step))
    evals = np.ones(len(current), dtype=np.int64)
    n_moves = len(_MOVE_INDEX)
    for _ in range(max_iters):
        live = np.flatnonzero(step >= 1e-8)
        if live.size == 0:
            break
        # a move changes one angle, so only its sine and cosine are new
        moved = current[live][:, _MOVE_AXIS] + step[live, None] * _MOVE_SIGN
        s = np.repeat(sin[:, live, None], n_moves, axis=2)
        c = np.repeat(cos[:, live, None], n_moves, axis=2)
        s[_MOVE_AXIS, :, _MOVE_INDEX] = np.sin(moved.T)
        c[_MOVE_AXIS, :, _MOVE_INDEX] = np.cos(moved.T)
        vals = _alice_values(t, s, c)  # (live, 8)
        rows = np.arange(live.size)
        k = vals.argmax(axis=1)
        top = vals[rows, k]
        up = top > value[live]
        won, rows, k = live[up], rows[up], k[up]
        value[won] = top[up]
        current[won, _MOVE_AXIS[k]] = moved[rows, k]
        sin[:, won] = s[:, rows, k]
        cos[:, won] = c[:, rows, k]
        step[live[~up]] *= 0.5
        evals[live] += n_moves
    return value, current, evals


def _settings(t: np.ndarray, alice: np.ndarray) -> np.ndarray:
    """All 8 angles: Alice's, and Bob's along T(a + a') and T(a - a')."""
    th, th2, ph, ph2 = alice.tolist()
    angles = [th, th2, 0.0, 0.0, ph, ph2, 0.0, 0.0]
    for k, w in enumerate(_sum_diff(t, *_trig(alice))):
        x, y, z = (float(v) for v in w)
        if x or y or z:  # a zero vector keeps +z: every direction is as good
            angles[2 + k] = math.atan2(math.hypot(x, y), z)
            angles[6 + k] = math.atan2(y, x)
    return np.array(angles)


def brute_force_bmax(rho: DensityMatrix4, cfg: OracleConfig) -> OracleResult:
    """Grid-then-refine maximization of the Bell function over all settings.

    Deterministic for a fixed cfg (including the seed); restarts are merged
    by max, the earliest start winning ties.  `evaluations` counts the
    grid_n^4 grid pairs, 1 per start and 8 per poll of each live restart.
    """
    if _grid_bytes(cfg.grid_n) > MAX_GRID_BYTES:
        raise BudgetExceeded(f"coarse grid needs {_grid_bytes(cfg.grid_n)} bytes "
                             f"(limit {MAX_GRID_BYTES} bytes)")
    t = pauli_correlation_matrix(rho).t
    # per restart: 2 thetas in [0, pi), then 2 phis in [-pi, pi)
    lo = np.tile(np.repeat([0.0, -math.pi], 2), cfg.restarts)
    restarts = Splitmix64(cfg.seed).uniforms(4 * cfg.restarts, lo, math.pi)
    starts = np.vstack([_coarse_grid_best(t, cfg.grid_n),
                        restarts.reshape(cfg.restarts, 4)])
    batches = [_compass_search(t, starts[i:i + _COMPASS_BATCH],
                               math.pi / cfg.grid_n, cfg.refine_iters)
               for i in range(0, len(starts), _COMPASS_BATCH)]
    values, alice, evals = (np.concatenate(parts) for parts in zip(*batches))
    # the first of equal maxima, as in start order
    angles = _settings(t, alice[int(values.argmax())])
    return OracleResult(
        bmax_est=float(_bell_values(t, angles)),
        thetas=tuple(angles[:4].tolist()),
        phis=tuple(angles[4:].tolist()),
        evaluations=cfg.grid_n ** 4 + int(evals.sum()),
    )


def certify_settings(rho: DensityMatrix4, s, cfg: OracleConfig) -> float:
    """Best Bell improvement found by a seeded random walk around the
    settings `s` (anything with 4 `thetas` and 4 `phis`, such as an
    `AngleSettings`).

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
