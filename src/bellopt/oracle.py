"""Brute-force maximization of the Bell function over all measurement settings.

The independent certification route: it never touches the closed-form
eigenvalues or angle formulas.  The Bell function is bilinear, so for fixed
Alice directions a, a' the best Bob directions are those of T(a + a') and
T(a - a'), worth f(a, a') = |T(a + a')| + |T(a - a')| by Cauchy-Schwarz
(Horodecki, Horodecki & Horodecki, Phys. Lett. A 200, 340 (1995)).  For unit
a, a' the vectors a +- a' are orthogonal, so max f = 2 sqrt(||T||_F^2 -
min_n |T n|^2) over unit n, attained with a, a' in the plane normal to n.
|T n|^2 is minimized over n's two angles on a grid, then by a zooming 9x9
pattern search from the best grid point and from seeded splitmix64 restarts;
Alice's and Bob's directions then follow explicitly.  The reported value is
the Bell function at the 8 angles found.  Evaluators are elementwise or fixed-size
contractions, start axis first, so results are bitwise the same in any batching.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .states import BellSettings, DensityMatrix4, pauli_correlation_matrix

# Largest search accepted, in bytes of the arrays it holds at once.
MAX_GRID_BYTES = 256 * 2 ** 20

_MASK64 = (1 << 64) - 1
_GAMMA64 = 0x9E3779B97F4A7C15
# Moves certify_settings draws and evaluates at once: one block per stage at
# the default refine_iters, the first block also holding the base value.
_CERTIFY_BLOCK = 1024
_CERTIFY_WINDOW = 64  # moves evaluated at once after an accepted move, as more often follow
# Most starts refined in one batch: a search holds ~3 kB per start, so a
# batch stays under ~1 MB however many restarts are asked for.
_COMPASS_BATCH = 256
# The 81 pattern points m = n + i h e1 + j h e2 (i outer): i, j, whether each
# is interior, i^2 + j^2, c = (1, i, j) and c_a c_b, as |T m|^2 = c^T G c.
_I, _J = np.repeat(np.arange(-4.0, 5.0), 9), np.tile(np.arange(-4.0, 5.0), 9)
_INTERIOR = (np.abs(_I) < 4) & (np.abs(_J) < 4)
_RADII = _I * _I + _J * _J
_C = np.stack([np.ones(81), _I, _J], axis=1)[:, :, None]
_BASIS = np.array([a * b for a in (np.ones(81), _I, _J) for b in (np.ones(81), _I, _J)])
# The 9 entries of n, h e1, h e2 as products of three columns of sin th, sin ph,
# cos th, cos ph, -sin th, -sin ph, 1, 0, h: n = (st cp 1, st sp 1, ct 1 1), ...
_IA, _IB, _IC = np.array([[0, 0, 2, 2, 2, 4, 5, 3, 7], [3, 1, 6, 3, 1, 6, 6, 6, 6],
                          [6, 6, 6, 8, 8, 8, 8, 8, 8]])


class BudgetExceeded(ValueError):
    pass


class Splitmix64:
    """splitmix64: state += 0x9E3779B97F4A7C15; output is the state mixed by
    two xor-shift-multiply rounds (x ^= x>>30, *0xBF58476D1CE4E5B9;
    x ^= x>>27, *0x94D049BB133111EB; x ^= x>>31), all mod 2^64."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def uniforms(self, n: int, lo=0.0, hi=1.0) -> np.ndarray:
        """n draws in [lo, hi), each lo + (hi - lo) times the output's top 53
        bits over 2^53; lo and hi may be scalars or length-n arrays."""
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
class OracleResult(BellSettings):
    bmax_est: float
    evaluations: int

    def __post_init__(self):
        super().__post_init__()
        if not (0.0 <= self.bmax_est <= 2.0 * math.sqrt(2.0) + 1e-6):
            raise ValueError(f"bmax_est out of range: {self.bmax_est!r}")


def _images(t: np.ndarray, x, y, z) -> list:
    """Components of T v for the direction components x, y, z."""
    return [ti[0] * x + ti[1] * y + ti[2] * z for ti in t.tolist()]


def _bell_values(t: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Bell values for a (..., 8) array of raw angles (theta1, theta1',
    theta2, theta2', phi1, phi1', phi2, phi2'), via E(a,b) = b.(T a).

    Only elementwise arithmetic with a fixed summation order is used, so
    each value is the same bit for bit whatever batch it is evaluated in.
    """
    a = np.moveaxis(angles, -1, 0)  # angle axis first, C-contiguous
    s, c = np.sin(a, order="C"), np.cos(a, order="C")
    x, y, z = s[:4] * c[4:], s[:4] * s[4:], c[:4]
    ta = _images(t, x[:2], y[:2], z[:2])  # (T a)_i
    e = x[2:, None] * ta[0] + y[2:, None] * ta[1] + z[2:, None] * ta[2]
    # e[j, k] = E(a_k, b_j): E(a,b) + E(a,b') + E(a',b) - E(a',b')
    return np.abs(e[0, 0] + e[1, 0] + e[0, 1] - e[1, 1])


def _frame(theta, phi):
    """n = (sin th cos ph, sin th sin ph, cos th) and the orthonormal
    e1 = dn/dth, e2 = (-sin ph, cos ph, 0) normal to it (at the poles too),
    as component tuples; theta and phi are floats or arrays that broadcast."""
    st, ct, sp, cp = np.sin(theta), np.cos(theta), np.sin(phi), np.cos(phi)
    return (st * cp, st * sp, ct), (ct * cp, ct * sp, -st), (-sp, cp, 0.0)


def _grid_bytes(grid_n: int, restarts: int) -> int:
    # Over-estimates the bytes brute_force_bmax holds at once: 8 float64
    # arrays over the grid directions, 16 words per start (draws, point,
    # value, count) and 12 per pattern point of each start in a batch (a poll
    # holds ~5: 81 values, their divisors, 9 factors and four 3x3 matrices each).
    starts = restarts + 1
    return 8 * (8 * grid_n ** 2 + 16 * starts + 972 * min(starts, _COMPASS_BATCH))


def _coarse_grid_best(t: np.ndarray, grid_n: int) -> np.ndarray:
    """(theta, phi) of the direction n with the least |T n|^2 on the
    grid_n x grid_n grid of polar and azimuthal angles."""
    thetas = np.linspace(0.0, math.pi, grid_n)
    phis = -math.pi + 2.0 * math.pi * np.arange(1, grid_n + 1) / grid_n
    g = sum(w * w for w in _images(t, *_frame(thetas[:, None], phis)[0]))
    i, j = np.unravel_index(np.argmin(g), g.shape)
    return np.array([thetas[i], phis[j]])


def _compass_search(t: np.ndarray, starts: np.ndarray, initial_step: float,
                    max_iters: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Zooming pattern search of g(n) = |T n|^2 from each row (theta, phi)
    of the (R, 2) `starts`.

    A poll evaluates g at the 9x9 directions m = n + i h e1 + j h e2, i, j in
    -4..4 (a square on the sphere, poles included), as c^T G c / |m|^2 from
    each live start's `_gram`, and moves it to the best of them (the first of
    equal minima, i outer).  The step h is divided by 4 when that point is
    interior or gains no more than rounding, and grows by half when it is on
    the edge, so that a start crosses a long valley in few polls.  A start
    stops at h < 1e-8 or after max_iters polls; each row's result equals a
    one-start search.  Returns values, points, evaluation counts.
    """
    at = point = np.array(starts, dtype=float)
    step = np.full(len(point), float(initial_step))
    e = np.zeros((len(point), 9))  # each poll's factors of its frames, for _gram
    e[:, 6] = 1.0
    now = value = _gram(t, point, step, e)[1][:, 0]  # |T n|^2, the pattern's center
    evals = np.full(len(point), 1 + 81 * max_iters)  # less for a start that stops
    rounding = 4.0 * np.finfo(float).eps * sum(v * v for v in t.ravel().tolist())
    live = np.arange(len(point))  # rows of the live starts, kept compacted in at, now, step
    for poll in range(max_iters):
        done = step < 1e-8
        if done.any():
            gone = live[done]
            point[gone], value[gone], evals[gone] = at[done], now[done], 1 + 81 * poll
            live, at, now, step = (a[~done] for a in (live, at, now, step))
            if live.size == 0:
                break
        f, g = _gram(t, at, step, e)
        vals = np.einsum("lc,ck->lk", g, _BASIS) / (1.0 + (step * step)[:, None] * _RADII)
        k = vals.argmin(axis=1)
        top = vals.min(axis=1)
        zoom = _INTERIOR[k] | (now - top <= rounding)
        moved = k != 40  # the center keeps its angles as they are
        x, y, z = (_C[k[moved]] * f[moved]).sum(axis=1).T  # n + i h e1 + j h e2
        at[moved, 0], at[moved, 1] = np.arctan2(np.hypot(x, y), z), np.arctan2(y, x)
        now = top
        step = step * np.where(zoom, 0.25, 1.5)
    point[live], value[live] = at, now
    return value, point, evals


def _gram(t: np.ndarray, points: np.ndarray, step: np.ndarray, e: np.ndarray) -> tuple:
    """The rows n, h e1, h e2 of `_frame` at each (theta, phi) row of `points`
    and step h, as (L, 3, 3), and the Gram matrices G of their T images, (L, 9).
    `e` is an (R >= L, 9) buffer of the factors of _IA, whose columns 6, 7 hold 1, 0."""
    e = e[:len(points)]
    np.sin(points, out=e[:, 0:2])
    np.cos(points, out=e[:, 2:4])
    np.negative(e[:, 0:2], out=e[:, 4:6])
    e[:, 8] = step
    # take, not e[:, index]: einsum's bits depend on the layout of its operands
    f = (e.take(_IA, 1) * e.take(_IB, 1) * e.take(_IC, 1)).reshape(-1, 3, 3)
    w = np.einsum("pq,laq->lap", t, f)
    return f, np.einsum("lap,lbp->lab", w, w).reshape(-1, 9)


def _polar(x: float, y: float, z: float) -> tuple[float, float]:
    """Polar and azimuthal angle of the direction (x, y, z); +z for 0."""
    return math.atan2(math.hypot(x, y), z), math.atan2(y, x)


def _alice(t: np.ndarray, theta: float, phi: float) -> np.ndarray:
    """Alice's angles (theta1, theta1', phi1, phi1') normal to n(theta, phi):
    a, a' = (|T e1| e1 +- |T e2| e2) / hypot(|T e1|, |T e2|) with e1, e2 of
    `_frame`, worth 2 sqrt(|T e1|^2 + |T e2|^2) = 2 sqrt(||T||_F^2 - |T n|^2)."""
    _, e1, e2 = _frame(theta, phi)
    p, q = (math.hypot(*_images(t, *e)) for e in (e1, e2))
    if p == q == 0.0:  # T = 0: a = a' = e1, as good as any pair
        p = 1.0
    r = math.hypot(p, q)
    (th1, ph1), (th2, ph2) = (_polar(*[(p * u + sign * q * v) / r
                                       for u, v in zip(e1, e2)])
                              for sign in (1.0, -1.0))
    return np.array([th1, th2, ph1, ph2])


def _settings(t: np.ndarray, alice: np.ndarray) -> np.ndarray:
    """All 8 angles: Alice's, and Bob's along T(a + a') and T(a - a')."""
    th, th2, ph, ph2 = alice.tolist()
    angles = [th, th2, 0.0, 0.0, ph, ph2, 0.0, 0.0]
    ta, tb = (_images(t, *_frame(*d)[0]) for d in ((th, ph), (th2, ph2)))
    for k, sign in enumerate((1.0, -1.0)):
        w = [float(a + sign * b) for a, b in zip(ta, tb)]
        if any(w):  # a zero vector keeps +z: every direction is as good
            angles[2 + k], angles[6 + k] = _polar(*w)
    return np.array(angles)


def brute_force_bmax(rho: DensityMatrix4, cfg: OracleConfig) -> OracleResult:
    """Grid-then-refine maximization of the Bell function over all settings.

    The best Alice pair lies normal to the direction n of least |T n|^2,
    found on a grid, then by pattern search from the best grid point and
    from seeded restarts.  Deterministic for a fixed cfg (including the
    seed); starts are merged by min, the earliest winning ties.
    `evaluations` counts the grid_n^2 grid directions, 1 per start and 81
    per poll of each live start.
    """
    need = _grid_bytes(cfg.grid_n, cfg.restarts)
    if need > MAX_GRID_BYTES:
        raise BudgetExceeded(f"oracle search needs {need} bytes "
                             f"(limit {MAX_GRID_BYTES} bytes)")
    t = pauli_correlation_matrix(rho)
    # per restart: theta in [0, pi), then phi in [-pi, pi)
    lo = np.tile([0.0, -math.pi], cfg.restarts)
    restarts = Splitmix64(cfg.seed).uniforms(2 * cfg.restarts, lo, math.pi)
    starts = np.vstack([_coarse_grid_best(t, cfg.grid_n),
                        restarts.reshape(cfg.restarts, 2)])
    batches = [_compass_search(t, starts[i:i + _COMPASS_BATCH],
                               math.pi / cfg.grid_n, cfg.refine_iters)
               for i in range(0, len(starts), _COMPASS_BATCH)]
    values, points, evals = (np.concatenate(parts) for parts in zip(*batches))
    angles = _settings(t, _alice(t, *points[int(values.argmin())].tolist()))
    return OracleResult(
        thetas=tuple(angles[:4].tolist()),
        phis=tuple(angles[4:].tolist()),
        bmax_est=float(_bell_values(t, angles)),
        evaluations=cfg.grid_n ** 2 + int(evals.sum()),
    )


def certify_settings(rho: DensityMatrix4, s: BellSettings, cfg: OracleConfig) -> float:
    """Best Bell improvement found by a seeded random walk around the
    settings `s`, a `BellSettings` such as an `AngleSettings` or an
    `OracleResult`.

    Two stages of hill climbing (perturbation radius pi/8, then pi/64, each
    for max(refine_iters, 64) steps).  A return value <= 1e-6 certifies that
    `s` is a local maximum; a clearly positive value exhibits better settings
    nearby.
    """
    t = pauli_correlation_matrix(rho)
    current = np.array(s.thetas + s.phis)
    rng = Splitmix64(cfg.seed)
    steps = max(cfg.refine_iters, 64)
    base = None
    for radius in (math.pi / 8.0, math.pi / 64.0):
        # Moves are drawn and evaluated a block at a time, so memory does
        # not grow with refine_iters; the walk accepts the first proposal
        # that beats `best` and goes on with the moves after it, which is
        # the same walk as proposing one move at a time.
        for start in range(0, steps, _CERTIFY_BLOCK):
            rows = min(_CERTIFY_BLOCK, steps - start)
            moves = rng.uniforms(8 * rows, -radius, radius).reshape(rows, 8)
            if base is None:  # row 0 of the first block: the base value, a zero move
                moves = np.vstack((np.zeros(8), moves))
            window = len(moves)  # the whole block, then windows after a move
            while len(moves):
                proposals = current + moves[:window]
                values = _bell_values(t, proposals)
                if base is None:  # current + 0.0 differs from current only in
                    base = best = float(values[0])  # zero signs, which |B| drops
                better = np.flatnonzero(values > best)
                if better.size:
                    k = int(better[0])
                    best, current = float(values[k]), proposals[k]
                    moves, window = moves[k + 1:], _CERTIFY_WINDOW
                else:
                    moves = moves[len(values):]
    return best - base
