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
the Bell function at the 8 angles found.  All evaluators are elementwise, so
results are reproducible bit for bit whatever the batching.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .states import DensityMatrix4, pauli_correlation_matrix

# Largest search accepted, in bytes of the arrays it holds at once.
MAX_GRID_BYTES = 256 * 2 ** 20

_MASK64 = (1 << 64) - 1
_GAMMA64 = 0x9E3779B97F4A7C15
# Proposals certify_settings evaluates per call, and moves it draws at once
# (one draw per stage at the default refine_iters of 500).
_CERTIFY_BLOCK = 256
_CERTIFY_DRAW = 1024
# Most starts refined in one batch: a poll's working set is ~7 kB per start,
# so a batch stays under ~2 MB however many restarts are asked for.
_COMPASS_BATCH = 256
# Offsets i, j (in steps h) of the 9x9 pattern n + i h e1 + j h e2.
_OFFSETS = np.arange(-4.0, 5.0)


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


def _norm2(w) -> np.ndarray:
    """Squared length of the vector with the components w."""
    return w[0] * w[0] + w[1] * w[1] + w[2] * w[2]


def _grid_bytes(grid_n: int, restarts: int) -> int:
    # Over-estimates the bytes brute_force_bmax holds at once: 8 float64
    # arrays over the grid directions, 16 words per start (draws, point,
    # value, count) and 12 per pattern point of each start in a batch.
    starts = restarts + 1
    return 8 * (8 * grid_n ** 2 + 16 * starts + 972 * min(starts, _COMPASS_BATCH))


def _coarse_grid_best(t: np.ndarray, grid_n: int) -> np.ndarray:
    """(theta, phi) of the direction n with the least |T n|^2 on the
    grid_n x grid_n grid of polar and azimuthal angles."""
    thetas = np.linspace(0.0, math.pi, grid_n)
    phis = -math.pi + 2.0 * math.pi * np.arange(1, grid_n + 1) / grid_n
    g = _norm2(_images(t, *_frame(thetas[:, None], phis)[0]))
    i, j = np.unravel_index(np.argmin(g), g.shape)
    return np.array([thetas[i], phis[j]])


def _compass_search(t: np.ndarray, starts: np.ndarray, initial_step: float,
                    max_iters: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Zooming pattern search of g(n) = |T n|^2 from each row (theta, phi)
    of the (R, 2) `starts`.

    A poll evaluates g at the 9x9 directions n + i h e1 + j h e2, i, j in
    -4..4 (a square on the sphere, poles included), around every live start
    and moves it to the best of them (the first of equal minima).  The step
    h is divided by 4 when that point is interior or gains no more than
    rounding, and grows by half when it is on the edge, so that a start
    crosses a long valley in few polls.  A start stops at h < 1e-8 or after
    max_iters polls; each row's result equals a one-start search.  Returns
    values, points, evaluation counts.
    """
    current = np.array(starts, dtype=float)
    value = _norm2(_images(t, *_frame(current[:, 0], current[:, 1])[0]))
    step = np.full(len(current), float(initial_step))
    evals = np.ones(len(current), dtype=np.int64)
    rounding = 4.0 * np.finfo(float).eps * sum(v * v for v in t.ravel().tolist())
    for _ in range(max_iters):
        live = np.flatnonzero(step >= 1e-8)
        if live.size == 0:
            break
        frame = _frame(current[live, 0, None, None], current[live, 1, None, None])
        u = step[live, None] * _OFFSETS
        ui, uj = u[:, :, None], u[:, None, :]
        m = [a + ui * b + uj * c for a, b, c in zip(*frame)]  # (live, 9, 9)
        vals = (_norm2(_images(t, *m)) / (1.0 + ui * ui + uj * uj)).reshape(-1, 81)
        rows = np.arange(live.size)
        k = vals.argmin(axis=1)
        i, j = np.divmod(k, 9)
        top = vals[rows, k]
        zoom = ((i % 8 != 0) & (j % 8 != 0)) | (value[live] - top <= rounding)
        moved = k != 40  # the center keeps its angles as they are
        x, y, z = (w.reshape(-1, 81)[rows[moved], k[moved]] for w in m)
        current[live[moved], 0] = np.arctan2(np.hypot(x, y), z)
        current[live[moved], 1] = np.arctan2(y, x)
        value[live] = top
        step[live] *= np.where(zoom, 0.25, 1.5)
        evals[live] += 81
    return value, current, evals


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
    t = pauli_correlation_matrix(rho).t
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
        bmax_est=float(_bell_values(t, angles)),
        thetas=tuple(angles[:4].tolist()),
        phis=tuple(angles[4:].tolist()),
        evaluations=cfg.grid_n ** 2 + int(evals.sum()),
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
        # Moves are drawn _CERTIFY_DRAW at a time, so memory does not grow
        # with refine_iters, and evaluated a block at a time; the walk
        # accepts the first proposal that beats `best` and resumes right
        # after it, which is the same walk as proposing one move at a time.
        for start in range(0, steps, _CERTIFY_DRAW):
            rows = min(_CERTIFY_DRAW, steps - start)
            moves = rng.uniforms(8 * rows, -radius, radius).reshape(rows, 8)
            i = 0
            while i < rows:
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
