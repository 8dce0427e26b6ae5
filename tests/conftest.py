import math

import numpy as np
import pytest
from hypothesis import strategies as st

from bellopt import DensityMatrix4, XState, x_to_dense

BELL_X = XState(0.0, 0.5, 0.5, 0.0, 0.0, 0.5)

# Literal sigma_x, sigma_y, sigma_z in the basis {|1>, |0>}, for kron/trace
# references that share no code with the package.
PAULIS = (np.array([[0, 1], [1, 0]], dtype=complex),
          np.array([[0, -1j], [1j, 0]], dtype=complex),
          np.array([[1, 0], [0, -1]], dtype=complex))


@pytest.fixture
def bell_x():
    return BELL_X


@pytest.fixture
def bell_rho():
    return x_to_dense(BELL_X)


@pytest.fixture
def mixed_rho():
    return DensityMatrix4(np.eye(4, dtype=complex) / 4.0)


def random_x_state(rng: np.random.Generator) -> XState:
    """Valid XState: Dirichlet populations, coherences inside the PSD blocks."""
    p = rng.dirichlet(np.ones(4))
    f14, f23 = rng.uniform(0.0, 1.0, 2)
    mu, nu = rng.uniform(-math.pi, math.pi, 2)
    rho14 = f14 * math.sqrt(p[0] * p[3]) * np.exp(1j * mu)
    rho23 = f23 * math.sqrt(p[1] * p[2]) * np.exp(1j * nu)
    return XState(p[0], p[1], p[2], p[3], rho14, rho23)


def random_density(rng: np.random.Generator) -> DensityMatrix4:
    """Generic full-rank state from a Ginibre matrix."""
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = g @ g.conj().T
    return DensityMatrix4(m / m.trace())


def lower_triangle_fault() -> np.ndarray:
    """Unit trace, and a Hermitian part with least eigenvalue -2.475e-10, but
    a lower triangle (all that eigvalsh reads) with least eigenvalue -9.9e-11."""
    a = (1.0 + 0.99e-10) / 3.0
    v = np.full(4, 0.5)
    h0 = a * np.eye(4) + (-a - 0.99e-10) * np.outer(v, v)
    return h0 - 0.99e-10 * np.triu(np.ones((4, 4)), 1)


def werner(r: float) -> XState:
    """r * |(01)+(10)><...| + (1 - r) I/4."""
    bg = 0.25 * (1.0 - r)
    return XState(bg, bg + 0.5 * r, bg + 0.5 * r, bg, 0.0, 0.5 * r)


@st.composite
def x_states(draw):
    pops = [draw(st.floats(1e-3, 1.0)) for _ in range(4)]
    total = sum(pops)
    pops = [p / total for p in pops]
    f14 = draw(st.floats(0.0, 1.0))
    f23 = draw(st.floats(0.0, 1.0))
    mu = draw(st.floats(-math.pi, math.pi))
    nu = draw(st.floats(-math.pi, math.pi))
    rho14 = f14 * math.sqrt(pops[0] * pops[3]) * complex(math.cos(mu), math.sin(mu))
    rho23 = f23 * math.sqrt(pops[1] * pops[2]) * complex(math.cos(nu), math.sin(nu))
    return XState(pops[0], pops[1], pops[2], pops[3], rho14, rho23)


@st.composite
def damping_amplitudes(draw):
    mod = math.sqrt(draw(st.floats(0.0, 1.0)))
    phase = draw(st.floats(-math.pi, math.pi))
    return mod * complex(math.cos(phase), math.sin(phase))
