import numpy as np
import pytest

from momlab.spectral import parameter_grid


@pytest.fixture(scope="session")
def coarse_grid():
    """420 (alpha_i, beta) points spanning all three regimes."""
    return parameter_grid(alpha_step=0.1)


@pytest.fixture(scope="session")
def fine_grid():
    """2100 points; use only for cheap per-point checks."""
    return parameter_grid(alpha_step=0.02)


def gram_schmidt_orthogonal(n: int, seed: int) -> np.ndarray:
    """Reference rotation: modified Gram-Schmidt on the Gaussian fill that
    ``momlab.problems.random_orthogonal`` draws for the same seed."""
    a = np.random.default_rng(seed).standard_normal((n, n))
    q = np.empty_like(a)
    for j in range(n):
        v = a[:, j].copy()
        for i in range(j):
            v -= (q[:, i] @ v) * q[:, i]
        q[:, j] = v / np.linalg.norm(v)
    return q


def batched_sigma_max(mats: np.ndarray) -> np.ndarray:
    """Largest singular values of a stack (..., 2, 2), re-derived from the
    Gram matrix so it is independent of the library implementation."""
    m = np.asarray(mats, dtype=complex)
    g00 = np.abs(m[..., 0, 0]) ** 2 + np.abs(m[..., 1, 0]) ** 2
    g11 = np.abs(m[..., 0, 1]) ** 2 + np.abs(m[..., 1, 1]) ** 2
    g01 = np.conj(m[..., 0, 0]) * m[..., 0, 1] + np.conj(m[..., 1, 0]) * m[..., 1, 1]
    rad = np.sqrt((0.5 * (g00 - g11)) ** 2 + np.abs(g01) ** 2)
    return np.sqrt(np.maximum(0.5 * (g00 + g11) + rad, 0.0))
