"""Deterministic seed expansion for the experiment harness.

A single 64-bit master seed is expanded into independent component streams
with splitmix64-style mixing: each path component is folded in with the
golden-ratio increment and the splitmix64 finalizer. The fixed component
ids are

    0  problem rotation (the n(n+1)/2 normals of its Householder reflectors)
    1  starting point x0 (extended by cell indices in verification sweeps)

so any implementation that reproduces ``stream_seed`` reproduces the runs.
"""

from __future__ import annotations

import numpy as np

__all__ = ["splitmix64", "stream_seed", "unit_start", "ROTATION_STREAM", "X0_STREAM"]

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

ROTATION_STREAM = 0
X0_STREAM = 1


def splitmix64(state: int) -> int:
    """The splitmix64 output function (finalizer) on a 64-bit state."""
    z = state & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def stream_seed(master: int, *path: int) -> int:
    """Sub-seed for the component addressed by ``path`` under ``master``."""
    z = master & _MASK
    for component in path:
        z = splitmix64((z + _GOLDEN + (component & _MASK)) & _MASK)
    return z


def unit_start(dimension: int, seed: int) -> np.ndarray:
    """v / ||v|| for v a standard normal draw seeded by ``seed``: the seeded
    start of ``momlab run`` and of each ``verify thm1|thm2`` cell."""
    v = np.random.default_rng(seed).standard_normal(dimension)
    return v / np.linalg.norm(v)
