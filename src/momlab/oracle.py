"""Naive brute-force references for the closed-form results and the kernel.

Deliberately simple: matrix powers by repeated multiplication, eigenvalues
from the characteristic polynomial of the actual matrix entries, the full
2n x 2n system matrix applied step by step, and the four iterations as
hand-written state machines on the dense gradient Hx - b in x-space:

* ``MM``: x_{k+1} = x_k + a*m_k,  m_{k+1} = b*m_k - grad f(x_{k+1}),
  started from m_0 = -grad f(x_0).
* ``HBM``: x_{k+1} = x_k - a*grad f(x_k) + b*(x_k - x_{k-1}), started
  from x_{-1} := x_0.
* ``NAG_TWO_SEQUENCE``: y_{k+1} = x_k - a*grad f(x_k),
  x_{k+1} = y_{k+1} + b*(y_{k+1} - y_k), started from y_0 := x_0.
* ``NAG_COMPACT``: x_{k+1} = x_k - a*grad f(x_k) + b*(x_k - x_{k-1} -
  a*(grad f(x_k) - grad f(x_{k-1}))), with grad f(x_{-1}) replaced by 0 in
  the very first step so that it reproduces the two-sequence iterates.

:func:`dense_run` applies them, forming H and b once per call;
:func:`momlab.methods.run` must agree with it. Kept free of any shared
algebra with :mod:`momlab.spectral` and with the eigenbasis kernel, so a
formula bug cannot hide in its own check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatchError
from .methods import MethodKind, MethodParams, run
from .problems import QuadraticProblem, Rotation, _as_points, _as_vector

__all__ = [
    "rotation_matrix",
    "dense_arrays",
    "gradient",
    "gershgorin_upper",
    "power_by_multiplication",
    "eig_2x2",
    "system_matrix",
    "full_system_step_equivalence",
    "EquivalenceResult",
    "IterState",
    "init_state",
    "step",
    "DenseTrajectory",
    "dense_run",
]


def rotation_matrix(rotation: Rotation) -> np.ndarray:
    """The dense Q of a rotation: row i is Q'e_i, the identity passed through Q'."""
    return rotation.apply_transpose(np.eye(rotation.dimension))


def dense_arrays(problem: QuadraticProblem) -> tuple[np.ndarray, np.ndarray]:
    """(H, b): H = Q' diag(eigenvalues) Q symmetrized as 0.5 (H + H'), or
    diag(eigenvalues) when Q = I, and b = H x*."""
    d = problem.eigenvalues
    if problem.rotation is None:
        h = np.diag(d)
    else:
        q = rotation_matrix(problem.rotation)
        h = (q.T * d) @ q
        h = 0.5 * (h + h.T)  # exactly symmetric
    return h, h @ problem.x_star


def gradient(dense: tuple[np.ndarray, np.ndarray], x) -> np.ndarray:
    """grad f(x) = Hx - b from ``dense = dense_arrays(problem)`` for ``x`` of shape
    (n,), or row by row for a (batch, n) stack, each row bitwise its own gradient."""
    h, b = dense
    return np.matmul(h, _as_points(x, b.size, "x")[..., None])[..., 0] - b


def gershgorin_upper(problem: QuadraticProblem) -> float:
    """Row-circle upper bound max_i (H[i,i] + sum_{j!=i} |H[i,j]|) >= lambda_max."""
    h, _ = dense_arrays(problem)
    radii = np.abs(h).sum(axis=1) - np.abs(np.diag(h))
    return float((np.diag(h) + radii).max())


@dataclass(frozen=True)
class IterState:
    """One step of iteration state; extra fields are kind-specific."""

    x_prev: np.ndarray
    x_curr: np.ndarray
    k: int
    m_curr: np.ndarray | None = None  # MM running direction
    y_curr: np.ndarray | None = None  # NAG auxiliary sequence
    g_prev: np.ndarray | None = None  # NAG compact form: previous gradient


def init_state(problem: QuadraticProblem, params: MethodParams, x0) -> IterState:
    """State at k = 0 for a start ``x0`` of shape (n,) or a (batch, n) stack."""
    return _init_state(dense_arrays(problem), params, x0)


def _init_state(dense, params: MethodParams, x0) -> IterState:
    x0 = _as_points(x0, dense[1].size, "x0")
    if params.kind is MethodKind.MM:
        return IterState(x_prev=x0, x_curr=x0, k=0, m_curr=-gradient(dense, x0))
    if params.kind is MethodKind.NAG_TWO_SEQUENCE:
        return IterState(x_prev=x0, x_curr=x0, k=0, y_curr=x0)
    if params.kind is MethodKind.NAG_COMPACT:
        return IterState(x_prev=x0, x_curr=x0, k=0, g_prev=np.zeros_like(x0))
    return IterState(x_prev=x0, x_curr=x0, k=0)


def step(problem: QuadraticProblem, params: MethodParams, state: IterState) -> IterState:
    """Apply one update of the selected recursion."""
    return _step(dense_arrays(problem), params, state)


def _step(dense, params: MethodParams, state: IterState) -> IterState:
    alpha, beta, kind = params.alpha, params.beta, params.kind
    x, n = state.x_curr, dense[1].size
    if x.shape[-1] != n:
        raise DimensionMismatchError(f"state dimension {x.shape[-1]} != problem dimension {n}")

    if kind is MethodKind.MM:
        if state.m_curr is None:
            raise ValueError("state carries no running direction; use init_state")
        x_next = x + alpha * state.m_curr
        m_next = beta * state.m_curr - gradient(dense, x_next)
        return IterState(x_prev=x, x_curr=x_next, k=state.k + 1, m_curr=m_next)

    if kind is MethodKind.HBM:
        x_next = x - alpha * gradient(dense, x) + beta * (x - state.x_prev)
        return IterState(x_prev=x, x_curr=x_next, k=state.k + 1)

    if kind is MethodKind.NAG_TWO_SEQUENCE:
        if state.y_curr is None:
            raise ValueError("state carries no auxiliary sequence; use init_state")
        y_next = x - alpha * gradient(dense, x)
        x_next = y_next + beta * (y_next - state.y_curr)
        return IterState(x_prev=x, x_curr=x_next, k=state.k + 1, y_curr=y_next)

    if state.g_prev is None:
        raise ValueError("state carries no previous gradient; use init_state")
    # g_prev is 0 at k = 0 by the initialization convention
    g = gradient(dense, x)
    x_next = x - alpha * g + beta * (x - state.x_prev - alpha * (g - state.g_prev))
    return IterState(x_prev=x, x_curr=x_next, k=state.k + 1, g_prev=g)


class DenseTrajectory(NamedTuple):
    """What :class:`momlab.methods.Trajectory` reports, computed in x-space."""

    iterates: np.ndarray  # shape (K+1, n) or (K+1, batch, n)
    distances: np.ndarray  # shape (K+1,) or (K+1, batch)
    averaged_final: np.ndarray  # (x_{K-1} + x_K) / 2
    averaged_distances: np.ndarray  # shaped like distances


def dense_run(problem: QuadraticProblem, params: MethodParams, x0, num_steps: int) -> DenseTrajectory:
    """Apply :func:`step` num_steps times and measure every iterate against x*."""
    if num_steps < 1:
        raise ValueError(f"num_steps must be >= 1, got {num_steps}")
    dense = dense_arrays(problem)
    state = _init_state(dense, params, x0)
    iterates = np.empty((num_steps + 1, *state.x_curr.shape))
    iterates[0] = state.x_curr
    for k in range(1, num_steps + 1):
        state = _step(dense, params, state)
        iterates[k] = state.x_curr
    distances = np.linalg.norm(iterates - problem.x_star, axis=-1)
    averages = 0.5 * (iterates[:-1] + iterates[1:])
    averaged = np.linalg.norm(averages - problem.x_star, axis=-1)
    return DenseTrajectory(
        iterates=iterates,
        distances=distances,
        averaged_final=averages[-1],
        averaged_distances=np.concatenate([distances[:1], averaged]),
    )


def power_by_multiplication(m, k: int) -> np.ndarray:
    """m^k by k successive multiplications; k = 0 gives the identity."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    m = np.asarray(m)
    out = np.eye(m.shape[0], dtype=m.dtype)
    for _ in range(k):
        out = out @ m
    return out


def eig_2x2(m) -> tuple[complex, complex]:
    """Roots of l^2 - tr(m) l + det(m), plus branch first."""
    m = np.asarray(m, dtype=float)
    tr = m[0, 0] + m[1, 1]
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    disc = tr * tr - 4.0 * det
    if disc >= 0.0:
        root = complex(np.sqrt(disc))
    else:
        root = complex(0.0, np.sqrt(-disc))
    return 0.5 * (tr + root), 0.5 * (tr - root)


def _diagonal_entries(problem: QuadraticProblem) -> np.ndarray:
    h, _ = dense_arrays(problem)
    if np.any(h != np.diag(np.diag(h))):
        raise ValueError("problem must have a diagonal hessian")
    return np.diag(h).copy()


def system_matrix(problem: QuadraticProblem, params: MethodParams) -> np.ndarray:
    """Full 2n x 2n recursion matrix [[0, I], [-B, C]] acting on (x^{k-1}; x^k).

    B = beta*I, C = (1+beta)*I - alpha*D for the heavy-ball forms;
    B = beta*(I - alpha*D), C = (1+beta)*(I - alpha*D) for the accelerated
    forms.
    """
    d = _diagonal_entries(problem)
    n = d.size
    eye = np.eye(n)
    if params.kind in (MethodKind.MM, MethodKind.HBM):
        lower_left = -params.beta * eye
        lower_right = (1.0 + params.beta) * eye - params.alpha * np.diag(d)
    else:
        shrink = eye - params.alpha * np.diag(d)
        lower_left = -params.beta * shrink
        lower_right = (1.0 + params.beta) * shrink
    top = np.concatenate([np.zeros((n, n)), eye], axis=1)
    bottom = np.concatenate([lower_left, lower_right], axis=1)
    return np.concatenate([top, bottom], axis=0)


class EquivalenceResult(NamedTuple):
    ok: bool
    max_deviation: float


def full_system_step_equivalence(
    problem: QuadraticProblem,
    params: MethodParams,
    x0,
    k: int,
    tol: float = 1e-10,
) -> EquivalenceResult:
    """Check that the linear recursion reproduces the iteration trajectory.

    Applies the 2n x 2n system matrix to the stacked state and, coordinate
    by coordinate, the 2x2 blocks, comparing both against the trajectory of
    :func:`momlab.methods.run`. For the heavy-ball forms the recursion starts
    from (x^0; x^0); for the accelerated forms the exact first step treats
    the pre-initial gradient as zero, so the recursion is checked from
    (x^0; x^1) onward. Deviations are measured in the error coordinates
    x - x*.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    d = _diagonal_entries(problem)
    x0 = _as_vector(x0, problem.dimension, "x0")
    traj = run(problem, params, x0, k)
    errors = traj.iterates - problem.x_star  # recursion is linear in these

    m_hat = system_matrix(problem, params)
    momentum_like = params.kind in (MethodKind.MM, MethodKind.HBM)
    if momentum_like:
        z = np.concatenate([errors[0], errors[0]])
        start = 1
    else:
        z = np.concatenate([errors[0], errors[1]])
        start = 2

    n = problem.dimension
    max_dev = 0.0
    for j in range(start, k + 1):
        z = m_hat @ z
        max_dev = max(
            max_dev,
            float(np.abs(z[:n] - errors[j - 1]).max()),
            float(np.abs(z[n:] - errors[j]).max()),
        )

    # Block separability: each coordinate evolves under its own 2x2 block.
    for i in range(n):
        a_i = params.alpha * d[i]
        if momentum_like:
            block = np.array([[0.0, 1.0], [-params.beta, 1.0 + params.beta - a_i]])
            zi = np.array([errors[0, i], errors[0, i]])
            first = 1
        else:
            shrink = 1.0 - a_i
            block = np.array(
                [[0.0, 1.0], [-params.beta * shrink, (1.0 + params.beta) * shrink]]
            )
            zi = np.array([errors[0, i], errors[1, i]])
            first = 2
        for j in range(first, k + 1):
            zi = block @ zi
            max_dev = max(
                max_dev,
                abs(zi[0] - errors[j - 1, i]),
                abs(zi[1] - errors[j, i]),
            )

    scale = max(1.0, float(np.abs(errors[0]).max()))
    return EquivalenceResult(ok=max_dev <= tol * scale, max_deviation=max_dev)
