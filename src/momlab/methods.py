"""Momentum-type iterations with fixed step length and momentum.

Four equivalent-by-pairs recursions are implemented:

* ``MM``: x_{k+1} = x_k + a*m_k,  m_{k+1} = b*m_k - grad f(x_{k+1}),
  started from m_0 = -grad f(x_0).
* ``HBM``: x_{k+1} = x_k - a*grad f(x_k) + b*(x_k - x_{k-1}), started
  from x_{-1} := x_0. MM and HBM generate the same iterates.
* ``NAG_TWO_SEQUENCE``: y_{k+1} = x_k - a*grad f(x_k),
  x_{k+1} = y_{k+1} + b*(y_{k+1} - y_k), started from y_0 := x_0.
* ``NAG_COMPACT``: the single-sequence form
  x_{k+1} = x_k - a*grad f(x_k) + b*(x_k - x_{k-1} - a*(grad f(x_k) -
  grad f(x_{k-1}))), with grad f(x_{-1}) replaced by 0 in the very first
  step so that it reproduces the two-sequence iterates exactly.

``theorem1_params`` / ``theorem2_params`` produce the fixed parameters the
worst-case budget calculators in :mod:`momlab.complexity` certify.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .complexity import MIN_COND_BAR
from .errors import DimensionMismatchError, PreconditionError
from .problems import EigenBounds, QuadraticProblem, _as_points, gradient

__all__ = [
    "MethodKind",
    "MethodParams",
    "IterState",
    "Trajectory",
    "init_state",
    "step",
    "run",
    "theorem1_params",
    "theorem2_params",
    "MIN_COND_BAR",
]


class MethodKind(enum.Enum):
    MM = "mm"
    HBM = "hbm"
    NAG_TWO_SEQUENCE = "nag"
    NAG_COMPACT = "nag-compact"


@dataclass(frozen=True)
class MethodParams:
    """Step length alpha > 0, momentum beta in [0, 1), and the iteration kind."""

    alpha: float
    beta: float
    kind: MethodKind

    def __post_init__(self):
        if not (self.alpha > 0.0 and math.isfinite(self.alpha)):
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        if not (0.0 <= self.beta < 1.0):
            raise ValueError(f"beta must lie in [0, 1), got {self.beta}")


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
    x0 = _as_points(x0, problem.dimension, "x0")
    if params.kind is MethodKind.MM:
        return IterState(x_prev=x0, x_curr=x0, k=0, m_curr=-gradient(problem, x0))
    if params.kind is MethodKind.NAG_TWO_SEQUENCE:
        return IterState(x_prev=x0, x_curr=x0, k=0, y_curr=x0)
    if params.kind is MethodKind.NAG_COMPACT:
        return IterState(x_prev=x0, x_curr=x0, k=0, g_prev=np.zeros_like(x0))
    return IterState(x_prev=x0, x_curr=x0, k=0)


def step(problem: QuadraticProblem, params: MethodParams, state: IterState) -> IterState:
    """Apply one update of the selected recursion."""
    alpha, beta, kind = params.alpha, params.beta, params.kind
    x = state.x_curr
    if x.shape[-1] != problem.dimension:
        raise DimensionMismatchError(
            f"state dimension {x.shape[-1]} != problem dimension {problem.dimension}"
        )

    if kind is MethodKind.MM:
        if state.m_curr is None:
            raise ValueError("state carries no running direction; use init_state")
        x_next = x + alpha * state.m_curr
        m_next = beta * state.m_curr - gradient(problem, x_next)
        return IterState(x_prev=x, x_curr=x_next, k=state.k + 1, m_curr=m_next)

    if kind is MethodKind.HBM:
        x_next = x - alpha * gradient(problem, x) + beta * (x - state.x_prev)
        return IterState(x_prev=x, x_curr=x_next, k=state.k + 1)

    if kind is MethodKind.NAG_TWO_SEQUENCE:
        if state.y_curr is None:
            raise ValueError("state carries no auxiliary sequence; use init_state")
        y_next = x - alpha * gradient(problem, x)
        x_next = y_next + beta * (y_next - state.y_curr)
        return IterState(x_prev=x, x_curr=x_next, k=state.k + 1, y_curr=y_next)

    if state.g_prev is None:
        raise ValueError("state carries no previous gradient; use init_state")
    # g_prev is 0 at k = 0 by the initialization convention
    g = gradient(problem, x)
    x_next = x - alpha * g + beta * (x - state.x_prev - alpha * (g - state.g_prev))
    return IterState(x_prev=x, x_curr=x_next, k=state.k + 1, g_prev=g)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Iterates x_0..x_K, per-step distances to x*, and the averaged endpoint.

    A run from a (batch, n) stack of starts adds a batch axis after the step
    axis: iterates (K+1, batch, n), distances (K+1, batch), averaged_final
    (batch, n). Row j of each is the run from start j alone, bit for bit.
    """

    iterates: np.ndarray  # shape (K+1, n) or (K+1, batch, n)
    distances: np.ndarray  # shape (K+1,) or (K+1, batch)
    averaged_final: np.ndarray  # (x_{K-1} + x_K) / 2, shape (n,) or (batch, n)
    x_star: np.ndarray

    @property
    def num_steps(self) -> int:
        return self.iterates.shape[0] - 1

    def averaged_iterate(self, k: int) -> np.ndarray:
        """(x_{k-1} + x_k)/2; equals x_0 at k = 0 by the x_{-1} := x_0 convention."""
        if k == 0:
            return self.iterates[0]
        return 0.5 * (self.iterates[k - 1] + self.iterates[k])

    def averaged_distances(self) -> np.ndarray:
        """Distances of the averaged iterates, shaped like ``distances``."""
        avgs = 0.5 * (self.iterates[:-1] + self.iterates[1:])
        d = np.linalg.norm(avgs - self.x_star, axis=-1)
        return np.concatenate([self.distances[:1], d])


def run(problem: QuadraticProblem, params: MethodParams, x0, num_steps: int) -> Trajectory:
    """Apply ``step`` num_steps times, recording distances to the minimizer.

    ``x0`` is one start of shape (n,) or a (batch, n) stack of starts that
    are iterated together; see :class:`Trajectory` for the result shapes.
    """
    if num_steps < 1:
        raise ValueError(f"num_steps must be >= 1, got {num_steps}")
    state = init_state(problem, params, x0)
    iterates = np.empty((num_steps + 1, *state.x_curr.shape))
    iterates[0] = state.x_curr
    for k in range(1, num_steps + 1):
        state = step(problem, params, state)
        iterates[k] = state.x_curr
    distances = np.linalg.norm(iterates - problem.x_star, axis=-1)
    averaged_final = 0.5 * (iterates[-2] + iterates[-1])
    return Trajectory(
        iterates=iterates,
        distances=distances,
        averaged_final=averaged_final,
        x_star=problem.x_star.copy(),
    )


def _require_cond(bounds: EigenBounds) -> float:
    cond_bar = bounds.cond_bar
    if cond_bar < MIN_COND_BAR:
        raise PreconditionError(
            f"cond_bar >= {MIN_COND_BAR:g} required, got {cond_bar:g}",
            threshold=MIN_COND_BAR,
        )
    return cond_bar


def theorem1_params(bounds: EigenBounds) -> MethodParams:
    """Heavy-ball rule alpha = 2/upper, beta = (1 - sqrt(2/cond_bar))^2.

    Equivalently beta = (1 - sqrt(alpha*lower))^2: the momentum is matched to
    the smallest normalized curvature alpha*lower = 2/cond_bar.
    """
    cond_bar = _require_cond(bounds)
    beta = (1.0 - math.sqrt(2.0 / cond_bar)) ** 2
    return MethodParams(alpha=2.0 / bounds.upper, beta=beta, kind=MethodKind.HBM)


def theorem2_params(bounds: EigenBounds) -> MethodParams:
    """Accelerated-gradient rule alpha = 1/upper, beta = (1-sqrt(u))^2/(1-u)
    with u = 1/cond_bar (equivalently (sqrt(c)-1)^2/(c-1) for c = cond_bar)."""
    cond_bar = _require_cond(bounds)
    u = 1.0 / cond_bar
    beta = (1.0 - math.sqrt(u)) ** 2 / (1.0 - u)
    return MethodParams(alpha=1.0 / bounds.upper, beta=beta, kind=MethodKind.NAG_TWO_SEQUENCE)
