"""Fixed-parameter momentum-type iterations, run in the Hessian's eigenbasis.

Four method kinds name two iterations (g = grad f):

* ``MM``: x_{k+1} = x_k + a*m_k, m_{k+1} = b*m_k - g(x_{k+1}), m_0 = -g(x_0),
  and ``HBM``: x_{k+1} = x_k - a*g(x_k) + b*(x_k - x_{k-1}), x_{-1} := x_0,
  generate the same iterates.
* ``NAG_TWO_SEQUENCE``: y_{k+1} = x_k - a*g(x_k),
  x_{k+1} = y_{k+1} + b*(y_{k+1} - y_k), y_0 := x_0, and ``NAG_COMPACT``,
  its single-sequence form, likewise.

On f(x) = 1/2 x'Hx - b'x with H = Q' diag(d) Q, the error z = Q(x - x*)
evolves coordinate by coordinate as z_{k+1} = C z_k - B z_{k-1}: C = 1 + b -
a*d, B = b for heavy ball and C = (1 + b)(1 - a*d), B = b(1 - a*d) for the
accelerated form. :func:`run` iterates exactly that, in one elementwise loop
for all four kinds: ``MM`` runs as ``HBM`` and ``NAG_COMPACT`` as
``NAG_TWO_SEQUENCE``. Distances are norms of z, so they carry no rounding
floor from forming Hx - b near x*. The loop runs in blocks of steps in one
buffer: a full-history run is one block and a history-free run is blocks of
``_BLOCK_ROWS``; nothing else tells them apart. The four hand-written state
machines on the dense gradient live in :mod:`momlab.oracle`, as the
reference ``run`` is tested against.

``theorem1_params`` / ``theorem2_params`` produce the fixed parameters the
worst-case budget calculators in :mod:`momlab.complexity` certify.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .complexity import MIN_COND_BAR
from .errors import DimensionMismatchError, PreconditionError
from .problems import (
    EigenBounds,
    QuadraticProblem,
    _as_points,
    _from_eigenbasis,
    _to_eigenbasis,
)
from .spectral import _first_outside

__all__ = [
    "MethodKind",
    "MethodParams",
    "Trajectory",
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


ACCELERATED_KINDS = frozenset({MethodKind.NAG_TWO_SEQUENCE, MethodKind.NAG_COMPACT})


@dataclass(frozen=True)
class MethodParams:
    """Step length alpha > 0, momentum beta in [0, 1), and the iteration kind.

    ``alpha`` and ``beta`` are floats, or (n,) arrays that give each
    eigenbasis coordinate of an n-dimensional problem its own value; an
    invalid array is reported by its first offending entry.
    """

    alpha: float | np.ndarray
    beta: float | np.ndarray
    kind: MethodKind

    def __post_init__(self):
        bad = _first_outside(self.alpha, lambda a: (a > 0.0) & np.isfinite(a))
        if bad is not None:
            raise ValueError(f"alpha must be positive and finite, got {bad}")
        bad = _first_outside(self.beta, lambda b: (0.0 <= b) & (b < 1.0))
        if bad is not None:
            raise ValueError(f"beta must lie in [0, 1), got {bad}")


# Steps per block of a history-free run: it holds _BLOCK_ROWS + 1 error rows
# at a time, whatever the step count.
_BLOCK_ROWS = 256


def _reduce(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distances and averaged distances of a block's rows 1..r, from its rows
    0..r. Each norm is per row, so a block's reduction is bit for bit that
    of the same rows in any other block."""
    return (
        np.linalg.norm(rows[1:], axis=-1),
        np.linalg.norm(0.5 * (rows[:-1] + rows[1:]), axis=-1),
    )


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A run's last block of error coordinates z_k = Q(x_k - x*),
    k = first..K, the reduced distances of steps 0..first, and what they
    give: distances to x*, the averaged endpoint and the iterates x_k.

    Distances are norms of z, so they form no x-space iterate; ``iterates``
    rotates back on first access. The last block is reduced on first
    access too, so a run whose norms overflow is read under the caller's
    ``np.errstate``. A run from a (batch, n) stack of starts adds a batch
    axis after the step axis: errors and iterates (K+1, batch, n),
    distances (K+1, batch), averaged_final (batch, n). Row j of each is the
    run from start j alone, bit for bit.

    A run whose last block starts after step 0 (``run(..., history=False)``
    of more than ``_BLOCK_ROWS`` steps) keeps no error history: its
    ``errors``, ``iterates`` and ``averaged_iterate`` raise ValueError.
    """

    problem: QuadraticProblem
    rows: np.ndarray  # z_first..z_K, shape (K-first+1, n) or (K-first+1, batch, n)
    first: int
    reduced: tuple[np.ndarray, np.ndarray]  # distances, averaged distances of steps 0..first

    @property
    def errors(self) -> np.ndarray:
        if self.first:
            raise ValueError(
                "a history-free run keeps no error history: errors, iterates and"
                " averaged_iterate need run(..., history=True)"
            )
        return self.rows

    @property
    def num_steps(self) -> int:
        return self.first + self.rows.shape[0] - 1

    @property
    def x_star(self) -> np.ndarray:
        return self.problem.x_star

    @cached_property
    def _last_block(self) -> tuple[np.ndarray, np.ndarray]:
        return _reduce(self.rows)

    @cached_property
    def distances(self) -> np.ndarray:
        """||x_k - x*||, shape (K+1,) or (K+1, batch)."""
        return np.concatenate([self.reduced[0], self._last_block[0]])

    @cached_property
    def iterates(self) -> np.ndarray:
        """x_k = x* + Q'z_k, shape (K+1, n) or (K+1, batch, n)."""
        return _from_eigenbasis(self.problem, self.errors)

    @cached_property
    def averaged_final(self) -> np.ndarray:
        """(x_{K-1} + x_K) / 2, shape (n,) or (batch, n)."""
        z = self.rows[-2:]
        return _from_eigenbasis(self.problem, 0.5 * (z[0] + z[1]))

    def averaged_iterate(self, k: int) -> np.ndarray:
        """(x_{k-1} + x_k)/2; equals x_0 at k = 0 by the x_{-1} := x_0 convention."""
        if k == 0:
            return self.iterates[0]
        return 0.5 * (self.iterates[k - 1] + self.iterates[k])

    def averaged_distances(self) -> np.ndarray:
        """Distances of the averaged iterates, shaped like ``distances``."""
        return np.concatenate([self.reduced[1], self._last_block[1]])


def _iterate(rows: np.ndarray, u_prev: np.ndarray, alpha, beta, d, accelerated: bool) -> np.ndarray:
    """Fill rows[1:] from rows[0] in place, one step per row; ``u_prev`` is
    u of the step before rows[0]. Returns u of the last step taken."""
    for k in range(rows.shape[0] - 1):
        z = rows[k]
        y = z - alpha * (d * z)
        u = y if accelerated else z
        np.add(y, beta * (u - u_prev), out=rows[k + 1])
        u_prev = u
    return u_prev


def run(
    problem: QuadraticProblem,
    params: MethodParams,
    x0,
    num_steps: int,
    *,
    history: bool = True,
) -> Trajectory:
    """Iterate num_steps times from ``x0`` in the problem's eigenbasis.

    Per coordinate with curvature d, y_k = z_k - alpha*(d*z_k) is the
    gradient step and z_{k+1} = y_k + beta*(u_k - u_{k-1}) adds momentum,
    with u = z for the heavy-ball kinds and u = y for the accelerated kinds,
    and u_{-1} := z_0. This is the dense recursions' evaluation order, so a
    diagonal HBM or NAG run reproduces them bit for bit. ``x0`` is one start
    of shape (n,) or a (batch, n) stack of starts that are iterated
    together; see :class:`Trajectory` for the result.

    Per-coordinate ``params.alpha``/``params.beta`` of shape (n,) give
    coordinate i its own rule: each coordinate evolves alone, so coordinate
    i of such a run equals, bit for bit, that of a run with the scalars
    alpha[i] and beta[i] at the same curvature d_i.

    The run iterates blocks of steps in one reused buffer and reduces each
    finished block to its distances and averaged distances; the last block
    is kept, and reduced when it is first read. ``history=True`` runs one
    block of num_steps steps, so it keeps every z_k, (K+1)*n values per
    start. ``history=False`` runs blocks of ``_BLOCK_ROWS`` steps and holds
    O(_BLOCK_ROWS*n + K) values per start. Every reduction is per row, so
    both give the same distances bit for bit.
    """
    if num_steps < 1:
        raise ValueError(f"num_steps must be >= 1, got {num_steps}")
    n = problem.dimension
    for name in ("alpha", "beta"):
        shape = np.shape(getattr(params, name))
        if shape not in ((), (n,)):
            raise DimensionMismatchError(f"params.{name} has shape {shape}, expected () or ({n},)")
    z0 = _to_eigenbasis(problem, _as_points(x0, n, "x0"))
    # operands at the error's shape, so no step broadcasts a scalar or a row
    operands = tuple(
        np.ascontiguousarray(np.broadcast_to(v, z0.shape))
        for v in (params.alpha, params.beta, problem.eigenvalues)
    )
    accelerated = params.kind in ACCELERATED_KINDS
    block_rows = num_steps if history else _BLOCK_ROWS
    first = (num_steps - 1) // block_rows * block_rows  # the last block's first step
    rows = np.empty((min(num_steps, block_rows) + 1, *z0.shape))
    rows[0] = u_prev = z0
    dist = np.empty((first + 1, *z0.shape[:-1]))
    avg = np.empty_like(dist)
    dist[0] = avg[0] = np.linalg.norm(z0, axis=-1)
    for k in range(0, num_steps, block_rows):
        if k:
            done = slice(k - block_rows + 1, k + 1)
            dist[done], avg[done] = _reduce(block)
            # the next block starts from this one's last row; a heavy-ball
            # u_prev is a row of the buffer, so it is copied out first
            u_prev = u_prev.copy()
            rows[0] = rows[-1]
        block = rows[: min(block_rows, num_steps - k) + 1]
        u_prev = _iterate(block, u_prev, *operands, accelerated)
    return Trajectory(problem, block, first, (dist, avg))


def _require_cond(bounds: EigenBounds) -> float:
    cond_bar = bounds.cond_bar
    if cond_bar < MIN_COND_BAR:
        raise PreconditionError(
            f"cond_bar >= {MIN_COND_BAR:g} required, got {cond_bar:g}",
            threshold=MIN_COND_BAR,
        )
    return cond_bar


def _rule_params(alpha: float, beta: float, kind: MethodKind, cond_bar: float) -> MethodParams:
    """A fixed-parameter rule's MethodParams; past cond_bar ~ 1e32 its
    momentum rounds to 1 in float64, which is a PreconditionError."""
    if not beta < 1.0:
        raise PreconditionError(f"cond_bar={cond_bar:g} too large: the rule's beta rounds to 1")
    return MethodParams(alpha=alpha, beta=beta, kind=kind)


def theorem1_params(bounds: EigenBounds) -> MethodParams:
    """Heavy-ball rule alpha = 2/upper, beta = (1 - sqrt(2/cond_bar))^2.

    Equivalently beta = (1 - sqrt(alpha*lower))^2: the momentum is matched to
    the smallest normalized curvature alpha*lower = 2/cond_bar.
    """
    cond_bar = _require_cond(bounds)
    beta = (1.0 - math.sqrt(2.0 / cond_bar)) ** 2
    return _rule_params(2.0 / bounds.upper, beta, MethodKind.HBM, cond_bar)


def theorem2_params(bounds: EigenBounds) -> MethodParams:
    """Accelerated-gradient rule alpha = 1/upper, beta = (1-sqrt(u))^2/(1-u)
    with u = 1/cond_bar (equivalently (sqrt(c)-1)^2/(c-1) for c = cond_bar)."""
    cond_bar = _require_cond(bounds)
    u = 1.0 / cond_bar
    beta = (1.0 - math.sqrt(u)) ** 2 / (1.0 - u)
    return _rule_params(1.0 / bounds.upper, beta, MethodKind.NAG_TWO_SEQUENCE, cond_bar)
