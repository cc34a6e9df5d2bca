import math
from types import SimpleNamespace

import numpy as np
import pytest

from momlab.complexity import theorem1_budget, theorem2_budget
from momlab.methods import run, theorem1_params, theorem2_params
from momlab.problems import EigenBounds, Rotation, make_diagonal_problem
from momlab.seeding import X0_STREAM, stream_seed, unit_start
from momlab.spectral import COMPLEX_PAIR, DOUBLE_ROOT, REAL_PAIR, _discriminant, parameter_grid


@pytest.fixture(scope="session", autouse=True)
def raise_on_floating_point_errors():
    """Overflow, invalid operations and division by zero raise in every test;
    code that expects one holds a local ``np.errstate``. Gradual underflow
    is expected in the kernel, the norms and deep powers, and stays quiet."""
    previous = np.seterr(all="raise", under="ignore")
    yield
    np.seterr(**previous)


@pytest.fixture(scope="session")
def coarse_grid():
    """420 (alpha_i, beta) points spanning all three regimes."""
    return parameter_grid(alpha_step=0.1)


@pytest.fixture(scope="session")
def fine_grid():
    """2100 points; use only for cheap per-point checks."""
    return parameter_grid(alpha_step=0.02)


def reference_rotation(n: int, seed: int) -> np.ndarray:
    """Reference dense Q of ``momlab.problems.random_orthogonal(n, seed)``:
    the seeded normals redrawn in the documented layout (block k holds n - k
    values, k = 0..n-1), Q accumulated from the identity by one rank-one
    update per Householder reflector H_k (the one mapping block k to
    alpha_k e_1, for k < n - 1), then column k signed so that R_kk = alpha_k
    turns positive, and the last column by the sign of the last draw."""
    draws = np.random.default_rng(seed).standard_normal(n * (n + 1) // 2)
    q, signs, start = np.eye(n), np.empty(n), 0
    for k in range(n - 1):
        x = draws[start : start + n - k]
        start += n - k
        alpha = -math.copysign(np.linalg.norm(x), x[0])
        v = x.copy()
        v[0] -= alpha
        q[:, k:] -= np.outer(q[:, k:] @ v, (2.0 / (v @ v)) * v)
        signs[k] = math.copysign(1.0, alpha)
    signs[-1] = math.copysign(1.0, draws[-1])
    return q * signs


def reflector_form(q) -> Rotation:
    """An explicit orthogonal matrix ``q`` as a ``Rotation``. LAPACK's raw
    Householder QR gives q = H_0 ... H_{n-1} R with H_k = I - tau_k v_k v_k'
    and R diagonal up to rounding, so u_k = sqrt(tau_k) v_k and the signs are
    those of R's diagonal (H_{n-1} acts on one coordinate: 1 - tau_{n-1})."""
    h, tau = np.linalg.qr(np.asarray(q, dtype=float), mode="raw")
    n = len(tau)  # h is R' on and below its diagonal; row k right of it is v_k's tail
    tails = [math.sqrt(tau[k]) * np.concatenate(([1.0], h[k, k + 1 :])) for k in range(n - 1)]
    signs = np.sign(np.diag(h)) * np.append(np.ones(n - 1), 1.0 - tau[-1])
    return Rotation(np.concatenate([np.empty(0), *tails]), signs)


def reference_problem_arrays(eigenvalues, rotation, x_star):
    """(H, b) of a problem by the library's former eager formulas: the
    diagonal matrix of the eigenvalues, or Q' diag(eigenvalues) Q
    symmetrized as 0.5 (H + H'), and b = H @ x*. The reference for
    ``momlab.oracle.dense_arrays``, byte for byte."""
    if rotation is None:
        h = np.diag(eigenvalues)
    else:
        h = (rotation.T * eigenvalues) @ rotation
        h = 0.5 * (h + h.T)
    return h, h @ x_star


def batched_sigma_max(mats: np.ndarray) -> np.ndarray:
    """Largest singular values of a stack (..., 2, 2), re-derived from the
    Gram matrix so it is independent of the library implementation."""
    m = np.asarray(mats, dtype=complex)
    g00 = np.abs(m[..., 0, 0]) ** 2 + np.abs(m[..., 1, 0]) ** 2
    g11 = np.abs(m[..., 0, 1]) ** 2 + np.abs(m[..., 1, 1]) ** 2
    g01 = np.conj(m[..., 0, 0]) * m[..., 0, 1] + np.conj(m[..., 1, 0]) * m[..., 1, 1]
    rad = np.sqrt((0.5 * (g00 - g11)) ** 2 + np.abs(g01) ** 2)
    return np.sqrt(np.maximum(0.5 * (g00 + g11) + rad, 0.0))


def reference_spectral_norm_2x2(m) -> np.ndarray:
    """Largest singular values of a stack (..., 2, 2) by the library's former
    body: every matrix promoted to complex, pre-scaled by its largest entry,
    and its Gram matrix formed by one einsum. The reference the real and
    complex paths of ``spectral_norm_2x2`` are held to, bit for bit."""
    a = np.asarray(m, dtype=complex)
    scale = np.abs(a).max(axis=(-2, -1))
    regular = (scale > 0.0) & np.isfinite(scale)
    safe = np.where(regular, scale, 1.0)
    a = np.where(regular[..., None, None], a, 0.0)
    a = (a.real / safe[..., None, None]) + 1j * (a.imag / safe[..., None, None])
    g = np.einsum("...ij,...ik->...jk", a.conj(), a)
    g00, g11 = g[..., 0, 0].real, g[..., 1, 1].real
    rad = np.hypot(0.5 * (g00 - g11), np.abs(g[..., 0, 1]))
    lam_max = 0.5 * (g00 + g11) + rad
    return np.where(regular, safe * np.sqrt(np.maximum(lam_max, 0.0)), scale)


def reference_log_power_norms(mat, kmax: int) -> np.ndarray:
    """log ||mat^k||_2 for k = 1..kmax by the library's former loop: one
    einsum product of the whole (..., 2, 2) stack per step, renormalized by
    each power's largest entry, and norms by ``reference_spectral_norm_2x2``.
    The reference for the entrywise loop of ``momlab.verify.log_power_norms``."""
    mat = np.asarray(mat)
    u = np.broadcast_to(np.eye(2, dtype=np.result_type(mat.dtype, float)), mat.shape)
    logs = np.empty((*mat.shape[:-2], kmax))
    log_scale = np.zeros(mat.shape[:-2])
    for k in range(kmax):
        u = np.einsum("...ij,...jk->...ik", u, mat)
        peak = np.abs(u).max(axis=(-2, -1))
        peak = np.where(peak > 0.0, peak, 1.0)
        u = u / peak[..., None, None]
        log_scale = log_scale + np.log(peak)
        with np.errstate(divide="ignore"):
            logs[..., k] = log_scale + np.log(reference_spectral_norm_2x2(u))
    return logs


def reference_write_csv(path, header, rows) -> None:
    """The CLI's former CSV writer: one ``format(float(v), ".17g")`` per value
    and one write per row. The reference for the chunked writer's bytes."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(format(float(v), ".17g") for v in row) + "\n")


def reference_chunked_write_csv(path, header, rows) -> None:
    """The CLI's former chunked CSV writer: every cell of a chunk of at most
    4,096 rows passed as a float to one ``%`` of ``%.17g`` fields. The
    reference for the memory the writer holds on a table of distinct values."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(rows), 4096):
            chunk = np.asarray(rows[start : start + 4096], dtype=float)
            line = ",".join(["%.17g"] * chunk.shape[1]) + "\n"
            fh.write(line * len(chunk) % tuple(chunk.ravel().tolist()))


def block_of(family: str, alpha_i: float, beta: float) -> tuple[float, float, float]:
    """(trace, determinant, double-root slack) of one block in Python floats,
    by the formulas ``analyze_hbm``/``analyze_nag`` state in their docstrings."""
    u = 2.0**-53
    if family == "hbm":
        trace = 1.0 + beta - alpha_i
        return trace, beta, 8.0 * u * (abs(trace) * (1.0 + beta + abs(alpha_i)) + beta)
    one_minus = 1.0 - alpha_i
    trace = (1.0 + beta) * one_minus
    w = abs(one_minus) + alpha_i
    return trace, beta * one_minus, 10.0 * u * w * (abs(trace) * (1.0 + beta) + 2.0 * beta)


def reference_analysis(family: str, alpha_i: float, beta: float) -> SimpleNamespace:
    """One block's spectral data by the scalar formulas, point by point, in
    Python float and complex arithmetic: the reference for the library's
    array path. The discriminant is ``momlab.spectral._discriminant`` on
    Python floats. Fields as in ``momlab.spectral.BlockSpectrum``."""
    trace, product, slack = block_of(family, alpha_i, beta)
    disc = _discriminant(trace, product)
    if abs(disc) <= slack and math.isfinite(disc):
        lam = complex(0.5 * trace)
        eigen = 0j, lam, lam, abs(0.5 * trace), DOUBLE_ROOT
    elif disc > 0.0:
        g = math.sqrt(disc)
        lp, lm = 0.5 * (trace + g), 0.5 * (trace - g)
        eigen = complex(g), complex(lp), complex(lm), 0.5 * (abs(trace) + g), REAL_PAIR
    else:
        g = math.sqrt(-disc)
        lp = complex(0.5 * trace, 0.5 * g)
        eigen = complex(0.0, g), lp, lp.conjugate(), math.sqrt(product), COMPLEX_PAIR
    names = ("gamma", "lambda_plus", "lambda_minus", "rho", "regime")
    return SimpleNamespace(beta_i=trace, product=product, **dict(zip(names, eigen)))


def reference_eigvec_condition(spec) -> float:
    """cond(S) = mu_+ / |gamma| of one block by the scalar closed form
    (``x ** 2`` and complex ``abs`` as CPython evaluates them): the reference
    for the array path. inf where gamma = 0."""
    t, c = spec.beta_i, spec.product
    if spec.regime == REAL_PAIR:
        g2 = spec.gamma.real ** 2
        mid = 1.0 + 0.25 * (t * t + g2)
        half_span = 0.5 * math.sqrt(t * t * g2 + 4.0 * (1.0 + c) ** 2)
    else:
        mid = 1.0 + c
        half_span = abs(1.0 + spec.lambda_plus ** 2)
    if spec.gamma == 0:
        return math.inf
    return (mid + half_span) / abs(spec.gamma)


def reference_theorem_lines(
    which, conds, eps_values, num_seeds, master_seed=0, budget_override=None
) -> list[str]:
    """The report lines of ``verify_theorem`` computed one (cond, eps) cell
    at a time: one problem {1, cond} and one (seeds, 2) run per cell, with
    scalar parameters. The reference for the single stacked run."""
    budget_of = theorem1_budget if which == 1 else theorem2_budget
    params_of = theorem1_params if which == 1 else theorem2_params
    label = f"thm{which}"
    lines = []
    for ci, cond in enumerate(sorted(conds)):
        bounds = EigenBounds(1.0, float(cond))
        params = params_of(bounds)
        problem = make_diagonal_problem([1.0, float(cond)])
        for ei, eps in enumerate(sorted(eps_values)):
            budget = budget_of(bounds.cond_bar, float(eps)).budget
            if budget_override is not None:
                budget = budget_override
            seeds = [stream_seed(master_seed, X0_STREAM, ci, ei, si) for si in range(num_seeds)]
            starts = np.array([unit_start(2, seed) for seed in seeds])
            traj = run(problem, params, starts, budget)
            for si, (x0, averaged) in enumerate(zip(starts, traj.averaged_final)):
                start_dist = float(np.linalg.norm(x0 - problem.x_star))
                ratio = float(np.linalg.norm(averaged - problem.x_star)) / start_dist
                if ratio == 0.0:  # an underflowed 2-norm checks nothing
                    status = "UNDERFLOW"
                else:
                    status = "PASS" if ratio <= float(eps) else "FAIL"
                lines.append(
                    f"{label} cond={float(cond):g} eps={float(eps):g} seed={si}"
                    f" K={budget} ratio={ratio:.6e} {status}"
                )
    num_pass = sum(line.endswith(" PASS") for line in lines)
    num_underflowed = sum(line.endswith(" UNDERFLOW") for line in lines)
    summary = f"{label}: {num_pass}/{len(lines)} cells passed"
    return lines + [summary + (f" ({num_underflowed} underflowed)" if num_underflowed else "")]
