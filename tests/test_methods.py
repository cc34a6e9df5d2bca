import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import momlab.methods
from momlab.errors import DimensionMismatchError, PreconditionError
from momlab.methods import (
    MethodKind,
    MethodParams,
    run,
    theorem1_params,
    theorem2_params,
)
from momlab.oracle import dense_arrays, dense_run, gradient
from momlab.problems import EigenBounds, make_diagonal_problem, make_rotated_problem


FIG1_PARAMS = MethodParams(1.9 / 100.0, 0.85, MethodKind.HBM)


def _trajectories_agree(a, b, rtol):
    scale = np.linalg.norm(a.iterates[0])
    for xa, xb in zip(a.iterates, b.iterates):
        ref = max(np.linalg.norm(xa), np.linalg.norm(xb), 1e-3 * scale)
        if np.linalg.norm(xa - xb) > rtol * ref:
            return False
    return True


def test_params_validation():
    with pytest.raises(ValueError):
        MethodParams(0.0, 0.5, MethodKind.HBM)
    with pytest.raises(ValueError):
        MethodParams(0.1, 1.0, MethodKind.HBM)
    with pytest.raises(ValueError):
        MethodParams(0.1, -0.1, MethodKind.HBM)


@pytest.mark.parametrize(
    "alpha, beta, message",
    [
        (0.0, 0.5, "alpha must be positive and finite, got 0.0"),
        (math.inf, 0.5, "alpha must be positive and finite, got inf"),
        (math.nan, 0.5, "alpha must be positive and finite, got nan"),
        (0.1, 1.0, "beta must lie in [0, 1), got 1.0"),
        (0.1, -0.1, "beta must lie in [0, 1), got -0.1"),
        (0.1, math.nan, "beta must lie in [0, 1), got nan"),
        # an array names its first offending entry, in the scalar's words
        (np.array([0.1, 0.2, -0.3, 0.0]), 0.5, "alpha must be positive and finite, got -0.3"),
        (np.array([0.1, np.inf]), np.array([0.5, 0.5]), "alpha must be positive and finite, got inf"),
        (np.array([0.1, 0.2]), np.array([0.5, 1.0]), "beta must lie in [0, 1), got 1.0"),
        (0.1, np.array([0.0, np.nan, 0.9]), "beta must lie in [0, 1), got nan"),
    ],
)
def test_params_validation_messages(alpha, beta, message):
    with pytest.raises(ValueError) as exc:
        MethodParams(alpha, beta, MethodKind.HBM)
    assert str(exc.value) == message


@pytest.mark.parametrize("batch", [None, 5], ids=["single", "batch"])
@pytest.mark.parametrize("kind", list(MethodKind), ids=lambda kind: kind.value)
def test_per_coordinate_run_equals_each_pairs_scalar_run_bitwise(kind, batch):
    # pair j's spectrum {1, c_j} at coordinates j and m + j, as verify_theorem
    # stacks its cells
    conds = [28.0, 30.0, 100.0, 1000.0]
    m = len(conds)
    rule = theorem1_params if kind in (MethodKind.MM, MethodKind.HBM) else theorem2_params
    rules = [rule(EigenBounds(1.0, c)) for c in conds] * 2
    params = MethodParams(
        np.array([p.alpha for p in rules]), np.array([p.beta for p in rules]), kind
    )
    problem = make_diagonal_problem([1.0] * m + conds)
    shape = (2 * m,) if batch is None else (batch, 2 * m)
    x0 = np.random.default_rng(8).standard_normal(shape)
    stacked = run(problem, params, x0, 400)
    for j, cond in enumerate(conds):
        pair = [j, m + j]
        scalar = MethodParams(rules[j].alpha, rules[j].beta, kind)
        alone = run(make_diagonal_problem([1.0, cond]), scalar, x0[..., pair], 400)
        assert np.array_equal(stacked.errors[..., pair], alone.errors)


def _pair_problems(lam, seed=3):
    """The diagonal problem {1, lam} and a rotated, shifted copy of it."""
    shift = np.random.default_rng(seed).standard_normal(2)
    return [make_diagonal_problem([1.0, lam]), make_rotated_problem([1.0, lam], seed, shift)]


# The equivalence tests hold the oracle's state machine of one form against
# `run`, which iterates the other form of the pair in the eigenbasis.


def test_mm_equals_hbm_short():
    p = make_diagonal_problem([1, 100])
    mm = dense_run(p, MethodParams(0.019, 0.85, MethodKind.MM), [1.0, 1.0], 20)
    hb = run(p, MethodParams(0.019, 0.85, MethodKind.HBM), [1.0, 1.0], 20)
    assert np.abs(mm.iterates - hb.iterates).max() <= 1e-12


def test_nag_forms_agree_short():
    # this step length makes the accelerated iteration diverge (alpha_i = 1.9),
    # so the agreement is scaled per step
    p = make_diagonal_problem([1, 100])
    two = run(p, MethodParams(0.019, 0.85, MethodKind.NAG_TWO_SEQUENCE), [1.0, 1.0], 20)
    compact = dense_run(p, MethodParams(0.019, 0.85, MethodKind.NAG_COMPACT), [1.0, 1.0], 20)
    diffs = np.abs(two.iterates - compact.iterates).max(axis=1)
    scales = np.maximum(1.0, np.abs(two.iterates).max(axis=1))
    assert (diffs <= 1e-12 * scales).all()


def test_mm_equals_hbm_200_steps():
    for p in _pair_problems(100.0):
        x0 = p.x_star + 1.0
        mm = dense_run(p, MethodParams(0.019, 0.85, MethodKind.MM), x0, 200)
        hb = run(p, MethodParams(0.019, 0.85, MethodKind.HBM), x0, 200)
        assert _trajectories_agree(mm, hb, 1e-10)


def test_nag_forms_agree_200_steps():
    beta = theorem2_params(EigenBounds(1.0, 100.0)).beta
    for p in _pair_problems(100.0):
        x0 = p.x_star + 1.0
        two = run(p, MethodParams(0.01, beta, MethodKind.NAG_TWO_SEQUENCE), x0, 200)
        compact = dense_run(p, MethodParams(0.01, beta, MethodKind.NAG_COMPACT), x0, 200)
        assert _trajectories_agree(two, compact, 1e-10)


@settings(deadline=None, max_examples=25)
@given(
    lam=st.floats(1.5, 80.0),
    beta=st.floats(0.0, 0.95),
    step_factor=st.floats(0.05, 2.0),
    x0a=st.floats(-5.0, 5.0),
    x0b=st.floats(-5.0, 5.0),
)
def test_mm_hbm_equivalence_property(lam, beta, step_factor, x0a, x0b):
    alpha = step_factor / lam
    for p in _pair_problems(lam):
        x0 = p.x_star + [x0a, x0b]
        mm = dense_run(p, MethodParams(alpha, beta, MethodKind.MM), x0, 60)
        hb = run(p, MethodParams(alpha, beta, MethodKind.HBM), x0, 60)
        assert _trajectories_agree(mm, hb, 1e-10)


@settings(deadline=None, max_examples=25)
@given(
    lam=st.floats(1.5, 80.0),
    beta=st.floats(0.0, 0.95),
    step_factor=st.floats(0.05, 1.0),
    x0a=st.floats(-5.0, 5.0),
    x0b=st.floats(-5.0, 5.0),
)
def test_nag_equivalence_property(lam, beta, step_factor, x0a, x0b):
    alpha = step_factor / lam
    for p in _pair_problems(lam):
        x0 = p.x_star + [x0a, x0b]
        two = run(p, MethodParams(alpha, beta, MethodKind.NAG_TWO_SEQUENCE), x0, 60)
        compact = dense_run(p, MethodParams(alpha, beta, MethodKind.NAG_COMPACT), x0, 60)
        assert _trajectories_agree(two, compact, 1e-10)


def test_run_figure_setup_is_non_monotone():
    p = make_diagonal_problem([1, 100])
    d = run(p, FIG1_PARAMS, [1.0, 1.0], 100).distances
    assert np.any(d[1:] > d[:-1])
    assert d[-1] < d[0]


def test_run_from_minimizer_stays_put():
    p = make_diagonal_problem([1, 100])
    d = run(p, FIG1_PARAMS, [0.0, 0.0], 10).distances
    assert np.array_equal(d, np.zeros(11))


def test_one_d_full_step_flips_sign():
    # alpha * curvature = 2: the first step maps x0 to -x0, same distance
    p = make_diagonal_problem([1.0])
    traj = run(p, MethodParams(2.0, 0.5, MethodKind.HBM), [3.0], 1)
    assert traj.iterates[1] == pytest.approx([-3.0])
    assert traj.distances[1] == traj.distances[0]


def test_beta_zero_is_exact_gradient_descent():
    p = make_diagonal_problem([2, 5])
    alpha = 0.1
    traj = run(p, MethodParams(alpha, 0.0, MethodKind.HBM), [1.0, -2.0], 30)
    x = np.array([1.0, -2.0])
    h, _ = dense_arrays(p)
    for k in range(1, 31):
        x = x - alpha * (h @ x)
        assert np.array_equal(traj.iterates[k], x)


def test_first_step_never_increases_distance_with_full_step():
    rng = np.random.default_rng(7)
    for seed in range(5):
        eig = np.sort(rng.uniform(0.5, 60.0, size=4))
        p = make_rotated_problem(eig, seed=seed, shift=rng.standard_normal(4))
        params = MethodParams(2.0 / eig[-1], 0.9, MethodKind.HBM)
        traj = run(p, params, p.x_star + rng.standard_normal(4), 1)
        assert traj.distances[1] <= traj.distances[0] * (1.0 + 1e-12)


def test_trajectory_bookkeeping():
    p = make_diagonal_problem([1, 100])
    traj = run(p, FIG1_PARAMS, [1.0, 1.0], 5)
    assert traj.num_steps == 5
    assert traj.distances == pytest.approx(np.linalg.norm(traj.iterates, axis=1))
    assert np.array_equal(traj.averaged_final, 0.5 * (traj.iterates[4] + traj.iterates[5]))
    assert np.array_equal(traj.averaged_iterate(0), traj.iterates[0])
    avg = traj.averaged_distances()
    assert avg[0] == traj.distances[0]
    assert avg[3] == pytest.approx(np.linalg.norm(traj.averaged_iterate(3)))
    with pytest.raises(ValueError):
        run(p, FIG1_PARAMS, [1.0, 1.0], 0)


def _batch_problems():
    rng = np.random.default_rng(11)
    eig = np.geomspace(1.0, 100.0, 50)
    return [
        make_diagonal_problem([1.0, 100.0]),
        make_rotated_problem(eig, seed=4, shift=rng.standard_normal(50)),
    ]


@pytest.mark.parametrize("problem", _batch_problems(), ids=["diagonal-2", "rotated-50"])
@pytest.mark.parametrize("kind", list(MethodKind), ids=lambda kind: kind.value)
def test_batched_run_equals_per_row_runs_bitwise(problem, kind):
    heavy_ball = kind in (MethodKind.MM, MethodKind.HBM)
    params = MethodParams(0.019, 0.85, kind) if heavy_ball else MethodParams(0.01, 0.8, kind)
    starts = problem.x_star + np.random.default_rng(5).standard_normal((5, problem.dimension))
    batch = run(problem, params, starts, 60)
    assert batch.iterates.shape == (61, 5, problem.dimension)
    assert batch.distances.shape == (61, 5)
    batch_avg = batch.averaged_distances()
    assert batch_avg.shape == (61, 5)
    for j, x0 in enumerate(starts):
        single = run(problem, params, x0, 60)
        assert np.array_equal(batch.iterates[:, j], single.iterates)
        assert np.array_equal(batch.distances[:, j], single.distances)
        assert np.array_equal(batch.averaged_final[j], single.averaged_final)
        assert np.array_equal(batch_avg[:, j], single.averaged_distances())


@pytest.mark.parametrize("batch", [None, 7], ids=["single", "batch"])
@pytest.mark.parametrize("n", [2, 60])
@pytest.mark.parametrize("family", ["hbm", "nag"])
def test_run_matches_dense_state_machines_bitwise_on_diagonal_problems(family, n, batch):
    # pins the bytes of diagonal runs: there the eigenbasis kernel is the
    # dense HBM / two-sequence NAG recursion evaluated in the same order, so
    # reordering the kernel's expression fails here before it moves a CSV
    eig = np.geomspace(1.0, 1e3, n)
    problem = make_diagonal_problem(eig)
    rule = theorem1_params if family == "hbm" else theorem2_params
    params = rule(EigenBounds(1.0, 1e3))
    shape = (n,) if batch is None else (batch, n)
    x0 = np.random.default_rng(n).standard_normal(shape)
    got = run(problem, params, x0, 300)
    want = dense_run(problem, params, x0, 300)
    assert np.array_equal(got.iterates, want.iterates)
    assert np.array_equal(got.distances, want.distances)
    assert np.array_equal(got.averaged_final, want.averaged_final)
    assert np.array_equal(got.averaged_distances(), want.averaged_distances)
    # MM runs as HBM and the compact form as the two-sequence form, bit for bit
    other = MethodKind.MM if family == "hbm" else MethodKind.NAG_COMPACT
    twin = run(problem, MethodParams(params.alpha, params.beta, other), x0, 300)
    assert np.array_equal(twin.errors, got.errors)


def _bits(a):
    # raw bytes, so non-finite entries and the sign of zero compare too
    return np.ascontiguousarray(a).tobytes()


_B = momlab.methods._BLOCK_ROWS


@pytest.mark.parametrize("num_steps", [1, _B - 1, _B, _B + 1, 2 * _B + 1])
@pytest.mark.parametrize("per_coordinate", [False, True], ids=["scalar", "per-coordinate"])
@pytest.mark.parametrize("batch", [None, 3], ids=["single", "batch"])
@pytest.mark.parametrize("kind", list(MethodKind), ids=lambda kind: kind.value)
def test_history_free_run_equals_the_full_run_bitwise(kind, batch, per_coordinate, num_steps):
    rng = np.random.default_rng(num_steps)
    eig = np.geomspace(1.0, 100.0, 9)
    problem = make_rotated_problem(eig, seed=2, shift=rng.standard_normal(9))
    heavy_ball = kind in (MethodKind.MM, MethodKind.HBM)
    alpha, beta = (0.019, 0.85) if heavy_ball else (0.01, 0.8)
    if per_coordinate:
        alpha = alpha * rng.uniform(0.5, 1.0, 9)
        beta = rng.uniform(0.0, beta, 9)
    params = MethodParams(alpha, beta, kind)
    x0 = problem.x_star + rng.standard_normal((9,) if batch is None else (batch, 9))
    full = run(problem, params, x0, num_steps)
    free = run(problem, params, x0, num_steps, history=False)
    assert free.num_steps == full.num_steps == num_steps
    assert _bits(free.distances) == _bits(full.distances)
    assert _bits(free.averaged_distances()) == _bits(full.averaged_distances())
    assert _bits(free.averaged_final) == _bits(full.averaged_final)


@pytest.mark.parametrize("block_rows", [1, 2, 12, 13, 14])
def test_history_free_run_is_bitwise_across_a_non_finite_block_boundary(monkeypatch, block_rows):
    # a heavy-ball step past two grows the distance from rest to its first
    # maximum at step 13; a start just below where that maximum overflows
    # the norm makes step 13 the first non-finite distance
    problem = make_diagonal_problem([1.0, 100.0])
    params = MethodParams(0.021, 0.99, MethodKind.HBM)
    unit = run(problem, params, [0.0, 1.0], 40).distances
    assert int(np.argmax(unit)) == 13
    scale = np.sqrt(np.finfo(float).max) / np.sqrt(unit[13] * unit[:13].max())
    with np.errstate(over="ignore", invalid="ignore"):
        full = run(problem, params, [0.0, scale], 40)
        monkeypatch.setattr(momlab.methods, "_BLOCK_ROWS", block_rows)
        free = run(problem, params, [0.0, scale], 40, history=False)
        full_avg, free_avg = full.averaged_distances(), free.averaged_distances()
    assert np.isfinite(full.distances[:13]).all() and not np.isfinite(full.distances[13])
    assert _bits(free.distances) == _bits(full.distances)
    assert _bits(free_avg) == _bits(full_avg)
    assert _bits(free.averaged_final) == _bits(full.averaged_final)


def test_history_free_run_keeps_no_error_history():
    traj = run(make_diagonal_problem([1.0, 100.0]), FIG1_PARAMS, [1.0, 1.0], 5, history=False)
    assert traj.history is None
    for read in (
        lambda: traj.errors,
        lambda: traj.iterates,
        lambda: traj.averaged_iterate(0),
        lambda: traj.averaged_iterate(3),
    ):
        with pytest.raises(ValueError, match="history-free run keeps no error history"):
            read()


@pytest.mark.parametrize("problem", _batch_problems(), ids=["diagonal-2", "rotated-50"])
def test_gradient_of_a_stack_is_the_per_row_gradient_bitwise(problem):
    xs = np.random.default_rng(6).standard_normal((5, problem.dimension))
    dense = dense_arrays(problem)
    stacked = gradient(dense, xs)
    assert stacked.shape == xs.shape
    for x, g in zip(xs, stacked):
        assert np.array_equal(g, gradient(dense, x))


def test_run_rejects_bad_start_shapes():
    p = make_diagonal_problem([1, 100])
    with pytest.raises(DimensionMismatchError):
        run(p, FIG1_PARAMS, np.ones((2, 3, 2)), 5)
    with pytest.raises(DimensionMismatchError):
        run(p, FIG1_PARAMS, np.ones((4, 3)), 5)
    with pytest.raises(DimensionMismatchError, match=r"params.alpha has shape \(3,\)"):
        run(p, MethodParams(np.full(3, 0.01), 0.5, MethodKind.HBM), np.ones(2), 5)
    with pytest.raises(DimensionMismatchError, match=r"params.beta has shape \(1, 2\)"):
        run(p, MethodParams(0.01, np.full((1, 2), 0.5), MethodKind.HBM), np.ones(2), 5)
    with pytest.raises(DimensionMismatchError):
        gradient(dense_arrays(p), np.ones((2, 3, 2)))
    with pytest.raises(DimensionMismatchError):
        gradient(dense_arrays(p), np.ones(3))


def test_theorem1_params_cond100():
    params = theorem1_params(EigenBounds(1.0, 100.0))
    assert params.kind is MethodKind.HBM
    assert params.alpha == pytest.approx(0.02, abs=1e-16)
    # frozen from a 50-digit mpmath evaluation of (1 - sqrt(2/100))^2
    assert params.beta == pytest.approx(0.7371572875253810, abs=1e-15)


def test_theorem1_params_matches_normalized_lower_step():
    # beta = (1 - sqrt(alpha * lower))^2 is the same rule
    bounds = EigenBounds(2.0, 80.0)
    params = theorem1_params(bounds)
    underbar = params.alpha * bounds.lower
    assert params.beta == pytest.approx((1.0 - math.sqrt(underbar)) ** 2, abs=1e-15)


def test_theorem1_params_boundary():
    params = theorem1_params(EigenBounds(1.0, 28.0))
    assert params.alpha == pytest.approx(2.0 / 28.0)
    assert params.beta == pytest.approx((1.0 - math.sqrt(1.0 / 14.0)) ** 2, abs=1e-15)


def test_theorem1_params_below_threshold():
    with pytest.raises(PreconditionError) as exc:
        theorem1_params(EigenBounds(1.0, 2.0))
    assert exc.value.threshold == 28.0


def test_theorem2_params_cond100():
    params = theorem2_params(EigenBounds(1.0, 100.0))
    assert params.kind is MethodKind.NAG_TWO_SEQUENCE
    assert params.alpha == pytest.approx(0.01, abs=1e-16)
    assert params.beta == pytest.approx(0.81 / 0.99, abs=1e-15)


@pytest.mark.parametrize("cond", [28.0, 100.0, 1000.0])
def test_theorem2_beta_forms_agree(cond):
    u = 1.0 / cond
    form1 = (1.0 - math.sqrt(u)) ** 2 / (1.0 - u)
    form2 = (math.sqrt(cond) - 1.0) ** 2 / (cond - 1.0)
    assert abs(form1 - form2) <= 1e-14
    assert theorem2_params(EigenBounds(1.0, cond)).beta == pytest.approx(form1, abs=1e-15)


def test_theorem2_params_below_threshold():
    with pytest.raises(PreconditionError):
        theorem2_params(EigenBounds(1.0, 4.0))


def test_convergence_under_theorem1_params():
    from momlab.complexity import theorem1_budget

    bounds = EigenBounds(1.0, 100.0)
    p = make_diagonal_problem([1, 100])
    budget = theorem1_budget(bounds.cond_bar, 0.01).budget
    traj = run(p, theorem1_params(bounds), [1.0, 1.0], budget)
    assert traj.distances[budget] < traj.distances[0]
