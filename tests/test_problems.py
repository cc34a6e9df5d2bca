import math

import numpy as np
import pytest
from conftest import gram_schmidt_orthogonal

from momlab.errors import (
    DimensionMismatchError,
    InvalidSpectrumError,
    NotPositiveDefiniteError,
    SingularMatrixError,
)
from momlab.methods import MethodKind, MethodParams, run
from momlab.problems import (
    DiagonalSpectrum,
    EigenBounds,
    QuadraticProblem,
    gershgorin_upper,
    gradient,
    make_diagonal_problem,
    make_rotated_problem,
    minimizer,
    random_orthogonal,
)


def test_make_diagonal_problem_basic():
    p = make_diagonal_problem([1, 100])
    assert np.array_equal(p.hessian, np.diag([1.0, 100.0]))
    assert np.array_equal(p.linear_term, np.zeros(2))
    assert np.array_equal(minimizer(p), np.zeros(2))


def test_make_diagonal_problem_one_d():
    p = make_diagonal_problem([1])
    assert np.array_equal(p.hessian, np.array([[1.0]]))
    assert np.array_equal(minimizer(p), np.zeros(1))


def test_make_diagonal_problem_sorts():
    p = make_diagonal_problem([5, 2, 3])
    assert np.array_equal(np.diag(p.hessian), [2.0, 3.0, 5.0])


@pytest.mark.parametrize("bad", [[1, -2], [0.0, 1.0], [], [np.nan]])
def test_invalid_spectra_rejected(bad):
    with pytest.raises(InvalidSpectrumError):
        DiagonalSpectrum(bad)


def test_rotated_problem_preserves_spectrum():
    # characteristic-polynomial identities: trace = sum, det = product
    p = make_rotated_problem([1, 100], seed=3, shift=[0.0, 0.0])
    h = p.hessian
    assert h[0, 1] == h[1, 0]
    assert np.trace(h) == pytest.approx(101.0, abs=1e-10)
    det = h[0, 0] * h[1, 1] - h[0, 1] * h[1, 0]
    assert det == pytest.approx(100.0, rel=1e-12)


def test_rotated_problem_one_d():
    p = make_rotated_problem([1], seed=11, shift=[4.5])
    assert p.hessian == pytest.approx(np.array([[1.0]]))
    assert p.linear_term == pytest.approx(np.array([4.5]))


def test_rotated_gradient_vanishes_at_shift():
    shift = np.array([3.0, -4.0])
    p = make_rotated_problem([1, 100], seed=5, shift=shift)
    assert np.linalg.norm(gradient(p, shift)) <= 1e-12 * np.linalg.norm(p.linear_term)


def test_rotated_minimizer_matches_shift():
    shift = np.array([2.0, -1.0, 0.5, 7.0])
    p = make_rotated_problem([1, 3, 30, 100], seed=9, shift=shift)
    assert np.linalg.norm(minimizer(p) - shift) <= 1e-10 * np.linalg.norm(shift)


def test_gradient_examples():
    p = make_diagonal_problem([1, 100])
    assert np.array_equal(gradient(p, [1.0, 1.0]), [1.0, 100.0])
    assert np.array_equal(gradient(p, minimizer(p)), np.zeros(2))
    q = make_diagonal_problem([2, 3])
    assert np.array_equal(gradient(q, [-1.0, 2.0]), [-2.0, 6.0])


def test_gradient_dimension_mismatch():
    p = make_diagonal_problem([1, 100])
    with pytest.raises(DimensionMismatchError):
        gradient(p, [1.0, 2.0, 3.0])


def test_minimizer_with_linear_term():
    p = QuadraticProblem(np.array([[1.0]]), np.array([5.0]))
    assert np.array_equal(minimizer(p), [5.0])


def test_singular_hessian_rejected():
    with pytest.raises(SingularMatrixError):
        QuadraticProblem(np.array([[1.0, 1.0], [1.0, 1.0]]), np.zeros(2))


@pytest.mark.parametrize("rotate", [False, True])
def test_singularity_test_is_rotation_invariant(rotate):
    # a problem and its rotation share one spectrum, so the eigenvalue test
    # rejects both at cond 1e13 and accepts both at cond 1e11
    def build(cond):
        spectrum = np.geomspace(1.0, cond, 6)
        if rotate:
            return make_rotated_problem(spectrum, seed=2, shift=np.zeros(6))
        return make_diagonal_problem(spectrum)

    with pytest.raises(SingularMatrixError):
        build(1e13)
    build(1e11)


def test_nearly_singular_dense_hessian_rejected():
    with pytest.raises(SingularMatrixError):
        QuadraticProblem(np.array([[1.0, 1.0], [1.0, 1.0 + 1e-13]]), np.zeros(2))


def test_gershgorin_examples():
    assert gershgorin_upper(make_diagonal_problem([1, 100])) == 100.0

    p = QuadraticProblem.from_matrix([[2.0, -1.0], [-1.0, 2.0]], np.zeros(2))
    # analytic eigenvalues 2 -+ 1; the bound is attained here
    assert gershgorin_upper(p) == pytest.approx(3.0, abs=1e-14)

    q = QuadraticProblem.from_matrix([[4.0, 1.0], [1.0, 1.0]], np.zeros(2))
    lam_max = 0.5 * (5.0 + math.sqrt(25.0 - 4.0 * 3.0))  # quadratic formula
    assert gershgorin_upper(q) == pytest.approx(5.0, abs=1e-14)
    assert gershgorin_upper(q) >= lam_max


def test_from_matrix_rejects_indefinite():
    with pytest.raises(NotPositiveDefiniteError):
        QuadraticProblem.from_matrix([[1.0, 0.0], [0.0, -1.0]], np.zeros(2))


def test_from_matrix_rejects_asymmetric():
    with pytest.raises(ValueError, match="symmetric"):
        QuadraticProblem.from_matrix([[1.0, 0.5], [0.2, 1.0]], np.zeros(2))


def test_gradient_at_minimizer_invariant():
    cases = [
        make_diagonal_problem([1, 100]),
        make_rotated_problem([1, 10, 100], seed=2, shift=[1.0, -2.0, 3.0]),
        make_rotated_problem(np.geomspace(0.5, 500.0, 8), seed=17, shift=np.arange(8.0)),
    ]
    for p in cases:
        lhs = np.linalg.norm(gradient(p, minimizer(p)))
        assert lhs <= 1e-9 * (1.0 + np.linalg.norm(p.linear_term))


def test_gershgorin_dominates_spectrum():
    rng = np.random.default_rng(0)
    for seed in range(5):
        eig = np.sort(rng.uniform(0.1, 50.0, size=6))
        p = make_rotated_problem(eig, seed=seed, shift=np.zeros(6))
        assert gershgorin_upper(p) >= eig[-1] - 1e-9
    # exact for diagonal problems
    assert gershgorin_upper(make_diagonal_problem(eig)) == pytest.approx(eig[-1])


def test_random_orthogonal_deterministic_and_orthogonal():
    q1 = random_orthogonal(6, seed=123)
    q2 = random_orthogonal(6, seed=123)
    assert np.array_equal(q1, q2)
    assert np.abs(q1.T @ q1 - np.eye(6)).max() <= 1e-12
    assert not np.allclose(q1, random_orthogonal(6, seed=124))


@pytest.mark.parametrize("n", [1, 2, 60, 400])
def test_random_orthogonal_matches_gram_schmidt(n):
    q = random_orthogonal(n, seed=n + 3)
    ref = gram_schmidt_orthogonal(n, seed=n + 3)
    assert np.abs(q - ref).max() <= 1e-12
    # the same column signs, not merely the same columns up to sign
    assert np.all(np.sign(np.einsum("ij,ij->j", q, ref)) == 1.0)


def test_rotated_run_matches_diagonal_run():
    # the iteration commutes with shift + rotation, so per-step distances agree
    spectrum = [1.0, 2.5, 10.0, 40.0, 100.0]
    shift = np.array([1.0, -1.0, 2.0, 0.5, -3.0])
    seed = 21
    rotated = make_rotated_problem(spectrum, seed=seed, shift=shift)
    diagonal = make_diagonal_problem(spectrum)
    q = random_orthogonal(5, seed)
    v = np.array([1.0, 1.0, -1.0, 0.5, 2.0])

    params = MethodParams(1.9 / 100.0, 0.85, MethodKind.HBM)
    t_rot = run(rotated, params, shift + q.T @ v, 150)
    t_diag = run(diagonal, params, v, 150)
    rel = np.abs(t_rot.distances - t_diag.distances) / (t_diag.distances + 1e-300)
    assert rel.max() <= 1e-8


def test_eigen_bounds():
    b = EigenBounds(1.0, 100.0)
    assert b.cond_bar == 100.0
    assert EigenBounds.from_spectrum(DiagonalSpectrum([2, 8])).cond_bar == 4.0
    with pytest.raises(InvalidSpectrumError):
        EigenBounds(0.0, 1.0)
    with pytest.raises(InvalidSpectrumError):
        EigenBounds(2.0, 1.0)


def test_problem_arrays_are_read_only():
    p = make_diagonal_problem([1, 100])
    with pytest.raises(ValueError):
        p.hessian[0, 0] = 7.0
    with pytest.raises(ValueError):
        p.x_star[0] = 1.0
