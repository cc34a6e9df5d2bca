import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import reference_problem_arrays, reference_rotation, reflector_form

from momlab.errors import (
    DimensionMismatchError,
    InvalidSpectrumError,
    NotPositiveDefiniteError,
    SingularMatrixError,
)
from momlab.methods import MethodKind, MethodParams, run
from momlab.oracle import dense_arrays, gershgorin_upper, gradient, rotation_matrix
from momlab.problems import (
    EigenBounds,
    QuadraticProblem,
    Rotation,
    make_diagonal_problem,
    make_rotated_problem,
    random_orthogonal,
)


def test_make_diagonal_problem_basic():
    p = make_diagonal_problem([1, 100])
    h, b = dense_arrays(p)
    assert np.array_equal(h, np.diag([1.0, 100.0]))
    assert np.array_equal(b, np.zeros(2))
    assert np.array_equal(p.x_star, np.zeros(2))


def test_make_diagonal_problem_one_d():
    p = make_diagonal_problem([1])
    assert np.array_equal(dense_arrays(p)[0], np.array([[1.0]]))
    assert np.array_equal(p.x_star, np.zeros(1))


def test_make_diagonal_problem_keeps_the_spectrum_order():
    # entry i is coordinate i's curvature: nothing is sorted
    p = make_diagonal_problem([5, 2, 3])
    assert np.array_equal(p.eigenvalues, [5.0, 2.0, 3.0])
    assert np.array_equal(np.diag(dense_arrays(p)[0]), [5.0, 2.0, 3.0])


@pytest.mark.parametrize("bad", [[1, -2], [0.0, 1.0], [], [np.nan]])
def test_invalid_spectra_rejected(bad):
    with pytest.raises(InvalidSpectrumError):
        make_diagonal_problem(bad)
    with pytest.raises(InvalidSpectrumError):
        make_rotated_problem(bad, seed=1, shift=np.zeros(len(bad)))


def test_rotated_problem_preserves_spectrum():
    # characteristic-polynomial identities: trace = sum, det = product
    p = make_rotated_problem([1, 100], seed=3, shift=[0.0, 0.0])
    h, _ = dense_arrays(p)
    assert h[0, 1] == h[1, 0]
    assert np.trace(h) == pytest.approx(101.0, abs=1e-10)
    det = h[0, 0] * h[1, 1] - h[0, 1] * h[1, 0]
    assert det == pytest.approx(100.0, rel=1e-12)


def test_rotated_problem_one_d():
    p = make_rotated_problem([1], seed=11, shift=[4.5])
    h, b = dense_arrays(p)
    assert h == pytest.approx(np.array([[1.0]]))
    assert b == pytest.approx(np.array([4.5]))


def test_rotated_gradient_vanishes_at_shift():
    shift = np.array([3.0, -4.0])
    p = make_rotated_problem([1, 100], seed=5, shift=shift)
    dense = dense_arrays(p)
    assert np.linalg.norm(gradient(dense, shift)) <= 1e-12 * np.linalg.norm(dense[1])


def test_rotated_minimizer_matches_shift():
    shift = np.array([2.0, -1.0, 0.5, 7.0])
    p = make_rotated_problem([1, 3, 30, 100], seed=9, shift=shift)
    # the builder hands in x* = shift; nothing is solved
    assert np.array_equal(p.x_star, shift)


def test_gradient_examples():
    p = make_diagonal_problem([1, 100])
    assert np.array_equal(gradient(dense_arrays(p), [1.0, 1.0]), [1.0, 100.0])
    assert np.array_equal(gradient(dense_arrays(p), p.x_star), np.zeros(2))
    q = make_diagonal_problem([2, 3])
    assert np.array_equal(gradient(dense_arrays(q), [-1.0, 2.0]), [-2.0, 6.0])


def test_gradient_dimension_mismatch():
    p = make_diagonal_problem([1, 100])
    with pytest.raises(DimensionMismatchError):
        gradient(dense_arrays(p), [1.0, 2.0, 3.0])


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


def _from_symmetric(h) -> QuadraticProblem:
    eigenvalues, vectors = np.linalg.eigh(h)
    return QuadraticProblem(eigenvalues, reflector_form(vectors.T), np.zeros(len(h)))


def test_gershgorin_examples():
    assert gershgorin_upper(make_diagonal_problem([1, 100])) == 100.0

    p = _from_symmetric([[2.0, -1.0], [-1.0, 2.0]])
    # analytic eigenvalues 2 -+ 1; the bound is attained here
    assert gershgorin_upper(p) == pytest.approx(3.0, abs=1e-14)

    q = _from_symmetric([[4.0, 1.0], [1.0, 1.0]])
    lam_max = 0.5 * (5.0 + math.sqrt(25.0 - 4.0 * 3.0))  # quadratic formula
    assert gershgorin_upper(q) == pytest.approx(5.0, abs=1e-14)
    assert gershgorin_upper(q) >= lam_max


@pytest.mark.parametrize("eigenvalues", [[-1.0, 2.0], [2.0, -1e-3]])
@pytest.mark.parametrize("rotate", [False, True])
def test_direct_construction_refuses_a_spectrum_that_is_not_positive(eigenvalues, rotate):
    # nonsingular but indefinite; a zero eigenvalue is refused as singular
    rotation = random_orthogonal(2, 4) if rotate else None
    with pytest.raises(NotPositiveDefiniteError, match=r"^hessian is not positive definite$"):
        QuadraticProblem(eigenvalues, rotation, np.zeros(2))
    with pytest.raises(SingularMatrixError):
        QuadraticProblem([0.0, 2.0], rotation, np.zeros(2))


def test_gradient_at_minimizer_invariant():
    cases = [
        make_diagonal_problem([1, 100]),
        make_rotated_problem([1, 10, 100], seed=2, shift=[1.0, -2.0, 3.0]),
        make_rotated_problem(np.geomspace(0.5, 500.0, 8), seed=17, shift=np.arange(8.0)),
    ]
    for p in cases:
        dense = dense_arrays(p)
        lhs = np.linalg.norm(gradient(dense, p.x_star))
        assert lhs <= 1e-9 * (1.0 + np.linalg.norm(dense[1]))


def test_gershgorin_dominates_spectrum():
    rng = np.random.default_rng(0)
    for seed in range(5):
        eig = np.sort(rng.uniform(0.1, 50.0, size=6))
        p = make_rotated_problem(eig, seed=seed, shift=np.zeros(6))
        assert gershgorin_upper(p) >= eig[-1] - 1e-9
    # exact for diagonal problems
    assert gershgorin_upper(make_diagonal_problem(eig)) == pytest.approx(eig[-1])


def test_random_orthogonal_deterministic_and_orthogonal():
    r1, r2 = random_orthogonal(6, seed=123), random_orthogonal(6, seed=123)
    assert np.array_equal(r1.reflectors, r2.reflectors) and np.array_equal(r1.signs, r2.signs)
    q1 = rotation_matrix(r1)
    assert np.array_equal(q1, rotation_matrix(r2))
    assert np.abs(q1.T @ q1 - np.eye(6)).max() <= 1e-12
    assert not np.allclose(q1, rotation_matrix(random_orthogonal(6, seed=124)))


@pytest.mark.parametrize("n", [1, 2, 60, 400])
def test_random_orthogonal_matches_the_rank_one_reference(n):
    rotation = random_orthogonal(n, seed=n + 3)
    assert rotation.reflectors.shape == (n * (n + 1) // 2 - 1,)
    q = rotation_matrix(rotation)
    ref = reference_rotation(n, seed=n + 3)
    assert np.abs(q - ref).max() <= 1e-12
    # the same column signs, not merely the same columns up to sign
    assert np.all(np.sign(np.einsum("ij,ij->j", q, ref)) == 1.0)


def test_random_orthogonal_is_haar_at_n_3():
    # Haar Q: every entry has mean 0 and mean square 1/n, and det Q = +-1 both occur
    qs = np.array([rotation_matrix(random_orthogonal(3, seed)) for seed in range(2000)])
    assert np.abs(qs.mean(axis=0)).max() <= 0.05
    assert np.abs((qs**2).mean(axis=0) - 1.0 / 3.0).max() <= 0.05
    assert set(np.sign(np.linalg.det(qs))) == {-1.0, 1.0}


_ROTATION_HASH = """
import hashlib, numpy as np
from momlab.problems import make_rotated_problem, _to_eigenbasis
from momlab.seeding import ROTATION_STREAM, stream_seed
n = 402
p = make_rotated_problem(np.geomspace(1.0, 1e4, n), stream_seed(5, ROTATION_STREAM), np.zeros(n))
x = np.sin(np.arange(3.0 * n)).reshape(3, n)
digest = hashlib.sha256()
for a in (p.rotation.reflectors, p.rotation.signs, _to_eigenbasis(p, x[0]), _to_eigenbasis(p, x)):
    digest.update(a.tobytes())
print(digest.hexdigest())
"""


def test_rotation_bits_do_not_depend_on_the_blas_thread_count():
    # LAPACK QR at n = 402 changed its bits with OPENBLAS_NUM_THREADS=1
    src = str(Path(__file__).resolve().parent.parent / "src")
    digests = []
    for threads in ("1", None):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        out = subprocess.run(
            [sys.executable, "-c", _ROTATION_HASH], env=env, capture_output=True, text=True,
            check=True,
        )
        digests.append(out.stdout)
    assert digests[0] == digests[1] and len(digests[0].strip()) == 64


def test_rotated_run_matches_diagonal_run():
    # the iteration commutes with shift + rotation, so per-step distances agree
    spectrum = [1.0, 2.5, 10.0, 40.0, 100.0]
    shift = np.array([1.0, -1.0, 2.0, 0.5, -3.0])
    seed = 21
    rotated = make_rotated_problem(spectrum, seed=seed, shift=shift)
    diagonal = make_diagonal_problem(spectrum)
    q = rotation_matrix(random_orthogonal(5, seed))
    v = np.array([1.0, 1.0, -1.0, 0.5, 2.0])

    params = MethodParams(1.9 / 100.0, 0.85, MethodKind.HBM)
    t_rot = run(rotated, params, shift + q.T @ v, 150)
    t_diag = run(diagonal, params, v, 150)
    rel = np.abs(t_rot.distances - t_diag.distances) / (t_diag.distances + 1e-300)
    assert rel.max() <= 1e-8


def test_eigen_bounds():
    b = EigenBounds(1.0, 100.0)
    assert b.cond_bar == 100.0
    assert EigenBounds.from_spectrum(np.array([2.0, 8.0])).cond_bar == 4.0
    unsorted = EigenBounds.from_spectrum(np.array([8.0, 2.0, 5.0]))  # the min and the max
    assert (unsorted.lower, unsorted.upper) == (2.0, 8.0)
    with pytest.raises(InvalidSpectrumError):
        EigenBounds(0.0, 1.0)
    with pytest.raises(InvalidSpectrumError):
        EigenBounds(2.0, 1.0)


def test_eigen_bounds_refuse_a_ratio_that_overflows():
    with pytest.raises(InvalidSpectrumError, match=r"^upper/lower overflows float64 at lower=1e-320, upper=1.0$"):
        EigenBounds(1e-320, 1.0)
    with pytest.raises(InvalidSpectrumError, match="upper/lower overflows"):
        EigenBounds(np.float64(1e-300), np.float64(1e10))
    assert EigenBounds(1e-300, 1e8).cond_bar == 1e8 / 1e-300


def test_problem_arrays_are_read_only():
    p = make_diagonal_problem([1, 100])
    with pytest.raises(ValueError):
        p.x_star[0] = 1.0
    with pytest.raises(ValueError):
        p.eigenvalues[0] = 7.0
    shift = np.array([1.0, 2.0])
    rotated = make_rotated_problem([1, 100], seed=1, shift=shift)
    for a in (rotated.x_star, rotated.eigenvalues, rotated.rotation.reflectors,
              rotated.rotation.signs):
        with pytest.raises(ValueError):
            a[0] = 7.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        rotated.rotation.signs = np.ones(2)
    # the caller's shift stays writable: the problem keeps its own copy
    shift[0] = 5.0
    assert rotated.x_star[0] == 1.0


def test_problems_carry_their_eigendecomposition():
    # H = Q' diag(eigenvalues) Q for the builders' exact factors and for eigh's
    spectrum = [1.0, 3.0, 30.0, 100.0]
    diagonal = make_diagonal_problem(spectrum)
    assert diagonal.rotation is None
    assert np.array_equal(diagonal.eigenvalues, spectrum)
    rotated = make_rotated_problem(spectrum, seed=9, shift=np.zeros(4))
    seeded = random_orthogonal(4, 9)
    assert np.array_equal(rotated.rotation.reflectors, seeded.reflectors)
    assert np.array_equal(rotated.rotation.signs, seeded.signs)
    direct = _from_symmetric(dense_arrays(rotated)[0])
    for p in (rotated, direct):
        q = rotation_matrix(p.rotation)
        h, _ = dense_arrays(p)
        assert np.abs(q.T @ np.diag(p.eigenvalues) @ q - h).max() <= 1e-12 * 100.0
    assert np.allclose(direct.eigenvalues, spectrum, rtol=1e-12)


def test_a_problem_stores_only_its_eigendecomposition_and_minimizer():
    names = [f.name for f in dataclasses.fields(QuadraticProblem)]
    assert names == ["eigenvalues", "rotation", "x_star"]
    for p in (make_diagonal_problem([1, 100]), make_rotated_problem([1, 100], 3, [1.0, 2.0])):
        assert not hasattr(p, "hessian") and not hasattr(p, "linear_term")
        assert p.dimension == 2
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.hessian = np.eye(2)


@pytest.mark.parametrize("n", [1, 2, 60])
@pytest.mark.parametrize("build", ["diagonal", "diagonal-shifted", "rotated", "rotated-shifted"])
def test_hessian_and_linear_term_are_the_eager_formulas_bit_for_bit(n, build):
    spectrum = np.geomspace(1.0, 1e3, n)
    shift = 3.0 * np.sin(np.arange(1.0, n + 1.0)) if build.endswith("shifted") else np.zeros(n)
    if build == "diagonal":
        p = make_diagonal_problem(spectrum)
    elif build == "diagonal-shifted":
        p = QuadraticProblem(spectrum, None, shift)
    else:
        p = make_rotated_problem(spectrum, seed=n + 5, shift=shift)
    q = None if p.rotation is None else rotation_matrix(p.rotation)
    h, b = reference_problem_arrays(p.eigenvalues, q, shift)
    for got, want in zip(dense_arrays(p), (h, b)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_direct_construction_validates_its_three_arrays():
    q = random_orthogonal(3, 1)
    with pytest.raises(DimensionMismatchError, match="rotation has dimension 2, expected 3"):
        QuadraticProblem([1.0, 2.0, 3.0], random_orthogonal(2, 1), np.zeros(3))
    with pytest.raises(TypeError, match="rotation must be a Rotation or None, got ndarray"):
        QuadraticProblem([1.0, 2.0, 3.0], rotation_matrix(q), np.zeros(3))
    with pytest.raises(DimensionMismatchError, match="x_star has length 2"):
        QuadraticProblem([1.0, 2.0, 3.0], q, np.zeros(2))
    with pytest.raises(DimensionMismatchError, match="non-empty"):
        QuadraticProblem([], None, [])
    with pytest.raises(SingularMatrixError):
        QuadraticProblem([1.0, 1e13], None, np.zeros(2))
    # b = Q'(d * Q x*) overflows without forming H
    with pytest.raises(InvalidSpectrumError, match="must be finite"):
        QuadraticProblem(np.geomspace(1.0, 100.0, 3), random_orthogonal(3, 2), [1e308] * 3)
    with pytest.raises(InvalidSpectrumError, match="must be finite"):
        QuadraticProblem([1.0, np.inf], None, np.zeros(2))
    # the caller's arrays are copied, not frozen
    d, x, u = np.array([1.0, 2.0, 3.0]), np.ones(3), q.reflectors.copy()
    p = QuadraticProblem(d, Rotation(u, q.signs), x)
    d[0] = x[0] = u[0] = 7.0
    assert p.eigenvalues[0] == 1.0 and p.x_star[0] == 1.0 and p.rotation.reflectors[0] != 7.0


def test_a_rotation_validates_its_two_arrays():
    with pytest.raises(DimensionMismatchError, match="reflectors has length 4, expected 5"):
        Rotation(np.ones(4), np.ones(3))
    with pytest.raises(DimensionMismatchError, match="signs must be non-empty"):
        Rotation(np.empty(0), np.empty(0))
    for reflectors, signs in (([1.0, 1.0], [1.0, 0.5]), ([1.0, np.nan], [1.0, -1.0])):
        with pytest.raises(ValueError, match="finite reflectors and signs of"):
            Rotation(reflectors, signs)
    one = Rotation(np.empty(0), [-1.0])  # n = 1: no reflector, Q = [-1]
    assert one.apply(np.array([2.0])).tolist() == [-2.0]
