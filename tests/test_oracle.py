import numpy as np
import pytest

import momlab.oracle
from momlab.errors import DimensionMismatchError
from momlab.methods import MethodKind, MethodParams
from momlab.oracle import (
    dense_arrays,
    dense_run,
    eig_2x2,
    full_system_step_equivalence,
    init_state,
    power_by_multiplication,
    step,
    system_matrix,
)
from momlab.problems import make_diagonal_problem, make_rotated_problem
from momlab.spectral import analyze_hbm, block_power, hbm_block, spectral_norm_2x2


def test_power_by_multiplication_basics():
    assert np.array_equal(power_by_multiplication(np.eye(3), 7), np.eye(3))
    nilpotent = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert np.array_equal(power_by_multiplication(nilpotent, 2), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        power_by_multiplication(np.eye(2), -1)


def test_power_by_multiplication_vs_closed_form():
    spec = analyze_hbm(0.019, 0.85)
    brute = power_by_multiplication(spec.block(), 40)
    assert np.allclose(block_power(spec, 40), brute, rtol=1e-9, atol=1e-12)


def test_eig_2x2_on_blocks_matches_analysis(coarse_grid):
    for alpha_i, beta in coarse_grid:
        spec = analyze_hbm(alpha_i, beta)
        lp, lm = eig_2x2(hbm_block(alpha_i, beta))
        got = sorted([lp, lm], key=lambda z: (z.real, z.imag))
        expect = sorted([spec.lambda_plus, spec.lambda_minus], key=lambda z: (z.real, z.imag))
        assert abs(got[0] - expect[0]) <= 1e-10
        assert abs(got[1] - expect[1]) <= 1e-10


def test_eig_2x2_known_spectra():
    lp, lm = eig_2x2(np.diag([2.0, 5.0]))
    assert sorted([lp.real, lm.real]) == [2.0, 5.0]
    lp, lm = eig_2x2(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert lp == 1j and lm == -1j


def test_eig_2x2_satisfies_characteristic_polynomial():
    rng = np.random.default_rng(5)
    for _ in range(100):
        m = rng.standard_normal((2, 2))
        tr = m[0, 0] + m[1, 1]
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        for lam in eig_2x2(m):
            assert abs(lam * lam - tr * lam + det) <= 1e-12 * max(1.0, abs(det), abs(tr) ** 2)


def test_system_matrix_structure():
    p = make_diagonal_problem([1, 100])
    params = MethodParams(0.019, 0.85, MethodKind.HBM)
    m_hat = system_matrix(p, params)
    assert m_hat.shape == (4, 4)
    assert np.array_equal(m_hat[:2, :2], np.zeros((2, 2)))
    assert np.array_equal(m_hat[:2, 2:], np.eye(2))
    assert np.array_equal(m_hat[2:, :2], -0.85 * np.eye(2))
    assert np.array_equal(
        m_hat[2:, 2:], np.diag([1.85 - 0.019 * 1.0, 1.85 - 0.019 * 100.0])
    )


def test_system_matrix_single_block():
    # n = 1: the full matrix is exactly the 2x2 block
    p = make_diagonal_problem([3.0])
    params = MethodParams(0.1, 0.4, MethodKind.HBM)
    assert np.array_equal(system_matrix(p, params), hbm_block(0.3, 0.4))


def test_system_matrix_requires_diagonal():
    p = make_rotated_problem([1, 100], seed=1, shift=[0.0, 0.0])
    with pytest.raises(ValueError):
        system_matrix(p, MethodParams(0.01, 0.5, MethodKind.HBM))


def test_full_system_equivalence_hbm():
    p = make_diagonal_problem([1, 100])
    params = MethodParams(1.9 / 100.0, 0.85, MethodKind.HBM)
    result = full_system_step_equivalence(p, params, [1.0, 1.0], 50)
    assert result.ok
    assert result.max_deviation <= 1e-12


def test_full_system_equivalence_nag_forms():
    p = make_diagonal_problem([1, 100])
    for kind in (MethodKind.NAG_TWO_SEQUENCE, MethodKind.NAG_COMPACT):
        params = MethodParams(0.01, 0.81 / 0.99, kind)
        assert full_system_step_equivalence(p, params, [1.0, -2.0], 50).ok


def test_full_system_equivalence_beta_zero_is_gradient_descent():
    p = make_diagonal_problem([2.0, 5.0])
    params = MethodParams(0.1, 0.0, MethodKind.HBM)
    assert full_system_step_equivalence(p, params, [1.0, 1.0], 30).ok
    # cross-check against a hand-rolled descent recursion
    m_hat = system_matrix(p, params)
    z = np.array([1.0, 1.0, 1.0, 1.0])
    x = np.array([1.0, 1.0])
    h, _ = dense_arrays(p)
    for _ in range(30):
        z = m_hat @ z
        x = x - 0.1 * (h @ x)
    assert np.allclose(z[2:], x, rtol=1e-12, atol=1e-14)


def test_spectral_norm_agrees_with_power_iteration():
    rng = np.random.default_rng(11)
    for _ in range(20):
        m = rng.standard_normal((2, 2))
        gram = m.T @ m
        g_80 = power_by_multiplication(gram, 80)
        g_81 = power_by_multiplication(gram, 81)
        lam = np.trace(g_81) / np.trace(g_80)
        assert spectral_norm_2x2(m) == pytest.approx(np.sqrt(lam), rel=1e-8)


FIG1_PARAMS = MethodParams(1.9 / 100.0, 0.85, MethodKind.HBM)


def test_step_rejects_state_from_other_kind():
    p = make_diagonal_problem([1, 100])
    hbm_state = init_state(p, FIG1_PARAMS, [1.0, 1.0])
    with pytest.raises(ValueError, match="init_state"):
        step(p, MethodParams(0.019, 0.85, MethodKind.MM), hbm_state)

    bad_dim = init_state(make_diagonal_problem([1, 2, 3]), FIG1_PARAMS, [1.0, 1.0, 1.0])
    with pytest.raises(DimensionMismatchError):
        step(p, FIG1_PARAMS, bad_dim)


def test_hbm_beta_zero_step_is_steepest_descent():
    p = make_diagonal_problem([1, 100])
    params = MethodParams(0.007, 0.0, MethodKind.HBM)
    s = step(p, params, init_state(p, params, [1.0, 1.0]))
    expected = np.array([1.0, 1.0]) - 0.007 * np.array([1.0, 100.0])
    assert np.array_equal(s.x_curr, expected)


@pytest.mark.parametrize("kind", list(MethodKind), ids=lambda kind: kind.value)
def test_dense_run_forms_the_dense_arrays_once(monkeypatch, kind):
    formed = []

    def counting(problem):
        formed.append(problem)
        return dense_arrays(problem)

    monkeypatch.setattr(momlab.oracle, "dense_arrays", counting)
    p = make_rotated_problem([1.0, 10.0, 100.0], seed=3, shift=[1.0, -1.0, 0.5])
    traj = dense_run(p, MethodParams(0.01, 0.5, kind), [0.0, 0.0, 0.0], 300)
    assert traj.iterates.shape == (301, 3)
    assert formed == [p]
