import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momlab.errors import DomainError, InternalConsistencyError
from momlab.methods import theorem1_params, theorem2_params
from momlab.problems import EigenBounds
from momlab.spectral import (
    COMPLEX_PAIR,
    DOUBLE_ROOT,
    REAL_PAIR,
    analyze_hbm,
    analyze_nag,
    block_power,
    double_root_beta,
    eigvec_condition,
    gershgorin_norm_bound,
    hbm_block,
    nag_block,
    power_norm_bound,
    r_power,
    schur_factors,
    spectral_norm_2x2,
)

from conftest import batched_sigma_max


def _analyses(grid):
    return [analyze_hbm(a, b) for a, b in grid]


# ---------------------------------------------------------------------------
# block constructors


def test_hbm_block_examples():
    assert np.array_equal(hbm_block(1.0, 0.0), [[0.0, 1.0], [0.0, 0.0]])
    assert hbm_block(0.019, 0.85) == pytest.approx(
        np.array([[0.0, 1.0], [-0.85, 1.831]]), abs=1e-15
    )
    assert np.array_equal(hbm_block(2.0, 0.5), [[0.0, 1.0], [-0.5, -0.5]])


def test_hbm_block_domain():
    with pytest.raises(DomainError):
        hbm_block(2.3, 0.5)
    with pytest.raises(DomainError):
        hbm_block(0.0, 0.5)
    with pytest.raises(DomainError):
        hbm_block(1.0, 1.0)
    with pytest.warns(UserWarning):
        m = hbm_block(2.3, 0.5, strict=False)
    assert m[1, 1] == pytest.approx(1.5 - 2.3)


def test_nag_block_examples():
    for beta in (0.0, 0.3, 0.9):
        assert np.array_equal(nag_block(1.0, beta), [[0.0, 1.0], [0.0, 0.0]])
    assert nag_block(0.01, 0.818182) == pytest.approx(
        np.array([[0.0, 1.0], [-0.81000018, 1.80000018]]), abs=1e-6
    )
    assert np.array_equal(nag_block(0.5, 0.0), [[0.0, 1.0], [0.0, 0.5]])
    with pytest.raises(DomainError):
        nag_block(-0.1, 0.5)


def test_blocks_are_the_analysis_blocks(fine_grid):
    # each block formula lives in analyze_*; the constructors return its block
    for a, b in fine_grid:
        hbm = np.array([[0.0, 1.0], [-b, 1.0 + b - a]])
        nag = np.array([[0.0, 1.0], [-b * (1.0 - a), (1.0 + b) * (1.0 - a)]])
        assert np.array_equal(hbm_block(a, b), analyze_hbm(a, b).block())
        assert np.array_equal(hbm_block(a, b), hbm)
        assert np.array_equal(nag_block(a, b), analyze_nag(a, b).block())
        assert np.array_equal(nag_block(a, b), nag)


@pytest.mark.parametrize("cond", [28.0, 1e2, 1e3, 1e4, 1e6])
def test_nag_block_is_hbm_block_at_twice_the_condition(cond):
    # the accelerated rule at c and the heavy-ball rule at 2c give the same
    # block at the smallest eigenvalue (theorem 2 is theorem 1 at 2c)
    nag = theorem2_params(EigenBounds(1.0, cond))
    hbm = theorem1_params(EigenBounds(1.0, 2.0 * cond))
    np.testing.assert_array_max_ulp(
        nag_block(nag.alpha, nag.beta), hbm_block(hbm.alpha, hbm.beta), maxulp=1
    )


# ---------------------------------------------------------------------------
# eigenvalue analysis


def test_analyze_hbm_complex_regime():
    spec = analyze_hbm(0.019, 0.85)
    assert spec.beta_i == pytest.approx(1.831)
    assert spec.beta_i**2 < 4.0 * 0.85
    assert spec.regime == COMPLEX_PAIR
    assert spec.rho == pytest.approx(math.sqrt(0.85), abs=1e-15)
    # cross-check |lambda| against a numeric eigensolver
    lams = np.linalg.eigvals(hbm_block(0.019, 0.85))
    assert np.abs(lams) == pytest.approx([spec.rho, spec.rho], abs=1e-12)


def test_analyze_hbm_beta_zero_is_triangular():
    for alpha_i in (0.3, 1.0, 1.7):
        spec = analyze_hbm(alpha_i, 0.0)
        lams = sorted((spec.lambda_plus, spec.lambda_minus), key=lambda z: z.real)
        expect = sorted((0.0, 1.0 - alpha_i))
        assert lams[0] == pytest.approx(expect[0], abs=1e-15)
        assert lams[1] == pytest.approx(expect[1], abs=1e-15)
        assert spec.rho == pytest.approx(abs(1.0 - alpha_i), abs=1e-15)


def test_analyze_hbm_double_root():
    alpha_i = 0.02
    spec = analyze_hbm(alpha_i, double_root_beta(alpha_i))
    assert spec.regime == DOUBLE_ROOT
    assert spec.gamma == 0
    assert spec.rho == pytest.approx(1.0 - math.sqrt(alpha_i), abs=1e-14)


def test_analyze_nag_examples():
    assert analyze_nag(1.0, 0.7).rho == 0.0

    beta = 0.81 / 0.99
    spec = analyze_nag(0.01, beta)
    assert spec.rho == pytest.approx(0.9, abs=1e-15)  # = 1 - 1/sqrt(100)

    spec0 = analyze_nag(0.5, 0.0)
    assert spec0.rho == pytest.approx(0.5, abs=1e-15)


def test_eigenvector_relation_on_grid(fine_grid):
    # block @ (1, lambda) == lambda * (1, lambda) for both eigenvalues
    for alpha_i, beta in fine_grid:
        spec = analyze_hbm(alpha_i, beta)
        m = spec.block().astype(complex)
        for lam in (spec.lambda_plus, spec.lambda_minus):
            v = np.array([1.0, lam])
            assert np.abs(m @ v - lam * v).max() <= 1e-10


def test_rho_equals_max_eigenvalue_magnitude(fine_grid):
    from momlab.oracle import eig_2x2

    for alpha_i, beta in fine_grid:
        spec = analyze_hbm(alpha_i, beta)
        assert spec.rho == pytest.approx(
            max(abs(spec.lambda_plus), abs(spec.lambda_minus)), abs=1e-12
        )
        oracle_rho = max(abs(lam) for lam in eig_2x2(spec.block()))
        assert spec.rho == pytest.approx(oracle_rho, abs=1e-10)
        disc = spec.beta_i**2 - 4.0 * spec.product
        if abs(disc) > 1e-6:
            # LAPACK's iterative eigensolver loses ~sqrt(eps) accuracy at
            # defective matrices, so only well-separated points are compared
            numeric = np.abs(np.linalg.eigvals(spec.block())).max()
            assert spec.rho == pytest.approx(numeric, abs=1e-10)


def test_complex_regime_magnitude_is_sqrt_beta(fine_grid):
    seen = 0
    for alpha_i, beta in fine_grid:
        spec = analyze_hbm(alpha_i, beta)
        if spec.beta_i**2 < 4.0 * beta - 1e-12:
            seen += 1
            assert abs(spec.lambda_plus) ** 2 == pytest.approx(beta, abs=1e-12)
            assert abs(spec.lambda_minus) ** 2 == pytest.approx(beta, abs=1e-12)
    assert seen > 100


def test_flat_rho_and_overlong_step():
    for beta in (0.5, 0.9):
        left = (1.0 - math.sqrt(beta)) ** 2
        right = min(2.0, (1.0 + math.sqrt(beta)) ** 2)
        for alpha_i in np.linspace(left + 1e-6, right, 50):
            assert analyze_hbm(alpha_i, beta).rho == pytest.approx(
                math.sqrt(beta), abs=1e-12
            )
    # a slightly "too long" step still contracts for large beta
    with pytest.warns(UserWarning, match="outside"):
        overlong = analyze_hbm(2.05, 0.9, strict=False)
    assert overlong.rho < 1.0


def _rho_of(family, alpha_i, beta):
    if family == "nag":
        return analyze_nag(alpha_i, beta).rho
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # past alpha_i = 2 on purpose
        return analyze_hbm(alpha_i, beta, strict=False).rho


@settings(deadline=None, max_examples=150)
@given(
    family=st.sampled_from(["hbm", "nag"]),
    beta=st.floats(0.0, 0.99),
    ends=st.tuples(st.floats(1e-4, 4.5), st.floats(1e-4, 4.5)),
)
def test_block_rho_peaks_at_an_end_of_the_alpha_interval(family, beta, ends):
    # `momlab run` predicts max_i rho(block_i) from alpha*lower and alpha*upper only
    lo, hi = sorted(ends)
    dense = max(_rho_of(family, a, beta) for a in np.linspace(lo, hi, 401))
    at_ends = max(_rho_of(family, lo, beta), _rho_of(family, hi, beta))
    assert dense <= at_ends * (1.0 + 1e-12)


def test_beta_tradeoff_at_small_alpha():
    rho_09 = analyze_hbm(0.004, 0.9).rho
    rho_05 = analyze_hbm(0.004, 0.5).rho
    rho_01 = analyze_hbm(0.004, 0.1).rho
    assert rho_09 < rho_05 < rho_01


# ---------------------------------------------------------------------------
# eigenvector conditioning


def test_eigvec_condition_infinite_at_double_root():
    spec = analyze_hbm(0.25, double_root_beta(0.25))
    assert eigvec_condition(spec) == math.inf


def test_eigvec_condition_real_case_vs_svd():
    spec = analyze_hbm(0.5, 0.0)
    s = np.array([[1.0, 1.0], [spec.lambda_plus.real, spec.lambda_minus.real]])
    expected = np.linalg.cond(s, 2)
    assert eigvec_condition(spec) == pytest.approx(expected, abs=1e-10)


def test_eigvec_condition_complex_case_vs_svd():
    spec = analyze_hbm(0.019, 0.85)
    s = np.array([[1.0, 1.0], [spec.lambda_plus, spec.lambda_minus]], dtype=complex)
    sv = np.linalg.svd(s, compute_uv=False)
    assert eigvec_condition(spec) == pytest.approx(sv[0] / sv[1], abs=1e-10)


def test_eigvec_condition_vs_svd_on_grid(coarse_grid):
    for alpha_i, beta in coarse_grid:
        spec = analyze_hbm(alpha_i, beta)
        cond = eigvec_condition(spec)
        if spec.regime == DOUBLE_ROOT:
            assert cond == math.inf
            continue
        s = np.array([[1.0, 1.0], [spec.lambda_plus, spec.lambda_minus]], dtype=complex)
        sv = np.linalg.svd(s, compute_uv=False)
        assert cond == pytest.approx(sv[0] / sv[1], rel=1e-9)


# ---------------------------------------------------------------------------
# Schur factors and powers


def test_schur_factors_jordan_at_double_root():
    spec = analyze_hbm(0.09, double_root_beta(0.09))
    f = schur_factors(spec)
    lam = spec.lambda_plus
    assert np.array_equal(f.R, np.array([[lam, 1.0], [0.0, lam]], dtype=complex))
    assert np.abs(f.reconstruct() - spec.block()).max() <= 1e-12


def test_schur_factors_simple_case():
    spec = analyze_hbm(0.5, 0.0)
    f = schur_factors(spec)
    assert f.T[1, 0] == pytest.approx(0.5)
    assert np.abs(f.reconstruct() - spec.block()).max() == 0.0


def test_schur_reconstruction_and_cond_on_grid(fine_grid):
    worst = 0.0
    for alpha_i, beta in fine_grid:
        spec = analyze_hbm(alpha_i, beta)
        f = schur_factors(spec)
        assert np.abs(f.reconstruct() - spec.block()).max() <= 1e-12
        cond_t = spectral_norm_2x2(f.T) * spectral_norm_2x2(f.t_inverse())
        worst = max(worst, cond_t)
    assert worst <= 3.0


def test_r_power_small_cases():
    spec = analyze_hbm(0.3, 0.6)
    assert np.array_equal(r_power(spec, 0), np.eye(2, dtype=complex))
    assert np.array_equal(r_power(spec, 1), schur_factors(spec).R)


def _loop_powers(lam, count):
    out = np.empty(count, dtype=complex)
    out[0] = 1.0
    for i in range(1, count):
        out[i] = out[i - 1] * lam
    return out


def test_cross_sums_match_the_loop_reference(coarse_grid):
    # the power tables are cumulative products; the loop gives the same bits
    for a, b in coarse_grid:
        for spec in (analyze_hbm(a, b), analyze_nag(a, b)):
            lp, lm = spec.lambda_plus, spec.lambda_minus
            for k in (1, 2, 7, 100):
                cross = np.sum(_loop_powers(lp, k) * _loop_powers(lm, k)[::-1])
                assert r_power(spec, k)[0, 1] == cross


@pytest.mark.parametrize("alpha_i,beta", [(0.019, 0.85), (0.5, 0.2), (1.0, 0.0),
                                          (0.09, double_root_beta(0.09))])
def test_r_power_matches_brute_force(alpha_i, beta):
    spec = analyze_hbm(alpha_i, beta)
    r = schur_factors(spec).R
    brute = np.eye(2, dtype=complex)
    for _ in range(25):
        brute = brute @ r
    assert np.allclose(r_power(spec, 25), brute, rtol=1e-10, atol=1e-14)


def test_r_power_norm_bound_on_grid(coarse_grid):
    for alpha_i, beta in coarse_grid:
        spec = analyze_hbm(alpha_i, beta)
        for k in (1, 3, 10, 40):
            norm = spectral_norm_2x2(r_power(spec, k))
            mid = spec.rho ** (k - 1) * math.sqrt(spec.rho**2 + k * spec.rho + k * k)
            assert norm <= mid * (1.0 + 1e-12)
            assert mid <= spec.rho ** (k - 1) * (k + 1) * (1.0 + 1e-12)


def test_block_power_k1_recovers_block():
    spec = analyze_hbm(0.7, 0.4)
    assert block_power(spec, 1) == pytest.approx(spec.block(), abs=1e-14)


def test_block_power_matches_brute_force():
    for alpha_i, beta in [(0.019, 0.85), (1.3, 0.05), (0.09, double_root_beta(0.09))]:
        spec = analyze_hbm(alpha_i, beta)
        brute = np.eye(2)
        for _ in range(30):
            brute = brute @ spec.block()
        assert np.allclose(block_power(spec, 30), brute, rtol=1e-9, atol=1e-12)


def test_block_power_double_root_off_diagonal():
    # with a double eigenvalue the k-term cross sum collapses to k * lam^{k-1}
    spec = analyze_hbm(0.36, double_root_beta(0.36))
    lam = spec.lambda_plus.real
    for k in (2, 7, 19):
        assert block_power(spec, k)[0, 1] == pytest.approx(k * lam ** (k - 1), rel=1e-12)


def test_block_power_rejects_bad_k():
    spec = analyze_hbm(0.3, 0.6)
    with pytest.raises(ValueError):
        block_power(spec, 0)


def test_power_norm_bound_formula():
    spec = analyze_hbm(0.019, 0.81)  # rho = 0.9
    assert spec.rho == pytest.approx(0.9, abs=1e-15)
    assert power_norm_bound(spec, 1) == pytest.approx(4.0, abs=1e-15)
    assert power_norm_bound(spec, 10) == pytest.approx(2.0 * 0.9**9 * 11, abs=1e-15)


def test_power_norm_bound_dominates_exact_norms(coarse_grid):
    ks = np.arange(1, 61)
    blocks = np.stack([analyze_hbm(a, b).block() for a, b in coarse_grid])
    rhos = np.array([analyze_hbm(a, b).rho for a, b in coarse_grid])
    power = np.broadcast_to(np.eye(2), blocks.shape).copy()
    for k in ks:
        power = power @ blocks
        norms = batched_sigma_max(power)
        bounds = 2.0 * rhos ** (k - 1) * (k + 1)
        assert (norms <= bounds).all()


def test_double_root_tightness_lower_bound():
    for alpha_i in (0.04, 0.25, 0.64, 1.44):
        spec = analyze_hbm(alpha_i, double_root_beta(alpha_i))
        power = np.eye(2)
        for k in range(1, 41):
            power = power @ spec.block()
            if k >= 2:
                assert spectral_norm_2x2(power) >= 2.0 * spec.rho ** (k + 1) * (k - 1)


# ---------------------------------------------------------------------------
# norm helpers


def test_spectral_norm_examples():
    assert spectral_norm_2x2(np.eye(2)) == 1.0
    assert spectral_norm_2x2(np.diag([3.0, -7.0])) == pytest.approx(7.0)
    m = np.array([[0.9, 1.0], [0.0, 0.8]])
    exact = spectral_norm_2x2(m)
    assert exact == pytest.approx(np.linalg.norm(m, 2), abs=1e-12)
    assert exact <= math.sqrt(0.81 + 0.9 + 1.0)


def test_spectral_norm_matches_numpy_on_random_complex():
    rng = np.random.default_rng(3)
    for _ in range(50):
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        assert spectral_norm_2x2(m) == pytest.approx(np.linalg.norm(m, 2), rel=1e-12)


def test_spectral_norm_takes_a_stack():
    rng = np.random.default_rng(5)
    stack = rng.standard_normal((3, 4, 2, 2)) + 1j * rng.standard_normal((3, 4, 2, 2))
    stack[0, 0] = 0.0
    stack[0, 1] = 1e-310  # denormal entries: the pre-scaling keeps them exact
    stack[1, 0, 0, 1] = np.inf
    stack[1, 1, 1, 0] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        norms = spectral_norm_2x2(stack)
    assert norms.shape == (3, 4)
    for index in np.ndindex(3, 4):
        single = spectral_norm_2x2(stack[index])
        assert isinstance(single, float)
        assert norms[index] == pytest.approx(single, rel=1e-15, nan_ok=True)
    assert norms[0, 0] == 0.0 and norms[1, 0] == np.inf and np.isnan(norms[1, 1])
    assert norms[0, 1] == pytest.approx(2e-310, rel=1e-12)
    finite = np.isfinite(norms) & (norms > 1e-300)
    assert np.allclose(norms[finite], batched_sigma_max(stack)[finite], rtol=1e-12, atol=0.0)
    with pytest.raises(ValueError):
        spectral_norm_2x2(np.ones((2, 3)))
    with pytest.raises(ValueError):
        spectral_norm_2x2(np.ones(2))


def test_gershgorin_norm_bound_triangular():
    m = np.array([[0.9, 1.0], [0.0, 0.8]])
    bound = gershgorin_norm_bound(m)
    assert bound == pytest.approx(math.sqrt(0.81 + 0.9 + 1.0), abs=1e-14)
    assert spectral_norm_2x2(m) <= bound
    # lower triangular goes through the adjoint
    lower = np.array([[1.0, 0.0], [0.5, 1.0]])
    assert gershgorin_norm_bound(lower) == pytest.approx(math.sqrt(1.0 + 0.5 + 0.25))
    with pytest.raises(ValueError):
        gershgorin_norm_bound(np.ones((2, 2)))


def test_nag_generalized_formulas():
    # the conditioning/Schur/power machinery is determinant-generic, so it
    # covers the accelerated block (determinant beta*(1-alpha_i)) as well
    for alpha_i in (0.05, 0.5, 0.99, 1.5):  # includes a negative determinant
        for beta in (0.1, 0.6, 0.9):
            spec = analyze_nag(alpha_i, beta)
            s = np.array([[1.0, 1.0], [spec.lambda_plus, spec.lambda_minus]])
            sv = np.linalg.svd(s, compute_uv=False)
            assert eigvec_condition(spec) == pytest.approx(sv[0] / sv[1], rel=1e-10)
            assert np.abs(schur_factors(spec).reconstruct() - spec.block()).max() <= 1e-12
            brute = np.eye(2)
            for _ in range(40):
                brute = brute @ spec.block()
            assert np.allclose(block_power(spec, 40), brute, rtol=1e-9, atol=1e-14)


def test_nag_analysis_matches_numeric_eigensolver():
    for alpha_i in (0.01, 0.3, 0.7, 1.0, 1.5):
        for beta in (0.0, 0.4, 0.9):
            spec = analyze_nag(alpha_i, beta)
            numeric = np.abs(np.linalg.eigvals(nag_block(alpha_i, beta))).max()
            assert spec.rho == pytest.approx(numeric, abs=1e-10)


def test_parameter_grid_spans_regimes(coarse_grid):
    regimes = {analyze_hbm(a, b).regime for a, b in coarse_grid}
    assert regimes == {COMPLEX_PAIR, REAL_PAIR, DOUBLE_ROOT}
    assert len(coarse_grid) >= 200


def test_block_power_internal_consistency_guard():
    # feed a spectrum whose eigenvalues do not belong to a real block
    from momlab.spectral import BlockSpectrum

    fake = BlockSpectrum(
        alpha_i=0.1,
        beta=0.5,
        beta_i=1.4,
        product=0.5,
        gamma=complex(0.3, 0.4),
        lambda_plus=complex(0.85, 0.2),
        lambda_minus=complex(0.55, -0.2),
        rho=0.9,
        regime=REAL_PAIR,
    )
    with pytest.raises(InternalConsistencyError):
        block_power(fake, 9)
