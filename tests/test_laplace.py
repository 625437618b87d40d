import math
import time

import numpy as np
import pytest
from scipy import integrate

from privroute.field import MERSENNE_61, MERSENNE_521, PrimeModulus
from privroute.laplace import (
    InverseCdfPoly,
    LaplaceParams,
    OverflowRisk,
    fit_inverse_cdf_poly,
    ks_distance,
    laplace_cdf,
    sample_laplace_vector,
    seed_sum_cdf,
    seed_sum_pmf,
)
from conftest import laplace_pdf

M61 = PrimeModulus(MERSENNE_61)


# -- density ------------------------------------------------------------------

def test_pdf_examples():
    assert laplace_pdf(0.0, LaplaceParams(2.0)) == 1.0
    for eps in (0.1, 0.5, 2.0):
        assert laplace_pdf(1.0 / eps, LaplaceParams(eps)) == pytest.approx(
            eps / 2 * math.exp(-1.0)
        )


def test_pdf_integrates_to_one():
    for eps in (0.1, 1.0, 3.0):
        params = LaplaceParams(eps)
        total, _ = integrate.quad(
            lambda z: laplace_pdf(z, params), -50 / eps, 50 / eps, points=[0.0]
        )
        assert total == pytest.approx(1.0, abs=1e-9)


def test_params_validation():
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            LaplaceParams(bad)


# -- Laplace quantile of a uniform seed -------------------------------------------

def test_inverse_cdf_pushforward_matches_density(np_rng):
    p = MERSENNE_61
    params = LaplaceParams(0.7)
    u = np_rng.integers(1, p, size=10**6)
    z = np.where(u <= p / 2, np.log(2 * u / p) / 0.7, -np.log(2 * (1 - u / p)) / 0.7)
    assert ks_distance(z, params) < 0.01


# -- exact sampler ---------------------------------------------------------------

def test_sampler_mean_absolute_value(np_rng):
    for eps in (0.1, 1.0):
        z = sample_laplace_vector(eps, np_rng, 10**6)
        assert np.abs(z).mean() == pytest.approx(1.0 / eps, rel=0.01)


def test_sampler_infinite_epsilon_is_zero_noise(np_rng):
    z = sample_laplace_vector(math.inf, np_rng, 1000)
    assert np.all(z == 0.0)


def test_sampler_dp_histogram_ratio(np_rng):
    # outputs for counts s and s+1 stay within e^eps on aggregated bins
    eps, n = 0.5, 10**6
    z1 = 10 + sample_laplace_vector(eps, np_rng, n)
    z2 = 11 + sample_laplace_vector(eps, np_rng, n)
    edges = np.quantile(np.concatenate([z1, z2]), np.linspace(0, 1, 21))
    edges[0], edges[-1] = -np.inf, np.inf
    h1, _ = np.histogram(z1, bins=edges)
    h2, _ = np.histogram(z2, bins=edges)
    ratios = h1 / h2
    assert np.all(ratios <= math.exp(eps) * 1.05)
    assert np.all(ratios >= math.exp(-eps) / 1.05)


# -- analytic privacy ratios ------------------------------------------------------

def test_pdf_ratio_adjacent_counts():
    eps = 0.2
    params = LaplaceParams(eps)
    z = np.linspace(-60, 60, 4001)
    for s in (0, 3, 17):
        r = np.array([laplace_pdf(v - s, params) / laplace_pdf(v - (s + 1), params) for v in z])
        assert np.all(r <= math.exp(eps) * (1 + 1e-12))
        assert np.all(r >= math.exp(-eps) / (1 + 1e-12))


def test_pdf_ratio_two_coordinate_relocation():
    # one user moving roads changes two counts by one each; the joint density
    # ratio is the product of two one-coordinate ratios
    eps = 0.2
    params = LaplaceParams(eps)
    grid = np.linspace(-40, 40, 401)
    s1, s2 = 5, 9
    worst = 0.0
    for v1 in grid[::10]:
        for v2 in grid[::10]:
            num = laplace_pdf(v1 - (s1 + 1), params) * laplace_pdf(v2 - (s2 - 1), params)
            den = laplace_pdf(v1 - s1, params) * laplace_pdf(v2 - s2, params)
            worst = max(worst, num / den)
    assert worst <= math.exp(2 * eps) * (1 + 1e-12)


def test_mechanism_mape_small():
    # E|S - s| / s = 1/(eps*s); smaller-sample version of the acceptance run
    rng = np.random.default_rng(7)
    for eps in (0.2, 1.0):
        for s in (10, 1000):
            z = sample_laplace_vector(eps, rng, 10**5)
            mape = np.abs(z).mean() / s
            assert mape == pytest.approx(1.0 / (eps * s), rel=0.05)


# -- seed-sum distribution --------------------------------------------------------

def test_seed_sum_cdf_single_party_uniform():
    M = 16
    w = np.arange(M)
    np.testing.assert_allclose(seed_sum_cdf(w, 1, M), (w + 0.5) / M)


@pytest.mark.parametrize("n, M", [(4, 8), (20, 16)])  # Irwin-Hall, normal (erf)
def test_seed_sum_pmf_matches_cdf(n, M):
    pmf = seed_sum_pmf(n, M)
    assert pmf.shape == (n * (M - 1) + 1,)
    assert pmf.sum() == pytest.approx(1.0)
    # midpoint CDF from the exact pmf vs the continuous approximation
    w = np.arange(len(pmf))
    exact_mid = np.cumsum(pmf) - pmf / 2
    approx = seed_sum_cdf(w, n, M)
    assert np.max(np.abs(exact_mid - approx)) < 0.02
    # a scalar gives a 0-d value and a 2-d array keeps its shape, same values
    assert np.ndim(seed_sum_cdf(w[5], n, M)) == 0
    assert seed_sum_cdf(w[5], n, M) == approx[5]
    grid = seed_sum_cdf(w[:6].reshape(2, 3), n, M)
    assert grid.shape == (2, 3)
    assert np.array_equal(grid.ravel(), approx[:6])


def _seed_sum_pmf_direct(n, M):
    """Reference: n - 1 direct convolutions of the uniform on {0..M-1}."""
    base = np.full(M, 1.0 / M)
    pmf = base
    for _ in range(n - 1):
        pmf = np.convolve(pmf, base)
    return pmf


@pytest.mark.parametrize("n", [1, 2, 3, 5, 7])
@pytest.mark.parametrize("M", [1, 2, 3, 16, 257, 1000])
def test_seed_sum_pmf_matches_direct_convolution(n, M):
    pmf = seed_sum_pmf(n, M)
    reference = _seed_sum_pmf_direct(n, M)
    assert pmf.shape == reference.shape
    assert np.max(np.abs(pmf - reference)) <= 1e-12
    assert pmf.min() >= 0.0


def test_seed_sum_pmf_at_full_size():
    # the 5.2M seed sums of 5 parties over 2^20 seed values, which the direct
    # convolutions cannot reach, in one transform
    started = time.process_time()
    pmf = seed_sum_pmf(5, 2**20)
    assert time.process_time() - started < 1.0
    assert pmf.shape == (5 * (2**20 - 1) + 1,)
    assert pmf.sum() == pytest.approx(1.0, abs=1e-9)
    assert pmf.min() >= 0.0
    assert np.max(np.abs(pmf - pmf[::-1])) <= 1e-12  # symmetric about n(M-1)/2


# -- polynomial fit ----------------------------------------------------------------

def test_fit_linear_is_odd_symmetric():
    # the real fit vanishes at mid; the decoded one only up to the rounding of
    # its two coefficients, each by at most 1/(2S)
    poly = fit_inverse_cdf_poly(LaplaceParams(1.0), 1, MERSENNE_521, seed_bits=16)
    mid = poly.seed_sum_max / 2
    assert abs(poly.evaluate_real(mid)) <= (1 + mid) / (2 * poly.scale)
    assert poly.field_coeffs[1] > 0


def _horner(poly, w: int) -> float:
    acc = 0
    for c in reversed(poly.field_coeffs):
        acc = acc * w + c
    return acc / poly.scale


@pytest.mark.parametrize("n_parties, d, seed_bits, eps", [
    (5, 15, 20, 0.2), (20, 7, 16, 0.1), (3, 7, 16, 0.1),
])
def test_fitted_poly_evaluates_its_field_coefficients(n_parties, d, seed_bits, eps):
    # evaluate_real, and so sample_noise and ks_distance, describe the integer
    # polynomial the round publishes, not the float fit it was rounded from
    poly = fit_inverse_cdf_poly(LaplaceParams(eps), d, MERSENNE_521, n_parties=n_parties,
                                seed_bits=seed_bits, ks_samples=1000)
    rng = np.random.default_rng(3)
    w = [0, poly.seed_sum_max, *rng.integers(0, poly.seed_sum_max + 1, 2000).tolist()]
    exact = np.array([_horner(poly, wi) for wi in w])
    np.testing.assert_allclose(poly.evaluate_real(np.array(w)), exact, rtol=0, atol=1e-9)
    # and one seed sum at a time
    assert poly.evaluate_real(w[1]) == pytest.approx(exact[1], rel=0, abs=1e-9)


def test_single_seed_value_evaluates_to_constant_term():
    # seed_range=1: every seed sum is 0, and the polynomial is its constant
    poly = InverseCdfPoly([-24, 5, 3], modulus=M61, n_parties=4, seed_range=1, scale_bits=3)
    assert poly.seed_sum_max == 0
    assert poly.evaluate_real(0) == -3.0
    assert np.all(poly.sample_noise(np.random.default_rng(0), 5) == -3.0)


def test_fit_degree15_ks_under_bound():
    poly = fit_inverse_cdf_poly(
        LaplaceParams(0.1), 15, MERSENNE_521, 1e-4, n_parties=1, seed_bits=20
    )
    assert poly.ks_distance < 0.05
    report = poly.fit_report()
    assert report["ks_distance"] == poly.ks_distance
    assert report["tail_mass"] == pytest.approx(2e-4)


def test_fit_error_non_increasing_in_degree():
    errs = [
        fit_inverse_cdf_poly(
            LaplaceParams(0.1), d, MERSENNE_521, seed_bits=16, ks_samples=1000
        ).max_abs_error
        for d in range(3, 16)
    ]
    assert all(b <= a + 1e-9 for a, b in zip(errs, errs[1:]))


@pytest.mark.parametrize("eps, d, n_parties, seed_bits, field_bits", [
    (0.1, 7, 20, 16, 255),  # round_sf: a 167-bit value bound
    (0.2, 15, 5, 20, 521),  # round_small: a 377-bit value bound
])
def test_fit_runs_in_the_smallest_field_that_holds_it(eps, d, n_parties, seed_bits, field_bits):
    poly = fit_inverse_cdf_poly(LaplaceParams(eps), d, MERSENNE_521, n_parties=n_parties,
                                seed_bits=seed_bits, ks_samples=1000)
    assert poly.modulus.p == {255: 2**255 - 19, 521: MERSENNE_521}[field_bits]
    assert poly.fit_report()["modulus_bits"] == field_bits
    assert 2 * poly.value_bound < poly.modulus.p


def test_fit_never_chooses_a_field_above_its_p():
    # a largest field below every member keeps the fit in it
    poly = fit_inverse_cdf_poly(LaplaceParams(0.1), 3, MERSENNE_61, seed_bits=8,
                                ks_samples=100)
    assert poly.modulus.p == MERSENNE_61
    # 2^255 - 19 is the largest: the 377-bit round_small bound cannot fit
    with pytest.raises(OverflowRisk):
        fit_inverse_cdf_poly(LaplaceParams(0.2), 15, 2**255 - 19, n_parties=5,
                             seed_bits=20, ks_samples=100)
    # a member passed as p, with no smaller member that holds the polynomial,
    # is the field itself
    small = fit_inverse_cdf_poly(LaplaceParams(0.1), 3, 2**255 - 19, seed_bits=8,
                                 ks_samples=100)
    assert small.modulus.p == 2**255 - 19


def test_fit_rejects_narrow_modulus():
    # degree 15 over a 2^20 seed range cannot be encoded inside 2^61 - 1
    with pytest.raises(OverflowRisk):
        fit_inverse_cdf_poly(LaplaceParams(0.1), 15, MERSENNE_61, seed_bits=20)


@pytest.mark.parametrize("n_parties", [0, -1])
def test_fit_rejects_fewer_than_one_party(n_parties):
    with pytest.raises(ValueError, match="at least 1 party"):
        fit_inverse_cdf_poly(LaplaceParams(0.1), 3, MERSENNE_521, n_parties=n_parties)


def test_fit_sampled_noise_matches_distribution(np_rng):
    params = LaplaceParams(0.2)
    poly = fit_inverse_cdf_poly(params, 15, MERSENNE_521, n_parties=5, seed_bits=20)
    z = poly.sample_noise(np_rng, 10**5)
    assert ks_distance(z, params) < poly.ks_distance + 0.01


def test_from_field_coeffs_identity():
    mod = PrimeModulus(101)
    poly = InverseCdfPoly(
        [0, 1], modulus=mod, n_parties=3, seed_range=4
    )
    assert poly.evaluate_real(7) == 7.0
    assert poly.field_coeffs == (0, 1)


@pytest.mark.parametrize(
    "bad, message",
    [
        (dict(seed_range=0), "seed_range"),
        (dict(seed_range=-4), "seed_range"),
        (dict(n_parties=0), "n_parties"),
        (dict(n_parties=-2), "n_parties"),
        (dict(scale_bits=-1), "scale_bits"),
        (dict(field_coeffs=[], scale_bits=1), "constant term"),
        (dict(field_coeffs=[], scale_bits=4), "constant term"),
    ],
)
def test_poly_rejects_shapes_no_round_can_run(bad, message):
    # seed_range=-4 once built a polynomial with value_bound -12 that failed
    # partway through a round; scale_bits=-1 failed on a negative shift; no
    # coefficients built a degree -1 polynomial, which failed on a negative
    # shift below scale_bits 2 and otherwise raised IndexError in
    # evaluate_real and in run_round after every party had drawn
    kwargs = dict(field_coeffs=[0, 1], modulus=PrimeModulus(MERSENNE_521), n_parties=3,
                  seed_range=4)
    with pytest.raises(ValueError, match=message):
        InverseCdfPoly(**{**kwargs, **bad})


def test_from_field_coeffs_overflow_check():
    with pytest.raises(OverflowRisk):
        InverseCdfPoly(
            [0, 1], modulus=PrimeModulus(7), n_parties=3, seed_range=4
        )


def test_laplace_cdf_matches_pdf_integral():
    params = LaplaceParams(0.8)
    for z in (-3.0, -0.5, 0.0, 1.2, 6.0):
        total, _ = integrate.quad(lambda v: laplace_pdf(v, params), -200, z, points=[0.0])
        assert laplace_cdf(z, params) == pytest.approx(total, abs=1e-8)
