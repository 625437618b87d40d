import math

import numpy as np
import pytest
from scipy import integrate

from privroute.field import MERSENNE_61, MERSENNE_521, PrimeModulus
from privroute.laplace import (
    DomainError,
    InverseCdfPoly,
    LaplaceParams,
    OverflowRisk,
    fit_inverse_cdf_poly,
    inverse_cdf_exact,
    ks_distance,
    laplace_cdf,
    laplace_pdf,
    sample_laplace_exact,
    sample_laplace_vector,
    seed_sum_cdf,
    seed_sum_pmf,
)
from conftest import ConstantRandom

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


# -- exact inverse CDF ----------------------------------------------------------

def test_inverse_cdf_median_is_zero():
    assert inverse_cdf_exact(50, LaplaceParams(1.0), 100) == 0.0
    assert inverse_cdf_exact(MERSENNE_61 / 2, LaplaceParams(0.3), MERSENNE_61) == 0.0


def test_inverse_cdf_known_point():
    p = 1000
    u = p / (2 * math.e)
    assert inverse_cdf_exact(u, LaplaceParams(1.0), p) == pytest.approx(-1.0, abs=1e-12)


def test_inverse_cdf_domain_errors():
    params = LaplaceParams(1.0)
    for u in (0, 100, -3, 101):
        with pytest.raises(DomainError):
            inverse_cdf_exact(u, params, 100)


def test_inverse_cdf_antisymmetric_and_monotone():
    p = 2**20  # float-exact scale so u and p - u are both representable
    params = LaplaceParams(0.5)
    us = np.arange(1, p)
    vals = np.log(np.where(us <= p / 2, 2 * us / p, 1.0)) / 0.5 - np.log(
        np.where(us > p / 2, 2 * (1 - us / p), 1.0)
    ) / 0.5
    sampled = np.array([inverse_cdf_exact(int(u), params, p) for u in us[::1000]])
    assert np.all(np.diff(sampled) >= 0)
    np.testing.assert_allclose(sampled, vals[::1000], rtol=1e-12)
    for u in range(1, 5000, 97):
        assert inverse_cdf_exact(p - u, params, p) == pytest.approx(
            -inverse_cdf_exact(u, params, p), rel=1e-12, abs=1e-12
        )


def test_inverse_cdf_pushforward_matches_density(np_rng):
    p = MERSENNE_61
    params = LaplaceParams(0.7)
    u = np_rng.integers(1, p, size=10**6)
    z = np.where(u <= p / 2, np.log(2 * u / p) / 0.7, -np.log(2 * (1 - u / p)) / 0.7)
    assert ks_distance(z, params) < 0.01


# -- exact sampler ---------------------------------------------------------------

def test_sampler_median_gives_zero():
    assert sample_laplace_exact(LaplaceParams(0.4), ConstantRandom(0.5)) == 0.0


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


def test_seed_sum_pmf_matches_cdf():
    n, M = 4, 8
    pmf = seed_sum_pmf(n, M)
    assert pmf.shape == (n * (M - 1) + 1,)
    assert pmf.sum() == pytest.approx(1.0)
    # midpoint CDF from the exact pmf vs the continuous approximation
    w = np.arange(len(pmf))
    exact_mid = np.cumsum(pmf) - pmf / 2
    approx = seed_sum_cdf(w, n, M)
    assert np.max(np.abs(exact_mid - approx)) < 0.02


# -- polynomial fit ----------------------------------------------------------------

def test_fit_linear_is_odd_symmetric():
    poly = fit_inverse_cdf_poly(LaplaceParams(1.0), 1, MERSENNE_521, seed_bits=16)
    mid = poly.seed_sum_max / 2
    swing = poly.evaluate_real(poly.seed_sum_max) - poly.evaluate_real(0)
    assert abs(poly.evaluate_real(mid)) < 1e-6 * max(1.0, abs(swing))
    assert poly.coeffs[1] > 0


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
    poly = InverseCdfPoly.from_field_coeffs(
        [0, 1], modulus=mod, n_parties=3, seed_range=4
    )
    assert poly.evaluate_real(7) == 7.0
    assert poly.encoded_coeffs == (0, 1)


def test_from_field_coeffs_overflow_check():
    with pytest.raises(OverflowRisk):
        InverseCdfPoly.from_field_coeffs(
            [0, 1], modulus=PrimeModulus(7), n_parties=3, seed_range=4
        )


def test_laplace_cdf_matches_pdf_integral():
    params = LaplaceParams(0.8)
    for z in (-3.0, -0.5, 0.0, 1.2, 6.0):
        total, _ = integrate.quad(lambda v: laplace_pdf(v, params), -200, z, points=[0.0])
        assert laplace_cdf(z, params) == pytest.approx(total, abs=1e-8)
