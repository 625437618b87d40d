import itertools
import math
import random

import pytest

from privroute import field
from privroute.field import (
    FIELD_PRIMES,
    MERSENNE_61,
    MERSENNE_521,
    DuplicateIndex,
    PrimeModulus,
    ZeroInverse,
    _inv_int,
    _lagrange_weights_at_zero_ints,
    is_probable_prime,
)
from privroute.laplace import LaplaceParams, fit_inverse_cdf_poly


def test_modulus_rejects_composites():
    # 2047 = 23 * 89 is a strong pseudoprime to base 2; 2^67 - 1 is Cole's
    for n in (0, 1, 4, 6, 9, 2**61 - 3, 561, 341550071728321, 2047, 2**67 - 1,
              MERSENNE_61 * (2**89 - 1)):
        assert not is_probable_prime(n)
        with pytest.raises(ValueError):
            PrimeModulus(n)


MERSENNE_EXPONENTS = {2, 3, 5, 7, 13, 17, 19, 31, 61, 89, 107, 127, 521, 607, 1279}


def test_miller_rabin_finds_the_mersenne_primes_below_2_to_the_1300():
    assert [k for k in range(1, 1300) if is_probable_prime(2**k - 1)] == sorted(
        MERSENNE_EXPONENTS
    )


def _lucas_lehmer_reference(k):
    n, s = (1 << k) - 1, 4
    for _ in range(k - 2):
        s = (s * s - 2) % n
    return s


def test_modulus_accepts_primes():
    for p in (2, 3, 7, 101, MERSENNE_61, 2**64 - 59, (1 << 127) - 1, 2**127 + 45, (1 << 521) - 1):
        assert PrimeModulus(p).p == p


def test_field_primes_are_proved_and_taken_untested(monkeypatch):
    # PrimeModulus takes the members without a test, so these are their checks:
    # a Lucas-Lehmer proof of 2^521 - 1 and Miller-Rabin on both; the fit
    # takes the first member that holds its polynomial
    assert FIELD_PRIMES == tuple(sorted(FIELD_PRIMES))
    assert _lucas_lehmer_reference(521) == 0
    for p in FIELD_PRIMES:
        assert is_probable_prime(p)
    tested = []

    def spy(n):
        tested.append(n)
        if n in FIELD_PRIMES:
            raise AssertionError(f"{n} is a field prime and needs no test")
        return is_probable_prime(n)

    monkeypatch.setattr(field, "is_probable_prime", spy)
    for p in FIELD_PRIMES:
        assert PrimeModulus(p).p == p
    assert tested == []
    # nor do the fits the program makes, at round_small's and round_sf's shapes
    for n_parties, d, seed_bits in ((5, 15, 20), (20, 7, 16)):
        fit_inverse_cdf_poly(LaplaceParams(0.2), d, MERSENNE_521,
                             n_parties=n_parties, seed_bits=seed_bits, ks_samples=100)
    assert tested == []
    # every other modulus still goes through the test
    assert PrimeModulus(MERSENNE_61).p == MERSENNE_61
    assert PrimeModulus((1 << 127) - 1).p == (1 << 127) - 1
    for n in ((1 << 255) - 21, MERSENNE_521 - 2, 2047):
        with pytest.raises(ValueError, match="not prime"):
            PrimeModulus(n)
    assert tested == [MERSENNE_61, (1 << 127) - 1, (1 << 255) - 21, MERSENNE_521 - 2, 2047]


@pytest.mark.parametrize("p", [2047, MERSENNE_521 - 2, 2**255 - 21])
def test_fit_rejects_a_composite_largest_field(p):
    # the fit checks the p it is given even when a smaller field would hold
    # the polynomial
    with pytest.raises(ValueError, match="not prime"):
        fit_inverse_cdf_poly(LaplaceParams(0.1), 3, p, seed_bits=8, ks_samples=100)


def test_mod_inverse_examples():
    assert _inv_int(3, 7) == 5  # 3*5 = 15 = 1 mod 7
    for p in (7, 101, MERSENNE_61):
        assert _inv_int(1, p) == 1


def test_mod_inverse_round_trip_large():
    p = MERSENNE_61
    rng = random.Random(7)
    for _ in range(200):
        a = rng.randrange(1, p)
        assert a * _inv_int(a, p) % p == 1


def test_mod_inverse_of_zero_raises():
    with pytest.raises(ZeroInverse):
        _inv_int(0, 7)


def test_lagrange_weights_examples():
    assert _lagrange_weights_at_zero_ints([1, 2, 3], 101) == [3, 98, 1]
    m101 = PrimeModulus(101)
    assert [m101.signed(w) for w in _lagrange_weights_at_zero_ints([1, 2, 3], 101)] == [3, -3, 1]
    assert _lagrange_weights_at_zero_ints([1, 2], 7) == [2, 6]
    assert _lagrange_weights_at_zero_ints([1], 7) == [1]


@pytest.mark.parametrize("n", [*range(1, 26), 50, 100])
def test_signed_lagrange_weights_are_binomials(n):
    # run_round decodes the weights for indices 1..N to signed ints and relies
    # on them being (-1)^(j+1) * C(N, j): short, with |w| <= C(N, N/2)
    modulus = PrimeModulus(MERSENNE_521)
    weights = _lagrange_weights_at_zero_ints(range(1, n + 1), MERSENNE_521)
    assert [modulus.signed(w) for w in weights] == [
        (-1) ** (j + 1) * math.comb(n, j) for j in range(1, n + 1)
    ]


def test_lagrange_weights_duplicate_index():
    with pytest.raises(DuplicateIndex):
        _lagrange_weights_at_zero_ints([1, 2, 2], 101)


def _poly_eval(coeffs, x, p):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def test_lagrange_recovers_constant_term_small_prime_exhaustive():
    # every degree-(k-1) polynomial over Z_7 for k in 1..3
    p = 7
    for k, indices in [(1, [4]), (2, [1, 3]), (3, [1, 2, 5])]:
        weights = _lagrange_weights_at_zero_ints(indices, p)
        for coeffs in map(list, itertools.product(range(p), repeat=k)):
            got = sum(w * _poly_eval(coeffs, i, p) for w, i in zip(weights, indices)) % p
            assert got == coeffs[0]


def test_lagrange_recovers_constant_term_large_prime_sampled():
    p = MERSENNE_61
    rng = random.Random(99)
    for _ in range(50):
        k = rng.randrange(1, 8)
        indices = rng.sample(range(1, 50), k)
        weights = _lagrange_weights_at_zero_ints(indices, p)
        coeffs = [rng.randrange(p) for _ in range(k)]
        got = sum(w * _poly_eval(coeffs, i, p) for w, i in zip(weights, indices)) % p
        assert got == coeffs[0]


def test_signed_decode():
    m = PrimeModulus(101)
    assert m.signed(3) == 3
    assert m.signed(98) == -3
    assert m.signed(50) == 50
    assert m.signed(51) == -50
    assert m.signed(0) == 0
