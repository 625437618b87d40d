import random

import pytest

from privroute import field
from privroute.field import (
    MERSENNE_61,
    MERSENNE_521,
    DuplicateIndex,
    FieldElement,
    MismatchedModuli,
    PrimeModulus,
    ZeroInverse,
    is_probable_prime,
    lagrange_weights_at_zero,
    mod_inverse,
)


def test_modulus_rejects_composites():
    # 2047 = 23 * 89 is a strong pseudoprime to base 2; 2^67 - 1 is Cole's
    for n in (0, 1, 4, 6, 9, 2**61 - 3, 561, 341550071728321, 2047, 2**67 - 1):
        assert not is_probable_prime(n)
        with pytest.raises(ValueError):
            PrimeModulus(n)


MERSENNE_EXPONENTS = {2, 3, 5, 7, 13, 17, 19, 31, 61, 89, 107, 127, 521, 607, 1279}


def test_mersenne_numbers_proved_for_every_exponent_below_1300():
    assert [k for k in range(1, 1300) if is_probable_prime(2**k - 1)] == sorted(
        MERSENNE_EXPONENTS
    )


def _lucas_lehmer_reference(k):
    n, s = (1 << k) - 1, 4
    for _ in range(k - 2):
        s = (s * s - 2) % n
    return s


def test_lucas_lehmer_fold_matches_plain_reduction():
    # the shift-and-mask fold must land in [0, n) after every squaring;
    # a residue left at n instead of 0 would call a Mersenne prime composite
    for k in (3, 5, 7, 11, 13, 23, 29, 31, 37, 61, 67, 89, 127, 131, 521):
        s = field._lucas_lehmer(k)
        assert 0 <= s < (1 << k) - 1
        assert s == _lucas_lehmer_reference(k)
        assert (s == 0) == (k in MERSENNE_EXPONENTS)


def test_only_mersenne_numbers_take_the_lucas_lehmer_path(monkeypatch):
    ll_exponents, mr_moduli = [], []
    real_ll, real_mr = field._lucas_lehmer, field._miller_rabin_round

    def spy_ll(k):
        ll_exponents.append(k)
        return real_ll(k)

    def spy_mr(n, *args):
        mr_moduli.append(n)
        return real_mr(n, *args)

    monkeypatch.setattr(field, "_lucas_lehmer", spy_ll)
    monkeypatch.setattr(field, "_miller_rabin_round", spy_mr)
    # none has a factor among the fixed witnesses, so each reaches Miller-Rabin
    for n, prime in [(101, True), (341550071728321, False), (2**64 - 59, True),
                     (2**127 + 45, True), (MERSENNE_61 * ((1 << 89) - 1), False)]:
        mr_moduli.clear()
        assert is_probable_prime(n) is prime
        assert mr_moduli and set(mr_moduli) == {n}
    assert ll_exponents == []
    # the exponent 521 gets Miller-Rabin, the Mersenne number only Lucas-Lehmer
    mr_moduli.clear()
    assert is_probable_prime(MERSENNE_521)
    assert ll_exponents == [521] and set(mr_moduli) == {521}


def test_modulus_accepts_primes():
    for p in (2, 3, 7, 101, MERSENNE_61, (1 << 127) - 1, (1 << 521) - 1):
        assert PrimeModulus(p).p == p


def test_mod_inverse_examples():
    m7 = PrimeModulus(7)
    assert mod_inverse(m7.element(3)).value == 5  # 3*5 = 15 = 1 mod 7
    for p in (7, 101, MERSENNE_61):
        assert mod_inverse(PrimeModulus(p).element(1)).value == 1


def test_mod_inverse_round_trip_large():
    m = PrimeModulus(MERSENNE_61)
    rng = random.Random(7)
    for _ in range(200):
        a = m.element(rng.randrange(1, m.p))
        assert (a * mod_inverse(a)).value == 1


def test_mod_inverse_of_zero_raises():
    with pytest.raises(ZeroInverse):
        mod_inverse(PrimeModulus(7).element(0))


def test_lagrange_weights_examples():
    m101 = PrimeModulus(101)
    assert [w.value for w in lagrange_weights_at_zero([1, 2, 3], m101)] == [3, 98, 1]
    assert [w.signed for w in lagrange_weights_at_zero([1, 2, 3], m101)] == [3, -3, 1]
    m7 = PrimeModulus(7)
    assert [w.value for w in lagrange_weights_at_zero([1, 2], m7)] == [2, 6]
    assert [w.value for w in lagrange_weights_at_zero([1], m7)] == [1]


def test_lagrange_weights_duplicate_index():
    with pytest.raises(DuplicateIndex):
        lagrange_weights_at_zero([1, 2, 2], PrimeModulus(101))


def _poly_eval(coeffs, x, p):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def test_lagrange_recovers_constant_term_small_prime_exhaustive():
    # every degree-(k-1) polynomial over Z_7 for k in 1..3
    p = 7
    m = PrimeModulus(p)
    for k, indices in [(1, [4]), (2, [1, 3]), (3, [1, 2, 5])]:
        weights = [w.value for w in lagrange_weights_at_zero(indices, m)]
        if k == 1:
            polys = ([c0] for c0 in range(p))
        elif k == 2:
            polys = ([c0, c1] for c0 in range(p) for c1 in range(p))
        else:
            polys = ([c0, c1, c2] for c0 in range(p) for c1 in range(p) for c2 in range(p))
        for coeffs in polys:
            got = sum(w * _poly_eval(coeffs, i, p) for w, i in zip(weights, indices)) % p
            assert got == coeffs[0]


def test_lagrange_recovers_constant_term_large_prime_sampled():
    p = MERSENNE_61
    m = PrimeModulus(p)
    rng = random.Random(99)
    for _ in range(50):
        k = rng.randrange(1, 8)
        indices = rng.sample(range(1, 50), k)
        weights = [w.value for w in lagrange_weights_at_zero(indices, m)]
        coeffs = [rng.randrange(p) for _ in range(k)]
        got = sum(w * _poly_eval(coeffs, i, p) for w, i in zip(weights, indices)) % p
        assert got == coeffs[0]


def test_field_algebra_properties():
    m = PrimeModulus(MERSENNE_61)
    rng = random.Random(3)
    for _ in range(200):
        a, b, c = (m.element(rng.randrange(m.p)) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == m.element(0)


def test_mixed_moduli_rejected():
    a = PrimeModulus(7).element(3)
    b = PrimeModulus(101).element(3)
    with pytest.raises(MismatchedModuli):
        a + b
    with pytest.raises(MismatchedModuli):
        a * b


def test_signed_decode():
    m = PrimeModulus(101)
    assert m.element(3).signed == 3
    assert m.element(98).signed == -3
    assert m.element(50).signed == 50
    assert m.element(51).signed == -50
    assert m.element(0).signed == 0


def test_pow_and_inverse_method():
    m = PrimeModulus(101)
    a = m.element(5)
    assert (a ** 3).value == 125 % 101
    assert (a.inverse() * a).value == 1
