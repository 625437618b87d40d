"""Prime moduli and the Lagrange weights that turn Shamir shares into additive ones.

All secret-sharing values are plain ints in Z_p for a prime p; the caller
always names it.  A fitted noise polynomial runs in the smallest member of
`FIELD_PRIMES` whose p/2 holds its worst-case value (the signed decoding
must not wrap): the Curve25519 prime 2^255 - 19 (Bernstein, PKC 2006) or the
Mersenne prime 2^521 - 1.  2^61 - 1 suits the unit tests of the share loops,
and tiny primes (7, 101, ...) are what the exhaustive secrecy tests use.

`PrimeModulus` checks its p with `is_probable_prime`, except for the members
of `FIELD_PRIMES`, which every noise-polynomial fit builds.  The test suite
checks those instead: it proves 2^521 - 1 with the exact test for Mersenne
numbers, and runs Miller-Rabin's 28 witnesses on 2^255 - 19, which takes
3.5-7 ms: more than a whole fit at the benchmark's Sioux Falls shape.
"""

from __future__ import annotations

import random
from typing import Sequence

#: Deterministic Miller-Rabin witnesses for every n < 3.3 * 10^24.
_MR_BASES_64 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_DETERMINISTIC_LIMIT = 3_317_044_064_679_887_385_961_981

MERSENNE_61 = (1 << 61) - 1
MERSENNE_521 = (1 << 521) - 1

#: The fields a fitted polynomial may run in, smallest first.
FIELD_PRIMES = ((1 << 255) - 19, MERSENNE_521)


class ZeroInverse(ZeroDivisionError):
    """Raised when inverting the zero element."""


class DuplicateIndex(ValueError):
    """Raised when evaluation indices for interpolation repeat."""


def _miller_rabin_round(n: int, a: int, d: int, r: int) -> bool:
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin primality test.

    Deterministic for n < 3.3e24 (fixed witness set); for larger n the fixed
    witnesses are supplemented with 16 seeded random ones, so the answer is
    correct with overwhelming probability.
    """
    if n < 2:
        return False
    if n in _MR_BASES_64:
        return True
    if any(n % q == 0 for q in _MR_BASES_64):
        return False
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES_64:
        if not _miller_rabin_round(n, a, d, r):
            return False
    if n >= _MR_DETERMINISTIC_LIMIT:
        rng = random.Random(0xC0FFEE ^ (n & 0xFFFFFFFF))
        for _ in range(16):
            a = rng.randrange(2, n - 1)
            if not _miller_rabin_round(n, a, d, r):
                return False
    return True


class PrimeModulus:
    """A checked prime modulus p, with the signed decoding of values mod p.

    A member of `FIELD_PRIMES` is taken without the primality test.
    """

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not isinstance(p, int) or p < 2:
            raise ValueError(f"modulus must be an integer >= 2, got {p!r}")
        if p not in FIELD_PRIMES and not is_probable_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p

    def signed(self, value: int) -> int:
        """Decode value in [0, p) to the signed representative in (-p/2, p/2]."""
        v = value % self.p
        return v if v <= self.p // 2 else v - self.p

    def __repr__(self) -> str:
        return f"PrimeModulus({self.p})"


def _inv_int(a: int, p: int) -> int:
    """Inverse mod p by Fermat's little theorem: a^(p-2) mod p."""
    if a % p == 0:
        raise ZeroInverse("zero has no multiplicative inverse")
    return pow(a, p - 2, p)


def _lagrange_weights_at_zero_ints(indices: Sequence[int], p: int) -> list[int]:
    """Weights w_j with sum_j w_j * X(i_j) = X(0) for any poly of degree < len(indices).

    w_j = prod_{k != j} i_k / (i_k - i_j) over Z_p.
    """
    idx = list(indices)
    if len(set(v % p for v in idx)) != len(idx):
        raise DuplicateIndex(f"evaluation indices repeat: {idx}")
    if any(v % p == 0 for v in idx):
        raise ValueError("index 0 would reveal the secret directly; indices must be nonzero")
    weights = []
    for j, ij in enumerate(idx):
        num, den = 1, 1
        for k, ik in enumerate(idx):
            if k == j:
                continue
            num = num * ik % p
            den = den * (ik - ij) % p
        weights.append(num * _inv_int(den, p) % p)
    return weights
