"""What a round publishes, derived from first principles.

Each party's rng is wrapped in a proxy that forwards its draws and records
the seed summands (the `randrange(seed_range)` calls), so the test needs no
knowledge of how the round lays out its other draws.  The joint seed of edge
e is the sum of the e-th recorded summand of every party, and the round must
publish exactly S*count_e + sum_z c_z * T_e^z, reduced mod p, and its signed
value divided by S.  Nothing here depends on how the round evaluates the
polynomial, so it holds for any correct evaluation order.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from privroute.field import MERSENNE_521, PrimeModulus
from privroute.laplace import InverseCdfPoly, LaplaceParams, fit_inverse_cdf_poly
from privroute.protocol import PartyInput, party_streams, run_round
from privroute.sim import MPC_DEGREE, MPC_SEED_BITS

M521 = PrimeModulus(MERSENNE_521)


class RecordingRng:
    """Forwards `getrandbits` and `randrange` to `rng`; records the seed summands."""

    def __init__(self, rng, seed_range):
        self._rng = rng
        self._seed_range = seed_range
        self.summands = []

    def getrandbits(self, k):
        return self._rng.getrandbits(k)

    def randrange(self, bound):
        value = self._rng.randrange(bound)
        if bound == self._seed_range:
            self.summands.append(value)
        return value


def _check_round(poly, where, m, seed):
    n = len(where)
    inputs = [PartyInput.on_edge(i + 1, e, m) for i, e in enumerate(where)]
    rngs = [RecordingRng(rng, poly.seed_range) for rng in party_streams(seed, n)]
    result = run_round(inputs, poly, rngs=rngs)
    assert all(len(rng.summands) == m for rng in rngs)
    p = poly.modulus.p
    for e in range(m):
        t = sum(rng.summands[e] for rng in rngs)
        value = poly.scale * where.count(e) + sum(
            c * t**z for z, c in enumerate(poly.field_coeffs)
        )
        assert result.field_totals[e] == value % p
        assert result.noisy_counts[e] == poly.modulus.signed(result.field_totals[e]) / poly.scale


@st.composite
def reference_rounds(draw):
    """A polynomial inside the `OverflowRisk` bound at 2^521 - 1, locations, a seed."""
    n = draw(st.integers(3, 12))
    m = draw(st.integers(1, 3))
    degree = draw(st.integers(1, 15))
    seed_range = draw(st.integers(1, 2**20))
    scale_bits = draw(st.integers(0, 20))
    w_max = max(n * (seed_range - 1), 1)
    # sum_z |c_z| * w_max^z stays within the budget, so 2 * value_bound < p
    budget = (M521.p - 1) // 2 - (n << scale_bits) - 1
    coeffs = [
        draw(st.integers(-bound, bound))
        for bound in (budget // ((degree + 1) * w_max**z) for z in range(degree + 1))
    ]
    poly = InverseCdfPoly(
        coeffs, modulus=M521, n_parties=n, seed_range=seed_range, scale_bits=scale_bits
    )
    where = draw(st.lists(st.integers(-1, m - 1), min_size=n, max_size=n))
    return poly, where, m, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=100, deadline=None)
@given(reference_rounds())
def test_round_publishes_count_plus_polynomial_of_the_seed_sum(case):
    _check_round(*case)


def test_round_publishes_count_plus_polynomial_at_the_simulator_shape():
    # the simulator's MPC refresh: a fitted polynomial of degree MPC_DEGREE
    # over MPC_SEED_BITS-bit seeds, with 20 parties on 4 edges
    poly = fit_inverse_cdf_poly(
        LaplaceParams(0.1), MPC_DEGREE, MERSENNE_521, n_parties=20,
        seed_bits=MPC_SEED_BITS, ks_samples=1_000,
    )
    where = [i % 5 - 1 for i in range(20)]
    _check_round(poly, where, 4, 2026)
