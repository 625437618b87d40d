"""Property tests: secure addition and multiplication reconstruct exactly, a
zero-noise round publishes the true counts, relabeling parties changes no
output, a batched share draw returns what `random.Random.randrange` returns,
a seeded round leaves each party's stream where one `randrange` call per
value leaves it, and the share loops read their share inputs only mod p,
over randomly drawn instances."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privroute.field import MERSENNE_61, MERSENNE_521, PrimeModulus
from privroute.laplace import InverseCdfPoly
from privroute.protocol import PartyInput, evaluation_schedule, party_streams, run_round
from privroute.sharing import _draw, _share, _smpa_phase
from conftest import additive_shares, smpa_one_rng, smpm_one_rng

PRIMES = (7, 101, MERSENNE_61, 2**255 - 19, MERSENNE_521)
M521 = PrimeModulus(MERSENNE_521)


@st.composite
def field_instance(draw):
    """A prime p, a party count n in [3, min(12, p - 1)] and an rng seed."""
    p = draw(st.sampled_from(PRIMES))
    n = draw(st.integers(3, min(12, p - 1)))
    return p, n, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=200, deadline=None)
@given(field_instance(), st.data())
def test_smpa_reconstructs_sum(instance, data):
    p, n, seed = instance
    values = data.draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))
    transcript = []
    shares = smpa_one_rng(values, random.Random(seed), p, transcript)
    assert sum(shares) % p == sum(values) % p
    assert len(transcript) == n * (n - 1)


@settings(max_examples=200, deadline=None)
@given(field_instance(), st.data())
def test_smpm_reconstructs_product(instance, data):
    # covers even N too, where the Shamir degree floor((N-1)/2) is below (N-1)/2
    p, n, seed = instance
    a = data.draw(st.integers(0, p - 1))
    b = data.draw(st.integers(0, p - 1))
    rng = random.Random(seed)
    xs = additive_shares(a, n, rng, p)
    ys = additive_shares(b, n, rng, p)
    transcript = []
    product = smpm_one_rng(xs, ys, rng, p, transcript)
    assert sum(product) % p == a * b % p
    assert len(transcript) == 2 * n * (n - 1)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(PRIMES), st.integers(3, 12), st.integers(0, 2**32 - 1), st.data()
)
def test_share_loops_read_share_inputs_mod_p(p, n, seed, data):
    # the round Shamir-shares earlier products' unreduced outputs, so
    # shifting a share by any multiple of p must change nothing
    rng = random.Random(seed)
    x = [rng.randrange(p) for _ in range(n)]
    dealt = [_draw(rng, p, n - 1) for _ in range(n)]
    coeffs = [_draw(rng, p, (n - 1) // 2) for _ in range(n)]
    multiples = st.lists(st.integers(-(2**80), 2**80), min_size=n, max_size=n)

    def shifted(shares):
        return [v + k * p for v, k in zip(shares, data.draw(multiples))]

    sent, sent_shifted = [], []
    assert _smpa_phase(x, dealt, p, sent) == _smpa_phase(shifted(x), dealt, p, sent_shifted)
    assert sent == sent_shifted
    sent, sent_shifted = [], []
    assert _share(x, coeffs, p, sent) == _share(shifted(x), coeffs, p, sent_shifted)
    assert sent == sent_shifted


@settings(max_examples=60, deadline=None)
@given(
    st.integers(3, 8), st.integers(1, 4), st.integers(0, 3), st.integers(0, 2**32 - 1),
    st.data(),
)
def test_zero_noise_round_returns_exact_counts(n, m, degree, seed, data):
    where = data.draw(st.lists(st.integers(-1, m - 1), min_size=n, max_size=n))
    # all-zero coefficients: every product of the evaluation schedule still runs
    poly = InverseCdfPoly(
        [0] * (degree + 1), modulus=M521, n_parties=n, seed_range=2
    )
    inputs = [PartyInput.on_edge(i + 1, e, m) for i, e in enumerate(where)]
    result = run_round(inputs, poly, seed=seed, record_transcript=False)
    assert result.noisy_counts == tuple(float(where.count(e)) for e in range(m))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(3, 8), st.integers(1, 4), st.integers(2, 4), st.integers(0, 2**32 - 1),
    st.data(),
)
def test_relabeling_parties_preserves_field_totals(n, m, degree, seed, data):
    # the per-edge totals and the seed streams do not depend on which party id
    # holds which location; degree >= 2 runs the summed-coefficient SMPM path
    where = data.draw(st.lists(st.integers(-1, m - 1), min_size=n, max_size=n))
    permuted = data.draw(st.permutations(where))
    coeffs = data.draw(st.lists(st.integers(-50, 50), min_size=degree + 1,
                                max_size=degree + 1))
    poly = InverseCdfPoly(
        coeffs, modulus=M521, n_parties=n, seed_range=16, scale_bits=4
    )

    def totals(locations):
        inputs = [PartyInput.on_edge(i + 1, e, m) for i, e in enumerate(locations)]
        return run_round(inputs, poly, seed=seed, record_transcript=False).field_totals

    assert totals(permuted) == totals(where)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(3, 12), st.integers(1, 3), st.integers(1, 15),
    st.integers(1, 2**20), st.integers(0, 2**32 - 1), st.data(),
)
def test_round_leaves_streams_where_per_phase_randrange_does(n, m, degree, M, seed, data):
    # each party draws once per edge; its stream must end where the draws of
    # every phase in turn, one randrange call per value, leave it: h Shamir
    # coefficients per sharing of the evaluation schedule, max(products, 1)
    # sharings in all, the seed's included
    where = data.draw(st.lists(st.integers(-1, m - 1), min_size=n, max_size=n))
    poly = InverseCdfPoly([0] * (degree + 1), modulus=M521, n_parties=n, seed_range=M)
    inputs = [PartyInput.on_edge(i + 1, e, m) for i, e in enumerate(where)]
    rngs = party_streams(seed, n)
    run_round(inputs, poly, rngs=rngs)
    p, h = M521.p, (n - 1) // 2
    for i, rng in enumerate(rngs, 1):
        reference = random.Random(f"privroute-round:{seed}:party:{i}")
        for _ in range(m):
            [reference.randrange(p) for _ in range(n - 1)]  # count deals
            reference.randrange(M)  # seed summand
            for _ in range(max(evaluation_schedule(degree).products, 1)):
                [reference.randrange(p) for _ in range(h)]
        assert rng.getstate() == reference.getstate()


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**64),
    st.lists(
        st.tuples(
            # 2**k + 1 rejects almost half its draws, so replacements are drawn
            st.one_of(st.integers(1, 2**600), st.integers(0, 599).map(lambda k: 2**k + 1)),
            st.integers(0, 40),
        ),
        min_size=1, max_size=4,
    ),
)
def test_draw_matches_randrange(seed, calls):
    batched, stdlib = random.Random(seed), random.Random(seed)
    for bound, count in calls:
        assert _draw(batched, bound, count) == [stdlib.randrange(bound) for _ in range(count)]
    assert batched.getstate() == stdlib.getstate()


def test_draw_rejects_empty_range():
    # without the guard getrandbits(0) returns 0 and replacements never end
    for bound in (0, -3):
        with pytest.raises(ValueError):
            _draw(random.Random(0), bound, 1)
