"""Property tests: secure addition and multiplication reconstruct exactly, a
zero-noise round publishes the true counts, relabeling parties changes no
output, and a seeded party stream draws what `random.Random` draws, over
randomly drawn instances."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privroute.field import MERSENNE_61, MERSENNE_521, PrimeModulus
from privroute.laplace import InverseCdfPoly
from privroute.protocol import PartyInput, _PartyStream, run_round
from privroute.sharing import reconstruct_additive, share_additive, smpa, smpm

PRIMES = (7, 101, MERSENNE_61, MERSENNE_521)
M521 = PrimeModulus(MERSENNE_521)


@st.composite
def field_instance(draw):
    """A prime p, a party count n in [3, min(12, p - 1)] and an rng seed."""
    p = draw(st.sampled_from(PRIMES))
    n = draw(st.integers(3, min(12, p - 1)))
    return PrimeModulus(p), n, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=200, deadline=None)
@given(field_instance(), st.data())
def test_smpa_reconstructs_sum(instance, data):
    modulus, n, seed = instance
    values = data.draw(st.lists(st.integers(0, modulus.p - 1), min_size=n, max_size=n))
    shares, transcript = smpa([modulus.element(v) for v in values], random.Random(seed))
    assert reconstruct_additive(shares).value == sum(values) % modulus.p
    assert len(transcript) == n * (n - 1)


@settings(max_examples=200, deadline=None)
@given(field_instance(), st.data())
def test_smpm_reconstructs_product(instance, data):
    # covers even N too, where the Shamir degree floor((N-1)/2) is below (N-1)/2
    modulus, n, seed = instance
    a = data.draw(st.integers(0, modulus.p - 1))
    b = data.draw(st.integers(0, modulus.p - 1))
    rng = random.Random(seed)
    xs = share_additive(modulus.element(a), n, rng)
    ys = share_additive(modulus.element(b), n, rng)
    product, transcript = smpm(xs, ys, rng)
    assert reconstruct_additive(product).value == a * b % modulus.p
    assert len(transcript) == 2 * n * (n - 1)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(3, 8), st.integers(1, 4), st.integers(0, 3), st.integers(0, 2**32 - 1),
    st.data(),
)
def test_zero_noise_round_returns_exact_counts(n, m, degree, seed, data):
    where = data.draw(st.lists(st.integers(-1, m - 1), min_size=n, max_size=n))
    # all-zero coefficients: the multiplication ladder still runs up to `degree`
    poly = InverseCdfPoly.from_field_coeffs(
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
    poly = InverseCdfPoly.from_field_coeffs(
        coeffs, modulus=M521, n_parties=n, seed_range=16, scale_bits=4
    )

    def totals(locations):
        inputs = [PartyInput.on_edge(i + 1, e, m) for i, e in enumerate(locations)]
        return run_round(inputs, poly, seed=seed, record_transcript=False).field_totals

    assert totals(permuted) == totals(where)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**64),
    st.lists(
        # 2**k + 1 rejects almost half its draws, so the redraw loop runs
        st.one_of(st.integers(1, 2**600), st.integers(0, 599).map(lambda k: 2**k + 1)),
        min_size=1, max_size=20,
    ),
)
def test_party_stream_draws_like_random(seed, bounds):
    stream, stdlib = _PartyStream(seed), random.Random(seed)
    assert [stream.randrange(n) for n in bounds] == [stdlib.randrange(n) for n in bounds]
    assert stream.getstate() == stdlib.getstate()


def test_party_stream_rejects_empty_range():
    stream = _PartyStream(0)
    for n in (0, -3):
        with pytest.raises(ValueError):
            stream.randrange(n)
