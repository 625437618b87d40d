import importlib.util
import itertools
import math
import random
import secrets
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from privroute.field import MERSENNE_521, PrimeModulus
from privroute.laplace import (
    InverseCdfPoly,
    LaplaceParams,
    fit_inverse_cdf_poly,
    ks_distance,
    seed_sum_pmf,
)
from privroute.protocol import (
    PHASE_BROADCAST,
    PHASE_COUNT,
    PHASE_HORNER,
    PHASE_UNIFORM,
    DecodeOverflow,
    FullCoalition,
    InvalidInput,
    PartyInput,
    coalition_view,
    evaluation_schedule,
    run_round,
)
from privroute import protocol
from privroute.sharing import TooFewParties
from conftest import ScriptedRng

M521 = PrimeModulus(MERSENNE_521)


def _zero_poly(n_parties, modulus=M521, n_edges=None):
    return InverseCdfPoly(
        [0], modulus=modulus, n_parties=n_parties, seed_range=2
    )


def test_party_input_validation():
    PartyInput(1, (0, 1, 0))
    PartyInput(2, (0, 0, 0))  # off-network participant
    with pytest.raises(InvalidInput):
        PartyInput(1, (1, 1, 0))
    with pytest.raises(InvalidInput):
        PartyInput(1, (0, 2, 0))
    # equal to 1 but not ints: each once passed here and broke run_round
    # partway through with an OverflowError
    with pytest.raises(InvalidInput):
        PartyInput(1, (1.0, 0))
    with pytest.raises(InvalidInput):
        PartyInput(1, tuple(np.eye(2, dtype=np.int64)[0]))
    PartyInput(1, (True, False))  # bools are ints


def test_on_edge_checks_the_edge():
    assert PartyInput.on_edge(1, -1, 3).location == (0, 0, 0)
    assert PartyInput.on_edge(1, 2, 3).location == (0, 0, 1)
    for edge in (-5, -2, 3, 4):
        with pytest.raises(InvalidInput, match="edge must be"):
            PartyInput.on_edge(1, edge, 3)


def test_zero_noise_round_reports_exact_counts():
    inputs = [PartyInput.on_edge(i, 0, 3) for i in range(1, 6)]
    result = run_round(inputs, _zero_poly(5), seed=7)
    assert result.noisy_counts == (5.0, 0.0, 0.0)


def test_unseeded_round_gives_each_party_a_system_random(monkeypatch):
    # seeded streams can be rebuilt from the seed; without one, every party
    # must draw from its own operating-system source
    seen = []
    draw = protocol._draw

    def spy(rng, *args):
        seen.append(rng)
        return draw(rng, *args)

    monkeypatch.setattr(protocol, "_draw", spy)
    inputs = [PartyInput.on_edge(i, 0, 1) for i in range(1, 4)]
    assert run_round(inputs, _zero_poly(3)).noisy_counts == (3.0,)
    assert len({id(r) for r in seen}) == 3
    assert all(isinstance(r, secrets.SystemRandom) for r in seen)


def test_run_round_rejects_an_rng_shared_by_two_parties():
    # parties draw independently, so one rng object serving two of them is
    # refused before anything is drawn from it
    inputs = [PartyInput.on_edge(i, 0, 1) for i in range(1, 4)]
    shared = ScriptedRng([])
    with pytest.raises(ValueError, match="its own rng"):
        run_round(inputs, _zero_poly(3), rngs=[ScriptedRng([]), shared, shared])
    assert shared.pos == 0


def test_zero_noise_with_off_network_party():
    # three participants, only two on the single tracked edge
    inputs = [
        PartyInput.on_edge(1, 0, 1),
        PartyInput.on_edge(2, 0, 1),
        PartyInput(3, (0,)),
    ]
    result = run_round(inputs, _zero_poly(3), seed=3)
    assert result.noisy_counts == (2.0,)


def test_run_round_requires_three_parties():
    inputs = [PartyInput.on_edge(i, 0, 1) for i in (1, 2)]
    with pytest.raises(TooFewParties):
        run_round(inputs, _zero_poly(2), seed=0)


def test_run_round_validations():
    poly = _zero_poly(3)
    inputs = [PartyInput.on_edge(i, 0, 1) for i in (1, 2, 3)]
    with pytest.raises(ValueError):
        run_round(inputs, _zero_poly(4), seed=0)  # party count mismatch
    bad_ids = [PartyInput.on_edge(i, 0, 1) for i in (1, 2, 4)]
    with pytest.raises(InvalidInput):
        run_round(bad_ids, poly, seed=0)


def test_determinism_same_seed():
    poly = fit_inverse_cdf_poly(
        LaplaceParams(0.3), 3, MERSENNE_521, n_parties=4, seed_bits=8, ks_samples=1000
    )
    inputs = [PartyInput.on_edge(i, i % 2, 2) for i in range(1, 5)]
    a = run_round(inputs, poly, seed=99, record_transcript=True)
    b = run_round(inputs, poly, seed=99, record_transcript=True)
    assert a.noisy_counts == b.noisy_counts
    assert a.field_totals == b.field_totals
    assert a.transcript.messages == b.transcript.messages
    c = run_round(inputs, poly, seed=100)
    assert c.field_totals != a.field_totals


def test_unseeded_round_draws_fresh_noise_and_keeps_no_seed():
    # a linear polynomial publishes count + T, with T the sum of three
    # uniform draws from 2^20 values: equal totals on all four edges by
    # chance is out of reach
    poly = InverseCdfPoly(
        [0, 1], modulus=M521, n_parties=3, seed_range=2**20
    )
    inputs = [PartyInput.on_edge(i, 0, 4) for i in (1, 2, 3)]
    a = run_round(inputs, poly)
    b = run_round(inputs, poly)
    assert not hasattr(a, "seed")
    assert a.field_totals != b.field_totals


def test_relabeling_parties_preserves_outputs():
    # same multiset of locations assigned to different party ids, same seed:
    # totals and seed streams are unchanged, so the outputs are identical
    poly = fit_inverse_cdf_poly(
        LaplaceParams(0.3), 3, MERSENNE_521, n_parties=5, seed_bits=8, ks_samples=1000
    )
    locs_a = [0, 0, 0, 1, 1]
    locs_b = [1, 0, 1, 0, 0]
    a = run_round(
        [PartyInput.on_edge(i + 1, locs_a[i], 2) for i in range(5)], poly, seed=5
    )
    b = run_round(
        [PartyInput.on_edge(i + 1, locs_b[i], 2) for i in range(5)], poly, seed=5
    )
    assert a.noisy_counts == b.noisy_counts


def test_wrong_share_raises_decode_overflow(monkeypatch):
    # seed range 1 fixes the seed sum at 0, and with every party on the edge
    # the true total S*n + Q(0) equals poly.value_bound exactly; one unit
    # added to one party's share of T^2 pushes the total past it
    n = 3
    poly = InverseCdfPoly(
        [0, 0, 1], modulus=M521, n_parties=n, seed_range=1, scale_bits=2
    )
    inputs = [PartyInput.on_edge(i, 0, 1) for i in range(1, n + 1)]
    assert run_round(inputs, poly, seed=0).noisy_counts == (3.0,)
    assert poly.value_bound == poly.scale * n

    real_phase = protocol._smpm_phase

    def off_by_one(*args, **kwargs):
        shares, sharing = real_phase(*args, **kwargs)
        shares[1] = (shares[1] + 1) % M521.p
        return shares, sharing

    monkeypatch.setattr(protocol, "_smpm_phase", off_by_one)
    with pytest.raises(DecodeOverflow, match="edge 0"):
        run_round(inputs, poly, seed=0)


_layers_spec = importlib.util.spec_from_file_location(
    "bench_layers", Path(__file__).resolve().parents[1] / "bench" / "layers.py"
)
bench_layers = importlib.util.module_from_spec(_layers_spec)
_layers_spec.loader.exec_module(bench_layers)


def test_transcript_schedule():
    # every phase of every edge sends exactly its messages, in schedule
    # order, at both Shamir-degree parities and every degree: the ladder
    # (d <= 3) and Horner.  T's sharing is sent with T^2, and T^k's with
    # the first Horner step, after its accumulator's; the count matches the
    # benchmark's message formula
    m = 2
    for n, d in itertools.product((4, 5), range(1, 16)):
        pair = n * (n - 1)
        poly = InverseCdfPoly([0] * (d + 1), modulus=M521, n_parties=n, seed_range=16)
        inputs = [PartyInput.on_edge(i, 0, m) for i in range(1, n + 1)]
        tr = run_round(inputs, poly, seed=1, record_transcript=True).transcript
        schedule = evaluation_schedule(d)
        k, horner = schedule
        sharings = [f"SMPM-power-{z}" for z in range(2, k + 1)] + [PHASE_HORNER] * (
            horner + 1 if horner else 0
        )
        assert len(sharings) == schedule.sharings
        per_edge = (
            [PHASE_COUNT] * pair + [PHASE_UNIFORM] * pair
            + [phase for phase in sharings for _ in range(pair)]
            + [PHASE_BROADCAST] * pair
        )
        assert tr.expected_messages_per_edge() == len(per_edge), (n, d)
        assert [msg.phase for msg in tr.messages] == per_edge * m, (n, d)
        assert [msg.edge for msg in tr.messages] == [e for e in range(m) for _ in per_edge]
        assert len(tr.messages) == bench_layers.expected_messages(n, m, d), (n, d)


def test_secure_products_per_edge(monkeypatch):
    # Paterson-Stockmeyer: d - 1 products while no block size saves one,
    # then 4 at d = 7 (k = 2) and 6 at d = 15 (k = 3)
    calls = []
    real_phase = protocol._smpm_phase

    def counting(*args, **kwargs):
        calls.append(args[-1])
        return real_phase(*args, **kwargs)

    monkeypatch.setattr(protocol, "_smpm_phase", counting)
    n, m = 5, 3
    inputs = [PartyInput.on_edge(i, i % m, m) for i in range(1, n + 1)]
    for d, products in {1: 0, 2: 1, 3: 2, 7: 4, 15: 6}.items():
        poly = InverseCdfPoly([0] * (d + 1), modulus=M521, n_parties=n, seed_range=2)
        calls.clear()
        run_round(inputs, poly, seed=d)
        assert len(calls) == m * products
        assert evaluation_schedule(d).products == products
    assert calls == m * (["SMPM-power-2", "SMPM-power-3"] + [PHASE_HORNER] * 4)


def test_coalition_view_contents():
    n, d, m = 4, 3, 2
    poly = fit_inverse_cdf_poly(
        LaplaceParams(0.3), d, MERSENNE_521, n_parties=n, seed_bits=8, ks_samples=1000
    )
    inputs = [PartyInput.on_edge(i, 0, m) for i in range(1, n + 1)]
    tr = run_round(inputs, poly, seed=1, record_transcript=True).transcript

    # empty coalition: exactly the public theta broadcasts
    public = coalition_view(tr, [])
    assert all(msg.phase == PHASE_BROADCAST for msg in public)
    assert len(public) == m * n * (n - 1)

    # single party: everything it sent or received, plus all broadcasts
    view = coalition_view(tr, [2])
    non_theta = [msg for msg in view if msg.phase != PHASE_BROADCAST]
    assert all(2 in (msg.sender, msg.receiver) for msg in non_theta)
    # party 2 sends and receives n - 1 messages in each SMPA phase and each
    # Shamir sharing of the schedule
    expected_non_theta = m * 2 * (n - 1) * (2 + evaluation_schedule(d).sharings)
    assert len(non_theta) == expected_non_theta
    assert len(view) == expected_non_theta + m * n * (n - 1)

    with pytest.raises(FullCoalition):
        coalition_view(tr, [1, 2, 3, 4])
    with pytest.raises(ValueError):
        coalition_view(tr, [9])


def test_round_distribution_matches_fitted_quantile():
    # the published counts are the true counts plus the polynomial pushforward
    # of the joint seed; their law must match the recorded fit quality
    params = LaplaceParams(0.3)
    poly = fit_inverse_cdf_poly(
        params, 5, MERSENNE_521, n_parties=3, seed_bits=12, ks_samples=20_000
    )
    inputs = [
        PartyInput.on_edge(1, 0, 1),
        PartyInput.on_edge(2, 0, 1),
        PartyInput(3, (0,)),
    ]
    rounds = 2500
    noise = np.empty(rounds)
    for k in range(rounds):
        res = run_round(inputs, poly, seed=k, record_transcript=False)
        noise[k] = res.noisy_counts[0] - 2.0
    assert ks_distance(noise, params) <= poly.ks_distance + 0.04


# -- exhaustive single-party security at p = 7 --------------------------------
#
# Configuration: N=3 parties, one tracked edge, degree-1 polynomial
# theta_i = alpha_i + beta_i (scale 1, coefficients [0, 1]), seed range M=2.
# Party 1 is the observer; parties 2 and 3 are honest and split one vehicle
# between "on the edge" and "off-network" two ways with the same total.
#
# Party 1's view is (r2, r3, q2, q3, theta2, theta3) where r/q are the count
# and seed shares it receives.  Its own draws enter the view only as known
# additive offsets, so pinning them to zero loses no generality; the honest
# draws (v23, v32, u23, u32, T2, T3) influence the view only through
# A2 = T2 - v23 + v32 - u23 + u32 and A3 = T3 - v32 + v23 - u32 + u23,
# so enumerating (A2, A3) with multiplicities is an exact marginalization of
# the full 23-million-point randomness space.


def _a_pair_distribution(p=7, M=2):
    dist = Counter()
    for v23, v32, u23, u32 in itertools.product(range(p), repeat=4):
        for t2 in range(M):
            for t3 in range(M):
                a2 = (t2 - v23 + v32 - u23 + u32) % p
                a3 = (t3 - v32 + v23 - u32 + u23) % p
                dist[(a2, a3)] += 1
    return dist


def _view_distribution(s2, s3, a_dist, p=7):
    # view = (r2, r3, q2, q3, s2 + A2 - r2 - q2, s3 + A3 - r3 - q3) with
    # r2, r3, q2, q3 independent uniforms; fold the uniforms analytically:
    # for fixed received shares the thetas shift deterministically, so the
    # joint law is the product law reindexed.  Enumerate it directly.
    dist = Counter()
    for (a2, a3), weight in a_dist.items():
        for r2, r3, q2, q3 in itertools.product(range(p), repeat=4):
            theta2 = (s2 + a2 - r2 - q2) % p
            theta3 = (s3 + a3 - r3 - q3) % p
            dist[(r2, r3, q2, q3, theta2, theta3)] += weight
    return dist


def test_single_party_view_independent_of_honest_split_exhaustive():
    a_dist = _a_pair_distribution()
    total = sum(a_dist.values())
    assert total == 7**4 * 4
    d_10 = _view_distribution(1, 0, a_dist)
    d_01 = _view_distribution(0, 1, a_dist)
    assert d_10 == d_01  # exact equality of distributions, zero tolerance


def test_run_round_matches_algebraic_model():
    # bridge: the enumeration above models run_round exactly, at any p; verify
    # on sampled draw tuples that the implementation emits the same messages.
    # 13 is the smallest prime at which this polynomial's value_bound, 6, decodes
    p = 13
    mod = PrimeModulus(p)
    poly = InverseCdfPoly([0, 1], modulus=mod, n_parties=3, seed_range=2)
    assert poly.value_bound == 6
    rng = random.Random(5)
    for _ in range(200):
        v12, v13, u12, u13 = (rng.randrange(p) for _ in range(4))
        t1 = rng.randrange(2)
        v21, v23, u21, u23 = (rng.randrange(p) for _ in range(4))
        t2 = rng.randrange(2)
        v31, v32, u31, u32 = (rng.randrange(p) for _ in range(4))
        t3 = rng.randrange(2)
        s1, s2, s3 = rng.randrange(2), rng.randrange(2), rng.randrange(2)

        rngs = [
            ScriptedRng([(p, v12), (p, v13), (2, t1), (p, u12), (p, u13)]),
            ScriptedRng([(p, v21), (p, v23), (2, t2), (p, u21), (p, u23)]),
            ScriptedRng([(p, v31), (p, v32), (2, t3), (p, u31), (p, u32)]),
        ]
        inputs = [PartyInput(i + 1, (s,)) for i, s in enumerate((s1, s2, s3))]
        result = run_round(inputs, poly, rngs=rngs, record_transcript=True)
        assert all(r.exhausted for r in rngs)

        alpha = [
            (s1 - v12 - v13 + v21 + v31) % p,
            (v12 + s2 - v21 - v23 + v32) % p,
            (v13 + v23 + s3 - v31 - v32) % p,
        ]
        beta = [
            (t1 - u12 - u13 + u21 + u31) % p,
            (u12 + t2 - u21 - u23 + u32) % p,
            (u13 + u23 + t3 - u31 - u32) % p,
        ]
        theta = [(alpha[i] + beta[i]) % p for i in range(3)]
        got = {
            (m.sender, m.receiver, m.phase): m.value for m in result.transcript.messages
        }
        assert got[(1, 2, PHASE_COUNT)] == v12 and got[(1, 3, PHASE_COUNT)] == v13
        assert got[(2, 1, PHASE_COUNT)] == v21 and got[(3, 1, PHASE_COUNT)] == v31
        assert got[(1, 2, PHASE_UNIFORM)] == u12 and got[(2, 1, PHASE_UNIFORM)] == u21
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert got[(i + 1, j + 1, PHASE_BROADCAST)] == theta[i]
        # published value: counts plus seed sum, reduced mod p then signed
        expected_total = (s1 + s2 + s3 + t1 + t2 + t3) % p
        assert result.field_totals[0] == expected_total


def test_output_privacy_exact_binned_ratio():
    # the published noisy count for adjacent true counts keeps a bounded
    # density ratio; computed exactly from the seed-sum pmf, no sampling
    eps = 0.2
    poly = fit_inverse_cdf_poly(
        LaplaceParams(eps), 15, MERSENNE_521, n_parties=5, seed_bits=10,
        ks_samples=1000,
    )
    pmf = seed_sum_pmf(5, poly.seed_range)
    w = np.arange(len(pmf))
    z = np.asarray(poly.evaluate_real(w), dtype=float)
    edges = np.arange(-65.0, 70.0, 2.5)
    h_lo, _ = np.histogram(2 + z, bins=edges, weights=pmf)
    h_hi, _ = np.histogram(3 + z, bins=edges, weights=pmf)
    keep = (h_lo >= 1e-4) & (h_hi >= 1e-4)
    ratio = h_hi[keep] / h_lo[keep]
    bound = math.exp(2 * eps) * 1.1
    assert np.all(ratio <= bound)
    assert np.all(1.0 / ratio <= bound)
