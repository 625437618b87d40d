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
    PHASE_SEED,
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


def test_run_round_rejects_a_seed_with_rngs():
    # the rngs would be drawn from and the seed ignored, so both together
    # are refused before anything is drawn
    inputs = [PartyInput.on_edge(i, 0, 1) for i in range(1, 4)]
    rngs = [ScriptedRng([]) for _ in range(3)]
    with pytest.raises(ValueError, match="not both"):
        run_round(inputs, _zero_poly(3), seed=1, rngs=rngs)
    assert all(rng.pos == 0 for rng in rngs)


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

    def off_by_one(*args):
        shares = real_phase(*args)
        shares[1] = (shares[1] + 1) % M521.p
        return shares

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
    # (d <= 3) and Horner.  T's sharing goes under its own phase, T^2 sends
    # nothing, T^(z-1)'s sharing goes with T^z, and the Horner phase holds
    # T^k's sharing and each accumulator's after the first step's; the count
    # matches the benchmark's message formula
    m = 2
    for n, d in itertools.product((4, 5), range(1, 16)):
        pair = n * (n - 1)
        poly = InverseCdfPoly([0] * (d + 1), modulus=M521, n_parties=n, seed_range=16)
        inputs = [PartyInput.on_edge(i, 0, m) for i in range(1, n + 1)]
        tr = run_round(inputs, poly, seed=1, record_transcript=True).transcript
        schedule = evaluation_schedule(d)
        k, horner = schedule
        sharings = (
            [PHASE_SEED] + [f"SMPM-power-{z}" for z in range(3, k + 1)]
            + [PHASE_HORNER] * horner
        )
        assert len(sharings) == schedule.sharings == max(schedule.products, 1)
        per_edge = (
            [PHASE_COUNT] * pair
            + [phase for phase in sharings for _ in range(pair)]
            + [PHASE_BROADCAST] * pair
        )
        assert tr.expected_messages_per_edge() == len(per_edge), (n, d)
        assert [msg.phase for msg in tr.messages] == per_edge * m, (n, d)
        assert [msg.edge for msg in tr.messages] == [e for e in range(m) for _ in per_edge]
        assert len(tr.messages) == bench_layers.expected_messages(n, m, d), (n, d)


def test_secure_products_per_edge(monkeypatch):
    # Paterson-Stockmeyer: d - 1 products while no block size saves one,
    # then 4 at d = 7 (k = 2) and 6 at d = 15 (k = 3).  `_share` makes every
    # sharing, each where it is first used: T's, T^(z-1)'s before T^z from
    # T^3 on, T^k's and each Horner accumulator's after the first step's.
    # T^2 and the first Horner step multiply kept sharings and share nothing
    P = "product"
    T2 = [PHASE_SEED, P]
    expected = {
        1: ([PHASE_SEED], 0),
        2: (T2, 1),
        3: (T2 + ["SMPM-power-3", P], 2),
        7: (T2 + [PHASE_HORNER, P] * 3, 4),
        15: (T2 + ["SMPM-power-3", P] + [PHASE_HORNER, P] * 4, 6),
    }
    events, shared_on = [], []
    real_share, real_phase = protocol._share, protocol._smpm_phase

    def sharing(values, coeffs, p, messages, edge, phase):
        events.append(phase)
        shared_on.append(edge)
        return real_share(values, coeffs, p, messages, edge, phase)

    def multiplying(*args):
        events.append(P)
        return real_phase(*args)

    monkeypatch.setattr(protocol, "_share", sharing)
    monkeypatch.setattr(protocol, "_smpm_phase", multiplying)
    n, m = 5, 3
    inputs = [PartyInput.on_edge(i, i % m, m) for i in range(1, n + 1)]
    for d, (per_edge, products) in expected.items():
        poly = InverseCdfPoly([0] * (d + 1), modulus=M521, n_parties=n, seed_range=2)
        events.clear()
        shared_on.clear()
        run_round(inputs, poly, seed=d)
        schedule = evaluation_schedule(d)
        assert schedule.products == products
        assert events.count(P) == m * products
        assert Counter(shared_on) == dict.fromkeys(range(m), schedule.sharings)
        assert events == m * per_edge


def test_draws_and_messages_per_edge_at_the_simulator_shape():
    # 20 parties at degree 7: besides its summand a party draws 19 count
    # deals and 4 sharings of 9 Shamir coefficients, 55 field values, and
    # an edge sends (2 + 4) * 20 * 19 = 2,280 messages
    n, d, M = 20, 7, 2**16
    p = M521.p
    poly = InverseCdfPoly([0] * (d + 1), modulus=M521, n_parties=n, seed_range=M)
    script = [(p, 0)] * 19 + [(M, 0)] + [(p, 0)] * 36
    assert len(script) - 1 == 55
    rngs = [ScriptedRng(script) for _ in range(n)]
    inputs = [PartyInput.on_edge(i, i % 2 - 1, 1) for i in range(1, n + 1)]
    result = run_round(inputs, poly, rngs=rngs, record_transcript=True)
    assert all(rng.exhausted for rng in rngs)
    assert result.noisy_counts == (10.0,)
    assert len(result.transcript.messages) == 2280
    assert result.transcript.expected_messages_per_edge() == 2280
    assert bench_layers.expected_messages(n, 1, d) == 2280


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
    # party 2 sends and receives n - 1 messages in the count's secure
    # addition and in each Shamir sharing of the schedule, T's included
    assert evaluation_schedule(d).sharings == 2
    expected_non_theta = m * 2 * (n - 1) * (1 + evaluation_schedule(d).sharings)
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
# Configuration: N = 3 parties (Shamir degree h = 1), one tracked edge, a
# polynomial of degree at most 2 with scale 1, so theta_j = alpha_j + Q_j.
# Party 1 is the observer; parties 2 and 3 are honest.
#
# Party 1's view is (r2, r3, q2, q3, theta2, theta3): the count shares r_i
# and the seed shares q_i it receives, and the broadcast thetas.  Party i
# deals its count bit s_i additively (v_ij to party j) and Shamir-shares its
# summand t_i with the polynomial t_i + a_i*z, so q_i = t_i + a_i.  Receiver
# j holds T(j) = t1 + t2 + t3 + j*(a1 + a2 + a3), and its additive shares of
# T and T^2 are lam_j*T(j) and lam_j*T(j)^2, with lam = (3, -3, 1) the
# Lagrange weights at zero for indices 1..3; the constant enters at party 1.
# Party 1's own draws enter its view only as known offsets, so pinning them
# (v12, v13, a1) to zero loses no generality.  The count part (r2, r3,
# alpha2, alpha3) and the seed part (q2, q3, Q_2, Q_3) depend on disjoint
# honest draws, so the view's law is their two laws combined: 7^4 count
# deals and 7^2 seed coefficients enumerate all of the honest randomness.

LAM3 = (3, -3, 1)


def _alphas(s, v):
    """Additive shares of the count: party i keeps s_i - its deals plus what it receives."""
    return [
        s[i - 1] - sum(v[i, j] for j in (1, 2, 3) if j != i)
        + sum(v[j, i] for j in (1, 2, 3) if j != i)
        for i in (1, 2, 3)
    ]


def _polynomial_shares(t, a, cs):
    """Each party's additive share of Q(T) for coefficients cs (degree <= 2)."""
    shares = []
    for j, lam in enumerate(LAM3, 1):
        at_j = sum(t) + j * sum(a)
        shares.append(lam * sum(c * at_j**z for z, c in enumerate(cs) if z))
    shares[0] += cs[0]
    return shares


def _view_law(s, t, cs, p=7, zero_coefficient=()):
    """Exact law of party 1's view for count bits s and summands t.

    The honest draws are enumerated; a dealer in `zero_coefficient` uses
    a_i = 0, the negative control whose seed share is its summand.
    """
    count = Counter()
    for v21, v23, v31, v32 in itertools.product(range(p), repeat=4):
        v = {(1, 2): 0, (1, 3): 0, (2, 1): v21, (2, 3): v23, (3, 1): v31, (3, 2): v32}
        alpha = _alphas(s, v)
        count[(v21, v31, alpha[1] % p, alpha[2] % p)] += 1
    seed = Counter()
    for a2, a3 in itertools.product(
        *([0] if i in zero_coefficient else range(p) for i in (2, 3))
    ):
        q = _polynomial_shares(t, (0, a2, a3), cs)
        seed[((t[1] + a2) % p, (t[2] + a3) % p, q[1] % p, q[2] % p)] += 1
    law = Counter()
    for (r2, r3, alpha2, alpha3), weight in count.items():
        for (q2, q3, share2, share3), weight2 in seed.items():
            law[(r2, r3, q2, q3, (alpha2 + share2) % p, (alpha3 + share3) % p)] += (
                weight * weight2
            )
    return law


def test_single_party_view_independent_of_honest_split_exhaustive():
    # degree 1, theta_j = alpha_j + lam_j * T(j): one vehicle split between
    # parties 2 and 3 two ways gives party 1 one law of its view, for every
    # summand triple of a seed range of 2
    for t in itertools.product(range(2), repeat=3):
        d_10 = _view_law((0, 1, 0), t, (0, 1))
        d_01 = _view_law((0, 0, 1), t, (0, 1))
        assert sum(d_10.values()) == 7**6
        assert d_10 == d_01  # exact equality of distributions, zero tolerance


def test_single_party_view_independent_of_honest_summand_split_exhaustive():
    # degree 2 (T^2 multiplies T's sharing by itself): honest summand splits
    # with the same T give party 1 one law of its view.  Negative control: a
    # dealer whose seed polynomial has a zero coefficient sends its summand
    # itself, so party 1's law tells the splits apart
    cs = (1, 2, 3)
    splits = [(0, t2, 3 - t2) for t2 in range(4)]
    laws = [_view_law((1, 0, 1), t, cs) for t in splits]
    assert all(law == laws[0] for law in laws[1:])
    for dealer in (2, 3):
        leaky = [_view_law((1, 0, 1), t, cs, zero_coefficient=(dealer,)) for t in splits]
        assert all(leaky[a] != leaky[b] for a, b in itertools.combinations(range(4), 2))


def _check_model(p, cs, seed_range, trials=200):
    """run_round emits the model's messages and thetas on sampled draws."""
    poly = InverseCdfPoly(cs, modulus=PrimeModulus(p), n_parties=3, seed_range=seed_range)
    rng = random.Random(5)
    pairs = [(i, j) for i in (1, 2, 3) for j in (1, 2, 3) if i != j]
    for _ in range(trials):
        v = {pair: rng.randrange(p) for pair in pairs}
        t = [rng.randrange(seed_range) for _ in range(3)]
        a = [rng.randrange(p) for _ in range(3)]
        s = [rng.randrange(2) for _ in range(3)]
        # per party: count deals to the others in increasing index, the
        # summand, then the seed polynomial's one coefficient
        rngs = [
            ScriptedRng([
                *((p, v[i, j]) for j in (1, 2, 3) if j != i),
                (seed_range, t[i - 1]), (p, a[i - 1]),
            ])
            for i in (1, 2, 3)
        ]
        inputs = [PartyInput(i + 1, (s[i],)) for i in range(3)]
        result = run_round(inputs, poly, rngs=rngs, record_transcript=True)
        assert all(r.exhausted for r in rngs)

        theta = [
            (alpha + share) % p
            for alpha, share in zip(_alphas(s, v), _polynomial_shares(t, a, cs))
        ]
        got = {
            (m.sender, m.receiver, m.phase): m.value for m in result.transcript.messages
        }
        assert len(got) == len(result.transcript.messages) == 3 * len(pairs)
        for i, j in pairs:
            assert got[(i, j, PHASE_COUNT)] == v[i, j]
            assert got[(i, j, PHASE_SEED)] == (t[i - 1] + a[i - 1] * j) % p
            assert got[(i, j, PHASE_BROADCAST)] == theta[i - 1]
        # published value: counts plus Q at the seed sum, reduced mod p
        expected_total = (sum(s) + sum(c * sum(t) ** z for z, c in enumerate(cs))) % p
        assert result.field_totals[0] == expected_total


def test_run_round_matches_algebraic_model():
    # bridge: the enumeration above models run_round exactly, at any p; verify
    # on sampled draw tuples that the implementation emits the same messages.
    # 13 is the smallest prime at which this polynomial's value_bound, 6, decodes
    assert InverseCdfPoly([0, 1], modulus=PrimeModulus(13), n_parties=3,
                          seed_range=2).value_bound == 6
    _check_model(13, (0, 1), 2)


def test_run_round_matches_algebraic_model_at_degree_2():
    # the same bridge for the degree-2 model: T^2 sends nothing, so the
    # transcript holds the count deals, T's sharing and the thetas; the
    # value_bound, 3 + 1 + 2*9 + 3*81 = 265, decodes below p = 541
    _check_model(541, (1, 2, 3), 4)


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
