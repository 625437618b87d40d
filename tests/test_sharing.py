import itertools
import math
import random
from collections import Counter

import pytest

from privroute.field import (
    MERSENNE_61,
    MERSENNE_521,
    DuplicateIndex,
    PrimeModulus,
    _lagrange_weights_at_zero_ints,
)
from privroute.sharing import (
    AdditiveShareSet,
    InsufficientShares,
    InvalidThreshold,
    MissingShare,
    PartyCountMismatch,
    ShamirShareSet,
    Message,
    TooFewParties,
    _draw,
    _eval_poly,
    _sample_poly,
    _smpa_phase,
    _smpm_phase,
    reconstruct_additive,
    reconstruct_shamir,
    share_additive,
    share_shamir,
    smpa,
    smpm,
)
from conftest import ScriptedRng

M61 = PrimeModulus(MERSENNE_61)
M7 = PrimeModulus(7)


# -- additive ---------------------------------------------------------------

def test_share_additive_fixed_rng_last_share():
    # secret 0 with first shares 2, 5 forces the final share to 0 mod 7
    shares = share_additive(M7.element(0), 3, ScriptedRng([(7, 2), (7, 5)]))
    assert shares.values == (2, 5, 0)


def test_share_additive_two_parties_definitional():
    rng = random.Random(5)
    for secret in (0, 1, 6):
        s = share_additive(M7.element(secret), 2, random.Random(secret))
        assert (s.values[0] + s.values[1]) % 7 == secret


def test_share_additive_marginal_uniform_exhaustive():
    # at p=7, N=3 the joint law of (s1, s2) is uniform on Z_7^2 for any secret
    for secret in range(7):
        seen = Counter()
        for a in range(7):
            for b in range(7):
                s = share_additive(M7.element(secret), 3, ScriptedRng([a, b]))
                seen[(s.values[0], s.values[1])] += 1
        assert len(seen) == 49 and set(seen.values()) == {1}


def test_share_additive_too_few_parties():
    with pytest.raises(TooFewParties):
        share_additive(M7.element(1), 1, random.Random(0))


def test_reconstruct_additive_examples():
    assert reconstruct_additive(AdditiveShareSet((2, 5, 0), M7)).value == 0
    n = 5
    assert reconstruct_additive(AdditiveShareSet((1,) * n, M7)).value == n % 7


def test_additive_round_trip_many():
    rng = random.Random(17)
    for _ in range(1000):
        secret = M61.element(rng.randrange(M61.p))
        n = rng.randrange(2, 8)
        assert reconstruct_additive(share_additive(secret, n, rng)) == secret


def test_reconstruct_additive_missing_share():
    s = share_additive(M7.element(4), 3, random.Random(0)).drop(2)
    with pytest.raises(MissingShare):
        reconstruct_additive(s)


def test_additive_subset_secrecy_exhaustive():
    # p <= 11, N <= 4: any proper subset of shares has a secret-independent law
    for p in (7, 11):
        mod = PrimeModulus(p)
        for n in (2, 3, 4):
            draw_space = list(itertools.product(range(p), repeat=n - 1))
            for subset in itertools.chain.from_iterable(
                itertools.combinations(range(n), k) for k in range(1, n)
            ):
                dists = []
                for secret in range(p):
                    c = Counter()
                    for draws in draw_space:
                        s = share_additive(mod.element(secret), n, ScriptedRng(draws))
                        c[tuple(s.values[i] for i in subset)] += 1
                    dists.append(c)
                assert all(d == dists[0] for d in dists[1:])


# -- shamir -----------------------------------------------------------------

def test_share_shamir_threshold_one_is_constant():
    s = share_shamir(M7.element(4), 1, 5, random.Random(0))
    assert all(v == 4 for _, v in s.points)


def test_share_shamir_fixed_coefficient():
    # X(z) = 4 + 3z over Z_7 evaluated at 1, 2, 3
    s = share_shamir(M7.element(4), 2, 3, ScriptedRng([(7, 3)]))
    assert s.points == ((1, 0), (2, 3), (3, 6))


def test_share_shamir_single_share_uniform_exhaustive():
    # p=7, k=2, N=3: each single share is uniform regardless of the secret
    for party in (1, 2, 3):
        dists = []
        for secret in range(7):
            c = Counter()
            for c1 in range(7):
                s = share_shamir(M7.element(secret), 2, 3, ScriptedRng([c1]))
                c[dict(s.points)[party]] += 1
            dists.append(c)
        assert all(d == dists[0] for d in dists[1:])
        assert set(dists[0].values()) == {1}  # exactly uniform


def test_share_shamir_invalid_threshold():
    with pytest.raises(InvalidThreshold):
        share_shamir(M7.element(1), 0, 3, random.Random(0))
    with pytest.raises(InvalidThreshold):
        share_shamir(M7.element(1), 4, 3, random.Random(0))
    with pytest.raises(InvalidThreshold):
        share_shamir(M7.element(1), 2, 9, random.Random(0))  # N >= p


def test_reconstruct_shamir_examples():
    got = reconstruct_shamir(ShamirShareSet(((1, 0), (2, 3)), 2, M7))
    assert got.value == 4
    assert reconstruct_shamir(ShamirShareSet(((5, 3),), 1, M7)).value == 3


def test_reconstruct_shamir_all_subsets():
    rng = random.Random(23)
    for n in (3, 4, 5):
        for k in range(1, n + 1):
            secret = M61.element(rng.randrange(M61.p))
            shares = share_shamir(secret, k, n, rng)
            for subset in itertools.combinations(range(1, n + 1), k):
                assert reconstruct_shamir(shares.subset(subset)) == secret


def test_reconstruct_shamir_errors():
    shares = share_shamir(M7.element(2), 3, 5, random.Random(1))
    with pytest.raises(InsufficientShares):
        reconstruct_shamir(shares.subset([1, 2]))
    bad = ShamirShareSet(((1, 0), (1, 3)), 2, M7)
    with pytest.raises(DuplicateIndex):
        reconstruct_shamir(bad)


def test_shamir_below_threshold_secrecy_exhaustive():
    # p <= 11, k <= 3: fewer than k shares are distributed independently of
    # the secret
    for p in (7, 11):
        mod = PrimeModulus(p)
        for k, n in ((2, 3), (3, 4)):
            draw_space = list(itertools.product(range(p), repeat=k - 1))
            for subset in itertools.chain.from_iterable(
                itertools.combinations(range(1, n + 1), size) for size in range(1, k)
            ):
                dists = []
                for secret in range(p):
                    c = Counter()
                    for draws in draw_space:
                        s = share_shamir(mod.element(secret), k, n, ScriptedRng(draws))
                        pts = dict(s.points)
                        c[tuple(pts[i] for i in subset)] += 1
                    dists.append(c)
                assert all(d == dists[0] for d in dists[1:])


# -- smpa ---------------------------------------------------------------------

def test_smpa_examples():
    shares, transcript = smpa([M7.element(1)] * 3, random.Random(0))
    assert reconstruct_additive(shares).value == 3
    assert len(transcript) == 3 * 2  # N(N-1) point-to-point sends


def test_smpa_zero_inputs_messages_uniform_exhaustive():
    # all-zero inputs still produce uniformly distributed received messages
    per_msg = [Counter() for _ in range(6)]
    for draws in itertools.product(range(7), repeat=6):
        _, transcript = smpa([M7.element(0)] * 3, ScriptedRng(draws))
        for slot, msg in enumerate(transcript):
            per_msg[slot][msg.value] += 1
    for c in per_msg:
        assert set(c.values()) == {7 ** 5}  # uniform marginal


def test_smpa_matches_plain_sum():
    rng = random.Random(11)
    for _ in range(1000):
        n = rng.randrange(2, 7)
        inputs = [M61.element(rng.randrange(M61.p)) for _ in range(n)]
        shares, _ = smpa(inputs, rng)
        expected = sum(x.value for x in inputs) % M61.p
        assert reconstruct_additive(shares).value == expected


def test_smpa_view_secrecy_fixed_totals():
    # coalition {1}'s received messages have a law depending on the honest
    # inputs only through their total; honest parties are 2 and 3.  The
    # coalition's own draws add a known constant to everything it later
    # derives, so they are pinned to zero without loss of generality.
    def view_dist(x2, x3):
        c = Counter()
        for draws in itertools.product(range(7), repeat=4):
            rng = ScriptedRng([0, 0, *draws])
            _, transcript = smpa(
                [M7.element(0), M7.element(x2), M7.element(x3)], rng
            )
            received = tuple(m.value for m in transcript if m.receiver == 1)
            c[received] += 1
        return c

    assert view_dist(1, 2) == view_dist(2, 1) == view_dist(0, 3) == view_dist(3, 0)


def test_smpa_transcript_completeness():
    # every value a party receives appears in the transcript exactly once
    rng = random.Random(2)
    inputs = [M61.element(rng.randrange(M61.p)) for _ in range(4)]
    _, transcript = smpa(inputs, rng)
    assert len(transcript) == 4 * 3
    assert len({(m.sender, m.receiver) for m in transcript}) == 12


# -- smpm ---------------------------------------------------------------------

def test_smpm_annihilator():
    rng = random.Random(0)
    x = share_additive(M61.element(0), 3, rng)
    y = share_additive(M61.element(123456), 3, rng)
    prod, _ = smpm(x, y, rng)
    assert reconstruct_additive(prod).value == 0


def test_smpm_fixed_shares_example():
    m101 = PrimeModulus(101)
    x = AdditiveShareSet((1, 1, 2), m101)  # 4
    y = AdditiveShareSet((2, 2, 1), m101)  # 5
    prod, transcript = smpm(x, y, random.Random(9))
    assert reconstruct_additive(prod).value == 20
    assert len(transcript) == 2 * 3 * 2  # 2N(N-1)


def test_smpm_random_instances():
    rng = random.Random(31)
    for n in (3, 5, 7):
        for _ in range(170):
            a = rng.randrange(M61.p)
            b = rng.randrange(M61.p)
            xs = share_additive(M61.element(a), n, rng)
            ys = share_additive(M61.element(b), n, rng)
            prod, _ = smpm(xs, ys, rng)
            assert reconstruct_additive(prod).value == a * b % M61.p


def test_smpm_errors():
    rng = random.Random(0)
    x3 = share_additive(M61.element(1), 3, rng)
    x4 = share_additive(M61.element(1), 4, rng)
    with pytest.raises(PartyCountMismatch):
        smpm(x3, x4, rng)
    y7 = share_additive(M7.element(1), 3, rng)
    with pytest.raises(PartyCountMismatch):
        smpm(x3, y7, rng)
    x2 = share_additive(M61.element(1), 2, rng)
    y2 = share_additive(M61.element(1), 2, rng)
    with pytest.raises(TooFewParties):
        smpm(x2, y2, rng)


def test_smpm_shamir_degree_is_floor_half():
    # each party draws `degree` coefficients per polynomial, two polynomials;
    # the scripted rng bounds exhaust exactly when degree = floor((N-1)/2)
    for n in (3, 4, 5):
        degree = (n - 1) // 2
        x = AdditiveShareSet(tuple([1] * n), M7)
        y = AdditiveShareSet(tuple([1] * n), M7)
        script = ScriptedRng([(7, 0)] * (n * 2 * degree))
        smpm(x, y, script)
        assert script.exhausted


def _smpm_per_pair(x, y, rngs, p, degree, lam, phase="smpm"):
    """Reference: every receiver sums the per-pair evaluations it is sent."""
    n = len(x)
    x_sum = [0] * n
    y_sum = [0] * n
    messages = []
    for i in range(1, n + 1):
        cx = _sample_poly(x[i - 1], degree, p, rngs[i - 1])
        cy = _sample_poly(y[i - 1], degree, p, rngs[i - 1])
        for j in range(1, n + 1):
            xj = _eval_poly(cx, j, p)
            yj = _eval_poly(cy, j, p)
            x_sum[j - 1] = (x_sum[j - 1] + xj) % p
            y_sum[j - 1] = (y_sum[j - 1] + yj) % p
            if j != i:
                messages.append(Message(0, phase, i, j, xj))
                messages.append(Message(0, phase, i, j, yj))
    return [lam[j] * x_sum[j] % p * y_sum[j] % p for j in range(n)], messages


@pytest.mark.parametrize("p", [101, MERSENNE_521])
@pytest.mark.parametrize("n", [3, 4, 7, 20])
def test_smpm_phase_one_output_path(n, p):
    # the outputs come from the summed coefficients whether or not messages
    # are recorded, and equal what per-pair evaluation gives mod p
    inputs = random.Random(n)
    x = [inputs.randrange(p) for _ in range(n)]
    y = [inputs.randrange(p) for _ in range(n)]
    degree = (n - 1) // 2
    lam = _lagrange_weights_at_zero_ints(list(range(1, n + 1)), p)

    def streams():
        return [random.Random(f"{n}:{p}:{i}") for i in range(n)]

    # the phase takes each party's coefficients drawn in advance from its
    # stream; the reference draws X's then Y's from the same streams
    coeffs = [_draw(rng, p, 2 * degree) for rng in streams()]
    silent = _smpm_phase(x, y, coeffs, p, lam)
    recorded = []
    loud = _smpm_phase(x, y, coeffs, p, lam, recorded)
    reference, reference_messages = _smpm_per_pair(x, y, streams(), p, degree, lam)
    assert silent == loud
    assert [t % p for t in silent] == reference
    assert len(recorded) == 2 * n * (n - 1)
    assert recorded == reference_messages
    assert sum(silent) % p == sum(x) * sum(y) % p


def _smpa_per_pair(secrets, rngs, p, phase="smpa"):
    """Reference: every receiver adds each share it is sent, reducing each time."""
    n = len(secrets)
    held = [0] * n
    messages = []
    for i in range(1, n + 1):
        drawn = [rngs[i - 1].randrange(p) for _ in range(n - 1)]
        keep = (secrets[i - 1] - sum(drawn)) % p
        receivers = [j for j in range(1, n + 1) if j != i]
        for j, v in zip(receivers, drawn):
            held[j - 1] = (held[j - 1] + v) % p
            messages.append(Message(0, phase, i, j, v))
        held[i - 1] = (held[i - 1] + keep) % p
    return held, messages


@pytest.mark.parametrize("p", [7, MERSENNE_521])
@pytest.mark.parametrize("n", [2, 3, 7, 20])
def test_smpa_phase_matches_per_pair_reference(n, p):
    # shares summed unreduced and reduced once equal a reduction after every
    # addition, whether or not messages are recorded
    secrets = [random.Random(n).randrange(p) for _ in range(n)]

    def streams():
        return [random.Random(f"{n}:{p}:{i}") for i in range(n)]

    dealt = [_draw(rng, p, n - 1) for rng in streams()]
    silent = _smpa_phase(secrets, dealt, p)
    recorded = []
    loud = _smpa_phase(secrets, dealt, p, recorded)
    reference, reference_messages = _smpa_per_pair(secrets, streams(), p)
    assert silent == loud == reference
    assert recorded == reference_messages
    assert len(recorded) == n * (n - 1)
    assert sum(silent) % p == sum(secrets) % p


@pytest.mark.parametrize("p", [7, 101, MERSENNE_61, MERSENNE_521])
@pytest.mark.parametrize("n", [3, 4, 20, 41])
def test_smpm_phase_worst_case_lanes(n, p):
    # every share and coefficient at p - 1 makes each unreduced X(j) as large
    # as it can be; were X's lane too narrow it would carry into Y's
    degree = (n - 1) // 2
    x = y = [p - 1] * n
    # the Lagrange weights at zero for indices 1..n, as signed integers; they
    # need not be field weights (n >= p repeats indices mod 7) to test lanes
    lam = [(-1) ** (j + 1) * math.comb(n, j) for j in range(1, n + 1)]
    if n < p:
        assert [w % p for w in lam] == _lagrange_weights_at_zero_ints(range(1, n + 1), p)
    coeffs = [[p - 1] * (2 * degree)] * n
    reference, _ = _smpm_per_pair(
        x, y, [ScriptedRng([p - 1] * (2 * degree)) for _ in range(n)], p, degree, lam
    )
    assert [t % p for t in _smpm_phase(x, y, coeffs, p, lam)] == reference



@pytest.mark.parametrize("worst", [False, True])
@pytest.mark.parametrize("p", [7, 101, MERSENNE_61, MERSENNE_521])
@pytest.mark.parametrize("n", [3, 4, 7, 20, 41])
def test_smpm_phase_unreduced_outputs(n, p, worst):
    # outputs are left unreduced: each is congruent to the per-pair
    # reference's share and lies inside the bound the docstring states for
    # the signed weights; smpm() reduces its shares into [0, p)
    degree = (n - 1) // 2
    lam = [(-1) ** (j + 1) * math.comb(n, j) for j in range(1, n + 1)]
    bound = math.comb(n, n // 2) * (p * (degree + 1) * n ** (degree + 1)) ** 2
    if worst:
        x = y = [p - 1] * n
        coeffs = [[p - 1] * (2 * degree)] * n
        streams = [ScriptedRng([p - 1] * (2 * degree)) for _ in range(n)]
    else:
        inputs = random.Random(f"{n}:{p}")
        x = [inputs.randrange(p) for _ in range(n)]
        y = [inputs.randrange(p) for _ in range(n)]
        coeffs = [_draw(random.Random(f"{n}:{p}:{i}"), p, 2 * degree) for i in range(n)]
        streams = [random.Random(f"{n}:{p}:{i}") for i in range(n)]
    reference, _ = _smpm_per_pair(x, y, streams, p, degree, lam)
    theta = _smpm_phase(x, y, coeffs, p, lam)
    assert [t % p for t in theta] == reference
    assert all(abs(t) < bound for t in theta)
    if n < p:
        modulus = PrimeModulus(p)
        rng = ScriptedRng([p - 1] * (n * 2 * degree)) if worst else random.Random(n)
        prod, _ = smpm(
            AdditiveShareSet(tuple(x), modulus), AdditiveShareSet(tuple(y), modulus), rng
        )
        assert all(0 <= v < p for v in prod.values)
        assert reconstruct_additive(prod).value == sum(x) * sum(y) % p
