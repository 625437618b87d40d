import itertools
import math
import random
from collections import Counter

import pytest

from privroute.field import (
    MERSENNE_61,
    MERSENNE_521,
    DuplicateIndex,
    _lagrange_weights_at_zero_ints,
)
from privroute.sharing import (
    Message,
    _draw,
    _eval_poly,
    _share,
    _smpa_phase,
    _smpm_phase,
)
from conftest import (
    ScriptedRng,
    additive_shares,
    share_and_multiply,
    smpa_one_rng,
    smpm_one_rng,
    x_shares_sent,
)

P61 = MERSENNE_61


# -- additive ---------------------------------------------------------------

def test_share_additive_fixed_rng_last_share():
    # secret 0 with first shares 2, 5 forces the final share to 0 mod 7
    assert additive_shares(0, 3, ScriptedRng([(7, 2), (7, 5)]), 7) == [2, 5, 0]


def test_share_additive_two_parties_definitional():
    for secret in (0, 1, 6):
        s = additive_shares(secret, 2, random.Random(secret), 7)
        assert (s[0] + s[1]) % 7 == secret


def test_share_additive_marginal_uniform_exhaustive():
    # at p=7, N=3 the joint law of (s1, s2) is uniform on Z_7^2 for any secret
    for secret in range(7):
        seen = Counter()
        for a in range(7):
            for b in range(7):
                s = additive_shares(secret, 3, ScriptedRng([a, b]), 7)
                seen[(s[0], s[1])] += 1
        assert len(seen) == 49 and set(seen.values()) == {1}


def test_share_additive_too_few_parties():
    # a lone party's share is its input, and secure addition among one party
    # sends nothing: sharing hides nothing below two parties (the round, which
    # also multiplies, refuses fewer than three; see test_protocol)
    assert additive_shares(4, 1, random.Random(0), 7) == [4]
    sent = []
    assert _smpa_phase([4], [[]], 7, sent) == [4] and sent == []


def test_reconstruct_additive_examples():
    # the shares of 0 dealt with uniforms 2, 5 sum back to 0; five parties
    # adding 1 each hold shares of 5
    assert sum(additive_shares(0, 3, ScriptedRng([2, 5]), 7)) % 7 == 0
    n = 5
    shares = smpa_one_rng([1] * n, random.Random(0), 7)
    assert sum(shares) % 7 == n % 7


def test_additive_round_trip_many():
    rng = random.Random(17)
    for _ in range(1000):
        secret = rng.randrange(P61)
        n = rng.randrange(2, 8)
        assert sum(additive_shares(secret, n, rng, P61)) % P61 == secret


def test_reconstruct_additive_missing_share():
    # without any one share the others cannot rebuild the secret: at p=7,
    # N=3 the sum of the remaining two is uniform whatever the secret
    for dropped in range(3):
        for secret in range(7):
            c = Counter()
            for a in range(7):
                for b in range(7):
                    s = additive_shares(secret, 3, ScriptedRng([a, b]), 7)
                    c[(sum(s) - s[dropped]) % 7] += 1
            assert set(c) == set(range(7)) and set(c.values()) == {7}


def test_additive_subset_secrecy_exhaustive():
    # p <= 11, N <= 4: any proper subset of shares has a secret-independent law
    for p in (7, 11):
        for n in (2, 3, 4):
            draw_space = list(itertools.product(range(p), repeat=n - 1))
            for subset in itertools.chain.from_iterable(
                itertools.combinations(range(n), k) for k in range(1, n)
            ):
                dists = []
                for secret in range(p):
                    c = Counter()
                    for draws in draw_space:
                        s = additive_shares(secret, n, ScriptedRng(draws), p)
                        c[tuple(s[i] for i in subset)] += 1
                    dists.append(c)
                assert all(d == dists[0] for d in dists[1:])


# -- shamir: the shares a dealer sends in a sharing -----------------------------

def test_share_shamir_threshold_one_is_constant():
    # with two parties the Shamir degree is 0: each X share sent is the
    # dealer's own input, which is why multiplication needs three parties
    assert x_shares_sent(4, [], 2, 7) == {2: 4}


def test_share_shamir_fixed_coefficient():
    # X(z) = 4 + 3z over Z_7, sent to parties 2 and 3
    assert x_shares_sent(4, [3], 3, 7) == {2: 3, 3: 6}


def test_share_shamir_single_share_uniform_exhaustive():
    # p=7, N=3 (h=1): each single share sent is uniform regardless of the secret
    for party in (2, 3):
        dists = []
        for secret in range(7):
            c = Counter(x_shares_sent(secret, [c1], 3, 7)[party] for c1 in range(7))
            dists.append(c)
        assert all(d == dists[0] for d in dists[1:])
        assert set(dists[0].values()) == {1}  # exactly uniform


def test_share_shamir_invalid_threshold():
    # party indices must be distinct and nonzero mod p, so the Lagrange
    # weights the round computes refuse N >= p
    assert len(_lagrange_weights_at_zero_ints(range(1, 7), 7)) == 6
    with pytest.raises(ValueError, match="index 0"):
        _lagrange_weights_at_zero_ints(range(1, 8), 7)
    with pytest.raises(DuplicateIndex):
        _lagrange_weights_at_zero_ints(range(1, 9), 7)


def _reconstruct(points, p):
    weights = _lagrange_weights_at_zero_ints([i for i, _ in points], p)
    return sum(w * v for w, (_, v) in zip(weights, points)) % p


def test_reconstruct_shamir_examples():
    assert _reconstruct([(1, 0), (2, 3)], 7) == 4
    assert _reconstruct([(5, 3)], 7) == 3


def test_reconstruct_shamir_all_subsets():
    # any h + 1 of the shares a dealer sends rebuild its input
    rng = random.Random(23)
    for n in (3, 4, 5, 6, 7):
        h = (n - 1) // 2
        secret = rng.randrange(P61)
        sent = x_shares_sent(secret, _draw(rng, P61, h), n, P61)
        for subset in itertools.combinations(sorted(sent.items()), h + 1):
            assert _reconstruct(subset, P61) == secret


def test_reconstruct_shamir_errors():
    # h shares of a degree-h polynomial miss its constant term whenever the
    # top coefficient is nonzero; repeated indices are refused
    for c2 in range(1, 7):
        sent = x_shares_sent(4, [5, c2], 5, 7)  # h = 2
        assert _reconstruct([(2, sent[2]), (3, sent[3])], 7) != 4
    with pytest.raises(DuplicateIndex):
        _reconstruct([(1, 0), (1, 3)], 7)


def test_shamir_below_threshold_secrecy_exhaustive():
    # p <= 11, N <= 5: any h or fewer receivers of a dealer's X shares see a
    # law independent of the dealer's input
    for p, n in itertools.product((7, 11), (3, 4, 5)):
        h = (n - 1) // 2
        draw_space = list(itertools.product(range(p), repeat=h))
        sent = {secret: [x_shares_sent(secret, list(c), n, p) for c in draw_space]
                for secret in range(p)}
        for size in range(1, h + 1):
            for coalition in itertools.combinations(range(2, n + 1), size):
                dists = [
                    Counter(tuple(shares[j] for j in coalition) for shares in sent[secret])
                    for secret in range(p)
                ]
                assert all(d == dists[0] for d in dists[1:])


# -- smpa ---------------------------------------------------------------------

def test_smpa_examples():
    sent = []
    shares = smpa_one_rng([1] * 3, random.Random(0), 7, sent)
    assert sum(shares) % 7 == 3
    assert len(sent) == 3 * 2  # N(N-1) point-to-point sends


def test_smpa_zero_inputs_messages_uniform_exhaustive():
    # all-zero inputs still produce uniformly distributed received messages
    per_msg = [Counter() for _ in range(6)]
    for draws in itertools.product(range(7), repeat=6):
        sent = []
        smpa_one_rng([0] * 3, ScriptedRng(draws), 7, sent)
        for slot, msg in enumerate(sent):
            per_msg[slot][msg.value] += 1
    for c in per_msg:
        assert set(c.values()) == {7 ** 5}  # uniform marginal


def test_smpa_matches_plain_sum():
    rng = random.Random(11)
    for _ in range(1000):
        n = rng.randrange(2, 7)
        inputs = [rng.randrange(P61) for _ in range(n)]
        shares = smpa_one_rng(inputs, rng, P61)
        assert sum(shares) % P61 == sum(inputs) % P61


def test_smpa_view_secrecy_fixed_totals():
    # coalition {1}'s received messages have a law depending on the honest
    # inputs only through their total; honest parties are 2 and 3.  The
    # coalition's own draws add a known constant to everything it later
    # derives, so they are pinned to zero without loss of generality.
    def view_dist(x2, x3):
        c = Counter()
        for draws in itertools.product(range(7), repeat=4):
            sent = []
            smpa_one_rng([0, x2, x3], ScriptedRng([0, 0, *draws]), 7, sent)
            c[tuple(m.value for m in sent if m.receiver == 1)] += 1
        return c

    assert view_dist(1, 2) == view_dist(2, 1) == view_dist(0, 3) == view_dist(3, 0)


def test_smpa_transcript_completeness():
    # every value a party receives appears in the transcript exactly once
    rng = random.Random(2)
    sent = []
    smpa_one_rng([rng.randrange(P61) for _ in range(4)], rng, P61, sent)
    assert len(sent) == 4 * 3
    assert len({(m.sender, m.receiver) for m in sent}) == 12


# -- smpm ---------------------------------------------------------------------

def test_smpm_annihilator():
    rng = random.Random(0)
    x = additive_shares(0, 3, rng, P61)
    y = additive_shares(123456, 3, rng, P61)
    assert sum(smpm_one_rng(x, y, rng, P61)) % P61 == 0


def test_smpm_fixed_shares_example():
    sent = []
    # shares of 4 and of 5
    prod = smpm_one_rng([1, 1, 2], [2, 2, 1], random.Random(9), 101, sent)
    assert sum(prod) % 101 == 20
    assert len(sent) == 2 * 3 * 2  # 2N(N-1)


def test_smpm_random_instances():
    rng = random.Random(31)
    for n in (3, 5, 7):
        for _ in range(170):
            a = rng.randrange(P61)
            b = rng.randrange(P61)
            xs = additive_shares(a, n, rng, P61)
            ys = additive_shares(b, n, rng, P61)
            assert sum(smpm_one_rng(xs, ys, rng, P61)) % P61 == a * b % P61


def test_share_sends_in_the_clear_below_three_parties():
    # below three parties the Shamir degree is 0 and every value is sent in
    # the clear, which is why the round refuses two parties
    sent = []
    assert _share([3, 5], [[], []], 7, sent) == [1, 1]
    assert [m.value for m in sent] == [3, 5]


def test_smpm_shamir_degree_is_floor_half():
    # party i's drawn coefficients are its polynomial's degrees 1..h,
    # h = floor((N-1)/2)
    for n in (3, 4, 5, 6, 7):
        h = (n - 1) // 2
        for k in range(1, h + 1):
            top = [0] * (k - 1) + [1] + [0] * (h - k)
            assert x_shares_sent(0, top, n, MERSENNE_521) == {j: j ** k for j in range(2, n + 1)}


def _smpm_per_pair(x, y, rngs, p, degree, lam, phase="smpm"):
    """Reference: every receiver sums the per-pair evaluations it is sent."""
    n = len(x)
    x_sum = [0] * n
    y_sum = [0] * n
    messages = []
    for i in range(1, n + 1):
        cx = [x[i - 1] % p, *_draw(rngs[i - 1], p, degree)]
        cy = [y[i - 1] % p, *_draw(rngs[i - 1], p, degree)]
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

    # each party's coefficients are drawn in advance from its stream, X's
    # then Y's, as the reference draws them
    coeffs = [_draw(rng, p, 2 * degree) for rng in streams()]
    silent = share_and_multiply(x, y, coeffs, p, lam)
    recorded = []
    loud = share_and_multiply(x, y, coeffs, p, lam, recorded)
    reference, reference_messages = _smpm_per_pair(x, y, streams(), p, degree, lam)
    assert silent == loud
    assert [t % p for t in silent] == reference
    assert len(recorded) == 2 * n * (n - 1)
    assert recorded == reference_messages
    assert sum(silent) % p == sum(x) * sum(y) % p


def _receiver_sums(values, coeffs, p, phase="smpm"):
    """Reference: party i shares values[i-1] with coefficients coeffs[i-1];
    each receiver's sum of the evaluations it is sent, and the sends."""
    n = len(values)
    held = [0] * n
    messages = []
    for i in range(1, n + 1):
        poly = [values[i - 1] % p, *coeffs[i - 1]]
        for j in range(1, n + 1):
            v = _eval_poly(poly, j, p)
            held[j - 1] = (held[j - 1] + v) % p
            if j != i:
                messages.append(Message(0, phase, i, j, v))
    return held, messages


@pytest.mark.parametrize("p", [101, MERSENNE_521])
@pytest.mark.parametrize("n", [3, 4, 7, 20])
def test_smpm_phase_reuses_a_sharing(n, p):
    # x is shared once, then squared and multiplied by x2's sharing with
    # nothing more drawn or sent; each sharing is what per-pair sums give
    rng = random.Random(f"{n}:{p}")
    x = [rng.randrange(p) for _ in range(n)]
    x2 = [rng.randrange(p) for _ in range(n)]
    degree = (n - 1) // 2
    cx = [_draw(rng, p, degree) for _ in range(n)]
    cx2 = [_draw(rng, p, degree) for _ in range(n)]
    lam = _lagrange_weights_at_zero_ints(list(range(1, n + 1)), p)
    sent = []
    kept = _share(x, cx, p, sent)
    square = _smpm_phase(kept, kept, lam)
    shared2 = _share(x2, cx2, p, sent, phase="smpm")
    product = _smpm_phase(shared2, kept, lam)
    held, messages = _receiver_sums(x, cx, p, "share")
    held2, messages2 = _receiver_sums(x2, cx2, p)
    assert [v % p for v in kept] == held
    assert [v % p for v in shared2] == held2
    assert sent == messages + messages2
    assert [t % p for t in square] == [w * v * v % p for w, v in zip(lam, held)]
    assert [t % p for t in product] == [w * a * v % p for w, a, v in zip(lam, held2, held)]
    assert sum(square) % p == sum(x) ** 2 % p
    assert sum(product) % p == sum(x2) * sum(x) % p


def _reuse_view_distribution(x, x2, y, dealer, reuse_x=False, p=7):
    """Exact law of what party 1 receives from `dealer` over two products.

    N = 3 (h = 1).  The first product shares x and y, the second shares x2
    and multiplies it by y's kept sharing.  A product sends nothing, so the
    view is the sends of the three sharings.  Each dealer draws its own
    coefficients and its sends depend on nothing else, so party 1's joint
    view is the product of one such law per honest dealer; the other
    dealer's coefficients are pinned to zero and `dealer`'s are enumerated.
    With `reuse_x` the second product's X sharing reuses the first's
    coefficient: one polynomial's randomness for two different values.
    """
    dist = Counter()
    for a, b, a2 in itertools.product(range(p), repeat=3):
        sent = []
        for values, c in ((x, a), (y, b), (x2, a if reuse_x else a2)):
            _share(values, [[c if i == dealer else 0] for i in (1, 2, 3)], p, sent)
        dist[tuple(m.value for m in sent if m.sender == dealer and m.receiver == 1)] += 1
    return dist


def test_smpm_reused_sharing_secrecy_exhaustive():
    # two products sharing one Y sharing: party 1's view has the same law
    # for every honest split of x, x2 and y with party 1's shares fixed
    splits = [
        ([1, 2, 3], [0, 4, 1], [2, 5, 0]),
        ([1, 0, 5], [0, 1, 4], [2, 1, 4]),
        ([1, 5, 0], [0, 5, 0], [2, 0, 5]),
    ]
    for dealer in (2, 3):
        laws = [_reuse_view_distribution(*split, dealer) for split in splits]
        assert all(law == laws[0] for law in laws[1:])
        assert sum(laws[0].values()) == 7**3
    # negative control: one X sharing for two values shows their difference
    for dealer in (2, 3):
        laws = [
            _reuse_view_distribution(*split, dealer, reuse_x=True) for split in splits
        ]
        assert laws[0] != laws[1] and laws[0] != laws[2]


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
    # every value and coefficient at p - 1 makes each receiver's unreduced
    # `_share` sum as large as it can be: below the p * (h+1) * N^(h+1) that
    # the product bound assumes, within a factor of about h + 1 of it
    # (receiver N's top term alone is N * (p - 1) * N^h), and congruent to
    # the per-pair sums; the product of two such sharings is the per-pair
    # reference's
    h = (n - 1) // 2
    x = y = [p - 1] * n
    # the Lagrange weights at zero for indices 1..n, as signed integers; they
    # need not be field weights (n >= p repeats indices mod 7) to test sums
    lam = [(-1) ** (j + 1) * math.comb(n, j) for j in range(1, n + 1)]
    if n < p:
        assert [w % p for w in lam] == _lagrange_weights_at_zero_ints(range(1, n + 1), p)
    coeffs = [[p - 1] * h] * n
    reference, _ = _smpm_per_pair(
        x, y, [ScriptedRng([p - 1] * (2 * h)) for _ in range(n)], p, h, lam
    )
    sharing = _share(x, coeffs, p)
    held, _ = _receiver_sums(x, coeffs, p)
    assert [v % p for v in sharing] == held
    assert (p - 1) * n ** (h + 1) <= max(sharing) < p * (h + 1) * n ** (h + 1)
    assert [t % p for t in _smpm_phase(sharing, sharing, lam)] == reference


@pytest.mark.parametrize("worst", [False, True])
@pytest.mark.parametrize("p", [7, 101, MERSENNE_61, MERSENNE_521])
@pytest.mark.parametrize("n", [3, 4, 7, 20, 41])
def test_smpm_phase_unreduced_outputs(n, p, worst):
    # outputs are left unreduced: each is congruent to the per-pair
    # reference's share and lies inside the bound the docstring states for
    # the signed weights; reduced, they are shares of the product
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
    theta = share_and_multiply(x, y, coeffs, p, lam)
    assert [t % p for t in theta] == reference
    assert all(abs(t) < bound for t in theta)
    if n < p:
        rng = ScriptedRng([p - 1] * (n * 2 * degree)) if worst else random.Random(n)
        prod = smpm_one_rng(x, y, rng, p)
        assert all(0 <= v < p for v in prod)
        assert sum(prod) % p == sum(x) * sum(y) % p
