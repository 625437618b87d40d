"""One round of joint, privacy-preserving traffic-count estimation.

For every edge the participating parties (vehicles) run, in-process:

1. secure addition of their one-hot location bits -> additive shares of the
   true count (additive, so no coalition short of everyone reads a bit),
2. a Shamir sharing of each party's uniform seed summand, of degree
   h = floor((N - 1) / 2): what the receivers sum is a sharing of the joint
   noise seed T, and party j's additive share of T is lam_j * T(j),
3. a Paterson-Stockmeyer evaluation of the quantile polynomial's fixed-point
   coefficients at T (`evaluation_schedule`): secure multiplications give
   shares of T^2..T^k, then Horner in T^k runs over blocks of k coefficients,
   each block a public combination of T^0..T^k that every party forms from
   its own shares, and each Horner step one secure multiplication.  Degree d
   takes (k - 1) + floor((d - 1) / k) products for the k with the fewest:
   4 in place of d - 1 = 6 at d = 7, and 6 in place of 14 at d = 15.  Where
   no k saves one (d <= 3) the schedule is the plain ladder T^2..T^d.
   Every product multiplies two kept sharings.  Each value is Shamir-shared
   once, where it is next used, and its receivers keep what they summed:
   T's sharing is both operands of T^2 and Y of every later power product,
   T^(z-1)'s is X of T^z, and T^k's is Y of every Horner step.  The first
   Horner step's X, the top block, is a public combination of the kept
   sharings of T..T^k, which each receiver forms itself; each later step's
   X is the accumulator, shared before its product.  An edge so runs
   `Schedule.sharings` = max(products, 1) sharings,
4. a local sum of the count share, scaled, and the polynomial share, and a
   broadcast of the resulting theta shares.

Everyone can then sum the broadcast thetas, decode the signed field value and
rescale, yielding count + noise without any party having seen another's
location or the noise seed.  The round's multiplications already assume at
most h colluders (BGW with Gennaro, Rabin & Rabin's degree reduction), and
at most h points of an honest dealer's degree-h seed polynomial show
nothing of its summand, so the seed needs no additive deal before its
Shamir sharing.  Parties are simulated actors; message delivery is a
deterministic in-memory schedule (edge-major, phase order, sender order),
and each party draws from its own stream.  By default every stream is a
`secrets.SystemRandom`, so nothing published can rebuild the shares; a round
`seed` derives reproducible streams instead (for tests and simulation only),
under which relabeling parties permutes nothing but names.  Seeded streams
are plain `random.Random`s, and no rng may serve two parties.

Drawing is split from arithmetic.  For each edge, each party draws in its
stream order: the count-share deals (receivers in increasing index), the
seed summand, then one run holding, for every sharing in schedule order,
its h Shamir coefficients (T's, each power product's X from T^3 on, T^k's,
then each Horner accumulator after the first).  The runs go through
`sharing._draw`, which takes them in one `getrandbits` run with replacement
draws for the values `randrange` would reject, so every party gets the same
values and ends in the same state as with one `randrange` call per value.
An injected rng with only `randrange` (the tests' scripted rngs) is called
per value.  Steps 1-3 then run on the drawn values: `sharing._smpa_phase`
deals the count, `sharing._share` makes every Shamir sharing, and
`sharing._smpm_phase` multiplies two kept sharings, drawing and sending
nothing.  T's sharing is sent under its own phase, `Shamir-seed`, and every
other one under the phase of the product that first uses it.

Shamir evaluation is linear, so each sharing evaluates the sum of the
parties' coefficient vectors once per receiver: O(N*h) Horner steps per
sharing for Shamir degree h, the same values as N^2 per-pair evaluations
would give.  The Lagrange weights enter as their signed values +-C(N, j).
A share is reduced only where it leaves its party: each product's shares
and the kept sharings stay unreduced (the next product reads only their sum
mod p, and the transcript sends them reduced), the top block's sharing is
reduced once as it is formed, and each party's theta, summed from those
unreduced terms, is reduced once before the broadcast.  Recording a
transcript (`record_transcript=True`; off by default, since it holds every
point-to-point share) adds those O(N^2*h) per-pair evaluations, since each
message is one of them.
"""

from __future__ import annotations

import json
import random
import secrets
from dataclasses import dataclass
from operator import mul
from typing import NamedTuple, Optional, Sequence

from .field import PrimeModulus, _lagrange_weights_at_zero_ints
from .laplace import InverseCdfPoly
from .sharing import Message, TooFewParties, _draw, _share, _smpa_phase, _smpm_phase


class InvalidInput(ValueError):
    """Raised for location vectors that are not one-hot (or all-zero)."""


class FullCoalition(ValueError):
    """Raised when a coalition of all parties is asked for its view."""


class DecodeOverflow(ValueError):
    """Raised when a round's field total decodes outside `poly.value_bound`.

    No correct round can get there, so the total either wrapped mod p or a
    share was computed wrongly (which leaves a uniform field element).
    """


PHASE_COUNT = "SMPA-count"
PHASE_SEED = "Shamir-seed"
PHASE_HORNER = "SMPM-horner"
PHASE_BROADCAST = "final-theta-broadcast"


def phase_power(z: int) -> str:
    return f"SMPM-power-{z}"


class Schedule(NamedTuple):
    """The secure products a round runs per edge to evaluate its polynomial.

    The powers T^2..T^k take k - 1 products (phases `SMPM-power-z`), then
    `horner` Horner steps in T^k take one each (phase `SMPM-horner`).  Block
    b holds the coefficients c_bk..c_(bk+k-1), the top block runs on to c_d,
    and Horner starts from the top block.
    """

    k: int
    horner: int

    @property
    def products(self) -> int:
        return self.k - 1 + self.horner

    @property
    def sharings(self) -> int:
        """Shamir sharings per edge: T's, then one per product but T^2's.

        T's sharing, dealt from the seed summands, is both operands of T^2
        and Y of every later power product; T^(z-1)'s is X of T^z; T^k's is
        Y of every Horner step; and the first Horner step's X is formed from
        the kept sharings, so only each later step's accumulator is shared
        fresh.  That is max(products, 1): degree 1 still shares T.
        """
        return max(self.products, 1)


def evaluation_schedule(degree: int) -> Schedule:
    """Paterson-Stockmeyer's schedule for `degree`: the k with the fewest products.

    Block size k takes (k - 1) + floor((d - 1) / k) products, and the
    smallest k wins a tie.  Where no k < d beats the plain ladder T^2..T^d
    (k = d, d - 1 products), which is every d <= 3, the ladder is kept.
    """
    ladder = Schedule(max(degree, 1), 0)
    fewest = min(
        (Schedule(k, (degree - 1) // k) for k in range(1, ladder.k)),
        key=lambda schedule: schedule.products, default=ladder,
    )
    return fewest if fewest.products < ladder.products else ladder


@dataclass(frozen=True)
class PartyInput:
    """A party's location indicator: at most one edge bit set.

    An all-zero vector marks a participant currently outside the tracked
    edges; it still contributes seed randomness and shares.
    """

    party_id: int
    location: tuple

    def __post_init__(self):
        # a float 1.0 or a numpy integer compares equal to 1 but breaks the
        # round's big-integer arithmetic partway through, so demand int 0/1
        if any(not isinstance(b, int) or b not in (0, 1) for b in self.location):
            raise InvalidInput(f"location entries must be the ints 0 or 1: {self.location}")
        if sum(self.location) > 1:
            raise InvalidInput(f"location must be one-hot or zero: {self.location}")

    @classmethod
    def on_edge(cls, party_id: int, edge: int, n_edges: int) -> "PartyInput":
        """The party on `edge`, or off the tracked edges when `edge` is -1."""
        if not -1 <= edge < n_edges:
            raise InvalidInput(f"edge must be -1 or in [0, {n_edges}), got {edge}")
        loc = [0] * n_edges
        if edge >= 0:
            loc[edge] = 1
        return cls(party_id, tuple(loc))


class ProtocolTranscript:
    """Every point-to-point message of one round, in delivery order."""

    def __init__(self, n_parties: int, n_edges: int, degree: int):
        self.n_parties = n_parties
        self.n_edges = n_edges
        self.degree = degree
        self.messages: list[Message] = []

    def expected_messages_per_edge(self) -> int:
        # the count's secure addition, each sharing and the broadcast send n(n-1)
        n, sharings = self.n_parties, evaluation_schedule(self.degree).sharings
        return (2 + sharings) * n * (n - 1)

    def dump_jsonl(self, fileobj) -> None:
        for m in self.messages:
            fileobj.write(
                json.dumps(
                    {"edge": m.edge, "phase": m.phase, "from": m.sender,
                     "to": m.receiver, "value": m.value}
                )
                + "\n"
            )


@dataclass
class RoundResult:
    """Published outcome of one protocol round."""

    noisy_counts: tuple  # floats: decoded, rescaled count + noise per edge
    field_totals: tuple  # raw sum of broadcast thetas mod p, per edge
    transcript: Optional[ProtocolTranscript]


def _block_shares(cs: Sequence[int], powers: list) -> list:
    """Each party's share of the public c_0 + c_1*T + c_2*T^2 + ...

    `powers[z - 1]` holds the parties' shares of T^z.  Each party weights
    its own shares by the coefficients, unreduced; the constant enters once,
    at party 1.
    """
    shares = [sum(map(mul, cs[1:], own)) for own in zip(*powers)]
    shares[0] += cs[0]
    return shares


def _block_sharing(cs: Sequence[int], kept: list, p: int) -> list:
    """The sharing of the public c_0 + c_1*T + c_2*T^2 + ..., reduced mod p.

    `kept[z - 1]` is T^z's sharing.  A public combination of degree-h
    sharings is a degree-h sharing of the combination: receiver j weights
    what it holds, and the constant enters at every receiver.
    """
    return [(cs[0] + sum(map(mul, cs[1:], held))) % p for held in zip(*kept)]


def party_streams(seed: int, n_parties: int) -> list[random.Random]:
    """Independent per-party rngs derived from one round seed.

    Each is a `random.Random` seeded from the round seed and the party
    index.  `run_round` draws from it through `sharing._draw`: per edge, a
    run of count deals, the seed summand, then one run of every sharing's
    Shamir coefficients, with replacement draws for the values `randrange`
    would reject, so a party gets the same values and ends in the same
    state as with one `randrange` call per value.
    """
    return [
        random.Random(f"privroute-round:{seed}:party:{i}") for i in range(1, n_parties + 1)
    ]


def run_round(
    inputs: Sequence[PartyInput],
    poly: InverseCdfPoly,
    *,
    seed: Optional[int] = None,
    rngs: Optional[Sequence] = None,
    record_transcript: bool = False,
) -> RoundResult:
    """Execute one full estimation round across all edges.

    `rngs` injects one rng per party (tests enumerate these), a distinct
    object for each; otherwise the per-party streams are derived from `seed`
    when given, and are independent `secrets.SystemRandom` instances when
    not.  Passing both, the wrong number of rngs or one rng for two parties
    raises `ValueError` before any draw.  An edge whose field total decodes
    beyond `poly.value_bound` raises `DecodeOverflow` instead of publishing
    a wrapped value.  `transcript` is None unless `record_transcript` is
    set: the messages include every point-to-point share, enough to rebuild
    each party's inputs.
    """
    n = len(inputs)
    if n < 3:
        raise TooFewParties(f"secure multiplication needs >= 3 parties, got {n}")
    modulus: PrimeModulus = poly.modulus
    if poly.n_parties != n:
        raise ValueError(
            f"polynomial was fitted for {poly.n_parties} parties, round has {n}"
        )
    m = len(inputs[0].location)
    ids = [inp.party_id for inp in inputs]
    if sorted(ids) != list(range(1, n + 1)):
        raise InvalidInput(f"party ids must be exactly 1..{n}, got {ids}")
    for inp in inputs:
        if len(inp.location) != m:
            raise InvalidInput("location vectors disagree on edge count")
    by_id = {inp.party_id: inp for inp in inputs}

    if rngs is not None and seed is not None:
        raise ValueError("pass seed or rngs, not both: the rngs would ignore the seed")
    if rngs is None:
        if seed is None:
            rngs = [secrets.SystemRandom() for _ in range(n)]
        else:
            rngs = party_streams(seed, n)
    elif len(rngs) != n:
        raise ValueError(f"need one rng per party, got {len(rngs)} for {n} parties")
    elif len({id(rng) for rng in rngs}) != n:
        # parties draw independently; a shared rng would interleave their draws
        raise ValueError("each party needs its own rng; one rng serves two parties")

    pp = modulus.p
    M = poly.seed_range
    d = poly.degree
    scale = poly.scale
    coeffs = poly.field_coeffs  # signed and short; theta mod p is the same
    schedule = evaluation_schedule(d)
    k, horner = schedule
    # at indices 1..N the weights are +-C(N, j): signed, they are short ints
    lam = _lagrange_weights_at_zero_ints(list(range(1, n + 1)), pp)
    lam = [modulus.signed(w) for w in lam]
    transcript = ProtocolTranscript(n, m, d) if record_transcript else None
    messages = None if transcript is None else transcript.messages
    deals = n - 1
    h = (n - 1) // 2  # each sharing's Shamir coefficients per party
    shamir_draws = schedule.sharings * h

    totals = []
    values = []
    for e in range(m):
        # each party's draws for the edge, in its stream order: count deals,
        # seed summand, then every sharing's coefficients in one run
        count_deals, summands, drawn = [], [], []
        for rng in rngs:
            count_deals.append(_draw(rng, pp, deals))
            summands.append(rng.randrange(M))
            drawn.append(_draw(rng, pp, shamir_draws))
        alpha = _smpa_phase(
            [by_id[i].location[e] for i in range(1, n + 1)],
            count_deals, pp, messages, e, PHASE_COUNT,
        )
        runs = ([r[s:s + h] for r in drawn] for s in range(0, shamir_draws, h))
        # each party Shamir-shares its summand: the receivers' sums are T's
        # sharing, and party j's additive share of T is lam_j * T(j)
        t = _share(summands, next(runs), pp, messages, e, PHASE_SEED)
        kept = [t]  # the sharings of T, T^2, ..., each made where first used
        powers = [[w * v for w, v in zip(lam, t)]]  # additive shares
        for z in range(2, k + 1):
            # T^(z-1), shared here, times T; T^2 multiplies T's own sharing
            if z > 2:
                kept.append(_share(powers[-1], next(runs), pp, messages, e, phase_power(z)))
            powers.append(_smpm_phase(kept[-1], t, lam))
        if horner:
            # T^k's sharing is Y of every Horner step.  The first step's X,
            # the top block, is a public combination of the sharings of
            # T..T^k, so each receiver forms it from what it holds; every
            # later X is the accumulator, shared before its product.  Shares
            # are added unreduced and reduced once, where the theta leaves
            # the party
            t_k = _share(powers[-1], next(runs), pp, messages, e, PHASE_HORNER)
            kept.append(t_k)
            x = _block_sharing(coeffs[horner * k:], kept, pp)
            for b in reversed(range(horner)):
                if b < horner - 1:
                    x = _share(acc, next(runs), pp, messages, e, PHASE_HORNER)
                product = _smpm_phase(x, t_k, lam)
                block = _block_shares(coeffs[b * k:b * k + k], powers)
                acc = [v + c for v, c in zip(product, block)]
        else:
            acc = _block_shares(coeffs, powers)
        theta = [(v + scale * a) % pp for v, a in zip(acc, alpha)]
        if messages is not None:
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    if j != i:
                        messages.append(Message(e, PHASE_BROADCAST, i, j, theta[i - 1]))
        total = sum(theta) % pp
        signed = modulus.signed(total)
        if abs(signed) > poly.value_bound:
            raise DecodeOverflow(
                f"edge {e}: field total decodes to {signed}, "
                f"beyond the bound {poly.value_bound}"
            )
        totals.append(total)
        values.append(signed / scale)

    return RoundResult(tuple(values), tuple(totals), transcript)


def coalition_view(
    transcript: ProtocolTranscript, coalition: Sequence[int]
) -> list[Message]:
    """Messages visible to a coalition: its own traffic plus the public thetas.

    Broadcast thetas are public output, so the empty coalition still sees
    them.  A coalition of everyone is rejected: with all randomness pooled
    there is no residual secret to reason about.
    """
    parties = set(coalition)
    everyone = set(range(1, transcript.n_parties + 1))
    if not parties <= everyone:
        raise ValueError(f"unknown parties in coalition: {sorted(parties - everyone)}")
    if parties == everyone:
        raise FullCoalition("coalition of all parties sees everything by definition")
    return [
        m
        for m in transcript.messages
        if m.phase == PHASE_BROADCAST or m.sender in parties or m.receiver in parties
    ]
