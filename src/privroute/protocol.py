"""One round of joint, privacy-preserving traffic-count estimation.

For every edge the participating parties (vehicles) run, in-process:

1. secure addition of their one-hot location bits -> additive shares of the
   true count,
2. secure addition of per-party uniform seed summands -> additive shares of
   the joint noise seed T,
3. a ladder of secure multiplications producing shares of T^2..T^d,
4. a local linear combination with the quantile polynomial's fixed-point
   coefficients, and a broadcast of the resulting theta shares.

Everyone can then sum the broadcast thetas, decode the signed field value and
rescale, yielding count + noise without any party having seen another's
location or the noise seed.  Parties are simulated actors; message delivery
is a deterministic in-memory schedule (edge-major, phase order, sender order),
and each party draws from its own stream.  By default every stream is a
`secrets.SystemRandom`, so nothing published can rebuild the shares; a round
`seed` derives reproducible streams instead (for tests and simulation only),
under which relabeling parties permutes nothing but names.  Seeded streams
are `random.Random`s whose `randrange(n)` is a one-frame copy of the
stdlib's draw (same values, same final state); the share loops call nothing
but `rng.randrange`, so injected test rngs need only that method.

Steps 1-3 run `sharing._smpa_phase` and `sharing._smpm_phase`, the same
int-level cores behind `sharing.smpa`/`smpm`, here with one rng per party.
Per-party draw order, per edge: count-share deals (receivers in increasing
index), seed summand, seed-share deals, then for each power z the Shamir
coefficients for X before Y.  With a single rng shared by all parties this is
exactly the order the exhaustive secrecy tests of `smpa`/`smpm` enumerate.

Shamir evaluation is linear, so each multiplication step evaluates the sum of
the parties' coefficient vectors once per receiver: O(N*h) Horner steps per
power for Shamir degree h, the same shares as N^2 per-pair evaluations would
give.  Recording a transcript adds those O(N^2*h) per-pair evaluations, since
each message is one of them.
"""

from __future__ import annotations

import json
import random
import secrets
from dataclasses import dataclass
from typing import Optional, Sequence

from .field import PrimeModulus, _lagrange_weights_at_zero_ints
from .laplace import InverseCdfPoly
from .sharing import Message, TooFewParties, _smpa_phase, _smpm_phase

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
PHASE_UNIFORM = "SMPA-uniform"
PHASE_BROADCAST = "final-theta-broadcast"


def phase_power(z: int) -> str:
    return f"SMPM-power-{z}"


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

    def phase_counts(self) -> dict:
        counts: dict = {}
        for m in self.messages:
            counts[m.phase] = counts.get(m.phase, 0) + 1
        return counts

    def expected_messages_per_edge(self) -> int:
        n, d = self.n_parties, self.degree
        return 2 * n * (n - 1) + max(d - 1, 0) * 2 * n * (n - 1) + n * (n - 1)

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
    n_parties: int


class _PartyStream(random.Random):
    """A seeded party stream whose `randrange(n)` takes one Python frame.

    The body is CPython's `_randbelow_with_getrandbits`, which the stdlib's
    `randrange(n)` reaches through `_randbelow` after an `_index` call: the
    same `getrandbits(n.bit_length())` calls, redrawn while the value is at
    least n, so the values and the final `getstate()` equal the stdlib's.
    Only the one-argument form exists; a round draws nothing else.
    """

    def randrange(self, n):
        if n <= 0:
            # getrandbits(0) is 0, so the loop below would never end
            raise ValueError(f"empty range for randrange({n})")
        k = n.bit_length()
        r = self.getrandbits(k)
        while r >= n:
            r = self.getrandbits(k)
        return r


def party_streams(seed: int, n_parties: int) -> list[random.Random]:
    """Independent per-party rngs derived from one round seed.

    Each is a `random.Random` seeded from the round seed and the party
    index, drawing exactly the values a plain `random.Random` with that seed
    would; its `randrange(n)` skips the stdlib's argument handling, about
    half of a 521-bit draw's cost, over a round's ~10^5 draws.
    """
    return [
        _PartyStream(f"privroute-round:{seed}:party:{i}") for i in range(1, n_parties + 1)
    ]


def run_round(
    inputs: Sequence[PartyInput],
    poly: InverseCdfPoly,
    *,
    seed: Optional[int] = None,
    rngs: Optional[Sequence] = None,
    record_transcript: bool = True,
) -> RoundResult:
    """Execute one full estimation round across all edges.

    `rngs` injects one rng per party (tests enumerate these); otherwise the
    per-party streams are derived from `seed` when given, and are
    independent `secrets.SystemRandom` instances when not.  An edge whose
    field total decodes beyond `poly.value_bound` raises `DecodeOverflow`
    instead of publishing a wrapped value.
    """
    n = len(inputs)
    if n < 3:
        raise TooFewParties(f"the multiplication ladder needs >= 3 parties, got {n}")
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

    if rngs is None:
        if seed is None:
            rngs = [secrets.SystemRandom() for _ in range(n)]
        else:
            rngs = party_streams(seed, n)
    elif len(rngs) != n:
        raise ValueError(f"need one rng per party, got {len(rngs)} for {n} parties")

    pp = modulus.p
    M = poly.seed_range
    d = poly.degree
    scale = poly.scale
    chat = poly.encoded_coeffs
    shamir_degree = (n - 1) // 2
    lam = _lagrange_weights_at_zero_ints(list(range(1, n + 1)), pp)
    transcript = ProtocolTranscript(n, m, d) if record_transcript else None
    messages = None if transcript is None else transcript.messages

    totals = []
    values = []
    for e in range(m):
        alpha = _smpa_phase(
            [by_id[i].location[e] for i in range(1, n + 1)],
            rngs, pp, messages, e, PHASE_COUNT,
        )
        beta_1 = _smpa_phase(
            [rng.randrange(M) for rng in rngs],
            rngs, pp, messages, e, PHASE_UNIFORM,
        )
        powers = [None, beta_1]
        for z in range(2, d + 1):
            powers.append(
                _smpm_phase(
                    powers[z - 1], beta_1, rngs, pp, shamir_degree, lam,
                    messages, e, phase_power(z),
                )
            )
        theta = []
        for i in range(1, n + 1):
            t = scale * alpha[i - 1] % pp
            if i == 1:
                t = (t + chat[0]) % pp  # constant term enters exactly once
            for z in range(1, d + 1):
                t = (t + chat[z] * powers[z][i - 1]) % pp
            theta.append(t)
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

    return RoundResult(tuple(values), tuple(totals), transcript, n)


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
