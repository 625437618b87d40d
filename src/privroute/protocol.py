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
and each party draws from its own seeded stream so runs are reproducible and
relabeling parties permutes nothing but names.

Steps 1-3 run `sharing._smpa_phase` and `sharing._smpm_phase`, the same
int-level cores behind `sharing.smpa`/`smpm`, here with one rng per party.
Per-party draw order, per edge: count-share deals (receivers in increasing
index), seed summand, seed-share deals, then for each power z the Shamir
coefficients for X before Y.  With a single rng shared by all parties this is
exactly the order the exhaustive secrecy tests of `smpa`/`smpm` enumerate.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Optional, Sequence

from .field import PrimeModulus, _lagrange_weights_at_zero_ints
from .laplace import InverseCdfPoly
from .sharing import Message, TooFewParties, _smpa_phase, _smpm_phase

#: Transcript entries are `sharing.Message`s; the old name stays importable.
EdgeMessage = Message


class InvalidInput(ValueError):
    """Raised for location vectors that are not one-hot (or all-zero)."""


class FullCoalition(ValueError):
    """Raised when a coalition of all parties is asked for its view."""


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
        if any(b not in (0, 1) for b in self.location):
            raise InvalidInput(f"location entries must be 0/1: {self.location}")
        if sum(self.location) > 1:
            raise InvalidInput(f"location must be one-hot or zero: {self.location}")

    @classmethod
    def on_edge(cls, party_id: int, edge: int, n_edges: int) -> "PartyInput":
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
    seed: Optional[int]


def party_streams(seed: int, n_parties: int) -> list[random.Random]:
    """Independent per-party rngs derived from one round seed."""
    streams = []
    for i in range(1, n_parties + 1):
        r = random.Random()
        r.seed(f"privroute-round:{seed}:party:{i}", version=2)
        streams.append(r)
    return streams


def run_round(
    inputs: Sequence[PartyInput],
    poly: InverseCdfPoly,
    p: Optional[int] = None,
    *,
    seed: Optional[int] = None,
    rngs: Optional[Sequence] = None,
    record_transcript: bool = True,
) -> RoundResult:
    """Execute one full estimation round across all edges.

    `rngs` injects one rng per party (tests enumerate these); otherwise the
    per-party streams are derived from `seed`.
    """
    n = len(inputs)
    if n < 3:
        raise TooFewParties(f"the multiplication ladder needs >= 3 parties, got {n}")
    modulus: PrimeModulus = poly.modulus
    if p is not None and p != modulus.p:
        raise ValueError(f"modulus mismatch: round p={p}, polynomial p={modulus.p}")
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
            seed = random.SystemRandom().randrange(2**63)
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
        totals.append(total)
        values.append(modulus.signed(total) / scale)

    return RoundResult(tuple(values), tuple(totals), transcript, n, seed)


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
