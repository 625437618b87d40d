"""Additive and Shamir secret sharing plus the two MPC subroutines built on them.

Secure multi-party addition (smpa) sums private inputs; secure multi-party
multiplication (smpm) multiplies two additively shared values through one
round of Shamir re-sharing.  Both return the messages exchanged so tests can
inspect exactly what each party saw.

The int-level cores `_smpa_phase` and `_smpm_phase` are the only share loops
in the package: `protocol.run_round` runs them with one rng per party, and
`smpa`/`smpm` run them with a single rng shared by every party.

Party indices run 1..N.  Index 0 is never used: a share at index 0 would be
the secret itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .field import (
    DuplicateIndex,
    FieldElement,
    PrimeModulus,
    _lagrange_weights_at_zero_ints,
)


class TooFewParties(ValueError):
    """Raised when a protocol is run with fewer parties than it supports."""


class MissingShare(ValueError):
    """Raised when reconstruction is attempted with a share absent."""


class InvalidThreshold(ValueError):
    """Raised for Shamir thresholds outside 1 <= k <= N < p."""


class InsufficientShares(ValueError):
    """Raised when fewer than threshold-many shares are supplied."""


class PartyCountMismatch(ValueError):
    """Raised when two share sets disagree on modulus or party set."""


class Message(NamedTuple):
    """One point-to-point send: `sender` gave `value` (an int in Z_p) to `receiver`.

    `edge` is the road whose count the round was computing (0 outside a round).
    """

    edge: int
    phase: str
    sender: int
    receiver: int
    value: int


@dataclass(frozen=True)
class AdditiveShareSet:
    """N-of-N shares: the values sum to the secret mod p.

    `values[i-1]` belongs to party i; None marks a share that was lost.
    """

    values: tuple
    modulus: PrimeModulus

    @property
    def n_parties(self) -> int:
        return len(self.values)

    def drop(self, party: int) -> "AdditiveShareSet":
        vals = list(self.values)
        vals[party - 1] = None
        return AdditiveShareSet(tuple(vals), self.modulus)


@dataclass(frozen=True)
class ShamirShareSet:
    """k-of-N shares: pairs (party index, polynomial value at that index)."""

    points: tuple  # of (index, value) int pairs
    threshold: int
    modulus: PrimeModulus

    def subset(self, indices: Sequence[int]) -> "ShamirShareSet":
        chosen = dict(self.points)
        return ShamirShareSet(
            tuple((i, chosen[i]) for i in indices), self.threshold, self.modulus
        )


# ---------------------------------------------------------------------------
# int-level core: the protocol round runs these on plain ints for speed; the
# public API below wraps the same routines in FieldElement types.
# ---------------------------------------------------------------------------


def _deal_additive(secret: int, n: int, p: int, rng) -> list[int]:
    """Shares for parties 1..N; parties 1..N-1 get fresh uniforms, N the remainder."""
    drawn = [rng.randrange(p) for _ in range(n - 1)]
    last = (secret - sum(drawn)) % p
    return drawn + [last]


def _sample_poly(secret: int, degree: int, p: int, rng) -> list[int]:
    """Coefficients [secret, C_1..C_degree] with the C's uniform on Z_p."""
    return [secret % p] + [rng.randrange(p) for _ in range(degree)]


def _eval_poly(coeffs: Sequence[int], x: int, p: int) -> int:
    # x is a party index, so each step widens the unreduced value by only
    # log2(x) bits; one final reduction is cheaper than one per step
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc % p


def _smpa_phase(secrets, rngs, p, messages=None, edge=0, phase="smpa") -> list:
    """Secure addition: additive shares of sum(secrets), one per party.

    Party i deals shares of secrets[i-1] from rngs[i-1] to the other parties
    in increasing index and keeps the remainder; each party's output is the
    sum of what it holds, added up unreduced and reduced once.  Sends are
    appended to `messages` when given.
    """
    n = len(secrets)
    rows = []
    for i in range(1, n + 1):
        *row, keep = _deal_additive(secrets[i - 1], n, p, rngs[i - 1])
        row.insert(i - 1, keep)  # row[j-1] is what party j holds from party i
        rows.append(row)
        if messages is not None:
            messages.extend(
                Message(edge, phase, i, j, v) for j, v in enumerate(row, 1) if j != i
            )
    return [sum(held) % p for held in zip(*rows)]


def _smpm_phase(x, y, rngs, p, degree, lam, messages=None, edge=0, phase="smpm") -> list:
    """Secure multiplication: additive shares of x*y from additive shares x, y.

    Party i Shamir-shares x[i-1] then y[i-1] with degree-`degree` polynomials
    drawn from rngs[i-1]; `lam` are the Lagrange weights at zero for indices
    1..N, which turn the summed product evaluations into additive shares.

    Evaluation is linear, so what receiver j sums equals the summed
    polynomial evaluated at j: the outputs take one evaluation per receiver
    of the summed coefficients, O(N*degree) Horner steps.  Sends are
    appended to `messages` when given, which adds the O(N^2*degree)
    per-pair evaluations the transcript needs.
    """
    n = len(x)
    cxs, cys = [], []
    for i in range(1, n + 1):
        rng = rngs[i - 1]
        cx = _sample_poly(x[i - 1], degree, p, rng)
        cy = _sample_poly(y[i - 1], degree, p, rng)
        cxs.append(cx)
        cys.append(cy)
        if messages is not None:
            for j in range(1, n + 1):
                if j != i:
                    messages.append(Message(edge, phase, i, j, _eval_poly(cx, j, p)))
                    messages.append(Message(edge, phase, i, j, _eval_poly(cy, j, p)))
    cx_sum = [sum(c) for c in zip(*cxs)]
    cy_sum = [sum(c) for c in zip(*cys)]
    return [
        lam[j - 1] * _eval_poly(cx_sum, j, p) % p * _eval_poly(cy_sum, j, p) % p
        for j in range(1, n + 1)
    ]


def _reconstruct_shamir_ints(points: Sequence[tuple], k: int, p: int) -> int:
    use = list(points)[:k]
    weights = _lagrange_weights_at_zero_ints([i for i, _ in use], p)
    return sum(w * v for w, (_, v) in zip(weights, use)) % p


# ---------------------------------------------------------------------------
# Public sharing operations
# ---------------------------------------------------------------------------


def share_additive(secret: FieldElement, n_parties: int, rng) -> AdditiveShareSet:
    """Split `secret` into N additive shares.

    The first N-1 shares are independent uniforms; the last absorbs the
    remainder so the total is the secret mod p.
    """
    if n_parties < 2:
        raise TooFewParties(f"additive sharing needs >= 2 parties, got {n_parties}")
    vals = _deal_additive(secret.value, n_parties, secret.modulus.p, rng)
    return AdditiveShareSet(tuple(vals), secret.modulus)


def reconstruct_additive(shares: AdditiveShareSet) -> FieldElement:
    """Sum all N shares mod p."""
    if any(v is None for v in shares.values):
        missing = [i + 1 for i, v in enumerate(shares.values) if v is None]
        raise MissingShare(f"shares missing for parties {missing}")
    total = sum(shares.values) % shares.modulus.p
    return FieldElement(total, shares.modulus)


def share_shamir(secret: FieldElement, k: int, n_parties: int, rng) -> ShamirShareSet:
    """Evaluate a random degree-(k-1) polynomial with X(0) = secret at 1..N."""
    p = secret.modulus.p
    if not (1 <= k <= n_parties):
        raise InvalidThreshold(f"need 1 <= k <= N, got k={k}, N={n_parties}")
    if n_parties >= p:
        raise InvalidThreshold(f"party count {n_parties} must be below the modulus {p}")
    coeffs = _sample_poly(secret.value, k - 1, p, rng)
    points = tuple((i, _eval_poly(coeffs, i, p)) for i in range(1, n_parties + 1))
    return ShamirShareSet(points, k, secret.modulus)


def reconstruct_shamir(shares: ShamirShareSet) -> FieldElement:
    """Recover X(0) by Lagrange interpolation over the first k provided points."""
    k = shares.threshold
    if len(shares.points) < k:
        raise InsufficientShares(
            f"need {k} shares, got {len(shares.points)}"
        )
    indices = [i for i, _ in shares.points]
    if len(set(indices)) != len(indices):
        raise DuplicateIndex(f"share indices repeat: {indices}")
    value = _reconstruct_shamir_ints(shares.points, k, shares.modulus.p)
    return FieldElement(value, shares.modulus)


def smpa(
    private_inputs: Sequence[FieldElement], rng
) -> tuple[AdditiveShareSet, list[Message]]:
    """Secure multi-party addition.

    Every party deals additive shares of its input to the others and keeps the
    remainder share for itself; party i's output share is the sum of everything
    it holds.  The output shares form an additive sharing of the input total.
    Dealing order is party 1..N, receivers in increasing index, so runs are
    reproducible from the rng alone.
    """
    n = len(private_inputs)
    if n < 2:
        raise TooFewParties(f"smpa needs >= 2 parties, got {n}")
    modulus = private_inputs[0].modulus
    p = modulus.p
    for x in private_inputs[1:]:
        if x.modulus.p != p:
            raise PartyCountMismatch("inputs use different moduli")

    transcript: list[Message] = []
    held = _smpa_phase(
        [x.value for x in private_inputs], [rng] * n, p, transcript
    )
    return AdditiveShareSet(tuple(held), modulus), transcript


def smpm(
    x_shares: AdditiveShareSet, y_shares: AdditiveShareSet, rng
) -> tuple[AdditiveShareSet, list[Message]]:
    """Secure multi-party multiplication of two additively shared values.

    One communication round: party i Shamir-shares its additive shares x_i and
    y_i with polynomials of degree floor((N-1)/2).  Everyone sums what it
    receives, giving Shamir shares of polynomials X, Y with X(0)=x, Y(0)=y.
    Party i then holds H(i) = X(i)Y(i) for the degree <= N-1 product polynomial
    H, and theta_i = lambda_i * H(i) makes (theta_1..theta_N) an additive
    sharing of x*y.  The outputs come from the summed coefficients, one
    evaluation per party (O(N*h) Horner steps for degree h); the returned
    transcript adds the O(N^2*h) per-pair evaluations of the messages.

    With even N the per-party degree floor((N-1)/2) tolerates one colluder
    fewer than (N-1)/2; the scheme additionally assumes more than half the
    parties do not collude at all.
    """
    n = x_shares.n_parties
    if n != y_shares.n_parties:
        raise PartyCountMismatch(
            f"share sets disagree on party count: {n} vs {y_shares.n_parties}"
        )
    if x_shares.modulus.p != y_shares.modulus.p:
        raise PartyCountMismatch("share sets use different moduli")
    if n < 3:
        raise TooFewParties(f"smpm needs >= 3 parties, got {n}")
    if any(v is None for v in x_shares.values + y_shares.values):
        raise MissingShare("smpm requires all N input shares present")

    p = x_shares.modulus.p
    weights = _lagrange_weights_at_zero_ints(list(range(1, n + 1)), p)
    transcript: list[Message] = []
    theta = _smpm_phase(
        x_shares.values, y_shares.values, [rng] * n, p, (n - 1) // 2, weights, transcript
    )
    return AdditiveShareSet(tuple(theta), x_shares.modulus), transcript
