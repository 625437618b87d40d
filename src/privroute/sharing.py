"""Additive and Shamir secret sharing plus the two MPC subroutines built on them.

Secure multi-party addition (smpa) sums private inputs; secure multi-party
multiplication (smpm) multiplies two additively shared values through one
round of Shamir re-sharing.  Both return the messages exchanged so tests can
inspect exactly what each party saw.

The int-level cores `_smpa_phase` and `_smpm_phase` are the only share loops
in the package.  They do arithmetic only: each takes the values every party
drew, and its caller draws them.  `protocol.run_round` draws from one rng per
party, one run per party per edge; `smpa`/`smpm` draw from a single rng
shared by every party, party by party.

Party indices run 1..N.  Index 0 is never used: a share at index 0 would be
the secret itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
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


def _draw(rng, bound: int, count: int) -> list[int]:
    """The next `count` values of `rng.randrange(bound)`, drawn in one run.

    `randrange(bound)` calls `getrandbits(bound.bit_length())` until a value
    falls below `bound`.  Drawing `count` values at once, dropping the ones
    out of range and drawing replacements keeps the accepted values in stream
    order and stops at the last accepted one, so the values and the rng's
    final state equal those of `count` `randrange` calls.  An rng with only
    `randrange` (the tests' scripted rngs) is called once per value.
    """
    if bound < 1:
        # getrandbits(0) is 0, so the replacements below would never end
        raise ValueError(f"empty range for randrange({bound})")
    getrandbits = getattr(rng, "getrandbits", None)
    if getrandbits is None:
        return [rng.randrange(bound) for _ in range(count)]
    k = bound.bit_length()
    vals = list(map(getrandbits, repeat(k, count)))
    while vals and max(vals) >= bound:
        vals = [v for v in vals if v < bound]
        vals += map(getrandbits, repeat(k, count - len(vals)))
    return vals


def _deal_additive(secret: int, drawn: list[int], p: int) -> list[int]:
    """Shares for parties 1..N: the N-1 drawn uniforms, then the remainder."""
    return drawn + [(secret - sum(drawn)) % p]


def _sample_poly(secret: int, degree: int, p: int, rng) -> list[int]:
    """Coefficients [secret, C_1..C_degree] with the C's uniform on Z_p."""
    return [secret % p] + _draw(rng, p, degree)


def _eval_poly(coeffs: Sequence[int], x: int, p: int) -> int:
    # x is a party index, so each step widens the unreduced value by only
    # log2(x) bits; one final reduction is cheaper than one per step
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc % p


def _smpa_phase(secrets, dealt, p, messages=None, edge=0, phase="smpa") -> list:
    """Secure addition: additive shares of sum(secrets), one per party.

    Party i deals dealt[i-1] (its N-1 uniforms on Z_p) to the other parties
    in increasing index and keeps the remainder; each party's output is the
    sum of what it holds, added up unreduced and reduced once.  Sends are
    appended to `messages` when given.
    """
    n = len(secrets)
    rows = []
    for i in range(1, n + 1):
        *row, keep = _deal_additive(secrets[i - 1], dealt[i - 1], p)
        row.insert(i - 1, keep)  # row[j-1] is what party j holds from party i
        rows.append(row)
        if messages is not None:
            messages.extend(
                Message(edge, phase, i, j, v) for j, v in enumerate(row, 1) if j != i
            )
    return [sum(held) % p for held in zip(*rows)]


def _smpm_phase(x, y, coeffs, p, lam, messages=None, edge=0, phase="smpm") -> list:
    """Secure multiplication: additive shares of x*y from additive shares x, y.

    Party i Shamir-shares x[i-1] then y[i-1] with polynomials of degree
    h = floor((N-1)/2); coeffs[i-1] holds its 2h uniforms on Z_p, X's
    higher coefficients before Y's.  `lam` are the Lagrange weights at zero
    for indices 1..N, as any integers congruent to them mod p (the round
    passes the signed ones, +-C(N, j), which are short); they turn the
    summed product evaluations into additive shares.  The shares x, y are
    read only mod p, so they may be any integers congruent to the shares,
    such as a previous call's outputs.

    Evaluation is linear, so what receiver j sums equals the summed
    polynomial evaluated at j: the outputs take one evaluation per receiver
    of the summed coefficients, O(N*h) Horner steps.  X's and Y's summed
    coefficients share one int, Y's shifted past a lane that holds any
    unreduced X(j) < p * (h+1) * N^(h+1), so one Horner pass gives both.
    Sends are appended to `messages` when given, reduced mod p, which adds
    the O(N^2*h) per-pair evaluations the transcript needs.

    Output j is lam[j-1] * X(j) * Y(j), left unreduced: an integer congruent
    mod p to receiver j's share, negative when lam[j-1] is, and bounded by
    |theta_j| < max|lam| * (p * (h+1) * N^(h+1))^2, which for the signed
    weights is C(N, floor(N/2)) * (p * (h+1) * N^(h+1))^2.  A share is
    reduced where it leaves its party, so the caller reduces before it
    publishes or sends one.
    """
    n = len(x)
    degree = (n - 1) // 2
    if messages is not None:
        for i in range(1, n + 1):
            drawn = coeffs[i - 1]
            cx = [x[i - 1] % p, *drawn[:degree]]
            cy = [y[i - 1] % p, *drawn[degree:]]
            for j in range(1, n + 1):
                if j != i:
                    messages.append(Message(edge, phase, i, j, _eval_poly(cx, j, p)))
                    messages.append(Message(edge, phase, i, j, _eval_poly(cy, j, p)))
    sums = [sum(c) for c in zip(*coeffs)]
    lane = p.bit_length() + ((degree + 1) * n ** (degree + 1)).bit_length()
    mask = (1 << lane) - 1
    packed = [cx + (cy << lane) for cx, cy in zip(sums[:degree], sums[degree:])]
    packed.reverse()
    # the constant terms may be summed before reducing: X(j) moves by a
    # multiple of p, which the final reduction removes
    packed.append(sum(x) % p + (sum(y) % p << lane))
    theta = []
    for j in range(1, n + 1):
        acc = 0
        for c in packed:
            acc = acc * j + c
        theta.append(lam[j - 1] * (acc & mask) * (acc >> lane))
    return theta


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
    p = secret.modulus.p
    vals = _deal_additive(secret.value, _draw(rng, p, n_parties - 1), p)
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
    dealt = [_draw(rng, p, n - 1) for _ in range(n)]
    held = _smpa_phase([x.value for x in private_inputs], dealt, p, transcript)
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
    `_smpm_phase` leaves each theta_i unreduced; the returned shares are
    reduced into [0, p), since they leave the parties here.

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
    coeffs = [_draw(rng, p, 2 * ((n - 1) // 2)) for _ in range(n)]
    transcript: list[Message] = []
    theta = _smpm_phase(x_shares.values, y_shares.values, coeffs, p, weights, transcript)
    return AdditiveShareSet(tuple(t % p for t in theta), x_shares.modulus), transcript
