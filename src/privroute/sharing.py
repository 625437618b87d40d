"""The share loops of the protocol round: secure addition and multiplication.

Secure multi-party addition (`_smpa_phase`) turns private inputs into
additive shares of their sum.  `_share` Shamir-shares each party's value and
returns what the receivers summed, a `Sharing` of the values' sum.  Secure
multi-party multiplication (`_smpm_phase`) turns two operands, each either
additive shares (shared fresh) or a `Sharing` (reused, with nothing drawn or
sent), into additive shares of their product through one round of Shamir
re-sharing, and returns both operands' sharings so that a later product can
multiply by either again.  Each can append the messages exchanged, so tests
can inspect exactly what each party saw.

The loops do arithmetic only: each takes the values every party drew, and
its caller draws them with `_draw`.  `protocol.run_round` draws from one rng
per party, two runs per party per edge.

Party indices run 1..N.  Index 0 is never used: a share at index 0 would be
the secret itself.
"""

from __future__ import annotations

from itertools import repeat
from typing import NamedTuple, Sequence


class TooFewParties(ValueError):
    """Raised when a protocol is run with fewer parties than it supports."""


class Message(NamedTuple):
    """One point-to-point send: `sender` gave `value` (an int in Z_p) to `receiver`.

    `edge` is the road whose count the round was computing (0 outside a round).
    """

    edge: int
    phase: str
    sender: int
    receiver: int
    value: int


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


class Sharing(NamedTuple):
    """A Shamir sharing kept for reuse: `held[j-1]` is what receiver j summed.

    Receiver j holds the sum of the dealers' polynomials at j, unreduced: an
    integer congruent mod p to the summed polynomial's value there.  A later
    `_smpm_phase` multiplies by it again without drawing or sending anything,
    and a public combination of sharings is a sharing of the same degree,
    which each receiver forms from what it holds.
    """

    held: list


def _send(operands, coeffs, p, messages, edge, phase) -> None:
    """Append the sends of Shamir-sharing each operand's additive shares.

    Party i's polynomial for operand s is operands[s][i-1] with the
    coefficients coeffs[i-1][s*h:(s+1)*h] as degrees 1..h; each pair's
    messages go in operand order, reduced mod p.  These are the O(N^2*h)
    per-pair evaluations a transcript needs.
    """
    n = len(operands[0])
    h = (n - 1) // 2
    for i in range(1, n + 1):
        drawn = coeffs[i - 1]
        polys = [[v[i - 1] % p, *drawn[s * h:(s + 1) * h]] for s, v in enumerate(operands)]
        for j in range(1, n + 1):
            if j != i:
                messages.extend(
                    Message(edge, phase, i, j, _eval_poly(c, j, p)) for c in polys
                )


def _summed(values, coeffs, p) -> Sharing:
    """What each receiver sums when party i shares values[i-1] with coeffs[i-1].

    Evaluation is linear, so receiver j's sum is the summed polynomial at j:
    one Horner pass per receiver over the summed coefficients, O(N*h) steps.
    The constant terms may be summed before reducing, since X(j) then moves
    by a multiple of p.  With every input below p, each unreduced X(j) is
    below p * (h+1) * N^(h+1).
    """
    packed = [sum(values) % p, *map(sum, zip(*coeffs))]
    packed.reverse()
    held = []
    for j in range(1, len(values) + 1):
        acc = 0
        for c in packed:
            acc = acc * j + c
        held.append(acc)
    return Sharing(held)


def _share(values, coeffs, p, messages=None, edge=0, phase="share") -> Sharing:
    """Shamir sharings of each party's value, summed: a sharing of sum(values).

    Party i shares values[i-1] with a polynomial of degree h = floor((N-1)/2)
    whose higher coefficients are coeffs[i-1][:h].  `values` are read only
    mod p.  Sends are appended to `messages` when given.
    """
    if messages is not None:
        _send([values], coeffs, p, messages, edge, phase)
    return _summed(values, coeffs, p)


def _smpm_phase(x, y, coeffs, p, lam, messages=None, edge=0, phase="smpm") -> tuple:
    """Secure multiplication: additive shares of x*y, and both operands' sharings.

    Each operand is either
      - additive shares, which party i Shamir-shares with a polynomial of
        degree h = floor((N-1)/2): x's with the higher coefficients
        coeffs[i-1][:h], and y's, when y is fresh too, with the next h; or
      - a `Sharing`, which costs no draws and no messages: one an earlier
        call or `_share` returned, or a public combination of such.
    So x*x is `(s, s)` for x's sharing s.  The call returns the product's
    shares with the sharings of x and y, so a value is shared once and
    multiplied as often as needed (BGW; Gennaro, Rabin & Rabin's degree
    reduction).  A coalition of at most h parties then still sees at most h
    points of each honest dealer's polynomial.

    `lam` are the Lagrange weights at zero for indices 1..N, as any integers
    congruent to them mod p (the round passes the signed ones, +-C(N, j),
    which are short); they turn the products of the receivers' sums into
    additive shares.  Additive shares are read only mod p, so they may be
    any integers congruent to the shares, such as a previous call's outputs.
    Sends are appended to `messages` when given, reduced mod p and, where
    both operands are fresh, X's before Y's for each pair.

    Output j is lam[j-1] * X(j) * Y(j), left unreduced: an integer congruent
    mod p to receiver j's share, negative when lam[j-1] is.  With each X(j)
    and Y(j) below p * (h+1) * N^(h+1), as `_summed` gives and a reduced
    combination keeps, |theta_j| < max|lam| * (p * (h+1) * N^(h+1))^2, which
    for the signed weights is C(N, floor(N/2)) * (p * (h+1) * N^(h+1))^2.  A
    share is reduced where it leaves its party, so the caller reduces before
    it publishes or sends one.

    With even N the degree floor((N-1)/2) tolerates one colluder fewer than
    (N-1)/2; the scheme additionally assumes more than half the parties do
    not collude at all.
    """
    fresh = [v for v in (x, y) if not isinstance(v, Sharing)]
    if fresh and messages is not None:
        _send(fresh, coeffs, p, messages, edge, phase)
    h = (len(lam) - 1) // 2
    made = iter([
        _summed(v, [c[s * h:(s + 1) * h] for c in coeffs], p) for s, v in enumerate(fresh)
    ])
    x, y = (v if isinstance(v, Sharing) else next(made) for v in (x, y))
    return [w * a * b for w, a, b in zip(lam, x.held, y.held)], (x, y)
