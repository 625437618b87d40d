"""The share loops of the protocol round: secure addition and multiplication.

Secure multi-party addition (`_smpa_phase`) turns private inputs into
additive shares of their sum; secure multi-party multiplication
(`_smpm_phase`) turns additive shares of x and y into additive shares of x*y
through one round of Shamir re-sharing, and returns y's sharing (a
`Sharing`) so that a later product can multiply by y again without sharing
it anew.  Both can append the messages exchanged, so tests can inspect
exactly what each party saw.

The loops do arithmetic only: each takes the values every party drew, and
its caller draws them with `_draw`.  `protocol.run_round` draws from one rng
per party, one run per party per edge.

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
    `_smpm_phase` multiplies by it again without drawing or sending anything.
    """

    held: list


def _smpm_phase(x, y, coeffs, p, lam, messages=None, edge=0, phase="smpm") -> tuple:
    """Secure multiplication: additive shares of x*y, and y's Shamir sharing.

    Party i Shamir-shares x[i-1] with a polynomial of degree
    h = floor((N-1)/2) whose higher coefficients are coeffs[i-1][:h].  `y`
    is one of
      - additive shares, which party i shares the same way with the next h
        coefficients, coeffs[i-1][h:2h];
      - a `Sharing` that an earlier call returned: it costs no draws and no
        messages;
      - None, for x*x: x's sharing serves as both operands.
    The call returns y's sharing (x's, for a square) with the product, so
    a value is shared once and multiplied as often as needed (BGW; Gennaro,
    Rabin & Rabin's degree reduction).  A coalition of at most h parties
    then still sees at most h points of each honest dealer's polynomial.

    `lam` are the Lagrange weights at zero for indices 1..N, as any integers
    congruent to them mod p (the round passes the signed ones, +-C(N, j),
    which are short); they turn the products of the receivers' sums into
    additive shares.  The shares x, y are read only mod p, so they may be
    any integers congruent to the shares, such as a previous call's outputs.

    Evaluation is linear, so what receiver j sums equals the summed
    polynomial evaluated at j: a sharing takes one evaluation per receiver
    of the summed coefficients, O(N*h) Horner steps.  When y is shared too,
    X's and Y's sums share one int, Y's shifted past a lane that holds any
    unreduced X(j) < p * (h+1) * N^(h+1), so one Horner pass gives both.
    Sends are appended to `messages` when given, reduced mod p and X's
    before Y's for each pair, which adds the O(N^2*h) per-pair evaluations
    the transcript needs.

    Output j is lam[j-1] * X(j) * Y(j), left unreduced: an integer congruent
    mod p to receiver j's share, negative when lam[j-1] is, and bounded by
    |theta_j| < max|lam| * (p * (h+1) * N^(h+1))^2, which for the signed
    weights is C(N, floor(N/2)) * (p * (h+1) * N^(h+1))^2.  A share is
    reduced where it leaves its party, so the caller reduces before it
    publishes or sends one.

    With even N the degree floor((N-1)/2) tolerates one colluder fewer than
    (N-1)/2; the scheme additionally assumes more than half the parties do
    not collude at all.
    """
    n = len(x)
    degree = (n - 1) // 2
    shared = [x] if y is None or isinstance(y, Sharing) else [x, y]
    if messages is not None:
        for i in range(1, n + 1):
            drawn = coeffs[i - 1]
            polys = [[v[i - 1] % p, *drawn[s * degree:(s + 1) * degree]]
                     for s, v in enumerate(shared)]
            for j in range(1, n + 1):
                if j != i:
                    messages.extend(
                        Message(edge, phase, i, j, _eval_poly(c, j, p)) for c in polys
                    )
    # the constant terms may be summed before reducing: X(j) moves by a
    # multiple of p, which the final reduction removes
    sums = [sum(c) for c in zip(*coeffs)]
    packed = [sum(x) % p, *sums[:degree]]
    lane = p.bit_length() + ((degree + 1) * n ** (degree + 1)).bit_length()
    if len(shared) == 2:
        packed = [cx + (cy << lane) for cx, cy in zip(packed, [sum(y) % p, *sums[degree:]])]
    packed.reverse()
    held = []
    for j in range(1, n + 1):
        acc = 0
        for c in packed:
            acc = acc * j + c
        held.append(acc)
    if y is None:
        y = Sharing(held)
    elif len(shared) == 2:
        mask = (1 << lane) - 1
        y = Sharing([v >> lane for v in held])
        held = [v & mask for v in held]
    return [w * a * b for w, a, b in zip(lam, held, y.held)], y
