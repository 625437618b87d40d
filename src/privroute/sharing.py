"""The share loops of the protocol round: secure addition and multiplication.

Secure multi-party addition (`_smpa_phase`) turns private inputs into
additive shares of their sum.  `_share`, the only code that Shamir-shares a
value, has each party share its value and returns what each receiver summed:
a sharing of the values' sum, which its receivers keep.  Secure multi-party
multiplication (`_smpm_phase`) turns two kept sharings into additive shares
of their product, drawing and sending nothing, so a value is shared once
and multiplied as often as needed.  The two dealing loops can append the
messages exchanged, so tests can inspect exactly what each party saw.

The loops do arithmetic only: the dealing loops take the values every party
drew, and their caller draws them with `_draw`.  `protocol.run_round` draws
from one rng per party, two runs per party per edge.

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


def _share(values, coeffs, p, messages=None, edge=0, phase="share") -> list:
    """Shamir sharings of each party's value, summed: a sharing of sum(values).

    Party i shares values[i-1], read only mod p, with a polynomial of degree
    h = floor((N-1)/2) whose coefficients of degree 1..h are coeffs[i-1].
    Its sends, reduced mod p, are appended to `messages` when given: the
    O(N^2*h) per-pair evaluations a transcript needs.  Evaluation is linear,
    so receiver j's sum, element j-1 of the result, is the summed polynomial
    at j: one Horner pass per receiver, O(N*h) steps, left unreduced and
    below p * (h+1) * N^(h+1).  A public combination of sharings is a
    sharing of the combination, which each receiver forms from what it holds.
    """
    n = len(values)
    if messages is not None:
        for i, (v, drawn) in enumerate(zip(values, coeffs), 1):
            poly = [v % p, *drawn]
            messages.extend(
                Message(edge, phase, i, j, _eval_poly(poly, j, p))
                for j in range(1, n + 1) if j != i
            )
    summed = [sum(values) % p, *map(sum, zip(*coeffs))]
    summed.reverse()
    held = []
    for j in range(1, n + 1):
        acc = 0
        for c in summed:
            acc = acc * j + c
        held.append(acc)
    return held


def _smpm_phase(x, y, lam) -> list:
    """Secure multiplication: additive shares of X*Y from kept sharings x and y.

    x[j-1] and y[j-1] are receiver j's points of two degree-h sharings, as
    `_share` returns them or a public combination keeps them.  Their
    products lie on a degree-2h polynomial with X*Y at zero, which `lam`, the
    Lagrange weights at zero for indices 1..N as any congruent integers,
    turn into additive shares (BGW with Gennaro, Rabin & Rabin's degree
    reduction).  Nothing is drawn or sent: a value is shared once and
    multiplied as often as needed, and a coalition of at most h parties
    sees at most h points of each honest dealer's polynomial.

    Output j is lam[j-1] * x[j-1] * y[j-1], unreduced: with the signed
    weights +-C(N, j) and points below p * (h+1) * N^(h+1), its magnitude is
    below C(N, floor(N/2)) * (p * (h+1) * N^(h+1))^2.  The caller reduces a
    share where it leaves its party.  With even N the degree floor((N-1)/2)
    tolerates one colluder fewer than (N-1)/2.
    """
    return [w * a * b for w, a, b in zip(lam, x, y)]
