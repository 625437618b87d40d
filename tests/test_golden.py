"""Golden pins: exact outputs that refactors of the share loops, the count->time
map or the simulator must leave unchanged.

Every value below was recorded from the implementation before the share
loops and the tau bisection were merged into one copy each; a change here
means trajectories, field totals or transcripts moved.
"""

import hashlib
import random

from privroute.field import MERSENNE_61, MERSENNE_521, PrimeModulus
from privroute.laplace import InverseCdfPoly
from privroute.protocol import PartyInput, run_round
from privroute.sharing import AdditiveShareSet, reconstruct_additive, smpa, smpm
from privroute.sim import SimConfig, run_experiment
from privroute.tntp import load_sioux_falls

M61 = PrimeModulus(MERSENNE_61)
M521 = PrimeModulus(MERSENNE_521)


def trajectory_digest(result) -> str:
    """sha256 over every vehicle's (id, origin, dest, depart, arrival, route)."""
    h = hashlib.sha256()
    for v in result.vehicles:
        route = " ".join(map(str, v.route))
        h.update(f"{v.id},{v.origin},{v.dest},{v.depart!r},{v.arrival!r},{route}\n".encode())
    return h.hexdigest()


def messages_digest(messages, fields) -> str:
    h = hashlib.sha256()
    for m in messages:
        h.update((",".join(str(getattr(m, f)) for f in fields) + "\n").encode())
    return h.hexdigest()


def test_sioux_falls_trajectories_pinned():
    network, od = load_sioux_falls()
    config = SimConfig(demand_multiplier=2.0, seed=1, horizon=600.0)
    _, result_np, result_p = run_experiment(network, od, config)
    assert len(result_np.vehicles) == 19778
    assert trajectory_digest(result_np) == (
        "93ad0531e124b9a4d18224f4bd272bd5b08b9c72620484048c5249f7f0f586e6"
    )
    assert trajectory_digest(result_p) == (
        "1180216909dd1cee30102ff564b722698934fee947abec70fe961db57ccd9696"
    )


def test_seeded_round_pinned():
    poly = InverseCdfPoly.from_field_coeffs(
        [-40, 7, -3, 1], modulus=M521, n_parties=5, seed_range=16, scale_bits=4
    )
    inputs = [PartyInput.on_edge(i + 1, e, 3) for i, e in enumerate([0, 2, 2, -1, 1])]
    result = run_round(inputs, poly, seed=7)
    assert result.field_totals == (29896, 46781, 64157)
    assert result.noisy_counts == (1868.5, 2923.8125, 4009.8125)
    assert len(result.transcript.messages) == 420
    assert messages_digest(
        result.transcript.messages, ("edge", "phase", "sender", "receiver", "value")
    ) == "1ca20ca3fab5c635112d33a3c374b4aed9573644d2b46d01db54ccdd22d71e71"


def test_smpa_pinned():
    shares, transcript = smpa([M61.element(x) for x in (3, 1, 4, 1)], random.Random(0))
    assert shares.values == (
        855478924411929128, 465460045035273429, 829511009286761537, 155393030479729866,
    )
    assert reconstruct_additive(shares).value == 9
    assert messages_digest(transcript, ("sender", "receiver", "value", "phase")) == (
        "4b81bd32646cb26bc00f14766590478898e2d4fa4ebd6ea9d596bc2948de44b2"
    )


def test_smpm_pinned():
    # four parties: the even-N case, Shamir degree floor(3/2) = 1
    x = AdditiveShareSet((5, 11, 2, 9), M61)
    y = AdditiveShareSet((1, 2, 3, 4), M61)
    product, transcript = smpm(x, y, random.Random(0))
    assert product.values == (
        1003270025358259240, 1603516400205827722, 700686151154649769, 1304213441708651441,
    )
    assert reconstruct_additive(product).value == 27 * 10
    assert messages_digest(transcript, ("sender", "receiver", "value", "phase")) == (
        "c44467e8d238438cab8f67ba6678eb70436667d0f33d027b1eb17babdbb290e6"
    )
