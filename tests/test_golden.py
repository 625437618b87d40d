"""Golden pins: exact outputs that refactors of the share loops, the count->time
map or the simulator must leave unchanged.

Every value below was recorded from an earlier implementation: the first
Sioux Falls pair, the round and smpa/smpm before the share loops and the tau
bisection were merged into one copy each, the other simulator pins before the
event loop moved onto plain lists and per-step exit buckets, the MPC run
while its degree and seed bits were still config fields, the round at the
benchmark's shape before seeded party streams drew through their own
`randrange` and the share loops reduced once per party.  A change here
means trajectories, field totals or transcripts moved.
"""

import hashlib
import random

import pytest

from privroute.field import MERSENNE_61, MERSENNE_521, PrimeModulus
from privroute.laplace import InverseCdfPoly
from privroute.protocol import PartyInput, run_round
from privroute.sharing import AdditiveShareSet, reconstruct_additive, smpa, smpm
from privroute.roadnet import DelayFunction, Edge, RoadNetwork
from privroute.sim import SimConfig, Simulation, run_experiment
from privroute.tntp import OdDemand, load_sioux_falls

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


# non-private and private digests of the seed-1 600 s pair (multiplier 2.0)
SIOUX_FALLS_SEED_1 = (
    "93ad0531e124b9a4d18224f4bd272bd5b08b9c72620484048c5249f7f0f586e6",
    "1180216909dd1cee30102ff564b722698934fee947abec70fe961db57ccd9696",
)


def test_sioux_falls_trajectories_pinned():
    network, od = load_sioux_falls()
    config = SimConfig(demand_multiplier=2.0, seed=1, horizon=600.0)
    _, result_np, result_p = run_experiment(network, od, config)
    assert len(result_np.vehicles) == 19778
    assert (trajectory_digest(result_np), trajectory_digest(result_p)) == SIOUX_FALLS_SEED_1


def test_sioux_falls_warm_tau_tables_pinned():
    # every run on one network shares its tau tables; a second pair reads
    # tables the first one grew and must neither change nor extend them
    network, od = load_sioux_falls()
    config = SimConfig(demand_multiplier=2.0, seed=1, horizon=600.0)
    digests, lengths = [], []
    for _ in range(2):
        _, result_np, result_p = run_experiment(network, od, config)
        digests.append((trajectory_digest(result_np), trajectory_digest(result_p)))
        lengths.append([len(t) for t in network.tau_by_count])
    assert digests == [SIOUX_FALLS_SEED_1] * 2
    assert lengths[1] == lengths[0]


# seed -> (vehicles, non-private digest, private digest) of the same 600 s pair
SIOUX_FALLS_MORE_SEEDS = {
    2: (19932, "7aefc87f8b587ad2a21fefc0e603c92755d9c0cccc4d3b95345b81884a924c5c",
        "64e6bdfea62958595ca619041bde495ce4c72ba15661727c0e7971cad18dafe0"),
    3: (20200, "8ba5ea685b152a2321aaaa3d345b8ffb8817f38831a072cc4836b4e51da79e1d",
        "0d60289e879a67cfedef73428843415d5f85cfaa050e5d95345f04c5d20336e8"),
}


@pytest.mark.parametrize("seed", sorted(SIOUX_FALLS_MORE_SEEDS))
def test_sioux_falls_trajectories_pinned_more_seeds(seed):
    n_vehicles, digest_np, digest_p = SIOUX_FALLS_MORE_SEEDS[seed]
    network, od = load_sioux_falls()
    config = SimConfig(demand_multiplier=2.0, seed=seed, horizon=600.0)
    _, result_np, result_p = run_experiment(network, od, config)
    assert len(result_np.vehicles) == n_vehicles
    assert trajectory_digest(result_np) == digest_np
    assert trajectory_digest(result_p) == digest_p


def _short_edge_network():
    # free-flow times below the 10 s timestep, all exact binary fractions, so
    # vehicles cross several edges per step and empty-road exits land on
    # step boundaries and tie with each other
    spec = [(1, 3, 5.0, 0.5), (2, 3, 5.0, 0.5), (3, 4, 2.5, 0.2), (4, 5, 2.5, 0.2),
            (3, 5, 6.0, 0.5), (5, 6, 2.5, 1.0), (6, 1, 3.0, 1.0), (6, 2, 3.0, 1.0)]
    edges = [Edge(i, u, v, DelayFunction(t0=t0, capacity=cap))
             for i, (u, v, t0, cap) in enumerate(spec)]
    return RoadNetwork(range(1, 7), edges)


SHORT_EDGE_DIGESTS = {
    "non-private": "637a2dd2dfc155612a031f0009b57f5747ef2cef3535c06acfb4b0469e89851e",
    "private": "aa1b20d227cc7b31d724fe754f4e07447220a6d5147bcbcf404f89d63409e82d",
}


@pytest.mark.parametrize("mode", sorted(SHORT_EDGE_DIGESTS))
def test_short_edges_tied_and_boundary_exits_pinned(mode):
    od = OdDemand({(1, 6): 360.0, (2, 6): 180.0, (1, 5): 360.0, (2, 4): 180.0, (6, 3): 360.0})
    config = SimConfig(mode=mode, epsilon=0.5, horizon=300.0, refresh_period=30.0,
                       demand_multiplier=6.0, seed=11, debug_checks=True)
    sim = Simulation(_short_edge_network(), od, config)
    sim.inject(1, 5, 0.0)
    sim.inject(2, 5, 0.0)
    sim.inject(1, 6, 7.5)
    result = sim.run()
    assert len(result.vehicles) == 132
    assert sim.step_index == 31
    assert trajectory_digest(result) == SHORT_EDGE_DIGESTS[mode]

    # vehicles 0 and 1 both leave their empty first edge at exactly 5.0; the
    # lower id pops first and so enters the shared next edge while it is empty
    v0, v1 = result.vehicles[:2]
    assert v0.entry_times[1] == v1.entry_times[1] == 5.0
    if mode == "non-private":
        assert (v0.entry_times, v0.arrival) == ([0.0, 5.0, 7.5], 10.0)
        assert v1.entry_times[2] == 8.721677210783987

    # the run really covers what it pins: exits on step boundaries, three or
    # more edge entries within one step, and exits tied in time
    step = config.timestep
    exits = [x for v in result.vehicles
             for x in v.entry_times[1:] + [v.arrival] if x is not None]
    assert any(x > 0 and x % step == 0 for x in exits)
    assert any(a // step == b // step
               for v in result.vehicles for a, b in zip(v.entry_times, v.entry_times[2:]))
    assert len(set(exits)) < len(exits)


def _triangle():
    # 1 -> 2 -> 3 with a slower direct 1 -> 3
    edges = [Edge(i, u, v, DelayFunction(t0=t0, capacity=10.0))
             for i, (u, v, t0) in enumerate([(1, 2, 60.0), (2, 3, 60.0), (1, 3, 180.0)])]
    return RoadNetwork([1, 2, 3], edges)


# the triangle's 240 s private run with full-protocol noise at the default
# MPC degree and seed bits: 41 vehicles, five refreshes run a round.  The
# noise there moves no route, so the rounds' noisy counts are pinned as well:
# they change with the degree or the seed bits.
MPC_TRIANGLE_DIGEST = "aaf380c4c819f2956d52eaf1b168836397abd2e070a195506530bee28cd07a81"
MPC_TRIANGLE_NOISY_DIGEST = "4aa69676711993bb09941bf47a1a88875484f4d12c2088684f12f58bc4b00155"


def test_mpc_noise_trajectories_pinned(monkeypatch):
    rounds, noisy = [], []

    def counting_round(*args, **kwargs):
        rounds.append(len(args[0]))
        result = run_round(*args, **kwargs)
        noisy.append(result.noisy_counts)
        return result

    monkeypatch.setattr("privroute.sim.run_round", counting_round)
    od = OdDemand({(1, 3): 400.0, (2, 3): 200.0})
    config = SimConfig(mode="private", noise="mpc", epsilon=0.5, horizon=240.0, seed=2,
                       demand_multiplier=6.0, refresh_period=60.0)
    result = Simulation(_triangle(), od, config).run()
    assert rounds == [11, 16, 15, 17, 5]
    assert len(result.vehicles) == 41 and result.n_incomplete == 0
    assert trajectory_digest(result) == MPC_TRIANGLE_DIGEST
    assert hashlib.sha256(repr(noisy).encode()).hexdigest() == MPC_TRIANGLE_NOISY_DIGEST


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


def test_seeded_round_pinned_at_benchmark_shape():
    # round_sf's party count and degree: even n (Shamir degree 9), and 16 seed
    # bits, so randrange(2**16) draws 17 bits and rejects about half of them
    poly = InverseCdfPoly.from_field_coeffs(
        [-40, 7, -3, 1, 5, -2, 1, 3], modulus=M521, n_parties=20, seed_range=2**16,
        scale_bits=4,
    )
    assert poly.degree == 7
    inputs = [PartyInput.on_edge(i + 1, i % 5 - 1, 4) for i in range(20)]
    result = run_round(inputs, poly, seed=2026, record_transcript=False)
    assert result.field_totals == (
        207237358748080318132383021236861959457076,
        115628929086512470243767347476497504866658,
        103046254974865046505928986239651393989014,
        104964537126871211906034197682767017469124,
    )


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
