"""Golden pins: exact outputs that refactors of the share loops, the count->time
map or the simulator must leave unchanged.

Every value below was recorded from an earlier implementation: the first
Sioux Falls pair and secure addition and multiplication before the share
loops and the tau bisection were merged into one copy each, the other
simulator pins before the event loop moved onto plain lists and per-step
exit buckets, the MPC run's trajectories while its degree and seed bits were
still config fields, the two seeded rounds and the MPC run's noisy counts
when each party first Shamir-shared its seed summand directly, the fitted
polynomials at the benchmark's two round shapes while the fit still checked
2^521 - 1 with Miller-Rabin, the first pair's entry times and metrics while
each vehicle still kept its own entry-time list, the `simulate --trace`
vehicle CSVs while each run still kept a list of `Vehicle` objects, the
7,200 s baseline pair's column bytes while each vehicle still routed on its
own, that pair's entry counts when the run first stored them in place of
entry times, and a degree-7 round's transcript while the secure product
could still Shamir-share a fresh operand itself.  A change here means trajectories, entry times, metrics, vehicle
CSVs, column bytes, field totals, transcripts or fitted coefficients moved.
"""

import hashlib
import math
import random
from array import array
from importlib import resources

import numpy as np
import pytest

from privroute.cli import main
from privroute.field import MERSENNE_61, MERSENNE_521, PrimeModulus
from privroute.laplace import InverseCdfPoly, LaplaceParams, fit_inverse_cdf_poly
from privroute.protocol import PartyInput, run_round
from privroute.roadnet import DelayFunction, Edge, RoadNetwork
from privroute.sim import SimConfig, Simulation, run_experiment
from privroute.tntp import OdDemand, load_sioux_falls
from conftest import InjectingSimulation, smpa_one_rng, smpm_one_rng

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


# the same pair's entry times (sha256 over each vehicle's repr(entry_times),
# non-private run then private, about 2.8k vehicles per run still in transit
# at the drain limit) and its metrics (sha256 of repr(Metrics.as_dict()))
SIOUX_FALLS_SEED_1_ENTRIES = "a39f5ee5b529e90c2381fb64980098b1ecd153d01ccd1bcb15fa5fb082df0978"
SIOUX_FALLS_SEED_1_METRICS = "91b393153bb79782b739d864843ace19c90c3c8e9927537db073f91fda2afd5b"


def test_sioux_falls_entry_times_and_metrics_pinned():
    network, od = load_sioux_falls()
    config = SimConfig(demand_multiplier=2.0, seed=1, horizon=600.0)
    metrics, result_np, result_p = run_experiment(network, od, config)
    assert result_np.n_incomplete > 1000
    h = hashlib.sha256()
    for result in (result_np, result_p):
        for v in result.vehicles:
            h.update((repr(v.entry_times) + "\n").encode())
    assert h.hexdigest() == SIOUX_FALLS_SEED_1_ENTRIES
    key = repr(metrics.as_dict()).encode()
    assert hashlib.sha256(key).hexdigest() == SIOUX_FALLS_SEED_1_METRICS


# sha256 of the vehicle CSVs `simulate --trace` writes for a 300 s Sioux
# Falls pair (multiplier 2.0, seed 1): 9,952 vehicles per run, 5,604 of them
# still in transit at the drain limit, so blank arrivals are covered
SIOUX_FALLS_CSV = {
    "nonprivate": "e873823c89cc286767211462941baf57b0b8d87ed89bdd41a730d26ef1ad4169",
    "private": "d92c69085167ae5948e0a9104ce4a86fe9ad6add5a8afc9d436670e0f5b632f8",
}


def test_sioux_falls_trace_csv_pinned(tmp_path):
    data = resources.files("privroute.data")
    assert main([
        "simulate", "--net", str(data / "siouxfalls_net.tntp"),
        "--trips", str(data / "siouxfalls_trips.tntp"), "--demand", "2.0",
        "--horizon", "300", "--seed", "1", "--out", str(tmp_path), "--trace",
    ]) == 0
    digests = {name: hashlib.sha256((tmp_path / f"vehicles_{name}.csv").read_bytes()).hexdigest()
               for name in SIOUX_FALLS_CSV}
    assert digests == SIOUX_FALLS_CSV


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


# sha256 over the column bytes of the benchmark's baseline pair (seed 1,
# multiplier 2.0, 7,200 s), non-private run then private, recorded while each
# vehicle still routed on its own and the columns grew from lists.  Origins,
# destinations and block starts were int64 then; they are hashed widened to
# int64, so their narrower typecodes since hash as the values did.  The last
# column was then a stored float64 entry time per route slot, NaN until
# entered; it is hashed rebuilt from `Vehicle.entry_times`
SIOUX_FALLS_FULL_COLUMNS = "05dfea5b4b054cd8cb5bf39e661cd9a3488b1a6185fc26407ab037219ffcb5a6"
# sha256 over the same pair's `entry_counts` bytes, non-private run then private
SIOUX_FALLS_FULL_ENTRY_COUNTS = "e1f19da21034fbfa7c52615a2de482cee52482e6b2cd124475ac08214362300f"


def test_sioux_falls_full_horizon_columns_pinned():
    network, od = load_sioux_falls()
    config = SimConfig(demand_multiplier=2.0, seed=1, horizon=7200.0)
    _, result_np, result_p = run_experiment(network, od, config)
    h, counts = hashlib.sha256(), hashlib.sha256()
    for result in (result_np, result_p):
        vs = result.vehicles
        widened = (np.asarray(c, dtype=np.int64) for c in (vs.origins, vs.dests, vs.starts))
        entry_times = array("d")
        for v in vs:
            times = v.entry_times
            entry_times.extend(times + [math.nan] * (len(v.route) - len(times)))
        for column in (vs.departs, vs.arrivals, *widened, vs.route_edges, entry_times):
            h.update(column.tobytes())
        counts.update(vs.entry_counts.tobytes())
    assert h.hexdigest() == SIOUX_FALLS_FULL_COLUMNS
    assert counts.hexdigest() == SIOUX_FALLS_FULL_ENTRY_COUNTS


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
    sim = InjectingSimulation(_short_edge_network(), od, config)
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
# they change with the degree, the seed bits or the field the fit picks.
MPC_TRIANGLE_DIGEST = "aaf380c4c819f2956d52eaf1b168836397abd2e070a195506530bee28cd07a81"
MPC_TRIANGLE_NOISY_DIGEST = "eb224efd2c74ceeb430f52078ede88fe0fd8907519573b21ea92bd38fe54725c"


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
    poly = InverseCdfPoly(
        [-40, 7, -3, 1], modulus=M521, n_parties=5, seed_range=16, scale_bits=4
    )
    inputs = [PartyInput.on_edge(i + 1, e, 3) for i, e in enumerate([0, 2, 2, -1, 1])]
    result = run_round(inputs, poly, seed=7, record_transcript=True)
    assert result.field_totals == (29896, 10717, 55021)
    assert result.noisy_counts == (1868.5, 669.8125, 3438.8125)
    assert len(result.transcript.messages) == 240
    assert messages_digest(
        result.transcript.messages, ("edge", "phase", "sender", "receiver", "value")
    ) == "4b115139c3f4189d6f7d4465dceed3df6f115bfc5dd8670579d0437d3ec0134b"


def test_seeded_horner_round_transcript_pinned():
    # degree 7 runs T^2 and then three Horner steps in T^2 (k = 2), past the
    # degree-3 ladder above; even n = 6 has Shamir degree 2, and every
    # phase's messages, the kept sharings' included, are in the digest
    poly = InverseCdfPoly(
        [-40, 7, -3, 1, 5, -2, 1, 3], modulus=M521, n_parties=6, seed_range=16,
        scale_bits=4,
    )
    inputs = [PartyInput.on_edge(i + 1, e, 2) for i, e in enumerate([0, 1, 1, -1, 0, 1])]
    result = run_round(inputs, poly, seed=11, record_transcript=True)
    assert result.field_totals == (5211073403584, 52306988432)
    assert len(result.transcript.messages) == 360
    assert messages_digest(
        result.transcript.messages, ("edge", "phase", "sender", "receiver", "value")
    ) == "0a986fcf5c57514d1207d2a22b1ccaeec1a1a6a3631a652944cb8bf80e13940e"


def test_seeded_round_pinned_at_benchmark_shape():
    # round_sf's party count and degree: even n (Shamir degree 9), and 16 seed
    # bits, so randrange(2**16) draws 17 bits and rejects about half of them
    poly = InverseCdfPoly(
        [-40, 7, -3, 1, 5, -2, 1, 3], modulus=M521, n_parties=20, seed_range=2**16,
        scale_bits=4,
    )
    assert poly.degree == 7
    inputs = [PartyInput.on_edge(i + 1, i % 5 - 1, 4) for i in range(20)]
    result = run_round(inputs, poly, seed=2026, record_transcript=False)
    assert result.field_totals == (
        207237358748080318132383021236861959457076,
        406273514641954186093514897870064712949964,
        950776505816984983202338233833756541374994,
        68095389638081240954363248153662380777838,
    )


# sha256 of repr((field_coeffs, scale_bits, ks_distance, max_abs_error)) from
# fit_inverse_cdf_poly(LaplaceParams(eps), d, 2^521 - 1, 1e-4, ...) at the
# benchmark's round_small and round_sf shapes; n = 20 takes seed_sum_cdf's
# normal (erf) branch, n = 5 its Irwin-Hall one
FIT_PINS = {
    (0.2, 15, 5, 20, 100_000):
        "7148864eb8887c51d10a1be805cccab73b25c6e269195533131165963c458550",
    (0.1, 7, 20, 16, 10_000):
        "acd225bddb2f116fd89236b7b03d82a0a947c2548f0fc153491da0d9b17b462d",
}


@pytest.mark.parametrize("shape", list(FIT_PINS), ids=["round_small", "round_sf"])
def test_fitted_poly_pinned_at_benchmark_shapes(shape):
    eps, d, n, seed_bits, ks_samples = shape
    poly = fit_inverse_cdf_poly(LaplaceParams(eps), d, MERSENNE_521, 1e-4, n_parties=n,
                                seed_bits=seed_bits, ks_samples=ks_samples)
    key = repr((poly.field_coeffs, poly.scale_bits, poly.ks_distance, poly.max_abs_error))
    assert hashlib.sha256(key.encode()).hexdigest() == FIT_PINS[shape]


def test_smpa_pinned():
    transcript = []
    shares = smpa_one_rng([3, 1, 4, 1], random.Random(0), MERSENNE_61, transcript)
    assert shares == [
        855478924411929128, 465460045035273429, 829511009286761537, 155393030479729866,
    ]
    assert sum(shares) % MERSENNE_61 == 9
    assert messages_digest(transcript, ("sender", "receiver", "value", "phase")) == (
        "4b81bd32646cb26bc00f14766590478898e2d4fa4ebd6ea9d596bc2948de44b2"
    )


def test_smpm_pinned():
    # four parties: the even-N case, Shamir degree floor(3/2) = 1
    transcript = []
    product = smpm_one_rng([5, 11, 2, 9], [1, 2, 3, 4], random.Random(0), MERSENNE_61,
                           transcript)
    assert product == [
        1003270025358259240, 1603516400205827722, 700686151154649769, 1304213441708651441,
    ]
    assert sum(product) % MERSENNE_61 == 27 * 10
    assert messages_digest(transcript, ("sender", "receiver", "value", "phase")) == (
        "c44467e8d238438cab8f67ba6678eb70436667d0f33d027b1eb17babdbb290e6"
    )
