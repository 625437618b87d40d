import itertools
import math

import numpy as np
import pytest

from privroute.protocol import run_round
from privroute.roadnet import DelayFunction, Edge, RoadNetwork
from privroute.sim import (
    SimConfig,
    Simulation,
    Unreachable,
    _DemandTable,
    compare_runs,
    draw_demand,
    run_experiment,
    shortest_path,
    utilization_report,
)
from privroute.tntp import OdDemand, load_sioux_falls


def _delay(t0=60.0, cap=10.0):
    return DelayFunction(t0=t0, capacity=cap)


def _line_network(n_nodes=3, t0=60.0):
    edges = [
        Edge(i, i + 1, i + 2, _delay(t0)) for i in range(n_nodes - 1)
    ]
    return RoadNetwork(range(1, n_nodes + 1), edges)


def _triangle():
    # 1 -> 2 -> 3 with a direct 1 -> 3
    edges = [
        Edge(0, 1, 2, _delay(60.0)),
        Edge(1, 2, 3, _delay(60.0)),
        Edge(2, 1, 3, _delay(180.0)),
    ]
    return RoadNetwork([1, 2, 3], edges)


# -- shortest paths -----------------------------------------------------------

def test_shortest_path_trivial_and_two_hop():
    net = _triangle()
    assert shortest_path(net, [60.0, 60.0, 180.0], 1, 1) == []
    assert shortest_path(net, [60.0, 60.0, 180.0], 1, 3) == [0, 1]
    assert shortest_path(net, [100.0, 100.0, 180.0], 1, 3) == [2]


def test_shortest_path_unreachable():
    net = _line_network()
    with pytest.raises(Unreachable):
        shortest_path(net, [60.0, 60.0], 3, 1)


@pytest.mark.parametrize("bad", [0.0, -1.0])
def test_shortest_path_rejects_nonpositive_weights(bad):
    with pytest.raises(ValueError, match="positive"):
        shortest_path(_triangle(), [60.0, bad, 180.0], 1, 3)


def test_shortest_path_against_brute_force():
    rng = np.random.default_rng(8)
    for _ in range(100):
        n = int(rng.integers(3, 9))
        nodes = list(range(1, n + 1))
        edges = []
        for u in nodes:
            for v in nodes:
                if u != v and rng.random() < 0.4:
                    edges.append(Edge(len(edges), u, v, _delay()))
        net = RoadNetwork(nodes, edges)
        weights = rng.uniform(0.5, 10.0, size=len(edges))
        origin, dest = 1, n

        # exhaustive simple-path enumeration
        best = math.inf
        stack = [(origin, 0.0, {origin})]
        while stack:
            node, cost, seen = stack.pop()
            if node == dest:
                best = min(best, cost)
                continue
            for eid in net.out_edges[node]:
                e = net.edges[eid]
                if e.head not in seen and cost + weights[eid] < best:
                    stack.append((e.head, cost + weights[eid], seen | {e.head}))

        try:
            path = shortest_path(net, weights, origin, dest)
            got = sum(weights[e] for e in path)
            assert got == pytest.approx(best)
        except Unreachable:
            assert math.isinf(best)


# -- demand -------------------------------------------------------------------

def test_draw_demand_zero_multiplier(np_rng):
    od = _DemandTable(OdDemand({(1, 2): 100.0}))
    assert draw_demand(od, 0.0, 10.0, np_rng) == []


def test_draw_demand_mean_rate():
    od = _DemandTable(OdDemand({(1, 2): 3600.0, (2, 3): 7200.0}))
    rng = np.random.default_rng(0)
    total12 = total23 = 0
    steps = 3000
    for _ in range(steps):
        for o, d in draw_demand(od, 6.0, 10.0, rng):
            if (o, d) == (1, 2):
                total12 += 1
            else:
                total23 += 1
    # expected 10 and 20 per step
    assert total12 / steps == pytest.approx(10.0, rel=0.05)
    assert total23 / steps == pytest.approx(20.0, rel=0.05)


def test_draw_demand_matches_per_pair_loop():
    # reference: one Poisson draw over every positive-rate pair in sorted
    # order, then each pair's departures expanded in that order
    def reference(od, multiplier, timestep, rng):
        items = od.nonzero_items()
        lam = np.array([r for _, r in items]) * (multiplier * timestep / 3600.0)
        out = []
        for ((o, d), _), k in zip(items, rng.poisson(lam)):
            if k and o != d:
                out.extend([(o, d)] * int(k))
        return out

    od = OdDemand({(2, 3): 900.0, (1, 1): 500.0, (1, 2): 0.0, (3, 1): 1800.0})
    table = _DemandTable(od)
    a, b = (np.random.default_rng(3) for _ in range(2))
    for _ in range(50):
        expected = reference(od, 2.0, 10.0, a)
        assert draw_demand(table, 12.0, 10.0, b) == expected


def test_unknown_od_node_fails_at_construction():
    od = OdDemand({(1, 3): 10.0, (1, 9): 5.0})
    with pytest.raises(ValueError, match="node 9"):
        Simulation(_line_network(), od, SimConfig(seed=1))


def test_unreachable_od_pair_fails_at_construction():
    net = _line_network()  # 1 -> 2 -> 3 only
    with pytest.raises(Unreachable, match="no path from 3 to 1"):
        Simulation(net, OdDemand({(1, 3): 10.0, (3, 1): 5.0}), SimConfig(seed=1))
    # a zero-rate pair never departs, so it may be unreachable
    Simulation(net, OdDemand({(1, 3): 10.0, (3, 1): 0.0}), SimConfig(seed=1))


def test_draw_demand_skips_self_pairs(np_rng):
    od = _DemandTable(OdDemand({(1, 1): 1e6}))
    assert draw_demand(od, 6.0, 10.0, np_rng) == []


# -- stepping -----------------------------------------------------------------

def test_no_demand_steps_only_clock():
    net = _line_network()
    sim = Simulation(net, OdDemand({}), SimConfig(horizon=100.0, seed=1))
    clock, counts = sim.clock, list(sim.counts)
    sim.step()
    assert sim.clock == clock + 10.0
    assert sim.counts == counts
    assert not sim.vehicles


def test_single_vehicle_arrives_after_ceil_steps():
    # t0 = 30 s on an uncongested edge, 10 s steps: in transit for 3 steps
    net = RoadNetwork([1, 2], [Edge(0, 1, 2, _delay(30.0, cap=1000.0))])
    cfg = SimConfig(horizon=30.0, timestep=10.0, refresh_period=10.0, seed=0)
    sim = Simulation(net, OdDemand({}), cfg)
    sim.inject(1, 2, time=0.0)
    sim.run()
    v = sim.vehicles[0]
    assert v.arrival == pytest.approx(30.0)
    assert sim.step_index == 3  # exactly ceil(30/10) steps elapsed
    assert v.travel_time == pytest.approx(30.0)


def test_exit_pops_in_its_step_after_many_short_steps():
    # the clock is a running sum of timesteps, so after ~2e5 steps of 0.3 s
    # it drifts from step * timestep; an exit due at a step's end still pops
    # in that step
    net = RoadNetwork([1, 2], [Edge(0, 1, 2, _delay(0.3, cap=1000.0))])
    step = 231_582
    start = 0.0
    for _ in range(step):
        start += 0.3
    cfg = SimConfig(timestep=0.3, refresh_period=120.0, horizon=start + 0.1,
                    seed=0, debug_checks=True)
    sim = Simulation(net, OdDemand({}), cfg)
    sim.inject(1, 2, time=start)
    sim.run()
    assert sim.step_index == step + 1
    assert sim.vehicles[0].arrival == start + 0.3


def test_traversal_time_reflects_existing_occupancy():
    # second vehicle enters while the first is still on the road
    net = RoadNetwork([1, 2], [Edge(0, 1, 2, _delay(30.0, cap=0.05))])
    cfg = SimConfig(horizon=30.0, timestep=10.0, refresh_period=10.0, seed=0)
    sim = Simulation(net, OdDemand({}), cfg)
    sim.inject(1, 2, time=0.0)
    sim.inject(1, 2, time=10.0)
    sim.run()
    first, second = sim.vehicles
    assert first.travel_time == pytest.approx(30.0)
    x1 = 1.0  # count seen by the second vehicle
    from privroute.roadnet import count_to_time

    assert second.travel_time == pytest.approx(
        count_to_time(net.edges[0].delay, x1), rel=1e-9
    )


def test_vehicle_conservation_debug_checks():
    net, od = load_sioux_falls()
    cfg = SimConfig(
        horizon=240.0, seed=3, demand_multiplier=0.05, debug_checks=True
    )
    sim = Simulation(net, od, cfg)
    sim.run()  # per-step invariant assertions run inside
    assert sim.arrived + sim.in_transit == len(sim.vehicles)


def test_infinite_epsilon_reproduces_nonprivate_exactly():
    net, od = load_sioux_falls()
    base = dict(horizon=600.0, seed=9, demand_multiplier=0.2)
    a = Simulation(net, od, SimConfig(mode="non-private", **base)).run()
    b = Simulation(
        net, od, SimConfig(mode="private", epsilon=math.inf, **base)
    ).run()
    assert len(a.vehicles) == len(b.vehicles)
    for va, vb in zip(a.vehicles, b.vehicles):
        assert va.route == vb.route
        assert va.arrival == vb.arrival


def test_paired_runs_share_demand_stream():
    net, od = load_sioux_falls()
    base = dict(horizon=600.0, seed=4, demand_multiplier=0.2)
    a = Simulation(net, od, SimConfig(mode="non-private", **base)).run()
    b = Simulation(
        net, od, SimConfig(mode="private", epsilon=0.05, **base)
    ).run()
    assert [(v.origin, v.dest, v.depart) for v in a.vehicles] == [
        (v.origin, v.dest, v.depart) for v in b.vehicles
    ]


def test_run_experiment_self_comparison_is_zero():
    net, od = load_sioux_falls()
    cfg = SimConfig(horizon=600.0, seed=5, demand_multiplier=0.2)
    a = Simulation(net, od, SimConfig(mode="non-private", horizon=600.0, seed=5,
                                      demand_multiplier=0.2)).run()
    b = Simulation(net, od, SimConfig(mode="non-private", horizon=600.0, seed=5,
                                      demand_multiplier=0.2)).run()
    m = compare_runs(a, b)
    assert m.increase_s == 0.0
    assert m.routes_unchanged_pct == 100.0
    assert m.no_increase_pct == 100.0


def test_run_experiment_metrics_fields():
    net, od = load_sioux_falls()
    cfg = SimConfig(epsilon=0.1, horizon=600.0, seed=6, demand_multiplier=0.2)
    metrics, rn, rp = run_experiment(net, od, cfg)
    d = metrics.as_dict()
    assert 0.0 <= d["routes_unchanged_pct"] <= 100.0
    assert 0.0 <= d["no_increase_pct"] <= 100.0
    assert d["n_vehicles"] > 0
    assert d["travel_time_s"] > 0


def test_mpc_noise_mode_small_network(monkeypatch):
    # full multi-party rounds drive the estimate refresh end to end
    net = _triangle()
    od = OdDemand({(1, 3): 400.0, (2, 3): 200.0})
    cfg = SimConfig(
        mode="private", noise="mpc", epsilon=0.5, horizon=240.0, seed=2,
        demand_multiplier=6.0, refresh_period=60.0,
    )
    rounds = []

    def counting_round(*args, **kwargs):
        rounds.append(len(args[0]))
        return run_round(*args, **kwargs)

    monkeypatch.setattr("privroute.sim.run_round", counting_round)
    sim = Simulation(net, od, cfg)
    sim.run()
    assert sim.arrived > 0
    assert rounds and all(n >= 3 for n in rounds)


def test_mean_travel_time_monotone_in_demand():
    net, od = load_sioux_falls()
    means = []
    for mult in (1.0, 2.0, 3.0):
        cfg = SimConfig(mode="non-private", horizon=1800.0, seed=7,
                        demand_multiplier=mult)
        res = Simulation(net, od, cfg).run()
        tts = [v.travel_time for v in res.vehicles if v.arrival is not None]
        means.append(float(np.mean(tts)))
    assert means[0] < means[1] < means[2]


def test_utilization_report_empty_network():
    rep = utilization_report(np.zeros(0), np.zeros(0), 3600.0)
    assert rep.as_tuple() == (0.0, 0.0, 0.0)


def test_utilization_report_values():
    entries = np.array([720.0, 0.0])
    caps = np.array([0.1, 0.2])  # vehicles per second
    rep = utilization_report(entries, caps, 7200.0)
    assert rep.per_edge[0] == pytest.approx(1.0)
    assert rep.as_tuple() == (0.0, 1.0, 0.5)


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(mode="weird")
    with pytest.raises(ValueError):
        SimConfig(timestep=7.0, refresh_period=120.0)  # not a divisor
    with pytest.raises(ValueError):
        SimConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        SimConfig(noise="quantum")
    with pytest.raises(ValueError, match="finite epsilon"):
        SimConfig(noise="mpc", epsilon=math.inf)
