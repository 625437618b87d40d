import gc
import heapq
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from array import array
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import InjectingSimulation, heap_dijkstra, tree_path
from hypothesis import example, given, settings
from hypothesis import strategies as st

import privroute
from privroute.protocol import run_round
from privroute.roadnet import DelayFunction, Edge, RoadNetwork, _tau_vector
from privroute.sim import (
    DRAIN_FACTOR,
    SimConfig,
    Simulation,
    Unreachable,
    VehicleColumns,
    _DemandTable,
    _grow,
    _sp_tree,
    compare_runs,
    draw_demand,
    run_experiment,
    shortest_path,
    utilization_report,
)
from privroute.tntp import DEFAULT_DEMAND_SCALE, OdDemand, load_sioux_falls


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


@pytest.mark.parametrize("weights", [[math.nan, 60.0, 180.0], [60.0, math.inf, 180.0]],
                         ids=["nan", "inf"])
def test_shortest_path_rejects_nonfinite_weights(weights):
    with pytest.raises(ValueError, match="finite"):
        shortest_path(_triangle(), weights, 1, 3)


@pytest.mark.parametrize("weights", [[60.0, 60.0], [60.0] * 4, [[60.0, 60.0, 180.0]]],
                         ids=["short", "long", "2-d"])
def test_shortest_path_rejects_wrong_weight_count(weights):
    with pytest.raises(ValueError, match="one weight per edge"):
        shortest_path(_triangle(), weights, 1, 3)


@pytest.mark.parametrize("origin, destination, role", [
    (1, 99, "destination"), (99, 3, "origin"), (99, 99, "origin"),
], ids=["destination", "origin", "both"])
def test_shortest_path_rejects_unknown_node(origin, destination, role):
    with pytest.raises(ValueError, match=f"{role} node 99 is not in the network"):
        shortest_path(_triangle(), [60.0, 60.0, 180.0], origin, destination)


@st.composite
def _graphs_and_weights(draw):
    # distinct node ids in no particular order; edges may repeat a pair
    # (parallel edges) and need not connect every pair (unreachable nodes);
    # integer weights make equal-length paths, so ties
    nodes = draw(st.lists(st.integers(1, 60), min_size=1, max_size=8, unique=True))
    pairs = draw(st.lists(st.tuples(st.sampled_from(nodes), st.sampled_from(nodes))
                          .filter(lambda p: p[0] != p[1]), max_size=3 * len(nodes)))
    edges = [Edge(i, u, v, _delay()) for i, (u, v) in enumerate(pairs)]
    weight = st.integers(1, 3).map(float) if draw(st.booleans()) else st.floats(0.1, 1e4)
    return RoadNetwork(nodes, edges), draw(st.lists(weight, min_size=len(edges),
                                                    max_size=len(edges)))


# a diamond 9 -> {4, 7} -> 2 of equal sides: the heap pops node 4 before
# node 7 and so reaches 2 by edge 3, although edge 2 has the smaller id and
# node 7 comes first in the node list
_DIAMOND = (RoadNetwork([9, 7, 4, 2], [Edge(i, u, v, _delay()) for i, (u, v) in
                                       enumerate([(9, 7), (9, 4), (7, 2), (4, 2)])]),
            [1.0, 1.0, 2.0, 2.0])


@settings(max_examples=300, deadline=None)
@given(_graphs_and_weights())
@example(_DIAMOND)
def test_sp_tree_matches_heap_dijkstra(case):
    net, weights = case
    dist, pred = _sp_tree(net, np.array(weights, dtype=float))
    assert dist.shape == pred.shape == (net.n_nodes, net.n_nodes)
    for row, origin in enumerate(net.nodes):
        ref_dist, ref_pred = heap_dijkstra(net, weights, origin)
        assert dist[row].tolist() == list(ref_dist.values())
        assert pred[row].tolist() == list(ref_pred.values())


def test_relaxation_layout_is_built_on_the_first_tree_and_kept():
    net, _ = load_sioux_falls()
    assert "relaxation_layout" not in vars(net)  # loading does not build it
    dist, pred = _sp_tree(net, net.t0)
    layout = net.relaxation_layout
    assert all(not array.flags.writeable for array in layout)
    weights = net.t0 * np.linspace(1.0, 3.0, net.n_edges)
    again = _sp_tree(net, weights)
    assert net.relaxation_layout is layout
    fresh, _ = load_sioux_falls()
    expected = (*_sp_tree(fresh, net.t0), *_sp_tree(fresh, weights))
    for mine, theirs in zip((dist, pred, *again), expected):
        assert mine.tobytes() == theirs.tobytes()


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
            for eid, head in net.out_arcs[node]:
                if head not in seen and cost + weights[eid] < best:
                    stack.append((head, cost + weights[eid], seen | {head}))

        try:
            path = shortest_path(net, weights, origin, dest)
            got = sum(weights[e] for e in path)
            assert got == pytest.approx(best)
        except Unreachable:
            assert math.isinf(best)


# -- demand -------------------------------------------------------------------

def test_draw_demand_zero_multiplier(np_rng):
    od = _DemandTable(OdDemand({(1, 2): 100.0}))
    indices, counts = draw_demand(od, 0.0, 10.0, np_rng)
    assert len(indices) == len(counts) == 0


def test_draw_demand_mean_rate():
    od = _DemandTable(OdDemand({(1, 2): 3600.0, (2, 3): 7200.0}))
    rng = np.random.default_rng(0)
    total12 = total23 = 0
    steps = 3000
    for _ in range(steps):
        indices, counts = draw_demand(od, 6.0, 10.0, rng)
        assert (counts > 0).all()
        for i, k in zip(indices.tolist(), counts.tolist()):
            if od.pairs[i] == (1, 2):
                total12 += k
            else:
                total23 += k
    # expected 10 and 20 per step
    assert total12 / steps == pytest.approx(10.0, rel=0.05)
    assert total23 / steps == pytest.approx(20.0, rel=0.05)


def test_draw_demand_matches_per_pair_loop():
    # reference: one Poisson draw over every positive-rate pair in sorted
    # order, then each moving pair that drew, in that order, with its count
    def reference(od, multiplier, timestep, rng):
        items = od.nonzero_items()
        lam = np.array([r for _, r in items]) * (multiplier * timestep / 3600.0)
        out = []
        for ((o, d), _), k in zip(items, rng.poisson(lam)):
            if k and o != d:
                out.append(((o, d), int(k)))
        return out

    od = OdDemand({(2, 3): 900.0, (1, 1): 500.0, (1, 2): 0.0, (3, 1): 1800.0})
    table = _DemandTable(od)
    a, b = (np.random.default_rng(3) for _ in range(2))
    for _ in range(50):
        expected = reference(od, 2.0, 10.0, a)
        indices, counts = draw_demand(table, 12.0, 10.0, b)
        assert [(table.pairs[i], k) for i, k in zip(indices.tolist(), counts.tolist())] == expected


@pytest.mark.parametrize("multiplier, below_10", [(2.0, True), (400.0, False)])
def test_draw_demand_over_steps_matches_one_step_calls(multiplier, below_10):
    # numpy's Poisson sampler switches method at a mean of 10; either way one
    # call over k steps must give the k one-step draws and the same stream
    od = OdDemand({(2, 3): 900.0, (1, 1): 500.0, (1, 2): 300.0, (3, 1): 1800.0})
    table = _DemandTable(od)
    lam = table.rates * (DEFAULT_DEMAND_SCALE * multiplier * 10.0 / 3600.0)
    assert (lam < 10).all() if below_10 else (lam >= 10).all()
    n_pairs = len(table.pairs)
    for k in (1, 5, 12):
        whole, stepped = (np.random.default_rng(k) for _ in range(2))
        cells, counts = draw_demand(table, multiplier, 10.0, whole, k)
        expected = []
        for step in range(k):
            indices, step_counts = draw_demand(table, multiplier, 10.0, stepped)
            expected += [(step * n_pairs + i, c)
                         for i, c in zip(indices.tolist(), step_counts.tolist())]
        assert list(zip(cells.tolist(), counts.tolist())) == expected
        assert whole.bit_generator.state == stepped.bit_generator.state


def _one_step_draws(sim, steps):
    """A fresh copy of `sim`'s demand generator after `steps` one-step draws,
    and the (origin, destination, departure time) of each vehicle drawn."""
    cfg = sim.config
    demand_ss, _ = np.random.SeedSequence(entropy=cfg.seed).spawn(2)
    rng = np.random.default_rng(demand_ss)
    departures, t = [], 0.0
    for _ in range(steps):
        drawn = np.repeat(*draw_demand(sim._demand, cfg.demand_multiplier, cfg.timestep, rng))
        departures += [(*sim._demand.pairs[i], t) for i in drawn.tolist()]
        t += cfg.timestep
    return rng, departures


@pytest.mark.parametrize("horizon, steps, injected", [
    pytest.param(120.0, 12, None, id="120.0-12"),
    pytest.param(245.0, 25, None, id="245.0-25"),
    pytest.param(605.0, 61, (1, 20, 240.0), id="605.0-61-injected"),
])
def test_period_draws_depart_as_one_step_draws(horizon, steps, injected):
    # the run draws its demand at its first refresh; at 245 s the last
    # period (240 s) departs one step of its twelve, at 605 s the sixth
    # (600 s) does.  A departure injected at a period's start departs first
    # in its step, before the step's drawn vehicles.
    net, od = load_sioux_falls()
    cls = InjectingSimulation if injected else Simulation
    sim = cls(net, od, SimConfig(horizon=horizon, demand_multiplier=2.0, seed=5))
    if injected:
        sim.inject(*injected)
    sim.run()
    rng, departures = _one_step_draws(sim, steps)
    if injected:
        departures.insert(next(i for i, d in enumerate(departures) if d[2] >= injected[2]),
                          injected)
    vs = sim.vehicles
    assert list(zip(vs.origins, vs.dests, vs.departs)) == departures
    assert sim.demand_rng.bit_generator.state == rng.bit_generator.state


def test_run_draw_in_blocks_departs_as_one_step_draws(monkeypatch):
    # a run whose (step, pair) cells exceed _DRAW_CELLS draws them in
    # blocks of whole steps, with the same values and generator state
    calls = []
    monkeypatch.setattr("privroute.sim._DRAW_CELLS", 2000)  # three steps of 528 pairs
    monkeypatch.setattr("privroute.sim.draw_demand",
                        lambda *args: calls.append(args[-1]) or draw_demand(*args))
    net, od = load_sioux_falls()
    sim = Simulation(net, od, SimConfig(horizon=245.0, demand_multiplier=2.0, seed=5))
    sim.run()
    rng, departures = _one_step_draws(sim, 25)
    vs = sim.vehicles
    assert calls == [3] * 8 + [1]
    assert list(zip(vs.origins, vs.dests, vs.departs)) == departures
    assert sim.demand_rng.bit_generator.state == rng.bit_generator.state


@pytest.mark.parametrize("seed", [21, 22])
def test_paired_private_run_equals_a_standalone_one(seed, monkeypatch):
    # run_experiment's private run departs the vehicles its non-private run
    # drew; a private run on its own draws them itself, to the same bits
    calls = []
    monkeypatch.setattr("privroute.sim.draw_demand",
                        lambda *args: calls.append(args[-1]) or draw_demand(*args))
    net, od = load_sioux_falls()
    cfg = SimConfig(horizon=605.0, demand_multiplier=2.0, seed=seed)
    _, _, paired = run_experiment(net, od, cfg)
    assert calls == [61]  # one draw for the pair
    alone = Simulation(net, od, replace(cfg, mode="private")).run()
    columns = ("origins", "dests", "departs", "arrivals", "starts", "route_edges",
               "positions", "entry_counts")
    for name in columns:
        assert getattr(paired.vehicles, name).tobytes() == getattr(alone.vehicles, name).tobytes()
    assert paired.entries_horizon.tobytes() == alone.entries_horizon.tobytes()
    assert paired.n_incomplete == alone.n_incomplete > 1000


def test_injecting_simulation_with_nothing_injected_runs_as_simulation():
    # the test subclass's departure step, with no injection due, writes the
    # columns the program's own does, byte for byte
    net, od = load_sioux_falls()
    cfg = SimConfig(mode="private", horizon=605.0, demand_multiplier=2.0, seed=21)
    plain, injecting = (cls(net, od, cfg) for cls in (Simulation, InjectingSimulation))
    results = [sim.run() for sim in (plain, injecting)]
    columns = ("origins", "dests", "departs", "arrivals", "starts", "route_edges",
               "positions", "entry_counts")
    for name in columns:
        mine, theirs = (getattr(result.vehicles, name) for result in results)
        assert mine.tobytes() == theirs.tobytes()
    assert results[0].entries_horizon.tobytes() == results[1].entries_horizon.tobytes()
    assert (plain.step_index, plain.clock) == (injecting.step_index, injecting.clock)
    assert len(results[0].vehicles) > 1000


def test_paired_private_run_borrows_the_departure_columns():
    # the private run departs the vehicles the non-private run wrote, so it
    # shares their origin, destination and departure columns and writes
    # its own of the rest; its invariant check after each batch finds its
    # reserved slots untouched and every route joining the borrowed endpoints
    net, od = load_sioux_falls()
    cfg = SimConfig(horizon=605.0, demand_multiplier=2.0, seed=21, debug_checks=True)
    _, result_np, result_p = run_experiment(net, od, cfg)
    vs_np, vs_p = result_np.vehicles, result_p.vehicles
    assert len(vs_p) == len(vs_np) > 1000
    for name in ("origins", "dests", "departs"):
        assert getattr(vs_p, name) is getattr(vs_np, name)
    for name in ("arrivals", "starts", "route_edges", "positions", "entry_counts"):
        assert getattr(vs_p, name) is not getattr(vs_np, name)
    # columns lent by a run of other vehicles do not join the borrower's routes
    other = Simulation(net, od, replace(cfg, mode="private", seed=22), _shared=(None, vs_np))
    with pytest.raises(RuntimeError, match="does not join its origin to its destination"):
        other.run()


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


def test_inject_rejects_unknown_node():
    sim = InjectingSimulation(_line_network(), OdDemand({}), SimConfig(seed=1))
    with pytest.raises(ValueError, match="node 9"):
        sim.inject(1, 9)
    assert not sim._scheduled


def test_inject_rejects_unreachable_pair_before_any_step():
    sim = InjectingSimulation(_line_network(), OdDemand({}), SimConfig(seed=1))
    sim.inject(1, 3, time=0.0)
    with pytest.raises(Unreachable, match="no path from 3 to 1"):
        sim.inject(3, 1, time=50.0)
    assert sim.step_index == 0 and len(sim._scheduled) == 1


@pytest.mark.parametrize("time", [100.0, 250.0, math.nan])
def test_inject_rejects_departure_at_or_past_horizon(time):
    sim = InjectingSimulation(_line_network(), OdDemand({}), SimConfig(horizon=100.0, seed=1))
    with pytest.raises(ValueError, match="never happens"):
        sim.inject(1, 3, time=time)
    assert not sim._scheduled
    sim.inject(1, 3, time=99.0)
    sim.run()
    assert [v.depart for v in sim.vehicles] == [99.0]
    # once the clock has reached the horizon, nothing departs any more
    with pytest.raises(ValueError, match="never happens"):
        sim.inject(1, 3, time=0.0)


def test_draw_demand_skips_self_pairs(np_rng):
    od = _DemandTable(OdDemand({(1, 1): 1e6}))
    indices, counts = draw_demand(od, 6.0, 10.0, np_rng)
    assert len(indices) == len(counts) == 0


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
    sim = InjectingSimulation(net, OdDemand({}), cfg)
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
    sim = InjectingSimulation(net, OdDemand({}), cfg)
    sim.inject(1, 2, time=start)
    sim.run()
    assert sim.step_index == step + 1
    assert sim.vehicles[0].arrival == start + 0.3


def _runs_on(sim):
    """Whether a run goes on: until the horizon, then until the road drains
    or the clock reaches the hard stop."""
    hard_stop = DRAIN_FACTOR * sim.config.horizon
    return sim.clock < sim.config.horizon or (sim.in_transit and sim.clock < hard_stop)


def _step_one_at_a_time(sim):
    """Drive `sim` as `Simulation.run` did before it batched a refresh
    period: one step at a time."""
    while _runs_on(sim):
        sim.step()


class _HeapLoopSimulation(InjectingSimulation):
    """The sequential event loop that `Simulation.step` batches, kept as the
    reference: step by step, departures in id order, then one heap pop of
    (exit_time, vid) at a time, each entering the vehicle's next edge.  It
    keeps its vehicles as plain per-vehicle lists, draws its demand one step
    at a time, expands each drawn pair into one (origin, destination) per
    vehicle and routes each vehicle in conftest's `heap_dijkstra` tree from
    its origin, one tree per origin per refresh; it shares the run's refresh
    and tau table."""

    def __init__(self, network, od, config):
        super().__init__(network, od, config)
        self.heap = []
        self.departs, self.routes, self.positions = [], [], []
        self.entries, self.arrivals = [], []
        self.trees = {}  # origin -> heap_dijkstra tree under self.weights

    def _refresh(self):
        super()._refresh()
        self.trees.clear()

    def _reference_route(self, origin, dest):
        if origin not in self.trees:
            self.trees[origin] = heap_dijkstra(self.network, self.weights.tolist(), origin)
        return tree_path(self.network, self.trees[origin], origin, dest)

    def step(self, steps=1):
        for _ in range(steps):
            self._one_step()

    def _one_step(self):
        cfg = self.config
        t = self.clock
        if self.step_index % self.steps_per_refresh == 0:
            self._refresh()
        t_end = t + cfg.timestep
        entering = []
        if t < cfg.horizon:
            departures = []
            while self._scheduled and self._scheduled[0][0] < t_end:
                st_, o, d = heapq.heappop(self._scheduled)
                departures.append((max(st_, t), o, d))
            drawn = np.repeat(*draw_demand(
                self._demand, cfg.demand_multiplier, cfg.timestep, self.demand_rng))
            departures += [(t, *self._demand.pairs[i]) for i in drawn.tolist()]
            for time, o, d in departures:
                route = self._reference_route(o, d)
                if route:
                    entering.append(len(self.routes))
                else:
                    self.arrived += 1
                self.departs.append(time)
                self.routes.append(route)
                self.positions.append(0)
                self.entries.append([])
                self.arrivals.append(None if route else time)
        heap, counts = self.heap, self.counts
        arrived = 0
        i = 0
        while True:
            if i < len(entering):
                vid = entering[i]
                i += 1
                time, route, pos = self.departs[vid], self.routes[vid], 0
            elif heap and heap[0][0] <= t_end:
                time, vid = heapq.heappop(heap)
                route = self.routes[vid]
                pos = self.positions[vid]
                counts[route[pos]] -= 1
                pos += 1
                self.positions[vid] = pos
                if pos == len(route):
                    self.arrivals[vid] = time
                    arrived += 1
                    continue
            else:
                break
            edge = route[pos]
            c = counts[edge]
            if c >= self.network.tau_by_count.shape[1]:
                self.network.grow_tau(c)
            counts[edge] = c + 1
            if time < cfg.horizon:
                self.entries_horizon[edge] += 1
            self.entries[vid].append(time)
            heapq.heappush(heap, (time + float(self.network.tau_by_count[edge, c]), vid))
        self.in_transit += len(entering) - arrived
        self.arrived += arrived
        self.clock = t_end
        self.step_index += 1


def _random_network(draw, timestep):
    # a ring through every node keeps each pair reachable; t0 lies below, at
    # and above the timestep, with repeats so that exits tie, and on an edge
    # whose capacity no count approaches every traversal takes t0, so exits
    # land on step ends
    n = draw(st.integers(3, 6))
    t0s = st.sampled_from([timestep / 4, timestep / 2, timestep, 1.5 * timestep, 0.3, 0.7,
                           3.3, 25.0])
    caps = st.sampled_from([0.02, 0.1, 1.0, 1e9])
    pairs = [(u, u % n + 1) for u in range(1, n + 1)]
    pairs += draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n))
                           .filter(lambda p: p[0] != p[1]), max_size=2 * n))
    edges = [Edge(i, u, v, DelayFunction(t0=draw(t0s), capacity=draw(caps)))
             for i, (u, v) in enumerate(pairs)]
    return RoadNetwork(range(1, n + 1), edges)


@st.composite
def _heap_loop_cases(draw):
    timestep = draw(st.sampled_from([1.0, 2.5, 10.0]))
    net = _random_network(draw, timestep)
    horizon = timestep * draw(st.integers(2, 12))
    cfg = SimConfig(timestep=timestep, refresh_period=timestep * draw(st.integers(1, 3)),
                    horizon=horizon, mode=draw(st.sampled_from(["non-private", "private"])),
                    epsilon=0.5, seed=draw(st.integers(0, 2**16)), debug_checks=True,
                    demand_multiplier=draw(st.sampled_from([0.0, 50.0])))
    nodes = st.integers(1, net.n_nodes)
    # step starts (each the previous step's end) and quarter-second departure
    # times tie with exits and with each other
    boundaries = list(itertools.accumulate(itertools.repeat(timestep, int(horizon / timestep)),
                                           initial=0.0))[:-1]
    times = (st.sampled_from(boundaries) | st.integers(0, int(4 * horizon) - 1).map(lambda q: q / 4)
             | st.floats(0.0, horizon, exclude_max=True))
    injections = draw(st.lists(st.tuples(nodes, nodes, times), max_size=40))
    # batch lengths, clipped to the refresh period; none means Simulation.run
    windows = draw(st.lists(st.integers(1, 3), max_size=6))
    return net, OdDemand({(1, 2): 20.0, (2, 1): 40.0}), cfg, injections, windows


# drawn demand alone on a congestible ring, run by Simulation.run
_DRAWN_ONLY = (
    RoadNetwork(range(1, 4), [
        Edge(i, u, v, DelayFunction(t0=t0, capacity=cap)) for i, (u, v, t0, cap) in enumerate(
            [(1, 2, 5.0, 0.1), (2, 3, 10.0, 1.0), (3, 1, 25.0, 0.1), (2, 1, 10.0, 0.02)])]),
    OdDemand({(1, 2): 20.0, (2, 1): 40.0}),
    SimConfig(timestep=10.0, refresh_period=20.0, horizon=60.0, mode="private", epsilon=0.5,
              seed=7, debug_checks=True, demand_multiplier=50.0),
    [], [])


# a ring both ways round 65 nodes: 130 edges, so the run's edge ids are
# array('h'), and the routes that go back past node 1 take edges 127-129
_WIDE_RING = (
    RoadNetwork(range(1, 66), [
        Edge(i, u, v, DelayFunction(t0=(5.0, 10.0, 25.0)[i % 3], capacity=(0.1, 1.0)[i % 2]))
        for i, (u, v) in enumerate([(u, u % 65 + 1) for u in range(1, 66)]
                                   + [(u, (u - 2) % 65 + 1) for u in range(1, 66)])]),
    OdDemand({(2, 62): 40.0, (3, 63): 20.0, (65, 63): 40.0, (30, 34): 40.0, (63, 65): 20.0}),
    SimConfig(timestep=10.0, refresh_period=20.0, horizon=60.0, mode="private", epsilon=0.5,
              seed=11, debug_checks=True, demand_multiplier=200.0),
    [], [])


@settings(max_examples=150, deadline=None)
@given(_heap_loop_cases())
@example(_DRAWN_ONLY)
@example(_WIDE_RING)
def test_batched_step_matches_heap_loop(case):
    # with nothing injected the batched side is a plain Simulation, so the
    # departure path the program runs is the one checked
    net, od, cfg, injections, windows = case
    batched = (InjectingSimulation if injections else Simulation)(net, od, cfg)
    heap_loop = _HeapLoopSimulation(net, od, cfg)
    for sim in (batched, heap_loop):
        for o, d, time in injections:
            sim.inject(o, d, time)
    # only the batched run checks its invariants, after each batch
    if windows:
        windows = itertools.cycle(windows)
        while _runs_on(batched):
            left = batched.steps_per_refresh - batched.step_index % batched.steps_per_refresh
            batched.step(min(next(windows), left))
    else:
        batched.run()
    _step_one_at_a_time(heap_loop)
    got = [(v.route, v.entry_times, v.arrival) for v in batched.vehicles]
    assert got == list(zip(heap_loop.routes, heap_loop.entries, heap_loop.arrivals))
    assert batched.counts == heap_loop.counts
    assert batched.entries_horizon.tolist() == heap_loop.entries_horizon.tolist()
    assert (batched.in_transit, batched.arrived) == (heap_loop.in_transit, heap_loop.arrived)
    # a batch that ran a step too far would refresh, or draw noise, once more
    assert (batched.clock, batched.step_index) == (heap_loop.clock, heap_loop.step_index)
    for rng in ("demand_rng", "noise_rng"):
        states = [getattr(sim, rng).bit_generator.state for sim in (batched, heap_loop)]
        assert states[0] == states[1]


def test_tied_exits_pop_in_id_order_at_both_ends_and_across_steps():
    # 10 s steps, 60 s batches.  Vehicles 0-2 leave node 1 and 3-5 node 4 at
    # 0 s; free 10 s first hops put them at 10 s on the free edges 2 -> 3
    # (60 s) and 5 -> 3 (70 s), onto which vehicles 6-8 (from node 2) and
    # 9-11 (from node 5) depart at 10 s.  A pass files its departures before
    # its moved exits, so the next batch's first pass finds the exits due
    # at 70 s and at 80 s, two of its steps, pending with the higher ids
    # first: sorted by time they are one tied run at each end of the array.
    # All twelve then enter the congestible 3 -> 6 in pop order, so the
    # count each sees, and its arrival, depends on how the ties broke.
    def free(t0):
        return DelayFunction(t0=t0, capacity=1e9)

    edges = [Edge(0, 1, 2, free(10.0)), Edge(1, 2, 3, free(60.0)), Edge(2, 4, 5, free(10.0)),
             Edge(3, 5, 3, free(70.0)), Edge(4, 3, 6, DelayFunction(t0=10.0, capacity=1.0))]
    net = RoadNetwork(range(1, 7), edges)
    cfg = SimConfig(timestep=10.0, refresh_period=60.0, horizon=60.0, seed=0, debug_checks=True)
    batched, heap_loop = (cls(net, OdDemand({}), cfg)
                          for cls in (InjectingSimulation, _HeapLoopSimulation))
    for sim in (batched, heap_loop):
        for origin, time in ((1, 0.0), (4, 0.0), (2, 10.0), (5, 10.0)):
            for _ in range(3):
                sim.inject(origin, 6, time)
    batched.run()
    _step_one_at_a_time(heap_loop)
    got = [(v.route, v.entry_times, v.arrival) for v in batched.vehicles]
    assert got == list(zip(heap_loop.routes, heap_loop.entries, heap_loop.arrivals))
    assert [v.entry_times[-1] for v in batched.vehicles] == ([70.0] * 3 + [80.0] * 3) * 2
    assert len({v.arrival for v in batched.vehicles}) == 12 and batched.arrived == 12


@pytest.mark.parametrize("t0, stop", [
    (60.0, (18, 180.0, 0)),  # the vehicle arrives at 180 s
    (90.0, (20, 200.0, 1)),  # the vehicle is still on the road at the 200 s hard stop
], ids=["drained", "hard-stop"])
def test_run_stops_mid_period_where_single_steps_stop(t0, stop):
    # 10 s steps, 120 s refreshes and a 100 s horizon: both runs end inside
    # the period that starts at 120 s, one when its last vehicle arrives and
    # one at DRAIN_FACTOR * horizon
    cfg = SimConfig(mode="private", horizon=100.0, seed=3)
    batched, stepped = (InjectingSimulation(_line_network(4, t0), OdDemand({}), cfg)
                        for _ in range(2))
    for sim in (batched, stepped):
        sim.inject(1, 4, 0.0)
    with pytest.raises(ValueError, match="refresh period"):
        batched.step(13)
    batched.run()
    _step_one_at_a_time(stepped)
    for sim in (batched, stepped):
        assert (sim.step_index, sim.clock, sim.in_transit) == stop
    assert batched.vehicles == stepped.vehicles
    # a run that went on into the next period would refresh once more
    assert batched.noise_rng.bit_generator.state == stepped.noise_rng.bit_generator.state


def test_route_table_matches_shortest_path_after_each_refresh():
    # private weights move with the noise, so the tables differ between refreshes
    net, od = load_sioux_falls()
    cfg = SimConfig(mode="private", horizon=600.0, demand_multiplier=2.0, seed=4)
    sim = Simulation(net, od, cfg)
    tables = []
    while sim.clock < cfg.horizon:
        sim.step()
        if (sim.step_index - 1) % sim.steps_per_refresh:
            continue
        # the refresh step departed drawn vehicles, so it built the table
        lengths, offsets, edges = sim._table
        routes = [tuple(edges[start:start + n].tolist()) for start, n in zip(offsets, lengths)]
        trees = {o: heap_dijkstra(net, sim.weights.tolist(), o) for o in net.nodes}
        assert routes == [tree_path(net, trees[o], o, d) for o, d in sim._demand.pairs]
        tables.append(routes)
    assert len(tables) == 5 and len({repr(t) for t in tables}) > 1


def test_reserved_columns_are_trimmed_to_the_vehicles():
    net, od = load_sioux_falls()
    sim = InjectingSimulation(net, od, SimConfig(horizon=300.0, demand_multiplier=2.0, seed=7,
                                                 debug_checks=True))
    sim.step()
    vs = sim.vehicles
    # the first refresh reserved one slot per vehicle drawn before the horizon
    drawn = len(sim._drawn)
    assert len(vs.origins) == drawn > len(vs) > 0
    sim.inject(1, 20, 200.0)  # one more than reserved: the reservation grows
    sim.run()
    n = len(vs)
    assert n == drawn + 1
    per_vehicle = (vs.origins, vs.dests, vs.departs, vs.arrivals, vs.positions)
    assert [len(c) for c in per_vehicle] == [n] * 5
    assert len(vs.starts) == n + 1
    assert len(vs.entry_counts) == len(vs.route_edges) == vs.starts[-1]


@pytest.mark.parametrize("column", ["departs", "starts", "route_edges", "entry_counts"])
def test_invariant_check_catches_a_write_past_the_vehicles(column):
    net, od = load_sioux_falls()
    sim = Simulation(net, od, SimConfig(horizon=300.0, demand_multiplier=2.0, seed=7,
                                        debug_checks=True))
    vs = sim.vehicles
    used = (lambda: vs.starts[len(vs)]) if column in ("route_edges", "entry_counts") else (
        lambda: len(vs) + (column == "starts"))
    sim.step()
    while len(getattr(vs, column)) == used():  # no slot reserved past the vehicles yet
        sim.step()
    sim._check_invariants()
    getattr(vs, column)[-1] = 0
    with pytest.raises(RuntimeError, match="reserved past the vehicles was written"):
        sim._check_invariants()


@pytest.mark.parametrize("entered", [True, False], ids=["entered", "ahead"])
def test_invariant_check_catches_a_corrupted_entry_count(entered):
    # a vehicle's block holds a count for each edge it has entered and the
    # fill after them: clearing the slot of its current edge, or writing the
    # one of its next, breaks the check
    net, od = load_sioux_falls()
    sim = Simulation(net, od, SimConfig(horizon=300.0, demand_multiplier=2.0, seed=7,
                                        debug_checks=True))
    sim.step()
    vs = sim.vehicles
    starts, _, positions, arrivals, _ = vs.views()
    current = starts[:-1] + positions  # the slot of each vehicle's current edge
    i = int(np.flatnonzero(np.isnan(arrivals) & (current + 1 < starts[1:]))[0])
    slot = int(current[i]) + (not entered)
    del starts, positions, arrivals, current
    sim._check_invariants()
    vs.entry_counts[slot] = 0xFFFF if entered else 0
    with pytest.raises(RuntimeError, match="an entry count is missing"):
        sim._check_invariants()


def _wide_line():
    # 1 -> 2 -> 3 with a capacity that keeps tau near t0 at any count
    return RoadNetwork(range(1, 4), [Edge(i, i + 1, i + 2, DelayFunction(t0=60.0, capacity=1e6))
                                     for i in range(2)])


def test_largest_entry_count_is_stored_and_read_back():
    net = _wide_line()
    sim = InjectingSimulation(net, OdDemand({}), SimConfig(mode="private", horizon=100.0, seed=0))
    sim.inject(1, 3, 0.0)
    sim.counts[0] = 0xFFFE  # so the vehicle sees 0xFFFE on edge 0
    sim.run()
    v = sim.vehicles[0]
    assert sim.vehicles.entry_counts.tolist() == [0xFFFE, 0]
    assert v.entry_times == [0.0, net.tau_by_count[0, 0xFFFE]] and v.arrival > 120.0
    # the table stops at the largest count a road holds, 0xFFFF
    assert net.tau_by_count.shape == (2, 0x10000)
    with pytest.raises(OverflowError, match="past the 65535 vehicles"):
        net.grow_tau(0x10000)


@pytest.mark.parametrize("wide", [False, True], ids=["table-narrow", "table-wide"])
def test_entry_count_past_the_column_raises_naming_the_edge(wide):
    # entry counts are array('H') filled with 0xFFFF: a count of 0xFFFF would
    # read as unwritten and 0x10000 would wrap to 0, so the pass raises
    # before it writes, also where the tau table already covers the count
    net = _wide_line()
    if wide:
        net.grow_tau(0xFFFF)
    sim = InjectingSimulation(net, OdDemand({}), SimConfig(mode="private", horizon=100.0, seed=0))
    sim.inject(2, 3, 0.0)  # onto edge 1
    sim.counts[1] = 0xFFFF
    with pytest.raises(OverflowError, match="edge 1 would hold 65535 vehicles"):
        sim.step()
    assert sim.vehicles.entry_counts.tolist() == [0xFFFF]
    # the batch stopped partway through its events, so the run cannot go on
    for go_on in (sim.step, sim.run):
        with pytest.raises(RuntimeError, match=r"OverflowError\('edge 1 would hold 65535"):
            go_on()


def test_drain_refreshes_build_no_trees(monkeypatch):
    clocks = []
    sp_tree = privroute.sim._sp_tree

    def counting_tree(*args):
        clocks.append(sim.clock)
        return sp_tree(*args)

    monkeypatch.setattr("privroute.sim._sp_tree", counting_tree)
    net, od = load_sioux_falls()
    cfg = SimConfig(mode="private", horizon=300.0, demand_multiplier=2.0, seed=4)
    sim = Simulation(net, od, cfg)
    sim.run()
    # refreshes ran at 360 s and later, but every tree was built before 300 s:
    # one `_sp_tree` call for all origins per refresh that departs someone
    assert sim.clock > 360.0 and sim._table is None
    assert clocks == [0.0, 120.0, 240.0]
    # the demand was drawn for the 30 steps before the horizon and no later,
    # and no period's departures are left over
    rng, _ = _one_step_draws(sim, 30)
    assert sim.demand_rng.bit_generator.state == rng.bit_generator.state
    assert sim._period is None


def test_nonprivate_weights_equal_bisection_at_every_refresh():
    # the non-private refresh reads tau from the shared table instead of
    # bisecting; it must publish the same bits
    net, od = load_sioux_falls()
    checked = []

    class Checked(Simulation):
        def _refresh(self):
            counts = np.array(self.counts, dtype=float)
            super()._refresh()
            expected = _tau_vector(net.t0, net.capacity, net.alpha, net.beta, counts)
            checked.append((counts.max(), self.weights.tobytes() == expected.tobytes()))

    Checked(net, od, SimConfig(horizon=600.0, demand_multiplier=2.0, seed=6)).run()
    assert len(checked) > 5 and max(top for top, _ in checked) > 0
    assert all(ok for _, ok in checked)


def test_traversal_time_reflects_existing_occupancy():
    # second vehicle enters while the first is still on the road
    net = RoadNetwork([1, 2], [Edge(0, 1, 2, _delay(30.0, cap=0.05))])
    cfg = SimConfig(horizon=30.0, timestep=10.0, refresh_period=10.0, seed=0)
    sim = InjectingSimulation(net, OdDemand({}), cfg)
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


def test_arrived_entry_times_filled_and_ordered():
    # entry times sit in one buffer per run with NaN in slots not yet
    # written; an arrived vehicle must have written every one of its slots
    net, od = load_sioux_falls()
    cfg = SimConfig(horizon=600.0, seed=8, demand_multiplier=0.5)
    _, result_np, result_p = run_experiment(net, od, cfg)
    arrived = 0
    for result in (result_np, result_p):
        for v in result.vehicles:
            if v.arrival is None or not v.route:
                continue
            arrived += 1
            times = v.entry_times
            assert len(times) == len(v.route)
            assert not any(math.isnan(x) for x in times)
            assert times[0] == v.depart
            assert all(a <= b for a, b in zip(times, times[1:]))
            assert times[-1] <= v.arrival
    assert arrived > 5000


def test_entry_times_in_transit_empty_route_and_copies():
    # 60 s edges and a 30 s horizon: the run stops at the 60 s drain limit
    # with the vehicle on the second of its three edges
    cfg = SimConfig(horizon=30.0, timestep=10.0, refresh_period=10.0, seed=0)
    runs = []
    for _ in range(2):
        sim = InjectingSimulation(_line_network(4), OdDemand({}), cfg)
        sim.inject(1, 4, 0.0)
        sim.inject(2, 2, 5.0)
        runs.append(sim.run())
    moving, parked = runs[0].vehicles
    assert runs[0].n_incomplete == 1 and moving.arrival is None
    assert moving.pos == 1 and moving.entry_times == [0.0, 60.0]
    assert parked.route == () and parked.arrival == 5.0 and parked.entry_times == []

    times = moving.entry_times
    times.append(1.0)
    times[0] = 99.0
    assert moving.entry_times == [0.0, 60.0]
    with pytest.raises(AttributeError):
        moving.entry_times = []

    # repr and equality cover the vehicle's own fields, not the run's buffer
    assert len(repr(moving)) < 120 and "nan" not in repr(moving)
    assert runs[0].vehicles == runs[1].vehicles


# -- the vehicle table ----------------------------------------------------------

def _three_vehicle_run():
    # two vehicles through the 60 s line, one parked (origin == destination)
    sim = InjectingSimulation(_line_network(), OdDemand({}), SimConfig(horizon=100.0, seed=1))
    sim.inject(1, 3, 0.0)
    sim.inject(2, 3, 5.0)
    sim.inject(2, 2, 7.0)
    sim.run()
    return sim


def test_vehicle_columns_is_a_sequence():
    empty = Simulation(_line_network(), OdDemand({}), SimConfig(horizon=100.0, seed=1))
    empty.run()
    assert isinstance(empty.vehicles, VehicleColumns) and not empty.vehicles
    assert len(empty.vehicles) == 0 and list(empty.vehicles) == [] and empty.vehicles[:] == []
    with pytest.raises(IndexError):
        empty.vehicles[0]

    vs = _three_vehicle_run().vehicles
    first, second, parked = vs
    assert len(vs) == 3 and vs
    assert [v.id for v in vs] == [0, 1, 2] and list(vs) == [vs[0], vs[1], vs[2]]
    assert (first.origin, second.depart, parked.route) == (1, 5.0, ())
    assert vs[-1] == parked and vs[-3] == first
    for bad in (3, -4):
        with pytest.raises(IndexError):
            vs[bad]
    with pytest.raises(TypeError):
        vs["0"]
    assert vs[1:] == [second, parked] and vs[::-2] == [parked, first] and vs[5:] == []
    assert second in vs and vs.index(parked) == 2

    # tables are equal when their vehicles are; a list of them is not a table
    assert vs == _three_vehicle_run().vehicles and vs != list(vs)
    other = InjectingSimulation(_line_network(), OdDemand({}), SimConfig(horizon=100.0, seed=1))
    for o, d, time in ((1, 3, 0.0), (2, 3, 6.0), (2, 2, 7.0)):
        other.inject(o, d, time)
    other.run()
    assert other.vehicles != vs


@pytest.mark.parametrize("nodes, typecode", [
    ([-128, 127], "b"), ([-129, 0], "h"), ([0, 128], "h"), ([-2**63, 2**63 - 1], "q"),
])
def test_endpoint_typecode_holds_every_node_id(nodes, typecode):
    net = RoadNetwork(nodes, [Edge(0, nodes[0], nodes[1], _delay())])
    assert VehicleColumns(net).origins.typecode == VehicleColumns(net).dests.typecode == typecode


def test_wide_node_ids_read_back_exactly():
    # ids past int16 and below zero take 32-bit endpoints, drawn or injected
    ids = [-1000, 7, 70000]
    edges = [Edge(i, u, v, _delay()) for i, (u, v) in enumerate(
        [(-1000, 7), (7, 70000), (70000, 7), (7, -1000)])]
    od = OdDemand({(-1000, 70000): 360 / DEFAULT_DEMAND_SCALE})
    sim = InjectingSimulation(RoadNetwork(ids, edges), od,
                              SimConfig(horizon=60.0, seed=3, debug_checks=True))
    sim.inject(70000, -1000, 5.0)
    sim.run()
    vs = sim.vehicles
    assert vs.origins.typecode == vs.dests.typecode == "i" and vs.starts.typecode == "i"
    trips = [(v.origin, v.dest) for v in vs]
    assert len(trips) > 2 and set(trips) == {(-1000, 70000), (70000, -1000)}
    sioux_falls = Simulation(*load_sioux_falls(), SimConfig()).vehicles
    assert (sioux_falls.origins.typecode, sioux_falls.starts.typecode) == ("b", "i")


@pytest.mark.parametrize("typecode", ["d", "b", "H"])
def test_grow_holds_no_second_copy_of_its_fill(typecode):
    # the fill goes into the column a block at a time: growing an empty
    # column to 2^20 items peaks near the column's own size, not twice it
    column = array(typecode)
    tracemalloc.start()
    try:
        _grow(column, 1 << 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = len(column) * column.itemsize
    assert len(column) == 1 << 20 and peak < 1.25 * size
    assert column.tobytes() == b"\xff" * size


def test_reserve_refuses_more_route_slots_than_starts_hold():
    vs = VehicleColumns(_line_network())
    with pytest.raises(OverflowError):
        vs.reserve(0, 2**31)
    with pytest.raises(OverflowError):
        vs.append(np.array([2**31]), np.empty(0, dtype=np.int8), 1, 3, 0.0, math.nan)
    columns = (vs.origins, vs.dests, vs.departs, vs.arrivals, vs.positions, vs.route_edges,
               vs.entry_counts)
    assert [len(c) for c in columns] == [0] * 7 and vs.starts.tolist() == [0] and not vs


def test_vehicle_columns_read_mid_run():
    # 60 s edges, 10 s steps: the vehicle enters its second edge at 60 s and
    # its third at 120 s, and arrives at 180 s
    cfg = SimConfig(horizon=100.0, timestep=10.0, refresh_period=10.0, seed=0)
    sim = InjectingSimulation(_line_network(4), OdDemand({}), cfg)
    sim.inject(1, 4, 0.0)
    for _ in range(7):
        sim.step()
    v = sim.vehicles[0]
    assert (v.pos, v.arrival, v.travel_time) == (1, None, None)
    assert v.entry_times == [0.0, 60.0]
    for _ in range(6):
        sim.step()
    # a built value keeps the state it was built from
    assert v.pos == 1 and v.entry_times == [0.0, 60.0]
    now = sim.vehicles[-1]
    assert now.pos == 2 and now.arrival is None and now.entry_times == [0.0, 60.0, 120.0]
    sim.run()
    done = sim.vehicles[0]
    assert (done.pos, done.arrival, done.entry_times) == (3, 180.0, [0.0, 60.0, 120.0])


def test_vehicle_columns_are_read_only():
    sim = _three_vehicle_run()
    vs = sim.vehicles
    before = list(vs)
    with pytest.raises(TypeError):
        vs[0] = vs[1]
    with pytest.raises(TypeError):
        del vs[0]
    v = vs[0]
    v.arrival, v.pos, v.route, v.depart = None, 0, (), 99.0
    assert list(vs) == before and vs[0] != v
    assert vs[0].arrival > 119.0 and vs[0].entry_times == before[0].entry_times == [0.0, 60.0]


def test_vehicle_conservation_debug_checks():
    net, od = load_sioux_falls()
    cfg = SimConfig(
        horizon=240.0, seed=3, demand_multiplier=0.05, debug_checks=True
    )
    sim = Simulation(net, od, cfg)
    sim.run()  # per-step invariant checks run inside
    assert sim.arrived + sim.in_transit == len(sim.vehicles)


# builds a run with nobody on the road, corrupts its counts, and prints the
# error the next step's invariant check raises
CORRUPT_COUNTS = """
import sys
from privroute.roadnet import DelayFunction, Edge, RoadNetwork
from privroute.sim import SimConfig, Simulation
from privroute.tntp import OdDemand

edges = [Edge(i, i + 1, i + 2, DelayFunction(t0=60.0, capacity=10.0)) for i in range(2)]
sim = Simulation(RoadNetwork([1, 2, 3], edges), OdDemand({}),
                 SimConfig(horizon=100.0, seed=1, debug_checks=True))
sim.step()
sim.counts[1] += 1
try:
    sim.step()
except RuntimeError as exc:
    print(f"optimize={sys.flags.optimize}: {exc}")
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_debug_checks_catch_corrupted_counts(flags):
    # `python -O` strips assert statements; the invariant checks must not be
    # among them
    src = str(Path(privroute.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, *flags, "-c", CORRUPT_COUNTS], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out == (
        f"optimize={len(flags)}: simulator invariant broken after 2 steps: "
        "counts drifted from vehicle state\n"
    )


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


def _compare_by_vehicle(result_np, result_p):
    """compare_runs as a per-vehicle loop over built Vehicle values: the
    reference the column version must match exactly."""
    tt_np, tt_p, unchanged, no_increase = [], [], 0, 0
    for a, b in zip(result_np.vehicles, result_p.vehicles):
        if a.arrival is None or b.arrival is None:
            continue
        tt_np.append(a.arrival - a.depart)
        tt_p.append(b.arrival - b.depart)
        unchanged += a.route == b.route
        no_increase += tt_p[-1] <= tt_np[-1] + 1e-9
    n = len(tt_np)
    return (float(np.mean(tt_np)), float(np.mean(tt_p)), 100.0 * unchanged / n,
            100.0 * no_increase / n, n)


def test_compare_runs_matches_per_vehicle_loop():
    net, od = load_sioux_falls()
    cfg = SimConfig(demand_multiplier=2.0, seed=12, horizon=600.0)
    metrics, result_np, result_p = run_experiment(net, od, cfg)
    assert result_np.n_incomplete > 1000 and result_p.n_incomplete > 1000
    got = (metrics.travel_time_s, metrics.travel_time_private_s,
           metrics.routes_unchanged_pct, metrics.no_increase_pct, metrics.n_vehicles)
    assert got == _compare_by_vehicle(result_np, result_p)
    assert 0 < metrics.routes_unchanged_pct < 100 and 0 < metrics.no_increase_pct < 100
    assert all(type(x) is float for x in got[:4]) and type(got[4]) is int


@pytest.mark.parametrize("chunk", [1, 7])
def test_compare_runs_chunk_size_changes_nothing(chunk, monkeypatch):
    # routes compared a few vehicles at a time give the metrics of the
    # default chunk, which holds the whole run here
    net, od = load_sioux_falls()
    cfg = SimConfig(demand_multiplier=2.0, seed=12, horizon=600.0)
    metrics, result_np, result_p = run_experiment(net, od, cfg)
    assert 0 < metrics.routes_unchanged_pct < 100
    monkeypatch.setattr("privroute.sim._COMPARE_VEHICLES", chunk)
    assert compare_runs(result_np, result_p).as_dict() == metrics.as_dict()


@pytest.mark.parametrize("second", [
    [(1, 3, 0.0)],  # fewer departures
    [(1, 3, 0.0), (1, 3, 10.0)],  # a departure at another time
    [(1, 3, 0.0), (2, 3, 5.0)],  # another origin
    [(1, 3, 0.0), (1, 2, 5.0)],  # another destination
], ids=["count", "depart", "origin", "dest"])
def test_compare_runs_rejects_diverged_demand(second):
    runs = []
    for trips in ([(1, 3, 0.0), (1, 3, 5.0)], second):
        sim = InjectingSimulation(_line_network(), OdDemand({}), SimConfig(horizon=100.0, seed=1))
        for o, d, time in trips:
            sim.inject(o, d, time)
        runs.append(sim.run())
    with pytest.raises(ValueError, match="diverged in demand"):
        compare_runs(*runs)


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
    assert (rep.minimum, rep.maximum, rep.mean) == (0.0, 0.0, 0.0)


def test_utilization_report_values():
    entries = np.array([720.0, 0.0])
    caps = np.array([0.1, 0.2])  # vehicles per second
    rep = utilization_report(entries, caps, 7200.0)
    assert rep.per_edge[0] == pytest.approx(1.0)
    assert (rep.minimum, rep.maximum, rep.mean) == (0.0, 1.0, 0.5)


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
    for bad in (
        dict(timestep=math.inf),
        dict(timestep=math.nan),
        dict(horizon=math.inf),
        dict(horizon=math.nan),
        dict(horizon=-1.0),
        dict(refresh_period=math.inf),
        dict(refresh_period=math.nan),
        dict(refresh_period=0.0),
        dict(demand_multiplier=math.inf),
        dict(demand_multiplier=math.nan),
        dict(demand_multiplier=-1.0),
        dict(seed=-1),
    ):
        with pytest.raises(ValueError):
            SimConfig(**bad)


# -- memory ------------------------------------------------------------------

def test_baseline_pair_peaks_near_the_columns_it_keeps():
    # a baseline pair (seed 11) stores its shared columns once and builds no
    # whole-run transient: its traced peak stays within 1.3x the column
    # bytes of its two results, each run's counted in full (14.6 MB).  A
    # pair that kept both runs' copies and full-length travel times peaked
    # at 1.49x
    net, od = load_sioux_falls()
    cfg = SimConfig(demand_multiplier=2.0, seed=11)
    run_experiment(net, od, cfg)  # the network's tau table grows once, here
    tracemalloc.start()
    try:
        _, result_np, result_p = run_experiment(net, od, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    names = ("origins", "dests", "departs", "arrivals", "starts", "route_edges", "positions",
             "entry_counts")
    columns = sum(len(c) * c.itemsize for c in (
        getattr(r.vehicles, name) for r in (result_np, result_p) for name in names))
    assert peak < 1.3 * columns, f"peak {peak / 1e6:.1f} MB over {columns / 1e6:.1f} MB"


# -- garbage collector ---------------------------------------------------------

def test_runs_leave_no_cyclic_garbage():
    # a run makes no reference cycles: with the collector off, a collection
    # after an exact-noise Sioux Falls pair and a run with full-protocol
    # noise finds nothing unreachable
    net, od = load_sioux_falls()
    mpc = SimConfig(mode="private", noise="mpc", epsilon=0.5, horizon=240.0, seed=2,
                    demand_multiplier=6.0, refresh_period=60.0)
    gc.collect()
    gc.disable()
    try:
        _, result_np, _ = run_experiment(
            net, od, SimConfig(horizon=600.0, seed=5, demand_multiplier=0.2)
        )
        result_mpc = Simulation(_triangle(), OdDemand({(1, 3): 400.0, (2, 3): 200.0}),
                                mpc).run()
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert len(result_np.vehicles) > 1000 and len(result_mpc.vehicles) > 10
    assert unreachable == 0


def test_dropped_runs_are_freed_without_the_collector():
    # a run's results hold no reference cycle (no view points back at its
    # Simulation), so dropping a pair frees each run's entry counts at once,
    # with the collector off and no gc.collect()
    net, od = load_sioux_falls()
    gc.disable()
    try:
        results = run_experiment(net, od, SimConfig(horizon=300.0, seed=5,
                                                    demand_multiplier=0.2))
        counts = [weakref.ref(r.vehicles.entry_counts) for r in results[1:]]
        assert all(ref() is not None and len(ref()) > 100 for ref in counts)
        del results
        assert [ref() for ref in counts] == [None, None]
    finally:
        gc.enable()
