"""Discrete-time traffic simulator comparing private and non-private routing.

Vehicles arrive as per-OD Poisson streams, get a fixed shortest-time route at
departure based on the most recently published travel-time estimates, and
traverse each edge in the time implied by the ground-truth count at entry.
Estimates refresh every `refresh_period` seconds: the non-private run
publishes tau(counts); the private run publishes tau(max(0, counts + Z))
with Z either exact Laplace noise (fast path, default) or the output of the
full multi-party round (`noise="mpc"`, small scenarios only: the round costs
O(edges * parties^2 * degree) per refresh).  The round's polynomial has degree
MPC_DEGREE and each party draws its seed from MPC_SEED_BITS bits, in the
Mersenne field 2^521 - 1; modest values keep the round affordable.

Each step departs its vehicles, then pops edge exits in (exit time, vehicle
id) order until the next exit lies past the step's end; a vehicle leaving one
edge enters the next at its exit time, so it can cross several edges in one
step.  Pending exits sit in one heap of (exit_time, vid) pairs, pushed at each
edge entry.  Per-edge counts are plain Python lists, and traversal times come
from the network's tau tables (`RoadNetwork.tau_by_count`, float lists shared
by every run on the network), so an edge entry touches no numpy scalar.

Paired runs share the demand stream: the demand and noise generators are
independent substreams of one seed, so flipping the mode or epsilon never
perturbs who departs when.  The run is single-threaded and deterministic
given the config.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import asdict, dataclass, replace
from typing import Optional

import numpy as np

from .field import MERSENNE_521
from .laplace import LaplaceParams, fit_inverse_cdf_poly, sample_laplace_vector
from .protocol import PartyInput, run_round
from .roadnet import RoadNetwork, _tau_vector
from .tntp import DEFAULT_DEMAND_SCALE, OdDemand

MPC_DEGREE = 7
MPC_SEED_BITS = 16
DRAIN_FACTOR = 2.0  # a run stops at DRAIN_FACTOR * horizon, even with vehicles left


class Unreachable(ValueError):
    """No path exists between the requested endpoints."""


@dataclass
class SimConfig:
    epsilon: float = 0.1
    mode: str = "non-private"  # or "private"
    noise: str = "exact"  # or "mpc"
    timestep: float = 10.0
    horizon: float = 7200.0
    refresh_period: float = 120.0
    demand_multiplier: float = 1.0
    seed: int = 0
    debug_checks: bool = False

    def __post_init__(self):
        if self.mode not in ("private", "non-private"):
            raise ValueError(f"mode must be 'private' or 'non-private', got {self.mode!r}")
        if self.noise not in ("exact", "mpc"):
            raise ValueError(f"noise must be 'exact' or 'mpc', got {self.noise!r}")
        if self.timestep <= 0 or self.horizon < 0:
            raise ValueError("timestep must be positive and horizon nonnegative")
        ratio = self.refresh_period / self.timestep
        if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
            raise ValueError(
                f"timestep {self.timestep} must divide refresh period {self.refresh_period}"
            )
        if self.demand_multiplier < 0:
            raise ValueError("demand multiplier must be nonnegative")
        if not (self.epsilon > 0):
            raise ValueError("epsilon must be positive (math.inf = no noise)")
        if self.noise == "mpc" and not math.isfinite(self.epsilon):
            raise ValueError("noise 'mpc' needs a finite epsilon to fit its noise polynomial")


@dataclass
class Vehicle:
    __slots__ = ("id", "origin", "dest", "depart", "route", "pos", "entry_times", "arrival")
    id: int
    origin: int
    dest: int
    depart: float
    route: tuple
    pos: int
    entry_times: list
    arrival: Optional[float]

    @property
    def travel_time(self) -> Optional[float]:
        return None if self.arrival is None else self.arrival - self.depart


def shortest_path(
    network: RoadNetwork, edge_weights, origin: int, destination: int
) -> list[int]:
    """Minimum-total-weight edge sequence from origin to destination.

    Ties break deterministically toward the smallest next-node id (the heap
    orders by (distance, node)).  origin == destination gives the empty path.
    """
    weights = np.asarray(edge_weights, dtype=float)
    if np.any(weights <= 0):
        raise ValueError("edge weights must be positive")
    dist, pred = _sp_tree(network, weights, origin)
    return _extract_path(network, pred, dist, origin, destination)


def _sp_tree(network: RoadNetwork, weights: np.ndarray, origin: int):
    """Dijkstra from origin; weights must be positive (the simulator's are
    tau >= t0 > 0, and shortest_path checks outside ones)."""
    dist = {n: math.inf for n in network.nodes}
    pred: dict = {n: -1 for n in network.nodes}
    dist[origin] = 0.0
    heap = [(0.0, origin)]
    done = set()
    edges = network.edges
    out_edges = network.out_edges
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        for eid in out_edges[u]:
            e = edges[eid]
            nd = d + weights[eid]
            if nd < dist[e.head]:
                dist[e.head] = nd
                pred[e.head] = eid
                heapq.heappush(heap, (nd, e.head))
    return dist, pred


def _extract_path(network, pred, dist, origin, destination) -> list[int]:
    if origin == destination:
        return []
    if math.isinf(dist[destination]):
        raise Unreachable(f"no path from {origin} to {destination}")
    path = []
    node = destination
    while node != origin:
        eid = pred[node]
        path.append(eid)
        node = network.edges[eid].tail
    path.reverse()
    return path


class _DemandTable:
    """Positive-rate OD pairs in draw order (sorted), their rates, and which
    pairs move (origin != destination)."""

    def __init__(self, od: OdDemand):
        items = od.nonzero_items()
        self.pairs = [pair for pair, _ in items]
        self.rates = np.array([r for _, r in items])
        self.moves = np.array([o != d for o, d in self.pairs], dtype=bool)


def draw_demand(
    table: _DemandTable, multiplier: float, timestep: float, rng: np.random.Generator
) -> list[tuple]:
    """Poisson departures for one timestep: a list of (origin, destination).

    Each OD pair in `table` (built once per run by a Simulation) draws
    independently with mean
    rate * DEFAULT_DEMAND_SCALE * multiplier * timestep/3600; rates are the
    raw table values and DEFAULT_DEMAND_SCALE maps them to vehicles/hour.
    """
    if multiplier < 0:
        raise ValueError("multiplier must be nonnegative")
    if not table.pairs:
        return []
    lam = table.rates * (DEFAULT_DEMAND_SCALE * multiplier * timestep / 3600.0)
    counts = rng.poisson(lam)
    # self pairs draw (keeping the stream) but never depart
    drawn = np.flatnonzero(counts * table.moves)
    pairs = table.pairs
    out = []
    for i, k in zip(drawn.tolist(), counts[drawn].tolist()):
        out.extend([pairs[i]] * k)
    return out


def check_demand(network: RoadNetwork, od: OdDemand) -> None:
    """Fail before a run on OD input it cannot serve.

    Raises ValueError if a positive-rate pair names a node the network lacks,
    and Unreachable if such a pair has no path.  Reachability is a breadth-first
    search over `out_edges`, one per origin.
    """
    known = set(network.nodes)
    reached: dict = {}
    for (o, d), _ in od.nonzero_items():
        for node in (o, d):
            if node not in known:
                raise ValueError(f"OD pair ({o}, {d}) names node {node}, not in the network")
        if o == d:
            continue
        if o not in reached:
            seen = {o}
            frontier = [o]
            while frontier:
                node = frontier.pop()
                for eid in network.out_edges[node]:
                    head = network.edges[eid].head
                    if head not in seen:
                        seen.add(head)
                        frontier.append(head)
            reached[o] = seen
        if d not in reached[o]:
            raise Unreachable(f"no path from {o} to {d}")


class Simulation:
    """One simulation run; construct, optionally inject vehicles, then run()."""

    def __init__(self, network: RoadNetwork, od: OdDemand, config: SimConfig):
        check_demand(network, od)
        self.network = network
        self.config = config
        m = network.n_edges
        self._demand = _DemandTable(od)

        # per-edge vehicles on the road now, and entries before the horizon
        self.counts = [0] * m
        self.entries_horizon = [0] * m
        self.weights = network.t0.copy()
        self.clock = 0.0
        self.step_index = 0
        self.steps_per_refresh = round(config.refresh_period / config.timestep)
        self.vehicles: list[Vehicle] = []
        self.in_transit = 0
        self.arrived = 0
        self._heap: list = []  # pending exits as (exit_time, vehicle id)
        self._routes: dict = {}
        self._trees: dict = {}
        self._scheduled: list = []  # heap of injected (time, origin, dest)
        self._mpc_polys: dict = {}
        self._mpc_refresh_index = 0

        ss = np.random.SeedSequence(entropy=config.seed)
        demand_ss, noise_ss = ss.spawn(2)
        self.demand_rng = np.random.default_rng(demand_ss)
        self.noise_rng = np.random.default_rng(noise_ss)

    def inject(self, origin: int, dest: int, time: float = 0.0) -> None:
        """Schedule a single departure (test hook, bypasses the Poisson draw)."""
        heapq.heappush(self._scheduled, (time, origin, dest))

    # -- estimate refresh ---------------------------------------------------

    def _refresh(self) -> None:
        cfg = self.config
        counts = np.array(self.counts, dtype=float)
        if cfg.mode == "non-private":
            noisy = counts
        elif cfg.noise == "exact" or self.in_transit < 3:
            # fewer than 3 parties cannot run the multiplication ladder;
            # fall back to the statistically equivalent direct sampler
            z = sample_laplace_vector(cfg.epsilon, self.noise_rng, self.network.n_edges)
            noisy = counts + z
        else:
            noisy = self._mpc_counts()
        net = self.network
        self.weights = _tau_vector(net.t0, net.capacity, net.alpha, net.beta, noisy)
        self._routes.clear()
        self._trees.clear()

    def _mpc_counts(self) -> np.ndarray:
        cfg = self.config
        n = self.in_transit
        poly = self._mpc_polys.get(n)
        if poly is None:
            poly = fit_inverse_cdf_poly(
                LaplaceParams(cfg.epsilon),
                MPC_DEGREE,
                MERSENNE_521,
                n_parties=n,
                seed_bits=MPC_SEED_BITS,
                ks_samples=10_000,
            )
            self._mpc_polys[n] = poly
        inputs = []
        pid = 1
        for v in self.vehicles:
            if v.arrival is None and v.pos < len(v.route):
                inputs.append(
                    PartyInput.on_edge(pid, v.route[v.pos], self.network.n_edges)
                )
                pid += 1
        round_seed = (cfg.seed << 20) ^ self._mpc_refresh_index
        self._mpc_refresh_index += 1
        result = run_round(inputs, poly, seed=round_seed, record_transcript=False)
        return np.array(result.noisy_counts)

    # -- movement -----------------------------------------------------------

    def _route(self, origin: int, dest: int) -> tuple:
        key = (origin, dest)
        route = self._routes.get(key)
        if route is None:
            tree = self._trees.get(origin)
            if tree is None:
                tree = _sp_tree(self.network, self.weights, origin)
                self._trees[origin] = tree
            dist, pred = tree
            route = tuple(_extract_path(self.network, pred, dist, origin, dest))
            self._routes[key] = route
        return route

    def step(self) -> None:
        """Advance one timestep: refresh estimates if due, depart, move."""
        cfg = self.config
        t = self.clock
        if self.step_index % self.steps_per_refresh == 0:
            self._refresh()
        t_end = t + cfg.timestep

        vehicles = self.vehicles
        entering: list = []  # departed vehicles with a nonempty route, by id
        if t < cfg.horizon:
            departures = []
            scheduled = self._scheduled
            while scheduled and scheduled[0][0] < t_end:
                st, o, d = heapq.heappop(scheduled)
                departures.append((max(st, t), o, d))
            departures += [(t, o, d) for o, d in draw_demand(
                self._demand, cfg.demand_multiplier, cfg.timestep, self.demand_rng
            )]
            route_of = self._route
            for time, o, d in departures:
                route = route_of(o, d)
                v = Vehicle(len(vehicles), o, d, time, route, 0, [], None)
                vehicles.append(v)
                if route:
                    entering.append(v)
                else:
                    v.arrival = time
                    self.arrived += 1

        heap = self._heap
        heappush, heappop = heapq.heappush, heapq.heappop
        counts = self.counts
        entries_horizon = self.entries_horizon
        tables = self.network.tau_by_count
        grow = self.network.grow_tau
        horizon = cfg.horizon
        n_entering = len(entering)
        arrived = 0
        # one entry path: departures first, in id order, then each exit in
        # (exit_time, vid) order that does not end the vehicle's route
        i = 0
        while True:
            if i < n_entering:
                v = entering[i]
                i += 1
                time = v.depart
            elif heap and heap[0][0] <= t_end:
                time, vid = heappop(heap)
                v = vehicles[vid]
                route = v.route
                counts[route[v.pos]] -= 1
                v.pos += 1
                if v.pos == len(route):
                    v.arrival = time
                    arrived += 1
                    continue
            else:
                break
            edge = v.route[v.pos]
            # traversal time reflects the vehicles already on the road, not
            # the entrant itself: an empty road is traversed in exactly t0
            c = counts[edge]
            table = tables[edge]
            if c >= len(table):
                table = grow(edge, c)
            counts[edge] = c + 1
            if time < horizon:
                entries_horizon[edge] += 1
            v.entry_times.append(time)
            heappush(heap, (time + table[c], v.id))
        self.in_transit += n_entering - arrived
        self.arrived += arrived

        self.clock = t_end
        self.step_index += 1
        if cfg.debug_checks:
            self._check_invariants()

    def _check_invariants(self) -> None:
        recount = [0] * len(self.counts)
        transit = 0
        for v in self.vehicles:
            if v.arrival is None:
                recount[v.route[v.pos]] += 1
                transit += 1
        assert recount == self.counts, "counts drifted from vehicle state"
        assert transit == self.in_transit
        assert len(self.vehicles) == self.arrived + self.in_transit, "vehicle conservation"
        assert len(self._heap) == self.in_transit, "one pending exit per vehicle in transit"
        assert all(x > self.clock for x, _ in self._heap), "an exit was filed too late"

    def run(self) -> "RunResult":
        cfg = self.config
        hard_stop = DRAIN_FACTOR * cfg.horizon
        while self.clock < cfg.horizon or (self.in_transit and self.clock < hard_stop):
            self.step()
        return RunResult(
            vehicles=self.vehicles,
            entries_horizon=np.array(self.entries_horizon, dtype=np.int64),
            capacities=self.network.capacity,
            config=cfg,
            n_incomplete=self.in_transit,
        )


@dataclass
class RunResult:
    vehicles: list
    entries_horizon: np.ndarray
    capacities: np.ndarray
    config: SimConfig
    n_incomplete: int

    def utilization(self) -> "UtilizationReport":
        return utilization_report(
            self.entries_horizon, self.capacities, self.config.horizon
        )


@dataclass
class UtilizationReport:
    minimum: float
    maximum: float
    mean: float
    per_edge: np.ndarray

    def as_tuple(self) -> tuple:
        return (self.minimum, self.maximum, self.mean)


def utilization_report(entries, capacities, horizon_s: float) -> UtilizationReport:
    """Per-edge entries/hour over capacity, summarized across edges."""
    entries = np.asarray(entries, dtype=float)
    if entries.size == 0 or horizon_s <= 0:
        return UtilizationReport(0.0, 0.0, 0.0, np.zeros(0))
    flows = entries / horizon_s  # vehicles per second, matching capacity units
    util = flows / np.asarray(capacities, dtype=float)
    return UtilizationReport(
        float(util.min()), float(util.max()), float(util.mean()), util
    )


@dataclass
class Metrics:
    """Paired-run performance measures."""

    travel_time_s: float  # non-private mean
    travel_time_private_s: float
    increase_s: float
    increase_pct: float
    routes_unchanged_pct: float
    no_increase_pct: float
    utilization_min: float
    utilization_max: float
    utilization_mean: float
    n_vehicles: int
    n_incomplete: int

    def as_dict(self) -> dict:
        return asdict(self)


def run_experiment(
    network: RoadNetwork, od: OdDemand, config: SimConfig
) -> tuple[Metrics, RunResult, RunResult]:
    """Run the paired experiment: non-private and private with shared demand.

    `config.mode` is ignored; both modes run.  Returns the metrics plus both
    run results for further inspection.
    """
    result_np = Simulation(network, od, replace(config, mode="non-private")).run()
    result_p = Simulation(network, od, replace(config, mode="private")).run()
    return compare_runs(result_np, result_p), result_np, result_p


def compare_runs(result_np: RunResult, result_p: RunResult) -> Metrics:
    """Metrics over vehicles that completed in both runs, matched by id."""
    va, vb = result_np.vehicles, result_p.vehicles
    if len(va) != len(vb):
        raise ValueError("paired runs diverged in demand; seeds were not shared")
    tt_np, tt_p, unchanged, no_increase = [], [], 0, 0
    for a, b in zip(va, vb):
        if a.origin != b.origin or a.dest != b.dest or a.depart != b.depart:
            raise ValueError("paired runs diverged in demand; seeds were not shared")
        if a.arrival is None or b.arrival is None:
            continue
        time_a = a.arrival - a.depart
        time_b = b.arrival - b.depart
        tt_np.append(time_a)
        tt_p.append(time_b)
        if a.route == b.route:
            unchanged += 1
        if time_b <= time_a + 1e-9:
            no_increase += 1
    n = len(tt_np)
    mean_np = float(np.mean(tt_np)) if n else 0.0
    mean_p = float(np.mean(tt_p)) if n else 0.0
    util = result_np.utilization()
    return Metrics(
        travel_time_s=mean_np,
        travel_time_private_s=mean_p,
        increase_s=mean_p - mean_np,
        increase_pct=100.0 * (mean_p - mean_np) / mean_np if mean_np else 0.0,
        routes_unchanged_pct=100.0 * unchanged / n if n else 0.0,
        no_increase_pct=100.0 * no_increase / n if n else 0.0,
        utilization_min=util.minimum,
        utilization_max=util.maximum,
        utilization_mean=util.mean,
        n_vehicles=n,
        n_incomplete=result_np.n_incomplete + result_p.n_incomplete,
    )
