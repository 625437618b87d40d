"""Discrete-time traffic simulator comparing private and non-private routing.

Vehicles arrive as per-OD Poisson streams, get a fixed shortest-time route at
departure based on the most recently published travel-time estimates, and
traverse each edge in the time implied by the ground-truth count at entry.
Estimates refresh every `refresh_period` seconds: the non-private run
publishes tau(counts); the private run publishes tau(max(0, counts + Z))
with Z either exact Laplace noise (fast path, default) or the output of the
full multi-party round (`noise="mpc"`, small scenarios only: the round costs
O(edges * parties^2 * degree) per refresh).

Paired runs share the demand stream: the demand and noise generators are
independent substreams of one seed, so flipping the mode or epsilon never
perturbs who departs when.  The run is single-threaded and deterministic
given the config.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import asdict, dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .field import MERSENNE_521
from .laplace import LaplaceParams, fit_inverse_cdf_poly, sample_laplace_vector
from .protocol import PartyInput, run_round
from .roadnet import RoadNetwork, _tau_vector
from .tntp import DEFAULT_DEMAND_SCALE, OdDemand


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
    demand_scale: float = DEFAULT_DEMAND_SCALE
    seed: int = 0
    drain_factor: float = 2.0  # hard stop at drain_factor * horizon
    debug_checks: bool = False
    # full-protocol noise knobs (the field is 2^521 - 1); modest defaults
    # keep the round affordable
    mpc_degree: int = 7
    mpc_seed_bits: int = 16

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


@dataclass
class TrafficState:
    """Live simulator state: ground truth plus the last published estimates."""

    counts: np.ndarray
    published_counts: Optional[np.ndarray]
    published_weights: np.ndarray
    clock: float


def shortest_path(
    network: RoadNetwork, edge_weights, origin: int, destination: int
) -> list[int]:
    """Minimum-total-weight edge sequence from origin to destination.

    Ties break deterministically toward the smallest next-node id (the heap
    orders by (distance, node)).  origin == destination gives the empty path.
    """
    dist, pred = _sp_tree(network, np.asarray(edge_weights, dtype=float), origin)
    return _extract_path(network, pred, dist, origin, destination)


def _sp_tree(network: RoadNetwork, weights: np.ndarray, origin: int):
    if np.any(weights <= 0):
        raise ValueError("edge weights must be positive")
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


def draw_demand(
    od: OdDemand,
    multiplier: float,
    timestep: float,
    rng: np.random.Generator,
    demand_scale: float = DEFAULT_DEMAND_SCALE,
) -> list[tuple]:
    """Poisson departures for one timestep: a list of (origin, destination).

    Each OD pair draws independently with mean
    rate * demand_scale * multiplier * timestep/3600; rates are the raw table
    values and demand_scale maps them to vehicles/hour.
    """
    if multiplier < 0:
        raise ValueError("multiplier must be nonnegative")
    out = []
    items = od.nonzero_items()
    if not items:
        return out
    lam = np.array([r for _, r in items]) * (demand_scale * multiplier * timestep / 3600.0)
    counts = rng.poisson(lam)
    for ((o, d), _), k in zip(items, counts):
        if k and o != d:
            out.extend([(o, d)] * int(k))
    return out


class _TauTable:
    """Memoized tau at integer counts, one growable table per edge."""

    def __init__(self, t0, cap, alpha, beta):
        self.t0, self.cap, self.alpha, self.beta = t0, cap, alpha, beta
        m = len(t0)
        self.tables = [np.array([t0[e]]) for e in range(m)]

    def lookup(self, edge: int, count: int) -> float:
        table = self.tables[edge]
        if count >= len(table):
            upto = 2 * count + 8
            counts = np.arange(len(table), upto + 1, dtype=float)
            ext = _tau_vector(
                self.t0[edge], self.cap[edge], self.alpha[edge], self.beta[edge], counts
            )
            table = np.concatenate([table, ext])
            self.tables[edge] = table
        return float(table[count])


class Simulation:
    """One simulation run; construct, optionally inject vehicles, then run()."""

    def __init__(self, network: RoadNetwork, od: OdDemand, config: SimConfig):
        self.network = network
        self.od = od
        self.config = config
        m = network.n_edges
        self.t0 = np.array([e.delay.t0 for e in network.edges])
        self.cap = np.array([e.delay.capacity for e in network.edges])
        self.alpha = np.array([e.delay.alpha for e in network.edges])
        self.beta = np.array([e.delay.beta for e in network.edges])
        self.tau_table = _TauTable(self.t0, self.cap, self.alpha, self.beta)

        self.counts = np.zeros(m, dtype=np.int64)
        self.entries_horizon = np.zeros(m, dtype=np.int64)
        self.weights = self.t0.copy()
        self.published_counts: Optional[np.ndarray] = None
        self.clock = 0.0
        self.step_index = 0
        self.steps_per_refresh = round(config.refresh_period / config.timestep)
        self.vehicles: list[Vehicle] = []
        self.in_transit = 0
        self.arrived = 0
        self._heap: list = []
        self._routes: dict = {}
        self._trees: dict = {}
        self._scheduled: list = []
        self._mpc_polys: dict = {}
        self._mpc_refresh_index = 0

        ss = np.random.SeedSequence(entropy=config.seed)
        demand_ss, noise_ss = ss.spawn(2)
        self.demand_rng = np.random.default_rng(demand_ss)
        self.noise_rng = np.random.default_rng(noise_ss)

    # -- state ------------------------------------------------------------

    @property
    def state(self) -> TrafficState:
        return TrafficState(
            counts=self.counts.copy(),
            published_counts=None if self.published_counts is None
            else self.published_counts.copy(),
            published_weights=self.weights.copy(),
            clock=self.clock,
        )

    def inject(self, origin: int, dest: int, time: float = 0.0) -> None:
        """Schedule a single departure (test hook, bypasses the Poisson draw)."""
        self._scheduled.append((time, origin, dest))
        self._scheduled.sort()

    # -- estimate refresh ---------------------------------------------------

    def _refresh(self) -> None:
        cfg = self.config
        if cfg.mode == "non-private":
            noisy = self.counts.astype(float)
            self.published_counts = None
        elif cfg.noise == "exact" or self.in_transit < 3:
            # fewer than 3 parties cannot run the multiplication ladder;
            # fall back to the statistically equivalent direct sampler
            z = sample_laplace_vector(cfg.epsilon, self.noise_rng, self.network.n_edges)
            noisy = self.counts + z
            self.published_counts = noisy.copy()
        else:
            noisy = self._mpc_counts()
            self.published_counts = noisy.copy()
        self.weights = _tau_vector(self.t0, self.cap, self.alpha, self.beta, noisy)
        self._routes.clear()
        self._trees.clear()

    def _mpc_counts(self) -> np.ndarray:
        cfg = self.config
        n = self.in_transit
        poly = self._mpc_polys.get(n)
        if poly is None:
            poly = fit_inverse_cdf_poly(
                LaplaceParams(cfg.epsilon),
                cfg.mpc_degree,
                MERSENNE_521,
                n_parties=n,
                seed_bits=cfg.mpc_seed_bits,
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

    def _enter_edge(self, vehicle: Vehicle, time: float) -> None:
        edge = vehicle.route[vehicle.pos]
        # traversal time reflects the vehicles already on the road, not the
        # entrant itself: an empty road is traversed in exactly t0
        tau = self.tau_table.lookup(edge, int(self.counts[edge]))
        self.counts[edge] += 1
        if time < self.config.horizon:
            self.entries_horizon[edge] += 1
        vehicle.entry_times.append(time)
        heapq.heappush(self._heap, (time + tau, vehicle.id))

    def _depart(self, origin: int, dest: int, time: float) -> None:
        route = self._route(origin, dest)
        v = Vehicle(
            id=len(self.vehicles), origin=origin, dest=dest, depart=time,
            route=route, pos=0, entry_times=[], arrival=None,
        )
        self.vehicles.append(v)
        if not route:
            v.arrival = time
            self.arrived += 1
            return
        self.in_transit += 1
        self._enter_edge(v, time)

    def step(self) -> None:
        """Advance one timestep: refresh estimates if due, depart, move."""
        cfg = self.config
        t = self.clock
        if self.step_index % self.steps_per_refresh == 0:
            self._refresh()

        if t < cfg.horizon:
            while self._scheduled and self._scheduled[0][0] < t + cfg.timestep:
                st, o, d = self._scheduled.pop(0)
                self._depart(o, d, max(st, t))
            for o, d in draw_demand(
                self.od, cfg.demand_multiplier, cfg.timestep, self.demand_rng,
                cfg.demand_scale,
            ):
                self._depart(o, d, t)

        t_end = t + cfg.timestep
        heap = self._heap
        while heap and heap[0][0] <= t_end:
            exit_time, vid = heapq.heappop(heap)
            v = self.vehicles[vid]
            self.counts[v.route[v.pos]] -= 1
            v.pos += 1
            if v.pos == len(v.route):
                v.arrival = exit_time
                self.arrived += 1
                self.in_transit -= 1
            else:
                self._enter_edge(v, exit_time)

        self.clock = t_end
        self.step_index += 1
        if cfg.debug_checks:
            self._check_invariants()

    def _check_invariants(self) -> None:
        recount = np.zeros_like(self.counts)
        transit = 0
        for v in self.vehicles:
            if v.arrival is None:
                recount[v.route[v.pos]] += 1
                transit += 1
        assert np.array_equal(recount, self.counts), "counts drifted from vehicle state"
        assert transit == self.in_transit
        assert len(self.vehicles) == self.arrived + self.in_transit, "vehicle conservation"

    def run(self) -> "RunResult":
        cfg = self.config
        hard_stop = cfg.drain_factor * cfg.horizon
        while self.clock < cfg.horizon or (self._heap and self.clock < hard_stop):
            self.step()
        return RunResult(
            vehicles=self.vehicles,
            entries_horizon=self.entries_horizon,
            capacities=self.cap,
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
        if (a.origin, a.dest, a.depart) != (b.origin, b.dest, b.depart):
            raise ValueError("paired runs diverged in demand; seeds were not shared")
        if a.arrival is None or b.arrival is None:
            continue
        tt_np.append(a.travel_time)
        tt_p.append(b.travel_time)
        if a.route == b.route:
            unchanged += 1
        if b.travel_time <= a.travel_time + 1e-9:
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
