"""Discrete-time traffic simulator comparing private and non-private routing.

Vehicles arrive as per-OD Poisson streams, get a fixed shortest-time route at
departure based on the most recently published travel-time estimates, and
traverse each edge in the time implied by the ground-truth count at entry.
Estimates refresh every `refresh_period` seconds: the non-private run
publishes tau(counts), read from the network's tau table; the private run
bisects for tau(max(0, counts + Z)), with Z either exact Laplace noise
(fast path, default) or the output of the full multi-party round
(`noise="mpc"`, small scenarios only: the round costs
O(edges * parties^2 * degree) per refresh).  The round's polynomial has degree
MPC_DEGREE and each party draws its seed from MPC_SEED_BITS bits, in the
smallest field that holds it (2^255 - 19 or 2^521 - 1, see `field`); modest
values keep the round affordable.

The run's first refresh draws the Poisson demand of every step that starts
before the horizon in one `draw_demand` call: numpy draws in order, so this
is, value for value and in the generator's state, one draw per step.  Within
a refresh period the estimates, so every route, stay fixed.  A refresh
before the horizon takes its period's slice of the draw, builds the route
table (`Simulation._route`: the shortest-path trees of every origin from one
numpy relaxation, `_sp_tree`, whose distances and ties are a heap
Dijkstra's, then one numpy walk back from every destination at once), and
gathers the drawn vehicles' routes from it in one index.  Refreshes after
the horizon depart nobody, so they build no table and no tree.

`run` calls `step(k)` with k running to the next refresh; `step()` alone is
a batch of one.  A batch departs the drawn vehicles of each of its steps
that starts before the horizon, then moves its vehicles as if one edge
event at a time, step by step: a step's departures, in id order, enter
their first edges, then the exits due by the step's end pop in (exit time,
vehicle id) order; a vehicle leaving one edge enters the next at its exit
time, so it can cross several edges in one step.  An exit belongs to the
first step whose end, on the clock that adds one timestep per step, is at
or after its exit time.  `_move` does this in numpy passes, each cut where
an entrant's new exit would pop inside it.  A batch ends where `run` stops:
after the step that reaches DRAIN_FACTOR * horizon, or after the first step
that ends at or past the horizon with nobody in transit.  So `clock` and
`step_index` end where a step-by-step loop ends them, and no extra refresh
draws noise.  `debug_checks` checks the invariants after each batch.

A run keeps its vehicles in a `VehicleColumns`, one narrow `array` column
per field indexed by vehicle id, with each vehicle's route, and the count
it saw on entering each edge, in one block of two flat columns; the first
refresh reserves the slots of the vehicles drawn, and `run` trims the
columns to the vehicles departed.  Entry times are not stored: each is the
previous one plus the tau table's entry at the previous edge and count,
the sum `_move` made, so `Vehicle.entry_times` rebuilds them bit for bit.
Paired runs share the demand stream: the demand and noise generators are
independent substreams of one seed, so `run_experiment`'s private run
departs the non-private run's draw and borrows its finished origins,
destinations and departure times.  The run is single-threaded and
deterministic given the config.
"""

from __future__ import annotations

import math
import operator
from array import array
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field, replace
from itertools import accumulate, repeat, takewhile
from typing import Optional

import numpy as np

from .field import MERSENNE_521
from .laplace import LaplaceParams, fit_inverse_cdf_poly, sample_laplace_vector
from .protocol import PartyInput, run_round
from .roadnet import MAX_COUNT, RoadNetwork, _tau_vector
from .tntp import DEFAULT_DEMAND_SCALE, OdDemand

MPC_DEGREE = 7
MPC_SEED_BITS = 16
_DRAW_CELLS = 1 << 20  # the (step, pair) cells one draw_demand call of a run draws at most
_COMPARE_VEHICLES = 1 << 15  # the vehicles whose routes one pass of compare_runs compares
_GROW_ITEMS = 1 << 14  # the fill items one write of _grow adds
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
    debug_checks: bool = False  # check the run's invariants after each batch of steps

    def __post_init__(self):
        if self.mode not in ("private", "non-private"):
            raise ValueError(f"mode must be 'private' or 'non-private', got {self.mode!r}")
        if self.noise not in ("exact", "mpc"):
            raise ValueError(f"noise must be 'exact' or 'mpc', got {self.noise!r}")
        if not (0 < self.timestep < math.inf and 0 <= self.horizon < math.inf):
            raise ValueError("timestep must be positive and horizon nonnegative, both finite")
        if not 0 < self.refresh_period < math.inf:
            raise ValueError(f"refresh period must be positive and finite: {self.refresh_period}")
        ratio = self.refresh_period / self.timestep
        if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
            raise ValueError(
                f"timestep {self.timestep} must divide refresh period {self.refresh_period}"
            )
        if not 0 <= self.demand_multiplier < math.inf:
            raise ValueError("demand multiplier must be nonnegative and finite")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if not (self.epsilon > 0):
            raise ValueError("epsilon must be positive (math.inf = no noise)")
        if self.noise == "mpc" and not math.isfinite(self.epsilon):
            raise ValueError("noise 'mpc' needs a finite epsilon to fit its noise polynomial")


@dataclass(slots=True)
class Vehicle:
    """One departure, as its run's columns held it when this value was built.
    The counts it saw on entering its edges live in the run's shared
    `entry_counts` column, `len(route)` slots from `_start`, filled as it
    enters each edge; `_tau` is the network's tau table as it stood then,
    which holds every count written (the table only grows).  Neither takes
    part in repr or equality."""

    id: int
    origin: int
    dest: int
    depart: float
    route: tuple
    pos: int
    arrival: Optional[float]
    _start: int = field(repr=False, compare=False)
    _counts: array = field(repr=False, compare=False)
    _tau: np.ndarray = field(repr=False, compare=False)

    @property
    def entry_times(self) -> list:
        """Time of entry to each edge entered so far, as a new list: one per
        route edge once arrived, `pos + 1` while in transit.  Each after the
        departure adds the tau of the edge before at the count seen there,
        the float sum `_move` made."""
        after = min(self.pos, len(self.route) - 1)  # the entries after the departure's
        if after < 0:
            return []
        # a plain loop: most vehicles enter one to three edges, too few for
        # an accumulate chain's set-up to pay
        t, times = self.depart, [self.depart]
        tau, route, counts, start = self._tau.item, self.route, self._counts, self._start
        for i in range(after):
            t += tau(route[i], counts[start + i])
            times.append(t)
        return times

    @property
    def travel_time(self) -> Optional[float]:
        return None if self.arrival is None else self.arrival - self.depart


def _index_typecode(n: int) -> str:
    """The smallest signed `array` typecode that holds -n - 1..n."""
    return next(code for code in "bhiq" if n < 1 << (8 * array(code).itemsize - 1))


_RESERVED = 0xFF  # every byte of a reserved slot until written
_UNSEEN = MAX_COUNT  # an entry count slot's reserve fill, so every count seen stays below it


def _view(column: array) -> np.ndarray:
    return np.frombuffer(column, dtype=column.typecode)


def _grow(column: array, size: int) -> None:
    """Make `column` hold at least `size` items, adding items of 0xFF bytes
    (at least as many as it holds, so repeated growth takes linear time).
    The fill goes in _GROW_ITEMS items at a time, so growth never holds a
    second copy of what it adds."""
    if len(column) < size:
        add = max(size - len(column), len(column))
        block = bytes([_RESERVED]) * (column.itemsize * min(add, _GROW_ITEMS))
        for done in range(0, add, _GROW_ITEMS):
            column.frombytes(block[:(add - done) * column.itemsize])


class VehicleColumns(Sequence):
    """A run's vehicles, one column per field, indexed by vehicle id.

    Vehicle i's route is the block `route_edges[starts[i]:starts[i + 1]]`,
    so `starts` holds one more entry than there are vehicles; the same
    slots of `entry_counts`, `array('H')`, hold the count it saw on entering
    each edge, from which `Vehicle.entry_times` rebuilds its entry times
    (a count must stay below the fill, 0xFFFF).  Origins and destinations
    use the smallest typecode that holds every node id of `network`, edge
    ids and route positions the smallest that holds its edge count, and
    `starts` is `array('i')`, so a run holds at most 2^31 - 1 route slots:
    23 B per vehicle and 3 B per route slot on Sioux Falls.

    Only the run appends and writes to the columns.  Given a `_lender`, the
    finished columns of a run that departed the same vehicles, it shares
    that one's origins, dests and departs and never grows, writes or trims
    them.  It reserves the slots of the rest ahead (`reserve`), and a column
    that runs out, as when routes outgrow their reservation, at least
    doubles.  Until `trim`, which `Simulation.run` calls at its end, a
    column may hold slots past the vehicles appended, each byte 0xFF until
    written.  `len` and `views` count only the vehicles appended.  As a
    Sequence it is read-only: each index or iteration builds a new
    `Vehicle` from the columns as they are then, and a slice is a list of
    them.  `arrivals` holds NaN while a vehicle is in transit.  Two
    VehicleColumns are equal when their vehicles are.
    """

    __slots__ = ("origins", "dests", "departs", "arrivals", "starts", "route_edges",
                 "positions", "entry_counts", "_network", "_borrowed", "_n")

    def __init__(self, network: RoadNetwork, _lender: Optional["VehicleColumns"] = None):
        nodes = network.nodes
        endpoint = _index_typecode(max(max(nodes, default=0), ~min(nodes, default=0)))
        self.origins, self.dests, self.departs = (
            (array(endpoint), array(endpoint), array("d")) if _lender is None
            else (_lender.origins, _lender.dests, _lender.departs))
        self._borrowed = 3 * (_lender is not None)  # the lender's, first in _per_vehicle order
        self.arrivals = array("d")
        self.starts = array("i", [0])  # first slot of each route block, and the end
        self.route_edges = array(_index_typecode(network.n_edges))
        self.positions = array(self.route_edges.typecode)  # route index of the current edge
        self.entry_counts = array("H")  # the count each edge entry saw, in its route block's slots
        self._network = network  # whose tau table turns entry counts into times
        self._n = 0  # vehicles appended

    def __len__(self) -> int:
        return self._n

    def _per_vehicle(self) -> tuple:
        """The per-vehicle columns it writes, those of a lender left out."""
        columns = self.origins, self.dests, self.departs, self.arrivals, self.positions
        return columns[self._borrowed:]

    def reserve(self, vehicles: int, slots: int) -> None:
        """Make room for `vehicles` more vehicles with `slots` more route
        slots between them.  A column that must grow at least doubles.
        Raises OverflowError, before growing any, if the route slots would
        not fit in `starts`' typecode."""
        n = self._n
        used = self.starts[n]
        if used + slots >= 1 << (8 * self.starts.itemsize - 1):
            raise OverflowError(f"{used + slots} route slots overflow the block starts")
        for column in self._per_vehicle():
            _grow(column, n + vehicles)
        _grow(self.starts, n + 1 + vehicles)
        _grow(self.route_edges, used + slots)
        _grow(self.entry_counts, used + slots)

    def append(self, ends, edges, origins, dests, departs, arrivals) -> None:
        """Append one vehicle per entry of `ends`, the end of each one's
        route block counted from the current end of the blocks; the other
        arguments are arrays, or one value for every vehicle."""
        n, k = self._n, len(ends)
        if not k:
            return
        used = self.starts[n]
        self.reserve(k, int(ends[-1]))
        _view(self.starts)[n + 1:n + 1 + k] = used + ends
        _view(self.route_edges)[used:used + len(edges)] = edges
        fills = (origins, dests, departs, arrivals, 0)[self._borrowed:]
        for column, values in zip(self._per_vehicle(), fills):
            _view(column)[n:n + k] = values
        self._n = n + k

    def trim(self) -> None:
        """Drop the slots reserved past the vehicles appended."""
        n = self._n
        used = self.starts[n]
        for column in self._per_vehicle():
            del column[n:]
        del self.starts[n + 1:]
        del self.route_edges[used:]
        del self.entry_counts[used:]

    def reserve_untouched(self) -> bool:
        """Whether every slot reserved past the vehicles appended holds its
        fill as `reserve` left it."""
        n = self._n
        used = self.starts[n]
        tails = [_view(column)[n:] for column in self._per_vehicle()]
        tails += [_view(self.starts)[n + 1:], _view(self.route_edges)[used:],
                  _view(self.entry_counts)[used:]]
        return all((tail.view(np.uint8) == _RESERVED).all() for tail in tails)

    def views(self) -> tuple:
        """numpy views of (starts, route_edges, positions, arrivals,
        entry_counts), over the vehicles appended and their slots.  While a
        view lives its array cannot grow, so callers drop them before
        returning."""
        n = self._n
        used = self.starts[n]
        return (_view(self.starts)[:n + 1], _view(self.route_edges)[:used],
                _view(self.positions)[:n], _view(self.arrivals)[:n],
                _view(self.entry_counts)[:used])

    def current_edges(self, ids: np.ndarray) -> np.ndarray:
        """The edge each of the vehicles `ids`, all in transit, is on."""
        starts, route_edges, positions, _, _ = self.views()
        return route_edges[starts[ids] + positions[ids]]

    def _vehicle(self, i: int) -> Vehicle:
        arrival = self.arrivals[i]
        start = self.starts[i]
        return Vehicle(i, self.origins[i], self.dests[i], self.departs[i],
                       tuple(self.route_edges[start:self.starts[i + 1]]), self.positions[i],
                       None if math.isnan(arrival) else arrival, start, self.entry_counts,
                       self._network.tau_by_count)

    def __getitem__(self, index):
        n = len(self)
        if isinstance(index, slice):
            return [self._vehicle(i) for i in range(*index.indices(n))]
        i = operator.index(index)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError(f"vehicle index {index} out of range for {n} vehicles")
        return self._vehicle(i)

    def __iter__(self):
        return map(self._vehicle, range(len(self)))

    def __eq__(self, other):
        if not isinstance(other, VehicleColumns):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))


def shortest_path(
    network: RoadNetwork, edge_weights, origin: int, destination: int
) -> list[int]:
    """Minimum-total-weight edge sequence from origin to destination.

    Ties break as `_sp_tree` breaks them.  origin == destination gives the
    empty path.  Raises ValueError for an endpoint the network lacks, and
    unless there is one positive, finite weight per edge.
    """
    for role, node in (("origin", origin), ("destination", destination)):
        if node not in network.out_arcs:
            raise ValueError(f"{role} node {node} is not in the network")
    weights = np.asarray(edge_weights, dtype=float)
    if weights.shape != (network.n_edges,):
        raise ValueError(f"need one weight per edge ({network.n_edges}),"
                         f" got shape {weights.shape}")
    if not (np.isfinite(weights) & (weights > 0)).all():
        raise ValueError("edge weights must be positive and finite")
    dist, pred = _sp_tree(network, weights)
    row = network.nodes.index(origin)
    return _extract_path(network, pred[row], dist[row], origin, destination)


def _sp_tree(network: RoadNetwork, weights: np.ndarray) -> tuple:
    """Shortest-path trees from every node at once: (dist, pred), one row
    per origin and one column per node, both in `network.nodes` order.

    `weights` holds one positive, finite float per edge in edge-id order
    (the simulator's are tau >= t0 > 0, and shortest_path checks outside
    ones).  `dist[r, v]` is the distance from origin r to node v, inf where
    v is unreachable; `pred[r, v]` is the edge by which r's tree reaches v,
    -1 at the origin and at nodes the tree does not reach.

    A Bellman-Ford relaxation of all origins together, over the network's
    `relaxation_layout`, built on its first tree and kept: each node's
    in-edges take one slot each, in (tail id, edge id) order, after a slot
    0 that holds a zero-weight loop (so a pass keeps what it has) and
    before padding of infinite weight.  Each pass gathers `dist[tail] + w`
    over the slots and takes the minimum across them, until a pass changes
    nothing.  Its distances are those of a heap Dijkstra, bit for bit: both
    reach the fixed point dist[v] = min over in-edges (u, v) of
    fl(dist[u] + w), the least left-fold sum over paths, since fl(a + w) is
    monotone in a and every w > 0 (a cycle never lowers a sum).
    `pred[r, v]` is the in-edge e = (u, v) with
    fl(dist[r, u] + w[e]) == dist[r, v] that has the smallest
    (dist[r, u], u's node id, e).  That is the first such edge a heap
    Dijkstra relaxes, popping nodes by (distance, node) and relaxing each
    node's out-edges in edge-id order with a strict `<`, so ties break as
    it breaks them.
    """
    n = network.n_nodes
    in_edge, tail, padded, cells = network.relaxation_layout
    w = padded.copy()
    w.reshape(-1)[cells] = weights
    # dist[v, r], and pred below, hold node v's entry in origin r's tree
    dist = np.full((n, n), math.inf)
    np.fill_diagonal(dist, 0.0)
    while True:
        via = dist[tail]
        via += w
        best = np.minimum.reduce(via, axis=0)
        if np.array_equal(best, dist):
            break
        dist = best
    # `via` is from the final dist: of the in-edges that reach v at its
    # distance, the first of those whose tail is nearest
    from_tail = np.where(via == dist, dist[tail], math.inf)
    from_tail[0] = math.inf
    nearest = np.minimum.reduce(from_tail, axis=0)
    first = (from_tail == nearest).argmax(axis=0)
    pred = np.where(nearest < math.inf, in_edge[first, np.arange(n)[:, None]], -1)
    return dist.T, pred.T


def _extract_path(network, pred, dist, origin, destination) -> list[int]:
    """The edges from origin to destination along one row of `_sp_tree`:
    `pred` and `dist` are origin's rows, one entry per node in
    `network.nodes` order."""
    if origin == destination:
        return []
    column = {n: i for i, n in enumerate(network.nodes)}
    node = column[destination]
    if math.isinf(dist[node]):
        raise Unreachable(f"no path from {origin} to {destination}")
    path = []
    while (eid := int(pred[node])) >= 0:
        path.append(eid)
        node = column[network.edges[eid].tail]
    path.reverse()
    return path


class _DemandTable:
    """Positive-rate OD pairs in draw order (sorted), their rates, origins
    and destinations, and which pairs move (origin != destination)."""

    def __init__(self, od: OdDemand):
        items = od.nonzero_items()
        self.pairs = [pair for pair, _ in items]
        self.rates = np.array([r for _, r in items])
        self.origins = np.array([o for o, _ in self.pairs], dtype=np.int64)
        self.dests = np.array([d for _, d in self.pairs], dtype=np.int64)
        self.moves = self.origins != self.dests


def draw_demand(
    table: _DemandTable, multiplier: float, timestep: float, rng: np.random.Generator,
    steps: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Poisson departures for `steps` consecutive timesteps: (indices, counts).

    Each OD pair in `table` (built once per run by a Simulation) draws
    independently each step with mean
    rate * DEFAULT_DEMAND_SCALE * multiplier * timestep/3600; rates are the
    raw table values and DEFAULT_DEMAND_SCALE maps them to vehicles/hour.
    An index i, ascending, names step i // len(table.pairs) and pair
    i % len(table.pairs), a moving pair that drew at least one departure in
    that step; its count is how many it drew.  Self pairs draw too, keeping
    the stream, but never depart.

    numpy draws an array's elements in order, so one call over k steps gives
    the values, and leaves `rng` in the state, of k one-step calls.
    """
    if not table.pairs:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    lam = table.rates * (DEFAULT_DEMAND_SCALE * multiplier * timestep / 3600.0)
    counts = rng.poisson(lam, size=(steps, len(lam)))
    drawn = np.flatnonzero(counts * table.moves)
    return drawn, counts.ravel()[drawn]


def check_demand(network: RoadNetwork, od: OdDemand) -> None:
    """Fail before a run on OD input it cannot serve.

    Raises ValueError if a positive-rate pair names a node the network lacks,
    and Unreachable if such a pair has no path.  Reachability is a breadth-first
    search over `out_arcs`, one per origin.
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
                for _, head in network.out_arcs[node]:
                    if head not in seen:
                        seen.add(head)
                        frontier.append(head)
            reached[o] = seen
        if d not in reached[o]:
            raise Unreachable(f"no path from {o} to {d}")


class Simulation:
    """One simulation run; construct, then run()."""

    def __init__(self, network: RoadNetwork, od: OdDemand, config: SimConfig,
                 _shared: tuple = (None, None)):
        """`_shared`, which only `run_experiment` passes, is the draw and the
        finished VehicleColumns of a run on the same demand: this run departs
        that draw instead of drawing its own, and borrows the columns'
        origins, destinations and departure times, which it would write the
        same, instead of writing its own."""
        check_demand(network, od)
        self.network = network
        self.config = config
        m = network.n_edges
        self._demand = _DemandTable(od)

        # per-edge vehicles on the road now, and entries before the horizon
        self.counts = [0] * m
        self.entries_horizon = np.zeros(m, dtype=np.int64)
        self.weights = network.t0.copy()
        self.clock = 0.0
        self.step_index = 0
        self.steps_per_refresh = round(config.refresh_period / config.timestep)
        self._drawn, lender = _shared  # the run's drawn vehicles, see _draw_run
        self.vehicles = VehicleColumns(network, lender)
        self.in_transit = 0
        self.arrived = 0
        # pending exits, one per vehicle in transit, in no particular order
        self._exit_times = np.empty(0)
        self._exit_ids = np.empty(0, dtype=np.int64)
        self._table = None  # route table under self.weights, see _route
        # the route walk's index (see _route): each pair's origin row
        # and destination column, and each edge's tail column, then column
        # n_nodes for edge -1
        column = {n: i for i, n in enumerate(network.nodes)}
        rows, dest_columns = (np.array([column[n] for n in nodes.tolist()], dtype=np.int64)
                              for nodes in (self._demand.origins, self._demand.dests))
        self._walk = (rows, dest_columns,
                      np.array([column[t] for t in network.tails.tolist()] + [network.n_nodes]))
        self._period = None  # the drawn departures of this period, see _draw_period
        self._mpc_polys: dict = {}
        self._mpc_refresh_index = 0
        self._error = None  # what a batch raised; the run then refuses to step

        ss = np.random.SeedSequence(entropy=config.seed)
        demand_ss, noise_ss = ss.spawn(2)
        self.demand_rng = np.random.default_rng(demand_ss)
        self.noise_rng = np.random.default_rng(noise_ss)

    # -- estimate refresh ---------------------------------------------------

    def _refresh(self) -> None:
        cfg = self.config
        net = self.network
        if cfg.mode == "non-private":
            # tau at a whole count is the shared tau table's entry, bit for bit
            counts = np.array(self.counts, dtype=np.int64)
            top = int(counts.max(initial=0))
            table = net.tau_by_count if top < net.tau_by_count.shape[1] else net.grow_tau(top)
            self.weights = table[np.arange(net.n_edges), counts]
        else:
            if cfg.noise == "exact" or self.in_transit < 3:
                # fewer than 3 parties cannot run secure multiplication;
                # the fallback draws exact Laplace noise, whereas the fitted
                # polynomial's law differs at the simulator's party counts
                # (ROADMAP item 4)
                z = sample_laplace_vector(cfg.epsilon, self.noise_rng, net.n_edges)
                noisy = np.array(self.counts, dtype=float) + z
            else:
                noisy = self._mpc_counts()
            self.weights = _tau_vector(net.t0, net.capacity, net.alpha, net.beta, noisy)
        self._table = None

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
        # one party per vehicle in transit, in vehicle-id order: there is
        # exactly one pending exit for each
        n_edges = self.network.n_edges
        edges = self.vehicles.current_edges(np.sort(self._exit_ids)).tolist()
        inputs = [PartyInput.on_edge(pid, edge, n_edges) for pid, edge in enumerate(edges, 1)]
        round_seed = (cfg.seed << 20) ^ self._mpc_refresh_index
        self._mpc_refresh_index += 1
        result = run_round(inputs, poly, seed=round_seed, record_transcript=False)
        return np.array(result.noisy_counts)

    # -- movement -----------------------------------------------------------

    def _route(self) -> tuple:
        """(lengths, offsets, edges): the route of every demand pair under the
        current weights, as one flat block of edges per pair in pair order,
        self pairs empty; built once per refresh.

        The trees are `_sp_tree`'s: `pred[r, v]` is the edge by which origin
        r's tree reaches node v, -1 at the origin, and a column n_nodes of
        -1 is added.  All routes are walked back from their destinations
        together: `into[r, e]` is the edge by which row r's tree reaches
        edge e's tail (-1 at the origin, and at e = -1, so a finished walk
        stays put).  Each walk step is one gather, as many as the longest
        route has edges.
        """
        if self._table is None:
            row, dest_column, tail_column = self._walk
            _, pred = _sp_tree(self.network, self.weights)
            pred = np.hstack((pred, np.full((len(pred), 1), -1)))
            into = pred[:, tail_column]
            edge = pred[row, dest_column]
            walk = []  # walk[i][p]: pair p's edge i places before its destination
            while (edge >= 0).any():
                walk.append(edge)
                edge = into[row, edge]
            walk = np.array(walk)
            lengths = np.count_nonzero(walk >= 0, axis=0)
            offsets = np.cumsum(lengths) - lengths
            pair = np.repeat(np.arange(len(row)), lengths)
            back = lengths[pair] - 1 - (np.arange(len(pair)) - offsets[pair])
            self._table = lengths, offsets, walk[back, pair].astype(
                self.vehicles.route_edges.typecode)
        return self._table

    def step(self, steps: int = 1) -> None:
        """Advance `steps` timesteps as one batch: refresh the estimates and
        draw the period's demand if the batch starts a period, depart, move.

        A batch must not cross a refresh.  It ends early where `run` stops:
        after the first step that ends at or past DRAIN_FACTOR * horizon,
        or at or past the horizon with nobody in transit.  So it advances
        one step at least.  After a batch raises, every call raises RuntimeError."""
        cfg = self.config
        into = self.step_index % self.steps_per_refresh
        if self._error is not None:
            raise RuntimeError(f"a batch raised {self._error!r}; the run stopped") from self._error
        if not 0 < steps <= self.steps_per_refresh - into:
            raise ValueError(f"{steps} steps from step {self.step_index} do not fit in"
                             f" its refresh period of {self.steps_per_refresh} steps")
        try:
            if into == 0:
                self._refresh()
                if self.clock < cfg.horizon:
                    self._draw_period()
            ends = self._step_ends(steps)
            del ends[bisect_left(ends, DRAIN_FACTOR * cfg.horizon) + 1:]
            entering = self._depart(ends)
            last = -math.inf  # the batch's last arrival
            if len(entering[0]) or (self._exit_times <= ends[-1]).any():
                last = self._move(*entering, ends)
        except BaseException as error:
            self._error = error  # the batch may have written part of its events
            raise
        if ends[-1] >= cfg.horizon and not self.in_transit:
            # the road drained: stop after the step of the last arrival,
            # or after the step that reaches the horizon if that is later
            del ends[max(bisect_left(ends, cfg.horizon), bisect_left(ends, last)) + 1:]
        self.clock = ends[-1]
        self.step_index += len(ends)
        if cfg.debug_checks:
            self._check_invariants()

    def _step_ends(self, steps: int) -> list:
        """The ends of the next `steps` steps, on the clock that adds one
        timestep per step."""
        return list(accumulate(repeat(self.config.timestep, steps), initial=self.clock))[1:]

    def _draw_run(self) -> np.ndarray:
        """The demand of every step that starts before the horizon: each
        drawn vehicle's step * len(pairs) + pair, ascending.

        One `draw_demand` call draws it, or one per _DRAW_CELLS cells of
        (step, pair) when there are more.  numpy draws in order, so these
        are the values, and leave `demand_rng` in the state, of one draw
        per step."""
        cfg = self.config
        n_pairs = len(self._demand.pairs)
        starts = accumulate(repeat(cfg.timestep), initial=0.0)  # the clock at each step's start
        k = sum(1 for _ in takewhile(lambda t: t < cfg.horizon, starts))
        rows = max(1, _DRAW_CELLS // max(1, n_pairs))
        parts = []
        for first in range(0, k, rows):
            cells, counts = draw_demand(self._demand, cfg.demand_multiplier, cfg.timestep,
                                        self.demand_rng, min(rows, k - first))
            parts.append(np.repeat(cells + first * n_pairs, counts))
        return np.concatenate(parts)

    def _draw_period(self) -> None:
        """Take the period's slice of the run's drawn vehicles, and gather
        their routes from the route table in one index.  The run's first
        refresh draws them (`_draw_run`) unless `run_experiment` handed
        them over, and reserves their columns: a slot for each vehicle
        drawn, and route slots for them at their pairs' route lengths in
        the first table, with 1/16 to spare (a
        baseline Sioux Falls run's routes come within 2% of that).
        `_period` holds each step's first vehicle, then per drawn vehicle
        in departure order its step in the period, its route block's end,
        its route edges, origin and destination; None when nobody is
        drawn."""
        cfg = self.config
        demand = self._demand
        n_pairs = len(demand.pairs)
        if self._drawn is None:
            self._drawn = self._draw_run()
        if not self.step_index:
            drawn = self._drawn
            routed = int(self._route()[0][drawn % n_pairs].sum()) if len(drawn) else 0
            self.vehicles.reserve(len(drawn), routed + routed // 16)
        k = bisect_left([self.clock, *self._step_ends(self.steps_per_refresh - 1)], cfg.horizon)
        first = self.step_index * n_pairs
        a, b = np.searchsorted(self._drawn, (first, first + k * n_pairs))
        cells = self._drawn[a:b] - first  # each vehicle's step in the period * len(pairs) + pair
        self._period = None
        if not len(cells):
            return
        steps, pairs = np.divmod(cells, n_pairs)
        lengths, offsets, table_edges = self._route()
        lengths = lengths[pairs]
        ends = np.cumsum(lengths)
        # vehicle i's block copies its pair's: slot s of the period's blocks
        # is slot offsets[pair] + s - (ends[i] - lengths[i]) of the table
        slots = np.arange(int(ends[-1])) + np.repeat(offsets[pairs] - ends + lengths, lengths)
        firsts = np.searchsorted(cells, np.arange(k + 1) * n_pairs).tolist()
        self._period = (firsts, steps, ends, table_edges[slots],
                        demand.origins[pairs], demand.dests[pairs])

    def _depart(self, ends: list) -> tuple:
        """Append the period's drawn departures of the batch's steps that
        start before the horizon to the columns.  Returns their ids, times
        and steps (counted from the batch's first), which `_move` enters."""
        starts = [self.clock, *ends[:-1]]
        return self._depart_drawn(0, bisect_left(starts, self.config.horizon), np.array(starts))

    def _depart_drawn(self, lo: int, hi: int, starts: np.ndarray) -> tuple:
        """Append the period's drawn departures of the batch's steps lo to
        hi - 1, each at its step's start; (ids, times, steps) of them."""
        if self._period is None:
            return np.empty(0, dtype=np.int64), np.empty(0), np.empty(0, dtype=np.int64)
        vs = self.vehicles
        first = self.step_index % self.steps_per_refresh  # the batch's first step in the period
        firsts, steps, ends, edges, origins, dests = self._period
        if first + hi + 1 == len(firsts):  # the period's last step before the horizon
            self._period = None
        a, b = firsts[first + lo], firsts[first + hi]
        base = int(ends[a - 1]) if a else 0
        steps = steps[a:b] - first
        departs = starts[steps]
        entering = np.arange(len(vs), len(vs) + b - a), departs, steps
        vs.append(ends[a:b] - base, edges[base:ends[b - 1]], origins[a:b], dests[a:b], departs,
                  math.nan)
        return entering

    def _move(self, enter_ids: np.ndarray, enter_times: np.ndarray, enter_steps: np.ndarray,
              ends: list) -> float:
        """Enter the departures `enter_ids` on their first edges, then pop
        every exit due by the batch's end, as numpy passes.  Returns the
        last arrival time, -inf when nobody arrives.

        A pass does what one event at a time would: step by step, the
        step's departures in id order, then its due exits in (exit_time,
        vid) order, an exit that does not end the vehicle's route entering
        its next edge at its exit time.  An exit belongs to the first step
        whose end is at or after its time; `enter_steps` are the
        departures' steps, counted from the batch's first.  An entrant's
        new exit due by the batch's end would pop inside the pass, so only
        the events before that pop commit; the rest go back for the next
        pass.
        """
        vs = self.vehicles
        starts, route_edges, positions, arrivals, entry_counts = vs.views()
        counts = np.array(self.counts, dtype=np.int64)
        table = self.network.tau_by_count
        m = len(counts)
        ends = np.array(ends)
        t_end = ends[-1]
        pending_t, pending_v = self._exit_times, self._exit_ids
        n_entered = len(enter_ids)
        arrived, last = 0, -math.inf
        while True:
            due = pending_t <= t_end
            exit_t, exit_v = pending_t.compress(due), pending_v.compress(due)
            pending_t, pending_v = pending_t.compress(~due), pending_v.compress(~due)
            # in (time, vid) order: a sort by time, then the runs of equal
            # times, if any, by vid
            order = np.argsort(exit_t)
            exit_t, exit_v = exit_t[order], exit_v[order]
            tied = exit_t[1:] == exit_t[:-1]
            if tied.any():
                runs = np.zeros(len(exit_t), dtype=bool)
                runs[1:] = tied
                runs[:-1] |= tied
                runs = np.flatnonzero(runs)
                exit_v[runs] = exit_v[runs][np.lexsort((exit_v[runs], exit_t[runs]))]
            n_dep, n_exit = len(enter_ids), len(exit_v)
            # each event's position in processing order: a departure comes
            # after the exits of earlier steps (an exit's step is the first
            # whose end is at or after it), an exit after the departures of
            # its own step and earlier ones
            exits_in = np.diff(np.searchsorted(exit_t, ends, side="right"), prepend=0)
            exits_before = (np.cumsum(exits_in) - exits_in)[enter_steps]
            deps_by = np.cumsum(np.bincount(enter_steps, minlength=len(ends)))
            dep_at = np.arange(n_dep) + exits_before
            exit_at = np.arange(n_exit) + np.repeat(deps_by, exits_in)
            # slots and edge ids come narrow from the columns and are widened
            # to intp at once, since numpy gathers by intp indices several
            # times faster than by int8 or int16 ones; only the sort key stays narrow
            slot = starts.take(exit_v).astype(np.intp) + positions.take(exit_v)  # of the edge left
            left = route_edges.take(slot).astype(np.intp)
            moves = slot + 1 < starts.take(exit_v + 1)
            moved = np.flatnonzero(moves)
            # entrants, departures first, and the position of each
            at = np.concatenate((dep_at, exit_at[moved]))
            ent_v = np.concatenate((enter_ids, exit_v[moved]))
            ent_t = np.concatenate((enter_times, exit_t[moved]))
            ent_slot = np.concatenate((starts.take(enter_ids), slot.take(moved) + 1))
            ent_edge = route_edges.take(ent_slot).astype(np.intp)

            # the count an entrant sees is its edge's count at pass start
            # plus the +1 and -1 events before it on that edge, an exit's -1
            # coming before its own +1: traversal time reflects the vehicles
            # already on the road, not the entrant itself.  Laid out in
            # processing order, each exit's -1 just before its +1, the events
            # need only a stable sort by edge (numpy sorts the narrow ids by
            # radix); the sorted deltas' running sum before an entrant, less
            # that of the edges sorted before its own, is what it adds
            moves_before = np.concatenate(([0], np.cumsum(moves)))
            exit_ev = exit_at + moves_before[:-1]
            ent_ev = np.concatenate((dep_at + moves_before[exits_before], exit_ev[moved] + 1))
            # one buffer holds each event's edge, then its delta, then the running sum
            run = np.empty(len(at) + n_exit, np.intp)
            run[ent_ev], run[exit_ev] = ent_edge, left
            order = np.argsort(run.astype(route_edges.dtype), kind="stable")
            run[ent_ev], run[exit_ev] = 1, -1
            run[order] = np.cumsum(run.take(order))
            net = np.bincount(ent_edge, minlength=m) - np.bincount(left, minlength=m)
            seen = (counts - np.cumsum(net) + net - 1).take(ent_edge) + run.take(ent_ev)
            del order, run, moves_before, exit_ev, ent_ev, slot
            if len(seen) and seen.max() >= min(table.shape[1], _UNSEEN):
                top = int(seen.max())
                if top >= _UNSEEN:  # an entry count slot would wrap or read as unwritten
                    raise OverflowError(f"edge {int(ent_edge[seen.argmax()])} would hold"
                                        f" {top} vehicles; entry counts stop at {_UNSEEN - 1}")
                table = self.network.grow_tau(top)
            ent_exit = ent_t + table.take(ent_edge * table.shape[1] + seen)

            cut = n_dep + n_exit
            early = np.flatnonzero(ent_exit <= t_end)
            for i in early.tolist():
                # this exit pops after its step's departures and the pass's
                # exits that precede it in (time, vid) order, and after the
                # event that filed it
                x = ent_exit[i]
                lo = np.searchsorted(exit_t, x)
                ties = exit_v[lo:np.searchsorted(exit_t, x, side="right")]
                pops = lo + np.searchsorted(ties, ent_v[i]) + deps_by[np.searchsorted(ends, x)]
                cut = min(cut, max(at[i] + 1, pops))
            n_go, done, go = n_dep, n_exit, slice(None)
            if cut < n_dep + n_exit:
                n_go, done = np.searchsorted(dep_at, cut), np.searchsorted(exit_at, cut)
                go = at < cut
                ent_v, ent_t, ent_edge, ent_exit = ent_v[go], ent_t[go], ent_edge[go], ent_exit[go]
            counts += np.bincount(ent_edge, minlength=m) - np.bincount(left[:done], minlength=m)
            self.entries_horizon += np.bincount(ent_edge.compress(ent_t < self.config.horizon),
                                                minlength=m)
            entry_counts[ent_slot[go]] = seen[go]
            positions[exit_v[:done]] += 1
            ended = np.flatnonzero(~moves[:done])
            if len(ended):
                arrivals[exit_v.take(ended)] = exit_t.take(ended)
                arrived += len(ended)
                last = max(last, float(exit_t[ended[-1]]))
            pending_t = np.concatenate((pending_t, exit_t[done:], ent_exit))
            pending_v = np.concatenate((pending_v, exit_v[done:], ent_v))
            enter_ids, enter_times, enter_steps = (
                enter_ids[n_go:], enter_times[n_go:], enter_steps[n_go:])
            if not len(early):
                break
        self._exit_times, self._exit_ids = pending_t, pending_v
        self.counts = counts.tolist()
        self.in_transit += n_entered - arrived
        self.arrived += arrived
        return last

    def _check_invariants(self) -> None:
        vs = self.vehicles
        starts, route_edges, positions, arrivals, entry_counts = vs.views()
        transit = np.flatnonzero(np.isnan(arrivals))
        recount = np.bincount(vs.current_edges(transit), minlength=len(self.counts))
        pending = np.sort(self._exit_ids)
        # each nonempty route block runs from its vehicle's origin to its
        # destination, every edge's head the next one's tail
        tails, heads = self.network.tails, self.network.heads
        routed = np.flatnonzero(np.diff(starts))
        origins, dests = (_view(c)[routed] for c in (vs.origins, vs.dests))
        linked = heads[route_edges[:-1]] == tails[route_edges[1:]]
        bounds = starts[(starts > 0) & (starts < len(route_edges))]
        linked[bounds - 1] = True  # the last edge of one block, the first of the next
        joined = ((tails[route_edges[starts[routed]]] == origins).all()
                  and (heads[route_edges[starts[routed + 1] - 1]] == dests).all()
                  and linked.all())
        # a vehicle has entered the edges of its block's slots 0..pos, all
        # of them once it has arrived; the rest still hold the fill
        lengths = np.diff(starts)
        entered = np.minimum(positions, lengths - 1) + 1
        unseen = np.arange(len(entry_counts)) >= np.repeat(starts[:-1] + entered, lengths)
        checks = (
            (joined, "a route does not join its origin to its destination"),
            (np.array_equal(entry_counts == _UNSEEN, unseen),
             "an entry count is missing, or written for an edge not yet entered"),
            (vs.reserve_untouched(), "a slot reserved past the vehicles was written"),
            (recount.tolist() == self.counts, "counts drifted from vehicle state"),
            (len(transit) == self.in_transit, "in_transit drifted from vehicle state"),
            (len(vs) == self.arrived + self.in_transit, "vehicle conservation"),
            (len(pending) == len(transit) and (pending == transit).all(),
             "pending exits are not one per vehicle in transit"),
            ((self._exit_times > self.clock).all(), "an exit was filed too late"),
        )
        for ok, what in checks:
            if not ok:
                raise RuntimeError(
                    f"simulator invariant broken after {self.step_index} steps: {what}"
                )

    def run(self) -> "RunResult":
        """Step until the horizon, then until the road drains or the clock
        reaches DRAIN_FACTOR * horizon, each `step` call a batch that runs
        to the next refresh.

        The columns are then trimmed to the vehicles departed.
        """
        cfg = self.config
        hard_stop = DRAIN_FACTOR * cfg.horizon
        while self.clock < cfg.horizon or (self.in_transit and self.clock < hard_stop):
            self.step(self.steps_per_refresh - self.step_index % self.steps_per_refresh)
        self.vehicles.trim()
        return RunResult(
            vehicles=self.vehicles,
            entries_horizon=self.entries_horizon.copy(),
            capacities=self.network.capacity,
            config=cfg,
            n_incomplete=self.in_transit,
        )


@dataclass
class RunResult:
    vehicles: VehicleColumns  # shared with the Simulation
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

    `config.mode` is ignored; both modes run.  The two runs differ only in
    mode, so they draw the same demand: the private run departs the
    vehicles the non-private run drew, and draws none itself; its results
    share the non-private run's origins, dests and departs.  Returns the
    metrics plus both run results for further inspection.
    """
    run_np = Simulation(network, od, replace(config, mode="non-private"))
    result_np = run_np.run()
    run_p = Simulation(network, od, replace(config, mode="private"),
                       _shared=(run_np._drawn, result_np.vehicles))
    del run_np  # its trees and pending exits go before the private run starts
    result_p = run_p.run()
    del run_p  # and the draw before compare_runs
    return compare_runs(result_np, result_p), result_np, result_p


def compare_runs(result_np: RunResult, result_p: RunResult) -> Metrics:
    """Metrics over vehicles that completed in both runs, matched by id.

    Raises ValueError when the two runs' departures (origin, destination,
    time) differ, which means their demand streams were not shared.
    """
    va, vb = result_np.vehicles, result_p.vehicles
    depart = _view(va.departs)
    if len(va) != len(vb) or va.origins != vb.origins or va.dests != vb.dests or (
        not np.array_equal(depart, _view(vb.departs))
    ):
        raise ValueError("paired runs diverged in demand; seeds were not shared")
    starts_np, edges_np, _, arrival_np, _ = va.views()
    starts_p, edges_p, _, arrival_p, _ = vb.views()
    both = ~(np.isnan(arrival_np) | np.isnan(arrival_p))
    n = int(np.count_nonzero(both))

    def mean_travel_time(arrival: np.ndarray) -> float:
        # over the vehicles that arrived in both runs, in id order: one run's
        # travel times at a time, summed by numpy over the whole array
        tt = arrival[both]
        tt -= depart[both]
        return float(np.mean(tt)) if n else 0.0

    mean_np, mean_p = mean_travel_time(arrival_np), mean_travel_time(arrival_p)
    # a route is unchanged when its two blocks have one length and no slot
    # differs.  Per chunk of vehicles, the blocks of nonempty ones line up
    # once the rest are dropped.  no_increase allows 1e-9 s
    unchanged = no_increase = 0
    for lo in range(0, len(va), _COMPARE_VEHICLES):
        block = slice(lo, lo + _COMPARE_VEHICLES)
        arrived = both[block]
        tt_np, tt_p = (arrival[block][arrived] - depart[block][arrived]
                       for arrival in (arrival_np, arrival_p))
        no_increase += int(np.count_nonzero(tt_p <= tt_np + 1e-9))
        a, b = (s[lo:lo + _COMPARE_VEHICLES + 1] for s in (starts_np, starts_p))
        length = np.diff(a)
        same_length = arrived & (length == np.diff(b))
        compared = same_length & (length > 0)
        differs = (edges_np[a[0]:a[-1]][np.repeat(compared, length)]
                   != edges_p[b[0]:b[-1]][np.repeat(compared, np.diff(b))])
        # the compared blocks with a differing slot: the block of slot i is
        # the first whose end lies past i
        block_ends = np.cumsum(length[compared])
        changed = np.unique(np.searchsorted(block_ends, np.flatnonzero(differs), side="right"))
        unchanged += int(np.count_nonzero(same_length)) - len(changed)
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
