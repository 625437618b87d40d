"""Delay-function mathematics for BPR-family roads.

A road's delay function f maps entry flow to travel time; F(x) = x * f(x)
maps flow to the steady-state vehicle count on the road; tau = f o F^{-1}
maps a count back to a travel time.  tau is what turns (noisy) counts into
route weights, and its insensitivity at low counts is what makes additive
noise tolerable there.

All operations accept scalars or numpy arrays.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .laplace import LaplaceParams, sample_laplace_vector

# the most vehicles a simulated road holds: the simulator keeps every count an
# entrant sees below it (its entry count column is array('H'), with 0xFFFF
# marking unwritten slots), so the tau table never needs a wider column
MAX_COUNT = 0xFFFF


class NegativeFlow(ValueError):
    """Raised when a flow or count argument is negative where disallowed."""


@dataclass(frozen=True)
class DelayFunction:
    """BPR volume-delay curve t0 * (1 + alpha * (x/c)^beta).

    t0 is the free-flow travel time (seconds), capacity c the nominal
    throughput (vehicles per second in this library's internal units).
    Positive, nondecreasing and differentiable on x >= 0 whenever t0, c > 0,
    alpha >= 0 and beta >= 1, all finite.
    """

    t0: float
    capacity: float
    alpha: float = 0.15
    beta: float = 4.0

    def __post_init__(self):
        if not 0 < self.t0 < math.inf:
            raise ValueError(f"free-flow time must be positive and finite, got {self.t0}")
        if not 0 < self.capacity < math.inf:
            raise ValueError(f"capacity must be positive and finite, got {self.capacity}")
        if not 0 <= self.alpha < math.inf:
            raise ValueError(f"alpha must be nonnegative and finite, got {self.alpha}")
        if not 1 <= self.beta < math.inf:
            raise ValueError(f"beta must be >= 1 and finite, got {self.beta}")


@dataclass(frozen=True)
class Edge:
    """A directed road: tail -> head with its delay curve."""

    id: int
    tail: int
    head: int
    delay: DelayFunction


class RoadNetwork:
    """Directed road graph with an adjacency index and per-edge delay data.

    `tails`, `heads` (node ids), `t0`, `capacity`, `alpha` and `beta` hold
    the edges' endpoints and BPR parameters as arrays in edge-id order, and
    `out_arcs[n]` the (edge id, head) of each edge out of node n.
    `tau_by_count[e, s]` is tau at count s on edge e, one row per edge;
    `grow_tau` widens the table for every edge at once, to at most
    MAX_COUNT + 1 columns.
    _tau_vector works elementwise, so an entry's value does not depend on
    when, or by which run, the table grew: every simulation on one network
    shares it.  A column also equals _tau_vector over one count per edge,
    bit for bit, so the non-private refresh reads its weights from it.
    `relaxation_layout`, the in-edge layout of the simulator's shortest-path
    relaxation, is built on first use and kept.
    """

    def __init__(self, nodes: Sequence[int], edges: Sequence[Edge]):
        self.nodes = tuple(nodes)
        self.edges = tuple(edges)
        node_set = set(self.nodes)
        out: dict = {n: [] for n in self.nodes}
        for e in self.edges:
            if e.tail not in node_set or e.head not in node_set:
                raise ValueError(f"edge {e.id} references unknown node {e.tail}->{e.head}")
            if e.tail == e.head:
                raise ValueError(f"edge {e.id} is a self-loop at node {e.tail}")
            out[e.tail].append((e.id, e.head))
        self.out_arcs = {n: tuple(arcs) for n, arcs in out.items()}
        self.tails = np.array([e.tail for e in self.edges], dtype=np.int64)
        self.heads = np.array([e.head for e in self.edges], dtype=np.int64)
        delays = [e.delay for e in self.edges]
        self.t0 = np.array([d.t0 for d in delays], dtype=float)
        self.capacity = np.array([d.capacity for d in delays], dtype=float)
        self.alpha = np.array([d.alpha for d in delays], dtype=float)
        self.beta = np.array([d.beta for d in delays], dtype=float)
        self.tau_by_count = self.t0[:, None].copy()  # tau(0) = t0

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @functools.cached_property
    def relaxation_layout(self) -> tuple:
        """(in_edge, tail, padded, cells): each node's in-edges as slots,
        for `sim._sp_tree`, which relaxes over them.

        Nodes are columns in `nodes` order.  Slot 0 of each column is a
        zero-weight loop; the node's in-edges follow, one slot each in
        (tail id, edge id) order, then padding.  `in_edge[s, v]` is the edge
        in slot s of node v (-1 in slot 0 and the padding), `tail[s, v]` the
        column of its tail (v in slot 0 and the padding).  `padded` is the
        weight array, shape (slots, n_nodes, 1), with 0 in slot 0 and inf
        everywhere else; an edge weight vector in edge-id order goes into
        its flat positions `cells`.  The layout depends on the graph alone,
        so it is built once, on the first tree, and the arrays are
        read-only.
        """
        n, m = self.n_nodes, self.n_edges
        nodes = np.array(self.nodes)
        by_id = np.argsort(nodes)
        tails, heads = by_id[np.searchsorted(nodes, np.stack((self.tails, self.heads)),
                                             sorter=by_id)]
        edge = np.lexsort((self.tails, heads))
        head = heads[edge]
        slot = np.arange(1, m + 1) - np.searchsorted(head, head)
        shape = (int(slot.max(initial=0)) + 1, n)  # [slot, node]
        in_edge = np.full(shape, -1)
        tail = np.broadcast_to(np.arange(n), shape).copy()
        padded = np.full((*shape, 1), math.inf)
        padded[0] = 0.0
        in_edge[slot, head], tail[slot, head] = edge, tails[edge]
        cells = np.empty(m, dtype=np.int64)
        cells[edge] = slot * n + head
        layout = in_edge, tail, padded, cells
        for array in layout:
            array.flags.writeable = False
        return layout

    def grow_tau(self, count: int) -> np.ndarray:
        """Widen the tau table to cover counts up to 2 * count + 8 on every
        edge, or up to MAX_COUNT if that is fewer, and return it.  Raises
        OverflowError for a count past MAX_COUNT."""
        if count > MAX_COUNT:
            raise OverflowError(f"count {count} is past the {MAX_COUNT} vehicles a road holds")
        table = self.tau_by_count
        counts = np.arange(table.shape[1], min(2 * count + 8, MAX_COUNT) + 1, dtype=float)
        self.tau_by_count = np.concatenate((table, _tau_vector(
            self.t0[:, None], self.capacity[:, None], self.alpha[:, None], self.beta[:, None],
            counts,
        )), axis=1)
        return self.tau_by_count


def _check_nonnegative(x, what: str):
    if np.any(np.asarray(x) < 0):
        raise NegativeFlow(f"{what} must be nonnegative")


def _bpr_time(t0, cap, alpha, beta, x):
    """BPR travel time at flow x; parameters are scalars or per-edge arrays."""
    return t0 * (1.0 + alpha * (x / cap) ** beta)


def _flow_vector(t0, cap, alpha, beta, s) -> np.ndarray:
    """F^{-1}(s) by bisection, elementwise; negative counts clamp to zero.

    F(x) >= t0 * x gives the bracket [0, s/t0]; bisection cannot miss for any
    positive nondecreasing delay curve, which is why it is used instead of
    Newton steps.  70 halvings narrow the bracket to 2^-70 of s/t0, past
    double precision wherever the travel time is under 2^17 times free flow.
    """
    s = np.maximum(np.asarray(s, dtype=float), 0.0)
    lo = np.zeros_like(s)
    hi = s / t0
    for _ in range(70):
        mid = 0.5 * (lo + hi)
        too_low = mid * _bpr_time(t0, cap, alpha, beta, mid) < s
        lo = np.where(too_low, mid, lo)
        hi = np.where(too_low, hi, mid)
    return 0.5 * (lo + hi)


def _tau_vector(t0, cap, alpha, beta, s) -> np.ndarray:
    """tau(s) = f(F^{-1}(s)) elementwise, for scalars or per-edge arrays."""
    return _bpr_time(t0, cap, alpha, beta, _flow_vector(t0, cap, alpha, beta, s))


def travel_time(delay: DelayFunction, x):
    """f(x): travel time at entry flow x; nondecreasing in x."""
    _check_nonnegative(x, "flow")
    x = np.asarray(x, dtype=float)
    out = _bpr_time(delay.t0, delay.capacity, delay.alpha, delay.beta, x)
    return out if out.ndim else float(out)


def flow_to_count(delay: DelayFunction, x):
    """F(x) = x * f(x): steady-state vehicle count at entry flow x."""
    _check_nonnegative(x, "flow")
    x = np.asarray(x, dtype=float)
    out = x * _bpr_time(delay.t0, delay.capacity, delay.alpha, delay.beta, x)
    return out if out.ndim else float(out)


def count_to_time(delay: DelayFunction, s):
    """tau(s) = f(F^{-1}(s)): travel time implied by a vehicle count.

    Counts below zero (possible after noising) are clamped to zero, where
    tau equals the free-flow time; tau is nondecreasing so the clamp never
    enlarges the estimation error.
    """
    out = _tau_vector(delay.t0, delay.capacity, delay.alpha, delay.beta, s)
    return out if out.ndim else float(out)


def delta_capacity(delay: DelayFunction, delta: float):
    """Largest flow whose travel time stays within (1+delta) of free flow.

    For the BPR family this is the closed form c * (delta/alpha)^(1/beta);
    infinite when alpha == 0 (a constant-time road never degrades).
    """
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    if delay.alpha == 0:
        return math.inf
    return delay.capacity * (delta / delay.alpha) ** (1.0 / delay.beta)


def delta_critical_count(delay: DelayFunction, delta: float):
    """Count on the road when it operates exactly at its delta-capacity.

    Equals (1+delta) * delta_capacity * t0, i.e. F(delta_capacity).
    """
    c_delta = delta_capacity(delay, delta)
    if math.isinf(c_delta):
        return math.inf
    return (1.0 + delta) * c_delta * delay.t0


@dataclass(frozen=True)
class AccuracyCheck:
    """Outcome of the count-accuracy condition for one road."""

    satisfied: bool
    threshold: float
    critical_count: float
    min_integer_count: int


def accuracy_threshold(epsilon: float, delta: float, p_fail: float) -> float:
    """Minimum critical count guaranteeing (delta, p_fail)-accurate estimates.

    (1/epsilon) * (1/delta + 1) * ln(1/p_fail); natural logarithm, as the
    bound comes from the Laplace tail exp(-epsilon * t).
    """
    if not (epsilon > 0 and delta > 0 and 0 < p_fail < 1):
        raise ValueError("need epsilon > 0, delta > 0 and 0 < p_fail < 1")
    return (1.0 / epsilon) * (1.0 / delta + 1.0) * math.log(1.0 / p_fail)


def check_accuracy_condition(
    delay: DelayFunction, epsilon: float, delta: float, p_fail: float
) -> AccuracyCheck:
    """Does this road's critical count clear the accuracy threshold?

    When it does, noising the count with Laplace(1/epsilon) perturbs the
    travel-time estimate by at most a factor delta with probability at least
    1 - p_fail, at every true count.
    """
    threshold = accuracy_threshold(epsilon, delta, p_fail)
    critical = delta_critical_count(delay, delta)
    return AccuracyCheck(
        satisfied=bool(critical >= threshold),
        threshold=threshold,
        critical_count=critical,
        min_integer_count=math.ceil(threshold),
    )


def verify_accuracy_guarantee(
    delay: DelayFunction,
    epsilon: float,
    delta: float,
    s_grid: Sequence[float],
    trials: int = 10_000,
    seed: int = 0,
) -> dict:
    """Monte Carlo check of the accuracy guarantee at each count in s_grid.

    Returns {s: {"success_rate", "mean_rel_error", "max_rel_error"}} where a
    trial succeeds when |tau(s+Z) - tau(s)| / tau(s) <= delta with exact
    Laplace noise Z.  Callers compare success_rate against 1 - p_fail.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    rng = np.random.default_rng(seed)
    params = LaplaceParams(epsilon)
    results = {}
    for s in s_grid:
        z = sample_laplace_vector(params.epsilon, rng, trials)
        tau_true = count_to_time(delay, float(s))
        tau_noisy = count_to_time(delay, s + z)
        rel = np.abs(tau_noisy - tau_true) / tau_true
        results[s] = {
            "success_rate": float(np.mean(rel <= delta)),
            "mean_rel_error": float(np.mean(rel)),
            "max_rel_error": float(np.max(rel)),
        }
    return results
