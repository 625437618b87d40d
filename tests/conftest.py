import heapq
import math
import operator
from bisect import bisect_left, bisect_right
from itertools import chain, groupby

import numpy as np
import pytest

from privroute.field import _lagrange_weights_at_zero_ints
from privroute.sharing import _deal_additive, _draw, _share, _smpa_phase, _smpm_phase
from privroute.sim import Simulation, check_demand, shortest_path
from privroute.tntp import OdDemand


def laplace_pdf(z, params):
    """Laplace density (eps/2) * exp(-eps*|z|) for `LaplaceParams` params."""
    eps = params.epsilon
    return eps / 2.0 * math.exp(-eps * abs(z))


class ScriptedRng:
    """Replays a fixed sequence of draws; used to enumerate randomness exactly.

    Each scheduled draw is either a bare value (accepted for any range) or a
    (bound, value) pair asserting the range the code under test requested.
    """

    def __init__(self, draws):
        self.draws = list(draws)
        self.pos = 0

    def randrange(self, n):
        assert self.pos < len(self.draws), "script exhausted"
        item = self.draws[self.pos]
        self.pos += 1
        if isinstance(item, tuple):
            bound, value = item
            assert bound == n, f"draw {self.pos}: expected bound {bound}, got {n}"
        else:
            value = item
        assert 0 <= value < n
        return value

    @property
    def exhausted(self):
        return self.pos == len(self.draws)


def additive_shares(secret, n, rng, p):
    """N additive shares of `secret`: N-1 uniforms drawn from `rng`, then the remainder."""
    return _deal_additive(secret, _draw(rng, p, n - 1), p)


def smpa_one_rng(secrets, rng, p, messages=None):
    """Secure addition with every party's deals drawn from one rng, party by party."""
    n = len(secrets)
    return _smpa_phase(secrets, [_draw(rng, p, n - 1) for _ in range(n)], p, messages)


def share_and_multiply(x, y, coeffs, p, lam, messages=None):
    """Secure multiplication of two additive sharings: `_share` shares x with
    each party's first h = floor((N-1)/2) coefficients and y with the next h,
    and `_smpm_phase` multiplies the two sharings.  Each pair's X send comes
    before its Y send, under phase "smpm"; the product shares are unreduced."""
    h = (len(x) - 1) // 2
    sent_x, sent_y = ([], []) if messages is not None else (None, None)
    sx = _share(x, [c[:h] for c in coeffs], p, sent_x, phase="smpm")
    sy = _share(y, [c[h:] for c in coeffs], p, sent_y, phase="smpm")
    if messages is not None:
        messages.extend(chain.from_iterable(zip(sent_x, sent_y)))
    return _smpm_phase(sx, sy, lam)


def smpm_one_rng(x, y, rng, p, messages=None):
    """`share_and_multiply` with every party's Shamir coefficients drawn from
    one rng, party by party; the product shares are reduced into [0, p)."""
    n = len(x)
    coeffs = [_draw(rng, p, 2 * ((n - 1) // 2)) for _ in range(n)]
    lam = _lagrange_weights_at_zero_ints(range(1, n + 1), p)
    return [t % p for t in share_and_multiply(x, y, coeffs, p, lam, messages)]


def x_shares_sent(secret, coeffs, n, p):
    """The shares party 1 sends in a Shamir sharing, as {receiver: X(receiver)}.

    Party 1 holds the share `secret` and draws `coeffs` as the coefficients
    of degree 1..h, h = floor((N-1)/2); every other share and coefficient is 0.
    """
    h = (n - 1) // 2
    assert len(coeffs) == h
    drawn = [list(coeffs)] + [[0] * h] * (n - 1)
    sent = []
    _share([secret] + [0] * (n - 1), drawn, p, sent)
    return {m.receiver: m.value for m in sent if m.sender == 1}


def heap_dijkstra(network, weights, origin):
    """Dijkstra from `origin` over `network.out_arcs` with a heap of
    (distance, node): the reference for `privroute.sim._sp_tree`.

    `weights` is a sequence of positive floats in edge-id order.  Returns
    (dist, pred), dicts keyed by node in `network.nodes` order: the distance
    from origin (inf where unreached) and the edge by which the tree reaches
    the node (-1 at the origin and where unreached).  Nodes pop in
    (distance, node) order and relax their out-edges in edge-id order with
    a strict `<`, so a node's pred is the first of its shortest in-edges
    relaxed.
    """
    dist = dict.fromkeys(network.nodes, math.inf)
    pred = dict.fromkeys(network.nodes, -1)
    dist[origin] = 0.0
    heap = [(0.0, origin)]
    done = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        for eid, head in network.out_arcs[u]:
            nd = d + weights[eid]
            if nd < dist[head]:
                dist[head] = nd
                pred[head] = eid
                heapq.heappush(heap, (nd, head))
    return dist, pred


def tree_path(network, tree, origin, destination):
    """The edges from origin to destination in `tree`, a `heap_dijkstra`
    tree from origin, as a tuple."""
    dist, pred = tree
    assert dist[destination] < math.inf, f"no path from {origin} to {destination}"
    path = []
    node = destination
    while node != origin:
        path.append(pred[node])
        node = network.edges[pred[node]].tail
    return tuple(reversed(path))


class InjectingSimulation(Simulation):
    """A Simulation that also departs single vehicles scheduled by `inject`,
    bypassing the Poisson draw.

    Per step of a batch, the injected vehicles due before its end depart
    first, in (time, origin, destination) order, each at its time or the
    step's start if later and routed by `shortest_path` under the current
    weights (whose ties are `_sp_tree`'s); then the step's drawn ones.  With
    nothing injected it runs as `Simulation` does.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._scheduled = []  # heap of injected (time, origin, dest)

    def inject(self, origin, dest, time=0.0):
        """Schedule a single departure.

        Raises as `check_demand` does for an unknown node or an unreachable
        pair, and ValueError for a departure the run would never make: at or
        past the horizon, or after the clock has reached it.
        """
        check_demand(self.network, OdDemand({(origin, dest): 1.0}))
        horizon = self.config.horizon
        if not time < horizon or self.clock >= horizon:
            raise ValueError(
                f"departure at {time} s never happens: the horizon is {horizon} s"
                f" and the clock is at {self.clock} s"
            )
        heapq.heappush(self._scheduled, (time, origin, dest))

    def _depart(self, ends):
        starts = [self.clock, *ends[:-1]]
        n = bisect_left(starts, self.config.horizon)  # the steps that depart
        scheduled = self._scheduled
        injected = []
        while n and scheduled and scheduled[0][0] < ends[n - 1]:
            st, o, d = heapq.heappop(scheduled)
            j = bisect_right(ends, st)  # the first step that ends after st
            injected.append((j, max(st, starts[j]), o, d))
        starts = np.array(starts)
        parts = []  # (ids, times, steps) of the entrants, in id order
        drawn = 0  # the batch's steps whose drawn vehicles are appended
        for j, group in groupby(injected, key=operator.itemgetter(0)):
            parts.append(self._depart_drawn(drawn, j, starts))
            parts.append(self._depart_injected([g[1:] for g in group], j))
            drawn = j
        parts.append(self._depart_drawn(drawn, n, starts))
        return tuple(map(np.concatenate, zip(*parts)))

    def _depart_injected(self, injected, step):
        """Append the injected (time, origin, destination) departures of
        the batch's step `step`; (ids, times, steps) of those that move."""
        vs = self.vehicles
        routes = [shortest_path(self.network, self.weights, o, d) for _, o, d in injected]
        lengths = np.fromiter(map(len, routes), np.int64, len(routes))
        departs = np.array([st for st, _, _ in injected], dtype=float)
        parked = lengths == 0  # origin == destination: arrives as it departs
        self.arrived += int(np.count_nonzero(parked))
        moving = np.flatnonzero(~parked)
        entering = moving + len(vs), departs[moving], np.full(len(moving), step)
        vs.append(np.cumsum(lengths),
                  np.fromiter(chain.from_iterable(routes), vs.route_edges.typecode),
                  np.array([o for _, o, _ in injected], dtype=np.int64),
                  np.array([d for _, _, d in injected], dtype=np.int64),
                  departs, np.where(parked, departs, math.nan))
        return entering


@pytest.fixture
def np_rng():
    return np.random.default_rng(12345)
