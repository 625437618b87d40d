"""Per-layer timers for the traced benchmark run.

The tracer wraps, from outside the package, the module-level functions and
`Simulation` methods through which each layer is reached, records inclusive
and self time per span, and turns those spans into the per-layer metrics of
BENCHMARK.json.  Nothing under src/ is changed: wrappers are installed on
entry and the originals restored on exit.

A target whose name no longer exists (say, after a refactor renames it) is
skipped; the metrics that need it are reported as absent instead of failing
the run.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time

# span -> the (module, attribute) pairs it wraps.  A module-level function is
# also rebound in every privroute module that imported it by name, so calls
# made through `from .x import f` are seen too.
TARGETS = {
    "tntp.load": [("privroute.tntp", "load_sioux_falls")],
    "sim.step": [("privroute.sim", "Simulation.step")],
    "sim.route": [("privroute.sim", "Simulation._route")],
    "sim.refresh": [("privroute.sim", "Simulation._refresh")],
    "sim.mpc_counts": [("privroute.sim", "Simulation._mpc_counts")],
    "sim.demand": [("privroute.sim", "draw_demand")],
    "sim.sp_tree": [("privroute.sim", "_sp_tree")],
    "sim.extract_path": [("privroute.sim", "_extract_path")],
    "sim.tau": [("privroute.sim", "_tau_vector"), ("privroute.sim", "_tau_scalar_edge")],
    "laplace.fit": [("privroute.laplace", "fit_inverse_cdf_poly")],
    "laplace.sample": [("privroute.laplace", "sample_laplace_vector")],
    "protocol.round": [("privroute.protocol", "run_round")],
    "protocol.smpa": [("privroute.protocol", "_smpa_phase")],
    "protocol.smpm": [("privroute.protocol", "_smpm_phase")],
    "field.lagrange": [("privroute.field", "_lagrange_weights_at_zero_ints")],
}

# spans whose every call duration is kept (for percentiles)
_KEEP_DURATIONS = {"protocol.round"}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def expected_messages(n_parties: int, n_edges: int, degree: int) -> int:
    """Point-to-point messages of one round, from the protocol's own formula."""
    from privroute.protocol import ProtocolTranscript

    return ProtocolTranscript(n_parties, n_edges, degree).expected_messages_per_edge() * n_edges


def _round_hook(counters, args, kwargs):
    inputs = _arg(args, kwargs, 0, "inputs")
    poly = _arg(args, kwargs, 1, "poly")
    n, m = len(inputs), len(inputs[0].location)
    messages = expected_messages(n, m, poly.degree)
    counters["edge_rounds"] += m
    counters["parties"] += n
    counters["messages"] += messages
    counters["bytes"] += messages * math.ceil(poly.modulus.p.bit_length() / 8)


def _refresh_hook(counters, args, kwargs):
    config = args[0].config
    if config.mode == "private":
        counters["private_refreshes"] += 1
        if config.noise == "mpc":
            counters["private_mpc_refreshes"] += 1


_HOOKS = {"protocol.round": _round_hook, "sim.refresh": _refresh_hook}


class SpanStats:
    __slots__ = ("calls", "total", "self_total", "durations")

    def __init__(self, keep_durations: bool):
        self.calls = 0
        self.total = 0.0
        self.self_total = 0.0
        self.durations = [] if keep_durations else None


class Tracer:
    """Context manager that wraps the TARGETS spans while it is active.

    `only` limits the spans installed (the untraced run of the MPC simulation
    uses it to time whole rounds and nothing inside them).
    """

    def __init__(self, only=None):
        self.spans = {
            name: SpanStats(name in _KEEP_DURATIONS)
            for name in TARGETS
            if only is None or name in only
        }
        self.counters = {
            k: 0 for k in (
                "edge_rounds", "parties", "messages", "bytes",
                "private_refreshes", "private_mpc_refreshes",
            )
        }
        self.present: set[str] = set()
        self._stack: list = []
        self._restore: list = []

    # -- installation -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        for name in self.spans:
            for module_name, attr in TARGETS[name]:
                if self._install(name, module_name, attr):
                    self.present.add(name)
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _install(self, name: str, module_name: str, attr: str) -> bool:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            return False
        owner_name, _, leaf = attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            original = None if owner is None else vars(owner).get(leaf)
            if not callable(original):
                return False
            self._patch(owner, leaf, original, self._wrap(name, original))
            return True
        original = getattr(module, leaf, None)
        if not callable(original):
            return False
        wrapper = self._wrap(name, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "privroute" and not mod_name.startswith("privroute."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, key, original, wrapper)
        return True

    def _patch(self, owner, attr, original, wrapper) -> None:
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, name: str, fn):
        stats = self.spans[name]
        stack = self._stack
        counters = self.counters
        hook = _HOOKS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(counters, args, kwargs)
            frame = [0.0]  # time covered by child spans
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                stats.calls += 1
                stats.total += duration
                stats.self_total += duration - frame[0]
                if stats.durations is not None:
                    stats.durations.append(duration)
                if stack:
                    stack[-1][0] += duration

        return wrapper

    # -- readings -------------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.spans[name].calls

    def total(self, name: str) -> float:
        return self.spans[name].total

    def self_time(self, name: str) -> float:
        return self.spans[name].self_total

    def durations(self, name: str) -> list:
        return self.spans[name].durations


def _route_hit_ratio(t: Tracer) -> float:
    # one path extraction per route-cache miss
    routes = t.calls("sim.route")
    return 1.0 - t.calls("sim.extract_path") / routes if routes else 0.0


def _parties_mean(t: Tracer) -> float:
    rounds = t.calls("protocol.round")
    return t.counters["parties"] / rounds if rounds else 0.0


def _round_p99_ms(t: Tracer) -> float:
    """Nearest-rank 99th percentile of the round latency."""
    durations = sorted(t.durations("protocol.round"))
    if not durations:
        return 0.0
    return 1000.0 * durations[max(1, math.ceil(0.99 * len(durations))) - 1]


# (metric, unit, spans it needs, value); sim.vehicles and sim.edge_entries
# are counted from the workload's outputs instead
LAYER_METRICS = [
    ("sim.move_s", "s", ("sim.step",), lambda t: t.self_time("sim.step")),
    ("sim.steps", "count", ("sim.step",), lambda t: t.calls("sim.step")),
    ("sim.demand_s", "s", ("sim.demand",), lambda t: t.total("sim.demand")),
    ("sim.demand_calls", "count", ("sim.demand",), lambda t: t.calls("sim.demand")),
    ("sim.route_s", "s", ("sim.route",), lambda t: t.total("sim.route")),
    ("sim.trees_built", "count", ("sim.sp_tree",), lambda t: t.calls("sim.sp_tree")),
    ("sim.route_cache_hit_ratio", "ratio", ("sim.route", "sim.extract_path"), _route_hit_ratio),
    ("sim.refresh_s", "s", ("sim.refresh",), lambda t: t.total("sim.refresh")),
    ("sim.tau_s", "s", ("sim.tau",), lambda t: t.total("sim.tau")),
    ("sim.private_refreshes", "count", ("sim.refresh",),
     lambda t: t.counters["private_refreshes"]),
    ("sim.mpc_fallbacks", "count", ("sim.refresh", "sim.mpc_counts"),
     lambda t: t.counters["private_mpc_refreshes"] - t.calls("sim.mpc_counts")),
    ("laplace.fit_s", "s", ("laplace.fit",), lambda t: t.total("laplace.fit")),
    ("laplace.fits", "count", ("laplace.fit",), lambda t: t.calls("laplace.fit")),
    ("laplace.sample_s", "s", ("laplace.sample",), lambda t: t.total("laplace.sample")),
    ("protocol.round_s", "s", ("protocol.round",), lambda t: t.total("protocol.round")),
    ("protocol.rounds", "count", ("protocol.round",), lambda t: t.calls("protocol.round")),
    ("protocol.edge_rounds", "count", ("protocol.round",), lambda t: t.counters["edge_rounds"]),
    ("protocol.parties_mean", "count", ("protocol.round",),
     _parties_mean),
    ("protocol.round_ms.p99", "ms", ("protocol.round",), _round_p99_ms),
    ("protocol.smpm_s", "s", ("protocol.smpm",), lambda t: t.total("protocol.smpm")),
    ("protocol.smpa_s", "s", ("protocol.smpa",), lambda t: t.total("protocol.smpa")),
    ("protocol.combine_s", "s", ("protocol.round", "protocol.smpa", "protocol.smpm", "field.lagrange"),
     lambda t: t.self_time("protocol.round")),
    ("protocol.messages", "count", ("protocol.round",), lambda t: t.counters["messages"]),
    ("protocol.bytes", "B", ("protocol.round",), lambda t: t.counters["bytes"]),
    ("field.lagrange_s", "s", ("field.lagrange",), lambda t: t.total("field.lagrange")),
    ("field.lagrange_calls", "count", ("field.lagrange",), lambda t: t.calls("field.lagrange")),
    ("tntp.load_s", "s", ("tntp.load",), lambda t: t.total("tntp.load")),
]


def layer_metrics(tracer: Tracer) -> tuple[dict, list]:
    """Per-layer metrics of a finished traced run, and the absent ones (read as 0)."""
    metrics, absent = {}, []
    for name, unit, needs, value in LAYER_METRICS:
        if all(n in tracer.present for n in needs):
            reading = value(tracer)
        else:
            reading = 0
            absent.append(name)
        metrics[name] = {"value": reading, "unit": unit}
    return metrics, absent
