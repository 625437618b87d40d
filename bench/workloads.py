"""Benchmark workloads: inputs made from a seed, one timed call, its checks.

Every workload calls only privroute's public entry points
(`load_sioux_falls`, `run_experiment`, `fit_inverse_cdf_poly`, `run_round`),
looked up on the package at call time so that the traced run goes through
the wrapped versions.  A workload's timed operation is one call of its entry
point; everything else (input generation, checks, digests) runs untimed.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field

import numpy as np

import privroute

MERSENNE_521 = (1 << 521) - 1

# The protocol's noise is checked against the polynomial's own fast-path
# sampler by a two-sample KS test at alpha = 1e-6: loose on purpose, since a
# run's inputs are fixed by its seed and a tight test would fail some seeds
# by chance.
KS_ALPHA = 1e-6
KS_REFERENCE_SAMPLES = 20_000


@dataclass
class OpRecord:
    """What one timed call produced, reduced to what the report needs."""

    wall: float
    work: dict = field(default_factory=dict)  # counted units of work
    digest: dict = field(default_factory=dict)  # output name -> sha256 hex
    outputs: dict = field(default_factory=dict)  # printed, not gated
    failures: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# Sioux Falls paired runs
# ---------------------------------------------------------------------------


@dataclass
class SimInputs:
    network: object
    od: object
    config: object


def trajectory_digest(result) -> str:
    """sha256 over every vehicle's (id, origin, dest, depart, arrival, route)."""
    h = hashlib.sha256()
    for v in result.vehicles:
        route = " ".join(map(str, v.route))
        h.update(f"{v.id},{v.origin},{v.dest},{v.depart!r},{v.arrival!r},{route}\n".encode())
    return h.hexdigest()


def _run_failures(label: str, result) -> list:
    """Vehicle conservation and per-vehicle consistency of one run."""
    failures = []
    arrived = 0
    for index, v in enumerate(result.vehicles):
        if v.id != index:
            failures.append(f"{label}: vehicle {index} has id {v.id}")
            break
        if v.arrival is None:
            continue
        arrived += 1
        if v.arrival < v.depart or len(v.entry_times) != len(v.route):
            failures.append(f"{label}: vehicle {v.id} arrived inconsistently")
            break
    if arrived + result.n_incomplete != len(result.vehicles):
        failures.append(
            f"{label}: {arrived} arrived + {result.n_incomplete} in transit "
            f"!= {len(result.vehicles)} departed"
        )
    return failures


class SimPair:
    """One `run_experiment` pair (non-private and private) on Sioux Falls.

    Every call repeats the same inputs, so every call must give the same
    trajectories.
    """

    work_unit = "entries"
    repeats_inputs = True

    def __init__(self, name: str, why: str, **config):
        self.name = name
        self.why = why
        self.config = config
        # with MPC noise the simulator runs protocol rounds itself; run.py
        # then times each round, even untraced
        self.protocol_inside = config.get("noise") == "mpc"

    def setup(self, seed: int) -> SimInputs:
        network, od = privroute.load_sioux_falls()
        return SimInputs(network, od, privroute.SimConfig(seed=seed, **self.config))

    def prepare(self, inputs: SimInputs, k: int):
        return None

    def op(self, inputs: SimInputs, prepared, k: int):
        return privroute.run_experiment(inputs.network, inputs.od, inputs.config)

    def record(self, inputs: SimInputs, prepared, result, wall: float) -> OpRecord:
        # run_experiment's compare_runs raises if the pair's demand diverged
        metrics, run_np, run_p = result
        failures = _run_failures("non-private", run_np) + _run_failures("private", run_p)
        both = sum(
            1 for a, b in zip(run_np.vehicles, run_p.vehicles)
            if a.arrival is not None and b.arrival is not None
        )
        if metrics.n_vehicles != both:
            failures.append(f"metrics count {metrics.n_vehicles} vehicles, runs {both}")
        values = metrics.as_dict()
        if not all(math.isfinite(x) for x in values.values()):
            failures.append(f"non-finite metrics: {values}")
        runs = (run_np, run_p)
        return OpRecord(
            wall=wall,
            work={
                "entries": sum(len(v.entry_times) for r in runs for v in r.vehicles),
                "vehicles": sum(len(r.vehicles) for r in runs),
            },
            digest={"non-private": trajectory_digest(run_np), "private": trajectory_digest(run_p)},
            outputs=values,
            failures=failures,
        )

    def finish(self, inputs: SimInputs, seed: int) -> list:
        return check_message_formula(seed) if self.protocol_inside else []


# ---------------------------------------------------------------------------
# Protocol rounds at a fixed (parties, edges, degree)
# ---------------------------------------------------------------------------


@dataclass
class RoundInputs:
    poly: object
    seed: int
    noise: list = field(default_factory=list)  # decoded noise of every edge-round


class Rounds:
    """Repeated `run_round` calls on one polynomial fitted in set-up.

    Party locations are drawn per round from the seed: each party sits on a
    uniformly chosen edge or (index -1) off the tracked edges.
    """

    work_unit = "edge_rounds"
    repeats_inputs = False
    protocol_inside = False

    def __init__(self, name: str, why: str, *, parties: int, edges: int, degree: int,
                 seed_bits: int, epsilon: float, ks_samples: int):
        self.name = name
        self.why = why
        self.parties = parties
        self.edges = edges
        self.degree = degree
        self.seed_bits = seed_bits
        self.epsilon = epsilon
        self.ks_samples = ks_samples

    def setup(self, seed: int) -> RoundInputs:
        poly = privroute.fit_inverse_cdf_poly(
            privroute.LaplaceParams(self.epsilon), self.degree, MERSENNE_521, 1e-4,
            n_parties=self.parties, seed_bits=self.seed_bits, ks_samples=self.ks_samples,
        )
        return RoundInputs(poly, seed)

    def prepare(self, inputs: RoundInputs, k: int):
        rng = random.Random(f"{inputs.seed}:{k}")
        where = [rng.randrange(-1, self.edges) for _ in range(self.parties)]
        parties = [
            privroute.PartyInput.on_edge(i + 1, e, self.edges) for i, e in enumerate(where)
        ]
        counts = [0] * self.edges
        for e in where:
            if e >= 0:
                counts[e] += 1
        return parties, counts

    def op(self, inputs: RoundInputs, prepared, k: int):
        parties, _ = prepared
        return privroute.run_round(
            parties, inputs.poly, seed=(inputs.seed << 32) + k, record_transcript=False
        )

    def record(self, inputs: RoundInputs, prepared, result, wall: float) -> OpRecord:
        _, counts = prepared
        poly = inputs.poly
        bound = poly.value_bound / poly.scale
        failures = []
        for e, (value, total) in enumerate(zip(result.noisy_counts, result.field_totals)):
            noise = value - counts[e]
            inputs.noise.append(noise)
            if abs(noise) > bound:
                failures.append(f"edge {e}: |noise| {abs(noise)} exceeds bound {bound}")
            if poly.modulus.signed(total) / poly.scale != value:
                failures.append(f"edge {e}: decoded {value} disagrees with field total")
        digest = hashlib.sha256(" ".join(map(str, result.field_totals)).encode()).hexdigest()
        return OpRecord(
            wall=wall, work={"edge_rounds": len(counts)},
            digest={"field_totals": digest}, failures=failures,
        )

    def finish(self, inputs: RoundInputs, seed: int) -> list:
        failures = check_message_formula(seed)
        if not inputs.noise:
            return failures
        reference = inputs.poly.sample_noise(np.random.default_rng(seed), KS_REFERENCE_SAMPLES)
        ks = ks_two_sample(np.asarray(inputs.noise), reference)
        limit = ks_limit(len(inputs.noise), len(reference))
        print(f"check ks_vs_fast_path {ks:.4f} (limit {limit:.4f}, "
              f"{len(inputs.noise)} protocol draws vs {len(reference)} fast-path draws)")
        if ks > limit:
            failures.append(f"KS {ks:.4f} against the fast-path sampler exceeds {limit:.4f}")
        return failures


def ks_two_sample(a: np.ndarray, b: np.ndarray) -> float:
    a, b = np.sort(a), np.sort(b)
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / len(a)
    cdf_b = np.searchsorted(b, grid, side="right") / len(b)
    return float(np.max(np.abs(cdf_a - cdf_b)))


def ks_limit(n: int, m: int) -> float:
    return math.sqrt(-math.log(KS_ALPHA / 2) / 2) * math.sqrt((n + m) / (n * m))


def check_message_formula(seed: int) -> list:
    """Check the computed message count against one recorded transcript."""
    from layers import expected_messages

    parties, edges, degree = 4, 2, 3
    poly = privroute.fit_inverse_cdf_poly(
        privroute.LaplaceParams(1.0), degree, MERSENNE_521, 1e-3,
        n_parties=parties, seed_bits=4, ks_samples=1_000,
    )
    inputs = [privroute.PartyInput.on_edge(i + 1, i % 3 - 1, edges) for i in range(parties)]
    result = privroute.run_round(inputs, poly, seed=seed, record_transcript=True)
    recorded = len(result.transcript.messages)
    computed = expected_messages(parties, edges, degree)
    print(f"check message_formula computed {computed} recorded {recorded}")
    if computed != recorded:
        return [f"computed {computed} messages, transcript recorded {recorded}"]
    return []


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


def workloads(smoke: bool = False) -> dict:
    """Every workload by name; `smoke` shrinks them to a few seconds in all."""
    sim_small = {"demand_multiplier": 0.2, "horizon": 600.0} if smoke else {}
    return {w.name: w for w in (
        SimPair(
            "sf_paired",
            "the acceptance baseline pair users run: sim event loop, demand and "
            "routing do the work, the protocol none",
            epsilon=0.1, noise="exact",
            **({"demand_multiplier": 2.0, "horizon": 7200.0} | sim_small),
        ),
        Rounds(
            "round_small",
            "5 parties, 1 edge, degree 15 (criterion 7's shape): per-round fixed "
            "costs and Lagrange weights dominate; no sim code runs",
            parties=5, edges=1, degree=15, seed_bits=20, epsilon=0.2, ks_samples=100_000,
        ),
        Rounds(
            "round_sf",
            "one Sioux Falls-sized MPC refresh (76 edges, 20 parties, degree 7): "
            "SMPM share evaluation dominates, as in sf_mpc",
            parties=7 if smoke else 20, edges=76, degree=7, seed_bits=16,
            epsilon=0.1, ks_samples=10_000,
        ),
        SimPair(
            "sf_mpc",
            "the end-to-end private path: run_experiment with noise='mpc' at low "
            "demand; not gated, its cost swings with the seed's party counts",
            epsilon=0.1, noise="mpc", demand_multiplier=0.002,
            horizon=480.0 if smoke else 1200.0,
        ),
    )}
