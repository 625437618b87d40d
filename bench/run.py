"""privroute benchmark: end-to-end metrics, or per-layer metrics when traced.

    python3 bench/run.py --workload sf_paired --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all            # every workload, both modes
    python3 bench/run.py --workload all --smoke    # the same at tiny sizes

Run from a privroute checkout: the program is imported from ../src relative
to this file, never from an installed copy.  One invocation runs one workload
(see workloads.py) in this single-threaded process:

* set-up (loading Sioux Falls, or fitting the round's polynomial) runs in
  SETUP_BLOCKS blocks, each repeating it for SETUP_SECONDS / SETUP_BLOCKS
  seconds (at least once), so that millisecond set-ups still give a steady
  figure: setup_s is the median over blocks of a block's mean set-up;
* the workload's entry point is then called until --seconds have passed:
  work_per_s is the edge entries (simulations) or edge-rounds (protocol
  rounds) per second of calls, peak_rss_mb the process's peak resident set,
  and the report-only wall_s the median call;
* during set-up and calls, a timer runs a chunk of machine.py's reference
  kernel every SETUP_REF_INTERVAL and REF_INTERVAL seconds, and the chunks'
  time is taken out of the spans timed; the gated setup_s and work_per_s are
  divided by the host slowdown the chunks of their own phase show, so that a
  slow minute on a shared host does not read as a slow program.  The host's
  own readings are printed as host_setup_s and host_work_per_s;
* with --trace 1, half as many calls run untraced and are then repeated on
  the same inputs with the layer wrappers of layers.py installed; the traced
  outputs must equal the untraced ones.

Report lines come first; the last line is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 0 when every
correctness check passed, 1 when one failed or privroute is missing, 2 for a
usage error.
"""

from __future__ import annotations

import os

# single-threaded numpy: set before anything imports it
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from machine import Reference

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_BLOCKS = 5
SETUP_SECONDS = 2.0
SETUP_MAX_REPEATS = 1000  # per block
SETUP_REF_INTERVAL = 0.05
REF_INTERVAL = 0.2
ROUND_SPAN = "protocol.round"
MAX_FAILURES_SHOWN = 20


def import_program():
    """Import privroute from this checkout's src/, or exit without a result."""
    package = SRC / "privroute"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: {package} not found; run the benchmark from a privroute checkout")
    sys.path.insert(0, str(SRC))
    import privroute

    if Path(privroute.__file__).resolve().parent != package:
        sys.exit(f"error: imported privroute from {privroute.__file__}, not {package}")


def machine_record(seed: int) -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in f if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "cpu": cpu, "seed": seed,
    }


def run_ops(workload, inputs, *, seconds=None, count=None, reference=None) -> list:
    """Call the workload's entry point `count` times, or for `seconds` (at least once).

    A timed loop stops before a call that the last one's span says would end
    after `seconds`, so a run of 10 s calls does not overrun by up to 10 s.
    A call's wall time leaves out the `reference` chunks run inside it.
    """
    from workloads import OpRecord

    records = []
    start = begun = time.perf_counter()

    def expected_end() -> float:
        # the next call is expected to take as long as the last one did
        now = time.perf_counter()
        return (now - start) + (now - begun)

    while (len(records) < count) if count is not None else (
        not records or expected_end() <= seconds
    ):
        begun = time.perf_counter()
        k = len(records)
        prepared = workload.prepare(inputs, k)
        paused = reference.seconds if reference is not None else 0.0
        t0 = time.perf_counter()
        try:
            result = workload.op(inputs, prepared, k)
        except Exception:  # an operation that raises is counted as failed
            wall = time.perf_counter() - t0
            records.append(OpRecord(wall=wall, failures=[traceback.format_exc()]))
            continue
        wall = time.perf_counter() - t0
        if reference is not None:
            wall -= reference.seconds - paused
        try:
            records.append(workload.record(inputs, prepared, result, wall))
        except Exception:
            records.append(OpRecord(wall=wall, failures=[traceback.format_exc()]))
        del result
    return records


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def setup_blocks(workload, seed: int) -> tuple[object, list]:
    """The inputs, and each block's (mean set-up seconds, host slowdown)."""
    blocks = []
    for _ in range(SETUP_BLOCKS):
        reference = Reference()
        times = []
        with reference.interleaved(SETUP_REF_INTERVAL):
            while not times or (
                sum(times) < SETUP_SECONDS / SETUP_BLOCKS and len(times) < SETUP_MAX_REPEATS
            ):
                paused = reference.seconds
                t0 = time.perf_counter()
                inputs = workload.setup(seed)
                times.append(time.perf_counter() - t0 - (reference.seconds - paused))
        blocks.append((statistics.fmean(times), reference.slowdown))
    return inputs, blocks


def end_to_end(workload, blocks, records, probe, slowdown) -> tuple[dict, dict]:
    """(gated metrics, report-only metrics) of an untraced run."""
    walls = [r.wall for r in records]
    busy = sum(walls)
    work = sum(r.work.get(workload.work_unit, 0) for r in records)
    gated = {
        "setup_s": metric(statistics.median(mean / slow for mean, slow in blocks), "s"),
        "work_per_s": metric(work / busy * slowdown, "1/s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    # as the host measured them, and the slowdowns between the two
    extra = {
        "host_setup_s": metric(statistics.median(mean for mean, _ in blocks), "s"),
        "host_work_per_s": metric(work / busy, "1/s"),
        "host_setup_slowdown": metric(statistics.median(slow for _, slow in blocks), "ratio"),
        "host_slowdown": metric(slowdown, "ratio"),
    }
    # a call's wall time also follows how much work the seed's inputs make
    # (sf_paired's edge entries per call differ between seeds), so it is
    # reported, not gated
    extra["wall_s"] = metric(statistics.median(walls), "s")
    round_walls = edge_rounds = None
    if workload.work_unit == "edge_rounds":
        round_walls, edge_rounds = walls, work
    else:
        extra["entries_per_s"] = metric(work / busy, "1/s")
        if probe is not None and ROUND_SPAN in probe.present:
            round_walls, edge_rounds = probe.durations(ROUND_SPAN), probe.counters["edge_rounds"]
    if round_walls:
        extra["edge_rounds_per_s"] = metric(edge_rounds / busy, "1/s")
        extra["round_ms.p50"] = metric(1000 * statistics.median(round_walls), "ms")
    failed = sum(1 for r in records if r.failures)
    extra["failed_frac"] = metric(failed / len(records), "ratio")
    return gated, extra


def run_one(workload, seed: int, seconds: float, trace: bool) -> int:
    from layers import Tracer, layer_metrics

    print(f"workload {workload.name}: {workload.why}")
    print("machine", json.dumps(machine_record(seed)))

    if trace:  # layer times are reported as measured, so no reference runs
        inputs, blocks, reference = workload.setup(seed), None, None
    else:
        inputs, blocks = setup_blocks(workload, seed)
        reference = Reference()

    probe = Tracer(only={ROUND_SPAN}) if workload.protocol_inside else None
    with probe or contextlib.nullcontext():
        with reference.interleaved(REF_INTERVAL) if reference else contextlib.nullcontext():
            plain = run_ops(workload, inputs, seconds=seconds / 2 if trace else seconds,
                            reference=reference)
    problems = workload.finish(inputs, seed)
    records = list(plain)
    if workload.repeats_inputs and len({json.dumps(r.digest) for r in plain}) > 1:
        problems.append("repeated calls on the same inputs gave different trajectories")

    if trace:
        tracer = Tracer()
        with tracer:
            traced_inputs = workload.setup(seed)
            traced = run_ops(workload, traced_inputs, count=len(plain))
        records += traced
        if [r.digest for r in traced] != [r.digest for r in plain]:
            problems.append("the traced run's outputs differ from the untraced run's")
        metrics, absent = layer_metrics(tracer)
        for name, key in (("sim.vehicles", "vehicles"), ("sim.edge_entries", "entries")):
            metrics[name] = metric(sum(r.work.get(key, 0) for r in traced), "count")
        overhead = sum(r.wall for r in traced) - sum(r.wall for r in plain)
        metrics["trace.overhead_s"] = metric(overhead, "s")
        print(f"traced {len(traced)} call(s) after {len(plain)} untraced; "
              f"protocol.messages and protocol.bytes are computed, not counted from transcripts")
        print("note: sharing has no layer metric; no workload path calls it "
              "(protocol keeps its own share loops)")
        if absent:
            print("absent (wrapped name not found):", ", ".join(absent))
        report = metrics
    else:
        metrics, extra = end_to_end(workload, blocks, plain, probe, reference.slowdown)
        print(f"samples: setup_s median of {len(blocks)} blocks, wall_s median of {len(plain)} "
              f"call(s), work_per_s counts {workload.work_unit}; host_slowdown from "
              f"{reference.chunks} reference chunk(s)")
        report = {**metrics, **extra}

    for name, m in report.items():
        print(f"metric {name} {m['value']!r} {m['unit']}")
    # outputs of the first call, which every run makes on the same inputs
    for name, digest in plain[0].digest.items():
        print(f"output digest.{name} {digest}")
    for name, value in plain[0].outputs.items():
        print(f"output metrics.{name} {value!r}")

    failed = sum(1 for r in records if r.failures)
    messages = problems + [f for r in records for f in r.failures]
    for message in messages[:MAX_FAILURES_SHOWN]:
        print("FAILED:", message.strip(), file=sys.stderr)
    if len(messages) > MAX_FAILURES_SHOWN:
        print(f"FAILED: ... {len(messages) - MAX_FAILURES_SHOWN} more", file=sys.stderr)
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(names, seed: int, seconds: float, smoke: bool) -> int:
    """Each workload in its own process, untraced then traced."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {w["name"] for w in spec["workloads"]}
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    status = 0
    for name in names:
        for trace in (0, 1):
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)] + (["--smoke"] if smoke else [])
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                result = None
            ok = proc.returncode == 0 and result is not None and result["correct"]
            if ok and name in declared:
                units = {k: v["unit"] for k, v in result["metrics"].items()}
                if units != expected[trace]:
                    print(f"FAILED: {name} trace {trace} metrics do not match BENCHMARK.json",
                          file=sys.stderr)
                    ok = False
            print(f"== {name} trace {trace}: {'ok' if ok else 'FAILED'}\n")
            status = status or (0 if ok else 1)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default 30, or 1 with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for checking the benchmark")
    args = parser.parse_args(argv)
    seconds = args.seconds if args.seconds is not None else (1.0 if args.smoke else 30.0)

    import_program()
    from workloads import workloads

    registry = workloads(args.smoke)
    if args.workload == "all":
        return run_all(list(registry), args.seed, seconds, args.smoke)
    if args.workload not in registry:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(registry)} or all")
    return run_one(registry[args.workload], args.seed, seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
