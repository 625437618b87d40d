"""Command-line entry point for reproducible experiments.

Subcommands:

* simulate         paired private/non-private simulation on TNTP inputs
* critical-counts  per-edge accuracy-critical counts for a network
* verify-accuracy  Monte Carlo check of the travel-time accuracy guarantee
* fit-noise        fit the quantile polynomial and write its quality report
* protocol-demo    run one full multi-party round and dump the transcript

Every run writes a manifest (resolved config, seed, build id) next to its
outputs.  Exit codes: 0 ok, 1 internal error, 2 bad configuration, 3 input
file problem.  Set PRIVROUTE_LOG=debug for verbose logging.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

from . import __version__
from .field import MERSENNE_521
from .laplace import LaplaceParams, fit_inverse_cdf_poly
from .protocol import PartyInput, run_round
from .roadnet import DelayFunction, check_accuracy_condition, verify_accuracy_guarantee
from .sim import SimConfig, check_demand, run_experiment
from .tntp import ParseError, parse_net_file, parse_trips_file

log = logging.getLogger("privroute")

EXIT_INTERNAL = 1
EXIT_CONFIG = 2
EXIT_INPUT = 3


def _git_describe() -> str:
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=5,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except Exception:
        pass
    return "unknown"


def _write_json(path: Path, obj) -> None:
    """Indented JSON plus a trailing newline."""
    with open(path, "w") as f:
        json.dump(obj, f, indent=2)
        f.write("\n")


def _write_manifest(outdir: Path, command: str, config: dict) -> None:
    """`config` is the parsed `vars(args)`; its `func` (the subcommand's
    handler) is dropped, since its repr names a memory address."""
    manifest = {
        "command": command,
        "config": {k: v for k, v in config.items() if k != "func"},
        "version": __version__,
        "build": _git_describe(),
    }
    outdir.mkdir(parents=True, exist_ok=True)
    _write_json(outdir / "manifest.json", manifest)


def _load_inputs(args):
    try:
        network = parse_net_file(args.net)
        od = parse_trips_file(args.trips) if getattr(args, "trips", None) else None
    except (OSError, UnicodeDecodeError) as exc:  # missing, a directory, not text
        raise SystemExit(_fail(EXIT_INPUT, f"cannot read input file: {exc}"))
    except ParseError as exc:
        raise SystemExit(_fail(EXIT_INPUT, f"cannot parse input: {exc}"))
    return network, od


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def cmd_simulate(args) -> int:
    network, od = _load_inputs(args)
    try:
        config = SimConfig(
            epsilon=args.epsilon,
            noise=args.noise,
            timestep=args.timestep,
            horizon=args.horizon,
            refresh_period=args.dt,
            demand_multiplier=args.demand,
            seed=args.seed,
        )
    except ValueError as exc:
        return _fail(EXIT_CONFIG, str(exc))
    try:
        check_demand(network, od)
    except ValueError as exc:  # unknown OD node, or Unreachable
        return _fail(EXIT_INPUT, f"bad demand input: {exc}")
    outdir = Path(args.out)
    _write_manifest(outdir, "simulate", vars(args))
    log.info("running paired simulation: epsilon=%s demand=%s seed=%s",
             args.epsilon, args.demand, args.seed)
    metrics, result_np, result_p = run_experiment(network, od, config)
    _write_json(outdir / "metrics.json", metrics.as_dict())
    with open(outdir / "metrics.csv", "w", newline="") as f:
        writer = csv.writer(f)
        rows = sorted(metrics.as_dict().items())
        writer.writerow([k for k, _ in rows])
        writer.writerow([v for _, v in rows])
    if args.trace:
        for name, result in (("nonprivate", result_np), ("private", result_p)):
            with open(outdir / f"vehicles_{name}.csv", "w", newline="") as f:
                writer = csv.writer(f)
                writer.writerow(["id", "origin", "dest", "depart", "arrive", "route_hash"])
                for v in result.vehicles:
                    writer.writerow(
                        [v.id, v.origin, v.dest, v.depart,
                         "" if v.arrival is None else v.arrival, hash(v.route)]
                    )
    print(json.dumps(metrics.as_dict(), indent=2))
    return 0


def cmd_critical_counts(args) -> int:
    network, _ = _load_inputs(args)
    outdir = Path(args.out)
    _write_manifest(outdir, "critical-counts", vars(args))
    rows = []
    n_above = 0
    threshold = None
    for e in network.edges:
        check = check_accuracy_condition(e.delay, args.epsilon, args.delta, args.p_fail)
        threshold = check.threshold
        n_above += check.satisfied
        rows.append((e.id, e.tail, e.head, check.critical_count, check.satisfied))
    with open(outdir / "critical_counts.csv", "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["edge", "tail", "head", "critical_count", "meets_threshold"])
        writer.writerows(rows)
    if rows:
        frac = n_above / len(rows)
        print(f"threshold: {threshold:.2f}")
        print(f"edges above threshold: {n_above}/{len(rows)} ({100 * frac:.1f}%)")
    else:
        print("edges above threshold: NA (empty network)")
    return 0


def cmd_verify_accuracy(args) -> int:
    try:
        delay = DelayFunction(t0=args.t0, capacity=args.capacity,
                              alpha=args.alpha, beta=args.beta)
        check = check_accuracy_condition(delay, args.epsilon, args.delta, args.p_fail)
    except ValueError as exc:
        return _fail(EXIT_CONFIG, str(exc))
    print(f"threshold: {check.threshold:.2f} (minimum integer count "
          f"{check.min_integer_count}); road critical count {check.critical_count:.2f}; "
          f"condition {'met' if check.satisfied else 'NOT met'}")
    s_grid = [float(s) for s in args.counts.split(",")]
    results = verify_accuracy_guarantee(
        delay, args.epsilon, args.delta, args.p_fail, s_grid,
        trials=args.trials, seed=args.seed,
    )
    target = 1.0 - args.p_fail
    for s, stats in results.items():
        marker = "ok" if stats["success_rate"] >= target else "BELOW TARGET"
        print(f"  s={s:8.0f}  success={stats['success_rate']:.4f} "
              f"mean_rel_err={stats['mean_rel_error']:.5f}  [{marker}]")
    if args.out:
        outdir = Path(args.out)
        _write_manifest(outdir, "verify-accuracy", vars(args))
        _write_json(outdir / "verify.json", {"check": check.__dict__, "results": results})
    return 0


def cmd_fit_noise(args) -> int:
    modulus = MERSENNE_521 if args.modulus is None else args.modulus
    try:
        poly = fit_inverse_cdf_poly(
            LaplaceParams(args.epsilon), args.degree, modulus, args.clamp,
            n_parties=args.parties, seed_bits=args.seed_bits,
        )
    except ValueError as exc:
        return _fail(EXIT_CONFIG, str(exc))
    report = poly.fit_report()
    if args.out:
        outdir = Path(args.out)
        _write_manifest(outdir, "fit-noise", vars(args))
        _write_json(outdir / "fit_report.json", report)
    print(json.dumps(report, indent=2))
    return 0


def cmd_protocol_demo(args) -> int:
    if args.edges < 1:
        return _fail(EXIT_CONFIG, f"--edges must be at least 1, got {args.edges}")
    if args.parties < 3:
        return _fail(EXIT_CONFIG, f"--parties must be at least 3, got {args.parties}")
    try:
        poly = fit_inverse_cdf_poly(
            LaplaceParams(args.epsilon), args.degree, MERSENNE_521,
            n_parties=args.parties, seed_bits=args.seed_bits, ks_samples=10_000,
        )
    except ValueError as exc:
        return _fail(EXIT_CONFIG, str(exc))
    rng_locations = [i % args.edges for i in range(args.parties)]
    inputs = [
        PartyInput.on_edge(i + 1, rng_locations[i], args.edges)
        for i in range(args.parties)
    ]
    result = run_round(inputs, poly, seed=args.seed)
    true_counts = [rng_locations.count(e) for e in range(args.edges)]
    outdir = Path(args.out)
    _write_manifest(outdir, "protocol-demo", vars(args))
    with open(outdir / "transcript.jsonl", "w") as f:
        result.transcript.dump_jsonl(f)
    _write_json(outdir / "round.json", {
        "true_counts": true_counts, "noisy_counts": list(result.noisy_counts),
        "messages": len(result.transcript.messages), "seed": args.seed,
    })
    print(f"true counts : {true_counts}")
    print(f"noisy counts: {[round(c, 3) for c in result.noisy_counts]}")
    print(f"messages exchanged: {len(result.transcript.messages)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="privroute",
        description="Privacy-preserving traffic-count estimation experiments",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    sim = sub.add_parser("simulate", help="paired private/non-private simulation")
    sim.add_argument("--net", required=True, help="TNTP network file")
    sim.add_argument("--trips", required=True, help="TNTP trips file")
    sim.add_argument("--epsilon", type=float, default=0.1)
    sim.add_argument("--demand", type=float, default=1.0, help="demand multiplier")
    sim.add_argument("--dt", type=float, default=120.0, help="estimate refresh period (s)")
    sim.add_argument("--timestep", type=float, default=10.0)
    sim.add_argument("--horizon", type=float, default=7200.0)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--noise", choices=["exact", "mpc"], default="exact")
    sim.add_argument("--trace", action="store_true", help="write per-vehicle CSVs")
    sim.add_argument("--out", default="out", help="output directory")
    sim.set_defaults(func=cmd_simulate)

    cc = sub.add_parser("critical-counts", help="per-edge critical counts")
    cc.add_argument("--net", required=True)
    cc.add_argument("--delta", type=float, default=0.1)
    cc.add_argument("--epsilon", type=float, default=0.2)
    cc.add_argument("--p-fail", type=float, default=0.1)
    cc.add_argument("--out", default="out")
    cc.set_defaults(func=cmd_critical_counts)

    vt = sub.add_parser("verify-accuracy", help="Monte Carlo accuracy-guarantee check")
    vt.add_argument("--t0", type=float, default=1.0)
    vt.add_argument("--capacity", type=float, default=130.0)
    vt.add_argument("--alpha", type=float, default=0.15)
    vt.add_argument("--beta", type=float, default=4.0)
    vt.add_argument("--epsilon", type=float, default=0.2)
    vt.add_argument("--delta", type=float, default=0.1)
    vt.add_argument("--p-fail", type=float, default=0.1)
    vt.add_argument("--counts", default="1,50,127,500,5000")
    vt.add_argument("--trials", type=int, default=10_000)
    vt.add_argument("--seed", type=int, default=0)
    vt.add_argument("--out", default=None)
    vt.set_defaults(func=cmd_verify_accuracy)

    fn = sub.add_parser("fit-noise", help="fit the quantile polynomial")
    fn.add_argument("--epsilon", type=float, default=0.1)
    fn.add_argument("--degree", type=int, default=15)
    fn.add_argument("--clamp", type=float, default=1e-4)
    fn.add_argument("--parties", type=int, default=1)
    fn.add_argument("--seed-bits", type=int, default=20)
    fn.add_argument("--modulus", type=int, default=None,
                    help="field prime (default: 2^521 - 1)")
    fn.add_argument("--out", default=None)
    fn.set_defaults(func=cmd_fit_noise)

    pd = sub.add_parser("protocol-demo", help="run one multi-party round")
    pd.add_argument("--parties", type=int, default=5)
    pd.add_argument("--edges", type=int, default=3)
    pd.add_argument("--epsilon", type=float, default=0.2)
    pd.add_argument("--degree", type=int, default=7)
    pd.add_argument("--seed-bits", type=int, default=16)
    pd.add_argument("--seed", type=int, default=0)
    pd.add_argument("--out", default="out")
    pd.set_defaults(func=cmd_protocol_demo)

    return parser


def main(argv=None) -> int:
    level = os.environ.get("PRIVROUTE_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_INTERNAL
    except ValueError as exc:
        return _fail(EXIT_CONFIG, str(exc))
    except Exception as exc:  # pragma: no cover - safety net
        log.exception("internal failure")
        return _fail(EXIT_INTERNAL, f"internal error: {exc}")


if __name__ == "__main__":
    sys.exit(main())
