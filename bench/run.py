"""Coin ladder benchmark: one workload per process, every metric by name.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 bench/run.py --all [--smoke] [--trace]
    python3 bench/run.py --calibrate 10

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
An environment stamp (and, traced, the ladder report) is printed before
it.  See ``bench/README.md``.
"""

import time

# the set-up clock of a --setup-probe child: before ``import repro``
_PROCESS_START = time.perf_counter()

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "BENCHMARK.json"
# listed here too (bench.workloads.SPECS is the definition) because the
# arguments are parsed before anything imports repro
WORKLOADS = (
    "beacon_small_batch", "beacon_large_batch", "beacon_wide",
    "beacon_byzantine", "async_expose", "beacon_observed",
)
SETUP_PROBES = 7


def _bootstrap_path() -> None:
    """Make ``bench`` and ``repro`` importable from a bare checkout.

    Run as a script, ``sys.path[0]`` is ``bench/`` itself, where
    ``trace.py`` would shadow the standard library's module; the
    checkout root takes its place.
    """
    if sys.path and Path(sys.path[0] or ".").resolve() == ROOT / "bench":
        sys.path[0] = str(ROOT)
    for entry in (str(ROOT / "src"), str(ROOT)):
        if entry not in sys.path:
            sys.path.insert(0, entry)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="how long the timed pass measures")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: second, traced pass and per-layer metrics")
    parser.add_argument("--all", action="store_true",
                        help="every workload in turn, each in a fresh process")
    parser.add_argument("--smoke", action="store_true",
                        help="4 blocks per workload, one set-up probe")
    parser.add_argument("--calibrate", type=int, metavar="N",
                        help="N full sets of seeds seed..seed+N-1; rewrite the "
                             "bounds in BENCHMARK.json")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (args.workload or args.all or args.calibrate):
        parser.error("need --workload, --all or --calibrate")
    return args


# -- the environment stamp -------------------------------------------------

def environment(args, field, passes) -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT,
            capture_output=True, text=True,
        )
        git_sha = git.stdout.strip() if git.returncode == 0 else None
    except OSError:  # no git on this box
        git_sha = None
    return {"env": {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "git_sha": git_sha,
        "workload": args.workload,
        "field_backend": field.backend_name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": {
            label: {
                "blocks": len(run.blocks),
                "coins": sum(block[0] for block in run.blocks),
                "window_blocks": run.min_blocks,
                "window_coins": run.window["coins"] if run.window else None,
                "digest": run.window["digest"] if run.window else None,
                "error": run.error,
            }
            for label, run in passes.items()
        },
    }}


# -- set-up time -----------------------------------------------------------

def setup_probe(args) -> int:
    """Child process: time from before ``import repro`` to the first coin."""
    from bench.workloads import make_session

    session = make_session(args.workload, args.seed)
    value = session.toss()
    elapsed = time.perf_counter() - _PROCESS_START
    print(json.dumps({
        "setup_s": elapsed, "first_coin": session.field.to_int(value),
    }))
    return 0


def measure_setup(args, probes: int):
    """Median set-up time over fresh processes, and the coins they saw."""
    results = []
    for _ in range(probes):
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            capture_output=True, text=True, check=True,
        )
        results.append(json.loads(child.stdout.splitlines()[-1]))
    return (
        statistics.median(r["setup_s"] for r in results),
        {r["first_coin"] for r in results},
    )


# -- one workload ----------------------------------------------------------

def run_end_to_end(args) -> dict:
    from bench.measure import MIN_BLOCKS, SMOKE_BLOCKS, Pass
    from bench.metrics import END_TO_END, with_units
    from bench.workloads import make_session

    setup_s, first_coins = measure_setup(
        args, 1 if args.smoke else SETUP_PROBES
    )
    session = make_session(args.workload, args.seed)
    timed = Pass(session, SMOKE_BLOCKS if args.smoke else MIN_BLOCKS)
    timed.run(0.0 if args.smoke else args.seconds)
    print(json.dumps(environment(args, session.field, {"timed": timed})))

    failed = timed.failed
    if first_coins != {timed.first_value}:
        # a fresh process with the same seed must deliver the same coin
        print(f"first coin differs across processes: {first_coins} "
              f"vs {timed.first_value}", file=sys.stderr)
        failed += 1
    if timed.error:
        print(timed.error, file=sys.stderr)
    metrics = {}
    if timed.window is not None:
        metrics = dict(timed.end_to_end(), setup_s=setup_s)
        assert set(metrics) == {name for name, *_ in END_TO_END}
    return {
        "correct": failed == 0 and timed.ok,
        "attempted": timed.attempted,
        "failed": failed,
        "metrics": with_units(metrics),
    }


def run_traced(args) -> dict:
    from bench.ladder import per_layer
    from bench.measure import MIN_BLOCKS, SMOKE_BLOCKS, Pass
    from bench.metrics import PER_LAYER, with_units
    from bench.rungs import all_rungs
    from bench.trace import Tracer, summarize
    from bench.workloads import SPECS, make_session

    spec = SPECS[args.workload]
    blocks = SMOKE_BLOCKS if args.smoke else MIN_BLOCKS
    passes = {}

    # untraced pass; on a lit workload a dark twin of the same seed runs
    # block about with it, so both see the same interference
    session = make_session(args.workload, args.seed)
    untraced = passes["untraced"] = Pass(session, blocks)
    obs = {
        "obs.lit_over_dark": 0.0, "obs.spans_per_coin": 0.0,
        "obs.events_per_coin": 0.0, "obs.flight_bytes_per_coin": 0.0,
    }
    if spec.lit:
        dark = passes["dark"] = Pass(
            make_session(args.workload, args.seed, lit=False), blocks
        )
        untraced.warm_up()
        dark.warm_up()
        while len(dark.blocks) < blocks:
            if not (untraced.run_block() and dark.run_block()):
                break
        if untraced.ok and dark.ok:
            consumed = session.source.coins_consumed
            log = session.flight.log()
            obs = {
                "obs.lit_over_dark": statistics.median(
                    lit[1] / unlit[1]
                    for lit, unlit in zip(untraced.blocks, dark.blocks)
                ),
                "obs.spans_per_coin": len(session.spans.spans) / consumed,
                "obs.events_per_coin": log.event_count / consumed,
                "obs.flight_bytes_per_coin": len(log.dumps()) / consumed,
            }
        dark.release()
    else:
        untraced.run(0.0)
    field, coin_gen_size = session.field, session.coin_gen_size
    del session
    untraced.release()

    # traced pass: same workload, same seed, wrappers installed
    tracer = Tracer()
    with tracer.patched():
        traced = passes["traced"] = Pass(
            make_session(args.workload, args.seed), blocks, tracer
        )
        traced.run(0.0)
    traced.release()
    out_dir = ROOT / "bench" / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.dump(out_dir / f"{args.workload}-seed{args.seed}.spans.jsonl")

    print(json.dumps(environment(args, field, passes)))
    failed = sum(run.failed for run in passes.values())
    for label, run in passes.items():
        if run.error:
            print(f"{label}: {run.error}", file=sys.stderr)
    complete = all(run.ok for run in passes.values())
    metrics = {}
    if complete:
        digests = {k: run.window["digest"] for k, run in passes.items()}
        if len(set(digests.values())) != 1:
            print(f"coin streams differ between passes: {digests}",
                  file=sys.stderr)
            failed += 1
        rungs = all_rungs(
            spec, field, coin_gen_size, args.seed,
            0.002 if args.smoke else 0.02,
        )
        metrics, report = per_layer(
            untraced, traced, summarize(tracer.spans), rungs, obs
        )
        assert set(metrics) == {name for name, *_ in PER_LAYER}
        print("\n".join(report))
    return {
        "correct": failed == 0 and complete,
        "attempted": sum(run.attempted for run in passes.values()),
        "failed": failed,
        "metrics": with_units(metrics),
    }


# -- every workload, and calibration ---------------------------------------

def run_child(args, workload: str, trace: int) -> dict:
    """One workload in a fresh process; its output is passed through."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
    ] + (["--smoke"] if args.smoke else [])
    child = subprocess.run(command, capture_output=True, text=True)
    sys.stderr.write(child.stderr)
    lines = child.stdout.splitlines()
    print("\n".join(lines[:-1]))
    result = json.loads(lines[-1]) if lines else {"correct": False}
    result["exit_code"] = child.returncode
    return result


def run_all(args) -> int:
    results = {name: run_child(args, name, args.trace) for name in WORKLOADS}
    print(json.dumps({"workloads": results}))
    return 0 if all(
        r["correct"] and r["exit_code"] == 0 for r in results.values()
    ) else 1


def calibrate(args) -> int:
    """N sets, each with another seed -> medians, spreads, bounds.

    The spread is the one the driver computes: the distance between the
    first and third quartile of the N values as a share of their median.
    A bound is three times the widest spread any workload shows, and at
    least the catalogue's value; the contract caps it at 0.25.
    """
    from bench.metrics import END_TO_END

    samples = {name: {metric: [] for metric, *_ in END_TO_END}
               for name in WORKLOADS}
    first_seed = args.seed
    for offset in range(args.calibrate):
        args.seed = first_seed + offset
        for name in WORKLOADS:
            result = run_child(args, name, 0)
            if not result["correct"]:
                return 1
            for metric, row in result["metrics"].items():
                samples[name][metric].append(row["value"])
    widest = {metric: 0.0 for metric, *_ in END_TO_END}
    print(f"\n| workload | metric | median of {args.calibrate} | spread | "
          "largest deviation | values |\n|---|---|---|---|---|---|")
    for name in WORKLOADS:
        for metric, values in samples[name].items():
            median = statistics.median(values)
            first, _, third = statistics.quantiles(values, n=4)
            spread = (third - first) / median
            deviation = max(abs(v - median) for v in values) / median
            widest[metric] = max(widest[metric], spread)
            print(f"| {name} | {metric} | {median:.6g} | {spread:.4f} | "
                  f"{deviation:.4f} | "
                  + " ".join(f"{v:.5g}" for v in values) + " |")
    manifest = json.loads(MANIFEST.read_text())
    table = {metric: bound for metric, _u, _b, bound in END_TO_END}
    for row in manifest["end_to_end"]:
        name = row["name"]
        row["bound"] = min(0.25, max(
            table[name], math.ceil(300 * widest[name]) / 100
        ))
        print(f"bound {name}: {row['bound']} (catalogue {table[name]}, "
              f"widest spread {widest[name]:.4f})")
    MANIFEST.write_text(json.dumps(manifest, indent=2) + "\n")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if os.environ.get("REPRO_FIELD_BACKEND"):
        print("REPRO_FIELD_BACKEND is set: the benchmark measures the "
              "default 'auto' backend; unset it", file=sys.stderr)
        return 2
    _bootstrap_path()
    try:
        import repro  # noqa: F401
    except ImportError as error:
        print(f"cannot import repro from {ROOT / 'src'}: {error}",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args)
    if args.calibrate:
        return calibrate(args)
    if args.all:
        return run_all(args)
    result = run_traced(args) if args.trace else run_end_to_end(args)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
