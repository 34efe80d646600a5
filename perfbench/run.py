"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Runs one workload for ``S`` seconds of
measurement, checks the program's outputs, and prints one JSON object as
the last line of standard output::

    {"correct": true, "attempted": 118, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of
``BENCHMARK.json``.  With ``--trace 1`` they are its per-layer ones: the
named workload runs traced for ``S`` seconds and reports the layers it
exercises, and a short traced pass of each other workload
(:data:`COMPANION_SECONDS`, same seed, its checks applied) reports the
layers the named one never reaches, so every traced run prints every
per-layer metric.  Progress and failures go to standard error.  A failed check prints a result with ``"correct":
false`` and the operations attempted and failed so far, and exits 1; an
unusable checkout exits 2 without printing a result.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402 — set-up time counts from the line above
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

import checks  # noqa: E402
import common  # noqa: E402

#: Workload name -> the module that runs it.
WORKLOADS = {
    "train": "wl_train",
    "serve_cold": "wl_serve_cold",
    "fleet_mixed": "wl_fleet",
}
#: Measuring time of each companion pass of a traced run.  Every workload
#: runs at least one whole round (two on the alternating ones) however
#: short this is.
COMPANION_SECONDS = 1.0


def manifest_metrics(trace: bool) -> dict:
    """``{name: unit}`` of the metrics ``BENCHMARK.json`` asks of a run."""
    with open(os.path.join(common.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        manifest = json.load(handle)
    return {
        metric["name"]: metric["unit"]
        for metric in manifest["per_layer" if trace else "end_to_end"]
    }


def run_traced(name: str, seed: int, seconds: float) -> dict:
    """The named workload's traced run, completed with the layers only the
    other workloads exercise, each taken from a short traced pass of the
    first workload that reports it."""
    outcome = importlib.import_module(WORKLOADS[name]).run(STARTED, seed, seconds, True)
    sources = {metric: name for metric in outcome["metrics"]}
    for other, module in WORKLOADS.items():
        if other == name:
            continue
        companion = importlib.import_module(module).run(
            time.perf_counter(), seed, COMPANION_SECONDS, True
        )
        for metric, value in companion["metrics"].items():
            if metric not in sources:
                outcome["metrics"][metric] = value
                sources[metric] = other
    outcome["attempted"] = common.TALLY.attempted
    outcome["failed"] = common.TALLY.failed
    outcome.setdefault("notes", {})["layer_sources"] = sources
    return outcome


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        common.require_program()
    except common.BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2

    try:
        if args.trace:
            outcome = run_traced(args.workload, args.seed, args.seconds)
        else:
            outcome = importlib.import_module(WORKLOADS[args.workload]).run(
                STARTED, args.seed, args.seconds, False
            )
    except checks.CheckFailed as error:
        print(f"perfbench: {args.workload}: check failed: {error}", file=sys.stderr)
        print(json.dumps({
            "correct": False,
            "attempted": max(1, common.TALLY.attempted),
            "failed": common.TALLY.failed,
            "metrics": {},
        }), flush=True)
        return 1
    expected = manifest_metrics(bool(args.trace))
    printed = {name: unit for name, (_, unit) in outcome["metrics"].items()}
    if printed != expected:
        print(
            f"perfbench: {args.workload}: metrics {sorted(printed.items())} do not "
            f"match BENCHMARK.json's {sorted(expected.items())}",
            file=sys.stderr,
        )
        return 3
    result = {
        "correct": True,
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in outcome["metrics"].items()
        },
    }
    common.write_result(
        f"{args.workload}-seed{args.seed}-trace{args.trace}",
        dict(result, notes=outcome.get("notes", {})),
    )
    print(json.dumps(outcome.get("notes", {}), sort_keys=True), file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
