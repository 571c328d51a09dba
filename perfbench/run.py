#!/usr/bin/env python3
"""The repository benchmark: end-to-end and per-layer metrics per workload.

    python3 perfbench/run.py --workload suite-ref --seed 1 --seconds 20 --trace 0

Workloads (the reasons are recorded in ``BENCHMARK.json``):

* ``suite-ref`` / ``suite-vec`` — the pinned scenario suite on the
  reference / vectorized engine (:mod:`suites`);
* ``fleet`` — a dynamically routed federated fleet, timed in process and
  checked against a workers=2 run (:mod:`fleet`);
* ``gateway`` — a ``repro serve`` process under an open-loop HTTP replay
  (:mod:`gateway`).

``--trace 0`` prints the ``end_to_end`` metrics of ``BENCHMARK.json``,
measured with no wrappers installed; ``--trace 1`` prints the
``per_layer`` metrics from a separate traced run and writes its spans as
Chrome trace-event JSON under ``.perfbench-out/``.  The last line of
standard output is the JSON result; the lines above it are for people.
Run from the root of a checkout: the program is imported from its
``src/`` tree.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import common  # noqa: E402

WORKLOAD_MODULES = {
    "suite-ref": "suites",
    "suite-vec": "suites",
    "fleet": "fleet",
    "gateway": "gateway",
}
#: set-up samples taken in fresh interpreters, besides this process's own
SETUP_PROBES = 2


def load_config() -> dict:
    with open(common.ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def pinned_scenarios(config: dict) -> list[str]:
    """The suite's scenarios, pinned by the ``suite.<name>.wall_s`` metrics."""
    return [
        entry["name"][len("suite."):-len(".wall_s")]
        for entry in config["per_layer"]
        if entry["name"].startswith("suite.") and entry["name"].endswith(".wall_s")
    ]


def parse_args(argv, config: dict) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOAD_MODULES))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(config["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--p99-limit-ms", dest="p99_limit_ms", type=float, default=None,
        help="gateway latency limit on p99 for sustained_speed_x (fixed in BENCHMARK.json)",
    )
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def emit(run: common.Run, entries: list[dict]) -> dict:
    """Every configured metric with its unit; 0 for any not measured."""
    metrics = {}
    missing = []
    for entry in entries:
        value = run.metrics.get(entry["name"])
        if value is None or not math.isfinite(value):
            missing.append(entry["name"])
            value = 0.0
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    if missing:
        run.problems.append(f"not measured: {', '.join(missing)}")
    return metrics


def _terminate(signum, frame) -> None:
    # unwind through the workloads' ``finally`` blocks, which stop the
    # servers and worker processes a run started
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    if not common.program_present():
        print(f"error: the program's source tree is missing ({common.SRC})", file=sys.stderr)
        return 2
    config = load_config()
    args = parse_args(argv, config)
    ctx = SimpleNamespace(
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        scenarios=pinned_scenarios(config), p99_limit_ms=args.p99_limit_ms,
    )
    if args.workload == "gateway" and ctx.p99_limit_ms is None:
        print("error: the gateway workload needs --p99-limit-ms", file=sys.stderr)
        return 2
    common.use_program()
    workload = importlib.import_module(WORKLOAD_MODULES[args.workload])
    state = workload.prepare(ctx)
    setup_s = time.perf_counter() - _STARTED
    if args.setup_probe:
        print(repr(setup_s))
        return 0

    run = common.Run()
    trace_file = None
    try:
        if args.trace:
            traced = workload.trace(ctx, state, run)
            if WORKLOAD_MODULES[args.workload] != "suites":  # no suite rounds here
                for scenario in ctx.scenarios:
                    run.metrics[f"suite.{scenario}.wall_s"] = 0.0
            trace_file = common.OUT_DIR / f"{args.workload}-seed{args.seed}.trace.json"
            from spans import chrome_trace, write_json

            write_json(str(trace_file), chrome_trace(traced["spans"], traced["totals"]))
        else:
            if args.workload != "gateway":  # the gateway times server spawns
                samples = [setup_s, *common.setup_probes(args.workload, args.seed, SETUP_PROBES)]
                run.metrics["setup_s"] = common.median(samples)
            workload.measure(ctx, state, run)
    except Exception:  # noqa: BLE001 - report the failure in the result line
        traceback.print_exc()
        run.problems.append("the workload raised; see standard error")
        run.failed = max(run.failed, 1)
        run.attempted = max(run.attempted, run.failed)

    attempted = max(run.attempted, 1)
    error_rate = run.failed / attempted
    run.metrics["success_rate"] = 1.0 - error_rate
    entries = config["per_layer"] if args.trace else config["end_to_end"]
    metrics = emit(run, entries)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for note in run.notes:
        print(note)
    for name, metric in metrics.items():
        print(f"{name:<40} {metric['value']:>16.6g} {metric['unit']}")
    print(f"{'error_rate':<40} {error_rate:>16.6g} ratio ({run.failed}/{attempted})")
    if trace_file is not None:
        print(f"trace: {trace_file}")
    for problem in run.problems:
        print(f"problem: {problem}")
    result = {
        "correct": run.failed == 0 and not run.problems,
        "attempted": attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
