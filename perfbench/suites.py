"""``suite-ref`` / ``suite-vec``: the registered scenarios on one engine.

The spec table follows today's scenario bench suite: SLINFER with 8
deployments; the hardware-shaped scenarios on their own clusters; the
long-horizon scenarios under streaming metrics; the prefix scenarios
with the block map on.  The scenario list itself is pinned by the
``suite.<scenario>.wall_s`` metric names in ``BENCHMARK.json``, so a
scenario registered later does not silently change the workload.

Each scenario runs on ``TRACES_PER_SCENARIO`` traces of its own seeds
(``K·seed − K + 1`` to ``K·seed``): how much work a trace makes depends
on where its bursts and long requests fall, and that varies more
between single traces than a shared host's speed does between runs.
Each round executes every spec once, in order, in this process.  The
traces are synthesized during set-up and handed to ``execute_spec`` as
materialized workloads, so rounds time the serving loop only.
"""

from __future__ import annotations

from dataclasses import dataclass

from common import (
    HostProbe, Run, conserved, geomean, median, peak_rss_mb, probe_notes, report_digest,
    round_verdicts, timed, verdict_notes,
)
from layers import LAYERS, layer_metrics, report_metrics
from spans import Tracer

#: simulated window of every spec (seconds) and traces per scenario: a
#: round of the reference suite takes 8-12 s on a 2-core shared host,
#: so two rounds, and for ``suite-vec`` the reference pass, keep a run
#: near half a minute
SUITE_DURATION = 90.0
TRACES_PER_SCENARIO = 3

STREAMING = frozenset({"diurnal-week", "million-burst", "fleet-diurnal-week", "global-storm"})
CLUSTERS = {"het-fleet": "het-gpu", "cold-churn": "rack-oversub", "cpu-harvest": "harvest16"}
SHARING = frozenset({"shared-sysprompt", "agentic-loop", "prefix-mix"})

ENGINES = {"suite-ref": "reference", "suite-vec": "vectorized"}


def trace_seeds(seed: int) -> range:
    return range(TRACES_PER_SCENARIO * (seed - 1) + 1, TRACES_PER_SCENARIO * seed + 1)


def suite_specs(scenarios, seed: int, engine: str):
    """One spec per scenario and trace seed, grouped by scenario."""
    from repro.runner import RunSpec

    return [
        RunSpec(
            system="slinfer",
            scenario=scenario,
            n_models=8,
            cluster=CLUSTERS.get(scenario, "cpu2-gpu2"),
            seed=trace_seed,
            duration=SUITE_DURATION,
            metrics="streaming" if scenario in STREAMING else "exact",
            kv_sharing="on" if scenario in SHARING else "off",
            engine=engine,
        )
        for scenario in scenarios
        for trace_seed in trace_seeds(seed)
    ]


@dataclass
class Suite:
    scenarios: list
    specs: list
    workloads: list

    def per_scenario(self, per_spec: list[float]) -> dict[str, float]:
        """Sum per-spec values over each scenario's traces."""
        totals = dict.fromkeys(self.scenarios, 0.0)
        for spec, value in zip(self.specs, per_spec):
            totals[spec.scenario] += value
        return totals


def prepare(ctx) -> Suite:
    import repro.runner as runner

    specs = suite_specs(ctx.scenarios, ctx.seed, ENGINES[ctx.workload])
    return Suite(list(ctx.scenarios), specs, [runner.build_workload(spec) for spec in specs])


def _label(spec) -> str:
    return f"{spec.scenario} (seed {spec.seed})"


class _Ledger:
    """Per-spec timings, digests and check outcomes across rounds."""

    def __init__(self, count: int) -> None:
        self.attempts = [0] * count
        self.times = [[] for _ in range(count)]
        self.digests = [[] for _ in range(count)]
        self.ok = [True] * count
        #: host seconds of each whole round
        self.rounds: list[float] = []
        #: host speed, sampled before every execution
        self.probe = HostProbe()

    def execute(self, run: Run, suite: Suite, index: int):
        from repro.runner import execute_spec

        spec, workload = suite.specs[index], suite.workloads[index]
        self.attempts[index] += 1
        self.probe.sample()
        try:
            seconds, result = timed(lambda: execute_spec(spec, workload=workload))
        except Exception as exc:  # noqa: BLE001 - a failed operation, reported
            self.fail(run, index, f"{_label(spec)}: {type(exc).__name__}: {exc}")
            return None
        report = result.report
        self.times[index].append(seconds)
        self.digests[index].append(report_digest(report))
        if not conserved(report, workload.total_requests):
            self.fail(run, index, f"{_label(spec)}: requests not conserved")
        return seconds

    def fail(self, run: Run, index: int, what: str) -> None:
        self.ok[index] = False
        if len(run.problems) < 20:
            run.problems.append(what)

    def check_repeats(self, run: Run, suite: Suite) -> None:
        for index, digests in enumerate(self.digests):
            if len(set(digests)) > 1:
                self.fail(run, index, f"{_label(suite.specs[index])}: report differs across rounds")

    def settle(self, run: Run) -> None:
        """Count every execution as an operation, failed if its spec failed."""
        for index, attempts in enumerate(self.attempts):
            for _ in range(attempts):
                run.op(self.ok[index])


def _timed_rounds(ctx, suite: Suite, run: Run) -> _Ledger:
    ledger = _Ledger(len(suite.specs))
    start = run.elapsed()
    while len(ledger.rounds) < 2 or (
        run.elapsed() - start < ctx.seconds and not run.out_of_time()
    ):
        ledger.rounds.append(
            sum(ledger.execute(run, suite, index) or 0.0 for index in range(len(suite.specs)))
        )
    run.notes.append(f"rounds: {len(ledger.rounds)}")
    ledger.check_repeats(run, suite)
    return ledger


def _check_against_reference(ctx, suite: Suite, ledger: _Ledger, run: Run) -> None:
    """``suite-vec`` only: each report must equal the reference engine's."""
    if ENGINES[ctx.workload] == "reference":
        return
    from repro.runner import execute_spec

    for index, spec in enumerate(suite_specs(ctx.scenarios, ctx.seed, "reference")):
        try:
            reference = execute_spec(spec, workload=suite.workloads[index]).report
        except Exception as exc:  # noqa: BLE001
            ledger.fail(run, index, f"{_label(spec)} (reference): {type(exc).__name__}: {exc}")
            continue
        run.op(True)
        if ledger.digests[index] and report_digest(reference) != ledger.digests[index][0]:
            ledger.fail(run, index, f"{_label(spec)}: vectorized report != reference report")


def spec_medians(ledger: _Ledger) -> list[float]:
    return [median(times) if times else float("nan") for times in ledger.times]


def measure(ctx, suite: Suite, run: Run) -> None:
    ledger = _timed_rounds(ctx, suite, run)
    rss = peak_rss_mb()
    _check_against_reference(ctx, suite, ledger, run)
    ledger.settle(run)
    per_spec = spec_medians(ledger)
    # Every trace counts alike: one trace's work can be five times that
    # of another trace of the same scenario (bursty-spike), which would
    # swing a sum.
    trace_wall = ledger.probe.normalize(geomean(per_spec))
    run.metrics.update({
        "trace_wall_s": trace_wall,
        "peak_rss_mb": rss,
        "sustained_speed_x": SUITE_DURATION / trace_wall,
    })
    run.notes += probe_notes(sum(per_spec), ledger.probe)
    run.notes += verdict_notes(ledger.rounds)
    for scenario, seconds in suite.per_scenario(per_spec).items():
        run.notes.append(f"  {scenario:<20} {seconds:8.3f} s")


def trace(ctx, suite: Suite, run: Run) -> dict:
    """Untraced rounds for the per-scenario times, then one traced round."""
    import repro.runner as runner

    ledger = _timed_rounds(ctx, suite, run)
    _check_against_reference(ctx, suite, ledger, run)
    per_spec = spec_medians(ledger)

    traced_seconds = 0.0
    reports = []
    with Tracer().install(LAYERS) as tracer:
        for index, spec in enumerate(suite.specs):
            try:
                workload = runner.build_workload(spec)
                seconds, result = timed(
                    lambda: runner.execute_spec(spec, workload=workload)
                )
            except Exception as exc:  # noqa: BLE001
                ledger.fail(run, index, f"{_label(spec)} (traced): {type(exc).__name__}: {exc}")
                continue
            traced_seconds += seconds
            reports.append(result.report)
            same = report_digest(result.report) in ledger.digests[index][:1]
            run.op(same, f"{_label(spec)}: traced report differs from untraced")
        totals = tracer.totals()
        spans = tracer.spans()
    ledger.settle(run)

    metrics = layer_metrics(totals)
    metrics.update(report_metrics(reports))
    metrics.update(round_verdicts(ledger.rounds))
    metrics["wall_s"] = sum(per_spec)
    metrics["host.probe_s"] = ledger.probe.seconds()
    metrics["trace.overhead_ratio"] = traced_seconds / sum(per_spec)
    for scenario, seconds in suite.per_scenario(per_spec).items():
        metrics[f"suite.{scenario}.wall_s"] = seconds
    run.metrics.update(metrics)
    return {"spans": {"benchmark": spans}, "totals": totals}
