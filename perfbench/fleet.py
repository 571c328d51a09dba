"""``fleet``: a dynamically routed federated fleet.

``global-storm`` over four ``cpu0-gpu1`` shards with the least-loaded
router (``balanced4``): the router needs in-flight counts, so the run
walks the conservative epoch ladder — 3,601 barriers — and each shard's
engine is driven through thousands of short ``advance(until)`` windows.
The fleet is handed to the program only as a spec; the seed travels
inside it.

The timed rounds run the fleet in this process (workers=1).  With two
worker processes every barrier is a pipe round trip between three
processes on a 2-core host, and their wall time moved by 0.28-0.36 of
its median between runs of the same code; in one process the same
ladder is as steady as the suites.  The workers=2 run is still made in
every invocation: its report must equal the workers=1 report, its time
is printed, and the traced run measures its barrier waits and the
parallel speedup.
"""

from __future__ import annotations

from dataclasses import dataclass

from common import (
    HostProbe, Run, conserved, median, peak_rss_mb, probe_notes, report_digest, round_verdicts,
    timed, verdict_notes,
)
from layers import LAYERS, layer_metrics, report_metrics
from spans import Tracer

#: simulated window (seconds); 3,601 barrier epochs at the 0.05 s epoch
FLEET_DURATION = 180.0
PARALLEL_WORKERS = 2
#: host-speed probes before every timed round (about 4% of a round)
PROBES_PER_ROUND = 4


def fleet_spec(seed: int):
    from repro.runner import RunSpec

    return RunSpec(
        system="slinfer",
        scenario="global-storm",
        model="llama-2-7b",
        n_models=16,
        cluster="cpu0-gpu1",
        seed=seed,
        duration=FLEET_DURATION,
        scenario_params={"load_factor": 7.0},
        metrics="streaming",
        engine="vectorized",
        federation="balanced4",
    )


@dataclass
class Fleet:
    spec: object
    submitted: int


def prepare(ctx) -> Fleet:
    import repro.runner as runner
    from repro.federation.runner import run_federation  # noqa: F401 - part of set-up
    from repro.federation.spec import resolve_federation

    spec = fleet_spec(ctx.seed)
    resolve_federation(spec.federation)
    # The program synthesizes the trace itself from the spec; the
    # benchmark's copy only fixes how many requests must be conserved.
    return Fleet(spec, runner.build_workload(spec).total_requests)


class _Fleet:
    """Fleet executions at a worker count, with their checks."""

    def __init__(self, run: Run, fleet: Fleet) -> None:
        self.run = run
        self.fleet = fleet
        self.walls: list[float] = []
        self.digests: list[str] = []
        self.outcome = None
        self.probe = HostProbe()

    def execute(self, workers: int, record: bool = True):
        from repro.federation.runner import run_federation

        try:
            seconds, outcome = timed(lambda: run_federation(self.fleet.spec, workers=workers))
        except Exception as exc:  # noqa: BLE001 - a failed operation, reported
            self.run.op(False, f"fleet workers={workers}: {type(exc).__name__}: {exc}")
            return None, None
        ok = conserved(outcome.report, self.fleet.submitted)
        if record:
            self.walls.append(seconds)
            self.digests.append(report_digest(outcome.report))
            self.outcome = outcome
        self.run.op(ok, f"fleet workers={workers}: requests not conserved")
        return seconds, outcome

    def rounds(self, seconds: float) -> None:
        start = self.run.elapsed()
        while len(self.walls) < 2 or (
            self.run.elapsed() - start < seconds and not self.run.out_of_time()
        ):
            self.probe.sample(PROBES_PER_ROUND)
            if self.execute(1)[1] is None:
                break
        self.run.notes.append(f"rounds: {len(self.walls)}")
        if len(set(self.digests)) > 1:
            self.run.fail_op("fleet: report differs across rounds")

    def check_parallel(self):
        """workers=2 must give the same report; returns its wall time."""
        seconds, outcome = self.execute(PARALLEL_WORKERS, record=False)
        if outcome is not None and self.digests and report_digest(outcome.report) != self.digests[0]:
            self.run.fail_op("fleet: workers=2 report differs from workers=1")
        return seconds


def measure(ctx, fleet: Fleet, run: Run) -> None:
    runner = _Fleet(run, fleet)
    runner.rounds(ctx.seconds)
    parallel_wall = runner.check_parallel()
    wall = median(runner.walls)
    trace_wall = runner.probe.normalize(wall)
    run.metrics.update({
        "trace_wall_s": trace_wall,
        "peak_rss_mb": max(peak_rss_mb(), peak_rss_mb(children=True)),
        "sustained_speed_x": runner.outcome.report.duration / trace_wall,
    })
    run.notes += probe_notes(wall, runner.probe)
    run.notes += verdict_notes(runner.walls)
    run.notes.append(
        f"epochs: {runner.outcome.epochs}; workers=2 wall {parallel_wall or 0.0:.3f} s"
    )


def trace(ctx, fleet: Fleet, run: Run) -> dict:
    """Timed in-process rounds and an untraced workers=2 run, then traced runs.

    The traced workers=2 run gives the parent's barrier waits (shards
    run in forked workers whose spans stay there); the traced workers=1
    run keeps every shard in this process, so it gives the shard-side
    layers.
    """
    runner = _Fleet(run, fleet)
    runner.rounds(ctx.seconds)
    parallel_wall = runner.check_parallel()
    single_wall = median(runner.walls)

    with Tracer().install(LAYERS) as parent_tracer:
        _, parallel = runner.execute(PARALLEL_WORKERS, record=False)
        parent = parent_tracer.totals()
        parent_spans = parent_tracer.spans()
    with Tracer().install(LAYERS) as shard_tracer:
        traced_wall, outcome = runner.execute(1, record=False)
        shards = shard_tracer.totals()
        shard_spans = shard_tracer.spans()
    for traced in (parallel, outcome):
        if traced is not None and report_digest(traced.report) != runner.digests[0]:
            run.fail_op("fleet: traced report differs from untraced")

    metrics = layer_metrics(shards)
    metrics["federation.barrier_wait_s"] = layer_metrics(parent)["federation.barrier_wait_s"]
    metrics.update(report_metrics([outcome.report] if outcome is not None else []))
    metrics.update(round_verdicts(runner.walls))
    metrics["federation.epochs"] = runner.outcome.epochs
    metrics["federation.parallel_speedup"] = single_wall / (parallel_wall or float("inf"))
    metrics["wall_s"] = single_wall
    metrics["host.probe_s"] = runner.probe.seconds()
    metrics["trace.overhead_ratio"] = (traced_wall or 0.0) / single_wall
    run.metrics.update(metrics)
    return {
        "spans": {"workers=2 controller": parent_spans, "workers=1 in-process": shard_spans},
        "totals": {"workers=2": parent, "workers=1": shards},
    }
