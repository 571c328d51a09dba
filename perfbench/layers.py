"""Which public functions the traced run wraps, and the per-layer metrics.

Each :class:`Layer` names one span (or counter) and the functions that
feed it.  Functions imported by name into another module are wrapped at
the binding the program actually calls (``shadow_validate`` at its
``repro.policies.slinfer`` binding, ``select_next_work`` at
``repro.policies.base``), so the wrapper sees every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

_SHADOW_TAGS = {
    "pass": "pass",
    "case3-aggregate-decode": "aggregate_decode",
    "case1-new-request-ttft": "new_request_ttft",
    "case2-existing-delayed": "existing_delayed",
}


@dataclass(frozen=True)
class Layer:
    name: str
    targets: tuple[str, ...]
    count_only: bool = False
    rid_of: Optional[Callable[[Any], Any]] = None
    tag_of: Optional[Callable[[Any], str]] = None


LAYERS: tuple[Layer, ...] = (
    Layer("sim.schedule_at", ("repro.sim.simulator:Simulator.schedule_at",), count_only=True),
    Layer("sim.run_loop", (
        "repro.sim.engine:ReferenceEngine.run_loop",
        "repro.sim.engine:VectorizedEngine.run_loop",
    )),
    Layer("core.run", (
        "repro.core.system:ServingSystem.run",
        "repro.core.system:ServingSystem.begin_run",
        "repro.core.system:ServingSystem.finish_run",
    )),
    Layer("core.try_place", ("repro.core.system:ServingSystem.try_place",)),
    Layer("core.dispatch", ("repro.core.system:ServingSystem.dispatch",)),
    Layer("policies.slinfer_place", ("repro.policies.slinfer:SlinferPlacement.try_place",)),
    Layer("policies.bus.publish", ("repro.policies.events:EventBus.publish",), count_only=True),
    Layer("compute.shadow", ("repro.policies.slinfer:shadow_validate",),
          tag_of=lambda verdict: "verdict." + _SHADOW_TAGS[verdict.value]),
    Layer("compute.select", ("repro.policies.base:select_next_work",)),
    Layer("perf.prefill", ("repro.perf.database:PerfDatabase.execute_prefill",)),
    Layer("perf.decode", ("repro.perf.database:PerfDatabase.execute_decode",)),
    Layer("memory.admit", ("repro.memory.orchestrator:MemoryOrchestrator.admit_instance",)),
    Layer("memory.scale", ("repro.memory.orchestrator:MemoryOrchestrator.request_scale",)),
    Layer("memory.unload", ("repro.memory.orchestrator:MemoryOrchestrator.unload_instance",)),
    Layer("consolidation.preempt", ("repro.policies.slinfer:plan_preemption",)),
    Layer("kv.admit", ("repro.kv.store:KvShareStore.admit",)),
    Layer("kv.commit", ("repro.kv.store:KvShareStore.commit",)),
    Layer("kv.release", ("repro.kv.store:KvShareStore.release",)),
    Layer("kv.walk", ("repro.kv.prefix:PrefixIndex.walk",)),
    Layer("hardware.transfer", ("repro.hardware.topology:BandwidthTracker.start",)),
    Layer("metrics.finalize", ("repro.metrics.collector:MetricsCollector.finalize",)),
    Layer("workloads.synth", (
        "repro.runner:build_workload",
        "repro.runner.spec:build_workload",
        "repro.runner.spec:build_workload_stream",
        "repro.runner.executor:build_workload",
        "repro.runner.executor:build_workload_stream",
        "repro.federation.runner:build_workload",
        "repro.federation.runner:build_workload_stream",
    )),
    Layer("runner.build_system", (
        "repro.runner:build_system",
        "repro.runner.executor:build_system",
        "repro.federation.runner:build_system",
    )),
    Layer("federation.barrier", (
        "repro.federation.runner:PipeHost.advance",
        "repro.federation.runner:PipeHost.recv_reply",
    )),
    # the only router with a per-request ``route``; static ones assign
    # whole deployments up front
    Layer("federation.route", ("repro.federation.router:LeastLoadedRouter.route",)),
    Layer("gateway.bridge", ("repro.gateway.bridge:SimBridge.submit",),
          rid_of=lambda verdict: verdict.index),
    Layer("stream.push", ("repro.workloads.stream:QueueStream.push",), count_only=True),
)


def _stat(totals: dict, name: str, field: str) -> float:
    return totals["stats"].get(name, {}).get(field, 0)


def _count(totals: dict, name: str) -> int:
    return totals["counts"].get(name, 0)


def layer_metrics(totals: dict) -> dict[str, float]:
    """Per-layer metric values from a tracer's merged totals."""
    calls = lambda name: _stat(totals, name, "calls")  # noqa: E731
    own = lambda *names: sum(_stat(totals, n, "self_s") for n in names)  # noqa: E731
    inclusive = lambda name: _stat(totals, name, "total_s")  # noqa: E731
    metrics: dict[str, float] = {
        "sim.heap_pushes": _count(totals, "sim.schedule_at"),
        "sim.run_loop.self_s": own("sim.run_loop"),
        "core.try_place.calls": calls("core.try_place"),
        "core.try_place.self_s": own("core.try_place"),
        "core.dispatch.calls": calls("core.dispatch"),
        "core.run.self_s": own("core.run"),
        "policies.slinfer_place.self_s": own("policies.slinfer_place"),
        "policies.bus.publishes": _count(totals, "policies.bus.publish"),
        "compute.shadow.calls": calls("compute.shadow"),
        "compute.shadow.self_s": own("compute.shadow"),
        "compute.select.calls": calls("compute.select"),
        "compute.select.self_s": own("compute.select"),
        "perf.prefill.calls": calls("perf.prefill"),
        "perf.decode.calls": calls("perf.decode"),
        "perf.self_s": own("perf.prefill", "perf.decode"),
        "memory.admit.calls": calls("memory.admit"),
        "memory.scale.calls": calls("memory.scale"),
        "memory.self_s": own("memory.admit", "memory.scale", "memory.unload"),
        "consolidation.preempt.calls": calls("consolidation.preempt"),
        "consolidation.preempt.self_s": own("consolidation.preempt"),
        "kv.admit.calls": calls("kv.admit"),
        "kv.walk.calls": calls("kv.walk"),
        "kv.self_s": own("kv.admit", "kv.commit", "kv.release", "kv.walk"),
        "hardware.transfers": calls("hardware.transfer"),
        "hardware.self_s": own("hardware.transfer"),
        "metrics.finalize_s": inclusive("metrics.finalize"),
        # self time: build_workload_stream may call build_workload, and
        # inclusive time would count that nested span twice
        "workloads.synth_s": own("workloads.synth"),
        "runner.build_system_s": own("runner.build_system"),
        "federation.barrier_wait_s": inclusive("federation.barrier"),
        "federation.route_s": inclusive("federation.route"),
        "gateway.bridge_wait_s": inclusive("gateway.bridge"),
        "stream.push.calls": _count(totals, "stream.push"),
        # measured by the one workload that has the layer; 0 elsewhere
        "federation.epochs": 0,
        "federation.parallel_speedup": 0.0,
        "gateway.http_s": 0.0,
        "loadgen.late_ms.p99": 0.0,
        "loadgen.sent": 0,
    }
    for verdict in _SHADOW_TAGS.values():
        metrics[f"compute.shadow.verdict.{verdict}"] = _count(
            totals, f"compute.shadow.verdict.{verdict}"
        )
    return metrics


def report_metrics(reports) -> dict[str, float]:
    """Simulated statistics of the traced run, summed over its reports."""
    lookup = sum(report.prefix_lookup_tokens for report in reports)
    hits = sum(report.prefix_hit_tokens for report in reports)
    return {
        "sim.events": sum(report.events_processed for report in reports),
        "metrics.completed": sum(report.completed_count for report in reports),
        "metrics.dropped": sum(report.dropped_count for report in reports),
        "metrics.slo_met": sum(report.slo_met_count for report in reports),
        "kv.prefix_hit_rate": hits / lookup if lookup else 0.0,
    }
