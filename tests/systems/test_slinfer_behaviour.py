"""Behavioural tests for the SLINFER controller."""

import pytest

from repro.core import Slinfer, SlinferConfig
from repro.engine.request import RequestState
from repro.hardware import Cluster
from repro.models import CODELLAMA_34B, CODESTRAL_22B

from tests.systems.helpers import steady_stream, tiny_workload


def test_prefers_cpu_for_small_models():
    workload = tiny_workload(steady_stream(count=8))
    report = Slinfer(Cluster.build(2, 2)).run(workload)
    assert report.decode_tokens_cpu > 0
    assert report.decode_tokens_gpu == 0
    assert report.slo_met_count == 8


def test_disable_cpu_routes_to_gpu():
    workload = tiny_workload(steady_stream(count=8))
    config = SlinferConfig(enable_cpu=False)
    report = Slinfer(Cluster.build(2, 2), config=config).run(workload)
    assert report.decode_tokens_cpu == 0
    assert report.decode_tokens_gpu > 0


def test_long_inputs_fall_back_to_gpu():
    from repro.models import LLAMA31_8B

    workload = tiny_workload(
        [("m0", 1.0, 10000, 10)], models={"m0": LLAMA31_8B}
    )
    report = Slinfer(Cluster.build(2, 2)).run(workload)
    assert report.decode_tokens_gpu > 0
    assert report.decode_tokens_cpu == 0


def test_multiple_models_share_one_gpu():
    # Four different 7B models colocate on a single GPU node: weights
    # 4×13 GB + KV pools fit in 80 GB — impossible under exclusive sllm.
    arrivals = []
    for m in range(4):
        arrivals += steady_stream(f"m{m}", count=4, gap=6.0)
    workload = tiny_workload(arrivals)
    config = SlinferConfig(enable_cpu=False)
    report = Slinfer(Cluster.build(0, 1), config=config).run(workload)
    assert report.slo_met_count == 16
    assert report.dropped_count == 0


def test_sharing_disabled_limits_one_instance_per_node():
    arrivals = []
    for m in range(4):
        arrivals += [(f"m{m}", 1.0 + 0.1 * m, 512, 60)]
    workload = tiny_workload(arrivals)
    config = SlinferConfig(enable_cpu=False, enable_sharing=False)
    report = Slinfer(Cluster.build(0, 2), config=config).run(workload)
    # Only 2 nodes, one instance each → 2 requests served, 2 dropped.
    assert report.dropped_count == 2
    full = Slinfer(Cluster.build(0, 2), config=SlinferConfig(enable_cpu=False)).run(
        tiny_workload(arrivals)
    )
    assert full.dropped_count == 0


def test_exclusive_fallback_for_34b_tp2():
    workload = tiny_workload(
        [("big", 1.0, 1024, 20)],
        models={"big": CODELLAMA_34B},
        tp_degrees={"big": 2},
    )
    system = Slinfer(Cluster.build(0, 3))
    report = system.run(workload)
    assert report.slo_met_count == 1
    # Two GPUs were reserved for the TP-2 instance.
    assert report.node_seconds_gpu > 0
    assert report.avg_nodes_used_gpu == pytest.approx(
        2 * report.node_seconds_gpu / 2 / workload.duration, rel=0.01
    )


def test_22b_fp16_is_exclusive_but_int4_shares():
    from repro.models import Quantization

    system = Slinfer(Cluster.build(0, 2))
    fp16 = system.deployments  # unused; direct check below
    from repro.workloads.spec import Deployment

    assert system._is_exclusive_deployment(Deployment("d", CODESTRAL_22B))
    int4 = CODESTRAL_22B.quantized(Quantization.INT4)
    assert not system._is_exclusive_deployment(Deployment("d", int4))


def test_overload_drops_but_serves_what_it_validates():
    # Heavy burst for many models on one GPU: some requests are dropped at
    # their queue deadline, but admitted requests keep their SLOs.
    arrivals = []
    for m in range(12):
        arrivals += [(f"m{m}", 1.0, 2048, 200)] * 2
    workload = tiny_workload(arrivals, duration=240.0)
    config = SlinferConfig(enable_cpu=False)
    report = Slinfer(Cluster.build(0, 1), config=config).run(workload)
    assert report.dropped_count > 0
    completed = [r for r in report.requests if r.state is RequestState.COMPLETED]
    met = sum(1 for r in completed if r.slo_met)
    assert met / max(1, len(completed)) > 0.9


def test_estimator_learns_output_lengths():
    arrivals = steady_stream("m0", count=12, gap=8.0, output_len=300)
    workload = tiny_workload(arrivals, duration=200.0)
    system = Slinfer(Cluster.build(1, 1))
    system.run(workload)
    assert system.estimator.average("m0") > 150


def test_scaling_ops_recorded():
    # Enough concurrent long-context requests to push KV demand past the
    # L_min floor and trigger watermark scale-ups.
    arrivals = steady_stream(
        "m0", count=14, gap=1.0, input_len=2000, output_len=250
    )
    workload = tiny_workload(arrivals)
    system = Slinfer(Cluster.build(1, 1))
    report = system.run(workload)
    assert report.scaling_ops > 0
    assert report.scaling_time_fraction < 0.15


def test_deterministic_given_seed():
    arrivals = steady_stream("m0", count=10) + steady_stream("m1", count=10)
    workload = tiny_workload(arrivals)

    def run():
        return Slinfer(Cluster.build(1, 1), config=SlinferConfig(seed=3)).run(workload)

    a, b = run(), run()
    assert a.slo_met_count == b.slo_met_count
    assert [r.finished_at for r in a.requests] == [r.finished_at for r in b.requests]


def test_all_requests_reach_terminal_state():
    arrivals = []
    for m in range(6):
        arrivals += steady_stream(f"m{m}", count=6, gap=2.0, output_len=50)
    workload = tiny_workload(arrivals)
    report = Slinfer(Cluster.build(1, 1)).run(workload)
    for request in report.requests:
        assert request.state in (RequestState.COMPLETED, RequestState.DROPPED)


def test_no_oom_throughout_run():
    arrivals = []
    for m in range(8):
        arrivals += steady_stream(f"m{m}", count=5, gap=4.0, output_len=80)
    workload = tiny_workload(arrivals)
    system = Slinfer(Cluster.build(1, 1))
    system.run(workload)
    for orchestrator in system._orchestrators.values():
        orchestrator.assert_no_oom()


def test_retargeted_parked_scale_up_completes_end_to_end():
    # This azure trace retargets a scale-up parked in the reservation
    # station back to the instance's current KV allocation; draining the
    # station used to crash with "no resize in flight".  The conservation
    # audits (REPRO_AUDIT=1 in the suite) run at finalize.
    from repro.runner import RunSpec, execute_spec

    spec = RunSpec(
        system="slinfer",
        scenario="azure",
        n_models=64,
        cluster="cpu2-gpu2",
        seed=14,
        duration=240.0,
    )
    report = execute_spec(spec).report
    assert report.scaling_ops > 0
    assert report.completed_count > 0
