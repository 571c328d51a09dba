"""Self-tests of the benchmark's traced run.

Run from the root of a checkout::

    python -m pytest perfbench/tests -q

The attribution test slows ``shadow_validate`` by a fixed busy-wait,
added through the function the tracer wraps at its
``repro.policies.slinfer`` binding, and checks that the added time shows
in ``compute.shadow.self_s`` and in no other layer's self time, and that
every count and simulated statistic repeats exactly across traced runs.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from common import use_program  # noqa: E402
from layers import LAYERS, layer_metrics, report_metrics  # noqa: E402
from spans import Tracer  # noqa: E402

use_program()

#: busy-wait added to every shadow_validate call
BUSY_S = 0.002


def _busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def _specs():
    from repro.runner import RunSpec

    return [
        RunSpec(system="slinfer", scenario=scenario, n_models=8, cluster="cpu2-gpu2",
                seed=1, duration=120.0)
        for scenario in ("bursty-spike", "decode-marathon")
    ]


def _traced_run(slow: bool) -> tuple[dict, dict]:
    import repro.policies.slinfer as slinfer
    from repro.runner import build_workload, execute_spec

    original = slinfer.shadow_validate

    def slowed(*args, **kwargs):
        _busy(BUSY_S)
        return original(*args, **kwargs)

    if slow:
        slinfer.shadow_validate = slowed
    try:
        with Tracer().install(LAYERS) as tracer:
            reports = [
                execute_spec(spec, workload=build_workload(spec)).report for spec in _specs()
            ]
            totals = tracer.totals()
    finally:
        slinfer.shadow_validate = original
    return layer_metrics(totals), report_metrics(reports)


def _self_times(metrics: dict) -> dict:
    return {name: value for name, value in metrics.items() if name.endswith("self_s")}


def _counts(metrics: dict) -> dict:
    return {name: value for name, value in metrics.items() if not name.endswith("_s")}


@pytest.fixture(scope="module")
def runs():
    # two runs per side; the per-layer minimum damps host noise
    return {slow: [_traced_run(slow) for _ in range(2)] for slow in (False, True)}


def test_busy_wait_lands_in_shadow_self_time(runs):
    calls = runs[True][0][0]["compute.shadow.calls"]
    assert calls > 100, "the specs must exercise shadow validation"
    added = calls * BUSY_S

    def best(slow: bool) -> dict:
        metrics = [_self_times(layer) for layer, _ in runs[slow]]
        return {name: min(m[name] for m in metrics) for name in metrics[0]}

    base, slowed = best(False), best(True)
    moved = slowed["compute.shadow.self_s"] - base["compute.shadow.self_s"]
    assert 0.8 * added <= moved <= 1.5 * added, (moved, added)
    for name in base:
        if name != "compute.shadow.self_s":
            assert slowed[name] - base[name] < 0.2 * added, (name, base[name], slowed[name])


def test_counts_and_simulated_statistics_repeat_exactly(runs):
    (first, first_stats), (second, second_stats) = runs[False]
    assert _counts(first) == _counts(second)
    assert first_stats == second_stats
    # the busy-wait changes timing only, never the simulation
    slowed, slowed_stats = runs[True][0]
    assert _counts(slowed) == _counts(first)
    assert slowed_stats == first_stats


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    child = tracer.timed("child", lambda: _busy(0.05))

    def parent_body():
        _busy(0.01)
        child()

    parent = tracer.timed("parent", parent_body)
    parent()
    stats = tracer.totals()["stats"]
    assert stats["parent"]["total_s"] >= 0.06
    assert 0.01 <= stats["parent"]["self_s"] < 0.04  # the child's 0.05 s is not in it
    assert stats["child"]["self_s"] == stats["child"]["total_s"] >= 0.05
    spans = {span["name"]: span for span in tracer.spans()}
    assert spans["child"]["parent"] == spans["parent"]["id"]
