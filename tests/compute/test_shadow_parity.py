"""Differential tests: ``shadow_validate`` against a naive per-round oracle.

The oracle below is the readable specification of shadow validation: the
node's future stepped one iteration at a time on copies of the
``ShadowInstance`` dataclasses, with the min-headroom work selection and
the three Fig. 15 checks written out directly.  The production loop
flattens this state and resolves long decode-only settle tails in NumPy
array passes; every verdict must be identical on every input.
"""

from __future__ import annotations

import math
from dataclasses import replace
from functools import lru_cache
from typing import NamedTuple

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.compute import shadow
from repro.compute.shadow import ShadowInstance, ShadowRequest, ShadowVerdict
from repro.hardware import A100_80GB, XEON_GEN4_32C
from repro.models import LLAMA2_7B, LLAMA2_13B
from repro.perf import quantify
from repro.perf.laws import LatencyLaw

# ----------------------------------------------------------------------
# The specification
# ----------------------------------------------------------------------


def has_work(instance: ShadowInstance) -> bool:
    return bool(instance.prefill_queue or instance.batch)


def min_headroom(requests: list[ShadowRequest], now: float) -> float:
    return min(r.headroom(now) for r in requests) if requests else float("inf")


def avg_context(instance: ShadowInstance) -> float:
    if not instance.batch:
        return 0.0
    return sum(r.context_len for r in instance.batch) / len(instance.batch)


def decode_estimate(instance: ShadowInstance, overestimate: float) -> float:
    if not instance.batch:
        return 0.0
    return instance.perf.tpot_seconds(len(instance.batch), avg_context(instance)) * overestimate


def select(instances: list[ShadowInstance], now: float):
    """The real executor's min-headroom work selection."""
    best = None
    for instance in instances:
        if instance.ready_at > now or not has_work(instance):
            continue
        if instance.prefill_queue:
            urgency = instance.prefill_queue[0].headroom(now)
            if best is None or urgency < best[0]:
                best = (urgency, instance, True)
        if instance.batch:
            urgency = min_headroom(instance.batch, now)
            if best is None or urgency < best[0]:
                best = (urgency, instance, False)
    if best is None:
        return None
    return best[1], best[2]


class Outcome(NamedTuple):
    verdict: ShadowVerdict
    iterations: int  # iterations run, the deciding one included
    time: float  # virtual time when the verdict fell
    instances: list[ShadowInstance]  # the virtual state then


def oracle(
    instances: list[ShadowInstance],
    now: float,
    busy_until: float = 0.0,
    tpot_slo: float = 0.25,
    overestimate: float = shadow.DEFAULT_OVERESTIMATE,
    max_iterations: int = shadow.DEFAULT_MAX_ITERATIONS,
) -> Outcome:
    """Naive shadow validation."""
    instances = [
        replace(
            inst,
            prefill_queue=[replace(r) for r in inst.prefill_queue],
            batch=[replace(r) for r in inst.batch],
        )
        for inst in instances
    ]
    time = max(now, busy_until)
    new_prefilled = False
    has_new = any(r.is_new for inst in instances for r in inst.prefill_queue + inst.batch)

    def outcome(verdict: ShadowVerdict, iterations: int) -> Outcome:
        return Outcome(verdict, iterations, time, instances)

    for iteration in range(max_iterations):
        if not any(inst.prefill_queue for inst in instances):
            aggregate = 0
            for inst in instances:
                aggregate += decode_estimate(inst, overestimate)
            if aggregate > tpot_slo:
                return outcome(ShadowVerdict.AGGREGATE_DECODE, iteration)
            if all(inst.settle_rounds >= 2 or not inst.batch for inst in instances):
                return outcome(ShadowVerdict.PASS, iteration)
        chosen = select(instances, time)
        if chosen is None:
            future = [i.ready_at for i in instances if i.ready_at > time and has_work(i)]
            if not future:
                return outcome(ShadowVerdict.PASS, iteration)
            time = min(future)
            continue
        inst, prefill = chosen
        if prefill:
            request = inst.prefill_queue.pop(0)
            time += inst.perf.ttft_seconds(request.prefill_len) * overestimate
            if request.headroom(time) < 0 and not request.soft:
                verdict = (
                    ShadowVerdict.NEW_REQUEST_TTFT
                    if request.is_new
                    else ShadowVerdict.EXISTING_DELAYED
                )
                return outcome(verdict, iteration + 1)
            request.tokens_out += 1
            request.context_len += 1
            inst.batch.append(request)
            inst.settle_rounds = 0
            new_prefilled = new_prefilled or request.is_new
        else:
            time += decode_estimate(inst, overestimate)
            for request in inst.batch:
                if request.headroom(time) < 0 and not request.soft:
                    return outcome(ShadowVerdict.EXISTING_DELAYED, iteration + 1)
                request.tokens_out += 1
                request.context_len += 1
            inst.settle_rounds += 1
    if has_new and not new_prefilled:
        if any(r.is_new and not r.soft for i in instances for r in i.prefill_queue):
            return outcome(ShadowVerdict.NEW_REQUEST_TTFT, max_iterations)
    return outcome(ShadowVerdict.PASS, max_iterations)


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------


@lru_cache(maxsize=None)
def perf(kind: str):
    hardware = {"gpu": A100_80GB, "cpu": XEON_GEN4_32C}[kind[:3]]
    model = LLAMA2_13B if kind.endswith("13b") else LLAMA2_7B
    return quantify(LatencyLaw(hardware, model))


@st.composite
def requests(draw, deadlines, queued: bool):
    return ShadowRequest(
        deadline_base=draw(deadlines),
        tpot_slo=draw(st.sampled_from([0.1, 0.25, 0.25, 0.5])),
        tokens_out=draw(st.integers(0, 3) if queued else st.integers(0, 300)),
        context_len=draw(st.integers(1, 4096)),
        prefill_len=draw(st.integers(1, 4096)) if queued else 0,
        soft=draw(st.booleans()),
    )


@st.composite
def nodes(draw, unsettled: bool = False):
    """A node's shadows plus the call's scalar arguments.

    ``unsettled`` adds an instance whose deadline is beyond reach, so it
    is never stepped and the decode-only tail runs until an event or the
    cap: the array resolver's territory.
    """
    now = draw(st.floats(0.0, 1000.0))
    # Deadlines come from small pools so that equal deadlines, within
    # and across instances, exercise the first-seen tie rule.  Queued
    # prefills are due soon, so most runs reach the decode-only tail.
    pool = draw(st.lists(st.floats(-5.0, 600.0), min_size=1, max_size=5))
    deadlines = st.sampled_from([now + offset for offset in pool])
    soon = draw(st.lists(st.floats(-1.0, 20.0), min_size=1, max_size=3))
    due_soon = st.sampled_from([now + offset for offset in soon])
    kinds = st.sampled_from(["gpu", "gpu", "gpu-13b", "cpu"])
    instances = []
    for _ in range(draw(st.integers(1, 6))):
        loading = draw(st.booleans()) and draw(st.booleans())
        instances.append(
            ShadowInstance(
                perf=perf(draw(kinds)),
                ready_at=now + draw(st.floats(0.01, 5.0)) if loading else 0.0,
                prefill_queue=draw(st.lists(requests(due_soon, True), max_size=2)),
                batch=draw(st.lists(requests(deadlines, False), max_size=6)),
            )
        )
    if unsettled:
        far = ShadowInstance(perf=perf(draw(kinds)))
        far.batch = [replace(draw(requests(deadlines, False)), deadline_base=now + 1e4)]
        instances.insert(draw(st.integers(0, len(instances))), far)
    if draw(st.booleans()):
        target = draw(st.sampled_from(instances))
        new = replace(draw(requests(due_soon, True)), tokens_out=0, is_new=True)
        target.prefill_queue.append(new)
    busy_until = now + draw(st.floats(0.0, 2.0)) if draw(st.booleans()) else 0.0
    return dict(
        instances=instances,
        now=now,
        busy_until=busy_until,
        tpot_slo=draw(st.sampled_from([0.1, 0.25, 0.25, 0.5])),
        max_iterations=draw(
            st.one_of(st.just(shadow.DEFAULT_MAX_ITERATIONS), st.integers(1, 600))
        ),
    )


class _Counting:
    """Wraps the tail resolver, counting the rounds it resolves and
    keeping the state its last call left behind."""

    def __init__(self, monkeypatch) -> None:
        self.calls = 0
        self.rounds = 0
        self.last = None
        self._resolve = shadow._resolve_tail
        monkeypatch.setattr(shadow, "_resolve_tail", self)

    def __call__(self, flats, time, tpot_slo, overestimate, budget):
        result = self._resolve(flats, time, tpot_slo, overestimate, budget)
        self.calls += 1
        self.rounds += result[1]
        self.last = (flats, budget, result)
        return result

    def check_cap_state(self, expected: Outcome) -> bool:
        """If the last call ran the loop out at the cap, its time and
        token counts must equal the oracle's bit for bit; returns
        whether the comparison applied."""
        if self.last is None:
            return False
        flats, budget, (verdict, rounds, time) = self.last
        if verdict is not None or rounds != budget:
            return False
        assert time == expected.time
        for flat, inst in zip(flats, expected.instances):
            assert flat.tok == [r.tokens_out for r in inst.batch]
            assert flat.ctx_sum == sum(r.context_len for r in inst.batch)
        return True


@settings(deadline=None)
@given(case=st.one_of(nodes(), nodes(unsettled=True)))
def test_verdicts_match_the_oracle(case):
    expected = oracle(**case)
    with pytest.MonkeyPatch.context() as patch:
        resolver = _Counting(patch)
        assert shadow.shadow_validate(**case) is expected.verdict
        at_cap = resolver.check_cap_state(expected)
    event(f"tail resolver {'engaged' if resolver.calls else 'idle'}")
    if at_cap:
        event("tail resolver ran out the cap (state compared)")


# ----------------------------------------------------------------------
# The fast path engages, the cap edges, and the events mid-pass
# ----------------------------------------------------------------------


def gpu_request(deadline: float, tokens_out: int = 0, **fields) -> ShadowRequest:
    """A request whose next-token deadline is ``deadline``."""
    return ShadowRequest(
        deadline_base=deadline - 0.25 * tokens_out,
        tpot_slo=0.25,
        tokens_out=tokens_out,
        context_len=fields.pop("context_len", 500),
        **fields,
    )


def settle_tail_node() -> list[ShadowInstance]:
    """A new request on a GPU instance, then a decode-only tail that
    never settles: the second instance's deadline is far beyond reach,
    so it is never stepped and the run exhausts the iteration cap."""
    busy = ShadowInstance(perf=perf("gpu"))
    busy.batch = [gpu_request(2.25, 5, context_len=900), gpu_request(2.0, 2, context_len=400)]
    busy.prefill_queue = [gpu_request(2.0, context_len=700, prefill_len=700, is_new=True)]
    far = ShadowInstance(perf=perf("gpu"))
    far.batch = [gpu_request(500.0, context_len=300)]
    return [busy, far]


def test_settle_tail_runs_in_array_passes(monkeypatch):
    expected = oracle(settle_tail_node(), now=0.0)
    assert expected.verdict is ShadowVerdict.PASS
    assert expected.iterations == shadow.DEFAULT_MAX_ITERATIONS
    resolver = _Counting(monkeypatch)
    assert shadow.shadow_validate(settle_tail_node(), now=0.0) is expected.verdict
    # One prefill round, the warm-up, and nothing else on the scalar path.
    assert expected.iterations - resolver.rounds <= shadow._TAIL_WARMUP + 1
    assert resolver.calls == 1
    assert resolver.check_cap_state(expected)


def test_cap_inside_the_warm_up_never_engages_the_resolver(monkeypatch):
    resolver = _Counting(monkeypatch)
    cap = shadow._TAIL_WARMUP // 2
    expected = oracle(settle_tail_node(), now=0.0, max_iterations=cap)
    got = shadow.shadow_validate(settle_tail_node(), now=0.0, max_iterations=cap)
    assert got is expected.verdict
    assert resolver.calls == 0


def late_waker_node() -> list[ShadowInstance]:
    """A decode tail that ends when a loading instance wakes up already
    late: its first decode round misses the member's deadline (case 2)."""
    busy = ShadowInstance(perf=perf("gpu"))
    busy.batch = [gpu_request(1.75, 3, context_len=1200)]
    waker = ShadowInstance(perf=perf("gpu"), ready_at=2.5)
    waker.batch = [gpu_request(2.5, 8, context_len=64)]
    return [busy, waker]


def test_tail_event_exactly_at_the_cap(monkeypatch):
    rounds = oracle(late_waker_node(), now=0.0).iterations
    assert oracle(late_waker_node(), now=0.0).verdict is ShadowVerdict.EXISTING_DELAYED
    assert rounds > shadow._TAIL_WARMUP + 1  # the violation lies past the warm-up
    resolver = _Counting(monkeypatch)
    for cap in (rounds - 1, rounds, rounds + 1):
        expected = oracle(late_waker_node(), now=0.0, max_iterations=cap)
        got = shadow.shadow_validate(late_waker_node(), now=0.0, max_iterations=cap)
        assert got is expected.verdict
        # One round short of the violation, the cap admits the placement.
        assert got is (ShadowVerdict.PASS if cap < rounds else ShadowVerdict.EXISTING_DELAYED)
        if cap < rounds:
            assert resolver.check_cap_state(expected)
    assert resolver.calls >= 3


def test_aggregate_decode_crossing_the_budget_mid_tail(monkeypatch):
    # Contexts grow by one token per round, so the node's aggregate decode
    # time creeps up; a TPOT budget just above its start is crossed
    # somewhere inside the array passes.
    node = settle_tail_node()
    node[0].prefill_queue = []
    budget = sum(decode_estimate(inst, shadow.DEFAULT_OVERESTIMATE) for inst in node)
    budget += 0.00005  # about 90 rounds of context growth
    expected = oracle(node, now=0.0, tpot_slo=budget)
    assert expected.verdict is ShadowVerdict.AGGREGATE_DECODE
    assert expected.iterations > shadow._TAIL_WARMUP + 1
    resolver = _Counting(monkeypatch)
    assert shadow.shadow_validate(node, now=0.0, tpot_slo=budget) is expected.verdict
    assert resolver.calls == 1


def test_settling_mid_tail_passes_before_a_later_violation(monkeypatch):
    # The second instance is first stepped after about 60 rounds and
    # settles two rounds later: PASS, although a loading instance (already
    # settled, so it does not hold PASS back) would wake late at 4 s.
    busy = ShadowInstance(perf=perf("gpu"))
    busy.batch = [gpu_request(1.0, 4)]
    later = ShadowInstance(perf=perf("gpu"))
    later.batch = [gpu_request(16.0, 10)]
    waker = ShadowInstance(perf=perf("gpu"), ready_at=4.0, settle_rounds=2)
    waker.batch = [gpu_request(3.0, 8)]
    node = [busy, later, waker]
    expected = oracle(node, now=0.0)
    assert expected.verdict is ShadowVerdict.PASS
    assert shadow._TAIL_WARMUP + 1 < expected.iterations < shadow.DEFAULT_MAX_ITERATIONS
    resolver = _Counting(monkeypatch)
    assert shadow.shadow_validate(node, now=0.0) is expected.verdict
    assert resolver.calls == 1


def test_decode_falling_behind_inside_the_tail(monkeypatch):
    # A CPU decode round (about 76 ms) outlasts the request's 50 ms TPOT,
    # so each round eats into its headroom until a deadline falls inside
    # a round.
    slow = ShadowInstance(perf=perf("cpu"))
    slow.batch = [ShadowRequest(deadline_base=4.0, tpot_slo=0.05, tokens_out=0, context_len=300)]
    far = ShadowInstance(perf=perf("gpu"))
    far.batch = [gpu_request(500.0)]
    node = [slow, far]
    rounds = oracle(node, now=0.0).iterations
    assert oracle(node, now=0.0).verdict is ShadowVerdict.EXISTING_DELAYED
    assert rounds > shadow._TAIL_WARMUP + 1
    resolver = _Counting(monkeypatch)
    for cap in (rounds - 1, rounds, shadow.DEFAULT_MAX_ITERATIONS):
        expected = oracle(node, now=0.0, max_iterations=cap)
        assert shadow.shadow_validate(node, now=0.0, max_iterations=cap) is expected.verdict
    assert resolver.calls == 3


def test_near_tie_after_subtraction_follows_the_first_seen_rule(monkeypatch):
    # Two soft, long-overdue fronts one ulp apart: the later one comes
    # first in list order, and at time 1000 both urgencies round to the
    # same value, so the scalar rule steps it first although its raw
    # deadline is larger.  The stable merge alone would step the other.
    low = 100.0
    high = math.nextafter(low, math.inf)
    assert high - 1000.0 == low - 1000.0
    first = ShadowInstance(perf=perf("gpu"))
    first.batch = [
        ShadowRequest(deadline_base=high, tpot_slo=0.25, tokens_out=0, context_len=2000, soft=True)
    ]
    second = ShadowInstance(perf=perf("gpu-13b"))
    second.batch = [
        ShadowRequest(deadline_base=low, tpot_slo=0.25, tokens_out=0, context_len=100, soft=True)
    ]
    far = ShadowInstance(perf=perf("gpu"))
    far.batch = [gpu_request(5000.0)]
    node = [first, second, far]
    compared = 0
    for cap in range(shadow._TAIL_WARMUP + 1, shadow._TAIL_WARMUP + 9):
        expected = oracle(node, now=1000.0, max_iterations=cap)
        with pytest.MonkeyPatch.context() as patch:
            resolver = _Counting(patch)
            assert shadow.shadow_validate(node, now=1000.0, max_iterations=cap) is expected.verdict
            compared += resolver.check_cap_state(expected)
    # Every other round is a tie the scalar path takes; the others end
    # in array passes that run out the cap.
    assert compared >= 2
