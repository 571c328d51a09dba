"""Shadow validation (§VI-C, Fig. 15).

Before adding a request to a target instance, SLINFER virtually simulates
the node's future compute procedure — the same min-headroom token-level
policy the real executor uses, with every iteration overestimated by 10 % —
and rejects the placement if any of the three cases occurs:

1. the new request's prefill finishes too late (its own TTFT violated);
2. an existing request is delayed past its headroom (TPOT violated);
3. after admission, the aggregate time of one decode iteration across all
   instances on the node exceeds the TPOT SLO (the node cannot sustain the
   steady-state decode load).

The virtual requests decode "forever" within the horizon (their true output
lengths are unknown), which makes the check conservative — but only within
the horizon.  The horizon is ``max_iterations`` virtual iterations, and a
simulation that reaches it without a violation returns ``PASS``: leaving at
the iteration cap admits the placement, however far the node's future was
from settling.  Replacing the cap with a simulated-time horizon that is
actually conservative is ROADMAP item 2(b).

**Settle tail.**  Once every prefill is absorbed, the loop only steps
decode rounds — the most urgent instance's batch, one token each — until
every instance has settled (run ``_SETTLE_ROUNDS`` rounds since its last
prefill joined), a violation occurs, or the cap is reached.  After
``_TAIL_WARMUP`` scalar tail rounds (most tails settle within a few, where
array set-up costs more than it saves) the remaining rounds are resolved
in NumPy array passes (``_resolve_tail``), with the scalar loop's verdict
on every input.  Every float the passes compare comes from the same
IEEE-754 operations, in the same order, as the scalar loop:

* per-instance step tables for the k-th further round — ``D[k]``, the
  minimum over members of ``b + s*(t+k)`` (``t`` an integer); ``H[k]``,
  the same minimum over non-soft members only (``H[k] < time`` is the
  scalar per-member ``b + s*t - time < 0``); ``E[k]``, the decode estimate
  ``tpot(B, (ctx_sum + k*B)/B) * overestimate`` with the
  ``Interp2D.__call__`` expressions replicated elementwise and
  ``max(0.0, r)`` written as ``where(r > 0.0, r, 0.0)``;
* the step order is a stable merge of the ``D`` tables by (deadline, list
  position), verified round by round against ``argmin(D_front - t_r)`` —
  the scalar strict ``<``, first-seen rule (the merge picks the least
  front, so they disagree only where two fronts tie after the
  subtraction).  The first round that fails the check, or that would
  wake a loading instance, runs on the scalar path; the verified rounds
  before it are kept;
* the time path is ``np.cumsum``, which accumulates sequentially and so is
  bit-identical to ``time += duration``;
* events are taken in the scalar order within a round: the aggregate
  decode time (summed instance by instance in list order, from ``0``)
  exceeding the TPOT SLO (case 3), then every instance settled
  (``PASS``), then a non-soft deadline behind the time after the round
  (case 2), then the cap.

The tables are built in chunks: the first sized to the busiest instance's
expected share of the remaining rounds, each further one twice as long.
The time path is explicit, so a simulated-time horizon (item 2(b)) can
stop a pass with a ``searchsorted`` on it instead of the cap.  The passes
need non-negative TPOT SLOs and overestimate (fronts and time that never
decrease); other inputs stay on the scalar loop.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from repro.perf.profiler import QuantifiedPerf

DEFAULT_OVERESTIMATE = 1.10
DEFAULT_MAX_ITERATIONS = 400
# Decode rounds every instance must sustain after all prefills are absorbed.
_SETTLE_ROUNDS = 2
# Scalar settle-tail rounds before the array resolver takes over (32
# measured best against 16 and 64).
_TAIL_WARMUP = 32


class ShadowVerdict(Enum):
    PASS = "pass"
    NEW_REQUEST_TTFT = "case1-new-request-ttft"
    EXISTING_DELAYED = "case2-existing-delayed"
    AGGREGATE_DECODE = "case3-aggregate-decode"


@dataclass(slots=True)
class ShadowRequest:
    """Virtual request state inside the shadow simulation."""

    deadline_base: float  # arrival + TTFT_SLO + grace
    tpot_slo: float
    tokens_out: int
    context_len: int
    prefill_len: int = 0  # >0 while awaiting (re-)prefill
    is_new: bool = False
    # Mid-stream requests being migrated (evictions, preempted requests,
    # PD hand-offs) are placed best-effort: their own lateness does not
    # veto a placement — only harm to other requests does.
    soft: bool = False

    def headroom(self, now: float) -> float:
        return self.deadline_base + self.tpot_slo * self.tokens_out - now


@dataclass(slots=True)
class ShadowInstance:
    """Virtual instance state: pending prefills plus the decode batch."""

    perf: QuantifiedPerf
    ready_at: float = 0.0  # cold-start completion for LOADING instances
    prefill_queue: list[ShadowRequest] = field(default_factory=list)
    batch: list[ShadowRequest] = field(default_factory=list)
    settle_rounds: int = 0


class _FlatInstance:
    """One instance's shadow state, flattened for the validation loop.

    The readable specification is a naive per-round loop over
    ``ShadowRequest.headroom`` (the differential oracle in
    ``tests/compute/test_shadow_parity.py``); this mirror keeps the batch
    as parallel scalar lists so the hot loop touches no dataclass
    attributes, and caches the two quantities the loop re-derives
    constantly — the batch's minimum deadline (only the stepped
    instance's changes per round) and its decode estimate.  All cached
    values are produced by the *same float expressions* as the
    specification, so every comparison the loop makes is bit-identical
    to the naive evaluation.
    """

    __slots__ = (
        "perf", "ready_at", "queue", "head",
        "base", "slo", "tok", "soft",
        "B", "ctx_sum", "min_deadline", "estimate", "settle",
    )

    def __init__(self, inst: ShadowInstance) -> None:
        self.perf = inst.perf
        self.ready_at = inst.ready_at
        # Pending prefills as an index cursor (no list pops).
        self.queue = list(inst.prefill_queue)
        self.head = 0
        self.base = [r.deadline_base for r in inst.batch]
        self.slo = [r.tpot_slo for r in inst.batch]
        self.tok = [r.tokens_out for r in inst.batch]
        self.soft = [r.soft for r in inst.batch]
        self.B = len(inst.batch)
        self.ctx_sum = sum(r.context_len for r in inst.batch)
        self.settle = inst.settle_rounds
        self._refresh_deadline()
        # None marks the cached decode estimate dirty; an empty batch's
        # estimate is 0.0 forever (shadow batches never shrink).
        self.estimate = 0.0 if not self.B else None

    def _refresh_deadline(self) -> None:
        # min over members of (deadline_base + tpot_slo * tokens_out):
        # the member expressions of ShadowRequest.headroom.  Headroom
        # comparisons then use (min_deadline - now), which equals
        # min(headroom) because x -> x - now is monotone under rounding.
        if self.B:
            self.min_deadline = min(
                base + slo * t for base, slo, t in zip(self.base, self.slo, self.tok)
            )
        else:
            self.min_deadline = float("inf")

    def decode_estimate(self, overestimate: float) -> float:
        if not self.B:
            return 0.0
        if self.estimate is None:
            self.estimate = (
                self.perf.tpot_seconds(self.B, self.ctx_sum / self.B) * overestimate
            )
        return self.estimate


class _TailTables:
    """The active instances' step tables, batched across instances.

    Row i describes ``active[i]``; column k its state after k further
    decode rounds (see the module docstring).  Members sit in an
    (instance × member) grid padded with ``inf`` deadlines, so the
    per-instance minimum is one reduction over the member axis.  Integer
    quantities are held as floats: integers below 2**53 convert exactly,
    as the scalar expressions convert them.
    """

    def __init__(self, active: list[_FlatInstance]) -> None:
        width = max(flat.B for flat in active)
        members = []
        for flat in active:
            pad = [0.0] * (width - flat.B)
            hard = [not soft for soft in flat.soft]
            members.append(
                [flat.base + [np.inf] * len(pad), flat.slo + pad, flat.tok + pad, hard + pad]
            )
        self.base, self.slo, self.tok, hard_mask = np.array(members).transpose(1, 0, 2)
        self.hard = hard_mask.astype(bool)
        # Interp2D per row: its y grid and the two value rows of the x
        # segment the (fixed) batch size falls in, padded to one width
        # (the padding is never indexed).  Searching the interior edges
        # yields the clamped segment index bisect_right(ys, y) - 1.
        grids = [flat.perf._tpot for flat in active]
        self.width = max(len(grid.ys) for grid in grids)
        self.inner = [np.asarray(grid.ys[1:-1]) for grid in grids]
        columns = []
        samples: list[list[float]] = [[], [], []]
        for flat, grid in zip(active, grids):
            x = float(flat.B)
            xs = grid.xs
            idx = max(0, min(bisect_right(xs, x) - 1, len(xs) - 2))
            x0, x1 = xs[idx], xs[idx + 1]
            columns.append((flat.B, flat.ctx_sum, (x - x0) / (x1 - x0)))
            pad = [0.0] * (self.width - len(grid.ys))
            for sample, row in zip(samples, (grid.ys, grid.values[idx], grid.values[idx + 1])):
                sample += row + pad
        self.B, self.ctx, self.t = np.array(columns).T[:, :, None]
        self.edges, self.row0, self.row1 = np.array(samples)
        self.offset = np.arange(len(active))[:, None] * self.width

    def build(
        self, length: int, overestimate: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flattened ``D``, ``H`` and ``E`` (n × length, row-major)."""
        ks = np.arange(length, dtype=float)
        deadlines = self.base[:, :, None] + self.slo[:, :, None] * (self.tok[:, :, None] + ks)
        D = deadlines.min(axis=1)
        H = np.where(self.hard[:, :, None], deadlines, np.inf).min(axis=1)
        # QuantifiedPerf.tpot_seconds(B, avg) = max(0.0, Interp2D(B, avg)),
        # with avg = ctx_sum / B after k rounds.
        avg = (self.ctx + ks * self.B) / self.B
        at = np.empty(avg.shape, dtype=np.intp)
        for i, inner in enumerate(self.inner):
            at[i] = np.searchsorted(inner, avg[i], side="right")
        at += self.offset
        nxt = at + 1
        y0 = self.edges[at]
        u = (avg - y0) / (self.edges[nxt] - y0)
        w0 = self.row0[at]
        v0 = w0 + u * (self.row0[nxt] - w0)
        w1 = self.row1[at]
        v1 = w1 + u * (self.row1[nxt] - w1)
        r = v0 + self.t * (v1 - v0)
        E = np.where(r > 0.0, r, 0.0) * overestimate
        return D.ravel(), H.ravel(), E.ravel()

    def advance(self, steps: np.ndarray) -> None:
        """Apply ``steps[i]`` decode rounds to row i."""
        self.tok += steps[:, None]
        self.ctx += steps[:, None] * self.B


def _first(hits: np.ndarray) -> int:
    """Index of the first True in ``hits``, or ``len(hits)`` if none."""
    index = int(hits.argmax())
    return index if hits[index] else len(hits)


def _first_chunk(active: list[_FlatInstance], budget: int) -> int:
    """Table length for the first pass: the busiest row's expected share.

    A round raises the stepped row's front by about its least TPOT SLO,
    and the min-headroom rule steps the lowest front, so the fronts fill
    up like water: row i takes about ``(level - D_i[0]) / slo_i`` of the
    ``budget`` rounds.  A short estimate costs another (doubled) pass,
    never a different verdict.
    """
    fronts = sorted((flat.min_deadline, min(flat.slo)) for flat in active)
    if any(slo <= 0.0 for _, slo in fronts):
        return budget + 1
    weight = 0.0
    mass = 0.0
    for j, (front, slo) in enumerate(fronts):
        weight += 1.0 / slo
        mass += front / slo
        level = (budget + mass) / weight
        if j + 1 == len(fronts) or level <= fronts[j + 1][0]:
            break
    share = max((level - front) / slo for front, slo in fronts[: j + 1])
    return min(budget, int(share) + 2) + 1


def _resolve_tail(
    flats: list[_FlatInstance],
    time: float,
    tpot_slo: float,
    overestimate: float,
    budget: int,
) -> tuple[Optional[ShadowVerdict], int, float]:
    """Resolve up to ``budget`` settle-tail rounds in array passes.

    Needs non-negative TPOT SLOs and overestimate, which make every ``D``
    row and the time path non-decreasing: the stably sorted table entries
    are then a valid step order (round r steps the owner of the r-th
    entry), and a ready instance stays ready.  Returns ``(verdict,
    rounds, time)``; ``verdict`` is None when the ``rounds`` resolved hold
    no event (their effects are applied to ``flats``): either the budget
    is spent, or the next round is one the tables cannot vouch for, which
    the caller runs on the scalar path.
    """
    active = [flat for flat in flats if flat.B and flat.ready_at <= time]
    if not active:
        return None, 0, time
    # The ready set is frozen over the pass: stop before the first round
    # whose start would wake a loading instance.
    idle = [flat for flat in flats if flat.B and flat.ready_at > time]
    wake = min((flat.ready_at for flat in idle), default=np.inf)
    # An idle instance cannot step, so an unsettled one blocks PASS.
    can_settle = all(flat.settle >= _SETTLE_ROUNDS for flat in idle)
    need = np.array([_SETTLE_ROUNDS - flat.settle for flat in active])
    # Decode estimates of the instances that do not step, in list order
    # (None marks an active instance's slot).
    fixed = [None if flat in active else flat.decode_estimate(overestimate) for flat in flats]
    tables = _TailTables(active)
    n = len(active)
    rows = np.arange(n)[:, None]
    taken = np.zeros(n, dtype=np.int64)
    rounds = 0
    length = _first_chunk(active, budget)
    while True:
        D, H, E = tables.build(length, overestimate)
        # Proposed step order: the stable merge by (deadline, position).
        order = np.argsort(D, kind="stable")[: budget - rounds]
        owner = order // length
        stepped = owner == rows
        done = np.cumsum(stepped, axis=1)
        # k of every row at the start of each round (row × round); only
        # rounds whose every k lies inside the tables can be checked.
        before = done - stepped
        span = _first((before == length).any(axis=0))
        picked = order[:span]
        owner = owner[:span]
        before = before[:, :span]
        fronts = rows * length + before
        path = np.cumsum(np.concatenate(([time], E[picked])))
        start = path[:-1]
        # 1. Case 3: the node's decode time, summed in list order from 0.
        aggregate = np.zeros(span)
        estimates = iter(E[fronts])
        for est in fixed:
            aggregate = aggregate + (next(estimates) if est is None else est)
        # 2. Every instance settled.
        settled = span
        if can_settle:
            settled = _first((before >= (need - taken)[:, None]).all(axis=0))
        # 3. The merge must pick the scalar rule's row: the first of least
        # D - start, among the rows ready at the round's start.
        mismatch = np.argmin(D[fronts] - start, axis=0) != owner
        if idle:
            mismatch |= start >= wake
        # 4. Case 2 for the stepped row, at the round's end.
        events = (
            _first(aggregate > tpot_slo),
            settled,
            _first(mismatch),
            _first(H[picked] < path[1:]),
        )
        stop = min(events)
        if stop < span:
            kind = events.index(stop)
            if kind == 0:
                return ShadowVerdict.AGGREGATE_DECODE, rounds + stop, time
            if kind == 1:
                return ShadowVerdict.PASS, rounds + stop, time
            if kind == 3:
                return ShadowVerdict.EXISTING_DELAYED, rounds + stop, time
        steps = done[:, stop - 1] if stop else np.zeros(n, dtype=np.int64)
        tables.advance(steps)
        taken += steps
        rounds += stop
        time = float(path[stop])
        if stop < span or rounds == budget:
            break
        length *= 2
    for flat, steps in zip(active, taken.tolist()):
        if steps:
            flat.tok = [t + steps for t in flat.tok]
            flat.ctx_sum += steps * flat.B
            flat._refresh_deadline()
            flat.estimate = None
            flat.settle += steps
    return None, rounds, time


def shadow_validate(
    instances: list[ShadowInstance],
    now: float,
    busy_until: float = 0.0,
    tpot_slo: float = 0.25,
    overestimate: float = DEFAULT_OVERESTIMATE,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> ShadowVerdict:
    """Virtually execute the node's future and look for SLO violations.

    ``instances`` must already include the hypothetical new request in its
    candidate instance's prefill queue (flagged ``is_new``).  The inputs
    are treated as read-only snapshots: the simulation runs on internal
    copies (callers build throwaway shadows, so nothing observes them
    afterwards).
    """
    time = max(now, busy_until)
    new_prefilled = False
    requests = [r for inst in instances for r in inst.prefill_queue + inst.batch]
    has_new = any(r.is_new for r in requests)
    # The tail resolver needs fronts and time that never decrease.
    resolvable = overestimate >= 0.0 and all(r.tpot_slo >= 0.0 for r in requests)

    flats = [_FlatInstance(inst) for inst in instances]
    pending_prefills = sum(len(flat.queue) for flat in flats)

    iterations = 0
    tail_rounds = 0
    while iterations < max_iterations:
        if not pending_prefills:
            # Settle tail: past the warm-up, array passes resolve the
            # remaining rounds, up to any round they cannot vouch for.
            if tail_rounds >= _TAIL_WARMUP and resolvable:
                verdict, rounds, time = _resolve_tail(
                    flats, time, tpot_slo, overestimate, max_iterations - iterations
                )
                if verdict is not None:
                    return verdict
                iterations += rounds
                if iterations == max_iterations:
                    break
            tail_rounds += 1
            # Case 3: once every prefill is absorbed, the steady-state decode
            # round across all instances must fit within one TPOT budget.
            aggregate = 0
            for flat in flats:
                est = flat.estimate
                if est is None:
                    est = flat.decode_estimate(overestimate)
                aggregate += est
            if aggregate > tpot_slo:
                return ShadowVerdict.AGGREGATE_DECODE
            if all(flat.settle >= _SETTLE_ROUNDS or not flat.B for flat in flats):
                return ShadowVerdict.PASS

        iterations += 1
        # Work selection (the min-headroom rule): prefill urgency is the
        # queue head's headroom, decode urgency the batch's minimum
        # headroom; strict < keeps the first seen on ties.
        best_u = 0.0
        best = None
        best_prefill = False
        for flat in flats:
            if flat.ready_at > time:
                continue
            if flat.head < len(flat.queue):
                request = flat.queue[flat.head]
                urgency = request.deadline_base + request.tpot_slo * request.tokens_out - time
                if best is None or urgency < best_u:
                    best_u = urgency
                    best = flat
                    best_prefill = True
            if flat.B:
                urgency = flat.min_deadline - time
                if best is None or urgency < best_u:
                    best_u = urgency
                    best = flat
                    best_prefill = False

        if best is None:
            # Idle until the next instance becomes ready, if any.
            future = [
                flat.ready_at
                for flat in flats
                if flat.ready_at > time and (flat.head < len(flat.queue) or flat.B)
            ]
            if not future:
                return ShadowVerdict.PASS
            time = min(future)
            continue

        if best_prefill:
            request = best.queue[best.head]
            best.head += 1
            duration = best.perf.ttft_seconds(request.prefill_len) * overestimate
            time += duration
            pending_prefills -= 1
            headroom = request.deadline_base + request.tpot_slo * request.tokens_out - time
            if headroom < 0 and not request.soft:
                return (
                    ShadowVerdict.NEW_REQUEST_TTFT
                    if request.is_new
                    else ShadowVerdict.EXISTING_DELAYED
                )
            tokens = request.tokens_out + 1
            best.base.append(request.deadline_base)
            best.slo.append(request.tpot_slo)
            best.tok.append(tokens)
            best.soft.append(request.soft)
            best.B += 1
            best.ctx_sum += request.context_len + 1
            # Existing members' deadlines are untouched by a join.
            joined = request.deadline_base + request.tpot_slo * tokens
            if joined < best.min_deadline:
                best.min_deadline = joined
            best.estimate = None
            best.settle = 0
            if request.is_new:
                new_prefilled = True
        else:
            duration = best.estimate
            if duration is None:
                duration = best.decode_estimate(overestimate)
            time += duration
            base = best.base
            slo = best.slo
            tok = best.tok
            soft = best.soft
            # One pass: violation check on the pre-increment token count,
            # then the post-increment deadline (what _refresh_deadline
            # would recompute — identical floats, min of the same terms).
            new_min = float("inf")
            for i in range(best.B):
                b = base[i]
                s = slo[i]
                t = tok[i]
                if b + s * t - time < 0 and not soft[i]:
                    return ShadowVerdict.EXISTING_DELAYED
                t += 1
                tok[i] = t
                deadline = b + s * t
                if deadline < new_min:
                    new_min = deadline
            best.min_deadline = new_min
            best.ctx_sum += best.B
            best.estimate = None
            best.settle += 1

    # Horizon exhausted without a violation; if the new request never even
    # got prefilled within the horizon something is deeply oversubscribed.
    if has_new and not new_prefilled:
        soft_new = all(
            r.soft
            for flat in flats
            for r in flat.queue[flat.head:]
            if r.is_new
        )
        if not soft_new:
            return ShadowVerdict.NEW_REQUEST_TTFT
    return ShadowVerdict.PASS
