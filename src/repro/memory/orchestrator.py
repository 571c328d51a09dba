"""Inter-instance memory-scaling orchestration (§VII-C, Figs. 18-19).

Accounting model (delta semantics — a resize occupies ``max(old, new)``
while in flight, releases/claims the delta at the boundary the paper uses):

* **Optimistic budget** (issue-time view): every instance is accounted at
  its *planned* size — the target of its most recently issued operation.
  Scale-downs reduce the budget immediately at issue; scale-ups are only
  issued when the planned total still fits the node.
* **Pessimistic tracking** (execution-time view): instances are accounted
  at ``max(current, executing-target)`` and unloading weights stay counted
  until the unload *completes*.  An issued scale-up that would overflow the
  pessimistic view is parked in the **reservation station**; every
  scale-down/unload completion re-evaluates the station in FIFO order.

This combination lets many asynchronous operations run in parallel while
making the OOM interleavings of Fig. 18 impossible (property-tested in
``tests/memory/test_orchestrator_properties.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Protocol

from repro.engine.instance import Instance, InstanceState
from repro.hardware.node import Node
from repro.hardware.topology import Topology
from repro.memory.operations import MemoryOp, OpKind, OpState
from repro.perf.laws import kv_scaling_seconds
from repro.sim.simulator import Simulator

UNLOAD_SECONDS = 0.05  # freeing weights is cheap relative to loading


class OrchestratorListener(Protocol):
    """Callbacks a serving system receives from the orchestrator."""

    def on_load_complete(self, instance: Instance) -> None: ...

    def on_unload_complete(self, instance: Instance) -> None: ...

    def on_scale_complete(self, instance: Instance, op: MemoryOp) -> None: ...


@dataclass
class _InstanceAccount:
    instance: Instance
    weights_bytes: int
    kv_planned: int = 0
    loading: bool = False
    load_started: bool = False  # False while a LOAD op waits in the station
    load_op: Optional[MemoryOp] = None
    unload_issued: bool = False
    unload_after_scale: bool = False
    active_op: Optional[MemoryOp] = None  # EXECUTING or RESERVED scale op
    followup_target: Optional[int] = None  # coalesced scale while one in flight

    def kv_committed(self) -> int:
        allocated = self.instance.kv.allocated_bytes
        if self.active_op is not None and self.active_op.state is OpState.EXECUTING:
            return max(allocated, self.active_op.target_bytes)
        if self.loading:
            # The initial KV pool is allocated as part of the load — but a
            # load still parked in the station holds nothing yet.
            return max(allocated, self.kv_planned) if self.load_started else 0
        return allocated

    def weights_planned(self) -> int:
        return 0 if self.unload_issued else self.weights_bytes

    def weights_committed(self) -> int:
        # Pessimistic: weights count from load *start* until unload completes.
        if self.loading and not self.load_started:
            return 0
        return self.weights_bytes


class MemoryOrchestrator:
    """Coordinates all memory operations on one node."""

    def __init__(
        self,
        sim: Simulator,
        node: Node,
        listener: OrchestratorListener,
        loader_bytes_per_s: Optional[float] = None,
        on_op_metric: Optional[Callable[[MemoryOp, float], None]] = None,
        topology: Optional[Topology] = None,
    ) -> None:
        self.sim = sim
        self.node = node
        self.listener = listener
        self.capacity = node.memory_bytes
        self.loader_bytes_per_s = loader_bytes_per_s or node.spec.loader_bytes_per_s
        self.on_op_metric = on_op_metric
        # Loads stream over the topology's load route (and contend for
        # its shared links) when a topology is wired in; an explicit
        # ``loader_bytes_per_s`` override keeps the flat-constant path.
        self.topology = topology if loader_bytes_per_s is None else None
        self._accounts: dict[int, _InstanceAccount] = {}
        self._station: list[MemoryOp] = []  # reservation station, FIFO

    # ------------------------------------------------------------------
    # Budget views
    # ------------------------------------------------------------------
    def optimistic_used(self) -> int:
        return sum(
            acct.weights_planned() + acct.kv_planned for acct in self._accounts.values()
        )

    def pessimistic_used(self) -> int:
        return sum(
            acct.weights_committed() + acct.kv_committed()
            for acct in self._accounts.values()
        )

    def optimistic_free(self) -> int:
        return self.capacity - self.optimistic_used()

    def pessimistic_free(self) -> int:
        return self.capacity - self.pessimistic_used()

    def planned_kv_bytes(self, instance: Instance) -> int:
        return self._accounts[instance.inst_id].kv_planned

    def has_instance(self, instance: Instance) -> bool:
        return instance.inst_id in self._accounts

    # ------------------------------------------------------------------
    # Instance admission (cold start) and reclaim
    # ------------------------------------------------------------------
    def can_admit(self, weights_bytes: int, kv_bytes: int) -> bool:
        return self.optimistic_used() + weights_bytes + kv_bytes <= self.capacity

    def admit_instance(self, instance: Instance, kv_bytes: int) -> float:
        """Issue a load for an instance; returns the load's *duration*.

        The load executes immediately when it fits the pessimistic view;
        otherwise it parks in the reservation station until an unload or
        scale-down releases enough memory (the same Fig. 19 gating as
        scale-ups — a cold start must never overlap memory an in-flight
        release still holds).
        """
        if instance.inst_id in self._accounts:
            raise RuntimeError(f"instance {instance.inst_id} already admitted")
        weights = instance.weight_bytes_per_node
        if not self.can_admit(weights, kv_bytes):
            raise RuntimeError("admission would exceed the optimistic budget")
        account = _InstanceAccount(
            instance=instance, weights_bytes=weights, kv_planned=kv_bytes, loading=True
        )
        self._accounts[instance.inst_id] = account
        op = MemoryOp(
            kind=OpKind.LOAD,
            instance=instance,
            target_bytes=weights,
            issued_at=self.sim.now,
        )
        account.load_op = op
        if self.pessimistic_free() >= weights + kv_bytes:
            self._start_load(account, op)
        else:
            op.state = OpState.RESERVED
            self._station.append(op)
        return self._load_seconds(account)

    def _load_seconds(self, account: _InstanceAccount) -> float:
        """Estimated load duration from current link state (plus KV alloc)."""
        tail = kv_scaling_seconds(0, account.kv_planned, 0)
        if self.topology is not None:
            return (
                self.topology.estimate_load_seconds(
                    self.node.node_id, account.weights_bytes
                )
                + tail
            )
        return account.weights_bytes / self.loader_bytes_per_s + tail

    def _start_load(self, account: _InstanceAccount, op: MemoryOp) -> None:
        op.state = OpState.EXECUTING
        op.started_at = self.sim.now
        account.load_started = True
        if self.topology is not None:
            # Weights stream over the node's load route: on a dedicated
            # route the tracker schedules one completion event with the
            # exact ``bytes/bandwidth + kv-alloc`` duration of the
            # legacy path below; on a contended route the transfer
            # time-shares the bottleneck link and ``load_ready_at``
            # tracks every re-timing.
            instance = account.instance
            transfer = self.topology.start_load(
                self.node.node_id,
                account.weights_bytes,
                tail_seconds=kv_scaling_seconds(0, account.kv_planned, 0),
                on_complete=lambda: self._finish_load(account, op),
                on_retime=lambda eta: setattr(instance, "load_ready_at", eta),
            )
            op.route = self.topology.link_ids(transfer.route)
            instance.load_ready_at = transfer.eta
            return
        duration = self._load_seconds(account)
        account.instance.load_ready_at = self.sim.now + duration
        self.sim.schedule(duration, self._finish_load, account, op)

    def _finish_load(self, account: _InstanceAccount, op: MemoryOp) -> None:
        account.loading = False
        account.load_op = None
        account.instance.kv.allocated_bytes = account.kv_planned
        op.state = OpState.DONE
        op.finished_at = self.sim.now
        self._emit_metric(op)
        if account.unload_issued:
            # Reclaimed while still loading: release immediately.
            self._issue_unload(account)
            return
        self.listener.on_load_complete(account.instance)

    def retarget_load_kv(self, instance: Instance, kv_bytes: int) -> bool:
        """Grow the initial KV pool of an instance still cold-starting."""
        account = self._accounts.get(instance.inst_id)
        if account is None or not account.loading or account.unload_issued:
            return False
        target = instance.kv.round_to_blocks(kv_bytes)
        delta = target - account.kv_planned
        if delta > 0 and self.optimistic_free() < delta:
            return False
        account.kv_planned = max(account.kv_planned, target)
        return True

    def unload_instance(self, instance: Instance) -> None:
        """Issue an unload (keep-alive reclaim or preemption)."""
        account = self._accounts[instance.inst_id]
        if account.unload_issued:
            return
        account.unload_issued = True
        account.followup_target = None
        if account.loading:
            if account.load_started:
                return  # _finish_load will issue the unload
            # Load still parked in the station: cancel it outright.
            account.load_op.state = OpState.CANCELLED
            self._station.remove(account.load_op)
            account.load_op = None
            self._issue_unload(account)
            return
        if account.active_op is not None:
            if account.active_op.state is OpState.RESERVED:
                self._cancel_reserved(account)
            else:
                # Let the executing resize finish, then unload.
                account.unload_after_scale = True
                return
        self._issue_unload(account)

    def _issue_unload(self, account: _InstanceAccount) -> None:
        op = MemoryOp(
            kind=OpKind.UNLOAD,
            instance=account.instance,
            target_bytes=account.weights_bytes,
            state=OpState.EXECUTING,
            issued_at=self.sim.now,
            started_at=self.sim.now,
        )
        self.sim.schedule(UNLOAD_SECONDS, self._finish_unload, account, op)

    def _finish_unload(self, account: _InstanceAccount, op: MemoryOp) -> None:
        del self._accounts[account.instance.inst_id]
        account.instance.kv.allocated_bytes = 0
        account.instance.state = InstanceState.UNLOADED
        op.state = OpState.DONE
        op.finished_at = self.sim.now
        self._emit_metric(op)
        self._drain_station()
        self.listener.on_unload_complete(account.instance)

    # ------------------------------------------------------------------
    # KV scaling
    # ------------------------------------------------------------------
    def can_scale_to(self, instance: Instance, target_bytes: int) -> bool:
        """Issue-time (optimistic) feasibility of a resize."""
        account = self._accounts.get(instance.inst_id)
        if account is None or account.unload_issued:
            return False
        delta = target_bytes - account.kv_planned
        return delta <= 0 or self.optimistic_free() >= delta

    def request_scale(self, instance: Instance, target_bytes: int) -> bool:
        """Issue a resize to ``target_bytes``; False if the budget rejects it."""
        account = self._accounts.get(instance.inst_id)
        if account is None or account.unload_issued or account.loading:
            return False
        target = instance.kv.round_to_blocks(target_bytes)
        if target == account.kv_planned:
            return True
        if not self.can_scale_to(instance, target):
            return False
        account.kv_planned = target
        if account.active_op is not None:
            if account.active_op.state is OpState.RESERVED:
                # Retarget the parked op; it re-checks at execution time.
                account.active_op.target_bytes = target
            else:
                account.followup_target = target
            return True
        self._issue_scale(account, target)
        return True

    def _issue_scale(self, account: _InstanceAccount, target: int) -> None:
        instance = account.instance
        kind = OpKind.SCALE_UP if target > instance.kv.allocated_bytes else OpKind.SCALE_DOWN
        op = MemoryOp(
            kind=kind, instance=instance, target_bytes=target, issued_at=self.sim.now
        )
        account.active_op = op
        if kind is OpKind.SCALE_DOWN or self._fits_pessimistically(account, target):
            self._execute_scale(account, op)
        else:
            op.state = OpState.RESERVED
            self._station.append(op)

    def _fits_pessimistically(self, account: _InstanceAccount, target: int) -> bool:
        growth = max(target, account.instance.kv.allocated_bytes) - account.kv_committed()
        return self.pessimistic_free() >= growth

    def _execute_scale(self, account: _InstanceAccount, op: MemoryOp) -> None:
        op.state = OpState.EXECUTING
        op.started_at = self.sim.now
        duration = account.instance.kv.begin_scale(
            op.target_bytes, account.instance.live_kv_bytes()
        )
        self.sim.schedule(duration, self._finish_scale, account, op, duration)

    def _finish_scale(self, account: _InstanceAccount, op: MemoryOp, duration: float) -> None:
        # A parked scale-up retargeted to the current allocation executes
        # as a zero-delta no-op: begin_scale put nothing in flight.
        if account.instance.kv.scaling:
            account.instance.kv.finish_scale()
        op.state = OpState.DONE
        op.finished_at = self.sim.now
        account.active_op = None
        self._emit_metric(op, duration)
        if op.kind is OpKind.SCALE_DOWN:
            self._drain_station()
        if account.unload_after_scale:
            account.unload_after_scale = False
            self._issue_unload(account)
            return
        followup = account.followup_target
        if followup is not None:
            account.followup_target = None
            if followup != account.instance.kv.allocated_bytes:
                self._issue_scale(account, followup)
        self.listener.on_scale_complete(account.instance, op)

    def _cancel_reserved(self, account: _InstanceAccount) -> None:
        op = account.active_op
        if op is None or op.state is not OpState.RESERVED:
            raise RuntimeError("no reserved op to cancel")
        op.state = OpState.CANCELLED
        self._station.remove(op)
        account.active_op = None
        account.kv_planned = account.instance.kv.allocated_bytes

    def _drain_station(self) -> None:
        """Re-evaluate parked scale-ups after memory was released (Fig. 19)."""
        progressed = True
        while progressed:
            progressed = False
            for op in list(self._station):
                account = self._accounts.get(op.instance.inst_id)
                if account is None or op.state is not OpState.RESERVED:
                    self._station.remove(op)
                    continue
                if op.kind is OpKind.LOAD:
                    if self.pessimistic_free() >= account.weights_bytes + account.kv_planned:
                        self._station.remove(op)
                        self._start_load(account, op)
                        progressed = True
                elif self._fits_pessimistically(account, op.target_bytes):
                    self._station.remove(op)
                    self._execute_scale(account, op)
                    progressed = True

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _emit_metric(self, op: MemoryOp, duration: float = 0.0) -> None:
        if self.on_op_metric is not None:
            self.on_op_metric(op, duration)

    # Invariant used by property tests: the *actual* allocation (weights of
    # all non-unloaded instances + real KV allocations + in-flight growth)
    # never exceeds capacity.
    def actual_used(self) -> int:
        total = 0
        for account in self._accounts.values():
            total += account.weights_committed()
            total += account.kv_committed()
        return total

    def assert_no_oom(self) -> None:
        used = self.actual_used()
        if used > self.capacity:
            raise RuntimeError(
                f"OOM on {self.node.node_id}: {used} > capacity {self.capacity}"
            )
