"""Shared plumbing: checkout paths, timing helpers, digests, run results."""

from __future__ import annotations

import array
import gc
import hashlib
import heapq
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: traces and server hand-off files (git-ignored)
OUT_DIR = ROOT / ".perfbench-out"

#: a run that has not finished its measurement by then skips the rest
#: (counted as failed), so every invocation ends well within 180 s
HARD_DEADLINE_S = 150.0


def program_present() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def use_program() -> None:
    """Make ``import repro`` resolve to the checkout's own source tree."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def program_env() -> dict[str, str]:
    """Environment for child processes that import the program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass
class Run:
    """What one workload invocation measured."""

    started: float = field(default_factory=time.perf_counter)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    #: extra human-readable lines printed above the result line
    notes: list[str] = field(default_factory=list)

    def op(self, ok: bool, what: str = "") -> bool:
        """Record one operation (a spec execution or an HTTP request)."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if what and len(self.problems) < 20:
                self.problems.append(what)
        return ok

    def fail_op(self, what: str) -> None:
        """An operation already counted as succeeded failed a later check."""
        self.failed = min(self.attempted, self.failed + 1)
        if len(self.problems) < 20:
            self.problems.append(what)

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def out_of_time(self) -> bool:
        return self.elapsed() > HARD_DEADLINE_S


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def geomean(values: Iterable[float]) -> float:
    return statistics.geometric_mean(list(values))


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile (NumPy's default rule)."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def round_verdicts(round_seconds: list[float]) -> dict[str, float]:
    """A batch workload's verdict is a whole round of reports, so its
    verdict latency percentiles are taken over the round times."""
    round_ms = [seconds * 1e3 for seconds in round_seconds]
    return {"verdict_ms.p50": percentile(round_ms, 50), "verdict_ms.p99": percentile(round_ms, 99)}


def verdict_notes(round_seconds: list[float]) -> list[str]:
    verdicts = round_verdicts(round_seconds)
    return [
        f"verdict_ms.p50 {verdicts['verdict_ms.p50']:.3f} ms, verdict_ms.p99 "
        f"{verdicts['verdict_ms.p99']:.3f} ms (over {len(round_seconds)} rounds)"
    ]


def digest(report_dict: dict[str, Any]) -> str:
    """Hash of a canonical report dict (JSON-normalized, key-sorted)."""
    canonical = json.dumps(report_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def report_digest(report) -> str:
    return digest(json.loads(json.dumps(report.to_dict(include_volatile=False))))


def conserved(report, submitted: int) -> bool:
    """Every submitted request arrived and completed, was dropped, or was
    still in flight when the run reached its horizon.

    A run stops at its window plus the drain timeout, so a scenario such
    as ``decode-marathon`` ends with requests still decoding; they are
    neither completed nor dropped.  Exact-mode reports keep every
    request, so the in-flight ones are counted from their states;
    streaming reports only keep the counters, which must not exceed the
    arrivals.
    """
    from repro.engine.request import RequestState

    finished = report.completed_count + report.dropped_count
    if report.total_requests != submitted or finished > submitted:
        return False
    if report.request_aggregate is not None:
        return True
    terminal = (RequestState.COMPLETED, RequestState.DROPPED)
    in_flight = sum(1 for request in report.requests if request.state not in terminal)
    return finished + in_flight == submitted


#: one host-speed probe: steps of its object-churn loop, and random
#: reads and writes of its array (about 15 ms together on a 2-core VM)
PROBE_STEPS = 5_000
PROBE_TOUCHES = 25_000
#: doubles in the probe's array (4 MiB): bigger than a core's private
#: caches, so the probe feels the shared cache and memory the way the
#: simulator's heap does, and not only the clock rate
PROBE_ARRAY_LEN = 1 << 19
#: the reference host speed: a typical median of the probe on the
#: 2-core shared VM the benchmark was written on (13-28 ms as the host
#: drifted); normalized times are host times scaled towards that speed
PROBE_REF_S = 0.015


class _ProbeEvent:
    __slots__ = ("time", "key", "load")

    def __init__(self, time: float, key: int, load: float) -> None:
        self.time = time
        self.key = key
        self.load = load


def _churn() -> float:
    """A heap of small objects, dict lookups and float arithmetic."""
    heap: list = []
    table: dict = {}
    total = 0.0
    state = 12345
    for step in range(PROBE_STEPS):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        event = _ProbeEvent(state / 2147483648.0 * 100.0, state & 1023, float(step))
        heapq.heappush(heap, (event.time, step, event))
        table[event.key] = event
        if len(heap) > 256:
            when, _, done = heapq.heappop(heap)
            other = table.get((done.key * 7) & 1023)
            total += done.load * 0.5 - when + (other.time if other is not None else 0.0)
    return total


def _touch(data: array.array) -> float:
    """Random reads and writes across an array bigger than private caches."""
    total = 0.0
    state = 987
    mask = len(data) - 1
    for _ in range(PROBE_TOUCHES):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        index = state & mask
        total += data[index]
        data[index] = total * 1e-9
    return total


class HostProbe:
    """Host-speed samples taken between the timed executions of a run.

    A shared host's speed drifts by tens of percent over minutes, and
    the program's times drift with it.  The probe — fixed pure-Python
    work that runs no program code — is timed in the same minutes, so a
    normalized time reads about what it would on the reference host: a
    change to the program moves it fully, a slower host much less.

    The probe feels a slow host more than the program does.  On the
    2-core VM the benchmark was written on, while the host's speed
    drifted, the median probe moved 1.4 to 2.1 times as much (in log
    terms) as the program's times did: 16.1 to 26.8 ms against 7.5 to
    10.9 s for one ``suite-ref`` input, 15.4 to 27.2 ms against 2.06 to
    2.71 s for ``fleet``.  Scaling by the full ratio over-corrected
    (the fleet runs' quartile spread went from 0.2 to 0.3 of their
    median), so times are scaled by the square root of
    ``PROBE_REF_S / median probe``, which brought both under 0.1.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._data = array.array("d", bytes(8 * PROBE_ARRAY_LEN))

    def sample(self, count: int = 1) -> None:
        # the cyclic garbage collector is paused: its passes over the
        # program's live objects would time the program's heap instead
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(count):
                start = time.perf_counter()
                if not math.isfinite(_churn() + _touch(self._data)):
                    raise RuntimeError("host probe went wrong")
                self.samples.append(time.perf_counter() - start)
        finally:
            if enabled:
                gc.enable()

    def seconds(self) -> float:
        return median(self.samples)

    def normalize(self, seconds: float) -> float:
        return seconds * math.sqrt(PROBE_REF_S / self.seconds())


def probe_notes(wall_s: float, probe: HostProbe) -> list[str]:
    return [
        f"wall_s {wall_s:.3f} s; host probe median {probe.seconds() * 1e3:.2f} ms "
        f"over {len(probe.samples)} samples (reference {PROBE_REF_S * 1e3:g} ms)"
    ]


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set size in MiB (``ru_maxrss`` is KiB on Linux)."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def timed(fn: Callable[[], Any]) -> tuple[float, Any]:
    start = time.perf_counter()
    value = fn()
    return time.perf_counter() - start, value


def setup_probes(workload: str, seed: int, count: int) -> list[float]:
    """Time the workload's set-up in ``count`` fresh interpreters.

    Imports only happen once per process, so repeating set-up in the
    measuring process would time a warm import.  Each probe runs
    ``run.py --setup-probe`` which imports the program, resolves the
    specs and synthesizes the traces exactly as a run does, and prints
    the elapsed seconds.
    """
    samples = []
    for _ in range(count):
        completed = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=60, cwd=str(ROOT),
        )
        if completed.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{completed.stderr}")
        samples.append(float(completed.stdout.strip().splitlines()[-1]))
    return samples


def wait_or_kill(process: subprocess.Popen, timeout: float) -> Optional[int]:
    """Wait for a child; kill it if it outlives ``timeout``."""
    try:
        return process.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait(timeout=10)
        return None
