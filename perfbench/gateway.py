"""``gateway``: live ``repro serve`` processes fed by an open-loop replay.

Each server runs in shadow mode as its own process on an ``azure``
trace (64 deployments on ``cpu2-gpu2``, reference engine).  A
single-threaded generator replays the trace over one keep-alive
connection: request *i* is due at ``start + arrival_i / speed`` and is
sent then, or at once if the previous reply came back later (open loop:
the schedule never waits for the server).  Shadow mode needs arrivals
in order, so a second connection could not overlap requests anyway.

A run replays two independent traces (seeds ``2·seed − 1`` and
``2·seed``), each into its own server: how much work a trace makes
depends on how its bursts queue, and two traces halve that variance at
the cost of one more server start per pass.

Latency is timed from each request's due time, so a stall also charges
the requests queued behind it; lateness (send time minus due time) is
reported for the generator.  Every pass replays a whole trace into a
fresh server, whose final ``/report`` must equal a batch
``execute_spec`` of the same spec.
"""

from __future__ import annotations

import http.client
import json
import math
import re
import selectors
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Optional

from common import (
    BENCH_DIR, OUT_DIR, ROOT, HostProbe, Run, conserved, digest, geomean, median, peak_rss_mb,
    percentile, probe_notes, program_env, wait_or_kill,
)
from layers import layer_metrics, report_metrics

#: simulated window of each trace (seconds): the two traces together
#: hold 1,100-1,250 requests, so the nominal speed's p99 has at least
#: ten samples beyond it
GATEWAY_DURATION = 240.0
N_DEPLOYMENTS = 64
TRACES = 2
#: replay speeds (simulated seconds per host second); the ladder starts
#: at NOMINAL and climbs while a speed is sustained, or descends until
#: one is.  NOMINAL keeps a server about a quarter busy on a 2-core
#: host, so its p99 reflects the serving path rather than queueing at
#: saturation; the rung above is past saturation by a margin wider than
#: host-speed drift, so the ladder does not flip between runs.
LADDER = (10.0, 20.0, 120.0)
NOMINAL = 20.0
#: a speed shows a growing backlog when the generator's median lateness
#: over the last quarter of a pass exceeds that over the third quarter
#: by more than this
BACKLOG_GROWTH_MS = 50.0
REQUEST_TIMEOUT_S = 20.0
#: host-speed probes before every server start
PROBES_PER_PASS = 8

_LISTENING = re.compile(r"listening on http://([\d.]+):(\d+)")
_HEADERS = {"Content-Type": "application/json"}


def serve_args(seed: int) -> list[str]:
    return [
        "serve", "--system", "slinfer", "--scenario", "azure", "--model", "llama-2-7b",
        "--models", str(N_DEPLOYMENTS), "--cluster", "cpu2-gpu2", "--engine", "reference",
        "--seed", str(seed), "--duration", repr(GATEWAY_DURATION), "--mode", "shadow",
        "--port", "0",
    ]


def gateway_spec(seed: int):
    from repro.runner import RunSpec

    return RunSpec(
        system="slinfer", scenario="azure", model="llama-2-7b", n_models=N_DEPLOYMENTS,
        cluster="cpu2-gpu2", seed=seed, duration=GATEWAY_DURATION,
    )


@dataclass
class Trace:
    """One trace to replay: its spec, arrival times and request bodies."""

    spec: object
    arrivals: list
    bodies: list


def prepare(ctx) -> list[Trace]:
    import repro.runner as runner

    traces = []
    for seed in range(TRACES * ctx.seed - TRACES + 1, TRACES * ctx.seed + 1):
        spec = gateway_spec(seed)
        requests = runner.build_workload(spec).requests
        bodies = [
            json.dumps({
                "model": r.deployment, "prompt_tokens": r.input_len,
                "max_tokens": r.output_len, "arrival": r.arrival,
                "prefix_id": r.prefix_id, "prefix_len": r.prefix_len,
            }).encode("utf-8")
            for r in requests
        ]
        traces.append(Trace(spec, [r.arrival for r in requests], bodies))
    return traces


# ----------------------------------------------------------------------
# The server process
# ----------------------------------------------------------------------
class Server:
    """One ``repro serve`` child; ``trace_out`` runs it under the tracer."""

    def __init__(self, seed: int, trace_out: Optional[str] = None) -> None:
        if trace_out is None:
            command = [sys.executable, "-m", "repro", *serve_args(seed)]
        else:
            command = [sys.executable, str(BENCH_DIR / "serve_traced.py"), trace_out,
                       *serve_args(seed)]
        OUT_DIR.mkdir(exist_ok=True)
        # a file, not a pipe: nothing reads stderr while the server runs
        self.log = open(OUT_DIR / "gateway-server.log", "a")
        self.spawned = time.perf_counter()
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=self.log, text=True,
            cwd=str(ROOT), env=program_env(),
        )
        try:
            self.port = self._discover_port(timeout=60.0)
            self.conn = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S
            )
            status, _ = self.call("GET", "/healthz")
            if status != 200:
                raise RuntimeError(f"/healthz answered {status}")
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - self.spawned

    def _discover_port(self, timeout: float) -> int:
        deadline = time.perf_counter() + timeout
        with selectors.DefaultSelector() as selector:
            selector.register(self.process.stdout, selectors.EVENT_READ)
            while time.perf_counter() < deadline:
                if not selector.select(timeout=deadline - time.perf_counter()):
                    break
                line = self.process.stdout.readline()
                if not line:
                    break
                match = _LISTENING.search(line)
                if match:
                    return int(match.group(2))
        raise RuntimeError("server never announced its port")

    def call(self, method: str, path: str, body: Optional[bytes] = None) -> tuple[int, bytes]:
        self.conn.request(method, path, body=body, headers=_HEADERS if body else {})
        response = self.conn.getresponse()
        return response.status, response.read()

    def reconnect(self) -> None:
        self.conn.close()
        self.conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S)

    def report(self) -> Optional[dict]:
        try:
            status, data = self.call("GET", "/report")
        except (OSError, http.client.HTTPException):
            return None
        return json.loads(data) if status == 200 else None

    def stop(self) -> None:
        try:
            self.call("POST", "/shutdown")
        except (OSError, http.client.HTTPException):
            pass
        self.conn.close()
        exited = wait_or_kill(self.process, timeout=30.0) is not None
        self._close()
        if not exited:
            raise RuntimeError("server did not exit after /shutdown")

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait(timeout=10)
        self._close()

    def _close(self) -> None:
        self.process.stdout.close()
        self.log.close()


# ----------------------------------------------------------------------
# The open-loop generator
# ----------------------------------------------------------------------
@dataclass
class Pass:
    """One trace replayed at one speed into one server."""

    speed: float
    latency_ms: list = field(default_factory=list)  # reply time - due time
    late_ms: list = field(default_factory=list)  # send time - due time
    service_s: dict = field(default_factory=dict)  # request index -> reply - send
    errors: int = 0
    aborted: bool = False  # stopped before the end of the trace
    host_s: float = 0.0  # first due time to last reply
    span_s: float = 0.0  # simulated seconds replayed
    report: Optional[dict] = None

    @property
    def busy_s(self) -> float:
        """Host time spent waiting on verdicts: the sum of send-to-reply."""
        return sum(self.service_s.values())

    def backlog_growth_ms(self) -> float:
        n = len(self.late_ms)
        third = self.late_ms[n // 2: 3 * n // 4]
        fourth = self.late_ms[3 * n // 4:]
        if not third or not fourth:
            return 0.0
        return median(fourth) - median(third)


def over_limit_budget(requests: int) -> int:
    """Requests over the latency limit that put the p99 of ``requests``
    samples over it, whatever the other samples are."""
    return requests - math.floor((requests - 1) * 0.99)


def replay(
    server: Server, trace: Trace, speed: float, run: Run,
    limit_ms: Optional[float] = None, pooled: int = 0,
) -> Pass:
    """Send every request of the trace at its due time; read each verdict.

    With ``limit_ms`` the pass stops once so many requests exceeded it
    that the p99 over the ``pooled`` requests of all of this speed's
    passes is over the limit whatever the rest do.
    """
    result = Pass(speed)
    clock = time.perf_counter
    over_budget = over_limit_budget(pooled)
    over = 0
    start = clock() + 0.05
    for index, (arrival, body) in enumerate(zip(trace.arrivals, trace.bodies)):
        due = start + arrival / speed
        wait = due - clock()
        if wait > 0:
            time.sleep(wait)
        sent = clock()
        try:
            status, data = server.call("POST", "/v1/completions", body)
            ok = status == 200 and json.loads(data).get("index") == index
        except (OSError, http.client.HTTPException, ValueError):
            ok = False
            server.reconnect()
        done = clock()
        if not run.op(ok, f"gateway x{speed:g}: request {index} failed"):
            result.errors += 1
        result.latency_ms.append((done - due) * 1e3)
        result.late_ms.append((sent - due) * 1e3)
        result.service_s[index] = done - sent
        result.span_s = arrival
        if limit_ms is not None and result.latency_ms[-1] > limit_ms:
            over += 1
            if over >= over_budget:
                result.aborted = True
                break
        if run.out_of_time():
            result.aborted = True
            result.errors += 1
            break
    result.host_s = clock() - start
    result.report = server.report()
    run.op(result.report is not None, f"gateway x{speed:g}: /report failed")
    return result


@dataclass
class Speed:
    """Every trace's pass at one speed."""

    speed: float
    passes: list

    @property
    def latency_ms(self) -> list:
        return [ms for p in self.passes for ms in p.latency_ms]

    @property
    def p99_ms(self) -> float:
        return percentile(self.latency_ms, 99)

    def sustained(self, limit_ms: float, traces: int) -> bool:
        return (
            len(self.passes) == traces
            and all(
                p.errors == 0 and not p.aborted and p.report is not None
                and p.backlog_growth_ms() <= BACKLOG_GROWTH_MS
                for p in self.passes
            )
            and self.p99_ms <= limit_ms
        )


class Gateway:
    """Servers, passes and the checks shared by both modes."""

    def __init__(self, traces: list[Trace], run: Run) -> None:
        self.traces = traces
        self.run = run
        self.setup: list[float] = []
        self.speeds: list[Speed] = []
        self.expected: dict[int, str] = {}
        self.probe = HostProbe()

    def serve_pass(
        self, trace: Trace, speed: float, limit_ms: Optional[float] = None,
        trace_out: Optional[str] = None,
    ) -> Pass:
        self.probe.sample(PROBES_PER_PASS)
        server = Server(trace.spec.seed, trace_out)
        self.setup.append(server.setup_s)
        pooled = sum(len(t.bodies) for t in self.traces)
        try:
            result = replay(server, trace, speed, self.run, limit_ms, pooled)
        finally:
            server.stop()
        self.check(trace, result)
        return result

    def serve_speed(self, speed: float, limit_ms: Optional[float] = None) -> Speed:
        """Every trace at ``speed``; stops at the first aborted pass."""
        passes = []
        for trace in self.traces:
            passes.append(self.serve_pass(trace, speed, limit_ms))
            if passes[-1].aborted:
                break
        self.speeds.append(Speed(speed, passes))
        return self.speeds[-1]

    def check(self, trace: Trace, result: Pass) -> None:
        """Requests are conserved, and a whole-trace pass's final report
        equals the batch run of the same spec."""
        if result.report is None:
            return
        from repro.metrics.report import RunReport

        submitted = len(result.latency_ms)
        report = RunReport.from_dict(result.report["report"])
        if result.report["outcomes"]["submitted"] != submitted or not conserved(report, submitted):
            self.run.fail_op(f"gateway x{result.speed:g}: requests not conserved")
        if not result.aborted and digest(result.report["report"]) != self.batch_digest(trace):
            self.run.fail_op(f"gateway x{result.speed:g}: /report differs from batch execute_spec")

    def batch_digest(self, trace: Trace) -> str:
        seed = trace.spec.seed
        if seed not in self.expected:
            from repro.runner import execute_spec

            report = execute_spec(trace.spec).report
            self.expected[seed] = digest(
                json.loads(json.dumps(report.to_dict(include_volatile=False)))
            )
        return self.expected[seed]


def _ladder(gateway: Gateway, limit_ms: float) -> tuple[Speed, Optional[Speed]]:
    """The nominal speed, then up (or down) the ladder; returns (nominal, best)."""
    traces = len(gateway.traces)
    nominal = gateway.serve_speed(NOMINAL, limit_ms)
    step = 1 if nominal.sustained(limit_ms, traces) else -1
    best = nominal if step == 1 else None
    index = LADDER.index(NOMINAL) + step
    while 0 <= index < len(LADDER) and not gateway.run.out_of_time():
        attempt = gateway.serve_speed(LADDER[index], limit_ms)
        if attempt.sustained(limit_ms, traces):
            best = attempt
            if step == -1:
                break
        elif step == 1:
            break
        index += step
    gateway.run.notes.append(
        "ladder: " + ", ".join(
            f"x{s.speed:g} p99 {s.p99_ms:.1f} ms backlog "
            f"{max(p.backlog_growth_ms() for p in s.passes):+.1f} ms"
            for s in gateway.speeds
        )
    )
    return nominal, best


def verdict_metrics(nominal: Speed) -> dict[str, float]:
    return {
        "verdict_ms.p50": percentile(nominal.latency_ms, 50),
        "verdict_ms.p99": nominal.p99_ms,
    }


def measure(ctx, traces: list[Trace], run: Run) -> None:
    gateway = Gateway(traces, run)
    nominal, best = _ladder(gateway, ctx.p99_limit_ms)
    # a second whole pass of every trace, each request sent as soon as
    # the previous verdict arrives
    back_to_back = gateway.serve_speed(math.inf)
    rss = peak_rss_mb(children=True)
    # host time answering each trace, averaged over its two passes
    per_trace = [
        (paced.busy_s + rushed.busy_s) / 2
        for paced, rushed in zip(nominal.passes, back_to_back.passes)
    ]
    wall = sum(per_trace)
    run.metrics.update({
        "setup_s": median(gateway.setup),
        "trace_wall_s": gateway.probe.normalize(geomean(per_trace)),
        "peak_rss_mb": rss,
        # achieved simulated seconds per host second at the best speed
        "sustained_speed_x": (
            sum(p.span_s for p in best.passes) / sum(p.host_s for p in best.passes)
            if best is not None else 0.0
        ),
    })
    verdicts = verdict_metrics(nominal)
    service_ms = [s * 1e3 for p in nominal.passes for s in p.service_s.values()]
    late_ms = [ms for p in nominal.passes for ms in p.late_ms]
    run.notes += probe_notes(wall, gateway.probe)
    run.notes += [
        f"nominal x{NOMINAL:g}: {len(nominal.latency_ms)} requests; sustained "
        f"x{best.speed if best else 0:g} (p99 limit {ctx.p99_limit_ms:g} ms)",
        f"verdict_ms.p50 {verdicts['verdict_ms.p50']:.3f} ms, "
        f"verdict_ms.p99 {verdicts['verdict_ms.p99']:.3f} ms (from due time)",
        f"send-to-reply p50 {percentile(service_ms, 50):.3f} ms, "
        f"p99 {percentile(service_ms, 99):.3f} ms; "
        f"generator late p99 {percentile(late_ms, 99):.3f} ms",
    ]


def trace(ctx, traces: list[Trace], run: Run) -> dict:
    """Untraced nominal passes of every trace, then the first trace again
    with the server under the tracer; spans joined per request."""
    gateway = Gateway(traces, run)
    plain = gateway.serve_speed(NOMINAL)
    out = str(OUT_DIR / f"gateway-server-seed{ctx.seed}.json")
    traced = gateway.serve_pass(traces[0], NOMINAL, trace_out=out)
    if traced.report is None or any(p.report is None for p in plain.passes):
        raise RuntimeError("a gateway pass returned no /report")
    with open(out) as handle:
        server = json.load(handle)
    bridge = {
        s["rid"]: s["end"] - s["start"] for s in server["spans"] if s["name"] == "gateway.bridge"
    }
    if len(bridge) != len(traced.service_s):
        run.fail_op("gateway: bridge spans do not cover every request")

    from repro.metrics.report import RunReport

    metrics = layer_metrics(server)
    metrics.update(report_metrics([RunReport.from_dict(traced.report["report"])]))
    metrics.update(verdict_metrics(plain))
    metrics["gateway.http_s"] = sum(
        seconds - bridge[index] for index, seconds in traced.service_s.items() if index in bridge
    )
    late_ms = [ms for p in plain.passes for ms in p.late_ms]
    metrics["loadgen.late_ms.p99"] = percentile(late_ms, 99)
    metrics["loadgen.sent"] = len(late_ms)
    # the traced run makes no back-to-back pass: its wall_s is the nominal one
    metrics["wall_s"] = sum(p.busy_s for p in plain.passes)
    metrics["host.probe_s"] = gateway.probe.seconds()
    metrics["trace.overhead_ratio"] = traced.busy_s / plain.passes[0].busy_s
    run.metrics.update(metrics)
    return {
        "spans": {"repro serve": server["spans"]},
        "totals": {k: server[k] for k in ("stats", "counts")},
    }
