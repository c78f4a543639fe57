"""The benchmark's three workloads, driven through the public API.

Each workload is one *slice* function: it sets up from scratch, runs its
timed steps and checks the program's outputs. A slice replays the same
seeded inputs every time it runs, so every slice of a run does the same
simulated work; the slices differ only in host time.

* ``serve`` — Jetty 5.1.10 in steady state, no update: connections
  arrive open loop on a seeded, jittered schedule in simulated time, and
  each connection sends five serial GETs (closed loop within it).
* ``update-stream`` — every app's release ladder on one long-lived
  server per app, under the endurance harness's traffic shape, with
  ``UpdatePolicy.fast()``: 22 updates (7 bypass, 2 in-loop OSR rescues,
  13 safe-point updates with lazy transformation).
* ``heap-update`` — the paper's Table 1 shape: a seeded mix of
  ``Change``/``NoChange`` objects fills the heap, then one eager
  ``UpdatePolicy.paper()`` update transforms every ``Change``.
"""

from __future__ import annotations

import random
import string
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.apps import registry
from repro.apps.javaemail.versions import POP3_PORT, SMTP_PORT
from repro.apps.jetty import versions as jetty
from repro.compiler import compile as compiler
from repro.dsu import upt
from repro.dsu.engine import UpdateEngine, UpdateRequest
from repro.dsu.policy import UpdatePolicy
from repro.dsu.safepoint import RetryPolicy
from repro.harness import microbench
from repro.net.ftpclient import browse_script
from repro.net.httpclient import HttpConnectionClient
from repro.net.loadgen import FAILURE_PROTOCOL, ScriptedSession
from repro.net.popclient import stat_script
from repro.net.smtpclient import send_mail_script
from repro.vm.vm import VM

from hostclock import HostClock
from layers import PauseMeter, SpanRecorder


@dataclass
class SliceResult:
    """What one slice measured and checked. Host times are in
    reference-speed seconds (:mod:`hostclock`); the ``wall`` fields keep
    the unscaled wall time."""

    setup_s: float = 0.0
    setup_wall_s: float = 0.0
    #: seconds of each timed step, in order
    steps: Dict[str, float] = field(default_factory=dict)
    wall_steps: Dict[str, float] = field(default_factory=dict)
    #: interpreted instructions inside the timed steps
    instructions: int = 0
    #: client requests answered inside the timed steps
    requests: int = 0
    update_host_ms: List[float] = field(default_factory=list)
    pause_host_ms: List[float] = field(default_factory=list)
    #: the simulated clock's numbers; identical on every slice of a seed
    sim_pause_ms: List[float] = field(default_factory=list)
    sim_latency_ms: List[float] = field(default_factory=list)
    sessions: int = 0
    #: sessions that failed or had not finished when their window closed
    sessions_failed: int = 0
    updates: int = 0
    updates_aborted: int = 0
    #: the workload's checked operations (requests, updates, objects)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: per-layer counts read from the program's own state (whole slice)
    counts: Dict[str, float] = field(default_factory=dict)
    clock: HostClock = field(default_factory=HostClock, repr=False)

    @contextmanager
    def setup(self):
        started = self.clock.start()
        try:
            yield
        finally:
            wall, scaled = self.clock.stop(started)
            self.setup_s += scaled
            self.setup_wall_s += wall

    @contextmanager
    def step(self, name: str):
        started = self.clock.start()
        try:
            yield
        finally:
            self.wall_steps[name], self.steps[name] = self.clock.stop(started)

    def scaled_ms(self, name: str, wall_ms: float) -> float:
        """A wall time measured inside step ``name``, scaled like it."""
        return wall_ms * self.steps[name] / self.wall_steps[name]

    def add_vm_counts(self, vm: VM, meter: Optional[PauseMeter]) -> None:
        """Fold one VM's own counters into :attr:`counts`."""
        counters = vm.metrics.counters
        for key in ("jit.base_compiles", "jit.opt_compiles",
                    "gc.collections", "dsu.transformer_invocations",
                    "dsu.lazy.touch_transforms",
                    "dsu.lazy.sweep_transforms", "dsu.updates_applied",
                    "dsu.updates_bypassed"):
            if key in counters:
                self.counts[key] = self.counts.get(key, 0) + counters[key].value
        spans = sum(1 for _ in vm.tracer.walk())
        series = len(counters) + len(vm.metrics.histograms)
        net_bytes = sum(c.bytes_to_client + c.bytes_to_server
                        for c in vm.network.connections.values())
        copied = vm.metrics.histograms.get("gc.cells_copied")
        for key, value in (
            ("gc.cells_copied", int(copied.total) if copied else 0),
            ("instructions", vm.interpreter.instructions_executed),
            ("obs.spans_retained", spans),
            ("obs.metric_series", series),
            ("net.bytes", net_bytes),
            ("safepoint.scans", meter.calls if meter is not None else 0),
        ):
            self.counts[key] = self.counts.get(key, 0) + value


def _compile(source: str, label: str, version: str) -> dict:
    return compiler.compile_source(source, label, version=version)


def _run_until_done(vm: VM, sessions: list, deadline_ms: float) -> None:
    """Run the VM until every session finished or ``deadline_ms``."""
    while vm.clock.now_ms < deadline_ms and not all(s.done for s in sessions):
        vm.run(until_ms=min(deadline_ms, vm.clock.now_ms + 50.0))


def _answered(session) -> int:
    """Server replies a client consumed: HTTP responses, or the
    ``expect`` steps a scripted session matched."""
    if isinstance(session, HttpConnectionClient):
        return len(session.statuses)
    return sum(1 for step in session.script[:session.step_index]
               if step[0] == "expect")


def _session_latencies(sessions) -> List[float]:
    values: List[float] = []
    for session in sessions:
        if isinstance(session, HttpConnectionClient):
            values.extend(session.latencies_ms)
        elif session.succeeded:
            values.append(session.duration_ms)
    return values


# ---------------------------------------------------------------------------
# serve

#: sizes per scale: connections per slice and warm-up connections
SERVE_SIZES = {"full": (400, 40), "tiny": (12, 4)}
SERVE_RATE_PER_S = 200.0
SERVE_REQUESTS = 5
SERVE_FILE_BYTES = 2048
SERVE_VERSION = "5.1.10"


class CheckedHttpClient(HttpConnectionClient):
    """An HTTP client that checks each response against the file."""

    def __init__(self, vm: VM, expected_body: str):
        super().__init__(vm, jetty.HTTP_PORT, "/file.bin",
                         num_requests=SERVE_REQUESTS)
        self.expected_body = expected_body
        self.bad_responses = 0

    def _try_parse_response(self):
        buffer = self._buffer
        response = super()._try_parse_response()
        if response is not None:
            status, length, total = response
            if (status != 200 or length != len(self.expected_body)
                    or buffer[total - length:total] != self.expected_body):
                self.bad_responses += 1
        return response


def _open_loop(vm: VM, body: str, start_ms: float, count: int,
               rng: random.Random) -> List[CheckedHttpClient]:
    interval = 1000.0 / SERVE_RATE_PER_S
    clients = []
    for index in range(count):
        due = start_ms + index * interval + rng.uniform(0.0, 0.8) * interval
        clients.append(CheckedHttpClient(vm, body).start(due))
    return clients


def serve_slice(seed: int, scale: str,
                recorder: Optional[SpanRecorder]) -> SliceResult:
    rng = random.Random(seed)
    body = "".join(rng.choice(string.ascii_letters + string.digits)
                   for _ in range(SERVE_FILE_BYTES))
    connections, warmup = SERVE_SIZES[scale]
    result = SliceResult()
    with result.setup():
        classfiles = _compile(jetty.VERSIONS[SERVE_VERSION],
                              f"<jetty {SERVE_VERSION}>", SERVE_VERSION)
        vm = VM(heap_cells=1 << 17)
        vm.filesystem["/www/file.bin"] = body
        vm.boot(classfiles)
        vm.start_main(jetty.MAIN_CLASS)
        warm = _open_loop(vm, body, vm.clock.now_ms + 10.0, warmup, rng)
        _run_until_done(vm, warm, vm.clock.now_ms + 10_000.0)
    clients = _open_loop(vm, body, vm.clock.now_ms + 10.0, connections, rng)
    instructions = vm.interpreter.instructions_executed
    with result.step("serve"):
        _run_until_done(vm, clients, vm.clock.now_ms + 20_000.0)
    result.instructions = vm.interpreter.instructions_executed - instructions
    result.requests = sum(len(c.statuses) for c in clients)
    result.sim_latency_ms = _session_latencies(clients)
    result.sessions = len(clients)
    result.sessions_failed = sum(1 for c in clients if not c.succeeded)
    checked = warm + clients
    result.attempted = len(checked) * SERVE_REQUESTS
    result.failed = result.attempted - sum(
        len(c.statuses) - c.bad_responses for c in checked)
    if result.failed:
        result.problems.append(
            f"serve: {result.failed} of {result.attempted} requests got no "
            f"status-200 response carrying exactly the {SERVE_FILE_BYTES}-byte "
            f"file")
    result.counts["net.requests"] = sum(_answered(c) for c in warm + clients)
    result.counts["net.sessions_failed"] = result.sessions_failed
    result.add_vm_counts(vm, None)
    return result


# ---------------------------------------------------------------------------
# update-stream

#: the endurance harness's traffic shape around each transition (sim ms)
STREAM_SESSION_INTERVAL_MS = 90.0
STREAM_SESSIONS_PER_WINDOW = 14
STREAM_TRAFFIC_LEAD_MS = 40.0
STREAM_REQUEST_LEAD_MS = 300.0
STREAM_WINDOW_MS = 1_200.0
STREAM_SETTLE_MS = 3_300.0
STREAM_POLICY = UpdatePolicy.fast(retry=RetryPolicy(timeout_ms=1_000.0))
#: apps per scale; the tiny scale runs the shortest ladder only
STREAM_APPS = {"full": tuple(registry.APPS), "tiny": ("crossftp",)}

_WORDS = ("alpha", "bravo", "delta", "echo", "kilo", "lima", "oscar",
          "romeo", "tango", "zulu")


def _stream_traffic(vm: VM, app: str, start_ms: float,
                    rng: random.Random) -> list:
    """One window of client sessions at jittered, seeded start times."""
    port = registry.APPS[app].port
    sessions = []
    for index in range(STREAM_SESSIONS_PER_WINDOW):
        slot = index + rng.uniform(0.0, 0.5)
        due = start_ms + slot * STREAM_SESSION_INTERVAL_MS
        if app == "jetty":
            session = HttpConnectionClient(vm, port, "/file.bin",
                                           num_requests=3)
        elif app == "javaemail" and index % 2 == 0:
            text = " ".join(rng.choice(_WORDS) for _ in range(4))
            session = ScriptedSession(
                vm, SMTP_PORT,
                send_mail_script("bob@example.org", "alice@example.org",
                                 [text]),
                name=f"smtp-{index}")
        elif app == "javaemail":
            session = ScriptedSession(vm, POP3_PORT,
                                      stat_script("alice", "apass"),
                                      name=f"pop3-{index}")
        else:
            session = ScriptedSession(vm, port, browse_script(),
                                      name=f"ftp-{index}")
        sessions.append(session.start(due))
    return sessions


def stream_slice(seed: int, scale: str,
                 recorder: Optional[SpanRecorder]) -> SliceResult:
    rng = random.Random(seed)
    result = SliceResult()
    bypassed, rescued, ran = set(), set(), set()
    for app in STREAM_APPS[scale]:
        info = registry.APPS[app]
        pairs = registry.update_pairs(app)
        classfiles: Dict[str, dict] = {}
        with result.setup():
            first = pairs[0][0]
            classfiles[first] = _compile(info.versions[first],
                                         f"<{app} {first}>", first)
            vm = VM(heap_cells=1 << 17, quantum=400)
            engine = UpdateEngine(vm)
            meter = PauseMeter(vm, recorder)
            vm.boot(classfiles[first])
            vm.start_main(info.main_class)
        for old, new in pairs:
            ran.add((app, old, new))
            holder: Dict[str, object] = {}
            step = f"{app} {old}->{new}"
            with result.step(step):
                started = time.perf_counter()
                classfiles[new] = _compile(info.versions[new],
                                           f"<{app} {new}>", new)
                prepared = upt.prepare_update(
                    classfiles[old], classfiles[new], old, new,
                    transformer_overrides=(
                        info.transformer_overrides.get((old, new)) or None),
                    minimize=True,
                )
                prepare_ms = (time.perf_counter() - started) * 1e3
                now = vm.clock.now_ms
                sessions = _stream_traffic(
                    vm, app, now + STREAM_TRAFFIC_LEAD_MS, rng)

                def fire(prepared=prepared, holder=holder):
                    submitted = time.perf_counter()
                    holder["result"] = engine.submit(
                        UpdateRequest(prepared, policy=STREAM_POLICY))
                    holder["submit_ms"] = (
                        time.perf_counter() - submitted) * 1e3

                meter.take_ms()
                vm.events.schedule(now + STREAM_REQUEST_LEAD_MS, fire)
                instructions = vm.interpreter.instructions_executed
                vm.run(until_ms=now + STREAM_WINDOW_MS + STREAM_SETTLE_MS,
                       max_instructions=50_000_000)
                result.instructions += (
                    vm.interpreter.instructions_executed - instructions)
                pause_ms = meter.take_ms()
            update = holder.get("result")
            result.updates += 1
            if update is None or not update.succeeded:
                result.updates_aborted += 1
                result.problems.append(
                    f"update-stream: {app} {old}->{new} did not apply: "
                    f"{getattr(update, 'reason', 'never submitted')}")
                continue
            if update.bypassed:
                bypassed.add((app, old, new))
            if update.osr_rescued:
                rescued.add((app, old, new))
            result.update_host_ms.append(result.scaled_ms(
                step, prepare_ms + holder["submit_ms"] + pause_ms))
            result.pause_host_ms.append(result.scaled_ms(step, pause_ms))
            result.sim_pause_ms.append(update.total_pause_ms)
            result.sim_latency_ms.extend(_session_latencies(sessions))
            result.requests += sum(_answered(s) for s in sessions)
            result.sessions += len(sessions)
            failed = [s for s in sessions if not s.succeeded]
            result.sessions_failed += len(failed)
            if any(s.failed is not None and s.failed.kind == FAILURE_PROTOCOL
                   for s in failed):
                result.problems.append(
                    f"update-stream: {app} {old}->{new}: a session hit a "
                    f"protocol mismatch (traffic saw a half-installed update)")
        result.add_vm_counts(vm, meter)
    expected_bypass = {p for p in registry.EXPECTED_BYPASS_ELIGIBLE if p in ran}
    expected_rescue = {p for p in registry.EXPECTED_OSR_RESCUED if p in ran}
    if bypassed != expected_bypass:
        result.problems.append(
            f"update-stream: bypassed {sorted(bypassed)}, registry expects "
            f"{sorted(expected_bypass)}")
    if rescued != expected_rescue:
        result.problems.append(
            f"update-stream: OSR-rescued {sorted(rescued)}, registry expects "
            f"{sorted(expected_rescue)}")
    result.attempted = result.updates
    result.failed = result.updates_aborted
    result.counts["net.requests"] = result.requests
    result.counts["net.sessions_failed"] = result.sessions_failed
    return result


# ---------------------------------------------------------------------------
# heap-update

#: objects per scale; the share of ``Change`` objects is fixed, their
#: positions and every field value come from the seed
HEAP_OBJECTS = {"full": 100_000, "tiny": 2_000}
HEAP_CHANGE_SHARE = 0.5


def _populate(vm: VM, kinds: List[bool], values: List[tuple]) -> None:
    """Fill ``Holder.items`` with the seeded population (no GC: the heap
    is sized by :func:`repro.harness.microbench.heap_cells_for`)."""
    objects = vm.objects
    change = vm.registry.get("Change")
    nochange = vm.registry.get("NoChange")
    items_slot = vm.registry.get("Holder").static_slots["items"]
    array = vm.allocate_array(objects.array_class("LObject;"), len(kinds))
    vm.jtoc.write(items_slot, array)
    for index, (is_change, (a, b, c)) in enumerate(zip(kinds, values)):
        address = objects.alloc_object(change if is_change else nochange)
        objects.write_field(address, "a", a)
        objects.write_field(address, "b", b)
        objects.write_field(address, "c", c)
        objects.array_set(array, index, address)


def _heap_problems(vm: VM, kinds: List[bool], values: List[tuple]) -> int:
    """Objects whose post-update state is wrong: a ``Change`` must carry
    its old fields and ``d == 0``; a ``NoChange`` must be untouched."""
    objects = vm.objects
    items_slot = vm.registry.get("Holder").static_slots["items"]
    array = objects.canonical_address(vm.jtoc.read(items_slot))
    wrong = 0
    for index, (is_change, expected) in enumerate(zip(kinds, values)):
        address = objects.canonical_address(objects.array_get(array, index))
        name = objects.class_of(address).name
        fields = tuple(objects.read_field(address, f) for f in "abc")
        refs = tuple(objects.read_field(address, f) for f in "xyz")
        ok = (name == ("Change" if is_change else "NoChange")
              and fields == expected and refs == (0, 0, 0))
        if ok and is_change:
            ok = objects.read_field(address, "d") == 0
        wrong += not ok
    return wrong


def heap_slice(seed: int, scale: str,
               recorder: Optional[SpanRecorder]) -> SliceResult:
    rng = random.Random(seed)
    count = HEAP_OBJECTS[scale]
    changed = int(count * HEAP_CHANGE_SHARE)
    kinds = [True] * changed + [False] * (count - changed)
    rng.shuffle(kinds)
    values = [(rng.randrange(1 << 20), rng.randrange(1 << 20),
               rng.randrange(1 << 20)) for _ in range(count)]
    result = SliceResult()
    with result.setup():
        old = _compile(microbench.MICRO_V1, "<micro v1>", "micro1")
        vm = VM(heap_cells=microbench.heap_cells_for(count))
        engine = UpdateEngine(vm)
        meter = PauseMeter(vm, recorder)
        vm.boot(old)
        vm.start_main("Main")
        vm.run(max_instructions=10_000)
        _populate(vm, kinds, values)
    with result.step("update"):
        started = time.perf_counter()
        new = _compile(microbench.MICRO_V2, "<micro v2>", "micro2")
        prepared = upt.prepare_update(old, new, "micro1", "micro2")
        update = engine.submit(UpdateRequest(prepared,
                                             policy=UpdatePolicy.paper()))
        before_pause_ms = (time.perf_counter() - started) * 1e3
        meter.take_ms()
        instructions = vm.interpreter.instructions_executed
        vm.run(max_instructions=1_000_000_000)
        result.instructions = vm.interpreter.instructions_executed - instructions
        pause_ms = meter.take_ms()
    result.updates = 1
    result.attempted = count
    if not update.succeeded:
        result.updates_aborted = 1
        result.failed = count
        result.problems.append(f"heap-update: update did not apply: "
                               f"{update.reason}")
    else:
        result.update_host_ms.append(
            result.scaled_ms("update", before_pause_ms + pause_ms))
        result.pause_host_ms.append(result.scaled_ms("update", pause_ms))
        result.sim_pause_ms.append(update.total_pause_ms)
        result.failed = _heap_problems(vm, kinds, values)
        if update.objects_transformed != changed:
            result.problems.append(
                f"heap-update: {update.objects_transformed} objects "
                f"transformed, {changed} Change objects on the heap")
        if result.failed:
            result.problems.append(
                f"heap-update: {result.failed} of {count} objects have the "
                f"wrong post-update state")
    result.counts["net.requests"] = 0
    result.counts["net.sessions_failed"] = 0
    result.add_vm_counts(vm, meter)
    return result


WORKLOADS: Dict[str, Callable[[int, str, Optional[SpanRecorder]], SliceResult]] = {
    "serve": serve_slice,
    "update-stream": stream_slice,
    "heap-update": heap_slice,
}
