"""Host-time spans around each layer's public entry points.

A traced slice installs wrappers (:func:`install`) around the entry
points listed in :data:`ENTRY_POINTS`; every wrapped call becomes one
span ``(name, start_ns, end_ns, parent, run)`` kept in memory by a
:class:`SpanRecorder`. A layer's self time is its span time minus the
time its child spans cover. Nothing is patched outside a traced slice:
the untraced slices run the program exactly as shipped, apart from the
one cheap :class:`PauseMeter` that every slice needs.

:data:`LAYER_METRICS` is the per-layer metric table: the unit, the
better-direction, how the value is derived, and which end-to-end
metric on which workload it should move. ``BENCHMARK.json`` lists the
same names; ``README.md`` prints the table.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: ``(module, attribute path, span name)``: the layer boundaries. A
#: dotted attribute path patches a method on a class, so every VM in the
#: process goes through the wrapper. A missing attribute is an error, not
#: a silent zero: the benchmark must follow the program's refactors.
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.compiler.compile", "parse", "lang.parse"),
    ("repro.lang.symbols", "ProgramSymbols.build", "lang.typecheck"),
    ("repro.lang.typechecker", "TypeChecker.check_program", "lang.typecheck"),
    ("repro.compiler.codegen", "ClassCodegen.compile_class", "compiler.codegen"),
    ("repro.bytecode.verifier", "Verifier.verify_method", "bytecode.verify"),
    ("repro.vm.classloader", "ClassLoader.load", "vm.classloader.load"),
    ("repro.vm.jit", "JITCompiler.compile_base", "vm.jit.compile"),
    ("repro.vm.jit", "JITCompiler.compile_opt", "vm.jit.compile"),
    ("repro.vm.vm", "VM.run", "vm.scheduler"),
    ("repro.vm.interpreter", "Interpreter.run_thread", "vm.interpreter"),
    ("repro.vm.vm", "VM.run_static_method_synchronously", "vm.interpreter.sync"),
    ("repro.vm.interpreter", "Interpreter._invoke_native", "vm.natives"),
    ("repro.vm.gc", "SemiSpaceCollector.collect", "vm.gc"),
    ("repro.dsu.upt", "prepare_update", "dsu.upt.prepare"),
    ("repro.analysis", "classify_update", "analysis.confree"),
    ("repro.analysis.osrmap", "compute_osr_plans", "analysis.osrmap"),
    ("repro.dsu.engine", "UpdateEngine.submit", "dsu.engine.submit"),
    ("repro.dsu.engine", "UpdateEngine.drain_lazy_epoch", "dsu.lazy.drain"),
    ("repro.dsu.engine", "UpdateEngine._lazy_sweep_slice", "dsu.lazy.drain"),
)

#: span name of the world-stopped hook (:class:`PauseMeter`) and of one
#: event-queue callback (the load generator's clients, the update fire)
STOPPED_SPAN = "dsu.engine.stopped"
EVENT_SPAN = "vm.events"


class SpanRecorder:
    """In-memory spans of one process, with per-name self time."""

    def __init__(self, run_id: int = 0) -> None:
        self.run_id = run_id
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        #: ``(name id, start ns, end ns, parent index or -1, run id)``
        self.spans: List[Optional[tuple]] = []
        self._stack: List[list] = []
        self.self_ns: Counter = Counter()
        #: time of the outermost span of each name (nested same-name spans
        #: are not counted twice)
        self.inclusive_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self._depth: Counter = Counter()
        #: counts recorded at the same boundaries (see :func:`install`)
        self.counts: Counter = Counter()

    def call(self, name: str, fn: Callable, *args, **kwargs):
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1][0] if self._stack else -1
        frame = [index, 0]
        self._stack.append(frame)
        self._depth[name] += 1
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self._depth[name] -= 1
            duration = end - start
            self.self_ns[name] += duration - frame[1]
            if not self._depth[name]:
                self.inclusive_ns[name] += duration
            self.calls[name] += 1
            if self._stack:
                self._stack[-1][1] += duration
            self.spans[index] = (name_id, start, end, parent, self.run_id)

    def in_span(self, name: str) -> bool:
        return self._depth[name] > 0

    def write(self, path) -> None:
        """One JSON header line, then one JSON array per span."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({
                "names": self.names,
                "fields": ["name", "start_ns", "end_ns", "parent", "run"],
            }) + "\n")
            for span in self.spans:
                if span is not None:
                    handle.write(json.dumps(span) + "\n")


class PauseMeter:
    """The one wrapper every slice keeps: host time inside
    ``vm.on_world_stopped`` (the safe-point scan and, once the world is
    stopped, the whole update), per VM."""

    def __init__(self, vm, recorder: Optional[SpanRecorder] = None):
        self._inner = vm.on_world_stopped
        self._recorder = recorder
        self.pending_ns = 0
        self.calls = 0
        vm.on_world_stopped = self

    def __call__(self) -> None:
        start = time.perf_counter_ns()
        try:
            if self._recorder is None:
                self._inner()
            else:
                self._recorder.call(STOPPED_SPAN, self._inner)
        finally:
            self.pending_ns += time.perf_counter_ns() - start
            self.calls += 1

    def take_ms(self) -> float:
        """Host ms accumulated since the last call."""
        value, self.pending_ns = self.pending_ns, 0
        return value / 1e6


def _resolve(module_name: str, path: str):
    owner: Any = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _wrap(recorder: SpanRecorder, name: str, original: Callable,
          attribute: str) -> Callable:
    """A span around ``original``; three boundaries also count the work
    they are handed (sources compiled, classes loaded, quanta run)."""
    counts = recorder.counts
    if attribute == "parse":
        def wrapper(source, *args, **kwargs):
            counts["compiler.compiles"] += 1
            counts["compiler.source_bytes"] += len(source)
            return recorder.call(name, original, source, *args, **kwargs)
    elif attribute == "load":
        def wrapper(*args, **kwargs):
            created = recorder.call(name, original, *args, **kwargs)
            counts["vm.classloader.classes"] += len(created)
            return created
    elif attribute == "run_thread":
        def wrapper(*args, **kwargs):
            if not recorder.in_span("vm.interpreter.sync"):
                counts["vm.interpreter.quanta"] += 1
            return recorder.call(name, original, *args, **kwargs)
    else:
        def wrapper(*args, **kwargs):
            return recorder.call(name, original, *args, **kwargs)
    return wrapper


def install(recorder: SpanRecorder) -> Callable[[], None]:
    """Patch every entry point; returns the function that restores them."""
    from repro.vm.events import EventQueue

    restore: List[Tuple[Any, str, Any]] = []
    for module_name, path, name in ENTRY_POINTS:
        owner, attribute = _resolve(module_name, path)
        original = owner.__dict__[attribute]
        restore.append((owner, attribute, original))
        if isinstance(original, classmethod):
            wrapped = classmethod(
                _wrap(recorder, name, original.__func__, attribute))
        else:
            wrapped = _wrap(recorder, name, original, attribute)
        setattr(owner, attribute, wrapped)

    schedule = EventQueue.__dict__["schedule"]

    def traced_schedule(queue, time_ms, callback):
        return schedule(
            queue, time_ms, lambda: recorder.call(EVENT_SPAN, callback)
        )

    restore.append((EventQueue, "schedule", schedule))
    EventQueue.schedule = traced_schedule

    def uninstall() -> None:
        for owner, attribute, original in reversed(restore):
            setattr(owner, attribute, original)

    return uninstall


# ---------------------------------------------------------------------------
# the per-layer metric table

#: name -> (unit, better, source, moves). ``source`` is ``self:<span>``
#: (self ms), ``incl:<span>`` (inclusive ms), ``calls:<span>``,
#: ``count:<key>`` (a :class:`SpanRecorder` count), ``slice:<key>`` (a
#: count every slice records from the program's own state, see
#: ``workloads.SliceResult.counts``) or ``bench:<key>`` (derived in
#: ``run.py``). ``moves`` names the end-to-end metric the layer should
#: move and on which workload.
_FRONTEND = "update_host_ms_p50 on update-stream; setup_s everywhere"
_LOADING = "pause_host_ms_p50 and run_s on update-stream; setup_s"
_INTERPRETER = "instr_per_s, run_s and requests_per_s on serve"
_EAGER = "pause_host_ms_p50 on heap-update (eager)"
_NET = "requests_per_s on serve"
_GC = "pause_host_ms_p50 on heap-update; run_s on serve a little"
_PREPARE = "update_host_ms_p50 on update-stream"
_SAFEPOINT = "pause_host_ms_p50 on heap-update; run_s on update-stream"
_LAZY = "run_s on update-stream (lazy)"
_OBS = "peak_rss_mb on serve and update-stream"

LAYER_METRICS: Dict[str, Tuple[str, str, str, str]] = {
    # frontend
    "lang.parse_ms": ("ms", "lower", "self:lang.parse", _FRONTEND),
    "lang.typecheck_ms": ("ms", "lower", "self:lang.typecheck", _FRONTEND),
    "compiler.codegen_ms": ("ms", "lower", "self:compiler.codegen", _FRONTEND),
    "compiler.compiles": ("count", "lower", "count:compiler.compiles",
                          _FRONTEND),
    "compiler.source_kb": ("KiB", "lower", "count:compiler.source_kb",
                           _FRONTEND),
    # verifier, class loading and JIT
    "bytecode.verify_ms": ("ms", "lower", "self:bytecode.verify", _LOADING),
    "vm.classloader.load_ms": ("ms", "lower", "self:vm.classloader.load",
                               _LOADING),
    "vm.classloader.classes": ("count", "lower",
                               "count:vm.classloader.classes", _LOADING),
    "vm.jit.compile_ms": ("ms", "lower", "self:vm.jit.compile", _LOADING),
    "vm.jit.base_compiles": ("count", "lower", "slice:jit.base_compiles",
                             _LOADING),
    "vm.jit.opt_compiles": ("count", "lower", "slice:jit.opt_compiles",
                            _LOADING),
    # scheduler and interpreter
    "vm.scheduler.self_ms": ("ms", "lower", "self:vm.scheduler",
                             "run_s on serve and update-stream"),
    "vm.interpreter.self_ms": ("ms", "lower", "self:vm.interpreter",
                               _INTERPRETER),
    "vm.interpreter.instructions": ("count", "lower", "slice:instructions",
                                    _INTERPRETER),
    "vm.interpreter.quanta": ("count", "lower", "count:vm.interpreter.quanta",
                              _INTERPRETER),
    "vm.interpreter.sync_runs": ("count", "lower", "calls:vm.interpreter.sync",
                                 _EAGER),
    "vm.interpreter.sync_ms": ("ms", "lower", "incl:vm.interpreter.sync",
                               _EAGER),
    # natives and net
    "vm.natives.ms": ("ms", "lower", "self:vm.natives", _NET),
    "vm.natives.calls": ("count", "lower", "calls:vm.natives", _NET),
    "net.requests": ("count", "higher", "slice:net.requests", _NET),
    "net.bytes": ("bytes", "higher", "slice:net.bytes", _NET),
    "net.sessions_failed": ("count", "lower", "slice:net.sessions_failed",
                            "sessions_failed_share on update-stream"),
    # load generator
    "vm.events.ms": ("ms", "lower", "self:vm.events",
                     "its own share of run_s on serve; must stay small"),
    # GC
    "vm.gc.ms": ("ms", "lower", "self:vm.gc", _GC),
    "vm.gc.collections": ("count", "lower", "slice:gc.collections", _GC),
    "vm.gc.cells_copied": ("count", "lower", "slice:gc.cells_copied", _GC),
    # UPT and analysis
    "dsu.upt.prepare_ms": ("ms", "lower", "self:dsu.upt.prepare", _PREPARE),
    "analysis.confree_ms": ("ms", "lower", "self:analysis.confree", _PREPARE),
    "analysis.osrmap_ms": ("ms", "lower", "self:analysis.osrmap", _PREPARE),
    # DSU engine
    "dsu.engine.submit_ms": ("ms", "lower", "self:dsu.engine.submit",
                             _PREPARE),
    "dsu.engine.stopped_ms": ("ms", "lower", "self:" + STOPPED_SPAN, _EAGER),
    "dsu.safepoint.scans": ("count", "lower", "slice:safepoint.scans",
                            _SAFEPOINT),
    "dsu.safepoint.useful_ratio": ("ratio", "higher", "bench:useful_ratio",
                                   _SAFEPOINT),
    "dsu.transformer_invocations": ("count", "lower",
                                    "slice:dsu.transformer_invocations",
                                    _EAGER),
    "dsu.lazy.touch_transforms": ("count", "lower",
                                  "slice:dsu.lazy.touch_transforms", _LAZY),
    "dsu.lazy.sweep_transforms": ("count", "lower",
                                  "slice:dsu.lazy.sweep_transforms", _LAZY),
    "dsu.lazy.drain_ms": ("ms", "lower", "incl:dsu.lazy.drain", _LAZY),
    # obs
    "obs.spans_retained": ("count", "lower", "slice:obs.spans_retained",
                           _OBS),
    "obs.metric_series": ("count", "lower", "slice:obs.metric_series", _OBS),
    # the benchmark itself
    "bench.outside_spans_ms": ("ms", "lower", "bench:outside_spans_ms",
                               "run_s everywhere: client and benchmark glue"),
    "bench.untraced_run_s": ("s", "lower", "bench:untraced_run_s",
                             "baseline of the tracing overhead"),
    "bench.traced_run_s": ("s", "lower", "bench:traced_run_s",
                           "run_s with every wrapper installed"),
    "bench.trace_overhead_s": ("s", "lower", "bench:trace_overhead_s",
                               "traced run_s minus untraced run_s"),
}


def layer_values(recorder: SpanRecorder, slice_counts: Dict[str, float],
                 wall_ms: float) -> Dict[str, float]:
    """The ``self:``/``incl:``/``calls:``/``count:``/``slice:`` metrics of
    one traced slice (``bench:`` metrics are derived by the caller)."""
    counts = dict(recorder.counts)
    counts["compiler.source_kb"] = counts.pop("compiler.source_bytes", 0) / 1024
    values: Dict[str, float] = {}
    for metric, (_, _, source, _) in LAYER_METRICS.items():
        kind, _, key = source.partition(":")
        if kind == "self":
            values[metric] = recorder.self_ns[key] / 1e6
        elif kind == "incl":
            values[metric] = recorder.inclusive_ns[key] / 1e6
        elif kind == "calls":
            values[metric] = recorder.calls[key]
        elif kind == "count":
            values[metric] = counts.get(key, 0)
        elif kind == "slice":
            values[metric] = slice_counts.get(key, 0)
    covered_ns = sum(recorder.self_ns.values())
    values["bench.outside_spans_ms"] = wall_ms - covered_ns / 1e6
    return values
