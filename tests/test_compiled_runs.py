"""Compiled straight-line runs and the reused synchronous thread.

Differential: each program runs once with every eligible run compiled at
its first entry (``MIN_RUN`` and ``HOT`` at 1) and once with no runs at
all, and must leave the same simulated clock, instruction count, console,
trap log and heap. Then the synchronous-thread contract: the transformer
thread is reused across objects, yet a trapping transformer, a nested
``forceTransform`` and the thread list behave as with a fresh thread per
object.
"""

from __future__ import annotations

import pytest

from repro.compiler.compile import compile_source
from repro.dsu.engine import UpdateEngine, UpdateRequest
from repro.dsu.policy import UpdatePolicy
from repro.dsu.safepoint import RetryPolicy
from repro.dsu.upt import prepare_update
from repro.harness import microbench
from repro.harness.lazyheap import heap_fingerprint
from repro.vm import interpreter
from repro.vm.frames import VMThread
from repro.vm.vm import VM, VMError
from tests.conftest import make_vm, run_main
from tests.dsu_helpers import UpdateFixture

EAGER = UpdatePolicy(retry=RetryPolicy(timeout_ms=5_000.0))
LAZY = UpdatePolicy(retry=RetryPolicy(timeout_ms=5_000.0), transform="lazy")


def _compiles() -> int:
    info = interpreter._compile_run.cache_info()
    return info.hits + info.misses


def _observe(vm: VM) -> dict:
    return {
        "cycles": vm.clock.cycles,
        "instructions": vm.interpreter.instructions_executed,
        "console": list(vm.console),
        "trap_log": list(vm.trap_log),
        "heap": heap_fingerprint(vm),
    }


def _both_tiers(monkeypatch, scenario):
    """``scenario()``'s observations with runs compiled at first entry and
    with runs disabled; asserts the first setting compiled some."""
    monkeypatch.setattr(interpreter, "MIN_RUN", 1)
    monkeypatch.setattr(interpreter, "HOT", 1)
    before = _compiles()
    compiled = scenario()
    assert _compiles() > before, "no run was compiled"
    monkeypatch.setattr(interpreter, "MIN_RUN", 10**9)
    plain = scenario()
    return compiled, plain


def _table1_update() -> dict:
    """A small paper Table 1 heap: half the objects change class, one
    eager update runs one straight-line transformer per changed one."""
    count = 120
    vm = VM(heap_cells=microbench.heap_cells_for(count))
    old = compile_source(microbench.MICRO_V1, version="micro1")
    vm.boot(old)
    vm.start_main("Main")
    vm.run(max_instructions=10_000)
    microbench.populate(vm, count, 0.5)
    items = vm.jtoc.read(vm.registry.get("Holder").static_slots["items"])
    for index in range(count):
        address = vm.objects.array_get(items, index)
        for offset, name in enumerate("abc"):
            vm.objects.write_field(address, name, 3 * index + offset)
    new = compile_source(microbench.MICRO_V2, version="micro2")
    prepared = prepare_update(old, new, "micro1", "micro2")
    result = UpdateEngine(vm).submit(UpdateRequest(prepared, policy=EAGER))
    vm.run(max_instructions=1_000_000)
    assert result.succeeded, result.reason
    assert result.objects_transformed == count // 2
    return dict(_observe(vm), pause_ms=result.total_pause_ms)


LAZY_V1 = """
class A { int x; int y; A peer; }
class Pool {
    static A first;
    static A second;
    static void fill() {
        Pool.first = new A();
        Pool.second = new A();
        Pool.first.x = 3;
        Pool.second.x = 4;
        Pool.first.peer = Pool.second;
    }
}
class Main {
    static int rounds;
    static int total;
    static void main() {
        Pool.fill();
        while (rounds < 12) {
            Sys.sleep(10);
            rounds = rounds + 1;
            A a = Pool.first;
            A b = Pool.second;
            total = total + a.x + a.y + b.x + b.y + a.peer.x;
            a.y = a.y + 1;
            Sys.print("" + total + "@" + Sys.time());
        }
    }
}
"""
LAZY_V2 = LAZY_V1.replace("class A { int x; int y; A peer; }",
                          "class A { int x; int y; A peer; int z; }")
LAZY_OVERRIDES = {"A": """
    static void jvolveObject(A to, v10_A from) {
        to.x = from.x;
        to.y = from.y;
        to.peer = from.peer;
        to.z = from.x * 10 + from.y - 1;
    }
"""}


def _lazy_update() -> dict:
    """A lazy epoch kept open (no sweep): the program's field reads go
    through the read barrier, which transforms objects on first touch."""
    fixture = UpdateFixture(LAZY_V1, heap_cells=1 << 14)
    fixture.engine._lazy_sweep_slice = lambda target_ms: None
    fixture.start()
    holder = fixture.update_at(55, LAZY_V2, policy=LAZY, overrides=LAZY_OVERRIDES)
    fixture.run(until_ms=200)
    vm = fixture.vm
    assert holder["result"].succeeded, holder["result"].reason
    assert fixture.engine.lazy_epoch is not None
    touches = vm.metrics.counters["dsu.lazy.touch_transforms"].value
    assert touches == 2
    return dict(_observe(vm), touches=touches)


TRAPS = """
class A { int x; }
class Pool { static A missing; static int zero; }
class Divider {
    void run() {
        int x = 7;
        int y = 3;
        int z = x * y + x - y;
        Sys.print("div " + z);
        int w = x + y + z * 2 + x / Pool.zero + y;
        Sys.print("unreachable " + w);
    }
}
class Reader {
    void run() {
        int x = 7;
        int y = 3;
        int z = x * y + x - y;
        Sys.print("read " + z);
        int w = x + y + z * 2 + Pool.missing.x + y;
        Sys.print("unreachable " + w);
    }
}
class Main {
    static void main() {
        Sys.spawn(new Divider());
        Sys.spawn(new Reader());
        Sys.spawn(new Divider());
    }
}
"""

QUANTA = """
class Worker {
    string tag;
    int step;
    Worker(string tag, int step) { this.tag = tag; this.step = step; }
    void run() {
        int i = 0;
        int s = 0;
        int t = 1;
        while (i < 25) {
            s = s + i * step - t / 2 + i % 3;
            t = t + s * 2 - i + step;
            i = i + 1;
            if (i % 5 == 0) { Sys.print(tag + s + ":" + t + "@" + Sys.time()); }
        }
    }
}
class Main {
    static void main() {
        Sys.spawn(new Worker("a", 3));
        Sys.spawn(new Worker("b", 7));
    }
}
"""


class TestCompiledRunsMatchPerPcHandlers:
    def test_table1_eager_update(self, monkeypatch):
        compiled, plain = _both_tiers(monkeypatch, _table1_update)
        assert compiled == plain

    def test_lazy_epoch_barrier_fallback(self, monkeypatch):
        compiled, plain = _both_tiers(monkeypatch, _lazy_update)
        assert compiled == plain
        assert len(plain["console"]) == 12

    def test_traps_inside_runs(self, monkeypatch):
        compiled, plain = _both_tiers(
            monkeypatch, lambda: _observe(run_main(TRAPS))
        )
        assert compiled == plain
        assert sorted(plain["trap_log"]) == [
            "Divider.run: division by zero",
            "Divider.run: division by zero",
            "Reader.run: null dereference",
        ]

    @pytest.mark.parametrize("quantum", [7, 37, 400])
    def test_quantum_boundaries_after_runs(self, monkeypatch, quantum):
        compiled, plain = _both_tiers(
            monkeypatch, lambda: _observe(run_main(QUANTA, quantum=quantum))
        )
        assert compiled == plain
        assert len(plain["console"]) == 10


# ---------------------------------------------------------------------------
# the reused synchronous thread

SYNC_V1 = """
class A { int x; A peer; }
class Pool {
    static A[] items;
    static void fill(int count, int hole) {
        Pool.items = new A[count];
        for (int i = 0; i < count; i = i + 1) {
            Pool.items[i] = new A();
            Pool.items[i].x = i;
        }
        for (int i = 0; i < count; i = i + 1) {
            if (i != hole) { Pool.items[i].peer = Pool.items[(i + 1) % count]; }
        }
    }
}
class Main {
    static int rounds;
    static int hole;
    static void main() {
        Pool.fill(40, hole);
        while (rounds < 100) { Sys.sleep(10); rounds = rounds + 1; }
    }
}
"""
SYNC_V2 = SYNC_V1.replace("class A { int x; A peer; }",
                          "class A { int x; A peer; int next; }")
#: reads the peer's field: traps on the one object whose peer is null
PEER_READING = {"A": """
    static void jvolveObject(A to, v10_A from) {
        to.x = from.x;
        to.peer = from.peer;
        to.next = from.peer.x;
    }
"""}
#: an even object forces its odd peer's transformer first (a nested
#: synchronous run) and reads its result
PEER_FORCING = {"A": """
    static void jvolveObject(A to, v10_A from) {
        to.x = from.x;
        to.peer = from.peer;
        if (to.x % 2 == 0) {
            Sys.forceTransform(to.peer);
            to.next = to.peer.x + to.peer.next;
        } else {
            to.next = 1000;
        }
    }
"""}


def _sync_update(hole: int, overrides):
    fixture = UpdateFixture(SYNC_V1, heap_cells=1 << 15)
    vm = fixture.vm
    vm.jtoc.write(vm.registry.get("Main").static_slots["hole"], hole)
    fixture.start()
    holder = fixture.update_at(55, SYNC_V2, policy=EAGER, overrides=overrides)
    fixture.run(until_ms=50)
    threads = list(vm.threads)
    before = heap_fingerprint(vm)
    next_id = VMThread._next_id
    fixture.run(until_ms=60)
    return fixture, holder["result"], threads, before, VMThread._next_id - next_id


class TestSyncThreadReuse:
    def test_trap_after_many_transformers_aborts_like_the_first(self):
        fixture, first, threads, before, _ = _sync_update(0, PEER_READING)
        late, late_result, late_threads, late_before, _ = _sync_update(
            39, PEER_READING
        )
        for fx, result, threads_before, heap_before in (
            (fixture, first, threads, before),
            (late, late_result, late_threads, late_before),
        ):
            assert result.status == "aborted"
            assert (result.failed_phase, result.reason_code) == (
                "transform", "transformer-error"
            )
            assert result.rolled_back
            assert heap_fingerprint(fx.vm) == heap_before
            assert fx.vm.threads == threads_before
        assert "null dereference" in late_result.reason
        assert late_result.reason == first.reason
        # The 39 objects before the trapping one did run their transformers.
        assert late.vm.metrics.counters["dsu.transformer_invocations"].value == 39

    def test_nested_force_transform_and_thread_list(self):
        fixture, result, threads, _, created = _sync_update(-1, PEER_FORCING)
        vm = fixture.vm
        assert result.succeeded, result.reason
        assert vm.threads == threads
        # One thread for the outer runs and one for the nested ones, not
        # one per object.
        assert created == 2
        objects = vm.objects
        items = objects.canonical_address(
            vm.jtoc.read(vm.registry.get("Pool").static_slots["items"])
        )
        nexts = [
            objects.read_field(objects.array_get(items, i), "next")
            for i in range(40)
        ]
        assert nexts == [1000 + i + 1 if i % 2 == 0 else 1000 for i in range(40)]
        invocations = vm.metrics.counters["dsu.transformer_invocations"].value
        assert invocations == 40

    def test_a_trapped_sync_thread_is_reused_clean(self):
        vm = make_vm("""
        class S {
            static int ok(int x) { return x + 1; }
            static int bad(int x) { return x / (x - x); }
        }
        """)
        ok = vm.methods.lookup("S", "ok", "(I)I")
        bad = vm.methods.lookup("S", "bad", "(I)I")
        assert vm.run_static_method_synchronously(ok, [1]) == 2
        with pytest.raises(VMError, match="bad.*: division by zero"):
            vm.run_static_method_synchronously(bad, [1])
        assert vm.run_static_method_synchronously(ok, [5]) == 6
        assert vm.trap_log == ["sync:S.bad(I)I: division by zero"]
        assert vm.threads == []
