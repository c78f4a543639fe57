"""Unit tests for the interpreter and the cooperative scheduler."""

import dataclasses

import pytest

from repro.bytecode.instructions import Instr
from repro.compiler.compile import compile_source
from repro.dsu.transaction import UpdateTransaction
from repro.vm import natives
from repro.vm.frames import Frame, VMThread
from repro.vm.interpreter import RAN_QUANTUM, THREAD_DIED
from repro.vm.osr import osr_replace
from repro.vm.vm import VM

from tests.conftest import make_vm, run_main


class TestInterpreterSemantics:
    def test_integer_division_truncates_toward_zero(self):
        vm = run_main(
            """
            class Main {
                static void main() {
                    Sys.print("" + (7 / 2) + "," + ((0 - 7) / 2));
                    Sys.print("" + (7 % 2) + "," + ((0 - 7) % 2));
                }
            }
            """
        )
        assert vm.console == ["3,-3", "1,-1"]

    def test_short_circuit_evaluation_skips_side_effects(self):
        vm = run_main(
            """
            class Main {
                static int calls;
                static bool bump() { calls = calls + 1; return true; }
                static void main() {
                    bool a = false && bump();
                    bool b = true || bump();
                    Sys.print("" + calls);
                }
            }
            """
        )
        assert vm.console == ["0"]

    def test_string_concat_coerces_ints_and_bools(self):
        vm = run_main(
            """
            class Main {
                static void main() { Sys.print("v=" + 3 + ":" + true); }
            }
            """
        )
        assert vm.console == ["v=3:true"]

    def test_null_string_concat_renders_null(self):
        vm = run_main(
            """
            class Main {
                static void main() { string s = null; Sys.print("x" + s); }
            }
            """
        )
        assert vm.console == ["xnull"]

    def test_deep_recursion_overflows_cleanly(self):
        vm = run_main(
            """
            class Main {
                static int down(int n) { return down(n + 1); }
                static void main() { down(0); }
            }
            """
        )
        assert any("stack overflow" in line for line in vm.trap_log)

    def test_null_field_access_kills_only_its_thread(self):
        vm = run_main(
            """
            class Box { int v; }
            class Getter {
                void run() { Box b = null; Sys.print("got " + b.v); }
            }
            class Putter {
                void run() { Box b = null; b.v = 3; Sys.print("put"); }
            }
            class Beater {
                void run() {
                    for (int i = 0; i < 5; i = i + 1) {
                        Sys.sleep(10);
                        Main.beats = Main.beats + 1;
                    }
                    Sys.print("beats " + Main.beats);
                }
            }
            class Main {
                static int beats;
                static void main() {
                    Sys.spawn(new Beater());
                    Sys.spawn(new Getter());
                    Sys.spawn(new Putter());
                }
            }
            """
        )
        assert vm.trap_log == [
            "Getter.run: null dereference",
            "Putter.run: null dereference",
        ]
        assert vm.console == ["beats 5"]

    def test_obsolete_method_call_traps(self):
        # Directly mark an entry obsolete and call it: the guard fires.
        vm = make_vm(
            """
            class T { static void gone() { } }
            class Main { static void main() { T.gone(); } }
            """
        )
        vm.methods.lookup("T", "gone", "()V").obsolete = True
        vm.start_main("Main")
        vm.run(max_instructions=10_000)
        assert any("obsolete" in line for line in vm.trap_log)

    def test_thread_result_captured(self):
        vm = make_vm("class Main { static int main2() { return 41; } }")
        entry = vm.methods.lookup("Main", "main2", "()I")
        result = vm.run_static_method_synchronously(entry)
        assert result == 41


class TestScheduler:
    def test_quantum_interleaves_threads_fairly(self):
        vm = run_main(
            """
            class Busy {
                int id;
                Busy(int id0) { this.id = id0; }
                void run() {
                    for (int i = 0; i < 5; i = i + 1) {
                        Sys.print(id + "." + i);
                    }
                }
            }
            class Main {
                static void main() {
                    Sys.spawn(new Busy(1));
                    Sys.spawn(new Busy(2));
                }
            }
            """,
            quantum=30,  # small quantum forces interleaving
        )
        order = vm.console
        assert sorted(order) == sorted(
            [f"{t}.{i}" for t in (1, 2) for i in range(5)]
        )
        # With a small quantum, output from the two threads interleaves.
        first_thread = order[0].split(".")[0]
        assert any(not line.startswith(first_thread) for line in order[:6])

    def test_sys_yield_parks_thread(self):
        vm = run_main(
            """
            class Poller {
                void run() {
                    for (int i = 0; i < 3; i = i + 1) { Sys.print("p" + i); }
                }
            }
            class Main {
                static void main() {
                    Sys.spawn(new Poller());
                    Sys.yield();
                    Sys.print("after-yield");
                }
            }
            """,
            quantum=10_000,  # big quantum: only the explicit yield switches
        )
        # The poller got to run before main's post-yield print.
        assert vm.console.index("p0") < vm.console.index("after-yield")

    def test_run_until_ms_stops_at_deadline(self):
        vm = make_vm(
            """
            class Main {
                static void main() { while (true) { Sys.sleep(10); } }
            }
            """
        )
        vm.start_main("Main")
        vm.run(until_ms=120)
        assert 120 <= vm.clock.now_ms < 140
        assert vm.threads  # still alive, just paused

    def test_idle_vm_returns_instead_of_spinning(self):
        vm = make_vm("class Main { static void main() { } }")
        vm.start_main("Main")
        vm.run()  # returns promptly once everything is dead
        assert not vm.threads

    def test_blocked_thread_wakes_on_condition(self):
        vm = make_vm(
            """
            class Echo {
                void run() {
                    int lfd = Net.listen(9);
                    int fd = Net.accept(lfd);
                    Net.write(fd, Net.readLine(fd) + "!\\n");
                }
            }
            class Main { static void main() { Sys.spawn(new Echo()); } }
            """
        )
        vm.start_main("Main")
        vm.run(until_ms=20)  # server parks in accept
        endpoint = vm.network.client_connect(9)
        endpoint.send("hi\n")
        vm.run(until_ms=60)
        assert endpoint.receive_line() == "hi!"

    def test_trapped_thread_does_not_stop_others(self):
        vm = run_main(
            """
            class Crasher { void run() { int z = 0; int x = 1 / z; } }
            class Main {
                static void main() {
                    Sys.spawn(new Crasher());
                    Sys.sleep(20);
                    Sys.print("survived");
                }
            }
            """
        )
        assert vm.console == ["survived"]
        assert any("division" in line for line in vm.trap_log)

    # -- the scheduler contract: one pass runs the due events, wakes and
    # collects threads in list order, then runs the next runnable thread
    # round-robin for one quantum, or stalls idle until the next wake

    def test_round_robin_order_and_cycles_are_pinned(self):
        vm = run_main(
            """
            class Busy {
                int id;
                Busy(int id0) { this.id = id0; }
                void run() {
                    for (int i = 0; i < 4; i = i + 1) {
                        Sys.print(id + "." + i);
                    }
                }
            }
            class Main {
                static void main() {
                    Sys.spawn(new Busy(1));
                    Sys.spawn(new Busy(2));
                    Sys.spawn(new Busy(3));
                }
            }
            """,
            quantum=30,
        )
        assert vm.console == [
            "1.0", "1.1", "2.0", "2.1", "2.2", "2.3",
            "3.0", "3.1", "1.2", "1.3", "3.2", "3.3",
        ]
        assert vm.clock.cycles == 8741
        assert vm.interpreter.instructions_executed == 274

    def test_event_due_now_runs_before_the_wake_scan(self):
        vm = make_vm(
            """
            class Main {
                static void main() {
                    int fd = Net.accept(Net.listen(9));
                    Sys.print("accepted@" + Sys.time());
                }
            }
            """
        )
        fired = []

        def connect():
            fired.append(vm.clock.now_ms)
            vm.network.client_connect(9)

        vm.events.schedule(5.0, connect)
        vm.start_main("Main")
        vm.run(until_ms=50)
        # Main parks in accept and the VM stalls to the event. In the next
        # pass the event is due at exactly ``now`` and runs before the
        # wake scan, so the scan sees the connection: main resumes at the
        # event's time, after that one stall and no other.
        assert fired == [5.0]
        assert vm.console == ["accepted@5"]
        assert vm.metrics.counters["sched.idle_stalls"].value == 1

    def test_idle_stall_runs_the_work_hook_once_with_its_target(self):
        vm = make_vm(
            """
            class Main {
                static void main() { while (true) { Sys.sleep(10); } }
            }
            """
        )
        calls = []

        def hook(target_ms):
            calls.append((target_ms, vm.clock.now_ms))
            vm.clock.tick(1_000)  # background work consumes part of it

        vm.idle_work_hook = hook
        vm.start_main("Main")
        vm.run(until_ms=35)
        stalls = vm.metrics.counters["sched.idle_stalls"].value
        idle_ms = vm.metrics.histograms["sched.idle_ms"]
        assert len(calls) == stalls == idle_ms.count == 4
        assert all(target > before for target, before in calls)
        # The last stall stops at ``until_ms`` exactly; the clock ends at
        # or past every target.
        assert calls[-1][0] == 35
        assert vm.clock.now_ms >= 35
        # Each stall lasts from its start to (at least) its target.
        assert idle_ms.total >= sum(t - before for t, before in calls)

    def test_pending_update_runs_before_the_clock_advances(self):
        vm = make_vm(
            """
            class Main {
                static void main() { while (true) { Sys.sleep(10); } }
            }
            """
        )
        vm.start_main("Main")
        vm.run(until_ms=5)
        before = vm.clock.now_ms
        stalls = vm.metrics.counters["sched.idle_stalls"].value
        seen = []

        def world_stopped():
            seen.append(
                (vm.clock.now_ms, vm.metrics.counters["sched.idle_stalls"].value)
            )
            vm.update_pending = False

        vm.update_pending = True
        vm.on_world_stopped = world_stopped
        vm.run(until_ms=20)
        # The sleeper is blocked, so the first pass is a safe point: the
        # hook runs there, before any idle stall moves the clock.
        assert seen == [(before, stalls)]
        assert vm.clock.now_ms == 20

    def test_instruction_budget_stops_at_the_first_quantum_boundary(self):
        vm = make_vm(
            """
            class Main {
                static void main() {
                    int i = 0;
                    while (true) { i = i + 1; }
                }
            }
            """,
            quantum=100,
        )
        vm.start_main("Main")
        run_thread = vm.interpreter.run_thread
        quanta = []

        def counting(thread, quantum):
            before = vm.interpreter.instructions_executed
            reason = run_thread(thread, quantum)
            quanta.append(vm.interpreter.instructions_executed - before)
            return reason

        vm.interpreter.run_thread = counting
        vm.run(max_instructions=250)
        assert sum(quanta[:-1]) < 250 <= sum(quanta)
        assert vm.interpreter.instructions_executed == sum(quanta)


def _hand_built(instructions):
    """A VM plus a thread whose one frame runs ``instructions`` (machine
    code, used as is: never verified, never resolved)."""
    vm = make_vm("class T { static void f() { } }")
    code = vm.jit.compile_base(vm.methods.lookup("T", "f", "()V"))
    code = dataclasses.replace(code, instructions=list(instructions))
    thread = VMThread()
    thread.frames.append(Frame(code, [], 0))
    vm.threads.append(thread)
    return vm, thread


class TestInterpreterContract:
    def test_unknown_opcode_traps_only_when_reached(self):
        skipped = [
            Instr("CONST_INT", 1),
            Instr("JUMP_IF_TRUE", 3),
            Instr("BOGUS"),
            Instr("RETURN"),
        ]
        vm, thread = _hand_built(skipped)
        while thread.is_alive():
            vm.interpreter.run_thread(thread, 100)
        assert thread.trap_message is None
        assert vm.trap_log == []

        reached = [Instr("CONST_INT", 0)] + skipped[1:]
        vm, thread = _hand_built(reached)
        assert vm.interpreter.run_thread(thread, 100) == THREAD_DIED
        assert thread.trap_message == "unknown opcode BOGUS"
        assert len(vm.trap_log) == 1

    def test_trapping_div_is_neither_counted_nor_ticked(self):
        vm, thread = _hand_built([
            Instr("CONST_INT", 1),
            Instr("CONST_INT", 0),
            Instr("DIV"),
            Instr("RETURN"),
        ])
        executed = vm.interpreter.instructions_executed
        cycles = vm.clock.cycles
        assert vm.interpreter.run_thread(thread, 100) == THREAD_DIED
        assert thread.trap_message == "division by zero"
        assert vm.interpreter.instructions_executed - executed == 2
        assert vm.clock.cycles - cycles == 2 * vm.clock.costs.instruction

    def test_native_sees_the_cycles_of_the_instructions_before_it(
        self, monkeypatch
    ):
        seen = []

        def probe(context, args):
            seen.append(context.vm.clock.cycles)
            return 0

        monkeypatch.setitem(natives._REGISTRY, "Probe.cycles", probe)
        vm, thread = _hand_built([
            Instr("CONST_INT", 1),
            Instr("POP"),
            Instr("CONST_INT", 2),
            Instr("POP"),
            Instr("INVOKENATIVE", "Probe.cycles", (0, "V")),
            Instr("RETURN"),
        ])
        costs = vm.clock.costs
        start = vm.clock.cycles
        while thread.is_alive():
            vm.interpreter.run_thread(thread, 1_000)
        assert seen == [start + 4 * costs.instruction]
        assert vm.clock.cycles - start == 6 * costs.instruction + costs.native_call

    def test_back_edge_jump_is_a_yield_point_and_forward_jump_is_not(self):
        # pc 0 jumps forward to pc 1, which jumps back to pc 0: a quantum
        # of one instruction ends only at the back edge.
        vm, thread = _hand_built([Instr("JUMP", 1), Instr("JUMP", 0)])
        frame = thread.frames[0]
        for _ in range(3):
            executed = vm.interpreter.instructions_executed
            assert vm.interpreter.run_thread(thread, 1) == RAN_QUANTUM
            assert frame.pc == 0
            assert vm.interpreter.instructions_executed - executed == 2


SUM_PROGRAM = """
class W {
    static int sum(int n) {
        int s = 0;
        int i = 0;
        while (i < n) { s = s + 7; i = i + 1; }
        return s;
    }
}
"""


class TestDispatchFollowsFrameCode:
    """The decoded handler table belongs to the code object, so swapping
    ``frame.code`` swaps the operands the interpreter runs. Both swaps
    keep the method entry and the code length, so a table cached per
    method entry would keep running the old operands. The code the
    rollback restores also reuses the ``id()`` of a freed code object
    that ran before it, so a table cached by ``id()`` would run that
    object's operands."""

    N = 20

    def _frame_on_sum(self):
        vm = make_vm(SUM_PROGRAM)
        entry = vm.methods.lookup("W", "sum", "(I)I")
        code = vm.jit.compile_base(entry)
        thread = VMThread()
        frame = Frame(code, [self.N], 0)
        thread.frames.append(frame)
        vm.threads.append(thread)
        # Park at a loop back edge with some iterations done.
        assert vm.interpreter.run_thread(thread, 20) == RAN_QUANTUM
        assert 0 < frame.locals[2] < self.N
        return vm, entry, thread, frame

    @staticmethod
    def _step_by(instructions, step):
        replaced = [
            Instr("CONST_INT", step) if i == Instr("CONST_INT", 7) else i
            for i in instructions
        ]
        assert replaced != list(instructions)
        return replaced

    def _reusing_a_decoys_id(self, vm, thread, frame, instructions):
        """A copy of ``frame.code`` running ``instructions``, built right
        after a same-length decoy (stepping by 5) ran one quantum in the
        frame and was freed. Retried until the copy gets the decoy's
        ``id()``; the frame is left exactly as it was."""
        code, pc = frame.code, frame.pc
        local_cells, stack_cells = list(frame.locals), list(frame.stack)
        decoy_instructions = self._step_by(code.instructions, 5)
        for _ in range(100):
            frame.code = dataclasses.replace(
                code, instructions=decoy_instructions
            )
            vm.interpreter.run_thread(thread, 20)
            stale = id(frame.code)
            frame.code = code  # frees the decoy
            copy = dataclasses.replace(code, instructions=instructions)
            frame.pc = pc
            frame.locals, frame.stack = list(local_cells), list(stack_cells)
            if id(copy) == stale:
                break
        return copy

    @staticmethod
    def _finish(vm, thread):
        while thread.is_alive():
            vm.interpreter.run_thread(thread, 20)
        return thread.result

    def test_osr_replace_runs_the_new_operands(self):
        vm, entry, thread, frame = self._frame_on_sum()
        old_length = len(frame.code.instructions)
        s, i = frame.locals[1], frame.locals[2]
        assert s == 7 * i
        # Same bytecode length and version, different constant: OSR
        # recompiles against it and swaps the code under the frame.
        entry.info = dataclasses.replace(
            entry.info, instructions=self._step_by(entry.info.instructions, 1000)
        )
        osr_replace(vm, frame)
        assert len(frame.code.instructions) == old_length
        assert self._finish(vm, thread) == s + 1000 * (self.N - i)

    def test_rollback_restores_the_swapped_out_operands(self):
        vm, entry, thread, frame = self._frame_on_sum()
        old_code = frame.code
        s, i = frame.locals[1], frame.locals[2]
        frame.code = self._reusing_a_decoys_id(
            vm, thread, frame, self._step_by(old_code.instructions, 1000)
        )
        transaction = UpdateTransaction(vm)
        # An update swaps the old code back in and runs on it ...
        frame.code = old_code
        vm.interpreter.run_thread(thread, 20)
        assert frame.locals[1] == 7 * frame.locals[2]
        # ... and the rollback swaps the snapshot's code back under it.
        transaction.rollback()
        assert frame.code is not old_code
        assert (frame.locals[1], frame.locals[2]) == (s, i)
        assert self._finish(vm, thread) == s + 1000 * (self.N - i)


class TestSleepPollContract:
    """Pinned behaviour of the sleep/poll cycle: which thread wakes when,
    how many idle stalls the scheduler sits through and how long, and
    the simulated clock at the end. Two sleepers with different periods
    share the VM with a thread blocked on ``Net.accept`` (a wake
    condition, no deadline) that a scheduled event unblocks."""

    SOURCE = """
    class Sleeper {
        int ms;
        string tag;
        Sleeper(int ms, string tag) { this.ms = ms; this.tag = tag; }
        void run() {
            int i = 0;
            while (i < 3) {
                Sys.sleep(ms);
                Sys.print(tag + "@" + Sys.time());
                i = i + 1;
            }
        }
    }
    class Acceptor {
        void run() {
            int listenFd = Net.listen(8080);
            int fd = Net.accept(listenFd);
            Sys.print("accepted@" + Sys.time());
            Net.close(fd);
        }
    }
    class Main {
        static void main() {
            Sys.spawn(new Sleeper(30, "a"));
            Sys.spawn(new Sleeper(70, "b"));
            Sys.spawn(new Acceptor());
        }
    }
    """

    def test_wake_order_idle_stalls_and_final_clock(self):
        vm = make_vm(self.SOURCE)
        vm.start_main("Main")
        vm.events.schedule(125.0, lambda: vm.network.client_connect(8080))
        vm.run(until_ms=1000)
        assert vm.console == [
            "a@30", "a@60", "b@70", "a@90", "accepted@125", "b@140", "b@210",
        ]
        assert vm.threads == []
        assert vm.sleep_deadlines == {}
        assert vm.metrics.counters["sched.idle_stalls"].value == 7
        assert vm.metrics.histograms["sched.idle_ms"].summary() == {
            "count": 7,
            "total": 209.99209999999997,
            "min": 9.996000000000002,
            "max": 69.99994999999998,
            "last": 69.99994999999998,
            "mean": 29.998871428571423,
        }
        assert vm.clock.cycles == 4_209_584


class TestUnknownNative:
    def test_unregistered_native_traps_on_every_call(self):
        """Each call of a ``native`` method with no implementation traps
        its thread, the second call through the same entry included."""
        vm = run_main(
            """
            class Gadget {
                static native int zap(int x);
            }
            class Caller {
                void run() { Sys.print("got " + Gadget.zap(1)); }
            }
            class Main {
                static void main() {
                    Sys.spawn(new Caller());
                    Sys.spawn(new Caller());
                    Sys.print("main done");
                }
            }
            """
        )
        assert vm.console == ["main done"]
        assert vm.trap_log == [
            "Caller.run: unknown native method Gadget.zap",
            "Caller.run: unknown native method Gadget.zap",
        ]
        assert vm.threads == []
