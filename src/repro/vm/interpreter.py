"""The execution engine.

Executes resolved machine code (:mod:`repro.vm.machinecode`) one thread at a
time. Yield points sit at method entries, method exits, loop back edges and
native-call completion, exactly where Jikes RVM puts them (paper §3.2): when
the VM wants to stop the world (GC, DSU), it raises the yield flag and the
running thread parks at its next yield point with every frame in a
stack-map-consistent state.

Machine code is *pre-decoded*: every :class:`CompiledMethod` carries a
handler table built once by :func:`decode`, one ``(handler, a, b)`` entry
per pc. A handler executes one instruction, advances ``frame.pc`` itself,
and returns ``None`` for straight-line code or a truthy signal
(:data:`YIELD_POINT` or :data:`BLOCKED`). :meth:`Interpreter.run_thread`
runs straight-line handlers back to back and looks at the yield flag and
the quantum only when a handler signals a yield point.

GC discipline: an instruction must not mutate the operand stack before its
last potential allocation, so that a collection triggered mid-instruction
still sees the operand stack exactly as the verifier's type state at the
current pc describes it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple

from .frames import Frame
from .heap import NULL
from .natives import Block, NativeContext, lookup_native
from .objectmodel import VMTrap

if TYPE_CHECKING:  # pragma: no cover
    from ..bytecode.instructions import Instr
    from .frames import VMThread
    from .machinecode import MethodEntry
    from .vm import VM

#: reasons run_thread returns
RAN_QUANTUM = "quantum"
PARKED_AT_YIELD = "yield"
BLOCKED = "blocked"
THREAD_DIED = "died"
VM_HALTED = "halted"

#: a handler's signal that the instruction it ran ends at a yield point
#: (the other truthy signal is :data:`BLOCKED`)
YIELD_POINT = "yield-point"

#: ``handler(interpreter, thread, frame, a, b) -> None | signal``
Handler = Callable[["Interpreter", "VMThread", Frame, Any, Any], Optional[str]]
TableEntry = Tuple[Handler, Any, Any]


class Interpreter:
    """Executes one thread at a time against the shared VM state."""

    def __init__(self, vm: "VM"):
        self.vm = vm
        self.instructions_executed = 0
        #: method entry -> (owner name, method info, native name, has result)
        self._native_calls: Dict["MethodEntry", tuple] = {}

    # ------------------------------------------------------------------
    # thread execution

    def run_thread(self, thread: "VMThread", quantum: int) -> str:
        """Run ``thread`` for up to ``quantum`` instructions.

        Returns the park reason; the thread's frames are always left in a
        safe-point-consistent state.
        """
        vm = self.vm
        clock = vm.clock
        cost = clock.costs.instruction
        frames = thread.frames
        steps = 0
        try:
            while True:
                if vm.halted:
                    return VM_HALTED
                if not frames:
                    thread.state = thread.DEAD
                    return THREAD_DIED
                frame = frames[-1]
                table = frame.code.table
                # Straight-line handlers cannot change the top frame or its
                # code, so the table stays valid until a handler signals.
                # The clock ticks per instruction: a native reads it mid-quantum.
                while True:
                    handler, a, b = table[frame.pc]
                    signal = handler(self, thread, frame, a, b)
                    steps += 1
                    clock.cycles += cost
                    if signal:
                        break
                if signal is BLOCKED:
                    return BLOCKED
                if vm.yield_flag or vm.yield_requested:
                    vm.yield_requested = False
                    return PARKED_AT_YIELD
                if steps >= quantum:
                    return RAN_QUANTUM
        except VMTrap as trap:
            thread.trap_message = str(trap)
            thread.state = thread.DEAD
            frames.clear()
            vm.record_trap(thread, trap)
            return THREAD_DIED
        finally:
            self.instructions_executed += steps

    # ------------------------------------------------------------------
    # call machinery (also the INVOKEVIRTUAL / INVOKESTATIC / INVOKESPECIAL
    # handlers: table entries call them with the instruction's operands)

    def _invoke_virtual(self, thread, frame, tib_slot: int, argc: int):
        vm = self.vm
        if vm.lazy_barrier is not None:
            # Virtual dispatch reads the receiver's TIB: a pending object's
            # renamed old class has an invalidated TIB, so transform first.
            vm.lazy_barrier(frame, -argc - 1)
        receiver = frame.stack[-argc - 1]
        if receiver == NULL:
            raise VMTrap("null receiver in virtual call")
        rvmclass = vm.objects.class_of(receiver)
        tib = rvmclass.tib
        entry = tib.methods[tib_slot]
        # Count every dispatch (a warm TIB cache must not hide hotness from
        # the adaptive system) and refresh the cache when the entry's
        # active code changed (invalidation or tier promotion).
        jit = vm.jit
        jit.count_invocation(entry)
        jit.maybe_optimize(entry)
        code = tib.code[tib_slot]
        if code is None or code is not entry.active_code():
            code = jit.ensure_compiled(entry)
            tib.code[tib_slot] = code
        if entry.info.is_native:
            name, has_result = self._native_call(entry)
            return self._invoke_native(thread, frame, name, argc + 1, has_result)
        return self._push_frame(thread, frame, code, argc + 1)

    def _invoke_entry(self, thread, frame, entry_id: int, argc: int):
        vm = self.vm
        entry = vm.methods.by_id(entry_id)
        if entry.obsolete:
            raise VMTrap(f"call to obsolete method {entry.qualified_name}")
        if entry.info.is_native:
            name, has_result = self._native_call(entry)
            return self._invoke_native(thread, frame, name, argc, has_result)
        code = self._prepare_code(entry)
        return self._push_frame(thread, frame, code, argc)

    def _native_call(self, entry: "MethodEntry") -> Tuple[str, bool]:
        """A native entry's registry name and has-result flag, built once
        per entry and again after its owner name or method info change
        (an update swaps ``info``). The native itself is looked up at
        every call, so an unknown one traps every time."""
        cached = self._native_calls.get(entry)
        owner_name = entry.owner.name
        info = entry.info
        if cached is None or cached[0] is not owner_name or cached[1] is not info:
            cached = self._native_calls[entry] = (
                owner_name, info, f"{owner_name}.{info.name}",
                not info.descriptor.endswith("V"),
            )
        return cached[2], cached[3]

    def _prepare_code(self, entry: "MethodEntry"):
        jit = self.vm.jit
        jit.count_invocation(entry)
        jit.maybe_optimize(entry)
        return jit.ensure_compiled(entry)

    def _push_frame(self, thread, caller: Frame, code, arg_cells: int):
        if len(thread.frames) >= self.vm.max_stack_depth:
            raise VMTrap("stack overflow")
        args = caller.stack[-arg_cells:] if arg_cells else []
        thread.frames.append(Frame(code, args, arg_cells))
        # Method entry is a yield point; the caller's pc stays at the call.
        return YIELD_POINT

    def _pop_frame(self, thread, frame: Frame, return_value):
        vm = self.vm
        thread.frames.pop()
        if frame.return_barrier:
            vm.on_return_barrier(thread, frame)
        # Version-tagged dispatch: a frame that outlived a bypass install
        # (its method's bytecode_version moved on while it ran the old
        # code) retires here — tell the engine one old-version frame is
        # gone so it can track the two-version window draining.
        if (
            vm.stale_frame_retired_hook is not None
            and frame.entered_at_version != frame.code.entry.bytecode_version
        ):
            vm.stale_frame_retired_hook(thread, frame)
        if thread.frames:
            caller = thread.frames[-1]
            if frame.arg_cells:
                del caller.stack[-frame.arg_cells :]
            if return_value is not None:
                caller.stack.append(return_value)
            caller.pc += 1
        else:
            thread.state = thread.DEAD
            if return_value is not None:
                thread.result = return_value

    def _invoke_native(self, thread, frame, native_name: str, argc: int, has_result: bool):
        vm = self.vm
        fn = lookup_native(native_name)
        args = frame.stack[-argc:] if argc else []
        context = NativeContext(vm, thread)
        try:
            result = fn(context, args)
        finally:
            if context.roots:
                context.release_roots()
        if isinstance(result, Block):
            thread.state = thread.BLOCKED
            thread.wake_condition = result.wake_condition
            thread.wake_at_ms = result.wake_at_ms
            # pc unchanged: the native re-executes on wake.
            return BLOCKED
        vm.clock.tick(vm.clock.costs.native_call)
        if argc:
            del frame.stack[-argc:]
        if has_result:
            frame.stack.append(result)
        frame.pc += 1
        # Native-call completion is a yield point (this is also what makes
        # Sys.yield take effect immediately).
        return YIELD_POINT


# ----------------------------------------------------------------------
# opcode handlers: ``handler(interp, thread, frame, a, b)``. Each one
# advances ``frame.pc`` and returns None, except at a yield point.

# --- constants / stack manipulation ------------------------------------


def _push_constant(interp, thread, frame, a, b):
    frame.stack.append(a)
    frame.pc += 1


def _const_str(interp, thread, frame, a, b):
    frame.stack.append(interp.vm.intern_literal(a))
    frame.pc += 1


def _load(interp, thread, frame, a, b):
    frame.stack.append(frame.locals[a])
    frame.pc += 1


def _store(interp, thread, frame, a, b):
    frame.locals[a] = frame.stack.pop()
    frame.pc += 1


def _pop(interp, thread, frame, a, b):
    frame.stack.pop()
    frame.pc += 1


def _dup(interp, thread, frame, a, b):
    stack = frame.stack
    stack.append(stack[-1])
    frame.pc += 1


def _swap(interp, thread, frame, a, b):
    stack = frame.stack
    stack[-1], stack[-2] = stack[-2], stack[-1]
    frame.pc += 1


# --- arithmetic ----------------------------------------------------------


def _add(interp, thread, frame, a, b):
    stack = frame.stack
    right = stack.pop()
    stack[-1] = stack[-1] + right
    frame.pc += 1


def _sub(interp, thread, frame, a, b):
    stack = frame.stack
    right = stack.pop()
    stack[-1] = stack[-1] - right
    frame.pc += 1


def _mul(interp, thread, frame, a, b):
    stack = frame.stack
    right = stack.pop()
    stack[-1] = stack[-1] * right
    frame.pc += 1


def _div(interp, thread, frame, a, b):
    stack = frame.stack
    right = stack.pop()
    if right == 0:
        raise VMTrap("division by zero")
    stack[-1] = int(stack[-1] / right)  # truncate toward zero
    frame.pc += 1


def _mod(interp, thread, frame, a, b):
    stack = frame.stack
    right = stack.pop()
    if right == 0:
        raise VMTrap("modulo by zero")
    left = stack[-1]
    stack[-1] = left - int(left / right) * right
    frame.pc += 1


def _neg(interp, thread, frame, a, b):
    stack = frame.stack
    stack[-1] = -stack[-1]
    frame.pc += 1


def _eq(interp, thread, frame, a, b):
    stack = frame.stack
    right = stack.pop()
    stack[-1] = 1 if stack[-1] == right else 0
    frame.pc += 1


def _ne(interp, thread, frame, a, b):
    stack = frame.stack
    right = stack.pop()
    stack[-1] = 1 if stack[-1] != right else 0
    frame.pc += 1


def _lt(interp, thread, frame, a, b):
    stack = frame.stack
    right = stack.pop()
    stack[-1] = 1 if stack[-1] < right else 0
    frame.pc += 1


def _le(interp, thread, frame, a, b):
    stack = frame.stack
    right = stack.pop()
    stack[-1] = 1 if stack[-1] <= right else 0
    frame.pc += 1


def _gt(interp, thread, frame, a, b):
    stack = frame.stack
    right = stack.pop()
    stack[-1] = 1 if stack[-1] > right else 0
    frame.pc += 1


def _ge(interp, thread, frame, a, b):
    stack = frame.stack
    right = stack.pop()
    stack[-1] = 1 if stack[-1] >= right else 0
    frame.pc += 1


def _not(interp, thread, frame, a, b):
    stack = frame.stack
    stack[-1] = 0 if stack[-1] else 1
    frame.pc += 1


# --- strings (allocation-careful: peek, allocate, then pop) -------------


def _i2s(interp, thread, frame, a, b):
    stack = frame.stack
    address = interp.vm.allocate_string(str(stack[-1]))
    stack[-1] = address
    frame.pc += 1


def _b2s(interp, thread, frame, a, b):
    stack = frame.stack
    address = interp.vm.allocate_string("true" if stack[-1] else "false")
    stack[-1] = address
    frame.pc += 1


def _sconcat(interp, thread, frame, a, b):
    vm = interp.vm
    stack = frame.stack
    left = vm.objects.string_payload(stack[-2]) if stack[-2] != NULL else "null"
    right = vm.objects.string_payload(stack[-1]) if stack[-1] != NULL else "null"
    address = vm.allocate_string(left + right)
    stack.pop()
    stack[-1] = address
    frame.pc += 1


def _seq(interp, thread, frame, a, b):
    stack = frame.stack
    right = stack.pop()
    left = stack[-1]
    if left == NULL or right == NULL:
        stack[-1] = 1 if left == right else 0
    else:
        payload = interp.vm.objects.string_payload
        stack[-1] = 1 if payload(left) == payload(right) else 0
    frame.pc += 1


def _ref_eq(interp, thread, frame, a, b):
    vm = interp.vm
    if vm.lazy_barrier is not None:
        # Identity must be forwarding-blind during a lazy epoch:
        # canonicalize both operands (heal, never transform).
        vm.lazy_barrier(frame, -1, heal_only=True)
        vm.lazy_barrier(frame, -2, heal_only=True)
    stack = frame.stack
    right = stack.pop()
    stack[-1] = 1 if stack[-1] == right else 0
    frame.pc += 1


# --- heap access -----------------------------------------------------------
# Field and static handlers index ``vm.heap.cells`` and ``vm.jtoc.cells``
# directly: both lists are only ever mutated in place (``Heap.grow``
# extends ``cells``; a rollback truncates or slice-assigns), so the
# references stay valid for the life of the VM.


def _new(interp, thread, frame, a, b):
    vm = interp.vm
    frame.stack.append(vm.allocate_object(vm.registry.by_class_id(a)))
    frame.pc += 1


def _newarray(interp, thread, frame, a, b):
    vm = interp.vm
    stack = frame.stack
    address = vm.allocate_array(vm.registry.by_class_id(a), stack[-1])
    stack[-1] = address
    frame.pc += 1


def _getfield(interp, thread, frame, a, b):
    vm = interp.vm
    if vm.lazy_barrier is not None:
        vm.lazy_barrier(frame, -1)
    stack = frame.stack
    address = stack.pop()
    if address == NULL:
        raise VMTrap("null dereference")
    if vm.transform_read_barrier:
        vm.maybe_force_transform(address)
    stack.append(vm.heap.cells[address + a])
    frame.pc += 1


def _putfield(interp, thread, frame, a, b):
    vm = interp.vm
    if vm.lazy_barrier is not None:
        vm.lazy_barrier(frame, -2)
    stack = frame.stack
    value = stack.pop()
    address = stack.pop()
    if address == NULL:
        raise VMTrap("null dereference")
    vm.heap.cells[address + a] = value
    frame.pc += 1


def _getstatic(interp, thread, frame, a, b):
    frame.stack.append(interp.vm.jtoc.cells[a])
    frame.pc += 1


def _putstatic(interp, thread, frame, a, b):
    interp.vm.jtoc.cells[a] = frame.stack.pop()
    frame.pc += 1


def _aload(interp, thread, frame, a, b):
    stack = frame.stack
    index = stack.pop()
    address = stack.pop()
    stack.append(interp.vm.objects.array_get(address, index))
    frame.pc += 1


def _astore(interp, thread, frame, a, b):
    stack = frame.stack
    value = stack.pop()
    index = stack.pop()
    address = stack.pop()
    interp.vm.objects.array_set(address, index, value)
    frame.pc += 1


def _arraylength(interp, thread, frame, a, b):
    stack = frame.stack
    stack[-1] = interp.vm.objects.array_length(stack[-1])
    frame.pc += 1


def _checkcast(interp, thread, frame, a, b):
    vm = interp.vm
    if vm.lazy_barrier is not None:
        # Type tests need the *new* class: a pending object still
        # carries its renamed old class, which is an instance of
        # nothing the program can name.
        vm.lazy_barrier(frame, -1)
    vm.objects.checkcast(frame.stack[-1], a)
    frame.pc += 1


def _instanceof(interp, thread, frame, a, b):
    vm = interp.vm
    if vm.lazy_barrier is not None:
        vm.lazy_barrier(frame, -1)
    stack = frame.stack
    stack[-1] = 1 if vm.objects.is_instance(stack[-1], a) else 0
    frame.pc += 1


# --- control flow ------------------------------------------------------------


def _jump(interp, thread, frame, a, b):
    frame.pc = a


def _jump_back_edge(interp, thread, frame, a, b):
    frame.pc = a
    return YIELD_POINT


def _jump_if_false(interp, thread, frame, a, b):
    if frame.stack.pop() == 0:
        frame.pc = a
    else:
        frame.pc += 1


def _jump_if_true(interp, thread, frame, a, b):
    if frame.stack.pop() != 0:
        frame.pc = a
    else:
        frame.pc += 1


# --- calls -------------------------------------------------------------------


def _invoke_native(interp, thread, frame, a, b):
    # Looked up on the instance at call time, so a class-level wrapper of
    # Interpreter._invoke_native sees every native call.
    return interp._invoke_native(thread, frame, a, b[0], b[1])


def _return(interp, thread, frame, a, b):
    interp._pop_frame(thread, frame, None)
    return YIELD_POINT


def _return_value(interp, thread, frame, a, b):
    interp._pop_frame(thread, frame, frame.stack[-1])
    return YIELD_POINT


def _unknown_opcode(interp, thread, frame, a, b):
    raise VMTrap(f"unknown opcode {a}")


#: opcodes whose table entry is ``(handler, instr.a, instr.b)``
_HANDLERS = {
    "CONST_INT": _push_constant,
    "CONST_STR": _const_str,
    "LOAD": _load,
    "STORE": _store,
    "POP": _pop,
    "DUP": _dup,
    "SWAP": _swap,
    "ADD": _add,
    "SUB": _sub,
    "MUL": _mul,
    "DIV": _div,
    "MOD": _mod,
    "NEG": _neg,
    "EQ": _eq,
    "NE": _ne,
    "LT": _lt,
    "LE": _le,
    "GT": _gt,
    "GE": _ge,
    "NOT": _not,
    "I2S": _i2s,
    "B2S": _b2s,
    "SCONCAT": _sconcat,
    "SEQ": _seq,
    "REF_EQ": _ref_eq,
    "NEW": _new,
    "NEWARRAY": _newarray,
    "GETFIELD": _getfield,
    "PUTFIELD": _putfield,
    "GETSTATIC": _getstatic,
    "PUTSTATIC": _putstatic,
    "ALOAD": _aload,
    "ASTORE": _astore,
    "ARRAYLENGTH": _arraylength,
    "CHECKCAST": _checkcast,
    "INSTANCEOF": _instanceof,
    "JUMP_IF_FALSE": _jump_if_false,
    "JUMP_IF_TRUE": _jump_if_true,
    "INVOKEVIRTUAL": Interpreter._invoke_virtual,
    "INVOKESTATIC": Interpreter._invoke_entry,
    "INVOKESPECIAL": Interpreter._invoke_entry,
    "RETURN": _return,
    "RETURN_VALUE": _return_value,
}


def decode(instructions: Sequence["Instr"]) -> List[TableEntry]:
    """Pre-decode resolved machine code into its handler table, one
    ``(handler, a, b)`` entry per pc. Operands that only steer the
    handler are folded in here: constant booleans and ``null`` become
    plain pushes, a ``JUMP`` is a back edge (a yield point) or not, and a
    native call's return descriptor becomes a has-result flag. An
    unknown opcode decodes to a handler that traps when it is reached."""
    table: List[TableEntry] = []
    for pc, instr in enumerate(instructions):
        op, a, b = instr.op, instr.a, instr.b
        if op == "CONST_BOOL":
            table.append((_push_constant, 1 if a else 0, None))
        elif op == "CONST_NULL":
            table.append((_push_constant, NULL, None))
        elif op == "JUMP":
            table.append((_jump_back_edge if a <= pc else _jump, a, None))
        elif op == "INVOKENATIVE":
            argc, return_descriptor = b
            table.append((_invoke_native, a, (argc, return_descriptor != "V")))
        elif op in _HANDLERS:
            table.append((_HANDLERS[op], a, b))
        else:
            table.append((_unknown_opcode, op, None))
    return table
