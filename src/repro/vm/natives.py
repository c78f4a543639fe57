"""Native method implementations.

Natives receive a :class:`NativeContext` plus the raw argument cells. They
may allocate (which can trigger a GC that *moves* objects), so any heap
address a native wants to keep across an allocation must be protected with
:meth:`NativeContext.protect`.

A native returns either a cell value (int / address / 0 for void) or a
:class:`Block` describing why the thread cannot proceed; blocked threads
re-execute the native when the scheduler wakes them, so implementations are
written to be idempotent until they succeed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from .heap import NULL
from .objectmodel import VMTrap

if TYPE_CHECKING:  # pragma: no cover
    from .frames import VMThread
    from .vm import VM


@dataclass(slots=True)
class Block:
    """Returned by a native that cannot complete yet."""

    #: predicate polled by the scheduler; None waits for ``wake_at_ms`` only
    wake_condition: Optional[Callable[[], bool]]
    wake_at_ms: Optional[float] = None


class NativeContext:
    """Services natives use to talk to the VM."""

    __slots__ = ("vm", "thread", "roots")

    def __init__(self, vm: "VM", thread: "VMThread"):
        self.vm = vm
        self.thread = thread
        #: roots registered by :meth:`protect`; the caller releases them
        #: (:meth:`release_roots`) when the call ends, if there are any
        self.roots: List[List[int]] = []

    def protect(self, address: int) -> List[int]:
        """Register ``address`` as a GC root for the duration of this native
        call; read ``root[0]`` afterwards for the possibly-moved address."""
        root = [address]
        self.roots.append(root)
        self.vm.native_roots.append(root)
        return root

    def release_roots(self) -> None:
        for root in self.roots:
            self.vm.native_roots.remove(root)
        self.roots.clear()

    # convenience conversions -------------------------------------------------

    def text(self, address: int) -> str:
        return self.vm.objects.string_payload(address)

    def make_string(self, text: str) -> int:
        return self.vm.allocate_string(text)

    def make_string_array(self, parts: List[str]) -> int:
        vm = self.vm
        array_class = vm.objects.array_class("S")
        array_root = self.protect(vm.allocate_array(array_class, len(parts)))
        for index, part in enumerate(parts):
            element = vm.allocate_string(part)
            vm.objects.array_set(array_root[0], index, element)
        return array_root[0]


NativeFn = Callable[[NativeContext, List[int]], object]

_REGISTRY: Dict[str, NativeFn] = {}


def native(name: str):
    def register(fn: NativeFn) -> NativeFn:
        _REGISTRY[name] = fn
        return fn

    return register


def lookup_native(name: str) -> NativeFn:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise VMTrap(f"unknown native method {name}")


# ---------------------------------------------------------------------------
# Sys


@native("Sys.print")
def _sys_print(ctx: NativeContext, args):
    ctx.vm.console.append(ctx.text(args[0]))
    return 0


@native("Sys.time")
def _sys_time(ctx: NativeContext, args):
    return int(ctx.vm.clock.now_ms)


@native("Sys.sleep")
def _sys_sleep(ctx: NativeContext, args):
    thread = ctx.thread
    vm = ctx.vm
    deadlines = vm.sleep_deadlines
    now = vm.clock.now_ms
    frame = thread.frames[-1]
    deadline_key = ("sleep", id(frame), frame.pc)
    pending = deadlines.get(thread.id)
    if pending is not None and pending[0] == deadline_key:
        if now >= pending[1]:
            del deadlines[thread.id]
            return 0
        return Block(None, wake_at_ms=pending[1])
    deadline = now + args[0]
    deadlines[thread.id] = (deadline_key, deadline)
    return Block(None, wake_at_ms=deadline)


@native("Sys.spawn")
def _sys_spawn(ctx: NativeContext, args):
    ctx.vm.spawn_thread(args[0])
    return 0


@native("Sys.yield")
def _sys_yield(ctx: NativeContext, args):
    ctx.vm.yield_requested = True
    return 0


@native("Sys.halt")
def _sys_halt(ctx: NativeContext, args):
    ctx.vm.halted = True
    return 0


@native("Sys.rand")
def _sys_rand(ctx: NativeContext, args):
    bound = max(1, args[0])
    return ctx.vm.next_random() % bound


@native("Sys.forceTransform")
def _sys_force_transform(ctx: NativeContext, args):
    hook = ctx.vm.force_transform_hook
    if hook is not None:
        hook(args[0])
    return 0


# ---------------------------------------------------------------------------
# Net


@native("Net.listen")
def _net_listen(ctx: NativeContext, args):
    return ctx.vm.network.listen(args[0])


@native("Net.accept")
def _net_accept(ctx: NativeContext, args):
    network = ctx.vm.network
    listen_fd = args[0]
    fd = network.accept(listen_fd)
    if fd is None:
        return Block(lambda: network.has_pending(listen_fd))
    return fd


@native("Net.readLine")
def _net_read_line(ctx: NativeContext, args):
    network = ctx.vm.network
    fd = args[0]
    line = network.read_line(fd)
    if line is not None:
        return ctx.make_string(line)
    if network.is_eof(fd):
        return NULL
    return Block(lambda: network.has_line(fd))


@native("Net.read")
def _net_read(ctx: NativeContext, args):
    network = ctx.vm.network
    fd, count = args
    if not network.has_data(fd, count):
        return Block(lambda: network.has_data(fd, count))
    return ctx.make_string(network.read(fd, count))


@native("Net.write")
def _net_write(ctx: NativeContext, args):
    ctx.vm.network.write(args[0], ctx.text(args[1]))
    return 0


@native("Net.close")
def _net_close(ctx: NativeContext, args):
    ctx.vm.network.close(args[0])
    return 0


@native("Net.isOpen")
def _net_is_open(ctx: NativeContext, args):
    return 1 if ctx.vm.network.is_open(args[0]) else 0


# ---------------------------------------------------------------------------
# Str


@native("Str.fromInt")
def _str_from_int(ctx: NativeContext, args):
    return ctx.make_string(str(args[0]))


@native("Str.toInt")
def _str_to_int(ctx: NativeContext, args):
    text = ctx.text(args[0]).strip()
    try:
        return int(text)
    except ValueError:
        raise VMTrap(f"Str.toInt: malformed integer {text!r}")


@native("Str.fromBool")
def _str_from_bool(ctx: NativeContext, args):
    return ctx.make_string("true" if args[0] else "false")


@native("Str.repeat")
def _str_repeat(ctx: NativeContext, args):
    return ctx.make_string(ctx.text(args[0]) * max(0, args[1]))


# ---------------------------------------------------------------------------
# Files (simulated filesystem)


@native("Files.read")
def _files_read(ctx: NativeContext, args):
    path = ctx.text(args[0])
    content = ctx.vm.filesystem.get(path)
    if content is None:
        return NULL
    return ctx.make_string(content)


@native("Files.exists")
def _files_exists(ctx: NativeContext, args):
    return 1 if ctx.text(args[0]) in ctx.vm.filesystem else 0


@native("Files.write")
def _files_write(ctx: NativeContext, args):
    ctx.vm.filesystem[ctx.text(args[0])] = ctx.text(args[1])
    return 0


@native("Files.remove")
def _files_remove(ctx: NativeContext, args):
    ctx.vm.filesystem.pop(ctx.text(args[0]), None)
    return 0


# ---------------------------------------------------------------------------
# string instance methods (receiver is args[0])


def _string_native(name: str):
    def register(fn):
        _REGISTRY[name] = fn
        return fn

    return register


@_string_native("str_length")
def _str_length(ctx, args):
    return len(ctx.text(args[0]))


@_string_native("str_substring")
def _str_substring(ctx, args):
    text = ctx.text(args[0])
    start, end = args[1], args[2]
    if not 0 <= start <= end <= len(text):
        raise VMTrap(f"substring({start}, {end}) out of range for length {len(text)}")
    return ctx.make_string(text[start:end])


@_string_native("str_substring_from")
def _str_substring_from(ctx, args):
    text = ctx.text(args[0])
    start = args[1]
    if not 0 <= start <= len(text):
        raise VMTrap(f"substring({start}) out of range for length {len(text)}")
    return ctx.make_string(text[start:])


@_string_native("str_index_of")
def _str_index_of(ctx, args):
    return ctx.text(args[0]).find(ctx.text(args[1]))


@_string_native("str_last_index_of")
def _str_last_index_of(ctx, args):
    return ctx.text(args[0]).rfind(ctx.text(args[1]))


@_string_native("str_split")
def _str_split(ctx, args):
    text, sep = ctx.text(args[0]), ctx.text(args[1])
    parts = text.split(sep) if sep else list(text)
    return ctx.make_string_array(parts)


@_string_native("str_split_limit")
def _str_split_limit(ctx, args):
    text, sep, limit = ctx.text(args[0]), ctx.text(args[1]), args[2]
    if limit <= 0:
        parts = text.split(sep)
    else:
        parts = text.split(sep, limit - 1)
    return ctx.make_string_array(parts)


@_string_native("str_starts_with")
def _str_starts_with(ctx, args):
    return 1 if ctx.text(args[0]).startswith(ctx.text(args[1])) else 0


@_string_native("str_ends_with")
def _str_ends_with(ctx, args):
    return 1 if ctx.text(args[0]).endswith(ctx.text(args[1])) else 0


@_string_native("str_contains")
def _str_contains(ctx, args):
    return 1 if ctx.text(args[1]) in ctx.text(args[0]) else 0


@_string_native("str_trim")
def _str_trim(ctx, args):
    return ctx.make_string(ctx.text(args[0]).strip())


@_string_native("str_to_lower")
def _str_to_lower(ctx, args):
    return ctx.make_string(ctx.text(args[0]).lower())


@_string_native("str_to_upper")
def _str_to_upper(ctx, args):
    return ctx.make_string(ctx.text(args[0]).upper())


@_string_native("str_char_at")
def _str_char_at(ctx, args):
    text = ctx.text(args[0])
    index = args[1]
    if not 0 <= index < len(text):
        raise VMTrap(f"charAt({index}) out of range for length {len(text)}")
    return ctx.make_string(text[index])


@_string_native("str_equals")
def _str_equals(ctx, args):
    if args[1] == NULL:
        return 0
    return 1 if ctx.text(args[0]) == ctx.text(args[1]) else 0


@_string_native("str_equals_ignore_case")
def _str_equals_ignore_case(ctx, args):
    if args[1] == NULL:
        return 0
    return 1 if ctx.text(args[0]).lower() == ctx.text(args[1]).lower() else 0


@_string_native("str_replace")
def _str_replace(ctx, args):
    return ctx.make_string(
        ctx.text(args[0]).replace(ctx.text(args[1]), ctx.text(args[2]))
    )


@_string_native("str_compare_to")
def _str_compare_to(ctx, args):
    left, right = ctx.text(args[0]), ctx.text(args[1])
    if left < right:
        return -1
    if left > right:
        return 1
    return 0


@_string_native("str_hash_code")
def _str_hash_code(ctx, args):
    # Java's String.hashCode, truncated to 32-bit signed.
    value = 0
    for char in ctx.text(args[0]):
        value = (value * 31 + ord(char)) & 0xFFFFFFFF
    if value >= 1 << 31:
        value -= 1 << 32
    return value
