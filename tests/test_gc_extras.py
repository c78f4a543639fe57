"""Additional collector tests: native-root protection, old-copy
reclamation after updates, intern-table maintenance, and update-map
double-copy accounting."""

import pytest

from repro.compiler.compile import compile_source
from repro.vm.natives import NativeContext
from repro.vm.vm import VM

from tests.dsu_helpers import UpdateFixture


def boot(source, heap_cells=4096):
    vm = VM(heap_cells=heap_cells)
    vm.boot(compile_source(source))
    return vm


SIMPLE = "class Box { int v; } class Main { static void main() { } }"


class TestRoots:
    def test_native_roots_updated_across_collection(self):
        vm = boot(SIMPLE)
        box = vm.registry.get("Box")
        address = vm.allocate_object(box)
        vm.objects.write_field(address, "v", 77)
        context = NativeContext(vm, thread=None)
        root = context.protect(address)
        vm.collect()
        assert root[0] != address  # moved
        assert vm.objects.read_field(root[0], "v") == 77
        context.release_roots()
        assert not vm.native_roots

    def test_unprotected_address_becomes_stale(self):
        vm = boot(SIMPLE)
        box = vm.registry.get("Box")
        address = vm.allocate_object(box)
        vm.collect()
        # The object was garbage (no roots): from-space address is dead.
        assert not vm.heap.in_space(address, vm.heap.current_space)

    def test_extra_roots_list(self):
        vm = boot(SIMPLE)
        box = vm.registry.get("Box")
        root = [vm.allocate_object(box)]
        vm.objects.write_field(root[0], "v", 5)
        vm.extra_roots.append(root)
        vm.collect()
        assert vm.objects.read_field(root[0], "v") == 5
        vm.extra_roots.remove(root)

    def test_literal_interns_survive_and_rebind(self):
        vm = boot(SIMPLE)
        address = vm.intern_literal("keep-me")
        vm.collect()
        moved = vm.literal_interns["keep-me"]
        assert moved != address
        assert vm.objects.string_payload(moved) == "keep-me"
        assert vm.intern_literal("keep-me") == moved


UPDATE_V1 = """
class Item { int a; int b; }
class Pool { static Item[] items; }
class Main {
    static int rounds;
    static void main() {
        Pool.items = new Item[50];
        for (int i = 0; i < 50; i = i + 1) { Pool.items[i] = new Item(); }
        while (rounds < 60) { Sys.sleep(10); rounds = rounds + 1; }
    }
}
"""
UPDATE_V2 = UPDATE_V1.replace("class Item { int a; int b; }",
                              "class Item { int a; int b; int c; }")


class TestUpdateHeapAccounting:
    def test_double_copy_counted_in_stats(self):
        fixture = UpdateFixture(UPDATE_V1, heap_cells=1 << 15).start()
        holder = fixture.update_at(55, UPDATE_V2)
        fixture.run(until_ms=2_000)
        assert holder["result"].succeeded
        stats = fixture.vm.last_gc_stats
        assert stats.objects_updated == 50
        assert len(stats.update_log) == 0  # "the log is deleted" (§3.4)
        # The pair count was 50 at collection time.
        assert holder["result"].objects_transformed == 50

    def test_old_copies_reclaimed_by_next_collection(self):
        fixture = UpdateFixture(UPDATE_V1, heap_cells=1 << 15).start()
        holder = fixture.update_at(55, UPDATE_V2)
        fixture.run(until_ms=200)
        assert holder["result"].succeeded
        vm = fixture.vm
        used_after_update = vm.heap.used_cells
        vm.collect()  # "the next garbage collection will naturally reclaim"
        # 50 old copies of 4 cells each disappear (plus other transients).
        assert vm.heap.used_cells <= used_after_update - 50 * 4

    def test_update_survives_when_heap_tight_but_sufficient(self):
        # Heap just big enough for the double copy: population 50*4 + dup
        # 50*(4+5) cells plus program overhead.
        fixture = UpdateFixture(UPDATE_V1, heap_cells=6000).start()
        holder = fixture.update_at(55, UPDATE_V2)
        fixture.run(until_ms=2_000)
        assert holder["result"].succeeded, holder["result"].reason


# A hand-built heap covering every path of the update collection: a
# reference array with nulls and a duplicate, a string, an object reached
# from two statics, a two-hop lazy same-space forwarding chain, garbage,
# and one class (Rec) in the update map.
ACCOUNTING_SOURCE = """
class Node { int v; Node next; string tag; }
class Rec { int a; Node link; }
class RecV2 { int a; Node link; int extra; }
class Roots {
    static Object[] arr;
    static Node n1;
    static Node n2;
    static Rec rec;
    static Node chain;
    static string s;
}
class Main { static void main() { } }
"""


def build_accounting_heap():
    vm = boot(ACCOUNTING_SOURCE)
    objects = vm.objects
    registry = vm.registry
    roots = registry.get("Roots")
    node = registry.get("Node")
    rec_class = registry.get("Rec")

    def static(name, value):
        vm.jtoc.write(roots.static_slots[name], value)

    def new_node(v, next_node=0, tag=0):
        address = vm.allocate_object(node)
        objects.write_field(address, "v", v)
        objects.write_field(address, "next", next_node)
        objects.write_field(address, "tag", tag)
        return address

    text = vm.allocate_string("shared")
    new_node(99)  # garbage
    tail = new_node(9)
    shared = new_node(7, tail, text)
    rec = vm.allocate_object(rec_class)
    objects.write_field(rec, "a", 5)
    objects.write_field(rec, "link", shared)
    vm.allocate_object(rec_class)  # garbage of the updated class
    # Lazy same-space forwarding: shell -> middle -> live.
    shell = new_node(1)
    middle = new_node(2)
    live = new_node(3, tail)
    objects.set_status(shell, middle)
    objects.set_status(middle, live)
    array = vm.allocate_array(objects.array_class("LObject;"), 6)
    for index, value in enumerate([0, shared, 0, shared, text, rec]):
        objects.array_set(array, index, value)
    static("arr", array)
    static("n1", shared)
    static("n2", shared)
    static("rec", rec)
    static("chain", shell)
    static("s", text)
    return vm


class TestUpdateCollectionAccounting:
    """The update collection's exact accounting: what it copies, the
    update log's order, the survivors it reports, and the cycles it
    charges. Pinned numbers, so a faster collector must match them."""

    SURVIVORS = {"[LObject;": 1, "Node": 3, "RecV2": 1, "string": 1}

    @pytest.mark.parametrize("separate, update_log", [
        (False, [(2078, 2082)]),
        # The old copy goes to the segregated region at the top of to-space.
        (True, [(4092, 2078)]),
    ])
    def test_update_collection_accounting(self, separate, update_log):
        from repro.harness.lazyheap import heap_fingerprint

        vm = build_accounting_heap()
        registry = vm.registry
        update_map = {registry.get("Rec").id: registry.get("RecV2")}
        before = vm.clock.cycles
        stats = vm.collect(update_map=update_map,
                           separate_old_copies=separate)
        # Copied: the array (9 cells), shared, tail and the chain's live
        # end (5 each), the string (3) and Rec's 4-cell old copy; the
        # 5-cell RecV2 is allocated, not copied. Cycles: 2 per copied
        # cell, 3 per object, 17 more for the update-log entry.
        assert stats.objects_copied == 6
        assert stats.cells_copied == 31
        assert stats.objects_updated == 1
        assert vm.clock.cycles - before == 2 * 31 + 3 * 6 + 17 == 97
        assert stats.update_log == update_log
        survivors = {registry.by_id[class_id].name: count
                     for class_id, count in stats.survivors_by_class.items()}
        assert survivors == self.SURVIVORS
        # Retire the cached old-copy pointers as the engine's cleanup does,
        # then compare the statics-reachable graph.
        for _, new_object in stats.update_log:
            vm.objects.set_status(new_object, 0)
        assert heap_fingerprint(vm) == [
            ("static", "Roots", "arr", 1),
            ("static", "Roots", "chain", 2),
            ("static", "Roots", "n1", 3),
            ("static", "Roots", "n2", 3),
            ("static", "Roots", "rec", 4),
            ("static", "Roots", "s", 5),
            ("array", "[LObject;", (0, 3, 0, 3, 5, 4)),
            ("object", "Node", (3, 6, 0)),  # the chain's live end
            ("object", "Node", (7, 6, 5)),
            ("object", "RecV2", (0, 0, 0)),
            ("string", "shared"),
            ("object", "Node", (9, 0, 0)),
        ]

    def test_overflow_after_the_old_copy_charges_it(self):
        # 32-cell semispaces: the 25-cell array and Rec's 4-cell old copy
        # fit, the 5-cell RecV2 does not.
        vm = boot(ACCOUNTING_SOURCE, heap_cells=96)
        objects = vm.objects
        registry = vm.registry
        rec = vm.allocate_object(registry.get("Rec"))
        array = vm.allocate_array(objects.array_class("LObject;"), 22)
        objects.array_set(array, 0, rec)
        vm.jtoc.write(registry.get("Roots").static_slots["arr"], array)
        update_map = {registry.get("Rec").id: registry.get("RecV2")}
        before = vm.clock.cycles
        with pytest.raises(MemoryError, match="to-space overflow"):
            vm.collect(update_map=update_map)
        # The array (2 per cell + 3) and the old copy (2 per cell).
        assert vm.clock.cycles - before == 2 * 25 + 3 + 2 * 4 == 61
