"""The object-transformer dispatch contract, shared by the eager log
replay and the lazy epoch: one interpreted ``jvolveObject`` run per
object whose class has one, a fixed dispatch-plus-per-field charge per
transformed object either way, and a clean rollback when a transformer
fails."""

from repro.dsu.faults import FaultInjector, FaultPlan
from repro.dsu.policy import UpdatePolicy
from repro.dsu.safepoint import RetryPolicy
from repro.harness.lazyheap import heap_fingerprint
from repro.vm.clock import CostModel
from tests.dsu_helpers import UpdateFixture

V1 = """
class A { int x; A peer; }
class B { int y; }
class Pool {
    static A[] alphas;
    static B[] betas;
    static void fill() {
        Pool.alphas = new A[3];
        for (int i = 0; i < 3; i = i + 1) {
            Pool.alphas[i] = new A();
            Pool.alphas[i].x = i + 10;
        }
        Pool.alphas[0].peer = Pool.alphas[2];
        Pool.betas = new B[2];
        for (int i = 0; i < 2; i = i + 1) {
            Pool.betas[i] = new B();
            Pool.betas[i].y = i + 20;
        }
    }
}
class Main {
    static int rounds;
    static void main() {
        Pool.fill();
        while (rounds < 100) { Sys.sleep(10); rounds = rounds + 1; }
    }
}
"""
V2 = V1.replace(
    "class A { int x; A peer; }", "class A { int x; A peer; int twice; }"
).replace("class B { int y; }", "class B { int y; int z; }")

#: A gets a custom jvolveObject (15 interpreted instructions); B gets
#: none at all, so its objects are only charged the dispatch cost
OVERRIDES = {
    "A": """
    static void jvolveObject(A to, v10_A from) {
        to.x = from.x;
        to.peer = from.peer;
        to.twice = from.x * 2;
    }
""",
    "B": "",
}
#: dereferences A[1]'s null peer: the second A transform traps
TRAPPING_OVERRIDES = dict(OVERRIDES, A="""
    static void jvolveObject(A to, v10_A from) {
        to.x = from.peer.x;
    }
""")

COSTS = CostModel()
#: per A object: dispatch, 3 fields, 15 interpreted instructions; per B
#: object: dispatch and 2 fields, nothing interpreted
TRANSFORM_CYCLES = (
    3 * (COSTS.transform_dispatch + 3 * COSTS.transform_field + 15)
    + 2 * (COSTS.transform_dispatch + 2 * COSTS.transform_field)
)
#: the base-tier compile of A's jvolveObject on its first run
JIT_CYCLES = 15 * COSTS.jit_base_per_instr

EAGER = UpdatePolicy(retry=RetryPolicy(timeout_ms=5_000.0))
LAZY = UpdatePolicy(retry=RetryPolicy(timeout_ms=5_000.0), transform="lazy")


def invocations(vm):
    counter = vm.metrics.counters.get("dsu.transformer_invocations")
    return counter.value if counter is not None else 0


def pool(vm, name):
    objects = vm.objects
    array = objects.canonical_address(
        vm.jtoc.read(vm.registry.get("Pool").static_slots[name])
    )
    return [objects.canonical_address(objects.array_get(array, index))
            for index in range(objects.array_length(array))]


def heap_objects(vm):
    """Objects between the space start and the bump pointer."""
    heap = vm.heap
    count, cursor = 0, heap.space_start
    while cursor < heap.bump:
        cursor += vm.objects.object_size_cells(cursor)
        count += 1
    return count


def update(policy, overrides=OVERRIDES, plan=None):
    fixture = UpdateFixture(V1, heap_cells=1 << 14)
    if plan is not None:
        fixture.engine.fault_injector = FaultInjector(plan)
    if policy is LAZY:
        # Keep the epoch open until the test drains it.
        fixture.engine._lazy_sweep_slice = lambda target_ms: None
    fixture.start()
    holder = fixture.update_at(55, V2, policy=policy, overrides=overrides)
    fixture.run(until_ms=50)
    before = heap_fingerprint(fixture.vm)
    fixture.run(until_ms=60)
    return fixture, holder["result"], before


class TestTransformerDispatch:
    def test_eager_runs_one_transformer_per_object_with_an_entry(self):
        fixture, result, _ = update(EAGER)
        vm = fixture.vm
        assert result.succeeded, result.reason
        assert result.objects_transformed == 5
        # Three A objects have jvolveObject; the two B objects do not.
        assert invocations(vm) == 3
        transform_cycles = round(
            result.phase_ms["transform"] * COSTS.cycles_per_ms
        )
        assert transform_cycles == TRANSFORM_CYCLES + JIT_CYCLES == 238
        objects = vm.objects
        alphas = pool(vm, "alphas")
        assert [objects.read_field(a, "twice") for a in alphas] == [20, 22, 24]
        assert objects.read_field(alphas[0], "peer") == alphas[2]
        # No transformer: the new B objects keep their default fields.
        assert [objects.read_field(b, "y") for b in pool(vm, "betas")] == [0, 0]

    def test_lazy_drain_charges_the_same_per_object_cycles(self):
        fixture, result, _ = update(LAZY)
        vm = fixture.vm
        engine = fixture.engine
        assert result.succeeded, result.reason
        assert engine.lazy_epoch is not None
        assert invocations(vm) == 0
        # The sweep visits every object below the bump pointer, including
        # the five new-layout copies it allocates as it goes.
        visited = heap_objects(vm) + 5
        before = vm.clock.cycles
        assert engine.drain_lazy_epoch() == 5
        drain_cycles = vm.clock.cycles - before
        assert engine.lazy_epoch is None
        assert invocations(vm) == 3
        closing_gc_cycles = round(
            vm.last_gc_stats.gc_time_ms * COSTS.cycles_per_ms
        )
        # Inside the epoch each of A's six field accesses per object also
        # pays a read-barrier check.
        barrier_cycles = 3 * 6 * COSTS.lazy_barrier_check
        assert drain_cycles == (
            TRANSFORM_CYCLES + JIT_CYCLES + barrier_cycles
            + visited * COSTS.lazy_sweep_object + closing_gc_cycles
        ) == 369
        alphas = pool(vm, "alphas")
        assert [vm.objects.read_field(a, "twice") for a in alphas] == [20, 22, 24]

    def test_injected_transformer_fault_restores_the_heap(self):
        fixture, result, before = update(
            EAGER, plan=FaultPlan(transformer_raise_at=1)
        )
        assert result.status == "aborted"
        assert (result.failed_phase, result.reason_code) == (
            "transform", "injected-fault"
        )
        assert result.rolled_back
        assert heap_fingerprint(fixture.vm) == before

    def test_trapping_transformer_aborts_and_restores_the_heap(self):
        fixture, result, before = update(EAGER, overrides=TRAPPING_OVERRIDES)
        assert result.status == "aborted"
        assert (result.failed_phase, result.reason_code) == (
            "transform", "transformer-error"
        )
        assert "null dereference" in result.reason
        assert result.rolled_back
        assert heap_fingerprint(fixture.vm) == before
