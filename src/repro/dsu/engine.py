"""The Jvolve update engine.

Coordinates the whole dynamic update (paper §3):

1. The user signals the VM with a :class:`~repro.dsu.upt.PreparedUpdate`.
2. The engine raises the yield flag; threads stop at VM safe points.
3. At each world-stop it checks for a DSU safe point (no restricted method
   on any stack). If blocked, it installs return barriers on the topmost
   restricted frames and waits; a configurable timeout (15 s in the paper)
   aborts the update.
4. At a DSU safe point it installs the modified classes — renaming old
   versions (``v131_User``), reusing persistent method entries, building
   fresh TIBs and JTOC slots, invalidating replaced machine code — then
   OSR-replaces base-compiled category-(2) frames.
5. It runs a whole-heap GC with the update map, then executes class
   transformers and object transformers over the update log, with support
   for recursive forced transformation and cycle detection (§3.4).
"""

from __future__ import annotations

import warnings

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple, Union

from ..bytecode.classfile import CLINIT_NAME, ClassFile
from ..obs import Tracer
from ..vm.classloader import ClassLoadError
from ..vm.gc import GCStats
from ..vm.heap import (
    HEADER_STATUS,
    HEADER_TIB,
    HEAP_BASE,
    NULL,
    HeapPreflightError,
    OutOfMemoryError,
)
from ..vm.machinecode import MethodEntry
from ..vm.objectmodel import VMTrap
from ..vm.osr import OSRError, osr_replace_all, osr_replace_mapped
from ..vm.rvmclass import RVMClass
from .faults import FaultInjector, InjectedFault, VMCrash
from .policy import UpdatePolicy
from .safepoint import (
    RestrictedSets,
    RetryPolicy,
    StackScan,
    install_return_barriers,
    resolve_restricted,
    scan_stacks,
)
from .specification import (
    PHASE_CLASSLOAD,
    PHASE_CLEANUP,
    PHASE_GC,
    PHASE_OSR,
    PHASE_PREFLIGHT,
    PHASE_SAFEPOINT,
    PHASE_TRANSFORM,
    REASON_BLACKLISTED,
    REASON_CLASSLOAD_FAILED,
    REASON_HEAP_PREFLIGHT,
    REASON_INTERNAL_ERROR,
    REASON_LINT_REJECTED,
    REASON_NOT_CON_FREE,
    REASON_OOM,
    REASON_OSR_FAILED,
    REASON_TIMEOUT,
    REASON_TRANSFORMER_CYCLE,
    REASON_TRANSFORMER_ERROR,
)
from .transaction import SCOPE_CODE_ONLY, UpdateTransaction
from .upt import TRANSFORMERS_CLASS, PreparedUpdate

if TYPE_CHECKING:  # pragma: no cover
    from ..vm.vm import VM

#: an update's transformer-dispatch table: new class id -> (its
#: ``jvolveObject`` entry or None, the cycles one object's transform costs)
TransformerDispatch = Dict[int, Tuple[Optional[MethodEntry], int]]

APPLIED = "applied"
ABORTED = "aborted"
PENDING = "pending"


class TransformerCycleError(Exception):
    """Recursive object transformation revisited an in-progress object."""


def _classify_failure(
    current_phase: str, failure: Exception
) -> Tuple[str, str, str]:
    """Map an exception caught during :meth:`UpdateEngine._apply` onto the
    ``(failed_phase, reason_code, human message)`` abort taxonomy."""
    if isinstance(failure, InjectedFault):
        return failure.phase, failure.reason_code, str(failure)
    if isinstance(failure, TransformerCycleError):
        return PHASE_TRANSFORM, REASON_TRANSFORMER_CYCLE, str(failure)
    if isinstance(failure, OSRError):
        return PHASE_OSR, REASON_OSR_FAILED, f"OSR failed: {failure}"
    if isinstance(failure, HeapPreflightError):
        return (
            PHASE_GC,
            REASON_HEAP_PREFLIGHT,
            f"update collection refused at pre-flight: the double copy of "
            f"updated objects needs an estimated {failure.needed_cells} "
            f"to-space cells but only {failure.available_cells} are "
            f"available; re-run with a heap of at least "
            f"{failure.suggested_heap_cells} cells (--heap-cells) or allow "
            f"in-place growth (--dsu-heap-grow)",
        )
    if isinstance(failure, (MemoryError, OutOfMemoryError)):
        if current_phase == PHASE_GC:
            message = (
                f"heap exhausted during the update collection ({failure}); "
                "the double copy of updated objects needs more headroom"
            )
        else:
            message = f"heap exhausted during {current_phase} ({failure})"
        return current_phase, REASON_OOM, message
    if isinstance(failure, ClassLoadError):
        return (
            PHASE_CLASSLOAD,
            REASON_CLASSLOAD_FAILED,
            f"class installation failed: {failure}",
        )
    if current_phase == PHASE_TRANSFORM:
        return (
            PHASE_TRANSFORM,
            REASON_TRANSFORMER_ERROR,
            f"transformer raised {type(failure).__name__}: {failure}",
        )
    if current_phase == PHASE_CLASSLOAD:
        return (
            PHASE_CLASSLOAD,
            REASON_CLASSLOAD_FAILED,
            f"class installation failed: "
            f"{type(failure).__name__}: {failure}",
        )
    return (
        current_phase,
        REASON_INTERNAL_ERROR,
        f"internal update failure in {current_phase}: "
        f"{type(failure).__name__}: {failure}",
    )


@dataclass
class UpdateResult:
    """Everything observable about one update attempt."""

    old_version: str
    new_version: str
    status: str = PENDING
    reason: str = ""
    #: which update phase the abort happened in (``""`` while pending or
    #: after success) — one of :data:`repro.dsu.specification.UPDATE_PHASES`
    failed_phase: str = ""
    #: machine-readable abort category — one of
    #: :data:`repro.dsu.specification.ABORT_REASONS`
    reason_code: str = ""
    #: True when the abort restored pre-update state via the transaction
    #: snapshot (aborts before installation are side-effect-free and do not
    #: need a rollback)
    rolled_back: bool = False
    #: safe-point acquisition rounds actually entered beyond the first
    retry_rounds: int = 0
    #: total rounds the retry policy allowed (1 = no retries)
    rounds_allowed: int = 1
    #: log lines from the fault injector, when one fired during this attempt
    injected_faults: List[str] = field(default_factory=list)
    #: number of world-stops at which a safe point was checked
    attempts: int = 0
    used_return_barriers: bool = False
    return_barriers_installed: int = 0
    used_osr: bool = False
    osr_frames: int = 0
    #: frames of *changed* methods replaced via state mappings (the §3.5
    #: extended-OSR extension) — user-supplied or analyzer-derived
    extended_osr_frames: int = 0
    #: True when the update landed through the last-resort in-loop OSR
    #: rescue: the retry budget burned down, but every blocking loop frame
    #: had a statically verified remap plan and was replaced in place
    osr_rescued: bool = False
    #: number of in-loop remap plans the osrmap pre-flight verified
    #: (``UpdateRequest.inloop_osr="auto"`` only)
    osr_plans_verified: int = 0
    #: OM refusal codes from the osrmap pre-flight, one per unplannable
    #: blocking method
    osr_plans_refused: List[str] = field(default_factory=list)
    blockers_seen: Set[str] = field(default_factory=set)
    #: ``dsu-lint`` pre-flight summary, when ``UpdateRequest.lint`` ran
    #: the analyzer: error/warning counts and the predicted
    #: ``"phase/reason"`` abort attribution ("" = predicted to land)
    lint_errors: int = 0
    lint_warnings: int = 0
    lint_predicted_abort: str = ""
    #: True when the update applied via the zero-pause immediate-bypass
    #: mode: new bodies installed under version tagging, no safe-point
    #: acquisition, no suspension, no update GC
    bypassed: bool = False
    #: in-flight frames still executing old-version code the moment the
    #: bypass install finished (they drain naturally; see the
    #: ``dsu.bypass.drained`` trace instant)
    bypass_stale_frames: int = 0
    #: the static con-freeness verdict string ("bypass-eligible" /
    #: "requires-safepoint") when ``UpdateRequest.bypass`` was consulted
    bc_verdict: str = ""
    #: pause breakdown in simulated ms: suspend/classload/osr/gc/transform
    phase_ms: Dict[str, float] = field(default_factory=dict)
    objects_transformed: int = 0
    classes_installed: int = 0
    #: ``"eager"`` or ``"lazy"`` for safe-point applies (the requested
    #: :attr:`UpdatePolicy.transform` mode); ``""`` for bypass applies and
    #: pre-install aborts. Lazy applies defer the update collection and the
    #: object transformers out of the pause into an epoch drained by the
    #: read barrier and the idle-time sweep.
    transform_mode: str = ""
    #: upper bound on changed-class objects left untransformed behind the
    #: lazy epoch's read barrier at apply time (0 for eager applies)
    lazy_pending_upper: int = 0
    requested_at_ms: float = 0.0
    finished_at_ms: float = 0.0
    #: retained pre-update snapshot (``UpdatePolicy.hold_transaction``):
    #: the update applied, but the caller may still
    #: :meth:`UpdateEngine.rollback_applied` during a verification window.
    #: ``None`` once committed, rolled back, or when not requested.
    transaction: Optional[UpdateTransaction] = field(
        default=None, repr=False, compare=False
    )
    #: the lazy epoch retained alongside a held transaction so
    #: :meth:`UpdateEngine.rollback_applied` can zero its forwarding words
    #: exactly; ``None`` once committed, rolled back, or for eager applies
    lazy_epoch: Optional["LazyEpoch"] = field(
        default=None, repr=False, compare=False
    )

    @property
    def total_pause_ms(self) -> float:
        return sum(self.phase_ms.values())

    @property
    def safepoint_wait_ms(self) -> float:
        """Simulated ms between the request and the pause starting: the
        time spent waiting for a DSU safe point (the paper's dominant
        disruption for blocked updates). For an aborted attempt this is
        everything up to the abort minus any pause work done."""
        if self.finished_at_ms <= self.requested_at_ms:
            return 0.0
        return max(
            0.0,
            self.finished_at_ms - self.requested_at_ms - self.total_pause_ms,
        )

    @property
    def succeeded(self) -> bool:
        return self.status == APPLIED


@dataclass
class UpdateRequest:
    """One dynamic-update submission — the :mod:`repro.api` unit of work.

    The *what* is the :class:`~repro.dsu.upt.PreparedUpdate`; the *how* is
    a single typed :class:`~repro.dsu.policy.UpdatePolicy` (retry budget,
    lint/bypass/in-loop-OSR modes, eager vs lazy transformation, held
    verification windows, heap growth) — see its presets
    ``UpdatePolicy.paper()`` / ``.fast()`` / ``.safe()``.

    The pre-PR-9 mode kwargs (``lint=``, ``bypass=``, ``inloop_osr=``,
    ``hold_transaction=``, and ``policy=RetryPolicy(...)``) survive for
    one release as :class:`DeprecationWarning` shims that fold into the
    policy; after construction the attributes always reflect the
    effective policy values.
    """

    prepared: PreparedUpdate
    #: how to apply the update — an :class:`UpdatePolicy`. Passing a bare
    #: :class:`RetryPolicy` here is the deprecated pre-PR-9 spelling and
    #: is wrapped into ``UpdatePolicy(retry=...)`` with a warning.
    policy: Optional[Union[UpdatePolicy, RetryPolicy]] = None
    #: optional tracer override: when set, the VM's tracer is replaced so
    #: the whole update (and everything the VM does around it) lands in
    #: this trace instead of the default per-VM one
    tracer: Optional[Tracer] = None
    #: deprecated shims — pass these on :class:`UpdatePolicy` instead.
    #: Whether a held window pins ordinary GC depends on the snapshot
    #: scope, not on holding per se: a full eager snapshot holds heap
    #: addresses and pins collection; a code-only bypass snapshot and a
    #: lazy epoch's forwarding log do not need the heap image frozen, but
    #: the lazy window still pins GC because rollback truncates the heap
    #: to the snapshot bump pointer.
    lint: Optional[str] = None
    bypass: Optional[str] = None
    hold_transaction: Optional[bool] = None
    inloop_osr: Optional[str] = None

    def __post_init__(self):
        policy = self.policy
        if policy is None:
            policy = UpdatePolicy()
        elif isinstance(policy, RetryPolicy):
            warnings.warn(
                "UpdateRequest(policy=RetryPolicy(...)) is deprecated; "
                "pass UpdatePolicy(retry=RetryPolicy(...))",
                DeprecationWarning, stacklevel=3,
            )
            policy = UpdatePolicy(retry=policy)
        overrides = {}
        for name in ("lint", "bypass", "inloop_osr", "hold_transaction"):
            value = getattr(self, name)
            if value is not None:
                warnings.warn(
                    f"UpdateRequest({name}=...) is deprecated; set "
                    f"UpdatePolicy({name}=...) instead",
                    DeprecationWarning, stacklevel=3,
                )
                overrides[name] = value
        if overrides:
            policy = replace(policy, **overrides)
        self.policy = policy
        # Mirror the effective modes so existing readers keep working.
        self.lint = policy.lint
        self.bypass = policy.bypass
        self.inloop_osr = policy.inloop_osr
        self.hold_transaction = policy.hold_transaction


@dataclass
class LazyEpoch:
    """One lazy-transformation epoch: the window between a lazy apply and
    the moment every changed-class object has been transformed.

    The apply installs the new class metadata at the pause but runs **no**
    update collection: objects of changed classes keep their old (renamed)
    class and a zero status word. They are transformed on first touch by
    the interpreter read barrier (:meth:`UpdateEngine._lazy_barrier`) —
    which writes a same-space forwarding pointer into the old object's
    status header and heals the touching stack slot — and drained in the
    background by the idle-time sweep (:meth:`UpdateEngine._sweep_some`),
    which walks the heap linearly from ``sweep_cursor``. New allocations
    land past the bump pointer captured by the walk and are never of an
    old class, so the sweep provably terminates.

    Heap cells are never healed during the epoch (only operand-stack
    slots are): the old objects keep their exact pre-update field image,
    which is what makes a mid-epoch :meth:`UpdateEngine.rollback_applied`
    exact — it only has to zero the forwarding words recorded in
    ``transformed_log`` and truncate the heap to the snapshot bump.
    The next ordinary collection collapses all epoch forwarding (the GC's
    ``forward`` chases same-space pointers) whether or not the epoch has
    drained.
    """

    prepared: PreparedUpdate
    #: old class id -> installed new :class:`RVMClass` (the update map the
    #: eager path would have handed to the collector)
    new_class_by_old_id: Dict[int, RVMClass]
    #: the renamed old classes; their ref statics are cleared and the
    #: transformer class retired when the epoch closes (deferred from the
    #: eager path's cleanup phase)
    renamed: List[RVMClass]
    #: record (old, new) pairs so a held-window rollback can zero exactly
    #: the forwarding words this epoch wrote; off once committed
    track_log: bool
    #: linear heap scan position of the background sweep
    sweep_cursor: int
    #: ``vm.collector.collections`` at cursor time — a collection moves
    #: every object, so a changed count resets the cursor
    sweep_collections: int
    pending_upper: int = 0
    transformed: int = 0
    touch_transforms: int = 0
    sweep_transforms: int = 0
    #: stack slots healed by the barrier chasing an existing forwarding
    heals: int = 0
    closed: bool = False
    transformed_log: List[Tuple[int, int]] = field(default_factory=list)
    #: the update's transformer-dispatch table, built when the epoch opens
    dispatch: TransformerDispatch = field(default_factory=dict)


class _ActiveUpdate:
    def __init__(self, prepared: PreparedUpdate, sets: RestrictedSets,
                 result: UpdateResult, policy: RetryPolicy, started_ms: float):
        self.prepared = prepared
        self.sets = sets
        self.result = result
        #: the safe-point acquisition schedule (a :class:`RetryPolicy`)
        self.policy = policy
        self.hold_transaction = False
        #: ``"eager"`` | ``"lazy"`` — resolved from the request's
        #: :class:`UpdatePolicy` at submit time
        self.transform = "eager"
        #: per-request heap-growth permission (policy OR engine default)
        self.heap_grow = False
        #: current safe-point acquisition round (0-based)
        self.round = 0
        self.round_deadline_ms = started_ms + policy.round_timeout_ms(0)
        self.update_map: Dict[int, RVMClass] = {}
        self.renamed: List[RVMClass] = []
        #: the transformer-dispatch table the object transformers read
        self.dispatch: TransformerDispatch = {}
        #: trace spans open for the whole update / the current round
        self.update_span = None
        self.round_span = None
        #: verified in-loop OSR plans (method key -> ActiveMethodMapping),
        #: computed statically at submit time when ``inloop_osr="auto"``;
        #: consulted only by the last-resort rescue after the final round
        self.rescue_mappings: Dict[tuple, "ActiveMethodMapping"] = {}

    def mapping_for(self, key: tuple):
        """The state mapping for one changed method: a user-supplied
        mapping wins over an analyzer-derived rescue plan."""
        mapping = self.prepared.active_method_mappings.get(key)
        if mapping is not None:
            return mapping
        return self.rescue_mappings[key]


class UpdateEngine:
    """Drives dynamic updates on one VM.

    ``auto_read_barrier`` enables the §3.4/§3.5 extension: during the
    transformation phase a GETFIELD on a not-yet-transformed object forces
    its transformer automatically, so custom transformers need no explicit
    ``Sys.forceTransform`` calls. Off by default (paper-faithful: "In our
    current implementation, the programmer uses a special VM function").
    """

    def __init__(
        self,
        vm: "VM",
        auto_read_barrier: bool = False,
        eager_old_copy_reclaim: bool = False,
        fault_injector: Optional[FaultInjector] = None,
        heap_grow: Optional[bool] = None,
    ):
        self.vm = vm
        self.auto_read_barrier = auto_read_barrier
        #: §3.4 optimization: segregate old copies in a special region and
        #: reclaim them the moment the transformers finish, instead of
        #: waiting for the next collection
        self.eager_old_copy_reclaim = eager_old_copy_reclaim
        #: deprecated engine-level heap-grow flag; pass
        #: ``UpdatePolicy(heap_grow=True)`` per request instead. Kept as an
        #: OR-term against the per-request policy for one release.
        if heap_grow is not None:
            warnings.warn(
                "UpdateEngine(heap_grow=...) is deprecated; set "
                "UpdatePolicy(heap_grow=...) on the request instead",
                DeprecationWarning, stacklevel=2,
            )
        self.heap_grow = bool(heap_grow)
        #: optional :class:`repro.dsu.faults.FaultInjector` exercising the
        #: abort paths; None in production
        self.fault_injector = fault_injector
        self.active: Optional[_ActiveUpdate] = None
        self.history: List[UpdateResult] = []
        self._transform_in_progress: Set[int] = set()
        self._old_copy_of: Dict[int, int] = {}
        #: old-version frames still in flight after the latest bypass
        #: install; decremented by the interpreter's retirement hook
        self._bypass_stale_outstanding = 0
        #: the open lazy-transformation epoch, when the last applied update
        #: used ``transform="lazy"`` and objects are still pending behind
        #: the read barrier; ``None`` once the sweep drains it
        self.lazy_epoch: Optional[LazyEpoch] = None
        #: old addresses whose lazy transformer is currently on the stack —
        #: the barrier lets their reads through untransformed (a transformer
        #: reading its own old object must not recurse)
        self._lazy_in_progress: Set[int] = set()
        vm.on_world_stopped = self._world_stopped
        vm.return_barrier_hook = self._barrier_hit
        vm.stale_frame_retired_hook = self._stale_frame_retired

    # ------------------------------------------------------------------
    # public API

    def submit(self, request: UpdateRequest) -> UpdateResult:
        """Signal the VM that an update is available (paper step 2). The
        returned result object is filled in as the update progresses.

        Safe-point acquisition follows ``request.policy``: the first round
        waits ``timeout_ms``; each further round multiplies the previous
        round's window by ``backoff`` before the final abort.

        ``request.lint`` runs the :mod:`repro.analysis` update-safety
        analyzer before the VM is signalled: ``"warn"`` records its
        findings on the result; ``"strict"`` additionally refuses an
        update with error-severity diagnostics up front — an immediate,
        attributable pre-flight abort instead of spending the whole
        retry/backoff budget discovering the same blocker at runtime.

        ``request.bypass`` consults the con-freeness classifier
        (:mod:`repro.analysis.confree`): a ``bypass-eligible`` update is
        applied *right here*, synchronously, with zero pause — no
        safe-point acquisition, no suspension, no update GC — by
        installing the new method bodies under version tagging
        (:meth:`~repro.vm.machinecode.MethodEntry.replace_bytecode`).
        In-flight frames finish on the old code; every new invocation
        binds the new body.

        The whole attempt is traced: a top-level ``dsu.update`` span opens
        here and closes when the update lands or aborts, with one child
        span per safe-point acquisition round and per update phase.
        """
        if self.active is not None:
            raise RuntimeError("an update is already in progress")
        if self.lazy_epoch is not None:
            # At most one epoch at a time: overlapping update maps would
            # make the barrier ambiguous. Drain the previous one fully.
            self.drain_lazy_epoch()
        prepared = request.prepared
        policy = request.policy
        retry = policy.retry
        vm = self.vm
        if request.tracer is not None:
            vm.tracer = request.tracer
        tracer = vm.tracer
        vm.metrics.inc("dsu.updates_requested")
        result = UpdateResult(prepared.old_version, prepared.new_version)
        result.requested_at_ms = vm.clock.now_ms
        result.rounds_allowed = retry.rounds
        update_span = tracer.begin(
            "dsu.update", "dsu",
            old_version=prepared.old_version,
            new_version=prepared.new_version,
        )
        if request.lint != "off":
            from ..analysis import analyze_update

            with tracer.span("dsu.preflight.lint", "dsu", mode=request.lint):
                report = analyze_update(
                    dict(vm.classfiles), prepared,
                    inloop_osr=(request.inloop_osr == "auto"),
                )
            result.lint_errors = len(report.errors())
            result.lint_warnings = len(report.warnings())
            result.lint_predicted_abort = report.predicted_abort
            if request.lint == "strict" and report.has_errors:
                first = report.errors()[0]
                result.status = ABORTED
                result.failed_phase = PHASE_PREFLIGHT
                result.reason_code = REASON_LINT_REJECTED
                result.reason = (
                    f"dsu-lint: {result.lint_errors} error(s); first: {first}"
                )
                result.finished_at_ms = vm.clock.now_ms
                self.history.append(result)
                vm.metrics.inc("dsu.updates_aborted")
                tracer.end(update_span, status=ABORTED,
                           reason=REASON_LINT_REJECTED)
                return result
        if request.bypass != "off":
            from ..analysis import classify_update

            with tracer.span("dsu.preflight.confree", "dsu",
                             mode=request.bypass):
                verdict = classify_update(dict(vm.classfiles), prepared)
            result.bc_verdict = verdict.verdict
            if verdict.eligible:
                return self._apply_bypass(request, result, verdict,
                                          update_span)
            violated = sorted({s.rule for s in verdict.violations()})
            if request.bypass == "require":
                first = verdict.violations()[0]
                result.status = ABORTED
                result.failed_phase = PHASE_PREFLIGHT
                result.reason_code = REASON_NOT_CON_FREE
                result.reason = (
                    f"bypass required but the update is not con-free "
                    f"(violated: {', '.join(violated)}); first: {first}"
                )
                result.finished_at_ms = vm.clock.now_ms
                self.history.append(result)
                vm.metrics.inc("dsu.updates_aborted")
                tracer.end(update_span, status=ABORTED,
                           reason=REASON_NOT_CON_FREE)
                return result
            # "auto": fall through to the ordinary safe-point protocol.
            tracer.instant("dsu.bypass.ineligible", "dsu",
                           violated=violated)
        with tracer.span("dsu.resolve-restricted", "dsu") as resolve_span:
            sets = resolve_restricted(vm, prepared.spec)
            resolve_span.args.update(
                hard=len(sets.hard), recompile=len(sets.recompile)
            )
        vm.metrics.observe(
            "dsu.restricted_set_size", len(sets.hard) + len(sets.recompile)
        )
        self.active = _ActiveUpdate(prepared, sets, result, retry, vm.clock.now_ms)
        self.active.hold_transaction = policy.hold_transaction
        self.active.transform = policy.transform
        self.active.heap_grow = policy.heap_grow or self.heap_grow
        self.active.update_span = update_span
        if request.inloop_osr == "auto":
            from ..analysis.osrmap import compute_osr_plans

            with tracer.span("dsu.preflight.osrmap", "dsu") as osrmap_span:
                osr_report = compute_osr_plans(dict(vm.classfiles), prepared)
                self.active.rescue_mappings = osr_report.mappings()
                result.osr_plans_verified = len(osr_report.plans)
                result.osr_plans_refused = sorted(
                    refusal.code
                    for refusal in osr_report.refusals.values()
                )
                osrmap_span.args.update(
                    targets=len(osr_report.targets),
                    plans=len(osr_report.plans),
                    refused=len(osr_report.refusals),
                )
        self.active.round_span = tracer.begin(
            "dsu.safepoint.round", "dsu", round=0,
            window_ms=retry.round_timeout_ms(0),
        )
        self.history.append(result)
        vm.update_pending = True
        vm.yield_flag = True
        self._schedule_deadline_check(self.active)
        return result

    # ------------------------------------------------------------------
    # held-transaction verification window (canary updates)

    def commit_applied(self, result: UpdateResult) -> None:
        """End a ``hold_transaction`` verification window, keeping the
        new version: discard the retained snapshot and re-enable GC."""
        if result.transaction is None:
            raise ValueError("no held transaction on this result")
        result.transaction = None
        epoch = result.lazy_epoch
        if epoch is not None:
            # The epoch outlives the window, but its rollback log is no
            # longer needed — forwarding words persist until the next
            # collection collapses them.
            epoch.track_log = False
            epoch.transformed_log.clear()
            result.lazy_epoch = None
        self.vm.gc_disabled = False
        self.vm.metrics.inc("dsu.held_txn_committed")

    def rollback_applied(self, result: UpdateResult) -> None:
        """Undo a *successfully applied* update from its retained
        snapshot — the canary regressed during verification.

        The caller must guarantee the world is parked at yield points
        (the fleet controller calls this between scheduler slices) and
        that no GC ran since the apply (the engine pinned
        ``vm.gc_disabled`` for exactly that reason).

        A lazy epoch rolls back exactly: the barrier never wrote into old
        objects' data cells (only their status headers and operand-stack
        slots), so zeroing the logged forwarding words and truncating the
        heap to the snapshot bump pointer — which discards every new-
        layout object the epoch allocated — restores the pre-update heap
        image bit for bit."""
        txn = result.transaction
        if txn is None:
            raise ValueError("no held transaction on this result")
        vm = self.vm
        epoch = result.lazy_epoch
        if epoch is not None:
            for old_address, _new_address in epoch.transformed_log:
                vm.objects.set_status(old_address, 0)
            epoch.transformed_log.clear()
            if self.lazy_epoch is epoch:
                self._uninstall_lazy_hooks()
            result.lazy_epoch = None
            vm.metrics.inc("dsu.lazy.epochs_discarded")
        with self.vm.tracer.span(
            "dsu.canary-rollback", "dsu",
            old_version=result.old_version,
            new_version=result.new_version,
        ):
            txn.rollback()
        result.transaction = None
        self.vm.gc_disabled = False
        self.vm.update_pending = False
        # Frames now running the rolled-back-from version drain on their
        # own; the outstanding count from the apply no longer means
        # anything.
        self._bypass_stale_outstanding = 0
        self.vm.metrics.inc("dsu.canary_rollbacks")

    # ------------------------------------------------------------------
    # the immediate-bypass path (zero pause, no safe point)

    def _apply_bypass(self, request: UpdateRequest, result: UpdateResult,
                      verdict, update_span) -> UpdateResult:
        """Apply a bypass-eligible update synchronously, with zero pause.

        No safe-point acquisition, no thread suspension, no OSR, no update
        GC: the con-freeness verdict proved the update is method-body-only
        and that no in-flight old frame can bind a new body mid-flight, so
        the new bodies are installed under version tagging while the
        application keeps running. Old frames finish on their old
        :class:`~repro.vm.machinecode.CompiledMethod` (frames hold the
        code object, not the entry); every new invocation recompiles from
        the entry's new bytecode. The simulated clock is never ticked —
        the suspension pause is literally 0.00 ms."""
        vm = self.vm
        tracer = vm.tracer
        prepared = request.prepared
        changed = sorted(prepared.spec.method_body_updates)
        changed_set = set(changed)
        self.history.append(result)
        txn = UpdateTransaction(vm, scope=SCOPE_CODE_ONLY)
        stale = 0
        try:
            with tracer.span("dsu.bypass.install", "dsu",
                             methods=len(changed)) as install_span:
                # Publish the whole new program first: the JIT's verifier
                # and the opt tier's inliner read bodies from
                # vm.classfiles, so recompiles of unchanged callers must
                # already see the new program.
                for name, classfile in prepared.new_classfiles.items():
                    vm.classfiles[name] = classfile
                    rvmclass = vm.registry.maybe_get(name)
                    if rvmclass is not None and not rvmclass.obsolete:
                        rvmclass.classfile = classfile
                for class_name, method_name, descriptor in changed:
                    entry = vm.methods.lookup(
                        class_name, method_name, descriptor
                    )
                    new_info = prepared.new_classfiles[class_name].get_method(
                        method_name, descriptor
                    )
                    if entry is None or new_info is None:
                        raise ClassLoadError(
                            f"bypass install: no live method entry for "
                            f"{class_name}.{method_name}{descriptor}"
                        )
                    entry.replace_bytecode(new_info)
                # Opt code of unchanged methods that inlined a replaced
                # body is stale: drop the code pointer (free at update
                # time); the next invocation recompiles lazily against
                # the new program.
                for entry in vm.methods.all_entries():
                    opt = entry.opt_code
                    if opt is not None and opt.inlined & changed_set:
                        entry.invalidate()
                for thread in vm.threads:
                    for frame in thread.frames:
                        code_entry = frame.code.entry
                        if (
                            frame.entered_at_version
                            != code_entry.bytecode_version
                        ):
                            stale += 1
                install_span.args["stale_frames"] = stale
        except VMCrash:
            raise
        except Exception as failure:  # noqa: BLE001 — every failure aborts
            phase, reason_code, message = _classify_failure(
                PHASE_CLASSLOAD, failure
            )
            with tracer.span("dsu.rollback", "dsu", failed_phase=phase,
                             reason=reason_code):
                txn.rollback()
            vm.metrics.inc("dsu.rollbacks")
            result.status = ABORTED
            result.reason = message
            result.failed_phase = phase
            result.reason_code = reason_code
            result.rolled_back = True
            result.finished_at_ms = vm.clock.now_ms
            vm.metrics.inc("dsu.updates_aborted")
            tracer.end(update_span, status=ABORTED, reason=reason_code,
                       bypassed=False)
            return result
        self._bypass_stale_outstanding = stale
        result.bypassed = True
        result.bypass_stale_frames = stale
        result.status = APPLIED
        result.finished_at_ms = vm.clock.now_ms
        if request.hold_transaction:
            # Unlike the safe-point path, the code-only snapshot holds no
            # heap addresses, so ordinary GC keeps running while the
            # verification window is open.
            result.transaction = txn
            vm.metrics.inc("dsu.held_transactions")
        tracer.end(update_span, status=APPLIED, bypassed=True,
                   pause_ms=0.0, stale_frames=stale)
        vm.metrics.inc("dsu.updates_applied")
        vm.metrics.inc("dsu.updates_bypassed")
        vm.metrics.observe("dsu.pause_ms", 0.0)
        vm.metrics.observe("dsu.safepoint_wait_ms", 0.0)
        vm.metrics.observe("dsu.bypass_stale_frames", stale)
        return result

    def _stale_frame_retired(self, thread, frame) -> None:
        """Interpreter callback: a frame whose method body was replaced
        underneath it (version-tagged dispatch) finished on the old code
        and popped."""
        if self._bypass_stale_outstanding <= 0:
            return
        self._bypass_stale_outstanding -= 1
        vm = self.vm
        vm.metrics.inc("dsu.bypass_stale_frames_retired")
        if self._bypass_stale_outstanding == 0:
            vm.tracer.instant("dsu.bypass.drained", "dsu")

    # ------------------------------------------------------------------
    # world-stop protocol

    def _schedule_deadline_check(self, active: _ActiveUpdate) -> None:
        round_index = active.round
        self.vm.events.schedule(
            active.round_deadline_ms,
            lambda: self._deadline_check(active, round_index),
        )

    def _deadline_check(self, expected: _ActiveUpdate, round_index: int) -> None:
        if self.active is not expected:
            return
        if expected.round != round_index:
            return  # a newer round re-armed its own check
        self._round_expired()

    def _round_expired(self) -> None:
        """The current safe-point round ran out: start the next round with
        a backoff-extended window, or abort if the budget is spent."""
        active = self.active
        assert active is not None
        vm = self.vm
        policy = active.policy
        self._close_round_span(
            outcome="expired",
            blockers=sorted(active.result.blockers_seen),
        )
        if active.round + 1 < policy.rounds:
            active.round += 1
            active.result.retry_rounds = active.round
            active.round_deadline_ms = (
                vm.clock.now_ms + policy.round_timeout_ms(active.round)
            )
            active.round_span = vm.tracer.begin(
                "dsu.safepoint.round", "dsu", round=active.round,
                window_ms=policy.round_timeout_ms(active.round),
            )
            # Re-arm the yield flag so the next world-stop re-scans the
            # stacks even if no return barrier fired in the meantime.
            vm.update_pending = True
            vm.yield_flag = True
            self._schedule_deadline_check(active)
            return
        # Last resort before aborting: with verified in-loop OSR plans, a
        # re-scan that also treats plan-covered frames as replaceable may
        # find the world safe after all — the spinning loop frames of
        # changed methods get remapped onto the new bodies inside the
        # update transaction (so a later-phase failure still rolls the
        # original frames back exactly).
        if active.rescue_mappings:
            merged = dict(active.rescue_mappings)
            merged.update(active.prepared.active_method_mappings)
            scan = scan_stacks(vm, active.sets, merged)
            if scan.is_safe:
                active.result.osr_rescued = True
                vm.tracer.instant(
                    "dsu.osr.rescue", "dsu",
                    plans=len(active.rescue_mappings),
                    frames=len(scan.extended_osr),
                )
                vm.metrics.inc("dsu.inloop_osr_rescues")
                self._apply(scan)
                return
            active.result.blockers_seen.update(scan.blocking_method_names())
        blockers = sorted(active.result.blockers_seen)
        reason_code = REASON_TIMEOUT
        blacklist_names = {
            f"{c}.{n}{d}" for c, n, d in active.prepared.spec.blacklist
        }
        if blockers and set(blockers) <= blacklist_names:
            reason_code = REASON_BLACKLISTED
        self._abort(
            f"timeout: no DSU safe point within {policy.rounds} round(s) "
            f"({policy.total_budget_ms():.0f} sim-ms budget); "
            f"blockers: {blockers}",
            phase=PHASE_SAFEPOINT,
            reason_code=reason_code,
        )

    def _close_round_span(self, **args) -> None:
        """End the current safe-point-round span, if one is open."""
        active = self.active
        if active is None or active.round_span is None:
            return
        if not active.round_span.closed:
            self.vm.tracer.end(active.round_span, **args)
        active.round_span = None

    def _world_stopped(self) -> None:
        active = self.active
        if active is None:
            self.vm.update_pending = False
            return
        vm = self.vm
        if vm.clock.now_ms >= active.round_deadline_ms:
            self._round_expired()
            return
        active.result.attempts += 1
        injector = self.fault_injector
        scan_span = vm.tracer.begin(
            "dsu.safepoint.scan", "dsu", attempt=active.result.attempts
        )
        if injector is not None and injector.blocks_safepoint():
            # Injected blocker: behave exactly like a blocked scan with no
            # barrier to install — defer and wait for the round deadline.
            active.result.blockers_seen.add("<injected-safepoint-blocker>")
            active.result.injected_faults = list(injector.fired)
            vm.tracer.end(scan_span, safe=False, injected_blocker=True)
            vm.update_pending = False
            vm.yield_flag = False
            return
        scan = scan_stacks(vm, active.sets, active.prepared.active_method_mappings)
        if scan.is_safe:
            vm.tracer.end(
                scan_span, safe=True,
                osr_candidates=len(scan.osr_candidates),
                extended_osr=len(scan.extended_osr),
            )
            self._close_round_span(outcome="acquired", round=active.round)
            self._apply(scan)
            return
        # Per-thread blocking-frame attribution: which method of which
        # thread kept the world from being a DSU safe point this time.
        blocking_by_thread: Dict[str, List[str]] = {}
        for thread, frame, why in scan.blocking:
            blocking_by_thread.setdefault(thread.name, []).append(
                f"{frame.code.entry.qualified_name} ({why})"
            )
        vm.tracer.end(scan_span, safe=False, blocking=blocking_by_thread)
        active.result.blockers_seen.update(scan.blocking_method_names())
        with vm.tracer.span("dsu.safepoint.arm-barriers", "dsu") as arm_span:
            installed = install_return_barriers(scan)
            arm_span.args["installed"] = installed
        if installed:
            active.result.used_return_barriers = True
            active.result.return_barriers_installed += installed
            vm.metrics.inc("dsu.return_barriers_installed", installed)
        # Defer: let threads run so restricted methods can return. The
        # barrier (or the round-deadline event) re-arms the check.
        vm.update_pending = False
        vm.yield_flag = False

    def _barrier_hit(self, thread, frame) -> None:
        if self.active is None:
            return
        # A restricted method returned: retry the update at the next stop.
        self.vm.update_pending = True
        self.vm.yield_flag = True

    def _abort(
        self,
        reason: str,
        phase: str = PHASE_SAFEPOINT,
        reason_code: str = REASON_TIMEOUT,
        rolled_back: bool = False,
    ) -> None:
        """Abandon the active update and let the VM resume the old version.

        Every abort path funnels through here; none of them halts the VM.
        Pre-installation aborts (``phase == PHASE_SAFEPOINT``) are
        side-effect-free by construction; later phases must have rolled the
        transaction back before calling."""
        active = self.active
        assert active is not None
        vm = self.vm
        result = active.result
        result.status = ABORTED
        result.reason = reason
        result.failed_phase = phase
        result.reason_code = reason_code
        result.rolled_back = rolled_back
        result.finished_at_ms = vm.clock.now_ms
        # Remove any barriers we installed.
        for thread in vm.threads:
            for frame in thread.frames:
                frame.return_barrier = False
        self._transform_in_progress.clear()
        self._old_copy_of.clear()
        vm.update_pending = False
        vm.yield_flag = False
        self._close_round_span(outcome="aborted")
        if active.update_span is not None and not active.update_span.closed:
            vm.tracer.end(
                active.update_span, status=ABORTED,
                failed_phase=phase, reason=reason_code,
                rolled_back=rolled_back,
            )
        vm.metrics.inc("dsu.updates_aborted")
        vm.metrics.observe("dsu.safepoint_wait_ms", result.safepoint_wait_ms)
        self.active = None

    # ------------------------------------------------------------------
    # applying the update

    def _apply(self, scan: StackScan) -> None:
        """Apply the update as one transaction: snapshot first, then run
        the install/OSR/GC/transform/cleanup pipeline; *any* exception in
        any phase rolls the snapshot back and aborts with the old version
        intact and running (no failure path halts the VM)."""
        active = self.active
        assert active is not None
        vm = self.vm
        result = active.result
        injector = self.fault_injector
        # The world is stopped; drop the yield flag so the synchronous
        # transformer/clinit executions below run at full speed.
        vm.yield_flag = False
        txn = UpdateTransaction(vm)
        phase_start = vm.clock.cycles

        def end_phase(name: str) -> None:
            nonlocal phase_start
            now = vm.clock.cycles
            result.phase_ms[name] = result.phase_ms.get(name, 0.0) + (
                (now - phase_start) / vm.clock.costs.cycles_per_ms
            )
            phase_start = now

        tracer = vm.tracer
        current_phase = PHASE_CLASSLOAD
        # An allocation-triggered collection inside the critical section
        # (e.g. from a <clinit> or transformer) would move objects under
        # the transaction snapshot; only the controlled update collection
        # below may run, so ordinary GC stays disabled throughout.
        gc_was_disabled = vm.gc_disabled
        vm.gc_disabled = True
        try:
            # Phase: thread suspension (already stopped; account the cost).
            with tracer.span("dsu.suspend", "dsu",
                             threads=len(vm.runnable_threads())):
                vm.clock.tick(
                    vm.clock.costs.thread_suspend
                    * max(1, len(vm.runnable_threads()))
                )
                end_phase("suspend")

            # Phase: install modified classes and transformers.
            with tracer.span("dsu.classload", "dsu") as classload_span:
                self._install_classes(active)
                classload_span.args["classes"] = result.classes_installed
                end_phase("classload")

            # Phase: OSR of base-compiled category-(2) frames — after class
            # installation, as the paper requires (§3.2) — and extended OSR
            # of mapped changed-method frames (§3.5).
            current_phase = PHASE_OSR
            with tracer.span("dsu.osr", "dsu") as osr_span:
                if scan.osr_candidates:
                    if injector is not None:
                        injector.on_osr(
                            scan.osr_candidates[0].code.entry.qualified_name
                        )
                    result.used_osr = True
                    result.osr_frames += osr_replace_all(vm, scan.osr_candidates)
                for frame, key in scan.extended_osr:
                    mapping = active.mapping_for(key)
                    if injector is not None:
                        injector.on_osr(frame.code.entry.qualified_name)
                    osr_replace_mapped(vm, frame, mapping.pc_map,
                                       mapping.locals_map,
                                       mapping.compensation)
                    result.used_osr = True
                    result.extended_osr_frames += 1
                osr_span.args.update(
                    frames=result.osr_frames,
                    extended_frames=result.extended_osr_frames,
                )
                end_phase("osr")

            # Phase: the whole-heap collection with the update map — but
            # only when the map is non-empty. The collection's sole job at
            # update time is transforming objects of changed classes
            # (§3.4); method-body-only and indirect-method updates change
            # no layout, so they skip the flip and the copy entirely and
            # report a zero GC pause. When a layout change *does* collect,
            # a to-space sizing pre-flight aborts (or grows the heap)
            # before any copying, instead of un-flipping after a mid-copy
            # overflow — §3.5 warns the double copy of updated objects
            # "adds temporary memory pressure".
            current_phase = PHASE_GC
            lazy = active.transform == "lazy" and bool(active.update_map)
            gc_skipped = not active.update_map
            if gc_skipped:
                stats = GCStats()
                tracer.instant("dsu.gc.skipped", "dsu",
                               reason="empty-transform-map")
                vm.metrics.inc("dsu.gc_skipped")
            elif lazy:
                # Lazy mode: no update collection at the pause. Changed-
                # class objects stay in place with their old (renamed)
                # class; the epoch opened below transforms each on first
                # touch and sweeps the rest in idle slices. The pause is
                # therefore independent of heap occupancy.
                stats = GCStats()
                tracer.instant("dsu.gc.deferred", "dsu",
                               reason="lazy-transform",
                               pending_classes=len(active.update_map))
                vm.metrics.inc("dsu.gc_deferred")
            else:
                stats = self._preflight_and_collect(active, txn, injector)
            end_phase("gc")

            # Phase: class transformers, then object transformers (§3.4).
            current_phase = PHASE_TRANSFORM
            vm.force_transform_hook = (
                self._barrier_force if self.auto_read_barrier
                else self._force_transform
            )
            vm.transform_read_barrier = self.auto_read_barrier
            try:
                with tracer.span("dsu.transform", "dsu") as transform_span:
                    with tracer.span("dsu.transform.classes", "dsu"):
                        self._run_class_transformers(active)
                    # Replaying the update log the collection built is the
                    # per-object transformer work (§3.4).
                    with tracer.span("dsu.transform.log-replay", "dsu",
                                     log_entries=len(stats.update_log)):
                        self._run_object_transformers(active, stats.update_log)
                    transform_span.args["objects"] = stats.objects_updated
            finally:
                vm.force_transform_hook = None
                vm.transform_read_barrier = False
            end_phase("transform")

            # Cleanup: clear cached old-version pointers, retire old
            # statics, and retire the transformer class ("Since the
            # transformation class is only active and available during the
            # update, the VM may delete it after transformation", §2.3).
            current_phase = PHASE_CLEANUP
            with tracer.span("dsu.cleanup", "dsu"):
                for _, new_address in stats.update_log:
                    vm.objects.set_status(new_address, 0)
                # "Once it processes all pairs, the log is deleted, making
                # the duplicate old versions unreachable" (§3.4).
                stats.update_log.clear()
                self._old_copy_of.clear()
                if not lazy:
                    # Lazy epochs defer these to epoch close: the old
                    # statics and the transformer class must survive until
                    # the last pending object has been transformed.
                    for old_class in active.renamed:
                        for name, slot in old_class.static_slots.items():
                            if old_class.static_is_ref.get(name):
                                vm.jtoc.write(slot, 0)
                    self._retire_transformers(active.prepared)
                if self.eager_old_copy_reclaim:
                    # The duplicates lived in a segregated region: give it
                    # back now rather than waiting for the next collection.
                    vm.heap.reset_ceiling()
                end_phase("cleanup")
        except VMCrash:
            # A simulated process death gets no graceful abort: the VM is
            # left mid-install, exactly as a real crash would. Whoever owns
            # the process (the fleet controller) handles recovery.
            raise
        except Exception as failure:  # noqa: BLE001 — every failure aborts
            self._abort_apply(txn, current_phase, failure)
            return
        finally:
            vm.gc_disabled = gc_was_disabled

        if active.hold_transaction:
            # Keep the snapshot alive for the caller's verification window.
            # GC must stay off until commit_applied()/rollback_applied():
            # an eager snapshot still references the pre-update heap image,
            # and a lazy rollback truncates the heap to the snapshot bump —
            # both are destroyed by a collection moving objects.
            result.transaction = txn
            vm.gc_disabled = True
            vm.metrics.inc("dsu.held_transactions")
        result.transform_mode = active.transform
        if lazy:
            self._open_lazy_epoch(active, result,
                                  hold=active.hold_transaction)
        result.objects_transformed = stats.objects_updated
        result.status = APPLIED
        result.finished_at_ms = vm.clock.now_ms
        vm.update_pending = False
        vm.yield_flag = False
        if active.update_span is not None and not active.update_span.closed:
            tracer.end(
                active.update_span, status=APPLIED,
                pause_ms=round(result.total_pause_ms, 6),
                objects_transformed=result.objects_transformed,
                gc_skipped=gc_skipped,
            )
        vm.metrics.inc("dsu.updates_applied")
        vm.metrics.observe("dsu.pause_ms", result.total_pause_ms)
        vm.metrics.observe("dsu.safepoint_wait_ms", result.safepoint_wait_ms)
        vm.metrics.observe("dsu.objects_transformed", result.objects_transformed)
        self.active = None

    def _abort_apply(self, txn: UpdateTransaction, current_phase: str,
                     failure: Exception) -> None:
        """Roll the transaction back and convert ``failure`` into a
        structured :data:`ABORTED` result."""
        active = self.active
        assert active is not None
        phase, reason_code, message = _classify_failure(current_phase, failure)
        with self.vm.tracer.span("dsu.rollback", "dsu", failed_phase=phase,
                                 reason=reason_code):
            txn.rollback()
        self.vm.metrics.inc("dsu.rollbacks")
        if self.fault_injector is not None:
            active.result.injected_faults = list(self.fault_injector.fired)
        # A rescue only counts if the transaction committed: the rollback
        # just restored every pre-OSR frame, so nothing stayed remapped.
        active.result.osr_rescued = False
        active.result.extended_osr_frames = 0
        self._abort(message, phase=phase, reason_code=reason_code,
                    rolled_back=True)

    # ------------------------------------------------------------------
    # the update collection: sizing pre-flight, optional growth, collect

    def _preflight_and_collect(
        self,
        active: _ActiveUpdate,
        txn: UpdateTransaction,
        injector: Optional[FaultInjector],
    ) -> GCStats:
        """Run the update collection behind a to-space sizing estimate.

        If the estimate does not fit, either grow the heap in place
        (``heap_grow``) or raise :class:`HeapPreflightError` *before* any
        object is copied — from-space stays untouched, so the abort path
        has no mid-copy forwarding state to un-flip."""
        vm = self.vm
        heap = vm.heap
        preflight = vm.collector.preflight_estimate(active.update_map)
        vm.tracer.instant(
            "dsu.gc.preflight", "dsu",
            needed_cells=preflight.needed_cells,
            available_cells=preflight.available_cells,
            live_cells_upper=preflight.live_cells_upper,
            update_extra_cells=preflight.update_extra_cells,
            updated_instances_upper=preflight.updated_instances_upper,
            fits=preflight.fits,
        )
        if not preflight.fits:
            if not active.heap_grow:
                raise HeapPreflightError(
                    preflight.needed_cells,
                    preflight.available_cells,
                    preflight.suggested_heap_cells,
                )
            self._grow_heap_for_update(active, txn, preflight)
        txn.note_gc_started()
        return vm.collect(
            update_map=active.update_map,
            separate_old_copies=self.eager_old_copy_reclaim,
            oom_at_copy=(
                injector.gc_oom_threshold() if injector is not None else None
            ),
        )

    def _grow_heap_for_update(self, active, txn: UpdateTransaction,
                              preflight) -> None:
        """Grow the heap so the estimate fits, preserving rollback-ability.

        ``Heap.grow`` only works with live data in the low semispace. When
        the high space is current, a plain collection evacuates first (it
        always fits — equal semispaces); the new halfway point is then
        pinned past the *old* heap end so the update collection cannot
        scribble over the pre-update from-space image the transaction
        snapshot still points into."""
        vm = self.vm
        heap = vm.heap
        old_size = heap.size
        min_half = 0
        grow_span = vm.tracer.begin("dsu.gc.grow", "dsu", from_cells=old_size)
        try:
            if heap.current_space != 0:
                # The evacuation writes forwarding words into the snapshot's
                # from-space; mark the transaction so rollback scrubs them.
                txn.note_gc_started()
                vm.collect()
                # The evacuation established exact per-class live counts;
                # re-estimate for a tighter growth target. Keep the new
                # halfway point past the old heap end regardless: rollback
                # needs the pre-update image in the old high space intact.
                preflight = vm.collector.preflight_estimate(active.update_map)
                min_half = old_size
            new_half = max(
                preflight.needed_cells + HEAP_BASE,
                min_half,
                heap.size // 2 + 1,
            )
            heap.grow(2 * new_half)
        finally:
            vm.tracer.end(grow_span, to_cells=heap.size,
                          needed_cells=preflight.needed_cells)
        vm.metrics.inc("dsu.heap_grown")
        vm.metrics.observe("dsu.heap_grow_cells", heap.size - old_size)

    # ------------------------------------------------------------------
    # class installation (paper §3.3)

    def _install_classes(self, active: _ActiveUpdate) -> None:
        vm = self.vm
        prepared = active.prepared
        spec = prepared.spec
        prefix = prepared.prefix

        # Capture the method entries of the classes being replaced, keyed
        # by their original names, before any renaming.
        carryover: Dict[Tuple[str, str, str], MethodEntry] = {}
        old_classes: Dict[str, RVMClass] = {}
        for name in spec.class_updates:
            old_classes[name] = vm.registry.get(name)
        for entry in vm.methods.all_entries():
            if entry.obsolete:
                continue
            owner_name = entry.owner.name
            if owner_name in old_classes and entry.owner is old_classes[owner_name]:
                carryover[(owner_name, entry.info.name, entry.info.descriptor)] = entry

        # 1. Rename old metadata (User -> v131_User) and swap in field-only
        #    stub class files so transformer verification can see them.
        for name, old_class in old_classes.items():
            old_cf = vm.classfiles.pop(name)
            stub = ClassFile(
                prefix + name,
                self._stub_superclass(old_cf.superclass, spec, prefix),
                fields=list(old_cf.fields),
                source_version=old_cf.source_version,
            )
            vm.registry.rename(old_class, prefix + name)
            old_class.classfile = stub
            old_class.obsolete = True
            old_class.tib.invalidate_all()
            vm.classfiles[prefix + name] = stub
            active.renamed.append(old_class)
        for name in spec.deleted_classes:
            removed = vm.registry.maybe_get(name)
            if removed is not None:
                vm.registry.rename(removed, prefix + name)
                removed.obsolete = True
                removed.tib.invalidate_all()
                old_cf = vm.classfiles.pop(name)
                stub = ClassFile(
                    prefix + name,
                    self._stub_superclass(old_cf.superclass, spec, prefix),
                    fields=list(old_cf.fields),
                    source_version=old_cf.source_version,
                )
                removed.classfile = stub
                vm.classfiles[prefix + name] = stub
                active.renamed.append(removed)
                for entry in vm.methods.all_entries():
                    if entry.owner is removed:
                        entry.obsolete = True
                        entry.invalidate()
        # Rekey the registry entries of renamed classes.
        for entry in vm.methods.all_entries():
            if entry.owner in active.renamed:
                vm.methods.rekey(entry)

        # 2. Publish the whole new program's class files.
        for name, classfile in prepared.new_classfiles.items():
            vm.classfiles[name] = classfile

        # 3. Install fresh RVMClass metadata for updated + added classes,
        #    adopting persistent method entries where signatures survive.
        install_names = sorted(spec.class_updates | spec.added_classes)
        new_clinits: List[MethodEntry] = []
        for name in self._superclass_first(install_names, prepared.new_classfiles):
            classfile = prepared.new_classfiles[name]
            new_class = self._install_one(classfile, carryover, active)
            active.result.classes_installed += 1
            if self.fault_injector is not None:
                self.fault_injector.on_class_installed(new_class.name)
            clinit = vm.methods.lookup(new_class.name, CLINIT_NAME, "()V")
            if clinit is not None:
                new_clinits.append(clinit)
        # Entries of replaced classes that no update-side method adopted are
        # gone from the program: mark them unusable.
        for key, entry in carryover.items():
            if entry.owner.obsolete:
                entry.obsolete = True
                entry.invalidate()
        if spec.class_updates:
            active.update_map = {
                old_classes[name].id: vm.registry.get(name)
                for name in spec.class_updates
            }

        # 4. Method-body updates in classes whose signature did not change.
        for class_name, method_name, descriptor in spec.method_body_updates:
            entry = vm.methods.lookup(class_name, method_name, descriptor)
            new_info = prepared.new_classfiles[class_name].get_method(
                method_name, descriptor
            )
            if entry is not None and new_info is not None:
                entry.replace_bytecode(new_info)

        # 5. Category-(2) invalidation: unchanged bytecode, stale offsets.
        for key in active.sets.recompile_keys:
            entry = vm.methods.lookup(*key)
            if entry is not None:
                entry.invalidate()

        # 6. Methods whose opt code inlined a restricted method lose their
        #    machine code too (the inlined body is stale).
        restricted_keys = active.sets.hard_keys | active.sets.recompile_keys
        for entry in vm.methods.all_entries():
            opt = entry.opt_code
            if opt is not None and opt.inlined & restricted_keys:
                entry.invalidate()

        # 7. Load the transformer class (access override allowed only here).
        vm.loader.load(
            dict(prepared.transformer_classfiles),
            run_clinit=False,
            allow_access_override=True,
        )

        # 8. Static initializers of freshly installed classes.
        for clinit in new_clinits:
            vm.run_static_method_synchronously(clinit)

    def _retire_transformers(self, prepared: PreparedUpdate) -> None:
        """Rename the transformer class out of the live namespace so the
        next update can load a fresh one. Eager applies retire during the
        cleanup phase; lazy epochs defer to epoch close."""
        vm = self.vm
        retired_tag = f"retired{len(self.history)}_{prepared.new_version}"
        retired_tag = retired_tag.replace(".", "")
        for name in prepared.transformer_classfiles:
            rvmclass = vm.registry.maybe_get(name)
            if rvmclass is None:
                continue
            new_name = f"{name}_{retired_tag}"
            vm.registry.rename(rvmclass, new_name)
            rvmclass.obsolete = True
            classfile = vm.classfiles.pop(name, None)
            if classfile is not None:
                classfile.name = new_name
                vm.classfiles[new_name] = classfile
            for entry in vm.methods.all_entries():
                if entry.owner is rvmclass:
                    entry.obsolete = True
                    entry.invalidate()
                    vm.methods.rekey(entry)

    def _stub_superclass(self, superclass: Optional[str], spec, prefix: str) -> str:
        if superclass is None:
            return "Object"
        if superclass in spec.class_updates or superclass in spec.deleted_classes:
            return prefix + superclass
        return superclass

    def _superclass_first(self, names: List[str], classfiles: Dict[str, ClassFile]):
        ordered: List[str] = []
        pending = set(names)

        def visit(name: str) -> None:
            if name not in pending:
                return
            pending.discard(name)
            superclass = classfiles[name].superclass
            if superclass in classfiles:
                visit(superclass)
            ordered.append(name)

        for name in list(names):
            visit(name)
        return ordered

    def _install_one(
        self,
        classfile: ClassFile,
        carryover: Dict[Tuple[str, str, str], MethodEntry],
        active: _ActiveUpdate,
    ) -> RVMClass:
        from ..bytecode.classfile import CTOR_NAME
        from ..lang.types import parse_descriptor

        vm = self.vm
        superclass = (
            vm.registry.get(classfile.superclass) if classfile.superclass else None
        )
        new_class = vm.registry.create(
            classfile.name, classfile=classfile, superclass=superclass
        )
        new_class.build_instance_layout()
        for field_info in classfile.static_fields():
            is_ref = parse_descriptor(field_info.descriptor).is_reference()
            slot = vm.jtoc.allocate(is_ref, f"{classfile.name}.{field_info.name}")
            new_class.static_slots[field_info.name] = slot
            new_class.static_is_ref[field_info.name] = is_ref
        own_virtuals = {}
        for key, info in classfile.methods.items():
            carry_key = (classfile.name, info.name, info.descriptor)
            entry = carryover.get(carry_key)
            if entry is not None:
                # Persistent identity: baked INVOKESTATIC/SPECIAL ids in
                # unrelated compiled code stay valid (paper §3.3: "modifies
                # the existing class metadata to refer to the replacement
                # methods' bytecode").
                entry.owner = new_class
                if entry.info.bytecode_hash() != info.bytecode_hash():
                    entry.replace_bytecode(info)
                else:
                    entry.info = info
                    entry.invalidate()  # offsets of this class changed
                vm.methods.rekey(entry)
            else:
                entry = vm.methods.register(new_class, info)
            vm.clock.tick(vm.clock.costs.classload_per_method)
            if not info.is_static and info.name not in (CTOR_NAME, CLINIT_NAME):
                own_virtuals[key] = entry
        new_class.tib.build(own_virtuals)
        vm.clock.tick(vm.clock.costs.classload_per_class)
        return new_class

    # ------------------------------------------------------------------
    # transformers (paper §3.4)

    def _run_class_transformers(self, active: _ActiveUpdate) -> None:
        vm = self.vm
        for name in sorted(active.prepared.spec.class_updates):
            descriptor = f"(L{name};)V"
            entry = vm.methods.lookup(TRANSFORMERS_CLASS, "jvolveClass", descriptor)
            if entry is not None:
                vm.run_static_method_synchronously(entry, [0])
                vm.metrics.inc("dsu.transformer_invocations")

    def _transformer_dispatch(self, prepared: PreparedUpdate,
                              new_classes) -> TransformerDispatch:
        """Build one update's transformer-dispatch table, keyed by new
        class id: the class's ``jvolveObject(new, old)`` entry (``None``
        when the transformer class defines none) and the cycles each
        object's transform charges. The eager log replay and the lazy
        touch and sweep transforms all read it."""
        vm = self.vm
        costs = vm.clock.costs
        dispatch: TransformerDispatch = {}
        for new_class in new_classes:
            descriptor = (
                f"(L{new_class.name};,L{prepared.prefix}{new_class.name};)V"
            )
            dispatch[new_class.id] = (
                vm.methods.lookup(TRANSFORMERS_CLASS, "jvolveObject",
                                  descriptor),
                # Reflective dispatch + field-by-field copy cost model
                # (§4.1: "our transformer functions use reflection to look
                # up jvolveObject, and this function copies one field at a
                # time").
                costs.transform_dispatch
                + costs.transform_field * len(new_class.field_layout),
            )
        return dispatch

    def _invoke_transformer(self, row: Tuple[Optional[MethodEntry], int],
                            new_address: int, old_address: int) -> None:
        """Transform one object through its dispatch-table ``row``: charge
        the dispatch cycles, then run ``jvolveObject(new, old)`` when the
        class has one. Shared by the eager and the lazy schedule."""
        entry, cycles = row
        vm = self.vm
        vm.clock.cycles += cycles
        if entry is not None:
            vm.run_static_method_synchronously(entry, [new_address, old_address])
            vm.metrics.inc("dsu.transformer_invocations")

    def _run_object_transformers(self, active: _ActiveUpdate, update_log) -> None:
        self._transform_in_progress.clear()
        self._old_copy_of = {new: old for old, new in update_log}
        active.dispatch = self._transformer_dispatch(
            active.prepared, active.update_map.values()
        )
        for old_address, new_address in update_log:
            self._transform_object(active, old_address, new_address)

    def _transform_object(self, active: _ActiveUpdate, old_address: int,
                          new_address: int) -> None:
        cells = self.vm.heap.cells
        if cells[new_address + HEADER_STATUS] == 0:
            return  # already transformed
        in_progress = self._transform_in_progress
        if new_address in in_progress:
            raise TransformerCycleError(
                "recursive object transformation cycle detected "
                "(ill-defined transformer functions, paper §3.4)"
            )
        in_progress.add(new_address)
        try:
            if self.fault_injector is not None:
                self.fault_injector.on_transform_object(new_address)
            self._invoke_transformer(
                active.dispatch[cells[new_address + HEADER_TIB]],
                new_address, old_address,
            )
            # Mark transformed *before* releasing in-progress status.
            cells[new_address + HEADER_STATUS] = 0
        finally:
            in_progress.discard(new_address)

    def _force_transform(self, address: int) -> None:
        """``Sys.forceTransform(o)``: ensure ``o`` (a new-version object) is
        transformed before the caller dereferences its fields (§3.4)."""
        active = self.active
        if active is None or address == 0:
            return
        old_address = self._old_copy_of.get(address)
        if old_address is None:
            return  # not an updated object
        self._transform_object(active, old_address, address)

    def _barrier_force(self, address: int) -> None:
        """Automatic read-barrier variant of :meth:`_force_transform`: a
        transformer reading fields of its *own* in-progress object must not
        trip cycle detection — the barrier simply lets the read through
        (lazy semantics: the reader observes the current state)."""
        if address in self._transform_in_progress:
            return
        self._force_transform(address)

    # ------------------------------------------------------------------
    # lazy transformation: the epoch, the read barrier and the sweep

    def _open_lazy_epoch(self, active: _ActiveUpdate, result: UpdateResult,
                         hold: bool) -> None:
        """Install the epoch after a successful lazy apply: every object
        of a changed class is still in place with its old (renamed) class
        and an untouched field image; the barrier and the sweep take over
        from here."""
        vm = self.vm
        heap = vm.heap
        epoch = LazyEpoch(
            prepared=active.prepared,
            new_class_by_old_id=dict(active.update_map),
            renamed=list(active.renamed),
            track_log=hold,
            sweep_cursor=heap.space_start,
            sweep_collections=vm.collector.collections,
            dispatch=self._transformer_dispatch(
                active.prepared, active.update_map.values()
            ),
        )
        epoch.pending_upper = sum(
            heap.live_instances_upper_bound(old_id)
            for old_id in epoch.new_class_by_old_id
        )
        self.lazy_epoch = epoch
        self._lazy_in_progress.clear()
        vm.lazy_barrier = self._lazy_barrier
        vm.idle_work_hook = self._lazy_sweep_slice
        result.lazy_pending_upper = epoch.pending_upper
        if hold:
            result.lazy_epoch = epoch
        vm.tracer.instant(
            "dsu.lazy.epoch-open", "dsu",
            pending_classes=len(epoch.new_class_by_old_id),
            pending_upper=epoch.pending_upper,
        )
        vm.metrics.inc("dsu.lazy.epochs_opened")

    def _uninstall_lazy_hooks(self) -> None:
        vm = self.vm
        if vm.lazy_barrier is not None:
            vm.lazy_barrier = None
        if vm.idle_work_hook is not None:
            vm.idle_work_hook = None
        self.lazy_epoch = None
        self._lazy_in_progress.clear()

    def _lazy_barrier(self, frame, slot: int, heal_only: bool = False) -> None:
        """The interpreter read barrier: called with an operand-stack (or
        receiver) ``slot`` about to be dereferenced. Chases same-space
        forwarding left by earlier transforms — healing only the stack
        slot, never heap cells — and transforms a still-pending changed-
        class object on the spot.

        ``heal_only`` is the identity-comparison variant (REF_EQ): both
        operands are canonicalized through forwarding so ``old == new``
        compares equal, but an untouched pending object stays pending —
        comparing identities is not a field access."""
        epoch = self.lazy_epoch
        if epoch is None:
            return
        vm = self.vm
        heap = vm.heap
        cells = heap.cells
        stack = frame.stack
        address = stack[slot]
        if address == NULL:
            return
        vm.clock.tick(vm.clock.costs.lazy_barrier_check)
        status = cells[address + HEADER_STATUS]
        healed = False
        while status != 0 and heap.in_space(status, heap.current_space):
            address = status
            status = cells[address + HEADER_STATUS]
            healed = True
        if healed:
            stack[slot] = address
            epoch.heals += 1
        if heal_only:
            return
        new_class = epoch.new_class_by_old_id.get(cells[address + HEADER_TIB])
        if new_class is None:
            return
        if address in self._lazy_in_progress:
            # A transformer reading its own old object: let the raw read
            # through (the eager path's cycle-tolerant barrier semantics).
            return
        if not heap.can_allocate(new_class.instance_cells):
            if vm.gc_disabled:
                raise VMTrap(
                    "out of memory: lazy transform inside a held update "
                    "window (GC pinned)"
                )
            vm.collect()
            # The collection healed every root — including this slot — and
            # collapsed all epoch forwarding; re-read and re-check.
            address = stack[slot]
            if address == NULL:
                return
            new_class = epoch.new_class_by_old_id.get(
                cells[address + HEADER_TIB]
            )
            if new_class is None:
                return
            if not heap.can_allocate(new_class.instance_cells):
                raise VMTrap(
                    "out of memory: heap cannot hold the transformed copy"
                )
        stack[slot] = self._lazy_transform(epoch, address, new_class)
        epoch.touch_transforms += 1
        vm.metrics.inc("dsu.lazy.touch_transforms")

    def _lazy_transform(self, epoch: LazyEpoch, old_address: int,
                        new_class: RVMClass) -> int:
        """Transform one pending object: allocate the new-layout object,
        run ``jvolveObject(new, old)``, and write a same-space forwarding
        pointer into the old object's status header. The old object's data
        cells are never written — the exact pre-update field image survives
        for a held-window rollback. Caller guarantees allocation capacity.
        """
        vm = self.vm
        # Pin addresses for the duration: the transformer may allocate, and
        # a collection here would move both copies mid-copy.
        gc_was_disabled = vm.gc_disabled
        vm.gc_disabled = True
        self._lazy_in_progress.add(old_address)
        try:
            new_address = vm.objects.alloc_object(new_class)
            self._invoke_transformer(
                epoch.dispatch[new_class.id], new_address, old_address
            )
            vm.objects.set_status(old_address, new_address)
            if epoch.track_log:
                epoch.transformed_log.append((old_address, new_address))
            epoch.transformed += 1
        finally:
            self._lazy_in_progress.discard(old_address)
            vm.gc_disabled = gc_was_disabled
        return new_address

    def _sweep_some(self, epoch: LazyEpoch, deadline_ms: Optional[float] = None,
                    max_objects: Optional[int] = None) -> int:
        """Advance the background sweep: walk the heap linearly from the
        epoch's cursor, transforming every still-pending object, until the
        deadline/budget runs out or the walk reaches the bump pointer —
        at which point the epoch is closed. Returns objects transformed.

        Termination: the walk is bounded by ``heap.bump`` at visit time;
        objects allocated after a cell is visited are never of an old
        (renamed) class, so nothing behind the cursor ever becomes pending
        again. A collection moves everything, so the cursor restarts —
        but each collection also discards every already-forwarded old
        object, so the pending population is monotonically shrinking."""
        vm = self.vm
        heap = vm.heap
        transformed = 0
        visited = 0
        just_collected = False
        while self.lazy_epoch is epoch:
            if deadline_ms is not None and vm.clock.now_ms >= deadline_ms:
                break
            if max_objects is not None and visited >= max_objects:
                break
            if epoch.sweep_collections != vm.collector.collections:
                # Every object moved; restart the walk in the new space.
                epoch.sweep_collections = vm.collector.collections
                epoch.sweep_cursor = heap.space_start
            cursor = epoch.sweep_cursor
            if cursor >= heap.bump:
                if vm.gc_disabled and epoch.transformed:
                    # Drained, but the closing collection (which collapses
                    # the epoch's forwarding so the barrier can come down)
                    # needs the GC a held update window has pinned. Park;
                    # commit/rollback re-enables collection and the next
                    # sweep slice closes for real.
                    break
                self._close_lazy_epoch(epoch)
                break
            vm.clock.tick(vm.clock.costs.lazy_sweep_object)
            visited += 1
            size = vm.objects.object_size_cells(cursor)
            new_class = None
            if heap.cells[cursor + HEADER_STATUS] == 0:
                new_class = epoch.new_class_by_old_id.get(
                    heap.cells[cursor + HEADER_TIB]
                )
            if new_class is not None:
                if not heap.can_allocate(new_class.instance_cells):
                    if vm.gc_disabled:
                        # Held window pins GC: park the sweep; it resumes
                        # after commit/rollback re-enables collection.
                        break
                    if just_collected:
                        raise OutOfMemoryError(
                            "lazy sweep cannot allocate the transformed "
                            "copy even after collection"
                        )
                    vm.collect()
                    just_collected = True
                    continue
                self._lazy_transform(epoch, cursor, new_class)
                just_collected = False
                transformed += 1
                epoch.sweep_transforms += 1
            epoch.sweep_cursor = cursor + size
        if transformed:
            vm.metrics.inc("dsu.lazy.sweep_transforms", transformed)
        return transformed

    def _lazy_sweep_slice(self, target_ms: float) -> None:
        """``vm.idle_work_hook``: spend an idle scheduler slice draining
        the epoch instead of just advancing the clock."""
        epoch = self.lazy_epoch
        if epoch is None:
            return
        vm = self.vm
        with vm.tracer.span("dsu.lazy.sweep", "dsu", mode="idle") as span:
            transformed = self._sweep_some(epoch, deadline_ms=target_ms)
            span.args.update(
                transformed=transformed,
                drained=self.lazy_epoch is not epoch,
            )

    def drain_lazy_epoch(self, max_objects: Optional[int] = None) -> int:
        """Synchronously drain the open lazy epoch (fully, or up to
        ``max_objects`` sweep visits). Used before a subsequent update and
        by harnesses measuring total lazy overhead. Returns objects
        transformed; 0 when no epoch is open."""
        epoch = self.lazy_epoch
        if epoch is None:
            return 0
        vm = self.vm
        with vm.tracer.span("dsu.lazy.sweep", "dsu", mode="drain") as span:
            transformed = self._sweep_some(epoch, max_objects=max_objects)
            span.args.update(
                transformed=transformed,
                drained=self.lazy_epoch is not epoch,
            )
        return transformed

    def _close_lazy_epoch(self, epoch: LazyEpoch) -> None:
        """The sweep reached the bump pointer: nothing is pending anymore.
        Collapse the epoch's forwarding, run the cleanup the eager path
        did at the pause — clear the old classes' ref statics and retire
        the transformer class — and uninstall the barrier and idle hook.

        The closing collection is load-bearing: the barrier healed only
        the operand-stack slots it saw, so statics, heap cells and frame
        locals still hold old-shell addresses. Every read *and write*
        through those references depends on the barrier chasing the
        forwarding word; the barrier may only come down once a collection
        has rewritten every reference to the transformed copies (the GC's
        ``forward`` chases same-space forwarding for exactly this)."""
        vm = self.vm
        if epoch.transformed:
            vm.collect()
        self._uninstall_lazy_hooks()
        for old_class in epoch.renamed:
            for name, slot in old_class.static_slots.items():
                if old_class.static_is_ref.get(name):
                    vm.jtoc.write(slot, 0)
        self._retire_transformers(epoch.prepared)
        epoch.closed = True
        if not epoch.track_log:
            epoch.transformed_log.clear()
        vm.tracer.instant(
            "dsu.lazy.epoch-drained", "dsu",
            transformed=epoch.transformed,
            touch_transforms=epoch.touch_transforms,
            sweep_transforms=epoch.sweep_transforms,
            heals=epoch.heals,
        )
        vm.metrics.inc("dsu.lazy.epochs_closed")
        vm.metrics.observe("dsu.lazy.touch_transforms", epoch.touch_transforms)
        vm.metrics.observe("dsu.lazy.sweep_transforms", epoch.sweep_transforms)
