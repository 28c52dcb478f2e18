"""OEMU — in-vivo out-of-order execution emulation (paper §3).

OEMU sits between the interpreter and physical memory for *instrumented*
instructions, exactly where the compiled-in callbacks sit in the real
system.  It implements the two reordering mechanisms:

* **Delayed store operations** (§3.1): stores whose instruction address
  was registered via :meth:`Oemu.delay_store_at` park in the per-thread
  :class:`~repro.mem.store_buffer.VirtualStoreBuffer` instead of
  committing, emulating store-store and store-load reordering.

* **Versioned load operations** (§3.2): loads registered via
  :meth:`Oemu.read_old_value_at` reconstruct, from the global
  :class:`~repro.mem.store_history.StoreHistory`, the value the location
  had at the start of the thread's *versioning window* ``(t_rmb, now]``,
  emulating load-load reordering.

All barrier/annotation semantics come from :mod:`repro.oemu.barriers`
(Table 1), which keeps OEMU LKMM-compliant (§3.3, §10.1): store buffers
flush on wmb/mb/release/atomics-with-release and on interrupts;
versioning windows reset on rmb/mb/acquire/READ_ONCE/atomics-with-acquire.

Loads and stores are *specialised at bind time*: :meth:`Oemu.bind_load`
and :meth:`Oemu.bind_store` turn an annotation into an access path with
its ordering effect, implicit barriers and fence flags folded into
constants, so the common access (not versioned, not delayed, empty store
buffer) is a short path.  The decoded engine binds the path once per
instrumented instruction and passes the instruction's address and
function on each call; the generic :meth:`Oemu.on_load` /
:meth:`Oemu.on_store` (reference engine, litmus runner) look the same
memoized path up and call it, so there is one implementation of the
semantics.  Binding allocates nothing per instruction — a machine binds
every function it executes, and fresh machines are booted all through a
campaign.  Paths read every piece of per-run state (``stats``, the
thread table, ``profiler``, ``trace``) through the ``Oemu`` at call
time, because :meth:`Oemu.restore` and a profiler swap replace those
objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Optional, Set

from repro.clock import LogicalClock
from repro.kir.insn import Annot, AtomicOrdering, BarrierKind
from repro.mem.memory import Memory
from repro.mem.store_buffer import PendingStore, VirtualStoreBuffer
from repro.mem.store_history import StoreHistory
from repro.oemu.barriers import (
    atomic_effect,
    implicit_barriers_for_atomic,
    implicit_barriers_for_load,
    implicit_barriers_for_store,
    load_effect,
    store_effect,
)
from repro.oemu.profiler import Profiler
from repro.trace.events import (
    BufferFlush,
    InterruptInjected,
    StoreDelayed,
    VersionedLoad,
    WindowReset,
)
from repro.trace.sink import NULL_SINK, TraceSink


@dataclass
class OemuStats:
    """Counters for throughput/overhead reporting."""

    stores: int = 0
    loads: int = 0
    delayed: int = 0
    versioned_reads: int = 0
    commits: int = 0
    flushes: int = 0
    barriers: int = 0


@dataclass
class ThreadState:
    """Per-thread OEMU state (store buffer + versioning window + controls)."""

    thread_id: int
    buffer: VirtualStoreBuffer = field(default_factory=VirtualStoreBuffer)
    window_start: int = 0  # t_rmb: most recent load-ordering event
    delay_set: Set[int] = field(default_factory=set)
    version_set: Set[int] = field(default_factory=set)
    #: Per-byte coherence floor: the timestamp of the newest version this
    #: thread has already *observed* for a byte.  Read-read coherence
    #: (CoRR) forbids a later load from the same location returning an
    #: older value, on every architecture the LKMM covers, so versioned
    #: loads never reach below this floor.
    read_floor: Dict[int, int] = field(default_factory=dict)


#: ``op(thread_id, inst_addr, addr, size, function) -> value``, from
#: :meth:`Oemu.bind_load`.
LoadOp = Callable[[int, int, int, int, str], int]
#: ``op(thread_id, inst_addr, addr, size, value, function)``, from
#: :meth:`Oemu.bind_store`.
StoreOp = Callable[[int, int, int, int, int, str], None]


def _copy_buffer(buffer: VirtualStoreBuffer) -> VirtualStoreBuffer:
    copy = VirtualStoreBuffer()
    copy.restore(buffer.snapshot())
    return copy


class Oemu:
    """The OEMU runtime for one simulated machine."""

    def __init__(
        self,
        memory: Memory,
        clock: LogicalClock,
        history: Optional[StoreHistory] = None,
        profiler: Optional[Profiler] = None,
        *,
        trace: TraceSink = NULL_SINK,
    ) -> None:
        self.memory = memory
        self.clock = clock
        self.history = history if history is not None else StoreHistory()
        self.profiler = profiler
        self.trace = trace
        self.stats = OemuStats()
        self._threads: Dict[int, ThreadState] = {}
        #: Access paths specialised per annotation (see :meth:`bind_load`).
        self._load_ops: Dict[Annot, LoadOp] = {}
        self._store_ops: Dict[Annot, StoreOp] = {}

    # -- control interface (paper Table 2) ---------------------------------

    def delay_store_at(self, thread_id: int, inst_addr: int) -> None:
        """When thread ``thread_id`` executes instruction ``inst_addr``,
        its store operation will be delayed."""
        self.thread_state(thread_id).delay_set.add(inst_addr)

    def read_old_value_at(self, thread_id: int, inst_addr: int) -> None:
        """When thread ``thread_id`` executes instruction ``inst_addr``,
        its load operation will read an old value."""
        self.thread_state(thread_id).version_set.add(inst_addr)

    def clear_controls(self, thread_id: int) -> None:
        state = self.thread_state(thread_id)
        state.delay_set.clear()
        state.version_set.clear()

    # -- thread lifecycle ----------------------------------------------------

    def thread_state(self, thread_id: int) -> ThreadState:
        state = self._threads.get(thread_id)
        if state is None:
            state = ThreadState(thread_id=thread_id, window_start=self.clock.now)
            self._threads[thread_id] = state
        return state

    def on_syscall_entry(self, thread_id: int) -> None:
        """Entering the kernel implies full ordering with earlier work."""
        state = self.thread_state(thread_id)
        self._flush(state, reason="syscall-enter")
        self._reset_window(state)

    def on_syscall_exit(self, thread_id: int) -> None:
        """Returning to userspace commits everything (implicit mb)."""
        state = self.thread_state(thread_id)
        self._flush(state, reason="syscall-exit")
        self._reset_window(state)
        # The thread never runs again (ids are not reused within a boot
        # epoch) and its buffer just flushed, so its state is dead.
        # Dropping it keeps snapshot/restore O(live threads) instead of
        # O(syscalls since boot) — the prefix cache snapshots after
        # every profiled call, where this sum would otherwise dominate.
        del self._threads[thread_id]

    def on_interrupt(self, thread_id: int) -> None:
        """An interrupt on the executing CPU flushes the buffer (§3.1)."""
        if self.trace.active:
            self.trace.emit(InterruptInjected(thread_id))
        self._flush(self.thread_state(thread_id), reason="interrupt")

    # -- store path (§3.1) ------------------------------------------------------

    def on_store(
        self,
        thread_id: int,
        inst_addr: int,
        annot: Annot,
        addr: int,
        size: int,
        value: int,
        function: str = "",
    ) -> None:
        self.bind_store(annot)(thread_id, inst_addr, addr, size, value, function)

    def bind_store(self, annot: Annot) -> StoreOp:
        """The store path for ``annot``-annotated stores (memoized).  An
        annotation that is not valid on a store binds fine and raises
        its ``ValueError`` when executed."""
        op = self._store_ops.get(annot)
        if op is None:
            op = self._store_ops[annot] = self._specialise_store(annot)
        return op

    def _specialise_store(self, annot: Annot) -> StoreOp:
        try:
            effect = store_effect(annot)
        except ValueError:
            return self._invalid_op(store_effect, annot)
        implicit_before = implicit_barriers_for_store(annot)
        fence_before = effect.store_fence_before
        delayable = effect.delayable
        clock = self.clock
        commit_bytes = self._commit_bytes

        def store(
            thread_id: int, inst_addr: int, addr: int, size: int, value: int, function: str
        ) -> None:
            state = self._threads.get(thread_id)
            if state is None:
                state = self.thread_state(thread_id)
            self.stats.stores += 1
            for kind in implicit_before:
                self._note_barrier(state, inst_addr, kind, True, function)
            if fence_before:
                self._flush(state, reason="store-fence")
            data = (value & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
            profiler = self.profiler
            if profiler is not None:
                profiler.on_access(
                    thread_id, inst_addr, addr, size, True, clock.now, annot, function
                )
            if delayable and inst_addr in state.delay_set:
                state.buffer.delay(inst_addr, addr, size, data)
                self.stats.delayed += 1
                if self.trace.active:
                    self.trace.emit(StoreDelayed(thread_id, inst_addr, addr, size))
            else:
                commit_bytes(state, inst_addr, addr, data)

        return store

    # -- load path (§3.2) ---------------------------------------------------------

    def on_load(
        self,
        thread_id: int,
        inst_addr: int,
        annot: Annot,
        addr: int,
        size: int,
        function: str = "",
    ) -> int:
        return self.bind_load(annot)(thread_id, inst_addr, addr, size, function)

    def bind_load(self, annot: Annot) -> LoadOp:
        """The load path for ``annot``-annotated loads (memoized).  An
        annotation that is not valid on a load binds fine and raises its
        ``ValueError`` when executed."""
        op = self._load_ops.get(annot)
        if op is None:
            op = self._load_ops[annot] = self._specialise_load(annot)
        return op

    def _specialise_load(self, annot: Annot) -> LoadOp:
        try:
            effect = load_effect(annot)
        except ValueError:
            return self._invalid_op(load_effect, annot)
        implicit_after = implicit_barriers_for_load(annot)
        fence_after = effect.load_fence_after
        versionable = effect.versionable
        read_bytes = self.memory.read_bytes
        clock = self.clock
        fromkeys = dict.fromkeys

        def load(thread_id: int, inst_addr: int, addr: int, size: int, function: str) -> int:
            state = self._threads.get(thread_id)
            if state is None:
                state = self.thread_state(thread_id)
            self.stats.loads += 1
            now = clock.now  # a load never ticks the clock
            if versionable and inst_addr in state.version_set:
                data = self._versioned_read(state, inst_addr, addr, size)
            else:
                data = read_bytes(addr, size)
                # Observed at ``now``, which is at least every recorded
                # floor (a floor is a time some load already observed),
                # so one bulk update equals the per-byte max.  At time 0
                # the per-byte rule records nothing.
                if now:
                    state.read_floor.update(fromkeys(range(addr, addr + size), now))
            buffer = state.buffer
            if buffer._pending:
                # Hierarchical search (§3.1): the thread's own in-flight
                # stores win.
                data = buffer.forward_overlay(addr, size, data)
            profiler = self.profiler
            if profiler is not None:
                profiler.on_access(
                    thread_id, inst_addr, addr, size, False, now, annot, function
                )
            for kind in implicit_after:
                self._note_barrier(state, inst_addr, kind, True, function)
            if fence_after:
                self._reset_window(state)
            return int.from_bytes(data, "little")

        return load

    def _versioned_read(self, state: ThreadState, inst_addr: int, addr: int, size: int) -> bytes:
        """A versioned load's bytes: the oldest values inside the thread's
        window that read-read coherence still allows (§3.2)."""
        read_floor = state.read_floor
        floor = max(
            [state.window_start] + [read_floor.get(addr + i, 0) for i in range(size)]
        )
        thread_id = state.thread_id
        data, any_old = self.history.read_old(
            addr, size, floor, self._current_byte, thread=thread_id
        )
        if any_old:
            self.stats.versioned_reads += 1
        if self.trace.active:
            self.trace.emit(VersionedLoad(thread_id, inst_addr, addr, size, bool(any_old)))
        for i in range(size):
            byte = addr + i
            if floor > read_floor.get(byte, 0):
                read_floor[byte] = floor
        return data

    def _invalid_op(self, effect_of: Callable[[Annot], object], annot: Annot) -> Callable[..., None]:
        """A callback for an annotation the access kind does not accept:
        it raises ``effect_of``'s ``ValueError`` when executed, after
        registering the thread, as the access would have."""

        def invalid(thread_id: int, *_access) -> None:
            self.thread_state(thread_id)
            effect_of(annot)

        return invalid

    # -- explicit barriers -------------------------------------------------------------

    def on_barrier(self, thread_id: int, inst_addr: int, kind: BarrierKind, function: str = "") -> None:
        state = self.thread_state(thread_id)
        self._note_barrier(state, inst_addr, kind, implicit=False, function=function)
        if kind.orders_stores:
            self._flush(state, reason="barrier")
        if kind.orders_loads:
            self._reset_window(state)

    # -- atomics ---------------------------------------------------------------------------

    def on_atomic(
        self,
        thread_id: int,
        inst_addr: int,
        ordering: AtomicOrdering,
        addr: int,
        size: int,
        rmw: Callable[[int], int],
        function: str = "",
    ) -> int:
        """Execute an atomic RMW; returns the old value.

        Atomics are never delayed or versioned.  Their ordering attribute
        decides what they fence: FULL both ways, RELEASE earlier stores,
        ACQUIRE later loads, RELAXED nothing (``clear_bit``, Figure 8).
        """
        state = self.thread_state(thread_id)
        effect = atomic_effect(ordering)
        before, after = implicit_barriers_for_atomic(ordering)
        for kind in before:
            self._note_barrier(state, inst_addr, kind, implicit=True, function=function)
        if effect.store_fence_before:
            self._flush(state, reason="atomic-fence")
        elif state.buffer.overlaps(addr, size):
            # Single-thread consistency: an atomic on bytes we have in
            # flight must see our own store.
            self._flush(state, reason="atomic-overlap")
        old = self.memory.load(addr, size, check=False)
        new = rmw(old) & ((1 << (8 * size)) - 1)
        self._profile_access(state, inst_addr, addr, size, True, Annot.PLAIN, function, atomic=True)
        self._commit_bytes(state, inst_addr, addr, new.to_bytes(size, "little"))
        for kind in after:
            self._note_barrier(state, inst_addr, kind, implicit=True, function=function)
        if effect.load_fence_after:
            self._reset_window(state)
        return old

    # -- snapshot / restore (boot-snapshot reset) -----------------------------

    def snapshot(self):
        """Deep-copy per-thread state and stats (memory/history snapshot
        separately; the trace sink and profiler are attachments, not state).

        Finished threads are pruned at syscall exit, so ``_threads`` is
        normally empty (or holds just the running threads) — both
        snapshot and restore are effectively O(1) plus the stats copy.
        """
        threads = {}
        for tid, st in self._threads.items():
            threads[tid] = ThreadState(
                thread_id=st.thread_id,
                buffer=_copy_buffer(st.buffer),
                window_start=st.window_start,
                delay_set=set(st.delay_set),
                version_set=set(st.version_set),
                read_floor=dict(st.read_floor),
            )
        return threads, replace(self.stats)

    def restore(self, snap) -> None:
        threads, stats = snap
        if threads:
            self._threads = {
                tid: ThreadState(
                    thread_id=st.thread_id,
                    buffer=_copy_buffer(st.buffer),
                    window_start=st.window_start,
                    delay_set=set(st.delay_set),
                    version_set=set(st.version_set),
                    read_floor=dict(st.read_floor),
                )
                for tid, st in threads.items()
            }
        else:
            self._threads.clear()
        self.stats = replace(stats)

    # -- internals ----------------------------------------------------------------------------

    def flush(self, thread_id: int) -> int:
        """Commit all of a thread's delayed stores (testing/harness hook)."""
        return self._flush(self.thread_state(thread_id), reason="harness")

    def pending_stores(self, thread_id: int):
        return self.thread_state(thread_id).buffer.pending

    def window(self, thread_id: int) -> int:
        return self.thread_state(thread_id).window_start

    def _flush(self, state: ThreadState, reason: str = "") -> int:
        count = state.buffer.flush(
            lambda entry: self._commit_pending(state, entry)
        )
        if count:
            self.stats.flushes += 1
            if self.trace.active:
                self.trace.emit(BufferFlush(state.thread_id, count, reason))
        return count

    def _reset_window(self, state: ThreadState) -> None:
        """Move t_rmb to now (the §3.2 versioning-window reset)."""
        state.window_start = self.clock.now
        if self.trace.active:
            self.trace.emit(WindowReset(state.thread_id, state.window_start))

    def _commit_pending(self, state: ThreadState, entry: PendingStore) -> None:
        self._commit_bytes(state, entry.inst_addr, entry.addr, entry.data)

    def _commit_bytes(self, state: ThreadState, inst_addr: int, addr: int, data: bytes) -> None:
        old = self.memory.read_bytes(addr, len(data))
        self.memory.write_bytes(addr, data)
        ts = self.clock.tick()
        self.history.record(ts, addr, len(data), old, data, state.thread_id, inst_addr)
        self.stats.commits += 1

    def _current_byte(self, byte_addr: int) -> int:
        return self.memory.read_bytes(byte_addr, 1)[0]

    def _profile_access(
        self,
        state: ThreadState,
        inst_addr: int,
        addr: int,
        size: int,
        is_write: bool,
        annot: Annot,
        function: str,
        atomic: bool = False,
    ) -> None:
        if self.profiler is not None:
            self.profiler.on_access(
                state.thread_id, inst_addr, addr, size, is_write, self.clock.now, annot, function, atomic
            )

    def _note_barrier(
        self, state: ThreadState, inst_addr: int, kind: BarrierKind, implicit: bool, function: str
    ) -> None:
        self.stats.barriers += 1
        if self.profiler is not None:
            self.profiler.on_barrier(
                state.thread_id, inst_addr, kind, self.clock.now, implicit, function
            )
