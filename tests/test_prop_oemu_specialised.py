"""Property tests: OEMU's bind-time specialised access callbacks.

The decoded engine binds, per instrumented load/store, the OEMU access
path specialised to its annotation (:meth:`Oemu.bind_load` /
:meth:`Oemu.bind_store`: effect, implicit barriers and fence flags
folded into constants); the reference engine and the litmus runner call
the generic :meth:`Oemu.on_load` / :meth:`Oemu.on_store`.  Three
machines run the same random access stream here:

* **bound** — paths bound once per instruction, before any control is
  installed, then called like the decoded engine calls them;
* **generic** — the ``on_load`` / ``on_store`` entry points;
* **model** — :class:`ModelOemu`, the straight-line per-access rules
  (one effect lookup and a per-byte coherence-floor loop per access),
  an oracle independent of the specialisation.

Delay/version controls arrive before and between accesses, store
buffers fill up, the profiler is attached, detached and disabled along
the way, OEMU state is snapshotted and restored (which replaces the
``stats`` object and the thread table under the bound callbacks), and an
active trace sink records everything.  Return values, memory,
per-thread OEMU state, ``OemuStats``, profiler events and trace events
must be identical on all three.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.clock import LogicalClock
from repro.config import KernelConfig
from repro.fuzzer.sti import STI, Call, ResourceRef, profile_sti
from repro.kernel.kernel import Kernel, KernelImage
from repro.kir.insn import Annot, BarrierKind
from repro.mem.memory import DATA_BASE, Memory
from repro.mem.store_history import StoreHistory
from repro.oemu.barriers import (
    implicit_barriers_for_load,
    implicit_barriers_for_store,
    load_effect,
    store_effect,
)
from repro.oemu.core import Oemu
from repro.oemu.profiler import Profiler
from repro.trace.events import StoreDelayed, VersionedLoad
from repro.trace.recorder import TraceRecorder

TIDS = (1, 2)
NINSNS = 6
INSNS = tuple(0x40_0000 + 4 * i for i in range(NINSNS))
NSLOTS = 6
REGION = 4 * NSLOTS + 8
FUNCTION = "f"


class ModelOemu(Oemu):
    """Every access decided anew: the specialisation's oracle."""

    def on_store(self, thread_id, inst_addr, annot, addr, size, value, function=""):
        state = self.thread_state(thread_id)
        effect = store_effect(annot)
        self.stats.stores += 1
        for kind in implicit_barriers_for_store(annot):
            self._note_barrier(state, inst_addr, kind, implicit=True, function=function)
        if effect.store_fence_before:
            self._flush(state, reason="store-fence")
        data = (value & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
        self._profile_access(state, inst_addr, addr, size, True, annot, function)
        if effect.delayable and inst_addr in state.delay_set:
            state.buffer.delay(inst_addr, addr, size, data)
            self.stats.delayed += 1
            if self.trace.active:
                self.trace.emit(StoreDelayed(state.thread_id, inst_addr, addr, size))
        else:
            self._commit_bytes(state, inst_addr, addr, data)

    def on_load(self, thread_id, inst_addr, annot, addr, size, function=""):
        state = self.thread_state(thread_id)
        effect = load_effect(annot)
        self.stats.loads += 1
        if effect.versionable and inst_addr in state.version_set:
            floor = max(
                [state.window_start]
                + [state.read_floor.get(addr + i, 0) for i in range(size)]
            )
            base, any_old = self.history.read_old(
                addr, size, floor, self._current_byte, thread=thread_id
            )
            if any_old:
                self.stats.versioned_reads += 1
            if self.trace.active:
                self.trace.emit(
                    VersionedLoad(thread_id, inst_addr, addr, size, bool(any_old))
                )
            observed_ts = floor
        else:
            base = self.memory.read_bytes(addr, size)
            observed_ts = self.clock.now
        for i in range(size):
            byte = addr + i
            if observed_ts > state.read_floor.get(byte, 0):
                state.read_floor[byte] = observed_ts
        data = state.buffer.forward_overlay(addr, size, base)
        self._profile_access(state, inst_addr, addr, size, False, annot, function)
        for kind in implicit_barriers_for_load(annot):
            self._note_barrier(state, inst_addr, kind, implicit=True, function=function)
        if effect.load_fence_after:
            self._reset_window(state)
        return int.from_bytes(data, "little")


class World:
    """One OEMU machine plus the attachments the stream toggles."""

    def __init__(self, oemu_cls, annots, profiler_on, bound):
        self.profiler = Profiler()
        self.trace = TraceRecorder()
        self.oemu = oemu_cls(
            Memory(),
            LogicalClock(),
            StoreHistory(),
            self.profiler if profiler_on else None,
            trace=self.trace,
        )
        self.snap = None
        self.loads = self.stores = None
        if bound:
            self.loads = {ia: self.oemu.bind_load(annots[ia][0]) for ia in INSNS}
            self.stores = {ia: self.oemu.bind_store(annots[ia][1]) for ia in INSNS}
        self.annots = annots

    def apply(self, op):
        kind = op[0]
        oemu = self.oemu
        try:
            if kind == "load":
                _, tid, ia, slot, size = op
                addr = DATA_BASE + 4 * slot
                if self.loads is not None:
                    return self.loads[ia](tid, ia, addr, size, FUNCTION)
                return oemu.on_load(tid, ia, self.annots[ia][0], addr, size, FUNCTION)
            if kind == "store":
                _, tid, ia, slot, size, value = op
                addr = DATA_BASE + 4 * slot
                if self.stores is not None:
                    return self.stores[ia](tid, ia, addr, size, value, FUNCTION)
                return oemu.on_store(tid, ia, self.annots[ia][1], addr, size, value, FUNCTION)
        except ValueError as err:
            return ("ValueError", str(err))
        if kind == "delay":
            oemu.delay_store_at(op[1], op[2])
        elif kind == "version":
            oemu.read_old_value_at(op[1], op[2])
        elif kind == "barrier":
            oemu.on_barrier(op[1], 0x50_0000, op[2], FUNCTION)
        elif kind == "exit":
            if op[1] in oemu._threads:
                oemu.on_syscall_exit(op[1])
        elif kind == "profiler":
            mode = op[1]
            if mode == "detach":
                oemu.profiler = None
            else:
                oemu.profiler = self.profiler
                self.profiler.enabled = mode == "enable"
        elif kind == "snapshot":
            self.snap = oemu.snapshot()
        elif kind == "restore" and self.snap is not None:
            oemu.restore(self.snap)
        return None

    def observe(self):
        oemu = self.oemu
        threads = {
            tid: (
                state.window_start,
                dict(state.read_floor),
                list(state.read_floor),
                set(state.delay_set),
                set(state.version_set),
                state.buffer.pending,
            )
            for tid, state in oemu._threads.items()
        }
        return (
            oemu.memory.read_bytes(DATA_BASE, REGION),
            oemu.clock.now,
            threads,
            replace(oemu.stats),
            {tid: self.profiler.events_for(tid) for tid in TIDS},
            self.trace.events(),
        )


load_annots = st.sampled_from([Annot.PLAIN, Annot.ONCE, Annot.ACQUIRE])
store_annots = st.sampled_from([Annot.PLAIN, Annot.ONCE, Annot.RELEASE])
tids = st.sampled_from(TIDS)
insns = st.sampled_from(INSNS)
slots = st.integers(min_value=0, max_value=NSLOTS - 1)
sizes = st.sampled_from([1, 2, 4, 8])

ops = st.one_of(
    st.tuples(st.just("load"), tids, insns, slots, sizes),
    st.tuples(st.just("store"), tids, insns, slots, sizes, st.integers(0, 2**64 - 1)),
    st.tuples(st.just("delay"), tids, insns),
    st.tuples(st.just("version"), tids, insns),
    st.tuples(st.just("barrier"), tids, st.sampled_from(list(BarrierKind))),
    st.tuples(st.just("exit"), tids),
    st.tuples(st.just("profiler"), st.sampled_from(["attach", "detach", "disable", "enable"])),
    st.tuples(st.just("snapshot")),
    st.tuples(st.just("restore")),
)


@st.composite
def streams(draw):
    annots = {ia: (draw(load_annots), draw(store_annots)) for ia in INSNS}
    # Controls installed before the first access, then interleaved.
    prelude = draw(st.lists(
        st.one_of(
            st.tuples(st.just("delay"), tids, insns),
            st.tuples(st.just("version"), tids, insns),
        ),
        max_size=4,
    ))
    body = draw(st.lists(ops, min_size=1, max_size=40))
    return annots, draw(st.booleans()), prelude + body


def _worlds(annots, profiler_on):
    return (
        World(Oemu, annots, profiler_on, bound=True),
        World(Oemu, annots, profiler_on, bound=False),
        World(ModelOemu, annots, profiler_on, bound=False),
    )


class TestSpecialisedCallbacks:
    @given(streams())
    @settings(max_examples=150, deadline=None)
    def test_bound_generic_and_model_agree(self, stream):
        annots, profiler_on, stream_ops = stream
        worlds = _worlds(annots, profiler_on)
        for op in stream_ops:
            results = [w.apply(op) for w in worlds]
            assert results[0] == results[1] == results[2], op
        bound, generic, model = (w.observe() for w in worlds)
        assert bound == model
        assert generic == model

    @given(streams())
    @settings(max_examples=40, deadline=None)
    def test_buffered_stores_forward_to_specialised_loads(self, stream):
        """Every access after a prelude that parks a store per thread:
        the short path must notice the non-empty buffer."""
        annots, profiler_on, stream_ops = stream
        annots = {ia: (load, Annot.PLAIN) for ia, (load, _) in annots.items()}
        worlds = _worlds(annots, profiler_on)
        prelude = []
        for tid in TIDS:
            prelude += [("delay", tid, INSNS[0]), ("store", tid, INSNS[0], tid, 8, 0xA5A5 * tid)]
        for op in prelude + stream_ops:
            results = [w.apply(op) for w in worlds]
            assert results[0] == results[1] == results[2], op
        assert worlds[0].observe() == worlds[2].observe()


class TestInvalidAnnotations:
    @pytest.mark.parametrize(
        "kind, annot",
        [("load", Annot.RELEASE), ("store", Annot.ACQUIRE)],
    )
    def test_raises_at_execute_time_not_bind_time(self, kind, annot):
        annots = {ia: (Annot.PLAIN, Annot.PLAIN) for ia in INSNS}
        annots[INSNS[0]] = (annot, annot)
        worlds = _worlds(annots, True)  # binding the invalid path must not raise
        op = (
            ("load", 1, INSNS[0], 0, 8)
            if kind == "load"
            else ("store", 1, INSNS[0], 0, 8, 7)
        )
        results = [w.apply(op) for w in worlds]
        assert results[0] == results[1] == results[2]
        assert results[0][0] == "ValueError" and "not valid" in results[0][1]
        observed = [w.observe() for w in worlds]
        assert observed[0] == observed[1] == observed[2]
        assert 1 in worlds[0].oemu._threads  # the access registered its thread


class TestResetThenRerun:
    def test_bound_callbacks_follow_restored_state(self):
        """Kernel.reset replaces ``oemu.stats``; the decoded engine's
        bound access paths must count into the new object, so a pooled
        kernel's rerun matches its first run and a fresh kernel's."""
        image = KernelImage(KernelConfig())
        sti = STI((
            Call("socket"),
            Call("tls_init", (ResourceRef(0),)),
            Call("setsockopt", (ResourceRef(0),)),
            Call("tls_set_crypto", (ResourceRef(0), 7)),
            Call("tls_getsockopt", (ResourceRef(0),)),
        ))
        kernel = Kernel(image, profiler=Profiler())
        first = profile_sti(image, sti, kernel=kernel)
        first_stats = replace(kernel.oemu.stats)
        kernel.reset()
        second = profile_sti(image, sti, kernel=kernel)
        fresh_kernel = Kernel(image, profiler=Profiler())
        fresh = profile_sti(image, sti, kernel=fresh_kernel)
        assert first.ok and first_stats.loads > 0 and first_stats.stores > 0
        assert kernel.oemu.stats == first_stats == fresh_kernel.oemu.stats
        for run in (second, fresh):
            assert run.retvals == first.retvals
            assert [p.events for p in run.profiles] == [p.events for p in first.profiles]
