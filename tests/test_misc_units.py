"""Additional unit coverage: profiler tuples, interpreter edge cases,
configuration, and the machine facade."""

import pytest

from repro.config import KernelConfig, buggy_config, fixed_config
from repro.errors import ConfigError, KirError
from repro.kir import Annot, Builder, Program
from repro.kir.insn import AtomicOp, AtomicOrdering, BarrierKind
from repro.machine import Machine
from repro.mem.memory import DATA_BASE
from repro.oemu.instrument import instrument_program
from repro.oemu.profiler import AccessEvent, BarrierEvent, Profiler

X = DATA_BASE


def profiled_machine(build, params=()):
    b = Builder("f", params=params)
    build(b)
    b.ret()
    prog, _ = instrument_program(Program([b.function()]))
    profiler = Profiler()
    m = Machine(prog, profiler=profiler)
    return m, profiler


class TestProfiler:
    def test_access_five_tuple(self):
        m, profiler = profiled_machine(lambda b: b.store(X, 0, 7, size=4))
        t = m.spawn("f")
        m.interp.run(t)
        (event,) = [e for e in profiler.events_for(t.thread_id) if isinstance(e, AccessEvent)]
        assert event.mem_addr == X and event.size == 4 and event.is_write
        assert event.inst_addr == m.program.function("f").insns[0].addr
        assert event.function == "f"
        assert event.kind == "store"

    def test_explicit_barrier_three_tuple(self):
        m, profiler = profiled_machine(lambda b: b.rmb())
        t = m.spawn("f")
        m.interp.run(t)
        (event,) = profiler.events_for(t.thread_id)
        assert isinstance(event, BarrierEvent)
        assert event.kind is BarrierKind.RMB and not event.implicit

    def test_release_store_emits_implicit_wmb_before(self):
        m, profiler = profiled_machine(lambda b: b.store_release(X, 0, 1))
        t = m.spawn("f")
        m.interp.run(t)
        events = profiler.events_for(t.thread_id)
        assert isinstance(events[0], BarrierEvent) and events[0].implicit
        assert events[0].kind is BarrierKind.WMB
        assert isinstance(events[1], AccessEvent)

    def test_acquire_load_emits_implicit_rmb_after(self):
        m, profiler = profiled_machine(lambda b: b.load_acquire(X, 0))
        t = m.spawn("f")
        m.interp.run(t)
        events = profiler.events_for(t.thread_id)
        assert isinstance(events[0], AccessEvent)
        assert isinstance(events[1], BarrierEvent) and events[1].kind is BarrierKind.RMB

    def test_full_atomic_emits_both(self):
        m, profiler = profiled_machine(lambda b: b.test_and_set_bit(0, X, 0))
        t = m.spawn("f")
        m.interp.run(t)
        kinds = [
            (type(e).__name__, getattr(e, "kind", None))
            for e in profiler.events_for(t.thread_id)
        ]
        assert kinds[0] == ("BarrierEvent", BarrierKind.WMB)
        assert kinds[1][0] == "AccessEvent"
        assert kinds[2] == ("BarrierEvent", BarrierKind.RMB)

    def test_relaxed_clear_bit_emits_no_barriers(self):
        m, profiler = profiled_machine(lambda b: b.clear_bit(0, X, 0))
        t = m.spawn("f")
        m.interp.run(t)
        assert not [e for e in profiler.events_for(t.thread_id) if isinstance(e, BarrierEvent)]

    def test_atomic_access_flagged(self):
        m, profiler = profiled_machine(lambda b: b.clear_bit(0, X, 0))
        t = m.spawn("f")
        m.interp.run(t)
        (event,) = profiler.events_for(t.thread_id)
        assert isinstance(event, AccessEvent) and event.atomic

    def test_threads_do_not_mix(self):
        m, profiler = profiled_machine(lambda b: b.store(X, 0, 1))
        t1, t2 = m.spawn("f"), m.spawn("f")
        m.interp.run(t1)
        m.interp.run(t2)
        assert len(profiler.events_for(t1.thread_id)) == 1
        assert len(profiler.events_for(t2.thread_id)) == 1

    def test_disable(self):
        m, profiler = profiled_machine(lambda b: b.store(X, 0, 1))
        profiler.enabled = False
        t = m.spawn("f")
        m.interp.run(t)
        assert profiler.events_for(t.thread_id) == []


class TestProfileEventValues:
    """Events are tuple-backed but keep frozen-dataclass value semantics."""

    def test_fields_and_defaults(self):
        assert AccessEvent._fields == (
            "inst_addr", "mem_addr", "size", "is_write", "ts", "annot", "function", "atomic"
        )
        assert BarrierEvent._fields == ("inst_addr", "kind", "ts", "implicit", "function")
        a = AccessEvent(1, 0x100, 8, False, 3)
        assert (a.annot, a.function, a.atomic) == (Annot.PLAIN, "", False)
        b = BarrierEvent(2, BarrierKind.WMB, 4)
        assert (b.implicit, b.function) == (False, "")
        assert a.kind == "load" and AccessEvent(1, 0x100, 8, True, 3).kind == "store"
        assert a.overlaps(AccessEvent(9, 0x107, 1, True, 0))
        assert not a.overlaps(AccessEvent(9, 0x108, 1, True, 0))

    def test_equality_is_per_type(self):
        a = AccessEvent(1, 0x100, 8, True, 3, Annot.ONCE, "f", False)
        fields = (1, 0x100, 8, True, 3, Annot.ONCE, "f", False)
        assert a == AccessEvent(*fields) and not a != AccessEvent(*fields)
        assert a != AccessEvent(1, 0x100, 8, True, 4, Annot.ONCE, "f", False)
        assert a != fields and fields != a and not a == fields
        assert BarrierEvent(1, BarrierKind.RMB, 3) != (1, BarrierKind.RMB, 3, False, "")

    def test_hash_is_the_field_tuple_hash(self):
        a = AccessEvent(1, 0x100, 8, True, 3)
        assert hash(a) == hash((1, 0x100, 8, True, 3, Annot.PLAIN, "", False))
        assert {a: 1}[AccessEvent(1, 0x100, 8, True, 3)] == 1

    def test_immutable(self):
        a = AccessEvent(1, 0x100, 8, True, 3)
        with pytest.raises(AttributeError):
            a.ts = 4
        with pytest.raises(AttributeError):
            a.extra = 1


class TestInterpEdgeCases:
    def test_call_arity_mismatch(self):
        callee = Builder("g", params=["a", "b"])
        callee.ret(0)
        caller = Builder("f")
        caller.call("g", 1)  # one arg for two params
        caller.ret()
        m = Machine(Program([callee.function(), caller.function()]))
        with pytest.raises(KirError, match="expects 2 args"):
            m.run("f")

    def test_cmpxchg_failure_path(self):
        b = Builder("f", params=["addr"])
        b.store("addr", 0, 3)
        old = b.cmpxchg("addr", 0, 99, 7)  # expected 99, actual 3 -> fail
        v = b.load("addr", 0)
        packed = b.mul(old, 10)
        packed = b.add(packed, v)
        b.ret(packed)
        m = Machine(Program([b.function()]))
        assert m.run("f", (X,)) == 33  # old=3 returned, value unchanged

    def test_fetch_add_and_add_return(self):
        b = Builder("f", params=["addr"])
        from repro.kir.insn import AtomicOp

        fa = b.atomic(AtomicOp.FETCH_ADD, "addr", 0, 5, dst="fa")
        ar = b.atomic(AtomicOp.ADD_RETURN, "addr", 0, 5, dst="ar")
        packed = b.mul(fa, 100)
        packed = b.add(packed, ar)
        b.ret(packed)
        m = Machine(Program([b.function()]))
        assert m.run("f", (X,)) == 0 * 100 + 10

    def test_set_bit(self):
        b = Builder("f", params=["addr"])
        b.set_bit(5, "addr", 0)
        v = b.load("addr", 0)
        b.ret(v)
        m = Machine(Program([b.function()]))
        assert m.run("f", (X,)) == 32

    def test_nop_advances(self):
        b = Builder("f")
        b.nop()
        b.nop()
        b.ret(9)
        m = Machine(Program([b.function()]))
        assert m.run("f") == 9

    def test_void_call_discards_result(self):
        g = Builder("g")
        g.ret(77)
        f = Builder("f")
        f.call_void("g")
        f.ret(1)
        m = Machine(Program([g.function(), f.function()]))
        assert m.run("f") == 1


class TestConfig:
    def test_patch_queries(self):
        cfg = KernelConfig(patched=frozenset({"a"}))
        assert cfg.is_patched("a") and not cfg.is_patched("b")

    def test_with_patches_accumulates(self):
        cfg = KernelConfig().with_patches(["a"]).with_patches(["b"])
        assert cfg.is_patched("a") and cfg.is_patched("b")

    def test_replace(self):
        cfg = KernelConfig().replace(ncpus=4)
        assert cfg.ncpus == 4 and cfg.instrumented

    def test_invalid_ncpus(self):
        with pytest.raises(ConfigError):
            KernelConfig(ncpus=0)

    def test_factories(self):
        assert not buggy_config().patched
        assert fixed_config(["x"]).is_patched("x")

    def test_immutability(self):
        cfg = KernelConfig()
        with pytest.raises(Exception):
            cfg.ncpus = 8


class TestMachineFacade:
    def test_thread_ids_unique(self):
        b = Builder("f")
        b.ret(0)
        m = Machine(Program([b.function()]))
        t1, t2, t3 = (m.spawn("f") for _ in range(3))
        assert len({t1.thread_id, t2.thread_id, t3.thread_id}) == 3

    def test_custom_helper_registration(self):
        b = Builder("f")
        r = b.helper("double_it", 21)
        b.ret(r)
        m = Machine(Program([b.function()]))
        m.register_helper("double_it", lambda machine, thread, x: x * 2)
        assert m.run("f") == 42

    def test_unknown_helper_raises(self):
        b = Builder("f")
        b.helper_void("ghost")
        b.ret()
        m = Machine(Program([b.function()]))
        with pytest.raises(KirError, match="unknown helper"):
            m.run("f")
