"""Tests for the custom scheduler (paper §10.3, Figure 9)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import ENGINES
from repro.errors import ExecutionLimitExceeded
from repro.kir import Builder, Program
from repro.kir.insn import Store
from repro.kir.interp import HelperRetry
from repro.machine import Machine
from repro.mem.memory import DATA_BASE
from repro.oemu.instrument import instrument_program
from repro.sched import BreakPolicy, Breakpoint, CustomScheduler, StopReason

X = DATA_BASE
Y = DATA_BASE + 8


def counter_program():
    b = Builder("count", params=["n"])
    b.mov(0, dst="i")
    top = b.label()
    done = b.label()
    b.bind(top)
    b.bge("i", "n", done)
    b.store(X, 0, "i")
    b.add("i", 1, dst="i")
    b.jmp(top)
    b.bind(done)
    b.ret("i")
    return Program([b.function()])


def writer_program():
    b = Builder("w")
    b.store(X, 0, 1)
    b.store(Y, 0, 2)
    b.ret()
    return b.function()


class TestBreakpoints:
    def test_after_policy_stops_past_instruction(self):
        prog = Program([writer_program()])
        m = Machine(prog)
        sched = CustomScheduler(m.interp)
        store_y = [i for i in prog.function("w").insns if isinstance(i, Store)][1]
        t = m.spawn("w")
        reason = sched.run_until(t, Breakpoint(store_y.addr, BreakPolicy.AFTER))
        assert reason is StopReason.BREAKPOINT
        assert m.memory.load(Y, 8) == 2  # the instruction executed

    def test_before_policy_stops_short(self):
        prog = Program([writer_program()])
        m = Machine(prog)
        sched = CustomScheduler(m.interp)
        store_y = [i for i in prog.function("w").insns if isinstance(i, Store)][1]
        t = m.spawn("w")
        reason = sched.run_until(t, Breakpoint(store_y.addr, BreakPolicy.BEFORE))
        assert reason is StopReason.BREAKPOINT
        assert m.memory.load(X, 8) == 1   # earlier store done
        assert m.memory.load(Y, 8) == 0   # breakpointed store NOT done

    def test_hit_count_selects_nth_occurrence(self):
        prog = counter_program()
        m = Machine(prog)
        sched = CustomScheduler(m.interp)
        store = next(i for i in prog.function("count").insns if isinstance(i, Store))
        t = m.spawn("count", (5,))
        reason = sched.run_until(t, Breakpoint(store.addr, BreakPolicy.AFTER, hit=3))
        assert reason is StopReason.BREAKPOINT
        assert m.memory.load(X, 8) == 2  # third store wrote i == 2

    def test_missed_breakpoint_runs_to_completion(self):
        prog = Program([writer_program()])
        m = Machine(prog)
        sched = CustomScheduler(m.interp)
        t = m.spawn("w")
        reason = sched.run_until(t, Breakpoint(0xDEAD_0000, BreakPolicy.AFTER))
        assert reason is StopReason.FINISHED

    def test_resume_after_breakpoint(self):
        prog = Program([writer_program()])
        m = Machine(prog)
        sched = CustomScheduler(m.interp)
        store_x = [i for i in prog.function("w").insns if isinstance(i, Store)][0]
        t = m.spawn("w")
        sched.run_until(t, Breakpoint(store_x.addr, BreakPolicy.AFTER))
        assert sched.run_to_completion(t) is StopReason.FINISHED
        assert m.memory.load(Y, 8) == 2


class TestFigure9Semantics:
    def test_suspension_does_not_flush_store_buffer(self):
        """The load-bearing property of Figure 9: a delayed store stays
        uncommitted while its thread is suspended at a breakpoint."""
        prog, _ = instrument_program(Program([writer_program()]))
        m = Machine(prog)
        sched = CustomScheduler(m.interp)
        stores = [i for i in prog.function("w").insns if isinstance(i, Store)]
        t = m.spawn("w")
        m.oemu.delay_store_at(t.thread_id, stores[0].addr)
        sched.run_until(t, Breakpoint(stores[1].addr, BreakPolicy.AFTER))
        # Suspended: Y committed, X still parked in the buffer.
        assert m.memory.load(Y, 8) == 2
        assert m.memory.load(X, 8) == 0
        assert len(m.oemu.pending_stores(t.thread_id)) == 1


class TestSpinDetection:
    def test_helper_retry_loop_detected_quickly(self):
        b = Builder("locker", params=["lock"])
        b.helper_void("spin_lock", "lock")
        b.ret()
        prog = Program([b.function()])
        m = Machine(prog)

        from repro.kernel.helpers import h_spin_lock

        m.register_helper("spin_lock", h_spin_lock)
        m.lockdep.enabled = False
        m.memory.store(X, 8, 1, check=False)  # lock already held
        t = m.spawn("locker", (X,))
        sched = CustomScheduler(m.interp)
        with pytest.raises(ExecutionLimitExceeded, match="spinning"):
            sched.run_to_completion(t)
        # Detection happens in ~SPIN_LIMIT steps, not the whole budget.
        assert t.steps < CustomScheduler.SPIN_LIMIT + 16

    def test_normal_loop_is_not_flagged_as_spin(self):
        prog = counter_program()
        m = Machine(prog)
        sched = CustomScheduler(m.interp)
        t = m.spawn("count", (2000,))
        assert sched.run_to_completion(t) is StopReason.FINISHED


SPIN_LIMIT = CustomScheduler.SPIN_LIMIT
NEVER = Breakpoint(0xDEAD_0000, BreakPolicy.AFTER)  # stepped, never stops


def retry_program():
    """``main`` loops a few times, takes a lock, calls ``sub`` (a frame
    switch) and takes the lock again.  Each take spins in place through
    a given number of HelperRetry steps before the lock is released."""
    b = Builder("main")
    b.mov(0, dst="i")
    top = b.label()
    b.bind(top)
    b.add("i", 1, dst="i")
    b.blt("i", 4, top)
    b.helper_void("take")
    b.call_void("sub")
    b.helper_void("take")
    b.ret("i")
    sub = Builder("sub")
    sub.store(X, 0, 7)
    sub.ret()
    return Program([b.function(), sub.function()])


def self_jump_program():
    b = Builder("main")
    b.mov(0, dst="i")
    here = b.label()
    b.bind(here)
    b.jmp(here)
    return Program([b.function()])


def run_both_ways(engine, program, *, fuel, max_steps=60_000, retries=0):
    """Run the same thread on the scheduler's drain and on its stepped
    path; both must give the same outcome, steps, fuel and end state."""
    seen = []
    for breakpoint in (None, NEVER):
        m = Machine(program, engine=engine)
        spun = [0]

        def take(machine, thread):
            if spun[0] < retries:
                spun[0] += 1
                raise HelperRetry
            spun[0] = 0

        m.register_helper("take", take)
        t = m.interp.spawn("main", thread_id=m.new_thread_id(), fuel=fuel)
        try:
            outcome = CustomScheduler(m.interp, max_steps).run_until(t, breakpoint)
        except ExecutionLimitExceeded as exc:
            outcome = str(exc)
        seen.append((outcome, t.steps, t.fuel, t.finished, t.retval))
    assert seen[0] == seen[1]
    return seen[0]


@pytest.mark.parametrize("engine", ENGINES)
class TestDrainEdges:
    """The drain runs in the interpreter's loop; its budget and spin
    edges must fall on the same step as the stepped path's."""

    def test_budget_edge(self, engine):
        b = Builder("main")  # three steps: store, store, ret
        b.store(X, 0, 1)
        b.store(Y, 0, 2)
        b.ret()
        prog = Program([b.function()])
        assert run_both_ways(engine, prog, fuel=100, max_steps=3) == (
            StopReason.FINISHED, 3, 97, True, 0
        )
        # Finishing on step max_steps + 1 still blows the budget.
        outcome, *rest = run_both_ways(engine, prog, fuel=100, max_steps=2)
        assert outcome == "thread 1 exceeded scheduler budget"
        assert rest == [3, 97, True, 0]

    def test_helper_retry_spin_edge(self, engine):
        prog = retry_program()
        # main: mov, 4 x (add, blt), take, call, take, ret; sub: store, ret.
        straight = 1 + 8 + 1 + 1 + 1 + 1 + 2
        done = run_both_ways(engine, prog, fuel=10_000, retries=SPIN_LIMIT)
        spins = 2 * SPIN_LIMIT  # two separate runs, neither over the limit
        assert done == (StopReason.FINISHED, straight + spins, 10_000 - straight - spins, True, 4)
        outcome, steps, *_ = run_both_ways(engine, prog, fuel=10_000, retries=SPIN_LIMIT + 1)
        assert "spinning at main" in outcome
        assert steps == 9 + SPIN_LIMIT + 1  # the first take's last retry raised

    def test_self_jump_spin_edge(self, engine):
        prog = self_jump_program()
        # mov, then SPIN_LIMIT jumps to the same index: fuel runs out first.
        outcome, steps, fuel, *_ = run_both_ways(engine, prog, fuel=SPIN_LIMIT + 1)
        assert "exceeded fuel" in outcome and (steps, fuel) == (SPIN_LIMIT + 1, 0)
        # One more jump in place and the spin limit trips.
        outcome, steps, fuel, *_ = run_both_ways(engine, prog, fuel=SPIN_LIMIT + 2)
        assert "spinning at main" in outcome and (steps, fuel) == (SPIN_LIMIT + 2, 0)

    def test_jumps_that_move_are_not_a_spin(self, engine):
        b = Builder("main")  # two jumps bouncing between each other
        b.mov(0, dst="i")
        ping, pong = b.label(), b.label()
        b.bind(ping)
        b.jmp(pong)
        b.bind(pong)
        b.jmp(ping)
        prog = Program([b.function()])
        outcome, steps, fuel, *_ = run_both_ways(engine, prog, fuel=4 * SPIN_LIMIT)
        assert "exceeded fuel" in outcome and (steps, fuel) == (4 * SPIN_LIMIT, 0)

    @given(
        fuel=st.integers(0, 2 * SPIN_LIMIT + 40),
        max_steps=st.integers(0, 2 * SPIN_LIMIT + 40),
        retries=st.integers(0, SPIN_LIMIT + 8),
    )
    @settings(max_examples=60, deadline=None)
    def test_drain_matches_stepped(self, engine, fuel, max_steps, retries):
        run_both_ways(engine, retry_program(), fuel=fuel, max_steps=max_steps, retries=retries)


class TestAlternativeSchedules:
    def test_round_robin_completes_both(self):
        prog = counter_program()
        m = Machine(prog)
        t1 = m.spawn("count", (10,))
        t2 = m.spawn("count", (20,))
        CustomScheduler(m.interp).run_round_robin([t1, t2], quantum=3)
        assert t1.finished and t2.finished
        assert (t1.retval, t2.retval) == (10, 20)

    def test_random_schedule_completes_both(self):
        prog = counter_program()
        m = Machine(prog)
        t1 = m.spawn("count", (10,))
        t2 = m.spawn("count", (20,))
        CustomScheduler(m.interp).run_random([t1, t2], random.Random(0))
        assert t1.finished and t2.finished

    def test_step_budget_enforced(self):
        prog = counter_program()
        m = Machine(prog)
        t = m.spawn("count", (100_000,))
        sched = CustomScheduler(m.interp, max_steps=500)
        with pytest.raises(ExecutionLimitExceeded):
            sched.run_to_completion(t)
