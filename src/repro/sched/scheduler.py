"""Custom scheduler — deterministic thread interleaving (paper §10.3).

The real OZZ implements this in the hypervisor: a guest thread issues a
``schedule_at(addr)`` hypercall, the hypervisor plants a breakpoint and
suspends/resumes virtual CPUs so exactly one runs at a time.  Our
equivalent drives the stepwise interpreter: one thread runs until it
hits its breakpoint (or finishes), then control passes to the other.

Crucially — and this is the paper's Figure 9 — suspending a thread does
**not** flush its virtual store buffer: a delayed store stays invisible
to the thread that runs next, which is what makes the combination of
interleaving control and OEMU reordering observable.

Breakpoints carry a *policy*:

* ``AFTER``  — switch after the breakpoint instruction executes (used by
  the hypothetical **store** barrier test: the post-barrier store W(d)
  must have committed before the observer runs, Figure 5a);
* ``BEFORE`` — switch just before the instruction executes (used by the
  hypothetical **load** barrier test: the observer must build the store
  history before R(w) runs, Figure 5b).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.errors import ExecutionLimitExceeded
from repro.kir.interp import Interpreter, ThreadCtx, budget_exceeded, spin_exceeded
from repro.trace.events import BreakpointHit


class BreakPolicy(enum.Enum):
    BEFORE = "before"
    AFTER = "after"


@dataclass
class Breakpoint:
    """Stop condition: the Nth execution of an instruction address."""

    inst_addr: int
    policy: BreakPolicy = BreakPolicy.AFTER
    hit: int = 1  # stop on the hit-th execution
    _count: int = 0

    def matches(self, addr: Optional[int]) -> bool:
        return addr is not None and addr == self.inst_addr


class StopReason(enum.Enum):
    BREAKPOINT = "breakpoint"
    FINISHED = "finished"


class CustomScheduler:
    """Runs threads one at a time with breakpoint-driven switches."""

    #: Consecutive steps at one pc (a spinning helper) before a thread is
    #: declared deadlocked.  Since exactly one thread runs at a time, a
    #: spinlock held by a *suspended* thread can never be released while
    #: the current thread spins — bail out fast instead of burning the
    #: whole step budget.
    SPIN_LIMIT = 512

    def __init__(self, interp: Interpreter, max_steps: int = 60_000) -> None:
        self.interp = interp
        self.max_steps = max_steps

    def run_until(self, thread: ThreadCtx, breakpoint: Optional[Breakpoint]) -> StopReason:
        """Run ``thread`` until its breakpoint triggers or it finishes.

        With no breakpoint, runs to completion.  Raises
        :class:`ExecutionLimitExceeded` if the step budget is blown or
        the thread spins in place (a lock that can never be released
        under this schedule).  With neither a breakpoint nor an active
        trace sink the thread drains in :meth:`Interpreter.drain`, which
        applies the same budget and spin limit; otherwise it runs one
        :meth:`Interpreter.step` at a time and the limits are checked
        here.
        """
        interp = self.interp
        if breakpoint is None and interp.untraced:
            interp.drain(thread, self.max_steps, self.SPIN_LIMIT)
            return StopReason.FINISHED
        steps = 0
        spin = 0
        last_pc = None
        step = interp.step  # hoisted: called once per instruction
        while not thread.finished:
            # Inlined thread.current_insn(): a running thread always has
            # a frame, and this executes once per scheduled instruction.
            frames = thread.frames
            frame = frames[-1]
            addr = frame.function.insns[frame.index].addr
            pc = (len(frames), addr)
            if pc == last_pc:
                spin += 1
                if spin > self.SPIN_LIMIT:
                    raise spin_exceeded(thread)
            else:
                spin = 0
                last_pc = pc
            if (
                breakpoint is not None
                and breakpoint.policy is BreakPolicy.BEFORE
                and breakpoint.matches(addr)
            ):
                breakpoint._count += 1
                if breakpoint._count >= breakpoint.hit:
                    self._note_breakpoint(thread, breakpoint)
                    return StopReason.BREAKPOINT
            step(thread)
            steps += 1
            if steps > self.max_steps:
                raise budget_exceeded(thread)
            if (
                breakpoint is not None
                and breakpoint.policy is BreakPolicy.AFTER
                and breakpoint.matches(addr)
            ):
                breakpoint._count += 1
                if breakpoint._count >= breakpoint.hit:
                    self._note_breakpoint(thread, breakpoint)
                    return StopReason.BREAKPOINT
        return StopReason.FINISHED

    def _note_breakpoint(self, thread: ThreadCtx, breakpoint: Breakpoint) -> None:
        trace = self.interp.machine.trace
        if trace.active:
            trace.emit(
                BreakpointHit(
                    thread.thread_id,
                    breakpoint.inst_addr,
                    breakpoint.policy.value,
                    breakpoint._count,
                )
            )

    def run_to_completion(self, thread: ThreadCtx) -> StopReason:
        return self.run_until(thread, None)

    def run_round_robin(self, threads: Sequence[ThreadCtx], quantum: int = 1) -> None:
        """Fair interleaving at ``quantum`` instructions per turn.

        Used by the in-order baseline fuzzer, which explores thread
        interleavings but (running the plain kernel) never reorders
        memory accesses.
        """
        pending: List[ThreadCtx] = [t for t in threads if not t.finished]
        steps = 0
        step = self.interp.step
        while pending:
            for thread in list(pending):
                for _ in range(quantum):
                    if not step(thread):
                        break
                    steps += 1
                    if steps > self.max_steps:
                        raise ExecutionLimitExceeded("round-robin budget exceeded")
                if thread.finished:
                    pending.remove(thread)

    def run_random(self, threads: Sequence[ThreadCtx], rng, switch_prob: float = 0.1) -> None:
        """Randomized interleaving (stress-style baseline)."""
        pending: List[ThreadCtx] = [t for t in threads if not t.finished]
        current = 0
        steps = 0
        step = self.interp.step
        while pending:
            current %= len(pending)
            thread = pending[current]
            if not step(thread):
                pending.remove(thread)
                continue
            steps += 1
            if steps > self.max_steps:
                raise ExecutionLimitExceeded("random-schedule budget exceeded")
            if rng.random() < switch_prob:
                current += 1
