"""ExecTrace bus overhead — the no-op sink must stay under 5%.

Every retired instruction passes the bus's dispatch point
(``Interpreter.step``), so the refactor's hot-path budget is explicit:
with the default :data:`~repro.trace.sink.NULL_SINK` attached, the
dispatch costs one attribute load and a falsy branch per step — no
event object is ever constructed.

The A/B here pits the shipped interpreter (NULL_SINK attached) against
a ``_BaselineInterpreter`` whose ``step`` is the shipped decoded-engine
body with the trace dispatch removed, on the most adversarial workload:
a tight arithmetic + load/store loop where per-step dispatch is the
largest possible fraction of the work.  Real fuzzing workloads
(syscalls, OEMU callbacks, oracles) only dilute the ratio further.

Both arms run ``Interpreter.run`` with a step cap above the loop's step
count.  Uncapped, an untraced thread runs in ``Interpreter.drain`` and
never calls ``step``, so the A/B would time two identical loops; the
cap routes every retirement through ``step``, and an untimed probe run
per arm asserts that it did.  Both arms are timed in process CPU time
(``time.process_time``), which other processes on a shared host
disturb less than wall time does.

Informational numbers for the recording sinks (ring recorder, metrics)
ride along, and everything lands in
``benchmarks/artifacts/trace_overhead.json``.
"""

from __future__ import annotations

import json
import os
import time

from repro.errors import ExecutionLimitExceeded
from repro.kir import Builder, Program
from repro.kir.interp import HelperRetry, Interpreter
from repro.machine import Machine
from repro.mem.memory import DATA_BASE
from repro.oemu.instrument import instrument_program
from repro.trace import TeeSink, TraceMetrics, TraceRecorder

ARTIFACT_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "artifacts", "trace_overhead.json"
)

LOOP_ITERS = 15_000   # 5 instructions per iteration, well under fuel
ROUNDS = 9            # interleaved min-of-N keeps scheduler noise out
OVERHEAD_BUDGET = 0.05
# store + load + 2 adds + branch retire per iteration; 2 movs + ret outside.
STEPS = LOOP_ITERS * 5 + 3
# Any cap makes ``Interpreter.run`` step; this one is never reached.
MAX_STEPS = 2 * STEPS


class _BaselineInterpreter(Interpreter):
    """The shipped ``Interpreter.step`` with its trace dispatch removed,
    on the decoded engine's op table.  The A side of the A/B."""

    def __init__(self, machine) -> None:
        super().__init__(machine)
        assert self.engine == "decoded", "the A/B runs the decoded engine"

    def step(self, thread):
        if thread.finished:
            return False
        if thread.fuel <= 0:
            raise ExecutionLimitExceeded(
                f"thread {thread.thread_id} exceeded fuel in {thread.current_function}"
            )
        thread.fuel -= 1
        thread.steps += 1
        frame = thread.frames[-1]
        index = frame.index
        kcov = self._kcov
        if kcov is not None:
            kcov.on_insn(thread.thread_id, frame.function.insns[index].addr)
        ops = frame.ops
        if ops is None:
            ops = self._enter(frame)
        try:
            advance = ops[index](thread, frame)
        except HelperRetry:
            return True
        if advance and not thread.finished and thread.frames and thread.frames[-1] is frame:
            frame.index += 1
        return not thread.finished


def _loop_program() -> Program:
    """A tight loop: store, load, two adds, compare-branch per iteration."""
    b = Builder("spin", params=["n"])
    i = b.mov(0)
    acc = b.mov(0)
    top = b.label()
    b.bind(top)
    b.store(DATA_BASE, 0, i)
    v = b.load(DATA_BASE, 0)
    b.add(acc, v, dst=acc)
    b.add(i, 1, dst=i)
    b.blt(i, b.reg("n"), top)
    b.ret(acc)
    prog, _ = instrument_program(Program([b.function()]))
    return prog


PROGRAM = _loop_program()
EXPECTED = sum(range(LOOP_ITERS))


def _run(make_machine) -> int:
    m = make_machine()
    return m.interp.run(m.spawn("spin", (LOOP_ITERS,)), max_steps=MAX_STEPS)


def _step_calls(make_machine) -> int:
    """How many times one run of the workload calls ``Interpreter.step``."""
    m = make_machine()
    calls = 0
    step = m.interp.step

    def counting(thread):
        nonlocal calls
        calls += 1
        return step(thread)

    m.interp.step = counting  # ``run`` looks ``step`` up on the instance
    m.interp.run(m.spawn("spin", (LOOP_ITERS,)), max_steps=MAX_STEPS)
    return calls


def _time_once(make_machine) -> float:
    t0 = time.process_time()
    result = _run(make_machine)
    elapsed = time.process_time() - t0
    assert result == EXPECTED
    return elapsed


def _null_machine() -> Machine:
    return Machine(PROGRAM)  # default sink: NULL_SINK


def _baseline_machine() -> Machine:
    m = Machine(PROGRAM)
    m.interp = _BaselineInterpreter(m)
    return m


def test_null_sink_overhead_under_budget():
    """The tentpole's perf gate: NULL_SINK dispatch costs < 5%."""
    # Both arms retire every instruction through step(), or the A/B
    # would time the tight loop instead of the dispatch it names.
    assert _step_calls(_baseline_machine) == STEPS
    assert _step_calls(_null_machine) == STEPS
    # Warm up both paths (bytecode caches, allocator pools).
    _time_once(_baseline_machine)
    _time_once(_null_machine)
    baseline = nullsink = float("inf")
    for _ in range(ROUNDS):
        baseline = min(baseline, _time_once(_baseline_machine))
        nullsink = min(nullsink, _time_once(_null_machine))
    overhead = nullsink / baseline - 1.0

    # Informational: what attaching a real sink costs on the same loop.
    recorder = TraceRecorder()
    rec_time = _time_once(lambda: Machine(PROGRAM, trace=recorder))
    metrics = TraceMetrics()
    met_time = _time_once(lambda: Machine(PROGRAM, trace=metrics))
    tee_time = _time_once(
        lambda: Machine(PROGRAM, trace=TeeSink([TraceRecorder(), TraceMetrics()]))
    )

    artifact = {
        "workload": {
            "description": "tight store/load/add loop (adversarial for dispatch)",
            "loop_iters": LOOP_ITERS,
            "steps": STEPS,
            "max_steps": MAX_STEPS,
            "rounds": ROUNDS,
        },
        "baseline_no_dispatch_s": baseline,
        "null_sink_s": nullsink,
        "null_sink_overhead": overhead,
        "budget": OVERHEAD_BUDGET,
        "sinks": {
            "recorder_s": rec_time,
            "recorder_slowdown": rec_time / baseline,
            "metrics_s": met_time,
            "metrics_slowdown": met_time / baseline,
            "tee_recorder_metrics_s": tee_time,
            "tee_slowdown": tee_time / baseline,
        },
        "metrics_sample": metrics.to_json_dict(),
    }
    os.makedirs(os.path.dirname(ARTIFACT_PATH), exist_ok=True)
    with open(ARTIFACT_PATH, "w") as fh:
        json.dump(artifact, fh, indent=2)

    print(
        f"\nno-op sink: {overhead:+.2%} vs no-dispatch baseline "
        f"(budget {OVERHEAD_BUDGET:.0%}); recorder {rec_time / baseline:.2f}x, "
        f"metrics {met_time / baseline:.2f}x, tee {tee_time / baseline:.2f}x"
    )
    print(f"wrote {ARTIFACT_PATH}")

    # The recording sinks really consumed the stream.
    assert recorder.index >= STEPS
    assert metrics.events_by_kind["step"] >= STEPS
    assert overhead < OVERHEAD_BUDGET, (
        f"NULL_SINK dispatch overhead {overhead:.2%} exceeds "
        f"{OVERHEAD_BUDGET:.0%} budget"
    )
