"""Differential tests parametrized over every engine: each engine vs the
reference.

``test_decode_differential.py`` compares the decoded engine against the
reference on profiler events, coverage and ExecTrace streams.  This
suite runs the same inputs under every value of ``KernelConfig.engine``
(see :data:`repro.config.ENGINES`) and asserts byte-identical
observables against the reference engine: syscall return values,
memory/shadow fingerprints, litmus outcomes, campaign stats, crash
identity, replay verdicts, fuel/steps accounting and error messages.
"""

import os

import pytest

from repro.config import ENGINES, KernelConfig
from repro.errors import ExecutionLimitExceeded, KirError
from repro.fuzzer.fuzzer import OzzFuzzer
from repro.fuzzer.sti import resolve_args
from repro.fuzzer.templates import seed_inputs
from repro.kernel.kernel import Kernel, KernelImage
from repro.kir import Builder, Program
from repro.kir.function import Program as KirProgram
from repro.litmus.programs import standard_suite
from repro.machine import Machine
from repro.mem.memory import DATA_BASE
from repro.oemu.instrument import instrument_program
from repro.trace.replayer import CrashArtifact, replay_artifact

SAMPLE_CRASH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "examples", "sample_crash.json"
)


@pytest.fixture(scope="module")
def images():
    return {
        engine: KernelImage(KernelConfig(engine=engine, snapshot_reset=False))
        for engine in ENGINES
    }


def _loop_program() -> Program:
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
    return Program([b.function()])


class TestSeedInputs:
    def test_syscall_observables_identical(self, images):
        """Every seed STI, run to completion on the unobserved fast path:
        same retvals, memory world, shadow world and clock under every
        engine."""
        for sti in seed_inputs():
            worlds = {}
            for engine in ENGINES:
                kernel = Kernel(images[engine])
                retvals = []
                for call in sti.calls:
                    retvals.append(
                        kernel.run_syscall(call.name, resolve_args(call, retvals))
                    )
                worlds[engine] = (
                    tuple(retvals),
                    kernel.memory.fingerprint(),
                    kernel.shadow.fingerprint(),
                    kernel.clock.now,
                )
            for engine in ENGINES:
                assert worlds[engine] == worlds["reference"], (engine, sti)


class TestLitmus:
    @pytest.mark.parametrize("test", standard_suite(), ids=lambda t: t.name)
    def test_round_robin_outcomes_identical(self, test):
        """Each litmus program, stepped round-robin under every engine,
        produces the same outcome tuple and final memory contents."""
        program, _ = instrument_program(KirProgram(list(test.functions)))

        def run(engine):
            m = Machine(program, ncpus=len(test.functions), engine=engine)
            threads = [
                m.spawn(f.name, cpu=idx) for idx, f in enumerate(test.functions)
            ]
            for t in threads:
                m.oemu.thread_state(t.thread_id)  # pin window start at t=0
            pending = list(threads)
            while pending:
                for thread in list(pending):
                    if not m.interp.step(thread):
                        m.oemu.flush(thread.thread_id)
                        pending.remove(thread)
            return tuple(t.retval for t in threads), m.memory.fingerprint()

        outcomes = {engine: run(engine) for engine in ENGINES}
        for engine in ENGINES:
            assert outcomes[engine] == outcomes["reference"], engine
        assert outcomes["reference"][0] in test.allowed


class TestReplay:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_sample_crash_replays_under_every_tier(self, engine):
        """The shipped artifact replays byte-for-byte whichever engine the
        replay image is built with (replay verdicts diff the full event
        schedule, so ``ok`` means byte-identical)."""
        artifact = CrashArtifact.load(SAMPLE_CRASH)
        verdict = replay_artifact(
            artifact,
            image=KernelImage(
                KernelConfig(
                    patched=frozenset(artifact.reproducer.patched),
                    engine=engine,
                    snapshot_reset=False,
                )
            ),
        )
        assert verdict.ok, (engine, verdict.render())


class TestCampaign:
    def test_stats_and_crashes_identical(self):
        """Same seed, same iteration count: every engine's campaign is
        observationally equal to the reference engine's."""
        results = {}
        for engine in ENGINES:
            fuzzer = OzzFuzzer(KernelImage(KernelConfig(engine=engine)), seed=11)
            stats = fuzzer.run(30)
            results[engine] = (stats, frozenset(fuzzer.crashdb.unique_titles))
        for engine in ENGINES:
            assert results[engine] == results["reference"], engine
        assert results["reference"][0].tests_run > 0


class TestErrorParity:
    """Exceptions escaping each engine's run loop must match the
    reference byte-for-byte: type, message, and fuel/steps at the throw
    point."""

    def _run(self, program, entry, engine, *, args=(), fuel=10**9):
        m = Machine(program, engine=engine)
        thread = m.interp.spawn(entry, args, fuel=fuel)
        try:
            m.interp.run(thread)
            outcome = ("ok", thread.retval)
        except (KirError, ExecutionLimitExceeded) as exc:
            outcome = (type(exc).__name__, str(exc))
        return outcome, thread.steps, thread.fuel

    @pytest.mark.parametrize("engine", ENGINES)
    def test_fuel_exhaustion_identical(self, engine):
        ref = self._run(_loop_program(), "spin", "reference", args=(10**9,), fuel=500)
        got = self._run(_loop_program(), "spin", engine, args=(10**9,), fuel=500)
        assert got == ref
        assert got[0][0] == "ExecutionLimitExceeded"

    @pytest.mark.parametrize("engine", ENGINES)
    def test_undefined_register_identical(self, engine):
        b = Builder("oops")
        b.add(b.reg("ghost"), 1, dst=b.reg("x"))
        b.ret(b.reg("x"))
        program = Program([b.function()])
        ref = self._run(program, "oops", "reference")
        got = self._run(program, "oops", engine)
        assert got == ref
        assert got[0][0] == "KirError"
        assert "register %ghost undefined" in got[0][1]

    @pytest.mark.parametrize("engine", ENGINES)
    def test_unknown_helper_identical(self, engine):
        b = Builder("callout")
        b.helper("no_such_helper", 1, dst=b.reg("r"))
        b.ret(b.reg("r"))
        program = Program([b.function()])
        ref = self._run(program, "callout", "reference")
        got = self._run(program, "callout", engine)
        assert got == ref
        assert got[0][0] == "KirError"
        assert "unknown helper" in got[0][1]
