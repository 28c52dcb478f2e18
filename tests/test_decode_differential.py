"""Differential tests: decoded dispatch vs the reference engine.

The decoded engine (`KernelConfig.engine`, the default) and the
boot-snapshot reset (`snapshot_reset`) are pure optimizations — every
observable (syscall return values, memory/shadow contents, profiler
event streams, coverage, crash identity, ExecTrace event streams) must
be identical to the reference isinstance-chain engine running on
fresh-booted kernels.  These tests drive both engines over the same
inputs and assert exactly that; the engine-parametrized suite beside
this one adds error-message and fuel/steps parity.
"""

import os

import pytest

from repro.config import ENGINES, KernelConfig
from repro.errors import ExecutionLimitExceeded, KernelCrash
from repro.fuzzer import sti as sti_module
from repro.fuzzer.fuzzer import OzzFuzzer
from repro.fuzzer.mti import run_mti
from repro.fuzzer.kcov import KCov
from repro.fuzzer.sti import STI, Call, ResourceRef, profile_sti, resolve_args
from repro.fuzzer.templates import seed_inputs
from repro.kernel.kernel import Kernel, KernelImage
from repro.kernel.subsystems.tls import PROTO
from repro.kir.function import Program
from repro.kir.interp import DEFAULT_FUEL, Interpreter
from repro.litmus.programs import standard_suite
from repro.machine import Machine
from repro.oemu.instrument import instrument_program
from repro.oemu.profiler import Profiler
from repro.sched.scheduler import CustomScheduler
from repro.trace.metrics import TraceMetrics
from repro.trace.recorder import TraceRecorder
from repro.trace.replayer import CrashArtifact, replay_artifact

SAMPLE_CRASH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "examples", "sample_crash.json"
)

DECODED = KernelConfig()  # engine optimizations are the defaults
REFERENCE = KernelConfig(engine="reference", snapshot_reset=False)


@pytest.fixture(scope="module")
def decoded_image():
    return KernelImage(DECODED)


@pytest.fixture(scope="module")
def reference_image():
    return KernelImage(REFERENCE)


class TestSeedInputs:
    def test_profiles_identical(self, decoded_image, reference_image):
        """Every seed STI: same retvals, profiler events, coverage, crash."""
        for sti in seed_inputs():
            dec = profile_sti(decoded_image, sti)
            ref = profile_sti(reference_image, sti)
            assert dec.retvals == ref.retvals, sti
            assert dec.coverage == ref.coverage, sti
            assert (dec.crash is None) == (ref.crash is None), sti
            if dec.crash is not None:
                assert dec.crash.title == ref.crash.title, sti
            assert len(dec.profiles) == len(ref.profiles), sti
            for p_dec, p_ref in zip(dec.profiles, ref.profiles):
                assert p_dec.syscall == p_ref.syscall
                assert p_dec.retval == p_ref.retval
                # AccessEvent/BarrierEvent are immutable tuple-backed
                # events with value equality — the five-/three-tuple
                # streams must match element for element.
                assert p_dec.events == p_ref.events, (sti, p_dec.syscall)

    def test_memory_state_identical(self, decoded_image, reference_image):
        """After each seed STI, run on the unobserved fast path, the
        kernels' retvals and memory/shadow worlds are equal."""
        for sti in seed_inputs():
            worlds = []
            for image in (decoded_image, reference_image):
                kernel = Kernel(image)
                retvals = []
                for call in sti.calls:
                    retvals.append(
                        kernel.run_syscall(call.name, resolve_args(call, retvals))
                    )
                worlds.append((
                    retvals,
                    kernel.memory.fingerprint(),
                    kernel.shadow.fingerprint(),
                    kernel.clock.now,
                ))
            assert worlds[0] == worlds[1], sti


def _fd0(name):
    return Call(name, (ResourceRef(0),))


def _no_setup(kernel):
    pass


def _tls_proto_points_at_tls(kernel):
    """The default proto's setsockopt dispatches into tls_setsockopt, so
    a plain socket's setsockopt dereferences its NULL tls context."""
    kernel.poke(
        kernel.glob("base_prots") + PROTO.setsockopt,
        kernel.program.func_addr("tls_setsockopt"),
    )


def _sb_lock_held(kernel):
    """The ramfs superblock lock is held by nobody who will release it,
    so sys_creat's spin_lock helper raises HelperRetry until fuel runs out."""
    kernel.poke(kernel.glob("fs_sb_lock"), 1)


#: (setup, STI, expected crash title) for the observed-path parity cases.
OBSERVED_CASES = {
    # Self-recursive tls_setsockopt: burns the whole fuel budget.
    "tls-hang": (
        _no_setup,
        STI((Call("socket"), _fd0("tls_init"), _fd0("tls_init"), _fd0("setsockopt"))),
        "HANG: setsockopt exceeded its fuel budget",
    ),
    # NULL dereference two frames down, mid-function.
    "fault": (
        _tls_proto_points_at_tls,
        STI((Call("socket"), _fd0("setsockopt"))),
        "BUG: unable to handle kernel NULL pointer dereference in tls_setsockopt",
    ),
    # Every step a HelperRetry that does not retire.
    "spin": (
        _sb_lock_held,
        STI((Call("socket"), Call("creat", (3,)))),
        "HANG: creat exceeded its fuel budget",
    ),
}


def _profile_keeping_threads(image, case, stepped=False):
    """``profile_sti`` on a fresh kernel prepared by the case's setup,
    keeping the kernel and every syscall thread it spawned, so fuel,
    steps and kcov of the call that threw can be compared too.

    ``stepped`` attaches an active trace sink, which sends every
    instruction through ``Interpreter.step`` instead of the drain loop
    (the OEMU keeps its construction-time sink, so nothing else changes).
    """
    setup, sti, _ = OBSERVED_CASES[case]
    kernel = Kernel(image, profiler=Profiler())
    setup(kernel)
    if stepped:
        kernel.trace = TraceMetrics()
    threads = []
    spawn = kernel.spawn_syscall

    def spawn_and_keep(name, args=(), **kwargs):
        thread = spawn(name, args, **kwargs)
        threads.append(thread)
        return thread

    kernel.spawn_syscall = spawn_and_keep
    result = profile_sti(image, sti, kernel=kernel)
    if stepped:
        assert kernel.trace.events_by_kind["step"] > 0
    return result, kernel, threads


class _DisabledKCov(KCov):
    def __init__(self):
        super().__init__()
        self.enabled = False


#: (engine, stepped) for every way a thread can run: the drain loop and
#: per-instruction ``step`` on each engine's op table.
ARMS = [(engine, stepped) for engine in ENGINES for stepped in (False, True)]


class TestObservedPathParity:
    """Profiled STIs with kcov attached run on the drain loop; the result
    must be what per-instruction ``step`` gives, on either engine, down to
    the instruction at which fuel ran out and the coverage of the call
    that threw."""

    @staticmethod
    def _assert_same(request, case):
        runs = [
            _profile_keeping_threads(request.getfixturevalue(f"{engine}_image"), case, stepped)
            for engine, stepped in ARMS
        ]
        title = OBSERVED_CASES[case][2]
        first, first_kernel, first_threads = runs[0]
        for arm, (res, kernel, threads) in zip(ARMS, runs):
            assert res.crash is not None and res.crash.title == title, arm
            assert res.retvals == first.retvals, arm
            assert res.coverage == first.coverage, arm
            assert len(res.profiles) == len(first.profiles) == len(threads) - 1, arm
            for p, p_first in zip(res.profiles, first.profiles):
                assert p.coverage == p_first.coverage, arm
                assert p.events == p_first.events, arm
            assert [(t.thread_id, t.steps, t.fuel) for t in threads] == [
                (t.thread_id, t.steps, t.fuel) for t in first_threads
            ], arm
            for t, t_first in zip(threads, first_threads):
                assert kernel.kcov.coverage_of(t.thread_id) == (
                    first_kernel.kcov.coverage_of(t_first.thread_id)
                ), arm
        return first, first_kernel, first_threads

    @pytest.mark.parametrize("case", sorted(OBSERVED_CASES))
    def test_profile_identical(self, request, case):
        dec, kernel, threads = self._assert_same(request, case)
        thrown = threads[-1]
        assert kernel.kcov.coverage_of(thrown.thread_id)
        if dec.crash.oracle == "hang":
            assert (thrown.steps, thrown.fuel) == (DEFAULT_FUEL, 0)

    @pytest.mark.parametrize("case", sorted(OBSERVED_CASES))
    def test_profile_identical_with_kcov_disabled(self, request, case, monkeypatch):
        monkeypatch.setattr(sti_module, "KCov", _DisabledKCov)
        dec, kernel, threads = self._assert_same(request, case)
        assert dec.coverage == frozenset()
        assert all(not kernel.kcov.coverage_of(t.thread_id) for t in threads)

    @pytest.mark.parametrize("case", sorted(OBSERVED_CASES))
    def test_scheduler_drain_identical(self, request, case):
        """The scheduler's breakpoint-free drain (the interpreter's loop
        under the scheduler's budget and spin limit) and its stepped path
        give the same coverage, steps, fuel and verdict per call, on
        either engine."""

        def drain(engine, stepped):
            setup, sti, _ = OBSERVED_CASES[case]
            kernel = Kernel(request.getfixturevalue(f"{engine}_image"))
            setup(kernel)
            kernel.kcov = KCov()
            if stepped:
                kernel.trace = TraceMetrics()
            sched = CustomScheduler(kernel.interp)
            retvals, seen = [], []
            for call in sti.calls:
                thread = kernel.spawn_syscall(call.name, resolve_args(call, retvals))
                try:
                    sched.run_until(thread, None)
                except (KernelCrash, ExecutionLimitExceeded) as exc:
                    verdict = str(exc)
                else:
                    verdict = None
                    retvals.append(thread.retval)
                seen.append((
                    verdict,
                    thread.steps,
                    thread.fuel,
                    kernel.kcov.coverage_of(thread.thread_id),
                ))
                if verdict is not None:
                    break
            if stepped:
                assert kernel.trace.events_by_kind["step"] > 0
            return seen

        dec = drain("decoded", False)
        for arm in ARMS[1:]:
            assert drain(*arm) == dec, arm
        assert dec[-1][0] is not None and dec[-1][3]

    @pytest.mark.parametrize("case", sorted(OBSERVED_CASES))
    @pytest.mark.parametrize("engine", ENGINES)
    def test_profiling_never_steps(self, request, engine, case, monkeypatch):
        """Structural guard: kcov alone must not send either engine back
        to per-step dispatch."""

        def no_step(self, thread):
            raise AssertionError("profiled STI fell back to Interpreter.step")

        monkeypatch.setattr(Interpreter, "step", no_step)
        image = request.getfixturevalue(f"{engine}_image")
        result, _, _ = _profile_keeping_threads(image, case)
        assert result.crash.title == OBSERVED_CASES[case][2]


class TestLitmus:
    @pytest.mark.parametrize("test", standard_suite(), ids=lambda t: t.name)
    def test_round_robin_outcomes_identical(self, test):
        """Each litmus program, stepped round-robin under both engines,
        produces the same outcome tuple and final memory contents."""
        program, _ = instrument_program(Program(list(test.functions)))

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

        dec_outcome, dec_mem = run("decoded")
        ref_outcome, ref_mem = run("reference")
        assert dec_outcome == ref_outcome
        assert dec_mem == ref_mem
        assert dec_outcome in test.allowed


class TestTracedMTI:
    @pytest.fixture(scope="class")
    def crash_artifact(self, decoded_image):
        fuzzer = OzzFuzzer(decoded_image, seed=1)
        fuzzer.run(6)
        for rec in fuzzer.crashdb.records.values():
            if rec.artifact is not None and rec.artifact.reordered_insns:
                return rec.artifact
        pytest.fail("campaign found no OOO crash with an artifact")

    def test_event_streams_byte_identical(
        self, crash_artifact, decoded_image, reference_image
    ):
        """A recorded MTI emits the same ExecTrace stream on both engines."""
        rec_dec = TraceRecorder()
        res_dec = run_mti(decoded_image, crash_artifact.mti, trace=rec_dec)
        rec_ref = TraceRecorder()
        res_ref = run_mti(reference_image, crash_artifact.mti, trace=rec_ref)
        assert res_dec.crashed and res_ref.crashed
        assert res_dec.crash.title == res_ref.crash.title
        assert res_dec.steps == res_ref.steps
        assert rec_dec.schedule_dict()["events"] == rec_ref.schedule_dict()["events"]

    def test_sample_crash_replays_under_both_engines(self):
        """The shipped artifact still replays byte-for-byte, decoded
        (the artifact's own image — optimization defaults) and reference."""
        artifact = CrashArtifact.load(SAMPLE_CRASH)
        decoded = replay_artifact(artifact)
        assert decoded.ok, decoded.render()
        reference = replay_artifact(
            artifact,
            image=KernelImage(
                KernelConfig(
                    patched=frozenset(artifact.reproducer.patched),
                    engine="reference",
                    snapshot_reset=False,
                )
            ),
        )
        assert reference.ok, reference.render()

class TestCampaign:
    def test_stats_and_crashes_identical(self):
        """Same seed, same iteration count: the optimized engine's
        campaign is observationally equal to the reference engine's."""
        results = []
        for config in (DECODED, REFERENCE):
            fuzzer = OzzFuzzer(KernelImage(config), seed=11)
            stats = fuzzer.run(30)
            results.append((stats, frozenset(fuzzer.crashdb.unique_titles)))
        (dec_stats, dec_titles), (ref_stats, ref_titles) = results
        assert dec_stats == ref_stats
        assert dec_titles == ref_titles
        assert dec_stats.tests_run > 0

