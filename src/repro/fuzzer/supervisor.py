"""Crash-tolerant campaign runtime: a persistent worker pool with retries.

The paper ran OZZ for six weeks across 32 VMs (§6.1); at that scale the
throughput story is *amortization* — syzkaller-style managers keep
executor processes alive and feed them work instead of forking per
program — and workers hang, die and get preempted, so the unglamorous
fault-tolerance layer is what makes a long campaign finish.  This module
provides both halves:

* **Persistent workers.** ``spec.jobs`` worker processes are launched
  once per campaign.  Each builds (or, under ``fork``, inherits a
  pre-built) kernel image and boots one kernel into a
  :class:`~repro.kernel.kernel.KernelPool`, then *pulls batches* from
  the supervisor until the plan is drained — work-stealing falls out of
  the pull model: a worker that finishes early simply claims the next
  batch while a slow sibling is still busy.  Batches are independent
  mini-campaigns (own derived seed, own seed-corpus slice), so results
  are a pure function of ``(spec, seed)`` no matter how claims land.
* **Supervision.**  Workers heartbeat through a shared message queue
  before every fuzzing iteration; the supervisor **kills and replaces**
  a worker whose heartbeat exceeds ``shard_timeout`` (hung) or whose
  process exits mid-batch (died), and the orphaned batch is re-queued
  with capped exponential backoff (:data:`RETRY_BACKOFF` doubling up to
  :data:`BACKOFF_CAP`) — the retry re-derives the same batch seed, so a
  recovered campaign is byte-identical to an unfaulted one.
  When the same batch-local iteration kills its worker
  :data:`POISON_THRESHOLD` times the input is **quarantined** (skipped,
  reported) instead of burning the retry budget; a batch that exhausts
  ``max_retries`` is abandoned and the survivors **merge** — a worker
  failure is telemetry, never an exception that discards finished work.
* **Checkpoint/resume.**  Merged campaign state is periodically written
  to ``checkpoint_dir`` as JSON, so ``repro fuzz --resume DIR`` — and a
  ``SIGINT`` that lands mid-campaign — continue instead of restarting.

Coverage crosses the wire as :class:`~repro.fuzzer.kcov.CoverageMap`
**bitmap deltas**: each worker remembers what it already reported for
its current batch and ships only the new pages; the supervisor folds
deltas into a per-batch accumulator.  Address sets never cross the
queue as pickled Python sets.

Checkpoint layout (all JSON, schema :data:`CHECKPOINT_VERSION`)::

    DIR/campaign.json     manifest: spec (worker knobs nested under
                          "policy"), the batch plan, the claim log,
                          completed batches, telemetry
    DIR/shard-000.json    one completed batch result (stats, crashdb,
                          coverage bitmap hex)
    DIR/partial-000.json  latest mid-run snapshot of an unfinished batch

:func:`load_checkpoint` reads schema :data:`CHECKPOINT_VERSION` only and
rejects any other version with a :class:`~repro.errors.ConfigError`
naming both (``repro fuzz --resume`` exits 2).  Resume is
**batch-granular**: completed batches load from disk; an unfinished
batch re-runs from iteration 0 with its re-derived seed, which
reproduces exactly the prefix it had already executed — so a
kill/resume cycle finds the same crash set as an uninterrupted run
without having to serialize RNG or corpus state mid-stream.  Partials
exist for *reporting* (the SIGINT partial merge), not for skipping work.

Fault injection (tests, the CI resilience job) goes through
:class:`FaultPlan` or the ``REPRO_INJECT_FAULT`` environment variable
(``kind:shard:iteration[:persistent]``, comma-separated; kinds
``hang`` | ``die`` | ``error`` | ``slow``).
"""

from __future__ import annotations

import itertools
import json
import multiprocessing as mp
import os
import pickle
import queue as _queue
import signal
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.campaign_api import (
    BatchSpec,
    CampaignResult,
    CampaignSpec,
    QuarantinedInput,
    RetryEvent,
    ShardFailure,
    spec_from_dict,
    spec_to_dict,
)
from repro.errors import ConfigError, check_version
from repro.fuzzer.kcov import CoverageMap
from repro.fuzzer.parallel import (
    CHECKPOINT_VERSION,
    ShardResult,
    campaign_image,
    campaign_pool,
    merge_shards,
    run_batch,
)
from repro.trace import (
    NULL_SINK,
    BatchClaimed,
    BatchStolen,
    CheckpointWritten,
    InputQuarantined,
    ShardHeartbeat,
    ShardRetried,
    ShardStarted,
    TraceSink,
)

#: Worker deaths attributed to one iteration before it is quarantined.
POISON_THRESHOLD = 2

#: Delay before a failed batch's first retry (seconds); each further
#: retry doubles it, up to :data:`BACKOFF_CAP`.
RETRY_BACKOFF = 0.25
BACKOFF_CAP = 5.0

CHECKPOINT_KIND = "ozz-campaign-checkpoint"
MANIFEST_NAME = "campaign.json"

#: Environment variable for CLI-level fault injection (CI resilience job).
FAULT_ENV = "REPRO_INJECT_FAULT"

_POLL_INTERVAL = 0.05   # supervisor queue poll period (seconds)
_DRAIN_GRACE = 1.0      # wait for a dead worker's final messages
_HANG_SLEEP = 3600.0    # an injected hang sleeps until the supervisor kills it
_SLOW_SLEEP = 1.0       # an injected slow batch stalls this long, then runs
_FAULT_EXIT = 17        # exit code of an injected worker death

#: How often an idle pool worker checks that its supervisor still lives.
WORKER_POLL_SECS = 0.5

#: Image pre-built by the supervisor parent so ``fork`` workers inherit
#: it instead of each paying the build; keyed by the config-relevant
#: spec fields so a stale image from an earlier campaign is never reused.
_PREBUILT: Optional[Tuple[tuple, object]] = None


def _image_key(spec: CampaignSpec) -> tuple:
    return (spec.patched, spec.engine, spec.snapshot_reset, spec.prefix_cache)


def _inherited_image(spec: CampaignSpec):
    if _PREBUILT is not None and _PREBUILT[0] == _image_key(spec):
        return _PREBUILT[1]
    return campaign_image(spec)


@dataclass(frozen=True)
class FaultPlan:
    """An injected worker fault, for tests and the CI resilience job.

    The fault fires when batch ``shard`` reaches batch-local iteration
    ``iteration``: ``hang`` stops heartbeating (the supervisor must kill
    the worker), ``die`` exits the worker process abruptly, ``error``
    raises inside the batch (the old ``Pool.map``-poisoning case —
    the persistent worker survives it and moves on), ``slow`` stalls the
    batch for a while and then completes it (exercises work-stealing:
    the other workers drain the queue meanwhile).  Non-persistent faults
    arm only on the batch's first attempt, so the deterministic retry
    runs clean; ``persistent`` faults re-arm on every attempt and model
    a poisoned input that kills whoever runs it.
    """

    shard: int
    iteration: int
    kind: str  # "hang" | "die" | "error" | "slow"
    persistent: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ("hang", "die", "error", "slow"):
            raise ConfigError(f"unknown fault kind {self.kind!r}")


def faults_from_env(value: Optional[str] = None) -> Tuple[FaultPlan, ...]:
    """Parse ``REPRO_INJECT_FAULT`` (``kind:shard:iter[:persistent],...``)."""
    if value is None:
        value = os.environ.get(FAULT_ENV, "")
    plans = []
    for item in filter(None, (s.strip() for s in value.split(","))):
        parts = item.split(":")
        if len(parts) not in (3, 4):
            raise ConfigError(f"bad {FAULT_ENV} entry {item!r}")
        plans.append(
            FaultPlan(
                kind=parts[0],
                shard=int(parts[1]),
                iteration=int(parts[2]),
                persistent=len(parts) == 4 and parts[3] == "persistent",
            )
        )
    return tuple(plans)


# -- worker side -------------------------------------------------------------


def _trigger_fault(fault: FaultPlan, msgq) -> None:
    if fault.kind == "hang":
        time.sleep(_HANG_SLEEP)
    elif fault.kind == "slow":
        time.sleep(_SLOW_SLEEP)
    elif fault.kind == "die":
        # Flush the queue's feeder thread so the heartbeat that names
        # this iteration reaches the supervisor, then die abruptly.
        msgq.close()
        msgq.join_thread()
        os._exit(_FAULT_EXIT)
    elif fault.kind == "error":
        raise RuntimeError(f"injected worker error at iteration {fault.iteration}")


def _wire_payload(result: ShardResult, sent: CoverageMap, full: CoverageMap) -> bytes:
    """Pickle a (result, coverage-delta) pair for the message queue.

    ``sent`` is the worker's per-batch ledger of already-reported
    coverage; only the delta crosses the wire, and the ledger advances
    so the next snapshot ships strictly new pages.  The result's own
    coverage field travels empty — the supervisor reconstructs it from
    its delta accumulator.  Pickling is *eager* so the queue's feeder
    thread never races the fuzzing loop's mutations.
    """
    delta = full.delta(sent)
    sent.merge(delta)
    stripped = ShardResult(
        shard=result.shard,
        seed=result.seed,
        iterations=result.iterations,
        stats=result.stats,
        crashdb=result.crashdb,
        coverage=CoverageMap(),
        seconds=result.seconds,
        engine_counters=result.engine_counters,
    )
    return pickle.dumps((stripped, delta.to_bytes()))


def _run_assignment(
    spec: CampaignSpec,
    batch: BatchSpec,
    attempt: int,
    quarantined: Tuple[int, ...],
    faults: Tuple[FaultPlan, ...],
    image,
    pool,
    msgq,
) -> None:
    """Execute one claimed batch inside a persistent worker.

    Wraps :func:`run_batch` with a progress callback that heartbeats,
    honours the quarantine list, triggers injected faults, and ships a
    partial snapshot (with a coverage bitmap delta) every
    ``spec.checkpoint_every`` iterations.  An exception is reported as
    a batch-scoped ``error`` — the worker survives and pulls its next
    assignment.
    """
    try:
        armed = {f.iteration: f for f in faults}
        skip = frozenset(quarantined)
        holder: Dict[str, object] = {}
        sent_cov = CoverageMap()
        start = time.perf_counter()

        def progress(i, stats):
            msgq.put(("hb", batch.index, attempt, i))
            if i in skip:
                msgq.put(("skipped", batch.index, attempt, i))
                return False
            fault = armed.pop(i, None)
            if fault is not None:
                _trigger_fault(fault, msgq)
            fuzzer = holder.get("fuzzer")
            if fuzzer is not None and i > 0 and i % spec.checkpoint_every == 0:
                partial = ShardResult(
                    shard=batch.index,
                    seed=batch.seed,
                    iterations=i,
                    stats=fuzzer.stats,
                    crashdb=fuzzer.crashdb,
                    coverage=CoverageMap(),
                    seconds=time.perf_counter() - start,
                )
                payload = _wire_payload(partial, sent_cov, fuzzer.corpus.coverage)
                msgq.put(("partial", batch.index, attempt, payload))
            return None

        result = run_batch(
            spec,
            batch,
            image=image,
            pool=pool,
            progress=progress,
            on_fuzzer=lambda fz: holder.__setitem__("fuzzer", fz),
        )
        payload = _wire_payload(result, sent_cov, result.coverage)
        msgq.put(("done", batch.index, attempt, payload))
    except Exception as exc:  # ship the reason; the supervisor retries
        msgq.put(("error", batch.index, attempt, f"{type(exc).__name__}: {exc}"))


def _pool_worker_main(wid: int, spec: CampaignSpec, taskq, msgq) -> None:
    """Persistent-worker entry point: boot once, pull batches until done.

    The kernel image is inherited from the supervisor's pre-built copy
    under ``fork`` (built locally otherwise — once, amortized across
    every batch this worker claims), and one booted kernel is held in a
    :class:`KernelPool` across batches; each batch's fuzzer resets it to
    the boot snapshot per test, which is equivalent to a fresh boot.

    An idle worker checks every :data:`WORKER_POLL_SECS` that its
    supervisor is still alive and exits once it is not, so a SIGKILLed
    supervisor leaves no orphaned workers behind.
    """
    try:
        image = _inherited_image(spec)
        _, pool = campaign_pool(spec, image=image)
        supervisor = mp.parent_process()
        while True:
            try:
                task = taskq.get(timeout=WORKER_POLL_SECS)
            except _queue.Empty:
                if supervisor is not None and not supervisor.is_alive():
                    # The supervisor was killed: nobody will read our
                    # results, so do not wait to flush them either.
                    msgq.cancel_join_thread()
                    return
                continue
            if task is None:
                return
            batch, attempt, quarantined, faults = task
            _run_assignment(
                spec, batch, attempt, quarantined, faults, image, pool, msgq
            )
            msgq.put(("ready", wid, 0, None))
    except (KeyboardInterrupt, EOFError, OSError):
        # Supervisor teardown (SIGINT forwarded to the process group /
        # queues closing under us): exit quietly, nothing to report.
        pass


# -- supervisor side ---------------------------------------------------------


class _BatchState:
    """Everything the supervisor tracks about one batch of the plan."""

    def __init__(self, batch: BatchSpec) -> None:
        self.batch = batch
        self.index = batch.index
        self.seed = batch.seed
        self.result: Optional[ShardResult] = None
        self.partial: Optional[ShardResult] = None
        self.attempt = 0
        self.assigned_to: Optional[int] = None  # worker id, None = pending
        self.last_worker: Optional[int] = None
        self.last_hb = 0.0
        self.last_iteration = -1
        self.deaths: Dict[int, int] = {}
        self.quarantined: set = set()
        self.restart_at: Optional[float] = None
        self.failure: Optional[ShardFailure] = None
        self.cov_acc = CoverageMap()  # union of this attempt's deltas

    @property
    def finished(self) -> bool:
        return self.result is not None or self.failure is not None


class CampaignController:
    """Thread-safe control seam for a supervisor loop run off-thread.

    The always-on service (``repro serve``) runs ``run_supervised`` in a
    background thread; this object is how the foreground talks to it:

    * :meth:`request_stop` asks the loop to stop cleanly at batch
      granularity — the supervisor checkpoints and partial-merges
      exactly as it does for ``SIGINT``, so a paused campaign resumes
      from its checkpoint equal to an uninterrupted run.  ``reason``
      distinguishes a pause (resumable) from a cancel (terminal).
    * :meth:`progress` returns the latest snapshot of the batch plan
      (total/done/failed batch counts plus per-batch last iteration),
      refreshed by the supervisor on every poll tick.

    Pass it to :func:`run_supervised` via ``controller=``.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._stop_reason: Optional[str] = None
        self._snapshot: Dict[str, object] = {
            "batches": 0, "done": 0, "failed": 0, "iterations": {},
        }

    def request_stop(self, reason: str = "stop") -> None:
        with self._lock:
            if self._stop_reason is None:
                self._stop_reason = reason

    @property
    def stop_requested(self) -> bool:
        with self._lock:
            return self._stop_reason is not None

    @property
    def stop_reason(self) -> Optional[str]:
        with self._lock:
            return self._stop_reason

    def observe(self, states: Dict[int, "_BatchState"]) -> None:
        """Refresh the progress snapshot (called by the supervisor loop)."""
        snap = {
            "batches": len(states),
            "done": sum(1 for st in states.values() if st.result is not None),
            "failed": sum(1 for st in states.values() if st.failure is not None),
            "iterations": {
                st.index: st.last_iteration
                for st in states.values()
                if st.last_iteration >= 0
            },
        }
        with self._lock:
            self._snapshot = snap

    def progress(self) -> Dict[str, object]:
        """The latest batch-plan snapshot (safe to call from any thread)."""
        with self._lock:
            return dict(self._snapshot)


class _Worker:
    """One persistent worker process and its private task queue."""

    def __init__(self, wid: int, proc, taskq) -> None:
        self.wid = wid
        self.proc = proc
        self.taskq = taskq
        self.current: Optional[int] = None  # batch index being executed
        self.ready = True  # a fresh worker accepts its first task at once


@dataclass
class CheckpointState:
    """A loaded checkpoint directory (see :func:`load_checkpoint`)."""

    spec: CampaignSpec
    completed: Dict[int, ShardResult]
    quarantined: Tuple[QuarantinedInput, ...] = ()
    retries: Tuple[RetryEvent, ...] = ()
    interrupted: bool = False


def atomic_write(path: str, text: str) -> None:
    """Replace ``path`` with ``text`` all at once: a reader (or a
    restart after SIGKILL) sees the old file or the new one, never a
    torn write.  Every checkpoint, registry and result file goes
    through here."""
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _shard_file(dirpath: str, shard: int, partial: bool = False) -> str:
    prefix = "partial" if partial else "shard"
    return os.path.join(dirpath, f"{prefix}-{shard:03d}.json")


def write_checkpoint(
    dirpath: str,
    spec: CampaignSpec,
    states: Dict[int, "_BatchState"],
    retries: Sequence[RetryEvent],
    quarantined: Sequence[QuarantinedInput],
    interrupted: bool,
    sink: TraceSink = NULL_SINK,
    assignments: Sequence[dict] = (),
) -> None:
    """Persist merged campaign state; every write is atomic (tmp+rename).

    The v2 manifest records the full batch plan and the claim log
    (which worker ran which batch on which attempt) so a checkpoint is
    auditable evidence that results never depended on claim order.
    """
    os.makedirs(dirpath, exist_ok=True)
    completed, partials = [], []
    for shard in sorted(states):
        st = states[shard]
        if st.result is not None:
            atomic_write(
                _shard_file(dirpath, shard),
                json.dumps(st.result.to_json_dict(), indent=2),
            )
            completed.append(shard)
            # A completed batch supersedes its mid-run snapshots.
            try:
                os.remove(_shard_file(dirpath, shard, partial=True))
            except OSError:
                pass
        elif st.partial is not None:
            atomic_write(
                _shard_file(dirpath, shard, partial=True),
                json.dumps(st.partial.to_json_dict(), indent=2),
            )
            partials.append(shard)
    manifest = {
        "version": CHECKPOINT_VERSION,
        "kind": CHECKPOINT_KIND,
        "spec": spec_to_dict(spec),
        "plan": [
            {
                "batch": b.index,
                "seed": b.seed,
                "iterations": b.iterations,
                "slices": b.nslices,
            }
            for b in spec.batches()
        ],
        "assignments": list(assignments),
        "completed": completed,
        "partials": partials,
        "quarantined": [
            {"shard": q.shard, "iteration": q.iteration, "deaths": q.deaths}
            for q in quarantined
        ],
        "retries": [
            {
                "shard": r.shard,
                "attempt": r.attempt,
                "reason": r.reason,
                "iteration": r.iteration,
            }
            for r in retries
        ],
        "failed": [
            {
                "shard": st.failure.shard,
                "attempts": st.failure.attempts,
                "reason": st.failure.reason,
            }
            for st in states.values()
            if st.failure is not None
        ],
        "interrupted": interrupted,
    }
    atomic_write(os.path.join(dirpath, MANIFEST_NAME), json.dumps(manifest, indent=2))
    if sink.active:
        sink.emit(
            CheckpointWritten(
                completed_shards=len(completed), partial_shards=len(partials)
            )
        )


def load_checkpoint(dirpath: str) -> CheckpointState:
    """Load a checkpoint directory written by a pooled campaign.

    Reads schema :data:`CHECKPOINT_VERSION` only; any other version
    raises :class:`ConfigError`.  The returned spec has ``checkpoint_dir``
    pointed back at ``dirpath`` so the resumed campaign keeps
    checkpointing in place (directories move; the stored path is
    advisory).
    """
    manifest_path = os.path.join(dirpath, MANIFEST_NAME)
    try:
        with open(manifest_path) as fh:
            manifest = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"no campaign checkpoint at {dirpath!r} "
                          f"(missing {MANIFEST_NAME})")
    if manifest.get("kind") != CHECKPOINT_KIND:
        raise ConfigError(f"{manifest_path} is not a campaign checkpoint")
    check_version(
        "checkpoint", manifest.get("version"), CHECKPOINT_VERSION, ConfigError
    )
    spec_payload = dict(manifest["spec"])
    spec_payload["checkpoint_dir"] = dirpath
    spec = spec_from_dict(spec_payload)
    completed: Dict[int, ShardResult] = {}
    for shard in manifest.get("completed", ()):
        with open(_shard_file(dirpath, shard)) as fh:
            completed[shard] = ShardResult.from_json_dict(json.load(fh))
    return CheckpointState(
        spec=spec,
        completed=completed,
        quarantined=tuple(
            QuarantinedInput(**q) for q in manifest.get("quarantined", ())
        ),
        retries=tuple(RetryEvent(**r) for r in manifest.get("retries", ())),
        interrupted=manifest.get("interrupted", False),
    )


def _retry_delay(attempt: int) -> float:
    """Backoff before retry ``attempt`` (1 = first retry): doubling, capped."""
    return min(BACKOFF_CAP, RETRY_BACKOFF * (2 ** (attempt - 1)))


class _Plan:
    """The supervisor's bookkeeping for one campaign's batch plan.

    Holds the per-batch states plus the retry, quarantine and claim logs,
    and owns the policy that moves them: claiming a batch, accepting a
    worker message (dropping stale ones), retrying a failed attempt with
    capped exponential backoff, quarantining a poisoned input, abandoning
    a batch that exhausts ``max_retries``, and checkpointing.  It touches
    no process or queue — :func:`run_supervised` owns those — so the
    policy is testable without workers.
    """

    def __init__(
        self,
        spec: CampaignSpec,
        sink: TraceSink = NULL_SINK,
        resume_state: Optional[CheckpointState] = None,
    ) -> None:
        self.spec = spec
        self.sink = sink
        self.states: Dict[int, _BatchState] = {
            b.index: _BatchState(b) for b in spec.batches()
        }
        self.retries: List[RetryEvent] = []
        self.quarantined: List[QuarantinedInput] = []
        self.assignments: List[dict] = []
        self.interrupted = False
        if resume_state is not None:
            for shard, result in resume_state.completed.items():
                if shard in self.states:
                    self.states[shard].result = result
            for q in resume_state.quarantined:
                if q.shard in self.states:
                    self.states[q.shard].quarantined.add(q.iteration)
                self.quarantined.append(q)
            self.retries.extend(resume_state.retries)

    def unfinished(self) -> List[_BatchState]:
        return [st for st in self.states.values() if not st.finished]

    def next_eligible(self, now: float) -> Optional[_BatchState]:
        """The lowest-indexed unclaimed batch whose backoff has elapsed."""
        for index in sorted(self.states):
            st = self.states[index]
            if st.finished or st.assigned_to is not None:
                continue
            if st.restart_at is not None and now < st.restart_at:
                continue
            return st
        return None

    def claim(
        self, st: _BatchState, wid: int, faults: Sequence[FaultPlan], now: float
    ) -> tuple:
        """Hand ``st`` to worker ``wid``; returns the task to send it."""
        batch_faults = tuple(
            f
            for f in faults
            if f.shard == st.index and (st.attempt == 0 or f.persistent)
        )
        stolen_from = st.last_worker
        st.assigned_to = wid
        st.last_worker = wid
        st.last_hb = now
        st.last_iteration = -1
        st.restart_at = None
        self.assignments.append(
            {"batch": st.index, "attempt": st.attempt, "worker": wid}
        )
        sink = self.sink
        if sink.active:
            sink.emit(ShardStarted(shard=st.index, seed=st.seed, attempt=st.attempt))
            sink.emit(BatchClaimed(worker=wid, batch=st.index, attempt=st.attempt))
            if stolen_from is not None and stolen_from != wid:
                sink.emit(
                    BatchStolen(
                        worker=wid,
                        batch=st.index,
                        from_worker=stolen_from,
                        attempt=st.attempt,
                    )
                )
        return (st.batch, st.attempt, tuple(sorted(st.quarantined)), batch_faults)

    def handle(self, kind: str, index: int, attempt: int, payload, now: float) -> None:
        """Fold one batch message from a worker into the plan.

        A message for an unknown or finished batch, or carrying a
        superseded attempt number, is stale and dropped.
        """
        st = self.states.get(index)
        if st is None or attempt != st.attempt or st.finished:
            return
        st.last_hb = now
        if kind == "hb":
            st.last_iteration = payload
            if self.sink.active:
                self.sink.emit(ShardHeartbeat(shard=st.index, iteration=payload))
        elif kind == "skipped":
            pass  # liveness only; the quarantined input was not run
        elif kind == "partial":
            result, delta = pickle.loads(payload)
            st.cov_acc.merge(CoverageMap.from_bytes(delta))
            result.coverage = st.cov_acc.copy()
            st.partial = result
            self.checkpoint()
        elif kind == "done":
            result, delta = pickle.loads(payload)
            st.cov_acc.merge(CoverageMap.from_bytes(delta))
            result.coverage = st.cov_acc
            st.result = result
            st.partial = None
            st.assigned_to = None
            self.checkpoint()
        elif kind == "error":
            self.fail_attempt(st, payload, now)

    def fail_attempt(self, st: _BatchState, reason: str, now: float) -> None:
        """Record a failed attempt of ``st``, then retry or abandon it.

        The death counts against the last iteration the worker reported;
        :data:`POISON_THRESHOLD` deaths on one iteration quarantine it.
        The batch restarts after :func:`_retry_delay` unless it has used
        ``max_retries`` restarts, in which case it fails permanently.
        """
        sink = self.sink
        self.retries.append(
            RetryEvent(
                shard=st.index,
                attempt=st.attempt,
                reason=reason,
                iteration=st.last_iteration,
            )
        )
        if sink.active:
            sink.emit(ShardRetried(shard=st.index, attempt=st.attempt, reason=reason))
        if st.last_iteration >= 0:
            n = st.deaths[st.last_iteration] = (
                st.deaths.get(st.last_iteration, 0) + 1
            )
            if n >= POISON_THRESHOLD and st.last_iteration not in st.quarantined:
                st.quarantined.add(st.last_iteration)
                self.quarantined.append(
                    QuarantinedInput(
                        shard=st.index, iteration=st.last_iteration, deaths=n
                    )
                )
                if sink.active:
                    sink.emit(
                        InputQuarantined(
                            shard=st.index, iteration=st.last_iteration, deaths=n
                        )
                    )
        st.partial = None
        st.cov_acc = CoverageMap()
        st.assigned_to = None
        st.attempt += 1
        if st.attempt > self.spec.max_retries:
            st.failure = ShardFailure(
                shard=st.index, attempts=st.attempt, reason=reason
            )
            self.checkpoint()
        else:
            st.restart_at = now + _retry_delay(st.attempt)

    def checkpoint(self) -> None:
        if self.spec.checkpoint_dir is not None:
            write_checkpoint(
                self.spec.checkpoint_dir,
                self.spec,
                self.states,
                self.retries,
                self.quarantined,
                self.interrupted,
                self.sink,
                assignments=self.assignments,
            )

    def shards(self) -> List[ShardResult]:
        """Batch results to merge, ordered by batch index.

        An interrupted run also merges the freshest mid-run snapshot of
        every batch that was cut short (the clean partial merge).
        """
        return [
            st.result if st.result is not None else st.partial
            for _, st in sorted(self.states.items())
            if st.result is not None or (self.interrupted and st.partial is not None)
        ]

    def failures(self) -> Tuple[ShardFailure, ...]:
        return tuple(
            self.states[k].failure
            for k in sorted(self.states)
            if self.states[k].failure is not None
        )


def run_supervised(
    spec: CampaignSpec,
    *,
    faults: Sequence[FaultPlan] = (),
    sink: TraceSink = NULL_SINK,
    resume_state: Optional[CheckpointState] = None,
    controller: Optional[CampaignController] = None,
) -> CampaignResult:
    """Run a campaign's batch plan on the worker pool and merge the result.

    ``faults`` injects worker misbehaviour (tests / CI); entries from
    the ``REPRO_INJECT_FAULT`` environment variable are appended.
    ``resume_state`` (from :func:`load_checkpoint`) skips the batches it
    already completed.  ``controller`` (:class:`CampaignController`) is
    the programmatic twin of ``SIGINT``: the loop refreshes its progress
    snapshot every poll tick and honours its stop request, which is how
    ``repro serve`` pauses/cancels a backgrounded campaign.

    The bookkeeping lives in :class:`_Plan`; this loop only spawns
    workers, assigns them batches, polls the message queue, checks
    worker health and tears the pool down.
    """
    global _PREBUILT
    faults = tuple(faults) + faults_from_env()
    start = time.perf_counter()
    method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
    ctx = mp.get_context(method)
    msgq = ctx.Queue()
    plan = _Plan(spec, sink, resume_state)
    states = plan.states
    workers: Dict[int, _Worker] = {}
    wid_counter = itertools.count()

    def _on_sigint(signum, frame):
        plan.interrupted = True

    def _spawn_worker() -> None:
        wid = next(wid_counter)
        taskq = ctx.Queue()
        proc = ctx.Process(
            target=_pool_worker_main,
            args=(wid, spec, taskq, msgq),
            daemon=True,
        )
        proc.start()
        workers[wid] = _Worker(wid, proc, taskq)

    def _assign(w: _Worker, st: _BatchState) -> None:
        w.taskq.put(plan.claim(st, w.wid, faults, time.monotonic()))
        w.current = st.index
        w.ready = False

    def _handle(msg) -> None:
        kind, a, b, payload = msg
        if kind == "ready":
            w = workers.get(a)
            if w is not None:
                w.ready = True
                w.current = None
        else:
            plan.handle(kind, a, b, payload, time.monotonic())

    def _drain_available() -> None:
        while True:
            try:
                msg = msgq.get_nowait()
            except _queue.Empty:
                return
            _handle(msg)

    def _poll(timeout: float) -> None:
        """Block up to ``timeout`` for one message, then sweep the rest."""
        try:
            msg = msgq.get(timeout=timeout)
        except _queue.Empty:
            return
        _handle(msg)
        _drain_available()

    def _await_verdict(st: _BatchState, timeout: float) -> None:
        """A worker exited: wait briefly for its final in-flight messages.

        The queue's feeder thread flushes at process exit, so a "done"
        or "error" may land just after ``is_alive()`` flips — give it a
        grace period before declaring an unexplained death.
        """
        attempt = st.attempt
        deadline = time.monotonic() + timeout
        while not st.finished and st.attempt == attempt:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return
            try:
                msg = msgq.get(timeout=remaining)
            except _queue.Empty:
                return
            _handle(msg)

    def _kill(proc) -> None:
        proc.terminate()
        proc.join(timeout=1.0)
        if proc.is_alive():
            proc.kill()
            proc.join(timeout=1.0)

    def _retire_worker(w: _Worker) -> None:
        """Drop a dead/killed worker; replace it if pending work remains."""
        workers.pop(w.wid, None)
        needs_worker = any(
            not st.finished and st.assigned_to is None for st in states.values()
        )
        if needs_worker and not plan.interrupted:
            _spawn_worker()

    in_main_thread = threading.current_thread() is threading.main_thread()
    previous_handler = None
    if in_main_thread:
        previous_handler = signal.signal(signal.SIGINT, _on_sigint)
    try:
        unfinished = plan.unfinished()
        if unfinished:
            if method == "fork":
                # Build the kernel image once; forked workers inherit it
                # instead of each paying the construction cost.
                _PREBUILT = (_image_key(spec), campaign_image(spec))
            for _ in range(min(spec.jobs, len(unfinished))):
                _spawn_worker()

        while not plan.interrupted and plan.unfinished():
            _poll(_POLL_INTERVAL)
            now = time.monotonic()
            # Feed ready workers from the pending end of the plan.
            for w in list(workers.values()):
                if not w.ready:
                    continue
                st = plan.next_eligible(now)
                if st is None:
                    break
                _assign(w, st)
            # Health: replace dead workers, kill hung ones.
            for w in list(workers.values()):
                if not w.proc.is_alive():
                    w.proc.join()
                    cur = w.current
                    if cur is not None:
                        st = states[cur]
                        attempt = st.attempt
                        _await_verdict(st, _DRAIN_GRACE)
                        if (
                            not st.finished
                            and st.attempt == attempt
                            and st.assigned_to == w.wid
                        ):
                            plan.fail_attempt(
                                st, f"died (exit {w.proc.exitcode})", time.monotonic()
                            )
                    _retire_worker(w)
                elif (
                    w.current is not None
                    and spec.shard_timeout is not None
                    and states[w.current].assigned_to == w.wid
                    and not states[w.current].finished
                    and now - states[w.current].last_hb > spec.shard_timeout
                ):
                    _kill(w.proc)
                    _drain_available()  # heartbeats sent before it wedged
                    st = states[w.current]
                    if not st.finished and st.assigned_to == w.wid:
                        plan.fail_attempt(st, "hung", time.monotonic())
                    _retire_worker(w)
            if controller is not None:
                controller.observe(states)
                if controller.stop_requested:
                    plan.interrupted = True
    finally:
        if in_main_thread and previous_handler is not None:
            signal.signal(signal.SIGINT, previous_handler)
        for w in workers.values():
            try:
                w.taskq.put(None)  # poison pill for idle workers
            except Exception:
                pass
        for w in workers.values():
            w.proc.join(timeout=0.05 if plan.interrupted else 0.5)
            if w.proc.is_alive():
                _kill(w.proc)
        _PREBUILT = None

    if plan.interrupted:
        _drain_available()  # late partials from the workers just killed

    seconds = time.perf_counter() - start
    plan.checkpoint()
    if controller is not None:
        controller.observe(states)  # final snapshot reflects the drained plan
    return merge_shards(
        spec,
        plan.shards(),
        seconds,
        retries=tuple(plan.retries),
        quarantined=tuple(plan.quarantined),
        failed_shards=plan.failures(),
        interrupted=plan.interrupted,
    )
