"""Wrappers around the program's public functions, installed per run.

Every layer is measured from outside: a probe replaces a name in the
module (or on the class) through which the fuzz loop reaches it, and
:meth:`Probes.installed` puts the originals back on exit.

Two kinds of probe:

* **thin** probes are always on.  They time each test (every
  ``profile_sti`` and ``run_mti`` call the fuzz loop makes, in process
  CPU time), stamp the
  first time each seeded bug id is recorded in a ``CrashDB``, count
  fuel-exhausted STIs and checkpoint writes.  The end-to-end metrics
  come from these.
* **span** probes are on only in a traced run.  Each records a span in
  a :class:`~spans.Tracer` and the counts the per-layer metrics need.

In a pooled campaign the fuzz loop runs in forked worker processes,
which inherit the thin probes.  A probe on the supervisor's
``run_batch`` writes each batch's thin observations to a spool
directory, where the benchmark process reads them back.  Span probes on
the fuzz loop are not installed for pooled campaigns: worker-side spans
are out of scope, and only the supervisor's own layers are traced.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from spans import Tracer

clock = time.perf_counter
# Test latency is the process's CPU time during the call: equal to wall
# time on an idle host, but blind to the time a shared host deschedules
# the process, which otherwise dominates the tail.
cpu_clock = time.process_time


class Probes:
    """Per-run observation state plus the wrappers that feed it."""

    def __init__(self, traced: bool, pooled: bool) -> None:
        self.tracer: Optional[Tracer] = Tracer() if traced else None
        self.pooled = pooled
        self.spool: Optional[str] = None  # pooled: where workers ship data
        self.counts: Counter = Counter()
        self.campaign_seed = 0
        self._batch = 0
        self._iteration = 0
        self._last_mti_crash = None
        self.reset_campaign()

    # -- per-campaign thin state -------------------------------------------

    def reset_campaign(self) -> None:
        self.latency_ms: List[float] = []
        self.first_found: Dict[str, float] = {}
        self.fuel_exhausted = 0
        self.checkpoints = 0

    def worker_batches(self) -> List[dict]:
        """Batch observations shipped by pooled workers, then cleared."""
        out = []
        if self.spool is None:
            return out
        for name in sorted(os.listdir(self.spool)):
            path = os.path.join(self.spool, name)
            with open(path) as fh:
                out.append(json.load(fh))
            os.remove(path)
        return out

    # -- thin probes ---------------------------------------------------------

    def _sti(self, fn: Callable) -> Callable:
        def probe(*args, **kwargs):
            t0 = cpu_clock()
            result = fn(*args, **kwargs)
            self.latency_ms.append((cpu_clock() - t0) * 1e3)
            crash = result.crash
            if crash is not None and crash.oracle == "hang":
                self.fuel_exhausted += 1
            if self.tracer is not None:
                self.counts["sti.accesses_profiled"] += sum(
                    len(p.accesses) for p in result.profiles
                )
            return result

        return probe

    def _mti(self, fn: Callable) -> Callable:
        def probe(*args, **kwargs):
            t0 = cpu_clock()
            result = fn(*args, **kwargs)
            self.latency_ms.append((cpu_clock() - t0) * 1e3)
            if self.tracer is not None:
                self.counts["mti.hangs"] += result.hung
                self.counts["mti.steps"] += result.steps
                self._last_mti_crash = result.crash
            return result

        return probe

    def _crash_add(self, fn: Callable) -> Callable:
        def probe(db, report, *args, **kwargs):
            record = fn(db, report, *args, **kwargs)
            if record.count == 1:
                if record.bug_id is not None:
                    self.first_found.setdefault(record.bug_id, clock())
                if report is self._last_mti_crash:
                    self.counts["mti.new_titles"] += 1
            return record

        return probe

    def _checkpoint(self, fn: Callable) -> Callable:
        def probe(dirpath, *args, **kwargs):
            fn(dirpath, *args, **kwargs)
            self.checkpoints += 1
            if self.tracer is not None:
                self.counts["supervisor.checkpoint_bytes"] += sum(
                    e.stat().st_size for e in os.scandir(dirpath) if e.is_file()
                )

        return probe

    def _ship_batch(self, fn: Callable) -> Callable:
        """Worker side: run the batch, then spool its thin observations."""

        def probe(spec, batch, **kwargs):
            self.reset_campaign()
            start = clock()
            result = fn(spec, batch, **kwargs)
            payload = {
                "batch": batch.index,
                "start": start,
                "end": clock(),
                "latency_ms": self.latency_ms,
                "first_found": self.first_found,
                "fuel_exhausted": self.fuel_exhausted,
            }
            path = os.path.join(self.spool, f"batch-{os.getpid()}-{batch.index:04d}.json")
            with open(path + ".tmp", "w") as fh:
                json.dump(payload, fh)
            os.replace(path + ".tmp", path)
            return result

        return probe

    # -- span probes -----------------------------------------------------------

    def _counted(self, key: str, fn: Callable, measure: Callable) -> Callable:
        counts = self.counts

        def probe(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[key] += measure(result)
            return result

        return probe

    def _batch_start(self, fn: Callable) -> Callable:
        def probe(spec, batch, **kwargs):
            self._batch, self._iteration = batch.index, 0
            return fn(spec, batch, **kwargs)

        return probe

    def _ident(self) -> Tuple[int, int, int]:
        ident = (self.campaign_seed, self._batch, self._iteration)
        self._iteration += 1
        return ident

    # -- installation --------------------------------------------------------------

    def _plan(self) -> List[Tuple[object, str, Callable[[Callable], Callable]]]:
        """``(owner, attribute, make_wrapper)`` for every probe of this run."""
        import repro.fuzzer.corpus as corpus
        import repro.fuzzer.fuzzer as fuzzer
        import repro.fuzzer.generator as generator
        import repro.fuzzer.mti as mti
        import repro.fuzzer.parallel as parallel
        import repro.fuzzer.prefix as prefix
        import repro.fuzzer.sti as sti
        import repro.fuzzer.supervisor as supervisor
        import repro.fuzzer.triage as triage
        import repro.kernel.kernel as kernel
        import repro.trace.replayer as replayer

        # Thin probes go on last, so they sit outside the span probes
        # and their bookkeeping never lands in a layer's own span.
        thin = [
            (fuzzer, "profile_sti", self._sti),
            (fuzzer, "run_mti", self._mti),
            (triage.CrashDB, "add", self._crash_add),
            (supervisor, "write_checkpoint", self._checkpoint),
        ]
        if self.pooled:
            thin.append((supervisor, "run_batch", self._ship_batch))
        if self.tracer is None:
            return thin
        span = self.tracer.wrap
        plan = [
            (parallel, "KernelImage", lambda f: span("kernel.image_build", f)),
            (supervisor, "write_checkpoint", lambda f: span("supervisor.checkpoint", f)),
            (parallel, "merge_shards", lambda f: span("parallel.merge", f)),
            (supervisor, "merge_shards", lambda f: span("parallel.merge", f)),
        ]
        if self.pooled:
            return plan + thin
        count = self._counted
        boot = lambda f: span("kernel.boot", f)
        plan += [
            (parallel, "campaign_pool", lambda f: span("parallel.campaign_pool", f)),
            (parallel, "run_batch", lambda f: span("parallel.batch", self._batch_start(f))),
            (
                fuzzer.OzzFuzzer,
                "fuzz_one",
                lambda f: span("fuzzer.iteration", f, self._ident),
            ),
            (fuzzer, "profile_sti", lambda f: span("sti", f)),
            (fuzzer, "run_mti", lambda f: span("mti", f)),
            (
                fuzzer,
                "calculate_hints",
                lambda f: span("hints", count("hints.computed", f, len)),
            ),
            (prefix.PrefixCache, "prime", lambda f: span("prefix.prime", f)),
            (prefix.PrefixCache, "position", lambda f: span("prefix.position", f)),
            (triage.CrashDB, "add", lambda f: span("triage.add", f)),
            (replayer, "record_crash_artifact", lambda f: span("replayer.record", f)),
            (
                corpus.Corpus,
                "consider",
                lambda f: span("corpus.consider", count("corpus.accepted", f, int)),
            ),
            (generator.InputGenerator, "generate", lambda f: span("generator", f)),
            (generator.InputGenerator, "mutate", lambda f: span("generator", f)),
            (kernel.KernelPool, "acquire", lambda f: span("kernel.acquire", f)),
            (kernel.Kernel, "reset", lambda f: span("kernel.reset", f)),
            # Kernel construction, by the name each caller looks up.
            (kernel, "Kernel", boot),
            (sti, "Kernel", boot),
            (mti, "Kernel", boot),
        ]
        return plan + thin

    @contextmanager
    def installed(self) -> Iterator["Probes"]:
        saved: List[Tuple[object, str, object]] = []
        try:
            for owner, attr, make in self._plan():
                saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, make(getattr(owner, attr)))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
