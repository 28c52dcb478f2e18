"""Per-layer metrics and the self-time accounting check of a traced run.

Every ``*_s`` layer time is **self** time: the span's duration minus the
part its child spans cover, so the layer times of one iteration
partition its ``fuzz_one`` wall time (what is left is
``fuzzer.other_s``).  Counts come from the probes, the
``CampaignResult`` stats and ``CampaignResult.engine_counters``.  All
values are per pass over the workload's campaign list.
"""

from __future__ import annotations

from typing import Dict, List

from spans import END, NAME, START, layer_totals, nearest_rank, owners, self_times, union_length

ITERATION = "fuzzer.iteration"


def _engine(runs, key: str) -> int:
    return sum(run.result.engine_counters.get(key, 0) for run in runs)


def layer_metrics(workload, runs: List, probes, passes: int) -> Dict[str, tuple]:
    """Every per-layer metric, as ``name -> (value, unit)``."""
    spans = probes.tracer.spans
    layers = layer_totals(spans)
    counts = probes.counts

    def self_s(name: str) -> float:
        return layers.get(name, {}).get("self", 0.0) / passes

    def calls(name: str) -> float:
        return layers.get(name, {}).get("count", 0) / passes

    def per_pass(value: float) -> float:
        return value / passes

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    sti_ms = sorted((row[END] - row[START]) * 1e3 for row in spans if row[NAME] == "sti")
    mti_runs = calls("mti")
    hints_computed = counts["hints.computed"]
    wall = sum(run.wall for run in runs)
    batch_s = sum(s.seconds for run in runs for s in run.result.shards)
    jobs = runs[0].result.spec.jobs if runs else 1
    m = {
        "kernel.image_build_s": (self_s("kernel.image_build"), "s"),
        "kernel.boots": (per_pass(_engine(runs, "boots")), "count"),
        "kernel.boot_s": (self_s("kernel.boot"), "s"),
        "kernel.resets": (per_pass(_engine(runs, "resets")), "count"),
        "kernel.reset_s": (self_s("kernel.reset"), "s"),
        "kernel.dirty_pages_restored": (per_pass(_engine(runs, "dirty_pages_restored")), "count"),
        "sti.busy_s": (self_s("sti"), "s"),
        "sti.runs": (calls("sti"), "count"),
        "sti.p99_ms": (nearest_rank(sti_ms, "99") if sti_ms else 0.0, "ms"),
        "sti.max_ms": (sti_ms[-1] if sti_ms else 0.0, "ms"),
        "sti.fuel_exhausted": (per_pass(sum(r.obs.fuel_exhausted for r in runs)), "count"),
        "sti.accesses_profiled": (per_pass(counts["sti.accesses_profiled"]), "count"),
        "hints.busy_s": (self_s("hints"), "s"),
        "hints.calls": (calls("hints"), "count"),
        "hints.computed": (per_pass(hints_computed), "count"),
        "hints.used_ratio": (ratio(mti_runs * passes, hints_computed), "ratio"),
        "prefix.prime_s": (self_s("prefix.prime"), "s"),
        "prefix.position_s": (self_s("prefix.position"), "s"),
        "prefix.snapshots": (per_pass(_engine(runs, "prefix_snapshots")), "count"),
        "prefix.hits": (per_pass(_engine(runs, "prefix_hits")), "count"),
        "prefix.hit_ratio": (ratio(_engine(runs, "prefix_hits"), calls("prefix.position") * passes), "ratio"),
        "prefix.calls_skipped": (per_pass(_engine(runs, "calls_skipped")), "count"),
        "mti.busy_s": (self_s("mti"), "s"),
        "mti.runs": (mti_runs, "count"),
        "mti.hangs": (per_pass(counts["mti.hangs"]), "count"),
        "mti.steps": (per_pass(counts["mti.steps"]), "count"),
        "mti.us_per_step": (ratio(self_s("mti") * 1e6, per_pass(counts["mti.steps"])), "us"),
        "mti.new_title_ratio": (ratio(per_pass(counts["mti.new_titles"]), mti_runs), "ratio"),
        "triage.add_s": (self_s("triage.add"), "s"),
        "triage.unique_titles": (per_pass(sum(len(r.result.crashes) for r in runs)), "count"),
        "replayer.records": (calls("replayer.record"), "count"),
        "replayer.record_s": (self_s("replayer.record"), "s"),
        "corpus.accept_ratio": (ratio(counts["corpus.accepted"], calls("corpus.consider") * passes), "ratio"),
        "generator.s": (self_s("generator"), "s"),
        "fuzzer.iteration_s": (per_pass(layers.get(ITERATION, {}).get("total", 0.0)), "s"),
        "fuzzer.other_s": (self_s(ITERATION), "s"),
        "supervisor.checkpoints": (per_pass(sum(r.obs.checkpoints for r in runs)), "count"),
        "supervisor.checkpoint_s": (self_s("supervisor.checkpoint"), "s"),
        "supervisor.checkpoint_bytes": (per_pass(counts["supervisor.checkpoint_bytes"]), "bytes"),
        "parallel.merge_s": (self_s("parallel.merge"), "s"),
        "parallel.batch_s": (per_pass(batch_s), "s"),
        "supervisor.worker_util": (
            ratio(batch_s, jobs * wall) if workload.pooled else 0.0,
            "ratio",
        ),
        "supervisor.retries": (per_pass(sum(len(r.result.retries) for r in runs)), "count"),
        "supervisor.failed_shards": (per_pass(sum(len(r.result.failed_shards) for r in runs)), "count"),
        "kir.promotions": (per_pass(_engine(runs, "promotions")), "count"),
        "kir.codegen_bound": (per_pass(_engine(runs, "codegen_functions_bound")), "count"),
        "kir.decode_cache_hits": (per_pass(_engine(runs, "decode_cache_hits")), "count"),
        "trace.tests_per_s": (sum(r.tests for r in runs) / wall, "1/s"),
    }
    return m


#: Supervisor-side layers that can cover a pooled campaign's wall time
#: while its worker is not running a batch.
POOLED_PARENT_SPANS = ("kernel.image_build", "supervisor.checkpoint", "parallel.merge")
#: In-process per-campaign set-up outside ``fuzz_one``.
SERIAL_SETUP_SPANS = ("parallel.campaign_pool", "parallel.merge")


def accounting(workload, runs: List, probes, passes: int) -> Dict[str, tuple]:
    """The two coverage ratios of the self-time accounting check.

    ``accounting.self_cover``: layer self times plus the root's own self
    time, over the root spans' wall time.  The root is ``fuzz_one`` in
    process; for the pooled workload, whose iterations run in workers,
    it is the supervisor's ``campaign`` span.

    ``accounting.campaign_cover``: the share of ``run_campaign`` wall
    time that spans explain.  In process that is the ``fuzz_one`` spans
    plus per-campaign set-up (``campaign_pool``, the batch's own set-up
    outside ``fuzz_one``, ``merge_shards``).  Pooled, it is the union of
    the worker's batch intervals and the supervisor's own spans.
    ``accounting.uncovered_s`` is the rest, per pass.
    """
    spans = probes.tracer.spans
    selfs = self_times(spans)
    root = "campaign" if workload.pooled else ITERATION
    owner = owners(spans, root)
    root_total = sum(row[END] - row[START] for row in spans if row[NAME] == root)
    inside = sum(selfs[i] for i in range(len(spans)) if owner[i] >= 0)
    wall = sum(run.wall for run in runs)
    if workload.pooled:
        covered = 0.0
        for run in runs:
            lo, hi = run.start, run.start + run.wall
            intervals = list(run.worker_intervals) + [
                (row[START], row[END])
                for row in spans
                if row[NAME] in POOLED_PARENT_SPANS and lo <= row[START] < hi
            ]
            covered += union_length(
                (max(s, lo), min(e, hi)) for s, e in intervals if min(e, hi) > max(s, lo)
            )
    else:
        totals = layer_totals(spans)
        covered = root_total + totals.get("parallel.batch", {}).get("self", 0.0) + sum(
            totals.get(name, {}).get("total", 0.0) for name in SERIAL_SETUP_SPANS
        )
    return {
        "accounting.self_cover": (inside / root_total if root_total else 0.0, "ratio"),
        "accounting.campaign_cover": (covered / wall if wall else 0.0, "ratio"),
        "accounting.uncovered_s": ((wall - covered) / passes, "s"),
    }
