"""KIRA static hint seeding — campaign ablation at equal budget.

The same Table-3-style campaign run twice through
:func:`repro.campaign_api.run_campaign`: once dynamic-only (the paper's
pipeline) and once with ``static_hints=True``, which (a) orders each
pair's scheduling hints by :func:`repro.fuzzer.hints.hint_static_rank`
against KIRA's static reordering candidates and (b) schedules syscall
pairs whose static candidate sets overlap on the same addresses first.
Both knobs only *reorder* work — the selected pairs and the per-pair
hint budget are unchanged — so the two runs execute the same number of
tests and the comparison isolates search order.

The interesting figure is tests-to-first-crash per seeded bug: static
seeding must never find a bug later than the dynamic-only baseline at
the same budget, and should find some strictly earlier (the lint's
candidates point at the buggy pairs before any profile exists).

A second ablation isolates the KIRA v2 *lockset weighting*: the same
static-hints campaign under ``static_rank="lockset"`` (default — tier
plus race-engine evidence weights) vs ``static_rank="tier"`` (the
uniform tier-only ranking this repo shipped first).  The weights are a
strict refinement of the tier order, so the lockset arm may never find
a seeded bug later.  On the built-in kernel the two arms are
outcome-identical at this scale — candidate weights differ across
subsystems while hint lists compete within one — so the refinement
itself is asserted directly on the analysis output: a real
mixed-weight hint list orders by race evidence where the tier ranking
ties.

Besides the printed table, the run emits a JSON artifact
(``benchmarks/artifacts/static_hints.json``) with the per-bug numbers,
alongside the other bench artifacts.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.bench.tables import render_table
from repro.campaign_api import CampaignSpec, run_campaign
from repro.fuzzer.parallel import run_batch

ITERATIONS = 40
SEED = 1

ARTIFACT_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "artifacts", "static_hints.json"
)


def _first_hits(result):
    return {c.bug_id: c.first_test_index for c in result.crashes if c.bug_id}


@pytest.fixture(scope="module")
def ablation_results():
    off = run_campaign(CampaignSpec(iterations=ITERATIONS, seed=SEED))
    on = run_campaign(
        CampaignSpec(iterations=ITERATIONS, seed=SEED, static_hints=True)
    )
    return off, on


def test_static_hints_ablation(benchmark, ablation_results):
    """Benchmark a small static-hints campaign; print + persist the
    per-bug tests-to-first-crash comparison."""
    benchmark.pedantic(
        lambda: run_campaign(
            CampaignSpec(iterations=8, seed=9, static_hints=True)
        ),
        rounds=3,
        iterations=1,
    )

    off, on = ablation_results
    hits_off, hits_on = _first_hits(off), _first_hits(on)

    rows = []
    artifact = {
        "iterations": ITERATIONS,
        "seed": SEED,
        "tests_run": {"off": off.stats.tests_run, "on": on.stats.tests_run},
        "bugs": {},
    }
    improved = []
    for bug_id in sorted(set(hits_off) | set(hits_on)):
        t_off = hits_off.get(bug_id)
        t_on = hits_on.get(bug_id)
        if t_off is not None and t_on is not None:
            delta = t_off - t_on
            verdict = "earlier" if delta > 0 else ("same" if delta == 0 else "later")
        else:
            verdict = "only static" if t_off is None else "only dynamic"
        if verdict == "earlier":
            improved.append(bug_id)
        rows.append((bug_id, t_off if t_off is not None else "-",
                     t_on if t_on is not None else "-", verdict))
        artifact["bugs"][bug_id] = {
            "tests_to_first_crash_dynamic": t_off,
            "tests_to_first_crash_static": t_on,
            "verdict": verdict,
        }
    print()
    print(
        render_table(
            "Static hint seeding (tests to first crash, equal budget)",
            ["bug", "dynamic-only", "w/ static hints", "verdict"],
            rows,
            note=f"{ITERATIONS} iterations, seed {SEED}; "
            f"{len(improved)} bugs found strictly earlier",
        )
    )

    os.makedirs(os.path.dirname(ARTIFACT_PATH), exist_ok=True)
    with open(ARTIFACT_PATH, "w") as fh:
        json.dump(artifact, fh, indent=2)
    print(f"wrote {ARTIFACT_PATH}")

    # Equal budget: static seeding reorders the search, it must not
    # change how much work runs.
    assert on.stats.tests_run == off.stats.tests_run

    # Never worse on any seeded bug the baseline finds ...
    for bug_id, t_off in hits_off.items():
        t_on = hits_on.get(bug_id)
        assert t_on is not None, f"static hints lost {bug_id}"
        assert t_on <= t_off, (
            f"{bug_id}: static hints slower ({t_on} vs {t_off} tests)"
        )
    # ... and strictly better on at least two.
    assert len(improved) >= 2, f"only improved {improved}"


# -- KIRA v2: lockset-weighted vs tier-only ranking -------------------------


def _record_lockset_ablation(payload):
    """Merge the lockset-vs-tier section into the shared artifact."""
    os.makedirs(os.path.dirname(ARTIFACT_PATH), exist_ok=True)
    artifact = {}
    if os.path.exists(ARTIFACT_PATH):
        with open(ARTIFACT_PATH) as fh:
            artifact = json.load(fh)
    artifact["lockset_vs_tier"] = payload
    with open(ARTIFACT_PATH, "w") as fh:
        json.dump(artifact, fh, indent=2)


def _shard_hits(result):
    return {
        rec.bug_id: rec.first_test_index
        for rec in result.crashdb.records.values()
        if rec.bug_id
    }


@pytest.fixture(scope="module")
def rank_ablation_results():
    spec = CampaignSpec(iterations=ITERATIONS, seed=SEED, static_hints=True)
    batch = spec.batches()[0]
    lockset = run_batch(spec, batch)
    tier = run_batch(
        spec, batch, on_fuzzer=lambda f: setattr(f, "static_rank", "tier")
    )
    return lockset, tier


def test_lockset_rank_never_later_than_tier(rank_ablation_results):
    """Equal-budget non-regression: the lockset-weighted ranking may not
    find any seeded bug later than the tier-only ranking, nor lose one."""
    lockset, tier = rank_ablation_results
    hits_lockset, hits_tier = _shard_hits(lockset), _shard_hits(tier)

    _record_lockset_ablation(
        {
            "iterations": ITERATIONS,
            "seed": SEED,
            "tests_run": {
                "lockset": lockset.stats.tests_run,
                "tier": tier.stats.tests_run,
            },
            "bugs": {
                bug_id: {
                    "tier": hits_tier.get(bug_id),
                    "lockset": hits_lockset.get(bug_id),
                }
                for bug_id in sorted(set(hits_tier) | set(hits_lockset))
            },
        }
    )

    assert lockset.stats.tests_run == tier.stats.tests_run
    for bug_id, t_tier in hits_tier.items():
        t_lockset = hits_lockset.get(bug_id)
        assert t_lockset is not None, f"lockset ranking lost {bug_id}"
        assert t_lockset <= t_tier, (
            f"{bug_id}: lockset ranking slower ({t_lockset} vs {t_tier})"
        )


@pytest.fixture(scope="module")
def weighted_pairs():
    from repro.analysis import (
        analyze_races,
        candidate_weights,
        static_reordering_candidates,
    )
    from repro.config import KernelConfig
    from repro.kernel.kernel import KernelImage

    image = KernelImage(KernelConfig(instrumented=False))
    candidates = static_reordering_candidates(image.plain_program)
    report = analyze_races(
        image.plain_program,
        owner=image.function_owner,
        roots=image.syscall_roots(),
        regions=image.global_regions(),
        candidates=candidates,
    )
    return candidate_weights(report.races(), candidates)


def test_lockset_weights_strictly_refine_tier_order(weighted_pairs):
    """The ranking itself is a strict refinement of the tier order.

    Campaign outcomes on the built-in kernel are identical between the
    two arms (hint lists compete within a subsystem, where the race
    engine's evidence is uniform), so the refinement is demonstrated on
    the analysis output directly: for two hints that both exercise a
    static candidate (tier 0), the tier ranking ties where the lockset
    weights order the race-backed hint first.
    """
    from repro.fuzzer.hints import (
        LD,
        ST,
        SchedulingHint,
        hint_static_rank,
        prioritize_hints,
    )

    ranked = []
    for kind, table in sorted(weighted_pairs.items()):
        assert kind in (ST, LD)
        for pair in sorted(table):
            mover = pair[0] if kind == ST else pair[1]
            hint = SchedulingHint(kind, 0, mover, 1, (mover,), 1)
            rank = hint_static_rank(hint, weighted_pairs)
            if rank[0] == 0:
                ranked.append((hint, rank))

    # The race engine must differentiate at least some exercising hints.
    weights = sorted({-rank[1] for _, rank in ranked})
    assert len(weights) >= 2, f"uniform candidate weights: {weights}"

    light = next(h for h, r in ranked if -r[1] == weights[0])
    heavy = next(h for h, r in ranked if -r[1] == weights[-1])

    # Tier-only ranking ties the two (stable sort keeps input order) ...
    tier_pairs = {kind: set(table) for kind, table in weighted_pairs.items()}
    assert prioritize_hints([light, heavy], tier_pairs) == [light, heavy]
    # ... the lockset weights put the race-backed hint first.
    assert prioritize_hints([light, heavy], weighted_pairs) == [heavy, light]
