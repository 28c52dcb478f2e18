"""The outcome gate: every campaign's result against its stored outcome.

An outcome is what a campaign found, never how fast: the merged
``FuzzStats``, every crash title with its count and ``first_test_index``,
and the found bug ids.  ``expected.json`` holds one per campaign of every
workload and seed set; ``run.py --regen-expected`` rewrites it.  The
pooled workload's outcomes come from an in-process run of the same batch
plan, so the gate also checks that results do not depend on the worker
pool.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict
from typing import Dict, List

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")
FORMAT_VERSION = 1


def outcome_of(result) -> dict:
    """The JSON-safe outcome of a ``CampaignResult``."""
    return {
        "stats": asdict(result.stats),
        "crashes": [[c.title, c.count, c.first_test_index] for c in result.crashes],
        "found_bug_ids": list(result.found_bug_ids),
    }


def campaign_failures(result, expected: dict) -> List[str]:
    """Why a campaign counts as failed; empty when it matched."""
    got = outcome_of(result)
    reasons = [
        f"{key} differ from the expected outcome"
        for key in ("stats", "crashes", "found_bug_ids")
        if got[key] != expected[key]
    ]
    if result.retries:
        reasons.append(f"{len(result.retries)} batch retries")
    if result.failed_shards:
        reasons.append(f"{len(result.failed_shards)} failed shards")
    if result.interrupted:
        reasons.append("campaign interrupted")
    return reasons


def workload_key(workload) -> dict:
    """The spec fields an expected outcome was recorded under."""
    return {"iterations": workload.iterations, "batch_size": workload.batch_size}


def load_expected(workload, seed_set: str, path: str = EXPECTED_PATH) -> Dict[int, dict]:
    """Expected outcome per campaign seed; raises if missing or stale."""
    with open(path) as fh:
        payload = json.load(fh)
    if payload.get("version") != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported version {payload.get('version')!r}")
    entry = payload["workloads"].get(workload.name)
    if entry is None or entry["spec"] != workload_key(workload):
        raise ValueError(
            f"{path} has no outcomes for {workload.name} as defined now; "
            "run with --regen-expected"
        )
    outcomes = {int(seed): out for seed, out in entry[seed_set].items()}
    missing = set(workload.seeds[seed_set]) - set(outcomes)
    if missing:
        raise ValueError(f"{path}: {workload.name}/{seed_set} lacks seeds {sorted(missing)}")
    return outcomes


def regenerate(workloads, seed_sets, path: str = EXPECTED_PATH, log=print) -> None:
    """Run every campaign in-process and store its outcome."""
    from repro.campaign_api import run_campaign

    out = {"version": FORMAT_VERSION, "workloads": {}}
    for workload in workloads:
        entry = {"spec": workload_key(workload)}
        for seed_set in seed_sets:
            entry[seed_set] = {}
            for seed in workload.seeds[seed_set]:
                result = run_campaign(workload.reference_spec(seed))
                entry[seed_set][str(seed)] = outcome_of(result)
                log(f"{workload.name}/{seed_set} seed {seed}: "
                    f"{result.stats.tests_run} tests, {len(result.crashes)} titles")
        out["workloads"][workload.name] = entry
    with open(path, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
