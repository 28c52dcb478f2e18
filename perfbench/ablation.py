"""Layer ablation: the workload rerun with one ``CampaignSpec`` field changed.

Named arms, baseline first: each arm adds one layer to the arm named as
its base, and the report gives each arm's ``tests_per_s`` and its ratio
to that base.  Rounds are interleaved (every arm once per round, the arm
order reversed on alternate rounds) until ``--seconds`` have passed, and
every arm must reproduce the workload's expected outcome.  Reported,
not gated: only an outcome mismatch fails the run.
"""

from __future__ import annotations

import dataclasses
import statistics
import time
from typing import Dict, List, Optional, Tuple

#: (arm name, spec fields, base arm name or None)
ARMS: Tuple[Tuple[str, Dict[str, object], Optional[str]], ...] = (
    (
        "reference, no reset, no prefix cache",
        {"engine": "reference", "snapshot_reset": False, "prefix_cache": False},
        None,
    ),
    (
        "+ snapshot reset",
        {"engine": "reference", "snapshot_reset": True, "prefix_cache": False},
        "reference, no reset, no prefix cache",
    ),
    (
        "+ decoded",
        {"engine": "decoded", "snapshot_reset": True, "prefix_cache": False},
        "+ snapshot reset",
    ),
    (
        "+ prefix cache",
        {"engine": "decoded", "snapshot_reset": True, "prefix_cache": True},
        "+ decoded",
    ),
    (
        "engine=codegen",
        {"engine": "codegen", "snapshot_reset": True, "prefix_cache": True},
        "+ prefix cache",
    ),
    (
        "engine=auto",
        {"engine": "auto", "snapshot_reset": True, "prefix_cache": True},
        "+ prefix cache",
    ),
)


def ablation(workload, order: List[int], expected: dict, seconds: float):
    """Run the arms and print the marginal-ratio table.

    Returns ``(attempted, failed, metrics)`` for the result line.
    """
    from repro.campaign_api import run_campaign

    from outcome import campaign_failures

    rates: Dict[str, List[float]] = {name: [] for name, _, _ in ARMS}
    attempted = failed = rounds = 0
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < seconds:
        arms = ARMS if rounds % 2 == 0 else tuple(reversed(ARMS))
        for name, fields, _ in arms:
            tests = wall = 0.0
            for seed in order:
                spec = dataclasses.replace(workload.spec(seed), **fields)
                t0 = time.perf_counter()
                result = run_campaign(spec)
                wall += time.perf_counter() - t0
                tests += result.stats.tests_run
                attempted += 1
                reasons = campaign_failures(result, expected[seed])
                if reasons:
                    failed += 1
                    print(f"  FAILED arm {name!r} seed {seed}: {'; '.join(reasons)}")
            rates[name].append(tests / wall)
        rounds += 1

    print(
        f"ablation on {workload.name}: {len(order)} campaigns per arm, "
        f"{rounds} interleaved rounds; tests_per_s is the median over rounds"
    )
    medians = {name: statistics.median(r) for name, r in rates.items()}
    print(f"  {'arm':<38} {'tests/s':>9}  {'ratio':>6}  base")
    metrics = {}
    for name, _, base in ARMS:
        ratio = f"{medians[name] / medians[base]:.3f}x" if base else "-"
        print(f"  {name:<38} {medians[name]:>9.1f}  {ratio:>6}  {base or '(baseline)'}")
        metrics[f"ablation.{_slug(name)}.tests_per_s"] = (medians[name], "1/s")
    return attempted, failed, metrics


def _slug(name: str) -> str:
    return "".join(c if c.isalnum() else "_" for c in name).strip("_").replace("__", "_")
