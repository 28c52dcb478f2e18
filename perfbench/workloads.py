"""The benchmark's workloads: fixed campaign lists and their properties.

Each workload is a fixed list of campaign seeds run with one
``CampaignSpec`` shape.  The benchmark's ``--seed`` fixes the order in
which a run visits the list, and every run covers the whole list, so
runs with different seeds measure the same work.  ``--seed-set
heldout`` swaps in a second list of campaign seeds with the same
property, kept for re-checking a claim on seeds it was not tuned on.

Every workload also names the property it was chosen for; a campaign
that lacks it fails the run instead of quietly measuring another path.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

SEED_SETS = ("main", "heldout")


def pool_jobs() -> int:
    """Workers for the pooled workload: one core left to the supervisor."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:
        cores = os.cpu_count() or 1
    return max(1, cores - 1)


@dataclass(frozen=True)
class CampaignObs:
    """What the benchmark observed about one campaign, beyond its result."""

    fuel_exhausted: int
    checkpoints: int
    prefix_hits: int


def _hang_property(obs: CampaignObs) -> Optional[str]:
    if obs.fuel_exhausted < 1:
        return "expected a fuel-exhausting STI, saw none"
    return None


def _typical_property(obs: CampaignObs) -> Optional[str]:
    if obs.fuel_exhausted != 0:
        return f"expected no fuel-exhausting STI, saw {obs.fuel_exhausted}"
    return None


def _pooled_property(obs: CampaignObs) -> Optional[str]:
    if obs.checkpoints <= 0:
        return "expected checkpoint writes, saw none"
    if obs.prefix_hits <= 0:
        return "expected prefix-cache hits, saw none"
    return None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    seeds: Dict[str, Tuple[int, ...]]  # seed set -> campaign seeds
    iterations: int
    check: Callable[[CampaignObs], Optional[str]]
    pooled: bool = False
    batch_size: Optional[int] = None

    def campaign_seeds(self, seed: int, seed_set: str = "main") -> List[int]:
        """The seed set's campaign seeds in the order ``seed`` fixes."""
        order = list(self.seeds[seed_set])
        random.Random(seed).shuffle(order)
        return order

    def spec(self, campaign_seed: int, checkpoint_dir: Optional[str] = None):
        """The ``CampaignSpec`` this workload runs for one campaign seed.

        ``checkpoint_dir`` is required for the pooled workload; its
        expected outcome comes from :meth:`reference_spec` instead.
        """
        from repro.campaign_api import CampaignSpec

        if not self.pooled:
            return CampaignSpec(iterations=self.iterations, seed=campaign_seed)
        if checkpoint_dir is None:
            raise ValueError(f"{self.name} needs a checkpoint directory")
        return CampaignSpec(
            iterations=self.iterations,
            seed=campaign_seed,
            jobs=pool_jobs(),
            batch_size=self.batch_size,
            checkpoint_dir=checkpoint_dir,
        )

    def reference_spec(self, campaign_seed: int):
        """An in-process spec with the same batch plan (the expected outcome)."""
        from repro.campaign_api import CampaignSpec

        return CampaignSpec(
            iterations=self.iterations,
            seed=campaign_seed,
            batch_size=self.batch_size,
        )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="serial-typical",
            why=(
                "in-process campaigns with no fuel-exhausting STI: time spreads over "
                "STI profiling, MTIs, hints, pool resets and prefix-cache hits"
            ),
            seeds={"main": (2, 3, 4, 5, 6, 7, 8, 9), "heldout": (14, 15, 16, 17, 18, 19, 20, 21)},
            iterations=1000,
            check=_typical_property,
        ),
        Workload(
            name="serial-hang",
            why=(
                "in-process campaigns that each contain one fuel-exhausting STI, "
                "which dominates wall time through observed step() dispatch"
            ),
            seeds={"main": (1, 10, 13), "heldout": (104, 107, 113)},
            iterations=1000,
            check=_hang_property,
        ),
        Workload(
            name="pooled-checkpoint",
            why=(
                "supervised campaign with a worker pool, explicit batch size and a fresh "
                "checkpoint dir: the repro serve path, write-heavy in the supervisor"
            ),
            seeds={"main": (2, 3, 4), "heldout": (22, 23, 24)},
            iterations=600,
            check=_pooled_property,
            pooled=True,
            batch_size=100,
        ),
    )
}
