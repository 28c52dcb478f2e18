"""Tests for the persistent worker pool (batch plan, stealing, policy).

Complements ``test_supervisor.py`` (fault tolerance under the legacy
one-batch-per-job plan) with the worker-pool surface this PR added:
explicit batch plans shared across job counts, work-stealing under slow
and dead workers, checkpoint schema v2 with the worker knobs nested
under ``"policy"``.
"""

import json
import os
from dataclasses import replace

import pytest

from repro.campaign_api import (
    SEED_STRIDE,
    BatchSpec,
    CampaignSpec,
    run_campaign,
    spec_from_dict,
    spec_to_dict,
)
from repro.errors import ConfigError
from repro.fuzzer.parallel import merge_shards, run_batch
from repro.fuzzer.supervisor import MANIFEST_NAME, FaultPlan, run_supervised
from repro.trace import TraceRecorder


def pooled_spec(**overrides):
    base = dict(
        iterations=12, jobs=2, batch_size=3, use_seeds=True, shard_timeout=5.0
    )
    base.update(overrides)
    return CampaignSpec(**base)


class TestBatchPlan:
    def test_default_plan_is_one_batch_per_job(self):
        spec = CampaignSpec(iterations=10, jobs=4)
        plan = spec.batches()
        assert [b.index for b in plan] == [0, 1, 2, 3]
        assert [b.iterations for b in plan] == list(spec.shard_iterations())
        assert sum(b.iterations for b in plan) == 10
        assert all(b.nslices == 4 for b in plan)

    def test_explicit_batch_size_plan(self):
        spec = CampaignSpec(iterations=10, jobs=2, batch_size=4)
        plan = spec.batches()
        assert [b.iterations for b in plan] == [4, 4, 2]
        assert [b.seed for b in plan] == [spec.seed * SEED_STRIDE + b for b in range(3)]
        assert all(b.nslices == 3 for b in plan)

    def test_plan_is_independent_of_jobs(self):
        """The work queue contract: the plan is a function of the budget
        alone, so any worker count executes identical batches."""
        plans = {
            jobs: CampaignSpec(iterations=20, jobs=jobs, batch_size=4).batches()
            for jobs in (1, 2, 4)
        }
        assert plans[1] == plans[2] == plans[4]

    def test_batch_is_a_mini_shard(self):
        b = CampaignSpec(iterations=9, jobs=1, batch_size=4).batches()[1]
        assert b == BatchSpec(index=1, seed=SEED_STRIDE + 1, iterations=4, nslices=3)


class TestPoolDeterminism:
    @pytest.fixture(scope="class")
    def serial_result(self):
        return run_campaign(pooled_spec(jobs=1, shard_timeout=None))

    def test_jobs_do_not_change_the_result(self, serial_result):
        """jobs=1 (serial, in-process) == jobs=2 == jobs=4 (pooled)."""
        for jobs in (2, 4):
            result = run_campaign(pooled_spec(jobs=jobs))
            assert replace(result, spec=serial_result.spec) == serial_result

    def test_death_mid_batch_equals_clean(self, serial_result):
        clean = run_supervised(pooled_spec())
        assert replace(clean, spec=serial_result.spec) == serial_result
        faulted = run_supervised(
            pooled_spec(), faults=(FaultPlan(shard=2, iteration=1, kind="die"),)
        )
        assert faulted == clean
        assert [r.shard for r in faulted.retries] == [2]

    def test_merge_order_is_canonical(self):
        spec = pooled_spec(jobs=1, shard_timeout=None)
        shards = [run_batch(spec, b) for b in spec.batches()]
        forward = merge_shards(spec, shards, seconds=0.0)
        backward = merge_shards(spec, list(reversed(shards)), seconds=0.0)
        assert forward == backward
        assert [s.shard for s in backward.shards] == sorted(
            s.shard for s in backward.shards
        )


class TestWorkStealing:
    def test_slow_batch_does_not_starve_the_plan(self):
        """One stalled batch must not block the queue: the sibling worker
        drains the remaining batches while the slow one sleeps."""
        sink = TraceRecorder(capacity=8192)
        spec = pooled_spec(iterations=12, batch_size=2)  # 6 batches, 2 workers
        result = run_supervised(
            spec,
            faults=(FaultPlan(shard=0, iteration=0, kind="slow"),),
            sink=sink,
        )
        assert result.retries == () and result.failed_shards == ()
        claims = [e for e in sink.events() if e.kind == "batch-claim"]
        by_worker = {}
        for e in claims:
            by_worker.setdefault(e.worker, set()).add(e.batch)
        assert set.union(*by_worker.values()) == set(range(6))
        slow_worker = next(e.worker for e in claims if e.batch == 0)
        # The stalled worker held batch 0 the whole time the other side
        # drained the queue.
        assert len(by_worker[slow_worker]) <= 2
        assert max(len(batches) for batches in by_worker.values()) >= 4

    def test_retry_after_death_is_recorded_as_a_steal(self):
        sink = TraceRecorder(capacity=8192)
        result = run_supervised(
            pooled_spec(),
            faults=(FaultPlan(shard=1, iteration=1, kind="die"),),
            sink=sink,
        )
        assert result.failed_shards == ()
        steals = [e for e in sink.events() if e.kind == "batch-steal"]
        assert steals, "retry on a fresh worker should emit batch-steal"
        assert all(e.from_worker != e.worker for e in steals)
        assert any(e.batch == 1 for e in steals)


class TestManifestV2:
    def test_manifest_records_plan_and_assignments(self, tmp_path):
        d = str(tmp_path / "ckpt")
        spec = pooled_spec(checkpoint_dir=d)
        run_supervised(spec)
        with open(os.path.join(d, MANIFEST_NAME)) as fh:
            manifest = json.load(fh)
        assert manifest["version"] == 2
        plan = spec.batches()
        assert manifest["plan"] == [
            {
                "batch": b.index,
                "seed": b.seed,
                "iterations": b.iterations,
                "slices": b.nslices,
            }
            for b in plan
        ]
        ran = {a["batch"] for a in manifest["assignments"]}
        assert ran == {b.index for b in plan}
        assert all(a["attempt"] == 0 for a in manifest["assignments"])

    def test_spec_dict_nests_policy(self):
        spec = pooled_spec()
        payload = spec_to_dict(spec)
        assert payload["policy"] == {
            "jobs": 2,
            "batch_size": 3,
            "shard_timeout": 5.0,
            "max_retries": 2,
        }
        assert "jobs" not in payload  # the knobs are written nested only
        assert spec_from_dict(payload) == spec


class TestWorkerPolicy:
    BAD_KNOBS = (
        dict(jobs=0),
        dict(batch_size=0),
        dict(shard_timeout=0.0),
        dict(max_retries=-1),
    )

    def test_validation(self):
        for bad in self.BAD_KNOBS:
            with pytest.raises(ConfigError):
                CampaignSpec(iterations=4, **bad)
            payload = spec_to_dict(pooled_spec())
            payload["policy"].update(bad)
            with pytest.raises(ConfigError):
                spec_from_dict(payload)
