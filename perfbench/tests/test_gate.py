"""Outcome gate and workload property checks, on tiny real campaigns."""

import copy
import json

import pytest

import run
from outcome import campaign_failures, outcome_of
from workloads import WORKLOADS, Workload, _hang_property, _typical_property

TINY_ITERATIONS = 6


def tiny(check):
    return Workload(
        name="tiny",
        why="test",
        seeds={"main": (2,), "heldout": (3,)},
        iterations=TINY_ITERATIONS,
        check=check,
    )


@pytest.fixture(scope="module")
def tiny_outcome():
    from repro.campaign_api import run_campaign

    return outcome_of(run_campaign(tiny(_typical_property).spec(2)))


@pytest.fixture
def quick(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "measure_setup", lambda: ([0.25], 1.0))
    monkeypatch.setattr(run, "SCRATCH", str(tmp_path))


def result_line(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_matching_outcome_passes(quick, capsys, tiny_outcome):
    code = run.end_to_end(tiny(_typical_property), [2], {2: tiny_outcome}, 0.001)
    line = result_line(capsys)
    assert code == 0
    assert (line["correct"], line["attempted"], line["failed"]) == (True, 1, 0)
    assert set(line["metrics"]) == {
        "tests_per_s", "time_to_bugs_s", "test_p50_ms", "test_p99_ms",
        "setup_s", "peak_rss_mb",
    }


def test_outcome_mismatch_fails_the_run(quick, capsys, tiny_outcome):
    wrong = copy.deepcopy(tiny_outcome)
    wrong["stats"]["mtis_run"] += 1
    code = run.end_to_end(tiny(_typical_property), [2], {2: wrong}, 0.001)
    line = result_line(capsys)
    assert code != 0
    assert line["correct"] is False
    assert line["failed"] / line["attempted"] > 0


def test_missing_workload_property_fails_the_run(quick, capsys, tiny_outcome):
    # A hang-workload property on a campaign with no fuel-exhausting STI.
    code = run.end_to_end(tiny(_hang_property), [2], {2: tiny_outcome}, 0.001)
    out = capsys.readouterr().out
    line = json.loads(out.strip().splitlines()[-1])
    assert code != 0 and line["failed"] == 1
    assert "workload property" in out


def test_campaign_telemetry_counts_as_failure(tiny_outcome):
    from repro.campaign_api import RetryEvent, run_campaign

    result = run_campaign(tiny(_typical_property).spec(2))
    assert campaign_failures(result, tiny_outcome) == []
    result.retries = (RetryEvent(shard=0, attempt=0, reason="hung", iteration=1),)
    assert campaign_failures(result, tiny_outcome) == ["1 batch retries"]


def test_seed_fixes_the_order_of_a_fixed_list():
    workload = WORKLOADS["serial-typical"]
    a, b = workload.campaign_seeds(1), workload.campaign_seeds(2)
    assert a == workload.campaign_seeds(1)
    assert sorted(a) == sorted(b) == sorted(workload.seeds["main"])
    assert not set(workload.seeds["main"]) & set(workload.seeds["heldout"])


def test_expected_outcomes_cover_every_workload():
    from outcome import load_expected

    for workload in WORKLOADS.values():
        for seed_set in workload.seeds:
            assert set(load_expected(workload, seed_set)) == set(workload.seeds[seed_set])
