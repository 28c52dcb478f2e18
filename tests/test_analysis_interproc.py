"""Tests for the KIRA v2 interprocedural engine.

Acceptance (ISSUE 7): the race engine flags every seeded bug — including
every lock-protected race — interprocedurally with zero executions, each
finding carrying a concrete syscall-entry witness path; schema v2
round-trips; SARIF output is stable.
"""

import json
import os

import pytest

from repro.analysis import (
    LintReport,
    analyze_races,
    build_callgraph,
    candidate_pairs,
    candidate_weights,
    lint_program,
    points_to,
    static_reordering_candidates,
    summarize_program,
    to_sarif,
)
from repro.analysis.lockset import analyze_locksets
from repro.analysis.pointsto import GlobalRegion, ParamSource
from repro.config import KernelConfig
from repro.kernel import bugs
from repro.kernel.kernel import KernelImage
from repro.kir import Builder, Program


@pytest.fixture(scope="module")
def image():
    return KernelImage(KernelConfig(instrumented=False))


@pytest.fixture(scope="module")
def report(image):
    return analyze_races(
        image.plain_program,
        owner=image.function_owner,
        roots=image.syscall_roots(),
        regions=image.global_regions(),
        candidates=static_reordering_candidates(image.plain_program),
    )


def finish(b):
    b.ret()
    return b.function()


# ---------------------------------------------------------------------------
# Acceptance: zero-execution coverage of the seeded bugs.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "bug_id", [b.bug_id for b in bugs.all_bugs()], ids=str
)
def test_every_seeded_bug_subsystem_has_a_race(bug_id, report):
    spec = bugs.get(bug_id)
    hits = [
        r for r in report.races() if r.subsystem == spec.subsystem
    ]
    assert hits, f"{bug_id}: no race candidate in {spec.subsystem}"


def test_lock_protected_race_is_classified_lock_race(report):
    # vlan: the writer holds vlan_lock, the readers are lockless — the
    # canonical one-sided-locking race, visible only interprocedurally.
    vlan = [r for r in report.races() if r.subsystem == "vlan"]
    lock_races = [r for r in vlan if r.classification == "lock-race"]
    assert lock_races, "vlan's one-sided locking not classified lock-race"
    race = lock_races[0]
    locked = race.writer.lockset or race.other.lockset
    assert any("vlan_lock" in l for l in locked)


def test_every_race_has_a_witness_path(report, image):
    roots = set(image.syscall_roots())
    for race in report.races():
        for side in (race.writer, race.other):
            assert side.witness, f"no witness for {side.function}"
            assert side.witness[0] in roots
            assert side.witness[-1] == side.function


def test_ranking_is_by_score_descending(report):
    scores = [r.score for r in report.races()]
    assert scores == sorted(scores, reverse=True)


def test_false_positives_confined_to_baseline(image, report):
    # Bug-free subsystems may have findings (ramfs readers really are
    # lockless) but they are bounded — the precision baseline.
    bug_subsystems = {b.subsystem for b in bugs.all_bugs()}
    fps = [r for r in report.races() if r.subsystem not in bug_subsystems]
    assert len(fps) <= 80


# ---------------------------------------------------------------------------
# Layer units: call graph, points-to, locksets, summaries.
# ---------------------------------------------------------------------------


class TestCallGraph:
    def test_direct_edges_exact(self):
        callee = finish(Builder("leaf"))
        b = Builder("root")
        b.call_void("leaf")
        program = Program([finish(b), callee])
        cg = build_callgraph(program, roots=["root"])
        assert [s.callee for s in cg.callees("root")] == ["leaf"]
        assert [s.caller for s in cg.callers("leaf")] == ["root"]
        assert cg.reachable() == {"root", "leaf"}

    def test_witness_paths_are_shortest(self, image):
        cg = build_callgraph(
            image.plain_program, roots=image.syscall_roots()
        )
        paths = cg.witness_paths()
        for root in image.syscall_roots():
            assert paths[root] == (root,)
        for func, path in paths.items():
            assert path[-1] == func
            # each step is a real call edge
            for caller, callee in zip(path, path[1:]):
                assert callee in {s.callee for s in cg.callees(caller)}

    def test_icall_targets_cover_boot_installed(self, image):
        # vtable-style dispatch: every function installed only at boot
        # (statically invisible) must still be reachable via ICall CHA.
        cg = build_callgraph(
            image.plain_program, roots=image.syscall_roots()
        )
        assert cg.reachable() == frozenset(
            image.plain_program.functions
        )


class TestPointsTo:
    def test_global_region_resolution(self, image):
        pt = points_to(
            image.plain_program,
            regions=image.global_regions(),
            callgraph=build_callgraph(
                image.plain_program, roots=image.syscall_roots()
            ),
        )
        func = image.plain_program.function("sys_vlan_add")
        regions = {
            loc.obj.name
            for i in range(len(func.insns))
            for loc in pt.access_locs("sys_vlan_add", i)
            if isinstance(loc.obj, GlobalRegion)
        }
        assert "vlan_group" in regions

    def test_fixpoint_converges(self, image):
        pt = points_to(
            image.plain_program,
            regions=image.global_regions(),
            callgraph=build_callgraph(
                image.plain_program, roots=image.syscall_roots()
            ),
        )
        assert pt.passes < 64

    def test_param_flows_into_callee(self):
        # callee dereferences its parameter; caller passes a global.
        cb = Builder("callee", ["p"])
        cb.store("p", 0, 1)
        callee = finish(cb)
        b = Builder("root")
        b.call_void("callee", 0x20_0000)
        program = Program([finish(b), callee])
        pt = points_to(
            program,
            regions={"g": (0x20_0000, 64)},
            callgraph=build_callgraph(program, roots=["root"]),
        )
        locs = pt.access_locs("callee", 0)
        assert any(
            isinstance(l.obj, GlobalRegion) and l.obj.name == "g"
            for l in locs
        )


class TestLocksets:
    def test_vlan_writer_holds_lock_readers_do_not(self, image):
        cg = build_callgraph(
            image.plain_program, roots=image.syscall_roots()
        )
        pt = points_to(
            image.plain_program,
            regions=image.global_regions(),
            callgraph=cg,
        )
        summaries = summarize_program(image.plain_program, pt, cg)
        ls = analyze_locksets(
            image.plain_program, summaries, cg,
            roots=image.syscall_roots(),
        )
        writer = image.plain_program.function("sys_vlan_add")
        held_any = set()
        for i in range(len(writer.insns)):
            held_any |= ls.held_at("sys_vlan_add", i)
        assert any("vlan_lock" in l for l in held_any)
        reader = image.plain_program.function("sys_vlan_get_device")
        for i in range(len(reader.insns)):
            assert not ls.held_at("sys_vlan_get_device", i)


# ---------------------------------------------------------------------------
# Report schema: v2 round-trip, SARIF.
# ---------------------------------------------------------------------------


class TestSchema:
    def test_v2_round_trip(self, image):
        report = lint_program(
            image.plain_program,
            image.function_owner,
            roots=image.syscall_roots(),
            regions=image.global_regions(),
        )
        payload = json.loads(json.dumps(report.to_json_dict()))
        loaded = LintReport.from_json_dict(payload)
        assert loaded.counts() == report.counts()
        assert [f.to_dict() for f in loaded.findings] == [
            f.to_dict() for f in report.findings
        ]
        assert [r.to_dict() for r in loaded.races] == [
            r.to_dict() for r in report.races
        ]

    def test_unknown_version_rejected(self):
        with pytest.raises(ValueError, match="version"):
            LintReport.from_json_dict({"version": 3, "findings": []})

    def test_sarif_structure(self, image):
        report = lint_program(
            image.plain_program,
            image.function_owner,
            subsystems=["vlan"],
            roots=image.syscall_roots(),
            regions=image.global_regions(),
        )
        log = to_sarif(report)
        assert log["version"] == "2.1.0"
        run = log["runs"][0]
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert {"missing-barrier", "race-candidate"} <= rule_ids
        assert len(run["results"]) == len(report.findings)
        for result in run["results"]:
            name = result["locations"][0]["logicalLocations"][0][
                "fullyQualifiedName"
            ]
            assert name.startswith("vlan/")

    def test_sarif_snapshot(self):
        # Committed snapshot over a tiny fixed program — catches any
        # unintended change to the SARIF shape.
        b = Builder("f")
        b.store(0x1000, 0, 1)
        b.store(0x2000, 0, 1)
        func = finish(b)
        program = Program([func])
        report = lint_program(program, races=False)
        log = to_sarif(report)
        path = os.path.join(
            os.path.dirname(__file__), "data", "sarif_snapshot.json"
        )
        want = json.loads(open(path).read())
        assert log == want

    def test_sarif_is_deterministic(self, image):
        report = lint_program(
            image.plain_program,
            image.function_owner,
            subsystems=["vlan"],
            roots=image.syscall_roots(),
            regions=image.global_regions(),
        )
        assert json.dumps(to_sarif(report), sort_keys=True) == json.dumps(
            to_sarif(report), sort_keys=True
        )


# ---------------------------------------------------------------------------
# Candidate weights feed the fuzzer's lockset-ranked hints.
# ---------------------------------------------------------------------------


class TestCandidateWeights:
    def test_every_candidate_pair_weighted(self, image, report):
        candidates = static_reordering_candidates(image.plain_program)
        weights = candidate_weights(report.races(), candidates)
        pairs = candidate_pairs(candidates)
        for kind, pair_set in pairs.items():
            assert set(weights[kind]) == set(pair_set)
            assert all(w >= 1 for w in weights[kind].values())

    def test_race_backed_candidates_outweigh_unbacked(self, image, report):
        candidates = static_reordering_candidates(image.plain_program)
        weights = candidate_weights(report.races(), candidates)
        all_weights = [
            w for kind in weights for w in weights[kind].values()
        ]
        assert max(all_weights) > 1
