"""KIRA lint orchestration: run every static check over a program.

Bundles the analyses into one report with a stable JSON shape:

* ``use-before-def`` — :func:`repro.analysis.reaching.undefined_reads`,
* ``missing-barrier`` — :func:`repro.analysis.barriers.static_reordering_candidates`,
* ``lock-pairing`` — :func:`repro.analysis.locks.check_lock_pairing`,
* ``race-candidate`` — :func:`repro.analysis.races.analyze_races`, the
  interprocedural lockset/happens-before engine (KIRA v2).

The report powers four consumers: the ``repro lint`` CLI subcommand
(:mod:`repro.cli`), the optional strict mode of kernel image building
(:class:`repro.kernel.kernel.KernelImage` with
``KernelConfig.strict_lint``), the fuzzer's static hint seeding (via
the raw candidates and race findings), and the committed precision
baseline (:mod:`benchmarks.bench_lint_precision`).

JSON schema (``version`` 2)::

    {"version": 2,
     "counts": {"use-before-def": N, "missing-barrier": N,
                "lock-pairing": N, "race-candidate": N},
     "findings": [
       {"check": ..., "kind": ..., "subsystem": ..., "function": ...,
        "index": ..., "message": ...,
        "details": {...}?},    # race-candidate findings only
       ...]}

:meth:`LintReport.from_json_dict` reads version 2 only; any other
version is rejected with a ``ValueError`` naming both versions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.barriers import (
    StaticCandidate,
    static_reordering_candidates,
)
from repro.analysis.locks import check_lock_pairing
from repro.analysis.races import RaceFinding, analyze_races
from repro.analysis.reaching import undefined_reads
from repro.errors import check_version
from repro.kir.function import Program

#: JSON report schema version.
LINT_SCHEMA_VERSION = 2

#: Check names, in report order.
CHECKS = ("use-before-def", "missing-barrier", "lock-pairing", "race-candidate")


@dataclass(frozen=True)
class Finding:
    """One lint finding, uniform across checks."""

    check: str       # one of CHECKS
    kind: str        # subcategory: register name, "st"/"ld", lock-pairing
                     # kind, or the race classification
    subsystem: str   # owning subsystem, "" if unknown
    function: str
    index: int       # function-local instruction index (the pair's X for
                     # barriers, the writer for races)
    message: str
    #: structured payload (race-candidate findings carry the full
    #: :class:`~repro.analysis.races.RaceFinding` dict); omitted from
    #: JSON when absent
    details: Optional[Dict[str, object]] = None

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "check": self.check,
            "kind": self.kind,
            "subsystem": self.subsystem,
            "function": self.function,
            "index": self.index,
            "message": self.message,
        }
        if self.details is not None:
            out["details"] = self.details
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Finding":
        return cls(
            check=data["check"],
            kind=data["kind"],
            subsystem=data["subsystem"],
            function=data["function"],
            index=data["index"],
            message=data["message"],
            details=data.get("details"),
        )


@dataclass
class LintReport:
    """All findings for one program, plus the raw barrier candidates."""

    findings: List[Finding]
    candidates: List[StaticCandidate]
    #: non-benign interprocedural race findings (ranked), when the race
    #: engine ran; reconstructed from finding details on JSON read
    races: List[RaceFinding] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.findings

    def counts(self) -> Dict[str, int]:
        out = {check: 0 for check in CHECKS}
        for f in self.findings:
            out[f.check] += 1
        return out

    def by_check(self, check: str) -> List[Finding]:
        return [f for f in self.findings if f.check == check]

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "version": LINT_SCHEMA_VERSION,
            "counts": self.counts(),
            "findings": [f.to_dict() for f in self.findings],
        }

    @classmethod
    def from_json_dict(cls, data: Dict[str, object]) -> "LintReport":
        """Read a serialized report (schema :data:`LINT_SCHEMA_VERSION`).

        Candidates are not serialized (they never were); a loaded
        report answers finding-level queries only.
        """
        check_version(
            "lint report", data.get("version"), LINT_SCHEMA_VERSION, ValueError
        )
        findings = [Finding.from_dict(f) for f in data.get("findings", [])]
        races = [
            RaceFinding.from_dict(f.details)
            for f in findings
            if f.check == "race-candidate" and f.details is not None
        ]
        return cls(findings=findings, candidates=[], races=races)


def _barrier_message(c: StaticCandidate) -> str:
    what = "stores" if c.kind == "st" else "loads"
    return (
        f"{what} at [{c.x_index}] {c.x_loc} and [{c.y_index}] {c.y_loc} "
        f"may be observed out of order (no barrier/annotation/dependency "
        f"orders them)"
    )


def _race_message(race: RaceFinding) -> str:
    w, o = race.writer, race.other
    locks_w = ",".join(w.lockset) or "none"
    locks_o = ",".join(o.lockset) or "none"
    pairs = f" (+{race.pair_count - 1} more pairs)" if race.pair_count > 1 else ""
    return (
        f"{race.classification} on {race.location}: {w.kind} "
        f"{w.function}[{w.index}] vs {o.kind} {o.function}[{o.index}] "
        f"(locks {locks_w} vs {locks_o}){pairs}"
    )


def lint_program(
    program: Program,
    function_owner: Optional[Dict[str, str]] = None,
    subsystems: Optional[List[str]] = None,
    *,
    roots: Optional[Sequence[str]] = None,
    regions: Optional[Dict[str, Tuple[int, int]]] = None,
    races: bool = True,
) -> LintReport:
    """Run every KIRA check over ``program``.

    ``function_owner`` maps function name to owning subsystem (as built
    by :class:`~repro.kernel.kernel.KernelImage`); ``subsystems``
    restricts the report to those owners (functions with unknown owners
    are kept only when no restriction is given).  ``roots`` (syscall
    entry functions) and ``regions`` (named-global map) feed the
    interprocedural race engine; pass ``races=False`` to skip it (the
    intraprocedural checks alone, the v1 behaviour).
    """
    owner = function_owner or {}
    wanted = set(subsystems) if subsystems is not None else None

    def included(func_name: str) -> bool:
        if wanted is None:
            return True
        return owner.get(func_name) in wanted

    findings: List[Finding] = []

    for name, func in program.functions.items():
        if not included(name):
            continue
        for index, reg in undefined_reads(func):
            findings.append(
                Finding(
                    check="use-before-def",
                    kind=reg,
                    subsystem=owner.get(name, ""),
                    function=name,
                    index=index,
                    message=f"reads register %{reg} with no reaching definition",
                )
            )

    all_candidates = static_reordering_candidates(program)
    candidates = [c for c in all_candidates if included(c.function)]
    for c in candidates:
        findings.append(
            Finding(
                check="missing-barrier",
                kind=c.kind,
                subsystem=owner.get(c.function, ""),
                function=c.function,
                index=c.x_index,
                message=_barrier_message(c),
            )
        )

    for name, func in program.functions.items():
        if not included(name):
            continue
        for lf in check_lock_pairing(func):
            findings.append(
                Finding(
                    check="lock-pairing",
                    kind=lf.kind,
                    subsystem=owner.get(name, ""),
                    function=name,
                    index=lf.index,
                    message=f"{lf.kind} of lock {lf.lock}",
                )
            )

    race_findings: List[RaceFinding] = []
    if races:
        # The race engine is whole-program by nature (locksets and
        # witnesses cross function boundaries); the subsystem filter
        # applies to the *report*, not the analysis.
        report = analyze_races(
            program,
            owner=owner,
            roots=roots,
            regions=regions,
            candidates=all_candidates,
        )
        race_findings = [
            r for r in report.races() if included(r.writer.function)
        ]
        for race in race_findings:
            findings.append(
                Finding(
                    check="race-candidate",
                    kind=race.classification,
                    subsystem=race.subsystem,
                    function=race.writer.function,
                    index=race.writer.index,
                    message=_race_message(race),
                    details=race.to_dict(),
                )
            )

    return LintReport(
        findings=findings, candidates=candidates, races=race_findings
    )


def _witness_lines(race: RaceFinding) -> List[str]:
    lines = []
    for label, side in (("writer", race.writer), ("other", race.other)):
        path = " -> ".join(side.witness)
        locks = ", ".join(side.lockset) or "no locks"
        lines.append(
            f"      {label}: {path} @ [{side.index}] ({side.kind}, {locks})"
        )
    return lines


def render_report(report: LintReport, explain: bool = False) -> str:
    """Human-readable rendering, grouped by check.

    With ``explain``, race-candidate findings include their
    interprocedural witness: the syscall-entry call path to each side
    of the access pair and the locks held there.
    """
    if report.clean:
        return "lint: clean (0 findings)"
    lines: List[str] = []
    counts = report.counts()
    summary = ", ".join(f"{counts[c]} {c}" for c in CHECKS if counts[c])
    lines.append(f"lint: {len(report.findings)} findings ({summary})")
    for check in CHECKS:
        group = report.by_check(check)
        if not group:
            continue
        lines.append(f"\n{check} ({len(group)}):")
        for f in group:
            where = f"{f.subsystem}/" if f.subsystem else ""
            lines.append(f"  {where}{f.function}[{f.index}]: {f.message}")
            if explain and f.check == "race-candidate" and f.details:
                lines.extend(_witness_lines(RaceFinding.from_dict(f.details)))
    return "\n".join(lines)
