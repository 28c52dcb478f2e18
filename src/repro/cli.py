"""Command-line interface: ``python -m repro <command>``.

Commands mirror the paper's evaluation:

========== ===========================================================
fuzz       run the OZZ campaign on the buggy kernel (§6.1 / Table 3)
serve      always-on campaign service with REST API + live dashboard
replay     deterministically replay a recorded crash artifact
table4     reproduce the previously-reported bugs (§6.2 / Table 4)
lmbench    measure OEMU instrumentation overhead (§6.3.1 / Table 5)
throughput OZZ vs the in-order baseline (§6.3.2)
litmus     validate OEMU against the LKMM (§3.3)
ofence     static paired-barrier comparison (§6.4)
lint       KIRA static analysis (barrier lint, locks, use-before-def)
bugs       list the seeded bug registry
docs       regenerate (or staleness-check) the generated docs
========== ===========================================================
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.errors import ReproError


def cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.campaign_api import CampaignSpec, resume_campaign, run_campaign
    from repro.config import KernelConfig
    from repro.fuzzer.fuzzer import minimize_reproducer
    from repro.kernel.kernel import KernelImage

    if args.resume:
        result = resume_campaign(args.resume)
        spec = result.spec
    else:
        spec = CampaignSpec(
            iterations=args.iterations,
            seed=args.seed,
            patched=tuple(args.patch or ()),
            jobs=args.jobs,
            batch_size=args.batch_size,
            shard_timeout=args.shard_timeout,
            max_retries=args.max_retries,
            static_hints=args.static_hints,
            engine=args.engine,
            snapshot_reset=not args.no_snapshot_reset,
            prefix_cache=not args.no_prefix_cache,
            checkpoint_dir=args.checkpoint_dir,
            checkpoint_every=args.checkpoint_every,
        )
        result = run_campaign(spec)
    print(result.summary())
    print(
        f"\n{result.stats.tests_run} tests in {result.seconds:.1f}s "
        f"({result.tests_per_sec:.1f} tests/s, jobs={spec.jobs}), "
        f"coverage {result.stats.coverage}"
    )
    if result.engine_counters:
        c = result.engine_counters
        print(
            f"engine {spec.engine}: {c.get('boots', 0)} boots, "
            f"{c.get('resets', 0)} resets"
        )
        print(
            f"prefix cache: {c.get('prefix_hits', 0)} hits, "
            f"{c.get('prefix_snapshots', 0)} snapshots, "
            f"{c.get('calls_skipped', 0)} calls skipped"
        )
    if spec.jobs > 1:
        for s in result.shards:
            print(f"  shard {s.shard}: seed {s.seed}, {s.tests_run} tests "
                  f"in {s.seconds:.1f}s")
    print(f"Table 3: {len(result.found_table3)}/11, "
          f"Table 4: {len(result.found_table4)}/9")
    for r in result.retries:
        print(f"  retry: shard {r.shard} attempt {r.attempt} "
              f"{r.reason} at iteration {r.iteration}")
    for f in result.failed_shards:
        print(f"  FAILED: shard {f.shard} abandoned after {f.attempts} "
              f"attempts ({f.reason})", file=sys.stderr)
    if result.interrupted and spec.checkpoint_dir:
        print(f"interrupted — resume with: "
              f"repro fuzz --resume {spec.checkpoint_dir}")
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(result.to_json())
        print(f"wrote {args.json}")
    if args.repro and result.crashdb is not None:
        image = KernelImage(KernelConfig(patched=frozenset(spec.patched)))
        for title in result.crashdb.unique_titles:
            mini = minimize_reproducer(image, result.crashdb, title)
            if mini is not None:
                print()
                print(mini.describe(image))
    if args.artifacts and result.crashdb is not None:
        _dump_artifacts(result.crashdb, spec.patched, args.artifacts)
    return 1 if result.failed_shards else 0


def _dump_artifacts(crashdb, patched, outdir: str) -> None:
    """Write each unique crash's schedule artifact as JSON under outdir."""
    from repro.trace.replayer import dump_artifacts

    for path in dump_artifacts(crashdb, patched, outdir):
        print(f"wrote {path}")


def cmd_replay(args: argparse.Namespace) -> int:
    from repro.trace.replayer import CrashArtifact, replay_artifact

    try:
        artifact = CrashArtifact.load(args.artifact)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"replaying: {artifact.title}")
    print(f"  {len(artifact.schedule.get('events', []))} recorded events, "
          f"oracle {artifact.oracle!r} at event {artifact.event_index}")
    verdict = replay_artifact(artifact)
    print(verdict.render())
    return 0 if verdict.ok else 1


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import CampaignService, ServeApp

    service = CampaignService(
        args.state_dir, max_concurrent=args.max_concurrent
    )
    requeued = service.recover()
    if requeued:
        print(f"recovered {len(requeued)} campaign(s): {', '.join(requeued)}")
    app = ServeApp(service)

    async def _main() -> None:
        server = await app.serve(args.host, args.port)
        addr = server.sockets[0].getsockname()
        print(
            f"repro serve listening on http://{addr[0]}:{addr[1]}/ "
            f"(state: {service.state_dir})",
            flush=True,
        )
        async with server:
            await server.serve_forever()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        print("\nshutting down: draining running campaigns to checkpoints…")
    finally:
        service.close()
    return 0


def cmd_table4(args: argparse.Namespace) -> int:
    from repro.bench.campaign import run_table4
    from repro.bench.tables import render_table
    from repro.kernel import bugs

    rows = []
    for r in run_table4():
        base = r.bug_id.split("+", 1)[0]
        spec = bugs.get(base)
        rows.append((r.bug_id, spec.subsystem, r.checkmark(),
                     r.n_tests if r.reproduced else "-", r.trigger_type or "-"))
    print(render_table("Table 4", ["ID", "Subsystem", "Repro?", "# tests", "Type"], rows))
    return 0


def cmd_lmbench(args: argparse.Namespace) -> int:
    from repro.bench.lmbench import run_lmbench
    from repro.bench.tables import render_table

    rows = run_lmbench(reps=args.reps)
    print(
        render_table(
            "Table 5: LMBench",
            ["Tests", "plain (us)", "w/ OEMU (us)", "Overhead"],
            [(r.name, f"{r.plain_us:.1f}", f"{r.oemu_us:.1f}", f"{r.overhead:.2f}x") for r in rows],
        )
    )
    return 0


def cmd_throughput(args: argparse.Namespace) -> int:
    import json

    from repro.bench.campaign import measure_throughput

    tp = measure_throughput(
        iterations=args.iterations, seed=args.seed, jobs=args.jobs
    )
    print(f"OZZ:      {tp.ozz_tests_per_sec:8.1f} tests/s (jobs={args.jobs})")
    print(f"baseline: {tp.baseline_tests_per_sec:8.1f} tests/s")
    print(f"OZZ is {tp.slowdown:.1f}x slower (paper: 7.9x) — and the baseline finds no OOO bugs")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(
                {
                    "jobs": args.jobs,
                    "iterations": args.iterations,
                    "seed": args.seed,
                    "ozz_tests_per_sec": tp.ozz_tests_per_sec,
                    "baseline_tests_per_sec": tp.baseline_tests_per_sec,
                    "slowdown": tp.slowdown,
                },
                fh,
                indent=2,
            )
        print(f"wrote {args.json}")
    return 0


def cmd_litmus(args: argparse.Namespace) -> int:
    from repro.litmus import check_suite, standard_suite

    verdicts = check_suite(standard_suite())
    for v in verdicts:
        print(v.render())
    return 0 if all(v.ok for v in verdicts) else 1


def cmd_ofence(args: argparse.Namespace) -> int:
    from repro.config import KernelConfig
    from repro.fuzzer.baselines import OFenceAnalyzer
    from repro.kernel import bugs
    from repro.kernel.kernel import KernelImage

    image = KernelImage(KernelConfig(instrumented=False))
    analyzer = OFenceAnalyzer(image.plain_program)
    detected = 0
    for spec in bugs.table3_bugs():
        verdict = analyzer.detects_bug(spec.bug_id, image)
        detected += verdict
        print(f"  Bug #{spec.number:<2d} {spec.subsystem:12s} "
              f"{'detectable' if verdict else 'hardly detectable'}")
    print(f"{11 - detected}/11 hardly detectable by OFence (paper: 8/11)")
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    import json

    from repro.analysis import lint_program, render_report
    from repro.config import KernelConfig
    from repro.kernel.kernel import KernelImage

    image = KernelImage(KernelConfig(instrumented=False))
    if args.subsystem:
        known = {s.name for s in image.subsystems}
        unknown = [s for s in args.subsystem if s not in known]
        if unknown:
            print(
                f"error: unknown subsystem(s): {', '.join(unknown)} "
                f"(known: {', '.join(sorted(known))})",
                file=sys.stderr,
            )
            return 2
    report = lint_program(
        image.plain_program,
        image.function_owner,
        subsystems=args.subsystem or None,
        roots=image.syscall_roots(),
        regions=image.global_regions(),
        races=not args.no_races,
    )
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report.to_json_dict(), fh, indent=2)
        print(f"wrote {args.json}")
    if args.format == "sarif":
        from repro.analysis import to_sarif

        print(json.dumps(to_sarif(report), indent=2))
    elif args.format == "json":
        print(json.dumps(report.to_json_dict(), indent=2))
    else:
        print(render_report(report, explain=args.explain))
    return 0 if report.clean else 1


def cmd_bugs(args: argparse.Namespace) -> int:
    from repro.kernel import bugs

    for spec in bugs.all_bugs():
        print(f"{spec.bug_id:22s} {spec.table}#{spec.number:<2d} {spec.reorder_type:4s} "
              f"{spec.subsystem:12s} {spec.title}")
    return 0


def cmd_docs(args: argparse.Namespace) -> int:
    from repro.docsgen import (
        check_cli_markdown,
        check_service_markdown,
        render_cli_markdown,
        write_service_markdown,
    )

    parser = build_parser()
    if args.check:
        errors = [
            e
            for e in (
                check_cli_markdown(parser, args.out),
                check_service_markdown(args.service_out),
            )
            if e is not None
        ]
        if errors:
            for e in errors:
                print(f"error: {e}", file=sys.stderr)
            return 1
        print(f"{args.out} and {args.service_out} are up to date")
        return 0
    with open(args.out, "w") as fh:
        fh.write(render_cli_markdown(parser))
    print(f"wrote {args.out}")
    write_service_markdown(args.service_out)
    print(f"updated generated REST reference in {args.service_out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    from repro.config import ENGINES

    parser = argparse.ArgumentParser(
        prog="repro",
        description="OZZ (SOSP 2024) reproduction: kernel OOO-bug fuzzing on a simulated kernel",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fuzz", help="run the OZZ campaign (Table 3)")
    p.add_argument("--iterations", type=int, default=40)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--patch", action="append", help="bug id to patch (repeatable)")
    p.add_argument("--jobs", type=int, default=1,
                   help="persistent worker processes pulling batches from "
                        "the campaign work queue")
    p.add_argument(
        "--batch-size", type=int, default=None, metavar="N",
        help="iterations per work-queue batch (default: one batch per "
             "job; an explicit size makes results independent of --jobs)",
    )
    p.add_argument("--json", metavar="PATH",
                   help="write the CampaignResult as JSON to PATH")
    p.add_argument(
        "--repro", action="store_true",
        help="print a minimized reproducer per unique crash",
    )
    p.add_argument(
        "--static-hints", action="store_true",
        help="seed/prioritize scheduling hints from the static barrier lint",
    )
    p.add_argument(
        "--artifacts", metavar="DIR",
        help="write a replayable schedule artifact per unique crash to DIR",
    )
    p.add_argument(
        "--engine", choices=ENGINES, default="decoded",
        help="execution engine: 'decoded' (pre-decoded closures; "
             "default) or 'reference' (the isinstance-chain interpreter "
             "the differential tests compare against)",
    )
    p.add_argument(
        "--no-snapshot-reset", action="store_true",
        help="boot a fresh kernel per test instead of reusing one via "
             "the boot snapshot",
    )
    p.add_argument(
        "--no-prefix-cache", action="store_true",
        help="re-execute each MTI's sequential prefix instead of "
             "restoring a cached prefix snapshot (results are identical "
             "either way; implied by --no-snapshot-reset)",
    )
    p.add_argument(
        "--shard-timeout", type=float, metavar="SECONDS",
        help="kill and deterministically retry a worker that goes this "
             "long without a heartbeat (routes the run through the "
             "campaign supervisor)",
    )
    p.add_argument(
        "--max-retries", type=int, default=2, metavar="N",
        help="restarts per shard before it is abandoned and reported as "
             "failed (surviving shards still merge)",
    )
    p.add_argument(
        "--checkpoint-dir", metavar="DIR",
        help="periodically checkpoint merged campaign state to DIR so an "
             "interrupted run can be continued with --resume",
    )
    p.add_argument(
        "--checkpoint-every", type=int, default=10, metavar="N",
        help="iterations between partial-state checkpoints per shard",
    )
    p.add_argument(
        "--resume", metavar="DIR",
        help="continue a campaign from a checkpoint directory (campaign "
             "shape comes from the checkpoint; other flags above are "
             "ignored)",
    )
    p.set_defaults(fn=cmd_fuzz)

    p = sub.add_parser(
        "serve",
        help="run the always-on campaign service (REST API + dashboard)",
        description="Start an asyncio HTTP daemon that runs campaigns "
        "continuously on the persistent worker pool: submit/pause/resume/"
        "cancel campaigns over REST, stream worker heartbeats as "
        "server-sent events, browse merged crash/coverage stats, and "
        "step through replayed crash artifacts in the dashboard's crash "
        "explorer. Campaigns checkpoint into the state directory, so a "
        "killed daemon resumes every in-flight campaign on restart. "
        "See docs/service.md.",
    )
    p.add_argument("--host", default="127.0.0.1",
                   help="interface to bind")
    p.add_argument("--port", type=int, default=8433,
                   help="TCP port to listen on")
    p.add_argument("--state-dir", metavar="DIR", default="serve-state",
                   help="registry + per-campaign checkpoints/artifacts "
                        "(created if missing; reusing it resumes campaigns)")
    p.add_argument("--max-concurrent", type=int, default=2, metavar="N",
                   help="campaigns allowed to run simultaneously; the "
                        "rest queue")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "replay",
        help="deterministically replay a recorded crash artifact",
        description="Re-drive the hypothetical-barrier executor from a "
        "crash artifact recorded by `repro fuzz --artifacts` and verify "
        "the same oracle fires with the same reordered accesses and the "
        "same event schedule, byte-for-byte. Exit 0 = reproduced, "
        "1 = diverged, 2 = bad artifact.",
    )
    p.add_argument("artifact", help="path to a crash-artifact JSON file")
    p.set_defaults(fn=cmd_replay)

    p = sub.add_parser("table4", help="reproduce known bugs (Table 4)")
    p.set_defaults(fn=cmd_table4)

    p = sub.add_parser("lmbench", help="instrumentation overhead (Table 5)")
    p.add_argument("--reps", type=int, default=30)
    p.set_defaults(fn=cmd_lmbench)

    p = sub.add_parser("throughput", help="OZZ vs baseline tests/s")
    p.add_argument("--iterations", type=int, default=21)
    p.add_argument("--seed", type=int, default=3)
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for the OZZ side")
    p.add_argument("--json", metavar="PATH",
                   help="write the throughput numbers as JSON to PATH")
    p.set_defaults(fn=cmd_throughput)

    p = sub.add_parser("litmus", help="LKMM-compliance litmus suite")
    p.set_defaults(fn=cmd_litmus)

    p = sub.add_parser("ofence", help="OFence static comparison")
    p.set_defaults(fn=cmd_ofence)

    p = sub.add_parser(
        "lint",
        help="KIRA static analysis over the built-in kernel",
        description="Run the KIRA static checks (missing-barrier "
        "candidates, lock pairing, use-before-def, interprocedural "
        "race candidates) over the built-in kernel. Exit code 0 = "
        "clean, 1 = findings, 2 = usage error.",
    )
    p.add_argument(
        "--subsystem", action="append", metavar="NAME",
        help="restrict the report to one subsystem (repeatable)",
    )
    p.add_argument("--json", metavar="PATH",
                   help="write the lint report as JSON to PATH")
    p.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="stdout format: human-readable text (default), the JSON "
        "report schema, or SARIF 2.1.0 for code-scanning UIs",
    )
    p.add_argument(
        "--explain", action="store_true",
        help="show the interprocedural witness (call path + locks "
        "held) under each race-candidate finding",
    )
    p.add_argument(
        "--no-races", action="store_true",
        help="skip the interprocedural race engine (v1 checks only)",
    )
    p.set_defaults(fn=cmd_lint)

    p = sub.add_parser("bugs", help="list the seeded bug registry")
    p.set_defaults(fn=cmd_bugs)

    p = sub.add_parser(
        "docs",
        help="regenerate the generated docs (CLI + REST references)",
        description="Render docs/cli.md from the live argparse tree and "
        "the REST API reference section of docs/service.md from the "
        "service route table, both as deterministic markdown. CI runs "
        "`repro docs --check` so the committed files can never drift "
        "from the code. Exit 0 = written / up-to-date, 1 = stale.",
    )
    p.add_argument("--out", metavar="PATH", default="docs/cli.md",
                   help="output path for the generated CLI markdown")
    p.add_argument("--service-out", metavar="PATH", default="docs/service.md",
                   help="service doc whose generated REST section is "
                        "rewritten in place (markers delimit it)")
    p.add_argument("--check", action="store_true",
                   help="don't write; exit 1 if either file is stale or "
                        "missing")
    p.set_defaults(fn=cmd_docs)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
