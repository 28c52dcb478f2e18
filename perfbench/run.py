"""Campaign benchmark: the repository's one end-to-end benchmark command.

Run from the repository root::

    python3 perfbench/run.py --workload serial-typical --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with only thin probes on;
``--trace 1`` runs every campaign once untraced and once with every span
probe on, and prints the per-layer metrics, the tracing overhead and the
self-time accounting check.  ``--ablation`` reruns a serial workload
under the layer arms of :data:`ablation.ARMS`.  ``--regen-expected``
rewrites the stored campaign outcomes.  The last line of standard
output is always one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is non-zero
whenever ``correct`` is false.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".bench_tmp")
SPANS_DIR = os.path.join(ROOT, ".bench_out")

#: Fresh-process set-up runs per benchmark run (``setup_s`` is their median).
SETUP_REPEATS = 5
#: Calibration samples taken before each campaign and set-up process.
CALIBRATION_SAMPLES = 3
#: Iterations of the untimed warm-up campaign.
WARMUP_ITERATIONS = 50
#: Largest tolerated gap in the self-time accounting check.
ACCOUNTING_TOLERANCE = 0.05

# What one fresh process pays before its first test: importing the
# package and building the campaign's kernel image and booted pool.
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import repro
from repro.campaign_api import CampaignSpec
from repro.fuzzer.parallel import campaign_pool
image, pool = campaign_pool(CampaignSpec())
pool.acquire()
print(time.perf_counter() - t0)
"""

clock = time.perf_counter


@dataclass
class CampaignRun:
    """One ``run_campaign`` call as the benchmark saw it."""

    seed: int
    start: float
    wall: float
    tests: int
    time_to_bugs: Optional[float]
    latency_ms: List[float]
    failures: List[str]
    result: object
    obs: object
    worker_intervals: List[tuple] = field(default_factory=list)


def fail(message: str, code: int = 2) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def measure_setup() -> Tuple[List[float], float]:
    """``setup_s`` samples, each from a fresh interpreter.

    Returns the raw samples and the host speed factor from calibration
    samples taken between them.
    """
    from calibrate import Calibration

    calibration = Calibration()
    samples = []
    for _ in range(SETUP_REPEATS):
        calibration.take(CALIBRATION_SAMPLES)
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, SRC],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            fail(f"set-up process failed:\n{proc.stderr.strip()}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    calibration.take(CALIBRATION_SAMPLES)
    return samples, calibration.wall_factor


def run_one(workload, seed: int, probes, expected: dict) -> CampaignRun:
    """Run one campaign of ``workload`` under ``probes`` and gate it."""
    from repro.campaign_api import run_campaign

    from workloads import CampaignObs

    probes.reset_campaign()
    probes.campaign_seed = seed
    scratch = tempfile.mkdtemp(dir=SCRATCH) if workload.pooled else None
    try:
        if scratch is not None:
            probes.spool = os.path.join(scratch, "spool")
            os.mkdir(probes.spool)
        spec = workload.spec(
            seed, os.path.join(scratch, "checkpoint") if scratch else None
        )
        call = run_campaign
        if probes.tracer is not None:
            call = probes.tracer.wrap("campaign", run_campaign)
        start = clock()
        result = call(spec)
        wall = clock() - start
        latency, first_found = probes.latency_ms, dict(probes.first_found)
        fuel = probes.fuel_exhausted
        intervals = []
        for batch in probes.worker_batches():
            latency.extend(batch["latency_ms"])
            fuel += batch["fuel_exhausted"]
            intervals.append((batch["start"], batch["end"]))
            for bug, stamp in batch["first_found"].items():
                first_found[bug] = min(stamp, first_found.get(bug, stamp))
    finally:
        probes.spool = None
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)

    from outcome import campaign_failures

    failures = campaign_failures(result, expected[seed])
    obs = CampaignObs(
        fuel_exhausted=fuel,
        checkpoints=probes.checkpoints,
        prefix_hits=result.engine_counters.get("prefix_hits", 0),
    )
    broken = workload.check(obs)
    if broken is not None:
        failures.append(f"workload property: {broken}")
    missing = [b for b in result.found_bug_ids if b not in first_found]
    if missing:
        failures.append(f"no CrashDB.add seen for found bugs {missing}")
    found = [first_found[b] - start for b in result.found_bug_ids if b in first_found]
    return CampaignRun(
        seed=seed,
        start=start,
        wall=wall,
        tests=result.stats.tests_run,
        time_to_bugs=max(found) if found else None,
        latency_ms=latency,
        failures=failures,
        result=result,
        obs=obs,
        worker_intervals=intervals,
    )


def warm_up(workload, seed: int) -> None:
    """Fill lazy imports and process-wide caches before timing."""
    from repro.campaign_api import CampaignSpec, run_campaign

    run_campaign(CampaignSpec(iterations=WARMUP_ITERATIONS, seed=seed))


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# -- reporting -------------------------------------------------------------


def describe(samples: List[float], unit: str) -> str:
    """Median, the tail percentile the sample count supports, and n."""
    from spans import tail_percentile

    if not samples:
        return "no samples"
    pct, value, n = tail_percentile(samples)
    tail = f", p{pct} {value:.4g} {unit}" if pct is not None and pct != "50" else ""
    return f"median {statistics.median(samples):.4g} {unit}{tail}, n={n}"


def emit(correct: bool, attempted: int, failed: int, metrics: Dict[str, tuple]) -> None:
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )


def print_failures(runs: List[CampaignRun]) -> int:
    failed = 0
    for run in runs:
        if run.failures:
            failed += 1
            print(f"  FAILED campaign seed {run.seed}: {'; '.join(run.failures)}")
    return failed


# -- modes ---------------------------------------------------------------------


def end_to_end(workload, order: List[int], expected: dict, seconds: float) -> int:
    from calibrate import Calibration
    from probes import Probes
    from spans import nearest_rank

    setup, setup_factor = measure_setup()
    calibration = Calibration()
    warm_up(workload, order[0])
    probes = Probes(traced=False, pooled=workload.pooled)
    runs: List[CampaignRun] = []
    passes = 0
    start = clock()
    with probes.installed():
        while passes == 0 or clock() - start < seconds:
            for seed in order:
                calibration.take(CALIBRATION_SAMPLES)
                runs.append(run_one(workload, seed, probes, expected))
            passes += 1
    calibration.take(CALIBRATION_SAMPLES)

    latency = sorted(ms for run in runs for ms in run.latency_ms)
    all_ttb = [run.time_to_bugs for run in runs if run.time_to_bugs is not None]
    # Each campaign counts with its median over the run's passes, so a
    # pass that the host stalled does not move the figure.
    by_seed: Dict[int, List[CampaignRun]] = {}
    for run in runs:
        by_seed.setdefault(run.seed, []).append(run)
    tests = sum(group[0].tests for group in by_seed.values())
    wall = sum(statistics.median(r.wall for r in group) for group in by_seed.values())
    ttb = [
        statistics.median(r.time_to_bugs for r in group)
        for group in by_seed.values()
        if all(r.time_to_bugs is not None for r in group)
    ]
    failed = print_failures(runs)
    correct = failed == 0 and bool(latency) and len(ttb) == len(by_seed)
    factor, cpu_factor = calibration.wall_factor, calibration.cpu_factor
    # name -> (raw value, unit, host speed factor, samples behind it)
    raw = {
        "tests_per_s": (
            tests / wall, "1/s", factor,
            f"{tests} tests per pass in {wall:.3f} s (median campaign times)",
        ),
        "time_to_bugs_s": (
            statistics.fmean(ttb) if ttb else 0.0, "s", factor,
            f"mean of per-campaign medians; all: {describe(all_ttb, 's')}",
        ),
        "test_p50_ms": (
            nearest_rank(latency, "50") if latency else 0.0, "ms", cpu_factor,
            f"CPU time per test; {describe(latency, 'ms')}",
        ),
        "test_p99_ms": (
            nearest_rank(latency, "99") if latency else 0.0, "ms", cpu_factor,
            "same samples",
        ),
        "setup_s": (statistics.median(setup), "s", setup_factor, describe(setup, "s")),
        "peak_rss_mb": (peak_rss_mb(), "MB", None, "this process plus its largest child"),
    }
    # Times scale with the host speed factor, rates inversely.
    metrics = {
        name: (value if f is None else value / f if unit == "1/s" else value * f, unit)
        for name, (value, unit, f, _) in raw.items()
    }
    print(
        f"workload {workload.name}: {len(runs)} campaigns in {passes} passes, "
        f"failed_frac {failed / len(runs):.4g} ({failed}/{len(runs)})"
    )
    print(
        f"  host speed factor: wall {factor:.4f}, CPU {cpu_factor:.4f}, set-up "
        f"{setup_factor:.4f}; reported = raw at reference host speed"
    )
    print(f"  {'metric':<15} {'reported':>10}  {'raw':>10}  unit  samples")
    for name, (value, unit, _, samples) in raw.items():
        print(f"  {name:<15} {metrics[name][0]:>10.5g}  {value:>10.5g}  {unit:<4}  {samples}")
    emit(correct, len(runs), failed, metrics)
    return 0 if correct else 1


def traced(workload, order: List[int], expected: dict, seconds: float, spans_out: str) -> int:
    from layers import accounting, layer_metrics
    from probes import Probes

    warm_up(workload, order[0])
    plain = Probes(traced=False, pooled=workload.pooled)
    probes = Probes(traced=True, pooled=workload.pooled)
    plain_runs: List[CampaignRun] = []
    runs: List[CampaignRun] = []
    passes = 0
    start = clock()
    while passes == 0 or clock() - start < seconds:
        for seed in order:
            with plain.installed():
                plain_runs.append(run_one(workload, seed, plain, expected))
            with probes.installed():
                runs.append(run_one(workload, seed, probes, expected))
        passes += 1

    failed = print_failures(plain_runs + runs)
    metrics = layer_metrics(workload, runs, probes, passes)
    plain_rate = sum(r.tests for r in plain_runs) / sum(r.wall for r in plain_runs)
    traced_rate = metrics["trace.tests_per_s"][0]
    metrics["trace.untraced_tests_per_s"] = (plain_rate, "1/s")
    metrics["trace.overhead"] = (plain_rate / traced_rate - 1.0, "ratio")
    checks = accounting(workload, runs, probes, passes)
    for name, (value, unit) in checks.items():
        metrics[name] = (value, unit)
    problems = [
        f"{name} = {value:.4f}"
        for name, (value, _) in checks.items()
        if name.endswith("_cover") and abs(1.0 - value) > ACCOUNTING_TOLERANCE
    ]

    print(
        f"workload {workload.name} (traced): {len(runs)} traced + {len(plain_runs)} "
        f"untraced campaigns in {passes} passes; per-layer values are per pass"
    )
    width = max(map(len, metrics))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<{width}}  {value:.6g} {unit}")
    print(
        f"  tracing overhead: {metrics['trace.overhead'][0]:+.1%} "
        f"({traced_rate:.5g} traced vs {plain_rate:.5g} untraced tests/s)"
    )
    for problem in problems:
        print(f"  FAILED accounting check: {problem} (tolerance {ACCOUNTING_TOLERANCE:.0%})")
    write_spans(spans_out, probes.tracer.spans)
    print(f"  spans: {len(probes.tracer.spans)} written to {spans_out}")
    correct = failed == 0 and not problems
    emit(correct, len(runs) + len(plain_runs), failed, metrics)
    return 0 if correct else 1


def write_spans(path: str, spans: List[list]) -> None:
    """Gzipped columnar dump: span names once, then one row per span."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    names = sorted({row[0] for row in spans})
    index = {name: i for i, name in enumerate(names)}
    payload = {
        "columns": ["name", "start", "end", "parent", "ident"],
        "names": names,
        "rows": [[index[n], s, e, p, i] for n, s, e, p, i in spans],
    }
    with gzip.open(path, "wt") as fh:
        json.dump(payload, fh)


def main(argv: Optional[List[str]] = None) -> int:
    from workloads import SEED_SETS, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="fixes the order the campaign list is visited in")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measure at least this long (whole passes over the list)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seed-set", choices=SEED_SETS, default="main")
    parser.add_argument("--ablation", action="store_true",
                        help="rerun a serial workload under each layer arm")
    parser.add_argument("--regen-expected", action="store_true",
                        help="rerun every campaign and rewrite expected.json")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if not args.regen_expected and args.workload is None:
        parser.error("--workload is required")

    sys.path.insert(0, SRC)
    try:
        import repro
    except ImportError as exc:
        fail(f"cannot import the repro package from {SRC}: {exc}")
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        fail(f"imported repro from {repro.__file__}, not from this checkout's {SRC}")

    from outcome import load_expected, regenerate

    if args.regen_expected:
        regenerate(WORKLOADS.values(), SEED_SETS)
        return 0
    workload = WORKLOADS[args.workload]
    try:
        expected = load_expected(workload, args.seed_set)
    except (OSError, ValueError, KeyError) as exc:
        fail(str(exc))
    order = workload.campaign_seeds(args.seed, args.seed_set)
    os.makedirs(SCRATCH, exist_ok=True)
    try:
        if args.ablation:
            from ablation import ablation

            if workload.pooled:
                fail("--ablation runs the in-process workloads only")
            attempted, failed, metrics = ablation(workload, order, expected, args.seconds)
            emit(failed == 0, attempted, failed, metrics)
            return 0 if failed == 0 else 1
        if args.trace:
            spans_out = os.path.join(
                SPANS_DIR, f"spans-{workload.name}-seed{args.seed}.json.gz"
            )
            return traced(workload, order, expected, args.seconds, spans_out)
        return end_to_end(workload, order, expected, args.seconds)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
