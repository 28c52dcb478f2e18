"""Benchmark drivers regenerating the paper's tables and figures."""

from repro.bench.campaign import (
    KcsanVerdict,
    ReproResult,
    Table3CampaignResult,
    ThroughputResult,
    heuristic_ablation,
    kcsan_comparison,
    measure_throughput,
    reproduce_bug,
    run_table3_campaign,
    run_table4,
    sti_for_bug,
)
from repro.bench.lmbench import WORKLOADS, LmbenchRow, Workload, run_lmbench
from repro.bench.tables import fmt_ratio, fmt_us, render_table

__all__ = [
    "KcsanVerdict",
    "LmbenchRow",
    "ReproResult",
    "Table3CampaignResult",
    "ThroughputResult",
    "WORKLOADS",
    "Workload",
    "fmt_ratio",
    "fmt_us",
    "heuristic_ablation",
    "kcsan_comparison",
    "measure_throughput",
    "render_table",
    "reproduce_bug",
    "run_lmbench",
    "run_table3_campaign",
    "run_table4",
    "sti_for_bug",
]
