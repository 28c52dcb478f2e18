"""OZZ — the out-of-order concurrency bug fuzzer (paper §4)."""

from repro.fuzzer.corpus import Corpus
from repro.fuzzer.fuzzer import FuzzStats, OzzFuzzer, minimize_reproducer
from repro.fuzzer.generator import InputGenerator
from repro.fuzzer.hints import LD, ST, SchedulingHint, calculate_hints, filter_out
from repro.fuzzer.kcov import CoverageMap, KCov
from repro.fuzzer.minimize import MinimizeResult, minimize
from repro.fuzzer.mti import MTI, MTIResult, mtis_for_pair, run_mti
from repro.fuzzer.parallel import (
    ShardResult,
    campaign_pool,
    merge_shards,
    run_batch,
)
from repro.fuzzer.reproducer import Reproducer
from repro.fuzzer.sti import STI, Call, ResourceRef, STIResult, profile_sti
from repro.fuzzer.syzlang import Template, parse
from repro.fuzzer.templates import SYZLANG, seed_inputs, templates
from repro.fuzzer.triage import CrashDB, CrashRecord

__all__ = [
    "Call",
    "Corpus",
    "CoverageMap",
    "CrashDB",
    "CrashRecord",
    "FuzzStats",
    "InputGenerator",
    "KCov",
    "LD",
    "MTI",
    "MTIResult",
    "MinimizeResult",
    "OzzFuzzer",
    "Reproducer",
    "ResourceRef",
    "ST",
    "STI",
    "STIResult",
    "SYZLANG",
    "SchedulingHint",
    "ShardResult",
    "Template",
    "calculate_hints",
    "campaign_pool",
    "filter_out",
    "merge_shards",
    "minimize",
    "minimize_reproducer",
    "mtis_for_pair",
    "parse",
    "profile_sti",
    "run_batch",
    "run_mti",
    "seed_inputs",
    "templates",
]
