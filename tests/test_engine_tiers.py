"""Unit tests for the engine selection and its counter telemetry.

Covers engine validation (exactly ``decoded`` and ``reference``), the
machine-level pinning rule (a deps tracker forces the reference
engine), and the engine / engine_counters round-trips through
:class:`KernelConfig`, :class:`CampaignSpec`, checkpoint shard payloads
and campaign JSON.
"""

import pytest

from repro.campaign_api import CampaignResult, CampaignSpec, run_campaign
from repro.config import ENGINES, KernelConfig, check_engine
from repro.errors import ConfigError
from repro.fuzzer.fuzzer import FuzzStats
from repro.fuzzer.kcov import CoverageMap
from repro.fuzzer.parallel import ShardResult, merge_shards
from repro.fuzzer.triage import CrashDB
from repro.kir import Builder, Program
from repro.machine import Machine
from repro.mem.memory import DATA_BASE
from repro.kir import decode
from repro.oemu.profiler import ENGINE_COUNTERS, EngineCounters


def _loop_program() -> Program:
    b = Builder("spin", params=["n"])
    i = b.mov(0)
    acc = b.mov(0)
    top = b.label()
    b.bind(top)
    b.store(DATA_BASE, 0, i)
    v = b.load(DATA_BASE, 0)
    b.add(acc, v, dst=acc)
    b.add(i, 1, dst=i)
    b.blt(i, b.reg("n"), top)
    b.ret(acc)
    return Program([b.function()])


class TestNormalization:
    def test_default_is_decoded(self):
        assert ENGINES == ("decoded", "reference")
        assert KernelConfig().engine == "decoded"
        assert CampaignSpec(iterations=1).engine == "decoded"
        assert Machine(_loop_program()).engine == "decoded"

    def test_unknown_engine_rejected(self):
        # "auto" was the default engine once; it gets no alias.
        for engine in ("turbo", "auto", None):
            with pytest.raises(ConfigError, match="unknown engine"):
                check_engine(engine)
        with pytest.raises(ConfigError, match="unknown engine"):
            Machine(_loop_program(), engine="auto")


class TestResolution:
    def test_pin_reference_overrides_requested(self):
        program = _loop_program()
        before = ENGINE_COUNTERS.snapshot()
        m = Machine(program, track_deps=True, engine="decoded")
        assert m.engine == "reference"
        assert m.interp.run(m.interp.spawn("spin", (5,))) == sum(range(5))
        # The reference op table closes over _execute: nothing decoded.
        delta = ENGINE_COUNTERS.diff(before)
        assert getattr(program, decode._CACHE_ATTR, None) is None
        assert delta["decode_cache_hits"] == 0
        assert delta["functions_bound"] == 1

    def test_deps_machine_pins_to_reference(self):
        """Dependency tracking only exists on the reference engine; a
        machine with a tracker must pin there whatever was asked for,
        and still compute the same results."""
        outcomes = {}
        for engine in ENGINES:
            m = Machine(_loop_program(), track_deps=True, engine=engine)
            assert m.interp.engine == "reference"
            thread = m.interp.spawn("spin", (50,))
            m.interp.run(thread)
            outcomes[engine] = thread.retval
        assert set(outcomes.values()) == {sum(range(50))}


class TestCounters:
    def test_diff_is_delta_over_baseline(self):
        c = EngineCounters()
        base = c.snapshot()
        c.boots += 2
        c.prefix_hits += 1
        delta = c.diff(base)
        assert delta["boots"] == 2
        assert delta["prefix_hits"] == 1
        assert delta["resets"] == 0
        c.reset()
        assert set(c.snapshot().values()) == {0}

    def test_merge_shards_sums_counter_deltas(self):
        def shard(k, counters):
            return ShardResult(
                shard=k, seed=1, iterations=1, stats=FuzzStats(),
                crashdb=CrashDB(), coverage=CoverageMap(), seconds=0.1,
                engine_counters=counters,
            )

        result = merge_shards(CampaignSpec(iterations=2), [
            shard(1, {"boots": 2, "prefix_hits": 3}),
            shard(0, {"boots": 1, "resets": 4}),
        ], seconds=0.2)
        assert result.engine_counters == {"boots": 3, "resets": 4, "prefix_hits": 3}


class TestConfigRoundTrip:
    def test_kernel_config_normalizes_engine(self):
        assert KernelConfig(engine="reference").engine == "reference"
        with pytest.raises(ConfigError, match="unknown engine"):
            KernelConfig(engine="turbo")

    def test_campaign_spec_normalizes_engine(self):
        assert CampaignSpec(iterations=1, engine="reference").engine == "reference"
        with pytest.raises(ConfigError, match="unknown engine"):
            CampaignSpec(iterations=1, engine="auto")

    def test_shard_result_counters_round_trip(self):
        shard = ShardResult(
            shard=0, seed=1, iterations=2, stats=FuzzStats(),
            crashdb=CrashDB(), coverage=CoverageMap(), seconds=0.1,
            engine_counters={"boots": 1, "prefix_hits": 3},
        )
        back = ShardResult.from_json_dict(shard.to_json_dict())
        assert back.engine_counters == {"boots": 1, "prefix_hits": 3}

    def test_shard_result_reads_legacy_payload(self):
        """Pre-tier checkpoints have no engine_counters key."""
        shard = ShardResult(
            shard=0, seed=1, iterations=2, stats=FuzzStats(),
            crashdb=CrashDB(), coverage=CoverageMap(), seconds=0.1,
        )
        payload = shard.to_json_dict()
        del payload["engine_counters"]
        assert ShardResult.from_json_dict(payload).engine_counters == {}

    def test_supervised_campaign_ships_worker_counters(self):
        """jobs>1 routes results through the worker-pool message queue;
        the wire payload must carry each batch's counter deltas."""
        spec = CampaignSpec(iterations=4, seed=3, engine="decoded", jobs=2)
        result = run_campaign(spec)
        assert result.engine_counters.get("boots", 0) > 0
        assert result.engine_counters.get("resets", 0) > 0

    def test_campaign_result_json_round_trip(self):
        spec = CampaignSpec(iterations=2, seed=5, engine="reference")
        result = run_campaign(spec)
        assert result.spec.engine == "reference"
        assert result.engine_counters.get("boots", 0) > 0
        back = CampaignResult.from_json(result.to_json())
        assert back.spec.engine == "reference"
        assert back.engine_counters == result.engine_counters
