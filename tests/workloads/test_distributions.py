"""Tests for workload distributions and application profiles."""

import hashlib
import random
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import KB
from repro.workloads import ALL_PROFILES, SizeSampler, ZipfSampler, build_app
from repro.workloads.distributions import is_read_only
from repro.workloads.profiles import (
    entity_inputs_factory,
    entity_key,
    global_key,
    handoff_key,
    preload_storage,
)


class _FakeContext:
    """Just what a workload handler touches; records each operation."""

    def __init__(self, entity: int):
        self.inputs = {"entity": entity}
        self.invocation_id = 1
        self.ops = []
        rng = random.Random(5)
        self.sim = SimpleNamespace(
            rng=SimpleNamespace(stream=lambda name: rng))

    def read(self, key):
        self.ops.append(("read", key))
        yield from ()

    def write(self, key, value):
        self.ops.append(("write", key, value.size_bytes))
        yield from ()

    def compute(self, ms):
        self.ops.append(("compute", ms))
        yield from ()


def _drive(handler, entity: int) -> list:
    ctx = _FakeContext(entity)
    for _ in handler(ctx):
        pass
    return ctx.ops


class TestZipf:
    def test_validation(self):
        with pytest.raises(ValueError):
            ZipfSampler(0)
        with pytest.raises(ValueError):
            ZipfSampler(10, alpha=-1)

    def test_samples_in_range(self):
        sampler = ZipfSampler(50, alpha=1.0)
        rng = random.Random(1)
        assert all(0 <= sampler.sample(rng) < 50 for _ in range(500))

    def test_skew_prefers_low_ranks(self):
        sampler = ZipfSampler(100, alpha=1.2)
        rng = random.Random(2)
        samples = [sampler.sample(rng) for _ in range(2000)]
        head = sum(1 for s in samples if s < 10)
        assert head > len(samples) * 0.5

    def test_alpha_zero_is_uniform(self):
        sampler = ZipfSampler(10, alpha=0.0)
        assert sampler.probability(0) == pytest.approx(0.1, abs=1e-9)
        assert sampler.probability(9) == pytest.approx(0.1, abs=1e-9)

    def test_probabilities_sum_to_one(self):
        sampler = ZipfSampler(20, alpha=1.5)
        total = sum(sampler.probability(r) for r in range(20))
        assert total == pytest.approx(1.0)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 200), alpha=st.floats(0.0, 3.0),
           seed=st.integers(0, 10_000))
    def test_sample_always_valid_property(self, n, alpha, seed):
        sampler = ZipfSampler(n, alpha)
        rng = random.Random(seed)
        for _ in range(20):
            assert 0 <= sampler.sample(rng) < n


class TestSizes:
    def test_sizes_are_deterministic_per_key(self):
        sampler = SizeSampler()
        assert sampler.size_of("k1") == sampler.size_of("k1")

    def test_majority_of_items_at_most_12kb(self):
        """The paper's headline statistic: 80% of items are <= 12 KB."""
        sampler = SizeSampler()
        sizes = [sampler.size_of(f"key-{i}") for i in range(3000)]
        small = sum(1 for s in sizes if s <= 12 * KB)
        assert 0.72 <= small / len(sizes) <= 0.88

    def test_scale_multiplies_sizes(self):
        base = SizeSampler()
        scaled = SizeSampler(scale=16.0)
        assert scaled.size_of("k") == base.size_of("k") * 16

    def test_read_only_fraction(self):
        keys = [f"key-{i}" for i in range(5000)]
        fraction = sum(1 for k in keys if is_read_only(k)) / len(keys)
        assert 0.03 <= fraction <= 0.07


class TestProfiles:
    def test_all_seven_apps_present(self):
        assert set(ALL_PROFILES) == {
            "TrainT", "eShop", "ImgProc", "VidProc",
            "HotelBook", "MediaServ", "SocNet",
        }

    def test_build_app_has_workflow(self):
        spec = build_app(ALL_PROFILES["SocNet"])
        assert len(spec.workflow) == 5
        assert all(spec.function(name) for name in spec.workflow)

    def test_out_of_profile_entities_replay_an_in_profile_build(self):
        """Every stage of an app, handed entity ids past the profile (in
        a shuffled order, so one stage extends the app's shared rows
        before another needs them), issues exactly the operations the
        same stage of an app whose profile covers those ids issues."""
        profile = replace(ALL_PROFILES["SocNet"], entities=3)
        wider = replace(profile, entities=12)
        entities = [7, 3, 11, 0, 9, 4]
        narrow_spec, wide_spec = build_app(profile), build_app(wider)
        for stage, name in enumerate(narrow_spec.workflow):
            for entity in entities:
                ops = [_drive(spec.function(name).handler, entity)
                       for spec in (narrow_spec, wide_spec)]
                assert ops[0] == ops[1]
                if stage > 0:
                    assert ops[0][0] == ("read", handoff_key(
                        profile.name, entity, stage - 1))
        with pytest.raises(ValueError):
            _drive(narrow_spec.function(narrow_spec.workflow[0]).handler, -1)

    def test_key_namespaces_are_distinct(self):
        assert entity_key("A", 1, 2) != entity_key("B", 1, 2)
        assert handoff_key("A", 1, 0) != entity_key("A", 1, 0)
        assert global_key("A", 3).startswith("A:")

    def test_preload_covers_working_set(self):
        from repro.sim import Simulator
        from repro.storage import GlobalStorage

        sim = Simulator()
        storage = GlobalStorage(sim)
        profile = ALL_PROFILES["TrainT"]
        count = preload_storage(storage, profile)
        assert count == profile.entities * profile.items_per_entity + profile.global_items
        assert storage.peek(entity_key("TrainT", 0, 0)) is not None

    def test_wiring_an_app_hashes_each_key_once(self):
        """``build_app`` and ``preload_storage`` share one size memo per
        size scale, so wiring an app md5s each key once (sizes and
        read-only flags), not once per builder."""
        from repro.sim import Simulator
        from repro.storage import GlobalStorage

        # A name no other test uses: none of its keys is memoized yet.
        profile = replace(ALL_PROFILES["ImgProc"], name="HashedOnce")
        hashed = Counter()
        md5 = hashlib.md5

        def counting_md5(data, *args, **kwargs):
            hashed[data] += 1
            return md5(data, *args, **kwargs)

        with mock.patch("hashlib.md5", counting_md5):
            build_app(profile)
            count = preload_storage(GlobalStorage(Simulator()), profile)
        handoffs = profile.entities * (profile.functions - 1)
        assert len(hashed) == 2 * count + handoffs  # size + read-only flag
        assert set(hashed.values()) == {1}

    def test_inputs_factory_draws_zipf_entities(self):
        from repro.sim import Simulator

        sim = Simulator(seed=3)
        factory = entity_inputs_factory(ALL_PROFILES["SocNet"], sim)
        entities = [factory(i)["entity"] for i in range(300)]
        assert all(0 <= e < 100 for e in entities)
        # Strong skew: the hottest entity dominates.
        assert entities.count(0) > 30


class TestEndToEndWorkload:
    def test_app_runs_on_platform_with_concord(self):
        from repro.cluster import Cluster
        from repro.config import SimConfig
        from repro.core import ConcordSystem
        from repro.faas import CasScheduler, FaasPlatform
        from repro.sim import Simulator

        sim = Simulator(seed=17)
        cluster = Cluster(sim, SimConfig(num_nodes=4))
        concord = ConcordSystem(cluster, app="TrainT")
        profile = ALL_PROFILES["TrainT"]
        preload_storage(cluster.storage, profile)
        platform = FaasPlatform(cluster, scheduler=CasScheduler())
        app = platform.deploy(build_app(profile), concord)

        factory = entity_inputs_factory(profile, sim)
        for index in range(10):
            sim.run_until_complete(
                sim.spawn(platform.request("TrainT", factory(index))),
                limit=sim.now + 600_000.0,
            )
        assert app.requests_completed == 10
        assert app.latency.count == 10
        # Repeated requests on hot entities hit the local caches.
        assert concord.stats.reads > 0
        mix = concord.stats.read_mix()
        assert mix["local_hit"] > 0.2
