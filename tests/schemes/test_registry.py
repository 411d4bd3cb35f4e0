"""The scheme registry: lookup, construction, scheduler selection."""

import pytest

from repro.apta import AptaScheduler, AptaSystem
from repro.caching import DirectStorage, FaastSystem, OfcSystem
from repro.config import MB, SimConfig
from repro.core import ConcordSystem
from repro.faas import CasScheduler, LocalityScheduler
from repro.schemes import (
    UnknownSchemeError,
    build_scheme,
    build_scheme_map,
    make_scheduler,
    register_scheme,
    registered_schemes,
    scheme_spec,
)
from repro.session import Session

APPS = ("alpha", "beta")


@pytest.fixture
def session():
    # The tests build their schemes themselves, on a cluster and
    # coordination service that cache nothing yet.
    return Session.compose(config=SimConfig(num_nodes=4), seed=11,
                           scheme="nocache")


@pytest.fixture
def cluster(session):
    return session.cluster


@pytest.fixture
def coord(session):
    return session.coord


class TestLookup:
    def test_all_paper_schemes_registered(self):
        names = set(registered_schemes())
        assert {"nocache", "ofc", "faast", "concord", "concord-nocas",
                "concord-mem", "apta-az", "apta-mem"} <= names

    def test_unknown_scheme_lists_alternatives(self):
        with pytest.raises(UnknownSchemeError) as excinfo:
            scheme_spec("no-such-scheme")
        assert "concord" in str(excinfo.value)

    def test_unknown_scheme_error_is_value_error(self):
        assert issubclass(UnknownSchemeError, ValueError)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            register_scheme("concord")(lambda *a, **k: None)


class TestBuildScheme:
    def test_builds_each_scheme_type(self, cluster, coord):
        assert isinstance(
            build_scheme("nocache", cluster), DirectStorage)
        assert isinstance(
            build_scheme("ofc", cluster), OfcSystem)
        assert isinstance(
            build_scheme("faast", cluster, app="alpha"), FaastSystem)
        assert isinstance(
            build_scheme("concord", cluster, coord, app="alpha"),
            ConcordSystem)
        assert isinstance(
            build_scheme("apta-az", cluster, app="alpha"), AptaSystem)

    def test_concord_capacity_override(self, cluster, coord):
        system = build_scheme("concord", cluster, coord, app="a",
                              capacity=2 * MB)
        agent = next(iter(system.agents.values()))
        assert agent.cache.capacity_bytes == 2 * MB

    def test_concord_mem_prepare_builds_memory_tier(self, cluster, coord):
        system = build_scheme("concord-mem", cluster, coord, app="a")
        assert system.storage.name == "memtier"
        assert system.storage is not cluster.storage

    def test_extra_config_keys_ignored(self, cluster, coord):
        # The runner passes one flat config dict to whichever scheme is
        # selected; keys for other schemes must not break a builder.
        system = build_scheme("nocache", cluster, coord,
                              read_only_annotations=True,
                              ofc_shared_capacity=MB)
        assert isinstance(system, DirectStorage)

    def test_key_no_scheme_accepts_is_an_error(self, cluster, coord):
        # A typo used to fall through every builder's ``**_`` and run
        # with the default (E-state writes silently left on).
        with pytest.raises(TypeError, match="estate_write"):
            build_scheme("concord", cluster, coord, app="a",
                         estate_write=False)
        with pytest.raises(TypeError, match="shard"):
            build_scheme_map("concord", cluster, coord, APPS, shard=4)

    def test_session_rejects_misspelt_settings(self):
        from repro.session import Session

        with pytest.raises(TypeError, match="node"):
            Session(node=9, seed=1)


class TestBuildSchemeMap:
    def test_per_app_schemes_are_distinct(self, cluster, coord):
        schemes = build_scheme_map("concord", cluster, coord, APPS)
        assert set(schemes) == set(APPS)
        assert schemes["alpha"] is not schemes["beta"]
        assert schemes["alpha"].app == "alpha"

    def test_shared_scheme_is_one_instance(self, cluster, coord):
        schemes = build_scheme_map("ofc", cluster, coord, APPS)
        assert schemes["alpha"] is schemes["beta"]

    def test_prepare_runs_once_for_the_whole_map(self, cluster, coord):
        schemes = build_scheme_map("concord-mem", cluster, coord, APPS)
        assert schemes["alpha"].storage is schemes["beta"].storage


class TestMakeScheduler:
    def test_scheduler_kinds(self, cluster, coord):
        assert isinstance(make_scheduler("concord", {}), CasScheduler)
        assert isinstance(make_scheduler("concord-mem", {}), CasScheduler)
        assert isinstance(
            make_scheduler("concord-nocas", {}), LocalityScheduler)
        assert isinstance(make_scheduler("nocache", {}), LocalityScheduler)
        schemes = build_scheme_map("apta-az", cluster, coord, APPS)
        assert isinstance(make_scheduler("apta-az", schemes), AptaScheduler)


class TestCatalogue:
    def test_schemes_lists_the_catalogue(self, capsys):
        from repro.schemes.__main__ import main

        main()
        assert "concord" in capsys.readouterr().out
