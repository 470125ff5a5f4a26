"""Tests for the dataset registry: spec resolution, caching, custom datasets."""

import pytest

from repro.api import DatasetRegistry, GradingService, default_registry
from repro.catalog.instance import DatabaseInstance
from repro.datagen import toy_university_instance, university_schema
from repro.errors import ReproError


@pytest.fixture()
def registry():
    return DatasetRegistry()


class TestResolution:
    def test_builtin_specs_resolve(self, registry):
        handle = registry.resolve("toy-university")
        assert handle.instance.total_size() == 11
        assert handle.session.instance is handle.instance
        assert registry.resolve("university:20", seed=1).instance.total_size() > 0

    def test_resolve_caches_handles(self, registry):
        first = registry.resolve("university:20", seed=1)
        again = registry.resolve("university:20", seed=1)
        assert again is first

    def test_distinct_specs_and_seeds_get_distinct_handles(self, registry):
        base = registry.resolve("university:20", seed=1)
        assert registry.resolve("university:30", seed=1) is not base
        assert registry.resolve("university:20", seed=2) is not base

    def test_services_on_one_registry_share_one_instance(self, registry):
        # An edit made through one service is graded on by the other.
        editor = GradingService(registry, default_dataset="toy-university")
        grader = GradingService(registry, default_dataset="toy-university")
        assert editor.handle_for().instance is grader.handle_for().instance
        reference = "\\project_{name} Student"
        submission = "\\project_{name} \\select_{name != 'Zoe'} Student"
        assert grader.check(reference, submission).correct
        editor.mutate(
            {"operations": [{"op": "insert", "relation": "Student", "values": ["Zoe", "ART"]}]}
        )
        assert not grader.check(reference, submission).correct

    def test_build_returns_fresh_instances(self, registry):
        first = registry.build("university:20", seed=1)
        second = registry.build("university:20", seed=1)
        assert first is not second
        assert first.total_size() == second.total_size()

    def test_unknown_spec_raises_with_known_names(self, registry):
        with pytest.raises(ReproError, match="university"):
            registry.resolve("mystery:3")
        with pytest.raises(ReproError):
            registry.build("mystery")


class TestRegistration:
    def test_register_instance_resolves_shared(self, registry):
        instance = toy_university_instance()
        registry.register_instance("hidden", instance)
        assert registry.resolve("hidden").instance is instance
        assert registry.build("hidden") is instance

    def test_register_builder_receives_argument_and_seed(self, registry):
        seen = []

        def build(argument, seed):
            seen.append((argument, seed))
            return DatabaseInstance(university_schema())

        registry.register_builder("custom", build)
        registry.resolve("custom:abc", seed=9)
        assert seen == [("abc", 9)]

    def test_reregistering_invalidates_cached_handles(self, registry):
        registry.register_instance("hidden", toy_university_instance())
        old = registry.resolve("hidden")
        replacement = toy_university_instance()
        registry.register_instance("hidden", replacement)
        assert registry.resolve("hidden").instance is replacement
        assert registry.resolve("hidden") is not old

    def test_known_datasets_lists_builtins(self, registry):
        names = registry.known_datasets()
        assert "university" in names and "tpch" in names

    def test_instance_backed_datasets_ignore_seed_and_argument(self, registry):
        instance = toy_university_instance()
        registry.register_instance("hidden", instance)
        base = registry.resolve("hidden")
        # A pre-built instance has one warm session, whatever the caller says.
        assert registry.resolve("hidden", seed=5) is base
        assert registry.resolve("hidden:whatever", seed=7) is base

    def test_handle_cache_is_bounded(self, monkeypatch):
        monkeypatch.setattr(DatasetRegistry, "DEFAULT_MAX_HANDLES", 3)
        registry = DatasetRegistry()
        for n in range(5):
            registry.register_instance(f"ds{n}", toy_university_instance())
            registry.resolve(f"ds{n}")
        assert registry.cache_info()["resolved_handles"] == 3
        # The most recently used handles survive.
        assert registry.resolve("ds4") is registry.resolve("ds4")


class TestDefaultRegistry:
    def test_default_registry_is_a_singleton(self):
        assert default_registry() is default_registry()
