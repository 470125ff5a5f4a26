"""Bounded caches for long-lived servers: LRU semantics and counters."""

from __future__ import annotations

from repro.api.registry import DatasetRegistry
from repro.datagen import toy_university_instance
from repro.engine.session import EngineSession
from repro.lru import LRUCache
from repro.parser.ra_parser import parse_query


class TestLRUCache:
    def test_eviction_order_is_least_recently_used(self):
        cache = LRUCache(2)
        cache["a"] = 1
        cache["b"] = 2
        assert cache.get("a") == 1  # refresh "a" → "b" is now oldest
        cache["c"] = 3
        assert "b" not in cache
        assert set(cache.keys()) == {"a", "c"}
        assert cache.evictions == 1

    def test_hit_miss_counters(self):
        cache = LRUCache(4)
        cache["a"] = 1
        assert cache.get("a") == 1
        assert cache.get("nope") is None
        assert cache.get("nope", record=False) is None  # double-check: uncounted
        assert cache.stats() == {"entries": 1, "hits": 1, "misses": 1, "evictions": 0}

    def test_unbounded_when_max_entries_is_none(self):
        cache = LRUCache(None)
        for index in range(100):
            cache[index] = index
        assert len(cache) == 100
        assert cache.evictions == 0

    def test_weight_follows_insert_replace_evict_delete_and_clear(self):
        cache = LRUCache(2, weigh=len)
        cache["a"] = [1, 2, 3]
        cache["b"] = [1]
        assert cache.weight == 4
        cache["a"] = [1]  # replace
        assert cache.weight == 2
        cache["c"] = [1, 2]  # evicts "b"
        assert cache.weight == 3
        del cache["a"]
        assert cache.weight == 2
        cache.clear()
        assert cache.weight == 0

    def test_unweighed_cache_stays_at_zero(self):
        cache = LRUCache(1)
        cache["a"] = [1, 2]
        cache["b"] = [1, 2]
        del cache["b"]
        assert cache.weight == 0

    def test_clear_keeps_cumulative_counters(self):
        cache = LRUCache(1)
        cache["a"] = 1
        cache["b"] = 1
        cache.get("b")
        cache.clear()
        assert len(cache) == 0
        assert cache.evictions == 1
        assert cache.hits == 1


class TestSessionResultMemoBound:
    def test_memo_is_bounded_and_counts_evictions(self, toy_university, monkeypatch):
        monkeypatch.setattr(EngineSession, "max_cached_results", 2)
        session = EngineSession(toy_university)
        queries = [
            parse_query("Student"),
            parse_query("Registration"),
            parse_query("\\project_{name} Student"),
            parse_query("\\project_{name} Registration"),
        ]
        for query in queries:
            session.evaluate(query)
        info = session.cache_info()
        assert info["cached_results"] <= 2
        assert info["result_evictions"] >= 1
        assert info["result_misses"] >= len(queries)

    def test_warm_hits_are_counted(self, toy_university):
        session = EngineSession(toy_university)
        query = parse_query("\\project_{name} Student")
        session.evaluate(query)
        before = session.cache_info()["result_hits"]
        session.evaluate(query)
        assert session.cache_info()["result_hits"] > before

    def test_eviction_only_costs_recomputation(self, toy_university, monkeypatch):
        monkeypatch.setattr(EngineSession, "max_cached_results", 1)
        session = EngineSession(toy_university)
        query1 = parse_query("\\project_{name} Student")
        query2 = parse_query("\\project_{name} Registration")
        first = session.evaluate(query1)
        session.evaluate(query2)  # evicts query1's rows
        again = session.evaluate(query1)  # recomputed, not wrong
        assert again.same_rows(first)

    def test_warmup_hook_populates_caches(self, toy_university):
        session = EngineSession(toy_university)
        warmed = session.warmup(
            ["\\project_{name} Student", "\\select_{oops", "Registration"]
        )
        assert warmed == 2  # the unparsable query is skipped, not fatal
        assert session.cache_info()["cached_results"] >= 2


class TestSessionRowTotal:
    def test_running_total_matches_a_recount(self, monkeypatch):
        monkeypatch.setattr(EngineSession, "max_cached_results", 4)
        instance = toy_university_instance()
        session = EngineSession(instance)

        def running() -> int:
            return sum(memo.weight for memo in session._results.values())

        def recount() -> int:
            return sum(
                len(rows) for memo in session._results.values() for rows in memo.values()
            )

        queries = [
            parse_query(text)
            for text in (
                "Registration",
                "\\project_{name} Registration",
                "\\project_{name} \\select_{dept = 'ECON'} Registration",
                "\\project_{name, major, dept} (Student \\join Registration)",
                "\\project_{major} Student",
            )
        ]
        for query in queries:
            session.evaluate(query)
            session.annotated_rows(query)  # provenance batches weigh in too
        assert session.cache_info()["result_evictions"] >= 1
        assert running() == recount() > 0

        instance.insert("Registration", ("Jesse", "101", "ECON", 70))
        session.apply_delta()
        assert session.stats["delta_dropped"] >= 1
        assert running() == recount()
        session.evaluate(queries[2])
        assert running() == recount()

        session.clear_cached_results()
        assert running() == recount() == 0


class TestRegistryHandleCounters:
    def test_resolve_counts_hits_misses_evictions(self, monkeypatch):
        monkeypatch.setattr(DatasetRegistry, "DEFAULT_MAX_HANDLES", 2)
        registry = DatasetRegistry()
        registry.resolve("toy-university")
        registry.resolve("toy-university")  # warm hit
        registry.resolve("toy-beers")
        registry.resolve("university:5")  # evicts toy-university
        info = registry.cache_info()
        assert info["resolved_handles"] == 2
        assert info["handle_hits"] == 1
        assert info["handle_misses"] == 3
        assert info["handle_evictions"] == 1

    def test_session_stats_aggregates_over_handles(self):
        registry = DatasetRegistry()
        handle = registry.resolve("toy-university")
        handle.session.evaluate(parse_query("Student"))
        registry.resolve("toy-beers")
        stats = registry.session_stats()
        assert stats["plan_misses"] >= 1
        assert "result_misses" in stats
