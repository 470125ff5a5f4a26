"""Named datasets resolved to shared, warm (instance, session) pairs.

A grading service fields many submissions against a small number of hidden
test databases.  Building those databases — and warming an
:class:`~repro.engine.session.EngineSession` over them — is the expensive,
shared artifact; each individual grade is cheap.  :class:`DatasetRegistry`
owns that artifact: it resolves dataset *specs* such as ``"university:200"``
or ``"tpch:0.01"`` to lazily built, cached :class:`DatasetHandle` objects,
so every worker grading against the same dataset shares one instance and one
(locked) engine session.

Spec syntax is ``name[:argument]`` where ``argument`` parameterizes the
builder (student count, scale factor, ...).  Custom datasets join the
registry either as builders (:meth:`DatasetRegistry.register_builder`) or as
pre-built instances (:meth:`DatasetRegistry.register_instance`).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable

from repro.catalog.instance import DatabaseInstance
from repro.engine.session import EngineSession
from repro.errors import ReproError
from repro.lru import LRUCache

#: Builds an instance from the spec argument (text after ``:``) and a seed.
DatasetBuilder = Callable[[str, int], DatabaseInstance]


@dataclass(frozen=True)
class DatasetHandle:
    """A resolved dataset: the shared instance plus its warm engine session.

    Handles are cached per ``(spec, seed)`` and shared across submissions
    and worker threads, so every grade against one dataset sees one instance
    and one session.  Edit the instance only through its mutation API, which
    bumps relation versions (the session then drops the memo entries over the
    edited relations, for every user).
    """

    spec: str
    seed: int
    instance: DatabaseInstance
    session: EngineSession


def _builtin_builders() -> dict[str, DatasetBuilder]:
    from repro.datagen import (
        beers_instance,
        toy_beers_instance,
        toy_university_instance,
        tpch_instance,
        university_instance,
    )

    return {
        "toy-university": lambda arg, seed: toy_university_instance(),
        "university": lambda arg, seed: university_instance(int(arg or 50), seed=seed),
        "toy-beers": lambda arg, seed: toy_beers_instance(),
        "beers": lambda arg, seed: beers_instance(num_drinkers=int(arg or 40), seed=seed),
        "tpch": lambda arg, seed: tpch_instance(float(arg or 0.1), seed=seed),
    }


class DatasetRegistry:
    """Thread-safe resolver of dataset specs to cached (instance, session) pairs."""

    #: Bound on cached handles; the least recently resolved is evicted first.
    #: A grading deployment serves a handful of hidden datasets — the bound
    #: exists so submitter-controlled specs/seeds (e.g. from JSONL input)
    #: cannot pin unbounded instances in memory.
    DEFAULT_MAX_HANDLES = 16

    def __init__(self, *, include_builtin: bool = True) -> None:
        self._builders: dict[str, DatasetBuilder] = (
            _builtin_builders() if include_builtin else {}
        )
        self._instance_backed: set[str] = set()
        self._handles: LRUCache = LRUCache(self.DEFAULT_MAX_HANDLES)
        self._build_locks: dict[tuple[str, int], threading.Lock] = {}
        self._generations: dict[str, int] = {}
        self._lock = threading.Lock()

    # -- registration --------------------------------------------------------

    def register_builder(self, name: str, builder: DatasetBuilder) -> None:
        """Register (or replace) a named dataset builder.

        ``builder(argument, seed)`` receives the text after ``:`` in the spec
        (``""`` when absent) and the resolution seed.
        """
        self._register(name, builder, instance_backed=False)

    def register_instance(self, name: str, instance: DatabaseInstance) -> None:
        """Register a pre-built instance under ``name`` (shared, not copied).

        Spec arguments and seeds do not change a pre-built instance, so every
        ``name[:whatever]``/seed combination resolves to one shared handle —
        the warm session is never silently duplicated.
        """
        self._register(name, lambda arg, seed: instance, instance_backed=True)

    def _register(self, name: str, builder: DatasetBuilder, *, instance_backed: bool) -> None:
        with self._lock:
            self._builders[name] = builder
            if instance_backed:
                self._instance_backed.add(name)
            else:
                self._instance_backed.discard(name)
            self._generations[name] = self._generations.get(name, 0) + 1
            for key in [key for key in self._handles if _name(key[0]) == name]:
                del self._handles[key]
            self._build_locks = {
                key: lock for key, lock in self._build_locks.items() if _name(key[0]) != name
            }

    # -- resolution ----------------------------------------------------------

    def known_datasets(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._builders))

    def build(self, spec: str, *, seed: int = 0) -> DatabaseInstance:
        """Build a fresh instance for ``spec`` (uncached, caller-owned).

        For datasets registered via :meth:`register_instance` the shared
        instance itself is returned.
        """
        name, _, argument = spec.partition(":")
        with self._lock:
            builder = self._builders.get(name)
            if builder is None:
                raise self._unknown_dataset(spec)
        return builder(argument, seed)

    def resolve(self, spec: str, *, seed: int = 0) -> DatasetHandle:
        """The shared handle for ``spec``: built on first use, cached after.

        Builds run under a per-key lock *outside* the registry lock, so
        concurrent workers asking for the same dataset wait for one build,
        while requests for other (cached or building) datasets proceed —
        a slow ``tpch:1`` build never blocks ``toy-university`` lookups.
        Handles are cached per (spec, seed).
        """
        name, _, argument = spec.partition(":")
        with self._lock:
            builder = self._builders.get(name)
            if builder is None:
                raise self._unknown_dataset(spec)
            if name in self._instance_backed:
                key, argument, seed = (name, 0), "", 0
            else:
                key = (spec, seed)
            handle = self._handles.get(key)
            if handle is not None:
                return handle
            generation = self._generations.get(name, 0)
            build_lock = self._build_locks.setdefault(key, threading.Lock())
        with build_lock:
            with self._lock:
                # Double-checked: don't let the re-check skew the hit ratio.
                handle = self._handles.get(key, record=False)
                if handle is not None:
                    return handle
            try:
                instance = builder(argument, seed)
            except BaseException:
                with self._lock:  # don't leak build locks for failing specs
                    self._build_locks.pop(key, None)
                raise
            handle = DatasetHandle(
                spec=key[0],
                seed=seed,
                instance=instance,
                session=EngineSession(instance),
            )
            with self._lock:
                if self._generations.get(name, 0) != generation:
                    # The builder was replaced while we were building — drop
                    # this stale handle and resolve against the new builder.
                    retry = True
                else:
                    retry = False
                    self._handles[key] = handle  # LRU-bounded: evicts oldest
                    self._build_locks.pop(key, None)
            if retry:
                return self.resolve(spec, seed=seed)
            return handle

    def _unknown_dataset(self, spec: str) -> ReproError:
        """The shared unknown-spec error (caller must hold ``self._lock``)."""
        known = ", ".join(sorted(self._builders))
        return ReproError(
            f"unknown dataset {spec!r}; expected one of {known} "
            "(parameterized specs look like university:200 or tpch:0.01)"
        )

    def cache_info(self) -> dict[str, int]:
        with self._lock:
            return {
                "registered_builders": len(self._builders),
                "resolved_handles": len(self._handles),
                "handle_hits": self._handles.hits,
                "handle_misses": self._handles.misses,
                "handle_evictions": self._handles.evictions,
            }

    def session_stats(self) -> dict[str, int]:
        """Engine-cache statistics summed over every resolved handle's session.

        This is what a long-lived server exports per worker on ``/metrics``:
        plan and result hit/miss/eviction counters aggregated across all warm
        sessions this registry owns.
        """
        with self._lock:
            sessions = [handle.session for handle in self._handles.values()]
        totals: dict[str, int] = {}
        for session in sessions:
            for name, value in session.cache_info().items():
                totals[name] = totals.get(name, 0) + value
        return totals


def _name(spec: str) -> str:
    return spec.partition(":")[0]


_default_registry: DatasetRegistry | None = None
_default_registry_lock = threading.Lock()


def default_registry() -> DatasetRegistry:
    """The process-wide registry used by the CLI and one-argument services."""
    global _default_registry
    with _default_registry_lock:
        if _default_registry is None:
            _default_registry = DatasetRegistry()
        return _default_registry
