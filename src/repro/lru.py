"""A small instrumented LRU mapping shared by the long-lived caches.

A grading *process* could tolerate unbounded memoisation — it dies with the
batch.  A grading *server* cannot: the per-session result memo and the
dataset-registry handle cache both live for weeks and see submitter-chosen
keys, so each is bounded by an :class:`LRUCache` with a ``max_entries`` knob
and hit/miss/eviction counters (surfaced by ``cache_info()`` methods and the
server's ``/metrics`` endpoint).

The class deliberately implements only the operations those caches use —
``get``/``__setitem__``/``__delitem__``/iteration/``clear`` — rather than the
full ``MutableMapping`` protocol, so every read path is explicit about
whether it counts toward the hit ratio (``get(..., record=False)`` for
double-checked lookups that would otherwise double-count).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator


class LRUCache:
    """Insertion-ordered dict bounded to ``max_entries``, evicting oldest first.

    ``max_entries`` may be changed at any time; the bound is enforced on the
    next insertion.  A bound of ``None`` (or a negative value) disables
    eviction.  Reads through :meth:`get` refresh recency and update the
    ``hits``/``misses`` counters; evictions update ``evictions``.

    With ``weigh`` (say ``len``), ``weight`` is the running sum of
    ``weigh(value)`` over the entries, kept up to date on every insert,
    replace, eviction, delete and clear, so reading it is O(1).  Each entry's
    weight is taken when it is stored.
    """

    def __init__(
        self, max_entries: int | None = None, *, weigh: Callable[[Any], int] | None = None
    ) -> None:
        self.max_entries = max_entries
        self._data: dict[Any, Any] = {}
        self._weigh = weigh
        self._weights: dict[Any, int] = {}
        self.weight = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: Any, default: Any = None, *, record: bool = True) -> Any:
        """The cached value (refreshed to most-recently-used) or ``default``.

        ``record=False`` leaves the hit/miss counters untouched — for
        double-checked locking patterns where the same logical lookup runs
        twice.
        """
        try:
            value = self._data.pop(key)
        except KeyError:
            if record:
                self.misses += 1
            return default
        self._data[key] = value
        if record:
            self.hits += 1
        return value

    def __setitem__(self, key: Any, value: Any) -> None:
        self._data.pop(key, None)
        self._data[key] = value
        if self._weigh is not None:
            weight = self._weigh(value)
            self.weight += weight - self._weights.pop(key, 0)
            self._weights[key] = weight
        if self.max_entries is not None and self.max_entries >= 0:
            while len(self._data) > self.max_entries:
                oldest = next(iter(self._data))
                del self._data[oldest]
                self.weight -= self._weights.pop(oldest, 0)
                self.evictions += 1

    def __delitem__(self, key: Any) -> None:
        del self._data[key]
        self.weight -= self._weights.pop(key, 0)

    def __contains__(self, key: Any) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def __iter__(self) -> Iterator[Any]:
        return iter(self._data)

    def keys(self) -> Iterable[Any]:
        return self._data.keys()

    def values(self) -> Iterable[Any]:
        return self._data.values()

    def items(self) -> Iterable[tuple[Any, Any]]:
        return self._data.items()

    def clear(self) -> None:
        """Drop every entry (counters are cumulative and survive clears)."""
        self._data.clear()
        self._weights.clear()
        self.weight = 0

    def stats(self) -> dict[str, int]:
        return {
            "entries": len(self._data),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }
