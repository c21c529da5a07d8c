"""The ``@thread_shared`` contract, and the one cache built on it.

The park-service daemon (ROADMAP item 1) keeps one
:class:`~repro.runtime.service.RiskMapService` and one
:class:`~repro.planning.service.PlanService` hot and lets every request
thread hit them. That only works if their internal state — feature
registries, resilience counters, and every cache — is mutated under a
lock. :func:`thread_shared` is how a class *declares* that it honours the
contract, and the declaration has teeth twice over:

* **at runtime**, the decorator wraps ``__init__`` and raises
  :class:`~repro.exceptions.ConfigurationError` if the instance comes out
  without a ``self._lock``, so a refactor that drops the lock fails the
  first constructor call, not the first race;
* **statically**, the RP004 checker (:mod:`repro.analysis`) walks every
  decorated class and fails ``make lint`` when any method mutates a
  ``self._*`` attribute outside a ``with self._lock:`` block.

The locking style is *mutate-under-lock, read-lock-free*: single dict
reads are atomic under the GIL, so only writes take the lock. Use
:class:`threading.RLock` so a locked method may call another locked method
of the same object without deadlocking.

Every cache on the serving and planning paths (risk-map results, park
contexts, registry entries, per-post planners, MILP structures) is one
:class:`LRUCache`, which declares the cache protocol once: a hit refreshes
recency; :meth:`~LRUCache.get_or_compute` computes *outside* the lock and
the first insert wins (racing misses compute bit-identical values, and
every caller receives the resident one), so a slow solve never serialises
unrelated requests; past ``capacity`` the least recently used entry is
evicted; :meth:`~LRUCache.info` reports hits, misses, evictions, entries
and capacity in one ``/stats`` shape.
"""

from __future__ import annotations

import functools
import threading
from collections import OrderedDict
from collections.abc import Callable, Hashable

from repro.exceptions import ConfigurationError

#: Qualified name -> class, for introspection and the RP004 checker's docs.
_THREAD_SHARED: dict[str, type] = {}


def thread_shared(cls: type) -> type:
    """Declare ``cls`` safe for cross-thread sharing (see module docs).

    Registers the class, and wraps ``__init__`` to verify the instance
    creates its ``self._lock``. The static half of the contract (every
    ``self._*`` mutation inside ``with self._lock:``) is enforced by
    ``repro lint`` rule RP004.
    """
    original_init = cls.__init__

    @functools.wraps(original_init)
    def checked_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        if not hasattr(self, "_lock"):
            raise ConfigurationError(
                f"@thread_shared class {cls.__name__}.__init__ must create "
                "self._lock (a threading.Lock/RLock)"
            )

    cls.__init__ = checked_init
    _THREAD_SHARED[f"{cls.__module__}.{cls.__qualname__}"] = cls
    return cls


def thread_shared_classes() -> dict[str, type]:
    """A snapshot of every class registered via :func:`thread_shared`."""
    return dict(_THREAD_SHARED)


_MISSING = object()


@thread_shared
class LRUCache:
    """A bounded, thread-safe least-recently-used map (see module docs).

    ``capacity`` 0 stores nothing: every lookup misses and computes.
    ``on_evict(value)`` is called for each entry pushed out by the
    capacity bound (not for values replaced by an overwriting
    :meth:`put`), after the cache's lock is released.
    """

    def __init__(self, capacity: int, on_evict: Callable | None = None):
        if int(capacity) < 0:
            raise ConfigurationError(f"capacity must be >= 0, got {capacity}")
        self.capacity = int(capacity)
        self._on_evict = on_evict
        self._lock = threading.RLock()
        self._items: OrderedDict = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def get(self, key: Hashable, default=None):
        """The cached value (now the most recently used), or ``default``."""
        with self._lock:
            value = self._items.get(key, _MISSING)
            if value is _MISSING:
                self._misses += 1
                return default
            self._hits += 1
            self._items.move_to_end(key)
            return value

    def put(self, key: Hashable, value, overwrite: bool = False):
        """Insert ``value``; return the value now resident under ``key``.

        The incumbent wins: if ``key`` is already cached, it is touched and
        returned and ``value`` is dropped. ``overwrite=True`` replaces it
        instead (a hot-swap).
        """
        if self.capacity == 0:
            return value
        with self._lock:
            incumbent = self._items.get(key, _MISSING)
            if incumbent is not _MISSING and not overwrite:
                self._items.move_to_end(key)
                return incumbent
            self._items[key] = value
            self._items.move_to_end(key)
            evicted = []
            while len(self._items) > self.capacity:
                evicted.append(self._items.popitem(last=False))
            self._evictions += len(evicted)
        self._notify(evicted)
        return value

    def get_or_compute(self, key: Hashable, compute: Callable[[], object]):
        """The cached value, or ``compute()`` inserted incumbent-wins."""
        value = self.get(key, _MISSING)
        if value is _MISSING:
            value = self.put(key, compute())
        return value

    def evict_all(self) -> None:
        """Evict every entry (hit/miss counters are kept)."""
        with self._lock:
            evicted = list(self._items.items())
            self._items = OrderedDict()
            self._evictions += len(evicted)
        self._notify(evicted)

    def _notify(self, evicted: list[tuple]) -> None:
        if self._on_evict is not None:
            for __, value in evicted:
                self._on_evict(value)

    def snapshot(self) -> list[tuple]:
        """``(key, value)`` pairs, least recently used first."""
        with self._lock:
            return list(self._items.items())

    def info(self) -> dict[str, int]:
        """Hit/miss/eviction counters and size (the ``/stats`` shape)."""
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "entries": len(self._items),
                "capacity": self.capacity,
            }
