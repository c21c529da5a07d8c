"""Contract tests for ``LRUCache``, the one bounded cache primitive.

Every cache on the serving and planning paths is an ``LRUCache``:
``RiskMapService`` results, ``ParkEntry`` contexts, ``ModelRegistry``
entries, ``PlanService`` planners and ``PatrolMILP`` structures. These
tests pin the protocol those call sites rely on: LRU order under a hard
capacity bound, touch-on-hit, incumbent-wins insertion (with an
overwrite form for hot-swap), eviction counting and the eviction hook,
and convergence of racing cold computes on one resident object.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.exceptions import ConfigurationError
from repro.runtime.concurrency import LRUCache, thread_shared_classes

N_THREADS = 8


def keys(cache: LRUCache) -> list:
    return [key for key, __ in cache.snapshot()]


class TestBound:
    def test_lru_order_and_capacity_bound(self):
        cache = LRUCache(3)
        for key in "abcde":
            cache.put(key, key.upper())
        assert keys(cache) == ["c", "d", "e"]
        assert cache.snapshot() == [("c", "C"), ("d", "D"), ("e", "E")]
        assert cache.info() == {
            "hits": 0, "misses": 0, "evictions": 2, "entries": 3,
            "capacity": 3,
        }

    def test_hit_refreshes_recency(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1
        cache.put("c", 3)  # evicts "b", now the least recently used
        assert keys(cache) == ["a", "c"]
        assert cache.get("b") is None
        assert cache.info()["hits"] == 1 and cache.info()["misses"] == 1

    def test_capacity_zero_stores_nothing(self):
        cache = LRUCache(0)
        calls = []

        def compute():
            calls.append(1)
            return "value"

        for __ in range(3):
            assert cache.get_or_compute("key", compute) == "value"
        assert cache.put("key", "value") == "value"
        assert len(calls) == 3
        assert cache.snapshot() == []
        assert cache.info() == {
            "hits": 0, "misses": 3, "evictions": 0, "entries": 0,
            "capacity": 0,
        }

    def test_negative_capacity_rejected(self):
        with pytest.raises(ConfigurationError, match="capacity"):
            LRUCache(-1)

    def test_is_thread_shared(self):
        assert "repro.runtime.concurrency.LRUCache" in thread_shared_classes()


class TestPut:
    def test_incumbent_wins(self):
        cache = LRUCache(2)
        first, second = object(), object()
        assert cache.put("key", first) is first
        assert cache.put("key", second) is first
        assert cache.get("key") is first
        assert cache.info()["entries"] == 1

    def test_losing_put_refreshes_the_incumbent(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 99)  # loses, but "a" is now the most recently used
        cache.put("c", 3)
        assert cache.snapshot() == [("a", 1), ("c", 3)]

    def test_overwrite_replaces_and_moves_to_most_recent(self):
        evicted = []
        cache = LRUCache(2, on_evict=evicted.append)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.put("a", 10, overwrite=True) == 10
        assert cache.snapshot() == [("b", 2), ("a", 10)]
        # A replaced value is not an eviction.
        assert evicted == [] and cache.info()["evictions"] == 0
        cache.put("c", 3)
        assert cache.snapshot() == [("a", 10), ("c", 3)]
        assert evicted == [2]


class TestEviction:
    def test_eviction_count_and_hook(self):
        evicted = []
        cache = LRUCache(2, on_evict=evicted.append)
        for i in range(5):
            cache.put(i, str(i))
        assert evicted == ["0", "1", "2"]
        assert cache.info()["evictions"] == 3
        cache.evict_all()
        assert evicted[3:] == ["3", "4"]
        assert cache.info()["evictions"] == 5
        assert cache.info()["entries"] == 0

    def test_hook_runs_after_the_lock_is_released(self):
        """Another thread can use the cache while the hook runs (with an
        RLock a same-thread call would succeed either way)."""
        probes = []

        def on_evict(value):
            probe = threading.Thread(target=lambda: probes.append(cache.info()))
            probe.start()
            probe.join(timeout=5.0)
            probes.append(probe.is_alive())

        cache = LRUCache(1, on_evict=on_evict)
        cache.put("a", 1)
        cache.put("b", 2)
        assert probes[-1] is False  # the probe thread was never blocked
        assert probes[0]["entries"] == 1


class TestGetOrCompute:
    def test_counts_one_miss_then_hits(self):
        cache = LRUCache(4)
        calls = []

        def compute():
            calls.append(1)
            return ["value"]

        first = cache.get_or_compute("key", compute)
        assert cache.get_or_compute("key", compute) is first
        assert cache.get_or_compute("key", compute) is first
        assert len(calls) == 1
        info = cache.info()
        assert info["misses"] == 1 and info["hits"] == 2

    def test_failed_compute_caches_nothing(self):
        cache = LRUCache(4)

        def explode():
            raise ValueError("boom")

        with pytest.raises(ValueError):
            cache.get_or_compute("key", explode)
        assert cache.info()["entries"] == 0
        assert cache.get_or_compute("key", lambda: 7) == 7

    def test_racing_cold_key_converges_on_one_object(self):
        """Eight threads miss on one cold key and all compute at once (a
        barrier inside ``compute`` holds them until every one is
        computing); the first insert wins and every caller gets it."""
        cache = LRUCache(4)
        start = threading.Barrier(N_THREADS)
        computing = threading.Barrier(N_THREADS)
        results = [None] * N_THREADS
        built = []
        errors = []

        def compute():
            computing.wait(timeout=10.0)
            value = object()
            built.append(value)
            return value

        def worker(i):
            try:
                start.wait(timeout=10.0)
                results[i] = cache.get_or_compute("cold", compute)
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(N_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert len(built) == N_THREADS  # every thread really computed
        assert all(result is results[0] for result in results)
        assert any(value is results[0] for value in built)
        info = cache.info()
        assert info["entries"] == 1
        assert info["misses"] == N_THREADS and info["hits"] == 0


class TestStress:
    def test_counters_stay_consistent_under_contention(self):
        """Threads hammer overlapping keys past capacity with a tiny switch
        interval; a lost counter update or a torn eviction breaks the sums."""
        capacity, n_keys, rounds = 5, 12, 400
        evicted = []
        cache = LRUCache(capacity, on_evict=evicted.append)
        errors = []

        def worker(i):
            try:
                for r in range(rounds):
                    key = (i * 7 + r) % n_keys
                    assert cache.get_or_compute(key, lambda: key) == key
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(i,))
                for i in range(N_THREADS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        info = cache.info()
        assert info["hits"] + info["misses"] == N_THREADS * rounds
        assert info["entries"] == capacity
        assert info["evictions"] == len(evicted)
        # every insert either is still resident or was evicted exactly once
        inserts = info["evictions"] + info["entries"]
        assert inserts <= info["misses"]
        assert len(cache.snapshot()) == capacity
