"""Unit tests for the supervision layer: deadlines, retries, stats, fan-outs.

These cover the healthy-host behaviour of :mod:`repro.runtime.resilience`
(correctness, ordering, deadline accounting, stat plumbing). The faulty-host
behaviour — real worker crashes, degradation, kill-mid-save — lives in the
chaos suite (``tests/test_chaos.py``).
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.exceptions import (
    ConfigurationError,
    DataError,
    DeadlineExceededError,
)
from repro.runtime.resilience import (
    Deadline,
    ResilienceStats,
    RetryPolicy,
    ambient_deadline,
    collect_stats,
    deadline_scope,
    record_stats,
    supervised_map,
)


# ---------------------------------------------------------------------------
# Deadline
# ---------------------------------------------------------------------------
class TestDeadline:
    @pytest.mark.parametrize("seconds", [0.0, -1.0, float("nan")])
    def test_rejects_non_positive(self, seconds):
        with pytest.raises(ConfigurationError):
            Deadline(seconds)

    @pytest.mark.parametrize("seconds", [float("inf"), 1e300])
    def test_rejects_budgets_no_pool_wait_can_take(self, seconds):
        with pytest.raises(ConfigurationError):
            Deadline(seconds)

    def test_longest_budget_still_runs_a_pooled_fan_out(self):
        def slow_negate(x):
            time.sleep(0.05)  # the fan-out really waits on its futures
            return -x

        results = supervised_map(
            slow_negate, [1, 2, 3], workers=2, backend="thread",
            deadline=threading.TIMEOUT_MAX,
        )
        assert results == [-1, -2, -3]

    def test_remaining_counts_down(self):
        budget = Deadline(60.0)
        first = budget.remaining()
        assert 0.0 < first <= 60.0
        assert budget.remaining() <= first
        assert not budget.expired()

    def test_check_names_the_context(self):
        budget = Deadline(1e-9)
        time.sleep(0.002)
        assert budget.expired()
        with pytest.raises(DeadlineExceededError, match="at solve post 3"):
            budget.check("solve post 3")

    def test_resolve(self):
        assert Deadline.resolve(None) is None
        budget = Deadline(5.0)
        assert Deadline.resolve(budget) is budget
        fresh = Deadline.resolve(2.5)
        assert isinstance(fresh, Deadline) and fresh.seconds == 2.5

    def test_resolve_falls_back_to_ambient(self):
        with deadline_scope(5.0) as budget:
            assert Deadline.resolve(None) is budget


class TestDeadlineScope:
    def test_none_is_a_no_op(self):
        with deadline_scope(None) as budget:
            assert budget is None
            assert ambient_deadline() is None

    def test_innermost_wins_and_unwinds(self):
        assert ambient_deadline() is None
        with deadline_scope(10.0) as outer:
            assert ambient_deadline() is outer
            with deadline_scope(Deadline(1.0)) as inner:
                assert ambient_deadline() is inner
            assert ambient_deadline() is outer
        assert ambient_deadline() is None

    def test_scopes_are_thread_local(self):
        seen = []
        with deadline_scope(10.0):

            def probe():
                seen.append(ambient_deadline())

            worker = threading.Thread(target=probe)
            worker.start()
            worker.join()
        assert seen == [None]


# ---------------------------------------------------------------------------
# RetryPolicy and ResilienceStats
# ---------------------------------------------------------------------------
class TestRetryPolicy:
    def test_deterministic_exponential_backoff(self):
        policy = RetryPolicy(backoff_base=0.01, backoff_cap=0.25)
        assert policy.backoff(1) == pytest.approx(0.01)
        assert policy.backoff(2) == pytest.approx(0.02)
        assert policy.backoff(3) == pytest.approx(0.04)
        assert policy.backoff(100) == pytest.approx(0.25)  # capped

    def test_zero_base_disables_backoff(self):
        assert RetryPolicy(backoff_base=0.0).backoff(5) == 0.0


class TestResilienceStats:
    def test_merge_sums_counters(self):
        a = ResilienceStats(fanouts=1, tasks=4, retries=1,
                            backends={"process": 1})
        b = ResilienceStats(fanouts=2, tasks=6, worker_deaths=3,
                            degradations=1, deadline_remaining=0.5,
                            backends={"process": 1, "serial": 1})
        a.merge(b)
        assert a.fanouts == 3 and a.tasks == 10
        assert a.retries == 1 and a.worker_deaths == 3 and a.degradations == 1
        assert a.deadline_remaining == 0.5
        assert a.backends == {"process": 2, "serial": 1}

    def test_merge_keeps_last_known_deadline_remaining(self):
        a = ResilienceStats(deadline_remaining=1.0)
        a.merge(ResilienceStats())  # other has none: keep ours
        assert a.deadline_remaining == 1.0

    def test_as_dict_round_trips_counters(self):
        stats = ResilienceStats(fanouts=2, tasks=8, pickle_fallbacks=1)
        snap = stats.as_dict()
        assert snap["fanouts"] == 2 and snap["tasks"] == 8
        assert snap["pickle_fallbacks"] == 1
        assert snap["backends"] == {}
        snap["backends"]["x"] = 1  # a copy, not the live dict
        assert stats.backends == {}

    def test_sinks_nest(self):
        with collect_stats() as outer:
            with collect_stats() as inner:
                record_stats(ResilienceStats(fanouts=1, tasks=3))
            record_stats(ResilienceStats(fanouts=1, tasks=2))
        assert inner.fanouts == 1 and inner.tasks == 3
        assert outer.fanouts == 2 and outer.tasks == 5


# ---------------------------------------------------------------------------
# supervised_map on a healthy host
# ---------------------------------------------------------------------------
def _square(x):
    return x * x


class TestSupervisedMap:
    def test_serial_matches_list_comprehension(self):
        items = list(range(10))
        assert supervised_map(_square, items) == [x * x for x in items]

    def test_thread_backend_preserves_order(self):
        items = list(range(25))
        out = supervised_map(_square, items, workers=4, backend="thread")
        assert out == [x * x for x in items]

    def test_empty_items(self):
        assert supervised_map(_square, [], workers=4, backend="thread") == []

    def test_single_item_or_worker_forces_serial(self):
        for kwargs in ({"workers": 1, "backend": "thread"},
                       {"workers": 4, "backend": "thread"}):
            with collect_stats() as stats:
                supervised_map(_square, [3], **kwargs)
            assert stats.backends == {"serial": 1}

    def test_rejects_unknown_backend(self):
        with pytest.raises(ConfigurationError, match="backend"):
            supervised_map(_square, [1, 2], workers=2, backend="fork")

    def test_task_exceptions_propagate(self):
        def boom(x):
            if x == 3:
                raise DataError("task 3 is bad")
            return x

        with pytest.raises(DataError, match="task 3 is bad"):
            supervised_map(boom, list(range(8)), workers=4, backend="thread")

    def test_expired_deadline_raises_and_is_counted(self):
        budget = Deadline(0.001)
        time.sleep(0.005)
        with collect_stats() as stats:
            with pytest.raises(DeadlineExceededError):
                supervised_map(
                    _square, list(range(4)), workers=2, backend="thread",
                    deadline=budget,
                )
        assert stats.deadline_exceeded == 1
        assert stats.deadline_remaining is not None
        assert stats.deadline_remaining <= 0.0

    def test_ambient_deadline_is_picked_up(self):
        with deadline_scope(0.001):
            time.sleep(0.005)
            with pytest.raises(DeadlineExceededError):
                supervised_map(_square, list(range(4)))

    def test_generous_deadline_is_harmless(self):
        out = supervised_map(
            _square, list(range(6)), workers=3, backend="thread",
            deadline=60.0,
        )
        assert out == [x * x for x in range(6)]

    def test_stats_record_fanout_shape(self):
        with collect_stats() as stats:
            supervised_map(_square, list(range(7)), workers=3,
                           backend="thread")
        assert stats.fanouts == 1 and stats.tasks == 7
        assert stats.backends == {"thread": 1}
        assert stats.worker_deaths == 0 and stats.retries == 0
