"""Unit tests for the metrics registry: instruments, isolation, merging."""

from __future__ import annotations

import json
import threading

import pytest

from repro.obs.metrics import (
    BYTE_BUCKETS,
    METRICS_SCHEMA,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    active_registry,
    counter,
    gauge,
    metric,
    use_registry,
)
from repro.obs.metrics import _default_registry as process_default


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        c = Counter()
        assert c.value == 0
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_rejects_negative_increment(self):
        c = Counter()
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_reset(self):
        c = Counter()
        c.inc(7)
        c.reset()
        assert c.value == 0


class TestGauge:
    def test_last_write_wins(self):
        g = Gauge()
        g.set(3.5)
        g.set(1.25)
        assert g.value == 1.25

    def test_reset(self):
        g = Gauge()
        g.set(9)
        g.reset()
        assert g.value == 0.0


class TestHistogramBuckets:
    def test_edges_are_upper_bounds_inclusive(self):
        h = Histogram(edges=(1, 2, 4))
        # v <= edge lands at that edge's bucket
        h.observe(1)      # bucket 0 (edge 1)
        h.observe(2)      # bucket 1 (edge 2)
        h.observe(3)      # bucket 2 (edge 4)
        h.observe(4)      # bucket 2 (edge 4)
        h.observe(5)      # overflow
        assert h.counts == [1, 1, 2, 1]

    def test_zero_and_below_first_edge(self):
        h = Histogram(edges=(0, 1, 2))
        h.observe(0)
        h.observe(-3)
        assert h.counts[0] == 2

    def test_overflow_bucket_exists(self):
        h = Histogram(edges=(10,))
        assert len(h.counts) == 2
        h.observe(11)
        assert h.counts == [0, 1]

    def test_edges_must_be_strictly_increasing(self):
        with pytest.raises(ValueError):
            Histogram(edges=(1, 1, 2))
        with pytest.raises(ValueError):
            Histogram(edges=(2, 1))
        with pytest.raises(ValueError):
            Histogram(edges=())

    def test_sum_count_min_max_mean(self):
        h = Histogram(edges=(10, 20))
        for v in (1, 5, 12):
            h.observe(v)
        assert h.count == 3
        assert h.sum == 18
        assert h.min == 1
        assert h.max == 12
        assert h.mean == 6.0

    def test_mean_of_empty_is_zero(self):
        assert Histogram().mean == 0.0

    def test_reset_clears_everything(self):
        h = Histogram(edges=(1, 2))
        h.observe(1)
        h.reset()
        assert h.counts == [0, 0, 0]
        assert h.count == 0
        assert h.sum == 0.0
        assert h.min is None and h.max is None

    def test_quantile_bucket_resolution(self):
        h = Histogram(edges=(1, 2, 4, 8))
        for v in (1, 1, 2, 3, 7):
            h.observe(v)
        assert h.quantile(0.0) == 1
        # rank = round(0.5 * 5) = 2; observations 1,1 fill the edge-1 bucket
        assert h.quantile(0.5) == 1
        assert h.quantile(0.8) == 4
        assert h.quantile(1.0) == 8
        assert Histogram().quantile(0.5) is None
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_quantile_overflow_reports_exact_max(self):
        h = Histogram(edges=(1,))
        h.observe(99)
        assert h.quantile(1.0) == 99


def _state(h):
    return (h.counts, h.sum, h.count, h.min, h.max, type(h.sum))


class TestObserveN:
    """A tally folded through observe_n is the histogram n observes build."""

    TALLY = {0: 4, 3: 1, 8: 250, 21: 7, 400: 2, 5: 0}

    def test_equals_repeated_observe(self):
        tallied, looped = Histogram(), Histogram()
        for v, n in self.TALLY.items():
            tallied.observe_n(v, n)
            for _ in range(n):
                looped.observe(v)
        assert _state(tallied) == _state(looped)
        assert tallied.quantile(0.5) == looped.quantile(0.5)

    def test_zero_is_a_no_op_and_negative_is_rejected(self):
        h = Histogram()
        h.observe_n(13, 0)
        assert _state(h) == _state(Histogram())
        with pytest.raises(ValueError):
            h.observe_n(13, -1)

    def test_merge_of_two_tallied_histograms_is_exact(self):
        a, b, looped = MetricsRegistry(), MetricsRegistry(), MetricsRegistry()
        for reg, tally in ((a, {1: 3, 500: 2}), (b, {0: 5, 1: 1})):
            for v, n in tally.items():
                reg.histogram("h").observe_n(v, n)
                for _ in range(n):
                    looped.histogram("h").observe(v)
        a.merge(b)
        assert a.as_dict() == looped.as_dict()


class TestRegistry:
    def test_create_on_first_use_is_stable(self):
        reg = MetricsRegistry()
        a = reg.counter("x")
        b = reg.counter("x")
        assert a is b
        assert len(reg) == 1

    def test_labels_sorted_into_full_name(self):
        reg = MetricsRegistry()
        reg.counter("c", b=2, a=1).inc()
        assert reg.counter_value("c", a=1, b=2) == 1
        assert "c{a=1,b=2}" in reg.as_dict()["counters"]

    def test_counter_value_of_missing_is_zero(self):
        assert MetricsRegistry().counter_value("nope") == 0

    def test_histogram_bucket_conflict_raises(self):
        reg = MetricsRegistry()
        reg.histogram("h", buckets=(1, 2))
        reg.histogram("h")  # no buckets requested: reuses existing
        reg.histogram("h", buckets=(1, 2))  # same buckets: fine
        with pytest.raises(ValueError):
            reg.histogram("h", buckets=(1, 2, 3))

    def test_as_dict_is_deterministic_json(self):
        reg = MetricsRegistry()
        reg.counter("b").inc(2)
        reg.counter("a").inc(1)
        reg.gauge("g").set(1.5)
        reg.histogram("h", buckets=(1,)).observe(1)
        d = reg.as_dict()
        assert d["schema"] == METRICS_SCHEMA
        assert list(d["counters"]) == ["a", "b"]
        # the export round-trips through JSON unchanged
        assert json.loads(reg.to_json()) == json.loads(
            json.dumps(d, sort_keys=True)
        )

    def test_registry_reset(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(3)
        reg.gauge("g").set(2)
        reg.histogram("h").observe(5)
        reg.reset()
        assert reg.counter_value("c") == 0
        d = reg.as_dict()
        assert d["gauges"]["g"] == 0.0
        assert d["histograms"]["h"]["count"] == 0
        # instruments survive a reset
        assert len(reg) == 3


class TestMerge:
    def test_counters_add_gauges_overwrite(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc(2)
        b.counter("c").inc(3)
        a.gauge("g").set(1)
        b.gauge("g").set(9)
        a.merge(b)
        assert a.counter_value("c") == 5
        assert a.as_dict()["gauges"]["g"] == 9

    def test_histograms_add_cellwise(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("h", buckets=(1, 2)).observe(1)
        b.histogram("h", buckets=(1, 2)).observe(2)
        b.histogram("h").observe(5)
        a.merge(b)
        h = a.histogram("h")
        assert h.counts == [1, 1, 1]
        assert h.count == 3
        assert h.min == 1 and h.max == 5

    def test_merge_accepts_exported_dict(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        b.counter("c").inc(4)
        b.histogram("h", buckets=BYTE_BUCKETS).observe(64)
        a.merge(b.as_dict())
        assert a.counter_value("c") == 4
        assert a.histogram("h", buckets=BYTE_BUCKETS).count == 1

    def test_merge_rejects_differing_edges(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("h", buckets=(1,))
        b.histogram("h", buckets=(2,))
        with pytest.raises(ValueError):
            a.merge(b)

    def test_merge_rejects_unknown_schema(self):
        with pytest.raises(ValueError):
            MetricsRegistry().merge({"schema": "bogus/9"})

    def test_merge_is_associative_on_exports(self):
        regs = []
        for k in range(3):
            r = MetricsRegistry()
            r.counter("c").inc(k + 1)
            r.histogram("h").observe(k)
            regs.append(r)
        left = MetricsRegistry()
        for r in regs:
            left.merge(r)
        right = MetricsRegistry()
        mid = MetricsRegistry()
        mid.merge(regs[1])
        mid.merge(regs[2])
        right.merge(regs[0])
        right.merge(mid)
        assert left.as_dict() == right.as_dict()


class TestActiveRegistry:
    def test_default_when_no_scope(self):
        assert active_registry() is process_default

    def test_use_registry_scopes_and_nests(self):
        outer, inner = MetricsRegistry(), MetricsRegistry()
        with use_registry(outer):
            assert active_registry() is outer
            with use_registry(inner):
                assert active_registry() is inner
                counter("c").inc()
            assert active_registry() is outer
            metric("h").observe(1)
            gauge("g").set(2)
        assert active_registry() is process_default
        assert inner.counter_value("c") == 1
        assert outer.histogram("h").count == 1
        assert outer.as_dict()["gauges"]["g"] == 2

    def test_scope_restored_after_exception(self):
        reg = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with use_registry(reg):
                raise RuntimeError("boom")
        assert active_registry() is process_default

    def test_thread_isolation(self):
        """A scope installed on one thread is invisible to another."""
        main_reg = MetricsRegistry()
        seen = {}

        def worker():
            # no scope installed on this thread: falls through to default
            seen["registry"] = active_registry()
            with use_registry(MetricsRegistry()) as thread_reg:
                counter("t.c").inc()
                seen["scoped"] = active_registry() is thread_reg
                seen["count"] = thread_reg.counter_value("t.c")

        with use_registry(main_reg):
            t = threading.Thread(target=worker)
            t.start()
            t.join()
        assert seen["registry"] is process_default
        assert seen["scoped"] is True
        assert seen["count"] == 1
        assert main_reg.counter_value("t.c") == 0
