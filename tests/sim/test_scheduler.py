"""Tests for the virtual-time scheduler."""

import pytest

from repro.sim.scheduler import EventScheduler


class TestOrdering:
    def test_runs_in_time_order(self):
        s = EventScheduler()
        log = []
        s.at(3.0, lambda: log.append("c"))
        s.at(1.0, lambda: log.append("a"))
        s.at(2.0, lambda: log.append("b"))
        s.run()
        assert log == ["a", "b", "c"]

    def test_ties_broken_by_insertion_order(self):
        s = EventScheduler()
        log = []
        s.at(1.0, lambda: log.append("first"))
        s.at(1.0, lambda: log.append("second"))
        s.run()
        assert log == ["first", "second"]

    def test_now_advances(self):
        s = EventScheduler()
        seen = []
        s.at(5.0, lambda: seen.append(s.now))
        s.run()
        assert seen == [5.0]
        assert s.now == 5.0

    def test_callbacks_can_schedule(self):
        s = EventScheduler()
        log = []

        def first():
            log.append("first")
            s.after(1.0, lambda: log.append("second"))

        s.at(1.0, first)
        s.run()
        assert log == ["first", "second"]
        assert s.now == 2.0


class TestBounds:
    def test_max_time_stops_early(self):
        s = EventScheduler()
        log = []
        s.at(1.0, lambda: log.append(1))
        s.at(10.0, lambda: log.append(10))
        s.run(max_time=5.0)
        assert log == [1]
        assert s.pending == 1

    def test_max_steps(self):
        s = EventScheduler()
        log = []
        for i in range(5):
            s.at(float(i + 1), lambda i=i: log.append(i))
        s.run(max_steps=3)
        assert log == [0, 1, 2]

    def test_steps_executed_counter(self):
        s = EventScheduler()
        s.at(1.0, lambda: None)
        s.at(2.0, lambda: None)
        s.run()
        assert s.steps_executed == 2


class TestValidation:
    def test_cannot_schedule_in_past(self):
        s = EventScheduler()
        s.at(5.0, lambda: None)
        s.run()
        with pytest.raises(ValueError):
            s.at(1.0, lambda: None)

    def test_negative_delay(self):
        s = EventScheduler()
        with pytest.raises(ValueError):
            s.after(-1.0, lambda: None)

    def test_nan_time_is_refused(self):
        # a NaN entry would run before every other and set `now` to NaN
        s = EventScheduler()
        for schedule in (s.at, s.after):
            with pytest.raises(ValueError):
                schedule(float("nan"), lambda: None)
        assert s.pending == 0


class TestTimerCancellation:
    def test_cancelled_timer_does_not_fire(self):
        s = EventScheduler()
        log = []
        handle = s.timer(2.0, lambda: log.append("x"))
        s.at(1.0, lambda: log.append("a"))
        handle.cancel()
        s.run()
        assert log == ["a"]

    def test_cancel_updates_pending_count(self):
        s = EventScheduler()
        h = s.timer(1.0, lambda: None)
        s.at(2.0, lambda: None)
        assert s.pending == 2
        h.cancel()
        assert s.pending == 1
        s.run()
        assert s.pending == 0

    def test_cancel_is_idempotent(self):
        s = EventScheduler()
        h = s.timer(1.0, lambda: None)
        h.cancel()
        h.cancel()
        assert s.pending == 0
        s.run()

    def test_cancel_after_execution_is_harmless(self):
        s = EventScheduler()
        h = s.timer(1.0, lambda: None)
        s.at(2.0, lambda: None)
        s.run(max_time=1.5)
        h.cancel()  # already fired; must not skew bookkeeping
        assert s.pending == 1
        s.run()
        assert s.pending == 0

    def test_skipping_cancelled_head_does_not_advance_time(self):
        s = EventScheduler()
        seen = []
        h = s.timer(5.0, lambda: None)
        s.at(7.0, lambda: seen.append(s.now))
        h.cancel()
        s.run()
        assert seen == [7.0]
        assert s.steps_executed == 1

    def test_cancel_from_earlier_callback(self):
        s = EventScheduler()
        log = []
        h = s.timer(3.0, lambda: log.append("late"))
        s.at(1.0, h.cancel)
        s.run()
        assert log == []


class TestHeapCompaction:
    def test_mass_cancellation_shrinks_heap(self):
        s = EventScheduler()
        handles = [s.timer(float(i + 1), lambda: None) for i in range(400)]
        assert s.heap_size == 400
        for h in handles[:360]:
            h.cancel()
        # heaps whose dead entries outnumber the live ones get rebuilt: the
        # physical heap shrinks to the live entries plus a bounded residue
        assert s.compactions >= 1
        assert s.pending == 40
        assert s.heap_size < 400 // 2
        assert (s.heap_size - s.pending) <= s.heap_size

    def test_compaction_threshold_proportional_to_live(self):
        s = EventScheduler()
        handles = [s.timer(float(i + 1), lambda: None) for i in range(200)]
        for h in handles[:100]:
            h.cancel()
        # 100 dead vs 100 live: dead do not outnumber live, no rebuild yet
        assert s.compactions == 0
        assert s.heap_size == 200
        handles[100].cancel()
        assert s.compactions == 1
        assert s.heap_size == 99  # exactly the live entries

    def test_compaction_floor_below_min_dead(self):
        # dead > live but below the absolute floor: tiny heaps must not
        # re-heapify on every other cancel
        s = EventScheduler()
        handles = [s.timer(float(i + 1), lambda: None) for i in range(10)]
        for h in handles:
            h.cancel()
        assert s.compactions == 0
        assert s.pending == 0

    def test_pathological_cancel_heavy_schedule_is_amortized(self):
        # the retransmission-timer pattern taken to the extreme: every
        # timer is cancelled right after being scheduled.  The heap must
        # stay bounded (no unbounded garbage) *and* compactions must stay
        # rare (no O(n) rebuild per cancel — the regression this pins).
        s = EventScheduler()
        for i in range(1000):
            s.timer(float(i + 1), lambda: None).cancel()
            assert s.pending == 0  # exact throughout
        assert s.heap_size <= 128  # bounded by the compaction floor
        assert 1 <= s.compactions <= 1000 // 64 + 1
        s.run()
        assert s.steps_executed == 0

    def test_cancel_heavy_with_live_entries_bounded(self):
        s = EventScheduler()
        live = [s.timer(1000.0 + i, lambda: None) for i in range(10)]
        for i in range(2000):
            s.timer(float(i + 1), lambda: None).cancel()
        assert s.pending == 10
        # heap stays within live + floor-bounded dead residue at all times
        assert s.heap_size <= 10 + 128
        assert all(not h.cancelled for h in live)

    def test_order_preserved_across_compaction(self):
        s = EventScheduler()
        log = []
        keep = []
        for i in range(200):
            h = s.timer(float(200 - i), lambda i=i: log.append(i))
            if i % 5 == 0:
                keep.append((200 - i, i))
            else:
                h.cancel()
        assert s.compactions >= 1
        s.run()
        assert log == [i for _t, i in sorted(keep)]
        assert s.pending == 0

    def test_tie_order_preserved_across_compaction(self):
        s = EventScheduler()
        log = []
        for i in range(8):
            s.at(1.0, lambda i=i: log.append(i))
        doomed = [s.timer(2.0, lambda: None) for _ in range(100)]
        for h in doomed:
            h.cancel()
        assert s.compactions >= 1
        s.run()
        assert log == list(range(8))  # insertion order kept at equal times

    def test_cancel_during_run_can_compact(self):
        s = EventScheduler()
        doomed = [s.timer(float(i + 10), lambda: None) for i in range(100)]
        fired = []
        s.at(1.0, lambda: ([h.cancel() for h in doomed], fired.append(True)))
        s.run()
        assert fired == [True]
        assert s.compactions >= 1
        assert s.pending == 0


class TestArguments:
    """A scheduled callback is a function and its arguments."""

    def test_at_and_after_pass_arguments(self):
        s = EventScheduler()
        log = []
        s.at(1.0, log.append, "a")
        s.after(2.0, lambda x, y: log.append(x + y), 1, 2)
        s.at(3.0, log.extend, ("b", "c"))
        s.run()
        assert log == ["a", 3, "b", "c"]

    def test_plain_scheduling_returns_no_handle(self):
        s = EventScheduler()
        assert s.at(1.0, lambda: None) is None
        assert s.after(1.0, print, "unused") is None
        assert s.pending == 2

    def test_timer_passes_arguments_and_cancels(self):
        s = EventScheduler()
        log = []
        kept = s.timer(1.0, log.append, "kept")
        dropped = s.timer(2.0, log.append, "dropped")
        dropped.cancel()
        s.run()
        assert log == ["kept"]
        assert kept.cancelled and dropped.cancelled
        assert s.steps_executed == 1

    def test_timer_refuses_negative_and_nan_delays(self):
        s = EventScheduler()
        for delay in (-1.0, float("nan")):
            with pytest.raises(ValueError):
                s.timer(delay, lambda: None)
        assert s.pending == 0

    def test_ties_keep_insertion_order_across_timer_and_at(self):
        s = EventScheduler()
        log = []
        s.timer(1.0, log.append, 0)
        s.at(1.0, log.append, 1)
        s.after(1.0, log.append, 2)
        s.run()
        assert log == [0, 1, 2]

    def test_each_entry_keeps_its_own_arguments(self):
        s = EventScheduler()
        log = []
        for i in range(5):
            s.after(float(5 - i), log.append, i)
        s.run()
        assert log == [4, 3, 2, 1, 0]
