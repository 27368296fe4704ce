"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.engine import Engine, SimulationError


def noop(_):
    pass


def fired_never(_):
    raise AssertionError("a rejected event fired")


class TestOrdering:
    def test_time_order(self):
        engine = Engine()
        fired = []
        engine.at(20, fired.append, "b")
        engine.at(10, fired.append, "a")
        engine.run()
        assert fired == ["a", "b"]
        assert engine.now == 20

    def test_fifo_within_cycle(self):
        engine = Engine()
        fired = []
        engine.at(5, fired.append, 1)
        engine.at(5, fired.append, 2)
        engine.at(5, fired.append, 3)
        engine.run()
        assert fired == [1, 2, 3]

    def test_after_is_relative(self):
        """Relative scheduling is ``at(now + delay, ...)``."""
        engine = Engine()
        times = []

        def record(_):
            times.append(engine.now)

        engine.at(10, lambda _: engine.at(engine.now + 5, record, None), None)
        engine.run()
        assert times == [15]

    def test_events_scheduled_during_run(self):
        engine = Engine()
        fired = []

        def chain(n):
            fired.append(n)
            if n < 3:
                engine.at(engine.now + 1, chain, n + 1)

        engine.at(0, chain, 0)
        engine.run()
        assert fired == [0, 1, 2, 3]

    def test_same_cycle_events_scheduled_from_callbacks_run_fifo(self):
        """An event scheduled *for the current cycle* from inside a
        callback runs this cycle, after everything already queued —
        the property the DRAM same-cycle submit batching rests on."""
        engine = Engine()
        fired = []

        def first(_):
            fired.append("a")
            engine.at(5, fired.append, "flush")

        engine.at(5, first, None)
        engine.at(5, fired.append, "b")
        engine.at(6, fired.append, "next-cycle")
        engine.run()
        assert fired == ["a", "b", "flush", "next-cycle"]

    def test_zero_delay_after_is_same_cycle_fifo(self):
        engine = Engine()
        fired = []
        engine.at(3, lambda _: engine.at(engine.now, fired.append, "late"), None)
        engine.at(3, fired.append, "early")
        engine.run()
        assert engine.now == 3
        assert fired == ["early", "late"]


class TestClosureFreeScheduling:
    """``at(time, fn, arg)`` is the closure-free form the engine kept
    (formerly ``at_call``/``after_call``; the test names keep it)."""

    def test_at_call_passes_arg(self):
        engine = Engine()
        fired = []
        engine.at(4, fired.append, "payload")
        engine.run()
        assert fired == ["payload"]
        assert engine.now == 4

    def test_after_call_is_relative(self):
        """The payload is bound when the event is scheduled, not when
        it fires."""
        engine = Engine()
        fired = []
        engine.at(
            10, lambda _: engine.at(engine.now + 5, fired.append, engine.now),
            None,
        )
        engine.run()
        assert fired == [10]
        assert engine.now == 15

    def test_none_is_a_valid_arg(self):
        engine = Engine()
        fired = []
        engine.at(1, fired.append, None)
        engine.run()
        assert fired == [None]

    def test_fifo_order_interleaves_both_forms(self):
        """Closures and pre-bound callbacks on one cycle share one FIFO."""
        engine = Engine()
        fired = []
        engine.at(3, lambda _: fired.append("a"), None)
        engine.at(3, fired.append, "b")
        engine.at(3, lambda _: fired.append("c"), None)
        engine.run()
        assert fired == ["a", "b", "c"]

    def test_after_call_negative_delay_rejected(self):
        """A rejected event is never queued."""
        engine = Engine()
        engine.at(2, noop, None)
        engine.run()
        with pytest.raises(SimulationError, match="cannot schedule"):
            engine.at(engine.now - 1, fired_never, "payload")
        assert engine.pending == 0


class TestTimeValidation:
    def test_whole_float_times_are_normalized(self):
        engine = Engine()
        fired = []
        engine.at(10.0, lambda _: fired.append(engine.now), None)
        engine.run()
        assert fired == [10]
        assert isinstance(engine.now, int)

    def test_fractional_time_raises_instead_of_truncating(self):
        engine = Engine()
        with pytest.raises(SimulationError, match="integral"):
            engine.at(10.5, noop, None)
        assert engine.pending == 0

    def test_fractional_delay_raises(self):
        engine = Engine()
        with pytest.raises(SimulationError, match="integral"):
            engine.at(engine.now + 0.25, noop, None)

    def test_fractional_at_call_raises(self):
        """Validation does not depend on the payload."""
        engine = Engine()
        with pytest.raises(SimulationError, match="integral"):
            engine.at(3.7, fired_never, "payload")
        assert engine.pending == 0

    def test_non_numeric_time_raises_simulation_error(self):
        engine = Engine()
        with pytest.raises(SimulationError, match="integral"):
            engine.at("soon", noop, None)

    def test_nan_and_inf_rejected(self):
        engine = Engine()
        for bogus in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(SimulationError, match="integral"):
                engine.at(bogus, noop, None)

    def test_numpy_integral_scalar_accepted(self):
        np = pytest.importorskip("numpy")
        engine = Engine()
        fired = []
        engine.at(np.int64(7), lambda _: fired.append(engine.now), None)
        engine.run()
        assert fired == [7]


class TestLimits:
    def test_until_stops_clock(self):
        engine = Engine()
        fired = []
        engine.at(10, fired.append, 10)
        engine.at(100, fired.append, 100)
        engine.run(until=50)
        assert fired == [10]
        assert engine.now == 50
        assert engine.pending == 1

    def test_max_events_guard(self):
        engine = Engine()

        def forever(_):
            engine.at(engine.now + 1, forever, None)

        engine.at(0, forever, None)
        with pytest.raises(SimulationError, match="max_events"):
            engine.run(max_events=100)

    def test_exact_max_events_completion_is_not_an_error(self):
        """A model that finishes on exactly its last allowed event
        completed normally — exhaustion is only an error while work
        remains queued."""
        engine = Engine()
        fired = []
        for t in range(5):
            engine.at(t, fired.append, t)
        assert engine.run(max_events=5) == 4
        assert fired == [0, 1, 2, 3, 4]
        assert engine.pending == 0

    def test_max_events_exhaustion_with_pending_work_raises(self):
        engine = Engine()
        for t in range(6):
            engine.at(t, noop, None)
        with pytest.raises(SimulationError, match="max_events"):
            engine.run(max_events=5)
        # The guard fired with the sixth event still queued.
        assert engine.pending == 1

    def test_past_scheduling_rejected(self):
        engine = Engine()
        engine.at(10, noop, None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.at(5, noop, None)

    def test_past_scheduling_from_inside_callback_raises(self):
        """A callback that schedules into the past is a model bug; the
        error must surface out of run(), not be swallowed."""
        engine = Engine()
        engine.at(10, lambda _: engine.at(9, noop, None), None)
        with pytest.raises(SimulationError, match="cannot schedule"):
            engine.run()
        assert engine.now == 10

    def test_negative_after_from_inside_callback_raises(self):
        engine = Engine()
        engine.at(4, lambda _: engine.at(engine.now - 2, noop, None), None)
        with pytest.raises(SimulationError, match="cannot schedule"):
            engine.run()

    def test_negative_delay_rejected(self):
        engine = Engine()
        with pytest.raises(SimulationError, match="cannot schedule"):
            engine.at(engine.now - 1, noop, None)

    def test_queue_resumable_after_callback_error(self):
        """A propagating callback error consumes only the failing
        event; the rest of the cycle's FIFO survives and a later run()
        picks up exactly where the engine stopped."""
        engine = Engine()
        fired = []

        def boom(_):
            raise ValueError("model bug")

        engine.at(5, fired.append, "before")
        engine.at(5, boom, None)
        engine.at(5, fired.append, "after")
        with pytest.raises(ValueError, match="model bug"):
            engine.run()
        assert fired == ["before"]
        assert engine.pending == 1
        engine.run()
        assert fired == ["before", "after"]
        assert engine.pending == 0

    def test_nested_run_rejected(self):
        """run() is not re-entrant (the drain cursor is engine state);
        a callback that calls run() gets a clear error instead of
        silently replaying the current cycle."""
        engine = Engine()
        errors = []

        def nested(_):
            try:
                engine.run()
            except SimulationError as exc:
                errors.append(str(exc))

        fired = []
        engine.at(1, nested, None)
        engine.at(1, fired.append, "after")
        engine.run()
        assert errors and "re-entrant" in errors[0]
        assert fired == ["after"]  # outer run continues normally

    def test_events_processed_counter(self):
        engine = Engine()
        for t in range(5):
            engine.at(t, noop, None)
        engine.run()
        assert engine.events_processed == 5
