"""Unit tests for the discrete-event kernel."""

import pytest

from repro.des import Environment, Interrupt, Mailbox, Resource, Store, Timeout
from repro.errors import SimulationError


def test_timeout_advances_clock():
    env = Environment()
    seen = []

    def proc():
        yield env.timeout(5.0)
        seen.append(env.now)
        yield env.timeout(2.5)
        seen.append(env.now)

    env.process(proc())
    env.run()
    assert seen == [5.0, 7.5]
    assert env.now == 7.5


def test_same_time_events_fire_fifo():
    env = Environment()
    order = []

    def proc(name):
        yield env.timeout(1.0)
        order.append(name)

    for name in ("a", "b", "c"):
        env.process(proc(name))
    env.run()
    assert order == ["a", "b", "c"]


def test_process_return_value_via_run_until():
    env = Environment()

    def proc():
        yield env.timeout(1)
        return 42

    p = env.process(proc())
    assert env.run(until=p) == 42


def test_process_waits_on_other_process():
    env = Environment()

    def child():
        yield env.timeout(3)
        return "done"

    def parent():
        result = yield env.process(child())
        return (env.now, result)

    p = env.process(parent())
    assert env.run(until=p) == (3.0, "done")


def test_uncaught_process_exception_propagates():
    env = Environment()

    def bad():
        yield env.timeout(1)
        raise ValueError("boom")

    env.process(bad())
    with pytest.raises(ValueError, match="boom"):
        env.run()


def test_waiting_process_can_catch_child_failure():
    env = Environment()

    def bad():
        yield env.timeout(1)
        raise ValueError("boom")

    def parent():
        try:
            yield env.process(bad())
        except ValueError:
            return "caught"
        return "missed"

    p = env.process(parent())
    assert env.run(until=p) == "caught"


def test_yield_non_event_is_error():
    env = Environment()

    def bad():
        yield 17

    env.process(bad())
    with pytest.raises(SimulationError, match="non-event"):
        env.run()


def test_run_until_time_stops_clock_exactly():
    env = Environment()

    def ticker():
        while True:
            yield env.timeout(1)

    env.process(ticker())
    env.run(until=10.5)
    assert env.now == 10.5


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1)


def test_interrupt_delivers_cause():
    env = Environment()
    log = []

    def sleeper():
        try:
            yield env.timeout(100)
        except Interrupt as i:
            log.append((env.now, i.cause))

    def interrupter(target):
        yield env.timeout(4)
        target.interrupt("wake up")

    p = env.process(sleeper())
    env.process(interrupter(p))
    env.run()
    assert log == [(4.0, "wake up")]


def test_interrupt_before_start_lands_at_first_yield():
    # Interrupted in the instant it was created: the generator starts
    # normally and the Interrupt is thrown at its first yield.
    env = Environment()
    log = []

    def sleeper():
        log.append(("started", env.now))
        try:
            yield env.timeout(100)
        except Interrupt as i:
            log.append((env.now, i.cause))
        yield env.timeout(1)
        return "done"

    p = env.process(sleeper())
    p.interrupt("early")
    assert env.run(until=p) == "done"
    assert log == [("started", 0.0), (0.0, "early")]
    assert env.now == 1.0


def test_interrupt_before_start_of_generator_that_never_yields():
    # A generator that returns before its first yield finishes normally;
    # the interrupt still in flight is dropped.
    env = Environment()

    def quick():
        return "quick"
        yield  # pragma: no cover - makes this a generator

    p = env.process(quick())
    p.interrupt("too late")
    env.run()
    assert p.ok and p.value == "quick"


def test_interrupt_in_flight_when_process_finishes_is_dropped():
    env = Environment()

    def sleeper():
        try:
            yield env.timeout(100)
        except Interrupt as i:
            return i.cause

    def interrupter(target):
        yield env.timeout(4)
        target.interrupt("first")
        target.interrupt("second")

    p = env.process(sleeper())
    env.process(interrupter(p))
    env.run()
    assert p.value == "first"


def test_anyof_returns_first_triggered():
    env = Environment()

    def proc():
        t_short = env.timeout(1, value="short")
        t_long = env.timeout(5, value="long")
        results = yield env.any_of([t_short, t_long])
        return list(results.values())

    p = env.process(proc())
    assert env.run(until=p) == ["short"]
    assert env.now >= 1.0


def test_allof_waits_for_everything():
    env = Environment()

    def proc():
        evs = [env.timeout(d, value=d) for d in (3, 1, 2)]
        results = yield env.all_of(evs)
        return (env.now, sorted(results.values()))

    p = env.process(proc())
    assert env.run(until=p) == (3.0, [1, 2, 3])


def test_empty_anyof_succeeds_immediately():
    env = Environment()

    def proc():
        results = yield env.any_of([])
        return results

    p = env.process(proc())
    assert env.run(until=p) == {}


def test_store_fifo_order():
    env = Environment()
    out = []

    def producer(store):
        for i in range(3):
            yield store.put(i)
            yield env.timeout(1)

    def consumer(store):
        for _ in range(3):
            item = yield store.get()
            out.append((env.now, item))

    store = Store(env)
    env.process(producer(store))
    env.process(consumer(store))
    env.run()
    assert [i for _, i in out] == [0, 1, 2]


def test_store_get_blocks_until_put():
    env = Environment()
    out = []

    def consumer(store):
        item = yield store.get()
        out.append((env.now, item))

    def producer(store):
        yield env.timeout(7)
        yield store.put("x")

    store = Store(env)
    env.process(consumer(store))
    env.process(producer(store))
    env.run()
    assert out == [(7.0, "x")]


def test_store_capacity_backpressure():
    env = Environment()
    times = []

    def producer(store):
        for i in range(3):
            yield store.put(i)
            times.append(env.now)

    def consumer(store):
        yield env.timeout(10)
        yield store.get()

    store = Store(env, capacity=2)
    env.process(producer(store))
    env.process(consumer(store))
    env.run()
    # first two puts at t=0, third only after the consumer frees a slot
    assert times == [0.0, 0.0, 10.0]


def test_store_try_get():
    env = Environment()
    store = Store(env)
    ok, item = store.try_get()
    assert not ok and item is None
    store.put("a")
    env.run()
    ok, item = store.try_get()
    assert ok and item == "a"


def test_mailbox_recv_with_timeout_expires():
    env = Environment()
    box = Mailbox(env)

    def proc():
        ok, item = yield from box.recv(timeout=5.0)
        return (ok, item, env.now)

    p = env.process(proc())
    assert env.run(until=p) == (False, None, 5.0)
    # The withdrawn get must not steal a later item.
    box.put("late")
    env.run()
    assert len(box) == 1


def test_mailbox_recv_gets_item_before_timeout():
    env = Environment()
    box = Mailbox(env)

    def producer():
        yield env.timeout(2)
        yield box.put("msg")

    def proc():
        ok, item = yield from box.recv(timeout=5.0)
        return (ok, item, env.now)

    env.process(producer())
    p = env.process(proc())
    assert env.run(until=p) == (True, "msg", 2.0)


def test_resource_mutual_exclusion():
    env = Environment()
    log = []

    def worker(name, res):
        req = res.request()
        yield req
        log.append((env.now, name, "acq"))
        yield env.timeout(5)
        req.release()

    res = Resource(env, capacity=1)
    env.process(worker("a", res))
    env.process(worker("b", res))
    env.run()
    assert log == [(0.0, "a", "acq"), (5.0, "b", "acq")]


def test_resource_capacity_two():
    env = Environment()
    acq_times = []

    def worker(res):
        req = res.request()
        yield req
        acq_times.append(env.now)
        yield env.timeout(3)
        req.release()

    res = Resource(env, capacity=2)
    for _ in range(4):
        env.process(worker(res))
    env.run()
    assert acq_times == [0.0, 0.0, 3.0, 3.0]


def test_run_until_event_raises_if_schedule_drains():
    env = Environment()
    ev = env.event()
    with pytest.raises(SimulationError, match="drained"):
        env.run(until=ev)


def test_event_double_trigger_rejected():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_nan_is_rejected_at_every_time_entry_point():
    nan = float("nan")
    env = Environment()
    with pytest.raises(SimulationError):
        Timeout(env, nan)
    with pytest.raises(SimulationError):
        env.timeout(nan)
    with pytest.raises(SimulationError):
        env.timeout_until(nan)
    with pytest.raises(SimulationError):
        env.run(until=nan)
    assert env.now == 0.0
    assert env.pending == 0
    # +inf stays a legal "never" on every entry point.
    Timeout(env, float("inf"))
    env.timeout(float("inf"))
    env.timeout_until(float("inf"))
    env.run(until=float("inf"))
    assert env.now == float("inf")


# -- the event queue ---------------------------------------------------------


def test_environment_pending_and_peek():
    env = Environment()
    assert env.pending == 0
    assert env.peek() == float("inf")
    env.timeout(3.0)
    env.timeout(1.0)
    assert env.pending == 2
    assert env.peek() == 1.0
    env.run()
    assert env.pending == 0
    assert env.peek() == float("inf")


def test_step_on_empty_schedule_raises():
    env = Environment()
    with pytest.raises(SimulationError, match="empty schedule"):
        env.step()
