"""The kernel's event-queue contract.

Events pop in ``(time, priority, seq)`` order: earliest first, URGENT
before NORMAL at one instant, then FIFO.  These tests pin that at two
levels: raw queue order (including far-horizon and +inf times), and
whole-workload event traces of random worlds with timeouts, interrupts
and conditions.

The kernel's only queue is the ``heapq`` heap, so the ``[heap]`` cases
keep the ids they had while a calendar-queue backend also ran them.  The
trace tests replay ``tests/golden/des_kernel_traces.json``, recorded
while both backends ran every world and agreed, so the kernel must still
produce the trace both backends produced.
"""

import hashlib
import json
import pathlib
import random

import pytest

from repro.des import Environment, Interrupt
from repro.des.core import NORMAL, URGENT

GOLDEN = pathlib.Path(__file__).parent / "golden"
STRESSED = (20, 25)  # (n_procs, n_steps) of the biggest recorded worlds


def _fire_order(plan):
    """Enqueue one pre-succeeded event per ``(time, priority)`` in
    ``plan`` and return the plan indices in the order they fired."""
    env = Environment()
    fired = []
    for i, (t, prio) in enumerate(plan):
        ev = env.event()
        ev._ok, ev._value = True, None
        ev.callbacks.append(lambda e, i=i: fired.append(i))
        env._enqueue(ev, prio, t)
    return env, fired


def _expected(plan):
    return sorted(range(len(plan)), key=lambda i: (*plan[i], i))


# -- raw pop-order contract --------------------------------------------------


@pytest.mark.parametrize("backend", ["heap"])
def test_pop_order_is_time_priority_seq(backend):
    plan = [
        (5.0, NORMAL),
        (0.5, NORMAL),
        (0.5, URGENT),  # URGENT beats NORMAL at the same instant
        (0.5, NORMAL),  # seq breaks the final tie
        (12.25, NORMAL),
        (0.5, URGENT),
    ]
    env, fired = _fire_order(plan)
    env.run()
    assert fired == _expected(plan)


@pytest.mark.parametrize("backend", ["heap"])
def test_far_horizon_and_inf_items_order_correctly(backend):
    plan = [
        (float("inf"), NORMAL),
        (1e19, NORMAL),
        (2.0, NORMAL),
        (1e9, NORMAL),  # a sleep-forever sentinel
    ]
    env, fired = _fire_order(plan)
    assert env.peek() == 2.0
    env.run()
    assert fired == _expected(plan)


# -- whole-kernel traces -----------------------------------------------------


def _random_world(seed, n_procs, n_steps, quantum=None):
    """A random world of timeouts, interrupts and conditions; returns
    the exact (time, pid, step, tag) trace of every resume.  A
    ``quantum`` snaps every delay down to its grid, so many events share
    an instant and the (priority, seq) tie-break decides the trace."""
    env = Environment()
    trace = []
    procs = []

    def worker(i, rng_seed):
        rng = random.Random(rng_seed)

        def delay(scale):
            d = rng.random() * scale
            return d if quantum is None else quantum * int(d / quantum)

        for k in range(n_steps):
            roll = rng.random()
            try:
                if roll < 0.55:
                    yield env.timeout(delay(8.0))
                    tag = "t"
                elif roll < 0.7:
                    yield env.any_of([env.timeout(delay(4.0)) for _ in range(2)])
                    tag = "any"
                elif roll < 0.85:
                    yield env.all_of([env.timeout(delay(4.0)) for _ in range(2)])
                    tag = "all"
                else:
                    # Only poke lower-index workers, as the recorded
                    # traces did (the rng draws depend on it).
                    if i and (victim := procs[rng.randrange(i)]).is_alive:
                        victim.interrupt(("poke", i, k))
                    yield env.timeout(delay(2.0))
                    tag = "poke"
            except Interrupt as intr:
                tag = ("intr", intr.cause)
            trace.append((env.now, i, k, tag))
        # Park instead of returning, as the recorded traces did: a
        # parked worker logs the pokes that reach it after its last step.
        while True:
            try:
                yield env.timeout(1e9)
            except Interrupt as intr:
                trace.append((env.now, i, "parked", intr.cause))

    master = random.Random(seed)
    for i in range(n_procs):
        procs.append(env.process(worker(i, master.randrange(2**30))))
    env.run(until=1000.0)
    return trace, env.now, env.events_processed


def _recorded_cases(stressed):
    cases = json.loads((GOLDEN / "des_kernel_traces.json").read_text())["cases"]
    return [c for c in cases if ((c["n_procs"], c["n_steps"]) == STRESSED) == stressed]


def _assert_replays(case):
    # The golden pins the resume trace (as sha256 of its JSON), the final
    # clock and the event count: any kernel change that reorders a single
    # event — a new queue, a dispatch shortcut, a priority slip — moves it.
    trace, now, events = _random_world(
        case["seed"], case["n_procs"], case["n_steps"], case["quantum"]
    )
    got = {
        **case,
        "trace_sha256": hashlib.sha256(json.dumps(trace).encode()).hexdigest(),
        "now": now,
        "events_processed": events,
    }
    assert got == case


def test_property_backends_produce_identical_traces():
    # Worlds spanning 2-12 processes x 1-15 steps, with continuous and
    # grid-snapped (tie-heavy) delays.
    cases = _recorded_cases(stressed=False)
    assert len(cases) == 31
    for case in cases:
        _assert_replays(case)


def test_backends_identical_on_stressed_calendar_geometry():
    # The 20-process x 25-step world that forced calendar resizes mid-run,
    # once with continuous delays and once snapped to a 0.25 s grid.
    cases = _recorded_cases(stressed=True)
    assert [(c["seed"], c["quantum"]) for c in cases] == [(99, None), (99, 0.25)]
    for case in cases:
        _assert_replays(case)
