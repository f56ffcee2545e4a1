"""Unit tests for the kernel hot paths and the repro.perf package."""

import json
from collections import deque

import numpy as np
import pytest

from repro.des import AnyOf, Environment, Event, Interrupt, Mailbox, Store, Timeout
from repro.des.core import Process
from repro.des.resources import ResourceRequest, StoreGet, StorePut
from repro.errors import SimulationError
from repro.perf import load_bench, peak_rss_bytes, write_bench


# -- timeouts ----------------------------------------------------------------


def test_held_timeout_is_never_recycled():
    # A processed timeout the generator frame still references keeps its
    # documented post-processing Event API (.value/.ok/.processed).
    env = Environment()
    seen = {}

    def holder():
        t = env.timeout(1.0, value="x")
        yield t
        yield env.timeout(1.0)
        yield env.timeout(1.0, value="z")
        seen["t_value"] = t.value
        seen["t_ok"] = t.ok
        seen["t_processed"] = t.processed

    env.process(holder())
    env.run()
    assert seen == {"t_value": "x", "t_ok": True, "t_processed": True}


def test_timeout_watched_by_condition_is_not_recycled():
    env = Environment()
    first, second = env.timeout(1.0, value="a"), env.timeout(2.0, value="b")
    got = []

    def racer():
        got.append((yield AnyOf(env, [first, second])))

    env.process(racer())
    env.run()
    # Both condition-watched timeouts stay readable after processing.
    assert got == [{first: "a"}]
    assert first.processed and second.processed
    assert (first.value, second.value) == ("a", "b")


def test_timeout_with_extra_callback_is_not_recycled():
    env = Environment()
    seen = []
    ev = env.timeout(1.0, value="x")
    ev.callbacks.append(lambda e: seen.append(e.value))
    env.run()
    assert seen == ["x"]
    # The event object stays readable after processing.
    assert ev.ok and ev.value == "x"


def test_pool_respects_explicit_timeout_values():
    env = Environment()
    got = []

    def collect():
        got.append((yield env.timeout(1.0, value="a")))
        got.append((yield env.timeout(1.0, value="b")))
        got.append((yield env.timeout(1.0)))

    env.process(collect())
    env.run()
    assert got == ["a", "b", None]


def test_timeout_until_is_float_exact():
    env = Environment()
    env.run(until=0.07)  # a now with float residue
    # 0.07 + 0.01 * k accumulated differs from 0.17 the literal; the
    # absolute-time API must hit the requested key exactly.
    target = 0.07
    for _ in range(10):
        target = target + 0.01
    fired_at = []

    def waker():
        yield env.timeout_until(target)
        fired_at.append(env.now)

    env.process(waker())
    env.run()
    assert fired_at == [target]
    with pytest.raises(SimulationError):
        env.timeout_until(env.now - 1.0)


# -- tombstoned interrupts ---------------------------------------------------


def test_interrupt_leaves_tombstone_and_stale_timer_is_ignored():
    env = Environment()
    log = []

    def sleeper():
        try:
            yield env.timeout(10.0)
            log.append("timer")
        except Interrupt:
            log.append(("interrupted", env.now))
            yield env.timeout(1.0)
            log.append(("resumed", env.now))

    def waker(p):
        yield env.timeout(3.0)
        p.interrupt("now")

    p = env.process(sleeper())
    env.process(waker(p))
    env.run()
    # The abandoned 10s timer fired at t=10 with its stale callback
    # still attached, and was dropped without resuming the process.
    assert log == [("interrupted", 3.0), ("resumed", 4.0)]
    assert p.value is None
    assert env.now == 10.0


def test_double_interrupt_delivers_both():
    env = Environment()
    hits = []

    def sleeper():
        for _ in range(2):
            try:
                yield env.timeout(100.0)
            except Interrupt as intr:
                hits.append(intr.cause)

    def waker(p):
        yield env.timeout(1.0)
        p.interrupt("first")
        p.interrupt("second")

    p = env.process(sleeper())
    env.process(waker(p))
    env.run()
    assert hits == ["first", "second"]


def test_pending_failures_is_a_deque():
    env = Environment()
    assert isinstance(env._pending_failures, deque)


# -- slots -------------------------------------------------------------------


@pytest.mark.parametrize(
    "cls", [Event, Timeout, Process, AnyOf, Store, Mailbox, StorePut,
            StoreGet, ResourceRequest]
)
def test_kernel_classes_have_no_instance_dict(cls):
    # __slots__ everywhere on the per-event classes: instance dicts are
    # pure allocation overhead at millions of events per run.
    assert not any("__dict__" in vars(c) for c in cls.__mro__[:-1]), cls


# -- parked pumps ------------------------------------------------------------


def _pump_consumer(env, link, mode, out):
    """A pump-shaped consumer: 0.01 poll grid, 0.0 re-round on progress."""
    poll = link.poll
    while True:
        progressed = False
        while True:
            ok, msg = poll()
            if not ok:
                break
            progressed = True
            out.append((env.now, msg))
            if msg == "last":
                return
        if progressed:
            yield env.timeout(0.0)
        elif mode == "parked":
            from repro.steering.api import parked_tick

            yield from parked_tick(env, link, 0.01)
        else:
            yield env.timeout(0.01)


def _run_pump_world(mode):
    from repro.net.network import Network
    from repro.steering.api import LinkAdapter

    env = Environment()
    net = Network(env)
    net.add_host("a")
    net.add_host("b")
    net.add_link("a", "b", latency=0.013, bandwidth=1e6)
    listener = net.host("b").listen(9)
    out = []

    def server():
        conn = yield from listener.accept()
        yield from _pump_consumer(env, LinkAdapter(conn), mode, out)

    def client():
        conn = yield from net.host("a").connect("b", 9)
        for i, gap in enumerate([0.037, 0.0003, 1.773, 0.25, 0.0101, 3.9]):
            yield env.timeout(gap)
            conn.send(f"m{i}")
        yield env.timeout(0.5)
        conn.send("last")

    env.process(server())
    env.process(client())
    env.run()
    return out, env.events_processed


def test_parked_pump_is_virtual_time_identical_to_polling():
    # The parked pump must process every message at exactly the virtual
    # time the polling pump would have — the float-accumulated 0.01 grid
    # — while consuming an order of magnitude fewer events.
    poll_out, poll_events = _run_pump_world("poll")
    park_out, park_events = _run_pump_world("parked")
    assert park_out == poll_out
    assert park_events < poll_events / 5


# -- wire-size memoization ---------------------------------------------------


def test_approx_size_envelope_cache_matches_reference():
    from repro.steering.control import Ack, SetParam, StatusReport
    from repro.wire import codec

    def reference(value):
        """The seed implementation, sans cache."""
        if value is None or isinstance(value, bool):
            return 1
        if isinstance(value, (int, float, np.integer, np.floating)):
            return 9
        if isinstance(value, str):
            return 5 + len(value.encode("utf-8"))
        if isinstance(value, (bytes, bytearray, memoryview)):
            return 5 + len(value)
        if isinstance(value, np.ndarray):
            return 16 + value.nbytes
        if isinstance(value, dict):
            return 5 + sum(
                reference(str(k)) + reference(v) for k, v in value.items()
            )
        if isinstance(value, (list, tuple, set)):
            return 5 + sum(reference(v) for v in value)
        inner = getattr(value, "__dict__", None)
        if isinstance(inner, dict):
            return 16 + reference(inner)
        return 64

    messages = [
        Ack(3, True, "SetParam", result=2.0),
        Ack(4, False, "Stop", error="nope"),
        SetParam(name="g", value=1.5),
        StatusReport(step=7, time=3.5, observables={"demix": 0.1},
                     parameters={"g": 1.5}, paused=False),
        {"service": "steer-1", "op": "invoke", "body": {"name": "g"}},
        [1, 2.5, "three", None, b"0123"],
        np.zeros((4, 4), dtype=np.float32),
    ]
    for msg in messages:
        # twice: cold (fills the envelope cache) and warm (uses it)
        assert codec.approx_size(msg) == reference(msg)
        assert codec.approx_size(msg) == reference(msg)


# -- unified bench emission --------------------------------------------------


def test_write_and_load_bench_roundtrip(tmp_path):
    path = write_bench(
        tmp_path / "BENCH_x.json", "x", {"k": 1}, wall_seconds=2.0,
        events=1000,
    )
    doc = load_bench(path)
    assert doc["schema"] == "repro.perf/bench-v1"
    assert doc["bench"] == "x"
    assert doc["results"] == {"k": 1}
    assert doc["perf"]["wall_seconds"] == 2.0
    assert doc["perf"]["events_per_sec"] == 500.0
    assert doc["perf"]["peak_rss_bytes"] > 0


def test_load_bench_accepts_pre_envelope_payloads(tmp_path):
    p = tmp_path / "BENCH_old.json"
    p.write_text(json.dumps({"128": {"wall_seconds": 3.0}}))
    doc = load_bench(p)
    assert doc["schema"] is None
    assert doc["results"] == {"128": {"wall_seconds": 3.0}}


def test_peak_rss_positive():
    assert peak_rss_bytes() > 0


# -- regression gate ---------------------------------------------------------


def test_gate_passes_and_fails_correctly(tmp_path, monkeypatch):
    from repro.perf import gate

    class FakeReport:
        completed = 4
        ops = 40

    monkeypatch.setattr(
        gate, "run_fleet", lambda n: (FakeReport(), 1.0, 5000)
    )
    baseline = tmp_path / "BENCH_fleet_scaling.json"
    write_bench(
        baseline, "fleet_scaling",
        {"4": {"wall_seconds": 0.9, "completed": 4, "ops": 40}},
    )
    ok, verdict = gate.check(baseline, sessions=4, threshold=0.25)
    assert ok, verdict

    # Wall regression beyond threshold fails.
    write_bench(
        baseline, "fleet_scaling",
        {"4": {"wall_seconds": 0.5, "completed": 4, "ops": 40}},
    )
    ok, verdict = gate.check(baseline, sessions=4, threshold=0.25)
    assert not ok and "regressed" in verdict

    # Workload drift fails even when faster.
    write_bench(
        baseline, "fleet_scaling",
        {"4": {"wall_seconds": 10.0, "completed": 5, "ops": 40}},
    )
    ok, verdict = gate.check(baseline, sessions=4, threshold=0.25)
    assert not ok and "drifted" in verdict

    # Missing size entry is an explicit failure, not a KeyError.
    ok, verdict = gate.check(baseline, sessions=64, threshold=0.25)
    assert not ok and "no entry" in verdict
