"""Simulated-network tests: latency/bandwidth model, firewalls, multicast."""

import pytest

from repro.des import Environment
from repro.errors import (
    ChannelClosed,
    ConnectionRefused,
    FirewallBlocked,
    HostUnreachable,
    NetworkError,
    TimeoutExpired,
)
from repro.net import Firewall, MulticastGroup, Network, SyncPipe, UnicastBridge


def make_net(env, latency=0.010, bandwidth=1e6):
    net = Network(env)
    net.add_host("a")
    net.add_host("b")
    net.add_link("a", "b", latency=latency, bandwidth=bandwidth)
    return net


def test_connect_and_message_latency():
    env = Environment()
    net = make_net(env)
    times = {}

    def server():
        lst = net.host("b").listen(4000)
        conn = yield from lst.accept()
        msg = yield from conn.recv()
        times["recv"] = (env.now, msg)

    def client():
        conn = yield from net.host("a").connect("b", 4000)
        times["connected"] = env.now
        conn.send(b"x" * 1000)

    env.process(server())
    env.process(client())
    env.run()
    # handshake = one RTT (2 * latency) + 2 control serializations
    assert times["connected"] == pytest.approx(0.020, rel=0.02)
    # message: 1000 B / 1e6 B/s = 1 ms serialize + 10 ms latency after connect
    t_recv, msg = times["recv"]
    assert msg == b"x" * 1000
    assert t_recv == pytest.approx(times["connected"] + 0.011, rel=0.02)


def test_bandwidth_serialization_queues_transfers():
    env = Environment()
    net = make_net(env, latency=0.0, bandwidth=1000.0)  # 1000 B/s
    arrivals = []

    def server():
        lst = net.host("b").listen(1)
        conn = yield from lst.accept()
        for _ in range(3):
            yield from conn.recv()
            arrivals.append(env.now)

    def client():
        conn = yield from net.host("a").connect("b", 1)
        for _ in range(3):
            conn.send(b"y" * 1000)  # 1 s serialization each

    env.process(server())
    env.process(client())
    env.run()
    # Transfers serialize: deliveries ~1 s apart.
    assert arrivals[1] - arrivals[0] == pytest.approx(1.0, rel=0.01)
    assert arrivals[2] - arrivals[1] == pytest.approx(1.0, rel=0.01)


def test_connection_refused_when_not_listening():
    env = Environment()
    net = make_net(env)
    result = {}

    def client():
        try:
            yield from net.host("a").connect("b", 9999)
        except ConnectionRefused:
            result["refused_at"] = env.now

    env.process(client())
    env.run()
    assert result["refused_at"] == pytest.approx(0.020, rel=0.02)


def test_firewall_blocks_non_gateway_port():
    env = Environment()
    net = Network(env)
    net.add_host("a")
    net.add_host("hpc", firewall=Firewall.single_port(4433))
    outcomes = {}

    def setup():
        net.host("hpc").listen(4433)
        net.host("hpc").listen(5555)
        if False:
            yield

    def client():
        conn = yield from net.host("a").connect("hpc", 4433)
        outcomes["gateway"] = conn is not None
        try:
            yield from net.host("a").connect("hpc", 5555)
        except FirewallBlocked:
            outcomes["blocked"] = True

    net.host("hpc").listen(4433)
    net.host("hpc").listen(5555)
    env.process(client())
    env.run()
    assert outcomes == {"gateway": True, "blocked": True}


def test_nat_host_cannot_accept_but_can_connect():
    env = Environment()
    net = Network(env)
    net.add_host("pub")
    net.add_host("natbox", nat=True)
    net.host("natbox").listen(80)
    net.host("pub").listen(80)
    outcomes = {}

    def client():
        try:
            yield from net.host("pub").connect("natbox", 80)
        except FirewallBlocked:
            outcomes["inbound_blocked"] = True
        conn = yield from net.host("natbox").connect("pub", 80)
        outcomes["outbound_ok"] = conn is not None

    env.process(client())
    env.run()
    assert outcomes == {"inbound_blocked": True, "outbound_ok": True}


def test_unknown_host_unreachable():
    env = Environment()
    net = make_net(env)

    def client():
        yield from net.host("a").connect("nowhere", 1)

    env.process(client())
    with pytest.raises(HostUnreachable):
        env.run()


def test_recv_timeout():
    env = Environment()
    net = make_net(env)
    result = {}

    def server():
        lst = net.host("b").listen(1)
        conn = yield from lst.accept()
        try:
            yield from conn.recv(timeout=0.5)
        except TimeoutExpired:
            result["timed_out_at"] = env.now

    def client():
        yield from net.host("a").connect("b", 1)

    env.process(server())
    env.process(client())
    env.run()
    assert result["timed_out_at"] == pytest.approx(0.020 + 0.5, rel=0.05)


def test_close_propagates_to_peer():
    env = Environment()
    net = make_net(env)
    result = {}

    def server():
        lst = net.host("b").listen(1)
        conn = yield from lst.accept()
        try:
            yield from conn.recv()
        except ChannelClosed:
            result["closed"] = True

    def client():
        conn = yield from net.host("a").connect("b", 1)
        conn.close()
        with pytest.raises(ChannelClosed):
            conn.send(b"after close")

    env.process(server())
    env.process(client())
    env.run()
    assert result.get("closed")


def test_try_recv_nonblocking():
    env = Environment()
    net = make_net(env)
    result = {}

    def server():
        lst = net.host("b").listen(1)
        conn = yield from lst.accept()
        ok, _ = conn.try_recv()
        result["early"] = ok
        yield env.timeout(1.0)
        ok, msg = conn.try_recv()
        result["late"] = (ok, msg)

    def client():
        conn = yield from net.host("a").connect("b", 1)
        conn.send(b"m")

    env.process(server())
    env.process(client())
    env.run()
    assert result["early"] is False
    assert result["late"] == (True, b"m")


def test_traffic_accounting():
    env = Environment()
    net = make_net(env)

    def server():
        lst = net.host("b").listen(1)
        conn = yield from lst.accept()
        yield from conn.recv()

    def client():
        conn = yield from net.host("a").connect("b", 1)
        conn.send(b"z" * 5000)

    env.process(server())
    env.process(client())
    env.run()
    assert net.bytes_between("a", "b") >= 5000
    assert net.total_bytes() >= 5000


def test_link_added_after_connect_carries_later_sends():
    # A connection opened over the implicit default link routes every
    # later send over a link added with add_link(), at its latency.
    env = Environment()
    net = Network(env, default_latency=0.050, default_bandwidth=1e6)
    net.add_host("a")
    net.add_host("b")
    sent = []
    arrivals = []
    links = []

    def server():
        lst = net.host("b").listen(1)
        conn = yield from lst.accept()
        for _ in range(2):
            msg = yield from conn.recv()
            arrivals.append((env.now, msg))

    def client():
        conn = yield from net.host("a").connect("b", 1)
        sent.append(env.now)
        conn.send(b"x" * 1000)
        yield env.timeout(1.0)
        links.extend(net.add_link("a", "b", latency=0.200, bandwidth=1e6))
        sent.append(env.now)
        conn.send(b"y" * 1000)

    env.process(server())
    env.process(client())
    env.run()
    # 1000 B at 1e6 B/s = 1 ms serialization, then the link's latency.
    assert arrivals[0][0] == pytest.approx(sent[0] + 0.051)
    assert arrivals[1][0] == pytest.approx(sent[1] + 0.201)
    assert [msg for _, msg in arrivals] == [b"x" * 1000, b"y" * 1000]
    assert links[0].bytes_carried == 1000


def test_duplicate_host_rejected():
    env = Environment()
    net = Network(env)
    net.add_host("x")
    with pytest.raises(NetworkError):
        net.add_host("x")


def test_duplicate_listen_rejected():
    env = Environment()
    net = make_net(env)
    net.host("a").listen(7)
    with pytest.raises(NetworkError):
        net.host("a").listen(7)


def test_multicast_fanout_single_send():
    env = Environment()
    net = Network(env)
    for name in ("src", "r1", "r2", "r3"):
        net.add_host(name)
        if name != "src":
            net.add_link("src", name, latency=0.005 * (1 + "r1 r2 r3".split().index(name)), bandwidth=1e7)
    group = MulticastGroup(net, "233.0.0.1")
    boxes = {n: group.join(net.host(n)) for n in ("r1", "r2", "r3")}
    group.join(net.host("src"))
    arrivals = {}

    def receiver(name):
        payload = yield boxes[name].get()
        arrivals[name] = (env.now, payload)

    for n in boxes:
        env.process(receiver(n))

    def sender():
        yield env.timeout(0.001)
        group.send(net.host("src"), b"frame", size=1000)

    env.process(sender())
    env.run()
    assert set(arrivals) == {"r1", "r2", "r3"}
    # Arrival order follows per-receiver latency.
    assert arrivals["r1"][0] < arrivals["r2"][0] < arrivals["r3"][0]
    assert group.packets_sent == 1


def test_multicast_requires_native_support():
    env = Environment()
    net = Network(env)
    net.add_host("nomcast", multicast=False)
    group = MulticastGroup(net, "233.0.0.2")
    with pytest.raises(NetworkError):
        group.join(net.host("nomcast"))


def test_unicast_bridge_relays_to_firewalled_site():
    env = Environment()
    net = Network(env)
    net.add_host("src")
    net.add_host("bridge")
    net.add_host("cave", multicast=False, firewall=Firewall.closed())
    group = MulticastGroup(net, "233.0.0.3")
    group.join(net.host("src"))
    bridge = UnicastBridge(group, net.host("bridge"))
    cave_box = bridge.attach(net.host("cave"))
    got = {}

    def receiver():
        payload = yield cave_box.get()
        got["payload"] = (env.now, payload)

    def sender():
        yield env.timeout(0.01)
        group.send(net.host("src"), b"video", size=2000)

    env.process(receiver())
    env.process(sender())
    env.run()
    assert got["payload"][1] == b"video"
    assert bridge.relayed_packets == 1


def test_bridge_send_from_unicast_site():
    env = Environment()
    net = Network(env)
    net.add_host("src")
    net.add_host("bridge")
    net.add_host("cave", multicast=False)
    group = MulticastGroup(net, "g")
    src_box = group.join(net.host("src"))
    bridge = UnicastBridge(group, net.host("bridge"))
    bridge.attach(net.host("cave"))
    got = {}

    def receiver():
        payload = yield src_box.get()
        got["payload"] = payload

    def sender():
        yield env.timeout(0.01)
        bridge.send_from(net.host("cave"), b"cave-view", size=500)

    env.process(receiver())
    env.process(sender())
    env.run()
    assert got["payload"] == b"cave-view"


def test_sync_pipe():
    pipe = SyncPipe()
    a, b = pipe.ends()
    a.send(b"ping")
    assert b.poll() == (True, b"ping")
    assert b.poll() == (False, None)
    b.send(b"pong")
    assert a.recv() == b"pong"
    with pytest.raises(LookupError):
        a.recv()
    b.close()
    with pytest.raises(ConnectionError):
        a.send(b"x")
