"""Live TCP cluster: framing, full runs, crash tolerance."""

import gc
import json
import random
import socket
import threading
import time
import warnings
from selectors import EVENT_READ, EVENT_WRITE
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from ohram.checker import check_bruteforce, check_history, check_witness
from ohram.core import (
    KIND_READ_ACK,
    KIND_READ_RELAY,
    KIND_READ_REQUEST,
    KIND_WRITE_REQUEST,
    MESSAGE_KINDS,
    BindFailure,
    Config,
    Message,
    ModeMismatch,
    OpId,
    QuorumUnreachable,
    Tag,
    message_from_json,
    message_to_json,
    opid_to_json,
    parse_pid,
    tag_to_json,
)
from ohram.protocols import get_protocol
from ohram.runner import (
    MAX_BACKLOG,
    MAX_FRAME,
    RECV_SIZE,
    Client,
    ServerDaemon,
    _Conn,
    _Endpoint,
    _ENCODER,
    _Loop,
    _pack,
    _unpack,
    listen_host,
    merge_histories,
)

MWMR = Config(n_servers=3, n_readers=1, n_writers=2, f=1)
SWMR = Config(n_servers=3, n_readers=2, n_writers=1, f=1, mode="swmr")


class Framer:
    """Cuts a byte stream into frame bodies, however the reads split it,
    for a blocking reader; the loop's _read applies the same rule inline."""

    def __init__(self):
        self.buf = bytearray()  # the start of a frame not yet whole

    def feed(self, data):
        """Yield each frame body that data completes; keep the rest.

        Raises ValueError at a header that claims more than MAX_FRAME.
        """
        buf = self.buf
        buf += data
        while len(buf) >= 4:
            length = int.from_bytes(buf[:4], "big")
            if length > MAX_FRAME:
                raise ValueError(f"frame of {length} bytes exceeds {MAX_FRAME}")
            end = 4 + length
            if len(buf) < end:
                return
            body = buf[4:end]
            del buf[:end]
            yield body


def read_frames(sock: socket.socket):
    """Yield decoded frames from a blocking socket until the peer closes
    or sends garbage.

    Bytes past the last frame taken go with the generator, so a socket
    is read through one generator only.
    """
    framer = Framer()
    while True:
        try:
            data = sock.recv(RECV_SIZE)
        except OSError:
            return
        if not data:
            return
        try:
            for body in framer.feed(data):
                yield _unpack(body)
        except ValueError:  # an oversized header, bad UTF-8 or bad JSON
            return


def test_frame_round_trip():
    a, b = socket.socketpair()
    try:
        a.sendall(_pack({"type": "hello", "pid": "r1"}))
        a.sendall(_pack({"type": "msg", "n": 2}))
        a.close()
        frames = list(read_frames(b))
    finally:
        b.close()
    assert frames == [{"type": "hello", "pid": "r1"}, {"type": "msg", "n": 2}]


def test_oversized_frames_are_refused_on_both_sides():
    with pytest.raises(ValueError):
        _pack({"blob": "x" * (MAX_FRAME + 1)})
    a, b = socket.socketpair()
    try:
        # a hand-rolled header claiming more than the cap: reader stops
        a.sendall((MAX_FRAME + 1).to_bytes(4, "big") + b"xx")
        a.close()
        assert list(read_frames(b)) == []
    finally:
        b.close()


def test_garbage_payload_ends_the_stream():
    a, b = socket.socketpair()
    try:
        a.sendall((4).to_bytes(4, "big") + b"\xff\xff\xff\xff")
        a.close()
        assert list(read_frames(b)) == []
    finally:
        b.close()


def test_listen_host_env_override(monkeypatch):
    monkeypatch.delenv("OHRAM_LISTEN", raising=False)
    assert listen_host() == "127.0.0.1"
    assert listen_host("10.0.0.7") == "10.0.0.7"
    monkeypatch.setenv("OHRAM_LISTEN", "192.0.2.9")
    assert listen_host("10.0.0.7") == "192.0.2.9"


def test_unsound_protocol_is_refused():
    with pytest.raises(ModeMismatch):
        ServerDaemon(parse_pid("s1"), MWMR, "naive3x")


@pytest.mark.parametrize("config, protocol", [(MWMR, "ohsam"),
                                              (MWMR, "abd-swmr"),
                                              (SWMR, "ohmam"),
                                              (SWMR, "abd-mwmr")])
def test_a_config_of_the_other_mode_is_refused(config, protocol):
    """The live endpoints refuse what SimNet refuses, before any socket."""
    with pytest.raises(ModeMismatch, match="needs mode"):
        ServerDaemon(parse_pid("s1"), config, protocol)
    with pytest.raises(ModeMismatch, match="needs mode"):
        Client(config.readers()[0], config, protocol, {})


def start_cluster(config, protocol):
    daemons = [ServerDaemon(s, config, protocol) for s in config.servers()]
    membership = {d.pid: d.address for d in daemons}
    for d in daemons:
        d.start(membership)
    return daemons, membership


def stop_all(daemons, clients=()):
    for c in clients:
        c.close()
    for d in daemons:
        d.stop()


def test_write_then_read_over_sockets():
    daemons, membership = start_cluster(MWMR, "ohmam")
    writer = Client(parse_pid("w1"), MWMR, "ohmam", membership)
    reader = Client(parse_pid("r1"), MWMR, "ohmam", membership)
    try:
        wrec = writer.write("A")
        rrec = reader.read()
        assert rrec.value == wrec.value
        assert rrec.tag == wrec.tag
        history = merge_histories(writer.history, reader.history)
        assert check_bruteforce(history).atomic
        assert check_witness(history).atomic
    finally:
        stop_all(daemons, [writer, reader])


def test_survives_one_server_kill():
    daemons, membership = start_cluster(MWMR, "ohmam")
    writer = Client(parse_pid("w1"), MWMR, "ohmam", membership)
    reader = Client(parse_pid("r1"), MWMR, "ohmam", membership)
    try:
        writer.write("A")
        daemons[2].kill()
        writer.write("B")
        rec = reader.read()
        assert rec.value == writer.history[-1].value
        history = merge_histories(writer.history, reader.history)
        assert check_bruteforce(history).atomic
    finally:
        stop_all(daemons, [writer, reader])


def test_two_concurrent_clients_single_writer_mode():
    daemons, membership = start_cluster(SWMR, "ohsam")
    writer = Client(parse_pid("w1"), SWMR, "ohsam", membership)
    r1 = Client(parse_pid("r1"), SWMR, "ohsam", membership)
    r2 = Client(parse_pid("r2"), SWMR, "ohsam", membership)
    try:
        stop = threading.Event()

        def keep_reading(client):
            while not stop.is_set():
                client.read()

        threads = [threading.Thread(target=keep_reading, args=(c,))
                   for c in (r1, r2)]
        for t in threads:
            t.start()
        for label in "ABC":
            writer.write(label)
        stop.set()
        for t in threads:
            t.join()
        history = merge_histories(writer.history, r1.history, r2.history)
        assert check_witness(history).atomic
    finally:
        stop_all(daemons, [writer, r1, r2])


def test_quorum_unreachable_when_majority_is_down():
    daemons, membership = start_cluster(MWMR, "ohmam")
    writer = Client(parse_pid("w1"), MWMR, "ohmam", membership,
                    retry_interval=0.01, retry_budget=5)
    try:
        daemons[0].kill()
        daemons[1].kill()
        with pytest.raises(QuorumUnreachable):
            writer.write("A")
    finally:
        stop_all(daemons, [writer])


def test_merge_histories_orders_by_invocation():
    daemons, membership = start_cluster(MWMR, "ohmam")
    writer = Client(parse_pid("w1"), MWMR, "ohmam", membership)
    reader = Client(parse_pid("r1"), MWMR, "ohmam", membership)
    try:
        writer.write("A")
        reader.read()
        writer.write("B")
        merged = merge_histories(reader.history, writer.history)
        assert [r.invoked for r in merged] == sorted(r.invoked for r in merged)
        assert len(merged) == 3
    finally:
        stop_all(daemons, [writer, reader])


def test_a_reply_to_a_client_with_no_connection_is_lost_and_a_copy_acks_again():
    s1, s2, r1 = (parse_pid(p) for p in ("s1", "s2", "r1"))
    daemon = ServerDaemon(s1, SWMR, "ohsam")
    daemon.start({s1: daemon.address})
    sock = None
    read = OpId(r1, 1)
    request = Message(KIND_READ_REQUEST, read, r1, s1)
    try:
        with daemon.lock:
            daemon._handle(request)  # s1's own relay goes straight back in
            daemon._handle(Message(KIND_READ_RELAY, read, s2, s1,
                                   tag=Tag(0, s2), relay_origin=s2))
            # the majority of relays is in: the ack for r1#1, tagged (0,s1),
            # is produced now, while r1 has no connection to s1, and lost
            assert daemon.machine.reads[r1] == (1, {s1, s2})
            daemon._handle(Message(KIND_WRITE_REQUEST, OpId(W1, 1), W1, s1,
                                   tag=Tag(1, W1), value="A"))
        sock = socket.create_connection(daemon.address, timeout=5.0)
        sock.sendall(_pack({"type": "hello", "pid": "r1"}) + msg_frame(request))
        # the copy brings the ack again, with s1's current pair
        msg = message_from_json(next(read_frames(sock))["msg"])
        assert (msg.kind, msg.op, msg.sender) == (KIND_READ_ACK, read, s1)
        assert (msg.tag, msg.value) == (Tag(1, W1), "A")
    finally:
        if sock is not None:
            sock.close()
        daemon.stop()


def test_teardown_leaves_no_threads_behind():
    before = set(threading.enumerate())
    daemons, membership = start_cluster(SWMR, "ohsam")
    writer = Client(parse_pid("w1"), SWMR, "ohsam", membership)
    reader = Client(parse_pid("r1"), SWMR, "ohsam", membership)
    try:
        writer.write("A")
        reader.read()
    finally:
        stop_all(daemons, [writer, reader])
    deadline = time.monotonic() + 10.0
    extra = [t for t in threading.enumerate() if t not in before]
    while extra and time.monotonic() < deadline:
        extra[0].join(timeout=0.5)
        extra = [t for t in threading.enumerate() if t not in before]
    assert extra == []


def test_server_links_run_no_reader_thread():
    before = set(threading.enumerate())
    daemons, membership = start_cluster(SWMR, "ohsam")
    reader = Client(parse_pid("r1"), SWMR, "ohsam", membership)
    try:
        reader.read()
        links = [link for e in daemons + [reader] for link in e.links.values()]
        # every link is connected and has its hello on the wire
        assert wait_for(lambda: all(
            link.sock is not None and not link.outbuf for link in links))
        # one loop for the process; nothing per endpoint, link or connection
        loops = [t for t in threading.enumerate() if t.name == "ohram-loop"]
        assert loops == [reader.loop.thread]
        assert all(t in before or t in loops for t in threading.enumerate())
    finally:
        stop_all(daemons, [reader])


W1, S1 = parse_pid("w1"), parse_pid("s1")


def write_request(seq, size=1000):
    return Message(KIND_WRITE_REQUEST, OpId(W1, seq), W1, S1,
                   tag=Tag(seq, W1), value="x" * size)


def peer_listener():
    """A listening socket whose accepted connections have a small buffer."""
    srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    srv.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    srv.bind(("127.0.0.1", 0))
    srv.settimeout(10.0)
    return srv


def wait_for(predicate, seconds=10.0):
    deadline = time.monotonic() + seconds
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.005)
    return predicate()


def received_seqs(conn, count):
    """Read a hello plus `count` message frames; return their op seqs."""
    conn.settimeout(10.0)
    frames = read_frames(conn)
    assert next(frames) == {"type": "hello", "pid": "w1"}
    return [message_from_json(next(frames)["msg"]).op.seq
            for _ in range(count)]


ONE = Config(n_servers=1, n_readers=1, n_writers=1, f=0, mode="swmr")


def writer_link(srv):
    """A writer client whose one link dials srv, standing in for s1."""
    writer = Client(W1, ONE, "ohsam", {S1: srv.getsockname()})
    return writer, writer.links[S1]


def send(client, msg):
    """Send msg on the client's link, as a broadcast does; True if part
    of its frame is left waiting for the socket to drain."""
    with client.lock:
        link = client.links[msg.destination]
        client._send(link, msg)
        return bool(link.outbuf)


def hello_sent(link):
    return wait_for(lambda: link.sock is not None and not link.outbuf)


def fill_until_queued(client, seq=0):
    """Send until a frame waits because the kernel took none or only part
    of it; return the last seq and the slowest send in seconds."""
    slowest = 0.0
    queued = False
    while not queued:
        seq += 1
        t0 = time.perf_counter()
        queued = send(client, write_request(seq))
        slowest = max(slowest, time.perf_counter() - t0)
        assert seq < 100_000, "the kernel never refused a frame"
    return seq, slowest


def test_sends_to_a_peer_that_never_reads_never_block():
    srv = peer_listener()
    srv.listen(1)
    writer, link = writer_link(srv)
    conn, _ = srv.accept()
    sent = {}

    def sender():
        last, slowest = fill_until_queued(writer)
        # the peer's buffers are full: every further send waits in outbuf
        for _ in range(2000):
            last += 1
            t0 = time.perf_counter()
            send(writer, write_request(last))
            slowest = max(slowest, time.perf_counter() - t0)
        sent.update(last=last, slowest=slowest)

    try:
        assert hello_sent(link)
        thread = threading.Thread(target=sender, daemon=True)
        thread.start()
        thread.join(timeout=60.0)
        assert not thread.is_alive(), "a send blocked"
        assert link.outbuf
        assert sent["slowest"] < 0.1
        last = sent["last"]
        assert received_seqs(conn, last) == list(range(1, last + 1))
        assert wait_for(lambda: not link.outbuf)
    finally:
        conn.close()  # first: resets the link, so even a blocked send returns
        writer.close()
        srv.close()


def test_a_reconnect_carries_the_hello_then_whole_frames_sent_after_it():
    srv = peer_listener()
    srv.listen(2)
    writer, link = writer_link(srv)
    first, _ = srv.accept()
    second = None
    try:
        assert hello_sent(link)
        old = link.sock
        last, _ = fill_until_queued(writer)
        with writer.lock:  # a partial write: the head frame's tail waits
            assert 0 < len(link.outbuf) < len(msg_frame(write_request(last)))
        for _ in range(3):
            last += 1
            send(writer, write_request(last))
        first.close()  # unread data: the peer resets the connection
        second, _ = srv.accept()
        # the cut frame and the three behind it are lost with the old
        # connection; the new one starts with the hello
        assert wait_for(lambda: link.sock not in (None, old)
                        and not link.outbuf)
        for seq in range(last + 1, last + 4):
            send(writer, write_request(seq))
        assert received_seqs(second, 3) == list(range(last + 1, last + 4))
    finally:
        writer.close()
        first.close()
        if second is not None:
            second.close()
        srv.close()


def test_a_link_whose_peer_never_reads_is_dropped_at_the_backlog_and_redials():
    srv = peer_listener()
    srv.listen(2)
    writer, link = writer_link(srv)
    first, _ = srv.accept()
    second = None
    try:
        assert hello_sent(link)
        old = link.sock
        last, _ = fill_until_queued(writer)
        # the peer's buffers are full: each half-MiB frame waits in
        # outbuf, and the one that takes it past MAX_BACKLOG drops the link
        size = MAX_FRAME // 2
        for _ in range(MAX_BACKLOG // size + 1):
            last += 1
            send(writer, write_request(last, size=size))
        with writer.lock:
            assert link.sock is not old
        second, _ = srv.accept()  # the redial, REDIAL_DELAY later
        second.settimeout(10.0)
        assert next(read_frames(second)) == {"type": "hello", "pid": "w1"}
    finally:
        writer.close()
        first.close()
        if second is not None:
            second.close()
        srv.close()


def msg_frame(msg):
    return _pack({"type": "msg", "msg": message_to_json(msg)})


def peer_closed(sock):
    try:
        return sock.recv(1) == b""
    except ConnectionResetError:  # the peer closed with our bytes unread
        return True


def test_a_client_that_stops_reading_is_cut_off_and_relays_keep_flowing():
    daemons, membership = start_cluster(SWMR, "ohsam")
    s1 = daemons[0]
    writer = Client(parse_pid("w1"), SWMR, "ohsam", membership)
    r1 = Client(parse_pid("r1"), SWMR, "ohsam", membership)
    r2 = parse_pid("r2")
    stalled = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    stalled.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    others = []
    try:
        writer.write("x" * 200_000)
        # r2 says hello to s1 only and never reads: s1 owes it one 200 KB
        # ack per read below, built when the relays of s2 and s3 arrive
        stalled.connect(s1.address)
        stalled.sendall(_pack({"type": "hello", "pid": "r2"}))
        assert wait_for(lambda: r2 in s1.client_conns)
        others = [socket.create_connection(d.address, timeout=10.0)
                  for d in daemons[1:]]
        relayers = {d.pid for d in daemons[1:]}
        for seq in range(1, 81):
            for sock, d in zip(others, daemons[1:]):
                sock.sendall(msg_frame(Message(
                    KIND_READ_REQUEST, OpId(r2, seq), r2, d.pid)))
            # a relay of the next read would retire this one unanswered
            assert wait_for(lambda: s1.machine.reads.get(r2) == (
                seq, relayers)), s1.machine.reads
        for _ in range(3):
            rec = r1.read()
        assert rec.value == writer.history[-1].value
        assert wait_for(lambda: s1.machine.reads.get(r1.pid) == (
            rec.op.seq, set(SWMR.servers()))), s1.machine.reads
        assert wait_for(lambda: r2 not in s1.client_conns)
    finally:
        for sock in [stalled] + others:
            sock.close()
        stop_all(daemons, [writer, r1])


def test_a_frame_longer_than_one_read_goes_through_the_cluster():
    daemons, membership = start_cluster(SWMR, "ohsam")
    writer = Client(parse_pid("w1"), SWMR, "ohsam", membership)
    reader = Client(parse_pid("r1"), SWMR, "ohsam", membership)
    try:
        wrec = writer.write("y" * 600_000)
        rrec = reader.read()
        assert len(rrec.value) > 600_000
        assert (rrec.value, rrec.tag) == (wrec.value, wrec.tag)
    finally:
        stop_all(daemons, [writer, reader])


@pytest.mark.parametrize("garbage", [
    (MAX_FRAME + 1).to_bytes(4, "big") + b"xx",
    (4).to_bytes(4, "big") + b"{no}",
    # well-formed, but a writeRequest without a tag breaks the machine
    msg_frame(Message(KIND_WRITE_REQUEST, OpId(parse_pid("w1"), 1),
                      parse_pid("w1"), parse_pid("s1"))),
], ids=["oversized-header", "not-json", "tagless-write"])
def test_a_bad_frame_closes_only_its_own_connection(garbage):
    one = Config(n_servers=1, n_readers=1, n_writers=1, f=0, mode="swmr")
    daemons, membership = start_cluster(one, "ohsam")
    bad = socket.create_connection(daemons[0].address, timeout=10.0)
    good = socket.create_connection(daemons[0].address, timeout=10.0)
    writer = Client(parse_pid("w1"), one, "ohsam", membership)
    try:
        good.sendall(_pack({"type": "hello", "pid": "r1"}))
        bad.sendall(_pack({"type": "hello", "pid": "r2"}) + garbage)
        assert peer_closed(bad)
        writer.write("A")
        good.sendall(msg_frame(Message(
            KIND_READ_REQUEST, OpId(parse_pid("r1"), 1), parse_pid("r1"),
            daemons[0].pid)))
        msg = message_from_json(next(read_frames(good))["msg"])
        assert (msg.kind, msg.value) == (KIND_READ_ACK,
                                         writer.history[-1].value)
    finally:
        bad.close()
        good.close()
        stop_all(daemons, [writer])


def test_a_fault_at_one_daemon_leaves_the_loop_serving_the_rest():
    three = Config(n_servers=3, n_readers=1, n_writers=1, f=1, mode="swmr")
    daemons, membership = start_cluster(three, "ohsam")
    writer = Client(W1, three, "ohsam", membership)
    reader = Client(R1, three, "ohsam", membership)
    s1, s2, _ = daemons
    bad = []

    def ops(count):
        for i in range(count):
            wrec = writer.write(f"{len(writer.history)}")
            rrec = reader.read()
            assert (rrec.value, rrec.tag) == (wrec.value, wrec.tag)

    try:
        ops(1)
        links = {c: c.links[s1.pid].sock for c in (writer, reader)}
        for garbage in [(4).to_bytes(4, "big") + b"{no}", msg_frame(Message(
                KIND_WRITE_REQUEST, OpId(W1, 99), W1, s1.pid))]:
            bad.append(socket.create_connection(s1.address, timeout=10.0))
            bad[-1].sendall(_pack({"type": "hello", "pid": "r2"}) + garbage)
            assert peer_closed(bad[-1])
            ops(2)
        assert all(c.links[s1.pid].sock is sock for c, sock in links.items())
        killer = threading.Thread(target=s2.kill)
        killer.start()
        killer.join(timeout=10.0)
        assert not killer.is_alive()
        ops(2)  # s1 and s3, one loop between them, are the only majority
        assert reader.loop.thread.is_alive()
        history = merge_histories(writer.history, reader.history)
        assert len(history) == 14
        assert check_history(history).atomic
    finally:
        for sock in bad:
            sock.close()
        stop_all(daemons, [writer, reader])


class _Untouchable:
    """A socket stand-in that fails on any use."""

    def __getattr__(self, name):
        raise AssertionError(f"a dropped connection's socket was used: {name}")


def test_the_loop_skips_a_key_whose_connection_its_batch_dropped():
    """One select() batch of two keys, where handling the first drops the
    second's connection: the second key is skipped, its socket untouched."""
    first, second = _Conn(object()), _Conn(_Untouchable())
    handled = []

    class Endpoint:
        stopped = False

        def _read(self, conn):
            handled.append(("read", conn))
            second.sock = None  # dropped, as _Endpoint._drop leaves it
            loop.endpoints.clear()  # so the loop returns after this batch

        def _flush(self, conn):
            handled.append(("flush", conn))

    endpoint = Endpoint()
    batch = [(SimpleNamespace(fileobj=conn.sock, data=(endpoint, conn)),
              EVENT_READ | EVENT_WRITE) for conn in (first, second)]
    loop = _Loop()
    loop.selector.close()
    loop.selector = SimpleNamespace(select=lambda timeout: batch,
                                    unregister=lambda fileobj: None)
    loop._wake = loop._waker = SimpleNamespace(shutdown=lambda how: None,
                                               close=lambda: None)
    loop.endpoints.add(endpoint)
    loop._run()
    assert handled == [("read", first), ("flush", first)]


def test_bind_failure_names_the_address_and_closes_the_socket(monkeypatch):
    monkeypatch.delenv("OHRAM_LISTEN", raising=False)
    busy = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    busy.bind(("127.0.0.1", 0))
    busy.listen(1)
    port = busy.getsockname()[1]
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(BindFailure,
                               match=f"cannot bind 127.0.0.1:{port}:"):
                ServerDaemon(parse_pid("s1"), SWMR, "ohsam", port=port)
            gc.collect()
        assert not [w for w in caught
                    if issubclass(w.category, ResourceWarning)]
    finally:
        busy.close()


def test_a_client_cut_off_at_the_backlog_completes_on_a_rebroadcast():
    daemons, membership = start_cluster(ONE, "ohsam")
    s1 = daemons[0]
    writer = Client(W1, ONE, "ohsam", membership)
    # a rebroadcast half a second apart: the test restores r1's reads
    # before a second one can find the connection cut
    reader = Client(R1, ONE, "ohsam", membership, retry_interval=0.5)
    link = reader.links[S1]
    inject = socket.create_connection(s1.address, timeout=10.0)
    done = {}
    thread = threading.Thread(target=lambda: done.update(rec=reader.read()),
                              daemon=True)

    def copies_until(predicate, seq):
        # each copy of a read s1 has answered brings a 500 KB ack to r1
        copy = msg_frame(Message(KIND_READ_REQUEST, OpId(R1, seq), R1, S1))
        for _ in range(200):
            if wait_for(predicate, seconds=0.05):
                return True
            inject.sendall(copy)
        return False

    def backlog():
        with s1.lock:
            conn = s1.client_conns.get(R1)
            return conn is not None and len(conn.outbuf) > 0

    try:
        wrec = writer.write("x" * 500_000)
        reader.read()
        with reader.lock:  # r1 stops reading
            reader.loop.selector.unregister(link.sock)
        old = link.sock
        # stale acks fill the kernel's buffers, so every ack of the next
        # read waits in s1's outbuf
        assert copies_until(backlog, seq=1)
        thread.start()
        assert wait_for(lambda: reader.machine.busy)
        assert copies_until(lambda: R1 not in s1.client_conns, seq=2)
        with reader.lock:  # r1 reads again, the stale acks and then the end
            reader._watch(link)
        thread.join(timeout=10.0)
        assert link.sock not in (None, old)  # redialed
        rec = done["rec"]
        assert (rec.op, rec.value) == (OpId(R1, 2), wrec.value)
    finally:
        inject.close()
        stop_all(daemons, [writer, reader])


def reference_frame(msg):
    """A msg frame as json.dumps writes it, with the dicts built by the
    per-type helpers: the bytes the runner has always sent."""
    obj = {
        "kind": msg.kind,
        "op": opid_to_json(msg.op),
        "sender": str(msg.sender),
        "destination": str(msg.destination),
        "tag": tag_to_json(msg.tag),
        "value": msg.value,
        "relay_origin": str(msg.relay_origin) if msg.relay_origin else None,
    }
    data = json.dumps({"type": "msg", "msg": obj},
                      separators=(",", ":")).encode("utf-8")
    return len(data).to_bytes(4, "big") + data


pids = st.builds(parse_pid, st.builds(
    "{}{}".format, st.sampled_from("wrs"), st.integers(1, 99)))
op_ids = st.builds(OpId, pids, st.integers(0, 2**53))
tags = st.builds(Tag, st.integers(0, 2**53), pids)
values = st.none() | st.text(st.sampled_from('"\\/\x00\x1f\n\t\x7f') |
                             st.characters())
messages = st.builds(
    Message, st.sampled_from(MESSAGE_KINDS), op_ids, pids, pids,
    tag=st.none() | tags, value=values, relay_origin=st.none() | pids)


@settings(max_examples=300)
@given(messages, st.text(" \t\n\r", max_size=3),
       st.text(" \t\n\r", max_size=3))
def test_msg_frames_keep_their_bytes_and_decode_back(msg, left, right):
    frame = _pack({"type": "msg", "msg": message_to_json(msg)})
    assert frame == reference_frame(msg)
    body = frame[4:]
    assert message_from_json(_unpack(body)["msg"]) == msg
    padded = left.encode() + body + right.encode()
    assert _unpack(padded) == json.loads(padded.decode())
    with pytest.raises(ValueError):
        _unpack(body + b"x")


def msg_frame_obj(**fields):
    """A msg frame of message_to_json's shape, with fields replaced."""
    obj = message_to_json(Message(KIND_READ_ACK, OpId(W1, 3), S1, W1,
                                  tag=Tag(2, W1), value="v"))
    obj.update(fields)
    return {"type": "msg", "msg": obj}


@pytest.mark.parametrize("obj", [
    {"type": "hello", "pid": "r1"},
    {"type": "msg", "n": 2},
    {"msg": msg_frame_obj()["msg"], "type": "msg"},
    {**msg_frame_obj(), "n": 2},
    {"type": "msg", "msg": dict(reversed(msg_frame_obj()["msg"].items()))},
    msg_frame_obj(n=2),
    msg_frame_obj(op={"seq": 3, "invoker": "w1"}),
    msg_frame_obj(op={"invoker": "w1", "seq": 3, "n": 2}),
    msg_frame_obj(tag={"wid": "w1", "ts": 2}),
    msg_frame_obj(op={"invoker": "w1", "seq": True}),
    msg_frame_obj(op={"invoker": "w1", "seq": 3.0}),
    msg_frame_obj(tag={"ts": False, "wid": "w1"}),
    msg_frame_obj(tag={"ts": 2.5, "wid": "w1"}),
    msg_frame_obj(value=7),
    msg_frame_obj(value=["v"]),
    msg_frame_obj(value=True),
    msg_frame_obj(kind=1),
    msg_frame_obj(relay_origin=2),
    msg_frame_obj(tag={"ts": 2, "wid": None}),
    msg_frame_obj(tag=[2, "w1"]),
    msg_frame_obj(op=["invoker", "seq"]),
    {"type": "msg", "msg": list(msg_frame_obj()["msg"])},
    [1],
])
def test_frames_of_any_other_shape_get_the_generic_bytes(obj):
    data = _ENCODER.encode(obj).encode("utf-8")
    assert data == json.dumps(obj, separators=(",", ":")).encode("utf-8")
    assert _pack(obj) == len(data).to_bytes(4, "big") + data


@pytest.mark.parametrize("body", [
    b'{"a":1}', b' {"a":1}', b'{"a":1}\r\n', b'\t[1] ', b'7', b'"\\ud800"',
    b'{"a":1}x', b'{"a":1}{"a":2}', b'x{"a":1}', b'1 2', b'', b'  ',
    b'\xef\xbb\xbf{"a":1}', b'{"a":\xff}', b'{"a":1'])
def test_unpack_takes_and_refuses_what_json_loads_does(body):
    try:
        expected = json.loads(body.decode("utf-8"))
    except ValueError:
        with pytest.raises(ValueError):
            _unpack(body)
    else:
        assert _unpack(body) == expected


R1 = parse_pid("r1")


def read_ack(seq, value="v"):
    return Message(KIND_READ_ACK, OpId(R1, seq), S1, R1,
                   tag=Tag(seq, W1), value=value)


def client_link(got):
    """A listener standing in for s1, and a reader client whose one link
    dials it and appends every message it receives to got."""
    srv = peer_listener()
    srv.listen(1)
    reader = Client(R1, ONE, "ohsam", {S1: srv.getsockname()})
    reader._handle = got.append
    conn, _ = srv.accept()
    conn.settimeout(10.0)
    conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    assert next(read_frames(conn)) == {"type": "hello", "pid": "r1"}
    return srv, reader, conn


def test_a_client_link_frames_a_byte_stream_however_it_is_cut():
    got = []
    srv, reader, conn = client_link(got)
    try:
        batch = [read_ack(seq, "x" * (seq % 50)) for seq in range(1, 201)]
        conn.sendall(b"".join(msg_frame(m) for m in batch))
        assert wait_for(lambda: len(got) >= 200)
        dribbled = [read_ack(seq, "é\"\\") for seq in range(201, 204)]
        for byte in b"".join(msg_frame(m) for m in dribbled):
            conn.send(bytes([byte]))
            time.sleep(0.0005)
        assert wait_for(lambda: len(got) >= 203)
        assert got == batch + dribbled
    finally:
        reader.close()
        conn.close()
        srv.close()


def reading_client():
    """A listener standing in for the one server s1, and a thread whose
    reader client reads once through it; the thread fills done["rec"]."""
    one = Config(n_servers=1, n_readers=1, n_writers=1, f=0, mode="swmr")
    srv = peer_listener()
    srv.listen(2)
    reader = Client(R1, one, "ohsam", {S1: srv.getsockname()},
                    retry_interval=0.05, retry_budget=100)
    done = {}
    thread = threading.Thread(
        target=lambda: done.update(rec=reader.read()), daemon=True)
    thread.start()
    return srv, reader, thread, done


def accept_read_request(srv):
    conn, _ = srv.accept()
    conn.settimeout(10.0)
    frames = read_frames(conn)
    assert next(frames) == {"type": "hello", "pid": "r1"}
    request = message_from_json(next(frames)["msg"])
    assert request.kind == KIND_READ_REQUEST
    return conn, request


def test_a_client_link_reads_on_past_a_frame_it_cannot_take():
    srv, reader, thread, done = reading_client()
    conn = None
    try:
        conn, request = accept_read_request(srv)
        # a frame that is not an object, then a msg body that is not one
        conn.sendall(_pack([1]) + _pack({"type": "msg", "msg": [1]})
                     + msg_frame(read_ack(request.op.seq)))
        thread.join(timeout=10.0)
        assert (done["rec"].op, done["rec"].value) == (request.op, "v")
    finally:
        reader.close()
        if conn is not None:
            conn.close()
        srv.close()


def test_a_client_link_redials_when_its_stream_is_garbled():
    srv, reader, thread, done = reading_client()
    conns = []
    try:
        conn, request = accept_read_request(srv)
        conns.append(conn)
        conn.sendall((4).to_bytes(4, "big") + b"{no}")
        # the link comes back, and the read's next rebroadcast with it
        conn, request = accept_read_request(srv)
        conns.append(conn)
        conn.sendall(msg_frame(read_ack(request.op.seq)))
        thread.join(timeout=10.0)
        assert (done["rec"].op, done["rec"].value) == (request.op, "v")
    finally:
        reader.close()
        for conn in conns:
            conn.close()
        srv.close()


def test_a_read_completes_past_an_ack_without_a_tag():
    three = Config(n_servers=3, n_readers=1, n_writers=1, f=1, mode="swmr")
    servers = {s: peer_listener() for s in three.servers()}
    for srv in servers.values():
        srv.listen(1)
    reader = Client(R1, three, "ohsam",
                    {s: srv.getsockname() for s, srv in servers.items()},
                    retry_interval=0.05, retry_budget=40)
    done = {}
    thread = threading.Thread(
        target=lambda: done.update(rec=reader.read()), daemon=True)
    thread.start()
    conns = {}
    try:
        for s, srv in servers.items():
            conns[s], request = accept_read_request(srv)
        s1, s2, s3 = three.servers()
        tagged = Message(KIND_READ_ACK, request.op, s1, R1,
                         tag=Tag(1, W1), value="v")
        conns[s1].sendall(msg_frame(tagged))
        conns[s2].sendall(msg_frame(Message(KIND_READ_ACK, request.op, s2, R1,
                                            value="none")))
        time.sleep(0.2)  # the tagless ack goes in before the quorum can
        tagged.sender = s3
        conns[s3].sendall(msg_frame(tagged))
        thread.join(timeout=10.0)
        assert (done["rec"].op, done["rec"].value) == (request.op, "v")
    finally:
        reader.close()
        for sock in list(conns.values()) + list(servers.values()):
            sock.close()


def test_close_ends_a_waiting_op_at_once():
    srv = peer_listener()  # stands in for s1, and never answers
    srv.listen(1)
    # a rebroadcast a second apart: only close() can end the op in time
    reader = Client(R1, ONE, "ohsam", {S1: srv.getsockname()},
                    retry_interval=1.0, retry_budget=100)
    done = {}

    def read():
        try:
            reader.read()
        except QuorumUnreachable as e:
            done["error"] = e

    thread = threading.Thread(target=read, daemon=True)
    thread.start()
    conn = None
    try:
        conn, _ = accept_read_request(srv)
        t0 = time.monotonic()
        reader.close()
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert time.monotonic() - t0 < 0.5
        assert "closed" in str(done["error"])
    finally:
        reader.close()
        if conn is not None:
            conn.close()
        srv.close()


def test_an_op_on_a_closed_client_raises_quorum_unreachable():
    srv = peer_listener()  # stands in for s1: never listens, so refuses
    reader = Client(R1, ONE, "ohsam", {S1: srv.getsockname()},
                    retry_interval=0.01, retry_budget=0)
    try:
        with pytest.raises(QuorumUnreachable, match="no quorum"):
            reader.read()
        reader.close()
        # the read that gave up is still open in the machine: a closed
        # client must refuse before it invokes another
        with pytest.raises(QuorumUnreachable, match="closed"):
            reader.read()
    finally:
        reader.close()
        srv.close()


def test_rebroadcasts_to_a_down_link_queue_nothing():
    daemons, membership = start_cluster(SWMR, "ohsam")
    writer = Client(parse_pid("w1"), SWMR, "ohsam", membership,
                    retry_interval=0.01, retry_budget=20)
    try:
        daemons[1].kill()
        daemons[2].kill()
        with pytest.raises(QuorumUnreachable):
            writer.write("A")
        with writer.lock:
            # 20 rebroadcasts of one writeRequest, each lost
            assert [(writer.links[d.pid].sock, writer.links[d.pid].outbuf)
                    for d in daemons[1:]] == [(None, b"")] * 2
    finally:
        stop_all(daemons, [writer])


def test_a_first_broadcast_queues_behind_the_hello():
    daemons, membership = start_cluster(SWMR, "ohsam")
    # no rebroadcast: the first broadcast alone must reach a quorum
    writer = Client(W1, SWMR, "ohsam", membership, retry_interval=2.0,
                    retry_budget=0)
    try:
        with writer.lock:  # each link dialed as it was made
            assert all(link.sock is not None for link in writer.links.values())
        writer.write("A")
    finally:
        stop_all(daemons, [writer])


def test_links_redial_a_server_restarted_on_its_port():
    daemons, membership = start_cluster(SWMR, "ohsam")
    writer = Client(parse_pid("w1"), SWMR, "ohsam", membership)
    reader = Client(parse_pid("r1"), SWMR, "ohsam", membership)
    try:
        writer.write("A")
        reader.read()
        old = daemons[2]
        old.stop()
        daemons[2] = ServerDaemon(old.pid, SWMR, "ohsam", port=old.port)
        daemons[2].start(membership)
        # s2 and s3 are the only majority left: the clients' links and
        # s2's relay link to s3 must all have redialed the new s3
        daemons[0].kill()
        wrec = writer.write("B")
        rrec = reader.read()
        assert (rrec.value, rrec.tag) == (wrec.value, wrec.tag)
        history = merge_histories(writer.history, reader.history)
        assert check_bruteforce(history).atomic
    finally:
        stop_all(daemons, [writer, reader])


@pytest.mark.xfail(strict=True, raises=QuorumUnreachable,
                   reason="a reader restarted under its pid counts from seq 1 "
                          "again, and a server that saw its later reads "
                          "answers no earlier one")
def test_a_reader_restarted_under_its_pid_reads_again():
    daemons, membership = start_cluster(SWMR, "ohsam")
    writer = Client(W1, SWMR, "ohsam", membership)
    reader = Client(R1, SWMR, "ohsam", membership)
    clients = [writer, reader]
    try:
        writer.write("A")
        reader.read()
        reader.read()  # a majority of servers has seen (r1, 2)
        reader.close()
        clients.append(Client(R1, SWMR, "ohsam", membership,
                              retry_interval=0.01, retry_budget=20))
        assert clients[-1].read().value == writer.history[-1].value
    finally:
        stop_all(daemons, clients)


def test_a_lost_relay_is_retried_by_the_readers_rebroadcast():
    daemons, membership = start_cluster(SWMR, "ohsam")
    writer = Client(parse_pid("w1"), SWMR, "ohsam", membership)
    reader = Client(R1, SWMR, "ohsam", membership,
                    retry_interval=0.01, retry_budget=20)
    s2, s3 = daemons[1], daemons[2]
    send, lost = s2._send, []

    def lossy_send(conn, msg):
        # the link loses s2's first relay to s3
        if msg.kind == KIND_READ_RELAY and msg.destination == s3.pid \
                and not lost:
            lost.append(msg)
            return
        send(conn, msg)

    try:
        wrec = writer.write("A")
        daemons[0].kill()
        s2._send = lossy_send
        # s3 hears only itself until s2 relays the rebroadcast request
        rrec = reader.read()
        assert len(lost) == 1
        assert (rrec.value, rrec.tag) == (wrec.value, wrec.tag)
    finally:
        stop_all(daemons, [writer, reader])


def test_a_lost_read_ack_is_retried_by_the_readers_rebroadcast():
    daemons, membership = start_cluster(SWMR, "ohsam")
    writer = Client(parse_pid("w1"), SWMR, "ohsam", membership)
    reader = Client(R1, SWMR, "ohsam", membership,
                    retry_interval=0.01, retry_budget=20)
    s1 = daemons[0]
    send, lost = s1._send, []

    def lossy_send(conn, msg):
        # the link loses s1's first readAck to r1
        if msg.kind == KIND_READ_ACK and msg.destination == R1 and not lost:
            lost.append(msg)
            return
        send(conn, msg)

    try:
        wrec = writer.write("A")
        daemons[2].kill()
        s1._send = lossy_send
        # s1 and s2 each ack when the second relay origin arrives; the
        # reader's rebroadcast brings s1's ack again
        rrec = reader.read()
        assert len(lost) == 1
        assert (rrec.value, rrec.tag) == (wrec.value, wrec.tag)
    finally:
        stop_all(daemons, [writer, reader])


FIVE = Config(n_servers=5, n_readers=1, n_writers=1, f=2, mode="swmr")


def test_each_server_pair_shares_one_connection():
    daemons, _ = start_cluster(FIVE, "ohsam")
    loop = daemons[0].loop
    try:
        for d in daemons:
            assert set(d.links) == set(FIVE.servers()) - {d.pid}
        links = [link for d in daemons for link in d.links.values()]
        # a dialed link has its hello on the wire; a later peer's link has
        # taken that peer's connection at its hello
        assert wait_for(lambda: all(
            link.sock is not None and not link.outbuf for link in links))
        with loop.lock:
            ends = [key.fileobj for key in loop.selector.get_map().values()
                    if key.data is not None and key.data[0] in daemons
                    and key.data[1] is not None]
            pairs = {frozenset((s.getsockname(), s.getpeername()))
                     for s in ends}
            assert all(not d.client_conns for d in daemons)
        assert len(ends) == 20
        assert len(pairs) == 10
    finally:
        stop_all(daemons)


def test_only_a_later_members_hello_takes_a_link():
    s1, s2, s3, s9 = (parse_pid(p) for p in ("s1", "s2", "s3", "s9"))
    daemon = ServerDaemon(s2, SWMR, "ohsam")
    srv = peer_listener()  # s1 and s3: bound, never listening
    daemon.start({s1: srv.getsockname(), s2: daemon.address,
                  s3: srv.getsockname()})
    socks = []
    try:
        # s2 dials s1 itself, and s9 is no member: inbound only, as a
        # client's connection, whose second hello is ignored; s3's
        # connection becomes s2's link to s3
        for hellos in (["s1"], ["s9", "s3"], ["s3"]):
            socks.append(socket.create_connection(daemon.address,
                                                  timeout=10.0))
            socks[-1].sendall(b"".join(
                _pack({"type": "hello", "pid": pid}) for pid in hellos))
        assert wait_for(lambda: daemon.links[s3].sock is not None
                        and len(daemon.client_conns) == 2)
        with daemon.lock:
            assert set(daemon.links) == {s1, s3}
            assert set(daemon.client_conns) == {s1, s9}
            assert daemon.client_conns[s9].sock is not None
            assert daemon.links[s1].address == srv.getsockname()
            assert daemon.links[s3].address is None
            assert (daemon.links[s3].sock.getpeername()
                    == socks[2].getsockname())
    finally:
        for sock in socks:
            sock.close()
        daemon.stop()
        srv.close()


def test_relays_to_a_later_peer_that_is_down_are_lost():
    s1, s2, s3 = SWMR.servers()
    daemon = ServerDaemon(s1, SWMR, "ohsam")
    srv = peer_listener()  # s1 never dials a later peer: any address will do
    daemon.start({s1: daemon.address, s2: srv.getsockname(),
                  s3: srv.getsockname()})
    link = daemon.links[s2]
    socks = []

    def hello_from_s2():
        socks.append(socket.create_connection(daemon.address, timeout=10.0))
        socks[-1].sendall(_pack({"type": "hello", "pid": "s2"}))
        assert wait_for(lambda: link.sock is not None and not link.outbuf)
        return socks[-1]

    def read_request(seq):  # s1 relays it to every server
        with daemon.lock:
            daemon._handle(Message(KIND_READ_REQUEST, OpId(R1, seq), R1, s1))

    try:
        hello_from_s2().close()  # s2 goes down
        assert wait_for(lambda: link.sock is None)
        for seq in range(1, 6):
            read_request(seq)
        with daemon.lock:
            assert (link.sock, link.outbuf) == (None, b"")
        conn = hello_from_s2()  # s2 is back, and says hello
        for seq in range(6, 11):
            read_request(seq)
        frames = read_frames(conn)
        got = [message_from_json(next(frames)["msg"]) for _ in range(5)]
        assert [(m.kind, m.op.seq) for m in got] == [
            (KIND_READ_RELAY, seq) for seq in range(6, 11)]
    finally:
        for sock in socks:
            sock.close()
        daemon.stop()
        srv.close()



@pytest.mark.parametrize("n", [3, 5])
@pytest.mark.parametrize("protocol", ["ohsam", "ohmam", "abd-swmr", "abd-mwmr"])
def test_every_message_a_lossy_link_loses_is_retried(monkeypatch, protocol, n):
    """Fair loss: each send loses its message with probability 0.05, on
    every link. The clients' rebroadcasts alone complete 2,000 ops."""
    mode = get_protocol(protocol).mode
    config = Config(n_servers=n, n_readers=3, n_writers=1 if mode == "swmr"
                    else 2, f=(n - 1) // 2, mode=mode)
    rng = random.Random(f"lossy {protocol} {n}")  # drawn under the lock
    send = _Endpoint._send

    def lossy_send(self, conn, msg):
        if rng.random() >= 0.05:
            send(self, conn, msg)

    monkeypatch.setattr(_Endpoint, "_send", lossy_send)
    daemons, membership = start_cluster(config, protocol)
    writers = config.writers()
    clients = [Client(pid, config, protocol, membership, retry_interval=0.005)
               for pid in writers + config.readers()]
    errors = []

    def run(client):
        try:
            for i in range(2000 // len(clients)):
                if client.pid in writers:
                    client.write(str(i))
                else:
                    client.read()
        except QuorumUnreachable as e:
            errors.append(e)

    threads = [threading.Thread(target=run, args=(c,)) for c in clients]
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
        assert not any(t.is_alive() for t in threads)
    finally:
        stop_all(daemons, clients)
    assert errors == []
    history = merge_histories(*(c.history for c in clients))
    assert len(history) == 2000
    assert check_history(history).atomic
    if protocol in ("ohsam", "ohmam"):  # one open read per reader
        assert all(len(d.machine.reads) <= config.n_readers for d in daemons)
