"""Live TCP cluster: framing, full runs, crash tolerance."""

import contextlib
import copy
import gc
import json
import random
import socket
import sys
import threading
import time
import warnings
from collections import Counter
from select import EPOLLIN, EPOLLOUT, select
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from ohram.checker import check_bruteforce, check_history, check_witness
from ohram.core import (
    KIND_READ_ACK,
    KIND_READ_RELAY,
    KIND_READ_REQUEST,
    KIND_WRITE_ACK,
    KIND_WRITE_REQUEST,
    MESSAGE_KINDS,
    BindFailure,
    Config,
    Message,
    ModeMismatch,
    NotWellFormed,
    OpId,
    QuorumUnreachable,
    Tag,
    message_from_json,
    message_to_json,
    parse_pid,
)
from ohram import core, runner
from ohram.protocols import get_protocol
from ohram.simnet import history_from_json, history_to_json
from ohram.runner import (
    LABEL_ALLOWANCE,
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
                                   tag=Tag(0, s2)))
            # the majority of relays is in: the ack for r1#1, tagged (0,s1),
            # is produced now, while r1 has no connection to s1, and lost
            assert daemon.machine.reads[r1] == (1, {s1, s2})
            daemon._handle(Message(KIND_WRITE_REQUEST, OpId(W1, 1), W1, s1,
                                   tag=Tag(1, W1), value="A"))
        sock = socket.create_connection(daemon.address, timeout=5.0)
        sock.sendall(_pack({"type": "hello", "pid": "r1"}) + msg_frame(request))
        # the copy brings the ack again, with s1's current pair
        msg = message_from_json(next(read_frames(sock)))
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
    return [message_from_json(next(frames)).op.seq
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


def test_a_label_too_long_for_its_frame_is_refused_before_the_op_starts():
    """A frame over MAX_FRAME cannot be sent; had the machine invoked the
    write, the op would stay open and every later op raise NotWellFormed."""
    limit = MAX_FRAME - LABEL_ALLOWANCE
    daemons, membership = start_cluster(SWMR, "ohsam")
    writer = Client(parse_pid("w1"), SWMR, "ohsam", membership)
    reader = Client(parse_pid("r1"), SWMR, "ohsam", membership)
    try:
        wrec = writer.write("x" * (limit - 2))  # its JSON text has quotes
        rrec = reader.read()
        assert (rrec.value, rrec.tag) == (wrec.value, wrec.tag)
        history = list(writer.history)
        # one byte over; and escaped as \u00e9, six bytes each, over,
        # where its UTF-8 takes a third of that
        for label in ("x" * (limit - 1), "\u00e9" * (limit // 6)):
            with pytest.raises(ValueError, match=f"at most {limit} bytes"):
                writer.write(label)
            assert writer.history == history
            assert not writer.machine.busy
        wrec = writer.write("small")
        rrec = reader.read()
        assert (rrec.value, rrec.tag) == (wrec.value, wrec.tag)
        assert rrec.value.startswith("small#")
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
        msg = message_from_json(next(read_frames(good)))
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
    """One batch of two table entries, where handling the first drops the
    second's connection: the second entry is skipped, its socket
    untouched."""
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
    loop = _Loop()
    loop.epoll.close()
    loop.epoll = SimpleNamespace(
        poll=lambda timeout: [(fd, EPOLLIN | EPOLLOUT) for fd in (1, 2)],
        unregister=lambda fd: None)
    loop._wake = loop._waker = SimpleNamespace(
        fileno=lambda: 0, shutdown=lambda how: None, close=lambda: None)
    loop.table.update({0: (None, None, loop._wake),
                       1: (endpoint, first, first.sock),
                       2: (endpoint, second, second.sock)})
    loop.endpoints.add(endpoint)
    loop._run()
    assert handled == [("read", first), ("flush", first)]


def test_an_fd_an_accept_takes_in_the_batch_is_not_handled_as_the_dropped_one():
    """One batch reads connection A, accepts, then reads connection B. A's
    hello names r1, whose connection was B, so B is dropped and its fd
    closed; the accept takes that fd for a new connection C. The batch
    took its entries when the wait returned: B's entry is skipped, and C,
    on B's old fd, is not read in B's place."""
    loop = _Loop()
    real = loop.epoll
    daemon = ServerDaemon(S1, SWMR, "ohsam")
    daemon.loop, daemon.lock = loop, loop.lock  # no loop thread
    dials = []
    try:
        with loop.lock:
            loop.watch(daemon.listener, EPOLLIN, daemon, None)

        def dial_and_accept(hello):
            dials.append(socket.create_connection(daemon.address, timeout=10))
            dials[-1].sendall(_pack({"type": "hello", "pid": hello}))
            before = set(loop.table)
            with loop.lock:
                daemon._accept()
            (fd,) = set(loop.table) - before
            conn = loop.table[fd][1]
            assert select([conn.sock], [], [], 10)[0]  # its hello is there
            return fd, conn

        fd_b, conn_b = dial_and_accept("r1")
        with loop.lock:
            daemon._read(conn_b)
        assert daemon.client_conns[R1] is conn_b
        fd_a, conn_a = dial_and_accept("r1")
        dials.append(socket.create_connection(daemon.address, timeout=10))
        reads = []
        read = daemon._read
        daemon._read = lambda conn: (reads.append(conn), read(conn))
        batch = [(fd_a, EPOLLIN), (daemon.listener.fileno(), EPOLLIN),
                 (fd_b, EPOLLIN)]
        loop.epoll = SimpleNamespace(poll=lambda timeout: batch,
                                     register=real.register,
                                     unregister=real.unregister)
        loop._wake, loop._waker = socket.socketpair()
        with loop.lock:
            loop.watch(loop._wake, EPOLLIN, None, None)
        loop._run()  # one batch: no endpoint is in loop.endpoints
        conn_c = loop.table[fd_b][1]
        assert conn_c not in (conn_a, conn_b)  # the accept took B's fd
        assert conn_b.sock is None and daemon.client_conns[R1] is conn_a
        assert reads == [conn_a]
    finally:
        with loop.lock:
            loop.remove(daemon)
        daemon.listener.close()
        for sock in dials:
            sock.close()
        real.close()


@contextlib.contextmanager
def no_unclosed_socket():
    """Fail if a socket made in the block is left for the garbage
    collector to close, which `python -X dev` reports as unclosed."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        yield
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_bind_failure_names_the_address_and_closes_the_socket():
    busy = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    busy.bind(("127.0.0.1", 0))
    busy.listen(1)
    port = busy.getsockname()[1]
    try:
        with no_unclosed_socket():
            with pytest.raises(BindFailure,
                               match=f"cannot bind 127.0.0.1:{port}:"):
                ServerDaemon(parse_pid("s1"), SWMR, "ohsam", port=port)
    finally:
        busy.close()


def test_a_port_outside_the_range_is_a_bind_failure_with_no_socket_left():
    with no_unclosed_socket():
        with pytest.raises(BindFailure,
                           match="s1: cannot bind 127.0.0.1:70000:"):
            ServerDaemon(parse_pid("s1"), SWMR, "ohsam", port=70000)


BAD_ADDRESSES = pytest.mark.parametrize("addr", [
    ("127.0.0.1", 70000), ("127.0.0.1", -1), ["127.0.0.1", 7001],
    ("127.0.0.1", "7001"), ("127.0.0.1",), ("127.0.0.1", True)], ids=repr)


@BAD_ADDRESSES
def test_a_client_refuses_a_bad_address_before_it_makes_a_socket(addr):
    s1, s2, s3 = SWMR.servers()
    membership = {s1: addr, s2: ("127.0.0.1", 1), s3: ("127.0.0.1", 1)}
    with no_unclosed_socket():
        with pytest.raises(ValueError, match="s1: address must be"):
            Client(parse_pid("r1"), SWMR, "ohsam", membership)


@pytest.mark.parametrize("retry, match", [
    ({"retry_interval": 0}, "retry_interval must be > 0, got 0"),
    ({"retry_interval": -1.0}, "retry_interval must be > 0, got -1.0"),
    ({"retry_interval": float("nan")}, "retry_interval must be > 0, got nan"),
    ({"retry_interval": float("inf")},
     r"retry_interval must be <= threading\.TIMEOUT_MAX \(.+\), got inf"),
    ({"retry_interval": threading.TIMEOUT_MAX * 2},
     rf"retry_interval must be <= threading\.TIMEOUT_MAX \(.+\), "
     rf"got {threading.TIMEOUT_MAX * 2!r}"),
    ({"retry_budget": -1}, "retry_budget must be >= 0, got -1"),
], ids=repr)
def test_a_client_refuses_a_bad_retry_setting_before_it_makes_a_socket(
        retry, match):
    """A wait of no time does not block, so a retry_interval of 0 would
    give every op up at once; a wait above threading.TIMEOUT_MAX raises
    OverflowError in the op."""
    membership = {s: ("127.0.0.1", 1) for s in SWMR.servers()}
    with no_unclosed_socket():
        with pytest.raises(ValueError, match=f"r1: {match}"):
            Client(parse_pid("r1"), SWMR, "ohsam", membership, **retry)


@BAD_ADDRESSES
def test_a_server_refuses_a_bad_peer_address_before_it_dials(addr):
    s1, s2 = SWMR.servers()[:2]
    with no_unclosed_socket():
        daemon = ServerDaemon(s2, SWMR, "ohsam")
        try:
            with pytest.raises(ValueError, match="s1: address must be"):
                daemon.start({s1: addr, s2: daemon.address})
        finally:
            daemon.stop()


def test_a_server_dials_no_client_the_membership_names():
    """A server answers w1 on the connection w1 dialed, though its own
    membership also maps w1 to an address where nothing listens."""
    with socket.socket() as dead:
        dead.bind(("127.0.0.1", 0))  # bound, never listening: refuses dials
        daemons = [ServerDaemon(s, SWMR, "ohsam") for s in SWMR.servers()]
        servers = {d.pid: d.address for d in daemons}
        for d in daemons:
            d.start({**servers, W1: dead.getsockname()})
        writer = Client(W1, SWMR, "ohsam", servers, retry_budget=10)
        try:
            assert [W1 in d.links for d in daemons] == [False] * 3
            assert writer.write("A").value == "A#w1.1"
        finally:
            stop_all(daemons, [writer])


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
            reader.loop.unwatch(link.sock)
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


def raw_frame(obj):
    """obj framed as json.dumps writes it."""
    data = json.dumps(obj, separators=(",", ":")).encode("utf-8")
    return len(data).to_bytes(4, "big") + data


def reference_frame(msg):
    """A msg frame as json.dumps writes its positional array, with the
    pid texts str gives: the bytes the runner sends."""
    tag = msg.tag
    return raw_frame([
        msg.kind, str(msg.op.invoker), msg.op.seq, str(msg.sender),
        None if tag is None else tag.ts,
        None if tag is None else str(tag.wid), msg.value,
    ])


pids = st.builds(parse_pid, st.builds(
    "{}{}".format, st.sampled_from("wrs"), st.integers(1, 99)))
op_ids = st.builds(OpId, pids, st.integers(0, 2**53))
tags = st.builds(Tag, st.integers(0, 2**53), pids)
values = st.none() | st.text(st.sampled_from('"\\/\x00\x1f\n\t\x7f') |
                             st.characters())
messages = st.builds(
    Message, st.sampled_from(MESSAGE_KINDS), op_ids, pids, pids,
    tag=st.none() | tags, value=values)


@settings(max_examples=300)
@given(messages, st.text(" \t\n\r", max_size=3),
       st.text(" \t\n\r", max_size=3))
def test_msg_frames_keep_their_bytes_and_decode_back(msg, left, right):
    frame = _pack({"type": "msg", "msg": message_to_json(msg)})
    assert frame == reference_frame(msg)
    body = frame[4:]
    received = copy.copy(msg)
    received.destination = None
    assert message_from_json(_unpack(body)) == received
    padded = left.encode() + body + right.encode()
    assert _unpack(padded) == json.loads(padded.decode())
    with pytest.raises(ValueError):
        _unpack(body + b"x")


@pytest.mark.parametrize("obj", [
    {"type": "hello", "pid": "r1"},
    {"pid": "r1", "type": "hello"},
    {"type": "hello", "pid": "r1", "n": 2},
    {"type": "msg", "n": 2},
    {"type": "msg"},
    {},
    [],
    [1],
    [None, True, False],
    [2.5, -0.0, 1e300],
    [2**64, -1],
    ["readAck", "w1", 3, "s1", "w1", 2, "w1", "v", None],
    ["readAck", "w1", 3, "s1", "w1", None, None, None, None],
    {"type": "hello", "pid": "\u00e9\"\\/\x00\x1f\x7f"},
    {"type": "hello", "pid": "\U0001f600"},
    {"type": "hello", "pid": ["r1"]},
    {"type": "hello", "pid": {"role": "reader", "index": 1}},
    {"type": 1},
    {"type": None, "message": {}},
    {"Msg": {}},
    [{"type": "hello", "pid": "r1"}],
    [[1, [2, [3]]]],
    {"type": "hello", "pid": "r1", "n": {"a": [1, {"b": None}]}},
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
    request = message_from_json(next(frames))
    assert request.kind == KIND_READ_REQUEST
    return conn, request


def replaced(items, i, item):
    items = list(items)
    items[i] = item
    return items


def test_a_client_link_reads_on_past_a_frame_it_cannot_take():
    srv, reader, thread, done = reading_client()
    conn = None
    try:
        conn, request = accept_read_request(srv)
        with reader.lock:
            sock = reader.links[S1].sock
        # a readAck for the open read, with value "bad": the read would
        # return "bad" if the reader took any frame below, and would not
        # end if one dropped the link
        bad = _unpack(msg_frame(read_ack(request.op.seq, "bad"))[4:])
        untaken = [
            bad[:6], bad + [None],
            replaced(bad, 0, "readack"),
            replaced(bad, 2, float(bad[2])), replaced(bad, 2, True),
            replaced(bad, 2, str(bad[2])),
            replaced(bad, 4, float(bad[4])),
            replaced(bad, 5, None),  # a ts with a null wid
            replaced(bad, 6, 7),
            {"type": "msg", "msg": message_to_json(message_from_json(bad))},
            [1], "readAck",
        ]
        conn.sendall(b"".join(map(raw_frame, untaken))
                     + msg_frame(read_ack(request.op.seq)))
        thread.join(timeout=10.0)
        assert (done["rec"].op, done["rec"].value) == (request.op, "v")
        assert reader.links[S1].sock is sock
    finally:
        reader.close()
        if conn is not None:
            conn.close()
        srv.close()


THREE = Config(n_servers=3, n_readers=1, n_writers=1, f=1, mode="swmr")


def linked(daemons):
    """True once every server pair's connection is up at both ends: the
    later server's link has its socket, and the earlier server names
    that connection by the later one's hello."""
    return all(link.sock is not None
               for d in daemons for link in d.links.values()) and all(
        later.pid in d.client_conns
        for d in daemons for later in daemons if d.pid < later.pid)


@pytest.mark.parametrize("n", [3, 5])
def test_an_ohsam_read_encodes_each_broadcast_once(monkeypatch, n):
    """The read frames n readRequests, n(n-1) readRelays (a server's own
    relay stays in the process) and n readAcks, from 2n+1 encodes: the
    request broadcast, each server's relay broadcast, and each ack. At
    n=3 that is 12 frames from 7 encodes, at n=5 30 frames from 11."""
    config = Config(n_servers=n, n_readers=1, n_writers=1, f=(n - 1) // 2,
                    mode="swmr")
    encoded, framed = [], []
    encode, pack = runner.message_to_json, runner._pack

    def counting_encode(msg):
        encoded.append(msg.kind)
        return encode(msg)

    def counting_pack(obj):
        frame = pack(obj)
        if "msg" in obj:  # a hello is no msg
            framed.append((obj["msg"]["kind"], obj["msg"]["sender"], frame))
        return frame

    monkeypatch.setattr(runner, "message_to_json", counting_encode)
    monkeypatch.setattr(runner, "_pack", counting_pack)
    daemons, membership = start_cluster(config, "ohsam")
    reader = Client(R1, config, "ohsam", membership, retry_interval=10.0)
    try:
        assert wait_for(lambda: linked(daemons))
        reader.read()
        assert wait_for(lambda: len(framed) >= n * n + n)
        time.sleep(0.2)  # the cluster has gone quiet
    finally:
        stop_all(daemons, [reader])
    assert Counter(kind for kind, _, _ in framed) == {
        KIND_READ_REQUEST: n, KIND_READ_RELAY: n * (n - 1), KIND_READ_ACK: n}
    assert Counter(encoded) == {
        KIND_READ_REQUEST: 1, KIND_READ_RELAY: n, KIND_READ_ACK: n}
    by_sender = {}
    for kind, sender, frame in framed:
        by_sender.setdefault((kind, sender), set()).add(frame)
    assert all(len(frames) == 1 for frames in by_sender.values())


def frame_bodies(conn, count):
    """The raw bodies of the first count frames conn receives."""
    framer, bodies = Framer(), []
    while len(bodies) < count:
        data = conn.recv(RECV_SIZE)
        assert data, "the peer closed"
        bodies += framer.feed(data)
    return bodies


def test_the_frames_of_one_broadcast_are_byte_identical():
    """Each server gets the same bytes: no frame names its destination."""
    srvs = [peer_listener() for _ in THREE.servers()]
    for srv in srvs:
        srv.listen(1)
    reader = Client(R1, THREE, "ohsam",
                    {s: srv.getsockname()
                     for s, srv in zip(THREE.servers(), srvs)},
                    retry_interval=10.0)

    def read():
        with contextlib.suppress(QuorumUnreachable):  # closed unanswered
            reader.read()

    thread = threading.Thread(target=read, daemon=True)
    thread.start()
    conns = []
    try:
        for srv in srvs:
            conn, _ = srv.accept()
            conn.settimeout(10.0)
            conns.append(conn)
        requests = [frame_bodies(conn, 2)[1] for conn in conns]
        assert requests[0] == requests[1] == requests[2]
        msg = message_from_json(_unpack(requests[0]))
        assert (msg.kind, msg.sender, msg.destination) == (
            KIND_READ_REQUEST, R1, None)
    finally:
        reader.close()
        thread.join(timeout=10.0)
        for sock in conns + srvs:
            sock.close()


def test_a_received_message_reaches_its_machine_addressed_to_the_endpoint():
    """The wire carries no destination; the receiving endpoint's pid is it,
    at a server and at a client alike."""
    got = []

    def record(msg):
        got.append(msg)
        return [] if msg.destination is S1 else ([], None)

    daemon = ServerDaemon(S1, ONE, "ohsam")
    daemon.start({S1: daemon.address})
    daemon.machine.on_message = record
    srv = peer_listener()
    srv.listen(1)
    reader = Client(R1, ONE, "ohsam", {S1: srv.getsockname()})
    reader.machine.on_message = record
    sock = conn = None
    try:
        sock = socket.create_connection(daemon.address, timeout=5.0)
        sock.sendall(_pack({"type": "hello", "pid": "r1"}) + msg_frame(
            Message(KIND_READ_REQUEST, OpId(R1, 1), R1, parse_pid("s9"))))
        conn, _ = srv.accept()
        conn.sendall(msg_frame(read_ack(1)))
        assert wait_for(lambda: len(got) == 2)
    finally:
        reader.close()
        daemon.stop()
        for s in (sock, conn, srv):
            if s is not None:
                s.close()
    assert sorted((m.kind, m.destination) for m in got) == [
        (KIND_READ_ACK, R1), (KIND_READ_REQUEST, S1)]


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
    """close() wakes the op's thread through the wake pair, and the pair
    is closed once the op has left, by whichever close comes last."""
    srv = peer_listener()  # stands in for s1, and never answers
    srv.listen(1)
    done = {}

    def read():
        try:
            reader.read()
        except QuorumUnreachable as e:
            done["error"] = e

    conn = None
    with no_unclosed_socket():
        # a rebroadcast a second apart: only close() can end the op in time
        reader = Client(R1, ONE, "ohsam", {S1: srv.getsockname()},
                        retry_interval=1.0, retry_budget=100)
        thread = threading.Thread(target=read, daemon=True)
        thread.start()
        try:
            conn, _ = accept_read_request(srv)
            t0 = time.monotonic()
            reader.close()
            thread.join(timeout=10.0)
            assert not thread.is_alive()
            assert time.monotonic() - t0 < 0.5
            assert "closed" in str(done["error"])
            assert reader._wake.fileno() == reader._waker.fileno() == -1
        finally:
            reader.close()
            if conn is not None:
                conn.close()
            srv.close()


def test_close_with_no_op_waiting_closes_the_wake_pair():
    """With no op's thread to leave the pair to, close() closes both
    ends itself, and a second close() finds nothing more to do."""
    daemons, membership = start_cluster(ONE, "ohsam")
    writer = Client(W1, ONE, "ohsam", membership)
    try:
        assert writer.write("A").value == "A#w1.1"
    finally:
        stop_all(daemons, [writer])
    assert writer._wake.fileno() == writer._waker.fileno() == -1
    writer.close()
    with pytest.raises(QuorumUnreachable, match="w1: closed"):
        writer.write("B")


def test_stop_ends_a_waiting_op_as_close_does():
    """stop() is close(): a read waiting out a 5 s retry_interval raises
    at once, and its thread closes the wake pair as it leaves."""
    srv = peer_listener()  # stands in for s1, and never answers
    srv.listen(1)
    done = {}

    def read():
        try:
            reader.read()
        except QuorumUnreachable as e:
            done["error"] = e

    conn = None
    with no_unclosed_socket():
        reader = Client(R1, ONE, "ohsam", {S1: srv.getsockname()},
                        retry_interval=5.0, retry_budget=100)
        thread = threading.Thread(target=read, daemon=True)
        thread.start()
        try:
            conn, _ = accept_read_request(srv)
            t0 = time.monotonic()
            reader.stop()
            thread.join(timeout=10.0)
            assert not thread.is_alive()
            assert time.monotonic() - t0 < 0.5
            assert str(done["error"]) == "r1: closed with its read open"
            assert reader._wake.fileno() == reader._waker.fileno() == -1
        finally:
            reader.stop()
            if conn is not None:
                conn.close()
            srv.close()


def test_closing_a_writer_ends_its_waiting_write_naming_the_write():
    """The closed op is named by its own record's kind: a write waiting
    out a 5 s retry_interval raises at once, naming the write."""
    srv = peer_listener()  # stands in for s1, and never answers
    srv.listen(1)
    done = {}

    def write():
        try:
            writer.write("A")
        except QuorumUnreachable as e:
            done["error"] = e

    conn = None
    with no_unclosed_socket():
        writer = Client(W1, ONE, "ohsam", {S1: srv.getsockname()},
                        retry_interval=5.0, retry_budget=100)
        thread = threading.Thread(target=write, daemon=True)
        thread.start()
        try:
            conn, _ = srv.accept()
            conn.settimeout(10.0)
            frames = read_frames(conn)
            assert next(frames) == {"type": "hello", "pid": "w1"}
            assert message_from_json(next(frames)).kind == KIND_WRITE_REQUEST
            writer.close()
            thread.join(timeout=10.0)
            assert not thread.is_alive()
            assert str(done["error"]) == "w1: closed with its write open"
            assert writer.history[0].responded is None
        finally:
            writer.close()
            if conn is not None:
                conn.close()
            srv.close()


def test_stop_with_no_op_waiting_closes_the_wake_pair():
    srv = peer_listener()  # stands in for s1: never listens, so refuses
    try:
        with no_unclosed_socket():
            reader = Client(R1, ONE, "ohsam", {S1: srv.getsockname()})
            reader.stop()
        assert reader._wake.fileno() == reader._waker.fileno() == -1
    finally:
        srv.close()


def test_a_wake_byte_left_by_a_completion_that_raced_a_timeout_is_no_retry():
    """r1's first wait times out only once its read has completed, as a
    timeout that loses the race to the loop's completion: the read
    returns, stamped, not given up. The loop's wake byte for it arrives
    after; the next read drains it and waits its full retry_interval
    before it gives up, with no rebroadcast."""
    srv = peer_listener()  # stands in for s1: answers the first read only
    srv.listen(1)
    got = []

    def serve():
        conn, request = accept_read_request(srv)
        with conn:
            got.append(request)
            conn.sendall(msg_frame(read_ack(1)))
            got.extend(message_from_json(f) for f in read_frames(conn))

    server = threading.Thread(target=serve, daemon=True)
    server.start()
    reader = Client(R1, ONE, "ohsam", {S1: srv.getsockname()},
                    retry_interval=0.2, retry_budget=0)
    real = reader._wake

    class RacingWake:
        def recv(self, size):
            reader._wake = real  # later waits are real
            assert wait_for(lambda: not reader.machine.busy)
            raise TimeoutError

    reader._wake = RacingWake()
    try:
        first = reader.read()
        assert (first.value, reader._wake) == ("v", real)
        assert first.invoked < first.responded
        t0 = time.monotonic()
        with pytest.raises(QuorumUnreachable,
                           match="no quorum after 0 rebroadcasts"):
            reader.read()
        assert time.monotonic() - t0 >= 0.2
    finally:
        reader.close()
        server.join(timeout=10.0)
        srv.close()
    assert not server.is_alive()
    assert [m.op.seq for m in got] == [1, 2]  # no rebroadcast
    assert [r.responded is None for r in reader.history] == [False, True]


def test_the_loop_drops_a_wake_to_a_closed_client():
    """A wake the loop sends after its client closed the pair is dropped
    on the loop thread, which serves on: w1's write completes after it."""
    daemons, membership = start_cluster(ONE, "ohsam")
    writer = Client(W1, ONE, "ohsam", membership)
    closed = Client(R1, ONE, "ohsam", membership)
    loop = writer.loop
    thread = loop.thread
    try:
        closed.close()
        with loop.lock:
            loop.completed.append(closed)
            loop.wake()
        assert wait_for(lambda: not loop.completed)
        assert writer.write("A").value == "A#w1.1"
        assert loop.thread is thread and thread.is_alive()
    finally:
        stop_all(daemons, [writer])


def test_a_retry_interval_of_timeout_max_is_accepted():
    """The largest interval Client takes is one a socket can wait."""
    with no_unclosed_socket():
        daemons, membership = start_cluster(ONE, "ohsam")
        writer = Client(W1, ONE, "ohsam", membership,
                        retry_interval=threading.TIMEOUT_MAX)
        try:
            assert writer.write("A").value == "A#w1.1"
        finally:
            stop_all(daemons, [writer])


def test_a_dead_loop_thread_ends_every_waiting_op():
    """An exception that ends the loop thread stops every endpoint it
    served: a read that waits with no timeout to rebroadcast on raises
    QuorumUnreachable at once, no socket is left open, the exception
    still reaches threading.excepthook, and a later endpoint starts a
    fresh loop thread."""
    caught = []
    hook, threading.excepthook = threading.excepthook, caught.append
    done = {}

    def injected(conn):
        raise RuntimeError("injected")

    def read():
        try:
            reader.read()
        except QuorumUnreachable as e:
            done["error"] = e

    try:
        with no_unclosed_socket():
            daemons, membership = start_cluster(ONE, "ohsam")
            reader = Client(R1, ONE, "ohsam", membership,
                            retry_interval=threading.TIMEOUT_MAX)
            dead = reader.loop.thread
            try:
                assert reader.read().value is None  # the link is up
                daemons[0]._read = injected
                thread = threading.Thread(target=read, daemon=True)
                thread.start()
                thread.join(timeout=5.0)
                assert not thread.is_alive()
                dead.join(timeout=5.0)
                assert not dead.is_alive()
            finally:
                stop_all(daemons, [reader])
            assert str(done["error"]) == "r1: closed with its read open"
            assert reader.history[1].responded is None
            assert reader._wake.fileno() == reader._waker.fileno() == -1
            assert (reader.loop.table, reader.loop.thread) == ({}, None)
        assert [(a.exc_type, a.thread) for a in caught] == [
            (RuntimeError, dead)]
        daemons, membership = start_cluster(ONE, "ohsam")
        writer = Client(W1, ONE, "ohsam", membership)
        try:
            assert writer.write("A").value == "A#w1.1"
            fresh = writer.loop.thread
            assert fresh is not dead and fresh.name == "ohram-loop"
        finally:
            stop_all(daemons, [writer])
    finally:
        threading.excepthook = hook


def test_closes_race_wakes_and_timeouts_under_fast_thread_switches():
    """Four clients run ops back to back, each on a thread of its own,
    with a 5 ms retry_interval so timeouts race completions, while the
    main thread closes them one by one and the interpreter switches
    threads every 10 us. Every op either completes, stamped, or raises
    QuorumUnreachable on close; every thread exits; every wake pair is
    closed; and no wake raises on the loop thread."""
    config = Config(n_servers=3, n_readers=3, n_writers=1, f=1, mode="swmr")
    daemons, membership = start_cluster(config, "ohsam")
    clients = [Client(pid, config, "ohsam", membership, retry_interval=0.005,
                      retry_budget=10**6)
               for pid in config.writers() + config.readers()]
    ends = {}

    def run(client):
        op = client.read if client.pid in config.readers() else (
            lambda: client.write("v"))
        try:
            while True:
                op()
        except QuorumUnreachable as e:
            ends[client.pid] = e

    threads = [threading.Thread(target=run, args=(c,), daemon=True)
               for c in clients]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for client in clients:
            assert wait_for(lambda: len(client.history) >= 5)
            client.close()
        for thread in threads:
            thread.join(timeout=10.0)
    finally:
        sys.setswitchinterval(interval)
        stop_all(daemons, clients)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(ends) == sorted(c.pid for c in clients)
    assert all("closed" in str(e) for e in ends.values())
    for client in clients:
        done = [r for r in client.history if r.responded is not None]
        assert len(done) >= 4
        assert all(r.invoked < r.responded for r in done)
        assert client._wake.fileno() == client._waker.fileno() == -1


def test_every_wake_is_sent_after_its_batch_with_the_lock_released(
        monkeypatch):
    """The loop wakes an op's thread by a send made with loop.lock free,
    so every frame of the batch that completed the op went out before
    it, under the lock, and the woken thread need not queue for the
    lock behind the loop. Only the loop sends a wake here: the ops run
    one at a time on this thread, and none waits long enough to time
    out, so the lock is held at a wake only if the loop holds it."""
    log = []
    send = _Endpoint._send

    def logged_send(self, conn, msg):
        log.append(("frame", self.lock.locked()))
        return send(self, conn, msg)

    class LoggedWaker:
        def __init__(self, client):
            self.client, self.real = client, client._waker

        def send(self, data):
            loop = self.client.loop
            log.append(("wake", loop.lock.locked(),
                        threading.current_thread() is loop.thread))
            return self.real.send(data)

        def __getattr__(self, name):
            return getattr(self.real, name)

    monkeypatch.setattr(_Endpoint, "_send", logged_send)
    daemons, membership = start_cluster(THREE, "ohsam")
    writer = Client(W1, THREE, "ohsam", membership, retry_interval=10.0)
    reader = Client(R1, THREE, "ohsam", membership, retry_interval=10.0)
    for client in (writer, reader):
        client._waker = LoggedWaker(client)
    try:
        for i in range(5):
            wrec = writer.write(f"v{i}")
            assert reader.read().value == wrec.value
    finally:
        stop_all(daemons, [writer, reader])
    wakes = [e for e in log if e[0] == "wake"]
    assert wakes == [("wake", False, True)] * 10
    assert all(locked for kind, locked, *_ in log if kind == "frame")


def test_a_rebroadcast_resends_the_first_broadcast_without_encoding_it(
        monkeypatch):
    """A reader whose server withholds its answers rebroadcasts the
    machine's open phase: the very messages it broadcast first, so each
    rebroadcast frames the first broadcast's bytes, and the memo in
    _send spares every rebroadcast its encode."""
    encoded = []
    encode = runner.message_to_json

    def counting_encode(msg):
        encoded.append((msg.kind, msg.op))
        return encode(msg)

    monkeypatch.setattr(runner, "message_to_json", counting_encode)
    srv = peer_listener()  # stands in for s1, and never answers
    srv.listen(1)
    reader = Client(R1, ONE, "ohsam", {S1: srv.getsockname()},
                    retry_interval=0.01, retry_budget=3)
    conn = None
    try:
        with pytest.raises(QuorumUnreachable,
                           match="no quorum after 3 rebroadcasts"):
            reader.read()
        conn, _ = srv.accept()
        conn.settimeout(10.0)
        hello, first, *again = frame_bodies(conn, 5)
        assert _unpack(hello) == {"type": "hello", "pid": "r1"}
        assert message_from_json(_unpack(first)).kind == KIND_READ_REQUEST
        assert again == [first] * 3
        assert encoded == [(KIND_READ_REQUEST, OpId(R1, 1))]
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


def test_an_op_after_no_quorum_raises_not_well_formed():
    """A client that gave up on its quorum keeps the op open in its
    machine, whose rebroadcast() still returns the phase, so the next op
    on that client is not well formed (the CLI's exit 4)."""
    srv = peer_listener()  # stands in for s1: never listens, so refuses
    reader = Client(R1, ONE, "ohsam", {S1: srv.getsockname()},
                    retry_interval=0.01, retry_budget=0)
    try:
        with pytest.raises(QuorumUnreachable, match="no quorum"):
            reader.read()
        phase = reader.machine.rebroadcast()
        assert [(m.kind, m.op) for m in phase] == [
            (KIND_READ_REQUEST, OpId(R1, 1))]
        with pytest.raises(NotWellFormed, match="in flight"):
            reader.read()
        assert all(a is b for a, b in zip(reader.machine.rebroadcast(),
                                           phase, strict=True))
        # the read given up stays in the history, pending
        (rec,) = reader.history
        assert (rec.op, rec.kind, rec.responded) == (OpId(R1, 1), "read", None)
        assert rec.invoked is not None
    finally:
        reader.close()
        srv.close()


def test_a_write_given_up_stays_pending_so_a_read_of_its_value_is_atomic():
    """A write that reached one server of three gives up, a second server
    starts, and a read returns the write's value: the writer's history
    keeps the write as pending, so the merged history is atomic."""
    daemons, membership = start_cluster(THREE, "ohsam")
    for d in daemons[1:]:
        d.stop()  # s2 and s3 refuse: only s1 is up
    writer = Client(W1, THREE, "ohsam", membership,
                    retry_interval=0.01, retry_budget=3)
    reader = None
    try:
        with pytest.raises(QuorumUnreachable, match="no quorum"):
            writer.write("A")
        daemons[1] = ServerDaemon(daemons[1].pid, THREE, "ohsam",
                                  port=daemons[1].port)
        daemons[1].start(membership)
        reader = Client(R1, THREE, "ohsam", membership)
        rrec = reader.read()
        assert (rrec.tag, rrec.value) == (Tag(1, W1), "A#w1.1")
        history = merge_histories(writer.history, reader.history)
        assert check_history(history).atomic
        assert check_bruteforce(history).atomic
        (wrec,) = writer.history
        assert (wrec.op, wrec.value, wrec.responded) == (
            OpId(W1, 1), "A#w1.1", None)
    finally:
        stop_all(daemons, [c for c in (writer, reader) if c is not None])


def test_a_write_whose_quorum_comes_after_it_gave_up_responds_in_history():
    """w1's one server holds its first writeAck for 0.3 s, so the write
    gives up first. The late ack completes the write in the machine, and
    the loop stamps the record's response as it handles the ack: the
    next write runs, and the history is well formed."""
    srv = socket.create_server(("127.0.0.1", 0))
    srv.settimeout(10.0)

    def serve():
        conn, _ = srv.accept()
        with conn:
            frames = read_frames(conn)
            next(frames)  # the hello
            for frame in frames:
                req = message_from_json(frame)
                if req.op.seq == 1:
                    time.sleep(0.3)
                conn.sendall(msg_frame(Message(KIND_WRITE_ACK, req.op, S1, W1,
                                               tag=req.tag)))

    server = threading.Thread(target=serve, daemon=True)
    server.start()
    writer = Client(W1, ONE, "ohsam", {S1: srv.getsockname()},
                    retry_interval=0.05, retry_budget=0)
    try:
        with pytest.raises(QuorumUnreachable, match="no quorum"):
            writer.write("A")
        (arec,) = writer.history
        assert arec.responded is None
        assert wait_for(lambda: not writer.machine.busy)  # the late ack
        brec = writer.write("B")
        history = history_from_json(history_to_json(writer.history))
        assert [(r.op, r.value) for r in history] == [
            (OpId(W1, 1), "A#w1.1"), (OpId(W1, 2), "B#w1.2")]
        assert arec.invoked < arec.responded < brec.invoked
    finally:
        writer.close()
        server.join(timeout=10.0)
        srv.close()
    assert not server.is_alive()


def test_a_dial_that_fails_at_once_waits_to_redial(monkeypatch):
    """An IPv6 host on the AF_INET socket makes connect_ex raise at
    once, before any lookup or connection: each dial closes its socket
    and leaves the link waiting to redial, the op gives up, and close
    stops the waiting."""
    dialed, raised = [], []

    class Recording(socket.socket):
        def connect_ex(self, address):
            dialed.append(self)
            try:
                return super().connect_ex(address)
            except OSError as e:
                raised.append(type(e))
                raise

    monkeypatch.setattr(socket, "socket", Recording)
    reader = Client(R1, ONE, "ohsam", {S1: ("::1", 7001)},
                    retry_interval=0.01, retry_budget=2)
    link = reader.links[S1]
    try:
        with pytest.raises(QuorumUnreachable,
                           match="no quorum after 2 rebroadcasts"):
            reader.read()
        with reader.lock:
            assert link.sock is None
            assert reader.loop.waiting[link] is reader
    finally:
        reader.close()
    assert link not in reader.loop.waiting
    assert dialed and raised == [socket.gaierror] * len(dialed)
    assert all(sock.fileno() == -1 for sock in dialed)


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
        # the link loses s2's first relay to s3, a broadcast's copy that
        # only the connection addresses
        if msg.kind == KIND_READ_RELAY and conn.peer is s3.pid \
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
            assert set(d.links) == {s for s in FIVE.servers() if s < d.pid}
        links = [link for d in daemons for link in d.links.values()]
        # a dialed link has its hello on the wire, and the earlier peer
        # has named the connection by that hello
        assert wait_for(lambda: linked(daemons)
                        and all(not link.outbuf for link in links))
        with loop.lock:
            ends = [sock for endpoint, conn, sock in loop.table.values()
                    if endpoint in daemons and conn is not None]
            pairs = {frozenset((s.getsockname(), s.getpeername()))
                     for s in ends}
            for d in daemons:
                assert set(d.client_conns) == {
                    s for s in FIVE.servers() if s > d.pid}
        assert len(ends) == 20
        assert len(pairs) == 10
    finally:
        stop_all(daemons)


def test_a_stopped_cluster_leaves_an_empty_table_and_no_open_socket():
    """Once every endpoint of a cluster stops, the loop's thread exits
    with nothing left in its table, and every socket the table held,
    listeners, links, accepted connections and the waker, is closed."""
    daemons, membership = start_cluster(FIVE, "ohsam")
    writer = Client(W1, FIVE, "ohsam", membership)
    reader = Client(R1, FIVE, "ohsam", membership)
    loop = writer.loop
    try:
        wrec = writer.write("A")
        assert reader.read().value == wrec.value
        with loop.lock:
            socks = [sock for _, _, sock in loop.table.values()]
        # 5 listeners, 10 server pairs and 10 client links, both ends
        # of each in this process, and the waker
        assert len(socks) == 5 + 2 * (10 + 10) + 1
    finally:
        stop_all(daemons, [writer, reader])
    assert wait_for(lambda: loop.thread is None)
    assert loop.table == {}
    assert [sock for sock in socks if sock.fileno() != -1] == []


def test_only_a_later_members_hello_takes_a_link():
    s1, s2, s3, s9 = (parse_pid(p) for p in ("s1", "s2", "s3", "s9"))
    daemon = ServerDaemon(s2, SWMR, "ohsam")
    srv = peer_listener()  # s1 and s3: bound, never listening
    daemon.start({s1: srv.getsockname(), s2: daemon.address,
                  s3: srv.getsockname()})
    socks = []
    try:
        # every connection is inbound, named by its first hello of the
        # configuration: s2 dials s1 itself, yet a connection that names
        # s1 is kept, and its second hello is ignored; s9 is no member,
        # so its hello does not count and the connection's next one does;
        # s3's connection is named s3, as a client's is named by its pid
        for hellos in (["s1", "s3"], ["s9", "r1"], ["s3"]):
            socks.append(socket.create_connection(daemon.address,
                                                  timeout=10.0))
            socks[-1].sendall(b"".join(
                _pack({"type": "hello", "pid": pid}) for pid in hellos))
        assert wait_for(lambda: len(daemon.client_conns) == 3)
        with daemon.lock:
            assert set(daemon.links) == {s1}
            assert set(daemon.client_conns) == {s1, R1, s3}
            assert all(conn.sock is not None
                       for conn in daemon.client_conns.values())
            assert daemon.links[s1].address == srv.getsockname()
            assert [daemon.client_conns[p].sock.getpeername()
                    for p in (s1, R1, s3)] == [
                        sock.getsockname() for sock in socks]
    finally:
        for sock in socks:
            sock.close()
        daemon.stop()
        srv.close()


def test_frames_naming_processes_outside_the_configuration_are_skipped():
    """Neither a foreign msg nor a foreign hello makes an id or leaves
    state behind; the connection they came on serves on."""
    daemon = ServerDaemon(S1, ONE, "ohsam")
    daemon.start({S1: daemon.address})
    foreign = [  # each names one id outside ONE, kept as text
        *(["readRequest", f"r{i}", 1, f"r{i}", None, None, None]
          for i in range(10_001, 11_996)),
        ["readRequest", "r7001", 1, "r1", None, None, None],
        ["readRequest", "r1", 1, "s7001", None, None, None],
        ["writeRequest", "w1", 1, "w1", 1, "w7001", "A"],
        ["readRelay", "r1", 1, "s7001", 0, "s1", None],
        ["readRelay", "r1", 1, "s1", 0, "w7001", None],
    ]
    sock = None
    try:
        with daemon.lock:
            pids = len(core._PIDS)
        sock = socket.create_connection(daemon.address, timeout=10.0)
        sock.sendall(
            _pack({"type": "hello", "pid": "r1"})
            + b"".join(_pack({"type": "hello", "pid": f"w{i}"})
                       for i in range(8_001, 8_201))
            + b"".join(map(raw_frame, foreign))
            + msg_frame(Message(KIND_READ_REQUEST, OpId(R1, 2), R1, S1)))
        msg = message_from_json(next(read_frames(sock)))
        assert (msg.kind, msg.op, msg.tag) == (KIND_READ_ACK, OpId(R1, 2),
                                               Tag(0, S1))
        with daemon.lock:
            assert len(foreign) == 2_000
            assert set(daemon.machine.reads) == {R1}
            assert set(daemon.client_conns) == {R1}
            assert len(core._PIDS) == pids
    finally:
        if sock is not None:
            sock.close()
        daemon.stop()


def test_an_eight_item_msg_array_is_skipped_and_its_connection_serves_on():
    """The msg layout with a relay origin as an eighth item is malformed:
    neither a request nor a relay in it reaches the machine, and the
    connection it came on answers the next well-formed frame."""
    daemon = ServerDaemon(S1, ONE, "ohsam")
    daemon.start({S1: daemon.address})
    sock = None
    try:
        sock = socket.create_connection(daemon.address, timeout=10.0)
        sock.sendall(
            _pack({"type": "hello", "pid": "r1"})
            + raw_frame(["readRequest", "r1", 1, "r1", None, None, None, None])
            + raw_frame(["readRelay", "r1", 1, "s1", 0, "s1", None, "s1"])
            + msg_frame(Message(KIND_READ_REQUEST, OpId(R1, 2), R1, S1)))
        msg = message_from_json(next(read_frames(sock)))
        assert (msg.kind, msg.op) == (KIND_READ_ACK, OpId(R1, 2))
        with daemon.lock:
            assert daemon.machine.reads == {R1: (2, {S1})}
    finally:
        if sock is not None:
            sock.close()
        daemon.stop()


def test_relays_to_a_later_peer_that_is_down_are_lost():
    s1, s2, s3 = SWMR.servers()
    daemon = ServerDaemon(s1, SWMR, "ohsam")
    srv = peer_listener()  # s1 never dials a later peer: any address will do
    daemon.start({s1: daemon.address, s2: srv.getsockname(),
                  s3: srv.getsockname()})
    socks = []

    def hello_from_s2():
        socks.append(socket.create_connection(daemon.address, timeout=10.0))
        socks[-1].sendall(_pack({"type": "hello", "pid": "s2"}))
        assert wait_for(lambda: s2 in daemon.client_conns)
        return socks[-1]

    def read_request(seq):  # s1 relays it to every server
        with daemon.lock:
            daemon._handle(Message(KIND_READ_REQUEST, OpId(R1, seq), R1, s1))

    try:
        hello_from_s2().close()  # s2 goes down
        assert wait_for(lambda: s2 not in daemon.client_conns)
        for seq in range(1, 6):
            read_request(seq)
        with daemon.lock:
            assert s2 not in daemon.client_conns
        conn = hello_from_s2()  # s2 is back, and says hello
        for seq in range(6, 11):
            read_request(seq)
        frames = read_frames(conn)
        got = [message_from_json(next(frames)) for _ in range(5)]
        assert [(m.kind, m.op.seq) for m in got] == [
            (KIND_READ_RELAY, seq) for seq in range(6, 11)]
    finally:
        for sock in socks:
            sock.close()
        daemon.stop()
        srv.close()


def test_a_newer_connection_from_a_process_replaces_its_older_one():
    s1, s2, s3 = SWMR.servers()
    daemon = ServerDaemon(s1, SWMR, "ohsam")
    srv = peer_listener()  # s1 never dials a later peer: any address will do
    daemon.start({s1: daemon.address, s2: srv.getsockname(),
                  s3: srv.getsockname()})
    socks = []

    def named_by_s2(sock):
        with daemon.lock:
            conn = daemon.client_conns.get(s2)
            return (conn is not None
                    and conn.sock.getpeername() == sock.getsockname())

    try:
        # s2 redials before s1 sees its first connection end
        for _ in range(2):
            socks.append(socket.create_connection(daemon.address,
                                                  timeout=10.0))
            socks[-1].sendall(_pack({"type": "hello", "pid": "s2"}))
            assert wait_for(lambda: named_by_s2(socks[-1]))
        assert socks[0].recv(1) == b""  # s1 closed the older connection
        with daemon.lock:
            assert set(daemon.client_conns) == {s2}
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
