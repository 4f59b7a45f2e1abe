"""Live TCP cluster: framing, full runs, crash tolerance."""

import gc
import json
import socket
import threading
import time
import warnings
from selectors import EVENT_READ

import pytest
from hypothesis import given, settings, strategies as st

from ohram.checker import check_bruteforce, check_witness
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
    WriteRecord,
    message_from_json,
    message_to_json,
    opid_to_json,
    parse_pid,
    tag_to_json,
)
from ohram.runner import (
    MAX_FRAME,
    Client,
    ServerDaemon,
    _Conn,
    _pack,
    _unpack,
    listen_host,
    merge_histories,
    read_frames,
)

MWMR = Config(n_servers=3, n_readers=1, n_writers=2, f=1)
SWMR = Config(n_servers=3, n_readers=2, n_writers=1, f=1, mode="swmr")


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


def test_reply_to_a_client_not_yet_connected_is_held_until_hello():
    s1, s2, s3, r1 = (parse_pid(p) for p in ("s1", "s2", "s3", "r1"))
    daemon = ServerDaemon(s1, SWMR, "ohsam")
    daemon.start({s1: daemon.address})
    sock = None
    try:
        read = OpId(r1, 1)
        for origin in (s2, s3):
            daemon._handle(Message(KIND_READ_RELAY, read, origin, s1,
                                   tag=Tag(0, origin), relay_origin=origin))
        # the majority of relays is in: the one ack for r1#1 is produced
        # now, while r1 has no connection to s1 yet
        assert [m.kind for m in daemon.held_replies[r1]] == [KIND_READ_ACK]
        sock = socket.create_connection(daemon.address, timeout=5.0)
        sock.sendall(_pack({"type": "hello", "pid": "r1"}))
        frame = next(read_frames(sock))
        msg = message_from_json(frame["msg"])
        assert (msg.kind, msg.op, msg.sender) == (KIND_READ_ACK, read, s1)
        assert r1 not in daemon.held_replies
    finally:
        if sock is not None:
            sock.close()
        daemon.stop()


def test_held_replies_keep_only_the_newest_op():
    r1 = parse_pid("r1")
    daemon = ServerDaemon(parse_pid("s1"), SWMR, "ohsam")
    try:
        def ack(seq):
            return Message(KIND_READ_ACK, OpId(r1, seq), daemon.pid, r1)

        for seq in (1, 2, 2, 1):
            daemon._route(ack(seq))
        assert daemon.held_replies[r1] == [ack(2), ack(2)]
    finally:
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
        extra = [t for t in threading.enumerate() if t not in before]
        # one loop per endpoint; nothing per link or per connection
        assert len(extra) == len(daemons) + 1 == 4
        assert all(t.name.endswith("(_loop)") for t in extra)
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


def test_frames_queued_while_the_peer_is_down_go_first():
    srv = peer_listener()  # bound, not listening: dials are refused
    writer, link = writer_link(srv)
    conn = None
    try:
        for seq in range(1, 6):
            send(writer, write_request(seq, size=10))
        with writer.lock:
            assert [m.op.seq for m in link.unsent] == [1, 2, 3, 4, 5]
        srv.listen(1)
        conn, _ = srv.accept()
        assert hello_sent(link)
        for seq in range(6, 11):  # each written through
            assert not send(writer, write_request(seq, size=10))
        assert received_seqs(conn, 10) == list(range(1, 11))
    finally:
        writer.close()
        if conn is not None:
            conn.close()
        srv.close()


def test_a_head_frame_cut_short_is_resent_whole_on_reconnect():
    srv = peer_listener()
    srv.listen(2)
    writer, link = writer_link(srv)
    first, _ = srv.accept()
    second = None
    try:
        assert hello_sent(link)
        last, _ = fill_until_queued(writer)
        with writer.lock:  # a partial write: the head frame's tail waits
            assert 0 < len(link.outbuf) < len(msg_frame(write_request(last)))
        for _ in range(3):
            last += 1
            send(writer, write_request(last))
        head = last - 3
        first.close()  # unread data: the peer resets the connection
        second, _ = srv.accept()
        assert received_seqs(second, 4) == list(range(head, last + 1))
        assert wait_for(lambda: not link.outbuf)
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
        last = OpId(r2, 80)
        for seq in range(1, last.seq + 1):
            for sock, d in zip(others, daemons[1:]):
                sock.sendall(msg_frame(Message(
                    KIND_READ_REQUEST, OpId(r2, seq), r2, d.pid)))
        assert wait_for(lambda: last in s1.machine.relays, seconds=30.0)
        for _ in range(3):
            rec = r1.read()
        assert rec.value == writer.history[-1].value
        assert wait_for(lambda: s1.machine.relays.get(rec.op) == set(
            SWMR.servers())), s1.machine.relays.get(rec.op)
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


def test_replies_unsent_at_a_cut_off_are_held_for_the_next_hello():
    r1 = parse_pid("r1")
    daemon = ServerDaemon(parse_pid("s1"), SWMR, "ohsam")  # no loop: the
    stalled, never_read = socket.socketpair()  # test drives it by hand
    fresh, client = socket.socketpair()

    def ack(seq):
        return Message(KIND_READ_ACK, OpId(r1, seq), daemon.pid, r1,
                       tag=Tag(1, parse_pid("w1")), value="v" * 100_000)

    def hello(sock):
        sock.setblocking(False)
        conn = _Conn(sock)
        daemon.selector.register(sock, EVENT_READ, conn)
        daemon._frame(conn, {"type": "hello", "pid": "r1"})

    try:
        hello(stalled)
        seq = 0
        while r1 in daemon.client_conns:
            seq += 1
            daemon._route(ack(seq))
        # the ack that passed MAX_BACKLOG never left: it waits for a hello
        assert daemon.held_replies[r1] == [ack(seq)]
        hello(fresh)
        client.settimeout(5.0)
        assert message_from_json(next(read_frames(client))["msg"]) == ack(seq)
        assert r1 not in daemon.held_replies
    finally:
        for sock in (stalled, never_read, fresh, client):
            sock.close()
        daemon.stop()


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
    if msg.observations is not None:
        obj["observations"] = [
            {"op": opid_to_json(w.op), "tag": tag_to_json(w.tag),
             "value": w.value}
            for w in msg.observations
        ]
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
    tag=st.none() | tags, value=values, relay_origin=st.none() | pids,
    observations=st.none() | st.lists(
        st.builds(WriteRecord, op_ids, tags, values), max_size=3).map(tuple))


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
