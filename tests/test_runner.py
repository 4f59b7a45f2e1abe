"""Live TCP cluster: framing, full runs, crash tolerance."""

import socket
import threading
import time

import pytest

from ohram.checker import check_bruteforce, check_witness
from ohram.core import (
    KIND_READ_ACK,
    KIND_READ_RELAY,
    Config,
    Message,
    ModeMismatch,
    OpId,
    QuorumUnreachable,
    Tag,
    message_from_json,
    parse_pid,
)
from ohram.runner import (
    MAX_FRAME,
    Client,
    ServerDaemon,
    _pack,
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
