"""Single-writer emulation: writer, reader, and server state machines."""

import random

import pytest
from hypothesis import given, strategies as st

from ohram.core import (
    Config,
    Message,
    NotWellFormed,
    OpId,
    Tag,
    quorum_size,
    reader_id,
    server_id,
    writer_id,
)
from ohram.ohsam import ReaderStateS, ServerStateS, WriterStateS
from ohram.simnet import SimNet

CFG = Config(n_servers=3, n_readers=1, n_writers=1, f=1, mode="swmr")
W1 = writer_id(1)
R1 = reader_id(1)
S1, S2, S3 = server_id(1), server_id(2), server_id(3)


def relay(op, sender, dest, tag, value):
    return Message("readRelay", op, sender, dest, tag=tag, value=value)


def test_write_is_two_exchanges_wide():
    w = WriterStateS(W1, CFG)
    (req,) = w.invoke_write("A")  # one broadcast to every server
    assert (req.kind, req.destination) == ("writeRequest", None)
    assert req.tag == Tag(1, W1)


def test_write_completes_at_quorum_acks():
    w = WriterStateS(W1, CFG)
    (req, *_rest) = w.invoke_write("A")
    ack = lambda s: Message("writeAck", req.op, s, W1, tag=req.tag,
                            value=req.value)
    _, done = w.on_message(ack(S1))
    assert done is None
    _, done = w.on_message(ack(S1))  # duplicate does not advance
    assert done is None
    _, done = w.on_message(ack(S3))
    assert done is not None and done.tag == Tag(1, W1)
    assert not w.busy


def test_writer_rejects_overlapping_invocations():
    w = WriterStateS(W1, CFG)
    w.invoke_write("A")
    with pytest.raises(NotWellFormed):
        w.invoke_write("B")


def test_writer_timestamps_strictly_increase():
    w = WriterStateS(W1, CFG)
    seen = []
    for label in "ABC":
        req = w.invoke_write(label)[0]
        seen.append(req.tag.ts)
        for s in (S1, S2):
            w.on_message(Message("writeAck", req.op, s, W1,
                                 tag=req.tag, value=req.value))
    assert seen == [1, 2, 3]


def test_server_ignores_smaller_writer_id_at_same_timestamp():
    s = ServerStateS(S1, CFG)
    s._adopt(Tag(3, writer_id(2)), "held")
    s.on_message(Message("writeRequest", OpId(writer_id(1), 3), writer_id(1),
                         S1, tag=Tag(3, writer_id(1)), value="incoming"))
    assert s.tag == Tag(3, writer_id(2))
    assert s.value == "held"


def test_server_relays_every_copy_to_everyone_including_itself():
    s = ServerStateS(S1, CFG)
    op = OpId(R1, 1)
    req = Message("readRequest", op, R1, S1)
    outs = s.on_message(req)
    # one broadcast, which the harness sends to every server
    assert [(m.kind, m.sender, m.destination) for m in outs] == [
        ("readRelay", S1, None)]
    assert s.on_message(req) == outs  # a second copy relays again


def test_relay_carries_state_without_updating_it():
    s = ServerStateS(S1, CFG)
    op = OpId(R1, 1)
    outs = s.on_message(Message("readRequest", op, R1, S1))
    assert outs[0].tag == Tag(0, S1)
    assert outs[0].value is None


def test_server_acks_read_once_at_quorum_relay_origins():
    s = ServerStateS(S3, CFG)
    op = OpId(R1, 1)
    t = Tag(1, W1)
    assert s.on_message(relay(op, S1, S3, t, "A#w1.1")) == []
    outs = s.on_message(relay(op, S2, S3, t, "A#w1.1"))
    assert [m.kind for m in outs] == ["readAck"]
    assert outs[0].destination == R1
    assert outs[0].tag == t
    # a third origin arrives later: already answered, stays quiet
    assert s.on_message(relay(op, S3, S3, t, "A#w1.1")) == []


def test_relays_arriving_before_the_request_still_count():
    """A slow direct request must not reset progress made via gossip."""
    s = ServerStateS(S3, CFG)
    op = OpId(R1, 1)
    t = Tag(2, W1)
    assert s.on_message(relay(op, S1, S3, t, "B#w1.2")) == []
    outs = s.on_message(relay(op, S2, S3, t, "B#w1.2"))
    assert [m.kind for m in outs] == ["readAck"]
    assert (outs[0].tag, outs[0].value) == (t, "B#w1.2")
    outs = s.on_message(Message("readRequest", op, R1, S3))
    # the late request triggers this server's own relay round only
    assert [(m.kind, m.destination) for m in outs] == [("readRelay", None)]


def test_server_adopts_larger_relay_tag():
    s = ServerStateS(S2, CFG)
    s.on_message(relay(OpId(R1, 1), S1, S2, Tag(4, W1), "D#w1.4"))
    assert s.tag == Tag(4, W1)
    assert s.value == "D#w1.4"


def test_gc_retires_only_answered_earlier_ops_of_same_invoker():
    s = ServerStateS(S1, CFG)
    old, new = OpId(R1, 1), OpId(R1, 2)
    t = Tag(1, W1)
    s.on_message(relay(old, S2, S1, t, "A#w1.1"))
    s.on_message(relay(old, S3, S1, t, "A#w1.1"))  # answered now
    assert s.reads == {R1: (1, {S2, S3})}
    s.on_message(Message("readRequest", new, R1, S1))
    assert s.reads == {R1: (2, set())}


def test_a_newer_read_retires_an_unanswered_older_one():
    s = ServerStateS(S1, CFG)
    old, new = OpId(R1, 1), OpId(R1, 2)
    s.on_message(relay(old, S2, S1, Tag(1, W1), "A#w1.1"))
    s.on_message(Message("readRequest", new, R1, S1))
    assert s.reads == {R1: (2, set())}  # old had one origin, never acked
    # the relay that would have brought old to a majority sends nothing
    assert s.on_message(relay(old, S3, S1, Tag(2, W1), "B#w1.2")) == []
    assert (s.tag, s.value) == (Tag(2, W1), "B#w1.2")  # the tag still counts
    assert s.reads == {R1: (2, set())}


def test_reader_returns_minimum_tag_among_acks():
    cfg5 = Config(n_servers=5, n_readers=1, n_writers=1, f=2, mode="swmr")
    r = ReaderStateS(R1, cfg5)
    op = OpId(R1, 1)
    r.invoke_read()
    acks = [
        (server_id(1), Tag(3, writer_id(1)), "a"),
        (server_id(2), Tag(3, writer_id(2)), "b"),
        (server_id(3), Tag(5, writer_id(1)), "c"),
    ]
    done = None
    for sender, tag, value in acks:
        _, done = r.on_message(Message("readAck", op, sender, R1,
                                       tag=tag, value=value))
    assert done is not None
    assert (done.tag, done.value) == (Tag(3, writer_id(1)), "a")


def test_reader_ignores_acks_for_previous_reads():
    r = ReaderStateS(R1, CFG)
    r.invoke_read()
    first = OpId(R1, 1)
    for s in (S1, S2):
        _, done = r.on_message(Message("readAck", first, s, R1,
                                       tag=Tag(1, W1), value="A#w1.1"))
    assert done is not None
    r.invoke_read()
    _, done = r.on_message(Message("readAck", first, S3, R1,
                                   tag=Tag(1, W1), value="A#w1.1"))
    assert done is None
    assert r.replies == {}


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=5),
                          st.integers(min_value=1, max_value=3)),
                max_size=30))
def test_server_tag_never_decreases(updates):
    """Monotonicity under any mix of write requests and relays."""
    s = ServerStateS(S1, CFG)
    seen = Tag(0, S1)
    for i, (ts, wid) in enumerate(updates):
        t = Tag(ts, writer_id(wid))
        if i % 2 == 0:
            s.on_message(Message("writeRequest", OpId(writer_id(wid), i + 1),
                                 writer_id(wid), S1, tag=t, value=f"v{i}"))
        else:
            s.on_message(relay(OpId(R1, i + 1), S2, S1, t, f"v{i}"))
        assert not s.tag < seen
        seen = s.tag


def test_a_retired_reads_request_sends_nothing_and_keeps_no_state():
    s = ServerStateS(S1, CFG)
    old, new = OpId(R1, 1), OpId(R1, 2)
    s.on_message(Message("readRequest", old, R1, S1))
    s.on_message(relay(old, S2, S1, Tag(1, W1), "A#w1.1"))
    s.on_message(relay(old, S3, S1, Tag(1, W1), "A#w1.1"))
    s.on_message(Message("readRequest", new, R1, S1))
    s.on_message(relay(new, S2, S1, Tag(1, W1), "A#w1.1"))
    assert s.reads == {R1: (2, {S2})}
    assert s.on_message(Message("readRequest", old, R1, S1)) == []
    assert s.reads == {R1: (2, {S2})}


def test_a_retired_read_is_never_answered_again():
    s = ServerStateS(S1, CFG)
    old, new = OpId(R1, 1), OpId(R1, 2)
    s.on_message(relay(old, S2, S1, Tag(1, W1), "A#w1.1"))
    assert [m.kind for m in s.on_message(
        relay(old, S3, S1, Tag(1, W1), "A#w1.1"))] == ["readAck"]
    s.on_message(Message("readRequest", new, R1, S1))
    for origin in (S1, S2, S3):  # every origin is new to the retired read
        assert s.on_message(relay(old, origin, S1, Tag(2, W1),
                                  "B#w1.2")) == []
    assert (s.tag, s.value) == (Tag(2, W1), "B#w1.2")  # the tag still counts
    assert s.reads == {R1: (2, set())}


def test_sequential_reads_leave_one_entry_per_reader():
    s = ServerStateS(S1, CFG)
    acks = 0
    for seq in range(1, 1001):
        op = OpId(R1, seq)
        s.on_message(Message("readRequest", op, R1, S1))
        for origin in (S1, S2, S3):
            acks += len(s.on_message(relay(op, origin, S1, Tag(0, S1),
                                           None)))
        assert len(s.reads) <= 1
    assert acks == 1000
    assert s.reads == {R1: (1000, {S1, S2, S3})}


@pytest.mark.parametrize("protocol, mode", [("ohsam", "swmr"),
                                            ("ohmam", "mwmr")])
def test_servers_hold_one_read_per_reader_after_a_long_run(
        monkeypatch, protocol, mode):
    """After every delivery, a server's entry for a reader is the largest
    seq of that reader's read messages delivered to it so far."""
    newest = {}  # server -> reader -> largest seq delivered
    deliver = SimNet.deliver

    def checked(net, entry):
        deliver(net, entry)
        dest, msg, _ = entry
        seen = newest.setdefault(dest, {})
        if msg.kind in ("readRequest", "readRelay"):
            r = msg.op.invoker
            seen[r] = max(seen.get(r, 0), msg.op.seq)
        s = net.servers.get(dest)
        if s is not None:
            assert {r: seq for r, (seq, _) in s.reads.items()} == seen

    monkeypatch.setattr(SimNet, "deliver", checked)
    cfg = Config(n_servers=5, n_readers=5, n_writers=1, f=2, mode=mode)
    net = SimNet(protocol, cfg, seed=7)
    for pid in cfg.readers():
        net.load_program(pid, [("read", None)] * 200)
    net.load_program(writer_id(1), [("write", "A")] * 20)
    net.pending_crashes = [server_id(2), server_id(5)]
    net.run_seeded()
    assert len(net.history) == 1020 and not net.invariant_failures
    live = [s for pid, s in net.servers.items() if pid not in net.crashed]
    assert len(live) == 3
    for s in live:
        assert len(s.reads) == 5


class _AckedReads:
    """Read bookkeeping per operation, kept as a reference for the one
    read per invoker that replaced it.

    relays[op] holds the origins counted for each read; relayed holds
    the reads relayed so far, and a repeated readRequest for one of them
    relays nothing (the old relay-once rule); acked_reads grows with
    every read answered, and a read message retires every answered
    entry of its invoker's earlier reads, by a scan over all entries. A
    readRequest for a read whose relays hold this server's own origin
    and a majority acks again, as in the server.
    """

    def __init__(self, pid, config):
        super().__init__(pid, config)
        self.relays = {}
        self.relayed = set()
        self.acked_reads = set()

    def on_read_request(self, msg):
        self._gc(msg.op)
        origins = self.relays.get(msg.op, ())
        ack = []
        if (self.pid in origins
                and len(origins) >= quorum_size(self.config.n_servers)):
            ack = [Message("readAck", msg.op, self.pid, msg.op.invoker,
                           tag=self.tag, value=self.value)]
        if msg.op in self.relayed:
            return ack
        self.relayed.add(msg.op)
        return [Message("readRelay", msg.op, self.pid, None, tag=self.tag,
                        value=self.value)] + ack

    def on_read_relay(self, msg):
        self._gc(msg.op)
        self._adopt(msg.tag, msg.value)
        origins = self.relays.setdefault(msg.op, set())
        origins.add(msg.sender)
        if (len(origins) >= quorum_size(self.config.n_servers)
                and msg.op not in self.acked_reads):
            self.acked_reads.add(msg.op)
            return [Message("readAck", msg.op, self.pid, msg.op.invoker,
                            tag=self.tag, value=self.value)]
        return []

    def _gc(self, op):
        stale = [o for o in self.relays
                 if o.invoker == op.invoker and o.seq < op.seq
                 and o in self.acked_reads]
        for o in stale:
            del self.relays[o]
            self.relayed.discard(o)


class FullScanS(_AckedReads, ServerStateS):
    pass


def _random_traffic(rng, steps):
    """Read traffic from three readers, late and duplicate copies included.

    Each reader's current op advances now and then; a message names the
    current op or one of the two before it, so relays race ahead of their
    request, requests arrive after their op was answered and retired, and
    relays repeat an origin already counted.
    """
    readers = [reader_id(i) for i in (1, 2, 3)]
    current = {r: 1 for r in readers}
    writes = 0
    for _ in range(steps):
        r = rng.choice(readers)
        if rng.random() < 0.15:
            current[r] += 1
        op = OpId(r, max(1, current[r] - rng.choice((0, 0, 0, 1, 2))))
        roll = rng.random()
        if roll < 0.25:
            yield Message("readRequest", op, r, S1)
        elif roll < 0.9:
            origin = rng.choice((S1, S2, S3))
            yield relay(op, origin, S1, Tag(rng.randint(0, 4), W1),
                        f"v{rng.randint(0, 4)}")
        else:
            writes += 1
            yield Message("writeRequest", OpId(W1, writes), W1, S1,
                          tag=Tag(writes, W1), value=f"w{writes}")


def _once(traffic):
    """The simulator's delivery model: each request and each (op, origin)
    relay arrives once, and the server's own relay, which it sends on the
    request, only after the request."""
    seen = set()
    for msg in traffic:
        key = (msg.kind, msg.op, msg.sender)
        if (msg.sender == S1
                and ("readRequest", msg.op, msg.op.invoker) not in seen):
            continue
        if msg.kind == "writeRequest" or key not in seen:
            seen.add(key)
            yield msg


def _not_older(newest, msg):
    """True for a write, and for a read message no older than its
    invoker's newest read message delivered so far, which it becomes."""
    if msg.kind == "writeRequest":
        return True
    r = msg.op.invoker
    if msg.op.seq < newest.get(r, 0):
        return False
    newest[r] = msg.op.seq
    return True


@pytest.mark.parametrize("indexed, reference", [(ServerStateS, FullScanS)])
def test_indexed_gc_retires_what_the_full_scan_retires(indexed, reference):
    """One read per invoker answers exactly as the old bookkeeping on
    every message of an invoker's newest read, under the simulator's
    delivery model, and sends nothing for an older one. With duplicates,
    the two differ also on whether a repeated readRequest relays again,
    and a second readAck for a read answers only a copy of its request
    that arrives after the server's own relay. Tags agree throughout."""
    seen = {"early relay": 0, "late request": 0, "duplicate relay": 0,
            "retired": 0, "second ack": 0, "answered when retired": 0}

    def compare(new, old, msg, newest):
        outs, expected = new.on_message(msg), old.on_message(msg)
        if not _not_older(newest, msg):
            assert outs == []
            seen["answered when retired"] += any(
                m.kind == "readAck" for m in expected)
            expected = []
        assert (new.tag, new.value) == (old.tag, old.value)
        return outs, expected

    for seed in range(40):
        new, old, newest = indexed(S1, CFG), reference(S1, CFG), {}
        for msg in _once(_random_traffic(random.Random(seed), 300)):
            outs, expected = compare(new, old, msg, newest)
            assert outs == expected
        new, old, newest = indexed(S1, CFG), reference(S1, CFG), {}
        acked = set()
        for msg in _random_traffic(random.Random(seed), 150):
            kind = msg.kind
            if kind == "readRelay" and msg.op not in old.relayed:
                seen["early relay"] += 1
            if kind == "readRelay" and msg.sender in old.relays.get(
                    msg.op, ()):
                seen["duplicate relay"] += 1
            if (kind == "readRequest" and msg.op in old.acked_reads
                    and msg.op not in old.relays):
                seen["late request"] += 1
            before = len(old.relays)
            seq, origins = new.reads.get(msg.op.invoker, (0, ()))
            own = seq == msg.op.seq and S1 in origins
            outs, expected = compare(new, old, msg, newest)
            if kind != "readRequest":
                assert outs == expected
            for m in outs:
                if m.kind == "readAck":
                    if m.op in acked:
                        assert kind == "readRequest" and own
                        seen["second ack"] += 1
                    acked.add(m.op)
            if len(old.relays) < before:
                seen["retired"] += 1
    assert all(seen.values()), seen
