"""Two-round baseline: query-then-write-back reads."""

from ohram.core import (
    Config,
    Message,
    OpId,
    Tag,
    reader_id,
    server_id,
    writer_id,
)
from ohram.abd import AbdReaderState
from ohram.ohmam import WriterStateM
from ohram.ohsam import Replica, ServerStateS
from ohram.protocols import PROTOCOLS, get_protocol

CFG = Config(n_servers=3, n_readers=1, n_writers=2, f=1)
W1, W2 = writer_id(1), writer_id(2)
R1 = reader_id(1)
S1, S2, S3 = server_id(1), server_id(2), server_id(3)


def test_read_is_two_rounds_with_mandatory_writeback():
    r = AbdReaderState(R1, CFG)
    (req,) = r.invoke_read()  # one broadcast to every server
    assert (req.kind, req.destination) == ("readRequest", None)
    op = req.op
    _, done = r.on_message(Message("readAck", op, S1, R1,
                                   tag=Tag(2, W1), value="B#w1.2"))
    assert done is None
    backs, done = r.on_message(Message("readAck", op, S2, R1,
                                       tag=Tag(3, W2), value="C#w2.1"))
    assert done is None
    # write-back of the maximum pair, even though a majority already agrees
    (back,) = backs
    assert (back.kind, back.destination) == ("writeRequest", None)
    assert back.tag == Tag(3, W2)
    assert back.value == "C#w2.1"
    for s in (S1, S2):
        _, done = r.on_message(Message("writeAck", back.op, s, R1,
                                       tag=back.tag, value=back.value))
    assert done is not None
    assert (done.tag, done.value) == (Tag(3, W2), "C#w2.1")


def test_read_of_untouched_register_returns_initial():
    r = AbdReaderState(R1, CFG)
    op = r.invoke_read()[0].op
    done = None
    for s in (S1, S2):
        outs, done = r.on_message(Message("readAck", op, s, R1,
                                          tag=Tag(0, s), value=None))
    (back,) = outs
    for s in (S1, S2):
        _, done = r.on_message(Message("writeAck", back.op, s, R1,
                                       tag=back.tag, value=back.value))
    assert done is not None
    assert done.value is None
    assert done.tag.ts == 0


def test_mwmr_write_discovers_then_propagates():
    w = WriterStateM(W1, CFG)
    (disc,) = w.invoke_write("A")
    assert (disc.kind, disc.destination) == ("discover", None)
    op = disc.op
    reqs = []
    for s, t in ((S1, Tag(5, W2)), (S2, Tag(1, W1))):
        more, done = w.on_message(Message("discoverAck", op, s, W1, tag=t))
        assert done is None
        reqs.extend(more)
    (req,) = reqs
    assert (req.kind, req.destination) == ("writeRequest", None)
    assert req.tag == Tag(6, W1)
    # both rounds of one op share the counter value
    assert req.op == op
    done = None
    for s in (S1, S2):
        _, done = w.on_message(Message("writeAck", req.op, s, W1,
                                       tag=req.tag, value=req.value))
    assert done is not None and done.op == OpId(W1, 1)


def test_server_answers_reads_directly():
    s = Replica(S1, CFG)
    s.on_message(Message("writeRequest", OpId(W1, 1), W1, S1,
                         tag=Tag(1, W1), value="A#w1.1"))
    outs = s.on_message(Message("readRequest", OpId(R1, 1), R1, S1))
    assert [m.kind for m in outs] == ["readAck"]
    assert outs[0].destination == R1
    assert (outs[0].tag, outs[0].value) == (Tag(1, W1), "A#w1.1")


def test_server_keeps_larger_tag_on_equal_timestamp():
    s = Replica(S1, CFG)
    s.on_message(Message("writeRequest", OpId(W2, 1), W2, S1,
                         tag=Tag(3, W2), value="held"))
    s.on_message(Message("writeRequest", OpId(W1, 3), W1, S1,
                         tag=Tag(3, W1), value="incoming"))
    assert (s.tag, s.value) == (Tag(3, W2), "held")


def test_server_answers_an_older_read_after_a_newer_one():
    """No read bookkeeping: a late readRequest of an older read gets the
    current pair, as the Monitor's late-request rule allows."""
    s = Replica(S1, CFG)
    s.on_message(Message("readRequest", OpId(R1, 2), R1, S1))
    s.on_message(Message("writeRequest", OpId(W1, 1), W1, S1,
                         tag=Tag(1, W1), value="A#w1.1"))
    outs = s.on_message(Message("readRequest", OpId(R1, 1), R1, S1))
    assert [(m.kind, m.op, m.destination) for m in outs] == [
        ("readAck", OpId(R1, 1), R1)]
    assert (outs[0].tag, outs[0].value) == (Tag(1, W1), "A#w1.1")


def test_every_sound_server_is_the_replica_or_its_relaying_subclass():
    assert (get_protocol("abd-swmr").make_server
            is get_protocol("abd-mwmr").make_server is Replica)
    for bundle in PROTOCOLS.values():
        if bundle.sound:
            assert bundle.make_server in (Replica, ServerStateS), bundle.name
