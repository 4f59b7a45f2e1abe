"""Multi-writer write path: discover phase, tag choice, server guard."""

from ohram.core import (
    Config,
    Message,
    OpId,
    Tag,
    server_id,
    writer_id,
)
from ohram.ohmam import ServerStateM, WriterStateM

CFG = Config(n_servers=3, n_readers=1, n_writers=2, f=1)
W1, W2 = writer_id(1), writer_id(2)
S1, S2, S3 = server_id(1), server_id(2), server_id(3)


def discover_ack(op, sender, tag, value=None):
    return Message("discoverAck", op, sender, op.invoker, tag=tag, value=value)


def run_write(w, label, server_tags):
    """Drive one write to completion against scripted discover answers."""
    (disc,) = w.invoke_write(label)  # one broadcast to every server
    assert (disc.kind, disc.destination) == ("discover", None)
    reqs = []
    for sender, tag in server_tags:
        more, done = w.on_message(discover_ack(disc.op, sender, tag))
        assert done is None
        reqs.extend(more)
    (req,) = reqs
    assert (req.kind, req.destination) == ("writeRequest", None)
    done = None
    for s in (S1, S2):
        _, done = w.on_message(
            Message("writeAck", req.op, s, w.pid, tag=req.tag, value=req.value))
    assert done is not None
    return done


def test_both_phases_of_write_k_carry_its_op():
    w = WriterStateM(W1, CFG)
    for k, label in ((1, "A"), (2, "B")):
        outs = w.invoke_write(label)
        assert {m.op for m in outs} == {OpId(W1, k)}  # discover
        for s in (S1, S2):
            reqs, _ = w.on_message(discover_ack(outs[0].op, s, Tag(0, s)))
        assert {m.op for m in reqs} == {OpId(W1, k)}  # writeRequest
        (req,) = reqs
        for s in (S1, S2):
            w.on_message(
                Message("writeAck", req.op, s, W1, tag=req.tag, value=req.value))
    assert w.seq == 2


def test_write_k_completes_as_op_k():
    w = WriterStateM(W1, CFG)
    run_write(w, "A", [(S1, Tag(0, S1)), (S2, Tag(0, S2))])
    done = run_write(w, "B", [(S1, Tag(1, W1)), (S2, Tag(1, W1))])
    assert done.op == OpId(W1, 2)
    assert w.seq == 2


def test_discovered_tag_is_max_ts_plus_one_own_id():
    w = WriterStateM(W2, CFG)
    done = run_write(w, "A", [(S1, Tag(4, W1)), (S2, Tag(2, W2))])
    assert done.tag == Tag(5, W2)
    assert done.op == OpId(W2, 1)


def test_max_ts_ignores_writer_ids():
    # (3,w2) and (3,w1) discover answers: max ts is 3 either way
    w = WriterStateM(W1, CFG)
    done = run_write(w, "A", [(S1, Tag(3, W2)), (S2, Tag(3, W1))])
    assert done.tag == Tag(4, W1)


def test_stale_discover_acks_are_dropped():
    w = WriterStateM(W1, CFG)
    op1 = w.invoke_write("A")[0].op
    for s in (S1, S2):
        w.on_message(discover_ack(op1, s, Tag(0, s)))
    # now in the write phase: a late discoverAck for op1 must not count
    outs, done = w.on_message(discover_ack(op1, S3, Tag(9, W2)))
    assert outs == [] and done is None
    assert w.tag == Tag(1, W1)


def test_server_adopts_only_fresh_larger_writes():
    s = ServerStateM(S1, CFG)
    s.on_message(Message("writeRequest", OpId(W2, 2), W2, S1,
                         tag=Tag(3, W2), value="A#w2.1"))
    assert s.tag == Tag(3, W2)
    # larger tag but stale counter: refused
    outs = s.on_message(Message("writeRequest", OpId(W2, 2), W2, S1,
                                tag=Tag(9, W2), value="ghost"))
    assert s.tag == Tag(3, W2)
    assert outs[0].kind == "writeAck" and outs[0].tag == Tag(3, W2)
    # fresh counter but smaller tag: refused too
    s.on_message(Message("writeRequest", OpId(W1, 2), W1, S1,
                         tag=Tag(3, W1), value="B#w1.1"))
    assert s.tag == Tag(3, W2)
    # both conditions hold: adopted
    s.on_message(Message("writeRequest", OpId(W1, 4), W1, S1,
                         tag=Tag(4, W1), value="C#w1.2"))
    assert (s.tag, s.value) == (Tag(4, W1), "C#w1.2")


def test_non_adopting_ack_does_not_refresh_counter():
    """A refused write must stay refusable for its own counter only."""
    s = ServerStateM(S1, CFG)
    s.on_message(Message("writeRequest", OpId(W1, 2), W1, S1,
                         tag=Tag(2, W1), value="A#w1.1"))
    # stale replay with a huge counter but a small tag: no adopt
    s.on_message(Message("writeRequest", OpId(W1, 6), W1, S1,
                         tag=Tag(1, W1), value="old"))
    assert s.write_operations[W1] == 2
    # the genuine counter-4 write still goes through
    s.on_message(Message("writeRequest", OpId(W1, 4), W1, S1,
                         tag=Tag(5, W1), value="B#w1.2"))
    assert s.value == "B#w1.2"


def test_discover_echoes_without_update():
    s = ServerStateM(S2, CFG)
    s.on_message(Message("writeRequest", OpId(W1, 2), W1, S2,
                         tag=Tag(1, W1), value="A#w1.1"))
    outs = s.on_message(Message("discover", OpId(W2, 1), W2, S2))
    assert [m.kind for m in outs] == ["discoverAck"]
    assert outs[0].tag == Tag(1, W1)
    assert outs[0].value == "A#w1.1"
    assert s.write_operations == {W1: 2}


def test_unknown_invoker_writes_still_guarded_per_id():
    # the counter ledger is keyed by invoker id, whoever that is
    s = ServerStateM(S1, CFG)
    from ohram.core import reader_id
    r1 = reader_id(1)
    s.on_message(Message("writeRequest", OpId(r1, 1), r1, S1,
                         tag=Tag(7, W2), value="G#w2.7"))
    assert s.tag == Tag(7, W2)
