"""Multi-writer write path: discover phase, tag choice, and the paper's
stale-write guard, which discovery leaves nothing to refuse."""

import random

from ohram.core import (
    KIND_WRITE_ACK,
    Config,
    Message,
    OpId,
    Tag,
    server_id,
    writer_id,
)
from ohram.ohmam import WriterStateM
from ohram.ohsam import ServerStateS
from ohram.simnet import seeded_net

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
    assert w.rebroadcast()[0].tag == Tag(1, W1)  # the open phase carries it


def test_discover_echoes_without_update():
    s = ServerStateS(S2, CFG)
    s.on_message(Message("writeRequest", OpId(W1, 2), W1, S2,
                         tag=Tag(1, W1), value="A#w1.1"))
    outs = s.on_message(Message("discover", OpId(W2, 1), W2, S2))
    assert [m.kind for m in outs] == ["discoverAck"]
    assert outs[0].tag == Tag(1, W1)
    assert outs[0].value == "A#w1.1"


class _PaperServer(ServerStateS):
    """The paper's Oh-MAM server: a writeRequest is adopted only when its
    tag is larger and its writer's write_op counter is newer than the
    one recorded. refusals lists each writeRequest whose tag was larger
    that the counter test refused."""

    def __init__(self, pid, config):
        super().__init__(pid, config)
        self.write_operations = {}
        self.refusals = []

    def on_write_request(self, msg):
        larger = self.tag < msg.tag
        outs = self._guarded_write_request(msg)
        if larger and self.tag != msg.tag:
            self.refusals.append(msg)
        return outs

    def _guarded_write_request(self, msg):
        wid = msg.op.invoker
        if self.tag < msg.tag and self.write_operations.get(wid, 0) < msg.op.seq:
            self.tag = msg.tag
            self.value = msg.value
            self.write_operations[wid] = msg.op.seq
        return self._reply(KIND_WRITE_ACK, msg)


def test_the_paper_guard_never_refuses_a_larger_tag():
    """Discovery leaves the write_op test nothing to refuse: over seeded
    runs with 2-5 writers and up to f crashes, a server with the guard
    never refuses a larger tag, so it adopts what a guard-free server
    adopts."""
    # a larger tag under a stale counter is what the guard refuses
    s = _PaperServer(S1, CFG)
    for seq, ts in ((2, 3), (1, 5)):
        s.on_message(Message("writeRequest", OpId(W1, seq), W1, S1,
                             tag=Tag(ts, W1), value=f"v{seq}"))
    assert [m.op for m in s.refusals] == [OpId(W1, 1)]
    rng = random.Random(46)
    crashed = 0
    for seed in range(1500):
        n = (3, 5, 7)[seed % 3]
        config = Config(n_servers=n, n_readers=rng.randint(1, 3),
                        n_writers=rng.randint(2, 5), f=(n - 1) // 2)
        net = seeded_net("ohmam", config, seed, max_ops=rng.randint(10, 30))
        for pid in config.servers():
            net.servers[pid] = _PaperServer(pid, config)
        net.run_seeded()
        assert [m for s in net.servers.values() for m in s.refusals] == []
        crashed += bool(net.crashed)
    assert crashed > 500
