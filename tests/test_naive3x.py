"""Unsound three-exchange-write protocol: the decision rule in isolation."""

import random

import pytest

from ohram.checker import check_history
from ohram.cli import main
from ohram.core import (
    Config,
    Message,
    OpId,
    Tag,
    quorum_size,
    reader_id,
    writer_id,
    server_id,
)
from ohram.naive3x import (
    Naive3xServer,
    Naive3xWriter,
    Relay,
    WriteRecord,
    default_x,
    order_writes,
)
from ohram.protocols import get_protocol
from ohram.simnet import simulate

CFG = Config(n_servers=3, n_readers=1, n_writers=2, f=1)
W1, W2 = writer_id(1), writer_id(2)
S1, S2, S3 = server_id(1), server_id(2), server_id(3)

REC_A = WriteRecord(OpId(W1, 1), Tag(1, W1), "A#w1.1")
REC_B = WriteRecord(OpId(W2, 1), Tag(1, W2), "B#w2.1")


def test_default_threshold_is_half_rounded_up():
    assert [default_x(n) for n in (3, 4, 5, 7)] == [2, 2, 3, 4]


def test_order_unanimous_evidence_wins():
    assert order_writes(3, 0, x=2) is True
    assert order_writes(0, 3, x=2) is False


def test_order_conflicting_evidence_flips_at_threshold():
    assert order_writes(1, 1, x=2) is True
    assert order_writes(1, 2, x=2) is True  # still below the threshold
    assert order_writes(2, 1, x=2) is False  # x-th smaller-first witness
    assert order_writes(3, 2, x=4) is True
    assert order_writes(4, 1, x=4) is False


def test_writer_picks_tag_locally():
    w = Naive3xWriter(W2, CFG)
    outs = w.invoke_write("A")
    assert [m.kind for m in outs] == ["writeRequest"] * 3
    assert outs[0].tag == Tag(1, W2)
    w.acks = set()
    done = None
    for s in (S1, S3):
        _, done = w.on_message(Message("writeAck", outs[0].op, s, W2,
                                       tag=outs[0].tag, value=outs[0].value))
    assert done is not None and done.tag == Tag(1, W2)


def test_server_with_no_evidence_serves_initial():
    s = Naive3xServer(S1, CFG)
    assert s.adopted() == (Tag(0, S1), None)


def test_server_with_one_write_serves_it():
    s = Naive3xServer(S1, CFG)
    s._note_write(REC_B)
    assert s.adopted() == (REC_B.tag, REC_B.value)


def test_two_writes_unanimous_order_serves_later_one():
    s = Naive3xServer(S1, CFG, x=2)
    s._note_write(REC_A)
    s._note_write(REC_B)
    s._merge_origin(S2, (REC_A, REC_B))
    # every declaration says the smaller-tag write came first
    assert s.adopted() == (REC_B.tag, REC_B.value)


def test_two_writes_flip_on_xth_witness():
    s = Naive3xServer(S3, CFG, x=2)
    # own observations: the smaller-tag write first
    s._note_write(REC_A)
    s._note_write(REC_B)
    # one origin saw the larger-tag write first: 1 vs 1, below x
    s._merge_origin(S1, (REC_B, REC_A))
    assert s.adopted() == (REC_B.tag, REC_B.value)
    # the second smaller-first witness reaches x and flips the order,
    # so the larger-tag write is now declared first and A is served
    s._merge_origin(S2, (REC_A, REC_B))
    assert s.adopted() == (REC_A.tag, REC_A.value)


def test_origin_merge_keeps_longest_list():
    s = Naive3xServer(S1, CFG)
    s._merge_origin(S2, (REC_A, REC_B))
    s._merge_origin(S2, (REC_A,))  # shorter snapshot arrives late
    assert s.origin_obs[S2] == (REC_A, REC_B)


def test_three_or_more_writes_fall_back_to_max_tag():
    s = Naive3xServer(S1, CFG)
    third = WriteRecord(OpId(W1, 2), Tag(2, W1), "C#w1.2")
    for rec in (REC_B, third, REC_A):
        s._note_write(rec)
    assert s.adopted() == (third.tag, third.value)


def test_write_relay_round_acks_at_quorum_origins():
    s = Naive3xServer(S1, CFG)
    op = OpId(W1, 1)
    req = Message("writeRequest", op, W1, S1, tag=Tag(1, W1), value="A#w1.1")
    outs = s.on_message(req)
    assert [m.kind for m in outs] == ["writeRelay"] * 3
    assert s.on_message(req) == outs  # every copy relays
    rel = lambda origin: Relay("writeRelay", op, origin, S1, tag=Tag(1, W1),
                               value="A#w1.1", relay_origin=origin,
                               observations=(REC_A,))
    assert s.on_message(rel(S2)) == []
    outs = s.on_message(rel(S3))
    assert [m.kind for m in outs] == ["writeAck"]
    assert s.on_message(rel(S1)) == []  # ack once


def test_read_relays_carry_observation_snapshots():
    from ohram.core import reader_id
    s = Naive3xServer(S2, CFG)
    s._note_write(REC_B)
    outs = s.on_message(Message("readRequest", OpId(reader_id(1), 1),
                                reader_id(1), S2))
    assert [type(m) for m in outs] == [Relay] * 3
    assert [m.kind for m in outs] == ["readRelay"] * 3
    assert outs[0].observations == (REC_B,)
    assert outs[0].tag == REC_B.tag


def test_live_runner_refuses_this_protocol():
    bundle = get_protocol("naive3x")
    assert bundle.sound is False


def test_protocol_registry_rejects_unknown_names():
    from ohram.core import ModeMismatch
    with pytest.raises(ModeMismatch):
        get_protocol("paxos")


def test_seed_1059_is_a_non_atomic_run():
    """The one uniform seed in 10,000 (n=3, x=2, six ops, no crashes)
    whose run breaks atomicity: a yardstick for schedule search."""
    result = simulate("naive3x", CFG, 1059, max_ops=6, max_crashes=0, x=2)
    assert result.events == 96 and not result.crashed
    verdict = check_history(result.history)
    assert verdict.to_json() == {"atomic": False, "method": "bruteforce",
                                 "violation": {
                                     "property": "P3",
                                     "pair": ["w2#1", "r1#2"],
                                     "explanation": "no linearization can "
                                     "place r1#2 (returned 'C#w1.2')"}}


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 3: with three writes in view naive3x "
                          "serves the largest tag, so w1's later write, "
                          "whose tag is smaller, is never read")
@pytest.mark.parametrize("x", [1, 2, 3])
def test_a_sequential_fifo_drained_history_is_atomic_at_every_x(x, capsys):
    """One op at a time, each drained in send order: no two writes are
    concurrent, so the impossibility does not apply."""
    code = main(["simulate", "--protocol", "naive3x", "--servers", "3",
                 "--writers", "2", "--ops", "w2,w2,w1,r1", "--x", str(x)])
    assert code == 0, capsys.readouterr().out


class AckedSets(Naive3xServer):
    """The relay bookkeeping count_relay replaced, kept as a reference.

    write_acked and acked_reads grow with every operation answered; an
    operation is answered when its origin set first holds a majority
    and it is not in the set yet. Every copy of a request relays.
    """

    def __post_init__(self):
        super().__post_init__()
        self.write_acked = set()
        self.acked_reads = set()

    def on_write_request(self, msg):
        self._note_write(WriteRecord(msg.op, msg.tag, msg.value))
        snapshot = tuple(self.observations)
        return [Relay("writeRelay", msg.op, self.pid, s, tag=msg.tag,
                      value=msg.value, relay_origin=self.pid,
                      observations=snapshot)
                for s in self.config.servers()]

    def on_write_relay(self, msg):
        self._note_write(WriteRecord(msg.op, msg.tag, msg.value))
        self._merge_origin(msg.relay_origin, msg.observations)
        origins = self.write_relays.setdefault(msg.op, set())
        origins.add(msg.relay_origin)
        if (len(origins) >= quorum_size(self.config.n_servers)
                and msg.op not in self.write_acked):
            self.write_acked.add(msg.op)
            return [Message("writeAck", msg.op, self.pid, msg.op.invoker,
                            tag=msg.tag, value=msg.value)]
        return []

    def on_read_request(self, msg):
        tag, value = self.adopted()
        snapshot = tuple(self.observations)
        return [Relay("readRelay", msg.op, self.pid, s, tag=tag,
                      value=value, relay_origin=self.pid,
                      observations=snapshot)
                for s in self.config.servers()]

    def on_read_relay(self, msg):
        self._merge_origin(msg.relay_origin, msg.observations)
        origins = self.read_relays.setdefault(msg.op, set())
        origins.add(msg.relay_origin)
        if (len(origins) >= quorum_size(self.config.n_servers)
                and msg.op not in self.acked_reads):
            self.acked_reads.add(msg.op)
            tag, value = self.adopted()
            return [Message("readAck", msg.op, self.pid, msg.op.invoker,
                            tag=tag, value=value)]
        return []


def _naive_traffic(rng, steps):
    """Requests and relays of two writers' and one reader's operations.

    A message names an operation that is current or one or two behind,
    so relays arrive before their request and after their operation was
    answered; a quarter of the steps repeat an earlier message.
    """
    R1 = reader_id(1)
    current = {W1: 1, W2: 1, R1: 1}
    sent = []
    for _ in range(steps):
        if sent and rng.random() < 0.25:
            yield rng.choice(sent)
            continue
        client = rng.choice((W1, W2, R1))
        if rng.random() < 0.15:
            current[client] += 1
        op = OpId(client, max(1, current[client] - rng.choice((0, 0, 1, 2))))
        rec = WriteRecord(op, Tag(op.seq, client), f"v#{op}")
        kind = "read" if client == R1 else "write"
        if rng.random() < 0.3:
            msg = Message(f"{kind}Request", op, client, S1,
                          tag=None if kind == "read" else rec.tag,
                          value=None if kind == "read" else rec.value)
        else:
            origin = rng.choice((S1, S2, S3))
            writes = [REC_A, REC_B, rec] if kind == "write" else [REC_A, REC_B]
            obs = tuple(rng.sample(writes, rng.randint(0, len(writes))))
            msg = Relay(f"{kind}Relay", op, origin, S1,
                        tag=None if kind == "read" else rec.tag,
                        value=None if kind == "read" else rec.value,
                        relay_origin=origin, observations=obs)
        sent.append(msg)
        yield msg


def test_count_relay_answers_what_the_acked_sets_answered():
    """Same outputs and state after every message, duplicate requests,
    duplicate relays and early relays included, though no simulated run
    delivers a duplicate."""
    seen = {"duplicate relay": 0, "early relay": 0, "repeated request": 0,
            "writeAck": 0, "readAck": 0}
    for seed in range(40):
        new, old = Naive3xServer(S1, CFG), AckedSets(S1, CFG)
        requested = set()
        for msg in _naive_traffic(random.Random(seed), 200):
            if msg.relay_origin is not None:
                relays = old.write_relays if msg.kind == "writeRelay" \
                    else old.read_relays
                if msg.relay_origin in relays.get(msg.op, ()):
                    seen["duplicate relay"] += 1
                if msg.op not in requested:
                    seen["early relay"] += 1
            elif msg.op in requested:
                seen["repeated request"] += 1
            else:
                requested.add(msg.op)
            outs = new.on_message(msg)
            assert outs == old.on_message(msg)
            for m in outs:
                if m.kind in seen:
                    seen[m.kind] += 1
            state = dict(vars(old))
            del state["write_acked"], state["acked_reads"]
            assert vars(new) == state
    assert all(seen.values()), seen
