"""Client machines against verbatim copies of their hand-written forerunners.

Every client machine is now a QuorumClient whose subclasses only say
what a complete phase leads to. The classes below are five machines
(and the naive3x reader's decision rule) as they were written before
that fold, kept verbatim as the reference. ohmam's writer uses one
counter value per write, as abd-mwmr's does, so the abd-mwmr writer is
its reference too. Seeded streams drive a new machine and its
reference side by side with invocations and with replies of every shape the network can produce: the open phase's reply,
a reply to an older phase or operation, a reply for another invoker, a
reply of the wrong kind, a second reply from a sender already counted,
and a reply after completion. After every step both must send the same
messages, complete the same operation the same way, and agree on busy,
value and the other state the suite pins; and the new machine's
rebroadcast() must return the very messages it sent last while it is
busy, a later phase's included, and nothing while it is idle.

A forerunner completes with a Completion, defined here since the package
has none; a new machine completes with its op's OpRecord, which must
carry the same op, kind, tag and value and no times, since only the
harness stamps those. A writer's value is its record's value.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

import pytest

from ohram.core import (
    Config,
    KIND_DISCOVER,
    KIND_DISCOVER_ACK,
    KIND_READ_ACK,
    KIND_READ_REQUEST,
    KIND_WRITE_ACK,
    KIND_WRITE_REQUEST,
    MESSAGE_KINDS,
    Message,
    NotWellFormed,
    OpId,
    ProcessId,
    Tag,
    make_value,
    quorum_size,
    reader_id,
    writer_id,
)
from ohram.protocols import PROTOCOL_NAMES, get_protocol


@dataclass
class Completion:
    """A finished client operation: canonical id, kind, and result."""

    op: OpId
    kind: str  # "read" | "write"
    tag: Tag
    value: Optional[str]


# -- the reference machines, verbatim --

@dataclass
class WriterStateS:
    """Single writer: one timestamp, one pending write at a time.

    value holds the value of the write in flight (of the last write once
    it completes), under the same name as in every other writer machine.
    """

    pid: ProcessId
    config: Config
    ts: int = 0
    write_op: int = 0
    pending_tag: Optional[Tag] = None
    value: Optional[str] = None
    acks: set[ProcessId] = field(default_factory=set)

    @property
    def busy(self) -> bool:
        return self.pending_tag is not None

    def invoke_write(self, label: str) -> list[Message]:
        if self.busy:
            raise NotWellFormed(f"{self.pid} already has a write in flight")
        self.write_op += 1
        self.ts += 1
        op = OpId(self.pid, self.write_op)
        self.pending_tag = Tag(self.ts, self.pid)
        self.value = make_value(label, op)
        self.acks = set()
        return [
            Message(KIND_WRITE_REQUEST, op, self.pid, s,
                    tag=self.pending_tag, value=self.value)
            for s in self.config.servers()
        ]

    def on_message(self, msg: Message) -> tuple[list[Message], Optional[Completion]]:
        # Stale or foreign acks are dropped silently.
        if msg.kind != KIND_WRITE_ACK or not self.busy:
            return [], None
        if msg.op.invoker != self.pid or msg.op.seq != self.write_op:
            return [], None
        self.acks.add(msg.sender)
        if len(self.acks) >= quorum_size(self.config.n_servers):
            done = Completion(OpId(self.pid, self.write_op), "write",
                              self.pending_tag, self.value)
            self.pending_tag = None
            return [], done
        return [], None


@dataclass
class ReaderStateS:
    """Reader for the three-exchange read, shared by both register modes."""

    pid: ProcessId
    config: Config
    read_op: int = 0
    reading: bool = False
    acks: dict[ProcessId, tuple[Tag, Optional[str]]] = field(default_factory=dict)

    @property
    def busy(self) -> bool:
        return self.reading

    def invoke_read(self) -> list[Message]:
        if self.reading:
            raise NotWellFormed(f"{self.pid} already has a read in flight")
        self.read_op += 1
        self.reading = True
        self.acks = {}
        op = OpId(self.pid, self.read_op)
        return [Message(KIND_READ_REQUEST, op, self.pid, s)
                for s in self.config.servers()]

    def on_message(self, msg: Message) -> tuple[list[Message], Optional[Completion]]:
        if msg.kind != KIND_READ_ACK or not self.reading:
            return [], None
        if msg.op.invoker != self.pid or msg.op.seq != self.read_op:
            return [], None
        self.acks[msg.sender] = (msg.tag, msg.value)
        if len(self.acks) >= quorum_size(self.config.n_servers):
            tag, value = self._decide()
            self.reading = False
            return [], Completion(OpId(self.pid, self.read_op), "read", tag, value)
        return [], None

    def _decide(self) -> tuple[Tag, Optional[str]]:
        # Minimum timestamp among the collected acks. Iteration follows
        # arrival order, so the result is deterministic.
        best: Optional[tuple[Tag, Optional[str]]] = None
        for pair in self.acks.values():
            if best is None or pair[0] < best[0]:
                best = pair
        return best


IDLE = "idle"
QUERY = "query"
WRITEBACK = "writeback"
DISCOVERING = "discovering"
PROPAGATING = "propagating"


@dataclass
class AbdReaderState:
    """Two-round reader: query a majority, write back the maximum tag."""

    pid: ProcessId
    config: Config
    read_op: int = 0
    phase: str = IDLE
    collected: dict[ProcessId, tuple[Tag, Optional[str]]] = field(default_factory=dict)
    wb_acks: set[ProcessId] = field(default_factory=set)
    result: Optional[tuple[Tag, Optional[str]]] = None

    @property
    def busy(self) -> bool:
        return self.phase != IDLE

    def invoke_read(self) -> list[Message]:
        if self.phase != IDLE:
            raise NotWellFormed(f"{self.pid} already has a read in flight")
        self.read_op += 1
        self.phase = QUERY
        self.collected = {}
        op = OpId(self.pid, self.read_op)
        return [Message(KIND_READ_REQUEST, op, self.pid, s)
                for s in self.config.servers()]

    def on_message(self, msg: Message) -> tuple[list[Message], Optional[Completion]]:
        if msg.op.invoker != self.pid or msg.op.seq != self.read_op:
            return [], None
        if msg.kind == KIND_READ_ACK and self.phase == QUERY:
            self.collected[msg.sender] = (msg.tag, msg.value)
            if len(self.collected) >= quorum_size(self.config.n_servers):
                best = None
                for pair in self.collected.values():
                    if best is None or best[0] < pair[0]:
                        best = pair
                self.result = best
                self.phase = WRITEBACK
                self.wb_acks = set()
                op = OpId(self.pid, self.read_op)
                return [
                    Message(KIND_WRITE_REQUEST, op, self.pid, s,
                            tag=best[0], value=best[1])
                    for s in self.config.servers()
                ], None
            return [], None
        if msg.kind == KIND_WRITE_ACK and self.phase == WRITEBACK:
            self.wb_acks.add(msg.sender)
            if len(self.wb_acks) >= quorum_size(self.config.n_servers):
                tag, value = self.result
                self.phase = IDLE
                return [], Completion(OpId(self.pid, self.read_op), "read", tag, value)
        return [], None


@dataclass
class AbdWriterMwmr:
    """Two-round writer: discover the maximum timestamp, then propagate."""

    pid: ProcessId
    config: Config
    write_op: int = 0
    phase: str = IDLE
    tag: Tag = None
    value: Optional[str] = None
    q: dict[ProcessId, Message] = field(default_factory=dict)
    acks: set[ProcessId] = field(default_factory=set)

    def __post_init__(self):
        if self.tag is None:
            self.tag = Tag(0, self.pid)

    @property
    def busy(self) -> bool:
        return self.phase != IDLE

    def invoke_write(self, label: str) -> list[Message]:
        if self.phase != IDLE:
            raise NotWellFormed(f"{self.pid} already has a write in flight")
        self.write_op += 1
        self.phase = DISCOVERING
        self.q = {}
        op = OpId(self.pid, self.write_op)
        self.value = make_value(label, op)
        return [Message(KIND_DISCOVER, op, self.pid, s)
                for s in self.config.servers()]

    def on_message(self, msg: Message) -> tuple[list[Message], Optional[Completion]]:
        if msg.op.invoker != self.pid or msg.op.seq != self.write_op:
            return [], None
        if msg.kind == KIND_DISCOVER_ACK and self.phase == DISCOVERING:
            self.q[msg.sender] = msg
            if len(self.q) >= quorum_size(self.config.n_servers):
                max_ts = max(m.tag.ts for m in self.q.values())
                self.tag = Tag(max_ts + 1, self.pid)
                self.phase = PROPAGATING
                self.acks = set()
                op = OpId(self.pid, self.write_op)
                return [
                    Message(KIND_WRITE_REQUEST, op, self.pid, s,
                            tag=self.tag, value=self.value)
                    for s in self.config.servers()
                ], None
            return [], None
        if msg.kind == KIND_WRITE_ACK and self.phase == PROPAGATING:
            self.acks.add(msg.sender)
            if len(self.acks) >= quorum_size(self.config.n_servers):
                done = Completion(OpId(self.pid, self.write_op), "write",
                                  self.tag, self.value)
                self.phase = IDLE
                return [], done
        return [], None


@dataclass
class Naive3xWriter:
    """Three-exchange writer: local tag, no discovery."""

    pid: ProcessId
    config: Config
    write_op: int = 0
    pending_tag: Optional[Tag] = None
    value: Optional[str] = None
    acks: set[ProcessId] = field(default_factory=set)

    @property
    def busy(self) -> bool:
        return self.pending_tag is not None

    def invoke_write(self, label: str) -> list[Message]:
        if self.busy:
            raise NotWellFormed(f"{self.pid} already has a write in flight")
        self.write_op += 1
        op = OpId(self.pid, self.write_op)
        self.pending_tag = Tag(self.write_op, self.pid)
        self.value = make_value(label, op)
        self.acks = set()
        return [
            Message(KIND_WRITE_REQUEST, op, self.pid, s,
                    tag=self.pending_tag, value=self.value)
            for s in self.config.servers()
        ]

    def on_message(self, msg: Message) -> tuple[list[Message], Optional[Completion]]:
        if msg.kind != KIND_WRITE_ACK or not self.busy:
            return [], None
        if msg.op.invoker != self.pid or msg.op.seq != self.write_op:
            return [], None
        self.acks.add(msg.sender)
        if len(self.acks) >= quorum_size(self.config.n_servers):
            done = Completion(OpId(self.pid, self.write_op), "write",
                              self.pending_tag, self.value)
            self.pending_tag = None
            return [], done
        return [], None


class Naive3xReader(ReaderStateS):
    """Majority-value pick instead of the minimum-tag rule."""

    def _decide(self):
        counts: dict[object, int] = {}
        for _, value in self.acks.values():
            counts[value] = counts.get(value, 0) + 1
        best_value = None
        best = -1
        for tag, value in self.acks.values():  # arrival order breaks ties
            if counts[value] > best:
                best = counts[value]
                best_value = value
        for tag, value in self.acks.values():
            if value == best_value:
                return tag, value
        raise AssertionError("unreachable")


REFERENCE = {
    "ohsam": (WriterStateS, ReaderStateS),
    "ohmam": (AbdWriterMwmr, ReaderStateS),
    "abd-swmr": (WriterStateS, AbdReaderState),
    "abd-mwmr": (AbdWriterMwmr, AbdReaderState),
    "naive3x": (Naive3xWriter, Naive3xReader),
}

REPLY = {
    KIND_READ_REQUEST: KIND_READ_ACK,
    KIND_WRITE_REQUEST: KIND_WRITE_ACK,
    KIND_DISCOVER: KIND_DISCOVER_ACK,
}

# state the suite, the simulator or the runner reads, where both have it
PINNED = ("busy", "tag", "acks")


def _same_state(new, old) -> None:
    for name in PINNED:
        if hasattr(old, name) and hasattr(new, name):
            assert getattr(new, name) == getattr(old, name), name
    if hasattr(old, "value"):  # a writer's value is its record's
        assert getattr(new.record, "value", None) == old.value, "value"
    if hasattr(old, "write_op"):  # the reference's name for the counter
        assert new.seq == old.write_op, "seq"


def _same_rebroadcast(new, sent: list[Message]) -> None:
    # busy, the machine re-sends the very messages it sent last; idle, none
    again = new.rebroadcast()
    assert all(a is b for a, b in zip(again, sent if new.busy else [],
                                       strict=True))


def _drive(new, old, rng: random.Random, steps: int, seen: Counter) -> None:
    """One seeded stream through both machines; seen counts step shapes."""
    pid, config = new.pid, new.config
    servers = config.servers()
    others = [p for p in config.writers() + config.readers() if p != pid]
    others.append(writer_id(9) if pid == reader_id(1) else reader_id(9))
    # every broadcast so far: (its op, the reply kind it waits for)
    phases: list[tuple[OpId, str]] = []
    counted: list[ProcessId] = []   # senders of the open phase's replies
    sent: list[Message] = []   # the broadcast new returned last
    _same_rebroadcast(new, sent)
    for _ in range(steps):
        roll = rng.random()
        if roll < 0.25 and (not old.busy or roll < 0.03):
            label = rng.choice("ABC")
            invoke = "invoke_write" if hasattr(old, "invoke_write") else "invoke_read"
            args = (label,) if invoke == "invoke_write" else ()
            if old.busy:
                for machine in (old, new):
                    with pytest.raises(NotWellFormed):
                        getattr(machine, invoke)(*args)
                seen["overlap"] += 1
            else:
                outs_old = getattr(old, invoke)(*args)
                outs_new = getattr(new, invoke)(*args)
                assert outs_new == outs_old
                phases.append((outs_old[0].op, REPLY[outs_old[0].kind]))
                counted = []
                sent = outs_new
                seen["invoke"] += 1
            _same_state(new, old)
            _same_rebroadcast(new, sent)
            continue
        if not phases:
            continue
        op, kind = phases[-1]
        sender = rng.choice(servers)
        shape = rng.choices(
            ("current", "stale", "foreign", "kind", "duplicate"),
            weights=(10, 2, 1, 1, 2))[0]
        if shape == "stale" and len(phases) > 1:
            op, kind = rng.choice(phases[:-1])
        elif shape == "foreign":
            op = OpId(rng.choice(others), op.seq)
        elif shape == "kind":
            kind = rng.choice([k for k in MESSAGE_KINDS if k != kind])
        elif shape == "duplicate" and counted:
            sender = rng.choice(counted)
        else:
            shape = "current"
        if not old.busy:
            shape = "after completion"
        msg = Message(kind, op, sender, pid,
                      tag=Tag(rng.randint(0, 6), rng.choice(servers + [pid])),
                      value=rng.choice([None, "x", "y", "z"]))
        outs_old, done_old = old.on_message(msg)
        outs_new, done_new = new.on_message(msg)
        assert outs_new == outs_old
        if done_old is None:
            assert done_new is None
        else:
            assert (done_new.op, done_new.kind, done_new.tag,
                    done_new.value) == (done_old.op, done_old.kind,
                                        done_old.tag, done_old.value)
            assert done_new.invoked is None and done_new.responded is None
        _same_state(new, old)
        seen[shape] += 1
        if shape == "current":
            counted.append(sender)
        if outs_old:
            phases.append((outs_old[0].op, REPLY[outs_old[0].kind]))
            counted = []
            sent = outs_new
            seen["next phase"] += 1
        _same_rebroadcast(new, sent)
        if done_old is not None:
            seen["completion"] += 1


@pytest.mark.parametrize("role", ["writer", "reader"])
@pytest.mark.parametrize("protocol", PROTOCOL_NAMES)
def test_client_machine_matches_its_forerunner(protocol, role):
    bundle = get_protocol(protocol)
    ref_writer, ref_reader = REFERENCE[protocol]
    seen = Counter()
    for seed in range(30):
        rng = random.Random(f"{protocol}:{role}:{seed}")
        n = rng.choice((3, 5))
        config = Config(n_servers=n, n_readers=2, f=(n - 1) // 2,
                        n_writers=1 if bundle.mode == "swmr" else 2,
                        mode=bundle.mode)
        if role == "writer":
            pid = writer_id(rng.randint(1, config.n_writers))
            new, old = bundle.make_writer(pid, config), ref_writer(pid, config)
        else:
            pid = reader_id(rng.randint(1, 2))
            new, old = bundle.make_reader(pid, config), ref_reader(pid, config)
        _drive(new, old, rng, 300, seen)
    for shape in ("invoke", "overlap", "current", "stale", "foreign", "kind",
                  "duplicate", "after completion", "completion"):
        assert seen[shape] > 0, (shape, seen)
    multi_phase = {("ohmam", "writer"), ("abd-mwmr", "writer"),
                   ("abd-swmr", "reader"), ("abd-mwmr", "reader")}
    assert (seen["next phase"] > 0) == ((protocol, role) in multi_phase)
