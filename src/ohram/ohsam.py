"""Single-writer atomic register with three-exchange reads.

Three event-driven state machines: writer, reader, server. Each consumes
one event at a time (an invocation or a delivered message) and returns the
messages to send plus, for clients, an optional operation completion. The
harness owns all I/O and serializes event application per instance.

Every client machine of the package is a QuorumClient: an operation is
a sequence of quorum phases, each of which broadcasts one request kind
to every server and ends on a majority of replies of one kind. The
protocols differ only in their phases and in what a complete phase
leads to. Here a write is one phase and a read is one phase (the relays
run among the servers, out of the reader's sight).

Write protocol (two exchanges): the writer's timestamp is its write
counter. It ticks the counter, broadcasts a writeRequest to every
server, and finishes on a majority of writeAcks. Servers adopt a higher
timestamp and always acknowledge.

Read protocol (three exchanges): the reader broadcasts a readRequest, and
every server that receives it broadcasts a readRelay, carrying its current
timestamp and value, to all servers including itself. A server collects
relays, adopting any higher timestamp it sees, and once relays for the
operation have arrived from a majority of servers it answers the reader
once with its current timestamp and value. The reader completes on a
majority of readAcks and returns the value with the MINIMUM timestamp
among them. Relays are never discarded: relays that arrive before the
direct readRequest count toward the majority all the same, and a server
broadcasts its own relay only upon receiving the actual readRequest.

Timestamps are carried as tags with the writer id pinned, which makes the
single-writer timestamp a plain natural number while letting the
multi-writer variant reuse the whole read path unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .core import (
    BOTTOM,
    Completion,
    Config,
    KIND_READ_ACK,
    KIND_READ_RELAY,
    KIND_READ_REQUEST,
    KIND_WRITE_ACK,
    KIND_WRITE_REQUEST,
    Message,
    NotWellFormed,
    OpId,
    ProcessId,
    Tag,
    make_value,
    quorum_size,
    tag_less,
)


@dataclass
class QuorumClient:
    """One client operation as a sequence of quorum phases.

    A phase broadcasts one request kind to every server and waits for a
    majority of replies of one kind. seq is the wire counter that every
    message of the open phase carries; awaiting names the reply kind the
    phase waits for and is None when the client is idle. replies maps
    each sender to its latest reply in first-arrival order. Replies of
    another kind, another counter or another invoker, and replies
    without a tag, are dropped, and a sender counts once. Subclasses
    open phases with _broadcast and say in _on_quorum what a complete
    phase leads to: the next phase, or the completion built by _done.
    ticks is how many counter values one operation uses.
    """

    pid: ProcessId
    config: Config
    seq: int = 0
    awaiting: Optional[str] = None
    replies: dict[ProcessId, Message] = field(default_factory=dict)
    ticks = 1  # a class attribute, not a field

    @property
    def busy(self) -> bool:
        return self.awaiting is not None

    def _begin(self) -> None:
        if self.awaiting is not None:
            raise NotWellFormed(f"{self.pid} already has an operation in flight")
        self.seq += 1

    def _broadcast(self, kind: str, awaiting: str, tag: Optional[Tag] = None,
                   value: Optional[str] = None) -> list[Message]:
        self.awaiting = awaiting
        self.replies = {}
        op = OpId(self.pid, self.seq)
        return [Message(kind, op, self.pid, s, tag=tag, value=value)
                for s in self.config.servers()]

    def on_message(self, msg: Message) -> tuple[list[Message], Optional[Completion]]:
        # Stale, foreign, unexpected and tagless replies are dropped silently.
        if (msg.kind != self.awaiting or msg.op.seq != self.seq
                or msg.op.invoker != self.pid or msg.tag is None):
            return [], None
        self.replies[msg.sender] = msg
        if len(self.replies) >= quorum_size(self.config.n_servers):
            return self._on_quorum()
        return [], None

    def _on_quorum(self) -> tuple[list[Message], Optional[Completion]]:
        raise NotImplementedError

    def _done(self, kind: str, seq: int, tag: Tag,
              value: Optional[str]) -> tuple[list[Message], Completion]:
        self.awaiting = None
        return [], Completion(OpId(self.pid, seq), kind, tag, value)


@dataclass
class WriterStateS(QuorumClient):
    """Single writer: timestamp k for write k, one write at a time.

    value holds the value of the write in flight (of the last write once
    it completes), under the same name as in every other writer machine.
    """

    value: Optional[str] = None

    def invoke_write(self, label: str) -> list[Message]:
        self._begin()
        self.value = make_value(label, OpId(self.pid, self.seq))
        return self._broadcast(KIND_WRITE_REQUEST, KIND_WRITE_ACK,
                               Tag(self.seq, self.pid), self.value)

    def _on_quorum(self):
        return self._done("write", self.seq, Tag(self.seq, self.pid), self.value)


@dataclass
class ReaderStateS(QuorumClient):
    """Reader for the three-exchange read, shared by both register modes."""

    @property
    def acks(self) -> dict[ProcessId, tuple[Tag, Optional[str]]]:
        """sender -> (tag, value) of the current (or last) read's acks."""
        return {s: (m.tag, m.value) for s, m in self.replies.items()}

    def invoke_read(self) -> list[Message]:
        self._begin()
        return self._broadcast(KIND_READ_REQUEST, KIND_READ_ACK)

    def _on_quorum(self):
        return self._done("read", self.seq, *self._decide())

    def _decide(self) -> tuple[Tag, Optional[str]]:
        # Minimum timestamp among the collected acks. Iteration follows
        # arrival order, so the result is deterministic.
        best: Optional[Message] = None
        for m in self.replies.values():
            if best is None or tag_less(m.tag, best.tag):
                best = m
        return best.tag, best.value


@dataclass
class ServerStateS:
    """Server: register replica plus read-relay bookkeeping.

    relays[op] records which servers' relays for a pending read have
    arrived; entries are never discarded before the op is answered, and
    an answered op's entry, with its relayed mark, is retained until a
    later read message from the same invoker arrives. relay_ops groups
    the keys of relays by invoker, so that retirement looks at one
    client's entries only. acked_reads makes the one-answer-per-read
    rule explicit.
    """

    pid: ProcessId
    config: Config
    tag: Tag = None
    value: Optional[str] = BOTTOM
    relays: dict[OpId, set[ProcessId]] = field(default_factory=dict)
    relayed: set[OpId] = field(default_factory=set)
    acked_reads: set[OpId] = field(default_factory=set)
    relay_ops: dict[ProcessId, set[OpId]] = field(default_factory=dict)

    def __post_init__(self):
        if self.tag is None:
            self.tag = Tag(0, self.pid)

    def on_message(self, msg: Message) -> list[Message]:
        if msg.kind == KIND_READ_REQUEST:
            return self.on_read_request(msg)
        if msg.kind == KIND_READ_RELAY:
            return self.on_read_relay(msg)
        if msg.kind == KIND_WRITE_REQUEST:
            return self.on_write_request(msg)
        return []

    # -- read path (shared verbatim with the multi-writer algorithm) --

    def on_read_request(self, msg: Message) -> list[Message]:
        # Attach the current timestamp without update; relay once per op.
        self._gc(msg.op)
        if msg.op in self.relayed:
            return []
        self.relayed.add(msg.op)
        return [
            Message(KIND_READ_RELAY, msg.op, self.pid, s,
                    tag=self.tag, value=self.value, relay_origin=self.pid)
            for s in self.config.servers()
        ]

    def on_read_relay(self, msg: Message) -> list[Message]:
        self._gc(msg.op)
        self._adopt(msg.tag, msg.value)
        origins = self.relays.get(msg.op)
        if origins is None:
            origins = self.relays[msg.op] = set()
            self.relay_ops.setdefault(msg.op.invoker, set()).add(msg.op)
        origins.add(msg.relay_origin)
        if (len(origins) >= quorum_size(self.config.n_servers)
                and msg.op not in self.acked_reads):
            self.acked_reads.add(msg.op)
            return [Message(KIND_READ_ACK, msg.op, self.pid, msg.op.invoker,
                            tag=self.tag, value=self.value)]
        return []

    # -- write path --

    def on_write_request(self, msg: Message) -> list[Message]:
        self._adopt(msg.tag, msg.value)
        # The ack is unconditional and duplicate-safe.
        return [Message(KIND_WRITE_ACK, msg.op, self.pid, msg.op.invoker,
                        tag=self.tag, value=self.value)]

    def _adopt(self, tag: Tag, value: Optional[str]) -> None:
        if tag_less(self.tag, tag):
            self.tag = tag
            self.value = value

    def _gc(self, op: OpId) -> None:
        # Horizon rule: seeing a later operation from the same invoker
        # retires answered entries for that invoker's earlier operations.
        ops = self.relay_ops.get(op.invoker)
        if not ops:
            return
        stale = [o for o in ops if o.seq < op.seq and o in self.acked_reads]
        for o in stale:
            ops.remove(o)
            del self.relays[o]
            self.relayed.discard(o)
