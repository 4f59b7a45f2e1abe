"""Single-writer atomic register with three-exchange reads.

Three event-driven state machines: writer, reader, server. Each consumes
one event at a time (an invocation or a delivered message) and returns the
messages to send plus, for clients, an optional operation completion. The
harness owns all I/O and serializes event application per instance.

Write protocol (two exchanges): the writer increments its timestamp,
broadcasts a writeRequest to every server, and finishes on a majority of
writeAcks. Servers adopt a higher timestamp and always acknowledge.

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
            if best is None or tag_less(pair[0], best[0]):
                best = pair
        return best


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
