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

Every sound server machine of the package is a Replica: it adopts a
larger tag, answers the invoker with its current pair, and answers
every copy of a request, so a client's rebroadcast retries any message
of its phase that a link lost. Servers that relay count relay origins
with count_relay, the one majority-of-relays rule.

Write protocol (two exchanges): the writer's timestamp is its write
counter. It ticks the counter, broadcasts a writeRequest to every
server, and finishes on a majority of writeAcks. Servers adopt a higher
timestamp and always acknowledge.

Read protocol (three exchanges): the reader broadcasts a readRequest, and
every server that receives it broadcasts a readRelay, carrying its current
timestamp and value, to all servers including itself. A server collects
relays, adopting any higher timestamp it sees, and once relays for the
operation have arrived from a majority of servers it answers the reader
with its current timestamp and value, and again on every later copy of
the readRequest. The reader completes on a majority of readAcks and
returns the value with the MINIMUM timestamp among them. Relays are kept
until the read is answered: relays that arrive before the direct
readRequest count toward the majority all the same, and a server
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
    KIND_DISCOVER_ACK,
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
    _server_ids,
    make_value,
    quorum_size,
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
    without a tag, are dropped, and a sender counts once, however often
    its reply comes again in answer to a rebroadcast. Subclasses
    open phases with _broadcast and say in _on_quorum what a complete
    phase leads to: the next phase, or the completion built by _done.
    ticks is how many counter values one operation uses. A step sends
    one broadcast or nothing: one op and one kind (see SimNet._send).
    quorum and server_ids are derived from config once.
    """

    pid: ProcessId
    config: Config
    seq: int = 0
    awaiting: Optional[str] = None
    replies: dict[ProcessId, Message] = field(default_factory=dict)
    ticks = 1  # a class attribute, not a field

    def __post_init__(self):
        self.quorum = quorum_size(self.config.n_servers)
        self.server_ids = _server_ids(self.config.n_servers)

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
        pid = self.pid
        op = OpId(pid, self.seq)
        return [Message(kind, op, pid, s, tag, value) for s in self.server_ids]

    def on_message(self, msg: Message) -> tuple[list[Message], Optional[Completion]]:
        # Stale, foreign, unexpected and tagless replies are dropped silently.
        if (msg.kind != self.awaiting or msg.op.seq != self.seq
                or msg.op.invoker != self.pid or msg.tag is None):
            return [], None
        self.replies[msg.sender] = msg
        if len(self.replies) >= self.quorum:
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
            if best is None or m.tag < best.tag:
                best = m
        return best.tag, best.value


def count_relay(relays: dict[OpId, set[ProcessId]], msg: Message,
                quorum: int) -> bool:
    """Record msg's relay origin under its operation. True exactly when a
    new origin brings the operation to quorum origins (a majority of the
    servers), which happens once."""
    origins = relays.get(msg.op)
    if origins is None:
        origins = relays[msg.op] = set()
    if msg.relay_origin in origins:
        return False
    origins.add(msg.relay_origin)
    return len(origins) == quorum


@dataclass
class Replica:
    """A (tag, value) pair that only grows. The writeAck is unconditional
    and duplicate-safe. Subclasses dispatch the kinds they serve. A step
    sends one reply, one broadcast or nothing (see SimNet._send), except
    on a repeated readRequest for a read the server has answered, which
    brings both its relays and its readAck; the simulator delivers no
    repeated request. quorum is derived from config once."""

    pid: ProcessId
    config: Config
    tag: Tag = None
    value: Optional[str] = BOTTOM

    def __post_init__(self):
        if self.tag is None:
            self.tag = Tag(0, self.pid)
        self.quorum = quorum_size(self.config.n_servers)

    def _reply(self, kind: str, msg: Message) -> list[Message]:
        op = msg.op
        return [Message(kind, op, self.pid, op.invoker, self.tag, self.value)]

    def _adopt(self, tag: Tag, value: Optional[str]) -> None:
        if self.tag < tag:
            self.tag = tag
            self.value = value

    def on_write_request(self, msg: Message) -> list[Message]:
        self._adopt(msg.tag, msg.value)
        return self._reply(KIND_WRITE_ACK, msg)

    def on_discover(self, msg: Message) -> list[Message]:
        return self._reply(KIND_DISCOVER_ACK, msg)


@dataclass
class ServerStateS(Replica):
    """Server: register replica plus read bookkeeping per invoker.

    relays[op] holds the origins whose relays for a read have arrived.
    horizon[invoker] is the seq at or below which the invoker's reads are
    retired: a read message for (invoker, seq) moves it past read h+1
    while h+1 < seq and h+1 has relays from a majority, dropping h+1's
    entry. Every copy of a readRequest relays, for an open read or a
    retired one, so a client's rebroadcast also retries a lost relay.
    The readAck goes out when a new origin brings an open read's relays
    to a majority, and again, with the current pair, on every copy of
    the readRequest that finds this server's own origin among that
    majority, so the rebroadcast also retries a lost readAck. The
    re-sent tag is at least the first ack's, since tags only grow. A
    retired read keeps no state: its relays still pass on their tag,
    but never bring another readAck.
    An older read that never gathers a majority here (live, a relay lost
    after the read completed through other servers) blocks its invoker's
    horizon, and the invoker's later reads keep their entries.
    """

    relays: dict[OpId, set[ProcessId]] = field(default_factory=dict)
    horizon: dict[ProcessId, int] = field(default_factory=dict)

    def on_message(self, msg: Message) -> list[Message]:
        # a read brings each server n readRelays to one readRequest
        if msg.kind == KIND_READ_RELAY:
            return self.on_read_relay(msg)
        if msg.kind == KIND_READ_REQUEST:
            return self.on_read_request(msg)
        if msg.kind == KIND_WRITE_REQUEST:
            return self.on_write_request(msg)
        return []

    # -- read path (shared verbatim with the multi-writer algorithm) --

    def on_read_request(self, msg: Message) -> list[Message]:
        # Attach the current timestamp without update; relay on every copy,
        # and ack again on a copy of a read this server has answered.
        op = msg.op
        self._advance(op)
        pid, tag, value = self.pid, self.tag, self.value
        out = [Message(KIND_READ_RELAY, op, pid, s, tag, value, pid)
               for s in _server_ids(self.config.n_servers)]
        origins = self.relays.get(op, ())
        if pid in origins and len(origins) >= self.quorum:
            out += self._reply(KIND_READ_ACK, msg)
        return out

    def on_read_relay(self, msg: Message) -> list[Message]:
        op = msg.op
        self._adopt(msg.tag, msg.value)
        if op.seq <= self._advance(op):
            return []
        if count_relay(self.relays, msg, self.quorum):
            return self._reply(KIND_READ_ACK, msg)
        return []

    def _advance(self, op: OpId) -> int:
        # Retire the invoker's answered reads below op, oldest first.
        invoker, h = op.invoker, self.horizon.get(op.invoker, 0)
        while h + 1 < op.seq:
            old = OpId(invoker, h + 1)
            if len(self.relays.get(old, ())) < self.quorum:
                break
            del self.relays[old]
            h = self.horizon[invoker] = h + 1
        return h
