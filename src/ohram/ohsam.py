"""Single-writer atomic register with three-exchange reads.

Three event-driven state machines: writer, reader, server. Each consumes
one event at a time (an invocation or a delivered message) and returns the
messages to send plus, for clients, the operation's record once the
operation completes, else None. The harness owns all I/O and serializes
event application per instance.

Every client machine of the package is a QuorumClient: an operation is
a sequence of quorum phases, each of which broadcasts one request kind
to every server and ends on a majority of replies of one kind. The
protocols differ only in their phases and in what a complete phase
leads to. Here a write is one phase and a read is one phase (the relays
run among the servers, out of the reader's sight).

Every sound server machine of the package is a Replica: it adopts a
larger tag, answers the invoker with its current pair, and answers
every copy of a request of the client's current operation, so a
client's rebroadcast retries any message of its phase that a link
lost. Servers that relay count relay origins with count_relay, the one
majority-of-relays rule.

Write protocol (two exchanges): the writer's timestamp is its write
counter. It increments the counter, broadcasts a writeRequest to every
server, and finishes on a majority of writeAcks. Servers adopt a higher
timestamp and always acknowledge.

Read protocol (three exchanges): the reader broadcasts a readRequest, and
every server that receives it broadcasts a readRelay, carrying its current
timestamp and value, to all servers including itself. A server collects
relays, adopting any higher timestamp it sees, and once relays for the
operation have arrived from a majority of servers it answers the reader
with its current timestamp and value, and again on every later copy of
the readRequest. The reader completes on a majority of readAcks and
returns the value with the MINIMUM timestamp among them. A server keeps
one read per reader, the newest it has heard of: relays that arrive
before the direct readRequest count toward the majority all the same, a
server broadcasts its own relay only upon receiving the actual
readRequest, and a message of a newer read retires the older one.

Timestamps are carried as tags with the writer id pinned, which makes the
single-writer timestamp a plain natural number while letting the
multi-writer variant reuse the whole read path unchanged.
"""

from __future__ import annotations

from typing import Optional

from .core import (
    BOTTOM,
    Config,
    KIND_DISCOVER,
    KIND_DISCOVER_ACK,
    KIND_READ_ACK,
    KIND_READ_RELAY,
    KIND_READ_REQUEST,
    KIND_WRITE_ACK,
    KIND_WRITE_REQUEST,
    Message,
    NotWellFormed,
    OpId,
    OpRecord,
    ProcessId,
    Tag,
    _server_ids,
    make_value,
    quorum_size,
)


class QuorumClient:
    """One client operation as a sequence of quorum phases.

    A phase broadcasts one request kind to every server and waits for a
    majority of replies of one kind. seq counts this client's operations.
    record, opened by _begin, is the operation's OpRecord: its op, the
    OpId (pid, seq), is what every message of every phase carries and a
    write value's nonce, so a message's op is the history op it serves.
    _done fills in its result and returns it, the one record of the
    operation that the harness stamps with times and keeps in its history.
    awaiting names the reply kind the phase waits for and is None when
    the client is idle. replies maps each sender to its latest reply in
    first-arrival order. Replies of another kind or another op, and
    replies without a tag, are dropped, and a sender counts once, however
    often its reply comes again in answer to a rebroadcast. Subclasses
    open phases with _broadcast, which keeps the phase's messages in
    phase for rebroadcast() to send again, and say in _on_quorum what a
    complete phase leads to: the next phase, or _done's record.
    quorum and server_ids are derived from config once.
    """

    def __init__(self, pid: ProcessId, config: Config) -> None:
        self.pid = pid
        self.config = config
        self.seq = 0
        self.record: Optional[OpRecord] = None
        self.awaiting: Optional[str] = None
        self.replies: dict[ProcessId, Message] = {}
        self.quorum = quorum_size(config.n_servers)
        self.server_ids = _server_ids(config.n_servers)
        self.phase: list[Message] = []  # what _broadcast returned last

    @property
    def busy(self) -> bool:
        return self.awaiting is not None

    def _begin(self, kind: str, label: Optional[str] = None) -> None:
        """Open the operation's record; a write's label makes its value."""
        if self.awaiting is not None:
            raise NotWellFormed(f"{self.pid} already has an operation in flight")
        self.seq += 1
        op = OpId(self.pid, self.seq)
        value = make_value(label, op) if kind == "write" else None
        self.record = OpRecord(op, kind, None, None, None, value)

    def _broadcast(self, kind: str, awaiting: str, tag: Optional[Tag] = None,
                   value: Optional[str] = None) -> list[Message]:
        self.awaiting = awaiting
        self.replies = {}
        op, pid = self.record.op, self.pid
        self.phase = [Message(kind, op, pid, s, tag, value)
                      for s in self.server_ids]
        return self.phase

    def rebroadcast(self) -> list[Message]:
        """The open phase, the messages _broadcast returned; [] when idle."""
        return self.phase if self.busy else []

    def on_message(self, msg: Message) -> tuple[list[Message], Optional[OpRecord]]:
        # Stale, foreign, unexpected and tagless replies are dropped silently.
        if (msg.kind != self.awaiting or msg.op != self.record.op
                or msg.tag is None):
            return [], None
        self.replies[msg.sender] = msg
        if len(self.replies) >= self.quorum:
            return self._on_quorum()
        return [], None

    def _on_quorum(self) -> tuple[list[Message], Optional[OpRecord]]:
        raise NotImplementedError

    def _done(self, tag: Tag,
              value: Optional[str]) -> tuple[list[Message], OpRecord]:
        self.awaiting = None
        rec = self.record
        rec.tag = tag
        rec.value = value
        return [], rec


class WriterStateS(QuorumClient):
    """Single writer: timestamp k for write k, one write at a time."""

    def invoke_write(self, label: str) -> list[Message]:
        self._begin("write", label)
        return self._broadcast(KIND_WRITE_REQUEST, KIND_WRITE_ACK,
                               Tag(self.seq, self.pid), self.record.value)

    def _on_quorum(self):
        return self._done(Tag(self.seq, self.pid), self.record.value)


class ReaderStateS(QuorumClient):
    """Reader for the three-exchange read, shared by both register modes."""

    @property
    def acks(self) -> dict[ProcessId, tuple[Tag, Optional[str]]]:
        """sender -> (tag, value) of the current (or last) read's acks."""
        return {s: (m.tag, m.value) for s, m in self.replies.items()}

    def invoke_read(self) -> list[Message]:
        self._begin("read")
        return self._broadcast(KIND_READ_REQUEST, KIND_READ_ACK)

    def _on_quorum(self):
        return self._done(*self._decide())

    def _decide(self) -> tuple[Tag, Optional[str]]:
        # Minimum timestamp among the collected acks. Iteration follows
        # arrival order, so the result is deterministic.
        best: Optional[Message] = None
        for m in self.replies.values():
            if best is None or m.tag < best.tag:
                best = m
        return best.tag, best.value


def count_relay(origins: set[ProcessId], msg: Message, quorum: int) -> bool:
    """Record msg's sender, its relay's origin, in origins, the origins
    counted so far for msg's operation. True exactly when a new origin
    brings the operation to quorum origins (a majority), which happens once."""
    if msg.sender in origins:
        return False
    origins.add(msg.sender)
    return len(origins) == quorum


class Replica:
    """A (tag, value) pair that only grows. The writeAck is unconditional
    and duplicate-safe. on_message answers the writeRequest and the
    discover; subclasses dispatch their read kinds first. quorum is
    derived from config once."""

    def __init__(self, pid: ProcessId, config: Config) -> None:
        self.pid = pid
        self.config = config
        self.tag = Tag(0, pid)
        self.value: Optional[str] = BOTTOM
        self.quorum = quorum_size(config.n_servers)

    def _reply(self, kind: str, msg: Message) -> list[Message]:
        op = msg.op
        return [Message(kind, op, self.pid, op.invoker, self.tag, self.value)]

    def _adopt(self, tag: Tag, value: Optional[str]) -> None:
        if self.tag < tag:
            self.tag = tag
            self.value = value

    def on_message(self, msg: Message) -> list[Message]:
        if msg.kind == KIND_WRITE_REQUEST:
            return self.on_write_request(msg)
        if msg.kind == KIND_DISCOVER:
            return self.on_discover(msg)
        return []

    def on_write_request(self, msg: Message) -> list[Message]:
        self._adopt(msg.tag, msg.value)
        return self._reply(KIND_WRITE_ACK, msg)

    def on_discover(self, msg: Message) -> list[Message]:
        return self._reply(KIND_DISCOVER_ACK, msg)


class ServerStateS(Replica):
    """Server: register replica plus one open read per invoker.

    reads[invoker] = (seq, origins) is the invoker's newest read this
    server has heard of, with the relay origins counted for it; a read
    message with a higher seq replaces it. Every copy of its readRequest
    relays, so a client's rebroadcast also retries a lost relay. The
    readAck goes out when a new origin brings the relays to a majority,
    and again, with the current pair, on every copy of the readRequest
    that finds this server's own origin among that majority, so the
    rebroadcast also retries a lost readAck. The re-sent tag is at least
    the first ack's, since tags only grow. A message of an older read
    sends nothing, though a late relay still passes on its tag. This is
    safe because clients are well formed: a message of read (r, s)
    proves that r's reads below s have completed, so none of them waits
    for an ack, and tags are adopted as before, so what a later read can
    see is unchanged.
    """

    def __init__(self, pid: ProcessId, config: Config) -> None:
        super().__init__(pid, config)
        self.reads: dict[ProcessId, tuple[int, set[ProcessId]]] = {}

    def on_message(self, msg: Message) -> list[Message]:
        # a read brings each server n readRelays to one readRequest
        if msg.kind == KIND_READ_RELAY:
            return self.on_read_relay(msg)
        if msg.kind == KIND_READ_REQUEST:
            return self.on_read_request(msg)
        return super().on_message(msg)

    # -- read path (shared verbatim with the multi-writer algorithm) --

    def on_read_request(self, msg: Message) -> list[Message]:
        # Attach the current timestamp without update; relay on every copy
        # of the newest read, and ack again once this server answered it.
        op = msg.op
        origins = self._origins(op)
        if origins is None:
            return []
        pid, tag, value = self.pid, self.tag, self.value
        out = [Message(KIND_READ_RELAY, op, pid, s, tag, value)
               for s in _server_ids(self.config.n_servers)]
        if pid in origins and len(origins) >= self.quorum:
            out += self._reply(KIND_READ_ACK, msg)
        return out

    def on_read_relay(self, msg: Message) -> list[Message]:
        self._adopt(msg.tag, msg.value)
        origins = self._origins(msg.op)
        if origins is not None and count_relay(origins, msg, self.quorum):
            return self._reply(KIND_READ_ACK, msg)
        return []

    def _origins(self, op: OpId) -> Optional[set[ProcessId]]:
        # The origins counted for op, a fresh set when op is newer than
        # its invoker's entry, None when op is older.
        entry = self.reads.get(op.invoker)
        if entry is None or entry[0] < op.seq:
            origins = set()
            self.reads[op.invoker] = (op.seq, origins)
            return origins
        return entry[1] if entry[0] == op.seq else None
