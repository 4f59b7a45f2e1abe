"""Deliberately unsound multi-writer protocol with three-exchange writes.

This module exists solely to mechanize the counterexample executions that
show why three-exchange multi-writer writes cannot be atomic. It is a
demonstration tool, not a correctness artifact, and it must never be
selectable in the live network runner.

Writes follow the three-phase scheme the impossibility argument analyzes:

  (1) the writer broadcasts a writeRequest to every server;
  (2) each server that receives it broadcasts a writeRelay to every
      server, carrying its local observations: the writes it has seen,
      in first-contact order;
  (3) once a server holds a majority of relays for the write it replies
      writeAck to the writer, which completes on a majority of acks;
      the server counts relays with the three-exchange-read rule.

A writer picks its tag locally, (own operation counter, own id), which
makes it the single-writer machine ohsam.WriterStateS run by several
writers; the registry (protocols.PROTOCOLS) pairs it with this module's
reader and server.
There is no discover round; that is precisely the shortcut that breaks
atomicity.

Reads use the three-exchange path (readRequest, readRelay with the
relayer's observations attached, readAck at a majority of relays). The
value a server serves is not a replica's (tag, value) pair: it is
recomputed from the relay evidence it holds at answer time by the
threshold rule order_writes below. The reader returns the most frequent
value among a majority of readAcks.

The ordering rule, for a pair of writes (a, b) labeled so that a carries
the smaller tag: every origin whose observations mention a or b casts one
declaration, "a first" or "b first", by which it saw first. Unanimous
evidence fixes the declared precedence outright. Conflicting evidence
declares a-before-b only while fewer than x origins say "a first"; the
x-th such witness flips the declared precedence to b-before-a. The served
value is always the later write's under the declared precedence. The flip
is what the counterexample schedules exploit: a single additional relay
(the one from the withheld server) moves a server's answer from one
write's value to the other between two back-to-back reads.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple, Optional

from .core import (
    BOTTOM,
    Config,
    KIND_READ_ACK,
    KIND_READ_RELAY,
    KIND_READ_REQUEST,
    KIND_WRITE_ACK,
    KIND_WRITE_RELAY,
    KIND_WRITE_REQUEST,
    Message,
    OpId,
    ProcessId,
    Tag,
    quorum_size,
)
from .ohsam import ReaderStateS, by_tag, count_relay

WRITE_CHAIN = (KIND_WRITE_REQUEST, KIND_WRITE_RELAY, KIND_WRITE_ACK)


class WriteRecord(NamedTuple):
    """One write as known to a server: identity, tag, and value."""

    op: OpId
    tag: Tag
    value: Optional[str]


class Relay(Message):
    """A relay with the relaying server's observations attached: its
    record of the writes it has seen, in first-contact order. Simulated
    only, so the wire codec never meets one."""

    __slots__ = ("observations",)

    def __init__(self, kind: str, op: OpId, sender: ProcessId,
                 destination: Optional[ProcessId], tag: Optional[Tag] = None,
                 value: Optional[str] = None,
                 observations: tuple[WriteRecord, ...] = ()) -> None:
        Message.__init__(self, kind, op, sender, destination, tag, value)
        self.observations = observations


def default_x(n_servers: int) -> int:
    return (n_servers + 1) // 2


def order_writes(c_first: int, c_second: int, x: int) -> bool:
    """Precedence verdict for a write pair from per-origin declarations.

    c_first counts origins that observed the smaller-tag write first,
    c_second the origins that observed the larger-tag write first.
    Returns True when the declared precedence is smaller-before-larger.
    With conflicting evidence the declared precedence is
    smaller-before-larger only while c_first < x.
    """
    if c_second == 0:
        return True
    if c_first == 0:
        return False
    return c_first < x


class Naive3xReader(ReaderStateS):
    """Majority-value pick instead of the minimum-tag rule."""

    def _decide(self):
        # the most frequent value, the first to arrive among equals
        counts = Counter(m.value for m in self.replies.values())
        best = max(self.replies.values(), key=lambda m: counts[m.value])
        return best.tag, best.value


class Naive3xServer:
    """Relay bookkeeping plus the threshold decision rule.

    observations is this server's own first-contact record of writes.
    origin_obs holds, per relay origin, the longest observations list
    received from it; observation lists only grow, so the longest list
    subsumes every earlier snapshot. write_relays and read_relays hold
    relay origins per operation, counted by count_relay. Every copy of a
    request relays, as on the sound servers. x is the decision
    threshold, default_x(n) when x is None.
    """

    def __init__(self, pid: ProcessId, config: Config,
                 x: Optional[int] = None) -> None:
        self.pid = pid
        self.config = config
        self.x = default_x(config.n_servers) if x is None else x
        self.observations: list[WriteRecord] = []
        self.known: set[OpId] = set()
        self.origin_obs: dict[ProcessId, tuple[WriteRecord, ...]] = {}
        self.write_relays: dict[OpId, set[ProcessId]] = {}
        self.read_relays: dict[OpId, set[ProcessId]] = {}
        self.quorum = quorum_size(config.n_servers)

    # -- evidence bookkeeping --

    def _note_write(self, rec: WriteRecord) -> None:
        if rec.op not in self.known:
            self.known.add(rec.op)
            self.observations.append(rec)

    def _merge_origin(self, origin: ProcessId, obs) -> None:
        for rec in obs:
            self._note_write(rec)
        held = self.origin_obs.get(origin)
        if held is None or len(obs) > len(held):
            self.origin_obs[origin] = tuple(obs)

    def adopted(self) -> tuple[Tag, Optional[str]]:
        """The value this server would serve right now, with its tag."""
        if not self.observations:
            return Tag(0, self.pid), BOTTOM
        if len(self.observations) == 1:
            rec = self.observations[0]
            return rec.tag, rec.value
        if len(self.observations) == 2:
            a, b = self.observations
            if b.tag < a.tag:
                a, b = b, a
            c_first = c_second = 0
            decls = dict(self.origin_obs)
            decls[self.pid] = tuple(self.observations)
            for obs in decls.values():
                for rec in obs:
                    if rec.op == a.op:
                        c_first += 1
                        break
                    if rec.op == b.op:
                        c_second += 1
                        break
            later = b if order_writes(c_first, c_second, self.x) else a
            return later.tag, later.value
        # The threshold rule is defined for the two-write counterexample
        # shape; with more writes in view fall back to the largest tag.
        best = max(self.observations, key=by_tag)
        return best.tag, best.value

    # -- event dispatch --

    def on_message(self, msg: Message) -> list[Message]:
        if msg.kind == KIND_WRITE_REQUEST:
            return self.on_write_request(msg)
        if msg.kind == KIND_WRITE_RELAY:
            return self.on_write_relay(msg)
        if msg.kind == KIND_READ_REQUEST:
            return self.on_read_request(msg)
        if msg.kind == KIND_READ_RELAY:
            return self.on_read_relay(msg)
        return []

    def _relay(self, kind: str, op: OpId, tag: Tag,
               value: Optional[str]) -> list[Message]:
        # One broadcast to every server, with a snapshot of this server's
        # observations.
        return [Relay(kind, op, self.pid, None, tag, value,
                      tuple(self.observations))]

    def on_write_request(self, msg: Message) -> list[Message]:
        self._note_write(WriteRecord(msg.op, msg.tag, msg.value))
        return self._relay(KIND_WRITE_RELAY, msg.op, msg.tag, msg.value)

    def on_write_relay(self, msg: Message) -> list[Message]:
        self._note_write(WriteRecord(msg.op, msg.tag, msg.value))
        self._merge_origin(msg.sender, msg.observations)
        origins = self.write_relays.setdefault(msg.op, set())
        if count_relay(origins, msg, self.quorum):
            return [Message(KIND_WRITE_ACK, msg.op, self.pid, msg.op.invoker,
                            msg.tag, msg.value)]
        return []

    def on_read_request(self, msg: Message) -> list[Message]:
        return self._relay(KIND_READ_RELAY, msg.op, *self.adopted())

    def on_read_relay(self, msg: Message) -> list[Message]:
        self._merge_origin(msg.sender, msg.observations)
        origins = self.read_relays.setdefault(msg.op, set())
        if count_relay(origins, msg, self.quorum):
            tag, value = self.adopted()
            return [Message(KIND_READ_ACK, msg.op, self.pid, msg.op.invoker,
                            tag, value)]
        return []
