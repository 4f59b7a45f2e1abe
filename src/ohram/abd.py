"""Majority-register baseline with two-round reads (write-back included).

Reference point for the complexity comparison: reads take two rounds, i.e.
four communication exchanges (readRequest, readAck, writeRequest,
writeAck), because the reader propagates the maximum tag it collected
before returning. The write-back is always performed, never skipped, so
exchange counts match the comparison table exactly.

The reader is a two-phase QuorumClient: a readRequest phase, then a
writeRequest phase that carries the maximum pair it collected.

Single-writer mode: writes are one round (writeRequest, writeAck) with the
writer's own incrementing timestamp; this is the same two-exchange write
the three-exchange-read algorithm uses, so the writer machine is reused.
Multi-writer mode: writes are two rounds, a discover round to learn the
maximum timestamp and a propagate round with tag (maxTS + 1, own id).
That is the multi-writer three-exchange-read writer, reused as it is.

The server is a bare Replica (adopt-if-greater, acknowledge every
writeRequest, answer discovers) that answers readRequests directly
with its current pair: no server-to-server relays.
"""

from __future__ import annotations

from typing import Optional

from .core import (
    Config,
    KIND_READ_ACK,
    KIND_READ_REQUEST,
    KIND_WRITE_ACK,
    KIND_WRITE_REQUEST,
    Message,
    ProcessId,
)
from .ohmam import WriterStateM as AbdWriterMwmr  # discover, then propagate
from .ohsam import QuorumClient, Replica, WriterStateS as AbdWriterSwmr  # one-round write

class AbdReaderState(QuorumClient):
    """Two-round reader: query a majority, write back the maximum tag."""

    def __init__(self, pid: ProcessId, config: Config) -> None:
        super().__init__(pid, config)
        self.result: Optional[Message] = None

    def invoke_read(self) -> list[Message]:
        self._begin("read")
        return self._broadcast(KIND_READ_REQUEST, KIND_READ_ACK)

    def _on_quorum(self):
        if self.awaiting == KIND_WRITE_ACK:
            return self._done(self.result.tag, self.result.value)
        best = None
        for m in self.replies.values():
            if best is None or best.tag < m.tag:
                best = m
        self.result = best
        return self._broadcast(KIND_WRITE_REQUEST, KIND_WRITE_ACK,
                               best.tag, best.value), None


class AbdServerState(Replica):
    """Replica that answers reads directly, no server gossip."""

    def on_message(self, msg: Message) -> list[Message]:
        if msg.kind == KIND_READ_REQUEST:
            return self._reply(KIND_READ_ACK, msg)
        return super().on_message(msg)
