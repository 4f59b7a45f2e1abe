"""Majority-register baseline with two-round reads (write-back included).

Reference point for the complexity comparison: reads take two rounds, i.e.
four communication exchanges (readRequest, readAck, writeRequest,
writeAck), because the reader propagates the maximum tag it collected
before returning. The write-back is always performed, never skipped, so
exchange counts match the comparison table exactly.

The reader is an ohsam.ReaderStateS that writes back: on a majority of
readAcks it opens a writeRequest phase with the maximum pair it
collected, and QuorumClient returns that pair once the phase completes.

This module defines only the reader; the writers and the server are
reused as they are, and the registry (protocols.PROTOCOLS) pairs them.
Single-writer mode: writes are one round (writeRequest, writeAck) with the
writer's own incrementing timestamp, the two-exchange write of
ohsam.WriterStateS. Multi-writer mode: writes are two rounds, a discover
round to learn the maximum timestamp and a propagate round with tag
(maxTS + 1, own id), the write of ohmam.WriterStateM.

The server is ohsam.Replica, a bare replica that answers every
request, readRequests included, directly with its current pair: no
server-to-server relays.
"""

from __future__ import annotations

from .core import (
    KIND_READ_ACK,
    KIND_READ_REQUEST,
    KIND_WRITE_ACK,
    KIND_WRITE_REQUEST,
)
from .ohsam import ReaderStateS, by_tag

READ_CHAIN = (KIND_READ_REQUEST, KIND_READ_ACK, KIND_WRITE_REQUEST,
              KIND_WRITE_ACK)


class AbdReaderState(ReaderStateS):
    """Two-round reader: query a majority, write back the maximum tag."""

    def _on_quorum(self):
        # only the readAck phase gets here
        best = max(self.replies.values(), key=by_tag)
        return self._broadcast(KIND_WRITE_REQUEST, KIND_WRITE_ACK,
                               best.tag, best.value), None
