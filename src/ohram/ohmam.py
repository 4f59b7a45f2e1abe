"""Multi-writer atomic register: four-exchange writes, three-exchange reads.

The read path is identical to the single-writer setting and is reused from
the three-exchange read module wholesale. Writes generalize timestamps to
(ts, writer-id) tags and add a discover phase:

  discover -> discoverAck -> writeRequest -> writeAck

The writer is a two-phase QuorumClient with one counter value (seq, the
paper's write_op) per write: write k by writer w is op (w, k), and its
discover and its writeRequest both carry that op. The message kind tells
the two phases apart, and the server's guard reads only the order of one
writer's counter values.

Upon a majority of discoverAcks the writer takes maxTS as the maximum of
the ts components alone (the writer ids of the collected tags are
discarded, since a fresh wid is assigned) and writes tag (maxTS + 1, own
id). A server adopts an incoming writeRequest only when the tag is larger
AND the writer's recorded write_op counter is stale-free, i.e.
(tag < tag') and (write_operations[w] < write_op); the writeAck is sent
unconditionally either way. write_operations is not refreshed on
non-adopting acks.
"""

from __future__ import annotations

from .core import (
    Config,
    KIND_DISCOVER,
    KIND_DISCOVER_ACK,
    KIND_WRITE_ACK,
    KIND_WRITE_REQUEST,
    Message,
    ProcessId,
    Tag,
)
from .ohsam import QuorumClient, ReaderStateS, ServerStateS

# The reader is literally the single-writer one: broadcast, collect a
# majority of readAcks, return the minimum tag's value.
ReaderStateM = ReaderStateS


class WriterStateM(QuorumClient):
    """Multi-writer: discover the maximum timestamp, then write above it.

    Both phases of a write carry its one counter value.
    """

    def __init__(self, pid: ProcessId, config: Config) -> None:
        super().__init__(pid, config)
        self.tag = Tag(0, pid)

    def invoke_write(self, label: str) -> list[Message]:
        self._begin("write", label)
        return self._broadcast(KIND_DISCOVER, KIND_DISCOVER_ACK)

    def _on_quorum(self):
        if self.awaiting == KIND_WRITE_ACK:
            return self._done(self.tag, self.record.value)
        max_ts = max(m.tag.ts for m in self.replies.values())
        self.tag = Tag(max_ts + 1, self.pid)
        return self._broadcast(KIND_WRITE_REQUEST, KIND_WRITE_ACK,
                               self.tag, self.record.value), None


class ServerStateM(ServerStateS):
    """Server with the stale-write guard; everything else is inherited."""

    def __init__(self, pid: ProcessId, config: Config) -> None:
        super().__init__(pid, config)
        self.write_operations: dict[ProcessId, int] = {}

    def on_write_request(self, msg: Message) -> list[Message]:
        wid = msg.op.invoker
        if self.tag < msg.tag and self.write_operations.get(wid, 0) < msg.op.seq:
            self.tag = msg.tag
            self.value = msg.value
            self.write_operations[wid] = msg.op.seq
        return self._reply(KIND_WRITE_ACK, msg)
