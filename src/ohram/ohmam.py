"""Multi-writer atomic register: four-exchange writes, three-exchange reads.

The read path and the server are those of the single-writer setting: the
registry (protocols.PROTOCOLS) pairs this module's writer with
ohsam.ReaderStateS and ohsam.ServerStateS. Writes generalize timestamps
to (ts, writer-id) tags and add a discover phase:

  discover -> discoverAck -> writeRequest -> writeAck

The writer is a two-phase QuorumClient with one counter value (seq, the
paper's write_op) per write: write k by writer w is op (w, k), and its
discover and its writeRequest both carry that op. The message kind tells
the two phases apart.

Upon a majority of discoverAcks the writer takes maxTS as the maximum of
the ts components alone (the writer ids of the collected tags are
discarded, since a fresh wid is assigned) and writes tag (maxTS + 1, own
id), kept only in its writeRequest, whose pair QuorumClient returns. A
server adopts a writeRequest whose tag is larger than its own and always
acks, as every Replica does.

The paper's server also keeps a per-writer table write_operations and
adopts only when (tag < tag') and (write_operations[w] < write_op). That
second test never refuses a write the first accepts, so it is left out.
Write k > j of writer w starts only after write j, with tag t_j,
completed on acks from a majority, and each acker then held a tag of at
least t_j (the majority rule simnet.Monitor checks at every completion).
Write k's discover meets that majority, so its tag t_k is above t_j, and
a server that adopted write k already holds a tag above t_j. So, by
induction on events, self.tag < msg.tag and write_operations[w] >=
msg.op.seq never hold together; a rebroadcast copy of write j carries
t_j itself (Attiya, Bar-Noy & Dolev, JACM 1995, for the quorum
intersection).
"""

from __future__ import annotations

from .core import (
    KIND_DISCOVER,
    KIND_DISCOVER_ACK,
    KIND_WRITE_ACK,
    KIND_WRITE_REQUEST,
    Message,
    Tag,
)
from .ohsam import QuorumClient

WRITE_CHAIN = (KIND_DISCOVER, KIND_DISCOVER_ACK, KIND_WRITE_REQUEST,
               KIND_WRITE_ACK)


class WriterStateM(QuorumClient):
    """Multi-writer: discover the maximum timestamp, then write above it.

    Both phases of a write carry its one counter value.
    """

    def invoke_write(self, label: str) -> list[Message]:
        self._begin("write", label)
        return self._broadcast(KIND_DISCOVER, KIND_DISCOVER_ACK)

    def _on_quorum(self):
        # only the discover phase gets here
        max_ts = max(m.tag.ts for m in self.replies.values())
        return self._broadcast(KIND_WRITE_REQUEST, KIND_WRITE_ACK,
                               Tag(max_ts + 1, self.pid),
                               self.record.value), None
