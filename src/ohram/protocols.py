"""Registry of the register emulations this package ships.

Every protocol is exposed as a bundle of constructors plus the metadata
the simulator and the benchmark harness need: how wire sequence numbers
map onto client operations, which per-step invariants are meaningful,
and the failure-free exchange and message counts per operation.

Names:

  ohsam      single-writer, two-exchange writes, three-exchange reads
  ohmam      multi-writer, four-exchange writes, three-exchange reads
  abd-swmr   classic quorum baseline, reads write back (four exchanges)
  abd-mwmr   classic baseline with a discovery round before each write
  naive3x    unsound three-exchange multi-writer writes; simulator only
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Optional

from .core import (
    MODE_MWMR,
    MODE_SWMR,
    ModeMismatch,
    OpId,
    ROLE_WRITER,
)
from . import abd, naive3x, ohmam, ohsam


@dataclass(frozen=True)
class ProtocolBundle:
    name: str
    mode: str
    make_writer: Callable
    make_reader: Callable
    make_server: Callable
    # False for the unsound demo protocol: its servers do not promise
    # monotone tags, so the per-step invariant checks would misfire
    checked_invariants: bool
    # the live network runner refuses protocols with this False
    runner_ok: bool
    write_exchanges: int
    read_exchanges: int
    write_messages: Callable[[int], int]
    read_messages: Callable[[int], int]

    def op_group(self, op: OpId) -> OpId:
        """The client operation a wire sequence number belongs to: a
        writer's counter ticks make_writer.ticks times per write."""
        if op.invoker.role == ROLE_WRITER:
            ticks = self.make_writer.ticks
            return OpId(op.invoker, (op.seq + ticks - 1) // ticks)
        return op


def _relayed(n: int) -> int:
    # a request to each server, n relays from each, one answer from each
    return n * n + 2 * n


PROTOCOLS: dict[str, ProtocolBundle] = {b.name: b for b in (
    ProtocolBundle("ohsam", MODE_SWMR, ohsam.WriterStateS, ohsam.ReaderStateS,
                   ohsam.ServerStateS,
                   checked_invariants=True, runner_ok=True,
                   write_exchanges=2, read_exchanges=3,
                   write_messages=lambda n: 2 * n, read_messages=_relayed),
    ProtocolBundle("ohmam", MODE_MWMR, ohmam.WriterStateM, ohmam.ReaderStateM,
                   ohmam.ServerStateM,
                   checked_invariants=True, runner_ok=True,
                   write_exchanges=4, read_exchanges=3,
                   write_messages=lambda n: 4 * n, read_messages=_relayed),
    ProtocolBundle("abd-swmr", MODE_SWMR, abd.AbdWriterSwmr, abd.AbdReaderState,
                   abd.AbdServerState,
                   checked_invariants=True, runner_ok=True,
                   write_exchanges=2, read_exchanges=4,
                   write_messages=lambda n: 2 * n,
                   read_messages=lambda n: 4 * n),
    ProtocolBundle("abd-mwmr", MODE_MWMR, abd.AbdWriterMwmr, abd.AbdReaderState,
                   abd.AbdServerState,
                   checked_invariants=True, runner_ok=True,
                   write_exchanges=4, read_exchanges=4,
                   write_messages=lambda n: 4 * n,
                   read_messages=lambda n: 4 * n),
    ProtocolBundle("naive3x", MODE_MWMR, naive3x.Naive3xWriter,
                   naive3x.Naive3xReader, naive3x.Naive3xServer,
                   checked_invariants=False, runner_ok=False,
                   write_exchanges=3, read_exchanges=3,
                   write_messages=_relayed, read_messages=_relayed),
)}

PROTOCOL_NAMES = tuple(PROTOCOLS)


def get_protocol(name: str, *, x: Optional[int] = None) -> ProtocolBundle:
    """The bundle named name; x is the naive3x servers' decision threshold."""
    bundle = PROTOCOLS.get(name)
    if bundle is None:
        raise ModeMismatch(f"unknown protocol {name!r}")
    if x and name == "naive3x":
        return replace(bundle, make_server=partial(naive3x.Naive3xServer, x=x))
    return bundle
