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

from dataclasses import dataclass
from typing import Callable, Optional

from .core import (
    Config,
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
    # canonical operation ordinal for a writer's wire sequence number
    writer_group: Callable[[int], int]
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
        if op.invoker.role == ROLE_WRITER:
            return OpId(op.invoker, self.writer_group(op.seq))
        return op


def _identity(seq: int) -> int:
    return seq


def _halved(seq: int) -> int:
    # two wire sequence numbers (discover, write) per client write
    return (seq + 1) // 2


def get_protocol(name: str, *, x: Optional[int] = None) -> ProtocolBundle:
    if name == "ohsam":
        return ProtocolBundle(
            name=name, mode=MODE_SWMR,
            make_writer=ohsam.WriterStateS,
            make_reader=ohsam.ReaderStateS,
            make_server=ohsam.ServerStateS,
            writer_group=_identity,
            checked_invariants=True, runner_ok=True,
            write_exchanges=2, read_exchanges=3,
            write_messages=lambda n: 2 * n,
            read_messages=lambda n: n * n + 2 * n,
        )
    if name == "ohmam":
        return ProtocolBundle(
            name=name, mode=MODE_MWMR,
            make_writer=ohmam.WriterStateM,
            make_reader=ohmam.ReaderStateM,
            make_server=ohmam.ServerStateM,
            writer_group=_halved,
            checked_invariants=True, runner_ok=True,
            write_exchanges=4, read_exchanges=3,
            write_messages=lambda n: 4 * n,
            read_messages=lambda n: n * n + 2 * n,
        )
    if name == "abd-swmr":
        return ProtocolBundle(
            name=name, mode=MODE_SWMR,
            make_writer=abd.AbdWriterSwmr,
            make_reader=abd.AbdReaderState,
            make_server=lambda pid, config: abd.AbdServerState(pid, config),
            writer_group=_identity,
            checked_invariants=True, runner_ok=True,
            write_exchanges=2, read_exchanges=4,
            write_messages=lambda n: 2 * n,
            read_messages=lambda n: 4 * n,
        )
    if name == "abd-mwmr":
        return ProtocolBundle(
            name=name, mode=MODE_MWMR,
            make_writer=abd.AbdWriterMwmr,
            make_reader=abd.AbdReaderState,
            make_server=lambda pid, config: abd.AbdServerState(pid, config),
            writer_group=_identity,
            checked_invariants=True, runner_ok=True,
            write_exchanges=4, read_exchanges=4,
            write_messages=lambda n: 4 * n,
            read_messages=lambda n: 4 * n,
        )
    if name == "naive3x":
        return ProtocolBundle(
            name=name, mode=MODE_MWMR,
            make_writer=naive3x.Naive3xWriter,
            make_reader=naive3x.Naive3xReader,
            make_server=lambda pid, config: naive3x.Naive3xServer(
                pid, config, x=(x or 0)),
            writer_group=_identity,
            checked_invariants=False, runner_ok=False,
            write_exchanges=3, read_exchanges=3,
            write_messages=lambda n: n * n + 2 * n,
            read_messages=lambda n: n * n + 2 * n,
        )
    raise ModeMismatch(f"unknown protocol {name!r}")


PROTOCOL_NAMES = ("ohsam", "ohmam", "abd-swmr", "abd-mwmr", "naive3x")
