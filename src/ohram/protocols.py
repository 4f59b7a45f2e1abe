"""Registry of the register emulations this package ships.

Every protocol is exposed as a bundle of constructors plus the metadata
the simulator and the benchmark harness need: whether the protocol is
sound (the simulator checks its per-step invariants and the live runner
takes it), and each op's chain of message kinds, one per exchange,
which gives its exchange count and its failure-free message count.

Names:

  ohsam      single-writer, two-exchange writes, three-exchange reads
  ohmam      multi-writer, four-exchange writes, three-exchange reads
  abd-swmr   classic quorum baseline, reads write back (four exchanges)
  abd-mwmr   classic baseline with a discovery round before each write
  naive3x    unsound three-exchange multi-writer writes; simulator only
"""

from __future__ import annotations

from functools import partial
from typing import Callable, NamedTuple, Optional

from .core import (
    MODE_MWMR,
    MODE_SWMR,
    RELAY_KINDS,
    Config,
    ModeMismatch,
    validate_config,
)
from . import abd, naive3x, ohmam, ohsam


class ProtocolBundle(NamedTuple):
    name: str
    mode: str
    make_writer: Callable
    make_reader: Callable
    make_server: Callable
    # False for the unsound demo protocol: its servers do not promise
    # monotone tags, so the simulator checks no per-step invariants, and
    # the live runner refuses it
    sound: bool
    # an op's message kinds, one per sequential exchange: a message sent
    # at causal depth d is of kind chain[d-1] (simnet checks each send)
    write_chain: tuple[str, ...]
    read_chain: tuple[str, ...]

    def chain(self, kind: str) -> tuple[str, ...]:
        """The chain of an op of kind "read" or "write"."""
        return self.read_chain if kind == "read" else self.write_chain

    def write_messages(self, n: int) -> int:
        return _messages(self.write_chain, n)

    def read_messages(self, n: int) -> int:
        return _messages(self.read_chain, n)


def _messages(chain: tuple[str, ...], n: int) -> int:
    """A failure-free op's messages at n servers: n per exchange, to or
    from each server, but n * n for a relay, each server's to all."""
    return sum(n * n if k in RELAY_KINDS else n for k in chain)


PROTOCOLS: dict[str, ProtocolBundle] = {b.name: b for b in (
    ProtocolBundle("ohsam", MODE_SWMR, ohsam.WriterStateS, ohsam.ReaderStateS,
                   ohsam.ServerStateS, True, ohsam.WRITE_CHAIN,
                   ohsam.READ_CHAIN),
    ProtocolBundle("ohmam", MODE_MWMR, ohmam.WriterStateM, ohsam.ReaderStateS,
                   ohsam.ServerStateS, True, ohmam.WRITE_CHAIN,
                   ohsam.READ_CHAIN),
    ProtocolBundle("abd-swmr", MODE_SWMR, ohsam.WriterStateS, abd.AbdReaderState,
                   ohsam.Replica, True, ohsam.WRITE_CHAIN, abd.READ_CHAIN),
    ProtocolBundle("abd-mwmr", MODE_MWMR, ohmam.WriterStateM, abd.AbdReaderState,
                   ohsam.Replica, True, ohmam.WRITE_CHAIN, abd.READ_CHAIN),
    ProtocolBundle("naive3x", MODE_MWMR, ohsam.WriterStateS,
                   naive3x.Naive3xReader, naive3x.Naive3xServer, False,
                   naive3x.WRITE_CHAIN, ohsam.READ_CHAIN),
)}

PROTOCOL_NAMES = tuple(PROTOCOLS)


def get_protocol(name: str) -> ProtocolBundle:
    """The bundle named name, as the registry pairs its machines."""
    bundle = PROTOCOLS.get(name)
    if bundle is None:
        raise ModeMismatch(f"unknown protocol {name!r}")
    return bundle


def checked_bundle(protocol: str, config: Config, *, x: Optional[int] = None,
                   live: bool = False) -> ProtocolBundle:
    """The bundle to run config with: the config is valid, its mode is
    the protocol's, and a live runner's protocol is sound. x is None or,
    for naive3x only, a decision threshold in 1..n that the bundle's
    servers are built with; this is the one place x is accepted. Every
    simulator and live endpoint is built here."""
    validate_config(config)
    bundle = get_protocol(protocol)
    if x is not None:
        if protocol != "naive3x":
            raise ModeMismatch(
                f"protocol {protocol} takes no threshold x (only naive3x does)")
        if not 1 <= x <= config.n_servers:
            raise ModeMismatch(
                f"naive3x threshold {x} not in 1..{config.n_servers}")
        bundle = bundle._replace(
            make_server=partial(naive3x.Naive3xServer, x=x))
    if live and not bundle.sound:
        raise ModeMismatch(
            f"protocol {protocol} is not allowed in the live runner")
    if config.mode != bundle.mode:
        raise ModeMismatch(
            f"protocol {protocol} needs mode {bundle.mode!r}, "
            f"config says {config.mode!r}")
    return bundle
