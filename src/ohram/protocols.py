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

A bundle is built on its first get_protocol lookup, and only then are
its machine modules imported: ohsam for every protocol, and ohmam, abd
or naive3x as the bundle pairs them (abd-mwmr both ohmam and abd). So
importing this module, or the package, compiles no machine, and a
process compiles only the machines of the protocols it looks up.
Reading PROTOCOLS, the name -> bundle dict, builds all five.
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


# one builder per protocol, in registry order: each imports only the
# machine modules its bundle pairs
def _ohsam() -> ProtocolBundle:
    from . import ohsam
    return ProtocolBundle("ohsam", MODE_SWMR, ohsam.WriterStateS,
                          ohsam.ReaderStateS, ohsam.ServerStateS, True,
                          ohsam.WRITE_CHAIN, ohsam.READ_CHAIN)


def _ohmam() -> ProtocolBundle:
    from . import ohmam, ohsam
    return ProtocolBundle("ohmam", MODE_MWMR, ohmam.WriterStateM,
                          ohsam.ReaderStateS, ohsam.ServerStateS, True,
                          ohmam.WRITE_CHAIN, ohsam.READ_CHAIN)


def _abd_swmr() -> ProtocolBundle:
    from . import abd, ohsam
    return ProtocolBundle("abd-swmr", MODE_SWMR, ohsam.WriterStateS,
                          abd.AbdReaderState, ohsam.Replica, True,
                          ohsam.WRITE_CHAIN, abd.READ_CHAIN)


def _abd_mwmr() -> ProtocolBundle:
    from . import abd, ohmam, ohsam
    return ProtocolBundle("abd-mwmr", MODE_MWMR, ohmam.WriterStateM,
                          abd.AbdReaderState, ohsam.Replica, True,
                          ohmam.WRITE_CHAIN, abd.READ_CHAIN)


def _naive3x() -> ProtocolBundle:
    from . import naive3x, ohsam
    return ProtocolBundle("naive3x", MODE_MWMR, ohsam.WriterStateS,
                          naive3x.Naive3xReader, naive3x.Naive3xServer, False,
                          naive3x.WRITE_CHAIN, ohsam.READ_CHAIN)


_BUILDERS: dict[str, Callable[[], ProtocolBundle]] = {
    "ohsam": _ohsam, "ohmam": _ohmam, "abd-swmr": _abd_swmr,
    "abd-mwmr": _abd_mwmr, "naive3x": _naive3x}

PROTOCOL_NAMES = tuple(_BUILDERS)

# each bundle built so far; once PROTOCOLS is first read, this same dict
# holds every bundle in registry order
_BUNDLES: dict[str, ProtocolBundle] = {}
PROTOCOLS: dict[str, ProtocolBundle]  # bound on first read, by __getattr__


def get_protocol(name: str) -> ProtocolBundle:
    """The bundle named name, as the registry pairs its machines; built,
    and its machine modules imported, on its first lookup."""
    bundle = _BUNDLES.get(name)
    if bundle is None:
        build = _BUILDERS.get(name)
        if build is None:
            raise ModeMismatch(f"unknown protocol {name!r}")
        bundle = _BUNDLES[name] = build()
    return bundle


def __getattr__(name: str):
    # PROTOCOLS, every name -> its bundle, builds all five. It is the dict
    # get_protocol reads, so a bundle patched into it reaches every caller
    if name != "PROTOCOLS":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    ordered = {p: get_protocol(p) for p in PROTOCOL_NAMES}
    _BUNDLES.clear()
    _BUNDLES.update(ordered)
    globals()["PROTOCOLS"] = _BUNDLES
    return _BUNDLES


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
            make_server=partial(bundle.make_server, x=x))
    if live and not bundle.sound:
        raise ModeMismatch(
            f"protocol {protocol} is not allowed in the live runner")
    if config.mode != bundle.mode:
        raise ModeMismatch(
            f"protocol {protocol} needs mode {bundle.mode!r}, "
            f"config says {config.mode!r}")
    return bundle
