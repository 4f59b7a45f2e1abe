"""Shared domain vocabulary for the register emulation artifact.

Identifiers, tags, operation ids, protocol messages, configuration, and
quorum arithmetic. Every protocol module, the simulator, the checker, and
the TCP runner build on these types. All of them are plain values, safe to
share freely: process ids are interned (one object per id, so equality is
identity), tags and operation ids are tuples whose order is the tag order,
and a message is not mutated once it has been sent.

The canonical JSON encoding of each type lives next to the type (the
``*_to_json`` / ``*_from_json`` pairs). Schedule scripts, history files,
and metrics reports use exactly these encodings; field names are part of
the contract, and unknown fields are ignored on decode. A wire msg frame
is the 7-item array that message_from_json reads; message_to_json's dict
is what the runner's _pack lays out as that array. Neither holds the
destination: the connection a frame arrives on implies it, so the copies
of one broadcast share one dict and one frame.
"""

from __future__ import annotations

from functools import lru_cache
from operator import attrgetter
from typing import Any, NamedTuple, Optional


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------

class OhramError(Exception):
    """Base class for every artifact-specific error."""


class InvalidFaultBound(OhramError):
    """f does not satisfy f < n_servers / 2."""


class ModeMismatch(OhramError):
    """Role counts conflict with the declared register mode."""


class NotWellFormed(OhramError):
    """A client invoked an operation while another one is pending."""


class StuckExecution(OhramError):
    """An operation by a correct process cannot make progress."""


class ScheduleUnresolvable(OhramError):
    """A scripted delivery selector matched nothing (or was ambiguous)."""


class FaultBudgetExceeded(OhramError):
    """More crash directives than the configured fault bound f."""


class UntaggedHistory(OhramError):
    """The witness checker needs tags on every response."""


class HistoryTooLarge(OhramError):
    """The exhaustive checker only accepts small histories."""


class BindFailure(OhramError):
    """A server daemon could not bind its listen address."""


class QuorumUnreachable(OhramError):
    """A client exhausted its retry budget without reaching a quorum."""


# ---------------------------------------------------------------------------
# Process identifiers
# ---------------------------------------------------------------------------

ROLE_WRITER = "writer"
ROLE_READER = "reader"
ROLE_SERVER = "server"

_ROLE_RANK = {ROLE_WRITER: 0, ROLE_READER: 1, ROLE_SERVER: 2}
_ROLE_PREFIX = {ROLE_WRITER: "w", ROLE_READER: "r", ROLE_SERVER: "s"}
_PREFIX_ROLE = {v: k for k, v in _ROLE_PREFIX.items()}


# (role, index) -> the one ProcessId object for that id
_PIDS: dict[tuple[str, int], "ProcessId"] = {}


class ProcessId:
    """A process identity: role plus 1-based index within the role.

    Interned: there is one object per (role, index), so ``==`` and
    ``hash`` are the identity defaults, and copies and unpickled ids are
    that same object. Immutable. The order over all ids is total and
    stable: role-major (writers, then readers, then servers), index-minor.
    """

    __slots__ = ("role", "index", "_key", "_text")

    role: str
    index: int

    def __new__(cls, role: str, index: int) -> "ProcessId":
        pid = _PIDS.get((role, index))
        if pid is None:
            pid = object.__new__(cls)
            object.__setattr__(pid, "role", role)
            object.__setattr__(pid, "index", index)
            object.__setattr__(pid, "_key", (_ROLE_RANK[role], index))
            object.__setattr__(pid, "_text", f"{_ROLE_PREFIX[role]}{index}")
            # reader threads parse ids concurrently; setdefault publishes
            # atomically, so every racer gets the first object stored
            pid = _PIDS.setdefault((role, index), pid)
        return pid

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"ProcessId is immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"ProcessId is immutable: cannot delete {name!r}")

    def __reduce__(self) -> tuple[type, tuple[str, int]]:
        return (ProcessId, (self.role, self.index))

    def sort_key(self) -> tuple[int, int]:
        return self._key

    def __lt__(self, other: "ProcessId") -> bool:
        return self._key < other._key

    def __str__(self) -> str:
        return self._text

    def __repr__(self) -> str:
        return f"ProcessId(role={self.role!r}, index={self.index!r})"


@lru_cache(maxsize=4096)
def parse_pid(text: str) -> ProcessId:
    """Parse "w1" / "r2" / "s3" into a ProcessId."""
    role = _PREFIX_ROLE.get(text[:1])
    if role is None or not text[1:].isdigit():
        raise ValueError(f"bad process id: {text!r}")
    index = int(text[1:])
    if index < 1:
        raise ValueError(f"process index must be >= 1: {text!r}")
    pid = ProcessId(role, index)
    if pid._text != text:  # "w01" or "r007" would alias another process
        raise ValueError(f"not the canonical spelling of {pid}: {text!r}")
    return pid


def writer_id(i: int) -> ProcessId:
    return ProcessId(ROLE_WRITER, i)


def reader_id(i: int) -> ProcessId:
    return ProcessId(ROLE_READER, i)


def server_id(i: int) -> ProcessId:
    return ProcessId(ROLE_SERVER, i)


@lru_cache(maxsize=64)
def _server_ids(n_servers: int) -> tuple[ProcessId, ...]:
    # every broadcast asks for the server list; build it once per size
    return tuple(server_id(i) for i in range(1, n_servers + 1))


# ---------------------------------------------------------------------------
# Tags
# ---------------------------------------------------------------------------

class Tag(NamedTuple):
    """Version number of a written value: (timestamp, writer id).

    A tuple, so its order is the strict lexicographic tag order: ts
    first, writer id as tiebreak. In the single-writer setting the wid is
    pinned to the sole writer, so the tag degenerates to a bare timestamp.
    A tag with ts == 0 is an initial tag; its wid is the owning process
    (servers start at (0, own id)) and it is always associated with the
    unwritten sentinel value.
    """

    ts: int
    wid: ProcessId

    def __str__(self) -> str:
        return f"({self.ts},{self.wid})"


# ---------------------------------------------------------------------------
# Operation identifiers
# ---------------------------------------------------------------------------

class OpId(NamedTuple):
    """Identifies one client operation: (invoker, per-invoker counter).

    The seq is the invoker's operation counter and strictly increases, so
    (invoker, seq) is globally unique. Every message of an operation, in
    each of its phases, carries the operation's id, the same id its
    history record has. A tuple of an interned id and an int, so hashing
    and equality never enter Python code.
    """

    invoker: ProcessId
    seq: int

    def __str__(self) -> str:
        return f"{self.invoker}#{self.seq}"


# ---------------------------------------------------------------------------
# Values
# ---------------------------------------------------------------------------

# The register's initial value. Distinct from every written value; written
# values are opaque strings made unique per invocation by a nonce suffix.
BOTTOM = None


def make_value(label: str, op: OpId) -> str:
    """Written value: opaque label plus a per-invocation unique nonce."""
    return f"{label}#{op.invoker}.{op.seq}"


# ---------------------------------------------------------------------------
# Messages
# ---------------------------------------------------------------------------

KIND_READ_REQUEST = "readRequest"
KIND_READ_RELAY = "readRelay"
KIND_READ_ACK = "readAck"
KIND_WRITE_REQUEST = "writeRequest"
KIND_WRITE_ACK = "writeAck"
KIND_DISCOVER = "discover"
KIND_DISCOVER_ACK = "discoverAck"
# Used only by the deliberately unsound three-exchange write protocol,
# which disseminates write requests among servers before acknowledging.
KIND_WRITE_RELAY = "writeRelay"

MESSAGE_KINDS = (
    KIND_READ_REQUEST,
    KIND_READ_RELAY,
    KIND_READ_ACK,
    KIND_WRITE_REQUEST,
    KIND_WRITE_ACK,
    KIND_DISCOVER,
    KIND_DISCOVER_ACK,
    KIND_WRITE_RELAY,
)


class Record:
    """Base of the package's mutable records.

    A subclass names its fields in __slots__, in constructor order, and
    writes out its own __init__; a subclass of a record adds its fields
    after its base's. Equality is field-wise between instances of one
    class, the repr names every field, Message(kind='readAck', ...), and
    a record is unhashable, since it may change.
    """

    __slots__ = ()
    __hash__ = None

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        # the field names in constructor order; as __match_args__ they
        # also let a class pattern, case Message(kind, op), take fields
        # by position
        cls.__match_args__ = tuple(
            name for klass in reversed(cls.__mro__)
            for name in vars(klass).get("__slots__", ()))
        # one C call reads every field, where a loop of getattr costs
        # several times as much per comparison
        cls._values = attrgetter(*cls.__match_args__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        values = self._values
        return values(self) == values(other)

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(" + ", ".join(
            [f"{name}={getattr(self, name)!r}"
             for name in self.__match_args__]) + ")"


class Message(Record):
    """Typed protocol envelope.

    Every message names exactly one destination; a broadcast is expanded
    into one message per destination at send time so the metrics layer
    counts messages exactly as the complexity table does.

    A relay's origin is its sender, the server that relays it, and
    servers count relays by sender. A relay carries the target client's
    OpId, which lets a server answer a reader it never heard from directly.

    A mutable Record, whose straight-line __init__ is the cheapest way to
    build one; equality is field-wise. A message is not mutated once
    sent, and nothing hashes one. The one write is on receipt:
    message_from_json leaves destination None, since the wire does not
    carry it, and the live runner sets it to the receiving endpoint's pid
    before any machine sees the message. Build it positionally on hot
    paths: a call with keyword arguments costs about twice as much.
    """

    __slots__ = ("kind", "op", "sender", "destination", "tag", "value")

    def __init__(self, kind: str, op: OpId, sender: ProcessId,
                 destination: Optional[ProcessId], tag: Optional[Tag] = None,
                 value: Optional[str] = None) -> None:
        self.kind = kind
        self.op = op
        self.sender = sender
        self.destination = destination
        self.tag = tag
        self.value = value


class OpRecord(Record):
    """One operation in a recorded history.

    The client machine fills op, kind and, for a write, value when the
    operation is invoked, and tag and value (what a read returned, or
    what a write wrote) when it completes. The harness fills invoked and
    responded, indices on a single monotone scale (event counter in the
    simulator, monotonic clock in the live runner); the scale only needs
    to order events of one run consistently. responded is None while the
    operation is pending.

    Slotted, so a record holds its six fields and no attribute dict: a
    live history keeps one per operation. Setting any other attribute
    raises AttributeError.
    """

    __slots__ = ("op", "kind", "invoked", "responded", "tag", "value")

    def __init__(self, op: OpId, kind: str, invoked: Optional[int],
                 responded: Optional[int], tag: Optional[Tag],
                 value: Optional[str]) -> None:
        self.op = op
        self.kind = kind  # "read" | "write"
        self.invoked = invoked
        self.responded = responded
        self.tag = tag
        self.value = value


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

MODE_SWMR = "swmr"
MODE_MWMR = "mwmr"


class Config(NamedTuple):
    """System configuration: role counts, fault bound, register mode.

    A tuple, like Tag and OpId: immutable and hashable.
    """

    n_servers: int
    n_readers: int
    n_writers: int
    f: int
    mode: str = MODE_MWMR

    def servers(self) -> list[ProcessId]:
        return list(_server_ids(self.n_servers))

    def readers(self) -> list[ProcessId]:
        return [reader_id(i) for i in range(1, self.n_readers + 1)]

    def writers(self) -> list[ProcessId]:
        return [writer_id(i) for i in range(1, self.n_writers + 1)]


def quorum_size(n_servers: int) -> int:
    """Majority size: floor(n/2) + 1. Any two majorities intersect."""
    if n_servers < 1:
        raise ValueError("need at least one server")
    return n_servers // 2 + 1


def validate_config(c: Config) -> None:
    """Reject configurations outside the failure model or mode rules.

    Raises InvalidFaultBound when f >= n_servers / 2, and ModeMismatch
    when a single-writer configuration declares more than one writer.
    """
    if c.n_servers < 1:
        raise InvalidFaultBound("need at least one server")
    if c.f < 0 or c.f * 2 >= c.n_servers:
        raise InvalidFaultBound(
            f"f={c.f} must satisfy f < n_servers/2 = {c.n_servers / 2}")
    if c.mode not in (MODE_SWMR, MODE_MWMR):
        raise ModeMismatch(f"unknown mode {c.mode!r}")
    if c.mode == MODE_SWMR and c.n_writers != 1:
        raise ModeMismatch(
            f"single-writer mode requires exactly one writer, got {c.n_writers}")
    if c.n_writers < 0 or c.n_readers < 0:
        raise ModeMismatch("role counts must be non-negative")


# ---------------------------------------------------------------------------
# JSON codecs
# ---------------------------------------------------------------------------

def tag_to_json(t: Optional[Tag]) -> Optional[dict[str, Any]]:
    if t is None:
        return None
    return {"ts": t.ts, "wid": str(t.wid)}


def json_int(value: Any, name: str) -> int:
    """value, the integer field name read from JSON; raises ValueError
    naming it unless value is an int, which a bool, a float or a numeric
    string is not."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def tag_from_json(obj: Optional[dict[str, Any]]) -> Optional[Tag]:
    if obj is None:
        return None
    return Tag(json_int(obj["ts"], "ts"), parse_pid(obj["wid"]))


def opid_to_json(op: OpId) -> dict[str, Any]:
    return {"invoker": str(op.invoker), "seq": op.seq}


def opid_from_json(obj: dict[str, Any]) -> OpId:
    return OpId(parse_pid(obj["invoker"]), json_int(obj["seq"], "seq"))


def message_to_json(m: Message) -> dict[str, Any]:
    """Every field of m but destination, which a wire frame does not
    carry; the runner encodes each broadcast here once."""
    # the op and tag dicts are the ones opid_to_json and tag_to_json
    # build, written out to save the calls
    op, tag = m.op, m.tag
    return {
        "kind": m.kind,
        "op": {"invoker": op.invoker._text, "seq": op.seq},
        "sender": m.sender._text,
        "tag": None if tag is None else {"ts": tag.ts, "wid": tag.wid._text},
        "value": m.value,
    }


_new_tuple = tuple.__new__


def message_from_json(obj: list) -> Message:
    """Read a wire msg: [kind, invoker, seq, sender, ts, wid, value],
    with ts and wid both null for no tag. The message's destination is
    None: the receiver sets it.

    Raises ValueError or TypeError on any other length, an unknown kind,
    a seq or ts that is no int (a bool is none), a value that is neither
    str nor null, or a pid that parse_pid refuses.
    """
    kind, invoker, seq, sender, ts, wid, value = obj
    if (kind not in MESSAGE_KINDS or type(seq) is not int
            or (wid is not None if ts is None else type(ts) is not int)
            or (value is not None and type(value) is not str)):
        raise ValueError(f"malformed message {obj!r:.200}")
    # build both tuples without the Python __new__ a NamedTuple adds
    return Message(
        kind,
        _new_tuple(OpId, (parse_pid(invoker), seq)),
        parse_pid(sender),
        None,
        None if ts is None else _new_tuple(Tag, (ts, parse_pid(wid))),
        value,
    )


def config_to_json(c: Config) -> dict[str, Any]:
    return {
        "n_servers": c.n_servers,
        "n_readers": c.n_readers,
        "n_writers": c.n_writers,
        "f": c.f,
        "mode": c.mode,
    }


def config_from_json(obj: dict[str, Any]) -> Config:
    """Raises ValueError naming a count that is no int (see json_int)."""
    return Config(
        n_servers=json_int(obj["n_servers"], "n_servers"),
        n_readers=json_int(obj["n_readers"], "n_readers"),
        n_writers=json_int(obj["n_writers"], "n_writers"),
        f=json_int(obj["f"], "f"),
        mode=obj.get("mode", MODE_MWMR),
    )
