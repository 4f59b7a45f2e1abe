"""Live TCP runner: the same state machines over real sockets.

Framing: every frame is a 4-byte big-endian length prefix followed by
that many bytes of UTF-8 JSON, at most 1 MiB. A JSON object is a hello,
which identifies the dialing process, and a JSON array is a msg, which
carries one protocol message by position:

  {"type":"hello","pid":"r1"}
  [kind, invoker, seq, sender, ts, wid, value]

ts and wid are both null for a message with no tag; value is null when
the message has none. A relay's origin is its sender. A msg carries no
destination: the connection it arrives on implies it, so the receiving
endpoint sets it to its own pid. A msg array that message_from_json
refuses is skipped, and so is an object of any other type and a frame
that is neither.

An endpoint takes only the processes of its configuration: a msg whose
invoker or sender is none of them, or whose wid is neither one of them
nor null, is skipped, and a hello naming any other process does not
count. The check reads the array's items as text, before
message_from_json, so a frame from outside makes no ProcessId and leaves
no state in a machine: a server keeps at most one read per reader of
the configuration.

_send hands _pack the frame {"type": "msg", "msg": message_to_json(msg)},
the dict perfbench's tracer reads; _pack lays it out as the array in one
format, and writes any other frame as json.dumps(obj, separators=(",",
":")) does, through one shared encoder. The copies of one broadcast
differ only in destination, so they frame to the same bytes, and each
broadcast is encoded once: the loop keeps the message it framed last and
that message's frame dict, and _send reuses the dict for a message whose
other fields are the same objects; _pack keeps the frame it built last
and returns it for the same dict. A body is accepted exactly when
json.loads accepts it, through one shared decoder. Each read is cut into
frames where it is taken, whatever the reads' sizes, and a msg goes
straight to message_from_json and the endpoint's machine.

Topology: clients dial every server and keep the connection. Each pair
of servers shares one connection, which the later server dials, so
relays in both directions travel on it and each side's frames carry the
other's TCP ACKs. A server keeps every connection dialed to it as an
inbound one, a later peer's exactly as a client's, named by its hello:
what the server sends that process travels back over it, and a newer
connection that names the same process replaces it. Only a connection's
first hello from a process of the configuration counts. A daemon sends
to a server it dials itself on its own link, so a daemon that dials
every peer still works with one that does not. A membership names the
servers of the configuration and nothing else: check_membership, which
Client and `ohram serve` call, refuses any other entry, and a daemon
dials only servers, so what it sends a client goes back on the
connection that client dialed.

The process has one selector loop, made by the first endpoint and run
while any endpoint is started. It owns every socket of every server
daemon and client, accepted and dialed, and handles each batch of events
under the one lock all endpoints share: it accepts, reads, runs the
machines and sends. A client's operation thread invokes and
(re)broadcasts under the same lock, and the loop wakes it once, at the
end of the batch in which its op completed. Links set TCP_NODELAY, because
frames are small and go out one at a time.

Every step's outputs, a machine's answer and a client's invoke or
rebroadcast alike, leave their endpoint through _emit: in order, each on
its destination's link or else the connection its hello named, lost with
neither. It returns those addressed to the endpoint itself, a server's
relay to itself, which the server then handles.

Sends never block. A message is framed and written at once as far as
the kernel takes it; only a rest the kernel refuses goes to the
connection's outbuf, and any later frame queues behind it, until the
loop has written it when the socket is writable. Any connection whose
outbuf passes MAX_BACKLOG bytes is dropped, since its peer stopped
reading: a dialed link redials, and a connection the peer dialed waits
for the peer to redial.

Links lose messages, and the client's rebroadcast retries every loss.
A message to a process with no connection is lost, and so is every
frame still in outbuf when its connection drops. A dialed link dials as
it is made, its hello first in outbuf, so the first messages queue
behind the hello. A refused connection, or a link whose stream ends,
breaks or stops being frames, redials REDIAL_DELAY seconds later; the
loop looks for links to redial only while some dialed link waits. No
reply is sent only once: every sound server answers every copy of a
request, so a repeated writeRequest or discover is acknowledged again,
and a repeated readRequest for the reader's newest read relays again
and, once the server has answered that read, brings its readAck again.
A frame that breaks the machine closes only its own connection.

Clients stamp invocation and response times with time.monotonic_ns().
Histories from clients of one host therefore share a scale and can be
merged for checking with merge_histories. A client that cannot assemble
a quorum re-broadcasts the phase its machine's rebroadcast() supplies
every retry_interval seconds, retrying what the phase lost, and gives up
with QuorumUnreachable after retry_budget rebroadcasts, or at once on
close; an op on a closed client raises it before it starts. An op given
up stays open in its machine, so the next op raises NotWellFormed. A
client refuses a retry_interval that is not above 0 and a negative
retry_budget with ValueError, before it makes a socket: a wait of no
time does not block, so every op would give up at once. It also
refuses a retry_interval above threading.TIMEOUT_MAX, inf included, on
which the op's wait would raise OverflowError. A retry_budget of 0
gives up after one retry_interval, with no rebroadcast. A write
whose label's JSON text, as the wire escapes it, is longer than
MAX_FRAME - LABEL_ALLOWANCE bytes raises ValueError before the machine
invokes it: its frame could not be sent, and an op invoked but never
sent would stay open.

The deliberately unsound demonstration protocol is refused here; it
exists for scripted simulation only.
"""

from __future__ import annotations

import errno
import json
import socket
import struct
import threading
import time
from selectors import EVENT_READ, EVENT_WRITE, DefaultSelector
from typing import Any, Optional

from .core import (
    BindFailure,
    Config,
    Message,
    ModeMismatch,
    OpRecord,
    ProcessId,
    QuorumUnreachable,
    ROLE_SERVER,
    message_from_json,
    message_to_json,
    parse_pid,
)
from .protocols import checked_bundle

MAX_FRAME = 1 << 20
MAX_BACKLOG = 8 * MAX_FRAME  # bytes in a connection's outbuf that drop it
# a write label's JSON text takes at most MAX_FRAME less this, which leaves
# room for the frame's other fields and the value's nonce
LABEL_ALLOWANCE = 1024
RECV_SIZE = 1 << 16  # one read: every frame a wake-up finds
REDIAL_DELAY = 0.02  # seconds from a refused or dropped link to its redial
_LEN = struct.Struct(">I")
# one of each for every frame: json.dumps(obj, separators=...) builds a
# new encoder per call, and json.loads checks and strips its argument
_ENCODER = json.JSONEncoder(separators=(",", ":"), check_circular=False)
_DECODER = json.JSONDecoder()
_SCAN = _DECODER.scan_once
_quote = json.encoder.encode_basestring_ascii  # _ENCODER's string writer
_MSG_FRAME = "[%s,%s,%d,%s,%s,%s,%s]"
# the object _pack framed last, and its frame; holding the object keeps
# its id from being reused, so `is` finds only that object
_packed: tuple[Any, bytes] = (None, b"")


def _pack(obj) -> bytes:
    """Frame obj: a msg frame, whose "msg" is message_to_json's dict, as
    the array message_from_json reads; any other object as _ENCODER
    writes it. Handed the object it framed last again, it returns that
    frame, so an object must not change once framed."""
    global _packed
    last, frame = _packed
    if obj is last:
        return frame
    if type(obj) is dict and "msg" in obj:
        m = obj["msg"]
        op, tag, value = m["op"], m["tag"], m["value"]
        text = _MSG_FRAME % (
            _quote(m["kind"]), _quote(op["invoker"]), op["seq"],
            _quote(m["sender"]),
            "null" if tag is None else tag["ts"],
            "null" if tag is None else _quote(tag["wid"]),
            "null" if value is None else _quote(value))
    else:
        text = _ENCODER.encode(obj)
    data = text.encode("utf-8")
    if len(data) > MAX_FRAME:
        raise ValueError(f"frame of {len(data)} bytes exceeds {MAX_FRAME}")
    frame = _LEN.pack(len(data)) + data
    _packed = (obj, frame)
    return frame


def _unpack(body) -> Any:
    """Parse a frame body: json.loads of its UTF-8 text, only cheaper.

    A body with whitespace around its JSON value, or with anything that is
    not a lone JSON value, goes to json.loads, so exactly the same bodies
    are accepted and refused (ValueError).
    """
    text = body.decode("utf-8")
    try:  # what _DECODER.raw_decode calls, without its Python frame
        obj, end = _SCAN(text, 0)
    except (StopIteration, ValueError):
        end = -1
    if end != len(text):
        return json.loads(text)
    return obj


def _close(sock: socket.socket) -> None:
    # shut down first: on Linux, close() alone does not wake a recv()
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        sock.close()
    except OSError:
        pass


class _Conn:
    """A connection, accepted or dialed: bytes not yet framed, bytes not
    yet sent."""

    def __init__(self, sock: Optional[socket.socket],
                 address: Optional[tuple[str, int]] = None,
                 peer: Optional[ProcessId] = None):
        self.sock = sock  # None once dropped, and while a link waits to dial
        self.buf = b""  # the start of a frame not yet whole
        self.outbuf = bytearray()
        self.peer = peer  # a link's server, or an accepted one's hello
        self.address = address  # where a dialed link (re)connects
        self.redial_at = 0.0  # monotonic time of a waiting link's next dial
        self.events = EVENT_READ  # what the selector watches it for


class _Loop:
    """The process's one selector loop, over every started endpoint.

    A key's data is (endpoint, conn), conn None for a listener, or None
    for the waker. Batches of events run under lock, which all endpoints
    share, and the thread runs while some endpoint is started.
    """

    def __init__(self):
        self.lock = threading.Lock()
        self.selector = DefaultSelector()
        self.endpoints: set[_Endpoint] = set()  # started, not stopped
        # dialed links with no socket, and their endpoints
        self.waiting: dict[_Conn, _Endpoint] = {}
        # clients whose op completed in the batch being handled
        self.completed: list[Client] = []
        # the message _send framed last, and its frame dict
        self.framed: tuple[Optional[Message], Any] = (None, None)
        self.thread: Optional[threading.Thread] = None

    def wake(self) -> None:
        if self.thread is not None:
            self._waker.send(b"\0")

    def add(self, endpoint: _Endpoint) -> None:
        """Serve endpoint. Call under lock."""
        self.endpoints.add(endpoint)
        if self.thread is None:
            # a stop, a start and a drop off the loop thread end select()
            # through the waker; closing sockets does not
            self._wake, self._waker = socket.socketpair()
            self.selector.register(self._wake, EVENT_READ)
            self.thread = threading.Thread(target=self._run, daemon=True,
                                           name="ohram-loop")
            self.thread.start()
        self.wake()

    def remove(self, endpoint: _Endpoint) -> None:
        """Unregister and close every socket of endpoint. Call under lock."""
        for key in list(self.selector.get_map().values()):
            if key.data is not None and key.data[0] is endpoint:
                self.selector.unregister(key.fileobj)
                _close(key.fileobj)
        for link in endpoint.links.values():
            self.waiting.pop(link, None)
        self.endpoints.discard(endpoint)
        if not self.endpoints:
            self.wake()  # the thread exits

    def _run(self) -> None:
        timeout = None
        while True:
            ready = self.selector.select(timeout)
            with self.lock:
                for key, events in ready:
                    if key.data is None:
                        self._wake.recv(64)
                        continue
                    endpoint, conn = key.data
                    if endpoint.stopped:  # since select() returned
                        continue
                    if conn is None:
                        endpoint._accept()
                        continue
                    # a connection dropped earlier in this batch is skipped
                    if events & EVENT_READ and conn.sock is key.fileobj:
                        endpoint._read(conn)
                    if events & EVENT_WRITE and conn.sock is key.fileobj:
                        endpoint._flush(conn)
                # wake each finished op once, as the batch ends: its
                # thread could not take the lock before that anyway
                for client in self.completed:
                    client.done.notify_all()
                self.completed.clear()
                if not self.endpoints:
                    self.thread = None
                    self.selector.unregister(self._wake)
                    _close(self._wake)
                    _close(self._waker)
                    return
                timeout = self._redial() if self.waiting else None

    def _redial(self) -> Optional[float]:
        """Dial every waiting link that is due; return the seconds until
        the next one is, or None if no link waits."""
        now = time.monotonic()
        wait = None
        for link, endpoint in list(self.waiting.items()):
            if link.redial_at <= now:
                endpoint._dial(link)
            if link.sock is None:
                left = max(0.0, link.redial_at - now)
                wait = left if wait is None else min(wait, left)
        return wait


_LOOPS: list[_Loop] = []  # the process's loop, once an endpoint is made
_LOOPS_LOCK = threading.Lock()


def _shared_loop() -> _Loop:
    with _LOOPS_LOCK:
        if not _LOOPS:
            _LOOPS.append(_Loop())
        return _LOOPS[0]


class _Endpoint:
    """A live endpoint, whose sockets the shared loop serves.

    A subclass says what a message does (_handle) and, for servers, how
    a connection is accepted (_accept). An endpoint's links are the
    connections it dials; a connection dialed to it is named by its
    first hello (_hello).
    """

    def __init__(self, pid: ProcessId, config: Config):
        self.pid = pid
        # the ids a frame may name, as text; a frame naming any other is
        # skipped before an id is made, so outside input interns none
        self.names = frozenset(
            map(str, config.writers() + config.readers() + config.servers()))
        self.names_or_null = self.names | {None}  # for wid
        self.loop = _shared_loop()
        self.lock = self.loop.lock
        self.links: dict[ProcessId, _Conn] = {}  # by server
        # on servers, each connection dialed to this one, by its hello
        self.client_conns: dict[ProcessId, _Conn] = {}
        self.stopped = False

    def _start(self, servers: dict[ProcessId, tuple[str, int]]) -> None:
        """Dial every server in servers and keep the links. Call under lock."""
        for server, addr in servers.items():  # all, before any socket is made
            match addr:
                # type(port) is int, as in json_int: a bool is no port
                case tuple((str(), port)) if (
                        type(port) is int and 0 <= port <= 65535):
                    continue
            raise ValueError(f"{server}: address must be (host, port) with "
                             f"port in 0..65535, got {addr!r}")
        for server, addr in servers.items():
            link = self.links[server] = _Conn(None, addr, server)
            self._dial(link)
        self.loop.add(self)  # its wake-up sets the redial timeout

    def stop(self) -> None:
        with self.lock:
            if not self.stopped:
                self.stopped = True
                self.loop.remove(self)

    def _watch(self, conn: _Conn) -> None:
        self.loop.selector.register(conn.sock, conn.events, (self, conn))

    def _dial(self, link: _Conn) -> None:
        """Connect link without blocking, its hello first in outbuf; a
        refused dial waits REDIAL_DELAY for the next."""
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            sock.setblocking(False)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if sock.connect_ex(link.address) not in (0, errno.EINPROGRESS):
                raise ConnectionRefusedError
        except OSError:  # refused at once, or a host that does not resolve
            sock.close()
            link.redial_at = time.monotonic() + REDIAL_DELAY
            self.loop.waiting[link] = self
            return
        self.loop.waiting.pop(link, None)
        link.sock = sock
        link.buf = b""
        link.outbuf = bytearray(_pack({"type": "hello", "pid": str(self.pid)}))
        link.events = EVENT_READ | EVENT_WRITE
        self._watch(link)

    def _read(self, conn: _Conn) -> None:
        """Take what the socket has; handle every frame it completes."""
        sock = conn.sock
        try:
            data = sock.recv(RECV_SIZE)
        except BlockingIOError:
            return
        except OSError:
            data = b""
        if not data:
            return self._drop(conn)
        if conn.buf:
            data = conn.buf + data
        names, names_or_null = self.names, self.names_or_null
        size = len(data)
        start = 0
        try:  # a frame this endpoint cannot take closes its connection
            while size - start >= 4:
                (length,) = _LEN.unpack_from(data, start)
                if length > MAX_FRAME:
                    raise ValueError(f"frame of {length} bytes exceeds "
                                     f"{MAX_FRAME}")
                end = start + 4 + length
                if end > size:
                    break
                frame = _unpack(data[start + 4:end])
                start = end
                if type(frame) is list:
                    try:  # an unreadable or foreign message is skipped
                        if (frame[1] not in names or frame[3] not in names
                                or frame[5] not in names_or_null):
                            continue
                        msg = message_from_json(frame)
                    except (IndexError, TypeError, ValueError):
                        continue
                    msg.destination = self.pid  # the wire leaves it out
                    self._handle(msg)
                elif type(frame) is dict and frame.get("type") == "hello":
                    # a connection names its process once, and only one
                    # of the configuration counts
                    if frame["pid"] in names and conn.peer is None:
                        self._hello(conn, parse_pid(frame["pid"]))
                if conn.sock is not sock:
                    return  # the frame's sends cut the connection off
        except Exception:
            return self._drop(conn)
        conn.buf = data[start:] if start < size else b""

    def _hello(self, conn: _Conn, peer: ProcessId) -> None:
        """Name conn, a connection peer dialed, by peer: it replaces the
        one peer dialed before, if any."""
        old = self.client_conns.get(peer)
        if old is not None:
            self._drop(old)
        conn.peer = peer
        self.client_conns[peer] = conn

    def _emit(self, outs: list[Message]) -> list[Message]:
        """Send a step's outputs in order, each over its destination's
        link or client connection, lost if there is none; return those
        addressed to this endpoint."""
        own = []
        for out in outs:
            dest = out.destination
            if dest is self.pid:
                own.append(out)
            elif dest in self.links:
                self._send(self.links[dest], out)
            elif dest in self.client_conns:
                self._send(self.client_conns[dest], out)
        return own

    def _send(self, conn: _Conn, msg: Message) -> None:
        """Frame msg onto conn and write what the kernel takes now; with
        no connection, msg is lost, and a rest that takes outbuf past
        MAX_BACKLOG drops conn."""
        sock = conn.sock
        if sock is None or self.stopped:
            return
        # a copy of the message framed last (the same objects in every
        # field the wire carries) shares its dict, and so its frame
        last, obj = self.loop.framed
        if (last is None or msg.op is not last.op
                or msg.sender is not last.sender or msg.kind is not last.kind
                or msg.tag is not last.tag or msg.value is not last.value):
            obj = {"type": "msg", "msg": message_to_json(msg)}
            self.loop.framed = (msg, obj)
        frame = _pack(obj)
        if not conn.outbuf:  # else it queues behind the bytes that wait
            try:
                sent = sock.send(frame)
            except BlockingIOError:
                sent = 0
            except OSError:
                return self._drop(conn)
            if sent == len(frame):
                return
            frame = frame[sent:]
        conn.outbuf += frame  # waits for the socket to drain
        if len(conn.outbuf) > MAX_BACKLOG:  # the peer stopped reading
            return self._drop(conn)
        self._want(conn)

    def _flush(self, conn: _Conn) -> None:
        """Send what the kernel takes of outbuf."""
        try:
            del conn.outbuf[:conn.sock.send(conn.outbuf)]
        except BlockingIOError:
            pass
        except OSError:
            return self._drop(conn)
        self._want(conn)

    def _want(self, conn: _Conn) -> None:
        """Have the selector watch for EVENT_WRITE while bytes wait."""
        events = EVENT_READ | (EVENT_WRITE if conn.outbuf else 0)
        if events != conn.events:
            self.loop.selector.modify(conn.sock, events, (self, conn))
            conn.events = events

    def _drop(self, conn: _Conn) -> None:
        sock, conn.sock = conn.sock, None
        if sock is None:
            return  # dropped already
        self.loop.selector.unregister(sock)
        _close(sock)
        conn.outbuf.clear()  # lost with the connection
        if self.client_conns.get(conn.peer) is conn:
            del self.client_conns[conn.peer]
        if conn.address is not None:
            conn.redial_at = time.monotonic() + REDIAL_DELAY
            self.loop.waiting[conn] = self
            self.loop.wake()  # the loop's select() timeout is stale


class ServerDaemon(_Endpoint):
    """One protocol server behind a listening TCP socket."""

    def __init__(self, pid: ProcessId, config: Config, protocol: str, *,
                 host: Optional[str] = None, port: int = 0):
        bundle = checked_bundle(protocol, config, live=True)
        if pid not in config.servers():
            raise ModeMismatch(f"{pid} is not a server of {config.n_servers}")
        self.machine = bundle.make_server(pid, config)
        self.listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        host = host or "127.0.0.1"
        try:
            self.listener.bind((host, port))
        except (OSError, OverflowError) as e:  # Overflow: port not in 0..65535
            self.listener.close()
            raise BindFailure(f"{pid}: cannot bind {host}:{port}: {e}")
        self.listener.listen(64)
        self.listener.setblocking(False)
        self.address = self.listener.getsockname()
        self.port = self.address[1]
        super().__init__(pid, config)

    def start(self, membership: dict[ProcessId, tuple[str, int]]) -> None:
        """membership maps every server pid to its (host, port).

        One connection per server pair: this daemon dials the peers that
        precede it, and keeps the connection a later peer dials as an
        inbound one, named by that peer's hello, as a client's is. It
        dials only servers: a client's replies go back on the connection
        the client dialed, whatever else membership names.
        """
        with self.lock:
            self._start({peer: addr for peer, addr in membership.items()
                         if peer.role == ROLE_SERVER and peer < self.pid})
            self.loop.selector.register(self.listener, EVENT_READ, (self, None))

    def stop(self) -> None:
        super().stop()
        self.listener.close()  # closed already, unless never started

    # kill == stop; the machine state is simply abandoned
    kill = stop

    def _accept(self) -> None:
        try:
            sock, _ = self.listener.accept()
        except OSError:  # the dialer is gone already
            return
        sock.setblocking(False)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._watch(_Conn(sock))

    def _handle(self, msg: Message) -> None:
        if self.stopped:
            return
        # a relay to itself goes straight back in, after the copies to
        # others have gone out back to back
        for own in self._emit(self.machine.on_message(msg)):
            self._handle(own)


class Client(_Endpoint):
    """Synchronous reader/writer endpoint over the live network. An op
    that gives up with "no quorum" stays open in the machine, whose
    rebroadcast() still returns its phase: the next op raises
    NotWellFormed."""

    def __init__(self, pid: ProcessId, config: Config, protocol: str,
                 membership: dict[ProcessId, tuple[str, int]], *,
                 retry_interval: float = 0.05, retry_budget: int = 100):
        bundle = checked_bundle(protocol, config, live=True)
        if pid in config.writers():
            self.machine = bundle.make_writer(pid, config)
        elif pid in config.readers():
            self.machine = bundle.make_reader(pid, config)
        else:
            clients = ", ".join(map(str, config.writers() + config.readers()))
            raise ModeMismatch(
                f"{pid} is not a client of the configuration: {clients}")
        check_membership(pid, config, membership)
        if not retry_interval > 0:  # a NaN too
            raise ValueError(
                f"{pid}: retry_interval must be > 0, got {retry_interval!r}")
        if retry_interval > threading.TIMEOUT_MAX:  # a lock waits no longer
            raise ValueError(
                f"{pid}: retry_interval must be <= threading.TIMEOUT_MAX "
                f"({threading.TIMEOUT_MAX}), got {retry_interval!r}")
        if retry_budget < 0:
            raise ValueError(
                f"{pid}: retry_budget must be >= 0, got {retry_budget!r}")
        super().__init__(pid, config)
        self.retry_interval = retry_interval
        self.retry_budget = retry_budget
        self.done = threading.Condition(self.lock)
        self.history: list[OpRecord] = []
        with self.lock:
            self._start({s: membership[s] for s in config.servers()})

    def close(self) -> None:
        """Stop; an op waiting for its quorum raises QuorumUnreachable."""
        self.stop()
        with self.done:
            self.done.notify_all()

    def _handle(self, msg: Message) -> None:
        outs, rec = self.machine.on_message(msg)
        self._emit(outs)
        if rec is not None:
            self.loop.completed.append(self)

    def _run_op(self, kind: str, invoke) -> OpRecord:
        with self.done:
            if self.stopped:  # before invoke: a closed op may still be open
                raise QuorumUnreachable(f"{self.pid}: closed")
            t0 = time.monotonic_ns()
            self._emit(invoke())
            retries = 0
            while self.machine.busy:
                if self.stopped:
                    raise QuorumUnreachable(
                        f"{self.pid}: closed with its {kind} open")
                if not self.done.wait(timeout=self.retry_interval):
                    retries += 1
                    if retries > self.retry_budget:
                        raise QuorumUnreachable(
                            f"{self.pid}: no quorum after {retries - 1} "
                            f"rebroadcasts")
                    self._emit(self.machine.rebroadcast())
            rec = self.machine.record
            rec.invoked, rec.responded = t0, time.monotonic_ns()
            self.history.append(rec)
            return rec

    def write(self, label: str) -> OpRecord:
        """Write label; a label whose JSON text would not leave room for
        the rest of its frame raises ValueError before the op starts."""
        size = len(_quote(label))
        if size > MAX_FRAME - LABEL_ALLOWANCE:
            raise ValueError(
                f"{self.pid}: a label's JSON text takes at most "
                f"{MAX_FRAME - LABEL_ALLOWANCE} bytes, got {size}")
        return self._run_op("write", lambda: self.machine.invoke_write(label))

    def read(self) -> OpRecord:
        return self._run_op("read", lambda: self.machine.invoke_read())


def merge_histories(*histories: list[OpRecord]) -> list[OpRecord]:
    """Merge per-client histories recorded on one monotonic clock."""
    merged = [r for h in histories for r in h]
    merged.sort(key=lambda r: r.invoked)
    return merged


def check_membership(pid: ProcessId, config: Config,
                     membership: dict[ProcessId, tuple[str, int]]) -> None:
    """Raise ValueError unless membership names every server of config
    but pid, and nothing else: the error names each server left out, or
    else each entry that names anything but a server of config."""
    servers = config.servers()
    missing = [str(s) for s in servers if s != pid and s not in membership]
    if missing:
        raise ValueError(f"{pid}: the membership names no address for "
                         f"{', '.join(missing)}")
    others = [str(p) for p in membership if p not in servers]
    if others:
        raise ValueError(f"{pid}: the membership names what is no server of "
                         f"the configuration: {', '.join(others)}")


def membership_from_json(obj: dict) -> dict[ProcessId, tuple[str, int]]:
    """{"s1": "127.0.0.1:7001", ...} -> {ProcessId: (host, port)}; raises
    ValueError on anything else, a port outside 0..65535 included."""
    if not isinstance(obj, dict):
        raise ValueError(f"a membership is an object of pid: \"host:port\", "
                         f"got {obj!r}")
    out = {}
    for key, text in obj.items():
        addr = parse_address(key, text)
        out[parse_pid(key)] = addr
    return out


def parse_address(key: str, text) -> tuple[str, int]:
    """"127.0.0.1:7001" -> ("127.0.0.1", 7001); raises ValueError naming
    key on anything else, a port outside 0..65535 included."""
    if not isinstance(text, str):
        raise ValueError(f"{key}: address must be \"host:port\", got {text!r}")
    host, _, port_text = text.rpartition(":")
    # ASCII digits only, where int() would also take "7_001", " 7001",
    # "+7001" and other scripts' digits; a minus sign is out of range
    digits = port_text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"{key}: port is not a decimal number in {text!r}")
    if (digits != port_text or len(digits.lstrip("0")) > 5
            or int(digits) > 65535):
        raise ValueError(f"{key}: port outside 0..65535 in {text!r}")
    return host, int(digits)
