"""Live TCP runner: the same state machines over real sockets.

Framing: every frame is a 4-byte big-endian length prefix followed by
that many bytes of UTF-8 JSON, at most 1 MiB. Two frame types are
understood; unknown types and unknown fields are ignored so endpoints of
different versions can coexist:

  {"type": "hello", "pid": "r1"}   identifies the dialing process
  {"type": "msg",  "msg": {...}}   carries one protocol message

The JSON is what json.dumps(obj, separators=(",", ":")) writes, from one
shared encoder, and a body is accepted exactly when json.loads accepts
it, through one shared decoder. One framer cuts every incoming stream
into frames, whatever the reads' sizes.

Topology: clients dial every server and keep the connection; a server's
replies to a client travel back over the client's own connection.
Servers dial each other for relay traffic (each direction has its own
connection). Every endpoint, server daemon or client, is one selector
loop that owns all of its sockets, accepted and dialed, and handles
each batch of events under the endpoint's lock: it accepts, reads, runs
the machine and sends. A client's operation thread invokes and
(re)broadcasts under the same lock. Links set TCP_NODELAY, because
frames are small and go out one at a time.

Sends never block. A message is framed onto its connection's outbuf and
written at once as far as the kernel takes it; the loop writes the rest
when the socket is writable. unsent lists the messages behind outbuf
until outbuf empties. A client whose unsent replies pass MAX_BACKLOG is
cut off and redials. A reply for a client with no connection (no hello
yet, or dropped with the reply unsent) is held, for the client's newest
op only, and sent once the hello comes in. A dialed link's unsent is
unbounded while its server is down.

Redial and at-least-once delivery: a dialed link connects without
blocking. A refused connection, or a link whose stream ends, breaks or
stops being frames, redials REDIAL_DELAY seconds later, and the new
connection's outbuf is the hello followed by every message in unsent,
each from its first byte. The protocol machines are idempotent against
the resulting duplicates: a repeated writeRequest is re-acknowledged, a
repeated readRequest does not relay twice, and relay bookkeeping is
set-based, so retries are safe. A frame that breaks the machine closes
only its own connection.

Clients stamp invocation and response times with time.monotonic_ns().
Histories from clients of one host therefore share a scale and can be
merged for checking with merge_histories. A client that cannot assemble
a quorum re-broadcasts its current phase every retry_interval seconds
and gives up with QuorumUnreachable after retry_budget rebroadcasts.

The deliberately unsound demonstration protocol is refused here; it
exists for scripted simulation only.
"""

from __future__ import annotations

import errno
import json
import os
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
    message_from_json,
    message_to_json,
    parse_pid,
    validate_config,
)
from .protocols import get_protocol

MAX_FRAME = 1 << 20
MAX_BACKLOG = 8 * MAX_FRAME  # unsent reply bytes that cut a client off
RECV_SIZE = 1 << 16  # one read: every frame a wake-up finds
REDIAL_DELAY = 0.02  # seconds from a refused or dropped link to its redial
_LEN = struct.Struct(">I")
# one of each for every frame: json.dumps(obj, separators=...) builds a
# new encoder per call, and json.loads checks and strips its argument
_ENCODER = json.JSONEncoder(separators=(",", ":"), check_circular=False)
_DECODER = json.JSONDecoder()


def _pack(obj: dict) -> bytes:
    data = _ENCODER.encode(obj).encode("utf-8")
    if len(data) > MAX_FRAME:
        raise ValueError(f"frame of {len(data)} bytes exceeds {MAX_FRAME}")
    return _LEN.pack(len(data)) + data


def _unpack(body) -> Any:
    """Parse a frame body: json.loads of its UTF-8 text, only cheaper.

    A body with whitespace around its JSON value, or with anything that is
    not a lone JSON value, goes to json.loads, so exactly the same bodies
    are accepted and refused (ValueError).
    """
    text = body.decode("utf-8")
    try:
        obj, end = _DECODER.raw_decode(text)
    except ValueError:
        end = -1
    if end != len(text):
        return json.loads(text)
    return obj


class _Framer:
    """Cuts a byte stream into frame bodies, however the reads split it."""

    __slots__ = ("buf",)

    def __init__(self):
        self.buf = bytearray()  # the start of a frame not yet whole

    def feed(self, data):
        """Yield each frame body that data completes; keep the rest.

        Raises ValueError at a header that claims more than MAX_FRAME.
        """
        buf = self.buf
        buf += data
        while len(buf) >= _LEN.size:
            (length,) = _LEN.unpack_from(buf)
            if length > MAX_FRAME:
                raise ValueError(f"frame of {length} bytes exceeds {MAX_FRAME}")
            end = _LEN.size + length
            if len(buf) < end:
                return
            body = buf[_LEN.size:end]
            del buf[:end]
            yield body


def read_frames(sock: socket.socket):
    """Yield decoded frames from a blocking socket until the peer closes
    or sends garbage.

    Bytes past the last frame taken go with the generator, so a socket
    is read through one generator only.
    """
    framer = _Framer()
    while True:
        try:
            data = sock.recv(RECV_SIZE)
        except OSError:
            return
        if not data:
            return
        try:
            for body in framer.feed(data):
                yield _unpack(body)
        except ValueError:  # an oversized header, bad UTF-8 or bad JSON
            return


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


def listen_host(explicit: Optional[str] = None) -> str:
    # OHRAM_LISTEN overrides everything, for multi-homed test hosts
    return os.environ.get("OHRAM_LISTEN") or explicit or "127.0.0.1"


class _Conn:
    """A connection, accepted or dialed: bytes not yet framed, messages
    not yet sent."""

    def __init__(self, sock: Optional[socket.socket],
                 address: Optional[tuple[str, int]] = None):
        self.sock = sock  # None once dropped, and while a link waits to dial
        self.framer = _Framer()
        self.outbuf = bytearray()
        self.unsent: list[Message] = []  # the messages behind outbuf
        self.peer: Optional[ProcessId] = None  # set by an accepted one's hello
        self.address = address  # where a dialed link (re)connects
        self.redial_at = 0.0  # monotonic time of a waiting link's next dial
        self.events = EVENT_READ  # what the selector watches it for


class _Endpoint:
    """One selector loop that owns every socket of a live endpoint.

    The loop handles each batch of events under self.lock; any other
    thread that sends holds the same lock. A subclass says what a
    message does (_handle) and, for servers, how a connection is
    accepted (_accept) and what a hello does (_hello).
    """

    def __init__(self, pid: ProcessId):
        self.pid = pid
        self.lock = threading.Lock()
        self.links: dict[ProcessId, _Conn] = {}  # dialed, by server
        self.selector = DefaultSelector()
        # stop() and a drop off the loop thread end select() through the
        # waker; closing sockets does not
        self._wake, self._waker = socket.socketpair()
        self.selector.register(self._wake, EVENT_READ)
        self.stopped = False
        self._thread: Optional[threading.Thread] = None

    def _start(self, servers: dict[ProcessId, tuple[str, int]]) -> None:
        for server, addr in servers.items():
            self.links[server] = _Conn(None, addr)
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def stop(self) -> None:
        with self.lock:
            if self.stopped:
                return
            self.stopped = True
            self._waker.send(b"\0")
        if self._thread is not None:
            self._thread.join()
        for key in list(self.selector.get_map().values()):
            _close(key.fileobj)
        self.selector.close()
        _close(self._waker)

    def _loop(self) -> None:
        timeout = 0.0  # the links dial at once
        while not self.stopped:
            ready = self.selector.select(timeout)
            with self.lock:
                for key, events in ready:
                    conn = key.data
                    if conn is None:
                        if key.fileobj is self._wake:
                            self._wake.recv(64)
                        else:
                            self._accept()
                        continue
                    # a connection dropped earlier in this batch is skipped
                    if events & EVENT_READ and conn.sock is key.fileobj:
                        self._read(conn)
                    if events & EVENT_WRITE and conn.sock is key.fileobj:
                        self._flush(conn)
                timeout = self._redial()

    def _redial(self) -> Optional[float]:
        """Dial every waiting link that is due; return the seconds until
        the next one is, or None if no link waits."""
        now = time.monotonic()
        wait = None
        for link in self.links.values():
            if link.sock is None and link.redial_at <= now:
                self._dial(link)
            if link.sock is None:
                left = max(0.0, link.redial_at - now)
                wait = left if wait is None else min(wait, left)
        return wait

    def _dial(self, link: _Conn) -> None:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            sock.setblocking(False)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if sock.connect_ex(link.address) not in (0, errno.EINPROGRESS):
                raise ConnectionRefusedError
        except OSError:  # refused at once, or a host that does not resolve
            sock.close()
            link.redial_at = time.monotonic() + REDIAL_DELAY
            return
        link.sock = sock
        link.framer = _Framer()
        link.outbuf = bytearray(_pack({"type": "hello", "pid": str(self.pid)}))
        for msg in link.unsent:  # at-least-once: each from its first byte
            link.outbuf += _pack({"type": "msg", "msg": message_to_json(msg)})
        link.events = EVENT_READ | EVENT_WRITE
        self.selector.register(sock, link.events, link)

    def _read(self, conn: _Conn) -> None:
        sock = conn.sock
        try:
            data = sock.recv(RECV_SIZE)
        except BlockingIOError:
            return
        except OSError:
            data = b""
        if not data:
            return self._drop(conn)
        try:  # a frame this endpoint cannot take closes its connection
            for body in conn.framer.feed(data):
                self._frame(conn, _unpack(body))
                if conn.sock is not sock:
                    return  # the frame's sends cut the connection off
        except Exception:
            self._drop(conn)

    def _frame(self, conn: _Conn, frame) -> None:
        ftype = frame.get("type") if isinstance(frame, dict) else None
        if ftype == "hello":
            self._hello(conn, parse_pid(frame["pid"]))
        elif ftype == "msg":
            try:
                msg = message_from_json(frame["msg"])
            except (AttributeError, LookupError, TypeError, ValueError):
                return  # an unreadable message is skipped
            self._handle(msg)

    def _hello(self, conn: _Conn, peer: ProcessId) -> None:
        pass  # only servers are dialed

    def _send(self, conn: _Conn, msg: Message) -> None:
        """Frame msg onto conn and write what the kernel takes now."""
        if self.stopped:
            return
        conn.unsent.append(msg)
        if conn.sock is not None:  # else the link's next dial frames it
            conn.outbuf += _pack({"type": "msg", "msg": message_to_json(msg)})
            self._flush(conn)

    def _flush(self, conn: _Conn) -> None:
        """Send what the kernel takes; ask for EVENT_WRITE while bytes wait."""
        try:
            del conn.outbuf[:conn.sock.send(conn.outbuf)]
        except BlockingIOError:
            pass
        except OSError:
            return self._drop(conn)
        if not conn.outbuf:
            conn.unsent.clear()
        events = EVENT_READ | (EVENT_WRITE if conn.outbuf else 0)
        if events != conn.events:
            self.selector.modify(conn.sock, events, conn)
            conn.events = events

    def _drop(self, conn: _Conn) -> None:
        sock, conn.sock = conn.sock, None
        if sock is None:
            return  # dropped already
        self.selector.unregister(sock)
        _close(sock)
        if conn.address is not None:  # a link keeps unsent for its redial
            conn.outbuf.clear()
            conn.redial_at = time.monotonic() + REDIAL_DELAY
            self._waker.send(b"\0")  # the loop's select() timeout is stale


class ServerDaemon(_Endpoint):
    """One protocol server behind a listening TCP socket, on one loop."""

    def __init__(self, pid: ProcessId, config: Config, protocol: str, *,
                 host: Optional[str] = None, port: int = 0):
        validate_config(config)
        bundle = get_protocol(protocol)
        if not bundle.runner_ok:
            raise ModeMismatch(
                f"protocol {protocol} is not allowed in the live runner")
        self.config = config
        self.machine = bundle.make_server(pid, config)
        self.listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        host = listen_host(host)
        try:
            self.listener.bind((host, port))
        except OSError as e:
            self.listener.close()
            raise BindFailure(f"{pid}: cannot bind {host}:{port}: {e}")
        self.listener.listen(64)
        self.listener.setblocking(False)
        self.address = self.listener.getsockname()
        self.port = self.address[1]
        super().__init__(pid)
        self.selector.register(self.listener, EVENT_READ)
        self.client_conns: dict[ProcessId, _Conn] = {}  # by latest hello
        # replies to a client with no connection, for its newest op only;
        # ohsam acks each read once, so a lost reply would never return
        self.held_replies: dict[ProcessId, list[Message]] = {}

    def start(self, membership: dict[ProcessId, tuple[str, int]]) -> None:
        """membership maps every server pid to its (host, port)."""
        self._start({peer: addr for peer, addr in membership.items()
                     if peer != self.pid})

    # kill == stop; the machine state is simply abandoned
    kill = _Endpoint.stop

    def _accept(self) -> None:
        try:
            sock, _ = self.listener.accept()
        except OSError:  # the dialer is gone already
            return
        sock.setblocking(False)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.selector.register(sock, EVENT_READ, _Conn(sock))

    def _hello(self, conn: _Conn, peer: ProcessId) -> None:
        conn.peer = peer
        self.client_conns[peer] = conn
        for msg in self.held_replies.pop(peer, []):
            self._reply(conn, msg)

    def _drop(self, conn: _Conn) -> None:
        if conn.sock is None:
            return  # dropped already
        super()._drop(conn)
        if conn.address is None:
            if self.client_conns.get(conn.peer) is conn:
                del self.client_conns[conn.peer]
            # to the client's newer connection, or held
            for msg in conn.unsent:
                self._route(msg)

    def _handle(self, msg: Message) -> None:
        if self.stopped:
            return
        for out in self.machine.on_message(msg):
            self._route(out)

    def _route(self, msg: Message) -> None:
        dest = msg.destination
        if dest == self.pid:  # a self-addressed relay goes straight back in
            self._handle(msg)
        elif dest in self.links:
            self._send(self.links[dest], msg)
        elif dest in self.client_conns:
            self._reply(self.client_conns[dest], msg)
        else:
            self._hold(msg)

    def _hold(self, msg: Message) -> None:
        # a newer op of a well-formed client retires the older op's replies
        held = self.held_replies.setdefault(msg.destination, [])
        if held and held[0].op.seq < msg.op.seq:
            held.clear()
        if not held or held[0].op.seq == msg.op.seq:
            held.append(msg)

    def _reply(self, conn: _Conn, msg: Message) -> None:
        self._send(conn, msg)
        if len(conn.outbuf) > MAX_BACKLOG:
            self._drop(conn)


class Client(_Endpoint):
    """Synchronous reader/writer endpoint over the live network."""

    def __init__(self, pid: ProcessId, config: Config, protocol: str,
                 membership: dict[ProcessId, tuple[str, int]], *,
                 retry_interval: float = 0.05, retry_budget: int = 100):
        validate_config(config)
        bundle = get_protocol(protocol)
        if not bundle.runner_ok:
            raise ModeMismatch(
                f"protocol {protocol} is not allowed in the live runner")
        super().__init__(pid)
        self.config = config
        self.retry_interval = retry_interval
        self.retry_budget = retry_budget
        if pid in config.writers():
            self.machine = bundle.make_writer(pid, config)
        else:
            self.machine = bundle.make_reader(pid, config)
        self.bundle = bundle
        self.done = threading.Condition(self.lock)
        self._completion = None
        self._current: list[Message] = []
        self.history: list[OpRecord] = []
        self._start({s: membership[s] for s in config.servers()})

    close = _Endpoint.stop

    def _broadcast(self, msgs: list[Message]) -> None:
        for m in msgs:
            link = self.links.get(m.destination)
            if link is not None:
                self._send(link, m)

    def _handle(self, msg: Message) -> None:
        outs, completion = self.machine.on_message(msg)
        if outs:
            self._current = outs
            self._broadcast(outs)
        if completion is not None:
            self._completion = completion
            self.done.notify_all()

    def _run_op(self, kind: str, invoke) -> OpRecord:
        with self.done:
            t0 = time.monotonic_ns()
            msgs = invoke()
            value = self.machine.value if kind == "write" else None
            self._completion = None
            self._current = msgs
            self._broadcast(msgs)
            retries = 0
            while self._completion is None:
                if not self.done.wait(timeout=self.retry_interval):
                    retries += 1
                    if retries > self.retry_budget:
                        raise QuorumUnreachable(
                            f"{self.pid}: no quorum after {retries - 1} "
                            f"rebroadcasts")
                    self._broadcast(self._current)
            completion = self._completion
            t1 = time.monotonic_ns()
            rec = OpRecord(op=completion.op, kind=kind, invoker=self.pid,
                           invoked=t0, responded=t1,
                           tag=completion.tag,
                           value=completion.value if kind == "read" else value)
            self.history.append(rec)
            return rec

    def write(self, label: str) -> OpRecord:
        return self._run_op("write", lambda: self.machine.invoke_write(label))

    def read(self) -> OpRecord:
        return self._run_op("read", lambda: self.machine.invoke_read())


def merge_histories(*histories: list[OpRecord]) -> list[OpRecord]:
    """Merge per-client histories recorded on one monotonic clock."""
    merged = [r for h in histories for r in h]
    merged.sort(key=lambda r: r.invoked)
    return merged


def membership_from_json(obj: dict) -> dict[ProcessId, tuple[str, int]]:
    """{"s1": "127.0.0.1:7001", ...} -> {ProcessId: (host, port)}"""
    out = {}
    for key, addr in obj.items():
        host, _, port = addr.rpartition(":")
        out[parse_pid(key)] = (host, int(port))
    return out
