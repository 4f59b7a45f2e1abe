"""Live TCP runner: the same state machines over real sockets.

Framing: every frame is a 4-byte big-endian length prefix followed by
that many bytes of UTF-8 JSON, at most 1 MiB. Two frame types are
understood; unknown types and unknown fields are ignored so endpoints of
different versions can coexist:

  {"type": "hello", "pid": "r1"}   identifies the dialing process
  {"type": "msg",  "msg": {...}}   carries one protocol message

The JSON is what json.dumps(obj, separators=(",", ":")) writes: a msg
frame of exactly message_to_json's shape is formatted directly, any
other frame comes from one shared encoder. A body is accepted exactly
when json.loads accepts it, through one shared decoder. Each read is cut
into frames where it is taken, whatever the reads' sizes, and a msg
frame goes straight to message_from_json and the endpoint's machine.

Topology: clients dial every server and keep the connection; a server's
replies to a client travel back over the client's own connection. Each
pair of servers shares one connection, so relays in both directions
travel on it and each side's frames carry the other's TCP ACKs. A server
dials the peers that precede it; a later peer's link has no address and
takes the connection that peer dials, when the peer's hello arrives. A
hello from a server this daemon dials itself, or from one outside its
membership, leaves that connection inbound only, as a client's is; so a
daemon that dials every peer still works with one that does not. Only a
connection's first hello counts.

The process has one selector loop, made by the first endpoint and run
while any endpoint is started. It owns every socket of every server
daemon and client, accepted and dialed, and handles each batch of events
under the one lock all endpoints share: it accepts, reads, runs the
machines and sends. A client's operation thread invokes and
(re)broadcasts under the same lock, and the loop wakes it once, at the
end of the batch in which its op completed. Links set TCP_NODELAY, because
frames are small and go out one at a time.

Sends never block. A message is framed and written at once as far as
the kernel takes it; only a rest the kernel refuses goes to the
connection's outbuf, and any later frame queues behind it, until the
loop has written it when the socket is writable. Any connection whose
outbuf passes MAX_BACKLOG bytes is dropped, since its peer stopped
reading: a dialed link redials, and a connection the peer dialed waits
for the peer to redial.

Links lose messages, and the client's rebroadcast retries every loss.
A message sent on a link or to a client with no connection is lost, and
so is every frame still in outbuf when its connection drops. A dialed
link dials as it is made, its hello first in outbuf, so the first
messages queue behind the hello. A refused connection, or a link whose
stream ends, breaks or stops being frames, redials REDIAL_DELAY seconds
later; the loop looks for links to redial only while some dialed link
waits. A link with no address is never redialed: it takes the next
connection its peer's hello brings. No reply is sent only once: every
sound server answers every copy of a request, so a repeated
writeRequest or discover is acknowledged again, and a repeated
readRequest for the reader's newest read relays again and, once the
server has answered that read, brings its readAck again. A frame that
breaks the machine closes only its own connection.

Clients stamp invocation and response times with time.monotonic_ns().
Histories from clients of one host therefore share a scale and can be
merged for checking with merge_histories. A client that cannot assemble
a quorum re-broadcasts its current phase every retry_interval seconds,
which retries whatever the phase lost on the way, and gives up with
QuorumUnreachable after retry_budget rebroadcasts, or at once when the
client is closed; an op on a closed client raises it before it starts.

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
)
from .protocols import checked_bundle

MAX_FRAME = 1 << 20
MAX_BACKLOG = 8 * MAX_FRAME  # bytes in a connection's outbuf that drop it
RECV_SIZE = 1 << 16  # one read: every frame a wake-up finds
REDIAL_DELAY = 0.02  # seconds from a refused or dropped link to its redial
_LEN = struct.Struct(">I")
# one of each for every frame: json.dumps(obj, separators=...) builds a
# new encoder per call, and json.loads checks and strips its argument
_ENCODER = json.JSONEncoder(separators=(",", ":"), check_circular=False)
_DECODER = json.JSONDecoder()
_SCAN = _DECODER.scan_once
_quote = json.encoder.encode_basestring_ascii  # _ENCODER's string writer
_MSG_KEYS = ["kind", "op", "sender", "destination", "tag", "value",
             "relay_origin"]
_MSG_FRAME = ('{"type":"msg","msg":{"kind":%s,"op":{"invoker":%s,"seq":%d},'
              '"sender":%s,"destination":%s,"tag":%s,"value":%s,'
              '"relay_origin":%s}}')


def _msg_json(obj) -> Optional[str]:
    """What _ENCODER writes for a msg frame of exactly message_to_json's
    shape (keys in its order, str texts, int numbers, str or null
    value), in one format; None for any other object."""
    try:  # every key list is checked before its keys are looked up
        if list(obj) != ["type", "msg"] or obj["type"] != "msg":
            return None
        m = obj["msg"]
        if list(m) != _MSG_KEYS:
            return None
        op, tag, value, origin = m["op"], m["tag"], m["value"], m["relay_origin"]
        if list(op) != ["invoker", "seq"] or type(op["seq"]) is not int:
            return None
        if tag is not None:
            if list(tag) != ["ts", "wid"] or type(tag["ts"]) is not int:
                return None
            tag = '{"ts":%d,"wid":%s}' % (tag["ts"], _quote(tag["wid"]))
        return _MSG_FRAME % (
            _quote(m["kind"]), _quote(op["invoker"]), op["seq"],
            _quote(m["sender"]), _quote(m["destination"]),
            "null" if tag is None else tag,
            "null" if value is None else _quote(value),
            "null" if origin is None else _quote(origin))
    except TypeError:  # not a dict, or a text that is no str
        return None


def _pack(obj: dict) -> bytes:
    data = (_msg_json(obj) or _ENCODER.encode(obj)).encode("utf-8")
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


def listen_host(explicit: Optional[str] = None) -> str:
    # OHRAM_LISTEN overrides everything, for multi-homed test hosts
    return os.environ.get("OHRAM_LISTEN") or explicit or "127.0.0.1"


class _Conn:
    """A connection, accepted or dialed: bytes not yet framed, bytes not
    yet sent."""

    def __init__(self, sock: Optional[socket.socket],
                 address: Optional[tuple[str, int]] = None,
                 peer: Optional[ProcessId] = None):
        # None once dropped, while a link waits to dial, and while a link
        # its peer dials waits for that peer's hello
        self.sock = sock
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
    a connection is accepted (_accept) and what a hello does (_hello).
    """

    def __init__(self, pid: ProcessId):
        self.pid = pid
        self.loop = _shared_loop()
        self.lock = self.loop.lock
        self.links: dict[ProcessId, _Conn] = {}  # by server
        self.stopped = False

    def _start(self, servers: dict[ProcessId, tuple[str, int]]) -> None:
        """Dial every server in servers and keep the links. Call under lock."""
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
                if type(frame) is dict and frame.get("type") == "msg":
                    try:
                        msg = message_from_json(frame["msg"])
                    except (AttributeError, LookupError, TypeError,
                            ValueError):
                        continue  # an unreadable message is skipped
                    self._handle(msg)
                else:
                    conn = self._frame(conn, frame)
                if conn.sock is not sock:
                    return  # the frame's sends cut the connection off
        except Exception:
            return self._drop(conn)
        conn.buf = data[start:] if start < size else b""

    def _frame(self, conn: _Conn, frame) -> _Conn:
        """Take a frame that is no msg; return the conn that owns conn's
        socket after it (a server's hello may hand it to a link)."""
        if type(frame) is dict and frame.get("type") == "hello":
            return self._hello(conn, parse_pid(frame["pid"]))
        return conn

    def _hello(self, conn: _Conn, peer: ProcessId) -> _Conn:
        return conn  # only servers are dialed

    def _send(self, conn: _Conn, msg: Message) -> None:
        """Frame msg onto conn and write what the kernel takes now; with
        no connection, msg is lost, and a rest that takes outbuf past
        MAX_BACKLOG drops conn."""
        sock = conn.sock
        if sock is None or self.stopped:
            return
        frame = _pack({"type": "msg", "msg": message_to_json(msg)})
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
        self.client_conns: dict[ProcessId, _Conn] = {}  # by latest hello

    def start(self, membership: dict[ProcessId, tuple[str, int]]) -> None:
        """membership maps every server pid to its (host, port).

        One connection per server pair: this daemon dials the peers that
        precede it, and a later peer's link takes that peer's connection
        when its hello comes in.
        """
        with self.lock:
            self.loop.selector.register(self.listener, EVENT_READ, (self, None))
            for peer in membership:
                if self.pid < peer:
                    self.links[peer] = _Conn(None, None, peer)
            self._start({peer: addr for peer, addr in membership.items()
                         if peer < self.pid})

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

    def _hello(self, conn: _Conn, peer: ProcessId) -> _Conn:
        if conn.peer is not None:
            return conn  # a connection names its peer once
        link = self.links.get(peer)
        if link is not None and link.address is None:
            return self._adopt(conn, link)
        # a client, a server this daemon dials, or one outside its
        # membership: inbound only
        conn.peer = peer
        self.client_conns[peer] = conn
        return conn

    def _adopt(self, conn: _Conn, link: _Conn) -> _Conn:
        """Make conn's socket link's."""
        self._drop(link)  # the peer's older connection, if any
        link.sock, conn.sock = conn.sock, None
        link.buf = b""
        self.loop.selector.modify(link.sock, EVENT_READ, (self, link))
        link.events = EVENT_READ
        return link

    def _drop(self, conn: _Conn) -> None:
        super()._drop(conn)
        if self.client_conns.get(conn.peer) is conn:
            del self.client_conns[conn.peer]

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
            self._send(self.client_conns[dest], msg)
        # else lost: the client has no connection to this daemon


class Client(_Endpoint):
    """Synchronous reader/writer endpoint over the live network."""

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
        super().__init__(pid)
        self.retry_interval = retry_interval
        self.retry_budget = retry_budget
        self.done = threading.Condition(self.lock)
        self._completion = None
        self._current: list[Message] = []
        self.history: list[OpRecord] = []
        with self.lock:
            self._start({s: membership[s] for s in config.servers()})

    def close(self) -> None:
        """Stop; an op waiting for its quorum raises QuorumUnreachable."""
        self.stop()
        with self.done:
            self.done.notify_all()

    def _broadcast(self, msgs: list[Message]) -> None:
        links = self.links
        for m in msgs:
            self._send(links[m.destination], m)

    def _handle(self, msg: Message) -> None:
        outs, completion = self.machine.on_message(msg)
        if outs:
            self._current = outs
            self._broadcast(outs)
        if completion is not None:
            self._completion = completion
            self.loop.completed.append(self)

    def _run_op(self, kind: str, invoke) -> OpRecord:
        with self.done:
            if self.stopped:  # before invoke: a closed op may still be open
                raise QuorumUnreachable(f"{self.pid}: closed")
            t0 = time.monotonic_ns()
            msgs = invoke()
            value = self.machine.value if kind == "write" else None
            self._completion = None
            self._current = msgs
            self._broadcast(msgs)
            retries = 0
            while self._completion is None:
                if self.stopped:
                    raise QuorumUnreachable(
                        f"{self.pid}: closed with its {kind} open")
                if not self.done.wait(timeout=self.retry_interval):
                    retries += 1
                    if retries > self.retry_budget:
                        raise QuorumUnreachable(
                            f"{self.pid}: no quorum after {retries - 1} "
                            f"rebroadcasts")
                    self._broadcast(self._current)
            completion = self._completion
            t1 = time.monotonic_ns()
            rec = OpRecord(completion.op, kind, self.pid, t0, t1,
                           completion.tag,
                           completion.value if kind == "read" else value)
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


def check_membership(pid: ProcessId, config: Config,
                     membership: dict[ProcessId, tuple[str, int]]) -> None:
    """Raise ValueError unless membership names every server but pid."""
    missing = [str(s) for s in config.servers()
               if s != pid and s not in membership]
    if missing:
        raise ValueError(f"{pid}: the membership names no address for "
                         f"{', '.join(missing)}")


def membership_from_json(obj: dict) -> dict[ProcessId, tuple[str, int]]:
    """{"s1": "127.0.0.1:7001", ...} -> {ProcessId: (host, port)}"""
    out = {}
    for key, addr in obj.items():
        host, _, port = addr.rpartition(":")
        out[parse_pid(key)] = (host, int(port))
    return out
