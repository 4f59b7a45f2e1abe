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
":")) does, through one shared encoder. A broadcast is one message,
which _emit sends on the connection of every server, and a frame names
no destination, so each broadcast is encoded once: the loop keeps the
message it framed last and that message's frame dict, and _send reuses
the dict when it is handed that same message again; _pack keeps the
frame it built last and returns it for the same dict. A body is
accepted exactly when json.loads accepts it, through one shared decoder.
Each read is cut into frames where it is taken, whatever the reads'
sizes, and a msg goes straight to message_from_json and the endpoint's
machine.

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

The process has one loop, made when the runner is imported and run while
any endpoint is started. It waits on one epoll object and dispatches
each ready fd from its own table, fd -> (endpoint, conn, sock), which
holds every socket of every server daemon and client, accepted and
dialed, each listener and the loop's waker. It takes a batch's entries
when the wait returns and handles the batch under the one lock all
endpoints share: it accepts, reads, runs the machines and sends. An
entry whose connection an earlier event of the batch dropped is skipped,
even when an accept has taken its fd since, and a hang-up or an error is
handled as a read, which drops the connection. A client's operation
thread invokes and (re)broadcasts under the same lock, lets go of it,
and waits in recv on its client's wake pair. The loop gathers the
clients whose ops a batch completed, and once it has let go of the lock
it sends each of them one byte. A send runs without the interpreter
lock, so the kernel can switch to the woken thread before the loop takes
that lock back, and the op thread stamps its response at once. A notify
or a lock release runs under the interpreter lock instead: the woken
thread then queues for it behind the loop's next batches, a convoy in
which an op thread blocks about three times per op where once would do.
Links set TCP_NODELAY, because frames are small and go out one at a
time. The runner needs Linux: an epoll's interest list is the kernel's,
so a socket that an op thread's send starts watching for EPOLLOUT counts
in a wait already in progress, where a poll() wait would not see it
until the wait ends.

Every step's outputs, a machine's answer and a client's invoke or
rebroadcast alike, leave their endpoint through _emit: in order, each on
its destination's link or else the connection its hello named, lost with
neither; a broadcast, a message whose destination is None, goes so to
every server of the configuration in configuration order. It returns
those addressed to the endpoint itself, a server's relay to itself,
which the server then handles. A step that sends nothing, such as a
relay that completes no majority or a reply that completes no quorum,
reaches no send code: _handle calls _emit only when the machine
returned messages.

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

Clients stamp invocation and response times with time.monotonic_ns(),
and an op enters a client's history at invocation. Histories from
clients of one host therefore share a scale and can be merged for
checking with merge_histories. A client that cannot assemble a quorum
re-broadcasts the phase its machine's rebroadcast() supplies every
retry_interval seconds, retrying what the phase lost, and gives up with
QuorumUnreachable after retry_budget rebroadcasts, or at once on close;
an op on a closed client raises it before it starts. An op given up
stays in the history as pending and open in its machine, so the next op
raises NotWellFormed, until a late quorum completes it: the loop then
stamps its response as it handles that reply. A client refuses a
retry_interval that is not above 0 and a negative retry_budget with
ValueError, before it makes a socket: a wait of no time does not block,
so every op would give up at once. It also refuses a retry_interval
above threading.TIMEOUT_MAX, inf included, on which the wake pair's
timeout would raise OverflowError. A retry_budget of 0 gives up after one
retry_interval, with no rebroadcast. A write whose label's JSON text,
as the wire escapes it, is longer than MAX_FRAME - LABEL_ALLOWANCE bytes
raises ValueError before the machine invokes it: its frame could not be
sent, and an op invoked but never sent would stay open.

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
from select import EPOLLIN, EPOLLOUT, epoll
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


def _close(*socks: socket.socket) -> None:
    # shut down first: on Linux, close() alone does not wake a recv()
    for sock in socks:
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
        self.events = EPOLLIN  # what the loop's epoll watches it for


class _Loop:
    """The process's one epoll loop, over every started endpoint.

    table maps each fd the epoll object watches to (endpoint, conn,
    sock): conn is None for a listener, and endpoint and conn are None
    for the waker. A batch takes its entries from table when the wait
    returns and runs under lock, which all endpoints share; the thread
    runs while some endpoint is started.
    """

    def __init__(self):
        self.lock = threading.Lock()
        self.epoll = epoll()
        self.table: dict[int, tuple[Optional[_Endpoint], Optional[_Conn],
                                    socket.socket]] = {}
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
            # a stop, a start and a drop off the loop thread end the wait
            # through the waker; closing sockets does not
            self._wake, self._waker = socket.socketpair()
            self.watch(self._wake, EPOLLIN, None, None)
            self.thread = threading.Thread(target=self._run, daemon=True,
                                           name="ohram-loop")
            self.thread.start()
        self.wake()

    def watch(self, sock: socket.socket, events: int,
              endpoint: Optional[_Endpoint], conn: Optional[_Conn]) -> None:
        """Have the epoll watch sock for events. Call under lock."""
        fd = sock.fileno()
        self.epoll.register(fd, events)
        self.table[fd] = (endpoint, conn, sock)

    def unwatch(self, sock: socket.socket) -> None:
        """Stop watching sock, before it is closed. Call under lock."""
        fd = sock.fileno()
        self.epoll.unregister(fd)
        del self.table[fd]

    def remove(self, endpoint: _Endpoint) -> None:
        """Unwatch and close every socket of endpoint. Call under lock."""
        for owner, _, sock in list(self.table.values()):
            if owner is endpoint:
                self.unwatch(sock)
                _close(sock)
        for link in endpoint.links.values():
            self.waiting.pop(link, None)
        self.endpoints.discard(endpoint)
        if not self.endpoints:
            self.wake()  # the thread exits

    def _run(self) -> None:
        """Serve until no endpoint is started. An exception that ends the
        thread ends what it served, so that no op waits on a dead loop,
        and goes on to threading.excepthook."""
        try:
            self._serve()
        except BaseException:
            with self.lock:
                self._abandon()
            raise

    def _serve(self) -> None:
        poll, table = self.epoll.poll, self.table
        timeout = None
        while True:
            # each entry as the wait returns, so a connection dropped
            # earlier in the batch is skipped even when an accept has
            # taken its fd since; an fd unwatched meanwhile has none
            batch = [(table.get(fd), events) for fd, events in poll(timeout)]
            with self.lock:
                for entry, events in batch:
                    if entry is None:
                        continue
                    endpoint, conn, sock = entry
                    if endpoint is None:  # the waker
                        sock.recv(64)
                        continue
                    if endpoint.stopped:  # since the wait returned
                        continue
                    if conn is None:
                        endpoint._accept()
                        continue
                    # a hang-up or an error is read: the read takes what
                    # is left, and the read that finds nothing drops it
                    if events & ~EPOLLOUT and conn.sock is sock:
                        endpoint._read(conn)
                    if events & EPOLLOUT and conn.sock is sock:
                        endpoint._flush(conn)
                completed, self.completed = self.completed, []
                running = bool(self.endpoints)
                if running:
                    timeout = self._redial() if self.waiting else None
                else:
                    self._end_thread()
            # wake each finished op once the batch has let go of the
            # lock: the send leaves the interpreter lock free, so the
            # kernel can run the op thread before this one takes it back
            self._notify(completed)
            if not running:
                return

    @staticmethod
    def _notify(clients: list[Client]) -> None:
        """Send each client's waiting thread a wake byte. Call with the
        lock free."""
        for client in clients:
            try:
                client._waker.send(b"\0")
            except OSError:  # a client closed since: no op waits
                pass

    def _abandon(self) -> None:
        """Once an exception has ended this thread, close the waker pair
        and halt every endpoint, as its stop() does. Call under lock."""
        if self.thread is not threading.current_thread():
            return  # it had let go, and a new thread serves what started
        self._end_thread()  # first, so remove() sends no wake
        for endpoint in list(self.endpoints):
            endpoint._halt()
        self.completed = []

    def _end_thread(self) -> None:
        """Let the thread go, so that add() starts a new one, and close
        the waker pair. Call under lock."""
        self.thread = None
        self.unwatch(self._wake)
        _close(self._wake, self._waker)

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


_LOOP = _Loop()  # the process's one loop


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
        self.servers = tuple(config.servers())  # where a broadcast goes
        self.loop = _LOOP
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
        """Stop serving, once: the one way a live endpoint stops."""
        with self.lock:
            if not self.stopped:
                self._halt()

    def _halt(self) -> None:
        """Leave the loop and close every socket. Call under lock, once."""
        self.stopped = True
        self.loop.remove(self)

    def _watch(self, conn: _Conn) -> None:
        self.loop.watch(conn.sock, conn.events, self, conn)

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
        link.events = EPOLLIN | EPOLLOUT
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
        link or client connection, lost if there is none, and a broadcast
        to every server in turn; return those addressed to this
        endpoint."""
        own = []
        for out in outs:
            dests = self.servers if out.destination is None else (
                out.destination,)
            for dest in dests:
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
        # the message framed last, a broadcast sent on to its next
        # server, reuses its dict, and so its frame
        last, obj = self.loop.framed
        if msg is not last:
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
        """Have the epoll watch for EPOLLOUT while bytes wait."""
        events = EPOLLIN | (EPOLLOUT if conn.outbuf else 0)
        if events != conn.events:
            self.loop.epoll.modify(conn.sock, events)
            conn.events = events

    def _drop(self, conn: _Conn) -> None:
        sock, conn.sock = conn.sock, None
        if sock is None:
            return  # dropped already
        self.loop.unwatch(sock)
        _close(sock)
        conn.outbuf.clear()  # lost with the connection
        if self.client_conns.get(conn.peer) is conn:
            del self.client_conns[conn.peer]
        if conn.address is not None:
            conn.redial_at = time.monotonic() + REDIAL_DELAY
            self.loop.waiting[conn] = self
            self.loop.wake()  # the loop's wait timeout is stale


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
            self.loop.watch(self.listener, EPOLLIN, self, None)

    def _halt(self) -> None:
        super()._halt()
        self.listener.close()  # closed already, unless never started

    # the paper's crash-stop is stop(): the machine's state is abandoned
    kill = _Endpoint.stop

    def _accept(self) -> None:
        try:
            sock, _ = self.listener.accept()
        except OSError:  # the dialer is gone already
            return
        sock.setblocking(False)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._watch(_Conn(sock))

    def _handle(self, msg: Message) -> None:
        outs = self.machine.on_message(msg)
        if outs:
            # a relay to itself goes straight back in, after the broadcast
            # has gone out to the others back to back
            for own in self._emit(outs):
                self._handle(own)


class Client(_Endpoint):
    """Synchronous reader/writer endpoint over the live network. An op
    that gives up with "no quorum" stays open in the machine, whose
    rebroadcast() still returns its phase: the next op raises
    NotWellFormed. If its quorum arrives later, the machine completes it
    and the loop stamps its record's responded as it handles that reply,
    since no thread waits for it; the next op then runs. An op whose
    thread still waits is stamped by that thread as it wakes.

    The thread waits in recv on _wake, one end of the client's wake
    pair, a socketpair made once the addresses are checked, with
    retry_interval as its timeout: a timeout is one retry. The loop sends
    a byte on _waker after the batch that completed the op, with the lock
    free, and a byte to a pair closed since is dropped. A byte that
    arrives after its op's wait timed out, as a completion races the
    timeout, is drained by the next wait, which then waits again and
    counts no retry.

    close() is stop(), and stop() is the one way a client stops, whoever
    calls it: an exception that ends the loop thread halts every client
    the same way. It sends a waiting op's thread a byte under the lock,
    and that thread closes the pair as it leaves, raising
    QuorumUnreachable if its op is still open; with no op waiting, it
    closes the pair itself. A second stop() does nothing more."""

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
        if retry_interval > threading.TIMEOUT_MAX:  # settimeout takes no more
            raise ValueError(
                f"{pid}: retry_interval must be <= threading.TIMEOUT_MAX "
                f"({threading.TIMEOUT_MAX}), got {retry_interval!r}")
        if retry_budget < 0:
            raise ValueError(
                f"{pid}: retry_budget must be >= 0, got {retry_budget!r}")
        super().__init__(pid, config)
        self.retry_budget = retry_budget
        self.waits = False  # an op's thread waits for its completion
        self.history: list[OpRecord] = []
        with self.lock:
            self._start({s: membership[s] for s in config.servers()})
            # after _start, so a refused address leaves no socket
            self._wake, self._waker = socket.socketpair()
            self._wake.settimeout(retry_interval)

    close = _Endpoint.stop

    def _halt(self) -> None:
        super()._halt()
        if self.waits:  # its thread closes the pair as it leaves
            self._waker.send(b"\0")
        else:
            _close(self._wake, self._waker)

    def _handle(self, msg: Message) -> None:
        outs, rec = self.machine.on_message(msg)
        if outs:
            self._emit(outs)
        if rec is None:
            return
        if self.waits:
            self.loop.completed.append(self)
        else:  # an op given up: no thread will stamp it
            rec.responded = time.monotonic_ns()

    def _wait(self) -> bool:
        """Release the lock and wait for a wake byte; take the lock back
        and return False if retry_interval passed with none. Call under
        lock. A byte left by an op that completed as its wait timed out
        wakes the next wait early, and counts as no timeout."""
        self.lock.release()
        try:
            self._wake.recv(64)
            return True
        except TimeoutError:
            return False
        finally:
            self.lock.acquire()

    def _run_op(self, invoke) -> OpRecord:
        with self.lock:
            if self.stopped:  # before invoke: a closed op may still be open
                raise QuorumUnreachable(f"{self.pid}: closed")
            t0 = time.monotonic_ns()
            self._emit(invoke())
            rec = self.machine.record
            rec.invoked = t0
            self.history.append(rec)  # pending until it responds
            retries = 0
            self.waits = True
            try:
                while self.machine.busy:
                    if self.stopped:
                        raise QuorumUnreachable(
                            f"{self.pid}: closed with its {rec.kind} open")
                    # a completion that raced the timeout is no retry
                    if not self._wait() and self.machine.busy:
                        retries += 1
                        if retries > self.retry_budget:
                            raise QuorumUnreachable(
                                f"{self.pid}: no quorum after {retries - 1} "
                                f"rebroadcasts")
                        self._emit(self.machine.rebroadcast())
            finally:
                self.waits = False
                if self.stopped:  # _halt() left the pair to this thread
                    _close(self._wake, self._waker)
            rec.responded = time.monotonic_ns()
            return rec

    def write(self, label: str) -> OpRecord:
        """Write label; a label whose JSON text would not leave room for
        the rest of its frame raises ValueError before the op starts."""
        size = len(_quote(label))
        if size > MAX_FRAME - LABEL_ALLOWANCE:
            raise ValueError(
                f"{self.pid}: a label's JSON text takes at most "
                f"{MAX_FRAME - LABEL_ALLOWANCE} bytes, got {size}")
        return self._run_op(lambda: self.machine.invoke_write(label))

    def read(self) -> OpRecord:
        return self._run_op(self.machine.invoke_read)


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
