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
into frames, whatever the reads' sizes: a daemon's connections, where a
read takes up to 64 KiB, and a client's links, which read with recv_into
a fixed 4 KiB buffer, one system call per wake-up however many frames
arrived.

Topology: clients dial every server and keep the connection; a server's
replies to a client travel back over the client's own connection. A
server daemon is one selector loop that accepts, reads, runs the
machine and replies by non-blocking send; a client whose unsent replies
pass MAX_BACKLOG is cut off and redials. A reply for a client with no
connection (no hello yet, or dropped with the reply unsent) is held,
for the client's newest op only, and sent once the hello comes in.
Servers dial each other for relay traffic (each direction has its own
connection); nothing travels back on a server's dialed link, so only
client links run a reader, and a client link whose stream ends, closed
or not made of frames, redials at once. Every dialed link has an
outbox. A send writes its frame to the socket at once, on the caller's
thread and without blocking, when the link is up and nothing is queued.
Otherwise the frame queues, and so does the rest of a frame the kernel
took only in part. The link's own thread flushes the queue in order, and
on each (re)connect starts again from the head frame's first byte, which
yields at-least-once delivery. Links set TCP_NODELAY, because frames are small
and go out one at a time. The protocol machines are idempotent against the
resulting duplicates: a repeated writeRequest is re-acknowledged, a
repeated readRequest does not relay twice, and relay bookkeeping is
set-based, so retries are safe.

Clients stamp invocation and response times with time.monotonic_ns().
Histories from clients of one host therefore share a scale and can be
merged for checking with merge_histories. A client that cannot assemble
a quorum re-broadcasts its current phase every retry_interval seconds
and gives up with QuorumUnreachable after retry_budget rebroadcasts.

The deliberately unsound demonstration protocol is refused here; it
exists for scripted simulation only.
"""

from __future__ import annotations

import json
import os
import socket
import struct
import threading
import time
from collections import deque
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
RECV_SIZE = 1 << 16  # a daemon's read: every frame a wake-up finds
LINK_RECV_SIZE = 1 << 12  # a client link's fixed read buffer
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
    """Yield decoded frames until the peer closes or sends garbage.

    Each wake-up is one recv_into a fixed buffer, whatever number of
    frames it holds. Bytes past the last frame taken go with the
    generator, so a socket is read through one generator only.
    """
    chunk = bytearray(LINK_RECV_SIZE)
    view = memoryview(chunk)
    framer = _Framer()
    while True:
        try:
            size = sock.recv_into(chunk)
        except OSError:
            return
        if not size:
            return
        try:
            for body in framer.feed(view[:size]):
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


class Outbox:
    """A dialed link: write-through sends, queue, dial loop, in-order flush."""

    def __init__(self, own_pid: ProcessId, address: tuple[str, int],
                 on_frame=None):
        self.own_pid = own_pid
        self.address = address
        self.on_frame = on_frame  # receive path for client links
        self.queue: deque[bytes] = deque()
        self.head_sent = 0  # bytes of queue[0] already on self.sock
        self.lock = threading.Lock()
        self.wake = threading.Condition(self.lock)
        self.sock: Optional[socket.socket] = None
        self.closed = False
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()

    def send(self, msg: Message) -> None:
        """Write the frame now if the link is idle, else queue it.

        Never blocks on the network: callers send while holding their
        own locks.
        """
        frame = _pack({"type": "msg", "msg": message_to_json(msg)})
        with self.wake:
            if self.closed:
                return
            if self.sock is not None and not self.queue:
                try:
                    sent = self.sock.send(frame, socket.MSG_DONTWAIT)
                except OSError:  # full buffer or broken link: flush decides
                    sent = 0
                if sent == len(frame):
                    return
                self.head_sent = sent
            self.queue.append(frame)
            self.wake.notify()

    def close(self) -> None:
        with self.wake:
            self.closed = True
            sock = self.sock
            self.sock = None
            self.wake.notify()
        if sock is not None:
            _close(sock)

    def _run(self) -> None:
        while True:
            with self.wake:
                if self.closed:
                    return
            sock = self._dial()
            if sock is None:
                continue
            reader = None
            if self.on_frame is not None:
                reader = threading.Thread(
                    target=self._read_loop, args=(sock,), daemon=True)
                reader.start()
            self._flush_loop(sock)
            _close(sock)
            if reader is not None:
                reader.join(timeout=1.0)

    def _dial(self) -> Optional[socket.socket]:
        try:
            sock = socket.create_connection(self.address, timeout=1.0)
            sock.settimeout(None)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.sendall(_pack({"type": "hello", "pid": str(self.own_pid)}))
        except OSError:
            with self.wake:
                if self.closed:
                    return None
            time.sleep(0.02)
            return None
        with self.wake:
            if self.closed:
                sock.close()
                return None
            self.sock = sock
            self.head_sent = 0  # a new connection gets the head frame whole
        return sock

    def _flush_loop(self, sock: socket.socket) -> None:
        # while the queue is non-empty, sends only append to it, so this
        # thread is the link's only writer
        while True:
            with self.wake:
                while not self.queue and not self.closed and self.sock is sock:
                    self.wake.wait(timeout=0.5)
                if self.closed or self.sock is not sock:
                    return
                frame, start = self.queue[0], self.head_sent
            try:
                sock.sendall(memoryview(frame)[start:])
            except OSError:
                with self.wake:
                    self.sock = None
                return  # frame stays queued for the next connection
            with self.wake:
                self.queue.popleft()
                self.head_sent = 0

    def _read_loop(self, sock: socket.socket) -> None:
        for frame in read_frames(sock):
            if isinstance(frame, dict) and frame.get("type") == "msg":
                try:
                    msg = message_from_json(frame["msg"])
                except (AttributeError, LookupError, TypeError, ValueError):
                    continue  # skipped, as a daemon skips it
                self.on_frame(msg)
        with self.wake:  # closed or garbled: take the link down to redial
            if self.sock is sock:
                self.sock = None
                self.wake.notify()


class _Conn:
    """An accepted connection: bytes not yet framed, replies not yet sent."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.framer = _Framer()
        self.outbuf = bytearray()
        self.unsent: list[Message] = []  # the replies behind outbuf
        self.peer: Optional[ProcessId] = None  # set by its hello
        self.events = EVENT_READ  # what the selector watches it for


class ServerDaemon:
    """One protocol server behind a listening TCP socket, on one loop."""

    def __init__(self, pid: ProcessId, config: Config, protocol: str, *,
                 host: Optional[str] = None, port: int = 0):
        validate_config(config)
        bundle = get_protocol(protocol)
        if not bundle.runner_ok:
            raise ModeMismatch(
                f"protocol {protocol} is not allowed in the live runner")
        self.pid = pid
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
        self.outboxes: dict[ProcessId, Outbox] = {}
        self.client_conns: dict[ProcessId, _Conn] = {}  # by latest hello
        # replies to a client with no connection, for its newest op only;
        # ohsam acks each read once, so a lost reply would never return
        self.held_replies: dict[ProcessId, list[Message]] = {}
        # stop() ends select() through the waker; closing sockets does not
        wake, self._waker = socket.socketpair()
        self.selector = DefaultSelector()
        self.selector.register(self.listener, EVENT_READ)
        self.selector.register(wake, EVENT_READ)
        self.stopped = False
        self._thread: Optional[threading.Thread] = None

    def start(self, membership: dict[ProcessId, tuple[str, int]]) -> None:
        """membership maps every server pid to its (host, port)."""
        for peer, addr in membership.items():
            if peer != self.pid:
                self.outboxes[peer] = Outbox(self.pid, addr)
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def stop(self) -> None:
        if self.stopped:
            return
        self.stopped = True
        self._waker.send(b"\0")
        if self._thread is not None:
            self._thread.join()
        for box in self.outboxes.values():
            box.close()
        for key in list(self.selector.get_map().values()):
            _close(key.fileobj)
        self.selector.close()
        _close(self._waker)

    # kill == stop; the machine state is simply abandoned
    kill = stop

    def _loop(self) -> None:
        while not self.stopped:
            for key, events in self.selector.select():
                if key.data is not None:
                    if events & EVENT_READ:
                        self._read(key.data)
                    if events & EVENT_WRITE:
                        self._flush(key.data)
                elif key.fileobj is self.listener:
                    try:
                        sock, _ = self.listener.accept()
                    except OSError:  # the dialer is gone already
                        continue
                    sock.setblocking(False)
                    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                    self.selector.register(sock, EVENT_READ, _Conn(sock))

    def _read(self, conn: _Conn) -> None:
        try:
            data = conn.sock.recv(RECV_SIZE)
        except BlockingIOError:
            return
        except OSError:
            data = b""
        if not data:
            return self._drop(conn)
        try:  # a frame this server cannot take closes its connection
            for body in conn.framer.feed(data):
                self._frame(conn, _unpack(body))
                if conn.sock.fileno() < 0:
                    return  # the frame's replies cut the connection off
        except Exception:
            self._drop(conn)

    def _frame(self, conn: _Conn, frame) -> None:
        ftype = frame.get("type") if isinstance(frame, dict) else None
        if ftype == "hello":
            conn.peer = parse_pid(frame["pid"])
            self.client_conns[conn.peer] = conn
            for msg in self.held_replies.pop(conn.peer, []):
                self._reply(conn, msg)
        elif ftype == "msg":
            try:
                msg = message_from_json(frame["msg"])
            except (AttributeError, LookupError, TypeError, ValueError):
                return  # an unreadable message is skipped
            self._handle(msg)

    def _drop(self, conn: _Conn) -> None:
        if conn.sock.fileno() < 0:
            return  # dropped already
        if self.client_conns.get(conn.peer) is conn:
            del self.client_conns[conn.peer]
        self.selector.unregister(conn.sock)
        _close(conn.sock)
        for msg in conn.unsent:  # to the client's newer connection, or held
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
        elif dest in self.outboxes:
            self.outboxes[dest].send(msg)
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
        conn.outbuf += _pack({"type": "msg", "msg": message_to_json(msg)})
        conn.unsent.append(msg)
        self._flush(conn)
        if len(conn.outbuf) > MAX_BACKLOG:
            self._drop(conn)

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


class Client:
    """Synchronous reader/writer endpoint over the live network."""

    def __init__(self, pid: ProcessId, config: Config, protocol: str,
                 membership: dict[ProcessId, tuple[str, int]], *,
                 retry_interval: float = 0.05, retry_budget: int = 100):
        validate_config(config)
        bundle = get_protocol(protocol)
        if not bundle.runner_ok:
            raise ModeMismatch(
                f"protocol {protocol} is not allowed in the live runner")
        self.pid = pid
        self.config = config
        self.retry_interval = retry_interval
        self.retry_budget = retry_budget
        if pid in config.writers():
            self.machine = bundle.make_writer(pid, config)
        else:
            self.machine = bundle.make_reader(pid, config)
        self.bundle = bundle
        self.lock = threading.Lock()
        self.done = threading.Condition(self.lock)
        self._completion = None
        self._current: list[Message] = []
        self.history: list[OpRecord] = []
        self.links = {s: Outbox(pid, membership[s], on_frame=self._on_msg)
                      for s in config.servers()}

    def close(self) -> None:
        for box in self.links.values():
            box.close()

    def _broadcast(self, msgs: list[Message]) -> None:
        for m in msgs:
            box = self.links.get(m.destination)
            if box is not None:
                box.send(m)

    def _on_msg(self, msg: Message) -> None:
        with self.done:
            outs, completion = self.machine.on_message(msg)
            if outs:
                self._current = outs
            if completion is not None:
                self._completion = completion
                self.done.notify_all()
        if outs:
            self._broadcast(outs)

    def _run_op(self, kind: str, invoke) -> OpRecord:
        with self.done:
            t0 = time.monotonic_ns()
            msgs = invoke()
            value = self.machine.value if kind == "write" else None
            self._completion = None
            self._current = msgs
        self._broadcast(msgs)
        retries = 0
        with self.done:
            while self._completion is None:
                if not self.done.wait(timeout=self.retry_interval):
                    retries += 1
                    if retries > self.retry_budget:
                        raise QuorumUnreachable(
                            f"{self.pid}: no quorum after {retries - 1} "
                            f"rebroadcasts")
                    # an outbox send writes without blocking (or queues
                    # for its link's thread), so rebroadcasting under the
                    # lock is fine
                    self._broadcast(list(self._current))
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
