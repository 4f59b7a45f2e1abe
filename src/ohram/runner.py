"""Live TCP runner: the same state machines over real sockets.

Framing: every frame is a 4-byte big-endian length prefix followed by
that many bytes of UTF-8 JSON, at most 1 MiB. Two frame types are
understood; unknown types and unknown fields are ignored so endpoints of
different versions can coexist:

  {"type": "hello", "pid": "r1"}   identifies the dialing process
  {"type": "msg",  "msg": {...}}   carries one protocol message

Topology: clients dial every server and keep the connection; a server's
replies to a client travel back over the client's own connection. A
reply produced before the client's hello arrives is held, for the
client's newest op only, and sent once the hello comes in.
Servers dial each other for relay traffic (each direction has its own
connection); nothing travels back on a server's dialed link, so only
client links run a reader. Every dialed link has an outbox. A send
writes its frame to the socket at once, on the caller's thread and
without blocking, when the link is up and nothing is queued. Otherwise
the frame queues, and so does the rest of a frame the kernel took only
in part. The link's own thread flushes the queue in order, and on each
(re)connect starts again from the head frame's first byte, which yields
at-least-once delivery. Links set TCP_NODELAY, because frames are small
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
from typing import Optional

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
_LEN = struct.Struct(">I")


def _pack(obj: dict) -> bytes:
    data = json.dumps(obj, separators=(",", ":")).encode("utf-8")
    if len(data) > MAX_FRAME:
        raise ValueError(f"frame of {len(data)} bytes exceeds {MAX_FRAME}")
    return _LEN.pack(len(data)) + data


def _recv_exact(sock: socket.socket, n: int) -> Optional[bytes]:
    buf = b""
    while len(buf) < n:
        try:
            chunk = sock.recv(n - len(buf))
        except OSError:
            return None
        if not chunk:
            return None
        buf += chunk
    return buf


def read_frames(sock: socket.socket):
    """Yield decoded frames until the peer closes or sends garbage."""
    while True:
        head = _recv_exact(sock, _LEN.size)
        if head is None:
            return
        (length,) = _LEN.unpack(head)
        if length > MAX_FRAME:
            return
        body = _recv_exact(sock, length)
        if body is None:
            return
        try:
            yield json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return


def _close(sock: socket.socket) -> None:
    # shut down first: on Linux, close() alone does not wake a thread
    # blocked in accept() or recv() on the same socket
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
            if frame.get("type") == "msg":
                try:
                    msg = message_from_json(frame["msg"])
                except (KeyError, ValueError):
                    continue
                self.on_frame(msg)


class ServerDaemon:
    """One protocol server behind a listening TCP socket."""

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
        self.machine_lock = threading.Lock()
        self.listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            self.listener.bind((listen_host(host), port))
        except OSError as e:
            raise BindFailure(f"{pid}: cannot bind {host}:{port}: {e}")
        self.listener.listen(64)
        self.address = self.listener.getsockname()
        self.port = self.address[1]
        self.outboxes: dict[ProcessId, Outbox] = {}
        # pid -> (socket, send lock); replies to one client may be
        # triggered from several handler threads at once
        self.client_conns: dict[ProcessId, tuple[socket.socket, threading.Lock]] = {}
        # replies to a client that has not said hello yet, for its newest
        # op only; a server answers some requests once (ohsam acks each
        # read once), so a dropped reply would never come back
        self.held_replies: dict[ProcessId, list[Message]] = {}
        self.accepted: set[socket.socket] = set()
        self.conn_lock = threading.Lock()
        self.stopped = False
        self._accept_thread: Optional[threading.Thread] = None

    def start(self, membership: dict[ProcessId, tuple[str, int]]) -> None:
        """membership maps every server pid to its (host, port)."""
        for peer, addr in membership.items():
            if peer != self.pid:
                self.outboxes[peer] = Outbox(self.pid, addr)
        self._accept_thread = threading.Thread(target=self._accept_loop,
                                               daemon=True)
        self._accept_thread.start()

    def stop(self) -> None:
        self.stopped = True
        _close(self.listener)
        for box in self.outboxes.values():
            box.close()
        with self.conn_lock:
            conns = list(self.accepted)
            self.client_conns.clear()
        for c in conns:
            _close(c)

    # kill == stop; the machine state is simply abandoned
    kill = stop

    def _accept_loop(self) -> None:
        while not self.stopped:
            try:
                conn, _ = self.listener.accept()
            except OSError:
                return
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self.conn_lock:
                if self.stopped:
                    _close(conn)
                    return
                self.accepted.add(conn)
            threading.Thread(target=self._serve_conn, args=(conn,),
                             daemon=True).start()

    def _serve_conn(self, conn: socket.socket) -> None:
        peer: Optional[ProcessId] = None
        for frame in read_frames(conn):
            ftype = frame.get("type")
            if ftype == "hello":
                try:
                    peer = parse_pid(frame["pid"])
                except (KeyError, ValueError):
                    break
                send_lock = threading.Lock()
                with send_lock:  # held replies go out before new ones
                    with self.conn_lock:
                        self.client_conns[peer] = (conn, send_lock)
                        backlog = self.held_replies.pop(peer, [])
                    for msg in backlog:
                        self._send(conn, msg)
            elif ftype == "msg":
                try:
                    msg = message_from_json(frame["msg"])
                except (KeyError, ValueError):
                    continue
                self._handle(msg)
        with self.conn_lock:
            held = self.client_conns.get(peer) if peer is not None else None
            if held is not None and held[0] is conn:
                del self.client_conns[peer]
            self.accepted.discard(conn)
        _close(conn)

    def _handle(self, msg: Message) -> None:
        if self.stopped:
            return
        with self.machine_lock:
            outs = self.machine.on_message(msg)
        for out in outs:
            self._route(out)

    def _route(self, msg: Message) -> None:
        dest = msg.destination
        if dest == self.pid:
            # loop a self-addressed relay straight back into the machine
            # (the caller routes outside the machine lock, so this does
            # not re-enter it)
            self._handle(msg)
            return
        box = self.outboxes.get(dest)
        if box is not None:
            box.send(msg)
            return
        with self.conn_lock:
            held = self.client_conns.get(dest)
            if held is None:
                self._hold(msg)
                return
        conn, send_lock = held
        with send_lock:
            self._send(conn, msg)

    def _hold(self, msg: Message) -> None:
        # caller holds conn_lock; clients are well-formed, so a newer op
        # retires the replies held for the older one
        held = self.held_replies.setdefault(msg.destination, [])
        if held and held[0].op.seq < msg.op.seq:
            held.clear()
        if not held or held[0].op.seq == msg.op.seq:
            held.append(msg)

    @staticmethod
    def _send(conn: socket.socket, msg: Message) -> None:
        try:
            conn.sendall(_pack({"type": "msg", "msg": message_to_json(msg)}))
        except OSError:
            pass


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
