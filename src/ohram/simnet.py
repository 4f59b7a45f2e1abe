"""Deterministic discrete-event simulator for the register protocols.

The network is a bag of in-flight (destination, message, depth) entries.
One run interleaves three kinds of events: delivering an in-flight
entry's message to its destination, invoking the next operation of an
idle client, and crashing a server. SimNet.run carries out the events an
event source picks: _uniform (run_seeded) picks uniformly with a private
RNG, so a (protocol, config, seed) triple fully determines the
execution; _fifo (drain) delivers in send order, and _scripted
(run_directives) follows a schedule's directives, refusing a key or
value parse_schedule, which gives the format, does not document. record
wraps any source and writes the steps it takes as schedule directives,
so a run, say seeded_net's, can be replayed; shrink cuts a failing
directive list down by delta debugging; hunt records and shrinks the
first seed whose run fails checker.judge or gets stuck.

Message sends are counted at send time and attributed to the client
operation whose identifier the message carries, so the per-operation
message and exchange tallies match the protocol's complexity exactly on
failure-free runs that deliver everything. A broadcast, a message whose
destination is None, is one object: _send tallies it as n messages, one
per server of the configuration, and puts one entry in flight for each
live server, in configuration order, every entry holding that same
message. An entry's depth is its message's causal depth: an invocation
sends at depth 1, and a delivery's step at the entry's depth plus one.
An op's exchanges, its sequential message delays, are the largest depth
it sent at. For every protocol, _send records in invariant_failures each
message of an op at depth d that is not of kind chain[d-1] of the op's
chain (protocols.ProtocolBundle); that check is what makes the kinds an
op sent chain[:exchanges], the dump's exchange_kinds.

Crashing a server removes its undelivered inbound entries and silences
it from then on; messages it already sent stay deliverable. Crashes are
refused beyond the configured fault bound f.

Where the protocol is sound, deliver runs each server step through a
Monitor, which records in invariant_failures every step that breaks
one of the server-local rules its docstring states, and every
completion whose tag fewer than a majority of the servers hold.

A run that exhausts its event budget, or that still has a pending client
operation when no event is enabled, raises StuckExecution. With crash
counts at most floor((n-1)/2) that cannot happen for the protocols here:
every live server still hears from a majority.
"""

from __future__ import annotations

import json
import random
from contextlib import suppress
from typing import Optional

from .core import (
    Config,
    FaultBudgetExceeded,
    KIND_READ_ACK,
    KIND_READ_RELAY,
    KIND_READ_REQUEST,
    KIND_WRITE_ACK,
    KIND_WRITE_REQUEST,
    Message,
    ModeMismatch,
    NotWellFormed,
    OhramError,
    OpId,
    OpRecord,
    ProcessId,
    RELAY_KINDS,
    ROLE_WRITER,
    Record,
    ScheduleUnresolvable,
    StuckExecution,
    Tag,
    config_from_json,
    config_to_json,
    history_from_json,  # re-exported: the inverse of RunResult.to_json
    history_to_json,
    parse_pid,
    quorum_size,
    record_to_json,
    validate_config,
)
from .protocols import ProtocolBundle, checked_bundle, get_protocol

STEP_BUDGET = 10 ** 6


class OpMetrics(Record):
    """One simulated op's tally. kind is "read" or "write", messages the
    number of messages sent on its behalf, and exchanges their largest
    causal depth, the sequential message delays the op took. As _send
    checks that a message at depth d is of kind chain[d-1] of the op's
    chain, the kinds it sent are chain[:exchanges]. No slot holds a
    container: a set per op would be over a third of the bytes a long run
    keeps per simulated op.
    """

    __slots__ = ("kind", "messages", "exchanges")

    def __init__(self, kind: str, messages: int, exchanges: int) -> None:
        self.kind = kind
        self.messages = messages
        self.exchanges = exchanges


class RunResult(Record):
    """What a finished simulator run leaves: its history, each op's
    tally, and the crashes and invariant failures seen."""

    __slots__ = ("protocol", "config", "seed", "history", "metrics",
                 "events", "crashed", "invariant_failures")

    def __init__(self, protocol: str, config: Config, seed: Optional[int],
                 history: list[OpRecord], metrics: dict[OpId, OpMetrics],
                 events: int, crashed: list[ProcessId],
                 invariant_failures: list[str]) -> None:
        self.protocol = protocol
        self.config = config
        self.seed = seed
        self.history = history
        self.metrics = metrics
        self.events = events
        self.crashed = crashed
        self.invariant_failures = invariant_failures

    def to_json(self) -> dict:
        return self._fields(history_to_json(self.history),
                            dict(self.metrics_json()))

    def dumps(self) -> str:
        """json.dumps(self.to_json(), sort_keys=True, separators=(",", ":")),
        byte for byte, built one history record and one metrics entry at a
        time. So neither the to_json() tree nor, on Python 3.10 and 3.11,
        the C encoder's accumulator (every small output piece, kept until
        its one call returns) is ever held whole: the peak is about twice
        the output, where the one-shot call reached about twelve times on
        Python 3.11.
        """
        enc = _ENCODE
        text = {k: enc(v) for k, v in self._fields([], {}).items()}
        text["history"] = "[" + ",".join(
            [enc(record_to_json(r)) for r in self.history]) + "]"
        text["metrics"] = "{" + ",".join(
            [enc(op) + ":" + enc(m) for op, m in self.metrics_json()]) + "}"
        pieces = [p for k in sorted(text) for p in (",", enc(k), ":", text[k])]
        pieces[0] = "{"
        return "".join(pieces + ["}"])

    def _fields(self, history: list, metrics: dict) -> dict:
        return {
            "protocol": self.protocol,
            "config": config_to_json(self.config),
            "seed": self.seed,
            "events": self.events,
            "crashed": [str(p) for p in self.crashed],
            "history": history,
            "metrics": metrics,
            "invariant_failures": list(self.invariant_failures),
        }

    def metrics_json(self):
        """(op text, entry) pairs of the dump's metrics, in key order."""
        chain = get_protocol(self.protocol).chain
        for op, m in sorted(self.metrics.items(), key=lambda kv: str(kv[0])):
            yield str(op), {"kind": m.kind, "messages": m.messages,
                            "exchanges": m.exchanges, "exchange_kinds":
                            sorted(chain(m.kind)[:m.exchanges])}


# one encoder, built once, for every entry RunResult.dumps writes
_ENCODE = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


# below every tag, so Monitor.held is no bound: a tag's ts is never negative
_UNHELD = Tag(-1, None)


class Monitor:
    """The per-step invariant checks of a sound protocol's servers.

    step delivers a message to a server and appends to failures each
    rule the step breaks: the server's tag moves back, it sends a readAck
    below any relay tag it received or a writeAck below its
    writeRequest's tag, or it answers a read twice or after a newer read
    of its reader. relays says whether the protocol's read chain has a
    readRelay. If it has none, an older read may still be answered in
    reply to its own readRequest: a Replica, ABD's server, answering a
    late request. If it has one, an older read is never answered: a
    relaying server keeps one read per reader, and a message of an older
    read sends nothing.

    completed checks the one global rule: when an op completes with tag
    t, a majority of the servers, crashed ones included, hold a tag of at
    least t. Each sound protocol completes an op on q = floor(n/2)+1
    replies, each from a server whose tag was then at least t: a writeAck
    follows adoption, an ohsam or ohmam read returns the minimum tag of
    its acks, an ABD read completes on its write-back's acks. Tags only
    grow, and a read of the initial value needs no special case, since
    a server's own Tag(0, s) only grows too.

    servers is the net's pid -> server map, read at each completion. By
    server, relay_high is the largest relay tag received and read_acked
    the newest read seq answered for each reader. held is a tag a
    majority is known to hold: since tags only grow, a completion at or
    below it needs no recount. A tag that moves back resets it, and so
    must anything that swaps a server's machine mid-run.
    """

    __slots__ = ("failures", "servers", "relays", "quorum", "relay_high",
                 "read_acked", "held")

    def __init__(self, servers, failures: list[str], relays: bool) -> None:
        self.failures = failures
        self.servers = servers
        self.relays = relays
        self.quorum = quorum_size(len(servers))
        self.relay_high: dict[ProcessId, Tag] = {
            pid: Tag(0, pid) for pid in servers}
        self.read_acked: dict[ProcessId, dict[ProcessId, int]] = {
            pid: {} for pid in servers}
        self.held = _UNHELD

    def step(self, pid: ProcessId, server, msg: Message) -> list[Message]:
        """server.on_message(msg), checked; pid is the server's id."""
        before = server.tag
        outs = server.on_message(msg)
        after = server.tag
        failures = self.failures
        if after < before:
            failures.append(f"{pid}: tag moved backwards {before} -> {after}")
            self.held = _UNHELD
        if msg.kind == KIND_READ_RELAY and self.relay_high[pid] < msg.tag:
            self.relay_high[pid] = msg.tag
        for out in outs:
            if out.kind == KIND_READ_ACK:
                acked = self.read_acked[pid]
                reader, seq = out.op
                newest = acked.get(reader, 0)
                if seq > newest:
                    acked[reader] = seq
                elif seq == newest:
                    failures.append(f"{pid}: second readAck for {out.op}")
                elif (self.relays or msg.kind != KIND_READ_REQUEST
                        or msg.op != out.op):
                    failures.append(
                        f"{pid}: readAck for {out.op} after {reader}#{newest}")
                high = self.relay_high[pid]
                if out.tag < high:
                    failures.append(
                        f"{pid}: readAck tag {out.tag} below received "
                        f"relay tag {high} for {out.op}")
            elif (out.kind == KIND_WRITE_ACK and msg.kind == KIND_WRITE_REQUEST
                    and out.op == msg.op and out.tag < msg.tag):
                failures.append(
                    f"{pid}: writeAck tag {out.tag} below request tag "
                    f"{msg.tag} for {out.op}")
        return outs

    def completed(self, rec: OpRecord) -> None:
        """Check that a majority of the servers hold rec's tag or above."""
        tag = rec.tag
        if not self.held < tag:  # tag <= held; a ProcessId has only <
            return
        servers = self.servers
        holders = sum(not s.tag < tag for s in servers.values())
        if holders < self.quorum:
            self.failures.append(f"{rec.op}: completed with tag {tag} held "
                                 f"by {holders} of {len(servers)} servers")
        else:
            self.held = tag


class SimNet:
    def __init__(self, protocol: str, config: Config, *,
                 seed: Optional[int] = None, x: Optional[int] = None):
        bundle = checked_bundle(protocol, config, x=x)
        self.bundle: ProtocolBundle = bundle
        self.config = config
        self.seed = seed
        self.rng = random.Random(seed) if seed is not None else None

        self.clients = {}
        for pid in config.writers():
            self.clients[pid] = bundle.make_writer(pid, config)
        for pid in config.readers():
            self.clients[pid] = bundle.make_reader(pid, config)
        self.servers = {pid: bundle.make_server(pid, config)
                        for pid in config.servers()}

        self.programs: dict[ProcessId, list] = {p: [] for p in self.clients}
        # clients with a loaded program and no operation in flight, and
        # each client's rank in self.clients to list them in that order
        self.idle: set[ProcessId] = set()
        self._rank = {p: i for i, p in enumerate(self.clients)}
        self.inflight: list[tuple[ProcessId, Message, int]] = []
        self.crashed: set[ProcessId] = set()
        # the servers a broadcast reaches, in configuration order
        self.live: tuple[ProcessId, ...] = tuple(self.servers)
        self.pending_crashes: list[ProcessId] = []
        self.events = 0
        self.history: list[OpRecord] = []
        self.metrics: dict[OpId, OpMetrics] = {}
        self.invariant_failures: list[str] = []
        self.chains = {"read": bundle.read_chain, "write": bundle.write_chain}
        # naive3x's servers keep no single tag to check
        self.monitor = (Monitor(self.servers, self.invariant_failures,
                                KIND_READ_RELAY in bundle.read_chain)
                        if bundle.sound else None)

    # -- send side --

    def _send(self, msgs: list[Message], depth: int) -> None:
        """Tally and put in flight at depth one step's non-empty output,
        all of it under the op of its first message, since a step serves
        one op, and check each message's kind against that op's chain. A
        broadcast counts a message per server and puts an entry in flight
        per live server; no entry names a crashed server."""
        om = self.metrics[msgs[0].op]
        chain = self.chains[om.kind]
        want = chain[depth - 1] if depth <= len(chain) else None
        if depth > om.exchanges:
            om.exchanges = depth
        sent = om.messages
        inflight = self.inflight
        for m in msgs:
            if m.kind is not want:
                self.invariant_failures.append(
                    f"{m.op}: {m.kind} at depth {depth} is off its "
                    f"{om.kind} chain")
            dest = m.destination
            if dest is None:
                sent += len(self.servers)
                inflight.extend([(server, m, depth) for server in self.live])
            else:
                sent += 1
                if dest not in self.crashed:
                    inflight.append((dest, m, depth))
        om.messages = sent

    # -- the three event kinds --

    def invoke_next(self, pid: ProcessId) -> OpId:
        kind, label = self.programs[pid].pop(0)
        machine = self.clients[pid]
        if kind == "write":
            msgs = machine.invoke_write(label)
        else:
            msgs = machine.invoke_read()
        self.events += 1
        # the machine's record holds a write's value from invocation on,
        # which keeps histories with a pending write (client never
        # finished) checkable
        rec = machine.record
        rec.invoked = self.events
        self._note_idle(pid)
        self.history.append(rec)
        self.metrics[rec.op] = OpMetrics(kind, 0, 0)
        self._send(msgs, 1)
        return rec.op

    def deliver(self, entry: tuple[ProcessId, Message, int]) -> None:
        """Hand an in-flight entry's message to its destination; what the
        step sends lies one exchange deeper than the entry."""
        # nothing in flight names a crashed server: crash sweeps them out
        # and _send keeps them out
        self.events += 1
        dest, msg, depth = entry
        server = self.servers.get(dest)
        if server is None:
            outs, rec = self.clients[dest].on_message(msg)
            if rec is not None:
                if rec.responded is not None:
                    raise NotWellFormed(f"unexpected completion for {rec.op}")
                rec.responded = self.events
                # only a completion makes a client idle
                self._note_idle(dest)
                if self.monitor is not None:
                    self.monitor.completed(rec)
        elif self.monitor is None:
            outs = server.on_message(msg)
        else:
            outs = self.monitor.step(dest, server, msg)
        if outs:
            self._send(outs, depth + 1)

    def crash(self, pid: ProcessId) -> None:
        refusal = self._crash_refusal(pid)
        if refusal is not None:
            raise refusal
        self.events += 1
        self.crashed.add(pid)
        self.live = tuple(s for s in self.live if s is not pid)
        self.inflight[:] = [e for e in self.inflight if e[0] is not pid]

    def _crash_refusal(self, pid: ProcessId) -> Optional[Exception]:
        """The error crashing pid now would raise, or None if it may."""
        if pid not in self.servers:
            return ScheduleUnresolvable(f"{pid} is not a server")
        if pid in self.crashed:
            return ScheduleUnresolvable(f"{pid} already crashed")
        if len(self.crashed) + 1 > self.config.f:
            return FaultBudgetExceeded(
                f"crashing {pid} would exceed the fault bound f={self.config.f}")
        return None

    # -- driving a run --

    def run(self, events) -> None:
        """Call step(arg) for each pair that an event source, a generator
        over the net's state, yields: (deliver, entry) with the entry taken
        out of inflight, (invoke_next, client) or (crash, server).
        """
        for step, arg in events:
            step(arg)
            if self.events > STEP_BUDGET:
                raise StuckExecution(f"step budget {STEP_BUDGET} exceeded")

    def load_program(self, pid: ProcessId, ops: list) -> None:
        self.programs[pid].extend(ops)
        self._note_idle(pid)

    def _note_idle(self, pid: ProcessId) -> None:
        if self.programs[pid] and not self.clients[pid].busy:
            self.idle.add(pid)
        else:
            self.idle.discard(pid)

    def run_seeded(self) -> None:
        if self.rng is None:
            raise ModeMismatch("run_seeded needs a seed")
        self.run(_uniform(self))
        self._finish()

    def _finish(self) -> None:
        pending = ", ".join(
            [str(r.op) for r in self.history if r.responded is None])
        if pending:
            raise StuckExecution(f"no event enabled, operations pending: {pending}")

    def drain(self) -> None:
        self.run(_fifo(self))

    def run_directives(self, directives: list[dict]) -> RunResult:
        """Run a schedule's directives (see parse_schedule), then a drain."""
        self.run(_scripted(self, directives))
        self._finish()
        return self.result()

    def result(self) -> RunResult:
        return RunResult(
            protocol=self.bundle.name, config=self.config, seed=self.seed,
            history=self.history, metrics=self.metrics, events=self.events,
            crashed=sorted(self.crashed, key=lambda p: p.sort_key()),
            invariant_failures=self.invariant_failures,
        )


# -- event sources --

def _uniform(net: SimNet):
    """One draw k = randrange(M + I + C) a step, over three bands never
    built as a list: M in-flight entries, I idle clients (a program is
    loaded and the machine is not busy) and C pending crashes. k < M
    swap-removes inflight[k] and delivers it; the next I values name the
    idle clients in the order of net.clients; the last C values pop
    pending_crashes by index. SimNet keeps the idle set up to date; it is
    sorted only when a step falls in its band.
    """
    getrandbits, deliver = net.rng.getrandbits, net.deliver
    inflight, idle, crashes = net.inflight, net.idle, net.pending_crashes
    rank = net._rank.__getitem__
    while True:
        delivers, invokes = len(inflight), len(idle)
        total = delivers + invokes + len(crashes)
        if not total:
            return
        # randrange(total) inline: the same rejection loop, draw for draw
        bits = total.bit_length()
        k = getrandbits(bits)
        while k >= total:
            k = getrandbits(bits)
        if k < delivers:
            inflight[k], inflight[-1] = inflight[-1], inflight[k]
            yield deliver, inflight.pop()
        elif k < delivers + invokes:
            yield net.invoke_next, sorted(idle, key=rank)[k - delivers]
        else:
            yield net.crash, crashes.pop(k - delivers - invokes)


def _fifo(net: SimNet):
    while net.inflight:
        yield net.deliver, net.inflight.pop(0)


def record(net: SimNet, events, out: list[dict]):
    """Pass on the steps of an event source and append to out the
    directive that names each one, so the run's schedule file (its
    header, then out) replays it. A deliver names the entry by its full
    selector, which no entry left in flight matches.
    """
    for step, arg in events:
        if step == net.invoke_next:
            kind, label = net.programs[arg][0]
            spec = {"client": str(arg), "kind": kind}
            if label is not None:
                spec["label"] = label
            out.append({"invoke": spec})
        elif step == net.crash:
            out.append({"crash": {"server": str(arg)}})
        else:
            dest, msg, _ = arg
            sel = {"kind": msg.kind, "to": str(dest),
                   "from": str(msg.sender), "origin": _origin(msg),
                   "invoker": str(msg.op.invoker), "seq": msg.op.seq}
            assert not any(_matches(e, sel) for e in net.inflight), sel
            out.append({"deliver": sel})
        yield step, arg


# -- seeded workload construction --

_LABELS = "ABCDEFGHJKLMNPQRSTUVXYZ"


def simulate(protocol: str, config: Config, seed: int, **plan) -> RunResult:
    """One seeded run: random small workload, random interleaving.

    plan is seeded_net's keywords. The same arguments always produce the
    same result, bit for bit.
    """
    net = seeded_net(protocol, config, seed, **plan)
    net.run_seeded()
    return net.result()


def seeded_net(protocol: str, config: Config, seed: int, *,
               max_ops: int = 10, max_crashes: Optional[int] = None,
               victims: Optional[list[ProcessId]] = None,
               x: Optional[int] = None) -> SimNet:
    """The net simulate runs, its programs and crash plan loaded.

    Crash count is drawn from 0..max_crashes, which defaults to f, the
    largest count that keeps every operation live (validate_config
    makes 2f < n). Passing victims pins the crash set instead; the seed
    still decides when each one falls over. A configuration with no
    writer or reader, or max_ops below 1, leaves nothing to run: it
    raises ValueError.
    """
    validate_config(config)
    if max_crashes is None:
        max_crashes = config.f
    if victims is not None:
        if len(victims) > config.f:
            raise FaultBudgetExceeded(
                f"crash plan names {len(victims)} servers, fault bound is "
                f"{config.f}")
        unknown = [p for p in victims if p not in config.servers()]
        if unknown or len(set(victims)) != len(victims):
            raise ScheduleUnresolvable(
                f"crash plan must name distinct servers of the "
                f"configuration, got {[str(p) for p in victims]}")
    if max_crashes > config.f:
        raise FaultBudgetExceeded(
            f"requested up to {max_crashes} crashes, fault bound is {config.f}")
    if config.n_writers + config.n_readers == 0:
        raise ValueError("a seeded run needs at least one writer or reader")
    if max_ops < 1:
        raise ValueError(f"a seeded run needs max_ops >= 1, got {max_ops}")

    # a string seed is hashed with a process-independent function, unlike
    # tuple seeds, so plans stay identical across interpreter runs
    plan_rng = random.Random(f"plan:{seed}")
    net = SimNet(protocol, config, seed=seed, x=x)

    clients = list(net.clients)
    total_ops = plan_rng.randint(1, max_ops)
    label_idx = 0
    for _ in range(total_ops):
        pid = plan_rng.choice(clients)
        if pid.role == ROLE_WRITER:
            net.load_program(pid, [("write", _LABELS[label_idx % len(_LABELS)])])
            label_idx += 1
        else:
            net.load_program(pid, [("read", None)])

    if victims is not None:
        net.pending_crashes = list(victims)
    else:
        n_crashes = plan_rng.randint(0, max_crashes) if max_crashes > 0 else 0
        if n_crashes:
            net.pending_crashes = plan_rng.sample(list(net.servers), n_crashes)
    return net


# -- scripted execution --

def parse_schedule(text: str) -> tuple[dict, list[dict]]:
    """Split a schedule file into its header and directive list.

    The format is line-delimited JSON. The first non-empty line is the
    header: {"protocol": ..., "config": {...}} plus an optional "x" and
    free-form "comment". Every further line is one directive:

      {"invoke": {"client": "w1", "kind": "write", "label": "A"}}
      {"invoke": {"client": "r1", "kind": "read"}}
      {"deliver": {"kind": "readRelay", "to": "s2", "origin": "s1", ...}}
      {"crash": {"server": "s3"}}
      {"drain": true}

    A directive has exactly one of these keys. An invoke names a client
    with no operation in flight: a writer invokes "write" with a string
    label, a reader "read" without one. A deliver selector may constrain
    kind, to, from, origin (a relay's sender, null for any other
    message), invoker and seq, an integer, and must match exactly one
    in-flight message. A drain takes only true. Any other key is refused,
    as is a directive naming no in-flight message, client or server of
    the run. Remaining traffic is drained in send order at the end.
    """
    header = None
    directives = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            raise ScheduleUnresolvable(f"line {lineno}: not JSON ({e})")
        if header is None:
            header = obj
        else:
            directives.append(obj)
    if (not isinstance(header, dict)
            or not isinstance(header.get("protocol"), str)
            or not isinstance(header.get("config"), dict)):
        raise ScheduleUnresolvable(
            "schedule header must name a protocol and a config")
    if header.get("x") is not None and type(header["x"]) is not int:
        raise ScheduleUnresolvable(
            f"schedule header x must be an integer, got {header['x']!r}")
    return header, directives


def _origin(msg: Message) -> Optional[str]:
    """msg's "origin" in a deliver selector: a relay's sender, else None."""
    return str(msg.sender) if msg.kind in RELAY_KINDS else None


def _matches(entry: tuple[ProcessId, Message, int], sel: dict) -> bool:
    """Whether the in-flight entry meets every constraint of selector sel."""
    dest, msg, _ = entry
    if "kind" in sel and msg.kind != sel["kind"]:
        return False
    if "to" in sel and str(dest) != sel["to"]:
        return False
    if "from" in sel and str(msg.sender) != sel["from"]:
        return False
    if "origin" in sel and _origin(msg) != sel["origin"]:
        return False
    if "invoker" in sel and str(msg.op.invoker) != sel["invoker"]:
        return False
    if "seq" in sel and msg.op.seq != sel["seq"]:
        return False
    return True


# the keys parse_schedule documents inside each directive but a drain
_DIRECTIVE_KEYS = {
    "invoke": frozenset({"client", "kind", "label"}),
    "crash": frozenset({"server"}),
    "deliver": frozenset({"kind", "to", "from", "origin", "invoker", "seq"}),
}


def _documented(d) -> bool:
    """d has one directive key, a dict under it holds only that
    directive's documented keys, and a seq among them is an int."""
    if not isinstance(d, dict) or len(d) != 1:
        return False
    [(name, body)] = d.items()
    return not isinstance(body, dict) or (
        body.keys() <= _DIRECTIVE_KEYS.get(name, frozenset())
        and type(body.get("seq", 0)) is int)


def _scripted(net: SimNet, directives: list[dict]):
    """The events a schedule's directives name, then a drain."""
    may_invoke = {str(p): ("write", str) if p.role == ROLE_WRITER
                  else ("read", type(None)) for p in net.clients}
    servers = {str(p): p for p in net.servers}
    for i, d in enumerate(directives, 1):
        if not _documented(d):
            raise ScheduleUnresolvable(f"directive {i}: cannot run {d}")
        match d:
            case {"invoke": {"client": str(client), "kind": kind} as spec} if (
                    may_invoke.get(client) == (kind, type(spec.get("label")))):
                pid = parse_pid(client)
                if net.clients[pid].busy:
                    raise NotWellFormed(f"directive {i}: {client} already "
                                        f"has an operation in flight")
                net.load_program(pid, [(kind, spec.get("label"))])
                yield net.invoke_next, pid
            case {"deliver": dict(sel)}:
                hits = [j for j, e in enumerate(net.inflight)
                        if _matches(e, sel)]
                if len(hits) != 1:
                    raise ScheduleUnresolvable(
                        f"directive {i}: selector {sel} matches "
                        f"{len(hits)} in-flight messages, need exactly 1")
                yield net.deliver, net.inflight.pop(hits[0])
            case {"crash": {"server": str(server)}} if server in servers:
                refusal = net._crash_refusal(servers[server])
                if refusal is not None:
                    raise type(refusal)(f"directive {i}: {refusal}")
                yield net.crash, servers[server]
            case {"drain": True}:
                yield from _fifo(net)
            case _:
                raise ScheduleUnresolvable(f"directive {i}: cannot run {d}")
    yield from _fifo(net)


def run_script(text: str) -> RunResult:
    header, directives = parse_schedule(text)
    try:
        config = config_from_json(header["config"])
    except (KeyError, TypeError, ValueError) as e:
        raise ScheduleUnresolvable(
            f"schedule config {header['config']} is unusable: {e!r}")
    net = SimNet(header["protocol"], config, x=header.get("x"))
    return net.run_directives(directives)


def replay_file(path: str) -> RunResult:
    with open(path, "r", encoding="utf-8") as fh:
        return run_script(fh.read())


def shrink(directives: list, fails) -> list:
    """Delta debugging (ddmin; Zeller & Hildebrandt, TSE 2002): a sublist
    of directives, in order, for which fails is true and turns false when
    any one directive is dropped. fails(directives) must be true.
    """
    n = 2
    while len(directives) >= 2:
        cuts = [len(directives) * i // n for i in range(n + 1)]
        spans = list(zip(cuts, cuts[1:]))
        candidates = [directives[a:b] for a, b in spans]
        if n > 2:  # with two parts each complement is the other part
            candidates += [directives[:a] + directives[b:] for a, b in spans]
        hit = next((i for i, c in enumerate(candidates) if fails(c)), None)
        if hit is not None:  # a part restarts at 2, a complement keeps n-1
            directives, n = candidates[hit], 2 if hit < n else n - 1
        elif n < len(directives):
            n = min(2 * n, len(directives))
        else:
            break
    return directives


def hunt(protocol: str, config: Config, seeds, **plan):
    """(seed, reason, shrunk) for the first of seeds whose seeded run, as
    simulate(..., **plan) runs it, fails checker.judge or gets stuck
    ("stuck: <message>"), else None; shrunk replays to a like failure."""
    from .checker import judge
    for seed in seeds:
        try:  # an atomic verdict has no reason
            reason = judge(simulate(protocol, config, seed, **plan)).reason
        except StuckExecution as e:
            reason = f"stuck: {e}"
        if reason is not None:
            break
    else:
        return None
    net, directives = seeded_net(protocol, config, seed, **plan), []
    with suppress(StuckExecution):  # over the step budget, all recorded
        net.run(record(net, _uniform(net), directives))

    def fails(candidate: list[dict]) -> bool:
        try:
            net = SimNet(protocol, config, x=plan.get("x"))
            return not judge(net.run_directives(candidate))
        except OhramError as e:  # a cut list may name what is not in flight
            return isinstance(e, StuckExecution) and reason.startswith("stuck")
    return seed, reason, shrink(directives, fails)
