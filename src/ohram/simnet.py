"""Deterministic discrete-event simulator for the register protocols.

The network is a bag of in-flight messages. One run interleaves three
kinds of events: delivering an in-flight message, invoking the next
operation of an idle client, and crashing a server. SimNet.run carries
out the events an event source picks: _uniform (run_seeded) picks
uniformly with a private RNG, so a (protocol, config, seed) triple fully
determines the execution; _fifo (drain) delivers in send order, and
_scripted (run_directives) follows a schedule's directives, refusing a
key or value parse_schedule, which gives the format, does not document.
record wraps any source and writes the steps it takes as schedule
directives, so a run, say seeded_net's, can be replayed; shrink cuts a
failing directive list down by delta debugging.

Message sends are counted at send time and attributed to the client
operation whose identifier the message carries, so the per-operation
message and exchange tallies match the protocol's complexity exactly on
failure-free runs that deliver everything. An op's exchange tally is
the set of message kinds sent on its behalf, kept as the bits of one int
over core.MESSAGE_KINDS (OpMetrics.kinds); the set of names and its
size are derived from those bits.

Crashing a server removes its undelivered inbound messages and silences
it from then on; messages it already sent stay deliverable. Crashes are
refused beyond the configured fault bound f.

Where the protocol is sound, deliver runs each server step through a
Monitor, which records in invariant_failures every step that breaks
one of the server-local rules its docstring states.

A run that exhausts its event budget, or that still has a pending client
operation when no event is enabled, raises StuckExecution. With crash
counts at most floor((n-1)/2) that cannot happen for the protocols here:
every live server still hears from a majority.
"""

from __future__ import annotations

import json
import random
from typing import Optional

from .core import (
    Config,
    FaultBudgetExceeded,
    KIND_READ_ACK,
    KIND_READ_RELAY,
    KIND_READ_REQUEST,
    KIND_WRITE_ACK,
    KIND_WRITE_RELAY,
    KIND_WRITE_REQUEST,
    MESSAGE_KINDS,
    Message,
    ModeMismatch,
    NotWellFormed,
    OpId,
    OpRecord,
    ProcessId,
    ROLE_WRITER,
    Record,
    ScheduleUnresolvable,
    StuckExecution,
    Tag,
    config_from_json,
    config_to_json,
    json_int,
    opid_from_json,
    opid_to_json,
    parse_pid,
    tag_from_json,
    tag_to_json,
    validate_config,
)
from .protocols import ProtocolBundle, checked_bundle

STEP_BUDGET = 10 ** 6


# each message kind's bit in OpMetrics.kinds, in core.MESSAGE_KINDS order
_KIND_BITS = {kind: 1 << i for i, kind in enumerate(MESSAGE_KINDS)}


class OpMetrics(Record):
    """One simulated op's tally. kind is "read" or "write", messages the
    number of messages sent on its behalf, and kinds the message kinds
    among them, one bit each: bit i stands for core.MESSAGE_KINDS[i].
    exchange_kinds, the set of those kinds' names, and exchanges, its
    size, are derived from kinds. kinds is an int, not a set of names,
    because a set per op would be over a third of the bytes a long run
    keeps per simulated op.
    """

    __slots__ = ("kind", "messages", "kinds")

    def __init__(self, kind: str, messages: int = 0, kinds: int = 0) -> None:
        self.kind = kind
        self.messages = messages
        self.kinds = kinds

    @property
    def exchange_kinds(self) -> set[str]:
        return {k for k, bit in _KIND_BITS.items() if self.kinds & bit}

    @property
    def exchanges(self) -> int:
        return self.kinds.bit_count()


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
                            dict(self._metrics_json()))

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
            [enc(op) + ":" + enc(m) for op, m in self._metrics_json()]) + "}"
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

    def _metrics_json(self):
        """(op text, entry) pairs of the dump's metrics, in key order."""
        for op, m in sorted(self.metrics.items(), key=lambda kv: str(kv[0])):
            yield str(op), {"kind": m.kind, "messages": m.messages,
                            "exchanges": m.exchanges,
                            "exchange_kinds": sorted(m.exchange_kinds)}


# one encoder, built once, for every entry RunResult.dumps writes
_ENCODE = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


class Monitor:
    """The per-step invariant checks of a sound protocol's servers.

    step delivers a message to a server and appends to failures each
    rule the step breaks: the server's tag moves back, it sends a readAck
    below any relay tag it received or a writeAck below its
    writeRequest's tag, or it answers a read twice or after a newer read
    of its reader. An older read may be answered only in reply to its
    own readRequest, by a server that never answered on a readRelay: an
    ABD server answering a late request. A relaying server keeps one
    read per reader, and a message of an older read sends nothing.

    By server, relay_high is the largest relay tag received and
    read_acked the newest read seq answered for each reader;
    relay_answerers holds the servers that answered on a relay.
    """

    __slots__ = ("failures", "relay_high", "read_acked", "relay_answerers")

    def __init__(self, servers, failures: list[str]) -> None:
        self.failures = failures
        self.relay_high: dict[ProcessId, Tag] = {
            pid: Tag(0, pid) for pid in servers}
        self.read_acked: dict[ProcessId, dict[ProcessId, int]] = {
            pid: {} for pid in servers}
        self.relay_answerers: set[ProcessId] = set()

    def step(self, pid: ProcessId, server, msg: Message) -> list[Message]:
        """server.on_message(msg), checked; pid is the server's id."""
        before = server.tag
        outs = server.on_message(msg)
        after = server.tag
        failures = self.failures
        if after < before:
            failures.append(f"{pid}: tag moved backwards {before} -> {after}")
        if msg.kind == KIND_READ_RELAY and self.relay_high[pid] < msg.tag:
            self.relay_high[pid] = msg.tag
        for out in outs:
            if out.kind == KIND_READ_ACK:
                if msg.kind == KIND_READ_RELAY:
                    self.relay_answerers.add(pid)
                acked = self.read_acked[pid]
                reader, seq = out.op
                newest = acked.get(reader, 0)
                if seq > newest:
                    acked[reader] = seq
                elif seq == newest:
                    failures.append(f"{pid}: second readAck for {out.op}")
                elif (msg.kind != KIND_READ_REQUEST or msg.op != out.op
                        or pid in self.relay_answerers):
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
        self.inflight: list[Message] = []
        self.crashed: set[ProcessId] = set()
        self.pending_crashes: list[ProcessId] = []
        self.events = 0
        self.history: list[OpRecord] = []
        self.metrics: dict[OpId, OpMetrics] = {}
        self.invariant_failures: list[str] = []
        # naive3x's servers keep no single tag to check
        self.monitor = (Monitor(self.servers, self.invariant_failures)
                        if bundle.sound else None)

    # -- send side --

    def _send(self, msgs: list[Message]) -> None:
        """Tally and put in flight one step's non-empty output, all of it
        under the op of its first message, since a step serves one op, and
        each message under its own kind. A message to a crashed server
        stays out of flight."""
        om = self.metrics[msgs[0].op]
        om.messages += len(msgs)
        kinds = om.kinds
        for m in msgs:
            kinds |= _KIND_BITS[m.kind]
        om.kinds = kinds
        crashed = self.crashed
        if crashed:
            msgs = [m for m in msgs if m.destination not in crashed]
        self.inflight.extend(msgs)

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
        self.metrics[rec.op] = OpMetrics(kind)
        self._send(msgs)
        return rec.op

    def deliver(self, msg: Message) -> None:
        # nothing in flight names a crashed server: crash sweeps them out
        # and _send keeps them out
        self.events += 1
        dest = msg.destination
        server = self.servers.get(dest)
        if server is None:
            outs, rec = self.clients[dest].on_message(msg)
            if rec is not None:
                if rec.responded is not None:
                    raise NotWellFormed(f"unexpected completion for {rec.op}")
                rec.responded = self.events
                # only a completion makes a client idle
                self._note_idle(dest)
        elif self.monitor is None:
            outs = server.on_message(msg)
        else:
            outs = self.monitor.step(dest, server, msg)
        if outs:
            self._send(outs)

    def crash(self, pid: ProcessId) -> None:
        refusal = self._crash_refusal(pid)
        if refusal is not None:
            raise refusal
        self.events += 1
        self.crashed.add(pid)
        self.inflight[:] = [m for m in self.inflight if m.destination != pid]

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
        over the net's state, yields: (deliver, message) with the message
        taken out of inflight, (invoke_next, client) or (crash, server).
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
    built as a list: M in-flight messages, I idle clients (a program is
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
    header, then out) replays it. A deliver names the message by its
    full selector, which no message left in flight matches.
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
            sel = {"kind": arg.kind, "to": str(arg.destination),
                   "from": str(arg.sender), "origin": _origin(arg),
                   "invoker": str(arg.op.invoker), "seq": arg.op.seq}
            assert not any(_matches(m, sel) for m in net.inflight), sel
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
    return (str(msg.sender)
            if msg.kind in (KIND_READ_RELAY, KIND_WRITE_RELAY) else None)


def _matches(msg: Message, sel: dict) -> bool:
    if "kind" in sel and msg.kind != sel["kind"]:
        return False
    if "to" in sel and str(msg.destination) != sel["to"]:
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
                hits = [j for j, m in enumerate(net.inflight)
                        if _matches(m, sel)]
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


def record_to_json(r: OpRecord) -> dict:
    """One entry of a run or client dump's history."""
    return {"op": opid_to_json(r.op), "kind": r.kind, "invoked": r.invoked,
            "responded": r.responded, "tag": tag_to_json(r.tag),
            "value": r.value}


def history_to_json(records: list[OpRecord]) -> list[dict]:
    """The history part of a run dump, and the body of a client dump."""
    return [record_to_json(r) for r in records]


def history_from_json(obj) -> list[OpRecord]:
    """Inverse of history_to_json (and of RunResult.to_json).

    Accepts either a full run dump or a bare list of record objects, and
    raises ValueError naming the first record it cannot read; its times,
    seqs and ts must be ints, which a bool is not, and it must not
    respond before it is invoked. The history must also be well-formed,
    or ValueError names a record that breaks it: no two records share an
    op, and each process runs one op at a time, so none is invoked
    before the process's previous op responded (at that time is legal),
    nor after one that is pending.
    """
    if isinstance(obj, dict):
        obj = obj.get("history")
    if not isinstance(obj, list):
        raise ValueError("a history is a list of records, or a run dump "
                         "that holds one")
    records = []
    first = {}  # the index of each op's record
    for i, r in enumerate(obj):
        try:
            kind, value = r["kind"], r.get("value")
            responded = r.get("responded")
            if kind not in ("read", "write"):
                raise ValueError(f"kind must be read or write, got {kind!r}")
            if value is not None and not isinstance(value, str):
                raise ValueError(f"value must be a string or null, "
                                 f"got {value!r}")
            if responded is not None:
                responded = json_int(responded, "responded")
            rec = OpRecord(
                opid_from_json(r["op"]), kind,
                json_int(r["invoked"], "invoked"), responded,
                tag_from_json(r.get("tag")), value)
            if responded is not None and responded < rec.invoked:
                raise ValueError(f"responded {responded} before invoked "
                                 f"{rec.invoked}")
            if first.setdefault(rec.op, i) != i:
                raise ValueError(f"{rec.op} is recorded twice, first as "
                                 f"record {first[rec.op]}")
            records.append(rec)
        except (AttributeError, KeyError, TypeError, ValueError) as e:
            raise ValueError(f"history record {i} {r!r}: {e!r}") from None
    last = {}  # each process's op invoked last so far
    # in invocation order; at one time, responded ops before pending ones
    for i in sorted(range(len(records)), key=lambda i: (
            records[i].invoked, records[i].responded is None,
            records[i].responded)):
        rec = records[i]
        before = last.get(rec.op.invoker)
        last[rec.op.invoker] = rec
        if before is None or (before.responded is not None
                              and before.responded <= rec.invoked):
            continue
        why = (f"after {before.op}, which is pending"
               if before.responded is None
               else f"before {before.op} responded at {before.responded}")
        raise ValueError(f"history record {i} {obj[i]!r}: {rec.op} invoked "
                         f"at {rec.invoked}, {why}")
    return records
