"""Deterministic discrete-event simulator for the register protocols.

The network is a bag of in-flight messages. One run interleaves three
kinds of events: delivering an in-flight message, invoking the next
operation of an idle client, and crashing a server. SimNet.run carries
out the events an event source picks: _uniform (run_seeded) picks
uniformly with a private RNG, so a (protocol, config, seed) triple fully
determines the execution; _fifo (drain) delivers in send order, and
_scripted (run_script, `ohram simulate --ops`) follows a schedule; see
parse_schedule for the format. record wraps any source and writes the
steps it takes as schedule directives, so a run, say seeded_net's, can be
replayed; shrink cuts a failing directive list down by delta debugging.

Message sends are counted at send time and attributed to the client
operation whose identifier the message carries, so the per-operation
message and exchange tallies match the protocol's complexity exactly on
failure-free runs that deliver everything.

Crashing a server removes its undelivered inbound messages and silences
it from then on; messages it already sent stay deliverable. Crashes are
refused beyond the configured fault bound f.

Where the protocol is sound, deliver records in invariant_failures
each server step that moves the server's tag back, sends a second
readAck for a read, a readAck below any relay tag the server received,
or a writeAck below its writeRequest's tag.

A run that exhausts its event budget, or that still has a pending client
operation when no event is enabled, raises StuckExecution. With crash
counts at most floor((n-1)/2) that cannot happen for the protocols here:
every live server still hears from a majority.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Optional

from .core import (
    Completion,
    Config,
    FaultBudgetExceeded,
    KIND_READ_ACK,
    KIND_READ_RELAY,
    KIND_WRITE_ACK,
    KIND_WRITE_REQUEST,
    Message,
    ModeMismatch,
    NotWellFormed,
    OpId,
    OpRecord,
    ProcessId,
    ROLE_WRITER,
    ScheduleUnresolvable,
    StuckExecution,
    Tag,
    config_from_json,
    config_to_json,
    opid_from_json,
    opid_to_json,
    parse_pid,
    tag_from_json,
    tag_to_json,
    validate_config,
)
from .protocols import ProtocolBundle, checked_bundle

STEP_BUDGET = 10 ** 6


@dataclass(slots=True)
class OpMetrics:
    kind: str
    messages: int = 0
    exchange_kinds: set[str] = field(default_factory=set)

    @property
    def exchanges(self) -> int:
        return len(self.exchange_kinds)


@dataclass
class RunResult:
    protocol: str
    config: Config
    seed: Optional[int]
    history: list[OpRecord]
    metrics: dict[OpId, OpMetrics]
    events: int
    crashed: list[ProcessId]
    invariant_failures: list[str]

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


class SimNet:
    def __init__(self, protocol: str, config: Config, *,
                 seed: Optional[int] = None, x: Optional[int] = None):
        bundle = checked_bundle(protocol, config, x=x)
        self.bundle: ProtocolBundle = bundle
        self.config = config
        self.seed = seed
        self.rng = random.Random(seed) if seed is not None else None
        self.check_invariants = bundle.sound

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
        self._open: dict[OpId, OpRecord] = {}
        self.metrics: dict[OpId, OpMetrics] = {}
        self.invariant_failures: list[str] = []
        # by server: the largest relay tag received, the reads acked
        self._relay_high: dict[ProcessId, Tag] = {
            pid: Tag(0, pid) for pid in self.servers}
        self._read_acks_sent: dict[ProcessId, set[OpId]] = {
            pid: set() for pid in self.servers}
        # _send's map from a wire seq to its op: none when a writer ticks
        # once per write, as bundle.op_group is then the identity
        self._op_group = (bundle.op_group if bundle.make_writer.ticks > 1
                          else None)

    # -- send side --

    def _send(self, msgs: list[Message]) -> None:
        """Tally and put in flight one step's non-empty output. Its messages
        share one op and one kind: a step sends one broadcast to the servers
        or one reply to the op's invoker. Only a broadcast can name a crashed
        server, since the invoker is a client and clients never crash."""
        first = msgs[0]
        op = first.op
        if self._op_group is not None:
            op = self._op_group(op)
        om = self.metrics[op]
        om.messages += len(msgs)
        om.exchange_kinds.add(first.kind)
        crashed = self.crashed
        if crashed and first.destination in self.servers:
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
        group = self.bundle.op_group(msgs[0].op)
        # a write's value is fixed at invocation; recording it now keeps
        # histories with a pending write (client never finished) checkable
        value = machine.value if kind == "write" else None
        self._note_idle(pid)
        # positional: a keyword call costs about twice as much
        rec = OpRecord(group, kind, pid, self.events, None, None, value)
        self.history.append(rec)
        self._open[group] = rec
        self.metrics[group] = OpMetrics(kind)
        self._send(msgs)
        return group

    def deliver(self, msg: Message) -> None:
        # nothing in flight names a crashed server: crash sweeps them out
        # and _send keeps them out
        self.events += 1
        dest = msg.destination
        server = self.servers.get(dest)
        if server is None:
            outs, completion = self.clients[dest].on_message(msg)
            if completion is not None:
                # only a completion makes a client idle
                self._record_completion(completion)
                self._note_idle(dest)
        elif self.check_invariants:
            before = server.tag
            outs = server.on_message(msg)
            after = server.tag
            if after < before:
                self.invariant_failures.append(
                    f"{dest}: tag moved backwards {before} -> {after}")
            if msg.kind == KIND_READ_RELAY and self._relay_high[dest] < msg.tag:
                self._relay_high[dest] = msg.tag
            if outs:
                self._check_replies(dest, msg, outs)
        else:
            outs = server.on_message(msg)
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

    # -- bookkeeping --

    def _record_completion(self, completion: Completion) -> None:
        rec = self._open.get(completion.op)
        if rec is None or rec.responded is not None:
            raise NotWellFormed(f"unexpected completion for {completion.op}")
        rec.responded = self.events
        rec.tag = completion.tag
        rec.value = completion.value
        del self._open[completion.op]

    def _check_replies(self, pid, msg, outs) -> None:
        # one step's outputs share one kind (see _send)
        kind = outs[0].kind
        if kind == KIND_READ_ACK:
            high = self._relay_high[pid]
            sent = self._read_acks_sent[pid]
            for out in outs:
                if out.op in sent:
                    self.invariant_failures.append(
                        f"{pid}: second readAck for {out.op}")
                sent.add(out.op)
                if out.tag < high:
                    self.invariant_failures.append(
                        f"{pid}: readAck tag {out.tag} below received "
                        f"relay tag {high} for {out.op}")
        elif kind == KIND_WRITE_ACK and msg.kind == KIND_WRITE_REQUEST:
            for out in outs:
                if out.op == msg.op and out.tag < msg.tag:
                    self.invariant_failures.append(
                        f"{pid}: writeAck tag {out.tag} below request tag "
                        f"{msg.tag} for {out.op}")

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
        if self._open:
            pending = ", ".join(str(op) for op in self._open)
            raise StuckExecution(f"no event enabled, operations pending: {pending}")

    def drain(self) -> None:
        self.run(_fifo(self))

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
            origin = arg.relay_origin
            sel = {"kind": arg.kind, "to": str(arg.destination),
                   "from": str(arg.sender),
                   "origin": None if origin is None else str(origin),
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

    Crash count is drawn from 0..max_crashes, which defaults to the
    largest count that keeps every operation live,
    min(f, floor((n-1)/2)). Passing victims pins the crash set instead;
    the seed still decides when each one falls over.
    """
    validate_config(config)
    hard_cap = (config.n_servers - 1) // 2
    if max_crashes is None:
        max_crashes = min(config.f, hard_cap)
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

    An invoke names a client: a writer invokes "write" with a string
    label, a reader invokes "read" without one.
    A deliver selector may constrain kind, to, from, origin, invoker and
    seq; it must match exactly one in-flight message. Remaining traffic
    is drained in send order after the last directive.
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


def _matches(msg: Message, sel: dict) -> bool:
    if "kind" in sel and msg.kind != sel["kind"]:
        return False
    if "to" in sel and str(msg.destination) != sel["to"]:
        return False
    if "from" in sel and str(msg.sender) != sel["from"]:
        return False
    if "origin" in sel:
        origin = None if msg.relay_origin is None else str(msg.relay_origin)
        if origin != sel["origin"]:
            return False
    if "invoker" in sel and str(msg.op.invoker) != sel["invoker"]:
        return False
    if "seq" in sel and msg.op.seq != sel["seq"]:
        return False
    return True


def _scripted(net: SimNet, directives: list[dict]):
    """The events a schedule's directives name, then a drain."""
    may_invoke = {str(p): ("write", str) if p.role == ROLE_WRITER
                  else ("read", type(None)) for p in net.clients}
    servers = {str(p): p for p in net.servers}
    for i, d in enumerate(directives, 1):
        match d:
            case {"invoke": {"client": str(client), "kind": kind} as spec} if (
                    may_invoke.get(client) == (kind, type(spec.get("label")))):
                pid = parse_pid(client)
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
            case {"drain": _}:
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
    net.run(_scripted(net, directives))
    net._finish()
    return net.result()


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

    Accepts either a full run dump or a bare list of record objects.
    """
    if isinstance(obj, dict):
        obj = obj["history"]
    records = []
    for r in obj:
        op = opid_from_json(r["op"])
        value = r.get("value")
        if value is not None and not isinstance(value, str):
            raise ValueError(f"{op}: value must be a string or null, "
                             f"got {value!r}")
        records.append(OpRecord(
            op=op, kind=r["kind"], invoker=op.invoker,
            invoked=int(r["invoked"]),
            responded=None if r.get("responded") is None else int(r["responded"]),
            tag=tag_from_json(r.get("tag")),
            value=value,
        ))
    return records
