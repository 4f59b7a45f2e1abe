"""Layer spans for the traced benchmark run, recorded from outside the package.

install() replaces, for the duration of a traced run, the callables at
each layer boundary with timing wrappers:

  simnet    SimNet.__init__ (set-up) and SimNet.run_seeded (the run)
  machines  on_message / invoke_read / invoke_write of every writer,
            reader and server class the sound protocols construct
  core      message_to_json / message_from_json as the runner calls them
  runner    _pack, the runner's frame encoder
  checker   check_witness / check_bruteforce

Spans are aggregated in memory as they end: per layer name a count and a
total, and per operation (keyed by protocol family and the OpId that the
message carries) the machine and codec time and the frames sent. Nothing
under src/ changes; uninstall() puts every original back. Untraced runs
never call install().

A machine span that starts inside another machine span (a subclass
handler calling super()) is folded into the outer one, so each delivered
message or invocation is one span.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from time import perf_counter_ns

SOUND_PROTOCOLS = ("ohsam", "ohmam", "abd-swmr", "abd-mwmr")
MACHINE_METHODS = ("on_message", "invoke_read", "invoke_write")


def family(protocol: str) -> str:
    """Module that implements a protocol: abd-swmr and abd-mwmr are abd."""
    return protocol.split("-")[0]


def state_entries(machines) -> int:
    """Entries held in the container fields of server machines.

    For the three-exchange-read servers these are relays, relayed and
    acked_reads (plus the multi-writer server's per-writer counters), the
    bookkeeping that grows with the number of reads served.
    """
    total = 0
    for m in machines:
        for value in vars(m).values():
            if isinstance(value, (dict, set, frozenset, list, tuple)):
                total += len(value)
    return total


class Tracer:
    def __init__(self, ohram):
        self.ohram = ohram
        self.lock = threading.Lock()
        self.local = threading.local()
        # protocol family whose machines are running; the simulator wrapper
        # sets it per run, the live workload per segment
        self.family = None
        # the SimNet being run, sampled for its in-flight bag size
        self.net = None
        self._undo = []
        self.missing = []
        self.server_types = set()
        self.spans = defaultdict(lambda: [0, 0])   # name -> [count, ns]
        # (family, invoker, seq) -> [machine ns, codec ns, frames, self-sent]
        self.per_op = defaultdict(lambda: [0, 0, 0, 0])
        self.inflight = [0, 0, 0]                  # samples, sum, max
        self.frame_bytes = [0, 0]                  # msg frames, bytes
        self.checked_ops = defaultdict(int)        # checker name -> ops

    # -- install / uninstall --

    def _patch(self, owner, name, make_wrapper) -> None:
        original = getattr(owner, name, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{name}")
            return
        self._undo.append((owner, name, original))
        setattr(owner, name, make_wrapper(original))

    def install(self) -> None:
        ohram = self.ohram
        self._patch(ohram.SimNet, "__init__", self._wrap_simnet_init)
        self._patch(ohram.SimNet, "run_seeded",
                    lambda fn: self._wrap_span(fn, "simnet.run"))
        for owner, name in self._machine_methods():
            self._patch(owner, name, self._wrap_machine)
        runner = ohram.runner
        self._patch(runner, "message_to_json", self._wrap_encode)
        self._patch(runner, "message_from_json", self._wrap_decode)
        self._patch(runner, "_pack", self._wrap_pack)
        # check_history reaches the checkers through the checker module;
        # the workloads call them through the package
        for name in ("check_witness", "check_bruteforce"):
            for owner in (ohram.checker, ohram):
                self._patch(owner, name,
                            lambda fn, name=name: self._wrap_checker(fn, name))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def _machine_methods(self):
        """(class, method) pairs for every machine the protocols build.

        Classes are found by constructing throwaway machines through each
        protocol bundle, so merged or renamed machine classes are still
        covered.
        """
        ohram = self.ohram
        writer, reader, server = (ohram.parse_pid(p) for p in ("w1", "r1", "s1"))
        types = set()
        for name in SOUND_PROTOCOLS:
            bundle = ohram.get_protocol(name)
            config = ohram.Config(n_servers=1, n_readers=1, n_writers=1, f=0,
                                  mode=bundle.mode)
            types.add(type(bundle.make_writer(writer, config)))
            types.add(type(bundle.make_reader(reader, config)))
            server_type = type(bundle.make_server(server, config))
            types.add(server_type)
            self.server_types.add(server_type)
        seen = set()
        for t in sorted(types, key=lambda t: t.__qualname__):
            for klass in t.__mro__[:-1]:
                for method in MACHINE_METHODS:
                    if method in vars(klass) and (klass, method) not in seen:
                        seen.add((klass, method))
                        yield klass, method

    # -- wrappers --

    def _add(self, name: str, ns: int) -> None:
        with self.lock:
            agg = self.spans[name]
            agg[0] += 1
            agg[1] += ns

    def _wrap_span(self, fn, name):
        def wrapper(*args, **kwargs):
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self._add(name, perf_counter_ns() - t0)
        return wrapper

    def _wrap_simnet_init(self, fn):
        def wrapper(net, protocol, *args, **kwargs):
            t0 = perf_counter_ns()
            fn(net, protocol, *args, **kwargs)
            self._add("simnet.setup", perf_counter_ns() - t0)
            self.family = family(protocol)
            self.net = net
        return wrapper

    def _wrap_machine(self, fn):
        local = self.local
        span = self._message_span if fn.__name__ == "on_message" else self._invoke_span

        def wrapper(machine, *args):
            if getattr(local, "depth", 0):
                return fn(machine, *args)
            local.depth = 1
            t0 = perf_counter_ns()
            try:
                out = fn(machine, *args)
            finally:
                local.depth = 0
            span(machine, args, out, perf_counter_ns() - t0)
            return out
        return wrapper

    def _message_span(self, machine, args, out, ns) -> None:
        msg = args[0]
        if type(machine) in self.server_types:
            # a server's relay to itself never becomes a frame
            self_sent = sum(1 for m in out if m.destination == machine.pid)
            self._machine_span(f"server.{msg.kind}", msg.op, self_sent, ns)
        else:
            self._machine_span("client.step", msg.op, 0, ns)

    def _invoke_span(self, machine, _args, out, ns) -> None:
        self._machine_span("client.step", out[0].op if out else None, 0, ns)

    def _machine_span(self, kind, op, self_sent, ns) -> None:
        fam = self.family
        net = self.net
        with self.lock:
            for name in (f"{fam}.{kind}", "machine"):
                agg = self.spans[name]
                agg[0] += 1
                agg[1] += ns
            if net is not None:
                size = len(net.inflight)
                inflight = self.inflight
                inflight[0] += 1
                inflight[1] += size
                if size > inflight[2]:
                    inflight[2] = size
            if op is not None:
                rec = self.per_op[(fam, str(op.invoker), op.seq)]
                rec[0] += ns
                rec[3] += self_sent

    def _codec_span(self, name, op, ns) -> None:
        with self.lock:
            agg = self.spans[name]
            agg[0] += 1
            agg[1] += ns
            self.per_op[(self.family, str(op.invoker), op.seq)][1] += ns

    def _wrap_encode(self, fn):
        def wrapper(msg):
            t0 = perf_counter_ns()
            out = fn(msg)
            self._codec_span("core.encode", msg.op, perf_counter_ns() - t0)
            return out
        return wrapper

    def _wrap_decode(self, fn):
        def wrapper(obj):
            t0 = perf_counter_ns()
            msg = fn(obj)
            self._codec_span("core.decode", msg.op, perf_counter_ns() - t0)
            return msg
        return wrapper

    def _wrap_pack(self, fn):
        def wrapper(obj):
            t0 = perf_counter_ns()
            frame = fn(obj)
            ns = perf_counter_ns() - t0
            if obj.get("type") != "msg":
                self._add("runner.pack", ns)
                return frame
            op = obj["msg"]["op"]
            with self.lock:
                agg = self.spans["runner.pack"]
                agg[0] += 1
                agg[1] += ns
                self.frame_bytes[0] += 1
                self.frame_bytes[1] += len(frame)
                rec = self.per_op[(self.family, op["invoker"], op["seq"])]
                rec[1] += ns
                rec[2] += 1
            return frame
        return wrapper

    def _wrap_checker(self, fn, name):
        def wrapper(history):
            t0 = perf_counter_ns()
            try:
                return fn(history)
            finally:
                ns = perf_counter_ns() - t0
                with self.lock:
                    agg = self.spans[f"checker.{name}"]
                    agg[0] += 1
                    agg[1] += ns
                    self.checked_ops[name] += len(history)
        return wrapper

    # -- read-out --

    def take_ops(self, fam: str, records) -> list:
        """Remove and return the per-operation costs of history records."""
        with self.lock:
            return [self.per_op.pop((fam, str(r.op.invoker), r.op.seq),
                                    [0, 0, 0, 0]) for r in records]

    def total_s(self, name: str) -> float:
        return self.spans[name][1] / 1e9 if name in self.spans else 0.0

    def mean_us(self, name: str) -> float:
        if name not in self.spans or not self.spans[name][0]:
            return 0.0
        count, ns = self.spans[name]
        return ns / count / 1e3
