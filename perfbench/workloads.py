"""The benchmark's workloads: sim-corpus, sim-long and live-swmr.

Every workload does a fixed amount of work that its seed and the run
length determine, judges every history it produces, and fills a Result.
Timed work comes in chunks (a block of corpus rounds, one long run, one
closed-loop segment, one set-up, one check); each chunk's durations are
scaled by the machine-speed factor measured at its two ends (speed.py).

Simulated operations have no wall-clock invocation and response times:
a history records event indices. Their latency is the operation's span
in events times its run's wall time per event, i.e. the time the
simulator spent between invocation and response, all interleaved
operations included.
"""

from __future__ import annotations

import hashlib
import math
import random
import resource
import statistics
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Optional

from speed import Speed
from tracer import SOUND_PROTOCOLS, family, state_entries

LATENCY_PROTOCOLS = ("ohsam", "abd-swmr")
SIZES = (3, 5, 7)

# sim-corpus: rounds of one seeded run per sound protocol
CORPUS_ROUNDS_PER_S = 90
CORPUS_BLOCK_ROUNDS = 25
# sim-long: n=5, f=2, 20 readers; long histories, judged on the witness path
LONG_READERS = 20
LONG_CRASHES = 2
LONG_MAX_OPS_PER_CLIENT = 80
LONG_SLICE_OPS = 10
LONG_SECONDS_PER_CYCLE = 7
# live-swmr: n=5, f=2, one writer and one reader thread per cluster
LIVE_SERVERS = 5
LIVE_MAX_OPS_PER_SEGMENT = 50
LIVE_SEGMENTS_PER_EPOCH = 14
LIVE_SECONDS_PER_EPOCH = 7
N1_OPS = 200


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


@dataclass
class Chunk:
    """One chunk of one protocol's work."""

    ops: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    read_ms: list = field(default_factory=list)
    write_ms: list = field(default_factory=list)
    records: list = field(default_factory=list)  # live operations
    # traced live runs: per record, [machine ns, codec ns, frames, self-sent]
    costs: list = field(default_factory=list)

    def add_run(self, records, events: int, wall_s: float) -> None:
        """Simulated operations: the run's wall time spread over its events."""
        per_event_ms = wall_s * 1e3 / max(events, 1)
        for rec in records:
            if rec.responded is not None:
                ms = (rec.responded - rec.invoked) * per_event_ms
                (self.read_ms if rec.kind == "read" else self.write_ms).append(ms)
        self.ops += len(records)
        self.wall_s += wall_s

    def scale(self, f: float) -> "Chunk":
        self.wall_s *= f
        self.cpu_s *= f
        self.read_ms = [x * f for x in self.read_ms]
        self.write_ms = [x * f for x in self.write_ms]
        return self


@dataclass
class Result:
    speed: Speed
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)  # correctness failures
    notes: list = field(default_factory=list)     # failed operations
    setup_s: list = field(default_factory=list)   # one per set-up, scaled
    chunks: dict = field(default_factory=lambda: defaultdict(list))
    run_s: float = 0.0      # executing operations, scaled
    check_s: float = 0.0    # judging histories, scaled
    checked_ops: int = 0
    wall_s: float = 0.0     # the whole workload, unscaled
    events: int = 0         # simulator events over every run
    digest: Optional[object] = None
    state: dict = field(default_factory=lambda: defaultdict(list))

    @property
    def timed_s(self) -> float:
        return sum(self.setup_s) + self.run_s + self.check_s

    def add_chunk(self, protocol: str, chunk: Chunk) -> None:
        self.chunks[protocol].append(chunk)
        self.run_s += chunk.wall_s

    def account(self, result) -> None:
        """Count a simulated run's operations and fold it into the digest."""
        self.attempted += len(result.history)
        self.failed += sum(1 for r in result.history if r.responded is None)
        self.events += result.events
        self.digest.update(result.dumps().encode())
        self.digest.update(b"\n")

    def judge(self, ohram, label, history, invariant_failures=(), *,
              bruteforce=False) -> float:
        """Judge one history; returns the unscaled seconds it took.

        A non-atomic verdict or an invariant failure is a problem.
        """
        t0 = time.perf_counter()
        if bruteforce:
            verdicts = [ohram.check_witness(history),
                        ohram.check_bruteforce(history)]
        else:
            verdicts = [ohram.check_history(history)]
        elapsed = time.perf_counter() - t0
        self.checked_ops += len(history)
        for v in verdicts:
            if not v.atomic:
                self.problems.append(
                    f"{label}: non-atomic ({v.method} {v.prop}): {v.reason}")
        for failure in invariant_failures:
            self.problems.append(f"{label}: invariant: {failure}")
        return elapsed


def merge(chunks) -> Chunk:
    total = Chunk()
    for c in chunks:
        total.ops += c.ops
        total.wall_s += c.wall_s
        total.cpu_s += c.cpu_s
        total.read_ms += c.read_ms
        total.write_ms += c.write_ms
        total.records += c.records
        total.costs += c.costs
    return total


# -- grid gate --

def check_grid(ohram) -> list[str]:
    """The closed-form message/exchange grid at n=5, via `ohram bench`."""
    code = ohram.cli.main(["bench", "--servers", "5",
                           "--protocols", ",".join(SOUND_PROTOCOLS)])
    return [] if code == 0 else [f"complexity grid: ohram bench exited {code}"]


# -- sim-corpus --

def corpus_specs(seed: int, rounds: range, ohram):
    """The criterion-3 mix: every sound protocol once per round."""
    specs = []
    for r in rounds:
        for name in SOUND_PROTOCOLS:
            rng = random.Random(f"corpus:{seed}:{r}:{name}")
            n = rng.choice(SIZES)
            mode = ohram.get_protocol(name).mode
            config = ohram.Config(
                n_servers=n, n_readers=rng.randint(1, 5),
                n_writers=1 if mode == "swmr" else rng.randint(1, 5),
                f=(n - 1) // 2, mode=mode)
            specs.append((name, config, rng.randrange(1 << 30)))
    return specs


def sim_corpus(ohram, seed: int, seconds: int, tracer=None) -> Result:
    res = Result(Speed(), digest=hashlib.sha256())
    rounds = round(CORPUS_ROUNDS_PER_S * seconds)
    start = time.perf_counter()
    for lo in range(0, rounds, CORPUS_BLOCK_ROUNDS):
        t0 = time.perf_counter()
        specs = corpus_specs(seed, range(lo, min(lo + CORPUS_BLOCK_ROUNDS,
                                                 rounds)), ohram)
        setup = time.perf_counter() - t0
        block = defaultdict(Chunk)
        check = 0.0
        for name, config, run_seed in specs:
            t0 = time.perf_counter()
            try:
                result = ohram.simulate(name, config, run_seed, max_ops=10)
            except ohram.StuckExecution as e:
                # the run's operations are lost with it; count the most it
                # could have had
                res.attempted += 10
                res.failed += 10
                res.notes.append(f"{name} seed {run_seed}: stuck: {e}")
                continue
            block[name].add_run(result.history, result.events,
                                time.perf_counter() - t0)
            if tracer is not None:
                res.state[family(name)].append(
                    state_entries(tracer.net.servers.values()))
            check += res.judge(ohram, f"{name} seed {run_seed}",
                               result.history, result.invariant_failures,
                               bruteforce=True)
            res.account(result)
        f = res.speed.factor()
        res.setup_s.append(setup * f)
        res.check_s += check * f
        for name, chunk in block.items():
            res.add_chunk(name, chunk.scale(f))
    res.wall_s = time.perf_counter() - start
    return res


# -- sim-long --

def long_programs(seed: int, cycle: int, name: str, ops: int, ohram):
    """Config, per-client programs, crash victims and scheduler seed."""
    rng = random.Random(f"long:{seed}:{cycle}:{name}")
    mode = ohram.get_protocol(name).mode
    config = ohram.Config(n_servers=5, n_readers=LONG_READERS,
                          n_writers=1 if mode == "swmr" else 3, f=2, mode=mode)
    programs = {}
    for pid in config.writers():
        programs[pid] = [("write", f"{pid}-{i}") for i in range(ops)]
    for pid in config.readers():
        programs[pid] = [("read", None)] * ops
    victims = rng.sample(config.servers(), LONG_CRASHES)
    return config, programs, victims, rng.randrange(1 << 30)


def sim_long(ohram, seed: int, seconds: int, tracer=None) -> Result:
    res = Result(Speed(), digest=hashlib.sha256())
    ops = min(LONG_MAX_OPS_PER_CLIENT, 10 * seconds)
    cycles = max(1, round(seconds / LONG_SECONDS_PER_CYCLE))
    start = time.perf_counter()
    for cycle in range(cycles):
        for name in SOUND_PROTOCOLS:
            t0 = time.perf_counter()
            config, programs, victims, run_seed = long_programs(
                seed, cycle, name, ops, ohram)
            net = ohram.SimNet(name, config, seed=run_seed)
            net.pending_crashes = list(victims)
            res.setup_s.append((time.perf_counter() - t0) * res.speed.factor())
            # The history is built in slices: each run_seeded call runs
            # until the clients' loaded ops are done and the network is
            # quiet. Server state, the scheduler's RNG and the history
            # carry over, and slices are short enough for the speed
            # factor to follow the machine.
            for lo in range(0, ops, LONG_SLICE_OPS):
                for pid, program in programs.items():
                    net.load_program(pid, program[lo:lo + LONG_SLICE_OPS])
                before = net.result()
                done, events = len(before.history), before.events
                t0 = time.perf_counter()
                try:
                    net.run_seeded()
                except ohram.StuckExecution as e:
                    res.notes.append(f"{name} long run {cycle}: stuck: {e}")
                    break
                finally:
                    wall = time.perf_counter() - t0
                    after = net.result()
                    chunk = Chunk()
                    chunk.add_run(after.history[done:],
                                  after.events - events, wall)
                    res.add_chunk(name, chunk.scale(res.speed.factor()))
            result = net.result()
            if tracer is not None:
                res.state[family(name)].append(
                    state_entries(net.servers.values()))
            check = res.judge(ohram, f"{name} long run {cycle}",
                              result.history, result.invariant_failures)
            res.check_s += check * res.speed.factor()
            res.account(result)
    res.wall_s = time.perf_counter() - start
    return res


# -- live-swmr --

class Cluster:
    """In-process server daemons plus one writer and one reader client."""

    def __init__(self, ohram, protocol: str, n: int, seed: int):
        self.config = ohram.Config(n_servers=n, n_readers=1, n_writers=1,
                                   f=(n - 1) // 2, mode="swmr")
        self.daemons = [ohram.ServerDaemon(s, self.config, protocol)
                        for s in self.config.servers()]
        membership = {d.pid: d.address for d in self.daemons}
        for d in self.daemons:
            d.start(membership)
        self.writer = ohram.Client(self.config.writers()[0], self.config,
                                   protocol, membership)
        self.reader = ohram.Client(self.config.readers()[0], self.config,
                                   protocol, membership)
        self.label = f"s{seed}"
        self.writes = 0
        # warm-up: one op per client; both stay in the checked history
        self.write()
        self.reader.read()

    def write(self):
        self.writes += 1
        return self.writer.write(f"{self.label}-{self.writes}")

    def segment(self, ops: int, errors: list) -> Chunk:
        """Closed loop: the writer and the reader each run `ops` ops."""
        before = len(self.writer.history), len(self.reader.history)

        def loop(op):
            try:
                for _ in range(ops):
                    op()
            except Exception as e:  # the client's remaining ops count as failed
                errors.append(e)

        threads = [threading.Thread(target=loop, args=(self.write,)),
                   threading.Thread(target=loop, args=(self.reader.read,))]
        c0, t0 = time.process_time(), time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        chunk = Chunk(wall_s=time.perf_counter() - t0,
                      cpu_s=time.process_time() - c0)
        for recs, out in ((self.writer.history[before[0]:], chunk.write_ms),
                          (self.reader.history[before[1]:], chunk.read_ms)):
            out.extend((r.responded - r.invoked) / 1e6 for r in recs)
            chunk.records += recs
        chunk.ops = len(chunk.records)
        return chunk

    def history(self, ohram):
        return ohram.merge_histories(self.writer.history, self.reader.history)

    def close(self) -> None:
        self.writer.close()
        self.reader.close()
        for d in self.daemons:
            d.stop()


def live_swmr(ohram, seed: int, seconds: int, tracer=None) -> Result:
    res = Result(Speed())
    ops = min(LIVE_MAX_OPS_PER_SEGMENT, 10 * seconds)
    epochs = max(1, round(seconds / LIVE_SECONDS_PER_EPOCH))
    order = list(LATENCY_PROTOCOLS)
    rng = random.Random(f"live:{seed}")
    start = time.perf_counter()
    for epoch in range(epochs):
        t0 = time.perf_counter()
        clusters = {p: Cluster(ohram, p, LIVE_SERVERS, seed) for p in order}
        res.setup_s.append((time.perf_counter() - t0) * res.speed.factor())
        try:
            for _ in range(LIVE_SEGMENTS_PER_EPOCH):
                rng.shuffle(order)  # neither protocol always runs first
                for p in order:
                    errors = []
                    if tracer is not None:
                        tracer.family = family(p)
                    chunk = clusters[p].segment(ops, errors)
                    res.add_chunk(p, chunk.scale(res.speed.factor()))
                    res.attempted += 2 * ops
                    res.failed += 2 * ops - chunk.ops
                    res.notes += [f"{p}: {e!r}" for e in errors]
            for p, cluster in clusters.items():
                res.attempted += 2  # warm-up ops
                check = res.judge(ohram, f"{p} epoch {epoch}",
                                  cluster.history(ohram))
                res.check_s += check * res.speed.factor()
            if tracer is not None:
                # operation ids restart with every cluster: take this
                # epoch's per-operation costs out before the next one
                for p, cluster in clusters.items():
                    for chunk in res.chunks[p][-LIVE_SEGMENTS_PER_EPOCH:]:
                        chunk.costs = tracer.take_ops(family(p), chunk.records)
                res.state["ohsam"].append(state_entries(
                    d.machine for d in clusters["ohsam"].daemons))
                tracer.per_op.clear()
        finally:
            for cluster in clusters.values():
                cluster.close()
    res.wall_s = time.perf_counter() - start
    return res


def n1_read_p50_ms(ohram, seed: int) -> float:
    """Read p50 on a one-server cluster: the runner's floor, no quorum."""
    cluster = Cluster(ohram, "ohsam", 1, seed)
    try:
        chunk = cluster.segment(N1_OPS, [])
    finally:
        cluster.close()
    return statistics.median(chunk.read_ms)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


WORKLOADS = {
    "sim-corpus": sim_corpus,
    "sim-long": sim_long,
    "live-swmr": live_swmr,
}
