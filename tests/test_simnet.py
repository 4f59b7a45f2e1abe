"""Simulator: determinism, crash semantics, metrics, scripted schedules."""

import hashlib
import json
import random
import tracemalloc
from types import SimpleNamespace

import pytest

import ohram.simnet as simnet
from ohram.abd import AbdReaderState
from ohram.checker import Verdict, check_history, judge
from ohram.core import (
    BOTTOM,
    KIND_DISCOVER,
    KIND_DISCOVER_ACK,
    KIND_READ_ACK,
    KIND_READ_RELAY,
    KIND_READ_REQUEST,
    KIND_WRITE_ACK,
    KIND_WRITE_RELAY,
    KIND_WRITE_REQUEST,
    MESSAGE_KINDS,
    Config,
    FaultBudgetExceeded,
    Message,
    ModeMismatch,
    NotWellFormed,
    OhramError,
    ROLE_SERVER,
    ScheduleUnresolvable,
    StuckExecution,
    Tag,
    config_to_json,
    make_value,
    parse_pid,
    reader_id,
    server_id,
    writer_id,
)
from ohram.naive3x import Relay
from ohram.ohsam import ReaderStateS, Replica, ServerStateS, WriterStateS
from ohram.protocols import PROTOCOL_NAMES, get_protocol
from ohram.simnet import (
    Monitor,
    SimNet,
    history_from_json,
    run_script,
    simulate,
)

SWMR3 = Config(n_servers=3, n_readers=1, n_writers=1, f=1, mode="swmr")
MWMR3 = Config(n_servers=3, n_readers=1, n_writers=2, f=1)


def sequential_run(protocol, config, ops, seed=0, **kw):
    net = SimNet(protocol, config, seed=seed, **kw)
    for pid_text, kind, label in ops:
        pid = parse_pid(pid_text)
        net.load_program(pid, [(kind, label)])
        net.invoke_next(pid)
        net.drain()
    net._finish()
    return net.result()


def test_failure_free_message_counts_at_five_servers():
    cfg = Config(n_servers=5, n_readers=1, n_writers=1, f=0, mode="swmr")
    result = sequential_run("ohsam", cfg, [("w1", "write", "A"),
                                           ("r1", "read", None)])
    by_kind = {m.kind: m for m in result.metrics.values()}
    assert by_kind["write"].messages == 10
    assert by_kind["write"].exchanges == 2
    assert by_kind["read"].messages == 35
    assert by_kind["read"].exchanges == 3


def test_exchange_kinds_are_what_traveled():
    """Each op's tally names the kinds its messages carried. The cases
    cover all eight MESSAGE_KINDS, and a finished run's OpMetrics keeps
    no container, so a per-op set cannot come back unnoticed."""
    cases = [
        ("abd-mwmr", MWMR3, "write",
         {"discover", "discoverAck", "writeRequest", "writeAck"}),
        ("abd-mwmr", MWMR3, "read",
         {"readRequest", "readAck", "writeRequest", "writeAck"}),
        ("ohsam", SWMR3, "read", {"readRequest", "readRelay", "readAck"}),
        ("ohmam", MWMR3, "write",
         {"discover", "discoverAck", "writeRequest", "writeAck"}),
        ("naive3x", MWMR3, "write",
         {"writeRequest", "writeRelay", "writeAck"}),
    ]
    for protocol, config, kind, want in cases:
        result = sequential_run(protocol, config, [("w1", "write", "A"),
                                                   ("r1", "read", None)])
        by_kind = {m.kind: m for m in result.metrics.values()}
        dumped = {m["kind"]: m for m in result.to_json()["metrics"].values()}
        assert set(dumped[kind]["exchange_kinds"]) == want, (protocol, kind)
        assert by_kind[kind].exchanges == len(want), (protocol, kind)
        assert result.invariant_failures == [], protocol
        for m in result.metrics.values():
            for slot in type(m).__slots__:
                assert type(getattr(m, slot)) in (str, int), (protocol, slot)
    assert set().union(*(want for *_, want in cases)) == set(MESSAGE_KINDS)


@pytest.mark.parametrize("n", [3, 5, 7])
@pytest.mark.parametrize("protocol", PROTOCOL_NAMES)
def test_a_fifo_drain_is_the_unit_delay_schedule(protocol, n):
    """A drain delivers in send order, and so in order of depth, as a
    network whose every message takes one time unit would: each drained
    op, a write and then a read, completes on a delivery at depth
    len(chain), the exchanges its tally records, so the op took that
    many units of delay."""
    bundle = get_protocol(protocol)
    config = Config(n_servers=n, n_readers=1,
                    n_writers=1 if bundle.mode == "swmr" else 2,
                    f=(n - 1) // 2, mode=bundle.mode)
    net = SimNet(protocol, config, seed=0)
    deliver = net.deliver
    for pid, kind, label in ((writer_id(1), "write", "A"),
                             (reader_id(1), "read", None)):
        net.load_program(pid, [(kind, label)])
        op = net.invoke_next(pid)
        rec = net.history[-1]
        depths, completing = [], []

        def traced(entry):
            depths.append(entry[2])
            pending = rec.responded is None
            deliver(entry)
            if pending and rec.responded is not None:
                completing.append(entry[2])

        net.deliver = traced
        net.drain()
        assert depths == sorted(depths), (kind, depths)
        assert completing == [len(bundle.chain(kind))], kind
        assert net.metrics[op].exchanges == len(bundle.chain(kind)), kind
    assert net.invariant_failures == []


def test_same_seed_same_bytes():
    a = simulate("ohmam", MWMR3, 42, max_ops=8)
    b = simulate("ohmam", MWMR3, 42, max_ops=8)
    assert a.dumps() == b.dumps()


def test_different_seeds_diverge_somewhere():
    dumps = {simulate("ohsam", SWMR3, seed, max_ops=6).dumps()
             for seed in range(8)}
    assert len(dumps) > 1


def test_a_seeded_run_needs_a_seed():
    """A net made with no seed has no generator to draw a schedule from:
    run_seeded refuses it, and nothing runs."""
    net = SimNet("ohsam", SWMR3)
    net.load_program(writer_id(1), [("write", "A")])
    with pytest.raises(ModeMismatch, match="run_seeded needs a seed"):
        net.run_seeded()
    assert net.history == []


def test_crash_before_first_step_leaves_a_silent_majority_system():
    """One server dead from the start: every op still completes."""
    net = SimNet("ohsam", SWMR3, seed=0)
    net.crash(server_id(3))
    net.load_program(parse_pid("w1"), [("write", "A")])
    net.load_program(parse_pid("r1"), [("read", None)])
    net.invoke_next(parse_pid("w1"))
    net.drain()
    net.invoke_next(parse_pid("r1"))
    net.drain()
    net._finish()
    result = net.result()
    assert [r.kind for r in result.history] == ["write", "read"]
    assert all(r.responded is not None for r in result.history)
    assert result.history[1].value == result.history[0].value
    assert result.crashed == [server_id(3)]


def test_crash_discards_queued_deliveries_to_the_victim():
    net = SimNet("ohsam", SWMR3, seed=0)
    net.load_program(parse_pid("w1"), [("write", "A")])
    net.invoke_next(parse_pid("w1"))
    assert sum(1 for dest, *_ in net.inflight if dest is server_id(2)) == 1
    net.crash(server_id(2))
    assert all(dest is not server_id(2) for dest, *_ in net.inflight)
    net.drain()
    net._finish()


def test_sends_to_crashed_servers_still_count_as_messages():
    # wire cost is paid by the sender whether or not anyone listens
    net = SimNet("ohsam", SWMR3, seed=0)
    net.crash(server_id(3))
    net.load_program(parse_pid("w1"), [("write", "A")])
    op = net.invoke_next(parse_pid("w1"))
    net.drain()
    net._finish()
    m = net.result().metrics[op]
    assert m.messages == 5  # 3 requests out (one wasted), 2 acks back


def test_crash_budget_is_enforced():
    net = SimNet("ohsam", SWMR3, seed=0)
    net.crash(server_id(1))
    with pytest.raises(FaultBudgetExceeded):
        net.crash(server_id(2))


def test_crash_rejects_non_servers_and_repeats():
    net = SimNet("ohsam", SWMR3, seed=0)
    with pytest.raises(ScheduleUnresolvable):
        net.crash(parse_pid("r1"))
    net.crash(server_id(1))
    with pytest.raises(ScheduleUnresolvable):
        net.crash(server_id(1))


def test_step_budget_turns_livelock_into_an_error(monkeypatch):
    monkeypatch.setattr(simnet, "STEP_BUDGET", 5)
    with pytest.raises(StuckExecution):
        simulate("ohsam", SWMR3, 0, max_ops=4)


def test_hunt_counts_a_stuck_run_and_shrinks_it_to_a_stuck_replay(
        monkeypatch):
    monkeypatch.setattr(simnet, "STEP_BUDGET", 5)
    seed, reason, shrunk = simnet.hunt("ohsam", SWMR3, range(3), max_ops=4)
    assert seed == 0
    assert reason.startswith("stuck: "), reason
    # one invoke and the drain after it outrun the budget
    assert len(shrunk) == 1 and "invoke" in shrunk[0], shrunk
    with pytest.raises(StuckExecution):
        SimNet("ohsam", SWMR3).run_directives(shrunk)


@pytest.mark.parametrize("n", [3, 5])
@pytest.mark.parametrize(
    "protocol", [p for p in PROTOCOL_NAMES if get_protocol(p).sound])
def test_hunt_finds_no_failure_in_a_sound_protocol(protocol, n):
    """200 seeds under the default crash plan: no run is stuck, breaks an
    invariant or checks non-atomic."""
    mode = get_protocol(protocol).mode
    config = Config(n_servers=n, n_readers=2,
                    n_writers=1 if mode == "swmr" else 2,
                    f=(n - 1) // 2, mode=mode)
    assert simnet.hunt(protocol, config, range(200)) is None


def test_seeded_runs_have_no_unfinished_ops():
    for seed in range(30):
        result = simulate("ohmam", MWMR3, seed, max_ops=10)
        assert all(r.responded is not None for r in result.history)


def test_history_json_round_trip():
    result = simulate("ohmam", MWMR3, 7, max_ops=6)
    loaded = history_from_json(json.loads(result.dumps()))
    assert [(str(r.op), r.kind, r.invoked, r.responded, r.tag, r.value)
            for r in loaded] == \
           [(str(r.op), r.kind, r.invoked, r.responded, r.tag, r.value)
            for r in result.history]


HEADER = json.dumps({"protocol": "ohsam",
                     "config": {"n_servers": 3, "n_readers": 1,
                                "n_writers": 1, "f": 1, "mode": "swmr"}})


def test_script_requires_a_header():
    with pytest.raises(ScheduleUnresolvable):
        run_script('{"invoke": {"client": "w1", "kind": "write"}}\n')


def test_script_rejects_non_json_lines():
    with pytest.raises(ScheduleUnresolvable):
        run_script(HEADER + "\nnot json\n")


def test_script_rejects_unknown_directives():
    with pytest.raises(ScheduleUnresolvable):
        run_script(HEADER + '\n{"explode": true}\n')


def test_script_deliver_must_match_exactly_one_message():
    lines = [
        HEADER,
        json.dumps({"invoke": {"client": "w1", "kind": "write", "label": "A"}}),
        json.dumps({"deliver": {"kind": "writeAck"}}),  # nothing in flight yet
    ]
    with pytest.raises(ScheduleUnresolvable):
        run_script("\n".join(lines) + "\n")


def test_script_deliver_rejects_ambiguous_selectors():
    header = json.dumps({"protocol": "ohmam",
                         "config": {"n_servers": 3, "n_readers": 1,
                                    "n_writers": 2, "f": 1, "mode": "mwmr"}})
    lines = [
        header,
        json.dumps({"invoke": {"client": "w1", "kind": "write", "label": "A"}}),
        json.dumps({"invoke": {"client": "w2", "kind": "write", "label": "B"}}),
        json.dumps({"deliver": {"kind": "discover", "to": "s1"}}),  # two match
    ]
    with pytest.raises(ScheduleUnresolvable):
        run_script("\n".join(lines) + "\n")


def test_script_auto_drains_at_end_of_file():
    lines = [
        HEADER,
        "# a comment line",
        json.dumps({"invoke": {"client": "w1", "kind": "write", "label": "A"}}),
    ]
    result = run_script("\n".join(lines) + "\n")
    assert [r.kind for r in result.history] == ["write"]
    assert result.history[0].responded is not None


def test_script_crash_directive_applies_budget():
    lines = [
        HEADER,
        json.dumps({"crash": {"server": "s1"}}),
        json.dumps({"crash": {"server": "s2"}}),
    ]
    with pytest.raises(FaultBudgetExceeded):
        run_script("\n".join(lines) + "\n")


@pytest.mark.parametrize("directive", [
    {"invoke": {"client": "w1", "kind": "read"}},
    {"invoke": {"client": "r1", "kind": "write", "label": "A"}},
    {"invoke": {"client": "r1", "kind": "bogus"}},
    {"invoke": {"client": "r1", "kind": "read", "label": "A"}},
    {"invoke": {"client": "w1", "kind": "write"}},
    {"invoke": {"client": "w1", "kind": "write", "label": 7}},
    {"invoke": {"client": "w1"}},
    {"invoke": {"kind": "read"}},
    {"invoke": {"client": "w2", "kind": "write", "label": "A"}},
    {"invoke": {"client": "x1", "kind": "read"}},
    {"invoke": "w1"},
    {"crash": {}},
    {"crash": {"server": "s4"}},
    {"crash": {"server": "r1"}},
    {"deliver": "writeRequest"},
    ["invoke"],
])
def test_script_rejects_malformed_directives_by_number(directive):
    lines = [HEADER, json.dumps({"drain": True}), json.dumps(directive)]
    with pytest.raises(ScheduleUnresolvable, match="directive 2"):
        run_script("\n".join(lines) + "\n")


@pytest.mark.parametrize("directive", [
    {"invoke": {"client": "r1", "kind": "read"}, "crash": {"server": "s1"}},
    {"deliver": {"kind": "writeRequest", "to": "s1"}, "drain": True},
    {"deliver": {"kind": "writeRequest", "to": "s1", "dest": "s2"}},
    {"invoke": {"client": "r1", "kind": "read", "lable": "A"}},
    {"crash": {"server": "s1", "at": 3}},
    {"deliver": {"kind": "writeRequest", "to": "s1", "seq": True}},
    {"deliver": {"kind": "writeRequest", "to": "s1", "seq": 1.0}},
    {"drain": False},
], ids=["two directives", "deliver and drain", "deliver dest",
        "invoke misspelt label", "crash at", "seq true", "seq float",
        "drain false"])
def test_script_rejects_undocumented_keys_and_values_by_number(directive):
    """With w1's three writeRequests in flight, each directive could run
    if its extra key or odd value were dropped or coerced."""
    lines = [HEADER,
             json.dumps({"invoke": {"client": "w1", "kind": "write",
                                    "label": "A"}}),
             json.dumps(directive)]
    with pytest.raises(ScheduleUnresolvable, match="directive 2"):
        run_script("\n".join(lines) + "\n")


def test_script_refuses_to_invoke_a_busy_client_by_number():
    """w1's write is in flight when the second directive invokes w1
    again: refused by number, and the second write is never queued."""
    net = SimNet("ohsam", SWMR3)
    write = {"invoke": {"client": "w1", "kind": "write", "label": "A"}}
    with pytest.raises(NotWellFormed,
                       match="directive 2: w1 already has an operation "
                             "in flight"):
        net.run_directives([write, write])
    assert net.programs[writer_id(1)] == []
    assert [r.op.seq for r in net.history] == [1]


_NAIVE3X_CONFIG = {"n_servers": 3, "n_readers": 1, "n_writers": 2, "f": 1,
                   "mode": "mwmr"}


@pytest.mark.parametrize("lines, error, match", [
    ([["protocol", "config"]], ScheduleUnresolvable, "header"),
    ([{"protocol": ["ohsam"], "config": json.loads(HEADER)["config"]}],
     ScheduleUnresolvable, "header"),
    ([{"protocol": "ohsam", "config": "abc"}], ScheduleUnresolvable, "header"),
    ([{"protocol": "ohsam", "config": {"n_servers": 3, "n_writers": 1,
                                       "f": 1, "mode": "swmr"}}],
     ScheduleUnresolvable, "n_readers"),
    ([{"protocol": "naive3x", "config": _NAIVE3X_CONFIG, "x": "2"}],
     ScheduleUnresolvable, "x must be an integer"),
    ([json.loads(HEADER), {"drain": True}, {"crash": {"server": "s1"}},
      {"crash": {"server": "s1"}}], ScheduleUnresolvable, "directive 3"),
    ([json.loads(HEADER), {"crash": {"server": "s1"}}, {"drain": True},
      {"crash": {"server": "s2"}}], FaultBudgetExceeded, "directive 3"),
], ids=["list header", "protocol list", "config string", "no n_readers",
        "string x", "repeated crash", "crash past f"])
def test_script_rejects_a_bad_header_or_crash_with_its_own_error(
        lines, error, match):
    text = "\n".join(json.dumps(line) for line in lines) + "\n"
    with pytest.raises(error, match=match):
        run_script(text)


def test_script_that_delivers_everything_is_held_to_the_step_budget(
        monkeypatch):
    lines = [HEADER, json.dumps({"invoke": {"client": "w1", "kind": "write",
                                            "label": "A"}})]
    for kind in ("writeRequest", "writeAck"):
        for s in ("s1", "s2", "s3"):
            end = "to" if kind == "writeRequest" else "from"
            lines.append(json.dumps({"deliver": {"kind": kind, end: s}}))
    script = "\n".join(lines) + "\n"
    assert run_script(script).events == 7
    monkeypatch.setattr(simnet, "STEP_BUDGET", 5)
    with pytest.raises(StuckExecution):
        run_script(script)


def test_scripted_and_seeded_runs_share_the_metrics_shape():
    lines = [
        HEADER,
        json.dumps({"invoke": {"client": "r1", "kind": "read"}}),
        json.dumps({"drain": True}),
    ]
    result = run_script("\n".join(lines) + "\n")
    (m,) = result.metrics.values()
    assert m.kind == "read"
    assert m.messages == 15
    assert m.exchanges == 3


# sha256 per protocol over the dumps below, recorded before the seeded
# scheduler was rewritten; a change here means the seed -> schedule
# mapping moved, or that protocol's machines answer differently
GOLDEN_CORPUS_SHA256 = {
    "ohsam":
        "3629b5b233d2173c9181e16c34e2874f28602f4e10abf78c0e43cd22817c3266",
    "ohmam":
        "73aba2f01d9d2317d216f66e97d064b6fed81d5eb257652b6f7c286810a28676",
    "abd-swmr":
        "be1faa569b8e89245b2317bd17a825e279b19c38f0ba5e0382ce27f626b4bd62",
    "abd-mwmr":
        "8695ee0f0e6a58f0ec02aa1b5a0e30ff39315b042f2fc818ba890268f6fe4810",
    "naive3x":
        "7ccc3946a9846e8b6f6a97494c141db9f23a3810003b3225dfa90c2907cfa366",
}
GOLDEN_SLICED_SHA256 = {
    "ohsam":
        "225b5ef0dd2c58a5363018cb7462bd0b57e6c3dd98cdd0e301c0b3d4337bee58",
    "ohmam":
        "6816dd8339fe20f0b48a2dfea5bc38e7454628f313a1120f1aa666b8e76fe32e",
    "abd-swmr":
        "eeb2f6e78a4b4a3b238ea62182d3d1c39a1ff570c2b1bfe9a75700e6ecd0ca91",
    "abd-mwmr":
        "d952e18f7db2428889f49fab369a8a9ba8bde30821f22650d21f50d131faf6e5",
}


def _golden_corpus():
    for name in PROTOCOL_NAMES:
        mode = get_protocol(name).mode
        for n in (3, 5, 7):
            config = Config(n_servers=n, n_readers=3,
                            n_writers=1 if mode == "swmr" else 3,
                            f=(n - 1) // 2, mode=mode)
            for seed in range(8):
                yield simulate(name, config, seed, max_ops=12)


def _golden_sliced():
    """Long-run style: crashes assigned directly, programs fed in slices.
    Yields (protocol, dump) per slice."""
    for name in ("ohsam", "ohmam", "abd-swmr", "abd-mwmr"):
        mode = get_protocol(name).mode
        config = Config(n_servers=5, n_readers=5,
                        n_writers=1 if mode == "swmr" else 3, f=2, mode=mode)
        net = SimNet(name, config, seed=11)
        net.pending_crashes = [server_id(4), server_id(2)]
        for lo in range(0, 12, 4):
            for pid in config.writers():
                net.load_program(pid, [("write", f"{pid}-{i}")
                                       for i in range(lo, lo + 4)])
            for pid in config.readers():
                net.load_program(pid, [("read", None)] * 4)
            net.run_seeded()
            # result() shares the history list: dump it before the next slice
            yield name, net.result().dumps()


def _sha256_by_protocol(dumps) -> dict[str, str]:
    """sha256 over each protocol's dumps, from (protocol, dump) pairs."""
    digests = {}
    for name, text in dumps:
        digest = digests.setdefault(name, hashlib.sha256())
        digest.update(text.encode())
        digest.update(b"\n")
    return {name: digest.hexdigest() for name, digest in digests.items()}


def test_seeded_dumps_match_golden_hashes():
    corpus = list(_golden_corpus())
    assert sum(1 for r in corpus if r.crashed) > len(corpus) // 4
    assert _sha256_by_protocol(
        (r.protocol, r.dumps()) for r in corpus) == GOLDEN_CORPUS_SHA256
    sliced = list(_golden_sliced())
    assert all('"crashed":["s2","s4"]' in text for _, text in sliced)
    assert _sha256_by_protocol(sliced) == GOLDEN_SLICED_SHA256


def test_every_completed_golden_op_takes_exactly_its_chain():
    """Over the golden runs, naive3x's included, no message leaves its
    op's chain, and each completed op's exchanges, the largest causal
    depth among its messages, equal its chain's length: the paper's
    count of sequential message delays."""
    dumps = [(r.protocol, r.dumps()) for r in _golden_corpus()]
    dumps += list(_golden_sliced())
    completed = 0
    for name, text in dumps:
        run = json.loads(text)
        assert run["invariant_failures"] == [], name
        for rec in run["history"]:
            if rec["responded"] is not None:
                m = run["metrics"]["{invoker}#{seq}".format(**rec["op"])]
                chain = get_protocol(name).chain(m["kind"])
                assert m["exchanges"] == len(chain), (name, rec)
                completed += 1
    assert completed > 1000


SOUND = ("ohsam", "ohmam", "abd-swmr", "abd-mwmr")


def _long_net(name):
    """A net run like the benchmark's sim-long: n=5, 20 readers, 80 ops
    per client loaded in slices of 10, two victims."""
    mode = get_protocol(name).mode
    config = Config(n_servers=5, n_readers=20,
                    n_writers=1 if mode == "swmr" else 3, f=2, mode=mode)
    net = SimNet(name, config, seed=11)
    net.pending_crashes = [server_id(2), server_id(5)]
    for lo in range(0, 80, 10):
        for pid in config.writers():
            net.load_program(pid, [("write", f"{pid}-{i}")
                                   for i in range(lo, lo + 10)])
        for pid in config.readers():
            net.load_program(pid, [("read", None)] * 10)
        net.run_seeded()
    return net


def test_the_relay_monitor_keeps_one_tag_per_server_through_a_long_run():
    """The monitor's relay state does not grow with the run, and a sound
    server's tag is never below the largest relay tag it received."""
    net = _long_net("ohsam")
    assert len(net.history) >= 1680 and len(net.crashed) == 2
    assert not net.invariant_failures
    assert set(net.monitor.relay_high) == set(net.servers)
    for pid, server in net.servers.items():
        high = net.monitor.relay_high[pid]
        assert type(high) is Tag and server.tag >= high
        assert pid in net.crashed or high.ts > 0


@pytest.mark.parametrize("protocol", SOUND)
def test_monitor_and_server_state_stay_bounded(protocol):
    """Through a long run the read monitor keeps at most one seq per
    reader for each server, as the servers' own read tables keep at
    most one entry per reader."""
    net = _long_net(protocol)
    config = net.config
    assert len(net.history) >= 1680 and not net.invariant_failures
    for pid, server in net.servers.items():
        assert len(net.monitor.read_acked[pid]) <= config.n_readers
        assert len(getattr(server, "reads", {})) <= config.n_readers
    assert max(map(len, net.monitor.read_acked.values())) == config.n_readers


def _one_shot(result):
    return json.dumps(result.to_json(), sort_keys=True, separators=(",", ":"))


@pytest.mark.parametrize("name", SOUND)
def test_dumps_of_a_long_run_are_the_one_shot_bytes(name):
    result = _long_net(name).result()
    assert len(result.history) >= 1680 and len(result.crashed) == 2
    assert result.dumps() == _one_shot(result)



def test_dumps_of_edge_runs_are_the_one_shot_bytes():
    """A scripted run (seed null, a value to escape), crashes with
    invariant failures, and a run with no history."""
    script = run_script(HEADER + "\n" + json.dumps(
        {"invoke": {"client": "w1", "kind": "write", "label": "é\"\\"}}))
    assert script.seed is None
    failed = simulate("abd-mwmr", MWMR3, 7, max_ops=6, victims=[server_id(2)])
    failed.invariant_failures = ["s1: tag went back", "r1: \u2192 twice"]
    assert failed.crashed and failed.invariant_failures
    empty = SimNet("ohmam", MWMR3, seed=3).result()
    assert empty.history == [] and empty.metrics == {}
    for result in (script, failed, empty):
        assert result.dumps() == _one_shot(result)


def test_dumps_peak_memory_stays_a_small_multiple_of_its_output():
    """dumps() holds about twice its output at its peak.

    tracemalloc peak over len(output) on the four sound protocols' long
    runs: 2.0 on Python 3.11 and 3.13. The one-shot
    json.dumps(to_json()) it replaced reached 11.6-13.1 on 3.11, where
    the C encoder keeps every output piece until its call returns, and
    5.2-5.4 on 3.13, where the to_json() tree alone is most of it.
    """
    result = _long_net("ohsam").result()
    tracemalloc.start()
    try:
        text = result.dumps()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.5 * len(text)


def _recount_idle(net):
    return {pid for pid, machine in net.clients.items()
            if net.programs[pid] and not machine.busy}


def test_idle_set_equals_a_recount_after_every_step(monkeypatch):
    """The seeded scheduler's idle set, checked after every event.

    Seeded runs get extra operations loaded while they run, at random
    steps and for random clients, busy or not; scripted runs replay the
    shipped schedules.
    """
    steps = 0
    loads = random.Random(5)

    def checked(method, top_up=False):
        def step(net, *args, **kwargs):
            nonlocal steps
            out = method(net, *args, **kwargs)
            if top_up and net.rng is not None and loads.random() < 0.02:
                pid = loads.choice(list(net.clients))
                kind = "write" if pid.role == "writer" else "read"
                net.load_program(pid, [(kind, "L")])
            assert net.idle == _recount_idle(net)
            # _send filters a broadcast, crash drops what was in flight
            assert not any(dest in net.crashed for dest, *_ in net.inflight)
            steps += 1
            return out
        return step

    monkeypatch.setattr(SimNet, "deliver", checked(SimNet.deliver, True))
    monkeypatch.setattr(SimNet, "invoke_next", checked(SimNet.invoke_next))
    monkeypatch.setattr(SimNet, "crash", checked(SimNet.crash))
    monkeypatch.setattr(SimNet, "load_program", checked(SimNet.load_program))
    for name in PROTOCOL_NAMES:
        mode = get_protocol(name).mode
        config = Config(n_servers=5, n_readers=3,
                        n_writers=1 if mode == "swmr" else 2, f=2, mode=mode)
        for seed in range(6):
            simulate(name, config, seed, max_ops=10)
    for script in ("xi1p", "xi2p", "xi3pp", "xi4"):
        simnet.replay_file(f"schedules/{script}.json")
    assert steps > 5000


def test_every_step_sends_one_op_and_one_kind(monkeypatch):
    """SimNet._send tallies an output list under its first message's op:
    each list a machine returns from invoke_* or on_message is one
    broadcast or one reply. Only a repeated readRequest, which no seeded
    or scripted source delivers, brings a sound server's relays and its
    readAck in one list, so the corpus has no list of two kinds either.
    Each op's tally equals a recount of the messages sent under it, every
    message counted by its own op, a broadcast as one per server: in
    every protocol, each phase of an op carries the op's history id,
    which net.metrics already holds."""
    lists = 0
    sent = {}  # net -> {op: messages}
    send = SimNet._send

    def checked(net, msgs, depth):
        nonlocal lists
        assert len({(m.op, m.kind) for m in msgs}) <= 1, msgs
        lists += bool(msgs)
        counts = sent.setdefault(net, {})
        for m in msgs:
            assert m.op in net.metrics, m
            copies = len(net.servers) if m.destination is None else 1
            counts[m.op] = counts.get(m.op, 0) + copies
        return send(net, msgs, depth)

    monkeypatch.setattr(SimNet, "_send", checked)
    corpus = list(_golden_corpus())
    assert {r.protocol for r in corpus} == set(PROTOCOL_NAMES)
    list(_golden_sliced())
    assert lists > 8000
    assert len(sent) == len(corpus) + 4
    assert {net.bundle.name for net in sent} == set(PROTOCOL_NAMES)
    for net, counts in sent.items():
        assert counts == {op: m.messages for op, m in net.metrics.items()}


def test_message_shapes_over_the_golden_corpus(monkeypatch):
    """Machines build messages positionally, so pin each field's place:
    every request and relay is a broadcast, a relay is sent by a server,
    every ack goes to the operation's invoker, tags are Tags where a kind
    carries one, and only naive3x relays are Relays, with observations."""
    kinds = set()
    send = SimNet._send

    def checked(net, msgs, depth):
        for m in msgs:
            kinds.add(m.kind)
            relay = m.kind in (KIND_READ_RELAY, KIND_WRITE_RELAY)
            if relay:
                assert m.sender.role == ROLE_SERVER, m
            if m.kind in (KIND_READ_ACK, KIND_WRITE_ACK, KIND_DISCOVER_ACK):
                assert m.destination is m.op.invoker, m
            else:
                assert m.destination is None, m
            if m.kind in (KIND_READ_REQUEST, KIND_DISCOVER):
                assert m.tag is None and m.value is None, m
            else:
                assert type(m.tag) is Tag, m
            assert m.value is None or type(m.value) is str, m
            assert isinstance(m, Relay) == (
                relay and net.bundle.name == "naive3x"), m
        return send(net, msgs, depth)

    monkeypatch.setattr(SimNet, "_send", checked)
    list(_golden_corpus())
    list(_golden_sliced())
    assert kinds == set(MESSAGE_KINDS)


def test_uniform_draws_what_randrange_draws():
    """_uniform's inline draw takes the same k from the RNG as
    randrange(total), so the seed -> schedule mapping is the library's."""
    for seed in (0, 1, 11, 1059, 2 ** 40 + 3):
        reference = random.Random(seed)
        net = SimpleNamespace(rng=random.Random(seed), inflight=[], idle=set(),
                              pending_crashes=[], _rank={}, deliver="deliver")
        draws = simnet._uniform(net)
        for total in range(1, 2049):
            # message k sits at index k, so the delivered message is k
            net.inflight[:] = range(total)
            assert next(draws) == ("deliver", reference.randrange(total))


# -- per-step invariants, each fired by a deliberately faulty server --

S1 = server_id(1)


class _Overwrites(ServerStateS):
    """Takes every tag it is sent, larger or not."""

    def _adopt(self, tag, value):
        self.tag, self.value = tag, value


class _AcksEveryRelay(ServerStateS):
    """Answers the reader on every relay, not once at a majority."""

    def on_read_relay(self, msg):
        self._adopt(msg.tag, msg.value)
        return self._reply(KIND_READ_ACK, msg)


class _AnswersInitial(ServerStateS):
    """Answers every request with its initial pair."""

    def _reply(self, kind, msg):
        return [Message(kind, msg.op, self.pid, msg.op.invoker,
                        tag=Tag(0, self.pid), value=BOTTOM)]


class _NeverRetires(ServerStateS):
    """Keeps every read it hears of, so a late relay of an older read
    still brings that read to a majority."""

    def _origins(self, op):
        return self.reads.setdefault(op, set())


class _AcksWriteBack(Replica):
    """Answers a reader's write-back with a readAck."""

    def on_write_request(self, msg):
        self._adopt(msg.tag, msg.value)
        if msg.op.invoker.role == "reader":
            return self._reply(KIND_READ_ACK, msg)
        return self._reply(KIND_WRITE_ACK, msg)


class _AcksEveryRequest(ServerStateS):
    """Answers every readRequest with its relays and a readAck in one
    step, as a sound server answers a repeated one: the readAck last, or
    first when ack_first is set."""

    ack_first = False

    def on_read_request(self, msg):
        relays = super().on_read_request(msg)
        ack = self._reply(KIND_READ_ACK, msg)
        return ack + relays if self.ack_first else relays + ack


class _AcksInitialEveryRequest(_AcksEveryRequest, _AnswersInitial):
    """Answers every readRequest with its relays and a readAck carrying
    its initial pair."""


def _faulty_net(server_class, protocol="ohsam", **fields):
    net = SimNet(protocol, SWMR3, seed=0)
    server = net.servers[S1] = server_class(S1, SWMR3)
    for name, value in fields.items():
        setattr(server, name, value)
    net.load_program(parse_pid("w1"), [("write", "A")])
    net.load_program(parse_pid("r1"), [("read", None)])
    return net


def _take(net, kind, to, sender=None):
    """Take the one in-flight entry of kind to `to` (from sender)."""
    (entry,) = [(dest, m, d) for dest, m, d in net.inflight if m.kind == kind
                and str(dest) == to
                and (sender is None or str(m.sender) == sender)]
    net.inflight.remove(entry)
    return entry


def _deliver(net, kind, to, sender=None):
    entry = _take(net, kind, to, sender)
    net.deliver(entry)
    return entry


@pytest.mark.parametrize("protocol", PROTOCOL_NAMES)
def test_a_sound_protocol_runs_under_a_monitor_sharing_the_failure_list(
        protocol):
    config = SWMR3 if get_protocol(protocol).mode == "swmr" else MWMR3
    net = SimNet(protocol, config, seed=0)
    assert isinstance(net.monitor, Monitor) == net.bundle.sound
    if net.monitor is not None:
        assert net.monitor.failures is net.invariant_failures


class _CompletesTwice(WriterStateS):
    """A faulty writer: once its write completed, every later reply
    hands its completed record back again."""

    def on_message(self, msg):
        if self.record is not None and not self.busy:
            return [], self.record
        return super().on_message(msg)


def test_a_client_that_completes_an_op_twice_is_not_well_formed():
    w1 = writer_id(1)
    net = SimNet("ohsam", SWMR3, seed=0)
    net.clients[w1] = _CompletesTwice(w1, SWMR3)
    net.load_program(w1, [("write", "A")])
    net.invoke_next(w1)
    for to in ("s1", "s2", "s3"):
        _deliver(net, KIND_WRITE_REQUEST, to)
    _deliver(net, KIND_WRITE_ACK, "w1", "s1")
    _deliver(net, KIND_WRITE_ACK, "w1", "s2")  # the quorum: it completes
    (rec,) = net.history
    responded = rec.responded
    assert responded is not None
    with pytest.raises(NotWellFormed, match="unexpected completion for w1#1"):
        _deliver(net, KIND_WRITE_ACK, "w1", "s3")
    assert rec.responded == responded


@pytest.mark.parametrize("protocol", PROTOCOL_NAMES)
def test_a_pending_write_is_recorded_with_its_value(protocol):
    config = SWMR3 if get_protocol(protocol).mode == "swmr" else MWMR3
    net = SimNet(protocol, config, seed=0)
    w1 = writer_id(1)
    net.load_program(w1, [("write", "A"), ("write", "B")])
    for label in "AB":
        op = net.invoke_next(w1)  # no reply delivered yet
        rec = net.history[-1]
        assert (rec.op, rec.kind, rec.responded) == (op, "write", None)
        assert rec.value == make_value(label, op)
        net.drain()


def test_a_read_of_a_pending_write_is_judged_atomic():
    # w1's write reaches s1 and s2 but none of its acks reaches w1, and
    # r1's read, which hears relays from a majority, returns its value
    w1, r1 = writer_id(1), reader_id(1)
    net = SimNet("ohsam", SWMR3, seed=0)
    net.load_program(w1, [("write", "A")])
    net.load_program(r1, [("read", None)])
    net.invoke_next(w1)
    _deliver(net, KIND_WRITE_REQUEST, "s1")
    _deliver(net, KIND_WRITE_REQUEST, "s2")
    net.invoke_next(r1)
    while net.clients[r1].busy:
        entry = next(e for e in net.inflight if e[0] is not w1)
        net.inflight.remove(entry)
        net.deliver(entry)
    write, read = net.history
    assert write.responded is None and read.responded is not None
    assert read.value == write.value == make_value("A", write.op)
    assert check_history(net.history).atomic


def test_finish_names_the_pending_ops_in_invocation_order():
    net = SimNet("ohsam", SWMR3, seed=0)
    net.load_program(reader_id(1), [("read", None)])
    net.load_program(writer_id(1), [("write", "A")])
    net.invoke_next(reader_id(1))
    net.invoke_next(writer_id(1))
    with pytest.raises(StuckExecution,
                       match="operations pending: r1#1, w1#1$"):
        net._finish()


def test_invariant_tag_moved_backwards():
    net = _faulty_net(_Overwrites, tag=Tag(5, writer_id(1)))
    net.invoke_next(parse_pid("w1"))
    _deliver(net, "writeRequest", "s1")
    assert net.invariant_failures == [
        "s1: tag moved backwards (5,w1) -> (1,w1)"]


def test_invariant_second_read_ack():
    net = _faulty_net(_AcksEveryRelay)
    net.invoke_next(parse_pid("r1"))
    _deliver(net, "readRequest", "s1")
    relay = _deliver(net, "readRelay", "s1", "s1")
    assert net.invariant_failures == []
    net.deliver(relay)  # the same relay again
    assert net.invariant_failures == ["s1: second readAck for r1#1"]


def test_invariant_read_ack_below_a_received_relay_tag():
    net = _faulty_net(_AnswersInitial)
    net.invoke_next(parse_pid("w1"))
    _deliver(net, "writeRequest", "s2")
    net.invoke_next(parse_pid("r1"))
    _deliver(net, "readRequest", "s2")
    _deliver(net, "readRequest", "s1")
    _deliver(net, "readRelay", "s1", "s2")
    assert net.invariant_failures == []
    _deliver(net, "readRelay", "s1", "s1")
    assert net.invariant_failures == [
        "s1: readAck tag (0,s1) below received relay tag (1,w1) for r1#1"]


def test_invariant_read_ack_below_a_relay_tag_of_another_read():
    """A readAck is held against every relay tag its server received, not
    only the relay tags of the read it answers."""
    config = SWMR3._replace(n_readers=2)
    net = SimNet("ohsam", config, seed=0)
    s3 = server_id(3)
    net.servers[s3] = _AnswersInitial(s3, config)
    net.load_program(parse_pid("w1"), [("write", "A")])
    net.invoke_next(parse_pid("w1"))
    _deliver(net, "writeRequest", "s1")
    for reader in ("r2", "r1"):
        net.load_program(parse_pid(reader), [("read", None)])
        net.invoke_next(parse_pid(reader))
    # read r2#1 relays the initial tags of s2 and s3, read r1#1 relays
    # s1's (1,w1), and s3 adopts it
    _deliver(net, "readRequest", "s3", "r2")
    _deliver(net, "readRequest", "s2", "r2")
    _deliver(net, "readRequest", "s1", "r1")
    _deliver(net, "readRelay", "s3", "s1")
    _deliver(net, "readRelay", "s3", "s3")
    assert net.invariant_failures == []
    _deliver(net, "readRelay", "s3", "s2")
    assert net.invariant_failures == [
        "s3: readAck tag (0,s3) below received relay tag (1,w1) for r2#1"]


def test_invariant_read_ack_for_a_retired_read():
    """A relaying server answers r1#1 after r1#2: it has retired r1#1."""
    net = _faulty_net(_NeverRetires)
    r1 = parse_pid("r1")
    net.load_program(r1, [("read", None)])
    net.invoke_next(r1)
    for to in ("s2", "s3"):
        _deliver(net, "readRequest", to)
    for to in ("s2", "s3"):
        for sender in ("s2", "s3"):
            _deliver(net, "readRelay", to, sender)
        _deliver(net, "readAck", "r1", to)
    _deliver(net, "readRelay", "s1", "s2")
    # r1#1 is done; hold back its relay from s3 to s1 past r1#2
    late = _take(net, "readRelay", "s1", "s3")
    net.invoke_next(r1)
    for to in ("s2", "s3"):
        _deliver(net, "readRequest", to)
    _deliver(net, "readRelay", "s1", "s2")
    _deliver(net, "readRelay", "s1", "s3")
    assert net.invariant_failures == []
    net.deliver(late)
    assert net.invariant_failures == ["s1: readAck for r1#1 after r1#2"]


def test_invariant_read_ack_to_a_write_back():
    """An ABD server may answer the late readRequest of an older read,
    but not that read's write-back."""
    net = _faulty_net(_AcksWriteBack, protocol="abd-swmr")
    r1 = parse_pid("r1")
    net.load_program(r1, [("read", None)])
    net.invoke_next(r1)
    late = _take(net, "readRequest", "s1")
    for to in ("s2", "s3"):
        _deliver(net, "readRequest", to)
        _deliver(net, "readAck", "r1", to)
    for to in ("s2", "s3"):
        _deliver(net, "writeRequest", to)
        _deliver(net, "writeAck", "r1", to)
    net.invoke_next(r1)
    _deliver(net, "readRequest", "s1")
    net.deliver(late)
    assert net.invariant_failures == []
    _deliver(net, "writeRequest", "s1")
    assert net.invariant_failures == [
        "s1: readAck for r1#1 after r1#2",
        "r1#1: readAck at depth 4 is off its read chain"]


def test_invariant_write_ack_below_the_request_tag():
    net = _faulty_net(_AnswersInitial)
    net.invoke_next(parse_pid("w1"))
    _deliver(net, "writeRequest", "s1")
    assert net.invariant_failures == [
        "s1: writeAck tag (0,s1) below request tag (1,w1) for w1#1"]


class _MaxTagReader(ReaderStateS):
    """Returns the largest tag among its readAcks, not the smallest."""

    def _decide(self):
        best = max(self.replies.values(), key=lambda m: m.tag)
        return best.tag, best.value


class _SkipsWriteBack(AbdReaderState):
    """Returns the largest tag among its readAcks without writing it back."""

    def _on_quorum(self):
        best = max(self.replies.values(), key=lambda m: m.tag)
        return self._done(best.tag, best.value)


@pytest.mark.parametrize("protocol, reader_class", [
    ("ohsam", _MaxTagReader), ("abd-swmr", _SkipsWriteBack)])
def test_a_completion_below_a_majority_is_caught_within_50_seeds(
        protocol, reader_class):
    """A reader that returns a tag fewer than a majority hold breaks the
    majority rule at its completion, in one of the first 50 uniform
    runs at n=3, though a later read rarely exposes it to the checker."""
    config = SWMR3._replace(n_readers=2)
    for seed in range(50):
        net = simnet.seeded_net(protocol, config, seed)
        for pid in config.readers():
            net.clients[pid] = reader_class(pid, config)
        net.run_seeded()
        if net.invariant_failures:
            break
    assert net.invariant_failures
    assert all(" completed with tag " in f for f in net.invariant_failures)


def _recount(monitor, rec):
    """The failures Monitor.completed reports for rec with no bound: a
    full recount of the servers at every completion, the reference."""
    servers, tag = monitor.servers, rec.tag
    held = sum(not s.tag < tag for s in servers.values())
    if held < monitor.quorum:
        return [f"{rec.op}: completed with tag {tag} held by {held} of "
                f"{len(servers)} servers"]
    return []


def _backwards_net(seed):
    """ohsam at n=3 whose servers take every tag they are sent, so a
    stale relay or write-back moves a server's tag back."""
    net = simnet.seeded_net("ohsam", SWMR3._replace(n_readers=2), seed)
    for pid in net.config.servers():
        net.servers[pid] = _Overwrites(pid, net.config)
    return net


def test_the_majority_bound_reports_what_a_full_recount_does(monkeypatch):
    """At every completion of the golden runs, the two mutant readers'
    runs and runs whose server tags move back, Monitor.completed appends
    exactly the failures a full recount finds. Some completions skip the
    recount, some tags move back, and some completions fail."""
    seen = {"completions": 0, "skipped": 0, "failed": 0, "backwards": 0}
    completed, step = Monitor.completed, Monitor.step

    def checked_completed(self, rec):
        want = _recount(self, rec)
        before = len(self.failures)
        seen["skipped"] += not self.held < rec.tag
        completed(self, rec)
        assert self.failures[before:] == want
        seen["completions"] += 1
        seen["failed"] += bool(want)

    def counted_step(self, pid, server, msg):
        before = len(self.failures)
        outs = step(self, pid, server, msg)
        seen["backwards"] += any(" moved backwards " in f
                                 for f in self.failures[before:])
        return outs

    monkeypatch.setattr(Monitor, "completed", checked_completed)
    monkeypatch.setattr(Monitor, "step", counted_step)
    list(_golden_corpus())
    list(_golden_sliced())
    config = SWMR3._replace(n_readers=2)
    for protocol, reader_class in (("ohsam", _MaxTagReader),
                                   ("abd-swmr", _SkipsWriteBack)):
        for seed in range(50):
            net = simnet.seeded_net(protocol, config, seed)
            for pid in config.readers():
                net.clients[pid] = reader_class(pid, config)
            net.run_seeded()
    for seed in range(50):
        _backwards_net(seed).run_seeded()
    assert all(seen.values()), seen
    assert seen["skipped"] < seen["completions"]


class _RelaysEagerly(ServerStateS):
    """Relays on its first contact with a read, its request or any relay,
    and never answers a request, only relays: a relay it sends on a relay
    lies one exchange deeper than the read's chain allows."""

    def on_message(self, msg):
        if msg.kind not in (KIND_READ_REQUEST, KIND_READ_RELAY):
            return super().on_message(msg)
        entry = self.reads.get(msg.op.invoker)
        first = entry is None or entry[0] < msg.op.seq
        if msg.kind == KIND_READ_RELAY:
            out = self.on_read_relay(msg)
        else:
            self._origins(msg.op)
            out = []
        if first:
            out = [Message(KIND_READ_RELAY, msg.op, self.pid, None, self.tag,
                           self.value)] + out
        return out


def _eager(net):
    for pid in net.config.servers():
        net.servers[pid] = _RelaysEagerly(pid, net.config)
    return net


@pytest.mark.parametrize("n", [3, 5])
def test_an_eager_relay_is_caught_within_5_seeds(n):
    """A failure-free drained read of the eager-relay server takes 3
    exchanges and the read's messages, as ohsam's does, so a count of
    the kinds an op sent passes it. Under the uniform source its reads
    go deeper, and the chain check names the first relay at depth 3."""
    config = Config(n_servers=n, n_readers=2, n_writers=1, f=(n - 1) // 2,
                    mode="swmr")
    drained = _eager(SimNet("ohsam", config, seed=0))
    drained.load_program(parse_pid("r1"), [("read", None)])
    drained.invoke_next(parse_pid("r1"))
    drained.drain()
    (m,) = drained.metrics.values()
    assert (m.exchanges, m.messages) == (3, n * n + 2 * n)
    assert drained.history[0].responded is not None
    assert drained.invariant_failures == []
    for seed in range(5):
        net = _eager(simnet.seeded_net("ohsam", config, seed))
        net.run_seeded()
        if net.invariant_failures:
            break
    assert any(f.endswith(": readRelay at depth 3 is off its read chain")
               for f in net.invariant_failures), net.invariant_failures


def test_judge_names_a_runs_first_invariant_failure_before_its_history():
    """The eager-relay run's history is atomic, but judge fails it on its
    first invariant failure; a clean run gets check_history's verdict."""
    config = Config(n_servers=3, n_readers=2, n_writers=1, f=1, mode="swmr")
    net = _eager(simnet.seeded_net("ohsam", config, 0))
    net.run_seeded()
    result = net.result()
    assert len(result.invariant_failures) > 1
    assert check_history(result.history).atomic
    assert judge(result) == Verdict(False, "invariant",
                                    result.invariant_failures[0])
    clean = simulate("ohsam", config, 0)
    assert clean.invariant_failures == []
    assert judge(clean) == check_history(clean.history)


class _WritesBackTwice(AbdReaderState):
    """Writes a read's pair back a second time once its first write-back
    has completed, and returns it after the second."""

    def invoke_read(self):
        self.again = True
        return super().invoke_read()

    def on_message(self, msg):
        outs, rec = super().on_message(msg)
        if rec is not None and self.again:
            self.again = False
            return self._broadcast(KIND_WRITE_REQUEST, KIND_WRITE_ACK,
                                   rec.tag, rec.value), None
        return outs, rec


def test_an_abd_reader_that_writes_back_twice_is_caught_at_depth_5():
    """The second write-back sends no kind the first did not, so a count
    of kinds stays 4, but it leaves the read's chain at depth 5."""
    r1 = parse_pid("r1")
    net = SimNet("abd-swmr", SWMR3, seed=0)
    net.clients[r1] = _WritesBackTwice(r1, SWMR3)
    net.load_program(r1, [("read", None)])
    net.run_seeded()
    assert net.history[0].responded is not None
    assert net.invariant_failures[0] == (
        "r1#1: writeRequest at depth 5 is off its read chain")
    assert net.metrics[net.history[0].op].exchanges == 6


def test_invariant_read_completed_above_its_majority():
    """w1's write reaches s1 only, and the max-tag reader completes on
    s1's readAck, with the new tag, and s2's, with an old one. The run
    fails at that completion, while its history, w1's write pending, is
    still atomic."""
    net = SimNet("ohsam", SWMR3, seed=0)
    w1, r1 = parse_pid("w1"), parse_pid("r1")
    net.clients[r1] = _MaxTagReader(r1, SWMR3)
    net.load_program(w1, [("write", "A")])
    net.load_program(r1, [("read", None)])
    net.invoke_next(w1)
    _deliver(net, "writeRequest", "s1")
    net.invoke_next(r1)
    for to in ("s1", "s2", "s3"):
        _deliver(net, "readRequest", to)
    for to, senders in (("s1", ("s1", "s2")), ("s2", ("s2", "s3"))):
        for sender in senders:
            _deliver(net, "readRelay", to, sender)
    _deliver(net, "readAck", "r1", "s1")
    assert net.invariant_failures == []
    _deliver(net, "readAck", "r1", "s2")
    assert net.history[1].value == make_value("A", net.history[0].op)
    assert net.invariant_failures == [
        "r1#1: completed with tag (1,w1) held by 1 of 3 servers"]
    assert check_history(net.history)


def test_a_step_tallies_each_message_under_its_own_kind():
    """A readRequest step that returns relays and then a readAck checks
    the readAck by its own kind: at depth 2 it is off the read's chain."""
    net = _faulty_net(_AcksEveryRequest)
    net.invoke_next(parse_pid("r1"))
    _deliver(net, "readRequest", "s1")
    (om,) = net.metrics.values()
    assert (om.messages, om.exchanges) == (3 + 3 + 1, 2)
    assert net.invariant_failures == [
        "r1#1: readAck at depth 2 is off its read chain"]


def test_invariant_read_ack_after_relays_below_a_received_relay_tag():
    """The monitor checks every output of a step by its own kind, not
    only by the kind of the first."""
    net = _faulty_net(_AcksInitialEveryRequest)
    net.invoke_next(parse_pid("w1"))
    _deliver(net, "writeRequest", "s2")
    net.invoke_next(parse_pid("r1"))
    _deliver(net, "readRequest", "s2")
    _deliver(net, "readRelay", "s1", "s2")
    assert net.invariant_failures == []
    _deliver(net, "readRequest", "s1")
    assert net.invariant_failures == [
        "s1: readAck tag (0,s1) below received relay tag (1,w1) for r1#1",
        "r1#1: readAck at depth 2 is off its read chain"]


def test_a_step_puts_no_message_to_a_crashed_server_in_flight():
    """However a step orders its outputs: here its readAck to the reader
    comes first, and its relays after it."""
    net = _faulty_net(_AcksEveryRequest, ack_first=True)
    s2 = server_id(2)
    net.crash(s2)
    net.invoke_next(parse_pid("r1"))
    _deliver(net, "readRequest", "s1")
    assert [e for e in net.inflight if e[0] is s2] == []
    assert sorted(str(dest) for dest, m, _ in net.inflight
                  if m.sender is S1) == ["r1", "s1", "s3"]


def test_a_relay_broadcast_is_one_message_in_flight_per_live_server():
    """An Oh-SAM readRequest at n=5 with s2 crashed: the server's relays
    go in flight as one entry per live server, in server order, each the
    same Message, and the read's tally still counts 5 relays."""
    config = Config(n_servers=5, n_readers=1, n_writers=1, f=2, mode="swmr")
    s1, r1 = server_id(1), reader_id(1)
    net = SimNet("ohsam", config, seed=0)
    net.crash(server_id(2))
    net.load_program(r1, [("read", None)])
    op = net.invoke_next(r1)
    assert net.metrics[op].messages == 5  # the request, s2's copy counted
    (request,) = [e for e in net.inflight if e[0] is s1]
    net.inflight.remove(request)
    net.deliver(request)
    relays = [(dest, m) for dest, m, _ in net.inflight
              if m.kind == KIND_READ_RELAY]
    assert [dest for dest, _ in relays] == [
        server_id(i) for i in (1, 3, 4, 5)]
    relay = relays[0][1]
    assert all(m is relay for _, m in relays)
    assert (relay.sender, relay.destination) == (s1, None)
    assert net.metrics[op].messages == 5 + 5


# -- the naive3x threshold --

@pytest.mark.parametrize("x", [-3, 0, 4])
def test_naive3x_threshold_outside_one_to_n_is_refused(x):
    with pytest.raises(OhramError, match="threshold"):
        SimNet("naive3x", MWMR3, seed=0, x=x)
    header = {"protocol": "naive3x", "config": _NAIVE3X_CONFIG, "x": x}
    with pytest.raises(OhramError, match="threshold"):
        run_script(json.dumps(header) + "\n")


@pytest.mark.parametrize(
    "protocol", [p for p in PROTOCOL_NAMES if p != "naive3x"])
def test_threshold_x_is_refused_for_every_protocol_but_naive3x(protocol):
    config = SWMR3 if get_protocol(protocol).mode == "swmr" else MWMR3
    with pytest.raises(ModeMismatch, match="takes no threshold"):
        SimNet(protocol, config, seed=0, x=2)
    header = {"protocol": protocol, "config": config_to_json(config), "x": 2}
    with pytest.raises(ModeMismatch, match="takes no threshold"):
        run_script(json.dumps(header) + "\n")


def test_naive3x_threshold_none_is_the_default_and_one_to_n_is_kept():
    assert SimNet("naive3x", MWMR3, seed=0).servers[S1].x == 2
    for x in (1, 3):
        assert SimNet("naive3x", MWMR3, seed=0, x=x).servers[S1].x == x
