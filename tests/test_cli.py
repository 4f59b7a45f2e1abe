"""Command-line surface: exit codes and output plumbing."""

import contextlib
import json
import os
import pathlib
import select
import signal
import socket
import subprocess
import sys

import pytest

import ohram
from ohram import protocols
from ohram.cli import main
from ohram.core import (
    Config,
    OhramError,
    QuorumUnreachable,
    StuckExecution,
    Tag,
    writer_id,
)
from ohram.runner import ServerDaemon
from ohram.simnet import history_from_json, simulate
from test_simnet import _RelaysEagerly

SCHEDULES = pathlib.Path(__file__).resolve().parent.parent / "schedules"


def test_simulate_defaults_exit_zero(capsys):
    assert main(["simulate", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "ATOMIC" in out


def test_simulate_prints_each_invariant_failure_and_exits_2(
        monkeypatch, capsys):
    """An eager-relay server breaks the read chain on an atomic history:
    the run prints every invariant failure it recorded, and no verdict."""
    monkeypatch.setitem(protocols.PROTOCOLS, "ohsam", protocols.PROTOCOLS[
        "ohsam"]._replace(make_server=_RelaysEagerly))
    config = Config(n_servers=3, n_readers=2, n_writers=1, f=1, mode="swmr")
    failures = simulate("ohsam", config, 1).invariant_failures
    assert len(failures) > 1
    assert main(["simulate", "--readers", "2", "--seed", "1"]) == 2
    out = capsys.readouterr().out
    assert [line for line in out.splitlines()
            if line.startswith("INVARIANT FAILURE: ")] == [
        f"INVARIANT FAILURE: {f}" for f in failures]
    assert "ATOMIC" not in out


def test_simulate_sequential_ops_table_counts(capsys):
    code = main(["simulate", "--protocol", "ohsam", "--servers", "5",
                 "--f", "0", "--ops", "w1,r1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "messages=35" in out
    assert "messages=10" in out


def test_simulate_ops_dumps_no_seed(tmp_path, capsys):
    # a scripted run draws nothing from a generator, so its dump has no seed
    dump = tmp_path / "run.json"
    assert main(["simulate", "--ops", "w1,r1", "--out", str(dump)]) == 0
    assert "seed=None" in capsys.readouterr().out
    assert json.loads(dump.read_text())["seed"] is None


def test_simulate_ops_reject_clients_outside_the_configuration(capsys):
    assert main(["simulate", "--readers", "1", "--ops", "w1,r2"]) == 4
    assert "r2" in capsys.readouterr().err


def test_invalid_fault_bound_is_a_config_error(capsys):
    assert main(["simulate", "--servers", "4", "--f", "2"]) == 4
    assert "f=2" in capsys.readouterr().err


def test_mode_mismatch_is_a_config_error(capsys):
    # two writers under a single-writer protocol
    assert main(["simulate", "--protocol", "ohsam", "--writers", "2"]) == 4


@pytest.mark.parametrize("argv, error", [
    (["simulate", "--servers", "x"],
     "ohram simulate: error: argument --servers: invalid int value: 'x'"),
    (["bench", "--bogus"], "ohram: error: unrecognized arguments: --bogus"),
    (["simulate", "--protocol", "abd"],
     "ohram simulate: error: argument --protocol: invalid choice: 'abd'"),
], ids=["bad-int", "unknown-flag", "bad-choice"])
def test_a_usage_error_is_a_config_error(capsys, argv, error):
    """argparse exits 2 on a usage error, and 2 is the non-atomic code,
    so a typo would read as a violation: it exits 4, usage on stderr."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: ohram") and error in err


@pytest.mark.parametrize("argv", [["--help"], ["--version"],
                                  ["bench", "--help"]])
def test_help_and_version_still_exit_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out


@pytest.mark.parametrize("flags, cause", [
    (["--readers", "0", "--writers", "0"], "at least one writer or reader"),
    (["--max-ops", "0"], "max_ops >= 1, got 0"),
], ids=["no-clients", "no-ops"])
def test_a_seeded_run_with_nothing_to_run_is_a_config_error(
        capsys, flags, cause):
    assert main(["simulate", "--protocol", "ohmam", *flags]) == 4
    assert cause in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (["simulate", "--ops", ""], "--ops"),
    (["simulate", "--ops", ","], "--ops"),
    (["client", "--pid", "w1", "--ops", ""], "--ops"),
    (["client", "--pid", "r1", "--ops", " , "], "--ops"),
    (["simulate", "--crash-plan", ""], "--crash-plan"),
    (["simulate", "--crash-plan", " , "], "--crash-plan"),
], ids=["simulate-ops-empty", "simulate-ops-comma", "client-ops-empty",
        "client-ops-comma", "crash-plan-empty", "crash-plan-comma"])
def test_a_list_that_names_nothing_is_a_config_error(
        tmp_path, capsys, argv, flag):
    """Not refused, each of these would run nothing, a seeded run or a
    run with no crashes and exit 0, so a typo would read as a pass."""
    membership = tmp_path / "members.json"
    membership.write_text('{"s1": "127.0.0.1:1", "s2": "127.0.0.1:1", '
                          '"s3": "127.0.0.1:1"}')
    if argv[0] == "client":
        argv = [*argv, "--membership", str(membership)]
    assert main(argv) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {flag} names nothing")


@pytest.mark.parametrize("ops, cause", [
    ("r1=A", "read op 'r1=A' cannot carry a label"),
    ("s1", "s1 is not a client"),
], ids=["read-label", "server-op"])
def test_simulate_refuses_an_op_no_client_can_run(capsys, ops, cause):
    assert main(["simulate", "--ops", ops]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {cause}\n"


@pytest.mark.parametrize("flags, cause", [
    (["--pid", "w1", "--ops", "x"], "bad op token 'x', want w[:LABEL] or r"),
    (["--pid", "s1", "--ops", "r"], "s1 is not a client"),
], ids=["bad-op", "server-pid"])
def test_client_refuses_a_bad_op_or_a_server_pid(
        tmp_path, capsys, flags, cause):
    membership = tmp_path / "members.json"
    membership.write_text('{"s1": "127.0.0.1:1", "s2": "127.0.0.1:1", '
                          '"s3": "127.0.0.1:1"}')
    assert main(["client", *flags, "--membership", str(membership)]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {cause}\n"


def test_crash_plan_beyond_fault_bound(capsys):
    assert main(["simulate", "--protocol", "ohmam", "--writers", "2",
                 "--crash-plan", "s1,s2"]) == 4


def _crashed(out):
    lines = [line for line in out.splitlines() if line.startswith("crashed:")]
    return lines[0].split(": ", 1)[1].split(", ") if lines else []


MWMR5 = ["simulate", "--protocol", "abd-mwmr", "--servers", "5", "--f", "2",
         "--writers", "2"]


def test_crash_plan_victims_are_the_servers_crashed(capsys):
    assert main(MWMR5 + ["--crash-plan", "s2,s3"]) == 0
    assert _crashed(capsys.readouterr().out) == ["s2", "s3"]


def test_crash_plan_count_is_an_upper_bound(capsys):
    counts = []
    for seed in range(20):
        assert main(MWMR5 + ["--seed", str(seed), "--crash-plan", "2"]) == 0
        counts.append(len(_crashed(capsys.readouterr().out)))
    assert max(counts) == 2


@pytest.mark.parametrize("plan", ["s2,s2", "s9", "3"])
def test_crash_plan_of_repeated_unknown_or_too_many_servers(plan, capsys):
    assert main(MWMR5 + ["--crash-plan", plan]) == 4
    assert capsys.readouterr().err.startswith("error:")


def test_crash_plan_is_refused_for_sequential_ops(capsys):
    assert main(MWMR5 + ["--ops", "w1,r1", "--crash-plan", "1"]) == 4
    assert "--ops" in capsys.readouterr().err


def test_seed_is_refused_for_sequential_ops(capsys):
    # a scripted run draws nothing, so a seed given with --ops is a mistake
    assert main(["simulate", "--ops", "w1,r1", "--seed", "5"]) == 4
    err = capsys.readouterr().err
    assert "--seed" in err and "--ops" in err


def test_replay_atomic_schedule_exits_zero(capsys):
    assert main(["replay", str(SCHEDULES / "xi2p.json")]) == 0
    assert "ATOMIC" in capsys.readouterr().out


def test_replay_violation_schedule_exits_two(capsys):
    assert main(["replay", str(SCHEDULES / "xi4.json")]) == 2
    out = capsys.readouterr().out
    assert "NON-ATOMIC" in out
    assert "r1#1 -> r1#2" in out


def test_replay_missing_file_is_a_config_error(capsys):
    assert main(["replay", "/no/such/schedule.json"]) == 4


def test_replay_malformed_schedule_is_a_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"deliver": {"kind": "readAck"}}\n')
    assert main(["replay", str(bad)]) == 4


@pytest.mark.parametrize("count", ["n_servers", "n_readers", "n_writers", "f"])
@pytest.mark.parametrize("bad", [3.9, True, "3"],
                         ids=["float", "bool", "string"])
def test_replay_a_count_that_is_no_int_is_a_config_error(tmp_path, capsys,
                                                         count, bad):
    """xi4 with one count no int: int() would run 3.9 as 3 servers."""
    header, *rest = (SCHEDULES / "xi4.json").read_text().splitlines(True)
    header = json.loads(header)
    header["config"][count] = bad
    script = tmp_path / "xi4.json"
    script.write_text(json.dumps(header) + "\n" + "".join(rest))
    assert main(["replay", str(script)]) == 4
    error = capsys.readouterr().err
    assert f"{count} must be an integer, got {bad!r}" in error


def test_naive3x_threshold_outside_one_to_n_is_a_config_error(tmp_path,
                                                             capsys):
    assert main(["simulate", "--protocol", "naive3x", "--writers", "2",
                 "--x", "-3"]) == 4
    assert "threshold" in capsys.readouterr().err
    config = {"n_servers": 3, "n_readers": 1, "n_writers": 2, "f": 1,
              "mode": "mwmr"}
    for x in (0, 4):
        script = tmp_path / f"x{x}.json"
        script.write_text(json.dumps({"protocol": "naive3x",
                                      "config": config, "x": x}) + "\n")
        assert main(["replay", str(script)]) == 4
        assert "threshold" in capsys.readouterr().err


def test_threshold_x_for_a_protocol_without_one_is_a_config_error(
        tmp_path, capsys):
    assert main(["simulate", "--protocol", "ohsam", "--x", "7"]) == 4
    assert "takes no threshold" in capsys.readouterr().err
    script = tmp_path / "ohsam_x.json"
    script.write_text(json.dumps({
        "protocol": "ohsam", "x": 2,
        "config": {"n_servers": 3, "n_readers": 1, "n_writers": 1, "f": 1,
                   "mode": "swmr"}}) + "\n")
    assert main(["replay", str(script)]) == 4
    assert "takes no threshold" in capsys.readouterr().err


def test_check_round_trip_through_a_dump(tmp_path, capsys):
    dump = tmp_path / "run.json"
    assert main(["simulate", "--protocol", "ohmam", "--writers", "2",
                 "--seed", "9", "--out", str(dump)]) == 0
    capsys.readouterr()
    assert main(["check", str(dump)]) == 0
    assert "ATOMIC" in capsys.readouterr().out


def test_check_flags_a_corrupted_dump(tmp_path, capsys):
    dump = tmp_path / "run.json"
    main(["simulate", "--protocol", "ohsam", "--ops", "w1,w1,r1",
          "--out", str(dump)])
    capsys.readouterr()
    obj = json.loads(dump.read_text())
    reads = [r for r in obj["history"] if r["kind"] == "read"]
    writes = [r for r in obj["history"] if r["kind"] == "write"]
    reads[0]["tag"] = writes[0]["tag"]  # drag the read back in time
    reads[0]["value"] = writes[0]["value"]
    dump.write_text(json.dumps(obj))
    assert main(["check", str(dump)]) == 2


def test_check_judges_a_long_dump_by_the_witness_rules(tmp_path, capsys):
    dump = tmp_path / "run.json"
    assert main(["simulate", "--protocol", "ohsam",
                 "--ops", ",".join(["w1", "r1"] * 6), "--out", str(dump)]) == 0
    capsys.readouterr()
    assert main(["check", str(dump)]) == 0
    assert "ATOMIC (witness)" in capsys.readouterr().out
    obj = json.loads(dump.read_text())
    reads = [r for r in obj["history"] if r["kind"] == "read"]
    reads[-1]["tag"], reads[-1]["value"] = reads[0]["tag"], reads[0]["value"]
    dump.write_text(json.dumps(obj))
    assert main(["check", str(dump)]) == 2
    out = capsys.readouterr().out
    assert "NON-ATOMIC (witness)" in out
    assert "pair: r1#2 -> r1#6" in out


def test_check_refuses_a_value_that_is_not_a_string(tmp_path, capsys):
    dump = tmp_path / "run.json"
    main(["simulate", "--protocol", "ohsam",
          "--ops", ",".join(["w1", "r1"] * 6), "--out", str(dump)])
    capsys.readouterr()
    obj = json.loads(dump.read_text())
    obj["history"][-1]["value"] = ["A"]
    dump.write_text(json.dumps(obj))
    assert main(["check", str(dump)]) == 4
    assert "value" in capsys.readouterr().err


# w1 writes from 1.0 to 1.4, and r1 then reads null from 1.6 to 1.9:
# truncated to ints, both times of each op fell on one tick, and the
# history looked atomic
FLOAT_TIMES = [
    {"op": {"invoker": "w1", "seq": 1}, "kind": "write", "invoked": 1.0,
     "responded": 1.4, "tag": {"ts": 1, "wid": "w1"}, "value": "A#w1.1"},
    {"op": {"invoker": "r1", "seq": 1}, "kind": "read", "invoked": 1.6,
     "responded": 1.9, "tag": {"ts": 0, "wid": "w1"}, "value": None},
]


# w1 responds before it is invoked; checked anyway, the history is
# NON-ATOMIC, since r1 reads null after w1's response
BACKWARDS = [
    {**FLOAT_TIMES[0], "invoked": 14, "responded": 10},
    {**FLOAT_TIMES[1], "invoked": 12, "responded": 13},
]


# one process's ops overlap, or follow one that never responded, or one
# op is recorded twice: checked anyway, each of these histories was
# judged ATOMIC
def _w1_write(seq, invoked, responded):
    return {**FLOAT_TIMES[0], "op": {"invoker": "w1", "seq": seq},
            "invoked": invoked, "responded": responded,
            "tag": {"ts": seq, "wid": "w1"}, "value": f"A#w1.{seq}"}


OVERLAPPING = [_w1_write(1, 1, 10), _w1_write(2, 2, 3)]
TWICE = [_w1_write(1, 1, 2),
         {**_w1_write(1, 3, 4), "tag": {"ts": 2, "wid": "w1"}}]
AFTER_PENDING = [_w1_write(1, 1, None), _w1_write(2, 2, 3)]


def _with_int_field(name, bad):
    """w1's write of FLOAT_TIMES at integer times, with the int at name
    (a time, or the seq or ts inside op and tag) replaced by bad."""
    record = {**FLOAT_TIMES[0], "invoked": 10, "responded": 14}
    if name in ("seq", "ts"):
        inner = "op" if name == "seq" else "tag"
        record[inner] = {**record[inner], name: bad}
    else:
        record[name] = bad
    return [record]


@pytest.mark.parametrize("history, error", [
    pytest.param(FLOAT_TIMES, "responded must be an integer, got 1.4",
                 id="float-times"),
    *[pytest.param(_with_int_field(name, bad),
                   f"{name} must be an integer, got {bad!r}",
                   id=f"{type(bad).__name__}-{name}")
      for name in ("invoked", "responded", "seq", "ts")
      for bad in (2.0, True, "2")],
    pytest.param(BACKWARDS, "responded 10 before invoked 14",
                 id="responded-before-invoked"),
    pytest.param(OVERLAPPING, "history record 1 {'op': {'invoker': 'w1', "
                 "'seq': 2}, 'kind': 'write', 'invoked': 2, 'responded': 3, "
                 "'tag': {'ts': 2, 'wid': 'w1'}, 'value': 'A#w1.2'}: w1#2 "
                 "invoked at 2, before w1#1 responded at 10",
                 id="overlapping-ops"),
    pytest.param(TWICE, "history record 1 {'op': {'invoker': 'w1', "
                 "'seq': 1}, 'kind': 'write', 'invoked': 3, 'responded': 4, "
                 "'tag': {'ts': 2, 'wid': 'w1'}, 'value': 'A#w1.1'}: "
                 "ValueError('w1#1 is recorded twice, first as record 0')",
                 id="op-recorded-twice"),
    pytest.param(AFTER_PENDING, "history record 1 {'op': {'invoker': 'w1', "
                 "'seq': 2}, 'kind': 'write', 'invoked': 2, 'responded': 3, "
                 "'tag': {'ts': 2, 'wid': 'w1'}, 'value': 'A#w1.2'}: w1#2 "
                 "invoked at 2, after w1#1, which is pending",
                 id="op-after-a-pending-one"),
    pytest.param({"history": [{"kind": "read"}]},
                 "history record 0 {'kind': 'read'}", id="no-op"),
    pytest.param([1, 2], "history record 0 1:", id="not-a-record"),
    pytest.param(
        [{"op": {"invoker": "r1", "seq": 1}, "kind": "peek", "invoked": 1}],
        "kind must be read or write", id="unknown-kind"),
    pytest.param({"history": 7}, "a history is a list of records",
                 id="not-a-list"),
    pytest.param({"records": []}, "a history is a list of records",
                 id="no-history"),
])
def test_check_refuses_a_malformed_history(tmp_path, capsys, history, error):
    dump = tmp_path / "run.json"
    dump.write_text(json.dumps(history))
    assert main(["check", str(dump)]) == 4
    assert error in capsys.readouterr().err


def test_check_takes_ops_that_start_as_their_processs_previous_one_ends(
        tmp_path, capsys):
    """One at a time: each op invoked when its process's previous one
    responded, the last still pending, in any record order."""
    dump = tmp_path / "run.json"
    dump.write_text(json.dumps(
        [_w1_write(3, 3, None), _w1_write(2, 2, 3), _w1_write(1, 1, 2)]))
    assert main(["check", str(dump)]) == 0
    assert capsys.readouterr().out.startswith("ATOMIC")


@pytest.mark.parametrize(
    "error", sorted(OhramError.__subclasses__(), key=lambda c: c.__name__),
    ids=lambda c: c.__name__)
def test_each_library_error_has_its_exit_code(monkeypatch, capsys, error):
    def fail(args):
        raise error("no good")
    monkeypatch.setattr("ohram.cli.cmd_check", fail)
    liveness = error in (StuckExecution, QuorumUnreachable)
    assert main(["check", "run.json"]) == (3 if liveness else 4)
    err = capsys.readouterr().err
    assert err.endswith(": no good\n") and err.count("\n") == 1


def test_bench_grid_passes(capsys):
    assert main(["bench", "--servers", "3", "--protocols",
                 "ohsam,ohmam,abd-swmr,abd-mwmr,naive3x"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 5
    assert "FAIL" not in out


def test_bench_prints_a_fail_line_and_exits_2_on_a_wrong_count(
        monkeypatch, capsys):
    """A bundle whose read chain names one exchange more than its reads
    take fails the grid: the line names the count, and bench exits 2."""
    ohsam = protocols.PROTOCOLS["ohsam"]
    monkeypatch.setitem(protocols.PROTOCOLS, "ohsam", ohsam._replace(
        read_chain=ohsam.read_chain + (ohsam.read_chain[-1],)))
    assert main(["bench", "--protocols", "ohsam", "--servers", "3"]) == 2
    out = capsys.readouterr().out
    assert out.startswith("FAIL  ohsam     n=3: ")
    assert "read exch 3 != 4" in out
    assert "PASS" not in out


def test_bench_unknown_protocol_is_a_config_error(capsys):
    assert main(["bench", "--protocols", "raft"]) == 4


@pytest.mark.parametrize("flag, spec", [
    ("--protocols", ""), ("--protocols", ","), ("--protocols", " "),
    ("--servers", ""), ("--servers", "3,,5"),
])
def test_bench_refuses_an_empty_grid_naming_the_flag(capsys, flag, spec):
    """Not refused, an empty protocol list would print nothing and exit
    0, so a typo in a gate would read as a pass."""
    assert main(["bench", flag, spec]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {flag} ")


def test_serve_refuses_the_unsound_protocol(tmp_path, capsys):
    membership = tmp_path / "members.json"
    membership.write_text('{"s1": "127.0.0.1:1"}')
    assert main(["serve", "--protocol", "naive3x", "--writers", "2",
                 "--pid", "s1", "--membership", str(membership)]) == 4


def test_serve_refuses_a_listen_port_outside_the_range(tmp_path, capsys):
    membership = tmp_path / "members.json"
    membership.write_text('{"s1": "127.0.0.1:1"}')
    assert main(["serve", "--servers", "1", "--f", "0", "--pid", "s1",
                 "--membership", str(membership),
                 "--listen", "127.0.0.1:99999"]) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "port outside 0..65535" in err[0]


def test_serve_on_a_port_in_use_exits_4(tmp_path, capsys):
    membership = tmp_path / "members.json"
    membership.write_text('{"s1": "127.0.0.1:1"}')
    with socket.socket() as busy:
        busy.bind(("127.0.0.1", 0))
        busy.listen(1)
        port = busy.getsockname()[1]
        assert main(["serve", "--servers", "1", "--f", "0", "--pid", "s1",
                     "--membership", str(membership),
                     "--listen", f"127.0.0.1:{port}"]) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert f"cannot bind 127.0.0.1:{port}" in err[0]


def test_client_dump_round_trips_through_check(tmp_path, capsys):
    config = Config(n_servers=3, n_readers=1, n_writers=1, f=1, mode="swmr")
    daemons = [ServerDaemon(s, config, "ohsam") for s in config.servers()]
    membership = {d.pid: d.address for d in daemons}
    members = tmp_path / "members.json"
    members.write_text(json.dumps(
        {str(pid): f"{host}:{port}" for pid, (host, port) in membership.items()}))
    dump = tmp_path / "w1.json"
    try:
        for d in daemons:
            d.start(membership)
        assert main(["client", "--protocol", "ohsam", "--pid", "w1",
                     "--membership", str(members), "--ops", "w:A,w:B",
                     "--out", str(dump)]) == 0
    finally:
        for d in daemons:
            d.stop()
    capsys.readouterr()
    assert main(["check", str(dump)]) == 0
    assert "ATOMIC" in capsys.readouterr().out
    records = history_from_json(json.loads(dump.read_text()))
    assert [(str(r.op), r.kind, r.tag, r.value) for r in records] == [
        ("w1#1", "write", Tag(1, writer_id(1)), "A#w1.1"),
        ("w1#2", "write", Tag(2, writer_id(1)), "B#w1.2"),
    ]
    assert all(r.invoked <= r.responded for r in records)


def test_a_client_that_gives_up_still_dumps_its_history(tmp_path, capsys):
    """The op given up is in the dump as pending, the exit is still 3,
    and the dump checks."""
    members = tmp_path / "members.json"
    members.write_text('{"s1": "127.0.0.1:1"}')  # refuses: nobody serves
    dump = tmp_path / "w1.json"
    assert main(["client", "--servers", "1", "--f", "0", "--pid", "w1",
                 "--membership", str(members), "--ops", "w:A",
                 "--retry-interval", "0.01", "--retry-budget", "0",
                 "--out", str(dump)]) == 3
    assert "NO QUORUM" in capsys.readouterr().err
    (record,) = json.loads(dump.read_text())["history"]
    assert record["responded"] is None
    assert (record["kind"], record["value"]) == ("write", "A#w1.1")
    assert main(["check", str(dump)]) == 0


def test_client_refuses_an_op_its_role_cannot_run(tmp_path, capsys):
    membership = tmp_path / "members.json"
    membership.write_text('{"s1": "127.0.0.1:1", "s2": "127.0.0.1:1", '
                          '"s3": "127.0.0.1:1"}')
    assert main(["client", "--pid", "w1", "--membership", str(membership),
                 "--ops", "w:A,r"]) == 4
    assert main(["client", "--pid", "r1", "--membership", str(membership),
                 "--ops", "w:A"]) == 4
    assert "can only read" in capsys.readouterr().err


def test_client_refuses_a_membership_missing_a_server(tmp_path, capsys):
    membership = tmp_path / "members.json"
    membership.write_text('{"s1": "127.0.0.1:1", "s2": "127.0.0.1:1"}')
    assert main(["client", "--servers", "3", "--pid", "r1",
                 "--membership", str(membership), "--ops", "r"]) == 4
    assert "no address for s3" in capsys.readouterr().err


BAD_MEMBERSHIPS = pytest.mark.parametrize("text, error", [
    pytest.param('["s1", "s2", "s3"]', "a membership is an object",
                 id="list"),
    pytest.param('{"s1": 7001, "s2": 7002, "s3": 7003}',
                 "s1: address must be", id="bare-ports"),
    pytest.param(
        '{"s1": "127.0.0.1:99999", "s2": "127.0.0.1:1", "s3": "127.0.0.1:1"}',
        "s1: port outside 0..65535", id="port-99999"),
    pytest.param(
        '{"s1": "127.0.0.1:-1", "s2": "127.0.0.1:1", "s3": "127.0.0.1:1"}',
        "s1: port outside 0..65535", id="port-minus-1"),
    pytest.param(
        '{"s1": "127.0.0.1:1", "s2": "127.0.0.1:1", "s3": "127.0.0.1:1", '
        '"w1": "127.0.0.1:1"}',
        "no server of the configuration: w1", id="client-entry"),
])


@BAD_MEMBERSHIPS
def test_client_refuses_a_malformed_membership(tmp_path, capsys, text, error):
    membership = tmp_path / "members.json"
    membership.write_text(text)
    assert main(["client", "--pid", "r1", "--membership", str(membership),
                 "--ops", "r"]) == 4
    assert error in capsys.readouterr().err


@BAD_MEMBERSHIPS
def test_serve_refuses_a_malformed_membership(tmp_path, capsys, text, error):
    membership = tmp_path / "members.json"
    membership.write_text(text)
    assert main(["serve", "--pid", "s2", "--membership", str(membership)]) == 4
    assert error in capsys.readouterr().err


NOT_DECIMAL_PORTS = pytest.mark.parametrize(
    "port", ["x", "", "7_001", " 7001", "7001 ", "+7001", "٧٠٠١"])


@NOT_DECIMAL_PORTS
def test_client_refuses_a_member_port_that_is_not_decimal(tmp_path, capsys,
                                                          port):
    membership = tmp_path / "members.json"
    membership.write_text(json.dumps({"s1": "127.0.0.1:1",
                                      "s2": f"127.0.0.1:{port}",
                                      "s3": "127.0.0.1:1"}))
    assert main(["client", "--pid", "r1", "--membership", str(membership),
                 "--ops", "r"]) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: s2: port is not a decimal number")


@NOT_DECIMAL_PORTS
def test_serve_refuses_a_listen_port_that_is_not_decimal(tmp_path, capsys,
                                                         port):
    membership = tmp_path / "members.json"
    membership.write_text('{"s1": "127.0.0.1:1"}')
    assert main(["serve", "--servers", "1", "--f", "0", "--pid", "s1",
                 "--membership", str(membership),
                 "--listen", f"127.0.0.1:{port}"]) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: --listen: port is not a decimal number")


SRC = str(pathlib.Path(ohram.__file__).resolve().parent.parent)


def serve(*args):
    """Start `ohram serve` in a subprocess, its stdout a pipe."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.Popen(
        [sys.executable, "-m", "ohram.cli", "serve", *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)


def run_fresh(code: str):
    """Run code in a fresh interpreter that imports the package from SRC;
    -S keeps site's own imports out of sys.modules."""
    return subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=SRC))


# dataclasses pulls in inspect, ast, dis and tokenize, and sets each class
# up at import: about 18 ms of every ohram process's start-up. The live
# runner brings sockets and threads, which no simulated run uses
UNLOADED_AT_IMPORT = ({"dataclasses", "inspect"},
                      {"socket", "threading", "ohram.runner"})


def test_the_package_imports_without_dataclasses():
    for names in UNLOADED_AT_IMPORT:
        out = run_fresh("import sys, ohram, ohram.cli; "
                        f"print(sorted({sorted(names)} & sys.modules.keys()))")
        assert (out.returncode, out.stdout, out.stderr) == (0, "[]\n", ""), \
            names


def test_the_simulated_subcommands_never_load_the_runner(tmp_path):
    dump = tmp_path / "run.json"
    code = f"""if True:
        import sys
        from ohram.cli import main
        codes = [main(["bench", "--servers", "3"]),
                 main(["simulate", "--out", {str(dump)!r}]),
                 main(["replay", {str(SCHEDULES / "xi2p.json")!r}]),
                 main(["check", {str(dump)!r}])]
        print(codes, "ohram.runner" in sys.modules, file=sys.stderr)
    """
    out = run_fresh(code)
    assert (out.returncode, out.stderr) == (0, "[0, 0, 0, 0] False\n")


def test_bench_loads_the_simulator_but_not_the_checkers():
    """The grid judges no history, so `ohram bench` never compiles the
    checkers."""
    out = run_fresh("import sys; from ohram.cli import main; "
                    "code = main(['bench', '--servers', '3']); "
                    "print(code, sorted({'ohram.simnet', 'ohram.checker'} "
                    "& sys.modules.keys()), file=sys.stderr)")
    assert (out.returncode, out.stderr) == (0, "0 ['ohram.simnet']\n")


def test_the_runner_names_resolve_on_first_use():
    out = run_fresh("import sys, ohram; loaded = 'ohram.runner' in "
                    "sys.modules; "
                    "from ohram import ServerDaemon, merge_histories, "
                    "membership_from_json; "
                    "print(loaded, ohram.Client is ohram.runner.Client)")
    assert (out.returncode, out.stdout, out.stderr) == (0, "False True\n", "")


# every name the package resolves on first use, by the module defining it
LAZY_NAMES = {
    "simnet": ["RunResult", "SimNet", "replay_file", "run_script", "simulate"],
    "checker": ["BRUTE_MAX_OPS", "Verdict", "check_bruteforce",
                "check_history", "check_witness"],
    "runner": ["Client", "ServerDaemon", "membership_from_json",
               "merge_histories"],
}


# the first is every ohram process's start-up, the second serve's: a live
# daemon neither simulates nor checks
@pytest.mark.parametrize("imports", ["ohram, ohram.cli",
                                     "ohram.cli, ohram.runner"])
def test_an_import_loads_neither_the_simulator_nor_the_checkers(imports):
    out = run_fresh(f"import sys, {imports}; print(sorted("
                    "{'ohram.simnet', 'ohram.checker'} & sys.modules.keys()))")
    assert (out.returncode, out.stdout, out.stderr) == (0, "[]\n", "")


MACHINES = ["ohram.abd", "ohram.naive3x", "ohram.ohmam", "ohram.ohsam"]


def loaded_machines(code: str) -> str:
    """Run code fresh, then print the machine modules it loaded."""
    return run_fresh(f"import sys; {code}; "
                     f"print(sorted({MACHINES} & sys.modules.keys()))")


def test_an_import_compiles_no_machine():
    out = loaded_machines("import ohram, ohram.cli")
    assert (out.returncode, out.stdout, out.stderr) == (0, "[]\n", "")


@pytest.mark.parametrize("protocol, machines", [
    ("ohsam", ["ohsam"]),
    ("ohmam", ["ohmam", "ohsam"]),
    ("abd-swmr", ["abd", "ohsam"]),
    ("abd-mwmr", ["abd", "ohmam", "ohsam"]),
    ("naive3x", ["naive3x", "ohsam"]),
])
def test_a_bundle_compiles_only_its_own_machines(protocol, machines):
    out = loaded_machines("from ohram.protocols import get_protocol; "
                          f"get_protocol({protocol!r})")
    want = str(["ohram." + m for m in machines]) + "\n"
    assert (out.returncode, out.stdout, out.stderr) == (0, want, "")


def test_check_compiles_neither_the_simulator_nor_a_machine(tmp_path):
    dump = tmp_path / "run.json"
    dump.write_text(simulate("ohsam", Config(
        n_servers=3, n_readers=1, n_writers=1, f=1, mode="swmr"), 3).dumps())
    out = run_fresh(f"import sys; from ohram.cli import main; "
                    f"code = main(['check', {str(dump)!r}]); "
                    f"print(code, sorted({['ohram.simnet', *MACHINES]} "
                    "& sys.modules.keys()), file=sys.stderr)")
    assert (out.returncode, out.stdout, out.stderr) == (
        0, "ATOMIC (bruteforce)\n", "0 []\n")


def test_each_lazy_name_is_its_modules_object_and_stays_resolved():
    code = f"""if True:
        import importlib, ohram
        for module, names in {LAZY_NAMES!r}.items():
            got = {{name: getattr(ohram, name) for name in [module, *names]}}
            found = importlib.import_module("ohram." + module)
            for name, value in got.items():
                want = found if name == module else getattr(found, name)
                assert value is want and vars(ohram)[name] is value, name
        print("ok")
    """
    out = run_fresh(code)
    assert (out.returncode, out.stdout, out.stderr) == (0, "ok\n", "")


def test_dir_lists_every_lazy_name_before_its_first_use():
    names = {n for module, rest in LAZY_NAMES.items() for n in (module, *rest)}
    out = run_fresh("import ohram; print(*dir(ohram))")
    assert out.returncode == 0, out.stderr
    assert names <= set(out.stdout.split())


def test_a_name_the_package_lacks_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ohram.no_such_name


def test_serve_refuses_a_membership_missing_a_peer(tmp_path):
    membership = tmp_path / "members.json"
    membership.write_text('{"s1": "127.0.0.1:1", "s2": "127.0.0.1:1"}')
    with serve("--servers", "3", "--pid", "s1",
               "--membership", str(membership)) as proc:
        try:
            _, err = proc.communicate(timeout=30)
        finally:
            proc.kill()
    assert proc.returncode == 4
    assert "no address for s3" in err


@pytest.mark.parametrize("pid", ["s9", "r1"])
def test_serve_refuses_a_pid_that_is_no_server(tmp_path, pid):
    membership = tmp_path / "members.json"
    membership.write_text('{"s1": "127.0.0.1:1", "s2": "127.0.0.1:1", '
                          '"s3": "127.0.0.1:1"}')
    with serve("--servers", "3", "--pid", pid,
               "--membership", str(membership)) as proc:
        try:
            _, err = proc.communicate(timeout=30)
        finally:
            proc.kill()
    assert proc.returncode == 4
    assert f"{pid} is not a server of 3" in err


@pytest.mark.parametrize("pid", ["r9", "w3"])
def test_client_refuses_a_pid_that_is_no_client(tmp_path, capsys, pid):
    membership = tmp_path / "members.json"
    membership.write_text('{"s1": "127.0.0.1:1"}')
    ops = "r" if pid.startswith("r") else "w:A"
    assert main(["client", "--servers", "1", "--f", "0", "--pid", pid,
                 "--membership", str(membership), "--ops", ops]) == 4
    assert f"{pid} is not a client of the configuration: w1, r1" \
        in capsys.readouterr().err


def test_serve_answers_a_client_and_stops_on_sigint(tmp_path, capsys):
    members = tmp_path / "members.json"
    members.write_text('{"s1": "127.0.0.1:0"}')  # its own port: --listen
    one = ["--servers", "1", "--f", "0"]
    with serve(*one, "--pid", "s1", "--listen", "127.0.0.1:0",
               "--membership", str(members)) as proc:
        try:
            assert select.select([proc.stdout], [], [], 30)[0]
            line = proc.stdout.readline()
            assert line.startswith("s1 listening on 127.0.0.1:"), line
            members.write_text(json.dumps({"s1": line.split()[-1]}))
            for pid, ops in (("w1", "w:A"), ("r1", "r")):
                assert main(["client", *one, "--pid", pid,
                             "--membership", str(members),
                             "--ops", ops]) == 0
            assert "value='A#w1.1'" in capsys.readouterr().out.splitlines()[-1]
            proc.send_signal(signal.SIGINT)
            assert proc.wait(timeout=30) == 0
        finally:
            proc.kill()


def test_serve_stops_on_sigterm_as_on_sigint(tmp_path):
    """kill's default signal stops the daemon and exits 0, so a server
    started in the background, where SIGINT is ignored, stops cleanly."""
    members = tmp_path / "members.json"
    members.write_text('{"s1": "127.0.0.1:0"}')
    with serve("--servers", "1", "--f", "0", "--pid", "s1", "--listen",
               "127.0.0.1:0", "--membership", str(members)) as proc:
        try:
            assert select.select([proc.stdout], [], [], 30)[0]
            line = proc.stdout.readline()
            assert line.startswith("s1 listening on 127.0.0.1:"), line
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
            assert proc.stderr.read() == ""
        finally:
            proc.kill()


def free_ports(count):
    socks = [socket.socket() for _ in range(count)]
    try:
        for sock in socks:
            sock.bind(("127.0.0.1", 0))
        return [sock.getsockname()[1] for sock in socks]
    finally:
        for sock in socks:
            sock.close()


def test_three_serve_processes_started_in_reverse_order_serve_a_client(
        tmp_path, capsys):
    """A read takes relays from two servers, so they cross processes."""
    ports = free_ports(3)
    members = tmp_path / "members.json"
    members.write_text(json.dumps(
        {f"s{i}": f"127.0.0.1:{port}" for i, port in enumerate(ports, 1)}))
    three = ["--servers", "3", "--f", "1"]
    with contextlib.ExitStack() as stack:
        procs = []
        for i in (3, 2, 1):  # each dials the ones before it, not yet up
            proc = stack.enter_context(serve(
                *three, "--pid", f"s{i}", "--listen",
                f"127.0.0.1:{ports[i - 1]}", "--membership", str(members)))
            stack.callback(proc.kill)
            procs.append(proc)
            assert select.select([proc.stdout], [], [], 30)[0]
            line = proc.stdout.readline()
            assert line.startswith(f"s{i} listening on "), line
        for pid, ops in (("w1", "w:A"), ("r1", "r")):
            assert main(["client", *three, "--pid", pid,
                         "--membership", str(members), "--ops", ops]) == 0
        assert "value='A#w1.1'" in capsys.readouterr().out.splitlines()[-1]
        for proc in procs:
            proc.send_signal(signal.SIGINT)
        assert [proc.wait(timeout=30) for proc in procs] == [0, 0, 0]


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
