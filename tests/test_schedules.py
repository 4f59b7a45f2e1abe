"""Counterexample schedules: pinned outcomes of the shipped scripts, and
a search that finds the violation again by itself.

The four scripts drive the unsound three-exchange-write protocol through
fully explicit delivery orders. All four run three servers, two writers,
one reader and threshold x=2, so the server sets of the paper's boundary
construction are S1={s1} (the x-1 servers that observe w1's write
first), S2={s2} (the |S|-x servers that observe w2's write first), and
s3 in the swing seat.

xi1p   w1 writes, then w2 writes, then one read. Unanimous evidence,
       the read returns w2's value: the later write wins. Atomic.
xi2p   the same with the writers swapped: w2 writes first, then w1,
       the read returns w1's value. Atomic. (The tags the unsound
       protocol mints disagree with real time here, so only the
       exhaustive checker is meaningful on this history.)
xi3pp  concurrent writes, split evidence, s3 observes w2's write first.
       s3's relays to the other servers are withheld, so both reads are
       answered under mixed evidence below threshold and return w2's
       value. Atomic.
xi4    as xi3pp but s3 observes w1's write first. The first read is
       answered by s1 and s2 before s3's evidence reaches them and
       returns w2's value. The second read's relay from s3 delivers the
       x-th "w1 first" declaration to s1 and s2, flipping their answers
       to w1's value. Two sequential reads thus return w2's value, then
       w1's: the second read violates atomicity, and both checkers
       reject the history.

Tags of this protocol are chosen locally by each writer, so on some
schedules they contradict the real-time write order even though the
values linearize. The exhaustive checker is the authority on these
histories; the tag-witness checker is only consulted where the script is
built to produce a genuine value-level violation.

xi4 was built by hand. Seeded search finds a violation of the same kind
on its own: simnet.hunt records the first non-atomic uniform run as a
script and shrinks it by delta debugging to fewer directives than xi4 has.
"""

import hashlib
import json
import pathlib

import pytest

from ohram.checker import check_bruteforce, check_witness
from ohram.cli import main
from ohram.core import Config, OhramError, OpId, config_to_json, parse_pid
from ohram.protocols import PROTOCOL_NAMES, get_protocol
from ohram.simnet import (
    _uniform,
    hunt,
    record,
    replay_file,
    run_script,
    seeded_net,
    simulate,
)

SCHEDULES = pathlib.Path(__file__).resolve().parent.parent / "schedules"
SHIPPED = ("xi1p", "xi2p", "xi3pp", "xi4")


def replay(name):
    return replay_file(str(SCHEDULES / f"{name}.json"))


def completed_values(result, kind):
    return [r.value for r in result.history if r.kind == kind]


def test_xi1_sequential_writes_read_sees_second():
    result = replay("xi1p")
    writes = [r for r in result.history if r.kind == "write"]
    (read,) = [r for r in result.history if r.kind == "read"]
    assert [str(r.op.invoker) for r in writes] == ["w1", "w2"]
    assert read.value == writes[1].value  # second write in real time
    assert check_bruteforce(result.history).atomic
    assert check_witness(result.history).atomic


def test_xi2_swapped_writers_read_sees_second():
    result = replay("xi2p")
    writes = [r for r in result.history if r.kind == "write"]
    (read,) = [r for r in result.history if r.kind == "read"]
    assert [str(r.op.invoker) for r in writes] == ["w2", "w1"]
    assert read.value == writes[1].value
    assert check_bruteforce(result.history).atomic
    # local tags contradict the real-time write order here: the witness
    # conditions reject even though the values linearize
    assert not check_witness(result.history).atomic


def test_xi3_boundary_evidence_still_atomic():
    result = replay("xi3pp")
    reads = [r for r in result.history if r.kind == "read"]
    by_writer = {str(r.op.invoker): r.value
                 for r in result.history if r.kind == "write"}
    assert [r.value for r in reads] == [by_writer["w2"], by_writer["w2"]]
    assert check_bruteforce(result.history).atomic


def test_xi4_withheld_relays_flip_the_second_read():
    result = replay("xi4")
    reads = [r for r in result.history if r.kind == "read"]
    by_writer = {str(r.op.invoker): r.value
                 for r in result.history if r.kind == "write"}
    assert [r.value for r in reads] == [by_writer["w2"], by_writer["w1"]]

    brute = check_bruteforce(result.history)
    witness = check_witness(result.history)
    assert not brute.atomic
    assert not witness.atomic
    pair = (OpId(parse_pid("r1"), 1), OpId(parse_pid("r1"), 2))
    assert brute.witness == pair
    assert witness.witness == pair


def test_xi4_reads_are_sequential_not_concurrent():
    # the violation needs back-to-back reads by one client
    result = replay("xi4")
    first, second = [r for r in result.history if r.kind == "read"]
    assert first.op.invoker == second.op.invoker
    assert first.responded < second.invoked


def test_replays_are_deterministic():
    text = (SCHEDULES / "xi4.json").read_text()
    assert run_script(text).dumps() == run_script(text).dumps()


def test_scripts_declare_the_demo_protocol_and_threshold():
    for name in SHIPPED:
        header = json.loads((SCHEDULES / f"{name}.json")
                            .read_text().splitlines()[0])
        assert header["protocol"] == "naive3x"
        assert header["x"] == 2
        assert header["config"]["n_servers"] == 3


@pytest.mark.parametrize("name", SHIPPED)
def test_every_script_runs_to_completion(name):
    result = replay(name)
    assert all(r.responded is not None for r in result.history)
    assert result.crashed == []


# sha256 of the file `ohram replay schedules/<name>.json --out` writes
REPLAY_DUMP_SHA256 = {
    "xi1p": "8fe477c0a6f846cbc0d214ee54a99fea45976c6ffcef19b3acb268dca84d11e0",
    "xi2p": "66ebf22084cba793bb9745425ad59f64ed002d528e03fb202d1608334770f567",
    "xi3pp":
        "38bcc74f51a88a0a1c358f4638c7876c4fd219603233251d4f1fcbcba7b1cf2c",
    "xi4": "60f9056726628b76054f6398bb580197e09a22f045443e0f272fc6113658966d",
}


def test_replay_dumps_match_golden_hashes(tmp_path):
    """The replay dumps stay byte-identical: xi4 exits 2, the rest 0."""
    digests = {}
    for name in SHIPPED:
        out = tmp_path / f"{name}.json"
        code = main(["replay", str(SCHEDULES / f"{name}.json"),
                     "--out", str(out)])
        assert code == (2 if name == "xi4" else 0), name
        digests[name] = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digests == REPLAY_DUMP_SHA256


# -- recorded runs --

def script(protocol, config, directives, x=None):
    """A schedule file's text: the run's header, then its directives."""
    header = {"protocol": protocol, "config": config_to_json(config), "x": x}
    return "".join(json.dumps(obj, sort_keys=True) + "\n"
                   for obj in [header, *directives])


def recorded(protocol, config, seed, **plan):
    """The seeded run's result and the directives that name its steps."""
    net = seeded_net(protocol, config, seed, **plan)
    directives = []
    net.run(record(net, _uniform(net), directives))
    net._finish()
    return net.result(), directives


def without_seed(result):
    dump = result.to_json()
    del dump["seed"]
    return dump


def test_recorded_runs_replay_to_the_same_dump():
    """Every protocol at n = 3, 5 and 7 under its default crash plan: the
    recorder changes nothing in the run, and run_script of the recording
    repeats it, crashes included."""
    crashed = 0
    for name in PROTOCOL_NAMES:
        mode = get_protocol(name).mode
        for n in (3, 5, 7):
            config = Config(n_servers=n, n_readers=2,
                            n_writers=1 if mode == "swmr" else 2,
                            f=(n - 1) // 2, mode=mode)
            for seed in range(30):
                result, directives = recorded(name, config, seed)
                assert result.to_json() == simulate(name, config, seed).to_json()
                replayed = run_script(script(name, config, directives))
                assert without_seed(replayed) == without_seed(result)
                crashed += bool(result.crashed)
    assert crashed > 100


NAIVE = Config(n_servers=3, n_readers=1, n_writers=2, f=1)
NAIVE_PLAN = {"max_ops": 6, "max_crashes": 0, "x": 2}


def violates(directives):
    """True when the script replays to a history no linearization fits;
    a script that cannot run, or runs stuck, does not count."""
    try:
        result = run_script(script("naive3x", NAIVE, directives, x=2))
    except OhramError:
        return False
    return not check_bruteforce(result.history).atomic


def test_search_finds_and_shrinks_a_violation_within_xi4s_size():
    seed, _, shrunk = hunt("naive3x", NAIVE, range(10_000), **NAIVE_PLAN)
    assert seed == 1059
    result, directives = recorded("naive3x", NAIVE, seed, **NAIVE_PLAN)
    assert len(directives) == result.events == 96
    replayed = run_script(script("naive3x", NAIVE, directives, x=2))
    assert without_seed(replayed) == without_seed(result)

    xi4 = (SCHEDULES / "xi4.json").read_text().strip().splitlines()
    assert len(shrunk) <= len(xi4) - 1  # less its header line
    assert violates(shrunk)
    # 1-minimal: each directive is needed for the violation
    for i in range(len(shrunk)):
        assert not violates(shrunk[:i] + shrunk[i + 1:]), i
