"""Atomicity verdicts: tag-witness rules vs exhaustive search.

The violation fixtures at the bottom are hand-built histories that break
the value story itself (stale reads, inverted read pairs, phantom values),
so both verdict procedures must reject every one of them. Shapes that only
a tag can expose, like inverted tags on writes whose values still
linearize, are deliberately not here; those appear in the agreement tests
as the known asymmetry between the two procedures.
"""

import dataclasses
import random

import pytest

from ohram import checker
from ohram.checker import (
    BRUTE_MAX_OPS,
    Verdict,
    check_bruteforce,
    check_history,
    check_witness,
)
from ohram.core import (
    Config,
    HistoryTooLarge,
    OpId,
    OpRecord,
    StuckExecution,
    Tag,
    UntaggedHistory,
    parse_pid,
)
from ohram.protocols import get_protocol
from ohram.simnet import SimNet
from violations import VIOLATIONS


def rec(pid_text, seq, kind, invoked, responded, ts=None, wid=None, value=None):
    pid = parse_pid(pid_text)
    tag = Tag(ts, parse_pid(wid)) if ts is not None else None
    return OpRecord(OpId(pid, seq), kind, pid, invoked, responded, tag, value)


def w(pid_text, seq, invoked, responded, ts, value):
    return rec(pid_text, seq, "write", invoked, responded, ts, pid_text, value)


def both_reject(history):
    witness = check_witness(history)
    brute = check_bruteforce(history)
    assert not witness.atomic, "witness accepted a broken history"
    assert not brute.atomic, "bruteforce accepted a broken history"
    assert witness.witness, "non-atomic verdict without witnessing ops"
    assert brute.witness
    assert witness.prop in {"P1", "P2", "P3", "A1", "A2", "A3"}
    return witness, brute


def both_accept(history):
    assert check_witness(history).atomic
    assert check_bruteforce(history).atomic


# -- acceptance shapes --


def test_write_then_matching_read_is_atomic():
    both_accept([
        w("w1", 1, 0, 2, 1, "A"),
        rec("r1", 1, "read", 3, 5, 1, "w1", "A"),
    ])


def test_single_read_of_initial_value_is_atomic():
    history = [rec("r1", 1, "read", 0, 2, 0, "s1", None)]
    both_accept(history)


def test_concurrent_writes_allow_either_order():
    # reads pin a then b while both writes are still in flight
    both_accept([
        w("w1", 1, 0, 100, 1, "a"),
        w("w2", 1, 1, 101, 1, "b"),
        rec("r1", 1, "read", 10, 12, 1, "w1", "a"),
        rec("r1", 2, "read", 13, 15, 1, "w2", "b"),
    ])


def test_read_during_write_may_return_either_state():
    write = w("w1", 1, 0, 10, 1, "A")
    old = rec("r1", 1, "read", 2, 4, 0, "s1", None)
    new = rec("r1", 2, "read", 5, 7, 1, "w1", "A")
    both_accept([write, old, new])


def test_pending_write_may_be_observed_or_not():
    pending = rec("w1", 1, "write", 0, None, None, None, "A#w1.1")
    seen = rec("r1", 1, "read", 1, 3, 1, "w1", "A#w1.1")
    unseen = rec("r1", 1, "read", 1, 3, 0, "s1", None)
    assert check_bruteforce([pending, seen]).atomic
    assert check_bruteforce([pending, unseen]).atomic
    assert check_witness([pending, seen]).atomic
    assert check_witness([pending, unseen]).atomic


def test_pending_reads_are_ignored():
    history = [
        w("w1", 1, 0, 2, 1, "A"),
        rec("r1", 1, "read", 3, None),
    ]
    both_accept(history)


def test_untagged_completed_op_is_a_witness_error():
    with pytest.raises(UntaggedHistory):
        check_witness([rec("r1", 1, "read", 0, 1, value="A")])


def test_bruteforce_size_cap():
    history = [w("w1", k, 10 * k, 10 * k + 5, k, f"V{k}#w1.{k}")
               for k in range(1, BRUTE_MAX_OPS + 2)]
    with pytest.raises(HistoryTooLarge):
        check_bruteforce(history)
    # the dispatcher falls back to the witness rules instead
    assert check_history(history).method == "witness"


def test_dispatcher_prefers_bruteforce_when_small():
    assert check_history([w("w1", 1, 0, 2, 1, "A")]).method == "bruteforce"


def test_verdict_json_shape():
    v = check_witness([
        w("w1", 1, 0, 2, 1, "A"),
        rec("r1", 1, "read", 3, 5, 0, "s1", None),
    ])
    obj = v.to_json()
    assert obj["atomic"] is False
    assert obj["violation"]["property"] == "A1"
    assert obj["violation"]["pair"]
    assert "explanation" in obj["violation"]


# -- the twelve violation fixtures --


@pytest.mark.parametrize("name", sorted(VIOLATIONS))
def test_violation_fixture_rejected_by_both(name):
    both_reject(VIOLATIONS[name])


def test_there_are_twelve_fixtures():
    assert len(VIOLATIONS) == 12


def test_fixture_property_labels():
    """Spot-check which rule each verdict procedure trips on."""
    witness, _ = both_reject(VIOLATIONS["initial_after_completed_write"])
    assert witness.prop == "A1"
    witness, brute = both_reject(VIOLATIONS["one_reader_goes_backwards"])
    assert witness.prop == "A3"
    assert brute.witness == (OpId(parse_pid("r1"), 1),
                             OpId(parse_pid("r1"), 2))
    witness, _ = both_reject(VIOLATIONS["superseded_write_single_writer"])
    assert witness.prop == "A1"
    witness, _ = both_reject(VIOLATIONS["value_nobody_wrote"])
    assert witness.prop == "P3"
    witness, _ = both_reject(VIOLATIONS["concurrent_writes_inverted_by_two_readers"])
    assert witness.prop == "A3"


# -- the sweeps against the pairwise loops --


def p3_pairwise(writes, reads, pending_writes):
    """P3 by a scan over every write per read: the rule checker._p3_pair
    decides with dictionaries, kept here as its reference."""
    for kr, r in reads:
        if kr == checker._INITIAL_KEY:
            if r.value is not None:
                return checker._fail(
                    "P3",
                    f"read {r.op} paired value {r.value!r} with an "
                    f"initial tag", r.op)
            continue
        sources = [w for kw, w in writes if kw == kr and w.value == r.value]
        if sources:
            if not any(w.invoked < r.responded for w in sources):
                return checker._fail(
                    "P3",
                    f"read {r.op} returned the pair of write "
                    f"{sources[0].op}, which was invoked only later",
                    r.op, sources[0].op)
            continue
        ghosts = [w for w in pending_writes if w.value == r.value]
        if ghosts:
            if not any(w.invoked < r.responded for w in ghosts):
                return checker._fail(
                    "P3",
                    f"read {r.op} returned the value of write "
                    f"{ghosts[0].op}, which was invoked only later",
                    r.op, ghosts[0].op)
            continue
        return checker._fail(
            "P3",
            f"read {r.op} returned pair ({r.tag}, {r.value!r}) that no "
            f"write produced", r.op)
    return None


def pairwise_reference(history):
    """The witness verdict with every rule decided by its pairwise loop."""
    writes, reads, pending = checker._split(history)
    for verdict in (checker._a2_pair(writes), checker._a3_pair(reads),
                    checker._a1_pair(writes, reads),
                    p3_pairwise(writes, reads, pending)):
        if verdict is not None:
            return verdict
    return Verdict(True, "witness")


def sim_history(rng):
    name = rng.choice(["ohsam", "ohmam", "abd-swmr", "abd-mwmr", "naive3x"])
    mode = get_protocol(name).mode
    n = rng.choice([3, 5])
    config = Config(n_servers=n, n_readers=rng.randint(1, 4),
                    n_writers=1 if mode == "swmr" else rng.randint(2, 3),
                    f=(n - 1) // 2, mode=mode)
    net = SimNet(name, config, seed=rng.randrange(1 << 30))
    ops = rng.randint(2, 6)
    for pid in config.writers():
        net.load_program(pid, [("write", f"v{i}") for i in range(ops)])
    for pid in config.readers():
        net.load_program(pid, [("read", None)] * ops)
    try:
        net.run_seeded()
    except StuckExecution:
        pass
    return net.result().history


def mutate(history, rng):
    """Copy the history and corrupt one to three completed records."""
    history = [dataclasses.replace(r) for r in history]
    for _ in range(rng.randint(1, 3)):
        r = rng.choice(history)
        if r.responded is None:
            continue
        how = rng.choice(["tag", "value", "time", "touch", "swap",
                          "pending", "backwards"])
        if how == "tag":
            r.tag = Tag(max(0, r.tag.ts + rng.choice([-2, -1, 1, 2])),
                        r.tag.wid)
        elif how == "value":
            r.value = rng.choice([rng.choice(history).value, "Z#w9.9"])
        elif how == "time":
            shift = rng.randint(-50, 50)
            r.invoked += shift
            r.responded = max(r.invoked, r.responded + shift)
        elif how == "touch":  # respond at the instant another op starts
            r.responded = max(r.invoked, rng.choice(history).invoked)
        elif how == "swap":
            other = rng.choice(history)
            if other.responded is not None:
                r.tag, other.tag = other.tag, r.tag
                r.value, other.value = other.value, r.value
        elif how == "pending":
            r.responded = None
        else:  # only a hand-written history file can hold this
            r.responded = r.invoked - rng.randint(1, 30)
    return history


def test_witness_verdict_equals_the_pairwise_loops():
    rng = random.Random("witness-sweeps")
    seen = {"atomic": 0}
    for _ in range(150):
        base = sim_history(rng)
        for history in [base] + [mutate(base, rng) for _ in range(4)]:
            verdict = check_witness(history)
            assert verdict == pairwise_reference(history)
            key = verdict.prop or "atomic"
            seen[key] = seen.get(key, 0) + 1
    for name, history in VIOLATIONS.items():
        assert check_witness(history) == pairwise_reference(history), name
    assert {"atomic", "A2", "A3", "A1", "P3"} <= set(seen), seen


def test_atomic_history_never_enters_the_pairwise_loops(monkeypatch):
    config = Config(n_servers=3, n_readers=9, n_writers=1, f=1, mode="swmr")
    net = SimNet("ohsam", config, seed=5)
    net.load_program(config.writers()[0],
                     [("write", f"v{i}") for i in range(500)])
    for pid in config.readers():
        net.load_program(pid, [("read", None)] * 500)
    net.run_seeded()
    history = net.result().history
    assert len(history) >= 5000

    def quadratic(*args):
        raise AssertionError("pairwise loop entered on an atomic history")

    for name in ("_a2_pair", "_a3_pair", "_a1_pair"):
        monkeypatch.setattr(checker, name, quadratic)
    verdict = check_history(history)
    assert verdict.atomic and verdict.method == "witness"
