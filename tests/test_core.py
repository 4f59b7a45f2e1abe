"""Identifier, tag, and configuration plumbing."""

import copy
import dataclasses
import functools
import itertools
import json
import pickle
import sys
import threading

import pytest
from hypothesis import given, strategies as st

from ohram.core import (
    Config,
    InvalidFaultBound,
    KIND_READ_ACK,
    Message,
    ModeMismatch,
    OpId,
    ProcessId,
    Tag,
    config_from_json,
    config_to_json,
    message_from_json,
    message_to_json,
    parse_pid,
    quorum_size,
    reader_id,
    server_id,
    validate_config,
    writer_id,
)
from ohram.protocols import PROTOCOL_NAMES, get_protocol


def test_pid_text_round_trip():
    for text in ("w1", "r3", "s12"):
        assert str(parse_pid(text)) == text


def test_pid_sort_groups_writers_readers_servers():
    pids = [server_id(1), reader_id(2), writer_id(1), reader_id(1), server_id(2)]
    ordered = sorted(pids, key=lambda p: p.sort_key())
    assert [str(p) for p in ordered] == ["w1", "r1", "r2", "s1", "s2"]


def test_parse_pid_rejects_garbage():
    for bad in ("x1", "w", "w0", "", "s-1", "1w"):
        with pytest.raises(ValueError):
            parse_pid(bad)


def test_tag_orders_by_timestamp_then_writer():
    assert Tag(2, writer_id(1)) < Tag(2, writer_id(2))
    assert Tag(1, writer_id(2)) < Tag(2, writer_id(1))
    assert not Tag(2, writer_id(2)) < Tag(2, writer_id(1))
    assert not Tag(2, writer_id(1)) < Tag(2, writer_id(1))


def test_tag_max_picks_larger():
    a, b = Tag(3, writer_id(1)), Tag(3, writer_id(2))
    assert max([a, b]) == b
    assert max([b, a]) == b
    with pytest.raises(ValueError):
        max([])


tags = st.builds(Tag,
                 st.integers(min_value=0, max_value=6),
                 st.integers(min_value=1, max_value=4).map(writer_id))


@given(tags, tags)
def test_tag_order_total(a, b):
    # exactly one of <, >, == holds
    assert (a < b, b < a, a == b).count(True) == 1


@given(tags, tags, tags)
def test_tag_order_transitive(a, b, c):
    if a < b and b < c:
        assert a < c


@given(st.integers(min_value=1, max_value=25))
def test_quorums_intersect(n):
    """Any two majorities share a server. The safety anchor."""
    q = quorum_size(n)
    assert 2 * q > n
    first = set(range(q))
    second = set(range(n - q, n))
    assert first & second


def test_quorum_size_values():
    assert [quorum_size(n) for n in (3, 4, 5, 7)] == [2, 3, 3, 4]


def test_every_machine_caches_its_quorum_size():
    """Each machine derives quorum (and a client server_ids) from config
    once, in __post_init__; a subclass that skips super() has neither."""
    for name in PROTOCOL_NAMES:
        bundle = get_protocol(name)
        for n in range(1, 8):
            config = Config(n_servers=n, n_readers=1,
                            n_writers=1 if bundle.mode == "swmr" else 2,
                            f=(n - 1) // 2, mode=bundle.mode)
            clients = [bundle.make_writer(writer_id(1), config),
                       bundle.make_reader(reader_id(1), config)]
            server = bundle.make_server(server_id(1), config)
            for machine in clients + [server]:
                assert machine.quorum == quorum_size(n), (name, n, machine)
            for machine in clients:
                assert machine.server_ids == tuple(config.servers())


def test_config_accessors():
    cfg = Config(n_servers=3, n_readers=2, n_writers=2, f=1)
    assert [str(p) for p in cfg.servers()] == ["s1", "s2", "s3"]
    assert [str(p) for p in cfg.readers()] == ["r1", "r2"]
    assert [str(p) for p in cfg.writers()] == ["w1", "w2"]


def test_fault_bound_must_be_minority():
    validate_config(Config(n_servers=3, n_readers=1, n_writers=1, f=1))
    with pytest.raises(InvalidFaultBound):
        validate_config(Config(n_servers=4, n_readers=1, n_writers=1, f=2))
    with pytest.raises(InvalidFaultBound):
        validate_config(Config(n_servers=3, n_readers=1, n_writers=1, f=2))


def test_swmr_mode_requires_one_writer():
    with pytest.raises(ModeMismatch):
        validate_config(Config(n_servers=3, n_readers=1, n_writers=2,
                               f=1, mode="swmr"))


def test_unknown_mode_rejected():
    with pytest.raises(ModeMismatch):
        validate_config(Config(n_servers=3, n_readers=1, n_writers=1,
                               f=1, mode="spmd"))


def test_config_json_round_trip():
    cfg = Config(n_servers=5, n_readers=3, n_writers=2, f=2)
    assert config_from_json(config_to_json(cfg)) == cfg


def test_message_json_round_trip():
    msg = Message(kind="readRelay", op=OpId(reader_id(1), 2), sender=server_id(2),
                  destination=server_id(3), tag=Tag(4, writer_id(1)), value="A#w1.4",
                  relay_origin=server_id(1))
    again = message_from_json(json.loads(json.dumps(message_to_json(msg))))
    assert again == msg


def test_pids_built_at_once_by_many_threads_are_one_object():
    """Interning publishes atomically: racing builders of a new id agree.

    A get-then-set table can hand two racers two objects, and then a
    reply whose invoker is the other object is silently dropped.
    """
    threads_n, rounds = 8, 1000
    barrier = threading.Barrier(threads_n)
    results = [[None] * threads_n for _ in range(rounds)]
    first_index = 1_000_000   # far above any id another test builds

    def build(slot):
        for r in range(rounds):
            barrier.wait(timeout=10)
            index = first_index + r
            # half the racers parse text, half build from the index
            results[r][slot] = (parse_pid(f"r{index}") if slot % 2
                                else reader_id(index))

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(i,)) for i in range(threads_n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in threads)
    for r, built in enumerate(results):
        assert all(pid is built[0] for pid in built), f"round {r}: {built}"
        assert built[0] is reader_id(first_index + r)


def test_pid_is_interned_across_constructors_copies_and_pickles():
    pid = server_id(3)
    assert parse_pid("s3") is pid
    assert ProcessId("server", 3) is pid
    assert copy.copy(pid) is pid
    assert copy.deepcopy(pid) is pid
    assert pickle.loads(pickle.dumps(pid)) is pid
    tag = copy.deepcopy(Tag(2, pid))
    assert tag == Tag(2, pid) and tag.wid is pid
    op = pickle.loads(pickle.dumps(OpId(reader_id(1), 4)))
    assert op == OpId(reader_id(1), 4) and op.invoker is reader_id(1)


def test_pid_is_immutable():
    pid = writer_id(1)
    with pytest.raises(AttributeError):
        pid.index = 2
    with pytest.raises(AttributeError):
        pid.role = "reader"
    with pytest.raises(AttributeError):
        del pid.index
    assert (pid.role, pid.index, str(pid)) == ("writer", 1, "w1")


# every tag of ts 0..3 by writers w1..w3, plus the servers' initial tags
TAG_GRID = ([Tag(ts, writer_id(w)) for ts in range(4) for w in range(1, 4)]
            + [Tag(0, server_id(k)) for k in range(1, 4)])


def _reference_less(a, b):
    # the tag order as the protocol defines it, independent of Tag
    return (a.ts, a.wid.sort_key()) < (b.ts, b.wid.sort_key())


def test_tuple_order_is_the_tag_order():
    for a, b in itertools.product(TAG_GRID, repeat=2):
        assert (a < b) == _reference_less(a, b), (a, b)
        assert (a > b) == _reference_less(b, a), (a, b)
        assert (a == b) == (not _reference_less(a, b)
                            and not _reference_less(b, a)), (a, b)

    def compare(a, b):
        return _reference_less(b, a) - _reference_less(a, b)

    for shuffle in range(5):
        tags = TAG_GRID[shuffle:] + TAG_GRID[:shuffle]
        by_tuple = sorted(reversed(tags))
        assert by_tuple == sorted(tags, key=functools.cmp_to_key(compare))
        assert max(tags) == by_tuple[-1] == Tag(3, writer_id(3))


def test_value_types_print_as_before():
    assert str(writer_id(1)) == "w1"
    assert repr(writer_id(1)) == "ProcessId(role='writer', index=1)"
    assert str(server_id(12)) == "s12"
    assert repr(server_id(12)) == "ProcessId(role='server', index=12)"
    assert str(OpId(reader_id(2), 7)) == "r2#7"
    assert repr(OpId(reader_id(2), 7)) == (
        "OpId(invoker=ProcessId(role='reader', index=2), seq=7)")
    assert str(Tag(3, server_id(4))) == "(3,s4)"
    assert repr(Tag(3, server_id(4))) == (
        "Tag(ts=3, wid=ProcessId(role='server', index=4))")


def test_message_equality_is_field_wise():
    fields = dict(kind=KIND_READ_ACK, op=OpId(reader_id(1), 2), sender=server_id(1),
                  destination=reader_id(1), tag=Tag(1, writer_id(1)), value="A#w1.1")
    msg = Message(**fields)
    assert Message(**fields) == msg
    assert repr(msg) == (
        "Message(kind='readAck', op=OpId(invoker=ProcessId(role='reader', index=1), "
        "seq=2), sender=ProcessId(role='server', index=1), "
        "destination=ProcessId(role='reader', index=1), "
        "tag=Tag(ts=1, wid=ProcessId(role='writer', index=1)), value='A#w1.1', "
        "relay_origin=None)")
    changes = dict(kind="writeAck", op=OpId(reader_id(1), 3), sender=server_id(2),
                   destination=reader_id(2), tag=Tag(1, writer_id(2)), value="B#w1.2",
                   relay_origin=server_id(1))
    assert set(changes) == {f.name for f in dataclasses.fields(Message)}
    for name, other in changes.items():
        assert Message(**{**fields, name: other}) != msg, name
