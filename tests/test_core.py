"""Identifier, tag, and configuration plumbing."""

import copy
import functools
import itertools
import pickle
import sys
import threading

import pytest
from hypothesis import given, strategies as st

from ohram.checker import Verdict
from ohram.core import (
    MODE_MWMR,
    MODE_SWMR,
    Config,
    InvalidFaultBound,
    KIND_READ_ACK,
    Message,
    ModeMismatch,
    OpId,
    OpRecord,
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
from ohram.naive3x import Relay, WriteRecord
from ohram.protocols import PROTOCOL_NAMES, ProtocolBundle, get_protocol
from ohram.runner import _pack, _unpack
from ohram.simnet import OpMetrics, RunResult


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


def test_parse_pid_refuses_every_other_spelling_of_an_id():
    # else a hello, a membership key or --pid could alias another process
    for bad in ("w01", "r007", "s\u0663", "w0"):  # \u0663: Arabic-Indic 3
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
    """Each machine derives quorum from config once, in __init__; a
    subclass that skips super() has none."""
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


def test_a_configuration_needs_a_server_and_no_negative_role_count():
    with pytest.raises(InvalidFaultBound, match="at least one server"):
        validate_config(Config(n_servers=0, n_readers=1, n_writers=1, f=0))
    with pytest.raises(ModeMismatch, match="must be non-negative"):
        validate_config(Config(n_servers=3, n_readers=-1, n_writers=2,
                               f=1, mode="mwmr"))


def test_quorum_size_needs_a_server():
    with pytest.raises(ValueError, match="at least one server"):
        quorum_size(0)


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


@pytest.mark.parametrize("bad", [3.9, True, "3"], ids=repr)
@pytest.mark.parametrize("name", Config._fields[:-1])
def test_config_from_json_refuses_a_count_that_is_no_int(name, bad):
    obj = {**config_to_json(Config(3, 1, 1, 1)), name: bad}
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        config_from_json(obj)


def test_a_config_with_no_mode_decodes_as_mwmr():
    obj = {"n_servers": 3, "n_readers": 1, "n_writers": 2, "f": 1}
    assert config_from_json(obj) == Config(3, 1, 2, 1, MODE_MWMR)


def test_config_json_has_exactly_the_config_fields_as_keys():
    cfg = Config(n_servers=3, n_readers=2, n_writers=1, f=1, mode=MODE_SWMR)
    assert tuple(config_to_json(cfg)) == Config._fields


def test_message_json_round_trip():
    msg = Message(kind="readRelay", op=OpId(reader_id(1), 2), sender=server_id(2),
                  destination=server_id(3), tag=Tag(4, writer_id(1)), value="A#w1.4")
    frame = _pack({"type": "msg", "msg": message_to_json(msg)})
    # the wire leaves the destination to the connection it arrives on
    msg.destination = None
    assert message_from_json(_unpack(frame[4:])) == msg


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
        "tag=Tag(ts=1, wid=ProcessId(role='writer', index=1)), value='A#w1.1')")
    changes = dict(kind="writeAck", op=OpId(reader_id(1), 3), sender=server_id(2),
                   destination=reader_id(2), tag=Tag(1, writer_id(2)), value="B#w1.2")
    assert set(changes) == set(Message.__slots__)
    for name, other in changes.items():
        assert Message(**{**fields, name: other}) != msg, name


def test_an_op_record_has_no_attribute_dict():
    rec = OpRecord(OpId(writer_id(1), 1), "write", 1, 2, Tag(1, writer_id(1)),
                   "A#w1.1")
    with pytest.raises(AttributeError):
        rec.note = "x"
    assert not hasattr(rec, "__dict__")


# One record of each type the package defines, with its repr as the
# classes printed it when they were dataclasses.
_OP = OpId(reader_id(2), 4)
_OP_TEXT = "OpId(invoker=ProcessId(role='reader', index=2), seq=4)"
_TAG = Tag(5, writer_id(1))
_TAG_TEXT = "Tag(ts=5, wid=ProcessId(role='writer', index=1))"
_CONFIG = Config(5, 1, 1, 2, MODE_SWMR)
_CONFIG_TEXT = "Config(n_servers=5, n_readers=1, n_writers=1, f=2, mode='swmr')"
_S1 = "ProcessId(role='server', index=1)"
_S3 = "ProcessId(role='server', index=3)"

MUTABLE_RECORDS = [
    (Message("readRelay", _OP, server_id(3), server_id(1), _TAG, "A#w1.5"),
     f"Message(kind='readRelay', op={_OP_TEXT}, sender={_S3}, "
     f"destination={_S1}, tag={_TAG_TEXT}, value='A#w1.5')"),
    (OpRecord(_OP, "read", 1, None, None, None),
     f"OpRecord(op={_OP_TEXT}, kind='read', invoked=1, responded=None, "
     f"tag=None, value=None)"),
    (OpMetrics("write", 10, 4),
     "OpMetrics(kind='write', messages=10, exchanges=4)"),
    (RunResult("ohsam", _CONFIG, 7, [OpRecord(_OP, "read", 1, 2, _TAG, "A")],
               {_OP: OpMetrics("read", 3, 1)}, 12, [server_id(3)], ["x"]),
     f"RunResult(protocol='ohsam', config={_CONFIG_TEXT}, seed=7, "
     f"history=[OpRecord(op={_OP_TEXT}, kind='read', invoked=1, responded=2, "
     f"tag={_TAG_TEXT}, value='A')], metrics={{{_OP_TEXT}: "
     f"OpMetrics(kind='read', messages=3, exchanges=1)}}, events=12, "
     f"crashed=[{_S3}], invariant_failures=['x'])"),
    (Relay("writeRelay", _OP, server_id(3), server_id(1), _TAG, "B",
           (WriteRecord(_OP, _TAG, "B"),)),
     f"Relay(kind='writeRelay', op={_OP_TEXT}, sender={_S3}, "
     f"destination={_S1}, tag={_TAG_TEXT}, value='B', "
     f"observations=(WriteRecord(op={_OP_TEXT}, tag={_TAG_TEXT}, "
     f"value='B'),))"),
]

VALUE_RECORDS = [
    (_CONFIG, _CONFIG_TEXT),
    (Verdict(False, "witness", "why", (_OP,), "P1"),
     f"Verdict(atomic=False, method='witness', reason='why', "
     f"witness=({_OP_TEXT},), prop='P1')"),
    (ProtocolBundle("p", MODE_SWMR, int, str, float, True, ("a", "b"), ("c",)),
     "ProtocolBundle(name='p', mode='swmr', make_writer=<class 'int'>, "
     "make_reader=<class 'str'>, make_server=<class 'float'>, sound=True, "
     "write_chain=('a', 'b'), read_chain=('c',))"),
    (WriteRecord(_OP, _TAG, None),
     f"WriteRecord(op={_OP_TEXT}, tag={_TAG_TEXT}, value=None)"),
]


def _names(records):
    return [type(record).__name__ for record, _ in records]


@pytest.mark.parametrize("record, text", MUTABLE_RECORDS + VALUE_RECORDS,
                         ids=_names(MUTABLE_RECORDS + VALUE_RECORDS))
def test_records_print_copy_and_pickle_as_before(record, text):
    assert repr(record) == text
    for twin in (copy.copy(record), copy.deepcopy(record),
                 pickle.loads(pickle.dumps(record))):
        assert twin == record and twin is not record
        assert type(twin) is type(record) and repr(twin) == text


@pytest.mark.parametrize("record, _", MUTABLE_RECORDS,
                         ids=_names(MUTABLE_RECORDS))
def test_mutable_records_compare_field_wise_and_do_not_hash(record, _):
    fields = type(record).__match_args__
    with pytest.raises(TypeError):
        hash(record)
    for name in fields:
        changed = copy.copy(record)
        setattr(changed, name, object())
        assert changed != record and not changed == record, name
    # the same fields in an instance of another class are unequal
    other = object.__new__(type("Other", (type(record),), {"__slots__": ()}))
    for name in fields:
        setattr(other, name, getattr(record, name))
    assert other != record and record != other


@pytest.mark.parametrize("record, _", VALUE_RECORDS, ids=_names(VALUE_RECORDS))
def test_value_records_are_immutable_hashable_and_field_wise(record, _):
    assert hash(copy.copy(record)) == hash(record)
    with pytest.raises(AttributeError):
        record.extra = 1
    fields = {name: getattr(record, name)
              for name in type(record).__match_args__}
    assert type(record)(**fields) == record
    for name in fields:
        assert type(record)(**{**fields, name: object()}) != record, name


def test_a_verdict_is_true_exactly_when_atomic():
    assert not Verdict(False, "witness", "why", (_OP,), "P1")
    assert not Verdict(False, "bruteforce")
    assert Verdict(True, "witness")
