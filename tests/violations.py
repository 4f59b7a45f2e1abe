"""Hand-built non-atomic histories.

Every fixture breaks the value story itself, not merely the tags, so
both verdict procedures must reject each one. Times are hand-picked
integers on one scale; tags are what a tag-carrying protocol would have
produced for the write set in question.
"""

from ohram.core import OpId, OpRecord, Tag, parse_pid


def rec(pid_text, seq, kind, invoked, responded, ts=None, wid=None, value=None):
    pid = parse_pid(pid_text)
    tag = Tag(ts, parse_pid(wid)) if ts is not None else None
    return OpRecord(OpId(pid, seq), kind, invoked, responded, tag, value)


def w(pid_text, seq, invoked, responded, ts, value):
    return rec(pid_text, seq, "write", invoked, responded, ts, pid_text, value)


VIOLATIONS = {
    "value_nobody_wrote": [
        w("w1", 1, 0, 2, 1, "A#w1.1"),
        rec("r1", 1, "read", 3, 5, 7, "w9", "Z#w9.7"),
    ],
    "initial_after_completed_write": [
        w("w1", 1, 0, 2, 1, "A#w1.1"),
        rec("r1", 1, "read", 3, 5, 0, "s2", None),
    ],
    "one_reader_goes_backwards": [
        w("w1", 1, 0, 2, 1, "A#w1.1"),
        w("w1", 2, 3, 5, 2, "B#w1.2"),
        rec("r1", 1, "read", 6, 8, 2, "w1", "B#w1.2"),
        rec("r1", 2, "read", 9, 11, 1, "w1", "A#w1.1"),
    ],
    "read_of_a_write_invoked_later": [
        rec("r1", 1, "read", 0, 2, 1, "w1", "A#w1.1"),
        w("w1", 1, 3, 5, 1, "A#w1.1"),
    ],
    "superseded_write_single_writer": [
        w("w1", 1, 0, 2, 1, "A#w1.1"),
        w("w1", 2, 3, 5, 2, "B#w1.2"),
        rec("r1", 1, "read", 6, 8, 1, "w1", "A#w1.1"),
    ],
    "superseded_write_two_writers": [
        w("w1", 1, 0, 2, 1, "A#w1.1"),
        w("w2", 1, 3, 5, 1, "B#w2.1"),
        rec("r1", 1, "read", 6, 8, 1, "w1", "A#w1.1"),
    ],
    "real_tag_phantom_value": [
        w("w1", 1, 0, 2, 1, "A#w1.1"),
        w("w2", 1, 0, 2, 1, "B#w2.1"),
        rec("r1", 1, "read", 3, 5, 1, "w1", "Z#w1.9"),
    ],
    "pending_write_read_before_it_started": [
        rec("r1", 1, "read", 0, 2, 1, "w1", "A#w1.1"),
        rec("w1", 1, "write", 3, None, None, None, "A#w1.1"),
    ],
    "two_readers_sequential_inversion": [
        w("w1", 1, 0, 2, 1, "A#w1.1"),
        w("w1", 2, 3, 5, 2, "B#w1.2"),
        rec("r1", 1, "read", 6, 8, 2, "w1", "B#w1.2"),
        rec("r2", 1, "read", 9, 11, 1, "w1", "A#w1.1"),
    ],
    "read_skips_two_writes_back": [
        w("w1", 1, 0, 2, 1, "A#w1.1"),
        w("w1", 2, 3, 5, 2, "B#w1.2"),
        w("w1", 3, 6, 8, 3, "C#w1.3"),
        rec("r1", 1, "read", 9, 11, 1, "w1", "A#w1.1"),
    ],
    "write_between_two_reads_of_the_old_value": [
        w("w1", 1, 0, 2, 1, "A#w1.1"),
        rec("r1", 1, "read", 3, 5, 1, "w1", "A#w1.1"),
        w("w1", 2, 6, 8, 2, "B#w1.2"),
        rec("r1", 2, "read", 9, 11, 1, "w1", "A#w1.1"),
    ],
    "concurrent_writes_inverted_by_two_readers": [
        w("w1", 1, 0, 100, 1, "A#w1.1"),
        w("w2", 1, 1, 101, 1, "B#w2.1"),
        rec("r1", 1, "read", 10, 12, 1, "w1", "A#w1.1"),
        rec("r1", 2, "read", 13, 15, 1, "w2", "B#w2.1"),
        rec("r2", 1, "read", 10, 12, 1, "w2", "B#w2.1"),
        rec("r2", 2, "read", 13, 15, 1, "w1", "A#w1.1"),
    ],
}
