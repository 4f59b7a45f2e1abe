"""Atomicity checking for recorded operation histories.

Two independent verdict procedures over the same history type:

check_witness inspects tags. It needs every completed operation to carry
a tag and applies the order conditions a tag-based atomic register must
satisfy: sequential writes carry strictly increasing tags and no two
writes share one (A2); sequential reads never go backwards (A3); a read
never returns a tag below a write that finished before the read started
(A1); and every returned (tag, value) pair is either the initial state or
the exact pair of a write that was invoked before the read returned (P3).
The order rules are decided in O(n log n), by a set and a sweep over
response times with a running maximum tag; only when one fails does its
pairwise loop run, to name the first failing pair in invocation order.
P3 is decided and named in one O(n) pass over dictionaries. The rules are
checked in the order above, so when several are broken at once the
reported witness pair is the earliest rule's.

check_bruteforce ignores tags entirely and searches for a linearization:
a total order of the operations, consistent with real time, under which
every read returns the latest preceding write's value (or the initial
value when no write precedes). It is exponential and refuses histories
above BRUTE_MAX_OPS operations. Reads still pending at the end of the
history are dropped; pending writes may take effect or not, so they are
placed optionally.

The two procedures are deliberately dissimilar so they can vouch for each
other in tests. One asymmetry is inherent: the witness checker trusts
tags, so a protocol that hands out tags inconsistent with real time can
fail the witness conditions on a history whose values are perfectly
linearizable. Verdicts for such histories come from check_bruteforce.

Initial-state tags (timestamp zero) are normalized into one equivalence
class before comparison, since different servers mint them with their own
ids.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from typing import Optional

from .core import (
    HistoryTooLarge,
    OpId,
    OpRecord,
    Tag,
    UntaggedHistory,
)

BRUTE_MAX_OPS = 10


@dataclass(frozen=True)
class Verdict:
    atomic: bool
    method: str  # "witness" | "bruteforce"
    reason: Optional[str] = None
    witness: Optional[tuple[OpId, ...]] = None
    prop: Optional[str] = None  # P1 | P2 | P3 | A1 | A2 | A3

    def __bool__(self) -> bool:
        return self.atomic

    def to_json(self) -> dict:
        obj: dict = {"atomic": self.atomic, "method": self.method}
        if not self.atomic:
            obj["violation"] = {
                "property": self.prop,
                "pair": [str(o) for o in (self.witness or ())],
                "explanation": self.reason,
            }
        return obj


def _key(tag: Tag):
    # every ts==0 tag denotes the unwritten register, whoever minted it
    if tag.ts == 0:
        return _INITIAL_KEY
    return (tag.ts, tag.wid.sort_key())


_INITIAL_KEY = (0, (0, 0))
_BELOW_EVERY_KEY = (float("-inf"),)


def check_witness(history: list[OpRecord]) -> Verdict:
    writes, reads, pending_writes = _split(history)
    write_max_before = _max_key_before(writes)
    read_max_before = _max_key_before(reads)
    # Each detector fires whenever its rule's pairwise loop would report a
    # pair, so the verdict is the loops' verdict. A2 and A3 may also fire
    # with nothing to report, on records that respond before they are
    # invoked; the loop then comes back empty and checking goes on.
    rules = (
        (len({k for k, _ in writes}) < len(writes)
         or any(write_max_before(w.invoked) >= k for k, w in writes),
         _a2_pair, (writes,)),
        (any(read_max_before(r.invoked) > k for k, r in reads),
         _a3_pair, (reads,)),
        (any(write_max_before(r.invoked) > k for k, r in reads),
         _a1_pair, (writes, reads)),
    )
    for fires, diagnose, args in rules:
        verdict = diagnose(*args) if fires else None
        if verdict is not None:
            return verdict
    verdict = _p3_pair(writes, reads, pending_writes)
    return Verdict(True, "witness") if verdict is None else verdict


def _split(history: list[OpRecord]):
    """Completed writes and reads as (key, record) pairs in invocation
    order, plus the pending writes."""
    completed = [r for r in history if r.responded is not None]
    for r in completed:
        if r.tag is None:
            raise UntaggedHistory(f"{r.op} completed without a tag")
    pending_writes = [r for r in history
                      if r.responded is None and r.kind == "write"]
    keyed = sorted(((_key(r.tag), r) for r in completed),
                   key=lambda kr: kr[1].invoked)
    writes = [kr for kr in keyed if kr[1].kind == "write"]
    reads = [kr for kr in keyed if kr[1].kind == "read"]
    return writes, reads, pending_writes


def _max_key_before(ops):
    """f(t): the largest key among ops that responded before time t."""
    ordered = sorted(ops, key=lambda kr: kr[1].responded)
    times = [r.responded for _, r in ordered]
    maxes = list(accumulate((k for k, _ in ordered), max,
                            initial=_BELOW_EVERY_KEY))
    return lambda t: maxes[bisect_left(times, t)]


def _fail(prop, reason, *ops) -> Verdict:
    return Verdict(False, "witness", reason, tuple(ops), prop)


def _a2_pair(writes) -> Optional[Verdict]:
    """Writes are totally ordered, consistently with real time."""
    for i, (ku, u) in enumerate(writes):
        for kv, v in writes[i + 1:]:
            if ku == kv:
                return _fail("A2",
                             f"writes {u.op} and {v.op} share tag {u.tag}",
                             u.op, v.op)
            if u.responded < v.invoked and not ku < kv:
                return _fail(
                    "A2",
                    f"write {v.op} finished after {u.op} but its tag "
                    f"{v.tag} does not exceed {u.tag}", u.op, v.op)
            if v.responded < u.invoked and not kv < ku:
                return _fail(
                    "A2",
                    f"write {u.op} finished after {v.op} but its tag "
                    f"{u.tag} does not exceed {v.tag}", v.op, u.op)
    return None


def _a3_pair(reads) -> Optional[Verdict]:
    """Sequential reads never observe an older tag."""
    for i, (kf, first) in enumerate(reads):
        for ks, second in reads[i + 1:]:
            if first.responded < second.invoked and ks < kf:
                return _fail(
                    "A3",
                    f"read {second.op} returned {second.value!r} (tag "
                    f"{second.tag}) after read {first.op} had already "
                    f"returned {first.value!r} (tag {first.tag})",
                    first.op, second.op)
    return None


def _a1_pair(writes, reads) -> Optional[Verdict]:
    """A read sees every write that finished before it started."""
    for kw, w in writes:
        for kr, r in reads:
            if w.responded < r.invoked and kr < kw:
                return _fail(
                    "A1",
                    f"read {r.op} returned tag {r.tag} although write "
                    f"{w.op} with tag {w.tag} finished first", w.op, r.op)
    return None


def _p3_pair(writes, reads, pending_writes) -> Optional[Verdict]:
    """Returned pairs come from real writes that had already been
    invoked. A pair's writes are looked up by (key, value), a pending
    write's by value; the write named is the first in invocation order
    (history order for pending writes)."""
    sources = {}
    for k, w in writes:  # invocation order: the first is the earliest
        sources.setdefault((k, w.value), w)
    ghosts = {}  # value -> (first pending write, earliest invocation)
    for w in pending_writes:
        first, invoked = ghosts.get(w.value, (w, w.invoked))
        ghosts[w.value] = first, min(invoked, w.invoked)
    for kr, r in reads:
        if kr == _INITIAL_KEY:
            if r.value is not None:
                return _fail(
                    "P3",
                    f"read {r.op} paired value {r.value!r} with an "
                    f"initial tag", r.op)
            continue
        w = sources.get((kr, r.value))
        if w is not None:
            if not w.invoked < r.responded:
                return _fail(
                    "P3",
                    f"read {r.op} returned the pair of write {w.op}, "
                    f"which was invoked only later", r.op, w.op)
            continue
        if r.value in ghosts:
            # the write never finished, so its tag is unknown; accept the
            # value but still require the write to have started in time
            w, invoked = ghosts[r.value]
            if not invoked < r.responded:
                return _fail(
                    "P3",
                    f"read {r.op} returned the value of write {w.op}, "
                    f"which was invoked only later", r.op, w.op)
            continue
        return _fail(
            "P3",
            f"read {r.op} returned pair ({r.tag}, {r.value!r}) that no "
            f"write produced", r.op)
    return None


def check_bruteforce(history: list[OpRecord]) -> Verdict:
    mandatory = [r for r in history if r.responded is not None]
    optional = [r for r in history
                if r.responded is None and r.kind == "write"]
    ops = mandatory + optional
    if len(ops) > BRUTE_MAX_OPS:
        raise HistoryTooLarge(
            f"{len(ops)} operations, exhaustive checking stops at "
            f"{BRUTE_MAX_OPS}")

    if _sub_solvable(ops, len(mandatory)):
        return Verdict(True, "bruteforce")

    # diagnose: grow the history in completion order until it breaks
    by_completion = sorted(mandatory, key=lambda r: (r.responded, r.invoked))
    for k in range(1, len(by_completion) + 1):
        prefix = by_completion[:k] + optional
        if not _sub_solvable(prefix, k):
            culprit = by_completion[k - 1]
            partner = None
            for r in by_completion[:k - 1]:
                if r.responded < culprit.invoked:
                    if partner is None or r.responded > partner.responded:
                        partner = r
            pair = ((partner.op, culprit.op) if partner is not None
                    else (culprit.op,))
            prop = "P3" if culprit.kind == "read" else "P2"
            return Verdict(
                False, "bruteforce",
                f"no linearization can place {culprit.op} "
                f"(returned {culprit.value!r})", pair, prop)
    # unreachable: the full history failed, so some prefix fails
    return Verdict(False, "bruteforce", "history is not linearizable",
                   None, "P1")


def _sub_solvable(ops: list[OpRecord], n_mandatory: int) -> bool:
    # ops holds the must-place operations first, optional ones after;
    # search succeeds as soon as every mandatory operation is placed
    n = len(ops)
    mandatory_mask = (1 << n_mandatory) - 1
    preds = [0] * n
    for i, a in enumerate(ops):
        for j, b in enumerate(ops):
            if a.responded is not None and a.responded < b.invoked:
                preds[j] |= 1 << i
    failures: set[tuple[int, Optional[str]]] = set()

    def go(placed: int, value: Optional[str]) -> bool:
        if placed & mandatory_mask == mandatory_mask:
            return True
        key = (placed, value)
        if key in failures:
            return False
        for i in range(n):
            bit = 1 << i
            if placed & bit or preds[i] & ~placed:
                continue
            op = ops[i]
            if op.kind == "read":
                if op.value == value and go(placed | bit, value):
                    return True
            else:
                if go(placed | bit, op.value):
                    return True
        failures.add(key)
        return False

    return go(0, None)


def check_history(history: list[OpRecord]) -> Verdict:
    """Exhaustive verdict when the history is small enough, tag
    conditions otherwise."""
    countable = sum(1 for r in history
                    if r.responded is not None or r.kind == "write")
    if countable <= BRUTE_MAX_OPS:
        return check_bruteforce(history)
    return check_witness(history)
