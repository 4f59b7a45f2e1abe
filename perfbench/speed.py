"""Scale measured durations to one fixed machine speed.

On the 2-vCPU Xeon (KVM) machine this benchmark was tuned on, identical
pure-Python work ran up to 40% faster or slower in phases lasting from a
fraction of a second to minutes, in CPU time as much as in wall time and
with no steal time reported: other tenants of the host change how fast
the same instructions retire. A median over one run cannot remove a
phase that covers the whole run. So every timed chunk of work is
bracketed by a short reference kernel that does not touch the package,
and the chunk's durations are multiplied by NOMINAL_S over the kernel's
mean time at its two ends.

This only works for short chunks, since the kernel samples the speed at
the chunk's ends. Over 240 s of 30 ms simulator chunks, the spread
(interquartile range over median) of 20-second windows fell from 0.32
raw to 0.05 scaled; simulator runs timed as whole 1-second chunks kept
a spread of about 0.2 across seeds, and the same runs timed in slices
of about 0.1 s came down to 0.05-0.10. The workloads keep their chunks
near 0.1-0.3 s.

The kernel imitates the interpreter work the package does: small slotted
objects built, hashed and compared, dict and list updates, attribute
access, string formatting and a JSON round trip. NOMINAL_S is its
median time on that machine, so scaled figures read as seconds there.
"""

from __future__ import annotations

import gc
import json
import time
from dataclasses import dataclass

NOMINAL_S = 0.0032


@dataclass(frozen=True, slots=True)
class _Key:
    node: int
    seq: int


def reference_kernel() -> float:
    """One fixed unit of interpreter work; returns its wall time.

    The cyclic collector is off while it runs: otherwise its collections,
    whose cost and timing depend on how many objects the measured program
    holds, would land inside the kernel.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        seen = {}
        bag = []
        for i in range(1500):
            key = _Key(i % 7, i % 61)
            seen[key] = seen.get(key, 0) + 1
            bag.append(key)
            if len(bag) > 40:
                bag[i % 40] = bag[-1]
                bag.pop()
            label = f"{key.node}#{key.seq}"
        for _ in range(30):
            json.loads(json.dumps({"kind": "readRelay",
                                   "op": {"invoker": label, "seq": 3}}))
        sorted(seen.items(), key=lambda kv: (kv[0].node, kv[0].seq))
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def reference_time() -> float:
    """Median of three kernel runs, so one preempted run does not count."""
    return sorted(reference_kernel() for _ in range(3))[1]


class Speed:
    """Tracks the machine's speed between chunks of measured work."""

    def __init__(self):
        self.last = reference_time()
        self.factors = []

    def factor(self) -> float:
        """Scale for the work done since the previous call (or creation)."""
        now = reference_time()
        f = 2 * NOMINAL_S / (self.last + now)
        self.last = now
        self.factors.append(f)
        return f
