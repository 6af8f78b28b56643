"""Fixed reference work that scales every timing to a nominal CPU speed.

On a shared machine the speed a process gets drifts by tens of percent
within a minute, and CPU time drifts with wall time, so it is not
preemption that a CPU clock could leave out.  The benchmark therefore
times this fixed piece of interpreter work next to each operation and
reports op_time * REF_NOMINAL_S / reference_time: the operation's time
on a machine where the reference takes REF_NOMINAL_S.  The work touches
no alphatree code, so a change to the package cannot move it.
"""

from __future__ import annotations

from time import perf_counter

REF_NOMINAL_S = 0.01


def _reference_work() -> int:
    # the mix of bytecode the package spends its time in: dict and list
    # traffic, a sort, compare loops, and a walk over a few MB of list
    # and int objects, whose speed also depends on the shared caches
    counts: dict = {}
    keys = []
    for i in range(10000):
        k = (i * 2654435761) & 1023
        counts[k] = counts.get(k, 0) + 1
        keys.append(k ^ i)
    keys.sort()
    s = 0
    for i in range(1, len(keys)):
        if keys[i] > keys[i - 1]:
            s += keys[i] - keys[i - 1]
    n = 1 << 14
    vals = [(i * 2654435761) & 0xFFFFF for i in range(n)]
    perm = sorted(range(n), key=vals.__getitem__)
    j = 0
    for _ in range(n):
        j = perm[j]
        s += vals[j]
    return s + len(counts)


def time_reference() -> float:
    """Seconds one run of the reference work takes now."""
    t0 = perf_counter()
    _reference_work()
    return perf_counter() - t0
