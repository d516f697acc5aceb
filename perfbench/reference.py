"""Fixed reference tasks that put the body's times on a steady scale.

The benchmark runs on a few cores of a shared host, and how fast that host
runs Python changes by tens of percent from one minute to the next.  The
worker therefore times a reference task, which never changes and never
calls the package, in a burst just before and just after every step of the
body (a sim case; an analyze design, table or family), and divides each
step's time by the mean reference time around it.  A sample's relative
time is the sum over its steps, and ``wall_rel`` is the median over the
samples.  A slower host stretches both sides of each ratio; a slower
package stretches only the step.

Host contention does not slow all code alike: interpreter-bound code and
code that streams megabytes through big ints and ``bytes`` slow by
different amounts.  So there are two tasks, and each workload is paired
with the one that loads the host as its body does (``workloads.REFERENCE``).
"""

from __future__ import annotations

import statistics
import time
from typing import Callable

_BLOCK = bytes(range(256)) * 4096  # 1 MiB


def objects_task() -> int:
    """Small-int arithmetic, dict and tuple indexing, as in the decode scan."""
    table: dict[tuple[int, int], int] = {}
    acc = 0
    for i in range(12_000):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) ^ (i * 2654435761 & 0xFFFF)
        acc += len(table) * (i & 7)
    return acc


def bytes_task() -> int:
    """Big-int XOR over a MiB and back to ``bytes``, as in encode and compare."""
    x = int.from_bytes(_BLOCK, "little")
    for _ in range(4):
        x ^= x >> 5
    seen = {}
    for i in range(20_000):
        seen[(i * 7919) % 65521] = i
    return len(x.to_bytes(len(_BLOCK) + 1, "little")) + len(seen)


TASKS: dict[str, Callable[[], int]] = {"objects": objects_task, "bytes": bytes_task}


def burst(task: Callable[[], int], seconds: float) -> list[float]:
    """Times ``task`` back to back for about ``seconds``; at least once."""
    end = time.perf_counter() + seconds
    taken = []
    while not taken or time.perf_counter() < end:
        t0 = time.perf_counter()
        task()
        taken.append(time.perf_counter() - t0)
    return taken


class Pacer:
    """Runs a burst of the reference task after every timed step of the body.

    The first burst runs when the pacer is made, so every step lies between
    two bursts.  A burst lasts ``SHARE`` of the step before it.
    """

    SHARE = 0.15
    FIRST_BURST_S = 0.05

    def __init__(self, task: Callable[[], int]):
        self._task = task
        self.bursts: list[list[float]] = [burst(task, self.FIRST_BURST_S)]

    def step(self, dt: float) -> float:
        """Runs the burst after a step of ``dt`` seconds; returns the step's
        time over the mean reference time of the bursts before and after it."""
        after = burst(self._task, self.SHARE * dt)
        rel = dt / statistics.fmean(self.bursts[-1] + after)
        self.bursts.append(after)
        return rel
