"""Size guards for the exhaustive enumerations used throughout, and the one
working-set budget of every chunked pass.

The cross-intersection search and the field/point constructions are
exhaustive by design; the caps below bound how much work a single call may
do.  ``max_intersections`` counts b_r^i intersections per i-subset of classes
the mu_i search reads, in ``combinations`` order, whether a sorted row of a
block or (at i = b_r = 2) a Gram entry decides the subset.  The search
stops at the first non-uniform subset within the cap, so a design whose
profile dies quickly stays cheap even when C(r,i) b_r^i is huge; past the
cap it raises.

``WORK_BYTES`` is the one budget of every chunked pass, from the mu search
to ``verify_all``'s transmission pass: a stage states what one row of its pass
costs, and ``row_chunks`` cuts its rows into runs that fit.  ``CACHE_BYTES``
further bounds the chunks that should stay in the cache while they are
worked on: a gathered chunk of one term column, a block of the mu
search, and a chunk of the affine geometry's label fill.  Both are read at
call time, so one patch reaches every stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

WORK_BYTES = 1 << 22
CACHE_BYTES = 1 << 18


@dataclass(frozen=True)
class SizeCaps:
    max_points: int = 4096
    max_intersections: int = 10_000_000


DEFAULT_CAPS = SizeCaps()


def row_chunks(n: int, row_bytes: int) -> Iterator[slice]:
    """Slices covering rows 0..n-1 in order, each of max(1, WORK_BYTES //
    row_bytes) rows but the last: at most ``WORK_BYTES`` of rows of
    ``row_bytes`` each, and one row at least."""
    step = max(1, WORK_BYTES // row_bytes)
    return (slice(start, min(start + step, n)) for start in range(0, n, step))
