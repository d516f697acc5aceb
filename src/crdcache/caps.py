"""Size guards for the exhaustive enumerations used throughout.

The cross-intersection search and the field/point constructions are
exhaustive by design; the caps below bound how much work a single call may
do.  ``max_intersections`` counts b_r^i intersections per i-subset of classes
the mu_i search reads, in ``combinations`` order, whether a bincount or (at
i = b_r = 2) a Gram entry decides the subset.  The search stops at the first
non-uniform subset within the cap, so a design whose profile dies quickly
stays cheap even when C(r,i) b_r^i is huge; past the cap it raises.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SizeCaps:
    max_points: int = 4096
    max_intersections: int = 10_000_000


DEFAULT_CAPS = SizeCaps()
