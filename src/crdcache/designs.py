"""Block designs, resolutions and cross intersection numbers.

A design is a point set {1..v} together with a list of equal-size blocks.
A resolution partitions the blocks into parallel classes, each of which is
a set of pairwise-disjoint blocks tiling the whole point set.  When every
choice of i blocks from i distinct parallel classes meets in the same
nonzero number of points, that common size is the i-th cross intersection
number mu_i; a design with at least one mu_i (i >= 2) is cross resolvable,
and the largest such i is its cross resolution number.

Conventions: points are 1-based everywhere (they double as subfile
indices).  Block and class indices are 0-based in the Python API and
1-based in the JSON interchange format, which is
``{"v": int, "blocks": [[int]], "classes": [[int]]}``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from math import comb
from typing import Iterable, Mapping, Sequence

from .caps import DEFAULT_CAPS, SizeCaps
from .errors import (
    ClassNotPartitionOfPoints,
    EmptyBlock,
    IndexOutOfRange,
    MalformedDesignJson,
    NonUniformBlockSize,
    NotAPartitionOfBlocks,
    PointOutOfRange,
    SizeCapExceeded,
)


@dataclass(frozen=True)
class Design:
    """Point count, ordered block list and the uniform block size k."""

    v: int
    blocks: tuple[frozenset[int], ...]
    k: int

    @property
    def b(self) -> int:
        return len(self.blocks)


@dataclass(frozen=True)
class Resolution:
    """A design plus an ordered partition of its blocks into parallel classes.

    ``classes[c]`` lists 0-based block indices; ``b_r`` is the common number
    of blocks per class (= v/k = b/r).
    """

    design: Design
    classes: tuple[tuple[int, ...], ...]
    b_r: int

    @property
    def r(self) -> int:
        return len(self.classes)

    def class_blocks(self, c: int) -> list[frozenset[int]]:
        return [self.design.blocks[j] for j in self.classes[c]]


@dataclass(frozen=True)
class CrdProfile:
    """Existing cross intersection numbers and the cross resolution number.

    ``mu`` maps i -> mu_i for every i in 2..r where mu_i exists; ``crn`` is
    the largest such i (None when the design is not cross resolvable).
    """

    mu: Mapping[int, int]
    crn: int | None
    is_crd: bool


def validate_design(v: int, raw_blocks: Iterable[Iterable[int]]) -> Design:
    """Check block-design axioms and return the canonical Design."""
    if v < 1:
        raise PointOutOfRange(f"point count must be >= 1, got {v}")
    blocks: list[frozenset[int]] = []
    for pos, raw in enumerate(raw_blocks):
        block = frozenset(int(x) for x in raw)
        if not block:
            raise EmptyBlock(f"block {pos + 1} is empty")
        for x in sorted(block):
            if x < 1 or x > v:
                raise PointOutOfRange(f"block {pos + 1} contains point {x} outside 1..{v}")
        blocks.append(block)
    if not blocks:
        raise EmptyBlock("a design needs at least one block")
    k = len(blocks[0])
    for pos, block in enumerate(blocks):
        if len(block) != k:
            raise NonUniformBlockSize(
                f"block {pos + 1} has {len(block)} points, expected {k}"
            )
    return Design(v=v, blocks=tuple(blocks), k=k)


def validate_resolution(design: Design, classes: Sequence[Sequence[int]]) -> Resolution:
    """Check that ``classes`` (0-based block indices) is a resolution of the design."""
    flat = [j for cls in classes for j in cls]
    if sorted(flat) != list(range(design.b)):
        raise NotAPartitionOfBlocks(
            f"classes must partition the {design.b} block indices exactly once"
        )
    for pos, cls in enumerate(classes):
        covered: set[int] = set()
        for j in cls:
            block = design.blocks[j]
            overlap = covered & block
            if overlap:
                raise ClassNotPartitionOfPoints(
                    f"class {pos + 1}: blocks overlap at point {min(overlap)}"
                )
            covered |= block
        if len(covered) != design.v:
            raise ClassNotPartitionOfPoints(
                f"class {pos + 1} covers {len(covered)} of {design.v} points"
            )
    return Resolution(
        design=design,
        classes=tuple(tuple(int(j) for j in cls) for cls in classes),
        b_r=design.b // len(classes),
    )


def cross_intersection_number(
    res: Resolution, i: int, caps: SizeCaps = DEFAULT_CAPS
) -> int | None:
    """Common size of all i-wise block intersections across i distinct classes.

    Returns None as soon as one intersection is empty or two differ; a full
    scan happens only when mu_i actually exists.
    """
    if i < 2 or i > res.r:
        raise IndexOutOfRange(f"intersection order must be in 2..{res.r}, got {i}")
    blocks = res.design.blocks
    budget = caps.max_intersections
    steps = 0
    seen: int | None = None
    for subset in combinations(res.classes, i):
        for pick in product(*subset):
            steps += 1
            if steps > budget:
                raise SizeCapExceeded(
                    f"mu_{i} search exceeded the cap of {budget} intersections"
                )
            inter = blocks[pick[0]]
            for j in pick[1:]:
                inter = inter & blocks[j]
                if not inter:
                    return None
            if seen is None:
                seen = len(inter)
            elif len(inter) != seen:
                return None
    return seen


def crd_profile(res: Resolution, caps: SizeCaps = DEFAULT_CAPS) -> CrdProfile:
    """All existing cross intersection numbers of a resolution."""
    mu: dict[int, int] = {}
    for i in range(2, res.r + 1):
        value = cross_intersection_number(res, i, caps)
        if value is None:
            # an absent mu_i forces every higher one absent: a common
            # (i+1)-wise size would make each i-wise intersection equal
            # mu_{i+1} * v/k for all choices
            break
        mu[i] = value
    return CrdProfile(mu=mu, crn=max(mu) if mu else None, is_crd=bool(mu))


def users_per_subfile(r: int, z: int, b_r: int) -> int:
    """How many users can read a fixed subfile index through some cache."""
    return comb(r, z) * (b_r**z - (b_r - 1) ** z)


def users_per_cache_subfile(r: int, z: int, b_r: int) -> int:
    """How many users read a fixed subfile index through one specific cache."""
    return comb(r - 1, z - 1) * b_r ** (z - 1)


def design_to_json(res: Resolution) -> dict:
    """Serialize to the 1-based JSON interchange format."""
    return {
        "v": res.design.v,
        "blocks": [sorted(block) for block in res.design.blocks],
        "classes": [[j + 1 for j in cls] for cls in res.classes],
    }


def _json_int(value: object, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise MalformedDesignJson(f"design JSON {where} must be an integer, got {value!r}")
    return value


def _json_int_lists(obj: Mapping, key: str) -> list[list[int]]:
    value = obj[key]
    if not isinstance(value, list) or not all(isinstance(row, list) for row in value):
        raise MalformedDesignJson(
            f"design JSON key {key!r} must be a list of lists, got {type(value).__name__}"
        )
    return [
        [_json_int(x, f"{key!r} entry {pos + 1}") for x in row] for pos, row in enumerate(value)
    ]


def resolution_from_json(obj: Mapping) -> Resolution:
    """Parse and fully validate the 1-based JSON interchange format."""
    if not isinstance(obj, Mapping):
        raise MalformedDesignJson(
            f"design JSON must be an object with keys 'v', 'blocks' and 'classes', "
            f"got {type(obj).__name__}"
        )
    for key in ("v", "blocks", "classes"):
        if key not in obj:
            raise MalformedDesignJson(f"design JSON is missing the key {key!r}")
    design = validate_design(_json_int(obj["v"], "key 'v'"), _json_int_lists(obj, "blocks"))
    classes = [[j - 1 for j in cls] for cls in _json_int_lists(obj, "classes")]
    for cls in classes:
        for j in cls:
            if j < 0 or j >= design.b:
                raise NotAPartitionOfBlocks(
                    f"class references block {j + 1} outside 1..{design.b}"
                )
    return validate_resolution(design, classes)
