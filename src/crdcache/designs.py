"""Block designs, resolutions and cross intersection numbers.

A design is a point set {1..v} together with a list of equal-size blocks.
A resolution partitions the blocks into parallel classes, each of which is
a set of pairwise-disjoint blocks tiling the whole point set.  When every
choice of i blocks from i distinct parallel classes meets in the same
nonzero number of points, that common size is the i-th cross intersection
number mu_i; a design with at least one mu_i (i >= 2) is cross resolvable,
and the largest such i is its cross resolution number.  ``crd_profile`` is
the one search for these numbers; it is memoized on the resolution.  A
resolution carries its label matrix: ``labels[c, x-1]`` is the position
in class c of the block holding point x.  Blocks from i classes meet in the
cells of the points' joint label over those classes, so mu_i exists exactly
when every joint value marks v / b_r^i points.  The search reads the class
i-subsets in ``combinations`` order, in blocks: the first holds the first
(i-1)-prefix's subsets, so an order that fails there costs about one prefix,
and each later block doubles while its joint labels fit in ``CACHE_BYTES``.
Each block's labels are sorted row by row, and a subset is uniform when its
row reads each value v / b_r^i times.  At b_r = 2 the pairs go through one
Gram product instead.

A design stores its blocks once, as a read-only (b, k) point matrix:
row j lists the points of block j ascending, in the smallest unsigned
dtype that holds v.  ``validate_design`` is the one step that takes ragged
outside input; ``validate_resolution`` checks a resolution on that matrix
and derives the label matrix from it with one scatter.  The family
builders go the other way: they emit the labels, and
``constructions._from_labels`` keeps them and sorts them into blocks.

Conventions: points are 1-based everywhere (they double as subfile
indices).  Block and class indices are 0-based in the Python API and
1-based in the JSON interchange format, which is
``{"v": int, "blocks": [[int]], "classes": [[int]]}``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import comb, isqrt
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import caps as _caps
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
    """Point count, block matrix and the uniform block size k.

    ``blocks`` is read-only, one ascending row of 1-based points per block,
    cast to the smallest unsigned dtype that holds v; equality and hash
    compare v, k and the row values.
    """

    v: int
    blocks: np.ndarray
    k: int

    def __post_init__(self) -> None:
        blocks = np.asarray(self.blocks, dtype=np.min_scalar_type(self.v))
        blocks.flags.writeable = False
        object.__setattr__(self, "blocks", blocks)

    @property
    def b(self) -> int:
        return len(self.blocks)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Design):
            return NotImplemented
        return (self.v, self.k) == (other.v, other.k) and np.array_equal(self.blocks, other.blocks)

    def __hash__(self) -> int:
        return hash((self.v, self.k, self.blocks.shape, self.blocks.tobytes()))

    def __setstate__(self, state: dict) -> None:
        # pickle and deepcopy hand back a writeable copy of the blocks
        state["blocks"].flags.writeable = False
        self.__dict__.update(state)


@dataclass(frozen=True)
class Resolution:
    """A design plus an ordered partition of its blocks into parallel classes.

    ``classes[c]`` lists 0-based block indices; ``b_r`` is the common number
    of blocks per class (= v/k = b/r).  ``labels`` is the read-only (r, v)
    label matrix in the smallest unsigned dtype that holds b_r - 1; it is
    derived, so equality, hash and repr ignore it.
    """

    design: Design
    classes: tuple[tuple[int, ...], ...]
    b_r: int
    labels: np.ndarray = field(repr=False, compare=False)
    _profiles: dict[SizeCaps, CrdProfile] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def r(self) -> int:
        return len(self.classes)

    def __getstate__(self) -> dict:
        # a copy or pickle starts with an empty memo; profiles are recomputed on use
        return {**self.__dict__, "_profiles": {}}

    def __setstate__(self, state: dict) -> None:
        # pickle and deepcopy hand back a writeable copy of the labels
        state["labels"].flags.writeable = False
        self.__dict__.update(state)


@dataclass(frozen=True)
class CrdProfile:
    """Existing cross intersection numbers and the cross resolution number.

    ``mu`` is a read-only mapping i -> mu_i for every i in 2..r where mu_i
    exists.  The rest follows from it: ``crn`` is the largest such i (None
    when the design is not cross resolvable) and ``is_crd`` says whether
    there is one.
    """

    mu: Mapping[int, int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "mu", MappingProxyType(dict(self.mu)))

    @property
    def crn(self) -> int | None:
        return max(self.mu, default=None)

    @property
    def is_crd(self) -> bool:
        return bool(self.mu)

    def __reduce__(self) -> tuple:
        # mappingproxy does not pickle: send a dict, __post_init__ wraps it again
        return CrdProfile, (dict(self.mu),)


def validate_design(v: int, raw_blocks: Iterable[Iterable[int]]) -> Design:
    """Check block-design axioms on ragged input and return the canonical Design.

    Each block is its distinct points, so a repeated point counts once.
    """
    if v < 1:
        raise PointOutOfRange(f"point count must be >= 1, got {v}")
    rows: list[list[int]] = []
    for pos, raw in enumerate(raw_blocks):
        row = sorted(set(map(int, raw)))
        if not row:
            raise EmptyBlock(f"block {pos + 1} is empty")
        for x in row:
            if x < 1 or x > v:
                raise PointOutOfRange(f"block {pos + 1} contains point {x} outside 1..{v}")
        rows.append(row)
    if not rows:
        raise EmptyBlock("a design needs at least one block")
    k = len(rows[0])
    for pos, row in enumerate(rows):
        if len(row) != k:
            raise NonUniformBlockSize(f"block {pos + 1} has {len(row)} points, expected {k}")
    return Design(v=v, blocks=rows, k=k)


def validate_resolution(design: Design, classes: Sequence[Sequence[int]]) -> Resolution:
    """Check that ``classes`` (0-based block indices) is a resolution of the design.

    The first class that fails is reported: at the smallest point where its
    first block, in class order, meets an earlier one, else by its coverage.
    A class of v / k blocks tiles the points exactly when it leaves none
    uncovered.  So once every class has that many blocks, the label matrix
    (then no larger than the block matrix) is scattered over a "no block"
    mark b_r, and a class still holding a mark is the first to fail.
    """
    flat = [j for cls in classes for j in cls]
    if sorted(flat) != list(range(design.b)):
        raise NotAPartitionOfBlocks(
            f"classes must partition the {design.b} block indices exactly once"
        )
    members = np.array(flat, dtype=np.intp)
    starts = np.cumsum([0] + [len(cls) for cls in classes])
    r = len(classes)
    short = np.flatnonzero(np.diff(starts) * design.k != design.v)
    for pos in range(short[0] + 1 if len(short) else 0):
        _check_class(design, members[starts[pos] : starts[pos + 1]], pos)
    b_r = design.b // r  # each class tiles v points with blocks of size k
    labels = np.full((r, design.v), b_r, dtype=np.min_scalar_type(b_r))
    rank = np.empty(design.b, dtype=np.intp)
    rank[members] = np.arange(design.b)
    class_of, position = np.divmod(rank, b_r)
    labels[class_of[:, None], design.blocks - 1] = position[:, None]
    holes = (labels == b_r).any(axis=1)
    if holes.any():
        pos = int(np.argmax(holes))
        _check_class(design, members[starts[pos] : starts[pos + 1]], pos)
    labels = labels.astype(np.min_scalar_type(b_r - 1), copy=False)
    labels.flags.writeable = False
    return Resolution(
        design=design,
        classes=tuple(tuple(int(j) for j in cls) for cls in classes),
        b_r=b_r,
        labels=labels,
    )


def _check_class(design: Design, blocks: np.ndarray, pos: int) -> None:
    """Raise unless the blocks of class ``pos`` (0-based) tile the points: a
    repeated point, found by a stable sort, before a coverage shortfall."""
    points = design.blocks[blocks].ravel()
    order = np.argsort(points, kind="stable")
    ranked = points[order]
    # a repeated point: the later copy belongs to a later block of the class
    later = np.flatnonzero(ranked[1:] == ranked[:-1]) + 1
    if len(later):
        first = later[np.argmin(order[later] // design.k)]
        raise ClassNotPartitionOfPoints(f"class {pos + 1}: blocks overlap at point {ranked[first]}")
    if len(points) != design.v:
        raise ClassNotPartitionOfPoints(f"class {pos + 1} covers {len(points)} of {design.v} points")


def cross_intersection_number(
    res: Resolution, i: int, caps: SizeCaps = DEFAULT_CAPS
) -> int | None:
    """Common size of all i-wise block intersections across i distinct classes.

    It is v / b_r^i if that divides and every i classes have a uniform joint
    label, else None.  The i-subsets are read in ``combinations`` order, each
    charged as b_r^i intersections against the cap: a non-uniform subset
    within the cap gives None, and a subset past it raises.  At i = 2 and
    b_r = 2 one Gram entry decides a pair (``_first_split_pair``); otherwise
    ``_all_uniform`` decides the subsets in blocks: the first (i-1)-prefix's
    r - i + 1 subsets first, then blocks of twice as many subsets each, every
    block's joint labels and their comparison at most ``CACHE_BYTES`` and
    ``WORK_BYTES`` (one subset at least).
    """
    if i < 2 or i > res.r:
        raise IndexOutOfRange(f"intersection order must be in 2..{res.r}, got {i}")
    cells = res.b_r**i
    mu, rem = divmod(res.design.v, cells)
    if rem:
        return None
    subsets = comb(res.r, i)
    # clamped: a negative cap admits no subset
    admitted = min(subsets, max(0, caps.max_intersections // cells))
    if i == 2 and res.b_r == 2:
        uniform = _first_split_pair(res.labels, mu, admitted) == admitted
    else:
        uniform = _all_uniform(res, i, mu, admitted)
    if not uniform:
        return None
    if admitted < subsets:
        raise SizeCapExceeded(f"mu_{i} search exceeded the cap of {caps.max_intersections} intersections")
    return mu


def _all_uniform(res: Resolution, i: int, mu: int, count: int) -> bool:
    """Whether each of the first ``count`` class i-subsets, in ``combinations``
    order, has every joint label value on mu points.

    The subsets are decided in blocks.  The first block holds the r - i + 1
    subsets of the first (i-1)-prefix, so an order that fails there exits
    after about one prefix of work; each later block doubles, while its
    joint labels and their comparison fit in ``CACHE_BYTES`` and
    ``WORK_BYTES`` (one subset at least), so a block stays in the cache
    while it is sorted and compared.  A block is filled a run of one
    prefix's later classes at a time, in the narrowest dtype that holds
    b_r^i - 1, and sorted row by row (bytes by radix, which numpy's default
    quicksort does not use); a subset is uniform exactly when its sorted row
    is each value repeated mu times.
    """
    labels, b_r, r, v = res.labels, res.b_r, res.r, res.design.v
    dtype = np.min_scalar_type(b_r**i - 1)
    expected = np.repeat(np.arange(b_r**i, dtype=dtype), mu)
    kind = "stable" if dtype.itemsize == 1 else None
    most = max(1, min(_caps.WORK_BYTES, _caps.CACHE_BYTES) // (v * (dtype.itemsize + 1)))
    prefixes = combinations(range(r - 1), i - 1)
    prefix = next(prefixes)
    later, size = prefix[-1] + 1, r - i + 1
    while count:
        n = min(size, most, count)
        joint = np.empty((n, v), dtype=dtype)
        filled = 0
        while filled < n:
            # the prefix's joint label, one place up, plus each later class's label
            take = min(n - filled, r - later)
            head = labels[prefix[0]].astype(dtype)
            for c in prefix[1:]:
                head *= b_r
                head += labels[c]
            head *= b_r
            np.add(head, labels[later : later + take], out=joint[filled : filled + take])
            filled += take
            later += take
            if later == r:
                prefix = next(prefixes, (r - 1,))  # past the last prefix, no class is left
                later = prefix[-1] + 1
        joint.sort(axis=1, kind=kind)
        if (joint != expected).any():
            return False
        count -= n
        size *= 2
    return True


def _gram_dtype(v: int) -> type[np.floating]:
    """float32 while it holds every Gram sum exactly: each is an integer <= v,
    and float32 holds every integer below 2^24; float64 from there on."""
    return np.float32 if v < 1 << 24 else np.float64


def _first_split_pair(labels: np.ndarray, quarter: int, stop: int) -> int:
    """The ``combinations``-order rank of the first class pair of a b_r = 2
    label matrix whose joint label is not uniform, if it ranks below ``stop``;
    else ``stop``.

    Let N be the indicator of label 1, G = N N^T.  Each block holds v / 2
    points, so G[c, c'] fixes all four cells of the pair's joint label, and
    the pair is uniform exactly when G[c, c'] = v / 4 (``quarter``).  G is
    formed in square tiles of label rows converted on the fly, each array at
    most ``WORK_BYTES`` (one label row at least).  Row c's pairs take the
    ranks from c (2r - c - 1) / 2 on, so a band of rows is finished across
    all its columns before the next; no band starting at or after ``stop``
    is formed.
    """
    r, v = labels.shape
    dtype = _gram_dtype(v)
    size = np.dtype(dtype).itemsize
    step = max(1, min(_caps.WORK_BYTES // (size * v), isqrt(_caps.WORK_BYTES // size)))
    for top in range(0, r - 1, step):
        if top * (2 * r - top - 1) // 2 >= stop:
            break
        band = labels[top : top + step].astype(dtype)
        first = np.full(len(band), r)  # each row's first split column, r for none
        for left in range(top, r, step):
            tile = band if left == top else labels[left : left + step].astype(dtype)
            # column left + j pairs with row top + i only when it is the later class
            split = np.triu(band @ tile.T != quarter, top - left + 1)
            hit = split.any(axis=1) & (first == r)
            first[hit] = left + split.argmax(axis=1)[hit]
        rows = np.flatnonzero(first < r)
        if len(rows):
            c = top + int(rows[0])
            return min(stop, c * (2 * r - c - 1) // 2 + int(first[rows[0]]) - c - 1)
    return stop


def crd_profile(res: Resolution, caps: SizeCaps = DEFAULT_CAPS) -> CrdProfile:
    """All existing cross intersection numbers of a resolution.

    Each order is searched at most once per (resolution, caps): the first
    call memoizes the profile on the resolution and later calls with equal
    caps share it.  Other caps search afresh, so a smaller cap still fails.
    """
    profile = res._profiles.get(caps)
    if profile is None:
        mu: dict[int, int] = {}
        for i in range(2, res.r + 1):
            value = cross_intersection_number(res, i, caps)
            if value is None:
                # an absent mu_i forces every higher one absent: a uniform (i+1)-wise
                # joint label is uniform on any i of its classes (cells merge b_r at a time)
                break
            mu[i] = value
        profile = CrdProfile(mu)
        res._profiles[caps] = profile
    return profile


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
        "blocks": res.design.blocks.tolist(),
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
