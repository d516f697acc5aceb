"""Constructions of cross resolvable designs.

Three infinite families plus a small hand-built catalog:

* ``affine_plane(n)`` - the n^2 points of GF(n)^2 with all lines as blocks;
  the n+1 line directions are the parallel classes and any two lines of
  different direction meet in exactly one point (mu_2 = 1).
* ``affine_geometry_bibd(q, m)`` - the q^m points of GF(q)^m with all
  hyperplane cosets as blocks, one class per direction; two hyperplanes of
  different direction meet in q^(m-2) points (the m = 2 case is the affine
  plane).
* ``hadamard_crd(m)`` - from a normalized Hadamard matrix of order 4m:
  after dropping the all-ones row, each row splits the columns into a +1
  block and a -1 block, giving 4m-1 classes of two complementary blocks
  with mu_2 = m.  At a power-of-two order the labels come straight from the
  Sylvester matrix's closed form, entry (i, j) = (-1)^popcount(i & j): row i
  marks the columns j where i & j has odd parity, a chunk of rows at a time.
  Quadratic-residue (Paley type I) matrices cover orders q+1 with q a prime
  power congruent to 3 mod 4.
* ``catalog_example(1..9)`` - small worked designs used by the test suite
  and the comparison tables.  Examples 3, 4, 8 and 9 are the grid designs
  [3]^2, [2]^3, [3]^3 and [2]^4; the rest are kept verbatim.

The family and grid builders emit ``Resolution.labels``, class c becoming
blocks c*b_r .. c*b_r + b_r - 1, and ``_from_labels`` keeps that matrix: a
label matrix is a resolution exactly when each row marks v / b_r points with
every value, which one bincount checks, and a stable argsort of each label
row is the class's rows of the design's point matrix.  Parsed designs and
the hand-built catalog go through ``validate_resolution`` instead.  Point
numbering for the field constructions: coordinate vectors are sorted by
canonical field-element order, most significant coordinate first, then
mapped to 1..v.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import caps as _caps
from .caps import DEFAULT_CAPS, SizeCaps, row_chunks
from .designs import Design, Resolution, validate_design, validate_resolution
from .errors import (
    BadSpec,
    NoConstructionAvailable,
    NonUniformBlockSize,
    SizeCapExceeded,
    UnknownExample,
)
from .gf import GF, prime_power


@dataclass(frozen=True)
class FamilyParams:
    """Predicted parameters of a family instance."""

    v: int
    b: int
    r: int
    k: int
    mu2: int

    @property
    def b_r(self) -> int:
        return self.b // self.r


def affine_plane_params(n: int) -> FamilyParams:
    return FamilyParams(v=n * n, b=n * (n + 1), r=n + 1, k=n, mu2=1)


def affine_geometry_params(q: int, m: int) -> FamilyParams:
    return FamilyParams(
        v=q**m,
        b=q * (q**m - 1) // (q - 1),
        r=(q**m - 1) // (q - 1),
        k=q ** (m - 1),
        mu2=q ** (m - 2),
    )


def hadamard_params(m: int) -> FamilyParams:
    return FamilyParams(v=4 * m, b=2 * (4 * m - 1), r=4 * m - 1, k=2 * m, mu2=m)


def _from_labels(labels: np.ndarray) -> Resolution:
    """The resolution putting point x in block ``labels[c, x-1]`` of class c,
    class c being blocks c*b_r .. c*b_r + b_r - 1; it keeps a read-only copy
    of the labels.

    The matrix is a resolution exactly when every label value 0..b_r-1 marks
    v / b_r points of its row, which one bincount of the rows' offset labels
    checks (else NonUniformBlockSize names the first class that fails); a
    stable argsort of each row then lists its blocks' points ascending.  Both
    run in row chunks of at most ``WORK_BYTES`` of intp offset labels
    and sort orders.
    """
    r, v = labels.shape
    b_r = int(labels.max()) + 1
    blocks = np.empty((r, v), dtype=np.min_scalar_type(v))
    for chunk in row_chunks(r, 8 * v):
        rows = labels[chunk]
        offsets = np.arange(0, len(rows) * b_r, b_r)[:, None]
        sizes = np.bincount((rows + offsets).ravel(), minlength=len(rows) * b_r).reshape(-1, b_r)
        uneven = (sizes * b_r != v).any(axis=1)
        if uneven.any():
            c = int(np.argmax(uneven))
            raise NonUniformBlockSize(
                f"class {chunk.start + c + 1} splits the {v} points into blocks of "
                f"{sizes[c].tolist()} points, not into {b_r} equal blocks"
            )
        order = np.argsort(rows, axis=1, kind="stable")
        np.add(order, 1, out=blocks[chunk], casting="unsafe")
    blocks = blocks.reshape(r * b_r, v // b_r)
    labels = labels.astype(np.min_scalar_type(b_r - 1))
    labels.flags.writeable = False
    return Resolution(
        design=Design(v, blocks, v // b_r),
        classes=tuple(tuple(range(c * b_r, (c + 1) * b_r)) for c in range(r)),
        b_r=b_r,
        labels=labels,
    )


def _grid(b_r: int, r: int) -> np.ndarray:
    """Labels of the grid design [b_r]^r: the base-b_r digits of x - 1, most
    significant first; its profile is mu_i = b_r^(r-i) for every i <= r."""
    return np.arange(b_r**r) // b_r ** np.arange(r - 1, -1, -1)[:, None] % b_r


def affine_geometry_bibd(q: int, m: int, caps: SizeCaps = DEFAULT_CAPS) -> Resolution:
    """Hyperplane design of GF(q)^m, resolved by direction.

    One class per normal vector whose first nonzero coordinate is 1; point x
    lies in block c of the class of normal d exactly when d . x == c.  The
    labels are filled a coordinate at a time: the dot products over the
    first i coordinates fill q^i columns, and the next coordinate is one
    ``take`` of the flat ``add_table`` at label * q + term, so the work is
    about 2 r v lookups, not m r v.  The fill runs in row chunks of normals
    whose intp index fits in ``CACHE_BYTES`` (and ``WORK_BYTES``), so it
    holds the (r, v) labels and one small chunk at a time.
    """
    if m < 2:
        raise NoConstructionAvailable(f"affine geometry needs dimension >= 2, got {m}")
    field = GF(q, caps)
    # q >= 2, so an m at or above the cap's bit length is over the cap without forming q**m
    if m >= caps.max_points.bit_length():
        raise SizeCapExceeded(f"{q}^{m} points exceed the cap of {caps.max_points}")
    v = q**m
    if v > caps.max_points:
        raise SizeCapExceeded(f"{v} points exceed the cap of {caps.max_points}")
    # the normals with j coordinates after their leading 1 are the ints
    # q^j .. 2 q^j - 1; their digits are the coordinates, most significant first
    normals = np.concatenate([np.arange(q**j, 2 * q**j) for j in range(m)])
    digits = normals[:, None] // q ** np.arange(m - 1, -1, -1) % q
    add, mul = field.add_table.ravel(), field.mul_table
    labels = np.empty((len(normals), v), dtype=add.dtype)
    # at the last coordinate a row's intp index, the scaled labels it is
    # summed from and the sums take at most 12 v bytes
    step = max(1, min(_caps.WORK_BYTES, _caps.CACHE_BYTES) // (12 * v))
    for start in range(0, len(normals), step):
        rows = slice(start, start + step)
        part = mul[digits[rows, 0]]
        for i in range(1, m):
            at = np.multiply(part, q, dtype=np.intp)[:, :, None] + mul[digits[rows, i]][:, None, :]
            part = add.take(at).reshape(len(at), -1)
            del at  # before the next index, and before _from_labels
        labels[rows] = part
    return _from_labels(labels)


def affine_plane(n: int, caps: SizeCaps = DEFAULT_CAPS) -> Resolution:
    """Affine plane of prime-power order n (lines of GF(n)^2)."""
    return affine_geometry_bibd(n, 2, caps)


def _sylvester_labels(order: int) -> np.ndarray:
    """The (order - 1, order) bool labels of the normalized Sylvester matrix."""
    idx = np.arange(order, dtype=np.min_scalar_type(order - 1))
    labels = np.empty((order - 1, order), dtype=bool)
    # a chunk's i & j and its bit counts take at most 3 bytes an entry
    for rows in row_chunks(order - 1, 3 * order):
        both = idx[1 + rows.start : 1 + rows.stop, None] & idx
        np.bitwise_and(np.bitwise_count(both), 1, out=labels[rows], casting="unsafe")
    return labels


def _paley_type1(order: int, caps: SizeCaps) -> np.ndarray:
    """The Paley type I Hadamard matrix of order q + 1, from the quadratic
    character of GF(q); no q x q field table is built."""
    q = order - 1
    field = GF(q, caps)
    # quadratic character: 0 at 0, 1 on the nonzero squares, -1 elsewhere
    chi = np.full(q, -1, dtype=np.int8)
    chi[field.squares] = 1
    chi[0] = 0
    s = np.zeros((order, order), dtype=np.int8)
    s[0, 1:] = 1
    s[1:, 0] = -1
    # entry (a, b) is chi(b - a); a chunk's differences, their intp index and
    # the gathered characters take under 16 bytes an entry
    for rows in row_chunks(q, 16 * q):
        s[1 + rows.start : 1 + rows.stop, 1:] = chi[field.differences(rows)]
    s.flat[:: order + 1] += 1
    return s


def hadamard_crd(m: int, caps: SizeCaps = DEFAULT_CAPS) -> Resolution:
    """Complementary-block design of a normalized Hadamard matrix of order 4m."""
    if m < 1:
        raise NoConstructionAvailable(f"order parameter must be >= 1, got {m}")
    order = 4 * m
    if order > caps.max_points:
        raise SizeCapExceeded(f"{order} points exceed the cap of {caps.max_points}")
    if order & (order - 1) == 0:
        return _from_labels(_sylvester_labels(order))
    if prime_power(order - 1) is None or (order - 1) % 4 != 3:
        raise NoConstructionAvailable(
            f"no Hadamard matrix construction for order {order} "
            f"(need a power of two, or {order - 1} a prime power = 3 mod 4)"
        )
    h = _paley_type1(order, caps)
    # normalize row 0 and column 0 to all ones, in place, then drop row 0;
    # the +1 block comes first, and h is gone before the labels are sorted
    np.negative(h, out=h, where=h[0] == -1)
    np.negative(h, out=h, where=h[:, :1] == -1)
    labels = h[1:] == -1
    del h
    return _from_labels(labels)


# Hand-built catalog.  Blocks and class groupings (1-based block numbers)
# are kept in their original order: block order defines cache indexing and
# therefore every downstream schedule.
_CATALOG: dict[int, tuple[int, list[list[int]], list[list[int]]]] = {
    1: (
        4,
        [[1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4]],
        [[1, 6], [2, 5], [3, 4]],
    ),
    2: (
        6,
        [[1, 2, 3], [4, 5, 6], [1, 4, 5], [2, 3, 6]],
        [[1, 2], [3, 4]],
    ),
    5: (
        12,
        [
            [1, 2, 3, 4, 5, 6],
            [7, 8, 9, 10, 11, 12],
            [1, 2, 3, 7, 8, 9],
            [4, 5, 6, 10, 11, 12],
        ],
        [[1, 2], [3, 4]],
    ),
    6: (
        9,
        [
            [1, 2, 3], [4, 5, 6], [7, 8, 9],
            [1, 4, 7], [2, 5, 8], [3, 6, 9],
            [1, 5, 9], [2, 6, 7], [3, 4, 8],
            [1, 6, 8], [2, 4, 9], [3, 5, 7],
        ],
        [[1, 2, 3], [4, 5, 6], [7, 8, 9], [10, 11, 12]],
    ),
    7: (
        8,
        [
            [1, 2, 3, 4], [5, 6, 7, 8], [1, 2, 5, 6], [1, 3, 5, 7],
            [2, 4, 6, 8], [3, 4, 7, 8], [1, 4, 5, 8], [2, 3, 6, 7],
        ],
        [[1, 2], [3, 6], [5, 4], [7, 8]],
    ),
}

# catalog examples that are grid designs: id -> (b_r, r)
_GRIDS = {3: (3, 2), 4: (2, 3), 8: (3, 3), 9: (2, 4)}


def catalog_example(number: int) -> Resolution:
    """One of the nine built-in worked designs."""
    if number in _GRIDS:
        return _from_labels(_grid(*_GRIDS[number]))
    if number not in _CATALOG:
        raise UnknownExample(f"catalog has examples 1..9, got {number}")
    v, blocks, classes = _CATALOG[number]
    return validate_resolution(validate_design(v, blocks), [[j - 1 for j in c] for c in classes])


def _int(where: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise BadSpec(f"{where} is not an integer: {text!r}") from None


def parse_ints(source: str, text: str) -> list[int]:
    """The integers of a comma list; ``source`` names the input in errors."""
    return [_int(f"{source} item {pos + 1}", item) for pos, item in enumerate(text.split(","))]


def parse_params(
    source: str, text: str, keys: Sequence[str], required: bool = True
) -> dict[str, int]:
    """The integers of a ``key=value,...`` list by key, in ``keys`` order.

    Blank items are skipped.  A missing key (when ``required``), an unknown
    or repeated key and a non-integer value raise BadSpec naming ``source``
    and the key.
    """
    raw: dict[str, str] = {}
    for item in text.split(","):
        if item.strip():
            key, _, value = item.partition("=")
            key = key.strip()
            if key in raw:
                raise BadSpec(f"{source} repeats parameter {key!r}")
            raw[key] = value
    for key in keys:
        if required and key not in raw:
            raise BadSpec(f"{source} is missing parameter {key!r}")
    for key in raw:
        if key not in keys:
            raise BadSpec(f"{source} has unknown parameter {key!r} (expected {', '.join(keys)})")
    return {key: _int(f"{source} parameter {key!r}", raw[key]) for key in keys if key in raw}


# family name -> (parameter names, builder taking those values and the caps)
FAMILIES: dict[str, tuple[tuple[str, ...], Callable[..., Resolution]]] = {
    "affine": (("n",), affine_plane),
    "ag": (("q", "m"), affine_geometry_bibd),
    "hadamard": (("m",), hadamard_crd),
    "example": (("id",), lambda number, caps: catalog_example(number)),
}


def from_spec(text: str, caps: SizeCaps = DEFAULT_CAPS) -> Resolution:
    """Build a resolution from a spec string.

    Formats: ``affine:n=3``, ``ag:q=2,m=3``, ``hadamard:m=2``, ``example:4``
    (short for ``example:id=4``).  The family name is case-insensitive; an
    unknown family and a malformed parameter list raise BadSpec.
    """
    family, _, arg_text = text.partition(":")
    family = family.strip().lower()
    if family not in FAMILIES:
        raise BadSpec(
            f"unknown construction family {family!r} "
            "(expected affine:n=..., ag:q=...,m=..., hadamard:m=..., example:...)"
        )
    keys, build = FAMILIES[family]
    if family == "example" and "=" not in arg_text:
        arg_text = f"id={arg_text}"
    return build(*parse_params(f"spec {text!r}", arg_text, keys).values(), caps)
