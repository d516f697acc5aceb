"""Brute-force counterparts used only as test oracles.

These deliberately take no shortcuts: every tuple is enumerated and every
intersection computed, so they stay independent of whatever early exits
the library uses.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from math import comb, isqrt

import numpy as np

from crdcache.caps import DEFAULT_CAPS, SizeCaps
from crdcache.designs import Resolution, validate_design, validate_resolution
from crdcache.baselines import ComparisonTable, ManPoint
from crdcache.errors import (
    ClassNotPartitionOfPoints,
    CrdCacheError,
    EmptyBlock,
    IncompleteRecovery,
    IndexOutOfRange,
    InternalMuMismatch,
    MissingSideInformation,
    MuUndefinedForZ,
    NonIntegerCacheRedundancy,
    NonUniformBlockSize,
    NotAPartitionOfBlocks,
    PointOutOfRange,
    SizeCapExceeded,
)
from crdcache.gf import _IRREDUCIBLE, prime_power
from crdcache.render import cell_text
from crdcache.scheme import DeliverySchedule, SchemeInstance, SchemeMetrics, admissible_mu, coding_gain
from crdcache.simulator import FileStore, subfile_length


def block_set(res: Resolution, j: int) -> frozenset[int]:
    """The points of block j as a set of Python ints."""
    return frozenset(res.design.blocks[j].tolist())


def set_validate_design(
    v: int, raw_blocks
) -> tuple[int, tuple[frozenset[int], ...], int]:
    """The frozenset form of ``validate_design``: (v, blocks, k)."""
    if v < 1:
        raise PointOutOfRange(f"point count must be >= 1, got {v}")
    blocks: list[frozenset[int]] = []
    for pos, raw in enumerate(raw_blocks):
        block = frozenset(map(int, raw))
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
    return v, tuple(blocks), k


def set_validate_resolution(
    design: tuple[int, tuple[frozenset[int], ...], int], classes
) -> tuple[tuple[tuple[int, ...], ...], int, np.ndarray]:
    """The frozenset form of ``validate_resolution`` on a ``set_validate_design``
    result: (classes, b_r, labels), the labels filled one point at a time."""
    v, blocks, _ = design
    flat = [j for cls in classes for j in cls]
    if sorted(flat) != list(range(len(blocks))):
        raise NotAPartitionOfBlocks(
            f"classes must partition the {len(blocks)} block indices exactly once"
        )
    for pos, cls in enumerate(classes):
        covered: set[int] = set()
        for j in cls:
            block = blocks[j]
            overlap = covered & block
            if overlap:
                raise ClassNotPartitionOfPoints(
                    f"class {pos + 1}: blocks overlap at point {min(overlap)}"
                )
            covered |= block
        if len(covered) != v:
            raise ClassNotPartitionOfPoints(
                f"class {pos + 1} covers {len(covered)} of {v} points"
            )
    b_r = len(blocks) // len(classes)
    labels = np.empty((len(classes), v), dtype=np.min_scalar_type(b_r - 1))
    for c, cls in enumerate(classes):
        for pos, j in enumerate(cls):
            for x in blocks[j]:
                labels[c, x - 1] = pos
    return tuple(tuple(int(j) for j in cls) for cls in classes), b_r, labels


def brute_cross_intersection(res: Resolution, i: int) -> int | None:
    """Scan ALL i-tuples of blocks from i distinct classes; no early exit."""
    blocks = [block_set(res, j) for j in range(res.design.b)]
    sizes = set()
    for class_subset in combinations(res.classes, i):
        for pick in product(*class_subset):
            inter = set(blocks[pick[0]])
            for j in pick[1:]:
                inter &= blocks[j]
            sizes.add(len(inter))
    if len(sizes) == 1 and 0 not in sizes:
        return sizes.pop()
    return None


def scan_cross_intersection(res: Resolution, i: int, caps: SizeCaps = DEFAULT_CAPS) -> int | None:
    """The frozenset scan the label search replaced: one intersection per pick of
    blocks in ``combinations`` x ``product`` order, None at the first empty or
    differing one, SizeCapExceeded once the picks exceed the cap."""
    blocks = [block_set(res, j) for j in range(res.design.b)]
    steps = 0
    seen: int | None = None
    for subset in combinations(res.classes, i):
        for pick in product(*subset):
            steps += 1
            if steps > caps.max_intersections:
                raise SizeCapExceeded(f"mu_{i} search exceeded the cap")
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


def joint_labels(res: Resolution, classes) -> np.ndarray:
    """Each point's mixed-radix block position over ``classes``, the first most
    significant: the points of one value are one block per class intersected."""
    joint = np.zeros(res.design.v, dtype=np.intp)
    for c in classes:
        joint = joint * res.b_r + res.labels[c]
    return joint


def subset_scan_cross_intersection(
    res: Resolution, i: int, caps: SizeCaps = DEFAULT_CAPS
) -> int | None:
    """The label search's charging, one class i-subset at a time in
    ``combinations`` order: each costs b_r^i intersections, the first subset
    past the cap raises, and the first whose joint label does not mark every
    value v / b_r^i times gives None."""
    cells = res.b_r**i
    mu, rem = divmod(res.design.v, cells)
    if rem:
        return None
    spent = 0
    for subset in combinations(range(res.r), i):
        spent += cells
        if spent > caps.max_intersections:
            raise SizeCapExceeded(f"mu_{i} search exceeded the cap")
        counts = Counter(zip(*(res.labels[c].tolist() for c in subset)))
        if len(counts) != cells or set(counts.values()) != {mu}:
            return None
    return mu


def brute_profile(res: Resolution) -> dict[int, int]:
    out = {}
    for i in range(2, res.r + 1):
        value = brute_cross_intersection(res, i)
        if value is not None:
            out[i] = value
    return out


def access_union(res: Resolution, user: tuple[int, ...]) -> set[int]:
    out: set[int] = set()
    for j in user:
        out |= block_set(res, j)
    return out


def count_users_seeing_point(res: Resolution, users, point: int) -> int:
    return sum(1 for user in users if point in access_union(res, user))


def count_users_on_cache(users, cache: int) -> int:
    return sum(1 for user in users if cache in user)


def split_subfiles(data, v: int) -> list[bytes]:
    """Zero-pad to a multiple of v and slice into v equal subfiles; ``data``
    is any bytes-like object, such as a file store's row view."""
    sub = subfile_length(len(data), v)
    padded = bytes(data) + b"\x00" * (sub * v - len(data))
    return [padded[i * sub : (i + 1) * sub] for i in range(v)]


def int_xor_payloads(schedule: DeliverySchedule, store: FileStore) -> list[bytes]:
    """Split every file afresh and XOR each transmission's subfiles as big ints."""
    v = schedule.scheme.res.design.v
    per_file = [split_subfiles(data, v) for data in store.files]
    payloads = []
    for t in schedule.transmissions:
        acc = 0
        size = 0
        for uid, y in t.terms:
            sub = per_file[schedule.demands[uid] - 1][y - 1]
            acc ^= int.from_bytes(sub, "big")
            size = len(sub)
        payloads.append(acc.to_bytes(size, "big"))
    return payloads


def transmission_label(t) -> str:
    """A ``CodedTransmission``'s provenance as ``classes=1,2 pairs=1-2;3-4
    s=1`` (1-based), from its fields."""
    classes = ",".join(str(c + 1) for c in t.classes)
    pairs = ";".join(f"{i + 1}-{j + 1}" for i, j in t.pairs)
    return f"classes={classes} pairs={pairs} s={t.s}"


def object_schedule_text(schedule: DeliverySchedule) -> str:
    """``crdcache schedule --format text`` written one ``transmissions``
    object at a time."""
    lines = [
        f"K={schedule.scheme.n_users} transmissions={len(schedule.transmissions)} "
        f"rate={len(schedule.transmissions)}/{schedule.scheme.res.design.v}"
    ]
    for idx, t in enumerate(schedule.transmissions):
        terms = " ".join(f"u{uid + 1}:{y}" for uid, y in t.terms)
        lines.append(f"{idx + 1}: {transmission_label(t)} {terms}")
    return "\n".join(lines) + "\n"


def object_hex_lines(schedule: DeliverySchedule, payloads) -> list[str]:
    """One ``<label>: <hex>`` line per ``transmissions`` object and payload."""
    return [f"{transmission_label(t)}: {payload.hex()}" for t, payload in zip(schedule.transmissions, payloads)]


def scan_participation(schedule: DeliverySchedule, user: int) -> list[tuple[int, int]]:
    """Every (transmission index, subfile) term of one user, scanning all T."""
    return [
        (t_idx, y)
        for t_idx, t in enumerate(schedule.transmissions)
        for uid, y in t.terms
        if uid == user
    ]


def loop_delivery_schedule(
    scheme: SchemeInstance, demands: tuple[int, ...]
) -> tuple[DeliverySchedule, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """``build_delivery_schedule`` one class subset at a time, with the same
    ``InternalMuMismatch`` on the first subset, pair choice and participant
    whose side-information set does not hold mu_z points; ``demands`` is
    taken as given.  Beside the schedule it returns each row's provenance as
    it is built, the (T, z) classes, (T, z, 2) block pairs and (T,) s, for
    comparison with what ``DeliverySchedule.transmissions`` derives."""
    res = scheme.res
    z, b_r, mu_z = scheme.z, res.b_r, scheme.mu_z
    cells = b_r**z
    gain = coding_gain(z)
    pair_list = np.array(list(combinations(range(b_r), 2)), dtype=np.intp).reshape(-1, 2)
    choices = np.indices((len(pair_list),) * z).reshape(z, -1).T
    chosen = pair_list[choices]
    n_choices = len(chosen)
    radix = b_r ** np.arange(z - 1, -1, -1)
    bits = (np.arange(gain)[:, None] >> np.arange(z - 1, -1, -1)) & 1
    slot = np.arange(z)
    own = chosen[:, slot, bits] @ radix
    pick = chosen[:, slot, 1 - bits] @ radix
    class_blocks = np.array(res.classes, dtype=np.intp).reshape(res.r, b_r)

    rows_per_subset = n_choices * mu_z
    n_rows = comb(res.r, z) * rows_per_subset
    users = np.empty((n_rows, gain), dtype=np.int32)
    subfiles = np.empty((n_rows, gain), dtype=np.int32)
    classes = np.empty((n_rows, z), dtype=np.int32)
    pairs = np.empty((n_rows, z, 2), dtype=np.int32)
    s = np.empty(n_rows, dtype=np.int32)
    for rank, subset in enumerate(combinations(range(res.r), z)):
        joint = joint_labels(res, subset)
        sizes = np.bincount(joint, minlength=cells)[pick]
        bad = sizes != mu_z
        if bad.any():
            p, m = np.unravel_index(np.argmax(bad), bad.shape)
            raise InternalMuMismatch(
                f"intersection size {sizes[p, m]} != mu_z={mu_z} "
                f"at classes {subset}, pairs {tuple(map(tuple, chosen[p].tolist()))}"
            )
        if not n_choices:
            continue
        sides = (np.argsort(joint, kind="stable") + 1).reshape(cells, mu_z)
        rows = slice(rank * rows_per_subset, (rank + 1) * rows_per_subset)
        users[rows].reshape(n_choices, mu_z, gain)[:] = (rank * cells + own)[:, None]
        subfiles[rows].reshape(n_choices, mu_z, gain)[:] = sides[pick].transpose(0, 2, 1)
        classes[rows] = subset
        pair_blocks = class_blocks[list(subset)][slot[:, None], chosen]
        pairs[rows].reshape(n_choices, mu_z, z, 2)[:] = pair_blocks[:, None]
        s[rows].reshape(n_choices, mu_z)[:] = np.arange(1, mu_z + 1)
    schedule = DeliverySchedule(scheme=scheme, demands=demands, users=users, subfiles=subfiles)
    return schedule, (classes, pairs, s)


def scan_side_information_sets(schedule: DeliverySchedule) -> None:
    """The frozenset form of the side-information check, one transmission at a
    time: each participant's complementary-block intersection must equal the
    intersection of the other participants' readable sets (every point when
    the row names no other user)."""
    scheme = schedule.scheme
    res = scheme.res
    blocks = [block_set(res, j) for j in range(res.design.b)]
    everything = frozenset(range(1, res.design.v + 1))
    readable = {}
    for t_idx, t in enumerate(schedule.transmissions):
        uids = [uid for uid, _ in t.terms]
        for uid in uids:
            if uid not in readable:
                readable[uid] = frozenset(access_union(res, scheme.users[uid]))
        for uid in uids:
            mine = scheme.users[uid]
            direct = None
            for s, (blk_i, blk_j) in enumerate(t.pairs):
                other = blk_j if mine[s] == blk_i else blk_i
                direct = blocks[other] if direct is None else direct & blocks[other]
            via_others = everything
            for other_uid in uids:
                if other_uid != uid:
                    via_others &= readable[other_uid]
            if direct != via_others:
                raise InternalMuMismatch(
                    f"transmission {t_idx + 1}: side-information set of user "
                    f"{uid + 1} is {sorted(direct)} but the others share "
                    f"{sorted(via_others)}"
                )


def scan_delivery_verdict(schedule: DeliverySchedule) -> tuple[type, str] | None:
    """The first fault ``verify_all`` names before any payload byte, as
    (error type, message), or None if there is none, in frozensets: the
    side-information identity on every transmission; then, user by user in
    id order, the first term of its rows in schedule order with another
    term (first column first) whose subfile its caches do not hold, else
    the first point it neither caches nor receives."""
    try:
        scan_side_information_sets(schedule)
    except InternalMuMismatch as exc:
        return InternalMuMismatch, str(exc)
    scheme = schedule.scheme
    res = scheme.res
    rows = list(zip(schedule.users.tolist(), schedule.subfiles.tolist()))
    terms: list[list[tuple[int, int]]] = [[] for _ in range(scheme.n_users)]
    for t_idx, (uids, _) in enumerate(rows):
        for m, uid in enumerate(uids):
            terms[uid].append((t_idx, m))
    everything = frozenset(range(1, res.design.v + 1))
    for uid, mine in enumerate(terms):
        readable = frozenset(access_union(res, scheme.users[uid]))
        got = set()
        for t_idx, m in mine:
            uids, points = rows[t_idx]
            got.add(points[m])
            for c, point in enumerate(points):
                if c != m and point not in readable:
                    return MissingSideInformation, (
                        f"transmission {t_idx + 1}: user {uid + 1} cannot strip subfile "
                        f"{point} of user {uids[c] + 1}'s term"
                    )
        missing = everything - readable - got
        if missing:
            return IncompleteRecovery, (
                f"user {uid + 1} never obtained subfile {min(missing)} of file {schedule.demands[uid]}"
            )
    return None


class DigitField:
    """GF(p^e) by per-call digit lists and polynomial loops, with no tables."""

    def __init__(self, q: int):
        self.q = q
        self.p, self.e = prime_power(q)
        self.modulus = _IRREDUCIBLE.get((self.p, self.e))

    def _digits(self, a: int) -> list[int]:
        out = []
        for _ in range(self.e):
            a, d = divmod(a, self.p)
            out.append(d)
        return out

    def _undigits(self, digits: list[int]) -> int:
        val = 0
        for d in reversed(digits):
            val = val * self.p + d
        return val

    def add(self, a: int, b: int) -> int:
        da, db = self._digits(a), self._digits(b)
        return self._undigits([(x + y) % self.p for x, y in zip(da, db)])

    def neg(self, a: int) -> int:
        return self._undigits([(-d) % self.p for d in self._digits(a)])

    def mul(self, a: int, b: int) -> int:
        da, db = self._digits(a), self._digits(b)
        prod = [0] * (2 * self.e - 1)
        for i, x in enumerate(da):
            for j, y in enumerate(db):
                prod[i + j] = (prod[i + j] + x * y) % self.p
        # reduce by the monic modulus: x^e == -(m_0 + m_1 x + ... + m_{e-1} x^{e-1})
        for i in range(len(prod) - 1, self.e - 1, -1):
            c = prod[i]
            prod[i] = 0
            for j in range(self.e):
                prod[i - self.e + j] = (prod[i - self.e + j] - c * self.modulus[j]) % self.p
        return self._undigits(prod[: self.e])


def coset_affine_geometry(q: int, m: int) -> Resolution:
    """Hyperplane design of GF(q)^m: one dot product per (direction, point) pair."""
    field = DigitField(q)
    points = list(product(range(q), repeat=m))
    point_index = {pt: idx + 1 for idx, pt in enumerate(points)}

    def dot(h: tuple[int, ...], x: tuple[int, ...]) -> int:
        acc = 0
        for hc, xc in zip(h, x):
            acc = field.add(acc, field.mul(hc, xc))
        return acc

    directions = [h for h in points if next((c for c in h if c != 0), None) == 1]
    blocks: list[frozenset[int]] = []
    classes: list[tuple[int, ...]] = []
    for h in directions:
        cosets: dict[int, list[int]] = {c: [] for c in range(q)}
        for x in points:
            cosets[dot(h, x)].append(point_index[x])
        start = len(blocks)
        blocks.extend(frozenset(cosets[c]) for c in range(q))
        classes.append(tuple(range(start, start + q)))
    return validate_resolution(validate_design(q**m, blocks), classes)


def dot_product_labels(q: int, m: int) -> np.ndarray:
    """The hyperplane labels of GF(q)^m: entry (d, x) is normal d . point x,
    one dot product per point over DigitField tables.  The normals (first
    nonzero coordinate 1) and the points are in ``product`` order."""
    field = DigitField(q)
    add = np.array([[field.add(a, b) for b in range(q)] for a in range(q)])
    mul = np.array([[field.mul(a, b) for b in range(q)] for a in range(q)])
    points = list(product(range(q), repeat=m))
    normals = np.array([h for h in points if next((c for c in h if c != 0), None) == 1])
    labels = np.empty((len(normals), len(points)), dtype=np.intp)
    for x, point in enumerate(points):
        dot = np.zeros(len(normals), dtype=np.intp)
        for i, coordinate in enumerate(point):
            dot = add[dot, mul[normals[:, i], coordinate]]
        labels[:, x] = dot
    return labels


def double_loop_paley(order: int, caps: SizeCaps = DEFAULT_CAPS) -> np.ndarray:
    """Paley type I matrix of order q + 1, one quadratic character per entry."""
    q = order - 1
    field = DigitField(q)
    squares = {field.mul(x, x) for x in range(1, q)}

    def chi(a: int) -> int:
        if a == 0:
            return 0
        return 1 if a in squares else -1

    s = np.zeros((order, order), dtype=int)
    s[0, 1:] = 1
    s[1:, 0] = -1
    for a in range(q):
        for b in range(q):
            s[a + 1, b + 1] = chi(field.add(b, field.neg(a)))
    return s + np.eye(order, dtype=int)


def kron_sylvester(order: int) -> np.ndarray:
    """The Sylvester Hadamard matrix of a power-of-two order, one Kronecker
    product with [[1, 1], [1, -1]] per doubling."""
    h = np.array([[1]], dtype=np.int8)
    step = np.array([[1, 1], [1, -1]], dtype=np.int8)
    while h.shape[0] < order:
        h = np.kron(h, step)
    return h


def chain_scheme_metrics(res: Resolution, z: int, caps: SizeCaps = DEFAULT_CAPS) -> SchemeMetrics:
    """``scheme_metrics`` as a chain of ``Fraction`` operations: the union
    summed in file units and the per-user rate divided out of the rate."""
    mu = admissible_mu(res, z, caps)
    design = res.design
    mu_z = design.k if z == 1 else mu[z]
    users = comb(res.r, z) * res.b_r**z
    rate = Fraction(mu_z * comb(res.b_r, 2) ** z * comb(res.r, z), design.v)
    union = z * Fraction(design.k, design.v)
    for t in range(2, z + 1):
        if t not in mu:
            raise MuUndefinedForZ(f"mu_{t} required for z={z} but undefined")
        union += (-1) ** (t + 1) * comb(z, t) * Fraction(mu[t], design.v)
    return SchemeMetrics(
        caches=design.b,
        z=z,
        users=users,
        subpacketization=design.v,
        m_over_n=Fraction(design.k, design.v),
        m_prime_over_n=union,
        rate=rate,
        per_user_rate=rate / users,
        gain=coding_gain(z),
    )


def chain_man_point(users: int, m_over_n: Fraction | int) -> tuple[ManPoint, Fraction]:
    """``man_point`` as a chain of ``Fraction`` operations, and its per-user
    rate divided out of the rate; it has no size cap, so callers keep K small."""
    m_over_n = Fraction(m_over_n)
    t = users * m_over_n
    if t.denominator != 1 or t < 1 or t > users:
        raise NonIntegerCacheRedundancy(
            f"K*M/N must be a positive integer <= K, got {t} for K={users}"
        )
    t = int(t)
    rate = Fraction(users) * (1 - m_over_n) / (1 + t)
    point = ManPoint(users, m_over_n, rate, 1 + t, comb(users, t))
    return point, rate / users


def chain_cell_text(x) -> str:
    """A table cell's text through ``str`` and ``float`` of the value."""
    if x is None:
        return "n/a"
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return str(x.numerator)
        return f"{x} ({format(float(x), '.12g')})"
    return str(x)


def rowwise_table_text(table: ComparisonTable) -> str:
    """``table_text`` a row at a time: every cell left-justified to its
    column's width, the row joined and stripped of trailing spaces."""
    headers = ["parameter"] + [name for name, _ in table.columns]
    grid = [headers]
    for row_idx, label in enumerate(table.row_labels):
        grid.append([label] + [cell_text(cells[row_idx]) for _, cells in table.columns])
    widths = [max(len(row[i]) for row in grid) for i in range(len(headers))]
    lines = [table.title, ""]
    for row_idx, row in enumerate(grid):
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
        if row_idx == 0:
            lines.append("  ".join("-" * w for w in widths))
    for note in table.notes:
        lines.append("")
        lines.append(f"note: {note}")
    return "\n".join(lines) + "\n"


def enumerate_users(
    res: Resolution, z: int, caps: SizeCaps = DEFAULT_CAPS
) -> tuple[tuple[int, ...], ...]:
    """All K = C(r,z) * b_r^z users as z-tuples of 0-based block indices, by
    class subset and then by block, each in lexicographic order."""
    admissible_mu(res, z, caps)
    return tuple(
        pick for subset in combinations(res.classes, z) for pick in product(*subset)
    )


class NonIntegerResult(CrdCacheError):
    """Inputs to an exact integer identity are inconsistent."""


def _integer_root(n: int, z: int) -> int:
    """floor(n ** (1/z)) for n >= 0 and z >= 1, exact at any size."""
    if z == 1 or n < 2:
        return n
    if z == 2:
        return isqrt(n)
    # integer Newton from above: x starts at a power of two >= the root and
    # decreases monotonically until it reaches floor(n ** (1/z))
    x = 1 << -(-n.bit_length() // z)
    while True:
        y = ((z - 1) * x + n // x ** (z - 1)) // z
        if y >= x:
            return x
        x = y


def subpacketization_from_counts(k: int, big_k: int, r: int, z: int) -> int:
    """Recover v from the user count: v = k * (K / C(r,z))^(1/z), exactly."""
    if not 1 <= z <= r or big_k < 0:
        raise IndexOutOfRange(f"need 1 <= z <= r and K >= 0, got z={z}, r={r}, K={big_k}")
    per_subset, rem = divmod(big_k, comb(r, z))
    if rem:
        raise NonIntegerResult(f"K={big_k} is not a multiple of C({r},{z})")
    b_r = _integer_root(per_subset, z)
    if b_r**z == per_subset:
        return k * b_r
    raise NonIntegerResult(f"{per_subset} is not a perfect {z}-th power")


def per_user_rate_ratio(v: int, k: int, z: int, mu2: int | None = None) -> Fraction:
    """Ratio (R/K at z) / (R/K at z-1) for one design, z >= 2: (mu_2 / 2k)(v/k - 1)
    at z = 2 and (1/2)(1 - k/v) above."""
    if z < 2:
        raise IndexOutOfRange(f"ratio is defined for z >= 2, got {z}")
    if z == 2:
        if mu2 is None:
            raise MuUndefinedForZ("mu_2 is required for the z=2 ratio")
        return Fraction(mu2, 2 * k) * (Fraction(v, k) - 1)
    return Fraction(1, 2) * (1 - Fraction(k, v))


def is_prime(n: int) -> bool:
    """Trial division by every integer from 2 up to the square root."""
    return n >= 2 and all(n % f for f in range(2, isqrt(n) + 1))
