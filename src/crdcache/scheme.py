"""Multi-access caching scheme on top of a resolved block design.

Files are split into v subfiles indexed by the points.  Cache j stores,
for every file, exactly the subfiles indexed by block j (symmetric batch
prefetching), so each cache holds the fraction k/v of every file.  A user
attaches to z caches whose blocks come from z distinct parallel classes;
with b_r blocks per class there are K = C(r,z) * b_r^z users, enumerated
lexicographically by (class subset, per-class block position).

Delivery walks every z-subset of classes and every per-class pair of
blocks.  The 2z chosen blocks define 2^z participating users; for each
user m the complementary blocks of its pair pattern intersect in a set f_m
of exactly mu_z subfile indices that m misses but every other participant
holds.  Sorting each f_m ascending and XOR-combining the s-th elements
yields mu_z coded transmissions per pair choice, so one run transmits
mu_z * C(b_r,2)^z * C(r,z) subfiles in total (rate = that count / v).
The z = 1 degenerate case pairs blocks inside one class with mu_1 := k
and serves 2 users per transmission.

A ``DeliverySchedule`` stores the transmissions as two int32 columns, one
row each: the 2^z users and the 2^z subfiles of the terms.  They are
computed by index arithmetic on the label matrix, in a fixed number of
array passes per block of class subsets and without one Python object per
transmission: a user's id is its class subset's rank times b_r^z plus its
mixed-radix block positions (the lexicographic order above), and f_m is a row
of the class subset's points sorted by joint label.  The provenance (the
classes, the block pairs and s) follows from the users and the row number
as three integer columns (``DeliverySchedule.provenance``).  The printed
forms, ``schedule_to_json`` and ``schedule_text``, read those columns:
``schedule_text`` fills one per-row ``%`` template per chunk of rows.
"""

from __future__ import annotations

import json
import textwrap
from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import cached_property
from itertools import chain, combinations, islice
from math import comb
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .caps import DEFAULT_CAPS, SizeCaps, row_chunks
from .designs import Resolution, crd_profile
from .errors import (
    BadDemandLength,
    DemandOutOfRange,
    IndexOutOfRange,
    InternalMuMismatch,
    MuUndefinedForZ,
)


def admissible_mu(res: Resolution, z: int, caps: SizeCaps = DEFAULT_CAPS) -> Mapping[int, int]:
    """The resolution's read-only mu profile, once z is known to be admissible.

    Raises MuUndefinedForZ unless 1 <= z <= r and mu_2..mu_z all exist;
    z = 1 is always admissible.
    """
    if z < 1 or z > res.r:
        raise MuUndefinedForZ(f"z must be in 1..{res.r}, got {z}")
    profile = crd_profile(res, caps)
    if z > 1 and z not in profile.mu:
        raise MuUndefinedForZ(f"mu_{(profile.crn or 1) + 1} does not exist; z={z} is not admissible")
    return profile.mu


def _user_blocks(res: Resolution, z: int) -> np.ndarray:
    """The users as a (K, z) int32 block matrix: the user of class subset
    rank i and mixed-radix block positions p is row i * b_r^z + p."""
    class_blocks = np.array(res.classes, dtype=np.intp).reshape(res.r, res.b_r)
    subsets = np.array(list(combinations(range(res.r), z)), dtype=np.intp).reshape(-1, z)
    positions = np.indices((res.b_r,) * z).reshape(z, -1).T
    return class_blocks[subsets[:, None, :], positions[None]].reshape(-1, z).astype(np.int32)


def user_memory_fraction(mu: Mapping[int, int], z: int, k: int, v: int) -> Fraction:
    """Fraction of each file a user sees through its z caches.

    Inclusion-exclusion over the z blocks: all t-wise intersections
    (t >= 2) have the same size mu_t, so the union has size
    z*k + sum_{t=2..z} (-1)^(t+1) C(z,t) mu_t, summed as an integer.
    """
    union = z * k
    for t in range(2, z + 1):
        if t not in mu:
            raise MuUndefinedForZ(f"mu_{t} required for z={z} but undefined")
        union += (-1) ** (t + 1) * comb(z, t) * mu[t]
    return Fraction(union, v)


def transmission_count(r: int, b_r: int, z: int, mu_z: int) -> int:
    """Subfiles one run broadcasts: mu_z * C(b_r,2)^z * C(r,z)."""
    return mu_z * comb(b_r, 2) ** z * comb(r, z)


def delivery_rate(v: int, r: int, b_r: int, z: int, mu_z: int) -> Fraction:
    """Worst-case broadcast volume in file units (transmissions / v)."""
    return Fraction(transmission_count(r, b_r, z, mu_z), v)


def coding_gain(z: int) -> int:
    """Users served per coded transmission: 2^z (2 in the z = 1 case)."""
    if z < 1:
        raise IndexOutOfRange(f"z must be >= 1, got {z}")
    return 2**z


@dataclass(frozen=True)
class SchemeInstance:
    """A resolution bound to a choice of z and a file count.

    ``users`` is the read-only (K, z) int32 block matrix, one row per user:
    class subsets in lexicographic order, and within a subset the users'
    block positions in mixed radix b_r, the first class most significant.
    It follows from the resolution and z, so equality, hash and repr leave
    it out.
    """

    res: Resolution
    z: int
    n_files: int
    users: np.ndarray = field(compare=False, repr=False)
    mu_z: int  # mu_z, with mu_1 := k in the z = 1 case

    def __post_init__(self) -> None:
        self.users.flags.writeable = False

    def __setstate__(self, state: dict) -> None:
        # pickle and deepcopy hand back a writeable copy of the matrix
        state["users"].flags.writeable = False
        self.__dict__.update(state)

    @property
    def n_users(self) -> int:
        return len(self.users)


@dataclass(frozen=True)
class SchemeMetrics:
    """Closed-form figures of one (design, z) operating point."""

    caches: int
    z: int
    users: int
    subpacketization: int
    m_over_n: Fraction
    m_prime_over_n: Fraction
    rate: Fraction
    per_user_rate: Fraction
    gain: int


def build_scheme(
    res: Resolution, z: int, n_files: int, caps: SizeCaps = DEFAULT_CAPS
) -> SchemeInstance:
    if n_files < 1:
        raise DemandOutOfRange(f"need at least one file, got {n_files}")
    mu = admissible_mu(res, z, caps)
    return SchemeInstance(
        res=res,
        z=z,
        n_files=n_files,
        users=_user_blocks(res, z),
        mu_z=res.design.k if z == 1 else mu[z],
    )


def closed_form_metrics(
    v: int, b: int, r: int, k: int, mu: Mapping[int, int], z: int
) -> SchemeMetrics:
    """The closed forms of the scheme at z on a resolved design with these
    counts and mu profile (mu_1 := k): K = C(r,z) * b_r^z users, M/N = k/v,
    M'/N by inclusion-exclusion, the rate T/v and the per-user rate T/(vK)
    with T subfiles sent (``transmission_count``), and the gain 2^z."""
    b_r = b // r
    users = comb(r, z) * b_r**z
    sent = transmission_count(r, b_r, z, k if z == 1 else mu[z])
    return SchemeMetrics(
        caches=b,
        z=z,
        users=users,
        subpacketization=v,
        m_over_n=Fraction(k, v),
        m_prime_over_n=user_memory_fraction(mu, z, k, v),
        rate=Fraction(sent, v),
        per_user_rate=Fraction(sent, v * users),
        gain=coding_gain(z),
    )


def scheme_metrics(res: Resolution, z: int, caps: SizeCaps = DEFAULT_CAPS) -> SchemeMetrics:
    mu = admissible_mu(res, z, caps)
    d = res.design
    return closed_form_metrics(d.v, d.b, res.r, d.k, mu, z)


@dataclass(frozen=True)
class CodedTransmission:
    """One XOR broadcast: 2^z (user, subfile) terms plus its provenance.

    ``classes`` are the 0-based parallel classes, ``pairs`` the chosen
    (0-based) block pair per class, ``s`` the 1-based position inside the
    mu_z-sized side-information sets.  Terms are sorted by user index.
    """

    classes: tuple[int, ...]
    pairs: tuple[tuple[int, int], ...]
    s: int
    terms: tuple[tuple[int, int], ...]


_COLUMNS = ("users", "subfiles")


@dataclass(frozen=True, eq=False)
class DeliverySchedule:
    """Every coded transmission as one row of two read-only int32 columns.

    ``users`` (T, 2^z) and ``subfiles`` (T, 2^z) are the terms of each row,
    users ascending.  The provenance follows from them: the first user holds
    one block of each class's pair and the last user the other, and the mu_z
    rows of one class subset and pair choice are consecutive, so row t has
    s = t mod mu_z + 1.  ``provenance`` derives the classes, pairs and s of
    any run of rows as integer columns; every printed form reads them, and
    ``transmissions`` builds its objects from them.
    """

    scheme: SchemeInstance
    demands: tuple[int, ...]
    users: np.ndarray
    subfiles: np.ndarray

    def __post_init__(self) -> None:
        for name in _COLUMNS:
            getattr(self, name).flags.writeable = False

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DeliverySchedule):
            return NotImplemented
        return (self.scheme, self.demands) == (other.scheme, other.demands) and all(
            np.array_equal(getattr(self, name), getattr(other, name)) for name in _COLUMNS
        )

    def __getstate__(self) -> dict:
        # a copy or pickle carries the columns only; cached views are rebuilt on use
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def __setstate__(self, state: dict) -> None:
        # pickle and deepcopy hand back writeable copies of the columns
        for name in _COLUMNS:
            state[name].flags.writeable = False
        self.__dict__.update(state)

    def provenance(self, rows: slice = slice(None)) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The provenance of ``rows`` as integer columns: ``classes`` (n, z)
        and block ``pairs`` (n, z, 2), both 0-based, and ``s`` (n,), 1-based.

        Row t's pair in class c is the blocks of its first and its last user
        in that class, and its s is t mod mu_z + 1.
        """
        res = self.scheme.res
        class_of = np.argsort(np.ravel(res.classes)) // res.b_r  # block -> its class
        pairs = self.scheme.users[self.users[rows][:, [0, -1]]].transpose(0, 2, 1)
        start, stop, _ = rows.indices(len(self.users))
        return class_of[pairs[:, :, 0]], pairs, np.arange(start, stop) % self.scheme.mu_z + 1

    @cached_property
    def transmissions(self) -> tuple[CodedTransmission, ...]:
        """The rows as ``CodedTransmission`` objects, built on first use from
        the ``provenance`` columns.

        No printed form reads them, nor do encoding, checking and decoding,
        which read the columns; they are the schedule as Python objects, for
        callers that walk it row by row.
        """
        classes, pairs, s = self.provenance()
        return tuple(
            CodedTransmission(classes=tuple(c), pairs=tuple(map(tuple, p)), s=t, terms=tuple(zip(u, y)))
            for c, p, t, u, y in zip(
                classes.tolist(), pairs.tolist(), s.tolist(), self.users.tolist(), self.subfiles.tolist()
            )
        )

    @cached_property
    def participation(self) -> tuple[np.ndarray, np.ndarray]:
        """Every user's terms: ``(terms, bounds)``, both read-only.

        ``terms`` is one stable argsort of ``users.ravel()``, so user u's
        terms are the flat positions ``terms[bounds[u]:bounds[u+1]]`` in
        schedule order, and position p sits in row ``p // 2^z``.  It is
        built only to name a fault, and for ``decode_user``: a user's
        decoder, and ``verify_all``'s check of a user its transmission pass
        cannot vouch for, visit only the mu_z (b_r-1)^z rows it is part of.
        The ids are sorted in the
        narrowest unsigned dtype that holds K - 1, for which numpy's stable
        sort is a radix sort up to K = 65536; the positions are kept as
        int32 below 2^31 terms.
        """
        flat = self.users.ravel()
        terms = np.argsort(flat.astype(np.min_scalar_type(self.scheme.n_users - 1)), kind="stable")
        if len(flat) < 2**31:
            terms = terms.astype(np.int32)
        bounds = np.zeros(self.scheme.n_users + 1, dtype=np.intp)
        np.cumsum(np.bincount(flat, minlength=self.scheme.n_users), out=bounds[1:])
        terms.flags.writeable = bounds.flags.writeable = False
        return terms, bounds

    def term_keys(self, terms: np.ndarray | None = None, files: np.ndarray | None = None) -> np.ndarray:
        """The flat subfile key ``(demanded file - 1) * v + point - 1`` of every
        term, shaped like ``users``, or of the flat term positions ``terms``
        (positions in ``users.ravel()``), shaped like ``terms``.

        A key names one subfile of the (N, v) file library in row-major
        order; keys are int32, or int64 past 2^31 subfiles.  Given ``files``,
        the ascending 0-based files of ``demanded_files``, a key names the
        subfile in the (len(files), v) library of those files alone: the
        demanded file's index in ``files`` takes its place.  All terms are
        keyed in row chunks of at most ``WORK_BYTES`` of the intp copies
        numpy makes of int32 index arrays.
        """
        demanded = self._demanded
        if files is not None:
            demanded = np.searchsorted(files, demanded).astype(demanded.dtype)
        if terms is not None:
            return self._keys(demanded, self.users.ravel()[terms], self.subfiles.ravel()[terms])
        keys = np.empty(self.users.shape, dtype=demanded.dtype)
        for rows in row_chunks(len(keys), 8 * max(1, self.users.shape[1])):
            keys[rows] = self._keys(demanded, self.users[rows], self.subfiles[rows])
        return keys

    def _keys(self, demanded: np.ndarray, users: np.ndarray, points: np.ndarray) -> np.ndarray:
        keys = np.take(demanded, users)
        keys *= self.scheme.res.design.v
        keys += points
        keys -= 1
        return keys

    def demanded_files(self) -> np.ndarray:
        """The distinct demanded files, 0-based and ascending (sorted and
        deduplicated by hand: ``np.unique`` imports ``numpy.ma`` on first use)."""
        files = np.sort(self._demanded)
        return files[np.diff(files, prepend=-1) != 0]

    @cached_property
    def _demanded(self) -> np.ndarray:
        """Each user's demanded file, 0-based, in the key dtype."""
        n_files, v = self.scheme.n_files, self.scheme.res.design.v
        return np.array(self.demands, dtype=np.int32 if n_files * v < 2**31 else np.int64) - 1


def demand_vector(scheme: SchemeInstance, demands: Sequence[int] | None = None) -> tuple[int, ...]:
    """The demands as checked ints.  ``None`` means the distinct worst case,
    user i demands file i, which needs N >= K files and no further check."""
    if demands is None:
        if scheme.n_files < scheme.n_users:
            raise DemandOutOfRange(
                f"distinct demands need N >= K, got N={scheme.n_files}, K={scheme.n_users}"
            )
        return tuple(range(1, scheme.n_users + 1))
    demands = tuple(map(int, demands))
    if len(demands) != scheme.n_users:
        raise BadDemandLength(
            f"demand vector has {len(demands)} entries for {scheme.n_users} users"
        )
    # one pass of min and max in C, exact for ints of any size; only a bad
    # vector is scanned for its first offender
    if not 1 <= min(demands) <= max(demands) <= scheme.n_files:
        pos, d = next((p, d) for p, d in enumerate(demands) if not 1 <= d <= scheme.n_files)
        raise DemandOutOfRange(f"user {pos + 1} demands file {d} outside 1..{scheme.n_files}")
    return demands


def build_delivery_schedule(
    scheme: SchemeInstance, demands: Sequence[int] | None = None
) -> DeliverySchedule:
    """All coded transmissions, in their canonical lexicographic order.

    The schedule itself does not depend on the demand values (no savings
    are attempted for repeated demands); the vector fixes which file each
    term refers to and is checked by ``demand_vector``.

    The two columns come from index arithmetic on the label matrix, in a
    fixed number of array passes per block of class subsets; a block holds as many
    consecutive subsets as fit in about ``WORK_BYTES`` of working arrays (its
    joint labels, counts, sort and gathered rows), so the peak stays the size
    of the columns.  The pair choices and, per choice, each participant's own
    and complementary block positions are the same for every class subset.
    A block stacks its subsets' joint labels (S, v) in the narrowest dtype
    that holds b_r^z - 1, counts them in one
    ``bincount`` over offset labels, and argsorts each row stably (a radix
    sort for such dtypes) into the side-information table ``sides``, the
    points sorted by joint label, whose row ``pick`` lists the mu_z ascending
    points of the blocks at the mixed-radix positions ``pick``.  Each column
    is then filled by one pass over its (S, P * mu_z * 2^z) view, from one
    subset's pattern flattened the same way, so that no inner loop is only
    2^z items long.  No provenance is stored: ``transmissions`` derives it.
    The first subset, pair choice and participant whose side-information set
    does not hold mu_z points raises ``InternalMuMismatch``.
    """
    return _build_schedule(scheme, demand_vector(scheme, demands))


def _build_schedule(scheme: SchemeInstance, demands: tuple[int, ...]) -> DeliverySchedule:
    """``build_delivery_schedule`` of a demand vector that ``demand_vector``
    has already checked, so a caller that checks it first checks it once."""
    res = scheme.res
    z, b_r, mu_z = scheme.z, res.b_r, scheme.mu_z
    cells = b_r**z
    gain = coding_gain(z)
    # every pair choice in product order, as (P, z, 2) block positions
    pair_list = np.array(list(combinations(range(b_r), 2)), dtype=np.intp).reshape(-1, 2)
    choices = np.indices((len(pair_list),) * z).reshape(z, -1).T
    chosen = pair_list[choices]
    n_choices = len(chosen)
    # participant m takes side bits[m, s] of the pair in class s (product order,
    # ascending in user id); its side-information blocks are the other sides
    radix = b_r ** np.arange(z - 1, -1, -1)
    bits = (np.arange(gain)[:, None] >> np.arange(z - 1, -1, -1)) & 1
    slot = np.arange(z)
    own = (chosen[:, slot, bits] @ radix).astype(np.int32)
    pick = chosen[:, slot, 1 - bits] @ radix
    # one class subset's users and subfiles (as positions in its sorted points),
    # flattened in (P, mu_z, 2^z) order: each fill below is one pass with an
    # inner loop of P * mu_z * 2^z items, not 2^z
    own_row = np.repeat(own, mu_z, axis=0).reshape(1, -1)
    side_row = (pick[:, None] * mu_z + np.arange(mu_z)[:, None]).reshape(-1)

    n_subsets = comb(res.r, z)
    users = np.empty((n_subsets, n_choices * mu_z * gain), dtype=np.int32)
    subfiles = np.empty_like(users)
    label_type = np.min_scalar_type(cells - 1)
    per_subset = 8 * (3 * res.design.v + cells) + 4 * n_choices * gain * mu_z
    subsets = combinations(range(res.r), z)
    # b_r = 1 leaves no pair to choose: nothing to check or send
    for rows in row_chunks(n_subsets if n_choices else 0, per_subset):
        n = rows.stop - rows.start
        block = np.fromiter(chain.from_iterable(islice(subsets, n)), np.intp, n * z).reshape(n, z)
        joint = res.labels[block[:, 0]].astype(label_type)
        for c in range(1, z):
            joint *= b_r
            joint += res.labels[block[:, c]]
        # every cell is some participant's side information, so one count
        # off mu_z is a failure; only then is the first offender looked up
        sizes = np.bincount((joint + np.arange(n)[:, None] * cells).ravel(), minlength=n * cells)
        if (sizes != mu_z).any():
            sizes = sizes.reshape(n, cells)[:, pick]
            i, p, m = np.unravel_index(np.argmax(sizes != mu_z), sizes.shape)
            raise InternalMuMismatch(
                f"intersection size {sizes[i, p, m]} != mu_z={mu_z} at classes "
                f"{tuple(block[i].tolist())}, pairs {tuple(map(tuple, chosen[p].tolist()))}"
            )
        sides = np.argsort(joint, axis=1, kind="stable").astype(np.int32) + 1
        ranks = np.arange(rows.start, rows.stop, dtype=np.int32)[:, None]
        np.add(ranks * cells, own_row, out=users[rows])
        np.take(sides, side_row, axis=1, out=subfiles[rows], mode="clip")
    users, subfiles = users.reshape(-1, gain), subfiles.reshape(-1, gain)
    return DeliverySchedule(scheme=scheme, demands=demands, users=users, subfiles=subfiles)


def schedule_to_json(schedule: DeliverySchedule) -> dict:
    """Serialize a schedule with 1-based users, blocks, classes and subfiles,
    from the ``provenance`` and term columns, not ``transmissions``."""
    classes, pairs, s = schedule.provenance()
    return {
        "z": schedule.scheme.z,
        "demands": list(schedule.demands),
        "transmissions": [
            {"classes": c, "pairs": p, "s": t, "terms": [{"user": u, "subfile": y} for u, y in zip(us, ys)]}
            for c, p, t, us, ys in zip(
                (classes + 1).tolist(),
                (pairs + 1).tolist(),
                s.tolist(),
                (schedule.users + 1).tolist(),
                schedule.subfiles.tolist(),
            )
        ],
    }


def _label_template(z: int) -> str:
    """A row's provenance as ``classes=1,2 pairs=1-2;4-5 s=1``, with a ``%d``
    for each of the ``_label_fields`` of a z-class row."""
    return f"classes={','.join(['%d'] * z)} pairs={';'.join(['%d-%d'] * z)} s=%d"


def _label_fields(schedule: DeliverySchedule, rows: slice) -> np.ndarray:
    """The (n, 3z + 1) fields of ``_label_template`` for ``rows``: the classes,
    the block pairs (both 1-based) and s."""
    classes, pairs, s = schedule.provenance(rows)
    return np.hstack([classes + 1, (pairs + 1).reshape(len(s), -1), s[:, None]])


def _term_fields(schedule: DeliverySchedule, rows: slice) -> np.ndarray:
    """Each row's terms as (n, 2^(z+1)) fields: user (1-based), subfile, ..."""
    users, subfiles = schedule.users[rows], schedule.subfiles[rows]
    return np.stack([users + 1, subfiles], axis=2).reshape(len(users), -1)


def _filled_rows(
    template: str, sep: str, n_rows: int, width: int, fields: Callable[[slice], Sequence]
) -> Iterator[str]:
    """``template`` filled from ``fields(rows)`` (every row's fields, row after
    row) for rows 0..n_rows-1, the rows joined by ``sep``, as text chunks.

    ``width`` bounds one row's text.  A chunk's rows fit ``WORK_BYTES`` of
    that text plus the row's template and its fields as Python objects (an
    int and its list and tuple slots, under 48 bytes each), so no chunk's
    text, template or fields outgrow the budget.
    """
    row_bytes = len(sep) + width + len(template) + 48 * template.count("%")
    for rows in row_chunks(n_rows, row_bytes):
        if rows.start:
            yield sep
        yield sep.join([template] * (rows.stop - rows.start)) % tuple(fields(rows))


def _row_width(schedule: DeliverySchedule, template: str) -> int:
    """A bound on the text of one row filling ``template``: no field of a row
    is wider than the most users, points, blocks or rows."""
    design = schedule.scheme.res.design
    widest = max(schedule.scheme.n_users, design.v, design.b, len(schedule.users))
    return len(template) + template.count("%") * len(str(widest))


def schedule_text(schedule: DeliverySchedule, fmt: str) -> Iterator[str]:
    """``crdcache schedule``'s output, as text chunks of at most about
    ``WORK_BYTES`` each, written from the columns.

    ``fmt="json"`` is ``json.dumps(schedule_to_json(schedule), indent=2)``
    plus a newline, byte for byte: each transmission fills one template,
    that dump of a row with a ``%d`` for each integer.  ``fmt="text"`` is a
    header line ``K=.. transmissions=T rate=T/v``, then one line per row:
    its 1-based number, its ``_label_template`` and its terms as
    ``u<user>:<subfile>``.
    """
    scheme = schedule.scheme
    z, n_rows, gain = scheme.z, len(schedule.users), coding_gain(scheme.z)
    if fmt == "text":
        template = f"%d: {_label_template(z)} {' '.join(['u%d:%d'] * gain)}"

        def fields(rows: slice) -> list:
            number = np.arange(rows.start + 1, rows.stop + 1)[:, None]
            return np.hstack([number, _label_fields(schedule, rows), _term_fields(schedule, rows)]).ravel().tolist()

        yield f"K={scheme.n_users} transmissions={n_rows} rate={n_rows}/{scheme.res.design.v}\n"
        yield from _filled_rows(template, "\n", n_rows, _row_width(schedule, template), fields)
        if n_rows:
            yield "\n"
        return
    yield f'{{\n  "z": {z},\n  "demands": '
    demands = schedule.demands
    yield from _json_list("    %d", len(demands), 4 + len(str(max(demands))), lambda rows: demands[rows])
    yield ',\n  "transmissions": '
    row = {"classes": [-1] * z, "pairs": [[-1, -1]] * z, "s": -1, "terms": [{"user": -1, "subfile": -1}] * gain}
    template = textwrap.indent(json.dumps(row, indent=2), "    ").replace("-1", "%d")

    def fields(rows: slice) -> list:
        return np.hstack([_label_fields(schedule, rows), _term_fields(schedule, rows)]).ravel().tolist()

    yield from _json_list(template, n_rows, _row_width(schedule, template), fields)
    yield "\n}\n"


def _json_list(template: str, n_rows: int, width: int, fields: Callable[[slice], Sequence]) -> Iterator[str]:
    """A list at depth 1 of ``json.dumps(indent=2)``, its items filling
    ``template``, which holds their indent."""
    if not n_rows:
        yield "[]"
        return
    yield "[\n"
    yield from _filled_rows(template, ",\n", n_rows, width, fields)
    yield "\n  ]"
