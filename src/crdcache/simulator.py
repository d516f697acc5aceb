"""Byte-exact execution of a delivery schedule.

The server holds N equal-length pseudo-random files, file i being the i-th
``random.Random(seed).randbytes(file_len)``.  Their bytes are generated
once, by numpy's MT19937 started in that generator's state, straight into
one read-only zero-padded ``uint8`` library array of shape (N, v, sub) for
the first subpacketization v asked for; ``files`` are the rows of that one
array, and a library for another v is copied from them.  A cache is a
read-only view over the library restricted to the points of its block, so
filling b caches copies no bytes.  Every coded transmission is the bytewise
XOR of its subfiles, gathered one term column at a time in cache-sized row
chunks; the payloads are a sequence of ``bytes`` rows over one (T, sub) array.

Only ``decode_user`` strips terms: for each row the user takes part in,
found through the schedule's participation index, it XORs off the other
terms with subfiles read from its own z caches, then stitches its file.
``verify_all`` checks each row once instead.  Participant m recovers the
payload XOR the other terms, which is its own subfile XOR the row's
residual (the payload XOR all 2^z terms); every participant reads the same
library bytes, so all of them decode correctly exactly when the residual
is zero.  That is T * 2^z subfile reads, the size of the encoding.  Per
user it still checks, in array passes over batches of users, that every
other term of its rows is readable from its caches and every point is
cached or received.  It also checks, on every transmission, that the
side-information set of each participant (intersection of the
complementary blocks) equals the intersection of what the other
participants can read - the identity the delivery argument rests on - on
packed bit rows scattered from the blocks, stored words first so that every
pass runs along the transmissions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from itertools import repeat
from typing import Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .caps import DEFAULT_CAPS, SizeCaps
from .designs import Resolution
from .errors import DemandOutOfRange, IncompleteRecovery, InternalMuMismatch, MissingSideInformation
from .scheme import (
    DeliverySchedule,
    build_delivery_schedule,
    build_scheme,
    delivery_rate,
)

# Working-set bounds: a side-information check chunk, a decode batch, a chunk
# of generated file words and a gathered term column stay under these bytes
_CHECK_BYTES = 1 << 22
_DECODE_BYTES = 1 << 22
_STORE_BYTES = 1 << 22
_GATHER_BYTES = 1 << 18


@dataclass(frozen=True)
class FileStore:
    """N files of identical length, reproducible from (n_files, file_len, seed).

    Holds no bytes until a library or ``files`` is first asked for; equality,
    pickling and copying go by the three numbers alone.
    """

    n_files: int
    file_len: int
    seed: int
    _libraries: dict[int, np.ndarray] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __reduce__(self):
        return FileStore, (self.n_files, self.file_len, self.seed)

    def library(self, v: int) -> np.ndarray:
        """The files split into v subfiles: a read-only (N, v, sub) uint8 array.

        Built on first use for each v and shared by every later caller.  The
        first one is generated in place; later ones are copied from it.
        """
        lib = self._libraries.get(v)
        if lib is None:
            sub = subfile_length(self.file_len, v)
            rows = np.zeros((self.n_files, v * sub), dtype=np.uint8)
            if self._libraries:
                rows[:, : self.file_len] = self._rows()[:, : self.file_len]
            else:
                _write_random_files(rows, self.file_len, self.seed)
            lib = rows.reshape(self.n_files, v, sub)
            lib.flags.writeable = False
            self._libraries[v] = lib
        return lib

    def _rows(self) -> np.ndarray:
        """The first library built, as (N, v * sub) padded file rows."""
        if not self._libraries:
            self.library(1)
        return next(iter(self._libraries.values())).reshape(self.n_files, -1)

    @cached_property
    def files(self) -> tuple[memoryview, ...]:
        """The files as read-only ``memoryview``s of the first library's rows;
        each compares equal to its ``bytes`` and has length ``file_len``."""
        return tuple(memoryview(row[: self.file_len]) for row in self._rows())


def _write_random_files(rows: np.ndarray, file_len: int, seed: int) -> None:
    """Write the i-th ``random.Random(seed).randbytes(file_len)`` into
    ``rows[i, :file_len]``.

    ``randbytes(L)`` is ceil(L/4) MT19937 outputs written little-endian, a
    last partial output keeping its high L % 4 bytes, so the N files are one
    consecutive output stream.  It is drawn from numpy's MT19937 loaded with
    the state of ``random.Random(seed)``, at most ``_STORE_BYTES`` of
    ``uint64`` outputs at a time: several whole files, or part of one.
    """
    from numpy.random import MT19937  # kept out of the package import

    state = random.Random(seed).getstate()[1]
    gen = MT19937(_unseeded())
    gen.state = {
        "bit_generator": "MT19937",
        "state": {"key": np.array(state[:-1], dtype=np.uint32), "pos": state[-1]},
    }
    whole, tail = divmod(file_len, 4)
    words = whole + (tail > 0)
    chunk = max(1, _STORE_BYTES // 8)
    n_rows = max(1, chunk // words)
    span = min(words, chunk)
    for first in range(0, len(rows), n_rows):
        block = rows[first : first + n_rows]
        for start in range(0, words, span):
            stop = min(start + span, words)
            raw = gen.random_raw(len(block) * (stop - start)).reshape(len(block), -1)
            end = min(stop, whole)
            np.copyto(
                block[:, 4 * start : 4 * end].view("<u4"), raw[:, : end - start], casting="unsafe"
            )
            if stop > whole:
                last = raw[:, -1:].astype("<u4").view(np.uint8)
                block[:, 4 * whole : file_len] = last[:, 4 - tail :]
            del raw  # before the next chunk is drawn


@cache
def _unseeded():
    """A seed sequence that derives nothing: the generator's state is loaded
    straight after, so the SeedSequence hashing ``MT19937()`` does is waste."""
    from numpy.random.bit_generator import ISeedSequence

    class Unseeded(ISeedSequence):
        def generate_state(self, n_words, dtype=np.uint32):
            return np.zeros(n_words, dtype=dtype)

    return Unseeded()


def make_file_store(n_files: int, file_len: int, seed: int = 0) -> FileStore:
    if n_files < 1 or file_len < 1:
        raise DemandOutOfRange(
            f"need n_files >= 1 and file_len >= 1, got {n_files}, {file_len}"
        )
    return FileStore(n_files=n_files, file_len=file_len, seed=seed)


def subfile_length(file_len: int, v: int) -> int:
    return -(-file_len // v)


class CacheView(Mapping[tuple[int, int], bytes]):
    """One cache's contents: (file id, point) -> subfile bytes, for every
    file and every point of the cache's block.

    A read-only view over the shared library array; ``block`` is the
    block's ascending row of points.  Any key outside the block (or outside
    1..N) raises ``KeyError``; keys iterate as Python ints.
    """

    def __init__(self, library: np.ndarray, block: np.ndarray):
        self.library = library
        self.block = block

    def __getitem__(self, key: tuple[int, int]) -> bytes:
        file_id, point = key
        if point not in self.block or not 1 <= file_id <= len(self.library):
            raise KeyError(key)
        return self.library[file_id - 1, point - 1].tobytes()

    def __iter__(self) -> Iterator[tuple[int, int]]:
        points = self.block.tolist()
        for file_id in range(1, len(self.library) + 1):
            for point in points:
                yield file_id, point

    def __len__(self) -> int:
        return len(self.library) * len(self.block)


def build_caches(store: FileStore, res: Resolution) -> list[CacheView]:
    """Cache contents: cache j maps (file id, point in block j) -> subfile bytes."""
    library = store.library(res.design.v)
    return [CacheView(library, block) for block in res.design.blocks]


class Payloads(Sequence[bytes]):
    """The coded transmissions as rows of one (T, sub) uint8 array: a row reads
    as ``bytes``, a slice as ``Payloads``, and assigning ``bytes`` to a row
    writes it; equal to any sequence of the same ``bytes`` rows."""

    def __init__(self, rows: np.ndarray):
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Payloads(self.rows[index])
        return self.rows[index].tobytes()

    def __setitem__(self, index: int, payload: bytes) -> None:
        self.rows[index] = np.frombuffer(payload, dtype=np.uint8)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return list(self) == list(other)


def encode_payloads(schedule: DeliverySchedule, store: FileStore) -> Payloads:
    """One XOR payload per coded transmission, in schedule order: every row
    is XORed into one (T, sub) array by ``_xor_gather``."""
    library = store.library(schedule.scheme.res.design.v)
    air = np.zeros((len(schedule.users), library.shape[2]), dtype=np.uint8)
    _xor_gather(air, library, schedule.demand_rows, schedule.users, schedule.subfiles - 1)
    return Payloads(air)


def _xor_gather(
    acc: np.ndarray, library: np.ndarray, demand_rows: np.ndarray, users: np.ndarray, points: np.ndarray
) -> None:
    """XOR ``library[demand_rows[users[:, c]], points[:, c]]`` (0-based points) into
    ``acc`` for every column c, over row chunks of at most ``_GATHER_BYTES``: no
    gathered temporary outgrows the cache; a one-row chunk XORs the library row."""
    n_files, v, sub = library.shape
    flat = library.reshape(n_files * v, sub)
    step = max(1, _GATHER_BYTES // max(1, sub))
    for start in range(0, len(acc), step):
        block, rows = acc[start : start + step], slice(start, start + step)
        index = demand_rows[users[rows]] * v + points[rows]
        for c in range(index.shape[1]):
            terms = flat[index[0, c]] if step == 1 else np.take(flat, index[:, c], axis=0)
            np.bitwise_xor(block, terms, out=block)


def _incidence(blocks: np.ndarray, v: int) -> np.ndarray:
    """A (n, v) bool array from an (n, k) block matrix: row j marks the
    points of block j."""
    out = np.zeros((len(blocks), v), dtype=bool)
    out[np.arange(len(blocks))[:, None], blocks - 1] = True
    return out


def _air_rows(payloads: Sequence[bytes] | np.ndarray, rows: np.ndarray, sub: int) -> np.ndarray:
    """A writeable (len(rows), sub) copy of the payloads of ``rows``."""
    if isinstance(payloads, Payloads):
        payloads = payloads.rows
    if isinstance(payloads, np.ndarray):
        return payloads[rows]
    joined = bytearray(b"".join([payloads[t] for t in rows.tolist()]))
    return np.frombuffer(joined, dtype=np.uint8).reshape(len(rows), sub)


def _reach(
    first: int, stop: int, schedule: DeliverySchedule, readable: np.ndarray, demands: Sequence[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Check, moving no payload byte, that users first..stop-1, who read the
    points of ``readable`` (B, v), can strip every other term of their rows
    and so get every point.  Returns their terms in the users', then schedule
    order: (flat position, flat positions and 0-based points (2^z - 1, terms)
    of the row's other terms, own 0-based point, got (B, v))."""
    gain = schedule.users.shape[1]
    order, bounds = schedule.participation
    terms = order[bounds[first] : bounds[stop]]
    owner = schedule.users.ravel()[terms] - first
    own_points = schedule.subfiles.ravel()[terms] - 1
    # the other columns of each term's row, ascending (gain is a power of two);
    # terms run along the last axis, so no pass loops over 2^z - 1 items
    col = terms & (gain - 1)
    skip = np.arange(gain - 1)[:, None]
    others = terms - col + skip + (skip >= col)
    other_points = schedule.subfiles.ravel()[others] - 1
    v = readable.shape[1]
    strippable = readable.ravel()[owner * v + other_points]
    got = np.zeros(readable.shape, dtype=bool)
    got.ravel()[owner * v + own_points] = True
    have = readable | got
    # a user's unstrippable term is reported before its missing subfiles
    if not strippable.all():
        term, c = np.unravel_index(np.argmin(strippable.T), strippable.T.shape)
        if have[: owner[term]].all():
            raise MissingSideInformation(
                f"transmission {terms[term] // gain + 1}: user {first + owner[term] + 1} cannot "
                f"strip subfile {other_points[c, term] + 1} of user "
                f"{schedule.users.flat[others[c, term]] + 1}'s term"
            )
    if not have.all():
        short = np.argmin(have.all(axis=1))
        raise IncompleteRecovery(
            f"user {first + short + 1} never obtained subfile "
            f"{np.argmin(have[short]) + 1} of file {demands[short]}"
        )
    return terms, others, other_points, own_points, got


def decode_user(
    user_idx: int,
    payloads: Sequence[bytes] | np.ndarray,
    schedule: DeliverySchedule,
    caches: Sequence[CacheView],
    demand: int,
    file_len: int,
) -> tuple[bytes, int, int]:
    """Reconstruct the demanded file for one user.

    Reads only the user's own z caches, which also give the library, plus
    the broadcast payloads of the transmissions it takes part in (a sequence
    of ``bytes`` rows, or their (T, sub) array), and strips every other term
    of those rows; ``file_len`` is the true (pre-padding) length to strip
    back to.  Returns (file bytes, subfiles from cache, subfiles from the air).
    """
    own = [caches[j] for j in schedule.scheme.users[user_idx].tolist()]
    library = own[0].library
    readable = np.zeros((1, library.shape[1]), dtype=bool)
    readable[0, np.concatenate([cache.block for cache in own]) - 1] = True
    terms, others, other_points, points, got = _reach(
        user_idx, user_idx + 1, schedule, readable, (demand,)
    )
    air = _air_rows(payloads, terms // schedule.users.shape[1], library.shape[2])
    _xor_gather(air, library, schedule.demand_rows, schedule.users.ravel()[others].T, other_points.T)
    out = np.empty(library.shape[1:], dtype=np.uint8)
    out[points] = air
    # a readable subfile is taken from the caches, even if it also came over the air
    out[readable[0]] = library[demand - 1, readable[0]]
    counts = int(np.count_nonzero(readable)), int(np.count_nonzero(got))
    return out.reshape(-1)[:file_len].tobytes(), *counts


class UserReport(NamedTuple):
    user: int  # 0-based
    demand: int
    recovered: bool
    byte_equal: bool
    subfiles_from_cache: int
    subfiles_from_air: int


@dataclass(frozen=True)
class SimulationReport:
    z: int
    n_files: int
    file_len: int
    seed: int
    users: tuple[UserReport, ...]
    transmissions_sent: int
    measured_rate: Fraction
    theoretical_rate: Fraction

    @property
    def all_recovered(self) -> bool:
        return all(u.recovered and u.byte_equal for u in self.users)


def _packed(sets: np.ndarray) -> np.ndarray:
    """Boolean point rows (..., v) as bit rows of uint64 words (..., W)."""
    words = -(-sets.shape[-1] // 64)
    padded = np.zeros(sets.shape[:-1] + (words * 64,), dtype=bool)
    padded[..., : sets.shape[-1]] = sets
    return np.packbits(padded, axis=-1).view(np.uint64)


def _points(bits: np.ndarray, v: int) -> list[int]:
    """The 1-based points of one packed bit row, ascending."""
    return (np.flatnonzero(np.unpackbits(np.ascontiguousarray(bits).view(np.uint8))[:v]) + 1).tolist()


def _check_side_information_sets(schedule: DeliverySchedule) -> None:
    """On every transmission: the complementary-block intersection of each
    participant must equal the intersection of all other participants'
    readable index sets.

    Point sets are packed bit rows of W = ceil(v/64) words, stored words
    first: every array is (W, ..., rows), so each pass runs along the rows
    of a chunk of bounded size, gathered through intp indices.  The others'
    intersection comes from prefix and suffix ANDs over the participants.
    A schedule's users ascend in every row, so only a row that does not may
    name one user twice; such rows are recomputed leaving every copy of the
    participant out, without sorting any row.
    """
    scheme = schedule.scheme
    v = scheme.res.design.v
    incidence = np.ascontiguousarray(_packed(_incidence(scheme.res.design.blocks, v)).T)
    blocks_of = scheme.users.T.astype(np.intp, order="C")  # (z, K)
    readable = np.take(incidence, blocks_of[0], axis=1)
    for blocks in blocks_of[1:]:
        readable |= np.take(incidence, blocks, axis=1)
    everything = _packed(np.ones(v, dtype=bool))[:, None]

    n_rows, gain = schedule.users.shape
    words = incidence.shape[0]
    step = max(1, _CHECK_BYTES // (gain * 8 * (words + scheme.z)))
    for start in range(0, n_rows, step):
        users = schedule.users[start : start + step].T.astype(np.intp, order="C")  # (2^z, rows)
        pairs = schedule.pairs[start : start + step].transpose(1, 2, 0).astype(np.intp, order="C")
        mine = np.take(blocks_of, users, axis=1)
        other = np.where(mine == pairs[:, :1], pairs[:, 1:], pairs[:, :1])
        direct = np.take(incidence, other[0], axis=1)  # (W, 2^z, rows)
        for blocks in other[1:]:
            direct &= np.take(incidence, blocks, axis=1)
        sets = np.take(readable, users, axis=1)
        via_others = np.empty_like(sets)
        via_others[:, 0] = everything
        for m in range(1, gain):
            np.bitwise_and(via_others[:, m - 1], sets[:, m - 1], out=via_others[:, m])
        after = sets[:, -1].copy()
        for m in range(gain - 2, -1, -1):
            via_others[:, m] &= after
            after &= sets[:, m]
        odd = np.flatnonzero((users[1:] <= users[:-1]).any(axis=0))
        if len(odd):
            named, held = users[:, odd], sets[:, :, odd]
            for m in range(gain):
                kept = np.where(named != named[m], held, everything[:, None])
                via_others[:, m, odd] = np.bitwise_and.reduce(kept, axis=1)
        wrong = (direct != via_others).any(axis=0).T
        if wrong.any():
            row, m = np.unravel_index(np.argmax(wrong), wrong.shape)
            raise InternalMuMismatch(
                f"transmission {start + row + 1}: side-information set of user "
                f"{users[m, row] + 1} is {_points(direct[:, m, row], v)} but the others share "
                f"{_points(via_others[:, m, row], v)}"
            )


def verify_all(
    res: Resolution,
    z: int,
    n_files: int,
    file_len: int,
    seed: int = 0,
    demands: Sequence[int] | None = None,
    caps: SizeCaps = DEFAULT_CAPS,
) -> SimulationReport:
    """End-to-end run: place, schedule and broadcast, then check what every
    user can strip and every row's residual against the library's bytes."""
    scheme = build_scheme(res, z, n_files, caps)
    schedule = build_delivery_schedule(scheme, demands)
    _check_side_information_sets(schedule)
    # the participation sort's scratch (a radix sort's T * 2^z index buffer)
    # is freed before the library and the payloads exist
    _, bounds = schedule.participation
    store = make_file_store(n_files, file_len, seed)
    caches = build_caches(store, res)
    payloads = encode_payloads(schedule, store)
    v = res.design.v
    n_users = scheme.n_users
    # users are checked in batches of at most _DECODE_BYTES of term indices
    # and point masks, read from one incidence of the caches
    incidence = _incidence(np.array([cache.block for cache in caches]), v)
    per_user = int(np.diff(bounds).max()) * 24 * schedule.users.shape[1] + (scheme.z + 3) * v
    step = max(1, _DECODE_BYTES // per_user)
    counts = np.empty((2, n_users), dtype=np.intp)  # subfiles from cache, from the air
    for first in range(0, n_users, step):
        stop = min(first + step, n_users)
        readable = incidence[scheme.users[first:stop]].any(axis=1)
        got = _reach(first, stop, schedule, readable, schedule.demands[first:stop])[-1]
        counts[:, first:stop] = readable.sum(axis=1), got.sum(axis=1)
    # a participant strips the other terms with the library's own bytes, so
    # every participant decodes its subfile exactly when the row XORs to zero
    n_sent = len(payloads)
    resid = _air_rows(payloads, np.arange(n_sent), subfile_length(file_len, v))
    del payloads
    _xor_gather(resid, store.library(v), schedule.demand_rows, schedule.users, schedule.subfiles - 1)
    wrong = np.zeros(n_users, dtype=bool)
    wrong[schedule.users[resid.any(axis=1)]] = True
    columns = zip(range(n_users), schedule.demands, repeat(True), (~wrong).tolist(), *counts.tolist())
    users = map(tuple.__new__, repeat(UserReport), columns)  # UserReport._make, minus a call per row
    return SimulationReport(
        z=z,
        n_files=n_files,
        file_len=file_len,
        seed=seed,
        users=tuple(users),
        transmissions_sent=n_sent,
        measured_rate=Fraction(n_sent, v),
        theoretical_rate=delivery_rate(v, res.r, res.b_r, z, scheme.mu_z),
    )


def report_to_json(report: SimulationReport) -> dict:
    return {
        "z": report.z,
        "n_files": report.n_files,
        "file_len": report.file_len,
        "seed": report.seed,
        "transmissions_sent": report.transmissions_sent,
        "measured_rate": str(report.measured_rate),
        "theoretical_rate": str(report.theoretical_rate),
        "all_recovered": report.all_recovered,
        "users": [{**u._asdict(), "user": u.user + 1} for u in report.users],
    }


def payload_hex_dump(schedule: DeliverySchedule, payloads: Sequence[bytes]) -> list[str]:
    """Debug view: one line per transmission, provenance triple then hex bytes."""
    return [f"{t.label()}: {payload.hex()}" for t, payload in zip(schedule.transmissions, payloads)]
