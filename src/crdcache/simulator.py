"""Byte-exact execution of a delivery schedule.

The server holds N equal-length pseudo-random files, file i being the i-th
``random.Random(seed).randbytes(file_len)``, generated by numpy's MT19937
started in that generator's state, at most ``WORK_BYTES`` at a time (a
file longer than that in ``CACHE_BYTES`` pieces).  A schedule names
each term's subfile by one flat key (``DeliverySchedule.term_keys``)
and the store alone decides where those bytes sit.  Every coded
transmission is the bytewise XOR of its subfiles, and
``FileStore.coded_rows`` builds the T rows once, reading each term subfile
once: gathered one term column at a time in cache-sized row chunks from
the library, if it is held or fits in one generator chunk; else from the
files up to the last one a term reads, streamed, through a compact table
of the keyed subfiles (at most mu_z (b_r-1)^z per user), indexed by the
distinct demanded files alone, if each file fits in one chunk, or XORed
straight into the rows as the stream yields them if files span several,
so no (N, v, sub) array, no array over the undemanded files and no table
of the term subfiles exists.  The payloads are a sequence of ``bytes``
rows over those read-only rows, copied on the first write.
``build_caches``, ``decode_user`` and ``files`` read the whole library, one
read-only zero-padded ``uint8`` array of shape (N, v, sub), generated for
each subpacketization v asked for; the first one's rows are the ``files``.
A cache is a read-only view over the library restricted to the points of
its block, so filling b caches copies no further bytes.

Only ``decode_user`` strips terms: for each row the user takes part in,
found through the schedule's participation index, it XORs off the other
terms with subfiles read from its own z caches, then stitches its file.
``verify_all`` checks each row once instead, in stages that its report's
``stage_ns`` times.  ``scheme`` builds the users and checks the demands.
``store`` makes the store first, so that a bad file length is refused
before anything of size T exists, and later builds the coded rows.
After ``schedule``, ``side_info`` is one pass over the transmissions, on
packed point rows stored words first: on every transmission it checks the
identity the delivery argument rests on (each participant's
side-information set, the intersection of its complementary blocks,
equals the intersection of what the other participants can read).  Given
that identity, in a row of distinct users a term can be stripped by every
other participant exactly when its subfile lies in its participant's
side-information set: one bit per term.  The pass marks each participant
of a row whose users do not strictly ascend or that holds a term outside
its set.  ``decode_residual`` then marks each user missing a point, which
the union of the terms' own subfile bits shows; every user that can fail
is marked, so checking the marked users one by one in id order, through
the participation index as ``decode_user`` does, names the first fault.
After ``encode``, participant m of a row recovers the payload XOR the
other terms, which is its own subfile XOR the row's residual (the payload
XOR all 2^z terms); every participant reads the same file bytes, so all
of them decode correctly exactly when the residual is zero, that is when
the payload equals the store's coded row.  So the residual compares each
payload with its row, in chunks of ``CACHE_BYTES``, and reads no term
subfile again: ``verify_all`` reads T * 2^z subfiles in all, the size of
the encoding.  The store and its rows are freed inside the stage.
``report_rest`` is the rest, up to freeing the schedule.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from itertools import repeat
from time import perf_counter_ns
from types import MappingProxyType
from typing import Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from . import caps as _caps
from .caps import DEFAULT_CAPS, SizeCaps, row_chunks
from .designs import Resolution
from .errors import DemandOutOfRange, IncompleteRecovery, IndexOutOfRange, InternalMuMismatch, MissingSideInformation
from .scheme import (
    DeliverySchedule,
    _build_schedule,
    _filled_rows,
    _label_fields,
    _label_template,
    _row_width,
    build_scheme,
    delivery_rate,
    demand_vector,
)

@dataclass(frozen=True)
class FileStore:
    """N files of identical length, reproducible from (n_files, file_len, seed).

    Holds no bytes until a library, ``files`` or some coded rows are first
    asked for; equality, pickling and copying go by the three numbers alone.
    ``coded_rows`` XORs a schedule's terms, which is all ``encode_payloads``
    and ``verify_all`` read; ``library`` and ``files`` (and so
    ``build_caches`` and ``decode_user``) hold every file.
    """

    n_files: int
    file_len: int
    seed: int
    _libraries: dict[int, np.ndarray] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _coded: list = field(default_factory=list, init=False, repr=False, compare=False)

    def __reduce__(self):
        return FileStore, (self.n_files, self.file_len, self.seed)

    def library(self, v: int) -> np.ndarray:
        """The files split into v subfiles: a read-only (N, v, sub) uint8 array.

        Generated on first use for each v and shared by every later caller.
        """
        lib = self._libraries.get(v)
        if lib is None:
            sub = subfile_length(self.file_len, v)
            rows = np.zeros((self.n_files, v * sub), dtype=np.uint8)
            _write_random_files(rows, self.file_len, self.seed)
            lib = rows.reshape(self.n_files, v, sub)
            lib.flags.writeable = False
            self._libraries[v] = lib
        return lib

    def coded_rows(self, schedule: DeliverySchedule) -> np.ndarray:
        """The schedule's coded transmissions, a read-only (T, sub) uint8
        array: row t is the XOR of transmission t's term subfiles, each read
        once.  The last schedule asked for is memoized.

        If ``library(v)`` is held, or is built because it fits in one stream
        chunk (``WORK_BYTES``), the rows are gathered from it through the
        schedule's ``term_keys``.  Otherwise only the files up to the last
        one a term reads are streamed.  If each file fits in one chunk, the
        keys number subfiles within the distinct demanded files
        (``demanded_files``), one scatter marks the keyed subfiles in a
        (demanded files, v) mask, one cumsum numbers them row-major, the
        stream keeps only them in a compact table, each key becomes its
        number and the rows are gathered from that table, which is freed
        before returning; so a far demand costs stream time but no memory
        for the files before it.  The keys are marked and numbered in row
        chunks of at most ``WORK_BYTES`` of the intp copies numpy makes of
        int32 index arrays.  If a file spans several chunks,
        no table exists: ``_stream_xor`` XORs each needed subfile's bytes
        into the rows of its terms as the stream yields them.
        """
        if self._coded and self._coded[0] is schedule:
            return self._coded[1]
        n_files, v = schedule.scheme.n_files, schedule.scheme.res.design.v
        if n_files > self.n_files:
            raise DemandOutOfRange(f"the schedule is for {n_files} files but the store holds {self.n_files}")
        sub = subfile_length(self.file_len, v)
        table = self._libraries.get(v)
        if table is None and self.n_files * v * sub <= _caps.WORK_BYTES:
            table = self.library(v)  # one stream chunk: cheaper whole than sifted
        if table is not None:
            keys, table = schedule.term_keys(), table.reshape(-1, sub)
        elif len(schedule.users) and 8 * -(-self.file_len // 4) <= _caps.WORK_BYTES:
            # the mask and the table cover the demanded files alone
            files = schedule.demanded_files()
            keys = schedule.term_keys(files=files)
            needed = np.zeros(len(files) * v, dtype=bool)
            chunks = list(row_chunks(len(keys), 8 * keys.shape[1]))
            for part in chunks:
                needed[keys[part]] = True
            ranks = np.cumsum(needed, dtype=keys.dtype)
            ranks -= 1
            for part in chunks:
                keys[part] = np.take(ranks, keys[part])
            del ranks
            table = _stream_subfiles(files, needed.reshape(-1, v), self.file_len, self.seed)
            del needed  # before the rows exist
        else:
            keys = schedule.term_keys()
        rows = np.zeros((len(keys), sub), dtype=np.uint8)
        if table is not None:
            _xor_gather(rows, table, keys)
        elif keys.size:
            _stream_xor(rows, keys, v, self.file_len, self.seed)
        rows.flags.writeable = False
        self._coded[:] = schedule, rows
        return rows

    @cached_property
    def files(self) -> tuple[memoryview, ...]:
        """The files as read-only ``memoryview``s of the first library's rows
        (``library(1)`` if none is held); each compares equal to its ``bytes``
        and has length ``file_len``."""
        lib = next(iter(self._libraries.values()), None)
        rows = (self.library(1) if lib is None else lib).reshape(self.n_files, -1)
        return tuple(memoryview(row[: self.file_len]) for row in rows)


def _random_words(n_files: int, file_len: int, seed: int) -> Iterator[tuple[int, int, np.ndarray]]:
    """The files' MT19937 outputs, in stream order, as ``(first file, first
    word, words)`` pieces: ``words`` is an (n, span) ``uint64`` array of the
    outputs first..first+span-1 of files first..first+n-1.

    ``randbytes(L)`` is ceil(L/4) MT19937 outputs, so the N files are one
    consecutive output stream.  It is drawn from numpy's MT19937 loaded with
    the state of ``random.Random(seed)``: several whole files per piece,
    at most ``WORK_BYTES`` of outputs, if a file fits in that; else each
    file in parts of at most ``min(WORK_BYTES, CACHE_BYTES)`` of outputs,
    so the piece and its consumer's converted copy stay small.
    """
    from numpy.random import MT19937  # kept out of the package import

    state = random.Random(seed).getstate()[1]
    # MT19937 copies a key item by item, which is far faster from Python
    # ints than from numpy scalars
    gen = MT19937(_unseeded())
    gen.state = {"bit_generator": "MT19937", "state": {"key": state[:-1], "pos": state[-1]}}
    words = -(-file_len // 4)
    step = max(1, _caps.WORK_BYTES // 8)  # outputs per piece
    if words > step:
        step = max(1, min(_caps.WORK_BYTES, _caps.CACHE_BYTES) // 8)
    per = max(1, step // words)  # files per piece
    for first in range(0, n_files, per):
        n = min(per, n_files - first)
        for start in range(0, words, step):
            # no local keeps a piece alive once the caller lets go of it
            yield first, start, gen.random_raw(n * min(step, words - start)).reshape(n, -1)


def _put_words(out: np.ndarray, raw: np.ndarray, start: int, file_len: int) -> int:
    """Write the file bytes of outputs start.. (``raw``, (n, span)) into the
    first columns of the (n, ...) ``uint8`` array ``out``; returns how many.

    Each output is written little-endian; a file's last, partial output
    keeps its high ``file_len % 4`` bytes, as ``randbytes`` does.
    """
    whole, tail = divmod(file_len, 4)
    stop = start + raw.shape[1]
    end = min(stop, whole)
    np.copyto(out[:, : 4 * (end - start)].view("<u4"), raw[:, : end - start], casting="unsafe")
    if stop <= whole:
        return 4 * (end - start)
    last = raw[:, -1:].astype("<u4").view(np.uint8)
    out[:, 4 * (whole - start) : file_len - 4 * start] = last[:, 4 - tail :]
    return file_len - 4 * start


def _write_random_files(rows: np.ndarray, file_len: int, seed: int) -> None:
    """Write the i-th ``random.Random(seed).randbytes(file_len)`` into
    ``rows[i, :file_len]``, one piece of ``_random_words`` at a time."""
    for first, start, raw in _random_words(len(rows), file_len, seed):
        _put_words(rows[first : first + len(raw), 4 * start :], raw, start, file_len)
        del raw  # before the next chunk is drawn


def _stream_subfiles(files: np.ndarray, needed: np.ndarray, file_len: int, seed: int) -> np.ndarray:
    """The subfiles ``needed`` marks, zero-padded, in row-major order: row i
    of the (len(files), v) mask marks points of file ``files[i]`` (0-based,
    ascending).  One pass of ``_random_words`` walks the files up to the
    last of ``files``, each fitting in one piece; a piece holding some of
    them is written from its first to its last such file into padded rows,
    whose marked subfiles are copied out."""
    v = needed.shape[1]
    sub = subfile_length(file_len, v)
    out = np.zeros((np.count_nonzero(needed), sub), dtype=np.uint8)
    done = 0  # rows of ``out`` written so far
    for first, _, raw in _random_words(int(files[-1]) + 1, file_len, seed):
        lo, hi = np.searchsorted(files, (first, first + len(raw)))
        if lo < hi:
            span = raw[files[lo] - first : files[hi - 1] - first + 1]
            padded = np.zeros((len(span), v * sub), dtype=np.uint8)  # padding stays zero
            _put_words(padded, span, 0, file_len)
            at = (files[lo:hi] - files[lo])[:, None] * v + np.arange(v)
            kept = at[needed[lo:hi]]
            np.take(padded.reshape(-1, sub), kept, axis=0, out=out[done : done + len(kept)], mode="clip")
            done += len(kept)
            del span, padded
        del raw  # before the next chunk is drawn
    return out


def _stream_xor(out: np.ndarray, keys: np.ndarray, v: int, file_len: int, seed: int) -> None:
    """XOR into row t of ``out`` the subfiles that ``keys[t]`` names, for
    files that span several pieces of the stream, with no subfile table.

    One stable argsort of the keys groups the terms by subfile, rows
    ascending.  A row that names one subfile twice XORs it twice, so only
    the parity of each (subfile, row) pair is kept; then no row repeats
    within a group, and a fancy-indexed ``^=`` is exact.  The stream stops
    after the last needed subfile; the needed words of each piece are
    XORed into the rows of the subfiles they belong to.
    """
    order = np.argsort(keys.ravel(), kind="stable")
    flat, rows = keys.ravel()[order], order // keys.shape[1]
    del order
    repeat = (np.diff(flat) == 0) & (np.diff(rows) == 0)
    if repeat.any():
        runs = np.flatnonzero(np.r_[True, ~repeat])
        odd = runs[np.diff(runs, append=len(flat)) % 2 == 1]
        flat, rows = flat[odd], rows[odd]
    sub = out.shape[1]
    starts = np.flatnonzero(np.diff(flat, prepend=-1))
    files, points = np.divmod(flat[starts].astype(np.int64), v)
    begin = points * sub
    end = np.minimum(begin + sub, file_len)
    bounds = np.append(starts, len(flat)).tolist()
    # (file, first byte, end byte, rows) of each needed subfile that holds file bytes
    needed = [
        (f, a, e, rows[bounds[g] : bounds[g + 1]])
        for g, (f, a, e) in enumerate(zip(files.tolist(), begin.tolist(), end.tolist()))
        if a < e
    ]
    if not needed:
        return
    buffer = None
    g = 0
    for f, start, raw in _random_words(needed[-1][0] + 1, file_len, seed):
        if buffer is None:  # the first piece is the widest
            buffer = np.empty((1, 4 * raw.shape[1]), dtype=np.uint8)
        lo, hi = 4 * start, min(4 * (start + raw.shape[1]), file_len)
        while g < len(needed) and needed[g][0] == f and needed[g][1] < hi:
            _, a, e, terms = needed[g]
            s, t = max(a, lo), min(e, hi)
            word = s // 4
            _put_words(buffer, raw[:, word - start : -(-t // 4) - start], word, file_len)
            out[terms, s - a : t - a] ^= buffer[0, s - 4 * word : t - 4 * word]
            if e > hi:  # the subfile goes on in the next piece
                break
            g += 1
        if g == len(needed):  # the last needed byte is read
            return
        del raw  # before the next piece is drawn


@cache
def _unseeded():
    """A seed sequence that derives nothing: the generator's state is loaded
    straight after, so the SeedSequence hashing ``MT19937()`` does is waste.
    Its zero words are a list, which ``MT19937()`` copies item by item."""
    from numpy.random.bit_generator import ISeedSequence

    class Unseeded(ISeedSequence):
        def generate_state(self, n_words, dtype=np.uint32):
            return [0] * n_words

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
    writes it; equal to any sequence of the same ``bytes`` rows.  Rows that
    are read-only, such as the store's, are copied on the first write, so a
    write never reaches them."""

    def __init__(self, rows: np.ndarray):
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Payloads(self.rows[index])
        return self.rows[index].tobytes()

    def __setitem__(self, index: int, payload: bytes) -> None:
        if not self.rows.flags.writeable:
            self.rows = self.rows.copy()
        self.rows[index] = np.frombuffer(payload, dtype=np.uint8)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return list(self) == list(other)


def encode_payloads(schedule: DeliverySchedule, store: FileStore) -> Payloads:
    """One XOR payload per coded transmission, in schedule order: the
    store's ``coded_rows``, not copied."""
    return Payloads(store.coded_rows(schedule))


def _xor_gather(acc: np.ndarray, table: np.ndarray, index: np.ndarray) -> None:
    """XOR ``table[index[:, c]]`` into ``acc`` for every column c of the flat
    row index ``index`` into the (n, sub) ``table``, over row chunks of at most
    ``CACHE_BYTES``: no gathered temporary outgrows the cache; a one-row
    chunk XORs the table row itself."""
    step = max(1, _caps.CACHE_BYTES // max(1, table.shape[1]))
    for start in range(0, len(acc), step):
        block, rows = acc[start : start + step], index[start : start + step]
        for c in range(rows.shape[1]):
            terms = table[rows[0, c]] if step == 1 else np.take(table, rows[:, c], axis=0)
            np.bitwise_xor(block, terms, out=block)
            del terms  # before the next column is gathered


def _incidence(blocks: np.ndarray, v: int) -> np.ndarray:
    """A (n, v) bool array from an (n, k) block matrix: row j marks the
    points of block j."""
    out = np.zeros((len(blocks), v), dtype=bool)
    out[np.arange(len(blocks))[:, None], blocks - 1] = True
    return out


def _air_rows(payloads: Sequence[bytes] | np.ndarray, rows: np.ndarray | slice, sub: int) -> np.ndarray:
    """The payloads of ``rows``, an index array or a slice, as an (n, sub)
    array: a writeable copy, but a view for a slice of an array."""
    if isinstance(payloads, Payloads):
        payloads = payloads.rows
    if isinstance(payloads, np.ndarray):
        return payloads[rows]
    picked = payloads[rows] if isinstance(rows, slice) else [payloads[t] for t in rows.tolist()]
    joined = bytearray(b"".join(picked))
    return np.frombuffer(joined, dtype=np.uint8).reshape(-1, sub)


def _reach(user: int, schedule: DeliverySchedule) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Check, moving no payload byte, that ``user`` can strip every other
    term of its rows with what its caches hold, read from the design's
    blocks, and so gets every point.  Raises ``MissingSideInformation`` for
    its first unstrippable term in schedule order (then the first other
    column), else ``IncompleteRecovery`` for its first missing point.
    Returns its terms in schedule order: (flat positions, flat positions
    (2^z - 1, terms) of the rows' other terms, own 0-based points,
    readable (v,), got (v,))."""
    scheme = schedule.scheme
    gain = schedule.users.shape[1]
    order, bounds = schedule.participation
    terms = order[bounds[user] : bounds[user + 1]]
    readable = np.zeros(scheme.res.design.v, dtype=bool)
    readable[scheme.res.design.blocks[scheme.users[user]] - 1] = True
    # the other columns of each term's row, ascending (gain is a power of two);
    # terms run along the last axis, so no pass loops over 2^z - 1 items
    col = terms & (gain - 1)
    skip = np.arange(gain - 1)[:, None]
    others = terms - col + skip + (skip >= col)
    other_points = schedule.subfiles.ravel()[others] - 1
    strippable = readable[other_points]
    if not strippable.all():
        term, c = np.unravel_index(np.argmin(strippable.T), strippable.T.shape)
        raise MissingSideInformation(
            f"transmission {terms[term] // gain + 1}: user {user + 1} cannot "
            f"strip subfile {other_points[c, term] + 1} of user "
            f"{schedule.users.flat[others[c, term]] + 1}'s term"
        )
    own_points = schedule.subfiles.ravel()[terms] - 1
    got = np.zeros_like(readable)
    got[own_points] = True
    have = readable | got
    if not have.all():
        raise IncompleteRecovery(
            f"user {user + 1} never obtained subfile {np.argmin(have) + 1} of file {schedule.demands[user]}"
        )
    return terms, others, own_points, readable, got


def decode_user(
    user_idx: int,
    payloads: Sequence[bytes] | np.ndarray,
    schedule: DeliverySchedule,
    caches: Sequence[CacheView],
    demand: int,
    file_len: int,
) -> tuple[bytes, int, int]:
    """Reconstruct the demanded file for one user.

    ``caches`` supplies only the shared library: the ``library`` of one of
    the user's own z caches gives every subfile it strips with, and which
    subfiles the user may read is worked out from the schedule's design
    blocks, not from the views passed in.  Reads that library and the
    broadcast payloads of the transmissions the user takes part in (a
    sequence of ``bytes`` rows, or their (T, sub) array), and strips every
    other term of those rows; ``file_len`` is the true (pre-padding)
    length to strip back to.  Returns (file bytes, subfiles
    from cache, subfiles from the air).  Raises ``IndexOutOfRange`` unless
    0 <= ``user_idx`` < K and ``DemandOutOfRange`` unless ``demand`` is the
    schedule's demand of that user.
    """
    n_users = schedule.scheme.n_users
    if not 0 <= user_idx < n_users:
        raise IndexOutOfRange(f"user index {user_idx} outside 0..{n_users - 1}")
    if demand != schedule.demands[user_idx]:
        raise DemandOutOfRange(
            f"user {user_idx + 1} demands file {schedule.demands[user_idx]} in the schedule, not {demand}"
        )
    library = caches[int(schedule.scheme.users[user_idx, 0])].library
    terms, others, points, readable, got = _reach(user_idx, schedule)
    air = _air_rows(payloads, terms // schedule.users.shape[1], library.shape[2])
    _xor_gather(air, library.reshape(-1, library.shape[2]), schedule.term_keys(others).T)
    out = np.empty(library.shape[1:], dtype=np.uint8)
    out[points] = air
    # a readable subfile is taken from the caches, even if it also came over the air
    out[readable] = library[demand - 1, readable]
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
    stage_ns: Mapping[str, int] = field(compare=False, repr=False)  # see verify_all; not in report_to_json

    @property
    def all_recovered(self) -> bool:
        return all(u.recovered and u.byte_equal for u in self.users)


def _packed(sets: np.ndarray) -> np.ndarray:
    """Boolean point rows (..., v) as bit rows of uint64 words (..., W)."""
    words = -(-sets.shape[-1] // 64)
    padded = np.zeros(sets.shape[:-1] + (words * 64,), dtype=bool)
    padded[..., : sets.shape[-1]] = sets
    return np.packbits(padded, axis=-1).view(np.uint64)


# the packed word with only bit i set, for i = 0..63 (point i + 1 of a word)
_WORD_BITS = _packed(np.eye(64, dtype=bool))[:, 0]


def _points(bits: np.ndarray, v: int) -> list[int]:
    """The 1-based points of one packed bit row, ascending."""
    return (np.flatnonzero(np.unpackbits(np.ascontiguousarray(bits).view(np.uint8))[:v]) + 1).tolist()


def _check_side_information_sets(schedule: DeliverySchedule) -> None:
    """On every transmission: the complementary-block intersection of each
    participant must equal the intersection of all other participants'
    readable index sets.

    The check is the row pass of ``_side_information_pass``, whose extra
    results are dropped: it raises only ``InternalMuMismatch``.
    """
    _side_information_pass(schedule)


def _side_information_pass(schedule: DeliverySchedule) -> tuple[np.ndarray, np.ndarray]:
    """Check the side-information identity on every transmission (see
    ``_check_side_information_sets``) and return ``(readable, unsure)``:
    the (W, K) packed words of the points each user reads from its caches,
    and a (K,) bool marking every participant of a row whose users do not
    strictly ascend or one of whose terms has its subfile outside its
    participant's side-information set.

    Given the identity, a term's subfile lies in that set exactly when every
    other participant reads it; in a row of distinct users that is exactly
    "every other participant can strip this term".  So an unmarked user
    strips every term of its rows; a marked one may still strip them all.

    A participant's complementary block in each class is the pair's other
    block, and a row's first and last participants hold the two blocks of
    every pair, so the pass reads only the ``users`` column (and
    ``subfiles`` for the membership bits).  Point sets are packed bit rows
    of W = ceil(v/64) words, stored words first: every array is
    (W, ..., rows), so each pass runs along the rows of a chunk of at most
    ``WORK_BYTES``, gathered through intp indices.  The others'
    intersection comes from prefix and suffix ANDs over the participants.
    A schedule's users ascend in every row, so only a row that does not may
    name one user twice; such rows are recomputed leaving every copy of the
    participant out, without sorting any row.
    """
    scheme = schedule.scheme
    v = scheme.res.design.v
    incidence = np.ascontiguousarray(_packed(_incidence(scheme.res.design.blocks, v)).T)
    blocks_of = np.ascontiguousarray(scheme.users.T)  # (z, K) int32
    readable = np.take(incidence, blocks_of[0], axis=1)
    for blocks in blocks_of[1:]:
        readable |= np.take(incidence, blocks, axis=1)
    everything = _packed(np.ones(v, dtype=bool))[:, None]
    n_rows, gain = schedule.users.shape
    words, z = incidence.shape[0], scheme.z
    # (W, v + 1): point p's bit in word w at [w, p], zero in every other word
    point_bits = np.zeros((words, v + 1), dtype=np.uint64)
    point_bits[np.arange(v) >> 6, np.arange(1, v + 1)] = np.take(_WORD_BITS, np.arange(v) & 63)
    unsure = np.zeros(scheme.n_users, dtype=bool)
    # bytes a row holds at most at once: its users, mine and other indices
    # (8 bytes each), four (W, 2^z) word rows (direct, sets, via_others and
    # one np.take temporary) and after; a chunk's arrays are freed before the
    # next chunk's, and the membership bits' temporaries live while sets and
    # via_others do not
    per_row = 8 * (gain * (1 + 2 * z + 4 * words) + words)
    for chunk in row_chunks(n_rows, per_row):
        users = schedule.users[chunk].T.astype(np.intp, order="C")  # (2^z, rows)
        mine = np.take(blocks_of, users, axis=1)  # (z, 2^z, rows)
        other = np.where(mine == mine[:, :1], mine[:, -1:], mine[:, :1])
        direct = np.take(incidence, other[0], axis=1)  # (W, 2^z, rows)
        for c in range(1, z):
            direct &= np.take(incidence, other[c], axis=1)
        odd = np.flatnonzero((users[1:] <= users[:-1]).any(axis=0))
        points = schedule.subfiles[chunk].T  # (2^z, rows)
        held = np.take(point_bits[0], points)
        held &= direct[0]
        for w in range(1, words):
            held |= np.take(point_bits[w], points) & direct[w]
        if len(odd) or not held.all():
            doubtful = ~held.all(axis=0)
            doubtful[odd] = True
            unsure[users[:, doubtful]] = True
        del mine, other, points, held
        sets = np.take(readable, users, axis=1)
        via_others = np.empty_like(sets)
        via_others[:, 0] = everything
        for m in range(1, gain):
            np.bitwise_and(via_others[:, m - 1], sets[:, m - 1], out=via_others[:, m])
        after = sets[:, -1].copy()
        for m in range(gain - 2, -1, -1):
            via_others[:, m] &= after
            after &= sets[:, m]
        if len(odd):
            named, held = users[:, odd], sets[:, :, odd]
            for m in range(gain):
                kept = np.where(named != named[m], held, everything[:, None])
                via_others[:, m, odd] = np.bitwise_and.reduce(kept, axis=1)
        wrong = (direct != via_others).any(axis=0).T
        if wrong.any():
            row, m = np.unravel_index(np.argmax(wrong), wrong.shape)
            raise InternalMuMismatch(
                f"transmission {chunk.start + row + 1}: side-information set of user "
                f"{users[m, row] + 1} is {_points(direct[:, m, row], v)} but the others share "
                f"{_points(via_others[:, m, row], v)}"
            )
        del users, direct, sets, via_others, after, wrong
    return readable, unsure


def _received(schedule: DeliverySchedule, words: int) -> np.ndarray:
    """The points each user receives over the air, as (K, W) packed words:
    every term's own subfile bit scattered into its user's word, in row
    chunks of at most ``WORK_BYTES`` of intp word indices, point offsets
    and bits.  The sum (``np.add.at``, numpy's fast path for 1-D indices)
    is the union exactly when no user receives one point twice, which is
    when its popcounts add up to the number of terms (a bit added twice
    carries); otherwise the scatter is redone with ``np.bitwise_or.at``."""
    got = np.empty((schedule.scheme.n_users, words), dtype=np.uint64)
    flat = got.reshape(-1)
    for scatter in np.add.at, np.bitwise_or.at:
        flat[:] = 0
        for rows in row_chunks(len(schedule.users), 24 * max(1, schedule.users.shape[1])):
            offset = schedule.subfiles[rows].reshape(-1).astype(np.intp)
            offset -= 1
            at = schedule.users[rows].reshape(-1).astype(np.intp)
            at *= words
            at += offset >> 6
            offset &= 63
            scatter(flat, at, np.take(_WORD_BITS, offset))
            del offset, at
        if np.bitwise_count(got).sum() == schedule.users.size:
            break
    return got


def verify_all(
    res: Resolution,
    z: int,
    n_files: int,
    file_len: int,
    seed: int = 0,
    demands: Sequence[int] | None = None,
    caps: SizeCaps = DEFAULT_CAPS,
) -> SimulationReport:
    """End-to-end run in the stages the module docstring describes, whose
    nanoseconds the report's read-only ``stage_ns`` gives in this order:
    scheme, schedule, side_info (the pass that marks users), store (made
    first, then the term subfiles), encode, decode_residual (the marked
    users, then every row's residual) and report_rest.  Of the users that
    pass marks, or that miss a point, the first in id order that cannot
    strip a term or never gets a point raises ``MissingSideInformation``
    or ``IncompleteRecovery``."""
    stage_ns = dict.fromkeys(("scheme", "schedule", "side_info", "store", "encode", "decode_residual", "report_rest"), 0)
    marks = [perf_counter_ns()]

    def lap(stage: str) -> None:
        marks.append(perf_counter_ns())
        stage_ns[stage] += marks[-1] - marks[-2]

    scheme = build_scheme(res, z, n_files, caps)
    demands = demand_vector(scheme, demands)  # so a bad demand vector is named before a bad file length
    lap("scheme")
    store = make_file_store(n_files, file_len, seed)
    lap("store")
    schedule = _build_schedule(scheme, demands)
    lap("schedule")
    readable, unsure = _side_information_pass(schedule)
    lap("side_info")
    v = res.design.v
    n_users = scheme.n_users
    got = _received(schedule, len(readable))
    everything = _packed(np.ones(v, dtype=bool))[:, None]
    unsure |= ((readable | got.T) != everything).any(axis=0)
    cached, air = np.bitwise_count(readable).sum(axis=0), np.bitwise_count(got).sum(axis=1)
    del readable, got  # before the participation index, subfiles and payloads exist
    for user in np.flatnonzero(unsure).tolist():
        _reach(user, schedule)
    lap("decode_residual")
    coded = store.coded_rows(schedule)  # memoized: the encoder returns these rows
    lap("store")
    payloads = encode_payloads(schedule, store)
    lap("encode")
    # a participant strips the other terms with the store's own bytes, so
    # every participant decodes its subfile exactly when its row's payload
    # equals the XOR of the row's terms, the store's row; the rows are
    # compared in chunks of CACHE_BYTES, so no (T, sub) temporary exists
    n_sent, sub = len(payloads), coded.shape[1]
    wrong = np.zeros(n_users, dtype=bool)
    step = max(1, _caps.CACHE_BYTES // max(1, sub))
    for start in range(0, n_sent, step):
        rows = slice(start, start + step)
        unequal = (_air_rows(payloads, rows, sub) != coded[rows]).any(axis=1)
        wrong[schedule.users[rows][unequal]] = True
    del payloads, store, coded  # the coded rows go before the last mark
    lap("decode_residual")
    columns = zip(range(n_users), schedule.demands, repeat(True), (~wrong).tolist(), cached.tolist(), air.tolist())
    users = map(tuple.__new__, repeat(UserReport), columns)  # UserReport._make, minus a call per row
    users, rate = tuple(users), delivery_rate(v, res.r, res.b_r, z, scheme.mu_z)
    del schedule, scheme, columns  # so the last mark follows their teardown
    lap("report_rest")
    return SimulationReport(
        z=z,
        n_files=n_files,
        file_len=file_len,
        seed=seed,
        users=users,
        transmissions_sent=n_sent,
        measured_rate=Fraction(n_sent, v),
        theoretical_rate=rate,
        stage_ns=MappingProxyType(stage_ns),
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


def payload_hex_dump(schedule: DeliverySchedule, payloads: Sequence[bytes]) -> Iterator[str]:
    """Debug view: one line per transmission, its provenance
    (``classes=1,2 pairs=1-2;4-5 s=1``) then its payload's hex bytes.

    The lines, joined by newlines with none after the last, come as text
    chunks of at most about ``WORK_BYTES``, each filling one per-row
    template from the schedule's provenance columns and one ``hex`` of the
    chunk's payload rows.
    """
    n_rows = len(schedule.users)
    sub = len(payloads[0]) if n_rows else 0
    label = _label_template(schedule.scheme.z)

    def fields(rows: slice) -> list:
        labels = _label_fields(schedule, rows)
        out = np.empty((len(labels), labels.shape[1] + 1), dtype=object)
        out[:, :-1] = labels
        out[:, -1] = _air_rows(payloads, rows, sub).tobytes().hex("\n", sub).split("\n")
        return out.ravel().tolist()

    template = label + ": %s"
    yield from _filled_rows(template, "\n", n_rows, _row_width(schedule, template) + 2 * sub, fields)
