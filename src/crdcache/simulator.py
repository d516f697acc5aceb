"""Byte-exact execution of a delivery schedule.

The server holds N equal-length pseudo-random files.  They are split once,
per subpacketization v, into one read-only zero-padded ``uint8`` library
array of shape (N, v, sub); placement, encoding and decoding all read that
one array.  A cache is a read-only view over it, restricted to the index
set of its block, so filling b caches copies no bytes.  Every coded
transmission is the bytewise XOR of its subfiles, gathered one term column
at a time.  Each user then decodes exactly the way the scheme promises it
can: for every transmission it participates in, found through the
schedule's per-user participation index, it strips the other terms using
subfiles read from its own caches, and finally stitches the demanded file
together from cached plus over-the-air subfiles.  Decoding all K users thus
touches K * mu_z (b_r-1)^z transmissions, not K * T.  ``verify_all``
additionally checks, on every transmission, that the side-information set
of each participant (intersection of the complementary blocks) equals the
intersection of what the other participants can read - the set identity
the delivery argument rests on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

import numpy as np

from .caps import DEFAULT_CAPS, SizeCaps
from .designs import Resolution
from .errors import DemandOutOfRange, IncompleteRecovery, InternalMuMismatch, MissingSideInformation
from .scheme import (
    DeliverySchedule,
    accessible_indices,
    build_delivery_schedule,
    build_scheme,
    delivery_rate,
)


@dataclass(frozen=True)
class FileStore:
    """N files of identical length, reproducible from (n_files, file_len, seed)."""

    n_files: int
    file_len: int
    seed: int
    files: tuple[bytes, ...]
    _libraries: dict[int, np.ndarray] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def library(self, v: int) -> np.ndarray:
        """The files split into v subfiles: a read-only (N, v, sub) uint8 array.

        Built on first use for each v and shared by every later caller.
        """
        lib = self._libraries.get(v)
        if lib is None:
            sub = subfile_length(self.file_len, v)
            lib = np.zeros((self.n_files, v * sub), dtype=np.uint8)
            for i, data in enumerate(self.files):
                lib[i, : self.file_len] = np.frombuffer(data, dtype=np.uint8)
            lib = lib.reshape(self.n_files, v, sub)
            lib.flags.writeable = False
            self._libraries[v] = lib
        return lib


def make_file_store(n_files: int, file_len: int, seed: int = 0) -> FileStore:
    if n_files < 1 or file_len < 1:
        raise DemandOutOfRange(
            f"need n_files >= 1 and file_len >= 1, got {n_files}, {file_len}"
        )
    rng = random.Random(seed)
    return FileStore(
        n_files=n_files,
        file_len=file_len,
        seed=seed,
        files=tuple(rng.randbytes(file_len) for _ in range(n_files)),
    )


def subfile_length(file_len: int, v: int) -> int:
    return -(-file_len // v)


def split_subfiles(data: bytes, v: int) -> list[bytes]:
    """Zero-pad to a multiple of v and slice into v equal subfiles."""
    sub = subfile_length(len(data), v)
    padded = data + b"\x00" * (sub * v - len(data))
    return [padded[i * sub : (i + 1) * sub] for i in range(v)]


class CacheView(Mapping[tuple[int, int], bytes]):
    """One cache's contents: (file id, point) -> subfile bytes, for every
    file and every point of the cache's block.

    A read-only view over the shared library array; any key outside the
    block (or outside 1..N) raises ``KeyError``.
    """

    def __init__(self, library: np.ndarray, block: frozenset[int]):
        self.library = library
        self.block = block

    def __getitem__(self, key: tuple[int, int]) -> bytes:
        file_id, point = key
        if point not in self.block or not 1 <= file_id <= len(self.library):
            raise KeyError(key)
        return self.library[file_id - 1, point - 1].tobytes()

    def __iter__(self) -> Iterator[tuple[int, int]]:
        points = sorted(self.block)
        for file_id in range(1, len(self.library) + 1):
            for point in points:
                yield file_id, point

    def __len__(self) -> int:
        return len(self.library) * len(self.block)


def build_caches(store: FileStore, res: Resolution) -> list[CacheView]:
    """Cache contents: cache j maps (file id, point in block j) -> subfile bytes."""
    library = store.library(res.design.v)
    return [CacheView(library, block) for block in res.design.blocks]


def encode_payloads(schedule: DeliverySchedule, store: FileStore) -> list[bytes]:
    """One XOR payload per coded transmission, in schedule order."""
    library = store.library(schedule.scheme.res.design.v)
    if not schedule.transmissions:
        return []
    terms = np.array([t.terms for t in schedule.transmissions], dtype=np.intp)
    files = np.array(schedule.demands, dtype=np.intp)[terms[:, :, 0]] - 1
    points = terms[:, :, 1] - 1
    acc = library[files[:, 0], points[:, 0]]
    for col in range(1, terms.shape[1]):
        np.bitwise_xor(acc, library[files[:, col], points[:, col]], out=acc)
    return [row.tobytes() for row in acc]


def decode_user(
    user_idx: int,
    payloads: Sequence[bytes],
    schedule: DeliverySchedule,
    caches: Sequence[CacheView],
    demand: int,
    file_len: int,
) -> tuple[bytes, int, int]:
    """Reconstruct the demanded file for one user.

    Reads only the user's own caches plus the broadcast payloads of the
    transmissions it takes part in; ``file_len`` is the true (pre-padding)
    length to strip back to.  Returns (file bytes, subfiles from cache,
    subfiles from the air).
    """
    scheme = schedule.scheme
    res = scheme.res
    v = res.design.v
    user = scheme.users[user_idx]
    readable = accessible_indices(res, user)
    # every cache views the same library array; the readability checks
    # below keep each gather inside the user's own caches
    library = caches[user[0]].library

    rows = schedule.participation[user_idx]
    files: list[list[int]] = []
    points: list[list[int]] = []
    for t_idx, _ in rows:
        row_files = []
        row_points = []
        for uid, y in schedule.transmissions[t_idx].terms:
            if uid == user_idx:
                continue
            if y not in readable:
                raise MissingSideInformation(
                    f"transmission {t_idx + 1}: user {user_idx + 1} cannot strip "
                    f"subfile {y} of user {uid + 1}'s term"
                )
            row_files.append(schedule.demands[uid] - 1)
            row_points.append(y - 1)
        files.append(row_files)
        points.append(row_points)
    from_air = {y for _, y in rows}
    for point in range(1, v + 1):
        if point not in readable and point not in from_air:
            raise IncompleteRecovery(
                f"user {user_idx + 1} never obtained subfile {point} of file {demand}"
            )

    out = np.empty_like(library[demand - 1])
    if rows:
        acc = np.frombuffer(
            b"".join(payloads[t_idx] for t_idx, _ in rows), dtype=np.uint8
        ).reshape(len(rows), -1).copy()
        file_cols = np.array(files, dtype=np.intp)
        point_cols = np.array(points, dtype=np.intp)
        for col in range(file_cols.shape[1]):
            np.bitwise_xor(acc, library[file_cols[:, col], point_cols[:, col]], out=acc)
        out[[y - 1 for _, y in rows]] = acc
    # a subfile the user can read is taken from its caches, even if it also
    # came over the air
    cached = np.array(sorted(readable), dtype=np.intp) - 1
    out[cached] = library[demand - 1, cached]
    return out.tobytes()[:file_len], len(readable), len(from_air)


@dataclass(frozen=True)
class UserReport:
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


def _check_side_information_sets(schedule: DeliverySchedule) -> None:
    """On every transmission: the complementary-block intersection of each
    participant must equal the intersection of all other participants'
    readable index sets."""
    scheme = schedule.scheme
    res = scheme.res
    blocks = res.design.blocks
    readable = {}
    for t_idx, t in enumerate(schedule.transmissions):
        uids = [uid for uid, _ in t.terms]
        for uid in uids:
            if uid not in readable:
                readable[uid] = accessible_indices(res, scheme.users[uid])
        for uid in uids:
            mine = scheme.users[uid]
            direct = None
            for s, (blk_i, blk_j) in enumerate(t.pairs):
                other = blk_j if mine[s] == blk_i else blk_i
                direct = blocks[other] if direct is None else direct & blocks[other]
            via_others = None
            for other_uid in uids:
                if other_uid == uid:
                    continue
                y = readable[other_uid]
                via_others = y if via_others is None else via_others & y
            if direct != via_others:
                raise InternalMuMismatch(
                    f"transmission {t_idx + 1}: side-information set of user "
                    f"{uid + 1} is {sorted(direct)} but the others share "
                    f"{sorted(via_others)}"
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
    """End-to-end run: place, schedule, broadcast, decode and compare bytes."""
    scheme = build_scheme(res, z, n_files, caps)
    if demands is None:
        if n_files < scheme.n_users:
            raise DemandOutOfRange(
                f"worst-case demands need N >= K, got N={n_files}, K={scheme.n_users}"
            )
        demands = tuple(range(1, scheme.n_users + 1))
    schedule = build_delivery_schedule(scheme, demands)
    _check_side_information_sets(schedule)
    store = make_file_store(n_files, file_len, seed)
    caches = build_caches(store, res)
    payloads = encode_payloads(schedule, store)
    reports = []
    for uid in range(scheme.n_users):
        data, n_cache, n_air = decode_user(
            uid, payloads, schedule, caches, schedule.demands[uid], file_len
        )
        reports.append(
            UserReport(
                user=uid,
                demand=schedule.demands[uid],
                recovered=True,
                byte_equal=data == store.files[schedule.demands[uid] - 1],
                subfiles_from_cache=n_cache,
                subfiles_from_air=n_air,
            )
        )
    return SimulationReport(
        z=z,
        n_files=n_files,
        file_len=file_len,
        seed=seed,
        users=tuple(reports),
        transmissions_sent=len(payloads),
        measured_rate=Fraction(len(payloads), res.design.v),
        theoretical_rate=delivery_rate(res.design.v, res.r, res.b_r, z, scheme.mu_z),
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
        "users": [
            {
                "user": u.user + 1,
                "demand": u.demand,
                "recovered": u.recovered,
                "byte_equal": u.byte_equal,
                "subfiles_from_cache": u.subfiles_from_cache,
                "subfiles_from_air": u.subfiles_from_air,
            }
            for u in report.users
        ],
    }


def payload_hex_dump(schedule: DeliverySchedule, payloads: Sequence[bytes]) -> list[str]:
    """Debug view: one line per transmission, provenance triple then hex bytes."""
    lines = []
    for t, payload in zip(schedule.transmissions, payloads):
        classes = ",".join(str(c + 1) for c in t.classes)
        pairs = ";".join(f"{i + 1}-{j + 1}" for i, j in t.pairs)
        lines.append(f"classes={classes} pairs={pairs} s={t.s}: {payload.hex()}")
    return lines
