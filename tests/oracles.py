"""Brute-force counterparts used only as test oracles.

These deliberately take no shortcuts: every tuple is enumerated and every
intersection computed, so they stay independent of whatever early exits
the library uses.
"""

from __future__ import annotations

from itertools import combinations, product

from crdcache.designs import Resolution
from crdcache.scheme import DeliverySchedule
from crdcache.simulator import FileStore, split_subfiles


def brute_cross_intersection(res: Resolution, i: int) -> int | None:
    """Scan ALL i-tuples of blocks from i distinct classes; no early exit."""
    blocks = res.design.blocks
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
        out |= res.design.blocks[j]
    return out


def count_users_seeing_point(res: Resolution, users, point: int) -> int:
    return sum(1 for user in users if point in access_union(res, user))


def count_users_on_cache(users, cache: int) -> int:
    return sum(1 for user in users if cache in user)


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


def scan_participation(schedule: DeliverySchedule, user: int) -> list[tuple[int, int]]:
    """Every (transmission index, subfile) term of one user, scanning all T."""
    return [
        (t_idx, y)
        for t_idx, t in enumerate(schedule.transmissions)
        for uid, y in t.terms
        if uid == user
    ]
