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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, product
from math import comb, isqrt
from typing import Mapping, Sequence

from .caps import DEFAULT_CAPS, SizeCaps
from .designs import Resolution, cross_intersection_number
from .errors import (
    BadDemandLength,
    DemandOutOfRange,
    IndexOutOfRange,
    InternalMuMismatch,
    MuUndefinedForZ,
    NonIntegerResult,
)


def admissible_mu(res: Resolution, z: int, caps: SizeCaps = DEFAULT_CAPS) -> dict[int, int]:
    """mu_t for t in 2..z, raising MuUndefinedForZ when any is missing.

    z = 1 is always admissible and yields an empty map.
    """
    if z < 1 or z > res.r:
        raise MuUndefinedForZ(f"z must be in 1..{res.r}, got {z}")
    mu: dict[int, int] = {}
    for t in range(2, z + 1):
        value = cross_intersection_number(res, t, caps)
        if value is None:
            raise MuUndefinedForZ(f"mu_{t} does not exist; z={z} is not admissible")
        mu[t] = value
    return mu


def enumerate_users(
    res: Resolution, z: int, caps: SizeCaps = DEFAULT_CAPS
) -> tuple[tuple[int, ...], ...]:
    """All K = C(r,z) * b_r^z users as z-tuples of 0-based block indices."""
    admissible_mu(res, z, caps)
    users = []
    for subset in combinations(range(res.r), z):
        class_lists = [res.classes[c] for c in subset]
        for positions in product(range(res.b_r), repeat=z):
            users.append(tuple(class_lists[s][positions[s]] for s in range(z)))
    return tuple(users)


def placement(res: Resolution) -> tuple[frozenset[int], ...]:
    """Subfile indices stored by each cache: cache j holds block j, per file."""
    return res.design.blocks


def accessible_indices(res: Resolution, user: Sequence[int]) -> frozenset[int]:
    """Union of the blocks a user is attached to (its readable subfile indices)."""
    out: frozenset[int] = frozenset()
    for j in user:
        out |= res.design.blocks[j]
    return out


def user_memory_fraction(mu: Mapping[int, int], z: int, k: int, v: int) -> Fraction:
    """Fraction of each file a user sees through its z caches.

    Inclusion-exclusion over the z blocks: all t-wise intersections
    (t >= 2) have the same size mu_t, so the union has size
    z*k + sum_{t=2..z} (-1)^(t+1) C(z,t) mu_t.
    """
    total = z * Fraction(k, v)
    for t in range(2, z + 1):
        if t not in mu:
            raise MuUndefinedForZ(f"mu_{t} required for z={z} but undefined")
        total += (-1) ** (t + 1) * comb(z, t) * Fraction(mu[t], v)
    return total


def delivery_rate(v: int, r: int, b_r: int, z: int, mu_z: int) -> Fraction:
    """Worst-case broadcast volume in file units (transmissions / v)."""
    return Fraction(mu_z * comb(b_r, 2) ** z * comb(r, z), v)


def coding_gain(z: int) -> int:
    """Users served per coded transmission: 2^z (2 in the z = 1 case)."""
    if z < 1:
        raise IndexOutOfRange(f"z must be >= 1, got {z}")
    return 2**z


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
    """Ratio (R/K at z) / (R/K at z-1) for one design.

    Equals (1/2)(1 - k/v) for z >= 3 and (mu_2 / 2k)(v/k - 1) for z = 2.
    """
    if z < 2:
        raise IndexOutOfRange(f"ratio is defined for z >= 2, got {z}")
    if z == 2:
        if mu2 is None:
            raise MuUndefinedForZ("mu_2 is required for the z=2 ratio")
        return Fraction(mu2, 2 * k) * (Fraction(v, k) - 1)
    return Fraction(1, 2) * (1 - Fraction(k, v))


@dataclass(frozen=True)
class SchemeInstance:
    """A resolution bound to a choice of z and a file count."""

    res: Resolution
    z: int
    n_files: int
    users: tuple[tuple[int, ...], ...]
    mu: Mapping[int, int]
    mu_z: int  # mu_z, with mu_1 := k in the z = 1 case

    @property
    def n_users(self) -> int:
        return len(self.users)

    @property
    def subpacketization(self) -> int:
        return self.res.design.v


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
        users=enumerate_users(res, z, caps),
        mu=mu,
        mu_z=res.design.k if z == 1 else mu[z],
    )


def scheme_metrics(res: Resolution, z: int, caps: SizeCaps = DEFAULT_CAPS) -> SchemeMetrics:
    mu = admissible_mu(res, z, caps)
    design = res.design
    mu_z = design.k if z == 1 else mu[z]
    users = comb(res.r, z) * res.b_r**z
    rate = delivery_rate(design.v, res.r, res.b_r, z, mu_z)
    return SchemeMetrics(
        caches=design.b,
        z=z,
        users=users,
        subpacketization=design.v,
        m_over_n=Fraction(design.k, design.v),
        m_prime_over_n=user_memory_fraction(mu, z, design.k, design.v),
        rate=rate,
        per_user_rate=rate / users,
        gain=coding_gain(z),
    )


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


@dataclass(frozen=True)
class DeliverySchedule:
    scheme: SchemeInstance
    demands: tuple[int, ...]
    transmissions: tuple[CodedTransmission, ...]

    @cached_property
    def participation(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per user, its (transmission index, own subfile) rows in schedule order.

        Built in one pass over ``transmissions`` on first use, so a user's
        decoder visits only the mu_z (b_r-1)^z transmissions it is part of.
        """
        rows: list[list[tuple[int, int]]] = [[] for _ in range(self.scheme.n_users)]
        for t_idx, t in enumerate(self.transmissions):
            for uid, y in t.terms:
                rows[uid].append((t_idx, y))
        return tuple(tuple(r) for r in rows)


def build_delivery_schedule(
    scheme: SchemeInstance, demands: Sequence[int]
) -> DeliverySchedule:
    """All coded transmissions, in their canonical lexicographic order.

    The schedule itself does not depend on the demand values (no savings
    are attempted for repeated demands); the vector fixes which file each
    term refers to and is validated here.
    """
    demands = tuple(int(d) for d in demands)
    if len(demands) != scheme.n_users:
        raise BadDemandLength(
            f"demand vector has {len(demands)} entries for {scheme.n_users} users"
        )
    for pos, d in enumerate(demands):
        if d < 1 or d > scheme.n_files:
            raise DemandOutOfRange(
                f"user {pos + 1} demands file {d} outside 1..{scheme.n_files}"
            )
    res = scheme.res
    blocks = res.design.blocks
    z = scheme.z
    user_id = {user: idx for idx, user in enumerate(scheme.users)}
    transmissions: list[CodedTransmission] = []
    for subset in combinations(range(res.r), z):
        class_lists = [res.classes[c] for c in subset]
        for pair_positions in product(combinations(range(res.b_r), 2), repeat=z):
            group: list[tuple[int, list[int]]] = []
            for choice in product(*pair_positions):
                user = tuple(class_lists[s][choice[s]] for s in range(z))
                side = None
                for s in range(z):
                    i_pos, j_pos = pair_positions[s]
                    other = class_lists[s][j_pos if choice[s] == i_pos else i_pos]
                    side = blocks[other] if side is None else side & blocks[other]
                if len(side) != scheme.mu_z:
                    raise InternalMuMismatch(
                        f"intersection size {len(side)} != mu_z={scheme.mu_z} "
                        f"at classes {subset}, pairs {pair_positions}"
                    )
                group.append((user_id[user], sorted(side)))
            pairs = tuple(
                (class_lists[s][pair_positions[s][0]], class_lists[s][pair_positions[s][1]])
                for s in range(z)
            )
            for s_idx in range(scheme.mu_z):
                terms = tuple(sorted((uid, side[s_idx]) for uid, side in group))
                transmissions.append(
                    CodedTransmission(classes=subset, pairs=pairs, s=s_idx + 1, terms=terms)
                )
    return DeliverySchedule(scheme=scheme, demands=demands, transmissions=tuple(transmissions))


def schedule_to_json(schedule: DeliverySchedule) -> dict:
    """Serialize a schedule with 1-based users, blocks, classes and subfiles."""
    return {
        "z": schedule.scheme.z,
        "demands": list(schedule.demands),
        "transmissions": [
            {
                "classes": [c + 1 for c in t.classes],
                "pairs": [[i + 1, j + 1] for i, j in t.pairs],
                "s": t.s,
                "terms": [{"user": uid + 1, "subfile": y} for uid, y in t.terms],
            }
            for t in schedule.transmissions
        ],
    }
