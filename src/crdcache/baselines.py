"""Baseline operating points and the comparison tables built on them.

Two baselines are in scope:

* MaN - the classic dedicated-cache scheme (one user per cache).  With K
  users and integer cache redundancy t = K*M/N it achieves rate
  K(1 - M/N)/(1 + t) at gain 1 + t with subpacketization C(K, t).  The
  subpacketization is kept as an exact big integer; it overflows 64 bits
  for quite small K, and is refused past 2**13 bits (``SizeCapExceeded``)
  before it is computed.
* SPE - the cyclic-overlap multi-access scheme in its K*M/N = 2 regime.
  Only its structural parameters are computed here (users, M/N = 2/K,
  subpacketization K(K - 2z + 2)/4, accessible fraction 2z/K); its rate
  expression is out of scope and the published gain bracket (between 3
  and 4) is reported as a static annotation.

Table builders return a small column-oriented structure that renders to
aligned text or CSV; sweep builders return per-parameter rows with exact
rationals for plotting per-user rate and subpacketization against cache
size.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, inf, lgamma, log, log2
from typing import Callable, Sequence

from .caps import DEFAULT_CAPS, SizeCaps
from .constructions import (
    FAMILIES,
    FamilyParams,
    affine_geometry_params,
    affine_plane_params,
    catalog_example,
    hadamard_params,
)
from .designs import Resolution, crd_profile
from .errors import (
    BadFamilyParameter,
    BadSpec,
    CrdCacheError,
    NonIntegerCacheRedundancy,
    NonIntegerSubpacketization,
    SizeCapExceeded,
)
from .scheme import SchemeMetrics, closed_form_metrics, scheme_metrics

SPE_GAIN_NOTE = "cyclic-overlap (SPE) rate and gain are not computed; the published gain lies between 3 and 4"


@dataclass(frozen=True)
class ManPoint:
    """Dedicated-cache baseline at one (K, M/N) operating point."""

    users: int
    m_over_n: Fraction
    rate: Fraction
    gain: int
    subpacketization: int

    @property
    def per_user_rate(self) -> Fraction:
        """(1 - M/N) / (1 + t)."""
        m = self.m_over_n
        return Fraction(m.denominator - m.numerator, m.denominator * self.gain)


# C(K, t) is printed in full.  The cap is above C(8190, 4095), of 8184
# bits, the largest MaN counterpart of a design under the default point cap
# (K = 8190 caches of hadamard:m=1024 and ag:q=2,m=12), and far below where
# comb() runs for minutes.
_MAX_SUBPACKETIZATION_BITS = 1 << 13


def _comb_bits(n: int, k: int) -> float:
    """About log2 C(n, k), from lgamma; inf once n is past float range.  It is
    at least j log2(n / j), j = min(k, n - k), where lgamma cancels at huge n."""
    j = min(k, n - k)
    if j == 0:
        return 0.0
    try:
        bits = (lgamma(n + 1) - lgamma(k + 1) - lgamma(n - k + 1)) / log(2)
    except OverflowError:
        return inf
    return max(bits, j * (log2(n) - log2(j)))


def man_point(users: int, m_over_n: Fraction | int) -> ManPoint:
    m_over_n = Fraction(m_over_n)
    a, b = m_over_n.numerator, m_over_n.denominator
    t, rem = divmod(users * a, b)
    if rem or t < 1 or t > users:
        raise NonIntegerCacheRedundancy(
            f"K*M/N must be a positive integer <= K, got {Fraction(users * a, b)} for K={users}"
        )
    if _comb_bits(users, t) > _MAX_SUBPACKETIZATION_BITS:
        # K and t themselves may be too long to print
        raise SizeCapExceeded(
            f"the MaN subpacketization C(K, t) for a {users.bit_length()}-bit K "
            f"has more than {_MAX_SUBPACKETIZATION_BITS} bits"
        )
    return ManPoint(
        users=users,
        m_over_n=m_over_n,
        rate=Fraction(users * (b - a), b * (1 + t)),
        gain=1 + t,
        subpacketization=comb(users, t),
    )


@dataclass(frozen=True)
class SpeStructural:
    """Structural parameters of the cyclic-overlap baseline (no rate)."""

    users: int
    z: int
    m_over_n: Fraction
    subpacketization: int
    user_fraction: Fraction


def spe_structural(b: int, z: int) -> SpeStructural:
    numerator = b * (b - 2 * z + 2)
    if numerator <= 0 or numerator % 4:
        raise NonIntegerSubpacketization(
            f"K(K-2z+2)/4 = {numerator}/4 is not a positive integer for K={b}, z={z}"
        )
    return SpeStructural(
        users=b,
        z=z,
        m_over_n=Fraction(2, b),
        subpacketization=numerator // 4,
        user_fraction=Fraction(2 * z, b),
    )


def man_counterpart(res: Resolution) -> ManPoint:
    """MaN point with the same cache count and per-cache fraction as a design."""
    return man_point(res.design.b, Fraction(res.design.k, res.design.v))


# --- closed-form family tables -------------------------------------------------

# each scheme's cells, keyed "man_<field>" and "crd_<field>"
_FAMILY_KEYS = ("users", "subpacketization", "rate", "per_user_rate", "gain")


def _family_cells(params: FamilyParams, z: int) -> dict[str, object]:
    """Formula cells of one family member at z: the scheme's closed forms at
    the member's predicted counts, beside the MaN point with the same caches
    and cache fraction."""
    man = man_point(params.b, Fraction(params.k, params.v))
    crd = closed_form_metrics(params.v, params.b, params.r, params.k, {2: params.mu2}, z)
    cells: dict[str, object] = {"caches": params.b, "m_over_n": crd.m_over_n}
    for scheme, point in (("man", man), ("crd", crd)):
        cells.update((f"{scheme}_{key}", getattr(point, key)) for key in _FAMILY_KEYS)
    return cells


def _affine_plane_member(n: int) -> FamilyParams:
    if n < 2:
        raise BadFamilyParameter(f"the affine-plane family needs n >= 2, got n={n}")
    return affine_plane_params(n)


def affine_family_table(n: int) -> dict[str, object]:
    """Formula cells for the affine-plane family at order n, z = 2."""
    return _family_cells(_affine_plane_member(n), 2)


def affine_family_z1_table(n: int) -> dict[str, object]:
    """Formula cells for the affine-plane family at order n, z = 1."""
    return _family_cells(_affine_plane_member(n), 1)


def ag_family_table(q: int, m: int) -> dict[str, object]:
    """Formula cells for the affine-geometry family at (q, m), z = 2."""
    if q < 2 or m < 2:
        raise BadFamilyParameter(
            f"the affine-geometry family needs q >= 2 and m >= 2, got q={q}, m={m}"
        )
    if (m - 1) * log(q, 2) > _MAX_SUBPACKETIZATION_BITS:  # K > q**m and C(K, K/q) >= q**(K/q)
        raise SizeCapExceeded(
            f"the MaN subpacketization C(K, t) for K > {q}**{m} "
            f"has more than {_MAX_SUBPACKETIZATION_BITS} bits"
        )
    return _family_cells(affine_geometry_params(q, m), 2)


def hadamard_family_table(m: int) -> dict[str, object]:
    """Formula cells for the Hadamard family at order parameter m, z = 2."""
    if m < 1:
        raise BadFamilyParameter(f"the Hadamard family needs m >= 1, got m={m}")
    return _family_cells(hadamard_params(m), 2)


# --- comparison tables ----------------------------------------------------------

Cell = object  # int | Fraction | str | None


@dataclass(frozen=True)
class ComparisonTable:
    title: str
    row_labels: tuple[str, ...]
    columns: tuple[tuple[str, tuple[Cell, ...]], ...]
    notes: tuple[str, ...] = ()


_ROW_LABELS = (
    "caches (b)",
    "caches per user (z)",
    "users (K)",
    "subpacketization (F)",
    "cache fraction (M/N)",
    "user fraction (M'/N)",
    "rate (R)",
    "rate per user (R/K)",
    "gain (g)",
)


def _crd_column(metrics: SchemeMetrics) -> tuple[Cell, ...]:
    return (
        metrics.caches,
        metrics.z,
        metrics.users,
        metrics.subpacketization,
        metrics.m_over_n,
        metrics.m_prime_over_n,
        metrics.rate,
        metrics.per_user_rate,
        metrics.gain,
    )


def _man_column(point: ManPoint) -> tuple[Cell, ...]:
    return (
        point.users,
        1,
        point.users,
        point.subpacketization,
        point.m_over_n,
        point.m_over_n,
        point.rate,
        point.per_user_rate,
        point.gain,
    )


def _spe_column(point: SpeStructural) -> tuple[Cell, ...]:
    return (
        point.users,
        point.z,
        point.users,
        point.subpacketization,
        point.m_over_n,
        point.user_fraction,
        None,
        None,
        None,
    )


def man_example_table(caps: SizeCaps = DEFAULT_CAPS) -> ComparisonTable:
    """Catalog designs 3 (z=2) and 4 (z=3) against the dedicated-cache baseline."""
    columns = []
    for example_id, z in ((3, 2), (4, 3)):
        res = catalog_example(example_id)
        columns.append((f"design {example_id} / MaN", _man_column(man_counterpart(res))))
        columns.append((f"design {example_id} / CRD", _crd_column(scheme_metrics(res, z, caps))))
    return ComparisonTable(
        title="Dedicated-cache baseline vs CRD scheme (catalog designs 3 and 4)",
        row_labels=_ROW_LABELS,
        columns=tuple(columns),
    )


def spe_example_table(caps: SizeCaps = DEFAULT_CAPS) -> ComparisonTable:
    """Catalog designs 7 and 4 at z=2 against the cyclic-overlap baseline."""
    columns = []
    for example_id in (7, 4):
        res = catalog_example(example_id)
        columns.append((f"design {example_id} / SPE", _spe_column(spe_structural(res.design.b, 2))))
        columns.append((f"design {example_id} / CRD", _crd_column(scheme_metrics(res, 2, caps))))
    return ComparisonTable(
        title="Cyclic-overlap baseline vs CRD scheme (catalog designs 7 and 4, z=2)",
        row_labels=_ROW_LABELS,
        columns=tuple(columns),
        notes=(SPE_GAIN_NOTE,),
    )


def analyze_table(res: Resolution, z: int, caps: SizeCaps = DEFAULT_CAPS) -> ComparisonTable:
    """One design at one z against both baselines.

    Baseline columns whose preconditions fail are dropped and reported in
    the notes instead of aborting the in-scope column.
    """
    columns = [("CRD", _crd_column(scheme_metrics(res, z, caps)))]
    notes: list[str] = []
    try:
        columns.append(("MaN", _man_column(man_counterpart(res))))
    except NonIntegerCacheRedundancy as exc:
        notes.append(f"MaN baseline unavailable: {exc}")
    try:
        columns.append(("SPE", _spe_column(spe_structural(res.design.b, z))))
        notes.append(SPE_GAIN_NOTE)
    except NonIntegerSubpacketization as exc:
        notes.append(f"SPE baseline unavailable: {exc}")
    d = res.design
    return ComparisonTable(
        title=f"v={d.v} b={d.b} r={res.r} k={d.k} b_r={res.b_r}, z={z}",
        row_labels=_ROW_LABELS,
        columns=tuple(columns),
        notes=tuple(notes),
    )


def z_sweep_table(res: Resolution, label: str, caps: SizeCaps = DEFAULT_CAPS) -> ComparisonTable:
    """One column per admissible z (including z=1) for a single design."""
    profile = crd_profile(res, caps)
    z_values = [1] + sorted(profile.mu)
    columns = tuple(
        (f"z={z}", _crd_column(scheme_metrics(res, z, caps))) for z in z_values
    )
    return ComparisonTable(
        title=f"CRD scheme at every admissible z ({label})",
        row_labels=_ROW_LABELS,
        columns=columns,
    )


def family_comparison(cells: dict[str, object], z: int, title: str) -> ComparisonTable:
    """MaN and CRD columns of one family's formula cells."""
    man_col = (
        cells["caches"],
        1,
        cells["man_users"],
        cells["man_subpacketization"],
        cells["m_over_n"],
        cells["m_over_n"],
        cells["man_rate"],
        cells["man_per_user_rate"],
        cells["man_gain"],
    )
    crd_col = (
        cells["caches"],
        z,
        cells["crd_users"],
        cells["crd_subpacketization"],
        cells["m_over_n"],
        None,
        cells["crd_rate"],
        cells["crd_per_user_rate"],
        cells["crd_gain"],
    )
    return ComparisonTable(
        title=title,
        row_labels=_ROW_LABELS,
        columns=(("MaN", man_col), ("CRD", crd_col)),
    )


# table name -> (parameters, formula cells, z, title)
FAMILY_TABLES: dict[str, tuple[tuple[str, ...], Callable[..., dict[str, object]], int, str]] = {
    "affine-man": (("n",), affine_family_table, 2, "Affine-plane family at n={n}, z=2 (formulas)"),
    "affine-z1": (("n",), affine_family_z1_table, 1, "Affine-plane family at n={n}, z=1 (formulas)"),
    "ag-man": (
        ("q", "m"), ag_family_table, 2, "Affine-geometry family at q={q}, m={m}, z=2 (formulas)"
    ),
    "hadamard-man": (("m",), hadamard_family_table, 2, "Hadamard family at m={m}, z=2 (formulas)"),
}


# --- sweeps ---------------------------------------------------------------------


@dataclass(frozen=True)
class SweepRow:
    param: str
    m_over_n: Fraction | None = None
    rk_crd: Fraction | None = None
    rk_man: Fraction | None = None
    f_crd: int | None = None
    f_man: int | None = None
    note: str = ""


def _sweep_point(res: Resolution, z: int, param: str, caps: SizeCaps) -> SweepRow:
    metrics = scheme_metrics(res, z, caps)
    man = man_counterpart(res)
    return SweepRow(
        param=param,
        m_over_n=metrics.m_over_n,
        rk_crd=metrics.per_user_rate,
        rk_man=man.per_user_rate,
        f_crd=metrics.subpacketization,
        f_man=man.subpacketization,
    )


def sweep_family(
    family: str,
    values: Sequence[int],
    z: int = 2,
    m: int | None = None,
    caps: SizeCaps = DEFAULT_CAPS,
) -> list[SweepRow]:
    """Per-parameter operating points for plotting, sweeping the family's
    first parameter (``m`` fixes the ag dimension, and a one-parameter
    family refuses it); invalid values become warning rows instead of
    aborting the sweep."""
    if family not in FAMILIES:
        raise BadSpec(f"unknown sweep family {family!r}")
    keys, build = FAMILIES[family]
    if len(keys) > 1 and m is None:
        raise BadSpec(f"the {family} sweep needs a fixed dimension {keys[1]}")
    if len(keys) == 1 and m is not None:
        raise BadSpec(f"the {family} sweep has no fixed dimension, got m={m}")
    fixed = (m,) * (len(keys) - 1)
    rows = []
    for value in values:
        try:
            rows.append(_sweep_point(build(value, *fixed, caps), z, str(value), caps))
        except CrdCacheError as exc:
            rows.append(SweepRow(param=str(value), note=str(exc)))
    return rows
