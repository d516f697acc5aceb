"""Baseline operating points, family formula tables, comparison tables, sweeps."""

import time
from fractions import Fraction
from math import comb

import pytest

from crdcache import baselines, errors
from crdcache.baselines import (
    FAMILY_TABLES,
    analyze_table,
    family_table,
    man_counterpart,
    man_example_table,
    man_point,
    spe_example_table,
    spe_structural,
    sweep_family,
    z_sweep_table,
)
from crdcache.constructions import (
    FAMILIES,
    affine_geometry_bibd,
    affine_plane,
    catalog_example,
    hadamard_crd,
)
from crdcache.scheme import scheme_metrics


def _family_columns(name, *args):
    """The MaN and CRD columns of formula table ``name`` at ``args``, each
    keyed by row label."""
    _, member, z, title = FAMILY_TABLES[name]
    table = family_table(member(*args), z, title)
    columns = dict(table.columns)
    return tuple(dict(zip(table.row_labels, columns[scheme])) for scheme in ("MaN", "CRD"))


class TestManPoint:
    def test_third_fraction(self):
        point = man_point(12, Fraction(1, 3))
        assert point.rate == Fraction(8, 5)
        assert point.gain == 5
        assert point.subpacketization == comb(12, 4) == 495

    def test_half_fraction(self):
        point = man_point(6, Fraction(1, 2))
        assert point.rate == Fraction(3, 4)
        assert point.gain == 4
        assert point.subpacketization == 20

    def test_full_cache(self):
        assert man_point(6, 1).rate == 0

    def test_non_integer_redundancy(self):
        with pytest.raises(errors.NonIntegerCacheRedundancy):
            man_point(6, Fraction(1, 4))
        with pytest.raises(errors.NonIntegerCacheRedundancy):
            man_point(4, Fraction(3, 8))

    def test_big_integer_subpacketization(self):
        # already past 64 bits at the affine order-5 comparison point
        point = man_point(90, Fraction(1, 9))
        assert point.subpacketization == comb(90, 10)

    def test_subpacketization_cap(self):
        # the largest counterpart under the default point cap still computes
        assert man_point(8190, Fraction(1, 2)).subpacketization == comb(8190, 4095)
        assert man_point(2**400, Fraction(1)).subpacketization == 1
        assert man_point(10**400, Fraction(1)).subpacketization == 1  # past float range, C(K, K) = 1
        for users, m_over_n in [(8200, Fraction(1, 2)), (3 * 10**14, Fraction(1, 3)), (10**400, Fraction(1, 2))]:
            with pytest.raises(errors.SizeCapExceeded):
                man_point(users, m_over_n)

    @pytest.mark.parametrize("exponent", [16, 18, 20, 30])
    def test_huge_k_with_a_small_t_is_refused_at_once(self, exponent):
        """At K = n(n+1), t = n+1 the lgamma difference cancels to 0.0; the
        bound t log2(K / t) still refuses C(K, t) before it is computed."""
        n = 10**exponent
        start = time.perf_counter()
        with pytest.raises(errors.SizeCapExceeded):
            man_point(n * (n + 1), Fraction(1, n))
        with pytest.raises(errors.SizeCapExceeded):
            man_point(n * (n + 1), 1 - Fraction(1, n))
        assert time.perf_counter() - start < 1

    def test_t_near_k_is_bounded_by_k_minus_t(self):
        """C(K, K - 5000) at K = 10^30 has about 438,000 bits; counted from t,
        the lower bound would be 7,200 bits and admit it."""
        with pytest.raises(errors.SizeCapExceeded):
            man_point(10**30, Fraction(10**30 - 5000, 10**30))
        assert man_point(10**30, Fraction(10**30 - 5, 10**30)).subpacketization == comb(10**30, 5)


class TestFamilyParameters:
    @pytest.mark.parametrize(
        "name, args, parameter",
        [
            ("affine-man", (0,), "n=0"),
            ("affine-man", (1,), "n=1"),
            ("affine-z1", (1,), "n=1"),
            ("ag-man", (1, 3), "q=1"),
            ("ag-man", (3, 1), "m=1"),
            ("hadamard-man", (0,), "m=0"),
        ],
    )
    def test_out_of_range_is_a_typed_error(self, name, args, parameter):
        _, member, _, _ = FAMILY_TABLES[name]
        with pytest.raises(errors.BadFamilyParameter, match=parameter):
            member(*args)

    def test_smallest_members_build(self):
        assert _family_columns("affine-man", 2)[1]["users (K)"] == 12
        assert _family_columns("ag-man", 2, 2)[1]["caches (b)"] == 6
        assert _family_columns("hadamard-man", 1)[1]["caches (b)"] == 6


class TestSpeStructural:
    def test_values(self):
        eight = spe_structural(8, 2)
        assert (eight.subpacketization, eight.m_over_n, eight.user_fraction) == (
            12,
            Fraction(1, 4),
            Fraction(1, 2),
        )
        six = spe_structural(6, 2)
        assert (six.subpacketization, six.m_over_n, six.user_fraction) == (
            6,
            Fraction(1, 3),
            Fraction(2, 3),
        )

    def test_non_integer(self):
        with pytest.raises(errors.NonIntegerSubpacketization):
            spe_structural(5, 2)
        with pytest.raises(errors.NonIntegerSubpacketization):
            spe_structural(6, 4)  # K - 2z + 2 = 0


class TestFamilyFormulaTables:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_affine_matches_built_design(self, n):
        man_cells, cells = _family_columns("affine-man", n)
        res = affine_plane(n)
        metrics = scheme_metrics(res, 2)
        man = man_counterpart(res)
        assert metrics.users == cells["users (K)"]
        assert metrics.subpacketization == cells["subpacketization (F)"]
        assert metrics.rate == cells["rate (R)"]
        assert metrics.per_user_rate == cells["rate per user (R/K)"]
        assert metrics.gain == cells["gain (g)"]
        assert man.rate == man_cells["rate (R)"]
        assert man.per_user_rate == man_cells["rate per user (R/K)"]
        assert man.gain == man_cells["gain (g)"]
        assert man.subpacketization == man_cells["subpacketization (F)"]

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_affine_z1_matches_built_design(self, n):
        _, cells = _family_columns("affine-z1", n)
        metrics = scheme_metrics(affine_plane(n), 1)
        assert metrics.users == cells["users (K)"] == n * (n + 1)
        assert metrics.rate == cells["rate (R)"] == Fraction((n + 1) * (n - 1), 2)
        assert metrics.gain == 2

    @pytest.mark.parametrize("q,m", [(2, 3), (3, 3), (2, 4)])
    def test_geometry_matches_built_design(self, q, m):
        man_cells, cells = _family_columns("ag-man", q, m)
        res = affine_geometry_bibd(q, m)
        metrics = scheme_metrics(res, 2)
        man = man_counterpart(res)
        assert metrics.users == cells["users (K)"]
        assert metrics.rate == cells["rate (R)"]
        assert metrics.per_user_rate == cells["rate per user (R/K)"] == Fraction(
            (q - 1) ** 2, 4 * q * q
        )
        assert man.rate == man_cells["rate (R)"]
        assert man.per_user_rate == man_cells["rate per user (R/K)"]
        assert man.gain == man_cells["gain (g)"]

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_hadamard_matches_built_design(self, m):
        _, cells = _family_columns("hadamard-man", m)
        res = hadamard_crd(m)
        metrics = scheme_metrics(res, 2)
        man = man_counterpart(res)
        assert metrics.users == cells["users (K)"]
        assert metrics.rate == cells["rate (R)"]
        assert metrics.per_user_rate == Fraction(1, 16)
        assert man.per_user_rate == Fraction(1, 8 * m)
        assert man.gain == 4 * m

    def test_small_geometry_example_values(self):
        _, cells = _family_columns("ag-man", 2, 3)
        assert cells["users (K)"] == 84
        assert cells["subpacketization (F)"] == 8
        assert cells["rate (R)"] == Fraction(21, 4)
        assert cells["rate per user (R/K)"] == Fraction(1, 16)

    @pytest.mark.parametrize(
        "q,m", [(2, 2), (3, 2), (4, 2), (5, 2), (2, 3), (3, 3), (2, 4)]
    )
    def test_per_user_rate_crossover(self, q, m):
        # the scheme beats the dedicated baseline exactly when
        # q(q^m + q - 2) <= 4q^2
        man_cells, cells = _family_columns("ag-man", q, m)
        wins = cells["rate per user (R/K)"] <= man_cells["rate per user (R/K)"]
        assert wins == (q * (q**m + q - 2) <= 4 * q * q)


class TestComparisonTables:
    def test_catalog_vs_dedicated(self):
        table = man_example_table()
        cols = dict(table.columns)
        labels = table.row_labels
        design3 = dict(zip(labels, cols["design 3 / CRD"]))
        assert design3["users (K)"] == 9
        assert design3["subpacketization (F)"] == 9
        assert design3["user fraction (M'/N)"] == Fraction(5, 9)
        assert design3["rate (R)"] == 1
        assert design3["gain (g)"] == 4
        man3 = dict(zip(labels, cols["design 3 / MaN"]))
        assert man3["rate (R)"] == Fraction(4, 3)
        assert man3["gain (g)"] == 3
        assert man3["subpacketization (F)"] == 15
        design4 = dict(zip(labels, cols["design 4 / CRD"]))
        assert design4["users (K)"] == 8
        assert design4["rate (R)"] == Fraction(1, 8)
        assert design4["gain (g)"] == 8
        man4 = dict(zip(labels, cols["design 4 / MaN"]))
        assert man4["rate (R)"] == Fraction(3, 4)
        assert man4["subpacketization (F)"] == 20

    def test_catalog_vs_cyclic(self):
        table = spe_example_table()
        cols = dict(table.columns)
        labels = table.row_labels
        crd7 = dict(zip(labels, cols["design 7 / CRD"]))
        assert crd7["users (K)"] == 24
        assert crd7["subpacketization (F)"] == 8
        assert crd7["rate (R)"] == Fraction(3, 2)
        assert crd7["gain (g)"] == 4
        assert crd7["user fraction (M'/N)"] == Fraction(3, 4)
        spe7 = dict(zip(labels, cols["design 7 / SPE"]))
        assert spe7["subpacketization (F)"] == 12
        assert spe7["rate (R)"] is None
        crd4 = dict(zip(labels, cols["design 4 / CRD"]))
        assert crd4["users (K)"] == 12
        assert crd4["rate (R)"] == Fraction(3, 4)
        spe4 = dict(zip(labels, cols["design 4 / SPE"]))
        assert spe4["subpacketization (F)"] == 6
        assert spe4["user fraction (M'/N)"] == Fraction(2, 3)
        assert any("between 3 and 4" in note for note in table.notes)

    def test_z_sweep_columns(self):
        table = z_sweep_table(catalog_example(9), "design 9")
        assert [name for name, _ in table.columns] == ["z=1", "z=2", "z=3", "z=4"]
        by_z = {name: dict(zip(table.row_labels, cells)) for name, cells in table.columns}
        assert by_z["z=4"]["rate per user (R/K)"] == Fraction(1, 256)
        assert by_z["z=3"]["users (K)"] == 32
        assert by_z["z=1"]["gain (g)"] == 2

    def test_analyze_table_includes_available_baselines(self):
        table = analyze_table(catalog_example(4), 3)
        names = [name for name, _ in table.columns]
        assert names == ["CRD", "MaN", "SPE"]
        spe = dict(zip(table.row_labels, dict(table.columns)["SPE"]))
        assert spe["subpacketization (F)"] == 3  # 6*(6-6+2)/4

    def test_analyze_table_reports_unavailable_baseline(self):
        # design 8 has 9 caches, so K(K-2z+2)/4 is fractional at z=2 and the
        # SPE column must degrade to a note without dropping the others
        table = analyze_table(catalog_example(8), 2)
        names = [name for name, _ in table.columns]
        assert names == ["CRD", "MaN"]
        assert any("SPE baseline unavailable" in note for note in table.notes)

    def test_analyze_table_notes_a_man_baseline_over_its_cap(self, monkeypatch):
        # a MaN subpacketization past the bit cap drops that column to a
        # note, as a fractional K*M/N does, and keeps the CRD and SPE columns
        res = catalog_example(3)
        full = analyze_table(res, 2)
        monkeypatch.setattr(baselines, "_MAX_SUBPACKETIZATION_BITS", 2)
        table = analyze_table(res, 2)
        assert [name for name, _ in table.columns] == ["CRD", "SPE"]
        assert dict(table.columns)["CRD"] == dict(full.columns)["CRD"]
        assert any(
            note.startswith("MaN baseline unavailable: the MaN subpacketization")
            for note in table.notes
        )


class TestSweep:
    def test_affine_rows(self):
        rows = sweep_family("affine", [2, 3, 4, 5, 6])
        by_param = {row.param: row for row in rows}
        assert by_param["2"].rk_crd == Fraction(1, 16)
        assert by_param["2"].rk_man == Fraction(1, 8)
        assert by_param["3"].rk_crd == Fraction(1, 9)
        assert by_param["3"].rk_man == Fraction(2, 15)
        assert by_param["4"].f_man == 15504
        assert by_param["5"].f_man == 593775
        assert by_param["6"].note == "6 is not a prime power"
        assert by_param["6"].rk_crd is None

    def test_geometry_rows(self):
        rows = sweep_family("ag", [2, 3, 4], m=3)
        for row, q in zip(rows, (2, 3, 4)):
            assert row.rk_crd == Fraction((q - 1) ** 2, 4 * q * q)

    def test_hadamard_rows(self):
        rows = sweep_family("hadamard", [1, 2, 3])
        for row, m in zip(rows, (1, 2, 3)):
            assert row.rk_man == Fraction(1, 8 * m)
            assert row.rk_crd == Fraction(1, 16)

    def test_single_cache_sweep(self):
        rows = sweep_family("affine", [2, 3], z=1)
        assert rows[0].rk_crd == Fraction(1, 4)  # ((n+1)(n-1)/2)/(n(n+1)) at n=2

    def test_unknown_family_is_a_typed_error(self):
        with pytest.raises(errors.BadSpec, match="unknown sweep family 'grid'"):
            sweep_family("grid", [2, 3])

    def test_needs_dimension(self):
        with pytest.raises(errors.BadSpec):
            sweep_family("ag", [2, 3])

    @pytest.mark.parametrize("family", ["affine", "hadamard", "example"])
    def test_one_parameter_family_refuses_a_dimension_before_building(self, family, monkeypatch):
        keys, _ = FAMILIES[family]
        built = []
        monkeypatch.setitem(FAMILIES, family, (keys, lambda *args: built.append(args)))
        with pytest.raises(errors.BadSpec, match=f"the {family} sweep has no fixed dimension, got m=4"):
            sweep_family(family, [2, 3], m=4)
        assert built == []
