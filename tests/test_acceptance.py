"""Acceptance gate: every criterion checked at exact rational equality.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion (plus its runtime).
"""

import time
from contextlib import contextmanager
from fractions import Fraction as F
from math import comb

import pytest

from crdcache import errors
from crdcache.baselines import (
    affine_family_table,
    affine_family_z1_table,
    ag_family_table,
    hadamard_family_table,
    man_counterpart,
    spe_structural,
    sweep_family,
)
from crdcache.constructions import (
    affine_geometry_bibd,
    affine_plane,
    catalog_example,
    hadamard_crd,
)
from crdcache.designs import crd_profile, users_per_cache_subfile, users_per_subfile
from crdcache.scheme import scheme_metrics
from crdcache.simulator import verify_all
from oracles import (
    brute_cross_intersection,
    count_users_on_cache,
    count_users_seeing_point,
    enumerate_users,
    per_user_rate_ratio,
    subpacketization_from_counts,
)


@contextmanager
def criterion(number: int, description: str, budget_s: float | None = None):
    start = time.monotonic()
    try:
        yield
    except Exception:
        print(f"criterion {number} ({description}): FAIL")
        raise
    elapsed = time.monotonic() - start
    if budget_s is not None:
        assert elapsed < budget_s, f"criterion {number} took {elapsed:.2f}s (budget {budget_s}s)"
    print(f"criterion {number} ({description}): PASS [{elapsed:.2f}s]")


def _catalog_designs():
    out = [(f"example:{n}", catalog_example(n)) for n in (1, 3, 4, 5, 6, 7, 8, 9)]
    out += [(f"affine:n={n}", affine_plane(n)) for n in (2, 3, 4, 5)]
    out += [(f"ag:q={q},m=3", affine_geometry_bibd(q, 3)) for q in (2, 3)]
    out += [(f"hadamard:m={m}", hadamard_crd(m)) for m in (1, 2, 3)]
    return out


def _admissible_z(res):
    return [1] + sorted(crd_profile(res).mu)


def test_criterion_1_catalog_designs_3_and_4_vs_dedicated_baseline():
    with criterion(1, "designs 3+4 vs dedicated baseline", budget_s=1.0):
        ex3 = catalog_example(3)
        m3 = scheme_metrics(ex3, 2)
        assert (m3.users, m3.subpacketization) == (9, 9)
        assert m3.m_prime_over_n == F(5, 9)
        assert m3.rate == 1
        assert m3.gain == 4
        assert man_counterpart(ex3).rate == F(4, 3)

        ex4 = catalog_example(4)
        m4 = scheme_metrics(ex4, 3)
        assert (m4.users, m4.subpacketization) == (8, 8)
        assert m4.m_prime_over_n == F(7, 8)
        assert m4.rate == F(1, 8)
        assert m4.gain == 8
        assert man_counterpart(ex4).rate == F(3, 4)


def test_criterion_2_designs_7_and_4_vs_cyclic_baseline():
    with criterion(2, "designs 7+4 vs cyclic baseline"):
        m7 = scheme_metrics(catalog_example(7), 2)
        assert (m7.users, m7.subpacketization) == (24, 8)
        assert m7.rate == F(3, 2)
        assert m7.gain == 4
        assert m7.m_prime_over_n == F(3, 4)

        m4 = scheme_metrics(catalog_example(4), 2)
        assert (m4.users, m4.subpacketization) == (12, 8)
        assert m4.rate == F(3, 4)
        assert m4.gain == 4

        assert spe_structural(8, 2).subpacketization == 12
        assert spe_structural(6, 2).subpacketization == 6


# (K, F, M/N, M'/N, R, R/K, g) per z
DESIGN8_CELLS = {
    1: (9, 27, F(1, 3), F(1, 3), 3, F(1, 3), 2),
    2: (27, 27, F(1, 3), F(5, 9), 3, F(1, 9), 4),
    3: (27, 27, F(1, 3), F(19, 27), 1, F(1, 27), 8),
}
DESIGN9_CELLS = {
    1: (8, 16, F(1, 2), F(1, 2), 2, F(1, 4), 2),
    2: (24, 16, F(1, 2), F(3, 4), F(3, 2), F(1, 16), 4),
    3: (32, 16, F(1, 2), F(7, 8), F(1, 2), F(1, 64), 8),
    4: (16, 16, F(1, 2), F(15, 16), F(1, 16), F(1, 256), 16),
}


def test_criterion_3_z_sweeps_of_designs_8_and_9():
    with criterion(3, "z sweeps of designs 8 and 9"):
        for example, cells in ((8, DESIGN8_CELLS), (9, DESIGN9_CELLS)):
            res = catalog_example(example)
            assert _admissible_z(res) == sorted(cells)
            for z, expected in cells.items():
                m = scheme_metrics(res, z)
                got = (
                    m.users,
                    m.subpacketization,
                    m.m_over_n,
                    m.m_prime_over_n,
                    m.rate,
                    m.per_user_rate,
                    m.gain,
                )
                assert got == expected, f"design {example}, z={z}: {got} != {expected}"


def test_criterion_4_family_formulas():
    with criterion(4, "family formulas", budget_s=30.0):
        for n in (2, 3, 4, 5, 7, 8, 9):
            res = affine_plane(n)
            m2 = scheme_metrics(res, 2)
            cells = affine_family_table(n)
            assert m2.users == cells["crd_users"] == n**3 * (n + 1) // 2
            assert m2.subpacketization == n * n
            assert m2.rate == cells["crd_rate"] == F(n * (n + 1) * (n - 1) ** 2, 8)
            assert m2.gain == 4
            man = man_counterpart(res)
            assert man.rate == cells["man_rate"]
            assert man.gain == cells["man_gain"] == n + 2
            assert man.subpacketization == comb(n * (n + 1), n + 1)

            m1 = scheme_metrics(res, 1)
            z1 = affine_family_z1_table(n)
            assert m1.rate == z1["crd_rate"] == F((n + 1) * (n - 1), 2)
            assert m1.gain == 2
            assert m1.users == n * (n + 1)

        for q, m in ((2, 3), (3, 3), (2, 4)):
            res = affine_geometry_bibd(q, m)
            metrics = scheme_metrics(res, 2)
            cells = ag_family_table(q, m)
            assert metrics.users == cells["crd_users"]
            assert metrics.subpacketization == q**m
            assert metrics.rate == cells["crd_rate"]
            assert metrics.per_user_rate == cells["crd_per_user_rate"]
            man = man_counterpart(res)
            assert man.rate == cells["man_rate"]
            assert man.per_user_rate == cells["man_per_user_rate"]
            assert man.gain == cells["man_gain"]

        for m in (1, 2, 3):
            res = hadamard_crd(m)
            metrics = scheme_metrics(res, 2)
            cells = hadamard_family_table(m)
            assert metrics.users == cells["crd_users"] == 4 * (2 * m - 1) * (4 * m - 1)
            assert metrics.subpacketization == 4 * m
            assert metrics.rate == cells["crd_rate"] == F((2 * m - 1) * (4 * m - 1), 4)
            assert metrics.per_user_rate == F(1, 16)
            man = man_counterpart(res)
            assert man.rate == F(4 * m - 1, 4 * m)
            assert man.per_user_rate == F(1, 8 * m)


def test_criterion_5_end_to_end_decodability():
    with criterion(5, "end-to-end decodability", budget_s=120.0):
        for label, res in _catalog_designs():
            v = res.design.v
            for z in _admissible_z(res):
                metrics = scheme_metrics(res, z)
                n_files = metrics.users
                report = verify_all(res, z, n_files, v * 16, seed=1)
                assert report.all_recovered, f"{label} z={z}"
                assert report.measured_rate == report.theoretical_rate == metrics.rate
                scheme_mu_z = res.design.k if z == 1 else crd_profile(res).mu[z]
                expected_air = scheme_mu_z * (res.b_r - 1) ** z
                for user in report.users:
                    assert user.byte_equal
                    assert user.subfiles_from_air == expected_air
                    assert user.subfiles_from_cache == v * metrics.m_prime_over_n


def test_criterion_6_property_suite():
    with criterion(6, "counting, recursion, identity and ratio properties"):
        designs = _catalog_designs()
        # (a) recursion between consecutive orders on every catalog CRD
        for _label, res in designs:
            profile = crd_profile(res)
            ratio = res.design.v // res.design.k
            for i in sorted(profile.mu):
                if i - 1 in profile.mu:
                    assert profile.mu[i - 1] == profile.mu[i] * ratio
        # (b) closed-form counts match exhaustive counts for every (design, z)
        for _label, res in designs:
            for z in _admissible_z(res):
                users = enumerate_users(res, z)
                per_point = users_per_subfile(res.r, z, res.b_r)
                per_cache = users_per_cache_subfile(res.r, z, res.b_r)
                for point in range(1, res.design.v + 1):
                    assert count_users_seeing_point(res, users, point) == per_point
                for cache in range(res.design.b):
                    assert count_users_on_cache(users, cache) == per_cache
        # (c) the subpacketization identity round-trips v on every row above
        rows = [(res, z) for _l, res in designs for z in _admissible_z(res)]
        rows += [(affine_plane(n), z) for n in (7, 8, 9) for z in (1, 2)]
        rows += [(affine_geometry_bibd(2, 4), 2)]
        for res, z in rows:
            metrics = scheme_metrics(res, z)
            assert (
                subpacketization_from_counts(res.design.k, metrics.users, res.r, z)
                == res.design.v
            )
        # (d) ratio equations against directly computed quotients
        ex8 = catalog_example(8)
        seq8 = [scheme_metrics(ex8, z).per_user_rate for z in (1, 2, 3)]
        assert seq8 == [F(1, 3), F(1, 9), F(1, 27)]
        assert per_user_rate_ratio(27, 9, 2, mu2=3) == seq8[1] / seq8[0] == F(1, 3)
        assert per_user_rate_ratio(27, 9, 3) == seq8[2] / seq8[1] == F(1, 3)
        ex9 = catalog_example(9)
        seq9 = [scheme_metrics(ex9, z).per_user_rate for z in (1, 2, 3, 4)]
        assert seq9 == [F(1, 4), F(1, 16), F(1, 64), F(1, 256)]
        assert per_user_rate_ratio(16, 8, 2, mu2=4) == seq9[1] / seq9[0] == F(1, 4)
        assert per_user_rate_ratio(16, 8, 3) == seq9[2] / seq9[1] == F(1, 4)
        assert per_user_rate_ratio(16, 8, 4) == seq9[3] / seq9[2] == F(1, 4)
        # (e) construction profiles match family predictions via brute force
        grids = (
            [(affine_plane(n), 1) for n in (2, 3, 4, 5)]
            + [(affine_geometry_bibd(q, m), q ** (m - 2)) for q, m in ((2, 3), (3, 3), (2, 4))]
            + [(hadamard_crd(m), m) for m in (1, 2, 3)]
        )
        for res, mu2 in grids:
            assert brute_cross_intersection(res, 2) == mu2
            assert brute_cross_intersection(res, 3) is None
            assert dict(crd_profile(res).mu) == {2: mu2}


def test_criterion_7_negative_controls():
    with criterion(7, "negative controls"):
        ex2 = catalog_example(2)
        assert not crd_profile(ex2).is_crd
        for z in range(2, ex2.r + 1):
            with pytest.raises(errors.MuUndefinedForZ):
                enumerate_users(ex2, z)
        ex6 = catalog_example(6)
        assert _admissible_z(ex6) == [1, 2]
        for z in (3, 4):
            with pytest.raises(errors.MuUndefinedForZ):
                enumerate_users(ex6, z)
        with pytest.raises(errors.NotAPrimePower):
            affine_plane(6)


def test_criterion_8_sweep_crossover_and_subpacketization_growth():
    with criterion(8, "sweep crossover and subpacketization growth"):
        rows = sweep_family("affine", [2, 3, 4, 5, 7, 8, 9])
        for row in rows:
            n = int(row.param)
            # the scheme's per-user rate (n-1)^2/(4n^2) beats the dedicated
            # baseline's (n-1)^2/(n(n^2+n-2)) exactly when n(n^2+n-2) < 4n^2
            if n * (n * n + n - 2) < 4 * n * n:
                assert row.rk_crd < row.rk_man, f"n={n}"
            else:
                assert row.rk_crd > row.rk_man, f"n={n}"
        winners = [row for row in rows if row.rk_crd < row.rk_man]
        losers = [row for row in rows if row.rk_crd > row.rk_man]
        assert [int(r.param) for r in winners] == [2, 3]
        # the crossover cache size sits between 1/4 and 1/3, i.e. around 0.3
        assert max(r.m_over_n for r in losers) < F(3, 10) < min(r.m_over_n for r in winners)

        # subpacketization: the scheme stays polynomial while the dedicated
        # baseline is already past 10^6 at the smallest tested sizes
        plane_rows = sweep_family("ag", [7, 8, 9], m=2)
        for row in plane_rows:
            assert row.f_crd == int(row.param) ** 2
            assert row.f_man > 10**6
        solid_rows = sweep_family("ag", [3, 4], m=3)
        for row in solid_rows:
            assert row.f_crd == int(row.param) ** 3
            assert row.f_man > 10**6
        for series in (rows, plane_rows, solid_rows):
            values = [r.f_crd for r in series if r.f_crd is not None]
            assert values == sorted(values)
            for row in series:
                if row.f_crd is not None:
                    assert row.f_crd < row.f_man
