"""User enumeration, placement, metrics and the delivery schedule."""

import json
from fractions import Fraction
from math import comb

import pytest

from crdcache import errors
from crdcache.constructions import affine_plane, catalog_example, hadamard_crd
from crdcache.designs import crd_profile
from crdcache.scheme import (
    accessible_indices,
    build_delivery_schedule,
    build_scheme,
    coding_gain,
    delivery_rate,
    enumerate_users,
    per_user_rate_ratio,
    placement,
    scheme_metrics,
    schedule_to_json,
    subpacketization_from_counts,
    user_memory_fraction,
)
from oracles import access_union

# catalog design id -> admissible z values above 1
ADMISSIBLE = {1: [2], 3: [2], 4: [2, 3], 5: [2], 6: [2], 7: [2], 8: [2, 3], 9: [2, 3, 4]}


def _catalog_points():
    for example, extra in ADMISSIBLE.items():
        res = catalog_example(example)
        for z in [1] + extra:
            yield example, res, z


class TestUsers:
    def test_two_class_cross_product(self):
        res = catalog_example(3)
        users = enumerate_users(res, 2)
        one_based = [tuple(j + 1 for j in u) for u in users]
        assert one_based == [
            (1, 4), (1, 5), (1, 6), (2, 4), (2, 5), (2, 6), (3, 4), (3, 5), (3, 6),
        ]

    def test_counts(self):
        for _example, res, z in _catalog_points():
            users = enumerate_users(res, z)
            assert len(users) == comb(res.r, z) * res.b_r**z
            assert len(set(users)) == len(users)

    def test_single_cache_users_are_the_caches(self):
        res = catalog_example(4)
        users = enumerate_users(res, 1)
        assert sorted(u[0] for u in users) == list(range(res.design.b))

    def test_inadmissible_z(self):
        with pytest.raises(errors.MuUndefinedForZ):
            enumerate_users(catalog_example(2), 2)
        with pytest.raises(errors.MuUndefinedForZ):
            enumerate_users(catalog_example(6), 3)
        with pytest.raises(errors.MuUndefinedForZ):
            enumerate_users(catalog_example(4), 0)
        with pytest.raises(errors.MuUndefinedForZ):
            enumerate_users(catalog_example(4), 4)


class TestPlacement:
    def test_cache_holds_its_block(self):
        res = catalog_example(3)
        assert placement(res)[0] == frozenset({1, 2, 3})
        res1 = catalog_example(1)
        assert placement(res1)[5] == frozenset({3, 4})

    def test_total_indices(self):
        for example in ADMISSIBLE:
            res = catalog_example(example)
            assert sum(len(a) for a in placement(res)) == res.design.b * res.design.k


class TestMemoryFraction:
    @pytest.mark.parametrize(
        "example,z,expected",
        [
            (3, 2, Fraction(5, 9)),
            (4, 3, Fraction(7, 8)),
            (9, 4, Fraction(15, 16)),
            (8, 3, Fraction(19, 27)),
            (8, 1, Fraction(1, 3)),
        ],
    )
    def test_values(self, example, z, expected):
        res = catalog_example(example)
        mu = crd_profile(res).mu
        assert user_memory_fraction(mu, z, res.design.k, res.design.v) == expected

    def test_requires_mu(self):
        with pytest.raises(errors.MuUndefinedForZ):
            user_memory_fraction({}, 2, 3, 6)

    def test_matches_direct_union_size(self):
        for _example, res, z in _catalog_points():
            mu = crd_profile(res).mu
            expected = user_memory_fraction(mu, z, res.design.k, res.design.v)
            for user in enumerate_users(res, z):
                assert Fraction(len(access_union(res, user)), res.design.v) == expected

    def test_overlap_makes_user_memory_less_than_z_caches(self):
        # blocks from distinct classes always intersect here, so the union
        # is strictly smaller than z disjoint caches would give
        for _example, res, z in _catalog_points():
            if z < 2:
                continue
            metrics = scheme_metrics(res, z)
            assert metrics.m_prime_over_n != z * metrics.m_over_n
            assert metrics.m_prime_over_n < z * metrics.m_over_n


class TestRate:
    def test_z_sweep_values(self):
        res = catalog_example(8)
        assert delivery_rate(27, 3, 3, 2, 3) == 3
        assert delivery_rate(27, 3, 3, 3, 1) == 1
        assert scheme_metrics(res, 2).rate == 3
        assert scheme_metrics(res, 3).rate == 1

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_affine_formula(self, n):
        metrics = scheme_metrics(affine_plane(n), 2)
        assert metrics.rate == Fraction(n * (n + 1) * (n - 1) ** 2, 8)
        z1 = scheme_metrics(affine_plane(n), 1)
        assert z1.rate == Fraction((n + 1) * (n - 1), 2)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_hadamard_formula(self, m):
        metrics = scheme_metrics(hadamard_crd(m), 2)
        assert metrics.rate == Fraction((2 * m - 1) * (4 * m - 1), 4)


class TestGain:
    def test_values(self):
        assert coding_gain(1) == 2
        assert coding_gain(2) == 4
        assert coding_gain(4) == 16
        with pytest.raises(errors.IndexOutOfRange):
            coding_gain(0)


class TestSubpacketizationIdentity:
    def test_round_trips(self):
        assert subpacketization_from_counts(9, 27, 3, 2) == 27
        assert subpacketization_from_counts(8, 16, 4, 4) == 16
        assert subpacketization_from_counts(3, 6, 2, 1) == 9

    def test_inconsistent_inputs(self):
        with pytest.raises(errors.NonIntegerResult):
            subpacketization_from_counts(9, 26, 3, 2)
        with pytest.raises(errors.NonIntegerResult):
            subpacketization_from_counts(9, 30, 3, 2)

    def test_user_counts_beyond_the_float_range(self):
        # K / C(r,z) = (10**200)**2 > 1e308 used to overflow a float root
        b_r = 10**200
        big_k = comb(6, 2) * b_r**2
        assert big_k > 1e308
        assert subpacketization_from_counts(5, big_k, 6, 2) == 5 * b_r
        assert subpacketization_from_counts(3, comb(7, 3) * (b_r + 1) ** 3, 7, 3) == 3 * (b_r + 1)
        with pytest.raises(errors.NonIntegerResult):
            subpacketization_from_counts(5, comb(6, 2) * (b_r**2 + 1), 6, 2)
        with pytest.raises(errors.NonIntegerResult):
            subpacketization_from_counts(3, comb(7, 3) * (b_r**3 - 1), 7, 3)

    @pytest.mark.parametrize("big_k, r, z", [(-9, 3, 2), (9, 3, 0), (9, 3, 4)])
    def test_out_of_range_arguments_are_typed_errors(self, big_k, r, z):
        with pytest.raises(errors.IndexOutOfRange):
            subpacketization_from_counts(3, big_k, r, z)

    @pytest.mark.parametrize("z", [1, 2, 3, 4, 5])
    def test_exact_roots_near_perfect_powers(self, z):
        # r = z makes C(r,z) = 1, so per-subset count and K coincide
        for base in list(range(40)) + [2**61 - 1, 10**30 + 7]:
            for big_k in (base**z - 1, base**z, base**z + 1):
                if big_k < 0:
                    continue
                roots = [x for x in (base - 1, base, base + 1) if x >= 0 and x**z == big_k]
                if roots:
                    assert subpacketization_from_counts(2, big_k, z, z) == 2 * roots[0]
                else:
                    with pytest.raises(errors.NonIntegerResult):
                        subpacketization_from_counts(2, big_k, z, z)

    def test_round_trips_all_points(self):
        for _example, res, z in _catalog_points():
            metrics = scheme_metrics(res, z)
            assert (
                subpacketization_from_counts(res.design.k, metrics.users, res.r, z)
                == res.design.v
            )


class TestRateRatio:
    def test_consecutive_quotients(self):
        for example in (8, 9):
            res = catalog_example(example)
            mu = crd_profile(res).mu
            v, k = res.design.v, res.design.k
            previous = scheme_metrics(res, 1).per_user_rate
            for z in sorted(mu):
                current = scheme_metrics(res, z).per_user_rate
                assert per_user_rate_ratio(v, k, z, mu.get(2)) == current / previous
                previous = current

    def test_preconditions(self):
        with pytest.raises(errors.MuUndefinedForZ):
            per_user_rate_ratio(9, 3, 2)
        with pytest.raises(errors.IndexOutOfRange):
            per_user_rate_ratio(9, 3, 1, 1)


class TestSchedule:
    def test_first_transmission_of_two_class_design(self):
        res = catalog_example(3)
        scheme = build_scheme(res, 2, 9)
        schedule = build_delivery_schedule(scheme, range(1, 10))
        assert len(schedule.transmissions) == 9
        first = schedule.transmissions[0]
        assert first.classes == (0, 1)
        assert first.pairs == ((0, 1), (3, 4))
        assert first.s == 1
        assert first.terms == ((0, 5), (1, 4), (3, 2), (4, 1))

    def test_single_cache_schedule(self):
        res = catalog_example(1)
        scheme = build_scheme(res, 1, 6)
        schedule = build_delivery_schedule(scheme, [1, 2, 3, 4, 5, 6])
        assert len(schedule.transmissions) == 6
        first = schedule.transmissions[0]
        assert first.classes == (0,)
        assert first.pairs == ((0, 5),)
        assert first.terms == ((0, 3), (1, 1))

    def test_counts_by_generation(self):
        for _example, res, z in _catalog_points():
            scheme = build_scheme(res, z, scheme_metrics(res, z).users)
            schedule = build_delivery_schedule(scheme, range(1, scheme.n_users + 1))
            assert len(schedule.transmissions) == (
                scheme.mu_z * comb(res.b_r, 2) ** z * comb(res.r, z)
            )
            assert (
                Fraction(len(schedule.transmissions), res.design.v)
                == scheme_metrics(res, z).rate
            )

    def test_terms_are_coded_for_exactly_the_others(self):
        # every term's subfile is outside its own user's reach and inside
        # every other participant's reach
        for _example, res, z in _catalog_points():
            scheme = build_scheme(res, z, scheme_metrics(res, z).users)
            schedule = build_delivery_schedule(scheme, range(1, scheme.n_users + 1))
            reach = {
                uid: accessible_indices(res, user) for uid, user in enumerate(scheme.users)
            }
            for t in schedule.transmissions:
                uids = [uid for uid, _ in t.terms]
                assert len(set(uids)) == coding_gain(z)
                for uid, y in t.terms:
                    assert y not in reach[uid]
                    for other in uids:
                        if other != uid:
                            assert y in reach[other]

    def test_per_user_appearance_count(self):
        for _example, res, z in _catalog_points():
            scheme = build_scheme(res, z, scheme_metrics(res, z).users)
            schedule = build_delivery_schedule(scheme, range(1, scheme.n_users + 1))
            appearances = {uid: 0 for uid in range(scheme.n_users)}
            for t in schedule.transmissions:
                for uid, _y in t.terms:
                    appearances[uid] += 1
            expected = scheme.mu_z * (res.b_r - 1) ** z
            assert set(appearances.values()) == {expected}
            fraction = scheme_metrics(res, z).m_prime_over_n
            assert expected + res.design.v * fraction == res.design.v

    def test_deterministic(self):
        res = catalog_example(9)
        one = schedule_to_json(
            build_delivery_schedule(build_scheme(res, 3, 32), range(1, 33))
        )
        two = schedule_to_json(
            build_delivery_schedule(build_scheme(res, 3, 32), range(1, 33))
        )
        assert json.dumps(one) == json.dumps(two)

    def test_demand_validation(self):
        scheme = build_scheme(catalog_example(3), 2, 9)
        with pytest.raises(errors.BadDemandLength):
            build_delivery_schedule(scheme, [1] * 8)
        with pytest.raises(errors.DemandOutOfRange):
            build_delivery_schedule(scheme, [1] * 8 + [10])
        with pytest.raises(errors.DemandOutOfRange):
            build_delivery_schedule(scheme, [0] + [1] * 8)

    def test_forged_mu_is_surfaced_loudly(self):
        from dataclasses import replace

        scheme = build_scheme(catalog_example(3), 2, 9)
        forged = replace(scheme, mu_z=2)
        with pytest.raises(errors.InternalMuMismatch):
            build_delivery_schedule(forged, range(1, 10))

    def test_json_shape(self):
        scheme = build_scheme(catalog_example(3), 2, 9)
        obj = schedule_to_json(build_delivery_schedule(scheme, range(1, 10)))
        assert obj["z"] == 2
        assert obj["demands"] == list(range(1, 10))
        first = obj["transmissions"][0]
        assert first["classes"] == [1, 2]
        assert first["pairs"] == [[1, 2], [4, 5]]
        assert first["terms"][0] == {"user": 1, "subfile": 5}
        json.dumps(obj)  # fully serializable
