"""User enumeration, placement, metrics and the delivery schedule."""

import copy
import json
import pickle
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crdcache import caps as caps_module
from crdcache import errors
from crdcache.constructions import _from_labels, _grid, affine_plane, catalog_example, from_spec, hadamard_crd
from crdcache.designs import crd_profile
from crdcache.scheme import (
    build_delivery_schedule,
    build_scheme,
    coding_gain,
    delivery_rate,
    scheme_metrics,
    schedule_to_json,
    user_memory_fraction,
)
from oracles import (
    NonIntegerResult,
    access_union,
    block_set,
    enumerate_users,
    loop_delivery_schedule,
    per_user_rate_ratio,
    subpacketization_from_counts,
)

# catalog design id -> admissible z values above 1
ADMISSIBLE = {1: [2], 3: [2], 4: [2, 3], 5: [2], 6: [2], 7: [2], 8: [2, 3], 9: [2, 3, 4]}


SCHEDULE_SPECS = (
    [f"example:{i}" for i in range(1, 10)]
    + [f"affine:n={n}" for n in range(2, 6)]
    + [f"hadamard:m={m}" for m in range(1, 5)]
    + ["ag:q=2,m=4", "ag:q=3,m=3"]
)


def _outcome(build, scheme, demands):
    """The schedule ``build`` returns, or its InternalMuMismatch message."""
    try:
        return build(scheme, demands)
    except errors.InternalMuMismatch as exc:
        return str(exc)


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

    @pytest.mark.parametrize(
        "example, z, message",
        [
            (2, 2, "mu_2 does not exist; z=2 is not admissible"),
            (2, 3, "z must be in 1..2, got 3"),
            (4, 4, "z must be in 1..3, got 4"),
            (4, 0, "z must be in 1..3, got 0"),
            (6, 3, "mu_3 does not exist; z=3 is not admissible"),
            (6, 4, "mu_3 does not exist; z=4 is not admissible"),
            (9, 5, "z must be in 1..4, got 5"),
        ],
    )
    def test_inadmissible_z_messages(self, example, z, message):
        res = catalog_example(example)
        for call in (enumerate_users, scheme_metrics):
            with pytest.raises(errors.MuUndefinedForZ) as info:
                call(res, z)
            assert str(info.value) == message
        with pytest.raises(errors.MuUndefinedForZ) as info:
            build_scheme(res, z, 100)
        assert str(info.value) == message

    @pytest.mark.parametrize("example", sorted(ADMISSIBLE))
    def test_users_are_a_read_only_matrix_in_enumeration_order(self, example):
        res = catalog_example(example)
        for z in [1] + ADMISSIBLE[example]:
            users = build_scheme(res, z, 1).users
            assert users.dtype == np.int32 and users.shape == (comb(res.r, z) * res.b_r**z, z)
            assert not users.flags.writeable
            assert [tuple(row) for row in users.tolist()] == list(enumerate_users(res, z))
            with pytest.raises(ValueError):
                users[0, 0] = 1

    @pytest.mark.parametrize(
        "round_trip",
        [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy, copy.copy],
        ids=["pickle", "deepcopy", "copy"],
    )
    def test_scheme_round_trips_read_only(self, round_trip):
        scheme = build_scheme(catalog_example(9), 3, 32)
        clone = round_trip(scheme)
        assert clone == scheme and hash(clone) == hash(scheme)
        assert np.array_equal(clone.users, scheme.users) and clone.users.dtype == np.int32
        assert not clone.users.flags.writeable
        assert build_delivery_schedule(clone) == build_delivery_schedule(scheme)

    def test_scheme_equality_goes_by_its_numbers(self):
        res = catalog_example(4)
        scheme = build_scheme(res, 2, 12)
        assert scheme == build_scheme(catalog_example(4), 2, 12)
        assert hash(scheme) == hash(build_scheme(catalog_example(4), 2, 12))
        assert len({scheme, build_scheme(res, 2, 12)}) == 1
        assert scheme != build_scheme(res, 2, 13)
        assert scheme != build_scheme(res, 3, 12)
        forged = replace(scheme, mu_z=scheme.mu_z + 1)
        assert forged != scheme and forged.users is scheme.users
        assert "users" not in repr(scheme)

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
        assert block_set(res, 0) == frozenset({1, 2, 3})
        res1 = catalog_example(1)
        assert block_set(res1, 5) == frozenset({3, 4})

    def test_total_indices(self):
        for example in ADMISSIBLE:
            res = catalog_example(example)
            assert sum(len(block_set(res, j)) for j in range(res.design.b)) == res.design.b * res.design.k


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
        with pytest.raises(NonIntegerResult):
            subpacketization_from_counts(9, 26, 3, 2)
        with pytest.raises(NonIntegerResult):
            subpacketization_from_counts(9, 30, 3, 2)

    def test_user_counts_beyond_the_float_range(self):
        # K / C(r,z) = (10**200)**2 > 1e308 used to overflow a float root
        b_r = 10**200
        big_k = comb(6, 2) * b_r**2
        assert big_k > 1e308
        assert subpacketization_from_counts(5, big_k, 6, 2) == 5 * b_r
        assert subpacketization_from_counts(3, comb(7, 3) * (b_r + 1) ** 3, 7, 3) == 3 * (b_r + 1)
        with pytest.raises(NonIntegerResult):
            subpacketization_from_counts(5, comb(6, 2) * (b_r**2 + 1), 6, 2)
        with pytest.raises(NonIntegerResult):
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
                    with pytest.raises(NonIntegerResult):
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
                uid: access_union(res, user) for uid, user in enumerate(scheme.users)
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

    def test_demand_range_messages_name_the_first_offender(self):
        scheme = build_scheme(catalog_example(3), 2, 9)
        for demands, message in [
            ([1] * 5 + [10, 0, 1, 1], "user 6 demands file 10 outside 1..9"),
            ([2, 0] + [10] * 7, "user 2 demands file 0 outside 1..9"),
            ([1] * 8 + [10**30], f"user 9 demands file {10**30} outside 1..9"),
            ([-(2**70)] + [1] * 8, f"user 1 demands file {-(2**70)} outside 1..9"),
        ]:
            with pytest.raises(errors.DemandOutOfRange) as exc:
                build_delivery_schedule(scheme, demands)
            assert str(exc.value) == message
        # every entry goes through int(), so numpy and bool entries are accepted
        schedule = build_delivery_schedule(scheme, np.arange(1, 10, dtype=np.int64))
        assert schedule.demands == tuple(range(1, 10))
        assert all(type(d) is int for d in schedule.demands)
        assert build_delivery_schedule(scheme, [True] * 9).demands == (1,) * 9

    def test_default_demands_are_distinct(self):
        scheme = build_scheme(catalog_example(3), 2, 9)
        assert build_delivery_schedule(scheme).demands == tuple(range(1, 10))
        assert build_delivery_schedule(scheme) == build_delivery_schedule(scheme, range(1, 10))
        few_files = build_scheme(catalog_example(3), 2, 8)
        with pytest.raises(errors.DemandOutOfRange, match="distinct demands need N >= K, got N=8, K=9"):
            build_delivery_schedule(few_files)
        assert build_delivery_schedule(few_files, [1] * 9).demands == (1,) * 9

    def test_forged_mu_is_surfaced_loudly(self):
        from dataclasses import replace

        scheme = build_scheme(catalog_example(3), 2, 9)
        forged = replace(scheme, mu_z=2)
        with pytest.raises(errors.InternalMuMismatch) as exc:
            build_delivery_schedule(forged, range(1, 10))
        # the first pair choice's first participant, in product order
        assert str(exc.value) == (
            "intersection size 1 != mu_z=2 at classes (0, 1), pairs ((0, 1), (0, 1))"
        )

    @pytest.mark.parametrize("budget", [1, caps_module.WORK_BYTES])
    def test_first_offender_in_a_later_subset_keeps_its_message(self, monkeypatch, budget):
        """Classes 0 and 2 below are one partition: the subset (0, 1) is sound
        and (0, 2), the second of three, holds the first offender.  With one
        subset per block it sits in the second block, otherwise inside the first."""
        grid = _grid(2, 3)
        twin = _from_labels(np.vstack([grid[:2], grid[:1]]))
        scheme = replace(build_scheme(_from_labels(grid), 2, 12), res=twin)
        monkeypatch.setattr(caps_module, "WORK_BYTES", budget)
        expected = "intersection size 4 != mu_z=2 at classes (0, 2), pairs ((0, 1), (0, 1))"
        assert _outcome(loop_delivery_schedule, scheme, (1,) * 12) == expected
        with pytest.raises(errors.InternalMuMismatch) as exc:
            build_delivery_schedule(scheme, [1] * 12)
        assert str(exc.value) == expected

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_columns_match_the_per_subset_loop(self, data):
        """Both columns equal the one-subset-at-a-time loop's, and the
        classes, pairs and s that ``transmissions`` derives equal the ones the
        loop builds, on grids (b_r = 1 sends nothing) and catalogue designs at
        every admissible z, with one class subset per block or the default
        blocks; a forged mu_z raises the loop's message."""
        if data.draw(st.booleans(), label="grid"):
            res = _from_labels(_grid(data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))))
        else:
            res = from_spec(data.draw(st.sampled_from(SCHEDULE_SPECS)))
        z = data.draw(st.sampled_from([1] + sorted(crd_profile(res).mu)), label="z")
        scheme = build_scheme(res, z, 1)
        forged = data.draw(st.one_of(st.just(0), st.integers(-scheme.mu_z, 2)), label="forged")
        scheme = replace(scheme, mu_z=scheme.mu_z + forged)
        demands = (1,) * scheme.n_users
        budget = data.draw(st.sampled_from([1, 4096, caps_module.WORK_BYTES]), label="budget")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(caps_module, "WORK_BYTES", budget)
            got = _outcome(build_delivery_schedule, scheme, demands)
        expected = _outcome(loop_delivery_schedule, scheme, demands)
        if isinstance(expected, str):
            assert got == expected
            return
        expected, (classes, pairs, s) = expected
        assert got == expected
        for name in ("users", "subfiles"):
            column = getattr(got, name)
            assert column.dtype == np.int32 and column.shape == getattr(expected, name).shape
        built = zip(map(tuple, classes.tolist()), pairs.tolist(), s.tolist())
        assert [(t.classes, t.pairs, t.s) for t in got.transmissions] == [
            (c, tuple(map(tuple, p)), s_) for c, p, s_ in built
        ]

    @pytest.mark.parametrize("budget", [1 << 17, 1 << 18])
    def test_subset_blocks_stay_within_the_budget(self, monkeypatch, budget):
        """hadamard:m=15 at z = 2 (1711 class subsets): building the schedule
        peaks at its two columns plus at most twice the budget, where one
        block of every subset would hold 1.5 MB of working arrays."""
        scheme = build_scheme(hadamard_crd(15), 2, 1)
        demands = [1] * scheme.n_users
        monkeypatch.setattr(caps_module, "WORK_BYTES", budget)
        tracemalloc.start()
        try:
            schedule = build_delivery_schedule(scheme, demands)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        columns = schedule.users.nbytes + schedule.subfiles.nbytes
        assert peak <= columns + 2 * budget, (peak - columns) / budget

    def test_default_budget_bounds_the_term_keys(self):
        """affine:n=13 at z = 2 (2.2M terms) at the budget as shipped: keying
        every term peaks at the keys plus at most twice the 4 MiB default,
        where in one piece numpy's intp copy of the users alone is 17.7 MB."""
        default = 1 << 22
        scheme = build_scheme(affine_plane(13), 2, 1)
        schedule = build_delivery_schedule(scheme, [1] * scheme.n_users)
        tracemalloc.start()
        try:
            keys = schedule.term_keys()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= keys.nbytes + 2 * default, (peak - keys.nbytes) / default

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_term_keys_are_the_flat_subfile_keys(self, data):
        """Each term's key is (demanded file - 1) * v + point - 1, for all terms
        (int32, shaped like ``users``) or for given flat positions, with
        distinct and repeated demands and row chunks of one row, a few rows or
        the default; past 2^31 subfiles the keys are int64."""
        res = from_spec(data.draw(st.sampled_from(SCHEDULE_SPECS)))
        z = data.draw(st.sampled_from([1] + sorted(crd_profile(res).mu)), label="z")
        n_users = scheme_metrics(res, z).users
        n_files = data.draw(st.integers(1, n_users + 2), label="files")
        if n_files >= n_users and data.draw(st.booleans(), label="distinct"):
            demands = None
        else:
            demands = data.draw(st.lists(st.integers(1, n_files), min_size=n_users, max_size=n_users))
        scheme = build_scheme(res, z, n_files)
        schedule = build_delivery_schedule(scheme, demands)
        budget = data.draw(st.sampled_from([1, 64, caps_module.WORK_BYTES]), label="budget")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(caps_module, "WORK_BYTES", budget)
            keys = schedule.term_keys()
        v = res.design.v
        expected = np.array(schedule.demands)[schedule.users] - 1
        expected = expected * v + schedule.subfiles - 1
        assert keys.shape == schedule.users.shape and keys.dtype == np.int32
        assert np.array_equal(keys, expected)
        position = st.integers(0, schedule.users.size - 1)
        positions = data.draw(st.lists(st.tuples(position, position), min_size=1, max_size=10))
        positions = np.array(positions, dtype=np.int32).T  # (2, n), as a decoder asks
        picked = schedule.term_keys(positions)
        assert picked.dtype == np.int32 and np.array_equal(picked, expected.ravel()[positions])
        assert np.array_equal(pickle.loads(pickle.dumps(schedule)).term_keys(), keys)
        wide = build_delivery_schedule(replace(scheme, n_files=2**31 // v + 1), schedule.demands)
        assert wide.term_keys().dtype == wide.term_keys(positions).dtype == np.int64
        assert np.array_equal(wide.term_keys(), keys)

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
