"""Design and resolution axioms, cross intersection numbers, counting formulas."""

import pytest

from crdcache import errors
from crdcache.caps import SizeCaps
from crdcache.constructions import catalog_example
from crdcache.designs import (
    crd_profile,
    cross_intersection_number,
    design_to_json,
    resolution_from_json,
    users_per_cache_subfile,
    users_per_subfile,
    validate_design,
    validate_resolution,
)
from oracles import (
    brute_cross_intersection,
    count_users_on_cache,
    count_users_seeing_point,
)

EXAMPLE1_BLOCKS = [[1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4]]


class TestValidateDesign:
    def test_pair_design(self):
        d = validate_design(4, EXAMPLE1_BLOCKS)
        assert (d.v, d.b, d.k) == (4, 6, 2)

    def test_singleton(self):
        d = validate_design(1, [[1]])
        assert (d.v, d.b, d.k) == (1, 1, 1)

    def test_mixed_sizes(self):
        with pytest.raises(errors.NonUniformBlockSize):
            validate_design(4, [[1, 2], [3]])

    def test_point_out_of_range(self):
        with pytest.raises(errors.PointOutOfRange):
            validate_design(3, [[1, 4]])
        with pytest.raises(errors.PointOutOfRange):
            validate_design(3, [[0, 1]])

    def test_empty_block(self):
        with pytest.raises(errors.EmptyBlock):
            validate_design(3, [[1, 2], []])
        with pytest.raises(errors.EmptyBlock):
            validate_design(3, [])

    def test_bad_point_count(self):
        with pytest.raises(errors.PointOutOfRange):
            validate_design(0, [[1]])


class TestValidateResolution:
    def test_pair_design_resolution(self):
        d = validate_design(4, EXAMPLE1_BLOCKS)
        res = validate_resolution(d, [[0, 5], [1, 4], [2, 3]])
        assert (res.r, res.b_r) == (3, 2)

    def test_two_class_resolution(self):
        res = catalog_example(2)
        assert (res.r, res.b_r) == (2, 2)

    def test_overlapping_blocks_in_class(self):
        d = validate_design(4, EXAMPLE1_BLOCKS)
        with pytest.raises(errors.ClassNotPartitionOfPoints):
            validate_resolution(d, [[0, 1], [2, 3], [4, 5]])

    def test_class_missing_points(self):
        d = validate_design(4, [[1, 2], [3, 4], [1, 3], [2, 4], [1, 2], [3, 4]])
        # class [0, 0] reuses a block; caught as a non-partition of blocks
        with pytest.raises(errors.NotAPartitionOfBlocks):
            validate_resolution(d, [[0, 0], [1, 2], [3, 4], [5]])

    def test_blocks_not_partitioned(self):
        d = validate_design(4, EXAMPLE1_BLOCKS)
        with pytest.raises(errors.NotAPartitionOfBlocks):
            validate_resolution(d, [[0, 5], [1, 4]])


class TestCrossIntersection:
    def test_three_class_values(self):
        res = catalog_example(4)
        assert cross_intersection_number(res, 2) == 2
        assert cross_intersection_number(res, 3) == 1

    def test_absent_for_plane_triples(self):
        res = catalog_example(6)
        assert cross_intersection_number(res, 2) == 1
        assert cross_intersection_number(res, 3) is None
        assert cross_intersection_number(res, 4) is None

    def test_absent_when_intersections_vary(self):
        res = catalog_example(2)
        assert cross_intersection_number(res, 2) is None

    def test_order_bounds(self):
        res = catalog_example(4)
        with pytest.raises(errors.IndexOutOfRange):
            cross_intersection_number(res, 1)
        with pytest.raises(errors.IndexOutOfRange):
            cross_intersection_number(res, 4)

    def test_step_cap(self):
        res = catalog_example(6)
        with pytest.raises(errors.SizeCapExceeded):
            cross_intersection_number(res, 2, SizeCaps(max_intersections=3))


class TestProfile:
    @pytest.mark.parametrize(
        "example,mu,crn",
        [
            (1, {2: 1}, 2),
            (2, {}, None),
            (3, {2: 1}, 2),
            (4, {2: 2, 3: 1}, 3),
            (5, {2: 3}, 2),
            (6, {2: 1}, 2),
            (7, {2: 2}, 2),
            (8, {2: 3, 3: 1}, 3),
            (9, {2: 4, 3: 2, 4: 1}, 4),
        ],
    )
    def test_catalog_profiles(self, example, mu, crn):
        profile = crd_profile(catalog_example(example))
        assert dict(profile.mu) == mu
        assert profile.crn == crn
        assert profile.is_crd == bool(mu)

    @pytest.mark.parametrize("example", range(1, 10))
    def test_matches_brute_force(self, example):
        res = catalog_example(example)
        profile = crd_profile(res)
        for i in range(2, res.r + 1):
            assert cross_intersection_number(res, i) == brute_cross_intersection(res, i)
            assert profile.mu.get(i) == brute_cross_intersection(res, i)

    @pytest.mark.parametrize("example", range(1, 10))
    def test_recursion_between_consecutive_orders(self, example):
        res = catalog_example(example)
        profile = crd_profile(res)
        ratio = res.design.v // res.design.k
        for i in sorted(profile.mu):
            if i - 1 in profile.mu:
                assert profile.mu[i - 1] == profile.mu[i] * ratio


class TestCountingFormulas:
    def test_fixed_point_count_small(self):
        # two classes of three triples: 1*(9-4) users see any given point
        assert users_per_subfile(2, 2, 3) == 5

    def test_fixed_point_count_matches_enumeration(self):
        from crdcache.scheme import enumerate_users

        for example, z in [(3, 2), (4, 2), (4, 3), (9, 2), (9, 3), (9, 4), (6, 2)]:
            res = catalog_example(example)
            users = enumerate_users(res, z)
            expected = users_per_subfile(res.r, z, res.b_r)
            for point in range(1, res.design.v + 1):
                assert count_users_seeing_point(res, users, point) == expected

    def test_fixed_cache_count_matches_enumeration(self):
        from crdcache.scheme import enumerate_users

        for example, z in [(3, 2), (4, 3), (9, 2), (9, 4)]:
            res = catalog_example(example)
            users = enumerate_users(res, z)
            expected = users_per_cache_subfile(res.r, z, res.b_r)
            for cache in range(res.design.b):
                assert count_users_on_cache(users, cache) == expected

    def test_closed_form_values(self):
        assert users_per_subfile(4, 2, 2) == 18
        assert users_per_subfile(2, 2, 1) == 1
        assert users_per_cache_subfile(4, 2, 2) == 6
        assert users_per_cache_subfile(3, 1, 5) == 1
        assert users_per_cache_subfile(3, 3, 2) == 4


class TestJson:
    @pytest.mark.parametrize("example", range(1, 10))
    def test_round_trip(self, example):
        res = catalog_example(example)
        back = resolution_from_json(design_to_json(res))
        assert back.design == res.design
        assert back.classes == res.classes

    def test_bad_block_reference(self):
        obj = design_to_json(catalog_example(3))
        obj["classes"][0][0] = 99
        with pytest.raises(errors.NotAPartitionOfBlocks):
            resolution_from_json(obj)

    @pytest.mark.parametrize(
        "obj, message",
        [
            ({"v": 4, "blocks": [[1, 2], [3, 4]]}, "missing the key 'classes'"),
            ({"blocks": [[1, 2], [3, 4]], "classes": [[1, 2]]}, "missing the key 'v'"),
            ([[1, 2], [3, 4]], "must be an object"),
            ({"v": "4", "blocks": [[1, 2], [3, 4]], "classes": [[1, 2]]}, "'v' must be an integer"),
            ({"v": 4, "blocks": [[1, 2], [3, 4]], "classes": 5}, "'classes' must be a list of lists"),
            ({"v": 4, "blocks": [[1, None], [3, 4]], "classes": [[1, 2]]}, "'blocks' entry 1"),
        ],
    )
    def test_malformed_document_is_a_typed_error(self, obj, message):
        with pytest.raises(errors.MalformedDesignJson, match=message):
            resolution_from_json(obj)
