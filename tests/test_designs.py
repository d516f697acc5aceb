"""Design and resolution axioms, cross intersection numbers, counting formulas."""

import copy
import pickle
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crdcache import baselines, cli, designs, errors, scheme, simulator
from crdcache import caps as caps_module
from crdcache.baselines import analyze_table, z_sweep_table
from crdcache.caps import DEFAULT_CAPS, SizeCaps
from crdcache.constructions import _from_labels, _sylvester_labels, catalog_example, from_spec
from crdcache.designs import (
    Resolution,
    crd_profile,
    cross_intersection_number,
    design_to_json,
    resolution_from_json,
    users_per_cache_subfile,
    users_per_subfile,
    validate_design,
    validate_resolution,
)
from crdcache.scheme import build_delivery_schedule, build_scheme, scheme_metrics
from oracles import (
    brute_cross_intersection,
    count_users_on_cache,
    count_users_seeing_point,
    enumerate_users,
    scan_cross_intersection,
    set_validate_design,
    set_validate_resolution,
    subset_scan_cross_intersection,
)

EXAMPLE1_BLOCKS = [[1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4]]

# JSON-shaped documents: arbitrary JSON values, design-shaped objects with
# small integer rows, and catalog designs with one key replaced.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats() | st.text(max_size=3),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(["v", "blocks", "classes", "x"]), children, max_size=4),
    max_leaves=20,
)
INT_ROWS = st.lists(st.lists(st.integers(-1, 9), max_size=4), max_size=5)
CATALOG_DOCS = st.integers(1, 9).map(lambda number: design_to_json(catalog_example(number)))
DESIGN_DOCS = st.one_of(
    JSON_VALUES,
    st.fixed_dictionaries(
        {"v": st.integers(-1, 9) | JSON_VALUES, "blocks": INT_ROWS | JSON_VALUES, "classes": INT_ROWS | JSON_VALUES}
    ),
    CATALOG_DOCS,
    st.builds(
        lambda doc, key, value: {**doc, key: value},
        CATALOG_DOCS,
        st.sampled_from(["v", "blocks", "classes"]),
        st.integers(-1, 30) | INT_ROWS | JSON_VALUES,
    ),
)


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


@st.composite
def ragged_inputs(draw):
    """(v, raw rows, 0-based classes): either r classes that each tile 1..v
    in shuffled block order, or free rows of small points split into
    classes; then up to three edits that break or bend them."""
    if draw(st.booleans()):
        b_r, k, r = (draw(st.integers(1, 3)) for _ in range(3))
        v = b_r * k
        tiles = []
        for _ in range(r):
            perm = draw(st.permutations(range(1, v + 1)))
            tiles += [list(perm[i * k : (i + 1) * k]) for i in range(b_r)]
        order = draw(st.permutations(range(len(tiles))))
        rows = [tiles[j] for j in order]
        where = {j: pos for pos, j in enumerate(order)}
        classes = [[where[c * b_r + i] for i in range(b_r)] for c in range(r)]
    else:
        v = draw(st.integers(-1, 8))
        rows = draw(st.lists(st.lists(st.integers(-2, 10), max_size=5), max_size=6))
        perm = draw(st.permutations(range(len(rows))))
        cuts = sorted(draw(st.lists(st.integers(0, len(rows)), max_size=3)))
        classes = [list(perm[a:b]) for a, b in zip([0, *cuts], [*cuts, len(rows)])]
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(["repeat point", "set point", "repeat entry", "drop entry", "move entry", "bad entry"]))
        if edit in ("repeat point", "set point") and rows:
            row = rows[draw(st.integers(0, len(rows) - 1))]
            if edit == "repeat point" and row:
                row.insert(draw(st.integers(0, len(row))), draw(st.sampled_from(row)))
            elif row:
                row[draw(st.integers(0, len(row) - 1))] = draw(st.integers(-2, max(v, 0) + 2))
        elif edit != "set point" and classes:
            cls = classes[draw(st.integers(0, len(classes) - 1))]
            if edit == "repeat entry" and cls:
                cls.append(draw(st.sampled_from(cls)))
            elif edit == "drop entry" and cls:
                cls.pop(draw(st.integers(0, len(cls) - 1)))
            elif edit == "move entry" and cls:
                classes[draw(st.integers(0, len(classes) - 1))].append(cls.pop())
            elif edit == "bad entry":
                cls.append(draw(st.sampled_from([-1, len(rows), len(rows) + 3])))
    return v, rows, classes


def _outcome(validate, *args):
    try:
        return validate(*args)
    except errors.CrdCacheError as exc:
        return type(exc), str(exc)


class TestValidatorsAgainstSetOracle:
    @settings(max_examples=400, deadline=None)
    @given(ragged_inputs())
    @example((4, [[1, 1, 2], [3, 4, 4]], [[0, 1]]))  # uniform only after deduplication
    @example((3, [[1, 1, 2], [3, 3]], [[0, 1]]))  # repeated points, sizes 2 and 1
    @example((3, [[5, 0, -2, 1]], [[0]]))  # 0, negative and > v points in one row
    @example((3, [[1], []], [[0, 1]]))  # an empty row
    @example((3, [], []))  # no rows
    @example((0, [[1]], [[0]]))  # v < 1
    @example((2, [[1], [2]], [[0, 0], [1]]))  # a repeated class entry
    @example((2, [[1], [2]], [[0]]))  # a missing class entry
    @example((8, [[1, 2], [5, 6], [6, 7], [1, 8]], [[0, 1, 2, 3]]))  # first overlap is blocks 2, 3
    @example((8, [[1, 2], [3, 5], [4, 6], [3, 6]], [[0, 1, 2, 3]]))  # block 4 meets 2 and 3
    @example((4, [[1, 2], [3, 4], [1, 2]], [[0, 1], [2]]))  # an uncovered class
    def test_array_validators_match_the_set_oracle(self, case):
        v, rows, classes = case
        expected = _outcome(set_validate_design, v, rows)
        design = _outcome(validate_design, v, rows)
        if isinstance(expected, tuple) and isinstance(expected[0], type):
            assert design == expected
            return
        assert (design.v, design.k) == (expected[0], expected[2])
        assert design.blocks.tolist() == [sorted(block) for block in expected[1]]
        expected = _outcome(set_validate_resolution, expected, classes)
        res = _outcome(validate_resolution, design, classes)
        if isinstance(expected[0], type):
            assert res == expected
            return
        assert (res.classes, res.b_r) == expected[:2]
        assert res.labels.dtype == expected[2].dtype
        assert np.array_equal(res.labels, expected[2])


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


@st.composite
def pair_labels(draw):
    """b_r = 2 label matrices, up to 12 classes on v = 2^d * spare <= 64 points:
    rows are mostly the parity of a nonzero mask of each point's d digits
    (rows of distinct masks are uniform pairs, equal masks are not), maybe
    complemented, else random balanced rows; the points are shuffled."""
    d = draw(st.integers(1, 6))
    spare = draw(st.integers(1, 64 >> d))
    v = spare << d
    digits = np.arange(v) // spare
    rows = []
    for _ in range(draw(st.integers(2, 12))):
        if draw(st.integers(0, 3)):
            mask = draw(st.integers(1, (1 << d) - 1))
            rows.append(np.bitwise_count(digits & mask) % 2 ^ draw(st.integers(0, 1)))
        else:
            rows.append(np.array(draw(st.permutations([0, 1] * (v // 2)))))
    return np.array(rows)[:, np.array(draw(st.permutations(range(v))))]


class TestGramSearch:
    """mu_2 at b_r = 2 is read from tiles of the Gram product of the labels."""

    @settings(max_examples=200, deadline=None)
    @given(pair_labels(), st.integers(1, 5), st.integers(0, 60))
    def test_tiles_keep_the_subset_order_and_the_raise_points(self, labels, tile_rows, cap):
        """Tiles of 1-5 rows put the class pairs, and the cap boundary at
        cap // 4 pairs, inside and across tiles.  The answer or the raise is
        the one-subset-at-a-time oracle's exactly, and it stands to the
        frozenset scan as the bincount search does in test_small_caps."""
        res = _from_labels(labels)
        v = res.design.v
        caps = SizeCaps(max_intersections=cap)
        size = np.dtype(designs._gram_dtype(v)).itemsize
        spy = mock.patch.object(designs, "_first_split_pair", wraps=designs._first_split_pair)
        with mock.patch.object(caps_module, "WORK_BYTES", tile_rows * size * v), spy as gram:
            new = _outcome(cross_intersection_number, res, 2, caps)
            full = cross_intersection_number(res, 2)
        assert gram.called == (v % 4 == 0)
        assert full == scan_cross_intersection(res, 2)
        expected = _outcome(subset_scan_cross_intersection, res, 2, caps)
        if isinstance(expected, tuple):
            assert isinstance(new, tuple) and new[0] is errors.SizeCapExceeded
            assert new[1] == f"mu_2 search exceeded the cap of {cap} intersections"
        else:
            assert new == expected
        scanned = _outcome(scan_cross_intersection, res, 2, caps)
        if isinstance(scanned, tuple):
            assert isinstance(new, tuple) or (new is None and v % 4)
        elif scanned is None:
            assert new is None or isinstance(new, tuple)
        else:
            assert new == scanned

    def test_gram_dtype_holds_every_sum_exactly(self):
        """A sum is an integer <= v; float32 stops counting one past 2^24."""
        assert designs._gram_dtype(2**24 - 1) is np.float32
        assert designs._gram_dtype(2**24) is np.float64
        assert np.float32(2**24) + np.float32(1) == np.float32(2**24)
        assert np.float64(2**24) + np.float64(1) == 2**24 + 1

    def test_working_set_stays_within_the_tile_bytes(self, monkeypatch):
        """hadamard:m=255 (1019 classes on 1020 points) under 64 KiB tiles: the
        band, a column tile, their product and its masks are alive at once."""
        res = from_spec("hadamard:m=255")
        monkeypatch.setattr(caps_module, "WORK_BYTES", 1 << 16)
        tracemalloc.start()
        try:
            assert cross_intersection_number(res, 2) == 255
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * caps_module.WORK_BYTES, peak / caps_module.WORK_BYTES

    def test_default_tile_bytes_bound_the_working_set(self):
        """The constant as shipped, not patched: the first band of the
        4095 x 4096 Sylvester labels (the classes of ``hadamard:m=1024``)
        peaks within four times its 4 MiB default, so a default raised far
        past it (1 GiB peaks at about 151 MB here) fails this test."""
        default = 1 << 22
        labels = _sylvester_labels(4096)
        tracemalloc.start()
        try:
            assert designs._first_split_pair(labels, 1024, 1) == 1
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * default, peak / default


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
        for example, z in [(3, 2), (4, 2), (4, 3), (9, 2), (9, 3), (9, 4), (6, 2)]:
            res = catalog_example(example)
            users = enumerate_users(res, z)
            expected = users_per_subfile(res.r, z, res.b_r)
            for point in range(1, res.design.v + 1):
                assert count_users_seeing_point(res, users, point) == expected

    def test_fixed_cache_count_matches_enumeration(self):
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

    @settings(max_examples=500, deadline=None)
    @given(DESIGN_DOCS)
    def test_any_document_is_a_resolution_or_a_typed_error(self, obj):
        try:
            res = resolution_from_json(obj)
        except errors.CrdCacheError:
            return
        assert isinstance(res, Resolution)


class TestProfileMemo:
    @pytest.mark.parametrize("example, orders", [(6, {2, 3}), (9, {2, 3, 4})])
    def test_each_order_is_searched_once(self, monkeypatch, example, orders):
        real = designs.cross_intersection_number
        calls = Counter()

        def counting(res, i, caps=DEFAULT_CAPS):
            calls[i, caps] += 1
            return real(res, i, caps)

        # patch every module that could hold its own reference to the search
        for module in (designs, scheme, baselines, cli, simulator):
            if hasattr(module, "cross_intersection_number"):
                monkeypatch.setattr(module, "cross_intersection_number", counting)
        res = catalog_example(example)
        z_values = [1] + sorted(crd_profile(res).mu)
        build_scheme(res, z_values[-1], 10**4)
        enumerate_users(res, z_values[-1])
        for z in z_values:
            scheme_metrics(res, z)
            analyze_table(res, z)
        z_sweep_table(res, f"example:{example}")
        assert {i for i, _ in calls} == orders
        assert all(n == 1 for n in calls.values()), calls

    def test_smaller_caps_still_raise(self):
        res = catalog_example(6)
        assert crd_profile(res).mu[2] == 1
        small = SizeCaps(max_intersections=3)
        with pytest.raises(errors.SizeCapExceeded):
            crd_profile(res, small)
        with pytest.raises(errors.SizeCapExceeded):
            scheme_metrics(res, 2, small)
        assert crd_profile(res) is crd_profile(res, SizeCaps())

    def test_mu_is_read_only(self):
        profile = crd_profile(catalog_example(9))
        with pytest.raises(TypeError):
            profile.mu[2] = 0
        assert dict(crd_profile(catalog_example(9)).mu) == {2: 4, 3: 2, 4: 1}

    def test_memo_is_not_part_of_equality_or_repr(self):
        res = catalog_example(9)
        crd_profile(res)
        assert res == catalog_example(9)
        assert hash(res) == hash(catalog_example(9))
        assert "_profiles" not in repr(res)

    def test_pickle_and_copy_drop_the_memo(self):
        res = catalog_example(9)
        profile = crd_profile(res)
        for other in (pickle.loads(pickle.dumps(res)), copy.deepcopy(res), copy.copy(res)):
            assert other == res
            assert crd_profile(other) is not profile
            assert crd_profile(other) == profile
        assert crd_profile(res) is profile

    @pytest.mark.parametrize(
        "round_trip", [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy], ids=["pickle", "deepcopy"]
    )
    def test_profile_scheme_and_schedule_round_trip(self, round_trip):
        res = catalog_example(3)
        profile = crd_profile(res)
        instance = build_scheme(res, 2, 9)
        schedule = build_delivery_schedule(instance)
        assert schedule.participation  # cached views stay behind and are rebuilt
        for obj in (profile, instance, schedule):
            assert round_trip(obj) == obj
        copied_schedule = round_trip(schedule)
        assert "participation" not in copied_schedule.__dict__
        assert not copied_schedule.users.flags.writeable
        assert copied_schedule.participation[0].tolist() == schedule.participation[0].tolist()
        copied = round_trip(profile)
        assert dict(copied.mu) == {2: 1}
        with pytest.raises(TypeError):
            copied.mu[2] = 0
