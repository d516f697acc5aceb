"""The resolution label matrix, the label search against the frozenset scan,
and the grid designs [b_r]^r."""

import copy
import pickle
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crdcache import caps as caps_module
from crdcache import errors, from_spec, scheme_metrics, verify_all
from crdcache.caps import SizeCaps
from crdcache.constructions import _from_labels, _grid, catalog_example
from crdcache.designs import (
    Design,
    crd_profile,
    cross_intersection_number,
    resolution_from_json,
    validate_design,
    validate_resolution,
)
from oracles import block_set, scan_cross_intersection, subset_scan_cross_intersection
from test_golden_designs import SPECS


def _ladder():
    for spec in SPECS:
        try:
            yield spec, from_spec(spec)
        except errors.CrdCacheError:
            continue


LADDER = dict(_ladder())


@st.composite
def balanced_labels(draw):
    """Label matrices with r <= 6 classes of b_r <= 4 equal blocks on v <= 64
    points: rows are digits of a grid (so some orders are uniform) or random
    balanced rows, and the points are shuffled."""
    b_r = draw(st.integers(2, 4))
    digits = draw(st.integers(1, {2: 6, 3: 3, 4: 3}[b_r]))
    spare = draw(st.integers(1, 64 // b_r**digits))
    v = b_r**digits * spare
    r = draw(st.integers(2, 6))
    rows = []
    for _ in range(r):
        if draw(st.booleans()):
            d = draw(st.integers(0, digits - 1))
            rows.append(np.arange(v) // spare // b_r**d % b_r)
        else:
            rows.append(np.array(draw(st.permutations(np.repeat(np.arange(b_r), v // b_r).tolist()))))
    points = np.array(draw(st.permutations(range(v))))
    return np.array(rows)[:, points]


# Four independent binary digits of 16 points, then the third digit again: at
# i = 3 the first prefix's subsets (0, 1, c) are uniform, and the fifth
# subset (0, 2, 4), in the second block, is the first that is not.
THIRD_ORDER_FAILS_LATE = _grid(2, 4)[[0, 1, 2, 3, 2]]


class TestLabelSearch:
    @pytest.mark.parametrize("spec", list(LADDER))
    def test_equals_the_scan_on_built_in_designs(self, spec):
        res = LADDER[spec]
        for i in range(2, res.r + 1):
            assert cross_intersection_number(res, i) == scan_cross_intersection(res, i), (spec, i)

    @settings(max_examples=150, deadline=None)
    @given(balanced_labels())
    def test_equals_the_scan_on_random_labels(self, labels):
        res = _from_labels(labels)
        for i in range(2, res.r + 1):
            assert cross_intersection_number(res, i) == scan_cross_intersection(res, i)

    @settings(max_examples=100, deadline=None)
    @given(balanced_labels(), st.integers(0, 60), st.sampled_from([1, 300, 1000, caps_module.WORK_BYTES]))
    @example(labels=THIRD_ORDER_FAILS_LATE, cap=60, budget=1)
    @example(labels=THIRD_ORDER_FAILS_LATE, cap=60, budget=caps_module.WORK_BYTES)
    @example(labels=THIRD_ORDER_FAILS_LATE, cap=30, budget=caps_module.WORK_BYTES)
    def test_small_caps(self, labels, cap, budget):
        """The search's value or raise is the one-subset-at-a-time scan's
        exactly, and stands to the frozenset scan as follows: a value from
        the scan is the search's value; where the scan runs into the cap, the
        search raises too, or returns None because b_r^i does not divide v;
        where the scan finds a mismatch, the search returns None or raises at
        the subset that straddles the cap.  ``WORK_BYTES`` budgets of one
        subset, a few subsets and the default cut an order into blocks of
        one, a few, and the first prefix then doubling blocks, and give the
        same value or raise."""
        res = _from_labels(labels)
        caps = SizeCaps(max_intersections=cap)

        def search(i):
            try:
                return cross_intersection_number(res, i, caps)
            except errors.SizeCapExceeded as exc:
                assert str(exc) == f"mu_{i} search exceeded the cap of {cap} intersections"
                return "cap"

        for i in range(2, res.r + 1):
            try:
                old = scan_cross_intersection(res, i, caps)
            except errors.SizeCapExceeded:
                old = "cap"
            try:
                one_by_one = subset_scan_cross_intersection(res, i, caps)
            except errors.SizeCapExceeded:
                one_by_one = "cap"
            with mock.patch.object(caps_module, "WORK_BYTES", budget):
                new = search(i)
            assert new == search(i) == one_by_one, (i, cap)
            if old == "cap":
                assert new == "cap" or (new is None and res.design.v % res.b_r**i), (i, cap)
            elif old is None:
                assert new in (None, "cap"), (i, cap)
            else:
                assert new == old, (i, cap)

    def test_joint_label_chunks_stay_within_the_budget(self, monkeypatch):
        """At i = 3 on a binary array of strength 3 (1024 points; the 512
        classes are the parities of normals with the top bit set, so any three
        are independent), under a 64 KiB ``WORK_BYTES`` and a cap that admits
        only the first prefix: its 510 later classes are counted 8 at a time,
        where in one piece their joint labels are a (510, 1024) intp array of
        about 4 MiB.  The prefix is uniform, so the search raises at the next one."""
        normals = np.arange(512, 1024)
        res = _from_labels(np.bitwise_count(normals[:, None] & np.arange(1024)) % 2)
        caps = SizeCaps(max_intersections=8 * 510)
        monkeypatch.setattr(caps_module, "WORK_BYTES", 1 << 16)
        tracemalloc.start()
        try:
            with pytest.raises(errors.SizeCapExceeded):
                cross_intersection_number(res, 3, caps)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * caps_module.WORK_BYTES, peak / caps_module.WORK_BYTES

    def test_negative_cap_raises(self):
        res = catalog_example(6)
        caps = SizeCaps(max_intersections=-5)
        with pytest.raises(errors.SizeCapExceeded):
            cross_intersection_number(res, 2, caps)
        with pytest.raises(errors.SizeCapExceeded):
            crd_profile(res, caps)


class TestLabels:
    @pytest.mark.parametrize("spec", list(LADDER))
    def test_labels_are_block_membership(self, spec):
        res = LADDER[spec]
        labels = res.labels
        assert labels.shape == (res.r, res.design.v)
        for c, cls in enumerate(res.classes):
            for pos, j in enumerate(cls):
                assert (np.flatnonzero(labels[c] == pos) + 1).tolist() == sorted(block_set(res, j))

    @pytest.mark.parametrize("spec", list(LADDER))
    def test_dtype_is_the_smallest_unsigned_that_fits(self, spec):
        self._check_dtype(LADDER[spec])

    def test_wide_class_uses_uint16(self):
        res = validate_resolution(validate_design(300, [[x] for x in range(1, 301)]), [range(300)])
        assert res.labels.dtype == np.uint16
        self._check_dtype(res)

    @staticmethod
    def _check_dtype(res):
        dtype = res.labels.dtype
        assert dtype.kind == "u" and np.iinfo(dtype).max >= res.b_r - 1
        assert dtype.itemsize == 1 or np.iinfo(f"u{dtype.itemsize // 2}").max < res.b_r - 1

    @pytest.mark.parametrize(
        "round_trip",
        [lambda x: x, lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy, copy.copy],
        ids=["built", "pickle", "deepcopy", "copy"],
    )
    @pytest.mark.parametrize("spec", ["example:1", "example:9", "affine:n=4", "hadamard:m=3"])
    def test_read_only(self, spec, round_trip):
        built = LADDER[spec]
        res = round_trip(built)
        assert res == built and hash(res) == hash(built)
        assert res.design == built.design and hash(res.design) == hash(built.design)
        assert np.array_equal(res.labels, built.labels)
        assert res.design.blocks.dtype == np.min_scalar_type(res.design.v)
        assert res.design.blocks.shape == (res.design.b, res.design.k)
        with pytest.raises(ValueError):
            res.labels[0, 0] = 1
        with pytest.raises(ValueError):
            res.design.blocks[0, 0] = 1
        # the dtype is not part of equality or hash
        wide = Design(res.design.v, res.design.blocks.astype(np.int64), res.design.k)
        assert wide == built.design and hash(wide) == hash(built.design)

    def test_not_part_of_equality_hash_or_repr(self):
        res = catalog_example(9)
        assert "labels" not in repr(res)
        assert hash(res) == hash(catalog_example(9))

    @pytest.mark.parametrize(
        "spec",
        ["affine:n=5", "affine:n=8", "ag:q=3,m=3", "ag:q=2,m=5", "hadamard:m=4", "hadamard:m=7"]
        + [f"example:{i}" for i in (3, 4, 8, 9)],
    )
    def test_builders_are_their_labels(self, spec):
        res = LADDER[spec]
        assert _from_labels(res.labels) == res

    def test_huge_point_count_fails_before_the_fill(self):
        with pytest.raises(errors.ClassNotPartitionOfPoints, match="covers 1 of 1000000000000"):
            resolution_from_json({"v": 10**12, "blocks": [[1]], "classes": [[1]]})


class TestGrid:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 4), st.integers(2, 5))
    @example(4, 5)  # the largest grid, T up to 34560, is always run
    def test_profile_rate_and_memory(self, b_r, r):
        res = _from_labels(_grid(b_r, r))
        assert dict(crd_profile(res).mu) == {i: b_r ** (r - i) for i in range(2, r + 1)}
        for z in range(1, r + 1):
            metrics = scheme_metrics(res, z)
            assert metrics.m_prime_over_n == 1 - (1 - Fraction(1, b_r)) ** z
            report = verify_all(res, z, metrics.users, file_len=res.design.v, seed=z)
            assert report.all_recovered
            assert report.measured_rate == report.theoretical_rate == metrics.rate
