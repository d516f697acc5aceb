"""Family constructions: predicted parameters, profiles and the catalog."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crdcache import caps as caps_module
from crdcache import errors
from crdcache.caps import SizeCaps
from crdcache.constructions import (
    _from_labels,
    _sylvester_labels,
    affine_geometry_bibd,
    affine_geometry_params,
    affine_plane,
    affine_plane_params,
    catalog_example,
    from_spec,
    hadamard_crd,
    hadamard_params,
)
from crdcache.designs import crd_profile
from crdcache.gf import GF
from oracles import block_set, brute_cross_intersection


# Spec-shaped text: names, separators, keys and values mixed with garbage.
# Values stay small, so the property is about the grammar and not about
# how long a well-formed large design takes to build.
SPEC_ITEMS = st.builds(
    "".join,
    st.tuples(
        st.sampled_from(["n", "q", "m", "id", "k", "", " n", "N"]),
        st.sampled_from(["=", "", "=="]),
        st.sampled_from(["", "x", "1.5", "-1", "0", "1", "2", "3", "4", " 2", "+3", "\u0663"]),
    ),
)
SPECS = st.one_of(
    st.text(),
    st.builds(
        lambda name, sep, items: name + sep + ",".join(items),
        st.sampled_from(["affine", "ag", "hadamard", "example", "Example", "mystery", ""]),
        st.sampled_from([":", "", "::"]),
        st.lists(SPEC_ITEMS, max_size=4),
    ),
)


def _shape(res):
    return (res.design.v, res.design.b, res.r, res.design.k)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 8, 9])
def test_affine_plane_parameters(n):
    res = affine_plane(n)
    params = affine_plane_params(n)
    assert _shape(res) == (params.v, params.b, params.r, params.k)
    assert res.b_r == params.b_r == n
    profile = crd_profile(res)
    assert dict(profile.mu) == {2: 1}
    assert profile.crn == 2


@pytest.mark.parametrize("q,m", [(2, 3), (3, 3), (2, 4), (3, 2)])
def test_affine_geometry_parameters(q, m):
    res = affine_geometry_bibd(q, m)
    params = affine_geometry_params(q, m)
    assert _shape(res) == (params.v, params.b, params.r, params.k)
    assert crd_profile(res).mu[2] == params.mu2 == q ** (m - 2)


def test_order_three_plane_has_catalog_class_structure():
    # same point-set partition into four line directions as catalog design 6
    plane = affine_plane(3)
    catalog = catalog_example(6)

    def class_sets(res):
        return {
            frozenset(block_set(res, j) for j in cls) for cls in res.classes
        }

    assert class_sets(plane) == class_sets(catalog)


def test_plane_is_dimension_two_geometry():
    assert affine_plane(3) == affine_geometry_bibd(3, 2)
    p_plane = affine_plane_params(3)
    p_geom = affine_geometry_params(3, 2)
    assert (p_plane.v, p_plane.b, p_plane.r, p_plane.k, p_plane.mu2) == (
        p_geom.v,
        p_geom.b,
        p_geom.r,
        p_geom.k,
        p_geom.mu2,
    )


@pytest.mark.parametrize("m", [1, 2, 3, 6, 7])
def test_hadamard_parameters(m):
    # m in {1, 2} exercises the power-of-two path, m in {3, 6} the
    # quadratic-residue path over a prime, m=7 over a prime power (27)
    res = hadamard_crd(m)
    params = hadamard_params(m)
    assert _shape(res) == (params.v, params.b, params.r, params.k)
    assert crd_profile(res).mu[2] == params.mu2 == m


def test_hadamard_blocks_are_complementary():
    res = hadamard_crd(3)
    points = frozenset(range(1, res.design.v + 1))
    for cls in res.classes:
        assert block_set(res, cls[0]) | block_set(res, cls[1]) == points


def test_matching_small_parameters_across_families():
    plane = affine_plane_params(2)
    had = hadamard_params(1)
    assert (plane.v, plane.b, plane.r, plane.k) == (had.v, had.b, had.r, had.k)
    geom = affine_geometry_params(2, 3)
    had2 = hadamard_params(2)
    assert (geom.v, geom.b, geom.r, geom.k, geom.mu2) == (
        had2.v,
        had2.b,
        had2.r,
        had2.k,
        had2.mu2,
    )


@pytest.mark.parametrize(
    "builder",
    [
        lambda: affine_plane(2),
        lambda: affine_plane(3),
        lambda: affine_plane(4),
        lambda: affine_plane(5),
        lambda: affine_geometry_bibd(2, 3),
        lambda: affine_geometry_bibd(3, 3),
        lambda: affine_geometry_bibd(2, 4),
        lambda: hadamard_crd(1),
        lambda: hadamard_crd(2),
        lambda: hadamard_crd(3),
    ],
)
def test_profiles_match_brute_force(builder):
    res = builder()
    profile = crd_profile(res)
    assert profile.mu[2] == brute_cross_intersection(res, 2)
    if res.r >= 3:
        assert brute_cross_intersection(res, 3) is None
        assert 3 not in profile.mu


class TestCatalog:
    def test_all_examples_build(self):
        shapes = {n: _shape(catalog_example(n)) for n in range(1, 10)}
        assert shapes == {
            1: (4, 6, 3, 2),
            2: (6, 4, 2, 3),
            3: (9, 6, 2, 3),
            4: (8, 6, 3, 4),
            5: (12, 4, 2, 6),
            6: (9, 12, 4, 3),
            7: (8, 8, 4, 4),
            8: (27, 9, 3, 9),
            9: (16, 8, 4, 8),
        }

    def test_block_order_preserved(self):
        res = catalog_example(3)
        assert [sorted(block_set(res, j)) for j in range(res.design.b)] == [
            [1, 2, 3], [4, 5, 6], [7, 8, 9], [1, 4, 7], [2, 5, 8], [3, 6, 9],
        ]
        res7 = catalog_example(7)
        assert sorted(block_set(res7, 3)) == [1, 3, 5, 7]
        # the third class lists block 5 before block 4, as printed
        assert res7.classes == ((0, 1), (2, 5), (4, 3), (6, 7))

    def test_example_two_is_not_cross_resolvable(self):
        assert not crd_profile(catalog_example(2)).is_crd

    def test_synthesized_example(self):
        res = catalog_example(8)
        profile = crd_profile(res)
        assert dict(profile.mu) == {2: 3, 3: 1}

    @pytest.mark.parametrize("bad", [0, 10, -3])
    def test_unknown(self, bad):
        with pytest.raises(errors.UnknownExample):
            catalog_example(bad)


class TestErrors:
    def test_affine_needs_prime_power(self):
        with pytest.raises(errors.NotAPrimePower):
            affine_plane(6)

    def test_geometry_needs_dimension(self):
        with pytest.raises(errors.NoConstructionAvailable):
            affine_geometry_bibd(3, 1)

    def test_hadamard_gap(self):
        # order 92: not a power of two and 91 = 7*13 is not a prime power
        with pytest.raises(errors.NoConstructionAvailable):
            hadamard_crd(23)

    def test_point_cap(self):
        with pytest.raises(errors.SizeCapExceeded, match="27 points exceed the cap of 26"):
            affine_geometry_bibd(3, 3, SizeCaps(max_points=26))
        # a Sylvester order and an order with no construction: the cap comes first
        for m in (32, 23):
            with pytest.raises(errors.SizeCapExceeded, match=f"{4 * m} points exceed the cap of 64"):
                hadamard_crd(m, SizeCaps(max_points=64))

    def test_huge_dimension_is_refused_before_forming_the_power(self):
        # the first dimension at the cap's bit length is refused by the same
        # check, which names q^m, not the value of q**m
        with pytest.raises(errors.SizeCapExceeded, match=r"2\^13 points exceed the cap of 4096"):
            affine_geometry_bibd(2, 13)
        with pytest.raises(errors.SizeCapExceeded, match=r"2\^1000000000000 points"):
            affine_geometry_bibd(2, 10**12)

    def test_huge_order_is_refused_before_factoring(self):
        # trial division of the prime 10**20 + 39 would not finish
        with pytest.raises(errors.SizeCapExceeded):
            affine_plane(10**20 + 39)

    def test_non_prime_power_above_the_cap_is_a_cap_error(self):
        with pytest.raises(errors.SizeCapExceeded):
            affine_plane(5000)

    @pytest.mark.parametrize(
        "q, m, error",
        [(6, 5, errors.NotAPrimePower), (343, 2, errors.UnsupportedDegree)],
    )
    def test_field_errors_come_before_the_point_cap(self, q, m, error):
        with pytest.raises(error):
            affine_geometry_bibd(q, m)

    @pytest.mark.parametrize("q, m", [(4093, 2), (16, 4), (2, 13), (2, 10**12)])
    def test_rejected_design_builds_no_table(self, q, m, monkeypatch):
        built = []
        coefficients = GF._coefficients
        monkeypatch.setattr(
            GF, "_coefficients", lambda field, largest: built.append(field.q) or coefficients(field, largest)
        )
        with pytest.raises(errors.SizeCapExceeded):
            affine_geometry_bibd(q, m)
        assert built == []
        affine_plane(3)
        assert built == [3, 3]


class TestSpecStrings:
    def test_parses_each_family(self):
        assert _shape(from_spec("affine:n=3")) == (9, 12, 4, 3)
        assert _shape(from_spec("ag:q=2,m=3")) == (8, 14, 7, 4)
        assert _shape(from_spec("hadamard:m=2")) == (8, 14, 7, 4)
        assert _shape(from_spec("example:4")) == (8, 6, 3, 4)
        assert _shape(from_spec("example:id=4")) == (8, 6, 3, 4)

    def test_bad_specs(self):
        with pytest.raises(errors.BadSpec):
            from_spec("mystery:n=3")
        with pytest.raises(errors.BadSpec):
            from_spec("affine:q=3")

    @settings(max_examples=300, deadline=None)
    @given(SPECS)
    def test_malformed_specs_raise_only_package_errors(self, text):
        try:
            from_spec(text, SizeCaps(max_points=64))
        except errors.CrdCacheError:
            pass


@pytest.mark.parametrize("spec", ["ag:q=2,m=10", "hadamard:m=255", "hadamard:m=256"])
def test_build_memory_per_incidence(spec):
    """A built design keeps a few bytes per incidence (b * k): its point
    matrix and its labels, with no per-incidence Python object."""
    tracemalloc.start()
    try:
        res = from_spec(spec)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    incidences = res.design.b * res.design.k
    assert retained <= 8 * incidences, retained / incidences
    assert peak <= 40 * incidences, peak / incidences


@pytest.mark.parametrize("m", [1023, 1024])
def test_hadamard_build_drops_its_matrix_before_sorting_the_labels(m):
    """hadamard:m=1023 (a Paley matrix of order 4092) and hadamard:m=1024
    (Sylvester labels by parity) at the budget as shipped: the build peaks at
    the design it returns plus its bool label matrix and at most twice the
    4 MiB default.  The Paley int8 matrix, as large as the labels, is gone
    before they are sorted, and the parity labels are filled in row chunks."""
    default = 1 << 22
    tracemalloc.start()
    try:
        res = hadamard_crd(m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    v = res.design.v
    output = res.design.blocks.nbytes + res.labels.nbytes
    assert peak <= output + (v - 1) * v + 2 * default, (peak - output) / default


class TestFromLabels:
    @pytest.mark.parametrize(
        "labels, message",
        [
            ([[0, 0, 0, 1], [0, 1, 0, 1]], "class 1 splits the 4 points into blocks of [3, 1] points"),
            ([[0, 1, 0, 1], [1, 1, 0, 1]], "class 2 splits the 4 points into blocks of [1, 3] points"),
            ([[0, 1, 2, 0, 1], [2, 1, 0, 2, 1]], "class 1 splits the 5 points into blocks of [2, 2, 1]"),
            ([[0, 1, 0, 1, 0, 1], [0, 1, 2, 0, 1, 2]], "blocks of [3, 3, 0] points, not into 3 equal"),
        ],
        ids=["unbalanced", "later-class", "v-not-divisible", "empty-block"],
    )
    @pytest.mark.parametrize("rows_per_chunk", [None, 1])
    def test_uneven_labels_are_a_typed_error_naming_the_class(
        self, monkeypatch, labels, message, rows_per_chunk
    ):
        labels = np.array(labels)
        if rows_per_chunk:
            monkeypatch.setattr(caps_module, "WORK_BYTES", 8 * labels.shape[1] * rows_per_chunk)
        with pytest.raises(errors.NonUniformBlockSize, match=re.escape(message)):
            _from_labels(labels)

    @pytest.mark.parametrize("spec", ["affine:n=5", "ag:q=2,m=5", "hadamard:m=7", "example:8"])
    def test_row_chunks_build_the_same_resolution(self, monkeypatch, spec):
        res = from_spec(spec)
        monkeypatch.setattr(caps_module, "WORK_BYTES", 3 * 8 * res.design.v)
        again = _from_labels(np.array(res.labels))
        assert again == res and np.array_equal(again.labels, res.labels)
        assert again.labels.dtype == res.labels.dtype and not again.labels.flags.writeable
        assert again.design.blocks.dtype == res.design.blocks.dtype

    def test_default_budget_bounds_the_working_set(self):
        """The 4095 x 4096 Sylvester labels (the classes of ``hadamard:m=1024``)
        at the budget as shipped: the peak is the blocks and the kept labels
        plus at most twice the 4 MiB default, where in one piece the intp
        offset labels alone are 134 MB."""
        default = 1 << 22
        labels = _sylvester_labels(4096)
        tracemalloc.start()
        try:
            res = _from_labels(labels)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        output = res.design.blocks.nbytes + res.labels.nbytes
        assert peak <= output + 2 * default, (peak - output) / default

    def test_keeps_a_copy_of_its_labels(self):
        labels = np.array([[0, 1, 1, 0], [1, 1, 0, 0]])
        res = _from_labels(labels)
        labels[0, 0] = 1
        assert res.labels[0].tolist() == [0, 1, 1, 0]
        assert [block.tolist() for block in res.design.blocks] == [[1, 4], [2, 3], [3, 4], [1, 2]]
