"""Field tables and the field designs built from them, against per-call oracles."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest

from crdcache import caps as caps_module
from crdcache import constructions
from crdcache.constructions import affine_geometry_bibd, affine_plane, hadamard_crd
from crdcache.gf import _IRREDUCIBLE, GF, prime_power
from oracles import DigitField, coset_affine_geometry, dot_product_labels, double_loop_paley

# every built-in extension modulus and the primes 2..13
ORDERS = sorted({p**e for p, e in _IRREDUCIBLE} | {2, 3, 5, 7, 11, 13})


@pytest.mark.parametrize("q", ORDERS)
def test_tables_match_digit_arithmetic(q):
    field, oracle = GF(q), DigitField(q)
    assert field.add_table.tolist() == [[oracle.add(a, b) for b in range(q)] for a in range(q)]
    assert field.mul_table.tolist() == [[oracle.mul(a, b) for b in range(q)] for a in range(q)]
    assert [field.neg(a) for a in range(q)] == [oracle.neg(a) for a in range(q)]


@pytest.mark.parametrize("q", ORDERS)
def test_squares_and_differences_match_digit_arithmetic(q):
    """Both come without a q x q table: the squares from the product routine
    elementwise, the differences b - a one slice of rows a at a time."""
    field, oracle = GF(q), DigitField(q)
    assert field.squares.tolist() == [oracle.mul(a, a) for a in range(q)]
    assert not field.squares.flags.writeable
    for rows in (slice(0, q), slice(1, 3), slice(q - 1, q)):
        expected = [[oracle.add(b, oracle.neg(a)) for b in range(q)] for a in range(q)[rows]]
        assert field.differences(rows).tolist() == expected
    assert "mul_table" not in vars(field) and "add_table" not in vars(field)


@pytest.mark.parametrize("q", ORDERS)
def test_every_element_has_one_negative_and_one_inverse(q):
    field = GF(q)
    assert all(sorted(row) == list(range(q)) for row in field.add_table.tolist())
    assert all(row.count(1) == 1 for row in field.mul_table.tolist()[1:])


@pytest.mark.parametrize("q, dtype", [(2, np.uint8), (169, np.uint8), (251, np.uint8), (257, np.uint16)])
def test_tables_are_read_only_in_the_smallest_dtype(q, dtype):
    field = GF(q)
    for table in (field.add_table, field.mul_table):
        assert table.shape == (q, q) and table.dtype == dtype
        with pytest.raises(ValueError):
            table[0, 0] = 1


def test_operations_return_python_ints():
    field = GF(9)
    values = [field.add(2, 7), field.neg(4), field.mul(5, 8), field.inv(3), field.pow(5, -2)]
    assert all(type(x) is int for x in values)


@pytest.mark.parametrize(
    "family, q, m",
    [("affine", n, 2) for n in (2, 3, 4, 5, 7, 8, 9, 16)]
    + [("ag", q, m) for q, m in [(2, 3), (3, 3), (2, 4), (4, 3), (2, 6)]],
)
def test_affine_geometry_matches_coset_loop(family, q, m):
    res = affine_plane(q) if family == "affine" else affine_geometry_bibd(q, m)
    ref = coset_affine_geometry(q, m)
    assert res.design.v == ref.design.v
    assert res.design == ref.design
    assert res.classes == ref.classes
    assert res == ref


# every (q, m) of a field with a built-in modulus and m >= 2 with q^m <= 729
SMALL_GEOMETRIES = [
    (q, m)
    for q in range(2, 28)
    if prime_power(q) and (prime_power(q)[1] == 1 or prime_power(q) in _IRREDUCIBLE)
    for m in range(2, 10)
    if q**m <= 729
]


@pytest.mark.parametrize("q, m", SMALL_GEOMETRIES)
def test_label_fill_matches_per_point_dot_products(q, m):
    """The fill takes the flat add table a chunk of normals at a time: a
    budget of 1 byte makes every chunk one normal, 300 bytes a few."""
    expected = dot_product_labels(q, m)
    for budget in (1, 300, caps_module.WORK_BYTES):
        with mock.patch.object(caps_module, "WORK_BYTES", budget):
            assert affine_geometry_bibd(q, m).labels.tolist() == expected.tolist(), budget


def test_label_fill_stays_within_the_cache_budget(monkeypatch):
    """ag:q=2,m=12 (4095 normals, 4096 points) at the budgets as shipped:
    the fill peaks at its (r, v) labels plus at most 1 MiB, four times the
    256 KiB CACHE_BYTES that bounds a chunk's index, where one flat index
    over every normal would take 134 MB and a 4 MiB chunk more than 1 MiB."""
    cache, r, v = 1 << 18, 4095, 4096
    monkeypatch.setattr(constructions, "_from_labels", lambda labels: labels)
    tracemalloc.start()
    try:
        labels = affine_geometry_bibd(2, 12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert labels.shape == (r, v)
    assert peak <= r * v + 4 * cache, (peak - r * v) / cache


@pytest.mark.parametrize("m", [3, 5, 6, 7, 11, 12, 15, 20, 27, 48])
def test_paley_hadamard_matches_double_loop(m, monkeypatch):
    order = 4 * m
    assert (constructions._paley_type1(order, constructions.DEFAULT_CAPS) == double_loop_paley(order)).all()
    res = hadamard_crd(m)
    monkeypatch.setattr(constructions, "_paley_type1", double_loop_paley)
    ref = hadamard_crd(m)
    assert res.design == ref.design
    assert res.classes == ref.classes


def test_paley_rows_stay_within_the_default_budget():
    """_paley_type1(4092), q = 4091 prime, at the budget as shipped: the peak
    is the (q+1)^2 output plus at most twice the 4 MiB default, where in one
    piece the intp index of the differences alone is 134 MB.  The row chunks
    join up: the core chi(b - a) is circulant and its first row is chi by
    Euler's criterion."""
    default, order, q = 1 << 22, 4092, 4091
    tracemalloc.start()
    try:
        s = constructions._paley_type1(order, constructions.DEFAULT_CAPS)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= order**2 + 2 * default, (peak - order**2) / default
    core = s[1:, 1:] - np.eye(q, dtype=np.int8)
    assert core[0].tolist() == [0] + [1 if pow(b, (q - 1) // 2, q) == 1 else -1 for b in range(1, q)]
    assert (core[1:, 1:] == core[:-1, :-1]).all() and (core[1:, 0] == core[:-1, -1]).all()
