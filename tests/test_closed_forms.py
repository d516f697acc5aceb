"""The integer closed forms, the table cell text, the column-wise table
text and the parity-built Sylvester labels, each against the code it
replaced, kept as an oracle."""

from dataclasses import astuple
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crdcache import CrdCacheError
from crdcache.baselines import (
    ComparisonTable,
    analyze_table,
    man_counterpart,
    man_example_table,
    man_point,
    spe_example_table,
    z_sweep_table,
)
from crdcache.constructions import _from_labels, _grid, _sylvester_labels
from crdcache.designs import crd_profile
from crdcache.errors import NonIntegerCacheRedundancy, SizeCapExceeded
from crdcache.constructions import from_spec
from crdcache.render import cell_text, table_text
from crdcache.scheme import scheme_metrics
from oracles import chain_cell_text, chain_man_point, chain_scheme_metrics, kron_sylvester, rowwise_table_text
from test_golden_designs import SPECS, _build


def _typed(values) -> list[tuple[type, object]]:
    return [(type(value), value) for value in values]


def _same_metrics(res, z) -> None:
    got, expected = scheme_metrics(res, z), chain_scheme_metrics(res, z)
    assert _typed(astuple(got)) == _typed(astuple(expected)), z
    assert _typed([got.per_user_rate]) == _typed([expected.per_user_rate])


def _same_man_point(users, m_over_n) -> None:
    """Equal fields, types and per-user rate, or the same refusal; a point
    past the size cap is not built by the oracle."""
    try:
        got = man_point(users, m_over_n)
    except SizeCapExceeded:
        return
    except NonIntegerCacheRedundancy as exc:
        with pytest.raises(NonIntegerCacheRedundancy) as expected:
            chain_man_point(users, m_over_n)
        assert str(exc) == str(expected.value)
        return
    expected, per_user = chain_man_point(users, m_over_n)
    assert _typed(astuple(got)) == _typed(astuple(expected))
    assert _typed([got.per_user_rate]) == _typed([per_user])


@pytest.mark.parametrize("spec", SPECS)
def test_metrics_and_man_point_equal_the_fraction_chain_on_every_design(spec):
    built = _build(spec)
    if isinstance(built, CrdCacheError):
        return
    res, mu = built
    for z in [1, *mu]:
        _same_metrics(res, z)
    _same_man_point(res.design.b, Fraction(res.design.k, res.design.v))
    assert man_counterpart(res).per_user_rate == man_counterpart(res).rate / res.design.b


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5))
def test_metrics_equal_the_fraction_chain_on_grids(b_r, r):
    res = _from_labels(_grid(b_r, r))
    for z in [1, *crd_profile(res).mu]:
        _same_metrics(res, z)
    _same_man_point(res.design.b, Fraction(res.design.k, res.design.v))


@settings(max_examples=300, deadline=None)
@given(
    st.integers(-3, 400),
    st.one_of(st.integers(-2, 3), st.fractions(min_value=-2, max_value=3, max_denominator=60)),
)
def test_man_point_equals_the_fraction_chain(users, m_over_n):
    _same_man_point(users, m_over_n)


def _text_or_error(render, value):
    try:
        return render(value)
    except OverflowError as exc:
        return type(exc), str(exc)


HUGE = 10**400


@settings(max_examples=500, deadline=None)
@given(
    st.one_of(
        st.none(),
        st.integers(-HUGE, HUGE),
        st.fractions(),
        st.builds(Fraction, st.integers(-HUGE, HUGE), st.integers(1, HUGE)),
        st.builds(Fraction, st.integers(-(2**80), 2**80), st.integers(1, 2**80)),
    )
)
def test_cell_text_equals_str_and_float(value):
    """Huge ratios whose decimal overflows a float raise the same error."""
    assert _text_or_error(cell_text, value) == _text_or_error(chain_cell_text, value)


def test_cell_text_of_a_fraction_subclass():
    class Ratio(Fraction):
        pass

    assert cell_text(Ratio(7, 3)) == chain_cell_text(Fraction(7, 3)) == "7/3 (2.33333333333)"
    assert cell_text(Ratio(6, 3)) == "2"


ROWS = ("a", "a longer row label")
SHAPED_TABLES = {
    "last column widest": ComparisonTable("t", ROWS, (("x", (1, 2)), ("a wide last column", (Fraction(1, 3), 5)))),
    "last column narrowest": ComparisonTable("t", ROWS, (("CRD", (Fraction(7, 3), 123456)), ("z", (1, 22)))),
    "last column all None": ComparisonTable("t", ROWS, (("CRD", (1, Fraction(1, 7))), ("SPE baseline", (None, None)))),
    "notes": ComparisonTable("t", ROWS, (("MaN", (3, 4)), ("CRD", (Fraction(5, 2), 1))), notes=("one", "two")),
    "parameter column only": ComparisonTable("t", ROWS, ()),
}


@pytest.mark.parametrize("name", SHAPED_TABLES)
def test_table_text_equals_the_rowwise_renderer(name):
    table = SHAPED_TABLES[name]
    assert table_text(table) == rowwise_table_text(table)


def test_table_text_of_the_built_tables_equals_the_rowwise_renderer():
    tables = [man_example_table(), spe_example_table()]
    for spec in ("example:4", "affine:n=3", "hadamard:m=2", "ag:q=2,m=3"):
        res = from_spec(spec)
        tables += [analyze_table(res, z) for z in [1, *crd_profile(res).mu]]
        tables.append(z_sweep_table(res, spec))
    assert [table_text(t) for t in tables] == [rowwise_table_text(t) for t in tables]


@pytest.mark.parametrize("order", [2**e for e in range(1, 13)])
def test_parity_labels_equal_the_kronecker_matrix(order):
    labels = _sylvester_labels(order)
    assert labels.dtype == bool and labels.shape == (order - 1, order)
    assert np.array_equal(labels, kron_sylvester(order)[1:] == -1)
