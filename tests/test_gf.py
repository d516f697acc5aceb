"""Field axioms, exhaustively, for every built-in field order."""

import pytest

from crdcache import errors
from crdcache.gf import GF, prime_power
from oracles import is_prime

ORDERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27]


@pytest.mark.parametrize("q", ORDERS)
def test_axioms_exhaustive(q):
    f = GF(q)
    elems = list(f.elements())
    assert elems == list(range(q))
    for a in elems:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.mul(a, 0) == 0
        assert f.add(a, f.neg(a)) == 0
        if a != 0:
            assert f.mul(a, f.inv(a)) == 1
        for b in elems:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            assert 0 <= f.add(a, b) < q
            assert 0 <= f.mul(a, b) < q
            for c in elems:
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


def test_quartic_field_reduction():
    # (x+1)^2 reduces to x modulo x^2+x+1, i.e. 3*3 == 2 in GF(4)
    f = GF(4)
    assert f.mul(3, 3) == 2


def test_prime_field_values():
    f = GF(5)
    assert f.mul(2, 3) == 1
    assert f.inv(2) == 3


def test_pow():
    f = GF(27)
    for a in range(1, 27):
        assert f.pow(a, 26) == 1  # multiplicative group order q-1


@pytest.mark.parametrize("q", [0, 1, 6, 10, 12, 15])
def test_not_prime_power(q):
    with pytest.raises(errors.NotAPrimePower):
        GF(q)


def test_unsupported_degree():
    with pytest.raises(errors.UnsupportedDegree):
        GF(343)  # 7^3 has no built-in modulus


def test_cap():
    with pytest.raises(errors.SizeCapExceeded):
        from crdcache.caps import SizeCaps

        GF(9, SizeCaps(max_points=8))


def test_zero_has_no_inverse():
    with pytest.raises(ZeroDivisionError):
        GF(7).inv(0)


def test_prime_power_factoring():
    assert prime_power(8) == (2, 3)
    assert prime_power(27) == (3, 3)
    assert prime_power(13) == (13, 1)
    assert prime_power(12) is None
    assert prime_power(1) is None
    assert is_prime(2) and is_prime(13) and not is_prime(12) and not is_prime(1)
    for n in range(1000):
        assert (prime_power(n) == (n, 1)) == is_prime(n), n
