"""Arithmetic in small finite fields GF(p^e).

A field is its two operation tables.  Elements are plain ints in
``range(q)``: the base-p digits of an element are its polynomial
coefficients over GF(p), least significant digit first, so in GF(4) the int
3 is x+1 and 2 is x.  ``add_table[a, b]`` and ``mul_table[a, b]`` are
read-only q x q arrays, each computed once, on first use, in a number of
array passes that grows with e, not e^2.  ``add_table`` adds the digit
vectors of all q elements mod p, one pass per digit; at p = 2 it is a XOR.
In a prime field ``mul_table`` is the digit product mod p.  In an extension
field it is built a digit of b at a time: row b is sum_j b_j (a x^j), and
the rows of the b < p^(j+1) are those of the b < p^j plus s (a x^j), one
gather through ``add_table``, from a (p, q) table of scalar multiples and
a "times x" map (a digit shift plus the fold of x^e by the modulus).
Extension fields reduce modulo a fixed irreducible polynomial from a
built-in table, which keeps the element numbering (and every point ordering
built on it) identical across runs and platforms.  Every operation reads
the tables.  ``squares`` and ``differences`` work on the digits without
forming a q x q table: the squares by the polynomial product of each
element's digits with themselves, and the differences a chunk of rows at a
time.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .caps import DEFAULT_CAPS, SizeCaps
from .errors import NotAPrimePower, SizeCapExceeded, UnsupportedDegree

# Monic irreducible polynomials over GF(p), ascending coefficients
# (constant term first, leading 1 last).
_IRREDUCIBLE: dict[tuple[int, int], tuple[int, ...]] = {
    (2, 2): (1, 1, 1),              # x^2 + x + 1
    (2, 3): (1, 1, 0, 1),           # x^3 + x + 1
    (2, 4): (1, 1, 0, 0, 1),        # x^4 + x + 1
    (2, 5): (1, 0, 1, 0, 0, 1),     # x^5 + x^2 + 1
    (2, 6): (1, 1, 0, 1, 1, 0, 1),  # x^6 + x^4 + x^3 + x + 1
    (3, 2): (2, 2, 1),              # x^2 + 2x + 2
    (3, 3): (1, 2, 0, 1),           # x^3 + 2x + 1
    (3, 4): (2, 0, 0, 2, 1),        # x^4 + 2x^3 + 2
    (5, 2): (2, 4, 1),              # x^2 + 4x + 2
    (5, 3): (3, 3, 0, 1),           # x^3 + 3x + 3
    (7, 2): (3, 6, 1),              # x^2 + 6x + 3
    (11, 2): (2, 7, 1),             # x^2 + 7x + 2
    (13, 2): (2, 12, 1),            # x^2 + 12x + 2
}


def prime_power(q: int) -> tuple[int, int] | None:
    """Return (p, e) with q == p**e and p prime, or None if q is not one."""
    if q < 2:
        return None
    p = 2
    while p * p <= q:
        if q % p == 0:
            n, e = q, 0
            while n % p == 0:
                n //= p
                e += 1
            return (p, e) if n == 1 else None
        p += 1
    return (q, 1)


class GF:
    """A field of q = p^e elements with canonical element order range(q)."""

    def __init__(self, q: int, caps: SizeCaps = DEFAULT_CAPS):
        # the cap comes first: trial division of a huge q would not finish
        if q > caps.max_points:
            raise SizeCapExceeded(f"GF({q}) exceeds the point cap {caps.max_points}")
        pe = prime_power(q)
        if pe is None:
            raise NotAPrimePower(f"{q} is not a prime power")
        self.q = q
        self.p, self.e = pe
        self.modulus = _IRREDUCIBLE.get(pe)
        if self.modulus is None and self.e > 1:
            raise UnsupportedDegree(
                f"no built-in irreducible polynomial for GF({self.p}^{self.e})"
            )

    def __repr__(self) -> str:
        return f"GF({self.q})"

    def elements(self) -> range:
        return range(self.q)

    def _coefficients(self, largest: int) -> list[np.ndarray]:
        """Digit i of every element, in the smallest dtype holding ``largest`` and q - 1."""
        elements = np.arange(self.q, dtype=np.min_scalar_type(max(largest, self.q - 1)))
        return [elements // self.p**i % self.p for i in range(self.e)]

    def _table(self, digits: list[np.ndarray]) -> np.ndarray:
        """The read-only array of the elements whose base-p digits are ``digits``."""
        table = digits[-1].astype(np.min_scalar_type(self.q - 1))
        for d in reversed(digits[:-1]):
            table *= self.p
            table += d
        table.flags.writeable = False
        return table

    @cached_property
    def add_table(self) -> np.ndarray:
        """``add_table[a, b]`` is a + b: digit-wise addition mod p, a XOR at p = 2."""
        if self.p == 2:
            elements = np.arange(self.q, dtype=np.min_scalar_type(self.q - 1))
            table = elements[:, None] ^ elements
            table.flags.writeable = False
            return table
        return self._table([(d[:, None] + d) % self.p for d in self._coefficients(2 * self.p - 2)])

    @cached_property
    def mul_table(self) -> np.ndarray:
        """``mul_table[a, b]`` is a * b; in an extension field, row b is built
        digit by digit as sum_j b_j (a x^j) over the digits b_j of b.

        The rows of the b < p are the scalar multiples s * a (s in GF(p)),
        and the rows of the b < p^(j+1) add s (a x^j) to those of the b < p^j
        in one gather through ``add_table`` (a XOR at p = 2).  A "times x"
        map over the q elements, a digit shift plus the modulus fold, takes
        each a x^j to a x^(j+1).
        """
        p, e, q = self.p, self.e, self.q
        if e == 1:
            d = self._coefficients(p * p - 1)[0]
            return self._table([d[:, None] * d % p])
        add = self.add_table
        # scaled[s] is s * a for every a: a added to itself s times
        table = scaled = np.zeros((p, q), dtype=add.dtype)
        scaled[1] = np.arange(q)
        for s in range(2, p):
            scaled[s] = add[scaled[s - 1], scaled[1]]
        # x^e = -(m_0 + m_1 x + ... + m_{e-1} x^{e-1}), the element with digits p - m_j
        fold = sum((p - m) % p * p**j for j, m in enumerate(self.modulus[:e]))
        times_x = add[scaled[1] % p ** (e - 1) * p, scaled[scaled[1] // p ** (e - 1), fold]]
        power = scaled[1]  # a x^j for every a
        for _ in range(e - 1):
            power = times_x[power]
            terms = scaled[:, None, power]  # (p, 1, q): s (a x^j)
            if p == 2:
                table = table ^ terms
            else:
                at = np.multiply(table, q, dtype=np.intp)
                table = add.ravel().take(at + terms)
            table = table.reshape(-1, q)
        table.flags.writeable = False
        return table

    @cached_property
    def squares(self) -> np.ndarray:
        """``squares[a]`` is a * a, read-only: ``mul_table``'s diagonal, without the table."""
        x = self._coefficients(self.p * self.p - 1)
        return self._table(self._product(x, x))

    def _product(self, x: list[np.ndarray], y: list[np.ndarray]) -> list[np.ndarray]:
        """The digits of x * y from the digits of x and y, each in a dtype
        that holds p^2 - 1: polynomial product reduced by the modulus."""
        p, e = self.p, self.e
        prod: list = [0] * (2 * e - 1)
        for i in range(e):
            for j in range(e):
                term = x[i] * y[j]
                term += prod[i + j]
                term %= p
                prod[i + j] = term
        # x^e == -(m_0 + m_1 x + ... + m_{e-1} x^{e-1}); add p - m_j to stay unsigned
        for top in range(2 * e - 2, e - 1, -1):
            for j in range(e):
                prod[top - e + j] += prod[top] * (p - self.modulus[j])
                prod[top - e + j] %= p
        return prod[:e]

    def differences(self, rows: slice) -> np.ndarray:
        """``differences(rows)[i, b]`` is b - a for the i-th element a of
        ``range(q)[rows]``: digit-wise subtraction mod p, a read-only
        (len(rows), q) array."""
        p = self.p
        return self._table([(d + (p - d[rows, None])) % p for d in self._coefficients(2 * p - 1)])

    def add(self, a: int, b: int) -> int:
        return int(self.add_table[a, b])

    def neg(self, a: int) -> int:
        # row a of add_table is a permutation; -a is where it holds 0
        return int(self.add_table[a].argmin())

    def mul(self, a: int, b: int) -> int:
        return int(self.mul_table[a, b])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return int((self.mul_table[a] == 1).argmax())

    def pow(self, a: int, n: int) -> int:
        if n < 0:
            return self.pow(self.inv(a), -n)
        out, base = 1, a
        while n:
            if n & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            n >>= 1
        return out
