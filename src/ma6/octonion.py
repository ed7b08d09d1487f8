"""Octonion arithmetic, and the associative 3-form on the imaginary octonions.

An octonion is stored as 8 real components (1, e1..e7).  The product is
read from one 8×8 table, e_i·e_j = ±e_k, built on first use by applying
the Cayley-Dickson doubling product (a, b)(c, d) = (ac − d̄b, da + bc̄),
three times from ℝ, to the basis units.  A product of two octonions is
then the 64 terms ±x_i·y_j, each added to its component k; on exact
(Fraction) components it equals the doubling rule's exactly.
"""

from __future__ import annotations

from functools import lru_cache


class Octonion:
    """An octonion with 8 real (float/Fraction) components."""

    __slots__ = ("c",)

    def __init__(self, components):
        c = tuple(components)
        if len(c) != 8:
            raise ValueError("octonion needs 8 components")
        object.__setattr__(self, "c", c)

    def __setattr__(self, *a):
        raise AttributeError("Octonion is immutable")

    @classmethod
    def unit(cls, i, scale=1):
        """The basis octonion e_i (i = 0 is the real unit)."""
        c = [0] * 8
        c[i] = scale
        return cls(c)

    def __add__(self, other):
        return Octonion([a + b for a, b in zip(self.c, other.c)])

    def __sub__(self, other):
        return Octonion([a - b for a, b in zip(self.c, other.c)])

    def __neg__(self):
        return Octonion([-a for a in self.c])

    def __rmul__(self, scalar):
        return Octonion([scalar * a for a in self.c])

    def __mul__(self, other):
        if not isinstance(other, Octonion):
            return Octonion([a * other for a in self.c])
        return Octonion(_table_mul(self.c, other.c))

    def __eq__(self, other):
        return isinstance(other, Octonion) and self.c == other.c

    def conjugate(self):
        return Octonion((self.c[0],) + tuple(-a for a in self.c[1:]))

    def real(self):
        return self.c[0]

    def imag(self):
        """The 7 imaginary components."""
        return self.c[1:]

    def norm_sq(self):
        return sum(a * a for a in self.c)

    def inner(self, other):
        """Euclidean inner product ⟨x, y⟩ = Re(x ȳ)."""
        return sum(a * b for a, b in zip(self.c, other.c))

    def __repr__(self):
        return f"Octonion{self.c}"


def _conj_pair(x):
    """Conjugate of a half-length hypercomplex tuple."""
    return (x[0],) + tuple(-a for a in x[1:])


def _mul_pair(x, y):
    """Cayley-Dickson product on tuples of length 1, 2, 4 or 8; generates
    the multiplication table."""
    n = len(x)
    if n == 1:
        return (x[0] * y[0],)
    h = n // 2
    a, b = x[:h], x[h:]
    c, d = y[:h], y[h:]
    # (a, b)(c, d) = (ac − d̄b, da + bc̄)
    left = _sub(_mul_pair(a, c), _mul_pair(_conj_pair(d), b))
    right = _add(_mul_pair(d, a), _mul_pair(b, _conj_pair(c)))
    return left + right


def _add(x, y):
    return tuple(a + b for a, b in zip(x, y))


def _sub(x, y):
    return tuple(a - b for a, b in zip(x, y))


@lru_cache(maxsize=None)
def _table():
    """The table of (k, sign) at [i][j] with e_i·e_j = sign·e_k; built on
    first use, not at import, which every CLI command pays."""
    units = [tuple(int(i == j) for j in range(8)) for i in range(8)]
    table = []
    for x in units:
        row = []
        for y in units:
            p = _mul_pair(x, y)
            k = next(k for k in range(8) if p[k])
            row.append((k, p[k]))
        table.append(tuple(row))
    return tuple(table)


def _table_mul(x, y):
    """The 8 components of the product of component tuples x and y."""
    out = [0] * 8
    for xi, row in zip(x, _table()):
        for yj, (k, sign) in zip(y, row):
            if sign > 0:
                out[k] += xi * yj
            else:
                out[k] -= xi * yj
    return out


def associative_form(x, y, z):
    """φ(x, y, z) = ⟨x, yz⟩ on imaginary octonions (7 components each).

    x, y, z are 7-tuples of imaginary components; returns a scalar.  This is
    the standard G2-invariant 3-form of the octonion product.
    """
    t = 0
    for yb, row in zip(y, _table()[1:]):
        for zc, (k, sign) in zip(z, row[1:]):
            if k:  # e_b·e_c is real (−1) only for b = c, and x has no real part
                t += sign * x[k - 1] * yb * zc
    return t


def cross(x, y):
    """The 7-dimensional cross product Im(xy) of imaginary octonions."""
    ox = Octonion((0,) + tuple(x))
    oy = Octonion((0,) + tuple(y))
    return (ox * oy).imag()
