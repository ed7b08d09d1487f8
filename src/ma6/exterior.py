"""Graded exterior algebra of a fixed 6-dimensional real vector space.

Coefficients are ordinary Python scalars: ``fractions.Fraction`` for exact
work, ``float`` for numerics, ``complex``/``ExactComplex`` for the elliptic
branch.  All values are immutable; every operation is a pure function.
wedge, i_X and i_B are each one ``QuadraticTable`` per grade (pair), whose
call picks the arithmetic for the scalar type; ``KForm.pullback`` takes
rational input in ints and other input by the generic sum of minors.

Pointwise form fields call their function, and so ``KForm.basis`` and the
linear operations, about a hundred times per sample point of a field
check.  ``basis`` reads its position and sign from one cached slot per
index tuple, and ``basis``, ``+``, ``-``, unary ``-``, ``*`` and ``/`` build
their coefficient tuple in one pass and the form through ``_kform``,
without the checks of the public ``KForm(grade, coeffs)``.

Basis covectors are indexed 1..6 and identified with the Darboux
coordinates (q1, q2, q3, p1, p2, p3).
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from functools import lru_cache

DIM = 6

# lexicographically ordered multi-indices, per grade
COMBS = {k: list(itertools.combinations(range(1, DIM + 1), k)) for k in range(DIM + 1)}
POS = {k: {c: i for i, c in enumerate(COMBS[k])} for k in range(DIM + 1)}


def dim_grade(k):
    """Dimension C(6,k) of the grade-k component."""
    return len(COMBS[k])


@lru_cache(maxsize=None)
def merge_sign(a, b):
    """Sign of sorting the concatenation of two disjoint increasing tuples.

    Returns (sign, merged) with sign in {1,-1}, or (0, None) on overlap.
    """
    if set(a) & set(b):
        return 0, None
    inv = 0
    for x in a:
        for y in b:
            if x > y:
                inv += 1
    return (-1) ** inv, tuple(sorted(a + b))


class GradeError(ValueError):
    pass


class KForm:
    """A grade-k exterior form, stored densely over lexicographic multi-indices."""

    __slots__ = ("grade", "coeffs")

    def __init__(self, grade, coeffs):
        if not 0 <= grade <= DIM:
            raise GradeError(f"grade {grade} out of range")
        coeffs = tuple(coeffs)
        if len(coeffs) != dim_grade(grade):
            raise ValueError(
                f"grade {grade} needs {dim_grade(grade)} coefficients, got {len(coeffs)}"
            )
        object.__setattr__(self, "grade", grade)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, *a):
        raise AttributeError("KForm is immutable")

    @classmethod
    def zero(cls, grade):
        return cls(grade, (0,) * dim_grade(grade))

    @classmethod
    def basis(cls, *indices, scale=1):
        """The basis form e_{i1}* ∧ ... ∧ e_{ik}* (indices need not be sorted)."""
        k, head, sign, tail = _basis_slot(indices)
        return _kform(k, head + (sign * scale,) + tail if sign else head)

    def __getitem__(self, idx):
        return self.coeffs[POS[self.grade][tuple(idx)]]

    def __add__(self, other):
        if self.grade != other.grade:
            raise GradeError("cannot add forms of different grade")
        return _kform(self.grade, tuple(map(operator.add, self.coeffs, other.coeffs)))

    def __sub__(self, other):
        if self.grade != other.grade:
            raise GradeError("cannot subtract forms of different grade")
        return _kform(self.grade, tuple(map(operator.sub, self.coeffs, other.coeffs)))

    def __neg__(self):
        return _kform(self.grade, tuple(map(operator.neg, self.coeffs)))

    def __mul__(self, s):
        return _kform(self.grade, tuple(map(operator.mul, self.coeffs, itertools.repeat(s))))

    __rmul__ = __mul__

    def __truediv__(self, s):
        return _kform(self.grade, tuple(map(operator.truediv, self.coeffs, itertools.repeat(s))))

    def __eq__(self, other):
        return (
            isinstance(other, KForm)
            and self.grade == other.grade
            and all(a == b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __hash__(self):
        return hash((self.grade, self.coeffs))

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def max_abs(self):
        return max((abs(c) for c in self.coeffs), default=0)

    def conjugate(self):
        return KForm(self.grade, tuple(_conj(c) for c in self.coeffs))

    def real(self):
        return KForm(self.grade, tuple(_re(c) for c in self.coeffs))

    def imag(self):
        return KForm(self.grade, tuple(_im(c) for c in self.coeffs))

    def evaluate(self, *vectors):
        """ω(v1, ..., vk) for k vectors given as length-6 sequences."""
        k = self.grade
        if len(vectors) != k:
            raise ValueError(f"grade-{k} form takes {k} vectors")
        total = 0
        for idx, c in zip(COMBS[k], self.coeffs):
            if c == 0:
                continue
            rows = [[v[i - 1] for v in vectors] for i in idx]
            total = total + c * _det(rows)
        return total

    def pullback(self, matrix):
        """Pullback along the linear map with the given matrix (rows = output).

        ``matrix`` maps a source space of dimension m = len(matrix[0]) into V;
        the result is a k-form on the source (m must be 6 for a KForm result,
        smaller sources return the dense coefficient list over that space).
        Rational input (every coefficient and entry an int or a Fraction)
        is pulled back in ints, `_pullback_rational`; other input by the
        generic sum of c·(k×k minor) over the nonzero coefficients.
        """
        k = self.grade
        m = len(matrix[0])
        out_combs = list(itertools.combinations(range(m), k))
        if _all_rational(self.coeffs) and all(_all_rational(row) for row in matrix):
            out = _pullback_rational(self.coeffs, k, matrix, out_combs)
        else:
            out = []
            for J in out_combs:
                acc = 0
                for idx, c in zip(COMBS[k], self.coeffs):
                    if c == 0:
                        continue
                    sub = [[matrix[i - 1][j] for j in J] for i in idx]
                    acc = acc + c * _det(sub)
                out.append(acc)
        if m == DIM:
            return _kform(k, tuple(out))
        return out

    def __repr__(self):
        terms = []
        for idx, c in zip(COMBS[self.grade], self.coeffs):
            if c != 0:
                terms.append(f"{c}*e{''.join(map(str, idx))}")
        return "KForm(" + (" + ".join(terms) if terms else "0") + ")"


def perm_sign_sort(seq):
    """Sign of the permutation sorting ``seq`` (distinct entries)."""
    seq = list(seq)
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


_set_grade = KForm.grade.__set__
_set_coeffs = KForm.coeffs.__set__


def _kform(grade, coeffs):
    """A KForm of a coefficient tuple that already has the grade's length,
    made without the checks of ``KForm(grade, coeffs)``."""
    form = object.__new__(KForm)
    _set_grade(form, grade)
    _set_coeffs(form, coeffs)
    return form


@lru_cache(maxsize=None)
def _basis_slot(indices):
    """(k, head, sign, tail) for the basis form of an index tuple: its
    coefficients are head + (sign·scale,) + tail, zero tuples around the
    sorted tuple's position, or, when an index repeats, sign = 0 and head
    is the whole zero tuple."""
    k = len(indices)
    zeros = (0,) * dim_grade(k)
    if len(set(indices)) != k:
        return k, zeros, 0, None
    pos = POS[k][tuple(sorted(indices))]
    return k, zeros[:pos], perm_sign_sort(indices), zeros[pos + 1:]


def _det(rows):
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    if n == 3:
        a, b, c = rows[0]
        d, e, f = rows[1]
        g, h, i = rows[2]
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    total = 0
    for perm in itertools.permutations(range(n)):
        term = perm_sign_sort([p + 1 for p in perm])
        for r, c in enumerate(perm):
            term = term * rows[r][c]
        total = total + term
    return total


def _pullback_rational(coeffs, k, matrix, out_combs):
    """The coefficients of a rational pullback, as the generic sum gives
    them: the denominators of the nonzero coefficients and of the matrix
    are cleared once, each k×k minor is taken in ints, and one Fraction is
    made per output coefficient.  An output is a Fraction when a Fraction
    enters its sum (a nonzero coefficient, or an entry of a row of a
    nonzero coefficient's index in one of its columns) and an int
    otherwise."""
    terms = [(idx, c) for idx, c in zip(COMBS[k], coeffs) if c != 0]
    if not terms:
        return [0] * len(out_combs)
    dc, nc = _cleared([c for _, c in terms])
    dm = math.lcm(*(a.denominator for row in matrix for a in row))
    rows = [[a.numerator * (dm // a.denominator) for a in row] for row in matrix]
    m = len(matrix[0])
    den = dc * dm ** k
    all_frac = any(isinstance(c, Fraction) for _, c in terms)
    used = {i - 1 for idx, _ in terms for i in idx}
    frac = {j for i in used for j in range(m) if isinstance(matrix[i][j], Fraction)}
    subs = [([rows[i - 1] for i in idx], n) for (idx, _), n in zip(terms, nc)]
    out = []
    for J in out_combs:
        num = sum(n * _det([[r[j] for j in J] for r in R]) for R, n in subs)
        out.append(Fraction(num, den) if all_frac or frac.intersection(J) else num // den)
    return out


def wedge(a, b):
    """Exterior product a ∧ b."""
    j, k = a.grade, b.grade
    if j + k > DIM:
        raise GradeError(f"wedge of grades {j} and {k} exceeds dimension {DIM}")
    return KForm(j + k, _wedge_table(j, k)(a.coeffs, b.coeffs))


class QuadraticTable:
    """A tuple of quadratic polynomials in the coefficients w of a form, or
    of bilinear ones in two coefficient sequences u and v.

    Built from one mapping {(I, J): c} per entry, each c an int or a
    Fraction; evaluating at w gives, per entry, Σ c·w_I·w_J, and at (u, v)
    gives Σ c·u_I·v_J.  Every coefficient is kept exactly and as a float:
    rational input (int/Fraction) is evaluated in Python ints over a common
    denominator, so it stays exact, other real input in floats only, and
    complex and ExactComplex input with the exact coefficients.  ``batch``
    evaluates the quadratic polynomials at every row of a float array at
    once.
    """

    __slots__ = ("exact", "floats", "ints", "den", "_arrays")

    def __init__(self, entries):
        exact = tuple(tuple((i, j, c) for (i, j), c in sorted(e.items()) if c != 0)
                      for e in entries)
        self.exact = exact
        self.floats = tuple(tuple((i, j, float(c)) for i, j, c in e) for e in exact)
        den = math.lcm(*(c.denominator for e in exact for _, _, c in e))
        self.den = den
        self.ints = tuple(tuple((i, j, c.numerator * (den // c.denominator))
                                for i, j, c in e) for e in exact)
        self._arrays = None

    def __call__(self, u, v=None):
        same = v is None
        v = u if same else v
        if _all_rational(u) and (same or _all_rational(v)):
            nums, den = self.rational(u, None if same else v)
            return tuple(Fraction(n, den) for n in nums)
        if _all_real(u) and (same or _all_real(v)):
            u = [float(x) for x in u]
            v = u if same else [float(x) for x in v]
            return tuple(sum([c * u[i] * v[j] for i, j, c in e], 0.0) for e in self.floats)
        return tuple(sum(c * u[i] * v[j] for i, j, c in e) for e in self.exact)

    def rational(self, u, v=None):
        """The polynomials at rational u (and v) as (numerators, den): one
        int per entry, entry = numerator/den.  The denominators of u and v
        are cleared once and every term is summed in ints, by ``int_sums``."""
        du, nu = _cleared(u)
        dv, nv = (du, nu) if v is None else _cleared(v)
        return self.int_sums(nu, nv), self.den * du * dv

    def int_sums(self, nu, nv=None):
        """The numerators of the polynomials at int u (and v): one int per
        entry, Σ c·u_I·v_J over the table's coefficients cleared to
        ``ints``, so entry = numerator/den.  With u = nu/du and v = nv/dv
        in ints, the polynomials at (u, v) are the numerators over
        den·du·dv."""
        nv = nu if nv is None else nv
        return tuple(sum([c * nu[i] * nv[j] for i, j, c in e]) for e in self.ints)

    def batch(self, U, V=None):
        """The polynomials at each row of the float arrays U and V, shape
        (N, n) and (N, m): an (N, entries) array, quadratic in U if V is
        None and bilinear in (U, V) otherwise.  Each entry sums c·u_I·v_J
        over its terms from 0.0 in table order, as ``__call__`` does on float
        input, so the two agree bitwise.

        The entries are padded to one width with the zero term 0·u_0·v_0.
        The products (c·u_I)·v_J of a run of term slots, for every entry and
        point, take two gathers and two in-place products; the slots are
        then added into the sums one after another, not by a reduction,
        which numpy may do pairwise.  A run is as many slots as fit in
        ``_BATCH_CHUNK`` elements: every slot of θ·K up to 42 points, fewer
        above, where arrays of all the products would be mmapped, and
        page-faulted, afresh on every call."""
        import numpy as np

        if self._arrays is None:
            # term k of every entry, padded with the zero term 0·u_0·v_0
            width = max(len(e) for e in self.floats)
            padded = [[e[k] if k < len(e) else (0, 0, 0.0) for e in self.floats]
                      for k in range(width)]
            self._arrays = tuple(np.array([[t[n] for t in row] for row in padded])
                                 for n in range(3))
        I, J, C = self._arrays  # each (width, entries)
        Ut = np.asarray(U, dtype=float).T.copy()
        Vt = Ut if V is None else np.asarray(V, dtype=float).T.copy()
        entries, n = I.shape[1], Ut.shape[1]
        acc = np.zeros((entries, n))
        run = max(1, _BATCH_CHUNK // (entries * max(n, 1)))
        for k in range(0, len(I), run):
            terms = Ut[I[k:k + run]]  # (slots, entries, N)
            terms *= C[k:k + run, :, None]
            terms *= Vt[J[k:k + run]]
            for t in terms:
                acc += t
        return acc.T


# elements per run of QuadraticTable.batch: its two temporaries stay below
# glibc's 128 KiB mmap threshold, so they come from the heap
_BATCH_CHUNK = 15 * 1024


# --- the bilinear products, as tables summed in the order of a loop over the
# first argument's coefficients, then the second's

@lru_cache(maxsize=None)
def _wedge_table(j, k):
    """a ∧ b as a bilinear table in (a, b), a of grade j and b of grade k,
    one entry per coefficient of the (j+k)-form: e_I ∧ e_J is the sign of
    sorting (I, J) times e_{I∪J}, or 0 when I and J meet."""
    entries = [{} for _ in COMBS[j + k]]
    for p, I in enumerate(COMBS[j]):
        for q, J in enumerate(COMBS[k]):
            sign, merged = merge_sign(I, J)
            if sign:
                entries[POS[j + k][merged]][p, q] = sign
    return QuadraticTable(entries)


@lru_cache(maxsize=None)
def _interior_table(k):
    """i_X ω on k-forms as a bilinear table in (ω, X), ω's coefficients and
    X's 6 components, one entry per coefficient of the (k−1)-form.

    i_{e_i}(e_i ∧ e_J) = e_J, so e_I, I = {i} ∪ J, contributes the sign of
    sorting (i, J).
    """
    entries = [{} for _ in COMBS[k - 1]]
    for q, J in enumerate(COMBS[k - 1]):
        for i in range(1, DIM + 1):
            sign, I = merge_sign((i,), J)
            if sign:
                entries[q][POS[k][I], i - 1] = sign
    return QuadraticTable(entries)


@lru_cache(maxsize=None)
def _bot_table(k):
    """i_B ω on k-forms, k ≥ 2, as a bilinear table in (B, ω), B's 15
    bivector coefficients and ω's, one entry per coefficient of the
    (k−2)-form; at B = X_Ω it is ⊥ω.

    With i_{e_i∧e_j} = i_{e_j} ∘ i_{e_i}, i_{e_i∧e_j}(e_i∧e_j∧e_J) = e_J, so
    e_I, I = {i, j} ∪ J ∋ i < j, contributes the sign of sorting (i, j, J).
    """
    entries = [{} for _ in COMBS[k - 2]]
    for p, B in enumerate(COMBS[2]):
        for q, J in enumerate(COMBS[k - 2]):
            sign, I = merge_sign(B, J)
            if sign:
                entries[q][p, POS[k][I]] = sign
    return QuadraticTable(entries)


def _all_rational(w):
    return all(isinstance(x, (int, Fraction)) for x in w)


def _all_real(w):
    return all(isinstance(x, (int, float, Fraction)) for x in w)


def _cleared(w):
    """(d, n) with w_I = n_I / d in ints, d the lcm of the denominators."""
    d = math.lcm(*(x.denominator for x in w))
    return d, [x.numerator * (d // x.denominator) for x in w]


# ε_d of the zero rule, by degree d: ⊥ω (1), q_ω and a piece's K (2), λ (4)
ZERO_EPS = {1: 1e-9, 2: 1e-9, 4: 1e-12}


def zero_tol(omega, d):
    """The one zero rule: a float invariant of degree d in ω is zero when its
    size is ≤ ε_d·|ω|^d, |ω| = max|ω_I|, a bound that scales as the invariant
    does.  That bound for a form with a float or complex coefficient, one
    per row for a float array of coefficient rows; else 0, zero being 0."""
    if not isinstance(omega, KForm):
        return ZERO_EPS[d] * abs(omega).max(axis=-1) ** d
    if any(isinstance(c, (float, complex)) for c in omega.coeffs):
        return ZERO_EPS[d] * omega.max_abs() ** d
    return 0


def interior_vector(X, omega):
    """Contraction i_X ω for a vector X (length-6 sequence)."""
    k = omega.grade
    if k < 1:
        raise GradeError("cannot contract a 0-form with a vector")
    return KForm(k - 1, _interior_table(k)(omega.coeffs, X))


class Bivector6:
    """An element of Λ²(V), stored like a 2-form over 2-index multi-indices."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != dim_grade(2):
            raise ValueError("Bivector6 needs C(6,2)=15 coefficients")
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, *a):
        raise AttributeError("Bivector6 is immutable")

    @classmethod
    def decomposable(cls, X, Y):
        """X ∧ Y for two vectors."""
        out = [0] * dim_grade(2)
        for (i, j), p in POS[2].items():
            out[p] = X[i - 1] * Y[j - 1] - X[j - 1] * Y[i - 1]
        return cls(out)

    def __getitem__(self, idx):
        return self.coeffs[POS[2][tuple(idx)]]

    def __eq__(self, other):
        return isinstance(other, Bivector6) and self.coeffs == other.coeffs

    def __repr__(self):
        return f"Bivector6{self.coeffs}"


def interior_bivector(B, omega):
    """Contraction i_B ω with the convention i_{X∧Y} = i_Y ∘ i_X.

    The convention is calibrated so that contraction of Ω0 with its dual
    bivector gives n = 3 (see symplectic module).
    """
    k = omega.grade
    if k < 2:
        raise GradeError("cannot contract a form of grade < 2 with a bivector")
    return KForm(k - 2, _bot_table(k)(B.coeffs, omega.coeffs))


# --- scalar helpers -------------------------------------------------------

class ExactComplex:
    """Complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, *a):
        raise AttributeError("ExactComplex is immutable")

    def _coerce(other):
        if isinstance(other, ExactComplex):
            return other
        if isinstance(other, (int, Fraction)):
            return ExactComplex(other)
        return None

    def __add__(self, other):
        o = ExactComplex._coerce(other)
        if o is None:
            return NotImplemented
        return ExactComplex(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = ExactComplex._coerce(other)
        if o is None:
            return NotImplemented
        return ExactComplex(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = ExactComplex._coerce(other)
        if o is None:
            return NotImplemented
        return ExactComplex(o.re - self.re, o.im - self.im)

    def __neg__(self):
        return ExactComplex(-self.re, -self.im)

    def __mul__(self, other):
        o = ExactComplex._coerce(other)
        if o is None:
            return NotImplemented
        return ExactComplex(self.re * o.re - self.im * o.im,
                            self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = ExactComplex._coerce(other)
        if o is None:
            return NotImplemented
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("division by zero ExactComplex")
        return ExactComplex((self.re * o.re + self.im * o.im) / d,
                            (self.im * o.re - self.re * o.im) / d)

    def __rtruediv__(self, other):
        o = ExactComplex._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __eq__(self, other):
        o = ExactComplex._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __abs__(self):
        # exact only when re*re+im*im is a perfect rational square
        from math import sqrt
        return sqrt(float(self.re * self.re + self.im * self.im))

    def conjugate(self):
        return ExactComplex(self.re, -self.im)

    def __repr__(self):
        return f"ExactComplex({self.re}, {self.im})"


def _conj(c):
    if isinstance(c, (complex, ExactComplex)):
        return c.conjugate()
    return c


def _re(c):
    if isinstance(c, complex):
        return c.real
    if isinstance(c, ExactComplex):
        return c.re
    return c


def _im(c):
    if isinstance(c, complex):
        return c.imag
    if isinstance(c, ExactComplex):
        return c.im
    return 0


def rational_sqrt(x):
    """Exact square root of a nonnegative Fraction, or None if irrational."""
    x = Fraction(x)
    if x < 0:
        raise ValueError("square root of negative rational")
    if x == 0:
        return Fraction(0)
    from math import isqrt
    n, d = x.numerator, x.denominator
    rn, rd = isqrt(n), isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None
