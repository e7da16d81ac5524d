"""Polynomials, resultants, and exact square-free decomposition.

Sparse multivariate polynomials with exact rational coefficients are the
exact type of the tests' oracle for the critical equations (``spectral``
reads its pencil map off index bits and builds none); dense univariate ones
carry the distance polynomials; univariate resultants, for the discriminants of binary forms,
are fraction-free (Bareiss) determinants of the Sylvester matrix.  The
square-free decomposition (Yun) runs over the integers once the common
denominator is cleared, and gives exact root multiplicities; the roots
themselves are found by ``spectral``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import zip_longest
from math import comb, gcd, lcm
from typing import NamedTuple, Sequence

import numpy as np

from .scalars import Scalar
from .tensor import MuTensor

# --- univariate polynomials --------------------------------------------------


@dataclass(frozen=True)
class UniPoly:
    """Dense univariate polynomial, coefficients ascending: a_0 + a_1 v + ...

    Trailing zero coefficients are stripped, so the leading coefficient is
    nonzero unless the polynomial is zero.
    """

    coeffs: tuple[Scalar, ...]

    def __post_init__(self) -> None:
        cs = list(self.coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1 if self.coeffs else -1

    def __call__(self, x: Scalar) -> Scalar:
        acc: Scalar = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        if not self.coeffs or not other.coeffs:
            return UniPoly(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return UniPoly(tuple(out))

    @staticmethod
    def from_roots(roots: Sequence[complex], lead: Scalar = 1.0) -> "UniPoly":
        p = UniPoly((lead,))
        for r in roots:
            p = p * UniPoly((-r, 1))
        return p


# --- sparse multivariate polynomials ------------------------------------------


@dataclass(frozen=True)
class MultiPoly:
    """Sparse polynomial over named variables with exact rational coefficients."""

    vars: tuple[str, ...]
    terms: dict[tuple[int, ...], Fraction]

    def __post_init__(self) -> None:
        clean = {e: Fraction(c) for e, c in self.terms.items() if c != 0}
        object.__setattr__(self, "terms", clean)

    def degree_in(self, name: str) -> int:
        i = self.vars.index(name)
        return max((e[i] for e in self.terms), default=-1) if self.terms else -1

    def coefficients_in(self, name: str) -> list["MultiPoly"]:
        """Coefficients of powers of ``name``, ascending, as polynomials in the other variables."""
        i = self.vars.index(name)
        deg = self.degree_in(name)
        if deg < 0:
            return []
        rest = tuple(v for v in self.vars if v != name)
        buckets: list[dict[tuple[int, ...], Fraction]] = [{} for _ in range(deg + 1)]
        for e, c in self.terms.items():
            re = tuple(x for j, x in enumerate(e) if j != i)
            buckets[e[i]][re] = buckets[e[i]].get(re, Fraction(0)) + c
        return [MultiPoly(rest, b) for b in buckets]

    def __call__(self, **values: Fraction | int | float | complex) -> Scalar:
        """Exact at rational values; otherwise each coefficient is first made a float."""
        exact = all(isinstance(v, (Fraction, int)) for v in values.values())
        point = [values.get(name) for name in self.vars]
        acc: Scalar = 0
        for e, c in self.terms.items() if exact else self._float_terms:
            term: Scalar = c
            for v, power in zip(point, e):
                if power:
                    term = term * v**power
            acc = acc + term
        return acc

    @cached_property
    def _float_terms(self) -> list[tuple[tuple[int, ...], float]]:
        return [(e, float(c)) for e, c in self.terms.items()]


def sylvester_matrix(p_coeffs: Sequence[Scalar], q_coeffs: Sequence[Scalar], zero: Scalar) -> list[list[Scalar]]:
    """Sylvester matrix of two polynomials given by ascending coefficient lists, padded with ``zero``."""
    m, n = len(p_coeffs) - 1, len(q_coeffs) - 1
    size = m + n
    mat = [[zero] * size for _ in range(size)]
    for r in range(n):
        for i in range(m + 1):
            mat[r][r + i] = p_coeffs[m - i]
    for r in range(m):
        for i in range(n + 1):
            mat[n + r][r + i] = q_coeffs[n - i]
    return mat


def resultant_univariate(p_coeffs: Sequence[Fraction], q_coeffs: Sequence[Fraction]) -> Fraction:
    """Resultant of two univariate polynomials given by ascending exact coefficients.

    The formal degrees are taken from the list lengths, so callers eliminating
    a variable from binary forms keep roots at infinity accounted for.  The
    determinant is taken by fraction-free (Bareiss) elimination with row
    swaps: 0 once no nonzero pivot is left, 1 for the empty matrix.
    """
    mat = sylvester_matrix([Fraction(c) for c in p_coeffs], [Fraction(c) for c in q_coeffs], Fraction(0))
    n, sign, prev = len(mat), 1, Fraction(1)
    for k in range(n):
        pivot = next((r for r in range(k, n) if mat[r][k] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            mat[k], mat[pivot] = mat[pivot], mat[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                mat[i][j] = (mat[i][j] * mat[k][k] - mat[i][k] * mat[k][j]) / prev
        prev = mat[k][k]
    return sign * mat[-1][-1] if n else Fraction(1)


# --- square-free decomposition ------------------------------------------------
# Integer polynomials are ascending lists without trailing zeros; [] is zero.


def _strip(p: list[int]) -> list[int]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _primitive(p: list[int]) -> list[int]:
    """Nonzero p divided by the gcd of its coefficients, its leading coefficient made positive."""
    g = gcd(*p)
    return [c // (g if p[-1] > 0 else -g) for c in p]


def _derivative(p: list[int]) -> list[int]:
    return [k * c for k, c in enumerate(p)][1:]


def _divide(p: list[int], q: list[int]) -> list[int]:
    """The quotient p / q, for a q that divides p over the integers."""
    p = list(p)
    out = [0] * max(len(p) - len(q) + 1, 0)
    for k in reversed(range(len(out))):
        out[k] = p[k + len(q) - 1] // q[-1]
        for j, c in enumerate(q):
            p[k + j] -= out[k] * c
    return out


def _gcd(p: list[int], q: list[int]) -> list[int]:
    """The primitive gcd of nonzero p and q, by a primitive pseudo-remainder sequence."""
    p, q = _primitive(p), _primitive(q)
    while len(q) > 1:
        while len(p) >= len(q):
            shift = len(p) - len(q)
            p = _strip([c * q[-1] - p[-1] * (q[k - shift] if k >= shift else 0) for k, c in enumerate(p)])
        if not p:
            return q
        p, q = q, _primitive(p)
    return [1]


def square_free_decomposition(coeffs: Sequence[Fraction | int | float]) -> list[tuple[list[int], int]]:
    """Yun's square-free decomposition of a nonzero polynomial (ascending coefficients), exactly.

    A float is taken as the rational it is, and the split runs over the
    integers once the common denominator is cleared.  Returns the pairs
    (factor, i), i ascending, whose product of factor^i is the input up to a
    constant: each factor a primitive, square-free integer polynomial of
    degree >= 1 with a positive leading coefficient, the factors pairwise
    coprime.  A constant gives []; the zero polynomial raises ValueError.
    """
    exact = [Fraction(c) for c in coeffs]
    den = lcm(*(c.denominator for c in exact))
    f = _strip([int(c * den) for c in exact])
    if not f:
        raise ValueError("the zero polynomial has no square-free decomposition")
    if len(f) == 1:
        return []
    df = _derivative(f)
    a = _gcd(f, df)
    b, c = _divide(f, a), _divide(df, a)
    out = []
    i = 1
    while len(b) > 1:
        # b is the product of the factors of multiplicity >= i, and gcd(b, c - b') the one of i
        d = _strip([x - y for x, y in zip_longest(c, _derivative(b), fillvalue=0)])
        a = _gcd(b, d) if d else _primitive(b)
        if len(a) > 1:
            out.append((a, i))
        b, c = _divide(b, a), _divide(d, a)
        i += 1
    return out


# --- distance-polynomial specific transforms ----------------------------------


def reflect_edpoly(p: UniPoly, qt: Scalar) -> UniPoly:
    """Substitute eps^2 -> q~(t) - eps^2 in a polynomial in eps^2.

    b_k = (-1)^k sum_{j>=k} C(j,k) qt^{j-k} a_j.  Exactly an involution over
    the rationals; swaps the primal and dual distance polynomials.
    """
    a = p.coeffs
    n = len(a) - 1
    if n < 0:
        return p
    out = []
    for k in range(n + 1):
        acc: Scalar = 0
        for j in range(k, n + 1):
            acc = acc + comb(j, k) * qt ** (j - k) * a[j]
        out.append(acc if k % 2 == 0 else -acc)
    return UniPoly(tuple(out))


class Discriminant(NamedTuple):
    value: Scalar
    degenerate: bool


def discriminant_binary_form(c: MuTensor) -> Discriminant:
    """Discriminant of the binary form carried by a symmetric tensor.

    The form is sum_j C(d,j) c_j x0^(d-j) x1^j; the discriminant is the
    resultant of its two partial derivatives, degree 2(d-1) in the c_j,
    vanishing exactly when the form has a repeated projective root.  At d = 2
    this equals 4ac - b^2, i.e. the classical b^2 - 4ac times -1 (documented
    fixed constant).  The identically zero form returns 0 with the degenerate
    flag set.
    """
    if c.mu.s != 1:
        raise ValueError("discriminant needs a fully symmetric tensor, mu = (d)")
    d = c.mu.d
    if d < 2:
        raise ValueError("discriminant needs degree at least 2")
    exact = c.exact
    coeffs = [c.c[(j,)] * comb(d, j) if exact else float(c.c[(j,)]) * comb(d, j) for j in range(d + 1)]
    if all(v == 0 for v in coeffs):
        return Discriminant(Fraction(0) if exact else 0.0, True)
    # ascending in the x1-degree; formal degree d-1 kept so roots at infinity count
    d0 = [(d - j) * coeffs[j] for j in range(d)]
    d1 = [(j + 1) * coeffs[j + 1] for j in range(d)]
    if exact:
        value: Scalar = resultant_univariate([Fraction(v) for v in d0], [Fraction(v) for v in d1])
    else:
        value = float(np.linalg.det(np.array(sylvester_matrix(d0, d1, 0.0), dtype=float)))
    return Discriminant(value, False)
