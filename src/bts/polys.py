"""Polynomials, resultants, and complex root finding.

Sparse multivariate polynomials with exact rational coefficients carry the
solvers' critical equations (their coefficients fill the hidden-variable
pencil of ``spectral``); dense univariate ones carry the distance
polynomials; univariate resultants, for the discriminants of binary forms,
are fraction-free (Bareiss) determinants of the Sylvester matrix.  Root
finding works in double precision: the eigenvalues of the companion matrix
(one LAPACK call, backward stable), followed by Newton polishing and
multiplicity clustering.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import comb
from typing import NamedTuple, Sequence

import numpy as np

from .scalars import Scalar
from .tensor import MuTensor

ROOT_RESIDUAL_TOL = 1e-10
CLUSTER_REL_TOL = 1e-7


class RootFindingError(RuntimeError):
    """Root iteration failed to converge; carries whatever roots were found."""

    def __init__(self, message: str, partial: list[complex]):
        super().__init__(message)
        self.partial = partial


# --- univariate polynomials --------------------------------------------------


@dataclass(frozen=True)
class UniPoly:
    """Dense univariate polynomial, coefficients ascending: a_0 + a_1 v + ...

    Trailing zero coefficients are stripped, so the leading coefficient is
    nonzero unless the polynomial is zero.  The variable name is cosmetic
    ("eps2" for distance polynomials in the squared distance).
    """

    coeffs: tuple[Scalar, ...]
    var: str = "eps2"

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
            return UniPoly((), self.var)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return UniPoly(tuple(out), self.var)

    @staticmethod
    def from_roots(roots: Sequence[complex], lead: Scalar = 1.0, var: str = "eps2") -> "UniPoly":
        p = UniPoly((lead,), var)
        for r in roots:
            p = p * UniPoly((-r, 1), var)
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


# --- root finding -------------------------------------------------------------


def _horner_pair(coeffs: np.ndarray, z: complex) -> tuple[complex, complex]:
    p, dp = 0j, 0j
    for c in coeffs[::-1]:
        dp = dp * z + p
        p = p * z + c
    return p, dp


def _newton_polish(coeffs: np.ndarray, z: complex, steps: int = 40) -> complex:
    for _ in range(steps):
        p, dp = _horner_pair(coeffs, z)
        if dp == 0:
            break
        step = p / dp
        z = z - step
        if abs(step) < 1e-15 * (1.0 + abs(z)):
            break
    return z


def _cluster(roots: Sequence[complex]) -> list[tuple[complex, int]]:
    """Greedy clustering at CLUSTER_REL_TOL relative distance; returns (mean, multiplicity)."""
    remaining = sorted(roots, key=lambda z: (z.real, z.imag))
    clusters: list[list[complex]] = []
    for z in remaining:
        for cl in clusters:
            c = sum(cl) / len(cl)
            if abs(z - c) <= CLUSTER_REL_TOL * max(1.0, abs(c)):
                cl.append(z)
                break
        else:
            clusters.append([z])
    return [(sum(cl) / len(cl), len(cl)) for cl in clusters]


def all_roots(p: UniPoly | Sequence[Scalar]) -> list[tuple[complex, int]]:
    """All complex roots with multiplicities, deterministically ordered.

    The coefficients are taken as complex floats.  The roots are the
    eigenvalues of the companion matrix, Newton-polished and clustered at
    CLUSTER_REL_TOL (a cluster of multiplicity m is polished again on the
    (m-1)-th derivative), and each is checked against a backward-error bound
    of ROOT_RESIDUAL_TOL; RootFindingError names the ones that fail it.
    """
    coeffs = p.coeffs if isinstance(p, UniPoly) else p
    c = np.array([complex(x) for x in coeffs], dtype=complex)
    if len(c) == 0 or not np.any(c != 0):
        raise ValueError("zero polynomial has no well-defined roots")
    scale = np.max(np.abs(c))
    c = c / scale
    while len(c) > 1 and abs(c[-1]) <= 1e-14:
        c = c[:-1]
    if len(c) <= 1:
        raise ValueError("degree must be at least 1")
    zero_mult = 0
    while abs(c[0]) <= 1e-300 and len(c) > 1:
        zero_mult += 1
        c = c[1:]

    polished = [_newton_polish(c, complex(z)) for z in np.roots(c[::-1])]
    clustered = _cluster(polished)
    final: list[tuple[complex, int]] = []
    for mean, mult in clustered:
        z = mean
        if mult > 1:
            dc = c
            for _ in range(mult - 1):
                dc = np.array([k * dc[k] for k in range(1, len(dc))], dtype=complex)
            z = _newton_polish(dc, z)
        final.append((z, mult))

    bad = []
    for z, mult in final:
        mags = np.abs(c) * np.maximum(1.0, abs(z)) ** np.arange(len(c))
        bound = ROOT_RESIDUAL_TOL * max(1.0, float(np.sum(mags)))
        res = abs(np.polyval(c[::-1], z))
        if res > bound:
            bad.append((z, res, bound))
    if bad:
        raise RootFindingError(
            f"{len(bad)} roots failed the residual bound, worst {max(b[1] for b in bad):.2e}",
            [z for z, _, _ in bad],
        )
    if zero_mult:
        final.append((0j, zero_mult))
    final.sort(key=lambda rm: (rm[0].real, rm[0].imag))
    return final


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
    return UniPoly(tuple(out), p.var)


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
