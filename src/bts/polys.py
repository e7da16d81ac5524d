"""Exact polynomial arithmetic, resultants, and complex root finding.

The elimination pipeline runs entirely over the rationals: sparse multivariate
polynomials with Fraction coefficients (the solvers' chart resultants are
closed forms in ``spectral``), and univariate resultants as fraction-free
(Bareiss) determinants of the Sylvester matrix.  Root finding is the one
inexact step: the eigenvalues of the companion matrix (one LAPACK call,
backward stable), followed by Newton polishing and multiplicity clustering.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import comb, lcm
from typing import NamedTuple, Sequence

import numpy as np

from .scalars import Scalar
from .tensor import MuTensor

ROOT_RESIDUAL_TOL = 1e-10
CLUSTER_REL_TOL = 1e-7
SQUARE_FREE_PRIME = 2**61 - 1


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

    @property
    def exact(self) -> bool:
        return all(isinstance(c, (Fraction, int)) for c in self.coeffs)

    def __call__(self, x: Scalar) -> Scalar:
        acc: Scalar = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "UniPoly":
        return UniPoly(tuple(k * c for k, c in enumerate(self.coeffs) if k > 0), self.var)

    def monic(self) -> "UniPoly":
        if not self.coeffs:
            return self
        lead = self.coeffs[-1]
        return UniPoly(tuple(c / lead for c in self.coeffs), self.var)

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


def _divmod(u: list[Fraction], v: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    """Quotient and remainder of u by v, ascending coefficients; v's last one is nonzero.

    The remainder has its trailing zeros stripped.
    """
    r = u[:]
    q = [Fraction(0)] * max(len(u) - len(v) + 1, 0)
    for k in range(len(q) - 1, -1, -1):
        f = r[k + len(v) - 1] / v[-1]
        q[k] = f
        for i, cv in enumerate(v):
            r[k + i] -= f * cv
    while r and r[-1] == 0:
        r.pop()
    return q, r


def poly_gcd(p: UniPoly, q: UniPoly) -> UniPoly:
    """Monic gcd over the rationals (Euclid)."""
    a = [Fraction(c) for c in p.coeffs]
    b = [Fraction(c) for c in q.coeffs]
    while b:
        a, b = b, _divmod(a, b)[1]
    if not a:
        return UniPoly(())
    lead = a[-1]
    return UniPoly(tuple(c / lead for c in a))


def _poly_divide_exact(a: UniPoly, b: UniPoly) -> UniPoly:
    """Exact quotient a / b over the rationals (remainder must vanish)."""
    quot, rem = _divmod([Fraction(c) for c in a.coeffs], [Fraction(c) for c in b.coeffs])
    if rem:
        raise ValueError("inexact polynomial division")
    return UniPoly(tuple(quot), a.var)


def _square_free_mod_prime(p: UniPoly) -> bool:
    """True if gcd(u, u') is constant mod SQUARE_FREE_PRIME, where u is p with denominators cleared.

    When the prime does not divide the leading coefficient of u, reduction
    keeps the degrees of u and u', so a constant gcd mod the prime means
    Res(u, u') is nonzero mod the prime, hence nonzero: a proof that p is
    square-free over the rationals.  False proves nothing.
    """
    P = SQUARE_FREE_PRIME
    coeffs = [Fraction(c) for c in p.coeffs]
    den = lcm(*(c.denominator for c in coeffs))
    u = [c.numerator * (den // c.denominator) % P for c in coeffs]
    if u[-1] == 0:
        return False
    a, b = u, [k * c % P for k, c in enumerate(u)][1:]
    while b:
        inv = pow(b[-1], -1, P)
        while len(a) >= len(b):
            f = a[-1] * inv % P
            shift = len(a) - len(b)
            for i, cb in enumerate(b):
                a[shift + i] = (a[shift + i] - f * cb) % P
            while a and a[-1] == 0:
                a.pop()
        a, b = b, a
    return len(a) == 1


def square_free_decomposition(p: UniPoly) -> list[tuple[UniPoly, int]]:
    """Yun's decomposition p = prod f_k^k with the f_k square-free and coprime.

    A square-free p is recognized first by ``_square_free_mod_prime`` on
    the monic p and returned as ``[(p.monic(), 1)]``, which is what Yun gives
    for it; exact Yun runs only when that certificate fails (a repeated
    factor, or the prime dividing the cleared leading coefficient).
    """
    if not p.exact:
        raise ValueError("square-free decomposition needs exact coefficients")
    if p.degree < 1:
        return []
    p = p.monic()
    if _square_free_mod_prime(p):
        return [(p, 1)]
    dp = p.derivative()
    a = poly_gcd(p, dp)
    if a.degree <= 0:
        return [(p, 1)]
    b = _poly_divide_exact(p, a)
    c = _poly_divide_exact(dp, a)
    out: list[tuple[UniPoly, int]] = []
    k = 1
    while b.degree >= 1:
        d = UniPoly(
            tuple(Fraction(x) - Fraction(y) for x, y in _zip_pad(c.coeffs, b.derivative().coeffs)), p.var
        )
        a = poly_gcd(b, d)
        if a.degree >= 1:
            out.append((a.monic(), k))
            b, c = _poly_divide_exact(b, a), _poly_divide_exact(d, a)
        else:
            c = d
        k += 1
    return out


def _zip_pad(a: Sequence[Scalar], b: Sequence[Scalar]):
    n = max(len(a), len(b))
    for i in range(n):
        yield (a[i] if i < len(a) else 0, b[i] if i < len(b) else 0)


# --- sparse multivariate polynomials ------------------------------------------


@dataclass(frozen=True)
class MultiPoly:
    """Sparse polynomial over named variables with exact rational coefficients."""

    vars: tuple[str, ...]
    terms: dict[tuple[int, ...], Fraction]

    def __post_init__(self) -> None:
        clean = {e: Fraction(c) for e, c in self.terms.items() if c != 0}
        object.__setattr__(self, "terms", clean)

    def _check(self, other: "MultiPoly") -> None:
        if self.vars != other.vars:
            raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) - c
        return MultiPoly(self.vars, out)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        out: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return MultiPoly(self.vars, out)

    @property
    def is_zero(self) -> bool:
        return not self.terms

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

    def to_unipoly(self, name: str, var_label: str | None = None) -> UniPoly:
        i = self.vars.index(name)
        for e in self.terms:
            if any(x != 0 for j, x in enumerate(e) if j != i):
                raise ValueError(f"polynomial is not univariate in {name}")
        deg = self.degree_in(name)
        coeffs = [Fraction(0)] * (deg + 1)
        for e, c in self.terms.items():
            coeffs[e[i]] = c
        return UniPoly(tuple(coeffs), var_label or name)

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

    Exact coefficients go through ``square_free_decomposition`` first (a gcd
    mod a large prime proves the usual square-free case, exact Yun handles
    the rest), so multiplicities are rigorous and each factor has only
    simple roots.  Float coefficients take their roots as the eigenvalues of
    the companion matrix, clustered at CLUSTER_REL_TOL; every root is
    Newton-polished (clusters of multiplicity m on the (m-1)-th derivative)
    and checked against a backward-error bound of ROOT_RESIDUAL_TOL.
    """
    coeffs = tuple(p.coeffs) if isinstance(p, UniPoly) else tuple(p)
    if all(isinstance(c, (Fraction, int)) for c in coeffs) and len(coeffs) > 2:
        exact = UniPoly(tuple(Fraction(c) for c in coeffs))
        if exact.degree >= 2:
            out: list[tuple[complex, int]] = []
            for factor, mult in square_free_decomposition(exact):
                for root, m in _all_roots_float(factor.coeffs):
                    out.append((root, m * mult))
            out.sort(key=lambda rm: (rm[0].real, rm[0].imag))
            return out
    return _all_roots_float(coeffs)


def _all_roots_float(coeffs: Sequence[Scalar]) -> list[tuple[complex, int]]:
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
