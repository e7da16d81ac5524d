"""Resultants, square-free decomposition and roots, the reflection transform, and discriminants."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bts.combinatorics import Partition
from bts.polys import (
    MultiPoly,
    UniPoly,
    discriminant_binary_form,
    reflect_edpoly,
    resultant_univariate,
    square_free_decomposition,
)
from bts.spectral import _polynomial_roots
from bts.tensor import MuTensor

fracs = st.fractions(min_value=-5, max_value=5, max_denominator=6)


# --- resultants -------------------------------------------------------------


def test_resultant_distinct_roots_nonzero():
    assert resultant_univariate([Fraction(-1), Fraction(1)], [Fraction(-2), Fraction(1)]) == -1


def test_resultant_shared_root_zero():
    p = [Fraction(-3), Fraction(1)]
    assert resultant_univariate(p, p) == 0


def test_multipoly_call_exact_and_float():
    # x^2 y + 1/3 over (x, y)
    p = MultiPoly(("x", "y"), {(2, 1): Fraction(1), (0, 0): Fraction(1, 3)})
    assert p(x=0.5j, y=2.0) == Fraction(1, 3) - 0.5
    assert p(x=Fraction(1, 2), y=2) == Fraction(5, 6)  # still exact after a float evaluation


@given(st.lists(fracs, min_size=2, max_size=3), st.lists(fracs, min_size=2, max_size=3),
       st.lists(fracs, min_size=2, max_size=3))
@settings(max_examples=40, deadline=None)
def test_resultant_multiplicative(pc, qc, rc):
    p, q, r = UniPoly(tuple(pc)), UniPoly(tuple(qc)), UniPoly(tuple(rc))
    if p.degree < 1 or q.degree < 1 or r.degree < 1:
        return
    lhs = resultant_univariate((p * q).coeffs, r.coeffs)
    assert lhs == resultant_univariate(p.coeffs, r.coeffs) * resultant_univariate(q.coeffs, r.coeffs)


def test_resultant_univariate_formal_degrees():
    # 3*x0^2 and 3*x1^2 as binary quadratics share no projective root
    assert resultant_univariate([Fraction(3), Fraction(0), Fraction(0)],
                                [Fraction(0), Fraction(0), Fraction(3)]) == 81


# --- square-free decomposition and roots -----------------------------------------


def roots(p: UniPoly) -> list[tuple[complex, int]]:
    """The roots of p with their multiplicities, ordered by (real, imag)."""
    return sorted(_polynomial_roots(p.coeffs), key=lambda rm: (rm[0].real, rm[0].imag))


def test_roots_simple_quadratic():
    found = roots(UniPoly((Fraction(6), Fraction(-5), Fraction(1))))
    got = sorted(complex(r).real for r, _ in found)
    assert abs(got[0] - 2) < 1e-12 and abs(got[1] - 3) < 1e-12


def test_roots_conjugate_pair():
    found = roots(UniPoly((1.0, 0.0, 1.0)))
    ims = sorted(complex(r).imag for r, _ in found)
    assert abs(ims[0] + 1) < 1e-12 and abs(ims[1] - 1) < 1e-12


@pytest.mark.parametrize(
    "coeffs, expected, factors",
    [
        ((3.0, -2.0), [(1.5, 1)], [([-3, 2], 1)]),
        ((0.0, 0.0, -3.0, 1.0), [(0, 2), (3, 1)], [([-3, 1], 1), ([0, 1], 2)]),
        ((2.0, -3.0, 0.0, 1.0), [(-2, 1), (1, 2)], [([2, 1], 1), ([-1, 1], 2)]),
        (UniPoly.from_roots([-3.5, -2.0, -1.0, -0.25, 0.5, 1.5, 2.75, 4.0]).coeffs,
         [(r, 1) for r in (-3.5, -2.0, -1.0, -0.25, 0.5, 1.5, 2.75, 4.0)], None),
        (UniPoly.from_roots([-1 - 2j, -1 + 2j, 1.0, -3.0]).coeffs,
         [(-3, 1), (-1 - 2j, 1), (-1 + 2j, 1), (1, 1)], None),
    ],
    ids=["linear", "double-zero", "double-one", "eight-real", "pair-and-two-real"],
)
def test_float_roots_with_multiplicities(coeffs, expected, factors):
    assert all(complex(c).imag == 0 for c in coeffs)
    coeffs = [complex(c).real for c in coeffs]
    if factors is not None:
        assert square_free_decomposition(coeffs) == factors
    else:
        assert [i for _, i in square_free_decomposition(coeffs)] == [1]
    found = roots(UniPoly(tuple(coeffs)))
    assert [m for _, m in found] == [m for _, m in expected]
    for (z, _), (want, _) in zip(found, expected):
        assert abs(z - want) < 1e-9


def test_roots_double_root_multiplicity():
    # (x-1)^2 (x+2) (x^2+1), exact coefficients
    p = UniPoly((Fraction(1),))
    for factor in ((-1, 1), (-1, 1), (2, 1), (1, 0, 1)):
        p = p * UniPoly(tuple(Fraction(c) for c in factor))
    assert square_free_decomposition(p.coeffs) == [([2, 1, 2, 1], 1), ([-1, 1], 2)]
    found = roots(p)
    assert sorted(m for _, m in found) == [1, 1, 1, 2]
    assert [z for z, m in found if m == 2] == [pytest.approx(1.0, abs=1e-9)]


def test_roots_of_a_triple_root_are_exact():
    # 4 (x+1)^3 (x-1): the critical form of the symmetric quartic (x0+x1)^4
    assert square_free_decomposition([-4, -8, 0, 8, 4]) == [([-1, 1], 1), ([1, 1], 3)]
    assert roots(UniPoly((-4, -8, 0, 8, 4))) == [(-1.0, 3), (1.0, 1)]


def test_square_free_decomposition_takes_floats_exactly():
    # 1/3 rounds to a float whose exact value the split keeps; 0.5 x + float(1/3) is one factor
    assert square_free_decomposition([1 / 3, 0.5]) == [([6004799503160661, 9007199254740992], 1)]
    assert square_free_decomposition([Fraction(1, 3), Fraction(1, 2)]) == [([2, 3], 1)]
    assert square_free_decomposition([Fraction(7, 2)]) == []


def product_of_powers(factors: list[tuple[list[int], int]]) -> UniPoly:
    out = UniPoly((Fraction(1),))
    for factor, i in factors:
        for _ in range(i):
            out = out * UniPoly(tuple(Fraction(c) for c in factor))
    return out


@given(st.lists(st.tuples(st.lists(fracs, min_size=2, max_size=3), st.integers(1, 3)), min_size=1, max_size=3))
@settings(max_examples=60, deadline=None)
def test_square_free_decomposition_rebuilds_the_polynomial(parts):
    p = product_of_powers([(f, i) for f, i in parts if UniPoly(tuple(f)).degree >= 1])
    factors = square_free_decomposition(p.coeffs)
    rebuilt = product_of_powers(factors)
    assert rebuilt.degree == p.degree
    ratio = Fraction(p.coeffs[-1]) / rebuilt.coeffs[-1]
    assert p.coeffs == tuple(ratio * c for c in rebuilt.coeffs)
    assert [i for _, i in factors] == sorted({i for _, i in factors})
    for k, (f, _) in enumerate(factors):
        assert f[-1] > 0 and UniPoly(tuple(f)).degree >= 1
        # square-free and pairwise coprime: no common root with f' or with another factor
        assert resultant_univariate(f, [j * c for j, c in enumerate(f)][1:]) != 0
        for g, _ in factors[k + 1:]:
            assert resultant_univariate(f, g) != 0


@given(st.lists(fracs, min_size=3, max_size=6))
@settings(max_examples=30, deadline=None)
def test_root_coefficient_consistency(coeffs):
    p = UniPoly(tuple(coeffs))
    if p.degree < 1:
        return
    flat = [complex(r) for r, m in roots(p) for _ in range(m)]
    a = [complex(c) for c in p.coeffs]
    total = sum(flat)
    prod = 1.0 + 0j
    for r in flat:
        prod *= r
    n = p.degree
    assert len(flat) == n
    assert abs(total - (-a[n - 1] / a[n])) < 1e-9 * (1 + abs(total))
    assert abs(prod - (-1) ** n * a[0] / a[n]) < 1e-9 * (1 + abs(prod))
    # conjugation closure for real coefficients
    for r in flat:
        assert any(abs(r.conjugate() - s) < 1e-6 * (1 + abs(r)) for s in flat)


def test_roots_rejects_zero_polynomial():
    with pytest.raises(ValueError):
        square_free_decomposition(UniPoly((Fraction(0),)).coeffs)
    with pytest.raises(ValueError):
        square_free_decomposition([0.0, 0.0])


# --- reflection -----------------------------------------------------------------


def test_reflect_sign_flip_at_zero():
    p = UniPoly((Fraction(3), Fraction(5), Fraction(7)))
    r = reflect_edpoly(p, Fraction(0))
    assert r.coeffs == (Fraction(3), Fraction(-5), Fraction(7))


def test_reflect_degree_one_by_hand():
    r = reflect_edpoly(UniPoly((Fraction(4), Fraction(3))), Fraction(5))
    assert r.coeffs == (Fraction(19), Fraction(-3))


@given(st.lists(fracs, min_size=1, max_size=7), fracs)
@settings(max_examples=60, deadline=None)
def test_reflect_involution_exact(coeffs, qt):
    p = UniPoly(tuple(coeffs))
    assert reflect_edpoly(reflect_edpoly(p, qt), qt).coeffs == p.coeffs


def test_reflect_top_coefficient_up_to_sign():
    p = UniPoly((Fraction(2), Fraction(-3), Fraction(5), Fraction(11)))
    r = reflect_edpoly(p, Fraction(9))
    assert r.coeffs[-1] == -p.coeffs[-1]  # odd top degree


# --- discriminants ---------------------------------------------------------------


def sym(vals):
    d = len(vals) - 1
    return MuTensor(Partition((d,)), {(j,): Fraction(v) for j, v in enumerate(vals)})


def test_discriminant_double_root_vanishes():
    # x0^2 x1 has a double projective root; its c-vector is (0, 1/3, 0, 0)
    assert discriminant_binary_form(sym([0, Fraction(1, 3), 0, 0])).value == 0


def test_discriminant_distinct_roots_nonzero():
    # x0^3 - x0 x1^2 = x0(x0-x1)(x0+x1)
    assert discriminant_binary_form(sym([1, 0, Fraction(-1, 3), 0])).value != 0


def test_discriminant_quadratic_convention():
    # x0^2 - x1^2: our value is 4 = -(b^2-4ac); fixed documented constant -1
    assert discriminant_binary_form(sym([1, 0, -1])).value == 4
    assert discriminant_binary_form(sym([1, 0, 0])).value == 0


def test_discriminant_zero_form_degenerate_flag():
    res = discriminant_binary_form(sym([0, 0, 0]))
    assert res.value == 0 and res.degenerate


def test_discriminant_homogeneity():
    base = [1, Fraction(1, 2), -2, 3]
    d1 = discriminant_binary_form(sym(base)).value
    d2 = discriminant_binary_form(sym([3 * v for v in base])).value
    assert d2 == 3 ** (2 * (3 - 1)) * d1  # degree 2(d-1) in the coefficients
