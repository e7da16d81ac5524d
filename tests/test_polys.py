"""Resultants, root finding, the reflection transform, and discriminants."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bts.combinatorics import Partition
from bts.polys import (
    MultiPoly,
    UniPoly,
    all_roots,
    discriminant_binary_form,
    reflect_edpoly,
    resultant_univariate,
)
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


# --- roots --------------------------------------------------------------------


def test_roots_simple_quadratic():
    roots = all_roots(UniPoly((Fraction(6), Fraction(-5), Fraction(1))))
    got = sorted(r.real for r, _ in roots)
    assert abs(got[0] - 2) < 1e-12 and abs(got[1] - 3) < 1e-12


def test_roots_conjugate_pair():
    roots = all_roots(UniPoly((1.0, 0.0, 1.0)))
    ims = sorted(r.imag for r, _ in roots)
    assert abs(ims[0] + 1) < 1e-12 and abs(ims[1] - 1) < 1e-12


@pytest.mark.parametrize(
    "coeffs, expected",
    [
        ((3.0, -2.0), [(1.5, 1)]),
        ((0.0, 0.0, -3.0, 1.0), [(0, 2), (3, 1)]),
        ((2.0, -3.0, 0.0, 1.0), [(-2, 1), (1, 2)]),
        (UniPoly.from_roots([-3.5, -2.0, -1.0, -0.25, 0.5, 1.5, 2.75, 4.0]).coeffs,
         [(r, 1) for r in (-3.5, -2.0, -1.0, -0.25, 0.5, 1.5, 2.75, 4.0)]),
        (UniPoly.from_roots([-1 - 2j, -1 + 2j, 1.0, -3.0]).coeffs,
         [(-3, 1), (-1 - 2j, 1), (-1 + 2j, 1), (1, 1)]),
    ],
    ids=["linear", "double-zero", "double-one", "eight-real", "pair-and-two-real"],
)
def test_float_roots_with_multiplicities(coeffs, expected):
    found = all_roots(UniPoly(tuple(coeffs)))
    assert [m for _, m in found] == [m for _, m in expected]
    for (z, _), (want, _) in zip(found, expected):
        assert abs(z - want) < 1e-9


def test_roots_double_root_multiplicity():
    # (x-1)^2 (x+2) (x^2+1), exact coefficients taken as floats
    p = UniPoly((Fraction(1),))
    for factor in ((-1, 1), (-1, 1), (2, 1), (1, 0, 1)):
        p = p * UniPoly(tuple(Fraction(c) for c in factor))
    found = all_roots(p)
    assert sorted(m for _, m in found) == [1, 1, 1, 2]
    assert [z for z, m in found if m == 2] == [pytest.approx(1.0, abs=1e-9)]
    assert [c for c, _ in found] == sorted((c for c, _ in found), key=lambda z: (z.real, z.imag))


@given(st.lists(fracs, min_size=3, max_size=6))
@settings(max_examples=30, deadline=None)
def test_root_coefficient_consistency(coeffs):
    p = UniPoly(tuple(coeffs))
    if p.degree < 1:
        return
    roots = all_roots(p)
    flat = [r for r, m in roots for _ in range(m)]
    a = [complex(c) for c in p.coeffs]
    total = sum(flat)
    prod = 1.0 + 0j
    for r in flat:
        prod *= r
    n = p.degree
    assert abs(total - (-a[n - 1] / a[n])) < 1e-9 * (1 + abs(total))
    assert abs(prod - (-1) ** n * a[0] / a[n]) < 1e-9 * (1 + abs(prod))
    # conjugation closure for real coefficients
    for r in flat:
        assert any(abs(r.conjugate() - s) < 1e-6 * (1 + abs(r)) for s in flat)


def test_roots_rejects_zero_polynomial():
    with pytest.raises(ValueError):
        all_roots(UniPoly((Fraction(0),)))


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
