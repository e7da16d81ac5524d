"""Closed-form rotation invariants of 2x2x2 tensors and their relatives.

Every printed formula is evaluated along two independent paths and
cross-asserted at construction time (exact equality on rational input,
1e-10 relative otherwise): a transcription slip in any of the long
expressions fails loudly instead of corrupting downstream results.

Rational input is evaluated over the integers: the entries are multiplied
by their common denominator D once, both paths run on ``int`` (where a
printed form divides, the cross-check is multiplied through), and each value
is divided by D to the power of its degree once, at the end.  The
polynomials are homogeneous, so the values are the same rationals, only
without a gcd after every product.  Complex intermediates (u-coordinates,
determinants of complexified slices) are explicit (re, im) pairs multiplied
as Python multiplies complex numbers, so int and float entries share one
code path and float values keep the bits of complex arithmetic; ``QQi``
appears only in the record's phi_1 and in the order-4 hyperdeterminant.

The four degree-two invariants theta_i and the quartic phi generate the
rotation-invariant ring of the 2x2x2 format together with the conjugate pair
phi_1, phi_2; the hyperdeterminant, the three quartic dual-variety factors
f_{3,{j}}, and the extreme coefficients of the dual distance polynomial are
polynomials in them.

Slot convention: the quartic factor attached to slot j is the one computed
from the slot-j slices; the theta-combination pairing below was pinned against
that slice form (the two printed versions disagree by a cyclic slot
relabeling, and the slice form is the geometrically unambiguous one).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Sequence

from .scalars import QQi, Scalar
from .tensor import BinaryTensor, MuTensor, compress, expand, permute_slots, slice_tensor


class FormulaCrossCheckError(RuntimeError):
    """Two independent evaluations of the same printed formula disagree."""


class DegenerateInputError(ValueError):
    """The input sits on a locus where the requested quantity is undefined."""


def _close(a: Scalar, b: Scalar, exact: bool, tol: float = 1e-10) -> bool:
    if exact:
        return a == b
    fa, fb = complex(a), complex(b)
    return abs(fa - fb) <= tol * (1.0 + abs(fa) + abs(fb))


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise FormulaCrossCheckError(f"cross-check failed: {what}")


@dataclass(frozen=True)
class InvariantSet222:
    """The full invariant record of one real 2x2x2 tensor."""

    theta: tuple[Scalar, Scalar, Scalar, Scalar]
    phi: Scalar
    phi1: Scalar  # complex (QQi when exact)
    det: Scalar
    f3: tuple[Scalar, Scalar, Scalar]
    exact: bool


def _cleared(t: BinaryTensor) -> tuple[tuple[int, ...], int]:
    """(the entries of D t, D): D the least common denominator of the rational entries, so D t has int entries."""
    if not all(isinstance(v, (int, Fraction)) for v in t.entries):
        raise TypeError("exact invariants need real rational entries")
    den = math.lcm(*(v.denominator for v in t.entries))
    return tuple(v.numerator * (den // v.denominator) for v in t.entries), den


def theta_t_forms(e: Sequence[Scalar]) -> tuple[Scalar, Scalar, Scalar, Scalar]:
    """The four degree-two invariants as printed squared sums of entry combinations."""
    t000, t001, t010, t011, t100, t101, t110, t111 = e
    th1 = (t000 - t011 - t101 - t110) ** 2 + (t111 - t100 - t010 - t001) ** 2
    th2 = (t000 + t011 + t101 - t110) ** 2 + (t111 + t100 + t010 - t001) ** 2
    th3 = (t000 + t011 - t101 + t110) ** 2 + (t111 + t100 - t010 + t001) ** 2
    th4 = (t000 - t011 + t101 + t110) ** 2 + (t111 - t100 + t010 + t001) ** 2
    return th1, th2, th3, th4


def phi_t_form(e: Sequence[Scalar]) -> Scalar:
    """The quartic invariant phi as the printed 46-term polynomial."""
    e0, e1, e2, e3, e4, e5, e6, e7 = e
    return (
        e0**4 + 2 * e0**2 * e1**2 + e1**4 + 2 * e0**2 * e2**2 - 2 * e1**2 * e2**2 + e2**4
        + 8 * e0 * e1 * e2 * e3 - 2 * e0**2 * e3**2 + 2 * e1**2 * e3**2 + 2 * e2**2 * e3**2
        + e3**4 + 2 * e0**2 * e4**2 - 2 * e1**2 * e4**2 - 2 * e2**2 * e4**2 - 6 * e3**2 * e4**2
        + e4**4 + 8 * e0 * e1 * e4 * e5 + 8 * e2 * e3 * e4 * e5 - 2 * e0**2 * e5**2
        + 2 * e1**2 * e5**2 - 6 * e2**2 * e5**2 - 2 * e3**2 * e5**2 + 2 * e4**2 * e5**2
        + e5**4 + 8 * e0 * e2 * e4 * e6 + 8 * e1 * e3 * e4 * e6 + 8 * e1 * e2 * e5 * e6
        - 8 * e0 * e3 * e5 * e6 - 2 * e0**2 * e6**2 - 6 * e1**2 * e6**2 + 2 * e2**2 * e6**2
        - 2 * e3**2 * e6**2 + 2 * e4**2 * e6**2 - 2 * e5**2 * e6**2 + e6**4
        - 8 * e1 * e2 * e4 * e7 + 8 * e0 * e3 * e4 * e7 + 8 * e0 * e2 * e5 * e7
        + 8 * e1 * e3 * e5 * e7 + 8 * e0 * e1 * e6 * e7 + 8 * e2 * e3 * e6 * e7
        + 8 * e4 * e5 * e6 * e7 - 6 * e0**2 * e7**2 - 2 * e1**2 * e7**2 - 2 * e2**2 * e7**2
        + 2 * e3**2 * e7**2 - 2 * e4**2 * e7**2 + 2 * e5**2 * e7**2 + 2 * e6**2 * e7**2
        + e7**4
    )


def _det2(a: Scalar, b: Scalar, c: Scalar, d: Scalar) -> Scalar:
    return a * d - b * c


def hyperdet_222(e: Sequence[Scalar]) -> Scalar:
    """Hyperdeterminant of a 2x2x2 array of arbitrary scalars, by the 2x2-minor form."""
    t000, t001, t010, t011, t100, t101, t110, t111 = e
    m1 = _det2(t000, t011, t100, t111)
    m2 = _det2(t010, t001, t110, t101)
    m3 = _det2(t000, t001, t100, t101)
    m4 = _det2(t010, t011, t110, t111)
    return (m1 + m2) ** 2 - 4 * m3 * m4


def _gauss_mul(x: tuple[Scalar, Scalar], y: tuple[Scalar, Scalar]) -> tuple[Scalar, Scalar]:
    """The product of two (re, im) pairs, grouped as Python multiplies complex numbers."""
    (xr, xi), (yr, yi) = x, y
    return xr * yr - xi * yi, xr * yi + xi * yr


def _norm(z: tuple[Scalar, Scalar]) -> Scalar:
    """|z|^2 of an (re, im) pair."""
    re, im = z
    return re * re + im * im


def _gauss_det2(re: Sequence[Scalar], im: Sequence[Scalar]) -> tuple[Scalar, Scalar]:
    """(re, im) of the determinant of the row-major 2x2 matrix re + i im, grouped as ``_det2`` on complex entries."""
    r0, r1, r2, r3 = re
    i0, i1, i2, i3 = im
    return (r0 * r3 - i0 * i3) - (r1 * r2 - i1 * i2), (r0 * i3 + i0 * r3) - (r1 * i2 + i1 * r2)


@cache
def _slice_index(d: int, j: int) -> tuple[tuple[int, ...], ...]:
    """The flat indices of slice(j, 0) and slice(j, 1) of an order-d tensor: the slices of the tensor of indices."""
    positions = BinaryTensor(d, tuple(range(1 << d)))
    return tuple(slice_tensor(positions, j, bit).entries for bit in (0, 1))


def _slice_factor(e: Sequence[Scalar], d: int, j: int, exact: bool) -> Scalar:
    """f_{d,{j}} of the dense order-3 or order-4 entries e, in their scalars.

    The conjugate product of the determinants of a +- i b (a, b the slot-j
    slices) is the norm of the first: det(a - i b) is the exact conjugate of
    det(a + i b), in floats too.
    """
    a, b = ([e[i] for i in index] for index in _slice_index(d, j))
    if d == 3:
        return _norm(_gauss_det2(a, b))
    h = hyperdet_222([QQi(x, y) if exact else complex(x, y) for x, y in zip(a, b)])
    return _norm((h.re, h.im) if exact else (h.real, h.imag))


def slice_factor(t: BinaryTensor | MuTensor, j: int) -> Scalar:
    """f_{d,{j}} for d in {3, 4}: the conjugate product of determinants of complexified slices.

    For d = 3 the 2x2 determinant, for d = 4 the 2x2x2 hyperdeterminant of
    slice(j,0) +- i slice(j,1).  Real and nonnegative on real input.  Exact
    input is evaluated on D t and divided by D^4 (d = 3) or D^8 (d = 4).
    """
    dense = expand(t)
    if dense.d not in (3, 4):
        raise ValueError("slice factors implemented for orders 3 and 4")
    if not dense.exact:
        return _slice_factor(dense.entries, dense.d, j, False)
    e, den = _cleared(dense)
    return Fraction(_slice_factor(e, dense.d, j, True), den ** (4 if dense.d == 3 else 8))


def _agree(value: Scalar, num: Scalar, den: int, exact: bool) -> bool:
    """value == num / den: multiplied through on exact input, as ``_close`` in floats."""
    if exact:
        return den * value == num
    return _close(value, num / den, False)


# the pairs (a, b) of an order-3 index, one slot at a time from the first: b is a with the slot's bit set
_SLOT_PAIRS = tuple((i, i | bit) for bit in (4, 2, 1) for i in range(8) if not i & bit)


def _u_coordinates(e: Sequence[Scalar]) -> list[tuple[Scalar, Scalar]]:
    """The u-coordinates of real order-3 entries e, as (re, im) pairs in the entries' scalars.

    u holds the coefficients in the isotropic basis z_0 = x_0 + i x_1,
    z_1 = x_0 - i x_1: every slot maps its pair (a, b) to (a - i b, a + i b),
    and the entry at the bitwise complement of I is the conjugate of the
    entry at I.
    """
    re, im = list(e), [0] * 8
    for i, k in _SLOT_PAIRS:
        ar, ai, br, bi = re[i], im[i], re[k], im[k]
        re[i], im[i], re[k], im[k] = ar + bi, ai - br, ar - bi, ai + br
    return list(zip(re, im))


def _cleared_invariants_222(t: BinaryTensor | MuTensor) -> tuple[InvariantSet222, int]:
    """(the invariant record of D t, D), every value computed twice.

    On exact input D is the common denominator of the entries and the record
    holds ints (phi1 a Gaussian integer); on float input D is 1 and t is used
    as it is.
    """
    dense = expand(t)
    if dense.d != 3:
        raise ValueError(f"need order 3, got {dense.d}")
    exact = dense.exact
    e, den = _cleared(dense) if exact else (dense.entries, 1)

    theta_a = theta_t_forms(e)
    phi_a = phi_t_form(e)

    u = _u_coordinates(e)
    # u indexed by bits (i1 i2 i3): products with the complementary index are real
    theta_b = [_gauss_mul(u[k], u[0b111 - k]) for k in range(4)]
    phi1 = _gauss_mul(_gauss_mul(_gauss_mul(u[0b001], u[0b010]), u[0b100]), u[0b111])
    phi2 = _gauss_mul(_gauss_mul(_gauss_mul(u[0b000], u[0b011]), u[0b101]), u[0b110])
    if exact:
        for k, (_, im) in enumerate(theta_b):
            _require(im == 0, f"theta_{k + 1} from u-products not real")
        _require(phi1[1] + phi2[1] == 0, "phi1 + phi2 not real")

    for k in range(4):
        _require(_close(theta_a[k], theta_b[k][0], exact), f"theta_{k + 1} paths disagree")
    _require(_agree(phi_a, phi1[0] + phi2[0], 2, exact), "phi paths disagree")

    th1, th2, th3, th4 = theta_a
    pairs = th1 * th2 + th1 * th3 + th1 * th4 + th2 * th3 + th2 * th4 + th3 * th4
    squares = th1**2 + th2**2 + th3**2 + th4**2
    det_theta_num = 2 * pairs - squares - 8 * phi_a
    det_a = hyperdet_222(e)
    _require(_agree(det_a, det_theta_num, 64, exact), "hyperdeterminant paths disagree")

    # slot-j slice factor equals the theta combination below (pinned numerically;
    # the product over j is the printed lowest-coefficient factor either way)
    combos = (
        th2 * th3 + th1 * th4 - 2 * phi_a,  # slot 1
        th1 * th3 + th2 * th4 - 2 * phi_a,  # slot 2
        th1 * th2 + th3 * th4 - 2 * phi_a,  # slot 3
    )
    f3 = []
    for j in range(1, 4):
        fa = _slice_factor(e, 3, j, exact)
        _require(_agree(fa, combos[j - 1], 16, exact), f"f_(3,{{{j}}}) paths disagree")
        f3.append(fa)

    prod_theta = th1 * th2 * th3 * th4
    _require(_close(prod_theta, _norm(phi1), exact, tol=1e-9), "theta product vs |phi1|^2")

    record = InvariantSet222(theta=tuple(theta_a), phi=phi_a, phi1=QQi(*phi1) if exact else complex(*phi1),
                             det=det_a, f3=tuple(f3), exact=exact)
    return record, den


def invariants_222(t: BinaryTensor | MuTensor) -> InvariantSet222:
    """All printed invariants of a real 2x2x2 tensor, every value computed twice.

    Path one uses the explicit entry formulas (squared sums, the 46-term
    quartic, the minor form of the hyperdeterminant, determinants of
    complexified slices); path two goes through the isotropic basis (products
    of u-coordinates, the theta/phi forms with their 1/64 and 1/16 factors).
    Exact input gives Fractions (phi1 a QQi with Fraction parts).
    """
    inv, den = _cleared_invariants_222(t)
    if not inv.exact:
        return inv
    d2, d4 = den**2, den**4
    return InvariantSet222(
        theta=tuple(Fraction(v, d2) for v in inv.theta),
        phi=Fraction(inv.phi, d4),
        phi1=QQi(Fraction(inv.phi1.re, d4), Fraction(inv.phi1.im, d4)),
        det=Fraction(inv.det, d4),
        f3=tuple(Fraction(v, d4) for v in inv.f3),
        exact=True,
    )


def _extreme_coeffs(inv: InvariantSet222, den: int = 1) -> tuple[Scalar, Scalar, Scalar]:
    """(a_0, a_5, a_6) from the invariant record of D t: a_k, of degree 20 - 2k, divided by D^(20 - 2k) once.

    D is 1 for the record of t itself.
    """
    th1, th2, th3, th4 = inv.theta
    a6 = th1 * th2 * th3 * th4
    a0 = inv.det**2 * inv.f3[0] * inv.f3[1] * inv.f3[2]
    triples = th1 * th2 * th3 + th1 * th2 * th4 + th1 * th3 * th4 + th2 * th3 * th4
    a5_num = triples * inv.phi - 3 * a6 * (th1 + th2 + th3 + th4)
    if not inv.exact:
        return a0, a5_num / 8, a6
    return Fraction(a0, den**20), Fraction(a5_num, 8 * den**10), Fraction(a6, den**8)


def extreme_coeffs_222(t: BinaryTensor | MuTensor) -> tuple[Scalar, Scalar, Scalar]:
    """(a_0, a_5, a_6) of the degree-6 dual distance polynomial of a 2x2x2 tensor.

    a_6 is the theta product, a_0 the squared hyperdeterminant times the three
    quartic factors, and a_5 the printed degree-10 expression whose ratio
    -a_5/a_6 is the sum of the squared singular values.
    """
    return _extreme_coeffs(*_cleared_invariants_222(t))


def extra_root(c: MuTensor, inv: InvariantSet222) -> Scalar:
    """The extra root of a (2,1)- or (3,)-symmetric ``c``, cross-checked against ``inv``, its record.

    The squared singular value the expanded tensor has beyond those of ``c``:
    doubled for mu = (2,1), tripled for mu = (3,); ValueError for any other
    shape.  A symmetric tensor is (2,1)-symmetric too, and its extra root is
    the one of that view.  Evaluated from the (2,1) compressed coordinates as
    a ratio of sums of squares, and cross-checked against the invariant form
    f_{3,{1}} / theta_dup on the expanded tensor (the pair of symmetric slots
    is 1,2; slots are rotated by the same angle, so both are rotation
    invariant).
    """
    if c.mu.parts not in ((2, 1), (3,)):
        raise ValueError(f"need mu = (2,1) or (3), got {c.mu}")
    if c.mu.parts == (3,):
        c = compress(expand(c), (2, 1))
    exact = c.exact
    c00, c01 = c[(0, 0)], c[(0, 1)]
    c10, c11 = c[(1, 0)], c[(1, 1)]
    c20, c21 = c[(2, 0)], c[(2, 1)]
    num = (c01 * c10 - c11 * c20 - c00 * c11 + c10 * c21) ** 2 + (c00 * c21 - c01 * c20) ** 2
    den = (c00 + c20) ** 2 + (c01 + c21) ** 2
    if (exact and den == 0) or (not exact and abs(den) < 1e-14):
        raise DegenerateInputError("isotropic configuration: denominator vanishes")
    value = Fraction(num, den) if exact else num / den
    th = inv.theta
    if not _close(inv.f3[0], inv.f3[1], exact, tol=1e-9):
        raise FormulaCrossCheckError("slot-1 and slot-2 quartic factors should coincide")
    if not _close(th[2], th[3], exact, tol=1e-9):
        raise FormulaCrossCheckError("theta_3 and theta_4 should coincide for this symmetry")
    if (exact and th[2] == 0) or (not exact and abs(complex(th[2])) < 1e-12):
        raise DegenerateInputError("isotropic configuration: the duplicated theta vanishes")
    check = inv.f3[0] / th[2]
    _require(_close(value, check, exact, tol=1e-11), "extra root (2,1): printed forms disagree")
    return value


def pair_factor_4(t: BinaryTensor, pair: tuple[int, int] = (1, 2)) -> Scalar:
    """f_{4,J} for a two-element J: product of four determinants of doubly complexified slices.

    Implemented natively for J = {1,2} from the four matrix slices t^(rs)
    (r, s the bits of the paired slots); other pairs by slot permutation.
    Real and nonnegative on real input.  Exact input is evaluated on D t and
    divided by D^8.
    """
    if t.d != 4:
        raise ValueError("pair factors are defined for order 4")
    j, k = sorted(pair)
    if not (1 <= j < k <= 4):
        raise ValueError(f"bad pair {pair}")
    order = [j - 1, k - 1] + [l for l in range(4) if l not in (j - 1, k - 1)]
    u = permute_slots(t, order)
    e, den = _cleared(u) if u.exact else (u.entries, 1)
    # the matrix slices t^(rs), row-major, in the order t^00, t^01, t^10, t^11
    m00, m01, m10, m11 = (e[4 * rs : 4 * rs + 4] for rs in range(4))
    # the determinants of (t00 +- i t10) +- i (t01 +- i t11) are d0, d1 and their conjugates,
    # multiplied in that order so that floats keep the bits of the complex product
    d0 = _gauss_det2([p - s for p, s in zip(m00, m11)], [q + r for q, r in zip(m01, m10)])
    d1 = _gauss_det2([p + s for p, s in zip(m00, m11)], [r - q for q, r in zip(m01, m10)])
    value = d0
    for d in (d1, (d1[0], -d1[1]), (d0[0], -d0[1])):
        value = _gauss_mul(value, d)
    return Fraction(value[0], den**8) if u.exact else value[0]


def isotropic_factor_symmetric(c: MuTensor) -> Scalar:
    """Delta_Q of a symmetric binary form: the pairing with the two isotropic d-th powers.

    A + iB is the form evaluated at (1, i); the value is A^2 + B^2, zero
    exactly when the form is apolar to one (hence both) of the conjugate
    isotropic powers.
    """
    if c.mu.s != 1:
        raise ValueError("need a fully symmetric tensor, mu = (d)")
    d = c.mu.d
    a: Scalar = 0
    b: Scalar = 0
    for jj in range(d + 1):
        w = math.comb(d, jj) * c[(jj,)]
        r = jj % 4
        if r == 0:
            a = a + w
        elif r == 1:
            b = b + w
        elif r == 2:
            a = a - w
        else:
            b = b - w
    return a * a + b * b
