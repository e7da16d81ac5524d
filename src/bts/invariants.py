"""Closed-form rotation invariants of 2x2x2 tensors and their relatives.

Every printed formula is evaluated along two independent paths and
cross-asserted at construction time (exact equality on rational input,
1e-10 relative otherwise): a transcription slip in any of the long
expressions fails loudly instead of corrupting downstream results.

Rational input is evaluated over the integers: the entries are multiplied
by their common denominator D once, both paths run on ``int`` and Gaussian
integers (where a printed form divides, the cross-check is multiplied
through), and each value is divided by D to the power of its degree once,
at the end.  The polynomials are homogeneous, so the values are the same
rationals, only without a gcd after every product.

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
from typing import Sequence

from .scalars import QQi, Scalar
from .tensor import (
    BinaryTensor,
    MuTensor,
    compress,
    expand,
    permute_slots,
    slice_tensor,
    to_u_coordinates,
)


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


def _cleared(t: BinaryTensor) -> tuple[BinaryTensor, int]:
    """(D t, D): D the least common denominator of the rational entries, so D t has int entries."""
    if not all(isinstance(v, (int, Fraction)) for v in t.entries):
        raise TypeError("exact invariants need real rational entries")
    den = math.lcm(*(v.denominator for v in t.entries))
    return BinaryTensor(t.d, tuple(v.numerator * (den // v.denominator) for v in t.entries)), den


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


def _complexify(a: Sequence[Scalar], b: Sequence[Scalar], sign: int, exact: bool) -> list[Scalar]:
    """Entrywise a + sign * i * b: Gaussian integers or rationals on exact input, complex otherwise."""
    i_unit: Scalar = QQi(0, sign) if exact else sign * 1j
    return [i_unit * y + (x if exact else complex(x)) for x, y in zip(a, b)]


def _real_value(value: Scalar, t: BinaryTensor, degree: int, what: str) -> Scalar:
    """The real part of a conjugate product of degree ``degree`` in t, checked to be real.

    Exact input must give an imaginary part of exactly zero; float input one
    within 1e-12 * max(1, |t|^degree).
    """
    if t.exact:
        assert isinstance(value, QQi)
        _require(value.im == 0, f"{what} not real")
        return value.re
    value = complex(value)
    _require(abs(value.imag) <= 1e-12 * max(1.0, t.norm() ** degree), f"{what} imaginary part too large")
    return value.real


def _slice_factor(dense: BinaryTensor, j: int) -> Scalar:
    """f_{d,{j}} of a dense order-3 or order-4 tensor, in the scalars of its entries."""
    a, b = (slice_tensor(dense, j, bit).entries for bit in (0, 1))
    exact = dense.exact
    plus, minus = (_complexify(a, b, sign, exact) for sign in (1, -1))
    if dense.d == 3:
        value = _det2(*plus) * _det2(*minus)
    else:
        value = hyperdet_222(plus) * hyperdet_222(minus)
    return _real_value(value, dense, 4 if dense.d == 3 else 8, f"slice factor {j}")


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
        return _slice_factor(dense, j)
    scaled, den = _cleared(dense)
    return Fraction(_slice_factor(scaled, j), den ** (4 if dense.d == 3 else 8))


def _agree(value: Scalar, num: Scalar, den: int, exact: bool) -> bool:
    """value == num / den: multiplied through on exact input, as ``_close`` in floats."""
    if exact:
        return den * value == num
    return _close(value, num / den, False)


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
    den = 1
    if exact:
        dense, den = _cleared(dense)
    e = dense.entries

    theta_a = theta_t_forms(e)
    phi_a = phi_t_form(e)

    u = to_u_coordinates(dense).entries
    # u indexed by bits (i1 i2 i3): products with the complementary index are real
    theta_b = (u[0b000] * u[0b111], u[0b001] * u[0b110], u[0b010] * u[0b101], u[0b011] * u[0b100])
    phi1 = u[0b001] * u[0b010] * u[0b100] * u[0b111]
    phi2 = u[0b000] * u[0b011] * u[0b101] * u[0b110]

    if exact:
        theta_b_real = []
        for k, v in enumerate(theta_b):
            assert isinstance(v, QQi)
            _require(v.im == 0, f"theta_{k + 1} from u-products not real")
            theta_b_real.append(v.re)
        s = phi1 + phi2
        assert isinstance(s, QQi)
        _require(s.im == 0, "phi1 + phi2 not real")
        phi_b_twice: Scalar = s.re
    else:
        theta_b_real = [complex(v).real for v in theta_b]
        phi_b_twice = (complex(phi1) + complex(phi2)).real

    for k in range(4):
        _require(_close(theta_a[k], theta_b_real[k], exact), f"theta_{k + 1} paths disagree")
    _require(_agree(phi_a, phi_b_twice, 2, exact), "phi paths disagree")

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
        fa = _slice_factor(dense, j)
        _require(_agree(fa, combos[j - 1], 16, exact), f"f_(3,{{{j}}}) paths disagree")
        f3.append(fa)

    prod_theta = th1 * th2 * th3 * th4
    norm_phi1 = phi1.norm_sq() if isinstance(phi1, QQi) else abs(complex(phi1)) ** 2
    _require(_close(prod_theta, norm_phi1, exact, tol=1e-9), "theta product vs |phi1|^2")

    record = InvariantSet222(theta=tuple(theta_a), phi=phi_a, phi1=phi1, det=det_a, f3=tuple(f3), exact=exact)
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
    exact = u.exact
    den = 1
    if exact:
        u, den = _cleared(u)
    # the matrix slices t^(rs), row-major, in the order t^00, t^01, t^10, t^11
    m = [u.entries[4 * rs : 4 * rs + 4] for rs in range(4)]
    dets = []
    for outer in (1, -1):
        a = _complexify(m[0], m[2], outer, exact)  # t00 +- i t10
        b = _complexify(m[1], m[3], outer, exact)  # t01 +- i t11
        dets.extend(_det2(*_complexify(a, b, inner, exact)) for inner in (1, -1))
    value = _real_value(dets[0] * dets[1] * dets[2] * dets[3], t, 8, "pair factor")
    return Fraction(value, den**8) if exact else value


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
