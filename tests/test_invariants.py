"""The 2x2x2 invariant ring, extreme coefficients, and partial-symmetry roots."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import to_u_coordinates

from bts import invariants
from bts.combinatorics import Partition
from bts.invariants import (
    DegenerateInputError,
    FormulaCrossCheckError,
    _extreme_coeffs,
    extra_root,
    extreme_coeffs_222,
    hyperdet_222,
    invariants_222,
    isotropic_factor_symmetric,
    pair_factor_4,
    phi_t_form,
    slice_factor,
    theta_t_forms,
)
from bts.polys import discriminant_binary_form
from bts.scalars import QQi, _as_qqi
from bts.tensor import (
    BinaryTensor,
    MuTensor,
    _apply_slot_map,
    all_bits,
    expand,
    permute_slots,
    random_tensor,
    rank_one_tensor,
    rotate,
    slice_tensor,
)


def tensor_of(vals):
    return BinaryTensor(3, tuple(Fraction(v) for v in vals))


def as_float(t):
    return BinaryTensor(t.d, tuple(float(v) for v in t.entries))


def test_diagonal_worked_example(diag_12):
    inv = invariants_222(diag_12)
    assert inv.theta == (5, 5, 5, 5)
    assert inv.phi == -7
    assert inv.det == 4
    assert inv.f3 == (4, 4, 4)
    assert isinstance(inv.phi1, QQi) and (inv.phi1.re, inv.phi1.im) == (-7, 24)
    a0, a5, a6 = extreme_coeffs_222(diag_12)
    assert (a0, a5, a6) == (1024, Fraction(-5125), 625)


def test_rank_one_hyperdeterminant_vanishes():
    t = rank_one_tensor([(Fraction(1), Fraction(0))] * 3)
    inv = invariants_222(t)
    assert inv.det == 0
    a0, _, _ = extreme_coeffs_222(t)
    assert a0 == 0


def test_rank_one_slice_factors_vanish():
    t = rank_one_tensor(
        [(Fraction(1), Fraction(2)), (Fraction(3), Fraction(-1)), (Fraction(2), Fraction(5))]
    )
    inv = invariants_222(t)
    assert all(f == 0 for f in inv.f3)


def test_dual_paths_agree_exactly_on_random_rationals():
    # invariants_222 cross-asserts internally; failure raises
    for seed in range(100):
        invariants_222(random_tensor(seed, 3))


def test_theta_product_is_norm_of_phi1():
    for seed in range(50):
        inv = invariants_222(random_tensor(seed, 3))
        prod = inv.theta[0] * inv.theta[1] * inv.theta[2] * inv.theta[3]
        assert isinstance(inv.phi1, QQi)
        assert prod == inv.phi1.norm_sq()


def test_rotation_invariance():
    t = as_float(random_tensor(31, 3))
    inv1 = invariants_222(t)
    inv2 = invariants_222(rotate(t, [0.37, -1.41, 2.9]))
    vals1 = inv1.theta + (inv1.phi, inv1.det) + inv1.f3
    vals2 = inv2.theta + (inv2.phi, inv2.det) + inv2.f3
    for a, b in zip(vals1, vals2):
        assert abs(a - b) <= 1e-10 * (1.0 + abs(a) + abs(b))


def test_scaling_homogeneity():
    t = random_tensor(5, 3)
    lam = Fraction(3, 2)
    ts = t.scale(lam)
    i1, i2 = invariants_222(t), invariants_222(ts)
    for a, b in zip(i1.theta, i2.theta):
        assert b == lam**2 * a
    assert i2.phi == lam**4 * i1.phi
    assert i2.det == lam**4 * i1.det
    for a, b in zip(i1.f3, i2.f3):
        assert b == lam**4 * a
    for k, (a, b) in enumerate(zip(extreme_coeffs_222(t), extreme_coeffs_222(ts))):
        j = (0, 5, 6)[k]
        assert b == lam ** (2 * (10 - j)) * a


def test_theta_positive_on_random():
    for seed in range(50):
        inv = invariants_222(random_tensor(seed + 900, 3))
        assert all(v >= 0 for v in inv.theta)
        a0, a5, a6 = extreme_coeffs_222(random_tensor(seed + 900, 3))
        assert a6 > 0


# --- extra roots ----------------------------------------------------------------


def extra_root_of(c):
    return extra_root(c, invariants_222(expand(c)))


def test_extra_root_3_unit_cubic():
    # c = (1,0,0,1): the c-form gives (0^2 + 1^2) / (1^2 + 1^2) = 1/2, matching
    # the hand-solved mixed singular value of the diagonal tensor a = b = 1
    c = MuTensor(Partition((3,)), {(0,): Fraction(1), (3,): Fraction(1)})
    assert extra_root_of(c) == Fraction(1, 2)


def test_extra_root_3_diagonal_family():
    for a, b in [(1, 2), (3, 1), (2, 5)]:
        c = MuTensor(Partition((3,)), {(0,): Fraction(a), (3,): Fraction(b)})
        assert extra_root_of(c) == Fraction(a * a * b * b, a * a + b * b)


def test_extra_root_21_diagonal():
    c = MuTensor(Partition((2, 1)), {(0, 0): Fraction(1), (2, 1): Fraction(2)})
    assert extra_root_of(c) == Fraction(4, 5)


def test_extra_roots_nonnegative_and_cross_checked():
    # both printed forms are compared inside; a mismatch raises
    for seed in range(100):
        r = extra_root_of(random_tensor(seed, (2, 1)))
        assert r >= 0
    for seed in range(100):
        r = extra_root_of(random_tensor(seed, (3,)))
        assert r >= 0


def test_extra_root_wrong_partition():
    # only (2,1)- and (3,)-symmetric tensors have an extra root
    inv = invariants_222(random_tensor(0, 3))
    for mu in ((1, 1, 1), (2,)):
        with pytest.raises(ValueError, match="need mu = "):
            extra_root(random_tensor(0, mu), inv)


def test_extra_root_degenerate_isotropic():
    # c0 = -c2 and c1 = -c3 kill the denominator (the duplicated theta vanishes)
    c = MuTensor(Partition((3,)), {(0,): Fraction(1), (1,): Fraction(2),
                                   (2,): Fraction(-1), (3,): Fraction(-2)})
    with pytest.raises(DegenerateInputError):
        extra_root_of(c)


# --- order-4 factors ---------------------------------------------------------------


def test_slice_factor_matches_invariants_path(diag_12):
    assert slice_factor(diag_12, 1) == 4


def test_slice_factor_positive_order4():
    for seed in range(50):
        t = random_tensor(seed + 40, 4)
        for j in (1, 2, 3, 4):
            assert slice_factor(t, j) > 0


def test_slice_factor_zero_on_rank_one_order4():
    t = rank_one_tensor(
        [(Fraction(1), Fraction(1)), (Fraction(2), Fraction(-1)),
         (Fraction(1), Fraction(3)), (Fraction(-2), Fraction(1))]
    )
    for j in (1, 2, 3, 4):
        assert slice_factor(t, j) == 0


def test_pair_factor_real_and_positive():
    for seed in range(50):
        t = as_float(random_tensor(seed + 70, 4))
        v = pair_factor_4(t, (1, 2))
        assert v > 0


def test_pair_factor_rotation_invariance():
    t = as_float(random_tensor(123, 4))
    v1 = pair_factor_4(t, (3, 4))
    v2 = pair_factor_4(rotate(t, [0.81, -0.2, 1.57, 2.4]), (3, 4))
    assert abs(v1 - v2) <= 1e-9 * (1.0 + abs(v1))


def test_pair_factor_zero_on_isotropic_structure():
    # real part of (1,i) (x) (1,i) (x) u (x) v: slots 1,2 carry the isotropic square
    u, v = (Fraction(2), Fraction(3)), (Fraction(-1), Fraction(4))
    entries = []
    for bits in all_bits(4):
        base = {(0, 0): 1, (1, 1): -1}.get((bits[0], bits[1]), 0)
        entries.append(Fraction(base) * u[bits[2]] * v[bits[3]])
    t = BinaryTensor(4, tuple(entries))
    assert pair_factor_4(t, (1, 2)) == 0
    assert pair_factor_4(t, (3, 4)) != 0


def test_pair_factor_all_pairs_consistent_under_permutation():
    t = random_tensor(55, 4)
    swapped = permute_slots(t, (2, 3, 0, 1))
    assert pair_factor_4(t, (1, 2)) == pair_factor_4(swapped, (3, 4))


# --- isotropic factor of symmetric forms ----------------------------------------


def test_isotropic_factor_examples():
    q = MuTensor(Partition((2,)), {(0,): Fraction(1), (2,): Fraction(1)})
    assert isotropic_factor_symmetric(q) == 0
    c = MuTensor(Partition((3,)), {(0,): Fraction(1), (3,): Fraction(1)})
    assert isotropic_factor_symmetric(c) == 2
    for seed in range(30):
        assert isotropic_factor_symmetric(random_tensor(seed, (4,))) >= 0


def test_symmetric_forms_reduce_to_det_and_theta():
    # exact identities behind the constant-1 product formula of binary forms:
    # Delta_Q = theta_1 and disc = 81 det for cubics, disc = -4 det for quadratics
    for seed in range(50):
        c = random_tensor(seed, (3,))
        inv = invariants_222(expand(c))
        assert inv.theta[0] == isotropic_factor_symmetric(c)
        assert discriminant_binary_form(c).value == 81 * inv.det
        q = random_tensor(seed, (2,))
        e = expand(q).entries
        assert discriminant_binary_form(q).value == -4 * (e[0] * e[3] - e[1] * e[2])


def test_hyperdet_is_cayley_polynomial():
    # rank-one kills it; diagonal gives (ab)^2
    a, b = Fraction(3), Fraction(5)
    e = [Fraction(0)] * 8
    e[0], e[7] = a, b
    assert hyperdet_222(e) == (a * b) ** 2


# --- the integer path against a Fraction oracle -----------------------------------
#
# The oracle evaluates every value over Fraction and QQi(Fraction, Fraction), one
# normalized rational product at a time: the evaluation the library made before
# it cleared the common denominator.

ONE, I_UNIT = QQi(Fraction(1), Fraction(0)), QQi(Fraction(0), Fraction(1))


def oracle_complexify(a, b, sign):
    return [QQi(Fraction(0), Fraction(sign)) * y + x for x, y in zip(a, b)]


def oracle_real(value):
    assert isinstance(value, QQi) and value.im == 0
    return value.re


def oracle_slice_factor(t, j):
    dense = expand(t)
    dense = BinaryTensor(dense.d, tuple(Fraction(v) for v in dense.entries))
    a, b = (slice_tensor(dense, j, bit).entries for bit in (0, 1))
    plus, minus = oracle_complexify(a, b, 1), oracle_complexify(a, b, -1)
    if dense.d == 3:
        return oracle_real((plus[0] * plus[3] - plus[1] * plus[2]) * (minus[0] * minus[3] - minus[1] * minus[2]))
    return oracle_real(hyperdet_222(plus) * hyperdet_222(minus))


def oracle_record(t):
    """(theta, phi, phi1, det, f3) of an exact order-3 tensor over Fraction and QQi(Fraction)."""
    e = [Fraction(v) for v in expand(t).entries]
    u = list(e)
    for slot in range(3):
        _apply_slot_map(u, 3, slot, ((ONE, -I_UNIT), (ONE, I_UNIT)))
    phi1 = u[0b001] * u[0b010] * u[0b100] * u[0b111]
    f3 = tuple(oracle_slice_factor(BinaryTensor(3, tuple(e)), j) for j in (1, 2, 3))
    return theta_t_forms(e), phi_t_form(e), phi1, hyperdet_222(e), f3


def oracle_extremes(t):
    theta, phi, _, det, f3 = oracle_record(t)
    th1, th2, th3, th4 = theta
    a6 = th1 * th2 * th3 * th4
    triples = th1 * th2 * th3 + th1 * th2 * th4 + th1 * th3 * th4 + th2 * th3 * th4
    a5 = Fraction(triples * phi - 3 * a6 * (th1 + th2 + th3 + th4), 8)
    return det**2 * f3[0] * f3[1] * f3[2], a5, a6


def oracle_pair_factor_4(t, pair):
    j, k = pair
    order = [j - 1, k - 1] + [l for l in range(4) if l not in (j - 1, k - 1)]
    u = permute_slots(BinaryTensor(4, tuple(Fraction(v) for v in t.entries)), order)
    m = [u.entries[4 * rs : 4 * rs + 4] for rs in range(4)]
    value = QQi(Fraction(1), Fraction(0))
    for outer in (1, -1):
        a, b = oracle_complexify(m[0], m[2], outer), oracle_complexify(m[1], m[3], outer)
        for inner in (1, -1):
            p, q, r, s = oracle_complexify(a, b, inner)
            value = value * (p * s - q * r)
    return oracle_real(value)


def _rational_entries(seed, n, dens):
    rng = np.random.default_rng(seed)
    return tuple(Fraction(int(rng.integers(-20, 21)), int(rng.choice(dens))) for _ in range(n))


def _int_entries(seed, n):
    return tuple(int(v) for v in np.random.default_rng(seed).integers(-50, 51, size=n))


def exact_cases(d):
    """Named lists of exact order-d tensors on which the integer path must equal the oracle."""
    n = 1 << d
    dyadic = [random_tensor(seed, d) for seed in range(6)]
    cases = {
        "dyadic": dyadic,
        "dyadic-2^-60": [t.scale(Fraction(1, 2**60)) for t in dyadic],
        "dyadic-2^60": [t.scale(2**60) for t in dyadic],
        "denominators-3-7-10": [BinaryTensor(d, _rational_entries(seed, n, (3, 7, 10))) for seed in range(6)],
        "int": [BinaryTensor(d, _int_entries(seed, n)) for seed in range(6)],
        "mixed-int-fraction": [
            BinaryTensor(d, tuple(v if i % 2 else Fraction(v, 3) for i, v in enumerate(_int_entries(seed, n))))
            for seed in range(6)
        ],
        "zero": [BinaryTensor(d, (0,) * n), BinaryTensor(d, (Fraction(0),) * n)],
    }
    shapes = {3: ((2, 1), (3,)), 4: ((2, 2), (4,))}[d]
    for mu in shapes:
        cases["mu-" + ",".join(map(str, mu))] = [random_tensor(seed, mu) for seed in range(4)]
    return cases


def assert_fraction(got, want):
    assert type(got) is Fraction and got == want, (got, want)


def assert_qqi(got, want):
    assert isinstance(got, QQi) and type(got.re) is Fraction and type(got.im) is Fraction
    assert (got.re, got.im) == (want.re, want.im)


@pytest.mark.parametrize("case", sorted(exact_cases(3)))
def test_order3_integer_path_matches_fraction_oracle(case):
    for t in exact_cases(3)[case]:
        theta, phi, phi1, det, f3 = oracle_record(t)
        inv = invariants_222(t)
        assert inv.exact and len(inv.theta) == 4 and len(inv.f3) == 3
        for got, want in [*zip(inv.theta, theta), (inv.phi, phi), (inv.det, det), *zip(inv.f3, f3)]:
            assert_fraction(got, want)
        assert_qqi(inv.phi1, phi1)
        want = oracle_extremes(t)
        for got in (extreme_coeffs_222(t), _extreme_coeffs(inv)):
            assert len(got) == 3
            for g, w in zip(got, want):
                assert_fraction(g, w)
        for j in (1, 2, 3):
            assert_fraction(slice_factor(t, j), f3[j - 1])


@pytest.mark.parametrize("case", sorted(exact_cases(4)))
def test_order4_integer_path_matches_fraction_oracle(case):
    for t in exact_cases(4)[case]:
        for j in (1, 2, 3, 4):
            assert_fraction(slice_factor(t, j), oracle_slice_factor(t, j))
        dense = expand(t)
        for pair in ((1, 2), (1, 4), (2, 3), (3, 4)):
            assert_fraction(pair_factor_4(dense, pair), oracle_pair_factor_4(dense, pair))


# integers up to 2^64 and dyadic rationals, zero among them
exact_entry = st.one_of(
    st.just(0),
    st.integers(-(2**64), 2**64),
    st.builds(Fraction, st.integers(-(2**64), 2**64), st.sampled_from([2**k for k in (1, 16, 40, 64)])),
)


@given(st.lists(exact_entry, min_size=8, max_size=8))
@settings(max_examples=60, deadline=None)
def test_integer_path_matches_fraction_oracle_on_drawn_tensors(entries):
    t = BinaryTensor(3, tuple(entries))
    theta, phi, phi1, det, f3 = oracle_record(t)
    inv = invariants_222(t)
    for got, want in [*zip(inv.theta, theta), (inv.phi, phi), (inv.det, det), *zip(inv.f3, f3)]:
        assert_fraction(got, want)
    assert_qqi(inv.phi1, phi1)
    for got, want in zip(extreme_coeffs_222(t), oracle_extremes(t)):
        assert_fraction(got, want)


def oracle_float_record(t):
    """(theta, phi, phi1, det, f3) of a float order-3 tensor in Python complex arithmetic.

    phi1 is the product of complex u-coordinates, each f_(3,{j}) the real part
    of the product of the determinants of the complexified slices a +- i b.
    """
    e = list(t.entries)
    u = to_u_coordinates(t).entries
    phi1 = u[0b001] * u[0b010] * u[0b100] * u[0b111]
    f3 = []
    for j in (1, 2, 3):
        a, b = (slice_tensor(t, j, bit).entries for bit in (0, 1))
        p, m = ([sign * 1j * y + complex(x) for x, y in zip(a, b)] for sign in (1, -1))
        f3.append(((p[0] * p[3] - p[1] * p[2]) * (m[0] * m[3] - m[1] * m[2])).real)
    return theta_t_forms(e), phi_t_form(e), phi1, hyperdet_222(e), tuple(f3)


def bits(v):
    """The bit pattern of a float or complex value, signed zeros included."""
    return (v.real.hex(), v.imag.hex()) if isinstance(v, complex) else float(v).hex()


def test_float_path_matches_complex_oracle_bit_for_bit():
    rng = np.random.default_rng(31)
    for _ in range(200):
        t = BinaryTensor(3, tuple((rng.normal(size=8) * 10.0 ** rng.integers(-3, 4)).tolist()))
        theta, phi, phi1, det, f3 = oracle_float_record(t)
        inv = invariants_222(t)
        assert not inv.exact and isinstance(inv.phi1, complex)
        got = [*inv.theta, inv.phi, inv.phi1, inv.det, *inv.f3]
        assert list(map(bits, got)) == list(map(bits, [*theta, phi, phi1, det, *f3]))
        th1, th2, th3, th4 = theta
        a6 = th1 * th2 * th3 * th4
        triples = th1 * th2 * th3 + th1 * th2 * th4 + th1 * th3 * th4 + th2 * th3 * th4
        want = (det**2 * f3[0] * f3[1] * f3[2], (triples * phi - 3 * a6 * (th1 + th2 + th3 + th4)) / 8, a6)
        assert list(map(bits, extreme_coeffs_222(t))) == list(map(bits, want))


def float_complexify(a, b, sign):
    return [sign * 1j * y + complex(x) for x, y in zip(a, b)]


def test_order4_float_factors_match_complex_oracle_bit_for_bit():
    # each factor is the real part of the product of the complex determinants, in their order
    rng = np.random.default_rng(32)
    for _ in range(50):
        t = BinaryTensor(4, tuple(rng.normal(size=16).tolist()))
        for j in (1, 2, 3, 4):
            a, b = (slice_tensor(t, j, bit).entries for bit in (0, 1))
            want = (hyperdet_222(float_complexify(a, b, 1)) * hyperdet_222(float_complexify(a, b, -1))).real
            assert bits(slice_factor(t, j)) == bits(want)
        for pair in ((1, 2), (1, 3), (2, 4), (3, 4)):
            order = [pair[0] - 1, pair[1] - 1] + [l for l in range(4) if l + 1 not in pair]
            m = [permute_slots(t, order).entries[4 * rs : 4 * rs + 4] for rs in range(4)]
            dets = []
            for outer in (1, -1):
                a, b = float_complexify(m[0], m[2], outer), float_complexify(m[1], m[3], outer)
                for inner in (1, -1):
                    p, q, r, w = float_complexify(a, b, inner)
                    dets.append(p * w - q * r)
            assert bits(pair_factor_4(t, pair)) == bits((dets[0] * dets[1] * dets[2] * dets[3]).real)


def test_extremes_of_float_record_match_extreme_coeffs():
    t = as_float(random_tensor(8, 3))
    assert _extreme_coeffs(invariants_222(t)) == extreme_coeffs_222(t)


@pytest.mark.parametrize("name", ["phi_t_form", "theta_t_forms"])
def test_integer_path_cross_checks_fire(monkeypatch, name):
    # an off-by-one in path one on integer entries must fail the multiplied-through checks
    original = getattr(invariants, name)

    def off_by_one(e):
        value = original(e)
        if not all(type(v) is int for v in e):
            return value
        return value + 1 if name == "phi_t_form" else tuple(v + 1 for v in value)

    monkeypatch.setattr(invariants, name, off_by_one)
    t = random_tensor(3, 3)
    with pytest.raises(FormulaCrossCheckError):
        invariants_222(t)
    with pytest.raises(FormulaCrossCheckError):
        extreme_coeffs_222(t)
    invariants_222(as_float(t))  # the float path never sees int entries


def test_complex_entries_are_refused():
    t = BinaryTensor(3, (QQi(1, 1),) + (0,) * 7)
    for fn in (invariants_222, extreme_coeffs_222, lambda t: slice_factor(t, 1)):
        with pytest.raises(TypeError):
            fn(t)


def test_gaussian_arithmetic_refuses_floats():
    with pytest.raises(TypeError):
        _as_qqi(0.5)
    with pytest.raises(TypeError):
        QQi(1, 0) + 0.5
    assert _as_qqi(3) == QQi(3, 0) and type(_as_qqi(3).re) is int
    assert type(_as_qqi(Fraction(1, 2)).re) is Fraction
