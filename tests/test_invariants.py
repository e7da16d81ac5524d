"""The 2x2x2 invariant ring, extreme coefficients, and partial-symmetry roots."""

from __future__ import annotations

from fractions import Fraction

import pytest

from bts.combinatorics import Partition
from bts.invariants import (
    DegenerateInputError,
    extra_root_21,
    extra_root_3,
    extreme_coeffs_222,
    hyperdet_222,
    invariants_222,
    isotropic_factor_symmetric,
    pair_factor_4,
    slice_factor,
)
from bts.polys import discriminant_binary_form
from bts.scalars import QQi
from bts.tensor import (
    BinaryTensor,
    MuTensor,
    all_bits,
    expand,
    random_tensor,
    rank_one_tensor,
    rotate,
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


def test_extra_root_3_unit_cubic():
    # c = (1,0,0,1): the c-form gives (0^2 + 1^2) / (1^2 + 1^2) = 1/2, matching
    # the hand-solved mixed singular value of the diagonal tensor a = b = 1
    c = MuTensor(Partition((3,)), {(0,): Fraction(1), (3,): Fraction(1)})
    assert extra_root_3(c) == Fraction(1, 2)


def test_extra_root_3_diagonal_family():
    for a, b in [(1, 2), (3, 1), (2, 5)]:
        c = MuTensor(Partition((3,)), {(0,): Fraction(a), (3,): Fraction(b)})
        assert extra_root_3(c) == Fraction(a * a * b * b, a * a + b * b)


def test_extra_root_21_diagonal():
    c = MuTensor(Partition((2, 1)), {(0, 0): Fraction(1), (2, 1): Fraction(2)})
    assert extra_root_21(c) == Fraction(4, 5)


def test_extra_roots_nonnegative_and_cross_checked():
    # both printed forms are compared inside; a mismatch raises
    for seed in range(100):
        r = extra_root_21(random_tensor(seed, (2, 1)))
        assert r >= 0
    for seed in range(100):
        r = extra_root_3(random_tensor(seed, (3,)))
        assert r >= 0


def test_extra_root_wrong_partition():
    with pytest.raises(ValueError):
        extra_root_21(random_tensor(0, (3,)))
    with pytest.raises(ValueError):
        extra_root_3(random_tensor(0, (2, 1)))


def test_extra_root_degenerate_isotropic():
    # c0 = -c2 and c1 = -c3 kill the denominator (the duplicated theta vanishes)
    c = MuTensor(Partition((3,)), {(0,): Fraction(1), (1,): Fraction(2),
                                   (2,): Fraction(-1), (3,): Fraction(-2)})
    with pytest.raises(DegenerateInputError):
        extra_root_3(c)


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
    from bts.tensor import permute_slots

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
