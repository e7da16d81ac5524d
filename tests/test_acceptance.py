"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; tolerances are pinned here and nowhere else.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from conftest import diagonal_sigma_sq, multiset_close, multiset_subtract, partitions_of

from bts.combinatorics import (
    Partition,
    degree_identity_check,
)
from bts.invariants import (
    extra_root,
    extreme_coeffs_222,
    invariants_222,
    pair_factor_4,
    slice_factor,
)
from bts.polys import UniPoly, reflect_edpoly
from bts.scalars import QQi
from bts.spectral import (
    assemble_edpoly,
    eigen_symmetric,
    primal_edpoly,
    singular_values,
    verify_trial,
)
from bts.tensor import (
    BinaryTensor,
    MuTensor,
    all_bits,
    bombieri_norm_sq,
    expand,
    random_tensor,
    rank_one_tensor,
)


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL  {description}")
        raise
    print(f"ACCEPTANCE {number} PASS  {description}")


def test_criterion_1_product_formula_d3_exact_normalization():
    desc = "product formula, mu=(1,1,1), 100 seeded tensors, |LHS/RHS - 1| < 1e-8, < 60 s"
    with criterion(1, desc):
        start = time.time()
        reports = [verify_trial(Partition((1, 1, 1)), 42, trial) for trial in range(100)]
        elapsed = time.time() - start
        worst = max(r.rel_error for r in reports)
        assert worst < 1e-8, f"worst relative error {worst:.3e}"
        assert elapsed < 60.0, f"runtime {elapsed:.1f} s"


def test_criterion_2_diagonal_oracle(diag_12):
    desc = "diagonal oracle: sigma multiset and a0/a6, -a5/a6 against root product/sum at 1e-10"
    with criterion(2, desc):
        spec = singular_values(diag_12, seed=1)
        multiset_close(
            sorted(v.real for v in spec.sigma_sq()), diagonal_sigma_sq(1, 2), tol=1e-10
        )
        sigmas = sorted(d.sigma.real for d in spec.data)
        expect = sorted([1.0, 2.0] + [2.0 / math.sqrt(5.0)] * 4)
        multiset_close(sigmas, expect, tol=1e-10)
        a0, a5, a6 = (float(v) for v in extreme_coeffs_222(diag_12))
        assert (a0 / a6) == 1024 / 625
        assert (-a5 / a6) == 8.2
        prod = 1.0 + 0j
        total = 0.0 + 0j
        for v in spec.sigma_sq():
            prod *= v
            total += v
        assert abs(prod.real - 1024 / 625) < 1e-10
        assert abs(total.real - 8.2) < 1e-10


def test_criterion_3_partial_symmetry_structure():
    desc = "(2,1) and symmetric nesting on 50+50 tensors; extra roots match h, h' at 1e-9"
    with criterion(3, desc):
        for trial in range(50):
            c = random_tensor(10_000 + trial, (2, 1))
            s21 = sorted(v.real for v in singular_values(c, seed=trial).sigma_sq())
            s222 = sorted(v.real for v in singular_values(expand(c), seed=trial).sigma_sq())
            extra = multiset_subtract(s222, s21, tol=1e-7)
            assert len(extra) == 2
            h = float(extra_root(c, invariants_222(expand(c))))
            for v in extra:
                assert abs(v - h) < 1e-9 * (1.0 + abs(h)), (trial, v, h)
        for trial in range(50):
            c = random_tensor(20_000 + trial, (3,))
            se = sorted(v.real for v in eigen_symmetric(c, seed=trial).sigma_sq())
            s222 = sorted(v.real for v in singular_values(expand(c), seed=trial).sigma_sq())
            extra = multiset_subtract(s222, se, tol=1e-7)
            assert len(extra) == 3
            h = float(extra_root(c, invariants_222(expand(c))))
            for v in extra:
                assert abs(v - h) < 1e-9 * (1.0 + abs(h)), (trial, v, h)


def test_criterion_4_degree_identities():
    desc = "degree identity exact for all partitions of d <= 8 and the 1^d identity to d = 12"
    with criterion(4, desc):
        for d in range(1, 9):
            for parts in partitions_of(d):
                assert degree_identity_check(parts), parts
        for d in range(1, 13):
            assert degree_identity_check((1,) * d), d


def test_criterion_5_formula_cross_checks():
    desc = "Det and f3 printed forms agree exactly; theta product = |phi1|^2 on 1000 tensors"
    with criterion(5, desc):
        for trial in range(1000):
            t = random_tensor(30_000 + trial, 3)
            inv = invariants_222(t)  # exact-equality cross-asserts run inside
            prod = inv.theta[0] * inv.theta[1] * inv.theta[2] * inv.theta[3]
            assert isinstance(inv.phi1, QQi)
            diff = float(prod - inv.phi1.norm_sq())
            assert abs(diff) <= 1e-9 * (1.0 + abs(float(prod))), trial


def _orthogonal_to_isotropic_vertex(seed: int) -> BinaryTensor:
    """Random rational tensor paired to zero with the isotropic cube vertex (1,i)^(x)3."""
    re_part = [Fraction(0)] * 8
    im_part = [Fraction(0)] * 8
    for idx, bits in enumerate(all_bits(3)):
        w = sum(bits) % 4
        re_part[idx] = Fraction((1, 0, -1, 0)[w])
        im_part[idx] = Fraction((0, 1, 0, -1)[w])
    t = list(random_tensor(seed, 3).entries)
    for basis in (re_part, im_part):
        dot = sum(a * b for a, b in zip(t, basis))
        nrm = sum(b * b for b in basis)
        t = [a - dot / nrm * b for a, b in zip(t, basis)]
    return BinaryTensor(3, tuple(t))


def test_criterion_6_positivity():
    desc = "f_{3,J}, f_{4,J} > 0 on 1000 random tensors each; constructed isotropic zeros at 1e-9"
    with criterion(6, desc):
        for trial in range(1000):
            inv = invariants_222(random_tensor(40_000 + trial, 3))
            assert all(f > 0 for f in inv.f3), trial
            a6 = inv.theta[0] * inv.theta[1] * inv.theta[2] * inv.theta[3]
            assert a6 > 0, trial
        for trial in range(1000):
            t4 = random_tensor(50_000 + trial, 4)
            assert slice_factor(t4, 1 + trial % 4) > 0, trial
            pair = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))[trial % 6]
            assert pair_factor_4(t4, pair) > 0, trial
        # zeros achieved on isotropic / rank-one structures
        rng = np.random.default_rng(99)
        for k in range(5):
            vecs = [tuple(Fraction(int(x), 8) for x in rng.integers(-8, 9, 2)) for _ in range(3)]
            if any(v == (0, 0) for v in vecs):
                continue
            r1 = rank_one_tensor(vecs)
            inv = invariants_222(r1)
            assert all(abs(float(f)) <= 1e-9 for f in inv.f3)
            r14 = rank_one_tensor(vecs + [(Fraction(1), Fraction(2))])
            for j in (1, 2, 3, 4):
                assert abs(float(slice_factor(r14, j))) <= 1e-9
        for k in range(5):
            t = _orthogonal_to_isotropic_vertex(600 + k)
            inv = invariants_222(t)
            a6 = inv.theta[0] * inv.theta[1] * inv.theta[2] * inv.theta[3]
            assert abs(float(a6)) <= 1e-9
        u = (Fraction(2), Fraction(3))
        v = (Fraction(-1), Fraction(4))
        entries = []
        for bits in all_bits(4):
            base = {(0, 0): 1, (1, 1): -1}.get((bits[0], bits[1]), 0)
            entries.append(Fraction(base) * u[bits[2]] * v[bits[3]])
        t_iso = BinaryTensor(4, tuple(entries))
        assert abs(float(pair_factor_4(t_iso, (1, 2)))) <= 1e-9


def test_criterion_7_duality_reflection():
    desc = "reflection is an exact involution; primal polynomial vanishes at critical distances"
    with criterion(7, desc):
        rng = np.random.default_rng(7)
        for k in range(200):
            coeffs = tuple(Fraction(int(x), 16) for x in rng.integers(-40, 41, rng.integers(1, 8)))
            qt = Fraction(int(rng.integers(-20, 21)), 8)
            p = UniPoly(coeffs)
            assert reflect_edpoly(reflect_edpoly(p, qt), qt).coeffs == p.coeffs
        for trial in range(10):
            t = random_tensor(60_000 + trial, 3)
            spec = singular_values(t, seed=trial)
            primal = primal_edpoly(assemble_edpoly(spec, t), t)
            qt = float(bombieri_norm_sq(t))
            for d in spec.data:
                e2 = qt - d.sigma_sq
                scale = sum(
                    abs(c) * max(1.0, abs(e2)) ** k for k, c in enumerate(primal.coeffs)
                )
                assert abs(primal(e2)) < 1e-8 * scale, trial


def _double_root_cubic(seed: int) -> MuTensor:
    rng = np.random.default_rng(seed)
    a, b, c, d = (Fraction(int(x), 8) for x in rng.integers(-8, 9, 4))
    if (a, b) == (0, 0) or (c, d) == (0, 0):
        return _double_root_cubic(seed + 1)
    coeffs = [a * a * c, a * a * d + 2 * a * b * c, b * b * c + 2 * a * b * d, b * b * d]
    return MuTensor(
        Partition((3,)), {(j,): coeffs[j] / Fraction(math.comb(3, j)) for j in range(4)}
    )


def test_criterion_8_zero_singular_value():
    desc = "zero in sigma^2 on 20 discriminant-zero tensors; absent on 100 random tensors"
    with criterion(8, desc):
        from bts.polys import discriminant_binary_form

        rng = np.random.default_rng(8)
        count_rank_one = 0
        while count_rank_one < 10:
            vecs = [tuple(Fraction(int(x), 8) for x in rng.integers(-8, 9, 2)) for _ in range(3)]
            if any(v[0] * v[0] + v[1] * v[1] == 0 for v in vecs):
                continue
            t = rank_one_tensor(vecs)
            inv = invariants_222(t)
            assert inv.det == 0
            spec = singular_values(t, seed=count_rank_one)
            assert min(abs(v) for v in spec.sigma_sq()) <= 1e-8
            count_rank_one += 1
        for k in range(10):
            form = _double_root_cubic(700 + 13 * k)
            assert discriminant_binary_form(form).value == 0
            spec = eigen_symmetric(form, seed=k)
            assert min(abs(v) for v in spec.sigma_sq()) <= 1e-8
        for trial in range(100):
            t = random_tensor(70_000 + trial, 3)
            spec = singular_values(t, seed=trial)
            assert min(abs(v) for v in spec.sigma_sq()) > 1e-8, trial
