"""The solvers: oracles, invariance properties, nesting, and derived outputs."""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from conftest import contraction, diagonal_sigma_sq, multiset_close, multiset_subtract, pairing

import bts.spectral
from bts.combinatorics import Partition, ed_degree
from bts.invariants import extra_root_21, extra_root_3, extreme_coeffs_222
from bts.polys import UniPoly
from bts.spectral import (
    SolverFailureError,
    assemble_edpoly,
    best_rank_one,
    eigen_symmetric,
    primal_edpoly,
    singular_values,
    solve_21,
    solve_222,
    solve_matrix,
    verify_product,
    verify_product_batch,
)
from bts.tensor import (
    BinaryTensor,
    MuTensor,
    bombieri_norm_sq,
    compress,
    expand,
    mu_box,
    permute_slots,
    random_tensor,
    rank_one_tensor,
    rotate,
)


def real_sq(spec):
    return sorted(v.real for v in spec.sigma_sq())


def sym_tensor(vals):
    d = len(vals) - 1
    return MuTensor(Partition((d,)), {(j,): Fraction(v) for j, v in enumerate(vals)})


# --- solve_222 -------------------------------------------------------------------


def test_diagonal_oracle(diag_12):
    spec = solve_222(diag_12, seed=1)
    multiset_close(real_sq(spec), diagonal_sigma_sq(1, 2), tol=1e-10)
    assert max(d.residual for d in spec.data) <= 1e-9 * diag_12.norm()
    # every real sigma is reported non-negative
    assert all(d.sigma.real >= 0 for d in spec.data if d.is_real)


def test_residual_certificate_random():
    for seed in range(5):
        t = random_tensor(seed + 200, 3)
        spec = solve_222(t, seed=seed)
        assert len(spec.data) == 6
        assert max(d.residual for d in spec.data) <= 1e-9 * t.norm()
        for d in spec.data:
            for x in d.vectors:
                assert abs(x[0] * x[0] + x[1] * x[1] - 1) < 1e-9


def test_coefficient_identities_random():
    for seed in range(5):
        t = random_tensor(seed + 300, 3)
        spec = solve_222(t, seed=seed)
        a0, a5, a6 = (float(v) for v in extreme_coeffs_222(t))
        prod = 1.0 + 0j
        total = 0.0 + 0j
        for v in spec.sigma_sq():
            prod *= v
            total += v
        assert abs(prod.imag) <= 1e-9 * (1.0 + abs(prod))
        assert abs(total.imag) <= 1e-9 * (1.0 + abs(total))
        assert abs(prod.real - a0 / a6) <= 1e-8 * (1.0 + abs(prod))
        assert abs(total.real - (-a5 / a6)) <= 1e-8 * (1.0 + abs(total))


def test_permutation_equivariance():
    t = random_tensor(17, 3)
    spec = solve_222(t, seed=2)
    perm = (2, 0, 1)
    inv_perm = tuple(perm.index(l) for l in range(3))
    spec_p = solve_222(permute_slots(t, perm), seed=5)
    multiset_close(real_sq(spec), real_sq(spec_p), tol=1e-9)
    # slot l of the permuted tensor pairs with the original slot inv_perm(l);
    # match data by sigma^2 and compare vectors up to sign
    for d in spec.data:
        match = min(spec_p.data, key=lambda e: abs(e.sigma_sq - d.sigma_sq))
        assert abs(match.sigma_sq - d.sigma_sq) < 1e-8 * (1 + abs(d.sigma_sq))
        for l in range(3):
            a = d.vectors[inv_perm[l]]
            b = match.vectors[l]
            same = max(abs(a[0] - b[0]), abs(a[1] - b[1]))
            flip = max(abs(a[0] + b[0]), abs(a[1] + b[1]))
            assert min(same, flip) < 1e-7


def test_rotation_invariance_of_spectrum():
    t = BinaryTensor(3, tuple(float(v) for v in random_tensor(23, 3).entries))
    spec = solve_222(t, seed=3)
    rot = rotate(t, [0.9, -0.4, 1.7])
    assert isinstance(rot, BinaryTensor)
    spec_r = solve_222(rot, seed=8)
    multiset_close(real_sq(spec), real_sq(spec_r), tol=1e-9)


def test_conjugation_closure():
    for seed in (41, 43, 47):
        spec = solve_222(random_tensor(seed, 3), seed=seed)
        vals = spec.sigma_sq()
        for v in vals:
            assert any(abs(v.conjugate() - w) < 1e-7 * (1 + abs(v)) for w in vals)


def test_rank_one_input_degenerate_with_zero():
    t = rank_one_tensor(
        [(Fraction(1), Fraction(2)), (Fraction(3), Fraction(-1)), (Fraction(2), Fraction(5))]
    )
    spec = solve_222(t, seed=4)
    assert spec.degenerate
    vals = real_sq(spec)
    assert len(vals) == 6
    assert min(abs(v) for v in vals) < 1e-10
    qt = float(bombieri_norm_sq(t))
    assert abs(max(vals) - qt) < 1e-8 * qt


def test_rank_one_answered_before_any_rotation(monkeypatch):
    t = rank_one_tensor(
        [(Fraction(1), Fraction(2)), (Fraction(3), Fraction(-1)), (Fraction(2), Fraction(5))]
    )

    def no_rotation(*_args):
        raise AssertionError("a rank-one tensor should not be rotated")

    monkeypatch.setattr(bts.spectral, "rotate_cs", no_rotation)
    spec = solve_222(t, seed=4)
    assert len(spec.data) == 6 and spec.degenerate
    assert all(d.chart_note == "rank-one fast path" for d in spec.data)


def test_within_rank_one_tolerance_gets_the_closed_form():
    # A tensor within 1e-9 * |t| (entrywise) of rank one is answered by the
    # closed form of its rank-one fit, flagged degenerate: its sigma^2 are those
    # of the fit, and the zero-value tuples lie on the fit's critical curve.
    t0 = rank_one_tensor(
        [(Fraction(1), Fraction(2)), (Fraction(3), Fraction(-1)), (Fraction(2), Fraction(5))]
    )
    bump = np.random.default_rng(5).normal(size=8) * 1e-11 * t0.norm()
    t = BinaryTensor(3, tuple(e + Fraction(float(x)) for e, x in zip(t0.entries, bump)))
    spec = solve_222(t, seed=0)
    assert spec.degenerate and all(d.chart_note == "rank-one fast path" for d in spec.data)
    assert multiset_subtract(spec.sigma_sq(), solve_222(t0, seed=0).sigma_sq(), tol=1e-9) == []


# --- eigen_symmetric ---------------------------------------------------------------


def test_eigen_matrix_diag():
    spec = eigen_symmetric(sym_tensor([3, 0, 4]), seed=1)
    multiset_close(sorted(d.sigma.real for d in spec.data), [3, 4], tol=1e-10)


def test_eigen_pure_power():
    # x0^3: critical form 3 x0^2 x1 has the double root (0,1) with eigenvalue 0
    spec = eigen_symmetric(sym_tensor([1, 0, 0, 0]), seed=1)
    multiset_close(sorted(d.sigma.real for d in spec.data), [0, 0, 1], tol=1e-9)
    assert "collisions" in spec.notes


@pytest.mark.parametrize("factor", [1e-4, 1e-100])
def test_collision_note_is_scale_free(factor):
    entries = [3, -1, 2, 5, -4, 1, 2, -3]
    want = singular_values(BinaryTensor(3, tuple(float(v) for v in entries)), seed=1).notes
    spec = singular_values(BinaryTensor(3, tuple(v * factor for v in entries)), seed=1)
    assert want == () and spec.notes == want


def test_eigen_sum_of_cubes():
    spec = eigen_symmetric(sym_tensor([1, 0, 0, 1]), seed=1)
    multiset_close(sorted(d.sigma.real for d in spec.data), [2 ** -0.5, 1, 1], tol=1e-9)


def test_eigen_satisfies_critical_form():
    c = random_tensor(61, (3,))
    spec = eigen_symmetric(c, seed=6)
    a = [float(c.c[(j,)]) * math.comb(3, j) for j in range(4)]
    for d in spec.data:
        x0, x1 = d.vectors[0]
        f0 = 3 * a[0] * x0**2 + 2 * a[1] * x0 * x1 + a[2] * x1**2
        f1 = a[1] * x0**2 + 2 * a[2] * x0 * x1 + 3 * a[3] * x1**2
        lam = d.sigma
        assert abs(f0 / 3 - lam * x0) < 1e-9
        assert abs(f1 / 3 - lam * x1) < 1e-9


def test_eigen_radial_form_fails():
    # (x0^2 + x1^2) has an identically zero critical form
    with pytest.raises(SolverFailureError):
        eigen_symmetric(sym_tensor([1, 0, 1]), seed=0)


# --- solve_21 and nesting ------------------------------------------------------------


def test_solve_21_diagonal_consistency():
    c = MuTensor(Partition((2, 1)), {(0, 0): Fraction(1), (2, 1): Fraction(2)})
    spec = solve_21(c, seed=1)
    vals = real_sq(spec)
    full = diagonal_sigma_sq(1, 2)
    # four of the six, containing both pure values and the mixed value twice
    multiset_close(vals, [full[0], full[1], 1.0, 4.0], tol=1e-9)


def test_nesting_21_in_222():
    for seed in (11, 12, 13):
        c = random_tensor(seed, (2, 1))
        s21 = real_sq(solve_21(c, seed=seed))
        s222 = real_sq(solve_222(expand(c), seed=seed))
        extra = multiset_subtract(s222, s21, tol=1e-7)
        assert len(extra) == 2
        assert abs(extra[0] - extra[1]) < 1e-7 * (1 + abs(extra[0]))
        h_root = float(extra_root_21(c))
        assert abs(extra[0] - h_root) < 1e-9 * (1 + abs(h_root))


def test_nesting_symmetric_chain():
    for seed in (21, 22):
        c = random_tensor(seed, (3,))
        se = real_sq(eigen_symmetric(c, seed=seed))
        c21 = MuTensor(
            Partition((2, 1)), {(i, j): c.c[(i + j,)] for i in range(3) for j in range(2)}
        )
        s21 = real_sq(solve_21(c21, seed=seed))
        s222 = real_sq(solve_222(expand(c), seed=seed))
        extra21 = multiset_subtract(list(s21), se, tol=1e-7)
        assert len(extra21) == 1
        extra222 = multiset_subtract(list(s222), s21, tol=1e-7)
        assert len(extra222) == 2
        h_root = float(extra_root_3(c))
        for v in extra21 + extra222:
            assert abs(v - h_root) < 1e-8 * (1 + abs(h_root))


def test_solve_21_rank_one_fast_path():
    t = rank_one_tensor([(Fraction(1), Fraction(2)), (Fraction(1), Fraction(2)), (Fraction(3), Fraction(-1))])
    spec = solve_21(compress(t, Partition((2, 1))), seed=0)
    assert len(spec.data) == 4 and spec.degenerate
    assert all(d.chart_note == "rank-one fast path" for d in spec.data)
    vals = real_sq(spec)
    # three zero values and the product of the squared fiber norms, 5 * 5 * 10
    assert all(abs(v) < 1e-10 for v in vals[:3])
    assert vals[3] == pytest.approx(250.0, rel=1e-10)


# --- matrices -------------------------------------------------------------------------


def test_matrix_diag():
    t = BinaryTensor(2, (Fraction(3), Fraction(0), Fraction(0), Fraction(4)))
    spec = solve_matrix(t, seed=1)
    multiset_close(real_sq(spec), [9, 16], tol=1e-10)


def test_matrix_bilinear_singular_values():
    # sigma^2 are the eigenvalues of t^T t under the complex-bilinear pairing
    t = BinaryTensor(2, (Fraction(0), Fraction(1), Fraction(0), Fraction(0)))
    spec = solve_matrix(t, seed=1)
    multiset_close(real_sq(spec), [0, 1], tol=1e-9)


# --- verify_product --------------------------------------------------------------------


def test_verify_matrix_exact():
    t = BinaryTensor(2, (Fraction(3), Fraction(0), Fraction(0), Fraction(4)))
    rep = verify_product(t, seed=1)
    assert rep.rhs == 144.0 and abs(rep.lhs - 144.0) < 1e-8 and rep.rel_error < 1e-12


def test_verify_diagonal_222(diag_12):
    rep = verify_product(diag_12, seed=1)
    assert abs(rep.lhs - 1024 / 625) < 1e-10
    assert abs(rep.rhs - 1024 / 625) < 1e-12
    assert rep.constant == 1.0


def test_verify_batches_all_mu():
    for mu, trials in [((1, 1), 5), ((2,), 5), ((3,), 5), ((2, 1), 5), ((1, 1, 1), 5)]:
        reports = verify_product_batch(mu, trials, seed=77)
        for rep in reports:
            assert rep.rel_error < 1e-8, (mu, rep)
        consts = {rep.constant for rep in reports}
        assert len(consts) == 1  # one constant per shape, the same in every trial


def test_verify_symmetric_constant_stability():
    reports = verify_product_batch((3,), 10, seed=5)
    for rep in reports:
        # the per-trial implied constant agrees with the reported one to 1e-9
        implied = rep.lhs / (rep.rhs / rep.constant)
        assert abs(implied / rep.constant - 1.0) < 1e-9


def test_verify_rejects_unsupported_mu():
    with pytest.raises(ValueError):
        verify_product(random_tensor(0, (4,)))


# --- distance polynomials ---------------------------------------------------------------


def expected_diag_edpoly():
    p = UniPoly((Fraction(625),))
    for r in (Fraction(1), Fraction(4), *([Fraction(4, 5)] * 4)):
        p = p * UniPoly((-r, Fraction(1)))
    return [float(c) for c in p.coeffs]


def test_assemble_edpoly_diagonal(diag_12):
    spec = solve_222(diag_12, seed=1)
    dual = assemble_edpoly(spec, diag_12)
    expected = expected_diag_edpoly()
    for got, want in zip(dual.coeffs, expected):
        assert abs(got - want) < 1e-6 * (1.0 + abs(want))
    a0, a5, a6 = (float(v) for v in extreme_coeffs_222(diag_12))
    assert abs(dual.coeffs[0] - a0) < 1e-8 * abs(a0)
    assert abs(dual.coeffs[5] - a5) < 1e-8 * abs(a5)
    assert abs(dual.coeffs[6] - a6) < 1e-12 * abs(a6)


def test_primal_reflection_vanishes_at_critical_distances():
    for seed in (71, 73):
        t = random_tensor(seed, 3)
        spec = solve_222(t, seed=seed)
        primal = primal_edpoly(spec, t)
        qt = float(bombieri_norm_sq(t))
        for d in spec.data:
            e2 = qt - d.sigma_sq
            val = primal(e2)
            scale = sum(abs(c) * max(1.0, abs(e2)) ** k for k, c in enumerate(primal.coeffs))
            assert abs(val) < 1e-8 * scale


def test_dual_edpoly_matrix_cases():
    # general matrix: char poly of t^T t in eps^2
    t = BinaryTensor(2, (Fraction(1), Fraction(2), Fraction(-1), Fraction(3)))
    spec = solve_matrix(t, seed=1)
    dual = assemble_edpoly(spec, t)
    e = [float(v) for v in t.entries]
    tr = e[0] ** 2 + e[1] ** 2 + e[2] ** 2 + e[3] ** 2
    det = e[0] * e[3] - e[1] * e[2]
    # monic: eps^4 - tr(t^T t) eps^2 + det^2
    assert abs(dual.coeffs[2] - 1.0) < 1e-12
    assert abs(dual.coeffs[1] + tr) < 1e-9 * (1 + abs(tr))
    assert abs(dual.coeffs[0] - det * det) < 1e-9 * (1 + det * det)
    # for symmetric t this equals det(eps I - t) det(eps I + t)
    ts = BinaryTensor(2, (Fraction(2), Fraction(1), Fraction(1), Fraction(-1)))
    spec_s = solve_matrix(ts, seed=1)
    dual_s = assemble_edpoly(spec_s, ts)
    es = [float(v) for v in ts.entries]
    trs, dets = es[0] + es[3], es[0] * es[3] - es[1] * es[2]
    # det(eI-t)det(eI+t) = e^4 + (2 det - tr^2) e^2 + det^2
    assert abs(dual_s.coeffs[1] - (2 * dets - trs**2)) < 1e-9 * (1 + abs(dets))
    assert abs(dual_s.coeffs[0] - dets**2) < 1e-9 * (1 + dets**2)


# --- best rank one -----------------------------------------------------------------------


def test_best_rank_one_diagonal(diag_12):
    approx, dist = best_rank_one(diag_12, seed=1)
    assert abs(dist - 1.0) < 1e-9
    arr = approx.as_array()
    assert abs(arr[1, 1, 1] - 2.0) < 1e-8
    assert float(abs(arr).sum()) == pytest.approx(2.0, abs=1e-7)


def test_best_rank_one_of_rank_one_is_itself():
    t = rank_one_tensor(
        [(Fraction(1), Fraction(2)), (Fraction(3), Fraction(-1)), (Fraction(2), Fraction(5))]
    )
    approx, dist = best_rank_one(t, seed=2)
    assert dist < 1e-7
    for a, b in zip(approx.as_array().ravel(), t.as_array().ravel()):
        assert abs(a - b) < 1e-6


def test_best_rank_one_symmetric_cubic():
    c = sym_tensor([1, 0, 0, 1])
    approx, dist = best_rank_one(c, seed=1)
    assert abs(dist**2 - 1.0) < 1e-9
    assert isinstance(approx, MuTensor)


# --- zero singular value criterion --------------------------------------------------------


def test_zero_iff_discriminant_zero_sample():
    # double-root binary cubics carry the eigenvalue 0
    for seed in range(3):
        rng = random_tensor(seed + 500, (1, 1)).c  # just a seeded source of 4 rationals
        (a, b), (c, d) = ((rng[(0, 0)], rng[(0, 1)]), (rng[(1, 0)], rng[(1, 1)]))
        if a == 0 and b == 0 or c == 0 and d == 0:
            continue
        # (a x0 + b x1)^2 (c x0 + d x1), expanded into Bombieri coordinates
        coeffs = [a * a * c, (a * a * d + 2 * a * b * c), (b * b * c + 2 * a * b * d), b * b * d]
        form = MuTensor(
            Partition((3,)), {(j,): coeffs[j] / Fraction(math.comb(3, j)) for j in range(4)}
        )
        spec = eigen_symmetric(form, seed=seed)
        assert min(abs(v) for v in real_sq(spec)) < 1e-8
    # random full tensors have no zero singular value
    for seed in range(3):
        spec = solve_222(random_tensor(seed + 600, 3), seed=seed)
        assert min(abs(v) for v in real_sq(spec)) > 1e-6


def test_singular_values_dispatch():
    assert singular_values(random_tensor(0, 3), seed=1).mu.parts == (1, 1, 1)
    assert singular_values(random_tensor(0, (2, 1)), seed=1).mu.parts == (2, 1)
    assert singular_values(random_tensor(0, (3,)), seed=1).mu.parts == (3,)
    assert singular_values(random_tensor(0, 2), seed=1).mu.parts == (1, 1)
    dense_from_mu = singular_values(
        MuTensor(Partition((1, 1, 1)), random_tensor(0, (1, 1, 1)).c), seed=1
    )
    assert dense_from_mu.mu.parts == (1, 1, 1)
    with pytest.raises(ValueError):
        singular_values(random_tensor(0, 4), seed=1)


def test_eigen_linear_form():
    # d = 1: one eigen pair, eigenvalue sqrt(a^2 + b^2) at the form's own direction
    c = MuTensor(Partition((1,)), {(0,): Fraction(3), (1,): Fraction(4)})
    spec = eigen_symmetric(c, seed=1)
    assert len(spec.data) == 1
    assert abs(spec.data[0].sigma.real - 5.0) < 1e-10


def test_rank_one_basis_tensor():
    t = rank_one_tensor([(Fraction(1), Fraction(0))] * 3)
    spec = solve_222(t, seed=1)
    vals = sorted(v.real for v in spec.sigma_sq())
    assert spec.degenerate
    assert min(abs(v) for v in vals) < 1e-12
    assert abs(max(vals) - 1.0) < 1e-10


def test_scale_robustness():
    t = random_tensor(42, 3, scale=Fraction(10**6))
    spec = solve_222(t, seed=1)
    assert max(d.residual for d in spec.data) <= 1e-9 * t.norm()
    rep = verify_product(t, seed=2)
    assert rep.rel_error < 1e-8


def test_verify_degenerate_rank_one_both_sides_vanish():
    t = rank_one_tensor([(Fraction(1), Fraction(2))] * 3)
    rep = verify_product(t, seed=3)
    assert rep.degenerate and rep.lhs == 0.0 and rep.rhs == 0.0 and rep.rel_error == 0.0


@pytest.mark.parametrize("factor", [1e-30, 1e-40])
def test_verify_product_is_scale_free(factor):
    # both sides are compared at unit scale, so a tiny tensor is checked, not
    # waved through as degenerate when its a_0 or a_top underflows
    t = random_tensor(3, 3)
    rep = verify_product(BinaryTensor(3, tuple(float(v) * factor for v in t.entries)), seed=1)
    assert not rep.degenerate and rep.rel_error < 1e-8


def test_solve_222_polishes_each_candidate_once(monkeypatch):
    polish, calls = bts.spectral._newton_polish_tuple, []

    def spy(*args):
        calls.append(args)
        return polish(*args)

    monkeypatch.setattr(bts.spectral, "_newton_polish_tuple", spy)
    spec = solve_222(random_tensor(3, 3), seed=1)
    assert all(d.chart_note.endswith("attempt=0") for d in spec.data)
    assert len(calls) == 6


def test_dispatch_mu_11_matrix():
    c = MuTensor(
        Partition((1, 1)),
        {(0, 0): Fraction(2), (0, 1): Fraction(1), (1, 0): Fraction(-1), (1, 1): Fraction(3)},
    )
    spec = singular_values(c, seed=1)
    assert spec.mu.parts == (1, 1) and len(spec.data) == 2


def test_near_rank_one_not_degenerate():
    base = rank_one_tensor(
        [(Fraction(1), Fraction(2)), (Fraction(3), Fraction(-1)), (Fraction(2), Fraction(5))]
    )
    pert = list(base.entries)
    pert[0] += Fraction(1, 100)
    spec = solve_222(BinaryTensor(3, tuple(pert)), seed=5)
    assert not spec.degenerate and len(spec.data) == 6
    assert min(abs(v) for v in spec.sigma_sq()) > 1e-8


def test_zero_tensor_rejected():
    with pytest.raises(ValueError):
        solve_222(BinaryTensor(3, (Fraction(0),) * 8), seed=0)


# --- the critical equations and the contraction kernel ----------------------------


def _seeded(rng, shape, draw):
    """A dense order-``shape`` tensor, or a compressed one for a partition, with entries draw(rng)."""
    if isinstance(shape, int):
        return BinaryTensor(shape, tuple(draw(rng) for _ in range(2**shape)))
    mu = Partition(shape)
    return MuTensor(mu, {om: draw(rng) for om in mu_box(mu)})


@pytest.mark.parametrize("shape", [2, (2, 1), 3], ids=str)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_critical_equations_vanish_at_certified_tuples(shape, seed):
    t = _seeded(np.random.default_rng(seed), shape, lambda rng: float(rng.uniform(-1.0, 1.0)))
    eqs = bts.spectral._critical_equations([Fraction(v) for v in expand(t).entries], t.mu)
    assert len(eqs) == t.mu.s
    spec = singular_values(t, seed=seed)
    assert len(spec.data) == spec.ed_degree
    for datum in spec.data:
        point = {f"z{k + 1}": x[1] / x[0] for k, x in enumerate(datum.vectors)}
        for eq in eqs:
            size = sum(
                abs(float(c)) * math.prod(abs(point[v]) ** p for v, p in zip(eq.vars, e))
                for e, c in eq.terms.items()
            )
            assert abs(eq(**point)) <= 1e-8 * size


@pytest.mark.parametrize("shape", [2, 3, 4, (2, 1)], ids=str)
@pytest.mark.parametrize("seed", range(5))
def test_contraction_kernel_matches_exact_oracles(shape, seed):
    # small dyadic entries and vectors: every float product and sum is exact,
    # so the numpy kernel must agree with the rational oracles to the bit
    rng = np.random.default_rng(seed)
    seeded = _seeded(rng, shape, lambda rng: Fraction(int(rng.integers(-8, 9)), 8))
    t, mu = expand(seeded), seeded.mu
    group_vecs = [tuple(Fraction(int(v), 4) for v in rng.integers(-8, 9, size=2)) for _ in range(mu.s)]
    slot_vecs = [v for v, p in zip(group_vecs, mu.parts) for _ in range(p)]
    arr = t.as_array().astype(complex)
    batch = np.array([[[complex(v) for v in x] for x in slot_vecs]], dtype=complex)
    assert bts.spectral._pairing(arr, mu, group_vecs) == pairing(t, slot_vecs)
    sigma = Fraction(int(rng.integers(-8, 9)), 4)
    worst = Fraction(0)
    for slot in range(mu.d):
        y = bts.spectral._contract_except(arr, batch, keep=(slot,))[0]
        oracle = contraction(t, slot_vecs, slot + 1)
        assert list(y) == [complex(v) for v in oracle]
        worst = max(worst, *(abs(oracle[b] - sigma * slot_vecs[slot][b]) for b in (0, 1)))
    assert bts.spectral.tuple_residual(arr, mu, group_vecs, complex(sigma)) == worst


@pytest.mark.parametrize("shape", [(1,), 2, 3, 4, (2, 1), (3,), (8,)], ids=str)
@pytest.mark.parametrize("n", [0, 1, 7])
def test_batched_contractions_match_exact_oracles(shape, n):
    # dyadic entries, vectors and sigmas keep every float operation exact, so
    # each row of the batch must equal the rational oracles to the bit
    rng = np.random.default_rng(n)
    seeded = _seeded(rng, shape, lambda rng: Fraction(int(rng.integers(-8, 9)), 8))
    t, mu = expand(seeded), seeded.mu
    tuples = [
        [tuple(Fraction(int(v), 4) for v in rng.integers(-8, 9, size=2)) for _ in range(mu.s)] for _ in range(n)
    ]
    sigmas = [Fraction(int(rng.integers(-8, 9)), 4) for _ in range(n)]
    arr = t.as_array().astype(complex)
    vecs = np.array([[[complex(v) for v in x] for x in tup] for tup in tuples], dtype=complex).reshape(n, mu.s, 2)
    ys, pairings, residuals = bts.spectral._contract_batch(arr, mu, vecs, np.array(sigmas, dtype=complex))
    assert ys.shape == (n, mu.d, 2) and pairings.shape == residuals.shape == (n,)
    for i, (tup, sigma) in enumerate(zip(tuples, sigmas)):
        slot_vecs = [tup[k] for k in mu.group_of]
        for slot in range(mu.d):
            assert list(ys[i, slot]) == [complex(v) for v in contraction(t, slot_vecs, slot + 1)]
        assert pairings[i] == pairing(t, slot_vecs)
        assert residuals[i] == bts.spectral.tuple_residual(arr, mu, tup, complex(sigma))
    _, _, own = bts.spectral._contract_batch(arr, mu, vecs)
    assert list(own) == [bts.spectral.tuple_residual(arr, mu, tup, p) for tup, p in zip(tuples, pairings)]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("defect", ["nan-sigma", "nan-vector", "inf-sigma"])
def test_non_finite_tuple_has_infinite_residual(defect):
    t = random_tensor(3, 3)
    arr = t.as_array().astype(complex)
    spec = solve_222(t, seed=1)
    vecs, sigma = [list(v) for v in spec.data[0].vectors], spec.data[0].sigma
    if defect == "nan-sigma":
        sigma = complex(math.nan, 0.0)
    elif defect == "nan-vector":
        vecs[1][0] = complex(math.nan, 0.0)
    else:
        sigma = complex(math.inf, 0.0)
    res = bts.spectral.tuple_residual(arr, t.mu, vecs, sigma)
    assert res == math.inf
    assert res > bts.spectral.RESIDUAL_REL_TOL * t.norm()


def _pencil_of(t):
    """The hidden-variable pencil of a tensor's critical equations, unrotated."""
    return bts.spectral._pencil(expand(t).entries, t.mu)


def _pencil_from_equations(entries, mu):
    """The pencil assembled from the rational critical equations of dense ``entries``: the map's oracle."""
    p = mu.parts[0]
    monomials = list(product(range(mu.s * p), *(range(part + 1) for part in mu.parts[1:-1])))
    column = {m: i for i, m in enumerate(monomials)}
    mats = np.zeros((2, len(monomials), len(monomials)))
    gs = bts.spectral._critical_equations([Fraction(v) for v in entries], mu)
    for row, (g, a) in enumerate((g, a) for g in gs for a in range((mu.s - 1) * p)):
        for power, coeff in enumerate(g.coefficients_in(g.vars[-1])):
            for e, c in coeff.terms.items():
                mats[power, row, column[(e[0] + a, *e[1:])]] = float(c)
    mats /= np.max(np.abs(mats)) or 1.0
    return mats[0], mats[1], monomials


@pytest.mark.parametrize("shape", [2, (2, 1), 3], ids=str)
@pytest.mark.parametrize("scale", [1.0, 1e150, 1e-150], ids=str)
def test_pencil_map_matches_the_rational_critical_equations(monkeypatch, shape, scale):
    rng = np.random.default_rng(7)
    for _ in range(10):
        t = _seeded(rng, shape, lambda rng: float(rng.uniform(-1.0, 1.0)) * scale)
        mu = t.mu
        cs = [(math.cos(a), math.sin(a)) for a in rng.uniform(0.0, 2.0 * math.pi, size=mu.s)]
        entries = expand(bts.spectral.rotate_cs(t, cs)).entries
        m0, m1, monomials = bts.spectral._pencil(entries, mu)
        o0, o1, oracle_monomials = _pencil_from_equations(entries, mu)
        assert m0.tobytes() == o0.tobytes() and m1.tobytes() == o1.tobytes()
        assert list(monomials) == oracle_monomials
    basis, _ = bts.spectral._pencil_map(mu)
    assert not basis.flags.writeable
    assert bts.spectral._pencil_map(mu) is bts.spectral._pencil_map(mu)

    calls, equations = [], bts.spectral._critical_equations
    monkeypatch.setattr(bts.spectral, "_critical_equations", lambda *a: calls.append(a) or equations(*a))
    bts.spectral._pencil_map.cache_clear()
    t = random_tensor(5, 3)
    first = solve_222(t, seed=1)
    built = len(calls)
    second = solve_222(t, seed=2)
    assert built == 8 and len(calls) == built
    assert len(first.data) == len(second.data) == 6


@pytest.mark.parametrize("shape", [2, (2, 1), 3], ids=str)
@pytest.mark.parametrize("seed", range(3))
def test_pencil_is_square_of_ed_degree(shape, seed):
    t = _seeded(np.random.default_rng(seed), shape, lambda rng: Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 5))))
    m0, m1, monomials = _pencil_of(t)
    n = ed_degree(t.mu)
    assert m0.shape == m1.shape == (n, n) and len(monomials) == n
    values = bts.spectral._pencil_values(m0, m1)
    assert sum(k for _, k in values) == n
    assert all(np.isfinite(z) for z, _ in values)


@pytest.mark.parametrize("shape", [2, (2, 1), 3], ids=str)
@pytest.mark.parametrize("seed", range(3))
def test_certified_tuples_are_null_vectors_of_the_pencil(shape, seed):
    # rotate the tensor and its certified tuples into one seeded chart: there
    # the monomial vector of each tuple's coordinates z_k = x_k1 / x_k0 is a
    # null vector of M0 + z_s M1
    rng = np.random.default_rng(seed)
    t = _seeded(rng, shape, lambda rng: float(rng.uniform(-1.0, 1.0)))
    cs = [(math.cos(a), math.sin(a)) for a in rng.uniform(0.0, 2.0 * math.pi, size=t.mu.s)]
    m0, m1, monomials = _pencil_of(bts.spectral.rotate_cs(t, cs))
    spec = singular_values(t, seed=seed)
    assert len(spec.data) == spec.ed_degree
    for datum in spec.data:
        zs = [(s * x[0] + c * x[1]) / (c * x[0] - s * x[1]) for x, (c, s) in zip(datum.vectors, cs)]
        v = np.array([math.prod(z**e for z, e in zip(zs, m)) for m in monomials])
        defect = np.linalg.norm((m0 + zs[-1] * m1) @ v)
        size = (np.linalg.norm(m0) + abs(zs[-1]) * np.linalg.norm(m1)) * np.linalg.norm(v)
        assert defect <= 1e-9 * size


@pytest.mark.parametrize("shape", [(2, 1), (3,)], ids=str)
@pytest.mark.parametrize("seed", range(4))
def test_pencil_recovers_tuples_that_share_the_last_variable(monkeypatch, shape, seed):
    # the dense view of a (2,1) or (3,) tensor has pairs of tuples (x, y, w)
    # and (y, x, w): a double eigenvalue, split by the shift in z1
    points, sizes = bts.spectral._pencil_points, []

    def spy(m0, m1, monomials, z, k):
        sizes.append(k)
        return points(m0, m1, monomials, z, k)

    monkeypatch.setattr(bts.spectral, "_pencil_points", spy)
    spec = solve_222(expand(random_tensor(seed + 40, shape)), seed=seed)
    assert len(spec.data) == 6
    assert all(d.chart_note.endswith("attempt=0") for d in spec.data)
    assert max(sizes) >= 2 and sum(sizes) == 6


def _scaled(t, factor):
    if isinstance(t, MuTensor):
        return MuTensor(t.mu, {k: float(v) * factor for k, v in t.c.items()})
    return BinaryTensor(t.d, tuple(float(v) * factor for v in t.entries))


@pytest.mark.parametrize("shape", [3, (2, 1), 2], ids=str)
@pytest.mark.parametrize("factor", [1e100, 1e-100, 1e150, 1e-150])
def test_float_tensors_certify_at_extreme_scales(shape, factor):
    t = _scaled(random_tensor(9, shape), 1.0)
    want = singular_values(t, seed=1).sigma_sq()
    scaled = _scaled(t, factor)
    spec = singular_values(scaled, seed=1)
    assert len(spec.data) == spec.ed_degree
    assert max(d.residual for d in spec.data) <= 1e-9 * expand(scaled).norm()
    for v in spec.sigma_sq():
        w = min(want, key=lambda w: abs(w - v / factor**2))
        assert abs(v / factor**2 - w) <= 1e-12 * abs(w)


@pytest.mark.parametrize("factor", [1, Fraction(1, 1000)])
def test_best_rank_one_rejects_a_wrong_sigma_at_any_scale(factor):
    t = random_tensor(5, 3, scale=factor)
    spec = singular_values(t, seed=0)
    best = max(spec.real_data(), key=lambda d: d.sigma_sq.real)
    wrong = dataclasses.replace(best, sigma=best.sigma * 1.01, sigma_sq=(best.sigma * 1.01) ** 2)
    spec.data = [wrong if d is best else d for d in spec.data]
    with pytest.raises(SolverFailureError, match="Pythagorean"):
        best_rank_one(t, spec=spec)
