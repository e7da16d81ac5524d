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
from bts.invariants import extra_root, extreme_coeffs_222, invariants_222
from bts.polys import MultiPoly, UniPoly
from bts.spectral import (
    SolverFailureError,
    assemble_edpoly,
    best_rank_one,
    eigen_symmetric,
    primal_edpoly,
    singular_values,
    verify_product,
    verify_trial,
)
from bts.tensor import (
    BinaryTensor,
    MuTensor,
    bombieri_norm_sq,
    compress,
    expand,
    index_to_bits,
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


# --- full 2x2x2 tensors -----------------------------------------------------------


def test_diagonal_oracle(diag_12):
    spec = singular_values(diag_12, seed=1)
    multiset_close(real_sq(spec), diagonal_sigma_sq(1, 2), tol=1e-10)
    assert max(d.residual for d in spec.data) <= 1e-9 * diag_12.norm()
    # every real sigma is reported non-negative
    assert all(d.sigma.real >= 0 for d in spec.data if d.is_real)


def test_residual_certificate_random():
    for seed in range(5):
        t = random_tensor(seed + 200, 3)
        spec = singular_values(t, seed=seed)
        assert len(spec.data) == 6
        assert max(d.residual for d in spec.data) <= 1e-9 * t.norm()
        for d in spec.data:
            for x in d.vectors:
                assert abs(x[0] * x[0] + x[1] * x[1] - 1) < 1e-9


def test_coefficient_identities_random():
    for seed in range(5):
        t = random_tensor(seed + 300, 3)
        spec = singular_values(t, seed=seed)
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
    spec = singular_values(t, seed=2)
    perm = (2, 0, 1)
    inv_perm = tuple(perm.index(l) for l in range(3))
    spec_p = singular_values(permute_slots(t, perm), seed=5)
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
    spec = singular_values(t, seed=3)
    rot = rotate(t, [0.9, -0.4, 1.7])
    assert isinstance(rot, BinaryTensor)
    spec_r = singular_values(rot, seed=8)
    multiset_close(real_sq(spec), real_sq(spec_r), tol=1e-9)


def test_conjugation_closure():
    for seed in (41, 43, 47):
        spec = singular_values(random_tensor(seed, 3), seed=seed)
        vals = spec.sigma_sq()
        for v in vals:
            assert any(abs(v.conjugate() - w) < 1e-7 * (1 + abs(v)) for w in vals)


def test_rank_one_input_degenerate_with_zero():
    t = rank_one_tensor(
        [(Fraction(1), Fraction(2)), (Fraction(3), Fraction(-1)), (Fraction(2), Fraction(5))]
    )
    spec = singular_values(t, seed=4)
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
    spec = singular_values(t, seed=4)
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
    spec = singular_values(t, seed=0)
    assert spec.degenerate and all(d.chart_note == "rank-one fast path" for d in spec.data)
    assert multiset_subtract(spec.sigma_sq(), singular_values(t0, seed=0).sigma_sq(), tol=1e-9) == []


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


def linear_product(factors):
    """The symmetric tensor of the binary form prod (a x0 + b x1) over the (a, b) in ``factors``."""
    d = len(factors)
    poly = [Fraction(1)]  # ascending in x1
    for a, b in factors:
        poly = [a * p + b * q for p, q in zip(poly + [0], [0] + poly)]
    return MuTensor(Partition((d,)), {(j,): poly[j] / math.comb(d, j) for j in range(d + 1)})


@pytest.mark.parametrize("line, seeds", [((1, -1), [17]), ((3, 3), range(40))], ids=["(x0-x1)^4", "81(x0+x1)^4"])
def test_eigen_quartic_power_certifies_at_attempt_0(line, seeds):
    # the critical form of l^4 is l times the cube of its perpendicular
    top = (line[0] ** 2 + line[1] ** 2) ** 4
    for seed in seeds:
        spec = eigen_symmetric(linear_product([line] * 4), seed=seed)
        assert real_sq(spec) == pytest.approx([0, 0, 0, top], abs=1e-9 * top)
        assert all(d.chart_note.endswith("attempt=0") for d in spec.data)


def test_eigen_repeated_critical_roots_sweep():
    # l^d, l1^2 l2^(d-2) and l1^(d-1) l2 with small integer lines, d = 2..8: the
    # unrotated chart splits the exact critical form, so attempt 0 certifies each
    lines = [(a, b) for a in range(0, 5) for b in range(-4, 5) if a > 0 or b > 0]
    rng = np.random.default_rng(24)
    for d in range(2, 9):
        for _ in range(16):
            i, j = rng.choice(len(lines), size=2, replace=False)
            l1, l2 = lines[i], lines[j]
            for factors in ([l1] * d, [l1] * 2 + [l2] * (d - 2), [l1] * (d - 1) + [l2]):
                spec = eigen_symmetric(linear_product(factors), seed=int(rng.integers(40)))
                assert len(spec.data) == d
                assert all(x.chart_note.endswith("attempt=0") for x in spec.data)


# --- (2,1)-symmetric tensors and nesting ------------------------------------------------


def test_solve_21_diagonal_consistency():
    c = MuTensor(Partition((2, 1)), {(0, 0): Fraction(1), (2, 1): Fraction(2)})
    spec = singular_values(c, seed=1)
    vals = real_sq(spec)
    full = diagonal_sigma_sq(1, 2)
    # four of the six, containing both pure values and the mixed value twice
    multiset_close(vals, [full[0], full[1], 1.0, 4.0], tol=1e-9)


def test_nesting_21_in_222():
    for seed in (11, 12, 13):
        c = random_tensor(seed, (2, 1))
        s21 = real_sq(singular_values(c, seed=seed))
        s222 = real_sq(singular_values(expand(c), seed=seed))
        extra = multiset_subtract(s222, s21, tol=1e-7)
        assert len(extra) == 2
        assert abs(extra[0] - extra[1]) < 1e-7 * (1 + abs(extra[0]))
        h_root = float(extra_root(c, invariants_222(expand(c))))
        assert abs(extra[0] - h_root) < 1e-9 * (1 + abs(h_root))


def test_nesting_symmetric_chain():
    for seed in (21, 22):
        c = random_tensor(seed, (3,))
        se = real_sq(eigen_symmetric(c, seed=seed))
        c21 = MuTensor(
            Partition((2, 1)), {(i, j): c.c[(i + j,)] for i in range(3) for j in range(2)}
        )
        s21 = real_sq(singular_values(c21, seed=seed))
        s222 = real_sq(singular_values(expand(c), seed=seed))
        extra21 = multiset_subtract(list(s21), se, tol=1e-7)
        assert len(extra21) == 1
        extra222 = multiset_subtract(list(s222), s21, tol=1e-7)
        assert len(extra222) == 2
        h_root = float(extra_root(c, invariants_222(expand(c))))
        for v in extra21 + extra222:
            assert abs(v - h_root) < 1e-8 * (1 + abs(h_root))


def test_solve_21_rank_one_fast_path():
    t = rank_one_tensor([(Fraction(1), Fraction(2)), (Fraction(1), Fraction(2)), (Fraction(3), Fraction(-1))])
    spec = singular_values(compress(t, Partition((2, 1))), seed=0)
    assert len(spec.data) == 4 and spec.degenerate
    assert all(d.chart_note == "rank-one fast path" for d in spec.data)
    vals = real_sq(spec)
    # three zero values and the product of the squared fiber norms, 5 * 5 * 10
    assert all(abs(v) < 1e-10 for v in vals[:3])
    assert vals[3] == pytest.approx(250.0, rel=1e-10)


# --- matrices -------------------------------------------------------------------------


def test_matrix_diag():
    t = BinaryTensor(2, (Fraction(3), Fraction(0), Fraction(0), Fraction(4)))
    spec = singular_values(t, seed=1)
    multiset_close(real_sq(spec), [9, 16], tol=1e-10)


def test_matrix_bilinear_singular_values():
    # sigma^2 are the eigenvalues of t^T t under the complex-bilinear pairing
    t = BinaryTensor(2, (Fraction(0), Fraction(1), Fraction(0), Fraction(0)))
    spec = singular_values(t, seed=1)
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


def test_verify_batches_all_mu():
    for mu, trials in [((1, 1), 5), ((2,), 5), ((3,), 5), ((2, 1), 5), ((1, 1, 1), 5)]:
        for trial in range(trials):
            rep = verify_trial(Partition(mu), 77, trial)
            assert rep.rel_error < 1e-8, (mu, rep)


def test_verify_symmetric_constant_stability():
    for trial in range(10):
        rep = verify_trial(Partition((3,)), 5, trial)
        # the per-trial implied constant lhs / rhs is 1 to 1e-9
        assert abs(rep.lhs / rep.rhs - 1.0) < 1e-9


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
    spec = singular_values(diag_12, seed=1)
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
        spec = singular_values(t, seed=seed)
        primal = primal_edpoly(assemble_edpoly(spec, t), t)
        qt = float(bombieri_norm_sq(t))
        for d in spec.data:
            e2 = qt - d.sigma_sq
            val = primal(e2)
            scale = sum(abs(c) * max(1.0, abs(e2)) ** k for k, c in enumerate(primal.coeffs))
            assert abs(val) < 1e-8 * scale


def test_dual_edpoly_matrix_cases():
    # general matrix: char poly of t^T t in eps^2
    t = BinaryTensor(2, (Fraction(1), Fraction(2), Fraction(-1), Fraction(3)))
    spec = singular_values(t, seed=1)
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
    spec_s = singular_values(ts, seed=1)
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
        spec = singular_values(random_tensor(seed + 600, 3), seed=seed)
        assert min(abs(v) for v in real_sq(spec)) > 1e-6


@pytest.mark.parametrize("solve, notes", [
    # x0^3: the double critical root (0, 1) carries sigma = 0
    (lambda: eigen_symmetric(sym_tensor([1, 0, 0, 0]), seed=1), ("collisions", "zero singular value")),
    (lambda: singular_values(BinaryTensor(2, (1, 2, 2, 4)), seed=1), ("zero singular value",)),
    # a rank-one spectrum is flagged degenerate; its five zero sigma^2 collide
    (lambda: singular_values(rank_one_tensor([(1, 2), (3, -1), (2, 5)]), seed=1),
     ("rank-one input; zero-value critical set is positive-dimensional", "det zero", "collisions")),
], ids=["pure-power", "singular-matrix", "rank-one-222"])
def test_zero_singular_value_note(solve, notes):
    assert solve().notes == notes


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
    spec = singular_values(t, seed=1)
    vals = sorted(v.real for v in spec.sigma_sq())
    assert spec.degenerate
    assert min(abs(v) for v in vals) < 1e-12
    assert abs(max(vals) - 1.0) < 1e-10


def test_scale_robustness():
    t = random_tensor(42, 3, scale=Fraction(10**6))
    spec = singular_values(t, seed=1)
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


def _newton_norm(arr, x):
    """|F| of Newton's system at 2x2x2 group vectors ``x`` (3, 2), sigma their pairing, by explicit einsums."""
    ys = [
        np.einsum("abc,b,c->a", arr, x[1], x[2]),
        np.einsum("abc,a,c->b", arr, x[0], x[2]),
        np.einsum("abc,a,b->c", arr, x[0], x[1]),
    ]
    sigma = ys[0] @ x[0]
    f = np.concatenate([*(y - sigma * xk for y, xk in zip(ys, x)), x[:, 0] ** 2 + x[:, 1] ** 2 - 1.0])
    return float(np.linalg.norm(f))


def test_solve_222_polishes_each_candidate_once(monkeypatch):
    # at most once, and only when Newton's residual is not below its stop bound
    polish, finalize = bts.spectral._newton_polish_tuple, bts.spectral._finalize_spectrum
    calls, raws = [], []

    def spy_polish(arr, mu, x, *rest):
        calls.append(x.copy())
        return polish(arr, mu, x, *rest)

    def spy_finalize(mu, arr, norm, vecs, *rest, **kw):
        raws.append(vecs)
        return finalize(mu, arr, norm, vecs, *rest, **kw)

    monkeypatch.setattr(bts.spectral, "_newton_polish_tuple", spy_polish)
    monkeypatch.setattr(bts.spectral, "_finalize_spectrum", spy_finalize)
    polished = skipped = 0
    for seed in range(8):
        t = random_tensor(seed + 3, 3)
        calls.clear()
        raws.clear()
        spec = singular_values(t, seed=1)
        assert all(d.chart_note.endswith("attempt=0") for d in spec.data)
        (raw,) = raws
        arr = expand(t).as_array().astype(complex)
        stop = 1e-14 * (1.0 + float(np.max(np.abs(arr))))
        # Newton's stop bound, recomputed here on the q-normalized stack, picks the candidates to polish
        due = [x for x in bts.spectral._q_normalized(raw) if _newton_norm(arr, x) >= stop]
        assert len(calls) == len(due) and all(np.array_equal(a, b) for a, b in zip(calls, due))
        polished, skipped = polished + len(due), skipped + len(raw) - len(due)
    # both branches ran
    assert polished > 0 and skipped > 0


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
    spec = singular_values(BinaryTensor(3, tuple(pert)), seed=5)
    assert not spec.degenerate and len(spec.data) == 6
    assert min(abs(v) for v in spec.sigma_sq()) > 1e-8


def test_zero_tensor_rejected():
    with pytest.raises(ValueError):
        singular_values(BinaryTensor(3, (Fraction(0),) * 8), seed=0)


# --- the critical equations and the contraction kernel ----------------------------


def _critical_equations(entries, mu):
    """The dehomogenized critical equations of a mu-symmetric tensor, one per group: the pencil map's oracle.

    With x_l = (1, z_k) on every slot l of group k, group k's equation is
    y_{k,0} z_k - y_{k,1}, where y_k contracts ``entries`` (dense, slot-major)
    against every slot but the first one of the group.  Variables z1..zs.
    """
    vars_ = tuple(f"z{k + 1}" for k in range(mu.s))
    groups, firsts = mu.group_of, mu.firsts
    eqs = [{} for _ in firsts]
    for idx, v in enumerate(entries):
        if v == 0:
            continue
        bits = index_to_bits(idx, mu.d)
        for k, first in enumerate(firsts):
            e = [0] * mu.s
            for l, b in enumerate(bits):
                if l != first:
                    e[groups[l]] += b
            e[k] += 1 - bits[first]
            key = tuple(e)
            eqs[k][key] = eqs[k].get(key, Fraction(0)) + (v if bits[first] == 0 else -v)
    return tuple(MultiPoly(vars_, terms) for terms in eqs)


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
    eqs = _critical_equations([Fraction(v) for v in expand(t).entries], t.mu)
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
    assert bts.spectral._contract_batch(arr, mu, np.array([group_vecs], dtype=complex))[1][0] == pairing(t, slot_vecs)
    sigma = Fraction(int(rng.integers(-8, 9)), 4)
    worst = Fraction(0)
    for slot in range(mu.d):
        y = bts.spectral._contract_except(arr, batch, keep=(slot,))[0]
        oracle = contraction(t, slot_vecs, slot + 1)
        assert list(y) == [complex(v) for v in oracle]
        worst = max(worst, *(abs(oracle[b] - sigma * slot_vecs[slot][b]) for b in (0, 1)))
    pairings, residuals = bts.spectral.tuple_residual(
        arr, mu, np.array([group_vecs], dtype=complex), np.array([complex(sigma)])
    )
    assert pairings[0] == pairing(t, slot_vecs) and residuals[0] == worst


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
        # a row scored alone equals its row of the batch
        alone = bts.spectral.tuple_residual(arr, mu, vecs[i : i + 1], np.array([complex(sigma)]))
        assert alone[0][0] == pairings[i] and alone[1][0] == residuals[i]
    _, _, own = bts.spectral._contract_batch(arr, mu, vecs)
    batched = bts.spectral.tuple_residual(arr, mu, vecs)
    assert list(batched[0]) == list(pairings) and list(batched[1]) == list(own)
    alone = [bts.spectral.tuple_residual(arr, mu, vecs[i : i + 1], pairings[i : i + 1])[1][0] for i in range(n)]
    assert list(own) == alone


@pytest.mark.parametrize("t", [
    *(random_tensor(7, shape) for shape in (2, (2, 1), 3, (3,))),
    rank_one_tensor([(Fraction(1), Fraction(2)), (Fraction(3), Fraction(-1)), (Fraction(2), Fraction(5))]),
    MuTensor(Partition((2, 1)), {(0, 0): Fraction(2), (1, 0): Fraction(6), (2, 0): Fraction(18),
                                 (0, 1): Fraction(-1), (1, 1): Fraction(-3), (2, 1): Fraction(-9)}),
], ids=["elimination-2", "elimination-(2,1)", "elimination-3", "symmetric-(3,)", "rank-one-3", "rank-one-(2,1)"])
def test_every_chart_hands_over_one_complex_stack(monkeypatch, t):
    finalize, seen = bts.spectral._finalize_spectrum, []

    def spy(mu, arr, norm, vecs, mults, *rest, **kw):
        seen.append((mu, vecs, list(mults)))
        return finalize(mu, arr, norm, vecs, mults, *rest, **kw)

    monkeypatch.setattr(bts.spectral, "_finalize_spectrum", spy)
    spec = singular_values(t, seed=1)
    assert seen and len(spec.data) == spec.ed_degree
    assert spec.degenerate == spec.data[0].chart_note.startswith("rank-one")
    for mu, vecs, mults in seen:
        assert vecs.dtype == complex and vecs.shape == (len(mults), mu.s, 2)
        assert sum(mults) == ed_degree(mu)


def test_finalize_pairs_every_candidate_in_one_kernel_call(monkeypatch):
    t = random_tensor(3, 3)
    tf = BinaryTensor(3, tuple(float(v) for v in t.entries))
    spec = singular_values(tf, seed=1)
    vecs = np.array([d.vectors for d in spec.data], dtype=complex)
    sizes = []
    original = bts.spectral._contract_batch
    monkeypatch.setattr(bts.spectral, "_contract_batch",
                        lambda arr, mu, vecs, sigma=None: sizes.append(len(vecs)) or original(arr, mu, vecs, sigma))
    again = bts.spectral._finalize_spectrum(tf.mu, tf.as_array().astype(complex), tf.norm(), vecs, [1] * 6, "test")
    # one call over the raw candidates to seed Newton and test convergence,
    # one over the polished ones for the pairings and the residuals
    assert sizes == [6, 6]
    assert [d.sigma_sq for d in again.data] == pytest.approx([d.sigma_sq for d in spec.data], rel=1e-12)


def _residual_by_loops(t, vecs, sigma):
    """max_j |y_j - sigma x_j| of one tuple, each y_j summed entry by entry over the dense tensor."""
    dense = expand(t)
    slot_vecs = [vecs[k] for k in t.mu.group_of]
    worst = 0.0
    for j in range(dense.d):
        y = [0j, 0j]
        for i, v in enumerate(dense.entries):
            bits = index_to_bits(i, dense.d)
            y[bits[j]] += complex(v) * math.prod(slot_vecs[l][bits[l]] for l in range(dense.d) if l != j)
        worst = max(worst, *(abs(y[b] - sigma * slot_vecs[j][b]) for b in (0, 1)))
    return worst


@pytest.mark.parametrize("shape", [2, (2, 1), 3, (3,), (5,)], ids=str)
@pytest.mark.parametrize("seed", range(4))
def test_certification_residuals_match_a_per_tuple_contraction(shape, seed):
    # the batched certification scores every survivor as one tuple scored alone would be
    t = _seeded(np.random.default_rng(seed), shape, lambda rng: float(rng.uniform(-1.0, 1.0)))
    spec = singular_values(t, seed=seed)
    ulp = float(np.spacing(expand(t).norm()))
    for d in spec.data:
        assert abs(d.residual - _residual_by_loops(t, d.vectors, d.sigma)) <= 4 * ulp


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("defect", ["nan-sigma", "nan-vector", "inf-sigma"])
def test_non_finite_tuple_has_infinite_residual(defect):
    t = random_tensor(3, 3)
    arr = t.as_array().astype(complex)
    spec = singular_values(t, seed=1)
    vecs, sigma = [list(v) for v in spec.data[0].vectors], spec.data[0].sigma
    if defect == "nan-sigma":
        sigma = complex(math.nan, 0.0)
    elif defect == "nan-vector":
        vecs[1][0] = complex(math.nan, 0.0)
    else:
        sigma = complex(math.inf, 0.0)
    _, (res,) = bts.spectral.tuple_residual(arr, t.mu, np.array([vecs], dtype=complex), np.array([sigma]))
    assert res == math.inf
    assert res > bts.spectral.RESIDUAL_REL_TOL * t.norm()


def test_q_normalized_names_overflow():
    # |x|^2 of (1, 1e200) overflows: the cause is named, not turned into a zero vector
    with pytest.raises(SolverFailureError, match="overflow"):
        bts.spectral._q_normalized(np.array([[[1, 1e200]]], dtype=complex))


def test_q_normalized_leaves_a_nan_row_to_certification():
    # no RuntimeWarning from the division: the NaN row reaches certification, which rejects it
    got = bts.spectral._q_normalized(np.array([[[np.nan, 1]], [[3, 4]]], dtype=complex))
    assert np.isnan(got[0]).all()
    assert np.allclose(got[1], [[0.6, 0.8]], rtol=1e-15, atol=0)


def _pencil_of(t):
    """The hidden-variable pencil of a tensor's critical equations, unrotated, and its columns."""
    m0, m1, table = bts.spectral._pencil(expand(t).entries, t.mu)
    return m0, m1, table.monomials


def _pencil_from_equations(entries, mu):
    """The pencil assembled from the rational critical equations of dense ``entries``: the map's oracle."""
    p = mu.parts[0]
    monomials = list(product(range(mu.s * p), *(range(part + 1) for part in mu.parts[1:-1])))
    column = {m: i for i, m in enumerate(monomials)}
    mats = np.zeros((2, len(monomials), len(monomials)))
    gs = _critical_equations([Fraction(v) for v in entries], mu)
    for row, (g, a) in enumerate((g, a) for g in gs for a in range((mu.s - 1) * p)):
        for power, coeff in enumerate(g.coefficients_in(g.vars[-1])):
            for e, c in coeff.terms.items():
                mats[power, row, column[(e[0] + a, *e[1:])]] = float(c)
    mats /= np.max(np.abs(mats)) or 1.0
    return mats[0], mats[1], monomials


@pytest.mark.parametrize("shape", [2, (2, 1), 3], ids=str)
@pytest.mark.parametrize("scale", [1.0, 1e150, 1e-150], ids=str)
def test_pencil_map_matches_the_rational_critical_equations(shape, scale):
    rng = np.random.default_rng(7)
    for _ in range(10):
        t = _seeded(rng, shape, lambda rng: float(rng.uniform(-1.0, 1.0)) * scale)
        mu = t.mu
        cs = [(math.cos(a), math.sin(a)) for a in rng.uniform(0.0, 2.0 * math.pi, size=mu.s)]
        entries = expand(bts.spectral.rotate_cs(t, cs)).entries
        m0, m1, table = bts.spectral._pencil(entries, mu)
        o0, o1, oracle_monomials = _pencil_from_equations(entries, mu)
        assert m0.tobytes() == o0.tobytes() and m1.tobytes() == o1.tobytes()
        assert list(table.monomials) == oracle_monomials
    table = bts.spectral._pencil_map(mu)
    assert table is bts.spectral._pencil_map(mu)
    assert not any(a.flags.writeable for a in (table.basis, table.rows, table.shifted))
    # slice u of the map is the oracle's pencil of the u-th unit tensor
    size = 1 << mu.d
    units = [_pencil_from_equations([int(i == u) for i in range(size)], mu) for u in range(size)]
    assert table.basis.tobytes() == np.stack([np.stack(pencil[:2]) for pencil in units], axis=-1).tobytes()
    # the shift tables pair exactly the columns m and z1 m, and the units are z2..z_{s-1}
    column = {m: i for i, m in enumerate(table.monomials)}
    up = lambda m: (m[0] + 1, *m[1:])
    pairs = [(column[m], column[up(m)]) for m in table.monomials if up(m) in column]
    assert list(zip(table.rows.tolist(), table.shifted.tolist())) == pairs
    n = mu.s - 1
    assert [table.monomials[u] for u in table.units] == [tuple(int(j == i) for j in range(n)) for i in range(1, n)]

    bts.spectral._pencil_map.cache_clear()
    t = random_tensor(5, 3)
    first = singular_values(t, seed=1)
    assert bts.spectral._pencil_map.cache_info().misses == 1
    second = singular_values(t, seed=2)
    assert bts.spectral._pencil_map.cache_info().misses == 1
    assert len(first.data) == len(second.data) == 6


@pytest.mark.parametrize("shape", [2, (2, 1), 3], ids=str)
@pytest.mark.parametrize("seed", range(3))
def test_pencil_is_square_of_ed_degree(shape, seed):
    t = _seeded(np.random.default_rng(seed), shape, lambda rng: Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 5))))
    m0, m1, monomials = _pencil_of(t)
    n = ed_degree(t.mu)
    assert m0.shape == m1.shape == (n, n) and len(monomials) == n
    values = bts.spectral._pencil_values(m0, m1)
    assert sum(basis.shape[1] for _, basis in values) == n
    assert all(np.isfinite(z) for z, _ in values)
    # every eigenvector column is a null vector of the pencil at its value
    for z, basis in values:
        for v in basis.T:
            size = (np.linalg.norm(m0) + abs(z) * np.linalg.norm(m1)) * np.linalg.norm(v)
            assert np.linalg.norm((m0 + z * m1) @ v) <= 1e-9 * size


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

    def spy(table, clusters):
        sizes.extend(vectors.shape[1] for _, vectors in clusters)
        return points(table, clusters)

    monkeypatch.setattr(bts.spectral, "_pencil_points", spy)
    spec = singular_values(expand(random_tensor(seed + 40, shape)), seed=seed)
    assert len(spec.data) == 6
    assert all(d.chart_note.endswith("attempt=0") for d in spec.data)
    assert max(sizes) >= 2 and sum(sizes) == 6


def _points_per_cluster(table, clusters):
    """The oracle of ``_pencil_points``: one least-squares shift and one eigendecomposition per cluster."""
    out = []
    for z, vectors in clusters:
        step, *_ = np.linalg.lstsq(vectors[table.rows], vectors[table.shifted], rcond=None)
        z1s, coords = np.linalg.eig(step)
        out.append([(z1, *(v[u] / v[0] for u in table.units), z) for z1, v in zip(z1s, (vectors @ coords).T)])
    return out


@pytest.mark.parametrize("shape", [(2, 1), (3,), 3], ids=str)
@pytest.mark.parametrize("seed", range(4))
def test_stacked_point_recovery_matches_one_solve_per_cluster(shape, seed):
    # dense views of (2,1) and (3,) tensors give clusters of width 2, random
    # 2x2x2 tensors clusters of width 1
    rng = np.random.default_rng(seed)
    t = expand(random_tensor(seed + 40, shape))
    cs = [(math.cos(a), math.sin(a)) for a in rng.uniform(0.0, 2.0 * math.pi, size=3)]
    m0, m1, table = bts.spectral._pencil(expand(bts.spectral.rotate_cs(t, cs)).entries, t.mu)
    clusters = bts.spectral._pencil_values(m0, m1)
    widths = [vectors.shape[1] for _, vectors in clusters]
    assert sum(widths) == 6 and max(widths) == (1 if shape == 3 else 2)
    got = bts.spectral._pencil_points(table, clusters)
    assert len(got) == 6
    for want in _points_per_cluster(table, clusters):
        # eig may order a cluster's points either way: match each to the nearest
        for point in want:
            gaps = [max(abs(a - b) / (1.0 + abs(b)) for a, b in zip(g, point)) for g in got[: len(want)]]
            assert min(gaps) <= 1e-12
        got = got[len(want) :]


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


def jacobian_by_blocks(arr, mu, xv, sg):
    """Newton's Jacobian block by block, one contraction per (row, column) block: ``_jacobian``'s oracle."""
    s, firsts = mu.s, mu.firsts
    slot_vecs = xv[None, list(mu.group_of)]
    jac = np.zeros((3 * s, 2 * s + 1), dtype=complex)
    row = 0
    for k in range(s):
        for m in range(s):
            count = mu.parts[m] - (1 if m == k else 0)
            if count > 0:
                other = firsts[m] + (1 if m == k else 0)
                mat = bts.spectral._contract_except(arr, slot_vecs, keep=(firsts[k], other))[0]
                if firsts[k] > other:
                    mat = mat.T
                jac[row : row + 2, 2 * m : 2 * m + 2] += count * mat
        jac[row : row + 2, 2 * k : 2 * k + 2] -= sg * np.eye(2)
        jac[row : row + 2, 2 * s] = -xv[k]
        row += 2
    for k in range(s):
        jac[row, 2 * k : 2 * k + 2] = 2.0 * xv[k]
        row += 1
    return jac


@pytest.mark.parametrize("parts, pairs", [((1, 1), 1), ((2, 1), 2), ((1, 1, 1), 3), ((3,), 1), ((5,), 1)], ids=str)
def test_planned_jacobian_matches_blockwise_oracle_bit_for_bit(parts, pairs, monkeypatch):
    mu = Partition(parts)
    contract, kept = bts.spectral._contract_except, []

    def spy_contract(arr, slot_vecs, keep):
        kept.append(tuple(keep))
        return contract(arr, slot_vecs, keep)

    rng = np.random.default_rng(len(parts) * 10 + mu.d)
    for _ in range(20):
        arr = rng.normal(size=(2,) * mu.d) + 1j * rng.normal(size=(2,) * mu.d)
        xv = rng.normal(size=(mu.s, 2)) + 1j * rng.normal(size=(mu.s, 2))
        sg = complex(rng.normal(), rng.normal())
        kept.clear()
        with monkeypatch.context() as patch:
            patch.setattr(bts.spectral, "_contract_except", spy_contract)
            got = bts.spectral._jacobian(arr, mu, xv, sg)
        # each slot pair contracted once per step
        assert len(kept) == len(set(kept)) == pairs
        want = jacobian_by_blocks(arr, mu, xv, sg)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

