"""Tensor storage, the product metric, contractions, rotations, and serialization."""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import to_u_coordinates

from bts.combinatorics import Partition
from bts.scalars import QQi
from bts.spectral import _contract_batch, _contract_except
from bts.tensor import (
    BinaryTensor,
    MuTensor,
    NotMuSymmetricError,
    all_bits,
    bombieri,
    bombieri_norm_sq,
    compress,
    expand,
    load_tensor,
    mu_box,
    permute_slots,
    rank_one_tensor,
    random_tensor,
    rotate,
    rotate_cs,
    slice_tensor,
    tensor_from_json_dict,
    tensor_to_json_dict,
)

small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=8)


def frac_tensor(values):
    return BinaryTensor(int(math.log2(len(values))), tuple(Fraction(v) for v in values))


# --- bombieri pairing ---------------------------------------------------------


def test_bombieri_symmetric_cubic():
    t = MuTensor(Partition((3,)), {(0,): Fraction(1), (3,): Fraction(1)})
    assert bombieri(t, t) == 2  # weights 1,3,3,1 on (1,0,0,1)


def test_bombieri_flat_sum_of_squares():
    t = frac_tensor([1, 0, 0, 0, 0, 0, 0, 2])
    assert bombieri(t, t) == 5


def test_bombieri_zero_distance_on_variety():
    xs = [(Fraction(3, 5), Fraction(4, 5))] * 3  # q(x) = 1 exactly
    t = rank_one_tensor(xs)
    sigma = bombieri(t, rank_one_tensor(xs))
    assert sigma == 1  # q(x)^3
    diff = BinaryTensor(3, tuple(a - sigma * b for a, b in zip(t.entries, t.entries)))
    assert bombieri(diff, diff) == 0


def test_bombieri_compressed_equals_flat():
    c = random_tensor(5, (2, 1))
    dense = expand(c)
    assert bombieri(c, c) == bombieri(dense, dense)


def test_bombieri_partition_mismatch():
    a = MuTensor(Partition((2,)), {})
    b = MuTensor(Partition((1, 1)), {})
    with pytest.raises(ValueError):
        bombieri(a, b)


# --- compress / expand ----------------------------------------------------------


def test_compress_symmetric_matrix():
    t = frac_tensor([1, 2, 2, 5])  # [[1,2],[2,5]]
    c = compress(t, (2,))
    assert (c[(0,)], c[(1,)], c[(2,)]) == (1, 2, 5)


def test_compress_symmetrized_slot():
    e = [Fraction(0)] * 8
    for idx in (0b001, 0b010, 0b100):
        e[idx] = Fraction(7, 3)
    c = compress(BinaryTensor(3, tuple(e)), (3,))
    assert c[(1,)] == Fraction(7, 3)


def test_compress_violation_names_indices():
    e = [Fraction(0)] * 8
    e[0b010] = Fraction(1)  # (0,1,0)
    e[0b100] = Fraction(2)  # (1,0,0) differs inside the (2,1) orbit
    with pytest.raises(NotMuSymmetricError) as exc:
        compress(BinaryTensor(3, tuple(e)), (2, 1))
    assert {exc.value.index_a, exc.value.index_b} == {(0, 1, 0), (1, 0, 0)}


@given(st.sampled_from([(2,), (3,), (2, 1), (1, 1, 1), (2, 2)]), st.integers(0, 2**31))
@settings(max_examples=25, deadline=None)
def test_round_trips(mu, seed):
    c = random_tensor(seed, mu)
    assert compress(expand(c), mu).c == c.c
    dense = expand(c)
    assert expand(compress(dense, mu)).entries == dense.entries


def test_dense_tensor_is_its_own_expansion():
    t = random_tensor(0, 3)
    assert expand(t) is t
    assert t.mu == Partition((1, 1, 1))


# --- contractions ----------------------------------------------------------------


def contract(t, xs, j):
    """The solver kernel's contraction of ``t`` with every x_l but the j-th (1-based), as a pair."""
    batch = np.array([[[complex(v) for v in x] for x in xs]])
    return tuple(_contract_except(t.as_array().astype(complex), batch, keep=(j - 1,))[0].tolist())


def test_contract_rank_one_factorization():
    xs = [(Fraction(1), Fraction(2)), (Fraction(2), Fraction(-1)), (Fraction(1), Fraction(3))]
    t = rank_one_tensor(xs)
    y = contract(t, xs, 1)
    q2 = xs[1][0] ** 2 + xs[1][1] ** 2
    q3 = xs[2][0] ** 2 + xs[2][1] ** 2
    assert y == (q2 * q3 * xs[0][0], q2 * q3 * xs[0][1])


def test_contract_diagonal():
    t = frac_tensor([1, 0, 0, 0, 0, 0, 0, 2])
    assert contract(t, [(1, 0)] * 3, 1) == (1, 0)


def test_contract_matrix_transpose_product():
    t = frac_tensor([1, 2, 3, 4])  # [[1,2],[3,4]]
    x1 = (Fraction(5), Fraction(7))
    y = contract(t, [x1, (0, 0)], 2)
    # y_2 = t^T x1
    assert y == (1 * 5 + 3 * 7, 2 * 5 + 4 * 7)


def test_contraction_associativity_with_pairing():
    t = random_tensor(9, 3)
    xs = [(0.3, 0.7), (-0.2, 1.1), (0.5, -0.4)]
    ys, pairings, _ = _contract_batch(t.as_array().astype(complex), t.mu, np.array([xs], dtype=complex))
    exact = float(bombieri(t, rank_one_tensor([tuple(map(Fraction, x)) for x in xs])))
    assert abs(pairings[0] - exact) < 1e-12
    for j in (1, 2, 3):
        y = contract(t, xs, j)
        assert list(y) == ys[0, j - 1].tolist()
        paired = y[0] * xs[j - 1][0] + y[1] * xs[j - 1][1]
        assert abs(paired - exact) < 1e-12


# --- slices ---------------------------------------------------------------------


def test_slice_examples():
    t = frac_tensor(range(8))
    s = slice_tensor(t, 1, 0)
    assert s.entries == tuple(Fraction(v) for v in range(4))
    m = frac_tensor([1, 2, 3, 4])
    col = slice_tensor(m, 2, 1)
    assert col.entries == (2, 4)
    t4 = random_tensor(2, 4)
    a = slice_tensor(slice_tensor(t4, 1, 0), 1, 0)
    for bits in all_bits(2):
        assert a[bits] == t4[(0, 0) + bits]


# --- rotations -------------------------------------------------------------------


def test_rotate_identity():
    t = random_tensor(1, 3)
    assert rotate(t, [0.0, 0.0, 0.0]) is t


def test_rotate_preserves_bombieri_float():
    t = random_tensor(2, 3)
    r = rotate(t, [0.3, -1.1, 2.2])
    assert abs(float(bombieri_norm_sq(r)) - float(bombieri_norm_sq(t))) < 1e-12


def test_rational_rotation_exactly_orthogonal():
    t = random_tensor(3, (2, 1))
    cs = [(Fraction(3, 5), Fraction(4, 5)), (Fraction(5, 13), Fraction(-12, 13))]
    r = rotate_cs(t, cs)
    assert bombieri_norm_sq(r) == bombieri_norm_sq(t)


# --- u coordinates ----------------------------------------------------------------


def test_u_coordinates_d1():
    u = to_u_coordinates(BinaryTensor(1, (Fraction(1), Fraction(0))))
    assert complex(u.entries[0]) == 1 and complex(u.entries[1]) == 1


def test_u_conjugation_symmetry():
    t = random_tensor(11, 3)
    u = to_u_coordinates(t)
    for bits in all_bits(3):
        comp = tuple(1 - b for b in bits)
        a, b = u[bits], u[comp]
        assert isinstance(a, QQi)
        assert a.conjugate() == b


def test_u_diagonal_theta():
    a, b = Fraction(3), Fraction(-2)
    e = [Fraction(0)] * 8
    e[0], e[7] = a, b
    u = to_u_coordinates(BinaryTensor(3, tuple(e)))
    prod = u.entries[0] * u.entries[7]
    assert isinstance(prod, QQi)
    assert prod.im == 0 and prod.re == a * a + b * b


def u_coordinates_by_double_sum(t):
    """The printed formula u_I = sum_J i^{|J|} (-1)^{sum_l (1-i_l) j_l} t_J, term by term."""
    if t.exact:
        one = QQi(Fraction(1), Fraction(0))
        i_pow = [one, QQi(Fraction(0), Fraction(1)), -one, QQi(Fraction(0), Fraction(-1))]
        zero = QQi(Fraction(0), Fraction(0))
    else:
        i_pow, zero = [1.0 + 0j, 1j, -1.0 + 0j, -1j], 0j
    out = []
    for ibits in all_bits(t.d):
        acc = zero
        for jbits in all_bits(t.d):
            v = t[jbits]
            if v == 0:
                continue
            term = i_pow[sum(jbits) % 4] * (v if t.exact else complex(v))
            if sum((1 - ib) * jb for ib, jb in zip(ibits, jbits)) % 2:
                term = -term
            acc = acc + term
        out.append(acc)
    return out


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_u_coordinates_match_double_sum(d):
    rng = np.random.default_rng(100 + d)
    for _ in range(40):
        # about a third of the entries are zero, which the double sum skips
        nums = rng.integers(-9, 10, size=1 << d) * (rng.random(1 << d) > 0.3)
        dens = rng.integers(1, 10, size=1 << d)
        exact = BinaryTensor(d, tuple(Fraction(int(n), int(m)) for n, m in zip(nums, dens)))
        got, want = to_u_coordinates(exact).entries, u_coordinates_by_double_sum(exact)
        assert [(u.re, u.im) for u in got] == [(u.re, u.im) for u in want]
        floats = BinaryTensor(d, tuple(float(v) for v in rng.uniform(-1, 1, size=1 << d) * (nums != 0)))
        got, want = to_u_coordinates(floats).entries, u_coordinates_by_double_sum(floats)
        assert all(abs(a - b) <= 1e-15 * (1 + abs(b)) for a, b in zip(got, want))


# --- randomness, symmetrization, permutation ---------------------------------------


def test_random_tensor_deterministic_and_dyadic():
    t1 = random_tensor(7, 3)
    t2 = random_tensor(7, 3)
    assert t1.entries == t2.entries
    assert all(isinstance(v, Fraction) and v.denominator <= 2**16 for v in t1.entries)
    assert random_tensor(8, 3).entries != t1.entries


def test_random_tensor_golden_entries():
    # one vectorized draw per tensor gives the entries of one scalar draw per entry
    dense = random_tensor(2024, 3)
    assert [str(v) for v in dense.entries] == [
        "23047/65536", "-9361/16384", "-1561/4096", "9813/16384",
        "32493/32768", "-46893/65536", "-55217/65536", "-41835/65536",
    ]
    sym = random_tensor(31, (2, 1))
    assert {"".join(map(str, om)): str(v) for om, v in sym.c.items()} == {
        "00": "52845/65536", "01": "-56665/65536", "10": "1415/4096",
        "11": "-3599/65536", "20": "2907/8192", "21": "-30169/32768",
    }
    assert random_tensor(2024, 3, scale=3).entries == tuple(3 * v for v in dense.entries)


def test_random_mu_round_trip():
    c = random_tensor(5, (2, 1))
    assert compress(expand(c), (2, 1)).c == c.c


def test_permute_slots():
    t = random_tensor(21, 3)
    p = permute_slots(t, (1, 2, 0))
    for bits in all_bits(3):
        assert p[bits] == t[(bits[1], bits[2], bits[0])]


# --- json ------------------------------------------------------------------------


def test_json_round_trip_exact(tmp_path):
    c = MuTensor(Partition((2, 1)), {(0, 0): Fraction(3, 4), (2, 1): Fraction(-7, 16)})
    path = tmp_path / "t.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(tensor_to_json_dict(c), fh)
    back = load_tensor(str(path))
    assert isinstance(back, MuTensor)
    assert back.c == c.c and back.mu.parts == (2, 1)


def test_json_dense_missing_keys_zero():
    t = tensor_from_json_dict({"d": 3, "mu": None, "entries": {"000": "3/4"}})
    assert isinstance(t, BinaryTensor)
    assert t[(0, 0, 0)] == Fraction(3, 4)
    assert sum(1 for v in t.entries if v != 0) == 1


def test_json_number_entries_are_float_pipeline():
    t = tensor_from_json_dict({"d": 2, "mu": None, "entries": {"01": 0.5}})
    assert not t.exact


def test_json_bad_keys_rejected():
    with pytest.raises(ValueError):
        tensor_from_json_dict({"d": 2, "mu": None, "entries": {"012": "1"}})
    with pytest.raises(ValueError):
        tensor_from_json_dict({"d": 3, "mu": [2, 2], "entries": {}})


def test_mu_box_shape():
    assert len(mu_box(Partition((2, 1)))) == 6
