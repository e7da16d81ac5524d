"""Shared oracles and multiset helpers for the test suite."""

from __future__ import annotations

from fractions import Fraction

import pytest

from bts.tensor import BinaryTensor, bombieri, rank_one_tensor


def pairing(t, xs):
    """q~(t, x_1 (x) ... (x) x_d), the full contraction of a dense tensor; exact on exact input."""
    return bombieri(t, rank_one_tensor(xs))


def contraction(t, xs, j):
    """(y_0, y_1): t contracted with every x_l but the j-th (1-based), y_b the pairing with e_b at slot j."""
    return tuple(pairing(t, [*xs[: j - 1], e, *xs[j:]]) for e in ((1, 0), (0, 1)))


def diagonal_sigma_sq(a: float, b: float) -> list[float]:
    """Hand-solved squared singular values of the order-3 tensor with t000=a, t111=b.

    With x_j = (p_j, q_j) the critical equations read a p2 p3 = s p1 (cyclic)
    and b q2 q3 = s q1 (cyclic).  All-p solutions give s = a, all-q give
    s = b; mixed solutions force p_j^2 and q_j^2 constant across slots, so
    p = s/a, q = s/b and the normalization p^2 + q^2 = 1 leaves
    s^2 = a^2 b^2 / (a^2 + b^2), attained by four sign patterns.
    """
    m = a * a * b * b / (a * a + b * b)
    return sorted([a * a, b * b, m, m, m, m])


def multiset_close(got, expected, tol=1e-9):
    got = sorted(got)
    expected = sorted(expected)
    assert len(got) == len(expected), (got, expected)
    for g, e in zip(got, expected):
        assert abs(g - e) <= tol * (1.0 + abs(e)), (got, expected)


def multiset_subtract(big, small, tol=1e-7):
    """Remove ``small`` from ``big`` by nearest match; assert every match is close."""
    big = list(big)
    for s in small:
        i = min(range(len(big)), key=lambda i: abs(big[i] - s))
        assert abs(big[i] - s) <= tol * (1.0 + abs(s)), (s, big)
        big.pop(i)
    return big


@pytest.fixture
def diag_12():
    """The worked tensor t000 = 1, t111 = 2 in exact coordinates."""
    e = [Fraction(0)] * 8
    e[0], e[7] = Fraction(1), Fraction(2)
    return BinaryTensor(3, tuple(e))
