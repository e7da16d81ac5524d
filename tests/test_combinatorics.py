"""Degree formulas, hypersurface predicates, and the integer identities."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import partitions_of

from bts.combinatorics import (
    Partition,
    deg_f,
    degree_identity_check,
    delta_hyperdeterminant,
    delta_mu,
    ed_degree,
    exponent_alpha,
    is_dual_hypersurface,
    subsets,
)

partitions = st.lists(st.integers(1, 6), min_size=1, max_size=5)


def test_ed_degree_examples():
    assert ed_degree((1, 1, 1)) == 6
    assert ed_degree((3,)) == 3
    assert ed_degree((2, 1)) == 4
    assert ed_degree((1,) * 4) == 24


def test_ed_degree_empty_partition_rejected():
    with pytest.raises(ValueError):
        ed_degree(())


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition((2, 0))
    p = Partition((1, 3, 2))
    assert p.d == 6 and p.s == 3
    assert p.sorted() == (3, 2, 1)
    assert p.remove({2}).parts == (1, 2)
    assert p.remove({1, 2, 3}).is_empty


def test_delta_mu_examples():
    assert delta_mu((1, 1)) == 2  # 2x2 determinant
    assert delta_mu((1, 1, 1)) == 4  # 2x2x2 hyperdeterminant is quartic
    assert delta_mu((3,)) == 4  # binary cubic discriminant
    assert delta_mu(()) == 1
    for d in range(2, 9):
        assert delta_mu((d,)) == 2 * (d - 1)


def test_delta_two_evaluations_agree():
    for d in range(13):
        assert delta_mu((1,) * d if d else ()) == delta_hyperdeterminant(d)


@given(partitions)
def test_delta_mu_permutation_invariant(parts):
    rev = tuple(reversed(parts))
    assert delta_mu(tuple(parts)) == delta_mu(rev)
    assert delta_mu(tuple(sorted(parts))) == delta_mu(tuple(parts))


def test_hypersurface_predicate():
    assert not is_dual_hypersurface((1, 1, 1), {1, 2})
    assert not is_dual_hypersurface((1, 1, 1), {1, 3})
    assert not is_dual_hypersurface((2, 1), {1})  # excluded part is 1
    assert is_dual_hypersurface((2, 1), {2})  # excluded part is 2
    assert is_dual_hypersurface((2, 1), set())
    assert not is_dual_hypersurface((1,), set())  # trivial d = 1 case
    assert is_dual_hypersurface((2,), set())


def test_deg_f_examples():
    assert deg_f((1, 1, 1), {1}) == 4
    assert deg_f((1, 1, 1), {1, 2, 3}) == 8
    assert deg_f((1, 1, 1), set()) == 4
    assert deg_f((2, 1), {1}) == 0
    assert deg_f((2, 1), {2}) == 4
    assert deg_f((2, 1), {1, 2}) == 4


def test_deg_f_even_for_nonempty_j():
    for d in range(1, 9):
        for parts in partitions_of(d):
            mu = Partition(parts)
            for j in subsets(mu.s):
                if j:
                    assert deg_f(mu, j) % 2 == 0


def test_exponent_alpha_examples():
    assert exponent_alpha((1, 1, 1), {1}) == (-1, False)
    assert exponent_alpha((1, 1, 1), {1, 2, 3}) == (1, False)
    for d in range(2, 8):
        alpha, inert = exponent_alpha((d,), {1})
        assert alpha == d - 2 and not inert
    # the empty set is fixed to -2, not via the sum formula
    assert exponent_alpha((2, 1), set()) == (-2, False)
    # the conventional d-3 slot exists but is inert
    alpha, inert = exponent_alpha((1, 1, 1), {1, 2})
    assert alpha == 0 and inert


@given(partitions, st.data())
def test_exponent_depends_only_on_selected_sum(parts, data):
    mu = Partition(tuple(parts))
    j = data.draw(st.sets(st.integers(1, mu.s)))
    alpha, _ = exponent_alpha(mu, j)
    if j:
        assert alpha == sum(mu.parts[k - 1] for k in j) - 2
    else:
        assert alpha == -2


def test_degree_identity_examples():
    assert degree_identity_check((1, 1, 1))
    assert degree_identity_check((2, 1))
    for d in range(1, 13):
        assert degree_identity_check((1,) * d)


def test_degree_identity_all_partitions_to_8():
    for d in range(1, 9):
        for parts in partitions_of(d):
            assert degree_identity_check(parts), parts


def test_big_integer_regime():
    # individual (j+1)! terms of the alternating sum overflow 64-bit integers
    # near d = 20 even though cancellation keeps the value smaller
    assert math.factorial(21) > 2**63
    assert delta_mu((1,) * 20) == delta_hyperdeterminant(20)
    assert delta_mu((1,) * 24) > 2**63
