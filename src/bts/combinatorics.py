"""Partition combinatorics for binary tensor spectra.

Everything here is exact integer arithmetic: ED degrees of Segre-Veronese
varieties of binary format, degrees of the discriminant hypersurfaces dual to
the partially-isotropic loci, the exponents with which those hypersurfaces
enter the extreme coefficients of the distance polynomial, and the integer
identities tying all of them together.

Conventions
-----------
A partition ``mu = (mu_1, ..., mu_s)`` of ``d`` keeps the part order given by
the caller: subsets ``J`` of ``{1, ..., s}`` index parts positionally
(1-based).  The empty partition (``d = 0``) is allowed only as the result of
removing every part; its discriminant degree is 1 by convention, which makes
the degree formula for ``J = [s]`` uniform.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb, factorial
from typing import Iterable, Iterator


@dataclass(frozen=True)
class Partition:
    """An integer partition, order of parts preserved."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "parts", tuple(int(p) for p in self.parts))
        if any(p < 1 for p in self.parts):
            raise ValueError(f"partition parts must be positive, got {self.parts}")

    @property
    def d(self) -> int:
        return sum(self.parts)

    @property
    def s(self) -> int:
        return len(self.parts)

    @cached_property
    def group_of(self) -> tuple[int, ...]:
        """The group (0-based) of each slot: consecutive blocks of sizes mu_1, ..., mu_s."""
        return tuple(k for k, p in enumerate(self.parts) for _ in range(p))

    @cached_property
    def firsts(self) -> tuple[int, ...]:
        """The first slot (0-based) of each group."""
        return tuple(self.group_of.index(k) for k in range(self.s))

    @property
    def is_empty(self) -> bool:
        return not self.parts

    def sorted(self) -> tuple[int, ...]:
        """View for equality up to permutation of parts."""
        return tuple(sorted(self.parts, reverse=True))

    def remove(self, j_set: Iterable[int]) -> "Partition":
        """Partition left after deleting the parts indexed by ``j_set`` (1-based)."""
        j = _as_subset(self, j_set)
        return Partition(tuple(p for k, p in enumerate(self.parts, start=1) if k not in j))

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self.parts) + ")"


def _as_partition(mu: Partition | Iterable[int]) -> Partition:
    return mu if isinstance(mu, Partition) else Partition(tuple(mu))


def _as_subset(mu: Partition, j_set: Iterable[int]) -> frozenset[int]:
    j = frozenset(int(k) for k in j_set)
    if not j <= set(range(1, mu.s + 1)):
        raise ValueError(f"subset {sorted(j)} not contained in {{1..{mu.s}}}")
    return j


def ed_degree(mu: Partition | Iterable[int]) -> int:
    """Number of singular tensors of a general mu-symmetric binary tensor: s! * mu_1 ... mu_s."""
    mu = _as_partition(mu)
    if mu.is_empty:
        raise ValueError("ED degree of the empty partition is undefined")
    n = factorial(mu.s)
    for p in mu.parts:
        n *= p
    return n


def _elementary_symmetric(parts: tuple[int, ...]) -> list[int]:
    """e_0, ..., e_s of the parts, by the usual one-pass recurrence."""
    e = [1] + [0] * len(parts)
    for p in parts:
        for j in range(len(parts), 0, -1):
            e[j] += p * e[j - 1]
    return e


def delta_mu(mu: Partition | Iterable[int]) -> int:
    """Degree of the mu-discriminant: sum_j (-2)^(s-j) (j+1)! e_j(mu); 1 for the empty partition."""
    mu = _as_partition(mu)
    if mu.is_empty:
        return 1
    e = _elementary_symmetric(mu.parts)
    s = mu.s
    return sum((-2) ** (s - j) * factorial(j + 1) * e[j] for j in range(s + 1))


def delta_hyperdeterminant(d: int) -> int:
    """Degree of the hyperdeterminant of format 2^d, by the binomial alternating sum.

    Independent of :func:`delta_mu`; the two must agree on mu = 1^d.
    """
    if d == 0:
        return 1
    return sum((-2) ** (d - j) * comb(d, j) * factorial(j + 1) for j in range(d + 1))


def is_dual_hypersurface(mu: Partition | Iterable[int], j_set: Iterable[int]) -> bool:
    """Whether the dual of the partially-isotropic Segre-Veronese X_{mu,J} is a hypersurface.

    It always is, except when exactly one part lies outside J and that part
    equals 1 (this covers the trivial case s = 1, d = 1, J = empty).
    """
    mu = _as_partition(mu)
    j = _as_subset(mu, j_set)
    if len(j) == mu.s - 1:
        (excluded,) = (p for k, p in enumerate(mu.parts, start=1) if k not in j)
        return excluded != 1
    return True


def deg_f(mu: Partition | Iterable[int], j_set: Iterable[int]) -> int:
    """Degree of the dual-variety equation f_{mu,J}; 0 when that factor is trivial."""
    mu = _as_partition(mu)
    j = _as_subset(mu, j_set)
    if not is_dual_hypersurface(mu, j):
        return 0
    return 2 ** len(j) * delta_mu(mu.remove(j))


def exponent_alpha(mu: Partition | Iterable[int], j_set: Iterable[int]) -> tuple[int, bool]:
    """Exponent of f_{mu,J} in the top coefficient of the distance polynomial.

    Returns ``(alpha, inert)``.  For non-empty J the exponent is
    sum_{k in J} mu_k - 2; for the empty set it is -2 (the mu-discriminant
    enters the constant term squared).  ``inert`` marks exponents attached to
    trivial factors (f = 1), including the conventional value d - 3 for the
    sole undetermined slot; inert exponents never matter numerically.
    """
    mu = _as_partition(mu)
    j = _as_subset(mu, j_set)
    if not j:
        alpha = -2
    else:
        alpha = sum(mu.parts[k - 1] for k in j) - 2
    return alpha, not is_dual_hypersurface(mu, j)


def subsets(s: int) -> Iterator[frozenset[int]]:
    """All subsets of {1, ..., s}, smallest first."""
    for mask in range(1 << s):
        yield frozenset(k + 1 for k in range(s) if mask >> k & 1)


def degree_identity_check(mu: Partition | Iterable[int]) -> bool:
    """Exact check of the degree identity binding exponents, factor degrees and the ED degree.

    sum_{J subset [s]} alpha_{mu,J} * deg(f_{mu,J}) + 2 EDdegree(X_mu) = 0.

    For mu = 1^d the equivalent ED-degree expansion
    2 * d! = sum_j C(d,j) (2-j) 2^j delta_{d-j} is checked as well
    (stated with 2^(j-1); both sides are doubled here to stay in integers).
    """
    mu = _as_partition(mu)
    total = 0
    for j in subsets(mu.s):
        alpha, _ = exponent_alpha(mu, j)
        total += alpha * deg_f(mu, j)
    if total + 2 * ed_degree(mu) != 0:
        return False
    if all(p == 1 for p in mu.parts):
        d = mu.d
        rhs = sum(comb(d, j) * (2 - j) * 2**j * delta_hyperdeterminant(d - j) for j in range(d + 1))
        if 2 * factorial(d) != rhs:
            return False
    return True

