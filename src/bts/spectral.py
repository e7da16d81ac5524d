"""Singular vector tuples, spectra, and distance polynomials of binary tensors.

The solvers find every solution of the critical equations

    y_j = sigma * x_j,   q(x_j) = 1,

where y_j contracts the tensor against all vectors but the j-th.  Each
solver works in a chart that yields its candidate tuples as one complex
(n, s, 2) array of group vectors, not normalized, with their
multiplicities, and ``_finalize_spectrum`` alone q-normalizes them
(``_q_normalized``; an isotropic or overflowing candidate raises
SolverFailureError by name), polishes (at most once, on the original
tensor), deduplicates, counts and certifies them.  The tensor is converted
to floats once per solve, and its dense array and norm are taken once
(``_float_arrays``).

Full 2x2x2 tensors, (2,1)-symmetric tensors and 2x2 matrices share the
elimination chart, ``_solve_by_elimination``.  A rank-one tensor (its
zero-value critical set is a curve, not isolated points) is answered at
once by a closed form.  Otherwise the dehomogenized critical equations,
one variable z_k per group, are linear in the last variable z_s; multiplied
by powers of z1 they give a square hidden-variable pencil M0 + z_s M1 of
size ed_degree(mu) over the monomials in z1..z_{s-1}, whose determinant is
the resultant of the equations.  Linear in the entries too, the pencil is a
fixed map of the rotated entries, read off index bits once per shape with
its shift tables (``_pencil_map``) and applied per attempt (``_pencil``).
One eigendecomposition gives the values of z_s and, with each, its
eigenvectors (``_pencil_values``): null vectors of M0 + z_s M1, which are
the monomial vectors of the tuples sharing that z_s (the eigenvector method
of hidden-variable elimination), and a shift in z1 separates them
(``_pencil_points``: one stacked least-squares shift and eigendecomposition
for all the clusters of one width).  The elimination chart is the only one
that rotates: it runs up to MAX_ROTATION_ATTEMPTS seeded rotations (the
squared singular values are rotation invariants), unrotates each attempt's
stack in one einsum, and when every attempt fails its error names the
reason of each.  Fully symmetric tensors use the critical binary form chart
of ``eigen_symmetric``, one exact pass on the unrotated form; its values
come from ``_pencil_values`` too, one companion matrix per factor of an
exact square-free decomposition.  ``_finalize_spectrum`` scores the
candidates in two batched kernel calls: one pairs the normalized
candidates and gives their Newton residuals, so that only the unconverged
ones are polished, and one certifies the polished stack.

The critical equations are scored by one batched kernel,
``_contract_batch``: it takes the group vectors of n tuples as an (n, s, 2)
array and returns, from one ``np.einsum`` per slot, the all-but-one
contractions y_j of every tuple, their pairings t(x, ..., x) and their
residuals max_j |y_j - sigma x_j| (inf when not finite).  ``tuple_residual``
is its certification view (pairings and residuals of a stack), Newton's
system (``_newton_residuals``) takes its group rows from the same per-slot
einsums, for a stack or for the one tuple being polished, and the
Jacobian (``_jacobian``) takes one einsum per distinct pair of slots it
leaves out, placed by a per-shape plan (``_jacobian_plan``).  Every
contraction, batched or not, is one call of ``_contract_except``.

Supported: full 2x2x2 tensors (six tuples), (2,1)-symmetric tensors (four),
2x2 matrices (two), and fully symmetric tensors of any order (d tuples, via
the critical binary form).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import product
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .combinatorics import Partition, ed_degree
from .invariants import extreme_coeffs_222, invariants_222
from .polys import UniPoly, reflect_edpoly, square_free_decomposition
from .tensor import (
    BinaryTensor,
    MuTensor,
    bombieri_norm_sq,
    compress,
    expand,
    index_to_bits,
    random_tensor,
    rank_one_tensor,
    rotate_cs,
)

RESIDUAL_REL_TOL = 1e-9
DEDUP_TOL = 1e-6
CLUSTER_REL_TOL = 1e-7
MAX_ROTATION_ATTEMPTS = 3


class SolverFailureError(RuntimeError):
    """The solver could not certify the expected number of singular tuples."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


@dataclass(frozen=True)
class SingularDatum:
    """One critical point: group vectors, singular value, certification residual."""

    vectors: tuple[tuple[complex, complex], ...]
    sigma: complex
    sigma_sq: complex
    residual: float
    is_real: bool
    chart_note: str = ""


@dataclass
class Spectrum:
    """All singular data of one tensor, with degeneracy bookkeeping."""

    mu: Partition
    data: list[SingularDatum]
    degenerate: bool = False
    notes: tuple[str, ...] = ()

    @property
    def ed_degree(self) -> int:
        return ed_degree(self.mu)

    def sigma_sq(self) -> list[complex]:
        return [d.sigma_sq for d in self.data]

    def real_data(self) -> list[SingularDatum]:
        return [d for d in self.data if d.is_real]


# --- small vector helpers ------------------------------------------------------


def _q_normalized(vecs: np.ndarray) -> np.ndarray:
    """The (n, s, 2) group vectors ``vecs``, each divided by sqrt(q(x)), q(x) = x0^2 + x1^2.

    A vector whose |x|^2 overflows raises SolverFailureError naming the
    overflow; one with |q(x)| < 1e-8 |x|^2 is numerically isotropic (excluded
    by the rank-one theory) and raises SolverFailureError.  A NaN vector is
    left to certification.
    """
    # an inf - inf in q happens only in a vector whose |x|^2 overflows, which raises below
    with np.errstate(over="ignore", invalid="ignore"):
        q = vecs[..., 0] * vecs[..., 0] + vecs[..., 1] * vecs[..., 1]
        mag = (np.abs(vecs) ** 2).sum(axis=-1)
    for failed, what in ((np.isinf(mag), "overflows the float range"),
                         (np.abs(q) < 1e-8 * np.maximum(mag, 1e-300), "is numerically isotropic")):
        if failed.any():
            row, group = np.argwhere(failed)[0]
            raise SolverFailureError(f"vector {tuple(vecs[row, group].tolist())} {what}")
    return vecs / np.sqrt(q)[..., None]


def _perp(x: Sequence[float]) -> tuple[float, float]:
    """The q-orthogonal direction (-x1, x0), of the same q as x."""
    return (-x[1], x[0])


def _rotation_pairs(rng: np.random.Generator, n: int) -> tuple[list[tuple[float, float]], np.ndarray]:
    """n seeded (cos, sin) pairs for ``rotate_cs`` and their (n, 2, 2) matrices [[c, -s], [s, c]]."""
    angles = rng.uniform(0.0, 2.0 * math.pi, size=n)
    cs = [(math.cos(a), math.sin(a)) for a in angles]
    return cs, np.array([((c, -s), (s, c)) for c, s in cs])


def _float_arrays(t: BinaryTensor | MuTensor) -> tuple[BinaryTensor | MuTensor, np.ndarray, float]:
    """``t`` with each entry converted to float once, its dense complex array and its norm, taken once per solve.

    Rotating the float copy gives the bits rotating ``t`` gives.  A zero
    tensor raises ValueError.
    """
    if isinstance(t, MuTensor):
        floats = MuTensor(t.mu, {om: float(v) for om, v in t.c.items()})
    else:
        floats = BinaryTensor(t.d, tuple(float(v) for v in t.entries))
    dense = expand(floats)
    norm = dense.norm()
    if norm == 0.0:
        raise ValueError("zero tensor")
    return floats, dense.as_array().astype(complex), norm


def _contract_except(arr: np.ndarray, slot_vecs: np.ndarray, keep: Sequence[int]) -> np.ndarray:
    """``arr`` contracted with the (n, d, 2) ``slot_vecs`` at every slot not in ``keep`` (0-based).

    Shape (n, 2, ..., 2): the batch axis, then the kept axes in ascending slot order.
    """
    d, n = arr.ndim, slot_vecs.shape[0]
    if len(keep) == d:
        # no vector left to carry the batch index into the einsum
        return np.broadcast_to(arr, (n, *arr.shape))
    operands: list = [arr, list(range(d))]
    for slot in range(d):
        if slot not in keep:
            operands += [slot_vecs[:, slot], [d, slot]]
    return np.einsum(*operands, [d, *sorted(keep)])


def _all_but_one(arr: np.ndarray, slot_vecs: np.ndarray, slots: Sequence[int]) -> np.ndarray:
    """(n, len(slots), 2): the all-but-one contraction at each of ``slots``."""
    return np.stack([_contract_except(arr, slot_vecs, (slot,)) for slot in slots], axis=1)


def _contract_batch(
    arr: np.ndarray, mu: Partition, vecs: np.ndarray, sigma: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The critical equations of n tuples at once, for group vectors ``vecs`` of shape (n, s, 2).

    Returns the all-but-one contractions y_j of every slot (n, d, 2), the
    pairings t(x, ..., x) (n,), and the residuals (n,): the worst defect
    |y_j - sigma * x_j| over all slots, with ``sigma`` the pairings unless
    given.  A tuple with a non-finite defect has residual inf.
    """
    slot_vecs = vecs[:, list(mu.group_of)]
    ys = _all_but_one(arr, slot_vecs, range(mu.d))
    pairings = np.einsum("nb,nb->n", ys[:, 0], slot_vecs[:, 0])
    sig = pairings if sigma is None else np.asarray(sigma, dtype=complex)
    with np.errstate(invalid="ignore"):
        defects = np.abs(ys - sig[:, None, None] * slot_vecs).max(axis=(1, 2))
    residuals = np.where(np.isfinite(defects), defects, np.inf)
    return ys, pairings, residuals


def tuple_residual(
    arr: np.ndarray, mu: Partition, vecs: np.ndarray, sigma: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The pairings and certification residuals of an (n, s, 2) stack of tuples, from one kernel call.

    Each residual is the worst defect of the critical equations over all
    slots, with ``sigma`` the pairings unless given; inf when it is not finite.
    """
    _, pairings, residuals = _contract_batch(arr, mu, vecs, sigma)
    return pairings, residuals


def _newton_residuals(vecs: np.ndarray, sigma: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """(n, 3s): Newton's system at n tuples of (n, s, 2) group vectors and (n,) ``sigma``.

    ``ys`` (n, s, 2) holds the contractions at each group's first slot; the
    rows are their defects y - sigma x, then q(x_k) - 1 per group.
    """
    defects = (ys - sigma[:, None, None] * vecs).reshape(len(vecs), 2 * vecs.shape[1])
    return np.concatenate([defects, vecs[..., 0] ** 2 + vecs[..., 1] ** 2 - 1.0], axis=1)


class _JacobianPlan(NamedTuple):
    """The all-but-two blocks of Newton's Jacobian for one shape (``_jacobian_plan``)."""

    pairs: tuple[tuple[int, int], ...]  # the distinct slot pairs, ascending, each contracted once per step
    blocks: tuple[tuple[int, int, int, bool, int], ...]  # (row, column, pair, transpose, count)
    eye: tuple[np.ndarray, np.ndarray, np.ndarray]  # rows, columns and values of the 2x2 identities -sigma scales


@cache
def _jacobian_plan(mu: Partition) -> _JacobianPlan:
    """Where each all-but-two contraction goes in the Jacobian of ``_newton_residuals``.

    Row block k (group k's first slot) and column block m (group m's vector)
    hold count times the contraction of every slot but k's first and one
    other slot of group m, m's first or, for m = k, its second; count is the
    number of group m's slots that are not k's first.
    """
    firsts, pairs, blocks = mu.firsts, [], []
    for k in range(mu.s):
        for m in range(mu.s):
            count = mu.parts[m] - (1 if m == k else 0)
            if count > 0:
                other = firsts[m] + (1 if m == k else 0)
                pair = tuple(sorted((firsts[k], other)))
                if pair not in pairs:
                    pairs.append(pair)
                blocks.append((2 * k, 2 * m, pairs.index(pair), firsts[k] > other, count))
    group, i, j = np.indices((mu.s, 2, 2)).reshape(3, -1)
    eye = (2 * group + i, 2 * group + j, (i == j).astype(float))
    for arr in eye:
        arr.flags.writeable = False
    return _JacobianPlan(tuple(pairs), tuple(blocks), eye)


def _jacobian(arr: np.ndarray, mu: Partition, x: np.ndarray, sigma: complex) -> np.ndarray:
    """The (3s, 2s + 1) Jacobian of Newton's system at the (s, 2) group vectors ``x`` and ``sigma``.

    Columns: the group vectors, then sigma; rows: the defects of each group's
    first slot, then the normalizations q(x_k) = 1.
    """
    s, plan = mu.s, _jacobian_plan(mu)
    slot_vecs = x[None, list(mu.group_of)]
    mats = [_contract_except(arr, slot_vecs, keep=pair)[0] for pair in plan.pairs]
    jac = np.zeros((3 * s, 2 * s + 1), dtype=complex)
    for row, col, pair, transpose, count in plan.blocks:
        jac[row : row + 2, col : col + 2] += count * (mats[pair].T if transpose else mats[pair])
    rows, cols, ones = plan.eye
    jac[rows, cols] -= sigma * ones
    flat = np.arange(2 * s)
    jac[flat, 2 * s] = -x.ravel()
    jac[2 * s + flat // 2, flat] = 2.0 * x.ravel()
    return jac


def _newton_polish_tuple(
    arr: np.ndarray, mu: Partition, x: np.ndarray, sigma: complex, f: np.ndarray, stop: float
) -> np.ndarray:
    """At most 50 damped Gauss-Newton steps on (vectors, sigma) with the normalizations q(x_k) = 1.

    ``x`` holds the (s, 2) group vectors and ``f`` Newton's residual vector
    there (``_newton_residuals``); the steps end once its norm is below
    ``stop``.  Returns the polished (s, 2) vectors.
    """
    s, firsts, group_of = mu.s, mu.firsts, list(mu.group_of)
    sig = complex(sigma)

    def system(xv: np.ndarray, sg: complex) -> np.ndarray:
        return _newton_residuals(xv[None], np.array([sg]), _all_but_one(arr, xv[None, group_of], firsts))[0]

    best = float(np.linalg.norm(f))
    for _ in range(50):
        if best < stop:
            break
        jac = _jacobian(arr, mu, x, sig)
        step, *_ = np.linalg.lstsq(jac, -f, rcond=None)
        lam = 1.0
        improved = False
        for _ in range(8):
            x_new = x + lam * step[: 2 * s].reshape(s, 2)
            sig_new = sig + lam * step[2 * s]
            f_new = system(x_new, sig_new)
            n_new = float(np.linalg.norm(f_new))
            if n_new < best:
                x, sig, f, best = x_new, sig_new, f_new, n_new
                improved = True
                break
            lam *= 0.5
        if not improved:
            break
    return x


# --- certification ------------------------------------------------------------


def _distinct(sigma_sq: np.ndarray, vecs: np.ndarray) -> list[int]:
    """The indices of the n tuples (``vecs`` (n, s, 2)) that repeat no earlier kept one.

    Two tuples are the same singular pair when their sigma^2 are within
    DEDUP_TOL * (1 + |sigma_i^2| + |sigma_j^2|) and each group vector is
    within DEDUP_TOL of the other's, up to sign.
    """
    mag = np.abs(sigma_sq)
    apart = np.abs(sigma_sq[:, None] - sigma_sq) > DEDUP_TOL * (1.0 + mag[:, None] + mag)
    same = np.abs(vecs[:, None] - vecs).max(axis=-1)
    flip = np.abs(vecs[:, None] + vecs).max(axis=-1)
    apart |= (np.minimum(same, flip) > DEDUP_TOL).any(axis=-1)
    kept: list[int] = []
    for i in range(len(vecs)):
        if apart[i, kept].all():
            kept.append(i)
    return kept


def _finalize_spectrum(
    mu: Partition,
    arr: np.ndarray,
    norm: float,
    vecs: np.ndarray,
    mults: Sequence[int],
    chart_note: str,
    notes: tuple[str, ...] = (),
    degenerate: bool = False,
) -> Spectrum:
    """Normalize, polish, deduplicate, count and certify the (n, s, 2) candidates ``vecs`` with ``mults``.

    ``arr`` is the dense complex array of the tensor and ``norm`` its norm.
    The candidates are q-normalized (``_q_normalized``; an isotropic or
    overflowing one raises SolverFailureError).  Two kernel calls in all.
    The first, over the normalized candidates, seeds each sigma and gives
    every candidate's Newton residual vector; only those whose residual is
    not below Newton's stop bound 1e-14 (1 + max |t|) are polished
    (``_newton_polish_tuple``), once each, and normalized again.  The
    second, ``tuple_residual`` over the stack, gives the pairings and
    residuals.  Repeats (``_distinct``) are dropped; the rest, counted with
    multiplicity, must number ed_degree(mu), each with residual at most
    RESIDUAL_REL_TOL * |t|, or SolverFailureError.  Real sigma < 0 flips the
    first odd group's vector.  The notes get "collisions" when two sorted
    sigma^2 are within 1e-7 (|t|^2 + |sigma^2|), then, unless
    ``degenerate``, "zero singular value" when a sigma^2 is within
    1e-8 |t|^2 of 0.
    """
    odd_groups = [k for k, p in enumerate(mu.parts) if p % 2 == 1]

    vecs = _q_normalized(vecs)
    ys, seeds, _ = _contract_batch(arr, mu, vecs)
    newton = _newton_residuals(vecs, seeds, ys[:, list(mu.firsts)])
    stop = 1e-14 * (1.0 + float(np.max(np.abs(arr))))
    due = np.flatnonzero(~(np.linalg.norm(newton, axis=1) < stop))  # a NaN residual goes to Newton as well
    if len(due):
        polished = [_newton_polish_tuple(arr, mu, vecs[i], seeds[i], newton[i], stop) for i in due]
        vecs[due] = _q_normalized(np.array(polished))
    sigmas, residuals = tuple_residual(arr, mu, vecs)
    kept = _distinct(sigmas * sigmas, vecs)
    is_real = (np.abs(vecs.imag).max(axis=(1, 2), initial=0.0) <= 1e-8) & (
        np.abs(sigmas.imag) <= 1e-8 * (1.0 + np.abs(sigmas))
    )
    if odd_groups:
        # exact negation, same residual; 0j - sigma keeps an imaginary 0.0 positive
        flip = is_real & (sigmas.real < 0)
        vecs[flip, odd_groups[0]] = -vecs[flip, odd_groups[0]]
        sigmas = np.where(flip, 0j - sigmas, sigmas)
    data: list[SingularDatum] = []
    vec_rows, sigma_list, res_list = vecs.tolist(), sigmas.tolist(), residuals.tolist()
    for i in kept:
        sigma = sigma_list[i]
        datum = SingularDatum(
            vectors=tuple(map(tuple, vec_rows[i])),
            sigma=sigma,
            sigma_sq=sigma * sigma,
            residual=res_list[i],
            is_real=bool(is_real[i]),
            chart_note=chart_note,
        )
        data += [datum] * mults[i]
    expected = ed_degree(mu)
    if len(data) != expected:
        raise SolverFailureError(f"{len(data)} survivors (expected {expected})")
    worst = max((d.residual for d in data), default=0.0)
    if worst > RESIDUAL_REL_TOL * norm:
        raise SolverFailureError(
            f"residual certification failed: {worst:.3e} > {RESIDUAL_REL_TOL * norm:.3e}",
            {"residuals": [d.residual for d in data]},
        )
    data.sort(key=lambda d: (d.sigma_sq.real, d.sigma_sq.imag))
    sq = [d.sigma_sq for d in data]
    collide = any(
        abs(sq[i] - sq[i + 1]) <= 1e-7 * (norm * norm + abs(sq[i])) for i in range(len(sq) - 1)
    )
    if collide:
        notes = notes + ("collisions",)
    if not degenerate and any(abs(v) <= 1e-8 * norm * norm for v in sq):
        notes = notes + ("zero singular value",)
    return Spectrum(mu=mu, data=data, degenerate=degenerate, notes=notes)


# --- rank-one fast paths ---------------------------------------------------------


def _try_rank_one_factors(arr: np.ndarray) -> list[tuple[float, float]] | None:
    """Factor a real rank-one tensor, given as its dense float array, into its d fiber vectors, or None."""
    norm = float(np.sqrt(np.sum(arr**2)))
    if norm == 0.0:
        return None
    star = np.unravel_index(int(np.argmax(np.abs(arr))), arr.shape)
    pivot = float(arr[star])
    fibers = []
    for slot in range(arr.ndim):
        idx0 = list(star)
        idx1 = list(star)
        idx0[slot], idx1[slot] = 0, 1
        fibers.append((float(arr[tuple(idx0)]), float(arr[tuple(idx1)])))
    model = rank_one_tensor(fibers).as_array().real / pivot ** (arr.ndim - 1)
    if float(np.max(np.abs(arr - model))) > 1e-9 * norm:
        return None
    return fibers


def _rank_one_spectrum(
    mu: Partition, arr: np.ndarray, norm: float, fibers: list[tuple[float, float]], table: Callable
) -> Spectrum:
    """Closed-form spectrum of a rank-one tensor (dense array ``arr``, norm ``norm``), flagged degenerate.

    ``table`` maps the real fiber of each group to the critical tuples: the
    rank-one tuple itself and the zero-value ones.
    """
    vecs = np.array(table(*(fibers[first] for first in mu.firsts)), dtype=complex)
    return _finalize_spectrum(
        mu, arr, norm, vecs, [1] * len(vecs), chart_note="rank-one fast path",
        notes=("rank-one input; zero-value critical set is positive-dimensional", "det zero"),
        degenerate=True,
    )


def _rank_one_spectrum_222(mu: Partition, arr: np.ndarray, norm: float, fibers: list[tuple[float, float]]) -> Spectrum:
    def table(a, b, c):
        ap, bp, cp = _perp(a), _perp(b), _perp(c)
        return [[a, b, c], [ap, bp, c], [ap, b, cp], [a, bp, cp], [ap, bp, cp], [ap, bp, (c[0] + cp[0], c[1] + cp[1])]]

    return _rank_one_spectrum(mu, arr, norm, fibers, table)


def _rank_one_spectrum_21(mu: Partition, arr: np.ndarray, norm: float, fibers: list[tuple[float, float]]) -> Spectrum:
    def table(x, w):
        xp, wp = _perp(x), _perp(w)
        return [[x, w], [xp, w], [xp, wp], [xp, (w[0] + wp[0], w[1] + wp[1])]]

    return _rank_one_spectrum(mu, arr, norm, fibers, table)


# --- the elimination chart --------------------------------------------------------


class _PencilMap(NamedTuple):
    """The elimination chart's table of one shape (``_pencil_map``); its arrays are read-only."""

    basis: np.ndarray  # (2, n, n, 2^d): dense entries to M0 and M1
    monomials: tuple[tuple[int, ...], ...]  # the columns, as exponents of z1..z_{s-1}
    rows: np.ndarray  # the columns of the monomials m whose shift z1 m is a column ...
    shifted: np.ndarray  # ... and the columns of those z1 m
    units: tuple[int, ...]  # the columns of z2, ..., z_{s-1}


@cache
def _pencil_map(mu: Partition) -> _PencilMap:
    """The map from dense entries to the pencil M0 + z_s M1, its columns and its shift tables.

    Group k's dehomogenized critical equation y_{k,0} z_k - y_{k,1} (x_l =
    (1, z_k) on its slots, y_k contracting all slots but its first, f) is
    linear in z_s.  The unit tensor of index bits b puts 1 - 2 b[f] in it at
    the monomial e: e[group of l] += b[l] for each slot l != f, e[k] += 1 - b[f].
    Times z1^a (a < (s - 1) * mu.parts[0], its degree in z1), that is row
    k * (s - 1) * mu.parts[0] + a of M_{e[s-1]}, at the column z1^(e[0] + a)
    z2^e[1] ... z_{s-1}^e[s-2].  The n = ed_degree(mu) columns are the
    monomials in z1..z_{s-1} (z1 below degree s * mu.parts[0], every other
    variable at most its degree), 1 first.
    """
    p, s, size = mu.parts[0], mu.s, 1 << mu.d
    monomials = tuple(product(range(s * p), *(range(part + 1) for part in mu.parts[1:-1])))
    column = {m: i for i, m in enumerate(monomials)}
    basis = np.zeros((2, len(monomials), len(monomials), size))
    for unit in range(size):
        bits = index_to_bits(unit, mu.d)
        for k, first in enumerate(mu.firsts):
            e = [sum(b for l, b in enumerate(bits) if l != first and mu.group_of[l] == g) for g in range(s)]
            e[k] += 1 - bits[first]
            for a in range((s - 1) * p):
                basis[e[-1], k * (s - 1) * p + a, column[(e[0] + a, *e[1:-1])], unit] = 1 - 2 * bits[first]
    shifts = [(i, column[up]) for i, m in enumerate(monomials) if (up := (m[0] + 1, *m[1:])) in column]
    rows, shifted = (np.array(ix) for ix in zip(*shifts))
    units = tuple(column[tuple(int(j == i) for j in range(s - 1))] for i in range(1, s - 1))
    for arr in (basis, rows, shifted):
        arr.flags.writeable = False
    return _PencilMap(basis, monomials, rows, shifted, units)


def _pencil(entries: Sequence[float], mu: Partition) -> tuple[np.ndarray, np.ndarray, _PencilMap]:
    """The pencil M0 + z_s M1 of dense ``entries`` (``_pencil_map``), scaled by its largest entry, and the shape's table."""
    table = _pencil_map(mu)
    mats = table.basis @ np.asarray(entries, dtype=float)
    mats /= np.max(np.abs(mats)) or 1.0
    return mats[0], mats[1], table


def _cluster(roots: Sequence[complex]) -> list[list[int]]:
    """Greedy clustering at CLUSTER_REL_TOL relative distance of the cluster mean; returns the indices of each."""
    clusters: list[list[int]] = []
    for i in sorted(range(len(roots)), key=lambda i: (roots[i].real, roots[i].imag)):
        for cl in clusters:
            c = sum(roots[j] for j in cl) / len(cl)
            if abs(roots[i] - c) <= CLUSTER_REL_TOL * max(1.0, abs(c)):
                cl.append(i)
                break
        else:
            clusters.append([i])
    return clusters


def _pencil_values(m0: np.ndarray, m1: np.ndarray) -> list[tuple[complex, np.ndarray]]:
    """The values z of det(M0 + z M1) = 0, the eigenvalues of -M1^-1 M0, clustered, with their eigenvectors.

    One ``np.linalg.eig`` call; each cluster gives its mean z and the (n, k)
    block of its k eigenvector columns, null vectors of M0 + z M1, so its
    multiplicity is the block's width.  A singular M1 means a root at
    infinity and raises SolverFailureError.
    """
    try:
        companion = np.linalg.solve(m1, m0)
    except np.linalg.LinAlgError as exc:
        raise SolverFailureError("root at infinity (singular pencil)") from exc
    values, vectors = np.linalg.eig(-companion)
    if not np.all(np.isfinite(values)):
        raise SolverFailureError("root at infinity (singular pencil)")
    zs = values.tolist()
    return [(sum(zs[i] for i in cl) / len(cl), vectors[:, cl]) for cl in _cluster(zs)]


def _pencil_points(table: _PencilMap, clusters: list[tuple[complex, np.ndarray]]) -> np.ndarray:
    """The (n, s) values of (z1, ..., z_s) at the tuples of all ``_pencil_values`` clusters (z_s, (n, k) eigenvectors).

    Shifting monomial m to z1 m is multiplication by z1 on the k tuples'
    monomial vectors, which span a cluster's columns V, so the k x k
    least-squares solution B = pinv(V[rows]) V[shifted] (the shape's cached
    shift tables, ``_pencil_map``) has their z1 as eigenvalues, and each
    eigenvector c gives one monomial vector v = V c, whose other variables
    are v[z_j] / v[1].  The clusters of one width k are stacked: one
    ``pinv``, one product and one ``eig`` per width.  The points come in the
    order of the clusters.
    """
    widths = [vectors.shape[1] for _, vectors in clusters]
    starts = np.cumsum([0, *widths])
    points = np.empty((starts[-1], len(table.units) + 2), dtype=complex)
    for k in set(widths):
        members = [i for i, width in enumerate(widths) if width == k]
        stacked = np.stack([clusters[i][1] for i in members])  # (m, n, k)
        step = np.linalg.pinv(stacked[:, table.rows]) @ stacked[:, table.shifted]
        z1s, coords = np.linalg.eig(step)
        heads = stacked @ coords
        rows = (starts[members, None] + np.arange(k)).ravel()
        points[rows, 0] = z1s.ravel()
        # table.monomials[0] is the monomial 1
        others = heads[:, list(table.units)] / heads[:, :1]  # (m, s - 2, k)
        points[rows, 1:-1] = others.transpose(0, 2, 1).reshape(len(rows), len(table.units))
        points[rows, -1] = np.repeat([clusters[i][0] for i in members], k)
    return points


def _solve_by_elimination(
    t: BinaryTensor | MuTensor,
    seed: int,
    salt: int,
    rank_one: Callable | None,
) -> Spectrum:
    """All ed_degree(mu) singular tuples of ``t``, from a rotated hidden-variable pencil.

    A rank-one ``t`` goes straight to ``rank_one``, which takes mu, the
    dense array, the norm and the fiber vectors; only the matrix shape has
    none.  Otherwise each of MAX_ROTATION_ATTEMPTS attempts rotates ``t`` by
    mu.s angles drawn from one generator seeded by (seed, salt), mu = t.mu,
    and applies to its dense entries the shape's cached linear map
    (``_pencil_map``) to the pencil M0 + z_s M1 of its dehomogenized
    critical equations, in one variable z_k per group (x_k = (1, z_k)); no
    equation is built, and no table is rebuilt, per attempt.  Each
    eigenvalue cluster (``_pencil_values``) gives the last variable of as
    many tuples as its multiplicity, and ``_pencil_points`` reads the other
    variables of all of them off the clusters' eigenvectors with the shape's
    cached shift tables, in one stacked solve per cluster width (one for
    generic input).  One einsum unrotates the ed_degree(mu) candidates
    x_k = (1, z_k), each of multiplicity 1 (R^T x, R the rotation of the
    group), and ``_finalize_spectrum`` normalizes and pairs them, polishes
    the unconverged ones, deduplicates, counts and certifies them on ``t``.
    The first attempt that certifies gives the spectrum; an attempt fails on
    a SolverFailureError of its pencil or of certification, and when every
    attempt fails the SolverFailureError names the reason of each.  The
    entries are converted to floats once (``_float_arrays``), for the
    rotations and the dense array alike.
    """
    mu = t.mu
    floats, arr, norm = _float_arrays(t)
    if rank_one is not None:
        fibers = _try_rank_one_factors(arr.real)
        if fibers is not None:
            return rank_one(mu, arr, norm, fibers)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, salt)))
    failures: list[str] = []
    for attempt in range(MAX_ROTATION_ATTEMPTS):
        cs, rot = _rotation_pairs(rng, mu.s)
        try:
            m0, m1, table = _pencil(expand(rotate_cs(floats, cs)).entries, mu)
            z = _pencil_points(table, _pencil_values(m0, m1))
            vecs = np.einsum("slk,nsl->nsk", rot, np.stack([np.ones_like(z), z], axis=-1))
            return _finalize_spectrum(mu, arr, norm, vecs, [1] * len(z),
                                      f"elimination chart, seed={seed}, attempt={attempt}")
        except SolverFailureError as exc:
            failures.append(f"attempt {attempt}: {exc}")
    raise SolverFailureError(
        f"no rotation certified {ed_degree(mu)} singular tuples: " + "; ".join(failures),
        {"failures": failures},
    )


def solve_222(t: BinaryTensor, seed: int = 0) -> Spectrum:
    """All six singular tuples of a real 2x2x2 tensor.

    Rotation for general position, the 6 x 6 hidden-variable pencil of the
    three bilinear critical equations in (z1, z2) with z3 hidden, Newton
    polish on the unrotated tensor.  Rank-one inputs take a closed-form path
    before any rotation (their zero-value critical set is a curve, not six
    points).
    """
    if t.d != 3:
        raise ValueError("solve_222 needs an order-3 tensor")
    return _solve_by_elimination(t, seed, 0x222, _rank_one_spectrum_222)


def solve_21(c: MuTensor, seed: int = 0) -> Spectrum:
    """The four singular tuples (x, x, w) of a (2,1)-symmetric tensor.

    Same scheme as the full solver: the two group equations have multidegree
    (2,1) in (z1, z2), and with z2 hidden their pencil is the 4 x 4 Sylvester
    matrix of two quadratics in z1.
    """
    if c.mu.parts != (2, 1):
        raise ValueError(f"need mu = (2,1), got {c.mu}")
    return _solve_by_elimination(c, seed, 0x21, _rank_one_spectrum_21)


def solve_matrix(t: BinaryTensor, seed: int = 0) -> Spectrum:
    """The two singular pairs of a 2x2 matrix, by the same pencil scheme (2 x 2)."""
    if t.d != 2:
        raise ValueError("solve_matrix needs an order-2 tensor")
    return _solve_by_elimination(t, seed, 0x11, None)


def _polynomial_roots(coeffs: Sequence[Fraction]) -> list[tuple[complex, int]]:
    """The roots of a nonzero polynomial (ascending exact coefficients) with exact multiplicities.

    A factor of multiplicity i of ``square_free_decomposition`` gives the
    values (``_pencil_values``) of -C + z I, C its companion matrix; a
    cluster of k of them (k eigenvector columns) counts i * k times.
    """
    roots: list[tuple[complex, int]] = []
    for factor, i in square_free_decomposition(coeffs):
        n = len(factor) - 1
        companion = np.eye(n, k=-1)
        companion[:, -1] = [-c / factor[-1] for c in factor[:-1]]
        roots += [(z, i * basis.shape[1]) for z, basis in _pencil_values(-companion, np.eye(n))]
    return roots


def eigen_symmetric(c: MuTensor, seed: int = 0) -> Spectrum:
    """The d eigen-pairs of a symmetric binary tensor, via its critical binary form.

    The form x1 * df/dx0 - x0 * df/dx1 has degree d, built once from the
    exact entries; its projective roots are the critical directions (degree
    drop at the top means roots at infinity), a root of multiplicity m
    giving m equal tuples (``_polynomial_roots``).  The roots are handed
    over as one (n, 1, 2) stack of directions with their multiplicities;
    ``_finalize_spectrum`` normalizes and pairs them for the eigenvalues.
    There is one pass and no rotation: a rotation preserves q, so an
    isotropic root stays isotropic in every chart.  An isotropic root, a
    failed certification and a form whose critical form vanishes
    identically (a radial form) raise SolverFailureError naming the cause.
    ``seed`` only enters the chart note.
    """
    if c.mu.s != 1:
        raise ValueError("eigen_symmetric needs mu = (d)")
    mu = c.mu
    d = mu.d
    _, arr, norm = _float_arrays(c)
    a = [Fraction(c[(j,)]) * math.comb(d, j) for j in range(d + 1)]
    padded = [0, *a, 0]
    g = [(d - k + 1) * padded[k] - (k + 1) * padded[k + 2] for k in range(d + 1)]
    if all(abs(v) <= 1e-14 * max(map(abs, a), default=1.0) for v in g):
        raise SolverFailureError(
            "critical form vanishes identically (radial binary form)", {"coeffs": a}
        )
    top_drop = 0
    gg = list(g)
    scale = max(map(abs, gg))
    while gg and abs(gg[-1]) <= 1e-13 * scale:
        gg.pop()
        top_drop += 1
    directions = [((0.0, 1.0), top_drop)] if top_drop else []
    if len(gg) > 1:
        directions += [((1.0, z), mult) for z, mult in _polynomial_roots(gg)]
    vecs = np.array([x for x, _ in directions], dtype=complex).reshape(-1, 1, 2)
    return _finalize_spectrum(
        mu, arr, norm, vecs, [mult for _, mult in directions], f"critical form chart, seed={seed}, attempt=0"
    )


def singular_values(t: BinaryTensor | MuTensor, seed: int = 0) -> Spectrum:
    """Dispatch to the right solver from the tensor's shape."""
    if isinstance(t, MuTensor):
        if t.mu.s == 1:
            return eigen_symmetric(t, seed=seed)
        if t.mu.parts == (2, 1):
            return solve_21(t, seed=seed)
        if all(p == 1 for p in t.mu.parts):
            dense = expand(t)
            return singular_values(dense, seed=seed)
        raise ValueError(f"no solver for mu = {t.mu}")
    if t.d == 2:
        return solve_matrix(t, seed=seed)
    if t.d == 3:
        return solve_222(t, seed=seed)
    raise ValueError(f"no general solver for order {t.d}")


# --- product-formula verification and derived outputs ---------------------------


@dataclass
class VerificationReport:
    """One product-formula check: solver side, invariant side, and their mismatch."""

    mu: Partition
    lhs: float
    rhs: float
    rel_error: float
    degenerate: bool
    sigma_sq: tuple[complex, ...]
    note: str = ""


SUPPORTED_PRODUCT_MU = ((1, 1), (2,), (3,), (2, 1), (1, 1, 1))


def _product_of_sigma_sq(spec: Spectrum, k: int) -> float:
    """The product of the sigma^2 * 4^-k, each scaled exactly before it is multiplied in."""
    prod = 1.0 + 0j
    for v in spec.sigma_sq():
        prod *= complex(math.ldexp(v.real, -2 * k), math.ldexp(v.imag, -2 * k))
    if abs(prod.imag) > 1e-8 * (1.0 + abs(prod)):
        raise SolverFailureError(f"product of squared singular values not real: {prod}")
    return prod.real


def _or_inf(a0: Callable[[], float]) -> float:
    """a0() in floats, or inf when it leaves the float range (huge exact input)."""
    try:
        return a0()
    except OverflowError:
        return math.inf


def _edpoly_extremes(t: BinaryTensor | MuTensor, mu: Partition) -> tuple[float, float]:
    """(a_0, a_top): lowest and leading coefficient of the dual distance polynomial.

    One row per shape in SUPPORTED_PRODUCT_MU; det is the determinant
    (d = 2) or the hyperdeterminant (d = 3) of the expanded tensor.  On the
    symmetric cubic the discriminant is 81 det and Delta_Q is theta_1, so
    a_0 / a_top = det^2 / theta_1; on the symmetric quadratic it is det^2.
    """
    parts = tuple(mu.parts)
    dense = expand(t)
    if parts in ((1, 1), (2,)):
        e = [float(v) for v in dense.entries]
        det = e[0] * e[3] - e[1] * e[2]
        return det * det, 1.0
    if parts == (1, 1, 1):
        a0, _, a6 = extreme_coeffs_222(t)
        return _or_inf(lambda: float(a0)), float(a6)
    inv = invariants_222(dense)
    th = [float(v) for v in inv.theta]
    if parts == (2, 1):
        # slot 3 carries the free factor in this layout
        return _or_inf(lambda: float(inv.det) ** 2 * float(inv.f3[2])), th[0] * th[1]
    return _or_inf(lambda: float(inv.det) ** 2), th[0]


def verify_product(t: BinaryTensor | MuTensor, seed: int = 0) -> VerificationReport:
    """Check the closed product formula on one tensor.

    LHS is the product of the squared singular values from the solver; RHS is
    a_0 / a_top, the lowest over the leading coefficient of the dual distance
    polynomial, both from closed-form invariants (``_edpoly_extremes``) with
    the printed 1/64 and 1/16 normalizations, so no constant is fitted; for
    matrices and symmetric quadratics the RHS is the squared determinant.
    Both sides are compared on t * 2^-k, 2^k the binary exponent of |t| (each
    sigma^2 times 4^-k): exact, and it makes the degeneracy floors relative.
    The report carries the sides of t itself.
    """
    mu = t.mu
    if tuple(mu.parts) not in SUPPORTED_PRODUCT_MU:
        raise ValueError(f"product verification supports {SUPPORTED_PRODUCT_MU}, got {mu}")
    spec = singular_values(t, seed=seed)
    k = math.frexp(expand(t).norm())[1]
    lhs = _product_of_sigma_sq(spec, k)
    sigma_sq = tuple(spec.sigma_sq())

    def unscaled(x: float) -> float:
        try:
            return math.ldexp(x, 2 * k * len(sigma_sq))
        except OverflowError:
            return math.copysign(math.inf, x)

    a0, a_top = _edpoly_extremes(t.scale(Fraction(2) ** -k), mu)
    if abs(a_top) < 1e-300:
        return VerificationReport(mu, unscaled(lhs), math.nan, math.nan, True, sigma_sq,
                                  "top coefficient vanished (isotropic structure)")
    note = "rhs is the squared determinant (exact in the rational pipeline)" if mu.d == 2 else ""
    rhs = a0 / a_top
    if not math.isfinite(rhs) or rhs == 0.0:
        return VerificationReport(
            mu, unscaled(lhs), unscaled(rhs), 0.0 if abs(lhs) <= 1e-8 else math.nan, True,
            sigma_sq, note or "degenerate: rhs vanished",
        )
    rel = abs(lhs / rhs - 1.0)
    return VerificationReport(mu, unscaled(lhs), unscaled(rhs), rel, spec.degenerate, sigma_sq, note)


def verify_trial(mu: Partition, seed: int, trial: int) -> VerificationReport:
    """Trial ``trial`` of the seeded product-formula batch: a random tensor of shape mu, checked."""
    derived = int(np.random.default_rng(np.random.SeedSequence((seed, trial))).integers(0, 2**62))
    t = random_tensor(derived, mu.d if all(p == 1 for p in mu.parts) else mu)
    return verify_product(t, seed=seed + 1000003 * trial)


def _require_finite(p: UniPoly, what: str) -> UniPoly:
    """p, or OverflowError when one of its coefficients left the float range."""
    if not all(cmath.isfinite(complex(c)) for c in p.coeffs):
        raise OverflowError(f"{what} has a coefficient outside the float range")
    return p


def assemble_edpoly(spec: Spectrum, t: BinaryTensor | MuTensor) -> UniPoly:
    """Distance polynomial of the dual variety: lead * prod (eps^2 - sigma_i^2).

    The leading coefficient is a_top from ``_edpoly_extremes`` for the shapes
    in SUPPORTED_PRODUCT_MU and 1 otherwise; ``primal_edpoly`` reflects it
    at q~(t) into the primal-variety polynomial.  A coefficient that leaves
    the float range raises OverflowError, and so does one that underflows: a
    leading coefficient 0.0, or a constant coefficient 0.0 although no
    sigma^2 is 0.
    """
    roots = spec.sigma_sq()
    lead = _edpoly_extremes(t, spec.mu)[1] if tuple(spec.mu.parts) in SUPPORTED_PRODUCT_MU else 1.0
    if lead == 0.0:
        raise OverflowError("dual distance polynomial: the leading coefficient underflows to 0.0")
    poly_c = _require_finite(UniPoly.from_roots(roots, lead=complex(lead)), "dual distance polynomial")
    if complex(poly_c.coeffs[0]) == 0 and all(r != 0 for r in roots):
        raise OverflowError("dual distance polynomial: the constant coefficient underflows to 0.0")
    coeffs = []
    scale = max((abs(complex(c)) for c in poly_c.coeffs), default=1.0)
    for c in poly_c.coeffs:
        c = complex(c)
        if abs(c.imag) > 1e-8 * (1.0 + scale):
            raise SolverFailureError(f"distance polynomial has non-real coefficient {c}")
        coeffs.append(c.real)
    return UniPoly(tuple(coeffs), "eps2")


def primal_edpoly(dual: UniPoly, t: BinaryTensor | MuTensor) -> UniPoly:
    """The variety's own distance polynomial: ``dual`` reflected at q~(t); OverflowError out of float range."""
    return _require_finite(reflect_edpoly(dual, float(bombieri_norm_sq(t))), "primal distance polynomial")


def best_rank_one(
    t: BinaryTensor | MuTensor, seed: int = 0, spec: Spectrum | None = None
) -> tuple[BinaryTensor | MuTensor, float]:
    """Closest real rank-one tensor and the distance to it.

    Among the real singular data the best approximation is sigma times the
    rank-one tensor of the vectors with the largest squared singular value;
    the squared distance is q~(t) - sigma^2 (Pythagoras on the critical
    triangle).
    """
    if spec is None:
        spec = singular_values(t, seed=seed)
    reals = spec.real_data()
    if not reals:
        raise SolverFailureError(
            "no real singular datum found; the real distance function must have a minimizer, "
            "so this indicates a solver failure", {"notes": spec.notes},
        )
    best = max(reals, key=lambda d: d.sigma_sq.real)
    real_vecs = [(x[0].real, x[1].real) for x in best.vectors]
    approx = rank_one_tensor([real_vecs[k] for k in spec.mu.group_of]).scale(best.sigma.real)
    qt = float(bombieri_norm_sq(t))
    dist_sq = qt - best.sigma_sq.real
    diff = expand(t).as_array().astype(float) - approx.as_array().real
    check = float(np.sum(diff * diff))
    if abs(check - dist_sq) > 1e-7 * qt:
        raise SolverFailureError(
            f"Pythagorean check failed: q(t - s x) = {check}, q(t) - s^2 = {dist_sq}"
        )
    if isinstance(t, MuTensor):
        approx = compress(approx, t.mu, tol=1e-7)
    return approx, math.sqrt(max(dist_sq, 0.0))
