"""Singular vector tuples, spectra, and distance polynomials of binary tensors.

The solvers find every solution of the critical equations

    y_j = sigma * x_j,   q(x_j) = 1,

where y_j contracts the tensor against all vectors but the j-th.  Every
solver runs one attempt loop, ``_first_certified``: each attempt works in
a chart (a seeded random rotation of the tensor; the squared singular
values are rotation invariants) that yields candidate tuples with
multiplicities.  ``_finalize_spectrum`` alone polishes (once, on the
original tensor), deduplicates, counts and certifies them, and when every
attempt fails the error names the reason of each.

Full 2x2x2 tensors, (2,1)-symmetric tensors and 2x2 matrices share the
elimination chart, ``_solve_by_elimination``.  A rank-one tensor (its
zero-value critical set is a curve, not isolated points) is answered at
once by a closed form.  Otherwise the dehomogenized critical equations
(``_critical_equations``, one variable z_k per group) are linear in the last
variable z_s; multiplied by powers of z1 they give a square hidden-variable
pencil M0 + z_s M1 of size ed_degree(mu) over the monomials in z1..z_{s-1},
whose determinant is the resultant of the equations.  Being linear in the
entries as well, the pencil is a fixed linear map of the rotated entries,
built once per shape (``_pencil_map``) and applied per attempt (``_pencil``).
Its eigenvalues are the values of z_s (``_pencil_values``); the null space of
M0 + z_s M1 at each one holds the monomial vectors of the tuples sharing
that z_s, and a shift in z1 separates them (``_pencil_points``).  One call
of the batched kernel pairs the candidates.  Fully symmetric tensors use
the critical binary form chart of ``eigen_symmetric``, whose attempt 0 does
not rotate.

The critical equations are scored by one batched kernel,
``_contract_batch``: it takes the group vectors of n tuples as an (n, s, 2)
array and returns, from one ``np.einsum`` per slot, the all-but-one
contractions y_j of every tuple, their pairings t(x, ..., x) and their
residuals max_j |y_j - sigma x_j| (inf when not finite).  ``tuple_residual``
and ``_pairing`` are its one-row views, Newton's system takes its group rows
from the same per-slot einsums, and the Jacobian's all-but-two blocks are
one einsum each.  Every contraction, batched or not, is one call of
``_contract_except``.

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
from typing import Callable, Sequence

import numpy as np

from .combinatorics import Partition, _as_partition, ed_degree
from .invariants import extreme_coeffs_222, invariants_222
from .polys import (
    MultiPoly,
    RootFindingError,
    UniPoly,
    _cluster,
    all_roots,
    reflect_edpoly,
)
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
MAX_ROTATION_ATTEMPTS = 3


class SolverFailureError(RuntimeError):
    """The solver could not certify the expected number of singular tuples."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class IsotropicVectorError(ValueError):
    """A critical direction is isotropic (q(x) ~ 0); excluded by the rank-one theory."""


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
    edpoly_dual: UniPoly | None = None
    degenerate: bool = False
    notes: tuple[str, ...] = ()

    @property
    def ed_degree(self) -> int:
        return ed_degree(self.mu)

    def sigma_sq(self) -> list[complex]:
        return [d.sigma_sq for d in self.data]

    def real_data(self) -> list[SingularDatum]:
        return [d for d in self.data if d.is_real]


# --- small complex-bilinear vector helpers ------------------------------------


def q_form(x: Sequence[complex]) -> complex:
    return x[0] * x[0] + x[1] * x[1]


def q_normalize(x: Sequence[complex]) -> tuple[complex, complex]:
    qx = q_form(x)
    mag = abs(x[0]) ** 2 + abs(x[1]) ** 2
    if abs(qx) < 1e-8 * max(mag, 1e-300):
        raise IsotropicVectorError(f"vector {x} is numerically isotropic")
    s = cmath.sqrt(qx)
    return (x[0] / s, x[1] / s)


def _perp(x: Sequence[complex]) -> tuple[complex, complex]:
    """The q-orthogonal direction (-x1, x0); q-normalized whenever x is."""
    return (-x[1], x[0])


def _rotation_pairs(rng: np.random.Generator, n: int) -> list[tuple[float, float]]:
    angles = rng.uniform(0.0, 2.0 * math.pi, size=n)
    return [(math.cos(a), math.sin(a)) for a in angles]


def _unrotate(x: tuple[complex, complex], cs: tuple[float, float]) -> tuple[complex, complex]:
    c, s = cs
    return (c * x[0] + s * x[1], -s * x[0] + c * x[1])


def _slot_vectors(mu: Partition, group_vecs: Sequence[Sequence[complex]]) -> list:
    return [group_vecs[k] for k in mu.group_of]


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


def _stack(mu: Partition, tuples: Sequence[Sequence[Sequence[complex]]]) -> np.ndarray:
    """The (n, s, 2) complex array of n group-vector tuples."""
    return np.array(tuples, dtype=complex).reshape(-1, mu.s, 2)


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
    arr: np.ndarray, mu: Partition, group_vecs: Sequence[Sequence[complex]], sigma: complex
) -> float:
    """Worst defect of the critical equations over all slots; inf when it is not finite."""
    return float(_contract_batch(arr, mu, _stack(mu, [group_vecs]), np.array([sigma]))[2][0])


def _pairing(arr: np.ndarray, mu: Partition, group_vecs: Sequence[Sequence[complex]]) -> complex:
    return complex(_contract_batch(arr, mu, _stack(mu, [group_vecs]))[1][0])


def _newton_polish_tuple(
    arr: np.ndarray,
    mu: Partition,
    group_vecs: list[tuple[complex, complex]],
    sigma: complex,
) -> tuple[list[tuple[complex, complex]], complex]:
    """At most 50 damped Gauss-Newton steps on (vectors, sigma) with the normalizations q(x_k) = 1."""
    s, firsts, group_of = mu.s, mu.firsts, list(mu.group_of)
    x = np.array([list(v) for v in group_vecs], dtype=complex)  # (s, 2)
    sig = complex(sigma)

    def system(xv: np.ndarray, sg: complex) -> np.ndarray:
        ys = _all_but_one(arr, xv[None, group_of], firsts)[0]  # (s, 2): y at each group's first slot
        return np.concatenate([(ys - sg * xv).ravel(), xv[:, 0] ** 2 + xv[:, 1] ** 2 - 1.0])

    def jacobian(xv: np.ndarray, sg: complex) -> np.ndarray:
        slot_vecs = xv[None, group_of]
        jac = np.zeros((3 * s, 2 * s + 1), dtype=complex)
        row = 0
        for k in range(s):
            for m in range(s):
                count = mu.parts[m] - (1 if m == k else 0)
                if count > 0:
                    other = firsts[m] + (1 if m == k else 0)
                    mat = _contract_except(arr, slot_vecs, keep=(firsts[k], other))[0]
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

    f = system(x, sig)
    best = float(np.linalg.norm(f))
    converged = 1e-14 * (1.0 + float(np.max(np.abs(arr))))
    for _ in range(50):
        if best < converged:
            break
        jac = jacobian(x, sig)
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
    return [tuple(row) for row in x], sig


# --- the critical equations -------------------------------------------------------


def _critical_equations(entries: Sequence[Fraction | int], mu: Partition) -> tuple[MultiPoly, ...]:
    """The dehomogenized critical equations of a mu-symmetric tensor, one per group.

    With x_l = (1, z_k) on every slot l of group k, group k's equation is
    y_{k,0} z_k - y_{k,1}, where y_k contracts ``entries`` (dense, slot-major)
    against every slot but the first one of the group.  Variables z1..zs.
    """
    vars_ = tuple(f"z{k + 1}" for k in range(mu.s))
    groups, firsts = mu.group_of, mu.firsts
    eqs: list[dict[tuple[int, ...], Fraction]] = [{} for _ in firsts]
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


def _keys_close(k1: tuple, k2: tuple) -> bool:
    """Same singular pair: sigma^2 close and each normalized vector equal up to sign."""
    if abs(k1[0] - k2[0]) > DEDUP_TOL * (1.0 + abs(k1[0]) + abs(k2[0])):
        return False
    for a, b in zip(k1[1], k2[1]):
        same = max(abs(a[0] - b[0]), abs(a[1] - b[1]))
        flip = max(abs(a[0] + b[0]), abs(a[1] + b[1]))
        if min(same, flip) > DEDUP_TOL:
            return False
    return True


def _finalize_spectrum(
    t_orig: BinaryTensor | MuTensor,
    raw: list[tuple[list[tuple[complex, complex]], complex, int]],
    chart_note: str,
    notes: tuple[str, ...] = (),
    degenerate: bool = False,
) -> Spectrum:
    """Polish, deduplicate, count and certify candidates (vectors, sigma, multiplicity) on ``t_orig``.

    Isotropic candidates and repeats (``_keys_close``) are dropped; the rest,
    counted with multiplicity, must number ed_degree(mu), each with residual
    at most RESIDUAL_REL_TOL * |t|, or SolverFailureError.  Real sigma < 0
    flips the first odd group's vector.
    """
    mu = t_orig.mu
    dense = expand(t_orig)
    arr = dense.as_array().astype(complex)
    norm = dense.norm() or 1.0
    odd_groups = [k for k, p in enumerate(mu.parts) if p % 2 == 1]

    data: list[SingularDatum] = []
    keys: list[tuple] = []
    for vecs, sigma, mult in raw:
        vecs, _ = _newton_polish_tuple(arr, mu, list(vecs), sigma)
        try:
            vecs = [q_normalize(v) for v in vecs]
        except IsotropicVectorError:
            continue
        sigma = _pairing(arr, mu, vecs)
        key = (sigma * sigma, tuple(vecs))
        if any(_keys_close(key, k) for k in keys):
            continue
        keys.append(key)
        res = tuple_residual(arr, mu, vecs, sigma)
        imag_scale = max(max(abs(x[0].imag), abs(x[1].imag)) for x in vecs)
        is_real = bool(imag_scale <= 1e-8 and abs(sigma.imag) <= 1e-8 * (1.0 + abs(sigma)))
        if is_real and sigma.real < 0 and odd_groups:
            # exact negation, same residual; 0j - sigma keeps an imaginary 0.0 positive
            k = odd_groups[0]
            vecs[k] = (-vecs[k][0], -vecs[k][1])
            sigma = 0j - sigma
        datum = SingularDatum(
            vectors=tuple(vecs),
            sigma=sigma,
            sigma_sq=sigma * sigma,
            residual=res,
            is_real=is_real,
            chart_note=chart_note,
        )
        data += [datum] * mult
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
    return Spectrum(mu=mu, data=data, degenerate=degenerate, notes=notes)


# --- rank-one fast paths ---------------------------------------------------------


def _try_rank_one_factors(dense: BinaryTensor) -> list[tuple[float, float]] | None:
    """Factor a real rank-one tensor into its d fiber vectors, or None."""
    arr = dense.as_array().astype(float)
    norm = float(np.sqrt(np.sum(arr**2)))
    if norm == 0.0:
        return None
    star = np.unravel_index(int(np.argmax(np.abs(arr))), arr.shape)
    pivot = float(arr[star])
    fibers = []
    for slot in range(dense.d):
        idx0 = list(star)
        idx1 = list(star)
        idx0[slot], idx1[slot] = 0, 1
        fibers.append((float(arr[tuple(idx0)]), float(arr[tuple(idx1)])))
    model = rank_one_tensor(fibers).as_array().real / pivot ** (dense.d - 1)
    if float(np.max(np.abs(arr - model))) > 1e-9 * norm:
        return None
    return fibers


def _rank_one_spectrum(
    t: BinaryTensor | MuTensor, fibers: list[tuple[float, float]], table: Callable
) -> Spectrum:
    """Closed-form spectrum of a rank-one tensor with fiber vectors ``fibers``, flagged degenerate.

    ``table`` maps the q-normalized fiber of each group to the critical
    tuples: first the rank-one tuple itself, then the zero-value ones.
    """
    mu = t.mu
    try:
        hats = [q_normalize((complex(f[0]), complex(f[1]))) for f in fibers]
    except IsotropicVectorError as exc:
        raise SolverFailureError(f"isotropic rank-one tensor: {exc}") from exc
    top, *zeros = table(*(hats[first] for first in mu.firsts))
    arr = expand(t).as_array().astype(complex)
    raw = [(top, _pairing(arr, mu, top), 1)] + [(vecs, 0j, 1) for vecs in zeros]
    return _finalize_spectrum(
        t, raw, chart_note="rank-one fast path",
        notes=("rank-one input; zero-value critical set is positive-dimensional", "det zero"),
        degenerate=True,
    )


def _rank_one_spectrum_222(t: BinaryTensor, fibers: list[tuple[float, float]]) -> Spectrum:
    def table(a, b, c):
        ap, bp, cp = _perp(a), _perp(b), _perp(c)
        mix = q_normalize((c[0] + cp[0], c[1] + cp[1]))
        return [[a, b, c], [ap, bp, c], [ap, b, cp], [a, bp, cp], [ap, bp, cp], [ap, bp, mix]]

    return _rank_one_spectrum(t, fibers, table)


def _rank_one_spectrum_21(c: MuTensor, fibers: list[tuple[float, float]]) -> Spectrum:
    def table(x, w):
        xp, wp = _perp(x), _perp(w)
        mix = q_normalize((w[0] + wp[0], w[1] + wp[1]))
        return [[x, w], [xp, w], [xp, wp], [xp, mix]]

    return _rank_one_spectrum(c, fibers, table)


# --- the attempt loop and its charts ----------------------------------------------


class _AttemptFailed(Exception):
    """One chart attempt found no certifiable tuples; the message says why."""


def _first_certified(
    t: BinaryTensor | MuTensor, seed: int, salt: int, attempts: int, chart: Callable
) -> Spectrum:
    """The spectrum from the first of ``attempts`` chart attempts that certifies on ``t``.

    ``chart(rng, attempt)`` draws its rotation from the seeded ``rng`` and
    returns the (cos, sin) pair it applied to each group, its candidate
    tuples on the rotated tensor as (vectors, sigma, multiplicity), and its
    name; it raises _AttemptFailed, or RootFindingError from ``all_roots``,
    when it finds none.  The candidates are unrotated, then polished,
    deduplicated, counted and certified on ``t`` by ``_finalize_spectrum``.
    When no attempt certifies, SolverFailureError names each attempt's
    reason.
    """
    norm = expand(t).norm()
    if norm == 0.0:
        raise ValueError("zero tensor")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, salt)))
    failures: list[str] = []
    for attempt in range(attempts):
        try:
            cs, found, name = chart(rng, attempt)
        except (_AttemptFailed, RootFindingError) as exc:
            failures.append(f"attempt {attempt}: {exc}")
            continue
        unrot = [([_unrotate(x, cs[k]) for k, x in enumerate(vecs)], sigma, mult) for vecs, sigma, mult in found]
        try:
            spec = _finalize_spectrum(t, unrot, chart_note=f"{name}, seed={seed}, attempt={attempt}")
        except SolverFailureError as exc:
            failures.append(f"attempt {attempt}: {exc}")
            continue
        if any(abs(d.sigma_sq) <= 1e-8 * norm * norm for d in spec.data):
            spec.notes = spec.notes + ("zero singular value",)
        return spec
    raise SolverFailureError(
        f"no rotation certified {ed_degree(t.mu)} singular tuples: " + "; ".join(failures),
        {"failures": failures},
    )


@cache
def _pencil_map(mu: Partition) -> tuple[np.ndarray, tuple[tuple[int, ...], ...]]:
    """The read-only (2, n, n, 2^d) map from dense entries to the pencil M0 + z_s M1, and its columns.

    Each critical equation (``_critical_equations``), linear in the last
    variable z_s, is multiplied by z1^a for a < (s - 1) * mu.parts[0] (its
    degree in z1); its coefficients of z_s^0 and z_s^1 give a row of M0 and
    of M1 over the monomials z1^i z2^j ... z_{s-1}^m (i < s * mu.parts[0],
    every other exponent at most the variable's degree), listed as exponent
    tuples; n = ed_degree(mu).  Slice u is the pencil of the u-th unit tensor.
    """
    p, size = mu.parts[0], 1 << mu.d
    monomials = tuple(product(range(mu.s * p), *(range(part + 1) for part in mu.parts[1:-1])))
    column = {m: i for i, m in enumerate(monomials)}
    basis = np.zeros((2, len(monomials), len(monomials), size))
    for unit in range(size):
        gs = _critical_equations([int(i == unit) for i in range(size)], mu)
        rows = ((g, a) for g in gs for a in range((mu.s - 1) * p))
        for row, (g, a) in enumerate(rows):
            for power, coeff in enumerate(g.coefficients_in(g.vars[-1])):
                for e, c in coeff.terms.items():
                    basis[power, row, column[(e[0] + a, *e[1:])], unit] = float(c)
    basis.flags.writeable = False
    return basis, monomials


def _pencil(entries: Sequence[float], mu: Partition) -> tuple[np.ndarray, np.ndarray, tuple[tuple[int, ...], ...]]:
    """The pencil M0 + z_s M1 of dense ``entries`` (``_pencil_map``), scaled by its largest entry, and its columns."""
    basis, monomials = _pencil_map(mu)
    mats = basis @ np.asarray(entries, dtype=float)
    mats /= np.max(np.abs(mats)) or 1.0
    return mats[0], mats[1], monomials


def _pencil_values(m0: np.ndarray, m1: np.ndarray) -> list[tuple[complex, int]]:
    """The values z of det(M0 + z M1) = 0, the eigenvalues of -M1^-1 M0, clustered with multiplicities.

    A singular M1 means a root at infinity, and the attempt fails.
    """
    try:
        companion = np.linalg.solve(m1, m0)
    except np.linalg.LinAlgError as exc:
        raise _AttemptFailed("root at infinity (singular pencil)") from exc
    values = np.linalg.eigvals(-companion)
    if not np.all(np.isfinite(values)):
        raise _AttemptFailed("root at infinity (singular pencil)")
    return _cluster(values.tolist())


def _pencil_points(
    m0: np.ndarray, m1: np.ndarray, monomials: Sequence[tuple[int, ...]], z: complex, k: int
) -> list[tuple[complex, ...]]:
    """The values of (z1, ..., z_{s-1}) at the k tuples whose last variable is ``z``.

    The k smallest right singular vectors V of M0 + z M1 span the monomial
    vectors of those tuples.  Shifting monomial m to z1 m is multiplication
    by z1 on each of them, so the k x k least-squares solution B of
    V[m] B = V[z1 m] has their z1 as eigenvalues, and each eigenvector c gives
    one monomial vector v = V c, whose other variables are v[z_j] / v[1].
    """
    _, _, vh = np.linalg.svd(m0 + z * m1)
    basis = vh[-k:].conj().T
    column = {m: i for i, m in enumerate(monomials)}
    shifts = [(i, column[up]) for i, m in enumerate(monomials) if (up := (m[0] + 1, *m[1:])) in column]
    rows, shifted = (list(ix) for ix in zip(*shifts))
    step, *_ = np.linalg.lstsq(basis[rows], basis[shifted], rcond=None)
    z1s, coords = np.linalg.eig(step)
    n = len(monomials[0])
    units = [column[tuple(int(j == i) for j in range(n))] for i in range(1, n)]
    # monomials[0] is the monomial 1
    return [(z1, *(v[u] / v[0] for u in units)) for z1, v in zip(z1s.tolist(), (basis @ coords).T)]


def _solve_by_elimination(
    t: BinaryTensor | MuTensor,
    seed: int,
    salt: int,
    rank_one: Callable | None,
) -> Spectrum:
    """All ed_degree(mu) singular tuples of ``t``, from a rotated hidden-variable pencil.

    A rank-one ``t`` goes straight to ``rank_one``, which takes the tensor
    and its fiber vectors; only the matrix shape has none.  Otherwise each
    of MAX_ROTATION_ATTEMPTS attempts of ``_first_certified`` rotates ``t``
    by mu.s seeded angles, mu = t.mu, and applies to its dense entries the
    shape's cached linear map (``_pencil_map``) to the pencil M0 + z_s M1 of
    its dehomogenized critical equations, in one variable z_k per group
    (x_k = (1, z_k)); no equation is rebuilt per attempt.  Each
    eigenvalue cluster (``_pencil_values``) gives the last variable of as
    many tuples as its multiplicity, and ``_pencil_points`` the other
    variables of each.  The chart pairs its ed_degree(mu) candidates on the
    rotated tensor in one ``_contract_batch`` call and returns each with
    multiplicity 1; ``_first_certified`` unrotates them and
    ``_finalize_spectrum`` polishes, deduplicates, counts and certifies them.
    """
    dense = expand(t)
    if rank_one is not None:
        fibers = _try_rank_one_factors(dense)
        if fibers is not None:
            return rank_one(t, fibers)
    mu = t.mu

    def chart(rng: np.random.Generator, attempt: int):
        cs = _rotation_pairs(rng, mu.s)
        dense_rot = expand(rotate_cs(t, cs))
        m0, m1, monomials = _pencil(dense_rot.entries, mu)
        tuples: list[list[tuple[complex, complex]]] = []
        for z, k in _pencil_values(m0, m1):
            for head in _pencil_points(m0, m1, monomials, z, k):
                try:
                    tuples.append([q_normalize((1.0 + 0j, w)) for w in (*head, z)])
                except IsotropicVectorError:
                    continue
        arr_rot = dense_rot.as_array().astype(complex)
        _, pairings, _ = _contract_batch(arr_rot, mu, _stack(mu, tuples))
        return cs, [(vecs, sigma, 1) for vecs, sigma in zip(tuples, pairings.tolist())], "elimination chart"

    return _first_certified(t, seed, salt, MAX_ROTATION_ATTEMPTS, chart)


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


def eigen_symmetric(c: MuTensor, seed: int = 0) -> Spectrum:
    """The d eigen-pairs of a symmetric binary tensor, via its critical binary form.

    The form x1 * df/dx0 - x0 * df/dx1 has degree d; its projective roots are
    the critical directions (degree drop at the top means roots at infinity),
    a root of multiplicity m giving m equal tuples.  Each root is
    q-normalized and paired back for the eigenvalue.  Attempt 0 of
    ``_first_certified`` takes the form as it is, the next
    MAX_ROTATION_ATTEMPTS rotate it by a seeded angle; an isotropic root or a
    failed root finding or certification moves on to the next attempt.  A
    form whose critical form vanishes identically (a radial form) fails at
    once.
    """
    if c.mu.s != 1:
        raise ValueError("eigen_symmetric needs mu = (d)")
    mu = c.mu
    d = mu.d
    c_float = MuTensor(mu, {k: float(v) for k, v in c.c.items()})

    def chart(rng: np.random.Generator, attempt: int):
        cs = [(1.0, 0.0)] if attempt == 0 else _rotation_pairs(rng, 1)
        c_rot = c_float if attempt == 0 else rotate_cs(c_float, cs)
        a = [float(c_rot[(j,)]) * math.comb(d, j) for j in range(d + 1)]
        g = [0.0] * (d + 1)
        for k in range(d + 1):
            if k >= 1:
                g[k] += (d - k + 1) * a[k - 1]
            if k + 1 <= d:
                g[k] -= (k + 1) * a[k + 1]
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
        directions = [((0j, 1.0 + 0j), top_drop)] if top_drop else []
        if len(gg) > 1:
            directions += [((1.0 + 0j, z), mult) for z, mult in all_roots(gg)]
        arr_rot = expand(c_rot).as_array().astype(complex)
        try:
            normalized = [[q_normalize(x)] for x, _mult in directions]
        except IsotropicVectorError as exc:
            raise _AttemptFailed(str(exc)) from exc
        _, pairings, _ = _contract_batch(arr_rot, mu, _stack(mu, normalized))
        mults = [mult for _x, mult in directions]
        return cs, list(zip(normalized, pairings.tolist(), mults)), "critical form chart"

    return _first_certified(c, seed, 0xD, MAX_ROTATION_ATTEMPTS + 1, chart)


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
    constant: float
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
    polynomial, both from closed-form invariants (``_edpoly_extremes``).  With
    the printed 1/64 and 1/16 normalizations the constant is exactly 1 for
    every supported shape; for matrices and symmetric quadratics the RHS is
    the squared determinant.  Both sides are compared on t * 2^-k, 2^k the
    binary exponent of |t| (each sigma^2 times 4^-k): exact, and it makes the
    degeneracy floors relative.  The report carries the sides of t itself.
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
        return VerificationReport(mu, unscaled(lhs), math.nan, 1.0, math.nan, True, sigma_sq,
                                  "top coefficient vanished (isotropic structure)")
    note = "rhs is the squared determinant (exact in the rational pipeline)" if mu.d == 2 else ""
    rhs = a0 / a_top
    if not math.isfinite(rhs) or rhs == 0.0:
        return VerificationReport(
            mu, unscaled(lhs), unscaled(rhs), 1.0, 0.0 if abs(lhs) <= 1e-8 else math.nan, True,
            sigma_sq, note or "degenerate: rhs vanished",
        )
    rel = abs(lhs / rhs - 1.0)
    return VerificationReport(mu, unscaled(lhs), unscaled(rhs), 1.0, rel, spec.degenerate, sigma_sq, note)


def verify_trial(mu: Partition, seed: int, trial: int) -> VerificationReport:
    """Trial ``trial`` of the seeded product-formula batch: a random tensor of shape mu, checked."""
    derived = int(np.random.default_rng(np.random.SeedSequence((seed, trial))).integers(0, 2**62))
    t = random_tensor(derived, mu.d if all(p == 1 for p in mu.parts) else mu)
    return verify_product(t, seed=seed + 1000003 * trial)


def verify_product_batch(
    mu: Partition | Sequence[int], trials: int, seed: int = 42
) -> list[VerificationReport]:
    """Seeded batch of product-formula checks on random tensors, one report per trial."""
    mu = _as_partition(mu)
    return [verify_trial(mu, seed, trial) for trial in range(trials)]


def _require_finite(p: UniPoly, what: str) -> UniPoly:
    """p, or OverflowError when one of its coefficients left the float range."""
    if not all(cmath.isfinite(complex(c)) for c in p.coeffs):
        raise OverflowError(f"{what} has a coefficient outside the float range")
    return p


def assemble_edpoly(spec: Spectrum, t: BinaryTensor | MuTensor) -> UniPoly:
    """Distance polynomial of the dual variety: lead * prod (eps^2 - sigma_i^2).

    The leading coefficient is a_top from ``_edpoly_extremes`` for the shapes
    in SUPPORTED_PRODUCT_MU and 1 otherwise; the primal-variety polynomial is
    the reflection of this one at q~(t).  The result is cached on the spectrum.
    A coefficient that leaves the float range raises OverflowError, and so
    does one that underflows: a leading coefficient 0.0, or a constant
    coefficient 0.0 although no sigma^2 is 0.
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
    out = UniPoly(tuple(coeffs), "eps2")
    spec.edpoly_dual = out
    return out


def primal_edpoly(spec: Spectrum, t: BinaryTensor | MuTensor) -> UniPoly:
    """Distance polynomial of the variety itself, by reflection at q~(t); OverflowError out of float range."""
    dual = spec.edpoly_dual or assemble_edpoly(spec, t)
    qt = float(bombieri_norm_sq(t))
    return _require_finite(reflect_edpoly(dual, qt), "primal distance polynomial")


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
    approx = rank_one_tensor(_slot_vectors(spec.mu, real_vecs)).scale(best.sigma.real)
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
