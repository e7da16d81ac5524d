"""Benchmark workloads: seeded inputs, the CLI argv of each item, and output oracles.

Every input is drawn from the benchmark's own NumPy generator, seeded from the
workload seed, and written as a tensor JSON file before any timing.  Items are
grouped in fixed cycles: each cycle holds the same number of items of each
kind, in a seeded order, so every run of a workload has the same mix and its
median and tail percentile fall inside the same kind of item.

The oracles never call into ``bts``: residuals are recomputed with
``numpy.einsum`` on the benchmark's own copy of the tensor, matrix spectra are
compared with ``numpy.linalg.svd``, the 2x2x2 hyperdeterminant is
recomputed from Cayley's expanded formula, and a printed table's largest
singular value is compared with a spectral norm found by a one-angle search.
"""

from __future__ import annotations

import json
import math
import re
import zlib
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np

RESIDUAL_REL_TOL = 1e-9
MATRIX_SVD_REL_TOL = 1e-9
VERIFY_REL_TOL = 1e-8
HYPERDET_REL_TOL = 1e-9
# The bts command line exits 1 when its own verification of an answer fails.
EXIT_VERIFY_FAILED = 1


@dataclass
class Item:
    """One CLI invocation and what its oracle needs to know about the input."""

    kind: str
    group: str
    argv: list[str]
    shape: str = ""
    exact: bool | None = None
    mu: tuple[int, ...] | None = None
    fmt: str = "json"
    dense: np.ndarray | None = field(default=None, repr=False)
    exact_dense: dict[tuple[int, ...], Fraction] | None = field(default=None, repr=False)


@dataclass(frozen=True)
class Workload:
    """A fixed cycle of item kinds and the tail percentile it is sized for.

    A run measures whole cycles, at least ``min_cycles`` of them, which must
    leave at least ten samples beyond the tail percentile.  Where failures
    are not allowed, any failed item makes the run incorrect.
    """

    name: str
    cycle_len: int
    tail_pct: float
    min_cycles: int
    max_cycles: int
    failures_allowed: bool = False

    def __post_init__(self) -> None:
        beyond = (1.0 - self.tail_pct / 100.0) * self.cycle_len * self.min_cycles
        if beyond < 10.0 - 1e-9:
            raise ValueError(f"{self.name}: only {beyond:g} samples beyond p{self.tail_pct:g}")


# --- input generation ------------------------------------------------------------

DEGENERATE_KINDS = (
    "rank-one",
    "near-rank-one-1e-04",
    "near-rank-one-1e-07",
    "near-rank-one-1e-10",
    "scaled-1e+150",
    "scaled-1e-150",
)
STRUCTURED_SHAPES = ("matrix", "sym21") + tuple(f"sym{d}" for d in range(2, 9))
STRUCTURED_KINDS = tuple(f"{s}-{m}" for s in STRUCTURED_SHAPES for m in ("exact", "float"))
INVARIANT_KINDS = tuple(f"{s}-{m}" for s in ("full222", "sym21", "sym3", "order4") for m in ("exact", "float"))

SVALS_STRUCTURED_ROUNDS = 3  # each structured kind this many times a cycle
SVALS_FULL_PER_CYCLE = 2
# svals-table: how many items of each kind a cycle holds.  It is svals-mixed without the kinds
# that exit 3 at the commit it was added on, so that no gated item fails: every near-rank-one
# and scaled kind sometimes does, and so, about once in ten thousand items, do the symmetric
# forms of degree 7 and 8 (residual certification fails after all rotations).  svals-mixed keeps
# all of them.  The counts put the median in the middle of the densest group of costs, the
# ~7 ms kinds (19-66% of a cycle): with equal counts it fell in the sparse gap above them and
# moved by 0.2-0.3 of itself from run to run.
TABLE_MIX = {
    # ~4.5 ms
    "sym2-exact": 3, "sym2-float": 3,
    # ~7 ms
    "matrix-exact": 3, "matrix-float": 3, "sym3-float": 3, "sym4-exact": 3, "sym4-float": 3,
    # 10-17 ms
    "sym3-exact": 1, "sym5-exact": 1, "sym5-float": 1, "sym6-exact": 1, "sym6-float": 1,
    "sym21-exact": 1, "sym21-float": 1,
    # the tail: 0.2-0.5 s and 0.2-1.4 s
    "full222-float": 3, "rank-one": 1,
}
INV_RANDOM_CHECKS_PER_CYCLE = 100
INV_DEGREES_PER_CYCLE = 22
INV_D12_PER_CYCLE = 3
INV_FILES_PER_KIND = 2


def partitions_up_to(dmax: int) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []

    def rec(rest: int, cap: int, acc: tuple[int, ...]) -> None:
        if rest == 0:
            out.append(acc)
            return
        for p in range(min(rest, cap), 0, -1):
            rec(rest - p, p, acc + (p,))

    for d in range(1, dmax + 1):
        rec(d, d, ())
    return out


DEGREE_PARTITIONS = partitions_up_to(8)

# Why each workload, its mix and its tail percentile: see README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify-222",
            cycle_len=1,
            tail_pct=85.0,
            min_cycles=67,
            max_cycles=400,
        ),
        Workload(
            "svals-mixed",
            cycle_len=SVALS_STRUCTURED_ROUNDS * len(STRUCTURED_KINDS) + SVALS_FULL_PER_CYCLE + len(DEGENERATE_KINDS),
            tail_pct=90.0,
            min_cycles=3,
            max_cycles=20,
            # Some inputs fail at the commit this benchmark was added on; they are recorded, not dropped.
            failures_allowed=True,
        ),
        Workload(
            "svals-table",
            cycle_len=sum(TABLE_MIX.values()),
            tail_pct=92.0,
            min_cycles=7,
            max_cycles=70,
        ),
        Workload(
            "invariants-battery",
            cycle_len=INV_DEGREES_PER_CYCLE + INV_D12_PER_CYCLE + INV_RANDOM_CHECKS_PER_CYCLE
            + INV_FILES_PER_KIND * len(INVARIANT_KINDS),
            tail_pct=99.0,
            min_cycles=8,
            max_cycles=40,
        ),
    )
}


def _entry(rng: np.random.Generator, exact: bool) -> Fraction | float:
    if exact:
        return Fraction(int(rng.integers(-65536, 65537)), 65536)
    return float(rng.uniform(-1.0, 1.0))


def _json_value(v: Fraction | float) -> str | float:
    return str(v) if isinstance(v, Fraction) else float(v)


def _dense_from_box(mu: tuple[int, ...], box: dict[tuple[int, ...], Fraction | float]) -> dict:
    """Dense entries of a mu-symmetric tensor: entry at I is box[group-wise bit sums of I]."""
    d = sum(mu)
    out = {}
    for bits in product((0, 1), repeat=d):
        sums, pos = [], 0
        for p in mu:
            sums.append(sum(bits[pos : pos + p]))
            pos += p
        out[bits] = box[tuple(sums)]
    return out


def _array(dense: dict[tuple[int, ...], Fraction | float], d: int) -> np.ndarray:
    arr = np.zeros((2,) * d)
    for bits, v in dense.items():
        arr[bits] = float(v)
    return arr


def _tensor_item(kind: str, group: str, rng: np.random.Generator, shape: str, exact: bool) -> tuple[Item, dict]:
    """A random tensor of the named shape as an Item (argv filled in later) and its JSON document."""
    if shape == "matrix":
        mu, d = None, 2
    elif shape == "sym21":
        mu, d = (2, 1), 3
    elif shape == "full222":
        mu, d = None, 3
    elif shape == "order4":
        mu, d = None, 4
    else:  # symD
        d = int(shape[3:])
        mu = (d,)
    if mu is None:
        dense = {bits: _entry(rng, exact) for bits in product((0, 1), repeat=d)}
        entries = {"".join(map(str, b)): _json_value(v) for b, v in dense.items()}
    else:
        box = {om: _entry(rng, exact) for om in product(*[range(p + 1) for p in mu])}
        dense = _dense_from_box(mu, box)
        entries = {"".join(map(str, om)): _json_value(v) for om, v in box.items()}
    doc = {"d": d, "mu": list(mu) if mu else None, "entries": entries}
    item = Item(
        kind=kind,
        group=group,
        argv=[],
        shape=f"mu={','.join(map(str, mu))}" if mu else "x".join(["2"] * d),
        exact=exact,
        mu=mu if mu else (1,) * d,
        dense=_array(dense, d),
        exact_dense=dense if exact else None,
    )
    return item, doc


def _degenerate_item(kind: str, rng: np.random.Generator) -> tuple[Item, dict]:
    """Float 2x2x2 tensors on which elimination degenerates: rank one, near it, or extreme scale."""
    if kind.startswith("scaled-"):
        arr = float(kind[len("scaled-"):]) * rng.normal(size=(2, 2, 2))
    else:
        vecs = [rng.normal(size=2) for _ in range(3)]
        arr = np.einsum("i,j,k->ijk", *vecs)
        arr /= np.linalg.norm(arr)
        if kind.startswith("near-rank-one-"):
            noise = rng.normal(size=(2, 2, 2))
            arr = arr + float(kind[len("near-rank-one-"):]) * noise / np.linalg.norm(noise)
    entries = {"".join(map(str, b)): float(arr[b]) for b in product((0, 1), repeat=3)}
    item = Item(kind=kind, group="degenerate", argv=[], shape="2x2x2", exact=False, mu=(1, 1, 1), dense=arr)
    return item, {"d": 3, "mu": None, "entries": entries}


WARMUP_SEED = 20190612


class Inputs:
    """Seeded generator of a workload's items; tensor inputs go to ``input_dir``."""

    def __init__(self, workload: str, seed: int, input_dir: Path):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
        self.workload = WORKLOADS[workload]
        self.rng = np.random.default_rng(np.random.SeedSequence([seed, zlib.crc32(workload.encode())]))
        self.dir = input_dir
        self.dir.mkdir(parents=True, exist_ok=True)
        self._count = 0
        self._partition_next = 0

    def _file_item(self, item: Item, doc: dict, command: str, fmt: str = "json") -> Item:
        path = self.dir / f"{self._count:05d}-{item.kind}.json"
        path.write_text(json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8")
        item.argv = [command, "--input", str(path), "--format", fmt]
        item.fmt = fmt
        self._count += 1
        return item

    def _verify(self) -> Item:
        s = int(self.rng.integers(0, 2**31))
        argv = ["verify-product", "--mu", "1,1,1", "--trials", "1", "--jobs", "1", "--seed", str(s), "--format", "json"]
        return Item(kind="verify-111", group="verify", argv=argv, shape="2x2x2", exact=True, mu=(1, 1, 1))

    def svals(self, kind: str, fmt: str = "json") -> Item:
        if kind in DEGENERATE_KINDS:
            item, doc = _degenerate_item(kind, self.rng)
        else:
            shape, mode = kind.rsplit("-", 1)
            group = "full" if shape == "full222" else "structured"
            item, doc = _tensor_item(kind, group, self.rng, shape, mode == "exact")
        return self._file_item(item, doc, "svals", fmt)

    def _random_check(self) -> Item:
        s = int(self.rng.integers(0, 2**31))
        argv = ["random-check", "--trials", "1", "--seed", str(s), "--format", "json"]
        return Item(kind="random-check", group="random-check", argv=argv, shape="2x2x2+order4", exact=True)

    def _invariants(self, kind: str) -> Item:
        shape, mode = kind.rsplit("-", 1)
        item, doc = _tensor_item(kind, "invariants", self.rng, shape, mode == "exact")
        return self._file_item(item, doc, "invariants")

    @staticmethod
    def _degrees(mu: tuple[int, ...] | None) -> Item:
        if mu is None:
            return Item(kind="degrees-d12", group="degrees", argv=["degrees", "--d", "12", "--format", "json"],
                        shape="mu=1^12", mu=(1,) * 12)
        text = ",".join(map(str, mu))
        return Item(kind=f"degrees-{text}", group="degrees", argv=["degrees", "--mu", text, "--format", "json"],
                    shape=f"mu={text}", mu=mu)

    def warmup(self) -> Item:
        """The untimed first item: it pays imports and lazy set-up before the loop.

        Its input is drawn from a fixed seed, not the workload seed, so that the
        set-up time of every run includes the same first item.
        """
        timed_rng, self.rng = self.rng, np.random.default_rng(WARMUP_SEED)
        try:
            name = self.workload.name
            if name == "verify-222":
                return self._verify()
            if name == "svals-mixed":
                return self.svals("full222-float")
            if name == "svals-table":
                return self.svals("full222-float", "table")
            return self._random_check()
        finally:
            self.rng = timed_rng

    def cycle(self) -> list[Item]:
        """One cycle of the workload's fixed mix, in a seeded order."""
        name = self.workload.name
        if name == "verify-222":
            items = [self._verify()]
        elif name == "svals-mixed":
            kinds = list(STRUCTURED_KINDS) * SVALS_STRUCTURED_ROUNDS
            kinds += ["full222-float"] * SVALS_FULL_PER_CYCLE + list(DEGENERATE_KINDS)
            items = [self.svals(k) for k in kinds]
        elif name == "svals-table":
            items = [self.svals(k, "table") for k, n in TABLE_MIX.items() for _ in range(n)]
        else:
            items = [self._random_check() for _ in range(INV_RANDOM_CHECKS_PER_CYCLE)]
            items += [self._invariants(k) for k in INVARIANT_KINDS for _ in range(INV_FILES_PER_KIND)]
            items += [self._degrees(DEGREE_PARTITIONS[(self._partition_next + i) % len(DEGREE_PARTITIONS)])
                      for i in range(INV_DEGREES_PER_CYCLE)]
            self._partition_next += INV_DEGREES_PER_CYCLE
            items += [self._degrees(None) for _ in range(INV_D12_PER_CYCLE)]
        assert len(items) == self.workload.cycle_len
        order = self.rng.permutation(len(items))
        return [items[i] for i in order]


def generate(workload: str, seed: int, input_dir: Path, cycles: int | None = None) -> tuple[Item, list[list[Item]]]:
    """The warm-up item and ``cycles`` cycles (default: the workload's cap), inputs written to disk."""
    gen = Inputs(workload, seed, input_dir)
    warm = gen.warmup()
    n = gen.workload.max_cycles if cycles is None else cycles
    return warm, [gen.cycle() for _ in range(n)]


# --- oracles -----------------------------------------------------------------------


def _complex(z) -> complex:
    """A canonical-JSON complex {"re", "im"}; NaN and infinities arrive as strings."""
    return complex(float(z["re"]), float(z["im"]))


def _slot_residual(arr: np.ndarray, slot_vecs: list[np.ndarray], sigma: complex) -> float:
    """max over slots j of |T(x_1..x_{j-1}, ., x_{j+1}..x_d) - sigma x_j|."""
    d = arr.ndim
    letters = "abcdefghijkl"[:d]
    worst = 0.0
    for j in range(d):
        others = [letters[l] for l in range(d) if l != j]
        spec = f"{letters}," + ",".join(others) + f"->{letters[j]}"
        y = np.einsum(spec, arr, *[slot_vecs[l] for l in range(d) if l != j])
        worst = max(worst, float(np.max(np.abs(y - sigma * slot_vecs[j]))))
    return worst


def ed_degree(mu: tuple[int, ...]) -> int:
    """s! * mu_1 * ... * mu_s."""
    return math.factorial(len(mu)) * math.prod(mu)


def check_svals(item: Item, doc: dict) -> str | None:
    data = doc.get("data")
    if not isinstance(data, list):
        return "no data list"
    want = ed_degree(item.mu)
    if len(data) != want:
        return f"{len(data)} singular data, ED degree is {want}"
    arr = item.dense.astype(complex)
    norm = float(np.sqrt(np.sum(np.abs(arr) ** 2)))
    for i, datum in enumerate(data):
        groups = [np.array([_complex(x[0]), _complex(x[1])]) for x in datum["vectors"]]
        if len(groups) != len(item.mu):
            return f"datum {i}: {len(groups)} vectors for {len(item.mu)} groups"
        slot_vecs = [g for g, p in zip(groups, item.mu) for _ in range(p)]
        res = _slot_residual(arr, slot_vecs, _complex(datum["sigma"]))
        if not res <= RESIDUAL_REL_TOL * norm:
            return f"datum {i}: residual {res:.3e} > {RESIDUAL_REL_TOL:.0e}*|t| = {RESIDUAL_REL_TOL * norm:.3e}"
    if item.shape == "2x2":
        got = sorted(_complex(d["sigma_sq"]).real for d in data)
        ref = sorted(float(s) ** 2 for s in np.linalg.svd(item.dense, compute_uv=False))
        for g, r in zip(got, ref):
            if not abs(g - r) <= MATRIX_SVD_REL_TOL * max(norm * norm, 1e-300):
                return f"sigma^2 {g!r} differs from numpy.linalg.svd {r!r}"
    return None


def _form_coefficients(arr: np.ndarray) -> list[float]:
    """c_k with T(x, ..., x) = sum_k c_k x_1^(d-k) x_2^k, for a symmetric binary tensor."""
    d = arr.ndim
    return [math.comb(d, k) * float(arr[(0,) * (d - k) + (1,) * k]) for k in range(d + 1)]


def _norm_profile(arr: np.ndarray, symmetric: bool):
    """theta -> the best value of T over real unit vectors with the last one (all, if symmetric) at theta."""
    if symmetric:
        c = _form_coefficients(arr)
        d = arr.ndim
        return lambda t: np.abs(sum(ck * np.cos(t) ** (d - k) * np.sin(t) ** k for k, ck in enumerate(c)))

    def largest_singular_value(t: np.ndarray) -> np.ndarray:
        m = np.einsum("ijk,nk->nij", arr, np.stack([np.cos(t), np.sin(t)], axis=-1))
        fro = np.sum(m * m, axis=(1, 2))
        det = m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0]
        return np.sqrt((fro + np.sqrt(np.maximum(fro * fro - 4.0 * det * det, 0.0))) / 2.0)

    return largest_singular_value


def spectral_norm(arr: np.ndarray, mu: tuple[int, ...]) -> float:
    """Largest T(x_1, ..., x_d) over real unit vectors, found without bts.

    A matrix takes its largest singular value.  An order-3 tensor is searched
    over its last vector z: the best x, y for a fixed z give the largest
    singular value of T(., ., z).  A symmetric tensor of higher order takes
    x_1 = ... = x_d (Banach's theorem).  Either search is one angle on half
    the circle: a grid, then golden-section refinement of the best grid points.
    """
    d = arr.ndim
    if d == 2:
        return float(np.linalg.svd(arr, compute_uv=False)[0])
    if d > 3 and tuple(mu) != (d,):
        raise ValueError(f"no spectral-norm search for order {d} with mu={mu}")
    profile = _norm_profile(arr, symmetric=d > 3)
    n = 1024
    step = np.pi / n
    grid = profile(np.arange(n) * step)
    peaks = np.argsort(grid)[-3:]
    lo, hi = (peaks - 1) * step, (peaks + 1) * step
    for _ in range(40):
        a, b = hi - 0.618 * (hi - lo), lo + 0.618 * (hi - lo)
        fa, fb = np.split(profile(np.concatenate([a, b])), 2)
        lo, hi = np.where(fa < fb, a, lo), np.where(fa < fb, hi, b)
    return max(float(grid.max()), float(profile(np.concatenate([lo, hi])).max()))


def symmetric_sigma_sq(arr: np.ndarray) -> list[complex]:
    """Squared eigenvalues of a symmetric binary tensor, found without bts.

    The eigenvectors of the binary form f(x) = T(x, ..., x) are the roots of
    x_1 df/dx_2 - x_2 df/dx_1, a binary form of degree d; each root x gives
    sigma^2 = f(x)^2 / (x . x)^d.
    """
    d = arr.ndim
    c = _form_coefficients(arr)
    ck = lambda k: c[k] if 0 <= k <= d else 0.0  # noqa: E731
    g = [(j + 1) * ck(j + 1) - (d - j + 1) * ck(j - 1) for j in range(d + 1)]
    out = []
    for s in np.roots(g[::-1]):
        f = sum(c[k] * s**k for k in range(d + 1))
        out.append(complex(f * f / (1 + s * s) ** d))
    # A root at infinity, x = (0, 1), when the leading coefficient vanishes.
    out += [complex(c[d] ** 2)] * (d - len(out))
    return out


_TABLE_HEAD = re.compile(r"^mu = \(([\d, ]*)\)\s+ED degree = (\d+)")
_TABLE_ROW = re.compile(r"^\s*\d+\s+(\S+)\s+(\S+)\s+\S+\s+(True|False)\s*$")
_TABLE_DIST = re.compile(r"^best rank-one distance: (\S+)$")


def _table_number(text: str) -> complex:
    """A number as the svals table prints it: real, or complex as a+bi."""
    return complex(text[:-1] + "j") if text.endswith("i") else complex(float(text))


def check_svals_table(item: Item, out: str) -> str | None:
    """The svals table: the ED degree, the spectral norm, the best rank-one distance and,
    for matrices and symmetric tensors, every sigma^2, each against a value computed here.
    Real numbers are printed to 12 significant digits, complex ones to 6."""
    lines = out.splitlines()
    head = _TABLE_HEAD.match(lines[0]) if lines else None
    if head is None:
        return "no table header"
    mu = tuple(int(p) for p in head.group(1).split(",") if p.strip())
    if mu != item.mu or int(head.group(2)) != ed_degree(item.mu):
        return f"header {lines[0]!r}, input has mu={item.mu} and ED degree {ed_degree(item.mu)}"
    rows = [m.groups() for m in map(_TABLE_ROW.match, lines) if m]
    if len(rows) != ed_degree(item.mu):
        return f"{len(rows)} singular data, ED degree is {ed_degree(item.mu)}"
    arr = item.dense
    norm_sq = float(np.sum(arr * arr))
    tol_sq = RESIDUAL_REL_TOL * norm_sq
    top = spectral_norm(arr, item.mu)
    real = [abs(_table_number(sg)) for _, sg, flag in rows if flag == "True"]
    if not real or abs(max(real) - top) > RESIDUAL_REL_TOL * math.sqrt(norm_sq):
        return f"largest real |sigma| {max(real, default=None)!r}, spectral norm is {top!r}"
    dist = [m.group(1) for m in map(_TABLE_DIST.match, lines) if m]
    if len(dist) != 1 or abs(float(dist[0]) ** 2 - (norm_sq - top * top)) > tol_sq:
        return f"best rank-one distance {dist!r}, expected sqrt(|t|^2 - |t|_sigma^2) = {math.sqrt(max(norm_sq - top * top, 0.0))!r}"
    printed = [(_table_number(sq), sq.endswith("i")) for sq, _, _ in rows]
    if item.shape == "2x2":
        want = [complex(s * s) for s in np.linalg.svd(arr, compute_uv=False)]
    elif len(item.mu) == 1 and arr.ndim > 1:
        want = symmetric_sigma_sq(arr)
    else:
        return None
    for w in want:
        i = min(range(len(printed)), key=lambda k: abs(printed[k][0] - w))
        got, short = printed.pop(i)
        if abs(got - w) > tol_sq + (1e-5 * (abs(got.real) + abs(got.imag)) if short else 0.0):
            return f"sigma^2 {got!r} differs from {w!r}, computed here"
    return None


def check_verify(doc: dict) -> str | None:
    rows = doc.get("rows") or []
    if len(rows) != 1 or "error" in rows[0]:
        return f"no verified trial: {rows!r}"[:200]
    rel = rows[0].get("rel_error")
    if not isinstance(rel, (int, float)) or not rel <= VERIFY_REL_TOL:
        return f"rel_error {rel!r} > {VERIFY_REL_TOL}"
    return None


def cayley_hyperdet(a: dict[tuple[int, ...], Fraction | float]):
    """Cayley's hyperdeterminant of a 2x2x2 array, in its expanded twelve-term form."""
    def t(s: str):
        return a[tuple(int(c) for c in s)]

    squares = (t("000") ** 2 * t("111") ** 2 + t("001") ** 2 * t("110") ** 2
               + t("010") ** 2 * t("101") ** 2 + t("100") ** 2 * t("011") ** 2)
    cross = (t("000") * t("001") * t("110") * t("111") + t("000") * t("010") * t("101") * t("111")
             + t("000") * t("100") * t("011") * t("111") + t("001") * t("010") * t("101") * t("110")
             + t("001") * t("100") * t("011") * t("110") + t("010") * t("100") * t("011") * t("101"))
    quad = t("000") * t("011") * t("101") * t("110") + t("001") * t("010") * t("100") * t("111")
    return squares - 2 * cross + 4 * quad


def _scalar(v) -> Fraction | float:
    return Fraction(v) if isinstance(v, str) else float(v)


def check_invariants(item: Item, doc: dict) -> str | None:
    d = int(doc.get("d", -1))
    if d != item.dense.ndim:
        return f"order {d}, input has order {item.dense.ndim}"
    if d == 3:
        got = _scalar(doc["det"])
        if item.exact:
            want = cayley_hyperdet(item.exact_dense)
            if got != want:
                return f"det {got} != Cayley hyperdeterminant {want}"
        else:
            dense = {b: float(item.dense[b]) for b in product((0, 1), repeat=3)}
            want = cayley_hyperdet(dense)
            scale = sum(abs(v) for v in dense.values()) ** 4
            if not abs(float(got) - want) <= HYPERDET_REL_TOL * scale:
                return f"det {float(got)!r} != Cayley hyperdeterminant {want!r}"
        factors = doc["f3"]
    else:
        factors = doc["f4_slices"]
    if any(_scalar(f) < 0 for f in factors):
        return f"negative quartic factor in {factors!r}"[:200]
    return None


def check_random_check(doc: dict) -> str | None:
    if doc.get("failures") != [] or doc.get("checked") != doc.get("trials"):
        return f"random-check failures: {doc.get('failures')!r}"[:200]
    return None


def check_degrees(item: Item, doc: dict) -> str | None:
    if doc.get("identity_ok") is not True:
        return "degree identity not ok"
    if doc.get("ed_degree") != ed_degree(item.mu):
        return f"ed_degree {doc.get('ed_degree')} != {ed_degree(item.mu)}"
    return None


def check(item: Item, out: str) -> str | None:
    """None when an item's printed document is right; otherwise why it is not."""
    if item.fmt == "table":
        try:
            return check_svals_table(item, out)
        except (ValueError, IndexError) as exc:
            return f"malformed output: {type(exc).__name__}: {exc}"
    try:
        doc = json.loads(out)
    except json.JSONDecodeError as exc:
        return f"output is not JSON: {exc}"
    try:
        if item.group == "verify":
            return check_verify(doc)
        if item.group in ("structured", "full", "degenerate"):
            return check_svals(item, doc)
        if item.group == "invariants":
            return check_invariants(item, doc)
        if item.group == "random-check":
            return check_random_check(doc)
        return check_degrees(item, doc)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
