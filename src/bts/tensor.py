"""Storage and coordinate systems for binary tensors of format 2 x ... x 2.

A dense order-d tensor holds 2^d entries indexed by bit tuples
(i_1, ..., i_d), flattened slot-major: i_1 is the most significant bit, so
entry "011" of an order-3 tensor sits at flat index 3.  A partially symmetric
tensor with symmetry type ``mu`` is stored compressed, one coordinate
c_{omega_1 ... omega_s} per box point omega in prod_k {0..mu_k}; expanding and
re-compressing is the identity.

Entries are either exact (Fraction / int / Gaussian rational) or inexact
(float / complex); the two pipelines never mix silently.  All values are
immutable and every operation is pure.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterable, Sequence

import numpy as np

from .combinatorics import Partition, _as_partition
from .scalars import QQi, Scalar, format_rational, is_exact, snap_to_dyadic


class NotMuSymmetricError(ValueError):
    """Raised when a tensor violates the requested symmetry; carries the worst index pair."""

    def __init__(self, index_a: tuple[int, ...], index_b: tuple[int, ...], deviation: float):
        self.index_a = index_a
        self.index_b = index_b
        self.deviation = deviation
        super().__init__(
            f"tensor is not mu-symmetric: entries at {index_a} and {index_b} "
            f"differ by {deviation:.3e}"
        )


def bits_to_index(bits: Sequence[int]) -> int:
    i = 0
    for b in bits:
        i = (i << 1) | b
    return i


def index_to_bits(i: int, d: int) -> tuple[int, ...]:
    return tuple((i >> (d - 1 - l)) & 1 for l in range(d))


def all_bits(d: int) -> list[tuple[int, ...]]:
    return list(product((0, 1), repeat=d))


@dataclass(frozen=True)
class BinaryTensor:
    """Dense binary tensor: 2^d entries, slot-major bit-tuple order."""

    d: int
    entries: tuple[Scalar, ...]

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError("order must be at least 1")
        if len(self.entries) != 1 << self.d:
            raise ValueError(f"expected {1 << self.d} entries, got {len(self.entries)}")
        object.__setattr__(self, "entries", tuple(self.entries))

    @property
    def exact(self) -> bool:
        return all(is_exact(v) for v in self.entries)

    @property
    def mu(self) -> Partition:
        """The trivial symmetry type 1^d: every slot is its own group."""
        return Partition((1,) * self.d)

    def __getitem__(self, bits: Sequence[int]) -> Scalar:
        return self.entries[bits_to_index(bits)]

    def as_array(self) -> np.ndarray:
        """Float/complex numpy view, shape (2,)*d."""
        vals = [complex(v) if isinstance(v, (QQi, complex)) else float(v) for v in self.entries]
        dtype = complex if any(isinstance(v, complex) for v in vals) else float
        return np.array(vals, dtype=dtype).reshape((2,) * self.d)

    def norm(self) -> float:
        """Bombieri norm sqrt(sum of |entry|^2)."""
        return math.sqrt(sum(abs(complex(v)) ** 2 for v in self.entries))

    def scale(self, factor: Scalar) -> "BinaryTensor":
        return BinaryTensor(self.d, tuple(factor * v for v in self.entries))


@dataclass(frozen=True)
class MuTensor:
    """mu-symmetric tensor in compressed coordinates c_omega, omega in prod_k {0..mu_k}."""

    mu: Partition
    c: dict[tuple[int, ...], Scalar]

    def __post_init__(self) -> None:
        mu = _as_partition(self.mu)
        object.__setattr__(self, "mu", mu)
        box = set(mu_box(mu))
        filled = {om: self.c.get(om, 0) for om in box}
        if set(self.c) - box:
            raise ValueError(f"keys {set(self.c) - box} outside the box of {mu}")
        object.__setattr__(self, "c", filled)

    @property
    def exact(self) -> bool:
        return all(is_exact(v) for v in self.c.values())

    def __getitem__(self, omega: tuple[int, ...]) -> Scalar:
        return self.c[omega]

    def norm(self) -> float:
        return math.sqrt(abs(complex(bombieri(self, self))))

    def scale(self, factor: Scalar) -> "MuTensor":
        return MuTensor(self.mu, {om: factor * v for om, v in self.c.items()})


def mu_box(mu: Partition) -> list[tuple[int, ...]]:
    return list(product(*[range(p + 1) for p in mu.parts]))


def group_sums(bits: Sequence[int], mu: Partition) -> tuple[int, ...]:
    sums = [0] * mu.s
    for b, k in zip(bits, mu.group_of):
        sums[k] += b
    return tuple(sums)


def bombieri(t: BinaryTensor | MuTensor, u: BinaryTensor | MuTensor) -> Scalar:
    """The product quadratic form q~ paired on two tensors of the same shape.

    In flat coordinates this is sum_I t_I u_I; in compressed coordinates each
    term carries the orbit size prod_k C(mu_k, omega_k).
    """
    if isinstance(t, BinaryTensor) and isinstance(u, BinaryTensor):
        if t.d != u.d:
            raise ValueError("order mismatch")
        return sum(a * b for a, b in zip(t.entries, u.entries))
    if isinstance(t, MuTensor) and isinstance(u, MuTensor):
        if t.mu.parts != u.mu.parts:
            raise ValueError(f"partition mismatch: {t.mu} vs {u.mu}")
        total: Scalar = 0
        for om in mu_box(t.mu):
            w = 1
            for p, o in zip(t.mu.parts, om):
                w *= math.comb(p, o)
            total = total + w * t.c[om] * u.c[om]
        return total
    raise TypeError("cannot pair a compressed tensor with a dense one")


def bombieri_norm_sq(t: BinaryTensor | MuTensor) -> Scalar:
    return bombieri(t, t)


def expand(t: BinaryTensor | MuTensor) -> BinaryTensor:
    """Dense tensor whose entry at I is c at the group-wise bit sums of I; a dense t as it is."""
    if isinstance(t, BinaryTensor):
        return t
    mu = t.mu
    entries = [t.c[group_sums(bits, mu)] for bits in all_bits(mu.d)]
    return BinaryTensor(mu.d, tuple(entries))


def compress(t: BinaryTensor, mu: Partition | Iterable[int], tol: float = 1e-9) -> MuTensor:
    """Compressed coordinates of a mu-symmetric tensor.

    Exact entries must agree exactly on each symmetry orbit; float entries may
    deviate by at most ``tol * norm`` and are averaged.  A violation reports
    the worst offending index pair.
    """
    mu = _as_partition(mu)
    if mu.d != t.d:
        raise ValueError(f"partition of {mu.d} does not match order {t.d}")
    orbits: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for bits in all_bits(t.d):
        orbits.setdefault(group_sums(bits, mu), []).append(bits)

    scale = t.norm() or 1.0
    c: dict[tuple[int, ...], Scalar] = {}
    for om, members in orbits.items():
        values = [t[b] for b in members]
        ref_bits, ref = members[0], values[0]
        worst, worst_bits = 0.0, ref_bits
        for b, v in zip(members[1:], values[1:]):
            dev = abs(complex(v) - complex(ref))
            if dev > worst:
                worst, worst_bits = dev, b
        if t.exact:
            if worst != 0.0:
                raise NotMuSymmetricError(ref_bits, worst_bits, worst)
            c[om] = ref
        else:
            if worst > tol * scale:
                raise NotMuSymmetricError(ref_bits, worst_bits, worst)
            c[om] = sum(values) / len(values)
    return MuTensor(mu, c)


def permute_slots(t: BinaryTensor, perm: Sequence[int]) -> BinaryTensor:
    """Relabel slots: result[i_1..i_d] = t[i_perm(1) .. i_perm(d)], perm 0-based."""
    if sorted(perm) != list(range(t.d)):
        raise ValueError(f"{perm} is not a permutation of 0..{t.d - 1}")
    entries = []
    for bits in all_bits(t.d):
        entries.append(t[tuple(bits[p] for p in perm)])
    return BinaryTensor(t.d, tuple(entries))


def rank_one_tensor(xs: Sequence[Sequence[Scalar]]) -> BinaryTensor:
    """x_1 (x) ... (x) x_d from d length-2 vectors."""
    d = len(xs)
    entries = []
    for bits in all_bits(d):
        v: Scalar = 1
        for l, b in enumerate(bits):
            v = v * xs[l][b]
        entries.append(v)
    return BinaryTensor(d, tuple(entries))


def slice_tensor(t: BinaryTensor, j: int, bit: int) -> BinaryTensor:
    """Order d-1 tensor obtained by fixing slot j (1-based) to ``bit``."""
    if t.d < 2:
        raise ValueError("cannot slice an order-1 tensor")
    entries = []
    for bits in all_bits(t.d - 1):
        full = bits[: j - 1] + (bit,) + bits[j - 1 :]
        entries.append(t[full])
    return BinaryTensor(t.d - 1, tuple(entries))


def _apply_slot_map(entries: list[Scalar], d: int, slot: int, m: Sequence[Sequence[Scalar]]) -> None:
    """In-place 2x2 map m on one slot (0-based): each pair (a, b) becomes m (a, b)."""
    (m00, m01), (m10, m11) = m
    shift = d - 1 - slot
    for i in range(1 << d):
        if (i >> shift) & 1 == 0:
            i1 = i | (1 << shift)
            a, b = entries[i], entries[i1]
            entries[i] = m00 * a + m01 * b
            entries[i1] = m10 * a + m11 * b


def rotate_cs(
    t: BinaryTensor | MuTensor, cs: Sequence[tuple[Scalar, Scalar]]
) -> BinaryTensor | MuTensor:
    """Rotate with explicit (cos, sin) pairs, one per slot (dense) or per group (compressed).

    With exact pairs satisfying c^2 + s^2 = 1 the map is exactly orthogonal,
    so the Bombieri form is preserved exactly.
    """
    if isinstance(t, MuTensor):
        mu = t.mu
        if len(cs) != mu.s:
            raise ValueError(f"need one rotation per group, got {len(cs)} for {mu}")
        dense = rotate_cs(expand(t), [cs[k] for k in mu.group_of])
        assert isinstance(dense, BinaryTensor)
        return compress(dense, mu)
    if len(cs) != t.d:
        raise ValueError(f"need one rotation per slot, got {len(cs)} for order {t.d}")
    entries = list(t.entries)
    for slot, (c, s) in enumerate(cs):
        _apply_slot_map(entries, t.d, slot, ((c, -s), (s, c)))
    return BinaryTensor(t.d, tuple(entries))


def rotate(t: BinaryTensor | MuTensor, angles: Sequence[float]) -> BinaryTensor | MuTensor:
    """Rotate by real angles, one per slot (dense) or per group (compressed)."""
    if all(a == 0 for a in angles):
        return t
    return rotate_cs(t, [(math.cos(a), math.sin(a)) for a in angles])


def random_tensor(
    seed: int,
    shape: int | Partition | Iterable[int],
    scale: int | Fraction = 1,
) -> BinaryTensor | MuTensor:
    """Seeded random tensor with i.i.d. entries uniform on [-scale, scale].

    Entries are snapped to dyadic rationals with denominator 2^16 so the exact
    pipeline applies end to end.  An integer ``shape`` gives a dense order-d
    tensor; a partition gives a compressed tensor with random box coordinates.
    """
    rng = np.random.default_rng(seed)

    def draw(n: int) -> list[Fraction]:
        values = [snap_to_dyadic(x) for x in rng.uniform(-1.0, 1.0, size=n).tolist()]
        return values if scale == 1 else [v * Fraction(scale) for v in values]

    if isinstance(shape, int):
        return BinaryTensor(shape, tuple(draw(1 << shape)))
    mu = _as_partition(shape)
    box = mu_box(mu)
    return MuTensor(mu, dict(zip(box, draw(len(box)))))


# --- JSON interchange -------------------------------------------------------
#
# {"d": 3, "mu": [2, 1] | null, "entries": {"21": "3/4", ...}}
#
# With mu = null the keys are bit strings of length d (slot-major); with mu
# given they are box coordinates, one digit per group (parts <= 9). Rational
# strings are preserved bit-exactly; plain JSON numbers mean the float
# pipeline.  Missing keys are zero.


def _scalar_to_json(v: Scalar) -> str | float:
    if isinstance(v, (Fraction, int)):
        return format_rational(Fraction(v))
    return float(v)


def _scalar_from_json(v: str | float | int) -> Scalar:
    if isinstance(v, (str, int)):
        return Fraction(v)
    x = float(v)
    if not math.isfinite(x):
        raise ValueError(f"entry {v!r} is not finite")
    return x


def tensor_to_json_dict(t: BinaryTensor | MuTensor) -> dict:
    if isinstance(t, BinaryTensor):
        entries = {
            "".join(map(str, index_to_bits(i, t.d))): _scalar_to_json(v)
            for i, v in enumerate(t.entries)
            if v != 0
        }
        return {"d": t.d, "mu": None, "entries": entries}
    entries = {"".join(map(str, om)): _scalar_to_json(v) for om, v in sorted(t.c.items()) if v != 0}
    return {"d": t.mu.d, "mu": list(t.mu.parts), "entries": entries}


def tensor_from_json_dict(doc: dict) -> BinaryTensor | MuTensor:
    d = int(doc["d"])
    mu = doc.get("mu")
    raw = doc.get("entries", {})
    if not isinstance(raw, dict):
        raise TypeError(f"entries must be an object of index keys, not {type(raw).__name__}")
    if mu is None:
        entries: list[Scalar] = [Fraction(0)] * (1 << d)
        for key, val in raw.items():
            bits = tuple(int(ch) for ch in key)
            if len(bits) != d or any(b not in (0, 1) for b in bits):
                raise ValueError(f"bad index key {key!r} for order {d}")
            entries[bits_to_index(bits)] = _scalar_from_json(val)
        if any(isinstance(v, float) for v in entries):
            entries = [float(v) for v in entries]
        return BinaryTensor(d, tuple(entries))
    part = Partition(tuple(int(p) for p in mu))
    if part.d != d:
        raise ValueError(f"mu {mu} is not a partition of d={d}")
    if any(p > 9 for p in part.parts):
        raise ValueError("parts above 9 not representable in digit keys")
    c: dict[tuple[int, ...], Scalar] = {}
    for key, val in raw.items():
        om = tuple(int(ch) for ch in key)
        if len(om) != part.s:
            raise ValueError(f"bad box key {key!r} for mu={mu}")
        c[om] = _scalar_from_json(val)
    if any(isinstance(v, float) for v in c.values()):
        c = {k: float(v) for k, v in c.items()}
    return MuTensor(part, c)


def load_tensor(path: str) -> BinaryTensor | MuTensor:
    with open(path, "r", encoding="utf-8") as fh:
        return tensor_from_json_dict(json.load(fh))
