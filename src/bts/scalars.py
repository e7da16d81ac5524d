"""Scalar backends shared by the tensor and polynomial layers.

Two pipelines coexist: an exact one over the rationals (``fractions.Fraction``
plus the Gaussian rationals below, used for the critical equations and the
printed invariant formulas) and a double-precision one (floats / numpy
complex, used for the solvers' eigenvalue problems, root finding and
anything transcendental).  Values are converted between
the two only at explicit boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Scalar = Union[Fraction, int, float, complex, "QQi"]


@dataclass(frozen=True)
class QQi:
    """A Gaussian rational a + b*i with exact Fraction components."""

    re: Fraction
    im: Fraction

    def __add__(self, other: "QQi | Fraction | int") -> "QQi":
        o = _as_qqi(other)
        return QQi(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other: "QQi | Fraction | int") -> "QQi":
        o = _as_qqi(other)
        return QQi(self.re - o.re, self.im - o.im)

    def __rsub__(self, other: "QQi | Fraction | int") -> "QQi":
        return _as_qqi(other) - self

    def __mul__(self, other: "QQi | Fraction | int") -> "QQi":
        o = _as_qqi(other)
        return QQi(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __neg__(self) -> "QQi":
        return QQi(-self.re, -self.im)

    def __pow__(self, n: int) -> "QQi":
        if n < 0:
            raise ValueError("negative powers not supported")
        out = QQi(Fraction(1), Fraction(0))
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conjugate(self) -> "QQi":
        return QQi(self.re, -self.im)

    def norm_sq(self) -> Fraction:
        """|z|^2, an exact rational."""
        return self.re * self.re + self.im * self.im

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self) -> str:
        return f"QQi({self.re}, {self.im})"


def _as_qqi(x: "QQi | Fraction | int") -> QQi:
    if isinstance(x, QQi):
        return x
    return QQi(Fraction(x), Fraction(0))


def format_rational(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def snap_to_dyadic(x: float, bits: int = 16) -> Fraction:
    """Round x to the nearest multiple of 2**-bits, exactly."""
    scale = 1 << bits
    return Fraction(round(x * scale), scale)


def is_exact(value: Scalar) -> bool:
    return isinstance(value, (Fraction, int, QQi))
