"""Scalar backends shared by the tensor and polynomial layers.

Two pipelines coexist: an exact one over the integers and the rationals
(``int``, ``fractions.Fraction`` and the Gaussian integers or rationals
below, used for the critical equations and the printed invariant formulas)
and a double-precision one (floats / numpy complex, used for the solvers'
eigenvalue problems, root finding and anything transcendental).  Values are converted between
the two only at explicit boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Scalar = Union[Fraction, int, float, complex, "QQi"]


@dataclass(frozen=True)
class QQi:
    """A Gaussian integer or rational a + b*i with exact int or Fraction components."""

    re: Fraction | int
    im: Fraction | int

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
        out = QQi(1, 0)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conjugate(self) -> "QQi":
        return QQi(self.re, -self.im)

    def norm_sq(self) -> Fraction | int:
        """|z|^2, an exact integer or rational."""
        return self.re * self.re + self.im * self.im

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self) -> str:
        return f"QQi({self.re}, {self.im})"


def _as_qqi(x: "QQi | Fraction | int") -> QQi:
    """x as a Gaussian number, its part kept as it is; anything inexact raises TypeError."""
    if isinstance(x, QQi):
        return x
    if isinstance(x, (int, Fraction)):
        return QQi(x, 0)
    raise TypeError(f"cannot mix {type(x).__name__} into exact Gaussian arithmetic")


def format_rational(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def snap_to_dyadic(x: float, bits: int = 16) -> Fraction:
    """Round x to the nearest multiple of 2**-bits, exactly."""
    scale = 1 << bits
    return Fraction(round(x * scale), scale)


def is_exact(value: Scalar) -> bool:
    return isinstance(value, (int, Fraction, QQi))
