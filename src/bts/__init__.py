"""Singular values, distance polynomials and invariants of real binary tensors."""

__version__ = "0.12.1"
