"""Exact diagonals and amenability constants of finite semilattice and
commutative Clifford semigroup convolution algebras.

The API is imported from the modules, e.g. semiam.clifford."""

__version__ = "0.1.0"
