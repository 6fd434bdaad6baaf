"""Exact arithmetic for p-adic square classes, epsilon-hermitian forms,
symmetric-space orbits and distinction criteria for classical pairs."""

from .localfield import LocalsymError

__version__ = "0.1.0"
