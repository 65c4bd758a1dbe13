"""Exact micro-local analysis of bihamiltonian structures.

Skew matrix pencils decompose into Kronecker and Jordan blocks; polynomial
bivector fields get exact Poisson, compatibility and Casimir certificates;
lambda-Casimir families feed flatness criteria and anchored Lenard chains.
The package is exact-only: every computation is rational arithmetic, with
no floating-point code path.
"""

from .exactalg import BACKEND

__version__ = "0.1.0"
__all__ = ["BACKEND", "__version__"]
