"""Exact q-series arithmetic for Jacobi theta functions and Dedekind
eta, the m = 1 mock building blocks Psi, and N=4 superconformal
characters, with numeric verification of their modular behaviour.

Series live on integer exponent lattices with Gaussian-rational
coefficients and carry explicit trust bounds; every identity in the
package is checkable either exactly (truncated series) or numerically
(mpmath residuals).
"""

__version__ = "0.1.0"
