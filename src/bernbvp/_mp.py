"""Shared extended-precision context.

The iteration combines moment integrals with dual-basis connection
coefficients whose magnitudes grow roughly like 4^n, so rounding in that
combination is amplified by the same factor.  Three kernels therefore run
at WORKING_DPS decimal digits (mpmath): the per-(node, basis index)
products and sums of quadrature._moment_integrals_mp, the table of
dual.dual_coefficients, and bandsolve.assemble_rhs.  Everything that feeds
or checks them (nodes, weights, derivative values, the right-hand side at
the nodes, the L2 residual) is float64: rounding there perturbs the
integrand once per node and is not amplified by 4^n.  It does reach the
Bernstein coefficients through the dual basis values at the nodes (about
2^n), while the values of the polynomial they represent move only at the
float64 rounding level.  At 40 digits those values keep float64 accuracy
up to roughly n - m = 45.

The kernels build their values from ``ctx``, a private mpmath context fixed
at WORKING_DPS.  Its precision is never changed after import, so neither
concurrent solves nor other code changing mpmath's global precision can
alter a running solve.
"""

from mpmath import MPContext

WORKING_DPS = 40

ctx = MPContext()
ctx.dps = WORKING_DPS
