"""Exact symbolic and numeric verification for a fourth-order Liouville problem.

The engine re-derives the divergence identities among the invariant tensors
built from a positive function and its covariant derivatives, certifies the
positivity of the associated coefficient matrix by Descartes' rule of signs
after a Moebius map of each interval (with Sturm chains as the fallback),
checks the exponent arithmetic of the blow-down argument, and cross-checks
everything against flat-space jet evaluation and radial ODE shooting.
"""

__version__ = "0.1.0"
