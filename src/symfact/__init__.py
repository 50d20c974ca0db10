"""Exact symmetric-polynomial bases and the operators that factorize them.

Three bases (monomial sums, elementary-symmetric products, Schur functions)
over exact rational coefficients, a one-parameter family of commuting
Q-operators diagonal on each, separating maps that send basis elements to
products of univariate polynomials, lifting operators that add a variable,
and exact verification of the integral forms of the Schur-case operators.
"""

from .partitions import Partition, dominance_leq, enumerate_partitions
from .poly import InvariantViolation, MultiPoly, NotDivisible, NotSymmetric, PolyError, UniPoly

__all__ = [
    "Partition",
    "dominance_leq",
    "enumerate_partitions",
    "MultiPoly",
    "UniPoly",
    "PolyError",
    "NotDivisible",
    "NotSymmetric",
    "InvariantViolation",
]
