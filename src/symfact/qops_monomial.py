"""Operators factorizing the monomial symmetric basis.

The one-parameter operator family Q_z acts by the substitution average
(1/n) sum_j f(..., z x_j, ...); the commuting Hamiltonians H_j are the
elementary symmetric polynomials in the Euler operators x_i d/dx_i.  The
separating map S_n = rho_0 Q_{z_1}...Q_{z_n} factorizes each normalized
basis element into a product of univariate eigenvalue polynomials, and
admits an equivalent triangular chain of k-variable operators A_k.

This module keeps the paper's own definitions, which serve as independent
cross-check routes for the shared spectral core in ``symfact.spectral``:
the substitution-average Q (vs ``spectral.orbit_q`` on the m basis),
the A-chain separating map (checked against the rho-Q composition), and
the insertion-average lift (vs ``spectral.lift`` on the m basis).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial

from . import spectral
from .bases import elementary_value
from .partitions import Partition
from .poly import (
    MultiPoly,
    NotSymmetric,
    PolyError,
    UniPoly,
    accumulate,
    default_names,
)


@lru_cache(maxsize=None)
def q_poly(lam: Partition) -> UniPoly:
    """Eigenvalue polynomial (1/n) sum_j z^(lam_j); equals m-bar at (z,1,..,1)."""
    n = lam.n
    coeffs = [Fraction(0)] * (lam.parts[0] + 1)
    for p in lam.parts:
        coeffs[p] += Fraction(1, n)
    return UniPoly(coeffs)


def apply_h(f: MultiPoly, j: int) -> MultiPoly:
    """j-th elementary symmetric polynomial in the Euler operators x_i d/dx_i.

    The Euler operators scale x^a by its exponents, so H_j maps x^a to
    e_j(a) x^a (:func:`~symfact.bases.elementary_value`): one pass over the
    integer numerators.
    """
    if not 1 <= j <= f.arity:
        raise PolyError(f"need 1 <= j <= arity, got j={j}")
    out = {exp: c * w for exp, c in f.num.items() if (w := elementary_value(exp, j))}
    return MultiPoly._make(f.arity, out, f.den, f.names)


def h_eigenvalue(lam: Partition, j: int) -> Fraction:
    """Eigenvalue of H_j on m_lam: e_j of the parts."""
    return Fraction(elementary_value(lam.parts, j))


def _substitution_average(f: MultiPoly, n_x: int | None, drop: bool) -> MultiPoly:
    """(1/n) sum_j f(..., z x_j, ...) over the first n slots, new slot z last.

    With ``drop`` the first n slots are then set to 1 (dropped): x^a t goes
    to (1/n) sum_j t z^(a_j).
    """
    n = f.arity if n_x is None else n_x
    if not 1 <= n <= f.arity:
        raise PolyError("n_x out of range")
    start = n if drop else 0  # the first slot the result keeps
    out = accumulate({}, ((exp[start:] + (exp[j],), c) for exp, c in f.num.items() for j in range(n)))
    return MultiPoly._make(f.arity - start + 1, out, f.den * n, f.names[start:] + ("z",))


def apply_q(f: MultiPoly, n_x: int | None = None) -> MultiPoly:
    """Substitution average (1/n) sum_j f(..., z x_j, ...), new slot z last.

    Well defined on any polynomial, symmetric or not.  ``n_x`` restricts the
    average to the leading slots when trailing slots hold earlier z's.
    """
    return _substitution_average(f, n_x, drop=False)


def apply_rho0_q(f: MultiPoly, n_x: int | None = None) -> MultiPoly:
    """rho_0 after :func:`apply_q`, as one step: the first ``n_x`` slots set to 1."""
    return _substitution_average(f, n_x, drop=True)


def apply_projector(f: MultiPoly, j: int, k: int) -> MultiPoly:
    """Substitution x_j <- x_j x_k, x_k <- 1 (1-based, j < k)."""
    if not 1 <= j < k:
        raise PolyError(f"need 1 <= j < k, got j={j}, k={k}")
    if k > f.arity:
        raise PolyError("projector index exceeds arity")
    sj, sk = j - 1, k - 1
    out = accumulate({}, ((exp[:sk] + (exp[sj],) + exp[k:], c) for exp, c in f.num.items()))
    return MultiPoly._make(f.arity, out, f.den, f.names)


def _projector_sum(f: MultiPoly, k: int, n: int) -> MultiPoly:
    """sum_{j<k} P_jk f, the one sum behind A_k and its inverse, once k is checked."""
    if not 1 <= k <= n:
        raise PolyError(f"need 1 <= k <= n, got k={k}")
    if f.arity < k:
        raise PolyError("polynomial must have at least k slots")
    acc = MultiPoly.zero(f.arity, f.names)
    for j in range(1, k):
        acc = acc + apply_projector(f, j, k)
    return acc


def apply_a(f: MultiPoly, k: int, n: int) -> MultiPoly:
    """Projector average (1/n)(n-k+1 + sum_{j<k} P_jk); slot k doubles as z_k.

    Only the first k slots are touched, so trailing slots may hold the z's
    produced by later links of the chain.
    """
    s = _projector_sum(f, k, n)
    return f * Fraction(n - k + 1, n) + s * Fraction(1, n)


def apply_a_inv(f: MultiPoly, k: int, n: int) -> MultiPoly:
    """Inverse of the projector average, from P_jk P_lk = P_jk."""
    s = _projector_sum(f, k, n)
    return f * Fraction(n, n - k + 1) - s * Fraction(1, n - k + 1)


def rho(f: MultiPoly, k: int) -> MultiPoly:
    """Restriction setting all slots past the first k to 1."""
    if not 0 <= k <= f.arity:
        raise PolyError(f"need 0 <= k <= arity, got k={k}")
    return f.partial_eval({i: 1 for i in range(k, f.arity)})


def separate_via_q(f: MultiPoly) -> MultiPoly:
    """rho_0 composed with n substitution-average Q's, output in z_1..z_n."""
    n = f.arity
    return spectral.separate_via_q(f, n, partial(apply_q, n_x=n), partial(apply_rho0_q, n_x=n))


def separate(f: MultiPoly) -> MultiPoly:
    """Factorizing map: on a normalized basis element, prod_j q(z_j).

    Runs the triangular A-chain and checks it against the rho-Q composition;
    any disagreement raises.
    """
    if not f.is_symmetric():
        raise NotSymmetric("separation needs a symmetric polynomial")
    n = f.arity
    g = spectral.separate_via_chain(f, n, apply_a).rename(default_names("z", n))
    return spectral.agreeing(g, separate_via_q(f), f"[m] n={n}: A-chain vs rho-Q composition")


def lift(f: MultiPoly) -> MultiPoly:
    """Variable-adding operator: (1/n) sum_j f with argument j omitted.

    Sends the normalized basis element of a length n-1 partition to the one
    with a zero part appended.
    """
    n = f.arity + 1
    acc = MultiPoly.zero(n)
    for j in range(n):
        acc = acc + f.insert_slot(j, "_")
    return (acc * Fraction(1, n)).rename(default_names("x", n))


def separation_residual(lam: Partition) -> UniPoly:
    """Apply prod_j (z d/dz - lam_j) to the eigenvalue polynomial."""
    return spectral.euler_residual(q_poly(lam), lam.parts)
