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
the insertion-average lift (vs ``spectral.lift`` on the m basis).  The two
separation routes keep the x's whole, so they share nothing with the orbit
expansions, and keep the z's they make in the z block of an
:class:`~symfact.bases.OrbitForm` with no head; they return orbit rows over
z_1..z_n.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial

from . import spectral
from .bases import OrbitForm, elementary_value
from .partitions import Partition
from .poly import (
    MultiPoly,
    NotSymmetric,
    PolyError,
    UniPoly,
    _reduce,
    accumulate,
    default_names,
)


@lru_cache(maxsize=None)
def q_poly(lam: Partition) -> UniPoly:
    """Eigenvalue polynomial (1/n) sum_j z^(lam_j); equals m-bar at (z,1,..,1).

    Built on ints: the count of each part, over n.
    """
    nums = [0] * (lam.parts[0] + 1)
    for p in lam.parts:
        nums[p] += 1
    return UniPoly.over(nums, lam.n)


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
    if not 1 <= j <= lam.n:
        raise PolyError(f"need 1 <= j <= n, got j={j}")
    return Fraction(elementary_value(lam.parts, j))


def _form(f: MultiPoly) -> OrbitForm:
    """f as the m steps take it: every slot whole, no head and no z block."""
    return OrbitForm(0, f.num, f.den, f.names)


def _substitution_average(o: OrbitForm, n_x: int | None, drop: bool) -> OrbitForm:
    """(1/n) sum_j f(..., z x_j, ...) over the first n slots of o, whose slots are whole but a z block; new slot z last.

    With ``drop`` the first n slots are then set to 1 (dropped): x^a t goes
    to (1/n) sum_j t z^(a_j).  The new z joins o's z block if it has one, and
    when the block holds z's, x^a t z^(a_j) is made only for a_j at most the
    block's last entry.
    """
    n = len(o.names) if n_x is None else n_x
    if not 1 <= n <= len(o.names):
        raise PolyError("n_x out of range")
    start = n if drop else 0  # the first slot the result keeps
    rows = bool(o.z)
    pairs = ((e[start:] + (e[j],), c) for e, c in o.num.items() for j in range(n) if not rows or e[j] <= e[-1])
    return OrbitForm(0, *_reduce(accumulate({}, pairs), o.den * n), o.names[start:] + ("z",), o.grown())


def apply_q(f: MultiPoly, n_x: int | None = None) -> MultiPoly:
    """Substitution average (1/n) sum_j f(..., z x_j, ...), new slot z last.

    Well defined on any polynomial, symmetric or not.  ``n_x`` restricts the
    average to the leading slots when trailing slots hold earlier z's.
    """
    return _substitution_average(_form(f), n_x, drop=False).to_poly()


def _projector_combination(o: OrbitForm, k: int, own: int, other: int, den: int) -> OrbitForm:
    """(own f + other sum_{j<k} P_jk f) / den over o's slots, whole but a z block.

    P_jk, the substitution x_j <- x_j x_k, x_k <- 1, puts a_j in slot k of
    x^a; so slot k doubles as z_k.  z_k joins o's z block in front if it
    has one, and when the block holds z's, a term is made only for a_j at
    least the block's first entry.
    """
    weights = list(enumerate([other] * (k - 1) + [own]))
    ks, rows = k - 1, bool(o.z)
    pairs = ((e[:ks] + (e[j],) + e[k:], c * w) for e, c in o.num.items() for j, w in weights if not rows or e[j] >= e[k])
    return OrbitForm(0, *_reduce(accumulate({}, pairs), o.den * den), o.names, o.grown())


def _link(o: OrbitForm, k: int, n: int) -> OrbitForm:
    """The projector average (1/n)(n-k+1 + sum_{j<k} P_jk) on o."""
    return _projector_combination(o, k, n - k + 1, 1, n)


def _checked(f: MultiPoly, k: int, n: int) -> OrbitForm:
    """f as the links take it (every slot whole), once 1 <= k <= n and its k slots are checked."""
    if not 1 <= k <= n:
        raise PolyError(f"need 1 <= k <= n, got k={k}")
    if f.arity < k:
        raise PolyError("polynomial must have at least k slots")
    return _form(f)


def apply_a(f: MultiPoly, k: int, n: int) -> MultiPoly:
    """Projector average (1/n)(n-k+1 + sum_{j<k} P_jk); slot k doubles as z_k.

    Only the first k slots are touched, so trailing slots may hold the z's
    produced by later links of the chain.
    """
    return _link(_checked(f, k, n), k, n).to_poly()


def apply_a_inv(f: MultiPoly, k: int, n: int) -> MultiPoly:
    """Inverse of the projector average, from P_jk P_lk = P_jk: (n - sum_{j<k} P_jk) / (n-k+1)."""
    return _projector_combination(_checked(f, k, n), k, n, -1, n - k + 1).to_poly()


def rho(f: MultiPoly, k: int) -> MultiPoly:
    """Restriction setting all slots past the first k to 1."""
    if not 0 <= k <= f.arity:
        raise PolyError(f"need 0 <= k <= arity, got k={k}")
    return f.partial_eval({i: 1 for i in range(k, f.arity)})


def separate_via_q(f: MultiPoly) -> OrbitForm:
    """rho_0 composed with n substitution-average Q's, in orbit rows over z_1..z_n.

    The x's stay whole; the z's the Q's make are kept in the z block.
    """
    n = f.arity
    q = partial(_substitution_average, n_x=n, drop=False)
    rho0_q = partial(_substitution_average, n_x=n, drop=True)
    return spectral.separate_via_q(_form(f).z_block(), n, q, rho0_q)


def separate_via_chain(f: MultiPoly) -> OrbitForm:
    """The A-chain of projector averages (:func:`apply_a`), in orbit rows over z_1..z_n.

    The x's stay whole; the z's the links make are kept in the z block.
    """
    return spectral.separate_via_chain(_form(f).z_block(), f.arity, _link)


def separate(f: MultiPoly) -> OrbitForm:
    """Factorizing map in orbit rows: on a normalized basis element, prod_j q(z_j).

    Runs the triangular A-chain and checks it against the rho-Q composition;
    any disagreement raises.
    """
    if not f.is_symmetric():
        raise NotSymmetric("separation needs a symmetric polynomial")
    n = f.arity
    return spectral.agreeing(separate_via_chain(f), separate_via_q(f), f"[m] n={n}: A-chain vs rho-Q composition")


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
