"""The spectral structure the three bases share, stated once.

Each basis (m, E, s) has a Q-operator that is diagonal with a univariate
eigenvalue polynomial q_lam(z), a separating map sending the normalized
basis element to prod_j q_lam(z_j), and a lift that appends a zero part.
The E and s Hamiltonians H_j are diagonal too (:func:`orbit_h`).
Q, H_j, the separating map and the lift take the basis tag (and, where needed,
the basis's ``q_poly``) and work through :func:`symfact.bases.expand_orbits`.
The two separation routes are driven here too: the rho-Q composition
(:func:`separate_via_q`) and the A-chain (:func:`separate_via_chain`), each
given one basis's steps.

Symmetric polynomials are carried as :class:`~symfact.bases.OrbitForm`
rows: one row per head partition, not per monomial, so a chain of steps
checks symmetry once and never builds a full intermediate.  The diagonal
Q and H_j are the steps :func:`orbit_q` and :func:`orbit_h` on such rows;
the E and s ``apply_q`` and ``apply_h`` are these steps on the orbit form
of a whole polynomial.  Every separated polynomial is symmetric in its z's,
so prod_j q(z_j) (:func:`orbit_product`) and the separating map
(:func:`orbit_separate`) are orbit rows too, one per multiset of q's
support instead of one per monomial; :func:`eigen_product` and
:func:`separate` spread them into whole polynomials.  The rho-Q route
S_n = rho_0 Q_{z_1}...Q_{z_n} runs n-1 Q's and then one fused step
rho_0 Q_{z_1}, which never builds the last Q's output in the x's only to
set them to 1: on a diagonal basis it is
sum_lam b_lam(1..1) * tail_lam * q_lam(z_1) (:func:`rho0_orbit_q`).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Callable, Iterable

from .bases import OrbitForm, basis_poly, combine, expand_in_basis, expand_orbits, m_coordinates
from .partitions import Partition
from .poly import MultiPoly, Pair, PolyError, UniPoly, default_names, tensor_sum

QPoly = Callable[[Partition], UniPoly]


def orbit_product(q: UniPoly, n: int) -> OrbitForm:
    """prod_j q(z_j) over n z-slots, in orbit rows: one per multiset of q's support.

    The row at e_1 >= .. >= e_n is prod_i [z^(e_i)]q over q's denominator to
    the n-th power.  The pair is reduced: each prime of that denominator
    misses some numerator c of q, so it misses the row c^n too.
    """
    p = q.poly
    support = sorted(p.num, reverse=True)
    num = {
        sum(es, ()): math.prod(p.num[e] for e in es)
        for es in itertools.combinations_with_replacement(support, n)
    }
    return OrbitForm(n, num, p.den**n, default_names("z", n))


def eigen_product(q: UniPoly, n: int) -> MultiPoly:
    """prod_j q(z_j) over n z-slots: :func:`orbit_product` spread over every monomial."""
    return orbit_product(q, n).to_poly()


def _tensor_sum(o: OrbitForm, basis: str, q_poly: QPoly, head: Callable[[Partition], Pair]) -> Pair:
    """The pair of sum_lam head(lam) * tail_lam * q_lam(z), o expanded over the basis in its head."""
    return tensor_sum(
        (head(lam), (tail, o.den), (q.num, q.den))
        for lam, tail in expand_orbits(o, basis).items()
        for q in (q_poly(lam).poly,)
    )


def orbit_q(o: OrbitForm, basis: str, q_poly: QPoly, z_name: str = "z") -> OrbitForm:
    """One diagonal Q in orbit coordinates: sum_lam b_lam(x) * tail_lam * q_lam(z).

    The head is expanded over the basis, each tail is multiplied by q_lam(z)
    and b_lam goes back to m-coordinates through its cached table; the new
    z slot is appended last.
    """
    num, den = _tensor_sum(o, basis, q_poly, lambda lam: (m_coordinates(basis, lam), 1))
    return OrbitForm(o.k, num, den, o.names + (z_name,))


def rho0_orbit_q(o: OrbitForm, basis: str, q_poly: QPoly, z_name: str = "z") -> MultiPoly:
    """rho_0 after :func:`orbit_q`, as one step: the head slots set to 1.

    The result is sum_lam b_lam(1..1) * tail_lam * q_lam(z) in the tail
    slots and the new z slot.
    """

    def at_one(lam: Partition) -> Pair:
        value = basis_poly(basis, lam).value_at_one
        return {(): value.numerator}, value.denominator

    num, den = _tensor_sum(o, basis, q_poly, at_one)
    return MultiPoly._wrap(len(o.names) - o.k + 1, num, den, o.names[o.k :] + (z_name,))


Eigenvalue = Callable[[Partition, int], Fraction]


def orbit_h(o: OrbitForm, basis: str, eigenvalue: Eigenvalue, j: int) -> OrbitForm:
    """H_j in orbit coordinates, on a basis it is diagonal on: b_lam(head) * tail goes to eigenvalue(lam, j) times it.

    The head is expanded over the basis, each tail is scaled by the
    eigenvalue and b_lam goes back to m-coordinates through its cached
    table, as in :func:`orbit_q`; the slots are o's.
    """
    if not 1 <= j <= o.k:
        raise PolyError(f"need 1 <= j <= n, got j={j}")
    num, den = tensor_sum(
        ((m_coordinates(basis, lam), 1), (tail, o.den), ({(): h.numerator}, h.denominator))
        for lam, tail in expand_orbits(o, basis).items()
        if (h := eigenvalue(lam, j))
    )
    return OrbitForm(o.k, num, den, o.names)


def diagonal_h(f: MultiPoly, basis: str, eigenvalue: Eigenvalue, j: int) -> MultiPoly:
    """H_j of a whole symmetric polynomial: :func:`orbit_h` on its orbit form."""
    return orbit_h(OrbitForm.of(f), basis, eigenvalue, j).to_poly()


def orbit_separate(o: OrbitForm, basis: str, q_poly: QPoly) -> OrbitForm:
    """Separating map on an orbit form symmetric in all its slots, output in orbit rows over z_1..z_n.

    Each component c b_lam goes to c b_lam(1..1) prod_j q_lam(z_j), the
    rows of :func:`orbit_product`.
    """
    n = o.k
    num, den = tensor_sum(
        ((tail, o.den), ({(): v.numerator}, v.denominator), (product.num, product.den))
        for lam, tail in expand_orbits(o, basis).items()
        for v, product in ((basis_poly(basis, lam).value_at_one, orbit_product(q_poly(lam), n)),)
    )
    return OrbitForm(n, num, den, default_names("z", n))


def separate(f: MultiPoly, basis: str, q_poly: QPoly) -> MultiPoly:
    """Separating map: :func:`orbit_separate` on f's orbit form, spread over every monomial."""
    return orbit_separate(OrbitForm.of(f), basis, q_poly).to_poly()


def lift(f: MultiPoly, basis: str) -> MultiPoly:
    """Variable-adding operator: normalized b_lam goes to normalized b_(lam, 0)."""
    coeffs = {}
    for lam, c in expand_in_basis(f, basis).items():
        long = lam.with_trailing_zero()
        coeffs[long] = c * basis_poly(basis, lam).value_at_one / basis_poly(basis, long).value_at_one
    return combine(basis, f.arity + 1, coeffs)


def separate_via_q(h, n: int, apply_q: Callable, apply_rho0_q: Callable[..., MultiPoly]) -> MultiPoly:
    """rho_0 composed with n Q's of one basis, output in z_1..z_n.

    ``h`` is the input in the form the steps take: a MultiPoly for the
    substitution average, its :class:`~symfact.bases.OrbitForm` for a
    diagonal Q.  ``apply_q(h, z_name=...)`` runs Q_{z_n}..Q_{z_2}; the last
    Q and rho_0 are the one fused step ``apply_rho0_q``, which returns the
    MultiPoly in (z_n..z_1).
    """
    for i in range(n, 1, -1):
        h = apply_q(h, z_name=f"z{i}")
    return apply_rho0_q(h, z_name="z1").permute(list(range(n - 1, -1, -1)))


def separate_via_chain(h, n: int, apply_a: Callable):
    """The A-chain of one basis: its links k = n down to 1 applied to ``h``.

    ``h`` is the input in the form the links carry, and ``apply_a(h, k, n)``
    is the k-th link, which leaves z_k in slot k; the last link's output is
    returned as it is.
    """
    for k in range(n, 0, -1):
        h = apply_a(h, k, n)
    return h


def euler_residual(p: UniPoly, exponents: Iterable[int]) -> UniPoly:
    """prod_j (z d/dz - a_j) applied to p: zero iff p is a combination of the z^(a_j)."""
    for a in exponents:
        p = p.euler() - p * a
    return p
