"""The spectral structure the three bases share, stated once.

Each basis (m, E, s) has a Q-operator that is diagonal with a univariate
eigenvalue polynomial q_lam(z), a separating map sending the normalized
basis element to prod_j q_lam(z_j), and a lift that appends a zero part.
The E and s Hamiltonians H_j are diagonal too.  In orbit coordinates every
one of these operators is the same sum, :func:`orbit_map`: expand the head
of an :class:`~symfact.bases.OrbitForm` over the basis
(:func:`symfact.bases.expand_orbits`), then replace b_lam(head) * tail_lam
by left(lam) * tail_lam * right(lam), two sides that depend on lam only:

    operator            left(lam)                        right(lam)
    orbit_q             b_lam's m-coordinate rows        q_lam(z)
    rho0_orbit_q        b_lam(1..1)                      q_lam(z)
    orbit_h             b_lam's m-coordinate rows        its eigenvalue (no term for 0)
    orbit_separate      b_lam(1..1)                      the rows of prod_j q_lam(z_j)
    lift                b_(lam, 0)'s m-coordinate rows   b_lam(1..1) / b_(lam, 0)(1..1)
    qe._link (E chain)  the rows of A_k(E_lam)           1

The rows are the definition of b_lam (:func:`symfact.bases.m_coordinates`)
and b_lam(1..1) is a closed form (:func:`symfact.bases.value_at_one`), so
no operator here builds a whole basis element.  Symmetric polynomials are
carried as orbit rows: one row per head partition, not per monomial, so a
chain of steps checks symmetry once and never builds a full intermediate;
the E and s ``apply_q``, ``apply_h`` and ``separate`` are these steps on
the orbit form of a whole polynomial.
Every separated polynomial is symmetric in its z's, so prod_j q(z_j) and
the separating map are orbit rows too, one per multiset of q's support
instead of one per monomial: :func:`orbit_product` is the one kernel for
products with prod_j p(x_j), :func:`symfact.bases.times_product`, on the
single row 0^n, and :func:`eigen_product` spreads its rows into a whole
polynomial.  The two separation routes are driven here too: the rho-Q
composition (:func:`separate_via_q`) and the A-chain
(:func:`separate_via_chain`), each given one basis's steps.  The
rho-Q route S_n = rho_0 Q_{z_1}...Q_{z_n} runs n-1 Q's and then the one
fused step rho_0 Q_{z_1} (:func:`rho0_orbit_q` on a diagonal basis), which
never builds the last Q's output in the x's only to set them to 1.  Every
Q step appends one slot named z.  A route's intermediates are symmetric in
the z's made so far (for rho-Q by [Q_z1, Q_z2] = 0, for the A-chains by
the rho Q = A rho identities the chain suite checks), so a route keeps them
in the z block of its :class:`~symfact.bases.OrbitForm`, at weakly
decreasing exponents only: a Q step makes a product only when its new z
exponent is at most the block's last, and a chain link keeps z_k only when
it is at least the first z after it.  Each route returns the orbit rows
over z_1..z_n, and :func:`agreeing` is the one check that two routes gave
the same rows.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable

from .bases import OrbitForm, expand_orbits, m_coordinates, times_product, value_at_one
from .partitions import Partition
from .poly import InvariantViolation, MultiPoly, Pair, PolyError, UniPoly, default_names, tensor_sum

QPoly = Callable[[Partition], UniPoly]


def orbit_product(q: UniPoly, n: int) -> OrbitForm:
    """prod_j q(z_j) over n z-slots, in orbit rows: :func:`~symfact.bases.times_product` on the one row 0^n.

    The row at e_1 >= .. >= e_n is prod_i [z^(e_i)]q over q's denominator to
    the n-th power.  The pair is reduced: each prime of that denominator
    misses some numerator c of q, so it misses the row c^n too.
    """
    names = default_names("z", n)
    return OrbitForm(n, *times_product(OrbitForm(n, {(0,) * n: 1}, 1, names), q, 0), names)


def eigen_product(q: UniPoly, n: int) -> MultiPoly:
    """prod_j q(z_j) over n z-slots: :func:`orbit_product` spread over every monomial."""
    return orbit_product(q, n).to_poly()


Side = Callable[[Partition], Pair]


def _pair(f: MultiPoly | OrbitForm) -> Pair:
    """The (numerators, denominator) pair of a whole polynomial or of orbit rows."""
    return f.num, f.den


def _scalar(v: Fraction) -> Pair:
    """A scalar as a pair in no slots; zero is the empty pair."""
    return ({(): v.numerator} if v else {}), v.denominator


def orbit_map(o: OrbitForm, basis: str, left: Side, right: Side, z: int | None = None) -> Pair:
    """The reduced pair of sum_lam left(lam) * tail_lam * right(lam), o expanded over the basis in its head.

    Every diagonal operator is this one sum with its own two sides; each
    side is a pair whose slots are concatenated in that order.  ``z`` is
    the result's z block (:class:`~symfact.bases.OrbitForm`), which only
    the products whose block is weakly decreasing enter.
    """
    groups = ((left(lam), (tail, o.den), right(lam)) for lam, tail in expand_orbits(o, basis).items())
    return tensor_sum(groups, z or 0)


def _rows(basis: str) -> Side:
    """lam -> b_lam's m-coordinate rows: the left side that keeps the head in orbit rows."""
    return lambda lam: (m_coordinates(basis, lam), 1)


def _at_one(basis: str) -> Side:
    """lam -> b_lam(1..1): the left side that sets the head slots to 1."""
    return lambda lam: _scalar(value_at_one(basis, lam))


def _eigenvalue_poly(q_poly: QPoly) -> Side:
    """lam -> q_lam(z): the right side that appends one z slot."""
    return lambda lam: _pair(q_poly(lam).poly)


def orbit_q(o: OrbitForm, basis: str, q_poly: QPoly) -> OrbitForm:
    """One diagonal Q in orbit coordinates: sum_lam b_lam(x) * tail_lam * q_lam(z).

    The head is expanded over the basis, each tail is multiplied by q_lam(z)
    and b_lam goes back to m-coordinates through its cached table; the new
    slot, named z, is appended last, and joins o's z block if it has one.
    """
    z = o.grown()
    num, den = orbit_map(o, basis, _rows(basis), _eigenvalue_poly(q_poly), z)
    return OrbitForm(o.k, num, den, o.names + ("z",), z)


def rho0_orbit_q(o: OrbitForm, basis: str, q_poly: QPoly) -> OrbitForm:
    """rho_0 after :func:`orbit_q`, as one step: the head slots set to 1.

    The result is sum_lam b_lam(1..1) * tail_lam * q_lam(z) in the tail
    slots and the new z slot, with no head.
    """
    z = o.grown()
    num, den = orbit_map(o, basis, _at_one(basis), _eigenvalue_poly(q_poly), z)
    return OrbitForm(0, num, den, o.names[o.k :] + ("z",), z)


Eigenvalue = Callable[[Partition, int], Fraction]


def orbit_h(o: OrbitForm, basis: str, eigenvalue: Eigenvalue, j: int) -> OrbitForm:
    """H_j in orbit coordinates, on a basis it is diagonal on: b_lam(head) * tail goes to eigenvalue(lam, j) times it.

    The head is expanded over the basis, each tail is scaled by the
    eigenvalue and b_lam goes back to m-coordinates through its cached
    table, as in :func:`orbit_q`; the slots are o's.
    """
    if not 1 <= j <= o.k:
        raise PolyError(f"need 1 <= j <= n, got j={j}")
    num, den = orbit_map(o, basis, _rows(basis), lambda lam: _scalar(eigenvalue(lam, j)))
    return OrbitForm(o.k, num, den, o.names)


def orbit_separate(o: OrbitForm, basis: str, q_poly: QPoly) -> OrbitForm:
    """Separating map on an orbit form symmetric in all its slots, output in orbit rows over z_1..z_n.

    Each component c b_lam goes to c b_lam(1..1) prod_j q_lam(z_j), the
    rows of :func:`orbit_product`; the tails are empty.
    """
    n = o.k
    num, den = orbit_map(o, basis, _at_one(basis), lambda lam: _pair(orbit_product(q_poly(lam), n)))
    return OrbitForm(n, num, den, default_names("z", n))


def lift(f: MultiPoly, basis: str) -> MultiPoly:
    """Variable-adding operator: normalized b_lam goes to normalized b_(lam, 0).

    On f's orbit rows: b_lam goes to v(lam) / v(lam, 0) times the rows of
    b_(lam, 0), v the value at (1..1).
    """
    n = f.arity + 1

    def ratio(lam: Partition) -> Pair:
        return _scalar(value_at_one(basis, lam) / value_at_one(basis, lam.with_trailing_zero()))

    num, den = orbit_map(OrbitForm.of(f), basis, lambda lam: (m_coordinates(basis, lam.with_trailing_zero()), 1), ratio)
    return OrbitForm(n, num, den, default_names("x", n)).to_poly()


def agreeing(a: OrbitForm, b: OrbitForm, label: str) -> OrbitForm:
    """a, once checked equal to b, the same map by another route, both in orbit rows.

    Otherwise raises, naming ``label`` (basis, n and the two routes), the
    grevlex-leading exponent of a - b and both coefficients there.
    """
    if a != b:
        pa, pb = a.to_poly(), b.to_poly()
        lead = (pa - pb).sorted_terms()[0][0]
        raise InvariantViolation(
            f"separation routes disagree {label}"
            f" at exponent {list(lead)}: {pa.terms.get(lead, 0)} vs {pb.terms.get(lead, 0)}"
        )
    return a


def _z_rows(h: OrbitForm, n: int) -> OrbitForm:
    """A route's last form, whose n slots are all its z block: the orbit rows over z_1..z_n."""
    return OrbitForm(n, h.num, h.den, default_names("z", n))


def separate_via_q(h: OrbitForm, n: int, apply_q: Callable, apply_rho0_q: Callable) -> OrbitForm:
    """rho_0 composed with n Q's of one basis, in orbit rows over z_1..z_n.

    ``h`` is the input in the form the steps take, with an empty z block:
    its x's in rows for a diagonal Q, whole (no head) for the substitution
    average.  ``apply_q(h)`` runs Q_{z_n}..Q_{z_2}, each adding one slot to
    the block; the last Q and rho_0 are the one fused step ``apply_rho0_q``,
    which drops the x's.  What is left is the block, symmetric in the z's,
    so its rows need no reordering of the slots.
    """
    for _ in range(n - 1):
        h = apply_q(h)
    return _z_rows(apply_rho0_q(h), n)


def separate_via_chain(h: OrbitForm, n: int, apply_a: Callable) -> OrbitForm:
    """The A-chain of one basis: its links k = n down to 1 applied to ``h``, in orbit rows over z_1..z_n.

    ``h`` is the input in the form the links carry, with an empty z block,
    and ``apply_a(h, k, n)`` is the k-th link, which puts z_k in slot k, in
    front of the block; after the last link the block is every slot.
    """
    for k in range(n, 0, -1):
        h = apply_a(h, k, n)
    return _z_rows(h, n)


def euler_residual(p: UniPoly, exponents: Iterable[int]) -> UniPoly:
    """prod_j (z d/dz - a_j) applied to p: zero iff p is a combination of the z^(a_j)."""
    for a in exponents:
        p = p.euler() - p * a
    return p
