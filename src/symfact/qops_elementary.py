"""Operators factorizing products of elementary symmetric polynomials.

The ring of symmetric polynomials is identified with a free polynomial ring
in coordinates eps_j = e_j(x).  The Hamiltonians are the Euler operators
eps_j d/deps_j, and Q_z scales eps_j by 1 + (z-1) j / n, so E_lam has the
eigenvalue polynomial prod_j (1 + (z-1) j / n)^(lam_j - lam_{j+1}).

H_j, Q, the separating map and the lift are the one orbit map of
``symfact.spectral`` (``orbit_h``, ``orbit_q``, ``orbit_separate``,
``lift``) on the E basis, and so is the chain link ``_link``, with each
E_lam's image under A_k on its left.  ``apply_h`` scales by ``h_eigenvalue``
itself, so verify's eigenrelation check on E tests only the E expansion and
its m-coordinate table; the explicit first-order form ``h_explicit_values`` is the
independent check, and the tests also compare ``apply_h`` with the eps route.
The chain links A_k act on the elementary polynomials of the first k
variables by a two-term rule, so A_k is a ring map on the eps-coordinates:
the image of E_lam is a product of small polynomials in eps_1..eps_(k-1)
and z_k, each of whose terms is an E element of the first k-1 variables
times a power of z_k.  The A-chain is kept as an independent route
and checked against the spectral separating map (``separate``) and the
rho-Q composition (``separate_via_q``).  All three return the separated
polynomial as orbit rows over z_1..z_n: the routes carry the z's they make
in the z block of their orbit form, never as whole monomials.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache, partial

from . import spectral
from .bases import OrbitForm, elementary_value, expand_in_basis, m_coordinates
from .partitions import Partition
from .poly import MultiPoly, Pair, PolyError, UniPoly, _contract, _reduce, _scalar, accumulate, default_names


def to_eps(f: MultiPoly) -> MultiPoly:
    """Rewrite a symmetric polynomial as a polynomial in eps_1..eps_n."""
    n = f.arity
    terms = {lam.steps(): c for lam, c in expand_in_basis(f, "E").items()}
    return MultiPoly(n, terms, default_names("eps", n))


def apply_h(f: MultiPoly, j: int) -> MultiPoly:
    """Euler operator eps_j d/deps_j in the x variables: it scales E_lam by :func:`h_eigenvalue`."""
    return spectral.orbit_h(OrbitForm.of(f), "E", h_eigenvalue, j).to_poly()


def h_eigenvalue(lam: Partition, j: int) -> Fraction:
    """Eigenvalue of H_j on E_lam: the exponent lam_j - lam_{j+1} of e_j."""
    if not 1 <= j <= lam.n:
        raise PolyError(f"need 1 <= j <= n, got j={j}")
    return Fraction(lam.steps()[j - 1])


def h_explicit_values(f: MultiPoly, j: int, points: list[list[Fraction]]) -> list[Fraction]:
    """The same operator as an explicit first-order form, at each of the points.

    e_j(x) sum_i (-x_i)^(n-j) / prod_{m != i} (x_m - x_i) * df/dx_i evaluated
    at points with pairwise distinct coordinates, each an int or a Fraction
    (a float or a bool raises); f is differentiated once for all of them.  A
    point is written x_s = a_s / D over its common denominator D, so each
    value is one sum in ints: with T_s the top exponent of f in slot s,
    df/dx_i(x) is df's numerators contracted with the tables
    a_s^e D^(T_s - e), over df.den D^(sum T).
    """
    n = f.arity
    if not 1 <= j <= n:
        raise PolyError(f"need 1 <= j <= n, got j={j}")
    derivatives = [f.diff(i) for i in range(n)]
    tops = list(map(max, zip(*f.num)))
    values = []
    for point in points:
        pt = [_scalar(v) for v in point]
        if len(set(pt)) != n:
            raise PolyError("point must have pairwise distinct coordinates")
        d = math.lcm(*(v.denominator for v in pt))
        a = [v.numerator * (d // v.denominator) for v in pt]
        tables = [[x**e * d ** (top - e) for e in range(top + 1)] for x, top in zip(a, tops)]
        # the i-th term of the sum, times D^(sum T + 1 - j), as an int pair
        terms = []
        for i, df in enumerate(derivatives):
            spread = math.prod(a[m] - a[i] for m in range(n) if m != i)
            terms.append(((-a[i]) ** (n - j) * _contract(df.num, tables), df.den * spread))
        common = math.lcm(*(den for _, den in terms))
        total = sum(num * (common // den) for num, den in terms)
        values.append(Fraction(elementary_value(a, j) * total, common * d ** (sum(tops) + 1)))
    return values


@lru_cache(maxsize=None)
def q_poly(lam: Partition) -> UniPoly:
    """prod_j (1 + (z-1) j / n)^(lam_j - lam_{j+1}); value 1 at z = 1.

    Built on ints: the numerators of prod_j (n - j + j z)^(lam_j - lam_{j+1}),
    one linear factor at a time, over n^(lam_1), the sum of the exponents.
    """
    n = lam.n
    nums = [1]
    for j, mult in enumerate(lam.steps(), start=1):
        for _ in range(mult):
            nums = [(n - j) * a + j * b for a, b in zip(nums + [0], [0] + nums)]
    return UniPoly.over(nums, n ** lam.parts[0])


@lru_cache(maxsize=None)
def _clearing_products(n: int) -> tuple[UniPoly, list[UniPoly]]:
    """prod_j (j z + n - j) over j = 1..n, and for each j the same product without its j-th factor."""
    linear = [UniPoly([n - j, j]) for j in range(1, n + 1)]
    rests = [math.prod(linear[:j] + linear[j + 1 :], start=UniPoly([1])) for j in range(n)]
    return rests[0] * linear[0], rests


def q_ode_residual(lam: Partition, q: UniPoly | None = None) -> UniPoly:
    """Denominator-cleared residual of dq/dz = sum_j (lam_j - lam_{j+1}) q / (z + (n-j)/j).

    Clearing multiplies through by prod_j (j z + n - j); the result must be
    the zero polynomial for lam's own eigenvalue polynomial (the default q).
    The products of the linear factors depend on n only and are built once.
    """
    n = lam.n
    if q is None:
        q = q_poly(lam)
    full, rests = _clearing_products(n)
    residual = q.derivative() * full
    for j, mult in enumerate(lam.steps(), start=1):
        if mult:
            residual = residual - rests[j - 1] * q * (mult * j)
    return residual


def apply_q(f: MultiPoly) -> MultiPoly:
    """Spectral Q on the E basis (:func:`symfact.spectral.orbit_q`), new z slot last."""
    return spectral.orbit_q(OrbitForm.of(f), "E", q_poly).to_poly()


@lru_cache(maxsize=None)
def _chain_image(j: int, k: int, n: int) -> MultiPoly:
    """Image of e_j of the first k variables under the k-th chain link, in eps-coordinates.

    eps_j (n - j + j z) / n + eps_(j-1) (k - j + (n - k + j) z) / n in k
    slots: eps_1..eps_(k-1) of the first k-1 variables, then z_k.  There
    eps_0 = 1 and eps_k = 0.
    """
    z = MultiPoly.variable(k - 1, k)
    one = MultiPoly.one(k)
    eps = [one, *(MultiPoly.variable(i, k) for i in range(k - 1)), MultiPoly.zero(k)]
    u = one * Fraction(n - j, n) + z * Fraction(j, n)
    v = one * Fraction(k - j, n) + z * Fraction(n - k + j, n)
    return eps[j] * u + eps[j - 1] * v


@lru_cache(maxsize=None)
def _link_image(lam: Partition, k: int, n: int) -> Pair:
    """The k-th link's image of E_lam (lam of length k), prod_j A_k(e_j)^(lam_j - lam_(j+1)).

    The product is taken in eps-coordinates, where the link is a ring map;
    each term eps^s z_k^d is E_nu(x_1..x_(k-1)) z_k^d, nu the partition
    whose steps are s, read through E_nu's m-coordinate rows (at k = 1
    there are no x's, and s is empty).  Returns the
    (numerators, denominator) pair of the image's orbit rows over the k-1
    x's, with z_k as its one tail slot.
    """
    image = MultiPoly.one(k)
    for j, e in enumerate(lam.steps(), start=1):
        if e:
            image = image * _chain_image(j, k, n) ** e

    def rows(s: tuple[int, ...]) -> dict[tuple[int, ...], int]:
        return m_coordinates("E", Partition(tuple(itertools.accumulate(reversed(s)))[::-1])) if s else {(): 1}

    out: dict[tuple[int, ...], int] = {}
    for e, c in image.num.items():
        z = e[-1:]
        accumulate(out, ((r + z, c * w) for r, w in rows(e[:-1]).items()))
    return _reduce(out, image.den)


def _link(o: OrbitForm, k: int, n: int) -> OrbitForm:
    """The k-th chain link in orbit coordinates: E_lam(head) * tail goes to A_k(E_lam) * tail.

    The input's head is its first k slots; the output's head is the first
    k-1, slot k holds z_k, and the later slots ride along.  On a chain's
    form z_k joins the z block in front: a product is kept only when z_k's
    exponent is at least the first z after it.
    """
    z = o.grown()
    num, den = spectral.orbit_map(o, "E", lambda lam: _link_image(lam, k, n), lambda lam: ({(): 1}, 1), z)
    return OrbitForm(k - 1, num, den, o.names, z)


def apply_a(f: MultiPoly, k: int, n: int) -> MultiPoly:
    """Chain link: substitute the two-term rule into the e-coordinates.

    Expects symmetry in the first k slots; trailing slots are inert.  On
    output slot k holds z_k.
    """
    if not 1 <= k <= n:
        raise PolyError(f"need 1 <= k <= n, got k={k}")
    if f.arity < k:
        raise PolyError("polynomial must have at least k slots")
    return _link(OrbitForm.of(f, k), k, n).to_poly()


def separate_via_q(f: MultiPoly) -> OrbitForm:
    """rho_0 composed with n spectral Q's, in orbit rows over z_1..z_n; the last Q fused with rho_0.

    Symmetry is checked once, on entry; the steps run on the orbit form,
    with the z's they make in its z block.
    """
    q = partial(spectral.orbit_q, basis="E", q_poly=q_poly)
    rho0_q = partial(spectral.rho0_orbit_q, basis="E", q_poly=q_poly)
    return spectral.separate_via_q(OrbitForm.of(f).z_block(), f.arity, q, rho0_q)


def separate_via_chain(f: MultiPoly) -> OrbitForm:
    """The A-chain, in orbit rows over z_1..z_n.

    Symmetry is checked once, on entry; the links (:func:`apply_a` is one)
    run on the orbit form, with the z's they make in its z block.
    """
    return spectral.separate_via_chain(OrbitForm.of(f).z_block(), f.arity, _link)


def separate(f: MultiPoly) -> OrbitForm:
    """Spectral separating map (:func:`symfact.spectral.orbit_separate`) in orbit rows, checked against the A-chain."""
    out = spectral.orbit_separate(OrbitForm.of(f), "E", q_poly)
    return spectral.agreeing(out, separate_via_chain(f), f"[E] n={f.arity}: spectral product vs A-chain")


def lift(f: MultiPoly) -> MultiPoly:
    """Spectral lift: E-bar of (lam) goes to E-bar of (lam, 0)."""
    return spectral.lift(f, "E")
