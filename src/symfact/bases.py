"""The three symmetric-polynomial bases and expansions of symmetric polynomials.

Monomial sums m, products of elementary symmetric polynomials E, and Schur
functions s.  Each basis element b_lam is defined by its m-coordinate rows
(:func:`m_coordinates`, its integer coefficients at partition exponents):
m_lam is the one row lam, E_lam is multiplied out one e_j at a time on
rows, and s_lam is built by the branching rule, one variable at a time,
with no division (the bialternant, the alternant divided exactly by the
Vandermonde, is its test oracle).  Its value at the all-ones point is a
closed form (:func:`value_at_one`, the one place each basis's value is
said), and the whole polynomial and its normalized form of value 1 there are
the orbit spread of the rows (:func:`basis_poly`), built only where a whole
polynomial is asked for.
:func:`expand_in_basis` writes a symmetric polynomial as coordinates over
one basis, and :func:`combine` is the one sum of basis elements that takes
coordinates back.  A symmetric polynomial is multiplied by the
Vandermonde without a product: :func:`times_vandermonde` gives a_delta * f
at its strictly decreasing exponents, which fix an antisymmetric polynomial.
:func:`times_product` is the one kernel that multiplies orbit rows by
prod_j p(x_j): on its rows (the restricted-Schur check, and prod_j q(z_j)
itself as the product on the row 0^n, :func:`symfact.spectral.orbit_product`)
or at its strictly decreasing exponents (the Schur inverse separating map).
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from operator import add, ge, gt
from typing import Iterable, NamedTuple

from .partitions import Partition, dominance_leq
from .poly import (
    MultiPoly,
    NotSymmetric,
    Pair,
    PolyError,
    Scalar,
    UniPoly,
    _reduce,
    accumulate,
    default_names,
)

BASIS_TAGS = ("m", "E", "s")


class NormalizedBasisPoly(NamedTuple):
    """A basis polynomial and its normalized form, of value 1 at (1,...,1)."""

    raw: MultiPoly
    normalized: MultiPoly


def elementary_value(values: Iterable[int], j: int) -> int:
    """e_j(values), by the recurrence e_k(a_1..a_i) = e_k(a_1..a_(i-1)) + a_i e_(k-1)(a_1..a_(i-1))."""
    if j < 0:
        raise PolyError(f"need j >= 0, got j={j}")
    e = [1] + [0] * j
    for a in values:
        if a:
            for k in range(j, 0, -1):
                e[k] += a * e[k - 1]
    return e[j]


def vandermonde_value(values: Iterable[Scalar]) -> Scalar:
    """prod_{i<j} (v_i - v_j): the Vandermonde at one point."""
    return math.prod(a - b for a, b in itertools.combinations(values, 2))


@lru_cache(maxsize=None)
def _signed_permutations(m: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Every permutation w of range(m) with its sign (-1)^inversions."""
    return tuple(
        (w, -1 if sum(a > b for a, b in itertools.combinations(w, 2)) % 2 else 1)
        for w in itertools.permutations(range(m))
    )


def alternant(mu: tuple[int, ...], n: int) -> MultiPoly:
    """det{x_i^(mu_j)}, written as its permutation sum.

    a_mu = sum over permutations w of sign(w) prod_j x_w(j)^(mu_j)
    (Macdonald, Symmetric Functions and Hall Polynomials, I §3); a repeated
    exponent makes the terms cancel to zero.  The n! signs are summed as
    ints, once mu is checked.
    """
    if len(mu) != n:
        raise PolyError("exponent vector length must equal n")
    if any(type(e) is not int or e < 0 for e in mu):
        raise PolyError(f"exponent {tuple(mu)} must hold non-negative ints")
    terms = []
    for w, sign in _signed_permutations(n):
        exp = [0] * n
        for j, i in enumerate(w):  # x_w(j) carries mu_j
            exp[i] = mu[j]
        terms.append((tuple(exp), sign))
    return MultiPoly._make(n, accumulate({}, terms), 1, default_names("x", n))


@lru_cache(maxsize=None)
def vandermonde(n: int) -> MultiPoly:
    """prod_{i<j} (x_i - x_j), the staircase alternant a_delta, delta = (n-1, ..., 0)."""
    return alternant(tuple(range(n - 1, -1, -1)), n)


@lru_cache(maxsize=None)
def _schur_rows(parts: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """The m-coordinate rows of s_parts(x_1..x_n), by the branching rule.

    s_lam(x_1..x_n) = sum over the mu interlacing lam (lam_1 >= mu_1 >=
    lam_2 >= ... >= mu_(n-1) >= lam_n) of s_mu(x_1..x_(n-1)) x_n^(|lam| - |mu|)
    (Macdonald, Symmetric Functions and Hall Polynomials, I (5.11)).  A
    partition exponent e + (t,) comes from a partition exponent e of s_mu,
    so only the rows of s_mu are read, and only those with e[-1] >= t.
    """
    if len(parts) == 1:
        return {parts: 1}
    weight = sum(parts)
    out: dict[tuple[int, ...], int] = {}
    for mu in itertools.product(*(range(b, a + 1) for a, b in zip(parts, parts[1:]))):
        t = weight - sum(mu)
        accumulate(out, ((e + (t,), c) for e, c in _schur_rows(mu).items() if e[-1] >= t))
    return out


def _times_elementary(rows: dict[tuple[int, ...], int], j: int) -> dict[tuple[int, ...], int]:
    """e_j times the symmetric polynomial whose m-coordinate rows are ``rows``, in m-coordinate rows.

    e_j m_nu raises r_b parts in each block b of nu's equal parts v_b, with
    sum_b r_b = j and r_b <= |b|.  Raising the first r_b parts of each block
    gives a partition kappa, a different one for each choice, and x^kappa is
    reached from the monomials of m_nu in prod_b C(mult_kappa(v_b + 1), r_b)
    ways: the r_b slots of value v_b + 1 in kappa that were raised.
    """
    out: dict[tuple[int, ...], int] = {}
    for nu, c in rows.items():
        blocks = [(v, len(list(g))) for v, g in itertools.groupby(nu)]
        for r in itertools.product(*(range(min(size, j) + 1) for _, size in blocks)):
            if sum(r) == j:
                kappa = sum(((v + 1,) * k + (v,) * (size - k) for (v, size), k in zip(blocks, r)), ())
                w = math.prod(math.comb(kappa.count(v + 1), k) for (v, _), k in zip(blocks, r))
                accumulate(out, ((kappa, c * w),))
    return out


def times_vandermonde(o: OrbitForm) -> MultiPoly:
    """a_delta * f at its strictly decreasing exponents, for the f symmetric in every slot of o.

    An antisymmetric polynomial is fixed by those coefficients (Macdonald,
    Symmetric Functions and Hall Polynomials, I §3).  a_delta * m_nu is the
    sum of a_(alpha + delta) over the orbit of nu, and a_beta is zero when
    beta repeats an entry and sign(w) a_(w beta) for the w sorting beta
    into decreasing order, whose only strictly decreasing term is x^(w beta).
    """
    n = len(o.names)
    if o.k != n:
        raise PolyError(f"need an orbit form over all {n} slots, got k={o.k}")
    delta = range(n - 1, -1, -1)
    terms = []
    for nu, c in o.num.items():
        for alpha in _orbit(nu):
            beta = tuple(map(add, alpha, delta))
            if len(set(beta)) == n:
                inversions = sum(a < b for a, b in itertools.combinations(beta, 2))
                terms.append((tuple(sorted(beta, reverse=True)), -c if inversions % 2 else c))
    return MultiPoly._make(n, accumulate({}, terms), o.den, o.names)


@lru_cache(maxsize=None)
def _feasible_orbit(e: tuple[int, ...], top: int, step: int) -> tuple[tuple[int, ...], ...]:
    """The permutations p of e that some b in [0, top]^n makes into a p + b whose entries fall by at least step.

    That is p_j + step j <= p_i + step i + top for every i < j: one pass
    with the running minimum of p_i + step i.
    """
    out = []
    for p in _orbit(e):
        low = math.inf
        for j, a in enumerate(p):
            if a + step * j > low + top:
                break
            low = min(low, a + step * j)
        else:
            out.append(p)
    return tuple(out)


def times_product(o: OrbitForm, p: UniPoly, step: int) -> Pair:
    """f * prod_j p(x_j) at its exponents whose entries fall by at least step, for the f symmetric in every slot of o.

    Step 0 gives the orbit rows of that symmetric product, step 1 its
    strictly decreasing coefficients.  Each row of f is spread only over the
    permutations that some degrees of p can lift to such an exponent; then
    p is multiplied in one slot at a time, slot k taking only the degrees b
    with e_k + b <= e_(k-1) - step.  Returns the (numerators, denominator)
    pair.
    """
    n = len(o.names)
    if o.k != n:
        raise PolyError(f"need an orbit form over all {n} slots, got k={o.k}")
    factor = sorted((b, c) for (b,), c in p.poly.num.items())
    degrees = [b for b, _ in factor]
    below = [factor[:i] for i in range(len(factor) + 1)]  # the terms of p below each cut
    num = {q: c for e, c in o.num.items() for q in _feasible_orbit(e, p.degree, step)}
    for k in range(n):
        num = accumulate(
            {},
            (
                (e[:k] + (e[k] + b,) + e[k + 1 :], c * w)
                for e, c in num.items()
                for b, w in (factor if k == 0 else below[bisect_right(degrees, e[k - 1] - step - e[k])])
            ),
        )
    return num, o.den * p.poly.den**n


def restricted_schur(lam: Partition, k: int) -> tuple[MultiPoly, int]:
    """Numerator and denominator of the Schur restriction x_k = ... = x_n = 1.

    The numerator is a mixed determinant: k-1 rows x_i^(mu_j) of powers of
    the free variables, then the rows mu_j^e, e = n-k..0, of descending
    powers of the shifted parts mu.  It is antisymmetric in x_1..x_(k-1),
    so only its strictly decreasing coefficients are returned.  By the
    Laplace expansion along the constant rows (Macdonald, Symmetric
    Functions and Hall Polynomials, I §3) it is a sum over the sets S of
    n-k+1 columns of (-1)^(sum of those rows and columns) V(mu_S) times the
    alternant of the monomial rows on the other columns, whose one strictly
    decreasing term is x^(mu off S).  The denominator is the closed-form
    product without its Vandermonde, c prod_(j=1..k-1) (x_j - 1)^(n-k+1)
    with c = prod_(i=1..n-k) i!, and only c is returned: the numerator is
    :func:`times_vandermonde` of the denominator times the Schur polynomial
    with its last n-k+1 arguments set to 1.  For k <= 2 every exponent is
    strictly decreasing, and the plain ratio is that Schur polynomial.
    """
    n = lam.n
    if not 1 <= k <= n:
        raise PolyError(f"need 1 <= k <= n, got k={k}")
    mu = lam.shifted()
    arity = k - 1
    row_sum = sum(range(arity, n))
    num = {
        tuple(mu[j] for j in range(n) if j not in cols): (-1) ** (row_sum + sum(cols))
        * vandermonde_value(mu[j] for j in cols)
        for cols in itertools.combinations(range(n), n - arity)
    }
    c = math.prod(math.factorial(i) for i in range(1, n - k + 1))
    return MultiPoly._wrap(arity, num, 1, default_names("x", arity)), c


def combine(basis: str, n: int, coeffs: dict[Partition, Fraction]) -> MultiPoly:
    """sum_lam c_lam b_lam over the raw basis elements in n variables.

    The inverse of :func:`expand_in_basis`.  The sum runs on the integer
    :func:`m_coordinates` of the b_lam, over the common denominator of the
    c_lam, and each m-coordinate is spread over its orbit once, at the end.
    """
    if any(lam.n != n for lam in coeffs):
        raise PolyError(f"every partition must have length n={n}")
    den = math.lcm(*(c.denominator for c in coeffs.values()))
    out: dict[tuple[int, ...], int] = {}
    for lam, c in coeffs.items():
        scale = c.numerator * (den // c.denominator)
        accumulate(out, ((e, scale * b) for e, b in m_coordinates(basis, lam).items()))
    return OrbitForm(n, *_reduce(out, den), default_names("x", n)).to_poly()


def _is_partition(exp: tuple[int, ...]) -> bool:
    return all(map(ge, exp, exp[1:]))


def is_strict(exp: tuple[int, ...]) -> bool:
    """Whether the exponent is strictly decreasing: the exponents an antisymmetric polynomial is read at."""
    return all(map(gt, exp, exp[1:]))


@lru_cache(maxsize=None)
def _orbit(mu: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The distinct permutations of the partition mu: the monomials of m_mu.

    Each distinct part leads once, followed by the orbit of the rest, which
    is again a partition; so the work grows with the orbit's size, not with
    len(mu)!.
    """
    if len(mu) <= 1:
        return (mu,)
    return tuple(
        (a,) + p
        for i, a in enumerate(mu)
        if not i or mu[i - 1] != a
        for p in _orbit(mu[:i] + mu[i + 1 :])
    )


class OrbitForm(NamedTuple):
    """A polynomial symmetric in its first k (head) slots, in m-coordinates.

    Only the exponents whose head is weakly decreasing are kept: num[mu + t]
    / den is the coefficient of m_mu(head) * t, so each head orbit is one row
    instead of up to k! monomials.  ``names`` are the slots of the whole
    polynomial.  :meth:`of` checks the symmetry once, where a polynomial
    enters; ``num`` is never mutated, and the pair is reduced whenever the
    whole polynomial's is.

    ``z`` is None, or the number of last slots that make up a separation
    route's z block: the z slots the route has made so far, in which the
    polynomial is symmetric too, so only the exponents whose block is
    weakly decreasing are kept.  A route starts with an empty block
    (:meth:`z_block`), and each step that makes a z slot adds it to the block
    (:meth:`grown`); a form whose ``z`` is None gets its new z slots whole.
    """

    k: int
    num: dict[tuple[int, ...], int]
    den: int
    names: tuple[str, ...]
    z: int | None = None

    @classmethod
    def of(cls, f: MultiPoly, k: int | None = None) -> "OrbitForm":
        """f in m-coordinates over its first k slots (default all); f must be symmetric there."""
        k = f.arity if k is None else k
        if not 0 <= k <= f.arity:
            raise PolyError(f"need 0 <= k <= arity, got k={k}, arity={f.arity}")
        if not f.is_symmetric(k):
            raise NotSymmetric(
                f"input is not symmetric in its first {k} of {f.arity} slots:"
                f" exponent {list(f.asymmetric_exponent(k))} and a swap of it have different coefficients"
            )
        return cls(k, {e: c for e, c in f.num.items() if _is_partition(e[:k])}, f.den, f.names)

    def z_block(self) -> "OrbitForm":
        """The same rows as a separation route's start: with an empty z block."""
        return self._replace(z=0)

    def grown(self) -> int | None:
        """``z`` after a step that makes one z slot: the block gains it, if there is one."""
        return None if self.z is None else self.z + 1

    def to_poly(self) -> MultiPoly:
        """The whole polynomial: each row spread over its head orbit and its z block's."""
        k, z = self.k, self.z or 0
        num = self.num
        if k > 1 or z > 1:  # an orbit of one slot or none is the row itself
            b = len(self.names) - z
            num = {p + e[k:b] + t: c for e, c in num.items() for p in _orbit(e[:k]) for t in _orbit(e[b:])}
        return MultiPoly._wrap(len(self.names), num, self.den, self.names)


@lru_cache(maxsize=None)
def m_coordinates(basis: str, lam: Partition) -> dict[tuple[int, ...], int]:
    """The raw b_lam over the m basis: its integer coefficients at partition exponents.

    This table is the definition of b_lam.  m: the one row lam.  E: the rows
    of prod_j e_j^(lam_j - lam_(j+1)), one e_j at a time from the row 0^n.
    s: the branching rule, kept at partition exponents.
    """
    if basis == "m":
        return {lam.parts: 1}
    if basis == "E":
        rows = {(0,) * lam.n: 1}
        for j, mult in enumerate(lam.steps(), start=1):
            for _ in range(mult):
                rows = _times_elementary(rows, j)
        return rows
    if basis == "s":
        return _schur_rows(lam.parts)
    raise PolyError(f"unknown basis tag {basis!r}")


@lru_cache(maxsize=None)
def value_at_one(basis: str, lam: Partition) -> Fraction:
    """b_lam(1..1) in closed form: the orbit size n!/prod mult! (m), prod_j C(n,j)^(lam_j - lam_(j+1)) (E), V(mu)/V(delta) (s).

    For s, V(mu)/V(delta) = prod_(i<j) (mu_i - mu_j)/(j - i), mu = lam + delta.
    """
    n = lam.n
    if basis == "m":
        return Fraction(math.factorial(n) // math.prod(math.factorial(len(list(g))) for _, g in itertools.groupby(lam.parts)))
    if basis == "E":
        return Fraction(math.prod(math.comb(n, j) ** mult for j, mult in enumerate(lam.steps(), start=1)))
    if basis == "s":
        return Fraction(vandermonde_value(lam.shifted()), vandermonde_value(range(n - 1, -1, -1)))
    raise PolyError(f"unknown basis tag {basis!r}")


@lru_cache(maxsize=None)
def basis_poly(basis: str, lam: Partition) -> NormalizedBasisPoly:
    """The whole b_lam(x_1..x_n), its :func:`m_coordinates` spread over their orbits, and b_lam over its :func:`value_at_one`."""
    raw = OrbitForm(lam.n, m_coordinates(basis, lam), 1, default_names("x", lam.n)).to_poly()
    return NormalizedBasisPoly(raw, raw * (1 / value_at_one(basis, lam)))


def schur_poly(lam: Partition) -> NormalizedBasisPoly:
    """The whole Schur polynomial s_lam: :func:`basis_poly` on the s basis."""
    return basis_poly("s", lam)


def expand_orbits(o: OrbitForm, basis: str) -> dict[Partition, dict[tuple[int, ...], int]]:
    """Expand an orbit form over one basis in its head: {lam: tail numerators over o.den}.

    m: the rows themselves.  E and s: repeatedly strip the lex-greatest head
    partition, which pins the basis element (both bases are monic in lex
    order), subtracting that element's m-coordinates times its tail;
    dominance triangularity makes this terminate.  The basis elements have
    integer coefficients, so the reduction stays on integer numerators.
    """
    if basis not in BASIS_TAGS:
        raise PolyError(f"unknown basis tag {basis!r}")
    k = o.k
    work: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}
    for exp, c in o.num.items():
        work.setdefault(exp[:k], {})[exp[k:]] = c
    if basis == "m":
        return {Partition(head): tail for head, tail in work.items()}
    coeffs = {}
    while work:
        lead = max(work)
        tail = work.pop(lead)
        lam = Partition(lead)
        coeffs[lam] = tail
        for mu, hc in m_coordinates(basis, lam).items():
            if mu == lead:
                continue
            row = accumulate(work.setdefault(mu, {}), ((t, -hc * tc) for t, tc in tail.items()))
            if not row:
                del work[mu]
    return coeffs


def expand_in_basis(f: MultiPoly, basis: str) -> dict[Partition, Fraction]:
    """The coordinates c_lam of a symmetric f over one raw basis: f = sum_lam c_lam b_lam."""
    o = OrbitForm.of(f)
    return {lam: Fraction(tail[()], o.den) for lam, tail in expand_orbits(o, basis).items()}


def is_dominance_triangular(lam: Partition) -> bool:
    """Schur-in-m support lies weakly below lam with leading coefficient 1."""
    coeffs = m_coordinates("s", lam)
    return coeffs.get(lam.parts) == 1 and all(dominance_leq(Partition(nu), lam) for nu in coeffs)
