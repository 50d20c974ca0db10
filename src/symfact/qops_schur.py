"""Operators factorizing the Schur basis.

The eigenvalue polynomial of the Q-operator is (n-1)! phi(z) / (z-1)^(n-1),
where ``phi`` is the unique combination of the powers z^(mu_j) (mu the shifted
partition) divisible by (z-1)^(n-1) and normalized to value 1 at z = 1.
The Hamiltonians are Euler-operator polynomials conjugated by the
Vandermonde: ``apply_h`` scales the Schur coordinates of f by their
eigenvalues (``spectral.orbit_h``), so it never builds f a_delta.  The
separating map has an exact differential-operator inverse built from
K_n = prod_{i<j} (D_i - D_j), which ends on an antisymmetric polynomial; the
Vandermonde is read off its strictly decreasing coefficients in the Schur
basis, and ``separate_inverse`` computes only those coefficients, from the
orbit rows of its symmetric input (``orbit_separate_inverse``).  On a
symmetric input K_n is diagonal on orbits, so ``orbit_k`` reads its
strictly decreasing coefficients off the orbit rows.

H_j, Q, the separating map and the lift are the one orbit map of
``symfact.spectral`` (``orbit_h``, ``orbit_q``, ``orbit_separate``,
``lift``) on the s basis.  Independent routes kept as
cross-checks: ``q_via_restriction`` and ``q_via_restricted_determinant``
for q, and ``separate_inverse`` against ``separate``.  ``apply_h`` scales
by ``h_eigenvalue`` itself, so verify's eigenrelation check on s tests only
the Schur expansion and its m-coordinate table.  The tests check the
conjugation and the inverse against their whole routes at strictly
decreasing exponents: there ``bases.times_vandermonde`` of ``apply_h(f, j)``
must equal ``qops_monomial.apply_h(f a_delta, j)``, and that of
``separate_inverse(g)`` the scaled ``apply_k(g prod_k (x_k - 1)^(n-1))``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import mul

from . import spectral
from .bases import (
    OrbitForm,
    combine,
    elementary_value,
    is_strict,
    restricted_schur,
    schur_poly,
    times_product,
    value_at_one,
    vandermonde_value,
)
from .partitions import Partition
from .poly import (
    InvariantViolation,
    MultiPoly,
    NotDivisible,
    NotSymmetric,
    PolyError,
    UniPoly,
)


def _weights(mu: tuple[int, ...]) -> tuple[list[int], int]:
    """The c_j = prod_{k != j} (mu_j - mu_k)^(-1) of distinct mu, as int numerators over their LCM denominator."""
    spreads = [math.prod(m - other for other in mu if other != m) for m in mu]
    den = math.lcm(*spreads)
    return [den // s for s in spreads], den


@lru_cache(maxsize=None)
def phi(lam: Partition) -> UniPoly:
    """phi = sum_j c_j z^(mu_j) with c_j = prod_{k != j} (mu_j - mu_k)^(-1), verified.

    Verified on construction: the power sums sum_j mu_j^k c_j vanish for
    k = 0..n-2 and equal 1 at k = n-1, which is exactly divisibility of phi
    by (z-1)^(n-1) plus the normalization of the eigenvalue polynomial.
    The sums run on the weights' int numerators over their one denominator.
    """
    mu = lam.shifted()
    n = lam.n
    weights, den = _weights(mu)
    for k in range(n):
        if sum(m**k * w for m, w in zip(mu, weights)) != (den if k == n - 1 else 0):
            raise InvariantViolation(f"moment condition k={k} fails for {lam}")
    nums = [0] * (mu[0] + 1)
    for m, w in zip(mu, weights):
        nums[m] = w
    return UniPoly.over(nums, den)


@lru_cache(maxsize=None)
def _pole(n: int) -> UniPoly:
    """(z - 1)^(n-1): what q divides phi by, and the factor the inverse multiplies each slot by."""
    return UniPoly([-1, 1]) ** (n - 1)


@lru_cache(maxsize=None)
def q_poly(lam: Partition) -> UniPoly:
    """(n-1)! phi(z) / (z-1)^(n-1), an exact polynomial with q(1) = 1."""
    n = lam.n
    try:
        q = (phi(lam) * math.factorial(n - 1)).divide_exact(_pole(n))
    except NotDivisible as exc:
        raise InvariantViolation(f"phi for {lam} not divisible by (z-1)^(n-1)") from exc
    if q.eval(1) != 1:
        raise InvariantViolation(f"q(1) != 1 for {lam}")
    return q


def q_at_zero(lam: Partition) -> Fraction:
    """Closed form of q(0): zero unless the last part vanishes."""
    n = lam.n
    if lam.parts[-1] != 0:
        return Fraction(0)
    mu = lam.shifted()
    return Fraction(math.factorial(n - 1), math.prod(mu[:-1])) if n > 1 else Fraction(1)


def q_via_restriction(lam: Partition) -> UniPoly:
    """Oracle route: the normalized Schur polynomial at (z, 1, ..., 1)."""
    n = lam.n
    restricted = schur_poly(lam).normalized.partial_eval({i: 1 for i in range(1, n)})
    return UniPoly.of(restricted)


def q_via_restricted_determinant(lam: Partition) -> UniPoly:
    """Second oracle: the mixed-determinant restriction with k = 2."""
    num, c = restricted_schur(lam, 2)
    ratio = UniPoly.of(num).divide_exact(_pole(lam.n) * c)
    return ratio * (1 / value_at_one("s", lam))


def phi_ode_residual(lam: Partition) -> UniPoly:
    """Apply prod_j (z d/dz - mu_j) to phi; must vanish."""
    return spectral.euler_residual(phi(lam), lam.shifted())


def h_eigenvalue(lam: Partition, j: int) -> Fraction:
    """Eigenvalue of H_j on s_lam: e_j of the shifted parts mu."""
    if not 1 <= j <= lam.n:
        raise PolyError(f"need 1 <= j <= n, got j={j}")
    return Fraction(elementary_value(lam.shifted(), j))


Powers = tuple[list[tuple[int, ...]], int]


def z_powers(q: UniPoly, n: int) -> Powers:
    """Z^0 q .. Z^n q for Z = z (d/dz + (n-1)/(z-1)), as numerators over (z-1)^n, in ints over q's denominator.

    Z^m q is a numerator over (z-1)^m, and Z sends num / (z-1)^m to
    z (num' (z-1) + (n-1-m) num) / (z-1)^(m+1); so its numerator over
    (z-1)^n is that numerator times (z-1)^(n-m).  Each step is an integer
    map, so it runs on q's int numerators, and all n+1 share q's
    denominator.  Returns the columns by degree, column d holding the z^d
    numerators of Z^0 q .. Z^n q, with that one denominator.
    """
    z = UniPoly([0, 1])
    zm1 = _pole(2)
    nums = [UniPoly.of(MultiPoly._wrap(1, q.poly.num, 1, q.poly.names))]
    for m in range(n):
        num = nums[-1]
        nums.append(z * (num.derivative() * zm1 + num * (n - 1 - m)))
    rows = [(num * _pole(n - m + 1)).poly.num for m, num in enumerate(nums)]
    top = max((d for row in rows for (d,) in row), default=-1)
    return [tuple(row.get((d,), 0) for row in rows) for d in range(top + 1)], q.poly.den


def residual_of_powers(lam: Partition, powers: Powers) -> UniPoly:
    """Numerator of p(Z) q over (z-1)^n, p(t) = prod_j (t - mu_j) = t^n + sum_k (-1)^k h_k t^(n-k).

    Z = z (d/dz + (n-1)/(z-1)), ``powers`` are the :func:`z_powers` of q,
    mu are the shifted parts of lam and h_k, e_k of mu, its Hamiltonian
    eigenvalues.  A polynomial q satisfies lam's separated equation iff the
    returned numerator is the zero polynomial.  The powers depend on q and n
    only, so one table serves every lam of that n; each coefficient of the
    sum is p's int coefficients against one column of the table.
    """
    weights = [1]  # p's coefficients by degree, one factor t - mu_j at a time
    for m in lam.shifted():
        weights = [a - m * b for a, b in zip([0, *weights], [*weights, 0])]
    columns, den = powers
    return UniPoly.over([sum(map(mul, weights, col)) for col in columns], den)


def apply_h(f: MultiPoly, j: int) -> MultiPoly:
    """The Euler-operator elementary symmetric polynomial, conjugated by the Vandermonde.

    H_j scales x^a by e_j(a), so on s_lam * a_delta = a_(lam + delta) it is
    the scalar e_j(lam + delta) = :func:`h_eigenvalue`, and H_j is
    :func:`symfact.spectral.orbit_h` on the Schur basis.  f * a_delta is
    never built; a non-symmetric f raises InvariantViolation.
    """
    try:
        return spectral.orbit_h(OrbitForm.of(f), "s", h_eigenvalue, j).to_poly()
    except NotSymmetric as exc:
        raise InvariantViolation(
            f"conjugated Hamiltonian H_{j} [s] left the symmetric ring, n={f.arity}: {exc}"
        ) from exc


def apply_q(f: MultiPoly) -> MultiPoly:
    """Spectral Q on the Schur basis (:func:`symfact.spectral.orbit_q`), new z slot last."""
    return spectral.orbit_q(OrbitForm.of(f), "s", q_poly).to_poly()


def apply_k(f: MultiPoly) -> MultiPoly:
    """K_n = prod_{i<j} (D_i - D_j): scales x^a by prod_{i<j} (a_i - a_j)."""
    num = {e: c * w for e, c in f.num.items() if (w := vandermonde_value(e))}
    return MultiPoly._make(f.arity, num, f.den, f.names)


def orbit_k(o: OrbitForm) -> MultiPoly:
    """K_n of a symmetric polynomial at its strictly decreasing exponents, read off its orbit rows.

    K_n is diagonal on orbits: K_n m_nu = V(nu) a_nu for a strictly
    decreasing nu and 0 otherwise, and [x^nu] a_nu = 1, so these
    coefficients are V(nu) times the rows at nu; they determine the
    antisymmetric K_n f.
    """
    num = {e: vandermonde_value(e) * c for e, c in o.num.items() if is_strict(e)}
    return MultiPoly._make(len(o.names), num, o.den, o.names)


def separate(f: MultiPoly) -> MultiPoly:
    """Factorizing map: each Schur component contributes prod_j q(z_j) (:func:`symfact.spectral.orbit_separate`)."""
    return spectral.orbit_separate(OrbitForm.of(f), "s", q_poly).to_poly()


def separate_inverse(g: MultiPoly) -> MultiPoly:
    """Differential-operator inverse of the separating map.

    Multiply by prod_k (x_k - 1)^(n-1), apply K_n, which makes a symmetric
    polynomial antisymmetric, divide by the Vandermonde and scale by
    V(0..n-1) / ((n-1)!)^n; sends prod_j q_lam(x_j) back to the normalized
    Schur polynomial.  A g that is not symmetric is not in the image; a
    symmetric g goes to :func:`orbit_separate_inverse` as its orbit rows.
    """
    n = g.arity
    if n == 0:
        raise PolyError("the separating map needs at least one variable")
    try:
        o = OrbitForm.of(g)
    except NotSymmetric:
        raise InvariantViolation(
            f"separate_inverse [s], n={n}: input is not in the image of the separating map:"
            f" it is not symmetric at exponent {list(g.asymmetric_exponent())}"
        ) from None
    return orbit_separate_inverse(o)


def orbit_separate_inverse(o: OrbitForm) -> MultiPoly:
    """:func:`separate_inverse` of the polynomial whose orbit rows (over all its slots) are o.

    The quotient K_n h / a_delta, h = g prod_k (x_k - 1)^(n-1), is
    sum_mu V(mu) [x^mu]h s_(mu - delta) over the strictly decreasing mu
    (Macdonald, Symmetric Functions and Hall Polynomials, I §3), so only
    those coefficients of h are computed, by
    :func:`~symfact.bases.times_product` with step 1.
    """
    n = o.k
    num, den = times_product(o, _pole(n), 1)
    scale = Fraction(vandermonde_value(range(n)), den * math.factorial(n - 1) ** n)
    coeffs = {
        Partition(tuple(m - (n - 1 - i) for i, m in enumerate(mu))): vandermonde_value(mu) * c * scale
        for mu, c in num.items()
    }
    return combine("s", n, coeffs)


def lift(f: MultiPoly) -> MultiPoly:
    """Spectral lifting: each Schur component of length n-1 gains a zero part."""
    return spectral.lift(f, "s")
