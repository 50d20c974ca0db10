"""Exact verification of the integral forms of the Schur-case operators.

The delta constraint prod x_i = z prod y_i is always eliminated analytically
(solve for the last variable, Jacobian 1/(x_1...x_{n-1})); what remains is a
Laurent-polynomial integrand over an interleaved domain.  The integrand is
antisymmetric, so no term integrates to a logarithm and the integral has a
closed form in exact rational arithmetic: at n = 1 the delta pins the one
variable, at n = 2 it is one interval, and at n = 3 an iterated integral
over the two pieces of the cell on either side of the hyperbola kink, where
the eliminated variable's bound starts to cap the inner range.  Every value
is a ``Fraction`` and is compared with its oracle by exact equality; inputs
are ints or Fractions, never floats or bools.

The delta integrals, the box integrals and the determinant identities run on
integer tables, as polynomial evaluation does.  A bound p/q gets one table
of p^(e-a) q^(b-e) over the exponents a..b a term needs, negative ones
included, so the integrals of x^e over an interval are ints over one
denominator carrying the LCM of the (e+1); each piece sums numerators times
table entries and builds one ``Fraction``.  The border identity scales
each column of its matrix to integers, which multiplies both sides by the
same factor, and takes every determinant by integer Bareiss elimination.

The integral form of the Q-operator can be normalized with its (z-1)^(n-1)
factor either multiplying or dividing, and only one choice reproduces the
eigenvalue polynomial; both are computed and the exact spectral oracle
adjudicates.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, NamedTuple

from . import qops_schur
from .bases import alternant, schur_poly, vandermonde, vandermonde_value
from .partitions import Partition
from .poly import InvariantViolation, MultiPoly, PolyError, Scalar, _contract, _scalar


def _as_fractions(values) -> tuple[Fraction, ...]:
    return tuple(_scalar(v) for v in values)


class OrderedDomain:
    """Interleaved domain 0 < y_1 < x_1 < y_2 < ... < x_{n-1} < y_n < x_n.

    The delta constraint fixes prod x_i = z prod y_i; the tail constraint is
    the literal x_n > y_n inequality (at n = 2 it is provably value-neutral,
    which the suite checks rather than assumes).
    """

    __slots__ = ("y", "z", "tail_constraint")

    def __init__(self, y: tuple[Fraction, ...], z: Fraction, tail_constraint: bool = True):
        if not y:
            raise PolyError("the domain needs at least one bound")
        if any(type(v) is not Fraction for v in (*y, z)):
            raise PolyError("domain bounds and z must be Fractions")
        if any(b <= a for a, b in zip(y, y[1:])):
            raise PolyError("bounds must be strictly increasing")
        if y[0] <= 0:
            raise PolyError("bounds must be positive")
        if z <= 1:
            raise PolyError("the delta support requires z > 1")
        if len(y) > 3:
            raise PolyError("delta-constrained integrals are implemented for n <= 3")
        self.y = y
        self.z = z
        self.tail_constraint = tail_constraint

    @property
    def n(self) -> int:
        return len(self.y)

    def delta_value(self) -> Fraction:
        return self.z * math.prod(self.y)


class QuadratureResult(NamedTuple):
    """An exact integral and the number of integrand terms integrated in closed form."""

    value: Fraction
    evaluations: int


def _powers(v: Fraction, exps: set[int]) -> tuple[dict[int, int], int]:
    """v^e for each e in ``exps`` as int numerators over one denominator.

    With v = p/q, a = min(exps, 0) and b = max(exps, 0), v^e = p^(e-a)
    q^(b-e) / (p^(-a) q^b); a negative e needs v != 0.
    """
    span = {0, *exps}
    a, b = min(span), max(span)
    p, q = v.numerator, v.denominator
    return {e: p ** (e - a) * q ** (b - e) for e in exps}, p**-a * q**b


def _integrals(lo: Fraction, hi: Fraction, exps: Iterable[int]) -> tuple[dict[int, int], int]:
    """The integrals of x^e over (lo, hi), e in ``exps`` and never -1, as ints over one denominator.

    (hi^(e+1) - lo^(e+1)) / (e+1) on the power tables of both bounds; the
    denominator carries the LCM of the (e+1).  A negative e needs 0 < lo.
    """
    fs = {e + 1 for e in exps}
    top, top_den = _powers(hi, fs)
    bot, bot_den = _powers(lo, fs)
    m = math.lcm(*fs)
    return {f - 1: (top[f] * bot_den - bot[f] * top_den) * (m // f) for f in fs}, m * top_den * bot_den


def _check_no_logarithm(p: MultiPoly, pairs: list[tuple[int, int]], route: str) -> None:
    """Raise if some term's exponent has equal entries at one of the slot pairs.

    After the delta is eliminated, such a term's power of one variable is
    -1, whose antiderivative is a logarithm; an antisymmetric integrand has
    none.
    """
    for exp in p.num:
        if any(exp[i] == exp[j] for i, j in pairs):
            raise InvariantViolation(
                f"{route} n={p.arity}: term with exponent {list(exp)} would integrate to a logarithm"
            )


def _exact_delta_integral_2d(p: MultiPoly, c: Fraction, lo: Fraction, hi: Fraction) -> Fraction:
    """Integral over (lo, hi) of p(x, c/x) / x for an antisymmetric p.

    Each term x^a y^b contributes c^b x^(a-b-1); antisymmetry rules out
    a = b, so every antiderivative is a pure power and no logarithms occur.
    """
    if p.arity != 2:
        raise PolyError("need a two-variable polynomial")
    _check_no_logarithm(p, [(0, 1)], "delta-constrained integral, one interval")
    num = p.num
    c_pow, c_den = _powers(c, {b for _, b in num})
    ints, den = _integrals(lo, hi, {a - b - 1 for a, b in num})
    total = sum(k * c_pow[b] * ints[a - b - 1] for (a, b), k in num.items())
    return Fraction(total, p.den * c_den * den)


def _exact_delta_integral_3d(
    p: MultiPoly,
    c: Fraction,
    outer: tuple[Fraction, Fraction],
    inner: tuple[Fraction, Fraction],
    tail_bound: Fraction | None,
) -> Fraction:
    """Integral of p(x1, x2, c/(x1 x2)) / (x1 x2) over an interleaved cell, exactly.

    Domain: outer[0] < x1 < outer[1], inner[0] < x2 < inner[1], and (when
    ``tail_bound`` is given) the eliminated variable above it, i.e.
    x1 x2 < cap = c / tail_bound.  The x1 range is split at the hyperbola
    kink x1 = cap / inner[1]: below it x2 spans the inner range, above it x2
    stops at cap / x1.  A term x1^a x2^b x3^d becomes c^d x1^(a-d-1)
    x2^(b-d-1), and on the capped piece its inner integral leaves powers
    x1^(a-b-1) and x1^(a-d-1).  Antisymmetry rules out a = d, b = d and
    a = b, so every antiderivative is a pure power and no logarithms occur.
    """
    if p.arity != 3:
        raise PolyError("need a three-variable polynomial")
    a1, b1 = outer
    a2, b2 = inner
    if tail_bound is None:
        pieces = [(a1, b1, None)]
    else:
        cap = c / tail_bound
        hi1 = min(b1, cap / a2)
        kink = cap / b2
        pieces = [(a1, min(hi1, kink), None), (max(a1, kink), hi1, cap)]
    pieces = [piece for piece in pieces if piece[0] < piece[1]]
    for _, _, cap in pieces:
        if cap is None:
            _check_no_logarithm(p, [(0, 2), (1, 2)], "delta-constrained integral, uncapped piece")
        else:
            _check_no_logarithm(p, [(0, 2), (1, 2), (0, 1)], "delta-constrained integral, capped piece")
    num = p.num
    c_pow, c_den = _powers(c, {d for _, _, d in num})
    terms = [(a - d - 1, b - d, k * c_pow[d]) for (a, b, d), k in num.items()]  # (e1, f2, coefficient)
    total = Fraction(0)
    for lo, hi, cap in pieces:
        if cap is None:  # x2 over the whole inner range
            i1, d1 = _integrals(lo, hi, {e1 for e1, _, _ in terms})
            i2, d2 = _integrals(a2, b2, {f2 - 1 for _, f2, _ in terms})
            value = sum(k * i1[e1] * i2[f2 - 1] for e1, f2, k in terms)
        else:  # x2 from a2 up to cap / x1: (cap^f2 x1^(e1-f2) - a2^f2 x1^e1) / f2
            fs = {f2 for _, f2, _ in terms}
            i1, d1 = _integrals(lo, hi, {e1 for e1, _, _ in terms} | {e1 - f2 for e1, f2, _ in terms})
            up, up_den = _powers(cap, fs)
            down, down_den = _powers(a2, fs)
            m = math.lcm(*fs)
            value = sum(
                k * (up[f2] * down_den * i1[e1 - f2] - down[f2] * up_den * i1[e1]) * (m // f2)
                for e1, f2, k in terms
            )
            d2 = up_den * down_den * m
        total += Fraction(value, p.den * c_den * d1 * d2)
    return total


def box_integral(p: MultiPoly, bounds: list[tuple[Fraction, Fraction]]) -> Fraction:
    """Exact iterated integral of a polynomial over an axis-aligned box.

    Each slot's integrals of x^e over its interval, e = 0..top, form one
    int table over one denominator, so the sum over the terms runs in ints.
    The bounds are ints or Fractions, checked before any term is read.
    """
    if len(bounds) != p.arity:
        raise PolyError("need one bound pair per slot")
    bounds = [(_scalar(lo), _scalar(hi)) for lo, hi in bounds]
    tables = []
    den = p.den
    for (lo, hi), top in zip(bounds, map(max, zip(*p.num))):
        table, table_den = _integrals(lo, hi, range(top + 1))
        tables.append(table)
        den *= table_den
    return Fraction(_contract(p.num, tables), den)


# -- Q_z integral ------------------------------------------------------------


def core_alternant_integral(lam: Partition, y, z) -> tuple[Fraction, Fraction, QuadratureResult]:
    """The prefactor-free heart of the Q_z theorem.

    Integrates the alternant of the shifted partition against the delta
    constraint over the interleaved domain; the exact right-hand side is
    alternant(y) * phi(z).  Returns (computed, oracle, result record).
    """
    dom = OrderedDomain(_as_fractions(y), _scalar(z))
    n = dom.n
    if lam.n != n:
        raise PolyError("partition length must match the number of bounds")
    a_mu = alternant(lam.shifted(), n)
    oracle = a_mu.eval(dom.y) * qops_schur.phi(lam).eval(dom.z)
    result = _delta_integral(a_mu, dom)
    return result.value, oracle, result


def _delta_integral(p: MultiPoly, dom: OrderedDomain) -> QuadratureResult:
    """Integrate an antisymmetric polynomial against the delta constraint, exactly."""
    n = dom.n
    c = dom.delta_value()
    y = dom.y
    if n == 1:  # the delta pins the single variable at c; nothing to integrate
        value = p.eval([c])
    elif n == 2:
        hi = min(y[1], c / y[1]) if dom.tail_constraint else y[1]
        value = _exact_delta_integral_2d(p, c, y[0], hi)
    else:  # n == 3, the largest domain OrderedDomain admits
        tail = y[2] if dom.tail_constraint else None
        value = _exact_delta_integral_3d(p, c, (y[0], y[1]), (y[1], y[2]), tail)
    return QuadratureResult(value, len(p.num))


class PrefactorAdjudication(NamedTuple):
    """Both prefactor conventions for the Q-operator integral, judged by the oracle.

    The position of the (z-1)^(n-1) factor names each convention:
    ``denominator`` is (n-1)! / ((z-1)^(n-1) Delta(y)), ``numerator`` is
    (n-1)! (z-1)^(n-1) / Delta(y).  A QuadratureResult comes last, as in
    every tuple an integral entry point returns.
    """

    oracle: Fraction
    convention: str
    denominator: QuadratureResult
    numerator: QuadratureResult


def integral_q(f: MultiPoly, z, y, tail_constraint: bool = True) -> PrefactorAdjudication:
    """Evaluate [Q_z f](y) by the delta-constrained integral, both conventions.

    The spectral operator supplies the exact oracle; exactly one prefactor
    convention must equal it (choose z != 2 so the two differ), otherwise
    the convention is ``ambiguous``.
    """
    dom = OrderedDomain(_as_fractions(y), _scalar(z), tail_constraint)
    n = dom.n
    if f.arity != n:
        raise PolyError("polynomial arity must match the number of bounds")
    spectral = qops_schur.apply_q(f)
    oracle = spectral.eval(list(dom.y) + [dom.z])
    raw = _delta_integral(vandermonde(n) * f, dom)
    base = Fraction(math.factorial(n - 1)) / vandermonde_value(dom.y)
    pole = (dom.z - 1) ** (n - 1)
    den = QuadratureResult(raw.value * base / pole, raw.evaluations)
    num = QuadratureResult(raw.value * base * pole, raw.evaluations)
    matches = (den.value == oracle, num.value == oracle)
    convention = {(True, False): "denominator", (False, True): "numerator"}.get(matches, "ambiguous")
    return PrefactorAdjudication(oracle, convention, den, num)


# -- A_k integral ------------------------------------------------------------


class IntegralCheck(NamedTuple):
    """One integral identity: its exact oracle, then the computed result."""

    oracle: Fraction
    computed: QuadratureResult


def integral_a(lam: Partition, k: int, z_k, ytilde) -> IntegralCheck:
    """The k-variable chain-link integral against the restriction identity.

    Input is the normalized Schur polynomial restricted to its first k
    variables; the oracle is the shorter restriction at the shifted bounds
    times the eigenvalue polynomial at z_k.  Domain: 1 < x_1 < ytilde_1 <
    ... < ytilde_{k-1} < x_k with prod x = z_k prod ytilde.
    """
    n = lam.n
    if not 1 <= k <= n:
        raise PolyError(f"need 1 <= k <= n, got k={k}")
    yt = _as_fractions(ytilde)
    if len(yt) != k - 1:
        raise PolyError("need k-1 interleaving bounds")
    dom = OrderedDomain((Fraction(1), *yt), _scalar(z_k))
    z = dom.z
    sbar = schur_poly(lam).normalized
    f = sbar.partial_eval({i: 1 for i in range(k, n)})
    oracle = sbar.eval(list(yt) + [1] * (n - k + 1)) * qops_schur.q_poly(lam).eval(z)

    prefactor = Fraction((-1) ** (k - 1) * math.factorial(n - 1), math.factorial(n - k))
    prefactor /= (z - 1) ** (n - 1)
    prefactor /= vandermonde_value(yt)
    for yj in yt:
        prefactor /= (yj - 1) ** (n - k + 1)

    integrand = vandermonde(k) * f
    for j in range(k):
        integrand = integrand * (MultiPoly.variable(j, k) - 1) ** (n - k)
    raw = _delta_integral(integrand, dom)
    return IntegralCheck(oracle, QuadratureResult(prefactor * raw.value, raw.evaluations))


# -- lifting integral ---------------------------------------------------------


def integral_q0prime(f: MultiPoly, y) -> tuple[Fraction, QuadratureResult]:
    """Plain interleaved-box integral for the variable-adding operator.

    No delta constraint here: the integrand is polynomial, each row
    integrates in closed form, and the result is exact.
    """
    yy = _as_fractions(y)
    n = len(yy)
    if f.arity != n - 1:
        raise PolyError("polynomial must have one slot fewer than the bounds")
    if any(b <= a for a, b in zip(yy, yy[1:])) or yy[0] <= 0:
        raise PolyError("bounds must be strictly increasing and positive")
    integrand = vandermonde(n - 1) * f
    raw = box_integral(integrand, [(yy[i], yy[i + 1]) for i in range(n - 1)])
    value = raw * (-1) ** (n - 1) * math.factorial(n - 1) / vandermonde_value(yy)
    return value, QuadratureResult(value, len(integrand.num))


# -- determinant identities ----------------------------------------------------


def det_int(matrix: list[list[int]]) -> int:
    """Exact determinant of an integer matrix by Bareiss elimination.

    Row pivoting skips zero pivots; every update divides exactly by the
    previous pivot, and the last pivot is the determinant.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise PolyError("matrix is not square")
    m = [list(row) for row in matrix]
    sign, prev = 1, 1
    for col in range(n - 1):
        if not m[col][col]:
            pivot = next((r for r in range(col + 1, n) if m[r][col]), None)
            if pivot is None:
                return 0
            m[col], m[pivot] = m[pivot], m[col]
            sign = -sign
        p, top = m[col][col], m[col]
        for row in m[col + 1 :]:
            a = row[col]
            for c in range(col + 1, n):
                row[c] = (row[c] * p - a * top[c]) // prev
        prev = p
    return sign * m[-1][-1] if n else 1


def matrix_identity_check(t: list[list[Scalar]]) -> bool:
    """Border identity at every column position k: difference determinant = (+-) bordered one.

    ``t`` has n >= 1 rows and n-1 columns (the k-th column of an n-column
    array deleted).  Left side: the (n-1) x (n-1) determinant of consecutive
    row differences, computed once.  Right side, for each k = 1..n:
    (-1)^(k-1) times the n x n determinant with a column of ones restored at
    position k.  Column j of t is scaled to integers by the LCM c_j of its
    denominators, which multiplies both sides by prod c_j, so every
    determinant is an integer one.
    """
    n = len(t)
    rows = [[_scalar(v) for v in row] for row in t]
    if not rows or any(len(row) != n - 1 for row in rows):
        raise PolyError("need n >= 1 rows and n-1 columns")
    scales = [math.lcm(*(v.denominator for v in col)) for col in zip(*rows)]
    ints = [[v.numerator * (s // v.denominator) for v, s in zip(row, scales)] for row in rows]
    lhs = det_int([[b - a for a, b in zip(r0, r1)] for r0, r1 in zip(ints, ints[1:])])
    return all(
        lhs == det_int([row[: k - 1] + [1] + row[k - 1 :] for row in ints]) * (-1) ** (k - 1)
        for k in range(1, n + 1)
    )


def delta_integration_identity(v: list[Scalar]) -> bool:
    """Iterated integral of a Vandermonde over an interleaved box.

    With m = len(v) - 1 integration variables u_i in (v_i, v_{i+1}), the
    integral of prod_{i<j} (u_i - u_j) equals (-1)^m / m! times the
    Vandermonde of the bounds.  With the bounds v_i = a_i / d over their
    common denominator, that right side is (-1)^m V(a) / (m! d^(m(m+1)/2)).
    """
    vv = _as_fractions(v)
    m = len(vv) - 1
    if m < 1:
        raise PolyError("need at least two bounds")
    lhs = box_integral(vandermonde(m), [(vv[i], vv[i + 1]) for i in range(m)])
    d = math.lcm(*(x.denominator for x in vv))
    a = [x.numerator * (d // x.denominator) for x in vv]
    rhs = Fraction((-1) ** m * vandermonde_value(a), math.factorial(m) * d ** (m * (m + 1) // 2))
    return lhs == rhs
