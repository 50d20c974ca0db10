"""The MultiPoly kernel against sympy.Poly, an implementation that shares no code with it.

Arity 1-4, coefficients with denominators other than 1.  The UniPoly view
is checked against univariate sympy.Poly, schur_poly against sympy's own
cancellation of the bialternant, and the exact n = 2 and n = 3 delta integrals
against sympy's (iterated) integration.  Also the invariants every kernel result
keeps, which the trusted constructors do not check: the stored
(numerators, denominator) pair is reduced, with nonzero int numerators under
int exponent tuples of length ``arity`` over a positive denominator, and
``terms`` is exactly that pair as Fractions.  A pair left unreduced would
make equal polynomials compare unequal, so equality and hashing are checked
across routes that build the same polynomial.
"""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import alternant_sum, expand_with_tail, strict_part
from symfact import qops_elementary as qe
from symfact import qops_monomial as qm
from symfact import qops_schur as qs
from symfact import quadcheck as qc
from symfact import spectral
from symfact.bases import OrbitForm, basis_poly, restricted_schur, schur_poly, times_vandermonde, vandermonde
from symfact.partitions import Partition, enumerate_partitions
from symfact.poly import InvariantViolation, MultiPoly, UniPoly, default_names, tensor_sum
from symfact.verify import BASES

sympy = pytest.importorskip("sympy")

coefficients = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(2, 9))


@st.composite
def polys(draw, arity=None, max_terms=4, max_exp=3):
    a = arity if arity is not None else draw(st.integers(1, 4))
    exps = st.tuples(*[st.integers(0, max_exp)] * a)
    terms = draw(st.dictionaries(exps, coefficients, max_size=max_terms))
    return MultiPoly(a, terms)


@st.composite
def poly_pairs(draw, max_terms=4, max_exp=3):
    a = draw(st.integers(1, 4))
    return draw(polys(a, max_terms, max_exp)), draw(polys(a, max_terms, max_exp))


def gens(arity):
    return sympy.symbols(f"x1:{arity + 1}")


def rational(c: Fraction):
    return sympy.Rational(c.numerator, c.denominator)


def to_expr(f: MultiPoly):
    xs = gens(f.arity)
    return sympy.Add(
        *(rational(c) * sympy.Mul(*(x**e for x, e in zip(xs, exp))) for exp, c in f.terms.items())
    )


def terms_of(expr, symbols) -> dict:
    """The nonzero coefficients of a sympy expression as {exponent: Fraction}."""
    expr = sympy.expand(expr)
    if not symbols:
        return {(): Fraction(int(expr.p), int(expr.q))} if expr != 0 else {}
    poly = sympy.Poly(expr, *symbols, domain=sympy.QQ)
    return {
        tuple(exp): Fraction(int(c.numerator), int(c.denominator))
        for exp, c in poly.terms()
        if c != 0
    }


def assert_kernel_terms(f: MultiPoly):
    assert isinstance(f, MultiPoly)
    assert len(f.names) == f.arity
    assert type(f.den) is int and f.den > 0
    assert math.gcd(f.den, *f.num.values()) == 1  # reduced; zero is ({}, 1)
    for exp, c in f.num.items():
        assert type(exp) is tuple and len(exp) == f.arity
        assert all(type(e) is int and e >= 0 for e in exp)
        assert type(c) is int and c != 0
    assert f.terms == {e: Fraction(c, f.den) for e, c in f.num.items()}
    assert all(type(c) is Fraction for c in f.terms.values())


class TestAgainstSympy:
    @given(poly_pairs())
    def test_add_sub_mul(self, pair):
        f, g = pair
        xs = gens(f.arity)
        assert (f + g).terms == terms_of(to_expr(f) + to_expr(g), xs)
        assert (f - g).terms == terms_of(to_expr(f) - to_expr(g), xs)
        assert (f * g).terms == terms_of(to_expr(f) * to_expr(g), xs)

    @given(st.lists(st.tuples(polys(2, 3, 2), polys(1, 3, 2)), min_size=1, max_size=3))
    def test_tensor_sum(self, groups):
        # sum_g a_g(x1, x2) * b_g(x3): the b factor's slot is renamed to x3
        x1, x3 = gens(1)[0], gens(3)[2]
        expr = sympy.Add(*(to_expr(a) * to_expr(b).xreplace({x1: x3}) for a, b in groups))
        num, den = tensor_sum(((a.num, a.den), (b.num, b.den)) for a, b in groups)
        assert den > 0 and math.gcd(den, *num.values()) == 1
        assert {e: Fraction(c, den) for e, c in num.items()} == terms_of(expr, gens(3))

    @given(poly_pairs(max_terms=3, max_exp=2))
    def test_divide_exact_by_a_factor(self, pair):
        f, g = pair
        if g.is_zero:
            return
        product = f * g
        xs = gens(f.arity)
        quot, rem = sympy.div(
            sympy.Poly(to_expr(product), *xs, domain=sympy.QQ),
            sympy.Poly(to_expr(g), *xs, domain=sympy.QQ),
        )
        assert rem.is_zero
        assert product.divide_exact(g).terms == terms_of(quot.as_expr(), xs) == f.terms

    @given(
        polys(),
        st.data(),
        st.sampled_from([Fraction(0), Fraction(1), Fraction(-2, 3), Fraction(5, 2), Fraction(3)]),
    )
    def test_partial_eval(self, f, data, value):
        slots = data.draw(st.sets(st.integers(0, f.arity - 1), min_size=1))
        values = {s: value if i % 2 == 0 else Fraction(1) for i, s in enumerate(sorted(slots))}
        xs = gens(f.arity)
        expr = to_expr(f).subs({xs[s]: rational(v) for s, v in values.items()})
        kept = [x for i, x in enumerate(xs) if i not in values]
        assert f.partial_eval(values).terms == terms_of(expr, kept)

    @given(polys(), st.data())
    def test_permute(self, f, data):
        perm = data.draw(st.permutations(range(f.arity)))
        xs = gens(f.arity)
        expr = to_expr(f).xreplace({xs[i]: xs[p] for i, p in enumerate(perm)})
        assert f.permute(perm).terms == terms_of(expr, xs)

    @given(polys(max_terms=3, max_exp=2), st.data())
    def test_is_symmetric(self, f, data):
        k = data.draw(st.integers(0, f.arity))
        xs = gens(f.arity)
        expr = sympy.expand(to_expr(f))

        def symmetric_in_head(e):
            return all(
                sympy.expand(e.xreplace({xs[i]: xs[i + 1], xs[i + 1]: xs[i]}) - e) == 0
                for i in range(k - 1)
            )

        assert f.is_symmetric(k) == symmetric_in_head(expr)
        # the symmetrization over the head slots, built by sympy, is symmetric
        sym = sympy.Add(
            *(
                expr.xreplace(dict(zip(xs[:k], [xs[i] for i in p])))
                for p in itertools.permutations(range(k))
            )
        )
        assert MultiPoly(f.arity, terms_of(sym, xs)).is_symmetric(k)


rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))


def as_fraction(value) -> Fraction:
    assert value.is_Rational
    return Fraction(int(value.p), int(value.q))


class TestEvaluationAgainstSympy:
    """eval on integer power tables and box_integral against sympy's subs and integrate."""

    @given(polys(), st.data())
    def test_eval_is_substitution(self, f, data):
        point = data.draw(st.lists(rationals, min_size=f.arity, max_size=f.arity))
        xs = gens(f.arity)
        want = to_expr(f).subs({x: rational(v) for x, v in zip(xs, point)})
        assert f.eval(point) == as_fraction(want)

    @pytest.mark.parametrize(
        "f, point",
        [
            (MultiPoly(0, {(): Fraction(-3, 7)}), ()),
            (MultiPoly.zero(0), ()),
            (MultiPoly.zero(2), (Fraction(1, 2), -3)),
            # a coordinate equal to 0, and a second slot whose top exponent is 0
            (MultiPoly(2, {(2, 0): 1, (1, 0): Fraction(-1, 3), (0, 0): 4}), (0, Fraction(5, 2))),
            (MultiPoly(2, {(2, 0): 1, (1, 0): Fraction(-1, 3)}), (Fraction(3, 4), 0)),
            # negative coordinates; the last slot's top exponent is 0
            (MultiPoly(3, {(1, 2, 0): Fraction(2, 3), (0, 1, 0): 5, (3, 0, 0): -1}), (Fraction(-2, 3), Fraction(-7, 5), 4)),
        ],
        ids=["arity-0", "zero-arity-0", "zero", "zero-coordinate", "zero-at-unused-slot", "negative"],
    )
    def test_eval_edge_cases(self, f, point):
        xs = gens(f.arity)
        want = to_expr(f).subs({x: rational(Fraction(v)) for x, v in zip(xs, point)})
        got = f.eval(point)
        assert type(got) is Fraction and got == as_fraction(want)

    @settings(max_examples=30)
    @given(polys(max_terms=3, max_exp=3), st.data())
    def test_box_integral_is_iterated_integration(self, f, data):
        bounds = [
            tuple(sorted(data.draw(st.lists(rationals, min_size=2, max_size=2, unique=True))))
            for _ in range(f.arity)
        ]
        want = to_expr(f)
        for x, (lo, hi) in zip(gens(f.arity), bounds):
            want = sympy.integrate(want, (x, rational(lo), rational(hi)))
        got = qc.box_integral(f, bounds)
        assert type(got) is Fraction and got == as_fraction(want)


def mixed_matrix_det(lam: Partition, k: int):
    """sympy's determinant of restricted_schur's matrix: k-1 rows x_i^(mu_j), then mu_j^e for e = n-k..0."""
    mu, n = lam.shifted(), lam.n
    xs = gens(k - 1)
    rows = [[xs[i] ** m for m in mu] for i in range(k - 1)]
    rows += [[sympy.Integer(m) ** e for m in mu] for e in range(n - k, -1, -1)]
    return sympy.Matrix(rows).det(method="berkowitz"), xs


class TestRestrictedSchurAgainstSympy:
    @settings(max_examples=40)
    @given(st.data())
    def test_laplace_sum_is_the_mixed_determinant(self, data):
        n = data.draw(st.integers(1, 5))
        lam = data.draw(st.sampled_from(enumerate_partitions(4, n)))
        k = data.draw(st.integers(1, n))
        num, _ = restricted_schur(lam, k)
        assert_kernel_terms(num)
        want, xs = mixed_matrix_det(lam, k)
        # num holds the strictly decreasing coefficients, and they fix the whole determinant
        want = MultiPoly(k - 1, terms_of(want, xs))
        assert num.terms == strict_part(want).terms
        assert alternant_sum(num) == want


uni_coefficients = st.lists(st.just(Fraction(0)) | coefficients, max_size=5)


class TestUniPolyAgainstSympy:
    z = sympy.symbols("z")

    def expr(self, coeffs):
        return sympy.Add(*(rational(c) * self.z**d for d, c in enumerate(coeffs)))

    def assert_same(self, p: UniPoly, expr):
        """p's dense coefficients are those of the sympy expression in z."""
        poly = sympy.Poly(expr, self.z, domain=sympy.QQ)
        expected = [Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())]
        assert p.coeffs == (tuple(expected) if not poly.is_zero else ())

    @given(uni_coefficients, uni_coefficients)
    def test_add_mul_divide_exact(self, a, b):
        f, g = UniPoly(a), UniPoly(b)
        self.assert_same(f + g, self.expr(a) + self.expr(b))
        self.assert_same(f * g, self.expr(a) * self.expr(b))
        if not g.is_zero:
            quot, rem = sympy.div(self.expr(a) * self.expr(b), self.expr(b), self.z)
            assert rem == 0
            self.assert_same((f * g).divide_exact(g), quot)

    @given(uni_coefficients, st.just(Fraction(0)) | st.just(Fraction(1)) | coefficients)
    def test_derivative_euler_eval(self, a, x):
        f = UniPoly(a)
        self.assert_same(f, self.expr(a))
        self.assert_same(f.derivative(), sympy.diff(self.expr(a), self.z))
        self.assert_same(f.euler(), self.z * sympy.diff(self.expr(a), self.z))
        assert rational(f.eval(x)) == self.expr(a).subs(self.z, rational(x))


class TestSchurAgainstBialternant:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_schur_poly_is_sympys_cancelled_bialternant(self, n):
        xs = gens(n)
        vandermonde = sympy.Mul(*(xs[i] - xs[j] for i in range(n) for j in range(i + 1, n)))
        for lam in enumerate_partitions(4, n):
            mu = lam.shifted()
            alternant = sympy.Matrix(n, n, lambda i, j: xs[i] ** mu[j]).det(method="berkowitz")
            assert schur_poly(lam).raw.terms == terms_of(sympy.cancel(alternant / vandermonde), xs)


@st.composite
def delta_cells(draw, regime):
    """(c, outer, inner, tail_bound): outer below inner, the cap c / tail_bound placed by regime.

    The cap x1 x2 < c / tail_bound passes the cell's corner (a1, b2) at
    a1 b2 and its top corner at b1 b2: a cap between a1 a2 and a1 b2 leaves
    only the capped piece, one between a1 b2 and b1 b2 gives both pieces,
    and one above b1 b2 only the uncapped piece.  A gap between the ranges
    and a tail bound other than b2 matter: on an interleaved cell (b1 = a2,
    tail bound b2) a misplaced kink or x1 bound changes the integral by a
    region that antisymmetry makes worth 0, and the test would not see it.
    """
    step = st.fractions(min_value=Fraction(1, 4), max_value=3, max_denominator=6)
    a1 = draw(step)
    b1 = a1 + draw(step)
    a2 = b1 + draw(st.one_of(st.just(Fraction(0)), step))
    b2 = a2 + draw(step)
    t = draw(st.fractions(min_value=Fraction(1, 9), max_value=Fraction(8, 9), max_denominator=9))
    lo, hi = {
        "capped": (a1 * a2, a1 * b2),
        "both": (a1 * b2, b1 * b2),
        "uncapped": (b1 * b2, 2 * b1 * b2),
    }[regime]
    tail_bound = draw(step)
    return (lo + t * (hi - lo)) * tail_bound, (a1, b1), (a2, b2), tail_bound


@st.composite
def antisymmetric_3(draw):
    """a_delta * f at n = 3 for a random rational mix f of Schur polynomials."""
    f = MultiPoly.zero(3)
    for lam in draw(st.lists(st.sampled_from(enumerate_partitions(2, 3)), min_size=1, max_size=3)):
        f = f + schur_poly(lam).raw * draw(coefficients)
    return vandermonde(3) * f


def sympy_delta_integral(p: MultiPoly, c, outer, inner, tail_bound) -> Fraction:
    """sympy's iterated integral of p(x1, x2, c/(x1 x2)) / (x1 x2) over the cell's pieces."""
    x1, x2 = sympy.symbols("x1 x2", positive=True)
    c, tail_bound = rational(c), tail_bound and rational(tail_bound)
    (a1, b1), (a2, b2) = ((rational(lo), rational(hi)) for lo, hi in (outer, inner))
    x3 = c / (x1 * x2)
    expr = sympy.Add(
        *(rational(k) * x1**a * x2**b * x3**d for (a, b, d), k in p.terms.items())
    ) / (x1 * x2)

    def integrate(f, x, lo, hi):  # term by term: sympy is much faster on one power
        return sympy.Add(*(sympy.integrate(t, (x, lo, hi)) for t in sympy.Add.make_args(sympy.expand(f))))

    pieces = [(a1, b1, b2)]  # (x1 from, x1 to, x2 upper bound)
    if tail_bound is not None:
        cap = c / tail_bound
        top, kink = min(b1, cap / a2), cap / b2
        pieces = [(a1, min(top, kink), b2), (max(a1, kink), top, cap / x1)]
    total = sympy.Integer(0)
    for lo, hi, upper in pieces:
        if hi > lo:
            total += integrate(integrate(expr, x2, a2, upper), x1, lo, hi)
    assert total.is_Rational
    return Fraction(int(total.p), int(total.q))


@st.composite
def antisymmetric_2(draw):
    """g(x1, x2) - g(x2, x1) for a random two-slot g, nonzero."""
    g = draw(polys(arity=2, max_terms=5, max_exp=5))
    p = g - g.permute([1, 0])
    assume(not p.is_zero)
    return p


@st.composite
def delta_intervals(draw):
    """(c, lo, hi) with 0 < lo < hi, denominators up to 6."""
    step = st.fractions(min_value=Fraction(1, 4), max_value=3, max_denominator=6)
    lo = draw(step)
    return draw(st.fractions(min_value=Fraction(1, 6), max_value=20, max_denominator=6)), lo, lo + draw(step)


def sympy_delta_integral_2d(p: MultiPoly, c, lo, hi) -> Fraction:
    """sympy's integral of p(x, c/x) / x over (lo, hi), term by term."""
    x = sympy.symbols("x", positive=True)
    c = rational(c)
    total = sympy.Add(
        *(
            sympy.integrate(rational(k) * x**a * (c / x) ** b / x, (x, rational(lo), rational(hi)))
            for (a, b), k in p.terms.items()
        )
    )
    assert total.is_Rational
    return Fraction(int(total.p), int(total.q))


class TestDeltaIntegralAgainstSympy:
    @settings(max_examples=25)
    @given(antisymmetric_2(), delta_intervals())
    def test_one_interval_matches_sympy(self, p, cell):
        assert qc._exact_delta_integral_2d(p, *cell) == sympy_delta_integral_2d(p, *cell)

    @pytest.mark.parametrize("regime", ["capped", "both", "uncapped"])
    @settings(max_examples=6)
    @given(data=st.data())
    def test_matches_sympy_on_each_piece(self, regime, data):
        p = data.draw(antisymmetric_3())
        cell = data.draw(delta_cells(regime))
        assert qc._exact_delta_integral_3d(p, *cell) == sympy_delta_integral(p, *cell)

    @settings(max_examples=6)
    @given(antisymmetric_3(), delta_cells("both"))
    def test_matches_sympy_without_a_tail_bound(self, p, cell):
        cell = (*cell[:3], None)
        assert qc._exact_delta_integral_3d(p, *cell) == sympy_delta_integral(p, *cell)

    @pytest.mark.parametrize("planted", [(2, 0, 2), (0, 1, 1), (1, 1, 0)])
    def test_planted_diagonal_term_raises(self, planted):
        # a = d or b = d logs on every piece, a = b on the capped one
        p = vandermonde(3) + MultiPoly(3, {planted: 1})
        c = Fraction(5, 4) * 1 * 2 * 3  # z = 5/4 on the cell 1 < x1 < 2 < x2 < 3
        with pytest.raises(InvariantViolation, match="logarithm"):
            qc._exact_delta_integral_3d(p, c, (Fraction(1), Fraction(2)), (Fraction(2), Fraction(3)), Fraction(3))

    @pytest.mark.parametrize(
        "planted, tail_bound, route",
        [
            ((2, 0, 2), Fraction(3), "capped piece"),
            ((2, 0, 2), None, "uncapped piece"),
            ((0, 1, 1), None, "uncapped piece"),
            ((1, 1, 0), Fraction(3), "capped piece"),
        ],
    )
    def test_logarithm_error_names_n_the_piece_and_the_exponent(self, planted, tail_bound, route):
        p = vandermonde(3) + MultiPoly(3, {planted: 1})
        c = Fraction(5, 4) * 1 * 2 * 3
        with pytest.raises(InvariantViolation) as err:
            qc._exact_delta_integral_3d(p, c, (Fraction(1), Fraction(2)), (Fraction(2), Fraction(3)), tail_bound)
        assert str(err.value) == (
            f"delta-constrained integral, {route} n=3:"
            f" term with exponent {list(planted)} would integrate to a logarithm"
        )

    def test_logarithm_error_on_one_interval(self):
        p = vandermonde(2) + MultiPoly(2, {(1, 1): 1})
        with pytest.raises(InvariantViolation) as err:
            qc._exact_delta_integral_2d(p, Fraction(3), Fraction(1), Fraction(3, 2))
        assert str(err.value) == (
            "delta-constrained integral, one interval n=2: term with exponent [1, 1] would integrate to a logarithm"
        )

    def test_a_term_that_logs_only_on_the_capped_piece_passes_without_a_tail_bound(self):
        # a = b integrates to a power on the uncapped piece, as before
        p = vandermonde(3) + MultiPoly(3, {(1, 1, 0): 1})
        cell = (Fraction(15, 2), (Fraction(1), Fraction(2)), (Fraction(2), Fraction(3)), None)
        assert qc._exact_delta_integral_3d(p, *cell) == sympy_delta_integral(p, *cell)


class TestResultTerms:
    @given(poly_pairs(max_terms=3, max_exp=2), coefficients)
    def test_kernel_operations(self, pair, c):
        f, g = pair
        results = [
            f + g, f - g, -f, f * g, f * c, f * 0, f + 1, f * g ** 2,
            (f * g).divide_exact(g) if not g.is_zero else f,
            f.partial_eval({0: 1}), f.partial_eval({0: 0}), f.partial_eval({0: c}),
            f.permute(list(range(f.arity))[::-1]), f.euler(0), f.diff(0),
            f.insert_slot(f.arity, "z"), f.insert_slot(0, "t"),
            f.rename([f"y{i}" for i in range(f.arity)]),
        ]
        for r in results:
            assert_kernel_terms(r)
        assert type(f.eval([c] * f.arity)) is Fraction

    @given(polys(), coefficients)
    def test_public_constructor(self, f, c):
        for r in (f, MultiPoly(f.arity, f.terms), MultiPoly.const(f.arity, c), MultiPoly.one(2)):
            assert_kernel_terms(r)
        assert_kernel_terms(UniPoly([c, 0, 2 * c]).poly)

    @given(poly_pairs(max_terms=3, max_exp=2), polys(1, 3, 2), coefficients)
    def test_equal_by_different_routes(self, pair, h, c):
        f, g = pair
        reverse = list(range(f.arity))[::-1]
        routes = [
            (f + g) - g, g + f - g, -(-f), (f * c) * (1 / c), (f * 6) * Fraction(1, 6),
            f * MultiPoly.one(f.arity), f.permute(reverse).permute(reverse),
            MultiPoly(f.arity, f.terms), MultiPoly(f.arity, f.terms, default_names("y", f.arity)),
            f.insert_slot(f.arity, "z").partial_eval({f.arity: c}), f.insert_slot(0, "t").partial_eval({0: 1}),
        ]
        if not g.is_zero:
            routes.append((f * g).divide_exact(g))
        for r in routes:
            assert r == f and hash(r) == hash(f)
        if not f.is_zero:  # same numerators over another denominator
            assert f * Fraction(1, 2) != f and f * 2 != f
        assert f * g == g * f and hash(f * g) == hash(g * f)
        assert f * (g + 1) == f * g + f and hash(f * (g + 1)) == hash(f * g + f)
        # the univariate view: an embedding read back, a product divided back
        u = UniPoly.of(h)
        assert u.as_multipoly(2, 1).partial_eval({0: 1}) == h
        if not u.is_zero:
            assert (u * u).divide_exact(u) == u and hash((u * u).divide_exact(u)) == hash(u)

    @pytest.mark.parametrize("basis", ["m", "E", "s"])
    def test_spectral_loops(self, basis):
        lams = [Partition((2, 1, 0)), Partition((1, 1, 1)), Partition((3, 0, 0))]
        f = MultiPoly.zero(3)
        for i, lam in enumerate(lams):
            f = f + basis_poly(basis, lam).raw * Fraction(2 * i + 1, i + 2)
        g = spectral.orbit_q(OrbitForm.of(f), basis, BASES[basis].q_poly).to_poly()
        results = [g, *expand_with_tail(g, basis, 3).values(), qe.apply_a(f, 3, 3)]
        results += [qm.apply_q(f), qm.apply_a_inv(f, 3, 3)]
        results.append(spectral.rho0_orbit_q(OrbitForm.of(g, 3), basis, BASES[basis].q_poly).to_poly())
        results.append(qm.apply_q(g, n_x=3).partial_eval({i: 1 for i in range(3)}))
        results += [OrbitForm.of(g, 3).to_poly(), qm.separate_via_q(f).to_poly(), qe.separate_via_q(f).to_poly()]
        results += [qe.separate_via_chain(f).to_poly(), qm.separate_via_chain(f).to_poly()]
        results.append(qs.apply_h(f, 2))
        results.append(times_vandermonde(OrbitForm.of(f)))
        for r in results:
            assert_kernel_terms(r)
