"""Exact-core arithmetic: ring laws, division, determinants, Euler operators."""

from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from symfact.poly import MultiPoly, NotDivisible, PolyError, UniPoly, default_names, det, grevlex_key

from conftest import fractions_small, multipoly_pairs, multipoly_triples, multipolys


def xvars(n):
    return [MultiPoly.variable(i, n) for i in range(n)]


class TestMultiPolyBasics:
    def test_difference_of_squares(self):
        x1, x2 = xvars(2)
        assert (x1 + x2) * (x1 - x2) == x1**2 - x2**2

    def test_additive_identity(self):
        f = MultiPoly(2, {(1, 2): F(3, 4), (0, 0): -1})
        assert f + MultiPoly.zero(2) == f

    def test_distribute_by_hand(self):
        # (x1+x2)(x1 x2) expands to x1^2 x2 + x1 x2^2
        x1, x2 = xvars(2)
        assert (x1 + x2) * (x1 * x2) == MultiPoly(2, {(2, 1): 1, (1, 2): 1})

    def test_zero_coefficients_dropped(self):
        f = MultiPoly(2, [((1, 0), F(1)), ((1, 0), F(-1))])
        assert f.is_zero and f.terms == {}

    def test_arity_mismatch_raises(self):
        with pytest.raises(PolyError):
            MultiPoly.one(2) + MultiPoly.one(3)

    def test_negative_exponent_rejected(self):
        with pytest.raises(PolyError):
            MultiPoly(1, {(-1,): 1})

    def test_grevlex_serialization_order(self):
        # grade first, then reverse-lex ties: x1^2 > x1 x2 > x2^2
        f = MultiPoly(2, {(2, 0): 1, (1, 1): 1, (0, 2): 1, (1, 0): 1})
        assert [e for e, _ in f.sorted_terms()] == [(2, 0), (1, 1), (0, 2), (1, 0)]

    def test_grevlex_key_orders_by_degree_first(self):
        assert grevlex_key((3, 0)) > grevlex_key((1, 1))
        assert grevlex_key((2, 0)) > grevlex_key((1, 1))


class TestRingLaws:
    @given(multipoly_pairs())
    def test_commutativity(self, pair):
        a, b = pair
        assert a + b == b + a
        assert a * b == b * a

    @given(multipoly_triples())
    def test_associativity_and_distributivity(self, triple):
        a, b, c = triple
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(multipoly_pairs())
    def test_division_round_trip(self, pair):
        a, b = pair
        if b.is_zero:
            return
        assert (a * b).divide_exact(b) == a

    @given(multipolys(arity=2))
    def test_not_divisible_raises(self, f):
        x1, x2 = xvars(2)
        num = f * (x1 - x2) + 1  # remainder 1 by construction
        with pytest.raises(NotDivisible):
            num.divide_exact(x1 - x2)


class TestDivision:
    def test_factorization(self):
        x1, x2 = xvars(2)
        assert (x1**2 - x2**2).divide_exact(x1 - x2) == x1 + x2

    def test_unit_divisor(self):
        f = MultiPoly(2, {(3, 1): F(2, 7)})
        assert f.divide_exact(MultiPoly.one(2)) == f

    def test_alternant_over_vandermonde(self):
        # cofactor expansion of det{x_i^(2,0)} then long division
        x1, x2 = xvars(2)
        a = x1**2 - x2**2
        assert a.divide_exact(x1 - x2) == x1 + x2


class TestDeterminant:
    def test_two_by_two(self):
        x1, x2 = xvars(2)
        m = [[x1**2, MultiPoly.one(2)], [x2**2, MultiPoly.one(2)]]
        assert det(m) == x1**2 - x2**2

    def test_identity(self):
        one, zero = MultiPoly.one(2), MultiPoly.zero(2)
        assert det([[one, zero], [zero, one]]) == one

    def test_vandermonde_three(self):
        xs = xvars(3)
        m = [[xs[i] ** 2, xs[i], MultiPoly.one(3)] for i in range(3)]
        expected = MultiPoly.one(3)
        for i in range(3):
            for j in range(i + 1, 3):
                expected = expected * (xs[i] - xs[j])
        assert det(m) == expected

    def test_bareiss_path_matches_product_formula(self):
        # order 6: a cofactor expansion several levels deep
        n = 6
        xs = xvars(n)
        m = [[xs[i] ** (n - 1 - j) for j in range(n)] for i in range(n)]
        expected = MultiPoly.one(n)
        for i in range(n):
            for j in range(i + 1, n):
                expected = expected * (xs[i] - xs[j])
        assert det(m) == expected

    @given(multipolys(arity=2, max_terms=2, max_exp=2), multipolys(arity=2, max_terms=2, max_exp=2))
    def test_equal_rows_vanish_and_swap_flips_sign(self, a, b):
        assert det([[a, b], [a, b]]).is_zero
        assert det([[a, b], [b, a]]) == -det([[b, a], [a, b]])

    def test_non_square_raises(self):
        with pytest.raises(PolyError):
            det([[MultiPoly.one(1)], [MultiPoly.one(1)]])


class TestEulerAndEval:
    def test_monomial_eigenvector(self):
        f = MultiPoly(2, {(3, 1): 1})
        assert f.euler(0) == f * 3

    def test_constant_killed(self):
        assert MultiPoly.const(2, 5).euler(0).is_zero

    def test_degree_operator_on_antisymmetric(self):
        x1, x2 = xvars(2)
        a = x1**2 - x2**2
        assert a.euler(0) + a.euler(1) == a * 2

    @given(multipoly_pairs(max_terms=3, max_exp=2))
    def test_leibniz(self, pair):
        f, g = pair
        for slot in range(f.arity):
            lhs = (f * g).euler(slot)
            assert lhs == f.euler(slot) * g + f * g.euler(slot)

    def test_eval_simple(self):
        x1, x2 = xvars(2)
        assert (x1 + x2).eval([1, 1]) == 2

    @given(multipoly_pairs(max_terms=3, max_exp=2), st.data())
    def test_eval_commutes_with_arithmetic(self, pair, data):
        f, g = pair
        pt = [data.draw(fractions_small) for _ in range(f.arity)]
        assert (f + g).eval(pt) == f.eval(pt) + g.eval(pt)
        assert (f * g).eval(pt) == f.eval(pt) * g.eval(pt)


class TestSubstitutionAndSlots:
    def test_partial_eval_drops_slots(self):
        f = MultiPoly(3, {(1, 2, 1): 2, (0, 1, 0): 1})
        g = f.partial_eval({1: F(1, 2)})
        assert g == MultiPoly(2, {(1, 1): F(1, 2), (0, 0): F(1, 2)})

    def test_permute_and_symmetry(self):
        x1, x2 = xvars(2)
        assert (x1 + x2).is_symmetric()
        assert not x1.is_symmetric()
        assert x1.permute([1, 0]) == x2

    def test_is_symmetric_slot_count_bounds(self):
        f = MultiPoly(3, {(1, 1, 0): 1})
        assert f.is_symmetric(0) and f.is_symmetric(2) and not f.is_symmetric(3)
        for k in (-1, 4, True, 1.0):
            with pytest.raises(PolyError):
                f.is_symmetric(k)

    def test_json_round_trip(self):
        f = MultiPoly(2, {(2, 0): F(1, 2), (0, 0): -3})
        data = f.to_json()
        assert data == {"vars": ["x1", "x2"], "terms": [{"e": [2, 0], "c": "1/2"}, {"e": [0, 0], "c": "-3"}]}
        assert MultiPoly.from_json(data) == f


class TestScalarBoundary:
    """Binary floats and bools never enter the kernel as scalars."""

    @pytest.mark.parametrize("bad", [0.5, 0.1, True, "1/2", None])
    def test_constructor_rejects_non_exact_coefficients(self, bad):
        with pytest.raises(PolyError):
            MultiPoly(1, {(1,): bad})

    @pytest.mark.parametrize("bad", [1.0, (1.5,), (True,)])
    def test_constructor_rejects_non_int_exponents(self, bad):
        exp = (bad,) if not isinstance(bad, tuple) else bad
        with pytest.raises(PolyError):
            MultiPoly(1, {exp: 1})

    @pytest.mark.parametrize("bad", [0.1, 1.0, False])
    def test_eval_rejects_non_exact_points(self, bad):
        with pytest.raises(PolyError):
            MultiPoly(2, {(1, 1): 1}).eval([1, bad])

    @pytest.mark.parametrize("bad", [0.1, 1.0, True])
    def test_partial_eval_rejects_non_exact_values(self, bad):
        with pytest.raises(PolyError):
            MultiPoly(2, {(1, 1): 1}).partial_eval({0: bad})

    @pytest.mark.parametrize("bad", [0.1, 1.0, True])
    def test_unipoly_constructor_rejects_non_exact_coefficients(self, bad):
        with pytest.raises(PolyError):
            UniPoly([1, bad])

    @pytest.mark.parametrize("bad", [0.1, 1.0, True])
    def test_unipoly_eval_rejects_non_exact_points(self, bad):
        with pytest.raises(PolyError):
            UniPoly([1, 1]).eval(bad)

    def test_equality_with_a_bool_answers(self):
        assert not MultiPoly.one(1) == True  # noqa: E712
        assert MultiPoly.one(1) != True  # noqa: E712
        assert MultiPoly.zero(2) != False  # noqa: E712

    def test_membership_among_bools_answers(self):
        assert MultiPoly.one(1) not in [True]
        assert MultiPoly.one(1) in [True, 1]

    def test_unipoly_equality_with_a_bool_answers(self):
        assert not UniPoly([1]) == False  # noqa: E712
        assert UniPoly([1]) != True  # noqa: E712
        assert UniPoly([1]) == 1

    @pytest.mark.parametrize("bad", [True, False])
    def test_arithmetic_with_a_bool_raises(self, bad):
        f = MultiPoly.one(1)
        for op in (f.__add__, f.__sub__, f.__mul__):
            with pytest.raises(PolyError):
                op(bad)
        with pytest.raises(PolyError):
            UniPoly([1]) * bad

    def test_exact_scalars_accepted(self):
        f = MultiPoly(2, {(1, 1): F(1, 3), (0, 1): 2})
        assert f.eval([F(1, 2), 3]) == F(13, 2)
        assert f.partial_eval({0: F(-2, 3)}) == MultiPoly(1, {(1,): F(16, 9)}, ("x2",))

    @pytest.mark.parametrize("arity", [1, 2, 3])
    def test_zero_polynomial_evaluates_to_zero(self, arity):
        zero = MultiPoly.zero(arity)
        value = zero.eval([F(-2, 3)] * arity)
        assert value == 0 and type(value) is F
        rest = zero.partial_eval({0: F(5, 7)})
        assert rest.is_zero and rest.arity == arity - 1 and rest.den == 1
        assert rest.names == default_names("x", arity)[1:]


class TestUniPoly:
    def test_arithmetic_and_eval(self):
        p = UniPoly([1, 2, 1])  # (z+1)^2
        q = UniPoly([-1, 1])
        assert p == UniPoly([1, 1]) * UniPoly([1, 1])
        assert p.eval(F(1, 2)) == F(9, 4)
        assert (p * q).divide_exact(q) == p

    def test_divide_requires_exactness(self):
        with pytest.raises(NotDivisible):
            UniPoly([1, 1]).divide_exact(UniPoly([0, 1]))

    def test_euler_scales_by_degree(self):
        p = UniPoly([5, 0, 3])
        assert p.euler() == UniPoly([0, 0, 6])

    def test_derivative(self):
        assert UniPoly([1, 2, 3]).derivative() == UniPoly([2, 6])

    def test_as_multipoly(self):
        p = UniPoly([F(1, 2), 0, F(1, 2)])
        m = p.as_multipoly(2, 1)
        assert m == MultiPoly(2, {(0, 0): F(1, 2), (0, 2): F(1, 2)})

    def test_trimming_and_zero(self):
        assert UniPoly([0, 0]).is_zero
        assert UniPoly([1, 0]).degree == 0
        assert UniPoly([0, 0]).coeffs == () and UniPoly([0, 0]).degree == -1

    def test_json_and_pretty(self):
        p = UniPoly([F(1, 2), 0, -1, 3])
        assert p.coeffs == (F(1, 2), 0, -1, 3)
        assert p.to_json() == ["1/2", "0", "-1", "3"]
        assert p.pretty() == "3*z^3 - z^2 + 1/2"
        assert UniPoly().pretty() == "0"

    def test_view_of_a_one_slot_polynomial(self):
        f = MultiPoly(1, {(2,): F(1, 3), (0,): 1}, ("t",))
        assert UniPoly.of(f) == UniPoly([1, 0, F(1, 3)])
        assert UniPoly.of(f).as_multipoly(1, 0) == f
        assert UniPoly.of(f).pretty() == "1/3*z^2 + 1"  # printed in z, whatever the slot's name
        with pytest.raises(PolyError):
            UniPoly.of(MultiPoly.one(2))
