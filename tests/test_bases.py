"""Basis constructions checked against independent routes."""

import itertools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (
    alternant_sum,
    elementary_generating,
    elementary_sym,
    expand_with_tail,
    fractions_small,
    head_symmetric,
    outer,
    strict_part,
    symmetric_polys,
    whole_basis_element,
)
from symfact.bases import (
    BASIS_TAGS,
    OrbitForm,
    alternant,
    basis_poly,
    combine,
    elementary_value,
    expand_in_basis,
    is_dominance_triangular,
    m_coordinates,
    restricted_schur,
    schur_poly,
    times_product,
    times_vandermonde,
    vandermonde,
    vandermonde_value,
    value_at_one,
)
from symfact import bases
from symfact.partitions import Partition, dominance_leq, enumerate_partitions
from symfact.poly import MultiPoly, NotSymmetric, PolyError, UniPoly, det


def symmetrized_average(lam):
    """Oracle for the normalized monomial sum: average over all n! permutations."""
    n = lam.n
    acc = MultiPoly.zero(n)
    for perm in itertools.permutations(lam.parts):
        acc = acc + MultiPoly(n, {perm: 1})
    return acc * F(1, math.factorial(n))


class TestMonomialSym:
    def test_two_distinct_permutations(self):
        nb = basis_poly("m", Partition((2, 0)))
        assert nb.raw == MultiPoly(2, {(2, 0): 1, (0, 2): 1})
        assert nb.normalized == nb.raw * F(1, 2)

    def test_no_repetition(self):
        nb = basis_poly("m", Partition((1, 1)))
        assert nb.raw == MultiPoly(2, {(1, 1): 1})
        assert value_at_one("m", Partition((1, 1))) == 1

    def test_six_distinct_monomials(self):
        nb = basis_poly("m", Partition((2, 1, 0)))
        assert len(nb.raw.terms) == 6
        assert all(c == F(1, 6) for c in nb.normalized.terms.values())

    def test_matches_full_average(self):
        for lam in enumerate_partitions(4, 3):
            assert basis_poly("m", lam).normalized == symmetrized_average(lam)

    def test_normalized_value_is_one(self):
        for lam in enumerate_partitions(5, 3):
            nb = basis_poly("m", lam)
            assert nb.normalized.eval([1, 1, 1]) == 1

    def test_orbit_is_every_distinct_permutation_once(self):
        for n in range(1, 6):
            for lam in enumerate_partitions(5, n):
                orbit = bases._orbit(lam.parts)
                assert len(orbit) == len(set(orbit))
                assert set(orbit) == set(itertools.permutations(lam.parts))


class TestElementary:
    def test_e0_is_one(self):
        assert basis_poly("E", Partition((0, 0, 0))).raw == MultiPoly.one(3)

    def test_e2_three_vars(self):
        assert basis_poly("E", Partition((1, 1, 0))).raw == MultiPoly(3, {(1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1})

    def test_generating_function_coefficients(self):
        # the t^j coefficient of prod (1 + t x_i) is e_j
        for n in (2, 3, 4):
            w = elementary_generating(n)
            for j in range(n + 1):
                coeff = MultiPoly(
                    n, {e[:n]: c for e, c in w.terms.items() if e[n] == j}
                )
                assert coeff == basis_poly("E", Partition((1,) * j + (0,) * (n - j))).raw

    def test_out_of_range(self):
        # the oracle's e_r needs r <= n, as the E element e_r = E_(1^r 0^(n-r)) does
        with pytest.raises(PolyError):
            elementary_sym(4, 3)

    def test_value_at_one_is_binomial(self):
        e2 = Partition((1, 1, 0))
        assert value_at_one("E", e2) == basis_poly("E", e2).raw.eval([1, 1, 1]) == math.comb(3, 2)


class TestPointValues:
    """e_j and the Vandermonde at one point against their definitions."""

    @given(
        st.lists(st.integers(min_value=-5, max_value=5), max_size=6),
        st.integers(min_value=0, max_value=8),
    )
    @example([0, 0, 3], 2)
    @example([2, -1], 3)
    def test_elementary_value_is_the_subset_sum(self, values, j):
        assert elementary_value(values, j) == sum(math.prod(s) for s in itertools.combinations(values, j))

    @given(st.integers(min_value=0, max_value=5).flatmap(lambda n: st.lists(fractions_small, min_size=n, max_size=n)))
    def test_vandermonde_value_is_the_polynomial_at_the_point(self, point):
        assert vandermonde_value(point) == vandermonde(len(point)).eval(point)

    def test_elementary_value_rejects_a_negative_index(self):
        # e_0 = 1, but j < 0 is no index of e_j
        assert elementary_value([2, 3], 0) == 1
        for j in (-1, -2):
            with pytest.raises(PolyError, match="need j >= 0"):
                elementary_value([2, 3], j)

    def test_vandermonde_value_of_fewer_than_two_values_is_one(self):
        assert vandermonde_value([]) == 1
        assert vandermonde_value([F(5, 3)]) == 1


class TestElementaryProduct:
    def test_single_factor(self):
        nb = basis_poly("E", Partition((1, 0)))
        assert nb.raw == elementary_sym(1, 2)
        assert nb.normalized == nb.raw * F(1, 2)

    def test_top_factor(self):
        nb = basis_poly("E", Partition((1, 1)))
        assert nb.raw == elementary_sym(2, 2)
        assert value_at_one("E", Partition((1, 1))) == 1

    def test_mixed_product_normalization(self):
        nb = basis_poly("E", Partition((2, 1)))
        assert nb.raw == elementary_sym(1, 2) * elementary_sym(2, 2)
        assert nb.normalized.eval([1, 1]) == 1

    def test_value_formula(self):
        for lam in enumerate_partitions(5, 3):
            nb = basis_poly("E", lam)
            a, b, c = lam.parts
            expected = math.comb(3, 1) ** (a - b) * math.comb(3, 2) ** (b - c) * math.comb(3, 3) ** c
            assert value_at_one("E", lam) == expected == nb.raw.eval([1, 1, 1])


class TestSchur:
    def test_single_row(self):
        nb = schur_poly(Partition((1, 0)))
        assert nb.raw == MultiPoly(2, {(1, 0): 1, (0, 1): 1})
        assert value_at_one("s", Partition((1, 0))) == 2
        assert nb.raw.eval([1, 2]) == 3

    def test_empty_partition(self):
        assert schur_poly(Partition((0, 0, 0))).raw == MultiPoly.one(3)

    def test_column_equals_elementary(self):
        assert schur_poly(Partition((1, 1, 0))).raw == elementary_sym(2, 3)
        assert value_at_one("s", Partition((1, 1, 0))) == 3

    def test_alternant_of_staircase_is_vandermonde(self):
        for n in (2, 3, 4):
            mu = tuple(range(n - 1, -1, -1))
            assert alternant(mu, n) == vandermonde(n)

    @pytest.mark.parametrize("n", range(6))
    def test_vandermonde_is_the_product_of_differences(self, n):
        want = MultiPoly.one(n)
        for i, j in itertools.combinations(range(n), 2):
            want = want * (MultiPoly.variable(i, n) - MultiPoly.variable(j, n))
        got = vandermonde(n)
        assert got == want
        assert got.names == want.names

    @staticmethod
    def _power_matrix_det(mu, n):
        return det([[MultiPoly.variable(i, n) ** m for m in mu] for i in range(n)])

    def test_alternant_is_the_determinant(self):
        # det{x_i^(mu_j)}, the paper's definition, for every strictly
        # decreasing mu with n <= 4 and entries <= 6
        for n in (1, 2, 3, 4):
            for mu in itertools.combinations(range(6, -1, -1), n):
                assert alternant(mu, n) == self._power_matrix_det(mu, n), mu

    def test_alternant_with_a_repeated_exponent_vanishes(self):
        assert alternant((1, 1), 2).is_zero
        assert alternant((3, 0, 3), 3).is_zero

    def test_alternant_of_permuted_exponents(self):
        mu = (4, 2, 0)
        for w in itertools.permutations(range(3)):
            nu = tuple(mu[j] for j in w)
            inversions = sum(a > b for a, b in itertools.combinations(w, 2))
            assert alternant(nu, 3) == alternant(mu, 3) * (-1) ** inversions
            assert alternant(nu, 3) == self._power_matrix_det(nu, 3)

    @pytest.mark.parametrize("n, max_weight", [(1, 6), (2, 6), (3, 6), (4, 6), (5, 4)])
    def test_branching_rule_matches_the_bialternant(self, n, max_weight):
        for lam in enumerate_partitions(max_weight, n):
            nb = schur_poly(lam)
            want = alternant(lam.shifted(), n).divide_exact(vandermonde(n))
            assert (nb.raw.num, nb.raw.den, nb.raw.names) == (want.num, want.den, want.names), lam
            assert value_at_one("s", lam) == want.eval([1] * n), lam

    def test_value_formula_agrees_with_direct(self):
        for lam in enumerate_partitions(6, 3):
            assert schur_poly(lam).raw.eval([1, 1, 1]) == value_at_one("s", lam)

    def test_dominance_triangularity(self):
        for lam in enumerate_partitions(5, 3):
            assert is_dominance_triangular(lam)


class TestRows:
    """The m-coordinate rows and the value at (1..1) that define each basis element, against whole oracles."""

    @pytest.mark.parametrize("basis", BASIS_TAGS)
    @pytest.mark.parametrize("n", range(1, 6))
    def test_rows_and_value_match_the_whole_oracle(self, basis, n):
        for lam in enumerate_partitions(6, n):
            whole = whole_basis_element(basis, lam)
            assert whole.den == 1
            partition_terms = {e: c for e, c in whole.num.items() if list(e) == sorted(e, reverse=True)}
            assert m_coordinates(basis, lam) == partition_terms, lam
            assert value_at_one(basis, lam) == whole.eval([1] * n), lam
            assert basis_poly(basis, lam).raw == whole, lam

    def test_unknown_basis_tag(self):
        for build in (m_coordinates, value_at_one, basis_poly):
            with pytest.raises(PolyError, match="unknown basis tag 'F'"):
                build("F", Partition((1, 0)))


def restricted_denominator(n: int, k: int, c: int) -> MultiPoly:
    """c prod_(j=1..k-1) (x_j - 1)^(n-k+1), the whole polynomial restricted_schur's docstring states."""
    den = MultiPoly.const(k - 1, c)
    for j in range(k - 1):
        den = den * (MultiPoly.variable(j, k - 1) - 1) ** (n - k + 1)
    return den


class TestRestrictedSchur:
    """The numerator holds the strictly decreasing coefficients of the mixed determinant."""

    def test_k_equals_n_is_plain_restriction(self):
        lam = Partition((2, 1, 0))
        num, c = restricted_schur(lam, 3)
        den = restricted_denominator(3, 3, c)
        direct = schur_poly(lam).raw.partial_eval({2: 1})
        assert alternant_sum(num).divide_exact(den * vandermonde(2)) == direct
        assert num == times_vandermonde(OrbitForm.of(den * direct))

    def test_k_one_gives_value_at_one(self):
        num, c = restricted_schur(Partition((1, 0)), 1)
        assert num.eval(()) / c == 2

    def test_k_two_single_variable(self):
        num, c = restricted_schur(Partition((1, 0)), 2)
        assert num == MultiPoly(1, {(2,): 1, (0,): -1})
        assert c == 1
        assert num.divide_exact(MultiPoly(1, {(1,): 1, (0,): -1})) == MultiPoly(1, {(1,): 1, (0,): 1})

    def test_denominator_constant(self):
        # c = prod_(i=1..n-k) i!
        assert [restricted_schur(Partition((0,) * 5), k)[1] for k in range(1, 6)] == [288, 12, 2, 1, 1]

    def test_ratio_equals_substitution_sweep(self):
        for n in (2, 3, 4):
            for lam in enumerate_partitions(4, n):
                for k in range(1, n + 1):
                    num, c = restricted_schur(lam, k)
                    direct = schur_poly(lam).raw.partial_eval(
                        {i: 1 for i in range(k - 1, n)}
                    )
                    den = restricted_denominator(n, k, c) * vandermonde(k - 1)
                    assert alternant_sum(num).divide_exact(den) == direct, (lam, k)

    @staticmethod
    def _cofactor_numerator(lam, k):
        """The mixed matrix's determinant by cofactor expansion: k-1 rows x_i^(mu_j), then mu_j^e."""
        n, mu = lam.n, lam.shifted()
        rows = [[MultiPoly.variable(i, k - 1) ** m for m in mu] for i in range(k - 1)]
        rows += [[MultiPoly.const(k - 1, m**e) for m in mu] for e in range(n - k, -1, -1)]
        return det(rows)

    def test_laplace_sum_every_case(self):
        # every (lam, k) with n <= 5 and weight <= 4: the ratio holds without
        # dividing, the numerator is the strictly decreasing part of the
        # cofactor determinant, and those coefficients give back all of it
        cases = 0
        for n in range(1, 6):
            for lam in enumerate_partitions(4, n):
                for k in range(1, n + 1):
                    num, c = restricted_schur(lam, k)
                    direct = schur_poly(lam).raw.partial_eval({i: 1 for i in range(k - 1, n)})
                    den = restricted_denominator(n, k, c)
                    assert num == times_vandermonde(OrbitForm.of(den * direct)), (lam, k)
                    whole = self._cofactor_numerator(lam, k)
                    want = strict_part(whole)
                    assert (num.num, num.den, num.names) == (want.num, want.den, want.names), (lam, k)
                    assert alternant_sum(num) == whole, (lam, k)
                    cases += 1
        assert cases == 164


class TestExpansion:
    def test_elementary_in_schur_basis(self):
        assert expand_in_basis(elementary_sym(2, 3), "s") == {Partition((1, 1, 0)): F(1)}

    def test_schur_in_monomial_basis(self):
        coeffs = expand_in_basis(schur_poly(Partition((2, 0))).raw, "m")
        assert coeffs == {Partition((2, 0)): F(1), Partition((1, 1)): F(1)}

    def test_zero_gives_empty_expansion(self):
        coeffs = expand_in_basis(MultiPoly.zero(2), "E")
        assert coeffs == {}
        assert combine("E", 2, coeffs).is_zero

    def test_asymmetric_input_rejected(self):
        with pytest.raises(NotSymmetric):
            expand_in_basis(MultiPoly.variable(0, 2), "m")

    def test_self_expansion_sweep(self):
        for basis in ("m", "E", "s"):
            for lam in enumerate_partitions(4, 3):
                assert expand_in_basis(basis_poly(basis, lam).raw, basis) == {lam: F(1)}

    def test_round_trip_random(self):
        rng = random.Random(7)
        lams = enumerate_partitions(5, 3)
        for basis in ("m", "E", "s"):
            for _ in range(5):
                f = MultiPoly.zero(3)
                for _ in range(3):
                    f = f + basis_poly(rng.choice("mEs"), rng.choice(lams)).raw * F(
                        rng.randint(-4, 4), rng.randint(1, 3)
                    )
                assert combine(basis, 3, expand_in_basis(f, basis)) == f

    def test_schur_expansion_support_is_dominated(self):
        lam = Partition((3, 1, 0))
        coeffs = expand_in_basis(schur_poly(lam).raw, "m")
        assert coeffs[lam] == 1
        assert all(dominance_leq(nu, lam) for nu in coeffs)

    @given(symmetric_polys(max_n=3), st.sampled_from(BASIS_TAGS))
    def test_combine_inverts_expansion(self, f, basis):
        assert combine(basis, f.arity, expand_in_basis(f, basis)) == f

    def test_combine_rejects_a_partition_of_another_length(self):
        with pytest.raises(PolyError, match="length n=3"):
            combine("m", 3, {Partition((1, 0)): F(1)})


class TestCombineOracle:
    """combine against sum_lam c_lam b_lam added up by MultiPoly arithmetic.

    combine and expand_in_basis read the same m-coordinate table, so their
    round trip cannot see a wrong entry in it; this oracle builds every
    monomial of every basis element instead.
    """

    @staticmethod
    def summed(basis, n, coeffs):
        acc = MultiPoly.zero(n)
        for lam, c in coeffs.items():
            acc = acc + basis_poly(basis, lam).raw * c
        return acc

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("basis", BASIS_TAGS)
    def test_matches_sum_of_basis_elements(self, basis, n):
        rng = random.Random(n)
        lams = enumerate_partitions(5, n)
        every = {lam: F(rng.randint(-9, 9), rng.randint(1, 6)) for lam in lams}
        some = {lam: every[lam] for lam in rng.sample(lams, 3)}
        zero_sum = dict(zip(rng.sample(lams, 3), (F(1, 2), F(-1, 3), F(-1, 6))))
        for coeffs in (every, some, zero_sum, {}):
            got, want = combine(basis, n, coeffs), self.summed(basis, n, coeffs)
            assert got == want and got.names == want.names


class TestExpansionWithTail:
    @given(head_symmetric())
    def test_reconstructs(self, case):
        basis, k, f = case
        acc = MultiPoly.zero(f.arity)
        for lam, tail in expand_with_tail(f, basis, k).items():
            acc = acc + outer(basis_poly(basis, lam).raw, tail)
        assert acc == f

    @given(head_symmetric())
    def test_agrees_tail_by_tail_with_expand_in_basis(self, case):
        basis, k, f = case
        expn = expand_with_tail(f, basis, k)
        tails = {exp[k:] for exp in f.terms} | {t for c in expn.values() for t in c.terms}
        for texp in tails:
            head = MultiPoly(k, {e[:k]: c for e, c in f.terms.items() if e[k:] == texp})
            per_tail = {lam: c.terms[texp] for lam, c in expn.items() if texp in c.terms}
            assert per_tail == expand_in_basis(head, basis)

    @given(head_symmetric())
    def test_asymmetric_head_rejected(self, case):
        basis, k, f = case
        if k < 2:
            return
        bump = MultiPoly(f.arity, {(1,) + (0,) * (f.arity - 1): 1})
        with pytest.raises(NotSymmetric, match=f"first {k} of {f.arity} slots"):
            expand_with_tail(f + bump, basis, k)


class TestTimesVandermonde:
    """a_delta * f at its strictly decreasing exponents, against the whole product."""

    @pytest.mark.parametrize("n", range(6))
    def test_is_the_strict_part_of_the_whole_product(self, n):
        rng = random.Random(n)
        lams = enumerate_partitions(3, n) if n else []
        for _ in range(3):
            f = MultiPoly.const(n, F(rng.randint(-5, 5), rng.randint(1, 4)))
            for lam in rng.sample(lams, min(3, len(lams))):
                f = f + basis_poly(rng.choice(BASIS_TAGS), lam).raw * F(rng.randint(-5, 5), rng.randint(1, 4))
            got, want = times_vandermonde(OrbitForm.of(f)), strict_part(vandermonde(n) * f)
            assert (got.num, got.den) == (want.num, want.den)

    def test_keeps_a_denominator_and_the_slot_names(self):
        f = schur_poly(Partition((2, 1, 0))).normalized.rename(("y1", "y2", "y3"))
        assert f.den != 1
        got = times_vandermonde(OrbitForm.of(f))
        assert got == strict_part(vandermonde(3) * f)
        assert got.den == f.den and got.names == f.names

    @given(symmetric_polys(max_n=4))
    def test_fixes_the_whole_product(self, f):
        assert alternant_sum(times_vandermonde(OrbitForm.of(f))) == vandermonde(f.arity) * f

    def test_needs_every_slot_in_the_head(self):
        with pytest.raises(PolyError, match="all 3 slots"):
            times_vandermonde(OrbitForm.of(MultiPoly.one(3), 2))


class TestTimesProduct:
    """f * prod_j p(x_j) at its weakly (step 0) or strictly (step 1) decreasing exponents, against the whole product."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("top, step", [(0, 0), (2, 0), (0, 1), (1, 1), (3, 1)])
    def test_feasible_orbit_is_every_permutation_a_shift_lifts(self, n, top, step):
        # brute force over every shift b in [0, top]^n
        shifts = list(itertools.product(range(top + 1), repeat=n))
        for lam in enumerate_partitions(5, n):
            want = {
                p
                for p in itertools.permutations(lam.parts)
                if any(all(a - b >= step for a, b in zip(s, s[1:])) for s in ([a + c for a, c in zip(p, bs)] for bs in shifts))
            }
            got = bases._feasible_orbit(lam.parts, top, step)
            assert len(got) == len(want) and set(got) == want

    @staticmethod
    def whole(f: MultiPoly, p: UniPoly) -> MultiPoly:
        for j in range(f.arity):
            f = f * p.as_multipoly(f.arity, j, f.names)
        return f

    @settings(max_examples=60)
    @given(
        symmetric_polys(max_n=4),
        st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=4).filter(any),
        st.integers(min_value=1, max_value=3),
    )
    def test_rows_and_strict_part_of_the_whole_product(self, f, coeffs, d):
        p = UniPoly([F(c, d) for c in coeffs])
        whole = self.whole(f, p)
        rows = OrbitForm.of(whole)
        assert MultiPoly._make(f.arity, *times_product(OrbitForm.of(f), p, 0), f.names) == MultiPoly._make(
            f.arity, rows.num, rows.den, f.names
        )
        assert MultiPoly._make(f.arity, *times_product(OrbitForm.of(f), p, 1), f.names) == strict_part(whole)

    def test_no_slots(self):
        assert times_product(OrbitForm.of(MultiPoly.const(0, F(3, 2))), UniPoly([5, 7]), 1) == ({(): 3}, 2)

    def test_needs_every_slot_in_the_head(self):
        with pytest.raises(PolyError, match="all 3 slots"):
            times_product(OrbitForm.of(MultiPoly.one(3), 2), UniPoly([-1, 1]), 0)
