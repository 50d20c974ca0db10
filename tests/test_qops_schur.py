"""Schur-basis operator suite: interpolation data, equations, exact inverse."""

import itertools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from conftest import elementary_sym, fractions_small, strict_part, strictly_decreasing, symmetric_polys

from symfact import qops_monomial as qm
from symfact import qops_schur as qs
from symfact import spectral
from symfact.bases import OrbitForm, alternant, schur_poly, times_vandermonde, vandermonde, vandermonde_value
from symfact.partitions import Partition, enumerate_partitions
from symfact.poly import InvariantViolation, MultiPoly, PolyError, UniPoly, default_names


def sbar(*parts):
    return schur_poly(Partition(parts)).normalized


class TestPhi:
    @staticmethod
    def weights(lam):
        """The interpolation weights c_j, read off phi at the shifted exponents mu_j."""
        phi = qs.phi(lam)
        return tuple(phi[m] for m in lam.shifted())

    def test_frozen_two_variables(self):
        lam = Partition((1, 0))
        assert self.weights(lam) == (F(1, 2), F(-1, 2))
        assert qs.phi(lam) == UniPoly([F(-1, 2), 0, F(1, 2)])

    def test_frozen_empty(self):
        lam = Partition((0, 0))
        assert self.weights(lam) == (F(1), F(-1))
        assert qs.phi(lam) == UniPoly([-1, 1])

    def test_frozen_three_variables(self):
        lam = Partition((1, 1, 0))
        assert lam.shifted() == (3, 2, 0)
        assert self.weights(lam) == (F(1, 3), F(-1, 2), F(1, 6))
        assert qs.phi(lam) == UniPoly([F(1, 6), 0, F(-1, 2), F(1, 3)])

    def test_moment_conditions_sweep(self):
        # the constructor verifies them; also check divisibility explicitly
        for lam in enumerate_partitions(5, 4):
            phi = qs.phi(lam)
            n = lam.n
            quotient = phi.divide_exact(UniPoly([-1, 1]) ** (n - 1))
            assert quotient * UniPoly([-1, 1]) ** (n - 1) == phi

    def test_moment_check_refuses_wrong_weights(self, monkeypatch):
        # fault injection: the first int weight numerator is off by one, so the
        # c_j are wrong and the moment sums no longer vanish; phi is cached, so
        # the cache is emptied first, or an earlier phi would be read back
        weights = qs._weights

        def planted(mu):
            nums, den = weights(mu)
            return [nums[0] + 1, *nums[1:]], den

        qs.phi.cache_clear()
        monkeypatch.setattr(qs, "_weights", planted)
        try:
            with pytest.raises(InvariantViolation, match="moment condition k=0"):
                qs.phi(Partition((1, 0)))
        finally:
            qs.phi.cache_clear()


class TestEigenvaluePolynomial:
    def test_frozen_values(self):
        assert qs.q_poly(Partition((1, 0))) == UniPoly([F(1, 2), F(1, 2)])
        assert qs.q_poly(Partition((0, 0, 0))) == UniPoly([1])
        assert qs.q_poly(Partition((1, 1, 0))) == UniPoly([F(1, 3), F(2, 3)])

    def test_three_routes_agree(self):
        for n in (2, 3, 4):
            for lam in enumerate_partitions(6 if n < 4 else 4, n):
                q = qs.q_poly(lam)
                assert q == qs.q_via_restriction(lam), lam
                assert q == qs.q_via_restricted_determinant(lam), lam

    def test_value_at_zero(self):
        assert qs.q_at_zero(Partition((1, 0))) == F(1, 2)
        assert qs.q_at_zero(Partition((1, 1))) == 0
        for lam in enumerate_partitions(5, 3):
            assert qs.q_poly(lam).eval(0) == qs.q_at_zero(lam)


class TestDifferentialEquations:
    def test_phi_equation_frozen(self):
        # (z d/dz - 2)(z d/dz) applied to phi for mu = (2, 0)
        assert qs.phi_ode_residual(Partition((1, 0))).is_zero

    def test_phi_equation_sweep(self):
        for lam in enumerate_partitions(5, 3):
            assert qs.phi_ode_residual(lam).is_zero

    def test_separated_equation_frozen(self):
        # Z q = z^2/(z-1) for lam = (1, 0): check one application by hand; over (z-1)^2 it is z^2 (z-1)
        assert self.unipolys(qs.z_powers(qs.q_poly(Partition((1, 0))), 2), 2)[1] == UniPoly([0, 0, F(1)]) * UniPoly([-1, 1])

    def test_separated_equation_sweep(self):
        for lam in enumerate_partitions(5, 3):
            assert qs.residual_of_powers(lam, qs.z_powers(qs.q_poly(lam), 3)).is_zero

    def test_empty_partition_case(self):
        lam = Partition((0, 0, 0))
        assert qs.residual_of_powers(lam, qs.z_powers(qs.q_poly(lam), 3)).is_zero

    def test_no_other_eigenvalue_satisfies_it(self):
        sweep = enumerate_partitions(4, 3)
        for lam in sweep:
            for nu in sweep:
                if nu != lam and nu.weight() <= lam.weight():
                    assert not qs.residual_of_powers(lam, qs.z_powers(qs.q_poly(nu), 3)).is_zero

    @staticmethod
    def unipolys(powers, n):
        """The n+1 z_powers numerators as UniPolys, each over the one denominator."""
        columns, den = powers
        return [UniPoly([F(col[m], den) for col in columns]) for m in range(n + 1)]

    @classmethod
    def unipoly_residual(cls, lam, powers):
        """The residual as n UniPoly multiply-and-add steps: the oracle for the integer combination."""
        n = lam.n
        powers = cls.unipolys(powers, n)
        residual = powers[n]
        for k in range(1, n + 1):
            residual = residual + powers[n - k] * (qs.h_eigenvalue(lam, k) * (-1) ** k)
        return residual

    @given(st.integers(min_value=1, max_value=4), st.data())
    def test_residual_matches_the_unipoly_loop(self, n, data):
        lam = data.draw(st.sampled_from(enumerate_partitions(4, n)))
        q = data.draw(
            st.one_of(
                st.sampled_from(enumerate_partitions(4, n)).map(qs.q_poly),
                st.lists(fractions_small, max_size=5).map(UniPoly),
            )
        )
        powers = qs.z_powers(q, n)
        assert qs.residual_of_powers(lam, powers) == self.unipoly_residual(lam, powers)


class TestHamiltonians:
    def test_frozen_examples(self):
        s = sbar(1, 0)
        assert qs.apply_h(s, 1) == s * 2
        assert qs.apply_h(s, 2).is_zero
        assert qs.apply_h(MultiPoly.one(2), 1) == MultiPoly.one(2)

    def test_eigenrelation_sweep(self):
        import itertools

        for lam in enumerate_partitions(4, 3):
            mu = lam.shifted()
            f = schur_poly(lam).raw
            for j in (1, 2, 3):
                ev = sum(math.prod(s) for s in itertools.combinations(mu, j))
                assert qs.apply_h(f, j) == f * ev

    @given(symmetric_polys(max_n=4), st.data())
    def test_matches_the_full_conjugation(self, f, data):
        # the oracle builds f * a_delta and applies the one-pass H_j; a_delta
        # times the result must agree with it at strictly decreasing exponents
        f = f.rename(default_names("y", f.arity))
        j = data.draw(st.integers(min_value=1, max_value=f.arity))
        want = strict_part(qm.apply_h(f * vandermonde(f.arity), j))
        got = qs.apply_h(f, j)
        assert times_vandermonde(OrbitForm.of(got)) == want
        assert got.names == f.names

    def test_non_symmetric_input_names_n_the_operator_and_the_exponent(self):
        f = MultiPoly(3, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1, (1, 0, 0): 1})
        with pytest.raises(InvariantViolation) as err:
            qs.apply_h(f, 2)
        assert str(err.value) == (
            "conjugated Hamiltonian H_2 [s] left the symmetric ring, n=3:"
            " input is not symmetric in its first 3 of 3 slots:"
            " exponent [1, 0, 0] and a swap of it have different coefficients"
        )

    def test_eigenvalue_rejects_j_out_of_range(self):
        for j in (-1, 0, 4):
            with pytest.raises(PolyError, match="need 1 <= j <= n"):
                qs.h_eigenvalue(Partition((2, 1, 0)), j)


class TestKOperator:
    def test_frozen_example(self):
        phi = qs.phi(Partition((1, 0)))
        prod = phi.as_multipoly(2, 0) * phi.as_multipoly(2, 1)
        assert qs.apply_k(prod) == MultiPoly(2, {(0, 2): F(1, 2), (2, 0): F(-1, 2)})

    def test_kills_constants_and_balanced_monomials(self):
        assert qs.apply_k(MultiPoly.one(2)).is_zero
        assert qs.apply_k(MultiPoly(2, {(1, 1): 1})).is_zero

    def test_alternant_identity_sweep(self):
        for n in (2, 3):
            sign = -1 if (n * (n - 1) // 2) % 2 else 1
            for lam in enumerate_partitions(3, n):
                phi = qs.phi(lam)
                prod = MultiPoly.one(n)
                for i in range(n):
                    prod = prod * phi.as_multipoly(n, i)
                mu = lam.shifted()
                delta_mu = math.prod(
                    mu[i] - mu[j] for i in range(n) for j in range(i + 1, n)
                )
                assert qs.apply_k(prod) == alternant(mu, n) * F(sign, delta_mu)

    # the factors p of orbit_k: 1, sparse ones with gaps between their degrees, and the inverse's (x - 1)^(n-1)
    FACTORS = {
        "one": lambda n: UniPoly([1]),
        "gaps": lambda n: UniPoly([F(-2, 3), 0, 0, 5, 0, F(1, 2)]),
        "no-constant": lambda n: UniPoly([0, 0, 1, 0, 0, 0, F(-3, 4)]),
        "pole": qs._pole,
    }

    @given(symmetric_polys(max_n=4), st.sampled_from(sorted(FACTORS)))
    def test_orbit_rows_give_the_strictly_decreasing_coefficients(self, f, factor):
        # K_n(f prod_j p(x_j)) is antisymmetric, so these coefficients determine it;
        # with p = 1 they are the strict part of apply_k(f)
        n = f.arity
        p = self.FACTORS[factor](n)
        whole = f
        for i in range(n):
            whole = whole * p.as_multipoly(n, i)
        whole = qs.apply_k(whole)
        for i in range(n - 1):
            assert whole.permute([*range(i), i + 1, i, *range(i + 2, n)]) == -whole
        got, want = qs.orbit_k(OrbitForm.of(f), p), strict_part(whole)
        assert (got.num, got.den, got.names) == (want.num, want.den, want.names)

    def test_alternant_identity_sweep_on_orbit_rows(self):
        for n in (2, 3, 4):
            sign = -1 if (n * (n - 1) // 2) % 2 else 1
            for lam in enumerate_partitions(3, n):
                mu = lam.shifted()
                rhs = alternant(mu, n) * F(sign, vandermonde_value(mu))
                assert qs.orbit_k(OrbitForm.of(MultiPoly.one(n)), qs.phi(lam)) == strict_part(rhs)


class TestSeparationAndInverse:
    def test_frozen_products(self):
        assert qs.separate(sbar(1, 0)) == MultiPoly(
            2, {(1, 1): F(1, 4), (1, 0): F(1, 4), (0, 1): F(1, 4), (0, 0): F(1, 4)}
        )
        assert qs.separate(MultiPoly.one(2)) == MultiPoly.one(2)
        assert qs.separate(sbar(1, 1)) == MultiPoly(2, {(1, 1): 1})

    def test_inverse_frozen(self):
        g = MultiPoly(2, {(1, 1): F(1, 4), (1, 0): F(1, 4), (0, 1): F(1, 4), (0, 0): F(1, 4)})
        assert qs.separate_inverse(g) == sbar(1, 0)
        assert qs.separate_inverse(MultiPoly.one(2)) == MultiPoly.one(2)

    def test_round_trip_sweep(self):
        for n in (2, 3):
            for lam in enumerate_partitions(4, n):
                s = sbar(*lam.parts)
                assert qs.separate_inverse(qs.separate(s)) == s

    def test_round_trip_on_combinations(self):
        rng = random.Random(2)
        lams = enumerate_partitions(4, 3)
        for _ in range(4):
            f = MultiPoly.zero(3)
            for _ in range(3):
                f = f + schur_poly(rng.choice(lams)).raw * F(
                    rng.randint(-4, 4), rng.randint(1, 3)
                )
            assert qs.separate_inverse(qs.separate(f)) == f

    def test_not_in_image_detected(self):
        # z1 alone is not a symmetric product of eigenvalue polynomials
        with pytest.raises(InvariantViolation):
            qs.separate_inverse(MultiPoly.variable(0, 3))

    def test_no_variables_is_a_poly_error(self):
        with pytest.raises(PolyError, match="at least one variable"):
            qs.separate_inverse(MultiPoly.zero(0))

    @staticmethod
    def full_inverse(g):
        """a_delta times the inverse, at strictly decreasing exponents: g prod_k (x_k - 1)^(n-1), K_n, scaled."""
        n = g.arity
        h = g.rename(default_names("x", n))
        for k in range(n):
            h = h * (MultiPoly.variable(k, n) - 1) ** (n - 1)
        return strict_part(qs.apply_k(h) * F(vandermonde_value(range(n)), math.factorial(n - 1) ** n))

    @given(symmetric_polys(max_n=4), st.booleans())
    def test_matches_the_full_product_route(self, f, in_image):
        # in the image: g = separate(f); outside it: the symmetric f itself
        g = (qs.separate(f) if in_image else f).rename(default_names("z", f.arity))
        got = qs.separate_inverse(g)
        assert times_vandermonde(OrbitForm.of(got)) == self.full_inverse(g)
        assert got.names == default_names("x", f.arity)

    @given(symmetric_polys(max_n=4), st.booleans())
    def test_orbit_core_matches_the_full_product_route(self, f, in_image):
        # the core takes orbit rows: the separating map's own, or those of the symmetric f
        g = (qs.separate(f) if in_image else f).rename(default_names("z", f.arity))
        rows = spectral.orbit_separate(OrbitForm.of(f), "s", qs.q_poly) if in_image else OrbitForm.of(g)
        got = qs.orbit_separate_inverse(rows)
        assert times_vandermonde(OrbitForm.of(got)) == self.full_inverse(g)
        assert got.names == default_names("x", f.arity)

    @given(symmetric_polys(min_n=2, max_n=4), st.data())
    def test_non_symmetric_input_is_rejected(self, f, data):
        n = f.arity
        exps = st.tuples(*[st.integers(min_value=0, max_value=3)] * n).filter(lambda e: len(set(e)) > 1)
        g = f + MultiPoly(n, {data.draw(exps): data.draw(fractions_small.filter(bool))})
        with pytest.raises(InvariantViolation, match="not in the image"):
            qs.separate_inverse(g)

    def test_rejection_names_n_the_route_and_the_exponent(self):
        g = MultiPoly(3, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1, (1, 0, 0): 1})
        with pytest.raises(InvariantViolation) as err:
            qs.separate_inverse(g)
        assert str(err.value) == (
            "separate_inverse [s], n=3: input is not in the image of the separating map:"
            " it is not symmetric at exponent [1, 0, 0]"
        )


class TestSpectralQ:
    def test_diagonal_action(self):
        s = sbar(1, 0)
        q = qs.q_poly(Partition((1, 0)))
        assert qs.apply_q(s) == s.insert_slot(s.arity, "z") * q.as_multipoly(3, 2)

    def test_constant(self):
        assert qs.apply_q(MultiPoly.one(2)) == MultiPoly.one(3)

    def test_elementary_is_single_schur_component(self):
        e2 = elementary_sym(2, 3)
        q = qs.q_poly(Partition((1, 1, 0)))
        assert qs.apply_q(e2) == e2.insert_slot(e2.arity, "z") * q.as_multipoly(4, 3)


class TestLift:
    def test_frozen_example(self):
        assert qs.lift(MultiPoly.variable(0, 1)) == MultiPoly(
            2, {(1, 0): F(1, 2), (0, 1): F(1, 2)}
        )
        assert qs.lift(MultiPoly.one(1)) == MultiPoly.one(2)

    def test_lifts_basis_elements(self):
        for lam_short in enumerate_partitions(4, 2):
            lifted = qs.lift(sbar(*lam_short.parts))
            assert lifted == sbar(*lam_short.with_trailing_zero().parts)

    def test_q_at_zero_factorization(self):
        # Q at z = 0 factors through the set-last-variable-to-zero projector
        rng = random.Random(9)
        lams = enumerate_partitions(4, 3)
        for _ in range(4):
            f = MultiPoly.zero(3)
            for _ in range(2):
                f = f + schur_poly(rng.choice(lams)).raw * rng.randint(1, 4)
            at_zero = qs.apply_q(f).partial_eval({3: 0})
            assert at_zero == qs.lift(f.partial_eval({2: 0}))
