"""Monomial-basis operator suite: frozen examples plus sweep identities."""

import itertools
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from conftest import multipolys
from symfact import qops_monomial as qm
from symfact import spectral
from symfact.bases import OrbitForm, basis_poly
from symfact.partitions import Partition, enumerate_partitions
from symfact.poly import InvariantViolation, MultiPoly, PolyError, UniPoly


def mbar(*parts):
    return basis_poly("m", Partition(parts)).normalized


def subset_loop_h(f: MultiPoly, j: int) -> MultiPoly:
    """H_j as a sum over the j-subsets of slots of the composed Euler operators."""
    acc = MultiPoly.zero(f.arity, f.names)
    for subset in itertools.combinations(range(f.arity), j):
        g = f
        for slot in subset:
            g = g.euler(slot)
        acc = acc + g
    return acc


class TestHamiltonians:
    def test_pure_powers(self):
        f = MultiPoly(2, {(2, 0): 1, (0, 2): 1})
        assert qm.apply_h(f, 1) == f * 2  # e_1(2,0) = 2
        assert qm.apply_h(f, 2).is_zero  # e_2(2,0) = 0

    def test_product_monomial(self):
        f = MultiPoly(2, {(1, 1): 1})
        assert qm.apply_h(f, 2) == f

    def test_per_term_eigenvalue_oracle(self):
        # independent oracle: H_j scales x^a by the elementary symmetric e_j(a)
        f = MultiPoly(3, {(3, 1, 0): F(2, 3), (1, 1, 1): -1, (0, 0, 2): 5})
        for j in (1, 2, 3):
            oracle = MultiPoly(
                3,
                {
                    exp: c * sum(math.prod(s) for s in itertools.combinations(exp, j))
                    for exp, c in f.terms.items()
                },
            )
            assert qm.apply_h(f, j) == oracle

    @given(st.integers(min_value=1, max_value=4).flatmap(lambda a: multipolys(arity=a)))
    def test_matches_subset_loop(self, f):
        # non-symmetric input, rational coefficients: the same reduced pair and names
        for j in range(1, f.arity + 1):
            got, want = qm.apply_h(f, j), subset_loop_h(f, j)
            assert (got.num, got.den, got.names) == (want.num, want.den, want.names)
            assert math.gcd(got.den, *got.num.values()) == 1

    def test_j_out_of_range(self):
        f = MultiPoly(2, {(1, 0): 1})
        for j in (0, 3):
            with pytest.raises(PolyError):
                qm.apply_h(f, j)

    def test_eigenvalue_rejects_j_out_of_range(self):
        for j in (-1, 0, 4):
            with pytest.raises(PolyError, match="need 1 <= j <= n"):
                qm.h_eigenvalue(Partition((2, 1, 0)), j)

    def test_commutators_vanish(self):
        f = MultiPoly(3, {(2, 1, 0): 1, (1, 1, 1): F(1, 2)})
        for j in (1, 2, 3):
            for k in (1, 2, 3):
                assert qm.apply_h(qm.apply_h(f, j), k) == qm.apply_h(qm.apply_h(f, k), j)


class TestEigenvaluePolynomial:
    def test_frozen_values(self):
        assert qm.q_poly(Partition((2, 0))) == UniPoly([F(1, 2), 0, F(1, 2)])
        assert qm.q_poly(Partition((0, 0, 0))) == UniPoly([1])
        assert qm.q_poly(Partition((2, 1, 0))) == UniPoly([F(1, 3), F(1, 3), F(1, 3)])

    def test_matches_restriction_oracle(self):
        # q(z) is the normalized basis polynomial at (z, 1, ..., 1)
        for lam in enumerate_partitions(5, 3):
            restricted = basis_poly("m", lam).normalized.partial_eval({1: 1, 2: 1})
            coeffs = [F(0)] * (lam.parts[0] + 1)
            for (e,), c in restricted.terms.items():
                coeffs[e] = c
            assert qm.q_poly(lam) == UniPoly(coeffs)

    def test_value_one_at_one(self):
        for lam in enumerate_partitions(6, 4):
            assert qm.q_poly(lam).eval(1) == 1


class TestQOperator:
    def test_eigenrelation_frozen(self):
        out = qm.apply_q(mbar(2, 0))
        expected = MultiPoly(
            3, {(2, 0, 0): F(1, 4), (0, 2, 0): F(1, 4), (2, 0, 2): F(1, 4), (0, 2, 2): F(1, 4)}
        )
        assert out == expected

    def test_constant(self):
        assert qm.apply_q(MultiPoly.one(2)) == MultiPoly.one(3)

    def test_nonsymmetric_input(self):
        out = qm.apply_q(MultiPoly.variable(0, 2))
        assert out == MultiPoly(3, {(1, 0, 1): F(1, 2), (1, 0, 0): F(1, 2)})

    def test_eigenrelation_sweep(self):
        for lam in enumerate_partitions(5, 3):
            f = basis_poly("m", lam).normalized
            q = qm.q_poly(lam)
            assert qm.apply_q(f) == f.insert_slot(f.arity, "z") * q.as_multipoly(4, 3)

    def test_agrees_with_spectral_route(self):
        for lam in enumerate_partitions(4, 3):
            f = basis_poly("m", lam).normalized
            assert qm.apply_q(f) == spectral.orbit_q(OrbitForm.of(f), "m", qm.q_poly).to_poly()

    def test_commutativity_on_symmetric_input(self):
        f = mbar(2, 1, 0) + mbar(1, 1, 1) * F(1, 3)
        # Q_z1 Q_z2 f and Q_z2 Q_z1 f are the same Q Q f with its two z slots swapped
        g = qm.apply_q(qm.apply_q(f, n_x=3), n_x=3)
        assert g == g.permute([0, 1, 2, 4, 3])
        assert g.names == ("x1", "x2", "x3", "z", "z")


class TestProjectorChain:
    def test_projector_action(self):
        # A_2 = (1 + P_12) / 2 at n = 2, and P_12 sends x1^2 x2 to x1^2 x2^2
        f = MultiPoly(2, {(2, 1): 1})
        assert qm.apply_a(f, 2, 2) == MultiPoly(2, {(2, 1): F(1, 2), (2, 2): F(1, 2)})

    def test_chain_value_frozen(self):
        out = qm.apply_a(mbar(2, 0), 2, 2)
        assert out == MultiPoly(
            2, {(2, 2): F(1, 4), (2, 0): F(1, 4), (0, 2): F(1, 4), (0, 0): F(1, 4)}
        )

    def test_first_link_is_identity(self):
        f = MultiPoly(2, {(2, 1): F(5, 3)})
        assert qm.apply_a(f, 1, 2) == f

    def test_inverse_round_trip(self):
        f = MultiPoly(2, {(2, 0): 1, (0, 2): 1})
        assert qm.apply_a_inv(qm.apply_a(f, 2, 2), 2, 2) == f

    @given(multipolys(max_exp=2), st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=2))
    def test_inverse_both_ways(self, f, k, extra):
        n = k + extra
        if f.arity < k:
            return
        assert qm.apply_a_inv(qm.apply_a(f, k, n), k, n) == f
        assert qm.apply_a(qm.apply_a_inv(f, k, n), k, n) == f

    @pytest.mark.parametrize("op", [qm.apply_a, qm.apply_a_inv])
    @pytest.mark.parametrize("f, k, n", [(MultiPoly.one(0), 1, 1), (MultiPoly.variable(0, 1), 2, 2)])
    def test_link_and_inverse_need_k_slots(self, op, f, k, n):
        with pytest.raises(PolyError, match="^polynomial must have at least k slots$"):
            op(f, k, n)

    @pytest.mark.parametrize("op", [qm.apply_a, qm.apply_a_inv])
    @pytest.mark.parametrize("k, n", [(0, 2), (3, 2), (1, 0)])
    def test_link_and_inverse_need_k_in_range(self, op, k, n):
        with pytest.raises(PolyError, match=f"^need 1 <= k <= n, got k={k}$"):
            op(MultiPoly.one(3), k, n)

    def test_chain_link_identity_sweep(self):
        # restriction of Q equals the chain link applied to the restriction
        n = 3
        for lam in enumerate_partitions(4, n):
            f = basis_poly("m", lam).normalized
            for k in range(1, n + 1):
                lhs = qm.apply_q(f).partial_eval({i: 1 for i in range(k - 1, n)})
                rhs = qm.apply_a(qm.rho(f, k), k, n)
                assert lhs == rhs, (lam, k)


class TestSeparation:
    def test_frozen_products(self):
        assert qm.separate(mbar(2, 0)).to_poly() == MultiPoly(
            2, {(2, 2): F(1, 4), (2, 0): F(1, 4), (0, 2): F(1, 4), (0, 0): F(1, 4)}
        )
        assert qm.separate(MultiPoly.one(2)).to_poly() == MultiPoly.one(2)
        assert qm.separate(mbar(1, 1)).to_poly() == MultiPoly(2, {(1, 1): 1})

    def test_products_of_eigenvalues_sweep(self):
        for lam in enumerate_partitions(4, 3):
            q = qm.q_poly(lam)
            expected = MultiPoly.one(3)
            for j in range(3):
                expected = expected * q.as_multipoly(3, j)
            assert qm.separate(basis_poly("m", lam).normalized).to_poly() == expected

    def test_route_check_is_active(self):
        # both routes agree on symmetric input (raises otherwise)
        f = mbar(2, 1) + mbar(1, 1) * 3
        qm.separate(f)

    def test_symmetry_required(self):
        with pytest.raises(Exception):
            qm.separate(MultiPoly.variable(0, 2))

    def test_route_disagreement_names_the_leading_difference(self, monkeypatch):
        # the rho-Q route gains 1/2 z1 z2 + 1 over prod_j (1 + z_j) / 2: they differ first at [1, 1]
        rho_q = qm.separate_via_q
        extra = MultiPoly(2, {(1, 1): F(1, 2), (0, 0): 1})
        monkeypatch.setattr(qm, "separate_via_q", lambda f: OrbitForm.of(rho_q(f).to_poly() + extra))
        with pytest.raises(InvariantViolation) as err:
            qm.separate(mbar(1, 0))
        message = str(err.value)
        assert "[m]" in message and "n=2" in message
        assert message.endswith("A-chain vs rho-Q composition at exponent [1, 1]: 1/4 vs 3/4")


class TestLift:
    def test_single_variable(self):
        assert qm.lift(MultiPoly.variable(0, 1)) == MultiPoly(2, {(1, 0): F(1, 2), (0, 1): F(1, 2)})

    def test_constant(self):
        assert qm.lift(MultiPoly.one(1)) == MultiPoly.one(2)

    def test_power(self):
        assert qm.lift(MultiPoly(1, {(2,): 1})) == MultiPoly(2, {(2, 0): F(1, 2), (0, 2): F(1, 2)})

    def test_lifts_basis_elements(self):
        for lam_short in enumerate_partitions(4, 2):
            f = basis_poly("m", lam_short).normalized
            lifted = qm.lift(f)
            assert lifted == basis_poly("m", lam_short.with_trailing_zero()).normalized
            # the insertion average is a cross-route for the generic spectral lift
            assert spectral.lift(f, "m") == lifted


def test_separation_equation_residual():
    for lam in enumerate_partitions(5, 3):
        assert qm.separation_residual(lam).is_zero
