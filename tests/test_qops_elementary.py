"""Elementary-basis operator suite: the eps-coordinate substitutions."""

import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from conftest import elementary_generating, elementary_sym, expand_with_tail, head_symmetric, symmetric_polys

from symfact import qops_elementary as qe
from symfact import qops_monomial as qm
from symfact import spectral
from symfact.bases import OrbitForm, basis_poly, combine
from symfact.partitions import Partition, enumerate_partitions
from symfact.poly import InvariantViolation, MultiPoly, NotSymmetric, PolyError, UniPoly, default_names


def chain_image(j: int, k: int, n: int) -> MultiPoly:
    """A_k(e_j) in x-monomials, slots (x_1..x_(k-1), z_k): e_j u + e_(j-1) v, with e_k = 0 in k-1 variables."""
    z = MultiPoly.variable(k - 1, k)
    one = MultiPoly.one(k)

    def e(i: int) -> MultiPoly:
        return elementary_sym(i, k - 1).insert_slot(k - 1, "z") if i < k else MultiPoly.zero(k)

    u = one * F(n - j, n) + z * F(j, n)
    v = one * F(k - j, n) + z * F(n - k + j, n)
    return e(j) * u + e(j - 1) * v


def whole_link_image(lam: Partition, k: int, n: int) -> MultiPoly:
    """prod_j A_k(e_j)^(lam_j - lam_(j+1)) with every monomial built."""
    image = MultiPoly.one(k)
    for j, e in enumerate(lam.steps(), start=1):
        image = image * chain_image(j, k, n) ** e
    return image


def full_link(f: MultiPoly, k: int, n: int) -> MultiPoly:
    """The k-th chain link with every monomial built: sum_lam A_k(E_lam) * tail_lam."""
    out = MultiPoly.zero(f.arity, f.names)
    for lam, tail in expand_with_tail(f, "E", k).items():
        image = whole_link_image(lam, k, n)
        out = out + MultiPoly(
            f.arity, {h + t: hc * tc for h, hc in image.terms.items() for t, tc in tail.terms.items()}
        )
    return out


def assert_same(got: MultiPoly, want: MultiPoly):
    assert got == want
    assert got.names == want.names


def from_eps(p: MultiPoly) -> MultiPoly:
    """Substitute eps_j <- e_j(x): the eps monomial with exponents (k_1..k_n) is E_lam, lam_i = k_i + ... + k_n."""
    coeffs = {Partition(tuple(itertools.accumulate(reversed(exp)))[::-1]): c for exp, c in p.terms.items()}
    return combine("E", p.arity, coeffs)


def ebar(*parts):
    return basis_poly("E", Partition(parts)).normalized


class TestEpsCoordinates:
    def test_linear(self):
        f = elementary_sym(1, 2)
        assert qe.to_eps(f) == MultiPoly(2, {(1, 0): 1})

    def test_power_sum_reduction(self):
        # x1^2 + x2^2 = eps_1^2 - 2 eps_2, the hand reduction
        f = MultiPoly(2, {(2, 0): 1, (0, 2): 1})
        assert qe.to_eps(f) == MultiPoly(2, {(2, 0): 1, (0, 1): -2})

    def test_basis_element_is_a_monomial(self):
        f = basis_poly("E", Partition((2, 1))).raw
        assert qe.to_eps(f) == MultiPoly(2, {(1, 1): 1})

    def test_round_trip(self):
        rng = random.Random(3)
        lams = enumerate_partitions(5, 3)
        for _ in range(8):
            f = MultiPoly.zero(3)
            for _ in range(3):
                f = f + basis_poly("E", rng.choice(lams)).raw * F(
                    rng.randint(-3, 3), rng.randint(1, 4)
                )
            assert from_eps(qe.to_eps(f)) == f

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetric):
            qe.to_eps(MultiPoly.variable(0, 2))


class TestHamiltonians:
    def test_eigenrelation_examples(self):
        e10 = basis_poly("E", Partition((1, 0))).raw
        assert qe.apply_h(e10, 1) == e10
        assert qe.apply_h(e10, 2).is_zero

    def test_eigenrelation_sweep(self):
        for lam in enumerate_partitions(5, 3):
            f = ebar(*lam.parts)
            a, b, c = lam.parts
            for j, mult in ((1, a - b), (2, b - c), (3, c)):
                assert qe.apply_h(f, j) == f * mult

    def test_eigenvalue_rejects_j_out_of_range(self):
        for j in (-1, 0, 4):
            with pytest.raises(PolyError, match="need 1 <= j <= n"):
                qe.h_eigenvalue(Partition((2, 1, 0)), j)

    @given(symmetric_polys(max_n=4), st.data())
    def test_matches_the_eps_euler_operator(self, f, data):
        # the reference route: eps coordinates, eps_j d/deps_j, back through E_lam
        f = f.rename(default_names("y", f.arity))
        j = data.draw(st.integers(min_value=1, max_value=f.arity))
        want = from_eps(qe.to_eps(f).euler(j - 1))
        got = qe.apply_h(f, j)
        assert got == want
        assert got.names == f.names

    def test_explicit_form_at_point(self):
        # hand value: f = e_1, n = 2, x = (2, 5)
        f = elementary_sym(1, 2)
        assert qe.h_explicit_values(f, 1, [[F(2), F(5)]]) == [7]

    def test_explicit_form_matches_eps_route(self):
        rng = random.Random(11)
        lams = enumerate_partitions(4, 3)
        f = MultiPoly.zero(3)
        for _ in range(3):
            f = f + basis_poly("E", rng.choice(lams)).raw * rng.randint(1, 3)
        for j in (1, 2, 3):
            g = qe.apply_h(f, j)
            points = []
            for _ in range(10):
                pt = [F(rng.randint(1, 30), rng.randint(1, 3)) for _ in range(3)]
                if len(set(pt)) == 3:
                    points.append(pt)
            assert qe.h_explicit_values(f, j, points) == [g.eval(pt) for pt in points]

    def test_explicit_form_requires_distinct_coordinates(self):
        with pytest.raises(PolyError, match="pairwise distinct"):
            qe.h_explicit_values(elementary_sym(1, 2), 1, [[F(2), F(5)], [F(1), F(1)]])

    @pytest.mark.parametrize("point", [[0.5, 1.5], [F(2), True], [1, "3"]], ids=["float", "bool", "str"])
    def test_explicit_form_refuses_inexact_coordinates(self, point):
        # Fraction(v) took 0.5 and True: [[0.5, 1.5]] gave [2]
        with pytest.raises(PolyError, match="is not an int or a Fraction"):
            qe.h_explicit_values(elementary_sym(1, 2), 1, [point])

    def test_explicit_form_takes_int_coordinates(self):
        assert qe.h_explicit_values(elementary_sym(1, 2), 1, [[2, F(5)]]) == [7]


class TestEigenvaluePolynomial:
    def test_frozen_values(self):
        assert qe.q_poly(Partition((1, 0))) == UniPoly([F(1, 2), F(1, 2)])
        assert qe.q_poly(Partition((0, 0))) == UniPoly([1])
        assert qe.q_poly(Partition((1, 1))) == UniPoly([0, 1])

    def test_matches_restriction_oracle(self):
        for lam in enumerate_partitions(5, 3):
            restricted = ebar(*lam.parts).partial_eval({1: 1, 2: 1})
            assert qe.q_poly(lam) == UniPoly.of(restricted)

    def test_ode_residual_vanishes(self):
        for lam in enumerate_partitions(6, 4):
            assert qe.q_ode_residual(lam).is_zero

    def test_ode_residual_detects_wrong_polynomial(self):
        lam = Partition((2, 0))
        wrong = qe.q_poly(Partition((1, 1)))
        assert not qe.q_ode_residual(lam, wrong).is_zero


class TestQOperator:
    def test_scaling_of_generators(self):
        out = qe.apply_q(elementary_sym(1, 2))
        expected = MultiPoly(
            3, {(1, 0, 0): F(1, 2), (0, 1, 0): F(1, 2), (1, 0, 1): F(1, 2), (0, 1, 1): F(1, 2)}
        )
        assert out == expected
        out2 = qe.apply_q(elementary_sym(2, 2))
        assert out2 == MultiPoly(3, {(1, 1, 1): 1})

    def test_constant(self):
        assert qe.apply_q(MultiPoly.one(2)) == MultiPoly.one(3)

    def test_eigenrelation_sweep(self):
        for lam in enumerate_partitions(5, 3):
            f = ebar(*lam.parts)
            q = qe.q_poly(lam)
            assert qe.apply_q(f) == f.insert_slot(f.arity, "z") * q.as_multipoly(4, 3)

    def test_generating_function_form(self):
        # Q acts on w_n(t) as 1 + ((z-1)/n) t d/dt
        for n in (2, 3):
            w = elementary_generating(n)  # slots x..., t
            lhs = MultiPoly.zero(n + 2)
            for j in range(n + 1):
                coeff = MultiPoly(n, {e[:n]: c for e, c in w.terms.items() if e[n] == j})
                image = qe.apply_q(coeff) if j else coeff.insert_slot(n, "z")
                # reattach the t power: slots (x..., z) -> (x..., t, z)
                lhs = lhs + MultiPoly(
                    n + 2,
                    {e[:n] + (j,) + e[n:]: c for e, c in image.terms.items()},
                )
            wz = w.insert_slot(w.arity, "z")
            t_deriv = wz.euler(n)  # t d/dt
            z = MultiPoly.variable(n + 1, n + 2)
            rhs = wz + (z - 1) * t_deriv * F(1, n)
            assert lhs == rhs, n


class TestChain:
    def test_frozen_images(self):
        # k = 2, n = 2 images of the two generators
        out = qe.apply_a(elementary_sym(1, 2), 2, 2)
        assert out == MultiPoly(
            2, {(1, 1): F(1, 2), (1, 0): F(1, 2), (0, 1): F(1, 2), (0, 0): F(1, 2)}
        )
        out2 = qe.apply_a(elementary_sym(2, 2), 2, 2)
        assert out2 == MultiPoly(2, {(1, 1): 1})

    def test_chain_link_identity_on_generators(self):
        # restriction of Q equals the chain link on the restriction
        for n in (2, 3):
            for k in range(1, n + 1):
                for j in range(1, n + 1):
                    ej = elementary_sym(j, n)
                    lhs = qe.apply_q(ej).partial_eval({i: 1 for i in range(k - 1, n)})
                    rhs = qe.apply_a(qm.rho(ej, k), k, n)
                    assert lhs == rhs, (n, k, j)

    def test_requires_symmetry(self):
        with pytest.raises(NotSymmetric):
            qe.apply_a(MultiPoly.variable(0, 2), 2, 2)

    def test_link_image_is_the_rows_of_the_whole_product(self):
        for n in range(1, 6):
            for k in range(1, n + 1):
                for lam in enumerate_partitions(5, k):
                    rows = OrbitForm.of(whole_link_image(lam, k, n), k - 1)
                    assert qe._link_image(lam, k, n) == (rows.num, rows.den), (lam, k, n)

    @given(head_symmetric(), st.integers(min_value=0, max_value=1))
    def test_link_matches_full_monomial_product(self, case, extra):
        # any head-symmetric input, for a chain of n = k or k + 1 variables
        _basis, k, f = case
        n = k + extra
        assert_same(qe.apply_a(f, k, n), full_link(f, k, n))

    @settings(max_examples=30)
    @given(symmetric_polys(max_n=4))
    def test_chain_matches_full_monomial_links(self, f):
        n = f.arity
        want = f
        for k in range(n, 0, -1):
            want = full_link(want, k, n)
        assert_same(qe.separate_via_chain(f).to_poly(), want.rename(default_names("z", n)))


class TestSeparation:
    def test_frozen_products(self):
        assert qe.separate(ebar(1, 0)).to_poly() == MultiPoly(
            2, {(1, 1): F(1, 4), (1, 0): F(1, 4), (0, 1): F(1, 4), (0, 0): F(1, 4)}
        )
        assert qe.separate(MultiPoly.one(2)).to_poly() == MultiPoly.one(2)
        assert qe.separate(ebar(1, 1)).to_poly() == MultiPoly(2, {(1, 1): 1})

    def test_three_routes_agree(self):
        rng = random.Random(5)
        lams = enumerate_partitions(4, 3)
        for _ in range(4):
            f = MultiPoly.zero(3)
            for _ in range(2):
                f = f + basis_poly("E", rng.choice(lams)).raw * F(
                    rng.randint(-3, 3), rng.randint(1, 2)
                )
            subst = qe.separate(f)  # asserts chain route inside
            assert subst == qe.separate_via_q(f)

    def test_separated_products_sweep(self):
        for lam in enumerate_partitions(4, 3):
            q = qe.q_poly(lam)
            expected = MultiPoly.one(3)
            for j in range(3):
                expected = expected * q.as_multipoly(3, j)
            assert qe.separate(ebar(*lam.parts)).to_poly() == expected

    def test_route_disagreement_names_basis_n_and_routes(self, monkeypatch):
        monkeypatch.setattr(qe, "separate_via_chain", lambda f: OrbitForm.of(MultiPoly.zero(f.arity)))
        with pytest.raises(InvariantViolation) as err:
            qe.separate(ebar(1, 0))
        message = str(err.value)
        assert "[E]" in message and "n=2" in message
        assert "spectral product" in message and "A-chain" in message

    def test_route_disagreement_names_the_leading_difference(self, monkeypatch):
        # the chain gains 1/2 z1 z2 + 1 over prod_j (1 + z_j) / 2: they differ first at [1, 1]
        chain = qe.separate_via_chain
        extra = MultiPoly(2, {(1, 1): F(1, 2), (0, 0): 1})
        monkeypatch.setattr(qe, "separate_via_chain", lambda f: OrbitForm.of(chain(f).to_poly() + extra))
        with pytest.raises(InvariantViolation, match=r"A-chain at exponent \[1, 1\]: 1/4 vs 3/4$"):
            qe.separate(ebar(1, 0))

    def test_differs_from_eps_coordinates(self):
        # the two separated forms genuinely differ
        f = ebar(1, 0)
        assert qe.separate(f).to_poly() != qe.to_eps(f)


class TestLift:
    def test_frozen_examples(self):
        assert qe.lift(MultiPoly.variable(0, 1)) == MultiPoly(
            2, {(1, 0): F(1, 2), (0, 1): F(1, 2)}
        )
        assert qe.lift(MultiPoly.one(1)) == MultiPoly.one(2)
        e1bar_sq = MultiPoly(2, {(2, 0): F(1, 4), (1, 1): F(1, 2), (0, 2): F(1, 4)})
        assert qe.lift(MultiPoly(1, {(2,): 1})) == e1bar_sq

    def test_lifts_basis_elements(self):
        for lam_short in enumerate_partitions(4, 2):
            lifted = qe.lift(ebar(*lam_short.parts))
            assert lifted == ebar(*lam_short.with_trailing_zero().parts)
