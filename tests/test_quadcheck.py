"""Integral identities against exact oracles, hand-frozen values first."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from conftest import fractions_small
from symfact import quadcheck as qc
from symfact.bases import alternant, schur_poly, vandermonde
from symfact.partitions import Partition
from symfact.poly import MultiPoly, PolyError, det


class TestDomain:
    def test_validation(self):
        with pytest.raises(PolyError):
            qc.OrderedDomain((F(2), F(1)), F(2))
        with pytest.raises(PolyError):
            qc.OrderedDomain((F(-1), F(1)), F(2))
        with pytest.raises(PolyError):
            qc.OrderedDomain((F(1), F(2)), F(1))  # needs z > 1

    def test_delta_value(self):
        dom = qc.OrderedDomain((F(1), F(2)), F(3, 2))
        assert dom.delta_value() == 3


class TestCoreAlternantIntegral:
    def test_hand_value_two_variables(self):
        # integrand x - 9/x^3 over (1, 3/2); antiderivative x^2/2 + 9/(2 x^2)
        computed, oracle, result = qc.core_alternant_integral(
            Partition((1, 0)), (1, 2), F(3, 2)
        )
        assert computed == oracle == F(-15, 8)
        assert result.error_estimate == 0.0

    def test_sweep_two_variables(self):
        for parts in [(0, 0), (2, 0), (1, 1), (2, 1), (3, 1)]:
            computed, oracle, _ = qc.core_alternant_integral(
                Partition(parts), (F(1), F(5, 2)), F(7, 4)
            )
            assert computed == oracle, parts

    def test_three_variables_exact(self):
        # exact at n = 3 too: the cell's two pieces integrate in closed form
        computed, oracle, result = qc.core_alternant_integral(
            Partition((1, 0, 0)), (1, 2, 3), F(3, 2)
        )
        assert computed == oracle == F(-7, 4)
        assert result.error_estimate == 0.0
        assert result.evaluations == len(alternant((3, 1, 0), 3).terms)

    def test_deterministic(self):
        a = qc.core_alternant_integral(Partition((2, 1, 0)), (1, 2, 3), F(3, 2))
        b = qc.core_alternant_integral(Partition((2, 1, 0)), (1, 2, 3), F(3, 2))
        assert a[0] == b[0] and a[2] == b[2]


class TestQIntegral:
    def test_hand_values_and_adjudication(self):
        f = schur_poly(Partition((1, 0))).normalized
        adj = qc.integral_q(f, F(3, 2), (1, 2))
        assert adj.oracle == F(15, 8)
        assert adj.denominator.value == 1.875
        assert abs(adj.numerator.value - 0.46875) < 1e-15
        assert adj.convention == "denominator"

    def test_tail_indicator_is_value_neutral_at_two_variables(self):
        f = schur_poly(Partition((2, 1))).normalized
        with_tail = qc.integral_q(f, F(7, 4), (F(1), F(3)))
        without = qc.integral_q(f, F(7, 4), (F(1), F(3)), tail_constraint=False)
        assert with_tail.denominator.value == without.denominator.value

    def test_three_variables(self):
        f = schur_poly(Partition((2, 1, 0))).normalized
        adj = qc.integral_q(f, F(7, 5), (1, 2, 3))
        assert adj.convention == "denominator"
        assert adj.rel_err_denominator <= 1e-6

    def test_z_equal_two_is_ambiguous(self):
        # both conventions coincide at z = 2: the adjudicator must notice
        f = schur_poly(Partition((1, 0))).normalized
        adj = qc.integral_q(f, F(2), (1, 2))
        assert adj.convention == "ambiguous"


class TestChainLinkIntegral:
    def test_hand_value(self):
        # k = 2, n = 2, lam = (1, 0), ytilde = 3, z = 2: integral -6, prefactor -1/2
        chk = qc.integral_a(Partition((1, 0)), 2, 2, (3,))
        assert chk.oracle == 3 and chk.computed.value == 3.0

    def test_constant_eigenfunction(self):
        chk = qc.integral_a(Partition((0, 0)), 2, 2, (3,))
        assert chk.oracle == 1 and chk.rel_err == 0

    def test_degenerate_first_link(self):
        chk = qc.integral_a(Partition((1, 0)), 1, 2, ())
        assert chk.oracle == F(3, 2)
        assert chk.rel_err == 0

    def test_three_variable_links(self):
        for k, tol in ((1, 0.0), (2, 1e-10), (3, 0.0)):
            chk = qc.integral_a(Partition((1, 1, 0)), k, F(3, 2), (2, 3)[: k - 1])
            assert chk.rel_err <= tol, (k, chk)
            assert chk.value == chk.oracle, (k, chk)

    def test_domain_validation(self):
        with pytest.raises(PolyError):
            qc.integral_a(Partition((1, 0)), 2, F(1, 2), (3,))  # z <= 1


class TestLiftingIntegral:
    def test_hand_value_two_variables(self):
        value, result = qc.integral_q0prime(MultiPoly.variable(0, 1), (1, 2))
        assert value == F(3, 2)
        assert result.error_estimate == 0.0

    def test_constant(self):
        value, _ = qc.integral_q0prime(MultiPoly.one(1), (1, 2))
        assert value == 1

    def test_three_variables(self):
        f = schur_poly(Partition((1, 0))).normalized
        value, _ = qc.integral_q0prime(f, (1, 2, 3))
        assert value == 2  # normalized lift evaluated at the bounds

    def test_oracle_is_the_lifted_polynomial(self):
        from symfact.partitions import enumerate_partitions

        for lam_short in enumerate_partitions(3, 2):
            f = schur_poly(lam_short).normalized
            value, _ = qc.integral_q0prime(f, (F(1), F(2), F(7, 2)))
            lifted = schur_poly(lam_short.with_trailing_zero()).normalized
            assert value == lifted.eval([F(1), F(2), F(7, 2)]), lam_short


class TestBoxIntegral:
    def test_hand_value(self):
        # int_0^1 int_1^2 (x1 - x2) = [1/2 * 1] - [1 * 3/2] = -1
        assert qc.box_integral(vandermonde(2), [(F(0), F(1)), (F(1), F(2))]) == -1


class TestDeterminantIdentities:
    def test_border_identity_smallest_case(self):
        # n = 2, k = 1: t has 2 rows, 1 column
        t = [[F(5, 3)], [F(-1, 2)]]
        assert qc.matrix_identity_check(1, t)
        assert qc.matrix_identity_check(2, t)

    def test_border_identity_random(self):
        rng = random.Random(17)
        for n in (2, 3, 4):
            for _ in range(100):
                t = [
                    [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n - 1)]
                    for _ in range(n)
                ]
                for k in range(1, n + 1):
                    assert qc.matrix_identity_check(k, t), (n, k, t)

    def test_delta_integration_smallest_case(self):
        assert qc.delta_integration_identity([F(1), F(7, 2)])

    def test_delta_integration_random(self):
        rng = random.Random(23)
        for m in (1, 2, 3):
            count = 0
            while count < 100:
                vs = sorted({F(rng.randint(-30, 30), rng.randint(1, 6)) for _ in range(m + 1)})
                if len(vs) < m + 1:
                    continue
                assert qc.delta_integration_identity(vs[: m + 1])
                count += 1

    def test_fraction_determinant(self):
        assert qc.det_fractions([[F(1), F(2)], [F(3), F(4)]]) == -2
        assert qc.det_fractions([[F(1), F(2)], [F(2), F(4)]]) == 0
        # zero pivots that need a row swap
        assert qc.det_fractions([[F(0), F(1)], [F(1), F(0)]]) == -1
        assert qc.det_fractions([[0, 0, F(1, 2)], [0, F(1, 3), 0], [F(1, 5), 0, 0]]) == F(-1, 30)
        with pytest.raises(PolyError):
            qc.det_fractions([[F(1), F(2)]])

    @given(st.data())
    def test_fraction_determinant_matches_cofactor_det(self, data):
        n = data.draw(st.integers(min_value=1, max_value=4))
        entry = st.just(F(0)) | fractions_small
        m = [[data.draw(entry) for _ in range(n)] for _ in range(n)]
        if n > 1 and data.draw(st.booleans()):
            # singular: one row a rational multiple of another
            i, k = data.draw(st.permutations(range(n)))[:2]
            c = data.draw(fractions_small)
            m[i] = [c * v for v in m[k]]
        want = det([[MultiPoly.const(0, v) for v in row] for row in m]).constant()
        assert qc.det_fractions(m) == want
