"""Integral identities against exact oracles, hand-frozen values first."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from conftest import fractions_small
from symfact import quadcheck as qc
from symfact import verify
from symfact.bases import alternant, schur_poly, vandermonde
from symfact.partitions import Partition, enumerate_partitions
from symfact.poly import MultiPoly, PolyError, det


class TestDomain:
    def test_validation(self):
        with pytest.raises(PolyError):
            qc.OrderedDomain((F(2), F(1)), F(2))
        with pytest.raises(PolyError):
            qc.OrderedDomain((F(-1), F(1)), F(2))
        with pytest.raises(PolyError):
            qc.OrderedDomain((F(1), F(2)), F(1))  # needs z > 1
        with pytest.raises(PolyError, match="at least one bound"):
            qc.OrderedDomain((), F(2))
        with pytest.raises(PolyError, match="at least one bound"):
            qc.core_alternant_integral(Partition((0,)), (), 2)
        for y, z in (((1.0, F(2)), F(3, 2)), ((F(1), F(2)), 1.5), ((F(1), 2), F(3, 2))):
            with pytest.raises(PolyError, match="must be Fractions"):
                qc.OrderedDomain(y, z)  # ints too: an int bound would take negative powers in floats

    def test_delta_value(self):
        dom = qc.OrderedDomain((F(1), F(2)), F(3, 2))
        assert dom.delta_value() == 3

    @pytest.mark.parametrize(
        "call",
        [
            lambda: qc.integral_a(Partition((1, 0, 0, 0)), 4, F(3, 2), (2, 3, 4)),
            lambda: qc.integral_q(MultiPoly.one(4), F(3, 2), (1, 2, 3, 4)),
            lambda: qc.core_alternant_integral(Partition((1, 0, 0, 0)), (1, 2, 3, 4), F(3, 2)),
        ],
        ids=["integral_a", "integral_q", "core_alternant_integral"],
    )
    def test_four_variables_rejected_before_anything_is_built(self, monkeypatch, call):
        def build(*_args, **_kwargs):
            raise AssertionError("built an integrand or oracle for a domain with no closed form")

        for name in ("schur_poly", "vandermonde", "alternant"):
            monkeypatch.setattr(qc, name, build)
        for name in ("apply_q", "phi", "q_poly"):
            monkeypatch.setattr(qc.qops_schur, name, build)
        with pytest.raises(PolyError, match="implemented for n <= 3"):
            call()


class TestCoreAlternantIntegral:
    def test_hand_value_two_variables(self):
        # integrand x - 9/x^3 over (1, 3/2); antiderivative x^2/2 + 9/(2 x^2)
        computed, oracle, result = qc.core_alternant_integral(
            Partition((1, 0)), (1, 2), F(3, 2)
        )
        assert computed == oracle == F(-15, 8)
        assert result.value == computed

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
        assert result.value == computed
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
        assert adj.denominator.value == adj.oracle

    def test_z_equal_two_is_ambiguous(self):
        # both conventions coincide at z = 2: the adjudicator must notice
        f = schur_poly(Partition((1, 0))).normalized
        adj = qc.integral_q(f, F(2), (1, 2))
        assert adj.convention == "ambiguous"


# The wider sweep behind the suite's "prefactor adjudication consistent" check:
# every partition of weight <= 4, two bound vectors and three values of z.
PREFACTOR_SWEEP = [
    (lam, y, z)
    for n in (2, 3)
    for lam in enumerate_partitions(4, n)
    for y in (tuple(range(1, n + 1)), (1, 3, 5)[:n])
    for z in (F(3, 2), F(7, 4), F(12, 5))
]


@pytest.mark.parametrize(
    "lam, y, z", PREFACTOR_SWEEP, ids=[f"{list(lam.parts)}-y{list(y)}-z{z}" for lam, y, z in PREFACTOR_SWEEP]
)
def test_prefactor_belongs_in_the_denominator(lam, y, z):
    assert qc.integral_q(schur_poly(lam).normalized, z, y).convention == "denominator"


class TestExactComparison:
    """A relative perturbation of 1e-20 is below float resolution but not below ==."""

    @pytest.fixture
    def perturbed(self, monkeypatch):
        exact = qc._delta_integral

        def off_by_a_hair(p, dom):
            result = exact(p, dom)
            return qc.QuadratureResult(result.value * (1 + F(1, 10**20)), result.evaluations)

        monkeypatch.setattr(qc, "_delta_integral", off_by_a_hair)

    def test_adjudication_sees_the_perturbation(self, perturbed):
        f = schur_poly(Partition((1, 0))).normalized
        assert qc.integral_q(f, F(3, 2), (1, 2)).convention == "ambiguous"

    def test_suite_record_fails(self, perturbed):
        report = verify.run_suite("quadrature", 1, 2)
        status = {}
        for c in report["checks"]:
            status.setdefault(c.get("identity", c["name"]), set()).add(c["status"])
        for identity in (
            "delta-constrained alternant integral",
            "Q integral (adjudicated prefactor)",
            "chain-link integral vs restriction identity",
        ):
            assert status[identity] == {"fail"}, identity
        assert status["lifting integral"] == {"pass"}  # a box integral, no delta
        assert not report["passed"]


class TestExactInputs:
    """Binary floats and bools are rejected, not converted."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda: qc.core_alternant_integral(Partition((1, 0)), (1.0, 2.0), F(3, 2)),
            lambda: qc.core_alternant_integral(Partition((1, 0)), (1, 2), 1.5),
            lambda: qc.integral_q(schur_poly(Partition((1, 0))).normalized, 1.5, (1, 2)),
            lambda: qc.integral_a(Partition((1, 0)), 2, 2, (3.0,)),
            lambda: qc.integral_a(Partition((1, 0)), 2, 1.5, (3,)),
            lambda: qc.integral_q0prime(MultiPoly.one(1), (1, 2.5)),
            lambda: qc.matrix_identity_check([[True], [F(1, 2)]]),
            lambda: qc.delta_integration_identity([1, 2.5]),
            lambda: qc.box_integral(vandermonde(2), [(F(0), 1.0), (F(1), F(2))]),
            lambda: qc.box_integral(vandermonde(2), [(F(0), F(1)), (True, F(2))]),
        ],
        ids=[
            "float-bound", "float-z", "float-z-q", "float-ytilde", "float-z_k",
            "float-lifting-bound", "bool-border-entry", "float-box-bound",
            "float-box-integral-bound", "bool-box-integral-bound",
        ],
    )
    def test_rejected(self, call):
        with pytest.raises(PolyError, match="not an int or a Fraction"):
            call()

    def test_border_identity_needs_a_row(self):
        # no rows would mean n - 1 = -1 columns
        with pytest.raises(PolyError, match="need n >= 1 rows and n-1 columns"):
            qc.matrix_identity_check([])


class TestChainLinkIntegral:
    def test_hand_value(self):
        # k = 2, n = 2, lam = (1, 0), ytilde = 3, z = 2: integral -6, prefactor -1/2
        chk = qc.integral_a(Partition((1, 0)), 2, 2, (3,))
        assert chk.oracle == 3 and chk.computed.value == 3.0

    def test_constant_eigenfunction(self):
        chk = qc.integral_a(Partition((0, 0)), 2, 2, (3,))
        assert chk.oracle == 1 and chk.computed.value == chk.oracle

    def test_degenerate_first_link(self):
        chk = qc.integral_a(Partition((1, 0)), 1, 2, ())
        assert chk.oracle == F(3, 2)
        assert chk.computed.value == chk.oracle

    def test_three_variable_links(self):
        for k in (1, 2, 3):
            chk = qc.integral_a(Partition((1, 1, 0)), k, F(3, 2), (2, 3)[: k - 1])
            assert chk.computed.value == chk.oracle, (k, chk)

    def test_domain_validation(self):
        with pytest.raises(PolyError):
            qc.integral_a(Partition((1, 0)), 2, F(1, 2), (3,))  # z <= 1
        with pytest.raises(PolyError, match="need k-1 interleaving bounds"):
            qc.integral_a(Partition((1, 0, 0)), 3, F(3, 2), (2, 3, 4))


class TestLiftingIntegral:
    def test_hand_value_two_variables(self):
        value, result = qc.integral_q0prime(MultiPoly.variable(0, 1), (1, 2))
        assert value == F(3, 2)
        assert result.value == value

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

    def test_slots_with_different_denominators(self):
        # int_{1/2}^{2/3} int_{-3/5}^{1/4} (x1^2 x2 - 3 x2^2) dx2 dx1
        #   = (37/648) (-119/800) - 3 (1/6) (1/64 + 27/125) / 3
        p = MultiPoly(2, {(2, 1): 1, (0, 2): -3})
        want = F(37, 648) * F(-119, 800) - F(1, 6) * (F(1, 64) + F(27, 125))
        assert qc.box_integral(p, [(F(1, 2), F(2, 3)), (F(-3, 5), F(1, 4))]) == want

    def test_zero_polynomial(self):
        assert qc.box_integral(MultiPoly.zero(2), [(F(0), F(1)), (1, F(5, 2))]) == 0

    @pytest.mark.parametrize("bound", [(0.5, F(1)), (F(0), True)], ids=["float", "bool"])
    def test_zero_polynomial_still_checks_its_bounds(self, bound):
        # with no terms to integrate, the bounds were never read: 0 came back
        with pytest.raises(PolyError, match="is not an int or a Fraction"):
            qc.box_integral(MultiPoly.zero(1), [bound])


class TestDeterminantIdentities:
    def test_border_identity_smallest_case(self):
        # n = 2: t has 2 rows, 1 column; checked for k = 1 and k = 2
        t = [[F(5, 3)], [F(-1, 2)]]
        assert qc.matrix_identity_check(t)

    def test_border_identity_checks_every_column_position(self, monkeypatch):
        # one difference determinant, then the bordered one with ones at k = 1, 2, 3
        seen = []
        det = qc.det_int
        monkeypatch.setattr(qc, "det_int", lambda m: seen.append(m) or det(m))
        assert qc.matrix_identity_check([[F(2), F(3)], [F(5), F(7)], [F(11), F(13)]])
        assert len(seen) == 4 and len(seen[0]) == 2
        ones = [[j for j in range(3) if all(row[j] == 1 for row in m)] for m in seen[1:]]
        assert ones == [[0], [1], [2]]

    def test_border_identity_random(self):
        rng = random.Random(17)
        for n in (2, 3, 4):
            for _ in range(100):
                t = [
                    [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n - 1)]
                    for _ in range(n)
                ]
                assert qc.matrix_identity_check(t), (n, t)

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

    def test_integer_determinant(self):
        assert qc.det_int([[1, 2], [3, 4]]) == -2
        assert qc.det_int([[1, 2], [2, 4]]) == 0
        assert qc.det_int([]) == 1
        # zero pivots that need a row swap
        assert qc.det_int([[0, 1], [1, 0]]) == -1
        assert qc.det_int([[0, 0, 15], [0, 10, 0], [6, 0, 0]]) == -900
        with pytest.raises(PolyError):
            qc.det_int([[1, 2]])

    def test_integer_determinant_leaves_its_argument(self):
        m = [[0, 2, 1], [3, 4, 5], [6, 7, 9]]
        assert qc.det_int(m) == 3
        assert m == [[0, 2, 1], [3, 4, 5], [6, 7, 9]]

    @given(st.data())
    def test_integer_determinant_matches_cofactor_det(self, data):
        n = data.draw(st.integers(min_value=1, max_value=4))
        entry = st.just(0) | st.integers(-60, 60)
        m = [[data.draw(entry) for _ in range(n)] for _ in range(n)]
        if n > 1 and data.draw(st.booleans()):
            # singular: one row a rational multiple of another, cleared of its denominator
            i, k = data.draw(st.permutations(range(n)))[:2]
            c = data.draw(fractions_small)
            m[i] = [c.numerator * v for v in m[k]]
            m[k] = [c.denominator * v for v in m[k]]
        want = det([[MultiPoly.const(0, v) for v in row] for row in m]).eval(())
        assert qc.det_int(m) == want
