"""The orbit-coordinate spectral steps against the full-monomial forms they replace.

A diagonal Q runs on the orbit form of its input in ``symfact``; here it is
written as the full-monomial sum sum_lam b_lam(x) * tail_lam * q_lam(z)
over an expansion by lex reduction on every monomial
(``conftest.full_expand_with_tail``).  rho_0 Q_{z_1} is one fused step in
``symfact``; here it is the composition the paper writes, the last Q's full
output with its x slots then set to 1.  The inputs carry tail slots
(earlier z's) and, for the diagonal bases, are symmetric in their head
slots.  The E and s Hamiltonians, orbit rows in ``symfact``, are checked
against the same full-monomial sum with eigenvalues in place of q.  The
separating map and prod_j q(z_j), orbit rows in ``symfact``, are checked
against sums and products built one polynomial at a time, and the
products also against one ``tensor_sum`` over every monomial.  Results
must agree as polynomials and in their slot names.
"""

from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    expand_with_tail,
    fractions_small,
    full_expand_with_tail,
    head_symmetric,
    multipolys,
    outer,
    points_for,
    symmetric_polys,
)
from symfact import qops_elementary as qe
from symfact import qops_monomial as qm
from symfact import qops_schur as qs
from symfact import spectral
from symfact.bases import BASIS_TAGS, OrbitForm, basis_poly, combine, expand_in_basis
from symfact.partitions import Partition, enumerate_partitions
from symfact.poly import InvariantViolation, MultiPoly, NotSymmetric, PolyError, UniPoly, default_names, tensor_sum
from symfact.verify import BASES


def rho0(h: MultiPoly, n: int) -> MultiPoly:
    """Set the first n slots to 1."""
    return h.partial_eval({i: 1 for i in range(n)})


def assert_same(got: MultiPoly, want: MultiPoly):
    assert got == want
    assert got.names == want.names


def full_diagonal_q(f: MultiPoly, basis: str, q_poly, n_x: int) -> MultiPoly:
    """sum_lam b_lam(x) * tail_lam * q_lam(z) with every monomial of b_lam built."""
    num, den = tensor_sum(
        ((b.num, b.den), (tail.num, tail.den), (q.poly.num, q.poly.den))
        for lam, tail in full_expand_with_tail(f, basis, n_x).items()
        for b, q in ((basis_poly(basis, lam).raw, q_poly(lam)),)
    )
    return MultiPoly(f.arity + 1, {e: Fraction(c, den) for e, c in num.items()}, f.names + ("z",))


def full_diagonal_h(f: MultiPoly, basis: str, eigenvalue, n_x: int, j: int) -> MultiPoly:
    """sum_lam eigenvalue(lam, j) * b_lam(x) * tail_lam with every monomial of b_lam built."""
    acc = MultiPoly.zero(f.arity, f.names)
    for lam, tail in full_expand_with_tail(f, basis, n_x).items():
        acc = acc + outer(basis_poly(basis, lam).raw, tail) * eigenvalue(lam, j)
    return acc


def whole_orbit_q(f: MultiPoly, basis: str, q_poly, n_x: int) -> MultiPoly:
    """``spectral.orbit_q`` on the orbit form of f's first n_x slots, spread back to a whole polynomial."""
    return spectral.orbit_q(OrbitForm.of(f, n_x), basis, q_poly).to_poly()


def unfused_separate_via_q(f: MultiPoly, apply_q) -> MultiPoly:
    """rho_0 after all n Q's, the last one's output built in full; the Q's append z_n..z_1, so the slots are reversed and named at the end."""
    n = f.arity
    h = f
    for _ in range(n):
        h = apply_q(h, n_x=n)
    return rho0(h, n).permute(list(range(n - 1, -1, -1))).rename(default_names("z", n))


def looped_eigen_product(q: UniPoly, n: int) -> MultiPoly:
    """prod_j q(z_j) as a product of n one-slot embeddings."""
    names = default_names("z", n)
    acc = MultiPoly.one(n, names)
    for j in range(n):
        acc = acc * q.as_multipoly(n, j, names)
    return acc


def tensor_sum_eigen_product(q: UniPoly, n: int) -> MultiPoly:
    """prod_j q(z_j) as one tensor_sum over every monomial."""
    num, den = tensor_sum([[(q.poly.num, q.poly.den)] * n])
    return MultiPoly(n, {e: Fraction(c, den) for e, c in num.items()}, default_names("z", n))


def accumulated_separate(f: MultiPoly, basis: str, q_poly) -> MultiPoly:
    """sum_lam c_lam b_lam(1..1) prod_j q_lam(z_j), added up one partition at a time."""
    n = f.arity
    acc = MultiPoly.zero(n, default_names("z", n))
    for lam, c in full_expand_with_tail(f, basis, n).items():
        value = c.eval(()) * basis_poly(basis, lam).raw.eval([1] * n)
        acc = acc + looped_eigen_product(q_poly(lam), n) * value
    return acc


class TestProductsOfUnivariates:
    @given(
        st.lists(fractions_small, max_size=4).map(UniPoly),
        st.integers(min_value=1, max_value=4).flatmap(lambda n: points_for(n)),
    )
    def test_eigen_product(self, q, point):
        n = len(point)
        got = spectral.eigen_product(q, n)
        assert_same(got, looped_eigen_product(q, n))
        want = Fraction(1)
        for z in point:
            want *= q.eval(z)
        assert got.eval(point) == want

    @settings(max_examples=40)
    @given(symmetric_polys(max_n=5), st.sampled_from(BASIS_TAGS))
    def test_separate(self, f, basis):
        q_poly = BASES[basis].q_poly
        want = accumulated_separate(f, basis, q_poly)
        got = spectral.orbit_separate(OrbitForm.of(f), basis, q_poly)
        assert_same(got.to_poly(), want)
        # the orbit rows are the whole sum's at weakly decreasing exponents
        assert got == OrbitForm.of(want)

    @pytest.mark.parametrize("basis", BASIS_TAGS)
    @pytest.mark.parametrize("n", range(1, 6))
    def test_eigen_product_of_each_basis(self, basis, n):
        # spread out, the orbit rows are the whole product; they are its rows
        for lam in enumerate_partitions(3, n):
            q = BASES[basis].q_poly(lam)
            got, want = spectral.orbit_product(q, n), tensor_sum_eigen_product(q, n)
            assert_same(got.to_poly(), want)
            assert_same(spectral.eigen_product(q, n), want)
            assert got == OrbitForm.of(want)


class TestOrbitH:
    """The E and s Hamiltonians in orbit rows against the full-monomial sum; apply_h is orbit_h spread out."""

    @given(head_symmetric(), st.sampled_from(("E", "s")))
    def test_matches_full_monomial_form(self, case, basis):
        # the case's own basis tag is ignored: its input mixes all three bases
        _, k, h = case
        eigenvalue = BASES[basis].h_eigenvalue
        o = OrbitForm.of(h, k)
        for j in range(1, k + 1):
            got = spectral.orbit_h(o, basis, eigenvalue, j)
            assert_same(got.to_poly(), full_diagonal_h(h, basis, eigenvalue, k, j))

    @given(symmetric_polys(max_n=4), st.sampled_from(("E", "s")))
    def test_diagonal_h_on_whole_polynomials(self, f, basis):
        ops = BASES[basis]
        for j in range(1, f.arity + 1):
            want = full_diagonal_h(f, basis, ops.h_eigenvalue, f.arity, j)
            assert_same(ops.apply_h(f, j), want)
            assert spectral.orbit_h(OrbitForm.of(f), basis, ops.h_eigenvalue, j) == OrbitForm.of(want)

    def test_rejects_j_outside_the_head(self):
        o = OrbitForm.of(basis_poly("E", Partition((1, 0))).raw.insert_slot(2, "z"), 2)
        for j in (0, 3):
            with pytest.raises(PolyError, match="need 1 <= j <= n, got j="):
                spectral.orbit_h(o, "E", qe.h_eigenvalue, j)


def combined_lift(f: MultiPoly, basis: str) -> MultiPoly:
    """The lift as the coordinates c_lam v(lam) / v(lam, 0) at (lam, 0), recombined over the basis."""
    coeffs = {}
    for lam, c in expand_in_basis(f, basis).items():
        long = lam.with_trailing_zero()
        coeffs[long] = c * basis_poly(basis, lam).raw.eval([1] * lam.n) / basis_poly(basis, long).raw.eval([1] * long.n)
    return combine(basis, f.arity + 1, coeffs)


@settings(max_examples=40)
@given(symmetric_polys(max_n=3), st.sampled_from(("E", "s")))
def test_lift_matches_recombined_coordinates(f, basis):
    assert_same(spectral.lift(f, basis), combined_lift(f, basis))


class TestOrbitForm:
    @given(head_symmetric())
    def test_round_trip(self, case):
        _basis, k, h = case
        assert_same(OrbitForm.of(h, k).to_poly(), h)

    @given(head_symmetric())
    def test_expansion_matches_full_monomial_reduction(self, case):
        basis, k, h = case
        got, want = expand_with_tail(h, basis, k), full_expand_with_tail(h, basis, k)
        assert got == want
        assert all(got[lam].names == want[lam].names for lam in got)

    @given(head_symmetric())
    def test_orbit_q_matches_full_monomial_form(self, case):
        basis, k, h = case
        q_poly = BASES[basis].q_poly
        want = full_diagonal_q(h, basis, q_poly, k)
        assert_same(whole_orbit_q(h, basis, q_poly, k), want)
        if basis == "m":
            assert_same(qm.apply_q(h, n_x=k), want)
        if k == h.arity:  # the E and s apply_q take the whole polynomial as the head
            assert_same(BASES[basis].apply_q(h), want)

    def test_asymmetric_head_rejected(self):
        with pytest.raises(NotSymmetric):
            OrbitForm.of(MultiPoly(3, {(2, 1, 0): 1, (0, 0, 1): 1}), 2)


class TestFusedStep:
    @given(head_symmetric())
    def test_diagonal(self, case):
        basis, k, h = case
        q_poly = BASES[basis].q_poly
        fused = spectral.rho0_orbit_q(OrbitForm.of(h, k), basis, q_poly).to_poly()
        assert_same(fused, rho0(whole_orbit_q(h, basis, q_poly, k), k))
        assert_same(fused, rho0(full_diagonal_q(h, basis, q_poly, k), k))

    @given(multipolys(max_terms=3), st.data())
    def test_substitution_average(self, h, data):
        # the substitution average needs no symmetry in the head; the fused
        # step is the one qm.separate_via_q ends with
        k = data.draw(st.integers(min_value=1, max_value=h.arity))
        fused = qm._substitution_average(qm._form(h), k, drop=True).to_poly()
        assert_same(fused, rho0(qm.apply_q(h, n_x=k), k))


class TestSeparateViaQ:
    @settings(max_examples=30)
    @given(symmetric_polys(max_n=3))
    def test_matches_unfused_composition(self, f):
        assert_same(qm.separate_via_q(f).to_poly(), unfused_separate_via_q(f, qm.apply_q))
        orbit_q = partial(whole_orbit_q, basis="E", q_poly=qe.q_poly)
        assert_same(qe.separate_via_q(f).to_poly(), unfused_separate_via_q(f, orbit_q))

    @settings(max_examples=30)
    @given(symmetric_polys(max_n=4))
    def test_elementary_route_matches_full_monomial_composition(self, f):
        full_q = partial(full_diagonal_q, basis="E", q_poly=qe.q_poly)
        assert_same(qe.separate_via_q(f).to_poly(), unfused_separate_via_q(f, full_q))


@pytest.mark.parametrize("apply_h", [qe.apply_h, qs.apply_h], ids=["E", "s"])
def test_diagonal_h_rejects_j_out_of_range(apply_h):
    for j in (0, 3):
        with pytest.raises(PolyError, match="need 1 <= j <= n, got j="):
            apply_h(basis_poly("m", Partition((1, 0))).raw, j)


class TestSymmetryBoundary:
    """A non-symmetric input is refused where it enters, before any step runs."""

    ASYMMETRIC = MultiPoly(3, {(2, 1, 0): 1, (0, 0, 1): 1})

    @pytest.mark.parametrize(
        "call, error",
        [
            (lambda f: qs.apply_h(f, 1), InvariantViolation),
            (lambda f: qe.apply_h(f, 1), NotSymmetric),
            (lambda f: qe.apply_a(f, 3, 3), NotSymmetric),
            (lambda f: qe.apply_a(f, 2, 3), NotSymmetric),
            (qe.separate_via_q, NotSymmetric),
            (qe.separate_via_chain, NotSymmetric),
        ],
        ids=["schur-apply_h", "elementary-apply_h", "chain-link-k3", "chain-link-k2", "rho-Q-route", "chain-route"],
    )
    def test_rejected(self, call, error):
        with pytest.raises(error):
            call(self.ASYMMETRIC)
