"""The fused last step of the rho-Q route against the unfused composition.

rho_0 Q_{z_1} is one step in ``symfact``; here it is the composition the
paper writes, the last Q's full output with its x slots then set to 1.  The
inputs carry tail slots (earlier z's) and, for the diagonal bases, are
symmetric in their head slots.  Results must agree as polynomials and in
their slot names.
"""

from hypothesis import given, settings, strategies as st

from conftest import head_symmetric, multipolys, symmetric_polys
from symfact import qops_elementary as qe
from symfact import qops_monomial as qm
from symfact import spectral
from symfact.poly import MultiPoly
from symfact.verify import BASES


def rho0(h: MultiPoly, n: int) -> MultiPoly:
    """Set the first n slots to 1."""
    return h.partial_eval({i: 1 for i in range(n)})


def assert_same(got: MultiPoly, want: MultiPoly):
    assert got == want
    assert got.names == want.names


def unfused_separate_via_q(f: MultiPoly, apply_q) -> MultiPoly:
    """rho_0 after all n Q's, the last one's output built in full."""
    n = f.arity
    h = f
    for i in range(n, 0, -1):
        h = apply_q(h, n_x=n, z_name=f"z{i}")
    return rho0(h, n).permute(list(range(n - 1, -1, -1)))


class TestFusedStep:
    @given(head_symmetric())
    def test_diagonal(self, case):
        basis, k, h = case
        q_poly = BASES[basis].q_poly
        fused = spectral.rho0_diagonal_q(h, basis, q_poly, n_x=k, z_name="z1")
        assert_same(fused, rho0(BASES[basis].apply_q(h, n_x=k, z_name="z1"), k))
        assert_same(fused, rho0(spectral.diagonal_q(h, basis, q_poly, n_x=k, z_name="z1"), k))

    @given(multipolys(max_terms=3), st.data())
    def test_substitution_average(self, h, data):
        # the substitution average needs no symmetry in the head
        k = data.draw(st.integers(min_value=1, max_value=h.arity))
        assert_same(qm.apply_rho0_q(h, n_x=k, z_name="z1"), rho0(qm.apply_q(h, n_x=k, z_name="z1"), k))


class TestSeparateViaQ:
    @settings(max_examples=30)
    @given(symmetric_polys(max_n=3))
    def test_matches_unfused_composition(self, f):
        assert_same(qm.separate_via_q(f), unfused_separate_via_q(f, qm.apply_q))
        assert_same(qe.separate_via_q(f), unfused_separate_via_q(f, qe.apply_q))
