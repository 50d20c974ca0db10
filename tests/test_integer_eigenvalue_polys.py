"""The eigenvalue polynomials and phi, built on ints, against their Fraction formulas."""

import math
from fractions import Fraction as F

import pytest

from symfact import qops_elementary as qe
from symfact import qops_monomial as qm
from symfact import qops_schur as qs
from symfact.partitions import enumerate_partitions
from symfact.poly import UniPoly


def phi_oracle(lam):
    """sum_j c_j z^(mu_j), c_j = prod_(k != j) (mu_j - mu_k)^(-1), one Fraction at a time."""
    mu = lam.shifted()
    coeffs = [F(0)] * (mu[0] + 1)
    for m in mu:
        denom = F(1)
        for other in mu:
            if other != m:
                denom *= m - other
        coeffs[m] = 1 / denom
    return UniPoly(coeffs)


def q_schur_oracle(lam):
    """(n-1)! phi(z) / (z-1)^(n-1), from the Fraction phi."""
    n = lam.n
    return (phi_oracle(lam) * math.factorial(n - 1)).divide_exact(UniPoly([-1, 1]) ** (n - 1))


def q_elementary_oracle(lam):
    """prod_j (1 + (z-1) j / n)^(lam_j - lam_(j+1)), a product of Fraction linear factors."""
    n = lam.n
    acc = UniPoly([1])
    for j, mult in enumerate(lam.steps(), start=1):
        if mult:
            acc = acc * UniPoly([F(n - j, n), F(j, n)]) ** mult
    return acc


def q_monomial_oracle(lam):
    """(1/n) sum_j z^(lam_j), one Fraction 1/n per part."""
    coeffs = [F(0)] * (lam.parts[0] + 1)
    for p in lam.parts:
        coeffs[p] += F(1, lam.n)
    return UniPoly(coeffs)


ROUTES = {
    "phi": (qs.phi, phi_oracle),
    "q_poly [s]": (qs.q_poly, q_schur_oracle),
    "q_poly [E]": (qe.q_poly, q_elementary_oracle),
    "q_poly [m]": (qm.q_poly, q_monomial_oracle),
}


@pytest.mark.parametrize("name", list(ROUTES))
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_int_route_matches_its_fraction_formula(name, n):
    route, oracle = ROUTES[name]
    for lam in enumerate_partitions(6, n):
        got, want = route(lam).poly, oracle(lam).poly
        assert (got.num, got.den, got.names) == (want.num, want.den, want.names), lam
