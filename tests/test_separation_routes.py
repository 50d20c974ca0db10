"""The four separation routes keep their z's in sorted rows; run whole, each gives those rows spread.

Orbit rows fix a polynomial only if it is symmetric in its z block, so a
route whose output broke that symmetry could still match the product's rows.
Here each route also runs whole, composed from the public steps that keep
every z slot (``qm.apply_q`` and ``apply_a``, with rho_0 as ``partial_eval``,
``spectral.orbit_q``/``rho0_orbit_q`` on forms without a z block,
``qe.apply_a``), and that whole output must equal its rows spread over their
orbits.  The chain suite must also still catch two planted defects, and its
traced heap stays small (a route that spread its z's again would not).  At
n=6 it runs the k = 5 and 6 links, past every golden size, and must still
give the check names and statuses recorded there.
"""

import hashlib
import json
import random
import tracemalloc
from fractions import Fraction

import pytest

from symfact import qops_elementary as qe
from symfact import qops_monomial as qm
from symfact import spectral, verify
from symfact.bases import BASIS_TAGS, OrbitForm, basis_poly
from symfact.partitions import Partition, enumerate_partitions
from symfact.poly import MultiPoly, default_names


def _named(g: MultiPoly, n: int, reverse: bool) -> MultiPoly:
    """g in z_1..z_n; a rho-Q route makes z_n first, so its slots are reversed."""
    if reverse:
        g = g.permute(list(range(n - 1, -1, -1)))
    return g.rename(default_names("z", n))


def whole_m_rho_q(f: MultiPoly) -> MultiPoly:
    n = f.arity
    for _ in range(n - 1):
        f = qm.apply_q(f, n_x=n)
    return _named(qm.apply_q(f, n_x=n).partial_eval({i: 1 for i in range(n)}), n, reverse=True)


def whole_e_rho_q(f: MultiPoly) -> MultiPoly:
    n = f.arity
    o = OrbitForm.of(f)
    for _ in range(n - 1):
        o = spectral.orbit_q(o, "E", qe.q_poly)
    return _named(spectral.rho0_orbit_q(o, "E", qe.q_poly).to_poly(), n, reverse=True)


def whole_chain(apply_a):
    def route(f: MultiPoly) -> MultiPoly:
        n = f.arity
        for k in range(n, 0, -1):
            f = apply_a(f, k, n)
        return _named(f, n, reverse=False)

    return route


ROUTES = {
    "m rho-Q": (qm.separate_via_q, whole_m_rho_q),
    "m A-chain": (qm.separate_via_chain, whole_chain(qm.apply_a)),
    "E rho-Q": (qe.separate_via_q, whole_e_rho_q),
    "E A-chain": (qe.separate_via_chain, whole_chain(qe.apply_a)),
}


def inputs(n: int) -> list[MultiPoly]:
    """Every normalized basis element of weight <= 4 in n variables, and one random symmetric polynomial."""
    elements = [basis_poly(b, lam).normalized for b in BASIS_TAGS for lam in enumerate_partitions(4, n)]
    return elements + [verify.random_symmetric(n, 4, random.Random(n), basis="s")]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("route", list(ROUTES))
def test_whole_route_is_its_rows_spread(route, n):
    rows_route, whole_route = ROUTES[route]
    for f in inputs(n):
        rows = rows_route(f)
        assert (rows.k, rows.z, rows.names) == (n, None, default_names("z", n))
        want = whole_route(f)
        got = rows.to_poly()
        assert got == want and got.names == want.names


def test_routes_agree_with_the_product_rows():
    for lam in enumerate_partitions(4, 3):
        for module in (qm, qe):
            product = spectral.orbit_product(module.q_poly(lam), 3)
            f = basis_poly("m" if module is qm else "E", lam).normalized
            assert module.separate_via_q(f) == module.separate_via_chain(f) == module.separate(f) == product


def _failed(report: dict) -> list[str]:
    return [c["name"] for c in report["checks"] if c["status"] == "fail"]


def test_a_scaled_chain_image_fails_the_chain_suite(monkeypatch):
    # A_2(e_1) scaled by (n+1)/n: every E check through the second link fails
    chain_image = qe._chain_image

    def planted(j, k, n):
        image = chain_image(j, k, n)
        return image * Fraction(n + 1, n) if (j, k) == (1, 2) else image

    qe._link_image.cache_clear()
    monkeypatch.setattr(qe, "_chain_image", planted)
    try:
        report = verify.run_suite("chain", max_weight=4, n=3)
    finally:
        qe._link_image.cache_clear()
    failed = _failed(report)
    assert report["counts"] == {"total": 82, "failed": 11}
    assert "chain link rho Q = A rho [E] generator j=1, k=2, n=3" in failed
    assert all("[E]" in name for name in failed)


@pytest.mark.parametrize("module, check", [(qm, "separation both routes and product [m]"), (qe, "separation eps/chain routes and product [E]")])
def test_a_scaled_eigenvalue_fails_the_chain_suite(monkeypatch, module, check):
    # q_(2,1,0) scaled by 3/2: the product no longer matches the route that does not read q
    q_poly = module.q_poly
    lam = Partition((2, 1, 0))
    monkeypatch.setattr(module, "q_poly", lambda mu: q_poly(mu) * Fraction(3, 2) if mu == lam else q_poly(mu))
    report = verify.run_suite("chain", max_weight=4, n=3)
    assert report["counts"] == {"total": 82, "failed": 1}
    assert _failed(report) == [f"{check} lambda=[2, 1, 0], n=3"]


# the traced peak of a warm chain suite at n=4, w=5 read 120-167 KiB with the
# z's in sorted rows, and 396-399 KiB when every route spread them (CPython 3.11)
CHAIN_PEAK_BOUND = 250 * 1024


def test_chain_suite_heap_stays_small():
    verify.run_suite("chain", max_weight=5, n=4)  # warm every cache first
    tracemalloc.start()
    try:
        report = verify.run_suite("chain", max_weight=5, n=4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report["passed"]
    assert peak < CHAIN_PEAK_BOUND, f"traced peak {peak} B"


# sha256 of the [name, status] list of run_suite("chain", max_weight=5, n=6, seed=0),
# recorded when the E chain link still built A_k(E_lam) as a whole x-monomial product
CHAIN_N6_W5 = (172, "00fe36e2e1702783299345714a68ce6f532b61dc54e514e14058d2b245727940")


def test_chain_suite_past_the_golden_sizes():
    report = verify.run_suite("chain", max_weight=5, n=6, seed=0)
    pairs = [[c["name"], c["status"]] for c in report["checks"]]
    assert report["passed"]
    assert (len(pairs), hashlib.sha256(json.dumps(pairs).encode()).hexdigest()) == CHAIN_N6_W5
