"""Acceptance criteria: the full identity sweeps, all at zero tolerance.

Each criterion prints one PASS/FAIL line (visible with ``pytest -s``).  The
algebraic criteria are exact polynomial identities over rational arithmetic.
The quadrature criteria are exact too: every integral is a closed form (at
n = 3 over the two pieces of the cell on either side of the hyperbola kink)
computed as a ``Fraction``, and its status is decided by ``==`` against an
exact oracle.
"""

import time

import pytest

from symfact import verify

N_VALUES = (2, 3, 4)

_TIMINGS: dict[str, float] = {}


def _collect(suite, max_weight, n_values=N_VALUES, seed=0):
    start = time.time()
    reports = {}
    for n in n_values:
        reports[n] = verify.run_suite(suite, max_weight=max_weight, n=n, seed=seed)
    _TIMINGS[suite] = time.time() - start
    return reports


@pytest.fixture(scope="module")
def eigen_reports():
    return _collect("eigen", max_weight=6)


@pytest.fixture(scope="module")
def chain_reports():
    return _collect("chain", max_weight=6)


@pytest.fixture(scope="module")
def inverse_reports():
    return _collect("inverse", max_weight=5)


@pytest.fixture(scope="module")
def ode_reports():
    return _collect("ode", max_weight=6)


@pytest.fixture(scope="module")
def lifting_reports():
    return _collect("lifting", max_weight=6)


@pytest.fixture(scope="module")
def quadrature_reports():
    return _collect("quadrature", max_weight=3, n_values=(2, 3, 4))


def _assert_all(reports, predicate, criterion, description):
    checked = 0
    failed = []
    for n, report in reports.items():
        for check in report["checks"]:
            if predicate(check["name"]):
                checked += 1
                if check["status"] != "pass":
                    failed.append(check)
    status = "PASS" if checked and not failed else "FAIL"
    print(f"criterion {criterion}: {status} ({checked} checks) {description}")
    assert checked, f"criterion {criterion} matched no checks"
    assert not failed, f"criterion {criterion} failures: {failed[:3]}"


def test_criterion_01_eigenrelations(eigen_reports):
    _assert_all(
        eigen_reports,
        lambda name: name.startswith("Q eigenrelation") or " eigenrelation [" in name,
        1,
        "Q and H eigenrelations, all bases, |lambda| <= 6, n in {2,3,4}, exact",
    )
    assert _TIMINGS["eigen"] < 120


def test_criterion_02_separation_routes(chain_reports):
    _assert_all(
        chain_reports,
        lambda name: name.startswith("separation"),
        2,
        "separating map equals eigenvalue products via both routes, m and E",
    )


def test_criterion_03_commutativity(eigen_reports):
    _assert_all(
        eigen_reports,
        lambda name: name.startswith("[Q_z1, Q_z2]") or name.startswith("[H_"),
        3,
        "Q and H commutators vanish on spanning sets, degree <= 6, n <= 4",
    )


def test_criterion_04_schur_inversion(inverse_reports):
    _assert_all(
        inverse_reports,
        lambda name: name.startswith("inverse") or name.startswith("K operator"),
        4,
        "inverse separating map, round trips, and the K-operator identity",
    )


def test_criterion_05_ode_suite(ode_reports):
    _assert_all(
        ode_reports,
        lambda name: name.startswith(("phi moment", "Euler factorization", "separated equation", "first-order equation", "normalization")),
        5,
        "differential equations and moment conditions for the separated polynomials",
    )


def test_criterion_06_lifting(lifting_reports):
    _assert_all(
        lifting_reports,
        lambda name: name.startswith(("lifting on normalized basis", "q(0)", "Q at z=0")),
        6,
        "variable-adding operators in all bases and the z = 0 factorization",
    )


def test_criterion_07_restricted_schur(eigen_reports):
    _assert_all(
        eigen_reports,
        lambda name: name.startswith(("restricted-Schur", "Schur value-at-one")),
        7,
        "restricted determinant ratio and the closed normalization formula",
    )


def test_criterion_08_quadrature(quadrature_reports):
    _assert_all(
        {n: r for n, r in quadrature_reports.items() if n in (2, 3)},
        lambda name: name.startswith(
            ("delta-constrained", "Q integral", "chain-link integral", "lifting integral", "prefactor adjudication", "tail indicator")
        ),
        8,
        "integral identities at n = 2 and n = 3, exact (==), with prefactor adjudication",
    )
    # the adjudication must cover at least 20 triples and pick one convention
    for n in (2, 3):
        checks = quadrature_reports[n]["checks"]
        adjudicated = [
            c for c in checks if c.get("identity") == "Q integral (adjudicated prefactor)"
        ]
        if n == 2:
            assert len(adjudicated) >= 20
        assert {c["convention"] for c in adjudicated} == {"denominator"}
    assert _TIMINGS["quadrature"] < 300


def test_criterion_09_determinant_identities(quadrature_reports):
    _assert_all(
        quadrature_reports,
        lambda name: name.startswith(("border matrix identity", "Vandermonde box-integration")),
        9,
        "border matrix and Vandermonde integration identities, 100 random instances, n <= 4",
    )


def test_criterion_10_roundtrip_triangularity(eigen_reports):
    _assert_all(
        eigen_reports,
        lambda name: name.startswith(("expand/reconstruct", "Schur-in-m", "self-expansion")),
        10,
        "expansion round trips and dominance triangularity of Schur coefficients",
    )
