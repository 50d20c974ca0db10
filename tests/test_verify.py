"""Suite runner: determinism, report shape, failure surfacing, pinned reports past the golden sizes."""

import hashlib
import json

import pytest

from symfact import bases, cli, poly, spectral, verify
from symfact import qops_elementary as qe
from symfact import qops_monomial as qm
from symfact import qops_schur as qs
from symfact.bases import OrbitForm
from symfact.partitions import enumerate_partitions
from symfact.poly import MultiPoly, accumulate


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        verify.run_suite("nope")


@pytest.mark.parametrize(
    "params",
    [{"max_weight": True}, {"n": 2.0}, {"seed": 1.5}, {"n": "2"}, {"seed": False}],
    ids=["max_weight-bool", "n-float", "seed-float", "n-str", "seed-bool"],
)
def test_parameters_must_be_plain_ints(params):
    # a bool would run as 0 or 1, a float escaped as TypeError or was accepted
    with pytest.raises(poly.PolyError, match=f"{next(iter(params))} must be an int"):
        verify.run_suite("ode", **params)


def test_chain_suite_passes_at_five_variables():
    report = verify.run_suite("chain", max_weight=4, n=5, seed=0)
    assert report["passed"] and report["counts"]["total"] == 128


def test_report_shape():
    report = verify.run_suite("ode", max_weight=2, n=2, seed=3)
    assert report["suite"] == "ode"
    assert report["params"] == {"max_weight": 2, "n": 2, "seed": 3}
    assert report["counts"]["total"] == len(report["checks"])
    assert report["passed"]


def test_deterministic_for_fixed_seed():
    a = verify.run_suite("eigen", max_weight=2, n=2, seed=5)
    b = verify.run_suite("eigen", max_weight=2, n=2, seed=5)
    assert a == b


def test_failure_carries_counterexample():
    rep = verify.Reporter()
    rep.record("good", True)
    rep.record("bad identity", False, detail="witness")
    out = rep.report("demo", {})
    assert not out["passed"]
    assert out["first_counterexample"]["name"] == "bad identity"
    assert out["counts"] == {"total": 2, "failed": 1}


def test_all_runs_every_suite():
    report = verify.run_suite("all", max_weight=1, n=2, seed=0)
    names = " ".join(c["name"] for c in report["checks"])
    for marker in ("eigenrelation", "separation", "inverse", "annihilates", "lifting", "border"):
        assert marker in names


def test_random_symmetric_is_symmetric():
    import random

    f = verify.random_symmetric(3, 4, random.Random(0), basis="s")
    assert f.is_symmetric()


def test_commutator_check_sees_operators_that_do_not_commute():
    # the check reads H_k f from the images list, so a mixed-up index would pass vacuously
    f = MultiPoly(2, {(2, 1): 1, (0, 3): 2})

    def skewed(g, j):  # x1 d/dx1 and d/dx1 do not commute
        return g.euler(0) if j == 1 else g.diff(0)

    assert not verify._h_commute([skewed(f, 1), skewed(f, 2)], skewed)
    assert verify._h_commute([qm.apply_h(f, j) for j in (1, 2)], qm.apply_h)


def q_step(rule):
    """A Q on whole polynomials and orbit rows alike: row e goes to the (exponent, weight) pairs rule(e)."""

    def apply_q(f):
        num = accumulate({}, ((e2, c * w) for e, c in f.num.items() for e2, w in rule(e)))
        names = f.names + ("z",)
        if isinstance(f, OrbitForm):
            return f._replace(num=num, names=names)
        return MultiPoly._make(len(names), num, f.den, names)

    return apply_q


COMMUTATOR_INPUT = MultiPoly(2, {(2, 1): 1, (1, 2): 1, (3, 0): 2, (0, 3): 2})


def test_q_commutator_check_sees_operators_that_do_not_commute():
    # times 1 + y z, y the previous last slot: Q_z1 Q_z2 f = f (1 + y z2)(1 + z2 z1) is not Q_z2 Q_z1 f
    skewed = q_step(lambda e: [(e + (0,), 1), (e[:-1] + (e[-1] + 1, 1), 1)])
    f = COMMUTATOR_INPUT
    for g, q in ((f, verify._steps("m", 2)[0]), (OrbitForm.of(f), verify._steps("E", 2)[0])):
        assert not verify._q_commute(skewed(g), skewed)
        assert verify._q_commute(q(g), q)


def test_q_commutator_check_applies_q_twice():
    # the check is given Q f and applies Q once more
    f = COMMUTATOR_INPUT
    for g, q in ((f, verify._steps("m", 2)[0]), (OrbitForm.of(f), verify._steps("s", 2)[0])):
        calls = []

        def counting(h, q=q):
            calls.append(h)
            return q(h)

        assert verify._q_commute(counting(g), counting)
        assert len(calls) == 2


def _failed(report: dict) -> list[str]:
    return [c["name"] for c in report["checks"] if c["status"] == "fail"]


def test_eigen_suite_applies_q_twice_per_basis_element(monkeypatch):
    # once for the eigenrelation and once more, on that image, for the commutator
    orbit_q = spectral.orbit_q
    calls = []

    def counting(o, basis, q_poly):
        calls.append((basis, "z" in o.names))
        return orbit_q(o, basis, q_poly)

    monkeypatch.setattr(spectral, "orbit_q", counting)
    report = verify.run_suite("eigen", max_weight=4, n=3)
    sweep = len(enumerate_partitions(4, 3))
    assert report["passed"]
    assert sorted(calls) == sorted([(basis, again) for basis in ("E", "s") for again in (False, True)] * sweep)


def test_a_q_that_does_not_commute_fails_the_commutator_checks(monkeypatch):
    # a second Q that also multiplies by 1 + z1, z1 the first Q's slot: Q_z1 Q_z2 f
    # is then not symmetric in z1, z2, while Q on a basis element is untouched
    orbit_q = spectral.orbit_q

    def skewed(o, basis, q_poly):
        g = orbit_q(o, basis, q_poly)
        if "z" not in o.names:
            return g
        pairs = ((e2, c) for e, c in g.num.items() for e2 in (e, e[:-2] + (e[-2] + 1, e[-1])))
        return g._replace(num=accumulate({}, pairs))

    monkeypatch.setattr(spectral, "orbit_q", skewed)
    report = verify.run_suite("eigen", max_weight=3, n=3)
    assert _failed(report) == ["[Q_z1, Q_z2] = 0 on basis [E], n=3", "[Q_z1, Q_z2] = 0 on basis [s], n=3"]


def test_a_scaled_separating_map_fails_the_composed_inverse(monkeypatch):
    # S doubling the s rows: S^-1 S f = 2 f, while the eigenvalue products, read
    # without S, still invert; the composed check must not reuse their S^-1
    orbit_separate = spectral.orbit_separate

    def scaled(o, basis, q_poly):
        g = orbit_separate(o, basis, q_poly)
        return g._replace(num={e: 2 * c for e, c in g.num.items()}) if basis == "s" else g

    monkeypatch.setattr(spectral, "orbit_separate", scaled)
    report = verify.run_suite("inverse", max_weight=3, n=3)
    sweep = enumerate_partitions(3, 3)
    assert _failed(report) == [
        *(f"inverse composed with separating map lambda={list(lam.parts)}, n=3" for lam in sweep),
        *(f"inverse round trip on random symmetric input n=3 trial={trial}" for trial in range(2)),
    ]


def clear_caches():
    """Cold caches, so that no result computed before a patch hides a slow route."""
    for module in (bases, qe, qm, qs, spectral):
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()


def test_eigen_suite_runs_without_cofactor_determinants_or_multivariate_division(monkeypatch):
    def refuse(*_args):
        raise AssertionError("the eigen suite took a slow route")

    divide_exact = MultiPoly.divide_exact

    def one_slot_only(self, den):
        if self.arity > 1:
            refuse()
        return divide_exact(self, den)

    clear_caches()
    with monkeypatch.context() as patch:
        patch.setattr(poly, "det", refuse)
        patch.setattr(poly, "_det_cofactor", refuse)
        patch.setattr(MultiPoly, "divide_exact", one_slot_only)
        guarded = verify.run_suite("eigen", max_weight=3, n=4)
    plain = verify.run_suite("eigen", max_weight=3, n=4)
    assert guarded["passed"]
    assert [c["name"] for c in guarded["checks"]] == [c["name"] for c in plain["checks"]]


@pytest.mark.parametrize("suite", ["eigen", "inverse"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_eigen_and_inverse_suites_keep_the_symmetric_side_in_orbit_rows(monkeypatch, suite, n):
    # the whole-polynomial H, K and prod_j q(z_j) are refused; the m routes stay whole
    def refuse(*_args):
        raise AssertionError(f"the {suite} suite built a whole symmetric polynomial")

    clear_caches()
    with monkeypatch.context() as patch:
        patch.setattr(qe, "apply_h", refuse)
        patch.setattr(qs, "apply_h", refuse)
        patch.setattr(spectral, "eigen_product", refuse)
        patch.setattr(qs, "apply_k", refuse)
        guarded = verify.run_suite(suite, max_weight=3, n=n)
    plain = verify.run_suite(suite, max_weight=3, n=n)
    assert guarded["passed"]
    assert [(c["name"], c["status"]) for c in guarded["checks"]] == [(c["name"], c["status"]) for c in plain["checks"]]


def test_an_asymmetric_restriction_fails_its_checks(monkeypatch, capsys):
    # s_lam + (x1 - x2)(x2 - 1) is not symmetric once x3 = 1, at k = 3, and
    # unchanged at x2 = x3 = 1: each k = 3 check fails with the reason, the
    # others pass, and verify exits 1
    x1, x2 = MultiPoly.variable(0, 3), MultiPoly.variable(1, 3)

    def skewed(lam):
        nb = bases.schur_poly(lam)
        return nb._replace(raw=nb.raw + (x1 - x2) * (x2 - 1))

    monkeypatch.setattr(verify, "schur_poly", skewed)
    report = verify.run_suite("eigen", max_weight=2, n=3)
    failed = [c for c in report["checks"] if c["status"] == "fail"]
    assert report["counts"] == {"total": 98, "failed": 4}
    assert all(c["name"].startswith("restricted-Schur determinant ratio k=3 ") for c in failed)
    assert all("is not symmetric in its first 2 of 2 slots" in c["error"] for c in failed)
    assert cli.main(["verify", "--suite", "eigen", "--max-weight", "2", "--n", "3"]) == 1
    assert json.loads(capsys.readouterr().out)["counts"] == report["counts"]


def _doubled_below_the_lead(rule):
    """A planted defect in a row rule: every coefficient but the lex-leading row's doubled."""

    def planted(*args):
        rows = rule(*args)
        lead = max(rows)
        return {e: c if e == lead else 2 * c for e, c in rows.items()}

    return planted


@pytest.mark.parametrize(
    "rule, families",
    [
        (
            "_times_elementary",
            {"[H_1, H_2] = 0 pointwise via explicit form [E], n=3": 1, "[H_1, H_3] = 0 pointwise via explicit form [E], n=3": 1},
        ),
        (
            "_schur_rows",
            {
                "Schur value-at-one closed form": 16,
                **{f"restricted-Schur determinant ratio k={k}": 6 for k in (1, 2, 3)},
            },
        ),
    ],
)
def test_a_defective_row_rule_fails_the_eigen_suite(monkeypatch, rule, families):
    # the E rows are caught only by the explicit first-order form of H_j, the
    # s rows only by the checks that reach s_lam another way: every other
    # check reads the same rows on both of its sides
    clear_caches()
    monkeypatch.setattr(bases, rule, _doubled_below_the_lead(getattr(bases, rule)))
    try:
        report = verify.run_suite("eigen", max_weight=6, n=3)
    finally:
        clear_caches()
    failed = [c["name"].split(" lambda=")[0] for c in report["checks"] if c["status"] == "fail"]
    assert report["counts"] == {"total": 442, "failed": sum(families.values())}
    assert {name: failed.count(name) for name in failed} == families


def _without_the_largest_row(kernel, step):
    """A planted defect in times_product: at one step, the lex-largest row of every nonzero result dropped."""

    def planted(o, p, s):
        num, den = kernel(o, p, s)
        if s == step and num:
            num = dict(num)
            del num[max(num)]
        return num, den

    return planted


_INVERSE_FAILURES = {
    "inverse separating map on eigenvalue products": 11,
    "inverse composed with separating map": 11,
    **{f"inverse round trip on random symmetric input n=3 trial={t}": 1 for t in (0, 1)},
}


@pytest.mark.parametrize(
    "step, suite, total, families",
    [
        (0, "eigen", 238, {f"restricted-Schur determinant ratio k={k}": 11 for k in (1, 2, 3)}),
        (
            0,
            "chain",
            82,
            {
                "separation both routes and product [m]": 11,
                "separation eps/chain routes and product [E]": 11,
                "separation rho-Q route [E]": 11,
            },
        ),
        (0, "inverse", 35, _INVERSE_FAILURES),
        (1, "inverse", 35, _INVERSE_FAILURES),
    ],
)
def test_a_defective_product_kernel_fails_its_suites(monkeypatch, step, suite, total, families):
    # step 0 is prod_j q(z_j) (spectral.orbit_product, the kernel on the row
    # 0^n) and the restricted-Schur product; the chain suite catches it because
    # its separation routes, which never call the kernel, are compared with
    # orbit_product's rows.  Step 1 is read by the inverse separating map only.
    kernel = bases.times_product
    planted = _without_the_largest_row(kernel, step)
    for module in (bases, spectral, verify, qs):
        if getattr(module, "times_product", None) is kernel:
            monkeypatch.setattr(module, "times_product", planted)
    clear_caches()
    try:
        report = verify.run_suite(suite, max_weight=4, n=3)
    finally:
        clear_caches()
    failed = [c["name"].split(" lambda=")[0] for c in report["checks"] if c["status"] == "fail"]
    assert report["counts"] == {"total": total, "failed": sum(families.values())}
    assert {name: failed.count(name) for name in failed} == families


@pytest.mark.parametrize("suite", ["eigen", "inverse"])
def test_eigen_and_inverse_suites_build_no_vandermonde_or_alternant(monkeypatch, suite):
    def refuse(*_args):
        raise AssertionError(f"the {suite} suite built a Vandermonde or an alternant")

    clear_caches()
    with monkeypatch.context() as patch:
        for module in (bases, qe, qm, qs, spectral, verify):
            for name in ("vandermonde", "alternant"):
                if hasattr(module, name):
                    patch.setattr(module, name, refuse)
        guarded = verify.run_suite(suite, max_weight=3, n=5)
    plain = verify.run_suite(suite, max_weight=3, n=5)
    assert guarded["passed"]
    assert [c["name"] for c in guarded["checks"]] == [c["name"] for c in plain["checks"]]


def test_eigen_suite_at_nine_variables():
    # the restricted-Schur checks at every k <= 9 build no 8!-term Vandermonde
    report = verify.run_suite("eigen", max_weight=0, n=9)
    assert report["passed"] and report["counts"]["total"] == 95


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


# (suite, n, max_weight) -> (check count, sha256 of the [name, status] list of
# run_suite at seed 0), recorded while quadcheck still integrated on Fractions
PAST_ACCEPTANCE = {
    ("quadrature", 7, 6): (2, "5b96fbc798666d711b1317180fb83c9c48355af41a36313d5a28301a3c618e92"),
    ("eigen", 7, 4): (468, "cbc1d622dd1e1ae716beb31d3fcfbcc0a60cbdc22907f8e014f8b9987b6ec514"),
    ("inverse", 6, 4): (38, "1b5bba50c9f5c8f0a6d963cdc0263b29f4db7066198b8d2e7e332f48f6a81534"),
    ("ode", 7, 6): (240, "6f20448e87bbc9ef664eb05857a6067193579d9ef880ace920e7335b428de9b1"),
    ("lifting", 7, 6): (153, "5702e567fbfcd6dfe9e3376d7b3b8769d39a0ae46f8f9cb2849bbfde63f36a1e"),
}


@pytest.mark.parametrize("suite, n, w", list(PAST_ACCEPTANCE), ids=[f"{s}-n{n}-w{w}" for s, n, w in PAST_ACCEPTANCE])
def test_suite_past_the_acceptance_sizes(suite, n, w):
    report = verify.run_suite(suite, max_weight=w, n=n, seed=0)
    pairs = [[c["name"], c["status"]] for c in report["checks"]]
    assert report["passed"]
    assert (len(pairs), _digest(pairs)) == PAST_ACCEPTANCE[(suite, n, w)]


# n -> (check count, sha256 of the whole run_suite("quadrature", max_weight=6, n, seed=0)
# report with sorted keys): the exact oracle strings and rendered computed values too
QUADRATURE_REPORTS = {
    2: (61, "e47774b048f0f450a34bd7d3b21c64e77d5a2b0d9543e53680ed155652f75f87"),
    3: (72, "a84de2050005453a54b9ada3e2abfca2d6ee6a6a5b364e57d13b0520687f8b5e"),
}


@pytest.mark.parametrize("n", list(QUADRATURE_REPORTS))
def test_quadrature_report_is_pinned_whole(n):
    report = verify.run_suite("quadrature", max_weight=6, n=n, seed=0)
    assert report["passed"]
    assert (len(report["checks"]), _digest(report)) == QUADRATURE_REPORTS[n]
