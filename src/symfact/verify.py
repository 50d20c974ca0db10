"""Named verification suites over partition sweeps.

Each suite checks a family of exact identities (or quadrature identities
against exact oracles) and returns a deterministic report: one record per
checked identity, a pass flag, and the first counterexample on failure.
The same suites back the command-line ``verify`` subcommand and the
acceptance tests.

The symmetric side stays in orbit rows (:class:`~symfact.bases.OrbitForm`)
wherever a check can compare rows: the E and s Q and H_j eigenrelations
and their commutators run ``spectral.orbit_q`` and ``spectral.orbit_h`` on
one orbit form per basis element, and the inverse suite feeds the rows of
``spectral.orbit_product`` and ``spectral.orbit_separate`` to
``qops_schur.orbit_separate_inverse``, and the one row 0^n with phi to
``qops_schur.orbit_k``, which both read through ``bases.times_product`` at
step 1: only the strictly decreasing coefficients are built.  The m
routes (substitution average, Euler operators) are the independent routes
and keep their x's whole.  The chain suite compares the orbit rows of the
four separation routes, which keep their z's in sorted rows, with those of
``spectral.orbit_product``.  On every basis, ``[Q_z1, Q_z2] = 0`` applies Q
twice, each z slot whole, and checks that the result is symmetric in its
two z slots; it is what the routes' sorted z rows rely on for rho-Q.

Each operand is built once per suite call.  The eigen suite keeps each E and
s basis element's Q image beside its H_j images, and the commutator checks
apply Q once more to those images.  The inverse suite computes S^-1 of each
eigenvalue product once, and the "inverse composed with separating map" check
reads it again only when the separating map gives exactly the product's
rows; any other rows are inverted afresh.  The chain suite builds each Q
image of m-bar and of the e_j once for all its links, and the ode suite
builds the powers of Z on q_nu once for every lambda it tests them against.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import partial

from . import qops_elementary as qe
from . import qops_monomial as qm
from . import qops_schur as qs
from . import quadcheck as qc
from . import spectral
from .bases import (
    OrbitForm,
    basis_poly,
    combine,
    expand_in_basis,
    is_dominance_triangular,
    restricted_schur,
    schur_poly,
    times_product,
    times_vandermonde,
    value_at_one,
    vandermonde_value,
)
from .partitions import Partition, enumerate_partitions
from .poly import InvariantViolation, MultiPoly, NotDivisible, NotSymmetric, Pair, PolyError, UniPoly, accumulate, tensor_sum

SUITES = ("eigen", "chain", "inverse", "ode", "lifting", "quadrature", "all")

# Each basis tag's operator module: q_poly, apply_q, apply_h, h_eigenvalue, lift.
BASES = {"m": qm, "E": qe, "s": qs}


def _times(f: MultiPoly | OrbitForm, factor: Pair, names: tuple[str, ...] = ()) -> MultiPoly | OrbitForm:
    """f times a factor in len(names) new slots, appended last; a whole polynomial or orbit rows, as f is."""
    num, den = tensor_sum([[(f.num, f.den), factor]])
    if isinstance(f, OrbitForm):
        return OrbitForm(f.k, num, den, f.names + names)
    return MultiPoly._wrap(f.arity + len(names), num, den, f.names + names)


def random_symmetric(n: int, max_weight: int, rng: random.Random, basis: str = "m") -> MultiPoly:
    lams = enumerate_partitions(max_weight, n)
    coeffs = accumulate(
        {}, ((rng.choice(lams), Fraction(rng.randint(-5, 5), rng.randint(1, 4))) for _ in range(3))
    )
    return combine(basis, n, coeffs)


def random_poly(n: int, max_degree: int, rng: random.Random) -> MultiPoly:
    out = {}
    for _ in range(4):
        exp = tuple(rng.randint(0, max_degree // n + 1) for _ in range(n))
        out[exp] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return MultiPoly(n, out)


class Reporter:
    """Collects per-identity records and the first counterexample."""

    def __init__(self):
        self.checks: list[dict] = []

    def record(self, name: str, ok: bool, **extra):
        entry = {"name": name, "status": "pass" if ok else "fail"}
        entry.update(extra)
        self.checks.append(entry)

    def guarded(self, name: str, thunk, **extra):
        """Run a boolean thunk, converting a raised invariant, divisibility or symmetry error to a fail."""
        try:
            ok = bool(thunk())
            detail = {}
        except (InvariantViolation, NotDivisible, NotSymmetric) as exc:
            ok, detail = False, {"error": str(exc)}
        self.record(name, ok, **{**extra, **detail})

    @property
    def passed(self) -> bool:
        return all(c["status"] == "pass" for c in self.checks)

    def report(self, suite: str, params: dict) -> dict:
        failures = [c for c in self.checks if c["status"] == "fail"]
        out = {
            "suite": suite,
            "params": params,
            "checks": self.checks,
            "counts": {"total": len(self.checks), "failed": len(failures)},
            "passed": self.passed,
        }
        if failures:
            out["first_counterexample"] = failures[0]
        return out


# -- eigen: eigenrelations, commutators, bases -----------------------------------


def _steps(basis: str, n: int):
    """The (Q, H_j) suite_eigen checks on one basis: m's own routes on whole polynomials, E and s on orbit forms.

    m's Q averages over the n x slots only.
    """
    ops = BASES[basis]
    if basis == "m":
        return partial(ops.apply_q, n_x=n), ops.apply_h
    return (
        partial(spectral.orbit_q, basis=basis, q_poly=ops.q_poly),
        lambda o, j: spectral.orbit_h(o, basis, ops.h_eigenvalue, j),
    )


def suite_eigen(max_weight: int, n: int, rng: random.Random) -> Reporter:
    rep = Reporter()
    sweep = enumerate_partitions(max_weight, n)
    steps = {basis: _steps(basis, n) for basis in BASES}
    # each normalized basis element's Q image and H_1..H_n images, as its
    # steps take it, read again by the commutator checks
    q_images: dict[tuple[str, Partition], MultiPoly | OrbitForm] = {}
    images: dict[tuple[str, Partition], list[MultiPoly | OrbitForm]] = {}
    for lam in sweep:
        tag = f"lambda={list(lam.parts)}, n={n}"
        for basis, ops in BASES.items():
            nb = basis_poly(basis, lam)
            apply_q, apply_h = steps[basis]
            f = nb.normalized if basis == "m" else OrbitForm.of(nb.normalized)
            q = ops.q_poly(lam).poly

            def q_eigenrelation(apply_q=apply_q, f=f, q=q, key=(basis, lam)) -> bool:
                qf = q_images[key] = apply_q(f)
                return qf == _times(f, (q.num, q.den), ("z",))

            rep.guarded(f"Q eigenrelation [{basis}] {tag}", q_eigenrelation)
            hs = images[basis, lam] = [apply_h(f, j) for j in range(1, n + 1)]
            for j, got in enumerate(hs, start=1):
                h = ops.h_eigenvalue(lam, j)
                rep.record(f"H_{j} eigenrelation [{basis}] {tag}", got == _times(f, ({(): h.numerator}, h.denominator)))
            rep.record(
                f"self-expansion [{basis}] {tag}",
                expand_in_basis(nb.raw, basis) == {lam: Fraction(1)},
            )
        rep.record(f"Schur-in-m dominance triangularity {tag}", is_dominance_triangular(lam))
        if lam.weight() <= min(max_weight, 4):
            for k in range(1, n + 1):
                rep.guarded(f"restricted-Schur determinant ratio k={k} {tag}", partial(_restricted_ratio, lam, k))
        rep.record(
            f"Schur value-at-one closed form {tag}",
            schur_poly(lam).raw.eval([1] * n) == value_at_one("s", lam),
        )

    # commutators on spanning sets
    monomials = [exp for lam in sweep for exp in basis_poly("m", lam).raw.num]
    singles = [MultiPoly(n, {exp: 1}) for exp in monomials]
    q_m = steps["m"][0]
    ok_qq = all(_q_commute(q_m(f), q_m) for f in singles)
    rep.record(f"[Q_z1, Q_z2] = 0 on monomials, n={n}", ok_qq)
    ok_hh = all(_h_commute([qm.apply_h(f, j) for j in range(1, n + 1)], qm.apply_h) for f in singles)
    rep.record(f"[H_j, H_k] = 0 on monomials [m], n={n}", ok_hh)
    for basis in ("E", "s"):
        ok_qq = all((basis, lam) in q_images and _q_commute(q_images[basis, lam], steps[basis][0]) for lam in sweep)
        rep.record(f"[Q_z1, Q_z2] = 0 on basis [{basis}], n={n}", ok_qq)
        ok_hh = all(_h_commute(images[basis, lam], steps[basis][1]) for lam in sweep)
        rep.record(f"[H_j, H_k] = 0 on basis [{basis}], n={n}", ok_hh)
    if n >= 2:
        f = OrbitForm.of(random_symmetric(n, min(max_weight, 4), rng, basis="E"))
        hs = [steps["E"][1](f, j).to_poly() for j in range(1, n + 1)]
        for j in range(1, n + 1):
            for k in range(j + 1, n + 1):
                points = [_distinct_point(n, rng) for _ in range(20)]
                ok = qe.h_explicit_values(hs[k - 1], j, points) == qe.h_explicit_values(hs[j - 1], k, points)
                rep.record(
                    f"[H_{j}, H_{k}] = 0 pointwise via explicit form [E], n={n}", ok
                )

    # round trips on random symmetric polynomials
    for basis in BASES:
        for trial in range(3):
            f = random_symmetric(n, max_weight, rng, basis=rng.choice(("m", "E", "s")))
            rep.record(
                f"expand/reconstruct round trip [{basis}] n={n} trial={trial}",
                combine(basis, n, expand_in_basis(f, basis)) == f,
            )
    return rep


def _restricted_ratio(lam: Partition, k: int) -> bool:
    """Whether restricted_schur's numerator is a_delta times its denominator times s_lam(x_1..x_(k-1), 1..1).

    The denominator is c prod_j (x_j - 1)^(n-k+1): its product with the
    restriction is read on its orbit rows, and a_delta times that on its
    strictly decreasing coefficients; no whole product is built.
    """
    n = lam.n
    num, c = restricted_schur(lam, k)
    direct = schur_poly(lam).raw.partial_eval({i: 1 for i in range(k - 1, n)})
    rows = times_product(OrbitForm.of(direct), UniPoly([-1, 1]) ** (n - k + 1), 0)
    return num == times_vandermonde(OrbitForm(k - 1, *rows, direct.names)) * c


# the 107 distinct values a/b, a in 1..40, b in 1..4, that explicit-form points are drawn from
_POINT_VALUES = sorted({Fraction(a, b) for a in range(1, 41) for b in range(1, 5)})


def _distinct_point(n: int, rng: random.Random) -> list[Fraction]:
    """n pairwise distinct coordinates, as the explicit form of H_j needs."""
    return rng.sample(_POINT_VALUES, n)


def _h_commute(hs: list, apply_h) -> bool:
    """H_j H_k f == H_k H_j f for all j < k, given hs = [H_1 f, .., H_n f]."""
    n = len(hs)
    return all(
        apply_h(hs[k - 1], j) == apply_h(hs[j - 1], k)
        for j in range(1, n + 1)
        for k in range(j + 1, n + 1)
    )


def _q_commute(qf: MultiPoly | OrbitForm, apply_q) -> bool:
    """Q_z1 Q_z2 f == Q_z2 Q_z1 f, given qf = Q f, a whole polynomial or orbit rows, as apply_q takes it.

    g = Q qf holds the first Q's z in its second-last slot and the second's
    in its last, and Q_z2 Q_z1 f is g with those two swapped: so the
    operators commute on f iff g is symmetric in its last two slots.
    """
    g = apply_q(qf)
    return g.num == {e[:-2] + (e[-1], e[-2]): c for e, c in g.num.items()}


# -- chain: separation routes and chain-link identities ---------------------------


def suite_chain(max_weight: int, n: int, rng: random.Random) -> Reporter:
    rep = Reporter()
    sweep = enumerate_partitions(max_weight, n)
    for lam in sweep:
        tag = f"lambda={list(lam.parts)}, n={n}"
        mbar = basis_poly("m", lam).normalized
        rep.guarded(
            f"separation both routes and product [m] {tag}",
            lambda mbar=mbar, lam=lam: qm.separate(mbar) == spectral.orbit_product(qm.q_poly(lam), n),
        )
        ebar = basis_poly("E", lam).normalized
        product = spectral.orbit_product(qe.q_poly(lam), n)
        rep.guarded(
            f"separation eps/chain routes and product [E] {tag}",
            lambda ebar=ebar, product=product: qe.separate(ebar) == product,
        )
        rep.record(f"separation rho-Q route [E] {tag}", qe.separate_via_q(ebar) == product)
        if lam.weight() <= min(max_weight, 4):
            q_mbar = qm.apply_q(mbar)
            for k in range(1, n + 1):
                lhs = q_mbar.partial_eval({i: 1 for i in range(k - 1, n)})
                rhs = qm.apply_a(qm.rho(mbar, k), k, n)
                rep.record(f"chain link rho Q = A rho [m] k={k} {tag}", lhs == rhs)
    generators = [basis_poly("E", Partition((1,) * j + (0,) * (n - j))).raw for j in range(1, n + 1)]
    q_generators = [qe.apply_q(ej) for ej in generators]
    for k in range(1, n + 1):
        for j, (ej, q_ej) in enumerate(zip(generators, q_generators), start=1):
            lhs = q_ej.partial_eval({i: 1 for i in range(k - 1, n)})
            rhs = qe.apply_a(qm.rho(ej, k), k, n)
            rep.record(f"chain link rho Q = A rho [E] generator j={j}, k={k}, n={n}", lhs == rhs)
    for trial in range(3):
        f = random_poly(n, max_weight, rng)
        ok = all(
            qm.apply_a_inv(qm.apply_a(f, k, n), k, n) == f for k in range(1, n + 1)
        )
        rep.record(f"A inverse on arbitrary polynomials [m] n={n} trial={trial}", ok)
    for trial in range(3):
        f = random_symmetric(n, min(max_weight, 5), rng)
        g = f
        ok = True
        for k in range(n, 0, -1):
            g = qm.apply_a(g, k, n)
            if not g.is_symmetric(max(k - 1, 1)):
                ok = False
        rep.record(f"A-chain preserves symmetry [m] n={n} trial={trial}", ok)
    if n >= 2 and any(lam.weight() > 0 for lam in sweep):
        witness = any(
            qe.to_eps(basis_poly("E", lam).normalized)
            != spectral.orbit_separate(OrbitForm.of(basis_poly("E", lam).normalized), "E", qe.q_poly).to_poly()
            for lam in sweep
            if lam.weight() > 0
        )
        rep.record(f"the two separated forms differ [E] n={n}", witness)
    return rep


# -- inverse: the Schur-case differential inverse ---------------------------------


def suite_inverse(max_weight: int, n: int, rng: random.Random) -> Reporter:
    rep = Reporter()

    def separated(f: MultiPoly) -> OrbitForm:
        return spectral.orbit_separate(OrbitForm.of(f), "s", qs.q_poly)

    one = OrbitForm.of(MultiPoly.one(n))  # the one row 0^n, which orbit_k multiplies by prod_j phi(x_j)
    for lam in enumerate_partitions(max_weight, n):
        tag = f"lambda={list(lam.parts)}, n={n}"
        sbar = schur_poly(lam).normalized
        # the eigenvalue product's rows and their S^-1, computed once: the
        # composed check reads S^-1 again only for exactly those rows
        known: list[tuple[OrbitForm, MultiPoly]] = []

        def inverse_of_product(lam=lam, sbar=sbar, known=known) -> bool:
            product = spectral.orbit_product(qs.q_poly(lam), n)
            known.append((product, qs.orbit_separate_inverse(product)))
            return known[0][1] == sbar

        def inverse_of_separate(sbar=sbar, known=known) -> bool:
            rows = separated(sbar)
            return (known[0][1] if known and known[0][0] == rows else qs.orbit_separate_inverse(rows)) == sbar

        rep.guarded(f"inverse separating map on eigenvalue products {tag}", inverse_of_product)
        rep.guarded(f"inverse composed with separating map {tag}", inverse_of_separate)
        if lam.weight() <= min(max_weight, 4):
            # K_n prod_j phi(x_j) = ± a_mu / V(mu), and x^mu is the only strictly decreasing term of a_mu
            mu = lam.shifted()
            sign = -1 if (n * (n - 1) // 2) % 2 else 1
            rep.record(
                f"K operator on phi products {tag}",
                qs.orbit_k(one, qs.phi(lam)) == MultiPoly(n, {mu: Fraction(sign, vandermonde_value(mu))}),
            )
    for trial in range(2):
        f = random_symmetric(n, min(max_weight, 4), rng, basis="s")
        rep.guarded(
            f"inverse round trip on random symmetric input n={n} trial={trial}",
            lambda f=f: qs.orbit_separate_inverse(separated(f)) == f,
        )
    return rep


# -- ode: differential equations for the separated polynomials --------------------


def suite_ode(max_weight: int, n: int, rng: random.Random) -> Reporter:
    rep = Reporter()
    sweep = enumerate_partitions(max_weight, n)
    powers = {nu: qs.z_powers(qs.q_poly(nu), n) for nu in sweep}
    for lam in sweep:
        tag = f"lambda={list(lam.parts)}, n={n}"
        rep.guarded(
            f"phi moment conditions and divisibility {tag}",
            lambda lam=lam: qs.q_poly(lam).eval(1) == 1,
        )
        rep.record(f"Euler factorization annihilates phi {tag}", qs.phi_ode_residual(lam).is_zero)
        rep.record(
            f"separated equation annihilates q [s] {tag}",
            qs.residual_of_powers(lam, powers[lam]).is_zero,
        )
        rep.record(f"first-order equation residual [E] {tag}", qe.q_ode_residual(lam).is_zero)
        rep.record(f"Euler factorization annihilates q [m] {tag}", qm.separation_residual(lam).is_zero)
        rep.record(
            f"normalization q(1) = 1 all bases {tag}",
            qm.q_poly(lam).eval(1) == 1
            and qe.q_poly(lam).eval(1) == 1
            and qs.q_poly(lam).eval(1) == 1,
        )
        rep.guarded(
            f"eigenvalue polynomial route equality [s] {tag}",
            lambda lam=lam: qs.q_poly(lam) == qs.q_via_restriction(lam)
            and (n < 2 or qs.q_poly(lam) == qs.q_via_restricted_determinant(lam)),
        )
    for lam in sweep:
        others = [nu for nu in sweep if nu != lam and nu.weight() <= lam.weight()]
        ok = all(not qs.residual_of_powers(lam, powers[nu]).is_zero for nu in others)
        rep.record(
            f"no other swept eigenvalue solves the separated equation lambda={list(lam.parts)}, n={n}",
            ok,
        )
    return rep


# -- lifting: the variable-adding operator -----------------------------------------


def suite_lifting(max_weight: int, n: int, rng: random.Random) -> Reporter:
    rep = Reporter()
    if n < 2:
        rep.record(f"lifting needs n >= 2, trivially true for n={n}", True)
        return rep
    for lam_short in enumerate_partitions(max_weight, n - 1):
        lam = lam_short.with_trailing_zero()
        tag = f"lambda'={list(lam_short.parts)}, n={n}"
        for basis, ops in BASES.items():
            short = basis_poly(basis, lam_short).normalized
            full = basis_poly(basis, lam).normalized
            rep.guarded(f"lifting on normalized basis [{basis}] {tag}", lambda lift=ops.lift, short=short, full=full: lift(short) == full)
        rep.record(
            f"q(0) matches the closed lifting value {tag}",
            qs.q_poly(lam).eval(0) == qs.q_at_zero(lam),
        )
    for lam in enumerate_partitions(max_weight, n):
        rep.record(
            f"q(0) vanishes iff the last part does lambda={list(lam.parts)}, n={n}",
            qs.q_poly(lam).eval(0) == qs.q_at_zero(lam),
        )
    for trial in range(3):
        f = random_symmetric(n, min(max_weight, 4), rng, basis="s")
        at_zero = qs.apply_q(f).partial_eval({n: 0})
        projected = f.partial_eval({n - 1: 0})
        rep.guarded(
            f"Q at z=0 factors through the last-variable projector n={n} trial={trial}",
            lambda at_zero=at_zero, projected=projected: at_zero == qs.lift(projected),
        )
    return rep


# -- quadrature: integral identities against exact oracles --------------------------


def _quad_record(rep: Reporter, identity: str, n: int, lam, params: dict, computed: Fraction, oracle: Fraction, convention: str | None = None):
    """Pass when ``computed == oracle`` exactly; ``computed`` and ``relErr`` are floats rendered for reading."""
    rel_err = abs(computed - oracle) / abs(oracle) if oracle else abs(computed)
    entry = {
        "identity": identity,
        "n": n,
        "lambda": list(lam.parts) if lam is not None else None,
        "params": params,
        "oracle": str(oracle),
        "computed": float(computed),
        "relErr": float(rel_err),
        "convention": convention,
    }
    rep.record(f"{identity} n={n} lambda={entry['lambda']} {params}", computed == oracle, **entry)


def suite_quadrature(max_weight: int, n: int, rng: random.Random) -> Reporter:
    rep = Reporter()
    if n in (2, 3):
        lam_sweep = [lam for lam in enumerate_partitions(min(max_weight, 3), n)]
        y = tuple(Fraction(i + 1) for i in range(n))
        zs = (Fraction(3, 2), Fraction(7, 4))
        for lam in lam_sweep:
            for z in zs:
                computed, oracle, _ = qc.core_alternant_integral(lam, y, z)
                _quad_record(
                    rep, "delta-constrained alternant integral", n, lam,
                    {"y": [str(v) for v in y], "z": str(z)}, computed, oracle,
                )
        # prefactor adjudication for the Q integral
        conventions = set()
        triples = 0
        ys = [y, tuple(Fraction(v) for v in ([1, 3] if n == 2 else [1, 3, 5]))]
        for lam in lam_sweep:
            for yy in ys:
                for z in zs:
                    adj = qc.integral_q(schur_poly(lam).normalized, z, yy)
                    triples += 1
                    conventions.add(adj.convention)
                    _quad_record(
                        rep, "Q integral (adjudicated prefactor)", n, lam,
                        {"y": [str(v) for v in yy], "z": str(z)},
                        adj.denominator.value, adj.oracle, convention=adj.convention,
                    )
        rep.record(
            f"prefactor adjudication consistent over {triples} triples n={n}",
            conventions == {"denominator"},
            convention=sorted(conventions),
        )
        # tail-indicator neutrality (n = 2 closed form)
        if n == 2:
            for lam in lam_sweep:
                with_tail = qc.integral_q(schur_poly(lam).normalized, Fraction(3, 2), y)
                without = qc.integral_q(
                    schur_poly(lam).normalized, Fraction(3, 2), y, tail_constraint=False
                )
                rep.record(
                    f"tail indicator is value-neutral lambda={list(lam.parts)}, n=2",
                    with_tail.denominator.value == without.denominator.value,
                )
        # chain-link integrals
        ytilde_full = tuple(Fraction(2 * i + 3) for i in range(n - 1))
        for lam in lam_sweep:
            for k in range(1, n + 1):
                yt = ytilde_full[: k - 1]
                chk = qc.integral_a(lam, k, Fraction(3, 2), yt)
                _quad_record(
                    rep, "chain-link integral vs restriction identity", n, lam,
                    {"k": k, "ytilde": [str(v) for v in yt], "z_k": "3/2"},
                    chk.computed.value, chk.oracle,
                )
        # lifting integrals (exact box integration)
        for lam_short in enumerate_partitions(min(max_weight, 3), n - 1):
            f = schur_poly(lam_short).normalized
            value, _ = qc.integral_q0prime(f, y)
            oracle = schur_poly(lam_short.with_trailing_zero()).normalized.eval(y)
            _quad_record(rep, "lifting integral", n, lam_short, {"y": [str(v) for v in y]}, value, oracle)
    # determinant identities (exact, any n >= 2)
    if n >= 2:
        ok_border = True
        ok_delta = True
        for _ in range(100):
            t = [
                [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n - 1)]
                for _ in range(n)
            ]
            if not qc.matrix_identity_check(t):
                ok_border = False
            vs = sorted({Fraction(rng.randint(-30, 30), rng.randint(1, 6)) for _ in range(n + 2)})
            if len(vs) >= n:
                if not qc.delta_integration_identity(vs[:n]):
                    ok_delta = False
        rep.record(f"border matrix identity on 100 random instances n={n}", ok_border)
        rep.record(f"Vandermonde box-integration identity on 100 random instances n={n}", ok_delta)
    return rep


_SUITE_FUNCS = {
    "eigen": suite_eigen,
    "chain": suite_chain,
    "inverse": suite_inverse,
    "ode": suite_ode,
    "lifting": suite_lifting,
    "quadrature": suite_quadrature,
}


def run_suite(name: str, max_weight: int = 4, n: int = 3, seed: int = 0) -> dict:
    """Run one named suite (or all of them) at a single variable count."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITES}")
    for key, value in (("max_weight", max_weight), ("n", n), ("seed", seed)):
        if type(value) is not int:
            raise PolyError(f"{key} must be an int, got {value!r}")
    if max_weight < 0 or n < 1:
        raise PolyError("need max_weight >= 0 and n >= 1")
    params = {"max_weight": max_weight, "n": n, "seed": seed}
    if name == "all":
        rep = Reporter()
        for sub in SUITES[:-1]:
            sub_rep = _SUITE_FUNCS[sub](max_weight, n, random.Random(seed))
            rep.checks.extend(sub_rep.checks)
        return rep.report("all", params)
    rep = _SUITE_FUNCS[name](max_weight, n, random.Random(seed))
    return rep.report(name, params)
