"""Inputs of the three workloads, generated from the run's seed, and the
output checks of the command-line workload.

verify-acceptance  the six verification suites at the acceptance sizes
schur-scale        the Schur layer alone, past the acceptance sizes
cli-cold           cold `python -m symfact.cli` calls, one after another

Why each was chosen, and which layer metrics should move which end-to-end
metric on which of them, is in bench/README.md.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

import oracle

WORKLOADS = ("verify-acceptance", "schur-scale", "cli-cold")

SUITES = ("eigen", "chain", "inverse", "ode", "lifting", "quadrature")
ACCEPTANCE = ((2, 6), (3, 6), (4, 5))  # (n, max weight) of each suite call

SCHUR_N, SCHUR_WEIGHT = 5, 4  # every partition of weight <= 4 at n = 5
SCHUR_LARGE = ((1, 1, 0, 0, 0, 0), (2, 1, 0, 0, 0, 0))  # n = 6 builds
SCHUR_COMBOS, SCHUR_COMBO_TERMS = 3, 3

CLI_NS, CLI_WEIGHT = (2, 3), 4
CLI_LAMBDA_CALLS, CLI_INPUT_CALLS = 20, 20


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5]), rng.randint(1, 4))


def verify_spec(seed: int) -> dict:
    return {"seed": seed, "calls": [[s, n, w] for n, w in ACCEPTANCE for s in SUITES]}


def schur_spec(seed: int) -> dict:
    rng = random.Random(seed)
    grid = oracle.partitions(SCHUR_WEIGHT, SCHUR_N)
    combos = [[[list(lam), str(_rational(rng))] for lam in rng.sample(grid, SCHUR_COMBO_TERMS)]
              for _ in range(SCHUR_COMBOS)]
    return {"grid": grid, "combos": combos, "large": list(SCHUR_LARGE)}


def _lam(parts) -> str:
    return ",".join(map(str, parts))


def cli_lambda_pool() -> list[list[str]]:
    """Every `--lambda` call the workload may draw; bench/expected.json holds
    the digest of each one's output."""
    pool = []
    for n in CLI_NS:
        for lam in oracle.partitions(CLI_WEIGHT, n):
            args = ["--lambda", _lam(lam), "--n", str(n)]
            for kind in "mEs":
                pool.append(["basis", "--kind", kind, *args])
                pool.append(["basis", "--kind", kind, *args, "--normalized"])
                pool.append(["apply-q", "--basis", kind, *args])
                pool.append(["separate", "--basis", kind, *args])
            pool.append(["invert", *args])
        for lam in oracle.partitions(CLI_WEIGHT, n - 1):
            for kind in "mEs":
                pool.append(["lift", "--basis", kind, "--lambda", _lam(lam)])
    return pool


def _input_call(rng: random.Random) -> dict:
    """An `--input -` call on a seeded symmetric polynomial.

    apply-q gets f = sum c m_lam; invert gets g = sum c prod_j q_lam(z_j),
    the image of sum c s-bar_lam under the separating map.
    """
    n = rng.choice(CLI_NS)
    lams = rng.sample(oracle.partitions(CLI_WEIGHT, n), rng.randint(1, 3))
    coeffs = [_rational(rng) for _ in lams]
    if rng.random() < 0.5:
        basis = rng.choice("mEs")
        f = {}
        for lam, c in zip(lams, coeffs):
            oracle.add_scaled(f, oracle.monomial_sum(lam), c)
        return {"argv": ["apply-q", "--basis", basis, "--input", "-"],
                "stdin": json.dumps(oracle.poly_to_json(f, "x", n)),
                "check": {"kind": "apply-q", "basis": basis, "n": n}}
    g = {}
    for lam, c in zip(lams, coeffs):
        oracle.add_scaled(g, oracle.product_of_q(oracle.schur_q(lam), n), c)
    return {"argv": ["invert", "--input", "-"],
            "stdin": json.dumps(oracle.poly_to_json(g, "z", n)),
            "check": {"kind": "invert", "n": n,
                      "components": [[list(lam), str(c)] for lam, c in zip(lams, coeffs)]}}


def cli_spec(seed: int) -> list[dict]:
    rng = random.Random(seed)
    calls = [{"argv": argv, "stdin": "", "check": {"kind": "digest"}}
             for argv in rng.sample(cli_lambda_pool(), CLI_LAMBDA_CALLS)]
    calls += [_input_call(rng) for _ in range(CLI_INPUT_CALLS)]
    rng.shuffle(calls)
    return calls


def spec(workload: str, seed: int):
    return {"verify-acceptance": verify_spec, "schur-scale": schur_spec, "cli-cold": cli_spec}[workload](seed)


def digest(data: bytes) -> str:
    """The digest bench/expected.json records for a `--lambda` call's stdout."""
    return hashlib.sha256(data).hexdigest()[:16]


def cli_output_errors(call: dict, stdout: bytes, digests: dict) -> list[str]:
    """Check one CLI call's stdout against its digest or the oracle identities."""
    check = call["check"]
    if check["kind"] == "digest":
        key = " ".join(call["argv"])
        return [] if digests.get(key) == digest(stdout) else ["output differs from the recorded digest"]
    out = json.loads(stdout)
    result = oracle.poly_from_json(out["result"])
    n = check["n"]
    errs = []
    if not oracle.is_symmetric(result, n):
        errs.append("result is not symmetric in x")
    if check["kind"] == "apply-q":
        f = oracle.poly_from_json(json.loads(call["stdin"]))
        if oracle.drop_last_at_one(result) != f:
            errs.append("Q_z f at z = 1 differs from f (q(1) = 1)")
        if check["basis"] == "m" and result != oracle.monomial_q(f, n):
            errs.append("Q_z f differs from the substitution average")
        return errs
    components = [(tuple(lam), Fraction(c)) for lam, c in check["components"]]
    if oracle.poly_from_json(out["input"]) != oracle.poly_from_json(json.loads(call["stdin"])):
        errs.append("input not echoed")
    if sum(result.values()) != sum(c for _, c in components):
        errs.append("inverse at (1,...,1) differs from sum of coefficients")
    want = {}
    for lam, c in components:
        oracle.add_scaled(want, dict(enumerate(oracle.schur_q(lam))), c)
    if {d: v for d, v in enumerate(oracle.restrict_to_first(result)) if v} != want:
        errs.append("inverse at (z,1,...,1) differs from sum c q_lam(z)")
    return errs
