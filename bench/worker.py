"""One measured process of the benchmark, started fresh so symfact's caches start cold.

    worker.py probe WORKLOAD        import what WORKLOAD imports, report when done
    worker.py pass WORKLOAD [trace] run one pass over the JSON spec read on stdin
    worker.py cli ARG...            a traced `symfact` command-line call

`probe` and `pass` print one JSON line.  `ready` is the monotonic clock
(CLOCK_MONOTONIC, shared by all processes) when the imports finished, so the
parent gets set-up time as `ready` minus the moment it spawned the process.
Each operation is timed around the library calls alone; its outputs are
checked afterwards, outside the timed region, against bench/oracle.py and
the digests in bench/expected.json.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
TRACE_MARK = "#bench-trace "


def import_workload(workload: str):
    """The imports a user of WORKLOAD pays for.  schur-scale stays clear of
    symfact.verify, which pulls in scipy."""
    if workload == "verify-acceptance":
        import symfact.verify  # noqa: F401
    elif workload == "schur-scale":
        import symfact.bases, symfact.qops_schur  # noqa: F401,E401
    elif workload == "cli-cold":
        import symfact.cli  # noqa: F401
    else:
        raise SystemExit(f"unknown workload {workload!r}")


def check_digest(checks: list[dict]) -> str:
    """Digest of a report's check names and statuses, in order."""
    pairs = [[c["name"], c["status"]] for c in checks]
    return hashlib.sha256(json.dumps(pairs).encode()).hexdigest()


def run_op(ops: list, name: str, fn, check) -> dict:
    """Time fn() alone, then record check(result) -- a list of error strings."""
    start = time.perf_counter()
    try:
        result = fn()
    except Exception as exc:  # a failed operation is counted, the pass goes on
        errors = [f"{type(exc).__name__}: {exc}"]
    else:
        errors = None
    record = {"op": name, "s": time.perf_counter() - start}
    if errors is None:
        try:
            errors = check(result, record)
        except Exception as exc:
            errors = [f"output check raised {type(exc).__name__}: {exc}"]
    record["errors"] = errors
    ops.append(record)
    return record


def verify_pass(spec: dict, ops: list):
    from symfact import verify

    with open(os.path.join(HERE, "expected.json")) as fh:
        expected = json.load(fh)["verify"]

    def check(report, record, want):
        record["checks"] = len(report["checks"])
        errors = []
        if not report["passed"]:
            errors.append(f"report failed: {report['first_counterexample']['name']}")
        if len(report["checks"]) != want["checks"] or check_digest(report["checks"]) != want["sha256"]:
            errors.append("check names or statuses differ from the recorded list")
        return errors

    for suite, n, weight in spec["calls"]:
        key = f"{suite}/n={n}/w={weight}"
        run_op(ops, key,
               lambda: verify.run_suite(suite, max_weight=weight, n=n, seed=spec["seed"]),
               lambda report, record: check(report, record, expected[key]))


def schur_pass(spec: dict, ops: list):
    import oracle
    from symfact import bases, qops_schur
    from symfact.partitions import Partition
    from symfact.poly import MultiPoly

    def schur_errors(lam, built) -> list[str]:
        """s_lam is symmetric, has leading term x^lam, and s_lam(z,1..1)/s_lam(1..1) = q_lam."""
        errs = []
        if built.raw.terms.get(lam) != 1:
            errs.append(f"coefficient of x^{lam} is not 1")
        if not oracle.is_symmetric(built.raw.terms):
            errs.append("not symmetric")
        if oracle.restrict_to_first(built.normalized.terms) != oracle.schur_q(lam):
            errs.append("restriction to (z,1,...,1) differs from q_lam")
        return errs

    def check_case(lam, result, record):
        built, hs, inverse = result
        errs = schur_errors(lam, built)
        mu = oracle.shifted(lam)
        for j, h in enumerate(hs, start=1):
            e_j = oracle.elementary(mu, j)
            if h.terms != {exp: c * e_j for exp, c in built.raw.terms.items() if e_j}:
                errs.append(f"H_{j} eigenvalue is not e_{j}(lam+delta) = {e_j}")
        if inverse.terms != built.normalized.terms:
            errs.append("separate_inverse(prod q(z_j)) != normalized s_lam")
        return errs

    for lam in map(tuple, spec["grid"]):
        n = len(lam)
        g = MultiPoly(n, oracle.product_of_q(oracle.schur_q(lam), n), [f"z{i + 1}" for i in range(n)])

        def case(part=Partition(lam), g=g, n=n):
            built = bases.schur_poly(part)
            hs = [qops_schur.apply_h(built.raw, j) for j in range(1, n + 1)]
            return built, hs, qops_schur.separate_inverse(g)

        run_op(ops, f"schur n={n} {lam}", case, lambda result, record, lam=lam: check_case(lam, result, record))

    def check_round_trip(f, result, record):
        separated, back = result
        errs = []
        if back.terms != f.terms:
            errs.append("separate_inverse(separate(f)) != f")
        if sum(separated.terms.values()) != sum(f.terms.values()):
            errs.append("separate(f) at (1,...,1) != f(1,...,1)")
        return errs

    for combo in spec["combos"]:
        acc = {}
        for lam, c in combo:
            oracle.add_scaled(acc, bases.schur_poly(Partition(tuple(lam))).raw.terms, oracle.Fraction(c))
        f = MultiPoly(len(combo[0][0]), acc)

        def round_trip(f=f):
            separated = qops_schur.separate(f)
            return separated, qops_schur.separate_inverse(separated)

        run_op(ops, f"round trip {combo}", round_trip, lambda result, record, f=f: check_round_trip(f, result, record))

    def check_large(lam, built, record):
        errs = schur_errors(lam, built)
        if any(c.denominator != 1 or c <= 0 for c in built.raw.terms.values()):
            errs.append("coefficients are not positive integers")
        return errs

    for lam in map(tuple, spec["large"]):
        run_op(ops, f"schur n={len(lam)} {lam}", lambda lam=lam: bases.schur_poly(Partition(lam)),
               lambda built, record, lam=lam: check_large(lam, built, record))


def run_pass(workload: str, trace: bool):
    spec = json.load(sys.stdin)
    import_workload(workload)
    ready = time.perf_counter()
    tracer = None
    if trace:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer.install()
    ops: list = []
    {"verify-acceptance": verify_pass, "schur-scale": schur_pass}[workload](spec, ops)
    print(json.dumps({
        "ready": ready,
        "ops": ops,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": tracer.dump() if tracer else None,
    }))


def run_cli(argv: list[str]) -> int:
    """`symfact ARG...` with import and main() timed and the library traced.

    The CLI's own output goes to stdout unchanged; the trace follows it on one
    last line that starts with TRACE_MARK."""
    start = time.perf_counter()
    import symfact.cli

    imported = time.perf_counter()
    scipy_loaded = "scipy" in sys.modules
    import tracer as tracer_mod

    tracer = tracer_mod.Tracer()
    tracer.install()
    main_start = time.perf_counter()
    code = symfact.cli.main(argv)
    main_s = time.perf_counter() - main_start
    dump = tracer.dump()
    dump["cli"] = {"import_s": imported - start, "main_s": main_s, "scipy_loaded": scipy_loaded}
    sys.stdout.write(TRACE_MARK + json.dumps(dump) + "\n")
    return code


def main() -> int:
    mode, *rest = sys.argv[1:]
    if mode == "probe":
        import_workload(rest[0])
        print(json.dumps({"ready": time.perf_counter()}))
        return 0
    if mode == "pass":
        run_pass(rest[0], trace=rest[1:] == ["trace"])
        return 0
    if mode == "cli":
        return run_cli(rest)
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main())
