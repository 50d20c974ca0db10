"""Command-line front end: construct bases, apply operators, run suites.

Output is canonical JSON by default (sorted keys, compact separators, terms
in grevlex order, rationals as "num/den" strings), so identical invocations
are byte-identical.  Exit codes: 0 success, 1 verification failure, 2 usage
error.
"""

from __future__ import annotations

import argparse
import json
import sys
from . import qops_schur as qs
from . import verify
from .bases import basis_poly
from .partitions import Partition
from .poly import InvariantViolation, MultiPoly, PolyError
from .spectral import eigen_product


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _parse_partition(text: str, n: int | None = None) -> Partition:
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise PolyError(f"cannot parse partition {text!r}")
    if any(a < b for a, b in zip(parts, parts[1:])):
        raise PolyError(f"partition parts must be given in weakly decreasing order: {text}")
    lam = Partition(parts)
    if n is not None and lam.n != n:
        raise PolyError(f"partition {text} has length {lam.n}, expected {n}")
    return lam


def _read_poly(path: str) -> MultiPoly:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path) as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise PolyError(f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}") from exc
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise PolyError(f"malformed JSON in {path}: {exc}") from exc
    return MultiPoly.from_json(data)


def _emit_poly(p: MultiPoly, fmt: str):
    if fmt == "table":
        print(p.pretty())
    else:
        print(_dump(p.to_json()))


def cmd_basis(args) -> int:
    lam = _parse_partition(args.lam, args.n)
    nb = basis_poly(args.kind, lam)
    _emit_poly(nb.normalized if args.normalized else nb.raw, args.format)
    return 0


def cmd_apply_q(args) -> int:
    ops = verify.BASES[args.basis]
    if args.lam is not None:
        lam = _parse_partition(args.lam, args.n)
        f = basis_poly(args.basis, lam).normalized
        q = ops.q_poly(lam)
        out = {"eigenvalue": q.to_json(), "result": ops.apply_q(f).to_json()}
    else:
        f = _read_poly(args.input)
        out = {"result": ops.apply_q(f).to_json()}
    if args.format == "table":
        if "eigenvalue" in out:
            print("q(z) coefficients:", out["eigenvalue"])
        print(MultiPoly.from_json(out["result"]).pretty())
    else:
        print(_dump(out))
    return 0


def cmd_separate(args) -> int:
    lam = _parse_partition(args.lam, args.n)
    q = verify.BASES[args.basis].q_poly(lam)
    product = eigen_product(q, lam.n)
    out = {"q": q.to_json(), "product": product.to_json()}
    if args.format == "table":
        print("q(z) =", q.pretty())
        print(product.pretty())
    else:
        print(_dump(out))
    return 0


def cmd_invert(args) -> int:
    if args.lam is not None:
        lam = _parse_partition(args.lam, args.n)
        g = eigen_product(qs.q_poly(lam), lam.n)
        result = qs.separate_inverse(g)
    else:
        g = _read_poly(args.input)
        try:
            result = qs.separate_inverse(g)
        except InvariantViolation as exc:
            raise PolyError(str(exc)) from exc
    out = {"input": g.to_json(), "result": result.to_json()}
    if args.format == "table":
        print(result.pretty())
    else:
        print(_dump(out))
    return 0


def cmd_lift(args) -> int:
    lam = _parse_partition(args.lam)
    f = basis_poly(args.basis, lam).normalized
    _emit_poly(verify.BASES[args.basis].lift(f), args.format)
    return 0


def _emit_report(report: dict, fmt: str) -> int:
    if fmt == "table":
        for check in report["checks"]:
            print(f"{check['status'].upper():4s} {check['name']}")
        counts = report["counts"]
        print(f"{counts['total'] - counts['failed']}/{counts['total']} checks passed")
    else:
        print(_dump(report))
    return 0 if report["passed"] else 1


def cmd_verify(args) -> int:
    report = verify.run_suite(args.suite, max_weight=args.max_weight, n=args.n, seed=args.seed)
    return _emit_report(report, args.format)


def cmd_quadrature(args) -> int:
    report = verify.run_suite("quadrature", max_weight=args.max_weight, n=args.n, seed=args.seed)
    return _emit_report(report, args.format)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors reach :func:`main` as input errors.

    argparse would print a usage block and its own error line; raising
    PolyError instead gives every input error the same one ``error: ...``
    line and exit code 2.  Subparsers are built from the same class.
    """

    def error(self, message: str):
        raise PolyError(message)


def _build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--format", choices=("json", "table"), default="json")
    common.add_argument("--seed", type=int, default=0, help="seed for randomized sweeps")

    parser = _Parser(
        prog="symfact",
        description="exact symmetric-polynomial bases and their factorizing operators",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("basis", parents=[common], help="print a basis polynomial")
    p.add_argument("--kind", choices=("m", "E", "s"), required=True)
    p.add_argument("--lambda", dest="lam", required=True, metavar="PARTS")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--normalized", action="store_true")
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("apply-q", parents=[common], help="apply the Q-operator")
    p.add_argument("--basis", choices=("m", "E", "s"), required=True)
    p.add_argument("--n", type=int)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--lambda", dest="lam", metavar="PARTS")
    source.add_argument("--input", help="polynomial JSON file, or - for stdin")
    p.set_defaults(func=cmd_apply_q)

    p = sub.add_parser("separate", parents=[common], help="factorize a basis polynomial")
    p.add_argument("--basis", choices=("m", "E", "s"), required=True)
    p.add_argument("--lambda", dest="lam", required=True, metavar="PARTS")
    p.add_argument("--n", type=int)
    p.set_defaults(func=cmd_separate)

    p = sub.add_parser("invert", parents=[common], help="apply the inverse separating map (Schur)")
    p.add_argument("--n", type=int)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--lambda", dest="lam", metavar="PARTS")
    source.add_argument("--input", help="z-block polynomial JSON file, or - for stdin")
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("lift", parents=[common], help="add a variable to a basis polynomial")
    p.add_argument("--basis", choices=("m", "E", "s"), required=True)
    p.add_argument("--lambda", dest="lam", required=True, metavar="PARTS")
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("verify", parents=[common], help="run a verification suite")
    p.add_argument("--suite", choices=verify.SUITES, required=True)
    p.add_argument("--max-weight", type=int, default=4)
    p.add_argument("--n", type=int, default=3)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("quadrature", parents=[common], help="run the integral-identity suite")
    p.add_argument("--max-weight", type=int, default=3)
    p.add_argument("--n", type=int, default=2)
    p.set_defaults(func=cmd_quadrature)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except PolyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
