"""Command-line front end: construct bases, apply operators, run suites.

Output is canonical JSON by default (sorted keys, compact separators, terms
in grevlex order, rationals as "num/den" strings), so identical invocations
are byte-identical.  Exit codes: 0 success, 1 verification failure, 2 usage
error.

An operator command first estimates, from its input alone, how many terms
the polynomials it builds may have, and refuses with exit code 2 an input
whose estimate exceeds :data:`MAX_TERMS`.  The estimate uses n and the
partition's weight and first part, or the input polynomial's degree: there
are C(d+n-1, n-1) monomials of degree d in n variables, at most
(lam_1 + 1)^n of them in a basis element b_lam, and a separated product
prod_j q(z_j) has (deg q + 1)^n terms; each basis's q_lam has degree
lam_1.  The library itself is unbounded; ``verify`` is not estimated.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from .bases import BASIS_TAGS, basis_poly
from .partitions import Partition
from .poly import InvariantViolation, MultiPoly, PolyError
from .spectral import eigen_product

# verify.SUITES, repeated so that parsing a command never imports verify
_SUITES = ("eigen", "chain", "inverse", "ode", "lifting", "quadrature", "all")

# the most terms an operator command may build, by the estimate of the module docstring
MAX_TERMS = 10**6


def _ops(basis: str):
    """The operator module of one basis tag; only that module is imported."""
    if basis == "m":
        from . import qops_monomial as ops
    elif basis == "E":
        from . import qops_elementary as ops
    else:
        from . import qops_schur as ops
    return ops


_DIGITS = re.compile(r"[0-9]+")  # ASCII only: int() also reads "1_0", " 1", "+1" and non-ASCII digits


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _decimal(text: str) -> int:
    """An integer flag value: ASCII digits with an optional leading minus."""
    if not _DIGITS.fullmatch(text.removeprefix("-")):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _parse_partition(text: str, n: int | None = None) -> Partition:
    fields = text.split(",")
    if not all(_DIGITS.fullmatch(p) for p in fields):
        raise PolyError(f"cannot parse partition {text!r}")
    try:
        parts = tuple(map(int, fields))
    except ValueError:  # more digits than the interpreter converts to an int
        raise PolyError(f"partition of {len(text)} characters has a part with too many digits to read") from None
    if any(a < b for a, b in zip(parts, parts[1:])):
        raise PolyError(f"partition parts must be given in weakly decreasing order: {text}")
    lam = Partition(parts)
    if n is not None and lam.n != n:
        raise PolyError(f"partition {text} has length {lam.n}, expected {n}")
    return lam


def _read_poly(path: str, n: int | None) -> MultiPoly:
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
    p = MultiPoly.from_json(data)
    if p.arity == 0:
        raise PolyError("input polynomial has no variables")
    if n is not None and p.arity != n:
        raise PolyError(f"input polynomial has {p.arity} variables, expected {n}")
    return p


def _within_budget(terms: int):
    """Refuse an input whose output may have more than MAX_TERMS terms, before anything is built."""
    if terms > MAX_TERMS:
        raise PolyError(f"input too large: the output may have more than {MAX_TERMS} terms")


def _separated_terms(lam: Partition) -> int:
    """(lam_1 + 1)^n: the terms of prod_j q_lam(z_j)."""
    return (lam.parts[0] + 1) ** lam.n


def _basis_terms(lam: Partition) -> int:
    """A bound on the terms of b_lam: the monomials of degree |lam| in n variables, none above lam_1."""
    return min(math.comb(lam.weight() + lam.n - 1, lam.n - 1), _separated_terms(lam))


def _emit_poly(p: MultiPoly, fmt: str):
    if fmt == "table":
        print(p.pretty())
    else:
        print(_dump(p.to_json()))


def cmd_basis(args) -> int:
    lam = _parse_partition(args.lam, args.n)
    _within_budget(_basis_terms(lam))
    nb = basis_poly(args.kind, lam)
    _emit_poly(nb.normalized if args.normalized else nb.raw, args.format)
    return 0


def cmd_apply_q(args) -> int:
    ops = _ops(args.basis)
    out = {}
    if args.lam is not None:
        lam = _parse_partition(args.lam, args.n)
        # b_lam(x) q_lam(z): the monomials of b_lam times 1, z, .., z^lam_1
        _within_budget(_basis_terms(lam) * (lam.parts[0] + 1))
        f = basis_poly(args.basis, lam).normalized
        out["eigenvalue"] = ops.q_poly(lam).to_json()
    else:
        f = _read_poly(args.input, args.n)
        if "z" in f.names:
            raise PolyError('input polynomial has a variable named "z", the name of the slot apply-q appends')
        # each degree d of f: the C(d+n-1, n-1) monomials of degree d in the x's times 1, z, .., z^d
        n = f.arity
        _within_budget(sum(math.comb(d + n - 1, n - 1) * (d + 1) for d in set(map(sum, f.num))))
    result = ops.apply_q(f)
    if args.format == "table":
        if "eigenvalue" in out:
            print("q(z) coefficients:", out["eigenvalue"])
        print(result.pretty())
    else:
        out["result"] = result.to_json()
        print(_dump(out))
    return 0


def cmd_separate(args) -> int:
    lam = _parse_partition(args.lam, args.n)
    _within_budget(_separated_terms(lam))
    q = _ops(args.basis).q_poly(lam)
    product = eigen_product(q, lam.n)
    out = {"q": q.to_json(), "product": product.to_json()}
    if args.format == "table":
        print("q(z) =", q.pretty())
        print(product.pretty())
    else:
        print(_dump(out))
    return 0


def cmd_invert(args) -> int:
    qs = _ops("s")
    if args.lam is not None:
        lam = _parse_partition(args.lam, args.n)
        _within_budget(_separated_terms(lam))
        g = eigen_product(qs.q_poly(lam), lam.n)
        result = qs.separate_inverse(g)
    else:
        g = _read_poly(args.input, args.n)
        # a separated product of degree e in each slot, read back into s_lam with lam_1 <= e
        _within_budget((max(map(max, g.num), default=0) + 1) ** g.arity)
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
    _within_budget(_basis_terms(lam.with_trailing_zero()))
    f = basis_poly(args.basis, lam).normalized
    _emit_poly(_ops(args.basis).lift(f), args.format)
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
    from . import verify

    report = verify.run_suite(args.suite, max_weight=args.max_weight, n=args.n, seed=args.seed)
    return _emit_report(report, args.format)


def cmd_quadrature(args) -> int:
    from . import verify

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


_BASIS = ("--basis", {"choices": BASIS_TAGS, "required": True})
_LAMBDA = ("--lambda", {"dest": "lam", "required": True, "metavar": "PARTS"})
_N = ("--n", {"type": _decimal})
# only the suites draw random inputs; first in their lists, so it keeps its place in their help
_SEED = ("--seed", {"type": _decimal, "default": 0, "help": "seed for randomized sweeps"})


def _source(what: str) -> list:
    """``--lambda`` or ``--input``, exactly one of them."""
    return [("--lambda", {"dest": "lam", "metavar": "PARTS"}), ("--input", {"help": f"{what}, or - for stdin"})]


# name, help, handler, and the (flag, options) of each argument in help order;
# a list of them is a required group of mutually exclusive flags
_COMMANDS = (
    ("basis", "print a basis polynomial", cmd_basis, [
        ("--kind", {"choices": BASIS_TAGS, "required": True}),
        _LAMBDA,
        ("--n", {"type": _decimal, "required": True}),
        ("--normalized", {"action": "store_true"}),
    ]),
    ("apply-q", "apply the Q-operator", cmd_apply_q, [_BASIS, _N, _source("polynomial JSON file")]),
    ("separate", "factorize a basis polynomial", cmd_separate, [_BASIS, _LAMBDA, _N]),
    ("invert", "apply the inverse separating map (Schur)", cmd_invert, [_N, _source("z-block polynomial JSON file")]),
    ("lift", "add a variable to a basis polynomial", cmd_lift, [_BASIS, _LAMBDA]),
    ("verify", "run a verification suite", cmd_verify, [
        _SEED,
        ("--suite", {"choices": _SUITES, "required": True}),
        ("--max-weight", {"type": _decimal, "default": 4}),
        ("--n", {"type": _decimal, "default": 3}),
    ]),
    ("quadrature", "run the integral-identity suite", cmd_quadrature, [
        _SEED,
        ("--max-weight", {"type": _decimal, "default": 3}),
        ("--n", {"type": _decimal, "default": 2}),
    ]),
)


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser; with ``command`` naming one, only that subcommand is built."""
    common = _Parser(add_help=False)
    common.add_argument("--format", choices=("json", "table"), default="json")

    parser = _Parser(
        prog="symfact",
        description="exact symmetric-polynomial bases and their factorizing operators",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, func, arguments in [c for c in _COMMANDS if c[0] == command] or _COMMANDS:
        p = sub.add_parser(name, parents=[common], help=help_text)
        for argument in arguments:
            if isinstance(argument, list):
                group = p.add_mutually_exclusive_group(required=True)
                for flag, options in argument:
                    group.add_argument(flag, **options)
            else:
                flag, options = argument
                p.add_argument(flag, **options)
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _build_parser(argv[0] if argv else None).parse_args(argv)
        return args.func(args)
    except PolyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
