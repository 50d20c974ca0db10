"""Command-line contract: JSON shapes, exit codes, byte stability."""

import argparse
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import symfact
from symfact import cli, verify
from symfact.poly import MultiPoly


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def _probe(code: str) -> str:
    """stdout of ``code`` run in a fresh interpreter that imports this symfact."""
    src = str(Path(symfact.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.strip()


def _readme_commands() -> list[str]:
    """The single-line ``symfact ...`` examples of README's "Command line" block."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("## Command line", 1)[1]
    block = section.split("```", 2)[1]
    return [line for line in block.splitlines() if line.startswith("symfact ")]


README_COMMANDS = _readme_commands()


def test_readme_block_has_commands():
    assert len(README_COMMANDS) >= 8


@pytest.mark.parametrize("line", README_COMMANDS)
def test_readme_command_runs(capsys, line):
    # the piped `echo ... | symfact` line reads stdin; TestApplyQCommand covers --input -
    code, out = run(capsys, *shlex.split(line)[1:])
    assert code == 0 and out


def test_import_leaves_scipy_unloaded():
    # a cold CLI call must not pay for a numerical library it never uses
    assert _probe("import sys, symfact.cli; print('scipy' in sys.modules)") == "False"


_HEAVY = ("symfact.verify", "symfact.quadcheck", "dataclasses", "inspect")


def _loaded(code: str) -> list[str]:
    """symfact's operator modules and the heavy modules loaded after ``code``."""
    probe = (
        f"import sys; {code}; "
        f"print('loaded:', *sorted(m for m in sys.modules if m.startswith('symfact.qops_') or m in {_HEAVY!r}))"
    )
    return _probe(probe).rpartition("loaded:")[2].split()


def test_import_leaves_the_verification_stack_unloaded():
    # a cold call pays only for what its own command runs
    assert _loaded("import symfact.cli") == []


def test_verify_import_leaves_dataclasses_unloaded():
    loaded = _loaded("import symfact.verify")
    assert "symfact.verify" in loaded and "dataclasses" not in loaded and "inspect" not in loaded


def test_basis_command_loads_no_operator_module():
    assert _loaded("import symfact.cli as c; c.main(['basis', '--kind', 'm', '--lambda', '2,0', '--n', '2'])") == []


@pytest.mark.parametrize(
    "basis, modules",
    [("m", ["qops_monomial"]), ("E", ["qops_elementary"]), ("s", ["qops_schur"])],
)
def test_operator_command_loads_only_its_basis_module(basis, modules):
    # each basis loads its own operator module and no other
    code = f"import symfact.cli as c; c.main(['apply-q', '--basis', {basis!r}, '--lambda', '1,0', '--n', '2'])"
    assert _loaded(code) == [f"symfact.{m}" for m in modules]


def test_suite_choices_are_verify_suites():
    parser = cli._build_parser("verify")
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    (suite,) = (a for a in sub.choices["verify"]._actions if a.dest == "suite")
    assert tuple(suite.choices) == verify.SUITES


def test_quadrature_suite_leaves_scipy_and_numpy_unloaded():
    # every delta integral, n = 3 included, is exact: no numerical library at all
    probe = (
        "import sys; from symfact import verify; "
        "report = verify.run_suite('quadrature', 3, 3); "
        "print(report['passed'], 'scipy' in sys.modules, 'numpy' in sys.modules)"
    )
    assert _probe(probe) == "True False False"


class TestBasisCommand:
    def test_normalized_monomial(self, capsys):
        code, out = run(capsys, "basis", "--kind", "m", "--lambda", "2,0", "--n", "2", "--normalized")
        assert code == 0
        assert json.loads(out) == {
            "terms": [{"c": "1/2", "e": [2, 0]}, {"c": "1/2", "e": [0, 2]}],
            "vars": ["x1", "x2"],
        }

    def test_trivial_schur(self, capsys):
        code, out = run(capsys, "basis", "--kind", "s", "--lambda", "0,0", "--n", "2")
        assert code == 0
        assert json.loads(out)["terms"] == [{"c": "1", "e": [0, 0]}]

    def test_elementary_product(self, capsys):
        code, out = run(capsys, "basis", "--kind", "E", "--lambda", "1,1", "--n", "2")
        assert code == 0
        assert json.loads(out)["terms"] == [{"c": "1", "e": [1, 1]}]

    def test_unsorted_partition_rejected(self, capsys):
        code, _ = run(capsys, "basis", "--kind", "m", "--lambda", "0,2", "--n", "2")
        assert code == 2

    def test_length_mismatch_rejected(self, capsys):
        code, _ = run(capsys, "basis", "--kind", "m", "--lambda", "2,0", "--n", "3")
        assert code == 2

    def test_byte_stable(self, capsys):
        _, first = run(capsys, "basis", "--kind", "s", "--lambda", "2,1,0", "--n", "3")
        _, second = run(capsys, "basis", "--kind", "s", "--lambda", "2,1,0", "--n", "3")
        assert first == second


class TestSeparateCommand:
    def test_monomial_case(self, capsys):
        code, out = run(capsys, "separate", "--basis", "m", "--lambda", "2,0", "--n", "2")
        assert code == 0
        data = json.loads(out)
        assert data["q"] == ["1/2", "0", "1/2"]
        product = MultiPoly.from_json(data["product"])
        assert product.eval([1, 1]) == 1

    def test_trivial_eigenvalue(self, capsys):
        code, out = run(capsys, "separate", "--basis", "E", "--lambda", "0,0", "--n", "2")
        assert json.loads(out)["q"] == ["1"]

    def test_schur_case(self, capsys):
        code, out = run(capsys, "separate", "--basis", "s", "--lambda", "1,1,0", "--n", "3")
        assert json.loads(out)["q"] == ["1/3", "2/3"]


class TestApplyQCommand:
    def test_basis_element(self, capsys):
        code, out = run(capsys, "apply-q", "--basis", "m", "--lambda", "2,0", "--n", "2")
        assert code == 0
        data = json.loads(out)
        assert data["eigenvalue"] == ["1/2", "0", "1/2"]
        result = MultiPoly.from_json(data["result"])
        assert result.arity == 3

    def test_stdin_input(self, capsys, monkeypatch):
        import io

        poly = {"vars": ["x1", "x2"], "terms": [{"e": [1, 0], "c": "1"}, {"e": [0, 1], "c": "1"}]}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(poly)))
        code, out = run(capsys, "apply-q", "--basis", "E", "--input", "-")
        assert code == 0
        result = MultiPoly.from_json(json.loads(out)["result"])
        assert result.eval([1, 1, 1]) == 2  # q(1) = 1 on each component

    def test_requires_lambda_or_input(self, capsys):
        code = cli.main(["apply-q", "--basis", "m"])
        TestInputBoundary.assert_input_error(code, capsys.readouterr().err, "--lambda --input")


class TestInvertAndLift:
    def test_invert_recovers_schur(self, capsys):
        from fractions import Fraction as F

        code, out = run(capsys, "invert", "--lambda", "1,0", "--n", "2")
        assert code == 0
        result = MultiPoly.from_json(json.loads(out)["result"])
        assert result == MultiPoly(2, {(1, 0): F(1, 2), (0, 1): F(1, 2)})

    def test_lift(self, capsys):
        code, out = run(capsys, "lift", "--basis", "m", "--lambda", "2")
        assert code == 0
        result = MultiPoly.from_json(json.loads(out))
        assert result.arity == 2 and result.eval([1, 1]) == 1


@pytest.mark.parametrize(
    "argv, want",
    [
        (
            "basis --kind s --lambda 2,1,0 --n 3",
            "x1^2*x2 + x1*x2^2 + x1^2*x3 + 2*x1*x2*x3 + x2^2*x3 + x1*x3^2 + x2*x3^2\n",
        ),
        (
            "apply-q --basis E --lambda 2,0 --n 2",
            "q(z) coefficients: ['1/4', '1/2', '1/4']\n"
            "1/16*x1^2*z^2 + 1/8*x1*x2*z^2 + 1/16*x2^2*z^2 + 1/8*x1^2*z + 1/4*x1*x2*z"
            " + 1/8*x2^2*z + 1/16*x1^2 + 1/8*x1*x2 + 1/16*x2^2\n",
        ),
        (
            "separate --basis s --lambda 2,1 --n 2",
            "q(z) = 1/2*z^2 + 1/2*z\n1/4*z1^2*z2^2 + 1/4*z1^2*z2 + 1/4*z1*z2^2 + 1/4*z1*z2\n",
        ),
        ("invert --lambda 2,1 --n 2", "1/2*x1^2*x2 + 1/2*x1*x2^2\n"),
        (
            "lift --basis m --lambda 2,1",
            "1/6*x1^2*x2 + 1/6*x1*x2^2 + 1/6*x1^2*x3 + 1/6*x2^2*x3 + 1/6*x1*x3^2 + 1/6*x2*x3^2\n",
        ),
    ],
    ids=["basis", "apply-q", "separate", "invert", "lift"],
)
def test_operator_table_output(capsys, argv, want):
    # test_golden.py digests the JSON form only; this pins the table form byte for byte
    code, out = run(capsys, *argv.split(" "), "--format", "table")
    assert code == 0
    assert out == want


class TestVerifyCommand:
    def test_minimal_run_passes(self, capsys):
        code, out = run(capsys, "verify", "--suite", "all", "--max-weight", "0", "--n", "1")
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True and report["counts"]["failed"] == 0

    def test_eigen_suite_small(self, capsys):
        code, out = run(capsys, "verify", "--suite", "eigen", "--max-weight", "2", "--n", "2")
        assert code == 0
        report = json.loads(out)
        assert all(c["status"] == "pass" for c in report["checks"])

    def test_table_format(self, capsys):
        code, out = run(capsys, "verify", "--suite", "ode", "--max-weight", "1", "--n", "2", "--format", "table")
        assert code == 0
        assert "PASS" in out and "checks passed" in out

    def test_failure_exit_code(self):
        report = {"passed": False, "checks": [{"name": "x", "status": "fail"}], "counts": {"total": 1, "failed": 1}}
        assert cli._emit_report(report, "json") == 1

    def test_quadrature_command(self, capsys):
        code, out = run(capsys, "quadrature", "--n", "2", "--max-weight", "1")
        assert code == 0
        report = json.loads(out)
        conventions = {
            c.get("convention")
            for c in report["checks"]
            if c.get("identity") == "Q integral (adjudicated prefactor)"
        }
        assert conventions == {"denominator"}

    def test_report_is_byte_stable(self, capsys):
        _, first = run(capsys, "verify", "--suite", "lifting", "--max-weight", "2", "--n", "2")
        _, second = run(capsys, "verify", "--suite", "lifting", "--max-weight", "2", "--n", "2")
        assert first == second



def _poly(terms, names=("x1", "x2")):
    return json.dumps({"vars": list(names), "terms": terms})


APPLY_Q = ("apply-q", "--basis", "m", "--input", "-")
INVERT = ("invert", "--input", "-")


class TestInputBoundary:
    """Every input error exits 2 with a one-line message and no traceback."""

    @staticmethod
    def assert_input_error(code, err, fragment):
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert fragment in err

    @pytest.mark.parametrize(
        "argv, stdin, fragment",
        [
            (APPLY_Q, _poly([{"e": [1, 0], "c": "1/0"}]), "zero denominator"),
            (APPLY_Q, '{"vars": ["x1"], "terms": [', "malformed JSON"),
            (APPLY_Q, json.dumps({"vars": ["x1", "x2"]}), '"terms"'),
            (APPLY_Q, _poly([{"e": [0, 0], "c": 0.1}]), "coefficient 0.1"),
            (APPLY_Q, _poly([{"e": [0, 0], "c": True}]), "coefficient True"),
            (INVERT, _poly([{"e": [1.5, 1.5], "c": "1"}]), "non-negative integers"),
            (APPLY_Q, _poly([{"e": [1], "c": "1"}]), "non-negative integers"),
            (APPLY_Q, _poly([{"e": [1, 1], "c": "1"}, {"e": [1, 1], "c": "2"}]), "appears twice"),
            (INVERT, _poly([{"e": [1, 0], "c": "1"}], ("z1", "z2")), "not in the image"),
            (APPLY_Q + ("--n", "5"), _poly([{"e": [1, 0], "c": "1"}]), "has 2 variables, expected 5"),
            (INVERT + ("--n", "3"), _poly([{"e": [1, 0], "c": "1"}], ("z1", "z2")), "has 2 variables, expected 3"),
            (INVERT, _poly([], ()), "has no variables"),
            (("apply-q", "--basis", "s", "--input", "-"), _poly([], ()), "has no variables"),
            (APPLY_Q, _poly([{"e": [1, 0], "c": "1"}], ("x", "x")), "variable name 'x' appears twice"),
            (APPLY_Q, _poly([{"e": [1, 0], "c": "1"}], ("z", "y")), 'variable named "z"'),
            (APPLY_Q, _poly([{"e": [1, 0], "c": "1"}], ("", "")), "variable name '' is not an ASCII identifier"),
            (INVERT, _poly([{"e": [1, 0], "c": "1"}], ("z1", "z 2")), "variable name 'z 2' is not an ASCII identifier"),
            (INVERT, _poly([{"e": [1, 0], "c": "1"}], ("z1", "x\u00e9")), "variable name 'x\u00e9' is not an ASCII identifier"),
            # past the interpreter's 4300-digit limit for reading an int
            (APPLY_Q, _poly([{"e": [1, 0], "c": "9" * 5000}]), "coefficient of 5000 characters has too many digits"),
            (APPLY_Q, _poly([{"e": [1, 0], "c": "1/" + "9" * 5000}]), "coefficient of 5002 characters has too many digits"),
            (("basis", "--kind", "m", "--lambda", "9" * 5000, "--n", "1"), "", "partition of 5000 characters has a part with too many digits"),
        ],
        ids=[
            "zero-denominator",
            "malformed-json",
            "missing-terms",
            "float-coefficient",
            "bool-coefficient",
            "fractional-exponent",
            "exponent-length",
            "repeated-exponent",
            "not-in-image",
            "apply-q-n-differs",
            "invert-n-differs",
            "invert-no-variables",
            "apply-q-no-variables",
            "repeated-variable",
            "apply-q-input-has-z",
            "empty-variable-names",
            "non-identifier-variable",
            "non-ascii-variable",
            "long-coefficient",
            "long-denominator",
            "long-partition-part",
        ],
    )
    def test_stdin_input_error(self, capsys, monkeypatch, argv, stdin, fragment):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        code = cli.main(list(argv))
        self.assert_input_error(code, capsys.readouterr().err, fragment)

    HUGE = 99999999999

    @pytest.mark.parametrize(
        "argv, stdin",
        [
            (("separate", "--basis", "m", "--lambda", "9999999999999999,0", "--n", "2"), ""),
            (("apply-q", "--basis", "s", "--input", "-"), _poly([{"e": [HUGE, 0], "c": "1"}, {"e": [0, HUGE], "c": "1"}])),
            (("apply-q", "--basis", "E", "--lambda", "3000,0", "--n", "2"), ""),
            (("basis", "--kind", "s", "--lambda", f"{HUGE},0,0", "--n", "3"), ""),
            (("invert", "--lambda", f"{HUGE},0"), ""),
            (INVERT, _poly([{"e": [HUGE, HUGE], "c": "1"}], ("z1", "z2"))),
            (("lift", "--basis", "E", "--lambda", f"{HUGE},0"), ""),
        ],
        ids=["separate", "apply-q-input", "apply-q-lambda", "basis", "invert-lambda", "invert-input", "lift"],
    )
    def test_oversized_input_is_refused_before_anything_is_built(self, capsys, monkeypatch, argv, stdin):
        import io

        from symfact import bases
        from symfact import qops_elementary as qe
        from symfact import qops_monomial as qm
        from symfact import qops_schur as qs

        def refuse(*_args):
            raise AssertionError("a polynomial was built before the size check")

        for module, name in [(bases, "_schur_rows"), (bases, "_times_elementary"), (cli, "basis_poly"), (cli, "eigen_product")]:
            monkeypatch.setattr(module, name, refuse)
        for ops in (qm, qe, qs):
            monkeypatch.setattr(ops, "q_poly", refuse)
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        code = cli.main(list(argv))
        captured = capsys.readouterr()
        assert captured.out == ""
        self.assert_input_error(code, captured.err, f"input too large: the output may have more than {cli.MAX_TERMS} terms")

    def test_missing_input_file(self, capsys, tmp_path):
        code = cli.main(["apply-q", "--basis", "s", "--input", str(tmp_path / "absent.json")])
        self.assert_input_error(code, capsys.readouterr().err, "cannot read")

    @pytest.mark.parametrize(
        "argv",
        [
            ("quadrature", "--n", "-3"),
            ("quadrature", "--n", "2", "--max-weight", "-1"),
            *(("verify", "--suite", suite, "--n", "0") for suite in verify.SUITES),
            *(("verify", "--suite", suite, "--max-weight", "-1") for suite in verify.SUITES),
        ],
        ids=lambda argv: "-".join(argv),
    )
    def test_empty_sweep_is_an_input_error(self, capsys, argv):
        # no suite passes vacuously on a sweep with nothing in it
        code = cli.main(list(argv))
        captured = capsys.readouterr()
        assert captured.out == ""
        self.assert_input_error(code, captured.err, "need max_weight >= 0 and n >= 1")

    @pytest.mark.parametrize(
        "argv",
        [
            ("invert", "--lambda", "2,1", "--input", "nothere.json"),
            ("apply-q", "--basis", "s", "--lambda", "2,1", "--input", "-"),
        ],
        ids=["invert", "apply-q"],
    )
    def test_lambda_and_input_exclude_each_other(self, capsys, argv):
        code = cli.main(list(argv))
        self.assert_input_error(code, capsys.readouterr().err, "not allowed with argument")

    @pytest.mark.parametrize(
        "argv, fragment",
        [
            (("basis", "--lambda", "2,1", "--n", "2"), "arguments are required: --kind"),
            (("basis", "--kind", "m", "--lambda", "2,1", "--n", "x"), "invalid int value: 'x'"),
            (("verify", "--suite", "all", "--bogus", "1"), "unrecognized arguments: --bogus 1"),
            # int() would read each of these as a number; none may be coerced
            (("basis", "--kind", "s", "--lambda", "1_0,0", "--n", "2"), "cannot parse partition '1_0,0'"),
            (("basis", "--kind", "s", "--lambda= 1,0", "--n", "2"), "cannot parse partition ' 1,0'"),
            (("basis", "--kind", "s", "--lambda", "+1,0", "--n", "2"), "cannot parse partition '+1,0'"),
            (("basis", "--kind", "s", "--lambda=-0,0", "--n", "2"), "cannot parse partition '-0,0'"),
            (("basis", "--kind", "s", "--lambda", "\u0661,0", "--n", "2"), "cannot parse partition"),
            (("basis", "--kind", "s", "--lambda", "1,0", "--n", "0_2"), "invalid int value: '0_2'"),
            (("verify", "--suite", "eigen", "--n", "1_0", "--max-weight", "0"), "invalid int value: '1_0'"),
            (("verify", "--suite", "eigen", "--n", "\u0663", "--max-weight", "1"), "argument --n: invalid int value"),
            (("verify", "--suite", "eigen", "--n", " 1", "--max-weight", "1"), "invalid int value: ' 1'"),
            (("verify", "--suite", "eigen", "--n", "+1", "--max-weight", "1"), "invalid int value: '+1'"),
            (("verify", "--suite", "eigen", "--n", "1", "--max-weight", "1_0"), "argument --max-weight"),
            (("verify", "--suite", "eigen", "--n", "1", "--max-weight", "0", "--seed", "1_0"), "argument --seed"),
            # only verify and quadrature draw random inputs; elsewhere --seed is an unknown flag
            (("basis", "--kind", "m", "--lambda", "1,0", "--n", "2", "--seed", "5"), "unrecognized arguments: --seed 5"),
            (("lift", "--basis", "s", "--lambda", "1", "--seed", "99"), "unrecognized arguments: --seed 99"),
        ],
        ids=[
            "missing-required-flag",
            "non-integer-n",
            "unknown-flag",
            "part-underscore",
            "part-padded",
            "part-plus",
            "part-minus-zero",
            "part-arabic-indic-one",
            "basis-n-underscore",
            "n-underscore",
            "n-arabic-indic-three",
            "n-padded",
            "n-plus",
            "max-weight-underscore",
            "seed-underscore",
            "seed-on-basis",
            "seed-on-lift",
        ],
    )
    def test_usage_error(self, capsys, argv, fragment):
        # argparse's own errors and unparsable integers take the same one-line form as every other input error
        code = cli.main(list(argv))
        captured = capsys.readouterr()
        assert captured.out == ""
        self.assert_input_error(code, captured.err, fragment)

    def test_help_is_unchanged(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["basis", "--help"])
        assert err.value.code == 0
        assert capsys.readouterr().out.startswith("usage: symfact basis")
