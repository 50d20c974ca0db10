"""Golden outputs: recorded CLI stdout digests and verify check names/statuses.

Reads bench/expected.json (written by bench/record.py, never here) and
requires byte-identical CLI JSON for every recorded `--lambda` call, and the
same check count and [name, status] sequence for each verify suite at n <= 3.
"""

import hashlib
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from symfact import cli, verify

EXPECTED = json.loads(
    (Path(__file__).resolve().parent.parent / "bench" / "expected.json").read_text()
)

SMALL_SUITES = sorted(
    key for key in EXPECTED["verify"] if int(key.split("/")[1].removeprefix("n=")) <= 3
)


def test_cli_outputs_are_byte_identical():
    mismatched = []
    for command, want in EXPECTED["cli"].items():
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(command.split(" "))
        got = hashlib.sha256(buf.getvalue().encode()).hexdigest()[:16]
        if code != 0 or got != want:
            mismatched.append(command)
    assert len(EXPECTED["cli"]) == 302
    assert mismatched == []


@pytest.mark.parametrize("key", SMALL_SUITES)
def test_verify_check_names_and_statuses(key):
    suite, n, weight = key.split("/")
    report = verify.run_suite(
        suite, max_weight=int(weight.removeprefix("w=")), n=int(n.removeprefix("n=")), seed=0
    )
    pairs = [[c["name"], c["status"]] for c in report["checks"]]
    assert len(pairs) == EXPECTED["verify"][key]["checks"]
    assert hashlib.sha256(json.dumps(pairs).encode()).hexdigest() == EXPECTED["verify"][key]["sha256"]
