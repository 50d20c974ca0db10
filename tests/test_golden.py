"""Golden outputs: recorded CLI stdout digests and verify check names/statuses.

Reads bench/expected.json (written by bench/record.py, never here) and
requires byte-identical CLI JSON for every recorded `--lambda` call, and the
same check count and [name, status] sequence for every recorded verify suite
(n = 2, 3 and 4).
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

SUITES = sorted(EXPECTED["verify"])


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


def test_every_recorded_suite_is_checked():
    assert len(SUITES) == 18


@pytest.mark.parametrize("key", SUITES)
def test_verify_check_names_and_statuses(key):
    suite, n, weight = key.split("/")
    report = verify.run_suite(
        suite, max_weight=int(weight.removeprefix("w=")), n=int(n.removeprefix("n=")), seed=0
    )
    pairs = [[c["name"], c["status"]] for c in report["checks"]]
    assert len(pairs) == EXPECTED["verify"][key]["checks"]
    assert hashlib.sha256(json.dumps(pairs).encode()).hexdigest() == EXPECTED["verify"][key]["sha256"]
