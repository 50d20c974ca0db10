"""Golden outputs of `--input` calls: recorded stdout digests, byte for byte.

tests/golden_input.json holds a fixed set of `apply-q` (each basis) and
`invert` calls at n = 2 and 3, in json and table format, with the digest of
each one's stdout as recorded at commit f18d807.  The inputs are literal
JSON, not generated, so no change to the benchmark's generators can move
them.  The `--lambda` calls are pinned by test_golden.py.
"""

import hashlib
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from symfact import cli

CALLS = json.loads((Path(__file__).resolve().parent / "golden_input.json").read_text())["calls"]


def test_every_basis_and_format_is_recorded():
    assert len(CALLS) == 16
    assert {c["argv"] for c in CALLS} == {
        f"{command} --input - --format {fmt}"
        for command in ("apply-q --basis m", "apply-q --basis E", "apply-q --basis s", "invert")
        for fmt in ("json", "table")
    }


@pytest.mark.parametrize("call", CALLS, ids=[f"{c['argv']} n={len(json.loads(c['stdin'])['vars'])}" for c in CALLS])
def test_input_call_stdout_is_byte_identical(call, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(call["stdin"]))
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(call["argv"].split(" "))
    assert code == 0
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest()[:16] == call["stdout_sha256"]
