"""Record bench/expected.json: the regression half of the correctness gate.

    PYTHONPATH=src python3 bench/record.py

For each verify-acceptance suite call, the number of checks and a digest of
their names and statuses (the names do not depend on the seed); for every
`--lambda` call cli-cold can draw, a digest of its stdout.  Run it only when
a change is meant to alter these outputs, and say so in the change.
"""

from __future__ import annotations

import io
import json
import os
import sys
from contextlib import redirect_stdout

import workloads
from worker import check_digest

from symfact import cli, verify


def main() -> int:
    expected = {"verify": {}, "cli": {}}
    for n, weight in workloads.ACCEPTANCE:
        for suite in workloads.SUITES:
            report = verify.run_suite(suite, max_weight=weight, n=n, seed=0)
            if not report["passed"]:
                raise SystemExit(f"{suite} n={n} failed; refusing to record it")
            expected["verify"][f"{suite}/n={n}/w={weight}"] = {
                "checks": len(report["checks"]), "sha256": check_digest(report["checks"])}
    for argv in workloads.cli_lambda_pool():
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(argv)
        if code != 0:
            raise SystemExit(f"symfact {' '.join(argv)} exited {code}")
        expected["cli"][" ".join(argv)] = workloads.digest(buf.getvalue().encode())
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")
    with open(path, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(expected['verify'])} suite calls, {len(expected['cli'])} CLI calls", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
