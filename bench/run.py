"""The symfact benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload verify-acceptance --seed 1 --seconds 45 --trace 0

Run it from the repository root (it imports symfact from ./src).  Every pass
runs in a fresh Python process, one at a time, so symfact's caches start
cold as they do for a user: a closed loop with one client.  A run first
spawns probe processes that only import what the workload imports (set-up
time), then starts passes over the seeded inputs while a further pass fits
in --seconds, and at least one.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, from untraced
passes only.  --trace 1 runs one untraced and one traced pass and reports
the per-layer metrics: span statistics from bench/tracer.py and the tracing
overhead, traced minus untraced run time.  Progress goes to stderr; the
last stdout line is {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import select
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402
from worker import TRACE_MARK  # noqa: E402

# Set-up probes: as many as fit in PROBE_SECONDS, at least PROBES_MIN.
PROBES_MIN, PROBES_MAX, PROBE_SECONDS = 3, 15, 3.0
# Children still running this long after start are killed and their
# operations counted as failed, so a run always ends within 180 s.
DEADLINE = time.perf_counter() + 170


def log(msg: str):
    print(msg, file=sys.stderr, flush=True)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(args: list[str], stdin: str, env: dict) -> tuple[float, float, int, bytes, int]:
    """Run one child to completion, or kill it at the run's deadline.

    Returns (start clock, elapsed s, exit code, stdout with stderr merged,
    peak RSS of the child in KiB).  The child is reaped with wait4 so that
    its own peak RSS is known; stdin is small and written before any output
    is read.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(args, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, env=env, cwd=ROOT)
    try:
        proc.stdin.write(stdin.encode())
        proc.stdin.close()
    except BrokenPipeError:
        pass  # the child exited early; its output and exit code say why
    chunks = []
    fd = proc.stdout.fileno()
    while True:
        ready, _, _ = select.select([fd], [], [], max(0.0, DEADLINE - time.perf_counter()))
        if not ready:
            proc.kill()
            break
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            break
        chunks.append(chunk)
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return start, elapsed, proc.returncode, b"".join(chunks), usage.ru_maxrss


def last_json(out: bytes) -> dict:
    return json.loads(out.decode().strip().splitlines()[-1])


def probe(workload: str, env: dict) -> float:
    """Seconds from spawning a process to the end of the workload's imports."""
    start, _, code, out, _ = run_child(
        [sys.executable, os.path.join(HERE, "worker.py"), "probe", workload], "", env)
    if code != 0:
        raise RuntimeError(f"set-up probe exited {code}: {out.decode()[-500:]}")
    return last_json(out)["ready"] - start


class Pass:
    """One pass over the workload's inputs: op latencies, failures, peak RSS, trace."""

    def __init__(self):
        self.latencies: list[float] = []
        self.names: list[str] = []
        self.errors: list[tuple[str, list[str]]] = []
        self.setup_s: float | None = None
        self.maxrss_kb = 0
        self.checks = 0
        self.dumps: list[dict] = []
        self.cli: list[dict] = []

    @property
    def run_s(self) -> float:
        return sum(self.latencies)

    def add(self, name: str, seconds: float, errors: list[str]):
        self.names.append(name)
        self.latencies.append(seconds)
        if errors:
            self.errors.append((name, errors))


def worker_pass(workload: str, seed: int, trace: bool, env: dict) -> Pass:
    spec = workloads.spec(workload, seed)
    expected_ops = (len(spec["calls"]) if workload == "verify-acceptance"
                    else len(spec["grid"]) + len(spec["combos"]) + len(spec["large"]))
    args = [sys.executable, os.path.join(HERE, "worker.py"), "pass", workload] + (["trace"] if trace else [])
    start, _, code, out, maxrss = run_child(args, json.dumps(spec), env)
    p = Pass()
    try:
        result = last_json(out)
    except (ValueError, IndexError):
        result = None
    if code != 0 or result is None:
        for i in range(expected_ops):
            p.add(f"op {i}", 0.0, [f"worker exited {code}: {out.decode()[-300:]}"])
        return p
    p.setup_s = result["ready"] - start
    p.maxrss_kb = maxrss
    for op in result["ops"]:
        p.add(op["op"], op["s"], op["errors"])
        p.checks += op.get("checks", 0)
    if result["trace"]:
        p.dumps.append(result["trace"])
    return p


def cli_pass(seed: int, trace: bool, env: dict, digests: dict) -> Pass:
    p = Pass()
    for call in workloads.spec("cli-cold", seed):
        if trace:
            args = [sys.executable, os.path.join(HERE, "worker.py"), "cli", *call["argv"]]
        else:
            args = [sys.executable, "-m", "symfact.cli", *call["argv"]]
        _, elapsed, code, out, maxrss = run_child(args, call["stdin"], env)
        name = "symfact " + " ".join(call["argv"])
        p.maxrss_kb = max(p.maxrss_kb, maxrss)
        if trace and code == 0:
            out, _, line = out.rstrip(b"\n").rpartition(b"\n" + TRACE_MARK.encode())
            out += b"\n"
            dump = json.loads(line)
            p.cli.append(dump.pop("cli"))
            p.dumps.append(dump)
        if code != 0:
            p.add(name, elapsed, [f"exit {code}: {out.decode()[-300:]}"])
            continue
        try:
            errors = workloads.cli_output_errors(call, out, digests)
        except (ValueError, KeyError) as exc:
            errors = [f"unreadable output: {exc!r}"]
        p.add(name, elapsed, errors)
    return p


def one_pass(workload: str, seed: int, trace: bool, env: dict, digests: dict) -> Pass:
    if workload == "cli-cold":
        return cli_pass(seed, trace, env, digests)
    return worker_pass(workload, seed, trace, env)


def probes(workload: str, env: dict) -> list[float]:
    began = time.perf_counter()
    setups = []
    while len(setups) < PROBES_MIN or (
            len(setups) < PROBES_MAX and time.perf_counter() - began < PROBE_SECONDS):
        setups.append(probe(workload, env))
    return setups


def end_to_end(passes: list[Pass], setups: list[float]) -> dict:
    """Medians over the run's set-up samples and passes."""
    return {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(p.run_s for p in passes),
        "peak_rss_mb": statistics.median(p.maxrss_kb for p in passes) / 1024,
    }


def per_layer(untraced: Pass, traced: Pass) -> dict:
    metrics = tracer.layer_metrics(tracer.merge(traced.dumps))
    for suite in workloads.SUITES:
        metrics[f"verify.{suite}_s"] = sum(
            s for name, s in zip(traced.names, traced.latencies) if name.split("/")[0] == suite)
    metrics["verify.checks"] = traced.checks
    if traced.cli:
        metrics["cli.import_s"] = statistics.median(c["import_s"] for c in traced.cli)
        metrics["cli.main_s"] = statistics.median(c["main_s"] for c in traced.cli)
        metrics["cli.scipy_loaded"] = sum(c["scipy_loaded"] for c in traced.cli) / len(traced.cli)
        # Per-call latency of the untraced calls: the median and p75, the
        # highest percentile with ten calls beyond it at 40 calls.
        _, p50, p75 = statistics.quantiles(untraced.latencies, n=4)
        metrics["cli.call_p50_ms"] = 1000 * p50
        metrics["cli.call_p75_ms"] = 1000 * p75
    metrics["trace.run_s"] = traced.run_s
    metrics["trace.untraced_run_s"] = untraced.run_s
    metrics["trace.overhead_s"] = traced.run_s - untraced.run_s
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "symfact", "__init__.py")):
        log(f"no symfact package under {SRC}; run from a checkout of the repository")
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    with open(os.path.join(HERE, "expected.json")) as fh:
        digests = json.load(fh)["cli"]
    # Compile the sources once, so no probe or pass pays for byte-compiling.
    compileall.compile_dir(SRC, quiet=1)
    env = child_env()

    setups = [] if args.trace else probes(args.workload, env)
    if args.trace:
        passes = [one_pass(args.workload, args.seed, False, env, digests),
                  one_pass(args.workload, args.seed, True, env, digests)]
    else:
        passes = []
        began = time.perf_counter()
        while True:
            start = time.perf_counter()
            passes.append(one_pass(args.workload, args.seed, False, env, digests))
            last = time.perf_counter() - start
            if time.perf_counter() - began + last > args.seconds:
                break
    setups += [p.setup_s for p in passes if p.setup_s is not None]

    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(len(p.errors) for p in passes)
    for p in passes:
        for name, errors in p.errors:
            log(f"FAILED {name}: {'; '.join(errors)}")
    log(f"{args.workload} seed={args.seed}: {len(passes)} pass(es), {attempted} ops, {failed} failed, "
        f"run_s {[round(p.run_s, 3) for p in passes]}, setup_s {[round(s, 3) for s in setups]}")

    if args.trace:
        measured, wanted = per_layer(*passes), declared["per_layer"]
    else:
        measured, wanted = end_to_end(passes, setups), declared["end_to_end"]
    metrics = {m["name"]: {"value": measured.get(m["name"], 0), "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
