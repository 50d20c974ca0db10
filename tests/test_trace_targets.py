"""Every function the trace harness wraps still exists under its traced name.

``bench/tracer.py`` finds its targets by module and attribute name, so a
rename or deletion in ``symfact`` would otherwise only show as a failure of
``bench/run.py --trace 1``; likewise its result counters read the quadrature
records by shape.  The tracer module is loaded and read; nothing is
installed.
"""

import importlib
import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest

from symfact import quadcheck as qc
from symfact.bases import schur_poly
from symfact.partitions import Partition
from symfact.poly import MultiPoly

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("_symfact_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()
TARGETS = tracer.SPANS + tracer.COUNTS


@pytest.mark.parametrize("name, modname, attr", TARGETS, ids=[f"{m}:{a}" for _, m, a in TARGETS])
def test_target_resolves(name, modname, attr):
    # the same lookup as Tracer.install
    owner = importlib.import_module(modname)
    if "." in attr:
        cls, attr = attr.split(".")
        owner = getattr(owner, cls)
    assert attr in vars(owner), f"{name}: {modname} has no {attr!r} of its own"
    assert callable(vars(owner)[attr])


# One real call of each quadcheck entry point the tracer counts evaluations of.
QUADRATURE_CALLS = {
    "integral_q": lambda: qc.integral_q(schur_poly(Partition((1, 0))).normalized, Fraction(3, 2), (1, 2)),
    "integral_a": lambda: qc.integral_a(Partition((1, 1, 0)), 3, Fraction(3, 2), (2, 3)),
    "core_alternant_integral": lambda: qc.core_alternant_integral(Partition((1, 0)), (1, 2), Fraction(3, 2)),
    "integral_q0prime": lambda: qc.integral_q0prime(MultiPoly.variable(0, 1), (1, 2)),
}
QUADRATURE_SPANS = sorted(name for name in tracer.RESULT_COUNTERS if name.startswith("quadcheck."))


@pytest.mark.parametrize("name", QUADRATURE_SPANS)
def test_result_counter_reads_a_real_result(name):
    # the tracer's measure reads the entry point's return value by shape
    _counter, measure = tracer.RESULT_COUNTERS[name]
    count = measure(QUADRATURE_CALLS[name.removeprefix("quadcheck.")]())
    assert type(count) is int and count > 0
