"""Every function the trace harness wraps still exists under its traced name.

``bench/tracer.py`` finds its targets by module and attribute name, so a
rename or deletion in ``symfact`` would otherwise only show as a failure of
``bench/run.py --trace 1``.  The tracer module is loaded and read; nothing
is installed.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

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
