"""Spans around symfact's public functions, installed from outside the package.

`install` replaces each traced function by a wrapper in every symfact module
namespace (and module-level dict) that holds it, and each traced method on
its class, so calls between modules are seen too.  Spans are aggregated per
name in memory -- calls, self time (span time minus the wrapped child spans
inside it) and total time -- because one pass opens tens of thousands of
spans; a worker writes the aggregate out once, when its pass ends.
"""

from __future__ import annotations

import sys
import time
import types

QUADRATURE = ("integral_q", "integral_a", "core_alternant_integral", "integral_q0prime")

# (span name, module, attribute; "Class.attr" for a method), one entry per
# wrapped callable.  Entries sharing a span name share its statistics.
SPANS = [
    *[(f"qops_elementary.{f}", "symfact.qops_elementary", f)
      for f in ("separate_via_q", "apply_q", "apply_a", "apply_h")],
    *[(f"qops_schur.{f}", "symfact.qops_schur", f)
      for f in ("apply_h", "separate_inverse", "apply_k", "apply_q", "lift", "q_poly")],
    *[(f"qops_monomial.{f}", "symfact.qops_monomial", f)
      for f in ("apply_q", "apply_h", "apply_a", "separate")],
    *[(f"bases.{f}", "symfact.bases", f)
      for f in ("schur_poly", "alternant", "expand_in_basis", "restricted_schur")],
    *[(f"quadcheck.{f}", "symfact.quadcheck", f) for f in QUADRATURE],
    ("poly.det", "symfact.poly", "det"),
    ("poly.mul", "symfact.poly", "MultiPoly.__mul__"),
    ("poly.add_sub", "symfact.poly", "MultiPoly.__add__"),
    ("poly.add_sub", "symfact.poly", "MultiPoly.__sub__"),
    ("poly.add_sub", "symfact.poly", "MultiPoly.__neg__"),
    ("poly.divide_exact", "symfact.poly", "MultiPoly.divide_exact"),
    ("poly.partial_eval", "symfact.poly", "MultiPoly.partial_eval"),
    ("poly.is_symmetric", "symfact.poly", "MultiPoly.is_symmetric"),
    ("poly.permute", "symfact.poly", "MultiPoly.permute"),
    *[("poly.unipoly", "symfact.poly", f"UniPoly.{f}")
      for f in ("__add__", "__neg__", "__sub__", "__mul__", "__pow__", "eval",
                "derivative", "euler", "divide_exact", "as_multipoly")],
]

# Constructions are counted without a span, so that building a result stays
# in the self time of the operation that built it.
COUNTS = [("poly.new", "symfact.poly", "MultiPoly.__init__")]


def _evaluations(result) -> int:
    """QuadratureResult.evaluations of whatever a quadcheck entry point returns."""
    if isinstance(result, tuple):
        return result[-1].evaluations
    return (getattr(result, "denominator", None) or result.computed).evaluations


# Counters summed over the results of a span: span name -> (counter, measure).
RESULT_COUNTERS = {
    "poly.mul": ("poly.mul.out_terms", lambda r: len(r.terms)),
    **{f"quadcheck.{f}": ("quadcheck.evaluations", _evaluations) for f in QUADRATURE},
}


class Tracer:
    def __init__(self):
        self.spans: dict[str, list] = {}  # name -> [calls, self_s, total_s]
        self.counters: dict[str, int] = {}
        self._open: list[float] = []  # child time accumulated by each open span
        self._caches = []

    def _span(self, name, fn, counter=None):
        stat = self.spans.setdefault(name, [0, 0.0, 0.0])
        if counter:
            self.counters.setdefault(counter[0], 0)
        open_ = self._open
        counters = self.counters
        clock = time.perf_counter

        def span(*args, **kwargs):
            start = clock()
            open_.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = open_.pop()
                if open_:
                    open_[-1] += elapsed
                stat[0] += 1
                stat[1] += elapsed - inner
                stat[2] += elapsed
            if counter:
                counters[counter[0]] += counter[1](result)
            return result

        return span

    def _count(self, name, fn):
        key = f"{name}.calls"
        counters = self.counters
        counters.setdefault(key, 0)

        def count(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        return count

    def install(self):
        """Wrap every SPANS and COUNTS target of the symfact modules loaded so far."""
        modules = [m for name, m in sys.modules.items()
                   if name == "symfact" or name.startswith("symfact.")]
        bases = sys.modules["symfact.bases"]
        self._caches = [v for k, v in vars(bases).items()
                        if not k.startswith("_") and hasattr(v, "cache_info")]
        targets = [(n, mod, attr, False) for n, mod, attr in SPANS]
        targets += [(n, mod, attr, True) for n, mod, attr in COUNTS]
        for name, modname, attr, count_only in targets:
            if modname not in sys.modules:
                continue
            owner = sys.modules[modname]
            if "." in attr:
                cls, attr = attr.split(".")
                owner = getattr(owner, cls)
            original = vars(owner)[attr]
            if count_only:
                wrapper = self._count(name, original)
            else:
                wrapper = self._span(name, original, RESULT_COUNTERS.get(name))
            if isinstance(owner, type):
                _replace(owner, original, wrapper)
            else:
                for mod in modules:
                    _replace(mod, original, wrapper)

    def cache_totals(self) -> tuple[int, int]:
        infos = [c.cache_info() for c in self._caches]
        return sum(i.hits for i in infos), sum(i.misses for i in infos)

    def dump(self) -> dict:
        hits, misses = self.cache_totals()
        return {"spans": self.spans, "counters": self.counters,
                "cache_hits": hits, "cache_misses": misses}


def _replace(namespace, original, wrapper):
    """Rebind every name (and module-level dict value) that holds `original`."""
    for key, value in list(vars(namespace).items()):
        if value is original:
            setattr(namespace, key, wrapper)
        elif isinstance(namespace, types.ModuleType) and isinstance(value, dict):
            for k, v in value.items():
                if v is original:
                    value[k] = wrapper


def merge(dumps: list[dict]) -> dict:
    """Sum the dumps of several traced processes."""
    out = {"spans": {}, "counters": {}, "cache_hits": 0, "cache_misses": 0}
    for d in dumps:
        for name, stat in d["spans"].items():
            acc = out["spans"].setdefault(name, [0, 0.0, 0.0])
            for i, v in enumerate(stat):
                acc[i] += v
        for name, v in d["counters"].items():
            out["counters"][name] = out["counters"].get(name, 0) + v
        out["cache_hits"] += d["cache_hits"]
        out["cache_misses"] += d["cache_misses"]
    return out


def layer_metrics(dump: dict) -> dict:
    """Flatten a dump into `<span>.calls|self_s|total_s`, counters and cache figures."""
    out = dict(dump["counters"])
    for name, (calls, self_s, total_s) in dump["spans"].items():
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_s
        out[f"{name}.total_s"] = total_s
    hits, misses = dump["cache_hits"], dump["cache_misses"]
    out["bases.cache_hits"] = hits
    out["bases.cache_misses"] = misses
    out["bases.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    return out
