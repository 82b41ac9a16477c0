"""Outside-in layer trace of planarcrit.

The package imports names directly (``from .sampling import eval_many``),
so a layer is wrapped where it is looked up: the module attribute its
caller reads at call time.  ``installed`` swaps in the wrappers and puts
the originals back on exit.  Spans stay in memory; self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time

import numpy as np

# Index of each field of a span record (a list, for low overhead).
NAME, PARENT, OP, START, END, COUNTS = range(6)


def _eval_terms(args, kwargs, result):
    f, x = args[0], args[1]
    return {"point_terms": np.atleast_2d(np.asarray(x)).shape[0] * f.nterms}


def _sample_draws(args, kwargs, result):
    return {"draws": len(result)}


def _finder_prepare(args, kwargs):
    if len(args) < 4:
        kwargs.setdefault("diagnostics", {})


def _finder_counts(args, kwargs, result):
    diag = (args[3] if len(args) >= 4 else kwargs.get("diagnostics")) or {}
    return {
        "seeds": diag.get("nseeds", 0),
        "converged": diag.get("nconverged", 0),
        "dropped": diag.get("ndropped", 0),
        "roots": diag.get("nreturned", 0),
    }


def _realization_key(args, kwargs, result):
    model, M, seed, window, cfg, _ = args[0]
    # A string counter is counted as distinct values, not summed.
    return {"distinct": repr((model, M, seed, window, cfg))}


# (module, attribute, layer, counter, prepare).  The module is the caller's,
# because that is where the name is looked up.
CALL_SITES = (
    ("planarcrit.estimators", "_realization_stats", "estimators._realization_stats",
     _realization_key, None),
    ("planarcrit.estimators", "sample_field", "sampling.sample_field", None, None),
    ("planarcrit.estimators", "find_critical_points", "finder.find_critical_points",
     _finder_counts, _finder_prepare),
    ("planarcrit.estimators", "_ball_counts", "estimators._ball_counts", None, None),
    ("planarcrit.finder", "eval_many", "sampling.eval_many", _eval_terms, None),
    ("planarcrit.finder", "eval_gradient", "sampling.eval_gradient", _eval_terms, None),
    ("planarcrit.finder", "_dedup", "finder._dedup", None, None),
    ("planarcrit.kacrice", "derivative_covariance", "models.derivative_covariance", None, None),
    ("planarcrit.kacrice", "_pair_conditional", "kacrice._pair_conditional", None, None),
    ("planarcrit.kacrice", "ConditionalGaussian.sample", "kacrice.sample", _sample_draws, None),
    ("planarcrit.kacrice", "one_point_intensity_mc", "kacrice.one_point_intensity_mc", None, None),
    ("planarcrit.kacrice", "two_point_correlation", "kacrice.two_point_correlation", None, None),
    ("planarcrit.kacrice", "_k2_node", "kacrice.quadrature", None, None),
)


class Tracer:
    """Spans recorded by wrapped call sites, one list per tracer."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []

    def wrap(self, layer: str, fn, counter=None, prepare=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if prepare is not None:
                prepare(args, kwargs)
            rec = [layer, stack[-1] if stack else -1, self.op, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                stack.pop()
            if counter is not None:
                rec[COUNTS] = counter(args, kwargs, result)
            return result

        return wrapper

    def root(self, op, fn, *args):
        """Call fn(*args) as the root span of operation `op`."""
        self.op = op
        try:
            return self.wrap("cli", fn)(*args)
        finally:
            self.op = None


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every call site for the duration of the block."""
    saved = []
    try:
        for module, attr, layer, counter, prepare in CALL_SITES:
            owner, name = _resolve(module, attr)
            original = owner.__dict__[name]
            saved.append((owner, name, original))
            setattr(owner, name, tracer.wrap(layer, original, counter, prepare))
        yield tracer
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


def layer_totals(spans, op=None) -> dict:
    """{layer: {calls, total_s, self_s, counters...}}, optionally for one op.

    Numeric counters are summed; string counters give the number of
    distinct values.
    """
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]
    out: dict = {}
    distinct: dict = {}
    for i, rec in enumerate(spans):
        if op is not None and rec[OP] != op:
            continue
        dur = rec[END] - rec[START]
        agg = out.setdefault(rec[NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["total_s"] += dur
        agg["self_s"] += dur - child[i]
        for key, val in (rec[COUNTS] or {}).items():
            if isinstance(val, str):
                distinct.setdefault((rec[NAME], key), set()).add(val)
            else:
                agg[key] = agg.get(key, 0) + val
    for (layer, key), values in distinct.items():
        out[layer][key] = len(values)
    return out


def layer_values(totals: dict) -> dict:
    """The per-layer metrics of one traced job, except those needing an
    untraced run (wnv, trace.overhead_frac)."""

    def get(layer, key):
        return totals.get(layer, {}).get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    finds = get("finder.find_critical_points", "calls")
    return {
        "models.derivative_covariance.calls": get("models.derivative_covariance", "calls"),
        "models.derivative_covariance.self_s": get("models.derivative_covariance", "self_s"),
        "kacrice._pair_conditional.calls": get("kacrice._pair_conditional", "calls"),
        "kacrice._pair_conditional.s_per_call": ratio(
            get("kacrice._pair_conditional", "total_s"), get("kacrice._pair_conditional", "calls")
        ),
        "kacrice.sample.draws": get("kacrice.sample", "draws"),
        "kacrice.sample.self_s": get("kacrice.sample", "self_s"),
        "kacrice.sample.draws_per_s": ratio(
            get("kacrice.sample", "draws"), get("kacrice.sample", "self_s")
        ),
        "kacrice.two_point_correlation.self_s": get("kacrice.two_point_correlation", "self_s"),
        "kacrice.quadrature.nodes": get("kacrice.quadrature", "calls"),
        "kacrice.one_point_intensity_mc.self_s": get("kacrice.one_point_intensity_mc", "self_s"),
        "sampling.eval_many.calls": get("sampling.eval_many", "calls"),
        "sampling.eval_many.self_s": get("sampling.eval_many", "self_s"),
        "sampling.eval_many.point_terms": get("sampling.eval_many", "point_terms"),
        "sampling.eval_many.point_terms_per_s": ratio(
            get("sampling.eval_many", "point_terms"), get("sampling.eval_many", "self_s")
        ),
        "sampling.eval_gradient.calls": get("sampling.eval_gradient", "calls"),
        "sampling.eval_gradient.self_s": get("sampling.eval_gradient", "self_s"),
        "sampling.sample_field.self_s": get("sampling.sample_field", "self_s"),
        "finder.find_critical_points.s_per_realization": ratio(
            get("finder.find_critical_points", "total_s"), finds
        ),
        "finder.seeds": get("finder.find_critical_points", "seeds"),
        "finder.converged": get("finder.find_critical_points", "converged"),
        "finder.dropped": get("finder.find_critical_points", "dropped"),
        "finder.roots": get("finder.find_critical_points", "roots"),
        "finder.roots_per_seed": ratio(
            get("finder.find_critical_points", "roots"), get("finder.find_critical_points", "seeds")
        ),
        "finder.eval_calls_per_realization": ratio(
            get("sampling.eval_many", "calls") + get("sampling.eval_gradient", "calls"), finds
        ),
        "finder._dedup.self_s": get("finder._dedup", "self_s"),
        "estimators._realization_stats.calls": get("estimators._realization_stats", "calls"),
        "estimators.sweep_redundancy": ratio(
            get("estimators._realization_stats", "calls"),
            get("estimators._realization_stats", "distinct"),
        ),
        "estimators._ball_counts.calls": get("estimators._ball_counts", "calls"),
        "estimators._ball_counts.self_s": get("estimators._ball_counts", "self_s"),
        "cli.self_s": get("cli", "self_s"),
    }
