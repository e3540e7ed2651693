"""Spans recorded from outside the program, and the per-layer metrics derived from them.

`Tracer.install()` replaces every public function bound in any loaded
`zflim` module with a wrapper that records a span (name, start, end,
parent).  The modules import each other's functions with `from .x import
y`, so one function is bound in several modules (`simplex_max_leq` lives in
`zflim.simplex`, `zflim.duality_lp` and `zflim.zf_search`); every binding
gets the same wrapper, which keeps a call site measured after it moves.
Spans are named after the defining module and the function, e.g.
`simplex.simplex_max_leq`, so the first part of a name is its layer.

Class methods (Horner evaluation, multiplier responses) are not wrapped:
their time counts as self time of the public function that called them.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
import types

import numpy as np

LAYERS = (
    "cli",
    "duality_lp",
    "zf_search",
    "simplex",
    "lti_core",
    "phase_limits",
    "rational_core",
    "interval_limits",
    "continuous_duality",
)

SIMPLEX = "simplex.simplex_max_leq"
LP_CERT = "duality_lp.lp_certificate"
UPPER_BISECT = "duality_lp.bisect_upper_bound"
SEARCH = "zf_search.find_multiplier"
LOWER_BISECT = "zf_search.bisect_lower_bound"

# (name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    ("simplex.calls", "count"),
    ("simplex.pivots", "count"),
    ("simplex.pivots_max", "count"),
    ("simplex.busy_s", "s"),
    ("simplex.us_per_pivot", "us"),
    ("simplex.rows_max", "count"),
    ("simplex.bytes_per_pivot", "B"),
    ("simplex.failures", "count"),
    ("duality_lp.lp_certificate.calls", "count"),
    ("duality_lp.lp_certificate.busy_s", "s"),
    ("duality_lp.lp_certificate.self_s", "s"),
    ("duality_lp.certified_frac", "frac"),
    ("duality_lp.build_vectors.busy_s", "s"),
    ("duality_lp.bisect_upper_bound.busy_s", "s"),
    ("duality_lp.lps_per_bound", "count"),
    ("zf_search.find_multiplier.calls", "count"),
    ("zf_search.find_multiplier.busy_s", "s"),
    ("zf_search.found_frac", "frac"),
    ("zf_search.lps_per_search", "count"),
    ("zf_search.bisect_lower_bound.busy_s", "s"),
    ("zf_search.searches_per_bound", "count"),
    ("lti_core.nyquist_value.busy_s", "s"),
    ("lti_core.frequency_response.calls", "count"),
    ("lti_core.frequency_response.busy_s", "s"),
    ("lti_core.is_stable.calls", "count"),
    ("lti_core.is_stable.busy_s", "s"),
    ("phase_limits.scan_upper_bound.busy_s", "s"),
    ("rational_core.construct_tight_multiplier.busy_s", "s"),
    ("interval_limits.legacy_upper_bound.busy_s", "s"),
    ("interval_limits.interval_slope_bound.calls", "count"),
    ("continuous_duality.ct_check.busy_s", "s"),
    ("cli.analyze.nyquist_s", "s"),
    ("cli.analyze.scan_upper_s", "s"),
    ("cli.analyze.lower_bound_s", "s"),
    ("cli.analyze.lp_upper_s", "s"),
    ("cli.analyze.self_s", "s"),
) + tuple((f"{layer}.self_s", "s") for layer in LAYERS) + (
    ("trace.coverage_frac", "frac"),
    ("trace.overhead_frac", "frac"),
)


def _simplex_info(signature):
    def info(args, kwargs, result, error):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        rows, cols = np.shape(bound.arguments["A"])
        failed = error is not None
        # a failure means the pivot limit was reached
        pivots = bound.arguments["maxiter"] if failed else result.iterations
        return {"rows": rows, "cols": cols, "pivots": pivots, "failed": failed}

    return info


def _found_info(args, kwargs, result, error):
    return {"found": error is None and result is not None}


class Tracer:
    """Records spans of zflim's public functions while installed."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, info dict or None]
        self._stack = []
        self._patched = []

    def install(self):
        wrappers = {}
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "zflim" or modname.startswith("zflim.")):
                continue
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(value, types.FunctionType):
                    continue
                if not value.__module__.startswith("zflim"):
                    continue
                if id(value) not in wrappers:
                    wrappers[id(value)] = self._wrap(value)
                setattr(module, attr, wrappers[id(value)])
                self._patched.append((module, attr, value))

    def uninstall(self):
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def _wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        if name == SIMPLEX:
            info = _simplex_info(inspect.signature(fn))
        elif name in (LP_CERT, SEARCH):
            info = _found_info
        else:
            info = None
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = clock()
                stack.pop()
                span[4] = info(args, kwargs, None, exc) if info else None
                raise
            span[2] = clock()
            stack.pop()
            if info is not None:
                span[4] = info(args, kwargs, result, None)
            return result

        return wrapper


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def _outermost(spans, i: int, key) -> bool:
    """True when no ancestor of span i has the same key of its name."""
    own = key(spans[i][0])
    p = spans[i][3]
    while p is not None:
        if key(spans[p][0]) == own:
            return False
        p = spans[p][3]
    return True


def layer_metrics(spans, pass_wall_s: float, analyze_wall_times=()) -> dict:
    """Per-layer metrics of one traced pass.

    `busy` is the time inside a function or layer, counting nested calls of
    the same function or layer once; `self` is that time minus the time in
    child spans.  `analyze_wall_times` holds, per `analyze` call, the
    report's stage timings; they are matched in order with the
    `cli.cmd_analyze` spans.
    """
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[3] is not None:
            child[s[3]] += dur[i]
    layer = [_layer(s[0]) for s in spans]

    def under(i, name):
        p = spans[i][3]
        while p is not None and spans[p][0] != name:
            p = spans[p][3]
        return p is not None

    by_name = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def calls(name):
        return len(by_name.get(name, ()))

    def busy(name):
        return sum(dur[i] for i in by_name.get(name, ()) if _outermost(spans, i, str))

    def self_time(name):
        return sum(dur[i] - child[i] for i in by_name.get(name, ()))

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    lps = by_name.get(SIMPLEX, [])
    infos = [spans[i][4] for i in lps]
    pivots = sum(x["pivots"] for x in infos)
    m["simplex.calls"] = len(lps)
    m["simplex.pivots"] = pivots
    m["simplex.pivots_max"] = max((x["pivots"] for x in infos), default=0)
    m["simplex.busy_s"] = busy(SIMPLEX)
    m["simplex.us_per_pivot"] = ratio(1e6 * m["simplex.busy_s"], pivots)
    m["simplex.rows_max"] = max((x["rows"] for x in infos), default=0)
    # computed, not measured: a pivot's rank-1 update reads and writes the
    # m x (n+m+1) float64 tableau and writes then reads an outer-product
    # temporary of the same shape, so 4 * 8 bytes per tableau entry
    moved = sum(x["pivots"] * 32 * x["rows"] * (x["cols"] + x["rows"] + 1) for x in infos)
    m["simplex.bytes_per_pivot"] = ratio(moved, pivots)
    m["simplex.failures"] = sum(1 for x in infos if x["failed"])

    certs = by_name.get(LP_CERT, [])
    m["duality_lp.lp_certificate.calls"] = len(certs)
    m["duality_lp.lp_certificate.busy_s"] = busy(LP_CERT)
    m["duality_lp.lp_certificate.self_s"] = self_time(LP_CERT)
    m["duality_lp.certified_frac"] = ratio(sum(spans[i][4]["found"] for i in certs), len(certs))
    m["duality_lp.build_vectors.busy_s"] = busy("duality_lp.build_vectors")
    m["duality_lp.bisect_upper_bound.busy_s"] = busy(UPPER_BISECT)
    m["duality_lp.lps_per_bound"] = ratio(
        sum(1 for i in certs if under(i, UPPER_BISECT)), calls(UPPER_BISECT)
    )

    searches = by_name.get(SEARCH, [])
    m["zf_search.find_multiplier.calls"] = len(searches)
    m["zf_search.find_multiplier.busy_s"] = busy(SEARCH)
    m["zf_search.found_frac"] = ratio(sum(spans[i][4]["found"] for i in searches), len(searches))
    m["zf_search.lps_per_search"] = ratio(
        sum(1 for i in lps if under(i, SEARCH)), len(searches)
    )
    m["zf_search.bisect_lower_bound.busy_s"] = busy(LOWER_BISECT)
    m["zf_search.searches_per_bound"] = ratio(
        sum(1 for i in searches if under(i, LOWER_BISECT)), calls(LOWER_BISECT)
    )

    m["lti_core.nyquist_value.busy_s"] = busy("lti_core.nyquist_value")
    m["lti_core.frequency_response.calls"] = calls("lti_core.frequency_response")
    m["lti_core.frequency_response.busy_s"] = busy("lti_core.frequency_response")
    m["lti_core.is_stable.calls"] = calls("lti_core.is_stable")
    m["lti_core.is_stable.busy_s"] = busy("lti_core.is_stable")
    m["phase_limits.scan_upper_bound.busy_s"] = busy("phase_limits.scan_upper_bound")
    m["rational_core.construct_tight_multiplier.busy_s"] = busy(
        "rational_core.construct_tight_multiplier"
    )
    m["interval_limits.legacy_upper_bound.busy_s"] = busy("interval_limits.legacy_upper_bound")
    m["interval_limits.interval_slope_bound.calls"] = calls("interval_limits.interval_slope_bound")
    m["continuous_duality.ct_check.busy_s"] = busy("continuous_duality.ct_check_odd") + busy(
        "continuous_duality.ct_check_nonodd"
    )

    analyze_spans = by_name.get("cli.cmd_analyze", [])
    stages = ("nyquist", "scan_upper", "lower_bound", "lp_upper")
    for stage in stages:
        m[f"cli.analyze.{stage}_s"] = sum(w.get(stage, 0.0) for w in analyze_wall_times)
    m["cli.analyze.self_s"] = sum(
        dur[i] - sum(w.get(stage, 0.0) for stage in stages)
        for i, w in zip(analyze_spans, analyze_wall_times)
    )

    for name in LAYERS:
        m[f"{name}.self_s"] = sum(dur[i] - child[i] for i in range(n) if layer[i] == name)
    roots = sum(dur[i] for i in range(n) if spans[i][3] is None)
    m["trace.coverage_frac"] = ratio(roots, pass_wall_s)
    return m


def busy_share(span_lists, pass_walls) -> dict:
    """Share of the traced passes' time spent inside each layer, nested calls counted once."""
    busy = {}
    for spans in span_lists:
        for i, s in enumerate(spans):
            if _outermost(spans, i, _layer):
                busy[_layer(s[0])] = busy.get(_layer(s[0]), 0.0) + s[2] - s[1]
    total = sum(pass_walls)
    return {name: t / total for name, t in busy.items()}


def median_metrics(per_pass: list) -> dict:
    return {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
