"""Layer tracer that wraps polyterm's entry points from outside the package.

Every target is wrapped at *every* binding: a function imported by name into
several modules (``nonneg_on`` lives in ``positivity``, ``interp``,
``prover`` and the package itself) is replaced in each of them, and a method
aliased inside its class (``__radd__ = __add__``) is replaced under every
alias.  Nothing under ``src/`` is edited.

Three wrapper kinds keep the traced run a small multiple of the untraced one:

* ``span``  -- counts calls, accumulates self time and records a span
  ``(id, name, start, end, parent id)`` in memory;
* ``timed`` -- counts calls and accumulates self time, no span record
  (hot leaves such as ``Poly.__mul__`` and the ``QuadExt`` operators);
* ``count`` -- counts calls only (``scalar_sign``, millions of calls).

Self time is a call's duration minus the time of the wrapped calls nested in
it.  A direct re-entry of the same metric (``eval_term`` into
``eval_term_with``, and its recursion) is counted but folded into the outer
call, so recursion neither double-counts time nor floods the span list.

A target whose module or attribute no longer exists is reported in
``missing`` with the reason; its metrics are then absent, never zero.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from collections import Counter, defaultdict

SPAN, TIMED, COUNT = "span", "timed", "count"
PACKAGE = "polyterm"
MAX_SPANS = 1_000_000  # spans kept in memory per run; later ones are dropped

# Calls of these metrics mark the enclosing span, which yields the
# "reached nonneg_on" and "reached _compat" ratios.
MARKERS = ("positivity.nonneg_on", "prover.compat")

_QUADEXT_OPS = ("__add__", "__radd__", "__sub__", "__rsub__",
                "__mul__", "__rmul__", "__truediv__", "__rtruediv__")

# (metric, module, attribute path, kind)
TARGETS = (
    [("numeric.scalar_sign", "numeric", "scalar_sign", COUNT)]
    + [("numeric.quadext_ops", "numeric", "QuadExt." + op, TIMED) for op in _QUADEXT_OPS]
    + [
        ("poly.mul", "poly", "Poly.__mul__", TIMED),
        ("poly.eval", "poly", "Poly.eval", TIMED),
        ("poly.compose", "poly", "Poly.compose", TIMED),
        ("poly.shift", "poly", "Poly.shift", COUNT),
        ("trs.parse", "trs", "parse_trs", SPAN),
        ("interp.parse_certificate", "interp", "parse_certificate", SPAN),
        ("positivity.nonneg_on", "positivity", "nonneg_on", SPAN),
        ("interp.eval_term", "interp", "eval_term", SPAN),
        ("interp.eval_term", "interp", "eval_term_with", SPAN),
        ("interp.rule_detail", "interp", "_rule_detail", SPAN),
        ("interp.check", "interp", "check_certificate", SPAN),
        ("interp.check", "prover", "check_incremental", SPAN),
        ("interp.mono", "interp", "_mono_argument", SPAN),
        ("prover.candidates", "prover", "_symbol_candidates", SPAN),
        ("prover.candidates.tried", "prover", "_candidate_permissible", COUNT),
        ("prover.plan", "prover", "_plan_order", SPAN),
        ("prover.init", "prover", "_Searcher.__init__", SPAN),
        ("prover.dfs", "prover", "_Searcher.iterate", SPAN),
        ("prover.dfs", "prover", "_Searcher.scan_removal", SPAN),
        ("prover.compat", "prover", "_Searcher._compat", SPAN),
        ("prover.level_candidates", "prover", "_Searcher._level_candidates", SPAN),
        ("corpus.load", "corpus", "load_corpus", SPAN),
        ("corpus.load", "corpus", "load_trs", SPAN),
        ("corpus.load", "corpus", "load_certificate", SPAN),
        ("cli.run_cli", "cli", "run_cli", SPAN),
    ]
)

RUNGS = ("constant", "absolute", "quadratic", "shifted_n", "grid", "unknown")


def nonneg_rung(args, kwargs, verdict) -> str:
    """The ladder rung that decided ``nonneg_on(p, base)``.

    Read from the returned Verdict and the input's shape only, without
    calling anything the tracer wraps (that would inflate its counts).
    """
    if verdict.status == "unknown":
        return "unknown"
    method = verdict.method or ""
    if verdict.status == "proved":
        if method == "constant":
            return "constant"
        if method == "absolute-positiveness":
            return "absolute"
        if method == "quadratic-criterion":
            return "quadratic"
        if method.startswith("shifted"):
            return "shifted_n"
        return "grid"
    if verdict.witness == ():
        return "constant"  # a negative constant is refuted at the empty point
    p = args[0]
    base = args[1] if len(args) > 1 else kwargs.get("base")
    if base in ("Q0", "R0") and len(p.variables()) == 1 and p.degree() <= 2:
        return "quadratic"
    return "grid"


def _rung_hook(tracer, args, kwargs, verdict, own):
    rung = "positivity.rung." + nonneg_rung(args, kwargs, verdict)
    tracer.calls[rung] += 1
    tracer.self_s[rung] += own


def _kept_hook(tracer, args, kwargs, polys, own):
    tracer.calls["prover.candidates.kept"] += len(polys)


def _driver_hook(tracer, args, kwargs, passing, own):
    searcher, level = args[0], args[1]
    if not searcher.driver_rules[level]:
        # no driver rules: the level returns every candidate, no memo involved
        tracer.calls["prover.level_candidates.no_driver"] += 1


# per-metric hooks run on each completed, unfolded call
HOOKS = {"positivity.nonneg_on": _rung_hook, "prover.candidates": _kept_hook,
         "prover.level_candidates": _driver_hook}


class Tracer:
    """Counts, self times and spans for the wrapped entry points."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.marks: Counter = Counter()  # (span metric, marker metric) -> calls
        # five doubles per span: id, name index, start, end, parent id
        self.spans = array("d")
        self.span_names: list[str] = []
        self.dropped_spans = 0
        self.missing: list[tuple[str, str]] = []
        self._stack: list = []  # frames [metric, span id, child time, marks]
        self._next_id = 1

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        found, wrappers = {}, set()
        for modname in sorted({t[1] for t in TARGETS}):
            try:
                found[modname] = importlib.import_module(f"{PACKAGE}.{modname}")
            except ImportError as exc:
                found[modname] = exc
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for metric, modname, path, kind in TARGETS:
            where = f"{PACKAGE}.{modname}.{path}"
            module = found[modname]
            if isinstance(module, ImportError):
                self.missing.append((metric, f"{where}: {module}"))
                continue
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = (owner.__dict__.get(attr) if isinstance(owner, type)
                        else getattr(owner, attr, None)) if owner is not None else None
            if original is None:
                self.missing.append((metric, f"{where} not found"))
                continue
            if original in wrappers:
                continue  # an alias of a target wrapped already (__radd__ = __add__)
            wrapper = self._wrap(metric, original, kind, HOOKS.get(metric))
            wrappers.add(wrapper)
            owners = [owner] if isinstance(owner, type) else modules
            for holder in owners:
                for name, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, name, wrapper)

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, metric, fn, kind, hook):
        calls = self.calls
        if kind == COUNT:
            def counted(*args, **kwargs):
                calls[metric] += 1
                return fn(*args, **kwargs)
            return counted

        stack = self._stack
        self_s = self.self_s
        clock = time.perf_counter
        record = kind == SPAN
        if record and metric not in self.span_names:
            self.span_names.append(metric)
        name_index = self.span_names.index(metric) if record else -1
        spans = self.spans
        limit = 5 * MAX_SPANS
        marker = metric in MARKERS

        def timed(*args, **kwargs):
            calls[metric] += 1
            parent = stack[-1] if stack else None
            if parent is not None:
                if parent[0] == metric:
                    return fn(*args, **kwargs)  # re-entry: folded into the caller
                if marker:
                    if parent[3] is None:
                        parent[3] = set()
                    parent[3].add(metric)
            parent_id = parent[1] if parent is not None else 0
            if record:
                span_id = self._next_id
                self._next_id = span_id + 1
            else:
                span_id = parent_id  # children hang off the nearest span
            frame = [metric, span_id, 0.0, None]
            stack.append(frame)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                own = duration - frame[2]
                self_s[metric] += own
                if parent is not None:
                    parent[2] += duration
                if frame[3]:
                    for m in frame[3]:
                        self.marks[(metric, m)] += 1
                if hook is not None and result is not None:
                    hook(self, args, kwargs, result, own)
                if record:
                    if len(spans) < limit:
                        spans.extend((span_id, name_index, start, end, parent_id))
                    else:
                        self.dropped_spans += 1

        return timed

    # -- results ------------------------------------------------------------

    def metric_names(self) -> set[str]:
        """Metrics whose entry points were all found."""
        missing = {m for m, _ in self.missing}
        return {m for m, _, _, _ in TARGETS if m not in missing}

    def marked(self, metric: str, marker: str) -> int:
        return self.marks[(metric, marker)]


# metric -> the fields reported for it in the traced run
REPORTED = {
    "numeric.scalar_sign": ("calls",),
    "numeric.quadext_ops": ("calls", "self_s"),
    "poly.compose": ("calls", "self_s"),
    "poly.mul": ("calls", "self_s"),
    "poly.eval": ("calls", "self_s"),
    "poly.shift": ("calls",),
    "trs.parse": ("calls", "self_s"),
    "interp.parse_certificate": ("self_s",),
    "positivity.nonneg_on": ("calls", "self_s"),
    "interp.eval_term": ("calls", "self_s"),
    "interp.rule_detail": ("calls", "self_s"),
    "interp.check": ("calls", "self_s"),
    "interp.mono": ("calls", "self_s"),
    "prover.candidates": ("self_s",),
    "prover.plan": ("self_s",),
    "prover.compat": ("calls", "self_s"),
    "prover.level_candidates": ("calls",),
    "prover.init": ("self_s",),
    "prover.dfs": ("self_s",),
    "corpus.load": ("self_s",),
    "cli.run_cli": ("self_s",),
}


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics as {name: {"value", "unit"}}; missing ones are absent.

    A ratio whose base count is 0 (no prover calls on ``check``) reads 0; the
    base is always reported next to it.
    """
    have = tracer.metric_names()
    calls, self_s = tracer.calls, tracer.self_s
    out = {}
    for metric, fields in REPORTED.items():
        if metric not in have:
            continue
        for field in fields:
            if field == "calls":
                out[f"{metric}.calls"] = {"value": calls[metric], "unit": "count"}
            else:
                out[f"{metric}.self_s"] = {"value": self_s[metric], "unit": "s"}
    if "positivity.nonneg_on" in have:
        for rung in RUNGS:
            name = f"positivity.rung.{rung}"
            out[name + ".calls"] = {"value": calls[name], "unit": "count"}
            out[name + ".self_s"] = {"value": self_s[name], "unit": "s"}
    def ratio(name, part, whole, *needs):
        if all(n in have for n in needs):
            out[name] = {"value": part / whole if whole else 0.0, "unit": "ratio"}

    mono, compat, level = (calls["interp.mono"], calls["prover.compat"],
                           calls["prover.level_candidates"])
    nonneg = "positivity.nonneg_on"
    # share of _mono_argument calls that fall back to nonneg_on
    ratio("interp.mono.fallback_ratio", tracer.marked("interp.mono", nonneg), mono,
          "interp.mono", nonneg)
    # share of _compat calls answered without nonneg_on
    ratio("prover.compat.hit_ratio", compat - tracer.marked("prover.compat", nonneg),
          compat, "prover.compat", nonneg)
    # share of _level_candidates calls at levels with driver rules that were
    # answered from the memo, i.e. made no _compat call
    driven = level - calls["prover.level_candidates.no_driver"]
    ratio("prover.level_candidates.memo_hit_ratio",
          driven - tracer.marked("prover.level_candidates", "prover.compat"), driven,
          "prover.level_candidates", "prover.compat")
    # kept templates over templates tried
    ratio("prover.candidates.kept_ratio", calls["prover.candidates.kept"],
          calls["prover.candidates.tried"], "prover.candidates", "prover.candidates.tried")
    if "prover.candidates" in have:
        out["prover.candidates.kept"] = {"value": calls["prover.candidates.kept"],
                                         "unit": "count"}
    out["trace.missing"] = {"value": len(tracer.missing), "unit": "count"}
    return out


def write_spans(tracer: Tracer, path) -> None:
    """Write the in-memory spans as JSON: one [id, name, start, end, parent] each."""
    path.parent.mkdir(parents=True, exist_ok=True)
    s = tracer.spans
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({
            "names": tracer.span_names,
            "columns": ["id", "name", "start_s", "end_s", "parent_id"],
            "spans": [[int(s[i]), int(s[i + 1]), round(s[i + 2], 7), round(s[i + 3], 7),
                       int(s[i + 4])] for i in range(0, len(s), 5)],
            "dropped": tracer.dropped_spans,
            "missing": tracer.missing,
        }, fh, separators=(",", ":"))
