"""Outside-in tracing: wrap the library's layer boundaries from here.

The library has no spans of its own, so the traced run replaces module
attributes (the names each caller looks up at call time) with wrappers
that record a span per call.  Spans live in flat arrays while the run
goes and are written once at the end.  A boundary that a refactor has
removed is recorded as absent; its metrics then read 0.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

import numpy as np

# (span name, module, attribute path, layer).  Names say where the wrapper
# sits: ``cut.restrict`` is the restrict that the cut module calls.
BOUNDARIES = (
    ("cnf.parse_dimacs", "indepcount.cnf", "parse_dimacs", "cnf"),
    ("ras.approx_count", "indepcount.ras", "approx_count", "ras"),
    ("ras.cut", "indepcount.ras", "cut", "cut"),
    ("ras.mc_estimate", "indepcount.ras", "mc_estimate", "mc"),
    ("ras.red_structs", "indepcount.ras", "red_structs", "structs"),
    ("ras.red_clauses", "indepcount.ras", "red_clauses", "structs"),
    ("ras.brute_force_count", "indepcount.ras", "brute_force_count", "exact.brute"),
    ("ras.count_2sat_exact", "indepcount.ras", "count_2sat_exact", "exact.twosat"),
    ("cut.decide", "indepcount.cut", "decide", "decide"),
    ("cut.restrict", "indepcount.cut", "restrict", "cnf.restrict"),
    ("structs.restrict", "indepcount.structs", "restrict", "cnf.restrict"),
    ("mc.satisfied_rows", "indepcount.mc", "satisfied_rows", "mc"),
    ("mc.sample_words", "indepcount.mc", "Universe.sample_words", "mc"),
)
ROOT = "count"
LAYERS = ("bench", "cnf", "cnf.restrict", "ras", "cut", "decide", "mc",
          "structs", "exact.brute", "exact.twosat")


def _resolve(module: str, path: str):
    """(owner object, attribute) for a dotted path, or None if missing."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


FIELDS = ("start", "end", "parent", "name", "count_id")


class Tracer:
    """Span recorder; ``install`` patches the boundaries, ``remove`` undoes it.

    The deadline can interrupt a wrapper between any two bytecodes, so a
    span is appended as one record in a single call and the call stack is
    reset at the start of every count.
    """

    def __init__(self):
        self.names = [ROOT] + [b[0] for b in BOUNDARIES]
        self.spans = array("d")          # FIELDS per span, flat
        self.current_count = -1
        self.counters: dict[str, float] = {}
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _bump(self, key: str, by: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + by

    def span(self, name_idx: int, fn, note=None):
        """Wrap ``fn`` so each call records a span and, via ``note``, counts."""
        stack, spans, width = self._stack, self.spans, len(FIELDS)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans) // width
            spans.extend((time.perf_counter(), 0.0, stack[-1] if stack else -1,
                          name_idx, self.current_count))
            try:
                stack.append(idx)
                out = fn(*args, **kwargs)
            finally:
                spans[idx * width + 1] = time.perf_counter()
                if stack and stack[-1] == idx:
                    stack.pop()
            if note is not None:
                note(out)
            return out
        return wrapper

    def root(self, count):
        """Wrap the benchmark's parse + count as the root span of a count."""
        traced = self.span(0, count)

        def begin(*args, **kwargs):
            self._stack.clear()
            self.current_count += 1
            return traced(*args, **kwargs)
        return begin

    def install(self) -> None:
        notes = {
            "ras.mc_estimate": self._note_mc,
            "ras.cut": self._note_cut,
            "ras.red_structs": self._note_red,
            "ras.red_clauses": self._note_red,
            "ras.brute_force_count": lambda r: self._bump("brute.assignments", r.nodes_visited),
            "ras.count_2sat_exact": lambda r: self._bump("twosat.nodes", r.nodes_visited),
            "cut.decide": lambda r: self._bump("decide.unsat", not r.satisfiable),
        }
        for idx, (name, module, path, _layer) in enumerate(BOUNDARIES, start=1):
            found = _resolve(module, path)
            if found is None:
                self.absent.append(name)
                continue
            owner, attr = found
            original = getattr(owner, attr)
            setattr(owner, attr, self.span(idx, original, notes.get(name)))
            self._undo.append((owner, attr, original))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _note_mc(self, est) -> None:
        self._bump("mc.samples", est.samples)
        self._bump("mc.hits", est.hits)
        self._bump("mc.truncated", est.under_sampled)

    def _note_cut(self, result) -> None:
        self._bump("cut.nodes", result.decider_calls)
        self._bump("cut.exact", result.completed)

    def _note_red(self, outcome) -> None:
        self._bump("red.group_set", outcome.struct_set is not None)

    # -- analysis --------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        table = np.frombuffer(self.spans, dtype=np.float64).reshape(-1, len(FIELDS))
        out = {f: table[:, i] for i, f in enumerate(FIELDS)}
        # a span cut off before its end was stamped counts as empty
        out["end"] = np.where(out["end"] > 0, out["end"], out["start"])
        for f in ("parent", "name", "count_id"):
            out[f] = out[f].astype(np.int64)
        return out

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def summary(self) -> dict:
        """Per span name: calls, total time and self time (span minus children)."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        own = dur - child
        out = {}
        for idx, name in enumerate(self.names):
            sel = a["name"] == idx
            out[name] = {"calls": int(sel.sum()), "s": float(dur[sel].sum()),
                         "self_s": float(own[sel].sum())}
        parents = a["name"][a["parent"][has_parent]]
        nested = a["name"][has_parent]
        approx = self.names.index("ras.approx_count")
        reds = [self.names.index("ras.red_structs"), self.names.index("ras.red_clauses")]
        out["ras.approx_count"]["branches"] = int(
            ((nested == approx) & np.isin(parents, reds)).sum())
        return out

    def layer_self_s(self, summary: dict) -> dict[str, float]:
        layer_of = {b[0]: b[3] for b in BOUNDARIES}
        layer_of[ROOT] = "bench"
        out = {layer: 0.0 for layer in LAYERS}
        for name, row in summary.items():
            out[layer_of[name]] += row["self_s"]
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics named in BENCHMARK.json, from one traced run."""
    s = tracer.summary()
    c = tracer.counters
    mc, draw, check = s["ras.mc_estimate"], s["mc.sample_words"], s["mc.satisfied_rows"]
    restrict_calls = s["cut.restrict"]["calls"] + s["structs.restrict"]["calls"]
    restrict_s = s["cut.restrict"]["s"] + s["structs.restrict"]["s"]
    cut, decide = s["ras.cut"], s["cut.decide"]
    red_calls = s["ras.red_structs"]["calls"] + s["ras.red_clauses"]["calls"]
    brute, twosat = s["ras.brute_force_count"], s["ras.count_2sat_exact"]
    return {
        "mc.calls": mc["calls"],
        "mc.s": mc["s"],
        "mc.samples": c.get("mc.samples", 0),
        "mc.samples_per_s": _ratio(c.get("mc.samples", 0), mc["s"]),
        "mc.hit_rate": _ratio(c.get("mc.hits", 0), c.get("mc.samples", 0)),
        "mc.draw_s": draw["s"],
        "mc.check_s": check["s"],
        "mc.truncated": c.get("mc.truncated", 0),
        "cnf.parse_s": s["cnf.parse_dimacs"]["s"],
        "cnf.restrict_calls": restrict_calls,
        "cnf.restrict_s": restrict_s,
        "cnf.restrict_us": 1e6 * _ratio(restrict_s, restrict_calls),
        "decide.calls": decide["calls"],
        "decide.s": decide["s"],
        "decide.unsat_frac": _ratio(c.get("decide.unsat", 0), decide["calls"]),
        "cut.calls": cut["calls"],
        "cut.self_s": cut["self_s"],
        "cut.nodes": c.get("cut.nodes", 0),
        "cut.us_per_node": 1e6 * _ratio(cut["s"], c.get("cut.nodes", 0)),
        "cut.exact_frac": _ratio(c.get("cut.exact", 0), cut["calls"]),
        "structs.red_calls": red_calls,
        "structs.red_self_s": s["ras.red_structs"]["self_s"] + s["ras.red_clauses"]["self_s"],
        "structs.branches": s["ras.approx_count"]["branches"],
        "structs.group_set_frac": _ratio(c.get("red.group_set", 0), red_calls),
        "exact.brute_calls": brute["calls"],
        "exact.brute_s": brute["s"],
        "exact.brute_assign_per_s": _ratio(c.get("brute.assignments", 0), brute["s"]),
        "exact.twosat_calls": twosat["calls"],
        "exact.twosat_s": twosat["s"],
        "exact.twosat_nodes": c.get("twosat.nodes", 0),
        "ras.calls": s["ras.approx_count"]["calls"],
        "ras.self_s": s["ras.approx_count"]["self_s"],
    }
