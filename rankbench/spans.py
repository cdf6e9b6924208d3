"""Span tracing of the program's layers, installed from outside.

The tracer wraps every public function and public method defined in the
layer modules, and rebinds each name wherever a caller looks it up: the
defining module, any module that imported the name (``cli`` imports
``mahonian_distribution`` and ``posterior_predictor`` by name), and the
class for methods. Spans stay in memory as parallel arrays with a parent
id; self time is a span's duration minus the durations of its direct
children. A function that the tracer expects but the program no longer
defines is reported as absent, not as an error.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("cli", "ingest", "estimator", "recommend", "rules", "combinatorics", "censored")

# Functions the per-layer metrics name. After a refactor deletes one, its
# metrics read 0 and the function is listed as absent.
EXPECTED = (
    "ingest.load_ratings", "ingest.build_rankings", "estimator.fit",
    "estimator.event_prob", "estimator.subset_stats", "estimator.chain_prob",
    "recommend.level_posterior", "rules.mine_mi_rules", "rules.lift_score",
    "rules.affinity_graph", "combinatorics.mahonian_distribution",
    "combinatorics.triangular_normalization", "censored.expected_kendall",
    "cli.main",
)

MAHONIAN_SIZES = (250, 500)  # the closed-forms table sizes

# name -> unit, in report order; every name is reported on every workload
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "ingest.load_ratings.s": "s",
    "ingest.build_rankings.s": "s",
    "ingest.ratings_per_s": "1/s",
    "ingest.malformed": "count",
    "ingest.duplicates": "count",
    "estimator.fit.s": "s",
    "estimator.event_prob.calls": "count",
    "estimator.event_prob.s": "s",
    "estimator.event_prob.p50_us": "us",
    "estimator.event_prob.p99_us": "us",
    "estimator.event_prob.negative": "count",
    "estimator.event_prob.distinct_item_sets_frac": "ratio",
    "estimator.subset_stats.calls": "count",
    "estimator.subset_stats.s": "s",
    "estimator.chain_prob.calls": "count",
    "estimator.chain_prob.s": "s",
    "recommend.level_posterior.calls": "count",
    "recommend.level_posterior.self_s": "s",
    "recommend.uniform_posteriors": "count",
    "rules.mine_mi_rules.self_s": "s",
    "rules.lift_score.calls": "count",
    "rules.lift_score.self_s": "s",
    "rules.affinity_graph.s": "s",
    **{f"combinatorics.mahonian_distribution.n{n}.s": "s" for n in MAHONIAN_SIZES},
    "combinatorics.mahonian.coeff_updates": "count",
    "combinatorics.mahonian.bytes_computed": "bytes",
    "combinatorics.triangular_normalization.s": "s",
    "censored.expected_kendall.calls": "count",
    "censored.expected_kendall.p50_us": "us",
    "censored.expected_kendall.p99_us": "us",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.spans": "count",
    "trace.overhead_frac": "ratio",
}


class Tracer:
    """In-memory span recorder; one per traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.observed: dict[str, list] = defaultdict(list)

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, observe=None):
        name_id = self._name_id(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.start)
            self.name_of.append(name_id)
            self.parent.append(stack[-1])
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self.start[sid] = t0
                self.end[sid] = t1
            if observe is not None:
                self.observed[name].append(observe(sid, args, result))
            return result

        return traced


# What the metrics need beyond timing, taken from a call's arguments or
# result. Each returns a small record kept with the span id.
OBSERVE = {
    "ingest.load_ratings": lambda sid, args, t: (
        t.malformed, t.duplicates, len(t.ratings) + t.malformed + t.duplicates
    ),
    "estimator.event_prob": lambda sid, args, p: (args[1], p.negative),
    "recommend.level_posterior": lambda sid, args, post: post,
    "combinatorics.mahonian_distribution": lambda sid, args, table: (sid, table.n),
}


def _public_functions(module):
    """(name, owner, attribute, function) for the module's public
    functions and its classes' public methods."""
    layer = module.__name__.rsplit(".", 1)[-1]
    for attr, obj in list(vars(module).items()):
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{layer}.{attr}", module, attr, obj
        elif inspect.isclass(obj) and not issubclass(obj, BaseException):
            for mattr, mobj in list(vars(obj).items()):
                if not mattr.startswith("_") and inspect.isfunction(mobj):
                    yield f"{layer}.{mattr}", obj, mattr, mobj


class Installation:
    """Wrappers bound into the program's namespaces; ``remove`` restores
    every original binding."""

    def __init__(self, tracer: Tracer, package: str = "rankdens"):
        self._restore: list[tuple[object, str, object]] = []
        wrapped: dict[int, object] = {}
        installed: set[str] = set()
        for layer in LAYERS:
            module = sys.modules[f"{package}.{layer}"]
            for name, owner, attr, fn in _public_functions(module):
                if name in installed:
                    name = f"{layer}.{owner.__name__}.{attr}"
                installed.add(name)
                wrapper = tracer.wrap(name, fn, OBSERVE.get(name))
                wrapped[id(fn)] = wrapper
                if inspect.isclass(owner):
                    self._bind(owner, attr, wrapper)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != package and not mod_name.startswith(package + "."):
                continue
            for attr, obj in list(vars(module).items()):
                wrapper = wrapped.get(id(obj))
                if wrapper is not None:
                    self._bind(module, attr, wrapper)
        self.absent = sorted(set(EXPECTED) - installed)

    def _bind(self, owner, attr, wrapper) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


def _mahonian_work(n: int) -> tuple[int, int]:
    """Coefficient updates and bytes of the generating-function recursion
    for size n, computed from array sizes: step j writes a table of
    1 + j(j-1)/2 float64 coefficients after reading the previous one."""
    sizes = [1 + j * (j - 1) // 2 for j in range(1, n + 1)]
    updates = sum(sizes[1:])
    moved = 8 * sum(a + b for a, b in zip(sizes, sizes[1:]))
    return updates, moved


def layer_metrics(tracer: Tracer, wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass of ``wall`` seconds."""
    count = len(tracer.start)
    start = np.frombuffer(tracer.start, dtype=float, count=count)
    end = np.frombuffer(tracer.end, dtype=float, count=count)
    name_of = np.frombuffer(tracer.name_of, dtype=np.int32, count=count)
    parent = np.frombuffer(tracer.parent, dtype=np.int32, count=count)
    dur = end - start
    child = np.zeros(count)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    own = dur - child

    def spans(name):
        if name not in tracer.names:
            return np.zeros(0, dtype=int)
        return np.nonzero(name_of == tracer.names.index(name))[0]

    def total(name):
        return float(dur[spans(name)].sum())

    def self_time(name):
        return float(own[spans(name)].sum())

    def pct_us(name, q):
        d = dur[spans(name)]
        return float(np.percentile(d, q) * 1e6) if len(d) else 0.0

    out: dict[str, float] = {}
    for layer in LAYERS:
        ids = [i for i, n in enumerate(tracer.names) if n.split(".", 1)[0] == layer]
        out[f"{layer}.self_s"] = float(own[np.isin(name_of, ids)].sum())

    loads = tracer.observed.get("ingest.load_ratings", [])
    load_s = total("ingest.load_ratings")
    out["ingest.load_ratings.s"] = load_s
    out["ingest.build_rankings.s"] = total("ingest.build_rankings")
    out["ingest.ratings_per_s"] = sum(x[2] for x in loads) / load_s if load_s else 0.0
    out["ingest.malformed"] = max((x[0] for x in loads), default=0)
    out["ingest.duplicates"] = max((x[1] for x in loads), default=0)
    out["estimator.fit.s"] = total("estimator.fit")

    events = tracer.observed.get("estimator.event_prob", [])
    out["estimator.event_prob.calls"] = len(spans("estimator.event_prob"))
    out["estimator.event_prob.s"] = total("estimator.event_prob")
    out["estimator.event_prob.p50_us"] = pct_us("estimator.event_prob", 50)
    out["estimator.event_prob.p99_us"] = pct_us("estimator.event_prob", 99)
    out["estimator.event_prob.negative"] = sum(neg for _, neg in events)
    distinct = len({r.ranked_items() for r, _ in events})
    out["estimator.event_prob.distinct_item_sets_frac"] = distinct / len(events) if events else 0.0
    for name in ("estimator.subset_stats", "estimator.chain_prob"):
        out[f"{name}.calls"] = len(spans(name))
        out[f"{name}.s"] = total(name)

    posts = tracer.observed.get("recommend.level_posterior", [])
    out["recommend.level_posterior.calls"] = len(spans("recommend.level_posterior"))
    out["recommend.level_posterior.self_s"] = self_time("recommend.level_posterior")
    out["recommend.uniform_posteriors"] = sum(
        bool(np.all(p == 1.0 / len(p))) for p in posts
    )

    out["rules.mine_mi_rules.self_s"] = self_time("rules.mine_mi_rules")
    out["rules.lift_score.calls"] = len(spans("rules.lift_score"))
    out["rules.lift_score.self_s"] = self_time("rules.lift_score")
    out["rules.affinity_graph.s"] = total("rules.affinity_graph")

    tables = tracer.observed.get("combinatorics.mahonian_distribution", [])
    for n in MAHONIAN_SIZES:
        out[f"combinatorics.mahonian_distribution.n{n}.s"] = float(
            sum(dur[sid] for sid, size in tables if size == n)
        )
    work = [_mahonian_work(size) for _, size in tables]
    out["combinatorics.mahonian.coeff_updates"] = sum(u for u, _ in work)
    out["combinatorics.mahonian.bytes_computed"] = sum(b for _, b in work)
    out["combinatorics.triangular_normalization.s"] = total(
        "combinatorics.triangular_normalization"
    )

    out["censored.expected_kendall.calls"] = len(spans("censored.expected_kendall"))
    out["censored.expected_kendall.p50_us"] = pct_us("censored.expected_kendall", 50)
    out["censored.expected_kendall.p99_us"] = pct_us("censored.expected_kendall", 99)

    out["trace.wall_s"] = wall
    out["trace.unattributed_s"] = wall - sum(out[f"{layer}.self_s"] for layer in LAYERS)
    out["trace.spans"] = count
    return out
