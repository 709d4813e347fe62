"""Spans around the public functions of each acgraphs layer, installed
from outside the package, and the per-layer metrics computed from them.

Run as a script, this module is the traced child:
``python perfbench/tracer.py SPANS_PATH JOB_ID -- CLI_ARGS...`` imports
``acgraphs.cli``, installs the wrappers and calls ``acgraphs.cli.main``
with the CLI arguments.  Spans stay in memory and are written to
SPANS_PATH as JSON when the job ends.

The wrappers assume one thread, which the workloads guarantee by leaving
the walks at ``--threads 1``.
"""

from __future__ import annotations

import functools
import json
import resource
import sys
import time
from collections import defaultdict

# (module, function, metric of its self time).  A span's name is
# "<module>.<function>".  Names imported by value elsewhere are rebound
# in every acgraphs module that holds them.
FUNCTIONS = (
    ("groups", "parse_group", "groups.parse_group_s"),
    ("subgroups", "get_join_oracle", "subgroups.join_oracle_s"),
    *(
        ("subgroups", name, "subgroups.structure_s")
        for name in (
            "nd_pair", "psi_k", "covering_numbers", "normal_subgroups",
            "normal_closure", "derived_subgroup", "abelianization",
            "quotient_group", "mazurov_lift",
        )
    ),
    ("graphs", "components", "graphs.components_s"),
    ("graphs", "diameter", "graphs.diameter_s"),
    ("conjecture", "scan_quotient", "conjecture.scan_quotient_s"),
    ("walkers", "acr_sample_many", "walkers.sample_many_s"),
    ("walkers", "pra_sample_many", "walkers.sample_many_s"),
    ("walkers", "cayley_class_walk", "walkers.cayley_walk_s"),
    ("walkers", "mixing_diagnostic", "walkers.mixing_diagnostic_s"),
    ("stats", "chi_squared_test", "stats.chi_squared_s"),
    ("stats", "point_action_uniformity", "stats.point_action_s"),
    ("stats", "cycle_distribution", "stats.cycle_distribution_s"),
    ("cli", "emit_report", "cli.emit_report_s"),
)
# (module, class, method, metric of its self time); patched on the class
METHODS = (
    ("graphs", "GraphHandle", "__init__", "graphs.handle_build_s"),
    ("graphs", "GraphHandle", "bfs_distances", "graphs.bfs_s"),
    ("graphs", "GraphHandle", "geodesic", "graphs.geodesic_s"),
)
PRODUCT_CLASSES = ("Permutation", "MatrixGF", "AbelianTuple")

SELF_METRIC = {f"{m}.{f}": metric for m, f, metric in FUNCTIONS}
SELF_METRIC.update({f"{m}.{c}.{f}": metric for m, c, f, metric in METHODS})
BFS_SPAN = "graphs.GraphHandle.bfs_distances"
CHECK_SPAN = "verify.check"

# counts that repeat exactly for one seed
EXACT_COUNTS = (
    "graphs.bfs_calls",
    "graphs.diameter_bfs_calls",
    "walkers.walker_steps",
    "elements.object_products",
    "subgroups.join_calls",
)


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tracer:
    """Span recorder for one job.

    A span is ``[id, name, parent, start, end, self_s, data]``; ``parent``
    is -1 at the top.  Self time is the duration minus the time of child
    spans, of timed hot calls and of the tracer's own bookkeeping for them.
    """

    def __init__(self, job: int):
        self.job = job
        self.spans: list[list] = []
        # open frames: [span id, seconds covered by children]
        self.stack: list[list] = [[-1, 0.0]]
        self.object_products = 0
        self.join_calls = 0
        self.join_s = 0.0

    def span(self, name: str, fn, annotate=None):
        """Wrap ``fn`` in a span; after the timed call,
        ``annotate(args, kwargs, result, data, maxrss_mb_before)`` may add
        entries to the span's data."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entry = time.perf_counter()
            parent = tracer.stack[-1]
            sid = len(tracer.spans)
            record = [sid, name, parent[0], 0.0, 0.0, 0.0, {}]
            tracer.spans.append(record)
            frame = [sid, 0.0]
            tracer.stack.append(frame)
            before = _maxrss_mb()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                record[3], record[4], record[5] = start, end, end - start - frame[1]
            if annotate is not None:
                annotate(args, kwargs, result, record[6], before)
            parent[1] += time.perf_counter() - entry
            return result

        return wrapper

    def timed_join(self, fn):
        """Count and time ``JoinOracle.join``, which is called too often
        for a span record each."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args):
            start = time.perf_counter()
            result = fn(*args)
            dt = time.perf_counter() - start
            tracer.join_calls += 1
            tracer.join_s += dt
            tracer.stack[-1][1] += time.perf_counter() - start
            return result

        return wrapper

    def counted_product(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(a, b):
            tracer.object_products += 1
            return fn(a, b)

        return wrapper

    def install(self) -> None:
        """Wrap the layers of an imported ``acgraphs``."""
        import acgraphs.cli  # noqa: F401  (imports every layer)

        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "acgraphs"]
        pkg = sys.modules["acgraphs"]

        def rebind(orig, wrapper):
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is orig:
                        setattr(module, attr, wrapper)

        annotate = {
            "walkers.acr_sample_many": _walker_steps,
            "walkers.pra_sample_many": _walker_steps,
        }
        for mod, fname, _ in FUNCTIONS:
            name = f"{mod}.{fname}"
            orig = getattr(getattr(pkg, mod), fname)
            rebind(orig, self.span(name, orig, annotate.get(name)))

        method_annotate = {"bfs_distances": _bfs_reached, "geodesic": _rss_rise}
        for mod, cls_name, meth, _ in METHODS:
            cls = getattr(getattr(pkg, mod), cls_name)
            orig = getattr(cls, meth)
            setattr(cls, meth, self.span(f"{mod}.{cls_name}.{meth}", orig,
                                         method_annotate.get(meth)))

        oracle = pkg.subgroups.JoinOracle
        oracle.join = self.timed_join(oracle.join)
        for cls_name in PRODUCT_CLASSES:
            cls = getattr(pkg.elements, cls_name)
            cls.__mul__ = self.counted_product(cls.__mul__)

        verify = pkg.verify
        verify.CHECKS = tuple(
            self.span(CHECK_SPAN, check, _check_label) for check in verify.CHECKS
        )

    def dump(self, path: str, import_s: float) -> None:
        doc = {
            "job": self.job,
            "import_s": import_s,
            "object_products": self.object_products,
            "join_calls": self.join_calls,
            "join_s": self.join_s,
            "spans": self.spans,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _walker_steps(args, kwargs, result, data, _rss):
    cfg = kwargs.get("cfg") or next(a for a in args if hasattr(a, "step_budget"))
    data["walker_steps"] = len(result) * cfg.step_budget


def _bfs_reached(args, kwargs, result, data, _rss):
    data["codes_reached"] = int((result >= 0).sum())


def _rss_rise(args, kwargs, result, data, rss_before):
    data["rss_rise_mb"] = _maxrss_mb() - rss_before


def _check_label(args, kwargs, result, data, _rss):
    data["label"] = result.name


# -- metrics from spans ---------------------------------------------------------------


def well_formed(trace: dict) -> list[str]:
    """Problems with one job's spans: missing parents, children that
    stick out of their parent, negative self times."""
    spans = {s[0]: s for s in trace["spans"]}
    problems = []
    for sid, name, parent, start, end, self_s, _ in trace["spans"]:
        if end < start or self_s < -1e-6:
            problems.append(f"span {sid} {name}: bad times")
        if parent == -1:
            continue
        p = spans.get(parent)
        if p is None or parent >= sid:
            problems.append(f"span {sid} {name}: parent {parent} missing")
        elif not (p[3] <= start and end <= p[4]):
            problems.append(f"span {sid} {name}: outside parent {parent} {p[1]}")
    return problems


def layer_metrics(traces: list[dict]) -> dict[str, float]:
    """Per-layer metrics summed over the jobs of one traced pass.

    ``_s`` metrics are self seconds, except ``verify.check.<name>_s``:
    a check is the root of its work, so its metric is the check's whole
    duration, and ``verify.check.<name>.bfs_calls`` counts the BFS below it.
    """
    m: dict[str, float] = defaultdict(int)
    for metric in EXACT_COUNTS:
        m[metric] = 0
    for trace in traces:
        m["cli.import_s"] += trace["import_s"]
        m["elements.object_products"] += trace["object_products"]
        m["subgroups.join_calls"] += trace["join_calls"]
        m["subgroups.join_s"] += trace["join_s"]
        spans = {s[0]: s for s in trace["spans"]}

        def ancestor(span, name):
            while span[2] != -1:
                span = spans[span[2]]
                if span[1] == name:
                    return span
            return None

        for span in trace["spans"]:
            _, name, _, start, end, self_s, data = span
            if name in SELF_METRIC:
                m[SELF_METRIC[name]] += self_s
            if name == "groups.parse_group":
                m["groups.parse_group_calls"] += 1
            elif name == BFS_SPAN:
                m["graphs.bfs_calls"] += 1
                m["graphs.bfs_codes_reached"] += data["codes_reached"]
                if ancestor(span, "graphs.diameter"):
                    m["graphs.diameter_bfs_calls"] += 1
                check = ancestor(span, CHECK_SPAN)
                if check is not None and "label" in check[6]:
                    m[f"verify.check.{check[6]['label']}.bfs_calls"] += 1
            elif name == "graphs.GraphHandle.geodesic":
                m["graphs.geodesic_rss_rise_mb"] += data["rss_rise_mb"]
            elif name in ("walkers.acr_sample_many", "walkers.pra_sample_many"):
                m["walkers.walker_steps"] += data.get("walker_steps", 0)
            elif name == CHECK_SPAN and "label" in data:
                m[f"verify.check.{data['label']}_s"] += end - start
    m["graphs.bfs_codes_per_s"] = _ratio(m["graphs.bfs_codes_reached"], m["graphs.bfs_s"])
    m["walkers.steps_per_s"] = _ratio(m["walkers.walker_steps"], m["walkers.sample_many_s"])
    return dict(m)


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def main(argv: list[str]) -> int:
    path, job = argv[0], int(argv[1])
    if argv[2] != "--":
        raise SystemExit("usage: tracer.py SPANS_PATH JOB_ID -- CLI_ARGS...")
    start = time.perf_counter()
    import acgraphs.cli

    import_s = time.perf_counter() - start
    tracer = Tracer(job)
    tracer.install()
    try:
        return acgraphs.cli.main(argv[3:])
    finally:
        sys.stdout.flush()
        tracer.dump(path, import_s)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
