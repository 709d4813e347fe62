"""Every name the benchmark's tracer wraps exists in the package, so a
refactor that drops one fails here rather than in a traced bench run;
and every name the package exports resolves."""

import importlib.util
from pathlib import Path

import acgraphs
import acgraphs.cli  # noqa: F401  (every layer but verify, loaded on first access)


def load_tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_exist():
    tracer = load_tracer()
    for mod, name, _ in tracer.FUNCTIONS:
        assert callable(getattr(getattr(acgraphs, mod), name)), f"{mod}.{name}"
    for mod, cls, meth, _ in tracer.METHODS:
        assert callable(getattr(getattr(getattr(acgraphs, mod), cls), meth)), (
            f"{mod}.{cls}.{meth}"
        )
    for cls in tracer.PRODUCT_CLASSES:
        assert callable(getattr(acgraphs.elements, cls).__mul__), cls
    assert callable(acgraphs.subgroups.JoinOracle.join)
    assert all(callable(check) for check in acgraphs.verify.CHECKS)


def test_exports_resolve():
    for name in acgraphs.__all__:
        assert hasattr(acgraphs, name), name
    # the scalar walker is a test oracle (tests/helpers.py), not an export
    for name in ("WalkState", "make_state", "acr_step", "acr_sample", "pra_step",
                 "pra_sample"):
        assert name not in acgraphs.__all__, name
        assert not hasattr(acgraphs.walkers, name), name
