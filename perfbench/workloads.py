"""The benchmark's workloads: the CLI jobs each one runs, the set-up a
fresh process repeats before those jobs compute, and the check that
decides whether a job's report is correct.

Checks compare report fields with reference values, never bytes, so a
change that picks another (equally short) geodesic still passes.

Run as a script, this module is the set-up child:
``python perfbench/workloads.py <workload> <seed>`` imports ``acgraphs``
and builds what the workload's jobs build before they compute.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from dataclasses import dataclass
from typing import Callable

WALK_SAMPLES = 20_000


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple[str, ...]  # acgraphs CLI arguments, without --seed
    # report document -> (ok, detail); detail says what was wrong, or
    # carries information that is not a failure (chi-squared outcomes)
    check: Callable[[dict], tuple[bool, str]]


# -- graph-large ------------------------------------------------------------------

SL2_7_VERTICES = 112_892
NIELSEN_SIZES = Counter({21504: 2, 24192: 1, 4704: 2})


def _check_ac_connected(doc: dict) -> tuple[bool, str]:
    r = doc["report"]
    ok = r["vertexCount"] == SL2_7_VERTICES and r["componentCount"] == 1
    return ok, f"vertexCount={r['vertexCount']} componentCount={r['componentCount']}"


def _check_restricted_estimate(doc: dict) -> tuple[bool, str]:
    ok, detail = _check_ac_connected(doc)
    estimate = doc["report"]["diameter"][0]["value"]
    return ok and estimate >= 10, f"{detail} diameterEstimate={estimate}"


def _check_nielsen(doc: dict) -> tuple[bool, str]:
    r = doc["report"]
    sizes = Counter(c["size"] for c in r["components"])
    ok = (
        r["vertexCount"] == sum(NIELSEN_SIZES.elements())
        and r["componentCount"] == 5
        and sizes == NIELSEN_SIZES
    )
    return ok, f"vertexCount={r['vertexCount']} sizes={sorted(sizes.elements())}"


@functools.lru_cache(maxsize=1)
def _sl2_7_full_ac():
    """The sl2:7 full-AC graph, built in this process to check geodesics."""
    from acgraphs.graphs import GraphHandle, GraphMode
    from acgraphs.groups import parse_group

    return GraphHandle(parse_group("sl2:7"), 2, GraphMode.full_ac())


def _check_scan(doc: dict) -> tuple[bool, str]:
    from acgraphs.cli import parse_tuple

    r = doc["report"]
    if not (r["sameComponent"] is True and r["distance"] == 5):
        return False, f"sameComponent={r['sameComponent']} distance={r['distance']}"
    path = r.get("geodesic") or []
    if len(path) != r["distance"]:
        return False, f"geodesic has {len(path)} steps, distance {r['distance']}"
    handle = _sl2_7_full_ac()

    def indices(text: str) -> tuple[int, ...]:
        return tuple(handle.group.index_of(e) for e in parse_tuple(handle.group, text, 2))

    if indices(path[0]["from"]) != tuple(r["baseTuple"]):
        return False, "geodesic does not start at the base tuple"
    if indices(path[-1]["to"]) != tuple(r["imageTuple"]):
        return False, "geodesic does not end at the image tuple"
    for n, step in enumerate(path):
        if n and step["from"] != path[n - 1]["to"]:
            return False, f"step {n} does not continue step {n - 1}"
        if indices(step["to"]) not in handle.neighbors(indices(step["from"])):
            return False, f"step {n} is not a move of the graph"
    return True, "distance=5, every geodesic step is a move"


GRAPH_LARGE = (
    Job("analyze-full-ac", ("analyze", "--group", "sl2:7", "--k", "2", "--mode", "full-ac"),
        _check_ac_connected),
    Job("analyze-restricted-ac",
        ("analyze", "--group", "sl2:7", "--k", "2", "--mode", "restricted-ac",
         "--diameter", "estimate"),
        _check_restricted_estimate),
    Job("analyze-nielsen", ("analyze", "--group", "sl2:7", "--k", "2", "--mode", "nielsen"),
        _check_nielsen),
    Job("scan-ak", ("scan", "--group", "sl2:7", "--pair", "ak", "--mode", "full-ac"),
        _check_scan),
)


# -- verify-small -------------------------------------------------------------------


def _check_verify(doc: dict) -> tuple[bool, str]:
    checks = doc["report"]["checks"]
    failed = [c["name"] for c in checks if c["status"] == "FAIL"]
    ok = not failed and doc["report"]["failed"] == 0 and len(checks) > 0
    return ok, f"{len(checks)} checks, FAIL: {failed or 'none'}"


VERIFY_SMALL = (Job("verify-small", ("verify", "--corpus", "small"), _check_verify),)


# -- walk-sampling ------------------------------------------------------------------


def _walk_check(samples: int, normal_order: int | None) -> Callable[[dict], tuple[bool, str]]:
    """Sample count, histogram totals and mixing support; chi-squared
    outcomes are information only, since a fixed seed fails 5% of tests."""

    def check(doc: dict) -> tuple[bool, str]:
        r = doc["report"]
        problems = []
        if r["samples"] != samples:
            problems.append(f"samples={r['samples']}")
        if "cycleHistogram" in r and sum(r["cycleHistogram"].values()) != samples:
            problems.append("cycle histogram total differs from samples")
        mixing = r.get("mixing")
        if normal_order is None:
            if mixing is not None:
                problems.append("unexpected mixing diagnostic")
        elif mixing is None:
            problems.append("mixing diagnostic missing")
        elif mixing["support"] != normal_order or mixing["samples"] != samples:
            problems.append(f"mixing support={mixing['support']} samples={mixing['samples']}")
        chi = {
            key: r[key]["pass"] if key != "mixing" else r[key]["chiSquared"]["pass"]
            for key in ("cycleChiSquared", "pointActionChiSquared", "mixing")
            if key in r
        }
        return not problems, "; ".join(problems) or f"chi-squared pass: {chi}"

    return check


def _walk(name: str, spec: str, normal: str, k: int, init: str, normal_order: int | None,
          *, algorithm: str = "acr", samples: int = WALK_SAMPLES) -> Job:
    argv = ("walk", "--group", spec, "--algorithm", algorithm, "--normal", normal,
            "--k", str(k), "--init", init, "--samples", str(samples))
    return Job(name, argv, _walk_check(samples, normal_order))


# normal_order is |N|: alt:6 = 360 for derived(sym:6), |alt:5| = 60,
# |sl2:5| = 120; the ambient Sym_n walks report no mixing diagnostic
WALK_SAMPLING = (
    _walk("sym12-acr", "sym:12", "derived", 3,
          "(0 1 2);(0 1)(2 3);(3 4 5 6 7 8 9 10 11)", None),
    _walk("sym8-acr", "sym:8", "derived", 2, "(0 1)(2 3)", None),
    _walk("sym6-acr", "sym:6", "derived", 2, "(0 1)(2 3)", 360),
    _walk("alt5-acr", "alt:5", "whole", 2, "(0 1 2)", 60),
    _walk("sl2-5-pra", "sl2:5", "whole", 2, "[[1,2],[0,1]];[[1,0],[2,1]]", 120,
          algorithm="pra"),
    _walk("alt5-cayley", "alt:5", "whole", 2, "(0 1 2)", 60, algorithm="cayley",
          samples=2000),
)

WORKLOADS: dict[str, tuple[Job, ...]] = {
    "graph-large": GRAPH_LARGE,
    "verify-small": VERIFY_SMALL,
    "walk-sampling": WALK_SAMPLING,
}


# -- set-up ---------------------------------------------------------------------------


def setup(workload: str, seed: int) -> None:
    """Build what the workload's jobs build before they compute."""
    if workload == "graph-large":
        from acgraphs.graphs import GraphHandle, GraphMode
        from acgraphs.groups import parse_group

        group = parse_group("sl2:7")
        for mode in (GraphMode.full_ac(), GraphMode.restricted_ac(), GraphMode.nielsen()):
            GraphHandle(group, 2, mode)
    elif workload == "verify-small":
        from acgraphs.verify import VerifyContext

        VerifyContext("small", seed)
    elif workload == "walk-sampling":
        from acgraphs.groups import SymmetricAmbient, parse_group

        for job in WALK_SAMPLING:
            spec = job.argv[job.argv.index("--group") + 1]
            kind, _, degree = spec.partition(":")
            # the CLI walks Sym_n for n >= 7 without enumerating it
            if kind == "sym" and int(degree) >= 7:
                SymmetricAmbient(int(degree))
            else:
                parse_group(spec)
    else:
        raise ValueError(f"unknown workload {workload!r}")


if __name__ == "__main__":
    setup(sys.argv[1], int(sys.argv[2]))
