"""Golden reports: each manifest's report, run in-process through
``cli.main`` at ``--seed 1``, equals its checked-in file byte for byte.

The reports go to stdout, so every ``outputPath`` reads ``-``.  A change
that alters a report on purpose regenerates the files with

    PYTHONPATH=src python tests/test_golden.py

and names each changed manifest, and why it changed, in ``CHANGES.md``.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from acgraphs import cli, graphs

GOLDEN = Path(__file__).resolve().parent / "golden"

SL2_7 = ("--group", "sl2:7", "--k", "2")
SYM6_ACR = ("walk", "--group", "sym:6", "--normal", "derived", "--k", "2",
            "--init", "(0 1)(2 3)")

# name -> CLI arguments, without --seed; a name ending in .csv is a CSV report
MANIFESTS: dict[str, tuple[str, ...]] = {
    # the benchmark's graph-large jobs
    "analyze-sl2-7-full-ac": ("analyze", *SL2_7, "--mode", "full-ac"),
    "analyze-sl2-7-restricted-ac-estimate": (
        "analyze", *SL2_7, "--mode", "restricted-ac", "--diameter", "estimate"),
    "analyze-sl2-7-nielsen": ("analyze", *SL2_7, "--mode", "nielsen"),
    "scan-sl2-7-ak": ("scan", "--group", "sl2:7", "--pair", "ak", "--mode", "full-ac"),
    "verify-small": ("verify", "--corpus", "small"),
    "verify-full": ("verify", "--corpus", "full"),
    # exact diameters
    "analyze-alt-5-full-ac-exact": (
        "analyze", "--group", "alt:5", "--k", "2", "--mode", "full-ac", "--diameter", "exact"),
    "analyze-alt-5-restricted-ac-exact": (
        "analyze", "--group", "alt:5", "--k", "2", "--mode", "restricted-ac",
        "--diameter", "exact"),
    "analyze-sym-4-derived-exact": (
        "analyze", "--group", "sym:4", "--k", "2", "--normal", "derived",
        "--diameter", "exact"),
    "analyze-sl2-5-nielsen-exact": (
        "analyze", "--group", "sl2:5", "--k", "2", "--mode", "nielsen", "--diameter", "exact"),
    # one estimate per component: five Nielsen components
    "analyze-sl2-7-nielsen-estimate": (
        "analyze", *SL2_7, "--mode", "nielsen", "--diameter", "estimate"),
    # walks
    "walk-sym-6-acr": SYM6_ACR,
    "walk-sym-6-acr-threads-2": (*SYM6_ACR, "--threads", "2"),
    "walk-sym-6-acr-no-cumulative": (*SYM6_ACR, "--no-cumulative"),
    "walk-sym-8-acr": ("walk", "--group", "sym:8", "--normal", "derived", "--k", "2",
                       "--init", "(0 1)(2 3)"),
    "walk-sl2-5-pra": ("walk", "--group", "sl2:5", "--algorithm", "pra", "--normal", "whole",
                       "--k", "2", "--init", "[[1,2],[0,1]];[[1,0],[2,1]]"),
    "walk-alt-5-cayley": ("walk", "--group", "alt:5", "--algorithm", "cayley",
                          "--normal", "whole", "--k", "2", "--init", "(0 1 2)"),
    # N = C3 in dihedral:6: its cycle and point-0 laws, not Sym_6's
    "walk-dihedral-6-c3-acr": ("walk", "--group", "dihedral:6", "--normal", "derived",
                               "--k", "2", "--init", "(0 2 4)(1 3 5)", "--samples", "2000"),
    # other formats
    "analyze-abelian-3-3-nielsen.csv": (
        "analyze", "--group", "abelian:3,3", "--k", "2", "--mode", "nielsen", "--format", "csv"),
    "stats-cycle-distribution-8-even": ("stats", "--cycle-distribution", "8", "--parity", "even"),
}


def _path(name: str) -> Path:
    return GOLDEN / (name if name.endswith(".csv") else f"{name}.json")


def report(name: str) -> str:
    """The report of manifest ``name`` at ``--seed 1``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([*MANIFESTS[name], "--seed", "1"])
    assert code == cli.EXIT_OK, (name, code)
    return out.getvalue()


def first_difference(want, got, path: str = "") -> str | None:
    """The first JSON path, in key order, at which two documents differ."""
    if isinstance(want, dict) and isinstance(got, dict):
        for key in sorted(want.keys() | got.keys()):
            if key not in want or key not in got:
                return f"{path}.{key}".lstrip(".")
            found = first_difference(want[key], got[key], f"{path}.{key}")
            if found is not None:
                return found
        return None
    if isinstance(want, list) and isinstance(got, list):
        for n, (a, b) in enumerate(zip(want, got)):
            found = first_difference(a, b, f"{path}[{n}]")
            if found is not None:
                return found
        return None if len(want) == len(got) else f"{path}[{min(len(want), len(got))}]"
    return None if want == got and type(want) is type(got) else path.lstrip(".") or "$"


def mismatch(name: str) -> str | None:
    """None when manifest ``name`` reproduces its golden file, else what
    differs: the first JSON path, or the first line of a CSV report."""
    want, got = _path(name).read_bytes().decode(), report(name)
    if want == got:
        return None
    if name.endswith(".csv"):
        lines = zip(want.splitlines(), got.splitlines())
        line = next((n for n, (a, b) in enumerate(lines, 1) if a != b), None)
        return f"{name}: first difference at line {line or 'end'}"
    where = first_difference(json.loads(want), json.loads(got))
    return f"{name}: first difference at {where or 'formatting'}"


@pytest.mark.parametrize("name", sorted(MANIFESTS))
def test_report_matches_its_golden_file(name):
    assert mismatch(name) is None


def test_a_one_field_change_names_its_manifest_and_path(monkeypatch):
    to_json = graphs.ComponentPartition.to_json

    def shifted(self):
        doc = to_json(self)
        doc["components"][0]["size"] += 1
        return doc

    monkeypatch.setattr(graphs.ComponentPartition, "to_json", shifted)
    name = "analyze-alt-5-full-ac-exact"
    assert mismatch(name) == f"{name}: first difference at report.components[0].size"
    monkeypatch.setattr(cli, "__version__", "0.0.0+changed")
    assert mismatch("stats-cycle-distribution-8-even") == (
        "stats-cycle-distribution-8-even: first difference at version"
    )


def regenerate() -> None:
    """Rewrite every golden file from the current code."""
    GOLDEN.mkdir(exist_ok=True)
    for name in MANIFESTS:
        _path(name).write_bytes(report(name).encode())  # CSV rows end in \r\n
        print(_path(name).relative_to(GOLDEN.parent.parent), file=sys.stderr)


if __name__ == "__main__":
    regenerate()
