import json

import numpy as np
import pytest

import acgraphs.verify as verify_mod
from acgraphs.cli import main
from acgraphs.errors import VerificationError
from acgraphs.graphs import GraphHandle, GraphMode
from acgraphs.groups import parse_group
from acgraphs.verify import (
    VerifyContext,
    check_move_closure,
    check_undirected,
    check_walk_vertex_preservation,
)


def _per_edge_details(handles):
    """Details of the neighbour checks as per-edge loops over ``neighbors``,
    the reference for the array checks.  A neighbour that is no vertex has
    no neighbours of its own here."""
    closure = undirected = None
    edges = 0
    for handle in handles:
        oracle = handle.oracle
        for code in np.flatnonzero(handle.vertex_mask):
            v = handle.decode(int(code))
            for u in handle.neighbors(v):
                edges += 1
                where = f"{handle.group.name} {handle.mode.kind}"
                if closure is None and oracle.join_of_indices(u) != oracle.join_of_indices(v):
                    closure = f"{where}: {v} -> {u}"
                if undirected is None and (not handle.is_vertex(u) or v not in handle.neighbors(u)):
                    undirected = f"{where}: {v} / {u}"
    return closure or f"{edges} edges", undirected or f"{edges} directed edges"


def _broken(handle, row, image):
    """``handle`` with row ``row`` of its first move block (the products of
    component 0 with component 1) replaced by ``image(block, base)``."""
    move_images = handle._move_images

    def images(frontier, *, backward=False):
        for n, codes in enumerate(move_images(frontier, backward=backward)):
            if n == 0:
                base = frontier % handle.radix[0]
                codes[row] = image(codes, base)
            yield codes

    handle._move_images = images
    return handle


@pytest.fixture(scope="module")
def ctx():
    return VerifyContext("small")


def test_neighbor_checks_match_per_edge_loops(ctx, monkeypatch):
    handles = verify_mod._small_handles(ctx)
    assert (check_move_closure(ctx).detail, check_undirected(ctx).detail) == (
        _per_edge_details(handles)
    )
    assert check_undirected(ctx).detail == "3436 directed edges"

    g = parse_group("alt:4")
    cases = [
        # a*b^-1 dropped for a duplicate a*b: every image is still a vertex,
        # but no move leads from (ab, b) back to (a, b)
        (1, lambda codes, _: codes[0], (True, False)),
        # component 0 set to the identity: the closure shrinks
        (0, lambda _, base: base, (False, False)),
    ]
    for row, image, passed in cases:
        def make():
            return _broken(GraphHandle(g, 2, GraphMode.nielsen()), row, image)

        monkeypatch.setattr(verify_mod, "_small_handles", lambda _: [make()])
        closure, undirected = check_move_closure(ctx), check_undirected(ctx)
        assert (closure.passed, undirected.passed) == passed
        assert (closure.detail, undirected.detail) == _per_edge_details([make()])


def test_walk_check_fails_when_a_step_leaves_the_vertex_set(ctx, monkeypatch):
    assert check_walk_vertex_preservation(ctx).detail == "1820400 step images"
    vertex_mask = GraphHandle._vertex_mask

    def holed(handle):
        # drop sym:4's last vertex: ACR steps from its neighbours lead to it
        mask = vertex_mask(handle)
        if handle.group.name == "sym:4":
            mask[np.flatnonzero(mask)[-1]] = False
        return mask

    monkeypatch.setattr(GraphHandle, "_vertex_mask", holed)
    result = check_walk_vertex_preservation(ctx)
    assert not result.passed
    assert result.detail.startswith("sym:4: ")


@pytest.mark.parametrize(
    "check, structure_check",
    [
        (verify_mod.check_quotient_cover, "cover_check"),
        (verify_mod.check_soluble_components, "soluble_component_check"),
    ],
)
def test_failed_structure_check_is_a_fail_row(
    ctx, monkeypatch, tmp_path, check, structure_check
):
    def broken(*args):
        raise VerificationError("a component maps into several components")

    monkeypatch.setattr(verify_mod, structure_check, broken)
    result = check(ctx)
    assert result.status == "FAIL"
    assert result.detail.startswith("sym:3")
    assert result.detail.endswith(": a component maps into several components")

    monkeypatch.setattr(verify_mod, "CHECKS", (verify_mod.check_parse_orders, check))
    path = tmp_path / "verify.json"
    assert main(["verify", "--corpus", "small", "--output", str(path)]) == 2
    report = json.loads(path.read_text())["report"]
    assert report["failed"] == 1
    assert [c["status"] for c in report["checks"]] == ["PASS", "FAIL"]
