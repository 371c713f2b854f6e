"""Degree-constrained orientation: instance building, solving, certificates."""

from __future__ import annotations

import pytest

from matroidkit import core as C
from matroidkit.oracle import brute_orientations
from matroidkit.orient import (
    DemandGraph,
    OrientationOutcome,
    build_instance,
    deficiency_counting_check,
    effective_lower_bound,
    indegrees,
    orient_solve,
    verify_outcome,
)


def path3(o=(1, 1, 1)):
    return DemandGraph.build(
        ["v0", "v1", "v2"],
        [("v0", "v1", "e0"), ("v1", "v2", "e1")],
        {"v0": o[0], "v1": o[1], "v2": o[2]},
    )


def cycle3(o=(1, 1, 1)):
    return DemandGraph.build(
        ["a", "b", "c"],
        [("a", "b", "e0"), ("b", "c", "e1"), ("c", "a", "e2")],
        {"a": o[0], "b": o[1], "c": o[2]},
    )


# ---------------------------------------------------------------------------
# graphs and demands


def test_self_loops_dropped_with_warning():
    with pytest.warns(UserWarning):
        g = DemandGraph.build(["u"], [("u", "u", "loop")], {"u": 0})
    assert g.edges == ()


def test_demand_out_of_range():
    with pytest.raises(C.DemandOutOfRange):
        DemandGraph.build(["u", "v"], [("u", "v", "e")], {"u": 2, "v": 0})


def test_duplicate_edge_labels_rejected():
    with pytest.raises(C.MatroidKitError):
        DemandGraph.build(["u", "v"], [("u", "v", "e"), ("v", "u", "e")], {})


def test_effective_lower_bound():
    g = path3((1, -1, 0))
    assert effective_lower_bound(g, "v0") == 1
    assert effective_lower_bound(g, "v1") == 1  # degree 2, demand -1
    assert effective_lower_bound(g, "v2") == 0
    assert [g.degree(v) for v in g.vertices] == [1, 2, 1]
    with pytest.raises(C.MatroidKitError):
        g.o("x")


# ---------------------------------------------------------------------------
# instance construction


def test_single_edge_instance_shape():
    g = DemandGraph.build(["u", "v"], [("u", "v", "e")], {"u": 0, "v": 1})
    inst = build_instance(g)
    assert inst.ground.labels == ("e>", "e<")
    assert len(inst.N.blocks) == 1 and inst.N.blocks[0][1] == 1


def test_negative_full_demand_gives_rank_zero_block():
    g = DemandGraph.build(["u", "v"], [("u", "v", "e")], {"u": -1, "v": 0})
    inst = build_instance(g)
    mv = dict((v, m) for v, m, _ in inst.vertex_blocks)["u"]
    # demand -degree leaves a lower bound of 0 on the in-arcs: rank zero
    assert mv.rank() == 0


def test_triangle_blocks_have_rank_one():
    inst = build_instance(cycle3())
    for v, mv, _mask in inst.vertex_blocks:
        assert mv.rank() == 1


def test_block_rank_equals_effective_lower_bound():
    g = path3((1, -1, 0))
    inst = build_instance(g)
    for v, mv, _mask in inst.vertex_blocks:
        assert mv.rank() == effective_lower_bound(g, v)


# ---------------------------------------------------------------------------
# solving


def test_cycle_demand_one_is_orientable():
    out = orient_solve(cycle3())
    assert out.verdict == "above"
    assert verify_outcome(cycle3(), out)
    indeg = indegrees(cycle3(), out.orientation_dict())
    assert all(indeg[v] == 1 for v in "abc")


def test_path_demand_one_is_deficient():
    g = path3()
    out = orient_solve(g)
    assert out.verdict == "deficient"
    assert out.counting_ok is True
    assert verify_outcome(g, out)
    assert brute_orientations(g) is None


def test_single_edge_directed_to_demanding_vertex():
    g = DemandGraph.build(["u", "v"], [("u", "v", "e")], {"u": 0, "v": 1})
    out = orient_solve(g)
    assert out.verdict == "above"
    assert out.orientation_dict()["e"] == "v"


def test_mixed_solver_agrees():
    for g in (cycle3(), path3(), path3((1, 0, -1))):
        classic = orient_solve(g)
        inst = build_instance(g)
        mixed = orient_solve(g, solver="mixed", e1=inst.ground.full())
        assert classic.verdict == mixed.verdict


def test_verify_outcome_rejects_flipped_edges():
    # point both edges at the middle vertex: it rises above its bound,
    # so the "below everywhere on V'" bullet breaks
    g = path3()
    out = orient_solve(g)
    assert out.verdict == "deficient"
    bad = OrientationOutcome(
        (("e0", "v1"), ("e1", "v1")), "deficient", out.v_prime, out.counting_ok
    )
    assert not verify_outcome(g, bad)


def test_verify_outcome_rejects_starving_above():
    g = path3()
    out = orient_solve(g)
    pretended = OrientationOutcome(out.orientation, "above", (), None)
    assert not verify_outcome(g, pretended)


# ---------------------------------------------------------------------------
# the counting converse


def test_counting_example_path():
    assert deficiency_counting_check(path3(), ("v0", "v1", "v2"))


def test_counting_false_on_feasible_instance():
    g = cycle3()
    vertices = list(g.vertices)
    for mask in range(1, 1 << len(vertices)):
        vset = [vertices[i] for i in range(len(vertices)) if mask >> i & 1]
        assert not deficiency_counting_check(g, vset)


def test_counting_single_vertex_with_private_edges():
    g = DemandGraph.build(["u", "v"], [("u", "v", "e0"), ("u", "v", "e1")], {"u": 2, "v": 0})
    # demand equals the number of incident edges: no strict excess
    assert not deficiency_counting_check(g, ("u",))


def test_verdict_matches_brute_on_fuzzed_sample(corpus):
    done = 0
    for inst in corpus.graphs:
        if len(inst.graph.edges) > 8:
            continue
        out = orient_solve(inst.graph)
        brute = brute_orientations(inst.graph)
        assert (out.verdict == "above") == (brute is not None), inst.name
        if out.verdict == "deficient":
            assert out.counting_ok is True
        done += 1
        if done == 40:
            break
    assert done == 40
