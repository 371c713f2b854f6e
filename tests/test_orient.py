"""Degree-constrained orientation: instance building, solving, certificates."""

from __future__ import annotations

from dataclasses import replace

import pytest

from matroidkit import core as C
from matroidkit import orient
from matroidkit.intersect import solve
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

from conftest import exhaustive_orientation_family, oracle_equal, reference_orientation_blocks


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


def _in_arc_ranks(g):
    """Rank of M on each vertex's in-arcs, with the arcs read off their labels."""
    inst = build_instance(g)
    ranks = {}
    for v in g.vertices:
        arcs = [f"{label}>" if w == v else f"{label}<" for u, w, label in g.edges if v in (u, w)]
        ranks[v] = inst.M.rank(inst.ground.subset(arcs))
    return ranks


def test_negative_full_demand_gives_rank_zero_block():
    g = DemandGraph.build(["u", "v"], [("u", "v", "e")], {"u": -1, "v": 0})
    # demand -degree leaves a lower bound of 0 on the in-arcs: rank zero
    assert _in_arc_ranks(g)["u"] == 0


def test_triangle_blocks_have_rank_one():
    assert set(_in_arc_ranks(cycle3()).values()) == {1}


def test_block_rank_equals_effective_lower_bound():
    g = path3((1, -1, 0))
    ranks = _in_arc_ranks(g)
    for v in g.vertices:
        assert ranks[v] == effective_lower_bound(g, v)


def test_m_is_the_sum_of_restricted_uniforms_and_v_prime_its_rank_test(monkeypatch):
    """The partition M equals the per-vertex sum, and v_prime is read the same.

    The reference test marks v deficient when I & E_M of the solver's
    certificate has lower rank on v's restricted uniform than the whole
    of it.  Graphs on at most four vertices with at most three edges
    (six arcs) are compared on every subset, once per profile of
    effective lower bounds, which is all that M depends on.
    """
    certs = []

    def solve_and_keep(*args):
        certs.append(solve(*args))
        return certs[-1]

    monkeypatch.setattr(orient, "solve", solve_and_keep)
    checked = deficient = 0
    seen = set()
    for g in exhaustive_orientation_family():
        if len(g.vertices) > 4 or len(g.edges) > 3:
            continue
        key = (g.vertices, g.edges, tuple(effective_lower_bound(g, v) for v in g.vertices))
        if key in seen:
            continue
        seen.add(key)
        inst = build_instance(g)
        blocks = reference_orientation_blocks(g)
        ref = C.direct_sum([mv for _v, mv in blocks])
        assert oracle_equal(inst.M, ref), g
        out = orient_solve(g)
        im = certs[-1].I.mask & certs[-1].E_M.mask
        failing = tuple(sorted(
            v for v, mv in blocks if mv._rank(im & mv.universe_mask) < mv._rank(mv.universe_mask)
        ))
        assert out.v_prime == (failing if out.verdict == "deficient" else ()), g
        checked += 1
        deficient += out.verdict == "deficient"
    assert checked > 1_000 and 0 < deficient < checked


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


def test_long_path_demand_one_is_deficient_at_scale():
    # 200 vertices want in-degree 1 from 199 edges, far past brute force;
    # the certificate alone proves there is no orientation
    vs = [f"v{i}" for i in range(200)]
    edges = [(vs[i], vs[i + 1], f"e{i}") for i in range(199)]
    g = DemandGraph.build(vs, edges, dict.fromkeys(vs, 1))
    inst = build_instance(g)
    met = []
    for out in (orient_solve(g), orient_solve(g, solver="mixed", e1=inst.ground.full())):
        assert out.verdict == "deficient" and out.counting_ok is True
        assert verify_outcome(g, out)
        assert deficiency_counting_check(g, out.v_prime)
        indeg = indegrees(g, out.orientation_dict())
        met.append(sum(min(indeg[v], 1) for v in vs))
    assert met == [199, 199]


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


def test_orient_solve_verifies_both_verdicts(monkeypatch):
    # a feasible and a deficient graph: neither outcome is returned when
    # its check rejects it
    monkeypatch.setattr(orient, "verify_outcome", lambda *a, **k: False)
    for g, verdict in ((cycle3(), "above"), (path3(), "deficient")):
        with pytest.raises(C.CertificateInvalid, match=f"^{verdict} outcome failed verification$"):
            orient_solve(g)


@pytest.mark.parametrize(
    "broken",
    [
        "edge missing", "head off its edge", "unknown verdict", "empty V'", "V' outside V",
        "V' none strictly below", "crossing edge points out",
    ],
)
def test_verify_outcome_rejects_each_broken_clause(broken):
    # e0 -> v1 and e1 -> v2 leave v0 short of its bound 1, and V' is all of
    # V; each case breaks one clause and keeps every other one
    g = path3()
    out = orient_solve(g)
    assert out == OrientationOutcome((("e0", "v1"), ("e1", "v2")), "deficient", ("v0", "v1", "v2"), True)
    bad = {
        "edge missing": replace(out, orientation=out.orientation[:1]),
        # e1 = v1v2 points at v0, leaving v2 strictly below
        "head off its edge": replace(out, orientation=(("e0", "v1"), ("e1", "v0"))),
        "unknown verdict": replace(out, verdict="short"),
        "empty V'": replace(out, v_prime=()),
        "V' outside V": replace(out, v_prime=(*out.v_prime, "zz")),
        # v1 and v2 sit at their bounds, and e0 points into V'
        "V' none strictly below": replace(out, v_prime=("v1", "v2")),
        # v0 is strictly below, but e0 leaves it for v1
        "crossing edge points out": replace(out, v_prime=("v0",)),
    }[broken]
    assert not verify_outcome(g, bad)


# ---------------------------------------------------------------------------
# the counting converse


def test_counting_example_path():
    assert deficiency_counting_check(path3(), ("v0", "v1", "v2"))


def test_counting_false_on_feasible_instance():
    g = cycle3()
    vertices = list(g.vertices)
    for mask in range(1 << len(vertices)):  # the empty set included
        vset = [vertices[i] for i in range(len(vertices)) if mask >> i & 1]
        assert not deficiency_counting_check(g, vset)


def test_counting_single_vertex_with_private_edges():
    g = DemandGraph.build(["u", "v"], [("u", "v", "e0"), ("u", "v", "e1")], {"u": 2, "v": 0})
    # demand equals the number of incident edges: no strict excess
    assert not deficiency_counting_check(g, ("u",))
