"""Brute-force oracles and the deterministic corpus fuzzer."""

from __future__ import annotations

import pytest

from matroidkit import core as C
from matroidkit.core import GroundSet, matroid_to_json
from matroidkit.oracle import (
    MAX_FAMILY,
    CorpusSpec,
    brute_components,
    brute_largest_wave,
    brute_max_common,
    brute_minmax,
    brute_orientations,
    fuzz_corpus,
    rank_table,
)
from matroidkit.orient import DemandGraph

G3 = GroundSet(tuple("abc"))
G4 = GroundSet(tuple("abcd"))


def k4():
    return C.graphic(
        "pqrs",
        [
            ("p", "q", "e0"),
            ("p", "r", "e1"),
            ("p", "s", "e2"),
            ("q", "r", "e3"),
            ("q", "s", "e4"),
            ("r", "s", "e5"),
        ],
    )


def test_brute_max_common_examples():
    g0 = GroundSet(())
    assert brute_max_common(C.free(g0), C.free(g0))[0] == 0
    m = C.uniform(G4, 2)
    assert brute_max_common(m, C.free(G4))[0] == m.rank()
    assert brute_max_common(k4(), k4())[0] == 3


def test_brute_minmax_examples():
    assert brute_minmax(C.free(G4), C.free(G4)) == 4
    assert brute_minmax(C.zero(G4), C.free(G4)) == 0
    assert brute_minmax(C.zero(G4), k4()) == 0


def test_minmax_equals_max_common(corpus):
    for inst in corpus.pairs[:50]:
        size, witness = brute_max_common(inst.M, inst.N)
        assert inst.M.is_independent(witness) and inst.N.is_independent(witness)
        assert size == brute_minmax(inst.M, inst.N), inst.name


def test_witness_is_smallest_bitmask():
    m, n = C.uniform(G3, 1), C.uniform(G3, 1)
    _size, witness = brute_max_common(m, n)
    assert witness.labels() == ("a",)


def test_brute_largest_wave_examples():
    assert brute_largest_wave(C.uniform(G3, 1), C.free(G3)).mask == G3.full_mask
    assert brute_largest_wave(C.zero(G3), C.uniform(G3, 2)).mask == G3.full_mask


def test_brute_orientation_examples():
    cycle = DemandGraph.build(
        ["a", "b", "c"],
        [("a", "b", "e0"), ("b", "c", "e1"), ("c", "a", "e2")],
        {"a": 1, "b": 1, "c": 1},
    )
    assert brute_orientations(cycle) is not None
    path = DemandGraph.build(
        ["v0", "v1", "v2"],
        [("v0", "v1", "e0"), ("v1", "v2", "e1")],
        {"v0": 1, "v1": 1, "v2": 1},
    )
    assert brute_orientations(path) is None
    slack = DemandGraph.build(
        ["v0", "v1", "v2"],
        [("v0", "v1", "e0"), ("v1", "v2", "e1")],
        {"v0": -1, "v1": -2, "v2": -1},
    )
    assert brute_orientations(slack) is not None


def test_too_large_guards():
    big = GroundSet(tuple(f"e{i}" for i in range(17)))
    with pytest.raises(C.TooLarge):
        brute_max_common(C.free(big), C.free(big))
    with pytest.raises(C.TooLarge):
        brute_minmax(C.free(big), C.free(big))
    with pytest.raises(C.TooLarge):
        brute_components(C.free(big))
    med = GroundSet(tuple(f"e{i}" for i in range(11)))
    with pytest.raises(C.TooLarge):
        brute_largest_wave(C.free(med), C.free(med))


def test_rank_table_matches_handle():
    m = k4()
    table = rank_table(m)
    for mask, r in table.items():
        assert r == m._rank(mask)


def test_fuzz_is_deterministic():
    spec = CorpusSpec(seed=42, pairs=12, families=4, graphs=6, max_elements=6)
    a = fuzz_corpus(spec)
    b = fuzz_corpus(spec)
    assert a.kind_counts == b.kind_counts
    for pa, pb in zip(a.pairs, b.pairs):
        assert matroid_to_json(pa.M) == matroid_to_json(pb.M)
        assert matroid_to_json(pa.N) == matroid_to_json(pb.N)
        assert [s[1].mask for s in pa.splits] == [s[1].mask for s in pb.splits]
    for fa, fb in zip(a.families, b.families):
        assert [matroid_to_json(m) for m in fa.family.members] == [
            matroid_to_json(m) for m in fb.family.members
        ]
    for ga, gb in zip(a.graphs, b.graphs):
        assert ga.graph == gb.graph


def test_fuzz_covers_every_generator_kind(corpus):
    for kind in ("uniform", "graphic", "partition", "explicit", "dual", "sum"):
        assert corpus.kind_counts.get(kind, 0) > 0, kind


def test_fuzz_respects_bounds(corpus):
    for inst in corpus.pairs:
        assert inst.M.size <= corpus.spec.max_elements
    for inst in corpus.families:
        assert len(inst.family.members) <= MAX_FAMILY
        assert inst.family.ground.size <= 6
    for inst in corpus.graphs:
        assert len(inst.graph.edges) <= corpus.spec.max_graph_edges
        assert len(inst.graph.vertices) <= corpus.spec.max_graph_vertices


def test_fuzz_splits_respect_components(corpus):
    from matroidkit.intersect import SplitInput

    for inst in corpus.pairs[:40]:
        for e0, e1 in inst.splits:
            SplitInput(inst.N, e0, e1).validate()
