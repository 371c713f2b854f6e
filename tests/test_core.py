"""Ground-set algebra, constructors, minors and the axiom check."""

from __future__ import annotations

import copy
import json
import random
import sys
import threading
from collections import Counter, deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matroidkit import core as C
from matroidkit.core import ElementSet, GroundSet, bit_indices
from matroidkit.intersect import SplitInput, edmonds_solve, mixed_solve
from matroidkit.oracle import axiom_check, fuzz_corpus, is_circuit, iter_submasks
from matroidkit.orient import orient_solve
from matroidkit.packcov import packcov_solve
from matroidkit.waves import PairContext, largest_wave

from conftest import (
    CORPUS_SPEC,
    capped_partition,
    connected_graphic,
    enumerate_matroids,
    oracle_equal,
    pairwise_bases,
    scan_binary_draw,
    scan_circuit,
    scan_components,
)

G3 = GroundSet(tuple("abc"))
G4 = GroundSet(tuple("abcd"))
G5 = GroundSet(tuple("abcde"))


def k4() -> C.GraphicMatroid:
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


def triangle() -> C.GraphicMatroid:
    return C.graphic("xyz", [("x", "y", "a"), ("y", "z", "b"), ("z", "x", "c")])


# ---------------------------------------------------------------------------
# element sets


def test_ground_set_labels_distinct():
    with pytest.raises(C.MatroidKitError):
        GroundSet(("a", "a"))


@given(st.integers(0, 255), st.integers(0, 255))
@settings(max_examples=60, deadline=None)
def test_element_set_algebra_matches_sets(x, y):
    g = GroundSet(tuple(f"e{i}" for i in range(8)))
    a, b = ElementSet(g, x), ElementSet(g, y)
    sa, sb = set(bit_indices(x)), set(bit_indices(y))
    assert set(a | b) == sa | sb
    assert set(a & b) == sa & sb
    assert set(a ^ b) == sa ^ sb
    assert set(a - b) == sa - sb
    assert (a <= b) == (sa <= sb)
    assert len(a) == len(sa)


def test_element_set_universe_mismatch():
    other = GroundSet(tuple("xyz"))
    with pytest.raises(C.UniverseMismatch):
        G3.subset("ab") | other.subset("x")
    with pytest.raises(C.UniverseMismatch):
        ElementSet(G3, 0b1000)


# ---------------------------------------------------------------------------
# independence, rank, span


def test_uniform_independence():
    m = C.uniform(G4, 2)
    assert m._indep(G4.subset("ab").mask)
    assert not m._indep(G4.subset("abc").mask)


def test_graphic_triangle_dependent():
    m = k4()
    tri = m.ground.subset(["e0", "e1", "e3"])  # p-q, p-r, q-r
    assert not m._indep(tri.mask)
    assert is_circuit(m, tri.mask)


def test_rank_examples():
    assert C.uniform(G5, 3).rank(G5.empty()) == 0
    assert C.uniform(G5, 3).rank() == 3
    assert k4().rank() == 3


def exhaustive_rank(m: C.Matroid, s: int) -> int:
    return max((b.bit_count() for b in iter_submasks(s) if m._indep(b)), default=0)


def check_spanned_and_circuits(m: C.Matroid, rng: random.Random, rank) -> int:
    """Check the two digraph questions of ``m`` at random independent sets.

    ``_spanned(I, among)`` must be {x in among - I : r(I + x) = r(I)}, and
    ``_circuits(I, tails, among)`` the part in ``among`` of the union of
    the scan circuits of the tails that I spans; ``rank(m, s)`` gives r.
    Returns the number of circuits the reference scanned.
    """
    universe = m.universe_mask
    width = universe.bit_length()
    scanned = 0
    for _ in range(4):
        imask = m._max_indep(rng.getrandbits(width) & universe)
        tails, among = (rng.getrandbits(width) & universe for _ in range(2))
        r = rank(m, imask)
        spans = {x for x in bit_indices(universe & ~imask) if rank(m, imask | 1 << x) == r}
        assert m._spanned(imask, among) == sum(1 << x for x in spans if among >> x & 1), m.kind
        union = 0
        for x in spans & set(bit_indices(tails)):
            union |= scan_circuit(m, x, imask)
            scanned += 1
        assert m._circuits(imask, tails, among) == union & among, m.kind
    return scanned


def enumerated_contractions():
    """Every contraction M/C of every matroid M on four labels, with M and C."""
    for m in enumerate_matroids(tuple("abcd")):
        for c in iter_submasks(m.universe_mask):
            yield m, c, m.contract(ElementSet(m.ground, c))


def test_rank_matches_exhaustive_max():
    m = k4()
    for s in iter_submasks(m.universe_mask):
        assert m._rank(s) == exhaustive_rank(m, s)
    # r_{M/C}(X) = r_M(X | C) - r_M(C)
    for m, c, mc in enumerated_contractions():
        for x in iter_submasks(mc.universe_mask):
            assert mc._rank(x) == exhaustive_rank(m, x | c) - exhaustive_rank(m, c)


def test_span_examples():
    m = C.uniform(G3, 1)
    assert m.span(G3.subset("a")).mask == G3.full_mask
    t = triangle()
    assert t.span(t.ground.subset("ab")).mask == t.ground.full_mask


def test_span_closure_properties():
    m = k4()
    for s in iter_submasks(m.universe_mask):
        sp = m._span(s)
        assert s & ~sp == 0
        assert m._span(sp) == sp
    a = m.ground.subset(["e0"]).mask
    b = m.ground.subset(["e0", "e3"]).mask
    assert m._span(a) & ~m._span(b) == 0
    # span_{M/C}(X) = span_M(X | C) - C, with span_M from exhaustive ranks
    for m, c, mc in enumerated_contractions():
        for x in iter_submasks(mc.universe_mask):
            r = exhaustive_rank(m, x | c)
            span = sum(
                1 << e for e in bit_indices(m.universe_mask)
                if exhaustive_rank(m, x | c | 1 << e) == r
            )
            assert mc._span(x) == span & ~c
    # the questions behind _span, and the circuits of the digraph, against
    # exhaustive ranks on every matroid of four or five elements, its dual
    # and a contraction
    rng = random.Random(45)
    scanned = 0
    for m in enumerate_matroids(tuple("abcd")) + enumerate_matroids(tuple("abcde")):
        for case in (m, m.dual(), m.contract(ElementSet(m.ground, 0b101))):
            scanned += check_spanned_and_circuits(case, rng, exhaustive_rank)
    assert scanned > 1000


def fundamental_circuit(m: C.Matroid, e: int, imask: int) -> int:
    """The circuit of I + e, for an independent I that spans e."""
    return 1 << e | m._circuits(imask, 1 << e, imask)


def test_span_iff_fundamental_circuit_exists():
    m = k4()
    for s in iter_submasks(m.universe_mask):
        base = m._max_indep(s)
        for e in bit_indices(m.universe_mask & ~s):
            inside = bool(m._span(s) >> e & 1)
            if inside:
                circ = fundamental_circuit(m, e, base)
                assert is_circuit(m, circ) and circ >> e & 1
            else:
                # no circuit: the base stays independent with e
                assert m._indep(base | 1 << e)


def test_fundamental_circuit_examples():
    m = C.uniform(G4, 2)
    circ = fundamental_circuit(m, G4.index("c"), G4.subset("ab").mask)
    assert ElementSet(G4, circ).labels() == ("a", "b", "c")
    t = triangle()
    circ = fundamental_circuit(t, t.ground.index("c"), t.ground.subset("ab").mask)
    assert circ == t.ground.full_mask


def test_fundamental_circuit_is_minimal_dependent_scan():
    matroids = enumerate_matroids(tuple("abcde"))[::17]
    for m in matroids:
        for imask in iter_submasks(m.universe_mask):
            if not m._indep(imask):
                continue
            for e in bit_indices(m._span(imask) & ~imask):
                circ = fundamental_circuit(m, e, imask)
                assert circ == scan_circuit(m, e, imask)
                assert not m._indep(circ)
                for x in bit_indices(circ):
                    assert m._indep(circ ^ (1 << x))
                assert circ & ~(imask | 1 << e) == 0


# ---------------------------------------------------------------------------
# minors, duals, sums


def test_dual_of_uniform_is_uniform():
    m = C.uniform(G4, 1).dual()
    assert oracle_equal(m, C.uniform(G4, 3))


def test_dual_involution_exhaustive():
    for m in (C.uniform(G4, 2), k4(), triangle()):
        dd = C.DualMatroid(C.DualMatroid(m))
        assert oracle_equal(dd, m)
        assert m.dual().dual() is m


def test_contract_empty_is_identity():
    m = k4()
    assert m.contract(m.ground.empty()) is m


def test_minor_commutation_exhaustive():
    m = k4()
    xs = m.ground.subset(["e0", "e4"])
    ys = m.ground.subset(["e2"])
    a = m.contract(xs).delete(ys)
    b = m.delete(ys).contract(xs)
    assert oracle_equal(a, b)
    # a restriction of a restriction is one restriction of the first child
    c = m.delete(ys).delete(xs)
    assert c.child is m and oracle_equal(c, m.delete(xs | ys))


def test_minor_commutation_random_explicit():
    for m in enumerate_matroids(tuple("abcde"))[::29]:
        xs = ElementSet(m.ground, 0b00101)
        ys = ElementSet(m.ground, 0b01010)
        assert oracle_equal(m.contract(xs).delete(ys), m.delete(ys).contract(xs))


def test_contraction_independence_via_dual_span():
    # Independence in M.X is the same as being spanned in the dual by the rest.
    for m in enumerate_matroids(tuple("abcd"))[::11]:
        nd = m.dual()
        for xmask in iter_submasks(m.universe_mask):
            onto = m.onto(ElementSet(m.ground, xmask))
            for imask in iter_submasks(xmask):
                expect = not imask & ~nd._span(xmask & ~imask)
                assert onto._indep(imask) == expect


def test_direct_sum_universe_overlap_error():
    m = C.uniform(G3, 1)
    with pytest.raises(C.OverlappingUniverses):
        C.direct_sum([m, C.uniform(G3, 2)])


def test_concat_sum_slicewise():
    left = C.uniform(GroundSet(tuple("ab")), 1)
    right = C.free(GroundSet(tuple("cd")))
    s = C.concat_sum([left, right])
    assert s.ground.labels == ("a", "b", "c", "d")
    for mask in iter_submasks(s.universe_mask):
        assert s._indep(mask) == ((mask & 0b0011).bit_count() <= 1)


def test_relabel_onto_moves_elements_by_label():
    # {a, b} is a parallel pair of the partition; on G4 it sits at 0 and 1
    m = C.partition([(["b", "a"], 1), (["d", "c"], 2)])
    moved = C.relabel_onto(m, G4)
    assert moved.ground.labels == G4.labels
    for mask in iter_submasks(G4.full_mask):
        assert moved._indep(mask) == ((mask & 0b0011).bit_count() <= 1)
    assert C.relabel_onto(moved, GroundSet(G4.labels)) is moved
    with pytest.raises(C.UniverseMismatch):
        C.relabel_onto(m, G3)


def test_relabel_requires_injection():
    m = C.uniform(G3, 1)
    with pytest.raises(C.MatroidKitError):
        C.RelabelMatroid(G4, m, {0: 1, 1: 1, 2: 2})


# ---------------------------------------------------------------------------
# components


def test_components_examples():
    s = C.concat_sum(
        [C.uniform(GroundSet(tuple("abc")), 1), C.uniform(GroundSet(tuple("de")), 1)]
    )
    assert [c.labels() for c in s.components()] == [("a", "b", "c"), ("d", "e")]
    assert [c.labels() for c in C.free(G4).components()] == [
        ("a",),
        ("b",),
        ("c",),
        ("d",),
    ]
    two_triangles = C.graphic(
        "uvwxyz",
        [
            ("u", "v", "a"),
            ("v", "w", "b"),
            ("w", "u", "c"),
            ("x", "y", "d"),
            ("y", "z", "e"),
            ("z", "x", "f"),
        ],
    )
    assert [c.labels() for c in two_triangles.components()] == [
        ("a", "b", "c"),
        ("d", "e", "f"),
    ]


def test_components_structural_matches_brute(corpus):
    from matroidkit.oracle import brute_components

    cases = [
        C.uniform(G4, 2),
        C.uniform(G4, 0),
        C.free(G4),
        C.uniform(G4, 2).dual(),
        C.PartitionMatroid(G4, ((0b0011, 1), (0b1100, 2))),
        C.concat_sum([C.uniform(GroundSet(tuple("uv")), 1), triangle()]),
    ]
    for inst in corpus.pairs:
        # Every other element: a contraction of M and a restriction of N.
        half = ElementSet(inst.M.ground, inst.M.universe_mask & 0x5555)
        cases += [inst.M, inst.N, inst.M.dual(), inst.N.dual()]
        cases += [inst.M.contract(half), inst.N.restrict(half)]
    for m in cases:
        assert m.size <= 10
        want = [c.mask for c in brute_components(m)]
        assert [c.mask for c in m.components()] == want, m.kind


def test_circuit_components_and_spans_match_scans(corpus):
    # on the corpus matroids, their duals and their contractions: halving
    # finds the scan's circuit (and its part in any ``among``), components()
    # merges the same circuits, _spans agrees with the full _span, and
    # _spanned and _circuits agree with ranks and scan circuits
    rng = random.Random(31)
    cases = []
    for inst in corpus.pairs[:150]:
        half = ElementSet(inst.M.ground, inst.M.universe_mask & 0x5555)
        cases += [inst.M, inst.N, inst.M.dual(), inst.N.contract(half)]
    kinds = set()
    circuits = spans = scanned = 0
    # the two digraph questions draw from their own stream, so the halving
    # and span checks keep their inputs and their own floors
    qrng = random.Random(34)
    for m in cases:
        assert [c.mask for c in m.components()] == scan_components(m), m.kind
        kinds.add(m.kind)
        universe = m.universe_mask
        for _ in range(4):
            imask = m._max_indep(rng.getrandbits(universe.bit_length()) & universe)
            for e in bit_indices(m._span(imask) & ~imask):
                circ = scan_circuit(m, e, imask)
                among = rng.getrandbits(universe.bit_length()) & imask
                assert C.Matroid._circuits(m, imask, 1 << e, imask) == circ & ~(1 << e), m.kind
                assert C.Matroid._circuits(m, imask, 1 << e, among) == circ & among, m.kind
                circuits += 1
            part = rng.getrandbits(universe.bit_length()) & universe
            assert m._spans(imask, part) == (part & ~m._span(imask) == 0), m.kind
            spans += m._spans(imask, part)
        scanned += check_spanned_and_circuits(m, qrng, C.Matroid._rank)
    assert kinds >= {"dual", "contract", "graphic", "partition"}
    assert circuits > 1000 and 50 < spans < len(cases) * 4 - 50
    assert scanned > 1000
    # and on graphic and partition handles of up to 40 elements, and their duals
    scanned = 0
    for size in (10, 20, 40):
        graph = connected_graphic(qrng, size)
        for m in (graph, capped_partition(qrng, graph.ground)):
            for case in (m, m.dual()):
                scanned += check_spanned_and_circuits(case, qrng, C.Matroid._rank)
    assert scanned > 100


def test_components_halving_asks_fewer_queries_than_a_scan():
    # a partition matroid of n = 64 with blocks of 2-4: a scan asks r
    # queries for each of the n - r elements outside the base
    rng = random.Random(64)
    blocks, start = [], 0
    while start < 64:
        size = min(rng.randint(2, 4), 64 - start)
        blocks.append(((1 << size) - 1 << start, rng.randint(1, max(1, size - 1))))
        start += size
    ground = GroundSet(tuple(f"e{i}" for i in range(64)))
    m = C.PartitionMatroid(ground, tuple(blocks))
    asked = []
    raw = m._indep_raw
    m._indep_raw = lambda mask: asked.append(mask) or raw(mask)
    got = [c.mask for c in m.components()]
    halving = len(asked)
    r = m._rank(m.universe_mask)
    assert got == scan_components(m)
    assert 0 < halving < (64 - r) * r


# ---------------------------------------------------------------------------
# axioms


def test_axiom_check_uniform():
    assert axiom_check(C.uniform(G4, 2))


def test_axiom_check_missing_empty_set():
    class NoEmpty(C.Matroid):
        def _indep_raw(self, mask):
            return mask in (0b001, 0b010)

    assert not axiom_check(NoEmpty(G3, G3.full_mask))
    # behind a minor, a sum, a relabeling or a dual, since _indep answers
    # the empty set without asking
    bad = NoEmpty(G3, G3.full_mask)
    for m in (
        bad.restrict(ElementSet(G3, 0b011)),
        bad.contract(ElementSet(G3, 0b100)),
        C.DirectSumMatroid([NoEmpty(G3, 0b011), NoEmpty(G3, 0b100)]),
        C.RelabelMatroid(GroundSet(tuple("cba")), bad, {0: 2, 1: 1, 2: 0}),
        C.DualMatroid(bad),
    ):
        assert not axiom_check(m), m.kind

    # and one that holds a pair but not its one-element deletions
    class NotClosed(C.Matroid):
        def _indep_raw(self, mask):
            return mask in (0, 0b011)

    assert not axiom_check(NotClosed(G3, G3.full_mask))


def test_axiom_check_evaluates_augmentation_honestly():
    good = C.explicit("ab", [["a"], ["b"]])
    assert axiom_check(good)
    bad = C.ExplicitMatroid(G4, [0b0011, 0b1100])
    assert not axiom_check(bad)


def test_axiom_check_bound():
    big = C.uniform(GroundSet(tuple(f"e{i}" for i in range(13))), 2)
    with pytest.raises(C.TooLarge):
        axiom_check(big)


@given(st.integers(0, 10**9))
@settings(max_examples=30, deadline=None)
def test_every_constructor_satisfies_axioms(seed):
    from matroidkit.oracle import CorpusSpec, fuzz_corpus

    spec = CorpusSpec(seed=seed, pairs=1, families=0, graphs=0, max_elements=6)
    inst = fuzz_corpus(spec).pairs[0]
    assert axiom_check(inst.M)
    assert axiom_check(inst.N)


# ---------------------------------------------------------------------------
# explicit set lists against the pairwise definition


def explicit_routes(ground: GroundSet, pool: list[int]) -> list:
    """The bases built from ``pool`` by the class, by ``explicit`` and from
    a JSON document; ``None`` for each that rejects it as no matroid."""
    labels = ground.labels
    named = [[labels[i] for i in bit_indices(s)] for s in pool]
    doc = {"kind": "explicit", "universe": list(labels), "bases": named}
    builds = (
        lambda: C.ExplicitMatroid(ground, pool),
        lambda: C.explicit(labels, named),
        lambda: C.matroid_from_json(doc),
    )
    out = []
    for build in builds:
        try:
            out.append(build().bases)
        except C.MatroidKitError as exc:
            assert "explicit maximal sets differ in size" in str(exc)
            out.append(None)
    return out


def test_explicit_bases_match_the_pairwise_definition():
    rng = random.Random(25)
    cases = [(3, [], (0,)), (3, [0], (0,)), (3, [0b011, 0b100], None)]
    cases.append((3, [0b011, 0b001, 0b010, 0b011], (0b011,)))
    for n in range(1, 9):
        for _ in range(4):
            _cols, indep = scan_binary_draw(rng, n)
            bases = pairwise_bases(indep)
            cases.append((n, indep, bases))
            cases.append((n, rng.sample(indep, len(indep)), bases))
            cases.append((n, list(bases), bases))
            cases.append((n, indep + rng.choices(indep, k=len(indep)), bases))
            # a set below the rank that lies under no base
            top = bases[0].bit_count()
            loose = [s for s in range(1 << n) if s.bit_count() < top and s not in indep]
            if loose:
                cases.append((n, list(bases) + [rng.choice(loose)], None))
        for _ in range(20):
            pool = [rng.getrandbits(n) for _ in range(rng.randint(0, 6))]
            cases.append((n, pool, pairwise_bases(pool)))
    outcomes = Counter()
    for n, pool, expected in cases:
        assert pairwise_bases(pool) == expected, (n, pool)
        ground = GroundSet(tuple(f"e{i}" for i in range(n)))
        assert explicit_routes(ground, pool) == [expected] * 3, (n, pool)
        outcomes[expected is None] += 1
    assert outcomes[True] > 20 and outcomes[False] > 100, outcomes


# ---------------------------------------------------------------------------
# JSON documents


def test_json_round_trip_all_kinds():
    docs = [
        {"kind": "uniform", "n": 3, "r": 1, "labels": ["a", "b", "c"]},
        {"kind": "uniform", "n": 2, "r": 2},
        {
            "kind": "graphic",
            "vertices": ["u", "v"],
            "edges": [["u", "v", "x"], ["u", "v", "y"], ["u", "u", "z"]],
        },
        {
            "kind": "partition",
            "blocks": [
                {"elements": ["a", "b"], "cap": 1},
                {"elements": ["c"], "cap": 0},
            ],
        },
        {"kind": "explicit", "universe": ["a", "b"], "bases": [["a"], ["b"]]},
        {"kind": "dual", "of": {"kind": "uniform", "n": 3, "r": 1, "labels": ["a", "b", "c"]}},
        {
            "kind": "restrict",
            "of": {"kind": "uniform", "n": 3, "r": 2, "labels": ["a", "b", "c"]},
            "set": ["a", "b"],
        },
        {
            "kind": "contract",
            "of": {"kind": "uniform", "n": 3, "r": 2, "labels": ["a", "b", "c"]},
            "set": ["c"],
        },
        {
            "kind": "sum",
            "parts": [
                {"kind": "uniform", "n": 2, "r": 1, "labels": ["a", "b"]},
                {"kind": "uniform", "n": 1, "r": 1, "labels": ["c"]},
            ],
        },
    ]
    for doc in docs:
        m = C.matroid_from_json(doc)
        emitted = C.matroid_to_json(m)
        m2 = C.matroid_from_json(emitted)
        assert oracle_equal(m, m2)
        assert json.dumps(C.matroid_to_json(m2), sort_keys=True) == json.dumps(
            emitted, sort_keys=True
        )


def test_json_errors():
    with pytest.raises(C.InvalidDocument):
        C.matroid_from_json({"kind": "nope"})
    with pytest.raises(C.InvalidDocument):
        C.matroid_from_json({"kind": "uniform", "n": 2, "r": 1, "labels": ["a"]})
    with pytest.raises(C.InvalidDocument):
        C.matroid_from_json({"kind": "restrict", "of": {"kind": "uniform", "n": 1, "r": 1}, "set": ["zz"]})


def test_self_loop_edge_is_matroid_loop():
    m = C.graphic(["u", "v"], [("u", "u", "a"), ("u", "v", "b")])
    assert m.loops().labels() == ("a",)


# ---------------------------------------------------------------------------
# leaf kernels against small references


def forest_by_bfs(n_vertices, endpoints, mask) -> bool:
    """The edges of ``mask`` form a forest: no self-loop, and as many edges as
    vertices minus components, with the components found by BFS."""
    edges = [endpoints[e] for e in bit_indices(mask)]
    if any(u == v for u, v in edges):
        return False
    adj = [[] for _ in range(n_vertices)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * n_vertices
    components = 0
    for s in range(n_vertices):
        if seen[s]:
            continue
        components += 1
        seen[s] = True
        queue = deque([s])
        while queue:
            for y in adj[queue.popleft()]:
                if not seen[y]:
                    seen[y] = True
                    queue.append(y)
    return len(edges) == n_vertices - components


def random_multigraph(rng, n_vertices, n_edges):
    """Endpoints of a multigraph that opens with a chain whose every edge
    hangs the old root under a new vertex, so union-find trees grow deep
    and path halving has work to do; random edges, parallel edges and
    self-loops follow."""
    chain = rng.randint(0, n_vertices - 1)
    endpoints = [(k + 1, k) for k in range(chain)]
    while len(endpoints) < n_edges:
        roll = rng.random()
        if roll < 0.1:
            v = rng.randrange(n_vertices)
            endpoints.append((v, v))
        elif roll < 0.25 and endpoints:
            endpoints.append(rng.choice(endpoints)[::-1])
        else:
            endpoints.append((rng.randrange(n_vertices), rng.randrange(n_vertices)))
    return tuple(endpoints[:n_edges])


def test_graphic_kernel_matches_bfs_forest_test():
    rng = random.Random(13)
    for _ in range(150):
        n_vertices = rng.randint(1, 24)
        endpoints = random_multigraph(rng, n_vertices, rng.randint(1, 40))
        ground = GroundSet(tuple(f"e{i}" for i in range(len(endpoints))))
        m = C.GraphicMatroid(ground, tuple(f"v{i}" for i in range(n_vertices)), endpoints)
        chain = 0
        while chain < len(endpoints) and endpoints[chain] == (chain + 1, chain):
            chain += 1
        masks = [rng.getrandbits(len(endpoints)) for _ in range(30)]
        # the whole chain, then the chain with each later edge: the deep trees
        masks += [(1 << chain) - 1 | 1 << e for e in range(chain, len(endpoints))]
        masks.append((1 << chain) - 1)
        for mask in masks:
            assert m._indep_raw(mask) == forest_by_bfs(n_vertices, endpoints, mask)


def random_blocks(rng, size):
    """Disjoint blocks on ``size`` elements as (elements, cap): about a quarter
    of the elements lie outside every block, and caps run from 0 to one
    above the block's size."""
    order = rng.sample(range(size), size)
    blocks = []
    while order:
        cut = rng.randint(1, len(order))
        block, order = order[:cut], order[cut:]
        if rng.random() < 0.25:
            continue
        cap = rng.choice([0, 0, 1, rng.randint(0, len(block)), len(block), len(block) + 1])
        blocks.append((block, cap))
    return blocks


def partition_of(size, blocks) -> C.PartitionMatroid:
    ground = GroundSet(tuple(f"e{i}" for i in range(size)))
    return C.PartitionMatroid(
        ground, tuple((sum(1 << e for e in block), cap) for block, cap in blocks)
    )


def blocks_fit(blocks, mask) -> bool:
    return all(sum(mask >> e & 1 for e in block) <= cap for block, cap in blocks)


def test_partition_kernel_matches_block_counts():
    rng = random.Random(17)
    for _ in range(150):
        size = rng.randint(1, 40)
        blocks = random_blocks(rng, size)
        m = partition_of(size, blocks)
        for _ in range(40):
            mask = rng.getrandbits(size)
            assert m._indep_raw(mask) == blocks_fit(blocks, mask)


# ---------------------------------------------------------------------------
# leaf kernels on the query sequences the solvers ask


def anchored_queries(rng, size, indep, rounds=4):
    """Masks in the shapes the solvers ask of one independent set I.

    Each round grows I greedily in a new random order, asking I + e for
    every element e, then asks I + x, I - y + x, I - Y + x for up to
    three y, and subsets of I.  ``indep`` is the reference that decides
    the greedy steps.
    """
    masks = []
    for _ in range(rounds):
        cur = 0
        for e in rng.sample(range(size), size):
            masks.append(cur | 1 << e)
            if indep(cur | 1 << e):
                cur |= 1 << e
        inside = list(bit_indices(cur))
        outside = [e for e in range(size) if not cur >> e & 1]
        for _ in range(2 * size):
            mask = cur
            for y in rng.sample(inside, rng.randint(0, min(3, len(inside)))):
                mask &= ~(1 << y)
            if outside and rng.random() < 0.8:
                mask |= 1 << rng.choice(outside)
            masks.append(mask)
    return masks


def ask_in_order(m, masks, reference, anchor) -> Counter:
    """Ask ``masks`` of ``m`` in order against ``reference``; count each
    mask's shape against the anchor ``m`` held when it was asked."""
    shapes: Counter = Counter()
    for mask in masks:
        extra = mask & ~anchor(m)
        shapes["inside" if not extra else "one" if not extra & (extra - 1) else "more"] += 1
        assert m._indep_raw(mask) == reference(mask), bin(mask)
    return shapes


def graphic_anchor(m) -> int:
    return m._anchor[0]


def partition_anchor(m) -> int:
    return m._anchor


def test_graphic_kernel_on_solver_query_sequences():
    # self-loops, parallel edges and deep chains from random_multigraph,
    # and three isolated vertices that no edge touches
    rng = random.Random(19)
    shapes: Counter = Counter()
    for _ in range(60):
        n_vertices = rng.randint(1, 20)
        endpoints = random_multigraph(rng, n_vertices, rng.randint(1, 30))
        ground = GroundSet(tuple(f"e{i}" for i in range(len(endpoints))))
        m = C.GraphicMatroid(ground, tuple(f"v{i}" for i in range(n_vertices + 3)), endpoints)

        def reference(mask, n=n_vertices + 3, endpoints=endpoints):
            return forest_by_bfs(n, endpoints, mask)

        masks = anchored_queries(rng, len(endpoints), reference)
        shapes += ask_in_order(m, masks, reference, graphic_anchor)
    # every branch of the kernel is reached many times
    assert min(shapes["inside"], shapes["one"], shapes["more"]) > 500, shapes


def assert_rooted(m) -> None:
    """The graphic anchor's root, up, up_bit and depth describe its forest:
    each up-chain reaches its root in ``depth`` steps, and the up_bits are
    exactly the forest's edges, each joining a vertex to its parent."""
    forest, root, up, up_bit, depth = m._anchor
    n = len(m.vertices)
    bits = 0
    for w in range(n):
        x, steps = w, 0
        while up[x] != x and steps <= n:
            x, steps = up[x], steps + 1
        assert (x, steps) == (root[w], depth[w]), w
        if up[w] == w:
            assert up_bit[w] == 0, w
            continue
        bit = up_bit[w]
        assert bit and not bit & (bit - 1) and not bit & bits, w
        assert sorted(m.endpoints[bit.bit_length() - 1]) == sorted((w, up[w])), w
        bits |= bit
    assert bits == forest


def test_linked_anchors_are_rooted_forests():
    # an independent one-edge answer that drops nothing grows the anchor by
    # that edge (GraphicMatroid._linked); after every query of the solver
    # shapes the anchor is still its forest, rooted
    rng = random.Random(23)
    linked = 0
    for _ in range(40):
        n_vertices = rng.randint(1, 20)
        endpoints = random_multigraph(rng, n_vertices, rng.randint(1, 30))
        ground = GroundSet(tuple(f"e{i}" for i in range(len(endpoints))))
        m = C.GraphicMatroid(ground, tuple(f"v{i}" for i in range(n_vertices + 3)), endpoints)
        masks = anchored_queries(
            rng, len(endpoints), lambda mask: forest_by_bfs(n_vertices + 3, endpoints, mask)
        )
        for mask in masks:
            before = m._anchor[0]
            m._indep_raw(mask)
            extra = mask & ~before
            one_more = extra and not extra & (extra - 1) and not before & ~mask
            linked += bool(one_more) and m._anchor[0] == mask
            assert_rooted(m)
    assert linked > 400, linked


def test_a_greedy_keeps_one_anchor_without_a_rebuild():
    # a greedy over a connected graph on 128 vertices links each of the 127
    # edges it keeps into the anchor and never rebuilds the rooted forest
    m = connected_graphic(random.Random(128), 171)
    assert len(m.vertices) == 128
    rebuilt = []
    rooted, raw = m._rooted, m._indep_raw
    m._rooted = lambda forest: rebuilt.append(forest) or rooted(forest)

    def checked(mask):
        out = raw(mask)
        assert_rooted(m)
        return out

    m._indep_raw = checked
    base = m._max_indep(m.universe_mask)
    assert base.bit_count() == 127 and m._anchor[0] == base
    assert rebuilt == []


def test_partition_kernel_on_solver_query_sequences():
    rng = random.Random(29)
    shapes: Counter = Counter()
    for _ in range(60):
        size = rng.randint(1, 30)
        blocks = random_blocks(rng, size)
        m = partition_of(size, blocks)

        def reference(mask, blocks=blocks):
            return blocks_fit(blocks, mask)

        masks = anchored_queries(rng, size, reference)
        shapes += ask_in_order(m, masks, reference, partition_anchor)
    assert min(shapes["inside"], shapes["one"], shapes["more"]) > 500, shapes


def replay(leaf, masks) -> Counter:
    """Ask ``masks`` in order of a fresh copy of the leaf handle ``leaf``."""
    if leaf.kind == "graphic":
        fresh = C.GraphicMatroid(leaf.ground, leaf.vertices, leaf.endpoints)
        n_vertices, endpoints = len(leaf.vertices), leaf.endpoints
        return ask_in_order(
            fresh, masks, lambda mask: forest_by_bfs(n_vertices, endpoints, mask), graphic_anchor
        )
    fresh = C.PartitionMatroid(leaf.ground, leaf.blocks)
    blocks = [(list(bit_indices(bmask)), cap) for bmask, cap in leaf.blocks]
    return ask_in_order(fresh, masks, lambda mask: blocks_fit(blocks, mask), partition_anchor)


def test_kernels_replay_classic_runs_at_n128(monkeypatch):
    # the masks each edmonds_solve asks of its leaves, in order, asked
    # again of fresh handles, whose anchors then move as they did; the
    # leaves answer span and circuit questions by queries, so the solve
    # asks the query stream whose shapes these kernels are built for
    for cls in (C.GraphicMatroid, C.PartitionMatroid):
        monkeypatch.setattr(cls, "_spanned", C.Matroid._spanned)
        monkeypatch.setattr(cls, "_circuits", C.Matroid._circuits)
    rng = random.Random(128)
    m = connected_graphic(rng, 128)
    shapes = {"graphic": Counter(), "partition": Counter()}
    for n in (capped_partition(rng, m.ground), connected_graphic(rng, 128)):
        m = C.GraphicMatroid(m.ground, m.vertices, m.endpoints)
        asked = {m: [], n: []}
        for leaf, masks in asked.items():
            leaf._indep_raw = lambda mask, raw=leaf._indep_raw, masks=masks: (
                masks.append(mask) or raw(mask)
            )
        edmonds_solve(PairContext(m, n))
        for leaf, masks in asked.items():
            shapes[leaf.kind] += replay(leaf, masks)
    # most graphic queries take the tree path
    assert shapes["graphic"]["one"] > 1000 and shapes["partition"]["one"] > 100, shapes


def test_kernels_answer_concurrent_queries_like_the_reference():
    # four threads, each with its own query sequence, share one graphic
    # and one partition handle; a short switch interval makes them
    # interleave inside the kernels, between reading and replacing anchors
    rng = random.Random(31)
    endpoints = random_multigraph(rng, 24, 40)
    ground = GroundSet(tuple(f"e{i}" for i in range(40)))
    g = C.GraphicMatroid(ground, tuple(f"v{i}" for i in range(24)), endpoints)
    blocks = random_blocks(rng, 40)
    p = partition_of(40, blocks)
    jobs = []
    for _ in range(4):
        gmasks = anchored_queries(rng, 40, lambda mask: forest_by_bfs(24, endpoints, mask), 6)
        pmasks = anchored_queries(rng, 40, lambda mask: blocks_fit(blocks, mask), 6)
        jobs.append([
            (g, mask, forest_by_bfs(24, endpoints, mask)) for mask in gmasks
        ] + [(p, mask, blocks_fit(blocks, mask)) for mask in pmasks])
        rng.shuffle(jobs[-1])
    wrong: list = []
    ready = threading.Barrier(len(jobs), timeout=60)

    def work(job):
        ready.wait()
        for _ in range(10):
            for m, mask, expected in job:
                if m._indep_raw(mask) != expected:
                    wrong.append((m.kind, mask))

    threads = [threading.Thread(target=work, args=(job,)) for job in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


# ---------------------------------------------------------------------------
# the dual kernel against two full ranks of the child


def rank_formula(child, mask) -> bool:
    """Independence of ``mask`` in the dual by definition: r(U - X) = r(U)."""
    u = child.universe_mask
    return child._rank(u & ~mask) == child._rank(u)


@pytest.fixture
def replay_every_dual(monkeypatch):
    """No handle has a closed-form dual, so every dual replays its child."""
    for cls in (C.Matroid, *C.Matroid.__subclasses__()):
        if "_closed_dual" in vars(cls):
            monkeypatch.setattr(cls, "_closed_dual", lambda self: None)


def asking(m) -> set:
    """Record every mask asked of ``m._indep``, memo hits included."""
    asked: set = set()
    indep = m._indep
    m._indep = lambda mask: asked.add(mask) or indep(mask)
    return asked


def test_dual_kernel_on_every_matroid_up_to_five_elements():
    # X is independent in M* exactly when some base of M misses it; the
    # dual of the dual asks the kernel of a dual child
    checked = 0
    for labels in (tuple("abcd"), tuple("abcde")):
        for m in enumerate_matroids(labels):
            d, dd = m.dual(), C.DualMatroid(C.DualMatroid(m))
            for mask in iter_submasks(m.universe_mask):
                assert d._indep(mask) == any(not mask & b for b in m.bases), (m.bases, mask)
                assert dd._indep(mask) == m._indep_raw(mask), (m.bases, mask)
                checked += 1
    assert checked == 68 * 16 + 406 * 32


def random_child(rng, k: int, size: int) -> C.Matroid:
    """A fresh graphic (k = 0), partition (1) or uniform (2) handle on ``size`` elements."""
    ground = GroundSet(tuple(f"e{i}" for i in range(size)))
    if k == 0:
        n_vertices = rng.randint(1, 24)
        endpoints = random_multigraph(rng, n_vertices, size)
        return C.GraphicMatroid(ground, tuple(f"v{i}" for i in range(n_vertices)), endpoints)
    if k == 1:
        return partition_of(size, random_blocks(rng, size))
    return C.uniform(ground, rng.randint(0, size))


def test_dual_kernel_asks_a_subset_of_the_rank_formula(replay_every_dual):
    # each query on fresh copies of one child: the same answer as the two
    # full ranks, and no child mask that the ranks do not ask
    rng = random.Random(37)
    answers: Counter = Counter()
    fewer = 0
    for i in range(180):
        child = random_child(rng, i % 3, rng.randint(1, 40))
        for _ in range(8):
            density = rng.choice([0.05, 0.2, 0.5])
            mask = sum(1 << e for e in range(child.size) if rng.random() < density)
            kernel, formula = copy.deepcopy(child), copy.deepcopy(child)
            kernel_asked, formula_asked = asking(kernel), asking(formula)
            got = C.DualMatroid(kernel)._indep_raw(mask)
            assert got == rank_formula(formula, mask), (child.kind, mask)
            assert kernel_asked <= formula_asked, (child.kind, mask)
            answers[child.kind, got] += 1
            fewer += len(kernel_asked) < len(formula_asked)
    # both answers on every kind, and most queries asked strictly less
    assert len(answers) == 6 and min(answers.values()) > 40, answers
    assert fewer > 700, fewer


def test_dual_kernel_answers_like_the_rank_formula_on_a_shared_handle(replay_every_dual):
    # one dual handle answers a stream of queries, so the child's memos
    # and anchors carry over from query to query
    rng = random.Random(41)
    for i in range(60):
        child = random_child(rng, i % 3, rng.randint(1, 40))
        reference = copy.deepcopy(child)
        d = child.dual()
        for _ in range(25):
            density = rng.choice([0.05, 0.2, 0.5])
            mask = sum(1 << e for e in range(child.size) if rng.random() < density)
            assert d._indep(mask) == rank_formula(reference, mask), (child.kind, mask)


def test_dual_query_that_misses_the_base_asks_nothing_more(replay_every_dual):
    # once the child's greedy base B is known, an X outside B is answered
    # True with no further question of the child
    rng = random.Random(43)
    for i in range(30):
        child = random_child(rng, i % 3, rng.randint(1, 40))
        base = child._max_indep(child.universe_mask)
        asked = asking(child)
        d = C.DualMatroid(child)
        for _ in range(10):
            assert d._indep_raw(rng.getrandbits(child.size) & ~base)
        assert asked == set()


def cold_copy(obj):
    """A deep copy of ``obj`` whose matroid handles all have empty memos.

    The corpus handles arrive with warm memos: ``fuzz_corpus`` asks for
    components, and other tests share the session corpus.
    """
    copied: dict = {}
    out = copy.deepcopy(obj, copied)
    for x in copied.values():
        if isinstance(x, C.Matroid):
            x._memo_indep.clear()
            x._memo_base.clear()
    return out


def corpus_runs(corpus):
    """A slice of the corpus through the five entry points, each on cold
    copies of its handles, as (name, thunk returning a comparable summary)."""
    runs = []
    for inst in corpus.pairs[::4]:
        def classic(inst=inst):
            m, n = cold_copy((inst.M, inst.N))
            cert = edmonds_solve(PairContext(m, n))
            return cert.I.mask, cert.E_M.mask, cert.E_N.mask

        def wave(inst=inst):
            m, n = cold_copy((inst.M, inst.N))
            w = largest_wave(PairContext(m, n))
            return w.W.mask, w.witness.mask

        runs += [(f"{inst.name} classic", classic), (f"{inst.name} wave", wave)]
        for e0, e1 in inst.splits:
            def mixed(inst=inst, e0=e0, e1=e1):
                m, n, e0, e1 = cold_copy((inst.M, inst.N, e0, e1))
                cert = mixed_solve(m, SplitInput(n, e0, e1))
                return cert.I.mask, cert.E_M.mask, cert.E_N.mask

            runs.append((f"{inst.name} mixed E1={e1.mask}", mixed))
    for inst in corpus.families:
        def packcov(inst=inst):
            res = packcov_solve(cold_copy(inst.family))
            return res.E_p.mask, [s.mask for s in res.S], [i.mask for i in res.I]

        runs.append((f"{inst.name} packcov", packcov))
    for inst in corpus.graphs[::5]:
        def orient(inst=inst):
            out = orient_solve(inst.graph)
            return out.orientation, out.verdict, out.v_prime, out.counting_ok

        runs.append((f"{inst.name} orient", orient))
    return runs


def test_dual_kernel_keeps_every_result_and_never_asks_more_leaf_calls(replay_every_dual, monkeypatch):
    # every run once as is and once with the dual answered by two full
    # ranks of the child: equal results, and per run no more leaf calls.
    # Every dual replays, in a corpus built without closed forms.
    corpus = fuzz_corpus(CORPUS_SPEC)
    leaf = Counter()
    for cls in (C.GraphicMatroid, C.PartitionMatroid, C.UniformMatroid, C.ExplicitMatroid):
        def counted(self, mask, raw=cls._indep_raw):
            leaf["calls"] += 1
            return raw(self, mask)

        monkeypatch.setattr(cls, "_indep_raw", counted)
    dual_raw = C.DualMatroid._indep_raw

    def dual_counted(self, mask):
        leaf["dual"] += 1
        return dual_raw(self, mask)

    def measure(runs):
        out = []
        for name, run in runs:
            before = leaf["calls"]
            out.append((name, run(), leaf["calls"] - before))
        return out

    runs = corpus_runs(corpus)
    monkeypatch.setattr(C.DualMatroid, "_indep_raw", dual_counted)
    kernel = measure(runs)
    monkeypatch.setattr(C.DualMatroid, "_indep_raw", lambda self, mask: rank_formula(self.child, mask))
    formula = measure(runs)
    for (name, result, calls), (_, ref_result, ref_calls) in zip(kernel, formula):
        assert result == ref_result, name
        assert calls <= ref_calls, (name, calls, ref_calls)
    # the slice asks dual handles, and the kernel saves leaf calls on it
    saved = sum(f[2] - k[2] for k, f in zip(kernel, formula))
    assert leaf["dual"] > 1000 and saved > 1000, (leaf["dual"], saved)


# ---------------------------------------------------------------------------
# structural span and circuit answers against the query versions

STRUCTURAL_KINDS = (C.GraphicMatroid, C.PartitionMatroid, C.ContractMatroid, C.RestrictMatroid)


def tree_nodes(roots, kinds) -> list[C.Matroid]:
    """Every node of a class in ``kinds`` in the trees of ``roots``, the
    closed forms of dual nodes included, each once."""
    stack, seen, out = list(roots), set(), []
    while stack:
        m = stack.pop()
        if id(m) in seen:
            continue
        seen.add(id(m))
        if isinstance(m, kinds):
            out.append(m)
        stack.extend(getattr(m, "parts", ()))
        if hasattr(m, "child"):
            stack.append(m.child)
        if getattr(m, "_closed", None) is not None:
            stack.append(m._closed)
    return out


def chain_of(m: C.Matroid) -> list[C.Matroid]:
    """``m`` and its children down to the first node without one."""
    out = [m]
    while hasattr(out[-1], "child"):
        out.append(out[-1].child)
    return out


def check_structural(h: C.Matroid, rng: random.Random, rounds: int = 6) -> Counter:
    """Ask ``h`` seeded span and circuit questions, each also asked of the
    query version (``Matroid._spanned``, ``Matroid._circuits``) on a fresh
    deep copy of ``h``, and assert equal answers.

    The shapes are the solvers' (several tails, some not spanned, some in
    I; ``among`` within I or reaching outside every circuit; one tail)
    and the fallback's: one candidate in ``among``, from the graphic
    leaf's anchor when it is the leaf's I and from another anchor; a
    dependent I.  When every node of ``h``'s chain answers structurally, a
    question with two or more candidates on well-formed input, and a
    graphic one-candidate question whose anchor is the leaf's I, must ask
    no query (every memo along the chain keeps its size), and the leaf's
    anchor, which the answer may move, must stay an independent set,
    rooted when graphic.  Returns the shapes asked.
    """
    ref = copy.deepcopy(h)
    universe = h.universe_mask
    chain = chain_of(h)
    structural = all(isinstance(m, STRUCTURAL_KINDS) for m in chain)
    leaf, ref_leaf = chain[-1], chain_of(ref)[-1]
    contracted = sum(getattr(m, "_base_of_contracted", 0) for m in chain)
    shapes: Counter = Counter()

    def draw(density=None) -> int:
        density = rng.choice([0.1, 0.5, 0.9]) if density is None else density
        return sum(1 << e for e in bit_indices(universe) if rng.random() < density)

    def ask(shape, method, *args, pure=False):
        memos = [len(m._memo_indep) for m in chain]
        got = getattr(h, method)(*args)
        assert got == getattr(C.Matroid, method)(ref, *args), (h.kind, shape, args)
        if pure and structural:
            assert [len(m._memo_indep) for m in chain] == memos, (h.kind, shape)
            if leaf.kind == "graphic":
                assert_rooted(leaf)
                assert ref_leaf._indep(leaf._anchor[0]), (h.kind, shape)
            else:
                assert ref_leaf._indep(leaf._anchor), (h.kind, shape)
            shapes["no query"] += 1
        shapes[shape] += 1

    def several(mask: int) -> bool:
        return bool(mask & (mask - 1))

    for _ in range(rounds):
        imask = ref._max_indep(draw())
        among = draw()
        ask("spanned", "_spanned", imask, among, pure=several(among & ~imask))
        ask("spanned, among meets I", "_spanned", imask, among | imask, pure=several(among & ~imask))
        if outside := universe & ~imask:
            ask("spanned, one candidate", "_spanned", imask, 1 << rng.choice(list(bit_indices(outside))))
        if not ref._indep(dependent := imask | draw()):
            ask("spanned, dependent I", "_spanned", dependent, draw())
        tails = draw() | draw() & imask
        ask("circuits", "_circuits", imask, tails, imask, pure=several(imask))
        ask("circuits, among reaches outside them", "_circuits", imask, tails, among, pure=several(among))
        spanned = list(bit_indices(C.Matroid._spanned(ref, imask, universe)))
        if not spanned:
            continue
        x = rng.choice(spanned)
        one = 1 << rng.choice(list(bit_indices(imask | 1 << x)))
        if leaf.kind == "graphic":
            leaf._anchor = leaf._rooted(0)
        else:
            leaf._anchor = 0
        ask("circuits, one candidate", "_circuits", imask, 1 << x, one)
        ask("circuits, one tail", "_circuits", imask, 1 << x, universe, pure=several(universe))
        if leaf.kind == "graphic" and leaf._anchor[0] == imask | contracted:
            ask("circuits, one candidate, anchor is I", "_circuits", imask, 1 << x, one, pure=True)
        # I + z holds the circuit of z, which meets the circuit of the tail
        # x in I (z is not spanned by I less that part): in a partition the
        # two share a block, which x makes read
        apart = C.Matroid._spanned(ref, imask & ~C.Matroid._circuits(ref, imask, 1 << x, imask), universe)
        meets = [z for z in spanned if z != x and not apart >> z & 1]
        if meets:
            z = rng.choice(meets)
            ask("circuits, dependent I", "_circuits", imask | 1 << z, draw() | 1 << x, universe)
    return shapes


def minor_chains(h: C.Matroid, rng: random.Random) -> list[C.Matroid]:
    """Contract(Restrict(h)), Restrict(Contract(h)) and Contract(Contract(h)) on seeded sets."""
    universe = h.universe_mask
    width = universe.bit_length()
    rmask = rng.getrandbits(width) & universe | rng.getrandbits(width) & universe
    c1 = rng.getrandbits(width) & rmask & rng.getrandbits(width)
    c2 = rng.getrandbits(width) & universe & ~c1 & rng.getrandbits(width)
    return [
        C.ContractMatroid(C.RestrictMatroid(h, rmask), c1),
        C.RestrictMatroid(C.ContractMatroid(h, c1), rmask & ~c1),
        C.ContractMatroid(C.ContractMatroid(h, c1), c2),
    ]


def test_structural_answers_match_the_query_versions_on_the_corpus(corpus):
    # every structural node of each pair's handles, of their duals, and of
    # the three minor chains over each, against the query versions
    rng = random.Random(47)
    shapes: Counter = Counter()
    kinds: Counter = Counter()
    for inst in corpus.pairs[::2]:
        roots = [inst.M, inst.N, inst.M.dual(), inst.N.dual()]
        for h in roots[:]:
            roots += minor_chains(h, rng)
        for node in tree_nodes(roots, STRUCTURAL_KINDS):
            shapes += check_structural(node, rng, rounds=3)
            kinds[node.kind] += 1
    assert min(kinds[k] for k in ("graphic", "partition", "contract", "restrict")) > 100, kinds
    assert len(shapes) == 11 and min(shapes.values()) > 300, shapes


def test_structural_answers_match_the_query_versions_through_minor_chains():
    # multigraphs with self-loops and parallel edges, and blocks with
    # cap 0 and elements outside every block, at n = 64-128, each under
    # the three chains of contraction and restriction
    rng = random.Random(53)
    shapes: Counter = Counter()
    for i in range(24):
        size = rng.randint(64, 128)
        if i % 2:
            leaf = partition_of(size, random_blocks(rng, size))
        else:
            n_vertices = rng.randint(size // 4, size)
            leaf = random_child(rng, 0, size) if i % 4 else C.GraphicMatroid(
                GroundSet(tuple(f"e{j}" for j in range(size))),
                tuple(f"v{j}" for j in range(n_vertices)),
                random_multigraph(rng, n_vertices, size),
            )
        for h in [leaf, *minor_chains(leaf, rng)]:
            shapes += check_structural(h, rng)
    assert len(shapes) == 11 and min(shapes.values()) > 50, shapes
    assert shapes["no query"] > 500, shapes


def test_structural_answers_on_loops_parallel_edges_and_free_elements():
    # a self-loop is its own circuit and spanned by the empty set; a
    # parallel pair is a circuit; an element outside every block is never
    # spanned; an element of a cap-0 block is always spanned
    g = C.graphic("uvw", [("u", "u", "a"), ("u", "v", "b"), ("v", "u", "c"), ("v", "w", "d")])
    bit = {label: 1 << g.ground.index(label) for label in "abcd"}
    assert g._spanned(bit["b"], g.universe_mask) == bit["a"] | bit["c"]
    # tails b and c of I = {b}, one in I, d not spanned; then a loop and an edge between trees
    assert g._circuits(bit["b"], bit["b"] | bit["c"] | bit["d"], g.universe_mask) == bit["b"] | bit["c"]
    assert g._circuits(bit["d"], bit["a"] | bit["b"], g.universe_mask) == bit["a"]
    # the anchor is now {d}, so one candidate asks no query; {b, c} is not a forest
    memo = len(g._memo_indep)
    assert g._circuits(bit["d"], bit["a"], bit["a"]) == bit["a"] and len(g._memo_indep) == memo
    ref = copy.deepcopy(g)
    cycle = bit["b"] | bit["c"]
    assert g._circuits(cycle, bit["a"] | bit["d"], g.universe_mask) == C.Matroid._circuits(
        ref, cycle, bit["a"] | bit["d"], g.universe_mask
    )
    p = partition_of(5, [([0, 1], 0), ([2, 3], 1)])
    assert p._spanned(1 << 2, 0b11111) == 0b01011
    assert p._circuits(0b00100, 0b10011, 0b11111) == 0b00011
    assert p._circuits(0b00100, 0b11000, 0b11111) == 0b01100
    # a block over its cap that holds a tail is read, and the query version answers
    q = partition_of(4, [([0, 1, 2], 1)])
    ref = copy.deepcopy(q)
    assert q._circuits(0b0011, 0b1100, 0b1111) == C.Matroid._circuits(ref, 0b0011, 0b1100, 0b1111)


def test_structural_answers_keep_every_result_and_never_cost_more(corpus, monkeypatch):
    # every run once as is and once with the graphic, partition, contract
    # and restrict handles answering span and circuit questions by
    # queries: equal results, and over the slice no more leaf calls plus
    # structural answers, each counted as one call
    counts = Counter()
    for cls in (C.GraphicMatroid, C.PartitionMatroid, C.UniformMatroid, C.ExplicitMatroid):
        def counted(self, mask, raw=cls._indep_raw):
            counts["leaf"] += 1
            return raw(self, mask)

        monkeypatch.setattr(cls, "_indep_raw", counted)
    query = {name: getattr(C.Matroid, name) for name in ("_spanned", "_circuits")}
    leaves = (C.GraphicMatroid, C.PartitionMatroid)
    for name, reference in query.items():
        # a leaf's own answer is structural unless it hands the question
        # to the query version
        def handed(self, *args, reference=reference):
            counts["structural"] -= isinstance(self, leaves)
            return reference(self, *args)

        monkeypatch.setattr(C.Matroid, name, handed)
        for cls in leaves:
            def own(self, *args, answer=vars(cls)[name]):
                counts["structural"] += 1
                return answer(self, *args)

            monkeypatch.setattr(cls, name, own)

    def measure(runs):
        before = counts["leaf"] + counts["structural"]
        out = [(name, run()) for name, run in runs]
        return out, counts["leaf"] + counts["structural"] - before

    runs = corpus_runs(corpus)
    structural, structural_calls = measure(runs)
    answered = counts["structural"]
    for cls in STRUCTURAL_KINDS:
        for name, reference in query.items():
            monkeypatch.setattr(cls, name, reference)
    queried, queried_calls = measure(runs)
    assert counts["structural"] == answered
    assert structural == queried
    # the slice takes the structural answers, and they save calls on it
    assert answered > 400 and structural_calls < queried_calls, (answered, structural_calls, queried_calls)


# ---------------------------------------------------------------------------
# closed-form duals


def test_closed_forms_of_partition_and_uniform():
    # a block B with cap c becomes cap |B| - c, no less than 0, and the
    # elements outside every block a cap-0 block; U(r, n)* = U(n - r, n)
    p = partition_of(7, [([0, 1], 0), ([2, 3, 4], 1), ([5], 3)])
    closed = p.dual()._closed
    assert closed.kind == "partition"
    assert closed.blocks == ((0b11, 2), (0b11100, 2), (0b100000, 0), (0b1000000, 0))
    assert C.uniform(G4, 1).dual()._closed.r == 3 and C.uniform(G4, 6).dual()._closed.r == 0
    # graphic and explicit duals replay; a dual built directly takes the
    # same closed form as dual()
    assert k4().dual()._closed is None and C.explicit("ab", [["a"]]).dual()._closed is None
    assert C.DualMatroid(p)._closed.blocks == closed.blocks


def test_every_dual_agrees_with_the_rank_formula_on_every_submask(corpus):
    # each dual() of the corpus handles and of the three minor chains over
    # each, and each dual node inside its closed form, against two full
    # ranks of its child
    rng = random.Random(59)
    closed: Counter = Counter()
    checked = 0
    for inst in corpus.pairs[::3]:
        roots = [inst.M, inst.N]
        for h in roots[:]:
            roots += minor_chains(h, rng)
        for d in tree_nodes([h.dual() for h in roots], C.DualMatroid):
            if d._closed is not None:
                closed[d.child.kind] += 1
            for mask in iter_submasks(d.universe_mask):
                assert d._indep(mask) == rank_formula(d.child, mask), (d.child.kind, mask)
            checked += 1
    kinds = ("partition", "uniform", "relabel", "sum", "restrict", "contract")
    assert min(closed[k] for k in kinds) > 10 and checked > 1000, (closed, checked)


def test_a_closed_form_dual_keeps_kind_child_and_json_form(corpus):
    written = 0
    for inst in corpus.pairs:
        for x in (inst.M, inst.N, inst.N.restrict(ElementSet(inst.N.ground, inst.N.universe_mask & 0x5555))):
            d = x.dual()
            if isinstance(x, C.DualMatroid):  # the dual of a dual is its child
                assert d is x.child
                continue
            assert d.kind == "dual" and d.child is x and d.dual() is x
            try:
                doc = C.matroid_to_json(x)
            except C.MatroidKitError:  # a relabeling that changes labels
                continue
            assert C.matroid_to_json(d) == {"kind": "dual", "of": doc}
            written += d._closed is not None
    assert written > 500, written


def test_the_empty_set_asks_no_oracle(corpus, monkeypatch):
    # every kind makes the empty set independent, so _indep answers it
    # itself, and a contraction asked nothing else never builds its base
    handles = []
    for inst in corpus.pairs[:60]:
        for x in (inst.M, inst.N):
            half = ElementSet(x.ground, x.universe_mask & 0x5555)
            handles += [x, x.dual(), x.contract(half), x.restrict(half), x.contract(half).dual()]
    for cls in (C.Matroid, *C.Matroid.__subclasses__()):
        if "_indep_raw" in vars(cls):
            monkeypatch.setattr(cls, "_indep_raw", lambda self, mask: pytest.fail(f"{self.kind} asked {mask}"))
    kinds = {h.kind for h in handles}
    for h in handles:
        assert h._indep(0)
        assert "_base_of_contracted" not in vars(h)
    assert kinds == {"uniform", "graphic", "partition", "explicit", "dual", "restrict", "contract", "sum", "relabel"}
