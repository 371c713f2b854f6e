"""Both intersection solvers, the exchange digraph and the mixed stack."""

from __future__ import annotations

import importlib.util
import math
import random
from pathlib import Path

import pytest

from matroidkit import core as C
from matroidkit.core import ElementSet, GroundSet, _mask, bit_indices
from matroidkit.classic import (
    _augmented,
    _check_chordless,
    _classic_run,
    _classic_step,
    _greedy,
    _same_span,
)
from matroidkit.intersect import (
    ExchangeDigraph,
    FeasibleState,
    IntersectionCertificate,
    SplitInput,
    Trace,
    _bfs_path,
    _first_path,
    augment,
    build_exchange_digraph,
    edmonds_solve,
    extend_to_nice,
    find_aug_path,
    mixed_solve,
    solve,
    verify_certificate,
)
from matroidkit.oracle import brute_minmax
from matroidkit.orient import DemandGraph, orient_solve
from matroidkit.packcov import MatroidFamily, packcov_solve
from matroidkit.waves import PairContext, largest_wave, nice_feasible

from conftest import (
    DictDigraph,
    arcs,
    brute_has_arc,
    brute_heads,
    capped_partition,
    connected_graphic,
    full_digraph_coreach,
    greedy_common_part,
    mixed_rounds,
    replay_arc_persistence,
    scan_circuit,
)

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


def five_element_split():
    """Hand-built instance whose only augmenting path crosses E1.

    Universe {s, x, t, d, e} with E0 = {s, x, t}, E1 = {d, e}; the state
    {x, d} admits exactly the arcs s->d, e->x, x->t, d->e and the path
    s, d, e, x, t.
    """
    ground = GroundSet(("s", "x", "t", "d", "e"))
    m = C.PartitionMatroid(
        ground,
        (
            (ground.subset("sd").mask, 1),
            (ground.subset("ex").mask, 1),
            (ground.subset("t").mask, 1),
        ),
    )
    n = C.concat_sum(
        [
            C.PartitionMatroid(
                GroundSet(("s", "x", "t")),
                ((0b001, 1), (0b110, 1)),
            ),
            C.uniform(GroundSet(("d", "e")), 1),
        ]
    )
    # concat_sum reorders labels: bring N onto the same ground as M
    n = C.relabel_onto(n, ground)
    ctx = PairContext(m, n, ground.subset("de"))
    state = FeasibleState(ctx, ground.subset("xd"))
    return ground, ctx, state


# ---------------------------------------------------------------------------
# classic solver


def test_edmonds_step_returns_certificate_at_maximum():
    m, n = C.uniform(G4, 2), C.PartitionMatroid(G4, ((0b0011, 1), (0b1100, 1)))
    step = _classic_step(m, n, G4.subset("ac").mask)
    assert isinstance(step, IntersectionCertificate)
    assert len(step.I) == brute_minmax(m, n) == 2
    assert verify_certificate(m, n, step)


def test_edmonds_step_singleton_path_on_free_pair():
    # every element is a source and a sink, so the first phase, the
    # greedy, takes them all as one-element paths; the next is the last
    trace = Trace()
    cert = _classic_run(C.free(G3), C.free(G3), trace)
    assert [(e["phase"], e["path"]) for e in trace.events] == [(1, (0,)), (1, (1,)), (1, (2,))]
    assert cert.I.mask == 0b111 and trace.phases == 2


def test_edmonds_step_asks_only_about_the_elements_it_reaches():
    # the greedy phase asks M once per element; with one sink that is a
    # source itself, N is asked only about that element, where two full
    # spans would ask about every element
    g = GroundSet(tuple(f"e{i}" for i in range(64)))
    m = C.PartitionMatroid(g, ((1, 1), (g.full_mask & ~1, 0)))
    m, n = CountingIndep(m), CountingIndep(C.free(g))
    assert _greedy(m, n, 0) == [0]
    assert n.asked == {1} and n.calls <= 4 and m.calls <= 64 + 3
    # on a free pair every element is its own path, each checked in a
    # bounded number of queries, where a full digraph has 64 * 64 arcs to ask
    m, n = CountingIndep(C.free(g)), CountingIndep(C.free(g))
    assert _greedy(m, n, 0) == list(range(64))
    assert m.calls <= 4 * 64 and n.calls <= 4 * 64


def test_edmonds_step_three_element_path():
    m = C.PartitionMatroid(G3, ((0b011, 1), (0b100, 1)))
    n = C.PartitionMatroid(G3, ((0b001, 1), (0b110, 1)))
    step = _classic_step(m, n, G3.subset("b").mask)
    assert [[G3.label(i) for i in path] for path in step] == [["a", "b", "c"]]


def test_edmonds_step_k4_against_partition_three_path():
    # with I = {e0, e1} the only source e3 sits in M's span, so the
    # search must swap through I: e3 -> e0 -> e2
    m = k4()
    g = m.ground
    n = C.PartitionMatroid(
        g, ((g.subset(["e3"]).mask, 1), (g.subset(["e0", "e1", "e2", "e4", "e5"]).mask, 2))
    )
    step = _classic_step(m, n, g.subset(["e0", "e1"]).mask)
    assert [[g.label(i) for i in path] for path in step] == [["e3", "e0", "e2"]]
    swapped = g.subset(["e0", "e1"]) ^ ElementSet(g, _mask(step[0]))
    assert m._indep(swapped.mask) and n._indep(swapped.mask)


def test_edmonds_solve_examples():
    n_free = C.free(G4)
    m = C.uniform(G4, 2)
    cert = edmonds_solve(PairContext(m, n_free))
    assert len(cert.I) == 2
    cert = edmonds_solve(PairContext(k4(), k4()))
    assert len(cert.I) == 3
    cert = edmonds_solve(
        PairContext(C.uniform(G4, 2), C.PartitionMatroid(G4, ((0b0011, 1), (0b1100, 1))))
    )
    assert len(cert.I) == 2


@pytest.mark.parametrize(
    "broken",
    [
        "N universe", "N labels", "sides overlap", "sides miss an element", "I outside universe",
        "I M-dependent", "I N-dependent", "M side unspanned", "N side unspanned",
    ],
)
def test_verify_certificate_rejects_each_broken_clause(broken):
    # a valid certificate with both sides nonempty: I = {a, e}, E_M = {a,
    # b, d, e} and E_N = {c}; each case breaks one clause and keeps every
    # other one
    m = C.partition([("ab", 1), ("c", 1), ("d", 0), ("e", 1)])
    n = C.relabel_onto(C.partition([("ab", 2), ("c", 0), ("d", 1), ("e", 1)]), m.ground)
    g = m.ground
    cert = IntersectionCertificate(g.subset("ae"), g.subset("abde"), g.subset("c"))
    assert verify_certificate(m, n, cert)
    if broken == "N universe":
        n = n.restrict(g.subset("abcd"))
    elif broken == "N labels":
        n = C.relabel_onto(n, GroundSet(tuple("bacde")))  # a and b play one role in N
    elif broken == "sides overlap":
        cert = IntersectionCertificate(cert.I, cert.E_M, g.subset("ac"))
    elif broken == "sides miss an element":
        cert = IntersectionCertificate(cert.I, g.subset("abe"), cert.E_N)
    elif broken == "I outside universe":
        m, n = m.restrict(g.subset("abcd")), n.restrict(g.subset("abcd"))
        assert verify_certificate(m, n, IntersectionCertificate(g.subset("a"), g.subset("abd"), cert.E_N))
        cert = IntersectionCertificate(cert.I, g.subset("abd"), cert.E_N)
    elif broken == "I M-dependent":
        cert = IntersectionCertificate(g.subset("abe"), cert.E_M, cert.E_N)
    elif broken == "I N-dependent":
        cert = IntersectionCertificate(g.subset("ace"), cert.E_M, cert.E_N)
    elif broken == "M side unspanned":
        cert = IntersectionCertificate(cert.I, g.full(), g.empty())
    else:
        cert = IntersectionCertificate(cert.I, g.subset("abe"), g.subset("cd"))
    assert not verify_certificate(m, n, cert)


# ---------------------------------------------------------------------------
# the exchange digraph


def test_digraph_empty_state_has_no_arcs():
    ground = G4
    m = C.uniform(ground, 2)
    n = C.uniform(ground, 0)  # all N-loops; their circuits are singletons
    state = FeasibleState(PairContext(m, n), ground.empty())
    assert arcs(build_exchange_digraph(state)) == ()


def assert_arcs_match_rules(state, rng):
    """Arcs tail by tail, and the layer-wide forward form on random layers,
    against the pair-by-pair rule test.  Where E1 is empty, the only
    digraphs that the classic phase searches backward, the tails into a
    layer are the heads from it in the swapped pair's digraph."""
    universe = state.ctx.universe_mask
    elements = list(bit_indices(universe))
    expected = {(x, y) for x in elements for y in elements if brute_has_arc(state, x, y)}
    dg = build_exchange_digraph(state)
    assert set(arcs(dg)) == expected
    for _ in range(6):
        layer = rng.getrandbits(universe.bit_length()) & universe
        among = rng.getrandbits(universe.bit_length()) & universe
        heads = _mask({y for x, y in expected if layer >> x & 1 and among >> y & 1})
        tails = _mask({x for x, y in expected if among >> x & 1 and layer >> y & 1})
        assert dg.heads(layer, among) == heads
        if not state.ctx.E1.mask:
            swapped = ExchangeDigraph(state.ctx.N, state.ctx.M, state.I.mask, 0, 0)
            assert swapped.heads(layer, among) == tails


def test_digraph_arcs_match_rule_by_rule_test(corpus):
    rng = random.Random(11)
    _ground, _ctx, state = five_element_split()
    assert_arcs_match_rules(state, rng)
    count = 0
    for inst in corpus.pairs:
        m, n = inst.M, inst.N
        imask = m._max_indep(n._max_indep(m.universe_mask))
        if not (m._indep(imask) and n._indep(imask)):
            continue
        assert_arcs_match_rules(FeasibleState(PairContext(m, n), ElementSet(m.ground, imask)), rng)
        count += 1
        if count == 25:
            break
    assert count == 25
    # states holding E1 elements, where the N*-rule has tails; only heads asked
    with_e1 = [state for state in mixed_states(corpus, 20) if state.I.mask & state.ctx.E1.mask]
    assert len(with_e1) > 20
    for state in with_e1:
        assert_arcs_match_rules(state, rng)


def test_digraph_hand_built_split_instance():
    ground, ctx, state = five_element_split()
    dg = build_exchange_digraph(state)
    name = ground.index
    expected = {
        (name("s"), name("d")): "outside I",
        (name("e"), name("x")): "outside I",
        (name("x"), name("t")): "I & E0",
        (name("d"), name("e")): "I & E1",
    }
    assert set(arcs(dg)) == set(expected)
    # the tail fixes the rule: M outside I, N in I & E0, N* in I & E1
    imask, e1 = state.I.mask, ctx.E1.mask
    for (x, _y), tail_class in expected.items():
        bx = 1 << x
        got = "outside I" if not bx & imask else "I & E1" if bx & e1 else "I & E0"
        assert got == tail_class, ground.label(x)


def test_find_path_crosses_e1_on_hand_built_instance():
    ground, ctx, state = five_element_split()
    path = find_aug_path(state)
    assert path is not None
    assert [ground.label(i) for i in path] == ["s", "d", "e", "x", "t"]


def test_mixed_solve_takes_an_n_star_arc_on_its_own_search():
    # a graphic M on 12 vertices against a partition N with E1 five of
    # its elements; mixed_solve's own search augments along e2, e9, e0,
    # e1, e4, whose arc e9 -> e0 leaves an element of I in E1, so only
    # the N*-rule makes it
    m = C.graphic(
        [f"v{i}" for i in range(12)],
        [
            ("v10", "v4"), ("v4", "v10"), ("v8", "v1"), ("v2", "v8"), ("v10", "v5"),
            ("v2", "v1"), ("v6", "v8"), ("v0", "v11"), ("v9", "v8"), ("v6", "v5"),
            ("v9", "v11"), ("v1", "v5"), ("v11", "v7"), ("v9", "v3"), ("v9", "v11"),
        ],
    )
    g = m.ground
    blocks = (("e6 e8 e11", 3), ("e1 e4", 1), ("e10", 0), ("e2 e5 e7 e14", 1),
              ("e0 e9", 1), ("e3 e12 e13", 2))
    n = C.PartitionMatroid(g, tuple((g.subset(b.split()).mask, cap) for b, cap in blocks))
    e1 = g.subset(["e0", "e6", "e8", "e9", "e11"])
    trace = Trace()
    cert = mixed_solve(m, SplitInput(n, m.elements() - e1, e1), trace)
    path = tuple(g.index(x) for x in ("e2", "e9", "e0", "e1", "e4"))
    [event] = [ev for ev in trace.events if ev["kind"] == "augment" and ev["path"] == path]
    assert (event["before"] & e1.mask) >> path[1] & 1  # the tail e9 lies in I & E1
    classic = edmonds_solve(PairContext(m, n))
    assert len(cert.I) == len(classic.I) == 8
    assert cert.E_M == classic.E_M == g.subset(["e6", "e8", "e11"])


def test_augment_rule3_hop_updates_dual_base():
    ground, ctx, state = five_element_split()
    path = find_aug_path(state)
    out = augment(state, path)
    assert out.I == ground.subset("set")
    nd = ctx.N.dual()
    # the dual base swapped d in for e while keeping its span
    assert out.safe_base == ground.subset("d")
    assert nd._span(ground.subset("d").mask) == nd._span(ground.subset("e").mask)


def test_find_aug_path_none_without_sources():
    # every element is an N-loop, so no E0 element is N-unspanned
    m = C.free(G3)
    n = C.zero(G3)
    state = FeasibleState(PairContext(m, n), G3.empty())
    assert find_aug_path(state) is None


def test_singleton_path_when_unspanned_both_sides():
    m = C.free(G3)
    n = C.free(G3)
    state = FeasibleState(PairContext(m, n), G3.empty())
    path = find_aug_path(state)
    assert path == (0,)


def test_augment_rejects_invalid_path():
    ground, ctx, state = five_element_split()
    with pytest.raises(C.PreconditionViolated):
        augment(state, (ground.index("s"),))


@pytest.mark.parametrize(
    "path, message",
    [
        ("sd", "odd sequence of distinct elements"),
        ("sds", "odd sequence of distinct elements"),
        ("t", "must start at an E0 element unspanned in N"),
        ("sxt", "missing arc at position 0"),
    ],
)
def test_augment_names_each_broken_precondition(path, message):
    # source s, sink t and arcs s->d, d->e, e->x, x->t
    ground, _ctx, state = five_element_split()
    with pytest.raises(C.PreconditionViolated, match=message):
        augment(state, tuple(ground.index(x) for x in path))


@pytest.mark.parametrize("entry", [-1, 3, "a", 0.0, True, None])
def test_augment_names_a_path_entry_that_is_no_element(entry):
    state = FeasibleState(PairContext(C.free(G3), C.free(G3)), G3.empty())
    with pytest.raises(C.PreconditionViolated) as exc:
        augment(state, (entry,))
    assert str(exc.value) == f"path entry {entry!r} names no element"


def test_augment_rejects_path_with_jumping_arc():
    # I = {b, d}: a, b, c, d, e is a path, but the M-circuit of a also
    # holds d, so the arc a -> d skips ahead along it
    g = GroundSet(tuple("abcde"))
    m = C.PartitionMatroid(g, ((g.subset("abcd").mask, 2), (g.subset("e").mask, 1)))
    n = C.PartitionMatroid(
        g, ((g.subset("a").mask, 1), (g.subset("bc").mask, 1), (g.subset("de").mask, 1))
    )
    state = FeasibleState(PairContext(m, n), g.subset("bd"))
    assert find_aug_path(state) == tuple(g.index(x) for x in "ade")
    with pytest.raises(C.PreconditionViolated, match="jumping arc"):
        augment(state, tuple(g.index(x) for x in "abcde"))


def _augment_past_validation(monkeypatch, m, n, e1, i, path):
    """Augment with path validation off, so the checks behind it see a bad path."""
    import matroidkit.intersect as intersect

    monkeypatch.setattr(intersect, "_validate_path", lambda state, path: None)
    g = m.ground
    state = FeasibleState(PairContext(m, n, g.subset(e1)), g.subset(i))
    return augment(state, tuple(g.index(x) for x in path))


def test_augment_check_fires_on_dependent_result(monkeypatch):
    # I = {a} already N-spans b, so the one-element path b breaks N-independence
    with pytest.raises(C.PostconditionFailed, match="augmented set is not common independent"):
        _augment_past_validation(monkeypatch, C.free(G3), C.uniform(G3, 1), "", "a", "b")


def test_augment_check_fires_on_moved_m_span(monkeypatch):
    # free M has no arc a -> b: the new set {a, c} M-spans a, which I + c = {b, c} does not
    with pytest.raises(C.PostconditionFailed, match="M-span was not preserved"):
        _augment_past_validation(monkeypatch, C.free(G3), C.free(G3), "", "b", "abc")


def test_augment_check_fires_on_path_ending_at_an_m_spanned_element(monkeypatch):
    # a and b are parallel in M, so I + last = {a, b} is dependent and spans
    # only what I = {a} does; the new set {b, c} also spans c
    m = C.PartitionMatroid(G3, ((0b011, 1), (0b100, 1)))
    with pytest.raises(C.PostconditionFailed, match="M-span was not preserved"):
        _augment_past_validation(monkeypatch, m, C.free(G3), "", "a", "cab")


def test_augment_check_fires_on_moved_n_span(monkeypatch):
    # a and b are parallel in M, so the M-span holds; free N has no arc b -> c,
    # and the new set {a, c} no longer N-spans b, which I + a = {a, b} does
    m = C.PartitionMatroid(G3, ((0b011, 1), (0b100, 1)))
    with pytest.raises(C.PostconditionFailed, match="N-span on E0 was not preserved"):
        _augment_past_validation(monkeypatch, m, C.free(G3), "", "b", "abc")


def test_augment_check_fires_on_dependent_dual_base(monkeypatch):
    # the path starts in E1 at a, a loop of the dual of free N, so the
    # updated dual base {a} is dependent
    g = GroundSet(tuple("ab"))
    with pytest.raises(C.PostconditionFailed, match="updated dual base is dependent"):
        _augment_past_validation(monkeypatch, C.uniform(g, 1), C.free(g), "a", "", "a")


def test_augment_check_fires_on_moved_dual_span(monkeypatch):
    # the path starts in E1 at a, so the dual base grows from empty to {a}
    # and its span in the dual of U(1, 2) grows from empty to {a, b}
    g = GroundSet(tuple("ab"))
    m = n = C.uniform(g, 1)
    with pytest.raises(C.PostconditionFailed, match="dual span was not preserved"):
        _augment_past_validation(monkeypatch, m, n, "a", "", "a")


def test_classic_chord_check_rejects_path_with_jumping_arc():
    dg = DictDigraph({0: 0b1010, 1: 0b0100, 2: 0b1000}, G4.full_mask)
    _check_chordless(dg, [0, 1, 2], C.PostconditionFailed)
    with pytest.raises(C.PostconditionFailed, match="jumping arc 0->3"):
        _check_chordless(dg, [0, 1, 2, 3], C.PostconditionFailed)
    # chords at positions 1->4, 1->5 and 2->5; position 4 holds element 3 and
    # position 5 element 2, so the least element jumped to is not the least l
    path = [0, 5, 1, 4, 3, 2]
    dg = DictDigraph({0: 1 << 5, 5: 1 << 1 | 1 << 3 | 1 << 2, 1: 1 << 4 | 1 << 2,
                      4: 1 << 3, 3: 1 << 2}, (1 << 6) - 1)
    with pytest.raises(C.PostconditionFailed, match=r"jumping arc 1->4$"):
        _check_chordless(dg, path, C.PostconditionFailed)


def _least_shortest_path(out, size, source, sinks):
    """By layers from ``source``: at each length, the least path to each
    element first reached at that length; at the first length that
    reaches a sink, the least such sink and its path.  A prefix of a least
    shortest path is the least shortest path to its own end, so no other
    path needs keeping."""
    seen = {source}
    layer = {source: (source,)}
    while layer:
        ends = [y for y in layer if sinks >> y & 1]
        if ends:
            return list(layer[min(ends)])
        grown = {}
        for path in sorted(layer.values()):
            for y in range(size):
                if out.get(path[-1], 0) >> y & 1 and y not in seen:
                    grown.setdefault(y, path + (y,))
        seen |= grown.keys()
        layer = grown
    return None


class _DeadEndDigraph(DictDigraph):
    """Counts the ``heads`` questions that find nothing; once a path is
    known to exist, each one is a dead end of the walk."""

    empty = 0

    def heads(self, layer: int, among: int) -> int:
        out = super().heads(layer, among)
        self.empty += not out
        return out


def test_bfs_path_is_least_shortest_path_to_least_nearest_sink():
    rng = random.Random(7)
    found = missing = longest = dead_ends = 0
    for _ in range(400):
        size = rng.randint(1, 12)
        density = rng.choice((0.25, 0.4))
        out = {}
        for x in range(size):
            heads = sum(1 << y for y in range(size) if y != x and rng.random() < density)
            if heads or rng.random() < 0.5:
                out[x] = heads
        source = rng.randrange(size)
        sinks = rng.getrandbits(size) & rng.getrandbits(size)
        if rng.random() < 0.75:
            # no sink within one arc, so a path found has a middle layer to choose in
            sinks &= ~(1 << source | out.get(source, 0))
        dg = _DeadEndDigraph(out, (1 << size) - 1, sinks=sinks)
        expected = _least_shortest_path(out, size, source, sinks)
        assert _bfs_path(dg, source) == expected, (out, source, sinks)
        if expected is None:
            missing += 1
        else:
            found += 1
            longest = max(longest, len(expected))
            dead_ends += dg.empty > 0
    assert found > 100 and missing > 50 and longest >= 4 and dead_ends >= 50


def graphic_pair(rng, size, n_vertices):
    """Two graphic matroids on the same labels, each edge between random ends."""
    labels = [f"e{i}" for i in range(size)]
    vs = [f"v{i}" for i in range(n_vertices)]
    out = []
    for _ in range(2):
        ends = [rng.sample(vs, 2) for _ in labels]
        out.append(C.graphic(vs, [(u, v, e) for (u, v), e in zip(ends, labels)]))
    return out


def classic_states_of(m, n):
    """(M, N, I) for every greedy-filled set of the classic solver on (M, N):
    the start of each phase after the greedy, and the final I.  Only the
    greedy's paths have one element, so each later phase starts at the
    set before its first longer path."""
    trace = Trace()
    cert = _classic_run(m, n, trace)
    starts = {}
    for event in trace.events:
        if len(event["path"]) > 1:
            starts.setdefault(event["phase"], event["before"])
    return [(m, n, imask) for imask in [*starts.values(), cert.I.mask]]


def classic_states(corpus, limit):
    """(M, N, I) for every greedy-filled set of the classic solver on corpus pairs."""
    out = []
    for inst in corpus.pairs[:limit]:
        out += classic_states_of(inst.M, inst.N)
    return out


def graphic_states(seeds, size, n_vertices):
    """(M, N, I) for every greedy-filled set of the classic solver on graphic
    pairs, one pair per seed.  Nearly every corpus state is a final I, and
    these give the phases that take paths."""
    out = []
    for seed in seeds:
        out += classic_states_of(*graphic_pair(random.Random(seed), size, n_vertices))
    return out


def _random_common_independent(rng, m, n):
    """A random common independent set, each element kept with chance 0.7."""
    imask = 0
    for e in rng.sample(list(bit_indices(m.universe_mask)), m.size):
        grown = imask | 1 << e
        if m._indep(grown) and n._indep(grown) and rng.random() < 0.7:
            imask = grown
    return imask


def mixed_states(corpus, limit):
    """Feasible states on corpus splits with E1 nonempty: those the mixed loop
    passes through, and random dually safe common independent sets, which
    hold E1 elements far more often."""
    rng = random.Random(5)
    out = []
    for inst in corpus.pairs[:limit]:
        m, n = inst.M, inst.N
        for e0, e1 in inst.splits:
            if not e1:
                continue
            rounds = mixed_rounds(m, SplitInput(n, e0, e1))
            out += [before for before, *_ in rounds] + [extended for *_, extended in rounds[-1:]]
            ctx = PairContext(m, n, e1)
            for _ in range(4):
                imask = _random_common_independent(rng, m, n)
                try:
                    out.append(FeasibleState(ctx, ElementSet(m.ground, imask)))
                except C.StateInvariantBroken:
                    pass
    return out


def test_lazy_digraph_searches_match_the_full_digraph(corpus):
    # the layered search against a least shortest path over every arc,
    # each arc from the pair-by-pair rule test: the least source that
    # reaches a sink, then the least shortest path to its least nearest sink
    searches = []
    graphic = graphic_states(range(120), 16, 8) + graphic_states(range(6), 48, 24)
    for m, n, imask in classic_states(corpus, 40) + graphic:
        searches.append((m, n, imask, 0))
    mixed = mixed_states(corpus, 40)
    assert sum(1 for state in mixed if state.I.mask & state.ctx.E1.mask) > 50
    for state in mixed:
        ctx = state.ctx
        searches.append((ctx.M, ctx.N, state.I.mask, ctx.E1.mask))
    asked = full_asked = found = 0
    for m, n, imask, e1 in searches:
        universe = m.universe_mask
        e0 = universe & ~e1
        safe = e1 & m._span(imask) & ~imask
        out = brute_heads(m, n, imask, e1, safe)
        sinks = e0 & ~m._span(imask)
        expected = None
        for s in bit_indices(e0 & ~n._span(imask)):
            expected = _least_shortest_path(out, universe.bit_length(), s, sinks)
            if expected is not None:
                break
        step_m, step_n = Recording(m), Recording(n)
        assert _first_path(ExchangeDigraph(step_m, step_n, imask, e1, safe)) == expected
        found += expected is not None
        # the same digraph with every tail's heads asked, as a full build would
        full_m, full_n = Recording(m), Recording(n)
        arcs(ExchangeDigraph(full_m, full_n, imask, e1, safe))
        asked += len(step_m.asked) + len(step_n.asked)
        full_asked += len(full_m.asked) + len(full_n.asked)
    # halving and whole-layer queries ask masks a full build does not, so
    # the distinct masks are counted over all searches
    assert len(searches) > 150 and found > 50 and 2 * asked < full_asked

    # the classic certificate's E_M is the universe minus the full digraph's
    # co-reach of the sinks; deleting the sources leaves a state with no
    # path, so every state, small or at n = 48, gets a certificate step;
    # graphic pairs give co-reaches that go past the first I-layer
    states = classic_states(corpus, 150)
    for n_vertices in (16, 24):
        states += graphic_states(range(10), 48, n_vertices)
    deep = 0
    for m, n, imask in states:
        sources = ElementSet(m.ground, m.universe_mask & ~n._span(imask))
        pairs = [(m, n)]
        if sources:
            pairs.append((m.delete(sources), n.delete(sources)))
        for pm, pn in pairs:
            step = _classic_step(pm, pn, imask)
            if not isinstance(step, IntersectionCertificate):
                continue
            coreach = full_digraph_coreach(pm, pn, imask)
            assert step.E_M.mask == pm.universe_mask & ~coreach, imask
            deep += bool(coreach & ~imask & pm._span(imask))
    assert len(states) > 140 and deep > 15


class Recording(C.Matroid):
    """A fresh handle on another matroid's oracle that records each raw query."""

    kind = "recording"

    def __init__(self, inner: C.Matroid) -> None:
        super().__init__(inner.ground, inner.universe_mask)
        self.inner = inner
        self.asked: set[int] = set()

    def _indep_raw(self, mask: int) -> bool:
        self.asked.add(mask)
        return self.inner._indep(mask)


def full_build_queries(m, n, imask):
    """Distinct masks a full build of the classic digraph at I asks: the
    spans, and the fundamental circuit of I in M and in N, by a scan, of
    every element they span outside I."""
    full_m, full_n = Recording(m), Recording(n)
    for full in (full_m, full_n):
        full._span(imask)
        for x in bit_indices(m.universe_mask & ~imask):
            if not full._indep(imask | 1 << x):
                scan_circuit(full, x, imask)
    return len(full_m.asked) + len(full_n.asked)


def test_classic_step_asks_no_query_a_full_build_would_not(corpus):
    # a phase reads the digraph at its start and after each of its paths;
    # it asks fewer distinct masks than full builds of all those digraphs
    states = classic_states(corpus, 200) + graphic_states(range(10), 48, 24)
    paths = 0
    for m, n, imask in states:
        step_m, step_n = Recording(m), Recording(n)
        step = _classic_step(step_m, step_n, imask)
        assert step == _classic_step(m, n, imask)
        full_asked = full_build_queries(m, n, imask)
        if isinstance(step, IntersectionCertificate):
            coreach = full_digraph_coreach(m, n, imask)
            assert step.E_M.mask == m.universe_mask & ~coreach
        else:
            for path in step:
                imask ^= _mask(path)
                full_asked += full_build_queries(m, n, imask)
            paths += len(step)
        # halving asks masks I - S + z that a full build never asks, so
        # the distinct masks are counted, not compared as sets
        assert len(step_m.asked) + len(step_n.asked) < full_asked
    assert len(states) > 150 and paths > 10


def classic_large_pairs():
    """A graphic M at n = 64, 96 and 128 against a partition and a graphic N,
    the sizes of the classic-large bench."""
    for size in (64, 96, 128):
        rng = random.Random(size)
        m = connected_graphic(rng, size)
        yield from ((m, capped_partition(rng, m.ground)), (m, connected_graphic(rng, size)))


def sinks_hold_no_source(m, n, imask):
    """Whether no sink of the classic digraph at I is also a source."""
    dg = ExchangeDigraph(m, n, imask, 0, 0)
    return next(dg.sources(dg.sinks(m.universe_mask)), None) is None


def test_the_greedy_is_the_length_0_phase(corpus, monkeypatch):
    # the greedy adds every element that is both a source and a sink, and
    # spans only grow, so no sink is a source after it, nor at the start
    # of any later phase: no later phase need scan layer 0 for sources.
    # A run applies the greedy's additions, and only those, as one-element
    # paths; the greedy asks each mask once, at most two per element
    # outside the start
    import matroidkit.classic as classic

    real_step = classic._classic_step
    phase_starts = []

    def recorded_step(m, n, imask, carried=()):
        phase_starts.append(imask)
        return real_step(m, n, imask, carried)

    monkeypatch.setattr(classic, "_classic_step", recorded_step)
    pairs = [(inst.M, inst.N) for inst in corpus.pairs] + list(classic_large_pairs())
    rng = random.Random(7)
    grew = stayed = later = 0
    for m, n in pairs:
        starts = [0] + [_random_common_independent(rng, m, n) for _ in range(2)]
        for start in starts:
            gm, gn = CountingIndep(m), CountingIndep(n)
            added = _greedy(gm, gn, start)
            filled = start | _mask(added)
            grew += bool(added)
            stayed += not added
            assert gm.calls == len(gm.asked) and gn.calls == len(gn.asked)
            assert gm.calls + gn.calls <= 2 * (m.universe_mask & ~start).bit_count()
            phase_starts.clear()
            trace = Trace()
            _classic_run(m, n, trace, start)
            singles = [e["path"] for e in trace.events if len(e["path"]) == 1]
            assert singles == [(x,) for x in added], start
            assert phase_starts[0] == filled, start
            for imask in phase_starts:
                assert sinks_hold_no_source(m, n, imask), (start, imask)
            later += len(phase_starts) - 1
    assert grew > 500 and stayed > 500 and later > 25, (grew, stayed, later)


def random_independent(rng, m, among):
    """An independent subset of ``among``, greedy in a random order."""
    out = 0
    for e in rng.sample(list(bit_indices(among)), among.bit_count()):
        if m._indep(out | 1 << e):
            out |= 1 << e
    return out


def span_pairs(rng, m, count):
    """Pairs of independent sets of ``m``: two bases of one random set, so
    that the spans agree, or of two sets one element apart, so that they
    often do not."""
    universe = m.universe_mask
    for _ in range(count):
        among = rng.getrandbits(universe.bit_length()) & universe
        other = among
        if rng.random() < 0.5:
            other ^= 1 << rng.choice(list(bit_indices(universe)))
        yield random_independent(rng, m, among), random_independent(rng, m, other)


def test_same_span_matches_full_span_equality():
    rng = random.Random(23)
    kinds = {}
    for _ in range(12):
        g = graphic_pair(rng, rng.randint(6, 20), rng.randint(3, 10))[0]
        size = rng.randint(6, 20)
        ground = GroundSet(tuple(f"e{i}" for i in range(size)))
        order = rng.sample(range(size), size)
        cut = sorted(rng.sample(range(1, size), 2))
        blocks = tuple(
            (_mask(order[lo:hi]), rng.randint(0, hi - lo))
            for lo, hi in zip([0] + cut, cut + [size])
        )
        p = C.PartitionMatroid(ground, blocks)
        for m in (g, p, g.dual(), p.dual()):
            for a, b in span_pairs(rng, m, 25):
                same = m._span(a) == m._span(b)
                assert _same_span(m, a, b, m.universe_mask) == same
                kinds.setdefault(m.kind, set()).add(same)
    assert kinds == {k: {True, False} for k in ("graphic", "partition", "dual")}


def test_same_span_on_a_part_matches_full_spans_over_a_direct_sum():
    # E0 is a union of components of N, so N is the direct sum of its
    # restrictions to E0 and to the rest, and the test over E0 is exact
    rng = random.Random(29)
    outcomes = set()
    for _ in range(12):
        g = graphic_pair(rng, rng.randint(4, 12), rng.randint(3, 6))[0]
        p = C.partition([([f"p{k}{i}" for i in range(k)], rng.randint(0, k)) for k in (2, 3, 4)])
        n = C.concat_sum([g, p])
        e0 = 0
        for comp in n.components():
            if rng.random() < 0.5:
                e0 |= comp.mask
        for a, b in span_pairs(rng, n, 40):
            same = n._span(a) & e0 == n._span(b) & e0
            assert _same_span(n, a, b, e0) == same
            outcomes.add(same)
    assert outcomes == {True, False}


class CountingIndep(Recording):
    """A fresh handle that also counts every ``_indep`` call, memo hits too."""

    def __init__(self, inner: C.Matroid) -> None:
        super().__init__(inner)
        self.calls = 0

    def _indep(self, mask: int) -> bool:
        self.calls += 1
        return super()._indep(mask)


def test_augmentation_check_asks_a_path_sized_number_of_queries(corpus):
    # four full spans would ask about 2n queries per matroid; the check
    # asks one per element of the path, and three more at most
    cases = []
    # after the greedy a corpus phase rarely takes a path, so the classic
    # paths come from graphic pairs
    states = classic_states(corpus, 60) + graphic_states(range(150), 48, 24)
    for m, n, imask in states:
        step = _classic_step(m, n, imask)
        if not isinstance(step, IntersectionCertificate):
            for path in step:
                cases.append((m, n, imask, path, m.universe_mask))
                imask ^= _mask(path)
    for state in mixed_states(corpus, 40):
        path = find_aug_path(state)
        if path is not None:
            ctx = state.ctx
            cases.append((ctx.M, ctx.N, state.I.mask, path, ctx.E0.mask))
    assert len(cases) > 200
    longer = 0
    for m, n, imask, path, e0 in cases:
        count_m, count_n = CountingIndep(m), CountingIndep(n)
        assert _augmented(count_m, count_n, imask, path, e0) == imask ^ _mask(path)
        assert count_m.calls <= len(path) + 3 and count_n.calls <= len(path) + 3
        longer += len(path) > 1
    assert longer > 15


def test_unknown_solver_raises_one_error_type():
    with pytest.raises(C.PreconditionViolated, match="unknown solver 'greedy'"):
        solve(C.free(G3), C.free(G3), solver="greedy")
    with pytest.raises(C.PreconditionViolated, match="unknown solver"):
        packcov_solve(MatroidFamily(G3, (C.free(G3),)), solver="greedy")
    g = DemandGraph.build(["a", "b"], [["a", "b"]], {"a": 1})
    with pytest.raises(C.PreconditionViolated, match="unknown solver"):
        orient_solve(g, solver="greedy")


def test_mixed_path_search_matches_classic_augmentations(corpus):
    # with an empty E1, at every state a classic phase passes through, the
    # mixed search finds a path exactly when the phase does.  The phase's
    # paths are as long as the shortest path of the mixed digraph from
    # any source; the mixed search stops at the least source that reaches
    # a sink, so its path is never shorter, and most often just as long
    states = paths = same = 0
    for inst in corpus.pairs[:120]:
        m, n = inst.M, inst.N
        ctx = PairContext(m, n)
        trace = Trace()
        cert = _classic_run(m, n, trace)
        assert find_aug_path(FeasibleState(ctx, cert.I)) is None
        states += 1
        for event in trace.events:
            state = FeasibleState(ctx, ElementSet(m.ground, event["before"]))
            path = find_aug_path(state)
            assert path is not None, inst.name
            shortest = min(
                len(found)
                for s in state.digraph.sources(ctx.E0.mask)
                if (found := _bfs_path(state.digraph, s)) is not None
            )
            assert len(event["path"]) == shortest <= len(path), inst.name
            same += len(path) == shortest
            paths += 1
    assert states > 100 and paths > 200 and same > 0.9 * paths


# ---------------------------------------------------------------------------
# extend_to_nice and the mixed loop


def test_extend_to_nice_keeps_already_extended_state():
    ground, ctx, state = five_element_split()
    path = find_aug_path(state)
    augmented = augment(state, path)
    extended = extend_to_nice(augmented)
    again = extend_to_nice(extended)
    assert again.I == extended.I


def test_extend_to_nice_reaches_nice_state(corpus):
    checked = 0
    for inst in corpus.pairs:
        if inst.M.size > 6:
            continue
        split = SplitInput(inst.N, inst.N.elements(), inst.N.ground.empty())
        for _before, _path, _augmented, extended in mixed_rounds(inst.M, split):
            assert nice_feasible(extended.ctx, extended.I), inst.name
            checked += 1
        if checked >= 10:
            break
    assert checked > 0


def test_extension_postcondition_fires_on_a_short_common_base(monkeypatch):
    # N: a, b free and c, d parallel, so the largest wave is {a, b} and the
    # extension's run leaves J - W = {c} as the postcondition's start.
    # Dropping one element of B leaves it outside the loops of M in the
    # quotient and inside its largest wave, so the warm-started
    # postcondition must still refuse the state.
    import matroidkit.intersect as intersect

    n = C.PartitionMatroid(G4, ((G4.subset("ab").mask, 2), (G4.subset("cd").mask, 1)))
    state = FeasibleState(PairContext(C.free(G4), n), G4.empty())
    extended = extend_to_nice(state)
    assert extended.I == G4.subset("ab") and extended.warm == G4.subset("c")
    real = intersect.common_base_B

    def short_base(pair, x):
        base = real(pair, x)
        return ElementSet(base.ground, base.mask & base.mask - 1)  # drop the least

    monkeypatch.setattr(intersect, "common_base_B", short_base)
    with pytest.raises(C.PostconditionFailed, match="did not reach a nice state"):
        extend_to_nice(state)


def first_asked_yeses(m, n, mask):
    """How often the greedy's first-asked matroid says yes over ``mask``
    from the empty set: M is asked first, and the two swap each time the
    second says no."""
    first, second, kept, yeses = m, n, 0, 0
    for x in bit_indices(mask):
        if first._indep(kept | 1 << x):
            yeses += 1
            if second._indep(kept | 1 << x):
                kept |= 1 << x
            else:
                first, second = second, first
    return yeses


def quotient_samples(corpus, rng):
    """(pair, s): four quotients of each of the first 200 corpus pairs by
    random common independent sets, and a random subset s of each
    quotient's universe, as the extension asks the greedy."""
    for inst in corpus.pairs[:200]:
        ctx = PairContext(inst.M, inst.N)
        for _ in range(4):
            pair = ctx.quotient(_random_common_independent(rng, inst.M, inst.N))
            universe = list(bit_indices(pair.universe_mask))
            yield pair, _mask(rng.sample(universe, rng.randint(0, len(universe))))


def test_greedy_among_a_set_is_its_common_independent_part(corpus):
    # on the pair and on quotients by common independent sets, as the
    # extension asks it: least element of the set first, one query per
    # element, and a second only after the first-asked matroid's yes
    for pair, s in quotient_samples(corpus, random.Random(9)):
        expected = greedy_common_part(pair.M, pair.N, s)
        yeses = first_asked_yeses(pair.M, pair.N, s)
        gm, gn = CountingIndep(pair.M), CountingIndep(pair.N)
        assert _mask(_greedy(gm, gn, 0, s)) == expected, s
        assert gm.calls + gn.calls == s.bit_count() + yeses, s
        assert s.bit_count() <= gm.calls + gn.calls <= 2 * s.bit_count()


def test_greedy_asks_the_matroid_that_last_said_no_first():
    # M free and N = U(1, n): the first element is added after two yeses,
    # the second is refused by N, and from then on N is asked first and
    # refuses each element alone.  M first on every element asks 2n.
    n = 12
    ground = GroundSet(tuple(f"e{i}" for i in range(n)))
    m, u = CountingIndep(C.free(ground)), CountingIndep(C.uniform(ground, 1))
    assert _greedy(m, u, 0) == [0]
    assert (m.calls, u.calls) == (2, n)
    old_m, old_n = CountingIndep(C.free(ground)), CountingIndep(C.uniform(ground, 1))
    assert greedy_common_part(old_m, old_n, m.universe_mask) == 1
    assert old_m.calls + old_n.calls == 2 * n


def test_the_swapping_greedy_adds_the_m_first_set_with_fewer_queries_in_total(corpus):
    # on quotients of the corpus pairs, and on the classic-large-sized
    # pairs from the empty set and random starts, the swap changes which
    # masks are asked, never the set added.  One greedy can ask more than
    # M first would (after a swap, N may say yes where M would have said
    # no), but over the cases it asks fewer
    cases = [(pair.M, pair.N, s, 0) for pair, s in quotient_samples(corpus, random.Random(9))]
    rng = random.Random(7)
    for m, n in classic_large_pairs():
        cases += [(m, n, m.universe_mask, start)
                  for start in [0] + [_random_common_independent(rng, m, n) for _ in range(2)]]
    swapped = m_first = fewer = more = 0
    for m, n, among, start in cases:
        gm, gn = CountingIndep(m), CountingIndep(n)
        om, on = CountingIndep(m), CountingIndep(n)
        added = start | _mask(_greedy(gm, gn, start, among))
        assert added == greedy_common_part(om, on, among, start)
        swapped += gm.calls + gn.calls
        m_first += om.calls + on.calls
        fewer += gm.calls + gn.calls < om.calls + on.calls
        more += gm.calls + gn.calls > om.calls + on.calls
    assert swapped <= m_first and fewer > more, (swapped, m_first, fewer, more)


def test_extension_starts_from_the_greedy_part_of_its_warm_set(corpus, monkeypatch):
    # the extension's wave run starts from the greedy common independent
    # part of the warm set; a warm set that is common independent in the
    # quotient is that part, so two queries on the whole set answer and the
    # greedy runs only on the other warm sets.  Warm sets are the ones the
    # mixed loop carries and random subsets of the quotient's universe.
    import matroidkit.waves as waves

    greedy_runs, starts = [], []

    def recorded_greedy(*args):
        greedy_runs.append(args)
        return _greedy(*args)

    def recorded_run(m, n, trace=None, start=0, carried=()):
        starts.append(start)
        return _classic_run(m, n, trace, start, carried)

    monkeypatch.setattr(waves, "_greedy", recorded_greedy)
    monkeypatch.setattr(waves, "_classic_run", recorded_run)
    rng = random.Random(9)
    whole = partial = 0
    for inst in corpus.pairs:
        for e0, e1 in inst.splits:
            for _state, _path, augmented, _extended in mixed_rounds(inst.M, SplitInput(inst.N, e0, e1)):
                pair = augmented.ctx.quotient(augmented.I.mask)
                outside = list(bit_indices(pair.universe_mask))
                for warm in (augmented.warm.mask, _mask(rng.sample(outside, rng.randint(0, len(outside))))):
                    state = FeasibleState(augmented.ctx, augmented.I, ElementSet(pair.ground, warm))
                    keeps = pair.M._indep(warm) and pair.N._indep(warm)
                    before, first_run = len(greedy_runs), len(starts)
                    extend_to_nice(state)
                    assert len(greedy_runs) == before + (not keeps), inst.name
                    assert starts[first_run] == greedy_common_part(pair.M, pair.N, warm), inst.name
                    whole += keeps
                    partial += not keeps
    assert whole > 100 and partial > 50, (whole, partial)


def test_mixed_loop_runs_no_round_when_n_already_spans_e0():
    # a, b are loops of N, so N spans E0 - W = {a, b} from the empty set and
    # the loop neither augments nor extends; the tail alone finds I
    n = C.concat_sum([C.zero(GroundSet(("a", "b"))), C.uniform(GroundSet(("c", "d")), 1)])
    m = C.uniform(G4, 2)
    trace = Trace()
    cert = mixed_solve(m, SplitInput(n, G4.subset("ab"), G4.subset("cd")), trace)
    (wave,) = [e for e in trace.events if e["kind"] == "wave"]
    assert wave["W"] == 0 and len(cert.I) == 1
    assert trace.augmentations == trace.extensions == 0


def test_mixed_loop_cap_stops_a_loop_that_makes_no_progress(monkeypatch):
    # augment and extend_to_nice hand the state back unchanged, so every
    # round finds the same path until the cap of |E - W| rounds for the
    # whole solve stops the loop; the M-loop d is the wave, so the cap is 3,
    # and the message names the unspanned element by its label
    import matroidkit.intersect as intersect

    m = C.PartitionMatroid(G4, ((G4.subset("abc").mask, 3), (G4.subset("d").mask, 0)))
    split = SplitInput(C.uniform(G4, 2), G4.full(), G4.empty())
    assert mixed_solve(m, split).E_M == G4.subset("d")
    monkeypatch.setattr(intersect, "augment", lambda state, path, trace=None: state)
    monkeypatch.setattr(intersect, "extend_to_nice", lambda state, trace=None: state)
    with pytest.raises(C.Stuck, match="iteration cap 3 reached while element a unspanned"):
        mixed_solve(m, split)
    monkeypatch.setattr(intersect, "find_aug_path", lambda state, among=None: None)
    with pytest.raises(C.Stuck, match="no augmenting path while element a is unspanned"):
        mixed_solve(m, split)


def _mixed_scale():
    path = Path(__file__).resolve().parents[1] / "scripts" / "mixed_scale.py"
    spec = importlib.util.spec_from_file_location("mixed_scale", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_mixed_rounds_never_exceed_the_size_of_the_quotient(corpus):
    # each round grows I, which starts empty and lies in E - W, so a
    # solve augments at most |E - W| times; on a corpus slice and on the
    # instances of scripts/mixed_scale.py
    scale = _mixed_scale()
    runs = [
        (inst.M, SplitInput(inst.N, e0, e1)) for inst in corpus.pairs[:150] for e0, e1 in inst.splits
    ]
    instances = [
        *(scale.instance(size, odd) for size in (128, 256) for odd in (False, True)),
        *(scale.dual_instance(256, odd) for odd in (False, True)),
        scale.glued(scale.GLUED_COPIES),
        scale.graphic_pair(256),
    ]
    for m, n, e1 in instances:
        e1 = ElementSet(m.ground, e1)
        runs.append((m, SplitInput(n, ElementSet(m.ground, m.universe_mask & ~e1.mask), e1)))
    busy = 0
    for m, split in runs:
        trace = Trace()
        mixed_solve(m, split, trace)
        (wave,) = [e for e in trace.events if e["kind"] == "wave"]
        assert trace.augmentations <= (m.universe_mask & ~wave["W"]).bit_count()
        busy += trace.augmentations > 0
    assert len(runs) > 300 and busy > 50, (len(runs), busy)


# ---------------------------------------------------------------------------
# mixed_solve


def test_mixed_pure_cofinitary_split():
    m = C.uniform(G4, 2)
    n = C.uniform(G4, 1).dual()
    cert = mixed_solve(m, SplitInput(n, G4.empty(), G4.full()))
    assert len(cert.I) == 2
    assert verify_certificate(m, n, cert)


@pytest.mark.parametrize("size", [32, 48, 128, 256])
def test_mixed_matches_classic_past_enumeration_sizes(size):
    # N: two 2-connected graphs on disjoint vertex sets, so exactly two
    # components; M: shuffled pairs of edges, at most one of each pair.
    # Each side is a cycle with chords of step at most 4 on at least 8
    # vertices, so no edge is a loop.
    side_vs = max(8, size // 8)
    edges = []
    for side in "ab":
        for k in range(size // 2):
            i, step = k % side_vs, 1 + k // side_vs
            edges.append((f"{side}{i}", f"{side}{(i + step) % side_vs}", f"{side}{k}"))
    n = C.graphic([f"{side}{i}" for side in "ab" for i in range(side_vs)], edges)
    order = list(range(size))
    random.Random(size).shuffle(order)
    pairs = tuple(((1 << order[j]) | (1 << order[j + 1]), 1) for j in range(0, size, 2))
    m = C.PartitionMatroid(n.ground, pairs)
    comps = n.components()
    assert len(comps) == 2
    classic = edmonds_solve(PairContext(m, n))
    assert verify_certificate(m, n, classic)
    for e1 in (n.ground.empty(), comps[0]):
        cert = mixed_solve(m, SplitInput(n, n.elements() - e1, e1))
        assert len(cert.I) == len(classic.I), e1.labels()
        assert verify_certificate(m, n, cert)


@pytest.mark.parametrize("size", [64, 96, 128])
def test_classic_phases_past_enumeration_sizes(size):
    # Cunningham (1986): augmenting along shortest paths never shortens a
    # distance, and a path at |I| = k has at most 2k / (r - k) + 1
    # elements, so the path lengths only grow and a run takes at most
    # 2 * ceil(sqrt(r)) + 2 phases, the last of which finds no path
    rng = random.Random(size)
    m = connected_graphic(rng, size)
    most_phases = 0
    for n in (capped_partition(rng, m.ground), connected_graphic(rng, size)):
        trace = Trace()
        cert = edmonds_solve(PairContext(m, n), trace)
        assert verify_certificate(m, n, cert)
        r = len(cert.I)
        assert trace.augmentations == r
        lengths = {}
        for before, after in zip(trace.events, trace.events[1:]):
            assert len(before["path"]) <= len(after["path"])
        for event in trace.events:
            lengths.setdefault(event["phase"], set()).add(len(event["path"]))
        assert all(len(found) == 1 for found in lengths.values())
        assert sorted(lengths) == list(range(1, trace.phases))
        assert trace.phases <= 2 * (math.isqrt(r - 1) + 1) + 2
        most_phases = max(most_phases, trace.phases)
        # weak duality: the mixed solver reaches the same size and M-side
        mixed = mixed_solve(m, SplitInput(n, m.elements(), m.ground.empty()))
        assert len(mixed.I) == r and mixed.E_M == cert.E_M
    # the graphic pair needs paths through I, so lengths do grow
    assert most_phases >= 4


def test_mixed_loop_at_bench_size_warm_starts_every_postcondition():
    # n = 48: graphic M of rank 35 against a partition N of blocks of 2-4
    # elements, capped at half, so the largest wave is small and the
    # augment/extend loop runs many times.  The counts come from the trace.
    rng = random.Random(48)
    m = connected_graphic(rng, 48)
    n = capped_partition(rng, m.ground)
    trace = Trace()
    cert = mixed_solve(m, SplitInput(n, m.elements(), m.ground.empty()), trace)
    classic = edmonds_solve(PairContext(m, n))
    assert len(cert.I) == len(classic.I)
    assert cert.E_M == classic.E_M
    assert trace.augmentations >= 10 and trace.extensions >= 10
    runs = trace.wave_runs
    extends = [e for e in trace.events if e["kind"] == "extend"]
    paths = [e["path"] for e in trace.events if e["kind"] == "augment"]
    # the solver's own wave is the one cold run; every other full run is
    # warm and a single phase
    cold = Trace()
    largest_wave(PairContext(m, n), trace=cold)
    assert runs["cold"] == 1
    assert runs["phases"] == cold.wave_runs["phases"] + runs["warm"]
    # each round asks two wave questions and the solver one check, and a
    # round answers its postcondition with no run exactly when B is empty
    assert runs["warm"] + runs["resumed"] + runs["reused"] == 2 * trace.extensions + 1
    assert runs["reused"] == sum(e["added"] == 0 for e in extends) > 0
    # a run resumes only after a round with B empty whose next path is one
    # element (of the warm set, which the trace does not show)
    resumable = sum(
        before["added"] == 0 and len(path) == 1 for before, path in zip(extends, paths[1:])
    )
    assert 0 < runs["resumed"] <= resumable


@pytest.mark.parametrize("size, seed", [(48, 1), (48, 2), (256, 256)])
def test_every_resumed_wave_equals_a_full_run_from_its_start(monkeypatch, size, seed):
    # the lemma in extend_to_nice: a resumed backward search gives the W,
    # witness and rest of a full wave run from the same start
    import matroidkit.waves as waves

    real_run = waves._classic_run
    resumed = []

    def checked_run(m, n, trace=None, start=0, carried=()):
        cert = real_run(m, n, trace, start, carried)
        if carried:
            full = largest_wave(PairContext(m, n), ElementSet(m.ground, start))
            assert (full.W, full.witness, full.rest) == (
                cert.E_M, cert.I & cert.E_M, cert.I - cert.E_M
            )
            resumed.append(cert)
        return cert

    monkeypatch.setattr(waves, "_classic_run", checked_run)
    rng = random.Random(seed)
    m = connected_graphic(rng, size)
    n = capped_partition(rng, m.ground)
    trace = Trace()
    cert = mixed_solve(m, SplitInput(n, m.elements(), m.ground.empty()), trace)
    assert verify_certificate(m, n, cert)
    assert len(resumed) == trace.wave_runs["resumed"] > 0


def test_split_validation_rejects_crossing_component():
    n = C.uniform(G3, 1)  # one component: the whole set
    with pytest.raises(C.PreconditionViolated):
        SplitInput(n, G3.subset("a"), G3.subset("bc")).validate()


@pytest.mark.parametrize("e0, e1", [("abc", ""), ("", "abc")])
def test_split_validation_with_an_empty_part_scans_no_components(monkeypatch, e0, e1):
    # no component can cross a split with an empty part, so validate asks for none
    def no_scan(self):
        raise AssertionError("validate asked for the components")

    monkeypatch.setattr(C.Matroid, "components", no_scan)
    SplitInput(C.uniform(G3, 1), G3.subset(e0), G3.subset(e1)).validate()


def test_split_validation_requires_partition():
    n = C.free(G3)
    with pytest.raises(C.PreconditionViolated):
        SplitInput(n, G3.subset("ab"), G3.subset("bc")).validate()


def test_state_invariant_broken_detected():
    ground, ctx, _state = five_element_split()
    # s and d share an M-block of capacity 1
    with pytest.raises(C.StateInvariantBroken):
        FeasibleState(ctx, ground.subset("sxd"))


def test_state_not_dually_safe_detected():
    # the ring of I = {d} is empty, so d lies outside the dual span of the
    # (empty) safe base
    g = GroundSet(tuple("de"))
    ctx = PairContext(C.free(g), C.uniform(g, 1), g.full())
    with pytest.raises(C.StateInvariantBroken, match="not dually safe"):
        FeasibleState(ctx, g.subset("d"))


def test_state_safe_base_dependent_in_dual_detected():
    # every element is an M-loop, so the safe base is all of E1 = {d, e},
    # which is dependent in the dual of U(1, 2)
    g = GroundSet(tuple("de"))
    ctx = PairContext(C.zero(g), C.uniform(g, 1), g.full())
    with pytest.raises(C.StateInvariantBroken, match="dependent in the dual"):
        FeasibleState(ctx, g.empty())


def test_dual_safety_check_matches_the_full_dual_span(corpus):
    # random common independent sets on splits with E1 nonempty, not
    # filtered for safety: construction raises exactly when the full dual
    # span of the safe base says so, with the same message
    rng = random.Random(7)
    seen = {None: 0, "dependent in the dual": 0, "not dually safe": 0}
    for inst in corpus.pairs[:120]:
        m, n = inst.M, inst.N
        nd = n.dual()
        for _e0, e1 in inst.splits:
            if not e1:
                continue
            ctx = PairContext(m, n, e1)
            for _ in range(4):
                imask = _random_common_independent(rng, m, n)
                safe = _mask([x for x in bit_indices(e1.mask & ~imask) if not m._indep(imask | 1 << x)])
                if not nd._indep(safe):
                    expected = "dependent in the dual"
                elif imask & e1.mask & ~nd._span(safe):
                    expected = "not dually safe"
                else:
                    expected = None
                try:
                    FeasibleState(ctx, ElementSet(m.ground, imask))
                    got = None
                except C.StateInvariantBroken as exc:
                    got = next(k for k in seen if k and k in str(exc))
                assert got == expected, inst.name
                seen[expected] += 1
    assert all(seen.values()), seen


def test_safe_base_asks_one_query_per_element_of_e1_outside_i():
    # construction asks M once whether I is independent; the safe base
    # adds one query per element of E1 - I, none when E1 is empty, and
    # reading it again asks nothing
    for e1, safe, m_calls in (("", "", 1), ("cd", "cd", 3)):
        m = CountingIndep(C.uniform(G4, 2))
        state = FeasibleState(PairContext(m, C.uniform(G4, 2), G4.subset(e1)), G4.subset("ab"))
        assert m.calls == m_calls
        assert state.safe_base == G4.subset(safe) and m.calls == m_calls


# ---------------------------------------------------------------------------
# arc persistence


def test_arc_persistence_on_hand_built_instance():
    ground, ctx, state = five_element_split()
    path = find_aug_path(state)
    augmented = augment(state, path)
    extended = extend_to_nice(augmented)
    replay_arc_persistence((state, path, augmented, extended))


def test_trace_names_the_rounds_mixed_solve_runs(corpus):
    # each round's augment and extend events name the sets of its record;
    # the wave questions are the largest wave (cold) and the check from
    # its rest before the loop, then per round the extension's run and
    # either its postcondition's run or, with B empty, one reused answer
    total = 0
    for inst in corpus.pairs[:200]:
        for e0, e1 in inst.splits:
            trace = Trace()
            rounds = mixed_rounds(inst.M, SplitInput(inst.N, e0, e1), trace)
            want = []
            for before, path, augmented, extended in rounds:
                ia = augmented.I.mask
                want.append(("augment", before.I.mask, path, ia))
                want.append(("extend", ia, extended.I.mask & ~ia))
            got = [
                ("augment", ev["before"], ev["path"], ev["after"]) if ev["kind"] == "augment"
                else ("extend", ev["before"], ev["added"])
                for ev in trace.events
                if ev["kind"] in ("augment", "extend")
            ]
            assert got == want, inst.name
            runs = sum(trace.wave_runs[kind] for kind in ("cold", "warm", "resumed", "reused"))
            assert runs == 2 + 2 * len(rounds), (inst.name, dict(trace.wave_runs))
            total += len(rounds)
    assert total > 90


def test_trace_counters():
    m = C.free(G4)
    n = C.uniform(G4, 2)
    trace = Trace()
    mixed_solve(m, SplitInput(n, G4.full(), G4.empty()), trace)
    assert trace.augmentations > 0
    assert trace.extensions == trace.augmentations
    assert any(ev["kind"] == "augment" for ev in trace.events)
