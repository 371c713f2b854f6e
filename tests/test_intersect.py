"""Both intersection solvers, the exchange digraph and the mixed stack."""

from __future__ import annotations

import random
from functools import partial

import pytest

from matroidkit import core as C
from matroidkit.core import ElementSet, GroundSet, bit_indices
from matroidkit.intersect import (
    AugPath,
    ExchangeDigraph,
    FeasibleState,
    IntersectionCertificate,
    SplitInput,
    Trace,
    _bfs_path,
    _check_chordless,
    _classic_run,
    _classic_step,
    _coreach,
    _first_path,
    _heads,
    augment,
    build_exchange_digraph,
    edmonds_solve,
    edmonds_step,
    extend_to_nice,
    find_aug_path,
    key_step,
    mixed_solve,
    solve,
    verify_certificate,
)
from matroidkit.oracle import brute_max_common, brute_minmax
from matroidkit.orient import DemandGraph, orient_solve
from matroidkit.packcov import MatroidFamily, packcov_solve
from matroidkit.waves import PairContext, nice_feasible

from conftest import brute_has_arc, drive_mixed, replay_arc_persistence

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
    mapping = {i: ground.index(n.ground.label(i)) for i in bit_indices(n.universe_mask)}
    n = C.RelabelMatroid(ground, n, mapping)
    ctx = PairContext(m, n, ground.subset("de"))
    state = FeasibleState(ctx, ground.subset("xd"))
    return ground, ctx, state


# ---------------------------------------------------------------------------
# classic solver


def test_edmonds_step_returns_certificate_at_maximum():
    m, n = C.uniform(G4, 2), C.PartitionMatroid(G4, ((0b0011, 1), (0b1100, 1)))
    ctx = PairContext(m, n)
    step = edmonds_step(ctx, G4.subset("ac"))
    assert isinstance(step, IntersectionCertificate)
    assert len(step.I) == brute_minmax(m, n) == 2
    assert verify_certificate(m, n, step)


def test_edmonds_step_singleton_path_on_free_pair():
    ctx = PairContext(C.free(G3), C.free(G3))
    step = edmonds_step(ctx, G3.empty())
    assert isinstance(step, AugPath) and len(step) == 1


def test_edmonds_step_three_element_path():
    m = C.PartitionMatroid(G3, ((0b011, 1), (0b100, 1)))
    n = C.PartitionMatroid(G3, ((0b001, 1), (0b110, 1)))
    step = edmonds_step(PairContext(m, n), G3.subset("b"))
    assert isinstance(step, AugPath)
    assert [G3.label(i) for i in step.elements] == ["a", "b", "c"]


def test_edmonds_step_k4_against_partition_three_path():
    # with I = {e0, e1} the only source e3 sits in M's span, so the
    # search must swap through I: e3 -> e0 -> e2
    m = k4()
    g = m.ground
    n = C.PartitionMatroid(
        g, ((g.subset(["e3"]).mask, 1), (g.subset(["e0", "e1", "e2", "e4", "e5"]).mask, 2))
    )
    step = edmonds_step(PairContext(m, n), g.subset(["e0", "e1"]))
    assert isinstance(step, AugPath)
    assert [g.label(i) for i in step.elements] == ["e3", "e0", "e2"]
    swapped = g.subset(["e0", "e1"]) ^ ElementSet(g, step.mask)
    assert m.is_independent(swapped) and n.is_independent(swapped)


def test_edmonds_step_requires_common_independent():
    with pytest.raises(C.NotCommonIndependent):
        edmonds_step(PairContext(C.zero(G3), C.free(G3)), G3.subset("a"))


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


def test_edmonds_solve_certificate_matches_brute(corpus):
    for inst in corpus.pairs[:60]:
        cert = edmonds_solve(PairContext(inst.M, inst.N))
        best, _ = brute_max_common(inst.M, inst.N)
        assert len(cert.I) == best == brute_minmax(inst.M, inst.N), inst.name
        assert verify_certificate(inst.M, inst.N, cert)


# ---------------------------------------------------------------------------
# the exchange digraph


def test_digraph_empty_state_has_no_arcs():
    ground = G4
    m = C.uniform(ground, 2)
    n = C.uniform(ground, 0)  # all N-loops; their circuits are singletons
    state = FeasibleState(PairContext(m, n), ground.empty())
    assert build_exchange_digraph(state).arcs == ()


def assert_arcs_match_rules(state):
    universe = list(bit_indices(state.ctx.universe_mask))
    expected = {(x, y) for x in universe for y in universe if brute_has_arc(state, x, y)}
    assert set(build_exchange_digraph(state).arcs) == expected


def test_digraph_arcs_match_rule_by_rule_test(corpus):
    _ground, _ctx, state = five_element_split()
    assert_arcs_match_rules(state)
    count = 0
    for inst in corpus.pairs:
        m, n = inst.M, inst.N
        imask = m._max_indep(n._max_indep(m.universe_mask))
        if not (m._indep(imask) and n._indep(imask)):
            continue
        assert_arcs_match_rules(FeasibleState(PairContext(m, n), ElementSet(m.ground, imask)))
        count += 1
        if count == 25:
            break
    assert count == 25


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
    assert set(dg.arcs) == set(expected)
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
    assert [ground.label(i) for i in path.elements] == ["s", "d", "e", "x", "t"]


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
    assert path is not None and len(path) == 1 and path.first == 0


def test_augment_rejects_invalid_path():
    ground, ctx, state = five_element_split()
    with pytest.raises(C.PreconditionViolated):
        augment(state, AugPath((ground.index("s"),)))


def test_augment_rejects_path_with_jumping_arc():
    # I = {b, d}: a, b, c, d, e is a path, but the M-circuit of a also
    # holds d, so the arc a -> d skips ahead along it
    g = GroundSet(tuple("abcde"))
    m = C.PartitionMatroid(g, ((g.subset("abcd").mask, 2), (g.subset("e").mask, 1)))
    n = C.PartitionMatroid(
        g, ((g.subset("a").mask, 1), (g.subset("bc").mask, 1), (g.subset("de").mask, 1))
    )
    state = FeasibleState(PairContext(m, n), g.subset("bd"))
    assert find_aug_path(state).elements == tuple(g.index(x) for x in "ade")
    with pytest.raises(C.PreconditionViolated, match="jumping arc"):
        augment(state, AugPath(tuple(g.index(x) for x in "abcde")))


def test_classic_chord_check_rejects_path_with_jumping_arc():
    out = {0: 0b1010, 1: 0b0100, 2: 0b1000}
    dg = ExchangeDigraph(G4.full_mask, lambda x: out.get(x, 0))
    _check_chordless(dg, [0, 1, 2], C.PostconditionFailed)
    with pytest.raises(C.PostconditionFailed, match="jumping arc 0->3"):
        _check_chordless(dg, [0, 1, 2, 3], C.PostconditionFailed)


def _least_shortest_path(out, size, source, sinks):
    """By enumeration: simple paths from ``source`` by length; at the first
    length that ends in a sink, the least such sink and the least path to it."""
    paths = [(source,)]
    while paths:
        ends = [p for p in paths if sinks >> p[-1] & 1]
        if ends:
            t = min(p[-1] for p in ends)
            return list(min(p for p in ends if p[-1] == t))
        paths = [
            p + (y,)
            for p in paths
            for y in range(size)
            if out.get(p[-1], 0) >> y & 1 and y not in p
        ]
    return None


def test_bfs_path_is_least_shortest_path_to_least_nearest_sink():
    rng = random.Random(7)
    found = missing = longest = 0
    for _ in range(400):
        size = rng.randint(1, 9)
        density = rng.choice((0.1, 0.25, 0.4))
        out = {}
        for x in range(size):
            heads = sum(1 << y for y in range(size) if y != x and rng.random() < density)
            if heads or rng.random() < 0.5:
                out[x] = heads
        dg = ExchangeDigraph((1 << size) - 1, lambda x: out.get(x, 0))
        source = rng.randrange(size)
        sinks = rng.getrandbits(size) & rng.getrandbits(size)
        expected = _least_shortest_path(out, size, source, sinks)
        assert _bfs_path(dg, source, sinks) == expected, (out, source, sinks)
        if expected is None:
            missing += 1
        else:
            found += 1
            longest = max(longest, len(expected))
    assert found > 100 and missing > 50 and longest >= 4


def classic_states(corpus, limit):
    """(M, N, I) for every set the classic solver passes through on corpus pairs."""
    out = []
    for inst in corpus.pairs[:limit]:
        trace = Trace()
        cert = _classic_run(inst.M, inst.N, trace)
        sets = [e["before"] for e in trace.events] + [cert.I.mask]
        out += [(inst.M, inst.N, imask) for imask in sets]
    return out


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
            _wave, _ctx, final, records = drive_mixed(m, SplitInput(n, e0, e1))
            out += [record[0] for record in records] + [final]
            ctx = PairContext(m, n, e1)
            for _ in range(4):
                imask = 0
                for e in rng.sample(list(bit_indices(m.universe_mask)), m.size):
                    grown = imask | 1 << e
                    if m._indep(grown) and n._indep(grown) and rng.random() < 0.7:
                        imask = grown
                try:
                    out.append(FeasibleState(ctx, ElementSet(m.ground, imask)))
                except C.StateInvariantBroken:
                    pass
    return out


def test_lazy_digraph_searches_match_the_full_digraph(corpus):
    searches = []
    for m, n, imask in classic_states(corpus, 40):
        universe = m.universe_mask
        rule = partial(_heads, m, n, imask, 0, 0)
        sources, sinks = universe & ~n._span(imask), universe & ~m._span(imask)
        searches.append((universe, rule, sources, sinks))
    mixed = mixed_states(corpus, 40)
    assert sum(1 for state in mixed if state.I.mask & state.ctx.E1.mask) > 50
    for state in mixed:
        ctx = state.ctx
        rule = build_exchange_digraph(state).rule
        sources = ctx.E0.mask & ~ctx.N._span(state.I.mask)
        sinks = ctx.E0.mask & ~state.span_m.mask
        searches.append((ctx.universe_mask, rule, sources, sinks))
    lazier = 0
    for universe, rule, sources, sinks in searches:
        full = ExchangeDigraph(universe, rule)
        full.arcs  # builds every tail
        lazy = ExchangeDigraph(universe, rule)
        assert _first_path(lazy, sources, sinks) == _first_path(full, sources, sinks)
        lazier += len(lazy.out) < len(full.out)
        lazy = ExchangeDigraph(universe, rule)
        assert _coreach(lazy, sinks) == _coreach(full, sinks)
    assert len(searches) > 150 and lazier > len(searches) // 2


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


def test_classic_step_asks_no_query_a_full_build_would_not(corpus):
    fewer = 0
    states = classic_states(corpus, 60)
    for m, n, imask in states:
        step_m, step_n = Recording(m), Recording(n)
        step = _classic_step(step_m, step_n, imask)
        assert step == _classic_step(m, n, imask)
        # the full digraph: the spans the step reads, and the fundamental
        # circuit of I in M and in N of every element they span outside I
        full_m, full_n = Recording(m), Recording(n)
        for full in (full_m, full_n):
            full._span(imask)
            for x in bit_indices(m.universe_mask & ~imask):
                if not full._indep(imask | 1 << x):
                    full._fund_circuit(x, imask)
        assert step_m.asked <= full_m.asked and step_n.asked <= full_n.asked
        fewer += len(step_m.asked) + len(step_n.asked) < len(full_m.asked) + len(full_n.asked)
    assert fewer > len(states) // 4


def test_unknown_solver_raises_one_error_type():
    with pytest.raises(C.PreconditionViolated, match="unknown solver 'greedy'"):
        solve(C.free(G3), C.free(G3), solver="greedy")
    with pytest.raises(C.PreconditionViolated, match="unknown solver"):
        packcov_solve(MatroidFamily(G3, (C.free(G3),)), solver="greedy")
    g = DemandGraph.build(["a", "b"], [["a", "b"]], {"a": 1})
    with pytest.raises(C.PreconditionViolated, match="unknown solver"):
        orient_solve(g, solver="greedy")


def test_mixed_path_search_matches_classic_augmentations(corpus):
    # with an empty E1 the mixed search must find the same paths the
    # classic stepper does, state by state
    count = 0
    for inst in corpus.pairs:
        m, n = inst.M, inst.N
        ctx = PairContext(m, n)
        state = FeasibleState(ctx, m.ground.empty())
        while True:
            step = edmonds_step(ctx, state.I)
            path = find_aug_path(state)
            if isinstance(step, IntersectionCertificate):
                assert path is None, inst.name
                break
            assert path is not None and path.elements == step.elements, inst.name
            state = FeasibleState(ctx, state.I ^ ElementSet(m.ground, path.mask))
        count += 1
        if count == 15:
            break
    assert count == 15


# ---------------------------------------------------------------------------
# extend_to_nice / key_step


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
        _wave, ctx, _state, records = drive_mixed(inst.M, split)
        for _before, _path, _augmented, extended in records:
            assert nice_feasible(ctx, extended.I), inst.name
            checked += 1
        if checked >= 10:
            break
    assert checked > 0


def test_key_step_noop_when_already_spanned():
    ground, ctx, state = five_element_split()
    spanned = next(iter(bit_indices(ctx.N._span(state.I.mask) & ctx.E0.mask)))
    out = key_step(state, spanned)
    assert out.I == state.I


def test_key_step_requires_e0_target():
    ground, ctx, state = five_element_split()
    with pytest.raises(C.PreconditionViolated):
        key_step(state, ground.index("d"))


# ---------------------------------------------------------------------------
# mixed_solve


def test_mixed_pure_cofinitary_split():
    m = C.uniform(G4, 2)
    n = C.uniform(G4, 1).dual()
    cert = mixed_solve(m, SplitInput(n, G4.empty(), G4.full()))
    assert len(cert.I) == 2
    assert verify_certificate(m, n, cert)


def test_mixed_pure_finitary_matches_classic(corpus):
    for inst in corpus.pairs[:40]:
        split = SplitInput(inst.N, inst.N.elements(), inst.N.ground.empty())
        cert = mixed_solve(inst.M, split)
        classic = edmonds_solve(PairContext(inst.M, inst.N))
        assert len(cert.I) == len(classic.I), inst.name


def test_mixed_all_component_splits(corpus):
    for inst in corpus.pairs[:40]:
        best, _ = brute_max_common(inst.M, inst.N)
        for e0, e1 in inst.splits:
            cert = mixed_solve(inst.M, SplitInput(inst.N, e0, e1))
            assert len(cert.I) == best, (inst.name, e1.labels())
            assert verify_certificate(inst.M, inst.N, cert)


@pytest.mark.parametrize("size", [32, 48])
def test_mixed_matches_classic_past_enumeration_sizes(size):
    # N: two 2-connected graphs on disjoint 8-vertex sets, so exactly two
    # components; M: shuffled pairs of edges, at most one of each pair.
    edges = []
    for side in "ab":
        for k in range(size // 2):
            i, step = k % 8, 1 + k // 8
            edges.append((f"{side}{i}", f"{side}{(i + step) % 8}", f"{side}{k}"))
    n = C.graphic([f"{side}{i}" for side in "ab" for i in range(8)], edges)
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


def test_split_validation_rejects_crossing_component():
    n = C.uniform(G3, 1)  # one component: the whole set
    with pytest.raises(C.PreconditionViolated):
        SplitInput(n, G3.subset("a"), G3.subset("bc")).validate()


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


# ---------------------------------------------------------------------------
# arc persistence


def test_arc_persistence_on_hand_built_instance():
    ground, ctx, state = five_element_split()
    path = find_aug_path(state)
    augmented = augment(state, path)
    extended = extend_to_nice(augmented)
    replay_arc_persistence((state, path, augmented, extended))


def test_arc_persistence_across_corpus_sample(corpus):
    checked_arcs = 0
    done = 0
    for inst in corpus.pairs:
        if inst.M.size > 7:
            continue
        for e0, e1 in inst.splits:
            _wave, _ctx, _state, records = drive_mixed(inst.M, SplitInput(inst.N, e0, e1))
            for record in records:
                checked_arcs += replay_arc_persistence(record)
        done += 1
        if done == 12:
            break
    assert done == 12


def test_trace_counters():
    m = C.free(G4)
    n = C.uniform(G4, 2)
    trace = Trace()
    mixed_solve(m, SplitInput(n, G4.full(), G4.empty()), trace)
    assert trace.augmentations > 0
    assert trace.extensions == trace.augmentations
    assert any(ev["kind"] == "augment" for ev in trace.events)
