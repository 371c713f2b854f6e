"""Shared fixtures and definition-level brute helpers for the test suite."""

from __future__ import annotations

from functools import cache
from itertools import combinations, combinations_with_replacement, product

import pytest

from matroidkit import core as C
from matroidkit.core import ElementSet, GroundSet, _mask, bit_indices
from matroidkit.oracle import CorpusSpec, _gf2_rank, fuzz_corpus, iter_submasks
from matroidkit.orient import DemandGraph, effective_lower_bound

CORPUS_SEED = 20260810


CORPUS_SPEC = CorpusSpec(
    seed=CORPUS_SEED,
    pairs=520,
    families=60,
    graphs=220,
    max_elements=10,
    max_graph_vertices=6,
    max_graph_edges=12,
)


@pytest.fixture(scope="session")
def corpus():
    return fuzz_corpus(CORPUS_SPEC)


def enumerate_matroids(labels: tuple[str, ...]) -> list[C.ExplicitMatroid]:
    """Every labeled matroid on the given universe, as explicit base lists."""
    n = len(labels)
    ground = GroundSet(labels)
    out = []
    for r in range(n + 1):
        subsets = [sum(1 << i for i in combo) for combo in combinations(range(n), r)]
        for pick in range(1, 1 << len(subsets)):
            bases = {subsets[i] for i in bit_indices(pick)}
            if _exchange_holds(bases):
                out.append(C.ExplicitMatroid(ground, sorted(bases)))
    return out


def _exchange_holds(bases: set[int]) -> bool:
    for a in bases:
        for b in bases:
            if a == b:
                continue
            for x in bit_indices(a & ~b):
                stripped = a ^ (1 << x)
                if not any(stripped | (1 << y) in bases for y in bit_indices(b & ~a)):
                    return False
    return True


# ---------------------------------------------------------------------------
# definition-level brute helpers


def oracle_equal(a: C.Matroid, b: C.Matroid) -> bool:
    if a.universe_mask != b.universe_mask:
        return False
    return all(a._indep(s) == b._indep(s) for s in iter_submasks(a.universe_mask))


def brute_common_bases(m: C.Matroid, n: C.Matroid, xmask: int) -> set[int]:
    """All common bases of M restricted to X and N contracted onto X.

    B works iff B is a base of M restricted to X, the rest of X is
    independent in the dual of N, and that rest spans B there.
    """
    nd = n.dual()
    rm = m._rank(xmask)
    out = set()
    for b in iter_submasks(xmask):
        if b.bit_count() != rm or not m._indep(b):
            continue
        rest = xmask & ~b
        if not nd._indep(rest):
            continue
        if b & ~nd._span(rest):
            continue
        out.add(b)
    return out


def scan_circuit(m: C.Matroid, e: int, imask: int) -> int:
    """The circuit of I + e, for an independent I that spans e, by a scan.

    It holds e and exactly those f of I whose removal makes I + e
    independent: one query per element of I.  The reference for the
    halving in ``Matroid._circuits`` and for each handle's own answer.
    """
    dep = imask | 1 << e
    return 1 << e | sum(1 << f for f in bit_indices(imask) if m._indep(dep ^ 1 << f))


def pairwise_bases(pool) -> tuple[int, ...] | None:
    """The inclusion-maximal members of a set pool, by a pairwise scan.

    ``None`` when they differ in size; an empty pool stands for {∅}.
    The reference for ``ExplicitMatroid``'s filter.
    """
    pool = set(pool) or {0}
    maximal = [s for s in pool if not any(s != t and s & ~t == 0 for t in pool)]
    if len({s.bit_count() for s in maximal}) > 1:
        return None
    return tuple(sorted(maximal))


def scan_binary_draw(rng, n: int) -> tuple[list[int], list[int]]:
    """The columns ``_random_binary_explicit`` draws, and every independent set.

    The sets come from a scan of all 2^n subsets by GF(2) rank, with a
    zero column dependent on its own; the rng draws are the generator's.
    """
    dim = rng.randint(1, max(1, n - 1))
    cols = [rng.getrandbits(dim) for _ in range(n)]

    def indep(mask: int) -> bool:
        rows = [cols[i] for i in bit_indices(mask)]
        return _gf2_rank(rows) == len(rows) and all(rows)

    return cols, [mask for mask in range(1 << n) if indep(mask)]


def scan_components(m: C.Matroid) -> list[int]:
    """Components as masks, least element first: the scan circuits of the
    elements outside one greedy base, merged when they meet."""
    base = m._max_indep(m.universe_mask)
    classes = [1 << e for e in bit_indices(m.universe_mask)]
    for x in bit_indices(m.universe_mask & ~base):
        circ = scan_circuit(m, x, base)
        merged = circ
        for c in classes:
            if c & circ:
                merged |= c
        classes = [c for c in classes if not c & circ] + [merged]
    return sorted(classes, key=lambda c: c & -c)


def brute_is_wave(m: C.Matroid, n: C.Matroid, wmask: int) -> int | None:
    """Definition-level wave test; returns a witness mask or None."""
    nd = n.dual()
    target = m._rank(wmask)
    for b in iter_submasks(wmask):
        if b.bit_count() != target or not m._indep(b):
            continue
        if not b & ~nd._span(wmask & ~b):
            return b
    return None


def brute_largest_wave_mask(m: C.Matroid, n: C.Matroid) -> int:
    union = 0
    for wmask in iter_submasks(m.universe_mask):
        if wmask & ~union and brute_is_wave(m, n, wmask) is not None:
            union |= wmask
    return union


def brute_cond(m: C.Matroid, n: C.Matroid) -> bool:
    for wmask in iter_submasks(m.universe_mask):
        if brute_is_wave(m, n, wmask) is None:
            continue
        nw = n.onto(ElementSet(m.ground, wmask))
        need = nw._rank(wmask)
        found = any(
            m._indep(b) and nw._indep(b) and b.bit_count() == need
            for b in iter_submasks(wmask)
        )
        if not found:
            return False
    return True


def brute_cond_plus(m: C.Matroid, n: C.Matroid) -> bool:
    union = brute_largest_wave_mask(m, n)
    if union & ~m._loops_mask():
        return False
    return n.onto(ElementSet(m.ground, union))._rank(union) == 0


def family_union_max(members: tuple[C.Matroid, ...]) -> int:
    """Largest union of per-member independent sets, by assignment search."""
    universe = members[0].universe_mask
    elems = list(bit_indices(universe))
    best = 0

    def go(pos: int, picks: tuple[int, ...], used: int) -> None:
        nonlocal best
        if pos == len(elems):
            best = max(best, used.bit_count())
            return
        if used.bit_count() + (len(elems) - pos) <= best:
            return
        b = 1 << elems[pos]
        for i, member in enumerate(members):
            if member._indep(picks[i] | b):
                go(pos + 1, picks[:i] + (picks[i] | b,) + picks[i + 1 :], used | b)
        go(pos + 1, picks, used)

    go(0, tuple(0 for _ in members), 0)
    return best


def family_minmax(members: tuple[C.Matroid, ...]) -> int:
    universe = members[0].universe_mask
    best = None
    for ep in iter_submasks(universe):
        value = (universe & ~ep).bit_count() + sum(m._rank(ep) for m in members)
        if best is None or value < best:
            best = value
    return best


def brute_arc(m: C.Matroid, n: C.Matroid, imask: int, e1: int, safe: int, x: int, y: int) -> bool:
    """Arc x -> y of the exchange digraph at I, pair by pair from the rules.

    Outside I the M-rule (I - y + x M-independent while I + x is not), in
    I - E1 the N-rule (I - x + y N-independent while I + y is not), and
    in I & E1 the N*-rule against the safe base (the same test in the
    dual of N with y in the base).
    """
    bx, by = 1 << x, 1 << y
    if x == y or (bx | by) & ~m.universe_mask:
        return False
    if not bx & imask:
        return bool(by & imask) and not m._indep(imask | bx) and m._indep(imask ^ by | bx)
    if not bx & e1:
        return not by & imask and not n._indep(imask | by) and n._indep(imask ^ bx | by)
    nd = n.dual()
    return bool(by & safe) and not nd._indep(safe | bx) and nd._indep(safe ^ by | bx)


def brute_has_arc(state, x: int, y: int) -> bool:
    """``brute_arc`` at a mixed state."""
    ctx = state.ctx
    return brute_arc(ctx.M, ctx.N, state.I.mask, ctx.E1.mask, state.safe_base.mask, x, y)


def brute_heads(m: C.Matroid, n: C.Matroid, imask: int, e1: int = 0, safe: int = 0) -> dict:
    """Heads of every tail, as one bitmask per tail, from ``brute_arc``."""
    universe = m.universe_mask
    return {
        x: sum(1 << y for y in bit_indices(universe) if brute_arc(m, n, imask, e1, safe, x, y))
        for x in bit_indices(universe)
    }


def arcs(dg) -> tuple[tuple[int, int], ...]:
    """Every arc of a digraph with the search interface, tail by tail."""
    return tuple(
        (x, y)
        for x in bit_indices(dg.universe)
        for y in bit_indices(dg.heads(1 << x, dg.universe))
    )


class DictDigraph:
    """A digraph given as heads per tail, with the search interface of ``ExchangeDigraph``."""

    def __init__(self, out: dict, universe: int, sources: int = 0, sinks: int = 0) -> None:
        self.out = out
        self.universe = universe
        self.source_mask = sources
        self.sink_mask = sinks

    def sources(self, among: int):
        return bit_indices(among & self.source_mask)

    def sinks(self, among: int) -> int:
        return among & self.sink_mask

    def heads(self, layer: int, among: int) -> int:
        out = 0
        for x in bit_indices(layer):
            out |= self.out.get(x, 0)
        return out & among


def full_digraph_coreach(m: C.Matroid, n: C.Matroid, imask: int) -> int:
    """Elements with a path to an M-unspanned element in the classic digraph at I.

    A reference for the classic certificate: the heads of every tail are
    built pair by pair from the rules, then a breadth-first search walks
    the arcs backward from the sinks.
    """
    universe = m.universe_mask
    heads = brute_heads(m, n, imask)
    seen = frontier = universe & ~m._span(imask)
    while frontier:
        tails = 0
        for x in bit_indices(universe & ~seen):
            if heads[x] & frontier:
                tails |= 1 << x
        seen |= tails
        frontier = tails
    return seen


# ---------------------------------------------------------------------------
# recording the mixed solver's rounds (for replay tests)


def mixed_rounds(m: C.Matroid, split, trace=None) -> list[tuple]:
    """The rounds ``mixed_solve`` runs on (m, split), each a tuple (state
    before, path, state after augmenting, state after extending).

    The solver calls ``augment`` and ``extend_to_nice`` from its module
    namespace, so for this one solve both are wrapped there and record
    what they were given and what they returned.
    """
    from matroidkit import intersect

    rounds = []
    real_augment, real_extend = intersect.augment, intersect.extend_to_nice

    def augment(state, path, trace=None):
        augmented = real_augment(state, path, trace)
        rounds.append((state, path, augmented))
        return augmented

    def extend_to_nice(state, trace=None):
        extended = real_extend(state, trace)
        rounds[-1] += (extended,)
        return extended

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(intersect, "augment", augment)
        patch.setattr(intersect, "extend_to_nice", extend_to_nice)
        intersect.mixed_solve(m, split, trace)
    return rounds


def replay_arc_persistence(record) -> int:
    """Check arc survival across one augmentation and one extension.

    Arcs whose tail and all of its out-neighbours avoid the path must
    survive the augmentation; arcs whose endpoints keep their membership
    must survive the extension.  Returns the number of arcs checked.
    """
    from matroidkit.intersect import build_exchange_digraph

    state, path, augmented, extended = record
    pset = set(path)
    before = build_exchange_digraph(state)
    after = build_exchange_digraph(augmented)
    checked = 0
    for x, y in arcs(before):
        if x in pset or before.heads(1 << x, _mask(path)):
            continue
        assert after.heads(1 << x, 1 << y), (x, y)
        checked += 1
    final = build_exchange_digraph(extended)
    ia, ij = augmented.I.mask, extended.I.mask
    for x, y in arcs(after):
        bx, by = 1 << x, 1 << y
        if (bx | by) & ij == (bx | by) & ia:
            assert final.heads(1 << x, 1 << y), (x, y)
            checked += 1
    return checked


# ---------------------------------------------------------------------------
# orientation references


@cache
def exhaustive_orientation_family() -> tuple[DemandGraph, ...]:
    """Small graphs with exhaustively enumerated demand bounds.

    All simple graphs on four labeled vertices, all five-vertex simple
    graphs with at most four edges, and all loopless multigraphs on at
    most three vertices with at most four edges.  For every profile of
    effective lower bounds both a non-negative and a negative demand
    representative are exercised.
    """
    instances = []

    def add_graph(vertices, edge_list):
        degree = dict.fromkeys(vertices, 0)
        for u, v in edge_list:
            degree[u] += 1
            degree[v] += 1
        ranges = [range(degree[v] + 1) for v in vertices]
        for profile in product(*ranges):
            demands = dict(zip(vertices, profile))
            negative = {
                v: profile[i] - degree[v] for i, v in enumerate(vertices)
            }
            labeled = [(u, v, f"e{i}") for i, (u, v) in enumerate(edge_list)]
            instances.append(DemandGraph.build(vertices, labeled, demands))
            if negative != demands:
                instances.append(DemandGraph.build(vertices, labeled, negative))

    verts4 = ("a", "b", "c", "d")
    pairs4 = list(combinations(verts4, 2))
    for k in range(len(pairs4) + 1):
        for chosen in combinations(pairs4, k):
            add_graph(verts4, list(chosen))

    verts5 = ("a", "b", "c", "d", "e")
    pairs5 = list(combinations(verts5, 2))
    for k in range(5):
        for chosen in combinations(pairs5, k):
            add_graph(verts5, list(chosen))

    verts3 = ("a", "b", "c")
    pairs3 = list(combinations(verts3, 2))
    for k in range(1, 5):
        for chosen in combinations_with_replacement(pairs3, k):
            add_graph(verts3, list(chosen))

    return tuple(instances)


def reference_orientation_blocks(g: DemandGraph) -> list[tuple[str, C.Matroid]]:
    """Per vertex, the uniform matroid of rank lb(v) restricted to its in-arcs.

    Their direct sum is the in-degree matroid of the orientation
    instance; arc ``label>`` points into the edge's second endpoint and
    ``label<`` into its first.
    """
    labels = [f"{label}{side}" for _u, _w, label in g.edges for side in "><"]
    ground = GroundSet(tuple(labels))
    blocks = []
    for v in g.vertices:
        arcs = [f"{label}>" for _u, w, label in g.edges if w == v]
        arcs += [f"{label}<" for u, _w, label in g.edges if u == v]
        mv = C.uniform(ground, effective_lower_bound(g, v)).restrict(ground.subset(arcs))
        blocks.append((v, mv))
    return blocks


# ---------------------------------------------------------------------------
# mixed-state references


def greedy_common_part(m: C.Matroid, n: C.Matroid, mask: int, start: int = 0) -> int:
    """Greedy common independent subset of ``mask``, smallest indices first,
    grown from the common independent ``start``; M is asked before N."""
    kept = start
    for x in bit_indices(mask & ~start):
        if m._indep(kept | 1 << x) and n._indep(kept | 1 << x):
            kept |= 1 << x
    return kept


def connected_graphic(rng, size):
    """Graphic matroid on 3n/4 vertices: a random spanning tree, then random extra edges."""
    labels = [f"e{i}" for i in range(size)]
    vs = [f"v{i}" for i in range(size * 3 // 4)]
    ends = [(rng.randrange(i), i) for i in range(1, len(vs))]
    while len(ends) < size:
        ends.append(tuple(rng.sample(range(len(vs)), 2)))
    rng.shuffle(ends)
    return C.graphic(vs, [(vs[u], vs[v], e) for (u, v), e in zip(ends, labels)])


def capped_partition(rng, ground, cap=lambda rng, size: size // 2):
    """Partition matroid of random blocks of 2-4 elements, each capped at
    ``cap(rng, size)``: by default half its size."""
    order = list(range(ground.size))
    rng.shuffle(order)
    blocks = []
    while order:
        take = min(len(order), rng.randint(2, 4))
        blocks.append((sum(1 << e for e in order[:take]), cap(rng, take)))
        order = order[take:]
    return C.PartitionMatroid(ground, tuple(blocks))
