"""Brute-force ground truth and the deterministic instance fuzzer.

Everything here is definition-level enumeration: maximum common
independent sets by scanning all subsets, the min-max value over all
partitions, the largest wave as the union of all witnessed waves, the
wave condition over every subset, the independence axioms over every
subset, components as the classes linked by circuits over all subsets,
and orientation feasibility over all edge-direction vectors.  These
routines feed every acceptance test and ``matroidkit check``, and stay
independent of the solvers.  This is the one module that enumerates
subsets or reads the enumeration bound; no solver module imports it.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterator

from .core import (
    ElementSet,
    ExplicitMatroid,
    GroundSet,
    Matroid,
    MatroidKitError,
    PostconditionFailed,
    TooLarge,
    bit_indices,
    concat_sum,
    graphic,
    partition,
    relabel_onto,
    uniform,
)
from .orient import DemandGraph, effective_lower_bound
from .packcov import MatroidFamily
from .waves import PairContext, _require_common_independent

ENV_MAX_EXHAUSTIVE = "MATROIDKIT_MAX_EXHAUSTIVE"
# most elements whose subsets brute_max_common and brute_minmax scan by default
MAX_COMMON_BOUND = 16
# most elements whose subsets brute_components scans for circuits by default
COMPONENTS_BOUND = 16
# most elements whose (set, witness) pairs brute_largest_wave scans by default
LARGEST_WAVE_SCAN_BOUND = 10
# most edges whose orientations brute_orientations scans by default
ORIENT_BOUND = 14
# most elements whose subsets axiom_check enumerates by default
AXIOM_CHECK_BOUND = 12
# most elements whose subsets check_cond scans for waves by default
WAVE_CONDITION_SCAN_BOUND = 12
# most members of one fuzzed matroid family
MAX_FAMILY = 3


def require_exhaustive(scan: str, size: int, unit: str, default: int) -> None:
    """Raise TooLarge when ``scan`` would enumerate over more than the bound.

    The bound is ``default`` unless the MATROIDKIT_MAX_EXHAUSTIVE
    environment variable overrides it; the variable is read before the
    size test, so a malformed value is an input error at every size.
    """
    value = os.environ.get(ENV_MAX_EXHAUSTIVE)
    try:
        bound = int(value) if value else default
    except ValueError:
        raise MatroidKitError(
            f"{ENV_MAX_EXHAUSTIVE} must be an integer, not {value!r}"
        ) from None
    if size > bound:
        raise TooLarge(f"{scan} over {size} {unit} exceeds the bound {bound}")


def iter_submasks(mask: int) -> Iterator[int]:
    """Yield every submask of ``mask``, starting from 0, ending at ``mask``."""
    sub = 0
    while True:
        yield sub
        if sub == mask:
            return
        sub = (sub - mask) & mask


def rank_table(m: Matroid) -> dict[int, int]:
    """Rank of every subset of the universe, by greedy completion."""
    return {mask: m._rank(mask) for mask in iter_submasks(m.universe_mask)}


def brute_max_common(m: Matroid, n: Matroid) -> tuple[int, ElementSet]:
    """Exhaustive maximum common independent set; smallest bitmask wins ties."""
    PairContext(m, n)  # raises UniverseMismatch unless m and n share ground and universe
    require_exhaustive("brute max-common", m.universe_mask.bit_count(), "elements", MAX_COMMON_BOUND)
    best = 0
    best_mask = 0
    for mask in iter_submasks(m.universe_mask):
        if mask.bit_count() > best and m._indep(mask) and n._indep(mask):
            best = mask.bit_count()
            best_mask = mask
    return best, ElementSet(m.ground, best_mask)


def brute_minmax(m: Matroid, n: Matroid) -> int:
    """Minimum over all subsets X of rank_M(X) + rank_N(complement of X)."""
    PairContext(m, n)  # raises UniverseMismatch unless m and n share ground and universe
    require_exhaustive("brute min-max", m.universe_mask.bit_count(), "elements", MAX_COMMON_BOUND)
    universe = m.universe_mask
    best = None
    for mask in iter_submasks(universe):
        value = m._rank(mask) + n._rank(universe & ~mask)
        if best is None or value < best:
            best = value
    return best if best is not None else 0


def is_circuit(m: Matroid, mask: int) -> bool:
    """Whether ``mask`` is dependent and every one-element deletion of it independent."""
    if mask == 0 or m._indep(mask):
        return False
    return all(m._indep(mask ^ 1 << x) for x in bit_indices(mask))


def brute_components(m: Matroid) -> list[ElementSet]:
    """Classes of elements linked by chains of circuits, over every subset.

    Loops and coloops come out as singletons; classes are ordered by
    their lowest element.
    """
    require_exhaustive("component enumeration", m.universe_mask.bit_count(), "elements", COMPONENTS_BOUND)
    classes = [1 << e for e in bit_indices(m.universe_mask)]
    for mask in iter_submasks(m.universe_mask):
        if is_circuit(m, mask):
            linked = [c for c in classes if c & mask]
            if len(linked) > 1:
                # The classes are disjoint, so their sum is their union.
                classes = [c for c in classes if not c & mask] + [sum(linked)]
    classes.sort(key=lambda c: c & -c)
    return [ElementSet(m.ground, c) for c in classes]


def brute_largest_wave(m: Matroid, n: Matroid) -> ElementSet:
    """Union of all waves, found by scanning every (set, witness) pair.

    A witness for W is a base of M restricted to W whose complement in W
    spans it in the dual of N.  The union is checked to be a wave itself.
    """
    PairContext(m, n)  # raises UniverseMismatch unless m and n share ground and universe
    require_exhaustive("brute wave scan", m.size, "elements", LARGEST_WAVE_SCAN_BOUND)
    universe = m.universe_mask
    rm = rank_table(m)
    rn = rank_table(n)
    rn_full = rn[universe]

    def dual_rank(mask: int) -> int:
        return mask.bit_count() + rn[universe & ~mask] - rn_full

    def is_wave_mask(wmask: int) -> bool:
        target = rm[wmask]
        for b in iter_submasks(wmask):
            if rm[b] == b.bit_count() == target:
                rest = wmask & ~b
                if all(dual_rank(rest | (1 << x)) == dual_rank(rest) for x in bit_indices(b)):
                    return True
        return False

    union = 0
    for wmask in iter_submasks(universe):
        if wmask & ~union and is_wave_mask(wmask):
            union |= wmask
    if not is_wave_mask(union):
        raise PostconditionFailed("union of waves failed its own wave test")  # pragma: no cover
    return ElementSet(m.ground, union)


def check_cond(ctx: PairContext) -> bool:
    """Every wave admits an M-independent base of N contracted onto it.

    Exhaustive over all subsets of the universe; raises TooLarge above
    the exhaustive bound.
    """
    require_exhaustive("exhaustive wave scan", ctx.M.size, "elements", WAVE_CONDITION_SCAN_BOUND)
    m, n = ctx.M, ctx.N
    for wmask in iter_submasks(ctx.universe_mask):
        w = ElementSet(ctx.ground, wmask)
        mw = m.restrict(w)
        nw = n.onto(w)
        s = brute_max_common(mw, nw)[0]
        if s == mw._rank(wmask) and s < nw._rank(wmask):
            return False
    return True


def feasible(ctx: PairContext, s: ElementSet) -> bool:
    """The quotient pair by ``s`` satisfies the wave condition."""
    mask = _require_common_independent(ctx, s)
    return check_cond(ctx.quotient(mask))


def axiom_check(m: Matroid) -> bool:
    """Verify the independence axioms by full enumeration.

    Checks that the empty set is independent, that independence is
    downward closed, and that every non-maximal independent set extends
    into every maximal one.  Raises TooLarge above the exhaustive bound.

    ``_indep`` answers the empty set without asking, so the empty-set
    axiom asks ``_indep_raw(0)`` of every handle in ``m``'s expression
    tree: ``m``, each ``child`` and each of the ``parts``.
    """
    expand = [1 << e for e in bit_indices(m.universe_mask)]
    require_exhaustive("axiom check", len(expand), "elements", AXIOM_CHECK_BOUND)
    stack, seen = [m], set()
    while stack:
        h = stack.pop()
        if id(h) in seen:
            continue
        seen.add(id(h))
        if not h._indep_raw(0):
            return False
        stack.extend(getattr(h, "parts", ()))
        if hasattr(h, "child"):
            stack.append(h.child)
    indep = [s for s in iter_submasks(m.universe_mask) if m._indep(s)]
    indep_set = set(indep)
    for s in indep:
        for x in bit_indices(s):
            if s ^ (1 << x) not in indep_set:
                return False
    ext = {}
    for s in indep:
        grow = 0
        for b in expand:
            if not s & b and (s | b) in indep_set:
                grow |= b
        ext[s] = grow
    maximal = [s for s in indep if ext[s] == 0]
    for small in indep:
        if ext[small] == 0:
            continue
        for big in maximal:
            if big & ~small & ext[small] == 0:
                return False
    return True


def brute_orientations(g: DemandGraph) -> dict[str, str] | None:
    """Scan all orientations for one meeting every in-degree lower bound."""
    require_exhaustive("orientation scan", len(g.edges), "edges", ORIENT_BOUND)
    lower = {v: effective_lower_bound(g, v) for v in g.vertices}
    edges = g.edges
    for mask in range(1 << len(edges)):
        indeg = dict.fromkeys(g.vertices, 0)
        for i, (u, v, _label) in enumerate(edges):
            head = v if mask >> i & 1 else u
            indeg[head] += 1
        if all(indeg[v] >= lower[v] for v in g.vertices):
            return {
                label: (v if mask >> i & 1 else u)
                for i, (u, v, label) in enumerate(edges)
            }
    return None


# ---------------------------------------------------------------------------
# corpus fuzzer


DEFAULT_KIND_WEIGHTS = (
    ("uniform", 4),
    ("graphic", 3),
    ("partition", 3),
    ("explicit", 3),
    ("dual", 3),
    ("sum", 2),
)


@dataclass(frozen=True)
class CorpusSpec:
    """Deterministic generation plan for the test corpus."""

    seed: int = 0
    max_elements: int = 8
    pairs: int = 100
    families: int = 20
    graphs: int = 40
    max_graph_vertices: int = 6
    max_graph_edges: int = 9

    def __post_init__(self) -> None:
        # a pair needs two elements, a demand graph two vertices and an edge
        least = dict(max_elements=2, max_graph_vertices=2, max_graph_edges=1, pairs=0, families=0, graphs=0)
        for name, bound in least.items():
            if getattr(self, name) < bound:
                raise MatroidKitError(f"{name} must be at least {bound}, not {getattr(self, name)}")


@dataclass(frozen=True)
class PairInstance:
    name: str
    M: Matroid
    N: Matroid
    splits: tuple[tuple[ElementSet, ElementSet], ...]


@dataclass(frozen=True)
class FamilyInstance:
    name: str
    family: MatroidFamily


@dataclass(frozen=True)
class GraphInstance:
    name: str
    graph: DemandGraph


@dataclass
class Corpus:
    spec: CorpusSpec
    pairs: list[PairInstance] = field(default_factory=list)
    families: list[FamilyInstance] = field(default_factory=list)
    graphs: list[GraphInstance] = field(default_factory=list)
    kind_counts: dict = field(default_factory=dict)


def _gf2_rank(rows: list[int]) -> int:
    rank = 0
    basis: list[int] = []
    for row in rows:
        cur = row
        for b in basis:
            cur = min(cur, cur ^ b)
        if cur:
            basis.append(cur)
            rank += 1
    return rank


def _random_binary_explicit(rng: random.Random, labels: tuple[str, ...]) -> Matroid:
    """A genuine matroid from random binary columns, materialized as base lists.

    Only the subsets of size r = the GF(2) rank of all columns are enumerated.
    """
    n = len(labels)
    dim = rng.randint(1, max(1, n - 1))
    cols = [rng.getrandbits(dim) for _ in range(n)]
    r = _gf2_rank(cols)
    subsets = combinations(range(n), r)
    bases = [sum(1 << i for i in c) for c in subsets if _gf2_rank([cols[i] for i in c]) == r]
    return ExplicitMatroid(GroundSet(labels), bases)


def _random_leaf(rng: random.Random, labels: tuple[str, ...], weights, counts) -> Matroid:
    """A random matroid on the ground with exactly ``labels``, in that order."""
    kinds = [k for k, w in weights for _ in range(w)]
    kind = rng.choice(kinds)
    counts[kind] = counts.get(kind, 0) + 1
    n = len(labels)
    if kind == "dual":
        inner = _random_leaf(rng, labels, [(k, w) for k, w in weights if k not in ("dual", "sum")], counts)
        return inner.dual()
    if kind == "sum" and n >= 2:
        cut = rng.randint(1, n - 1)
        left = _random_leaf(rng, labels[:cut], [(k, w) for k, w in weights if k != "sum"], counts)
        right = _random_leaf(rng, labels[cut:], [(k, w) for k, w in weights if k != "sum"], counts)
        return concat_sum([left, right])
    if kind == "graphic":
        nv = rng.randint(1, max(1, n))
        vertices = tuple(f"v{i}" for i in range(nv))
        edges = []
        for label in labels:
            u = rng.randrange(nv)
            v = rng.randrange(nv) if rng.random() < 0.9 else u
            edges.append((vertices[u], vertices[v], label))
        return graphic(vertices, edges)
    if kind == "partition":
        order = list(labels)
        rng.shuffle(order)
        blocks = []
        while order:
            take = min(len(order), rng.randint(1, 3))
            chunk, order = order[:take], order[take:]
            blocks.append((chunk, rng.randint(0, take)))
        return relabel_onto(partition(blocks), GroundSet(labels))
    if kind == "explicit":
        return _random_binary_explicit(rng, labels)
    ground = GroundSet(labels)
    return uniform(ground, rng.randint(0, n))


def _component_splits(
    rng: random.Random, n: Matroid
) -> tuple[tuple[ElementSet, ElementSet], ...]:
    ground = n.ground
    full = ElementSet(ground, n.universe_mask)
    empty = ElementSet(ground, 0)
    splits = [(full, empty), (empty, full)]
    comps = n.components()
    if len(comps) > 1:
        e1 = 0
        for comp in comps:
            if rng.random() < 0.5:
                e1 |= comp.mask
        splits.append(
            (
                ElementSet(ground, n.universe_mask & ~e1),
                ElementSet(ground, e1),
            )
        )
    seen = set()
    out = []
    for e0, e1 in splits:
        if e1.mask not in seen:
            seen.add(e1.mask)
            out.append((e0, e1))
    return tuple(out)


def _random_demand_graph(rng: random.Random, spec: CorpusSpec) -> DemandGraph:
    nv = rng.randint(2, spec.max_graph_vertices)
    vertices = tuple(f"v{i}" for i in range(nv))
    ne = rng.randint(1, spec.max_graph_edges)
    edges = []
    for i in range(ne):
        u = rng.randrange(nv)
        v = rng.randrange(nv)
        while v == u:
            v = rng.randrange(nv)
        edges.append((vertices[u], vertices[v], f"e{i}"))
    degree = dict.fromkeys(vertices, 0)
    for u, v, _ in edges:
        degree[u] += 1
        degree[v] += 1
    demands = {v: rng.randint(-degree[v], degree[v]) for v in vertices}
    return DemandGraph.build(vertices, edges, demands)


def fuzz_corpus(spec: CorpusSpec) -> Corpus:
    """Deterministic corpus of pairs, families, splits and demand graphs."""
    rng = random.Random(spec.seed)
    corpus = Corpus(spec=spec)
    counts = corpus.kind_counts
    weights = list(DEFAULT_KIND_WEIGHTS)
    for i in range(spec.pairs):
        n_elems = rng.randint(2, spec.max_elements)
        labels = tuple(f"x{j}" for j in range(n_elems))
        m = _random_leaf(rng, labels, weights, counts)
        n = _random_leaf(rng, labels, weights, counts)
        corpus.pairs.append(
            PairInstance(f"pair{i:04d}", m, n, _component_splits(rng, n))
        )
    for i in range(spec.families):
        n_elems = rng.randint(1, min(6, spec.max_elements))
        labels = tuple(f"x{j}" for j in range(n_elems))
        k = rng.randint(1, MAX_FAMILY)
        members = tuple(_random_leaf(rng, labels, weights, counts) for _ in range(k))
        corpus.families.append(
            FamilyInstance(f"fam{i:04d}", MatroidFamily(members[0].ground, members))
        )
    for i in range(spec.graphs):
        corpus.graphs.append(GraphInstance(f"graph{i:04d}", _random_demand_graph(rng, spec)))
    return corpus
