"""Ground sets, bit-set element sets, and oracle-backed matroid algebra.

Matroids are expression trees (uniform, graphic, partition, explicit,
dual, restrict, contract, direct sum, relabel) evaluated through a
memoized independence oracle.  All subset arithmetic is done on Python
integers used as bit sets; element indices are fixed by the ground set
and stay stable for the lifetime of every derived handle.  Nothing
here enumerates subsets: that code, and its size bound, lives in
:mod:`matroidkit.oracle`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence


# ---------------------------------------------------------------------------
# errors


class MatroidKitError(Exception):
    """Base class for all library errors."""


class UniverseMismatch(MatroidKitError):
    """A set or element does not live on the expected universe."""


class OverlappingUniverses(MatroidKitError):
    """Direct-sum parts must occupy pairwise disjoint universes."""


class PreconditionViolated(MatroidKitError):
    """An operation was called outside its contract."""


class TooLarge(MatroidKitError):
    """Instance exceeds the configured exhaustive bound."""


class NotCommonIndependent(MatroidKitError):
    """The given set is not independent in both matroids."""


class StateInvariantBroken(MatroidKitError):
    """A solver state no longer satisfies its invariants."""


class PostconditionFailed(MatroidKitError):
    """A guaranteed property failed to hold; indicates a solver bug."""


class ExtensionFailed(MatroidKitError):
    """No common base exists where one was required."""


class Stuck(MatroidKitError):
    """The augmenting loop made no progress within its iteration cap."""


class DemandOutOfRange(MatroidKitError):
    """An in-degree demand exceeds the vertex degree."""


class CertificateInvalid(MatroidKitError):
    """An emitted certificate failed independent verification."""


class InvalidInputPackCov(MatroidKitError):
    """The supplied packing/covering result is not valid for the pair."""


class InvalidDocument(MatroidKitError):
    """A JSON document does not match the expected schema."""


# ---------------------------------------------------------------------------
# bit-set helpers


def bit_indices(mask: int) -> Iterator[int]:
    """Yield the indices of the set bits of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask(elements: Iterable[int]) -> int:
    """The bit set of ``elements``."""
    out = 0
    for e in elements:
        out |= 1 << e
    return out


# ---------------------------------------------------------------------------
# ground sets and element sets


@dataclass(frozen=True)
class GroundSet:
    """A fixed finite universe of labelled elements."""

    labels: tuple[str, ...]
    _index: dict = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self) -> None:
        if len(set(self.labels)) != len(self.labels):
            raise MatroidKitError("ground set labels must be distinct")
        object.__setattr__(self, "_index", {s: i for i, s in enumerate(self.labels)})

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def full_mask(self) -> int:
        return (1 << len(self.labels)) - 1

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise UniverseMismatch(f"unknown element label {label!r}") from None

    def label(self, i: int) -> str:
        return self.labels[i]

    def empty(self) -> "ElementSet":
        return ElementSet(self, 0)

    def full(self) -> "ElementSet":
        return ElementSet(self, self.full_mask)

    def subset(self, labels: Iterable[str]) -> "ElementSet":
        mask = 0
        for s in labels:
            mask |= 1 << self.index(s)
        return ElementSet(self, mask)


@dataclass(frozen=True)
class ElementSet:
    """A subset of a ground set with exact bit-set semantics."""

    ground: GroundSet
    mask: int

    def __post_init__(self) -> None:
        if self.mask & ~self.ground.full_mask:
            raise UniverseMismatch("set has elements outside its ground set")

    def _joint(self, other: "ElementSet") -> None:
        if self.ground.labels != other.ground.labels:
            raise UniverseMismatch("element sets live on different ground sets")

    def __or__(self, other: "ElementSet") -> "ElementSet":
        self._joint(other)
        return ElementSet(self.ground, self.mask | other.mask)

    def __and__(self, other: "ElementSet") -> "ElementSet":
        self._joint(other)
        return ElementSet(self.ground, self.mask & other.mask)

    def __xor__(self, other: "ElementSet") -> "ElementSet":
        self._joint(other)
        return ElementSet(self.ground, self.mask ^ other.mask)

    def __sub__(self, other: "ElementSet") -> "ElementSet":
        self._joint(other)
        return ElementSet(self.ground, self.mask & ~other.mask)

    def __le__(self, other: "ElementSet") -> bool:
        self._joint(other)
        return self.mask & ~other.mask == 0

    def __contains__(self, index: int) -> bool:
        return bool(self.mask >> index & 1)

    def __iter__(self) -> Iterator[int]:
        return bit_indices(self.mask)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def labels(self) -> tuple[str, ...]:
        return tuple(self.ground.label(i) for i in self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "{" + ",".join(self.labels()) + "}"


# ---------------------------------------------------------------------------
# matroid handles


class Matroid:
    """Oracle-backed matroid on a subset of a ground set.

    Handles are immutable after construction, except for pure caches,
    which are replaced atomically: the memo dictionaries, which only
    gain pure oracle answers; the cached dual; a contraction's base of
    its contracted set, built on first use; and the graphic and
    partition kernels' anchors, one attribute each that a query or a
    structural span or circuit answer reads at most once and replaces
    with one assignment.  So concurrent queries from several threads are
    safe under CPython and always return the same verdicts.

    ``_indep`` answers the empty set True without asking the oracle:
    every handle kind makes it independent by construction.
    ``oracle.axiom_check`` asks ``_indep_raw(0)`` of every handle in the
    expression tree.
    """

    kind = "abstract"

    def __init__(self, ground: GroundSet, universe_mask: int) -> None:
        self.ground = ground
        self.universe_mask = universe_mask
        self._memo_indep: dict[int, bool] = {}
        self._memo_base: dict[int, int] = {}
        self._dual_cache: "Matroid | None" = None

    # -- low-level mask oracle ------------------------------------------

    def _indep_raw(self, mask: int) -> bool:
        raise NotImplementedError

    def _indep(self, mask: int) -> bool:
        memo = self._memo_indep
        hit = memo.get(mask)
        if hit is None:
            if not mask:
                return True
            hit = memo[mask] = self._indep_raw(mask)
        return hit

    def _max_indep(self, mask: int) -> int:
        """Greedy maximal independent subset of ``mask``, smallest indices first."""
        memo = self._memo_base
        hit = memo.get(mask)
        if hit is not None:
            return hit
        cur = 0
        rest = mask
        while rest:
            low = rest & -rest
            rest ^= low
            if self._indep(cur | low):
                cur |= low
        memo[mask] = cur
        return cur

    def _rank(self, mask: int) -> int:
        return self._max_indep(mask).bit_count()

    def _span(self, mask: int) -> int:
        return mask | self._spanned(self._max_indep(mask), self.universe_mask & ~mask)

    def _spanned(self, imask: int, among: int) -> int:
        """The elements of ``among - imask`` that the independent set ``imask`` spans.

        The query version: one query, I + x, per element, in ascending
        order.  A handle whose structure answers the whole question at
        once may override it; this version stays the reference.
        """
        out = 0
        among &= ~imask
        while among:
            low = among & -among
            among ^= low
            if not self._indep(imask | low):
                out |= low
        return out

    def _loops_mask(self) -> int:
        return self._span(0)

    def _spans(self, imask: int, part: int) -> bool:
        """Whether the independent set ``imask`` spans every element of ``part``.

        An element outside an independent set is spanned by it exactly
        when adding it makes the set dependent, so this asks one query per
        element of ``part - imask``, and stops at the first it is not.
        """
        for x in bit_indices(part & ~imask):
            if self._indep(imask | 1 << x):
                return False
        return True

    def _circuits(self, base: int, tails: int, among: int) -> int:
        """The elements of ``among`` in the circuit of base + x, for some x of ``tails - base``.

        This is the query version, which a handle may override as it may
        ``_spanned``.  Tails are taken least first, until every element of
        ``among`` is found.  Only an x that the independent set ``base``
        spans has a circuit C, and base + x - S is independent exactly
        when S meets C.  So the rest of ``among`` is asked once, then found
        by halving: every part on the stack meets C and is split in two;
        when the first half misses C, the second half meets it, and that
        is not asked.
        """
        found = 0
        tails &= ~base
        while tails and among & ~found:
            x = tails & -tails
            tails ^= x
            dep, rest = base | x, among & ~found
            if self._indep(dep) or not self._indep(dep & ~rest):
                continue
            stack = [list(bit_indices(rest))]
            while stack:
                part = stack.pop()
                if len(part) == 1:
                    found |= 1 << part[0]
                    continue
                mid = len(part) // 2
                low, high = part[:mid], part[mid:]
                low_meets = self._indep(dep & ~_mask(low))
                if low_meets:
                    stack.append(low)
                if not low_meets or self._indep(dep & ~_mask(high)):
                    stack.append(high)
        return found

    def _check_subset(self, s: ElementSet) -> int:
        if s.ground.labels != self.ground.labels:
            raise UniverseMismatch("set lives on a different ground set")
        if s.mask & ~self.universe_mask:
            raise UniverseMismatch("set has elements outside the matroid universe")
        return s.mask

    # -- public API ------------------------------------------------------

    @property
    def size(self) -> int:
        return self.universe_mask.bit_count()

    def elements(self) -> ElementSet:
        return ElementSet(self.ground, self.universe_mask)

    def rank(self, s: ElementSet | None = None) -> int:
        mask = self.universe_mask if s is None else self._check_subset(s)
        return self._rank(mask)

    def span(self, s: ElementSet) -> ElementSet:
        return ElementSet(self.ground, self._span(self._check_subset(s)))

    def loops(self) -> ElementSet:
        return ElementSet(self.ground, self._loops_mask())

    def dual(self) -> "Matroid":
        """The dual handle, cached both ways: ``m.dual().dual() is m``."""
        if self._dual_cache is None:
            d = DualMatroid(self)
            d._dual_cache = self
            self._dual_cache = d
        return self._dual_cache

    def _closed_dual(self) -> "Matroid | None":
        """A handle that answers like the dual from a closed form, or None
        when the dual replays this handle's greedy (``DualMatroid``)."""
        return None

    def restrict(self, s: ElementSet) -> "Matroid":
        mask = self._check_subset(s)
        if mask == self.universe_mask:
            return self
        if isinstance(self, RestrictMatroid):
            return RestrictMatroid(self.child, mask)
        return RestrictMatroid(self, mask)

    def delete(self, s: ElementSet) -> "Matroid":
        mask = self._check_subset(s)
        return self.restrict(ElementSet(self.ground, self.universe_mask & ~mask))

    def contract(self, s: ElementSet) -> "Matroid":
        mask = self._check_subset(s)
        if mask == 0:
            return self
        if isinstance(self, ContractMatroid):
            return ContractMatroid(self.child, self.contracted_mask | mask)
        return ContractMatroid(self, mask)

    def onto(self, s: ElementSet) -> "Matroid":
        """Contraction onto ``s``: contract everything outside it."""
        mask = self._check_subset(s)
        return self.contract(ElementSet(self.ground, self.universe_mask & ~mask))

    # -- components ------------------------------------------------------

    def components(self) -> list[ElementSet]:
        """Partition of the universe into circuit-connectivity classes.

        Two elements share a class exactly when the fundamental circuits
        of one greedy base link them (Krogdahl, "The dependence graph for
        bases in matroids", 1977).  The greedy dropped each x outside the
        base as dependent on P, the base below x, so one ``_circuits``
        question per x against P finds the circuit C of P + x, which is
        that of base + x, by halving in at most 1 + 2|C|ceil(log2(r)) more
        queries (the greedy asked P + x), not r.  Loops and coloops come
        out as singleton classes.
        """
        base = self._max_indep(self.universe_mask)
        classes: list[int] = []
        for x in bit_indices(self.universe_mask & ~base):
            prefix = base & ((1 << x) - 1)
            merged = 1 << x | self._circuits(prefix, 1 << x, prefix)
            merged |= sum(c for c in classes if c & merged)  # the classes are disjoint
            classes = [c for c in classes if not c & merged] + [merged]
        covered = sum(classes)
        classes.extend(1 << e for e in bit_indices(self.universe_mask & ~covered))
        classes.sort(key=lambda m: m & -m)
        return [ElementSet(self.ground, m) for m in classes]

    def _json_doc(self) -> dict:
        raise MatroidKitError(f"{self.kind} handle has no JSON form")


# ---------------------------------------------------------------------------
# concrete nodes


class UniformMatroid(Matroid):
    kind = "uniform"

    def __init__(self, ground: GroundSet, r: int) -> None:
        if r < 0:
            raise MatroidKitError("uniform rank must be non-negative")
        super().__init__(ground, ground.full_mask)
        self.r = r

    def _indep_raw(self, mask: int) -> bool:
        return mask.bit_count() <= self.r

    def _closed_dual(self) -> Matroid:
        # U(r, n)* = U(n - r, n); a rank above n is n
        return UniformMatroid(self.ground, max(0, self.ground.size - self.r))

    def _json_doc(self) -> dict:
        return {
            "kind": "uniform",
            "n": self.ground.size,
            "r": self.r,
            "labels": list(self.ground.labels),
        }


class GraphicMatroid(Matroid):
    """Cycle matroid of a multigraph; self-loop edges are matroid loops.

    The kernel answers from an anchor, an edge set known to be a forest,
    kept as that forest rooted: per vertex its root, parent, the bit of
    the edge to the parent, and its depth.  A query inside the anchor is
    a forest.  A query that adds one edge x = (u, v) to the anchor and
    drops a set D of its edges is a forest exactly when u and v lie in
    different trees, or the tree path between them, walked up by depth,
    meets D.  When D is empty and u and v lie in different trees, the
    anchor grows by x in place of a rebuild: v's tree is re-rooted at v
    and hung from u (``_linked``), so a greedy that adds one edge at a
    time keeps its anchor.  Any other query runs the union-find and, when
    it finds a forest, becomes the new anchor.

    Span and circuit questions with two or more candidates are answered
    from the graph, with no query (``_spanned``, ``_circuits``, which
    roots the independent set once and walks each tail's tree path).
    """

    kind = "graphic"

    def __init__(
        self,
        ground: GroundSet,
        vertices: tuple[str, ...],
        endpoints: tuple[tuple[int, int], ...],
    ) -> None:
        if len(endpoints) != ground.size:
            raise MatroidKitError("one endpoint pair required per edge label")
        super().__init__(ground, ground.full_mask)
        self.vertices = vertices
        self.endpoints = endpoints
        self._no_edges = list(range(len(vertices)))
        self._anchor = self._rooted(0)

    def _rooted(self, forest: int) -> tuple:
        """The anchor tuple of the forest ``forest``: (forest, root, up, up_bit, depth).

        Per vertex: the root of its tree, its parent (``up``), the bit of the
        edge to its parent, and its depth; a root is its own parent.
        """
        n = len(self.vertices)
        root = self._no_edges[:]
        up = self._no_edges[:]
        up_bit = [0] * n
        depth = [0] * n
        if forest:
            adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
            endpoints = self.endpoints
            rest = forest
            while rest:
                bit = rest & -rest
                rest ^= bit
                u, v = endpoints[bit.bit_length() - 1]
                adj[u].append((v, bit))
                adj[v].append((u, bit))
            for r in range(n):
                if not adj[r] or up[r] != r:
                    continue
                stack = [r]
                while stack:
                    x = stack.pop()
                    for y, bit in adj[x]:
                        if bit != up_bit[x]:
                            root[y] = r
                            up[y] = x
                            up_bit[y] = bit
                            depth[y] = depth[x] + 1
                            stack.append(y)
        return forest, root, up, up_bit, depth

    def _linked(self, held: tuple, bit: int, u: int, v: int) -> tuple:
        """The anchor tuple of ``held``'s forest plus the edge ``bit`` = (u, v),
        with u and v in different trees.

        The parent links from v to its old root are reversed and v hangs
        from u by the new edge; the vertices of v's old tree then take u's
        root, and their depths are walked from u.
        """
        forest, root, up, up_bit, depth = held
        root, up, up_bit, depth = root[:], up[:], up_bit[:], depth[:]
        old, new = root[v], root[u]
        child, child_bit, x = u, bit, v
        while True:
            parent, parent_bit = up[x], up_bit[x]
            up[x], up_bit[x] = child, child_bit
            if parent == x:
                break
            child, child_bit, x = x, parent_bit, parent
        for w in [w for w, r in enumerate(root) if r == old]:
            chain = []
            while root[w] == old:
                root[w] = new
                chain.append(w)
                w = up[w]
            d = depth[w]
            for y in reversed(chain):
                d += 1
                depth[y] = d
        return forest | bit, root, up, up_bit, depth

    def _indep_raw(self, mask: int) -> bool:
        # One read of the anchor and one assignment to replace it, so a
        # query on another thread sees the old anchor or the new, both forests.
        held = self._anchor
        anchor, root = held[0], held[1]
        extra = mask & ~anchor
        if not extra:
            return True
        if not extra & (extra - 1):
            u, v = self.endpoints[extra.bit_length() - 1]
            dropped = anchor & ~mask
            if root[u] != root[v]:
                if not dropped:
                    self._anchor = self._linked(held, extra, u, v)
                return True
            # A self-loop has the empty path and is dependent.
            return bool(dropped and self._path(held, u, v, dropped) & dropped)
        if self._forest(mask) is None:
            return False
        self._anchor = self._rooted(mask)
        return True

    @staticmethod
    def _path(held: tuple, u: int, v: int, stop: int = 0) -> int:
        """The edges of the tree path from u to v in the rooted forest ``held``.

        The walk takes the deeper end up to the other's depth, then both
        ends up to where they meet; it returns early, with the edges
        walked so far, at the first edge in ``stop``.  u and v must lie
        in one tree.
        """
        _forest, _root, up, up_bit, depth = held
        path = 0
        du, dv = depth[u], depth[v]
        if du < dv:
            u, v, du, dv = v, u, dv, du
        while du > dv:
            path |= up_bit[u]
            if path & stop:
                return path
            u = up[u]
            du -= 1
        while u != v:
            path |= up_bit[u] | up_bit[v]
            if path & stop:
                return path
            u = up[u]
            v = up[v]
        return path

    def _forest(self, mask: int) -> list[int] | None:
        """Union-find over the edges of ``mask``, least first: the parent
        links, or None at the first edge that closes a cycle (a self-loop
        has u == v, so it fails the same root test).  Path halving is
        inlined, from the forest with no edges.
        """
        parent = self._no_edges[:]
        endpoints = self.endpoints
        rest = mask
        while rest:
            low = rest & -rest
            rest ^= low
            u, v = endpoints[low.bit_length() - 1]
            while parent[u] != u:
                parent[u] = u = parent[parent[u]]
            while parent[v] != v:
                parent[v] = v = parent[parent[v]]
            if u == v:
                return None
            parent[v] = u
        return parent

    def _spanned(self, imask: int, among: int) -> int:
        """One union-find over I, then one root test per candidate.

        The query version answers a question with at most one candidate
        (the memo usually holds it) and a dependent I.
        """
        among &= ~imask
        parent = self._forest(imask) if among & (among - 1) else None
        if parent is None:
            return Matroid._spanned(self, imask, among)
        endpoints = self.endpoints
        out = 0
        for x in bit_indices(among):
            u, v = endpoints[x]
            while parent[u] != u:
                parent[u] = u = parent[parent[u]]
            while parent[v] != v:
                parent[v] = v = parent[parent[v]]
            if u == v:
                out |= 1 << x
        return out

    def _circuits(self, base: int, tails: int, among: int) -> int:
        """Each tail x = (u, v) with both ends in one tree of ``base``, plus
        the tree path between them, from ``base`` rooted once.

        The anchor is used as it is when it already is ``base``; else
        ``base`` is rooted and becomes the anchor.  The query version
        answers a question with at most one candidate in ``among`` (the
        memo usually holds it), unless the anchor is ``base``, and a
        ``base`` that is not a forest.
        """
        tails &= ~base
        held = self._anchor
        if held[0] != base:
            if not among & (among - 1) or self._forest(base) is None:
                return Matroid._circuits(self, base, tails, among)
            self._anchor = held = self._rooted(base)
        root, endpoints = held[1], self.endpoints
        found = 0
        for x in bit_indices(tails):
            u, v = endpoints[x]
            if root[u] == root[v]:
                found |= 1 << x | self._path(held, u, v)
        return found & among

    def _json_doc(self) -> dict:
        return {
            "kind": "graphic",
            "vertices": list(self.vertices),
            "edges": [
                [self.vertices[u], self.vertices[v], label]
                for (u, v), label in zip(self.endpoints, self.ground.labels)
            ],
        }


class PartitionMatroid(Matroid):
    """Per-block capacities; elements outside every block are unconstrained.

    The kernel answers from an anchor, the last set it found independent.
    Every block fits within its capacity on the anchor, so a query checks
    only the blocks that hold an element the anchor lacks, each once,
    read from a per-element (block, cap) table.  Span and circuit
    questions with two or more candidates are answered from the blocks,
    with no query (``_spanned``, ``_circuits``).
    """

    kind = "partition"

    def __init__(self, ground: GroundSet, blocks: tuple[tuple[int, int], ...]) -> None:
        seen = 0
        block_of: list[tuple[int, int]] = [(0, 0)] * ground.size
        for bmask, cap in blocks:
            if bmask & ~ground.full_mask:
                raise UniverseMismatch("block outside the ground set")
            if bmask & seen:
                raise MatroidKitError("partition blocks must be disjoint")
            if cap < 0:
                raise MatroidKitError("block capacity must be non-negative")
            seen |= bmask
            for e in bit_indices(bmask):
                block_of[e] = (bmask, cap)
        super().__init__(ground, ground.full_mask)
        self.blocks = blocks
        self._covered = seen
        self._block_of = block_of
        self._anchor = 0

    def _indep_raw(self, mask: int) -> bool:
        extra = mask & ~self._anchor & self._covered
        block_of = self._block_of
        while extra:
            bmask, cap = block_of[extra.bit_length() - 1]
            if (mask & bmask).bit_count() > cap:
                return False
            extra &= ~bmask
        self._anchor = mask
        return True

    def _closed_dual(self) -> Matroid:
        # The direct sum of U(cap, B) over the blocks and a free part F:
        # each block becomes cap |B| - cap (0 when cap exceeds |B|), F a cap-0 block.
        blocks = [(bmask, max(0, bmask.bit_count() - cap)) for bmask, cap in self.blocks]
        if free := self.universe_mask & ~self._covered:
            blocks.append((free, 0))
        return PartitionMatroid(self.ground, tuple(blocks))

    def _spanned(self, imask: int, among: int) -> int:
        """The candidates whose block I fills; an element outside every
        block is never spanned.

        Only the blocks that hold a candidate or an element of I outside
        the anchor are read, each once, and I, found independent, becomes
        the anchor.  The query version answers a question with at most one
        candidate and a dependent I.
        """
        among &= ~imask
        if not among & (among - 1):
            return Matroid._spanned(self, imask, among)
        block_of = self._block_of
        out = 0
        touched = (imask & ~self._anchor | among) & self._covered
        while touched:
            bmask, cap = block_of[touched.bit_length() - 1]
            held = (imask & bmask).bit_count()
            if held > cap:
                return Matroid._spanned(self, imask, among)
            if held >= cap:
                out |= among & bmask
            touched &= ~bmask
        self._anchor = imask
        return out

    def _circuits(self, base: int, tails: int, among: int) -> int:
        """Each tail whose block ``base`` fills, plus that block's part of ``base``.

        Only the blocks that hold a tail are read, each once; a tail
        outside every block has no circuit.  The query version answers a
        question with at most one candidate in ``among`` and a ``base``
        that holds more than its cap in a block it reads.
        """
        tails &= ~base
        if not among & (among - 1):
            return Matroid._circuits(self, base, tails, among)
        block_of = self._block_of
        found = 0
        touched = tails & self._covered
        while touched:
            bmask, cap = block_of[touched.bit_length() - 1]
            held = (base & bmask).bit_count()
            if held > cap:
                return Matroid._circuits(self, base, tails, among)
            if held == cap:
                found |= (base | tails) & bmask
            touched &= ~bmask
        return found & among

    def _json_doc(self) -> dict:
        return {
            "kind": "partition",
            "blocks": [
                {
                    "elements": [self.ground.label(i) for i in bit_indices(bmask)],
                    "cap": cap,
                }
                for bmask, cap in self.blocks
            ],
        }


class ExplicitMatroid(Matroid):
    """Independence given by an explicit list of maximal independent sets.

    Accepts base lists or arbitrary independent-set lists; the bases are
    the largest listed sets, and a smaller set under none of them is an
    error, since all bases have one size.  The other axioms are checked
    on demand by :func:`matroidkit.oracle.axiom_check`.
    """

    kind = "explicit"

    def __init__(self, ground: GroundSet, sets: Sequence[int]) -> None:
        super().__init__(ground, ground.full_mask)
        pool = set(sets) or {0}
        top = max(s.bit_count() for s in pool)
        maximal = [s for s in pool if s.bit_count() == top]
        if any(s.bit_count() < top and all(s & ~b for b in maximal) for s in pool):
            raise MatroidKitError("explicit maximal sets differ in size; no matroid has them")
        self.bases = tuple(sorted(maximal))

    def _indep_raw(self, mask: int) -> bool:
        return any(mask & ~b == 0 for b in self.bases)

    def _json_doc(self) -> dict:
        return {
            "kind": "explicit",
            "universe": list(self.ground.labels),
            "bases": [
                [self.ground.label(i) for i in bit_indices(b)] for b in self.bases
            ],
        }


class DualMatroid(Matroid):
    """The dual: X is independent exactly when r(U - X) = r(U) in the child.

    The handle answers from a closed form, the child's ``_closed_dual()``,
    when the child has one.  A partition matroid's dual is a partition matroid and
    U(r, n)* is U(n - r, n).  Duality passes through relabelings, direct
    sums and minors, (N|X)* = N*/(U - X) and (N/C)* = N*|(U - C) (Oxley,
    *Matroid Theory*, ch. 3-4), so each of those has a closed form
    whenever the dual of its child (of some part, for a sum) does not
    replay.  The closed form answers every query, span and circuit
    question and shares this handle's memos; the handle keeps kind
    "dual", its child and the child's JSON form.  The duals of graphic
    and explicit matroids, and of minors, relabelings and sums of those
    alone, replay the child's greedy.

    The replay kernel replays only the part of the greedy rank of U - X
    whose answer is not already known.  Let B be the child's greedy base
    of U (least indices first).  When X misses B, B lies in U - X and the
    answer is True.  Otherwise let b0 be the least element of B & X.
    When the greedy over U - X reaches b0 it holds exactly B below b0:
    those base elements are not in X, and every other element below b0
    is spanned by the base elements below it.  So the replay starts
    there and scans U - X above b0.  An element e joins with no query
    while held + e lies inside B, since every subset of B is
    independent; otherwise it asks ``child._indep(held | e)``, the very
    mask the greedy asks at that point.  The replay stops with True when
    the held set reaches |B| and with False when too few elements
    remain.  So the child is asked a subset of the masks that the two
    full ranks ask, and the answers are theirs.
    """

    kind = "dual"

    def __init__(self, child: Matroid) -> None:
        super().__init__(child.ground, child.universe_mask)
        self.child = child
        self._closed = closed = child._closed_dual()
        if closed is not None:
            self._memo_indep = closed._memo_indep
            self._memo_base = closed._memo_base

    def _indep_raw(self, mask: int) -> bool:
        if self._closed is not None:
            return self._closed._indep_raw(mask)
        child = self.child
        base = child._max_indep(self.universe_mask)
        hit = base & mask
        if not hit:
            return True
        low = hit & -hit
        held = base & (low - 1)
        need = base.bit_count() - held.bit_count()
        rest = self.universe_mask & ~mask & ~(low - 1)
        while need:
            if rest.bit_count() < need:
                return False
            e = rest & -rest
            rest ^= e
            grown = held | e
            if not grown & ~base or child._indep(grown):
                held = grown
                need -= 1
        return True

    def _spanned(self, imask: int, among: int) -> int:
        if self._closed is None:
            return Matroid._spanned(self, imask, among)
        return self._closed._spanned(imask, among)

    def _circuits(self, base: int, tails: int, among: int) -> int:
        if self._closed is None:
            return Matroid._circuits(self, base, tails, among)
        return self._closed._circuits(base, tails, among)

    def _json_doc(self) -> dict:
        return {"kind": "dual", "of": self.child._json_doc()}


def _replays(m: Matroid) -> bool:
    """Whether ``m`` is a dual answered by the replay kernel, not a closed form."""
    return isinstance(m, DualMatroid) and m._closed is None


class RestrictMatroid(Matroid):
    kind = "restrict"

    def __init__(self, child: Matroid, mask: int) -> None:
        if mask & ~child.universe_mask:
            raise UniverseMismatch("restriction outside the child universe")
        super().__init__(child.ground, mask)
        self.child = child

    def _indep_raw(self, mask: int) -> bool:
        return self.child._indep(mask)

    def _closed_dual(self) -> Matroid | None:
        d = self.child.dual()
        if _replays(d):
            return None
        return ContractMatroid(d, d.universe_mask & ~self.universe_mask)

    def _spanned(self, imask: int, among: int) -> int:
        return self.child._spanned(imask, among)

    def _circuits(self, base: int, tails: int, among: int) -> int:
        return self.child._circuits(base, tails, among)

    def _json_doc(self) -> dict:
        return {
            "kind": "restrict",
            "of": self.child._json_doc(),
            "set": [self.ground.label(i) for i in bit_indices(self.universe_mask)],
        }


class ContractMatroid(Matroid):
    # With B_C a base of the contracted set C, X is independent in M/C
    # exactly when X | B_C is independent in M.  So I spans x in M/C
    # exactly when I | B_C spans it in M, and the circuit of I + x in M/C
    # is the circuit of I | B_C + x in M less B_C: the child answers both.
    # B_C is built on first use, so a handle asked only the empty set,
    # which Matroid._indep answers itself, never runs that greedy.
    kind = "contract"

    def __init__(self, child: Matroid, mask: int) -> None:
        if mask & ~child.universe_mask:
            raise UniverseMismatch("contraction outside the child universe")
        super().__init__(child.ground, child.universe_mask & ~mask)
        self.child = child
        self.contracted_mask = mask

    @cached_property
    def _base_of_contracted(self) -> int:
        return self.child._max_indep(self.contracted_mask)

    def _indep_raw(self, mask: int) -> bool:
        return self.child._indep(mask | self._base_of_contracted)

    def _closed_dual(self) -> Matroid | None:
        d = self.child.dual()
        if _replays(d):
            return None
        return RestrictMatroid(d, self.universe_mask)

    def _spanned(self, imask: int, among: int) -> int:
        return self.child._spanned(imask | self._base_of_contracted, among)

    def _circuits(self, base: int, tails: int, among: int) -> int:
        contracted = self._base_of_contracted
        return self.child._circuits(base | contracted, tails, among & ~contracted)

    def _json_doc(self) -> dict:
        return {
            "kind": "contract",
            "of": self.child._json_doc(),
            "set": [
                self.ground.label(i) for i in bit_indices(self.contracted_mask)
            ],
        }


class DirectSumMatroid(Matroid):
    kind = "sum"

    def __init__(self, parts: Sequence[Matroid]) -> None:
        if not parts:
            raise MatroidKitError("direct sum needs at least one part")
        ground = parts[0].ground
        union = 0
        for p in parts:
            if p.ground.labels != ground.labels:
                raise UniverseMismatch("direct-sum parts live on different ground sets")
            if p.universe_mask & union:
                raise OverlappingUniverses("direct-sum parts overlap")
            union |= p.universe_mask
        super().__init__(ground, union)
        self.parts = tuple(parts)

    def _indep_raw(self, mask: int) -> bool:
        return all(p._indep(mask & p.universe_mask) for p in self.parts)

    def _closed_dual(self) -> Matroid | None:
        duals = [p.dual() for p in self.parts]
        if all(_replays(d) for d in duals):
            return None
        return DirectSumMatroid(duals)

    def _json_doc(self) -> dict:
        return {"kind": "sum", "parts": [p._json_doc() for p in self.parts]}


class RelabelMatroid(Matroid):
    """Injective re-indexing of a child matroid onto a new ground set."""

    kind = "relabel"

    def __init__(
        self, ground: GroundSet, child: Matroid, mapping: Mapping[int, int]
    ) -> None:
        dom = 0
        img = 0
        for c, n in mapping.items():
            dom |= 1 << c
            if img & (1 << n):
                raise MatroidKitError("relabel mapping is not injective")
            img |= 1 << n
        if dom != child.universe_mask:
            raise MatroidKitError("relabel mapping must cover the child universe")
        if img & ~ground.full_mask:
            raise UniverseMismatch("relabel image outside the new ground set")
        super().__init__(ground, img)
        self.child = child
        self._to_child = {n: c for c, n in mapping.items()}
        self.mapping = dict(mapping)

    def _indep_raw(self, mask: int) -> bool:
        cmask = 0
        for e in bit_indices(mask):
            cmask |= 1 << self._to_child[e]
        return self.child._indep(cmask)

    def _closed_dual(self) -> Matroid | None:
        d = self.child.dual()
        if _replays(d):
            return None
        return RelabelMatroid(self.ground, d, self.mapping)

    def _json_doc(self) -> dict:
        # Only label-preserving relabelings (as made by relabel_onto)
        # have a standalone JSON form.
        for c, n in self.mapping.items():
            if self.child.ground.label(c) != self.ground.label(n):
                raise MatroidKitError("relabel with changed labels has no JSON form")
        return self.child._json_doc()


# ---------------------------------------------------------------------------
# constructors


def uniform(ground: GroundSet, r: int) -> UniformMatroid:
    return UniformMatroid(ground, r)


def free(ground: GroundSet) -> UniformMatroid:
    """Every subset independent."""
    return UniformMatroid(ground, ground.size)


def zero(ground: GroundSet) -> UniformMatroid:
    """Rank 0: every element a loop."""
    return UniformMatroid(ground, 0)


def read_edges(
    vertices: Sequence[str], edges: Sequence[Sequence[str]]
) -> tuple[dict[str, int], list[tuple[str, str, str]]]:
    """The vertex index and the (u, v, label) edges of an edge list, checked.

    Each edge is a sequence (u, v) or (u, v, label), and edge i is
    labelled ``e{i}`` by default.  Labels are compared as the strings
    they become and must be distinct, vertex names must be distinct, and
    both endpoints must be vertices.  Self-loops are kept; what they mean
    is the caller's.
    """
    vlist = tuple(vertices)
    vindex = {v: i for i, v in enumerate(vlist)}
    if len(vindex) != len(vlist):
        raise MatroidKitError("vertex names must be distinct")
    out = []
    labels = set()
    for i, edge in enumerate(edges):
        if not isinstance(edge, Sequence) or len(edge) not in (2, 3):
            raise MatroidKitError(f"edge needs two endpoints and an optional label: {edge!r}")
        u, v = edge[0], edge[1]
        if u not in vindex or v not in vindex:
            raise MatroidKitError(f"edge endpoint not among the vertices: {edge!r}")
        label = str(edge[2]) if len(edge) == 3 else f"e{i}"
        if label in labels:
            raise MatroidKitError(f"duplicate edge label {label!r}")
        labels.add(label)
        out.append((u, v, label))
    return vindex, out


def graphic(
    vertices: Sequence[str],
    edges: Sequence[tuple[str, str] | tuple[str, str, str] | list],
) -> GraphicMatroid:
    """The cycle matroid of a multigraph (``read_edges``); self-loops are loops."""
    vindex, read = read_edges(vertices, edges)
    return GraphicMatroid(
        GroundSet(tuple(label for _u, _v, label in read)),
        tuple(vindex),
        tuple((vindex[u], vindex[v]) for u, v, _label in read),
    )


def partition(blocks: Sequence[tuple[Sequence[str], int]]) -> PartitionMatroid:
    """Partition matroid whose universe is the concatenation of the blocks."""
    labels: list[str] = []
    for elems, _ in blocks:
        labels.extend(elems)
    ground = GroundSet(tuple(labels))
    packed = tuple(
        (ground.subset(elems).mask, cap) for elems, cap in blocks
    )
    return PartitionMatroid(ground, packed)


def explicit(
    universe: Sequence[str], sets: Sequence[Iterable[str]]
) -> ExplicitMatroid:
    ground = GroundSet(tuple(universe))
    return ExplicitMatroid(ground, [ground.subset(s).mask for s in sets])


def direct_sum(parts: Sequence[Matroid]) -> Matroid:
    """Direct sum of parts on one shared ground set with disjoint universes."""
    if len(parts) == 1:
        return parts[0]
    return DirectSumMatroid(parts)


def concat_sum(parts: Sequence[Matroid]) -> Matroid:
    """Direct sum of matroids on distinct ground sets with distinct labels."""
    labels: list[str] = []
    for p in parts:
        labels.extend(p.ground.label(i) for i in bit_indices(p.universe_mask))
    if len(set(labels)) != len(labels):
        raise OverlappingUniverses("direct-sum parts reuse an element label")
    ground = GroundSet(tuple(labels))
    return direct_sum([relabel_onto(p, ground) for p in parts])


def relabel_onto(m: Matroid, ground: GroundSet) -> Matroid:
    """``m`` on ``ground``, each element moved to the index of its label.

    ``m`` itself when its ground already has those labels in that order.
    """
    if m.ground.labels == ground.labels:
        return m
    mapping = {i: ground.index(m.ground.label(i)) for i in bit_indices(m.universe_mask)}
    return RelabelMatroid(ground, m, mapping)


# ---------------------------------------------------------------------------
# JSON expression documents


def matroid_to_json(m: Matroid) -> dict:
    return m._json_doc()


def _listed(value, name: str) -> list:
    if not isinstance(value, list):  # a string would be read letter by letter
        raise TypeError(f"{name} must be a JSON list")
    return value


def _integer(value, name: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):  # int() floors 1.9; True is an int
        raise TypeError(f"{name} must be an integer: {value!r}")
    return value


def matroid_from_json(doc: Mapping) -> Matroid:
    if not isinstance(doc, Mapping):
        raise InvalidDocument("matroid document must be a JSON object")
    kind = doc.get("kind")
    try:
        if kind == "uniform":
            n = _integer(doc["n"], "n")
            labels = _listed(doc.get("labels", []), "labels") or [f"e{i}" for i in range(n)]
            if len(labels) != n:
                raise InvalidDocument("uniform: labels must have length n")
            return uniform(GroundSet(tuple(labels)), _integer(doc["r"], "r"))
        if kind == "graphic":
            return graphic(_listed(doc["vertices"], "vertices"), doc["edges"])
        if kind == "partition":
            return partition(
                [(_listed(blk["elements"], "elements"), _integer(blk["cap"], "cap")) for blk in doc["blocks"]]
            )
        if kind == "explicit":
            bases = [_listed(b, "each of bases") for b in _listed(doc["bases"], "bases")]
            return explicit(_listed(doc["universe"], "universe"), bases)
        if kind == "dual":
            return matroid_from_json(doc["of"]).dual()
        if kind == "restrict":
            child = matroid_from_json(doc["of"])
            return child.restrict(child.ground.subset(_listed(doc["set"], "set")))
        if kind == "contract":
            child = matroid_from_json(doc["of"])
            return child.contract(child.ground.subset(_listed(doc["set"], "set")))
        if kind == "sum":
            return concat_sum([matroid_from_json(p) for p in doc["parts"]])
    except InvalidDocument:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidDocument(f"malformed {kind!r} document: {exc}") from exc
    except MatroidKitError as exc:
        raise InvalidDocument(f"invalid {kind!r} document: {exc}") from exc
    except RecursionError:
        raise InvalidDocument("matroid document nests too deeply to read") from None
    raise InvalidDocument(f"unknown matroid kind {kind!r}")
