"""Ground sets, bit-set element sets, and oracle-backed matroid algebra.

Matroids are expression trees (uniform, graphic, partition, explicit,
dual, restrict, contract, direct sum, relabel) evaluated through a
memoized independence oracle.  All subset arithmetic is done on Python
integers used as bit sets; element indices are fixed by the ground set
and stay stable for the lifetime of every derived handle.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

ENV_MAX_EXHAUSTIVE = "MATROIDKIT_MAX_EXHAUSTIVE"
# most elements whose subsets axiom_check enumerates by default
AXIOM_CHECK_BOUND = 12


def exhaustive_bound(default: int) -> int:
    """Effective size bound for enumeration-based routines.

    The MATROIDKIT_MAX_EXHAUSTIVE environment variable, when set,
    overrides every built-in default.
    """
    value = os.environ.get(ENV_MAX_EXHAUSTIVE)
    if not value:
        return default
    try:
        return int(value)
    except ValueError:
        raise MatroidKitError(
            f"{ENV_MAX_EXHAUSTIVE} must be an integer, not {value!r}"
        ) from None


# ---------------------------------------------------------------------------
# errors


class MatroidKitError(Exception):
    """Base class for all library errors."""


class UniverseMismatch(MatroidKitError):
    """A set or element does not live on the expected universe."""


class OverlappingUniverses(MatroidKitError):
    """Direct-sum parts must occupy pairwise disjoint universes."""


class NotDefined(MatroidKitError):
    """A fundamental circuit or cocircuit does not exist."""


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


def iter_submasks(mask: int) -> Iterator[int]:
    """Yield every submask of ``mask``, starting from 0, ending at ``mask``."""
    sub = 0
    while True:
        yield sub
        if sub == mask:
            return
        sub = (sub - mask) & mask


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

    def add(self, index: int) -> "ElementSet":
        return ElementSet(self.ground, self.mask | (1 << index))

    def remove(self, index: int) -> "ElementSet":
        return ElementSet(self.ground, self.mask & ~(1 << index))

    def labels(self) -> tuple[str, ...]:
        return tuple(self.ground.label(i) for i in self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "{" + ",".join(self.labels()) + "}"


# ---------------------------------------------------------------------------
# matroid handles


class Matroid:
    """Oracle-backed matroid on a subset of a ground set.

    Handles are immutable after construction.  The memo dictionaries only
    cache pure oracle answers, so concurrent queries from several threads
    are safe under CPython and always return the same verdicts.
    """

    kind = "abstract"

    def __init__(self, ground: GroundSet, universe_mask: int) -> None:
        self.ground = ground
        self.universe_mask = universe_mask
        self._memo_indep: dict[int, bool] = {}
        self._memo_base: dict[int, int] = {}
        self._memo_span: dict[int, int] = {}
        self._dual_cache: "Matroid | None" = None

    # -- low-level mask oracle ------------------------------------------

    def _indep_raw(self, mask: int) -> bool:
        raise NotImplementedError

    def _indep(self, mask: int) -> bool:
        memo = self._memo_indep
        hit = memo.get(mask)
        if hit is None:
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
        memo = self._memo_span
        hit = memo.get(mask)
        if hit is not None:
            return hit
        base = self._max_indep(mask)
        out = mask
        outside = self.universe_mask & ~mask
        while outside:
            low = outside & -outside
            outside ^= low
            if not self._indep(base | low):
                out |= low
        memo[mask] = out
        return out

    def _loops_mask(self) -> int:
        return self._span(0)

    def _fund_circuit(self, e: int, imask: int) -> int:
        be = 1 << e
        if not be & self.universe_mask:
            raise UniverseMismatch("element outside the matroid universe")
        if be & imask:
            raise NotDefined("element already belongs to the independent set")
        if not self._indep(imask):
            raise NotDefined("reference set is dependent")
        if self._indep(imask | be):
            raise NotDefined("element is not spanned by the independent set")
        # The unique circuit in I+e consists of e and exactly those f in I
        # whose removal makes I+e independent.
        circ = be
        rest = imask
        while rest:
            low = rest & -rest
            rest ^= low
            if self._indep((imask | be) ^ low):
                circ |= low
        return circ

    def _is_circuit(self, mask: int) -> bool:
        if mask == 0 or self._indep(mask):
            return False
        for x in bit_indices(mask):
            if not self._indep(mask ^ (1 << x)):
                return False
        return True

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

    def is_independent(self, s: ElementSet) -> bool:
        return self._indep(self._check_subset(s))

    def rank(self, s: ElementSet | None = None) -> int:
        mask = self.universe_mask if s is None else self._check_subset(s)
        return self._rank(mask)

    def span(self, s: ElementSet) -> ElementSet:
        return ElementSet(self.ground, self._span(self._check_subset(s)))

    def loops(self) -> ElementSet:
        return ElementSet(self.ground, self._loops_mask())

    def is_circuit(self, s: ElementSet) -> bool:
        return self._is_circuit(self._check_subset(s))

    def fundamental_circuit(self, e: int, independent: ElementSet) -> ElementSet:
        """The unique circuit through ``e`` inside ``independent + e``."""
        imask = self._check_subset(independent)
        return ElementSet(self.ground, self._fund_circuit(e, imask))

    def fundamental_cocircuit(self, e: int, b: ElementSet) -> ElementSet:
        """Fundamental circuit of ``e`` with respect to ``b`` in the dual."""
        return self.dual().fundamental_circuit(e, b)

    def dual(self) -> "Matroid":
        if self._dual_cache is None:
            self._dual_cache = DualMatroid(self)
            self._dual_cache._dual_cache = self
        return self._dual_cache

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
        bases in matroids", 1977), so this costs O(n*r) oracle calls.
        Loops and coloops come out as singleton classes.
        """
        base = self._max_indep(self.universe_mask)
        classes: list[int] = []
        for x in bit_indices(self.universe_mask & ~base):
            merged = self._fund_circuit(x, base)
            keep = []
            for c in classes:
                if c & merged:
                    merged |= c
                else:
                    keep.append(c)
            keep.append(merged)
            classes = keep
        covered = 0
        for c in classes:
            covered |= c
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

    def _json_doc(self) -> dict:
        return {
            "kind": "uniform",
            "n": self.ground.size,
            "r": self.r,
            "labels": list(self.ground.labels),
        }


class GraphicMatroid(Matroid):
    """Cycle matroid of a multigraph; self-loop edges are matroid loops."""

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

    def _indep_raw(self, mask: int) -> bool:
        parent = list(range(len(self.vertices)))

        def find(a: int) -> int:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for e in bit_indices(mask):
            u, v = self.endpoints[e]
            if u == v:
                return False
            ru, rv = find(u), find(v)
            if ru == rv:
                return False
            parent[rv] = ru
        return True

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
    """Per-block capacities; elements outside every block are unconstrained."""

    kind = "partition"

    def __init__(self, ground: GroundSet, blocks: tuple[tuple[int, int], ...]) -> None:
        seen = 0
        for bmask, cap in blocks:
            if bmask & ~ground.full_mask:
                raise UniverseMismatch("block outside the ground set")
            if bmask & seen:
                raise MatroidKitError("partition blocks must be disjoint")
            if cap < 0:
                raise MatroidKitError("block capacity must be non-negative")
            seen |= bmask
        super().__init__(ground, ground.full_mask)
        self.blocks = blocks

    def _indep_raw(self, mask: int) -> bool:
        return all((mask & bmask).bit_count() <= cap for bmask, cap in self.blocks)

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

    Accepts base lists or arbitrary independent-set lists; only the
    inclusion-maximal members are kept.  They must all have one size,
    since the bases of a matroid do; the other axioms are checked on
    demand by :func:`axiom_check`.
    """

    kind = "explicit"

    def __init__(self, ground: GroundSet, sets: Sequence[int]) -> None:
        super().__init__(ground, ground.full_mask)
        pool = set(sets) or {0}
        maximal = [
            s for s in pool if not any(s != t and s & ~t == 0 for t in pool)
        ]
        if len({b.bit_count() for b in maximal}) > 1:
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
    kind = "dual"

    def __init__(self, child: Matroid) -> None:
        super().__init__(child.ground, child.universe_mask)
        self.child = child

    def _indep_raw(self, mask: int) -> bool:
        u = self.universe_mask
        return self.child._rank(u & ~mask) == self.child._rank(u)

    def _json_doc(self) -> dict:
        return {"kind": "dual", "of": self.child._json_doc()}


class RestrictMatroid(Matroid):
    kind = "restrict"

    def __init__(self, child: Matroid, mask: int) -> None:
        if mask & ~child.universe_mask:
            raise UniverseMismatch("restriction outside the child universe")
        super().__init__(child.ground, mask)
        self.child = child

    def _indep_raw(self, mask: int) -> bool:
        return self.child._indep(mask)

    def _json_doc(self) -> dict:
        return {
            "kind": "restrict",
            "of": self.child._json_doc(),
            "set": [self.ground.label(i) for i in bit_indices(self.universe_mask)],
        }


class ContractMatroid(Matroid):
    kind = "contract"

    def __init__(self, child: Matroid, mask: int) -> None:
        if mask & ~child.universe_mask:
            raise UniverseMismatch("contraction outside the child universe")
        super().__init__(child.ground, child.universe_mask & ~mask)
        self.child = child
        self.contracted_mask = mask
        self._base_of_contracted = child._max_indep(mask)

    def _indep_raw(self, mask: int) -> bool:
        return self.child._indep(mask | self._base_of_contracted)

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

    def _json_doc(self) -> dict:
        # Only label-preserving relabelings (as produced by concat_sum)
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


def graphic(
    vertices: Sequence[str],
    edges: Sequence[tuple[str, str] | tuple[str, str, str] | list],
) -> GraphicMatroid:
    vlist = tuple(vertices)
    vindex = {v: i for i, v in enumerate(vlist)}
    labels = []
    endpoints = []
    for i, edge in enumerate(edges):
        if len(edge) == 3:
            u, v, label = edge
        else:
            u, v = edge
            label = f"e{i}"
        if u not in vindex or v not in vindex:
            raise MatroidKitError(f"edge endpoint not among the vertices: {edge!r}")
        labels.append(str(label))
        endpoints.append((vindex[u], vindex[v]))
    return GraphicMatroid(GroundSet(tuple(labels)), vlist, tuple(endpoints))


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
    moved = []
    for p in parts:
        mapping = {
            c: ground.index(p.ground.label(c)) for c in bit_indices(p.universe_mask)
        }
        moved.append(RelabelMatroid(ground, p, mapping))
    return direct_sum(moved)


# ---------------------------------------------------------------------------
# elementary exchange subroutines


def simultaneous_exchange(
    m: Matroid, independent: ElementSet, pairs: Sequence[tuple[int, int]]
) -> ElementSet:
    """Swap ``e_j`` in and ``f_j`` out simultaneously.

    Requires each ``e_j`` spanned outside the set, ``f_j`` in the
    fundamental circuit of ``e_j`` and in no earlier pair's circuit.  The
    result is independent and spans the same set.
    """
    imask = m._check_subset(independent)
    if not m._indep(imask):
        raise PreconditionViolated("reference set is dependent")
    circuits = []
    in_mask = 0
    out_mask = 0
    for j, (e, f) in enumerate(pairs):
        be, bf = 1 << e, 1 << f
        if be & imask or not be & m.universe_mask:
            raise PreconditionViolated(f"pair {j}: entering element invalid")
        if m._indep(imask | be):
            raise PreconditionViolated(f"pair {j}: entering element not spanned")
        if not bf & imask:
            raise PreconditionViolated(f"pair {j}: leaving element not in the set")
        circ = m._fund_circuit(e, imask)
        if not bf & circ:
            raise PreconditionViolated(f"pair {j}: leaving element outside the circuit")
        for k, earlier in enumerate(circuits):
            if bf & earlier:
                raise PreconditionViolated(
                    f"pair {j}: leaving element lies in the circuit of pair {k}"
                )
        if be & in_mask or bf & out_mask:
            raise PreconditionViolated(f"pair {j}: element reused")
        circuits.append(circ)
        in_mask |= be
        out_mask |= bf
    result = (imask | in_mask) & ~out_mask
    if not m._indep(result) or m._span(result) != m._span(imask):
        raise PostconditionFailed("exchange broke independence or the span")
    return ElementSet(m.ground, result)


def circuit_eliminate(
    m: Matroid,
    circuit: ElementSet,
    e: int,
    replacements: Mapping[int, ElementSet],
) -> ElementSet:
    """Eliminate the elements of ``replacements`` from ``circuit``.

    Each key ``x`` must come with a circuit through ``x`` avoiding ``e``
    that meets the key set only in ``x``.  Returns a circuit through
    ``e`` inside the union minus the keys.
    """
    cmask = m._check_subset(circuit)
    be = 1 << e
    if not m._is_circuit(cmask):
        raise PreconditionViolated("first argument is not a circuit")
    if not be & cmask:
        raise PreconditionViolated("pivot element not in the circuit")
    xmask = 0
    for x in replacements:
        xmask |= 1 << x
    if xmask & ~(cmask & ~be):
        raise PreconditionViolated("replacement keys must lie in the circuit minus e")
    union = cmask
    for x, cx in replacements.items():
        cx_mask = m._check_subset(cx)
        if not m._is_circuit(cx_mask):
            raise PreconditionViolated(f"replacement for element {x} is not a circuit")
        if be & cx_mask:
            raise PreconditionViolated(f"replacement circuit for {x} contains e")
        if cx_mask & xmask != 1 << x:
            raise PreconditionViolated(
                f"replacement circuit for {x} meets the key set elsewhere"
            )
        union |= cx_mask
    allowed = union & ~xmask
    base = m._max_indep(allowed & ~be)
    if m._indep(base | be):
        raise PostconditionFailed("no circuit through e survived the elimination")
    return ElementSet(m.ground, m._fund_circuit(e, base))


def outgoing_from_circuit(
    m: Matroid, independent: ElementSet, circuit: ElementSet, e: int
) -> int:
    """Smallest ``f`` outside ``independent`` whose fundamental circuit hits ``e``."""
    imask = m._check_subset(independent)
    cmask = m._check_subset(circuit)
    be = 1 << e
    if not m._indep(imask):
        raise PreconditionViolated("reference set is dependent")
    if not m._is_circuit(cmask):
        raise PreconditionViolated("second argument is not a circuit")
    if cmask & ~m._span(imask):
        raise PreconditionViolated("circuit is not spanned by the reference set")
    if not be & imask & cmask:
        raise PreconditionViolated("pivot must lie in both the set and the circuit")
    for f in bit_indices(cmask & ~imask):
        if be & m._fund_circuit(f, imask):
            return f
    raise PostconditionFailed("no outgoing element found in a spanned circuit")


# ---------------------------------------------------------------------------
# axiom check


def axiom_check(m: Matroid) -> bool:
    """Verify the independence axioms by full enumeration.

    Checks that the empty set is independent, that independence is
    downward closed, and that every non-maximal independent set extends
    into every maximal one.  Raises TooLarge above the exhaustive bound.
    """
    expand = [1 << e for e in bit_indices(m.universe_mask)]
    n = len(expand)
    limit = exhaustive_bound(AXIOM_CHECK_BOUND)
    if n > limit:
        raise TooLarge(f"axiom check over {n} elements exceeds the bound {limit}")

    indep = [s for s in iter_submasks(m.universe_mask) if m._indep(s)]
    if 0 not in indep:
        return False
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


# ---------------------------------------------------------------------------
# JSON expression documents


def matroid_to_json(m: Matroid) -> dict:
    return m._json_doc()


def matroid_from_json(doc: Mapping) -> Matroid:
    if not isinstance(doc, Mapping):
        raise InvalidDocument("matroid document must be a JSON object")
    kind = doc.get("kind")
    try:
        if kind == "uniform":
            n = int(doc["n"])
            labels = doc.get("labels") or [f"e{i}" for i in range(n)]
            if len(labels) != n:
                raise InvalidDocument("uniform: labels must have length n")
            return uniform(GroundSet(tuple(labels)), int(doc["r"]))
        if kind == "graphic":
            return graphic(doc["vertices"], doc["edges"])
        if kind == "partition":
            return partition(
                [(blk["elements"], int(blk["cap"])) for blk in doc["blocks"]]
            )
        if kind == "explicit":
            return explicit(doc["universe"], doc["bases"])
        if kind == "dual":
            return matroid_from_json(doc["of"]).dual()
        if kind == "restrict":
            child = matroid_from_json(doc["of"])
            return child.restrict(child.ground.subset(doc["set"]))
        if kind == "contract":
            child = matroid_from_json(doc["of"])
            return child.contract(child.ground.subset(doc["set"]))
        if kind == "sum":
            return concat_sum([matroid_from_json(p) for p in doc["parts"]])
    except InvalidDocument:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidDocument(f"malformed {kind!r} document: {exc}") from exc
    except MatroidKitError as exc:
        raise InvalidDocument(f"invalid {kind!r} document: {exc}") from exc
    raise InvalidDocument(f"unknown matroid kind {kind!r}")
