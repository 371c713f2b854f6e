"""Degree-constrained graph orientation via matroid intersection.

Every edge of a loopless multigraph is replaced by a pair of opposite
arcs.  One matroid bounds, per vertex, how many incoming arcs may be
picked; the other allows at most one arc per edge.  A maximum common
independent set either yields an orientation meeting every in-degree
lower bound, or a vertex set certifying that none exists.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

from .classic import Trace
from .core import (
    CertificateInvalid,
    DemandOutOfRange,
    ElementSet,
    GroundSet,
    MatroidKitError,
    PartitionMatroid,
    read_edges,
)
from .intersect import solve
from .waves import PairContext


@dataclass(frozen=True)
class DemandGraph:
    """Loopless multigraph with one integer in-degree demand per vertex."""

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str, str], ...]
    demands: tuple[tuple[str, int], ...]

    @classmethod
    def build(
        cls,
        vertices: Sequence[str],
        edges: Sequence[Sequence[str]],
        demands: Mapping[str, int],
    ) -> "DemandGraph":
        """The graph of a checked edge list (``read_edges``), self-loops dropped with a warning."""
        vindex, read = read_edges(vertices, edges)
        if not isinstance(demands, Mapping):
            raise MatroidKitError("demands must map vertex names to integers")
        for v, d in demands.items():
            if v not in vindex:
                same = [u for u in vindex if not isinstance(u, str) and str(u) == v]
                why = f"; demand keys are strings, and vertex {same[0]!r} is not one" if same else ""
                raise MatroidKitError(f"demand for unknown vertex {v!r}{why}")
            if not isinstance(d, int) or isinstance(d, bool):
                raise MatroidKitError(f"demand at {v!r} is not an integer: {d!r}")
        kept = []
        for u, v, label in read:
            if u == v:
                warnings.warn(f"dropping self-loop edge {label!r}", stacklevel=2)
            else:
                kept.append((u, v, label))
        vtuple = tuple(vindex)
        try:
            demand_list = tuple(sorted((v, demands.get(v, 0)) for v in vtuple))
        except TypeError:
            raise MatroidKitError(f"vertex names must be of one orderable type: {list(vtuple)!r}") from None
        graph = cls(vtuple, tuple(kept), demand_list)
        for v in vtuple:
            if abs(graph.o(v)) > graph.degree(v):
                raise DemandOutOfRange(
                    f"demand {graph.o(v)} at {v!r} exceeds its degree {graph.degree(v)}"
                )
        return graph

    @cached_property
    def _demand(self) -> dict[str, int]:
        return dict(self.demands)

    @cached_property
    def _degree(self) -> dict[str, int]:
        deg: dict[str, int] = {}
        for u, w, _ in self.edges:
            deg[u] = deg.get(u, 0) + 1
            deg[w] = deg.get(w, 0) + 1
        return deg

    def o(self, v: str) -> int:
        if v not in self._demand:
            raise MatroidKitError(f"unknown vertex {v!r}")
        return self._demand[v]

    def degree(self, v: str) -> int:
        return self._degree.get(v, 0)


def effective_lower_bound(g: DemandGraph, v: str) -> int:
    """Minimum admissible in-degree at ``v``.

    For a non-negative demand this is the demand itself; for a negative
    demand it asks that all but that many incident edges point inward.
    """
    o = g.o(v)
    return o if o >= 0 else g.degree(v) + o


def above_at(g: DemandGraph, indeg: Mapping[str, int], v: str) -> bool:
    return indeg[v] >= effective_lower_bound(g, v)


def below_at(g: DemandGraph, indeg: Mapping[str, int], v: str) -> bool:
    return indeg[v] <= effective_lower_bound(g, v)


def indegrees(g: DemandGraph, orientation: Mapping[str, str]) -> dict[str, int]:
    indeg = dict.fromkeys(g.vertices, 0)
    for _u, _v, label in g.edges:
        indeg[orientation[label]] += 1
    return indeg


def build_instance(g: DemandGraph) -> PairContext:
    """Two arcs per edge; per-vertex in-arc blocks against edge blocks.

    ``M`` is a partition matroid whose blocks are the in-arcs of each
    vertex, capped at its effective lower bound, in ``g.vertices``
    order; ``N`` allows one arc per edge.
    """
    labels = []
    in_arcs = dict.fromkeys(g.vertices, 0)
    for i, (u, v, label) in enumerate(g.edges):
        labels += [f"{label}>", f"{label}<"]
        in_arcs[v] |= 1 << (2 * i)
        in_arcs[u] |= 2 << (2 * i)
    ground = GroundSet(tuple(labels))
    # every arc is an in-arc of exactly one vertex, so the blocks partition it
    m = PartitionMatroid(
        ground, tuple((in_arcs[v], effective_lower_bound(g, v)) for v in g.vertices)
    )
    n = PartitionMatroid(
        ground,
        tuple((0b11 << (2 * i), 1) for i in range(len(g.edges))),
    )
    return PairContext(m, n)


@dataclass(frozen=True)
class OrientationOutcome:
    """An orientation plus either success or a deficiency certificate."""

    orientation: tuple[tuple[str, str], ...]
    verdict: str
    v_prime: tuple[str, ...]
    counting_ok: bool | None

    def orientation_dict(self) -> dict[str, str]:
        return dict(self.orientation)


def orient_solve(
    g: DemandGraph,
    solver: str = "classic",
    e1: ElementSet | None = None,
    trace: Trace | None = None,
) -> OrientationOutcome:
    """Solve the orientation problem; every outcome is verified."""
    inst = build_instance(g)
    cert = solve(inst.M, inst.N, solver, e1, trace)

    imask = cert.I.mask
    orientation = {}
    for i, (u, v, label) in enumerate(g.edges):
        fwd = 1 << (2 * i)
        orientation[label] = v if imask & fwd else u
    indeg = indegrees(g, orientation)
    pairs = tuple(sorted(orientation.items()))
    out = OrientationOutcome(pairs, "above", (), None)
    if not all(above_at(g, indeg, v) for v in g.vertices):
        # I & E_M is independent in M, so its size on a block is its rank
        # there; the vertex is deficient when that falls short of the
        # block's rank min(|block|, cap)
        im = imask & cert.E_M.mask
        v_prime = tuple(sorted(
            v
            for v, (mask, cap) in zip(g.vertices, inst.M.blocks)
            if (im & mask).bit_count() < min(mask.bit_count(), cap)
        ))
        out = OrientationOutcome(
            pairs, "deficient", v_prime, deficiency_counting_check(g, v_prime)
        )
    if not verify_outcome(g, out):
        raise CertificateInvalid(f"{out.verdict} outcome failed verification")
    return out


def verify_outcome(g: DemandGraph, out: OrientationOutcome) -> bool:
    """Re-check the outcome from raw degrees and the published predicates."""
    orientation = out.orientation_dict()
    if sorted(orientation) != sorted(label for _u, _v, label in g.edges):
        return False
    for u, v, label in g.edges:
        if orientation[label] not in (u, v):
            return False
    indeg = indegrees(g, orientation)
    if out.verdict == "above":
        return all(above_at(g, indeg, v) for v in g.vertices)
    if out.verdict != "deficient":
        return False
    vset = set(out.v_prime)
    if not vset <= set(g.vertices):
        return False
    if not all(below_at(g, indeg, v) for v in out.v_prime):
        return False
    # some vertex of V' is strictly below, so V' is not empty
    if not any(indeg[v] < effective_lower_bound(g, v) for v in out.v_prime):
        return False
    for u, v, label in g.edges:
        if (u in vset) != (v in vset) and orientation[label] not in vset:
            return False
    return True


def deficiency_counting_check(g: DemandGraph, v_prime: Sequence[str]) -> bool:
    """Total demand on the set exceeds the number of edges meeting it.

    By Hakimi's theorem ("On the degrees of the vertices of a directed
    graph", J. Franklin Inst. 279, 1965), a graph has an orientation
    with in-degree at least l(v) at every vertex v exactly when no vertex
    set has more total demand than edges meeting it, so such a set
    proves that no orientation meets the demands.
    """
    vset = set(v_prime)
    demand = sum(effective_lower_bound(g, v) for v in vset)
    incident = sum(1 for u, v, _ in g.edges if u in vset or v in vset)
    return demand > incident
