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

from .core import (
    CertificateInvalid,
    DemandOutOfRange,
    ElementSet,
    GroundSet,
    Matroid,
    MatroidKitError,
    PartitionMatroid,
    direct_sum,
    uniform,
)
from .intersect import Trace, solve


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
        vtuple = tuple(vertices)
        vset = set(vtuple)
        if len(vset) != len(vtuple):
            raise MatroidKitError("vertex names must be distinct")
        if not isinstance(demands, Mapping):
            raise MatroidKitError("demands must map vertex names to integers")
        for v, d in demands.items():
            if v not in vset:
                raise MatroidKitError(f"demand for unknown vertex {v!r}")
            if not isinstance(d, int) or isinstance(d, bool):
                raise MatroidKitError(f"demand at {v!r} is not an integer: {d!r}")
        cleaned = []
        labels = set()
        for i, edge in enumerate(edges):
            if len(edge) == 3:
                u, v, label = edge
            elif len(edge) == 2:
                u, v = edge
                label = f"e{i}"
            else:
                raise MatroidKitError(f"edge needs two endpoints and an optional label: {edge!r}")
            if u not in vset or v not in vset:
                raise MatroidKitError(f"edge endpoint not a vertex: {edge!r}")
            if u == v:
                warnings.warn(f"dropping self-loop edge {label!r}", stacklevel=2)
                continue
            if label in labels:
                raise MatroidKitError(f"duplicate edge label {label!r}")
            labels.add(label)
            cleaned.append((u, v, str(label)))
        graph = cls(
            vtuple,
            tuple(cleaned),
            tuple(sorted((v, demands.get(v, 0)) for v in vtuple)),
        )
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


@dataclass(frozen=True)
class OrientInstance:
    """The bidirected intersection instance for a demand graph."""

    graph: DemandGraph
    ground: GroundSet
    M: Matroid
    N: Matroid
    vertex_blocks: tuple[tuple[str, Matroid, int], ...]


def build_instance(g: DemandGraph) -> OrientInstance:
    """Two arcs per edge; per-vertex in-degree matroids against edge blocks."""
    labels = []
    in_arcs = dict.fromkeys(g.vertices, 0)
    for i, (u, v, label) in enumerate(g.edges):
        labels += [f"{label}>", f"{label}<"]
        in_arcs[v] |= 1 << (2 * i)
        in_arcs[u] |= 2 << (2 * i)
    ground = GroundSet(tuple(labels))

    blocks = []
    for v in g.vertices:
        delta = ElementSet(ground, in_arcs[v])
        mv = uniform(ground, effective_lower_bound(g, v)).restrict(delta)
        blocks.append((v, mv, in_arcs[v]))
    m = direct_sum([mv for _v, mv, _mask in blocks])
    n = PartitionMatroid(
        ground,
        tuple((0b11 << (2 * i), 1) for i in range(len(g.edges))),
    )
    return OrientInstance(g, ground, m, n, tuple(blocks))


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
    """Solve the orientation problem; deficiency certificates are verified."""
    inst = build_instance(g)
    cert = solve(inst.M, inst.N, solver, e1, trace)

    imask = cert.I.mask
    orientation = {}
    for i, (u, v, label) in enumerate(g.edges):
        fwd = 1 << (2 * i)
        orientation[label] = v if imask & fwd else u
    im = imask & cert.E_M.mask
    v_outside = []
    for v, mv, _mask in inst.vertex_blocks:
        if mv._rank(im & mv.universe_mask) < mv._rank(mv.universe_mask):
            v_outside.append(v)

    indeg = indegrees(g, orientation)
    pairs = tuple(sorted(orientation.items()))
    if all(above_at(g, indeg, v) for v in g.vertices):
        return OrientationOutcome(pairs, "above", (), None)
    out = OrientationOutcome(
        pairs,
        "deficient",
        tuple(sorted(v_outside)),
        None,
    )
    if not verify_outcome(g, out):
        raise CertificateInvalid("deficiency certificate failed verification")
    counting = deficiency_counting_check(g, out.v_prime)
    return OrientationOutcome(pairs, "deficient", out.v_prime, counting)


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
    if out.verdict != "deficient" or not out.v_prime:
        return False
    vset = set(out.v_prime)
    if not vset <= set(g.vertices):
        return False
    if not all(below_at(g, indeg, v) for v in out.v_prime):
        return False
    if not any(indeg[v] < effective_lower_bound(g, v) for v in out.v_prime):
        return False
    for u, v, label in g.edges:
        if (u in vset) != (v in vset) and orientation[label] not in vset:
            return False
    return True


def deficiency_counting_check(g: DemandGraph, v_prime: Sequence[str]) -> bool:
    """Total demand on the set exceeds the number of edges meeting it."""
    vset = set(v_prime)
    if not vset:
        return False
    demand = sum(effective_lower_bound(g, v) for v in vset)
    incident = sum(1 for u, v, _ in g.edges if u in vset or v in vset)
    return demand > incident
