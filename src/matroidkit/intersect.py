"""Matroid intersection solvers with verifiable certificates.

Two solvers share one certificate format: the classic augmenting-path
solver, and a mixed solver that treats a declared split E = E0 | E1 of
the second matroid's universe asymmetrically.  On E0 the exchange
digraph uses circuits of N; on E1 it walks cocircuits against the base
formed by the E1-part of the spanned-but-unused elements.  Every
augmentation is checked against its guaranteed span-preservation
properties, and every certificate is re-verified from raw oracles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Sequence

from .core import (
    ElementSet,
    Matroid,
    MatroidKitError,
    PostconditionFailed,
    PreconditionViolated,
    ExtensionFailed,
    StateInvariantBroken,
    Stuck,
    UniverseMismatch,
    _mask,
    bit_indices,
)
from .waves import PairContext, _wave_of, check_cond_plus, common_base_B, is_clean, largest_wave


# ---------------------------------------------------------------------------
# traces and telemetry


@dataclass
class Trace:
    """Event log and counters for replay tests and telemetry.

    ``phases`` counts the phases of traced classic runs.  ``wave_runs``
    counts the mixed loop's wave questions by how they were answered:
    ``cold`` and ``warm`` are full classic runs from the empty set and
    from a set in hand (``largest_wave``), ``resumed`` are runs that
    grow a carried backward search, and ``reused`` are postconditions
    answered from the wave in hand with no run (``extend_to_nice``);
    ``phases`` there counts the classic phases of the full runs.
    """

    events: list = field(default_factory=list)
    augmentations: int = 0
    extensions: int = 0
    phases: int = 0
    wave_runs: dict = field(
        default_factory=lambda: dict.fromkeys(("cold", "warm", "resumed", "reused", "phases"), 0)
    )

    def record(self, kind: str, **data) -> None:
        self.events.append({"kind": kind, **data})

    def as_dict(self) -> dict:
        return {
            "augmentations": self.augmentations,
            "extensions": self.extensions,
            "phases": self.phases,
            "wave_runs": dict(self.wave_runs),
            "events": self.events,
        }


# ---------------------------------------------------------------------------
# digraphs and paths


class ExchangeDigraph:
    """The exchange digraph at one state, read a layer at a time.

    The state is a common independent set I of M and N, the part E1 of
    the universe walked through cocircuits of N, and ``safe``, the E1
    part of the M-span outside I.  Arcs come from three rules, each
    decided by one tail class:

    - M-rule: an M-spanned x outside I points into its M-circuit, that
      is, to each y of I with I - y + x M-independent.
    - N-rule: an x of I in E0 points to each N-spanned z outside I whose
      N-circuit holds x, that is, with I - x + z N-independent.
    - N*-rule: an x of I in E1 points into its fundamental circuit in
      the dual of N against ``safe``; the state being dually safe, that
      circuit exists.

    With E1 empty this is the classic digraph.  The digraph keeps no
    arcs: each question is about sets, and asks the oracles only about
    the elements it names, so a search pays for the part it visits.
    """

    def __init__(self, m: Matroid, n: Matroid, imask: int, e1: int, safe: int) -> None:
        self.m = m
        self.n = n
        self.imask = imask
        self.universe = m.universe_mask
        self.e0 = self.universe & ~e1
        self.e1 = e1
        self.safe = safe

    def sources(self, among: int) -> Iterator[int]:
        """The elements of ``among`` in E0 - I that are not N-spanned.

        They come ascending and are asked one by one, so a caller that
        stops early pays only for the elements it took.
        """
        imask, n = self.imask, self.n
        for z in bit_indices(among & self.e0 & ~imask):
            if n._indep(imask | 1 << z):
                yield z

    def sinks(self, among: int) -> int:
        """The elements of ``among`` in E0 - I that are not M-spanned."""
        imask, m = self.imask, self.m
        out = 0
        for x in bit_indices(among & self.e0 & ~imask):
            if m._indep(imask | 1 << x):
                out |= 1 << x
        return out

    def heads(self, layer: int, among: int) -> int:
        """The elements of ``among`` with an arc from some element of ``layer``.

        The N-rule asks one query per outside z for the whole E0 part L0
        of the layer: z has an arc from L0 exactly when it is N-spanned
        and its N-circuit meets L0, that is, when I - L0 + z is
        N-independent.
        """
        m, n, imask = self.m, self.n, self.imask
        out = 0
        cand = among & imask
        if cand:
            for x in bit_indices(layer & ~imask):
                bx = 1 << x
                if m._indep(imask | bx):
                    continue
                for y in bit_indices(cand):
                    by = 1 << y
                    if m._indep(imask ^ by | bx):
                        out |= by
                cand &= ~out
                if not cand:
                    break
        l0 = layer & imask & self.e0
        if l0:
            rest = imask & ~l0
            for z in bit_indices(among & ~imask):
                bz = 1 << z
                if not n._indep(imask | bz) and n._indep(rest | bz):
                    out |= bz
        l1 = layer & imask & self.e1
        cand = among & self.safe & ~out
        if l1 and cand:
            nd = n.dual()
            for x in bit_indices(l1):
                found = nd._circuit(self.safe | 1 << x, cand)
                out |= found
                cand &= ~found
                if not cand:
                    break
        return out

    def tails_into(self, among: int, heads: int) -> int:
        """The elements of ``among`` with an arc into some element of ``heads``.

        - M-rule: an M-spanned x outside I has an arc into the I-part H
          of ``heads`` exactly when I - H + x is M-independent, one query
          per x.
        - N-rule: the tails into an N-spanned z outside I are
          C_N(z, I) - z, found by halving (``Matroid._circuit``).
        - N*-rule: an x of I in E1 has an arc into the safe part H of
          ``heads`` exactly when safe - H + x is independent in the dual
          of N, one query per x.
        """
        m, n, imask = self.m, self.n, self.imask
        out = 0
        h_in = heads & imask
        if h_in:
            rest = imask & ~h_in
            for x in bit_indices(among & ~imask):
                bx = 1 << x
                # an x that I does not M-span has no arc, and I - H + x is then independent
                if m._indep(rest | bx) and not m._indep(imask | bx):
                    out |= bx
        cand = among & imask & self.e0
        if cand:
            for z in bit_indices(heads & ~imask):
                dep = imask | 1 << z
                if not n._indep(dep):
                    found = n._circuit(dep, cand)
                    out |= found
                    cand &= ~found
                    if not cand:
                        break
        h_safe = heads & self.safe
        if h_safe:
            nd = n.dual()
            rest = self.safe & ~h_safe
            for x in bit_indices(among & imask & self.e1):
                if nd._indep(rest | 1 << x):
                    out |= 1 << x
        return out

    def has_arc(self, x: int, y: int) -> bool:
        return bool(self.heads(1 << x, 1 << y))


@dataclass(frozen=True)
class AugPath:
    """Odd alternating element sequence from an N-unspanned to an M-unspanned element."""

    elements: tuple[int, ...]

    @property
    def first(self) -> int:
        return self.elements[0]

    @property
    def last(self) -> int:
        return self.elements[-1]

    @property
    def mask(self) -> int:
        return _mask(self.elements)

    def __len__(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class IntersectionCertificate:
    """A common independent set with a two-sided spanning partition.

    ``layers`` (default none) are the backward layers of the classic
    phase that found no path: layer k holds the elements at distance k
    to the sinks, and together they are E_N (``_classic_step``).
    """

    I: ElementSet
    E_M: ElementSet
    E_N: ElementSet
    layers: tuple[int, ...] = field(default=(), compare=False, repr=False)


def verify_certificate(m: Matroid, n: Matroid, cert: IntersectionCertificate) -> bool:
    """Re-derive every certificate invariant from raw oracles."""
    universe = m.universe_mask
    if n.universe_mask != universe or m.ground.labels != n.ground.labels:
        return False
    imask, am, an = cert.I.mask, cert.E_M.mask, cert.E_N.mask
    if am & an or am | an != universe or imask & ~universe:
        return False
    if not (m._indep(imask) and n._indep(imask)):
        return False
    return m._spans(imask & am, am) and n._spans(imask & an, an)


# ---------------------------------------------------------------------------
# shortest-path machinery


def _bfs_path(dg: ExchangeDigraph, source: int) -> list[int] | None:
    """Shortest path from ``source`` to the least nearest sink, lexicographically least.

    Distance layers grow forward until one holds a sink; only the
    elements of each layer are tested as sinks.  Going back from the
    least sink of the last layer, each layer keeps the elements with an
    arc into the next kept layer, and the path takes the lowest kept
    head at each step.
    """
    layers = [1 << source]
    seen = layers[0]
    while True:
        hit = dg.sinks(layers[-1])
        if hit:
            break
        nxt = dg.heads(layers[-1], dg.universe & ~seen)
        if not nxt:
            return None
        seen |= nxt
        layers.append(nxt)
    kept = [hit & -hit]
    for layer in reversed(layers[:-1]):
        kept.append(dg.tails_into(layer, kept[-1]))
    kept.reverse()
    path = [source]
    for layer in kept[1:]:
        heads = dg.heads(1 << path[-1], layer)
        path.append((heads & -heads).bit_length() - 1)
    return path


def _check_chordless(
    dg: ExchangeDigraph, path: Sequence[int], error: type[MatroidKitError]
) -> None:
    """A shortest path has no arc that skips ahead along it."""
    for k in range(len(path)):
        for ell in range(k + 2, len(path)):
            if dg.has_arc(path[k], path[ell]):
                raise error(f"jumping arc {k}->{ell}")


def _first_path(dg: ExchangeDigraph) -> list[int] | None:
    """Checked shortest path from the least source that reaches a sink; the mixed search."""
    for s in dg.sources(dg.e0):
        path = _bfs_path(dg, s)
        if path is not None:
            _check_chordless(dg, path, PostconditionFailed)
            return path
    return None


def _same_span(mat: Matroid, a: int, b: int, part: int) -> bool:
    """Whether independent ``a`` and ``b`` span the same elements of ``part``.

    For the whole universe, span(a) = span(b) exactly when a lies in
    span(b) and b in span(a), and the elements of a & b lie in both; so
    it is enough that each x of a ^ b is spanned by the set it is
    missing from, which for an independent set is one query.  For a
    smaller ``part`` this test over (a ^ b) & part is exact when ``mat``
    is the direct sum of its restrictions to ``part`` and to the rest.
    """
    return mat._spans(b, a & part) and mat._spans(a, b & part)


def _plus(mat: Matroid, imask: int, e: int) -> int:
    """An independent set spanning what I + e spans, for an independent I."""
    grown = imask | 1 << e
    return grown if mat._indep(grown) else imask


def _augmented(m: Matroid, n: Matroid, imask: int, path: Sequence[int], e0: int) -> int:
    """I xor the path, checked to keep the spans an augmentation guarantees.

    The new set must be common independent, span in M what I + last
    spans, and span on E0 in N what I + first spans.  Both span checks
    compare independent sets through ``_same_span``, so each costs one
    query per element of the path, not one per element of the universe.

    The N check looks only at E0, and there the element test is exact
    because no component of N crosses the split (``SplitInput.validate``,
    kept by deleting the wave).  So N is N|E0 + N|E1, and for every X,
    span_N(X) & E0 = span_{N|E0}(X & E0): the E0 part of a span is
    decided by the E0 part of the set alone.  With E0 the whole universe
    this is the classic check.
    """
    new = imask
    for e in path:
        new ^= 1 << e
    if not (m._indep(new) and n._indep(new)):
        raise PostconditionFailed("augmented set is not common independent")
    if not _same_span(m, new, _plus(m, imask, path[-1]), m.universe_mask):
        raise PostconditionFailed("M-span was not preserved by the augmentation")
    if not _same_span(n, new, _plus(n, imask, path[0]), e0):
        raise PostconditionFailed("N-span on E0 was not preserved by the augmentation")
    return new


# ---------------------------------------------------------------------------
# classic solver


def _classic_run(
    m: Matroid, n: Matroid, trace: Trace | None = None, start: int = 0,
    carried: tuple[int, ...] = (),
) -> IntersectionCertificate:
    """Run the classic solver to completion from ``start``; unverified.

    Augmenting paths reach a maximum set from any common independent
    start (Edmonds 1970).  Each phase (``_classic_step``) searches
    backward from the sinks and augments along paths of one length,
    longer than the last phase's, until a search meets no source; that
    search gives the certificate.  A start that is not common
    independent is a caller's bug and raises PostconditionFailed.
    ``carried`` layers resume the first phase's search (``_classic_step``).
    """
    if m.universe_mask != n.universe_mask or m.ground.labels != n.ground.labels:
        raise UniverseMismatch("intersection needs a shared universe")
    universe = m.universe_mask
    if start and (start & ~universe or not (m._indep(start) and n._indep(start))):
        raise PostconditionFailed("classic run start is not common independent")
    imask = start
    # each phase but the last grows I by at least one
    for _ in range(universe.bit_count() + 1):
        if trace is not None:
            trace.phases += 1
        step = _classic_step(m, n, imask, carried)
        carried = ()
        if isinstance(step, IntersectionCertificate):
            return step
        for path in step:
            before, imask = imask, imask ^ _mask(path)
            if trace is not None:
                trace.augmentations += 1
                trace.record("classic-augment", phase=trace.phases, before=before,
                             path=tuple(path), after=imask)
    raise Stuck("classic solver exceeded its phase budget")


def _classic_step(
    m: Matroid, n: Matroid, imask: int, carried: tuple[int, ...] = ()
) -> list[list[int]] | IntersectionCertificate:
    """One phase from ``imask``: the checked paths it applied in turn, or the certificate.

    One breadth-first search grows backward from all sinks through
    ``tails_into``: layer k holds the elements at distance k to the
    sinks, and only the elements of each new layer are tested as
    sources.  When a layer Ld holds sources, the shortest paths have
    length d.  Augmenting along a shortest path shortens neither the
    distance from the sources nor the distance to the sinks (Cunningham
    1986).  So the element at position i of a length-d path in a later
    digraph of the phase was, at the start, at most i from a source and
    at most d - i from a sink; no path was shorter than d, so it was
    exactly d - i from the sinks.  It lies in L(d - i), and each later
    length-d path runs through [sources of Ld, L(d-1), ..., L0].  A
    depth-first search through them asks the arcs of the current
    digraph; used and dead-end elements leave the phase.

    A search that meets no source has walked the whole co-reach of the
    sinks, a set fixed by the digraph, whatever the search order.  Its
    complement is the certificate's M-side, and nothing else runs; the
    certificate keeps the layers.

    ``carried`` layers, when given, are the first layers of such a
    search, kept at their distances and free of sources (the lemma in
    ``extend_to_nice``).  The search then skips the sink scan and grows
    on from the last of them.  It must find no path, so a source in a
    new layer raises PostconditionFailed.
    """
    universe = m.universe_mask
    dg = ExchangeDigraph(m, n, imask, 0, 0)
    layers = list(carried) or [dg.sinks(universe)]
    seen = sum(layers)  # the layers are disjoint
    first = 0 if carried else _mask(dg.sources(layers[0]))
    while not first:
        nxt = dg.tails_into(universe & ~seen, layers[-1])
        if not nxt:
            ground, e_m = m.ground, universe & ~seen
            return IntersectionCertificate(
                ElementSet(ground, imask), ElementSet(ground, e_m), ElementSet(ground, seen),
                tuple(layers),
            )
        seen |= nxt
        layers.append(nxt)
        first = _mask(dg.sources(nxt))
        if first and carried:
            raise PostconditionFailed("a resumed backward search met a source")
    kept = [first, *reversed(layers[:-1])]
    alive = sum(kept)  # the layers are disjoint
    paths = []
    for s in bit_indices(kept[0]):
        path = [] if n._spans(imask, 1 << s) else [s]  # the N-span grows, so sources only leave
        while path and not (len(path) == len(kept) and dg.sinks(1 << path[-1])):
            v = path[-1]
            nxt = dg.heads(1 << v, kept[len(path)] & alive) if len(path) < len(kept) else 0
            if nxt:
                path.append((nxt & -nxt).bit_length() - 1)
            else:
                alive &= ~(1 << v)
                path.pop()
        if path:
            _check_chordless(dg, path, PostconditionFailed)
            imask = _augmented(m, n, imask, path, universe)
            alive &= ~_mask(path)
            paths.append(path)
            dg = ExchangeDigraph(m, n, imask, 0, 0)
    return paths


def edmonds_solve(ctx: PairContext, trace: Trace | None = None) -> IntersectionCertificate:
    """Maximum common independent set with the two-sided spanning partition.

    The run augments in phases (``_classic_step``), which ``trace`` counts.
    The emitted M-side is the set of elements that cannot reach an
    M-unspanned element in the final exchange digraph, the complement of
    the last phase's backward search; this is the largest valid choice
    and coincides with the union of all waves.
    """
    cert = _classic_run(ctx.M, ctx.N, trace)
    if not verify_certificate(ctx.M, ctx.N, cert):
        raise PostconditionFailed("classic certificate failed raw verification")
    return cert


# ---------------------------------------------------------------------------
# the mixed stack


@dataclass(frozen=True)
class SplitInput:
    """The second matroid with a declared two-part split of its universe.

    Every component of N must lie wholly inside one part; the solver
    treats E0 through circuits of N and E1 through cocircuits.
    """

    N: Matroid
    E0: ElementSet
    E1: ElementSet

    def validate(self) -> None:
        e0 = self.N._check_subset(self.E0)
        e1 = self.N._check_subset(self.E1)
        if e0 & e1 or e0 | e1 != self.N.universe_mask:
            raise PreconditionViolated("split parts must partition the universe")
        for comp in self.N.components():
            cm = comp.mask
            if cm & e0 and cm & e1:
                raise PreconditionViolated(
                    f"component {comp.labels()} crosses the declared split"
                )


@dataclass(frozen=True)
class FeasibleState:
    """A common independent set of the context that is dually safe on E1.

    ``safe_base`` is the set of elements of E1 spanned by I in M but
    outside I; it stays a dual base of the E1 part of the M-span while
    the state is dually safe.  Construction checks these invariants and
    raises StateInvariantBroken when one fails.
    ``warm`` (default empty) is a set outside I left by the last wave
    run; the next wave run starts from its common independent part.
    ``layers`` (default none) are the first backward layers of the
    pathless classic phase at ``warm`` in the quotient by I, when the
    lemma in ``extend_to_nice`` lets the next wave run resume them.
    """

    ctx: PairContext
    I: ElementSet
    warm: ElementSet | None = field(default=None, compare=False)
    layers: tuple[int, ...] = field(default=(), compare=False)

    def __post_init__(self) -> None:
        ctx = self.ctx
        if self.warm is None:
            object.__setattr__(self, "warm", ctx.ground.empty())
        imask = ctx.M._check_subset(self.I)
        if not (ctx.M._indep(imask) and ctx.N._indep(imask)):
            raise StateInvariantBroken("state set is not common independent")
        nd = ctx.N.dual()
        safe = self.safe_base.mask
        if not nd._indep(safe):
            raise StateInvariantBroken("safe base is dependent in the dual")
        # dually safe: I & E1 lies in the dual span of the safe base, which
        # the check above found dual-independent
        if not nd._spans(safe, imask & ctx.E1.mask):
            raise StateInvariantBroken("state is not dually safe")

    @cached_property
    def safe_base(self) -> ElementSet:
        """One query per element of E1 - I, none when E1 is empty."""
        m, imask = self.ctx.M, self.I.mask
        spanned = [x for x in bit_indices(self.ctx.E1.mask & ~imask) if m._spans(imask, 1 << x)]
        return ElementSet(self.ctx.ground, _mask(spanned))

    @cached_property
    def digraph(self) -> ExchangeDigraph:
        """The exchange digraph at this state, shared by path search and validation."""
        return build_exchange_digraph(self)


def build_exchange_digraph(state: FeasibleState) -> ExchangeDigraph:
    """The three-rule exchange digraph of the mixed method."""
    ctx = state.ctx
    return ExchangeDigraph(ctx.M, ctx.N, state.I.mask, ctx.E1.mask, state.safe_base.mask)


def _validate_path(state: FeasibleState, path: tuple[int, ...]) -> None:
    ctx = state.ctx
    if len(path) % 2 == 0 or len(set(path)) != len(path):
        raise PreconditionViolated("path must be an odd sequence of distinct elements")
    first, last = path[0], path[-1]
    imask = state.I.mask
    if not (1 << first) & ctx.E0.mask or ctx.N._spans(imask, 1 << first):
        raise PreconditionViolated("path must start at an E0 element unspanned in N")
    if not (1 << last) & ctx.E0.mask or ctx.M._spans(imask, 1 << last):
        raise PreconditionViolated("path must end at an E0 element unspanned in M")
    dg = state.digraph
    for k in range(len(path) - 1):
        if not dg.has_arc(path[k], path[k + 1]):
            raise PreconditionViolated(f"missing arc at position {k}")
    _check_chordless(dg, path, PreconditionViolated)


def find_aug_path(state: FeasibleState) -> AugPath | None:
    """Shortest augmenting path from the least source that reaches a sink."""
    path = _first_path(state.digraph)
    return None if path is None else AugPath(tuple(path))


def augment(state: FeasibleState, path: AugPath, trace: Trace | None = None) -> FeasibleState:
    """Apply one augmenting path; all guaranteed properties are asserted."""
    _validate_path(state, path.elements)
    ctx = state.ctx
    nd = ctx.N.dual()
    imask = state.I.mask
    new = _augmented(ctx.M, ctx.N, imask, path.elements, ctx.E0.mask)
    safe = state.safe_base.mask
    safe2 = safe ^ (path.mask & ctx.E1.mask)
    if not nd._indep(safe2):
        raise PostconditionFailed("updated dual base is dependent")
    if not _same_span(nd, safe, safe2, nd.universe_mask):
        raise PostconditionFailed("dual span was not preserved by the augmentation")
    warm = ElementSet(ctx.ground, state.warm.mask & ~path.mask)
    try:
        out = FeasibleState(ctx, ElementSet(ctx.ground, new), warm, _carried_layers(state, path))
    except StateInvariantBroken as exc:
        raise PostconditionFailed(f"augmented state invalid: {exc}") from exc
    if trace is not None:
        trace.augmentations += 1
        trace.record("augment", before=imask, path=path.elements, after=new)
    return out


def _carried_layers(state: FeasibleState, path: AugPath) -> tuple[int, ...]:
    """The layers of ``state`` that keep their distances after augmenting along ``path``.

    When the path is one element z of the warm set, these are the layers
    up to z's, less z (the lemma in ``extend_to_nice``); else none.
    """
    bz = 1 << path.first
    if len(path) == 1 and bz & state.warm.mask:
        for k, layer in enumerate(state.layers):
            if layer & bz:
                return (*state.layers[:k], layer & ~bz)
    return ()


def extend_to_nice(state: FeasibleState, trace: Trace | None = None) -> FeasibleState:
    """Adjoin a common base of the quotient's largest wave.

    Raises ExtensionFailed when no common base exists, which a valid
    augmentation never allows.

    The extension's wave run on the quotient by I either resumes the
    layers the state carries or starts warm from the part of
    ``state.warm`` that is common independent there.  It ends at a
    maximum common independent J with wave W, and B is the common base
    adjoined.  The postcondition asks whether the quotient by I + B is
    clean.  When B is empty, that quotient is the pair just solved, and
    the largest wave does not depend on the start, so W answers it with
    no run.  Otherwise a run on the quotient by I + B starts from J - W,
    which is already maximum there:

    - In M/I, B spans W just as J & W does, so J - W is independent in
      M/(I + B).  In N/I, B is independent in N contracted onto W and
      J - W spans E - W, so B + (J - W) is independent and J - W is
      independent in N/(I + B).
    - Contracting B keeps the N-rank of E - W, so |J - W| = r_{N/I}(E - W)
      is still the N-rank of the quotient outside W, which bounds every
      common independent set there because W becomes M-loops.

    So that run makes no augmentation, and J - W is what the new state
    carries for the next extension.

    Lemma (when a run resumes).  Let B be empty.  B is a base of M
    restricted to W, so W holds no element of J, and the new state
    carries J itself with the layers of the phase that found J maximum.
    Let the next augmenting path be one element z of J.  Then J - z
    is maximum in the quotient by I + z, and its exchange digraph there
    is the one of J in the quotient by I with z deleted, sources and
    sinks included.

    Proof.  Every arc, source and sink is one question "is J - y + x
    independent" or "is J + x independent" in M/I or N/I, for x outside
    J and y in J.  For x and y other than z, J - y + x is independent in
    M/I exactly when J - y + x + I is independent in M, and J - z - y + x
    is independent in M/(I + z) exactly when (J - z - y + x) + (I + z),
    the same set, is; likewise for J + x and for N.  So the digraphs
    agree once z is deleted.  J had no path, so J - z has none, and it
    is maximum.  z lies in J, so it is no sink, and the sinks agree.
    Deleting an element shortens no distance to the sinks.  A shortest
    path to a sink from layer k or below passes only through lower
    layers, so deleting z, which lies in some layer k, keeps the
    distance of every element of layers 0..k.  The resumed search
    (``_classic_step``) keeps those layers less z and builds the rest
    anew.  Every other round runs warm from the start.
    """
    ctx = state.ctx
    pair = ctx.quotient(state.I.mask)
    if state.layers:
        cert = _classic_run(pair.M, pair.N, start=state.warm.mask, carried=state.layers)
        wave = _wave_of(pair, cert)
    else:
        wave = largest_wave(pair, _common_independent_part(pair, state.warm), trace)
    base = common_base_B(pair, wave.W)
    if base is None:
        raise ExtensionFailed("quotient wave admits no common base")
    if base:
        new = FeasibleState(ctx, state.I | base, wave.rest)
        clean = check_cond_plus(ctx.quotient(new.I.mask), wave.rest, trace)
    else:
        new = FeasibleState(ctx, state.I, wave.rest, wave.layers)
        clean = is_clean(pair, wave)
    if not clean:
        raise PostconditionFailed("extension did not reach a nice state")
    if trace is not None:
        trace.wave_runs["resumed"] += bool(state.layers)
        trace.wave_runs["reused"] += not base
        trace.extensions += 1
        trace.record(
            "extend", before=state.I.mask, added=base.mask, wave=wave.W.mask
        )
    return new


def _common_independent_part(pair: PairContext, s: ElementSet) -> ElementSet:
    """Greedy common independent subset of ``s``, smallest indices first.

    When all of ``s`` is common independent the greedy keeps all of it,
    so two queries on the whole set answer without the greedy.
    """
    if pair.M._indep(s.mask) and pair.N._indep(s.mask):
        return ElementSet(pair.ground, s.mask)
    kept = 0
    for x in s:
        grown = kept | (1 << x)
        if pair.M._indep(grown) and pair.N._indep(grown):
            kept = grown
    return ElementSet(pair.ground, kept)


def key_step(state: FeasibleState, e: int, trace: Trace | None = None) -> FeasibleState:
    """Grow the state until element ``e`` of E0 is spanned in N."""
    ctx = state.ctx
    if not (1 << e) & ctx.E0.mask:
        raise PreconditionViolated("target element must lie in E0")
    size = ctx.universe_mask.bit_count()
    # _validate_path admits only odd paths along exchange arcs, which alternate
    # out of and into I, so each round grows I by at least one; |I| <= |E|
    # then caps the rounds at |E|
    max_rounds = size
    rounds = 0
    while not ctx.N._spans(state.I.mask, 1 << e):
        rounds += 1
        if rounds > max_rounds:
            raise Stuck(f"iteration cap {max_rounds} reached while element {e} unspanned")
        path = find_aug_path(state)
        if path is None:
            raise Stuck(f"no augmenting path while element {e} is unspanned")
        before = state.I.mask
        state = augment(state, path, trace)
        state = extend_to_nice(state, trace)
        # N is N|E0 + N|E1, so the E0 part of the N-span grows exactly when
        # the new set spans the E0 part of the old one
        if not ctx.N._spans(state.I.mask, before & ctx.E0.mask):
            raise PostconditionFailed("N-span on E0 stopped being ascending")
    return state


def mixed_solve(
    m: Matroid, split: SplitInput, trace: Trace | None = None
) -> IntersectionCertificate:
    """Wave removal plus the mixed augmenting loop, with a verified certificate."""
    split.validate()
    n = split.N
    ground = m.ground
    wave = largest_wave(PairContext(m, n), trace=trace)
    e_m = wave.W
    e_n = ElementSet(ground, m.universe_mask & ~e_m.mask)
    if trace is not None:
        trace.record("wave", W=e_m.mask, witness=wave.witness.mask)

    # wave.rest is maximum in the quotient, so the check's run makes no augmentation
    mq = m.contract(e_m)
    nq = n.delete(e_m)
    if not check_cond_plus(PairContext(mq, nq), wave.rest, trace):
        raise PostconditionFailed("quotient after wave removal is not clean")

    ctx = PairContext(mq, nq, split.E1 & e_n)
    state = FeasibleState(ctx, ElementSet(ground, 0), wave.rest)
    for e in bit_indices(ctx.E0.mask):
        if not ctx.N._spans(state.I.mask, 1 << e):
            state = key_step(state, e, trace)

    rest = ElementSet(ground, ctx.E1.mask & ~state.I.mask)
    tail_m = mq.contract(state.I).restrict(rest)
    tail_n = nq.onto(rest)
    tail = edmonds_solve(PairContext(tail_m, tail_n))
    if not tail_n._spans(tail.I.mask, rest.mask):
        raise Stuck("cofinitary tail admits no spanning base")

    imask = wave.witness.mask | state.I.mask | tail.I.mask
    cert = IntersectionCertificate(
        ElementSet(ground, imask), e_m, e_n
    )
    if not verify_certificate(m, n, cert):
        raise PostconditionFailed("mixed certificate failed raw verification")
    return cert


def solve(
    m: Matroid,
    n: Matroid,
    solver: str = "classic",
    e1: ElementSet | None = None,
    trace: Trace | None = None,
) -> IntersectionCertificate:
    """Verified maximum common independent set from the named solver.

    The mixed solver walks ``e1`` (default empty) through cocircuits of N
    and the rest of the universe through circuits; the classic solver
    ignores ``e1``.
    """
    if solver == "classic":
        return edmonds_solve(PairContext(m, n), trace)
    if solver == "mixed":
        e1 = e1 if e1 is not None else n.ground.empty()
        e0 = ElementSet(n.ground, n.universe_mask & ~e1.mask)
        return mixed_solve(m, SplitInput(n, e0, e1), trace)
    raise PreconditionViolated(f"unknown solver {solver!r}")
