"""Edmonds' classic intersection engine and its certificates.

A run augments a common independent set of two matroids along shortest
paths of the exchange digraph, a phase at a time, until a backward
search from the sinks meets no source; that search gives a certificate,
re-verified from raw oracles.  ``waves`` reads the largest wave off one
run, and ``intersect`` builds the mixed solver on this engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

from .core import ElementSet, Matroid, MatroidKitError, PostconditionFailed, Stuck, _mask, bit_indices


# ---------------------------------------------------------------------------
# traces and telemetry


@dataclass
class Trace:
    """Event log and counters for replay tests and telemetry.

    ``phases`` counts the phases of traced classic runs.  ``wave_runs``
    counts the mixed loop's wave questions by how they were answered.
    ``waves._wave_run``, the one home of every largest-wave run, counts
    ``cold`` and ``warm`` full classic runs, from the empty set and from
    a set in hand, and ``resumed`` runs that grow a carried backward
    search; ``phases`` there counts the classic phases of the full runs.
    ``reused`` counts the extensions that adjoined an empty common base,
    whose postcondition needs no run (``extend_to_nice``).
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
# the exchange digraph and certificates


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
        stops early pays only for the elements it took.  Asked as one
        ``_spanned`` question, leaf calls plus structural answers (each
        counted as one) rose in every mixed run, whatever the kind of N:
        by 10% with a partition N and 11% with a graphic N on the
        mixed-waves bench, and by 1-8% per kind on corpus-small.  They
        fell only in classic runs, by 16% with a graphic N and 3% with a
        partition N on classic-large (seed 1).
        """
        imask, n = self.imask, self.n
        for z in bit_indices(among & self.e0 & ~imask):
            if n._indep(imask | 1 << z):
                yield z

    def sinks(self, among: int) -> int:
        """The elements of ``among`` in E0 - I that are not M-spanned."""
        cand = among & self.e0 & ~self.imask
        return cand & ~self.m._spanned(self.imask, cand)

    def heads(self, layer: int, among: int) -> int:
        """The elements of ``among`` with an arc from some element of ``layer``.

        The M- and N*-rules ask for circuits (``Matroid._circuits``).  By
        the N-rule, an outside z has an arc from the E0 part L0 of the
        layer exactly when it is N-spanned and its N-circuit meets L0,
        that is, when I spans it and I - L0 does not (``Matroid._spanned``).
        """
        m, n, imask = self.m, self.n, self.imask
        out = m._circuits(imask, layer, among & imask)
        if l0 := layer & imask & self.e0:
            spanned = n._spanned(imask, among)
            out |= spanned & ~n._spanned(imask & ~l0, spanned)
        if l1 := layer & imask & self.e1:
            out |= n.dual()._circuits(self.safe, l1, among & self.safe & ~out)
        return out

    def tails_into(self, among: int, heads: int) -> int:
        """The elements of ``among`` with an arc into some element of ``heads``.

        Only the classic phase searches backward, and its digraph has E1
        empty, so the N*-rule has no tails here.

        - M-rule: an M-spanned x outside I has an arc into the I-part H
          of ``heads`` exactly when I - H does not span it.  So the tails
          are what I spans among what I - H does not (``Matroid._spanned``
          twice, I - H first).
        - N-rule: the tails into an N-spanned z outside I are the elements
          of C_N(z, I) - z; one circuit question asks them for every head
          (``Matroid._circuits``).
        """
        m, imask = self.m, self.imask
        out = self.n._circuits(imask, heads, among & imask & self.e0)
        if h_in := heads & imask:
            cand = among & ~imask
            out |= m._spanned(imask, cand & ~m._spanned(imask & ~h_in, cand))
        return out


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
# span checks and the classic solver


def _check_chordless(
    dg: ExchangeDigraph, path: Sequence[int], error: type[MatroidKitError]
) -> None:
    """A shortest path has no arc that skips ahead along it.

    One ``heads`` question per position; the error names the least jump.
    """
    for k in range(len(path) - 2):
        jumps = dg.heads(1 << path[k], _mask(path[k + 2:]))
        if jumps:
            ell = next(i for i in range(k + 2, len(path)) if jumps >> path[i] & 1)
            raise error(f"jumping arc {k}->{ell}")


def _walk(dg: ExchangeDigraph, path: list[int], kept: Sequence[int], alive: int) -> int:
    """Extend ``path`` to a sink in the last of the ``kept`` layers; the elements left alive.

    Position i takes the least head in ``kept[i] & alive``, and each dead
    end leaves ``alive``; so ``path`` ends as the lexicographically least
    such path, or empty when there is none.  Candidates are asked one at
    a time, least first: the least is most often a head, and for the
    M-rule one candidate y asks only I - y + x, where halving over a
    layer inside the circuit asks up to twice its size in fresh masks.
    """
    while path and not (len(path) == len(kept) and dg.sinks(1 << path[-1])):
        v = path[-1]
        ahead = kept[len(path)] & alive if len(path) < len(kept) else 0
        nxt = next((y for y in bit_indices(ahead) if dg.heads(1 << v, 1 << y)), None)
        if nxt is None:
            alive &= ~(1 << v)
            path.pop()
        else:
            path.append(nxt)
    return alive


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


def _greedy(m: Matroid, n: Matroid, imask: int, among: int | None = None) -> list[int]:
    """The elements a greedy pass over ``among`` adds to the common independent ``imask``, in order.

    Least element of ``among`` (default the universe) first, x is added
    when I + x is independent in both matroids.  M is asked first; when
    the matroid asked second says no, the two swap, so the one that last
    said no is asked first from then on.  The two questions are a
    conjunction and I grows only when both say yes, so the order changes
    which masks are asked, never the answers or the elements added.  Each
    element outside I asks one query (the first matroid says no) or two.
    """
    added = []
    among = m.universe_mask if among is None else among
    first, second = m, n
    for x in bit_indices(among & ~imask):
        grown = imask | 1 << x
        if not first._indep(grown):
            continue
        if second._indep(grown):
            imask = grown
            added.append(x)
        else:
            first, second = second, first
    return added


def _classic_run(
    m: Matroid, n: Matroid, trace: Trace | None = None, start: int = 0,
    carried: tuple[int, ...] = (),
) -> IntersectionCertificate:
    """Run the classic solver to completion from ``start``; unverified.

    Augmenting paths reach a maximum set from any common independent
    start (Edmonds 1970).  Each phase (``_classic_step``) searches
    backward from the sinks and augments along paths of one length,
    longer than the last phase's, until a search meets no source; that
    search gives the certificate.  ``m`` and ``n`` share one universe, as
    the members of a ``PairContext`` do.  ``start`` must be common
    independent; ``waves._wave_run``, the one caller that passes one,
    tests it.  ``carried`` layers resume the first phase's search
    (``_classic_step``).

    The first phase is one greedy pass over the start (``_greedy``), the
    one phase with paths of length 0: it adds every element that is both
    a source and a sink, and spans only grow, so no later phase has one.
    Its additions are applied as one-element paths, through the same
    loop as every later phase's paths.  A resumed run skips the greedy:
    the carried set is already maximum.
    """
    universe = m.universe_mask
    imask = start
    step = [] if carried else list(zip(_greedy(m, n, imask)))  # one-element paths
    # each phase but the last grows I by at least one; a certificate counts
    # as a phase, and only the greedy's phase can hold no path
    for _ in range(universe.bit_count() + 2):
        if trace is not None and step:
            trace.phases += 1
        if isinstance(step, IntersectionCertificate):
            return step
        for path in step:
            before = imask
            for x in path:
                imask ^= 1 << x
            if trace is not None:
                trace.augmentations += 1
                trace.record("classic-augment", phase=trace.phases, before=before,
                             path=tuple(path), after=imask)
        step = _classic_step(m, n, imask, carried)
        carried = ()
    raise Stuck("classic solver exceeded its phase budget")


def _classic_step(
    m: Matroid, n: Matroid, imask: int, carried: tuple[int, ...] = ()
) -> list[list[int]] | IntersectionCertificate:
    """One phase from ``imask``: the checked paths it applied in turn, or the certificate.

    ``imask`` must be greedy-filled: no element outside I is both a
    source and a sink (``_classic_run``), so layer 0, the sinks, holds
    no source.  One breadth-first search grows backward from all sinks
    through ``tails_into``: layer k holds the elements at distance k to
    the sinks, and only the elements of each new layer, from layer 1 on,
    are tested as sources.  When a layer Ld holds sources, the shortest
    paths have length d.  Augmenting along a shortest path shortens
    neither the distance from the sources nor the distance to the sinks
    (Cunningham 1986).  So the element at position i of a length-d path
    in a later digraph of the phase was, at the start, at most i from a
    source and at most d - i from a sink; no path was shorter than d, so
    it was exactly d - i from the sinks.  It lies in L(d - i), and each
    later length-d path runs through [sources of Ld, L(d-1), ..., L0].
    A lowest-first walk through them (``_walk``) asks the arcs of the
    current digraph; used and dead-end elements leave the phase.

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
    first = 0
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
    if carried:
        raise PostconditionFailed("a resumed backward search met a source")
    kept = [first, *reversed(layers[:-1])]
    alive = sum(kept)  # the layers are disjoint
    paths = []
    for s in bit_indices(kept[0]):
        path = list(dg.sources(1 << s))  # the N-span grows, so sources only leave
        alive = _walk(dg, path, kept, alive)
        if path:
            _check_chordless(dg, path, PostconditionFailed)
            imask = _augmented(m, n, imask, path, universe)
            alive &= ~_mask(path)
            paths.append(path)
            dg = ExchangeDigraph(m, n, imask, 0, 0)
    return paths
