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
from functools import cached_property, partial
from typing import Callable, Sequence

from .core import (
    ElementSet,
    Matroid,
    MatroidKitError,
    NotCommonIndependent,
    PostconditionFailed,
    PreconditionViolated,
    ExtensionFailed,
    StateInvariantBroken,
    Stuck,
    UniverseMismatch,
    bit_indices,
)
from .waves import PairContext, check_cond_plus, common_base_B, largest_wave


# ---------------------------------------------------------------------------
# traces and telemetry


@dataclass
class Trace:
    """Event log and counters for replay tests and telemetry."""

    events: list = field(default_factory=list)
    augmentations: int = 0
    extensions: int = 0

    def record(self, kind: str, **data) -> None:
        self.events.append({"kind": kind, **data})

    def as_dict(self) -> dict:
        return {
            "augmentations": self.augmentations,
            "extensions": self.extensions,
            "events": self.events,
        }


# ---------------------------------------------------------------------------
# digraphs and paths


class ExchangeDigraph:
    """The exchange digraph as one bitmask of heads per tail, built tail by tail.

    ``rule(x)`` gives the heads of tail ``x``; it runs the first time a
    search asks for that tail, so tails no search reaches cost nothing.
    """

    def __init__(self, universe: int, rule: Callable[[int], int]) -> None:
        self.universe = universe
        self.rule = rule
        self.out: dict[int, int] = {}

    def heads(self, x: int) -> int:
        hit = self.out.get(x)
        if hit is None:
            hit = self.out[x] = self.rule(x)
        return hit

    def tails_into(self, among: int, heads: int) -> int:
        """The elements of ``among`` with an arc into ``heads``."""
        out = 0
        for x in bit_indices(among):
            if self.heads(x) & heads:
                out |= 1 << x
        return out

    @property
    def arcs(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            (x, y) for x in bit_indices(self.universe) for y in bit_indices(self.heads(x))
        )

    def has_arc(self, x: int, y: int) -> bool:
        return bool(self.heads(x) >> y & 1)


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
        out = 0
        for e in self.elements:
            out |= 1 << e
        return out

    def __len__(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class IntersectionCertificate:
    """A common independent set with a two-sided spanning partition."""

    I: ElementSet
    E_M: ElementSet
    E_N: ElementSet


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
    if am & ~m._span(imask & am):
        return False
    if an & ~n._span(imask & an):
        return False
    return True


# ---------------------------------------------------------------------------
# shortest-path machinery


def _bfs_path(dg: ExchangeDigraph, source: int, sinks_mask: int) -> list[int] | None:
    """Shortest path from ``source`` to the least nearest sink, lexicographically least.

    Distance layers grow forward until one meets the sinks.  Going back
    from the least sink in that layer, each earlier layer keeps only the
    elements with an arc into the next kept layer, so every kept element
    lies on a shortest path to that sink; the path then takes the lowest
    kept head at each step.
    """
    layers = [1 << source]
    seen = layers[0]
    while not layers[-1] & sinks_mask:
        nxt = 0
        for u in bit_indices(layers[-1]):
            nxt |= dg.heads(u)
        nxt &= ~seen
        if not nxt:
            return None
        seen |= nxt
        layers.append(nxt)
    hit = layers[-1] & sinks_mask
    kept = [hit & -hit]
    for layer in reversed(layers[:-1]):
        kept.append(dg.tails_into(layer, kept[-1]))
    path = [source]
    for layer in reversed(kept[:-1]):
        heads = dg.heads(path[-1]) & layer
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


def _first_path(dg: ExchangeDigraph, sources: int, sinks: int) -> list[int] | None:
    """Checked shortest path from the least source that reaches a sink."""
    for s in bit_indices(sources):
        path = _bfs_path(dg, s, sinks)
        if path is not None:
            _check_chordless(dg, path, PostconditionFailed)
            return path
    return None


def _coreach(dg: ExchangeDigraph, seeds_mask: int) -> int:
    seen = frontier = seeds_mask
    while frontier:
        frontier = dg.tails_into(dg.universe & ~seen, frontier)
        seen |= frontier
    return seen


def _augmented(m: Matroid, n: Matroid, imask: int, path: Sequence[int], e0: int) -> int:
    """I xor the path, checked to keep the spans an augmentation guarantees.

    The new set must be common independent, span in M what I + last
    spans, and span on E0 in N what I + first spans.
    """
    new = imask
    for e in path:
        new ^= 1 << e
    if not (m._indep(new) and n._indep(new)):
        raise PostconditionFailed("augmented set is not common independent")
    if m._span(new) != m._span(imask | (1 << path[-1])):
        raise PostconditionFailed("M-span was not preserved by the augmentation")
    if n._span(new) & e0 != n._span(imask | (1 << path[0])) & e0:
        raise PostconditionFailed("N-span on E0 was not preserved by the augmentation")
    return new


# ---------------------------------------------------------------------------
# the exchange rules


def _heads(m: Matroid, n: Matroid, imask: int, e1: int, safe: int, x: int) -> int:
    """Heads of tail ``x`` in the exchange digraph at the common independent set ``imask``.

    M-rule: an M-spanned x outside I points into its M-circuit.  N-rule:
    an x of I in E0 points to each N-spanned z outside I with I - x + z
    N-independent, that is, whose N-circuit holds x.  N*-rule: an x of I
    in E1 points into its fundamental circuit in the dual of N against
    ``safe``, the E1 part of the M-span outside I.  With E1 empty this is
    the classic digraph.
    """
    bx = 1 << x
    if not bx & imask:
        if m._indep(imask | bx):
            return 0
        return m._fund_circuit(x, imask) ^ bx
    if bx & e1:
        return n.dual()._fund_circuit(x, safe) ^ bx
    out = 0
    for z in bit_indices(m.universe_mask & ~imask):
        bz = 1 << z
        if not n._indep(imask | bz) and n._indep((imask | bz) ^ bx):
            out |= bz
    return out


# ---------------------------------------------------------------------------
# classic solver


def _classic_run(
    m: Matroid, n: Matroid, trace: Trace | None = None
) -> IntersectionCertificate:
    """Run the classic solver to completion from the empty set; unverified."""
    if m.universe_mask != n.universe_mask or m.ground.labels != n.ground.labels:
        raise UniverseMismatch("intersection needs a shared universe")
    universe = m.universe_mask
    # each augmentation grows I by one, and one more step returns the certificate
    max_steps = universe.bit_count() + 1
    imask = 0
    for _ in range(max_steps):
        step = _classic_step(m, n, imask)
        if isinstance(step, IntersectionCertificate):
            return step
        new = _augmented(m, n, imask, step, universe)
        if trace is not None:
            trace.augmentations += 1
            trace.record("classic-augment", before=imask, path=tuple(step), after=new)
        imask = new
    raise Stuck("classic solver exceeded its augmentation budget")


def _classic_step(m: Matroid, n: Matroid, imask: int) -> "list[int] | IntersectionCertificate":
    """A shortest augmenting path, or the reachability certificate when there is none."""
    universe = m.universe_mask
    dg = ExchangeDigraph(universe, partial(_heads, m, n, imask, 0, 0))
    sources = universe & ~n._span(imask)
    sinks_mask = universe & ~m._span(imask)
    path = _first_path(dg, sources, sinks_mask)
    if path is not None:
        return path
    ground = m.ground
    e_m = universe & ~_coreach(dg, sinks_mask)
    return IntersectionCertificate(
        ElementSet(ground, imask), ElementSet(ground, e_m), ElementSet(ground, universe & ~e_m)
    )


def edmonds_step(ctx: PairContext, independent: ElementSet) -> IntersectionCertificate | AugPath:
    """One classic step: an augmenting path, or the reachability certificate."""
    imask = ctx.M._check_subset(independent)
    if not (ctx.M._indep(imask) and ctx.N._indep(imask)):
        raise NotCommonIndependent("starting set is not common independent")
    step = _classic_step(ctx.M, ctx.N, imask)
    if isinstance(step, IntersectionCertificate):
        return step
    return AugPath(tuple(step))


def edmonds_solve(ctx: PairContext, trace: Trace | None = None) -> IntersectionCertificate:
    """Maximum common independent set with the two-sided spanning partition.

    The emitted M-side is the set of elements that cannot reach an
    M-unspanned element in the final exchange digraph; this is the
    largest valid choice and coincides with the union of all waves.
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

    ``ring`` is the set of elements spanned by I in M but outside I;
    ``safe_base`` is its E1 part, which stays a dual base of the E1 part
    of the M-span while the state is dually safe.  Construction checks
    these invariants and raises StateInvariantBroken when one fails.
    """

    ctx: PairContext
    I: ElementSet

    def __post_init__(self) -> None:
        ctx = self.ctx
        imask = ctx.M._check_subset(self.I)
        if not (ctx.M._indep(imask) and ctx.N._indep(imask)):
            raise StateInvariantBroken("state set is not common independent")
        nd = ctx.N.dual()
        safe = self.safe_base.mask
        if not nd._indep(safe):
            raise StateInvariantBroken("safe base is dependent in the dual")
        # dually safe: I & E1 lies in the dual span of the safe base
        in_e1 = imask & ctx.E1.mask
        if in_e1 and in_e1 & ~nd._span(safe):
            raise StateInvariantBroken("state is not dually safe")

    @property
    def span_m(self) -> ElementSet:
        return ElementSet(self.ctx.ground, self.ctx.M._span(self.I.mask))

    @property
    def ring(self) -> ElementSet:
        return self.span_m - self.I

    @property
    def safe_base(self) -> ElementSet:
        return self.ring & self.ctx.E1

    @cached_property
    def digraph(self) -> ExchangeDigraph:
        """The exchange digraph at this state, shared by path search and validation."""
        return build_exchange_digraph(self)


def build_exchange_digraph(state: FeasibleState) -> ExchangeDigraph:
    """The three-rule exchange digraph of the mixed method."""
    ctx = state.ctx
    rule = partial(_heads, ctx.M, ctx.N, state.I.mask, ctx.E1.mask, state.safe_base.mask)
    return ExchangeDigraph(ctx.universe_mask, rule)


def _validate_path(state: FeasibleState, path: tuple[int, ...]) -> None:
    ctx = state.ctx
    if len(path) % 2 == 0 or len(set(path)) != len(path):
        raise PreconditionViolated("path must be an odd sequence of distinct elements")
    first, last = path[0], path[-1]
    if not (1 << first) & ctx.E0.mask or (1 << first) & ctx.N._span(state.I.mask):
        raise PreconditionViolated("path must start at an E0 element unspanned in N")
    if not (1 << last) & ctx.E0.mask or (1 << last) & state.span_m.mask:
        raise PreconditionViolated("path must end at an E0 element unspanned in M")
    dg = state.digraph
    for k in range(len(path) - 1):
        if not dg.has_arc(path[k], path[k + 1]):
            raise PreconditionViolated(f"missing arc at position {k}")
    _check_chordless(dg, path, PreconditionViolated)


def find_aug_path(state: FeasibleState) -> AugPath | None:
    """Shortest augmenting path from the least source that reaches a sink."""
    ctx = state.ctx
    sources = ctx.E0.mask & ~ctx.N._span(state.I.mask)
    sinks_mask = ctx.E0.mask & ~state.span_m.mask
    path = _first_path(state.digraph, sources, sinks_mask)
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
    if safe2 != safe and nd._span(safe) != nd._span(safe2):
        raise PostconditionFailed("dual span was not preserved by the augmentation")
    try:
        out = FeasibleState(ctx, ElementSet(ctx.ground, new))
    except StateInvariantBroken as exc:
        raise PostconditionFailed(f"augmented state invalid: {exc}") from exc
    if trace is not None:
        trace.augmentations += 1
        trace.record("augment", before=imask, path=path.elements, after=new)
    return out


def extend_to_nice(state: FeasibleState, trace: Trace | None = None) -> FeasibleState:
    """Adjoin a common base of the quotient's largest wave.

    Raises ExtensionFailed when no common base exists, which a valid
    augmentation never allows.
    """
    ctx = state.ctx
    pair = ctx.quotient(state.I.mask)
    wave = largest_wave(pair)
    base = common_base_B(pair, wave.W)
    if base is None:
        raise ExtensionFailed("quotient wave admits no common base")
    new = FeasibleState(ctx, state.I | base)
    if not check_cond_plus(ctx.quotient(new.I.mask)):
        raise PostconditionFailed("extension did not reach a nice state")
    if trace is not None:
        trace.extensions += 1
        trace.record(
            "extend", before=state.I.mask, added=base.mask, wave=wave.W.mask
        )
    return new


def key_step(state: FeasibleState, e: int, trace: Trace | None = None) -> FeasibleState:
    """Grow the state until element ``e`` of E0 is spanned in N."""
    ctx = state.ctx
    if not (1 << e) & ctx.E0.mask:
        raise PreconditionViolated("target element must lie in E0")
    size = ctx.universe_mask.bit_count()
    # each round grows I by one, so |E| rounds suffice; the cap is kept loose
    max_rounds = size * (size + 2) + 1
    rounds = 0
    while not ctx.N._span(state.I.mask) >> e & 1:
        rounds += 1
        if rounds > max_rounds:
            raise Stuck(f"iteration cap {max_rounds} reached while element {e} unspanned")
        path = find_aug_path(state)
        if path is None:
            raise Stuck(f"no augmenting path while element {e} is unspanned")
        before0 = ctx.N._span(state.I.mask) & ctx.E0.mask
        state = augment(state, path, trace)
        state = extend_to_nice(state, trace)
        if before0 & ~(ctx.N._span(state.I.mask) & ctx.E0.mask):
            raise PostconditionFailed("N-span on E0 stopped being ascending")
    return state


def mixed_solve(
    m: Matroid, split: SplitInput, trace: Trace | None = None
) -> IntersectionCertificate:
    """Wave removal plus the mixed augmenting loop, with a verified certificate."""
    split.validate()
    n = split.N
    ground = m.ground
    wave = largest_wave(PairContext(m, n))
    e_m = wave.W
    e_n = ElementSet(ground, m.universe_mask & ~e_m.mask)
    if trace is not None:
        trace.record("wave", W=e_m.mask, witness=wave.witness.mask)

    mq = m.contract(e_m)
    nq = n.delete(e_m)
    if not check_cond_plus(PairContext(mq, nq)):
        raise PostconditionFailed("quotient after wave removal is not clean")

    ctx = PairContext(mq, nq, split.E1 & e_n)
    state = FeasibleState(ctx, ElementSet(ground, 0))
    for e in bit_indices(ctx.E0.mask):
        if not ctx.N._span(state.I.mask) >> e & 1:
            state = key_step(state, e, trace)

    rest = ElementSet(ground, ctx.E1.mask & ~state.I.mask)
    tail_m = mq.contract(state.I).restrict(rest)
    tail_n = nq.onto(rest)
    tail = edmonds_solve(PairContext(tail_m, tail_n))
    if len(tail.I) != tail_n.rank():
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
