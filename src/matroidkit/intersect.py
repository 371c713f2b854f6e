"""The mixed intersection solver, built on the classic engine.

``edmonds_solve`` verifies a classic run (:mod:`matroidkit.classic`).
The mixed solver removes the largest wave, then treats a declared split
E = E0 | E1 of the second matroid's universe asymmetrically: on E0 the
exchange digraph uses circuits of N, on E1 cocircuits against the base
formed by the E1-part of the spanned-but-unused elements.  Every
augmentation is checked against its guaranteed span-preservation
properties, and every certificate is re-verified from raw oracles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .classic import (
    ExchangeDigraph,
    IntersectionCertificate,
    Trace,
    _augmented,
    _check_chordless,
    _classic_run,
    _same_span,
    _walk,
    verify_certificate,
)
from .core import (
    ElementSet,
    Matroid,
    PostconditionFailed,
    PreconditionViolated,
    ExtensionFailed,
    StateInvariantBroken,
    Stuck,
    _mask,
    bit_indices,
)
from .waves import PairContext, _wave_run, check_cond_plus, common_base_B, largest_wave


# ---------------------------------------------------------------------------
# augmenting paths and the shortest-path search


def _bfs_path(dg: ExchangeDigraph, source: int) -> list[int] | None:
    """Shortest path from ``source`` to the least nearest sink, lexicographically least.

    Distance layers grow forward until one holds a sink; only the
    elements of each layer are tested as sinks.  Every shortest path to
    the least sink of the last layer runs through the layers in order,
    so the classic phase's lowest-first walk (``_walk``) through them
    finds the least one.
    """
    layers = [1 << source]
    seen = layers[0]
    while not (hit := dg.sinks(layers[-1])):
        nxt = dg.heads(layers[-1], dg.universe & ~seen)
        if not nxt:
            return None
        seen |= nxt
        layers.append(nxt)
    path = [source]
    _walk(dg, path, [*layers[:-1], hit & -hit], seen)
    return path


def _first_path(dg: ExchangeDigraph, among: int | None = None) -> list[int] | None:
    """Checked shortest path from the least source that reaches a sink; the mixed search.

    Sources are looked for in ``among`` (default all of E0); a caller that
    knows no source lies outside it saves their queries.
    """
    for s in dg.sources(dg.e0 if among is None else among):
        path = _bfs_path(dg, s)
        if path is not None:
            _check_chordless(dg, path, PostconditionFailed)
            return path
    return None


# ---------------------------------------------------------------------------
# classic solver


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
        if e0 and e1:  # with one part empty, no component can cross the split
            for comp in self.N.components():
                if comp.mask & e0 and comp.mask & e1:
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
        """One ``_spanned`` question of M.  M answers it from its structure
        when it is a graphic or partition leaf under contractions and
        restrictions and E1 - I holds two or more elements; otherwise by
        one query per element of E1 - I, none when E1 is empty."""
        return ElementSet(self.ctx.ground, self.ctx.M._spanned(self.I.mask, self.ctx.E1.mask))

    @cached_property
    def digraph(self) -> ExchangeDigraph:
        """The exchange digraph at this state, shared by path search and validation."""
        return build_exchange_digraph(self)


def build_exchange_digraph(state: FeasibleState) -> ExchangeDigraph:
    """The three-rule exchange digraph of the mixed method."""
    ctx = state.ctx
    return ExchangeDigraph(ctx.M, ctx.N, state.I.mask, ctx.E1.mask, state.safe_base.mask)


def _validate_path(state: FeasibleState, path: tuple[int, ...]) -> None:
    if len(path) % 2 == 0 or len(set(path)) != len(path):
        raise PreconditionViolated("path must be an odd sequence of distinct elements")
    dg = state.digraph
    if not _mask(dg.sources(1 << path[0])):
        raise PreconditionViolated("path must start at an E0 element unspanned in N")
    if not dg.sinks(1 << path[-1]):
        raise PreconditionViolated("path must end at an E0 element unspanned in M")
    for k in range(len(path) - 1):
        if not dg.heads(1 << path[k], 1 << path[k + 1]):
            raise PreconditionViolated(f"missing arc at position {k}")
    _check_chordless(dg, path, PreconditionViolated)


def find_aug_path(state: FeasibleState, among: int | None = None) -> tuple[int, ...] | None:
    """Shortest augmenting path from the least source that reaches a sink.

    The path is its odd alternating element sequence, from an N-unspanned
    to an M-unspanned element.  ``among`` (default all of E0) is where
    sources are looked for; it must hold every source, so that the least
    one, and so the path, is the same.
    """
    path = _first_path(state.digraph, among)
    return None if path is None else tuple(path)


def augment(state: FeasibleState, path: tuple[int, ...], trace: Trace | None = None) -> FeasibleState:
    """Apply one augmenting path; all guaranteed properties are asserted."""
    _validate_path(state, path)
    ctx = state.ctx
    nd = ctx.N.dual()
    imask = state.I.mask
    new = _augmented(ctx.M, ctx.N, imask, path, ctx.E0.mask)
    pmask = _mask(path)
    safe = state.safe_base.mask
    safe2 = safe ^ (pmask & ctx.E1.mask)
    if not nd._indep(safe2):
        raise PostconditionFailed("updated dual base is dependent")
    if not _same_span(nd, safe, safe2, nd.universe_mask):
        raise PostconditionFailed("dual span was not preserved by the augmentation")
    warm = ElementSet(ctx.ground, state.warm.mask & ~pmask)
    try:
        out = FeasibleState(ctx, ElementSet(ctx.ground, new), warm, _carried_layers(state, path))
    except StateInvariantBroken as exc:
        raise PostconditionFailed(f"augmented state invalid: {exc}") from exc
    if trace is not None:
        trace.augmentations += 1
        trace.record("augment", before=imask, path=path, after=new)
    return out


def _carried_layers(state: FeasibleState, path: tuple[int, ...]) -> tuple[int, ...]:
    """The layers of ``state`` that keep their distances after augmenting along ``path``.

    When the path is one element z of the warm set, these are the layers
    up to z's, less z (the lemma in ``extend_to_nice``); else none.
    """
    bz = 1 << path[0]
    if len(path) == 1 and bz & state.warm.mask:
        for k, layer in enumerate(state.layers):
            if layer & bz:
                return (*state.layers[:k], layer & ~bz)
    return ()


def extend_to_nice(state: FeasibleState, trace: Trace | None = None) -> FeasibleState:
    """Adjoin a common base of the quotient's largest wave.

    Raises ExtensionFailed when no common base exists, which a valid
    augmentation never allows, and PostconditionFailed when the new state
    breaks an invariant or is not nice.

    The extension's wave run on the quotient by I is one ``_wave_run``:
    it resumes the layers the state carries, or starts from the part of
    ``state.warm`` that is common independent there.  It ends at a
    maximum common independent J with wave W, and B is the common base
    adjoined.  The postcondition asks whether the quotient by I + B is
    clean.  When B is empty, that quotient is the pair just solved, and
    ``common_base_B`` returned B only after the empty set spanned W in M
    and in N contracted onto W, the two questions of ``is_clean``; so no
    check runs.  Otherwise a run on the quotient by I + B starts from
    J - W, which is already maximum there:

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
    wave = _wave_run(pair, state.warm.mask, state.layers, trace)
    base = common_base_B(pair, wave.W)
    if base is None:
        raise ExtensionFailed("quotient wave admits no common base")
    try:
        new = FeasibleState(ctx, state.I | base, wave.rest, () if base else wave.layers)
    except StateInvariantBroken as exc:
        raise PostconditionFailed(f"extended state invalid: {exc}") from exc
    if base and not check_cond_plus(ctx.quotient(new.I.mask), wave.rest, trace):
        raise PostconditionFailed("extension did not reach a nice state")
    if trace is not None:
        trace.wave_runs["reused"] += not base
        trace.extensions += 1
        trace.record(
            "extend", before=state.I.mask, added=base.mask, wave=wave.W.mask
        )
    return new


def mixed_solve(
    m: Matroid, split: SplitInput, trace: Trace | None = None
) -> IntersectionCertificate:
    """Wave removal plus the mixed augmenting loop, with a verified certificate.

    For each e of E0, least first, while N does not span e, a round takes
    one augmenting path from the E0 elements from e up, then one extension
    to a nice state.  No source lies below e: ``_augmented`` checks that
    the N-span on E0 only grows, and an extension only adds to I.  Each
    round grows I, which lies in E - W, so |E - W| rounds bound the solve.
    """
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
    ctx = PairContext(mq, nq, split.E1 & e_n)
    if not check_cond_plus(ctx, wave.rest, trace):
        raise PostconditionFailed("quotient after wave removal is not clean")

    state = FeasibleState(ctx, ElementSet(ground, 0), wave.rest)
    max_rounds = ctx.universe_mask.bit_count()
    rounds = 0
    for e in bit_indices(ctx.E0.mask):
        floor = ctx.E0.mask & -(1 << e)  # the E0 elements from e up
        while not ctx.N._spans(state.I.mask, 1 << e):
            rounds += 1
            if rounds > max_rounds:
                raise Stuck(f"iteration cap {max_rounds} reached while element {ground.label(e)} unspanned")
            path = find_aug_path(state, floor)
            if path is None:
                raise Stuck(f"no augmenting path while element {ground.label(e)} is unspanned")
            state = extend_to_nice(augment(state, path, trace), trace)

    rest = ElementSet(ground, ctx.E1.mask & ~state.I.mask)
    tail_m = mq.contract(state.I).restrict(rest)
    tail_n = nq.onto(rest)
    tail = _classic_run(tail_m, tail_n)  # verified with the whole answer below
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
