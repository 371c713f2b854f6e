"""Waves, the largest wave, quotient conditions and common bases.

A wave for an ordered pair of matroids on one universe is a set W such
that the restriction of the first matroid to W has a base that stays
independent in the contraction of the second matroid onto W.  These
objects and the strengthened quotient condition below are the
structural layer the mixed intersection solver leans on.  On finite
matroids the largest wave is the M-side of one classic intersection
certificate, so everything here is polynomial; the exhaustive wave
condition ``check_cond`` is ground truth in :mod:`matroidkit.oracle`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .classic import Trace, _classic_run, _greedy
from .core import (
    ElementSet,
    Matroid,
    NotCommonIndependent,
    PostconditionFailed,
    UniverseMismatch,
    _mask,
)


@dataclass(frozen=True)
class PairContext:
    """Two matroids on one ground set and one universe, with a split of it.

    ``E1`` is the cofinitary part of the universe, which the mixed solver
    walks through cocircuits of N; the finitary rest ``E0`` goes through
    circuits of N.  E1 defaults to empty, which is the classic pair.
    """

    M: Matroid
    N: Matroid
    E1: ElementSet | None = None

    def __post_init__(self) -> None:
        if self.M.ground.labels != self.N.ground.labels:
            raise UniverseMismatch("pair members live on different ground sets")
        if self.M.universe_mask != self.N.universe_mask:
            raise UniverseMismatch("pair members have different universes")
        if self.E1 is None:
            object.__setattr__(self, "E1", ElementSet(self.ground, 0))
        self.M._check_subset(self.E1)

    @property
    def ground(self):
        return self.M.ground

    @property
    def universe_mask(self) -> int:
        return self.M.universe_mask

    @cached_property
    def E0(self) -> ElementSet:
        return ElementSet(self.ground, self.universe_mask & ~self.E1.mask)

    def quotient(self, imask: int) -> "PairContext":
        """Contract a common independent set in both members."""
        s = ElementSet(self.ground, imask)
        e1 = ElementSet(self.ground, self.E1.mask & ~imask)
        return PairContext(self.M.contract(s), self.N.contract(s), e1)


def is_wave(ctx: PairContext, w: ElementSet) -> ElementSet | None:
    """Witness that ``w`` is a wave, or None.

    A witness is a base of M restricted to ``w`` that is independent in
    N contracted onto ``w``; it is found by solving the intersection of
    those two minors and testing whether it spans ``w`` in M.  The empty
    set is a wave with the empty witness, which needs no run.
    """
    wmask = ctx.M._check_subset(w)
    if not wmask:
        return w
    common = _classic_run(ctx.M.restrict(w), ctx.N.onto(w)).I
    if ctx.M._spans(common.mask, wmask):
        return common
    return None


def largest_wave(ctx: PairContext, start: ElementSet | None = None, trace=None) -> "Wave":
    """The union of all waves, read off one classic certificate.

    Fix a maximum common independent set I and let
    f(X) = r_M(X) + r_N(E - X).  Then:

    - The splits X with I & X spanning X in M and I - X spanning E - X
      in N are exactly the minimizers of f, since f(X) >= |I| with
      equality just in that case.
    - Each such split is a wave, with witness I & X.
    - For every wave W, f(X | W) <= f(X), so the largest minimizer
      contains every wave.
    - The M-side of the classic certificate, the complement of the
      co-reach of the M-unspanned sinks, is the largest such split for I.

    So the M-side is the largest wave and I & E_M witnesses it.  f does
    not depend on I, so neither does W: the classic run may start from
    any common independent ``start`` (default empty) and only the
    witness and ``rest`` can change.  A non-empty start that is not
    common independent raises NotCommonIndependent.  On infinite
    matroids the largest wave needs a transfinite accumulation over
    quotients; on finite ones that loop stops after this one step.  The
    run, its count in ``trace`` and the re-check of the witness are
    ``_wave_run``'s.
    """
    smask = _require_common_independent(ctx, start) if start else 0
    return _wave_run(ctx, smask, (), trace)


def _wave_run(ctx: PairContext, warm: int, carried: tuple[int, ...], trace) -> "Wave":
    """The largest wave of ``ctx`` from one classic run, re-checked from raw oracles.

    Every start is tested once, by two queries on the whole set.  With
    ``carried`` layers the run resumes that backward search from ``warm``
    (the lemma in ``intersect.extend_to_nice``); else it starts from the
    greedy common independent part of ``warm``, which is all of it when
    the test holds.  A ``warm`` that leaves the universe, or a carried one
    that is not common independent, is a caller's bug and raises
    PostconditionFailed.

    W is the certificate's M-side, whose set is maximum, so W is the
    largest wave; the witness is the part of that set in W, and the wave
    keeps the layers of the search that found it.  A ``trace`` (a
    ``classic.Trace``) counts the run in ``wave_runs``: as resumed, else
    as cold from the empty set or warm, with the full runs' phases.
    """
    start = warm
    outside = warm & ~ctx.universe_mask
    if outside or warm and not (ctx.M._indep(warm) and ctx.N._indep(warm)):
        if carried or outside:
            raise PostconditionFailed("classic run start is not common independent")
        start = _mask(_greedy(ctx.M, ctx.N, 0, warm))
    run = None if trace is None else Trace()
    cert = _classic_run(ctx.M, ctx.N, run, start, carried)
    if trace is not None:
        trace.wave_runs["resumed" if carried else "warm" if start else "cold"] += 1
        if not carried:
            trace.wave_runs["phases"] += run.phases
    wave = Wave(cert.E_M, cert.I & cert.E_M, cert.I - cert.E_M, cert.layers)
    _verify_wave(ctx, wave)
    return wave


def _verify_wave(ctx: PairContext, wave: "Wave") -> None:
    """Re-check the wave witness from raw oracles; failure is a solver bug."""
    wmask = wave.W.mask
    bmask = wave.witness.mask
    if bmask & ~wmask:
        raise PostconditionFailed("wave witness leaves the wave")
    if not ctx.M._indep(bmask):
        raise PostconditionFailed("wave witness is dependent in M")
    if not ctx.M._spans(bmask, wmask):
        raise PostconditionFailed("wave witness does not span the wave in M")
    if not ctx.N.onto(wave.W)._indep(bmask):
        raise PostconditionFailed("wave witness is dependent in N contracted onto W")


@dataclass(frozen=True)
class Wave:
    """A wave together with one witnessing base.

    ``rest`` (default empty) is, in the wave ``_wave_run`` returns, the
    part outside W of the maximum common independent set W was read
    from.  It is independent in M/W, since the witness spans W, and it
    spans E - W in N, so it is a maximum common independent set of the
    quotient pair (M/W, N - W), and a run there can start from it.
    ``layers`` (default none) are the backward layers of the classic
    phase that found no path, ``IntersectionCertificate.layers``.
    """

    W: ElementSet
    witness: ElementSet
    rest: ElementSet | None = field(default=None, compare=False)
    layers: tuple[int, ...] = field(default=(), compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.rest is None:
            object.__setattr__(self, "rest", ElementSet(self.W.ground, 0))


def check_cond_plus(ctx: PairContext, start: ElementSet | None = None, trace=None) -> bool:
    """The largest wave consists of M-loops and N contracted onto it has rank 0.

    ``start`` is any common independent set of the pair to start the wave
    run from; the largest wave, and so the answer, is the same for every
    start (see ``largest_wave``; ``_wave_run`` counts the run in ``trace``).
    """
    return is_clean(ctx, largest_wave(ctx, start, trace))


def is_clean(ctx: PairContext, wave: Wave) -> bool:
    """``wave`` consists of M-loops and N contracted onto it has rank 0."""
    wmask = wave.W.mask
    return ctx.M._spans(0, wmask) and ctx.N.onto(wave.W)._spans(0, wmask)


def _require_common_independent(ctx: PairContext, s: ElementSet) -> int:
    mask = ctx.M._check_subset(s)
    if not (ctx.M._indep(mask) and ctx.N._indep(mask)):
        raise NotCommonIndependent("set is not independent in both matroids")
    return mask


def nice_feasible(ctx: PairContext, s: ElementSet) -> bool:
    """The quotient pair by ``s`` satisfies the strengthened wave condition."""
    mask = _require_common_independent(ctx, s)
    return check_cond_plus(ctx.quotient(mask))


def common_base_B(ctx: PairContext, x: ElementSet) -> ElementSet | None:
    """A common base of M restricted to ``x`` and N contracted onto ``x``.

    The wave witness of ``x`` (``is_wave``) when it also spans ``x`` in N
    contracted onto ``x``; None when the two minors have no common base.
    The witness is a maximum common independent set of the minors, so
    no other set is a common base when it is not.  An empty ``x`` has the
    empty witness, a common base of the two empty minors, so it is
    returned without contracting N onto the empty set.
    """
    witness = is_wave(ctx, x)
    if witness is not None and (not x or ctx.N.onto(x)._spans(witness.mask, x.mask)):
        return witness
    return None
