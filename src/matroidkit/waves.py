"""Waves, the largest wave, quotient conditions and common bases.

A wave for an ordered pair of matroids on one universe is a set W such
that the restriction of the first matroid to W has a base that stays
independent in the contraction of the second matroid onto W.  These
objects and the two quotient conditions below are the structural layer
the mixed intersection solver leans on.  On finite matroids the largest
wave is the M-side of one classic intersection certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .core import (
    ElementSet,
    Matroid,
    NotCommonIndependent,
    PostconditionFailed,
    TooLarge,
    UniverseMismatch,
    exhaustive_bound,
    iter_submasks,
)

# most elements whose subsets check_cond scans for waves by default
WAVE_SCAN_BOUND = 12


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
    those two minors and testing for M-spanningness.
    """
    from .intersect import _classic_run

    wmask = ctx.M._check_subset(w)
    mw = ctx.M.restrict(w)
    nw = ctx.N.onto(w)
    common = _classic_run(mw, nw).I
    if len(common) == mw._rank(wmask):
        return common
    return None


def largest_wave(ctx: PairContext) -> "Wave":
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

    So the M-side is the largest wave and I & E_M witnesses it.  On
    infinite matroids the largest wave needs a transfinite accumulation
    over quotients; on finite ones that loop stops after this one step.
    The witness is re-checked against the raw oracles.
    """
    from .intersect import _classic_run

    cert = _classic_run(ctx.M, ctx.N)
    wave = Wave(cert.E_M, cert.I & cert.E_M)
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
    if wmask & ~ctx.M._span(bmask):
        raise PostconditionFailed("wave witness does not span the wave in M")
    if not ctx.N.onto(wave.W)._indep(bmask):
        raise PostconditionFailed("wave witness is dependent in N contracted onto W")


@dataclass(frozen=True)
class Wave:
    """A wave together with one witnessing base."""

    W: ElementSet
    witness: ElementSet


def check_cond(ctx: PairContext) -> bool:
    """Every wave admits an M-independent base of N contracted onto it.

    Exhaustive over all subsets of the universe; raises TooLarge above
    the exhaustive bound.
    """
    limit = exhaustive_bound(WAVE_SCAN_BOUND)
    size = ctx.universe_mask.bit_count()
    if size > limit:
        raise TooLarge(f"exhaustive wave scan over {size} elements exceeds {limit}")
    from .intersect import _classic_run

    m, n = ctx.M, ctx.N
    for wmask in iter_submasks(ctx.universe_mask):
        w = ElementSet(ctx.ground, wmask)
        mw = m.restrict(w)
        nw = n.onto(w)
        s = len(_classic_run(mw, nw).I)
        if s == mw._rank(wmask) and s < nw._rank(wmask):
            return False
    return True


def check_cond_plus(ctx: PairContext) -> bool:
    """The largest wave consists of M-loops and N contracted onto it has rank 0."""
    wave = largest_wave(ctx)
    if wave.W.mask & ~ctx.M._loops_mask():
        return False
    return ctx.N.onto(wave.W)._rank(wave.W.mask) == 0


def _require_common_independent(ctx: PairContext, s: ElementSet) -> int:
    mask = ctx.M._check_subset(s)
    if not (ctx.M._indep(mask) and ctx.N._indep(mask)):
        raise NotCommonIndependent("set is not independent in both matroids")
    return mask


def feasible(ctx: PairContext, s: ElementSet) -> bool:
    """The quotient pair by ``s`` satisfies the wave condition."""
    mask = _require_common_independent(ctx, s)
    return check_cond(ctx.quotient(mask))


def nice_feasible(ctx: PairContext, s: ElementSet) -> bool:
    """The quotient pair by ``s`` satisfies the strengthened wave condition."""
    mask = _require_common_independent(ctx, s)
    return check_cond_plus(ctx.quotient(mask))


def common_base_B(ctx: PairContext, x: ElementSet) -> ElementSet | None:
    """A common base of M restricted to ``x`` and N contracted onto ``x``.

    Deterministic smallest-index choice among solver outputs; None when
    the two minors have no common base.
    """
    from .intersect import _classic_run

    xmask = ctx.M._check_subset(x)
    mx = ctx.M.restrict(x)
    nx = ctx.N.onto(x)
    common = _classic_run(mx, nx).I
    if len(common) == mx._rank(xmask) == nx._rank(xmask):
        return common
    return None
