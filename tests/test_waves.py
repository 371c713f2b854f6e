"""Wave layer: witnesses, the largest wave, quotient conditions, common bases."""

from __future__ import annotations

import random

import pytest

from matroidkit import core as C
from matroidkit.classic import _greedy
from matroidkit.core import ElementSet, GroundSet, _mask, bit_indices
from matroidkit.intersect import edmonds_solve
from matroidkit.oracle import check_cond, feasible, iter_submasks
from matroidkit.waves import (
    PairContext,
    Wave,
    _verify_wave,
    _wave_run,
    check_cond_plus,
    common_base_B,
    is_clean,
    is_wave,
    largest_wave,
    nice_feasible,
)

from conftest import (
    brute_common_bases,
    brute_cond,
    brute_cond_plus,
    brute_is_wave,
    brute_largest_wave_mask,
    full_digraph_coreach,
    oracle_equal,
)

G2 = GroundSet(tuple("ab"))
G3 = GroundSet(tuple("abc"))


def test_wave_run_rejects_a_carried_start_that_is_not_common_independent():
    # every wave run's start is tested in _wave_run alone: a carried start,
    # which the run resumes as it is, must be common independent, and no
    # start may leave the universe; any other start is cut to its greedy part
    free, u31 = C.free(G3), C.uniform(G3, 1)
    ab = G3.subset("ab").mask
    ab_only = free.restrict(G3.subset("ab"))
    cases = [
        (u31, free, ab),  # dependent in M
        (free, u31, ab),  # dependent in N
        (ab_only, ab_only, G3.subset("c").mask),  # outside the universe
    ]
    for m, n, start in cases:
        with pytest.raises(C.PostconditionFailed, match="start is not common independent"):
            _wave_run(PairContext(m, n), start, (0,), None)  # the test comes before the layers
    with pytest.raises(C.PostconditionFailed, match="start is not common independent"):
        _wave_run(PairContext(ab_only, ab_only), G3.subset("c").mask, (), None)
    for start in (G3.subset("b").mask, ab):
        wave = _wave_run(PairContext(free, u31), start, (), None)
        assert len(wave.witness) + len(wave.rest) == 1


def small_pairs(corpus, limit=40, max_size=7):
    picked = []
    for inst in corpus.pairs:
        if inst.M.size <= max_size:
            picked.append(inst)
        if len(picked) == limit:
            break
    return picked


def triangle():
    return C.graphic("xyz", [("x", "y", "a"), ("y", "z", "b"), ("z", "x", "c")])


# ---------------------------------------------------------------------------
# is_wave


def test_is_wave_free_n_any_set():
    m = C.uniform(G3, 2)
    ctx = PairContext(m, C.free(G3))
    for wmask in iter_submasks(G3.full_mask):
        w = ElementSet(G3, wmask)
        witness = is_wave(ctx, w)
        assert witness is not None
        assert m._rank(wmask) == len(witness)


def test_is_wave_rank0_m():
    ctx = PairContext(C.zero(G3), C.uniform(G3, 2))
    witness = is_wave(ctx, G3.full())
    assert witness is not None and witness.mask == 0


def test_is_wave_triangle_single_edge():
    ctx = PairContext(triangle(), triangle())
    assert is_wave(ctx, triangle().ground.subset("a")) is None


def test_is_wave_matches_brute(corpus):
    for inst in small_pairs(corpus, limit=25, max_size=6):
        ctx = PairContext(inst.M, inst.N)
        for wmask in iter_submasks(inst.M.universe_mask):
            got = is_wave(ctx, ElementSet(inst.M.ground, wmask))
            want = brute_is_wave(inst.M, inst.N, wmask)
            assert (got is not None) == (want is not None), (inst.name, wmask)


# ---------------------------------------------------------------------------
# largest_wave


def test_largest_wave_free_n_is_everything():
    wave = largest_wave(PairContext(C.uniform(G3, 1), C.free(G3)))
    assert wave.W.mask == G3.full_mask


def test_largest_wave_u31_pair():
    # union over all 8 subsets passing the wave test is the full set
    m = C.uniform(G3, 1)
    assert brute_largest_wave_mask(m, C.uniform(G3, 1)) == G3.full_mask
    wave = largest_wave(PairContext(m, C.uniform(G3, 1)))
    assert wave.W.mask == G3.full_mask


def test_largest_wave_matches_brute(corpus):
    for inst in small_pairs(corpus, limit=40):
        wave = largest_wave(PairContext(inst.M, inst.N))
        assert wave.W.mask == brute_largest_wave_mask(inst.M, inst.N), inst.name


def test_verify_wave_rejects_each_broken_witness():
    a, b, ab = G2.subset("a"), G2.subset("b"), G2.full()
    free, zero, u21 = C.free(G2), C.zero(G2), C.uniform(G2, 1)
    _verify_wave(PairContext(free, free), Wave(a, a))
    cases = [
        (free, free, a, b, "leaves the wave"),
        (zero, free, a, a, "dependent in M"),
        (free, free, ab, a, "does not span the wave in M"),
        # a and b are parallel in N, so a is a loop of N contracted onto {a}
        (free, u21, a, a, "dependent in N contracted onto W"),
    ]
    for m, n, w, witness, message in cases:
        with pytest.raises(C.PostconditionFailed, match=message):
            _verify_wave(PairContext(m, n), Wave(w, witness))


def graphic_partition_pair(size):
    """Graphic M, half on a dense 6-vertex graph and half a tree, against
    a partition N of shuffled pairs; the largest wave is a proper part."""
    rng = random.Random(size)
    half = size // 2
    edges = []
    for k in range(half):
        u, v = rng.sample(range(6), 2)
        edges.append((f"a{u}", f"a{v}", f"e{k}"))
    for k in range(half, size):
        j = k - half + 1
        edges.append((f"b{rng.randrange(j)}", f"b{j}", f"e{k}"))
    m = C.graphic([f"a{i}" for i in range(6)] + [f"b{i}" for i in range(half + 1)], edges)
    order = list(range(size))
    rng.shuffle(order)
    pairs = tuple(((1 << order[j]) | (1 << order[j + 1]), 1) for j in range(0, size, 2))
    return m, C.PartitionMatroid(m.ground, pairs)


def test_quotient_after_removal_has_empty_wave(corpus):
    # the corpus pairs, then pairs past brute-force sizes, where the
    # certificate's min-max equality stands in for the brute wave
    pairs = [(inst.M, inst.N) for inst in small_pairs(corpus, limit=20)]
    pairs += [graphic_partition_pair(size) for size in (32, 48)]
    waves = []
    for m, n in pairs:
        ctx = PairContext(m, n)
        wave = largest_wave(ctx)
        cert = edmonds_solve(ctx)
        assert wave.W == cert.E_M
        w = wave.W.mask
        assert m._rank(w) + n._rank(m.universe_mask & ~w) == len(cert.I)
        mq = m.contract(wave.W)
        nq = n.delete(wave.W)
        assert largest_wave(PairContext(mq, nq)).W.mask == 0
        assert check_cond_plus(PairContext(mq, nq))
        waves.append((w, m.universe_mask))
    assert all(0 < w < universe for w, universe in waves[-2:])


def test_largest_wave_is_the_same_from_any_start(corpus):
    # starts: empty, a greedy common independent set and a maximum one
    pairs = [(inst.M, inst.N) for inst in small_pairs(corpus, limit=20)]
    pairs += [graphic_partition_pair(size) for size in (32, 48)]
    for m, n in pairs:
        ctx = PairContext(m, n)
        cold = largest_wave(ctx)
        size = len(cold.witness) + len(cold.rest)
        greedy = ElementSet(m.ground, _mask(_greedy(m, n, 0)))
        for start in (m.ground.empty(), greedy, edmonds_solve(ctx).I):
            wave = largest_wave(ctx, start)
            assert wave.W == cold.W
            assert len(wave.witness) + len(wave.rest) == size
            assert check_cond_plus(PairContext(m.contract(wave.W), n.delete(wave.W)), wave.rest)


def test_a_phase_that_meets_no_source_is_one_backward_search(corpus, monkeypatch):
    # a classic run ends with a phase whose backward search from the
    # sinks meets no source: that search is the co-reach of the sinks, so
    # the phase asks no arc forward.  The backward search asks heads of
    # the swapped pair (N, M), so only the heads asked of the phase's own
    # (M, N) digraph are counted.  Checked on the corpus pairs at their
    # final I, then on the classic runs of the largest wave, its witness
    # check and the classic certificate of a pair past brute-force sizes
    import matroidkit.classic as classic

    real_heads, real_step = classic.ExchangeDigraph.heads, classic._classic_step
    heads_calls = []
    forward = [0]
    sizes = []

    def counted_heads(self, layer, among):
        heads_calls.append((self.m, self.n))
        return real_heads(self, layer, among)

    def checked_step(m, n, imask, carried=()):
        before = len(heads_calls)
        step = real_step(m, n, imask, carried)
        own = sum(a is m and b is n for a, b in heads_calls[before:])
        forward[0] += own
        if isinstance(step, classic.IntersectionCertificate):
            assert own == 0
            assert step.E_M.mask == m.universe_mask & ~full_digraph_coreach(m, n, imask)
            sizes.append(m.universe_mask.bit_count())
        return step

    monkeypatch.setattr(classic.ExchangeDigraph, "heads", counted_heads)
    monkeypatch.setattr(classic, "_classic_step", checked_step)
    for inst in corpus.pairs:
        edmonds_solve(PairContext(inst.M, inst.N))
    assert len(sizes) == len(corpus.pairs)
    m, n = graphic_partition_pair(48)
    ctx = PairContext(m, n)
    wave = largest_wave(ctx)
    assert 0 < wave.W.mask < m.universe_mask
    assert is_wave(ctx, wave.W) == wave.witness
    edmonds_solve(ctx)
    assert sizes[len(corpus.pairs):] == [48, len(wave.W), 48]
    # the phases with paths do ask arcs forward
    assert forward[0] > 0


# ---------------------------------------------------------------------------
# cond / cond+


def test_cond_plus_rank0_pair():
    assert check_cond_plus(PairContext(C.zero(G3), C.zero(G3)))


def test_cond_plus_fails_with_nonloop_in_wave():
    assert not check_cond_plus(PairContext(C.uniform(G2, 1), C.uniform(G2, 1)))


def test_cond_agrees_with_brute(corpus):
    for inst in small_pairs(corpus, limit=20, max_size=6):
        ctx = PairContext(inst.M, inst.N)
        assert check_cond(ctx) == brute_cond(inst.M, inst.N), inst.name
        assert check_cond_plus(ctx) == brute_cond_plus(inst.M, inst.N), inst.name


def test_cond_plus_implies_cond(corpus):
    seen = 0
    for inst in small_pairs(corpus, limit=40, max_size=6):
        ctx = PairContext(inst.M, inst.N)
        if check_cond_plus(ctx):
            seen += 1
            assert check_cond(ctx)
    assert seen > 0


def test_cond_too_large():
    big = GroundSet(tuple(f"e{i}" for i in range(13)))
    with pytest.raises(C.TooLarge):
        check_cond(PairContext(C.free(big), C.free(big)))


# ---------------------------------------------------------------------------
# feasible / nice feasible


def test_empty_set_nice_feasible_iff_cond_plus(corpus):
    for inst in small_pairs(corpus, limit=15, max_size=6):
        ctx = PairContext(inst.M, inst.N)
        empty = inst.M.ground.empty()
        assert nice_feasible(ctx, empty) == check_cond_plus(ctx)
        assert feasible(ctx, empty) == check_cond(ctx)


def test_feasible_requires_common_independent():
    # a caller's start that is not common independent is an input error,
    # not the solver bug (PostconditionFailed) the classic run would raise
    ctx = PairContext(C.zero(G3), C.free(G3))
    with pytest.raises(C.NotCommonIndependent):
        feasible(ctx, G3.subset("a"))
    with pytest.raises(C.NotCommonIndependent):
        largest_wave(ctx, G3.subset("a"))
    with pytest.raises(C.NotCommonIndependent):
        check_cond_plus(ctx, G3.subset("a"))


def test_feasible_stacking(corpus):
    # a common independent set joined with a feasible set of its quotient
    # is feasible for the original pair, and niceness carries over too
    checked = 0
    for inst in small_pairs(corpus, limit=25, max_size=6):
        m, n = inst.M, inst.N
        ctx = PairContext(m, n)
        ground = m.ground
        i0 = m._max_indep(n._max_indep(m.universe_mask))
        if not (m._indep(i0) and n._indep(i0)):
            continue
        s0 = ElementSet(ground, i0)
        quotient = PairContext(m.contract(s0), n.contract(s0))
        for i1mask in iter_submasks(m.universe_mask & ~i0):
            s1 = ElementSet(ground, i1mask)
            if not (
                quotient.M._indep(i1mask) and quotient.N._indep(i1mask)
            ):
                continue
            if nice_feasible(quotient, s1):
                assert nice_feasible(ctx, s0 | s1), inst.name
                checked += 1
                break
        if checked >= 5:
            break
    assert checked > 0


# ---------------------------------------------------------------------------
# common_base_B


def test_common_base_empty_set():
    ctx = PairContext(C.uniform(G3, 1), C.free(G3))
    base = common_base_B(ctx, G3.empty())
    assert base is not None and base.mask == 0


def test_common_base_nonemptiness_matches_brute(corpus):
    for inst in small_pairs(corpus, limit=15, max_size=6):
        ctx = PairContext(inst.M, inst.N)
        for xmask in iter_submasks(inst.M.universe_mask):
            got = common_base_B(ctx, ElementSet(inst.M.ground, xmask))
            want = brute_common_bases(inst.M, inst.N, xmask)
            assert (got is not None) == bool(want), (inst.name, xmask)
            if got is not None:
                assert got.mask in want


def test_wave_base_members_are_nice_feasible(corpus):
    checked = 0
    for inst in small_pairs(corpus, limit=30, max_size=6):
        ctx = PairContext(inst.M, inst.N)
        wave = largest_wave(ctx)
        member = common_base_B(ctx, wave.W)
        if member is None:
            continue
        assert nice_feasible(ctx, member), inst.name
        checked += 1
        if checked >= 8:
            break
    assert checked > 0
    # in quotients by common independent sets, the largest wave's common
    # base is empty exactly when the wave is clean; so extend_to_nice
    # checks no quotient whose base is empty
    rng = random.Random(5)
    empty_on_loops = full = 0
    for inst in small_pairs(corpus, limit=30, max_size=6):
        greedy = _greedy(inst.M, inst.N, 0)
        for k in range(len(greedy) + 1):
            pair = PairContext(inst.M, inst.N).quotient(_mask(rng.sample(greedy, k)))
            wave = largest_wave(pair)
            base = common_base_B(pair, wave.W)
            empty = base is not None and not base
            assert empty == is_clean(pair, wave), inst.name
            empty_on_loops += empty and bool(wave.W)
            full += bool(base)
    assert empty_on_loops > 0 and full > 0, (empty_on_loops, full)


# ---------------------------------------------------------------------------
# structural lemmas as property tests


def test_union_of_waves_is_wave(corpus):
    for inst in small_pairs(corpus, limit=10, max_size=5):
        m, n = inst.M, inst.N
        waves = [
            w
            for w in iter_submasks(m.universe_mask)
            if brute_is_wave(m, n, w) is not None
        ]
        for a in waves[:12]:
            for b in waves[:12]:
                assert brute_is_wave(m, n, a | b) is not None, inst.name


def test_wave_stacking(corpus):
    checked = 0
    for inst in small_pairs(corpus, limit=15, max_size=5):
        m, n = inst.M, inst.N
        ground = m.ground
        for w0 in iter_submasks(m.universe_mask):
            if brute_is_wave(m, n, w0) is None or w0 == 0:
                continue
            mq = m.contract(ElementSet(ground, w0))
            nq = n.delete(ElementSet(ground, w0))
            for w1 in iter_submasks(m.universe_mask & ~w0):
                if brute_is_wave(mq, nq, w1) is not None:
                    assert brute_is_wave(m, n, w0 | w1) is not None
                    checked += 1
                    break
            break
        if checked >= 5:
            break
    assert checked > 0


def test_common_loops_remove(corpus):
    checked = 0
    for inst in small_pairs(corpus, limit=40, max_size=6):
        m, n = inst.M, inst.N
        common_loops = m._loops_mask() & n._loops_mask()
        if not common_loops:
            continue
        for wmask in iter_submasks(m.universe_mask):
            if brute_is_wave(m, n, wmask) is None:
                continue
            lmask = common_loops & wmask
            if not lmask:
                continue
            assert brute_is_wave(m, n, wmask & ~lmask) is not None
            assert brute_common_bases(m, n, wmask) == brute_common_bases(
                m, n, wmask & ~lmask
            )
            checked += 1
            break
        if checked >= 4:
            break
    assert checked > 0


def test_cond_plus_loop_delete(corpus):
    checked = 0
    for inst in small_pairs(corpus, limit=40, max_size=6):
        m, n = inst.M, inst.N
        wave = largest_wave(PairContext(m, n))
        mq = m.contract(wave.W)
        nq = n.delete(wave.W)
        loops = mq._loops_mask()
        if not brute_cond_plus(mq, nq):
            continue
        for lmask in iter_submasks(loops):
            lset = ElementSet(m.ground, lmask)
            assert brute_cond_plus(mq.delete(lset), nq.delete(lset))
        checked += 1
        if checked >= 6:
            break
    assert checked > 0


def test_one_more_edge_lemma(corpus):
    # under the strengthened condition, every witness of a one-element
    # quotient wave already spans the wave in the contracted N
    checked = 0
    for inst in small_pairs(corpus, limit=40, max_size=6):
        m, n = inst.M, inst.N
        ground = m.ground
        wave = largest_wave(PairContext(m, n))
        mq = m.contract(wave.W)
        nq = n.delete(wave.W)
        universe = mq.universe_mask
        for e in bit_indices(universe):
            eset = ElementSet(ground, 1 << e)
            me, ne = mq.contract(eset), nq.contract(eset)
            nd = ne.dual()
            for wmask in iter_submasks(me.universe_mask):
                nw = ne.onto(ElementSet(ground, wmask))
                target = me._rank(wmask)
                for b in iter_submasks(wmask):
                    if b.bit_count() != target or not me._indep(b):
                        continue
                    if b & ~nd._span(wmask & ~b):
                        continue
                    assert nw._rank(b) == nw._rank(wmask), (inst.name, e, wmask, b)
                    checked += 1
        if checked >= 50:
            break
    assert checked > 0


def test_minors_changed_lemma():
    # contracting sets with equal spans and deleting sets with equal dual
    # spans produces identical minors
    m = C.graphic(
        ["u", "v", "w"],
        [("u", "v", "a"), ("v", "w", "b"), ("w", "u", "c"), ("v", "w", "d")],
    )
    n = C.PartitionMatroid(m.ground, ((0b0011, 1), (0b1100, 1)))
    nd = n.dual()
    universe = m.universe_mask
    cases = 0
    for zmask in iter_submasks(universe):
        for x0 in iter_submasks(zmask):
            for x1 in iter_submasks(zmask):
                y0, y1 = zmask & ~x0, zmask & ~x1
                if m._span(x0) != m._span(x1) or nd._span(y0) != nd._span(y1):
                    continue
                g = m.ground
                m0 = m.contract(ElementSet(g, x0)).delete(ElementSet(g, y0))
                m1 = m.contract(ElementSet(g, x1)).delete(ElementSet(g, y1))
                n0 = n.contract(ElementSet(g, x0)).delete(ElementSet(g, y0))
                n1 = n.contract(ElementSet(g, x1)).delete(ElementSet(g, y1))
                assert oracle_equal(m0, m1)
                assert oracle_equal(n0, n1)
                cases += 1
    assert cases > 0


def test_mloop_observation(corpus):
    # when the wave condition holds, any set of M-loops has rank zero in
    # the contraction of N onto it
    checked = 0
    for inst in small_pairs(corpus, limit=30, max_size=6):
        m, n = inst.M, inst.N
        if not brute_cond(m, n):
            continue
        loops = m._loops_mask()
        for lmask in iter_submasks(loops):
            assert n.onto(ElementSet(m.ground, lmask))._rank(lmask) == 0
        checked += 1
        if checked >= 6:
            break
    assert checked > 0
