"""Lifting, packing/covering extraction and the derived intersection."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from matroidkit import core as C
from matroidkit.core import ElementSet, GroundSet, bit_indices
from matroidkit.intersect import edmonds_solve, verify_certificate
from matroidkit.oracle import iter_submasks
from matroidkit.packcov import (
    MatroidFamily,
    derive_intersection,
    lift_family,
    packcov_solve,
    verify_packcov,
)
from matroidkit.waves import PairContext

from conftest import capped_partition, connected_graphic, family_union_max

G2 = GroundSet(tuple("ab"))
G3 = GroundSet(tuple("abc"))
G4 = GroundSet(tuple("abcd"))


def k4():
    return C.graphic(
        "pqrs",
        [
            ("p", "q", "e0"),
            ("p", "r", "e1"),
            ("p", "s", "e2"),
            ("q", "r", "e3"),
            ("q", "s", "e4"),
            ("r", "s", "e5"),
        ],
    )


# ---------------------------------------------------------------------------
# lifting


def test_lift_single_member_is_isomorphic():
    fam = MatroidFamily(G3, (C.uniform(G3, 2),))
    lifted = lift_family(fam)
    assert lifted.ground.size == 3
    for mask in iter_submasks(G3.full_mask):
        product = sum(1 << lifted.ground.index(f"{G3.label(e)}@0") for e in bit_indices(mask))
        assert lifted.M._indep(product) == fam.members[0]._indep(mask)
        assert lifted.N._indep(product)  # blocks of size one never bind


def test_lift_two_members_shape():
    fam = MatroidFamily(G3, (C.uniform(G3, 1), C.free(G3)))
    lifted = lift_family(fam)
    assert lifted.ground.size == 6
    assert lifted.ground.labels == ("a@0", "a@1", "b@0", "b@1", "c@0", "c@1")
    blocks = lifted.N.blocks
    assert len(blocks) == 3 and all(cap == 1 for _m, cap in blocks)


def test_lift_independence_is_slicewise():
    fam = MatroidFamily(G2, (C.uniform(G2, 1), C.free(G2)))
    lifted = lift_family(fam)
    for mask in iter_submasks(lifted.ground.full_mask):
        slices = []
        for i in range(2):
            s = 0
            for e in range(2):
                if mask >> lifted.ground.index(f"{G2.label(e)}@{i}") & 1:
                    s |= 1 << e
            slices.append(s)
        expect = all(fam.members[i]._indep(slices[i]) for i in range(2))
        assert lifted.M._indep(mask) == expect


def test_lift_past_enumeration_sizes_solves():
    # A 6-cycle with 6 chords: 12 edges, lifted to 36 elements.
    edges = [(f"v{i}", f"v{(i + 1) % 6}", f"c{i}") for i in range(6)]
    edges += [(f"v{i}", f"v{(i + 2) % 6}", f"d{i}") for i in range(6)]
    g = C.graphic([f"v{i}" for i in range(6)], edges)
    fam = MatroidFamily(g.ground, (g, g, g))
    assert lift_family(fam).ground.size == 36
    total = lambda r: sum(len(s | i) for s, i in zip(r.S, r.I))
    results = [packcov_solve(fam, solver=s) for s in ("classic", "mixed")]
    for res in results:
        assert verify_packcov(fam, res)
    assert total(results[0]) == total(results[1])


def test_tree_with_extra_edges_leaves_a_covered_part():
    # two copies of the graphic matroid of a random spanning tree on 60
    # vertices plus 10 extra edges: a tree edge on a leaf is a coloop, so
    # it cannot lie in both disjoint packing sets and E_c is not empty;
    # here two disjoint sets each span the 4 packed edges
    rng = random.Random(11)
    vs = [f"v{i}" for i in range(60)]
    ends = [(rng.randrange(i), i) for i in range(1, 60)]
    ends += [tuple(rng.sample(range(60), 2)) for _ in range(10)]
    g = C.graphic(vs, [(vs[u], vs[v], f"e{i}") for i, (u, v) in enumerate(ends)])
    fam = MatroidFamily(g.ground, (g, g))
    results = [packcov_solve(fam, solver=s) for s in ("classic", "mixed")]
    for res in results:
        assert verify_packcov(fam, res)
        assert (len(res.E_p), len(res.E_c)) == (4, 65)
    assert results[0].E_p == results[1].E_p


# ---------------------------------------------------------------------------
# solving and verification


def test_packcov_rank0_pair_packs_everything():
    res = packcov_solve(MatroidFamily(G3, (C.zero(G3), C.zero(G3))))
    assert res.E_p.mask == G3.full_mask
    assert all(s.mask == 0 for s in res.S)


def test_packcov_free_pair_is_covered():
    res = packcov_solve(MatroidFamily(G3, (C.free(G3), C.free(G3))))
    assert res.E_c.mask == G3.full_mask
    assert (res.I[0] | res.I[1]).mask == G3.full_mask


def test_packcov_k4_twice_packs_two_spanning_trees():
    fam = MatroidFamily(k4().ground, (k4(), k4()))
    res = packcov_solve(fam)
    assert res.E_p.mask == k4().ground.full_mask
    assert (res.S[0] & res.S[1]).mask == 0
    for s in res.S:
        assert k4().rank(s) == 3


def test_verify_packcov_rejects_tampering():
    fam = MatroidFamily(k4().ground, (k4(), k4()))
    res = packcov_solve(fam)
    moved = ElementSet(fam.ground, res.S[0].mask & -res.S[0].mask)
    bad = replace(res, S=(res.S[0] - moved, res.S[1] | moved))
    assert not verify_packcov(fam, bad)


@pytest.mark.parametrize(
    "broken",
    [
        "parts overlap", "parts miss an element", "too many S", "too many I", "S outside E_p",
        "S overlap", "I outside E_c", "I dependent on E_c", "I misses E_c",
    ],
)
def test_verify_packcov_rejects_each_broken_clause(broken):
    # on abcd the first member has blocks ab: 1, cd: 2 and the second ab: 2,
    # cd: 0, so cd is packed by the first and ab covered one element each;
    # each case breaks one clause and keeps every other one
    fam = MatroidFamily(G4, (
        C.partition([("ab", 1), ("cd", 2)]),
        C.relabel_onto(C.partition([("ab", 2), ("cd", 0)]), G4),
    ))
    res = packcov_solve(fam)
    assert (res.E_p, res.E_c) == (G4.subset("cd"), G4.subset("ab"))
    assert res.S == (G4.subset("cd"), G4.empty()) and res.I == (G4.subset("a"), G4.subset("b"))
    bad = {
        # c joins E_c, covered by the first member's part
        "parts overlap": replace(res, E_c=G4.subset("abc"), I=(G4.subset("ac"), res.I[1])),
        "parts miss an element": replace(res, E_p=G4.subset("c"), S=(G4.subset("c"), G4.empty())),
        "too many S": replace(res, S=(*res.S, G4.empty())),
        "too many I": replace(res, I=(*res.I, G4.empty())),
        "S outside E_p": replace(res, S=(res.S[0], G4.subset("a"))),
        "S overlap": replace(res, S=(res.S[0], G4.subset("c"))),
        "I outside E_c": replace(res, I=(G4.subset("ac"), res.I[1])),
        "I dependent on E_c": replace(res, I=(G4.subset("ab"), G4.empty())),
        "I misses E_c": replace(res, I=(G4.subset("a"), G4.empty())),
    }[broken]
    assert not verify_packcov(fam, bad)


def test_verify_packcov_empty_universe():
    g0 = GroundSet(())
    fam = MatroidFamily(g0, (C.free(g0),))
    res = packcov_solve(fam)
    assert verify_packcov(fam, res)


def test_packcov_with_mixed_solver_block_split():
    fam = MatroidFamily(G3, (C.uniform(G3, 1), C.uniform(G3, 2)))
    lifted = lift_family(fam)
    e1 = ElementSet(lifted.ground, lifted.N.blocks[0][0])
    res = packcov_solve(fam, solver="mixed", e1=e1)
    assert verify_packcov(fam, res)
    classic = packcov_solve(fam)
    total = lambda r: sum(len(s | i) for s, i in zip(r.S, r.I))
    assert total(res) == total(classic)


# ---------------------------------------------------------------------------
# deriving intersection certificates


def test_derive_intersection_free_n():
    m = C.uniform(G3, 2)
    n = C.free(G3)
    pc = packcov_solve(MatroidFamily(G3, (m, n.dual())))
    cert = derive_intersection(m, n, pc)
    assert len(cert.I) == 2
    assert verify_certificate(m, n, cert)


def test_derive_intersection_handles_loose_coverings():
    # the covering member on M's side can be N-dependent; the derivation
    # must prune it without losing the spanning property
    m, n = C.free(G2), C.uniform(G2, 1)
    pc = packcov_solve(MatroidFamily(G2, (m, n.dual())))
    cert = derive_intersection(m, n, pc)
    assert verify_certificate(m, n, cert)
    assert len(cert.I) == 1


def test_derive_intersection_round_trip(corpus):
    done = 0
    for inst in corpus.pairs:
        if inst.M.size > 6:
            continue
        m, n = inst.M, inst.N
        pc = packcov_solve(MatroidFamily(m.ground, (m, n.dual())))
        cert = derive_intersection(m, n, pc)
        classic = edmonds_solve(PairContext(m, n))
        assert len(cert.I) == len(classic.I), inst.name
        assert verify_certificate(m, n, cert)
        done += 1
        if done == 20:
            break
    assert done == 20


def test_derive_intersection_at_n64_matches_edmonds():
    # graphic M against blocks of 2-4 elements, each capped at 1 or left
    # free: the common size falls short of both ranks, and the packed and
    # covered parts are both non-empty
    rng = random.Random(0)
    m = connected_graphic(rng, 64)
    n = capped_partition(rng, m.ground, lambda rng, size: rng.choice([1, size]))
    pc = packcov_solve(MatroidFamily(m.ground, (m, n.dual())))
    assert len(pc.E_p) > 0 and len(pc.E_c) > 0
    cert = derive_intersection(m, n, pc)
    assert verify_certificate(m, n, cert)
    assert len(cert.I) == len(edmonds_solve(PairContext(m, n)).I) < min(m.rank(), n.rank())


def test_derive_intersection_rejects_wrong_input():
    m, n = C.free(G2), C.uniform(G2, 1)
    pc = packcov_solve(MatroidFamily(G2, (m, n.dual())))
    bad = replace(pc, E_p=pc.E_c, E_c=pc.E_p)
    with pytest.raises(C.InvalidInputPackCov):
        derive_intersection(m, n, bad)


# ---------------------------------------------------------------------------
# base-partition sanity check


def _has_full_packing(members) -> bool:
    universe = members[0].universe_mask

    def go(i: int, used: int) -> bool:
        if i == len(members):
            return True
        for s in iter_submasks(universe & ~used):
            if not universe & ~members[i]._span(s) and go(i + 1, used | s):
                return True
        return False

    return go(0, 0)


def _has_full_covering(members) -> bool:
    return family_union_max(members) == members[0].universe_mask.bit_count()


def _base_partition_exists(members) -> bool:
    universe = members[0].universe_mask
    ranks = [m._rank(universe) for m in members]
    elems = list(bit_indices(universe))

    def go(pos: int, picks: tuple[int, ...]) -> bool:
        if pos == len(elems):
            return all(
                picks[i].bit_count() == ranks[i] for i in range(len(members))
            )
        b = 1 << elems[pos]
        for i, m in enumerate(members):
            if m._indep(picks[i] | b):
                if go(pos + 1, picks[:i] + (picks[i] | b,) + picks[i + 1 :]):
                    return True
        return False

    return go(0, tuple(0 for _ in members))


def test_base_partition_when_packing_and_covering_exist():
    cases = [
        (C.uniform(G4, 2), C.uniform(G4, 2)),
        (k4(), k4()),
        (C.uniform(G2, 1), C.uniform(G2, 1)),
        (C.uniform(G4, 1), C.uniform(G4, 3)),
    ]
    confirmed = 0
    for members in cases:
        if _has_full_packing(members) and _has_full_covering(members):
            assert _base_partition_exists(members), members
            confirmed += 1
    assert confirmed >= 3
