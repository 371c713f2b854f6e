"""Acceptance suite: every criterion checked at its stated tolerance.

Each test prints one summary line (visible under ``pytest -s``); a
criterion fails its test exactly when the underlying checks fail.
"""

from __future__ import annotations

import time
from types import SimpleNamespace

import pytest

from matroidkit import core as C
from matroidkit.core import ElementSet, GroundSet, bit_indices
from matroidkit.intersect import (
    SplitInput,
    Trace,
    edmonds_solve,
    mixed_solve,
    verify_certificate,
)
from matroidkit.oracle import (
    brute_largest_wave,
    brute_max_common,
    brute_minmax,
    brute_orientations,
    iter_submasks,
)
from matroidkit.orient import orient_solve, verify_outcome, deficiency_counting_check
from matroidkit.packcov import packcov_solve, verify_packcov
from matroidkit.waves import PairContext, check_cond_plus, largest_wave

from conftest import (
    brute_common_bases,
    brute_is_wave,
    enumerate_matroids,
    exhaustive_orientation_family,
    family_minmax,
    family_union_max,
    mixed_rounds,
    oracle_equal,
    replay_arc_persistence,
)


def _k4():
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


def _catalog_pairs():
    """Deterministic explicit-matroid catalog: complete on up to three
    elements (all ordered pairs), complete on four elements against a
    fixed partner set, plus named five- and six-element members."""
    pairs = []
    m3 = []
    for n in (1, 2, 3):
        m3.extend(enumerate_matroids(tuple("abc"[:n])))
    by_size = {}
    for m in m3:
        by_size.setdefault(m.ground.size, []).append(m)
    for size, members in by_size.items():
        for a in members:
            for b in members:
                pairs.append((a, b))

    m4 = enumerate_matroids(tuple("abcd"))
    g4 = GroundSet(tuple("abcd"))
    partners4 = [C.uniform(g4, r) for r in range(5)]
    for a in m4:
        for b in partners4:
            pairs.append((a, b))
        pairs.append((a, a.dual()))

    g5 = GroundSet(tuple("abcde"))
    five = [
        C.uniform(g5, 0),
        C.uniform(g5, 2),
        C.uniform(g5, 5),
        C.uniform(g5, 2).dual(),
        C.graphic(
            "uvwx",
            [("u", "v", "a"), ("v", "w", "b"), ("w", "x", "c"), ("x", "u", "d"), ("u", "w", "e")],
        ),
        C.PartitionMatroid(g5, ((0b00011, 1), (0b11100, 2))),
    ]
    g6 = GroundSet(tuple("abcdef"))
    six = [
        C.uniform(g6, 0),
        C.uniform(g6, 3),
        C.uniform(g6, 6),
        C.uniform(g6, 2).dual(),
        _k4(),
        C.graphic(
            "uvwxyz",
            [
                ("u", "v", "a"),
                ("v", "w", "b"),
                ("w", "u", "c"),
                ("x", "y", "d"),
                ("y", "z", "e"),
                ("z", "x", "f"),
            ],
        ),
        C.PartitionMatroid(g6, ((0b000111, 1), (0b111000, 1))),
        _k4().dual(),
    ]
    for members in (five, six):
        base = members[0].ground.labels
        aligned = []
        for m in members:
            if m.ground.labels == base:
                aligned.append(m)
            else:
                mapping = {i: i for i in range(len(base))}
                aligned.append(C.RelabelMatroid(GroundSet(base), m, mapping))
        for a in aligned:
            for b in aligned:
                pairs.append((a, b))
    return pairs


@pytest.fixture(scope="module")
def solved(corpus):
    """Solve the whole fuzzed corpus once: brute, classic and mixed."""
    trace = Trace()
    start = time.time()
    records = []
    stuck = 0
    extension_failures = 0
    verified = 0
    for inst in corpus.pairs:
        best, witness = brute_max_common(inst.M, inst.N)
        minmax = brute_minmax(inst.M, inst.N)
        classic = edmonds_solve(PairContext(inst.M, inst.N), trace)
        mixed = []
        for e0, e1 in inst.splits:
            try:
                cert = mixed_solve(inst.M, SplitInput(inst.N, e0, e1), trace)
            except C.Stuck:
                stuck += 1
                continue
            except C.ExtensionFailed:
                extension_failures += 1
                continue
            mixed.append((e1, cert))
            if verify_certificate(inst.M, inst.N, cert):
                verified += 1
        if verify_certificate(inst.M, inst.N, classic):
            verified += 1
        records.append(
            SimpleNamespace(
                inst=inst, brute=best, witness=witness, minmax=minmax, classic=classic, mixed=mixed
            )
        )
    elapsed = time.time() - start
    return SimpleNamespace(
        records=records,
        trace=trace,
        stuck=stuck,
        extension_failures=extension_failures,
        verified=verified,
        elapsed=elapsed,
    )


def test_criterion_1_minmax_equality(solved):
    start = time.time()
    violations = []
    for rec in solved.records:
        sizes = {len(rec.classic.I)} | {len(cert.I) for _e1, cert in rec.mixed}
        if sizes != {rec.brute} or rec.brute != rec.minmax:
            violations.append(rec.inst.name)
        w = rec.witness.mask
        if not (rec.inst.M._indep(w) and rec.inst.N._indep(w)):
            violations.append(f"{rec.inst.name}:witness")
    catalog = _catalog_pairs()
    catalog_checked = 0
    for m, n in catalog:
        best, _ = brute_max_common(m, n)
        if best != brute_minmax(m, n):
            violations.append("catalog-minmax")
            continue
        classic = edmonds_solve(PairContext(m, n))
        full = ElementSet(m.ground, m.universe_mask)
        empty = m.ground.empty()
        ok = len(classic.I) == best
        for e0, e1 in ((full, empty), (empty, full)):
            cert = mixed_solve(m, SplitInput(n, e0, e1))
            ok = ok and len(cert.I) == best
        if not ok:
            violations.append("catalog-solver")
        catalog_checked += 1
    elapsed = solved.elapsed + (time.time() - start)
    status = "PASS" if not violations and elapsed <= 300 else "FAIL"
    print(
        f"criterion 1 (min-max equality): {status} "
        f"[fuzzed_pairs={len(solved.records)} catalog_pairs={catalog_checked} "
        f"elapsed={elapsed:.1f}s]"
    )
    assert len(solved.records) >= 500
    assert not violations
    assert elapsed <= 300


def test_criterion_2_certificate_soundness(solved, corpus):
    failures = 0
    total = 0
    for rec in solved.records:
        total += 1
        if not verify_certificate(rec.inst.M, rec.inst.N, rec.classic):
            failures += 1
        for _e1, cert in rec.mixed:
            total += 1
            if not verify_certificate(rec.inst.M, rec.inst.N, cert):
                failures += 1
    for inst in corpus.families:
        total += 1
        res = packcov_solve(inst.family)
        if not verify_packcov(inst.family, res):
            failures += 1
    for inst in corpus.graphs[:120]:
        total += 1
        out = orient_solve(inst.graph)
        if not verify_outcome(inst.graph, out):
            failures += 1
    status = "PASS" if failures == 0 else "FAIL"
    print(f"criterion 2 (certificate soundness): {status} [certificates={total} failures={failures}]")
    assert failures == 0


def test_criterion_3_augmentation_postconditions(corpus):
    # the span-preservation assertions run inside every augmentation and
    # raise on violation; replay the recorded traces for arc persistence
    augmentations = 0
    arcs_checked = 0
    replayed = 0
    for inst in corpus.pairs:
        if inst.M.size > 7:
            continue
        for e0, e1 in inst.splits:
            records = mixed_rounds(inst.M, SplitInput(inst.N, e0, e1))
            augmentations += len(records)
            for record in records:
                arcs_checked += replay_arc_persistence(record)
        replayed += 1
        if replayed == 120:
            break
    status = "PASS"
    print(
        f"criterion 3 (augmentation postconditions): {status} "
        f"[instances={replayed} augmentations={augmentations} arcs_replayed={arcs_checked}]"
    )
    assert replayed == 120 and augmentations > 0


def test_criterion_4_wave_engine(corpus):
    checked = 0
    violations = []
    for inst in corpus.pairs:
        if inst.M.size > 8:
            continue
        ctx = PairContext(inst.M, inst.N)
        wave = largest_wave(ctx)
        brute = brute_largest_wave(inst.M, inst.N)
        if wave.W.mask != brute.mask:
            violations.append(inst.name)
        quotient = PairContext(inst.M.contract(wave.W), inst.N.delete(wave.W))
        if not check_cond_plus(quotient):
            violations.append(f"{inst.name}:quotient")
        checked += 1
    status = "PASS" if checked >= 200 and not violations else "FAIL"
    print(f"criterion 4 (wave engine): {status} [instances={checked} mismatches={len(violations)}]")
    assert checked >= 200
    assert not violations


def test_criterion_5_packing_covering(corpus):
    checked = 0
    violations = []
    for inst in corpus.families:
        fam = inst.family
        res = packcov_solve(fam)
        members = fam.members
        lhs = len(res.E_c) + sum(m.rank(res.E_p) for m in members)
        union_max = family_union_max(members)
        if lhs != union_max or union_max != family_minmax(members):
            violations.append(f"{inst.name}:formula")
        js = [s | part for s, part in zip(res.S, res.I)]
        union = fam.ground.empty()
        for i, m in enumerate(members):
            if not m._indep(js[i].mask):
                violations.append(f"{inst.name}:indep")
            if res.E_p.mask & ~m._span(res.S[i].mask):
                violations.append(f"{inst.name}:span")
            union = union | js[i]
        if not res.E_c <= union:
            violations.append(f"{inst.name}:cover")
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                if (js[i] & js[j] & res.E_p).mask:
                    violations.append(f"{inst.name}:disjoint")
        checked += 1
    status = "PASS" if not violations else "FAIL"
    print(f"criterion 5 (packing/covering): {status} [families={checked} violations={len(violations)}]")
    assert checked >= 50
    assert not violations


def test_criterion_6_orientation(corpus):
    violations = []
    exhaustive = exhaustive_orientation_family()
    for g in exhaustive:
        out = orient_solve(g)
        brute = brute_orientations(g)
        if (out.verdict == "above") != (brute is not None):
            violations.append("exhaustive")
        if out.verdict == "deficient" and not deficiency_counting_check(g, out.v_prime):
            violations.append("exhaustive-counting")
    fuzzed = 0
    for inst in corpus.graphs:
        out = orient_solve(inst.graph)
        brute = brute_orientations(inst.graph)
        if (out.verdict == "above") != (brute is not None):
            violations.append(inst.name)
        if out.verdict == "deficient" and not deficiency_counting_check(
            inst.graph, out.v_prime
        ):
            violations.append(f"{inst.name}:counting")
        fuzzed += 1
    status = "PASS" if not violations and fuzzed >= 200 else "FAIL"
    print(
        f"criterion 6 (orientation): {status} "
        f"[exhaustive={len(exhaustive)} fuzzed={fuzzed} violations={len(violations)}]"
    )
    assert fuzzed >= 200
    assert not violations


def test_criterion_7_mixed_robustness(solved):
    status = "PASS" if solved.stuck == 0 and solved.extension_failures == 0 else "FAIL"
    print(
        f"criterion 7 (mixed robustness): {status} "
        f"[stuck={solved.stuck} extension_failures={solved.extension_failures}]"
    )
    assert solved.stuck == 0
    assert solved.extension_failures == 0


def test_criterion_8_structural_identities(corpus):
    violations = []
    small = [inst for inst in corpus.pairs if inst.M.size <= 6][:40]
    wave_modify_checks = 0
    for inst in small:
        m, n = inst.M, inst.N
        # dual involution at the oracle level
        if not oracle_equal(C.DualMatroid(C.DualMatroid(m)), m):
            violations.append(f"{inst.name}:dual")
        # minor commutation on a fixed disjoint split
        elems = list(bit_indices(m.universe_mask))
        xs = ElementSet(m.ground, sum(1 << e for e in elems[0::3]))
        ys = ElementSet(m.ground, sum(1 << e for e in elems[1::3]))
        if not oracle_equal(m.contract(xs).delete(ys), m.delete(ys).contract(xs)):
            violations.append(f"{inst.name}:minor")
        # span idempotence and extensiveness
        for s in iter_submasks(m.universe_mask):
            sp = m._span(s)
            if s & ~sp or m._span(sp) != sp:
                violations.append(f"{inst.name}:span")
                break
        # wave-modify set equality
        wave = largest_wave(PairContext(m, n))
        loops = m._loops_mask() & wave.W.mask
        for lmask in iter_submasks(loops):
            if lmask and n.onto(ElementSet(m.ground, lmask))._rank(lmask) == 0:
                lset = ElementSet(m.ground, lmask)
                md, nd = m.delete(lset), n.delete(lset)
                left = brute_common_bases(m, n, wave.W.mask)
                right = brute_common_bases(md, nd, wave.W.mask & ~lmask)
                if left != right:
                    violations.append(f"{inst.name}:wave-modify")
                if right and brute_is_wave(md, nd, wave.W.mask & ~lmask) is None:
                    violations.append(f"{inst.name}:wave-modify-wave")
                wave_modify_checks += 1
                break
    status = "PASS" if not violations else "FAIL"
    print(
        f"criterion 8 (structural identities): {status} "
        f"[instances={len(small)} wave_modify_checks={wave_modify_checks} "
        f"violations={len(violations)}]"
    )
    assert len(small) == 40 and wave_modify_checks > 0
    assert not violations
