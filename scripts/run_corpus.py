#!/usr/bin/env python3
"""Run a fuzzed corpus through every solver and report agreement.

For each generated pair the classic solver, the mixed solver (one run
per component-respecting split) and the exhaustive oracles must agree
on the optimum; every certificate is re-verified from raw oracles.
Families go through the packing/covering pipeline and demand graphs
through the orientation solver against the brute orientation scan.
The brute oracles ask the same dual handles as the solvers, so every
dual node of each pair and family member (and of the duals of M and N,
which the solvers ask) is also checked on every submask against its
child's rank table: the handles that replay the child's greedy and
those that answer from a closed form, and the dual nodes inside each
closed form.  Every graphic, partition, contraction and restriction
node, and every dual node with a closed form, of each pair's M, N, M*
and N*, and of two minor chains over each (Contract(Restrict(.)) and
Restrict(Contract(.)) on fixed index patterns), answers span and circuit
questions itself; on every independent set I its answers are checked
against the query versions on a deep copy: the span of I, the circuit
of I + x for each x that I spans, and the union of the circuits of
I + x over every x at once.
"""

from __future__ import annotations

import argparse
import copy
import sys
import time

from matroidkit.core import (
    ContractMatroid,
    DualMatroid,
    ElementSet,
    ExtensionFailed,
    GraphicMatroid,
    Matroid,
    PartitionMatroid,
    RestrictMatroid,
    Stuck,
    bit_indices,
)
from matroidkit.intersect import SplitInput, Trace, edmonds_solve, mixed_solve, verify_certificate
from matroidkit.oracle import (
    CorpusSpec,
    brute_largest_wave,
    brute_max_common,
    brute_minmax,
    brute_orientations,
    fuzz_corpus,
    iter_submasks,
    rank_table,
)
from matroidkit.orient import deficiency_counting_check, orient_solve, verify_outcome
from matroidkit.packcov import packcov_solve, verify_packcov
from matroidkit.waves import PairContext, largest_wave


STRUCTURAL = (GraphicMatroid, PartitionMatroid, ContractMatroid, RestrictMatroid)
# the minor chains contract the elements at indices 0, 3, 6, 9 and drop those at 2, 5, 8
CONTRACTED, DROPPED = 0b1001001001, 0b0100100100


def tree_nodes(roots, kinds) -> list[Matroid]:
    """Every node of a class in ``kinds`` in the expression trees of ``roots``,
    the closed forms of dual nodes included, each once."""
    stack, seen, out = list(roots), set(), []
    while stack:
        m = stack.pop()
        if id(m) in seen:
            continue
        seen.add(id(m))
        if isinstance(m, kinds):
            out.append(m)
        stack.extend(getattr(m, "parts", ()))
        if hasattr(m, "child"):
            stack.append(m.child)
        if getattr(m, "_closed", None) is not None:
            stack.append(m._closed)
    return out


def minor_chains(m: Matroid) -> list[Matroid]:
    """Contract(Restrict(m)) and Restrict(Contract(m)) on the fixed index patterns."""
    u = m.universe_mask
    kept, contracted = ElementSet(m.ground, u & ~DROPPED), ElementSet(m.ground, u & CONTRACTED)
    return [
        m.restrict(kept).contract(contracted),
        m.contract(contracted).restrict(ElementSet(m.ground, u & ~DROPPED & ~CONTRACTED)),
    ]


def structural_mismatches(h: Matroid) -> int:
    """Independent sets I where ``h`` and the query versions, asked of a deep
    copy of ``h``, disagree on the span of I, on the circuit of I + x for
    some x that I spans, or on the union of those circuits."""
    ref = copy.deepcopy(h)
    u = h.universe_mask
    wrong = 0
    for i in iter_submasks(u):
        if not ref._indep(i):
            continue
        spanned = Matroid._spanned(ref, i, u)
        bad = h._spanned(i, u) != spanned
        for x in bit_indices(spanned):
            bad |= h._circuits(i, 1 << x, u) != Matroid._circuits(ref, i, 1 << x, u)
        bad |= h._circuits(i, u, u) != Matroid._circuits(ref, i, u, u)
        wrong += bad
    return wrong


def dual_mismatches(d: DualMatroid) -> int:
    """Submasks X where ``d`` disagrees with r(U - X) = r(U) from the child's rank table."""
    table = rank_table(d.child)
    u = d.universe_mask
    return sum(
        d._indep(x) != (table[u & ~x] == table[u]) for x in iter_submasks(u)
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=200)
    parser.add_argument("--families", type=int, default=40)
    parser.add_argument("--graphs", type=int, default=80)
    parser.add_argument("--max-elements", type=int, default=9)
    args = parser.parse_args()

    spec = CorpusSpec(
        seed=args.seed,
        pairs=args.pairs,
        families=args.families,
        graphs=args.graphs,
        max_elements=args.max_elements,
    )
    corpus = fuzz_corpus(spec)
    trace = Trace()
    start = time.time()
    disagreements = 0
    stuck = 0

    # first, so that a wrong answer is reported before a solver that takes it fails
    structural_checks = 0
    for inst in corpus.pairs:
        handles = [inst.M, inst.N, inst.M.dual(), inst.N.dual()]
        for h in handles[:]:
            handles += minor_chains(h)
        for h in tree_nodes(handles, STRUCTURAL + (DualMatroid,)):
            if isinstance(h, DualMatroid) and h._closed is None:
                continue
            structural_checks += 1
            wrong = structural_mismatches(h)
            if wrong:
                disagreements += 1
                print(f"  !! {inst.name}: {h.kind} handle's span or circuit answers differ "
                      f"from the query versions at {wrong} independent sets")

    mixed_runs = 0
    wave_checks = 0
    for inst in corpus.pairs:
        best, _ = brute_max_common(inst.M, inst.N)
        if best != brute_minmax(inst.M, inst.N):
            disagreements += 1
            print(f"  !! {inst.name}: min-max identity broken")
        classic = edmonds_solve(PairContext(inst.M, inst.N), trace)
        if len(classic.I) != best or not verify_certificate(inst.M, inst.N, classic):
            disagreements += 1
            print(f"  !! {inst.name}: classic solver off optimum")
        for e0, e1 in inst.splits:
            try:
                cert = mixed_solve(inst.M, SplitInput(inst.N, e0, e1), trace)
            except (Stuck, ExtensionFailed) as exc:
                stuck += 1
                print(f"  !! {inst.name}: {type(exc).__name__}: {exc}")
                continue
            mixed_runs += 1
            if len(cert.I) != best or not verify_certificate(inst.M, inst.N, cert):
                disagreements += 1
                print(f"  !! {inst.name}: mixed solver off optimum for E1={e1.labels()}")
        if inst.M.size <= 8:
            wave_checks += 1
            if largest_wave(PairContext(inst.M, inst.N)).W.mask != brute_largest_wave(
                inst.M, inst.N
            ).mask:
                disagreements += 1
                print(f"  !! {inst.name}: wave disagreement")

    for inst in corpus.families:
        res = packcov_solve(inst.family, trace=trace)
        if not verify_packcov(inst.family, res):
            disagreements += 1
            print(f"  !! {inst.name}: packing/covering failed verification")

    for inst in corpus.graphs:
        out = orient_solve(inst.graph, trace=trace)
        feasible = brute_orientations(inst.graph) is not None
        if (out.verdict == "above") != feasible or not verify_outcome(inst.graph, out):
            disagreements += 1
            print(f"  !! {inst.name}: orientation disagreement")
        if out.verdict == "deficient" and not deficiency_counting_check(
            inst.graph, out.v_prime
        ):
            disagreements += 1
            print(f"  !! {inst.name}: counting certificate failed")

    dual_checks = 0
    roots = [(inst.name, (inst.M, inst.N, inst.M.dual(), inst.N.dual())) for inst in corpus.pairs]
    roots += [(inst.name, inst.family.members) for inst in corpus.families]
    for name, handles in roots:
        for d in tree_nodes(handles, DualMatroid):
            dual_checks += 1
            wrong = dual_mismatches(d)
            if wrong:
                disagreements += 1
                print(f"  !! {name}: dual handle disagrees with its child's ranks on {wrong} sets")

    elapsed = time.time() - start
    print(f"seed {spec.seed}: {len(corpus.pairs)} pairs, {len(corpus.families)} families, {len(corpus.graphs)} graphs")
    print(f"  generator coverage : {dict(sorted(corpus.kind_counts.items()))}")
    print(f"  mixed-solver runs  : {mixed_runs} ({wave_checks} wave cross-checks)")
    print(f"  dual cross-checks  : {dual_checks} dual handles, every submask")
    print(f"  structural cross-checks: {structural_checks} handles, every independent set")
    print(f"  augmentations      : {trace.augmentations}")
    print(f"  classic phases     : {trace.phases}")
    print(f"  wave runs          : {trace.wave_runs}")
    print(f"  extensions         : {trace.extensions}")
    print(f"  stuck/extension err: {stuck}")
    print(f"  disagreements      : {disagreements}")
    print(f"  elapsed            : {elapsed:.1f}s")
    return 1 if disagreements or stuck else 0


if __name__ == "__main__":
    sys.exit(main())
