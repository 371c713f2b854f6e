#!/usr/bin/env python3
"""Compare the classic and mixed solvers at n = 128 and 256, or at ``--sizes``.

    PYTHONPATH=src python scripts/mixed_scale.py [--sizes 128 256] [--repeats 3]

CI runs it with ``--sizes 128 256 512 --repeats 1``.

Each instance is a graphic M on 3n/4 vertices (a random spanning tree,
then random extra edges) against a partition N of random blocks of 2-4
elements, each capped at half its size, all drawn from random.Random(n).
The mixed solver runs twice: with E1 empty and with E1 the odd-indexed
blocks of N.  Two more rows solve the n = 256 pair with N replaced by
the dual of its partition, with E1 empty and with E1 the odd-indexed
blocks, so the solves build contractions of restrictions of that dual.
A last row solves a graphic M against a graphic N at n = 256, E1 empty,
drawn from random.Random(-256).  Each cell prints the median CPU time
(time.process_time) over ``--repeats`` runs, then the leaf oracle calls
of one run, the ``_indep_raw`` calls of every graphic, partition,
uniform and explicit handle (M, N and every leaf the solve builds, such
as the closed form of a dual N), and "+ N structural", the span and
circuit questions the leaves answered from their structure, one answer
per question (calls of a leaf's own ``_spanned`` or ``_circuits`` that
do not hand the question to the query version).  The call ratio compares
the two cells' sums.

The contraction and restriction handles each solve builds, and the dual
handles it builds that answer from a closed form, are collected (the
script wraps their ``__init__``).  After the solve, each is asked
one seeded span question and two seeded circuit questions, with one
tail and with many, and each answer is checked against the query
versions (``Matroid._spanned``, ``Matroid._circuits``) asked of a deep
copy; the last line counts them.

After the table it always solves the glued family: 16 disjoint copies
of the 15-element instance of
``test_mixed_solve_takes_an_n_star_arc_on_its_own_search``
(tests/test_intersect.py), elements in copy-major order, where each
copy's only augmenting path of length 5 leaves an element of I in E1,
so only the N*-rule makes it.  One run of each solver prints the same
cells, and the traced mixed run counts its augmenting paths through
I & E1: those with an odd position in the ``augment`` event's
``before`` set and in E1.  The next line prints that run's wave-run mix
(``Trace.wave_runs``): full runs cold and warm, resumed runs, rounds
that needed no check run, and the full runs' classic phases.

The exit code is 1 when a mixed run's |I| or E_M differs from the
classic solver's, when fewer than 16 glued paths pass through I & E1, or
when a structural answer differs from the query version's.
"""

from __future__ import annotations

import argparse
import copy
import functools
import random
import statistics
import sys
import time
from collections import Counter

from matroidkit.classic import Trace
from matroidkit.core import (
    ContractMatroid,
    DualMatroid,
    ElementSet,
    ExplicitMatroid,
    GraphicMatroid,
    Matroid,
    PartitionMatroid,
    RestrictMatroid,
    UniformMatroid,
    bit_indices,
    graphic,
)
from matroidkit.intersect import SplitInput, edmonds_solve, mixed_solve
from matroidkit.waves import PairContext


# the query versions, kept before the leaves' own answers are counted
QUERY = {name: getattr(Matroid, name) for name in ("_spanned", "_circuits")}
LEAVES = (GraphicMatroid, PartitionMatroid)
LEAF_KINDS = (GraphicMatroid, PartitionMatroid, UniformMatroid, ExplicitMatroid)


class Watch:
    """The contraction, restriction and closed-form dual handles built, and
    the leaves' oracle calls and structural answers, since the last ``clear``."""

    def __init__(self) -> None:
        self.clear()

    def clear(self) -> None:
        self.built: list = []
        self.calls = 0
        self.answers = 0

    def install(self) -> None:
        """Wrap the contraction, restriction and dual classes' ``__init__`` to
        collect each handle (a dual only with a closed form), every leaf
        class's ``_indep_raw`` to count its calls, and the leaves' own
        ``_spanned`` and ``_circuits`` to count one answer per call, less
        each call that hands the question to the query version."""
        watch = self
        for cls in (ContractMatroid, RestrictMatroid, DualMatroid):
            def recording(handle, *args, init=cls.__init__):
                init(handle, *args)
                if not isinstance(handle, DualMatroid) or handle._closed is not None:
                    watch.built.append(handle)

            cls.__init__ = recording
        for cls in LEAF_KINDS:
            def counted(handle, mask, raw=cls._indep_raw):
                watch.calls += 1
                return raw(handle, mask)

            cls._indep_raw = counted
        for name, query in QUERY.items():
            def handed(handle, *args, query=query):
                watch.answers -= isinstance(handle, LEAVES)
                return query(handle, *args)

            setattr(Matroid, name, handed)
            for cls in LEAVES:
                def own(handle, *args, answer=vars(cls)[name]):
                    watch.answers += 1
                    return answer(handle, *args)

                setattr(cls, name, own)

    def cross_check(self, rng) -> tuple[int, int]:
        """Questions asked of the handles built and answers that differ from the query versions.

        Each handle is asked for the span of a seeded independent set I
        within a seeded ``among``, then for the circuit of I + x, for a
        seeded x that I spans there, and for the union of the circuits of
        I + y over seeded tails y, both within the whole universe; the
        query versions answer on a deep copy of all the handles.
        """
        refs = copy.deepcopy(self.built)
        asked = wrong = 0
        for h, ref in zip(self.built, refs):
            u = h.universe_mask
            imask = ref._max_indep(rng.getrandbits(u.bit_length()) & u)
            among = rng.getrandbits(u.bit_length()) & u
            spanned = QUERY["_spanned"](ref, imask, among)
            asked += 1
            wrong += h._spanned(imask, among) != spanned
            if spanned:
                one = 1 << rng.choice(list(bit_indices(spanned)))
                for tails in (one, rng.getrandbits(u.bit_length()) & u):
                    asked += 1
                    wrong += h._circuits(imask, tails, u) != QUERY["_circuits"](ref, imask, tails, u)
        return asked, wrong


def graphic_on(rng, size: int):
    """A graphic matroid on ``size`` edges and 3n/4 vertices: a random spanning tree, then random extra edges."""
    labels = [f"e{i}" for i in range(size)]
    vs = [f"v{i}" for i in range(size * 3 // 4)]
    ends = [(rng.randrange(i), i) for i in range(1, len(vs))]
    while len(ends) < size:
        ends.append(tuple(rng.sample(range(len(vs)), 2)))
    rng.shuffle(ends)
    return graphic(vs, [(vs[u], vs[v], e) for (u, v), e in zip(ends, labels)])


def instance(size: int, odd_e1: bool):
    """The seeded pair at ``size`` elements, with E1 the odd-indexed blocks of N or empty."""
    rng = random.Random(size)
    m = graphic_on(rng, size)
    order = list(range(size))
    rng.shuffle(order)
    blocks = []
    while order:
        take = min(len(order), rng.randint(2, 4))
        chunk, order = order[:take], order[take:]
        blocks.append((sum(1 << e for e in chunk), max(1, take // 2)))
    n = PartitionMatroid(m.ground, tuple(blocks))
    odd = sum(bmask for bmask, _cap in blocks[1::2])
    return m, n, odd if odd_e1 else 0


# the 15-element instance, as edges on 12 vertices and blocks of N with caps
GADGET_EDGES = (
    (10, 4), (4, 10), (8, 1), (2, 8), (10, 5), (2, 1), (6, 8), (0, 11),
    (9, 8), (6, 5), (9, 11), (1, 5), (11, 7), (9, 3), (9, 11),
)
GADGET_BLOCKS = (((6, 8, 11), 3), ((1, 4), 1), ((10,), 0), ((2, 5, 7, 14), 1), ((0, 9), 1), ((3, 12, 13), 2))
GADGET_E1 = (0, 6, 8, 9, 11)
GLUED_COPIES = 16


def glued(copies: int):
    """``copies`` disjoint copies of the gadget, copy-major, and their E1 mask."""
    vs = [f"c{c}v{i}" for c in range(copies) for i in range(12)]
    edges = [
        (vs[12 * c + u], vs[12 * c + v], f"c{c}e{j}")
        for c in range(copies)
        for j, (u, v) in enumerate(GADGET_EDGES)
    ]
    m = graphic(vs, edges)
    blocks = tuple(
        (sum(1 << 15 * c + e for e in elems), cap) for c in range(copies) for elems, cap in GADGET_BLOCKS
    )
    e1 = sum(1 << 15 * c + e for c in range(copies) for e in GADGET_E1)
    return m, PartitionMatroid(m.ground, blocks), e1


def through_i_e1(trace: Trace, e1: int) -> int:
    """The mixed augmenting paths with an element of I & E1 at an odd position."""
    return sum(
        any((ev["before"] & e1) >> x & 1 for x in ev["path"][1::2])
        for ev in trace.events
        if ev["kind"] == "augment"
    )


def dual_instance(size: int, odd_e1: bool):
    """The seeded pair at ``size`` elements with N the dual of its partition.

    The dual of a partition matroid is the direct sum of its blocks' duals,
    so the odd-indexed blocks are still a union of components of N.
    """
    m, n, e1 = instance(size, odd_e1)
    return m, n.dual(), e1


def graphic_pair(size: int):
    """Two seeded graphic matroids on one ground set of ``size`` edges, and E1 empty."""
    rng = random.Random(-size)
    m = graphic_on(rng, size)
    n = graphic_on(rng, size)
    return m, GraphicMatroid(m.ground, n.vertices, n.endpoints), 0


def measure(build, solve, repeats: int, watch: Watch):
    """Median CPU seconds, leaf calls, structural answers and certificate of
    ``solve`` on fresh handles from ``build()``; the counts are the last
    run's, and ``watch`` holds the handles it built."""
    times = []
    for _ in range(repeats):
        m, n, e1 = build()
        watch.clear()
        t0 = time.process_time()
        cert = solve(m, n, e1)
        times.append(time.process_time() - t0)
    return statistics.median(times), watch.calls, watch.answers, cert


def classic(m, n, _e1):
    return edmonds_solve(PairContext(m, n))


def mixed(m, n, e1, trace=None):
    e0 = ElementSet(m.ground, m.universe_mask & ~e1)
    return mixed_solve(m, SplitInput(n, e0, ElementSet(m.ground, e1)), trace)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[128, 256])
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()

    watch = Watch()
    watch.install()
    rng = random.Random(0)
    checked = Counter()

    def solved(build, solve, repeats):
        """``measure``, then the cross-check of the handles its last run built:
        the CPU seconds, the cell's calls, their total and the certificate."""
        seconds, leaf, answers, cert = measure(build, solve, repeats, watch)
        asked, wrong = watch.cross_check(rng)
        checked.update(handles=len(watch.built), asked=asked, wrong=wrong)
        return seconds, f"{leaf:,} + {answers:,} structural", leaf + answers, cert

    print("| n | E1 | classic | mixed | CPU ratio | call ratio |")
    print("| --- | --- | --- | --- | --- | --- |")
    mismatches = 0
    rows = [(size, name, functools.partial(instance, size, False), functools.partial(instance, size, odd_e1))
            for size in args.sizes for name, odd_e1 in (("∅", False), ("odd blocks", True))]
    rows += [(256, f"{name}, dual N", functools.partial(dual_instance, 256, False),
              functools.partial(dual_instance, 256, odd_e1)) for name, odd_e1 in (("∅", False), ("odd blocks", True))]
    rows.append((256, "∅, graphic N", functools.partial(graphic_pair, 256), functools.partial(graphic_pair, 256)))
    for size, name, classic_build, mixed_build in rows:
        c_s, c_calls, c_total, c_cert = solved(classic_build, classic, args.repeats)
        m_s, m_calls, m_total, m_cert = solved(mixed_build, mixed, args.repeats)
        same = len(m_cert.I) == len(c_cert.I) and m_cert.E_M == c_cert.E_M
        mismatches += not same
        print(
            f"| {size} | {name} | {c_s:.3f} s, {c_calls} | {m_s:.3f} s, {m_calls} "
            f"| {m_s / c_s:.1f}x | {m_total / c_total:.1f}x |"
            + ("" if same else " |I| or E_M differs from classic")
        )

    # one run each; the mixed one is traced
    build = functools.partial(glued, GLUED_COPIES)
    trace, e1 = Trace(), build()[2]
    c_s, c_calls, _total, c_cert = solved(build, classic, 1)
    m_s, m_calls, _total, m_cert = solved(build, lambda *pair: mixed(*pair, trace), 1)
    same = len(m_cert.I) == len(c_cert.I) and m_cert.E_M == c_cert.E_M
    paths = through_i_e1(trace, e1)
    mismatches += not same or paths < GLUED_COPIES
    print(
        f"\nglued family, {GLUED_COPIES} copies ({15 * GLUED_COPIES} elements), "
        f"|I| = {len(m_cert.I)}: classic {c_s:.3f} s, {c_calls} | mixed {m_s:.3f} s, {m_calls} "
        f"| {paths} augmenting paths through I & E1"
        + ("" if same else " | |I| or E_M differs from classic")
        + ("" if paths >= GLUED_COPIES else f" | fewer than {GLUED_COPIES} through I & E1")
    )
    print("glued mixed wave runs: " + ", ".join(f"{k} {v:,}" for k, v in trace.wave_runs.items()))
    print(
        f"structural cross-checks: {checked['asked']:,} span and circuit questions on "
        f"{checked['handles']:,} contraction, restriction and closed-form dual handles, {checked['wrong']} differ "
        "from the query versions"
    )
    return 1 if mismatches or checked["wrong"] else 0


if __name__ == "__main__":
    sys.exit(main())
