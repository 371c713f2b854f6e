#!/usr/bin/env python3
"""Compare the classic and mixed solvers at n = 128 and 256, or at ``--sizes``.

    PYTHONPATH=src python scripts/mixed_scale.py [--sizes 128 256] [--repeats 3]

CI runs it with ``--sizes 128 256 512 --repeats 1``.

Each instance is a graphic M on 3n/4 vertices (a random spanning tree,
then random extra edges) against a partition N of random blocks of 2-4
elements, each capped at half its size, all drawn from random.Random(n).
The mixed solver runs twice: with E1 empty and with E1 the odd-indexed
blocks of N.  Each cell prints the median CPU time (time.process_time)
over ``--repeats`` runs and the leaf oracle calls of one run, the
entries of the two leaf handles' memos, which fresh handles start
without.  The exit code is 1 when a mixed run's |I| or E_M differs from
the classic solver's.
"""

from __future__ import annotations

import argparse
import random
import statistics
import sys
import time

from matroidkit.core import ElementSet, PartitionMatroid, graphic
from matroidkit.intersect import SplitInput, edmonds_solve, mixed_solve
from matroidkit.waves import PairContext


def instance(size: int):
    """The seeded pair at ``size`` elements and the odd-indexed blocks of N."""
    rng = random.Random(size)
    labels = [f"e{i}" for i in range(size)]
    vs = [f"v{i}" for i in range(size * 3 // 4)]
    ends = [(rng.randrange(i), i) for i in range(1, len(vs))]
    while len(ends) < size:
        ends.append(tuple(rng.sample(range(len(vs)), 2)))
    rng.shuffle(ends)
    m = graphic(vs, [(vs[u], vs[v], e) for (u, v), e in zip(ends, labels)])
    order = list(range(size))
    rng.shuffle(order)
    blocks = []
    while order:
        take = min(len(order), rng.randint(2, 4))
        chunk, order = order[:take], order[take:]
        blocks.append((sum(1 << e for e in chunk), max(1, take // 2)))
    n = PartitionMatroid(m.ground, tuple(blocks))
    odd = sum(bmask for bmask, _cap in blocks[1::2])
    return m, n, odd


def measure(size: int, solve, odd_e1: bool, repeats: int):
    """Median CPU seconds, leaf calls and certificate of ``solve`` on fresh handles."""
    times = []
    for _ in range(repeats):
        m, n, odd = instance(size)
        t0 = time.process_time()
        cert = solve(m, n, odd if odd_e1 else 0)
        times.append(time.process_time() - t0)
    return statistics.median(times), len(m._memo_indep) + len(n._memo_indep), cert


def classic(m, n, _e1):
    return edmonds_solve(PairContext(m, n))


def mixed(m, n, e1):
    e0 = ElementSet(m.ground, m.universe_mask & ~e1)
    return mixed_solve(m, SplitInput(n, e0, ElementSet(m.ground, e1)))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[128, 256])
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()

    print("| n | E1 | classic | mixed | CPU ratio | leaf ratio |")
    print("| --- | --- | --- | --- | --- | --- |")
    mismatches = 0
    for size in args.sizes:
        c_s, c_calls, c_cert = measure(size, classic, False, args.repeats)
        for name, odd_e1 in (("∅", False), ("odd blocks", True)):
            m_s, m_calls, m_cert = measure(size, mixed, odd_e1, args.repeats)
            same = len(m_cert.I) == len(c_cert.I) and m_cert.E_M == c_cert.E_M
            mismatches += not same
            print(
                f"| {size} | {name} | {c_s:.3f} s, {c_calls:,} | {m_s:.3f} s, {m_calls:,} "
                f"| {m_s / c_s:.1f}x | {m_calls / c_calls:.1f}x |"
                + ("" if same else " |I| or E_M differs from classic")
            )
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
