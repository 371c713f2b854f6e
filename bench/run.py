#!/usr/bin/env python3
"""Benchmark of the matroidkit solver entry points on one seeded workload.

    python3 bench/run.py --workload classic-large --seed 1 --seconds 5 --trace 0

Run from anywhere; ``matroidkit`` is imported from ``src/`` next to this
directory, and the command fails (exit 2, no result) when it is absent.
Load is closed-loop: one thread makes one entry-point call at a time
and waits for it.  Each call gets deep copies of handles no earlier call
has queried, and its output is re-verified outside the timed region.

``--trace 0`` times whole passes over the workload's calls until
``--seconds`` of call time have accrued and prints the end-to-end
metrics; ``setup_s`` is timed on separate set-ups in fresh child
interpreters.  ``--trace 1`` makes one untraced reference pass, then traced
passes (see ``tracing.py``) and prints the per-layer metrics, per pass.
The last line of standard output is the JSON result; metric names and
units come from ``BENCHMARK.json``.  The exit code is 1 when any call
fails or any self-check does not hold.
"""

from __future__ import annotations

import argparse
import copy
import gc
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

from tracing import DERIVED_KINDS, LEAF_KINDS, SPANS, Tracer
from workloads import WORKLOADS, run_call, summary, check_call

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MODULES = ("core", "waves", "intersect", "packcov", "orient", "oracle", "cli")
# setup_s is the median over this many set-ups, each in a fresh interpreter.
SETUP_RUNS = 3

# Per-layer counters that must read > 0 (and = 0) on each workload, so a
# renamed or bypassed function shows up as a failed check, not a quiet 0.
COVERAGE = {
    "classic-large": {
        "nonzero": (
            "intersect.edmonds_solve.calls",
            "intersect.verify_certificate.calls",
            "intersect.augmentations",
            "core.indep_raw.graphic",
            "core.indep_raw.partition",
        ),
        "zero": (
            "waves.largest_wave.calls",
            "waves.check_cond_plus.calls",
            "waves.common_base_B.calls",
            "intersect.mixed_solve.calls",
            "core.components.calls",
        ),
    },
    "mixed-waves": {
        "nonzero": (
            "intersect.mixed_solve.calls",
            "intersect.find_aug_path.calls",
            "intersect.build_exchange_digraph.calls",
            "intersect.augment.calls",
            "intersect.extend_to_nice.calls",
            "intersect.augmentations",
            "intersect.extensions",
            "waves.largest_wave.calls",
            "waves.check_cond_plus.calls",
            "waves.common_base_B.calls",
            "core.components.calls",
            "core.indep_raw.contract",
            "core.indep_raw.restrict",
        ),
        "zero": ("packcov.packcov_solve.calls", "orient.orient_solve.calls", "cli.main.calls"),
    },
    # corpus-small reaches every layer: all per-layer metrics must be > 0.
    "corpus-small": {"nonzero": None, "zero": ()},
}


def set_up(workload: str, seed: int):
    """Import matroidkit from src/ and build the workload's calls from the seed."""
    sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("matroidkit")
    if Path(pkg.__file__).resolve().parent != (SRC / "matroidkit").resolve():
        raise RuntimeError(f"matroidkit imported from {pkg.__file__}, not from src/")
    lib = SimpleNamespace(**{m: importlib.import_module(f"matroidkit.{m}") for m in MODULES})
    return lib, WORKLOADS[workload](lib, seed, OUT / workload)


def time_setups(workload: str, seed: int) -> list:
    """Seconds from starting a fresh interpreter until it has set up ``workload``.

    Each sample pays interpreter start-up, every import and the whole
    set-up; the child exits once it reports that it is ready.
    """
    code = "import sys, run; run.set_up(sys.argv[1], int(sys.argv[2])); print('ready', flush=True)"
    samples = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code, workload, str(seed)], cwd=HERE,
                              stdout=subprocess.PIPE, text=True) as child:
            ready = child.stdout.readline() == "ready\n"
            samples.append(time.perf_counter() - t0)
        if not ready or child.returncode != 0:
            raise RuntimeError(f"set-up of {workload} in a child process failed (exit {child.returncode})")
    return samples


def run_pass(lib, calls, check: bool, tracer=None) -> list:
    """One pass over ``calls``: (seconds, summary or None for a failure, trace)."""
    ref: dict = {}
    records = []
    for i, call in enumerate(calls):
        inputs = copy.deepcopy(call.inputs)
        trace = None
        if tracer is not None:
            tracer.call_id = i
            trace = lib.intersect.Trace()
        t0 = time.perf_counter()
        try:
            res = run_call(lib, call, inputs, trace)
            dt = time.perf_counter() - t0
            ok = not check or check_call(lib, call, res, ref)
            digest = summary(call.kind, res) if ok else None
        except Exception:  # a failed call is counted, not fatal
            dt = time.perf_counter() - t0
            traceback.print_exc(file=sys.stderr)
            digest = None
        if digest is None:
            print(f"bench: call {i} ({call.kind} {call.key}) failed", file=sys.stderr)
        records.append((dt, digest, trace))
    return records


def timed_run(lib, work, seconds: float, workload: str, seed: int):
    records = []
    while True:
        records += run_pass(lib, work.calls, check=True)
        if sum(r[0] for r in records) >= seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    durations = [r[0] for r in records]
    failed = sum(r[1] is None for r in records)

    # Oracle calls are counted by the tracer on one extra, unchecked pass,
    # so that the verifiers' own queries stay out of the count.
    tracer = Tracer(lib)
    counted = run_pass(lib, work.calls, check=False, tracer=tracer)
    oracle_calls = sum(tracer.counts[f"core.indep_raw.{kind}"] for kind in LEAF_KINDS)
    mismatched = sum(a[1] != b[1] for a, b in zip(counted, records))

    n = len(durations)
    p90 = f"call_s.p90 = {statistics.quantiles(durations, n=10)[-1]:.6g} s" if n >= 100 else (
        "call_s.p90 omitted (fewer than 100 timed calls)"
    )
    print(
        f"# {workload}: {n} timed calls in {n // len(work.calls)} passes of {len(work.calls)}; "
        f"call_s.p50 over {n} samples; {p90}; fail_frac = {failed}/{n}"
    )
    values = {
        "setup_s": statistics.median(time_setups(workload, seed)),
        "calls_per_s": (n - failed) / sum(durations),
        "call_s.p50": statistics.median(durations),
        "oracle_calls": oracle_calls,
        "peak_rss_mb": peak_rss_mb,
    }
    return values, n + len(counted), failed + mismatched, [] if oracle_calls > 0 else ["oracle_calls is 0"]


def traced_run(lib, work, seconds: float, workload: str, seed: int):
    reference = run_pass(lib, work.calls, check=True)
    failed = sum(r[1] is None for r in reference)
    attempted = len(reference)
    untraced_s = sum(r[0] for r in reference)

    tracer = Tracer(lib)  # installed after set-up, so set-up is not counted
    cycles, traced_s, self_total = [], [], {}
    problems = []
    while True:
        tracer.reset_counters()
        records = run_pass(lib, work.calls, check=False, tracer=tracer)
        attempted += len(records)
        failed += sum(a[1] is None or a[1] != b[1] for a, b in zip(records, reference))
        for rec in records:
            if rec[2] is not None:
                tracer.counts["intersect.augmentations"] += rec[2].augmentations
                tracer.counts["intersect.extensions"] += rec[2].extensions
        cycles.append(dict(tracer.counts))
        traced_s.append(sum(r[0] for r in records))
        for name, s in tracer.self_s.items():
            self_total[name] = self_total.get(name, 0.0) + s
        # At least two passes, so that the counts of identical passes can be compared.
        if len(cycles) >= 2 and sum(traced_s) >= seconds:
            break
    if any(c != cycles[0] for c in cycles):
        problems.append("per-layer counts differ between identical passes")
    counts = cycles[0]
    passes = len(cycles)

    values = {}
    for layer, names in list(SPANS.items()) + [("core", ("components",))]:
        for name in names:
            values[f"{layer}.{name}.calls"] = counts.get(f"{layer}.{name}.calls", 0)
            values[f"{layer}.{name}.self_s"] = self_total.get(f"{layer}.{name}", 0.0) / passes
    raw = 0
    for kind in LEAF_KINDS + DERIVED_KINDS:
        values[f"core.indep_raw.{kind}"] = counts.get(f"core.indep_raw.{kind}", 0)
        raw += values[f"core.indep_raw.{kind}"]
    indep = counts.get("core.indep_calls", 0)
    values["core.indep_calls"] = indep
    values["core.memo_hit_rate"] = 1 - raw / indep if indep else 0.0
    values["core.oracle_s"] = self_total.get("core.oracle", 0.0) / passes
    for key in ("intersect.augmentations", "intersect.extensions", "orient.demand_lookups"):
        values[key] = counts.get(key, 0)
    values["oracle.fuzz_corpus_s"] = work.fuzz_s
    values["trace.overhead"] = statistics.mean(traced_s) / untraced_s

    cov = COVERAGE[workload]
    nonzero = cov["nonzero"] if cov["nonzero"] is not None else tuple(values)
    problems += [f"{k} is 0 on {workload}" for k in nonzero if not values[k]]
    problems += [f"{k} is {values[k]} on {workload}, expected 0" for k in cov["zero"] if values[k]]

    tracer.write_spans(OUT / f"spans-{workload}.tsv")
    print(
        f"# {workload}: traced {passes} passes of {len(work.calls)} calls; "
        f"{len(tracer.spans)} spans; overhead {values['trace.overhead']:.2f}x "
        f"(traced pass {statistics.mean(traced_s):.3f} s / untraced {untraced_s:.3f} s)"
    )
    return values, attempted, failed, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "matroidkit" / "__init__.py").is_file():
        print(f"bench: no matroidkit sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    lib, work = set_up(args.workload, args.seed)
    # Set-up objects are never garbage; keep the collector from rescanning them.
    gc.collect()
    gc.freeze()

    runner = traced_run if args.trace else timed_run
    values, attempted, failed, problems = runner(lib, work, args.seconds, args.workload, args.seed)
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise RuntimeError(f"benchmark computes no value for {missing}")
    for problem in problems:
        print(f"bench: self-check failed: {problem}", file=sys.stderr)
    correct = failed == 0 and not problems
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
