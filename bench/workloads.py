"""Seeded workloads: the inputs, the entry-point calls and their checks.

Every generator draws from ``random.Random(seed)`` only, so one seed
gives one list of calls.  Inputs are handles no call has queried yet;
the runner deep-copies them before each call, so memo answers never
carry from one call to the next and call order cannot change the
numbers.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import random
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Call:
    """One entry-point call.

    ``key`` names the instance; checks compare calls that share it (the
    classic size against every mixed split, the CLI against the API).
    ``inputs`` is deep-copied before the call and again for its check.
    """

    kind: str
    key: str
    inputs: tuple


@dataclass
class Workload:
    calls: list
    fuzz_s: float = 0.0


# ---------------------------------------------------------------------------
# entry points


def _split(lib, n, e1_mask):
    g = n.ground
    e1 = lib.core.ElementSet(g, e1_mask)
    e0 = lib.core.ElementSet(g, n.universe_mask & ~e1_mask)
    return lib.intersect.SplitInput(n, e0, e1)


def run_call(lib, call: Call, inputs: tuple, trace):
    """Make the call; ``trace`` is a ``Trace`` in the traced run, else None."""
    kind = call.kind
    if kind == "edmonds":
        m, n = inputs
        return lib.intersect.edmonds_solve(lib.waves.PairContext(m, n), trace)
    if kind == "mixed":
        m, n, e1_mask = inputs
        return lib.intersect.mixed_solve(m, _split(lib, n, e1_mask), trace)
    if kind == "wave":
        m, n = inputs
        return lib.waves.largest_wave(lib.waves.PairContext(m, n))
    if kind == "packcov":
        (fam,) = inputs
        return lib.packcov.packcov_solve(fam, trace=trace)
    if kind == "orient":
        (graph,) = inputs
        return lib.orient.orient_solve(graph, trace=trace)
    if kind == "cli":
        argv, _ref = inputs
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = lib.cli.main(list(argv))
        return code, out.getvalue()
    raise ValueError(f"unknown call kind {kind!r}")


def summary(kind: str, res):
    """Comparable digest of a result; the traced run must reproduce it."""
    if kind in ("edmonds", "mixed"):
        return res.I.mask, res.E_M.mask, res.E_N.mask
    if kind == "wave":
        return res.W.mask, res.witness.mask
    if kind == "packcov":
        return res.E_p.mask, tuple(s.mask for s in res.S), tuple(i.mask for i in res.I)
    if kind == "orient":
        return res.orientation, res.verdict, res.v_prime, res.counting_ok
    return res


def check_call(lib, call: Call, res, ref: dict) -> bool:
    """Re-verify ``res`` with the public verifiers on a fresh copy of the inputs.

    ``ref`` collects API results of the current pass by (kind, key) so
    later calls on the same instance can be compared against them.
    """
    kind = call.kind
    fresh = copy.deepcopy(call.inputs)
    if kind in ("edmonds", "mixed"):
        m, n = fresh[0], fresh[1]
        if not lib.intersect.verify_certificate(m, n, res):
            return False
        ref[kind, call.key] = res
        classic = ref.get(("edmonds", call.key.split("/")[0]))
        return classic is None or len(classic.I) == len(res.I)
    if kind == "wave":
        m, n = fresh
        if lib.waves.is_wave(lib.waves.PairContext(m, n), res.W) is None:
            return False
        if res.witness.mask & ~res.W.mask:
            return False
        ref[kind, call.key] = res
        classic = ref.get(("edmonds", call.key))
        return classic is None or classic.E_M.mask == res.W.mask
    if kind == "packcov":
        ref[kind, call.key] = res
        return lib.packcov.verify_packcov(fresh[0], res)
    if kind == "orient":
        (graph,) = fresh
        if not lib.orient.verify_outcome(graph, res):
            return False
        ref[kind, call.key] = res
        if res.verdict == "deficient":
            return lib.orient.deficiency_counting_check(graph, res.v_prime) is True
        return True
    if kind == "cli":
        return _check_cli(call, res, ref)
    raise ValueError(f"unknown call kind {kind!r}")


def _check_cli(call: Call, res, ref: dict) -> bool:
    """Exit code and certificate sizes must match the API result."""
    code, out = res
    _argv, (api_kind, api_key) = call.inputs
    api = ref.get((api_kind, api_key))
    if api is None or not out:
        return False
    payload = json.loads(out)
    output = payload["output"]
    if payload["verification"].get("verified") is not True:
        return False
    if api_kind in ("edmonds", "mixed"):
        return code == 0 and output["certificate"]["size"] == len(api.I)
    if api_kind == "wave":
        return code == 0 and output["W"] == list(api.W.labels())
    if api_kind == "packcov":
        return (
            code == 0
            and len(output["E_p"]) == len(api.E_p)
            and [len(s) for s in output["S"]] == [len(s) for s in api.S]
            and [len(i) for i in output["I"]] == [len(i) for i in api.I]
        )
    if api_kind == "orient":
        return code == (0 if api.verdict == "above" else 1) and output["verdict"] == api.verdict
    return False


# ---------------------------------------------------------------------------
# generators


def _graph(lib, rng, labels, n_vertices):
    """Connected multigraph: a random spanning tree, then random extra edges."""
    vs = [f"v{i}" for i in range(n_vertices)]
    pairs = [(rng.randrange(i), i) for i in range(1, n_vertices)]
    while len(pairs) < len(labels):
        pairs.append(tuple(rng.sample(range(n_vertices), 2)))
    rng.shuffle(pairs)
    edges = [(vs[u], vs[v], label) for (u, v), label in zip(pairs, labels)]
    return lib.core.graphic(vs, edges)


def _partition(lib, rng, ground, min_block, max_block):
    """Random blocks of the given sizes, each capped at half its size."""
    order = list(range(ground.size))
    rng.shuffle(order)
    blocks = []
    while order:
        take = min(len(order), rng.randint(min_block, max_block))
        chunk, order = order[:take], order[take:]
        blocks.append((sum(1 << e for e in chunk), max(1, take // 2)))
    return lib.core.PartitionMatroid(ground, tuple(blocks))


def _labels(n):
    return tuple(f"e{i}" for i in range(n))


# classic-large: 16 x 64 + 4 x 96 + 2 x 128 elements; within each size, N
# alternates between partition and graphic.  Most calls share one size,
# so the median call is one of many similar instances rather than the
# boundary between two sizes.
CLASSIC_LADDER = (64, 64, 96, 64, 64, 128, 64, 64, 96, 64, 64) * 2


def build_classic_large(lib, seed, _workdir) -> Workload:
    rng = random.Random(seed)
    calls = []
    seen: dict = {}
    for i, size in enumerate(CLASSIC_LADDER):
        labels = _labels(size)
        m = _graph(lib, rng, labels, size // 3)
        k = seen[size] = seen.get(size, -1) + 1
        if k % 2 == 0:
            n = _partition(lib, rng, m.ground, 2, 4)
        else:
            n = _graph(lib, rng, labels, size // 3)
        calls.append(Call("edmonds", f"classic{i:02d}-n{size}", (m, n)))
    return Workload(calls)


# mixed-waves: M has rank about 3n/4 and N about n/2, so the largest wave
# stays small and the augment/extend loop runs.  Two graphic N at n = 16
# make SplitInput.validate enumerate all 2^16 subsets for components.
# Twenty-five of the thirty-three calls are n = 48 with E1 = {}, so the
# median call is the middle one of many similar instances; with nine of
# them the median moved about 20% (quartile spread) from seed to seed.
# The other partition sizes take E1 = {} and E1 = a union of blocks in turn.
_MIXED_OTHERS = ((16, "graphic"), (32, "partition"), (64, "partition"), (16, "partition")) * 2
MIXED_LADDER = tuple(
    call for other in _MIXED_OTHERS for call in ((48, "partition"),) * 3 + (other,)
) + ((48, "partition"),)


def build_mixed_waves(lib, seed, _workdir) -> Workload:
    rng = random.Random(seed)
    calls = []
    seen: dict = {}
    for i, (size, n_kind) in enumerate(MIXED_LADDER):
        labels = _labels(size)
        m = _graph(lib, rng, labels, size * 3 // 4)
        e1 = 0
        k = seen[size, n_kind] = seen.get((size, n_kind), -1) + 1
        if n_kind == "graphic":
            n = _graph(lib, rng, labels, size // 2)
        else:
            n = _partition(lib, rng, m.ground, 2, 4)
            if k % 2 and size != 48:
                # A union of blocks is a union of components of N.
                for bmask, _cap in n.blocks:
                    if rng.random() < 0.5:
                        e1 |= bmask
        calls.append(Call("mixed", f"mixed{i:02d}-n{size}-{n_kind}", (m, n, e1)))
    return Workload(calls)


# corpus-small: corpora of the acceptance-gate spec (tests/conftest.py)
# seeded from the benchmark seed, each with a CLI slice on JSON written
# during set-up.  One corpus alone leaves its oracle-call total 13% apart
# (quartile spread) from seed to seed; three bring that under 8%.
CORPUS_SPEC = dict(
    pairs=520,
    families=60,
    graphs=220,
    max_elements=10,
    max_graph_vertices=6,
    max_graph_edges=12,
)
CORPORA = 3
CLI_PAIRS, CLI_FAMILIES, CLI_GRAPHS = 8, 4, 12


def fresh_handle(core, m):
    """Rebuild ``m`` node by node; the copy has empty memos.

    ``fuzz_corpus`` queries ``N.components()`` while it picks splits, so
    its handles arrive with warm memos.
    """
    kind = m.kind
    if kind == "graphic":
        return core.GraphicMatroid(m.ground, m.vertices, m.endpoints)
    if kind == "partition":
        return core.PartitionMatroid(m.ground, m.blocks)
    if kind == "uniform":
        return core.UniformMatroid(m.ground, m.r)
    if kind == "explicit":
        return core.ExplicitMatroid(m.ground, m.bases)
    if kind == "dual":
        return fresh_handle(core, m.child).dual()
    if kind == "restrict":
        return core.RestrictMatroid(fresh_handle(core, m.child), m.universe_mask)
    if kind == "contract":
        return core.ContractMatroid(fresh_handle(core, m.child), m.contracted_mask)
    if kind == "sum":
        return core.DirectSumMatroid([fresh_handle(core, p) for p in m.parts])
    if kind == "relabel":
        return core.RelabelMatroid(m.ground, fresh_handle(core, m.child), m.mapping)
    raise ValueError(f"no rebuild rule for matroid kind {kind!r}")


def _round_trips(core, m) -> bool:
    """The CLI rebuilds ``m`` from JSON on the same ground order."""
    try:
        doc = core.matroid_to_json(m)
    except core.MatroidKitError:
        return False
    return core.matroid_from_json(doc).ground.labels == m.ground.labels


def _write(path: Path, doc) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


def build_corpus_small(lib, seed, workdir: Path) -> Workload:
    rng = random.Random(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    calls, cli, fuzz_s = [], [], 0.0
    for c in range(CORPORA):
        spec = lib.oracle.CorpusSpec(seed=rng.randrange(2**31), **CORPUS_SPEC)
        t0 = time.perf_counter()
        corpus = lib.oracle.fuzz_corpus(spec)
        fuzz_s += time.perf_counter() - t0
        _corpus_calls(lib, corpus, f"c{c}-", workdir, calls, cli)
    return Workload(calls + cli, fuzz_s)


def _corpus_calls(lib, corpus, prefix: str, workdir: Path, calls: list, cli: list) -> None:
    core = lib.core
    n_cli = 0
    for inst in corpus.pairs:
        key = prefix + inst.name
        m, n = fresh_handle(core, inst.M), fresh_handle(core, inst.N)
        calls.append(Call("edmonds", key, (m, n)))
        for j, (_e0, e1) in enumerate(inst.splits):
            calls.append(Call("mixed", f"{key}/{j}", (m, n, e1.mask)))
        calls.append(Call("wave", key, (m, n)))
        if n_cli < CLI_PAIRS and _round_trips(core, m) and _round_trips(core, n):
            n_cli += 1
            j = len(inst.splits) - 1
            pair = (
                "--m", _write(workdir / f"{key}.m.json", core.matroid_to_json(m)),
                "--n", _write(workdir / f"{key}.n.json", core.matroid_to_json(n)),
            )
            e1 = _write(workdir / f"{key}.e1.json", list(inst.splits[j][1].labels()))
            cli.append(Call("cli", key, (("intersect", *pair), ("edmonds", key))))
            cli.append(Call("cli", key, (("intersect", *pair, "--solver", "mixed", "--e1", e1), ("mixed", f"{key}/{j}"))))
            cli.append(Call("cli", key, (("wave", *pair), ("wave", key))))
    for k, inst in enumerate(corpus.families):
        key = prefix + inst.name
        members = tuple(fresh_handle(core, m) for m in inst.family.members)
        fam = lib.packcov.MatroidFamily(inst.family.ground, members)
        calls.append(Call("packcov", key, (fam,)))
        if k < CLI_FAMILIES:
            doc = {
                "universe": list(fam.ground.labels),
                "members": [core.matroid_to_json(m) for m in members],
            }
            path = _write(workdir / f"{key}.json", doc)
            cli.append(Call("cli", key, (("packcov", "--family", path), ("packcov", key))))
    for k, inst in enumerate(corpus.graphs):
        key = prefix + inst.name
        g = inst.graph
        calls.append(Call("orient", key, (g,)))
        if k < CLI_GRAPHS:
            graph_doc = {"vertices": list(g.vertices), "edges": [list(e) for e in g.edges]}
            argv = (
                "orient",
                "--graph", _write(workdir / f"{key}.json", graph_doc),
                "--demands", _write(workdir / f"{key}.o.json", dict(g.demands)),
            )
            cli.append(Call("cli", key, (argv, ("orient", key))))


WORKLOADS = {
    "classic-large": build_classic_large,
    "mixed-waves": build_mixed_waves,
    "corpus-small": build_corpus_small,
}
