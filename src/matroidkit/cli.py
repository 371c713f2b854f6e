"""Command-line interface: one binary, JSON in, verified JSON out.

Each subcommand makes one library call, which verifies its answer from
raw oracles and raises on a failed check (exit 3).

Exit codes: 0 verified success, 1 verified negative verdict (for
example a deficiency certificate), 2 input errors, 3 internal assertion
failures.  Identical inputs and flags produce byte-identical output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from contextlib import contextmanager
from pathlib import Path

from .classic import Trace
from .core import (
    CertificateInvalid,
    ElementSet,
    ExtensionFailed,
    GroundSet,
    InvalidDocument,
    Matroid,
    MatroidKitError,
    PostconditionFailed,
    Stuck,
    UniverseMismatch,
    matroid_from_json,
    matroid_to_json,
    relabel_onto,
)
from .intersect import solve
from .oracle import (
    CorpusSpec,
    axiom_check,
    brute_largest_wave,
    brute_max_common,
    brute_minmax,
    fuzz_corpus,
)
from .orient import DemandGraph, build_instance, orient_solve
from .packcov import MatroidFamily, lift_family, packcov_solve
from .waves import PairContext, is_clean, largest_wave

INTERNAL_ERRORS = (Stuck, PostconditionFailed, ExtensionFailed, CertificateInvalid)


def _canon(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _digest(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def _load(path: str):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InvalidDocument(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidDocument(f"malformed JSON in {path}: {exc}") from exc
    except RecursionError:
        raise InvalidDocument(f"{path} nests too deeply to read") from None


@contextmanager
def _writing(path: str):
    """Report a failed write under ``path`` as an input error, as ``_load`` does a read."""
    try:
        yield
    except OSError as exc:
        raise InvalidDocument(f"cannot write {path}: {exc}") from exc


def _labels(s: ElementSet) -> list[str]:
    return list(s.labels())


def _set_from_labels(ground: GroundSet, labels) -> ElementSet:
    if not isinstance(labels, list):
        raise InvalidDocument("expected a JSON list of element labels")
    return ground.subset(labels)


def _e1_from_args(args, ground_of) -> ElementSet | None:
    """The ``--e1`` labels on the solved ground set ``ground_of()``; mixed solver only."""
    if not args.e1:
        return None
    if args.solver != "mixed":
        raise InvalidDocument("--e1 needs --solver mixed")
    return _set_from_labels(ground_of(), _load(args.e1))


def _pair_from_args(args) -> tuple[Matroid, Matroid, dict]:
    """M and N from their documents, N read onto M's label order."""
    m_doc = _load(args.m)
    n_doc = _load(args.n)
    m = matroid_from_json(m_doc)
    n = matroid_from_json(n_doc)
    if set(m.ground.labels) != set(n.ground.labels):  # each holds distinct labels
        raise UniverseMismatch("pair members list different element labels")
    return m, relabel_onto(n, m.ground), {"m": _digest(m_doc), "n": _digest(n_doc)}


def _telemetry(trace: Trace) -> dict:
    """The trace's counters, with its events counted, not listed."""
    return trace.as_dict() | {"events": len(trace.events)}


def _result(subcommand: str, inputs: dict, output: dict, verification, telemetry) -> dict:
    return {
        "subcommand": subcommand,
        "inputs": inputs,
        "output": output,
        "verification": verification,
        "telemetry": telemetry,
    }


# ---------------------------------------------------------------------------
# subcommands


def _cmd_intersect(args) -> tuple[dict, int]:
    m, n, digests = _pair_from_args(args)
    e1 = _e1_from_args(args, lambda: n.ground)
    trace = Trace()
    cert = solve(m, n, args.solver, e1, trace)
    output = {
        "certificate": {
            "I": _labels(cert.I),
            "E_M": _labels(cert.E_M),
            "E_N": _labels(cert.E_N),
            "size": len(cert.I),
        },
        "solver": args.solver,
    }
    verification = {"verified": True, "certificate_valid": True}
    if args.trace:
        with _writing(args.trace):
            Path(args.trace).write_text(_canon(trace.as_dict()))
    return _result("intersect", digests, output, verification, _telemetry(trace)), 0


def _cmd_wave(args) -> tuple[dict, int]:
    m, n, digests = _pair_from_args(args)
    ctx = PairContext(m, n)
    wave = largest_wave(ctx)
    cond_plus = is_clean(ctx, wave)
    output = {
        "W": _labels(wave.W),
        "witness": _labels(wave.witness),
        "cond_plus": cond_plus,
    }
    return _result("wave", digests, output, {"verified": True}, {}), 0


def _cmd_packcov(args) -> tuple[dict, int]:
    doc = _load(args.family)
    try:
        universe = doc["universe"]
        member_docs = doc["members"]
    except (KeyError, TypeError) as exc:
        raise InvalidDocument(f"family document needs universe and members: {exc}")
    for name, value in (("universe", universe), ("members", member_docs)):
        if not isinstance(value, list):
            raise InvalidDocument(f"family {name} must be a JSON list")
    ground = GroundSet(tuple(universe))
    members = []
    for mdoc in member_docs:
        member = matroid_from_json(mdoc)
        if set(member.ground.labels) != set(universe):  # each holds distinct labels
            raise InvalidDocument("family member universe differs from shared universe")
        members.append(relabel_onto(member, ground))
    fam = MatroidFamily(ground, tuple(members))
    trace = Trace()
    e1 = _e1_from_args(args, lambda: lift_family(fam).ground)
    res = packcov_solve(fam, solver=args.solver, e1=e1, trace=trace)
    output = {
        "E_p": _labels(res.E_p),
        "E_c": _labels(res.E_c),
        "S": [_labels(s) for s in res.S],
        "I": [_labels(i) for i in res.I],
        "product_labels": list(res.product_labels),
    }
    verification = {"verified": True, "packcov_valid": True}
    return _result("packcov", {"family": _digest(doc)}, output, verification, _telemetry(trace)), 0


def _cmd_orient(args) -> tuple[dict, int]:
    g_doc = _load(args.graph)
    o_doc = _load(args.demands)
    try:
        if not isinstance(g_doc["vertices"], list):
            raise InvalidDocument("graph vertices must be a JSON list")
        graph = DemandGraph.build(g_doc["vertices"], g_doc["edges"], o_doc)
    except (KeyError, TypeError) as exc:
        raise InvalidDocument(f"graph document needs vertices and edges: {exc}")
    trace = Trace()
    e1 = _e1_from_args(args, lambda: build_instance(graph).ground)
    out = orient_solve(graph, solver=args.solver, e1=e1, trace=trace)
    output = {
        "verdict": out.verdict,
        "orientation": dict(out.orientation),
        "v_prime": list(out.v_prime),
        "counting_check": out.counting_ok,
    }
    verification = {"verified": True, "outcome_valid": True}
    payload = _result(
        "orient",
        {"graph": _digest(g_doc), "demands": _digest(o_doc)},
        output,
        verification,
        _telemetry(trace),
    )
    return payload, 0 if out.verdict == "above" else 1


def _cmd_brute(args) -> tuple[dict, int]:
    m, n, digests = _pair_from_args(args)
    size, witness = brute_max_common(m, n)
    minmax = brute_minmax(m, n)
    if size != minmax:
        raise PostconditionFailed("brute max and min-max disagree")
    output = {"max_common": size, "witness": _labels(witness), "minmax": minmax}
    if args.wave:
        output["largest_wave"] = _labels(brute_largest_wave(m, n))
    return _result("brute", digests, output, {"verified": True}, {}), 0


def _cmd_fuzz(args) -> tuple[dict, int]:
    spec = CorpusSpec(
        seed=args.seed,
        max_elements=args.max_elements,
        pairs=args.pairs,
        families=args.families,
        graphs=args.graphs,
    )
    corpus = fuzz_corpus(spec)
    docs = {}
    for inst in corpus.pairs:
        docs[inst.name] = {
            "m": matroid_to_json(inst.M),
            "n": matroid_to_json(inst.N),
            "splits": [{"e1": _labels(e1)} for _e0, e1 in inst.splits],
        }
    for inst in corpus.families:
        docs[inst.name] = {
            "universe": list(inst.family.ground.labels),
            "members": [matroid_to_json(m) for m in inst.family.members],
        }
    for inst in corpus.graphs:
        docs[inst.name] = {
            "vertices": list(inst.graph.vertices),
            "edges": [list(e) for e in inst.graph.edges],
            "demands": dict(inst.graph.demands),
        }
    manifest = {
        "seed": spec.seed,
        "counts": {
            "pairs": len(corpus.pairs),
            "families": len(corpus.families),
            "graphs": len(corpus.graphs),
        },
        "kind_counts": dict(sorted(corpus.kind_counts.items())),
        "max_elements": spec.max_elements,
    }
    docs["manifest"] = manifest
    outdir = Path(args.out)
    with _writing(args.out):
        outdir.mkdir(parents=True, exist_ok=True)
        for name, doc in docs.items():
            (outdir / f"{name}.json").write_text(_canon(doc))
    return _result("fuzz", {"seed": spec.seed}, manifest, {"verified": True}, {}), 0


def _cmd_check(args) -> tuple[dict, int]:
    doc = _load(args.m)
    m = matroid_from_json(doc)
    ok = axiom_check(m)
    return (
        _result("check", {"m": _digest(doc)}, {"ok": ok}, {"verified": True}, {}),
        0 if ok else 1,
    )


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matroidkit",
        description="matroid intersection, packing/covering and orientation with verified certificates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("intersect", help="maximum common independent set")
    p.add_argument("--m", required=True)
    p.add_argument("--n", required=True)
    p.add_argument("--solver", choices=["classic", "mixed"], default="classic")
    p.add_argument("--e1", help="JSON list of labels treated through cocircuits")
    p.add_argument("--trace", help="write the event trace to this path")
    p.set_defaults(handler=_cmd_intersect)

    p = sub.add_parser("wave", help="largest wave of a pair")
    p.add_argument("--m", required=True)
    p.add_argument("--n", required=True)
    p.set_defaults(handler=_cmd_wave)

    p = sub.add_parser("packcov", help="packing/covering decomposition of a family")
    p.add_argument("--family", required=True)
    p.add_argument("--solver", choices=["classic", "mixed"], default="classic")
    p.add_argument("--e1")
    p.set_defaults(handler=_cmd_packcov)

    p = sub.add_parser("orient", help="degree-constrained orientation")
    p.add_argument("--graph", required=True)
    p.add_argument("--demands", required=True)
    p.add_argument("--solver", choices=["classic", "mixed"], default="classic")
    p.add_argument("--e1")
    p.set_defaults(handler=_cmd_orient)

    p = sub.add_parser("brute", help="exhaustive oracles for a pair")
    p.add_argument("--m", required=True)
    p.add_argument("--n", required=True)
    p.add_argument("--wave", action="store_true", help="include the brute largest wave")
    p.set_defaults(handler=_cmd_brute)

    p = sub.add_parser("fuzz", help="write a deterministic instance corpus")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pairs", type=int, default=20)
    p.add_argument("--families", type=int, default=5)
    p.add_argument("--graphs", type=int, default=10)
    p.add_argument("--max-elements", type=int, default=8)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_fuzz)

    p = sub.add_parser("check", help="verify the independence axioms by enumeration")
    p.add_argument("--m", required=True)
    p.set_defaults(handler=_cmd_check)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        payload, code = args.handler(args)
    except INTERNAL_ERRORS as exc:
        sys.stderr.write(_canon({"error": {"type": type(exc).__name__, "message": str(exc)}}))
        return 3
    except MatroidKitError as exc:
        sys.stderr.write(_canon({"error": {"type": type(exc).__name__, "message": str(exc)}}))
        return 2
    sys.stdout.write(_canon(payload))
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
