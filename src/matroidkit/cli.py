"""Command-line interface: one binary, JSON in, verified JSON out.

Exit codes: 0 verified success, 1 verified negative verdict (for
example a deficiency certificate), 2 input errors, 3 internal assertion
failures.  Identical inputs and flags produce byte-identical output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from .core import (
    CertificateInvalid,
    ElementSet,
    ExtensionFailed,
    GroundSet,
    InvalidDocument,
    Matroid,
    MatroidKitError,
    PostconditionFailed,
    RelabelMatroid,
    Stuck,
    axiom_check,
    bit_indices,
    matroid_from_json,
    matroid_to_json,
)
from .intersect import Trace, solve, verify_certificate
from .oracle import (
    CorpusSpec,
    brute_largest_wave,
    brute_max_common,
    brute_minmax,
    fuzz_corpus,
)
from .orient import DemandGraph, build_instance, orient_solve, verify_outcome
from .packcov import MatroidFamily, lift_family, packcov_solve, verify_packcov
from .waves import PairContext, check_cond_plus, largest_wave

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
    m_doc = _load(args.m)
    n_doc = _load(args.n)
    m = matroid_from_json(m_doc)
    n = matroid_from_json(n_doc)
    return m, n, {"m": _digest(m_doc), "n": _digest(n_doc)}


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
    if not verify_certificate(m, n, cert):
        raise CertificateInvalid("certificate failed raw verification")
    verification = {"verified": True, "certificate_valid": True}
    if args.trace:
        Path(args.trace).write_text(_canon(trace.as_dict()))
    return (
        _result("intersect", digests, output, verification, trace.as_dict() | {"events": len(trace.events)}),
        0,
    )


def _cmd_wave(args) -> tuple[dict, int]:
    m, n, digests = _pair_from_args(args)
    ctx = PairContext(m, n)
    wave = largest_wave(ctx)
    loops = m.loops()
    cond_plus = not (wave.W.mask & ~loops.mask) and n.onto(wave.W).rank() == 0
    output = {
        "W": _labels(wave.W),
        "witness": _labels(wave.witness),
        "cond_plus": cond_plus,
    }
    verification = {
        "verified": True,
        "cond_plus_recheck": check_cond_plus(ctx) == cond_plus,
    }
    return _result("wave", digests, output, verification, {}), 0


def _cmd_packcov(args) -> tuple[dict, int]:
    doc = _load(args.family)
    try:
        universe = tuple(doc["universe"])
        member_docs = doc["members"]
    except (KeyError, TypeError) as exc:
        raise InvalidDocument(f"family document needs universe and members: {exc}")
    if not isinstance(member_docs, list):
        raise InvalidDocument("family members must be a JSON list")
    ground = GroundSet(universe)
    members = []
    for mdoc in member_docs:
        member = matroid_from_json(mdoc)
        if sorted(member.ground.labels) != sorted(universe):
            raise InvalidDocument("family member universe differs from shared universe")
        if member.ground.labels != universe:
            mapping = {
                i: ground.index(member.ground.label(i))
                for i in bit_indices(member.universe_mask)
            }
            member = RelabelMatroid(ground, member, mapping)
        members.append(member)
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
    if not verify_packcov(fam, res):
        raise CertificateInvalid("packing/covering failed raw verification")
    verification = {"verified": True, "packcov_valid": True}
    return _result("packcov", {"family": _digest(doc)}, output, verification, trace.as_dict() | {"events": len(trace.events)}), 0


def _cmd_orient(args) -> tuple[dict, int]:
    g_doc = _load(args.graph)
    o_doc = _load(args.demands)
    try:
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
    if not verify_outcome(graph, out):
        raise CertificateInvalid("orientation outcome failed verification")
    verification = {"verified": True, "outcome_valid": True}
    payload = _result(
        "orient",
        {"graph": _digest(g_doc), "demands": _digest(o_doc)},
        output,
        verification,
        trace.as_dict() | {"events": len(trace.events)},
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
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    for inst in corpus.pairs:
        doc = {
            "m": matroid_to_json(inst.M),
            "n": matroid_to_json(inst.N),
            "splits": [{"e1": _labels(e1)} for _e0, e1 in inst.splits],
        }
        (outdir / f"{inst.name}.json").write_text(_canon(doc))
    for inst in corpus.families:
        doc = {
            "universe": list(inst.family.ground.labels),
            "members": [matroid_to_json(m) for m in inst.family.members],
        }
        (outdir / f"{inst.name}.json").write_text(_canon(doc))
    for inst in corpus.graphs:
        doc = {
            "vertices": list(inst.graph.vertices),
            "edges": [list(e) for e in inst.graph.edges],
            "demands": dict(inst.graph.demands),
        }
        (outdir / f"{inst.name}.json").write_text(_canon(doc))
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
    (outdir / "manifest.json").write_text(_canon(manifest))
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
