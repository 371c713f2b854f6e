"""The command-line surface: schemas, exit codes, determinism."""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from matroidkit import intersect, orient, packcov
from matroidkit import core as C
from matroidkit.cli import main
from matroidkit.classic import Trace
from matroidkit.core import bit_indices
from matroidkit.orient import DemandGraph, orient_solve
from matroidkit.packcov import MatroidFamily, lift_family, packcov_solve

UNIFORM = {"kind": "uniform", "n": 4, "r": 2, "labels": ["a", "b", "c", "d"]}
PARTITION = {
    "kind": "partition",
    "blocks": [
        {"elements": ["a", "b"], "cap": 1},
        {"elements": ["c", "d"], "cap": 1},
    ],
}


@pytest.fixture()
def files(tmp_path):
    def write(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    return tmp_path, write


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_intersect_classic(files, capsys):
    tmp, write = files
    m = write("m.json", UNIFORM)
    n = write("n.json", PARTITION)
    trace_path = tmp / "trace.json"
    code, out, err = run(capsys, ["intersect", "--m", m, "--n", n, "--trace", str(trace_path)])
    assert code == 0 and not err
    payload = json.loads(out)
    assert payload["output"]["certificate"]["size"] == 2
    assert payload["verification"]["certificate_valid"] is True
    # one phase takes both single-element paths, a second finds none
    assert payload["telemetry"]["phases"] == 2
    trace = json.loads(trace_path.read_text())
    assert trace["phases"] == 2 and trace["augmentations"] == 2
    assert [(ev["kind"], ev["phase"], len(ev["path"])) for ev in trace["events"]] == [
        ("classic-augment", 1, 1),
        ("classic-augment", 1, 1),
    ]


def test_intersect_mixed_with_split_and_trace(files, capsys):
    tmp, write = files
    m = write("m.json", UNIFORM)
    n = write("n.json", PARTITION)
    e1 = write("e1.json", ["a", "b"])
    trace_path = tmp / "trace.json"
    code, out, _ = run(
        capsys,
        [
            "intersect",
            "--m",
            m,
            "--n",
            n,
            "--solver",
            "mixed",
            "--e1",
            e1,
            "--trace",
            str(trace_path),
        ],
    )
    assert code == 0
    assert json.loads(out)["output"]["certificate"]["size"] == 2
    trace = json.loads(trace_path.read_text())
    assert set(trace) == {"augmentations", "extensions", "phases", "wave_runs", "events"}
    # the mixed loop's wave and tail runs are untraced: no classic phase is counted
    assert trace["phases"] == 0
    # the wave runs are counted apart: the solver's wave and its check,
    # then the extension's wave and its postcondition in every round
    runs = trace["wave_runs"]
    assert set(runs) == {"cold", "warm", "resumed", "reused", "phases"}
    kinds = runs["cold"] + runs["warm"] + runs["resumed"] + runs["reused"]
    assert kinds == 2 * trace["extensions"] + 2
    assert runs["phases"] >= runs["cold"] + runs["warm"]


def test_output_is_byte_identical(files, capsys):
    tmp, write = files
    m = write("m.json", UNIFORM)
    n = write("n.json", PARTITION)
    _, out1, _ = run(capsys, ["intersect", "--m", m, "--n", n])
    _, out2, _ = run(capsys, ["intersect", "--m", m, "--n", n])
    assert out1 == out2


# sha256 of the stdout (and of the --trace file) of each run on the pinned
# pair, family and demand graphs below; a change to a solver that keeps its
# answers keeps these bytes
PINNED_CLI = {
    "classic": (
        "18be3de23cf3194f75204a64badf66276aca04b65cbdc3b19d8b4d1da26cb106",
        "537c273613e75f0f2ba6e40fd5d7e0869599b1594cc8a97af6f6e93b3ccc095a",
    ),
    "mixed": (
        "168791151188e85b84079e9fee1c903aac28043ebf5c48b23b7d33c657a7f289",
        "facfca75df4acc6a6ff988565fa4f77bdaf863ad44811bddc0f222fbf65535c8",
    ),
    "mixed-e1": (
        "4187610e2dfe457caa1cce7fb7f306e1945bc3957f3a14fa84b51270878c8595",
        "8da25f51015742bd4f0b050d5a371049d70ccbfbb01a6bc4bf4b3369f977304b",
    ),
    "wave": ("3763a3b3424c822134956f4190c3178c68a441015f466b31684ef9ad3ef48ae4", None),
    "packcov": ("9bdec8cb397f95110de334535401418debbe0d9ff471b7477e7a70179dbe12f5", None),
    "packcov-mixed-e1": ("922ec3ace9151613b93655f1cc3fa3c0adbccafa1fcc7920e234c8fa94bf471f", None),
    "orient-above": ("eed71146884ee32a72890e6ec900a463bed833b7d0a9118ff6198a788a610a1e", None),
    "orient-deficient": ("734a905640119e2933c645d8eb52bcdc9f0b5023b3c69a5f8c188b49f5d96928", None),
}


def pinned_cli_pair():
    """A graphic M on 24 vertices and 48 random edges, and a partition N of
    consecutive blocks of 2-4 elements capped at 1, on one ground order; both
    solvers augment along paths of three elements."""
    rng = random.Random(3)
    vs = [f"v{i}" for i in range(24)]
    m = C.graphic(vs, [(*rng.sample(vs, 2), f"e{i}") for i in range(48)])
    blocks, e = [], 0
    while e < 48:
        take = min(48 - e, rng.randint(2, 4))
        blocks.append(([f"e{i}" for i in range(e, e + take)], 1))
        e += take
    return m, C.partition(blocks)


def pinned_cli_family():
    """Three graphic members on 4 vertices and 8 random edges each, lifted to 24
    elements; the classic lifted run augments along a path of five elements,
    and the mixed one with E1 = the copies of e0 along one of seven."""
    rng = random.Random(29)
    vs = [f"v{i}" for i in range(4)]
    members = [C.graphic(vs, [(*rng.sample(vs, 2), f"e{i}") for i in range(8)]) for _ in range(3)]
    return MatroidFamily(members[0].ground, tuple(members))


def pinned_cli_graph(seed):
    """6 vertices and 9 random edges with demands drawn up to each degree;
    seed 2 meets the demands, seed 3 is deficient, and on both the classic
    run augments along a path of more than one arc."""
    rng = random.Random(seed)
    vs = [f"v{i}" for i in range(6)]
    edges = [(*rng.sample(vs, 2), f"e{i}") for i in range(9)]
    bare = DemandGraph.build(vs, edges, {})
    return DemandGraph.build(vs, edges, {v: rng.randint(0, bare.degree(v)) for v in vs})


def longest_path(trace, kind):
    return max(len(ev["path"]) for ev in trace.events if ev["kind"] == kind)


def test_cli_bytes_are_pinned(files, capsys):
    tmp, write = files
    m, n = pinned_cli_pair()
    assert n.ground.labels == m.ground.labels
    mfile = write("m.json", C.matroid_to_json(m))
    nfile = write("n.json", C.matroid_to_json(n))
    e1 = [m.ground.label(e) for bmask, _cap in n.blocks[::2] for e in bit_indices(bmask)]
    e1file = write("e1.json", e1)
    base = ["--m", mfile, "--n", nfile]
    fam = pinned_cli_family()
    famfile = write("fam.json", {
        "universe": list(fam.ground.labels),
        "members": [C.matroid_to_json(member) for member in fam.members],
    })
    copies_of_e0 = ["e0@0", "e0@1", "e0@2"]  # one block of the lifted N
    block = write("block.json", copies_of_e0)
    graphs = {"above": pinned_cli_graph(2), "deficient": pinned_cli_graph(3)}
    orient_argvs = {}
    for verdict, g in graphs.items():
        gfile = write(f"{verdict}.json", {"vertices": list(g.vertices), "edges": [list(e) for e in g.edges]})
        ofile = write(f"{verdict}-demands.json", dict(g.demands))
        orient_argvs[f"orient-{verdict}"] = ["orient", "--graph", gfile, "--demands", ofile]
    argvs = {
        "classic": ["intersect", *base],
        "mixed": ["intersect", *base, "--solver", "mixed"],
        "mixed-e1": ["intersect", *base, "--solver", "mixed", "--e1", e1file],
        "wave": ["wave", *base],
        "packcov": ["packcov", "--family", famfile],
        "packcov-mixed-e1": ["packcov", "--family", famfile, "--solver", "mixed", "--e1", block],
        **orient_argvs,
    }
    digests = {}
    for name, argv in argvs.items():
        trace_path = tmp / f"{name}.trace.json"
        if argv[0] == "intersect":
            argv = [*argv, "--trace", str(trace_path)]
        code, out, err = run(capsys, argv)
        assert code == (name == "orient-deficient") and not err, name
        trace = trace_path.read_bytes() if argv[0] == "intersect" else None
        digests[name] = (
            hashlib.sha256(out.encode()).hexdigest(),
            None if trace is None else hashlib.sha256(trace).hexdigest(),
        )
    for name in ("classic", "mixed"):
        trace = json.loads((tmp / f"{name}.trace.json").read_text())
        assert max(len(ev.get("path", ())) for ev in trace["events"]) > 1, name
    # the packcov and orient subcommands print no events, so their paths are
    # read from the same solves run in-process
    trace = Trace()
    packcov_solve(fam, trace=trace)
    assert longest_path(trace, "classic-augment") > 1
    trace = Trace()
    packcov_solve(fam, "mixed", lift_family(fam).ground.subset(copies_of_e0), trace)
    assert longest_path(trace, "augment") > 1
    for verdict, g in graphs.items():
        trace = Trace()
        assert orient_solve(g, trace=trace).verdict == verdict
        assert longest_path(trace, "classic-augment") > 1, verdict
    assert digests == PINNED_CLI


def test_wave_subcommand(files, capsys):
    tmp, write = files
    m = write("m.json", UNIFORM)
    n = write("n.json", PARTITION)
    code, out, _ = run(capsys, ["wave", "--m", m, "--n", n])
    assert code == 0
    payload = json.loads(out)
    assert set(payload["output"]) == {"W", "witness", "cond_plus"}
    assert payload["verification"] == {"verified": True}


def test_packcov_subcommand(files, capsys):
    tmp, write = files
    fam = write(
        "fam.json",
        {
            "universe": ["a", "b", "c"],
            "members": [
                {"kind": "uniform", "n": 3, "r": 1, "labels": ["a", "b", "c"]},
                {"kind": "uniform", "n": 3, "r": 2, "labels": ["a", "b", "c"]},
            ],
        },
    )
    code, out, _ = run(capsys, ["packcov", "--family", fam])
    assert code == 0
    payload = json.loads(out)
    assert payload["verification"]["packcov_valid"] is True
    assert sorted(payload["output"]["E_p"] + payload["output"]["E_c"]) == ["a", "b", "c"]


def test_orient_feasible_and_deficient(files, capsys):
    tmp, write = files
    graph = write(
        "g.json",
        {
            "vertices": ["a", "b", "c"],
            "edges": [["a", "b", "e0"], ["b", "c", "e1"], ["c", "a", "e2"]],
        },
    )
    demands = write("o.json", {"a": 1, "b": 1, "c": 1})
    code, out, _ = run(capsys, ["orient", "--graph", graph, "--demands", demands])
    assert code == 0
    assert json.loads(out)["output"]["verdict"] == "above"

    graph2 = write(
        "g2.json",
        {"vertices": ["a", "b", "c"], "edges": [["a", "b", "e0"], ["b", "c", "e1"]]},
    )
    code, out, _ = run(capsys, ["orient", "--graph", graph2, "--demands", demands])
    assert code == 1
    payload = json.loads(out)
    assert payload["output"]["verdict"] == "deficient"
    assert payload["output"]["counting_check"] is True
    assert payload["output"]["v_prime"]


def test_brute_subcommand(files, capsys):
    tmp, write = files
    m = write("m.json", UNIFORM)
    n = write("n.json", PARTITION)
    code, out, _ = run(capsys, ["brute", "--m", m, "--n", n, "--wave"])
    assert code == 0
    payload = json.loads(out)
    assert payload["output"]["max_common"] == payload["output"]["minmax"] == 2
    assert "largest_wave" in payload["output"]


def test_check_subcommand(files, capsys):
    tmp, write = files
    good = write("good.json", PARTITION)
    code, out, _ = run(capsys, ["check", "--m", good])
    assert code == 0 and json.loads(out)["output"]["ok"] is True
    bad = write(
        "bad.json",
        {
            "kind": "explicit",
            "universe": ["a", "b", "c", "d"],
            "bases": [["a", "b"], ["c", "d"]],
        },
    )
    code, out, _ = run(capsys, ["check", "--m", bad])
    assert code == 1 and json.loads(out)["output"]["ok"] is False


def test_explicit_maximal_sets_of_different_sizes_exit_2(files, capsys):
    # maximal sets {a} and {b, c} differ in size, so no matroid has them
    tmp, write = files
    doc = {"kind": "explicit", "universe": ["a", "b", "c"], "bases": [["a"], ["b", "c"]]}
    bad = write("bad.json", doc)
    free = write("free.json", {"kind": "uniform", "n": 3, "r": 3, "labels": ["a", "b", "c"]})
    fam = write("fam.json", {"universe": ["a", "b", "c"], "members": [doc]})
    for argv in (
        ["intersect", "--m", bad, "--n", free],
        ["intersect", "--m", free, "--n", bad, "--solver", "mixed"],
        ["wave", "--m", bad, "--n", free],
        ["brute", "--m", bad, "--n", free],
        ["packcov", "--family", fam],
        ["check", "--m", bad],
    ):
        code, out, err = run(capsys, argv)
        assert code == 2 and not out, argv
        assert "differ in size" in json.loads(err)["error"]["message"], argv


def test_input_errors_exit_2(files, capsys):
    tmp, write = files
    broken = tmp / "broken.json"
    broken.write_text("{not json")
    m = write("m.json", UNIFORM)
    code, out, err = run(capsys, ["intersect", "--m", str(broken), "--n", m])
    assert code == 2 and not out
    assert json.loads(err)["error"]["type"] == "InvalidDocument"

    unknown = write("unknown.json", {"kind": "nope"})
    code, _, err = run(capsys, ["check", "--m", unknown])
    assert code == 2

    code, _, err = run(capsys, ["check", "--m", str(tmp / "missing.json")])
    assert code == 2

    # mismatched universes are an input error, not a crash
    other = write("other.json", {"kind": "uniform", "n": 2, "r": 1})
    code, _, err = run(capsys, ["intersect", "--m", m, "--n", other])
    assert code == 2
    assert json.loads(err)["error"]["type"] == "UniverseMismatch"

    # malformed demand and family documents are input errors, not crashes
    # and not silently accepted
    graph = write("g.json", {"vertices": ["a", "b"], "edges": [["a", "b", "e0"]]})
    for demands in ({"a": 1, "zz": 2}, {"a": "x"}, [1, 2], {"a": 1.7}, {"a": True}):
        o = write("o.json", demands)
        code, out, err = run(capsys, ["orient", "--graph", graph, "--demands", o])
        assert code == 2 and not out, demands
        assert json.loads(err)["error"]["type"] == "MatroidKitError", demands
    o = write("o.json", {"a": 1})
    for edges in ([["a"]], [["a", "b", "e0", "x"]]):
        bad = write("bad.json", {"vertices": ["a", "b"], "edges": edges})
        code, out, err = run(capsys, ["orient", "--graph", bad, "--demands", o])
        assert code == 2 and not out, edges
        assert "two endpoints" in json.loads(err)["error"]["message"], edges
    for doc, message in (
        ({"universe": ["a", "b"], "members": 5}, "must be a JSON list"),
        ({"universe": ["a", "b"]}, "needs universe and members"),
        ({"members": []}, "needs universe and members"),
    ):
        fam = write("fam.json", doc)
        code, out, err = run(capsys, ["packcov", "--family", fam])
        assert code == 2 and not out, doc
        error = json.loads(err)["error"]
        assert error["type"] == "InvalidDocument" and message in error["message"], doc


def test_graphic_with_repeated_vertex_name_exits_2(files, capsys):
    # a repeated name would bind every edge at "u" to its last index
    _tmp, write = files
    doc = {"kind": "graphic", "vertices": ["u", "u", "v"], "edges": [["u", "v", "a"], ["u", "v", "b"]]}
    code, out, err = run(capsys, ["check", "--m", write("g.json", doc)])
    assert code == 2 and not out
    assert json.loads(err)["error"]["message"].endswith("vertex names must be distinct")


def test_e1_without_mixed_solver_exits_2(files, capsys):
    tmp, write = files
    m = write("m.json", UNIFORM)
    n = write("n.json", PARTITION)
    member = {"kind": "uniform", "n": 2, "r": 1, "labels": ["a", "b"]}
    fam = write("fam.json", {"universe": ["a", "b"], "members": [member]})
    graph = write("g.json", {"vertices": ["a", "b"], "edges": [["a", "b", "e0"]]})
    demands = write("o.json", {"a": 1})
    missing = str(tmp / "missing.json")
    for argv in (
        ["intersect", "--m", m, "--n", n],
        ["intersect", "--m", m, "--n", n, "--solver", "classic"],
        ["packcov", "--family", fam],
        ["orient", "--graph", graph, "--demands", demands],
    ):
        code, out, err = run(capsys, argv + ["--e1", missing])
        assert code == 2 and not out, argv
        assert "--e1 needs --solver mixed" in json.loads(err)["error"]["message"]

    # with the mixed solver the same flag is read on the solved ground set
    mixed = ["orient", "--graph", graph, "--demands", demands, "--solver", "mixed"]
    code, out, _ = run(capsys, mixed + ["--e1", write("e1.json", ["e0>", "e0<"])])
    assert code == 0 and json.loads(out)["output"]["verdict"] == "above"
    code, _, err = run(capsys, mixed + ["--e1", missing])
    assert code == 2 and json.loads(err)["error"]["type"] == "InvalidDocument"


def test_malformed_exhaustive_bound_exits_2(files, capsys, monkeypatch):
    tmp, write = files
    good = write("good.json", PARTITION)
    monkeypatch.setenv("MATROIDKIT_MAX_EXHAUSTIVE", "abc")
    code, out, err = run(capsys, ["check", "--m", good])
    assert code == 2 and not out
    assert "MATROIDKIT_MAX_EXHAUSTIVE" in json.loads(err)["error"]["message"]


def test_internal_failures_exit_3(files, capsys, monkeypatch):
    # each solving subcommand prints only what the library call verified:
    # a rejecting verifier, the one that solver calls, turns into exit 3
    tmp, write = files
    m = write("m.json", UNIFORM)
    n = write("n.json", PARTITION)
    fam = write("fam.json", {"universe": ["a", "b", "c", "d"], "members": [UNIFORM, PARTITION]})
    graph = write("g.json", {"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"], ["c", "a"]]})
    demands = write("o.json", {"a": 1, "b": 1, "c": 1})
    for module, verifier, argv, error in (
        (intersect, "verify_certificate", ["intersect", "--m", m, "--n", n], "PostconditionFailed"),
        (intersect, "verify_certificate", ["intersect", "--m", m, "--n", n, "--solver", "mixed"], "PostconditionFailed"),
        (packcov, "verify_packcov", ["packcov", "--family", fam], "PostconditionFailed"),
        (orient, "verify_outcome", ["orient", "--graph", graph, "--demands", demands], "CertificateInvalid"),
    ):
        with monkeypatch.context() as patch:
            patch.setattr(module, verifier, lambda *a, **k: False)
            code, out, err = run(capsys, argv)
        assert code == 3 and not out, argv
        assert json.loads(err)["error"]["type"] == error, argv


def test_broken_extension_state_exits_3(files, capsys, monkeypatch):
    # a common base, or an augmented set, that is the whole universe leaves
    # a state set that is not common independent: the solver's bug, not the
    # input's
    tmp, write = files
    m = write("m.json", {"kind": "uniform", "n": 4, "r": 4, "labels": ["a", "b", "c", "d"]})
    n = write("n.json", UNIFORM)
    for name, broken, step in (
        ("common_base_B", lambda pair, _w: C.ElementSet(pair.ground, pair.M.universe_mask), "extended"),
        ("_augmented", lambda m, n, imask, path, e0: m.universe_mask, "augmented"),
    ):
        with monkeypatch.context() as patch:
            patch.setattr(intersect, name, broken)
            code, out, err = run(capsys, ["intersect", "--m", m, "--n", n, "--solver", "mixed"])
        assert code == 3 and not out
        error = json.loads(err)["error"]
        assert error["type"] == "PostconditionFailed"
        assert error["message"] == f"{step} state invalid: state set is not common independent"


def test_removed_options_exit_2(files, capsys):
    # every answer is verified, and only MATROIDKIT_MAX_EXHAUSTIVE moves
    # the enumeration bounds, so neither flag parses any more
    tmp, write = files
    m = write("m.json", UNIFORM)
    n = write("n.json", PARTITION)
    for argv in (
        ["intersect", "--m", m, "--n", n, "--no-verify"],
        ["check", "--m", m, "--bound", "3"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert not capsys.readouterr().out, argv


def test_fuzz_writes_round_trippable_corpus(files, capsys):
    tmp, write = files
    outdir = tmp / "corpus"
    code, out, _ = run(
        capsys,
        ["fuzz", "--seed", "11", "--pairs", "4", "--families", "2", "--graphs", "2", "--out", str(outdir)],
    )
    assert code == 0
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["seed"] == 11
    assert manifest["counts"] == {"pairs": 4, "families": 2, "graphs": 2}
    from matroidkit.core import matroid_from_json, matroid_to_json

    for path in sorted(outdir.glob("pair*.json")):
        doc = json.loads(path.read_text())
        for side in ("m", "n"):
            emitted = matroid_to_json(matroid_from_json(doc[side]))
            again = matroid_to_json(matroid_from_json(emitted))
            assert emitted == again


def assert_write_fails(capsys, argv, path):
    """A write that fails is an input error: exit 2, nothing on stdout."""
    code, out, err = run(capsys, argv)
    assert code == 2 and not out, argv
    error = json.loads(err)["error"]
    assert error["type"] == "InvalidDocument", argv
    assert error["message"].startswith(f"cannot write {path}: "), argv


def test_trace_into_a_missing_directory_exits_2(files, capsys):
    tmp, write = files
    m, n = write("m.json", UNIFORM), write("n.json", PARTITION)
    path = str(tmp / "nodir" / "t.json")
    assert_write_fails(capsys, ["intersect", "--m", m, "--n", n, "--trace", path], path)


def test_trace_under_a_file_exits_2(files, capsys):
    tmp, write = files
    m, n = write("m.json", UNIFORM), write("n.json", PARTITION)
    path = str(tmp / "m.json" / "t.json")
    assert_write_fails(capsys, ["intersect", "--m", m, "--n", n, "--trace", path], path)


def test_fuzz_out_onto_a_file_exits_2(files, capsys):
    tmp, write = files
    afile = write("afile", {})
    argv = ["fuzz", "--pairs", "1", "--families", "0", "--graphs", "0", "--out", afile]
    assert_write_fails(capsys, argv, afile)
    assert json.loads((tmp / "afile").read_text()) == {}


def test_pair_members_may_list_their_labels_in_any_order(files, capsys):
    # a partition's document lists its labels block by block, here b before
    # a; N is read onto M's order, so a stays the loop of N in every answer
    _tmp, write = files
    m = write("m.json", {"kind": "uniform", "n": 2, "r": 1, "labels": ["a", "b"]})
    n = write(
        "n.json",
        {"kind": "partition", "blocks": [{"elements": ["b"], "cap": 1}, {"elements": ["a"], "cap": 0}]},
    )
    for first, second in ((m, n), (n, m)):
        pair = ["--m", first, "--n", second]
        code, out, _ = run(capsys, ["brute", *pair, "--wave"])
        assert code == 0
        brute = json.loads(out)["output"]
        assert brute["max_common"] == 1 and brute["witness"] == ["b"]
        for solver in ("classic", "mixed"):
            code, out, _ = run(capsys, ["intersect", *pair, "--solver", solver])
            assert code == 0
            assert json.loads(out)["output"]["certificate"]["I"] == ["b"], solver
        code, out, _ = run(capsys, ["wave", *pair])
        assert code == 0
        assert json.loads(out)["output"]["W"] == brute["largest_wave"]


def test_pair_members_with_different_labels_exit_2(files, capsys):
    # the brute scan once paired elements by index and answered such a pair
    _tmp, write = files
    m = write("m.json", {"kind": "uniform", "n": 3, "r": 2, "labels": ["a", "b", "c"]})
    n = write("n.json", {"kind": "uniform", "n": 2, "r": 1})
    for subcommand in ("brute", "intersect", "wave"):
        code, out, err = run(capsys, [subcommand, "--m", m, "--n", n])
        assert code == 2 and not out, subcommand
        error = json.loads(err)["error"]
        assert error == {"type": "UniverseMismatch", "message": "pair members list different element labels"}


def test_every_fuzzed_pair_document_answers_alike_through_each_subcommand(files, capsys):
    tmp, write = files
    outdir = tmp / "corpus"
    code, _, _ = run(capsys, ["fuzz", "--pairs", "30", "--families", "0", "--graphs", "0", "--out", str(outdir)])
    assert code == 0
    reordered = 0
    for path in sorted(outdir.glob("pair*.json")):
        doc = json.loads(path.read_text())
        reordered += (
            C.matroid_from_json(doc["m"]).ground.labels != C.matroid_from_json(doc["n"]).ground.labels
        )
        pair = ["--m", write("m.json", doc["m"]), "--n", write("n.json", doc["n"])]
        code, out, _ = run(capsys, ["brute", *pair, "--wave"])
        assert code == 0, path.name
        brute = json.loads(out)["output"]
        code, out, _ = run(capsys, ["intersect", *pair])
        assert code == 0, path.name
        assert json.loads(out)["output"]["certificate"]["size"] == brute["max_common"], path.name
        code, out, _ = run(capsys, ["wave", *pair])
        assert code == 0, path.name
        assert sorted(json.loads(out)["output"]["W"]) == sorted(brute["largest_wave"]), path.name
    assert reordered >= 10


def test_over_deep_documents_exit_2(files, capsys):
    # a document nested deeper than Python's recursion limit is an input
    # error, not a RecursionError traceback with exit 1
    tmp, _write = files
    depth = 100_000
    text = '{"kind": "dual", "of": ' * depth + json.dumps(UNIFORM) + "}" * depth
    deep = tmp / "deep.json"
    deep.write_text(text)
    fam = tmp / "fam.json"
    fam.write_text('{"universe": ["a", "b", "c", "d"], "members": [' + text + "]}")
    for argv in (
        ["intersect", "--m", str(deep), "--n", str(deep)],
        ["check", "--m", str(deep)],
        ["packcov", "--family", str(fam)],
    ):
        code, out, err = run(capsys, argv)
        assert code == 2 and not out, argv
        error = json.loads(err)["error"]
        assert error["type"] == "InvalidDocument" and "nests too deeply" in error["message"], argv


def test_impossible_fuzz_sizes_exit_2(files, capsys):
    tmp, _write = files
    outdir = tmp / "corpus"
    for option, value, message in (
        ("--max-elements", "1", "max_elements must be at least 2, not 1"),
        ("--max-elements", "0", "max_elements must be at least 2, not 0"),
        ("--pairs", "-3", "pairs must be at least 0, not -3"),
        ("--families", "-1", "families must be at least 0, not -1"),
        ("--graphs", "-1", "graphs must be at least 0, not -1"),
    ):
        code, out, err = run(capsys, ["fuzz", option, value, "--out", str(outdir)])
        assert code == 2 and not out, option
        assert json.loads(err)["error"] == {"type": "MatroidKitError", "message": message}
    assert not outdir.exists()
