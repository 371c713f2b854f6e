"""The command-line surface: schemas, exit codes, determinism."""

from __future__ import annotations

import json

import pytest

from matroidkit import cli
from matroidkit.cli import main

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
    code, out, err = run(capsys, ["intersect", "--m", m, "--n", n])
    assert code == 0 and not err
    payload = json.loads(out)
    assert payload["output"]["certificate"]["size"] == 2
    assert payload["verification"]["certificate_valid"] is True


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
    assert set(trace) == {"augmentations", "extensions", "events"}


def test_output_is_byte_identical(files, capsys):
    tmp, write = files
    m = write("m.json", UNIFORM)
    n = write("n.json", PARTITION)
    _, out1, _ = run(capsys, ["intersect", "--m", m, "--n", n])
    _, out2, _ = run(capsys, ["intersect", "--m", m, "--n", n])
    assert out1 == out2


def test_wave_subcommand(files, capsys):
    tmp, write = files
    m = write("m.json", UNIFORM)
    n = write("n.json", PARTITION)
    code, out, _ = run(capsys, ["wave", "--m", m, "--n", n])
    assert code == 0
    payload = json.loads(out)
    assert set(payload["output"]) == {"W", "witness", "cond_plus"}
    assert payload["verification"]["cond_plus_recheck"] is True


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
    fam = write("fam.json", {"universe": ["a", "b"], "members": 5})
    code, out, err = run(capsys, ["packcov", "--family", fam])
    assert code == 2 and not out
    assert json.loads(err)["error"]["type"] == "InvalidDocument"


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
    tmp, write = files
    m = write("m.json", UNIFORM)
    n = write("n.json", PARTITION)
    monkeypatch.setattr(cli, "verify_certificate", lambda *a, **k: False)
    code, out, err = run(capsys, ["intersect", "--m", m, "--n", n])
    assert code == 3 and not out
    assert json.loads(err)["error"]["type"] == "CertificateInvalid"


def test_removed_options_exit_2(files, capsys):
    # every subcommand re-verifies, and only MATROIDKIT_MAX_EXHAUSTIVE moves
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
