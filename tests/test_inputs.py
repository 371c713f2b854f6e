"""Edge lists and label files rejected alike at every entry point."""

from __future__ import annotations

import json
import sys

import pytest

from matroidkit import core as C
from matroidkit.cli import main
from matroidkit.orient import DemandGraph

UNIFORM = {"kind": "uniform", "n": 2, "r": 1, "labels": ["a", "b"]}


@pytest.mark.parametrize(
    "vertices, edges, message",
    [
        (["a", "b"], [["a"]], "edge needs two endpoints and an optional label: ['a']"),
        (["a", "b"], [["a", "b", "x", "y"]], "edge needs two endpoints and an optional label: ['a', 'b', 'x', 'y']"),
        (["a", "b"], [5], "edge needs two endpoints and an optional label: 5"),
        (["a", "b"], [{"a": 1, "b": 2}], "edge needs two endpoints and an optional label: {'a': 1, 'b': 2}"),
        (["a", "b"], [["a", "zz"]], "edge endpoint not among the vertices: ['a', 'zz']"),
        (["a", "a", "b"], [["a", "b"]], "vertex names must be distinct"),
        (["a", "b"], [["a", "b", 1], ["a", "b", "1"]], "duplicate edge label '1'"),
        (["a", "b"], [["a", "b", "x"], ["a", "a", "x"]], "duplicate edge label 'x'"),
    ],
    ids=[
        "too-few-items", "too-many-items", "not-a-sequence", "mapping", "unknown-endpoint", "repeated-vertex",
        "labels-equal-as-strings", "self-loop-repeats-a-label",
    ],
)
def test_edge_list_rejected_alike_at_every_entry_point(tmp_path, capsys, vertices, edges, message):
    with pytest.raises(C.MatroidKitError) as exc:
        C.graphic(vertices, edges)
    assert str(exc.value) == message
    with pytest.raises(C.MatroidKitError) as exc:
        DemandGraph.build(vertices, edges, {})
    assert str(exc.value) == message

    def write(name, doc):
        (tmp_path / name).write_text(json.dumps(doc))
        return str(tmp_path / name)

    graph = {"vertices": vertices, "edges": edges}
    routes = (
        ["check", "--m", write("m.json", {"kind": "graphic", **graph})],
        ["orient", "--graph", write("g.json", graph), "--demands", write("o.json", {})],
    )
    for argv in routes:
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and not captured.out, argv
        assert json.loads(captured.err)["error"]["message"].endswith(message), argv


def test_string_edge_is_its_two_endpoints():
    # a string is a sequence: "ab" joins a and b
    m = C.graphic(["a", "b"], ["ab", ["a", "b", "x"]])
    assert m.ground.labels == ("e0", "x") and m.endpoints == ((0, 1), (0, 1))
    g = DemandGraph.build(["a", "b"], ["ab"], {"a": 1})
    assert g.edges == (("a", "b", "e0"),)


def test_e1_file_that_is_not_a_list_exits_2(tmp_path, capsys):
    for name, doc in (("m.json", UNIFORM), ("e1.json", {"a": 1})):
        (tmp_path / name).write_text(json.dumps(doc))
    m = str(tmp_path / "m.json")
    code = main(["intersect", "--m", m, "--n", m, "--solver", "mixed", "--e1", str(tmp_path / "e1.json")])
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    assert json.loads(captured.err)["error"] == {
        "type": "InvalidDocument",
        "message": "expected a JSON list of element labels",
    }


UNIFORM_OF_TWO = {"kind": "uniform", "n": 2, "r": 1}


@pytest.mark.parametrize(
    "doc, field",
    [
        ({"kind": "uniform", "n": 3, "r": 1, "labels": "abc"}, "labels"),
        ({"kind": "graphic", "vertices": "uv", "edges": [["u", "v"]]}, "vertices"),
        ({"kind": "partition", "blocks": [{"elements": "ab", "cap": 1}]}, "elements"),
        ({"kind": "explicit", "universe": "ab", "bases": [["a"]]}, "universe"),
        ({"kind": "explicit", "universe": ["a", "b"], "bases": "ab"}, "bases"),
        ({"kind": "explicit", "universe": ["a", "b"], "bases": ["ab"]}, "each of bases"),
        ({"kind": "restrict", "of": UNIFORM_OF_TWO, "set": "e0"}, "set"),
        ({"kind": "contract", "of": UNIFORM_OF_TWO, "set": "e0"}, "set"),
    ],
    ids=["labels", "vertices", "elements", "universe", "bases", "a-base", "restrict-set", "contract-set"],
)
def test_label_list_given_as_a_string_is_rejected(tmp_path, capsys, doc, field):
    # a JSON string is not read as a list of one-letter labels
    with pytest.raises(C.InvalidDocument) as exc:
        C.matroid_from_json(doc)
    assert str(exc.value).endswith(f": {field} must be a JSON list")
    (tmp_path / "m.json").write_text(json.dumps(doc))
    code = main(["check", "--m", str(tmp_path / "m.json")])
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    assert json.loads(captured.err)["error"]["message"].endswith(f": {field} must be a JSON list")


def test_cli_label_list_given_as_a_string_exits_2(tmp_path, capsys):
    # the family universe and the graph vertices, which the CLI reads itself
    def write(name, doc):
        (tmp_path / name).write_text(json.dumps(doc))
        return str(tmp_path / name)

    family = {"universe": "ab", "members": [UNIFORM]}
    graph = {"vertices": "ab", "edges": [["a", "b"]]}
    routes = (
        (["packcov", "--family", write("fam.json", family)], "family universe must be a JSON list"),
        (
            ["orient", "--graph", write("g.json", graph), "--demands", write("o.json", {"a": 1})],
            "graph vertices must be a JSON list",
        ),
    )
    for argv, message in routes:
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and not captured.out, argv
        assert json.loads(captured.err)["error"] == {"type": "InvalidDocument", "message": message}


@pytest.mark.parametrize(
    "doc, field, value",
    [
        ({"kind": "uniform", "n": 2, "r": 1.9}, "r", 1.9),
        ({"kind": "uniform", "n": 2.5, "r": 1}, "n", 2.5),
        ({"kind": "uniform", "n": 2, "r": True}, "r", True),
        ({"kind": "uniform", "n": "2", "r": 1}, "n", "2"),
        ({"kind": "partition", "blocks": [{"elements": ["a", "b"], "cap": "2"}]}, "cap", "2"),
        ({"kind": "partition", "blocks": [{"elements": ["a", "b"], "cap": 1.0}]}, "cap", 1.0),
        ({"kind": "dual", "of": {"kind": "uniform", "n": 3, "r": False}}, "r", False),
    ],
    ids=["float-rank", "float-size", "bool-rank", "string-size", "string-cap", "float-cap", "bool-rank-in-dual"],
)
def test_matroid_number_that_is_not_an_integer_is_rejected(tmp_path, capsys, doc, field, value):
    # n, r and cap are integers that are not bools, as demands are; int()
    # would read 1.9 as 1 and accept true and "2"
    message = f"{field} must be an integer: {value!r}"
    with pytest.raises(C.InvalidDocument) as exc:
        C.matroid_from_json(doc)
    assert str(exc.value).endswith(message)
    (tmp_path / "m.json").write_text(json.dumps(doc))
    code = main(["check", "--m", str(tmp_path / "m.json")])
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    assert json.loads(captured.err)["error"]["message"].endswith(message)


def test_family_universe_of_mixed_label_types_is_compared_as_a_set(tmp_path, capsys):
    # the labels "a" and 1 cannot be ordered; the member universe is the
    # shared one in another order, then a different one
    def packcov(member_universe):
        member = {"kind": "explicit", "universe": member_universe, "bases": [["a"]]}
        (tmp_path / "fam.json").write_text(json.dumps({"universe": ["a", 1], "members": [member]}))
        code = main(["packcov", "--family", str(tmp_path / "fam.json")])
        return code, capsys.readouterr()

    code, captured = packcov([1, "a"])
    assert code == 0 and not captured.err
    out = json.loads(captured.out)
    assert out["verification"]["packcov_valid"] and sorted(map(str, out["output"]["E_p"])) == ["1", "a"]
    code, captured = packcov([2, "a"])
    assert code == 2 and not captured.out
    assert json.loads(captured.err)["error"] == {
        "type": "InvalidDocument",
        "message": "family member universe differs from shared universe",
    }


def test_family_labels_that_print_alike_are_named_as_the_fault(tmp_path, capsys):
    # copy 0 of 1 and copy 0 of "1" would both be the product element "1@0"
    member = {"kind": "explicit", "universe": [1, "1"], "bases": [[1]]}
    (tmp_path / "fam.json").write_text(json.dumps({"universe": [1, "1"], "members": [member]}))
    code = main(["packcov", "--family", str(tmp_path / "fam.json")])
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    assert json.loads(captured.err)["error"] == {
        "type": "UniverseMismatch",
        "message": "labels 1 and '1' both lift to '1@0'",
    }


def test_vertex_names_that_cannot_be_ordered_are_named_as_the_fault(tmp_path, capsys):
    message = "vertex names must be of one orderable type: [1, 'a']"
    with pytest.raises(C.MatroidKitError) as exc:
        DemandGraph.build([1, "a"], [[1, "a"]], {})
    assert str(exc.value) == message
    (tmp_path / "g.json").write_text(json.dumps({"vertices": [1, "a"], "edges": [[1, "a"]]}))
    (tmp_path / "o.json").write_text(json.dumps({}))
    code = main(["orient", "--graph", str(tmp_path / "g.json"), "--demands", str(tmp_path / "o.json")])
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    assert json.loads(captured.err)["error"] == {"type": "MatroidKitError", "message": message}


def test_demand_key_that_is_a_vertex_name_as_a_string_says_why(tmp_path, capsys):
    # JSON object keys are strings, so the key "1" cannot name vertex 1
    message = "demand for unknown vertex '1'; demand keys are strings, and vertex 1 is not one"
    with pytest.raises(C.MatroidKitError) as exc:
        DemandGraph.build([1, 2], [[1, 2]], {"1": 1})
    assert str(exc.value) == message
    (tmp_path / "g.json").write_text(json.dumps({"vertices": [1, 2], "edges": [[1, 2]]}))
    (tmp_path / "o.json").write_text(json.dumps({"1": 1}))
    code = main(["orient", "--graph", str(tmp_path / "g.json"), "--demands", str(tmp_path / "o.json")])
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    assert json.loads(captured.err)["error"] == {"type": "MatroidKitError", "message": message}
    # a key naming a vertex, and vertices that are not strings given no
    # demand, are read as before
    assert DemandGraph.build(["1", "2"], [["1", "2"]], {"1": 1}).demands == (("1", 1), ("2", 0))
    assert DemandGraph.build([1, 2], [[1, 2]], {}).demands == ((1, 0), (2, 0))
    # the key "1" names the vertex "1", so what is wrong with ["1", 1] stays
    # their order, not the key
    with pytest.raises(C.MatroidKitError) as exc:
        DemandGraph.build(["1", 1], [["1", 1]], {"1": 1})
    assert str(exc.value) == "vertex names must be of one orderable type: ['1', 1]"


@pytest.mark.parametrize("kind", ["dual", "sum"])
def test_matroid_document_deeper_than_the_recursion_limit_is_invalid(kind):
    doc = UNIFORM
    for _ in range(sys.getrecursionlimit() + 10):
        doc = {"kind": "dual", "of": doc} if kind == "dual" else {"kind": "sum", "parts": [doc]}
    with pytest.raises(C.InvalidDocument, match="nests too deeply"):
        C.matroid_from_json(doc)
