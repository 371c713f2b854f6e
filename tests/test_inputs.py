"""Edge lists and label files rejected alike at every entry point."""

from __future__ import annotations

import json

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
