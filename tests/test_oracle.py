"""Brute-force oracles and the deterministic corpus fuzzer."""

from __future__ import annotations

import ast
import hashlib
import json
import random
from pathlib import Path
from types import ModuleType

import pytest

import matroidkit
from matroidkit import core as C
from matroidkit.core import GroundSet, matroid_to_json
from matroidkit.oracle import (
    MAX_FAMILY,
    CorpusSpec,
    _random_binary_explicit,
    brute_components,
    brute_largest_wave,
    brute_max_common,
    brute_minmax,
    brute_orientations,
    fuzz_corpus,
    rank_table,
)
from matroidkit.orient import DemandGraph

from conftest import pairwise_bases, scan_binary_draw

PACKAGE = Path(matroidkit.__file__).parent
# modules on the polynomial solver paths, every module but the brute-force
# oracle and the entry points; none may reach subset enumeration
NON_SOLVER_MODULES = {"oracle", "cli", "__init__", "__main__"}
SOLVER_MODULES = tuple(sorted({p.stem for p in PACKAGE.glob("*.py")} - NON_SOLVER_MODULES))
ENUMERATION_NAMES = {"iter_submasks", "require_exhaustive", "ENV_MAX_EXHAUSTIVE"}

G3 = GroundSet(tuple("abc"))
G4 = GroundSet(tuple("abcd"))


def k4():
    return C.graphic(
        "pqrs",
        [
            ("p", "q", "e0"),
            ("p", "r", "e1"),
            ("p", "s", "e2"),
            ("q", "r", "e3"),
            ("q", "s", "e4"),
            ("r", "s", "e5"),
        ],
    )


def test_brute_max_common_examples():
    g0 = GroundSet(())
    assert brute_max_common(C.free(g0), C.free(g0))[0] == 0
    m = C.uniform(G4, 2)
    assert brute_max_common(m, C.free(G4))[0] == m.rank()
    assert brute_max_common(k4(), k4())[0] == 3


def test_brute_minmax_examples():
    assert brute_minmax(C.free(G4), C.free(G4)) == 4
    assert brute_minmax(C.zero(G4), C.free(G4)) == 0
    assert brute_minmax(C.zero(k4().ground), k4()) == 0


def test_witness_is_smallest_bitmask():
    m, n = C.uniform(G3, 1), C.uniform(G3, 1)
    _size, witness = brute_max_common(m, n)
    assert witness.labels() == ("a",)


def test_brute_largest_wave_examples():
    assert brute_largest_wave(C.uniform(G3, 1), C.free(G3)).mask == G3.full_mask
    assert brute_largest_wave(C.zero(G3), C.uniform(G3, 2)).mask == G3.full_mask


def test_brute_orientation_examples():
    cycle = DemandGraph.build(
        ["a", "b", "c"],
        [("a", "b", "e0"), ("b", "c", "e1"), ("c", "a", "e2")],
        {"a": 1, "b": 1, "c": 1},
    )
    assert brute_orientations(cycle) is not None
    path = DemandGraph.build(
        ["v0", "v1", "v2"],
        [("v0", "v1", "e0"), ("v1", "v2", "e1")],
        {"v0": 1, "v1": 1, "v2": 1},
    )
    assert brute_orientations(path) is None
    slack = DemandGraph.build(
        ["v0", "v1", "v2"],
        [("v0", "v1", "e0"), ("v1", "v2", "e1")],
        {"v0": -1, "v1": -2, "v2": -1},
    )
    assert brute_orientations(slack) is not None


def test_too_large_guards():
    big = GroundSet(tuple(f"e{i}" for i in range(17)))
    with pytest.raises(C.TooLarge):
        brute_max_common(C.free(big), C.free(big))
    with pytest.raises(C.TooLarge):
        brute_minmax(C.free(big), C.free(big))
    with pytest.raises(C.TooLarge):
        brute_components(C.free(big))
    med = GroundSet(tuple(f"e{i}" for i in range(11)))
    with pytest.raises(C.TooLarge):
        brute_largest_wave(C.free(med), C.free(med))


def _boundary_breaches(tree: ast.AST) -> list[str]:
    """Imports of oracle, names of the enumeration machinery and raises of TooLarge."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            modules = [node.module or ""] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        else:
            modules = []
        if any("oracle" in m.split(".") for m in modules):
            found.append(f"line {node.lineno}: imports oracle")
        names = set()
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update({node.name, node.asname})
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        for name in sorted(names & ENUMERATION_NAMES):
            found.append(f"line {getattr(node, 'lineno', '?')}: names {name}")
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if getattr(exc, "id", getattr(exc, "attr", None)) == "TooLarge":
                found.append(f"line {node.lineno}: raises TooLarge")
    return found


def test_no_solver_module_reaches_subset_enumeration():
    # subset enumeration and its size bound live only in oracle, so no
    # polynomial solver path can raise TooLarge or call an exponential scan
    assert {"classic", "core", "intersect", "waves"} <= set(SOLVER_MODULES)
    breaches = {}
    for module in SOLVER_MODULES:
        tree = ast.parse((PACKAGE / f"{module}.py").read_text())
        if found := _boundary_breaches(tree):
            breaches[module] = found
    assert breaches == {}


def _callers(tree: ast.AST, method: str) -> set[str]:
    """The functions of ``tree`` that call a method or function named ``method``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            for inner in ast.walk(node):
                if isinstance(inner, ast.Call) and method in (
                    getattr(inner.func, "attr", None), getattr(inner.func, "id", None)
                ):
                    found.add(node.name)
    return found


def test_exchange_digraph_asks_matroids_through_two_questions():
    # every arc and sink rule is a question about sets (Matroid._spanned and
    # Matroid._circuits); only the lazy source scan asks element by element,
    # and no circuit is found in classic except through _circuits
    tree = ast.parse((PACKAGE / "classic.py").read_text())
    digraph = next(
        node for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name == "ExchangeDigraph"
    )
    assert _callers(digraph, "_indep") == {"sources"}
    assert _callers(digraph, "_spanned") == {"sinks", "heads"}
    assert _callers(digraph, "_circuits") == {"heads"}
    assert _callers(tree, "_circuit") == set()


def test_every_largest_wave_run_goes_through_one_function():
    # waves._wave_run starts, resumes, counts and re-checks every largest-wave
    # run; is_wave runs the classic engine only on the minors of one set
    waves = ast.parse((PACKAGE / "waves.py").read_text())
    assert _callers(waves, "_classic_run") == {"_wave_run", "is_wave"}
    assert _callers(waves, "_greedy") == {"_wave_run"}
    intersect = ast.parse((PACKAGE / "intersect.py").read_text())
    extend = next(
        node for node in ast.walk(intersect)
        if isinstance(node, ast.FunctionDef) and node.name == "extend_to_nice"
    )
    assert _callers(extend, "_wave_run") == {"extend_to_nice"}
    for name in ("_classic_run", "_greedy", "largest_wave", "is_clean"):
        assert _callers(extend, name) == set(), name


STRUCTURAL_QUESTIONS = {"_spanned", "_circuit", "_circuits"}


def test_handles_answer_the_two_digraph_questions_and_no_handle_finds_one_circuit():
    # the structural seam is the digraph's own pair of questions: graphic and
    # partition leaves, and contraction, restriction and the dual, which
    # pass them on (the dual to its closed form, when it has one), define
    # _spanned and _circuits; the query version of _circuits does its own
    # halving, so no class defines a one-circuit _circuit, and no other
    # handle answers a structural question
    tree = ast.parse((PACKAGE / "core.py").read_text())
    handles = {"Matroid"}
    methods = {}
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and (
            node.name == "Matroid" or {getattr(base, "id", None) for base in node.bases} & handles
        ):
            handles.add(node.name)
            methods[node.name] = {f.name for f in node.body if isinstance(f, ast.FunctionDef)}
    assert len(handles) == 10, handles
    assert {name for name, defined in methods.items() if "_circuit" in defined} == set()
    structural = {"GraphicMatroid", "PartitionMatroid", "ContractMatroid", "RestrictMatroid", "DualMatroid"}
    for name, defined in methods.items():
        if name != "Matroid":
            want = {"_spanned", "_circuits"} if name in structural else set()
            assert defined & STRUCTURAL_QUESTIONS == want, name
# the certificate and invariant checks, and the Matroid methods of the raw
# query path they take, by module
VERIFIERS = {
    "classic": ("verify_certificate", "_augmented", "_same_span"),
    "waves": ("_verify_wave", "is_clean"),
    "intersect": ("FeasibleState.__post_init__",),
    "core": ("Matroid._indep", "Matroid._spans", "Matroid._max_indep"),
}


def _functions(tree: ast.AST) -> dict[str, ast.FunctionDef]:
    """The module-level functions of ``tree`` and the methods of its classes, as ``Class.method``."""
    found = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            found[node.name] = node
        elif isinstance(node, ast.ClassDef):
            for inner in node.body:
                if isinstance(inner, ast.FunctionDef):
                    found[f"{node.name}.{inner.name}"] = inner
    return found


def _names(node: ast.AST) -> set[str]:
    """Every name and attribute that ``node`` mentions."""
    return {
        getattr(inner, "id", None) or getattr(inner, "attr", None)
        for inner in ast.walk(node)
        if isinstance(inner, (ast.Name, ast.Attribute))
    }


def test_verifiers_never_take_a_structural_answer():
    # the certificate and invariant checks ask raw queries, and so does the
    # query path under them: Matroid's _indep, _spans and _max_indep and
    # every kernel, which no handle overrides; so every certificate is
    # re-derived by a path that no structural span or circuit answer is on
    named = {}
    for module, names in VERIFIERS.items():
        functions = _functions(ast.parse((PACKAGE / f"{module}.py").read_text()))
        for name in names:
            named[name] = _names(functions[name]) & STRUCTURAL_QUESTIONS
    core_tree = ast.parse((PACKAGE / "core.py").read_text())
    kernels = [name for name in _functions(core_tree) if name.endswith("._indep_raw")]
    assert len(kernels) == 10
    for name in kernels:
        named[name] = _names(_functions(core_tree)[name]) & STRUCTURAL_QUESTIONS
    assert named == dict.fromkeys(named, set())
    handles = [
        node for node in core_tree.body
        if isinstance(node, ast.ClassDef) and any(getattr(b, "id", None) == "Matroid" for b in node.bases)
    ]
    assert len(handles) == 9
    overriding = {
        f"{cls.name}.{f.name}" for cls in handles for f in cls.body
        if isinstance(f, ast.FunctionDef) and f.name in ("_indep", "_spans")
    }
    assert overriding == set()


# each solving entry point and the one check of what it returns, by module
ENTRY_VERIFIERS = {
    "intersect": {"edmonds_solve": "verify_certificate", "mixed_solve": "verify_certificate"},
    "packcov": {"packcov_solve": "verify_packcov"},
    "orient": {"orient_solve": "verify_outcome"},
}


def test_each_answer_is_verified_once_by_the_call_that_returns_it():
    # every entry point checks its answer at one call site that each
    # verdict reaches, so the CLI, which prints it, checks nothing again
    verifiers = {v for entries in ENTRY_VERIFIERS.values() for v in entries.values()}
    assert _names(ast.parse((PACKAGE / "cli.py").read_text())) & verifiers == set()
    sites = {}
    for module, entries in ENTRY_VERIFIERS.items():
        functions = _functions(ast.parse((PACKAGE / f"{module}.py").read_text()))
        for name, verifier in entries.items():
            sites[name] = sum(
                isinstance(node, ast.Call) and getattr(node.func, "id", None) == verifier
                for node in ast.walk(functions[name])
            )
    assert sites == dict.fromkeys(sites, 1)


def test_boundary_check_sees_each_kind_of_breach():
    tree = ast.parse(
        "from .oracle import brute_minmax\n"
        "from .core import iter_submasks as subs\n"
        "import matroidkit.oracle\n"
        "def f(m):\n"
        "    raise TooLarge(core.require_exhaustive(3))\n"
    )
    assert sorted(_boundary_breaches(tree)) == [
        "line 1: imports oracle",
        "line 2: names iter_submasks",
        "line 3: imports oracle",
        "line 5: names require_exhaustive",
        "line 5: raises TooLarge",
    ]


def _import_structure(tree: ast.AST) -> tuple[set[str], list[str]]:
    """The package modules ``tree`` imports, and the imports it makes inside a function."""
    imported, nested = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                if isinstance(inner, (ast.Import, ast.ImportFrom)):
                    nested.add(f"line {inner.lineno}: imports inside {node.name}")
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                imported.add(node.module.split(".")[0])
            elif node.level == 1 or node.module == "matroidkit":
                imported.update(alias.name for alias in node.names)
            elif node.level == 0 and (node.module or "").startswith("matroidkit."):
                imported.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("matroidkit."):
                    imported.add(alias.name.split(".")[1])
    return imported, sorted(nested)


def _cyclic_modules(graph: dict[str, set[str]]) -> set[str]:
    """The modules on or above an import cycle: those left once peeling stops.

    Each round peels off the modules that import none of those left.
    """
    left = set(graph)
    while leaves := {m for m in left if not graph[m] & left}:
        left -= leaves
    return left


def test_package_imports_sit_at_module_top_and_form_no_cycle():
    # each module imports at its top, so no import waits for a call, and the
    # package's import graph is acyclic; the classic engine needs only core
    graph, nested = {}, {}
    for path in sorted(PACKAGE.glob("*.py")):
        graph[path.stem], inner = _import_structure(ast.parse(path.read_text()))
        if inner:
            nested[path.stem] = inner
    assert nested == {}
    assert _cyclic_modules(graph) == set()
    assert {"core"} == graph["classic"] and "classic" in graph["waves"]
    # the ground truth runs none of the solvers it checks
    oracle = ast.parse((PACKAGE / "oracle.py").read_text())
    assert "_classic_run" not in {getattr(n, "id", getattr(n, "name", None)) for n in ast.walk(oracle)}


def test_import_check_sees_nested_imports_and_cycles():
    tree = ast.parse(
        "from .core import x\n"
        "import matroidkit.waves\n"
        "def f():\n"
        "    from .intersect import y\n"
    )
    assert _import_structure(tree) == ({"core", "waves", "intersect"}, ["line 4: imports inside f"])
    graph = {"a": {"b"}, "b": {"a", "d"}, "c": {"a"}, "d": set(), "e": {"d"}}
    assert _cyclic_modules(graph) == {"a", "b", "c"}


def test_star_import_binds_no_submodule():
    # the package namespace holds its submodules once they are imported, but
    # ``from matroidkit import *`` binds only the public names
    exported = matroidkit.__all__
    assert not [name for name in exported if isinstance(getattr(matroidkit, name), ModuleType)]
    public = {
        name for name in dir(matroidkit)
        if not name.startswith("_") and not isinstance(getattr(matroidkit, name), ModuleType)
    }
    assert len(exported) == len(set(exported)) == 60 and set(exported) == public
    namespace: dict = {}
    exec("from matroidkit import *", namespace)
    assert set(namespace) - {"__builtins__"} == public


def test_rank_table_matches_handle():
    m = k4()
    table = rank_table(m)
    for mask, r in table.items():
        assert r == m._rank(mask)


def test_fuzz_is_deterministic():
    spec = CorpusSpec(seed=42, pairs=12, families=4, graphs=6, max_elements=6)
    a = fuzz_corpus(spec)
    b = fuzz_corpus(spec)
    assert a.kind_counts == b.kind_counts
    for pa, pb in zip(a.pairs, b.pairs):
        assert matroid_to_json(pa.M) == matroid_to_json(pb.M)
        assert matroid_to_json(pa.N) == matroid_to_json(pb.N)
        assert [s[1].mask for s in pa.splits] == [s[1].mask for s in pb.splits]
    for fa, fb in zip(a.families, b.families):
        assert [matroid_to_json(m) for m in fa.family.members] == [
            matroid_to_json(m) for m in fb.family.members
        ]
    for ga, gb in zip(a.graphs, b.graphs):
        assert ga.graph == gb.graph


# The sha256 of ``corpus_document`` at PINNED_SPEC.  The corpus feeds the
# acceptance tests, ``matroidkit fuzz`` and the corpus bench, so a change
# to any draw must show up here, and not only as two equal runs.
PINNED_SPEC = CorpusSpec(seed=2025, pairs=40, families=8, graphs=10, max_elements=10)
PINNED_DIGEST = "9a1f02ede1a3f8f166e0cb5e070746727937f57beaca9a2d28f0e62d93426aa6"


def corpus_document(corpus) -> dict:
    """Every pair (M, N, split masks), family member, graph and kind count."""
    return {
        "pairs": [
            [p.name, matroid_to_json(p.M), matroid_to_json(p.N)]
            + [[e0.mask, e1.mask] for e0, e1 in p.splits]
            for p in corpus.pairs
        ],
        "families": [
            [f.name, [matroid_to_json(m) for m in f.family.members]] for f in corpus.families
        ],
        "graphs": [
            [g.name, g.graph.vertices, g.graph.edges, g.graph.demands] for g in corpus.graphs
        ],
        "kind_counts": corpus.kind_counts,
    }


@pytest.mark.parametrize(
    "sizes",
    [
        {"max_elements": 1},
        {"max_elements": 0},
        {"pairs": -3},
        {"families": -1},
        {"graphs": -1},
        {"max_graph_vertices": 1},
        {"max_graph_edges": 0},
    ],
    ids=lambda sizes: "{}={}".format(*next(iter(sizes.items()))),
)
def test_impossible_corpus_sizes_are_rejected(sizes):
    # each would fail inside the draws, or draw nothing without a word
    with pytest.raises(C.MatroidKitError):
        CorpusSpec(**sizes)


def test_brute_oracles_reject_a_pair_off_one_ground_set():
    # the scans read both members by index, so they first check the pair
    m = C.uniform(GroundSet(("a", "b", "c")), 2)
    for n in (C.uniform(GroundSet(("e0", "e1")), 1), C.uniform(GroundSet(("c", "b", "a")), 1)):
        for scan in (brute_max_common, brute_minmax, brute_largest_wave):
            with pytest.raises(C.UniverseMismatch):
                scan(m, n)


def test_fuzz_corpus_is_pinned():
    corpus = fuzz_corpus(PINNED_SPEC)
    assert corpus.kind_counts["explicit"] > 0
    text = json.dumps(corpus_document(corpus), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_DIGEST


def test_binary_generator_matches_the_subset_scan():
    zero_draws = 0
    for n in range(1, 11):
        labels = tuple(f"x{i}" for i in range(n))
        for seed in range(4 if n > 8 else 12):
            ref_rng, rng = random.Random(seed), random.Random(seed)
            cols, indep = scan_binary_draw(ref_rng, n)
            m = _random_binary_explicit(rng, labels)
            assert m.bases == pairwise_bases(indep), (n, seed)
            assert rng.getstate() == ref_rng.getstate(), (n, seed)
            zero_draws += 0 in cols
    assert zero_draws > 10
    # every column zero: rank 0, whose one base is the empty set
    seed = next(s for s in range(1000) if not any(scan_binary_draw(random.Random(s), 4)[0]))
    ref_rng, rng = random.Random(seed), random.Random(seed)
    _cols, indep = scan_binary_draw(ref_rng, 4)
    m = _random_binary_explicit(rng, tuple("abcd"))
    assert indep == [0] and m.bases == (0,)
    assert rng.getstate() == ref_rng.getstate()


def test_fuzz_covers_every_generator_kind(corpus):
    for kind in ("uniform", "graphic", "partition", "explicit", "dual", "sum"):
        assert corpus.kind_counts.get(kind, 0) > 0, kind


def test_fuzz_respects_bounds(corpus):
    for inst in corpus.pairs:
        assert inst.M.size <= corpus.spec.max_elements
    for inst in corpus.families:
        assert len(inst.family.members) <= MAX_FAMILY
        assert inst.family.ground.size <= 6
    for inst in corpus.graphs:
        assert len(inst.graph.edges) <= corpus.spec.max_graph_edges
        assert len(inst.graph.vertices) <= corpus.spec.max_graph_vertices
