"""Outside-in tracing of matroidkit for the traced benchmark run.

Nothing in ``src/`` is edited.  Each traced public function is replaced
by a span-recording wrapper in every matroidkit module namespace that
holds it (``largest_wave`` lives in both ``waves`` and ``intersect``;
``edmonds_solve`` in ``intersect``, ``packcov``, ``orient`` and ``cli``),
so calls between modules are seen as well as calls from the benchmark.
Oracle calls are counted per matroid kind by wrapping each handle
class's ``_indep_raw``.  A name that no longer exists raises at install
time instead of reading 0.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# layer -> public functions traced as spans, named ``<layer>.<function>``
SPANS = {
    "intersect": (
        "edmonds_solve",
        "mixed_solve",
        "find_aug_path",
        "build_exchange_digraph",
        "augment",
        "extend_to_nice",
        "verify_certificate",
    ),
    "waves": ("largest_wave", "check_cond_plus", "common_base_B"),
    "packcov": ("packcov_solve", "lift_family", "verify_packcov"),
    "orient": ("orient_solve", "build_instance", "verify_outcome"),
    "cli": ("main",),
}
LEAF_KINDS = ("graphic", "partition", "uniform", "explicit")
DERIVED_KINDS = ("dual", "restrict", "contract", "sum", "relabel")


def handle_classes(core) -> dict:
    """Handle class per matroid kind; every traced kind must exist."""
    found = {}
    for obj in vars(core).values():
        if isinstance(obj, type) and issubclass(obj, core.Matroid) and obj is not core.Matroid:
            if "_indep_raw" in vars(obj):
                found[obj.kind] = obj
    missing = set(LEAF_KINDS + DERIVED_KINDS) - set(found)
    if missing:
        raise RuntimeError(f"matroidkit.core has no handle class for {sorted(missing)}")
    return found


def _replace_everywhere(fn, wrapper) -> int:
    """Put ``wrapper`` wherever a matroidkit module namespace holds ``fn``."""
    hits = 0
    for name, mod in list(sys.modules.items()):
        if name != "matroidkit" and not name.startswith("matroidkit."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is fn:
                setattr(mod, attr, wrapper)
                hits += 1
    return hits


class Tracer:
    """Spans with parents and per-layer counters, kept in memory.

    ``counts`` holds work done (calls per span, oracle calls per kind,
    ``Matroid._indep`` calls, demand lookups) and ``self_s`` the time in
    each span not covered by a child span.  Leaf oracle calls act as
    child spans of whatever span is open, so a solver span's self time
    excludes the oracle time (``core.oracle_s``).  Spans of one
    entry-point call share ``call_id``.
    """

    def __init__(self, lib) -> None:
        self.counts: dict = defaultdict(int)
        self.self_s: dict = defaultdict(float)
        self.spans: list = []
        self.stack: list = []
        self.call_id = 0
        self._next_id = 0
        self._install(lib)

    def reset_counters(self) -> None:
        self.counts.clear()
        self.self_s.clear()

    # -- wrappers ----------------------------------------------------------

    def _span(self, name: str, fn):
        stack, spans, perf = self.stack, self.spans, time.perf_counter
        counts, self_s = self.counts, self.self_s
        calls_key = f"{name}.calls"

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1][0] if stack else None
            frame = [sid, perf(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                dur = end - frame[1]
                counts[calls_key] += 1
                self_s[name] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                spans.append((sid, parent, self.call_id, name, frame[1], end))

        return traced

    def _leaf(self, kind: str, fn):
        stack, perf, counts, self_s = self.stack, time.perf_counter, self.counts, self.self_s
        key = f"core.indep_raw.{kind}"

        def timed(m, mask):
            t0 = perf()
            out = fn(m, mask)
            d = perf() - t0
            counts[key] += 1
            self_s["core.oracle"] += d
            if stack:
                stack[-1][2] += d
            return out

        return timed

    def _counter(self, key: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _install(self, lib) -> None:
        core = lib.core
        classes = handle_classes(core)
        for kind in LEAF_KINDS:
            cls = classes[kind]
            cls._indep_raw = self._leaf(kind, cls._indep_raw)
        for kind in DERIVED_KINDS:
            cls = classes[kind]
            cls._indep_raw = self._counter(f"core.indep_raw.{kind}", cls._indep_raw)
        for method in ("_indep", "components"):
            overridden = [c.kind for c in classes.values() if method in vars(c)]
            if overridden:
                raise RuntimeError(f"Matroid.{method} is overridden by {overridden}")
        core.Matroid._indep = self._counter("core.indep_calls", core.Matroid._indep)
        core.Matroid.components = self._span("core.components", core.Matroid.components)
        graph = lib.orient.DemandGraph
        for method in ("o", "degree"):
            setattr(graph, method, self._counter("orient.demand_lookups", getattr(graph, method)))
        for layer, names in SPANS.items():
            module = getattr(lib, layer)
            for name in names:
                fn = getattr(module, name)
                if not _replace_everywhere(fn, self._span(f"{layer}.{name}", fn)):
                    raise RuntimeError(f"{layer}.{name} is not reachable for tracing")

    # -- output ------------------------------------------------------------

    def write_spans(self, path) -> None:
        """One tab-separated line per span: id, parent, call, name, start, end (s)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("id\tparent\tcall\tname\tstart\tend\n")
            for sid, parent, call, name, start, end in self.spans:
                fh.write(f"{sid}\t{'' if parent is None else parent}\t{call}\t{name}\t{start:.9f}\t{end:.9f}\n")
