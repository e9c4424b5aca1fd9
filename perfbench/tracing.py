"""Spans and counters around the public functions of each wordspot module.

Each traced function is replaced, in every wordspot module that holds it,
by a wrapper: `from .search import search` in `cli` means the wrapper goes
on `wordspot.cli.search`, because that is the name `cli` looks up at call
time. A span is (name, start_ns, end_ns, parent span, op id); spans are kept
in memory and written out once the run ends. Self time is a span's duration
minus that of its direct children.
"""

from __future__ import annotations

import gzip
import importlib
import time
from collections import defaultdict
from pathlib import Path

LAYERS = {
    "pnm": ("load_image", "binarize"),
    "segment": ("row_profile", "segment_lines", "column_profile", "segment_words"),
    "index": ("build_index", "save_index", "load_index"),
    "shapecode": ("estimate_zones", "word_to_wst", "char_region_segment", "classify_region"),
    "search": ("search", "size_prefilter", "levenshtein"),
    "cli": ("main",),
}
MODULES = tuple(f"wordspot.{name}" for name in LAYERS) + ("wordspot",)
FUNCTIONS = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)
# Per-layer metrics of a traced run, all per op unless the unit says otherwise.
PER_LAYER = {
    f"{fn}.{suffix}": unit
    for fn in FUNCTIONS
    for suffix, unit in (("calls", "count/op"), ("busy_s", "s/op"), ("self_s", "s/op"))
} | {
    "segment.words_found": "count/op",
    "index.save_index.bytes": "B/op",
    "index.load_index.records": "count/op",
    "shapecode.regions_per_word": "count/word",
    "search.prefilter_survivors": "count/query",
    "search.tokens_encoded": "count/query",
    "search.tokens_cached": "count/query",
    "search.token_cache_hit_ratio": "ratio",
    "search.pages_loaded": "count/query",
    "search.match_ratio": "ratio",
    "search.distinct_pair_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
    "trace.uncovered_ratio": "ratio",
}


class Tracer:
    """Installs wrappers on enter, restores the original functions on exit."""

    def __init__(self):
        self.spans: list[tuple[str, int, int, int, int]] = []
        self.op = -1
        self.counts: dict[str, int] = defaultdict(int)
        self.queries = 0
        self._stack: list[int] = []
        self._pairs: set[tuple[str, str]] = set()
        self._patched: list[tuple[object, str, object]] = []

    # -- counters, one per boundary that reports more than a call ----------

    def _before(self, name, args):
        if name == "search.search":
            self.queries += 1
            self._pairs = set()
            load_page = args[1]

            def counted(doc_id):
                self.counts["pages_loaded"] += 1
                return load_page(doc_id)

            args = (args[0], counted) + args[2:]
        elif name == "search.levenshtein":
            self._pairs.add(args[:2])
        return args

    def _after(self, name, result):
        c = self.counts
        if name == "segment.segment_words":
            c["words_found"] += len(result)
        elif name == "index.save_index":
            c["save_bytes"] += len(result)
        elif name == "index.load_index":
            c["records"] += len(result.records)
        elif name == "shapecode.char_region_segment":
            c["regions"] += len(result)
        elif name == "search.size_prefilter":
            c["survivors"] += len(result)
        elif name == "search.search":
            c["matches"] += len(result)
            c["distinct_pairs"] += len(self._pairs)

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        before, after = self._before, self._after

        def traced(*args, **kwargs):
            args = before(name, args)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.op)
            after(name, result)
            return result

        return traced

    def __enter__(self):
        modules = [importlib.import_module(m) for m in MODULES]
        for name in FUNCTIONS:
            layer, fn_name = name.split(".")
            original = getattr(importlib.import_module(f"wordspot.{layer}"), fn_name)
            wrapper = self._wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        return False

    # -- results -----------------------------------------------------------

    def layer_metrics(self, op_walls_ns: dict[int, int]) -> dict[str, float]:
        """Per-op calls, busy and self seconds per traced function, the
        boundary counters, and the share of op wall time outside every
        library span (cli glue, file reads, the benchmark's own code).
        `op_walls_ns` maps each traced op to its wall time."""
        ops = len(op_walls_ns)
        spans = self.spans
        calls = defaultdict(int)
        busy = defaultdict(int)
        self_ns = defaultdict(int)
        child = [0] * len(spans)
        covered = 0
        for name, start, end, parent, op in spans:
            if parent >= 0:
                child[parent] += end - start
        for sid, (name, start, end, parent, op) in enumerate(spans):
            calls[name] += 1
            busy[name] += end - start
            self_ns[name] += end - start - child[sid]
            # Library spans whose parent is not a library span: their union
            # is the covered part of the ops, as spans nest strictly.
            if not name.startswith("cli.") and (parent < 0 or spans[parent][0].startswith("cli.")):
                covered += end - start

        out: dict[str, float] = {}
        for name in FUNCTIONS:
            out[f"{name}.calls"] = calls[name] / ops
            out[f"{name}.busy_s"] = busy[name] / 1e9 / ops
            out[f"{name}.self_s"] = self_ns[name] / 1e9 / ops
        c = self.counts
        queries = max(self.queries, 1)
        lev = calls["search.levenshtein"]
        survivors = c["survivors"]
        encoded = calls["shapecode.word_to_wst"]
        out["segment.words_found"] = c["words_found"] / ops
        out["index.save_index.bytes"] = c["save_bytes"] / ops
        out["index.load_index.records"] = c["records"] / ops
        out["shapecode.regions_per_word"] = c["regions"] / max(encoded, 1)
        out["search.prefilter_survivors"] = survivors / queries
        out["search.tokens_encoded"] = encoded / queries
        out["search.tokens_cached"] = (survivors - encoded) / queries
        out["search.token_cache_hit_ratio"] = (survivors - encoded) / max(survivors, 1)
        out["search.pages_loaded"] = c["pages_loaded"] / queries
        out["search.match_ratio"] = c["matches"] / max(lev, 1)
        out["search.distinct_pair_ratio"] = c["distinct_pairs"] / max(lev, 1)
        wall = sum(op_walls_ns.values())
        out["trace.uncovered_ratio"] = (wall - covered) / max(wall, 1)
        return out

    def write(self, path: Path) -> None:
        """Gzipped, one tab-separated line per span: name, start and end in
        ns from the first span, parent span number (-1 for none), op id."""
        origin = self.spans[0][1] if self.spans else 0
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("name\tstart_ns\tend_ns\tparent\top\n")
            for name, start, end, parent, op in self.spans:
                f.write(f"{name}\t{start - origin}\t{end - origin}\t{parent}\t{op}\n")
