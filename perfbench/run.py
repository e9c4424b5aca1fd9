"""wordspot benchmark: ingest, cold queries and warm queries, checked against
a ground-truth oracle.

    python3 perfbench/run.py --workload query_cold --seed 1 --seconds 50 --trace 0
    python3 -m pytest perfbench -q      # self-tests of the correctness gate

Each workload is one closed-loop client in this process: the next op starts
when the previous one has returned and been checked. The corpus (20 cursive
pages of 2000x1268 px, about 3.8k words) is generated from --seed; the
program sees only the PGM pages and the index files it builds from them.

  ingest      op = `wordspot index <20 pages> --out X` (cli.main in-process)
              The write path: pnm and segment do the work, shapecode and
              search none.
  query_cold  op = `wordspot query IDX <word>` against a token-less index.
              Each op re-parses the index, reloads and re-binarizes pages,
              re-derives line bands and encodes every prefilter survivor.
  query_warm  op = search(index, loader, word) on one in-memory index whose
              tokens were all filled during set-up, so the op is the size
              prefilter plus edit distance over hundreds of candidates.

query_warm is not in BENCHMARK.json. Its op is almost pure Python, and the
Python speed this host gives a process alternates between two levels about
2x apart (a fixed edit-distance kernel took 11 or 21 ms, on either CPU) in
a mix that changes over minutes; over 10 seeds its ops_per_s spread by
0.21-0.26 of its median, at the largest allowed bound. Run it by hand for
the levenshtein share (its traced run) or on a quieter machine.

Queries are drawn uniformly (with replacement) from the corpus vocabulary of
3-11 letter words. Every op's output is compared with the oracle outside the
timed region; an op that exits non-zero or disagrees counts as failed.

End-to-end metrics (--trace 0), the same set for every workload:
  setup_s               median of SETUP_REPEATS set-ups: for ingest writing
                        the pages, for the query workloads the program's own
                        set-up, `wordspot index` (and for query_warm loading
                        the index and filling every token)
  ok_ratio              1 - failed ratio: ops that exited 0 and agreed with
                        the oracle, over ops attempted
  peak_rss_mb           peak resident set of the whole process
  op_tail_ms            op wall time at the highest percentile with
                        TAIL_BEYOND ops above it (the report names which)
  ops_per_s             ops completed per second of op time, the inverse of
                        the mean op time (for ingest, times 20 gives pages
                        per second)

The median op time is in the report line but is not a metric: this host's
CPU speed alternates between two levels, so one run's op times form two
modes and their median lands on either. Over 10 seeds of ingest, whose ops
are all alike, op_p50_ms spread by 0.27 of its median, ops_per_s by 0.13
and op_tail_ms by 0.04.
  index_bytes_per_word  size of the index file the workload built or used

With --trace 1 each op is run twice, traced and untraced in alternating
order, and the last line holds per-layer metrics (per op) from the traced
runs, plus the tracing overhead. Spans go to
.perfbench/spans-<workload>-<seed>.tsv.gz. Lines before the last are a
report: the environment and the workload's properties.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(Path(__file__).resolve().parent)]

import numpy as np  # noqa: E402

# `wordspot.search` names the function the package re-exports, so the
# modules are taken from the import system. Calls go through module
# attributes, where the tracer puts its wrappers.
cli_mod, index_mod, pnm_mod, search_mod = (
    importlib.import_module(f"wordspot.{m}") for m in ("cli", "index", "pnm", "search")
)

import corpus  # noqa: E402
from oracle import Oracle, parse_query_stdout, search_results  # noqa: E402
from tracing import PER_LAYER, Tracer  # noqa: E402

PAGES = 20
SETUP_REPEATS = 5
QUERY_LIST = 5000
TAIL_BEYOND = 10  # the tail is the highest percentile with this many samples above it
MIN_OPS = 2 * TAIL_BEYOND + 1  # keeps the tail at or above the median
INDEX_FILE = "corpus.wsidx"
# Printed for every workload by an untraced run. ok_ratio is 1 - failed
# ratio, so that no metric is zero on a correct program.
END_TO_END = {
    "setup_s": "s",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
    "op_tail_ms": "ms",
    "ops_per_s": "1/s",
    "index_bytes_per_word": "B/word",
}


def cli(*argv: str) -> tuple[int, str]:
    """Run `wordspot <argv>` in-process; return (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_mod.main(list(argv))
    return code, out.getvalue()


def index_agrees(oracle: Oracle, code: int, stdout: str, path: str, pages: list[str]) -> bool:
    """An `index` run is right when it exits 0, prints the oracle's class
    counts and writes one record per generated word with its true box."""
    if code != 0 or stdout != oracle.index_stdout():
        return False
    try:
        index = index_mod.load_index(Path(path).read_bytes())
    except (OSError, ValueError):  # missing or unreadable index file
        return False
    records = [(r.doc_id, r.line_idx, r.word_idx, (r.box.x1, r.box.y1, r.box.x2, r.box.y2))
               for r in index.records]
    return records == oracle.index_records() and [d.path for d in index.docs] == pages


class Workload:
    """`setup` is timed and repeated, then ops: `call` is timed, `check` is not."""

    def __init__(self, seed: int):
        self.seed = seed
        self.index_bytes = 0
        self.queries: list[str] = []


class Ingest(Workload):
    def setup(self) -> float:
        """The program does no work before an ingest op, so set-up is
        writing the pages."""
        start = time.perf_counter()
        self.corpus = corpus.generate(self.seed, PAGES, Path("."))
        elapsed = time.perf_counter() - start
        self.oracle = Oracle(self.corpus.words)
        return elapsed

    def call(self, i: int):
        return cli("index", *self.corpus.page_paths, "--out", "ingest.wsidx")

    def check(self, i: int, result) -> bool:
        if not index_agrees(self.oracle, *result, "ingest.wsidx", self.corpus.page_paths):
            return False
        self.index_bytes = os.path.getsize("ingest.wsidx")
        return True


class QueryWorkload(Workload):
    def setup(self) -> float:
        """Seconds of the program's set-up: `wordspot index` over the pages,
        then `warm_up`. The pages and the query list are made once, untimed."""
        if not self.queries:
            self.corpus = corpus.generate(self.seed, PAGES, Path("."))
            self.oracle = Oracle(self.corpus.words)
            self.queries = self.query_list()
        start = time.perf_counter()
        code, stdout = cli("index", *self.corpus.page_paths, "--out", INDEX_FILE)
        self.warm_up()
        elapsed = time.perf_counter() - start
        if not index_agrees(self.oracle, code, stdout, INDEX_FILE, self.corpus.page_paths):
            raise RuntimeError("set-up index disagrees with the ground truth")
        self.index_bytes = os.path.getsize(INDEX_FILE)
        return elapsed

    def warm_up(self) -> None:
        """Program work that precedes the first query; none for cold queries."""

    def query_list(self) -> list[str]:
        """Uniform draws from the vocabulary, stratified by length: each round
        of nine queries holds one word of every length 3-11 in random order.
        The vocabulary's lengths are uniform already; stratifying removes the
        sampling noise of the length mix from short runs."""
        rng = random.Random(f"queries:{self.seed}")
        by_length: dict[int, list[str]] = {}
        for word in self.corpus.vocabulary:
            by_length.setdefault(len(word), []).append(word)
        queries: list[str] = []
        while len(queries) < QUERY_LIST:
            lengths = sorted(by_length)
            rng.shuffle(lengths)
            queries += [rng.choice(by_length[n]) for n in lengths]
        return queries

    def query(self, i: int) -> str:
        return self.queries[i % len(self.queries)]


class QueryCold(QueryWorkload):
    def call(self, i: int):
        return cli("query", INDEX_FILE, self.query(i))

    def check(self, i: int, result) -> bool:
        code, stdout = result
        q = self.query(i)
        return code == 0 and parse_query_stdout(stdout, q) == self.oracle.expected(q)


class QueryWarm(QueryWorkload):
    def setup(self) -> float:
        self.index = self.load_page = None  # free the last set-up's pages first
        return super().setup()

    def warm_up(self) -> None:
        self.index = index_mod.load_index(Path(INDEX_FILE).read_bytes())
        paths = {Path(p).stem: p for p in self.corpus.page_paths}
        pages = {}

        def load_page(doc_id):
            page = pages.get(doc_id)
            if page is None:
                data = Path(paths[doc_id]).read_bytes()
                page = pages[doc_id] = pnm_mod.binarize(pnm_mod.load_image(data))
            return page

        self.load_page = load_page
        # The prefilter depends only on the query's length, so one search per
        # length fills the token of every record any query in the list reaches.
        for q in {len(q): q for q in self.queries}.values():
            search_mod.search(self.index, load_page, q)

    def call(self, i: int):
        return search_mod.search(self.index, self.load_page, self.query(i))

    def check(self, i: int, result) -> bool:
        return search_results(result) == self.oracle.expected(self.query(i))


WORKLOADS = {"ingest": Ingest, "query_cold": QueryCold, "query_warm": QueryWarm}


def timed_call(workload: Workload, i: int) -> tuple[int, object]:
    """(wall ns, result) of one op; the result is None when the op raised."""
    start = time.perf_counter_ns()
    try:
        result = workload.call(i)
    except Exception:  # a crashing op is a failed op; keep measuring
        traceback.print_exc()
        result = None
    return time.perf_counter_ns() - start, result


def tail(sorted_ns: list[int]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with TAIL_BEYOND samples above it."""
    n = len(sorted_ns)
    return 100.0 * (n - TAIL_BEYOND) / n, sorted_ns[n - TAIL_BEYOND - 1]


def environment(workload: Workload) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": workload.seed,
        "pages": PAGES,
        "page_size": f"{corpus.PAGE_WIDTH}x{corpus.PAGE_HEIGHT}",
        "words": len(workload.corpus.words),
        "vocabulary": len(workload.corpus.vocabulary),
        "io_note": "page and index files are read back from the OS page cache; "
                   "I/O times are this machine's memory, not a disk's",
    }


def query_properties(queries: list[str]) -> dict:
    if not queries:
        return {}
    seen: set[str] = set()
    repeats = 0
    for q in queries:
        repeats += q in seen
        seen.add(q)
    return {
        "queries": len(queries),
        "query_length_histogram": dict(sorted(Counter(map(len, queries)).items())),
        "repeated_query_share": repeats / len(queries),
    }


def run(name: str, seed: int, seconds: float, trace: bool, spans_path: Path | None) -> dict:
    workload = WORKLOADS[name](seed)
    setup_s = [workload.setup() for _ in range(SETUP_REPEATS)]

    times: list[int] = []  # untraced op wall times, ns
    traced: dict[int, int] = {}  # op id -> traced op wall time, ns
    attempted = failed = 0
    tracer = Tracer()
    started = time.perf_counter()
    i = 0
    while time.perf_counter() - started < seconds or len(times) < MIN_OPS:
        # In a traced run every op runs once with and once without tracing,
        # alternating which goes first, so the two medians compare like ops.
        modes = ((True, False) if i % 2 == 0 else (False, True)) if trace else (False,)
        for traced_mode in modes:
            if traced_mode:
                tracer.op = i
                with tracer:
                    elapsed, result = timed_call(workload, i)
                traced[i] = elapsed
            else:
                elapsed, result = timed_call(workload, i)
                times.append(elapsed)
            attempted += 1
            failed += result is None or not workload.check(i, result)
        i += 1
    done = [workload.query(j) for j in range(i)] if isinstance(workload, QueryWorkload) else []

    tail_pct, tail_ns = tail(sorted(times))
    report = {
        "workload": name,
        "ops": len(times),
        "op_p50_ms": statistics.median(times) / 1e6,
        "tail_percentile": round(tail_pct, 2),
        "op_tail_ms": tail_ns / 1e6,
        "setup_s_each": setup_s,
        "failed_ratio": failed / attempted,
        **query_properties(done),
    }
    if name == "ingest":
        report["pages_per_s"] = PAGES * 1e9 * len(times) / sum(times)
    print("environment: " + json.dumps(environment(workload)))

    if trace:
        values = tracer.layer_metrics(traced)
        values["trace.overhead_ratio"] = (
            statistics.median(traced.values()) / statistics.median(times) - 1
        )
        report.update({k: values[k] for k in (
            "search.prefilter_survivors", "search.distinct_pair_ratio",
            "search.token_cache_hit_ratio", "trace.overhead_ratio", "trace.uncovered_ratio")})
        if spans_path is not None:
            tracer.write(spans_path)
        units = PER_LAYER
    else:
        values = {
            "setup_s": statistics.median(setup_s),
            "ok_ratio": (attempted - failed) / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "op_tail_ms": report["op_tail_ms"],
            "ops_per_s": 1e9 * len(times) / sum(times),
            "index_bytes_per_word": workload.index_bytes / len(workload.corpus.words),
        }
        units = END_TO_END
    print("report: " + json.dumps(report))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": unit} for k, unit in units.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    work = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    home = os.getcwd()
    os.chdir(work)
    spans = ROOT / ".perfbench" / f"spans-{args.workload}-{args.seed}.tsv.gz"
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), spans)
    finally:
        os.chdir(home)
        shutil.rmtree(work)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
