"""What the benchmark relies on in the program.

`perfbench/tracing.py` wraps each function it times by looking its name up
in its wordspot module, and counts a cold query's encoding as calls to
`word_to_wst`. `perfbench/run.py` and `perfbench/oracle.py` read a loaded
index's records and docs, and a search's matches, by the names pinned here.
The benchmark is only read here, never changed.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

from glyphs import compose_page, metrics
from wordspot.index import build_index, load_index, save_index
from wordspot.search import MatchResult, search

# The module, not the `search` function the package exports under that name.
SEARCH = importlib.import_module("wordspot.search")
TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    layers = load_tracing().LAYERS
    assert "word_to_wst" in layers["shapecode"]
    for layer, names in layers.items():
        module = importlib.import_module(f"wordspot.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"wordspot.{layer}.{name}"


def test_cold_search_encodes_once_per_loaded_page_at_most(monkeypatch):
    lines = [["dipped", "help", "sauce"], ["drop", "tenth", "dipped"]]
    pages = {
        f"p{n}": compose_page([(metrics(40), words) for words in lines[n:] + lines[:n]],
                              width=900).image
        for n in range(2)
    }
    index = build_index(list(pages.items()))
    loaded = []

    def load(doc_id):
        loaded.append(doc_id)
        return pages[doc_id]

    calls = []
    encode = SEARCH.word_to_wst

    def counted(*args):
        calls.append(args)
        return encode(*args)

    monkeypatch.setattr(SEARCH, "word_to_wst", counted)
    matches = search(index, load, "help")
    assert {m.record.doc_id for m in matches} == set(pages)
    assert sorted(loaded) == sorted(pages)
    assert 1 <= len(calls) <= len(loaded)

    # Tokens are cached: the same query again loads and encodes nothing.
    search(index, load, "help")
    assert len(calls) <= len(loaded) == len(pages)


def two_line_page():
    lines = [["dipped", "help"], ["drop", "tenth", "sauce"]]
    return compose_page([(metrics(40), words) for words in lines], width=900)


def test_loaded_index_fields_the_benchmark_reads():
    # `run.index_agrees` compares each record's doc, line, word and box
    # corners and each doc's path with the generated corpus; the tracer
    # counts a load's records with len().
    layout = two_line_page()
    built = build_index([("p", layout.image)], source_paths={"p": "pages/p.pgm"})
    index = load_index(save_index(built))
    assert len(index.records) == 5
    assert [doc.path for doc in index.docs] == ["pages/p.pgm"]
    got = [(r.doc_id, r.line_idx, r.word_idx, (r.box.x1, r.box.y1, r.box.x2, r.box.y2))
           for r in index.records]
    assert got == [
        ("p", line, word, (b.x1, b.y1, b.x2, b.y2))
        for line, boxes in enumerate(layout.boxes)
        for word, b in enumerate(boxes)
    ]


def test_search_takes_the_page_provider_second_and_positionally():
    # The tracer swaps `args[1]` of each `search` call for a counting
    # provider; the workloads call `search(index, load_page, text)`.
    params = list(inspect.signature(search).parameters.values())
    assert [p.name for p in params[:3]] == ["index", "load_page", "text"]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params[:3])
    layout = two_line_page()
    index = build_index([("p", layout.image)])
    matches = search(index, lambda doc_id: layout.image, "help")
    # `oracle.search_results` reads each match's record and distance.
    best = matches[0]
    assert isinstance(best, MatchResult) and best.distance == 0
    record = best.record
    assert (record.doc_id, record.line_idx, record.word_idx) == ("p", 0, 1)
    assert record.box == layout.boxes[0][1]
