"""What the benchmark's tracer relies on in the program.

`perfbench/tracing.py` wraps each function it times by looking its name up
in its wordspot module, and counts a cold query's encoding as calls to
`word_to_wst`. The tracer is only read here, never changed.
"""

import importlib
import importlib.util
from pathlib import Path

from glyphs import compose_page, metrics
from wordspot.index import build_index
from wordspot.search import search

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
