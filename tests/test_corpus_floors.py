"""Floors on two generated pages: retrieval quality and index size.

The pages come from `perfbench/corpus.generate`, which knows the text of
every word it draws, and are indexed by `wordspot index` as the benchmark
indexes its corpus, from their own directory. The seeds were named before
their numbers were measured. A change that raises quality raises the
floors with it and names the new numbers.
"""

import importlib
from pathlib import Path

import pytest

from wordspot.cli import main
from wordspot.index import load_index
from wordspot.pnm import binarize, load_image
from wordspot.search import search

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
PAGES = 2

# Pooled recall, pooled precision and mAP of every vocabulary word as a
# query, on the PAGES pages of each seed; measured as 0.4499, 0.0673 and
# 0.4473 on seed 17, and 0.4485, 0.0734 and 0.4341 on seed 23.
QUALITY_FLOORS = {17: (0.449, 0.067, 0.447), 23: (0.448, 0.073, 0.434)}

# Index file bytes per ground-truth word on the PAGES pages of SIZE_SEED.
SIZE_SEED = 17
MAX_BYTES_PER_WORD = 14.5


@pytest.fixture(scope="module")
def indexed(tmp_path_factory):
    """A function of a seed that generates its PAGES pages and indexes them,
    once per seed; it returns the ground-truth words, the index file's
    bytes and the binarized pages by doc id."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        corpus = importlib.import_module("corpus")
    built = {}

    def build(seed):
        if seed not in built:
            root = tmp_path_factory.mktemp(f"seed{seed}")
            with pytest.MonkeyPatch.context() as mp:
                mp.chdir(root)
                generated = corpus.generate(seed, PAGES, Path("."))
                assert main(["index", *generated.page_paths, "--out", "corpus.wsidx"]) == 0
            pages = {
                Path(path).stem: binarize(load_image((root / path).read_bytes()))
                for path in generated.page_paths
            }
            built[seed] = (generated, (root / "corpus.wsidx").read_bytes(), pages)
        return built[seed]

    return build


@pytest.mark.parametrize("seed", sorted(QUALITY_FLOORS))
def test_retrieval_quality_at_or_above_its_floor(indexed, seed):
    # Each distinct word on the pages is one query at the default threshold.
    # A result is relevant when the ground truth at its (doc, line, word)
    # has the query's text, and every ground-truth word of that text counts
    # as relevant, found or not. Results are ranked as `search` returns
    # them: by distance, then in record order. Recall and precision are
    # pooled, summed over all queries before dividing; mAP is the mean over
    # queries of average precision, the sum of the precision at each
    # relevant result's rank divided by the query's number of relevant
    # words.
    generated, data, pages = indexed(seed)
    index = load_index(data)
    truth = {word.key: word.text for word in generated.words}
    relevant = found = returned = 0
    average_precisions = []
    for text in generated.vocabulary:
        matches = search(index, pages.__getitem__, text)
        hits, precision_sum = 0, 0.0
        for rank, match in enumerate(matches, start=1):
            record = match.record
            if truth.get((record.doc_id, record.line_idx, record.word_idx)) == text:
                hits += 1
                precision_sum += hits / rank
        count = sum(word.text == text for word in generated.words)
        average_precisions.append(precision_sum / count)
        relevant, found, returned = relevant + count, found + hits, returned + len(matches)
    scores = (found / relevant, found / returned, sum(average_precisions) / len(average_precisions))
    assert all(score >= floor for score, floor in zip(scores, QUALITY_FLOORS[seed])), scores


def test_index_bytes_per_word_at_most_its_bound(indexed):
    # The benchmark's index_bytes_per_word, on two pages: the DOC lines'
    # share is larger than on its 20.
    generated, data, _ = indexed(SIZE_SEED)
    assert len(data) / len(generated.words) <= MAX_BYTES_PER_WORD
