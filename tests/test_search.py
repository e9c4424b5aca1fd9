"""Edit distance, size prefiltering, and end-to-end search."""

import itertools
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from glyphs import compose_page, metrics
from wordspot.index import (
    DocEntry,
    WordIndex,
    WordRecord,
    build_index,
)
from wordspot.pnm import GrayImage, binarize, ink_cut
from wordspot.search import (
    MatchResult,
    MissingPageError,
    SearchParams,
    format_result,
    levenshtein,
    search,
    size_prefilter,
)
from wordspot.segment import (
    WordBox,
    default_noise_threshold,
    row_profile,
    segment_lines,
)
from wordspot.shapecode import (
    LETTER_CODES,
    UnsupportedCharacterError,
    estimate_zones,
    query_to_wst,
    word_to_wst,
)


def naive_levenshtein(a, b):
    if not a:
        return len(b)
    if not b:
        return len(a)
    return min(
        naive_levenshtein(a[:-1], b) + 1,
        naive_levenshtein(a, b[:-1]) + 1,
        naive_levenshtein(a[:-1], b[:-1]) + (a[-1] != b[-1]),
    )


def random_wst(rng, max_len=12):
    return "".join(rng.choice("Axg") for _ in range(rng.randint(0, max_len)))


class TestLevenshtein:
    def test_identity(self):
        assert levenshtein("AxxA", "AxxA") == 0

    def test_insertions_from_empty(self):
        assert levenshtein("", "xxg") == 3
        assert levenshtein("xxg", "") == 3

    def test_two_substitutions(self):
        assert levenshtein("AxgA", "AgxA") == 2

    def test_exhaustive_small_against_recursive_definition(self):
        strings = [
            "".join(p)
            for n in range(0, 4)
            for p in itertools.product("Axg", repeat=n)
        ]
        for a in strings:
            for b in strings:
                assert levenshtein(a, b) == naive_levenshtein(a, b)

    def test_length_bounds(self):
        rng = random.Random(23)
        for _ in range(300):
            a, b = random_wst(rng), random_wst(rng)
            d = levenshtein(a, b)
            assert abs(len(a) - len(b)) <= d <= max(len(a), len(b), 0)

    def test_symmetry(self):
        rng = random.Random(29)
        for _ in range(200):
            a, b = random_wst(rng), random_wst(rng)
            assert levenshtein(a, b) == levenshtein(b, a)


def index_with_norms(norms, tokens=None):
    """An 800x600 page "d" with one line of 60 rows, holding a word of each
    normalized length: a box 60 rows high is as wide as its length."""
    words = [(0, 0, 0, norm - 1, 59) for norm in norms]
    tokens = [None] * len(norms) if tokens is None else tokens
    return WordIndex(60, [DocEntry("d", "d", 800, 600)], [(0, 0, 59, 0, 59)], words, tokens)


class TestSizePrefilter:
    def test_window_for_five_letters(self):
        index = index_with_norms([159, 160, 200, 240, 241, 300])
        kept = size_prefilter(index, 5, SearchParams(char_width=40))
        assert [index.records[p].box.width for p in kept] == [160, 200, 240]

    def test_single_letter_window_starts_at_zero(self):
        index = index_with_norms([1, 40, 80, 81])
        kept = size_prefilter(index, 1, SearchParams(char_width=40))
        assert [index.records[p].box.width for p in kept] == [1, 40, 80]

    def test_matches_brute_force_over_all_records(self):
        rng = random.Random(31)
        norms = [rng.randint(1, 700) for _ in range(200)]
        index = index_with_norms(norms)
        for query_len in (1, 2, 5, 9, 14):
            lo = (query_len - 1) * 40
            hi = (query_len + 1) * 40
            expected = sorted(
                r.word_idx for r in index.records if lo <= r.box.width <= hi
            )
            got = sorted(index.records[p].word_idx for p in size_prefilter(index, query_len))
            assert got == expected

    def test_rejects_bad_query_len(self):
        with pytest.raises(ValueError):
            size_prefilter(index_with_norms([100]), 0)


def corpus_page(words_by_line, font=40, width=1400):
    layout = compose_page([(metrics(font), line) for line in words_by_line], width=width)
    return layout


def build_corpus(words_by_line, doc_id="page"):
    layout = corpus_page(words_by_line)
    index = build_index([(doc_id, layout.image)], ref_font=60)
    positions = {}
    for li, line in enumerate(layout.words):
        for wi, text in enumerate(line):
            positions[text] = (li, wi)
    return layout, index, positions


class TestSearch:
    def test_planted_word_found_at_distance_zero(self):
        layout, index, pos = build_corpus([["dipped", "help", "sauce"]])
        results = search(index, lambda doc: layout.image, "help")
        assert results
        top = results[0]
        assert (top.record.line_idx, top.record.word_idx) == pos["help"]
        assert top.distance == 0

    def test_no_match_when_all_far(self):
        layout, index, pos = build_corpus([["dipped", "python", "sauce"]])
        # "mummy" -> xxxxxxxxg: far from everything planted of similar size
        results = search(index, lambda doc: layout.image, "quest")
        assert results == []

    def test_results_subset_of_prefilter_and_threshold_monotone(self):
        layout, index, pos = build_corpus(
            [["dipped", "help", "sauce"], ["drop", "paper", "noon"]]
        )
        wide = search(index, lambda doc: layout.image, "drop",
                      SearchParams(threshold=5.0))
        narrow = search(index, lambda doc: layout.image, "drop",
                        SearchParams(threshold=1.0))
        wide_keys = {(m.record.line_idx, m.record.word_idx) for m in wide}
        narrow_keys = {(m.record.line_idx, m.record.word_idx) for m in narrow}
        assert narrow_keys <= wide_keys
        prefilter_keys = {
            (index.records[p].line_idx, index.records[p].word_idx)
            for p in size_prefilter(index, 4)
        }
        assert wide_keys <= prefilter_keys

    def test_identical_words_tie_broken_by_position(self):
        layout, index, pos = build_corpus(
            [["dipped", "help", "sauce"], ["help", "dotted", "noon"]]
        )
        results = search(index, lambda doc: layout.image, "help")
        zero = [m for m in results if m.distance == 0]
        assert len(zero) == 2
        keys = [(m.record.line_idx, m.record.word_idx) for m in zero]
        assert keys == sorted(keys)

    def test_wst_cached_after_search(self):
        layout, index, pos = build_corpus([["dipped", "help", "sauce"]])
        loads = []

        def provider(doc):
            loads.append(doc)
            return layout.image

        first = search(index, provider, "help")
        assert loads  # pages were needed
        cached = [index.tokens[p] for p in size_prefilter(index, 4)]
        assert all(w is not None for w in cached)
        loads.clear()
        second = search(index, provider, "help")
        assert loads == []  # cache hit, no page loads
        assert [(m.record.word_idx, m.distance) for m in first] == [
            (m.record.word_idx, m.distance) for m in second
        ]

    def test_missing_page_error_names_doc(self):
        layout, index, pos = build_corpus([["dipped", "help", "sauce"]])

        def provider(doc):
            raise FileNotFoundError("gone")

        with pytest.raises(MissingPageError) as err:
            search(index, provider, "help")
        assert "page" in str(err.value)

    def test_empty_and_unsupported_queries(self):
        layout, index, pos = build_corpus([["dipped", "help", "sauce"]])
        with pytest.raises(ValueError):
            search(index, lambda doc: layout.image, "")
        with pytest.raises(UnsupportedCharacterError):
            search(index, lambda doc: layout.image, "a1")

    def test_deterministic_ranked_output(self):
        layout, index, pos = build_corpus(
            [["dipped", "help", "sauce"], ["drop", "paper", "noon"]]
        )
        runs = []
        for _ in range(2):
            results = search(index, lambda doc: layout.image, "drop")
            runs.append([format_result(m) for m in results])
        assert runs[0] == runs[1]


class TestFormatResult:
    def test_line_format(self):
        rec = WordRecord("doc1", 2, 7, WordBox(0, 0, 99, 59))
        line = format_result(MatchResult(rec, 1))
        assert line == "1 doc1 2 7 0 0 99 59"


def brute_force_matches(index, text, params):
    """Every prefilter survivor scored by `levenshtein`, no gate, no memo."""
    query = query_to_wst(text)
    scored = [
        (levenshtein(query, rec.wst), rec.doc_id, rec.line_idx, rec.word_idx)
        for rec in map(index.record, size_prefilter(index, len(text), params))
    ]
    return sorted(m for m in scored if m[0] <= params.threshold)


class TestDistanceGateAndMemo:
    @given(
        st.lists(
            st.tuples(st.integers(1, 500), st.text("Axg", min_size=1, max_size=14)),
            max_size=80,
        ),
        st.text("".join(LETTER_CODES), min_size=1, max_size=8),
        st.floats(0.0, 5.0),
    )
    @example([(100, "x"), (100, "xA"), (90, "xAg"), (100, "xA"), (80, "x")], "at", 2.5)
    @example([(100, "xxA"), (100, "xxA"), (100, "Ax")], "to", 0.0)
    def test_same_matches_as_scoring_every_pair(self, words, text, threshold):
        # Few distinct token lengths and repeats, so both the gate and the
        # per-query memo are exercised.
        index = index_with_norms([n for n, _ in words], [wst for _, wst in words])
        params = SearchParams(threshold=threshold)

        def no_pages(doc):
            raise AssertionError("every token is cached")

        got = sorted(
            (m.distance, m.record.doc_id, m.record.line_idx, m.record.word_idx)
            for m in search(index, no_pages, text, params)
        )
        assert got == brute_force_matches(index, text, params)


class TestBuildLines:
    def test_tokens_come_from_the_lines_the_build_recorded(self):
        # A lone one-letter line is below the build's high noise threshold,
        # so the build's lines are narrower than, and numbered differently
        # from, the bands that default segmentation of the page gives.
        layout = corpus_page(
            [["a"], ["dipped", "help", "sauce"], ["drop", "paper", "noon"]], width=1200
        )
        page = layout.image
        index = build_index([("page", page)], ref_font=60, noise_threshold=30)
        counts = row_profile(page)
        build_bands = segment_lines(counts, 30)
        assert len(segment_lines(counts, default_noise_threshold(page.width))) == 3
        assert len(build_bands) == 2
        assert [line.band for line in index.lines] == build_bands
        assert [line.zones for line in index.lines] == [
            estimate_zones(page, band) for band in build_bands
        ]

        for n in range(1, 12):
            search(index, lambda doc: page, "x" * n, SearchParams(threshold=0))
        for rec, n in zip(index.records, index.record_lines.tolist()):
            line = index.lines[n]
            box, zones = rec.box, line.zones
            assert [rec.wst] == word_to_wst(
                page,
                [(box.x1, box.y1, box.x2, box.y2)],
                [(zones.body_top, zones.body_bottom)],
                [line.band.height],
            )

    def test_tokens_follow_the_zones_the_index_records(self):
        # With each line's body band widened to the whole line, no ink
        # reaches an ascender or descender zone: every token is all `x`.
        layout = corpus_page([["dipped", "help", "sauce"], ["drop", "paper", "noon"]])
        built = build_index([("page", layout.image)], ref_font=60)
        # Page, rows and rows again as the body band, of each line.
        lines = built.line_table[:, [0, 2, 3, 2, 3]]
        words = np.column_stack((built.record_lines, built.record_table[:, 3:]))
        index = WordIndex(60, built.docs, lines, words, built.tokens)
        for n in range(1, 12):
            search(index, lambda doc: layout.image, "x" * n, SearchParams(threshold=0))
        assert [set(rec.wst) for rec in index.records] == [{"x"}] * 6


def gray_page(image, maxval, seed):
    """A gray page that binarizes to the binary `image`, with ink pixels
    drawn below the ink cut and background pixels at or above it."""
    rng = np.random.default_rng(seed)
    cut = ink_cut(maxval)
    ink = rng.integers(0, cut, image.bits.shape)
    background = rng.integers(cut, maxval + 1, image.bits.shape)
    pixels = np.where(image.bits == 0, ink, background)
    dtype = np.uint8 if maxval < 256 else np.uint16
    return GrayImage(image.width, image.height, maxval, pixels.astype(dtype))


def two_page_index():
    """An index of two rendered pages, "one" and "two", and their images."""
    images = {
        "one": corpus_page([["dipped", "help", "sauce"], ["drop", "paper", "noon"]]).image,
        "two": corpus_page([["help", "dotted", "noon"], ["python", "drop", "tenth"]]).image,
    }
    return build_index(list(images.items()), ref_font=60), images


def tokens_and_matches(index, provider, queries):
    out = []
    for text in queries:
        matches = search(index, provider, text)
        out.append([(format_result(m), m.record.wst) for m in matches])
    return out, list(index.tokens)


class TestGrayPages:
    # Words of the pages, then queries of every length, which reach every record.
    queries = ["help", "drop", "noon", "dipped", "paper", "dotted"]
    queries += ["x" * n for n in range(1, 16)]

    @pytest.mark.parametrize("maxval", [1, 255, 256, 65535, 1000])
    def test_gray_provider_gives_the_binarize_providers_matches_and_tokens(self, maxval):
        _, images = two_page_index()
        grays = {
            doc: gray_page(img, maxval, seed) for seed, (doc, img) in enumerate(images.items())
        }
        assert all(binarize(grays[doc]) == images[doc] for doc in images)
        from_gray = tokens_and_matches(two_page_index()[0], grays.__getitem__, self.queries)
        from_binary = tokens_and_matches(
            two_page_index()[0], lambda doc: binarize(grays[doc]), self.queries
        )
        assert from_gray == from_binary
        assert None not in from_gray[1]

    def test_match_records_are_word_records_with_their_tokens(self):
        index, images = two_page_index()
        matches = search(index, images.__getitem__, "help")
        assert matches
        for m in matches:
            assert isinstance(m.record, WordRecord)
            assert m.record == index.records[
                next(p for p, r in enumerate(index.records)
                     if (r.doc_id, r.line_idx, r.word_idx)
                     == (m.record.doc_id, m.record.line_idx, m.record.word_idx))
            ]
            assert m.record.wst is not None


class TestPageLoads:
    def counting(self, images):
        loads = Counter()

        def provider(doc):
            loads[doc] += 1
            return images[doc]

        return provider, loads

    def test_each_page_loaded_at_most_once_per_query(self):
        index, images = two_page_index()
        provider, loads = self.counting(images)
        for text in ("help", "drop", "dipped", "x", "noon"):
            loads.clear()
            search(index, provider, text)
            assert set(loads.values()) <= {1}
            survivors = size_prefilter(index, len(text)).tolist()
            assert sum(loads.values()) <= len({index.records[p].doc_id for p in survivors})

    def test_no_page_loaded_when_every_survivor_has_a_token(self):
        index, images = two_page_index()
        provider, loads = self.counting(images)
        search(index, provider, "help")
        assert sum(loads.values()) == 2
        loads.clear()
        search(index, provider, "noon")  # same length: the same survivors
        assert loads == Counter()

    def test_pages_loaded_in_first_survivor_order(self):
        index, images = two_page_index()
        order = []
        search(index, lambda doc: order.append(doc) or images[doc], "help")
        survivors = size_prefilter(index, 4).tolist()
        first_seen = list(dict.fromkeys(index.records[p].doc_id for p in survivors))
        assert order == first_seen == ["one", "two"]
