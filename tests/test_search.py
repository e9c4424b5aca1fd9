"""Edit distance, size prefiltering, and end-to-end search."""

import itertools
import random
import weakref
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
    load_index,
    save_index,
)
from wordspot.pnm import BinaryImage, GrayImage, binarize, ink_cut
from wordspot.search import (
    MatchResult,
    MissingPageError,
    distances,
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
    segment_words,
)
from wordspot.shapecode import (
    LETTER_CODES,
    UnsupportedCharacterError,
    estimate_zones,
    query_to_wst,
    word_to_wst,
    zones_from_bands,
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


def reference_distance(a, b):
    """Edit distance by the textbook two-row dynamic program, one cell at a
    time; independent of `distances`."""
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            current.append(
                min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + (ca != cb))
            )
        previous = current
    return previous[-1]


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


# Shape symbols, so that words share symbols with the query, or any other
# character, astral ones too.
any_text = st.text(st.sampled_from("Axg") | st.characters(), max_size=12)


class TestDistances:
    @given(any_text, st.lists(any_text, max_size=20), st.data())
    @example("AxgA", ["", "AxgA", "AxgA", "x", "gAxgAxgAx", ""], None)
    @example("", ["", "xyz"], None)
    @example("xAg", [], None)
    @example("é😀x", ["x😀é", "😀", "\ud800", "é😀x\ud800"], None)
    def test_equal_to_the_reference_dp(self, query, words, data):
        if words and data is not None:
            # Repeat some words, so that duplicates are scored too.
            words = words + data.draw(st.lists(st.sampled_from(words), max_size=5))
        got = distances(query, words)
        assert got.shape == (len(words),)
        assert got.dtype.kind == "i"
        assert got.tolist() == [reference_distance(query, w) for w in words]

    def test_levenshtein_is_the_one_word_case(self):
        rng = random.Random(37)
        words = [random_wst(rng) for _ in range(50)]
        for query in words[:10]:
            assert [levenshtein(query, w) for w in words] == distances(query, words).tolist()


def index_with_norms(norms, tokens=None):
    """A page "d" of one line of 60 rows, holding a word of each normalized
    length, left to right with no columns between them: a box 60 rows high
    is as wide as its length. `tokens`, if given, are the words' tokens, as
    a query would have computed them."""
    ends = np.cumsum(norms).tolist()
    words = [(0, end - norm, 0, end - 1, 59) for norm, end in zip(norms, ends)]
    doc = DocEntry("d", "d", max(1, sum(norms)), 60)
    index = WordIndex([doc], [(0, 0, 59, 0, 59)], words)
    if tokens is not None:
        index.tokens[:] = tokens
    return index


class TestSizePrefilter:
    def test_window_for_five_letters(self):
        index = index_with_norms([159, 160, 200, 240, 241, 300])
        kept = size_prefilter(index, 5)
        assert [index.records[p].box.width for p in kept] == [160, 200, 240]

    def test_single_letter_window_starts_at_zero(self):
        index = index_with_norms([1, 40, 80, 81])
        kept = size_prefilter(index, 1)
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
    index = build_index([(doc_id, layout.image)])
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

    @pytest.mark.parametrize("threshold", [-1, float("nan")])
    def test_threshold_below_zero_or_nan_rejected(self, threshold):
        layout, index, pos = build_corpus([["help"]])
        with pytest.raises(ValueError, match=f"threshold must be >= 0, got {threshold}"):
            search(index, lambda doc: layout.image, "help", threshold)

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
                      threshold=5.0)
        narrow = search(index, lambda doc: layout.image, "drop",
                        threshold=1.0)
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


def brute_force_matches(index, text, threshold):
    """Every prefilter survivor scored by the reference DP, no gate, no
    memo."""
    query = query_to_wst(text)
    scored = [
        (reference_distance(query, rec.wst), rec.doc_id, rec.line_idx, rec.word_idx)
        for rec in map(index.record, size_prefilter(index, len(text)))
    ]
    return sorted(m for m in scored if m[0] <= threshold)


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
        def no_pages(doc):
            raise AssertionError("every token is cached")

        got = sorted(
            (m.distance, m.record.doc_id, m.record.line_idx, m.record.word_idx)
            for m in search(index, no_pages, text, threshold)
        )
        assert got == brute_force_matches(index, text, threshold)


class TestBuildLines:
    def test_tokens_come_from_the_lines_the_build_recorded(self):
        # A lone one-letter line is below a high noise threshold of 30, so
        # the lines of an index built at it are narrower than, and numbered
        # differently from, the bands that default segmentation of the page
        # gives.
        layout = corpus_page(
            [["a"], ["dipped", "help", "sauce"], ["drop", "paper", "noon"]], width=1200
        )
        page = layout.image
        counts = row_profile(page)
        starts, ends = segment_lines(counts, 30)
        build_bands = list(zip(starts.tolist(), ends.tolist()))
        tops, bottoms = zones_from_bands(counts, starts, ends)
        lines = np.column_stack((np.zeros_like(starts), starts, ends, tops, bottoms))
        words = segment_words(page, starts, ends)
        doc = DocEntry("page", "page", page.width, page.height)
        index = WordIndex([doc], lines, words)
        assert len(segment_lines(counts, default_noise_threshold(page.width))[0]) == 3
        assert len(build_bands) == 2
        assert index.lines[:, 1:].tolist() == [
            [*band, *estimate_zones(page, *band)] for band in build_bands
        ]

        for n in range(1, 12):
            search(index, lambda doc: page, "x" * n, threshold=0)
        for rec, n in zip(index.records, index.words[:, 0].tolist()):
            _, row_start, row_end, *body = index.lines[n].tolist()
            box = rec.box
            assert [rec.wst] == word_to_wst(
                [(page, 1)], [(box.x1, box.y1, box.x2, box.y2)], [body], [row_end - row_start + 1]
            )

    def test_tokens_follow_the_zones_the_index_records(self):
        # With each line's body band widened to the whole line, no ink
        # reaches an ascender or descender zone: every token is all `x`.
        layout = corpus_page([["dipped", "help", "sauce"], ["drop", "paper", "noon"]])
        built = build_index([("page", layout.image)])
        # Page, rows and rows again as the body band, of each line.
        index = WordIndex(built.docs, built.lines[:, [0, 1, 2, 1, 2]], built.words)
        for n in range(1, 12):
            search(index, lambda doc: layout.image, "x" * n, threshold=0)
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
    return build_index(list(images.items())), images


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

    def test_tokens_a_search_filled_are_not_saved(self):
        # Tokens live in the process that computed them: the file an index
        # saves to is the same before and after a search fills them.
        index, images = two_page_index()
        before = save_index(index)
        search(index, images.__getitem__, "help")
        assert any(index.tokens) and None in index.tokens
        assert save_index(index) == before
        again = load_index(before)
        assert again == index and again.tokens == [None] * len(index.tokens)

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

    def test_each_page_released_before_the_next_is_loaded(self):
        index, images = two_page_index()
        refs = []
        alive_at_load = []

        def provider(doc):
            alive_at_load.append([ref() is not None for ref in refs])
            # A fresh image per load, which only the search holds.
            page = images[doc]
            page = BinaryImage(page.width, page.height, page.bits.copy())
            refs.append(weakref.ref(page))
            return page

        for text in ("help", "dipped", "x", "paper"):
            search(index, provider, text)
        assert len(refs) >= 4
        assert all(not any(alive) for alive in alive_at_load)
        assert all(ref() is None for ref in refs)

    def test_pages_loaded_in_first_survivor_order(self):
        index, images = two_page_index()
        order = []
        search(index, lambda doc: order.append(doc) or images[doc], "help")
        survivors = size_prefilter(index, 4).tolist()
        first_seen = list(dict.fromkeys(index.records[p].doc_id for p in survivors))
        assert order == first_seen == ["one", "two"]


class TestRecordedPageSize:
    """`search` refuses a page whose size differs from the one the index
    recorded, whatever provider gave it: the index's boxes do not describe
    it."""

    def corpus(self):
        layout = corpus_page([["dipped", "help", "sauce"]], width=900)
        return layout.image, build_index([("page", layout.image)])

    def test_page_shifted_on_a_larger_canvas_refused(self):
        # Read through the index's boxes, this page would match `help` with
        # word 0, `dipped`, at distance 2, and miss word 1.
        image, index = self.corpus()
        bits = np.ones((image.height + 50, image.width + 50), dtype=np.uint8)
        bits[:image.height, 30 : 30 + image.width] = image.bits
        shifted = BinaryImage(image.width + 50, image.height + 50, bits)
        with pytest.raises(MissingPageError) as err:
            search(index, lambda doc: shifted, "help")
        assert str(err.value) == (
            f"cannot load page image for doc 'page': page is 950x{image.height + 50}, "
            f"index recorded 900x{image.height}"
        )
        assert err.value.doc_id == "page"
        assert index.tokens == [None] * len(index.tokens)

    def test_cropped_page_refused(self):
        # `help` lies inside the crop, so a search that read it would find it.
        image, index = self.corpus()
        cropped = BinaryImage(500, image.height, image.bits[:, :500])
        with pytest.raises(MissingPageError) as err:
            search(index, lambda doc: cropped, "help")
        assert str(err.value) == (
            f"cannot load page image for doc 'page': page is 500x{image.height}, "
            f"index recorded 900x{image.height}"
        )

    def test_binarized_page_of_the_recorded_size_accepted(self):
        image, index = self.corpus()
        gray = gray_page(image, 255, seed=0)
        results = search(index, lambda doc: binarize(gray), "help")
        assert results[0].distance == 0
        assert (results[0].record.line_idx, results[0].record.word_idx) == (0, 1)
