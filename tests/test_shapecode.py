"""Zone detection, valley region cuts, region classification, query expansion."""

import random

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from glyphs import compose_page, metrics, word_symbols
from wordspot.pnm import BinaryImage, GrayImage, binarize, ink_cut
from wordspot.segment import (
    WordBox,
    default_noise_threshold,
    row_profile,
    segment_lines,
    segment_words,
)
from wordspot.shapecode import (
    LETTER_CODES,
    SHAPE_CODE_ROWS,
    NoInkError,
    UnsupportedCharacterError,
    char_region_segment,
    classify_region,
    estimate_zones,
    query_to_wst,
    word_to_wst,
    zones_from_bands,
)
from wordspot.util import round_half_up

# Independent copy of the published letter-expansion table, frozen here so a
# typo in the shipped table cannot silently agree with itself.
EXPECTED_CODES = {
    "A": "A", "B": "A", "C": "A", "D": "A", "E": "A", "F": "A", "G": "A",
    "I": "A", "J": "A", "K": "A", "O": "A", "P": "A", "Q": "A", "R": "A",
    "S": "A", "T": "A", "X": "A", "Y": "A", "Z": "A",
    "b": "A", "d": "A", "k": "A", "l": "A", "t": "A",
    "H": "AA", "M": "AA", "N": "AA", "U": "AA", "V": "AA", "W": "AA",
    "L": "Ax", "h": "Ax",
    "a": "x", "c": "x", "e": "x", "i": "x", "o": "x", "s": "x", "x": "x", "z": "x",
    "g": "g", "p": "g", "q": "g", "j": "g", "f": "g",
    "n": "xx", "r": "xx", "u": "xx", "v": "xx",
    "y": "xg",
    "m": "xxx", "w": "xxx",
}


def image_with_row_counts(counts, width):
    """Row r gets counts[r] ink pixels packed from the left."""
    bits = np.ones((len(counts), width), dtype=np.uint8)
    for r, n in enumerate(counts):
        bits[r, :n] = 0
    return BinaryImage(width, len(counts), bits)


def image_with_column_counts(counts, height):
    bits = np.ones((height, len(counts)), dtype=np.uint8)
    for c, n in enumerate(counts):
        bits[:n, c] = 0
    return BinaryImage(len(counts), height, bits)


class TestEstimateZones:
    def test_half_peak_run_containing_peak(self):
        img = image_with_row_counts([1, 1, 8, 9, 8, 1], 10)
        assert estimate_zones(img, 0, 5) == (2, 4)

    def test_rows_are_absolute(self):
        pad = np.ones((10, 10), dtype=np.uint8)
        inner = image_with_row_counts([1, 1, 8, 9, 8, 1], 10)
        bits = np.vstack([pad, inner.bits])
        img = BinaryImage(10, 16, bits)
        assert estimate_zones(img, 10, 15) == (12, 14)

    def test_uniform_counts_fill_band(self):
        img = image_with_row_counts([4, 4, 4, 4], 6)
        assert estimate_zones(img, 0, 3) == (0, 3)

    def test_rows_at_half_the_peak_join_the_body(self):
        img = image_with_row_counts([3, 4, 8, 5, 3], 10)
        assert estimate_zones(img, 0, 4) == (1, 3)

    def test_single_ink_row(self):
        img = image_with_row_counts([0, 3, 0], 5)
        assert estimate_zones(img, 0, 2) == (1, 1)

    def test_no_ink_raises(self):
        img = image_with_row_counts([0, 0], 4)
        with pytest.raises(NoInkError):
            estimate_zones(img, 0, 1)

    @pytest.mark.parametrize("band", [(0, 6), (-1, 3), (3, 2), (5, 1)])
    def test_band_empty_or_outside_the_image_raises(self, band):
        img = image_with_row_counts([1, 1, 8, 9, 8, 1], 10)
        with pytest.raises(ValueError) as err:
            estimate_zones(img, *band)
        assert str(err.value) == f"band {band[0]}..{band[1]} empty or outside rows 0..5"


class TestZonesFromBands:
    @pytest.mark.parametrize(
        "starts, ends, named",
        [
            ([1, 7], [4, 6], "7..6"),  # an empty band after a whole one
            ([5], [3], "5..3"),
            ([2, 0], [4, 10], "0..10"),
            ([-1], [2], "-1..2"),
        ],
    )
    def test_band_empty_or_outside_the_rows_refused(self, starts, ends, named):
        counts = np.array([1, 2, 3, 2, 1, 0, 2, 3, 2, 1], dtype=np.int32)
        with pytest.raises(ValueError) as err:
            zones_from_bands(counts, np.array(starts), np.array(ends))
        assert str(err.value) == f"band {named} empty or outside rows 0..9"


class TestCharRegionSegment:
    # The valley slack is 1 column pixel: columns of the least ink count of a
    # word, or one more, are valleys. A font of 10 rows keeps regions of one
    # column; at 30, regions under 3 columns merge.

    def test_valley_columns_cut_to_right_region(self):
        img = image_with_column_counts([5, 6, 1, 5, 6, 2, 5], 6)
        regions = char_region_segment(img, font_size=10)
        assert regions == [(0, 1), (2, 4), (5, 6)]

    def test_wide_valley_cut_at_midpoint(self):
        img = image_with_column_counts([5, 5, 5, 1, 2, 1, 5, 5], 6)
        regions = char_region_segment(img, font_size=10)
        assert regions == [(0, 3), (4, 7)]

    def test_monotone_bump_single_region(self):
        img = image_with_column_counts([1, 2, 5], 6)
        assert char_region_segment(img, 10) == [(0, 2)]

    def test_valleys_are_within_one_of_the_least_count(self):
        assert len(char_region_segment(image_with_column_counts([5, 1, 5, 2, 5], 6), 10)) == 3
        assert len(char_region_segment(image_with_column_counts([5, 1, 5, 3, 5], 6), 10)) == 2

    def test_narrow_regions_merge_left(self):
        img = image_with_column_counts([9, 9, 1, 9, 2, 9, 9], 9)
        regions = char_region_segment(img, font_size=30)
        assert regions == [(0, 3), (4, 6)]

    def test_leftmost_narrow_region_merges_right(self):
        img = image_with_column_counts([9, 1, 9, 9, 9, 9], 9)
        regions = char_region_segment(img, font_size=30)
        assert regions == [(0, 5)]

    def test_no_ink_raises(self):
        img = image_with_column_counts([0, 0], 3)
        with pytest.raises(NoInkError):
            char_region_segment(img, 10)

    def test_regions_disjoint_ordered_cover(self):
        rng = random.Random(13)
        for _ in range(30):
            counts = [rng.randint(0, 8) for _ in range(rng.randint(1, 30))]
            if not any(counts):
                counts[0] = 1
            img = image_with_column_counts(counts, 8)
            regions = char_region_segment(img, 20)
            assert regions[0][0] == 0
            assert regions[-1][1] == img.width - 1
            for (_, end), (start, _) in zip(regions, regions[1:]):
                assert end + 1 == start


class TestClassifyRegion:
    def zones(self):
        return (3, 6)  # body height 4 -> margin delta 0

    def word(self, ink_rows, height=10, width=4):
        bits = np.ones((height, width), dtype=np.uint8)
        for r in ink_rows:
            bits[r, :] = 0
        return BinaryImage(width, height, bits)

    def test_body_only_is_x(self):
        word = self.word(range(3, 7))
        assert classify_region(word, (0, 3), self.zones()) == "x"

    def test_ascender_only_is_A(self):
        word = self.word(range(0, 7))
        assert classify_region(word, (0, 3), self.zones()) == "A"

    def test_descender_only_is_g(self):
        word = self.word(range(3, 10))
        assert classify_region(word, (0, 3), self.zones()) == "g"

    def test_both_zones_is_g(self):
        word = self.word(range(0, 10))
        assert classify_region(word, (0, 3), self.zones()) == "g"

    def test_margin_absorbs_near_body_ink(self):
        # body 10..29, height 20 -> delta 2: rows 8, 9, 30 and 31 are inside
        # the margin.
        zones = (10, 29)
        word = self.word(range(8, 32), height=40)
        assert classify_region(word, (0, 3), zones) == "x"
        word = self.word(range(7, 33), height=40)
        assert classify_region(word, (0, 3), zones) == "g"

    @pytest.mark.parametrize("region", [(2, 9), (5, 6), (-1, 2), (2, 1), (3, 0)])
    def test_region_empty_or_outside_the_word_rejected(self, region):
        with pytest.raises(ValueError) as err:
            classify_region(self.word(range(3, 7)), region, self.zones())
        assert str(err.value) == (
            f"region {region[0]}..{region[1]} empty or outside word columns 0..3"
        )

    @pytest.mark.parametrize("body", [(4, 3), (6, 3), (12, -5)])
    def test_empty_body_band_rejected(self, body):
        with pytest.raises(ValueError) as err:
            classify_region(self.word(range(3, 7)), (0, 3), body)
        assert str(err.value) == f"empty body band {body[0]}..{body[1]}"


class TestQueryToWst:
    def test_transformation(self):
        assert query_to_wst("transformation") == "AxxxxxxgxxxxxxxAxxxx"
        assert len(query_to_wst("transformation")) == 20

    def test_cat(self):
        assert query_to_wst("cat") == "xxA"

    def test_my(self):
        assert query_to_wst("my") == "xxxxg"

    def test_uppercase_single(self):
        assert query_to_wst("I") == "A"

    def test_mixed_case_legal(self):
        assert query_to_wst("Hi") == "AAx"

    def test_unsupported_character_named(self):
        with pytest.raises(UnsupportedCharacterError) as err:
            query_to_wst("a1")
        assert err.value.char == "1"
        assert err.value.position == 1

    def test_length_bounds(self):
        rng = random.Random(17)
        letters = "".join(LETTER_CODES)
        for _ in range(100):
            word = "".join(rng.choice(letters) for _ in range(rng.randint(1, 12)))
            out = query_to_wst(word)
            assert len(word) <= len(out) <= 3 * len(word)


class TestShapeTable:
    def test_all_52_letters_exactly_once(self):
        seen = []
        for _, letters in SHAPE_CODE_ROWS:
            seen.extend(letters)
        assert len(seen) == 52
        assert len(set(seen)) == 52
        lowers = {c for c in seen if c.islower()}
        uppers = {c for c in seen if c.isupper()}
        assert len(lowers) == 26 and len(uppers) == 26

    def test_matches_frozen_table(self):
        assert LETTER_CODES == EXPECTED_CODES

    def test_codes_use_shape_alphabet(self):
        for code, _ in SHAPE_CODE_ROWS:
            assert set(code) <= set("Axg")
            assert 1 <= len(code) <= 3


def render_line_page(words, font=40):
    layout = compose_page([(metrics(font), words)], width=1200)
    img = layout.image
    starts, ends = segment_lines(row_profile(img), default_noise_threshold(img.width))
    assert len(starts) == 1
    boxes = [WordBox(*box) for _, *box in segment_words(img, starts, ends).tolist()]
    assert len(boxes) == len(words)
    return img, (int(starts[0]), int(ends[0])), boxes


def encode_words(page, words):
    """word_to_wst on (box, zones, font size) words of one page, in one call."""
    return encode_runs([(page, len(words))], words)


def encode_runs(runs, words):
    """word_to_wst on (box, zones, font size) words, in one call, with runs
    of them on `(page, n)` pages."""
    return word_to_wst(
        runs,
        [(box.x1, box.y1, box.x2, box.y2) for box, _, _ in words],
        [zones for _, zones, _ in words],
        [font for _, _, font in words],
    )


def encode_word(page, band, box, zones=None):
    """word_to_wst on one word, against its (first, last) line band's height
    and its zones (estimated from the page when not given)."""
    if zones is None:
        zones = estimate_zones(page, *band)
    (wst,) = encode_words(page, [(box, zones, band[1] - band[0] + 1)])
    return wst


class TestWordToWst:
    def test_single_ascender_bar_with_explicit_zones(self):
        bits = np.ones((40, 6), dtype=np.uint8)
        bits[0:30, 1:5] = 0  # bar through ascender zone and body
        img = BinaryImage(6, 40, bits)
        assert word_to_wst([(img, 1)], [(1, 0, 4, 29)], [(10, 29)], [40]) == ["A"]

    def test_rendered_the_matches_expansion(self):
        img, band, boxes = render_line_page(["dipped", "the", "sauce"])
        wst = encode_word(img, band, boxes[1])
        assert wst == "AAxx"
        assert wst == query_to_wst("the")

    def test_every_letter_via_probe_words(self):
        # Each probe word brackets one letter with an ascender and a
        # descender; fillers keep the x-height row mass dominant.
        letters = sorted(LETTER_CODES)
        line_specs = []
        for i in range(0, len(letters), 4):
            probes = [f"d{c}p" for c in letters[i : i + 4]]
            line_specs.append((metrics(40), probes + ["essence"]))
        layout = compose_page(line_specs, width=900)
        img = layout.image
        starts, ends = segment_lines(row_profile(img), default_noise_threshold(img.width))
        assert len(starts) == len(line_specs)
        rows = segment_words(img, starts, ends).tolist()
        bands = zip(starts.tolist(), ends.tolist())
        for n, (band, (_, words)) in enumerate(zip(bands, line_specs)):
            boxes = [WordBox(*box) for line, *box in rows if line == n]
            assert len(boxes) == len(words)
            for box, text in zip(boxes, words):
                assert encode_word(img, band, box) == word_symbols(text), text

    def test_deterministic(self):
        img, band, boxes = render_line_page(["dipped", "python"])
        first = [encode_word(img, band, b) for b in boxes]
        second = [encode_word(img, band, b) for b in boxes]
        assert first == second

    def test_a_line_in_one_call_matches_word_by_word(self):
        img, band, boxes = render_line_page(["dipped", "the", "sauce", "mummy"])
        zones = estimate_zones(img, *band)
        font = band[1] - band[0] + 1
        tokens = encode_words(img, [(box, zones, font) for box in boxes])
        assert tokens == [encode_word(img, band, b) for b in boxes]
        assert word_to_wst([], np.empty((0, 4)), np.empty((0, 2)), []) == []

    def test_no_ink_propagates(self):
        bits = np.ones((10, 10), dtype=np.uint8)
        bits[2, 2] = 0
        img = BinaryImage(10, 10, bits)
        boxes = [(2, 2, 2, 2), (5, 5, 7, 7), (0, 0, 1, 1)]
        with pytest.raises(NoInkError) as err:
            word_to_wst([(img, 3)], boxes, [(5, 9)] * 3, [5] * 3)
        assert err.value.position == 1

    def test_no_ink_raised_before_the_next_page_is_taken(self):
        bits = np.ones((10, 10), dtype=np.uint8)
        blank = BinaryImage(10, 10, bits.copy())
        bits[2, 2] = 0
        inked = BinaryImage(10, 10, bits)
        taken = []

        def pages():
            for page in (inked, blank, inked):
                taken.append(page)
                yield page, 1

        with pytest.raises(NoInkError) as err:
            word_to_wst(pages(), [(2, 2, 2, 2)] * 3, [(5, 9)] * 3, [5] * 3)
        assert err.value.position == 1
        assert taken == [inked, blank]

    @pytest.mark.parametrize("runs", [[3, 1], [1, 1], [0, 3], [2, -1, 2]])
    def test_runs_that_do_not_cover_the_boxes_rejected(self, runs):
        bits = np.zeros((10, 10), dtype=np.uint8)
        img = BinaryImage(10, 10, bits)
        with pytest.raises(ValueError, match="boxes"):
            word_to_wst([(img, n) for n in runs], [(2, 2, 2, 2)] * 3, [(5, 9)] * 3, [5] * 3)

    @pytest.mark.parametrize(
        "box, body, message",
        [((0, 0, 10, 0), (0, 0), "box 0: 0 0 10 0 outside page 10x10"),
         ((0, 2, 9, 10), (2, 2), "box 0: 0 2 9 10 outside page 10x10"),
         ((0, -1, 0, 0), (0, 0), "box 0: 0 -1 0 0 empty or outside 0..999999"),
         ((3, 0, 2, 0), (0, 0), "box 0: 3 0 2 0 empty or outside 0..999999"),
         ((0, 0, 0, 0), (1, 0), "empty body band 1..0")],
    )
    def test_box_outside_the_page_or_empty_body_rejected(self, box, body, message):
        img = BinaryImage(10, 10, np.zeros((10, 10), dtype=np.uint8))
        with pytest.raises(ValueError) as err:
            word_to_wst([(img, 1)], [box], [body], [10])
        assert str(err.value) == message

    def test_box_outside_its_page_named_by_its_place_in_the_call(self):
        # Box 2 fits the first page, 20x10, but not its own, 10x20; the
        # first page's words are reduced before the second page is taken.
        wide = BinaryImage(20, 10, np.zeros((10, 20), dtype=np.uint8))
        tall = BinaryImage(10, 20, np.zeros((20, 10), dtype=np.uint8))
        boxes = [(0, 0, 5, 5), (0, 0, 5, 5), (12, 0, 15, 5)]
        with pytest.raises(ValueError) as err:
            word_to_wst([(wide, 1), (tall, 2)], boxes, [(0, 5)] * 3, [6] * 3)
        assert str(err.value) == "box 2: 12 0 15 5 outside page 10x20"

    @pytest.mark.parametrize(
        "box",
        [(0, 0, 10**12, 5), (-(10**12), 0, 5, 5), (0, 0, 5, 10**12), (0, 0, 1_000_000, 5),
         (0, -1, 5, 5), (6, 0, 5, 5), (0, 6, 5, 5)],
    )
    def test_box_no_page_can_hold_refused_before_arrays_are_sized(self, box):
        # No page has a side above pnm.MAX_SIDE (1000000), so a box that is
        # empty or reaches outside 0..999999 is refused before its width
        # sizes the column arrays, and before any page is taken.
        taken = []

        def pages():
            taken.append(True)
            yield BinaryImage(20, 10, np.zeros((10, 20), dtype=np.uint8)), 2

        with pytest.raises(ValueError) as err:
            word_to_wst(pages(), [(0, 0, 5, 5), box], [(0, 5)] * 2, [6] * 2)
        assert str(err.value) == "box 1: {} {} {} {} empty or outside 0..999999".format(*box)
        assert taken == []


# Plain per-column and per-region reference of the shape coder: the valley
# cut, merge and zone-reach rules written one column, row or region at a time,
# at the token parameters of the specification, frozen here so that a changed
# constant in the shipped coder cannot agree with itself: zone fraction 0.5,
# valley slack 1, minimum region width 0.1 and margin 0.1.


def reference_zone_run(counts):
    """(top, bottom) of the run of rows of at least half the peak count that
    holds the first peak row, walking outwards from it one row at a time."""
    peak = max(counts)
    if peak == 0:
        raise NoInkError("band has no ink")
    cut = 0.5 * peak
    peak_row = counts.index(peak)
    top = bottom = peak_row
    while top > 0 and counts[top - 1] >= cut:
        top -= 1
    while bottom < len(counts) - 1 and counts[bottom + 1] >= cut:
        bottom += 1
    return top, bottom


def reference_band_zones(counts, band):
    """The (top, bottom) body rows of the row walk over the rows of one
    (start, end) band."""
    start, end = band
    top, bottom = reference_zone_run(counts[start : end + 1])
    return start + top, start + bottom


def reference_estimate_zones(img, band):
    """The (top, bottom) body rows of the (start, end) band of `img`."""
    start, end = band
    counts = [int((img.bits[r] == 0).sum()) for r in range(start, end + 1)]
    top, bottom = reference_zone_run(counts)
    return start + top, start + bottom


def reference_char_region_segment(word, font_size):
    """The (start, end) columns of each region of a word, left to right."""
    counts = [int((word.bits[:, c] == 0).sum()) for c in range(word.width)]
    ink_counts = [c for c in counts if c > 0]
    if not ink_counts:
        raise NoInkError("word image has no ink")
    valley_cut = min(ink_counts) + 1
    cuts = []
    run_start = None
    for c, count in enumerate(counts + [None]):
        if count is not None and count <= valley_cut:
            if run_start is None:
                run_start = c
            continue
        if run_start is not None and run_start > 0 and count is not None:
            cuts.append((run_start + c - 1) // 2)
        run_start = None
    starts = [0] + cuts
    ends = [s - 1 for s in cuts] + [word.width - 1]
    min_width = round_half_up(0.1 * font_size)
    merged = []
    for start, end in zip(starts, ends):
        if merged and end - start + 1 < min_width:
            merged[-1] = (merged[-1][0], end)
        else:
            merged.append((start, end))
    if len(merged) > 1 and merged[0][1] - merged[0][0] + 1 < min_width:
        merged[1] = (merged[0][0], merged[1][1])
        merged.pop(0)
    return merged


def reference_classify_region(word, region, zones):
    """The code of the (start, end) columns of a word against the (top,
    bottom) rows of its body band."""
    (start, end), (top, bottom) = region, zones
    delta = round_half_up(0.1 * (bottom - top + 1))
    ink_rows = [r for r in range(word.height) if (word.bits[r, start : end + 1] == 0).any()]
    if not ink_rows:
        return "x"
    if ink_rows[-1] > bottom + delta:
        return "g"
    if ink_rows[0] < top - delta:
        return "A"
    return "x"


def reference_word_to_wst(page, band, box, zones):
    """The shape coder's specification, one word and one region at a time,
    for a box on a (first, last) line band with (top, bottom) body rows."""
    if zones is None:
        zones = reference_estimate_zones(page, band)
    bits = page.bits[box.y1 : box.y2 + 1, box.x1 : box.x2 + 1]
    word = BinaryImage(box.width, box.height, bits)
    local = (zones[0] - box.y1, zones[1] - box.y1)
    regions = reference_char_region_segment(word, band[1] - band[0] + 1)
    return "".join(reference_classify_region(word, region, local) for region in regions)


def outcome(fn, *args):
    """The value of fn(*args), or the type of the NoInkError it raised."""
    try:
        return fn(*args)
    except NoInkError:
        return NoInkError


@st.composite
def random_images(draw, max_height=24, max_width=40):
    width = draw(st.integers(1, max_width))
    height = draw(st.integers(1, max_height))
    ink_share = draw(st.floats(0.0, 0.7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bits = (rng.random((height, width)) >= ink_share).astype(np.uint8)
    return BinaryImage(width, height, bits)


@st.composite
def stroke_images(draw, max_height=30, max_width=60):
    """Pages whose columns each hold one vertical stroke or none. Strokes of
    a few lengths, some one pixel, make many valleys between thicker ones,
    as cursive connectors do."""
    width = draw(st.integers(1, max_width))
    height = draw(st.integers(1, max_height))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lengths = np.minimum(rng.choice([0, 1, 1, 2, height // 2, height], width), height)
    tops = rng.integers(0, height - lengths + 1)
    rows = np.arange(height)[:, None]
    ink = (rows >= tops) & (rows < tops + lengths)
    return BinaryImage(width, height, (~ink).astype(np.uint8))


@st.composite
def random_zones(draw, height):
    top = draw(st.integers(-3, height + 2))
    return top, draw(st.integers(top, height + 3))


@st.composite
def pages_bands_boxes(draw):
    page = draw(random_images(max_height=30))
    row_start = draw(st.integers(0, page.height - 1))
    row_end = draw(st.integers(row_start, page.height - 1))
    y1 = draw(st.integers(row_start, row_end))
    y2 = draw(st.integers(y1, row_end))
    x1 = draw(st.integers(0, page.width - 1))
    x2 = draw(st.integers(x1, page.width - 1))
    return page, (row_start, row_end), WordBox(x1, y1, x2, y2)


@st.composite
def pages_and_words(draw):
    """A page and words on it, each a box, the body rows of its line and a
    font size. Boxes need not be tight and may overlap or be one column
    wide; bodies may lie above, below or across the box rows."""
    page = draw(random_images(max_height=30) | stroke_images())
    words = []
    for _ in range(draw(st.integers(1, 6))):
        x1 = draw(st.integers(0, page.width - 1))
        x2 = x1 if draw(st.booleans()) else draw(st.integers(x1, page.width - 1))
        y1 = draw(st.integers(0, page.height - 1))
        box = WordBox(x1, y1, x2, draw(st.integers(y1, page.height - 1)))
        words.append((box, draw(random_zones(page.height)), draw(st.integers(1, 80))))
    return page, words


def first_inkless_or_tokens(runs, words):
    """The tokens of one call, or (NoInkError, position) when it raised."""
    try:
        return encode_runs(runs, words)
    except NoInkError as exc:
        return NoInkError, exc.position


@st.composite
def counts_and_bands(draw):
    """Row counts of few distinct values, so that peaks tie often, and bands
    over them that may touch, overlap or repeat."""
    counts = draw(st.lists(st.integers(0, 4), min_size=1, max_size=40))
    bands = []
    for _ in range(draw(st.integers(0, 6))):
        start = draw(st.integers(0, len(counts) - 1))
        bands.append((start, draw(st.integers(start, len(counts) - 1))))
    return counts, bands


def zones_of_bands(row_counts, bands):
    """The (top, bottom) body rows of each (start, end) band, from one
    zones_from_bands pass."""
    starts = np.array([start for start, _ in bands], dtype=np.int64)
    ends = np.array([end for _, end in bands], dtype=np.int64)
    tops, bottoms = zones_from_bands(row_counts, starts, ends)
    return list(zip(tops.tolist(), bottoms.tolist()))


def gray_version(img, maxval, rng):
    """A gray page that binarizes to `img`: ink pixels drawn below the cut,
    background pixels at or above it, in uint16."""
    cut = ink_cut(maxval)
    ink = rng.integers(0, cut, img.bits.shape)
    background = rng.integers(cut, maxval + 1, img.bits.shape)
    pixels = np.where(img.bits == 0, ink, background).astype(np.uint16)
    return GrayImage(img.width, img.height, maxval, pixels)


@st.composite
def gray_versions(draw, img):
    maxval = draw(st.sampled_from([1, 255, 256, 65535]) | st.integers(1, 65535))
    return gray_version(img, maxval, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))


def words_of_columns(*words, font=1):
    """A page whose columns hold the ink counts of `words` laid end to end,
    and one full-height box per word, with the body band filling it."""
    counts = [count for word in words for count in word]
    height = max(counts)
    page = image_with_column_counts(counts, height)
    firsts = np.cumsum([0] + [len(word) for word in words]).tolist()
    boxes = [WordBox(a, 0, b - 1, height - 1) for a, b in zip(firsts, firsts[1:])]
    return page, [(box, (0, height - 1), font) for box in boxes]


class TestReferenceEquivalence:
    @given(st.lists(st.integers(0, 6), min_size=1, max_size=40))
    @example([3, 5, 5, 1, 5])  # tied peaks in separate runs: the first wins
    @example([5, 5, 5])
    @example([2, 6, 3, 2])  # a row at exactly half the peak joins the body
    @example([2, 7, 3])  # rows under half the peak leave only the peak row
    @example([0, 0])
    def test_zone_run_matches_row_walk(self, counts):
        pad = [9] * 3  # rows outside the band must not matter
        rows = np.array(pad + counts + pad)
        band = (3, 3 + len(counts) - 1)
        expected = outcome(reference_band_zones, rows.tolist(), band)
        if expected is not NoInkError:
            expected = [expected]
        assert outcome(zones_of_bands, rows, [band]) == expected

    @given(counts_and_bands())
    # Tied peaks: the first wins, in each of two bands.
    @example(([3, 5, 5, 1, 5, 0, 2, 2, 0, 2], [(0, 4), (6, 9)]))
    @example(([4, 1, 4, 4], [(0, 3), (1, 3), (1, 1)]))
    @example(([2, 0, 3], [(0, 2), (1, 1)]))  # one band without ink
    @example(([1], []))
    # Adjacent bands whose body rows meet at the band boundary.
    @example(([1, 5, 5, 5, 5, 1], [(0, 2), (3, 5)]))
    def test_zones_from_bands_matches_row_walk_per_band(self, counts_bands):
        counts, bands = counts_bands
        rows = np.array(counts, dtype=np.int32)
        expected = [outcome(reference_band_zones, counts, band) for band in bands]
        if NoInkError in expected:
            expected = NoInkError
        assert outcome(zones_of_bands, rows, bands) == expected

    @given(pages_bands_boxes(), st.booleans(), st.data())
    def test_word_to_wst_same_for_a_gray_page_and_its_binarization(
        self, page_band_box, given_zones, data
    ):
        page, band, box = page_band_box
        gray = data.draw(gray_versions(page))
        assert binarize(gray) == page
        zones = data.draw(random_zones(page.height)) if given_zones else None
        assert outcome(encode_word, gray, band, box, zones) == outcome(
            encode_word, page, band, box, zones
        )

    @pytest.mark.parametrize(
        "first, second, font",
        [
            # The second word's narrow leftmost region joins its right
            # neighbor, after a first word that keeps its own cut.
            ([9, 9, 9, 9, 1, 9, 9, 9, 9], [9, 1, 9, 9, 9, 9], 30),
            # The first word's last region is narrow up to its own end,
            # whatever the cuts of the next word.
            ([9, 9, 9, 9, 1, 9], [9, 9, 9, 9, 9, 1, 9, 9, 9, 9], 30),
            # A valley run that ends a word is no cut, though the next
            # word's columns follow it.
            ([9, 9, 9, 1, 1], [1, 9, 9], 1),
        ],
    )
    def test_one_call_applies_the_merge_rules_within_each_word(self, first, second, font):
        page = image_with_column_counts(first + second, 9)
        words = [
            (WordBox(0, 0, len(first) - 1, 8), (0, 8), font),
            (WordBox(len(first), 0, len(first) + len(second) - 1, 8), (0, 8), font),
        ]
        expected = [
            reference_word_to_wst(page, (0, font - 1), box, zones)
            for box, zones, _ in words
        ]
        assert encode_words(page, words) == expected

    @given(pages_and_words(), st.sampled_from([1, 255, 256, 65535]), st.integers(0, 2**32 - 1))
    # A valley run from inside one word into the next.
    @example(words_of_columns([9, 9, 9, 1, 1], [1, 9, 9]), 255, 0)
    # A word whose every column is a valley, inside one run over three words.
    @example(words_of_columns([9, 9, 1], [1, 2, 1], [1, 9, 9]), 255, 0)
    # Runs touching one edge of their word only: the first word's left edge
    # at the first column of the call, its right edge before a word that
    # starts with no valley, and the last word's right edge at the call's
    # last column.
    @example(words_of_columns([1, 1, 1, 9, 9, 1, 9, 1], [9, 9, 1, 9, 9, 1, 1]), 255, 0)
    def test_one_call_for_many_words_matches_reference_word_by_word(
        self, page_words, maxval, seed
    ):
        page, words = page_words
        per_word = [
            outcome(reference_word_to_wst, page, (0, font - 1), box, zones)
            for box, zones, font in words
        ]

        def expected(order):
            inkless = [n for n, i in enumerate(order) if per_word[i] is NoInkError]
            return (NoInkError, inkless[0]) if inkless else [per_word[i] for i in order]

        rng = np.random.default_rng(seed)
        gray = gray_version(page, maxval, rng)
        rasters = [page, gray]
        if maxval <= 255:
            as_uint8 = gray.pixels.astype(np.uint8)
            rasters.append(GrayImage(gray.width, gray.height, maxval, as_uint8))
        for raster in rasters:
            runs = [(raster, len(words))]
            assert first_inkless_or_tokens(runs, words) == expected(range(len(words)))
        # Runs of the words on separate pages, here the page and its gray
        # version, give the tokens of one page.
        cut = int(rng.integers(0, len(words) + 1))
        runs = [(raster, n) for raster, n in ((page, cut), (gray, len(words) - cut)) if n]
        assert first_inkless_or_tokens(runs, words) == expected(range(len(words)))
        # A word's token does not depend on the other words of the call.
        order = rng.permutation(len(words)).tolist()
        shuffled = [words[i] for i in order]
        assert first_inkless_or_tokens([(page, len(words))], shuffled) == expected(order)

    @given(random_images(), st.data())
    def test_estimate_zones_matches_reference(self, img, data):
        row_start = data.draw(st.integers(0, img.height - 1))
        band = (row_start, data.draw(st.integers(row_start, img.height - 1)))
        assert outcome(estimate_zones, img, *band) == outcome(reference_estimate_zones, img, band)

    @given(random_images() | stroke_images(), st.integers(1, 60))
    def test_char_region_segment_matches_column_loop(self, word, font_size):
        assert outcome(char_region_segment, word, font_size) == outcome(
            reference_char_region_segment, word, font_size
        )

    @given(random_images() | stroke_images(), st.data())
    def test_classify_region_matches_reference(self, word, data):
        col_start = data.draw(st.integers(0, word.width - 1))
        region = (col_start, data.draw(st.integers(col_start, word.width - 1)))
        zones = data.draw(random_zones(word.height))
        assert classify_region(word, region, zones) == reference_classify_region(
            word, region, zones
        )

    @given(pages_bands_boxes(), st.booleans(), st.data())
    def test_word_to_wst_matches_per_region_reference(self, page_band_box, given_zones, data):
        page, band, box = page_band_box
        zones = data.draw(random_zones(page.height)) if given_zones else None
        args = (page, band, box, zones)
        assert outcome(encode_word, *args) == outcome(reference_word_to_wst, *args)

    def test_word_to_wst_matches_reference_on_rendered_lines(self):
        img, band, boxes = render_line_page(["dipped", "python", "sauce", "mummy"])
        for box in boxes:
            assert encode_word(img, band, box) == reference_word_to_wst(img, band, box, None)

    def test_tall_box_counts_past_255_rows(self):
        # Column 0 of the tall word holds exactly 256 ink pixels, which a
        # uint8 sum would wrap to 0: the column would read as blank, and the
        # cut at column 1 would be lost. The other word, of 100 rows, shares
        # the call's counts, first or last. A font of 10 rows keeps regions
        # of one column.
        bits = np.ones((300, 8), dtype=np.uint8)
        bits[20:276, 0] = 0
        bits[150, [1, 5]] = 0
        bits[120:160, [2, 6]] = 0
        bits[100:200, 4] = 0
        page = BinaryImage(8, 300, bits)
        boxes = [WordBox(0, 0, 2, 299), WordBox(4, 100, 6, 199)]
        zones = (100, 199)
        expected = [reference_word_to_wst(page, (0, 9), box, zones) for box in boxes]
        assert expected == ["gx", "xx"]
        assert encode_words(page, [(box, zones, 10) for box in boxes]) == expected
        # A count dtype taken from the first box would be uint8 here.
        assert encode_words(page, [(box, zones, 10) for box in boxes[::-1]]) == expected[::-1]

    def test_zones_that_end_at_a_box_edge_over_two_pages(self):
        # Boxes of rows 5..24 (20 rows) against bodies of 10 rows, whose
        # zone margin is 1 row. On each page a box with ink in both zones
        # comes first. Then, on the first page, strokes over the box's top 4
        # rows meet an ascender zone that ends at the box's top (none of its
        # rows inside) or one row below it; on the second, strokes over its
        # bottom 4 rows meet a descender zone that starts one row past the
        # box's last or on it.
        def page_of(strokes):
            bits = np.ones((30, 12), dtype=np.uint8)
            for column, (top, bottom) in zip((1, 5, 9), strokes):
                bits[top : bottom + 1, column] = 0
            return BinaryImage(12, 30, bits)

        first = page_of([(5, 24), (5, 8), (5, 8)])
        second = page_of([(5, 24), (21, 24), (21, 24)])
        boxes = [WordBox(x, 5, x + 2, 24) for x in (0, 4, 8)] * 2
        bodies = [(10, 19), (6, 15), (7, 16)] + [(10, 19), (13, 22), (14, 23)]
        expected = [
            reference_word_to_wst(page, (0, 9), box, body)
            for page, box, body in zip([first] * 3 + [second] * 3, boxes, bodies)
        ]
        assert expected == ["g", "x", "A", "g", "g", "x"]
        tokens = word_to_wst(
            [(first, 3), (second, 3)],
            [(box.x1, box.y1, box.x2, box.y2) for box in boxes], bodies, [10] * 6,
        )
        assert tokens == expected
