"""Projection profiles, line bands, and word boxes."""

import random

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from wordspot.index import build_index, save_index
from wordspot.pnm import BinaryImage
from wordspot.segment import (
    WordBox,
    column_profile,
    default_noise_threshold,
    row_profile,
    segment_lines,
    segment_words,
)
from wordspot.util import count_dtype, round_half_up


def image_from_rows(rows):
    arr = np.array(rows, dtype=np.uint8)
    return BinaryImage(arr.shape[1], arr.shape[0], arr)


def image_with_column_counts(counts, height):
    """Column c gets counts[c] ink pixels stacked from the top."""
    bits = np.ones((height, len(counts)), dtype=np.uint8)
    for c, n in enumerate(counts):
        assert n <= height
        bits[:n, c] = 0
    return BinaryImage(len(counts), height, bits)


def random_image(rng, width, height, ink_prob=0.3):
    bits = np.array(
        [[0 if rng.random() < ink_prob else 1 for _ in range(width)] for _ in range(height)],
        dtype=np.uint8,
    )
    return BinaryImage(width, height, bits)


class TestProfiles:
    def test_row_profile_counts_ink(self):
        img = image_from_rows([[0, 0, 1], [1, 1, 1]])
        assert row_profile(img).tolist() == [2, 0]

    def test_all_background(self):
        img = image_from_rows([[1, 1], [1, 1], [1, 1]])
        assert row_profile(img).tolist() == [0, 0, 0]

    def test_all_ink_counts_width(self):
        img = image_from_rows([[0] * 5, [0] * 5])
        assert row_profile(img).tolist() == [5, 5]

    def test_full_band_matches_transpose_count(self):
        img = random_image(random.Random(5), 9, 7)
        full = column_profile(img).tolist()
        expected = [int((img.bits[:, c] == 0).sum()) for c in range(9)]
        assert full == expected

    def test_profile_sums_equal_ink_total(self):
        img = random_image(random.Random(6), 11, 8)
        rows = row_profile(img)
        cols = column_profile(img)
        assert sum(rows) == sum(cols) == int((img.bits == 0).sum())

    @pytest.mark.parametrize("width", [255, 256, 65_535, 65_536])
    def test_row_counts_exact_at_the_count_dtype_edges(self, width):
        # Row 0 is all ink, row 1 all background, row 2 one ink pixel: a
        # background sum that wrapped would misread rows 0 and 1.
        bits = np.ones((3, width), dtype=np.uint8)
        bits[0] = 0
        bits[2, width - 1] = 0
        counts = row_profile(BinaryImage(width, 3, bits))
        assert counts.dtype == np.int32
        assert counts.tolist() == [width, 0, 1]

    @pytest.mark.parametrize("height", [255, 256, 65_536])
    def test_column_counts_exact_at_the_count_dtype_edges(self, height):
        bits = np.ones((height, 3), dtype=np.uint8)
        bits[:, 0] = 0
        bits[height - 1, 2] = 0
        counts = column_profile(BinaryImage(3, height, bits))
        assert counts.dtype == np.int32
        assert counts.tolist() == [height, 0, 1]

    def test_count_dtype_holds_the_largest_count(self):
        assert [count_dtype(n) for n in (0, 255, 256, 65_535, 65_536, 10**8)] == [
            np.uint8, np.uint8, np.uint16, np.uint16, np.int32, np.int32
        ]


def line_bands(counts, threshold):
    """segment_lines' bands as (first row, last row) pairs."""
    starts, ends = segment_lines(np.array(counts, dtype=np.int32), threshold)
    assert starts.dtype == ends.dtype == np.int64
    return list(zip(starts.tolist(), ends.tolist()))


def band_arrays(bands):
    """The starts and ends arrays segment_words takes, from (first row,
    last row) pairs."""
    rows = np.array(bands, dtype=np.int64).reshape(-1, 2)
    return rows[:, 0], rows[:, 1]


class TestSegmentLines:
    def test_runs_between_gaps(self):
        assert line_bands([0, 3, 4, 0, 0, 5, 6, 0], 0) == [(1, 2), (5, 6)]

    def test_empty_page(self):
        assert line_bands([0, 0, 0], 0) == []

    def test_single_run(self):
        assert line_bands([2, 2, 2], 0) == [(0, 2)]

    def test_threshold_suppresses_noise_rows(self):
        assert line_bands([1, 9, 9, 1, 9, 9], 1) == [(1, 2), (4, 5)]

    def test_default_noise_threshold(self):
        assert default_noise_threshold(100) == 1
        assert default_noise_threshold(300) == 2  # 1.5 rounds half-up
        assert default_noise_threshold(1000) == 5

    def test_every_ink_row_in_some_band_at_zero_threshold(self):
        img = random_image(random.Random(8), 12, 20, ink_prob=0.1)
        bands = line_bands(row_profile(img), 0)
        covered = set()
        for start, end in bands:
            covered.update(range(start, end + 1))
        for r, count in enumerate(row_profile(img)):
            if count > 0:
                assert r in covered
        # bands are disjoint and ordered
        assert bands == sorted(bands)
        assert len(covered) == sum(end - start + 1 for start, end in bands)


def line_boxes(img, band):
    """The word boxes segment_words finds in a single (first row, last row)
    band."""
    rows = segment_words(img, *band_arrays([band])).tolist()
    assert all(row[0] == 0 for row in rows)
    return [WordBox(*row[1:]) for row in rows]


class TestSegmentWords:
    def test_gap_rule_example(self):
        counts = [3, 4, 0, 5, 6, 0, 0, 0, 2, 3]
        img = image_with_column_counts(counts, 10)
        boxes = line_boxes(img, (0, 9))  # gap limit 2
        assert [(b.x1, b.x2) for b in boxes] == [(0, 4), (8, 9)]

    def test_single_word_no_gaps(self):
        img = image_with_column_counts([2, 3, 1, 4], 5)
        boxes = line_boxes(img, (0, 4))
        assert len(boxes) == 1
        assert (boxes[0].x1, boxes[0].x2) == (0, 3)

    def test_gap_equal_to_limit_is_kept_inside(self):
        # band height 10 -> limit 2; a 2-column gap does not split.
        counts = [3, 3, 0, 0, 3, 3]
        img = image_with_column_counts(counts, 10)
        boxes = line_boxes(img, (0, 9))
        assert len(boxes) == 1

    def test_gap_above_limit_splits(self):
        counts = [3, 3, 0, 0, 0, 3, 3]
        img = image_with_column_counts(counts, 10)
        boxes = line_boxes(img, (0, 9))
        assert len(boxes) == 2

    @pytest.mark.parametrize("height,limit", [(1, 0), (3, 1), (8, 2), (13, 3), (25, 5)])
    def test_gap_limit_is_a_fifth_of_the_band_height(self, height, limit):
        # round(0.2 x height), never a tie: a gap of the limit joins, one more splits.
        for gap, words in ((limit, 1), (limit + 1, 2)):
            img = image_with_column_counts([1] + [0] * gap + [1], height)
            assert len(line_boxes(img, (0, height - 1))) == words

    def test_boxes_are_tight_both_axes(self):
        bits = np.ones((8, 6), dtype=np.uint8)
        bits[2:5, 1:3] = 0  # blob away from every edge of the band
        img = BinaryImage(6, 8, bits)
        boxes = line_boxes(img, (0, 7))
        assert boxes == [WordBox(1, 2, 2, 4)]

    def test_empty_band_yields_no_words(self):
        img = image_from_rows([[1, 1, 1]])
        assert line_boxes(img, (0, 0)) == []

    def test_no_bands_yield_no_rows(self):
        img = image_from_rows([[0, 1, 0]])
        rows = segment_words(img, *band_arrays([]))
        assert rows.shape == (0, 5) and rows.dtype == np.int64

    def test_band_outside_the_image_rejected(self):
        img = image_from_rows([[0, 1], [1, 0]])
        with pytest.raises(ValueError, match="outside rows"):
            segment_words(img, *band_arrays([(0, 0), (1, 2)]))

    @pytest.mark.parametrize(
        "bands,bad",
        [
            ([(0, 1), (1, 0)], "1..0"),  # inverted
            ([(2, 2)], "2..2"),  # past the last row
            ([(0, 1), (2, 5), (3, 2)], "2..5"),  # the first bad band is named
            ([(-1, 0)], "-1..0"),
        ],
    )
    def test_inverted_band_or_band_past_the_last_row_rejected(self, bands, bad):
        img = image_from_rows([[0, 1], [1, 0]])
        with pytest.raises(ValueError, match=f"band {bad} empty or outside rows 0..1"):
            segment_words(img, *band_arrays(bands))

    def test_boxes_disjoint_and_ordered(self):
        img = random_image(random.Random(10), 60, 12, ink_prob=0.12)
        boxes = line_boxes(img, (0, 11))
        for left, right in zip(boxes, boxes[1:]):
            assert left.x2 < right.x1

    def test_each_band_splits_at_its_own_limit(self):
        # The same 2-column gap in two bands: height 10 (limit 2) keeps it,
        # height 5 (limit 1) splits there. Ink touches columns 0 and 5 and
        # the first and last rows of the page.
        bits = np.ones((17, 6), dtype=np.uint8)
        bits[0:10, [0, 1, 4, 5]] = 0
        bits[12:17, [0, 1, 4, 5]] = 0
        img = BinaryImage(6, 17, bits)
        rows = segment_words(img, *band_arrays([(0, 9), (12, 16)]))
        assert rows.tolist() == [[0, 0, 0, 5, 9], [1, 0, 12, 1, 16], [1, 4, 12, 5, 16]]

    def test_runs_do_not_join_across_bands(self):
        # Ink in the last column of one band and the first of the next. Laid
        # end to end, the two are one blank column apart, within the bands'
        # gap limit of 1.
        bits = np.ones((10, 4), dtype=np.uint8)
        bits[0, 3] = 0
        bits[9, 0] = 0
        img = BinaryImage(4, 10, bits)
        rows = segment_words(img, *band_arrays([(0, 4), (5, 9)]))
        assert rows.tolist() == [[0, 3, 0, 3, 0], [1, 0, 9, 0, 9]]


def reference_runs_above(counts, threshold):
    """Plain loop: maximal inclusive runs of indices with count > threshold."""
    runs = []
    start = None
    for i, c in enumerate(counts):
        if c > threshold:
            if start is None:
                start = i
        elif start is not None:
            runs.append((start, i - 1))
            start = None
    if start is not None:
        runs.append((start, len(counts) - 1))
    return runs


def reference_segment_words(img, band):
    """Word boxes one group at a time: split ink-column runs at gaps longer
    than the limit, 0.2 of the band height, then tighten each group's rows
    over its own columns."""
    row_start, row_end = band
    rows = img.bits[row_start : row_end + 1]
    counts = [int((rows[:, c] == 0).sum()) for c in range(img.width)]
    runs = reference_runs_above(counts, 0)
    if not runs:
        return []
    gap_limit = round_half_up(0.2 * len(rows))
    groups = [[runs[0]]]
    for run in runs[1:]:
        if run[0] - groups[-1][-1][1] - 1 <= gap_limit:
            groups[-1].append(run)
        else:
            groups.append([run])
    boxes = []
    for group in groups:
        x1, x2 = group[0][0], group[-1][1]
        ink_rows = [r for r in range(len(rows)) if (rows[r, x1 : x2 + 1] == 0).any()]
        boxes.append(WordBox(x1, row_start + ink_rows[0], x2, row_start + ink_rows[-1]))
    return boxes


@st.composite
def pages_and_bands(draw):
    """A random page and several (first row, last row) bands, always one at
    row 0 and one at the last row (in any order, possibly overlapping), with
    ink in the first and last columns and, in one band, two ink columns
    whose gap is one less than, equal to or one more than that band's gap
    limit."""
    width = draw(st.integers(1, 40))
    height = draw(st.integers(1, 30))
    ink_share = draw(st.floats(0.05, 0.6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bits = (rng.random((height, width)) >= ink_share).astype(np.uint8)
    bits[draw(st.integers(0, height - 1)), 0] = 0
    bits[draw(st.integers(0, height - 1)), width - 1] = 0
    row_ends = st.integers(0, height - 1)
    bands = [(0, draw(row_ends)), (draw(row_ends), height - 1)]
    for _ in range(draw(st.integers(0, 3))):
        row_start = draw(row_ends)
        bands.append((row_start, draw(st.integers(row_start, height - 1))))
    bands = draw(st.permutations(bands))
    row_start, row_end = draw(st.sampled_from(bands))
    limit = round_half_up(0.2 * (row_end - row_start + 1))
    gap = draw(st.integers(max(0, limit - 1), limit + 1))
    if gap + 2 <= width:
        x = draw(st.integers(0, width - gap - 2))
        bits[row_start : row_end + 1, x + 1 : x + gap + 1] = 1
        bits[draw(st.integers(row_start, row_end)), [x, x + gap + 1]] = 0
    return BinaryImage(width, height, bits), bands


class TestReferenceEquivalence:
    @given(st.lists(st.integers(0, 9), max_size=60), st.integers(-1, 9))
    @example([], 0)
    @example([5, 5, 5], 0)
    @example([1, 0, 0, 1], 0)
    @example([2, 0, 2, 0, 2], 1)
    def test_runs_above_matches_loop(self, counts, threshold):
        assert line_bands(counts, threshold) == reference_runs_above(counts, threshold)

    @given(pages_and_bands())
    def test_segment_words_matches_reference_band_by_band(self, page_bands):
        img, bands = page_bands
        rows = segment_words(img, *band_arrays(bands))
        assert rows.dtype == np.int64 and rows.shape[1:] == (5,)
        expected = [
            [n, box.x1, box.y1, box.x2, box.y2]
            for n, band in enumerate(bands)
            for box in reference_segment_words(img, band)
        ]
        assert rows.tolist() == expected

    @given(st.lists(pages_and_bands(), min_size=1, max_size=3))
    def test_build_index_same_bytes_from_a_list_and_a_generator(self, drawn):
        pages = [(f"p{n}", img) for n, (img, _) in enumerate(drawn)]
        built = [save_index(build_index(given)) for given in (pages, (page for page in pages))]
        assert built[0] == built[1]
