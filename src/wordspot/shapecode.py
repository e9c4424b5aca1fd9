"""Shape coding of word images and query text.

A line's x-height body band is the run of its rows, around its peak row,
whose ink count is at least half the peak's (`zones_from_bands`, one pass
for all lines of a page). A word image is cut into regions at near-minimum
valleys of its column profile (cursive connector strokes are thin, so they
sit at the histogram minimum; the same cut happily over-segments some
letters, which the coding scheme absorbs). Each region is classified by
whether its ink reaches the ascender or descender zone relative to the
line's body band:

    ascender only -> A,  descender (with or without ascender) -> g,
    neither -> x

The token parameters are the module constants below, and no function
takes them as arguments. `word_to_wst` encodes many words, given as runs of
boxes on pages taken one at a time, in one call. The columns of all its
words are laid end to end in arrays allocated once per call; per word it
only thresholds its box and reduces it into its own columns, in one loop
(`_page_columns`, the one box-reduction rule), and the valley cut, merge
and zone-reach rules run once over all of them. The reduction
(`_reduce_columns`) and the rules (`_token_rules`) are two functions, each
called once per call of `word_to_wst`. Body bands and valley runs
are maximal runs of a mask, found by `util.mask_runs`. `zones_from_bands`
takes a page's line bands as the two arrays of first and last rows that
`segment.segment_lines` returns, as `segment.segment_words` does.
`estimate_zones`, `char_region_segment` and `classify_region` apply the same
rules to one line band, word or region. Bands, bodies and regions are
`(first, last)` pairs of ints, inclusive, as `util.mask_runs` returns runs,
and each function checks the pairs it takes; `char_region_segment` cuts at
the word's whole `column_profile`, and `classify_region` reduces its region
through `_page_columns` as a box of one word.

Query text maps through a fixed per-letter expansion table, one to three
symbols per letter, so both sides of a search speak the same token alphabet.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from .pnm import MAX_SIDE, BinaryImage, GrayImage, ink_raster
from .segment import column_profile
from .util import check_bands, count_dtype, mask_runs, round_half_up


class NoInkError(ValueError):
    """Raised when an operation needs ink pixels and there are none.
    `position` is the inkless word's place among the words of the call, when
    the call took words."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


class UnsupportedCharacterError(ValueError):
    """Query text contained a character the shape table cannot encode."""

    def __init__(self, char: str, position: int):
        super().__init__(f"unsupported character {char!r} at position {position}")
        self.char = char
        self.position = position


# Token parameters. Columns within VALLEY_SLACK of the least ink count are
# valleys; regions narrower than MIN_REGION_WIDTH of the band height merge;
# ink counts as ascender or descender past MARGIN of the body height; rows
# with at least ZONE_FRACTION of the peak row count make up the body band.
VALLEY_SLACK = 1
MIN_REGION_WIDTH = 0.1
MARGIN = 0.1
ZONE_FRACTION = 0.5


# Per-letter shape code expansion. Both cases are covered; the two-symbol
# "xg" row holds lowercase y (uppercase Y is a plain ascender form).
SHAPE_CODE_ROWS: tuple[tuple[str, str], ...] = (
    ("A", "ABCDEFGIJKOPQRSTXYZbdklt"),
    ("AA", "HMNUVW"),
    ("Ax", "Lh"),
    ("x", "aceiosxz"),
    ("g", "gpqjf"),
    ("xx", "nruv"),
    ("xg", "y"),
    ("xxx", "mw"),
)

LETTER_CODES: dict[str, str] = {
    letter: code for code, letters in SHAPE_CODE_ROWS for letter in letters
}


def query_to_wst(text: str) -> str:
    """Expand query text letter by letter into its shape token."""
    parts = []
    for position, char in enumerate(text):
        code = LETTER_CODES.get(char)
        if code is None:
            raise UnsupportedCharacterError(char, position)
        parts.append(code)
    return "".join(parts)


def zones_from_bands(
    row_counts: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Locate the x-height body band of many line bands in one pass, from
    per-row ink counts: the body's first and last rows of each band
    `starts[i]..ends[i]`, in the rows of `row_counts`.

    A band's body is the maximal contiguous run of its rows whose count is
    at least ZONE_FRACTION of the band's peak count, containing its (first)
    peak row. The bands' rows are laid end to end; each peak's body is the
    `mask_runs` run that holds it, clipped to the peak's band. A band that
    is empty or outside the rows raises ValueError.
    """
    check_bands(starts, ends, len(row_counts))
    if len(starts) == 0:
        return starts, ends
    lengths = ends - starts + 1
    firsts = np.concatenate(([0], np.cumsum(lengths[:-1])))
    lasts = firsts + lengths - 1
    band_of = np.repeat(np.arange(len(starts)), lengths)
    positions = np.arange(len(band_of))
    counts = row_counts[positions - firsts[band_of] + starts[band_of]]
    peaks = np.maximum.reduceat(counts, firsts)
    if not peaks.all():
        raise NoInkError("band has no ink, zones undefined")
    at_peak = counts == peaks[band_of]
    peak_pos = np.minimum.reduceat(np.where(at_peak, positions, len(positions)), firsts)
    # Each peak row is in the body, so the last run starting at or before
    # it holds it.
    run_starts, run_ends = mask_runs(counts >= ZONE_FRACTION * peaks[band_of])
    runs = np.searchsorted(run_starts, peak_pos, side="right") - 1
    tops = np.maximum(run_starts[runs], firsts) - firsts + starts
    bottoms = np.minimum(run_ends[runs], lasts) - firsts + starts
    return tops, bottoms


def _region_starts(counts: np.ndarray, firsts: np.ndarray, font_sizes: np.ndarray) -> np.ndarray:
    """First column of each region of words whose int32 column counts are
    laid end to end in `counts`: word i has the columns from firsts[i]
    (firsts[0] is 0) up to the next word's first. A region ends where the
    next starts.

    Per word, m is the minimum count over its ink-bearing columns; its
    columns with count <= m + VALLEY_SLACK are valleys. Each interior
    maximal valley run of a word is cut at its midpoint column (the midpoint
    itself starts the right-hand region). A region narrower than
    round(MIN_REGION_WIDTH * font size) of its word is merged into its left
    neighbor, or right neighbor for a word's leftmost. Every word must
    have ink (`_check_ink`).
    """
    width = len(counts)
    ends = np.append(firsts[1:], width)
    # Counts less one, read as uint32: a column without ink wraps to the
    # largest value, so it is never the least of a word that has ink.
    ink_min = np.minimum.reduceat((counts - 1).view(np.uint32), firsts).view(np.int32) + 1
    valley = counts <= np.repeat(ink_min + VALLEY_SLACK, ends - firsts)

    # A run is cut only if it starts after its word's first column and ends
    # before its word's last: a run touching either edge has no second side
    # to separate, and a run that crosses into the next word ends past it.
    run_starts, run_ends = mask_runs(valley)
    run_words = np.searchsorted(firsts, run_starts, side="right") - 1
    interior = (run_starts > firsts[run_words]) & (run_ends < ends[run_words] - 1)
    cuts = (run_starts[interior] + run_ends[interior]) // 2
    cut_words = run_words[interior]

    # A narrow region joins its left neighbor: its start stops being a
    # boundary. Whether it merges depends on its own width only, up to the
    # next cut or its word's end, so each boundary is decided on its own.
    min_widths = round_half_up(MIN_REGION_WIDTH * font_sizes)
    region_ends = np.minimum(np.append(cuts[1:], width), ends[cut_words])
    wide = region_ends - cuts >= min_widths[cut_words]
    kept, kept_words = cuts[wide], cut_words[wide]
    # A word's narrow leftmost region joins its right neighbor instead: the
    # word's first kept cut stops being a boundary.
    leftmost = np.append(True, kept_words[1:] != kept_words[:-1])
    narrow = kept - firsts[kept_words] < min_widths[kept_words]
    # A word's regions start at its first column and at its remaining cuts.
    region_start = np.zeros(width, dtype=bool)
    region_start[firsts] = True
    region_start[kept[~(leftmost & narrow)]] = True
    return np.flatnonzero(region_start)


def _check_ink(counts: np.ndarray, firsts: np.ndarray, base: int = 0) -> None:
    """Raise NoInkError for the first word, laid out as in `_region_starts`,
    whose columns hold no ink; its `position` counts words from `base`."""
    has_ink = np.logical_or.reduceat(counts > 0, firsts)
    if not has_ink.all():
        position = base + int(has_ink.argmin())
        raise NoInkError(f"word image {position} has no ink", position)


def _zone_limits(body_top, body_bottom):
    """Rows before the first limit are ascender rows and rows from the
    second on descender rows: a margin of round(MARGIN * body height) rows
    around the body band must be cleared. Ints or int64 arrays."""
    delta = round_half_up(MARGIN * (body_bottom - body_top + 1))
    return body_top - delta, body_bottom + delta + 1


def _page_columns(
    page: BinaryImage | GrayImage,
    words: list[list[int]],
    counts: np.ndarray,
    above: np.ndarray,
    below: np.ndarray,
) -> None:
    """The one box-reduction rule: per word of one page, reduce its box's
    ink over the box's rows into the word's own columns of `counts`,
    `above` and `below`. Each of `words` is a word's box `x1 y1 x2 y2`, its
    `above_rows` and `below_from` (both >= 0) and the first and end of its
    columns in the arrays.

    A column's count is its ink pixels in the box, in `counts`' dtype, which
    must hold the box's height (`count_dtype`). `above` is whether it has
    ink in the box's first `above_rows` rows (the ascender zone), `below`
    whether it has ink in its rows from `below_from` on (the descender
    zone). Both must start False: a zone with no rows in the box is not
    read. Every box must lie inside the page.
    """
    raster, cut = ink_raster(page)
    for left, top, right, bottom, above_rows, below_from, first, end in words:
        ink = raster[top : bottom + 1, left : right + 1] < cut
        # Bools are bytes of 0 or 1: summed into uint8 counts with no cast.
        np.add.reduce(ink.view(np.uint8), axis=0, out=counts[first:end])
        if above_rows > 0:
            np.logical_or.reduce(ink[:above_rows], axis=0, out=above[first:end])
        if below_from <= bottom - top:
            np.logical_or.reduce(ink[below_from:], axis=0, out=below[first:end])


# A region's code by index: 0 plain, 1 ascender, 2 descender.
_CODE_BYTES = np.frombuffer(b"xAg", dtype=np.uint8)


def _zone_codes(above: np.ndarray, below: np.ndarray, starts: np.ndarray) -> str:
    """Codes of the regions that start at columns `starts`, from whether
    each column has ink in the ascender (`above`) and descender (`below`)
    zones: descender wins over ascender, and a region reaching neither is
    'x'."""
    # Bools are bytes of 0 or 1, which OR faster as bytes.
    ascender = np.bitwise_or.reduceat(above.view(np.uint8), starts)
    descender = np.bitwise_or.reduceat(below.view(np.uint8), starts)
    codes = np.where(descender, 2, ascender)
    return _CODE_BYTES[codes].tobytes().decode("ascii")


# Single-word helpers, with no caller in the package: perfbench/tracing.py wraps them by name.


def estimate_zones(img: BinaryImage | GrayImage, row_start: int, row_end: int) -> tuple[int, int]:
    """The `(body_top, body_bottom)` rows of the x-height body band inside
    the line band row_start..row_end of `img`, from the ink of its rows (see
    `zones_from_bands`, which raises ValueError for a band that is empty or
    outside `img`). `img` may be gray: its rows are thresholded as
    `word_to_wst` thresholds a box. Returned rows use the same coordinate
    frame as `img`.
    """
    raster, cut = ink_raster(img)
    counts = (raster < cut).sum(axis=1, dtype=np.int64)
    tops, bottoms = zones_from_bands(counts, np.array([row_start]), np.array([row_end]))
    return int(tops[0]), int(bottoms[0])


def char_region_segment(word: BinaryImage, font_size: int) -> list[tuple[int, int]]:
    """Cut a word image into regions at near-minimum column-profile valleys:
    the `(col_start, col_end)` columns of each, left to right.

    See `_region_starts` for the valley and merge rules. Over-segmentation
    relative to true characters is expected.
    """
    counts = column_profile(word)
    firsts = np.array([0])
    _check_ink(counts, firsts)
    starts = _region_starts(counts, firsts, np.array([font_size])).tolist()
    return list(zip(starts, [s - 1 for s in starts[1:]] + [word.width - 1]))


def classify_region(word: BinaryImage, region: tuple[int, int], body: tuple[int, int]) -> str:
    """Classify the columns `(col_start, col_end)` of a word image as 'A',
    'x' or 'g' by their zone reach, against the `(body_top, body_bottom)`
    rows of the body band.

    `body` must be expressed in the same row coordinate frame as `word`
    (shift a line's body by -box.y1 before calling); see `_zone_limits`
    and `_zone_codes`. Raises ValueError for a region that is empty or
    outside the word's columns, and for an empty body band.
    """
    (col_start, col_end), (body_top, body_bottom) = region, body
    if not 0 <= col_start <= col_end < word.width:
        raise ValueError(
            f"region {col_start}..{col_end} empty or outside word columns 0..{word.width - 1}"
        )
    if body_top > body_bottom:
        raise ValueError(f"empty body band {body_top}..{body_bottom}")
    ascender_end, descender_start = _zone_limits(body_top, body_bottom)
    width = col_end - col_start + 1
    counts = np.empty(width, dtype=count_dtype(word.height))
    above, below = np.zeros((2, width), dtype=bool)
    box = [col_start, 0, col_end, word.height - 1]
    _page_columns(
        word, [box + [max(0, ascender_end), max(0, descender_start), 0, width]],
        counts, above, below,
    )
    return _zone_codes(above, below, np.array([0]))


def _reduce_columns(
    pages: Iterable[tuple[BinaryImage | GrayImage, int]], boxes: np.ndarray, bodies: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The column reduction of `word_to_wst`, for at least one word: the
    `counts`, `above` and `below` columns of all its words laid end to end,
    and `firsts`, each word's first column in them. `boxes` and `bodies`
    are int64 arrays of 4 and 2 columns and as many rows; it raises what
    `word_to_wst` raises for them and for `pages`."""
    body_top, body_bottom = bodies.T
    if (body_top > body_bottom).any():
        i = int((body_top > body_bottom).argmax())
        raise ValueError(f"empty body band {body_top[i]}..{body_bottom[i]}")

    x1, y1, x2, y2 = boxes.T
    # Before the boxes size any array: no page has a side above MAX_SIDE.
    bad = (x1 > x2) | (y1 > y2) | (np.minimum(x1, y1) < 0) | (np.maximum(x2, y2) >= MAX_SIDE)
    if bad.any():
        i = int(bad.argmax())
        raise ValueError(
            f"box {i}: {x1[i]} {y1[i]} {x2[i]} {y2[i]} empty or outside 0..{MAX_SIDE - 1}"
        )

    ascender_end, descender_start = _zone_limits(body_top, body_bottom)
    above_rows = np.maximum(ascender_end - y1, 0)
    below_from = np.maximum(descender_start - y1, 0)
    # The columns of all words laid end to end, counted in a dtype that
    # holds the tallest box.
    offsets = np.append(0, np.cumsum(x2 - x1 + 1))
    width = int(offsets[-1])
    counts = np.empty(width, dtype=count_dtype(int((y2 - y1).max()) + 1))
    above = np.zeros(width, dtype=bool)
    below = np.zeros(width, dtype=bool)
    words = np.column_stack((boxes, above_rows, below_from, offsets[:-1], offsets[1:])).tolist()
    first = 0
    for page, n in pages:
        end = first + n
        if not first < end <= len(boxes):
            raise ValueError(f"a run of {n} boxes from box {first} of {len(boxes)}")
        # The MAX_SIDE check leaves boxes that are not empty and start at 0
        # or after, so only their last column and row can leave the page.
        bad = (x2[first:end] >= page.width) | (y2[first:end] >= page.height)
        if bad.any():
            i = first + int(bad.argmax())
            raise ValueError(
                f"box {i}: {x1[i]} {y1[i]} {x2[i]} {y2[i]} outside page {page.width}x{page.height}"
            )
        _page_columns(page, words[first:end], counts, above, below)
        del page  # else it would live on while the next page is taken
        page_firsts = offsets[first:end] - offsets[first]
        _check_ink(counts[offsets[first] : offsets[end]], page_firsts, first)
        first = end
    if first != len(boxes):
        raise ValueError(f"pages hold {first} of {len(boxes)} boxes")
    return counts, above, below, offsets[:-1]


def _token_rules(
    counts: np.ndarray,
    above: np.ndarray,
    below: np.ndarray,
    firsts: np.ndarray,
    font_sizes: np.ndarray,
) -> list[str]:
    """The token rules of `word_to_wst`: each word's token from the columns
    `_reduce_columns` returns and its line band's height in `font_sizes`.
    The valley cut and merge rules (`_region_starts`) and the zone-reach
    rule (`_zone_codes`) run once over the columns of all the words."""
    # The valley rule adds the slack to counts, so they leave their narrow
    # sum dtype here, once.
    starts = _region_starts(counts.astype(np.int32), firsts, font_sizes)
    codes = _zone_codes(above, below, starts)
    # Word i's codes are those of its regions, from the one at firsts[i].
    bounds = np.searchsorted(starts, firsts).tolist() + [len(starts)]
    return [codes[a:b] for a, b in zip(bounds, bounds[1:])]


def word_to_wst(
    pages: Iterable[tuple[BinaryImage | GrayImage, int]],
    boxes: np.ndarray,
    bodies: np.ndarray,
    font_sizes: np.ndarray,
) -> list[str]:
    """Shape tokens of words, each left to right, in box order.

    Row i of `boxes` is word i's inclusive box `x1 y1 x2 y2`, row i of
    `bodies` the `body_top body_bottom` rows of its line's x-height band
    (both in page coordinates) and `font_sizes[i]` its line band's height;
    int arrays of n rows. `pages` yields `(page, n)` for each run of n
    consecutive boxes on one page, in box order: `[(page, n)]` when all n
    words are on one page. A page may be gray: only the boxes' pixels are
    thresholded, by binarize's rule (`pnm.ink_raster`).

    Two steps, one call each: the column reduction (`_reduce_columns`),
    then the token rules (`_token_rules`). The columns of all words are
    laid end to end in three arrays, each allocated once for the call and
    as wide as all boxes together: ink counts, in the `count_dtype` of the
    tallest box, and whether a column has ink in its word's ascender zone
    and in its descender zone, both starting False. Per word, one slice of
    its page is thresholded and reduced over its rows into the word's own
    columns (`_page_columns`); a zone with no rows inside the box keeps its
    False columns unread. A page is dropped before the next is taken, so
    one page at a time is held. The valley cut, merge and zone-reach rules
    then run once over all the columns, so a word's token does not depend
    on which other words share the call.
    Raises NoInkError, whose `position` is the first box without ink,
    before the next page is taken, and ValueError for an empty body band, a
    box that is empty or reaches outside 0..MAX_SIDE - 1 (before any array
    is sized), a box outside its page (before any box of the page is read),
    or runs that do not cover the boxes.
    """
    boxes = np.asarray(boxes, dtype=np.int64).reshape(-1, 4)
    bodies = np.asarray(bodies, dtype=np.int64).reshape(-1, 2)
    font_sizes = np.asarray(font_sizes, dtype=np.int64).reshape(-1)
    if not len(boxes) == len(bodies) == len(font_sizes):
        raise ValueError("boxes, bodies and font_sizes differ in length")
    if len(boxes) == 0:
        return []
    return _token_rules(*_reduce_columns(pages, boxes, bodies), font_sizes)
