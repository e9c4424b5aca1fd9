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

`word_to_wst` encodes with the module's fixed token parameters;
`char_region_segment`, `classify_region` and `estimate_zones` expose each
step, with those parameters as keyword defaults.

Query text maps through a fixed per-letter expansion table, one to three
symbols per letter, so both sides of a search speak the same token alphabet.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pnm import BinaryImage, GrayImage, box_ink
from .segment import LineBand, WordBox, check_band, mask_runs
from .util import round_half_up


class NoInkError(ValueError):
    """Raised when an operation needs ink pixels and there are none."""


class UnsupportedCharacterError(ValueError):
    """Query text contained a character the shape table cannot encode."""

    def __init__(self, char: str, position: int):
        super().__init__(f"unsupported character {char!r} at position {position}")
        self.char = char
        self.position = position


@dataclass(frozen=True)
class ZoneBands:
    """Row range of the x-height body band; rows above are the ascender
    zone, rows below the descender zone."""

    body_top: int
    body_bottom: int

    def __post_init__(self):
        if self.body_top > self.body_bottom:
            raise ValueError(f"empty body band {self.body_top}..{self.body_bottom}")

    @property
    def body_height(self) -> int:
        return self.body_bottom - self.body_top + 1

    def shifted(self, dy: int) -> "ZoneBands":
        return ZoneBands(self.body_top + dy, self.body_bottom + dy)


@dataclass(frozen=True)
class Region:
    """Inclusive column range within a word image."""

    col_start: int
    col_end: int

    def __post_init__(self):
        if self.col_start > self.col_end:
            raise ValueError(f"empty region {self.col_start}..{self.col_end}")

    @property
    def width(self) -> int:
        return self.col_end - self.col_start + 1


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
    row_counts: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    zone_fraction: float = ZONE_FRACTION,
) -> tuple[np.ndarray, np.ndarray]:
    """Locate the x-height body band of many line bands in one pass, from
    per-row ink counts: the body's first and last rows of each band
    `starts[i]..ends[i]`, in the rows of `row_counts`.

    A band's body is the maximal contiguous run of its rows whose count is
    at least zone_fraction of the band's peak count, containing its (first)
    peak row. The bands' rows are laid end to end; the body run around each
    peak is bounded by the nearest rows below the threshold, or by the
    band's edges.
    """
    if len(starts) == 0:
        return starts, ends
    if starts.min() < 0 or ends.max() >= len(row_counts):
        raise ValueError(f"band outside rows 0..{len(row_counts) - 1}")
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
    body = counts >= zone_fraction * peaks[band_of]
    # The peak row belongs to the body even when zone_fraction exceeds 1.
    body[peak_pos] = True
    # The nearest rows outside the body on either side of each peak (or one
    # past either end), clipped to the peak's band.
    gaps = np.concatenate(([-1], np.flatnonzero(~body), [len(body)]))
    after = np.searchsorted(gaps, peak_pos)
    tops = np.maximum(gaps[after - 1] + 1, firsts) - firsts + starts
    bottoms = np.minimum(gaps[after] - 1, lasts) - firsts + starts
    return tops, bottoms


def estimate_zones(
    img: BinaryImage | GrayImage, band: LineBand, zone_fraction: float = ZONE_FRACTION
) -> ZoneBands:
    """Locate the x-height body band inside a line band of `img`.

    See `zones_from_bands`; returned rows use the same coordinate frame as
    `img`.
    """
    check_band(band, img.height)
    counts = box_ink(img, WordBox(0, band.row_start, img.width - 1, band.row_end)).sum(
        axis=1, dtype=np.int64
    )
    tops, bottoms = zones_from_bands(
        counts, np.array([0]), np.array([band.height - 1]), zone_fraction
    )
    return ZoneBands(band.row_start + int(tops[0]), band.row_start + int(bottoms[0]))


def _region_starts(
    column_counts: np.ndarray, font_size: int, valley_slack: int, min_region_width: float
) -> list[int]:
    """First column of each region; region i ends where region i + 1 starts.

    m is the minimum count over ink-bearing columns; columns with count
    <= m + valley_slack are valleys. Each interior maximal valley run is cut
    at its midpoint column (the midpoint itself starts the right-hand
    region). Regions narrower than round(min_region_width * font_size) are
    merged into their left neighbor, or right neighbor for the leftmost.
    """
    ink_counts = column_counts[column_counts > 0]
    if len(ink_counts) == 0:
        raise NoInkError("word image has no ink")
    valley_cut = int(ink_counts.min()) + valley_slack

    width = len(column_counts)
    run_starts, run_ends = mask_runs(column_counts <= valley_cut)
    # Runs touching either edge have no second side to separate; no cut.
    interior = (run_starts > 0) & (run_ends < width - 1)
    cuts = ((run_starts[interior] + run_ends[interior]) // 2).tolist()

    # A narrow region joins its left neighbor: its start stops being a
    # boundary. Whether it merges depends on its own width only, so each
    # boundary is decided on its own.
    min_width = round_half_up(min_region_width * font_size)
    starts = [0] + [c for c, end in zip(cuts, cuts[1:] + [width]) if end - c >= min_width]
    if len(starts) > 1 and starts[1] < min_width:
        del starts[1]
    return starts


# Region code by index: 0 plain, 1 ascender, 2 descender.
_CODE_BYTES = np.frombuffer(b"xAg", dtype=np.uint8)


def _zone_codes(reach: np.ndarray, zones: ZoneBands, margin: float) -> str:
    """Codes of regions from their ink rows: `reach[r, i]` is True when
    region i has ink in row r, in the row frame of `zones`.

    A margin of round(margin * body height) rows around the body band must
    be cleared before ink counts as reaching the ascender or descender zone;
    descender wins over ascender, and a region reaching neither is 'x'.
    """
    delta = round_half_up(margin * zones.body_height)
    ascender = reach[: max(0, zones.body_top - delta)].any(axis=0)
    descender = reach[max(0, zones.body_bottom + delta + 1) :].any(axis=0)
    codes = np.where(descender, 2, ascender)
    return _CODE_BYTES[codes].tobytes().decode("ascii")


def char_region_segment(
    word: BinaryImage,
    font_size: int,
    valley_slack: int = VALLEY_SLACK,
    min_region_width: float = MIN_REGION_WIDTH,
) -> list[Region]:
    """Cut a word image into regions at near-minimum column-profile valleys.

    See `_region_starts` for the valley and merge rules. Over-segmentation
    relative to true characters is expected.
    """
    counts = (word.bits == 0).sum(axis=0, dtype=np.int32)
    starts = _region_starts(counts, font_size, valley_slack, min_region_width)
    ends = [s - 1 for s in starts[1:]] + [word.width - 1]
    return [Region(s, e) for s, e in zip(starts, ends)]


def classify_region(
    word: BinaryImage, region: Region, zones: ZoneBands, margin: float = MARGIN
) -> str:
    """Classify one region as 'A', 'x' or 'g' by its zone reach.

    `zones` must be expressed in the same row coordinate frame as `word`
    (shift line-level zones by -box.y1 before calling). A margin of
    round(margin * body height) rows around the body band must be cleared
    before ink counts as an ascender or descender.
    """
    sub = word.bits[:, region.col_start : region.col_end + 1]
    reach = (sub == 0).any(axis=1)
    return _zone_codes(reach[:, None], zones, margin)


def word_to_wst(
    page: BinaryImage | GrayImage,
    band: LineBand,
    box: WordBox,
    zones: ZoneBands | None = None,
) -> str:
    """Shape token of one segmented word, left to right.

    Zones default to the line band of the page (stable for short words); pass
    a precomputed `zones` to reuse one estimate across a line or to scope it
    to the word itself. The page may be gray: only the box's pixels are
    thresholded (`pnm.box_ink`). The word is cut and classified in one pass
    over its ink: all regions' ink rows come from one `logical_or.reduceat`.
    """
    if zones is None:
        zones = estimate_zones(page, band)
    ink = box_ink(page, box)
    counts = ink.sum(axis=0, dtype=np.int32)
    starts = _region_starts(counts, band.height, VALLEY_SLACK, MIN_REGION_WIDTH)
    reach = np.logical_or.reduceat(ink, starts, axis=1)
    return _zone_codes(reach, zones.shifted(-box.y1), MARGIN)
