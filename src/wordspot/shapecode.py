"""Shape coding of word images and query text.

A word image is cut into regions at near-minimum valleys of its column
profile (cursive connector strokes are thin, so they sit at the histogram
minimum; the same cut happily over-segments some letters, which the coding
scheme absorbs). Each region is classified by whether its ink reaches the
ascender or descender zone relative to the line's x-height band:

    ascender only -> A,  descender (with or without ascender) -> g,
    neither -> x

Query text maps through a fixed per-letter expansion table, one to three
symbols per letter, so both sides of a search speak the same token alphabet.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pnm import BinaryImage
from .segment import LineBand, WordBox, column_profile, crop_box, mask_runs
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


@dataclass(frozen=True)
class ShapeParams:
    """Knobs for image-side token generation."""

    valley_slack: int = 1
    min_region_width: float = 0.1
    margin: float = 0.1
    zone_fraction: float = 0.5


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


def estimate_zones(
    img: BinaryImage, band: LineBand, zone_fraction: float = 0.5
) -> ZoneBands:
    """Locate the x-height body band inside a line band.

    The body band is the maximal contiguous run of rows whose ink count is at
    least zone_fraction of the peak row count, containing the peak row.
    Returned rows use the same coordinate frame as `img`.
    """
    if band.row_start < 0 or band.row_end >= img.height:
        raise ValueError(f"band {band} outside image rows 0..{img.height - 1}")
    sub = img.bits[band.row_start : band.row_end + 1]
    counts = img.width - sub.sum(axis=1, dtype=np.int64)
    peak = int(counts.max())
    if peak == 0:
        raise NoInkError("band has no ink, zones undefined")
    cut = zone_fraction * peak
    peak_row = int(np.argmax(counts))
    top = peak_row
    while top > 0 and counts[top - 1] >= cut:
        top -= 1
    bottom = peak_row
    while bottom < len(counts) - 1 and counts[bottom + 1] >= cut:
        bottom += 1
    return ZoneBands(band.row_start + top, band.row_start + bottom)


def char_region_segment(
    word: BinaryImage,
    font_size: int,
    valley_slack: int = 1,
    min_region_width: float = 0.1,
) -> list[Region]:
    """Cut a word image into regions at near-minimum column-profile valleys.

    m is the minimum count over ink-bearing columns; columns with count
    <= m + valley_slack are valleys. Each interior maximal valley run is cut
    at its midpoint column (the midpoint itself starts the right-hand
    region). Regions narrower than round(min_region_width * font_size) are
    merged into their left neighbor, or right neighbor for the leftmost.
    Over-segmentation relative to true characters is expected.
    """
    band = LineBand(0, word.height - 1)
    counts = np.array(column_profile(word, band).counts)
    ink_counts = counts[counts > 0]
    if len(ink_counts) == 0:
        raise NoInkError("word image has no ink")
    valley_cut = int(ink_counts.min()) + valley_slack

    width = word.width
    run_starts, run_ends = mask_runs(counts <= valley_cut)
    # Runs touching either edge have no second side to separate; no cut.
    interior = (run_starts > 0) & (run_ends < width - 1)
    cuts = ((run_starts[interior] + run_ends[interior]) // 2).tolist()

    starts = [0] + cuts
    regions = [
        Region(s, (starts[i + 1] - 1) if i + 1 < len(starts) else width - 1)
        for i, s in enumerate(starts)
    ]

    min_width = round_half_up(min_region_width * font_size)
    merged: list[Region] = []
    for region in regions:
        if merged and region.width < min_width:
            merged[-1] = Region(merged[-1].col_start, region.col_end)
        else:
            merged.append(region)
    if len(merged) > 1 and merged[0].width < min_width:
        merged[1] = Region(merged[0].col_start, merged[1].col_end)
        merged.pop(0)
    return merged


def classify_region(
    word: BinaryImage, region: Region, zones: ZoneBands, margin: float = 0.1
) -> str:
    """Classify one region as 'A', 'x' or 'g' by its zone reach.

    `zones` must be expressed in the same row coordinate frame as `word`
    (shift line-level zones by -box.y1 before calling). A margin of
    round(margin * body height) rows around the body band must be cleared
    before ink counts as an ascender or descender.
    """
    delta = round_half_up(margin * zones.body_height)
    sub = word.bits[:, region.col_start : region.col_end + 1]
    ink_rows = np.where((sub == 0).any(axis=1))[0]
    if len(ink_rows) == 0:
        return "x"
    ascender = int(ink_rows[0]) < zones.body_top - delta
    descender = int(ink_rows[-1]) > zones.body_bottom + delta
    if descender:
        return "g"
    if ascender:
        return "A"
    return "x"


def word_to_wst(
    page: BinaryImage,
    band: LineBand,
    box: WordBox,
    params: ShapeParams | None = None,
    zones: ZoneBands | None = None,
) -> str:
    """Shape token of one segmented word, left to right.

    Zones default to the line band of the page (stable for short words); pass
    a precomputed `zones` to reuse one estimate across a line or to scope it
    to the word itself.
    """
    if params is None:
        params = ShapeParams()
    if zones is None:
        zones = estimate_zones(page, band, params.zone_fraction)
    word = crop_box(page, box)
    local_zones = zones.shifted(-box.y1)
    regions = char_region_segment(
        word, band.height, params.valley_slack, params.min_region_width
    )
    return "".join(
        classify_region(word, region, local_zones, params.margin) for region in regions
    )
