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


def zones_from_rows(
    row_counts: np.ndarray, band: LineBand, zone_fraction: float = 0.5
) -> ZoneBands:
    """Locate the x-height body band of a line from per-row ink counts.

    `row_counts[r]` is the ink count of row r (a page's row profile, or any
    array indexed in the frame of `band`). The body band is the maximal
    contiguous run of band rows whose count is at least zone_fraction of the
    peak row count, containing the (first) peak row.
    """
    check_band(band, len(row_counts))
    counts = row_counts[band.row_start : band.row_end + 1]
    peak_row = int(counts.argmax())
    peak = int(counts[peak_row])
    if peak == 0:
        raise NoInkError("band has no ink, zones undefined")
    body = counts >= zone_fraction * peak
    # The peak row belongs to the body even when zone_fraction exceeds 1.
    body[peak_row] = True
    starts, ends = mask_runs(body)
    run = int(np.searchsorted(ends, peak_row))
    return ZoneBands(band.row_start + int(starts[run]), band.row_start + int(ends[run]))


def zones_from_bands(
    row_counts: np.ndarray, starts: np.ndarray, ends: np.ndarray, zone_fraction: float = 0.5
) -> tuple[np.ndarray, np.ndarray]:
    """`zones_from_rows` for many bands of one page in one pass: the body
    band's first and last rows of each band `starts[i]..ends[i]`.

    The bands' rows are laid end to end. The body run around each band's
    first peak row is bounded by the nearest rows below the threshold, or by
    the band's edges.
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
    img: BinaryImage | GrayImage, band: LineBand, zone_fraction: float = 0.5
) -> ZoneBands:
    """Locate the x-height body band inside a line band of `img`.

    See `zones_from_rows`; returned rows use the same coordinate frame as
    `img`.
    """
    check_band(band, img.height)
    counts = box_ink(img, WordBox(0, band.row_start, img.width - 1, band.row_end)).sum(
        axis=1, dtype=np.int64
    )
    local = zones_from_rows(counts, LineBand(0, band.height - 1), zone_fraction)
    return local.shifted(band.row_start)


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
    valley_slack: int = 1,
    min_region_width: float = 0.1,
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
    word: BinaryImage, region: Region, zones: ZoneBands, margin: float = 0.1
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
    params: ShapeParams | None = None,
    zones: ZoneBands | None = None,
) -> str:
    """Shape token of one segmented word, left to right.

    Zones default to the line band of the page (stable for short words); pass
    a precomputed `zones` to reuse one estimate across a line or to scope it
    to the word itself. The page may be gray: only the box's pixels are
    thresholded (`pnm.box_ink`). The word is cut and classified in one pass
    over its ink: all regions' ink rows come from one `logical_or.reduceat`.
    """
    if params is None:
        params = ShapeParams()
    if zones is None:
        zones = estimate_zones(page, band, params.zone_fraction)
    ink = box_ink(page, box)
    counts = ink.sum(axis=0, dtype=np.int32)
    starts = _region_starts(
        counts, band.height, params.valley_slack, params.min_region_width
    )
    reach = np.logical_or.reduceat(ink, starts, axis=1)
    return _zone_codes(reach, zones.shifted(-box.y1), params.margin)
