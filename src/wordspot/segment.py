"""Projection-profile page segmentation.

Profiles are integer arrays of ink-pixel counts per row or per column.
Lines are maximal runs of rows whose ink count exceeds a noise threshold
(by default 0.5 % of the page width, worked out per page); words are runs of
columns inside a line band, where zero-ink column gaps longer than
gap_factor * band height separate words and shorter gaps are kept inside a
word. `mask_runs` is the one "maximal runs of a mask" implementation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pnm import BinaryImage
from .util import round_half_up

DEFAULT_GAP_FACTOR = 0.2


@dataclass(frozen=True)
class LineBand:
    """Inclusive row range of one text line."""

    row_start: int
    row_end: int

    def __post_init__(self):
        if self.row_start > self.row_end:
            raise ValueError(f"empty band {self.row_start}..{self.row_end}")

    @property
    def height(self) -> int:
        return self.row_end - self.row_start + 1


@dataclass(frozen=True)
class WordBox:
    """Inclusive pixel bounding box, tight on both axes."""

    x1: int
    y1: int
    x2: int
    y2: int

    def __post_init__(self):
        if self.x1 > self.x2 or self.y1 > self.y2:
            raise ValueError(f"degenerate box {self}")

    @property
    def width(self) -> int:
        return self.x2 - self.x1 + 1

    @property
    def height(self) -> int:
        return self.y2 - self.y1 + 1


def check_band(band: LineBand, height: int) -> None:
    """Raise ValueError unless the band lies within rows 0..height-1."""
    if band.row_start < 0 or band.row_end >= height:
        raise ValueError(
            f"band {band.row_start}..{band.row_end} outside image rows 0..{height - 1}"
        )


def check_gap_factor(gap_factor: float) -> None:
    """Raise ValueError unless the gap factor is finite."""
    if not math.isfinite(gap_factor):
        raise ValueError(f"gap factor must be finite, got {gap_factor}")


def mask_runs(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and end indices (inclusive) of the maximal True runs of a 1-D mask."""
    padded = np.zeros(len(mask) + 2, dtype=bool)
    padded[1:-1] = mask
    # Edges alternate: a run starts at one and ends just before the next.
    edges = np.flatnonzero(padded[1:] != padded[:-1])
    return edges[::2], edges[1::2] - 1


def row_profile(img: BinaryImage) -> np.ndarray:
    """Ink pixels per row of the whole image."""
    # Counts are bounded by the image size, far below 2**31.
    return img.width - img.bits.sum(axis=1, dtype=np.int32)


def column_profile(img: BinaryImage, band: LineBand) -> np.ndarray:
    """Ink pixels per column, restricted to the band's rows."""
    check_band(band, img.height)
    sub = img.bits[band.row_start : band.row_end + 1]
    return band.height - sub.sum(axis=0, dtype=np.int32)


def default_noise_threshold(width: int) -> int:
    """Row counts at or below this are treated as inter-line gap."""
    return max(1, round_half_up(0.005 * width))


def segment_lines(row_counts: np.ndarray, noise_threshold: int) -> list[LineBand]:
    """Group consecutive rows with count above the noise threshold into bands.

    `row_counts` is a row profile; an all-gap profile yields an empty list.
    """
    starts, ends = mask_runs(row_counts > noise_threshold)
    return [LineBand(a, b) for a, b in zip(starts.tolist(), ends.tolist())]


def segment_words(
    img: BinaryImage, band: LineBand, gap_factor: float = DEFAULT_GAP_FACTOR
) -> list[WordBox]:
    """Split one line band into word boxes via its column profile.

    The band height stands in for the line's font size. Zero-ink column runs
    of length <= round(gap_factor * band height) are inter-character gaps and
    stay inside a word; longer runs split words. Leading and trailing empty
    columns are trimmed, never treated as splits. Each box is tightened to
    the minimal bounding box of its ink on both axes.
    """
    check_gap_factor(gap_factor)
    check_band(band, img.height)
    ink = img.bits[band.row_start : band.row_end + 1] == 0
    starts, ends = mask_runs(ink.any(axis=0))
    if len(starts) == 0:
        return []

    gap_limit = round_half_up(gap_factor * band.height)
    split = starts[1:] - ends[:-1] - 1 > gap_limit
    x1s = np.concatenate((starts[:1], starts[1:][split]))
    x2s = np.concatenate((ends[:-1][split], ends[-1:]))
    # Column slices x1s[i]..x1s[i+1]-1 add only blank columns to word i, so
    # OR-ing each slice gives the word's ink rows.
    word_rows = np.logical_or.reduceat(ink, x1s, axis=1)
    y1s = band.row_start + word_rows.argmax(axis=0)
    y2s = band.row_end - word_rows[::-1].argmax(axis=0)
    return [
        WordBox(x1, y1, x2, y2)
        for x1, y1, x2, y2 in zip(x1s.tolist(), y1s.tolist(), x2s.tolist(), y2s.tolist())
    ]

