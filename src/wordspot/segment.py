"""Projection-profile page segmentation.

Profiles are integer arrays of ink-pixel counts per row or per column.
Lines are maximal runs of rows whose ink count exceeds a noise threshold
(by default 0.5 % of the page width, worked out per page); words are runs of
columns inside a line band, where zero-ink column gaps longer than
GAP_FACTOR (0.2) x band height separate words and shorter gaps are kept
inside a word. A page's line bands are two arrays, their first and last
rows, and `segment_words` finds the words of all of them in one call, as
one row of integers per word; no class wraps a band. Lines and words are
runs of `util.mask_runs`, the one "maximal runs of a mask" implementation,
which also finds `shapecode`'s body bands and valley runs and `pnm`'s ASCII
raster tokens.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pnm import BinaryImage
from .util import check_bands, count_dtype, mask_runs, round_half_up

# The inter-character gap limit, as a fraction of the band height.
GAP_FACTOR = 0.2


@dataclass(frozen=True)
class WordBox:
    """Inclusive pixel bounding box, tight on both axes. A WordIndex checks
    the rows it builds boxes from."""

    x1: int
    y1: int
    x2: int
    y2: int

    @property
    def width(self) -> int:
        return self.x2 - self.x1 + 1

    @property
    def height(self) -> int:
        return self.y2 - self.y1 + 1


def row_profile(img: BinaryImage) -> np.ndarray:
    """Ink pixels per row of the whole image, as int32."""
    # Bits are 0 or 1, so no row sums past the width.
    background = img.bits.sum(axis=1, dtype=count_dtype(img.width))
    return np.subtract(img.width, background, dtype=np.int32)


def column_profile(img: BinaryImage) -> np.ndarray:
    """Ink pixels per column of the whole image, as int32."""
    background = img.bits.sum(axis=0, dtype=count_dtype(img.height))
    return np.subtract(img.height, background, dtype=np.int32)


def default_noise_threshold(width: int) -> int:
    """Row counts at or below this are treated as inter-line gap."""
    return max(1, round_half_up(0.005 * width))


def segment_lines(
    row_counts: np.ndarray, noise_threshold: int
) -> tuple[np.ndarray, np.ndarray]:
    """The line bands of a row profile: the first and the last row of each
    maximal run of rows whose count is above the noise threshold, as two
    int64 arrays, empty for an all-gap profile."""
    return mask_runs(row_counts > noise_threshold)


def segment_words(img: BinaryImage, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Word boxes of all of a page's line bands, found in one pass.

    Band i holds the rows starts[i]..ends[i] of `img`, inclusive, as
    `segment_lines` returns them; a band that is empty or outside the image
    raises ValueError. Returns one int64 row per word, `(band, x1, y1, x2,
    y2)`: the position of the word's band in `starts` and its inclusive box,
    in band order and left to right within a band. A band's height stands in
    for its line's font size. Zero-ink column runs of length <=
    round(GAP_FACTOR * band height) are inter-character gaps and stay inside
    a word; longer runs split words. Leading and trailing empty columns are trimmed, never
    treated as splits. Each box is tightened to the minimal bounding box of
    its ink on both axes.

    The bands' "column has ink" masks are laid end to end, each followed by
    one blank column so that no run crosses into the next band, and their
    runs are found in one `mask_runs` call.
    """
    check_bands(starts, ends, img.height)
    width = img.width
    stride = width + 1
    bands = list(zip(starts.tolist(), ends.tolist()))
    # A column has ink in a band iff its least bit over the band's rows is 0.
    masks = np.zeros((len(bands), stride), dtype=bool)
    for row, (start, end) in enumerate(bands):
        np.equal(img.bits[start : end + 1].min(axis=0), 0, out=masks[row, :width])
    run_starts, run_ends = mask_runs(masks.ravel())
    if len(run_starts) == 0:
        return np.empty((0, 5), dtype=np.int64)

    run_bands = run_starts // stride
    gap_limits = round_half_up(GAP_FACTOR * (ends - starts + 1))
    split = (run_bands[1:] != run_bands[:-1]) | (
        run_starts[1:] - run_ends[:-1] - 1 > gap_limits[run_bands[:-1]]
    )
    first = np.concatenate(([True], split))
    last = np.concatenate((split, [True]))
    word_bands = run_bands[first]
    x1s = run_starts[first] - word_bands * stride
    x2s = run_ends[last] - word_bands * stride
    y1s = np.empty_like(x1s)
    y2s = np.empty_like(x1s)
    bounds = np.searchsorted(word_bands, np.arange(len(bands) + 1)).tolist()
    for row, (start, end) in enumerate(bands):
        lo, hi = bounds[row], bounds[row + 1]
        if lo == hi:
            continue
        # Column slices x1s[i]..x1s[i+1]-1 add only blank columns to word i,
        # so a word's least bit in a row is 0 iff the word has ink there.
        # Bits are 0 or 1, so their AND is their least, and cheaper.
        word_rows = np.bitwise_and.reduceat(img.bits[start : end + 1], x1s[lo:hi], axis=1)
        y1s[lo:hi] = start + word_rows.argmin(axis=0)
        y2s[lo:hi] = end - word_rows[::-1].argmin(axis=0)
    return np.column_stack((word_bands, x1s, y1s, x2s, y2s))
