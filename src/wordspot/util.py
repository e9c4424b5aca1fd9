"""Small shared numeric helpers."""

import math

import numpy as np


def round_half_up(value: float | np.ndarray) -> int | np.ndarray:
    """Round to the nearest integer, ties away from zero-ward (0.5 -> 1).

    Used everywhere a ratio is turned into a pixel count so that results
    do not depend on the platform's banker's rounding. A float array gives
    an int64 array, rounded by the same float arithmetic.
    """
    if isinstance(value, np.ndarray):
        return np.floor(value + 0.5).astype(np.int64)
    return int(math.floor(value + 0.5))


def count_dtype(most: int) -> type[np.integer]:
    """The narrowest dtype that holds every count from 0 to `most`: uint8 up
    to 255, uint16 up to 65,535, else int32. A sum in it is exact and
    cheaper than a wider one; callers count pixels of one image, of which
    `pnm.load_image` allows at most 10**8. Literal limits, not `np.iinfo`,
    which would cost more than the narrow sum saves on a word box."""
    if most <= 0xFF:
        return np.uint8
    if most <= 0xFFFF:
        return np.uint16
    return np.int32
