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
