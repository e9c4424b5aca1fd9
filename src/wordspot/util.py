"""Small shared numeric helpers: rounding, count dtypes, mask runs and
ASCII decimal fields."""

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


def mask_runs(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and end indices (inclusive) of the maximal True runs of a 1-D mask."""
    padded = np.zeros(len(mask) + 2, dtype=bool)
    padded[1:-1] = mask
    # Edges alternate: a run starts at one and ends just before the next.
    edges = np.flatnonzero(padded[1:] != padded[:-1])
    return edges[::2], edges[1::2] - 1


# For a field of n = 0..8 bytes at the end of an 8-byte little-endian word,
# the mask of the field's bytes; the bytes before the field read as leading
# zeros.
_FIELD_BYTES = np.array(
    [(2**64 - 1) >> 8 * (8 - n) << 8 * (8 - n) for n in range(9)], dtype=np.uint64
)


def ascii_decimals(data, starts: np.ndarray, ends: np.ndarray, most_digits: int) -> np.ndarray:
    """The value of each field data[start:end] of 1 to `most_digits` (at
    most 18) ASCII digits, as int64, and -1 for any other field. Fields are
    read eight bytes at a time, with no loop over fields. No field may start
    before byte 8."""
    # The 8 bytes from each offset of the data, as one little-endian word.
    windows = np.ndarray((len(data) - 7,), "<u8", data, strides=(1,))

    def eight_digits(ends: np.ndarray, lengths: np.ndarray):
        """The last `lengths` (0..8) bytes before each end as decimal digits:
        their value, and whether they all are ASCII digits."""
        # An ASCII digit's byte becomes 0..9, a byte before the field 0.
        digits = (windows[ends - 8] ^ 0x3030303030303030) & _FIELD_BYTES[lengths]
        # A byte is 0..9 when neither it nor it plus 6 reaches 16.
        plain = (digits | digits + 0x0606060606060606) & 0xF0F0F0F0F0F0F0F0 == 0
        # Pairs, then fours, then all eight digits, one multiply each.
        digits = digits * (10 << 8 | 1) >> 8 & 0x00FF00FF00FF00FF
        digits = digits * (100 << 16 | 1) >> 16 & 0x0000FFFF0000FFFF
        return (digits * (10000 << 32 | 1) >> 32).view(np.int64), plain

    lengths = ends - starts
    values, plain = eight_digits(ends, np.minimum(lengths, 8))
    plain &= (lengths >= 1) & (lengths <= most_digits)
    # The digits of a longer field, eight more (then two more) at a time.
    for done in (8, 16):
        long = plain & (lengths > done)
        if long.any():
            high, high_plain = eight_digits(ends[long] - done, np.minimum(lengths[long] - done, 8))
            values[long] += high * 10**done
            plain[long] &= high_plain
    return np.where(plain, values, -1)
