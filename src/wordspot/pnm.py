"""NetPBM image reading, PGM writing, and fixed-threshold binarization.

Supports the uncompressed NetPBM family only: magics P1-P6, `#` comments,
arbitrary whitespace between header tokens, and for the raw formats a single
whitespace byte between the header and the raster. Output is always binary
PGM (P5) with maxval 255.

Pixel conventions used throughout the pipeline:
  - grayscale: 0 is black, maxval is white
  - binary: bit 0 is ink (black), bit 1 is background (white)

Gray rasters are uint8 when the file stores 8-bit samples (P5 with maxval
below 256) and uint16 otherwise. An 8-bit P5 raster is not copied: its
pixels are a read-only view of the bytes passed to load_image. A query
binarizes no page: `box_ink`, and the shape coder through `ink_raster`,
apply binarize's threshold to the pixels of word boxes only, so a gray page
is read once and only inside its candidates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .segment import WordBox

# ITU-R BT.601 luma weights for the RGB -> gray conversion, in thousandths so
# that rounding half-up is exact.
_LUMA_MILLI = np.array([299, 587, 114], dtype=np.int64)

_WS = b" \t\n\r\x0b\x0c"
_MAX_PIXELS = 100_000_000
_GRAY_DTYPES = (np.dtype(np.uint8), np.dtype(np.uint16))


class PnmError(ValueError):
    """Malformed NetPBM data. `offset` is the byte position of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.message = message
        self.offset = offset


@dataclass(eq=False)
class GrayImage:
    """Grayscale raster; `pixels` has shape (height, width), row-major.

    A uint8 or uint16 array is kept as given, with its dtype; anything else
    is converted to uint16. So a page loaded from an 8-bit file holds uint8
    pixels, which may be a read-only view of the file's bytes: copy before
    writing (rescale_to_255 does).
    """

    width: int
    height: int
    maxval: int
    pixels: np.ndarray

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError("image dimensions must be >= 1")
        if not 1 <= self.maxval <= 65535:
            raise ValueError(f"maxval {self.maxval} out of range 1..65535")
        pixels = self.pixels
        if not (isinstance(pixels, np.ndarray) and pixels.dtype in _GRAY_DTYPES):
            pixels = np.asarray(pixels, dtype=np.uint16)
        self.pixels = pixels.reshape(self.height, self.width)
        if _may_exceed(self.pixels.dtype, self.maxval) and int(self.pixels.max()) > self.maxval:
            raise ValueError("pixel value exceeds maxval")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GrayImage):
            return NotImplemented
        return (
            self.width == other.width
            and self.height == other.height
            and self.maxval == other.maxval
            and np.array_equal(self.pixels, other.pixels)
        )


@dataclass(eq=False)
class BinaryImage:
    """Two-level raster; bit 0 = ink, bit 1 = background."""

    width: int
    height: int
    bits: np.ndarray

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError("image dimensions must be >= 1")
        self.bits = np.asarray(self.bits, dtype=np.uint8).reshape(
            self.height, self.width
        )
        if self.bits.max() > 1:
            raise ValueError("binary image bits must be 0 or 1")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BinaryImage):
            return NotImplemented
        return (
            self.width == other.width
            and self.height == other.height
            and np.array_equal(self.bits, other.bits)
        )


def _may_exceed(dtype: np.dtype, maxval: int) -> bool:
    """Whether samples of this integer dtype can be above maxval; when they
    cannot (uint8 at 255, uint16 at 65535), a raster needs no scan."""
    return np.iinfo(dtype).max > maxval


class _Reader:
    """Byte cursor over a NetPBM file, tracking offsets for error messages."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def skip_filler(self) -> None:
        data, n = self.data, len(self.data)
        while self.pos < n:
            c = data[self.pos]
            if c in _WS:
                self.pos += 1
            elif c == 0x23:  # '#' comment runs to end of line
                while self.pos < n and data[self.pos] not in b"\r\n":
                    self.pos += 1
            else:
                break

    def token(self, what: str) -> tuple[bytes, int]:
        self.skip_filler()
        data, n = self.data, len(self.data)
        if self.pos >= n:
            raise PnmError(f"unexpected end of file while reading {what}", n)
        start = self.pos
        while self.pos < n and data[self.pos] not in _WS and data[self.pos] != 0x23:
            self.pos += 1
        return data[start : self.pos], start

    def integer(self, what: str, lo: int, hi: int) -> int:
        tok, start = self.token(what)
        if not tok.isdigit():
            raise PnmError(f"malformed {what}: {tok!r}", start)
        value = int(tok)
        if not lo <= value <= hi:
            raise PnmError(f"{what} {value} outside {lo}..{hi}", start)
        return value

    def single_whitespace(self) -> None:
        if self.pos >= len(self.data) or self.data[self.pos] not in _WS:
            raise PnmError("raster must follow a single whitespace byte", self.pos)
        self.pos += 1

    def skip_raster(self, count: int, what: str) -> int:
        """Step over `count` raster bytes; return the offset they start at.

        Callers read the raster in place, with np.frombuffer at that offset,
        so no bytes are copied.
        """
        start = self.pos
        have = len(self.data) - start
        if have < count:
            raise PnmError(
                f"truncated {what}: need {count} bytes, have {have}", len(self.data)
            )
        self.pos += count
        return start


def _ascii_samples(r: _Reader, count: int, maxval: int) -> np.ndarray:
    vals = np.empty(count, dtype=np.uint16)
    for i in range(count):
        vals[i] = r.integer("sample", 0, maxval)
    return vals


def _ascii_bits(r: _Reader, count: int) -> np.ndarray:
    # P1 bits may be packed without separators; read digit by digit.
    vals = np.empty(count, dtype=np.uint16)
    for i in range(count):
        r.skip_filler()
        if r.pos >= len(r.data):
            raise PnmError("truncated bitmap", len(r.data))
        c = r.data[r.pos]
        if c == 0x30:  # '0' = white
            vals[i] = 1
        elif c == 0x31:  # '1' = ink
            vals[i] = 0
        else:
            raise PnmError(f"invalid bitmap digit {chr(c)!r}", r.pos)
        r.pos += 1
    return vals


def _raw_samples(r: _Reader, count: int, maxval: int) -> np.ndarray:
    """8-bit samples as a uint8 view of r.data; 16-bit ones as a uint16 copy,
    since big-endian samples need a byte swap."""
    dtype = np.dtype(np.uint8) if maxval < 256 else np.dtype(">u2")
    start = r.skip_raster(count * dtype.itemsize, "raster")
    vals = np.frombuffer(r.data, dtype, count=count, offset=start)
    if _may_exceed(dtype, maxval) and int(vals.max(initial=0)) > maxval:
        idx = int(np.argmax(vals > maxval))
        raise PnmError(
            f"sample {int(vals[idx])} exceeds maxval {maxval}", start + idx * dtype.itemsize
        )
    return vals if maxval < 256 else vals.astype(np.uint16)


def _luma(rgb: np.ndarray) -> np.ndarray:
    flat = rgb.astype(np.int64).reshape(-1, 3)
    return ((flat @ _LUMA_MILLI + 500) // 1000).astype(np.uint16)


def load_image(data: bytes) -> GrayImage:
    """Parse PBM (P1/P4), PGM (P2/P5) or PPM (P3/P6) bytes into a GrayImage.

    PGM values are kept verbatim. PBM ink bits map to gray 0 and white bits
    to gray 1 (maxval 1). PPM pixels are converted with BT.601 luma, rounded
    half-up. Pixels are uint8 for P5 with maxval below 256, a read-only view
    of `data`, and uint16 otherwise. Raises PnmError with the offending byte
    offset on malformed input.
    """
    r = _Reader(data)
    magic, start = r.token("magic number")
    if magic not in (b"P1", b"P2", b"P3", b"P4", b"P5", b"P6"):
        raise PnmError(f"unsupported or malformed magic number {magic!r}", start)

    width = r.integer("width", 1, 1_000_000)
    height = r.integer("height", 1, 1_000_000)
    if width * height > _MAX_PIXELS:
        raise PnmError(f"image too large: {width}x{height}", r.pos)

    if magic in (b"P1", b"P4"):
        maxval = 1
        if magic == b"P1":
            gray = _ascii_bits(r, width * height)
        else:
            r.single_whitespace()
            row_bytes = (width + 7) // 8
            start = r.skip_raster(row_bytes * height, "bitmap raster")
            packed = np.frombuffer(
                r.data, np.uint8, count=row_bytes * height, offset=start
            ).reshape(height, row_bytes)
            bits = np.unpackbits(packed, axis=1)[:, :width]
            gray = (1 - bits).astype(np.uint16)  # bit 1 = ink = gray 0
        return GrayImage(width, height, maxval, gray)

    maxval = r.integer("maxval", 1, 65535)
    samples_per_pixel = 3 if magic in (b"P3", b"P6") else 1
    count = width * height * samples_per_pixel

    if magic in (b"P2", b"P3"):
        vals = _ascii_samples(r, count, maxval)
    else:
        r.single_whitespace()
        vals = _raw_samples(r, count, maxval)

    if samples_per_pixel == 3:
        vals = _luma(vals)
    return GrayImage(width, height, maxval, vals)


# A pixel is ink iff its gray is below this fraction of maxval.
THRESHOLD_FRACTION = 0.5


def ink_cut(maxval: int) -> int:
    """Smallest background gray: a pixel is ink iff gray < ink_cut(maxval).

    Pixels are integers, so comparing with ceil(THRESHOLD_FRACTION * maxval)
    is exact and keeps the comparison in the raster's integer dtype. The
    comparison is strict, so the threshold is unambiguous at the midpoint.
    """
    return math.ceil(THRESHOLD_FRACTION * maxval)


def binarize(img: GrayImage) -> BinaryImage:
    """Threshold a GrayImage: bit 0 (ink) iff gray < ink_cut(maxval)."""
    bits = (img.pixels >= ink_cut(img.maxval)).view(np.uint8)
    return BinaryImage(img.width, img.height, bits)


def box_ink(img: GrayImage | BinaryImage, box: WordBox) -> np.ndarray:
    """Ink mask of the pixels inside an (inclusive) box of a page.

    For a GrayImage this is binarize's rule applied to the box's pixels
    only, `pixels[box] < ink_cut(maxval)`; for a BinaryImage, `bits[box] == 0`.
    So `box_ink(gray, box)` equals `box_ink(binarize(gray), box)`.
    """
    if box.x1 < 0 or box.y1 < 0 or box.x2 >= img.width or box.y2 >= img.height:
        raise ValueError(f"box {box} outside image {img.width}x{img.height}")
    raster, cut = ink_raster(img)
    return raster[box.y1 : box.y2 + 1, box.x1 : box.x2 + 1] < cut


def ink_raster(img: GrayImage | BinaryImage) -> tuple[np.ndarray, int]:
    """A page's raster and the sample value below which a pixel is ink:
    the pixels and ink_cut(maxval) for a GrayImage, the bits and 1 (ink is
    bit 0) for a BinaryImage."""
    if isinstance(img, BinaryImage):
        return img.bits, 1
    return img.pixels, ink_cut(img.maxval)


# Rows rescaled per step, so that rescale_to_255's wide temporaries stay
# small next to the page (about 1 MB of uint32 for any page width).
_RESCALE_PIXELS = 1 << 18


def rescale_to_255(img: GrayImage) -> GrayImage:
    """Return a writable uint8 copy with maxval 255, rescaled half-up if needed.

    floor(255 * p / maxval + 1/2) is computed exactly in integers as
    (2 * 255 * p + maxval) // (2 * maxval), at most 2 * 255 * 65535 + 65535
    < 2**32, in uint32 blocks of rows, so the only page-sized array is the
    output.
    """
    if img.maxval == 255:
        return GrayImage(img.width, img.height, 255, img.pixels.astype(np.uint8))
    out = np.empty((img.height, img.width), dtype=np.uint8)
    step = max(1, _RESCALE_PIXELS // img.width)
    for row in range(0, img.height, step):
        wide = img.pixels[row : row + step].astype(np.uint32)
        wide *= 2 * 255
        wide += img.maxval
        wide //= 2 * img.maxval
        out[row : row + step] = wide
    return GrayImage(img.width, img.height, 255, out)


def write_gray(img: GrayImage) -> bytes:
    """Serialize as binary PGM (P5), maxval 255.

    Round-trips through load_image bit-exactly when img.maxval is 255; a
    uint8 page at maxval 255 is not copied before the output is built.
    """
    if img.maxval != 255:
        img = rescale_to_255(img)
    px = np.ascontiguousarray(img.pixels.astype(np.uint8, copy=False))
    header = f"P5\n{img.width} {img.height}\n255\n".encode("ascii")
    return b"".join((header, px.data))
