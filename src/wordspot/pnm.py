"""NetPBM image reading, PGM writing, and fixed-threshold binarization.

Supports the uncompressed NetPBM family only: magics P1-P6, `#` comments,
arbitrary whitespace between header tokens, and for the raw formats a single
whitespace byte between the header and the raster. ASCII rasters (P1-P3)
are read in array passes over blocks of the bytes after the header, so
that reading one takes memory in proportion to a block, not to the file.
Output is always binary PGM (P5) with maxval 255.

Pixel conventions used throughout the pipeline:
  - grayscale: 0 is black, maxval is white
  - binary: bit 0 is ink (black), bit 1 is background (white)

Gray rasters are uint8 when the file stores 8-bit samples (P5 with maxval
below 256) and uint16 otherwise. An 8-bit P5 raster is not copied: its
pixels are a read-only view of the bytes passed to load_image, which may be
a read-only `mmap` of the file. A query binarizes no page: the shape coder,
through `ink_raster`, applies binarize's threshold to the pixels of word
boxes only. The command line maps the page files a query reads, so of an
8-bit P5 page only the rows under its candidates are read from the file,
and the shape coder encodes all of a query's words in one call that holds
one page at a time. `wordspot index` maps its page files too, and
binarizes each page once, straight from the map, holding one page at a time:
the threshold's bool result is the binary page's bits, taken as 0/1 by type
with no second pass over the page.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterator
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .util import ascii_decimals, mask_runs

if TYPE_CHECKING:
    import mmap

# ITU-R BT.601 luma weights for the RGB -> gray conversion, in thousandths so
# that rounding half-up is exact.
_LUMA_MILLI = np.array([299, 587, 114], dtype=np.int64)

_WS = b" \t\n\r\x0b\x0c"
# Tokens are separated by whitespace and by comments, each from a `#` to the
# end of its line.
_COMMENT = re.compile(rb"#[^\r\n]*")
_FILLER = re.compile(b"(?:[%s]|%s)*" % (_WS, _COMMENT.pattern))
_TOKEN = re.compile(b"[^#%s]*" % _WS)
# ASCII rasters are read in blocks of about this many bytes: each block's
# arrays take memory in proportion to it, not to the file.
_ASCII_BLOCK = 1 << 18
_LINE_REST = re.compile(rb"[^\r\n]*")
# The largest page side and page a file may describe.
MAX_SIDE = 1_000_000
MAX_PIXELS = 100_000_000
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
    """Two-level raster; bit 0 = ink, bit 1 = background.

    `bits` are uint8. A bool array (binarize's output) is 0/1 by its type:
    it is viewed as uint8, not copied or scanned. Anything else must hold
    only 0 and 1, checked before it is converted to uint8, so that no other
    value wraps into a bit.
    """

    width: int
    height: int
    bits: np.ndarray

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError("image dimensions must be >= 1")
        bits = self.bits
        if isinstance(bits, np.ndarray) and bits.dtype == np.bool_:
            self.bits = bits.view(np.uint8).reshape(self.height, self.width)
            return
        bits = np.asarray(bits).reshape(self.height, self.width)
        if ((bits != 0) & (bits != 1)).any():
            raise ValueError("binary image bits must be 0 or 1")
        self.bits = bits.astype(np.uint8, copy=False)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BinaryImage):
            return NotImplemented
        return (
            self.width == other.width
            and self.height == other.height
            and np.array_equal(self.bits, other.bits)
        )


def _may_exceed(dtype: np.dtype, maxval: int) -> bool:
    """Whether samples of this unsigned dtype, of 8 or 16 bits, can be above
    maxval; when they cannot (uint8 at 255, uint16 at 65535), a raster needs
    no scan. Literal limits, as in `util.count_dtype`, not an `np.iinfo`
    lookup per page."""
    return maxval < (0xFF if dtype.itemsize == 1 else 0xFFFF)


class _Reader:
    """Byte cursor over a NetPBM file, tracking offsets for error messages."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def token(self, what: str) -> tuple[bytes, int]:
        self.pos = _FILLER.match(self.data, self.pos).end()
        if self.pos >= len(self.data):
            raise PnmError(f"unexpected end of file while reading {what}", len(self.data))
        start, self.pos = self.pos, _TOKEN.match(self.data, self.pos).end()
        return self.data[start : self.pos], start

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


def _ascii_blocks(data: bytes | mmap.mmap, start: int) -> Iterator[tuple[int, int]]:
    """(start, end) of each block of data[start:], in order: about
    _ASCII_BLOCK bytes each, every one ending at whitespace outside a
    comment, at a comment's `#` or at the end of the data, so that no token
    or comment spans two blocks. `start` follows a header token, so it is
    not inside a comment or a token."""
    while start < len(data):
        end = min(start + _ASCII_BLOCK, len(data))
        comment = data.rfind(b"#", start, end)
        if comment >= 0 and _LINE_REST.match(data, comment).end() >= end:
            # Inside a comment, which ends at its line's end.
            end = _LINE_REST.match(data, end).end()
        else:
            end = _TOKEN.match(data, end).end()  # the end of a token there
        yield start, end
        start = end


def _token_bytes(data: bytes | mmap.mmap, start: int, end: int) -> np.ndarray:
    """Which bytes of data[start:end] belong to tokens, as the header reader
    takes them: bytes that are neither whitespace nor in a comment. Neither
    bound is inside a comment."""
    buf = np.frombuffer(data, np.uint8)[start:end]
    mask = (buf - 9 > 4) & (buf != 32)  # not _WS: bytes 9..13 and 32
    for comment in _COMMENT.finditer(data, start, end):
        mask[comment.start() - start : comment.end() - start] = False
    return mask


def _ascii_samples(r: _Reader, count: int, maxval: int) -> np.ndarray:
    """The first `count` P2/P3 samples after r.pos, each 0..maxval, found
    and read in array passes, one block at a time. A PnmError names the
    first bad sample, or else a file that ends before `count` samples."""
    data = r.data
    values = np.empty(count, dtype=np.uint16)
    done = 0
    for start, end in _ascii_blocks(data, r.pos):
        starts, ends = mask_runs(_token_bytes(data, start, end))
        starts, ends = starts[: count - done] + start, ends[: count - done] + start + 1
        block = ascii_decimals(data, starts, ends, 18)
        # A bad sample, or one of more than 18 digits, is read again as the
        # header reads a number: the first bad one raises its error, and a
        # long one in range has leading zeros.
        for i in np.flatnonzero((block < 0) | (block > maxval)).tolist():
            r.pos = int(starts[i])
            block[i] = r.integer("sample", 0, maxval)
        values[done : done + len(block)] = block
        done += len(block)
        if done == count:
            return values
    raise PnmError("unexpected end of file while reading sample", len(data))


def _ascii_bits(r: _Reader, count: int) -> np.ndarray:
    """The first `count` P1 digits after r.pos as gray values (a `0` is
    white, 1; a `1` is ink, 0), one block at a time. Digits may be packed
    without separators. A PnmError names the first bad digit, or else a
    file that ends early."""
    data = r.data
    buf = np.frombuffer(data, np.uint8)
    gray = np.empty(count, dtype=np.uint16)
    done = 0
    for start, end in _ascii_blocks(data, r.pos):
        at = np.flatnonzero(_token_bytes(data, start, end))[: count - done] + start
        digits = buf[at]
        bad = (digits != ord("0")) & (digits != ord("1"))
        if bad.any():
            i = int(at[bad.argmax()])
            raise PnmError(f"invalid bitmap digit {chr(data[i])!r}", i)
        gray[done : done + len(at)] = digits == ord("0")
        done += len(at)
        if done == count:
            return gray
    raise PnmError("truncated bitmap", len(data))


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


def load_image(data: bytes | mmap.mmap) -> GrayImage:
    """Parse PBM (P1/P4), PGM (P2/P5) or PPM (P3/P6) bytes into a GrayImage.

    PGM values are kept verbatim. PBM ink bits map to gray 0 and white bits
    to gray 1 (maxval 1). PPM pixels are converted with BT.601 luma, rounded
    half-up. Pixels are uint8 for P5 with maxval below 256, a read-only view
    of `data` (which then stays mapped while they live), and uint16
    otherwise. Raises PnmError with the offending byte
    offset on malformed input.
    """
    r = _Reader(data)
    magic, start = r.token("magic number")
    if magic not in (b"P1", b"P2", b"P3", b"P4", b"P5", b"P6"):
        raise PnmError(f"unsupported or malformed magic number {magic!r}", start)

    width = r.integer("width", 1, MAX_SIDE)
    height = r.integer("height", 1, MAX_SIDE)
    if width * height > MAX_PIXELS:
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
    """Threshold a GrayImage: bit 0 (ink) iff gray < ink_cut(maxval). The
    comparison's bools become the bits with no further pass."""
    return BinaryImage(img.width, img.height, img.pixels >= ink_cut(img.maxval))


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
