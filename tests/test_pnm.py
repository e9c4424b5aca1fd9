"""NetPBM parsing, writing, and binarization."""

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from wordspot.pnm import (
    BinaryImage,
    GrayImage,
    PnmError,
    binarize,
    box_ink,
    ink_cut,
    load_image,
    rescale_to_255,
    write_gray,
)
from wordspot.segment import WordBox


def gray(width, height, maxval, values):
    return GrayImage(width, height, maxval, np.array(values, dtype=np.uint16))


class TestLoadAscii:
    def test_p2_values_copied_verbatim(self):
        img = load_image(b"P2\n2 1\n255\n0 255")
        assert img == gray(2, 1, 255, [0, 255])

    def test_p1_ink_bit_maps_to_gray_zero(self):
        img = load_image(b"P1\n2 1\n1 0")
        assert img == gray(2, 1, 1, [0, 1])

    def test_p1_packed_digits(self):
        img = load_image(b"P1\n4 1\n1010")
        assert list(img.pixels[0]) == [0, 1, 0, 1]

    def test_p3_luma(self):
        # 0.299 * 255 = 76.245 -> 76
        img = load_image(b"P3\n1 1\n255\n255 0 0")
        assert img == gray(1, 1, 255, [76])

    def test_p3_luma_rounds_half_up(self):
        # 0.587 * 100 = 58.7 -> 59; 0.299*1 + 0.114*2 = 0.527 -> 1
        assert load_image(b"P3\n1 1\n255\n0 100 0").pixels[0, 0] == 59
        assert load_image(b"P3\n1 1\n255\n1 0 2").pixels[0, 0] == 1

    def test_p3_luma_exact_tie_rounds_up(self):
        # 0.587 * 36 + 0.114 * 12 = 22.5 exactly; in binary floating point
        # the sum comes out just below 22.5.
        assert load_image(b"P3\n1 1\n255\n0 36 12").pixels[0, 0] == 23

    def test_comments_and_whitespace(self):
        data = b"P2 # magic\n# a comment line\n 2\t1 # dims\n255\n 0 # zero\n 255"
        assert load_image(data) == gray(2, 1, 255, [0, 255])

    def test_sixteen_bit_maxval(self):
        img = load_image(b"P2\n1 1\n65535\n40000")
        assert img.maxval == 65535
        assert img.pixels[0, 0] == 40000


class TestLoadRaw:
    def test_p5_single_byte_samples(self):
        img = load_image(b"P5\n2 2\n255\n" + bytes([0, 1, 254, 255]))
        assert img == gray(2, 2, 255, [0, 1, 254, 255])

    def test_p5_two_byte_samples_big_endian(self):
        img = load_image(b"P5\n1 1\n65535\n" + (40000).to_bytes(2, "big"))
        assert img.pixels[0, 0] == 40000

    def test_p4_packed_rows_pad_to_byte(self):
        # width 3: one byte per row, bits MSB-first, bit 1 = ink = gray 0.
        data = b"P4\n3 2\n" + bytes([0b10100000, 0b01000000])
        img = load_image(data)
        assert list(img.pixels[0]) == [0, 1, 0]
        assert list(img.pixels[1]) == [1, 0, 1]

    def test_p6_luma(self):
        img = load_image(b"P6\n1 1\n255\n" + bytes([255, 0, 0]))
        assert img.pixels[0, 0] == 76


class TestLoadErrors:
    @pytest.mark.parametrize(
        "data,offset",
        [
            (b"Q5\n1 1\n255\n\x00", 0),
            (b"P7\n1 1\n255\n\x00", 0),
            (b"P2\nx 1\n255\n0", 3),
            (b"P2\n0 1\n255\n0", 3),
            (b"P2\n1 1\n0\n0", 7),
            (b"P2\n1 1\n65536\n0", 7),
        ],
    )
    def test_header_errors_name_offset(self, data, offset):
        with pytest.raises(PnmError) as err:
            load_image(data)
        assert err.value.offset == offset

    def test_truncated_ascii_raster(self):
        data = b"P2\n2 1\n255\n7"
        with pytest.raises(PnmError) as err:
            load_image(data)
        assert err.value.offset == len(data)

    def test_truncated_raw_raster(self):
        data = b"P5\n2 2\n255\n\x00\x01"
        with pytest.raises(PnmError) as err:
            load_image(data)
        assert err.value.offset == len(data)

    def test_ascii_sample_above_maxval(self):
        with pytest.raises(PnmError) as err:
            load_image(b"P2\n2 1\n10\n3 11")
        assert err.value.offset == 12

    def test_16bit_raw_sample_above_maxval_names_its_offset(self):
        data = b"P5\n2 1\n1000\n" + bytes([0, 3, 3, 233])
        with pytest.raises(PnmError) as err:
            load_image(data)
        assert err.value.offset == len(data) - 2

    def test_full_range_rasters_load_every_value(self):
        # uint8 at 255 and uint16 at 65535 cannot exceed maxval: no scan,
        # and every sample is kept.
        narrow = load_image(b"P5\n256 1\n255\n" + bytes(range(256)))
        assert narrow.pixels[0].tolist() == list(range(256))
        wide = load_image(b"P5\n2 1\n65535\n\x00\x00\xff\xff")
        assert wide.pixels[0].tolist() == [0, 65535]

    def test_raw_sample_above_maxval_names_its_offset(self):
        data = b"P5\n2 1\n10\n" + bytes([3, 11])
        with pytest.raises(PnmError) as err:
            load_image(data)
        assert err.value.offset == len(data) - 1

    def test_p1_bad_digit(self):
        with pytest.raises(PnmError) as err:
            load_image(b"P1\n2 1\n0 2")
        assert err.value.offset == 9


class TestBinarize:
    def test_strict_midpoint_comparison(self):
        # 0.5 * 255 = 127.5; 64 is ink, 128 is background.
        img = gray(2, 1, 255, [64, 128])
        assert list(binarize(img).bits[0]) == [0, 1]

    @given(st.integers(1, 65535), st.lists(st.integers(0, 65535), min_size=1, max_size=40))
    @example(65535, [32767, 32768])
    @example(2, [0, 1, 2])
    @example(1, [0, 1])
    def test_ink_iff_below_half_of_maxval(self, maxval, values):
        # The exact rational rule, free of any float rounding.
        values = [v % (maxval + 1) for v in values]
        img = gray(len(values), 1, maxval, values)
        assert binarize(img).bits[0].tolist() == [int(2 * v >= maxval) for v in values]

    def test_all_zero_is_all_ink(self):
        img = gray(3, 2, 255, [0] * 6)
        assert binarize(img).bits.sum() == 0

    def test_all_maxval_is_all_background(self):
        img = gray(3, 2, 255, [255] * 6)
        assert binarize(img).bits.sum() == 6

    def test_pbm_pattern_recovered(self):
        rng = random.Random(11)
        bits = [rng.randrange(2) for _ in range(64)]
        body = " ".join(str(b) for b in bits)
        img = load_image(f"P1\n8 8\n{body}".encode())
        recovered = binarize(img)
        # PBM bit 1 (black) corresponds to binary bit 0 (ink).
        assert [1 - b for b in bits] == list(recovered.bits.ravel())


class TestWriteGray:
    def test_header_and_payload(self):
        assert write_gray(gray(1, 1, 255, [7])) == b"P5\n1 1\n255\n\x07"

    def test_payload_bytes(self):
        assert write_gray(gray(2, 1, 255, [0, 255])).endswith(b"\x00\xff")

    def test_round_trip_identity_maxval_255(self):
        rng = random.Random(3)
        values = [rng.randrange(256) for _ in range(15 * 9)]
        img = gray(15, 9, 255, values)
        assert load_image(write_gray(img)) == img

    def test_rescales_other_maxvals(self):
        img = gray(2, 1, 1, [0, 1])
        out = load_image(write_gray(img))
        assert list(out.pixels[0]) == [0, 255]
        # 40000 / 65535 * 255 = 155.6 -> 156
        img16 = gray(1, 1, 65535, [40000])
        assert load_image(write_gray(img16)).pixels[0, 0] == 156

    def test_rescale_to_255_copies(self):
        img = gray(1, 1, 255, [9])
        copy = rescale_to_255(img)
        copy.pixels[0, 0] = 0
        assert img.pixels[0, 0] == 9

    def test_writing_an_8bit_page_holds_one_page_sized_buffer(self):
        # A 2000x1268 page, the size of the benchmark's pages.
        pixels = np.random.default_rng(5).integers(0, 256, (1268, 2000), dtype=np.uint8)
        img = GrayImage(2000, 1268, 255, pixels)
        tracemalloc.start()
        try:
            data = write_gray(img)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * pixels.nbytes
        assert data == b"P5\n2000 1268\n255\n" + pixels.tobytes()


def float_rescale(pixels, maxval):
    """The float formula integer rescaling must reproduce."""
    return np.floor(pixels.astype(np.float64) * 255.0 / maxval + 0.5).astype(np.uint8)


class TestRescaleTo255:
    @pytest.mark.parametrize("maxval", [1, 2, 254, 256, 1023])
    def test_every_value_matches_the_float_formula(self, maxval):
        values = np.arange(maxval + 1)
        dtype = np.uint8 if maxval < 256 else np.uint16
        img = GrayImage(len(values), 1, maxval, values.astype(dtype))
        assert rescale_to_255(img).pixels[0].tolist() == float_rescale(values, maxval).tolist()

    def test_random_16bit_page_matches_the_float_formula(self):
        # Tall enough to be rescaled in several blocks of rows.
        pixels = np.random.default_rng(8).integers(0, 65536, (1000, 600), dtype=np.uint16)
        out = rescale_to_255(GrayImage(600, 1000, 65535, pixels))
        assert out.maxval == 255 and out.pixels.dtype == np.uint8
        assert np.array_equal(out.pixels, float_rescale(pixels, 65535))

    @pytest.mark.parametrize(
        "maxval,dtype", [(65535, np.uint16), (1000, np.uint16), (100, np.uint8)]
    )
    def test_writing_a_page_of_another_maxval_peaks_below_three_rasters(self, maxval, dtype):
        # A 2000x1268 page, the size of the benchmark's pages.
        rng = np.random.default_rng(6)
        pixels = rng.integers(0, maxval + 1, (1268, 2000)).astype(dtype)
        img = GrayImage(2000, 1268, maxval, pixels)
        tracemalloc.start()
        try:
            data = write_gray(img)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * pixels.nbytes
        assert data == b"P5\n2000 1268\n255\n" + float_rescale(pixels, maxval).tobytes()


@st.composite
def gray_pages_and_boxes(draw):
    """A random gray page, of uint8 pixels when its maxval allows, and a box
    inside it."""
    maxval = draw(st.sampled_from([1, 255, 256, 65535]) | st.integers(1, 65535))
    width, height = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dtype = np.uint8 if maxval < 256 and draw(st.booleans()) else np.uint16
    pixels = rng.integers(0, maxval + 1, (height, width)).astype(dtype)
    x1 = draw(st.integers(0, width - 1))
    y1 = draw(st.integers(0, height - 1))
    box = WordBox(x1, y1, draw(st.integers(x1, width - 1)), draw(st.integers(y1, height - 1)))
    return GrayImage(width, height, maxval, pixels), box


class TestBoxInk:
    @given(gray_pages_and_boxes())
    @example((GrayImage(4, 1, 255, np.array([127, 128, 0, 255], dtype=np.uint8)),
              WordBox(0, 0, 3, 0)))
    @example((GrayImage(2, 1, 65535, np.array([32767, 32768], dtype=np.uint16)),
              WordBox(0, 0, 1, 0)))
    def test_gray_box_ink_is_the_binarized_pages_ink(self, page_and_box):
        page, box = page_and_box
        ink = box_ink(page, box)
        binary = binarize(page)
        rows, cols = slice(box.y1, box.y2 + 1), slice(box.x1, box.x2 + 1)
        assert np.array_equal(ink, binary.bits[rows, cols] == 0)
        assert np.array_equal(box_ink(binary, box), ink)

    def test_cut_is_the_ceiling_of_the_fraction(self):
        assert [ink_cut(m) for m in (1, 2, 255, 256, 65535)] == [1, 1, 128, 128, 32768]

    @pytest.mark.parametrize(
        "box", [WordBox(0, 0, 2, 0), WordBox(0, 0, 0, 1), WordBox(-1, 0, 0, 0)]
    )
    def test_box_outside_the_page_rejected(self, box):
        page = GrayImage(2, 1, 255, np.zeros((1, 2), dtype=np.uint8))
        with pytest.raises(ValueError, match="outside image 2x1"):
            box_ink(page, box)


class TestImageInvariants:
    def test_gray_rejects_pixels_above_maxval(self):
        with pytest.raises(ValueError):
            gray(1, 1, 10, [11])

    def test_gray_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            gray(0, 1, 255, [])

    def test_binary_rejects_non_bits(self):
        with pytest.raises(ValueError):
            BinaryImage(1, 1, np.array([[2]], dtype=np.uint8))


class TestInPlaceRaster:
    def test_8bit_p5_pixels_are_a_read_only_uint8_view_of_the_input(self):
        data = b"P5\n3 2\n255\n" + bytes([0, 1, 2, 253, 254, 255])
        img = load_image(data)
        assert img.pixels.dtype == np.uint8
        assert np.shares_memory(img.pixels, np.frombuffer(data, np.uint8))
        assert not img.pixels.flags.writeable
        assert img.pixels.tolist() == [[0, 1, 2], [253, 254, 255]]

    def test_other_rasters_are_native_uint16(self):
        for data in (b"P1\n1 1\n1", b"P2\n1 1\n255\n9", b"P4\n1 1\n\x80",
                     b"P5\n1 1\n65535\n\x9c\x40", b"P6\n1 1\n255\n\x00\x00\x00"):
            assert load_image(data).pixels.dtype == np.dtype(np.uint16)

    def test_gray_image_keeps_uint8_and_uint16_and_casts_the_rest(self):
        for dtype, kept in ((np.uint8, np.uint8), (np.uint16, np.uint16),
                            (np.int64, np.uint16), (np.bool_, np.uint16)):
            img = GrayImage(2, 1, 1, np.array([0, 1], dtype=dtype))
            assert img.pixels.dtype == kept

    def test_uint8_pixels_above_maxval_rejected(self):
        with pytest.raises(ValueError):
            GrayImage(1, 1, 100, np.array([[200]], dtype=np.uint8))

    @given(st.integers(1, 255), st.lists(st.integers(0, 255), min_size=1, max_size=40))
    @example(255, [127, 128])
    @example(3, [0, 1, 2, 3])
    def test_binarize_same_bits_for_uint8_and_uint16(self, maxval, values):
        values = [v % (maxval + 1) for v in values]
        narrow = GrayImage(len(values), 1, maxval, np.array(values, dtype=np.uint8))
        wide = GrayImage(len(values), 1, maxval, np.array(values, dtype=np.uint16))
        assert binarize(narrow) == binarize(wide)

    def test_binarize_uint8_with_maxval_above_255(self):
        img = GrayImage(2, 1, 1000, np.array([200, 255], dtype=np.uint8))
        assert binarize(img).bits.tolist() == [[0, 0]]


# A plain NetPBM decoder for the property tests below: a byte loop over the
# header and the samples, with no numpy, for well-formed files only.
_SPACE = b" \t\n\r\x0b\x0c"


def reference_decode(data: bytes):
    """Return (width, height, maxval, gray values row-major) of `data`."""
    pos = 0

    def skip_filler():
        nonlocal pos
        while pos < len(data):
            if data[pos] in _SPACE:
                pos += 1
            elif data[pos] == ord("#"):
                while data[pos] not in b"\r\n":
                    pos += 1
            else:
                return

    def token():
        nonlocal pos
        skip_filler()
        start = pos
        while pos < len(data) and data[pos] not in _SPACE and data[pos] != ord("#"):
            pos += 1
        return data[start:pos]

    magic = token()
    width, height = int(token()), int(token())
    maxval = 1 if magic in (b"P1", b"P4") else int(token())
    channels = 3 if magic in (b"P3", b"P6") else 1
    count = width * height * channels
    if magic == b"P1":
        bits = []
        while len(bits) < count:
            skip_filler()
            bits.append(int(chr(data[pos])))
            pos += 1
        samples = [1 - b for b in bits]
    elif magic == b"P4":
        pos += 1
        row_bytes = (width + 7) // 8
        samples = []
        for y in range(height):
            row = data[pos + y * row_bytes : pos + (y + 1) * row_bytes]
            for x in range(width):
                bit = (row[x // 8] >> (7 - x % 8)) & 1
                samples.append(1 - bit)
    elif magic in (b"P2", b"P3"):
        samples = [int(token()) for _ in range(count)]
    else:
        pos += 1
        size = 1 if maxval < 256 else 2
        samples = [
            int.from_bytes(data[pos + i * size : pos + (i + 1) * size], "big")
            for i in range(count)
        ]
    if channels == 3:
        samples = [
            (299 * r + 587 * g + 114 * b + 500) // 1000
            for r, g, b in zip(samples[0::3], samples[1::3], samples[2::3])
        ]
    return width, height, maxval, samples


_FILLERS = [b" ", b"\n", b"\t", b"\r\n", b"  \x0b", b"\x0c", b" # note\n", b"#\n"]


@st.composite
def netpbm_files(draw):
    """A well-formed NetPBM file and the gray values it holds, row-major."""
    magic = draw(st.sampled_from([b"P1", b"P2", b"P3", b"P4", b"P5", b"P6"]))
    width = draw(st.integers(1, 19))
    height = draw(st.integers(1, 4))
    if magic in (b"P1", b"P4"):
        maxval = 1
    else:
        maxval = draw(st.sampled_from([1, 2, 255, 256, 65535]) | st.integers(1, 65535))
    channels = 3 if magic in (b"P3", b"P6") else 1
    count = width * height * channels
    samples = draw(st.lists(st.integers(0, maxval), min_size=count, max_size=count))

    def filler():
        return draw(st.sampled_from(_FILLERS))

    head = [magic, str(width).encode(), str(height).encode()]
    if maxval != 1 or magic not in (b"P1", b"P4"):
        head.append(str(maxval).encode())
    data = filler().join(head)
    if magic == b"P1":
        # Bits may be packed with no separators; 1 is ink.
        sep = draw(st.sampled_from([b"", b" ", b"\n", b" # c\n"]))
        data += filler() + sep.join(b"0" if v else b"1" for v in samples)
    elif magic in (b"P2", b"P3"):
        data += filler() + b" ".join(str(v).encode() for v in samples)
    else:
        data += draw(st.sampled_from([b" ", b"\n", b"\t", b"\r"]))
        if magic == b"P4":
            row_bytes = (width + 7) // 8
            for y in range(height):
                row = samples[y * width : (y + 1) * width]
                padding = draw(st.lists(st.integers(0, 1), min_size=8 * row_bytes - width,
                                        max_size=8 * row_bytes - width))
                bits = [1 - v for v in row] + padding
                data += bytes(
                    int("".join(map(str, bits[i : i + 8])), 2) for i in range(0, len(bits), 8)
                )
        else:
            size = 1 if maxval < 256 else 2
            data += b"".join(v.to_bytes(size, "big") for v in samples)
    if channels == 3:
        gray_values = [
            (299 * r + 587 * g + 114 * b + 500) // 1000
            for r, g, b in zip(samples[0::3], samples[1::3], samples[2::3])
        ]
    else:
        gray_values = samples
    return data, (width, height, maxval, gray_values)


class TestDecodeProperties:
    @given(netpbm_files())
    @example((b"P6 1 1 255 " + bytes([0, 36, 12]), (1, 1, 255, [23])))
    @example((b"P4 9 1\n" + bytes([0b01000000, 0b10111111]), (9, 1, 1, [1, 0] + [1] * 6 + [0])))
    def test_matches_reference_decoder(self, case):
        data, expected = case
        assert reference_decode(data) == expected
        width, height, maxval, values = expected
        img = load_image(data)
        assert (img.width, img.height, img.maxval) == (width, height, maxval)
        assert img.pixels.shape == (height, width)
        assert img.pixels.ravel().tolist() == values

    @given(netpbm_files(), st.data())
    def test_truncated_extended_or_mutated_bytes_give_image_or_pnm_error(self, case, data):
        original, _ = case
        how = data.draw(st.sampled_from(["truncate", "extend", "mutate"]))
        if how == "truncate":
            cut = data.draw(st.integers(0, len(original) - 1))
            damaged = original[:cut]
        elif how == "extend":
            damaged = original + data.draw(st.binary(min_size=1, max_size=8))
        else:
            damaged = bytearray(original)
            for _ in range(data.draw(st.integers(1, 4))):
                at = data.draw(st.integers(0, len(damaged) - 1))
                damaged[at] = data.draw(st.integers(0, 255))
            damaged = bytes(damaged)
        try:
            img = load_image(damaged)
        except PnmError:
            return
        assert isinstance(img, GrayImage)
        assert int(img.pixels.max()) <= img.maxval
