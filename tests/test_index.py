"""Length normalization, size classes, index build and persistence."""

import contextlib
import os
import random
import urllib.parse
import tracemalloc
import weakref
import zlib
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from indexfile import index_file, index_text
from wordspot import index as index_mod
from wordspot.index import (
    REF_FONT,
    SIZE_BOUNDS,
    SIZE_CODES,
    DocEntry,
    IndexFormatError,
    IndexInvariantError,
    WordIndex,
    WordRecord,
    _size_class_numbers,
    build_index,
    load_index,
    normalize_length,
    save_index,
)
from wordspot.pnm import BinaryImage
from wordspot.segment import (
    WordBox,
    default_noise_threshold,
    row_profile,
    segment_lines,
)
from wordspot.shapecode import estimate_zones


class TestNormalizeLength:
    def test_reference_height_leaves_length_unchanged(self):
        assert REF_FONT == 60
        assert normalize_length(200, REF_FONT) == 200
        assert normalize_length(33, REF_FONT) == 33

    def test_halving(self):
        assert normalize_length(200, 2 * REF_FONT) == 100

    def test_rounds_half_up_after_exact_arithmetic(self):
        # 60*5/9 = 33.33 -> 33
        assert normalize_length(5, 9) == 33
        # 60*1/120 = 0.5 -> 1, and 60*1/121 = 0.496 -> 0
        assert normalize_length(1, 120) == 1
        assert normalize_length(1, 121) == 0

    @pytest.mark.parametrize("L,H", [(0, 1), (1, 0)])
    def test_domain_errors(self, L, H):
        with pytest.raises(ValueError):
            normalize_length(L, H)

    def test_identity_property(self):
        rng = random.Random(1)
        for _ in range(200):
            L = rng.randint(1, 600)
            assert normalize_length(L, REF_FONT) == L


class TestSizeCodes:
    @pytest.mark.parametrize(
        "value,expected",
        [(79, "VS"), (250, "M"), (500, "VL"), (240, "M")],
    )
    def test_examples(self, value, expected):
        assert SIZE_CODES[_size_class_numbers(value)] == expected

    def test_monotone(self):
        classes = _size_class_numbers(np.arange(600))
        assert classes[0] == 0 and (np.diff(classes) >= 0).all()
        assert classes[-1] == len(SIZE_CODES) - 1

    def test_codes(self):
        assert SIZE_CODES == ("VS", "S", "M", "L", "VL")
        assert len(SIZE_BOUNDS) == len(SIZE_CODES) - 1


def blob_page(width=200, height=80, x=40, y=20, blob_w=100, blob_h=30):
    bits = np.ones((height, width), dtype=np.uint8)
    bits[y : y + blob_h, x : x + blob_w] = 0
    return BinaryImage(width, height, bits)


class TestBuildIndex:
    def test_empty_page_list(self):
        index = build_index([])
        assert index.records == [] and index.docs == []
        assert index.lines.shape == index.words.shape == (0, 5)

    def test_single_blob_record(self):
        index = build_index([("page", blob_page())])
        assert len(index.records) == 1
        rec = index.records[0]
        assert rec.box == WordBox(40, 20, 139, 49)
        assert rec.box.height == 30 and rec.box.width == 100
        assert rec.wst is None
        # Normalized length 200, size class SMALL.
        assert index.norm_lengths.tolist() == [200]
        assert index.size_class_counts() == [0, 1, 0, 0, 0]

    def test_noise_threshold_follows_each_pages_width(self):
        # A row of 3 ink pixels clears the default noise threshold of a page
        # 200 px wide (1), but not that of one 1000 px wide (5).
        narrow = blob_page(blob_w=3, blob_h=1)
        wide = blob_page(width=1000, blob_w=3, blob_h=1)
        for pages, lines_per_page in (
            ([("n", narrow), ("w", wide)], [1, 0]),
            ([("w", wide), ("n", narrow)], [0, 1]),
        ):
            index = build_index(pages)
            assert np.bincount(index.lines[:, 0], minlength=2).tolist() == lines_per_page

    def test_two_pages_same_content(self):
        pages = [("a", blob_page()), ("b", blob_page())]
        index = build_index(pages)
        assert len(index.records) == 2
        assert {r.doc_id for r in index.records} == {"a", "b"}

    def test_source_paths_recorded(self):
        index = build_index(
            [("a", blob_page())], source_paths={"a": "pages/a.pgm"}
        )
        assert index.docs == [DocEntry("a", "pages/a.pgm", 200, 80)]

    def test_lines_hold_band_and_body_from_row_counts(self):
        page = blob_page()
        page.bits[25:30, 40:140] = 1  # a gap inside the blob's rows
        index = build_index([("a", page)])
        starts, ends = segment_lines(row_profile(page), default_noise_threshold(page.width))
        bands = list(zip(starts.tolist(), ends.tolist()))
        assert len(bands) == 2
        assert index.lines.tolist() == [[0, *band, *estimate_zones(page, *band)] for band in bands]
        # One word on each line, in line order.
        assert index.words[:, 0].tolist() == [0, 1]
        assert [(rec.line_idx, rec.word_idx) for rec in index.records] == [(0, 0), (1, 0)]

    def test_duplicate_doc_ids_rejected(self):
        with pytest.raises(ValueError):
            build_index([("a", blob_page()), ("a", blob_page())])

    def test_each_page_released_before_the_next_is_taken(self):
        refs = []
        alive_at_take = []

        def pages():
            for n in range(4):
                alive_at_take.append([ref() is not None for ref in refs])
                # A fresh page, which only build_index holds once yielded.
                page = blob_page(x=10 + n)
                refs.append(weakref.ref(page))
                yield f"p{n}", page
                del page

        index = build_index(pages())
        assert len(index.records) == 4 and len(alive_at_take) == 4
        assert all(not any(alive) for alive in alive_at_take)
        assert all(ref() is None for ref in refs)


def make_record(doc, line, word, *, x=10, y=20, w=50, h=25):
    return WordRecord(doc, line, word, WordBox(x, y, x + w - 1, y + h - 1))


def word_row(line, *, x=10, y=20, w=50, h=25):
    """The row WordIndex takes for make_record's word, on line position `line`."""
    return (line, x, y, x + w - 1, y + h - 1)


def line_row(page, row_start, row_end, body_top=None, body_bottom=None):
    """The row WordIndex takes for a line on page position `page`, whose
    body band is its whole band unless given."""
    body_top = row_start if body_top is None else body_top
    return (page, row_start, row_end, body_top, row_end if body_bottom is None else body_bottom)


def small_index():
    # Index file lines: 3 DOC doc1, 4 L, 5-6 word rows, 7 DOC doc2, 8 L (no
    # words), 9 L, 10 a word row.
    lines = [line_row(0, 20, 79, 30, 60), line_row(1, 0, 10, 2, 8), line_row(1, 20, 80, 40, 60)]
    words = [word_row(0, w=50, h=25), word_row(0, x=70, w=300, h=60), word_row(2, w=555, h=61)]
    docs = [
        DocEntry("doc1", "pages/doc one.pgm", 640, 480),
        DocEntry("doc2", "d2.pbm", 640, 200),
    ]
    return WordIndex(docs, lines, words)


class TestPersistence:
    def test_empty_index_header(self):
        assert index_text(save_index(WordIndex([], [], []))) == b"WSIDX 7\nK 60\n"

    def test_one_gzip_member_with_no_name_and_mtime_0_same_bytes_each_time(self):
        data = save_index(small_index())
        assert save_index(small_index()) == data
        # ID1 ID2, deflate, no flags (so no name), and a modification time
        # of 0, so the file's bytes do not depend on when it was written.
        assert data[:8] == bytes.fromhex("1f8b080000000000")
        inflate = zlib.decompressobj(31)
        assert inflate.decompress(data) == index_text(data)
        assert inflate.eof and inflate.unused_data == b""

    def test_round_trip_is_field_exact(self):
        index = small_index()
        again = load_index(save_index(index))
        assert again == index
        assert again.docs[0].path == "pages/doc one.pgm"
        assert again.lines[2].tolist() == [1, 20, 80, 40, 60]

    def test_no_whitespace_in_encoded_lines(self):
        data = index_text(save_index(small_index())).decode()
        for line in data.strip().split("\n"):
            assert len(line.split(" ")) == len(line.split())

    def test_known_record_line(self):
        index = WordIndex([DocEntry("d", "d.pgm", 100, 50)],
                          [line_row(0, 0, 20, 5, 15), line_row(0, 24, 30)],
                          [word_row(0, x=1, y=2, w=30, h=10), word_row(0, x=40, y=5, w=10, h=3)])
        lines = index_text(save_index(index)).decode().splitlines()
        assert lines[2] == "DOC d d.pgm 100 50"
        # Rows 0..20 with the body 5..15, 5 rows in from either end, and a
        # 30x10 box on rows 2..11, 2 rows below row 0 and 9 above row 20.
        # A page's first line and a line's first word give their first row
        # and column as the gap after row and column -1.
        assert lines[3] == "L 0 21 5 5"
        assert lines[4] == "1 2 30 9"
        # Columns 40..49, 9 after the previous word's last column, 31.
        assert lines[5] == "9 5 10 13"
        # Rows 24..30, 3 after the previous line's last row, 21.
        assert lines[6] == "L 3 7 0 0"

    def test_path_that_is_not_utf8_round_trips(self):
        path = os.fsdecode(b"pages/a\xff b.pgm")
        index = WordIndex([DocEntry("a", path, 10, 10)], [], [])
        data = save_index(index)
        assert b"DOC a pages/a%FF%20b.pgm 10 10" in index_text(data)
        assert load_index(data).docs[0].path == path

    def test_norm_lengths_and_classes_rebuilt_on_load(self):
        again = load_index(save_index(small_index()))
        norms = [normalize_length(rec.box.width, rec.box.height) for rec in again.records]
        assert again.norm_lengths.tolist() == norms
        classes = _size_class_numbers(norms).tolist()
        assert again.size_class_counts() == [classes.count(n) for n in range(len(SIZE_CODES))]
        assert sum(again.size_class_counts()) == 3


# A row-by-row loader of an index file's text, kept as the specification of
# `load_index` after decompression: each row is split in Python, checked in
# turn and turned into absolute rows and columns at once, and each number
# must be 1..10 ASCII digits; WordIndex judges every value. A row that
# starts with an ASCII digit is a word row. A line's first row counts on
# from the row after its page's previous line, and a box's first column
# from the column after its line's previous word. `load_index` must give an
# equal index, or the same message and line, on a file of any text.
KIND_NAMES = ("DOC", "L", "word")
NUMBER_FIELDS = (
    ("doc width", "doc height"),
    ("gap", "height", "body_top", "body_bottom"),
    ("gap", "top", "width", "bottom"),
)
FIRST_NUMBER = (3, 1, 0)
FIELD_COUNTS = (5, 5, 4)


def number_error(token, what):
    if not (token.isascii() and token.isdigit() and len(token) <= 10):
        return f"malformed {what}: {token!r}"
    return None


def reference_load_index(text: bytes) -> WordIndex:
    try:
        text = text.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise IndexFormatError(f"index is not valid UTF-8: {exc}", 1) from None
    rows = text.split("\n")
    if rows and rows[-1] == "":
        rows.pop()
    if not rows or rows[0] != "WSIDX 7":
        got = rows[0] if rows else ""
        raise IndexFormatError(f"expected header 'WSIDX' version 7, got {got!r}", 1)
    if len(rows) < 2 or rows[1] != "K 60":
        got = rows[1] if len(rows) >= 2 else ""
        raise IndexFormatError(f"expected reference font line 'K 60', got {got!r}", 2)

    docs, lines, words = [], [], []
    doc_lines, page_lines = [], 0  # file lines of DOC rows; L rows on this page
    next_row = next_column = 0  # after the page's last line, the line's last word
    for line_no, row in enumerate(rows[2:], start=3):
        fields = row.split(" ")
        kind = 2 if row[:1] in set("0123456789") else {"DOC": 0, "L": 1}.get(fields[0])
        if kind is None:
            raise IndexFormatError(f"unknown line kind {fields[0]!r}", line_no)
        if len(fields) != FIELD_COUNTS[kind]:
            raise IndexFormatError(
                f"{KIND_NAMES[kind]} line needs {FIELD_COUNTS[kind]} fields, got {len(fields)}",
                line_no,
            )
        if kind == 1 and not docs:
            raise IndexFormatError("L line before any DOC line", line_no)
        if kind == 2 and page_lines == 0:
            raise IndexFormatError("word line before its page's first L line", line_no)
        numbers = fields[FIRST_NUMBER[kind] : FIRST_NUMBER[kind] + len(NUMBER_FIELDS[kind])]
        for token, what in zip(numbers, NUMBER_FIELDS[kind]):
            error = number_error(token, what)
            if error is not None:
                raise IndexFormatError(error, line_no)
        numbers = [int(token) for token in numbers]
        if kind == 0:
            path = os.fsdecode(urllib.parse.unquote_to_bytes(fields[2]))
            docs.append(DocEntry(urllib.parse.unquote(fields[1]), path, *numbers))
            doc_lines.append(line_no)
            page_lines = next_row = 0
        elif kind == 1:
            gap, height, body_top, body_bottom = numbers
            row_start = next_row + gap
            row_end = row_start + height - 1
            lines.append((len(docs) - 1, row_start, row_end,
                          row_start + body_top, row_end - body_bottom, line_no))
            page_lines += 1
            next_row, next_column = row_end + 1, 0
        else:
            gap, top, width, bottom = numbers
            _, row_start, row_end = lines[-1][:3]
            x1 = next_column + gap
            words.append((len(lines) - 1, x1, row_start + top, x1 + width - 1,
                          row_end - bottom, line_no))
            next_column = x1 + width

    try:
        return WordIndex(docs, [line[:5] for line in lines], [word[:5] for word in words])
    except IndexInvariantError as exc:
        entries = {"doc": doc_lines, "line": [line[5] for line in lines],
                   "record": [word[5] for word in words]}[exc.kind]
        raise IndexFormatError(str(exc), entries[exc.position]) from None


def load_outcome(load, data):
    """What `load` makes of `data`: its index, or its error's message and line."""
    try:
        return load(data)
    except IndexFormatError as exc:
        return str(exc), exc.line


def assert_loads_as_reference(text):
    """`load_index` of a file of `text` gives the reference's index of the
    text, or its message and line; returns that outcome."""
    outcome = load_outcome(load_index, index_file(text))
    assert outcome == load_outcome(reference_load_index, text)
    return outcome


def corrupt(lines, line_no, new_value):
    out = list(lines)
    out[line_no - 1] = new_value
    return ("\n".join(out) + "\n").encode()


class TestLoadErrors:
    @pytest.fixture()
    def lines(self):
        return index_text(save_index(small_index())).decode().strip().split("\n")

    def assert_error_line(self, text, line_no):
        with pytest.raises(IndexFormatError) as err:
            load_index(index_file(text))
        assert err.value.line == line_no

    def test_bad_version(self, lines):
        self.assert_error_line(corrupt(lines, 1, "WSIDX 6"), 1)
        self.assert_error_line(corrupt(lines, 1, "WSIDX 5"), 1)
        self.assert_error_line(corrupt(lines, 1, "WSIDX 4"), 1)
        self.assert_error_line(corrupt(lines, 1, "WSIDX 3"), 1)
        self.assert_error_line(corrupt(lines, 1, "WSIDX 2"), 1)
        self.assert_error_line(corrupt(lines, 1, "WSIDX 1"), 1)

    def test_bad_magic(self, lines):
        self.assert_error_line(corrupt(lines, 1, "NOTANINDEX"), 1)

    def test_bad_ref_font(self, lines):
        self.assert_error_line(corrupt(lines, 2, "K zero"), 2)

    @pytest.mark.parametrize("font_line", ["K 30", "K 060", "K 0", "K 60 ", "K  60", "K 60\r",
                                           "K", "", "1 2 3 4"])
    def test_font_line_other_than_k_60_refused(self, lines, font_line):
        # Every index file is written at REF_FONT, so line 2 has one spelling.
        assert assert_loads_as_reference(corrupt(lines, 2, font_line)) == (
            f"expected reference font line 'K 60', got {font_line!r} (line 2)", 2
        )

    def test_unknown_line_kind(self, lines):
        self.assert_error_line(corrupt(lines, 5, "X what"), 5)

    def test_short_record_line(self, lines):
        self.assert_error_line(corrupt(lines, 5, "1 2 3"), 5)

    def test_long_record_line(self, lines):
        self.assert_error_line(corrupt(lines, 6, lines[6 - 1] + " A"), 6)

    def test_short_L_line(self, lines):
        self.assert_error_line(corrupt(lines, 4, "L 20 60 10"), 4)

    def test_line_before_any_doc(self, lines):
        data = ("\n".join(lines[:2] + [lines[4 - 1]] + lines[2:]) + "\n").encode()
        self.assert_error_line(data, 3)

    def test_record_before_its_pages_first_line(self, lines):
        # Line 7 opens doc2; a word right after it has no line to belong to.
        data = ("\n".join(lines[:7] + [lines[5 - 1]] + lines[7:]) + "\n").encode()
        self.assert_error_line(data, 8)

    def test_duplicate_doc(self, lines):
        data = ("\n".join(lines + [lines[3 - 1]]) + "\n").encode()
        self.assert_error_line(data, len(lines) + 1)

    @pytest.mark.parametrize(
        "at,first,second",
        [
            (5, "600 0 649 35", "1 2 3"),  # a box outside its page before a short row
            (5, "20 0 0 30", "1 2 3 4 A"),  # an empty box before a long row
            (4, "L 30 0 0 40", "X"),  # an empty band before an unknown kind
        ],
    )
    def test_parse_error_reported_before_invariant_error(self, lines, at, first, second):
        # Every value, a size of 0 included, is judged only once the whole
        # text has parsed, so the parse fault on line 6 is reported.
        data = corrupt(corrupt(lines, at, first).decode().strip().split("\n"), 6, second)
        assert assert_loads_as_reference(data)[1] == 6

    def test_record_box_outside_its_page(self, lines):
        # Line 5 is doc1's first record, 50 columns wide; doc1 is 640 pixels
        # wide.
        fields = lines[5 - 1].split(" ")
        fields[0] = "600"
        self.assert_error_line(corrupt(lines, 5, " ".join(fields)), 5)

    @pytest.mark.parametrize(
        "row,box",
        [
            # Line 4's band is rows 20..79, and line 5's box rows 20..44.
            ("10 25 50 35", "10 45 59 44"),
            ("10 0 50 60", "10 20 59 19"),
            ("10 60 50 0", "10 80 59 79"),
            ("10 2147483647 50 0", "10 2147483667 59 79"),
        ],
    )
    def test_insets_that_empty_a_box_refused(self, lines, row, box):
        # Insets keep a box inside its line's rows; insets that meet or
        # cross leave it no rows, which the degenerate box check refuses.
        assert assert_loads_as_reference(corrupt(lines, 5, row)) == (
            f"record 0: degenerate box {box} (line 5)", 5
        )

    @pytest.mark.parametrize(
        "bad,message",
        [
            ("L 20 461 10 19", "band 20..480 outside image rows 0..479"),
            ("L 470 11 0 5", "band 470..480 outside image rows 0..479"),
            ("L 20 60 50 10", "body rows 70..69 outside its band"),
            ("L 20 60 10 50", "body rows 30..29 outside its band"),
            ("L 20 60 60 0", "body rows 80..79 outside its band"),
            ("L 20 60 0 60", "body rows 20..19 outside its band"),
        ],
    )
    def test_line_band_outside_its_page_or_insets_that_empty_its_body(self, lines, bad, message):
        # doc1 is 480 rows high; line 4's band is rows 20..79. Insets keep
        # a body inside its band; insets that cross leave it no rows.
        assert assert_loads_as_reference(corrupt(lines, 4, bad)) == (
            f"line 0: {message} (line 4)", 4
        )

    @pytest.mark.parametrize(
        "line_no,row,message",
        [
            # doc1 is 640 columns wide; line 5's box holds columns 10..59
            # and line 6's 300 columns from 10 after it.
            (6, "281 0 300 0", "record 1: box x 341..640, y 20..79 outside its page columns "
                               "0..639 or its line rows 20..79"),
            (5, "591 0 50 35", "record 0: box x 591..640, y 20..44 outside its page columns "
                               "0..639 or its line rows 20..79"),
            # doc2 is 200 rows high; line 8's band holds rows 0..10, and
            # line 9's 61 rows from 9 after it.
            (9, "L 129 61 20 20", "line 2: band 140..200 outside image rows 0..199"),
        ],
    )
    def test_gap_that_takes_a_box_or_band_past_its_page_refused(self, lines, line_no, row,
                                                               message):
        assert assert_loads_as_reference(corrupt(lines, line_no, row)) == (
            f"{message} (line {line_no})", line_no
        )

    def test_gaps_count_from_each_page_and_each_line(self, lines):
        # Line 8 opens doc2 at row 0 and line 10 opens line 9's words at
        # column 10, whatever came before on doc1 and on line 4.
        assert lines[7:] == ["L 0 11 2 2", "L 9 61 20 20", "10 0 555 0"]
        index = assert_loads_as_reference(("\n".join(lines) + "\n").encode())
        assert index.lines[1:, 1:3].tolist() == [[0, 10], [20, 80]]
        assert index.words[2, 1:].tolist() == [10, 20, 564, 80]

    def test_non_utf8(self):
        with pytest.raises(IndexFormatError):
            load_index(index_file(b"\xff\xfe\x00"))

    @pytest.mark.parametrize(
        "bad", ["1 2 2147483648 30", "1 99999999999999999999 3 4", "1 -2 3 4"]
    )
    def test_number_out_of_range(self, lines, bad):
        self.assert_error_line(corrupt(lines, 5, bad), 5)

    @pytest.mark.parametrize(
        "first,second",
        [
            ("1 2 3 x", "1 2"),  # a malformed number before a short line
            ("1 2", "1 2 3 x"),
            ("1 0 3 30 A", "30 0 0 30"),
            ("L 20 60 10 31 9", "1 x 3 4"),
        ],
    )
    def test_first_bad_line_in_file_order_whatever_its_fault(self, lines, first, second):
        # Lines 4-6 are doc1's line and its two words.
        at = 4 if first.startswith("L") else 5
        data = corrupt(corrupt(lines, at, first).decode().strip().split("\n"), 6, second)
        self.assert_error_line(data, at)


class TestArrayParseEdges:
    """Fields at the edges of the format's number rule (1..10 ASCII digits),
    values at the edges of what WordIndex accepts, and word rows of more
    fields; each case also agrees with the reference loader."""

    def lines(self):
        # Line 3 opens doc1 (640 x 480), 4 is its first L line, 5 its first word.
        return index_text(save_index(small_index())).decode().strip().split("\n")

    def load_with(self, line_no, field, value):
        lines = self.lines()
        fields = lines[line_no - 1].split(" ")
        fields[field] = value
        return assert_loads_as_reference(corrupt(lines, line_no, " ".join(fields)))

    @pytest.mark.parametrize("field,value", [(0, "010"), (3, "0035"), (2, "0000000050")])
    def test_leading_zeros_within_ten_digits_are_accepted(self, field, value):
        # Line 5 is "10 0 50 35".
        assert self.load_with(5, field, value) == small_index()

    @pytest.mark.parametrize(
        "line_no,field,value,message",
        [
            # Line 5 is "10 0 50 35": spellings `int()` would take.
            (5, 1, "+10", "malformed top: '+10'"),
            (5, 1, "\u0661\u0660", "malformed top: '\u0661\u0660'"),
            (5, 0, "1_0", "malformed gap: '1_0'"),
            (5, 0, "00000000010", "malformed gap: '00000000010'"),
            (5, 1, "-0", "malformed top: '-0'"),
            (5, 1, "0\r", "malformed top: '0\\r'"),
            (5, 3, "\t0", "malformed bottom: '\\t0'"),
            (5, 3, "35\r", "malformed bottom: '35\\r'"),
            # A word row is a line that starts with an ASCII digit, so these
            # spellings of its gap make a line of no known kind.
            (5, 0, "+10", "unknown line kind '+10'"),
            (5, 0, "\u0661\u0660", "unknown line kind '\u0661\u0660'"),
            (5, 0, "-0", "unknown line kind '-0'"),
            (5, 0, "\t0", "unknown line kind '\\t0'"),
            # Line 4 is "L 20 60 10 19" and line 3 doc1's DOC line.
            (4, 4, "19\r", "malformed body_bottom: '19\\r'"),
            (3, 3, "\u0665", "malformed doc width: '\u0665'"),
            (3, 4, "480\r", "malformed doc height: '480\\r'"),
            # 0 is a number; WordIndex refuses it as a page height.
            (3, 4, "0", "doc 0: page size 640x0 outside 1..1000000 per side or above "
                        "100000000 pixels"),
        ],
    )
    def test_numbers_outside_the_rule_are_refused(self, line_no, field, value, message):
        assert self.load_with(line_no, field, value) == (f"{message} (line {line_no})", line_no)

    @pytest.mark.parametrize(
        "value,message",
        [
            # Any ten digits parse, so a wide box is refused only for
            # leaving the page, and one of no columns for being empty.
            ("2147483647", "record 0: box x 10..2147483656, y 20..44 outside its page columns "
                           "0..639 or its line rows 20..79"),
            ("2147483648", "record 0: box x 10..2147483657, y 20..44 outside its page columns "
                           "0..639 or its line rows 20..79"),
            ("9999999999", "record 0: box x 10..10000000008, y 20..44 outside its page columns "
                           "0..639 or its line rows 20..79"),
            ("99999999999", "malformed width: '99999999999'"),
            ("0", "record 0: degenerate box 10 20 9 44"),
            ("-1", "malformed width: '-1'"),
            ("", "malformed width: ''"),
            ("5x", "malformed width: '5x'"),
            ("\u00b2", "malformed width: '\u00b2'"),
        ],
    )
    def test_numbers_at_the_range_edges(self, value, message):
        assert self.load_with(5, 2, value) == (f"{message} (line 5)", 5)

    @pytest.mark.parametrize(
        "line_no,field,message",
        [
            # Line 4's band of no rows, 20..19, holds no body, and line 5's
            # box of no columns is empty.
            (4, 2, "line 0: body rows 30..0 outside its band"),
            (5, 2, "record 0: degenerate box 10 20 9 44"),
        ],
    )
    def test_empty_band_or_box_columns_refused(self, line_no, field, message):
        assert self.load_with(line_no, field, "0") == (f"{message} (line {line_no})", line_no)

    @pytest.mark.parametrize("line_no,field", [(4, 1), (4, 3), (4, 4), (5, 0), (5, 1), (5, 3)])
    def test_row_start_x1_and_insets_may_be_0(self, line_no, field):
        # Line 4 becomes a band from row 0 or a body from its first or to
        # its last row, and line 5 a box from column 0, or from its line's
        # first row or to its last.
        assert isinstance(self.load_with(line_no, field, "0"), WordIndex)

    def test_ten_digit_fields_within_a_wide_page(self):
        # No page is wider or taller than pnm.MAX_SIDE, so ten-digit fields
        # inside one start with zeros.
        data = (b"WSIDX 7\nK 60\nDOC d d.pgm 0001000000 0000000100\n"
                b"L 0000000000 0000000100 0000000010 0000000010\n"
                b"0000999998 0000000011 0000000002 0000000011\n")
        index = assert_loads_as_reference(data)
        assert index.docs[0] == DocEntry("d", "d.pgm", 1_000_000, 100)
        assert index.lines[0, 1:].tolist() == [0, 99, 10, 89]
        assert index.words[0, 1:].tolist() == [999998, 11, 999999, 88]

    def test_digits_in_encoded_doc_ids_and_paths_are_not_numbers(self):
        data = (b"WSIDX 7\nK 60\nDOC page%2B01 2024/p%2001.pgm 640 480\n"
                b"DOC 12345 0012 640 480\nL 20 60 10 19\n10 0 50 35\n")
        index = assert_loads_as_reference(data)
        assert index.docs == [DocEntry("page+01", "2024/p 01.pgm", 640, 480),
                              DocEntry("12345", "0012", 640, 480)]
        assert index.lines.tolist() == [[1, 20, 79, 30, 60]]
        assert index.words.tolist() == [[0, 10, 20, 59, 44]]
        assert index.records == [make_record("12345", 0, 0)]

    def test_file_without_a_final_newline(self):
        text = index_text(save_index(small_index()))
        assert assert_loads_as_reference(text[:-1]) == small_index()

    @pytest.mark.parametrize("data", [b"WSIDX 7\nK 60\n", b"WSIDX 7\nK 60"])
    def test_header_only(self, data):
        assert assert_loads_as_reference(data) == WordIndex([], [], [])

    @pytest.mark.parametrize("data", [b"WSIDX 7\n", b"WSIDX 7"])
    def test_no_font_line(self, data):
        assert assert_loads_as_reference(data) == (
            "expected reference font line 'K 60', got '' (line 2)", 2
        )

    @pytest.mark.parametrize(
        "field", ["AxxgA", "g", "Q", "Ax\u20ac", "\u00e9", "\U0001f600A", "-", "", "-\r"]
    )
    @pytest.mark.parametrize("line_no", [5, 6])
    def test_word_row_with_a_fifth_field_refused(self, line_no, field):
        # No file holds a shape token, whether it is one, is not, is
        # multi-byte text or is version 3's `-` for none.
        lines = self.lines()
        lines[line_no - 1] += " " + field
        assert assert_loads_as_reference(("\n".join(lines) + "\n").encode()) == (
            f"word line needs 4 fields, got 5 (line {line_no})", line_no
        )


class TestGzipMember:
    """An index file is one whole gzip member of at most MAX_INDEX_TEXT
    bytes of text; any other file is refused at line 1, each fault with its
    own message, before its text is read."""

    def assert_refused(self, data, message):
        with pytest.raises(IndexFormatError) as err:
            load_index(data)
        assert (err.value.message, err.value.line) == (message, 1)

    @pytest.mark.parametrize("version", range(1, 7))
    def test_uncompressed_text_of_an_older_version_is_a_file_to_rebuild(self, version):
        text = index_text(save_index(small_index())).replace(b"7", str(version).encode(), 1)
        assert text.startswith(f"WSIDX {version}\n".encode())
        self.assert_refused(text,
                            "older uncompressed index file; rebuild it with `wordspot index`")

    @pytest.mark.parametrize(
        "data",
        [b"", b"\x1f", b"\x8b\x1f\x08", b"P5\n1 1\n255\n\x00", b"wsidx 6\nK 60\n",
         b"WSIDX 60\nK 60\n", b"WSIDX 8\nK 60\n", b"WSIDX 6\r\nK 60\r\n",
         # The text of a current index, as `gzip -dc` prints it.
         index_text(save_index(small_index()))],
    )
    def test_bytes_without_the_gzip_magic_refused(self, data):
        self.assert_refused(data, "not a gzip member: an index file is its text in one gzip "
                                  "member, which starts with bytes 1f 8b")

    @pytest.mark.parametrize("keep", [2, 9, 10, 20, -8, -1])
    def test_truncated_member_refused(self, keep):
        # The 10-byte header, then the deflate stream, then 8 bytes of
        # CRC-32 and length.
        self.assert_refused(save_index(small_index())[:keep], "truncated gzip member")

    @pytest.mark.parametrize(
        "at,value",
        [(2, 7), (3, 0xE0), (10, 0x07), (-8, None), (-4, None)],
        ids=["not deflate", "reserved flags", "reserved block type", "CRC-32", "length"],
    )
    def test_corrupt_member_refused(self, at, value):
        data = bytearray(save_index(small_index()))
        data[at] = data[at] ^ 1 if value is None else value
        self.assert_refused(bytes(data), "corrupt gzip member")

    @pytest.mark.parametrize("extra", [b"\n", b"\x00" * 8, b"\x1f\x8b", "second member"])
    def test_bytes_after_the_member_refused(self, extra):
        data = save_index(small_index())
        self.assert_refused(data + (data if extra == "second member" else extra),
                            "bytes after the gzip member")

    def test_text_longer_than_the_bound_refused(self, monkeypatch):
        data = save_index(small_index())
        size = len(index_text(data))
        monkeypatch.setattr(index_mod, "MAX_INDEX_TEXT", size)
        assert load_index(data) == small_index()
        monkeypatch.setattr(index_mod, "MAX_INDEX_TEXT", size - 1)
        self.assert_refused(data, f"index text longer than {size - 1} bytes")

    @pytest.mark.parametrize(
        "body",
        [b" ", b"\n", b"    \n", b"1\n", b"0 0 1 0\n"],
        ids=["spaces", "empty lines", "lines of empty fields", "lines of one field",
             "the most word rows"],
    )
    def test_a_text_at_the_bound_takes_under_a_gibibyte_to_load(self, body):
        # Separators cost the parser the most per byte of text: an int64
        # position each, and several per line. A small file of them inflates
        # to the bound, so the bound must keep what load_index holds for the
        # worst of them under the budget. Measured on 64 KiB of text, where
        # the bytes held per byte of text are what they are at the bound.
        head = b"WSIDX 7\nK 60\nDOC a a.pgm 1000000 100\nL 0 10 0 0\n"
        text = head + body * (2**16 // len(body))
        data = index_file(text)
        assert len(data) < len(text) // 100
        tracemalloc.start()
        try:
            with contextlib.suppress(IndexFormatError):
                load_index(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / len(text) * index_mod.MAX_INDEX_TEXT < 2**30


# Doc ids and paths mix plain characters with the ones the format must
# percent-encode: `%` (also before hex digits), control characters,
# non-ASCII, and in paths spaces and line breaks. A doc id is not empty and
# holds no white space, and a path holds no NUL, as WordIndex requires.
pieces = st.sampled_from(["%", "%41", "%zz", "+", "/", ".", "a", "é", "€"]) | st.characters(
    blacklist_categories=("Cs",)
)
names = st.lists(pieces, min_size=1, max_size=6).map("".join).filter(
    lambda name: name.split() == [name]
)
# A path may also be any file-system name, UTF-8 or not.
paths = (
    st.lists(pieces | st.sampled_from([" ", "\n", "\t"]), max_size=6).map("".join)
    | st.binary(max_size=6).map(os.fsdecode)
).filter(lambda path: "\0" not in path)


@st.composite
def rows_within(draw, first, last):
    """An inclusive row range inside first..last."""
    start = draw(st.integers(first, last))
    return start, draw(st.integers(start, last))


# A shape token a query may compute.
shape_tokens = st.text("Axg", min_size=1, max_size=12)


@st.composite
def runs_after(draw, first, last, most):
    """Up to `most` inclusive ranges inside first..last, one after another
    with 0 or more positions between them."""
    runs = []
    for _ in range(draw(st.integers(0, most))):
        if first > last:
            break
        runs.append(draw(rows_within(first, last)))
        first = runs[-1][1] + 1
    return runs


@st.composite
def word_indexes(draw):
    """A valid WordIndex: unique doc ids; lines in page order, top to
    bottom, with their band inside their page and their body inside the
    band; words in line order, left to right, with their box inside the
    page's columns and the line's rows."""
    docs = [
        DocEntry(doc_id, draw(paths), draw(st.integers(1, 300)), draw(st.integers(1, 300)))
        for doc_id in draw(st.lists(names, max_size=3, unique=True))
    ]
    lines, words = [], []
    for page, doc in enumerate(docs):
        for row_start, row_end in draw(runs_after(0, doc.height - 1, 3)):
            body_top, body_bottom = draw(rows_within(row_start, row_end))
            for x1, x2 in draw(runs_after(0, doc.width - 1, 3)):
                y1, y2 = draw(rows_within(row_start, row_end))
                words.append((len(lines), x1, y1, x2, y2))
            lines.append((page, row_start, row_end, body_top, body_bottom))
    return WordIndex(docs, lines, words)


class TestLoadProperties:
    @given(word_indexes(), st.data())
    def test_save_load_save_round_trip(self, index, data):
        saved = save_index(index)
        # Tokens computed for no word, some or all leave the file as it is.
        index.tokens[:] = data.draw(
            st.lists(st.none() | shape_tokens, min_size=len(index.tokens),
                     max_size=len(index.tokens))
        )
        assert save_index(index) == saved
        again = load_index(saved)
        assert again == index
        assert save_index(again) == saved
        assert again.tokens == [None] * len(index.tokens)
        # A word row holds its box's four numbers and nothing else.
        text = index_text(saved).decode()
        words = [line.split(" ") for line in text.split("\n") if line[:1].isdigit()]
        assert [len(fields) for fields in words] == [4] * len(index.tokens)

    @given(word_indexes(), st.data())
    def test_truncated_extended_or_mutated_bytes_give_index_or_format_error(self, index, data):
        # The text is damaged, then compressed, so that the parser sees it.
        original = index_text(save_index(index))
        # Bytes the format gives meaning to are drawn often, so that many
        # mutations leave a line that still parses up to a later field.
        byte = st.sampled_from(b" \n\r-+_%0123456789WLDOCKAxg") | st.integers(0, 255)
        how = data.draw(
            st.sampled_from(["truncate", "extend", "mutate", "field", "crlf", "unterminated"])
        )
        if how == "field":
            # Replace one whole field of one line, often with a number in a
            # spelling the format refuses (a sign, `_`, other digits, white
            # space, more than 10 digits), one at the edge of the range, or
            # multi-byte text.
            lines = [line.split(" ") for line in original.decode().split("\n")]
            fields = data.draw(st.sampled_from(lines))
            fields[data.draw(st.integers(0, len(fields) - 1))] = data.draw(
                st.sampled_from(["", "-", "0", "-1", "07", "x", "Q", "W", "L", "DOC", "%", "1e3",
                                 "+5", "-0", "\u0665", "1_0", "5\r", "00000000005",
                                 "2147483647", "2147483648", "9999999999", "Ax\u20ac", "\u00e9"])
                | st.integers(0, 400).map(str)
            )
            damaged = "\n".join(" ".join(f) for f in lines).encode()
        elif how == "truncate":
            damaged = original[: data.draw(st.integers(0, len(original) - 1))]
        elif how == "extend":
            damaged = original + bytes(data.draw(st.lists(byte, min_size=1, max_size=12)))
        elif how == "crlf":
            # CRLF line ends from some line on.
            at = data.draw(st.integers(0, len(original)))
            damaged = original[:at] + original[at:].replace(b"\n", b"\r\n")
        elif how == "unterminated":
            damaged = original[:-1]
        else:
            damaged = bytearray(original)
            for _ in range(data.draw(st.integers(1, 4))):
                damaged[data.draw(st.integers(0, len(damaged) - 1))] = data.draw(byte)
            damaged = bytes(damaged)
        loaded = assert_loads_as_reference(damaged)
        if isinstance(loaded, tuple):
            assert loaded[1] >= 1
            return
        assert isinstance(loaded, WordIndex)

    @given(word_indexes(), st.data())
    def test_truncated_extended_or_mutated_gzip_bytes_give_index_or_format_error(self, index,
                                                                                  data):
        # The file's compressed bytes are damaged: its header, its deflate
        # stream, its CRC-32 and length, or what follows it.
        original = save_index(index)
        how = data.draw(st.sampled_from(["truncate", "extend", "mutate", "append member"]))
        if how == "truncate":
            damaged = original[: data.draw(st.integers(0, len(original) - 1))]
        elif how == "extend":
            damaged = original + data.draw(st.binary(min_size=1, max_size=12))
        elif how == "append member":
            damaged = original + index_file(data.draw(st.binary(max_size=12)))
        else:
            damaged = bytearray(original)
            for _ in range(data.draw(st.integers(1, 4))):
                damaged[data.draw(st.integers(0, len(damaged) - 1))] = data.draw(
                    st.integers(0, 255))
            damaged = bytes(damaged)
        try:
            loaded = load_index(damaged)
        except IndexFormatError as exc:
            assert exc.line >= 1
            return
        # A change the CRC-32 does not cover (the header's time, flags
        # or OS byte) leaves a file of some text, which loads as that text.
        assert isinstance(loaded, WordIndex)
        assert loaded == reference_load_index(zlib.decompress(damaged, 31))

    @given(st.lists(
        st.text("0123456789+-_\t\r\x0b\x0c\x1c\u0665\u0661\u00b2\u2003\uff15xe.", max_size=12)
        | st.integers(0, 2**34).map(str),
        min_size=8, max_size=8,
    ))
    def test_any_number_spelling_reads_as_reference(self, spellings):
        # The four numbers of small_index's first L line and first word row.
        lines = index_text(save_index(small_index())).decode().strip().split("\n")
        lines[3] = " ".join(["L", *spellings[:4]])
        lines[4] = " ".join(spellings[4:])
        assert_loads_as_reference(("\n".join(lines) + "\n").encode())

    @given(word_indexes().filter(lambda index: index.docs), st.data())
    def test_a_size_of_0_or_a_number_past_2_31_is_refused_at_its_line(self, index, data):
        # The number rule reads any ten digits, and WordIndex refuses each
        # such value: a page, band or box of no rows or columns, or one
        # past its page. One bad field names its own line.
        lines = index_text(save_index(index)).decode().split("\n")
        at = data.draw(st.integers(2, len(lines) - 2))
        fields = lines[at].split(" ")
        first, sizes = {"DOC": (3, (3, 4)), "L": (1, (2,))}.get(fields[0], (0, (2,)))
        field = data.draw(st.integers(first, len(fields) - 1))
        values = st.integers(2**31, 10**10 - 1)
        fields[field] = str(data.draw(st.just(0) | values if field in sizes else values))
        lines[at] = " ".join(fields)
        loaded = assert_loads_as_reference("\n".join(lines).encode())
        assert isinstance(loaded, tuple) and loaded[1] == at + 1


def test_readme_format_example_loads_and_saves_back():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("## Index file format", 1)[1].split("```\n", 2)[1]
    index = load_index(index_file(example))
    assert index.lines.tolist() == [[0, 172, 248, 190, 232], [0, 280, 359, 300, 341]]
    assert index.records == [make_record("page1", 0, 0, x=210, y=180, w=321, h=61),
                             make_record("page1", 0, 1, x=580, y=186, w=240, h=58),
                             make_record("page1", 1, 0, x=195, y=290, w=400, h=58)]
    assert index_text(save_index(index)) == example.encode()


class TestDirectConstruction:
    # A 100x100 page with one line over all its rows.
    doc = DocEntry("d", "d.pgm", 100, 100)
    line = line_row(0, 0, 99)

    @pytest.mark.parametrize(
        "lines,words",
        [
            # Five line rows that lack body_bottom hold twenty numbers, as
            # four whole rows would.
            ([line[:4] for line in [line_row(0, 0, 0)] * 5], []),
            ([line_row(0, 0, 99)], [word_row(0)[1:]] * 5),
            ([line_row(0, 0, 99)], [[word_row(0)]]),
        ],
    )
    def test_rows_of_other_widths_rejected(self, lines, words):
        with pytest.raises(ValueError, match="need the columns"):
            WordIndex([self.doc], lines, words)

    @pytest.mark.parametrize("x,y", [(51, 20), (10, 76), (-1, 20), (10, -1)])
    def test_box_outside_its_page_rejected(self, x, y):
        # word_row's box is 50 wide and 25 high; the page is 100x100.
        with pytest.raises(ValueError, match="outside its page"):
            WordIndex([self.doc], [self.line], [word_row(0, x=x, y=y)])

    def test_box_touching_page_edges_accepted(self):
        WordIndex([self.doc], [self.line],
                  [word_row(0, x=0, y=0), word_row(0, x=50, y=75)])

    @pytest.mark.parametrize("box", [(30, 5, 20, 30), (10, 30, 40, 29)])
    def test_degenerate_box_rejected(self, box):
        words = [word_row(0), (0, *box)]
        with pytest.raises(IndexInvariantError) as err:
            WordIndex([self.doc], [self.line], words)
        assert str(err.value) == "record 1: degenerate box {} {} {} {}".format(*box)
        assert (err.value.kind, err.value.position) == ("record", 1)

    def test_duplicate_doc_rejected(self):
        doc = DocEntry("d", "d.pgm", 10, 10)
        with pytest.raises(ValueError):
            WordIndex([doc, doc], [], [])

    @pytest.mark.parametrize("doc_id", ["", " ", "a b", "a\tb", "a\nb", "\u2003"])
    def test_doc_id_empty_or_holding_white_space_rejected(self, doc_id):
        # A query writes a doc id as one space-separated field of a result line.
        with pytest.raises(IndexInvariantError) as err:
            WordIndex([self.doc, DocEntry(doc_id, "e.pgm", 10, 10)], [], [])
        assert str(err.value) == f"doc 1: doc_id {doc_id!r} empty or holding whitespace"
        assert (err.value.kind, err.value.position) == ("doc", 1)

    def test_path_holding_a_nul_rejected(self):
        # No file-system path holds a NUL; white space is allowed.
        WordIndex([DocEntry("e", "a b\n.pgm", 10, 10)], [], [])
        with pytest.raises(IndexInvariantError) as err:
            WordIndex([self.doc, DocEntry("e", "a\0b.pgm", 10, 10)], [], [])
        assert str(err.value) == "doc 1: path 'a\\x00b.pgm' holding a NUL"
        assert (err.value.kind, err.value.position) == ("doc", 1)

    @pytest.mark.parametrize("size", [0, -5, 1_000_001, 2**31])
    @pytest.mark.parametrize("side", ["width", "height"])
    def test_page_size_the_file_cannot_hold_rejected(self, size, side):
        # A page file holds each side as 1..1000000 (`pnm.MAX_SIDE`), so no
        # page of any other size can be loaded for a query.
        width, height = (size, 100) if side == "width" else (100, size)
        docs = [self.doc, DocEntry("e", "e.pgm", width, height)]
        with pytest.raises(IndexInvariantError) as err:
            WordIndex(docs, [], [])
        assert str(err.value) == (f"doc 1: page size {width}x{height} outside 1..1000000 "
                                  f"per side or above 100000000 pixels")
        assert (err.value.kind, err.value.position) == ("doc", 1)

    @pytest.mark.parametrize("width,height", [(10_001, 10_000), (1_000_000, 101)])
    def test_page_of_more_pixels_than_a_page_file_rejected(self, width, height):
        with pytest.raises(IndexInvariantError, match=f"page size {width}x{height} outside"):
            WordIndex([DocEntry("e", "e.pgm", width, height)], [], [])

    @pytest.mark.parametrize("width,height", [(1_000_000, 100), (100, 1_000_000),
                                              (10_000, 10_000)])
    def test_largest_page_size_saved_and_loaded(self, width, height):
        # Each side at most pnm.MAX_SIDE, and MAX_PIXELS pixels in all.
        doc = DocEntry("e", "e.pgm", width, height)
        index = WordIndex([doc], [line_row(0, 0, 99)], [word_row(0)])
        assert load_index(save_index(index)) == index

    @pytest.mark.parametrize(
        "lines,words,kind,position,match",
        [
            # A line's page is a position in the two docs.
            ([line_row(2, 0, 49)], [], "line", 0, "page 2 outside 0..1"),
            ([line_row(0, 0, 49), line_row(-1, 0, 49)], [], "line", 1, "page -1 outside 0..1"),
            # A word's line is a position in the lines.
            ([line_row(0, 0, 99)], [word_row(0), word_row(1)], "record", 1,
             "line 1 outside 0..0"),
            ([], [word_row(-1)], "record", 0, r"line -1 outside 0..-1"),
        ],
    )
    def test_page_or_line_out_of_range_rejected(self, lines, words, kind, position, match):
        docs = [self.doc, DocEntry("e", "e.pgm", 100, 100)]
        with pytest.raises(IndexInvariantError, match=match) as err:
            WordIndex(docs, lines, words)
        assert (err.value.kind, err.value.position) == (kind, position)

    @pytest.mark.parametrize(
        "lines,words,kind,position",
        [
            ([line_row(1, 0, 49), line_row(0, 0, 49)], [], "line", 1),
            ([line_row(0, 0, 49), line_row(1, 0, 49), line_row(0, 50, 99)], [], "line", 2),
            ([line_row(0, 0, 49), line_row(0, 50, 99)],
             [word_row(1, y=50), word_row(0)], "record", 1),
            ([line_row(0, 0, 99), line_row(1, 0, 99)],
             [word_row(0), word_row(1, w=20), word_row(1, x=40, w=20), word_row(0, x=70, w=20)],
             "record", 3),
        ],
    )
    def test_page_or_line_that_decreases_rejected(self, lines, words, kind, position):
        docs = [self.doc, DocEntry("e", "e.pgm", 100, 100)]
        with pytest.raises(IndexInvariantError, match="out of page order") as err:
            WordIndex(docs, lines, words)
        assert (err.value.kind, err.value.position) == (kind, position)

    def test_empty_pages_and_lines_and_repeated_positions_accepted(self):
        # Numbers count from each page's and each line's first position; a
        # page or a line may have none.
        docs = [DocEntry("c", "c.pgm", 100, 100), self.doc, DocEntry("e", "e.pgm", 100, 100)]
        lines = [line_row(1, 0, 9), line_row(1, 10, 49), line_row(1, 50, 99), line_row(2, 0, 99)]
        words = [word_row(2, y=50), word_row(2, x=60, y=60, w=30), word_row(3)]
        index = WordIndex(docs, lines, words)
        assert index.words[:, 0].tolist() == [2, 2, 3]
        assert [(rec.doc_id, rec.line_idx, rec.word_idx) for rec in index.records] == [
            ("d", 2, 0), ("d", 2, 1), ("e", 0, 0),
        ]

    @pytest.mark.parametrize(
        "line,match",
        [
            (line_row(0, 0, 100), "outside image rows"),
            (line_row(0, 10, 60, 9, 50), "outside its band"),
            (line_row(0, 10, 60, 20, 61), "outside its band"),
        ],
    )
    def test_band_outside_its_page_or_body_outside_its_band_rejected(self, line, match):
        with pytest.raises(IndexInvariantError, match=match) as err:
            WordIndex([self.doc], [line], [])
        assert (err.value.kind, err.value.position) == ("line", 0)

    @pytest.mark.parametrize(
        "second,message",
        [
            # The first word holds columns 10..59.
            (word_row(0, x=59, w=20), "box x 59..78 not right of its line's previous word, "
                                      "x 10..59"),
            (word_row(0, x=10, w=50), "box x 10..59 not right of its line's previous word, "
                                      "x 10..59"),
            (word_row(0, x=0, w=5), "box x 0..4 not right of its line's previous word, "
                                    "x 10..59"),
        ],
        ids=["overlaps", "same columns", "precedes"],
    )
    def test_word_that_overlaps_or_precedes_its_lines_previous_word_rejected(
        self, second, message
    ):
        with pytest.raises(IndexInvariantError) as err:
            WordIndex([self.doc], [self.line], [word_row(0), second, word_row(0, x=90, w=5)])
        assert str(err.value) == f"record 1: {message}"
        assert (err.value.kind, err.value.position) == ("record", 1)

    @pytest.mark.parametrize(
        "second,message",
        [
            # The first line holds rows 10..49.
            (line_row(0, 49, 60), "band 49..60 not below its page's previous line, rows 10..49"),
            (line_row(0, 10, 49), "band 10..49 not below its page's previous line, rows 10..49"),
            (line_row(0, 0, 5), "band 0..5 not below its page's previous line, rows 10..49"),
        ],
        ids=["overlaps", "same rows", "precedes"],
    )
    def test_line_that_overlaps_or_precedes_its_pages_previous_line_rejected(
        self, second, message
    ):
        with pytest.raises(IndexInvariantError) as err:
            WordIndex([self.doc], [line_row(0, 10, 49), second, line_row(0, 90, 99)], [])
        assert str(err.value) == f"line 1: {message}"
        assert (err.value.kind, err.value.position) == ("line", 1)

    def test_runs_that_touch_or_are_on_other_lines_and_pages_accepted(self):
        # Words and lines with no position between them follow one another;
        # the order rule holds within a line and within a page only.
        docs = [self.doc, DocEntry("e", "e.pgm", 100, 100)]
        lines = [line_row(0, 0, 49), line_row(0, 50, 99), line_row(1, 0, 99)]
        words = [word_row(0, x=0), word_row(0, x=50), word_row(1, x=0, y=50), word_row(2, x=0)]
        index = WordIndex(docs, lines, words)
        assert load_index(save_index(index)) == index
        assert index_text(save_index(index)).decode().splitlines()[3:] == [
            "L 0 50 0 0", "0 20 50 5", "0 20 50 5", "L 0 50 0 0", "0 0 50 25",
            "DOC e e.pgm 100 100", "L 0 100 0 0", "0 20 50 55",
        ]

    @pytest.mark.parametrize("y", [9, 41])
    def test_box_outside_its_line_rejected(self, y):
        # The box is 25 rows high; the line holds rows 10..64.
        with pytest.raises(IndexInvariantError, match="its line rows 10..64"):
            WordIndex([self.doc], [line_row(0, 10, 64)], [word_row(0, y=y)])


class TestColumns:
    def test_positions_in_columns_out(self):
        index = small_index()
        assert index.words.tolist() == [
            [0, 10, 20, 59, 44], [0, 70, 20, 369, 79], [2, 10, 20, 564, 80],
        ]
        assert index.lines.tolist() == [
            [0, 20, 79, 30, 60], [1, 0, 10, 2, 8], [1, 20, 80, 40, 60],
        ]
        assert index.tokens == [None] * 3
        assert index.norm_lengths.tolist() == [120, 300, 546]
        assert index.sorted_lengths.tolist() == [120, 300, 546]
        assert index.records[0] == make_record("doc1", 0, 0)
        assert index.records[1] == make_record("doc1", 0, 1, x=70, w=300, h=60)
        assert index.records[-1] == index.records[2] == make_record("doc2", 1, 0, w=555, h=61)
        assert index.record(-1) == index.records[2]
        with pytest.raises(IndexError):
            index.records[3]

    def test_repr_shows_its_rows(self):
        text = repr(small_index())
        assert text.startswith("WordIndex(docs=[DocEntry(doc_id='doc1', ")
        assert text.endswith(
            "lines=[[0, 20, 79, 30, 60], [1, 0, 10, 2, 8], [1, 20, 80, 40, 60]], "
            "words=[[0, 10, 20, 59, 44], [0, 70, 20, 369, 79], [2, 10, 20, 564, 80]])"
        )

    def test_length_order_breaks_ties_by_record_order(self):
        doc = DocEntry("d", "d.pgm", 900, 100)
        widths = [60, 30, 60, 10, 30]
        words = [word_row(0, x=x, y=0, w=w, h=60)
                 for x, w in zip(np.cumsum([0] + widths[:-1]).tolist(), widths)]
        index = WordIndex([doc], [line_row(0, 0, 99)], words)
        assert index.length_order.tolist() == [3, 1, 4, 0, 2]

    def test_record_count_builds_no_record(self, monkeypatch):
        index = small_index()

        def refuse(position):
            raise AssertionError("len() built a record")

        monkeypatch.setattr(index, "record", refuse)
        assert len(index.records) == 3

    def test_built_loaded_and_rebuilt_indexes_agree(self):
        built = build_index([("a", blob_page()), ("b", blob_page(x=10))])
        lines, words = built.lines.copy(), built.words.copy()
        again = WordIndex(built.docs, lines, words)
        lines[:], words[:] = 0, 0  # the index holds copies
        assert again == built == load_index(save_index(built))
        assert again.words[:, 0].tolist() == built.words[:, 0].tolist() == [0, 1]

    @given(word_indexes())
    def test_rebuilt_from_its_own_rows(self, index):
        assert WordIndex(index.docs, index.lines, index.words) == index
        # The numbers by a plain walk: a line counts the lines before it on
        # its page, and a word the words before it on its line.
        lines_seen, words_seen = Counter(), Counter()
        line_numbers = []
        for page in index.lines[:, 0].tolist():
            line_numbers.append(lines_seen[page])
            lines_seen[page] += 1
        expected = []
        for line, x1, y1, x2, y2 in index.words.tolist():
            doc_id = index.docs[index.lines[line, 0]].doc_id
            expected.append(WordRecord(doc_id, line_numbers[line], words_seen[line],
                                       WordBox(x1, y1, x2, y2)))
            words_seen[line] += 1
        assert list(index.records) == expected


class TestScaleInvariance:
    def test_rounding_slack_at_most_one(self):
        rng = random.Random(42)
        for _ in range(300):
            H = rng.randint(10, 200)
            L = rng.randint(10, 600)
            base = normalize_length(L, H)
            for s in (2, 3, 5):
                assert abs(normalize_length(s * L, s * H) - base) <= 1
