"""Length normalization, size classes, index build and persistence."""

import os
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from wordspot.index import (
    DocEntry,
    IndexFormatError,
    IndexInvariantError,
    LineEntry,
    SizeClass,
    WordIndex,
    WordRecord,
    build_index,
    classify_size,
    load_index,
    normalize_length,
    save_index,
)
from wordspot.pnm import BinaryImage
from wordspot.segment import LineBand, WordBox, row_profile, segment_lines
from wordspot.shapecode import ZoneBands, estimate_zones


class TestNormalizeLength:
    def test_reference_height_leaves_length_unchanged(self):
        assert normalize_length(200, 120, 120) == 200
        assert normalize_length(200, 33, 33) == 200

    def test_halving(self):
        assert normalize_length(200, 120, 60) == 100

    def test_rounds_half_up_after_exact_arithmetic(self):
        # 2*5/3 = 10/3 = 3.33 -> 3
        assert normalize_length(5, 3, 2) == 3
        # 3*1/2 = 1.5 -> 2
        assert normalize_length(1, 2, 3) == 2

    @pytest.mark.parametrize("L,H,K", [(0, 1, 1), (1, 0, 1), (1, 1, 0)])
    def test_domain_errors(self, L, H, K):
        with pytest.raises(ValueError):
            normalize_length(L, H, K)

    def test_identity_property(self):
        rng = random.Random(1)
        for _ in range(200):
            L = rng.randint(1, 600)
            H = rng.randint(1, 200)
            assert normalize_length(L, H, H) == L


class TestClassifySize:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (79, SizeClass.VERY_SMALL),
            (250, SizeClass.MEDIUM),
            (500, SizeClass.VERY_LARGE),
            (240, SizeClass.MEDIUM),
        ],
    )
    def test_examples(self, value, expected):
        assert classify_size(value) == expected

    def test_monotone(self):
        previous = SizeClass.VERY_SMALL
        for value in range(0, 600):
            cls = classify_size(value)
            assert cls >= previous
            previous = cls

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            classify_size(-1)

    def test_codes(self):
        assert [c.code for c in SizeClass] == ["VS", "S", "M", "L", "VL"]


def blob_page(width=200, height=80, x=40, y=20, blob_w=100, blob_h=30):
    bits = np.ones((height, width), dtype=np.uint8)
    bits[y : y + blob_h, x : x + blob_w] = 0
    return BinaryImage(width, height, bits)


class TestBuildIndex:
    def test_empty_page_list(self):
        index = build_index([], ref_font=60)
        assert index.records == [] and index.docs == [] and index.lines == []

    def test_single_blob_record(self):
        index = build_index([("page", blob_page())], ref_font=60)
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
            assert np.bincount(index.line_table[:, 0], minlength=2).tolist() == lines_per_page

    def test_ref_font_must_fit_the_index_format(self):
        with pytest.raises(ValueError, match="ref_font 2147483648 outside 1..2147483647"):
            build_index([("page", blob_page())], ref_font=2**31)
        index = build_index([("page", blob_page())], ref_font=2**31 - 1)
        assert load_index(save_index(index)) == index

    def test_two_pages_same_content(self):
        pages = [("a", blob_page()), ("b", blob_page())]
        index = build_index(pages, ref_font=60)
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
        index = build_index([("a", page)], noise_threshold=0)
        bands = segment_lines(row_profile(page), 0)
        assert index.lines == [
            LineEntry("a", n, band, estimate_zones(page, band)) for n, band in enumerate(bands)
        ]
        assert [index.lines[n] for n in index.record_lines.tolist()] == index.lines

    def test_duplicate_doc_ids_rejected(self):
        with pytest.raises(ValueError):
            build_index([("a", blob_page()), ("a", blob_page())])


def make_record(doc, line, word, *, x=10, y=20, w=50, h=25, wst=None):
    return WordRecord(doc, line, word, WordBox(x, y, x + w - 1, y + h - 1), wst)


def word_row(line, *, x=10, y=20, w=50, h=25):
    """The row WordIndex takes for make_record's word, on line position `line`."""
    return (line, x, y, x + w - 1, y + h - 1)


def make_line(doc, line, row_start, row_end, body_top=None, body_bottom=None):
    """A line whose body band is its whole band unless given."""
    body = (
        row_start if body_top is None else body_top,
        row_end if body_bottom is None else body_bottom,
    )
    return LineEntry(doc, line, LineBand(row_start, row_end), ZoneBands(*body))


def line_row(page, row_start, row_end, body_top=None, body_bottom=None):
    """The row WordIndex takes for make_line's line, on page position `page`."""
    body_top = row_start if body_top is None else body_top
    return (page, row_start, row_end, body_top, row_end if body_bottom is None else body_bottom)


def own_rows(index):
    """The lines and words rows an index holds, as its constructor takes them."""
    lines = index.line_table[:, [0, 2, 3, 4, 5]]
    return lines, np.column_stack((index.record_lines, index.record_table[:, 3:]))


def small_index():
    # Index file lines: 3 DOC doc1, 4 L, 5-6 W, 7 DOC doc2, 8 L (no words),
    # 9 L, 10 W.
    lines = [line_row(0, 20, 79, 30, 60), line_row(1, 0, 10, 2, 8), line_row(1, 20, 80, 40, 60)]
    words = [word_row(0, w=50, h=25), word_row(0, w=300, h=60), word_row(2, w=555, h=61)]
    docs = [
        DocEntry("doc1", "pages/doc one.pgm", 640, 480),
        DocEntry("doc2", "d2.pbm", 640, 200),
    ]
    return WordIndex(60, docs, lines, words, [None, "AxxgA", None])


class TestPersistence:
    def test_empty_index_header(self):
        assert save_index(WordIndex(60, [], [], [], [])) == b"WSIDX 3\nK 60\n"

    def test_round_trip_is_field_exact(self):
        index = small_index()
        again = load_index(save_index(index))
        assert again == index
        assert again.records[1].wst == "AxxgA"
        assert again.docs[0].path == "pages/doc one.pgm"
        assert again.lines[2] == make_line("doc2", 1, 20, 80, 40, 60)

    def test_no_whitespace_in_encoded_lines(self):
        data = save_index(small_index()).decode()
        for line in data.strip().split("\n"):
            assert len(line.split(" ")) == len(line.split())

    def test_known_record_line(self):
        index = WordIndex(60, [DocEntry("d", "d.pgm", 100, 50)], [line_row(0, 0, 20, 5, 15)],
                          [word_row(0, x=1, y=2, w=30, h=10)], [None])
        lines = save_index(index).decode().splitlines()
        assert lines[2] == "DOC d d.pgm 100 50"
        assert lines[3] == "L 0 20 5 15"
        assert lines[4] == "W 1 2 30 11 -"

    def test_path_that_is_not_utf8_round_trips(self):
        path = os.fsdecode(b"pages/a\xff b.pgm")
        index = WordIndex(60, [DocEntry("a", path, 10, 10)], [], [], [])
        data = save_index(index)
        assert b"DOC a pages/a%FF%20b.pgm 10 10" in data
        assert load_index(data).docs[0].path == path

    def test_norm_lengths_and_classes_rebuilt_on_load(self):
        again = load_index(save_index(small_index()))
        norms = [normalize_length(rec.box.width, rec.box.height, 60) for rec in again.records]
        assert again.norm_lengths.tolist() == norms
        assert again.size_class_counts() == [
            sum(classify_size(norm) == cls for norm in norms) for cls in SizeClass
        ]
        assert sum(again.size_class_counts()) == 3


def corrupt(lines, line_no, new_value):
    out = list(lines)
    out[line_no - 1] = new_value
    return ("\n".join(out) + "\n").encode()


class TestLoadErrors:
    @pytest.fixture()
    def lines(self):
        return save_index(small_index()).decode().strip().split("\n")

    def assert_error_line(self, data, line_no):
        with pytest.raises(IndexFormatError) as err:
            load_index(data)
        assert err.value.line == line_no

    def test_bad_version(self, lines):
        self.assert_error_line(corrupt(lines, 1, "WSIDX 2"), 1)
        self.assert_error_line(corrupt(lines, 1, "WSIDX 1"), 1)

    def test_bad_magic(self, lines):
        self.assert_error_line(corrupt(lines, 1, "NOTANINDEX"), 1)

    def test_bad_ref_font(self, lines):
        self.assert_error_line(corrupt(lines, 2, "K zero"), 2)

    def test_unknown_line_kind(self, lines):
        self.assert_error_line(corrupt(lines, 5, "X what"), 5)

    def test_short_record_line(self, lines):
        self.assert_error_line(corrupt(lines, 5, "W 1 2 3"), 5)

    def test_short_L_line(self, lines):
        self.assert_error_line(corrupt(lines, 4, "L 20 79 30"), 4)

    def test_bad_wst_token(self, lines):
        bad = lines[5 - 1][:-1] + "Q"
        self.assert_error_line(corrupt(lines, 5, bad), 5)

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

    def test_parse_error_reported_before_invariant_error(self, lines):
        # Line 5's box is moved outside its page; line 6 is short.
        fields = lines[5 - 1].split(" ")
        fields[1], fields[3] = "600", "649"
        bad = corrupt(lines, 5, " ".join(fields)).decode().strip().split("\n")
        self.assert_error_line(corrupt(bad, 6, "W 1 2 3"), 6)

    def test_record_box_outside_its_page(self, lines):
        # Line 5 is doc1's first record; doc1 is 640 pixels wide.
        fields = lines[5 - 1].split(" ")
        fields[1], fields[3] = "600", "649"
        self.assert_error_line(corrupt(lines, 5, " ".join(fields)), 5)

    def test_record_box_outside_its_line(self, lines):
        # Line 5's box starts on row 20, the first row of line 4's band.
        fields = lines[5 - 1].split(" ")
        fields[2] = "19"
        self.assert_error_line(corrupt(lines, 5, " ".join(fields)), 5)

    @pytest.mark.parametrize(
        "bad", ["L 20 480 30 60", "L 20 79 19 60", "L 20 79 30 80", "L 79 20 30 60",
                "L 20 79 60 30"]
    )
    def test_line_band_outside_its_page_or_body_outside_its_band(self, lines, bad):
        # doc1 is 480 rows high; line 4's band is rows 20..79.
        self.assert_error_line(corrupt(lines, 4, bad), 4)

    def test_non_utf8(self):
        with pytest.raises(IndexFormatError):
            load_index(b"\xff\xfe\x00")

    @pytest.mark.parametrize(
        "bad", ["W 1 2 2147483648 30 -", "W 1 99999999999999999999 3 4 -", "W 1 -2 3 4 -"]
    )
    def test_number_out_of_range(self, lines, bad):
        self.assert_error_line(corrupt(lines, 5, bad), 5)

    @pytest.mark.parametrize(
        "first,second",
        [
            ("W 1 2 3 x -", "W 1 2"),  # a malformed number before a short line
            ("W 1 2", "W 1 2 3 x -"),
            ("W 20 20 10 30 -", "W 1 2 3 4 Q"),  # a degenerate box before a bad token
            ("W 1 20 3 30 Q", "W 30 20 10 30 -"),
            ("L 30 20 30 40", "X"),  # an empty band before an unknown kind
            ("L 20 79 30 60 9", "W 1 x 3 4 -"),
        ],
    )
    def test_first_bad_line_in_file_order_whatever_its_fault(self, lines, first, second):
        # Lines 4-6 are doc1's line and its two words.
        at = 4 if first.startswith("L") else 5
        data = corrupt(corrupt(lines, at, first).decode().strip().split("\n"), 6, second)
        self.assert_error_line(data, at)


# Doc ids and paths mix plain characters with the ones the format must
# percent-encode: spaces, `%` (also before hex digits), line breaks, non-ASCII.
names = st.lists(
    st.sampled_from([" ", "%", "%41", "%zz", "+", "/", ".", "\n", "\t", "a", "é", "€"])
    | st.characters(blacklist_categories=("Cs",)),
    max_size=6,
).map("".join)
# A path may also be any file-system name, UTF-8 or not.
paths = names | st.binary(max_size=6).map(os.fsdecode)


@st.composite
def rows_within(draw, first, last):
    """An inclusive row range inside first..last."""
    start = draw(st.integers(first, last))
    return start, draw(st.integers(start, last))


@st.composite
def word_indexes(draw):
    """A valid WordIndex: unique doc ids; lines in page order with their
    band inside their page and their body inside the band; words in line
    order with their box inside the page's columns and the line's rows;
    tokens cached or not."""
    docs = [
        DocEntry(doc_id, draw(paths), draw(st.integers(1, 300)), draw(st.integers(1, 300)))
        for doc_id in draw(st.lists(names, max_size=3, unique=True))
    ]
    lines, words, tokens = [], [], []
    for page, doc in enumerate(docs):
        for _ in range(draw(st.integers(0, 3))):
            row_start, row_end = draw(rows_within(0, doc.height - 1))
            body_top, body_bottom = draw(rows_within(row_start, row_end))
            for _ in range(draw(st.integers(0, 3))):
                x1, x2 = draw(rows_within(0, doc.width - 1))
                y1, y2 = draw(rows_within(row_start, row_end))
                words.append((len(lines), x1, y1, x2, y2))
                tokens.append(draw(st.none() | st.text("Axg", min_size=1, max_size=12)))
            lines.append((page, row_start, row_end, body_top, body_bottom))
    return WordIndex(draw(st.integers(1, 120)), docs, lines, words, tokens)


class TestLoadProperties:
    @given(word_indexes())
    def test_round_trip(self, index):
        data = save_index(index)
        again = load_index(data)
        assert again == index
        assert save_index(again) == data

    @given(word_indexes(), st.data())
    def test_truncated_extended_or_mutated_bytes_give_index_or_format_error(self, index, data):
        original = save_index(index)
        # Bytes the format gives meaning to are drawn often, so that many
        # mutations leave a line that still parses up to a later field.
        byte = st.sampled_from(b" \n-%0123456789WLDOCKAxg") | st.integers(0, 255)
        how = data.draw(st.sampled_from(["truncate", "extend", "mutate", "field"]))
        if how == "field":
            # Replace one whole field of one line.
            lines = [line.split(" ") for line in original.decode().split("\n")]
            fields = data.draw(st.sampled_from(lines))
            fields[data.draw(st.integers(0, len(fields) - 1))] = data.draw(
                st.sampled_from(["", "-", "0", "-1", "07", "x", "Q", "W", "L", "DOC", "%", "1e3"])
                | st.integers(0, 400).map(str)
            )
            damaged = "\n".join(" ".join(f) for f in lines).encode()
        elif how == "truncate":
            damaged = original[: data.draw(st.integers(0, len(original) - 1))]
        elif how == "extend":
            damaged = original + bytes(data.draw(st.lists(byte, min_size=1, max_size=12)))
        else:
            damaged = bytearray(original)
            for _ in range(data.draw(st.integers(1, 4))):
                damaged[data.draw(st.integers(0, len(damaged) - 1))] = data.draw(byte)
            damaged = bytes(damaged)
        try:
            loaded = load_index(damaged)
        except IndexFormatError as exc:
            assert exc.line >= 1
            return
        assert isinstance(loaded, WordIndex)


def test_readme_format_example_loads_and_saves_back():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("## Index file format", 1)[1].split("```\n", 2)[1]
    index = load_index(example.encode())
    assert len(index.records) == 1
    assert save_index(index) == example.encode()


class TestDirectConstruction:
    # A 100x100 page with one line over all its rows.
    doc = DocEntry("d", "d.pgm", 100, 100)
    line = line_row(0, 0, 99)

    def test_token_for_each_word_required(self):
        with pytest.raises(ValueError, match="1 tokens for 2 words"):
            WordIndex(60, [self.doc], [self.line], [word_row(0), word_row(0)], [None])

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
            WordIndex(60, [self.doc], lines, words, [None] * len(words))

    @pytest.mark.parametrize("token", ["", "AxQ"])
    def test_invalid_token_rejected(self, token):
        with pytest.raises(IndexInvariantError, match="record 1: invalid shape token"):
            WordIndex(60, [self.doc], [self.line], [word_row(0), word_row(0)], ["Ax", token])

    @pytest.mark.parametrize("x,y", [(51, 20), (10, 76), (-1, 20), (10, -1)])
    def test_box_outside_its_page_rejected(self, x, y):
        # word_row's box is 50 wide and 25 high; the page is 100x100.
        with pytest.raises(ValueError, match="outside its page"):
            WordIndex(60, [self.doc], [self.line], [word_row(0, x=x, y=y)], [None])

    def test_box_touching_page_edges_accepted(self):
        WordIndex(60, [self.doc], [self.line],
                  [word_row(0, x=50, y=75), word_row(0, x=0, y=0)], [None, None])

    def test_duplicate_doc_rejected(self):
        doc = DocEntry("d", "d.pgm", 10, 10)
        with pytest.raises(ValueError):
            WordIndex(60, [doc, doc], [], [], [])

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
            WordIndex(60, docs, lines, words, [None] * len(words))
        assert (err.value.kind, err.value.position) == (kind, position)

    @pytest.mark.parametrize(
        "lines,words,kind,position",
        [
            ([line_row(1, 0, 49), line_row(0, 0, 49)], [], "line", 1),
            ([line_row(0, 0, 49), line_row(1, 0, 49), line_row(0, 50, 99)], [], "line", 2),
            ([line_row(0, 0, 49), line_row(0, 50, 99)],
             [word_row(1, y=50), word_row(0)], "record", 1),
            ([line_row(0, 0, 99), line_row(1, 0, 99)],
             [word_row(0), word_row(1), word_row(1), word_row(0)], "record", 3),
        ],
    )
    def test_page_or_line_that_decreases_rejected(self, lines, words, kind, position):
        docs = [self.doc, DocEntry("e", "e.pgm", 100, 100)]
        with pytest.raises(IndexInvariantError, match="out of page order") as err:
            WordIndex(60, docs, lines, words, [None] * len(words))
        assert (err.value.kind, err.value.position) == (kind, position)

    def test_empty_pages_and_lines_and_repeated_positions_accepted(self):
        # Numbers count from each page's and each line's first position; a
        # page or a line may have none.
        docs = [DocEntry("c", "c.pgm", 100, 100), self.doc, DocEntry("e", "e.pgm", 100, 100)]
        lines = [line_row(1, 0, 9), line_row(1, 10, 49), line_row(1, 50, 99), line_row(2, 0, 99)]
        words = [word_row(2, y=50), word_row(2, y=60), word_row(3)]
        index = WordIndex(60, docs, lines, words, [None] * 3)
        assert index.record_lines.tolist() == [2, 2, 3]
        assert index.line_table[:, :2].tolist() == [[1, 0], [1, 1], [1, 2], [2, 0]]
        assert index.record_table[:, :3].tolist() == [[1, 2, 0], [1, 2, 1], [2, 0, 0]]

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
            WordIndex(60, [self.doc], [line], [], [])
        assert (err.value.kind, err.value.position) == ("line", 0)

    @pytest.mark.parametrize("y", [9, 41])
    def test_box_outside_its_line_rejected(self, y):
        # The box is 25 rows high; the line holds rows 10..64.
        with pytest.raises(IndexInvariantError, match="its line rows 10..64"):
            WordIndex(60, [self.doc], [line_row(0, 10, 64)], [word_row(0, y=y)], [None])


class TestColumns:
    def test_positions_in_columns_out(self):
        index = small_index()
        assert index.record_table.tolist() == [
            [0, 0, 0, 10, 20, 59, 44],
            [0, 0, 1, 10, 20, 309, 79],
            [1, 1, 0, 10, 20, 564, 80],
        ]
        assert index.line_table.tolist() == [
            [0, 0, 20, 79, 30, 60], [1, 0, 0, 10, 2, 8], [1, 1, 20, 80, 40, 60],
        ]
        assert index.tokens == [None, "AxxgA", None]
        assert index.record_lines.tolist() == [0, 0, 2]
        assert index.norm_lengths.tolist() == [120, 300, 546]
        assert index.sorted_lengths.tolist() == [120, 300, 546]
        assert index.records[1] == make_record("doc1", 0, 1, w=300, h=60, wst="AxxgA")
        assert index.records[-1] == index.records[2] == make_record("doc2", 1, 0, w=555, h=61)
        assert index.lines[1:] == [make_line("doc2", 0, 0, 10, 2, 8),
                                   make_line("doc2", 1, 20, 80, 40, 60)]
        with pytest.raises(IndexError):
            index.records[3]

    def test_length_order_breaks_ties_by_record_order(self):
        doc = DocEntry("d", "d.pgm", 900, 100)
        words = [word_row(0, x=0, y=0, w=w, h=60) for w in [60, 30, 60, 10, 30]]
        index = WordIndex(60, [doc], [line_row(0, 0, 99)], words, [None] * 5)
        assert index.length_order.tolist() == [3, 1, 4, 0, 2]

    def test_record_count_builds_no_record(self, monkeypatch):
        index = small_index()

        def refuse(position):
            raise AssertionError("len() built a record")

        monkeypatch.setattr(index, "record", refuse)
        assert len(index.records) == 3

    def test_tokens_written_show_in_records_and_saved_file(self):
        index = small_index()
        index.tokens[0] = "xA"
        assert index.records[0].wst == "xA"
        assert load_index(save_index(index)).tokens == ["xA", "AxxgA", None]

    def test_built_loaded_and_rebuilt_indexes_agree(self):
        built = build_index([("a", blob_page()), ("b", blob_page(x=10))], ref_font=50)
        lines, words = own_rows(built)
        again = WordIndex(50, built.docs, lines, words, built.tokens)
        lines[:], words[:] = 0, 0  # the index holds copies
        assert again == built == load_index(save_index(built))
        assert again.record_lines.tolist() == built.record_lines.tolist() == [0, 1]

    @given(word_indexes())
    def test_rebuilt_from_its_own_rows(self, index):
        again = WordIndex(index.ref_font, index.docs, *own_rows(index), index.tokens)
        assert again == index
        assert again.record_lines.tolist() == index.record_lines.tolist()


class TestScaleInvariance:
    def test_rounding_slack_at_most_one(self):
        rng = random.Random(42)
        for _ in range(300):
            H = rng.randint(10, 200)
            L = rng.randint(10, 600)
            base = normalize_length(L, H, 60)
            for s in (2, 3, 5):
                assert abs(normalize_length(s * L, s * H, 60) - base) <= 1
