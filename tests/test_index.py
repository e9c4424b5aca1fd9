"""Length normalization, size classes, index build and persistence."""

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
from wordspot.segment import WordBox


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
        assert index.records == [] and index.docs == []

    def test_single_blob_record(self):
        index = build_index([("page", blob_page())], ref_font=60)
        assert len(index.records) == 1
        rec = index.records[0]
        assert rec.box == WordBox(40, 20, 139, 49)
        assert rec.box.height == 30 and rec.box.width == 100
        assert rec.wst is None
        # Normalized length 200, size class SMALL.
        assert index.buckets[SizeClass.SMALL] == [(200, rec)]

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

    def test_duplicate_doc_ids_rejected(self):
        with pytest.raises(ValueError):
            build_index([("a", blob_page()), ("a", blob_page())])


def make_record(doc, line, word, *, x=10, y=20, w=50, h=25, wst=None):
    return WordRecord(doc, line, word, WordBox(x, y, x + w - 1, y + h - 1), wst)


def small_index():
    records = [
        make_record("doc1", 0, 0, w=50, h=25),
        make_record("doc1", 0, 1, w=300, h=60, wst="AxxgA"),
        make_record("doc2", 3, 0, w=555, h=61),
    ]
    docs = [
        DocEntry("doc1", "pages/doc one.pgm", 640, 480),
        DocEntry("doc2", "d2.pbm", 640, 200),
    ]
    return WordIndex(60, docs, records)


class TestPersistence:
    def test_empty_index_header(self):
        assert save_index(WordIndex(60, [], [])) == b"WSIDX 2\nK 60\n"

    def test_round_trip_is_field_exact(self):
        index = small_index()
        again = load_index(save_index(index))
        assert again == index
        assert again.records[1].wst == "AxxgA"
        assert again.docs[0].path == "pages/doc one.pgm"

    def test_no_whitespace_in_encoded_lines(self):
        data = save_index(small_index()).decode()
        for line in data.strip().split("\n"):
            assert len(line.split(" ")) == len(line.split())

    def test_known_record_line(self):
        index = WordIndex(60, [DocEntry("d", "d.pgm", 100, 50)],
                          [make_record("d", 2, 5, x=1, y=2, w=30, h=10)])
        lines = save_index(index).decode().splitlines()
        assert lines[2] == "DOC d d.pgm 100 50"
        assert lines[3] == "W d 2 5 1 2 30 11 -"

    def test_buckets_rebuilt_on_load(self):
        again = load_index(save_index(small_index()))
        for cls in SizeClass:
            for norm, rec in again.buckets[cls]:
                assert norm == normalize_length(rec.box.width, rec.box.height, 60)
                assert classify_size(norm) == cls
        assert sum(len(b) for b in again.buckets.values()) == 3


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
        self.assert_error_line(corrupt(lines, 1, "WSIDX 1"), 1)

    def test_bad_magic(self, lines):
        self.assert_error_line(corrupt(lines, 1, "NOTANINDEX"), 1)

    def test_bad_ref_font(self, lines):
        self.assert_error_line(corrupt(lines, 2, "K zero"), 2)

    def test_unknown_line_kind(self, lines):
        self.assert_error_line(corrupt(lines, 5, "X what"), 5)

    def test_short_record_line(self, lines):
        self.assert_error_line(corrupt(lines, 5, "W doc1 0 0 1 2 3"), 5)

    def test_bad_wst_token(self, lines):
        bad = lines[5 - 1][:-1] + "Q"
        self.assert_error_line(corrupt(lines, 5, bad), 5)

    def test_duplicate_record_key(self, lines):
        data = ("\n".join(lines + [lines[5 - 1]]) + "\n").encode()
        self.assert_error_line(data, len(lines) + 1)

    def test_unknown_doc_reference(self, lines):
        bad = lines[5 - 1].replace("W doc1", "W ghost")
        self.assert_error_line(corrupt(lines, 5, bad), 5)

    def test_duplicate_doc(self, lines):
        data = ("\n".join(lines[:4] + [lines[3 - 1]] + lines[4:]) + "\n").encode()
        self.assert_error_line(data, 5)

    def test_parse_error_reported_before_invariant_error(self, lines):
        # Line 5's box is moved outside its page; line 6 is short.
        fields = lines[5 - 1].split(" ")
        fields[4], fields[6] = "600", "649"
        bad = corrupt(lines, 5, " ".join(fields)).decode().strip().split("\n")
        self.assert_error_line(corrupt(bad, 6, "W doc1 0 1 1 2 3"), 6)

    def test_record_box_outside_its_page(self, lines):
        # Line 5 is doc1's first record; doc1 is 640 pixels wide.
        fields = lines[5 - 1].split(" ")
        fields[4], fields[6] = "600", "649"
        self.assert_error_line(corrupt(lines, 5, " ".join(fields)), 5)

    def test_non_utf8(self):
        with pytest.raises(IndexFormatError):
            load_index(b"\xff\xfe\x00")


# Doc ids and paths mix plain characters with the ones the format must
# percent-encode: spaces, `%` (also before hex digits), line breaks, non-ASCII.
names = st.lists(
    st.sampled_from([" ", "%", "%41", "%zz", "+", "/", ".", "\n", "\t", "a", "é", "€"])
    | st.characters(blacklist_categories=("Cs",)),
    max_size=6,
).map("".join)


@st.composite
def word_indexes(draw):
    """A valid WordIndex: unique doc ids and word keys, boxes inside their
    page, records of all docs interleaved, tokens cached or not."""
    docs = [
        DocEntry(doc_id, draw(names), draw(st.integers(1, 300)), draw(st.integers(1, 300)))
        for doc_id in draw(st.lists(names, max_size=3, unique=True))
    ]
    records = {}
    for doc in docs:
        for _ in range(draw(st.integers(0, 4))):
            key = (doc.doc_id, draw(st.integers(0, 3)), draw(st.integers(0, 3)))
            x1 = draw(st.integers(0, doc.width - 1))
            y1 = draw(st.integers(0, doc.height - 1))
            box = WordBox(
                x1, y1, draw(st.integers(x1, doc.width - 1)), draw(st.integers(y1, doc.height - 1))
            )
            wst = draw(st.none() | st.text("Axg", min_size=1, max_size=12))
            records[key] = WordRecord(*key, box, wst)
    order = draw(st.permutations(list(records.values())))
    return WordIndex(draw(st.integers(1, 120)), docs, order)


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
        byte = st.sampled_from(b" \n-%0123456789WDOCKAxg") | st.integers(0, 255)
        how = data.draw(st.sampled_from(["truncate", "extend", "mutate", "field"]))
        if how == "field":
            # Replace one whole field of one line.
            lines = [line.split(" ") for line in original.decode().split("\n")]
            fields = data.draw(st.sampled_from(lines))
            fields[data.draw(st.integers(0, len(fields) - 1))] = data.draw(
                st.sampled_from(["", "-", "0", "-1", "07", "x", "Q", "W", "DOC", "%", "1e3"])
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
    def test_duplicate_word_key_rejected(self):
        doc = DocEntry("d", "d.pgm", 100, 100)
        with pytest.raises(ValueError, match="duplicate word key"):
            WordIndex(60, [doc], [make_record("d", 0, 0), make_record("d", 0, 0)])

    def test_record_of_unknown_doc_rejected(self):
        doc = DocEntry("d", "d.pgm", 100, 100)
        with pytest.raises(IndexInvariantError, match="unknown doc 'ghost'") as err:
            WordIndex(60, [doc], [make_record("d", 0, 0), make_record("ghost", 0, 0)])
        assert (err.value.kind, err.value.position) == ("record", 1)

    @pytest.mark.parametrize("x,y", [(51, 20), (10, 76), (-1, 20), (10, -1)])
    def test_box_outside_its_page_rejected(self, x, y):
        # make_record's box is 50 wide and 25 high; the page is 100x100.
        doc = DocEntry("d", "d.pgm", 100, 100)
        with pytest.raises(ValueError, match="outside its page"):
            WordIndex(60, [doc], [make_record("d", 0, 0, x=x, y=y)])

    def test_box_touching_page_edges_accepted(self):
        doc = DocEntry("d", "d.pgm", 100, 100)
        WordIndex(60, [doc], [make_record("d", 0, 0, x=50, y=75), make_record("d", 0, 1, x=0, y=0)])

    def test_duplicate_doc_rejected(self):
        doc = DocEntry("d", "d.pgm", 10, 10)
        with pytest.raises(ValueError):
            WordIndex(60, [doc, doc], [])


class TestScaleInvariance:
    def test_rounding_slack_at_most_one(self):
        rng = random.Random(42)
        for _ in range(300):
            H = rng.randint(10, 200)
            L = rng.randint(10, 600)
            base = normalize_length(L, H, 60)
            for s in (2, 3, 5):
                assert abs(normalize_length(s * L, s * H, 60) - base) <= 1
