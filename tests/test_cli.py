"""Command-line behavior: exit codes, output formats, atomicity, annotation."""

import argparse
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from glyphs import compose_page, metrics
from indexfile import index_file, index_text
from wordspot import index as index_mod
from wordspot.cli import _build_parser, main
from wordspot.index import MAX_INDEX_TEXT, WordIndex, load_index
from wordspot.pnm import GrayImage, binarize, load_image, write_gray
from wordspot.search import search
from wordspot.segment import default_noise_threshold, row_profile, segment_lines, segment_words


def page_to_pgm(layout) -> bytes:
    bits = layout.image.bits
    gray = GrayImage(layout.image.width, layout.image.height, 255,
                     bits.astype(np.uint16) * 255)
    return write_gray(gray)


def page_in_format(bits: np.ndarray, form: str) -> bytes:
    """A binary page (bit 0 = ink) as a NetPBM file that loads to the same
    ink: 8-bit P5, 16-bit P5 with maxval 1000, P2, P4 or P6."""
    h, w = bits.shape
    white = bits.astype(np.uint16)
    if form == "P5":
        return write_gray(GrayImage(w, h, 255, white * 255))
    if form == "P5-16":
        raster = (white * 1000).astype(">u2").tobytes()
        return f"P5\n{w} {h}\n1000\n".encode() + raster
    if form == "P2":
        rows = "\n".join(" ".join(map(str, row)) for row in (white * 255).tolist())
        return f"P2\n{w} {h}\n255\n{rows}\n".encode()
    if form == "P4":
        return f"P4\n{w} {h}\n".encode() + np.packbits(1 - bits, axis=1).tobytes()
    if form == "P6":
        rgb = np.repeat((white * 255).astype(np.uint8), 3, axis=1)
        return f"P6\n{w} {h}\n255\n".encode() + rgb.tobytes()
    raise ValueError(form)


@pytest.fixture()
def corpus(tmp_path):
    layout = compose_page(
        [
            (metrics(40), ["dipped", "help", "sauce"]),
            (metrics(40), ["drop", "tenth", "noon"]),
        ],
        width=900,
    )
    page = tmp_path / "page1.pgm"
    page.write_bytes(page_to_pgm(layout))
    index_path = tmp_path / "corpus.wsidx"
    assert main(["index", str(page), "--out", str(index_path)]) == 0
    return layout, page, index_path


class TestIndexCommand:
    def test_builds_index_and_prints_counts(self, tmp_path, capsys):
        layout = compose_page([(metrics(40), ["dipped", "cat"])], width=600)
        p1 = tmp_path / "a.pgm"
        p1.write_bytes(page_to_pgm(layout))
        p2 = tmp_path / "b.pgm"
        p2.write_bytes(page_to_pgm(layout))
        out = tmp_path / "idx.wsidx"

        assert main(["index", str(p1), str(p2), "--out", str(out)]) == 0
        printed = capsys.readouterr().out.strip().splitlines()
        assert printed[-1] == "TOTAL 4"
        index = load_index(out.read_bytes())
        assert [d.doc_id for d in index.docs] == ["a", "b"]
        assert len(index.records) == 4

    def test_duplicate_stems_get_distinct_ids(self, tmp_path, capsys):
        layout = compose_page([(metrics(40), ["dipped"])], width=400)
        d1 = tmp_path / "one"
        d2 = tmp_path / "two"
        d1.mkdir()
        d2.mkdir()
        (d1 / "page.pgm").write_bytes(page_to_pgm(layout))
        (d2 / "page.pgm").write_bytes(page_to_pgm(layout))
        out = tmp_path / "idx.wsidx"
        assert main(["index", str(d1 / "page.pgm"), str(d2 / "page.pgm"),
                     "--out", str(out)]) == 0
        index = load_index(out.read_bytes())
        assert [d.doc_id for d in index.docs] == ["page", "page-2"]

    def test_malformed_image_exits_2_without_partial_index(self, tmp_path, capsys):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P9 not an image")
        out = tmp_path / "idx.wsidx"
        assert main(["index", str(bad), "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "bad.pgm" in err and "offset" in err

    def test_failed_rebuild_keeps_previous_index(self, tmp_path, capsys):
        layout = compose_page([(metrics(40), ["dipped"])], width=400)
        good = tmp_path / "good.pgm"
        good.write_bytes(page_to_pgm(layout))
        out = tmp_path / "idx.wsidx"
        assert main(["index", str(good), "--out", str(out)]) == 0
        before = out.read_bytes()
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P2\n1 1\n255")
        assert main(["index", str(bad), "--out", str(out)]) == 2
        assert out.read_bytes() == before

    def test_missing_input_file_exits_3(self, tmp_path):
        assert main(["index", str(tmp_path / "nope.pgm"),
                     "--out", str(tmp_path / "idx.wsidx")]) == 3

    @pytest.mark.parametrize("part", ["empty", "header", "half raster"])
    def test_page_that_does_not_parse_exits_2_naming_file_and_offset(
        self, tmp_path, capsys, part
    ):
        # The bad page comes after a good one, which was already segmented.
        layout = compose_page([(metrics(40), ["dipped"])], width=400)
        good = tmp_path / "good.pgm"
        good.write_bytes(page_to_pgm(layout))
        img = layout.image
        header = f"P5\n{img.width} {img.height}\n255\n".encode()
        data = {
            "empty": b"",
            "header": header,
            "half raster": header + bytes(img.width * img.height // 2),
        }[part]
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(data)
        out = tmp_path / "idx.wsidx"
        assert main(["index", str(good), str(bad), "--out", str(out)]) == 2
        assert list(tmp_path.glob("idx.wsidx*")) == []
        err = capsys.readouterr().err
        assert f"wordspot: {bad}: " in err
        assert f"(byte offset {len(data)})" in err

    def test_directory_as_page_exits_3(self, tmp_path, capsys):
        layout = compose_page([(metrics(40), ["dipped"])], width=400)
        good = tmp_path / "good.pgm"
        good.write_bytes(page_to_pgm(layout))
        folder = tmp_path / "folder.pgm"
        folder.mkdir()
        out = tmp_path / "idx.wsidx"
        assert main(["index", str(good), str(folder), "--out", str(out)]) == 3
        assert list(tmp_path.glob("idx.wsidx*")) == []
        assert "folder.pgm" in capsys.readouterr().err

    def test_blank_page_indexes_zero_words(self, tmp_path, capsys):
        gray = GrayImage(50, 40, 255, np.full((40, 50), 255, dtype=np.uint16))
        p = tmp_path / "blank.pgm"
        p.write_bytes(write_gray(gray))
        out = tmp_path / "idx.wsidx"
        assert main(["index", str(p), "--out", str(out)]) == 0
        assert capsys.readouterr().out.strip().splitlines()[-1] == "TOTAL 0"
        index = load_index(out.read_bytes())
        assert index.records == [] and len(index.docs) == 1


class TestQueryCommand:
    def test_one_shot_output_block(self, corpus, capsys):
        layout, page, index_path = corpus
        assert main(["query", str(index_path), "help"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == "Q help"
        assert lines[-1].startswith("COUNT ")
        top = lines[1].split()
        assert top[0] == "0" and top[1] == "page1"
        box = layout.boxes[0][1]
        assert [int(v) for v in top[4:]] == [box.x1, box.y1, box.x2, box.y2]

    def test_zero_matches_exits_0_with_count(self, corpus, capsys):
        layout, page, index_path = corpus
        assert main(["query", str(index_path), "quest"]) == 0
        out = capsys.readouterr().out
        assert out == "Q quest\nCOUNT 0\n"

    def test_stdin_batch_matches_one_shot_bytes(self, corpus, capsys, monkeypatch):
        layout, page, index_path = corpus
        expected = ""
        for text in ("help", "drop"):
            assert main(["query", str(index_path), text]) == 0
            expected += capsys.readouterr().out
        monkeypatch.setattr("sys.stdin", io.StringIO("help\ndrop\n"))
        assert main(["query", str(index_path), "--stdin"]) == 0
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("font_line", [b"K 30", b"K 060", b"K 0"])
    def test_index_writes_k_60_and_any_other_k_exits_2(
        self, corpus, tmp_path, capsys, font_line
    ):
        # Every index file is written at the reference font 60, so line 2
        # is exactly `K 60`, checked as the header is.
        layout, page, index_path = corpus
        text = index_text(index_path.read_bytes())
        assert text.split(b"\n")[1] == b"K 60"
        other = tmp_path / "other.wsidx"
        other.write_bytes(index_file(text.replace(b"\nK 60\n", b"\n" + font_line + b"\n", 1)))
        for argv in (["query", str(other), "help"], ["inspect", str(other), "--what", "words"]):
            assert main(argv) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err == (f"wordspot: {other}: expected reference font line 'K 60', "
                           f"got {font_line.decode()!r} (line 2)\n")

    def test_stdin_with_no_lines(self, corpus, capsys, monkeypatch):
        layout, page, index_path = corpus
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        assert main(["query", str(index_path), "--stdin"]) == 0
        assert capsys.readouterr().out == ""

    def test_unsupported_character_exits_4(self, corpus, capsys):
        layout, page, index_path = corpus
        assert main(["query", str(index_path), "a1"]) == 4
        assert "'1'" in capsys.readouterr().err

    def test_missing_index_exits_3(self, tmp_path):
        assert main(["query", str(tmp_path / "none.wsidx"), "help"]) == 3

    def test_garbage_index_exits_2(self, tmp_path):
        bad = tmp_path / "bad.wsidx"
        bad.write_bytes(index_file(b"WSIDX 7\nK 60\njunk line\n"))
        assert main(["query", str(bad), "help"]) == 2

    def test_missing_page_file_exits_3(self, corpus, capsys):
        layout, page, index_path = corpus
        page.unlink()
        assert main(["query", str(index_path), "help"]) == 3
        assert "page1" in capsys.readouterr().err

    def test_replaced_page_of_other_size_exits_3(self, corpus, capsys):
        layout, page, index_path = corpus
        small = GrayImage(10, 10, 255, np.full((10, 10), 255, dtype=np.uint16))
        page.write_bytes(write_gray(small))
        capsys.readouterr()
        assert main(["query", str(index_path), "help"]) == 3
        err = capsys.readouterr().err
        assert "page1" in err
        assert "page is 10x10" in err

    def test_replaced_page_of_same_size_without_ink_exits_3(self, corpus, capsys):
        layout, page, index_path = corpus
        img = layout.image
        blank = GrayImage(img.width, img.height, 255,
                          np.full((img.height, img.width), 255, dtype=np.uint16))
        page.write_bytes(write_gray(blank))
        capsys.readouterr()
        assert main(["query", str(index_path), "help"]) == 3
        err = capsys.readouterr().err
        assert "'page1'" in err
        # The first candidate in record order, "dipped", is named.
        b = layout.boxes[0][0]
        assert f"no ink in word box {b.x1} {b.y1} {b.x2} {b.y2} (line 0, word 0)" in err

        # With "dipped" inked again, the next candidate, "help", is named.
        pixels = blank.pixels.copy()
        box = layout.boxes[0][0]
        pixels[box.y1 : box.y2 + 1, box.x1 : box.x2 + 1] = (
            img.bits[box.y1 : box.y2 + 1, box.x1 : box.x2 + 1] * 255
        )
        page.write_bytes(write_gray(GrayImage(img.width, img.height, 255, pixels)))
        assert main(["query", str(index_path), "help"]) == 3
        b = layout.boxes[0][1]
        assert (
            f"no ink in word box {b.x1} {b.y1} {b.x2} {b.y2} (line 0, word 1) "
            "recorded by the index" in capsys.readouterr().err
        )

    def test_inkless_box_reported_before_a_later_page_is_loaded(self, tmp_path, capsys):
        layout = compose_page([(metrics(40), ["dipped", "help", "sauce"])], width=900)
        p1, p2 = tmp_path / "p1.pgm", tmp_path / "p2.pgm"
        p1.write_bytes(page_to_pgm(layout))
        p2.write_bytes(page_to_pgm(layout))
        index_path = tmp_path / "two.wsidx"
        assert main(["index", str(p1), str(p2), "--out", str(index_path)]) == 0
        img = layout.image
        p1.write_bytes(page_in_format(np.ones_like(img.bits), "P5"))
        p2.unlink()
        capsys.readouterr()
        assert main(["query", str(index_path), "help"]) == 3
        err = capsys.readouterr().err
        b = layout.boxes[0][0]
        assert "'p1'" in err and "p2" not in err
        assert f"no ink in word box {b.x1} {b.y1} {b.x2} {b.y2} (line 0, word 0)" in err

    @pytest.mark.parametrize("part", ["empty", "header", "half raster"])
    def test_replaced_page_that_does_not_parse_exits_2_naming_file_and_offset(
        self, corpus, capsys, part
    ):
        layout, page, index_path = corpus
        img = layout.image
        header = f"P5\n{img.width} {img.height}\n255\n".encode()
        data = {
            "empty": b"",
            "header": header,
            "half raster": header + bytes(img.width * img.height // 2),
        }[part]
        page.write_bytes(data)
        capsys.readouterr()
        assert main(["query", str(index_path), "help"]) == 2
        err = capsys.readouterr().err
        assert f"wordspot: {page}: " in err
        assert f"(byte offset {len(data)})" in err

    def test_page_replaced_by_a_directory_exits_3(self, corpus, capsys):
        layout, page, index_path = corpus
        page.unlink()
        page.mkdir()
        capsys.readouterr()
        assert main(["query", str(index_path), "help"]) == 3
        assert "page1" in capsys.readouterr().err

    @pytest.fixture()
    def relative_corpus(self, tmp_path, monkeypatch, capsys):
        """An index in `books/` that records its page as `scans/page.pgm`,
        relative to that directory; the query then runs from `elsewhere/`,
        with the query's stdout from `books/`."""
        layout = compose_page([(metrics(40), ["dipped", "help", "sauce"])], width=900)
        books = tmp_path / "books"
        (books / "scans").mkdir(parents=True)
        page = books / "scans" / "page.pgm"
        page.write_bytes(page_to_pgm(layout))
        monkeypatch.chdir(books)
        assert main(["index", "scans/page.pgm", "--out", "books.wsidx"]) == 0
        capsys.readouterr()
        assert main(["query", "books.wsidx", "help"]) == 0
        expected = capsys.readouterr().out
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        return books / "books.wsidx", page, elsewhere, expected

    def test_relative_page_found_next_to_the_index_from_another_directory(
        self, relative_corpus, capsys
    ):
        index_path, page, elsewhere, expected = relative_corpus
        assert "COUNT 0" not in expected
        assert main(["query", str(index_path), "help"]) == 0
        assert capsys.readouterr().out == expected

    def test_recorded_path_under_a_regular_file_falls_through(self, relative_corpus, capsys):
        # Opening `scans/page.pgm` from here fails with NotADirectoryError.
        index_path, page, elsewhere, expected = relative_corpus
        (elsewhere / "scans").write_bytes(b"not a directory")
        assert main(["query", str(index_path), "help"]) == 0
        assert capsys.readouterr().out == expected

    def test_recorded_and_index_relative_paths_missing_exit_3(self, relative_corpus, capsys):
        index_path, page, elsewhere, expected = relative_corpus
        page.unlink()
        assert main(["query", str(index_path), "help"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "page file 'scans/page.pgm' not found" in captured.err

    def test_recorded_path_that_is_a_directory_exits_3(self, relative_corpus, capsys):
        # A directory at the recorded path is no missing page: the page next
        # to the index is not tried.
        index_path, page, elsewhere, expected = relative_corpus
        (elsewhere / "scans" / "page.pgm").mkdir(parents=True)
        assert main(["query", str(index_path), "help"]) == 3
        assert "Is a directory: 'scans/page.pgm'" in capsys.readouterr().err

    def test_query_output_same_for_every_page_format(self, corpus, capsys):
        layout, page, index_path = corpus
        outputs = {}
        for form in ("P5", "P5-16", "P2", "P4", "P6"):
            page.write_bytes(page_in_format(layout.image.bits, form))
            capsys.readouterr()
            for text in ("help", "dipped", "noon"):
                assert main(["query", str(index_path), text, "--threshold", "4"]) == 0
            outputs[form] = capsys.readouterr().out
        assert outputs["P5"].count("COUNT") == 3 and "COUNT 0" not in outputs["P5"]
        assert all(out == outputs["P5"] for out in outputs.values()), outputs

    def test_record_box_outside_its_page_exits_2_naming_the_line(self, corpus, capsys):
        layout, page, index_path = corpus
        lines = index_text(index_path.read_bytes()).decode().splitlines()
        # Line 6 is the record of "help": DOC, L, then the line's words.
        # Move its box past the page's last column, keeping its width.
        assert [line.split(" ")[0] for line in lines[2:4]] == ["DOC", "L"]
        assert all(line[0].isdigit() for line in lines[4:6])
        fields = lines[5].split(" ")
        fields[0] = str(layout.image.width - 5)
        lines[5] = " ".join(fields)
        index_path.write_bytes(index_file("\n".join(lines) + "\n"))
        capsys.readouterr()
        assert main(["query", str(index_path), "help"]) == 2
        err = capsys.readouterr().err
        assert "outside its page" in err
        assert "(line 6)" in err

    def test_page_name_that_is_not_utf8_indexes_and_queries(self, corpus, tmp_path, capsys):
        layout, page, index_path = corpus
        odd = tmp_path / os.fsdecode(b"a\xff.pgm")
        odd.write_bytes(page.read_bytes())
        assert main(["index", str(odd), "--out", str(index_path)]) == 0
        capsys.readouterr()
        assert main(["query", str(index_path), "help"]) == 0
        top = capsys.readouterr().out.splitlines()[1].split()
        box = layout.boxes[0][1]
        assert top[:2] == ["0", "a\\xff"]
        assert [int(v) for v in top[4:]] == [box.x1, box.y1, box.x2, box.y2]

    def test_usage_errors(self, corpus, capsys, monkeypatch):
        layout, page, index_path = corpus
        assert main(["query", str(index_path)]) == 1
        assert main(["query", str(index_path), "help", "--stdin"]) == 1
        monkeypatch.setattr("sys.stdin", io.StringIO("help\n"))
        assert main(["query", str(index_path), "--stdin",
                     "--annotate", "out.pgm"]) == 1
        # Shape tokens are made one way only: their parameters are no flags.
        for flag in ("--valley-slack", "--zone-fraction"):
            assert main(["query", str(index_path), "help", flag, "1"]) == 1
            assert main(["inspect", str(page), "--what", "wst", flag, "1"]) == 1

    def test_bad_flag_domains_are_usage_errors(self, corpus, capsys):
        layout, page, index_path = corpus
        assert main(["query", str(index_path), "help", "--threshold", "-1"]) == 1

    @pytest.mark.parametrize("command,flag,value", [("index", "--ref-font", "60"),
                                                    ("query", "--char-width", "40")])
    def test_size_scale_is_no_option(self, corpus, tmp_path, capsys, command, flag, value):
        # The reference font and the character width are constants.
        layout, page, index_path = corpus
        out = tmp_path / "x.wsidx"
        argv = {
            "index": ["index", str(page), "--out", str(out)],
            "query": ["query", str(index_path), "help"],
        }[command]
        assert main(argv + [flag, value]) == 1
        assert list(tmp_path.glob("x.wsidx*")) == []
        captured = capsys.readouterr()
        assert flag in captured.err and captured.out == ""

    def test_bad_threshold_fails_an_empty_batch(self, corpus, capsys, monkeypatch):
        layout, page, index_path = corpus
        monkeypatch.setattr("sys.stdin", io.StringIO("\n"))
        assert main(["query", str(index_path), "--stdin", "--threshold", "nan"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "threshold must be >= 0, got nan" in captured.err

    def test_page_size_no_page_file_can_have_exits_2(self, corpus, tmp_path, capsys):
        # Refused when the index loads, before a query sizes arrays for it.
        layout, page, index_path = corpus
        lines = index_text(index_path.read_bytes()).decode().split("\n")
        doc = lines[2].split(" ")
        lines[2] = " ".join(doc[:3] + ["2000000000", doc[4]])
        wide = tmp_path / "wide.wsidx"
        wide.write_bytes(index_file("\n".join(lines)))
        assert main(["query", str(wide), "help"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (f"wide.wsidx: doc 0: page size 2000000000x{doc[4]} outside 1..1000000 per "
                f"side or above 100000000 pixels (line 3)") in captured.err

    @pytest.mark.parametrize("command", ["index", "inspect"])
    def test_gap_factor_is_no_option(self, corpus, tmp_path, capsys, command):
        layout, page, index_path = corpus
        out = tmp_path / "x.wsidx"
        argv = {
            "index": ["index", str(page), "--out", str(out)],
            "inspect": ["inspect", str(page), "--what", "words"],
        }[command]
        assert main(argv + ["--gap-factor", "0.3"]) == 1
        assert list(tmp_path.glob("x.wsidx*")) == []
        captured = capsys.readouterr()
        assert "--gap-factor" in captured.err and captured.out == ""

    @pytest.mark.parametrize("threshold", ["-1", "nan"])
    def test_bad_threshold_exits_1_before_the_index_is_read(self, tmp_path, capsys, threshold):
        # Checked with the other usage checks, so a missing index does not
        # turn it into an I/O error.
        missing = tmp_path / "missing.wsidx"
        assert main(["query", str(missing), "foo", "--threshold", threshold]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"threshold must be >= 0, got {float(threshold)}" in captured.err

    def test_nan_threshold_exits_1(self, corpus, capsys):
        layout, page, index_path = corpus
        assert main(["query", str(index_path), "help", "--threshold", "nan"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "threshold must be >= 0, got nan" in captured.err


class TestAnnotate:
    def assert_ring_drawn(self, original_bits, annotated, box):
        base = original_bits.astype(np.uint16) * 255
        changed = np.argwhere(annotated.pixels != base)
        assert len(changed) > 0
        for y, x in changed:
            assert annotated.pixels[y, x] == 0
            inside_ring = (
                box.x1 - 2 <= x <= box.x2 + 2
                and box.y1 - 2 <= y <= box.y2 + 2
                and not (box.x1 <= x <= box.x2 and box.y1 <= y <= box.y2)
            )
            assert inside_ring, (y, x)

    def test_query_annotate_writes_ringed_page(self, corpus, capsys, tmp_path):
        layout, page, index_path = corpus
        out = tmp_path / "hits.pgm"
        assert main(["query", str(index_path), "help", "--threshold", "0",
                     "--annotate", str(out)]) == 0
        annotated = load_image(out.read_bytes())
        box = layout.boxes[0][1]
        self.assert_ring_drawn(layout.image.bits, annotated, box)

    def test_query_annotate_prints_the_query_output(self, corpus, capsys, tmp_path):
        layout, page, index_path = corpus
        capsys.readouterr()
        assert main(["query", str(index_path), "help"]) == 0
        plain = capsys.readouterr().out
        out = tmp_path / "hits.pgm"
        assert main(["query", str(index_path), "help", "--annotate", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert stdout.startswith("Q help\n") and stdout == plain
        assert out.exists()

    def test_annotate_is_no_subcommand(self, corpus, capsys, tmp_path):
        layout, page, index_path = corpus
        out = tmp_path / "hits.pgm"
        assert main(["annotate", str(index_path), "help", "--out", str(out)]) == 1
        assert "invalid choice: 'annotate'" in capsys.readouterr().err
        assert not out.exists()

    def test_no_matches_no_file(self, corpus, tmp_path):
        layout, page, index_path = corpus
        out = tmp_path / "hits.pgm"
        assert main(["query", str(index_path), "quest",
                     "--annotate", str(out)]) == 0
        assert not out.exists()

    def test_matches_on_two_pages_write_per_doc_files(self, tmp_path, capsys):
        layout = compose_page([(metrics(40), ["dipped", "help", "sauce"])],
                              width=900)
        data = page_to_pgm(layout)
        p1 = tmp_path / "p1.pgm"
        p2 = tmp_path / "p2.pgm"
        p1.write_bytes(data)
        p2.write_bytes(data)
        index_path = tmp_path / "two.wsidx"
        assert main(["index", str(p1), str(p2), "--out", str(index_path)]) == 0
        out = tmp_path / "hits.pgm"
        assert main(["query", str(index_path), "help", "--threshold", "0",
                     "--annotate", str(out)]) == 0
        assert not out.exists()
        assert (tmp_path / "hits.p1.pgm").exists()
        assert (tmp_path / "hits.p2.pgm").exists()

    def test_doc_ids_with_slash_or_nul_name_escaped_files(self, tmp_path, capsys):
        # The index format allows any doc id; `/` and NUL stay encoded in
        # the annotated file names.
        layout = compose_page([(metrics(40), ["dipped", "help", "sauce"])],
                              width=900)
        data = page_to_pgm(layout)
        p1 = tmp_path / "p1.pgm"
        p2 = tmp_path / "p2.pgm"
        p1.write_bytes(data)
        p2.write_bytes(data)
        index_path = tmp_path / "two.wsidx"
        assert main(["index", str(p1), str(p2), "--out", str(index_path)]) == 0
        text = index_text(index_path.read_bytes()).decode()
        text = text.replace("DOC p1 ", "DOC a%2Fb ").replace("DOC p2 ", "DOC c%00d ")
        index_path.write_bytes(index_file(text))
        out = tmp_path / "hits.pgm"
        assert main(["query", str(index_path), "help", "--annotate", str(out)]) == 0
        assert sorted(path.name for path in tmp_path.glob("hits.*")) == [
            "hits.a%2Fb.pgm", "hits.c%00d.pgm"
        ]

    def test_doc_ids_that_differ_by_escapes_write_distinct_files(self, tmp_path, capsys):
        # Ids `a/b` and `a%2Fb` (`a%2Fb` and `a%252Fb` in the index file):
        # `%` is escaped too, so the second page does not overwrite the first.
        layout = compose_page([(metrics(40), ["dipped", "help", "sauce"])],
                              width=900)
        data = page_to_pgm(layout)
        p1 = tmp_path / "p1.pgm"
        p2 = tmp_path / "p2.pgm"
        p1.write_bytes(data)
        p2.write_bytes(data)
        index_path = tmp_path / "two.wsidx"
        assert main(["index", str(p1), str(p2), "--out", str(index_path)]) == 0
        text = index_text(index_path.read_bytes()).decode()
        text = text.replace("DOC p1 ", "DOC a%2Fb ").replace("DOC p2 ", "DOC a%252Fb ")
        index_path.write_bytes(index_file(text))
        out = tmp_path / "hits.pgm"
        assert main(["query", str(index_path), "help", "--annotate", str(out)]) == 0
        assert sorted(path.name for path in tmp_path.glob("hits.*")) == [
            "hits.a%252Fb.pgm", "hits.a%2Fb.pgm"
        ]


class TestInspect:
    def test_rows_on_blank_image(self, tmp_path, capsys):
        gray = GrayImage(4, 2, 255, np.full((2, 4), 255, dtype=np.uint16))
        p = tmp_path / "blank.pgm"
        p.write_bytes(write_gray(gray))
        assert main(["inspect", str(p), "--what", "rows"]) == 0
        assert capsys.readouterr().out == "0 0\n"

    def test_words_matches_library_output(self, corpus, capsys):
        layout, page, index_path = corpus
        assert main(["inspect", str(page), "--what", "words"]) == 0
        printed = capsys.readouterr().out.strip().splitlines()
        img = layout.image
        expected = []
        starts, ends = segment_lines(row_profile(img), default_noise_threshold(img.width))
        for _, x1, y1, x2, y2 in segment_words(img, starts, ends).tolist():
            expected.append(f"{x1} {y1} {x2} {y2}")
        assert printed == expected

    def test_wst_single_word(self, tmp_path, capsys):
        layout = compose_page([(metrics(40), ["dip"])], width=300)
        p = tmp_path / "word.pgm"
        p.write_bytes(page_to_pgm(layout))
        assert main(["inspect", str(p), "--what", "wst"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out == ["Axg"]

    def test_zones_quadruples(self, corpus, capsys):
        layout, page, index_path = corpus
        assert main(["inspect", str(page), "--what", "zones"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        for line in lines:
            start, end, top, bottom = (int(v) for v in line.split())
            assert start <= top <= bottom <= end

    def test_index_lines_and_query_tokens_equal_inspect_output(self, tmp_path, capsys):
        layout = compose_page(
            [
                (metrics(40), ["dipped", "help", "sauce"]),
                (metrics(30), ["drop", "tenth", "noon", "quill"]),
                (metrics(50), ["yellow", "bright"]),
            ],
            width=1200,
        )
        page = tmp_path / "page.pgm"
        page.write_bytes(page_to_pgm(layout))
        index_path = tmp_path / "page.wsidx"
        assert main(["index", str(page), "--out", str(index_path)]) == 0
        assert main(["inspect", str(page), "--what", "zones"]) == 0
        assert main(["inspect", str(page), "--what", "wst"]) == 0
        assert main(["inspect", str(index_path), "--what", "zones"]) == 0
        out = capsys.readouterr().out.splitlines()
        zones, tokens, index_zones = out[6:9], out[9:18], out[18:]

        # An L line holds its first row as the gap after the previous line's
        # last, its height and the body's insets from its first and last rows.
        text = index_text(index_path.read_bytes()).decode()
        index_lines = [[int(v) for v in line.split()[1:]]
                       for line in text.splitlines() if line.startswith("L ")]
        next_row, file_zones = 0, []
        for gap, h, top, bottom in index_lines:
            y = next_row + gap
            file_zones.append(f"{y} {y + h - 1} {y + top} {y + h - 1 - bottom}")
            next_row = y + h
        assert file_zones == zones
        assert index_zones == zones
        index = load_index(index_path.read_bytes())
        image = binarize(load_image(page.read_bytes()))
        for n in range(1, 20):
            search(index, lambda doc: image, "x" * n, threshold=0)
        assert [rec.wst for rec in index.records] == tokens

    def test_index_input_words(self, corpus, capsys):
        layout, page, index_path = corpus
        assert main(["inspect", str(index_path), "--what", "words"]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 6

    def test_index_input_wst_prints_a_dash_per_word(self, corpus, capsys):
        layout, page, index_path = corpus
        assert main(["query", str(index_path), "help"]) == 0
        capsys.readouterr()
        assert main(["inspect", str(index_path), "--what", "wst"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == ["-"] * 6  # no index file holds a token, queried or not

    def test_index_and_inspect_build_no_record(self, corpus, capsys, monkeypatch):
        # Both print the index's tables and tokens as they are: only a
        # query's matches become WordRecord objects.
        layout, page, index_path = corpus

        def refuse(self, position):
            raise AssertionError("a record was built")

        monkeypatch.setattr(WordIndex, "record", refuse)
        assert main(["index", str(page), "--out", str(index_path)]) == 0
        for what in ("lines", "zones", "words", "wst"):
            assert main(["inspect", str(index_path), "--what", what]) == 0
            assert main(["inspect", str(page), "--what", what]) == 0

    def test_index_input_rows_is_usage_error(self, corpus, capsys):
        layout, page, index_path = corpus
        assert main(["inspect", str(index_path), "--what", "rows"]) == 1

    def test_unknown_what_is_usage_error(self, corpus, capsys):
        layout, page, index_path = corpus
        assert main(["inspect", str(page), "--what", "everything"]) == 1


class TestBadInputNamesTheFile:
    @pytest.mark.parametrize(
        "argv",
        [
            ["query", "{index}", "help"],
            ["query", "{index}", "--stdin"],
            ["query", "{index}", "help", "--annotate", "{out}"],
            ["inspect", "{index}", "--what", "words"],
            ["inspect", "{index}", "--what", "wst"],
        ],
    )
    def test_bad_index_exits_2_naming_file_and_line(self, tmp_path, capsys, monkeypatch, argv):
        bad = tmp_path / "bad.wsidx"
        bad.write_bytes(index_file(b"WSIDX 7\nK 60\nX what\n"))
        monkeypatch.setattr("sys.stdin", io.StringIO("help\n"))
        out = tmp_path / "out.pgm"
        assert main([arg.format(index=bad, out=out) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"wordspot: {bad}: unknown line kind 'X' (line 3)\n"
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize(
        "argv", [["query", "{index}", "help"], ["inspect", "{index}", "--what", "words"]]
    )
    @pytest.mark.parametrize(
        "data",
        [
            # Version 3 wrote absolute rows and columns and `-` for no token.
            b"WSIDX 3\nK 60\nDOC a a.pgm 100 50\nL 0 20 5 15\nW 1 2 30 11 -\n",
            # Version 4 tagged each word line `W` and gave a box's rows and
            # a body band as an offset plus a height.
            b"WSIDX 4\nK 60\nDOC a a.pgm 100 50\nL 0 21 5 11\nW 1 2 30 10\n",
            # Version 5 gave a line's first row and a box's first column as
            # absolute numbers.
            b"WSIDX 5\nK 60\nDOC a a.pgm 100 50\nL 30 20 5 5\n1 2 30 9\n60 2 30 9\n",
            # Version 6 was the text version 7 compresses.
            b"WSIDX 6\nK 60\nDOC a a.pgm 100 50\nL 0 21 5 5\n1 2 30 9\n29 2 30 9\n",
        ],
        ids=["version 3", "version 4", "version 5", "version 6"],
    )
    def test_older_uncompressed_index_exits_2_saying_rebuild(self, tmp_path, capsys, argv, data):
        # Every version before 7 was uncompressed text, which `inspect` does
        # not take for a page either.
        old = tmp_path / "old.wsidx"
        old.write_bytes(data)
        assert main([arg.format(index=old) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"wordspot: {old}: older uncompressed index file; rebuild it "
                                "with `wordspot index` (line 1)\n")
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv", [["query", "{index}", "help"], ["inspect", "{index}", "--what", "words"]]
    )
    @pytest.mark.parametrize("what", ["current text", "not an index"])
    def test_file_that_is_no_gzip_member_exits_2_naming_line_1(
        self, corpus, tmp_path, capsys, argv, what
    ):
        # The text of a current index, as `gzip -dc` prints it, is no index
        # file; nor is a file that is neither an index nor a page, which
        # `inspect` takes for an index as it does not start with `P`.
        layout, page, index_path = corpus
        bad = tmp_path / "bad.wsidx"
        bad.write_bytes(index_text(index_path.read_bytes()) if what == "current text"
                        else b"\x89PNG\r\n\x1a\n")
        capsys.readouterr()
        assert main([arg.format(index=bad) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"wordspot: {bad}: not a gzip member: an index file is its text "
                                "in one gzip member, which starts with bytes 1f 8b (line 1)\n")
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv", [["query", "{index}", "help"], ["inspect", "{index}", "--what", "words"]]
    )
    @pytest.mark.parametrize(
        "damage,bound,message",
        [
            (lambda data: data[:-4], MAX_INDEX_TEXT, "truncated gzip member"),
            (lambda data: data[:-8] + bytes([data[-8] ^ 1]) + data[-7:], MAX_INDEX_TEXT,
             "corrupt gzip member"),
            (lambda data: data + b"\n", MAX_INDEX_TEXT, "bytes after the gzip member"),
            (lambda data: data + data, MAX_INDEX_TEXT, "bytes after the gzip member"),
            # The bound is lowered, so that no test makes a gibibyte of text.
            (lambda data: data, 100, "index text longer than 100 bytes"),
        ],
        ids=["truncated", "corrupt CRC-32", "a byte after", "a second member", "over the bound"],
    )
    def test_damaged_or_oversized_gzip_member_exits_2_naming_line_1(
        self, corpus, capsys, monkeypatch, argv, damage, bound, message
    ):
        layout, page, index_path = corpus
        index_path.write_bytes(damage(index_path.read_bytes()))
        monkeypatch.setattr(index_mod, "MAX_INDEX_TEXT", bound)
        capsys.readouterr()
        assert main([arg.format(index=index_path) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"wordspot: {index_path}: {message} (line 1)\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv", [["query", "{index}", "help"], ["inspect", "{index}", "--what", "zones"]]
    )
    @pytest.mark.parametrize(
        "row,line_no,message",
        [
            # The line holds rows 0..20; insets that meet or cross leave
            # its body or its box no rows.
            ("L 0 21 11 10", 4, "line 0: body rows 11..10 outside its band"),
            ("L 0 21 21 0", 4, "line 0: body rows 21..20 outside its band"),
            ("1 12 30 9", 5, "record 0: degenerate box 1 12 30 11"),
            ("1 0 30 21", 5, "record 0: degenerate box 1 0 30 -1"),
        ],
    )
    def test_insets_that_empty_a_body_or_box_exit_2_naming_the_line(
        self, tmp_path, capsys, argv, row, line_no, message
    ):
        lines = ["WSIDX 7", "K 60", "DOC a a.pgm 100 50", "L 0 21 5 5", "1 2 30 9"]
        lines[line_no - 1] = row
        bad = tmp_path / "bad.wsidx"
        bad.write_bytes(index_file("\n".join(lines) + "\n"))
        assert main([arg.format(index=bad) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"wordspot: {bad}: {message} (line {line_no})\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv", [["query", "{index}", "help"], ["inspect", "{index}", "--what", "wst"]]
    )
    def test_word_row_with_a_token_exits_2_naming_file_and_line(self, tmp_path, capsys, argv):
        # No index file holds a shape token: a word row has four fields.
        bad = tmp_path / "bad.wsidx"
        bad.write_bytes(
            index_file("WSIDX 7\nK 60\nDOC a a.pgm 100 50\nL 0 21 5 5\n1 2 30 9 AxgA\n")
        )
        assert main([arg.format(index=bad) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"wordspot: {bad}: word line needs 4 fields, got 5 (line 5)\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv", [["query", "{index}", "help"], ["inspect", "{index}", "--what", "words"]]
    )
    @pytest.mark.parametrize(
        "row,line_no,message",
        [
            # The page is 100 columns wide and 50 rows high. Line 5's box
            # holds columns 1..30 and line 4's band rows 0..20; line 6 is a
            # second word, or a second line.
            ("70 2 30 9", 6, "record 1: box x 101..130, y 2..11 outside its page columns "
                             "0..99 or its line rows 0..20"),
            ("L 9 21 5 5", 6, "line 1: band 30..50 outside image rows 0..49"),
        ],
        ids=["box past the page's width", "line past the page's height"],
    )
    def test_gap_past_the_page_exits_2_naming_file_and_line(
        self, tmp_path, capsys, argv, row, line_no, message
    ):
        # A gap counts from the column after the line's previous word or the
        # row after the page's previous line, so it can take a box or a line
        # off its page.
        lines = ["WSIDX 7", "K 60", "DOC a a.pgm 100 50", "L 0 21 5 5", "1 2 30 9", row]
        bad = tmp_path / "bad.wsidx"
        bad.write_bytes(index_file("\n".join(lines) + "\n"))
        assert main([arg.format(index=bad) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"wordspot: {bad}: {message} (line {line_no})\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv", [["query", "{index}", "help"], ["inspect", "{index}", "--what", "lines"]]
    )
    @pytest.mark.parametrize(
        "doc,message",
        [
            # A query writes a doc id as one space-separated field of a
            # result line, so an id that would split it is refused.
            ("DOC a%20b a.pgm 100 50", "doc 0: doc_id 'a b' empty or holding whitespace"),
            ("DOC a%0A1%202 a.pgm 100 50",
             "doc 0: doc_id 'a\\n1 2' empty or holding whitespace"),
            ("DOC %E2%80%83 a.pgm 100 50",
             "doc 0: doc_id '\\u2003' empty or holding whitespace"),
            # No file-system path holds a NUL.
            ("DOC a a%00b.pgm 100 50", "doc 0: path 'a\\x00b.pgm' holding a NUL"),
        ],
        ids=["space in id", "line break in id", "em space id", "NUL in path"],
    )
    def test_doc_id_with_white_space_or_path_with_a_nul_exits_2_naming_line_3(
        self, tmp_path, capsys, argv, doc, message
    ):
        bad = tmp_path / "bad.wsidx"
        lines = ["WSIDX 7", "K 60", doc, "L 0 21 5 5", "1 2 30 9"]
        bad.write_bytes(index_file("\n".join(lines) + "\n"))
        assert main([arg.format(index=bad) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"wordspot: {bad}: {message} (line 3)\n"
        assert captured.out == ""

    def test_index_that_breaks_an_invariant_names_file_and_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.wsidx"
        bad.write_bytes(index_file(b"WSIDX 7\nK 60\nDOC a a.pgm 10 10\nDOC a a.pgm 10 10\n"))
        assert main(["query", str(bad), "help"]) == 2
        assert capsys.readouterr().err == (
            f"wordspot: {bad}: duplicate doc_id 'a' (line 4)\n"
        )

    @pytest.mark.parametrize("what", ["rows", "words"])
    def test_bad_page_exits_2_naming_file_and_offset(self, tmp_path, capsys, what):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P5\n4 4\n255\n" + bytes(3))
        assert main(["inspect", str(bad), "--what", what]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"wordspot: {bad}: ") and err.endswith("(byte offset 14)\n")


class TestEndToEndThroughFiles:
    def test_index_then_query_retrieval_page(self, tmp_path, capsys):
        from test_acceptance import retrieval_words_layout

        layout = retrieval_words_layout()
        page = tmp_path / "scan.pgm"
        page.write_bytes(page_to_pgm(layout))
        index_path = tmp_path / "scan.wsidx"
        assert main(["index", str(page), "--out", str(index_path)]) == 0
        capsys.readouterr()

        out = tmp_path / "found.pgm"
        assert main(["query", str(index_path), "transformation",
                     "--annotate", str(out)]) == 0
        stdout = capsys.readouterr().out.splitlines()
        assert stdout[0] == "Q transformation"
        assert stdout[-1] == "COUNT 1"
        distance, doc, line_idx, word_idx, x1, y1, x2, y2 = stdout[1].split()
        assert int(distance) <= 2 and doc == "scan"
        planted = None
        for li, line in enumerate(layout.words):
            for wi, text in enumerate(line):
                if text == "transformation":
                    planted = (li, wi, layout.boxes[li][wi])
        assert planted is not None
        assert (int(line_idx), int(word_idx)) == planted[:2]
        box = planted[2]
        assert (int(x1), int(y1), int(x2), int(y2)) == (box.x1, box.y1, box.x2, box.y2)
        assert out.exists()
        annotated = load_image(out.read_bytes())
        # border ring sits right outside the planted box
        assert annotated.pixels[box.y1 - 1, box.x1 - 1] == 0
        assert annotated.pixels[box.y2 + 2, box.x2 + 2] == 0


def test_readme_cli_block_names_every_option_and_inspect_view():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    (commands,) = [action for action in _build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    assert sorted(commands.choices) == ["index", "inspect", "query"]
    for name, command in commands.choices.items():
        assert f"wordspot {name} " in block, name
        for action in command._actions:
            for option in set(action.option_strings) - {"-h", "--help"}:
                assert re.search(rf"{option}\b", block), (name, option)
            if "--what" in action.option_strings:
                for choice in action.choices:
                    assert f"--what {choice} " in block, choice


@pytest.mark.parametrize(
    "flags,code,err",
    [
        ([], 3, "wordspot: [Errno 2] No such file or directory: 'missing.wsidx'\n"),
        (["--threshold", "-1"], 1, "wordspot: error: threshold must be >= 0, got -1.0\n"),
    ],
    ids=["missing index", "threshold below 0"],
)
def test_the_shell_gets_mains_exit_code(tmp_path, flags, code, err):
    # Every other test calls main in process; this one runs the module as a
    # process, so that `run` must hand main's code to the shell.
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    done = subprocess.run(
        [sys.executable, "-m", "wordspot.cli", "query", "missing.wsidx", "help", *flags],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (code, "", err)
