"""Command-line behavior: exit codes, output formats, atomicity, annotation."""

import io
import os

import numpy as np
import pytest

from glyphs import compose_page, metrics
from wordspot.cli import main
from wordspot.index import load_index
from wordspot.pnm import GrayImage, binarize, load_image, write_gray
from wordspot.search import SearchParams, search
from wordspot.segment import default_noise_threshold, row_profile, segment_lines, segment_words


def page_to_pgm(layout) -> bytes:
    bits = layout.image.bits
    gray = GrayImage(layout.image.width, layout.image.height, 255,
                     bits.astype(np.uint16) * 255)
    return write_gray(gray)


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
        bad.write_bytes(b"WSIDX 3\nK 60\njunk line\n")
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

    def test_record_box_outside_its_page_exits_2_naming_the_line(self, corpus, capsys):
        layout, page, index_path = corpus
        lines = index_path.read_text().splitlines()
        # Line 6 is the record of "help": DOC, L, then the line's words.
        # Move its box past the page's last row, keeping its height.
        assert [line.split(" ")[0] for line in lines[2:6]] == ["DOC", "L", "W", "W"]
        fields = lines[5].split(" ")
        height = int(fields[4]) - int(fields[2]) + 1
        y1 = layout.image.height - 5
        fields[2], fields[4] = str(y1), str(y1 + height - 1)
        lines[5] = " ".join(fields)
        index_path.write_text("\n".join(lines) + "\n")
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

    def test_bad_flag_domains_are_usage_errors(self, corpus, tmp_path, capsys):
        layout, page, index_path = corpus
        assert main(["query", str(index_path), "help", "--threshold", "-1"]) == 1
        assert main(["index", str(page), "--ref-font", "0",
                     "--out", str(tmp_path / "x.wsidx")]) == 1

    def test_ref_font_beyond_the_index_format_exits_1_without_a_file(
        self, corpus, tmp_path, capsys
    ):
        layout, page, index_path = corpus
        out = tmp_path / "x.wsidx"
        assert main(["index", str(page), "--ref-font", "2147483648", "--out", str(out)]) == 1
        assert list(tmp_path.glob("x.wsidx*")) == []
        assert "ref_font 2147483648 outside 1..2147483647" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_gap_factor_exits_1_naming_it(self, corpus, tmp_path, capsys, value):
        layout, page, index_path = corpus
        out = tmp_path / "x.wsidx"
        flag = f"--gap-factor={value}"
        assert main(["index", str(page), flag, "--out", str(out)]) == 1
        assert list(tmp_path.glob("x.wsidx*")) == []
        assert main(["inspect", str(page), "--what", "words", flag]) == 1
        assert capsys.readouterr().err.count(f"gap factor must be finite, got {value}") == 2

    def test_non_finite_gap_factor_exits_1_on_a_page_without_text(self, tmp_path, capsys):
        blank = tmp_path / "blank.pgm"
        blank.write_bytes(write_gray(GrayImage(20, 10, 255, np.full((10, 20), 255))))
        out = tmp_path / "b.wsidx"
        assert main(["index", str(blank), "--gap-factor=nan", "--out", str(out)]) == 1
        assert list(tmp_path.glob("b.wsidx*")) == []
        assert main(["inspect", str(blank), "--what", "words", "--gap-factor=nan"]) == 1
        assert capsys.readouterr().err.count("gap factor must be finite, got nan") == 2

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

    def test_annotate_subcommand_alias(self, corpus, capsys, tmp_path):
        layout, page, index_path = corpus
        out = tmp_path / "hits.pgm"
        assert main(["annotate", str(index_path), "help", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert stdout.startswith("Q help\n")
        assert out.exists()

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
        text = index_path.read_text()
        text = text.replace("DOC p1 ", "DOC a%2Fb ").replace("DOC p2 ", "DOC c%00d ")
        index_path.write_text(text)
        out = tmp_path / "hits.pgm"
        assert main(["annotate", str(index_path), "help", "--out", str(out)]) == 0
        assert sorted(path.name for path in tmp_path.glob("hits.*")) == [
            "hits.a%2Fb.pgm", "hits.c%00d.pgm"
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
        for band in segment_lines(row_profile(img), default_noise_threshold(img.width)):
            for box in segment_words(img, band):
                expected.append(f"{box.x1} {box.y1} {box.x2} {box.y2}")
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

        index_text = index_path.read_text().splitlines()
        assert [line[2:] for line in index_text if line.startswith("L ")] == zones
        assert index_zones == zones
        index = load_index(index_path.read_bytes())
        image = binarize(load_image(page.read_bytes()))
        for n in range(1, 20):
            search(index, lambda doc: image, "x" * n, SearchParams(threshold=0))
        assert [rec.wst for rec in index.records] == tokens

    def test_index_input_words(self, corpus, capsys):
        layout, page, index_path = corpus
        assert main(["inspect", str(index_path), "--what", "words"]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 6

    def test_index_input_wst_shows_cache_state(self, corpus, capsys):
        layout, page, index_path = corpus
        assert main(["inspect", str(index_path), "--what", "wst"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == ["-"] * 6  # fresh index: nothing cached yet

    def test_index_input_rows_is_usage_error(self, corpus, capsys):
        layout, page, index_path = corpus
        assert main(["inspect", str(index_path), "--what", "rows"]) == 1

    def test_unknown_what_is_usage_error(self, corpus, capsys):
        layout, page, index_path = corpus
        assert main(["inspect", str(page), "--what", "everything"]) == 1


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
