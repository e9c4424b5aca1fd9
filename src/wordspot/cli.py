"""Command-line front end.

Commands:
  index     build a word index from NetPBM page images
  query     run one text query (or a stdin batch) against an index
  annotate  query and write annotated page copies with match boxes
  inspect   dump pipeline intermediates for debugging

Exit codes: 0 success, 1 usage, 2 input parse, 3 I/O, 4 unsupported query
character.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np

from .index import (
    DEFAULT_REF_FONT,
    DocEntry,
    IndexFormatError,
    SizeClass,
    WordIndex,
    build_index,
    load_index,
    save_index,
)
from .pnm import GrayImage, PnmError, binarize, load_image, rescale_to_255, write_gray
from .search import (
    DEFAULT_CHAR_WIDTH,
    DEFAULT_THRESHOLD,
    MissingPageError,
    SearchParams,
    encode_missing,
    format_result,
    search,
)
from .segment import DEFAULT_GAP_FACTOR, LineBand, WordBox, column_profile, row_profile
from .shapecode import UnsupportedCharacterError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_IO = 3
EXIT_QUERY = 4

BORDER_THICKNESS = 2

# In an annotated file's name, a doc id's `/` and NUL, which no file name can
# hold, are percent-encoded as in the index file.
_NAME_ESCAPES = str.maketrans({"/": "%2F", "\0": "%00"})


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; we reserve 2 for parse
    # errors of input files, so route usage problems through an exception.
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="wordspot", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_index = sub.add_parser("index", help="build a word index from page images")
    p_index.add_argument("images", nargs="+", help="NetPBM page images (P1-P6)")
    p_index.add_argument("--ref-font", type=int, default=DEFAULT_REF_FONT,
                         help="reference font size in pixels (default 60)")
    p_index.add_argument("--gap-factor", type=float, default=DEFAULT_GAP_FACTOR,
                         help="inter-character gap limit as a fraction of line height")
    p_index.add_argument("--out", required=True, help="output index file")
    p_index.set_defaults(func=_cmd_index)

    p_query = sub.add_parser("query", help="search an index for a text query")
    _add_query_args(p_query)
    p_query.add_argument("text", nargs="?", help="query word (letters only)")
    p_query.add_argument("--stdin", action="store_true",
                         help="read one query per line from standard input")
    p_query.add_argument("--annotate", metavar="OUT.pgm",
                         help="write matched pages with boxes drawn (one-shot only)")
    p_query.set_defaults(func=_cmd_query)

    p_annot = sub.add_parser("annotate", help="query and write annotated page images")
    _add_query_args(p_annot)
    p_annot.add_argument("text", help="query word (letters only)")
    p_annot.add_argument("--out", required=True, metavar="OUT.pgm",
                         help="annotated output image")
    p_annot.set_defaults(func=_cmd_annotate)

    p_inspect = sub.add_parser("inspect", help="print pipeline intermediates")
    p_inspect.add_argument("input", help="page image or index file")
    p_inspect.add_argument("--what", required=True,
                           choices=["rows", "cols", "lines", "words", "zones", "wst"])
    p_inspect.add_argument("--gap-factor", type=float, default=DEFAULT_GAP_FACTOR)
    p_inspect.set_defaults(func=_cmd_inspect)

    return parser


def _add_query_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("index", help="index file built by `wordspot index`")
    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                   help="maximum shape-token edit distance (default 2.5)")
    p.add_argument("--char-width", type=int, default=DEFAULT_CHAR_WIDTH,
                   help="expected character width in pixels at the reference font")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"wordspot: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"wordspot: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (PnmError, IndexFormatError) as exc:
        print(f"wordspot: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except UnsupportedCharacterError as exc:
        print(f"wordspot: {exc}", file=sys.stderr)
        return EXIT_QUERY
    except MissingPageError as exc:
        print(f"wordspot: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"wordspot: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        # Domain errors from flag values (ref font, threshold, ...); the
        # parse-error subclasses were already handled above.
        print(f"wordspot: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    raise SystemExit(main())


def _load_page_file(path: str) -> GrayImage:
    data = Path(path).read_bytes()
    try:
        return load_image(data)
    except PnmError as exc:
        raise PnmError(f"{path}: {exc.message}", exc.offset) from None


def _cmd_index(args) -> int:
    pages = []
    paths = {}
    used_ids: set[str] = set()
    for path in args.images:
        gray = _load_page_file(path)
        # Name bytes that are not UTF-8 become `\xNN`: ids go to stdout.
        stem = os.fsencode(Path(path).stem).decode("utf-8", "backslashreplace")
        base = re.sub(r"\s+", "_", stem) or "page"
        doc_id = base
        serial = 2
        while doc_id in used_ids:
            doc_id = f"{base}-{serial}"
            serial += 1
        used_ids.add(doc_id)
        pages.append((doc_id, binarize(gray)))
        paths[doc_id] = path

    index = build_index(
        pages, ref_font=args.ref_font, gap_factor=args.gap_factor, source_paths=paths
    )
    data = save_index(index)

    out = Path(args.out)
    tmp = out.with_name(out.name + f".tmp{os.getpid()}")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, out)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise

    for cls, count in zip(SizeClass, index.size_class_counts()):
        print(f"{cls.code} {count}")
    print(f"TOTAL {len(index.records)}")
    return EXIT_OK


class _PageLoader:
    """Loads the gray page images recorded in an index; caches nothing.

    Paths are tried as given, then relative to the index file's directory.
    A page whose size differs from the one the index recorded is refused:
    the index's boxes no longer describe it. A query thresholds only the
    pixels inside its candidates' boxes, so no page is binarized.
    """

    def __init__(self, index: WordIndex, base_dir: Path):
        self._docs = {doc.doc_id: doc for doc in index.docs}
        self._base_dir = base_dir

    def _resolve(self, doc: DocEntry) -> Path:
        raw = doc.path
        path = Path(raw)
        if path.exists():
            return path
        alt = self._base_dir / raw
        if alt.exists():
            return alt
        raise MissingPageError(doc.doc_id, f"page file {raw!r} not found")

    def __call__(self, doc_id: str) -> GrayImage:
        # A record's page is a position in the index's docs, so its doc is here.
        doc = self._docs[doc_id]
        img = _load_page_file(str(self._resolve(doc)))
        if (img.width, img.height) != (doc.width, doc.height):
            raise MissingPageError(
                doc_id,
                f"page is {img.width}x{img.height}, "
                f"index recorded {doc.width}x{doc.height}",
            )
        return img


def _read_index(path: str) -> WordIndex:
    return load_index(Path(path).read_bytes())


def draw_box_border(pixels: np.ndarray, box: WordBox, thickness: int = BORDER_THICKNESS) -> None:
    """Draw a black frame of the given thickness around (outside) the box.

    Only pixels in the frame ring are touched; everything inside the box and
    beyond the ring is left alone. The ring is clamped to the image.
    """
    h, w = pixels.shape
    ox1, oy1 = max(0, box.x1 - thickness), max(0, box.y1 - thickness)
    ox2, oy2 = min(w - 1, box.x2 + thickness), min(h - 1, box.y2 + thickness)
    pixels[oy1 : box.y1, ox1 : ox2 + 1] = 0
    pixels[box.y2 + 1 : oy2 + 1, ox1 : ox2 + 1] = 0
    pixels[box.y1 : box.y2 + 1, ox1 : box.x1] = 0
    pixels[box.y1 : box.y2 + 1, box.x2 + 1 : ox2 + 1] = 0


def _write_annotations(loader: _PageLoader, results, out_arg: str) -> None:
    by_doc: dict[str, list[WordBox]] = defaultdict(list)
    for match in results:
        by_doc[match.record.doc_id].append(match.record.box)
    if not by_doc:
        return
    out = Path(out_arg)
    single = len(by_doc) == 1
    for doc_id in sorted(by_doc):
        # rescale_to_255 returns a fresh copy, so its pixels can be drawn on.
        annotated = rescale_to_255(loader(doc_id))
        for box in by_doc[doc_id]:
            draw_box_border(annotated.pixels, box)
        name = f"{out.stem}.{doc_id.translate(_NAME_ESCAPES)}{out.suffix}"
        target = out if single else out.with_name(name)
        target.write_bytes(write_gray(annotated))


def _run_queries(args, texts: list[str], annotate_out: str | None) -> int:
    index = _read_index(args.index)
    loader = _PageLoader(index, Path(args.index).resolve().parent)
    params = SearchParams(threshold=args.threshold, char_width=args.char_width)
    out = sys.stdout
    for text in texts:
        results = search(index, loader, text, params)
        out.write(f"Q {text}\n")
        for match in results:
            out.write(format_result(match) + "\n")
        out.write(f"COUNT {len(results)}\n")
        if annotate_out is not None:
            _write_annotations(loader, results, annotate_out)
    return EXIT_OK


def _cmd_query(args) -> int:
    if args.stdin and args.text is not None:
        raise _UsageError("give either a query word or --stdin, not both")
    if not args.stdin and args.text is None:
        raise _UsageError("a query word (or --stdin) is required")
    if args.annotate and args.stdin:
        raise _UsageError("--annotate requires a one-shot query")
    if args.stdin:
        texts = [line.strip() for line in sys.stdin if line.strip()]
    else:
        texts = [args.text]
    return _run_queries(args, texts, args.annotate)


def _cmd_annotate(args) -> int:
    return _run_queries(args, [args.text], args.out)


def _cmd_inspect(args) -> int:
    data = Path(args.input).read_bytes()
    what = args.what
    if data.startswith(b"WSIDX"):
        index = load_index(data)
    else:
        img = binarize(load_image(data))
        if what == "rows":
            print(" ".join(map(str, row_profile(img).tolist())))
            return EXIT_OK
        if what == "cols":
            full = LineBand(0, img.height - 1)
            print(" ".join(map(str, column_profile(img, full).tolist())))
            return EXIT_OK
        # The lines and words `index` records, with the tokens `query` computes.
        index = build_index([("page", img)], gap_factor=args.gap_factor)
        if what == "wst":
            encode_missing(index, lambda doc_id: img, list(range(len(index.tokens))))
    if what in ("lines", "zones"):
        for line in index.lines:
            band, zones = line.band, line.zones
            body = f" {zones.body_top} {zones.body_bottom}" if what == "zones" else ""
            print(f"{band.row_start} {band.row_end}{body}")
    elif what in ("words", "wst"):
        for rec in index.records:
            b = rec.box
            print(f"{b.x1} {b.y1} {b.x2} {b.y2}" if what == "words" else rec.wst or "-")
    else:
        raise _UsageError(f"--what {what} needs a page image, not an index file")
    return EXIT_OK


if __name__ == "__main__":
    run()
