"""Command-line front end.

Commands:
  index     build a word index from NetPBM page images
  query     run one text query (or a stdin batch) against an index, and
            with --annotate write page copies with the match boxes drawn
  inspect   dump pipeline intermediates for debugging

Exit codes: 0 success, 1 usage, 2 input parse, 3 I/O (also a page that is
not the size its index records), 4 unsupported query character.
"""

from __future__ import annotations

import argparse
import functools
import mmap
import os
import re
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np

from .index import (
    FORMAT_MAGIC,
    SIZE_CODES,
    IndexFormatError,
    WordIndex,
    build_index,
    load_index,
    save_index,
)
from .pnm import GrayImage, PnmError, binarize, load_image, rescale_to_255, write_gray
from .search import (
    DEFAULT_THRESHOLD,
    MissingPageError,
    PageProvider,
    check_threshold,
    encode_missing,
    format_result,
    search,
)
from .segment import WordBox, column_profile, row_profile
from .shapecode import UnsupportedCharacterError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_IO = 3
EXIT_QUERY = 4

BORDER_THICKNESS = 2

# In an annotated file's name, a doc id's `/` and NUL, which no file name can
# hold, are percent-encoded as in the index file; `%` is too, so that no two
# ids share a name.
_NAME_ESCAPES = str.maketrans({"/": "%2F", "\0": "%00", "%": "%25"})


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; we reserve 2 for parse
    # errors of input files, so route usage problems through an exception.
    def error(self, message):
        raise _UsageError(message)


# Built once per process: each parse_args call returns a fresh namespace.
@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="wordspot", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_index = sub.add_parser("index", help="build a word index from page images")
    p_index.add_argument("images", nargs="+", help="NetPBM page images (P1-P6)")
    p_index.add_argument("--out", required=True, help="output index file")
    p_index.set_defaults(func=_cmd_index)

    p_query = sub.add_parser("query", help="search an index for a text query")
    p_query.add_argument("index", help="index file built by `wordspot index`")
    p_query.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                         help="maximum shape-token edit distance (default 2.5)")
    p_query.add_argument("text", nargs="?", help="query word (letters only)")
    p_query.add_argument("--stdin", action="store_true",
                         help="read one query per line from standard input")
    p_query.add_argument("--annotate", metavar="OUT.pgm",
                         help="write matched pages with boxes drawn (one-shot only)")
    p_query.set_defaults(func=_cmd_query)

    p_inspect = sub.add_parser("inspect", help="print pipeline intermediates")
    p_inspect.add_argument("input", help="page image or index file")
    p_inspect.add_argument("--what", required=True,
                           choices=["rows", "cols", "lines", "words", "zones", "wst"])
    p_inspect.set_defaults(func=_cmd_inspect)

    return parser


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
    except OSError as exc:  # MissingPageError too
        print(f"wordspot: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        # Domain errors from flag values (the threshold); the parse-error
        # subclasses were already handled above.
        print(f"wordspot: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    raise SystemExit(main())


def _load_page(path: str, data: bytes | mmap.mmap) -> GrayImage:
    """The page image in a file's bytes; a PnmError names the file."""
    try:
        return load_image(data)
    except PnmError as exc:
        raise PnmError(f"{path}: {exc.message}", exc.offset) from None


def _map_file(path: str) -> bytes | mmap.mmap:
    """A file's bytes, mapped read-only, so only what is read of them is
    faulted in. The map stays open while a view of it (an 8-bit page's
    pixels) lives. An empty file, which mmap refuses, gives b""."""
    with open(path, "rb") as f:
        try:
            return mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
        except ValueError:  # "cannot mmap an empty file"
            return f.read()


def _cmd_index(args) -> int:
    paths = {}

    def pages():
        # Each page file is mapped, binarized and handed on, one at a time:
        # the gray page and its map go as soon as binarize is done, and
        # build_index drops the binary page before it asks for the next.
        used_ids: set[str] = set()
        for path in args.images:
            # Name bytes that are not UTF-8 become `\xNN`: ids go to stdout.
            stem = os.fsencode(Path(path).stem).decode("utf-8", "backslashreplace")
            base = re.sub(r"\s+", "_", stem) or "page"
            doc_id = base
            serial = 2
            while doc_id in used_ids:
                doc_id = f"{base}-{serial}"
                serial += 1
            used_ids.add(doc_id)
            # build_index reads a page's path when it takes the page.
            paths[doc_id] = path
            yield doc_id, binarize(_load_page(path, _map_file(path)))

    index = build_index(pages(), source_paths=paths)
    data = save_index(index)

    out = Path(args.out)
    tmp = out.with_name(out.name + f".tmp{os.getpid()}")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, out)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise

    for code, count in zip(SIZE_CODES, index.size_class_counts()):
        print(f"{code} {count}")
    print(f"TOTAL {len(index.tokens)}")
    return EXIT_OK


def _page_file(base_dir: Path, paths: dict[str, str], doc_id: str) -> GrayImage:
    """The gray page image at a doc's recorded path, `paths[doc_id]`, opened
    as given and, only when that open finds no file there
    (`FileNotFoundError`, `NotADirectoryError`), relative to the index
    file's directory, `base_dir`. When neither opens, the page is missing;
    any other failure to open (a directory, no permission) is reported as
    it is. `search` checks the page's size. A query thresholds only the
    pixels inside its candidates' boxes, so no page is binarized or cached,
    and the file is mapped, not read: an 8-bit P5 page's pixels are a view
    of the map, released with them, and only the rows under the boxes are
    read from the file.
    """
    for path in (str(Path(paths[doc_id])), str(base_dir / paths[doc_id])):
        try:
            data = _map_file(path)
        except (FileNotFoundError, NotADirectoryError):
            continue
        return _load_page(path, data)
    raise MissingPageError(doc_id, f"page file {paths[doc_id]!r} not found")


def _read_index(path: str, data: bytes | None = None) -> WordIndex:
    """The index in a file (whose bytes may be given); an IndexFormatError
    names the file."""
    try:
        return load_index(Path(path).read_bytes() if data is None else data)
    except IndexFormatError as exc:
        raise IndexFormatError(f"{path}: {exc.message}", exc.line) from None


def draw_box_border(pixels: np.ndarray, box: WordBox) -> None:
    """Draw a black frame BORDER_THICKNESS pixels wide around (outside) the box.

    Only pixels in the frame ring are touched; everything inside the box and
    beyond the ring is left alone. The ring is clamped to the image.
    """
    h, w = pixels.shape
    ox1, oy1 = max(0, box.x1 - BORDER_THICKNESS), max(0, box.y1 - BORDER_THICKNESS)
    ox2, oy2 = min(w - 1, box.x2 + BORDER_THICKNESS), min(h - 1, box.y2 + BORDER_THICKNESS)
    pixels[oy1 : box.y1, ox1 : ox2 + 1] = 0
    pixels[box.y2 + 1 : oy2 + 1, ox1 : ox2 + 1] = 0
    pixels[box.y1 : box.y2 + 1, ox1 : box.x1] = 0
    pixels[box.y1 : box.y2 + 1, box.x2 + 1 : ox2 + 1] = 0


def _write_annotations(load_page: PageProvider, results, out_arg: str) -> None:
    # The query that found `results` has just loaded and checked each page.
    by_doc: dict[str, list[WordBox]] = defaultdict(list)
    for match in results:
        by_doc[match.record.doc_id].append(match.record.box)
    if not by_doc:
        return
    out = Path(out_arg)
    single = len(by_doc) == 1
    for doc_id in sorted(by_doc):
        # rescale_to_255 returns a fresh copy, so its pixels can be drawn on.
        annotated = rescale_to_255(load_page(doc_id))
        for box in by_doc[doc_id]:
            draw_box_border(annotated.pixels, box)
        name = f"{out.stem}.{doc_id.translate(_NAME_ESCAPES)}{out.suffix}"
        target = out if single else out.with_name(name)
        target.write_bytes(write_gray(annotated))


def _cmd_query(args) -> int:
    if args.stdin and args.text is not None:
        raise _UsageError("give either a query word or --stdin, not both")
    if not args.stdin and args.text is None:
        raise _UsageError("a query word (or --stdin) is required")
    if args.annotate and args.stdin:
        raise _UsageError("--annotate requires a one-shot query")
    # Before stdin or the index is read, so that a bad threshold is a usage
    # error whatever the batch holds and whether or not the index opens.
    check_threshold(args.threshold)
    if args.stdin:
        texts = [line.strip() for line in sys.stdin if line.strip()]
    else:
        texts = [args.text]
    index = _read_index(args.index)
    paths = {doc.doc_id: doc.path for doc in index.docs}
    load_page = functools.partial(_page_file, Path(args.index).resolve().parent, paths)
    out = sys.stdout
    for text in texts:
        results = search(index, load_page, text, args.threshold)
        out.write(f"Q {text}\n")
        for match in results:
            out.write(format_result(match) + "\n")
        out.write(f"COUNT {len(results)}\n")
        if args.annotate is not None:
            _write_annotations(load_page, results, args.annotate)
    return EXIT_OK


def _cmd_inspect(args) -> int:
    data = Path(args.input).read_bytes()
    what = args.what
    if data.startswith(FORMAT_MAGIC.encode()):
        index = _read_index(args.input, data)
    else:
        img = binarize(_load_page(args.input, data))
        if what == "rows":
            print(" ".join(map(str, row_profile(img).tolist())))
            return EXIT_OK
        if what == "cols":
            print(" ".join(map(str, column_profile(img).tolist())))
            return EXIT_OK
        # The lines and words `index` records, with the tokens `query` computes.
        index = build_index([("page", img)])
        if what == "wst":
            encode_missing(index, lambda doc_id: img, list(range(len(index.tokens))))
    # Columns of the index's rows: each line's rows, and its body band,
    # and each word's box.
    columns = {
        "lines": index.lines[:, 1:3],
        "zones": index.lines[:, 1:5],
        "words": index.words[:, 1:5],
    }
    if what in columns:
        for row in columns[what].tolist():
            print(*row)
    elif what == "wst":
        for wst in index.tokens:
            print(wst or "-")
    else:
        raise _UsageError(f"--what {what} needs a page image, not an index file")
    return EXIT_OK


if __name__ == "__main__":
    run()
