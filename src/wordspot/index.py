"""Word records, text lines, size classification, and the searchable index.

A line is one row of integers: its page, its rows and its x-height body
band, against which queries encode its words. A record holds only where its
word is (doc, line, word, box); its shape token is computed per process,
when a query first needs it, and never stored. The word's length is
normalized from its box to the reference font size, REF_FONT
(`normalize_length`, applied to all records at once), so that one
pixel-length scale applies across documents with varying handwriting sizes.
WordIndex holds its lines and words as the rows it is built from,
positions alone (each line's page, each word's line), so no line or word
number is stored to disagree with them; a record's numbers are derived
when it is built. It checks the rows' invariants once, as array checks,
and sorts the words by normalized length once, so that a query's size
prefilter is a binary search and a cold query builds objects only for its
matches. Size classes remain the unit of `wordspot index`'s counts
(`WordIndex.size_class_counts`).

An index file is one gzip member (RFC 1952) whose text is the index, in
UTF-8 with LF line ends and space-separated fields, nested by position:

    WSIDX 7
    K 60
    DOC <doc_id> <path> <width> <height>
    L <gap> <height> <body_top> <body_bottom>
    <gap> <top> <width> <bottom>

DOC opens a page, L the page's next text line and a word row, a line that
starts with an ASCII digit, that line's next word; line and word numbers
are these positions, from 0. Within a page, lines run top to bottom without
sharing a row, and within a line, words run left to right without sharing a
column. So a line gives its first row as the gap after the page's previous
line (the rows between that line's last row and its own first, or its
first row for a page's first line), then its number of rows, and a box
gives its first column as the gap after its line's previous word's last
column (or its first column for a line's first word), then its width. A
line's body band and each of its words' boxes are insets into the line's
rows: `body_top` and a box's `top` count rows down from its first row,
`body_bottom` and a box's `bottom` count rows up from its last row.
`load_index` turns gaps, sizes and insets into absolute page rows and
columns once, so a WordIndex, query output and `inspect` hold absolute
coordinates only, and no box can lie outside its line's rows, nor any two
lines or words overlap. K is REF_FONT: like the header, line 2 must be
exactly `K 60`, so a word's normalized length comes from its box alone. A
word row has exactly these four fields: no file holds a shape token. doc_id
(not empty, without white space) and path (as file-system bytes, without a
NUL) are percent-encoded. Numbers are decimal: 1 to 10 ASCII digits.
WordIndex judges every value, as it does for any rows: a size of 0 or
insets that leave a band, a body or a box no rows are refused, and so are
gaps and sizes that take a line past its page's rows or a box past its
page's columns. A page's size must be one a page file can have: at most
MAX_SIDE per side and MAX_PIXELS in all, as `pnm.load_image` reads. Files
of another version are refused; rebuild them. So is a file that is not one
whole gzip member, or whose text is longer than MAX_INDEX_TEXT bytes; an
error in the text names its line in the text.
"""

from __future__ import annotations

import os
import urllib.parse
import zlib
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .pnm import MAX_PIXELS, MAX_SIDE, BinaryImage
from .segment import (
    WordBox,
    default_noise_threshold,
    row_profile,
    segment_lines,
    segment_words,
)
from .shapecode import zones_from_bands
from .util import ascii_decimals

# The reference font size in pixels: every word's length is normalized to
# it, and line 2 of every index file is `K 60`.
REF_FONT = 60

# Lower-inclusive size class boundaries in normalized pixels, and the code
# of each class, from very small to very large.
SIZE_BOUNDS = (80, 240, 320, 480)
SIZE_CODES = ("VS", "S", "M", "L", "VL")

FORMAT_MAGIC = "WSIDX"
FORMAT_VERSION = 7
_FONT_LINE = f"K {REF_FONT}"

# The first two bytes of every gzip member, and so of every index file.
_GZIP_MAGIC = b"\x1f\x8b"
# The headers of the uncompressed text files that earlier versions wrote.
_OLDER_HEADERS = [f"{FORMAT_MAGIC} {version}".encode() for version in range(1, FORMAT_VERSION)]
# The most bytes an index file's text may hold. load_index holds up to about
# 100 bytes per byte of text (for a text of empty lines; a real index takes
# about 41), so a file of a few kilobytes that inflates to the bound asks
# for at most about 800 MiB. 8 MiB of text holds about 660,000 words at
# the 12.7 bytes each of 20 generated pages.
MAX_INDEX_TEXT = 2**23
# zlib's window bits for a gzip member, and the deflate level it is written at.
_GZIP_WBITS = 31
_LEVEL = 6


class IndexFormatError(ValueError):
    """Malformed index data. `message` says what is wrong and `line` is the
    1-based offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"{message} (line {line})")
        self.message = message
        self.line = line


class IndexInvariantError(ValueError):
    """A WordIndex entry breaks an index invariant. `kind` is "doc", "line"
    or "record" and `position` the entry's place in that list."""

    def __init__(self, message: str, kind: str, position: int):
        super().__init__(message)
        self.kind = kind
        self.position = position


def normalize_length(length: int | np.ndarray, height: int | np.ndarray):
    """Word length rescaled to the reference font size, rounded half-up.

    Computed exactly in integer arithmetic: round(REF_FONT * length / height).
    `length` and `height` may be ints or int64 arrays of equal shape; the
    result is the same kind.
    """
    if np.any(length < 1) or np.any(height < 1):
        raise ValueError(f"length and height must be >= 1 (got {length}, {height})")
    return (2 * REF_FONT * length + height) // (2 * height)


def _size_class_numbers(norm_lengths: int | np.ndarray) -> np.ndarray:
    """Size class number of each normalized length: how many of the
    lower-inclusive SIZE_BOUNDS it reaches."""
    return np.searchsorted(SIZE_BOUNDS, norm_lengths, side="right")


@dataclass
class WordRecord:
    """One segmented word: its place on its page and its shape token.

    A WordIndex builds these on request (`WordIndex.records`, a match's
    `record`) from its rows, with the token it holds at that moment.
    """

    doc_id: str
    line_idx: int
    word_idx: int
    box: WordBox
    wst: str | None = None


@dataclass(frozen=True)
class DocEntry:
    doc_id: str
    path: str
    width: int
    height: int


class _Entries(Sequence):
    """A read-only sequence whose items are built when they are read."""

    def __init__(self, count: int, make: Callable[[int], object]):
        self._count = count
        self._make = make

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, i):
        if not -self._count <= i < self._count:
            raise IndexError("index entry out of range")
        return self._make(i % self._count)

    def __iter__(self):
        return map(self._make, range(self._count))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return list(self) == list(other)

    __hash__ = None


def _first_failure(checks) -> tuple[int, str] | None:
    """The first entry that fails any check, and the message of its first
    failed check, or None when every entry passes.

    `checks` holds (bad mask over entries, message of a position) pairs in
    the order they are tried on one entry.
    """
    failed = np.logical_or.reduce([mask for mask, _ in checks])
    if not failed.any():
        return None
    position = int(failed.argmax())
    return position, next(message for mask, message in checks if mask[position])(position)


def _gaps(groups: np.ndarray, firsts: np.ndarray, lasts: np.ndarray) -> np.ndarray:
    """The gap before each run firsts[i]..lasts[i]: its first position less
    the one after the last of the run before it in the same group (page or
    line), or its first position for the first run of its group. A run
    that shares a position with the run before it has a negative gap."""
    gaps = firsts.copy()
    gaps[1:] -= np.where(groups[1:] == groups[:-1], lasts[:-1] + 1, 0)
    return gaps


# Columns of the rows WordIndex holds. "page" is a position in `docs` and
# "line" a position in the lines.
LINE_ROW = ("page", "row_start", "row_end", "body_top", "body_bottom")
WORD_ROW = ("line", "x1", "y1", "x2", "y2")


def _rows(name: str, rows, columns: tuple[str, ...]) -> np.ndarray:
    """A copy of `rows`, one int64 row each with one column per name. An
    empty list is no rows."""
    rows = np.array(rows, dtype=np.int64)
    if rows.shape != (0,) and (rows.ndim != 2 or rows.shape[1] != len(columns)):
        raise ValueError(f"{name} rows of shape {rows.shape} need the columns {columns}")
    return rows.reshape(-1, len(columns))


class WordIndex:
    """All text lines and word records of a document set, as rows.

    An index comes from `build_index` or `load_index`. It holds exactly the
    rows its constructor takes, as its own checked copies: `lines`, one
    int64 row per line with the columns LINE_ROW, and `words`, one per word
    with the columns WORD_ROW. These are positions, not numbers: a line's
    page is a position in `docs` and a word's line a position in `lines`;
    neither may decrease, so lines and words come in page order. Within a
    page, lines run top to bottom without sharing a row, and within a line,
    words run left to right without sharing a column, as the index file
    format needs. A line's number on its page and a word's on its line are
    derived only when a record is built (`record`).

    `norm_lengths` is each word's box length normalized to REF_FONT, and
    `length_order` the word positions sorted by it (ties in word order),
    `sorted_lengths` the lengths in that order. `records` is a read-only
    sequence of WordRecord objects, built when they are read. `tokens`
    holds each word's shape token, None until a query computes it: a cache
    of this process, which `save_index` does not write and `==` does not
    compare.
    """

    def __init__(
        self,
        docs: list[DocEntry],
        lines: np.ndarray | Sequence[Sequence[int]],
        words: np.ndarray | Sequence[Sequence[int]],
    ):
        self.docs = list(docs)
        self.lines = _rows("lines", lines, LINE_ROW)
        self.words = _rows("words", words, WORD_ROW)
        self._validate()
        self.tokens: list[str | None] = [None] * len(self.words)
        page, line = self.lines[:, 0], self.words[:, 0]
        # Per line: its page's doc id, its page's first line and its own
        # first word, where `record` counts the line's and a word's number
        # from. Positions never decrease, so each is one binary search.
        self._line_firsts = list(zip(
            [self.docs[p].doc_id for p in page.tolist()],
            np.searchsorted(page, page).tolist(),
            np.searchsorted(line, np.arange(len(page))).tolist(),
        ))
        x1, y1, x2, y2 = self.words[:, 1:].T
        self.norm_lengths = normalize_length(x2 - x1 + 1, y2 - y1 + 1)
        # Lengths that fit 16 bits sort by radix, about ten times faster.
        keys = self.norm_lengths
        if len(keys) and keys.max() <= 0xFFFF:
            keys = keys.astype(np.uint16)
        self.length_order = np.argsort(keys, kind="stable")
        self.sorted_lengths = self.norm_lengths[self.length_order]

    def _validate(self) -> None:
        """Checks every invariant across entries, once, as array checks:
        unique doc ids without white space, paths without a NUL and page sizes
        a page file can have, then for lines and for words in turn, a position
        in range that does not decrease, and a band inside its page (a body
        inside its band) and below its page's previous line, or a box that is
        not empty, inside its page's columns and its line's rows, and right of
        its line's previous word: no two lines of a page share a row, and no
        two words of a line a column.

        Raises IndexInvariantError for the first failing entry, which
        `load_index` maps back to its line."""
        seen: set[str] = set()
        for position, doc in enumerate(self.docs):
            if doc.doc_id in seen:
                raise IndexInvariantError(f"duplicate doc_id {doc.doc_id!r}", "doc", position)
            # An id is one field of a query's result line; no file path holds a NUL.
            if doc.doc_id.split() != [doc.doc_id]:
                raise IndexInvariantError(f"doc {position}: doc_id {doc.doc_id!r} empty or "
                                          "holding whitespace", "doc", position)
            if "\0" in doc.path:
                raise IndexInvariantError(f"doc {position}: path {doc.path!r} holding a NUL",
                                          "doc", position)
            # `load_image`'s limits, so that no query sizes arrays for a
            # page that no page file can hold.
            if not (1 <= doc.width <= MAX_SIDE and 1 <= doc.height <= MAX_SIDE
                    and doc.width * doc.height <= MAX_PIXELS):
                raise IndexInvariantError(
                    f"doc {position}: page size {doc.width}x{doc.height} outside "
                    f"1..{MAX_SIDE} per side or above {MAX_PIXELS} pixels", "doc", position,
                )
            seen.add(doc.doc_id)
        lines, words = self.lines, self.words
        n_docs, n_lines = len(self.docs), len(lines)
        # One extra slot stands in for a position out of range in the lookups.
        widths = np.array([doc.width for doc in self.docs] + [1], dtype=np.int64)
        heights = np.array([doc.height for doc in self.docs] + [1], dtype=np.int64)

        page, row_start, row_end, body_top, body_bottom = lines.T
        known = (page >= 0) & (page < n_docs)
        page = np.where(known, page, n_docs)
        line_checks = [
            (~known, lambda i: f"page {lines[i, 0]} outside 0..{n_docs - 1}"),
            (np.diff(page, prepend=page[:1]) < 0, lambda i: "out of page order"),
            ((row_start < 0) | (row_end >= heights[page]),
             lambda i: f"band {row_start[i]}..{row_end[i]} outside image rows "
                       f"0..{heights[page[i]] - 1}"),
            ((body_top < row_start) | (body_top > body_bottom) | (body_bottom > row_end),
             lambda i: f"body rows {body_top[i]}..{body_bottom[i]} outside its band"),
            (_gaps(page, row_start, row_end) < 0,
             lambda i: f"band {row_start[i]}..{row_end[i]} not below its page's previous "
                       f"line, rows {row_start[i - 1]}..{row_end[i - 1]}"),
        ]

        line, x1, y1, x2, y2 = words.T
        known = (line >= 0) & (line < n_lines)
        line = np.where(known, line, n_lines)
        word_page = np.append(page, n_docs)[line]
        line_start = np.append(row_start, 0)[line]
        line_end = np.append(row_end, 0)[line]
        record_checks = [
            (~known, lambda i: f"line {words[i, 0]} outside 0..{n_lines - 1}"),
            (np.diff(line, prepend=line[:1]) < 0, lambda i: "out of page order"),
            ((x1 > x2) | (y1 > y2), lambda i: f"degenerate box {x1[i]} {y1[i]} {x2[i]} {y2[i]}"),
            ((x1 < 0) | (x2 >= widths[word_page]) | (y1 < line_start) | (y2 > line_end),
             lambda i: f"box x {x1[i]}..{x2[i]}, y {y1[i]}..{y2[i]} outside its page "
                       f"columns 0..{widths[word_page[i]] - 1} or its line rows "
                       f"{line_start[i]}..{line_end[i]}"),
            (_gaps(line, x1, x2) < 0,
             lambda i: f"box x {x1[i]}..{x2[i]} not right of its line's previous word, "
                       f"x {x1[i - 1]}..{x2[i - 1]}"),
        ]
        for kind, checks in (("line", line_checks), ("record", record_checks)):
            failure = _first_failure(checks)
            if failure:
                position, message = failure
                raise IndexInvariantError(f"{kind} {position}: {message}", kind, position)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WordIndex):
            return NotImplemented
        return (
            self.docs == other.docs
            and np.array_equal(self.lines, other.lines)
            and np.array_equal(self.words, other.words)
        )

    __hash__ = None

    def __repr__(self) -> str:
        return (
            f"WordIndex(docs={self.docs!r}, lines={self.lines.tolist()!r}, "
            f"words={self.words.tolist()!r})"
        )

    def record(self, position: int) -> WordRecord:
        """The record of the word at `position`, with its line's number on
        its page and its own on its line."""
        line, x1, y1, x2, y2 = self.words[position].tolist()
        doc_id, first_line, first_word = self._line_firsts[line]
        word_idx = position % len(self.tokens) - first_word
        return WordRecord(doc_id, line - first_line, word_idx, WordBox(x1, y1, x2, y2),
                          self.tokens[position])

    @property
    def records(self) -> Sequence[WordRecord]:
        return _Entries(len(self.tokens), self.record)

    def size_class_counts(self) -> list[int]:
        """Number of records in each size class, in SIZE_CODES order."""
        classes = _size_class_numbers(self.norm_lengths)
        return np.bincount(classes, minlength=len(SIZE_CODES)).tolist()


def build_index(
    pages: Iterable[tuple[str, BinaryImage]],
    *,
    source_paths: dict[str, str] | None = None,
) -> WordIndex:
    """Segment every page and index each text line and one record per word,
    with lengths normalized to REF_FONT.

    `pages` is any iterable of (doc_id, page), consumed once, in order; a
    page is released before the next one is taken, so a generator that
    loads pages one at a time holds one page at a time. Lines are split at
    each page's own noise threshold, the default for its width; the body
    bands and the word boxes of all of a page's lines are found in one pass
    each. Shape tokens are not computed here; they are filled lazily at
    query time. `source_paths` maps doc_id to the file the page came from
    (defaults to the doc_id itself) so that queries can reload page images;
    it is read as each page is taken.
    """
    docs = []
    lines = [np.empty((0, len(LINE_ROW)), dtype=np.int64)]
    words = [np.empty((0, len(WORD_ROW)), dtype=np.int64)]
    line_count = 0
    # Not enumerate(pages): its reused result tuple would hold the previous
    # page until the next one is loaded.
    for doc_id, img in pages:
        page = len(docs)
        path = (source_paths or {}).get(doc_id, doc_id)
        docs.append(DocEntry(doc_id, path, img.width, img.height))
        counts = row_profile(img)
        starts, ends = segment_lines(counts, default_noise_threshold(img.width))
        tops, bottoms = zones_from_bands(counts, starts, ends)
        boxes = segment_words(img, starts, ends)
        del img  # before the loop takes the next page
        # A word's band becomes its line's position in the whole index.
        boxes[:, 0] += line_count
        words.append(boxes)
        lines.append(np.column_stack((np.full_like(starts, page), starts, ends, tops, bottoms)))
        line_count += len(starts)
    return WordIndex(docs, np.concatenate(lines), np.concatenate(words))


def _encode(text: str | bytes) -> str:
    return urllib.parse.quote(text, safe="/.-_")


def save_index(index: WordIndex) -> bytes:
    """Serialize to the index format, one gzip member of its text;
    load_index inverts this exactly. A line's first row and a box's first
    column are written as gaps after the page's previous line and the
    line's previous word, each row kind's in one array pass. Shape tokens
    are not written."""
    out = [f"{FORMAT_MAGIC} {FORMAT_VERSION}", _FONT_LINE]
    page, row_start, row_end, body_top, body_bottom = index.lines.T
    word_line, x1, y1, x2, y2 = index.words.T
    lines = np.column_stack((
        _gaps(page, row_start, row_end), row_end - row_start + 1,
        body_top - row_start, row_end - body_bottom,
    )).tolist()
    lines = [f"L {gap} {height} {top} {bottom}" for gap, height, top, bottom in lines]
    words = np.column_stack((
        _gaps(word_line, x1, x2), y1 - row_start[word_line], x2 - x1 + 1,
        row_end[word_line] - y2,
    )).tolist()
    words = [f"{gap} {top} {width} {bottom}" for gap, top, width, bottom in words]
    # Words are in page order, so each line's words are one run of them.
    word_starts = np.searchsorted(word_line, np.arange(len(lines) + 1)).tolist()
    line_starts = np.searchsorted(page, np.arange(len(index.docs) + 1))
    for rank, doc in enumerate(index.docs):
        # File-system bytes, so that a name that is not UTF-8 reloads the file.
        path = _encode(os.fsencode(doc.path))
        out.append(f"DOC {_encode(doc.doc_id)} {path} {doc.width} {doc.height}")
        for n in range(line_starts[rank], line_starts[rank + 1]):
            out.append(lines[n])
            out.extend(words[word_starts[n] : word_starts[n + 1]])
    text = ("\n".join(out) + "\n").encode("utf-8")
    # zlib's own gzip header, with no name, mtime 0 and zlib's OS byte, is
    # the same on every Python; `gzip.compress` writes another OS byte on
    # some versions.
    deflate = zlib.compressobj(_LEVEL, zlib.DEFLATED, _GZIP_WBITS)
    return deflate.compress(text) + deflate.flush()


# Line kinds by code: DOC, L and word rows; any other line gets code 3.
# Each kind's name in messages, the number fields it holds from field
# _FIRST_NUMBER on (after a DOC line's tag, id and path, an L line's tag,
# and from a word row's first field).
_KIND_NAMES = ("DOC", "L", "word")
_NUMBERS = (
    ("doc width", "doc height"),
    ("gap", "height", "body_top", "body_bottom"),
    ("gap", "top", "width", "bottom"),
)
_FIRST_NUMBER = (3, 1, 0)
# The number of fields of each kind, a tag included.
_FIELDS = np.array([5, 5, 4, 0])
# The bytes that end a field and end a line.
_SPACE, _NEWLINE = b" \n"


def _running_sums(values: np.ndarray, groups: np.ndarray) -> np.ndarray:
    """Cumulative sums of int64 `values`, each at least 0, that start again
    at each group's first entry; `groups` never decreases."""
    sums = np.cumsum(values)
    # What was summed before each group's first entry: as no value is
    # negative, the largest such sum so far is that of the entry's group.
    firsts = np.diff(groups, prepend=-1) != 0
    return sums - np.maximum.accumulate(np.where(firsts, sums - values, 0))


def _index_text(data: bytes) -> bytes:
    """The text of an index file's one gzip member, at most MAX_INDEX_TEXT
    bytes; raises IndexFormatError at line 1 for a file that is not one
    whole member, or whose text is longer."""
    if not data.startswith(_GZIP_MAGIC):
        if data[:16].split(b"\n")[0] in _OLDER_HEADERS:
            raise IndexFormatError(
                "older uncompressed index file; rebuild it with `wordspot index`", 1
            )
        raise IndexFormatError(
            "not a gzip member: an index file is its text in one gzip member, "
            "which starts with bytes 1f 8b", 1
        )
    inflate = zlib.decompressobj(_GZIP_WBITS)
    try:
        # At most one byte more than the bound is made, to tell it is over.
        text = inflate.decompress(data, MAX_INDEX_TEXT + 1)
    except zlib.error:
        raise IndexFormatError("corrupt gzip member", 1) from None
    if len(text) > MAX_INDEX_TEXT:
        raise IndexFormatError(f"index text longer than {MAX_INDEX_TEXT} bytes", 1)
    if not inflate.eof:
        raise IndexFormatError("truncated gzip member", 1)
    if inflate.unused_data:
        raise IndexFormatError("bytes after the gzip member", 1)
    return text


def load_index(data: bytes) -> WordIndex:
    """Parse index file bytes; raises IndexFormatError naming the bad line
    of the file's text, or line 1 when the file is not one whole gzip
    member of at most MAX_INDEX_TEXT bytes of text (`_index_text`).

    The header and the K line are compared with the only bytes they may
    hold. After them, the lines are found by array passes over the bytes:
    the positions of every space and newline give each line's fields and
    their count, and a line's first bytes its kind. Each L line gets its
    page's position and each word row its text line's position by
    cumulative counts. Every number in the file is read by
    `util.ascii_decimals`, eight bytes at a time. The gaps, sizes and
    insets of L lines and word rows become absolute rows and columns once,
    as columns: each line's last row is a cumulative sum of the gaps and
    heights of its page's lines so far, and each box's last column one of
    the gaps and widths of its line's words so far. Only the ids and paths
    of DOC lines, which are few, are read one by one.

    Every check of a single line runs over all lines at once, and the first
    bad line in file order is reported (`_first_failure`, as WordIndex's
    validator reports its first bad entry); only its fields are split to
    word the message. Insets are at least 0, so no box lies outside its
    line's rows, and gaps are at least 0, so no two lines of a page and no
    two words of a line can overlap. Only then is every value judged, by
    WordIndex's validator (unique doc ids, page sizes, and bands, bodies and
    boxes that are not empty and lie inside their page), so that a parse
    error is reported before an invariant error.
    """
    data = _index_text(data)
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise IndexFormatError(f"index is not valid UTF-8: {exc}", 1) from None
    if not data.endswith(b"\n"):
        data = data + b"\n"  # so that every line ends in a newline
    header_end = data.index(b"\n")
    if data[:header_end] != f"{FORMAT_MAGIC} {FORMAT_VERSION}".encode():
        raise IndexFormatError(
            f"expected header {FORMAT_MAGIC!r} version {FORMAT_VERSION}, "
            f"got {data[:header_end].decode()!r}",
            1,
        )
    font_end = data.find(b"\n", header_end + 1)
    # Empty when the header is the last line: then font_end is -1 and the
    # header's newline the last byte.
    font_line = data[header_end + 1 : font_end]
    if font_line != _FONT_LINE.encode():
        raise IndexFormatError(
            f"expected reference font line {_FONT_LINE!r}, got {font_line.decode()!r}", 2
        )

    # `seps` holds the byte position of the newline that ends the K line,
    # then of the space or newline after each field, so that field k of a
    # line whose first field is field j of the file lies between seps[j + k]
    # and seps[j + k + 1]. `first` and `last` hold each line's first and
    # last field in the file, and `starts` each line's first byte.
    buf = np.frombuffer(data, np.uint8)
    body = buf[font_end + 1 :]
    seps = np.flatnonzero((body == _SPACE) | (body == _NEWLINE)) + (font_end + 1)
    seps = np.append(font_end, seps)
    last = np.flatnonzero(buf[seps[1:]] == _NEWLINE)
    counts = np.diff(last, prepend=-1)
    first = last - counts + 1
    starts = seps[first] + 1
    head = buf[starts]
    head_length = seps[first + 1] - starts
    kinds = np.full(len(last), 3)
    one, doc_like = head_length == 1, (head_length == 3) & (head == ord("D"))
    kinds[one & (head == ord("L"))] = 1
    kinds[(head >= ord("0")) & (head <= ord("9"))] = 2
    doc_starts = starts[doc_like]
    kinds[doc_like] = np.where(
        (buf[doc_starts + 1] == ord("O")) & (buf[doc_starts + 2] == ord("C")), 0, 3
    )
    whole = counts == _FIELDS[kinds]
    is_doc, is_line, is_word = kinds == 0, kinds == 1, kinds == 2

    def fields(i: int) -> list[str]:
        """Line i's fields, split only for DOC lines and error messages."""
        return data[starts[i] : seps[last[i] + 1]].decode().split(" ")

    # Position of each row's page and of its text line, from counts of the
    # DOC and L lines so far; a word row's text line must be on its page.
    page = np.cumsum(is_doc) - 1
    line = np.cumsum(is_line) - 1
    lines_before_page = np.maximum.accumulate(np.where(is_doc, line + 1, 0))
    # (bad mask over rows, message of a row) of each check, in the order
    # they are tried on one row.
    checks = [
        (kinds == 3, lambda i: f"unknown line kind {fields(i)[0]!r}"),
        ((kinds != 3) & ~whole,
         lambda i: f"{_KIND_NAMES[kinds[i]]} line needs {_FIELDS[kinds[i]]} fields, "
                   f"got {counts[i]}"),
        (is_line & (page < 0), lambda i: "L line before any DOC line"),
        (is_word & (line < lines_before_page),
         lambda i: "word line before its page's first L line"),
    ]

    # Every number in the file is read in one pass: the _NUMBERS fields of
    # each whole DOC line, L line and word row, from its field _FIRST_NUMBER
    # on. A number is 1..10 ASCII digits, so below 10**10, and a text of
    # MAX_INDEX_TEXT bytes holds about 10**6 rows at most (8 bytes each):
    # the running sums below stay under about 2 * 10**16, inside int64.
    groups = [np.flatnonzero(whole & (kinds == kind)) for kind in range(3)]
    bounds = [
        seps[first[at, None] + np.arange(field, field + len(names) + 1)]
        for at, names, field in zip(groups, _NUMBERS, _FIRST_NUMBER)
    ]
    number_starts = np.concatenate([b[:, :-1].ravel() for b in bounds]) + 1
    number_ends = np.concatenate([b[:, 1:].ravel() for b in bounds])
    values = ascii_decimals(data, number_starts, number_ends, 10)
    ok = values >= 0
    if not ok.all():
        # The row of each number; a row's numbers are one run of them.
        number_rows = np.concatenate([np.repeat(at, len(names))
                                      for at, names in zip(groups, _NUMBERS)])

        def number_message(i: int) -> str:
            numbers = np.flatnonzero(number_rows == i)
            k = int(ok[numbers].argmin())
            n = numbers[k]
            field = data[number_starts[n] : number_ends[n]].decode()
            return f"malformed {_NUMBERS[kinds[i]][k]}: {field!r}"

        bad_rows = np.zeros(len(kinds), dtype=bool)
        bad_rows[number_rows[~ok]] = True
        checks.append((bad_rows, number_message))

    failure = _first_failure(checks)
    if failure:
        row, message = failure
        raise IndexFormatError(message, row + 3)
    doc_at, line_at, word_at = groups
    ends = np.cumsum([0] + [len(at) * len(names) for at, names in zip(groups, _NUMBERS)])
    sizes, line_numbers, word_numbers = (
        values[i:j].reshape(-1, len(names)) for i, j, names in zip(ends, ends[1:], _NUMBERS)
    )

    docs = []
    for (_, doc_id, path, _, _), size in zip(map(fields, doc_at), sizes.tolist()):
        path = os.fsdecode(urllib.parse.unquote_to_bytes(path))
        docs.append(DocEntry(urllib.parse.unquote(doc_id), path, *size))
    # Gaps, sizes and insets become absolute rows and columns. Every L line
    # is whole here, so a word row's text line position is its row in
    # `line_at`.
    gap, height, body_top, body_bottom = line_numbers.T
    line_page = page[line_at]
    row_end = _running_sums(gap + height, line_page) - 1
    row_start = row_end - height + 1
    lines = np.column_stack((line_page, row_start, row_end,
                             row_start + body_top, row_end - body_bottom))
    gap, top, width, bottom = word_numbers.T
    word_line = line[word_at]
    x2 = _running_sums(gap + width, word_line) - 1
    words = np.column_stack((word_line, x2 - width + 1, row_start[word_line] + top, x2,
                             row_end[word_line] - bottom))
    try:
        return WordIndex(docs, lines, words)
    except IndexInvariantError as exc:
        is_kind = {"doc": is_doc, "line": is_line, "record": is_word}[exc.kind]
        raise IndexFormatError(str(exc), int(np.flatnonzero(is_kind)[exc.position]) + 3) from None
