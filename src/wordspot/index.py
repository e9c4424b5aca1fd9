"""Word records, text lines, size classification, and the searchable index.

A line holds its rows and x-height body band, against which queries encode
its words. A record holds only where its word is (doc, line, word, box) and
its cached shape token. The word's length is normalized to a reference font
size from its box (`normalize_length`, applied to all records at once), so
that one pixel-length scale applies across documents with varying
handwriting sizes. WordIndex is built from positions alone (each line's
page, each word's line), so the numbers it derives from them cannot
disagree; it holds lines and records as integer columns, checks their
invariants once, as array checks, and sorts the records by normalized
length once, so that a query's size prefilter is a binary search
and a cold query builds objects only for its matches. Size classes remain
the unit of `wordspot index`'s counts; `classify_size` and
`WordIndex.size_class_counts` share one boundary rule.

Index file format (UTF-8, LF, space-separated fields), nested by position:

    WSIDX 3
    K <ref_font_pixels>
    DOC <doc_id> <path> <width> <height>
    L <row_start> <row_end> <body_top> <body_bottom>
    W <x1> <y1> <x2> <y2> <wst>

DOC opens a page, L the page's next text line and W that line's next word;
line and word numbers are these positions, from 0. wst is a string over
{A, x, g} or `-` when not cached. doc_id and path (as file-system bytes)
are percent-encoded. Numbers are decimal, at most 2**31 - 1. Files of
another version are refused; rebuild them.
"""

from __future__ import annotations

import enum
import os
import urllib.parse
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .pnm import BinaryImage
from .segment import (
    DEFAULT_GAP_FACTOR,
    LineBand,
    WordBox,
    check_gap_factor,
    default_noise_threshold,
    row_profile,
    segment_lines,
    segment_words,
)
from .shapecode import ZoneBands, zones_from_bands

DEFAULT_REF_FONT = 60

# Lower-inclusive size class boundaries in normalized pixels.
SIZE_BOUNDS = (80, 240, 320, 480)

FORMAT_MAGIC = "WSIDX"
FORMAT_VERSION = 3

# The largest number an index file may hold; products such as the
# normalized length's 2 * K * width stay far inside int64.
_MAX_NUMBER = 2**31 - 1


class SizeClass(enum.IntEnum):
    VERY_SMALL = 0
    SMALL = 1
    MEDIUM = 2
    LARGE = 3
    VERY_LARGE = 4

    @property
    def code(self) -> str:
        return _CLASS_CODES[self]


_CLASS_CODES = {
    SizeClass.VERY_SMALL: "VS",
    SizeClass.SMALL: "S",
    SizeClass.MEDIUM: "M",
    SizeClass.LARGE: "L",
    SizeClass.VERY_LARGE: "VL",
}


class IndexFormatError(ValueError):
    """Malformed index data. `line` is the 1-based offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"{message} (line {line})")
        self.line = line


class IndexInvariantError(ValueError):
    """A WordIndex entry breaks an index invariant. `kind` is "doc", "line"
    or "record" and `position` the entry's place in that list."""

    def __init__(self, message: str, kind: str, position: int):
        super().__init__(message)
        self.kind = kind
        self.position = position


def normalize_length(length: int | np.ndarray, height: int | np.ndarray, ref_font: int):
    """Word length rescaled to the reference font size, rounded half-up.

    Computed exactly in integer arithmetic: round(ref_font * length / height).
    `length` and `height` may be ints or int64 arrays of equal shape; the
    result is the same kind.
    """
    if np.any(length < 1) or np.any(height < 1) or ref_font < 1:
        raise ValueError(
            f"length, height and ref_font must be >= 1 "
            f"(got {length}, {height}, {ref_font})"
        )
    return (2 * ref_font * length + height) // (2 * height)


def _size_class_numbers(norm_lengths: int | np.ndarray) -> np.ndarray:
    """Size class number of each normalized length: how many of the
    lower-inclusive SIZE_BOUNDS it reaches."""
    return np.searchsorted(SIZE_BOUNDS, norm_lengths, side="right")


def classify_size(norm_length: int) -> SizeClass:
    """Map a normalized pixel length onto its size class (lower-inclusive)."""
    if norm_length < 0:
        raise ValueError(f"norm_length must be >= 0, got {norm_length}")
    return SizeClass(int(_size_class_numbers(norm_length)))


_WST_ALPHABET = set("Axg")


def _bad_tokens(tokens: Sequence[str | None]) -> np.ndarray:
    """Whether each token is neither None nor a string over {A, x, g}."""
    cached = [wst for wst in tokens if wst is not None]
    if all(cached) and set("".join(cached)) <= _WST_ALPHABET:
        return np.zeros(len(tokens), dtype=bool)
    return np.array([wst is not None and not (wst and set(wst) <= _WST_ALPHABET)
                     for wst in tokens])


@dataclass
class WordRecord:
    """One segmented word: its place on its page and its shape token.

    A WordIndex builds these on request (`WordIndex.records`, a match's
    `record`) from its columns, with the token it holds at that moment.
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


@dataclass(frozen=True)
class LineEntry:
    """One text line of a page: its rows and the x-height body band inside
    them, both in page rows. The line's words are encoded against them."""

    doc_id: str
    line_idx: int
    band: LineBand
    zones: ZoneBands


class _Entries(Sequence):
    """A read-only sequence whose items are built when they are read."""

    def __init__(self, count: int, make: Callable[[int], object]):
        self._count = count
        self._make = make

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self._make(j) for j in range(*i.indices(self._count))]
        if not -self._count <= i < self._count:
            raise IndexError("index entry out of range")
        return self._make(i % self._count)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return list(self) == list(other)

    __hash__ = None


def _first_violation(kind: str, checks) -> None:
    """Raise IndexInvariantError for the first entry that fails any check.

    `checks` holds (bad mask over entries, message of a position) pairs in
    the order they are tried on one entry; the entry's first failed check
    names the error.
    """
    failed = np.logical_or.reduce([mask for mask, _ in checks])
    if failed.any():
        position = int(failed.argmax())
        message = next(message for mask, message in checks if mask[position])
        raise IndexInvariantError(f"{kind} {position}: {message(position)}", kind, position)


# Columns of the rows WordIndex takes and of the tables it derives from
# them. "page" and "doc" are positions in `docs` and a row's "line" is a
# position in `lines`; a table's "line" and "word" count from 0 within the
# page and within the line.
LINE_ROW = ("page", "row_start", "row_end", "body_top", "body_bottom")
WORD_ROW = ("line", "x1", "y1", "x2", "y2")
LINE_COLUMNS = ("doc", "line", "row_start", "row_end", "body_top", "body_bottom")
RECORD_COLUMNS = ("doc", "line", "word", "x1", "y1", "x2", "y2")


def _rows(name: str, rows, columns: tuple[str, ...]) -> np.ndarray:
    """A copy of `rows`, one int64 row each with one column per name. An
    empty list is no rows."""
    rows = np.array(rows, dtype=np.int64)
    if rows.shape != (0,) and (rows.ndim != 2 or rows.shape[1] != len(columns)):
        raise ValueError(f"{name} rows of shape {rows.shape} need the columns {columns}")
    return rows.reshape(-1, len(columns))


class WordIndex:
    """All text lines and word records of a document set, as columns.

    An index comes from `build_index` or `load_index`. Its constructor takes
    positions, not numbers: `lines` has one int row per line with the
    columns LINE_ROW, `words` one per word with the columns WORD_ROW, and
    `tokens` each word's shape token, or None until a query computes it.
    A line's page is a position in `docs` and a word's line a position in
    `lines`; neither may decrease, so lines and words come in page order.

    From these it derives `line_table`, one int64 row per line, and
    `record_table`, one per word record, with the columns LINE_COLUMNS and
    RECORD_COLUMNS. `record_lines` is the row of each record's line in
    `line_table`; `norm_lengths` is each record's box length normalized to
    `ref_font`, and `length_order` the record positions sorted by it (ties
    in record order), `sorted_lengths` the lengths in that order.

    `lines` and `records` are read-only sequences of LineEntry and
    WordRecord objects, built when they are read.
    """

    def __init__(
        self,
        ref_font: int,
        docs: list[DocEntry],
        lines: np.ndarray | Sequence[Sequence[int]],
        words: np.ndarray | Sequence[Sequence[int]],
        tokens: Sequence[str | None],
    ):
        # The index file must be able to hold it.
        if not 1 <= ref_font <= _MAX_NUMBER:
            raise ValueError(f"ref_font {ref_font} outside 1..{_MAX_NUMBER}")
        lines = _rows("lines", lines, LINE_ROW)
        words = _rows("words", words, WORD_ROW)
        if len(tokens) != len(words):
            raise ValueError(f"{len(tokens)} tokens for {len(words)} words")
        self.ref_font = ref_font
        self.docs = list(docs)
        self.tokens = list(tokens)
        self._validate(lines, words)
        page, line = lines[:, 0], words[:, 0]
        # Positions never decrease, so a page's (a line's) first position is
        # where its number 0 sits.
        line_numbers = np.arange(len(page)) - np.searchsorted(page, page)
        word_numbers = np.arange(len(line)) - np.searchsorted(line, line)
        self.line_table = np.column_stack((page, line_numbers, lines[:, 1:]))
        self.record_table = np.column_stack(
            (page[line], line_numbers[line], word_numbers, words[:, 1:])
        )
        self.record_lines = line
        x1, y1, x2, y2 = words[:, 1:].T
        self.norm_lengths = normalize_length(x2 - x1 + 1, y2 - y1 + 1, ref_font)
        self.length_order = np.argsort(self.norm_lengths, kind="stable")
        self.sorted_lengths = self.norm_lengths[self.length_order]

    def _validate(self, lines: np.ndarray, words: np.ndarray) -> None:
        """Checks every invariant across entries, once, as array checks:
        unique doc ids, then for lines and for words in turn, a position in
        range that does not decrease, and a band inside its page (a body
        inside its band) or a box inside its page's columns and its line's
        rows, and a valid token.

        Raises IndexInvariantError for the first failing entry, which
        `load_index` maps back to its line."""
        seen: set[str] = set()
        for position, doc in enumerate(self.docs):
            if doc.doc_id in seen:
                raise IndexInvariantError(f"duplicate doc_id {doc.doc_id!r}", "doc", position)
            seen.add(doc.doc_id)
        n_docs, n_lines = len(self.docs), len(lines)
        # One extra slot stands in for a position out of range in the lookups.
        widths = np.array([doc.width for doc in self.docs] + [1], dtype=np.int64)
        heights = np.array([doc.height for doc in self.docs] + [1], dtype=np.int64)

        page, row_start, row_end, body_top, body_bottom = lines.T
        known = (page >= 0) & (page < n_docs)
        page = np.where(known, page, n_docs)
        _first_violation("line", [
            (~known, lambda i: f"page {lines[i, 0]} outside 0..{n_docs - 1}"),
            (np.diff(page, prepend=page[:1]) < 0, lambda i: "out of page order"),
            ((row_start < 0) | (row_end >= heights[page]),
             lambda i: f"band {row_start[i]}..{row_end[i]} outside image rows "
                       f"0..{heights[page[i]] - 1}"),
            ((body_top < row_start) | (body_top > body_bottom) | (body_bottom > row_end),
             lambda i: f"body rows {body_top[i]}..{body_bottom[i]} outside its band"),
        ])

        line, x1, y1, x2, y2 = words.T
        known = (line >= 0) & (line < n_lines)
        line = np.where(known, line, n_lines)
        page = np.append(page, n_docs)[line]
        line_start = np.append(row_start, 0)[line]
        line_end = np.append(row_end, 0)[line]
        _first_violation("record", [
            (~known, lambda i: f"line {words[i, 0]} outside 0..{n_lines - 1}"),
            (np.diff(line, prepend=line[:1]) < 0, lambda i: "out of page order"),
            ((x1 < 0) | (x2 >= widths[page]) | (y1 < line_start) | (y2 > line_end),
             lambda i: f"box x {x1[i]}..{x2[i]}, y {y1[i]}..{y2[i]} outside its page "
                       f"columns 0..{widths[page[i]] - 1} or its line rows "
                       f"{line_start[i]}..{line_end[i]}"),
            (_bad_tokens(self.tokens), lambda i: f"invalid shape token {self.tokens[i]!r}"),
        ])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WordIndex):
            return NotImplemented
        return (
            self.ref_font == other.ref_font
            and self.docs == other.docs
            and np.array_equal(self.line_table, other.line_table)
            and np.array_equal(self.record_table, other.record_table)
            and self.tokens == other.tokens
        )

    __hash__ = None

    def __repr__(self) -> str:
        return (
            f"WordIndex(ref_font={self.ref_font}, docs={self.docs!r}, "
            f"lines={list(self.lines)!r}, records={list(self.records)!r})"
        )

    def line(self, position: int) -> LineEntry:
        doc, line, row_start, row_end, body_top, body_bottom = self.line_table[position].tolist()
        band, zones = LineBand(row_start, row_end), ZoneBands(body_top, body_bottom)
        return LineEntry(self.docs[doc].doc_id, line, band, zones)

    def record(self, position: int) -> WordRecord:
        doc, line, word, x1, y1, x2, y2 = self.record_table[position].tolist()
        box = WordBox(x1, y1, x2, y2)
        return WordRecord(self.docs[doc].doc_id, line, word, box, self.tokens[position])

    @property
    def lines(self) -> Sequence[LineEntry]:
        return _Entries(len(self.line_table), self.line)

    @property
    def records(self) -> Sequence[WordRecord]:
        return _Entries(len(self.tokens), self.record)

    def size_class_counts(self) -> list[int]:
        """Number of records in each size class, in SizeClass order."""
        classes = _size_class_numbers(self.norm_lengths)
        return np.bincount(classes, minlength=len(SizeClass)).tolist()


def build_index(
    pages: list[tuple[str, BinaryImage]],
    ref_font: int = DEFAULT_REF_FONT,
    *,
    gap_factor: float = DEFAULT_GAP_FACTOR,
    noise_threshold: int | None = None,
    source_paths: dict[str, str] | None = None,
) -> WordIndex:
    """Segment every page and index each text line and one record per word.

    Lines are split at each page's own noise threshold (the default for its
    width unless `noise_threshold` is given); a line's body band is found
    from the page's row counts, for all lines of a page in one pass. Shape
    tokens are not computed here; they are filled lazily at query time. `source_paths` maps
    doc_id to the file the page came from (defaults to the doc_id itself) so
    that queries can reload page images.
    """
    # Refused whether or not a page has a text line to split.
    check_gap_factor(gap_factor)
    docs = []
    lines = []
    words = []
    for page, (doc_id, img) in enumerate(pages):
        path = (source_paths or {}).get(doc_id, doc_id)
        docs.append(DocEntry(doc_id, path, img.width, img.height))
        counts = row_profile(img)
        if noise_threshold is None:
            threshold = default_noise_threshold(img.width)
        else:
            threshold = noise_threshold
        bands = segment_lines(counts, threshold)
        starts = np.array([band.row_start for band in bands], dtype=np.int64)
        ends = np.array([band.row_end for band in bands], dtype=np.int64)
        tops, bottoms = zones_from_bands(counts, starts, ends)
        for band, top, bottom in zip(bands, tops.tolist(), bottoms.tolist()):
            for b in segment_words(img, band, gap_factor):
                words.append((len(lines), b.x1, b.y1, b.x2, b.y2))
            lines.append((page, band.row_start, band.row_end, top, bottom))
    return WordIndex(ref_font, docs, lines, words, [None] * len(words))


def _encode(text: str | bytes) -> str:
    return urllib.parse.quote(text, safe="/.-_")


def save_index(index: WordIndex) -> bytes:
    """Serialize to the text index format; load_index inverts this exactly."""
    out = [f"{FORMAT_MAGIC} {FORMAT_VERSION}", f"K {index.ref_font}"]
    words = [
        f"W {x1} {y1} {x2} {y2} {wst or '-'}"
        for (_, _, _, x1, y1, x2, y2), wst in zip(index.record_table.tolist(), index.tokens)
    ]
    # Records are in page order, so each line's words are one run of them.
    line_count = len(index.line_table)
    word_starts = np.searchsorted(index.record_lines, np.arange(line_count + 1)).tolist()
    line_starts = np.searchsorted(index.line_table[:, 0], np.arange(len(index.docs) + 1))
    lines = index.line_table.tolist()
    for rank, doc in enumerate(index.docs):
        # File-system bytes, so that a name that is not UTF-8 reloads the file.
        path = _encode(os.fsencode(doc.path))
        out.append(f"DOC {_encode(doc.doc_id)} {path} {doc.width} {doc.height}")
        for n in range(line_starts[rank], line_starts[rank + 1]):
            _, _, row_start, row_end, body_top, body_bottom = lines[n]
            out.append(f"L {row_start} {row_end} {body_top} {body_bottom}")
            out.extend(words[word_starts[n] : word_starts[n + 1]])
    return ("\n".join(out) + "\n").encode("utf-8")


def _number_error(token: str, what: str, lo: int = 0) -> str | None:
    """Why `token` is not a number in lo.._MAX_NUMBER, or None when it is."""
    try:
        value = int(token)
    except ValueError:
        return f"malformed {what}: {token!r}"
    if not lo <= value <= _MAX_NUMBER:
        return f"{what} {value} outside {lo}..{_MAX_NUMBER}"
    return None


def _parse_int(token: str, what: str, line_no: int, lo: int = 0) -> int:
    error = _number_error(token, what, lo)
    if error is not None:
        raise IndexFormatError(error, line_no)
    return int(token)


def _bad_number(row: list[str], kind: int) -> str:
    """Why the first bad integer field of a row of this kind code is bad."""
    return next(filter(None, map(_number_error, row[1:], _FIELDS[kind])))


def _in_range(token: str) -> int:
    """The number `token` holds, or -1 when it is not one in 0.._MAX_NUMBER."""
    return -1 if _number_error(token, "") else int(token)


def _numbers(rows: list[list[str]], count: int) -> np.ndarray:
    """Fields 1..count of each row as a (rows, count) int64 array, converted
    together; a field that is not a number in 0.._MAX_NUMBER reads -1."""
    flat = [field for row in rows for field in row[1 : count + 1]]
    try:
        values = np.array(flat, dtype=np.int64)
    except (ValueError, OverflowError):
        values = np.array([_in_range(field) for field in flat], dtype=np.int64)
    values[values > _MAX_NUMBER] = -1
    return values.reshape(-1, count)


# Line kinds by code, with the fields that follow the kind; any other kind
# gets code 3.
_KINDS = {"DOC": 0, "L": 1, "W": 2}
_FIELDS = (
    ("doc_id", "path", "doc width", "doc height"),
    ("row_start", "row_end", "body_top", "body_bottom"),
    ("x1", "y1", "x2", "y2", "wst"),
)
_FIELD_COUNTS = np.array([len(names) + 1 for names in _FIELDS] + [0])


def load_index(data: bytes) -> WordIndex:
    """Parse index bytes; raises IndexFormatError naming the bad line.

    The rows are split once and classified by kind; each L line gets its
    page's position and each W line its text line's position by cumulative
    counts, and the integer fields of all L lines, then of all W lines, are
    converted together. Every check of a single line runs over all lines at
    once, and the first bad line in file order is reported. Only then are
    the invariants across entries (unique doc ids, bands inside their page,
    boxes inside their page and line) checked, by WordIndex's validator, so
    that a parse error is reported before an invariant error.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise IndexFormatError(f"index is not valid UTF-8: {exc}", 1) from None
    rows = text.split("\n")
    if rows and rows[-1] == "":
        rows.pop()

    if not rows or rows[0] != f"{FORMAT_MAGIC} {FORMAT_VERSION}":
        got = rows[0] if rows else ""
        raise IndexFormatError(
            f"expected header {FORMAT_MAGIC!r} version {FORMAT_VERSION}, got {got!r}", 1
        )
    if len(rows) < 2 or not rows[1].startswith("K "):
        raise IndexFormatError("expected reference font line 'K <pixels>'", 2)
    ref_font = _parse_int(rows[1][2:], "reference font size", 2, lo=1)

    fields = [row.split(" ") for row in rows[2:]]
    kinds = np.array([_KINDS.get(row[0], 3) for row in fields], dtype=np.int64)
    counts = np.fromiter(map(len, fields), np.int64, len(fields))
    whole = counts == _FIELD_COUNTS[kinds]
    is_doc, is_line, is_word = kinds == 0, kinds == 1, kinds == 2

    # (row, check number, message) of each check's first bad row; the least
    # is reported. On one row, checks are tried in the order they are added.
    errors: list[tuple[int, int, str]] = []

    def first_bad(mask: np.ndarray, message: Callable[[int], str], at=None) -> None:
        """Note the first True of `mask`, a mask over all rows or over the
        rows `at`; `message` takes its position in `mask`."""
        if mask.any():
            n = int(mask.argmax())
            errors.append((n if at is None else int(at[n]), len(errors), message(n)))

    first_bad(kinds == 3, lambda i: f"unknown line kind {fields[i][0]!r}")
    first_bad(
        (kinds != 3) & ~whole,
        lambda i: f"{fields[i][0]} line needs {_FIELD_COUNTS[kinds[i]]} fields, "
                  f"got {counts[i]}",
    )

    docs = []
    for i in np.flatnonzero(is_doc & whole).tolist():
        _, doc_id, path, width, height = fields[i]
        error = _number_error(width, "doc width", 1) or _number_error(height, "doc height", 1)
        if error is not None:
            errors.append((i, len(errors), error))
            break
        path = os.fsdecode(urllib.parse.unquote_to_bytes(path))
        docs.append(DocEntry(urllib.parse.unquote(doc_id), path, int(width), int(height)))

    # Position of each row's page and of its text line, from counts of the
    # DOC and L lines so far; a W line's text line must be on its page.
    page = np.cumsum(is_doc) - 1
    line = np.cumsum(is_line) - 1
    lines_before_page = np.maximum.accumulate(np.where(is_doc, line + 1, 0))
    first_bad(is_line & (page < 0), lambda i: "L line before any DOC line")
    first_bad(
        is_word & (line < lines_before_page), lambda i: "W line before its page's first L line"
    )

    line_at = np.flatnonzero(is_line & whole)
    word_at = np.flatnonzero(is_word & whole)
    line_rows = [fields[i] for i in line_at.tolist()]
    word_rows = [fields[i] for i in word_at.tolist()]
    line_values = _numbers(line_rows, 4)
    word_values = _numbers(word_rows, 4)
    first_bad((line_values < 0).any(axis=1), lambda n: _bad_number(line_rows[n], 1), line_at)
    first_bad((word_values < 0).any(axis=1), lambda n: _bad_number(word_rows[n], 2), word_at)
    row_start, row_end, body_top, body_bottom = line_values.T
    x1, y1, x2, y2 = word_values.T
    first_bad(row_start > row_end, lambda n: f"empty band {row_start[n]}..{row_end[n]}", line_at)
    first_bad(
        body_top > body_bottom,
        lambda n: f"empty body band {body_top[n]}..{body_bottom[n]}",
        line_at,
    )
    first_bad(
        (x1 > x2) | (y1 > y2),
        lambda n: f"degenerate box {x1[n]} {y1[n]} {x2[n]} {y2[n]}",
        word_at,
    )
    tokens = [None if row[5] == "-" else row[5] for row in word_rows]
    first_bad(_bad_tokens(tokens), lambda n: f"invalid shape token {tokens[n]!r}", word_at)

    if errors:
        row, _, message = min(errors)
        raise IndexFormatError(message, row + 3)

    lines = np.column_stack((page[line_at], line_values))
    words = np.column_stack((line[word_at], word_values))
    try:
        return WordIndex(ref_font, docs, lines, words, tokens)
    except IndexInvariantError as exc:
        is_kind = {"doc": is_doc, "line": is_line, "record": is_word}[exc.kind]
        raise IndexFormatError(str(exc), int(np.flatnonzero(is_kind)[exc.position]) + 3) from None

