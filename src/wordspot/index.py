"""Word records, text lines, size classification, and the searchable index.

A line holds its rows and x-height body band, against which queries encode
its words. A record holds only where its word is (doc, line, word, box) and
its cached shape token. The word's length is normalized to a reference font
size from its box (`normalize_length`, applied to all records at once), so
that one pixel-length scale applies across documents with varying
handwriting sizes. WordIndex holds lines and records as integer columns,
checks their invariants once, as array checks, and sorts the records by
normalized length once, so that a query's size prefilter is a binary search
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


def _valid_wst(wst: str) -> bool:
    return wst != "" and set(wst) <= _WST_ALPHABET


def _check_wst(wst: str | None) -> None:
    if wst is not None and not _valid_wst(wst):
        raise ValueError(f"invalid shape token {wst!r}")


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

    def __post_init__(self):
        _check_wst(self.wst)


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


def _next_in_page_order(keys: np.ndarray) -> np.ndarray:
    """Whether each row of `keys` (doc rank, *numbers) comes right after the
    row before it (-1s before the first) in page order: the next number in
    the same group, or number 0 in a later group."""
    previous = np.vstack((np.full((1, keys.shape[1]), -1), keys))[: len(keys)]
    group, last = keys[:, :-1], keys[:, -1]
    prev_group, prev_last = previous[:, :-1], previous[:, -1]
    same = (group == prev_group).all(axis=1)
    # The first differing column decides whether the group is a later one.
    differ = (group != prev_group).argmax(axis=1)
    rows = np.arange(len(keys))
    later = group[rows, differ] > prev_group[rows, differ]
    return np.where(same, last == prev_last + 1, later & (last == 0))


# Columns of WordIndex.line_table and WordIndex.record_table; "doc" is the
# page's position in WordIndex.docs.
LINE_COLUMNS = ("doc", "line", "row_start", "row_end", "body_top", "body_bottom")
RECORD_COLUMNS = ("doc", "line", "word", "x1", "y1", "x2", "y2")


class WordIndex:
    """All text lines and word records of a document set, as columns.

    `line_table` has one int64 row per line and `record_table` one per word
    record, with the columns LINE_COLUMNS and RECORD_COLUMNS. `tokens` holds
    each record's shape token, or None until a query computes it. Lines and
    records come in page order: pages in the order of `docs`, the lines of
    a page and the words of a line each numbered from 0. `record_lines` is
    the row of each record's line in `line_table`; `norm_lengths` is each
    record's box length normalized to `ref_font`, and `length_order` the
    record positions sorted by it (ties in record order), `sorted_lengths`
    the lengths in that order.

    `lines` and `records` are read-only sequences of LineEntry and
    WordRecord objects, built when they are read.
    """

    def __init__(
        self,
        ref_font: int,
        docs: list[DocEntry],
        lines: Sequence[LineEntry],
        records: Sequence[WordRecord],
    ):
        """An index of LineEntry and WordRecord objects, converted once to
        columns; every invariant across entries is checked by the same
        validator that checks a loaded index."""
        # Doc ranks in order of first appearance: a doc id that `docs` does
        # not list gets a rank past its end, so that the validator can name
        # it. (With a duplicate in `docs` the ranks shift, but the validator
        # refuses the duplicate first.)
        rank: dict[str, int] = {}
        for doc in docs:
            rank.setdefault(doc.doc_id, len(rank))

        def rank_of(doc_id: str) -> int:
            return rank.setdefault(doc_id, len(rank))

        line_table = np.array(
            [
                (rank_of(line.doc_id), line.line_idx, line.band.row_start, line.band.row_end,
                 line.zones.body_top, line.zones.body_bottom)
                for line in lines
            ],
            dtype=np.int64,
        ).reshape(-1, len(LINE_COLUMNS))
        record_table = np.array(
            [
                (rank_of(rec.doc_id), rec.line_idx, rec.word_idx,
                 rec.box.x1, rec.box.y1, rec.box.x2, rec.box.y2)
                for rec in records
            ],
            dtype=np.int64,
        ).reshape(-1, len(RECORD_COLUMNS))
        self._set_columns(
            ref_font, docs, line_table, record_table, [rec.wst for rec in records], list(rank)
        )

    @classmethod
    def _from_columns(
        cls,
        ref_font: int,
        docs: list[DocEntry],
        line_table: np.ndarray,
        record_table: np.ndarray,
        tokens: list[str | None],
    ) -> WordIndex:
        """An index of int64 tables (see the class docstring), validated."""
        index = cls.__new__(cls)
        index._set_columns(
            ref_font, docs, line_table, record_table, tokens, [doc.doc_id for doc in docs]
        )
        return index

    def _set_columns(self, ref_font, docs, line_table, record_table, tokens, names):
        # The index file must be able to hold it.
        if not 1 <= ref_font <= _MAX_NUMBER:
            raise ValueError(f"ref_font {ref_font} outside 1..{_MAX_NUMBER}")
        self.ref_font = ref_font
        self.docs = list(docs)
        self.line_table = line_table
        self.record_table = record_table
        self.tokens = tokens
        self.record_lines = self._validate(names)
        x1, y1, x2, y2 = record_table[:, 3:].T
        self.norm_lengths = normalize_length(x2 - x1 + 1, y2 - y1 + 1, ref_font)
        self.length_order = np.argsort(self.norm_lengths, kind="stable")
        self.sorted_lengths = self.norm_lengths[self.length_order]

    def _validate(self, names: list[str]) -> np.ndarray:
        """Checks every invariant across entries, once, as array checks:
        unique doc ids, then for lines and for records in turn, a listed doc,
        page order, and a band inside its page (a body inside its band) or a
        box inside its page's columns and its line's rows. `names` lists the
        doc ids by rank, with those `docs` lacks past its end.

        Returns `record_lines`. Raises IndexInvariantError for the first
        failing entry, which `load_index` maps back to its line."""
        seen: set[str] = set()
        for position, doc in enumerate(self.docs):
            if doc.doc_id in seen:
                raise IndexInvariantError(f"duplicate doc_id {doc.doc_id!r}", "doc", position)
            seen.add(doc.doc_id)
        n_docs = len(self.docs)
        # One extra slot stands in for an unlisted doc in the lookups.
        widths = np.array([doc.width for doc in self.docs] + [1], dtype=np.int64)
        heights = np.array([doc.height for doc in self.docs] + [1], dtype=np.int64)

        doc, line, row_start, row_end, body_top, body_bottom = self.line_table.T
        page = np.minimum(doc, n_docs)
        _first_violation("line", [
            (doc >= n_docs, lambda i: f"unknown doc {names[doc[i]]!r}"),
            (~_next_in_page_order(self.line_table[:, :2]), lambda i: "out of page order"),
            ((row_start < 0) | (row_end >= heights[page]),
             lambda i: f"band {row_start[i]}..{row_end[i]} outside image rows "
                       f"0..{heights[page[i]] - 1}"),
            ((body_top < row_start) | (body_top > body_bottom) | (body_bottom > row_end),
             lambda i: f"body rows {body_top[i]}..{body_bottom[i]} outside its band"),
        ])

        lines_per_page = np.bincount(doc, minlength=n_docs + 1)
        first_line = np.concatenate(([0], np.cumsum(lines_per_page)))
        doc, line, word, x1, y1, x2, y2 = self.record_table.T
        page = np.minimum(doc, n_docs)
        has_line = (line >= 0) & (line < lines_per_page[page])
        # Records of a missing line look up an extra last slot.
        record_lines = np.where(has_line, first_line[page] + line, len(self.line_table))
        line_start = np.append(row_start, 0)[record_lines]
        line_end = np.append(row_end, 0)[record_lines]
        _first_violation("record", [
            (doc >= n_docs, lambda i: f"unknown doc {names[doc[i]]!r}"),
            (~_next_in_page_order(self.record_table[:, :3]), lambda i: "out of page order"),
            (~has_line, lambda i: f"its page has {lines_per_page[page[i]]} lines"),
            ((x1 < 0) | (x2 >= widths[page]) | (y1 < line_start) | (y2 > line_end),
             lambda i: f"box x {x1[i]}..{x2[i]}, y {y1[i]}..{y2[i]} outside its page "
                       f"columns 0..{widths[page[i]] - 1} or its line rows "
                       f"{line_start[i]}..{line_end[i]}"),
        ])
        return record_lines

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
    line_tables = [np.empty((0, len(LINE_COLUMNS)), dtype=np.int64)]
    records = []
    for rank, (doc_id, img) in enumerate(pages):
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
        numbers = np.arange(len(bands))
        line_tables.append(
            np.column_stack((np.full(len(bands), rank), numbers, starts, ends, tops, bottoms))
        )
        for line_idx, band in enumerate(bands):
            for word_idx, b in enumerate(segment_words(img, band, gap_factor)):
                records.append((rank, line_idx, word_idx, b.x1, b.y1, b.x2, b.y2))
    record_table = np.array(records, dtype=np.int64).reshape(-1, len(RECORD_COLUMNS))
    return WordIndex._from_columns(
        ref_font, docs, np.concatenate(line_tables), record_table, [None] * len(records)
    )


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

    The rows are split once and classified by kind; each L line is numbered
    within its page and each W line within its text line by cumulative
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

    # Rank of each row's page, and numbers of its line within the page and
    # its word within the line, from counts of the DOC, L and W lines so far.
    page = np.cumsum(is_doc) - 1
    lines_so_far = np.cumsum(is_line)
    line_in_page = lines_so_far - np.maximum.accumulate(np.where(is_doc, lines_so_far, 0)) - 1
    words_so_far = np.cumsum(is_word)
    word_in_line = words_so_far - np.maximum.accumulate(np.where(is_line, words_so_far, 0)) - 1
    first_bad(is_line & (page < 0), lambda i: "L line before any DOC line")
    first_bad(is_word & (line_in_page < 0), lambda i: "W line before its page's first L line")

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
    cached = [wst for wst in tokens if wst is not None]
    if not (all(cached) and set("".join(cached)) <= _WST_ALPHABET):
        bad = np.array([wst is not None and not _valid_wst(wst) for wst in tokens])
        first_bad(bad, lambda n: f"invalid shape token {tokens[n]!r}", word_at)

    if errors:
        row, _, message = min(errors)
        raise IndexFormatError(message, row + 3)

    line_table = np.column_stack((page[line_at], line_in_page[line_at], line_values))
    record_table = np.column_stack(
        (page[word_at], line_in_page[word_at], word_in_line[word_at], word_values)
    )
    try:
        return WordIndex._from_columns(ref_font, docs, line_table, record_table, tokens)
    except IndexInvariantError as exc:
        is_kind = {"doc": is_doc, "line": is_line, "record": is_word}[exc.kind]
        raise IndexFormatError(str(exc), int(np.flatnonzero(is_kind)[exc.position]) + 3) from None

