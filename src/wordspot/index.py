"""Word records, text lines, size classification, and the searchable index.

A line holds its rows and x-height body band, against which queries encode
its words. A record holds only where its word is (doc, line, word, box) and
its cached shape token. The word's length is normalized to a reference font
size from its box, so that one pixel-length scale applies across documents
with varying handwriting sizes, and records are bucketed into five size
classes for fast query prefiltering; both are derived by WordIndex.

Index file format (UTF-8, LF, space-separated fields), nested by position:

    WSIDX 3
    K <ref_font_pixels>
    DOC <doc_id> <path> <width> <height>
    L <row_start> <row_end> <body_top> <body_bottom>
    W <x1> <y1> <x2> <y2> <wst>

DOC opens a page, L the page's next text line and W that line's next word;
line and word numbers are these positions, from 0. wst is a string over
{A, x, g} or `-` when not cached. doc_id and path (as file-system bytes)
are percent-encoded. Files of another version are refused; rebuild them.
"""

from __future__ import annotations

import enum
import os
import urllib.parse
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass, field

from .pnm import BinaryImage
from .segment import (
    DEFAULT_GAP_FACTOR,
    LineBand,
    WordBox,
    check_band,
    row_profile,
    segment_lines,
    segment_words,
)
from .shapecode import ZoneBands, zones_from_rows

DEFAULT_REF_FONT = 60

# Lower-inclusive size class boundaries in normalized pixels.
SIZE_BOUNDS = (80, 240, 320, 480)

FORMAT_MAGIC = "WSIDX"
FORMAT_VERSION = 3


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


def normalize_length(length: int, height: int, ref_font: int) -> int:
    """Word length rescaled to the reference font size, rounded half-up.

    Computed exactly in integer arithmetic: round(ref_font * length / height).
    """
    if length < 1 or height < 1 or ref_font < 1:
        raise ValueError(
            f"length, height and ref_font must be >= 1 "
            f"(got {length}, {height}, {ref_font})"
        )
    return (2 * ref_font * length + height) // (2 * height)


def classify_size(norm_length: int) -> SizeClass:
    """Map a normalized pixel length onto its size class (lower-inclusive)."""
    if norm_length < 0:
        raise ValueError(f"norm_length must be >= 0, got {norm_length}")
    return _SIZE_CLASSES[bisect_right(SIZE_BOUNDS, norm_length)]


# Indexing a tuple is several times faster than calling the enum, and every
# record is classified when an index is built or loaded.
_SIZE_CLASSES = tuple(SizeClass)


_WST_ALPHABET = set("Axg")


def _check_wst(wst: str | None) -> None:
    if wst is not None and (wst == "" or not set(wst) <= _WST_ALPHABET):
        raise ValueError(f"invalid shape token {wst!r}")


@dataclass
class WordRecord:
    """One segmented word: its place on its page and its cached token.

    `wst` is the only field mutated after construction: queries fill it
    lazily and the value is deterministic, so concurrent writes are benign.
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


def _page_order_key(rank: dict[str, int], previous: tuple, doc_id: str, *numbers: int):
    """(doc rank, *numbers) of an entry that must come right after `previous`
    (-1s before the first entry) in page order: the next number in the same
    group, or number 0 in a later group."""
    if doc_id not in rank:
        raise ValueError(f"unknown doc {doc_id!r}")
    key = (rank[doc_id], *numbers)
    if key[-1] != (previous[-1] + 1 if key[:-1] == previous[:-1] else 0) or key < previous:
        raise ValueError("out of page order")
    return key


@dataclass
class WordIndex:
    """All text lines and word records of a document set.

    Lines and records come in page order: pages in the order of `docs`, the
    lines of a page and the words of a line each numbered from 0.
    `page_lines` maps each doc id to its lines. Each bucket holds
    (normalized length, record) pairs in record order; the length comes from
    the record's box and `ref_font`.
    """

    ref_font: int
    docs: list[DocEntry]
    lines: list[LineEntry]
    records: list[WordRecord]
    page_lines: dict[str, list[LineEntry]] = field(init=False, repr=False, compare=False)
    buckets: dict[SizeClass, list[tuple[int, WordRecord]]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        """Checks every invariant across entries, once; `load_index` maps an
        IndexInvariantError back to the offending line."""
        if self.ref_font < 1:
            raise ValueError("ref_font must be >= 1")
        rank = {}
        for position, doc in enumerate(self.docs):
            if doc.doc_id in rank:
                raise IndexInvariantError(f"duplicate doc_id {doc.doc_id!r}", "doc", position)
            rank[doc.doc_id] = position
        self.page_lines = {doc.doc_id: [] for doc in self.docs}
        self.buckets = {cls: [] for cls in SizeClass}
        for kind, entries, add in (
            ("line", self.lines, self._add_line),
            ("record", self.records, self._add_record),
        ):
            previous = (-1, -1, -1)
            for position, entry in enumerate(entries):
                try:
                    previous = add(rank, previous, entry)
                except ValueError as exc:
                    message = f"{kind} {position}: {exc}"
                    raise IndexInvariantError(message, kind, position) from None

    def _add_line(self, rank, previous, line: LineEntry):
        key = _page_order_key(rank, previous, line.doc_id, line.line_idx)
        band, zones = line.band, line.zones
        check_band(band, self.docs[key[0]].height)
        if not band.row_start <= zones.body_top <= zones.body_bottom <= band.row_end:
            raise ValueError(f"body rows {zones.body_top}..{zones.body_bottom} outside its band")
        self.page_lines[line.doc_id].append(line)
        return key

    def _add_record(self, rank, previous, rec: WordRecord):
        key = _page_order_key(rank, previous, rec.doc_id, rec.line_idx, rec.word_idx)
        lines = self.page_lines[rec.doc_id]
        if rec.line_idx >= len(lines):
            raise ValueError(f"its page has {len(lines)} lines")
        width, band, box = self.docs[key[0]].width, lines[rec.line_idx].band, rec.box
        in_columns = 0 <= box.x1 and box.x2 < width
        if not (in_columns and band.row_start <= box.y1 and box.y2 <= band.row_end):
            raise ValueError(
                f"box x {box.x1}..{box.x2}, y {box.y1}..{box.y2} outside its page columns "
                f"0..{width - 1} or its line rows {band.row_start}..{band.row_end}"
            )
        norm = normalize_length(box.width, box.height, self.ref_font)
        self.buckets[classify_size(norm)].append((norm, rec))
        return key

    def line_of(self, rec: WordRecord) -> LineEntry:
        """The text line a record of this index lies in."""
        return self.page_lines[rec.doc_id][rec.line_idx]


def build_index(
    pages: list[tuple[str, BinaryImage]],
    ref_font: int = DEFAULT_REF_FONT,
    *,
    gap_factor: float = DEFAULT_GAP_FACTOR,
    noise_threshold: int | None = None,
    source_paths: dict[str, str] | None = None,
) -> WordIndex:
    """Segment every page and index each text line and one record per word.

    A line's body band is found from the page's row counts with the default
    zone fraction. Shape tokens are not computed here; they are filled
    lazily at query time. `source_paths` maps doc_id to the file the page
    came from (defaults to the doc_id itself) so that queries can reload
    page images.
    """
    docs = []
    lines = []
    records = []
    for doc_id, img in pages:
        path = (source_paths or {}).get(doc_id, doc_id)
        docs.append(DocEntry(doc_id, path, img.width, img.height))
        profile = row_profile(img)
        for line_idx, band in enumerate(segment_lines(profile, noise_threshold)):
            lines.append(LineEntry(doc_id, line_idx, band, zones_from_rows(profile.counts, band)))
            for word_idx, box in enumerate(segment_words(img, band, gap_factor)):
                records.append(WordRecord(doc_id, line_idx, word_idx, box))
    return WordIndex(ref_font, docs, lines, records)


def _encode(text: str | bytes) -> str:
    return urllib.parse.quote(text, safe="/.-_")


def save_index(index: WordIndex) -> bytes:
    """Serialize to the text index format; load_index inverts this exactly."""
    out = [f"{FORMAT_MAGIC} {FORMAT_VERSION}", f"K {index.ref_font}"]
    words = defaultdict(list)
    for rec in index.records:
        words[rec.doc_id, rec.line_idx].append(rec)
    for doc in index.docs:
        # File-system bytes, so that a name that is not UTF-8 reloads the file.
        path = _encode(os.fsencode(doc.path))
        out.append(f"DOC {_encode(doc.doc_id)} {path} {doc.width} {doc.height}")
        for line in index.page_lines[doc.doc_id]:
            band, zones = line.band, line.zones
            out.append(f"L {band.row_start} {band.row_end} {zones.body_top} {zones.body_bottom}")
            for rec in words[doc.doc_id, line.line_idx]:
                b = rec.box
                out.append(f"W {b.x1} {b.y1} {b.x2} {b.y2} {rec.wst or '-'}")
    return ("\n".join(out) + "\n").encode("utf-8")


def _parse_int(token: str, what: str, line_no: int, lo: int = 0) -> int:
    try:
        value = int(token)
    except ValueError:
        raise IndexFormatError(f"malformed {what}: {token!r}", line_no) from None
    if value < lo:
        raise IndexFormatError(f"{what} {value} must be >= {lo}", line_no)
    return value


# The fields that follow the kind of each line of an index file.
_FIELDS = {
    "DOC": ("doc_id", "path", "doc width", "doc height"),
    "L": ("row_start", "row_end", "body_top", "body_bottom"),
    "W": ("x1", "y1", "x2", "y2", "wst"),
}


def load_index(data: bytes) -> WordIndex:
    """Parse index bytes; raises IndexFormatError naming the bad line.

    Lines are parsed one at a time, each L line numbered within its page and
    each W line within its text line; the invariants across entries (unique
    doc ids, bands inside their page, boxes inside their page and line) are
    checked once, by WordIndex. When several lines are bad, a parse error is
    reported before an invariant error.
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

    docs: list[DocEntry] = []
    lines: list[LineEntry] = []
    records: list[WordRecord] = []
    # Line numbers of the DOC, L and W lines, to name the line of an entry
    # that WordIndex finds inconsistent with the others.
    line_nos: dict[str, list[int]] = {kind: [] for kind in _FIELDS}
    line_idx = word_idx = -1

    for line_no, row in enumerate(rows[2:], start=3):
        kind, *fields = row.split(" ")
        names = _FIELDS.get(kind)
        if names is None:
            raise IndexFormatError(f"unknown line kind {kind!r}", line_no)
        if len(fields) != len(names):
            raise IndexFormatError(
                f"{kind} line needs {len(names) + 1} fields, got {len(fields) + 1}", line_no
            )
        if kind == "DOC":
            width, height = (_parse_int(fields[i], names[i], line_no, lo=1) for i in (2, 3))
            path = os.fsdecode(urllib.parse.unquote_to_bytes(fields[1]))
            docs.append(DocEntry(urllib.parse.unquote(fields[0]), path, width, height))
            line_idx = -1
        elif kind == "L" and not docs:
            raise IndexFormatError("L line before any DOC line", line_no)
        elif kind == "W" and line_idx < 0:
            raise IndexFormatError("W line before its page's first L line", line_no)
        else:
            a, b, c, d = (_parse_int(v, name, line_no) for v, name in zip(fields[:4], names))
            try:
                if kind == "L":
                    line_idx, word_idx = line_idx + 1, -1
                    band, zones = LineBand(a, b), ZoneBands(c, d)
                    lines.append(LineEntry(docs[-1].doc_id, line_idx, band, zones))
                else:
                    word_idx += 1
                    wst = None if fields[4] == "-" else fields[4]
                    box = WordBox(a, b, c, d)
                    records.append(WordRecord(docs[-1].doc_id, line_idx, word_idx, box, wst))
            except ValueError as exc:
                raise IndexFormatError(str(exc), line_no) from None
        line_nos[kind].append(line_no)

    try:
        return WordIndex(ref_font, docs, lines, records)
    except IndexInvariantError as exc:
        kind = {"doc": "DOC", "line": "L", "record": "W"}[exc.kind]
        raise IndexFormatError(str(exc), line_nos[kind][exc.position]) from None
