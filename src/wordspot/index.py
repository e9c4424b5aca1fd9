"""Word records, size classification, and the searchable index.

A record holds only where its word is (doc, line, word, box) and its cached
shape token. The word's length is normalized to a reference font size from
its box, so that one pixel-length scale applies across documents with
varying handwriting sizes, and records are bucketed into five size classes
for fast query prefiltering; both are derived by WordIndex, never stored.

Index file format (UTF-8, LF, space-separated fields):

    WSIDX 2
    K <ref_font_pixels>
    DOC <doc_id> <path> <width> <height>
    W <doc_id> <line_idx> <word_idx> <x1> <y1> <x2> <y2> <wst>

wst is a string over {A, x, g} or `-` when not cached. doc_id and path are
percent-encoded so they never contain whitespace. Files of another version
are refused; rebuild them with `wordspot index`.
"""

from __future__ import annotations

import enum
import urllib.parse
from bisect import bisect_right
from dataclasses import dataclass, field

from .pnm import BinaryImage
from .segment import (
    DEFAULT_GAP_FACTOR,
    WordBox,
    row_profile,
    segment_lines,
    segment_words,
)

DEFAULT_REF_FONT = 60

# Lower-inclusive size class boundaries in normalized pixels.
SIZE_BOUNDS = (80, 240, 320, 480)

FORMAT_MAGIC = "WSIDX"
FORMAT_VERSION = 2


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
    """A WordIndex entry breaks an index invariant. `kind` is "doc" or
    "record" and `position` the entry's place in that list."""

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
    return SizeClass(bisect_right(SIZE_BOUNDS, norm_length))


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


@dataclass(eq=False)
class WordIndex:
    """All word records of a document set, bucketed by size class.

    Each bucket holds (normalized length, record) pairs in record order; the
    length comes from the record's box and `ref_font`.
    """

    ref_font: int
    docs: list[DocEntry]
    records: list[WordRecord]
    buckets: dict[SizeClass, list[tuple[int, WordRecord]]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        """Checks every invariant across entries, once; `load_index` maps an
        IndexInvariantError back to the offending line."""
        if self.ref_font < 1:
            raise ValueError("ref_font must be >= 1")
        page_sizes = {}
        for position, doc in enumerate(self.docs):
            if doc.doc_id in page_sizes:
                raise IndexInvariantError(f"duplicate doc_id {doc.doc_id!r}", "doc", position)
            page_sizes[doc.doc_id] = (doc.width, doc.height)
        seen_words = set()
        self.buckets = {cls: [] for cls in SizeClass}
        for position, rec in enumerate(self.records):
            key = (rec.doc_id, rec.line_idx, rec.word_idx)
            if key in seen_words:
                raise IndexInvariantError(f"duplicate word key {key}", "record", position)
            seen_words.add(key)
            size = page_sizes.get(rec.doc_id)
            if size is None:
                raise IndexInvariantError(
                    f"record {key}: unknown doc {rec.doc_id!r}", "record", position
                )
            box = rec.box
            if not (0 <= box.x1 and box.x2 < size[0] and 0 <= box.y1 and box.y2 < size[1]):
                raise IndexInvariantError(
                    f"record {key}: box x {box.x1}..{box.x2}, y {box.y1}..{box.y2} "
                    f"outside its page of {size[0]}x{size[1]}",
                    "record",
                    position,
                )
            norm = normalize_length(box.width, box.height, self.ref_font)
            self.buckets[classify_size(norm)].append((norm, rec))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WordIndex):
            return NotImplemented
        return (
            self.ref_font == other.ref_font
            and self.docs == other.docs
            and self.records == other.records
        )


def build_index(
    pages: list[tuple[str, BinaryImage]],
    ref_font: int = DEFAULT_REF_FONT,
    *,
    gap_factor: float = DEFAULT_GAP_FACTOR,
    noise_threshold: int | None = None,
    source_paths: dict[str, str] | None = None,
) -> WordIndex:
    """Segment every page and index one record per word.

    Shape tokens are not computed here; they are filled lazily at query time.
    `source_paths` maps doc_id to the file the page came from (defaults to
    the doc_id itself) so that queries can reload page images.
    """
    docs = []
    records = []
    for doc_id, img in pages:
        path = (source_paths or {}).get(doc_id, doc_id)
        docs.append(DocEntry(doc_id, path, img.width, img.height))
        bands = segment_lines(row_profile(img), noise_threshold)
        for line_idx, band in enumerate(bands):
            for word_idx, box in enumerate(segment_words(img, band, gap_factor)):
                records.append(WordRecord(doc_id, line_idx, word_idx, box))
    return WordIndex(ref_font, docs, records)


def _encode(text: str) -> str:
    return urllib.parse.quote(text, safe="/.-_")


def _decode(text: str) -> str:
    return urllib.parse.unquote(text)


def save_index(index: WordIndex) -> bytes:
    """Serialize to the text index format; load_index inverts this exactly."""
    lines = [f"{FORMAT_MAGIC} {FORMAT_VERSION}", f"K {index.ref_font}"]
    for doc in index.docs:
        lines.append(
            f"DOC {_encode(doc.doc_id)} {_encode(doc.path)} {doc.width} {doc.height}"
        )
    for r in index.records:
        b = r.box
        lines.append(
            f"W {_encode(r.doc_id)} {r.line_idx} {r.word_idx} "
            f"{b.x1} {b.y1} {b.x2} {b.y2} {r.wst if r.wst is not None else '-'}"
        )
    return ("\n".join(lines) + "\n").encode("utf-8")


def _parse_int(token: str, what: str, line_no: int, lo: int = 0) -> int:
    try:
        value = int(token)
    except ValueError:
        raise IndexFormatError(f"malformed {what}: {token!r}", line_no) from None
    if value < lo:
        raise IndexFormatError(f"{what} {value} must be >= {lo}", line_no)
    return value


def load_index(data: bytes) -> WordIndex:
    """Parse index bytes; raises IndexFormatError naming the bad line.

    Lines are parsed one at a time; the invariants across entries (unique
    doc ids and word keys, records of a listed doc, boxes inside their
    page) are checked once, by WordIndex. When several lines are bad, a
    parse error is reported before an invariant error.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise IndexFormatError(f"index is not valid UTF-8: {exc}", 1) from None
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()

    if not lines or lines[0] != f"{FORMAT_MAGIC} {FORMAT_VERSION}":
        got = lines[0] if lines else ""
        raise IndexFormatError(
            f"expected header {FORMAT_MAGIC!r} version {FORMAT_VERSION}, got {got!r}", 1
        )
    if len(lines) < 2 or not lines[1].startswith("K "):
        raise IndexFormatError("expected reference font line 'K <pixels>'", 2)
    ref_font = _parse_int(lines[1][2:], "reference font size", 2, lo=1)

    docs: list[DocEntry] = []
    records: list[WordRecord] = []
    # Line numbers of the DOC and W lines, to name the line of an entry that
    # WordIndex finds inconsistent with the others.
    doc_lines: list[int] = []
    record_lines: list[int] = []

    for line_no, line in enumerate(lines[2:], start=3):
        fields = line.split(" ")
        kind = fields[0]
        if kind == "DOC":
            if len(fields) != 5:
                raise IndexFormatError(
                    f"DOC line needs 5 fields, got {len(fields)}", line_no
                )
            doc_id = _decode(fields[1])
            width = _parse_int(fields[3], "doc width", line_no, lo=1)
            height = _parse_int(fields[4], "doc height", line_no, lo=1)
            docs.append(DocEntry(doc_id, _decode(fields[2]), width, height))
            doc_lines.append(line_no)
        elif kind == "W":
            if len(fields) != 9:
                raise IndexFormatError(
                    f"record line needs 9 fields, got {len(fields)}", line_no
                )
            doc_id = _decode(fields[1])
            line_idx = _parse_int(fields[2], "line index", line_no)
            word_idx = _parse_int(fields[3], "word index", line_no)
            x1, y1, x2, y2 = (
                _parse_int(fields[i], name, line_no)
                for i, name in ((4, "x1"), (5, "y1"), (6, "x2"), (7, "y2"))
            )
            wst = None if fields[8] == "-" else fields[8]
            try:
                box = WordBox(x1, y1, x2, y2)
                records.append(WordRecord(doc_id, line_idx, word_idx, box, wst))
            except ValueError as exc:
                raise IndexFormatError(str(exc), line_no) from None
            record_lines.append(line_no)
        else:
            raise IndexFormatError(f"unknown line kind {kind!r}", line_no)

    try:
        return WordIndex(ref_font, docs, records)
    except IndexInvariantError as exc:
        line_nos = doc_lines if exc.kind == "doc" else record_lines
        raise IndexFormatError(str(exc), line_nos[exc.position]) from None
