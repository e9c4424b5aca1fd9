"""Query answering: size prefilter, lazy shape tokens, ranked edit distance.

A text query is answered in two passes. The size prefilter keeps only
records whose normalized pixel length is within one expected character width
of the query's, scanning just the size-class buckets that can intersect that
interval. Survivors are compared by Levenshtein distance between the query's
shape token and the word image's (computed lazily and cached on the record).
Each distinct word token is scored once per query, and a token whose length
differs from the query token's by more than the threshold is rejected
without a DP: the edit distance is at least the length difference.

A word is encoded against the line band and x-height zones its index
records, so a query loads the pages of its candidates but segments none.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .index import LineEntry, SizeClass, WordIndex, WordRecord, classify_size
from .pnm import BinaryImage
from .shapecode import NoInkError, query_to_wst, word_to_wst

DEFAULT_THRESHOLD = 2.5
DEFAULT_CHAR_WIDTH = 40

PageProvider = Callable[[str], BinaryImage]


class MissingPageError(OSError):
    """A candidate needed its page image and it could not be provided."""

    def __init__(self, doc_id: str, reason: str = ""):
        detail = f": {reason}" if reason else ""
        super().__init__(f"cannot load page image for doc {doc_id!r}{detail}")
        self.doc_id = doc_id


@dataclass(frozen=True)
class SearchParams:
    threshold: float = DEFAULT_THRESHOLD
    char_width: int = DEFAULT_CHAR_WIDTH

    def __post_init__(self):
        if self.threshold < 0:
            raise ValueError("threshold must be >= 0")
        if self.char_width < 1:
            raise ValueError("char_width must be >= 1")


@dataclass
class MatchResult:
    record: WordRecord
    distance: int


def levenshtein(a: str, b: str) -> int:
    """Unit-cost edit distance, O(len(a)*len(b)) time, two-row space."""
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            current.append(
                min(
                    previous[j] + 1,  # delete from a
                    current[j - 1] + 1,  # insert into a
                    previous[j - 1] + (ca != cb),
                )
            )
        previous = current
    return previous[-1]


def size_prefilter(
    index: WordIndex, query_len: int, params: SearchParams | None = None
) -> list[WordRecord]:
    """Records whose normalized length is within +/- one character width of
    the query's expected pixel length. Only buckets intersecting the interval
    are scanned."""
    if query_len < 1:
        raise ValueError("query_len must be >= 1")
    if params is None:
        params = SearchParams()
    lo = max(0, (query_len - 1) * params.char_width)
    hi = (query_len + 1) * params.char_width
    first, last = classify_size(lo), classify_size(hi)
    out = []
    for cls in range(first, last + 1):
        for norm, rec in index.buckets[SizeClass(cls)]:
            if lo <= norm <= hi:
                out.append(rec)
    return out


def _load(provider: PageProvider, doc_id: str) -> BinaryImage:
    try:
        return provider(doc_id)
    except MissingPageError:
        raise
    except (OSError, KeyError, LookupError) as exc:
        raise MissingPageError(doc_id, str(exc)) from exc


def _encode(page: BinaryImage, line: LineEntry, rec: WordRecord) -> str:
    try:
        return word_to_wst(page, line.band, rec.box, zones=line.zones)
    except NoInkError:
        b = rec.box
        raise MissingPageError(
            rec.doc_id,
            f"no ink in word box {b.x1} {b.y1} {b.x2} {b.y2} "
            f"(line {rec.line_idx}, word {rec.word_idx}) recorded by the index",
        ) from None


def search(
    index: WordIndex,
    load_page: PageProvider,
    text: str,
    params: SearchParams | None = None,
) -> list[MatchResult]:
    """Ranked matches for a text query.

    Candidates come from the size prefilter; each candidate without a cached
    shape token gets one computed from its page image and the line the index
    records for it (cached write-once on the in-memory record). A candidate
    whose token length differs from the query token's by more than
    params.threshold is rejected without a DP, since the edit distance is at
    least that difference; every other distinct token is scored once per
    query. Matches at distance <= params.threshold are returned ordered by
    distance, then (doc_id, line_idx, word_idx).
    """
    if params is None:
        params = SearchParams()
    if not text:
        raise ValueError("query text must be non-empty")
    query = query_to_wst(text)

    pages: dict[str, BinaryImage] = {}
    distances: dict[str, int] = {}

    results = []
    for rec in size_prefilter(index, len(text), params):
        if rec.wst is None:
            page = pages.get(rec.doc_id)
            if page is None:
                page = pages[rec.doc_id] = _load(load_page, rec.doc_id)
            rec.wst = _encode(page, index.line_of(rec), rec)
        if abs(len(rec.wst) - len(query)) > params.threshold:
            continue
        distance = distances.get(rec.wst)
        if distance is None:
            distance = distances[rec.wst] = levenshtein(query, rec.wst)
        if distance <= params.threshold:
            results.append(MatchResult(rec, distance))

    results.sort(
        key=lambda m: (m.distance, m.record.doc_id, m.record.line_idx, m.record.word_idx)
    )
    return results


def format_result(match: MatchResult) -> str:
    """One result line: `<distance> <doc_id> <line> <word> <x1> <y1> <x2> <y2>`."""
    r = match.record
    b = r.box
    return f"{match.distance} {r.doc_id} {r.line_idx} {r.word_idx} {b.x1} {b.y1} {b.x2} {b.y2}"
