"""Query answering: size prefilter, lazy shape tokens, ranked edit distance.

A text query is answered in two passes. The size prefilter keeps only
records whose normalized pixel length is within one character width,
CHAR_WIDTH pixels at `index.REF_FONT` (the size scale of every index, whose
files all record `K 60`), of the query's expected length: two binary
searches in the index's records sorted by that length.
Survivors are compared by Levenshtein distance between the query's
shape token and the word image's, computed when a query first needs it and
kept in the index's `tokens` for the rest of the process; no index file
stores one.
A token whose length differs from the query token's by more than the
threshold is rejected without a DP: the edit distance is at least the
length difference. The distinct tokens left are scored in one `distances`
call, a numpy DP over all of them at once that steps through the query's
symbols; `levenshtein` is its one-word case.

A word is encoded against the line band and x-height zones its index
records, so a query segments no page. All survivors without a token are
encoded in one `word_to_wst` call from the index's line and word rows. It
loads each page that holds them once, as a gray image (the command line
maps the page file, so only the rows under their boxes are read), takes
ink only inside their boxes, and releases the page before it loads the
next; a page of another size than the index records is refused. Objects
for records are built only for the matches.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .index import DocEntry, WordIndex, WordRecord
from .pnm import BinaryImage, GrayImage
from .shapecode import NoInkError, query_to_wst, word_to_wst

DEFAULT_THRESHOLD = 2.5
# The expected width of one character, in pixels at the reference font.
CHAR_WIDTH = 40

# A gray page, or a binarized one; both give the same tokens.
PageProvider = Callable[[str], GrayImage | BinaryImage]


class MissingPageError(OSError):
    """A candidate needed its page image and it could not be provided."""

    def __init__(self, doc_id: str, reason: str = ""):
        detail = f": {reason}" if reason else ""
        super().__init__(f"cannot load page image for doc {doc_id!r}{detail}")
        self.doc_id = doc_id


def check_threshold(threshold: float) -> None:
    """Refuse an edit-distance threshold below 0, or NaN."""
    # Written so that NaN fails too.
    if not threshold >= 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")


@dataclass
class MatchResult:
    record: WordRecord
    distance: int


def distances(query: str, words: Sequence[str]) -> np.ndarray:
    """Unit-cost edit distance from `query` to each of `words`, as an int
    array in word order, from one dynamic program over all the words.

    Words are compared as code points and padded to the longest word. Row j
    of the table holds, for every word, the distance between the query's
    first i symbols and the word's first j, less i + j: in that frame a
    deletion or an insertion costs 0, a substitution -1 and a match -2.
    Each query symbol takes one substitution/deletion step over all rows
    and one insertion pass, a running minimum down them. A row depends only
    on the rows above it, so padding never feeds a word's distance, which
    is read at its own length.
    """
    lengths = [len(word) for word in words]
    width = max(lengths, default=0)
    padded = "".join([word.ljust(width) for word in words])
    symbols = np.frombuffer(padded.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
    symbols = symbols.reshape(len(words), width).T.copy()
    # The step cost of each of the query's distinct symbols, against every
    # word symbol.
    alphabet = sorted(set(query))
    codes = np.array([ord(symbol) for symbol in alphabet], dtype=np.uint32)
    costs = dict(zip(alphabet, np.where(symbols == codes[:, None, None], -2, -1)))
    table, step = np.zeros((2, width + 1, len(words)), dtype=np.intp)
    # Row j of a step comes from rows j - 1 (substitution) and j (deletion).
    above, below, steps = table[:-1], table[1:], step[1:]
    for symbol in query:
        np.add(above, costs[symbol], out=steps)
        np.minimum(steps, below, out=steps)
        np.minimum.accumulate(step, axis=0, out=table)
    ends = np.array(lengths, dtype=np.intp)
    return table[ends, np.arange(len(words))] + ends + len(query)


def levenshtein(a: str, b: str) -> int:
    """Unit-cost edit distance of two strings: `distances` of one word.
    The distance is symmetric, so the shorter string is made the query,
    whose symbols the DP steps through."""
    if len(b) < len(a):
        a, b = b, a
    return int(distances(a, [b])[0])


def size_prefilter(index: WordIndex, query_len: int) -> np.ndarray:
    """Positions, in record order, of the records whose normalized length is
    within +/- CHAR_WIDTH of the query's expected pixel length."""
    if query_len < 1:
        raise ValueError("query_len must be >= 1")
    lo = max(0, (query_len - 1) * CHAR_WIDTH)
    hi = (query_len + 1) * CHAR_WIDTH
    first = np.searchsorted(index.sorted_lengths, lo, side="left")
    last = np.searchsorted(index.sorted_lengths, hi, side="right")
    return np.sort(index.length_order[first:last])


def _load(provider: PageProvider, doc: DocEntry) -> GrayImage | BinaryImage:
    try:
        page = provider(doc.doc_id)
    except MissingPageError:
        raise
    except (OSError, LookupError) as exc:
        raise MissingPageError(doc.doc_id, str(exc)) from exc
    # The index's boxes describe only a page of the size it records.
    if (page.width, page.height) != (doc.width, doc.height):
        sizes = f"page is {page.width}x{page.height}, index recorded {doc.width}x{doc.height}"
        raise MissingPageError(doc.doc_id, sizes)
    return page


def encode_missing(index: WordIndex, load_page: PageProvider, positions: list[int]) -> None:
    """Fill the token of each record at `positions` in one `word_to_wst`
    call, against the body rows and band heights of their lines. Pages are
    loaded in record order, each once, as the call reaches their words, and
    each is released before the next is loaded.

    A page whose size differs from the one the index recorded raises
    MissingPageError before any of its boxes is read. So does a box without
    ink on its page, naming the first such record in record order, its box,
    line and word. Neither loads a later page.
    """
    if not len(positions):
        return
    positions = np.sort(np.asarray(positions, dtype=np.int64))
    words = index.words[positions]
    lines = index.lines[words[:, 0]]
    # Words are in page order, so each page's words are one run of them.
    bounds = np.flatnonzero(np.diff(lines[:, 0], prepend=-1)).tolist() + [len(positions)]

    # The generator keeps no page: each is yielded straight from its load.
    pages = (
        (_load(load_page, index.docs[lines[first, 0]]), end - first)
        for first, end in zip(bounds, bounds[1:])
    )
    try:
        tokens = word_to_wst(pages, words[:, 1:], lines[:, 3:], lines[:, 2] - lines[:, 1] + 1)
    except NoInkError as exc:
        record = index.record(int(positions[exc.position]))
        box = record.box
        raise MissingPageError(
            record.doc_id,
            f"no ink in word box {box.x1} {box.y1} {box.x2} {box.y2} "
            f"(line {record.line_idx}, word {record.word_idx}) recorded by the index",
        ) from None
    for position, token in zip(positions.tolist(), tokens):
        index.tokens[position] = token


def search(
    index: WordIndex,
    load_page: PageProvider,
    text: str,
    threshold: float = DEFAULT_THRESHOLD,
) -> list[MatchResult]:
    """Ranked matches for a text query.

    Candidates come from the size prefilter; each candidate without a cached
    shape token gets one computed from its page image and the line the index
    records for it (cached write-once in `index.tokens`); a page that
    `load_page` cannot give, or gives at another size than the index
    records, raises MissingPageError. A candidate whose token length differs
    from the query token's by more than `threshold` is rejected without a
    DP, since the edit distance is at least that difference; the other
    distinct tokens are scored in one `distances` call. Matches at distance
    <= `threshold` are returned ordered by distance, then (doc_id, line_idx,
    word_idx).
    """
    check_threshold(threshold)
    if not text:
        raise ValueError("query text must be non-empty")
    query = query_to_wst(text)

    survivors = size_prefilter(index, len(text)).tolist()
    tokens = index.tokens
    encode_missing(index, load_page, [p for p in survivors if tokens[p] is None])

    gated = [p for p in survivors if abs(len(tokens[p]) - len(query)) <= threshold]
    scored = list(dict.fromkeys(tokens[p] for p in gated))
    scores = dict(zip(scored, distances(query, scored).tolist()))
    results = [
        MatchResult(index.record(p), scores[tokens[p]])
        for p in gated
        if scores[tokens[p]] <= threshold
    ]
    results.sort(
        key=lambda m: (m.distance, m.record.doc_id, m.record.line_idx, m.record.word_idx)
    )
    return results


def format_result(match: MatchResult) -> str:
    """One result line: `<distance> <doc_id> <line> <word> <x1> <y1> <x2> <y2>`."""
    r = match.record
    b = r.box
    return f"{match.distance} {r.doc_id} {r.line_idx} {r.word_idx} {b.x1} {b.y1} {b.x2} {b.y2}"
