"""Ground-truth oracle, and parsers that put the program's output in its form.

The oracle never calls the program. A generated word matches a query when
its ground-truth box has a normalized length round(60 * w / h) within
[(n - 1) * 40, (n + 1) * 40] for a query of n letters, and the shape token
of its text is within edit distance 2 of the query's token, computed here
with a plain full-matrix DP. Results are sorted by (distance, doc, line,
word). A result is a tuple (distance, doc_id, line, word, x1, y1, x2, y2),
the same fields the CLI prints on each result line; an op passes the gate
when its parsed results equal the oracle's list.
"""

from __future__ import annotations

from collections import Counter

from corpus import GroundTruthWord
from glyphs import word_symbols

REF_FONT = 60
CHAR_WIDTH = 40
MAX_DISTANCE = 2  # the program's default threshold is 2.5
SIZE_BOUNDS = (80, 240, 320, 480)
SIZE_CODES = ("VS", "S", "M", "L", "VL")

Result = tuple[int, str, int, int, int, int, int, int]


def edit_distance(a: str, b: str) -> int:
    """Unit-cost Levenshtein distance, full (len(a)+1) x (len(b)+1) table."""
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(len(a) + 1):
        table[i][0] = i
    for j in range(len(b) + 1):
        table[0][j] = j
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            table[i][j] = min(
                table[i - 1][j] + 1,
                table[i][j - 1] + 1,
                table[i - 1][j - 1] + (a[i - 1] != b[j - 1]),
            )
    return table[-1][-1]


def norm_length(width: int, height: int) -> int:
    """round(REF_FONT * width / height), halves rounded up, in integers."""
    return (2 * REF_FONT * width + height) // (2 * height)


def size_code(norm: int) -> str:
    return SIZE_CODES[sum(norm >= bound for bound in SIZE_BOUNDS)]


class Oracle:
    def __init__(self, words: list[GroundTruthWord]):
        self.words = words
        self._norms = [
            norm_length(w.box[2] - w.box[0] + 1, w.box[3] - w.box[1] + 1) for w in words
        ]
        self._tokens = [word_symbols(w.text) for w in words]
        self._distances: dict[tuple[str, str], int] = {}
        self._expected: dict[str, list[Result]] = {}

    def survivors(self, n: int) -> list[int]:
        """Indices of words that pass the size prefilter for an n-letter query."""
        lo, hi = max(0, (n - 1) * CHAR_WIDTH), (n + 1) * CHAR_WIDTH
        return [i for i, norm in enumerate(self._norms) if lo <= norm <= hi]

    def expected(self, query: str) -> list[Result]:
        cached = self._expected.get(query)
        if cached is not None:
            return cached
        q_token = word_symbols(query)
        out = []
        for i in self.survivors(len(query)):
            pair = (q_token, self._tokens[i])
            d = self._distances.get(pair)
            if d is None:
                d = self._distances[pair] = edit_distance(*pair)
            if d <= MAX_DISTANCE:
                w = self.words[i]
                out.append((d, w.doc_id, w.line_idx, w.word_idx, *w.box))
        out.sort(key=lambda r: r[:4])
        self._expected[query] = out
        return out

    def index_stdout(self) -> str:
        """What `wordspot index` prints: records per size class, then TOTAL."""
        counts = Counter(size_code(n) for n in self._norms)
        lines = [f"{code} {counts[code]}" for code in SIZE_CODES]
        lines.append(f"TOTAL {len(self.words)}")
        return "\n".join(lines) + "\n"

    def index_records(self) -> list[tuple]:
        """(doc_id, line, word, box) of every word, in index order."""
        return [(w.doc_id, w.line_idx, w.word_idx, w.box) for w in self.words]


def parse_query_stdout(text: str, query: str) -> list[Result] | None:
    """Result tuples from one `wordspot query` output block, or None when the
    block is malformed (wrong header, bad field, COUNT disagreeing)."""
    lines = text.split("\n")
    if len(lines) < 3 or lines[0] != f"Q {query}" or lines[-1] != "":
        return None
    body, count_line = lines[1:-2], lines[-2]
    if count_line != f"COUNT {len(body)}":
        return None
    results = []
    for line in body:
        fields = line.split(" ")
        if len(fields) != 8:
            return None
        try:
            d, line_idx, word_idx, x1, y1, x2, y2 = (
                int(fields[i]) for i in (0, 2, 3, 4, 5, 6, 7)
            )
        except ValueError:
            return None
        results.append((d, fields[1], line_idx, word_idx, x1, y1, x2, y2))
    return results


def search_results(matches) -> list[Result]:
    """Result tuples from a library `search()` return value."""
    out = []
    for m in matches:
        r, b = m.record, m.record.box
        out.append((m.distance, r.doc_id, r.line_idx, r.word_idx, b.x1, b.y1, b.x2, b.y2))
    return out
