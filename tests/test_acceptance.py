"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines alongside pytest's own output.
"""

import functools
import itertools
import random
import time

import pytest

from glyphs import (
    compose_page,
    default_word_gap,
    metrics,
    word_pixel_width,
    word_symbols,
)
from indexfile import index_file, index_text
from wordspot.index import (
    REF_FONT,
    SIZE_CODES,
    DocEntry,
    WordIndex,
    _size_class_numbers,
    build_index,
    load_index,
    normalize_length,
    save_index,
)
from wordspot.search import distances, levenshtein, search
from wordspot.segment import (
    WordBox,
    default_noise_threshold,
    row_profile,
    segment_lines,
    segment_words,
)
from wordspot.shapecode import SHAPE_CODE_ROWS, query_to_wst


def report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] {name}{suffix}")


# --------------------------------------------------------------------------
# Edit distance


@functools.lru_cache(maxsize=None)
def reference_distance(a: str, b: str) -> int:
    """Textbook recursive definition, memoized; independent of the DP code."""
    if not a:
        return len(b)
    if not b:
        return len(a)
    return min(
        reference_distance(a[:-1], b) + 1,
        reference_distance(a, b[:-1]) + 1,
        reference_distance(a[:-1], b[:-1]) + (a[-1] != b[-1]),
    )


def all_tokens(max_len: int) -> list[str]:
    return [
        "".join(p)
        for n in range(max_len + 1)
        for p in itertools.product("Axg", repeat=n)
    ]


def test_levenshtein_oracle_equivalence():
    started = time.perf_counter()
    tokens = all_tokens(5)
    assert len(tokens) == 364
    # Every pair through one batched DP per query token; `levenshtein`, its
    # one-word case, on every pair of tokens up to length 3.
    mismatches = 0
    for a in tokens:
        got = distances(a, tokens).tolist()
        mismatches += sum(d != reference_distance(a, b) for d, b in zip(got, tokens))
    short = all_tokens(3)
    mismatches += sum(levenshtein(a, b) != reference_distance(a, b) for a in short for b in short)
    elapsed = time.perf_counter() - started
    ok = mismatches == 0 and elapsed < 10.0
    report(
        "levenshtein oracle equivalence",
        ok,
        f"{len(tokens) ** 2} pairs, {mismatches} mismatches, {elapsed:.2f}s",
    )
    assert mismatches == 0
    assert elapsed < 10.0


def test_levenshtein_metric_properties():
    rng = random.Random(20240)
    violations = 0
    for _ in range(10_000):
        a, b, c = (
            "".join(rng.choice("Axg") for _ in range(rng.randint(0, 10)))
            for _ in range(3)
        )
        dab = levenshtein(a, b)
        if dab < 0:
            violations += 1
        if (dab == 0) != (a == b):
            violations += 1
        if dab != levenshtein(b, a):
            violations += 1
        if levenshtein(a, c) > dab + levenshtein(b, c):
            violations += 1
    report("levenshtein metric properties", violations == 0,
           f"10000 triples, {violations} violations")
    assert violations == 0


# --------------------------------------------------------------------------
# Length normalization and size classes


def test_normalization_scale_invariance():
    rng = random.Random(20241)
    worst = 0
    for _ in range(1_000):
        height = rng.randint(10, 200)
        length = rng.randint(10, 600)
        base = normalize_length(length, height)
        for s in (2, 3, 5):
            worst = max(worst, abs(normalize_length(s * length, s * height) - base))
        assert normalize_length(length, REF_FONT) == length
    report("normalization scale invariance", worst <= 1,
           f"1000 samples, max rounding drift {worst}")
    assert worst <= 1


def test_size_class_boundaries():
    inputs = [0, 79, 80, 239, 240, 319, 320, 479, 480, 481]
    expected = ["VS", "VS", "S", "S", "M", "M", "L", "L", "VL", "VL"]
    got = [SIZE_CODES[n] for n in _size_class_numbers(inputs).tolist()]
    report("size class boundaries", got == expected, " ".join(got))
    assert got == expected


# --------------------------------------------------------------------------
# Shape code table


def test_shape_table_completeness():
    letters = [c for _, row in SHAPE_CODE_ROWS for c in row]
    ok_cover = len(letters) == 52 and len(set(letters)) == 52
    token = query_to_wst("transformation")
    ok_token = token == "AxxxxxxgxxxxxxxAxxxx" and len(token) == 20
    report("shape table completeness", ok_cover and ok_token,
           f"{len(set(letters))} letters, token {token}")
    assert ok_cover
    assert ok_token


# --------------------------------------------------------------------------
# Synthetic page fixtures


LETTER_POOL = "abcdefghijklmnopqrstuvwxyz"
ANCHOR = "dipped"  # two ascender and two descender bars on every line


def random_blocky_page(seed: int, width=1000, height=1400):
    rng = random.Random(seed)
    n_lines = rng.randint(5, 10)
    specs = []
    for _ in range(n_lines):
        font = rng.randint(20, 60)
        m = metrics(font)
        max_len = 4 if font >= 50 else (5 if font >= 40 else 6)
        target_words = rng.randint(4, 8)
        words = [ANCHOR]
        x = 30 + word_pixel_width(ANCHOR, m, connected=False)
        gap = default_word_gap(font)
        while len(words) < target_words:
            text = "".join(rng.choice(LETTER_POOL) for _ in range(rng.randint(3, max_len)))
            w = word_pixel_width(text, m, connected=False)
            if x + gap + w > width - 30:
                break
            words.append(text)
            x += gap + w
        rng.shuffle(words)
        specs.append((m, words))
    return compose_page(specs, width=width, height=height, connected=False)


def box_iou(a: WordBox, b: WordBox) -> float:
    ix = min(a.x2, b.x2) - max(a.x1, b.x1) + 1
    iy = min(a.y2, b.y2) - max(a.y1, b.y1) + 1
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    union = a.width * a.height + b.width * b.height - inter
    return inter / union


def test_segmentation_fidelity():
    total_words = 0
    worst_iou = 1.0
    slowest = 0.0
    for seed in range(20):
        layout = random_blocky_page(100 + seed)
        img = layout.image
        started = time.perf_counter()
        starts, ends = segment_lines(row_profile(img), default_noise_threshold(img.width))
        words = segment_words(img, starts, ends).tolist()
        recovered = [[WordBox(*box) for line, *box in words if line == n]
                     for n in range(len(starts))]
        slowest = max(slowest, time.perf_counter() - started)

        assert len(starts) == len(layout.boxes), f"seed {seed}: line count"
        assert 5 <= len(layout.boxes) <= 10
        for truth_line, got_line in zip(layout.boxes, recovered):
            assert 4 <= len(truth_line) <= 8
            assert len(truth_line) == len(got_line), f"seed {seed}: word count"
            for truth, got in zip(truth_line, got_line):
                worst_iou = min(worst_iou, box_iou(truth, got))
                total_words += 1
    ok = worst_iou >= 0.9 and slowest < 1.0
    report(
        "segmentation fidelity",
        ok,
        f"20 pages, {total_words} words, worst IoU {worst_iou:.3f}, "
        f"slowest page {slowest * 1000:.0f}ms",
    )
    assert worst_iou >= 0.9
    assert slowest < 1.0


# --------------------------------------------------------------------------
# Retrieval corpus: one planted rendering of each target among distractors

LONG_TARGETS = [
    "transformation",
    "paragraph",
    "employed",
    "handwriting",
    "important",
    "problem",
    "frequent",
    "morphology",
    "python",
    "thought",
]

SHORT_TARGETS = ["help", "drop", "pub", "grab"]

DISTRACTORS = [
    "station", "railway", "evening", "morning", "garden", "window",
    "little", "mountain", "river", "castle", "bridge", "yellow",
    "silver", "stone", "cloud", "forest", "meadow", "candle",
    "basket", "mirror", "letter", "number", "market", "sunday",
    "winter", "summer", "spring", "autumn", "circle", "square",
    "needle", "button", "ribbon", "velvet", "copper", "violin",
    "orange", "purple", "sun", "map", "ten", "red",
]


def retrieval_words_layout():
    """Single synthetic page holding every target once among the distractors."""
    words = LONG_TARGETS + SHORT_TARGETS + DISTRACTORS
    assert len(set(words)) == len(words)
    assert len(DISTRACTORS) >= 40
    # Rank-1 at distance 0 needs every long target's token to be unique.
    for target in LONG_TARGETS:
        token = word_symbols(target)
        clashes = [w for w in words if w != target and word_symbols(w) == token]
        assert not clashes, f"{target} shares its token with {clashes}"

    rng = random.Random(777)
    shuffled = rng.sample(words, len(words))
    m = metrics(40)
    gap = default_word_gap(40)
    lines, current, x = [], [], 30
    for text in shuffled:
        w = word_pixel_width(text, m)
        if current and x + gap + w > 1000 - 30:
            lines.append((m, current))
            current, x = [], 30
        if current:
            x += gap
        current.append(text)
        x += w
    if current:
        lines.append((m, current))
    return compose_page(lines, width=1000)


@pytest.fixture(scope="module")
def retrieval_corpus():
    layout = retrieval_words_layout()
    index = build_index([("page", layout.image)])
    positions = {
        text: (li, wi)
        for li, line in enumerate(layout.words)
        for wi, text in enumerate(line)
    }
    return layout, index, positions


def test_end_to_end_retrieval(retrieval_corpus):
    layout, index, positions = retrieval_corpus
    found_at_rank1 = 0
    for target in LONG_TARGETS:
        results = search(index, lambda doc: layout.image, target)
        assert results, f"{target}: no results"
        top = results[0]
        ok = (
            (top.record.line_idx, top.record.word_idx) == positions[target]
            and top.distance <= 2
        )
        assert ok, f"{target}: top={top}"
        found_at_rank1 += 1
    recall = found_at_rank1 / len(LONG_TARGETS)
    report(
        "end-to-end retrieval",
        recall == 1.0,
        f"{found_at_rank1}/{len(LONG_TARGETS)} targets at rank 1, recall {recall:.0%}",
    )
    assert recall == 1.0


def test_short_query_behavior(retrieval_corpus):
    layout, index, positions = retrieval_corpus
    recalls = []
    precisions = {}
    for target in SHORT_TARGETS:
        results = search(index, lambda doc: layout.image, target)
        keys = [(m.record.line_idx, m.record.word_idx) for m in results]
        hit = positions[target] in keys
        recalls.append(hit)
        precisions[target] = (1 / len(keys)) if keys else 0.0
        assert hit, f"{target}: planted instance not retrieved"
    detail = ", ".join(f"{t}: precision {p:.2f}" for t, p in precisions.items())
    report("short query behavior", all(recalls), f"recall 100%; {detail}")
    # Short tokens are mostly not unique: only recall is asserted, the
    # measured precision is reported above for documentation.
    assert all(recalls)


# --------------------------------------------------------------------------
# Persistence


def synthetic_index(n_records: int = 1000) -> WordIndex:
    """Records in page order: 5 pages of 20 lines of 10 words, each line a
    75-row band whose boxes start in its first 11 rows, left to right with
    0 to 20 columns before each."""
    rng = random.Random(20242)
    docs = [DocEntry(f"doc{d}", f"pages/doc{d}.pgm", 3200, 1600) for d in range(5)]
    lines = []
    words = []
    for i in range(n_records):
        page, rest = divmod(i, n_records // 5)
        line, word = divmod(rest, 10)
        top = 75 * line
        if word == 0:
            lines.append((page, top, top + 74, top + 20, top + 50))
            x1 = 0
        x1 += rng.randint(0, 20)
        y1 = top + rng.randint(0, 10)
        w = rng.randint(5, 299)
        h = rng.randint(8, 64)
        words.append((len(lines) - 1, x1, y1, x1 + w - 1, y1 + h - 1))
        x1 += w
    return WordIndex(docs, lines, words)


def test_persistence_round_trip():
    index = synthetic_index(1000)
    data = save_index(index)
    again = load_index(data)
    ok_fields = again == index

    lines = index_text(data).decode().split("\n")
    bad_line_no = 300
    lines[bad_line_no - 1] = lines[bad_line_no - 1] + " extra"
    from wordspot.index import IndexFormatError

    try:
        load_index(index_file("\n".join(lines)))
        rejected = False
        line_named = False
    except IndexFormatError as exc:
        rejected = True
        line_named = exc.line == bad_line_no
    ok = ok_fields and rejected and line_named
    report(
        "persistence round trip",
        ok,
        f"1000 records field-exact: {ok_fields}; "
        f"malformed line rejected at {bad_line_no}: {rejected and line_named}",
    )
    assert ok_fields
    assert rejected and line_named
