"""Seeded synthetic corpus: cursive pages with known ground truth.

Pages are laid out with `tests/glyphs.py` (connected block glyphs, so every
word's shape token and tight box are known exactly) and written as binary
PGM files. The program under test only ever sees those files and the index
files it builds from them; the ground truth stays on the benchmark's side.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from glyphs import compose_page, default_word_gap, metrics, word_pixel_width, word_symbols

PAGE_WIDTH = 2000
PAGE_HEIGHT = 1268
MARGIN = 30
LINE_GAP = 12
FONT_RANGE = (30, 60)
WORD_LENGTHS = (3, 11)
VOCABULARY_SIZE = 800


@dataclass(frozen=True)
class GroundTruthWord:
    doc_id: str
    line_idx: int
    word_idx: int
    text: str
    box: tuple[int, int, int, int]  # x1, y1, x2, y2, inclusive

    @property
    def key(self) -> tuple[str, int, int]:
        return (self.doc_id, self.line_idx, self.word_idx)


@dataclass
class Corpus:
    page_paths: list[str]  # relative to the working directory, doc_id = stem
    words: list[GroundTruthWord]

    @property
    def vocabulary(self) -> list[str]:
        """Distinct words that occur on the pages, in first-seen order."""
        return list(dict.fromkeys(w.text for w in self.words))


def make_vocabulary(rng: random.Random) -> list[str]:
    """Random lowercase words, lengths uniform over WORD_LENGTHS."""
    words: set[str] = set()
    while len(words) < VOCABULARY_SIZE:
        n = rng.randint(*WORD_LENGTHS)
        words.add("".join(rng.choice(string.ascii_lowercase) for _ in range(n)))
    return sorted(words)


def is_anchor(text: str) -> bool:
    # Two ascender and two descender bars keep every ascender and descender
    # row of the line above the default noise threshold (2 * 8 px > 10 px at
    # the smallest font), so `compose_page(validate=True)` always passes.
    symbols = word_symbols(text)
    return symbols.count("A") >= 2 and symbols.count("g") >= 2


def layout_lines(rng: random.Random, vocabulary: list[str], anchors: list[str]):
    """Line specs for one page: random font per line, one anchor word per line
    at a random position, the rest drawn uniformly from the vocabulary."""
    specs = []
    y = MARGIN
    while True:
        m = metrics(rng.randint(*FONT_RANGE))
        if y + m.font > PAGE_HEIGHT - MARGIN:
            return specs
        gap = default_word_gap(m.font)
        budget = PAGE_WIDTH - 2 * MARGIN
        anchor = rng.choice(anchors)
        line = [anchor]
        used = word_pixel_width(anchor, m)
        while True:
            text = rng.choice(vocabulary)
            w = word_pixel_width(text, m)
            if used + gap + w > budget:
                break
            line.append(text)
            used += gap + w
        line.insert(rng.randrange(len(line)), line.pop(0))
        specs.append((m, line))
        y += m.font + LINE_GAP


def pgm_bytes(bits: np.ndarray) -> bytes:
    """Binary PGM (P5, maxval 255): ink (bit 0) is black, background white."""
    h, w = bits.shape
    return f"P5\n{w} {h}\n255\n".encode("ascii") + (bits * 255).astype(np.uint8).tobytes()


def generate(seed: int, pages: int, out_dir: Path) -> Corpus:
    """Write `pages` PGM pages for `seed` under out_dir; return ground truth."""
    rng = random.Random(seed)
    vocabulary = make_vocabulary(rng)
    anchors = [w for w in vocabulary if is_anchor(w)]
    out_dir.mkdir(parents=True, exist_ok=True)
    paths, words = [], []
    for p in range(pages):
        doc_id = f"p{p:03d}"
        layout = compose_page(
            layout_lines(rng, vocabulary, anchors),
            width=PAGE_WIDTH,
            height=PAGE_HEIGHT,
            margin=MARGIN,
            line_gap=LINE_GAP,
            validate=True,
        )
        path = out_dir / f"{doc_id}.pgm"
        path.write_bytes(pgm_bytes(layout.image.bits))
        paths.append(str(path))
        for li, (line_words, line_boxes) in enumerate(zip(layout.words, layout.boxes)):
            for wi, (text, b) in enumerate(zip(line_words, line_boxes)):
                words.append(GroundTruthWord(doc_id, li, wi, text, (b.x1, b.y1, b.x2, b.y2)))
    return Corpus(paths, words)
