"""OCR-free word spotting for handwritten page images.

Pages are segmented into lines and words with projection profiles, each word
is encoded as a token over the shape alphabet {A, x, g}, and text queries are
answered by size prefiltering plus Levenshtein distance on shape tokens.
"""

__version__ = "0.1.0"

from .index import (
    REF_FONT,
    SIZE_CODES,
    DocEntry,
    IndexFormatError,
    WordIndex,
    WordRecord,
    build_index,
    load_index,
    normalize_length,
    save_index,
)
from .pnm import BinaryImage, GrayImage, PnmError, binarize, load_image, write_gray
from .search import (
    CHAR_WIDTH,
    MatchResult,
    MissingPageError,
    distances,
    format_result,
    search,
    size_prefilter,
)
from .segment import (
    WordBox,
    column_profile,
    row_profile,
    segment_lines,
    segment_words,
)
from .shapecode import (
    LETTER_CODES,
    NoInkError,
    UnsupportedCharacterError,
    query_to_wst,
    word_to_wst,
)

__all__ = [
    "BinaryImage",
    "CHAR_WIDTH",
    "DocEntry",
    "GrayImage",
    "IndexFormatError",
    "LETTER_CODES",
    "MatchResult",
    "MissingPageError",
    "NoInkError",
    "PnmError",
    "REF_FONT",
    "SIZE_CODES",
    "UnsupportedCharacterError",
    "WordBox",
    "WordIndex",
    "WordRecord",
    "binarize",
    "build_index",
    "column_profile",
    "distances",
    "format_result",
    "load_image",
    "load_index",
    "normalize_length",
    "query_to_wst",
    "row_profile",
    "save_index",
    "search",
    "segment_lines",
    "segment_words",
    "size_prefilter",
    "word_to_wst",
    "write_gray",
]
