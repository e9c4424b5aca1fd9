"""Index files from their text and back, for tests that write or read the
text by hand. An index file is one gzip member of its text; these use the
standard library's gzip module, not the writer and reader under test."""

import gzip


def index_file(text: str | bytes) -> bytes:
    """An index file whose text is `text`: one gzip member, mtime 0."""
    return gzip.compress(text.encode() if isinstance(text, str) else text, mtime=0)


def index_text(data: bytes) -> bytes:
    """The text of an index file's gzip member."""
    return gzip.decompress(data)
