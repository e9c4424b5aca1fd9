"""Byte-for-byte pins of the CLI's outputs on a fixed two-page corpus.

Each digest is the sha256 of one output, recorded once from a known-good
build. A refactor that keeps every rule keeps every digest; a deliberate
change of output updates them in the same change and says so.
"""

import hashlib
import io

import numpy as np
import pytest

from glyphs import compose_page, metrics
from wordspot.cli import main
from wordspot.pnm import GrayImage, write_gray

PAGES = {
    "p40.pgm": (
        40,
        [["dipped", "help", "sauce"], ["drop", "tenth", "noon"], ["jumpy", "fig", "Hymn"]],
    ),
    "p60.pgm": (60, [["black", "quilt", "dog"], ["Lamp", "yoke", "hip"]]),
}
ABSENT = ["zebra", "mmmmmmmm", "A"]

DIGESTS = {
    "index file": "63d82d8c5b259af4456acc595429e37a370613b22917cf9661c767e282c77efc",
    "index stdout": "e8b55aba3438928170e17ef5f0ae3890209aa3009ee5ca9da38b9f2780a14329",
    "query stdin": "bffbb2b072512b60391dca90ad925fea680039feba870a881a80a96c7aa8eb60",
    "inspect p40.pgm rows": "215848e51ff3ee40e2ce095b959fbaf08298aadb11051caaf5338d41ecdbdbd7",
    "inspect p40.pgm cols": "b7829e1028024169852f0af02665340696c777f7d520a49b9eead3926efb948d",
    "inspect p40.pgm lines": "a6bc19101a32dbcbd7875764d569879b09c898419d15b652c56abf7705005c69",
    "inspect p40.pgm words": "0f6778b23c8ce3b9d0576434c4813e1cd938bdbdd31f923f7db4b60e09f58a21",
    "inspect p40.pgm zones": "522aecb3281de68c51a1d5e6556aea0190cd179bef184e4f0dbfb8be4d88ef37",
    "inspect p40.pgm wst": "e8e07dfa769a81dad7b2cd468e463dc73947b1c5483bbb36a09824e8e2672ddc",
    "inspect p60.pgm rows": "c85c6b443f901eeaabff1bd54a33a958f004125aece1d44a0a004af64449d04f",
    "inspect p60.pgm cols": "594cba90cac0e93c0578c0fea12ba57ec006185ea874b2a8d4aaec30a665bed4",
    "inspect p60.pgm lines": "0a5a688885a37a463e4c4746702a8a1524e26195a2990a1d84432d01e23befc2",
    "inspect p60.pgm words": "f17f9a9e30f791074d246b14fc526f123c52f6b39ef71533aae205ef08619efa",
    "inspect p60.pgm zones": "d710e9df9d222a40c914fec6e834f70a7fcc0a6427c13566795409a9a7173825",
    "inspect p60.pgm wst": "329fce119d4e8dc7a740f0403acfd0cbb8cad5ce0961d388420c7aa32f9e09ae",
    "inspect index lines": "4d35a27a6cd05ba193c52c5ff59a16e9f5934d9d8f111be1cfe0c18e175136e2",
    "inspect index words": "296d0bf58ac719b45c87ccff8c0af5a527967dfa08c0365561f347bbc5529a3c",
    "inspect index zones": "113f14d86eecd4698df9f3cb3b660710454f60c25629d509c9f0620d78ee2120",
    "inspect index wst": "b1cf9072d6b4310199cbe66271c5bc11853c6422947d36b5a2545e7f26ade1a2",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Digest of every pinned output, built from relative paths so that
    the index file does not depend on where the test runs."""
    root = tmp_path_factory.mktemp("pinned")
    for name, (font, lines) in PAGES.items():
        layout = compose_page([(metrics(font), words) for words in lines], width=900)
        bits = layout.image.bits.astype(np.uint16)
        gray = GrayImage(layout.image.width, layout.image.height, 255, bits * 255)
        (root / name).write_bytes(write_gray(gray))

    mp = pytest.MonkeyPatch()
    mp.chdir(root)
    digests = {}

    def run(key, argv, stdin=""):
        mp.setattr("sys.stdin", io.StringIO(stdin))
        out = io.StringIO()
        mp.setattr("sys.stdout", out)
        code = main(argv)
        assert code == 0, (key, code)
        digests[key] = _sha(out.getvalue().encode("utf-8"))

    try:
        run("index stdout", ["index", *PAGES, "--out", "pinned.wsidx"])
        digests["index file"] = _sha((root / "pinned.wsidx").read_bytes())
        words = [w for _, lines in PAGES.values() for line in lines for w in line]
        run("query stdin", ["query", "pinned.wsidx", "--stdin"], "\n".join(words + ABSENT))
        for what in ("rows", "cols", "lines", "words", "zones", "wst"):
            for name in PAGES:
                run(f"inspect {name} {what}", ["inspect", name, "--what", what])
        for what in ("lines", "words", "zones", "wst"):
            run(f"inspect index {what}", ["inspect", "pinned.wsidx", "--what", what])
    finally:
        mp.undo()
    return digests


@pytest.mark.parametrize("key", sorted(DIGESTS))
def test_output_is_pinned(outputs, key):
    assert outputs[key] == DIGESTS[key]
