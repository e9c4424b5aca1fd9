"""The names the `wordspot` package exports."""

import importlib

import wordspot
import wordspot.shapecode

SINGLE_WORD_HELPERS = ("char_region_segment", "classify_region", "estimate_zones")


def test_star_import_gives_exactly_the_names_in_all():
    namespace = {}
    exec("from wordspot import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(wordspot.__all__)
    for name in wordspot.__all__:
        assert namespace[name] is getattr(wordspot, name)


def test_single_word_helpers_live_in_shapecode_only():
    for name in SINGLE_WORD_HELPERS:
        assert name not in wordspot.__all__
        assert not hasattr(wordspot, name), name
        assert callable(getattr(wordspot.shapecode, name))


def test_levenshtein_lives_in_search_only():
    assert "levenshtein" not in wordspot.__all__
    assert not hasattr(wordspot, "levenshtein")
    # `wordspot.search` is the search function; the module is imported by name.
    search_module = importlib.import_module("wordspot.search")
    assert search_module.levenshtein("ab", "b") == 1
