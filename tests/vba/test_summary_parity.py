"""Parity: the one-pass ``summarize`` against the token-walking oracle.

Every :class:`~repro.vba.analyzer.AnalysisSummary` field must be
bit-identical (same type, same dtype, same values), and so must the V and J
feature matrices built from the summaries.  The linear replacements for the
procedure-body regex and the words-in-comment search are checked against
the expressions they replace.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.features import get_feature_set
from repro.vba import analyzer
from repro.vba.analyzer import analyze, summarize
from tests.vba.oracle_collect import oracle_analyze
from tests.vba.oracle_summary import (
    _FUNCTION_BODY_PATTERN,
    _is_human_readable,
    oracle_summarize,
)


def assert_same_summary(source: str) -> None:
    assert_same_fields(
        summarize(analyze(source)), oracle_summarize(oracle_analyze(source))
    )


def assert_same_fields(new, old) -> None:
    for field in dataclasses.fields(new):
        mine, theirs = getattr(new, field.name), getattr(old, field.name)
        assert type(mine) is type(theirs), field.name
        if isinstance(mine, np.ndarray):
            assert mine.dtype == theirs.dtype, field.name
            assert np.array_equal(mine, theirs), field.name
        else:
            assert mine == theirs, field.name


_VBA_PIECES = [
    "Sub ", "Function ", "Public ", "Private ", "End Sub", "End Function",
    "end sub", "f", "x", "(", ")", "((", "))", ", ", " & ", " + ", " = ",
    '"s"', '"a""b"', "' note", "'Rem", "Rem x", " _\n", "\n", "\r\n", "\t",
    "  ", "rjzybhqrliy", "Hello", "Chr(65)", "CStr", "Shell", ".", "1.5",
]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(_VBA_PIECES), max_size=60).map("".join))
def test_vba_shaped_sources(source):
    assert_same_summary(source)


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=200))
def test_arbitrary_text(source):
    assert_same_summary(source)


def test_corpora_summaries_and_feature_matrices(corpus_sources):
    new = [summarize(analyze(source)) for source in corpus_sources]
    old = [oracle_summarize(oracle_analyze(source)) for source in corpus_sources]
    for mine, theirs in zip(new, old):
        assert_same_fields(mine, theirs)
    for name in ("V", "J"):
        feature_set = get_feature_set(name)
        assert np.array_equal(
            feature_set.extract_matrix(new), feature_set.extract_matrix(old)
        )


# ----------------------------------------------------------------------
# The linear replacements, against the expressions they replace.

_BODY_PIECES = [
    "Sub", "sub", "Function", "Public", "Private", "End", "End Sub",
    "End Function", "END SUB", " ", "\t", "\n", "\r\n", "p", "x1", "()",
]


def _regex_bodies(source):
    matches = list(_FUNCTION_BODY_PATTERN.finditer(source))
    return len(matches), sum(m.end(1) - m.start(1) for m in matches)


@settings(max_examples=1500, deadline=None)
@given(st.lists(st.sampled_from(_BODY_PIECES), max_size=30).map("".join))
def test_procedure_body_scan_matches_the_regex(source):
    assert analyzer._procedure_bodies(source) == _regex_bodies(source)


@settings(max_examples=500, deadline=None)
@given(
    st.text(alphabet="ab_&\n '", max_size=80),
    st.lists(st.text(alphabet="ab_&", min_size=1, max_size=6), max_size=20),
)
def test_suffix_automaton_is_substring_search(text, words):
    automaton = analyzer._SuffixAutomaton(text)
    for word in words:
        assert automaton.contains(word) == (word in text)


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet="abcdeiouxyzAEIOUXYZ019_$#@%!&", max_size=20))
def test_readability_matches_the_oracle(word):
    assert analyzer._is_human_readable(word) == _is_human_readable(word)
