"""Parity: the columnar ``_collect`` against the token-walking oracle.

The six lists :func:`~repro.vba.analyzer.analyze` collects (declared
identifiers, identifier uses, call sites with their names, lines and
member flags, string literals, comments and procedure names) must equal
what the oracle collects from the oracle lexer's tokens, on VBA-shaped
text, on arbitrary text and on whole synthetic corpora.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.vba.analyzer import analyze
from tests.vba.oracle_collect import oracle_analyze
from tests.vba.test_summary_parity import _VBA_PIECES

_LISTS = (
    "declared_identifiers",
    "identifier_uses",
    "call_sites",
    "string_literals",
    "comments",
    "procedure_names",
)

# Statements the collect walk treats specially: procedure headers with
# parameters, declarations, loops, Call, member calls, keyword builtins.
_STATEMENT_PIECES = [
    "Property Get ", "Property Let ", "Dim ", "Const ", "ReDim ", "Static ",
    "For ", "For Each ", "Each ", "Call ", "As ", "ByVal ", "Optional ",
    "String", "CStr(", "o.Run(", "obj.", "Mid", " = ", ", ", ":", "(1)",
]


def assert_same_lists(source: str) -> None:
    mine, theirs = analyze(source), oracle_analyze(source)
    for name in _LISTS:
        assert getattr(mine, name) == getattr(theirs, name), name


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(_VBA_PIECES), max_size=60).map("".join))
def test_vba_shaped_sources(source):
    assert_same_lists(source)


@settings(max_examples=400, deadline=None)
@given(
    st.lists(st.sampled_from(_VBA_PIECES + _STATEMENT_PIECES), max_size=60).map("".join)
)
def test_statement_shaped_sources(source):
    assert_same_lists(source)


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=200))
def test_arbitrary_text(source):
    assert_same_lists(source)


def test_corpora(corpus_sources):
    for source in corpus_sources:
        assert_same_lists(source)
