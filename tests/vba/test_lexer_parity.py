"""Parity: the columnar regex lexer against the per-character oracle.

Every token must agree in kind, text, line and column, the final EOF token
included, on arbitrary text and on whole synthetic corpora.  The kind and
text columns themselves, and the tokens an analysis builds from them on
demand, must agree as well.
"""

import pickle
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.vba.analyzer import analyze
from repro.vba.lexer import lex_columns, tokenize
from repro.vba.tokens import Token, TokenKind
from tests.vba.oracle_lexer import oracle_tokenize

# Characters where the lexer's rules meet: continuations, radix and date
# literals, Rem, type suffixes, every line ending, and non-ASCII look-alikes
# (Arabic-Indic digits, the long s, the Kelvin sign, an accented letter).
_EDGE_ALPHABET = (
    string.ascii_letters + string.digits + " \t\r\n\"'&+-*/\\^=<>()[]{}.,;:!#@$%?_"
    + "٣ſKé\x00"
)

_FRAGMENTS = [
    "Rem", "rEM", "Remark", "Dim", "dim$", "Double", "Do", "End Sub",
    "Function", "&H", "&hFF&", "&O17%", "&o9", "#1/2/2016#", "#12:30 PM#",
    "#", "##", " _", " _ ", "\t_\t", "_", '"', '""', '"a""b"', "'", "1e",
    "1e+", "2.5E-3#", ".5", "1.", "x%", "name$", ":=", "<>", "<=", ">=",
    "\r", "\n", "\r\n", " ", "\t",
]


def assert_same_tokens(source: str) -> None:
    expected = oracle_tokenize(source)
    assert tokenize(source) == expected
    columns = lex_columns(source)
    assert len(columns) == len(expected)
    assert columns.kinds == [token.kind for token in expected]
    assert columns.texts == [token.text for token in expected]


@settings(max_examples=1500, deadline=None)
@given(st.text(alphabet=_EDGE_ALPHABET, max_size=120))
def test_edge_alphabet_text(source):
    assert_same_tokens(source)


@settings(max_examples=1500, deadline=None)
@given(st.lists(st.sampled_from(_FRAGMENTS), max_size=40).map("".join))
def test_fragment_soup(source):
    assert_same_tokens(source)


@settings(max_examples=500, deadline=None)
@given(st.text(max_size=200))
def test_arbitrary_unicode(source):
    assert_same_tokens(source)


@pytest.mark.parametrize(
    "source",
    [
        "",
        "x",
        "x _",  # continuation at end of input, no line break
        "x _\r",  # continuation ended by a lone CR
        "a = 1 _   \r\n  + 2",
        "Rem",
        "d = #1/2/3#x",
        "#" + "1" * 23 + "#",  # longest date
        "#" + "1" * 24 + "#",  # one character too long: punctuation
        "Dim$ = Dim% & x&H1",
        "\r\r\n\n\r",
        # A text's kind is read off the text alone; these are the texts
        # whose kind hangs on a lookahead or on the rule order ("Rem" at
        # the end of the input is above).
        "Dim$",
        "Dim$ x",
        "x = 1: Rem",
        "Remx",
        "Remx = 1\nRem x",
        "a _\nb",
        "a _\r\nb",
        "a _ b",
        "a _",
        "&H",
        "&O",
        "&H + &O",
        "&Hx &Oy",
        "#1/1/2000#",
        "#",
        "x = #1/1/2000# # #",
    ],
)
def test_edge_cases(source):
    assert_same_tokens(source)


def test_paper_profile_corpora(corpus_sources):
    for source in corpus_sources:
        assert_same_tokens(source)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_FRAGMENTS), max_size=40).map("".join))
def test_analysis_tokens_are_the_lexer_tokens(source):
    assert analyze(source).tokens == tokenize(source)


def test_analysis_tokens_on_corpora(corpus_sources):
    for source in corpus_sources:
        assert analyze(source).tokens == tokenize(source)


class TestTokenContract:
    def test_immutable_and_slotted(self):
        token = Token(TokenKind.IDENTIFIER, "foo", 1, 1)
        with pytest.raises(AttributeError):
            token.text = "bar"
        assert not hasattr(token, "__dict__")

    def test_equality_and_pickle(self):
        token = tokenize("foo")[0]
        assert token == Token(TokenKind.IDENTIFIER, "foo", 1, 1)
        assert token != Token(TokenKind.IDENTIFIER, "foo", 1, 2)
        assert pickle.loads(pickle.dumps(token)) == token
        assert hash(token) == hash(Token(TokenKind.IDENTIFIER, "foo", 1, 1))

    def test_value_accessors(self):
        string_token, comment = tokenize('"a""b" \' note')[0::2]
        assert string_token.string_value == 'a"b'
        assert comment.comment_value == " note"
