"""A tokenizer for Visual Basic for Applications source code.

The lexer is one compiled regex of ordered alternatives, one per rule,
applied with ``findall``: every alternative consumes at least one character
and the last one takes any character, so the matches tile the source with
no gaps and each match is the text of exactly one token.  The texts and
their kinds come out as parallel columns (:class:`TokenColumns`);
:func:`tokenize` builds :class:`~repro.vba.tokens.Token` records from them.
It handles the VBA constructs that matter for static analysis of macro
code:

* ``'`` comments and ``Rem`` statement comments, running to end of line;
* double-quoted string literals with ``""`` escapes;
* numeric literals including ``&H`` hex, ``&O`` octal, exponents and type
  suffixes (``%``, ``&``, ``!``, ``#``, ``@``);
* ``#...#`` date literals;
* the ``_`` line continuation (space + underscore + end of line);
* multi-character operators (``<=``, ``>=``, ``<>``, ``:=``).

Alternatives are tried in order, so where two can start on the same
character the more specific one comes first: a continuation before plain
whitespace, a radix number before the ``&`` operator, a date before the
``#`` punctuation, ``Rem`` and the keywords before identifiers.  Keywords
carry no type suffix (``Dim$`` is the keyword ``Dim`` and the punctuation
``$``); identifiers may (``name$``).

The scanner is loss-less: concatenating ``token.text`` for all tokens
(including whitespace/newline tokens) reconstructs the input exactly.  Feature
extraction relies on this property to compute exact character counts.  Lines
advance only on NEWLINE and LINE_CONTINUATION tokens (``\\r\\n``, ``\\n`` and
a lone ``\\r`` each end a line); columns count from the last line start.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import accumulate, repeat
from operator import mul, sub

from repro.vba.tokens import (
    MULTI_CHAR_OPERATORS,
    PUNCTUATION,
    SINGLE_CHAR_OPERATORS,
    VBA_KEYWORDS,
    Token,
    TokenKind,
)


def _keyword_pattern(words) -> str:
    """An ASCII case-insensitive regex for ``words``, factored as a trie.

    As a trie, an identifier that is no keyword fails after a character or
    two instead of against 130 alternatives (half the regex time on the
    paper corpus).  Explicit ``[Xx]`` classes rather than the IGNORECASE
    flag, which would also fold non-ASCII letters (``ſ`` matches ``s``).
    """
    trie: dict = {}
    for word in words:
        node = trie
        for char in word:
            node = node.setdefault(char, {})
        node[""] = {}

    def emit(node: dict) -> str:
        branches = [
            f"[{char.upper()}{char}]{emit(child)}"
            for char, child in sorted(node.items())
            if char
        ]
        if not branches:
            return ""
        body = branches[0] if len(branches) == 1 else f"(?:{'|'.join(branches)})"
        return f"(?:{body})?" if "" in node else body

    return emit(trie)


def _char_class(chars) -> str:
    return "[" + "".join(re.escape(char) for char in sorted(chars)) + "]"


_WORD_END = r"(?![A-Za-z0-9_])"
_EXPONENT_AND_SUFFIX = r"(?:[eE][+-]?[0-9]+)?[%&!#@^]?"

#: (kind, pattern) in match priority order.  Digits, letters and the radix
#: marks are spelled as ASCII classes: ``\d`` would also take Arabic-Indic
#: digits, which VBA lexes as unknown characters.
_RULES: tuple[tuple[TokenKind, str], ...] = (
    (TokenKind.NEWLINE, r"\r\n?|\n"),
    (TokenKind.LINE_CONTINUATION, r"[ \t]+_[ \t]*(?=[\r\n]|\Z)\r?\n?"),
    (TokenKind.WHITESPACE, r"[ \t]+"),
    (TokenKind.COMMENT, r"'[^\r\n]*"),
    (TokenKind.STRING, r'"[^"\r\n]*(?:""[^"\r\n]*)*"?'),
    (
        TokenKind.NUMBER,
        r"(?:[0-9]+(?:\.[0-9]+)?|\.[0-9]+)" + _EXPONENT_AND_SUFFIX
        + r"|&[Hh][0-9A-Fa-f]*[&%]?|&[Oo][0-7]*[&%]?",
    ),
    # A date is 1-23 date characters between two ``#`` on one line.
    (TokenKind.DATE, r"#[0-9/:\- APMapm,]{1,23}#"),
    (TokenKind.COMMENT, r"[Rr][Ee][Mm]" + _WORD_END + r"[^\r\n]*"),
    (TokenKind.KEYWORD, _keyword_pattern(VBA_KEYWORDS - {"rem"}) + _WORD_END),
    (TokenKind.IDENTIFIER, r"[A-Za-z_][A-Za-z0-9_]*[%&!#@$]?"),
    (
        TokenKind.OPERATOR,
        "|".join(map(re.escape, MULTI_CHAR_OPERATORS))
        + "|" + _char_class(SINGLE_CHAR_OPERATORS),
    ),
    (TokenKind.PUNCT, _char_class(PUNCTUATION)),
    (TokenKind.UNKNOWN, r"(?s:.)"),
)

#: The rules with their groups made non-capturing: under ``findall`` it
#: returns the token texts without building a match object per token.
_FLAT = re.compile("|".join(f"(?:{pattern})" for _, pattern in _RULES))

#: The rules with one capture group each, so that ``match.lastindex`` names
#: the rule that matched; the rule patterns hold no capture groups of their
#: own, so the last group that matched is the rule's.
_MASTER = re.compile("|".join(f"({pattern})" for _, pattern in _RULES))
_KIND_BY_GROUP: tuple[TokenKind | None, ...] = (None,) + tuple(
    kind for kind, _ in _RULES
)

_new_token = tuple.__new__


@dataclass(slots=True)
class TokenColumns:
    """The tokens of one source as parallel columns, the final EOF included.

    ``kinds[i]`` and ``texts[i]`` are the kind and text of the ``i``-th
    token :func:`tokenize` returns, and ``len()`` is the token count.
    ``kind_of`` maps every distinct text to its kind.  Lines and columns are
    not stored: :meth:`tokens` derives them from the line breaks and the
    text lengths when a consumer needs :class:`~repro.vba.tokens.Token`
    records.
    """

    kinds: list[TokenKind]
    texts: list[str]
    kind_of: dict[str, TokenKind] = field(repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.texts)

    def line_breaks(self) -> list[bool]:
        """Whether each token ends a line: every NEWLINE, and a
        LINE_CONTINUATION that takes the line break after it."""
        newline, continuation = TokenKind.NEWLINE, TokenKind.LINE_CONTINUATION
        ends_line = {
            text: kind is newline or (kind is continuation and text[-1] in "\r\n")
            for text, kind in self.kind_of.items()
        }
        return list(map(ends_line.__getitem__, self.texts))

    def tokens(self) -> list[Token]:
        """The :class:`~repro.vba.tokens.Token` list, equal to :func:`tokenize`'s."""
        texts = self.texts
        breaks = self.line_breaks()
        # A token's line is one plus the line breaks before it; its column
        # counts from the end of the last of them.
        lines = accumulate(breaks, initial=1)
        ends = accumulate(map(len, texts))
        line_starts = accumulate(map(mul, breaks, ends), max, initial=0)
        columns = map(sub, accumulate(map(len, texts), initial=1), line_starts)
        return list(
            map(_new_token, repeat(Token), zip(self.kinds, texts, lines, columns))
        )


def lex_columns(source: str) -> TokenColumns:
    """Lex VBA source into :class:`TokenColumns`, the final EOF included.

    ``findall`` cuts the source into token texts.  For this rule order a
    token's kind is a function of its text: only the word-end and line-end
    lookaheads look past a token, and they read the same after the text in
    the source as after the text alone.  So each distinct text is
    classified once, by the rule group that matches it on its own, in a
    memo that lives as long as the call.
    """
    texts = _FLAT.findall(source)
    kind_by_group = _KIND_BY_GROUP
    match = _MASTER.match
    kind_of = {text: kind_by_group[match(text).lastindex] for text in set(texts)}
    kind_of[""] = TokenKind.EOF
    texts.append("")
    return TokenColumns(list(map(kind_of.__getitem__, texts)), texts, kind_of)


def tokenize(source: str) -> list[Token]:
    """Tokenize VBA source, returning all tokens including the final EOF."""
    return lex_columns(source).tokens()


def significant_tokens(source: str) -> list[Token]:
    """Tokenize and drop whitespace, newlines, continuations and EOF.

    Comments are kept: several features need them.
    """
    unwanted = {
        TokenKind.WHITESPACE,
        TokenKind.NEWLINE,
        TokenKind.LINE_CONTINUATION,
        TokenKind.EOF,
    }
    return [token for token in tokenize(source) if token.kind not in unwanted]
