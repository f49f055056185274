"""A tokenizer for Visual Basic for Applications source code.

The lexer is one compiled master regex of ordered alternatives, one capture
group per rule, applied with ``finditer``: every alternative consumes at
least one character and the last one takes any character, so the matches
tile the source with no gaps and each match is exactly one
:class:`~repro.vba.tokens.Token`.  It handles the VBA constructs that matter
for static analysis of macro code:

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

_MASTER = re.compile("|".join(f"({pattern})" for _, pattern in _RULES))

#: ``match.lastindex`` → kind; the rule patterns hold no capture groups of
#: their own, so the last group that matched is the rule's.
_KIND_BY_GROUP: tuple[TokenKind | None, ...] = (None,) + tuple(
    kind for kind, _ in _RULES
)

_new_token = tuple.__new__


def tokenize(source: str) -> list[Token]:
    """Tokenize VBA source, returning all tokens including the final EOF."""
    tokens: list[Token] = []
    append = tokens.append
    kinds = _KIND_BY_GROUP
    newline = TokenKind.NEWLINE
    continuation = TokenKind.LINE_CONTINUATION
    line = 1
    line_start = 0
    for match in _MASTER.finditer(source):
        kind = kinds[match.lastindex]
        text = match.group()
        append(_new_token(Token, (kind, text, line, match.start() - line_start + 1)))
        if (kind is newline or kind is continuation) and text[-1] in "\r\n":
            line += 1
            line_start = match.end()
    append(_new_token(Token, (TokenKind.EOF, "", line, len(source) - line_start + 1)))
    return tokens


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
