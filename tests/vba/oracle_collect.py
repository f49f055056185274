"""The token-walking ``_collect``, kept as a differential oracle.

This is how :mod:`repro.vba.analyzer` collected declared identifiers, call
sites, string literals, comments and procedure names before it walked the
lexer's kind and text columns: a walk over the
:class:`~repro.vba.tokens.Token` list with whitespace, continuations and
EOF filtered out, reading each token's fields and its call sites' lines.
The parity tests assert that the columnar walk fills the six
:class:`~repro.vba.analyzer.MacroAnalysis` lists exactly as this one does.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.vba.analyzer import (
    _DECLARATION_KEYWORDS,
    _PROCEDURE_KEYWORDS,
    CallSite,
)
from repro.vba.functions import ALL_CATEGORIZED_FUNCTIONS
from repro.vba.tokens import Token, TokenKind
from tests.vba.oracle_lexer import oracle_tokenize


@dataclass
class OracleAnalysis:
    """The fields of a :class:`~repro.vba.analyzer.MacroAnalysis` that the
    oracle collect and the oracle summarizer read and fill."""

    source: str
    tokens: list[Token]
    declared_identifiers: list[str] = field(default_factory=list)
    identifier_uses: list[str] = field(default_factory=list)
    call_sites: list[CallSite] = field(default_factory=list)
    string_literals: list[str] = field(default_factory=list)
    comments: list[str] = field(default_factory=list)
    procedure_names: list[str] = field(default_factory=list)


def oracle_analyze(source: str) -> OracleAnalysis:
    """The oracle lexer's tokens, collected by the oracle walk."""
    analysis = OracleAnalysis(source=source, tokens=oracle_tokenize(source))
    oracle_collect(analysis)
    return analysis


def oracle_collect(analysis: OracleAnalysis) -> None:
    """Fill ``analysis``'s lists by walking its token list."""
    whitespace, continuation, eof = (
        TokenKind.WHITESPACE, TokenKind.LINE_CONTINUATION, TokenKind.EOF
    )
    tokens = [
        token
        for token in analysis.tokens
        if (kind := token.kind) is not whitespace
        and kind is not continuation
        and kind is not eof
    ]
    declared: list[str] = []
    declared_seen: set[str] = set()
    uses: list[str] = []
    calls: list[CallSite] = []
    strings: list[str] = []
    comments: list[str] = []
    procedures: list[str] = []

    def declare(name: str) -> None:
        lowered = name.lower()
        if lowered not in declared_seen:
            declared_seen.add(lowered)
            declared.append(name)

    index = 0
    at_statement_start = True
    while index < len(tokens):
        token = tokens[index]
        kind = token.kind

        if kind is TokenKind.NEWLINE or (
            kind is TokenKind.PUNCT and token.text == ":"
        ):
            at_statement_start = True
            index += 1
            continue

        if kind is TokenKind.COMMENT:
            comments.append(token.text)
            index += 1
            continue

        if kind is TokenKind.STRING:
            strings.append(token.string_value)
            at_statement_start = False
            index += 1
            continue

        if kind is TokenKind.KEYWORD:
            keyword = token.text.lower()
            if keyword in _PROCEDURE_KEYWORDS:
                index = _scan_procedure(
                    tokens, index, keyword, declare, procedures, strings
                )
                at_statement_start = False
                continue
            if keyword in _DECLARATION_KEYWORDS:
                index = _scan_declaration(tokens, index, declare, strings)
                at_statement_start = False
                continue
            if keyword == "for":
                index = _scan_for(tokens, index, declare)
                at_statement_start = False
                continue
            if keyword == "call" and _kind_at(tokens, index + 1) is TokenKind.IDENTIFIER:
                callee = tokens[index + 1]
                calls.append(CallSite(callee.text, callee.line, is_member=False))
                uses.append(callee.text)
                index += 2
                at_statement_start = False
                continue
            if (
                keyword in ALL_CATEGORIZED_FUNCTIONS
                and _kind_at(tokens, index + 1) is TokenKind.PUNCT
                and tokens[index + 1].text == "("
            ):
                # Callable builtins that lex as keywords: CStr(), CLng(), …
                calls.append(
                    CallSite(
                        token.text, token.line, _is_member_access(tokens, index)
                    )
                )
            at_statement_start = False
            index += 1
            continue

        if kind is TokenKind.IDENTIFIER:
            uses.append(token.text)
            is_member = _is_member_access(tokens, index)
            next_kind = _kind_at(tokens, index + 1)
            next_text = tokens[index + 1].text if index + 1 < len(tokens) else ""
            lowered = token.text.lower()
            if next_kind is TokenKind.PUNCT and next_text == "(":
                calls.append(CallSite(token.text, token.line, is_member))
            elif (
                at_statement_start
                and not is_member
                and lowered in ALL_CATEGORIZED_FUNCTIONS
            ):
                # Statement-style invocation: ``Shell program, 1``.
                calls.append(CallSite(token.text, token.line, is_member=False))
            at_statement_start = False
            index += 1
            continue

        at_statement_start = False
        index += 1

    analysis.declared_identifiers = declared
    analysis.identifier_uses = uses
    analysis.call_sites = calls
    analysis.string_literals = strings
    analysis.comments = comments
    analysis.procedure_names = procedures


def _kind_at(tokens: list[Token], index: int) -> TokenKind | None:
    if 0 <= index < len(tokens):
        return tokens[index].kind
    return None


def _is_member_access(tokens: list[Token], index: int) -> bool:
    if index == 0:
        return False
    prev = tokens[index - 1]
    return prev.kind is TokenKind.PUNCT and prev.text == "."


def _scan_procedure(
    tokens: list[Token],
    index: int,
    keyword: str,
    declare,
    procedures: list[str],
    strings: list[str],
) -> int:
    """Handle ``Sub name(params)`` / ``Function name(...)`` / ``Property Get name``.

    Returns the index to resume scanning from.
    """
    cursor = index + 1
    if keyword == "property" and _kind_at(tokens, cursor) in (
        TokenKind.KEYWORD,
        TokenKind.IDENTIFIER,
    ):
        accessor = tokens[cursor].text.lower()
        if accessor in ("get", "let", "set"):
            cursor += 1
    if _kind_at(tokens, cursor) is not TokenKind.IDENTIFIER:
        # ``End Sub`` / ``Exit Function`` — nothing declared here.
        return index + 1
    name_token = tokens[cursor]
    declare(name_token.text)
    procedures.append(name_token.text)
    cursor += 1
    # Parameters: ``(ByVal a As String, Optional b)``.
    if (
        _kind_at(tokens, cursor) is TokenKind.PUNCT
        and tokens[cursor].text == "("
    ):
        depth = 0
        expecting_name = True
        while cursor < len(tokens):
            token = tokens[cursor]
            if token.kind is TokenKind.PUNCT and token.text == "(":
                depth += 1
            elif token.kind is TokenKind.PUNCT and token.text == ")":
                depth -= 1
                if depth == 0:
                    cursor += 1
                    break
            elif token.kind is TokenKind.PUNCT and token.text == "," and depth == 1:
                expecting_name = True
            elif token.kind is TokenKind.KEYWORD:
                lowered = token.text.lower()
                if lowered == "as":
                    expecting_name = False
                # byval/byref/optional/paramarray keep us expecting a name.
            elif token.kind is TokenKind.IDENTIFIER and expecting_name and depth == 1:
                declare(token.text)
                expecting_name = False
            elif token.kind is TokenKind.STRING:
                strings.append(token.string_value)
            cursor += 1
    return cursor


def _scan_declaration(
    tokens: list[Token], index: int, declare, strings: list[str]
) -> int:
    """Handle ``Dim a As X, b(10) As Y`` and friends on one logical line."""
    cursor = index + 1
    expecting_name = True
    depth = 0
    while cursor < len(tokens):
        token = tokens[cursor]
        if token.kind is TokenKind.NEWLINE:
            break
        if token.kind is TokenKind.PUNCT:
            if token.text == "(":
                depth += 1
            elif token.text == ")":
                depth = max(0, depth - 1)
            elif token.text == "," and depth == 0:
                expecting_name = True
            elif token.text == ":":
                break
        elif token.kind is TokenKind.OPERATOR and token.text == "=" and depth == 0:
            # ``Const x = 5``: the initializer is an expression, stop naming.
            expecting_name = False
        elif token.kind is TokenKind.KEYWORD:
            if token.text.lower() == "as":
                expecting_name = False
        elif token.kind is TokenKind.IDENTIFIER and expecting_name and depth == 0:
            declare(token.text)
            expecting_name = False
        elif token.kind is TokenKind.STRING:
            strings.append(token.string_value)
        cursor += 1
    return cursor


def _scan_for(tokens: list[Token], index: int, declare) -> int:
    """Handle ``For i = ...`` and ``For Each cell In ...`` loop variables."""
    cursor = index + 1
    if (
        _kind_at(tokens, cursor) is TokenKind.KEYWORD
        and tokens[cursor].text.lower() == "each"
    ):
        cursor += 1
    if _kind_at(tokens, cursor) is TokenKind.IDENTIFIER:
        declare(tokens[cursor].text)
        cursor += 1
    return cursor
