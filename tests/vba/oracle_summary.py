"""The token-walking ``summarize``, kept as a differential oracle.

This is the summarizer :mod:`repro.vba.analyzer` used before its one-pass
rewrite: a token walk with a numpy scalar ``+=`` per token, a rescan of the
token list for every call's argument length, a ``word in comment_text``
search per word and the procedure-body regex.  It is slow (quadratic on
comment-heavy macros and deeply nested calls, cubic on unterminated
procedures) but plainly right; the parity tests assert that every
:class:`~repro.vba.analyzer.AnalysisSummary` field the rewrite produces is
bit-identical to this one's.
"""

from __future__ import annotations

import re

import numpy as np

from repro.vba.analyzer import (
    _WORD_PATTERN,
    CATALOG_ORDER,
    LONG_LINE_THRESHOLD,
    AnalysisSummary,
    _char_stats,
)
from repro.vba.tokens import STRING_CONCAT_OPERATORS, Token, TokenKind

_KIND_INDEX: dict[TokenKind, int] = {
    kind: index for index, kind in enumerate(TokenKind)
}

_VOWELS = frozenset("aeiouAEIOU")

#: Procedure bodies, split on Sub/Function boundaries (J18–J20).
_FUNCTION_BODY_PATTERN = re.compile(
    r"(?:^|\n)[ \t]*(?:Public\s+|Private\s+)?(?:Sub|Function)\s+\w+"
    r".*?\n(.*?)(?:^|\n)[ \t]*End (?:Sub|Function)",
    re.DOTALL | re.IGNORECASE,
)


def oracle_summarize(analysis) -> AnalysisSummary:
    """The summary of ``analysis``, computed the pre-rewrite way.

    ``analysis`` is anything with a source, a token list and the collected
    lists, such as :class:`~tests.vba.oracle_collect.OracleAnalysis`.
    """
    source = analysis.source
    char_histogram, entropy = _char_stats(source)
    whitespace_chars = int(
        char_histogram[32] + char_histogram[9]
        + char_histogram[13] + char_histogram[10]
    )
    backslash_chars = int(char_histogram[92])

    token_kind_counts = np.zeros(len(_KIND_INDEX), dtype=np.int64)
    comment_chars = 0
    comment_parts: list[str] = []
    string_token_chars = 0
    string_op_count = 0
    for token in analysis.tokens:
        token_kind_counts[_KIND_INDEX[token.kind]] += 1
        kind = token.kind
        if kind is TokenKind.COMMENT:
            comment_chars += len(token.text)
            comment_parts.append(token.text)
        elif kind is TokenKind.STRING:
            string_token_chars += len(token.text)
        elif kind is TokenKind.OPERATOR and token.text in STRING_CONCAT_OPERATORS:
            string_op_count += 1
    comment_text = "".join(comment_parts)

    lines = source.splitlines()
    line_lengths = np.fromiter(
        (len(line) for line in lines), dtype=np.int64, count=len(lines)
    )
    long_line_count = (
        int((line_lengths > LONG_LINE_THRESHOLD).sum()) if len(lines) else 0
    )

    words = _WORD_PATTERN.findall(source)
    word_lengths = np.fromiter(
        (len(word) for word in words), dtype=np.int64, count=len(words)
    )
    readable_word_count = sum(
        1 for word in words if _is_human_readable(word)
    )
    words_in_comment_count = (
        sum(1 for word in words if word in comment_text) if comment_text else 0
    )

    string_lengths = np.fromiter(
        (len(value) for value in analysis.string_literals),
        dtype=np.int64,
        count=len(analysis.string_literals),
    )
    identifier_lengths = np.fromiter(
        (len(name) for name in analysis.declared_identifiers),
        dtype=np.int64,
        count=len(analysis.declared_identifiers),
    )

    catalog_hits = np.zeros(len(CATALOG_ORDER), dtype=np.int64)
    member_call_count = 0
    for call in analysis.call_sites:
        lowered = call.name.lower()
        if call.is_member:
            member_call_count += 1
        for column, catalog in enumerate(CATALOG_ORDER):
            if lowered in catalog:
                catalog_hits[column] += 1

    argument_lengths = _argument_lengths(analysis.tokens)

    body_count = 0
    body_total_chars = 0
    for match in _FUNCTION_BODY_PATTERN.finditer(source):
        body_count += 1
        body_total_chars += match.end(1) - match.start(1)

    return AnalysisSummary(
        source_chars=len(source),
        code_chars=len(source) - comment_chars,
        comment_chars=comment_chars,
        whitespace_chars=whitespace_chars,
        backslash_chars=backslash_chars,
        entropy=entropy,
        char_histogram=char_histogram,
        line_count=len(lines),
        long_line_count=long_line_count,
        line_lengths=line_lengths,
        token_kind_counts=token_kind_counts,
        comment_count=int(token_kind_counts[_KIND_INDEX[TokenKind.COMMENT]]),
        word_count=len(words),
        word_len_sum=int(word_lengths.sum()),
        word_len_sqsum=int((word_lengths * word_lengths).sum()),
        readable_word_count=readable_word_count,
        words_in_comment_count=words_in_comment_count,
        word_lengths=word_lengths,
        string_count=len(analysis.string_literals),
        string_len_sum=int(string_lengths.sum()),
        string_token_chars=string_token_chars,
        string_op_count=string_op_count,
        string_lengths=string_lengths,
        identifier_count=len(analysis.declared_identifiers),
        identifier_len_sum=int(identifier_lengths.sum()),
        identifier_len_sqsum=int((identifier_lengths * identifier_lengths).sum()),
        identifier_lengths=identifier_lengths,
        call_count=len(analysis.call_sites),
        member_call_count=member_call_count,
        catalog_hits=catalog_hits,
        argument_count=len(argument_lengths),
        argument_len_sum=int(sum(argument_lengths)),
        body_count=body_count,
        body_total_chars=body_total_chars,
    )


def _is_human_readable(word: str) -> bool:
    """Likarish-style readability: a word looks pronounceable.

    Heuristic: mostly letters, contains a vowel, not absurdly long, and no
    long consonant run (pronounceable English never stacks 4+ consonants the
    way ``rjzybhqrliy``-style random identifiers do).
    """
    if not word or len(word) > 15:
        return False
    letters = sum(1 for ch in word if ch.isalpha())
    if letters < len(word) * 0.5:
        return False
    if not any(ch in _VOWELS for ch in word):
        return False
    run = 0
    for ch in word:
        if ch.isalpha() and ch not in _VOWELS:
            run += 1
            if run >= 4:
                return False
        else:
            run = 0
    return True


def _argument_lengths(all_tokens: list[Token]) -> list[int]:
    """Character lengths of parenthesized call arguments (J9)."""
    lengths: list[int] = []
    tokens = [
        t
        for t in all_tokens
        if t.kind
        not in (TokenKind.WHITESPACE, TokenKind.NEWLINE, TokenKind.EOF)
    ]
    for index, token in enumerate(tokens[:-1]):
        if token.kind is not TokenKind.IDENTIFIER:
            continue
        nxt = tokens[index + 1]
        if nxt.kind is not TokenKind.PUNCT or nxt.text != "(":
            continue
        depth = 0
        size = 0
        for inner in tokens[index + 1 :]:
            if inner.kind is TokenKind.PUNCT and inner.text == "(":
                depth += 1
                if depth == 1:
                    continue
            if inner.kind is TokenKind.PUNCT and inner.text == ")":
                depth -= 1
                if depth == 0:
                    break
            size += len(inner.text)
        lengths.append(size)
    return lengths
