"""Structural analysis of VBA macro source code.

:class:`MacroAnalysis` is the single shared substrate for feature extraction
(:mod:`repro.features`) and for the obfuscation engine
(:mod:`repro.obfuscation`).  The lexer hands it the tokens as parallel
kind and text columns (:class:`~repro.vba.lexer.TokenColumns`); from one
walk over those columns it derives:

* declared identifiers — procedure names, parameters, ``Dim``/``Const``/
  ``ReDim``/``For Each`` variables — which is exactly the set O1 random
  obfuscation renames;
* call sites — names invoked with ``(...)``, via ``Call``, or in statement
  position — categorized against the built-in catalogs for V8–V12;
* string literals, comments, and the paper's notion of "words" (units
  delimited by whitespace and VBA symbols, following Likarish et al.).

On top of the structural analysis sits :class:`AnalysisSummary` — a small,
picklable, array-backed digest of everything the feature extractors need
(token-kind counts, word/string/identifier length arrays with exact integer
sums, a char-class histogram, Shannon entropy computed once).  It is built
from counts over the token columns plus one vectorized character pass, so
feature kernels never re-walk tokens or re-scan the source.  All of its
reductions are segment-local (per macro), which is what makes the batch
feature kernels row-deterministic: a macro's feature row is bit-identical
whether it is extracted alone or in a batch of thousands.
"""

from __future__ import annotations

import re
import string
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate, compress, count

import numpy as np

from repro.vba.functions import (
    ALL_CATEGORIZED_FUNCTIONS,
    ARITHMETIC_FUNCTIONS,
    FINANCIAL_FUNCTIONS,
    RICH_FUNCTIONS,
    TEXT_FUNCTIONS,
    TYPE_CONVERSION_FUNCTIONS,
)
# The columnar lexer, under the name ``tokenize``: the layer ledger
# (layerbench/spans.py) times ``repro.vba.analyzer.tokenize`` as the lexing
# layer and counts ``len()`` of its result, which is the token count.
from repro.vba.lexer import TokenColumns
from repro.vba.lexer import lex_columns as tokenize
from repro.vba.tokens import (
    STRING_CONCAT_OPERATORS,
    Token,
    TokenKind,
    string_literal_value,
)

# Keywords that introduce a procedure whose following identifier is the
# procedure name.
_PROCEDURE_KEYWORDS = frozenset({"sub", "function", "property"})

# Keywords that introduce variable declarations whose following identifiers
# (comma-separated, possibly with ``As Type`` clauses) are declared names.
_DECLARATION_KEYWORDS = frozenset({"dim", "const", "redim", "static"})

_WORD_PATTERN = re.compile(r"[A-Za-z0-9_$#@%!&]+")

#: J14's VBA adaptation (Section V.B of the paper): a line is "long" past
#: 150 characters instead of the JavaScript studies' 1000.
LONG_LINE_THRESHOLD = 150

#: Procedure bodies (J18–J20): a body runs from the line after a Sub or
#: Function header to the next ``End Sub``/``End Function`` line.
_PROCEDURE_HEADER = re.compile(
    r"(?:^|\n)[ \t]*(?:Public\s+|Private\s+)?(?:Sub|Function)\s+\w+",
    re.IGNORECASE,
)
_PROCEDURE_END = re.compile(r"\n[ \t]*End (?:Sub|Function)", re.IGNORECASE)

#: The built-in call catalogs, in the fixed column order used by
#: :attr:`AnalysisSummary.catalog_hits` (and features V8–V12).
CATALOG_ORDER: tuple[frozenset[str], ...] = (
    TEXT_FUNCTIONS,
    ARITHMETIC_FUNCTIONS,
    TYPE_CONVERSION_FUNCTIONS,
    FINANCIAL_FUNCTIONS,
    RICH_FUNCTIONS,
)

#: :class:`TokenKind` values in declaration order: the columns of
#: :attr:`AnalysisSummary.token_kind_counts`.
_KIND_VALUES = tuple(kind.value for kind in TokenKind)

#: char-class histogram shape: one bin per ASCII codepoint plus a single
#: overflow bin for everything non-ASCII.
_HIST_BINS = 129
_HIST_OVERFLOW = 128

_VOWELS = frozenset("aeiouAEIOU")
_DROP_LETTERS = dict.fromkeys(map(ord, string.ascii_letters))
_CONSONANT_RUN = re.compile(r"[b-df-hj-np-tv-zB-DF-HJ-NP-TV-Z]{4}")


@dataclass(slots=True)
class CallSite:
    """A function / procedure invocation found in the source."""

    name: str
    line: int
    is_member: bool  # invoked as ``object.Name(...)``


@dataclass(slots=True)
class MacroAnalysis:
    """The result of analyzing one VBA module's source code."""

    source: str
    columns: TokenColumns = field(repr=False)
    declared_identifiers: list[str] = field(default_factory=list)
    identifier_uses: list[str] = field(default_factory=list)
    call_sites: list[CallSite] = field(default_factory=list)
    string_literals: list[str] = field(default_factory=list)
    comments: list[str] = field(default_factory=list)
    procedure_names: list[str] = field(default_factory=list)
    #: lazily-built array-backed digest for the batch feature kernels
    summary: "AnalysisSummary | None" = field(default=None, compare=False)
    #: the Token list, built from ``columns`` by :attr:`tokens`
    _tokens: list[Token] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def tokens(self) -> list[Token]:
        """The tokens of ``source``, EOF included, built on first access."""
        if self._tokens is None:
            self._tokens = self.columns.tokens()
        return self._tokens

    # ------------------------------------------------------------------
    # Derived text measures used by the feature extractors.

    @property
    def code_without_comments(self) -> str:
        """The source with comment token text removed (other text intact)."""
        comment = TokenKind.COMMENT
        columns = self.columns
        return "".join(
            text
            for kind, text in zip(columns.kinds, columns.texts)
            if kind is not comment
        )

    @property
    def comment_text(self) -> str:
        """All comment text concatenated (markers included)."""
        comment = TokenKind.COMMENT
        columns = self.columns
        return "".join(
            text for kind, text in zip(columns.kinds, columns.texts) if kind is comment
        )

    @property
    def words(self) -> list[str]:
        """The paper's 'words': maximal runs delimited by whitespace/symbols."""
        return _WORD_PATTERN.findall(self.source)

    @property
    def lines(self) -> list[str]:
        return self.source.splitlines()

    def operator_count(self, operators: frozenset[str]) -> int:
        """Count OPERATOR tokens whose text is in ``operators``."""
        operator = TokenKind.OPERATOR
        columns = self.columns
        return sum(
            1
            for kind, text in zip(columns.kinds, columns.texts)
            if kind is operator and text in operators
        )

    def called_builtin_fraction(self, catalog: frozenset[str]) -> float:
        """Fraction of call sites whose name is in ``catalog`` (lower-case)."""
        if not self.call_sites:
            return 0.0
        hits = sum(1 for call in self.call_sites if call.name.lower() in catalog)
        return hits / len(self.call_sites)

    def ensure_summary(self) -> "AnalysisSummary":
        """The cached :class:`AnalysisSummary`, built on first access."""
        if self.summary is None:
            self.summary = summarize(self)
        return self.summary


@dataclass(slots=True)
class AnalysisSummary:
    """Array-backed digest of one macro for the batch feature kernels.

    Everything here is plain numbers and small numpy arrays: the summary
    pickles cheaply, travels through process pools, and lets the V/J
    extractors compute whole feature columns in single vectorized passes
    without touching tokens again.  Integer sums (``*_sum``/``*_sqsum``)
    are exact in float64, so means and variances derived from them do not
    depend on batch composition.
    """

    # -- characters ----------------------------------------------------
    source_chars: int
    code_chars: int  # source minus comment-token text (the lexer is lossless)
    comment_chars: int
    whitespace_chars: int  # " \t\r\n"
    backslash_chars: int
    entropy: float  # Shannon entropy of the source, computed exactly once
    char_histogram: np.ndarray  # (129,) int64: ASCII bins + one overflow bin
    # -- line structure ------------------------------------------------
    line_count: int
    long_line_count: int  # lines beyond LONG_LINE_THRESHOLD chars
    line_lengths: np.ndarray
    # -- tokens ----------------------------------------------------------
    token_kind_counts: np.ndarray  # (len(TokenKind),) int64, TokenKind order
    comment_count: int
    # -- the paper's "words" -------------------------------------------
    word_count: int
    word_len_sum: int
    word_len_sqsum: int
    readable_word_count: int
    words_in_comment_count: int
    word_lengths: np.ndarray
    # -- string literals -----------------------------------------------
    string_count: int
    string_len_sum: int  # decoded literal lengths
    string_token_chars: int  # raw token text incl. quotes (V6/J16)
    string_op_count: int  # OPERATOR tokens in STRING_CONCAT_OPERATORS
    string_lengths: np.ndarray
    # -- declared identifiers ------------------------------------------
    identifier_count: int
    identifier_len_sum: int
    identifier_len_sqsum: int
    identifier_lengths: np.ndarray
    # -- call sites ----------------------------------------------------
    call_count: int
    member_call_count: int
    catalog_hits: np.ndarray  # (5,) int64 in CATALOG_ORDER
    argument_count: int
    argument_len_sum: int
    # -- procedure bodies ----------------------------------------------
    body_count: int
    body_total_chars: int


def analyze(source: str) -> MacroAnalysis:
    """Run the full structural analysis over one module's source code."""
    analysis = MacroAnalysis(source=source, columns=tokenize(source))
    _collect(analysis)
    return analysis


def summarize(analysis: MacroAnalysis) -> AnalysisSummary:
    """Build the array-backed summary from one finished analysis.

    Counts over the token columns, one vectorized pass over the
    characters, one regex pass for words and one linear scan for procedure
    bodies — after this the feature extractors never look at the analysis
    again.  Every pass is linear in the size of the macro.
    """
    source = analysis.source
    char_histogram, entropy = _char_stats(source)
    whitespace_chars = int(
        char_histogram[32] + char_histogram[9]
        + char_histogram[13] + char_histogram[10]
    )
    backslash_chars = int(char_histogram[92])

    walk = _TokenWalk(analysis.columns)
    comment_text = "".join(walk.comment_parts)
    comment_chars = len(comment_text)

    lines = source.splitlines()
    line_lengths = np.fromiter(
        (len(line) for line in lines), dtype=np.int64, count=len(lines)
    )
    long_line_count = (
        int((line_lengths > LONG_LINE_THRESHOLD).sum()) if len(lines) else 0
    )

    words = _WORD_PATTERN.findall(source)
    word_lengths = np.fromiter(map(len, words), dtype=np.int64, count=len(words))
    # Both word measures depend on the word alone: decide each distinct word
    # once and weigh it by its count.
    word_counts = Counter(words)
    readable_word_count = sum(
        count for word, count in word_counts.items() if _is_human_readable(word)
    )
    words_in_comment_count = 0
    if comment_text:
        # Searching the comment text once per word is quadratic on
        # comment-heavy macros; the automaton answers in the word's length.
        in_comment = _SuffixAutomaton(comment_text).contains
        words_in_comment_count = sum(
            count for word, count in word_counts.items() if in_comment(word)
        )

    string_lengths = np.fromiter(
        map(len, analysis.string_literals),
        dtype=np.int64,
        count=len(analysis.string_literals),
    )
    identifier_lengths = np.fromiter(
        map(len, analysis.declared_identifiers),
        dtype=np.int64,
        count=len(analysis.declared_identifiers),
    )

    catalog_hits = [0] * len(CATALOG_ORDER)
    member_call_count = 0
    for call in analysis.call_sites:
        lowered = call.name.lower()
        if call.is_member:
            member_call_count += 1
        for column, catalog in enumerate(CATALOG_ORDER):
            if lowered in catalog:
                catalog_hits[column] += 1

    body_count, body_total_chars = _procedure_bodies(source)

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
        token_kind_counts=np.array(walk.kind_counts, dtype=np.int64),
        comment_count=len(walk.comment_parts),
        word_count=len(words),
        word_len_sum=int(word_lengths.sum()),
        word_len_sqsum=int((word_lengths * word_lengths).sum()),
        readable_word_count=readable_word_count,
        words_in_comment_count=words_in_comment_count,
        word_lengths=word_lengths,
        string_count=len(analysis.string_literals),
        string_len_sum=int(string_lengths.sum()),
        string_token_chars=walk.string_token_chars,
        string_op_count=walk.string_op_count,
        string_lengths=string_lengths,
        identifier_count=len(analysis.declared_identifiers),
        identifier_len_sum=int(identifier_lengths.sum()),
        identifier_len_sqsum=int((identifier_lengths * identifier_lengths).sum()),
        identifier_lengths=identifier_lengths,
        call_count=len(analysis.call_sites),
        member_call_count=member_call_count,
        catalog_hits=np.array(catalog_hits, dtype=np.int64),
        argument_count=walk.argument_count,
        argument_len_sum=walk.argument_len_sum,
        body_count=body_count,
        body_total_chars=body_total_chars,
    )


class _TokenWalk:
    """Everything :func:`summarize` needs from the token columns.

    * ``kind_counts``: tokens per kind, in :class:`TokenKind` order;
    * ``comment_parts``: the COMMENT token texts, in order;
    * ``string_token_chars``: raw STRING token text, quotes included;
    * ``string_op_count``: OPERATOR tokens in STRING_CONCAT_OPERATORS;
    * ``argument_count`` / ``argument_len_sum``: one argument list per
      identifier directly followed by ``(`` (whitespace and newlines
      skipped), its length the text between that ``(`` and its matching
      ``)`` — or the end of the macro if it is never closed — without
      whitespace and newline tokens (J9).

    A token's kind is a function of its text, so the first four are folded
    from the count of each distinct text.  Only the parentheses are walked:
    they match through a stack of open ones, each holding the text offset
    just past it if it opens a call.
    """

    __slots__ = (
        "kind_counts", "comment_parts", "string_token_chars",
        "string_op_count", "argument_count", "argument_len_sum",
    )

    def __init__(self, columns: TokenColumns) -> None:
        whitespace, newline, eof = (
            TokenKind.WHITESPACE, TokenKind.NEWLINE, TokenKind.EOF
        )
        identifier, comment = TokenKind.IDENTIFIER, TokenKind.COMMENT
        string, operator = TokenKind.STRING, TokenKind.OPERATOR
        concat = STRING_CONCAT_OPERATORS
        kind_of, texts = columns.kind_of, columns.texts

        # Tallied by the kind's value string: its hash is cached, while
        # hashing the enum member runs Enum.__hash__ in Python.
        by_value = dict.fromkeys(_KIND_VALUES, 0)
        string_token_chars = string_op_count = 0
        for text, times in Counter(texts).items():
            kind = kind_of[text]
            by_value[kind._value_] += times
            if kind is string:
                string_token_chars += len(text) * times
            elif kind is operator and text in concat:
                string_op_count += times

        significant = {
            text: not (kind is whitespace or kind is newline or kind is eof)
            for text, kind in kind_of.items()
        }
        selectors = list(map(significant.__getitem__, texts))
        sig_texts = list(compress(texts, selectors))
        sig_kinds = list(compress(columns.kinds, selectors))
        is_comment = {text: kind is comment for text, kind in kind_of.items()}
        comment_parts = list(
            compress(sig_texts, map(is_comment.__getitem__, sig_texts))
        )

        # offsets[i]: text length of the significant tokens before the i-th.
        offsets = list(accumulate(map(len, sig_texts), initial=0))
        argument_count = argument_len_sum = 0
        open_parens: list[int] = []  # offset past a call's "(", else -1
        is_paren = {text: text == "(" or text == ")" for text in kind_of}
        for at in compress(count(), map(is_paren.__getitem__, sig_texts)):
            if sig_texts[at] == "(":
                opens_call = at > 0 and sig_kinds[at - 1] is identifier
                open_parens.append(offsets[at] + 1 if opens_call else -1)
            elif open_parens:
                start = open_parens.pop()
                if start >= 0:
                    argument_count += 1
                    argument_len_sum += offsets[at] - start
        for start in open_parens:  # unclosed calls run to the end
            if start >= 0:
                argument_count += 1
                argument_len_sum += offsets[-1] - start

        self.kind_counts = list(by_value.values())
        self.comment_parts = comment_parts
        self.string_token_chars = string_token_chars
        self.string_op_count = string_op_count
        self.argument_count = argument_count
        self.argument_len_sum = argument_len_sum


def _char_stats(source: str) -> tuple[np.ndarray, float]:
    """Char-class histogram + Shannon entropy from one vectorized pass."""
    if not source:
        return np.zeros(_HIST_BINS, dtype=np.int64), 0.0
    codes = np.frombuffer(source.encode("utf-32-le"), dtype=np.uint32)
    histogram = np.bincount(
        np.minimum(codes, _HIST_OVERFLOW), minlength=_HIST_BINS
    ).astype(np.int64)
    _, counts = np.unique(codes, return_counts=True)
    probabilities = counts / len(codes)
    entropy = float(-(probabilities * np.log2(probabilities)).sum())
    return histogram, entropy


def _is_human_readable(word: str) -> bool:
    """Likarish-style readability: a word looks pronounceable.

    Heuristic: mostly letters, contains a vowel, not absurdly long, and no
    long consonant run (pronounceable English never stacks 4+ consonants the
    way ``rjzybhqrliy``-style random identifiers do).  ``word`` is one of
    the paper's words (:data:`_WORD_PATTERN`), so its letters are ASCII.
    """
    if not word or len(word) > 15:
        return False
    letters = len(word) - len(word.translate(_DROP_LETTERS))
    if letters < len(word) * 0.5:
        return False
    if _VOWELS.isdisjoint(word):
        return False
    return _CONSONANT_RUN.search(word) is None


def _procedure_bodies(source: str) -> tuple[int, int]:
    r"""(count, total characters) of the procedure bodies in ``source``.

    A linear scan with the meaning of the single regex
    ``(?:^|\n)[ \t]*(?:Public\s+|Private\s+)?(?:Sub|Function)\s+\w+.*?\n
    (.*?)(?:^|\n)[ \t]*End (?:Sub|Function)`` (DOTALL, IGNORECASE) under
    ``finditer``, which backtracks over the rest of the source from every
    header that has no ``End`` after it.  For the first header at or past
    the scan position, the body starts after the first newline that follows
    the header and ends at the first end marker after that newline.  Every
    later header ends no earlier, so once there is no such newline or end
    marker, no later header has one either and the scan stops.
    """
    count = total = 0
    position = 0
    while (header := _PROCEDURE_HEADER.search(source, position)) is not None:
        newline = source.find("\n", header.end())
        if newline < 0:
            break
        end = _PROCEDURE_END.search(source, newline + 1)
        if end is None:
            break
        count += 1
        total += end.start() - newline - 1
        position = end.end()
    return count, total


class _SuffixAutomaton:
    """The suffix automaton of a string: accepts exactly its substrings.

    Built in time linear in the text; :meth:`contains` costs the length of
    the word it is asked about.
    """

    __slots__ = ("_next",)

    def __init__(self, text: str) -> None:
        nexts: list[dict[str, int]] = [{}]
        links = [-1]
        lengths = [0]
        last = 0
        for char in text:
            state = len(nexts)
            nexts.append({})
            lengths.append(lengths[last] + 1)
            links.append(0)
            parent = last
            while parent >= 0 and char not in nexts[parent]:
                nexts[parent][char] = state
                parent = links[parent]
            if parent >= 0:
                target = nexts[parent][char]
                if lengths[parent] + 1 == lengths[target]:
                    links[state] = target
                else:
                    clone = len(nexts)
                    nexts.append(dict(nexts[target]))
                    lengths.append(lengths[parent] + 1)
                    links.append(links[target])
                    while parent >= 0 and nexts[parent].get(char) == target:
                        nexts[parent][char] = clone
                        parent = links[parent]
                    links[target] = links[state] = clone
            last = state
        self._next = nexts

    def contains(self, word: str) -> bool:
        nexts = self._next
        state = 0
        for char in word:
            state = nexts[state].get(char, -1)
            if state < 0:
                return False
        return True


# ----------------------------------------------------------------------


def _collect(analysis: MacroAnalysis) -> None:
    """Fill the identifier, call, string, comment and procedure lists.

    Walks the kind and text columns with whitespace, continuations and EOF
    left out, so that ``index + 1`` is the next significant token.  Where a
    text has one kind only (``(``, ``.``, ``:``, ``=``), the text alone is
    tested.  Call sites get their lines after the walk, from the offsets of
    their tokens.
    """
    whitespace, continuation, eof = (
        TokenKind.WHITESPACE, TokenKind.LINE_CONTINUATION, TokenKind.EOF
    )
    identifier, keyword_kind, newline = (
        TokenKind.IDENTIFIER, TokenKind.KEYWORD, TokenKind.NEWLINE
    )
    punct, string, comment = TokenKind.PUNCT, TokenKind.STRING, TokenKind.COMMENT
    columns = analysis.columns
    kept = {
        text: not (kind is whitespace or kind is continuation or kind is eof)
        for text, kind in columns.kind_of.items()
    }
    selectors = list(map(kept.__getitem__, columns.texts))
    kinds: list[TokenKind | None] = list(compress(columns.kinds, selectors))
    texts = list(compress(columns.texts, selectors))
    # One sentinel past the end: ``kinds[index + 1]`` needs no bounds check,
    # and ``texts[index - 1]`` at index 0 reads "", which is no member dot.
    kinds.append(None)
    texts.append("")

    declared: list[str] = []
    declared_seen: set[str] = set()
    uses: list[str] = []
    calls: list[tuple[str, int, bool]] = []  # (name, index, is_member)
    strings: list[str] = []
    comments: list[str] = []
    procedures: list[str] = []

    def declare(name: str) -> None:
        lowered = name.lower()
        if lowered not in declared_seen:
            declared_seen.add(lowered)
            declared.append(name)

    resume = 0  # a helper scan consumed the tokens before this index
    at_statement_start = True
    for index, kind in enumerate(kinds):  # the sentinel ends in the else
        if index < resume:
            continue
        if kind is identifier:
            text = texts[index]
            uses.append(text)
            is_member = texts[index - 1] == "."
            if texts[index + 1] == "(":
                calls.append((text, index, is_member))
            elif (
                at_statement_start
                and not is_member
                and text.lower() in ALL_CATEGORIZED_FUNCTIONS
            ):
                # Statement-style invocation: ``Shell program, 1``.
                calls.append((text, index, False))
            at_statement_start = False
        elif kind is newline:
            at_statement_start = True
        elif kind is punct:
            at_statement_start = texts[index] == ":"
        elif kind is string:
            strings.append(string_literal_value(texts[index]))
            at_statement_start = False
        elif kind is comment:
            comments.append(texts[index])
        elif kind is keyword_kind:
            keyword = texts[index].lower()
            at_statement_start = False
            if keyword in _PROCEDURE_KEYWORDS:
                resume = _scan_procedure(
                    kinds, texts, index, keyword, declare, procedures, strings
                )
            elif keyword in _DECLARATION_KEYWORDS:
                resume = _scan_declaration(kinds, texts, index, declare, strings)
            elif keyword == "for":
                resume = _scan_for(kinds, texts, index, declare)
            elif keyword == "call" and kinds[index + 1] is identifier:
                callee = texts[index + 1]
                calls.append((callee, index + 1, False))
                uses.append(callee)
                resume = index + 2
            elif keyword in ALL_CATEGORIZED_FUNCTIONS and texts[index + 1] == "(":
                # Callable builtins that lex as keywords: CStr(), CLng(), …
                calls.append((texts[index], index, texts[index - 1] == "."))
        else:
            at_statement_start = False

    call_sites: list[CallSite] = []
    if calls:
        # A kept token's index in the columns, then the line it is on.
        positions = list(compress(count(), selectors))
        lines = list(accumulate(columns.line_breaks(), initial=1))
        call_sites = [
            CallSite(name, lines[positions[index]], is_member)
            for name, index, is_member in calls
        ]

    analysis.declared_identifiers = declared
    analysis.identifier_uses = uses
    analysis.call_sites = call_sites
    analysis.string_literals = strings
    analysis.comments = comments
    analysis.procedure_names = procedures


def _scan_procedure(
    kinds: list[TokenKind | None],
    texts: list[str],
    index: int,
    keyword: str,
    declare,
    procedures: list[str],
    strings: list[str],
) -> int:
    """Handle ``Sub name(params)`` / ``Function name(...)`` / ``Property Get name``.

    Returns the index to resume scanning from.
    """
    identifier, keyword_kind = TokenKind.IDENTIFIER, TokenKind.KEYWORD
    cursor = index + 1
    if (
        keyword == "property"
        and (kinds[cursor] is keyword_kind or kinds[cursor] is identifier)
        and texts[cursor].lower() in ("get", "let", "set")
    ):
        cursor += 1
    if kinds[cursor] is not identifier:
        # ``End Sub`` / ``Exit Function`` — nothing declared here.
        return index + 1
    declare(texts[cursor])
    procedures.append(texts[cursor])
    cursor += 1
    # Parameters: ``(ByVal a As String, Optional b)``.
    if texts[cursor] == "(":
        depth = 0
        expecting_name = True
        end = len(kinds) - 1  # the sentinel
        while cursor < end:
            kind, text = kinds[cursor], texts[cursor]
            if kind is TokenKind.PUNCT:
                if text == "(":
                    depth += 1
                elif text == ")":
                    depth -= 1
                    if depth == 0:
                        cursor += 1
                        break
                elif text == "," and depth == 1:
                    expecting_name = True
            elif kind is keyword_kind:
                if text.lower() == "as":
                    expecting_name = False
                # byval/byref/optional/paramarray keep us expecting a name.
            elif kind is identifier and expecting_name and depth == 1:
                declare(text)
                expecting_name = False
            elif kind is TokenKind.STRING:
                strings.append(string_literal_value(text))
            cursor += 1
    return cursor


def _scan_declaration(
    kinds: list[TokenKind | None],
    texts: list[str],
    index: int,
    declare,
    strings: list[str],
) -> int:
    """Handle ``Dim a As X, b(10) As Y`` and friends on one logical line."""
    cursor = index + 1
    expecting_name = True
    depth = 0
    end = len(kinds) - 1  # the sentinel
    while cursor < end:
        kind, text = kinds[cursor], texts[cursor]
        if kind is TokenKind.NEWLINE:
            break
        if kind is TokenKind.PUNCT:
            if text == "(":
                depth += 1
            elif text == ")":
                depth = max(0, depth - 1)
            elif text == "," and depth == 0:
                expecting_name = True
            elif text == ":":
                break
        elif text == "=" and depth == 0:
            # ``Const x = 5``: the initializer is an expression, stop naming.
            expecting_name = False
        elif kind is TokenKind.KEYWORD:
            if text.lower() == "as":
                expecting_name = False
        elif kind is TokenKind.IDENTIFIER and expecting_name and depth == 0:
            declare(text)
            expecting_name = False
        elif kind is TokenKind.STRING:
            strings.append(string_literal_value(text))
        cursor += 1
    return cursor


def _scan_for(
    kinds: list[TokenKind | None], texts: list[str], index: int, declare
) -> int:
    """Handle ``For i = ...`` and ``For Each cell In ...`` loop variables."""
    cursor = index + 1
    if kinds[cursor] is TokenKind.KEYWORD and texts[cursor].lower() == "each":
        cursor += 1
    if kinds[cursor] is TokenKind.IDENTIFIER:
        declare(texts[cursor])
        cursor += 1
    return cursor
