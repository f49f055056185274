"""Linear-time contract for the per-macro passes.

Each input shape is doubled three times; the median of three timings may
grow at most 3x per doubling (linear work grows 2x, quadratic 4x, cubic
8x).  Three shapes aim at paths that are easy to make super-linear: the
words-in-comment test (long comments), argument lengths of nested calls and
the procedure-body scan (unterminated procedures).  Timings are CPU time
of this process, so a busy machine does not count against a pass; a
doubling over the bound is still re-timed up to twice before it fails.
Inputs stay small: the module runs in about twenty seconds.
"""

import gc
import statistics
import time

import pytest

from repro.ole.compression import compress, decompress
from repro.vba.analyzer import analyze, summarize
from repro.vba.lexer import tokenize

_REPEATS = 3
_DOUBLINGS = 3
_MAX_GROWTH = 3.0
_RETIMINGS = 2


def long_comments(n: int) -> str:
    """Comment lines of distinct words, with the same words in code."""
    comments = "".join(f"' note{i} alpha{i} beta{i} gamma{i}\n" for i in range(n))
    code = "".join(f"x{i} = note{i} + beta{i}\n" for i in range(n))
    return comments + code


def long_line(n: int) -> str:
    return "x = " + " + ".join(f"a{i}" for i in range(n)) + "\n"


def many_continuations(n: int) -> str:
    return "x = " + " & _\n    ".join(f'"part{i}"' for i in range(n)) + "\n"


def nested_calls(n: int) -> str:
    return "x = " + "f(" * n + "1" + ")" * n + "\n"


def unterminated_procedures(n: int) -> str:
    return "".join(f"Sub p{i}()\n" for i in range(n))


def huge_string(n: int) -> str:
    return 'x = "' + "A" * n + '"\n'


#: (shape, base size): the base is the smallest of the four inputs.
SHAPES = [
    (long_comments, 150),
    (long_line, 800),
    (many_continuations, 600),
    (nested_calls, 600),
    (unterminated_procedures, 500),
    (huge_string, 40_000),
]


def analyze_tokens(source: str):
    """The analysis, then the token list it builds on demand from its columns."""
    return analyze(source).tokens


#: (name, the function timed, its argument built from the source)
PASSES = [
    ("tokenize", tokenize, lambda source: source),
    ("analyze", analyze, lambda source: source),
    ("analyze_tokens", analyze_tokens, lambda source: source),
    ("summarize", summarize, analyze),
    ("decompress", decompress, lambda source: compress(source.encode("latin-1"))),
]


def _seconds(function, argument) -> float:
    """CPU seconds of one call: the work the pass does, not the time other
    processes hold the CPU while it waits to be scheduled."""
    gc.collect()
    gc.disable()
    try:
        started = time.process_time()
        function(argument)
        return time.process_time() - started
    finally:
        gc.enable()


def median_timings(function, arguments) -> list[float]:
    """Median of :data:`_REPEATS` timings per argument, after one untimed
    warm-up round, taken in interleaved rounds so that a slow spell of the
    machine hits every size alike."""
    for argument in arguments:
        function(argument)
    rounds = [
        [_seconds(function, argument) for argument in arguments]
        for _ in range(_REPEATS)
    ]
    return [statistics.median(samples) for samples in zip(*rounds)]


@pytest.mark.parametrize("shape, base", SHAPES, ids=[shape.__name__ for shape, _ in SHAPES])
@pytest.mark.parametrize("name, function, prepare", PASSES, ids=[name for name, *_ in PASSES])
def test_time_grows_linearly(shape, base, name, function, prepare):
    arguments = [prepare(shape(base << step)) for step in range(_DOUBLINGS + 1)]
    timings = median_timings(function, arguments)
    for step in range(_DOUBLINGS):
        pair = timings[step : step + 2]
        # Other processes on the machine can stall one size for a moment; a
        # super-linear pass exceeds the bound on every re-timing as well.
        for _ in range(_RETIMINGS):
            if pair[1] <= _MAX_GROWTH * pair[0]:
                break
            pair = median_timings(function, arguments[step : step + 2])
        assert pair[1] <= _MAX_GROWTH * pair[0], (
            f"{name} on {shape.__name__}, size x{1 << step} to x{2 << step}: "
            + " then ".join(f"{seconds * 1e3:.2f} ms" for seconds in pair)
        )
