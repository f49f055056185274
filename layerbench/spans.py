"""Layer spans recorded from outside the program.

The benchmark wraps the module attributes the engine looks up at call time
(the names in :data:`LAYERS`), so a traced pass charges every call to the
layer that made it without any change to the program.  Spans nest: a layer's
*self* time is its span minus the time of the spans opened inside it, so
``vba.collect`` is ``analyze`` minus the ``tokenize`` it calls, and
``engine`` (the ``engine.run`` span) keeps only what no layer claimed.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from contextlib import contextmanager


def _count_extract(counts, args, result):
    counts["ole.extract.bytes_in"] += len(args[0])
    counts["ole.extract.chars_out"] += sum(len(m.source) for m in result.modules)


def _count_decompress(counts, args, result):
    counts["ole.decompress.bytes_in"] += len(args[0])
    counts["ole.decompress.bytes_out"] += len(result)


def _count_lex(counts, args, result):
    counts["vba.lex.chars"] += len(args[0])
    counts["vba.lex.tokens"] += len(result)


def _count_kernel(counts, args, result):
    counts["features.kernel.rows"] += len(result)


def _count_score(counts, args, result):
    counts["ml.score.rows"] += len(args[1])


def _count_recover(counts, args, result):
    counts["sa.recover.exhausted"] += bool(result.exhausted)
    counts["sa.recover.strings"] += len(result.strings)


def _count_lint(counts, args, result):
    counts["lint.rules.findings"] += len(result)


#: (module, attribute path, layer name, counter hook) for every wrapped call;
#: a hook sees the call's positional arguments (``self`` first for methods).
LAYERS = (
    ("repro.engine.core", "AnalysisEngine.run", "engine", None),
    ("repro.ole.extractor", "extract_macros", "ole.extract", _count_extract),
    ("repro.ole.vba_project", "decompress", "ole.decompress", _count_decompress),
    ("repro.vba.analyzer", "tokenize", "vba.lex", _count_lex),
    ("repro.vba.analyzer", "analyze", "vba.collect", None),
    ("repro.vba.analyzer", "summarize", "vba.summarize", None),
    ("repro.features.registry", "FeatureSet.extract_matrix", "features.kernel", _count_kernel),
    ("repro.engine.stages", "proba_from_matrix", "ml.score", _count_score),
    ("repro.sa.interpreter", "recover_strings", "sa.recover", _count_recover),
    ("repro.lint.registry", "lint_analysis", "lint.rules", _count_lint),
)

#: Calls counted without a span: macros that reach the recover stage.
COUNTED = (
    ("repro.engine.stages", "RecoverStage.process_macro", "sa.recover.macros_in"),
)

LAYER_NAMES = tuple(name for _, _, name, _ in LAYERS)


class Ledger:
    """Per-layer calls, total and self seconds, and counters."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.calls: Counter = Counter()
        self.total_s: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        #: child seconds accumulated by each open span, innermost last
        self._open: list[list[float]] = []

    def span(self, name: str, fn, hook=None):
        """``fn`` wrapped so each call records one ``name`` span."""
        clock, open_spans = self.clock, self._open

        def wrapper(*args, **kwargs):
            children = [0.0]
            open_spans.append(children)
            started = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                open_spans.pop()
                if open_spans:
                    open_spans[-1][0] += elapsed
                self.calls[name] += 1
                self.total_s[name] += elapsed
                self.self_s[name] += elapsed - children[0]
            if hook is not None:
                hook(self.counts, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name: str, fn):
        """``fn`` wrapped so each call bumps the ``name`` counter."""

        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self):
        """Every :data:`LAYERS` and :data:`COUNTED` wrapper in place for the
        duration of the block; the original attributes are restored after."""
        saved = []
        try:
            for module, path, name, hook in LAYERS:
                owner, attr = _resolve(module, path)
                saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, self.span(name, getattr(owner, attr), hook))
            for module, path, name in COUNTED:
                owner, attr = _resolve(module, path)
                saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, self.counter(name, getattr(owner, attr)))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_ms(self, name: str) -> float:
        return self.self_s[name] * 1e3


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attr
