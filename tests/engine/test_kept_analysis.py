"""Analyses kept with ``keep_analysis`` cross the worker pool intact.

An analysis carries its tokens as kind and text columns and builds the
:class:`~repro.vba.tokens.Token` list on first access.  What a pool worker
sends back must be the same analysis the serial path computes: equal
columns, equal tokens once built, equal collected lists and summaries.
"""

import dataclasses

import numpy as np

from repro.engine import AnalysisEngine
from repro.vba.lexer import tokenize


def kept_analyses(records):
    return [macro.analysis for record in records for macro in record.macros]


def assert_same_summary(mine, theirs) -> None:
    for field in dataclasses.fields(mine):
        a, b = getattr(mine, field.name), getattr(theirs, field.name)
        if isinstance(a, np.ndarray):
            assert np.array_equal(a, b), field.name
        else:
            assert a == b, field.name


def test_pooled_analyses_equal_serial_ones(document_factory):
    pairs = document_factory(6)

    def engine():
        # Caches off, so that both paths compute every document.
        return AnalysisEngine(
            feature_sets=("V",), keep_analysis=True, cache_size=0, feature_cache_size=0
        )

    with engine() as serial_engine:
        serial = kept_analyses(serial_engine.run(pair) for pair in pairs)
    with engine() as pooled_engine:
        pooled = kept_analyses(pooled_engine.stream(iter(pairs), jobs=2))
        # Every document went through a worker and was pickled back.
        assert pooled_engine._pool.tasks_completed == len(pairs)

    assert len(serial) == len(pooled) == len(pairs)
    for mine, theirs in zip(pooled, serial):
        assert mine is not None and theirs is not None
        assert mine.columns == theirs.columns
        assert mine.tokens == theirs.tokens == tokenize(mine.source)
        assert mine.declared_identifiers == theirs.declared_identifiers
        assert mine.identifier_uses == theirs.identifier_uses
        assert mine.call_sites == theirs.call_sites
        assert mine == theirs
        assert_same_summary(mine.ensure_summary(), theirs.ensure_summary())
