"""Shared fixtures for the VBA parity tests."""

import pytest

from repro.corpus.builder import CorpusBuilder, default_bench_profile, paper_profile


@pytest.fixture(scope="session")
def corpus_sources():
    """Every macro of a small paper-profile and a small bench-profile corpus:
    benign, malicious and obfuscated, at the Fig. 5 lengths."""
    sources: list[str] = []
    for profile, seed in (
        (paper_profile().scaled(0.01), 3),
        (default_bench_profile().scaled(0.05), 4),
    ):
        sources.extend(sorted(CorpusBuilder(profile, seed=seed).build().truth))
    return sources
