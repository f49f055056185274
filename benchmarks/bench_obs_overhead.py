"""Telemetry overhead — off must be free, on must be cheap.

The engine promises an explicit no-op mode: with the default
:data:`~repro.obs.NULL_REGISTRY` the only telemetry cost on the
``run_source`` hot path is one ``metrics.enabled`` attribute check per
stage.  This bench holds that promise to a number:

* **off vs. baseline** — ``run_source`` with telemetry off must stay
  within 5% of the pre-telemetry stage loop (the PR 2 ``run_source``
  body, reconstructed inline), asserted on best-of-N rounds;
* **on vs. off** — a live registry's cost is measured and recorded for
  the artifact, not asserted (spans are allowed to cost something);
* **windowed/export off vs. bare** — attaching a :class:`SlidingWindow`
  and :class:`DriftMonitor` to a NULL_REGISTRY engine must also stay
  within the 5% gate on the per-document ``run`` path (the attachments
  exist but every tick exits on the ``enabled`` check), with the live
  windowed + Prometheus-scrape cost recorded alongside.

Environment knobs: ``REPRO_BENCH_OBS_SOURCES`` (default 120 macros),
``REPRO_BENCH_OBS_DOCS`` (default 40 documents),
``REPRO_BENCH_OBS_ROUNDS`` (default 5).
"""

from __future__ import annotations

import os
import random
import time

from conftest import save_artifact

from repro.engine import AnalysisEngine, MacroRecord, MacroStage
from repro.corpus.benign import generate_benign_module
from repro.obs import MetricsRegistry

N_SOURCES = int(os.environ.get("REPRO_BENCH_OBS_SOURCES", "120"))
N_DOCS = int(os.environ.get("REPRO_BENCH_OBS_DOCS", "40"))
N_ROUNDS = int(os.environ.get("REPRO_BENCH_OBS_ROUNDS", "5"))
MAX_OFF_OVERHEAD = 1.05  # telemetry off: < 5% over the PR 2 baseline


def build_sources(n_sources: int) -> list[str]:
    rng = random.Random(777)
    return [
        generate_benign_module(rng, target_length=rng.randint(400, 2500))
        for _ in range(n_sources)
    ]


def _baseline_run_source(stages, source: str) -> MacroRecord:
    """The pre-telemetry ``run_source`` body: the bare stage loop."""
    macro = MacroRecord(module_name="Macro1", source=source)
    for stage in stages:
        if isinstance(stage, MacroStage) and macro.kept:
            stage.process_macro(macro)
    macro.analysis = None
    return macro


def _best_of(rounds: int, run) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best


def test_run_source_telemetry_off_is_free(benchmark):
    sources = build_sources(N_SOURCES)

    def engine(metrics=None):
        # Caching off: a feature-row cache would serve every round after the
        # first from memory, and the gate would compare cache hits.
        return AnalysisEngine(
            feature_sets=("V",), metrics=metrics, cache_size=0, feature_cache_size=0
        )

    engine_off = engine()
    registry = MetricsRegistry()
    engine_on = engine(registry)
    stages = engine_off.stages

    # Warm every lazy import before the first timed round.
    _baseline_run_source(stages, sources[0])
    engine_off.run_source(sources[0])
    engine_on.run_source(sources[0])

    baseline = _best_of(
        N_ROUNDS,
        lambda: [_baseline_run_source(stages, source) for source in sources],
    )
    off = _best_of(
        N_ROUNDS, lambda: [engine_off.run_source(source) for source in sources]
    )
    on = _best_of(
        N_ROUNDS, lambda: [engine_on.run_source(source) for source in sources]
    )

    off_overhead = off / baseline
    on_overhead = on / baseline
    text = (
        "OBS OVERHEAD — run_source hot path, best of "
        f"{N_ROUNDS} rounds x {len(sources)} macros\n"
        f"PR 2 baseline loop : {baseline:.3f} s"
        f"  ({len(sources) / baseline:.1f} macros/s)\n"
        f"telemetry off      : {off:.3f} s  ({off_overhead:.3f}x baseline)\n"
        f"telemetry on       : {on:.3f} s  ({on_overhead:.3f}x baseline)\n"
        f"spans recorded     : {registry.histogram('span.analyze').count}\n"
    )
    print("\n" + text)
    save_artifact("obs_overhead.txt", text)

    # Parity: telemetry must never change what the engine computes.
    base_macro = _baseline_run_source(stages, sources[0])
    for engine in (engine_off, engine_on):
        macro = engine.run_source(sources[0])
        assert (macro.features["V"] == base_macro.features["V"]).all()

    assert off_overhead < MAX_OFF_OVERHEAD, text

    benchmark.pedantic(
        lambda: [engine_off.run_source(source) for source in sources[:30]],
        iterations=1,
        rounds=3,
    )


def build_documents(n_docs: int) -> list[bytes]:
    from repro.corpus.documents import build_document_bytes

    rng = random.Random(778)
    return [
        build_document_bytes(
            [generate_benign_module(rng, target_length=rng.randint(400, 1500))],
            "docm",
        )
        for _ in range(n_docs)
    ]


def test_windowed_observability_off_is_free(benchmark):
    """Window + drift attachments on a NULL_REGISTRY engine cost nothing."""
    from repro.obs import DriftMonitor, SlidingWindow, render_prometheus
    from repro.obs.drift import capture_profile

    documents = build_documents(N_DOCS)

    def engine(metrics=None):
        # Caching off: every round must take the full _process path the
        # observability tick lives on, not the cache-hit shortcut.
        return AnalysisEngine(
            feature_sets=("V",),
            metrics=metrics,
            cache_size=0,
            feature_cache_size=0,
        )

    bare = engine()

    attached_off = engine()
    attached_off.window = SlidingWindow()
    attached_off.drift_monitor = DriftMonitor(
        {"metrics": {}}, attached_off.metrics
    )

    live_registry = MetricsRegistry()
    live = engine(metrics=live_registry)
    live.window = SlidingWindow()
    live.drift_monitor = DriftMonitor(
        capture_profile(live_registry), live_registry
    )

    # Warm lazy imports before the first timed round.
    for warm in (bare, attached_off, live):
        warm.run(documents[0])

    baseline = _best_of(
        N_ROUNDS, lambda: [bare.run(document) for document in documents]
    )
    off = _best_of(
        N_ROUNDS,
        lambda: [attached_off.run(document) for document in documents],
    )
    on = _best_of(
        N_ROUNDS, lambda: [live.run(document) for document in documents]
    )
    scrape = _best_of(
        N_ROUNDS,
        lambda: render_prometheus(
            live_registry, live.window.view(live_registry)
        ),
    )

    off_overhead = off / baseline
    on_overhead = on / baseline
    text = (
        "WINDOWED OBS OVERHEAD — engine.run document path, best of "
        f"{N_ROUNDS} rounds x {len(documents)} documents\n"
        f"bare NULL_REGISTRY          : {baseline:.3f} s"
        f"  ({len(documents) / baseline:.1f} docs/s)\n"
        f"window+drift attached, off  : {off:.3f} s"
        f"  ({off_overhead:.3f}x bare)\n"
        f"window+drift+registry, live : {on:.3f} s"
        f"  ({on_overhead:.3f}x bare)\n"
        f"prometheus scrape (+window) : {scrape * 1000:.3f} ms/scrape\n"
        f"window snapshots kept       : {len(live.window)}\n"
    )
    print("\n" + text)
    save_artifact("obs_windowed_overhead.txt", text)

    # The tick path on a disabled registry is one attribute check: the
    # attachments must not cost the no-op mode its 5% budget.
    assert off_overhead < MAX_OFF_OVERHEAD, text

    benchmark.pedantic(
        lambda: [attached_off.run(document) for document in documents[:10]],
        iterations=1,
        rounds=3,
    )
