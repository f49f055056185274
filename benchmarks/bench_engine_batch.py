"""Engine batch throughput — parallel fan-out vs. sequential scanning.

Builds a fleet of synthetic macro documents (the mail-gateway workload the
ROADMAP targets) and drives ``AnalysisEngine.run_batch`` end to end
(extract → analyze → featurize → classify) at ``jobs=1`` and ``jobs=4``:

* the two runs must produce identical verdicts and scores (parity);
* on a multi-core host, ``jobs=4`` must beat ``jobs=1`` wall-clock.

All timing comes from the engine's own :class:`~repro.obs.MetricsRegistry`
(the ``span.batch`` histogram and the per-stage spans) — no ad-hoc
``time.perf_counter()`` bookkeeping, so the bench artifact and runtime
telemetry can never disagree.  Per-stage p50/p95 land in
``benchmarks/results/engine_stats.json``, the perf-trajectory baseline.

Environment knobs: ``REPRO_BENCH_DOCS`` (default 210 documents).
"""

from __future__ import annotations

import json
import os
import random

from conftest import registry_stage_stats, save_artifact

from repro import ObfuscationDetector
from repro.corpus.benign import generate_benign_module
from repro.corpus.documents import build_document_bytes
from repro.corpus.malicious import generate_malicious_macro
from repro.engine import AnalysisEngine
from repro.obfuscation.pipeline import default_pipeline
from repro.obs import MetricsRegistry

N_DOCS = int(os.environ.get("REPRO_BENCH_DOCS", "210"))
PARALLEL_JOBS = 4


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def build_fleet(n_docs: int) -> tuple[list[tuple[str, bytes]], list[str], list[int]]:
    """``n_docs`` single-macro documents, roughly one third obfuscated."""
    rng = random.Random(909)
    pipeline = default_pipeline()
    documents: list[tuple[str, bytes]] = []
    sources: list[str] = []
    labels: list[int] = []
    for index in range(n_docs):
        if index % 3 == 0:
            source = pipeline.run(
                generate_malicious_macro(rng, rng.choice(("word", "excel"))),
                seed=index,
            ).source
            labels.append(1)
        else:
            source = generate_benign_module(
                rng, target_length=rng.randint(400, 4000)
            )
            labels.append(0)
        sources.append(source)
        file_format = "docm" if index % 2 == 0 else "xlsm"
        documents.append(
            (f"doc_{index:04d}.{file_format}", build_document_bytes([source], file_format))
        )
    return documents, sources, labels


def _timed_batch(detector, documents, jobs: int):
    registry = MetricsRegistry()
    engine = AnalysisEngine.for_scan(detector, metrics=registry)
    records = engine.run_batch(documents, jobs=jobs)
    # Wall-clock straight from the telemetry layer: the batch span.
    elapsed = registry.histogram("span.batch").sum
    return elapsed, records, registry, engine.cache_info()


def test_engine_batch_parallel_beats_serial(benchmark):
    documents, sources, labels = build_fleet(N_DOCS)
    assert len(documents) >= 200

    # Train once in the parent; workers receive the pickled detector.
    train_sources = sources[::2]
    train_labels = labels[::2]
    assert len(set(train_labels)) == 2
    detector = ObfuscationDetector("RF").fit(train_sources, train_labels)

    serial_time, serial_records, serial_registry, serial_cache = _timed_batch(
        detector, documents, jobs=1
    )
    parallel_time, parallel_records, parallel_registry, parallel_cache = (
        _timed_batch(detector, documents, jobs=PARALLEL_JOBS)
    )

    # Worker merge: the parallel registry must still see every document,
    # and the merged cache counters must agree between jobs=1 and jobs=N.
    for registry in (serial_registry, parallel_registry):
        assert registry.histogram("span.document").count == len(documents)
    merged_keys = [key for key in serial_cache if key != "feature_size"]
    assert {key: serial_cache[key] for key in merged_keys} == {
        key: parallel_cache[key] for key in merged_keys
    }
    # ``feature_size`` is the parent's own row cache (rows never cross
    # processes): the serial run kept a row per miss it did not evict, the
    # fan-out run computed nothing in the parent.
    assert serial_cache["feature_size"] == (
        serial_cache["feature_misses"] - serial_cache["feature_evictions"]
    )
    assert parallel_cache["feature_size"] == 0

    # Parity: fan-out must not change a single score or verdict.
    assert all(record.ok for record in serial_records)
    assert [r.source_id for r in serial_records] == [
        r.source_id for r in parallel_records
    ]
    for a, b in zip(serial_records, parallel_records):
        assert [m.score for m in a.macros] == [m.score for m in b.macros]
        assert [m.verdict for m in a.macros] == [m.verdict for m in b.macros]

    flagged = sum(r.any_obfuscated for r in serial_records)
    cpus = _available_cpus()
    speedup = serial_time / parallel_time if parallel_time else float("inf")
    text = (
        "ENGINE BATCH — run_batch over synthetic gateway traffic\n"
        f"documents          : {len(documents)}\n"
        f"flagged obfuscated : {flagged}\n"
        f"available CPUs     : {cpus}\n"
        f"jobs=1 wall-clock  : {serial_time:.3f} s"
        f"  ({len(documents) / serial_time:.1f} docs/s)\n"
        f"jobs={PARALLEL_JOBS} wall-clock  : {parallel_time:.3f} s"
        f"  ({len(documents) / parallel_time:.1f} docs/s)\n"
        f"speedup            : {speedup:.2f}x\n"
    )
    print("\n" + text)
    save_artifact("engine_batch.txt", text)
    save_artifact(
        "engine_stats.json",
        json.dumps(
            {
                "documents": len(documents),
                "available_cpus": cpus,
                "throughput_docs_per_s": {
                    "jobs1": round(len(documents) / serial_time, 1),
                    f"jobs{PARALLEL_JOBS}": round(
                        len(documents) / parallel_time, 1
                    ),
                },
                "cache": serial_cache,
                "stages": {
                    "jobs1": registry_stage_stats(serial_registry),
                    f"jobs{PARALLEL_JOBS}": registry_stage_stats(
                        parallel_registry
                    ),
                },
            },
            indent=2,
            sort_keys=True,
        ),
    )

    if cpus >= 2:
        # The whole point of the batch layer: fan-out wins wall-clock.
        assert parallel_time < serial_time, text
    else:
        print("single-CPU host: speedup assertion skipped (pool adds overhead)")

    benchmark.pedantic(
        lambda: AnalysisEngine.for_scan(detector).run_batch(
            documents[:40], jobs=1
        ),
        iterations=1,
        rounds=3,
    )
