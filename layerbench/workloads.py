"""The three workloads: what each runs, measures and checks.

Every workload reports all end-to-end metrics (``trace=False``) or all
per-layer metrics (``trace=True``); a layer a workload does not exercise reads
0 in its traced run, which is the "bypassed, no change" prediction.
"""

from __future__ import annotations

import json
import os
import pickle
import random
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

from measure import (
    descendants,
    digest,
    f2_score,
    hit_ratio,
    macro_labels,
    max_ok_rate,
    peak_rss_mb,
    percentile,
    rung_verdict,
    SpeedLog,
)
from spans import LAYER_NAMES, Ledger

#: Pool workers for warm_fleet, as for ``repro serve`` (its default).
JOBS = 2
#: Documents per cold_scan run: 2 from each of 100 macro-length strata.
COLD_STRATA, COLD_PER_STRATUM = 100, 2
#: Fleet groups per warm_fleet run: one per novel document, 2 from each of
#: 32 macro-length strata, each group 32 documents (the original, its 3
#: re-encodings and 28 exact resubmissions of those four).  The novel
#: documents are the same for every seed (drawn with FLEET_DRAW_SEED); the
#: seed shuffles the traffic.  F2 over a few dozen documents moves by 20-25%
#: between draws.  With 1 per stratum the p50 and p95 spread by 17% and 16%
#: over ten seeds.  More strata would not do: 225 documents cut into 64
#: strata of 3 leave the 33 longest, the ones big enough for shm transport,
#: out of every draw.
FLEET_STRATA, FLEET_PER_STRATUM, FLEET_GROUP_SIZE, FLEET_DRAW_SEED = 32, 2, 32, 0
#: serve_open's ascending ladder of absolute rates (requests per second).
#: On 2 vCPUs the server holds 12.9 req/s when the host is quiet and about 10
#: when it is busy.  ``low`` is about 1/3 of the quiet capacity; ``high`` is
#: 3/4 of the busy one, since at 10 req/s queueing turned the host's speed
#: swings into a p50 anywhere from 107 to 216 ms.
LADDER = (("low", 5.0), ("high", 7.5))
#: Requests per rung, 2 from each of 100 strata: a p95 has 10 samples beyond.
SERVE_STRATA, SERVE_PER_STRATUM = 100, 2


@dataclass
class Result:
    correct: bool = True
    attempted: int = 0
    failed: int = 0
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: human-readable lines printed before the JSON line
    notes: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.notes.append(f"check {'PASS' if ok else 'FAIL'}: {what}")
        self.correct = self.correct and ok

    def put(self, name: str, value: float, unit: str, samples: int | None = None) -> None:
        self.metrics[name] = (float(value), unit)
        if samples is not None:
            self.notes.append(f"{name} from {samples} samples")

    def count(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed


def _timed(build):
    """``build()`` and the seconds it took.  Each run sets up once: a set-up
    costs a 4.5 s detector fit, and a benchmark series (70 runs in 3420 s,
    see NOTES.md) leaves no time for a second; medians over runs are what
    get compared."""
    started = time.perf_counter()
    built = build()
    return time.perf_counter() - started, built


def _rows(record):
    return tuple((m.verdict, m.score) for m in record.macros)


def _f2(docs, verdict_lists) -> float:
    truth, predicted = [], []
    for doc, verdicts in zip(docs, verdict_lists):
        t, p = macro_labels(doc.obfuscated_flags, verdicts)
        truth += t
        predicted += p
    return f2_score(truth, predicted)


def _latencies(result: Result, seconds: list[float]) -> None:
    for q, name in ((0.5, "doc_p50_ms"), (0.95, "doc_p95_ms")):
        value, n = percentile(seconds, q)
        result.put(name, value * 1e3, "ms", n)


def _raw_latencies(result: Result, seconds: list[float]) -> None:
    p50, p95 = (percentile(seconds, q)[0] * 1e3 for q in (0.5, 0.95))
    result.notes.append(f"raw p50 {p50:.3f} ms, p95 {p95:.3f} ms")


def _serial_pass(engine, items, speed: SpeedLog | None = None):
    """``engine.run`` over ``(id, bytes)`` items: records, each call's
    ``(start, end)``, and the wall time of the pass.  With ``speed``, the
    host's speed is probed between calls."""
    records, spans = [], []
    if speed is not None:
        speed.probe()
    started = time.perf_counter()
    for item in items:
        t0 = time.perf_counter()
        records.append(engine.run(item))
        spans.append((t0, time.perf_counter()))
        if speed is not None:
            speed.probe()
    return records, spans, time.perf_counter() - started


def _warm(engine, pool):
    """``engine`` after two small documents, so one-off imports and lazy
    set-up inside the first ``engine.run`` stay out of the timed passes."""
    for index, data in enumerate(pool.warmup):
        engine.run((f"warmup-{index}", data))
    return engine


def _seconds(spans, speed: SpeedLog | None = None) -> list[float]:
    """Each span's length, at reference speed when ``speed`` is given."""
    if speed is None:
        return [t1 - t0 for t0, t1 in spans]
    return [(t1 - t0) / speed.around(t0, t1) for t0, t1 in spans]


def _traced_pass(result: Result, make_engine, items, plain, plain_s) -> None:
    """A traced serial pass over ``items``, set beside the untraced serial
    pass that gave ``plain`` in ``plain_s`` seconds: every per-layer timing
    and counter, the tracing overhead, and the digest check."""
    ledger = Ledger()
    engine = make_engine()
    with ledger.installed():
        traced, _, wall = _serial_pass(engine, items)
    engine.close()

    counts, calls = ledger.counts, ledger.calls
    for name in LAYER_NAMES[1:]:
        if name in ("features.kernel", "ml.score"):
            continue  # counted in rows below
        result.put(f"{name}.calls", calls[name], "count")
    for name in LAYER_NAMES[1:]:
        result.put(f"{name}.ms", ledger.self_ms(name), "ms")
    for name, unit in (
        ("ole.extract.bytes_in", "B"),
        ("ole.extract.chars_out", "chars"),
        ("ole.decompress.bytes_in", "B"),
        ("ole.decompress.bytes_out", "B"),
        ("vba.lex.chars", "chars"),
        ("vba.lex.tokens", "count"),
        ("features.kernel.rows", "count"),
        ("ml.score.rows", "count"),
        ("sa.recover.exhausted", "count"),
        ("sa.recover.strings", "count"),
        ("lint.rules.findings", "count"),
    ):
        result.put(name, counts[name], unit)
    reached = counts["sa.recover.macros_in"]
    result.put(
        "engine.sa_cache.hit_ratio",
        1.0 - calls["sa.recover"] / reached if reached else 0.0,
        "ratio",
    )
    result.put("engine.self_ms", ledger.self_ms("engine"), "ms")
    accounted = sum(ledger.self_s.values()) / wall
    result.put("trace.wall_ms", wall * 1e3, "ms")
    result.put("trace.accounted", accounted, "ratio")
    result.put("trace.overhead", wall / plain_s, "x")

    result.notes.append(f"traced pass: {len(items)} documents, {wall:.2f} s")
    for name in LAYER_NAMES:
        result.notes.append(
            f"  {name:16s} self {ledger.self_ms(name):9.1f} ms"
            f"  {ledger.self_s[name] / wall:6.1%}  calls {calls[name]}"
        )
    untraced, traced = digest(map(_rows, plain)), digest(map(_rows, traced))
    result.notes.append(f"digest untraced={untraced} traced={traced}")
    result.check(
        untraced == traced, "traced and untraced passes give the same verdicts and scores"
    )
    result.check(
        abs(accounted - 1.0) <= 0.05,
        f"layer self times plus engine.self_ms are {accounted:.1%} of the traced wall",
    )


def _zero(result: Result, names) -> None:
    for name, unit in names:
        result.metrics.setdefault(name, (0.0, unit))


POOL_METRICS = (
    ("engine.pool.dispatched", "count"),
    ("engine.pool.coalesced", "count"),
    ("engine.pool.wait_ms", "ms"),
    ("engine.pool.large_records", "count"),
    ("engine.doc_cache.hit_ratio", "ratio"),
    ("engine.feature_cache.hit_ratio", "ratio"),
)
SERVE_METRICS = (
    ("serve.high.p50_ms", "ms"),
    ("serve.high.p95_ms", "ms"),
    ("serve.http.overhead_ms.p50", "ms"),
    ("serve.http.connections", "count"),
    ("serve.http.refused", "count"),
    ("serve.queue_depth.max", "count"),
    ("serve.gen.late_ms.max", "ms"),
)


def _settle(result: Result, items, records) -> None:
    """N inputs give N records; a record that is not ok counts as failed."""
    result.check(
        len(records) == len(items), f"{len(items)} documents in, {len(records)} records out"
    )
    result.count(len(records), sum(1 for r in records if not r.ok))


def _reference_check(result: Result, docs, rows, what: str) -> None:
    """Each document scored exactly as the pool's in-process reference run."""
    differ = sum(1 for doc, row in zip(docs, rows) if tuple(row) != doc.expected)
    result.check(differ == 0, f"{what}: {differ} of {len(docs)} differ from the reference run")


# -- cold_scan ------------------------------------------------------------------


def cold_scan(pool, seed: int, trace: bool, scale: float) -> Result:
    """Unique paper-profile documents, serial ``engine.run``, caches off."""
    from inputs import train_detector
    from repro.engine import AnalysisEngine

    result = Result()
    (docs,) = pool.draw(
        seed, strata=COLD_STRATA, groups=1, per_stratum=round(COLD_PER_STRATUM * scale)
    )
    items = [(f"cold-{doc.index}", doc.data) for doc in docs]

    def make_engine(detector):
        return AnalysisEngine(detector=detector, cache_size=0, feature_cache_size=0)

    def build():
        detector = train_detector(pool)
        return detector, _warm(make_engine(detector), pool)

    setup_s, (detector, engine) = _timed(build)
    speed = None if trace else SpeedLog()
    records, spans, wall = _serial_pass(engine, items, speed)
    engine.close()
    _settle(result, items, records)
    _reference_check(result, docs, map(_rows, records), "cold_scan documents")
    result.notes.append(f"digest measured={digest(map(_rows, records))}")
    if trace:
        _traced_pass(result, lambda: _warm(make_engine(detector), pool), items, records, wall)
        _zero(result, POOL_METRICS + SERVE_METRICS)
        return result
    seconds = _seconds(spans, speed)
    result.notes.append(
        f"raw {len(items) / wall:.3f} docs/s, at reference speed {len(items) / sum(seconds):.3f}"
    )
    _raw_latencies(result, _seconds(spans))
    result.put("setup_s", setup_s, "s", 1)
    result.put("docs_per_s", len(items) / sum(seconds), "1/s", len(items))
    _latencies(result, seconds)
    result.put("peak_rss_mb", peak_rss_mb([os.getpid()]), "MB")
    result.put("f2", _f2(docs, [[m.verdict for m in r.macros] for r in records]), "ratio")
    return result


# -- warm_fleet -----------------------------------------------------------------


def fleet_mix(novel, seed: int) -> list[tuple[int, int, bytes]]:
    """``(group, variant, bytes)`` per document, shuffled: variant 0 is the
    novel original, 1-3 its re-encodings, each sent 8 times in total."""
    mix = [
        (group, k % 4, (doc.data, *doc.variants)[k % 4])
        for group, doc in enumerate(novel)
        for k in range(FLEET_GROUP_SIZE)
    ]
    random.Random(seed).shuffle(mix)
    return mix


def _check_fleet(result: Result, novel, mix, records) -> None:
    first: dict[tuple[int, int], tuple] = {}
    resubmission_differs = 0
    for (group, variant, _), record in zip(mix, records):
        rows = _rows(record)
        if first.setdefault((group, variant), rows) != rows:
            resubmission_differs += 1
    result.check(
        resubmission_differs == 0,
        f"{resubmission_differs} exact resubmissions differ from their first copy",
    )
    _reference_check(
        result, novel, [first[(g, 0)] for g in range(len(novel))], "novel originals"
    )
    # The re-encoding check, that every re-encoding carries exactly its
    # original's verdicts and scores, is reported, not gated: with
    # --recover the feature-row cache is never read (finding 1 in NOTES.md),
    # so each re-encoding is featurized from its own raw source and scores
    # differ on every run.  It becomes a gate once finding 1 is fixed.
    verdicts_differ = scores_differ = 0
    for group in range(len(novel)):
        original = first[(group, 0)]
        for variant in (1, 2, 3):
            rows = first[(group, variant)]
            verdicts_differ += sum(a[0] != b[0] for a, b in zip(rows, original))
            scores_differ += sum(a[1] != b[1] for a, b in zip(rows, original))
    result.notes.append(
        f"finding 1: of the re-encoded macros, {scores_differ} score and "
        f"{verdicts_differ} verdict differently from their original"
    )


@contextmanager
def _pool_probe(counts):
    """Count what the warm pool's stream yields: computed (dispatched),
    coalesced, and computed records whose pickle crosses the shm threshold."""
    from repro.engine import stream

    original = stream.StreamingPool.stream

    def probed(self, entries, **kwargs):
        for item in original(self, entries, **kwargs):
            if item.computed:
                counts["dispatched"] += 1
                size = len(pickle.dumps(item.record, protocol=pickle.HIGHEST_PROTOCOL))
                counts["large"] += size >= stream.DEFAULT_SHM_THRESHOLD
            counts["coalesced"] += item.coalesced
            yield item

    stream.StreamingPool.stream = probed
    try:
        yield counts
    finally:
        stream.StreamingPool.stream = original


def warm_fleet(pool, seed: int, trace: bool, scale: float) -> Result:
    """Resubmission-heavy gateway traffic through the warm pool (jobs=2)."""
    from inputs import train_detector
    from repro.engine import AnalysisEngine

    result = Result()
    (novel,) = pool.draw(
        FLEET_DRAW_SEED,
        strata=FLEET_STRATA,
        groups=1,
        per_stratum=round(FLEET_PER_STRATUM * scale),
        fleet=True,
    )
    mix = fleet_mix(novel, seed)
    items = [(f"fleet-{g}-{v}-{i}", data) for i, (g, v, data) in enumerate(mix)]
    warmup = [(f"warmup-{i}", data) for i, data in enumerate(pool.warmup)]

    def make_engine(detector):
        return AnalysisEngine.for_scan(detector, lint=True, recover=True)

    def build():
        detector = train_detector(pool)
        engine = make_engine(detector)
        for _ in engine.stream(iter(warmup), jobs=JOBS):  # spawn the workers
            pass
        return detector, engine

    setup_s, (detector, engine) = _timed(build)
    admitted: list[float] = []

    def feed():
        for item in items:
            admitted.append(time.perf_counter())
            yield item

    counts = {"dispatched": 0, "coalesced": 0, "large": 0}
    records, spans, wait = [], [], 0.0
    speed = SpeedLog()
    before = engine.cache_info()
    probe = _pool_probe(counts) if trace else nullcontext()
    with probe:
        speed.probe()
        started = time.perf_counter()
        stream = engine.stream(feed(), jobs=JOBS)
        while True:
            asked = time.perf_counter()
            record = next(stream, None)
            now = time.perf_counter()
            if record is None:
                break
            wait += now - asked
            spans.append((admitted[len(records)], now))
            records.append(record)
            if now - speed.samples[-1][0] >= 0.25:
                speed.probe()
        wall = time.perf_counter() - started
        speed.probe()
    after = engine.cache_info()
    rss = peak_rss_mb([os.getpid(), *descendants(os.getpid())])
    engine.close()

    _settle(result, items, records)
    _check_fleet(result, novel, mix, records)
    if trace:
        result.put("engine.pool.dispatched", counts["dispatched"], "count")
        result.put("engine.pool.coalesced", counts["coalesced"], "count")
        result.put("engine.pool.wait_ms", wait * 1e3, "ms")
        result.put("engine.pool.large_records", counts["large"], "count")
        result.put("engine.doc_cache.hit_ratio", hit_ratio(before, after), "ratio")
        result.put(
            "engine.feature_cache.hit_ratio", hit_ratio(before, after, "feature_"), "ratio"
        )
        # Layers are traced in-process, so serially, beside a serial
        # untraced pass of the same mix through a fresh engine.
        serial = _warm(make_engine(detector), pool)
        plain, _, plain_s = _serial_pass(serial, items)
        serial.close()
        _traced_pass(result, lambda: _warm(make_engine(detector), pool), items, plain, plain_s)
        _zero(result, SERVE_METRICS)
        return result
    reference = wall / speed.around(started, started + wall, pad=0.0)
    result.notes.append(
        f"raw {len(items) / wall:.3f} docs/s, at reference speed {len(items) / reference:.3f}"
    )
    _raw_latencies(result, _seconds(spans))
    result.put("setup_s", setup_s, "s", 1)
    result.put("docs_per_s", len(items) / reference, "1/s", len(items))
    # The p50 is a cache hit served in the parent, a fraction of a
    # millisecond that the speed probe does not predict: over eleven seeds
    # it spread by 9% raw and 22% at reference speed.  The p95 is a computed
    # document, which the probe does predict (9% against 11% raw).
    value, n = percentile(_seconds(spans), 0.5)
    result.put("doc_p50_ms", value * 1e3, "ms", n)
    value, n = percentile(_seconds(spans, speed), 0.95)
    result.put("doc_p95_ms", value * 1e3, "ms", n)
    result.put("peak_rss_mb", rss, "MB")
    result.put(
        "f2",
        _f2([novel[g] for g, _, _ in mix], [[m.verdict for m in r.macros] for r in records]),
        "ratio",
    )
    return result


# -- serve_open -----------------------------------------------------------------


def _scan_ceiling_s() -> float:
    from repro.obs.slo import serve_slos

    (slo,) = [s for s in serve_slos() if s.name == "serve-scan-p95"]
    return slo.target_s


def _response_verdicts(request):
    if request.status != 200:
        return None
    (line,) = request.body.decode().splitlines()
    return [macro["verdict"] for macro in json.loads(line)["macros"]]


def serve_open(pool, seed: int, trace: bool, scale: float, root) -> Result:
    """Open-loop ``POST /scan`` of unique documents against ``repro serve``."""
    from loadgen import Generator, Server

    result = Result()
    ceiling = _scan_ceiling_s()
    samples = pool.draw(
        seed,
        strata=SERVE_STRATA,
        groups=len(LADDER),
        per_stratum=round(SERVE_PER_STRATUM * scale),
    )
    server = Server(root)
    # Requests cross four processes on two cores, so they also wait for
    # cores other tenants hold, which only the probe's wall time sees.  With
    # a CPU-bound process beside it, the low rung's p50 read 47.8 ms at
    # thread-CPU speed and 40.2 ms at wall speed, against 41.7 ms without;
    # the p95 read 344.5 and 261.5 ms, against 262.5 ms.  The probe runs
    # while the generator is idle, and the server is then mostly idle too.
    speed = SpeedLog(wall=True)
    try:
        setup_s = server.wait_ready()
        speed.probe()
        generator = Generator(server.port, speed)
        depth = _QueueSampler(server) if trace else None
        rungs = [
            generator.run(name, rate, [doc.data for doc in docs])
            for (name, rate), docs in zip(LADDER, samples)
        ]
        if depth is not None:
            depth.stop()
        rss = peak_rss_mb(server.pids())
    finally:
        server.stop()

    reference = {
        rung.name: [r.latency / speed.around(r.due, r.done) for r in rung.requests]
        for rung in rungs
    }
    for rung, docs in zip(rungs, samples):
        answered = sum(1 for r in rung.requests if r is not None)
        result.check(
            answered == len(docs), f"rung {rung.name}: {len(docs)} sent, {answered} settled"
        )
        result.count(len(docs), len(docs) - rung.ok)
        p50, _ = percentile([r.latency for r in rung.requests], 0.5)
        p95, n = percentile([r.latency for r in rung.requests], 0.95)
        result.notes.append(
            f"rung {rung.name} {rung.rate:g}/s: {rung_verdict(rung, ceiling)}; "
            f"sent {len(rung.requests)}, ok {rung.ok}, refused {rung.refused() or 0}, "
            f"failed {rung.failed}; p50 {p50 * 1e3:.1f} ms, p95 {p95 * 1e3:.1f} ms "
            f"over {n}; ok-rate {rung.ok_rate():.3f}/s; generator late max "
            f"{max(r.late for r in rung.requests) * 1e3:.2f} ms"
        )
        p50, _ = percentile(reference[rung.name], 0.5)
        p95, _ = percentile(reference[rung.name], 0.95)
        result.notes.append(
            f"rung {rung.name} at reference speed: p50 {p50 * 1e3:.1f} ms, p95 {p95 * 1e3:.1f} ms"
        )
        differ = sum(
            1
            for doc, request in zip(docs, rung.requests)
            if request.status == 200
            and _response_verdicts(request) != [v for v, _ in doc.expected]
        )
        result.check(
            differ == 0, f"rung {rung.name}: {differ} responses differ from the in-process verdicts"
        )
    if trace:
        _serve_trace(result, pool, samples[0], rungs, reference, generator, depth)
        _zero(result, POOL_METRICS)
        return result
    result.put("setup_s", setup_s, "s", 1)
    result.put("docs_per_s", max_ok_rate(rungs, ceiling), "1/s")
    _latencies(result, reference["low"])
    result.put("peak_rss_mb", rss, "MB")
    result.put(
        "f2",
        _f2(
            [doc for docs in samples for doc in docs],
            [_response_verdicts(r) for rung in rungs for r in rung.requests],
        ),
        "ratio",
    )
    return result


class _QueueSampler:
    """Scrape ``repro_serve_queue_depth`` from /metrics every 0.2 s."""

    def __init__(self, server) -> None:
        self.server, self.peak = server, 0.0
        self._done = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        while not self._done.wait(0.2):
            self.peak = max(self.peak, self.server.gauge("repro_serve_queue_depth"))

    def stop(self) -> None:
        self._done.set()
        self._thread.join()


def _serve_trace(result, pool, docs, rungs, reference, generator, depth) -> None:
    """In-process passes over the ``low`` rung's documents: the engine time
    each request carried, hence the HTTP/serving overhead, and the layers."""
    from inputs import train_detector
    from repro.engine import AnalysisEngine

    detector = train_detector(pool)

    def make_engine():
        return _warm(AnalysisEngine.for_scan(detector, lint=True), pool)

    # The first half of the low rung: enough for the overhead's p50 and the
    # layer split, at half the in-process time.
    low = rungs[0].requests[: len(docs) // 2]
    docs = docs[: len(docs) // 2]
    items = [(f"low-{doc.index}", doc.data) for doc in docs]
    engine = make_engine()
    speed = SpeedLog(wall=True)  # as the requests it is subtracted from
    records, spans, wall = _serial_pass(engine, items, speed)
    engine.close()
    differ = sum(
        1
        for record, request in zip(records, low)
        if request.status == 200
        and _response_verdicts(request) != [m.verdict for m in record.macros]
    )
    result.check(differ == 0, f"{differ} low-rung responses differ from engine.run verdicts")
    overhead = [r - s for r, s in zip(reference["low"], _seconds(spans, speed))]
    value, n = percentile(overhead, 0.5)
    result.put("serve.http.overhead_ms.p50", value * 1e3, "ms", n)
    result.put("serve.http.connections", generator.connections_opened, "count")
    result.put("serve.http.refused", sum(sum(r.refused().values()) for r in rungs), "count")
    result.put("serve.queue_depth.max", depth.peak, "count")
    result.put(
        "serve.gen.late_ms.max", max(q.late for r in rungs for q in r.requests) * 1e3, "ms"
    )
    for q, name in ((0.5, "p50"), (0.95, "p95")):
        value, n = percentile(reference["high"], q)
        result.put(f"serve.high.{name}_ms", value * 1e3, "ms", n)
    _traced_pass(result, make_engine, items, records, sum(_seconds(spans)))
