"""The benchmark's metric arithmetic: pure functions over measured values."""

from __future__ import annotations

import hashlib
import math
import os
import statistics
import time
from dataclasses import dataclass, field

#: A percentile is reported only when this many samples lie beyond it.
MIN_TAIL_SAMPLES = 10


def percentile(values, q: float) -> tuple[float, int]:
    """The nearest-rank ``q`` quantile of ``values`` and the sample count.

    Raises ``ValueError`` unless at least :data:`MIN_TAIL_SAMPLES` samples
    lie beyond the quantile, i.e. ``n * (1 - q) >= 10`` (200 samples for a
    p95, 20 for a p50).  Failed operations enter as ``math.inf``.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n * (1.0 - q) < MIN_TAIL_SAMPLES - 1e-9:
        raise ValueError(
            f"p{q * 100:g} needs {MIN_TAIL_SAMPLES} samples beyond it; "
            f"{n} samples give {n * (1.0 - q):.1f}"
        )
    rank = max(1, math.ceil(q * n))
    return ordered[rank - 1], n


def f2_score(truth: list[bool], predicted: list[bool]) -> float:
    """The paper's F2 (recall weighted 4:1) over per-macro verdicts."""
    from repro.ml.metrics import f2_score as f2

    return float(f2([int(t) for t in truth], [int(p) for p in predicted]))


def macro_labels(flags, verdicts) -> tuple[list[bool], list[bool]]:
    """Ground truth and predictions for one document's macros; a macro with
    no verdict (failed document) counts as a missed detection."""
    if verdicts is None:
        verdicts = [None] * len(flags)
    if len(verdicts) != len(flags):
        raise ValueError(f"{len(verdicts)} verdicts for {len(flags)} macros")
    return list(flags), [verdict == "obfuscated" for verdict in verdicts]


def hit_ratio(before: dict, after: dict, prefix: str = "") -> float:
    """Cache hit ratio over the interval between two ``cache_info()`` calls."""
    hits = after[f"{prefix}hits"] - before[f"{prefix}hits"]
    misses = after[f"{prefix}misses"] - before[f"{prefix}misses"]
    return hits / (hits + misses) if hits + misses else 0.0


#: Thread CPU seconds :func:`speed_probe`'s kernel takes on the reference
#: machine (2 vCPUs, Python 3.11) when its host is quiet.
PROBE_REFERENCE_S = 0.0025


def speed_probe(wall: bool = False) -> float:
    """How slowly this core runs right now against the reference machine.

    Shared hosts swing the speed of a core by up to 2x over seconds, for the
    same instructions.  The benchmark divides its timings by this factor,
    probed around them (never inside a timed call), so a run reports what it
    would have taken on the reference core.  It reads thread CPU time, so a
    probe that waits for a core busy with the program still reads true.
    With ``wall`` it reads wall time instead, so waiting for a core that
    another tenant holds counts as slowness too.
    """
    clock = time.perf_counter if wall else time.thread_time
    started = clock()
    total, table = 0, {}
    for i in range(20_000):
        total += i * i
        table[i & 255] = total
    return (clock() - started) / PROBE_REFERENCE_S


class SpeedLog:
    """:func:`speed_probe` samples over time, so any timed interval can be
    divided by how slowly the host ran around it."""

    def __init__(self, wall: bool = False) -> None:
        self.wall = wall
        self.samples: list[tuple[float, float]] = []  # (perf_counter, slowdown)

    def probe(self) -> None:
        self.samples.append((time.perf_counter(), speed_probe(self.wall)))

    def around(self, start: float, end: float, pad: float = 0.5) -> float:
        """The median slowdown probed from ``pad`` seconds before ``start`` to
        ``pad`` seconds after ``end``; the nearest probe when none was."""
        near = [f for t, f in self.samples if start - pad <= t <= end + pad]
        if near:
            return statistics.median(near)
        middle = (start + end) / 2
        return min(self.samples, key=lambda sample: abs(sample[0] - middle))[1]


def digest(rows) -> str:
    """A short, order-sensitive digest of per-document verdict/score rows."""
    h = hashlib.sha256()
    for row in rows:
        h.update(repr(row).encode())
    return h.hexdigest()[:16]


# -- the serve_open ladder ---------------------------------------------------


@dataclass
class Request:
    """One open-loop request, timed from when it was due."""

    due: float
    sent: float
    done: float
    status: int  # 0 when the request failed before a status arrived
    #: how long the generator took to send once a connection was free
    late: float
    body: bytes = b""

    @property
    def latency(self) -> float:
        return self.done - self.due if self.status == 200 else math.inf


@dataclass
class Rung:
    name: str
    rate: float
    requests: list[Request] = field(default_factory=list)

    @property
    def ok(self) -> int:
        return sum(1 for r in self.requests if r.status == 200)

    def refused(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for r in self.requests:
            if r.status not in (0, 200):
                counts[r.status] = counts.get(r.status, 0) + 1
        return counts

    @property
    def failed(self) -> int:
        return sum(1 for r in self.requests if r.status == 0)

    def ok_rate(self) -> float:
        """Successful responses per second, from the first due time to the
        last response."""
        start = min(r.due for r in self.requests)
        end = max(r.done for r in self.requests)
        return self.ok / (end - start)


#: The generator may lag this long behind a free connection (p95) before a
#: rung counts as measuring the client instead of the server.
MAX_GENERATOR_LATE_S = 0.010


def client_bound(rung: Rung) -> bool:
    """True when the generator, not the server, set the pace of the rung."""
    late, _ = percentile([r.late for r in rung.requests], 0.95)
    return late > MAX_GENERATOR_LATE_S


def growing_backlog(latencies: list[float]) -> bool:
    """True when latency trends upward across the rung: the median of its
    last quarter exceeds twice the first quarter's by more than 250 ms.  A
    rate past capacity grows the backlog by seconds over a rung; a slow
    stretch on a shared host adds a few hundred milliseconds and drains."""
    quarter = len(latencies) // 4
    first = statistics.median(latencies[:quarter])
    last = statistics.median(latencies[-quarter:])
    return last > 2.0 * first + 0.250


def rung_verdict(rung: Rung, ceiling_s: float) -> str:
    """``ok``, ``slow`` or ``invalid`` (client-bound) for one rung."""
    if client_bound(rung):
        return "invalid"
    if rung.ok != len(rung.requests):
        return "slow"
    latencies = [r.latency for r in sorted(rung.requests, key=lambda r: r.due)]
    p95, _ = percentile(latencies, 0.95)
    if p95 > ceiling_s or growing_backlog(latencies):
        return "slow"
    return "ok"


def max_ok_rate(rungs: list[Rung], ceiling_s: float) -> float:
    """The measured ok-rate of the highest rung whose verdict is ``ok``,
    climbing the ascending ladder until the first rung that is not."""
    best = 0.0
    for rung in sorted(rungs, key=lambda r: r.rate):
        if rung_verdict(rung, ceiling_s) != "ok":
            break
        best = rung.ok_rate()
    return best


# -- process memory ------------------------------------------------------------


def peak_rss_mb(pids) -> float:
    """Sum of the per-process peak resident sets (``VmHWM``) of ``pids``."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except FileNotFoundError:
            continue
    return total_kb / 1024.0


def descendants(pid: int) -> list[int]:
    """Every live process below ``pid``, read from ``/proc``."""
    parents: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        parents.setdefault(ppid, []).append(int(entry))
    found, frontier = [], [pid]
    while frontier:
        children = parents.get(frontier.pop(), [])
        found.extend(children)
        frontier.extend(children)
    return found
