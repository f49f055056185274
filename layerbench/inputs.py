"""Seeded benchmark inputs drawn from a cached pool of paper-profile documents.

Generating a paper-profile document costs about as much as scanning it (the
generator OVBA-compresses every module in Python), so the benchmark builds a
fixed pool once per checkout and lets ``--seed`` choose from it:

* the pool is ``CorpusBuilder(paper_profile().scaled(0.12), seed=s)`` for each
  ``s`` in :data:`POOL_SEEDS`, deduplicated by content (malicious files reuse
  macros, so a quarter of the generated files are byte-identical);
* every pool document carries its ground truth (``obfuscated_flags``) and the
  per-macro ``(verdict, score)`` an in-process ``engine.run`` gives it, the
  reference every workload's records and responses are compared with;
* the documents of the first corpus also carry three CRLF/BOM re-encodings of
  their macros: they are the novel documents of the fleet mix;
* a seed draws a *stratified* sample: the documents are sorted by total macro
  length and cut into equal strata, and every sample takes the same number of
  documents from each stratum.  Per-document cost follows macro length and is
  heavy-tailed (the Fig. 5 length clusters), so an unstratified draw would
  make throughput depend more on the seed than on the program.

The pool lives in ``.layerbench_cache/`` at the root of the checkout, keyed by
a hash of the program's sources and of this file.  It is built by two child
processes, so the benchmark's own peak memory never includes generation, and
the document bytes sit in a separate file that a run reads only for the
documents it draws.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import pickle
import random
import subprocess
import sys
from dataclasses import dataclass, replace
from pathlib import Path

#: Corpus seeds whose paper-profile corpora make up the pool.
POOL_SEEDS = (2016, 2017, 2018)
#: The corpus scale the pool is generated at (304 documents per seed).
POOL_SCALE = 0.12
#: The detector every workload scores with, as ``repro serve`` trains it.
CLASSIFIER = "MLP"
TRAIN_SEED = 42

_BOM = "﻿"
#: CRLF, BOM and BOM+CRLF re-encodings of a document's macro sources.
REENCODINGS = (
    lambda source: source.replace("\n", "\r\n"),
    lambda source: _BOM + source,
    lambda source: _BOM + source.replace("\n", "\r\n"),
)


@dataclass(frozen=True)
class PoolDoc:
    """One unique pool document, as a workload receives it."""

    index: int
    file_format: str
    obfuscated_flags: tuple[bool, ...]
    #: total characters over the document's macro sources (the strata key)
    chars: int
    #: per-macro ``(verdict, score)`` from an in-process ``engine.run``
    expected: tuple[tuple[str | None, float | None], ...]
    #: ``(offset, length)`` of the document, then of each re-encoding, in
    #: the pool's byte file
    spans: tuple[tuple[int, int], ...]
    data: bytes = b""
    #: the re-encoded documents, in :data:`REENCODINGS` order (fleet only)
    variants: tuple[bytes, ...] = ()


@dataclass
class Pool:
    docs: list[PoolDoc]
    #: the training set ``repro serve`` fits its detector on
    train_sources: list[str]
    train_labels: list[int]
    #: two small documents that only warm the worker pool up
    warmup: list[bytes]
    #: the file holding every document's bytes
    blob: Path | None = None

    def draw(
        self,
        seed: int,
        *,
        strata: int,
        groups: int,
        per_stratum: int,
        fleet: bool = False,
    ) -> list[list[PoolDoc]]:
        """``groups`` disjoint samples, each holding ``per_stratum`` documents
        from every one of ``strata`` macro-length strata, shuffled, with their
        bytes read in.  ``fleet`` draws from the documents that carry
        re-encodings.  The same seed gives the same samples."""
        docs = [doc for doc in self.docs if len(doc.spans) > 1 or not fleet]
        ordered = sorted(docs, key=lambda doc: (doc.chars, doc.index))
        size = len(ordered) // strata
        if size < groups * per_stratum:
            raise ValueError(
                f"{len(ordered)} pool documents cannot fill {strata} strata "
                f"with {groups * per_stratum} each"
            )
        rng = random.Random(seed)
        samples: list[list[PoolDoc]] = [[] for _ in range(groups)]
        for index in range(strata):
            chosen = rng.sample(ordered[index * size : (index + 1) * size], groups * per_stratum)
            for group in range(groups):
                samples[group].extend(chosen[group * per_stratum : (group + 1) * per_stratum])
        with open(self.blob, "rb") as handle:
            for sample in samples:
                rng.shuffle(sample)
                sample[:] = [_read(handle, doc) for doc in sample]
        return samples


def _read(handle, doc: PoolDoc) -> PoolDoc:
    blobs = []
    for offset, length in doc.spans:
        handle.seek(offset)
        blobs.append(handle.read(length))
    return replace(doc, data=blobs[0], variants=tuple(blobs[1:]))


def source_key(root: Path) -> str:
    """Hash of the program's sources and of this file: the pool's cache key."""
    digest = hashlib.sha256(Path(__file__).read_bytes())
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def load_pool(root: Path) -> Pool:
    """The pool for this checkout, built first if the cache is missing."""
    cache = root / ".layerbench_cache"
    path = cache / f"pool-{source_key(root)}.pkl"
    if not path.exists():
        cache.mkdir(exist_ok=True)
        for stale in cache.glob("pool-*"):  # built from other sources
            stale.unlink()
        print(f"building input pool {path.name} ...", file=sys.stderr, flush=True)
        subprocess.run([sys.executable, __file__, str(root), str(path)], check=True)
    with path.open("rb") as handle:
        pool = pickle.load(handle)  # written by build_pool, in this checkout
    pool.blob = path.with_suffix(".bin")
    return pool


def train_detector(pool: Pool):
    """Fit the detector ``repro serve`` fits, on the same training set."""
    from repro import ObfuscationDetector

    return ObfuscationDetector(CLASSIFIER).fit(pool.train_sources, pool.train_labels)


# -- building the pool (runs in child processes) ---------------------------------

_WORKER: dict = {}


def _start_worker() -> None:
    """Train the server's detector, capturing its training set on the way."""
    import repro
    from repro.cli import _train_detector

    class Recording(repro.ObfuscationDetector):
        def fit(self, sources, labels):
            _WORKER["train"] = (list(sources), list(labels))
            return super().fit(sources, labels)

    original, repro.ObfuscationDetector = repro.ObfuscationDetector, Recording
    try:
        _WORKER["detector"] = _train_detector(CLASSIFIER, TRAIN_SEED)
    finally:
        repro.ObfuscationDetector = original


def _corpus(seed: int):
    """One corpus's documents: ``(bytes, variants, fields)`` each, plus the
    training set."""
    from repro.corpus.builder import CorpusBuilder, paper_profile
    from repro.corpus.documents import build_document_bytes
    from repro.engine import AnalysisEngine

    # The server's chain (scan + lint), with no cache to blur cost or truth.
    engine = AnalysisEngine(
        detector=_WORKER["detector"], lint=True, cache_size=0, feature_cache_size=0
    )
    corpus = CorpusBuilder(paper_profile().scaled(POOL_SCALE), seed=seed).build()
    docs, seen = [], set()
    for doc in corpus.documents:
        if doc.data in seen:
            continue
        seen.add(doc.data)
        record = engine.run(doc.data)
        if not record.ok or len(record.macros) != len(doc.obfuscated_flags):
            raise RuntimeError(f"pool document {doc.file_name} did not scan")
        variants = ()
        if seed == POOL_SEEDS[0]:
            variants = tuple(
                build_document_bytes(
                    [encode(source) for source in doc.macro_sources],
                    doc.file_format,
                    doc.document_variables,
                )
                for encode in REENCODINGS
            )
        fields = dict(
            file_format=doc.file_format,
            obfuscated_flags=tuple(doc.obfuscated_flags),
            chars=sum(len(source) for source in doc.macro_sources),
            expected=tuple((m.verdict, m.score) for m in record.macros),
        )
        docs.append((doc.data, variants, fields))
    return docs, _WORKER["train"]


def build_pool(path: Path) -> None:
    """Generate the pool with two processes; write it atomically to ``path``
    (the index) and ``path.with_suffix('.bin')`` (the bytes)."""
    from repro.corpus.benign import generate_benign_module
    from repro.corpus.documents import build_document_bytes

    context = multiprocessing.get_context("spawn")
    with context.Pool(2, initializer=_start_worker) as workers:
        corpora = workers.map(_corpus, POOL_SEEDS, chunksize=1)
    docs: list[PoolDoc] = []
    seen: set[bytes] = set()
    blob = path.with_suffix(f".bin.{os.getpid()}.tmp")
    with blob.open("wb") as out:
        for corpus, _ in corpora:
            for data, variants, fields in corpus:
                if data in seen:
                    continue
                seen.add(data)
                spans = []
                for chunk in (data, *variants):
                    spans.append((out.tell(), len(chunk)))
                    out.write(chunk)
                docs.append(PoolDoc(index=len(docs), spans=tuple(spans), **fields))
    rng = random.Random(TRAIN_SEED)
    warmup = [
        build_document_bytes([generate_benign_module(rng, target_length=400)], "docm")
        for _ in range(2)
    ]
    sources, labels = corpora[0][1]
    index = path.with_suffix(f".{os.getpid()}.tmp")
    with index.open("wb") as out:
        pickle.dump(Pool(docs, sources, labels, warmup), out, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(blob, path.with_suffix(".bin"))
    os.replace(index, path)


if __name__ == "__main__":
    checkout, target = Path(sys.argv[1]), Path(sys.argv[2])
    sys.path.insert(0, str(checkout / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import inputs  # pickle the pool's classes under their importable name

    inputs.build_pool(target)
