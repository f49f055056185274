"""Layer ledger benchmark: one workload per run, JSON result on the last line.

    python3 layerbench/run.py --workload cold_scan --seed 1 --seconds 10 --trace 0
    python3 layerbench/run.py --workload all --seed 1      # every workload, in turn

Run it from the root of a checkout: it imports the program from ``src/``.
``--trace 0`` measures and prints the end-to-end metrics; ``--trace 1`` adds
the traced passes and prints the per-layer metrics instead.  Every line before
the last is for people: each metric with its unit and sample count, every
output check, the serve ladder's rungs, and the layer table.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cold_scan", "warm_fleet", "serve_open")


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from inputs import load_pool

    # Work is sized for --seconds 10: about 12 s of measurement on 2 vCPUs,
    # 67 s for the serve ladder.  Larger values scale it up; smaller ones never
    # go below the 200 samples a p95 needs.
    scale = max(1.0, seconds / 10.0)
    pool = load_pool(ROOT)
    if name == "serve_open":
        result = workloads.serve_open(pool, seed, trace, scale, ROOT)
    else:
        result = getattr(workloads, name)(pool, seed, trace, scale)
    for line in result.notes:
        print(line)
    for metric, (value, unit) in sorted(result.metrics.items()):
        print(f"{name} {metric} = {value:.6g} {unit}")
    share = result.failed / result.attempted if result.attempted else 0.0
    print(f"{name} failed_share = {share:.6g} ({result.failed} of {result.attempted})")
    return {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            metric: {"value": value, "unit": unit}
            for metric, (value, unit) in sorted(result.metrics.items())
        },
    }


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Each workload in its own process, as a single-workload run sees it."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        command = [
            sys.executable, __file__, "--workload", name, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(trace)),
        ]
        out = subprocess.run(command, check=True, stdout=subprocess.PIPE, text=True).stdout
        *lines, last = out.rstrip("\n").split("\n")
        print("\n".join(lines), flush=True)
        result = json.loads(last)
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    from children import GRACE_S, adopt_orphans, reap

    adopt_orphans()
    try:
        if args.workload == "all":
            result = run_all(args.seed, args.seconds, bool(args.trace))
        else:
            result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        killed = reap()
    if killed:
        print(f"killed {len(killed)} process(es) still running {GRACE_S:g} s after the run")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
