"""Run-to-run spread of the end-to-end metrics.

    python3 g2bench/spread.py --workload NAME [--workload NAME ...] --seeds 1-10

Runs the benchmark once per seed for each workload (untraced) and
prints, per metric, the median, the quartile distance as a share of the
median (statistics.quantiles(values, n=4)), and that share against the
metric's bound in BENCHMARK.json.  With --out FILE the values are also
saved as JSON, and --compare FILE compares the medians with an earlier
set.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed: {proc.stderr.strip()[-500:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed operations")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--out")
    ap.add_argument("--compare")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    earlier = json.loads(Path(args.compare).read_text()) if args.compare else {}
    saved = {}
    for workload in args.workload:
        runs = [one_run(workload, s, spec["run_seconds"]) for s in args.seeds]
        saved[workload] = runs
        print(f"== {workload}, seeds {args.seeds[0]}..{args.seeds[-1]}")
        for name, m in bounds.items():
            values = [r[name] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / med
            line = (f"{name:16s} median {med:12.6g}  iqr/median {share:.4f}  "
                    f"bound {m['bound']}  {'ok' if share < m['bound'] / 3 else 'WIDE'}")
            if workload in earlier:
                old = statistics.median(r[name] for r in earlier[workload])
                worse = (med - old) / old if m["better"] == "lower" else (old - med) / old
                line += f"  vs earlier {worse:+.4f} {'ok' if worse <= m['bound'] else 'WORSE'}"
            print(line, flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(saved))
    return 0


if __name__ == "__main__":
    sys.exit(main())
