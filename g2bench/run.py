"""g2fun benchmark: four closed-loop workloads with one client each.

    python3 g2bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of cli-mix, transform-cold, transform-warm, algebra-session,
or ``all`` to run every workload in turn.  The last line of standard
output is one JSON object {correct, attempted, failed, metrics}.

A run is a sequence of sessions, each a fresh process (session.py) that
sets up and then runs a script of operations of fixed composition.
Sessions are started until their measuring loops add up to about S
seconds (at least three, so set-up is sampled several times).

--trace 0 reports the end-to-end metrics: setup_s (median session
set-up), ops_per_s (successful operations per second of operation
time), latency_iqm_ms (the interquartile mean: the mean of the middle
half of all operation latencies), latency_p90_ms (the mean of the
latencies ranked within 5 percentile points of the 90th percentile),
peak_rss_mb (largest session process; for cli-mix the largest CLI
process) and, in the printed summary only, latency_p50_ms (the plain
median) and failed_ratio.

The typical latency is the interquartile mean rather than the median
because on a shared host a fixed operation runs in one of two speed
states about 1.4x apart, each lasting seconds: the median of a run then
jumps between the two states with the share of time spent in each,
while the interquartile mean moves in proportion to it.

--trace 1 spends S/2 on untraced sessions and then repeats the same
sessions with spans recorded, and reports the per-layer metrics:
``*.calls`` and ``*.self_ms`` summed over the traced sessions,
cli.import_ms and cli.interpreter_ms as medians per CLI request,
residual maxima, and trace.overhead_ratio, the traced operation time
over the untraced one minus one.  Spans and a per-level / per-height
breakdown of self time are written under .g2bench_out/.

Every result is stamped with its environment.  BLAS and OpenMP are
pinned to one thread, and sessions run one at a time.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".g2bench_out"
sys.path.insert(0, str(BENCH))

import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_SESSIONS = 3
MIN_OPS = 100  # so that at least ten latencies lie beyond the 90th percentile
SESSION_TIMEOUT_S = 150
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_iqm_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

# per-layer metric -> unit; the order is the order of BENCHMARK.json
PER_LAYER_UNITS = {
    "cli.import_ms": "ms",
    "cli.main.self_ms": "ms",
    "cli.interpreter_ms": "ms",
    "transforms.basis_matrix.calls": "count",
    "transforms.basis_matrix.self_ms": "ms",
    "transforms.basis_matrix.hit_ratio": "ratio",
    "orbitfn.sample_values.calls": "count",
    "orbitfn.sample_values.self_ms": "ms",
    "orbitfn.sample_values.points": "count",
    "transforms.forward.self_ms": "ms",
    "transforms.inverse.self_ms": "ms",
    "transforms.matmul_flops": "flop",
    "transforms.basis_mb": "MB",
    "lattice.grid_points.calls": "count",
    "lattice.grid_points.self_ms": "ms",
    "lattice.spectrum.calls": "count",
    "lattice.spectrum.self_ms": "ms",
    "algebra.expand_char_in_C.calls": "count",
    "algebra.expand_char_in_C.self_ms": "ms",
    "algebra.expand_product.self_ms": "ms",
    "algebra.invert_char_matrix.self_ms": "ms",
    "rootsys.signed_orbit.calls": "count",
    "rootsys.signed_orbit.self_ms": "ms",
    "orbitfn.evaluate.calls": "count",
    "orbitfn.evaluate.self_ms": "ms",
    "algebra.product_check.self_ms": "ms",
    "arith.is_rational.self_ms": "ms",
    "arith.power_class.calls": "count",
    "rootsys.fold_to_F.calls": "count",
    "rootsys.fold_to_F.self_ms": "ms",
    "transforms.roundtrip_err_max": "1",
    "algebra.product_check_err_max": "1",
    "trace.overhead_ratio": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def session_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_session(workload: str, seed: int, index: int, traced: bool, tiny: bool) -> dict:
    cfg = {"workload": workload, "seed": seed, "session": index, "traced": traced, "tiny": tiny}
    proc = subprocess.run(
        [sys.executable, str(BENCH / "session.py"), json.dumps(cfg)],
        cwd=ROOT, env=session_env(), capture_output=True, text=True,
        timeout=SESSION_TIMEOUT_S,
    )
    lines = [ln for ln in proc.stdout.splitlines() if ln.startswith("RESULT ")]
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"{workload} session {index} exited with {proc.returncode}: "
            f"{proc.stderr.strip()[-800:]}"
        )
    return json.loads(lines[-1][len("RESULT "):])


def run_sessions(workload, seed, budget_s, traced, tiny, minimum, min_ops=0, count=None):
    """Sessions until their loops sum to about budget_s, or exactly `count`."""
    results: list[dict] = []
    start = time.perf_counter()
    measured = 0.0
    ops = 0
    while True:
        k = len(results)
        if count is not None:
            if k >= count:
                break
        elif k >= minimum:
            # Stop when the next session would end further from the budget
            # than now (once enough operations are in), or when set-up
            # dominates so much that the run grows too long.
            near = measured + measured / k / 2 >= budget_s and ops >= min_ops
            if near or time.perf_counter() - start > 2 * budget_s + 20:
                break
        results.append(run_session(workload, seed, k, traced, tiny))
        measured += results[-1]["loop_s"]
        ops += results[-1]["attempted"]
    return results


def quantile(sorted_values: list[float], q: float, half_width: float = 0.05) -> float:
    """Mean of the values ranked within q +- half_width of an ascending list.

    A smoothed quantile estimate: the nearest-rank value is one operation's
    time, which on a CPU that alternates between speed states jumps with
    the state that operation happened to run in.  With q = 0.5 and
    half_width = 0.25 it is the interquartile mean.
    """
    n = len(sorted_values)
    lo = max(0, math.floor((q - half_width) * n))
    hi = min(n, max(lo + 1, math.ceil((q + half_width) * n)))
    return statistics.fmean(sorted_values[lo:hi])


def pooled(results: list[dict]) -> dict:
    lat = sorted(x for r in results for x in r["latencies_ms"])
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    busy_s = sum(lat) / 1e3
    return {
        "lat": lat,
        "attempted": attempted,
        "failed": failed,
        "busy_s": busy_s,
        "failures": [f for r in results for f in r["failures"]],
    }


def end_to_end(results: list[dict]) -> tuple[dict, dict]:
    p = pooled(results)
    lat = p["lat"]
    if not lat:
        raise BenchError("no operation was timed")
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "ops_per_s": (p["attempted"] - p["failed"]) / p["busy_s"],
        "latency_iqm_ms": quantile(lat, 0.5, 0.25),
        "latency_p90_ms": quantile(lat, 0.9),
        "peak_rss_mb": max(r["peak_rss_kb"] for r in results) / 1024.0,
    }
    return metrics, p


def per_layer(untraced: list[dict], traced: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics of the traced sessions, and their merged trace summary."""
    merged = tracing.merge([r["trace"] for r in traced])
    stats = merged["stats"]
    metrics: dict[str, float] = {}
    for name in PER_LAYER_UNITS:
        layer, _, field = name.rpartition(".")
        if layer in stats and field in ("calls", "self_ms", "points"):
            calls, self_ms, extra = stats[layer]
            metrics[name] = {"calls": calls, "self_ms": self_ms, "points": extra}[field]
    cli = [row for r in traced for row in r.get("cli", [])]
    metrics["cli.import_ms"] = statistics.median(c[0] for c in cli) if cli else 0.0
    metrics["cli.main.self_ms"] = stats.get("cli.main", [0, 0.0, 0])[1]
    metrics["cli.interpreter_ms"] = statistics.median(c[2] for c in cli) if cli else 0.0
    hits, misses = merged["cache"].get("transforms.basis_matrix", (0, 0))
    metrics["transforms.basis_matrix.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    metrics["transforms.matmul_flops"] = sum(r["flops"] for r in traced)
    metrics["transforms.basis_mb"] = max(r["basis_bytes"] for r in traced) / 1e6
    metrics["transforms.roundtrip_err_max"] = max(r["residual"].get("roundtrip", 0.0) for r in traced)
    metrics["algebra.product_check_err_max"] = max(
        r["residual"].get("product_check", 0.0) for r in traced
    )
    base = sum(sum(r["latencies_ms"]) for r in untraced)
    with_spans = sum(sum(r["latencies_ms"]) for r in traced)
    metrics["trace.overhead_ratio"] = with_spans / base - 1.0 if base else 0.0
    missing = [n for n in PER_LAYER_UNITS if n not in metrics]
    if missing:
        raise BenchError(f"per-layer metrics not computed: {missing}")
    return metrics, merged


def _label_key(label: str):
    name, _, value = label.partition("=")
    digits = value.lstrip("<")
    return (name, int(digits) if digits.isdigit() else 0, label)


def breakdown(merged: dict) -> dict[str, dict[str, float]]:
    """Self time (ms) of each layer per operation size label."""
    table: dict[str, dict[str, float]] = {}
    for name, label, ms in merged["by_label"]:
        table.setdefault(name, {})[label] = ms
    return {
        name: {lab: round(rows[lab], 3) for lab in sorted(rows, key=_label_key)}
        for name, rows in sorted(table.items())
    }


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(seed: int, session_env_info: dict) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": session_env_info.get("numpy"),
        "blas": session_env_info.get("blas"),
        "blas_threads": 1,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "seed": seed,
        "commit": git_commit(),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    """Run one workload; returns metrics, counts and the report lines."""
    lines = []
    if not trace:
        results = run_sessions(workload, seed, seconds, False, tiny, MIN_SESSIONS, MIN_OPS)
        metrics, p = end_to_end(results)
        units = END_TO_END_UNITS
        beyond = len(p["lat"]) - max(1, math.ceil(0.9 * len(p["lat"])))
        lines.append(f"sessions {len(results)}, operations {len(p['lat'])}, "
                     f"{beyond} beyond p90")
        extra = {
            "latency_p50_ms": (statistics.median(p["lat"]), "ms"),
            "failed_ratio": (p["failed"] / p["attempted"], "ratio"),
        }
        report = {}
    else:
        untraced = run_sessions(workload, seed, seconds / 2, False, tiny, 1)
        results = run_sessions(workload, seed, 0, True, tiny, 1, count=len(untraced))
        metrics, merged = per_layer(untraced, results)
        p = pooled(results)
        pu = pooled(untraced)
        p["attempted"] += pu["attempted"]
        p["failed"] += pu["failed"]
        p["failures"] += pu["failures"]
        units = PER_LAYER_UNITS
        extra = {}
        report = {
            "breakdown_ms": breakdown(merged),
            "missing_names": merged["missing"],
            "spans_files": [r["spans_file"] for r in results],
        }
        lines.append(f"sessions {len(results)} traced after {len(untraced)} untraced")
        if merged["missing"]:
            lines.append(f"names not found in the program (zero calls): {merged['missing']}")
    env = environment(seed, results[0]["env"])
    out = {
        "workload": workload,
        "trace": int(trace),
        "env": env,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        "attempted": p["attempted"],
        "failed": p["failed"],
        "failures": p["failures"][:10],
        **report,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(out, indent=1)
    )
    lines.insert(0, f"env {json.dumps(env)}")
    for k, u in units.items():
        lines.append(f"{k:40s} {metrics[k]:14.6g} {u}")
    for k, (v, u) in extra.items():
        lines.append(f"{k:40s} {v:14.6g} {u}")
    if trace:
        for name, rows in report["breakdown_ms"].items():
            cells = ", ".join(f"{lab}: {ms:g}" for lab, ms in rows.items())
            lines.append(f"self_ms by size  {name}  {cells}")
    for f in p["failures"][:10]:
        lines.append(f"FAILED {f}")
    out["lines"] = lines
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs, for the harness smoke test")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "g2fun" / "__init__.py").is_file():
        print(f"error: no g2fun source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    traces = (False, True) if args.workload == "all" and args.trace else (bool(args.trace),)
    outs = []
    try:
        for name in names:
            for trace in traces:
                out = measure(name, args.seed, args.seconds, trace, args.tiny)
                print(f"== {name} (trace {int(trace)})")
                print("\n".join(out["lines"]), flush=True)
                outs.append(out)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = sum(o["attempted"] for o in outs)
    failed = sum(o["failed"] for o in outs)
    if args.workload == "all":
        metrics = {
            f"{o['workload']}.{k}": v for o in outs for k, v in o["metrics"].items()
        }
    else:
        metrics = outs[0]["metrics"]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
