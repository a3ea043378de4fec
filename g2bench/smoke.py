"""Smoke test of the benchmark harness at tiny sizes.

    python3 g2bench/smoke.py

Runs every workload untraced and traced on tiny inputs and checks that
each metric named in BENCHMARK.json is reported with its unit and that
no operation fails; then feeds deliberately corrupted results to the
output checks and requires each to count as a failed operation; then
checks that the tracer tolerates a name the program does not have.
Exits 0 when everything holds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import session  # noqa: E402  (puts the checkout's src on sys.path)
import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402

PROBLEMS: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        PROBLEMS.append(what)


def check_reports() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}
    for workload in wl.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
                 "--seconds", "0.01", "--trace", str(trace), "--tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=170,
            )
            tag = f"{workload} trace {trace}"
            if proc.returncode != 0:
                expect(False, f"{tag}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{tag}: result keys")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{tag}: {result['attempted']} attempted, {result['failed']} failed")
            got = result["metrics"]
            names = [m["name"] for m in wanted[trace]]
            expect(sorted(got) == sorted(names), f"{tag}: exactly the named metrics")
            for m in wanted[trace]:
                entry = got.get(m["name"], {})
                expect(entry.get("unit") == m["unit"] and isinstance(entry.get("value"), (int, float)),
                       f"{tag}: {m['name']} in {m['unit']}")


def corrupted(lib) -> list[tuple[str, wl.Op, object, object]]:
    """(name, op, good output, corrupted output) for each kind of check."""
    cases = []
    op = wl.cold_ops(5, 0, tiny=True)[0]
    wl.prepare(op)
    d, back = wl.run_op(lib, op)
    bad = lib.transforms.SampledField(back.M, back.values + 1e-6, back.family)
    cases.append(("transform roundtrip", op, (d, back), (d, bad)))

    by_kind = {}
    for op in wl.algebra_ops(5, 0, tiny=True):
        by_kind.setdefault((op.kind, op.args.get("variant")), op)
    for key, op in sorted(by_kind.items(), key=str):
        good = wl.run_op(lib, op)
        if op.kind == "char":
            terms = dict(good.terms)
            mu = next(iter(terms))
            terms[mu] += 1
            bad = type(good)(good.family, terms)
        elif op.kind == "product":
            osum, err = good
            if osum.is_zero:
                continue
            terms = dict(osum.terms)
            terms[next(iter(terms))] -= 1
            bad = (type(osum)(osum.family, terms), err)
        elif op.kind == "efo":
            bad = [(k, not r) if i == 0 else (k, r) for i, (k, r) in enumerate(good)]
        else:  # invert
            bad = {mu: dict(col) for mu, col in good.items()}
            mu = max(bad)
            lam = next(iter(bad[mu]))
            bad[mu][lam] += 1
        cases.append((f"{key[0]} {key[1] or ''}".strip(), op, good, bad))
    return cases


def check_corruption() -> None:
    lib = session.load_library()
    for name, op, good, bad in corrupted(lib):
        run_good = lambda good=good: good  # noqa: E731
        run_bad = lambda bad=bad: bad  # noqa: E731
        check = lambda out, op=op: wl.check_op(lib, op, out)  # noqa: E731
        _, error = session.attempt(run_good, check, None, 0, op)
        expect(error is None, f"{name}: the true result passes ({error})")
        _, error = session.attempt(run_bad, check, None, 0, op)
        expect(error is not None, f"{name}: a corrupted result counts as failed")
    workdir = ROOT / ".g2bench_out" / "smoke"
    workdir.mkdir(parents=True, exist_ok=True)
    for op in wl.cli_ops(5, 0, True, lib, workdir):
        if op.args["kind"] != "efo":
            continue
        good = (0, json.dumps([{"kac": list(k), "order": m, "rational": r}
                               for k, m, r in op.args["expect"]]))
        check = lambda out, op=op: wl.check_cli(op, out)  # noqa: E731
        for label, out, ok in (("true", good, True), ("exit 1", (1, good[1]), False),
                               ("truncated", (0, good[1][:-5]), False)):
            _, error = session.attempt(lambda out=out: out, check, None, 0, op)
            expect((error is None) == ok, f"cli efo, {label} output: {'passes' if ok else 'fails'}")


def check_tracer_tolerance() -> None:
    saved = dict(tracing.TARGETS)
    tracing.TARGETS["gone.removed_name"] = ("g2fun.transforms", "no_such_function", None)
    tracing.TARGETS["gone.removed_module"] = ("g2fun.no_such_module", "f", None)
    try:
        t = tracing.Tracer()
        t.install()
        summary = t.summary()
    finally:
        tracing.TARGETS.clear()
        tracing.TARGETS.update(saved)
    expect(set(t.missing) == {"gone.removed_name", "gone.removed_module"},
           "tracer: missing names are listed, not fatal")
    expect(summary["stats"]["gone.removed_name"][0] == 0, "tracer: a missing name has zero calls")


def main() -> int:
    check_reports()
    check_corruption()
    check_tracer_tolerance()
    print(f"{len(PROBLEMS)} problem(s)")
    return 1 if PROBLEMS else 0


if __name__ == "__main__":
    sys.exit(main())
