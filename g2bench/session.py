"""One benchmark session: a fresh process that sets up and runs one script.

Usage (normally started by run.py): python3 g2bench/session.py '<json>'
with keys workload, seed, session, traced, tiny.  Prints one line
``RESULT {...}`` on standard output.

Set-up time runs from the first statement of this file, before numpy
and g2fun are imported, to the first timed operation.
"""

import time

T0 = time.perf_counter()

import functools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".g2bench_out"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402


def load_library() -> SimpleNamespace:
    """Import g2fun from the checkout's own source tree, never an installed copy."""
    import g2fun
    from g2fun import algebra, arith, orbitfn, rootsys, transforms

    if Path(g2fun.__file__).resolve().parent != (SRC / "g2fun").resolve():
        raise ImportError(f"g2fun was imported from {g2fun.__file__}, not from {SRC}")
    return SimpleNamespace(
        transforms=transforms,
        algebra=algebra,
        arith=arith,
        orbitfn=orbitfn,
        Weight=rootsys.Weight,
        Point=rootsys.Point,
        FAMILY={f.tag: f for f in rootsys.FAMILIES},
    )


def environment() -> dict:
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError, AttributeError):
        pass
    return {"numpy": np.__version__, "blas": blas}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_cli(op: wl.Op, traced: bool, env: dict, probes: list) -> tuple[int, str]:
    """One CLI request in a fresh interpreter; a traced one appends its probe record."""
    argv = op.args["argv"]
    if traced:
        cmd = [sys.executable, str(BENCH / "cliprobe.py"), *argv]
    else:
        cmd = [sys.executable, "-m", "g2fun", *argv]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, timeout=120)
    if not traced:
        return proc.returncode, proc.stdout.decode()
    if proc.returncode != 0:
        raise RuntimeError(f"CLI probe failed: {proc.stderr.decode().strip()[-300:]}")
    probe = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    by_label = probe["summary"]["by_label"]
    probe["summary"]["by_label"] = [[name, op.label, ms] for name, _, ms in by_label]
    probes.append(probe)
    return probe["rc"], probe["stdout"]


def basis_bytes(ops: list, levels: list[int]) -> int:
    """8 * rows * columns for each distinct (family, M) basis the session holds."""
    held = {(op.args["tag"], op.args["M"]) for op in ops if "tag" in op.args}
    held |= {(tag, M) for M in levels for tag in oracle.FAMILIES}
    return sum(8 * len(oracle.spectrum(t, M)) * len(oracle.grid(M)) for t, M in held)


def attempt(run, check, tracer, op_id: int, op: wl.Op) -> tuple[float, str | None]:
    """Time run(), then check its output; returns (ms, error or None).

    An exception from either step, including a failed check, marks the
    operation as failed without stopping the session.
    """
    if tracer is not None:
        tracer.active = True
        tracer.start_op(op_id, op.label, op.kind)
    t = time.perf_counter()
    try:
        out = run()
    except Exception as exc:  # a failing operation is counted, not fatal
        return (time.perf_counter() - t) * 1e3, f"{type(exc).__name__}: {exc}"
    finally:
        if tracer is not None:
            tracer.end_op()
            tracer.active = False
    ms = (time.perf_counter() - t) * 1e3
    try:
        check(out)
    except Exception as exc:  # CheckFailed, or a malformed output
        return ms, f"{type(exc).__name__}: {exc}"
    return ms, None


def main() -> int:
    cfg = json.loads(sys.argv[1])
    workload, seed, index = cfg["workload"], cfg["seed"], cfg["session"]
    traced, tiny = bool(cfg["traced"]), bool(cfg["tiny"])
    lib = load_library()
    tracer = tracing.Tracer() if traced else None
    cli = workload == "cli-mix"
    workdir = None
    if cli:
        workdir = OUT / f"tmp-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        ops = wl.cli_ops(seed, index, tiny, lib, workdir)
        env = child_env()
    elif workload == "transform-cold":
        ops = wl.cold_ops(seed, index, tiny)
    elif workload == "transform-warm":
        ops = wl.warm_ops(seed, index, tiny)
    elif workload == "algebra-session":
        ops = wl.algebra_ops(seed, index, tiny)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    levels = wl.warm_levels(workload, tiny)
    for M in levels:
        for tag in oracle.FAMILIES:
            fam = lib.FAMILY[tag]
            zero = lib.transforms.SampledField(M, np.zeros(len(oracle.grid(M))), fam)
            lib.transforms.inverse(fam, M, lib.transforms.forward(fam, M, zero))
    if tracer is not None and not cli:
        tracer.install()
    setup_s = time.perf_counter() - T0

    latencies, failures, probes, span_rows = [], [], [], []
    residual: dict[str, float] = {}
    loop_start = time.perf_counter()
    for i, op in enumerate(ops):
        if cli:
            run = functools.partial(run_cli, op, traced, env, probes)
            check = functools.partial(wl.check_cli, op)
        else:
            run = functools.partial(wl.run_op, lib, op)
            check = functools.partial(wl.check_op, lib, op)
        wl.prepare(op)
        n_probes = len(probes)
        started_ms = (time.perf_counter() - loop_start) * 1e3
        ms, error = attempt(run, check, None if cli else tracer, i, op)
        latencies.append(ms)
        if len(probes) > n_probes:
            # Probe spans count from the probe's first statement; place them
            # at the request's start on the session clock.
            probe = probes[-1]
            probe["wall_ms"] = ms
            base = len(span_rows)
            for name, start, stop, parent, _ in probe.pop("spans"):
                span_rows.append([name, round(start + started_ms, 4), round(stop + started_ms, 4),
                                  parent + base if parent >= 0 else -1, i])
        wl.release(op)
        if error is not None:
            failures.append(f"{op.kind} {op.label}: {error}")
        for key, value in op.residual.items():
            residual[key] = max(residual.get(key, 0.0), value)
    loop_s = time.perf_counter() - loop_start

    usage = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
    result = {
        "setup_s": setup_s,
        "loop_s": loop_s,
        "latencies_ms": latencies,
        "attempted": len(ops),
        "failed": len(failures),
        "failures": failures[:5],
        "peak_rss_kb": resource.getrusage(usage).ru_maxrss,
        "residual": residual,
        "flops": sum(op.flops for op in ops),
        "basis_bytes": basis_bytes(ops, levels),
        "env": environment(),
    }
    if traced:
        if cli:
            summary = tracing.merge([p["summary"] for p in probes])
            result["cli"] = [[p["import_ms"], p["main_ms"], p["wall_ms"] - p["import_ms"]
                              - p["install_ms"] - p["main_ms"]] for p in probes]
        else:
            summary = tracer.summary()
            span_rows = tracer.rows(loop_start)
        result["trace"] = summary
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{workload}-seed{seed}-session{index}.tsv"
        tracing.dump(path, span_rows)
        result["spans_file"] = str(path.relative_to(ROOT))
    if workdir is not None:
        shutil.rmtree(workdir, ignore_errors=True)
    print("RESULT " + json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
