"""Traced stand-in for ``python -m g2fun ARGS`` in a fresh interpreter.

Times ``import g2fun.cli``, installs the span tracer (which imports the
traced modules, timed separately), then runs ``g2fun.cli.main(ARGS)``
with standard output captured.  Prints one JSON object: exit code,
captured output, the three timings in ms, the trace summary and spans.
"""

import time

T0 = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import tracer as tracing  # noqa: E402


def main(argv: list[str]) -> int:
    t = time.perf_counter()
    import g2fun.cli

    import_ms = (time.perf_counter() - t) * 1e3
    t = time.perf_counter()
    tracer = tracing.Tracer()
    tracer.install()
    install_ms = (time.perf_counter() - t) * 1e3
    buf = io.StringIO()
    tracer.active = True
    tracer.start_op(0, "cli", "cli")
    tracer.begin("cli.main")
    t = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = g2fun.cli.main(argv)
    except SystemExit as exc:  # argparse exits on bad arguments
        rc = exc.code if isinstance(exc.code, int) else 2
    main_ms = (time.perf_counter() - t) * 1e3
    tracer.end()
    tracer.end_op()
    tracer.active = False
    print(json.dumps({
        "rc": rc,
        "stdout": buf.getvalue(),
        "import_ms": import_ms,
        "install_ms": install_ms,
        "main_ms": main_ms,
        "summary": tracer.summary(),
        "spans": tracer.rows(T0),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
