"""A corpus of CLI invocations whose output is pinned in data/cli_golden.json.

Every subcommand runs in every format, with each --roundtrip/--check
variant, --out files and the usage errors.  Each case records stdout,
stderr, the exit code and the contents of the files it wrote; the
temporary directory shows up as the placeholder {TMP}.

    PYTHONPATH=src python tests/cli_corpus.py   # rewrite the golden file
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"
TMP = "{TMP}"
_FORMATS = ("text", "json", "csv", "latex")


def _each_format(*argv: str) -> list[list[str]]:
    return [[*argv, "--format", fmt] for fmt in _FORMATS]


CASES: list[list[str]] = [
    # eval at a point and on a grid
    *_each_format("eval", "C", "1", "0", "1/10", "1/12"),
    ["eval", "SL", "1", "0", "0.1", "0.05", "--format", "json"],
    ["eval", "SS", "2", "1", "1/7", "2/9"],
    ["eval", "S", "1", "0", "1/7", "1/9"],
    ["eval", "S", "1", "0", "1/7", "1/9", "--format", "csv"],
    ["eval", "--format", "json", "C", "1", "0", "1e400", "0.1"],
    ["eval", "--format", "json", "C", "1", "0", "0.1", "--", "-1e400"],
    *_each_format("eval", "C", "1", "0", "--grid", "3"),
    ["eval", "SS", "0", "1", "--grid", "4", "--out", f"{TMP}/grid.txt"],
    ["eval", "C", "-1", "2", "0.1", "0.1"],
    ["eval", "Q", "1", "0", "0.1", "0.1"],
    ["eval", "C", "1", "0"],
    ["eval", "C", "1", "0", "0.1"],
    ["eval", "C", "x", "0", "0.1", "0.1"],
    ["eval", "C", "1", "0", "inf", "0.1"],
    ["eval", "C", "1", "0", "0.1", "nan"],
    ["eval", "C", "1", "0", "1/0", "0.1"],
    ["eval", "C", "1", "0", "--grid", "0"],
    ["eval", "C", "1", "0", "0.1", "0.1", "--tol", "0"],
    ["eval", "C", "1", "0", "0.1", "0.1", "--seed", "-1"],
    # transform in both directions, from JSON and CSV
    *_each_format("transform", "C", "6", "--forward", f"{TMP}/field.json"),
    ["transform", "C", "6", "--forward", f"{TMP}/field.json", "--roundtrip"],
    ["transform", "C", "6", "--forward", f"{TMP}/field.json", "--roundtrip",
     "--format", "json"],
    ["transform", "C", "6", "--forward", f"{TMP}/noise.json", "--roundtrip",
     "--tol", "1e-30"],
    ["transform", "C", "6", "--forward", f"{TMP}/noise.json", "--roundtrip",
     "--tol", "1e-9", "--format", "csv"],
    ["transform", "SS", "6", "--forward", f"{TMP}/field.csv", "--format", "csv"],
    ["transform", "SS", "6", "--forward", f"{TMP}/field.csv"],
    *_each_format("transform", "C", "6", "--inverse", f"{TMP}/coef.json"),
    ["transform", "C", "6", "--inverse", f"{TMP}/coef.csv", "--roundtrip"],
    ["transform", "C", "6", "--inverse", f"{TMP}/coef.json", "--roundtrip",
     "--format", "json", "--tol", "1e-30"],
    ["transform", "C", "6", "--forward", f"{TMP}/field.json", "--format", "json",
     "--out", f"{TMP}/coef_out.json"],
    ["transform", "C", "6", "--forward", f"{TMP}/field.json",
     "--out", f"{TMP}/coef_out.txt"],
    ["transform", "C", "6", "--inverse", f"{TMP}/coef.json", "--format", "csv",
     "--out", f"{TMP}/field_out.csv", "--roundtrip"],
    ["transform", "C", "6", "--forward", "/nonexistent.json"],
    ["transform", "C", "6", "--forward", f"{TMP}/nan.json", "--roundtrip"],
    ["transform", "C", "6", "--forward", f"{TMP}/wrong-tag.json"],
    ["transform", "C", "6", "--forward", f"{TMP}/unknown-tag.json"],
    ["transform", "C", "7", "--forward", f"{TMP}/field.json"],
    ["transform", "C", "6", "--forward", f"{TMP}/coef.csv"],
    ["transform", "C", "6", "--inverse", f"{TMP}/coef-S.json"],
    ["transform", "C", "6", "--inverse", f"{TMP}/coef-Q.json"],
    ["transform", "C", "6", "--inverse", f"{TMP}/coef-nan.json", "--roundtrip"],
    ["transform", "S", "6", "--inverse", f"{TMP}/coef.json"],
    ["transform", "C", "6", "--inverse", f"{TMP}/field.csv"],
    ["transform", "C", "6", "--forward", f"{TMP}/field.json", "--tol", "-1"],
    ["transform", "C", "6"],
    # decompose, with and without the numeric check
    *_each_format("decompose", "C", "1", "0", "C", "1", "0"),
    *_each_format("decompose", "SL", "2", "1", "SS", "2", "1"),
    ["decompose", "S", "1", "0", "S", "1", "0"],
    ["decompose", "S", "1", "0", "S", "1", "0", "--format", "csv"],
    ["decompose", "S", "1", "1", "S", "1", "1", "--check", "25"],
    ["decompose", "S", "1", "1", "S", "1", "1", "--check", "5", "--seed", "7",
     "--format", "json"],
    ["decompose", "SL", "1", "0", "SS", "0", "1", "--check", "4", "--tol", "1e-30"],
    ["decompose", "C", "1", "0", "C", "1", "0", "--check", "0"],
    ["decompose", "C", "1", "0", "C", "1", "0", "--check", "-5"],
    ["decompose", "C", "0", "1", "C", "1", "0", "--format", "json",
     "--out", f"{TMP}/product.json"],
    ["decompose", "C", "0", "1", "C", "1", "0", "--out", f"{TMP}/product.txt"],
    ["decompose", "C", "1", "-1", "C", "1", "0"],
    ["decompose", "X", "1", "0", "C", "1", "0"],
    # reference tables
    *_each_format("tables", "--rational"),
    *_each_format("tables", "--grid", "2"),
    ["tables", "--grid", "6"],
    ["tables", "--grid", "5", "--format", "csv", "--out", f"{TMP}/grid.csv"],
    ["tables", "--grid", "0"],
    *_each_format("tables", "--spectrum", "S", "6"),
    ["tables", "--spectrum", "C", "4"],
    ["tables", "--spectrum", "SL", "7", "--format", "csv"],
    ["tables", "--spectrum", "S", "6", "--out", f"{TMP}/spectrum.txt"],
    ["tables", "--spectrum", "X", "6"],
    ["tables", "--spectrum", "S", "x"],
    *_each_format("tables", "--char", "L", "1", "1"),
    ["tables", "--char", "full", "3", "2"],
    ["tables", "--char", "S", "0", "1", "--format", "csv"],
    ["tables", "--char", "full", "1", "1", "--format", "json", "--out",
     f"{TMP}/char.json"],
    ["tables", "--char", "X", "1", "1"],
    ["tables", "--char", "full", "-1", "1"],
    ["tables"],
    # elements of finite order
    *_each_format("efo", "6"),
    ["efo", "12", "--rational-only"],
    ["efo", "12", "--rational-only", "--format", "json"],
    ["efo", "5", "--rational-only", "--format", "json"],
    ["efo", "7", "--format", "csv"],
    ["efo", "4", "--out", f"{TMP}/efo.txt"],
    ["efo", "0"],
    # argparse's own errors
    [],
    ["nope"],
    ["eval", "C", "1", "0", "0.1", "0.1", "--format", "xml"],
    ["efo", "six"],
]


def write_fixtures(tmp: Path) -> None:
    """The input files that the transform cases read."""
    import numpy as np

    import g2fun as g

    field = g.sample_on_grid(g.C, g.Weight(1, 0), 6)
    (tmp / "field.json").write_text(g.field_to_json(field))
    (tmp / "field.csv").write_text(g.field_to_csv(g.sample_on_grid(g.SS, g.Weight(0, 1), 6)))
    coef = g.forward(g.C, 6, g.sample_on_grid(g.C, g.Weight(2, 1), 6))
    (tmp / "coef.json").write_text(g.coefficients_to_json(coef))
    (tmp / "coef.csv").write_text(g.coefficients_to_csv(coef))
    noise = np.random.default_rng(3).standard_normal(len(g.grid_points(6)))
    noise = g.SampledField(6, noise * g.support_mask(g.C, 6))
    (tmp / "noise.json").write_text(g.field_to_json(noise))
    n = len(g.grid_points(6))
    records = {
        "nan": {"M": 6, "family": "C", "values": [float("nan")] + [0.0] * (n - 1)},
        "wrong-tag": {"M": 6, "family": "S", "values": [0.0] * n},
        "unknown-tag": {"M": 6, "family": "Q", "values": [0.0] * n},
        "coef-S": {"M": 6, "family": "S", "values": [0.0]},
        "coef-Q": {"M": 6, "family": "Q", "values": [0.0]},
        "coef-nan": {"M": 6, "family": "C", "values": [float("nan")] * len(coef.values)},
    }
    for name, record in records.items():
        (tmp / f"{name}.json").write_text(json.dumps(record))


def run_case(argv: list[str], tmp: Path) -> dict:
    """Run one case through g2fun.cli.main in-process and record what it did."""
    from g2fun.cli import main

    root = str(tmp)
    real = [a.replace(TMP, root) for a in argv]
    before = set(tmp.iterdir())
    out, err = io.StringIO(), io.StringIO()
    columns = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"  # argparse wraps its usage text to the terminal
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(real)
            except SystemExit as exc:  # argparse exits directly on malformed argv
                code = exc.code
    finally:
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    files = {}
    for path in sorted(set(tmp.iterdir()) - before):
        files[f"{TMP}/{path.name}"] = path.read_text().replace(root, TMP)
        path.unlink()
    return {
        "argv": argv,
        "exit": code,
        "stdout": out.getvalue().replace(root, TMP),
        "stderr": err.getvalue().replace(root, TMP),
        "files": files,
    }


def run_corpus(tmp: Path) -> list[dict]:
    write_fixtures(tmp)
    return [run_case(argv, tmp) for argv in CASES]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        records = run_corpus(Path(tmp))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n")
    print(f"wrote {len(records)} cases to {GOLDEN}", file=sys.stderr)
