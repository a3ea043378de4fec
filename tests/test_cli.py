"""Command-line interface: formats, files, exit codes."""

import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import g2fun as g
from g2fun import C, SS, Weight
from g2fun.cli import main

from cli_corpus import GOLDEN, run_case, run_corpus, write_fixtures
from conftest import run_python


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse exits directly on malformed argv
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------ eval


def test_eval_text_accepts_fractions(capsys):
    code, out, _ = run(capsys, "eval", "C", "1", "0", "1/10", "1/12")
    assert code == 0
    assert "C_(1,0) at (1/10, 1/12)" in out
    assert "admissible   = True" in out


def test_eval_json_payload(capsys):
    code, out, _ = run(capsys, "eval", "SL", "1", "0", "0.1", "0.05", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["family"] == "SL"
    assert payload["point"] == ["1/10", "1/20"]
    assert abs(payload["value"]["re"]) < 1e-12
    want = g.evaluate(g.SL, Weight(1, 0), (0.1, 0.05)).value.imag
    assert payload["value"]["im"] == pytest.approx(want)


def test_eval_inadmissible_reports_false(capsys):
    code, out, _ = run(capsys, "eval", "S", "1", "0", "1/7", "1/9", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["admissible"] is False and payload["renormalized"] == 0.0


@pytest.mark.parametrize("point,reduced", [
    (["1e400", "0.1"], (0, 0.1)),
    (["0.1", "--", "-1e400"], (0.1, 0)),
])
def test_huge_coordinates_are_reduced_mod_one(capsys, point, reduced):
    code, out, err = run(capsys, "eval", "--format", "json", "C", "1", "0", *point)
    assert code == 0, err
    value = json.loads(out)["value"]
    want = g.evaluate(C, Weight(1, 0), reduced).value
    assert (value["re"], value["im"]) == (want.real, want.imag)


def test_eval_on_grid_as_csv(capsys):
    code, out, _ = run(capsys, "eval", "C", "1", "0", "--grid", "3", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "s0,s1,s2,x1,x2,value"
    assert len(lines) == 1 + g.grid_size(3)
    assert lines[1].startswith("3,0,0,")


def test_eval_nondominant_is_a_usage_error(capsys):
    code, _, err = run(capsys, "eval", "C", "-1", "2", "0.1", "0.1")
    assert code == 2
    assert "dominant" in err


def test_eval_unknown_family_is_a_usage_error(capsys):
    code, _, err = run(capsys, "eval", "Q", "1", "0", "0.1", "0.1")
    assert code == 2 and err


def test_eval_missing_point_is_a_usage_error(capsys):
    code, _, err = run(capsys, "eval", "C", "1", "0")
    assert code == 2 and err


# ------------------------------------------------------------ transform


def test_transform_forward_then_inverse_via_files(tmp_path, capsys):
    f = g.sample_on_grid(C, Weight(1, 0), 6)
    field_file = tmp_path / "field.json"
    field_file.write_text(g.field_to_json(f))

    code, out, _ = run(capsys, "transform", "C", "6", "--forward", str(field_file),
                       "--format", "json", "--out", str(tmp_path / "coef.json"))
    assert code == 0
    coef = g.coefficients_from_json((tmp_path / "coef.json").read_text())
    spectrum = [tuple(e.weight) for e in g.spectrum(C, 6).entries]
    assert coef.values[spectrum.index((1, 0))] == pytest.approx(1.0)
    assert np.allclose(np.delete(coef.values, spectrum.index((1, 0))), 0.0, atol=1e-12)

    code, out, _ = run(capsys, "transform", "C", "6",
                       "--inverse", str(tmp_path / "coef.json"), "--format", "csv")
    assert code == 0
    back = g.field_from_csv(out, 6)
    assert np.allclose(back.values, f.values, atol=1e-10)


def test_transform_accepts_csv_input(tmp_path, capsys):
    f = g.sample_on_grid(SS, Weight(0, 1), 6)
    field_file = tmp_path / "field.csv"
    field_file.write_text(g.field_to_csv(f))
    code, out, _ = run(capsys, "transform", "SS", "6", "--forward", str(field_file),
                       "--format", "csv")
    assert code == 0
    assert out.splitlines()[0].split(",")[:2] == ["a", "b"]


def test_transform_roundtrip_reports_success(tmp_path, capsys):
    rng = np.random.default_rng(0)
    values = rng.standard_normal(g.grid_size(6)) * g.support_mask(C, 6)
    field_file = tmp_path / "field.json"
    field_file.write_text(g.field_to_json(g.SampledField(6, values)))
    code, out, _ = run(capsys, "transform", "C", "6", "--forward", str(field_file),
                       "--roundtrip")
    assert code == 0
    assert "roundtrip" in out


def test_transform_roundtrip_exit_code_reflects_tolerance(tmp_path, capsys):
    # float roundoff (~1e-15) sits between the two tolerances
    rng = np.random.default_rng(3)
    values = rng.standard_normal(g.grid_size(6)) * g.support_mask(C, 6)
    field_file = tmp_path / "field.json"
    field_file.write_text(g.field_to_json(g.SampledField(6, values)))
    argv = ["transform", "C", "6", "--forward", str(field_file), "--roundtrip"]
    code, out, err = run(capsys, *argv, "--tol", "1e-30")
    assert code == 1
    assert "roundtrip" in out + err
    code, _, _ = run(capsys, *argv, "--tol", "1e-9")
    assert code == 0


@pytest.mark.parametrize("tol,what", [
    ("nan", "finite"), ("inf", "finite"), ("-inf", "finite"), ("0", "positive"), ("-1", "positive"),
])
def test_checks_reject_a_tolerance_that_is_not_finite_and_positive(tmp_path, capsys, tol, what):
    # nan would fail every check (exit 1) and inf would pass every one
    field_file = tmp_path / "field.json"
    field_file.write_text(g.field_to_json(g.sample_on_grid(C, Weight(1, 0), 6)))
    for argv in (["decompose", "S", "1", "1", "S", "1", "1", "--check", "3"],
                 ["transform", "C", "6", "--forward", str(field_file), "--roundtrip"]):
        code, out, err = run(capsys, *argv, f"--tol={tol}")
        assert code == 2 and out == ""
        assert err == f"error: tolerance must be {what}, got {float(tol)}\n"


def test_spectrum_level_error_names_the_option(capsys):
    code, out, err = run(capsys, "tables", "--spectrum", "S", "x")
    assert code == 2 and out == ""
    assert err == "error: argument --spectrum: invalid int value for M: 'x'\n"


def test_transform_missing_file_is_a_usage_error(capsys):
    code, _, err = run(capsys, "transform", "C", "6", "--forward", "/nonexistent.json")
    assert code == 2 and err


def _bad_field_files(tmp_path):
    n = g.grid_size(6)
    nan = [float("nan")] + [0.0] * (n - 1)
    records = {
        "nan": {"M": 6, "family": "C", "values": nan},
        "wrong-tag": {"M": 6, "family": "S", "values": [0.0] * n},
        "unknown-tag": {"M": 6, "family": "Q", "values": [0.0] * n},
    }
    paths = {}
    for name, record in records.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(record))
    return paths


@pytest.mark.parametrize("name", ["nan", "wrong-tag", "unknown-tag"])
def test_transform_rejects_bad_field_file(tmp_path, name):
    path = _bad_field_files(tmp_path)[name]
    proc = subprocess.run(
        [sys.executable, "-m", "g2fun", "transform", "C", "6",
         "--forward", str(path), "--roundtrip"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("tag", ["S", "Q"])
def test_transform_rejects_bad_coefficient_tag(tmp_path, capsys, tag):
    path = tmp_path / "coef.json"
    path.write_text(json.dumps({"M": 6, "family": tag, "values": [0.0]}))
    code, _, err = run(capsys, "transform", "C", "6", "--inverse", str(path))
    assert code == 2 and err.startswith("error: ")


def test_text_tables_are_valid_transform_input(tmp_path, capsys):
    # eval --grid -> text -> forward -> text -> inverse -> text -> forward
    grid, coef, field, again = (str(tmp_path / n) for n in ("g.txt", "c.txt", "f.txt", "c2.txt"))
    assert run(capsys, "eval", "C", "1", "0", "--grid", "6", "--out", grid)[0] == 0
    for argv in (["--forward", grid, "--out", coef],
                 ["--inverse", coef, "--out", field],
                 ["--forward", field, "--out", again, "--roundtrip"]):
        code, _, err = run(capsys, "transform", "C", "6", *argv)
        assert code == 0, err
    values = g.coefficients_from_csv((tmp_path / "c2.txt").read_text(), C, 6).values
    want = np.zeros(len(values))
    want[g.spectrum(C, 6).weights().index((1, 0))] = 1.0
    assert np.allclose(values, want, atol=1e-9)


def test_nan_coefficients_are_a_usage_error(tmp_path, capsys):
    n = len(g.spectrum(C, 6))
    path = tmp_path / "coef.json"
    path.write_text(json.dumps({"M": 6, "family": "C", "values": [float("nan")] * n}))
    code, _, err = run(capsys, "transform", "C", "6", "--inverse", str(path), "--roundtrip")
    assert code == 2 and "finite" in err


# ------------------------------------------------------------ decompose


def test_decompose_text_and_latex(capsys):
    code, out, _ = run(capsys, "decompose", "C", "1", "0", "C", "1", "0")
    assert code == 0
    assert out.strip() == "C_(1,0) * C_(1,0) = C(2,0)+2C(0,3)+2C(1,0)+6C(0,0)"
    code, out, _ = run(capsys, "decompose", "C", "1", "0", "C", "1", "0",
                       "--format", "latex")
    assert code == 0
    assert out.strip() == "C_{(2,0)}+2C_{(0,3)}+2C_{(1,0)}+6C_{(0,0)}"


def test_decompose_json_terms(capsys):
    code, out, _ = run(capsys, "decompose", "SL", "2", "1", "SS", "2", "1",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["family"] == "S"
    assert [4, 2, 1] in payload["terms"]


def test_decompose_check_passes(capsys):
    code, out, _ = run(capsys, "decompose", "S", "1", "1", "S", "1", "1",
                       "--check", "25")
    assert code == 0
    assert "check" in out


@pytest.mark.parametrize("n", ["0", "-5"])
def test_decompose_check_needs_a_positive_count(capsys, n):
    code, out, err = run(capsys, "decompose", "C", "1", "0", "C", "1", "0", "--check", n)
    assert code == 2 and out == ""
    assert err.strip().splitlines() == [f"error: --check needs a positive number of points, got {n}"]


def test_latex_rejected_outside_symbolic_output(capsys):
    code, _, err = run(capsys, "eval", "C", "1", "0", "0.1", "0.1",
                       "--format", "latex")
    assert code == 2 and err


# ------------------------------------------------------------ tables


def test_tables_rational_csv_matches_library(capsys):
    code, out, _ = run(capsys, "tables", "--rational", "--format", "csv")
    assert code == 0
    assert out.strip() == g.rational_table().to_csv().strip()


def test_tables_grid(capsys):
    code, out, _ = run(capsys, "tables", "--grid", "2")
    assert code == 0
    assert "total weight 4" in out


def test_tables_spectrum(capsys):
    code, out, _ = run(capsys, "tables", "--spectrum", "S", "6")
    assert code == 0
    assert "1 weights" in out and "432" in out


def test_tables_char_latex(capsys):
    code, out, _ = run(capsys, "tables", "--char", "L", "1", "1", "--format", "latex")
    assert code == 0
    assert out.strip().endswith("C_{(1,1)}+C_{(0,2)}+2C_{(0,1)}")


def test_tables_requires_exactly_one_selection(capsys):
    code, _, err = run(capsys, "tables")
    assert code == 2 and err


# ------------------------------------------------------------ efo


def test_efo_lists_classes(capsys):
    code, out, _ = run(capsys, "efo", "6", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert [e["kac"] for e in payload] == [[4, 1, 0], [3, 0, 1], [1, 1, 1]]
    assert all(e["rational"] for e in payload)


def test_efo_rational_only_filters(capsys):
    code, out, _ = run(capsys, "efo", "5", "--rational-only", "--format", "json")
    assert code == 0
    assert json.loads(out) == []


@pytest.mark.parametrize("argv", [
    ["eval", "C", "1", "0", "inf", "0.1"],
    ["eval", "C", "1", "0", "0.1", "nan"],
    ["eval", "C", "1", "0", "1/0", "0.1"],
    ["tables", "--char", "X", "1", "1"],
], ids=["inf", "nan", "1/0", "char-variant"])
def test_bad_argv_exits_2_with_an_error_line(capsys, argv):
    # An uncaught exception would escape main() and fail the test outright.
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.strip().splitlines()[-1].startswith("error: ")


# ------------------------------------------------------------ generated argv

_FAMILY = st.sampled_from(["C", "S", "SL", "ss", "Q", ""])
_INT = st.sampled_from(["0", "1", "2", "-1", "x", "1.5", ""])
_LEVEL = st.sampled_from(["1", "4", "6", "0", "-2", "x"])
_COORD = st.sampled_from(["1/3", "0.1", "-2", "1e400", "inf", "nan", "1/0", "x"])
_FILE = st.sampled_from(["field.json", "coef.json", "field.csv", "coef.csv", "nan.json",
                         "bad.json", "list.json", "garbage.txt", "missing.json", "."])


def _argv(path):
    """argv for one command; `path` maps a file name to its location."""
    return st.one_of(
        st.tuples(st.just("eval"), _FAMILY, _INT, _INT, _COORD, _COORD),
        st.tuples(st.just("eval"), _FAMILY, _INT, _INT, st.just("--grid"), _LEVEL),
        st.tuples(st.just("transform"), _FAMILY, _LEVEL,
                  st.sampled_from(["--forward", "--inverse"]), _FILE.map(path),
                  st.sampled_from(["--roundtrip", "--tol=1e-30", "--tol=nan"])),
        st.tuples(st.just("decompose"), _FAMILY, _INT, _INT, _FAMILY, _INT, _INT,
                  st.sampled_from(["--check=3", "--check=0", "--check=x", "--seed=-1"])),
        st.tuples(st.just("tables"), st.just("--rational")),
        st.tuples(st.just("tables"), st.just("--grid"), _LEVEL),
        st.tuples(st.just("tables"), st.just("--spectrum"), _FAMILY, _LEVEL),
        st.tuples(st.just("tables"), st.just("--char"),
                  st.sampled_from(["full", "L", "S", "X"]), _INT, _INT),
        st.tuples(st.just("efo"), _LEVEL, st.sampled_from(["--rational-only", "--tol=0"])),
    )


@pytest.fixture(scope="module")
def argv_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("argv")
    write_fixtures(tmp)
    (tmp / "bad.json").write_text("{not json")
    (tmp / "list.json").write_text('{"M": 6, "family": "C", "values": [[1.0]]}')
    (tmp / "garbage.txt").write_text("hello world\n1 2\n")
    return tmp


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_generated_argv_exits_0_1_or_2(argv_dir, data):
    argv = list(data.draw(_argv(lambda name: str(argv_dir / name))))
    argv += ["--format", data.draw(st.sampled_from(["text", "json", "csv", "latex"]))]
    record = run_case(argv, argv_dir)  # any exception but SystemExit escapes
    assert record["exit"] in (0, 1, 2), argv
    if record["exit"] == 2:
        lines = record["stderr"].splitlines()
        assert "Traceback" not in record["stderr"]
        assert lines and "error: " in lines[-1], argv
        assert sum("error:" in line for line in lines) == 1, argv


# ------------------------------------------------------------ pinned output


def test_cli_output_matches_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    got = run_corpus(tmp_path)
    assert [c["argv"] for c in got] == [c["argv"] for c in golden]
    for want, have in zip(golden, got):
        assert have == want, want["argv"]


# ------------------------------------------------------------ process-level


# Runs g2fun.cli.main on its argv in a fresh interpreter and reports the
# exit code, the output and whether numpy was imported along the way.
_PROBE = """
import contextlib, io, json, sys
from g2fun.cli import main
buf = io.StringIO()
with contextlib.redirect_stdout(buf):
    rc = main(sys.argv[1:])
print(json.dumps({"rc": rc, "out": buf.getvalue(), "numpy": "numpy" in sys.modules}))
"""


@pytest.mark.parametrize("argv", [
    ["eval", "C", "1", "0", "1/10", "1/12"],
    ["decompose", "S", "1", "1", "S", "1", "1", "--check", "25"],
    ["tables", "--rational"],
    ["tables", "--char", "full", "3", "2"],
    ["tables", "--grid", "6"],
    ["tables", "--spectrum", "S", "6"],
    ["efo", "12"],
])
def test_exact_commands_never_import_numpy(capsys, argv):
    proc = run_python("-c", _PROBE, *argv)
    assert proc.returncode == 0, proc.stderr
    probe = json.loads(proc.stdout)
    assert probe["rc"] == 0 and not probe["numpy"]
    assert probe["out"] == run(capsys, *argv)[1]


def test_array_commands_import_numpy_on_demand(tmp_path, capsys):
    path = tmp_path / "field.json"
    path.write_text(g.field_to_json(g.sample_on_grid(C, Weight(1, 0), 6)))
    for argv in (["eval", "C", "1", "0", "--grid", "6"],
                 ["transform", "C", "6", "--forward", str(path), "--roundtrip"]):
        proc = run_python("-c", _PROBE, *argv)
        assert proc.returncode == 0, proc.stderr
        probe = json.loads(proc.stdout)
        assert probe["rc"] == 0 and probe["numpy"]
        assert probe["out"] == run(capsys, *argv)[1]


def test_module_entrypoint_runs_in_a_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "g2fun", "eval", "C", "0", "1", "1/6", "1/6",
         "--format", "json"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["renormalized"] == pytest.approx(
        g.evaluate_real(C, Weight(0, 1), (1 / 6, 1 / 6))
    )


def test_out_file_receives_the_payload(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run(capsys, "decompose", "C", "0", "1", "C", "1", "0",
                       "--format", "json", "--out", str(target))
    assert code == 0
    payload = json.loads(target.read_text())
    assert payload["terms"] == [[1, 1, 1], [0, 2, 2], [0, 1, 2]]
