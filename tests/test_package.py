"""Package surface: every export resolves, numpy loads only with the transforms."""

import ast
import json
from pathlib import Path

import g2fun
from g2fun import transforms

from conftest import run_python


def test_every_export_resolves():
    for name in g2fun.__all__:
        assert getattr(g2fun, name) is not None, name
    assert set(transforms.__all__) <= set(g2fun.__all__)
    assert g2fun.forward is transforms.forward
    assert set(g2fun.__all__) <= set(dir(g2fun))


def test_plain_import_leaves_numpy_unloaded():
    code = (
        "import json, sys, g2fun\n"
        "before = 'numpy' in sys.modules\n"
        "g2fun.SampledField\n"
        "print(json.dumps([before, 'numpy' in sys.modules]))\n"
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [False, True]


def test_star_import_serves_the_transforms():
    proc = run_python("-c", "from g2fun import *; print(forward.__module__)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "g2fun.transforms"


def _raises_assertion_error(node: ast.AST) -> bool:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_assert_statements_in_src():
    # `python -O` strips assert statements, so invariants must be explicit
    # raises, and of an exception class that does not read as a test failure.
    found = []
    for path in sorted(Path(g2fun.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert) or (
                isinstance(node, ast.Raise) and node.exc is not None
                and _raises_assertion_error(node)
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
