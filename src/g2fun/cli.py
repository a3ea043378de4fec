"""Command-line interface.

Subcommands
-----------
eval       evaluate one orbit function at a point or on a whole grid
transform  forward/inverse discrete transforms of sampled fields
decompose  expand a product of two orbit functions in orbit functions
tables     reference tables: rational classes, grids, spectra, characters
efo        enumerate conjugacy classes of elements of a given finite order

Exit codes: 0 success, 1 a requested numerical check failed,
2 invalid arguments (including nondominant weights).

numpy and the transforms are imported only by the commands that handle
arrays (``eval --grid`` and ``transform``), so the exact commands start
without them.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable

from .algebra import expand_char_in_C, expand_product, product_check
from .arith import enumerate_efo, is_rational, rational_table
from .lattice import grid_points, grid_to_json, spectrum
from .orbitfn import evaluate
from .rootsys import Family, Point, Weight, family_by_tag

if TYPE_CHECKING:
    from . import transforms
    from .algebra import OrbitSum

_FORMATS = ("text", "json", "csv", "latex")

#: Format name -> zero-argument builder of the payload in that format.
_Views = dict[str, Callable[[], str]]


class UsageError(Exception):
    """Invalid input that argparse cannot catch (bad weight, bad file...)."""


def _family(tag: str) -> Family:
    return family_by_tag(tag.upper())


def _weight(a: str, b: str) -> Weight:
    try:
        w = Weight(int(a), int(b))
    except ValueError as exc:
        raise UsageError(f"weight coordinates must be integers: {exc}") from None
    if not w.is_dominant:
        raise UsageError(f"weight ({w.a},{w.b}) is not dominant")
    return w


def _coord(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad coordinate {text!r}: {exc}") from None


def _render(args: argparse.Namespace, command: str, views: _Views) -> None:
    """Write the view in args.fmt to args.out, or to stdout with a final newline."""
    if args.fmt not in views:
        raise UsageError(f"format '{args.fmt}' is not supported by '{command}'")
    payload = views[args.fmt]()
    if args.out:
        Path(args.out).write_text(payload)
    else:
        sys.stdout.write(payload if payload.endswith("\n") else payload + "\n")


def _table(title: str | None, head: str | None, row: str | None,
           csv_head: str | None, rows: Iterable[tuple]) -> _Views:
    """Text and CSV views of a table; a None header leaves that view out.

    The text view is the title line (if any), the header and each row
    through the `row` format string.  The CSV view writes the leading
    fields of each row that `csv_head` names, so the text format may
    also use trailing fields.  `rows` is consumed by one view only.
    """
    views: _Views = {}
    if head is not None:
        views["text"] = lambda: "\n".join(
            [*filter(None, [title]), head, *(row.format(*r) for r in rows)]
        )
    if csv_head is not None:
        n = csv_head.count(",") + 1
        views["csv"] = lambda: "".join(
            f"{line}\n" for line in [csv_head, *(",".join(map(str, r[:n])) for r in rows)]
        )
    return views


def _read(
    path: str, family: Family, M: int, kind: str
) -> transforms.SampledField | transforms.CoefficientVector:
    """The field or coefficients (`kind`) in a JSON, CSV or text-table file."""
    from . import transforms

    field = kind == "field"
    text = Path(path).read_text()
    if not text.lstrip().startswith("{"):
        if field:
            return transforms.field_from_csv(text, M, family)
        return transforms.coefficients_from_csv(text, family, M)
    data = (transforms.field_from_json if field else transforms.coefficients_from_json)(text)
    if data.M != M or data.family not in (None, family):
        raise UsageError(
            f"{kind} in {path} {'is' if field else 'are'} for {data.family}/M={data.M}, "
            f"expected {family}/M={M}"
        )
    return data


def _field_views(field: transforms.SampledField) -> _Views:
    from . import transforms

    M = field.M
    rows = (
        (kp.s0, kp.s1, kp.s2, kp.s1 / M, kp.s2 / M, v)
        for kp, v in zip(grid_points(M).points, field.values)
    )
    return {
        **_table(None, "s0 s1 s2      x1        x2        value",
                 "{0:2d} {1:2d} {2:2d}  {3:9.6f} {4:9.6f}  {5:.12g}", None, rows),
        "json": lambda: transforms.field_to_json(field),
        "csv": lambda: transforms.field_to_csv(field),
    }


def _coefficient_views(vec: transforms.CoefficientVector) -> _Views:
    from . import transforms

    rows = ((w.a, w.b, v) for w, v in zip(spectrum(vec.family, vec.M).weights(), vec.values))
    return {
        **_table(None, " a  b      value", "{0:2d} {1:2d}  {2:.12g}", None, rows),
        "json": lambda: transforms.coefficients_to_json(vec),
        "csv": lambda: transforms.coefficients_to_csv(vec),
    }


def _sum_views(osum: OrbitSum, lhs: str) -> _Views:
    rows = ((osum.family.tag, w.a, w.b, c) for w, c in osum.sorted_terms())
    return {
        **_table(None, None, None, "family,a,b,coefficient", rows),
        "text": lambda: f"{lhs} = {osum.pretty()}",
        "json": osum.to_json,
        "latex": lambda: osum.pretty(latex=True),
    }


# ---------------------------------------------------------------- eval


def _cmd_eval(args: argparse.Namespace) -> int:
    if args.point and len(args.point) != 2:
        raise UsageError("a point needs exactly two coordinates")
    family = _family(args.family)
    lam = _weight(args.a, args.b)

    if args.grid is not None:
        from . import transforms

        _render(args, "eval", _field_views(transforms.sample_on_grid(family, lam, args.grid)))
        return 0

    if not args.point:
        raise UsageError("eval needs either a point (x1 x2) or --grid M")
    p = Point(_coord(args.point[0]), _coord(args.point[1]))
    fv = evaluate(family, lam, p)
    _render(args, "eval", {
        "json": lambda: json.dumps({
            "family": family.tag, "weight": [lam.a, lam.b], "point": [str(p.x1), str(p.x2)],
            "value": {"re": fv.value.real, "im": fv.value.imag},
            "renormalized": fv.renormalized, "admissible": fv.admissible,
        }, indent=2),
        "csv": lambda: (
            "family,a,b,x1,x2,re,im,renormalized,admissible\n"
            f"{family.tag},{lam.a},{lam.b},{p.x1},{p.x2},"
            f"{fv.value.real:.17g},{fv.value.imag:.17g},"
            f"{fv.renormalized:.17g},{fv.admissible}\n"
        ),
        "text": lambda: (
            f"{family.tag}_({lam.a},{lam.b}) at ({p.x1}, {p.x2})\n"
            f"value        = {fv.value.real:.12g} {fv.value.imag:+.12g}j\n"
            f"renormalized = {fv.renormalized:.12g}\n"
            f"admissible   = {fv.admissible}"
        ),
    })
    return 0


# ---------------------------------------------------------------- transform


def _cmd_transform(args: argparse.Namespace) -> int:
    import numpy as np

    from . import transforms

    family = _family(args.family)
    M = args.M

    if args.forward:
        field = _read(args.forward, family, M, "field")
        vec = transforms.forward(family, M, field)
        _render(args, "transform", _coefficient_views(vec))
        if not args.roundtrip:
            return 0
        back = transforms.inverse(family, M, vec)
        mask = transforms.support_mask(family, M)
        err = float(np.max(np.abs((back.values - field.values) * mask), initial=0.0))
        where = " (on support)"
    else:
        vec = _read(args.inverse, family, M, "coefficients")
        field = transforms.inverse(family, M, vec)
        _render(args, "transform", _field_views(field))
        if not args.roundtrip:
            return 0
        back = transforms.forward(family, M, field)
        err = float(np.max(np.abs(back.values - vec.values), initial=0.0))
        where = ""
    print(f"roundtrip max abs error{where} = {err:.3e}")
    return 0 if err <= args.tol else 1


# ---------------------------------------------------------------- decompose


def _cmd_decompose(args: argparse.Namespace) -> int:
    fam_a = _family(args.family_a)
    lam_a = _weight(args.a_a, args.b_a)
    fam_b = _family(args.family_b)
    lam_b = _weight(args.a_b, args.b_b)

    if args.check is not None and args.check < 1:
        raise UsageError(f"--check needs a positive number of points, got {args.check}")
    osum = expand_product(fam_a, lam_a, fam_b, lam_b)
    lhs = f"{fam_a.tag}_({lam_a.a},{lam_a.b}) * {fam_b.tag}_({lam_b.a},{lam_b.b})"
    _render(args, "decompose", _sum_views(osum, lhs))

    if args.check:
        err = product_check(fam_a, lam_a, fam_b, lam_b, osum, n=args.check, seed=args.seed)
        print(f"numeric check over {args.check} random points: "
              f"max relative error = {err:.3e}")
        return 0 if err <= args.tol else 1
    return 0


# ---------------------------------------------------------------- tables


def _cmd_tables(args: argparse.Namespace) -> int:
    if args.rational:
        kind, table = "rational", rational_table()
        views = _table(
            None,
            "function".ljust(10) + "".join(
                f"[{kp.s0},{kp.s1},{kp.s2}]/{kp.M}".rjust(12) for kp in table.columns
            ),
            "{:10}" + "{:12d}" * len(table.columns),
            None,
            ((label, *vals) for label, vals in table.rows),
        )
        views["csv"] = table.to_csv
        views["json"] = lambda: json.dumps({
            "columns": [{"M": kp.M, "kac": [kp.s0, kp.s1, kp.s2]} for kp in table.columns],
            "rows": {label: list(vals) for label, vals in table.rows},
        }, indent=2)
    elif args.grid is not None:
        kind, grid = "grid", grid_points(args.grid)
        views = _table(
            f"grid of level M={grid.M}: {len(grid)} points, total weight {sum(grid.weights)}",
            "s0 s1 s2  weight",
            "{0:2d} {1:2d} {2:2d}  {5:2d}",
            "s0,s1,s2,x1,x2,weight",
            ((kp.s0, kp.s1, kp.s2, *kp.point(), c) for kp, c in zip(grid.points, grid.weights)),
        )
        views["json"] = lambda: grid_to_json(grid)
    elif args.spectrum is not None:
        kind, family = "spectrum", _family(args.spectrum[0])
        try:
            M = int(args.spectrum[1])
        except ValueError:
            raise UsageError(
                f"argument --spectrum: invalid int value for M: {args.spectrum[1]!r}"
            ) from None
        sp = spectrum(family, M)
        views = _table(
            f"spectrum of {family.tag} at level M={M}: {len(sp.entries)} weights",
            " a  b     h      norm",
            "{0:2d} {1:2d}  {2!s:>5}  {3!s:>8}",
            "a,b,h,norm",
            ((w.a, w.b, h, 12 * M * M * h) for w, h in sp.entries),
        )
        views["json"] = lambda: json.dumps({
            "family": family.tag, "M": M, "entries": [
                {"weight": [w.a, w.b], "h": str(h), "norm": str(12 * M * M * h)}
                for w, h in sp.entries
            ],
        }, indent=2)
    elif args.char is not None:
        kind, variant = "char", args.char[0]
        if variant not in ("full", "L", "S"):
            raise UsageError(f"character variant must be full, L or S, got {variant!r}")
        lam = _weight(args.char[1], args.char[2])
        name = {"full": "chi", "L": "chi^L", "S": "chi^S"}[variant]
        osum = expand_char_in_C(variant, lam)
        views = _sum_views(osum, f"{name}_({lam.a},{lam.b})")
    else:
        raise UsageError(
            "tables needs one of --rational, --grid M, --spectrum FAMILY M, "
            "--char VARIANT a b"
        )
    _render(args, f"tables --{kind}", views)
    return 0


# ---------------------------------------------------------------- efo


def _cmd_efo(args: argparse.Namespace) -> int:
    classes = enumerate_efo(args.M)
    pairs = [(e, r) for e, r in zip(classes, map(is_rational, classes))
             if r or not args.rational_only]
    views = _table(
        f"classes of elements of order exactly {args.M}: {len(pairs)}",
        "s0 s1 s2  rational",
        "{0:2d} {1:2d} {2:2d}  {5}",
        "s0,s1,s2,order,rational",
        ((*e.kac[:3], e.order, r, "yes" if r else "no") for e, r in pairs),
    )
    views["json"] = lambda: json.dumps([
        {"kac": list(e.kac[:3]), "order": e.order, "rational": r} for e, r in pairs
    ], indent=2)
    _render(args, "efo", views)
    return 0


# ---------------------------------------------------------------- parser


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", dest="fmt", choices=_FORMATS, default="text",
        help="output format (default: text)",
    )
    common.add_argument("--out", help="write the output to this file")
    common.add_argument("--seed", type=int, default=0, help="random seed")
    common.add_argument(
        "--tol", type=float, default=1e-9,
        help="tolerance for numerical checks (default: 1e-9)",
    )

    parser = argparse.ArgumentParser(
        prog="g2fun",
        description="Orbit functions of the rank-two exceptional root system: "
        "evaluation, discrete transforms, product decompositions, and "
        "arithmetic of elements of finite order.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser(
        "eval", parents=[common],
        help="evaluate an orbit function at a point or on a grid",
    )
    p_eval.add_argument("family", help="C, S, SL or SS")
    p_eval.add_argument("a", help="first weight coordinate (integer >= 0)")
    p_eval.add_argument("b", help="second weight coordinate (integer >= 0)")
    p_eval.add_argument(
        "point", nargs="*", default=None, metavar="x",
        help="point coordinates x1 x2 (fractions like 1/3 are accepted)",
    )
    p_eval.add_argument("--grid", type=int, metavar="M",
                        help="sample on the level-M grid instead")

    p_tr = sub.add_parser(
        "transform", parents=[common],
        help="discrete forward/inverse transform of a sampled field",
    )
    p_tr.add_argument("family", help="C, S, SL or SS")
    p_tr.add_argument("M", type=int, help="grid level")
    direction = p_tr.add_mutually_exclusive_group(required=True)
    direction.add_argument("--forward", metavar="FILE",
                           help="field file (json, csv or text) to analyze")
    direction.add_argument("--inverse", metavar="FILE",
                           help="coefficient file (json, csv or text) to synthesize")
    p_tr.add_argument("--roundtrip", action="store_true",
                      help="apply the opposite transform and report the error")

    p_dec = sub.add_parser(
        "decompose", parents=[common],
        help="expand a product of two orbit functions",
    )
    for name in ("family_a", "a_a", "b_a", "family_b", "a_b", "b_b"):
        p_dec.add_argument(name)
    p_dec.add_argument("--check", type=int, metavar="N",
                       help="verify numerically at N random interior points")

    p_tab = sub.add_parser("tables", parents=[common], help="reference tables")
    kind = p_tab.add_mutually_exclusive_group(required=True)
    kind.add_argument("--rational", action="store_true",
                      help="integer values at all rational classes of order <= 12")
    kind.add_argument("--grid", type=int, metavar="M", help="level-M grid census")
    kind.add_argument("--spectrum", nargs=2, metavar=("FAMILY", "M"),
                      help="transform spectrum of a family at level M")
    kind.add_argument("--char", nargs=3, metavar=("VARIANT", "a", "b"),
                      help="character expansion (variant: full, L or S)")

    p_efo = sub.add_parser(
        "efo", parents=[common],
        help="conjugacy classes of elements of finite order",
    )
    p_efo.add_argument("M", type=int, help="exact order")
    p_efo.add_argument("--rational-only", action="store_true",
                       help="keep only rational classes")

    return parser


_COMMANDS = {
    "eval": _cmd_eval,
    "transform": _cmd_transform,
    "decompose": _cmd_decompose,
    "tables": _cmd_tables,
    "efo": _cmd_efo,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if not 0 < args.tol < math.inf:
            what = "positive" if math.isfinite(args.tol) else "finite"
            raise UsageError(f"tolerance must be {what}, got {args.tol}")
        if args.seed < 0:
            raise UsageError(f"seed must be nonnegative, got {args.seed}")
        return _COMMANDS[args.command](args)
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
