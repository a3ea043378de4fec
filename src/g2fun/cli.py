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
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING

from .algebra import expand_char_in_C, expand_product, product_check, target_family
from .arith import enumerate_efo, is_rational, rational_table
from .lattice import grid_points, grid_to_json, spectrum
from .orbitfn import evaluate
from .rootsys import Family, Point, Weight, family_by_tag

if TYPE_CHECKING:
    from . import transforms

_FORMATS = ("text", "json", "csv", "latex")


@dataclass(frozen=True)
class Config:
    """Options shared by every subcommand."""

    fmt: str = "text"
    tol: float = 1e-9
    seed: int = 0

    def __post_init__(self) -> None:
        if self.fmt not in _FORMATS:
            raise ValueError(f"format must be one of {_FORMATS}, got {self.fmt!r}")
        if self.tol <= 0:
            raise ValueError(f"tolerance must be positive, got {self.tol}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


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


def _emit(payload: str, out: str | None) -> None:
    if out:
        Path(out).write_text(payload)
    else:
        end = "" if payload.endswith("\n") else "\n"
        sys.stdout.write(payload + end)


def _no_latex(cfg: Config, command: str) -> None:
    if cfg.fmt == "latex":
        raise UsageError(f"format 'latex' is not supported by '{command}'")


def _read_field(path: str, family: Family, M: int) -> transforms.SampledField:
    from . import transforms

    text = Path(path).read_text()
    if text.lstrip().startswith("{"):
        field = transforms.field_from_json(text)
        if field.M != M or field.family not in (None, family):
            raise UsageError(
                f"field in {path} is for {field.family}/M={field.M}, "
                f"expected {family}/M={M}"
            )
        return transforms.SampledField(M, field.values, family)
    return transforms.field_from_csv(text, M, family)


def _read_coefficients(path: str, family: Family, M: int) -> transforms.CoefficientVector:
    from . import transforms

    text = Path(path).read_text()
    if text.lstrip().startswith("{"):
        vec = transforms.coefficients_from_json(text)
        if vec.M != M or vec.family != family:
            raise UsageError(
                f"coefficients in {path} are for {vec.family}/M={vec.M}, "
                f"expected {family}/M={M}"
            )
        return vec
    return transforms.coefficients_from_csv(text, family, M)


def _field_text(field: transforms.SampledField) -> str:
    lines = ["s0 s1 s2      x1        x2        value"]
    for kp, v in zip(grid_points(field.M).points, field.values):
        lines.append(
            f"{kp.s0:2d} {kp.s1:2d} {kp.s2:2d}  {float(kp.point().x1):9.6f} "
            f"{float(kp.point().x2):9.6f}  {v:.12g}"
        )
    return "\n".join(lines)


def _coeff_text(vec: transforms.CoefficientVector) -> str:
    lines = [" a  b      value"]
    for entry, v in zip(spectrum(vec.family, vec.M).entries, vec.values):
        lines.append(f"{entry.weight.a:2d} {entry.weight.b:2d}  {v:.12g}")
    return "\n".join(lines)


# ---------------------------------------------------------------- eval


def _cmd_eval(args: argparse.Namespace, cfg: Config) -> int:
    _no_latex(cfg, "eval")
    family = _family(args.family)
    lam = _weight(args.a, args.b)

    if args.grid is not None:
        from . import transforms

        field = transforms.sample_on_grid(family, lam, args.grid)
        if cfg.fmt == "json":
            _emit(transforms.field_to_json(field), args.out)
        elif cfg.fmt == "csv":
            _emit(transforms.field_to_csv(field), args.out)
        else:
            _emit(_field_text(field), args.out)
        return 0

    if args.point is None:
        raise UsageError("eval needs either a point (x1 x2) or --grid M")
    p = Point(_coord(args.point[0]), _coord(args.point[1]))
    fv = evaluate(family, lam, p)
    if cfg.fmt == "json":
        payload = json.dumps(
            {
                "family": family.tag,
                "weight": [lam.a, lam.b],
                "point": [str(p.x1), str(p.x2)],
                "value": {"re": fv.value.real, "im": fv.value.imag},
                "renormalized": fv.renormalized,
                "admissible": fv.admissible,
            },
            indent=2,
        )
    elif cfg.fmt == "csv":
        payload = (
            "family,a,b,x1,x2,re,im,renormalized,admissible\n"
            f"{family.tag},{lam.a},{lam.b},{p.x1},{p.x2},"
            f"{fv.value.real:.17g},{fv.value.imag:.17g},"
            f"{fv.renormalized:.17g},{fv.admissible}\n"
        )
    else:
        payload = (
            f"{family.tag}_({lam.a},{lam.b}) at ({p.x1}, {p.x2})\n"
            f"value        = {fv.value.real:.12g} {fv.value.imag:+.12g}j\n"
            f"renormalized = {fv.renormalized:.12g}\n"
            f"admissible   = {fv.admissible}"
        )
    _emit(payload, args.out)
    return 0


# ---------------------------------------------------------------- transform


def _cmd_transform(args: argparse.Namespace, cfg: Config) -> int:
    import numpy as np

    from . import transforms

    _no_latex(cfg, "transform")
    family = _family(args.family)
    M = args.M

    if args.forward:
        field = _read_field(args.forward, family, M)
        vec = transforms.forward(family, M, field)
        if cfg.fmt == "json":
            _emit(transforms.coefficients_to_json(vec), args.out)
        elif cfg.fmt == "csv":
            _emit(transforms.coefficients_to_csv(vec), args.out)
        else:
            _emit(_coeff_text(vec), args.out)
        if args.roundtrip:
            back = transforms.inverse(family, M, vec)
            mask = transforms.support_mask(family, M)
            err = float(np.max(np.abs((back.values - field.values) * mask), initial=0.0))
            print(f"roundtrip max abs error (on support) = {err:.3e}")
            return 0 if err <= cfg.tol else 1
        return 0

    vec = _read_coefficients(args.inverse, family, M)
    field = transforms.inverse(family, M, vec)
    if cfg.fmt == "json":
        _emit(transforms.field_to_json(field), args.out)
    elif cfg.fmt == "csv":
        _emit(transforms.field_to_csv(field), args.out)
    else:
        _emit(_field_text(field), args.out)
    if args.roundtrip:
        back = transforms.forward(family, M, field)
        err = float(np.max(np.abs(back.values - vec.values), initial=0.0))
        print(f"roundtrip max abs error = {err:.3e}")
        return 0 if err <= cfg.tol else 1
    return 0


# ---------------------------------------------------------------- decompose


def _orbit_sum_payload(osum, cfg: Config) -> str:
    if cfg.fmt == "json":
        return osum.to_json()
    if cfg.fmt == "latex":
        return osum.pretty(latex=True)
    if cfg.fmt == "csv":
        lines = ["family,a,b,coefficient"]
        for w, c in osum.sorted_terms():
            lines.append(f"{osum.family.tag},{w.a},{w.b},{c}")
        return "\n".join(lines) + "\n"
    return osum.pretty()


def _cmd_decompose(args: argparse.Namespace, cfg: Config) -> int:
    fam_a = _family(args.family_a)
    lam_a = _weight(args.a_a, args.b_a)
    fam_b = _family(args.family_b)
    lam_b = _weight(args.a_b, args.b_b)

    if args.check is not None and args.check < 1:
        raise UsageError(f"--check needs a positive number of points, got {args.check}")
    osum = expand_product(fam_a, lam_a, fam_b, lam_b)
    lhs = (
        f"{fam_a.tag}_({lam_a.a},{lam_a.b}) * {fam_b.tag}_({lam_b.a},{lam_b.b})"
    )
    if cfg.fmt == "text":
        _emit(f"{lhs} = {osum.pretty()}", args.out)
    else:
        _emit(_orbit_sum_payload(osum, cfg), args.out)

    if args.check:
        err = product_check(
            fam_a, lam_a, fam_b, lam_b, osum, n=args.check, seed=cfg.seed
        )
        print(f"numeric check over {args.check} random points: "
              f"max relative error = {err:.3e}")
        return 0 if err <= cfg.tol else 1
    return 0


# ---------------------------------------------------------------- tables


def _cmd_tables(args: argparse.Namespace, cfg: Config) -> int:
    if args.rational:
        _no_latex(cfg, "tables --rational")
        table = rational_table()
        if cfg.fmt == "json":
            payload = json.dumps(
                {
                    "columns": [
                        {"M": kp.M, "kac": [kp.s0, kp.s1, kp.s2]}
                        for kp in table.columns
                    ],
                    "rows": {label: list(vals) for label, vals in table.rows},
                },
                indent=2,
            )
        elif cfg.fmt == "csv":
            payload = table.to_csv()
        else:
            head = "function".ljust(10) + "".join(
                f"[{kp.s0},{kp.s1},{kp.s2}]/{kp.M}".rjust(12) for kp in table.columns
            )
            lines = [head]
            for label, vals in table.rows:
                lines.append(label.ljust(10) + "".join(f"{v:12d}" for v in vals))
            payload = "\n".join(lines)
        _emit(payload, args.out)
        return 0

    if args.grid is not None:
        _no_latex(cfg, "tables --grid")
        grid = grid_points(args.grid)
        if cfg.fmt == "json":
            payload = grid_to_json(grid)
        elif cfg.fmt == "csv":
            lines = ["s0,s1,s2,x1,x2,weight"]
            for kp, c in zip(grid.points, grid.weights):
                p = kp.point()
                lines.append(f"{kp.s0},{kp.s1},{kp.s2},{p.x1},{p.x2},{c}")
            payload = "\n".join(lines) + "\n"
        else:
            lines = [f"grid of level M={grid.M}: {len(grid)} points, "
                     f"total weight {sum(grid.weights)}"]
            lines.append("s0 s1 s2  weight")
            for kp, c in zip(grid.points, grid.weights):
                lines.append(f"{kp.s0:2d} {kp.s1:2d} {kp.s2:2d}  {c:2d}")
            payload = "\n".join(lines)
        _emit(payload, args.out)
        return 0

    if args.spectrum is not None:
        _no_latex(cfg, "tables --spectrum")
        family = _family(args.spectrum[0])
        M = int(args.spectrum[1])
        sp = spectrum(family, M)
        if cfg.fmt == "json":
            payload = json.dumps(
                {
                    "family": family.tag,
                    "M": M,
                    "entries": [
                        {
                            "weight": [e.weight.a, e.weight.b],
                            "h": str(e.h),
                            "norm": str(12 * M * M * e.h),
                        }
                        for e in sp.entries
                    ],
                },
                indent=2,
            )
        elif cfg.fmt == "csv":
            lines = ["a,b,h,norm"]
            for e in sp.entries:
                lines.append(f"{e.weight.a},{e.weight.b},{e.h},{12 * M * M * e.h}")
            payload = "\n".join(lines) + "\n"
        else:
            lines = [f"spectrum of {family.tag} at level M={M}: "
                     f"{len(sp.entries)} weights"]
            lines.append(" a  b     h      norm")
            for e in sp.entries:
                lines.append(
                    f"{e.weight.a:2d} {e.weight.b:2d}  {str(e.h):>5s}  "
                    f"{str(12 * M * M * e.h):>8s}"
                )
            payload = "\n".join(lines)
        _emit(payload, args.out)
        return 0

    if args.char is not None:
        variant = args.char[0]
        if variant not in ("full", "L", "S"):
            raise UsageError(f"character variant must be full, L or S, got {variant!r}")
        lam = _weight(args.char[1], args.char[2])
        osum = expand_char_in_C(variant, lam)
        name = {"full": "chi", "L": "chi^L", "S": "chi^S"}[variant]
        if cfg.fmt == "text":
            _emit(f"{name}_({lam.a},{lam.b}) = {osum.pretty()}", args.out)
        else:
            _emit(_orbit_sum_payload(osum, cfg), args.out)
        return 0

    raise UsageError(
        "tables needs one of --rational, --grid M, --spectrum FAMILY M, "
        "--char VARIANT a b"
    )


# ---------------------------------------------------------------- efo


def _cmd_efo(args: argparse.Namespace, cfg: Config) -> int:
    _no_latex(cfg, "efo")
    classes = enumerate_efo(args.M)
    flags = [is_rational(e) for e in classes]
    if args.rational_only:
        pairs = [(e, True) for e, r in zip(classes, flags) if r]
    else:
        pairs = list(zip(classes, flags))

    if cfg.fmt == "json":
        payload = json.dumps(
            [
                {"kac": [e.kac.s0, e.kac.s1, e.kac.s2], "order": e.order,
                 "rational": r}
                for e, r in pairs
            ],
            indent=2,
        )
    elif cfg.fmt == "csv":
        lines = ["s0,s1,s2,order,rational"]
        for e, r in pairs:
            lines.append(f"{e.kac.s0},{e.kac.s1},{e.kac.s2},{e.order},{r}")
        payload = "\n".join(lines) + "\n"
    else:
        lines = [f"classes of elements of order exactly {args.M}: {len(pairs)}"]
        lines.append("s0 s1 s2  rational")
        for e, r in pairs:
            lines.append(
                f"{e.kac.s0:2d} {e.kac.s1:2d} {e.kac.s2:2d}  {'yes' if r else 'no'}"
            )
        payload = "\n".join(lines)
    _emit(payload, args.out)
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
                           help="field file (json or csv) to analyze")
    direction.add_argument("--inverse", metavar="FILE",
                           help="coefficient file (json or csv) to synthesize")
    p_tr.add_argument("--roundtrip", action="store_true",
                      help="apply the opposite transform and report the error")

    p_dec = sub.add_parser(
        "decompose", parents=[common],
        help="expand a product of two orbit functions",
    )
    p_dec.add_argument("family_a")
    p_dec.add_argument("a_a")
    p_dec.add_argument("b_a")
    p_dec.add_argument("family_b")
    p_dec.add_argument("a_b")
    p_dec.add_argument("b_b")
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
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = Config(fmt=args.fmt, tol=args.tol, seed=args.seed)
        if getattr(args, "point", None) is not None and len(args.point) not in (0, 2):
            raise UsageError("a point needs exactly two coordinates")
        if getattr(args, "point", None) == []:
            args.point = None
        return _COMMANDS[args.command](args, cfg)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
