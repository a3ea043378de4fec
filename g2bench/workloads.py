"""Inputs, operations and output checks of the four workloads.

A run is a sequence of sessions; each session is one fresh process
that builds its inputs from (seed, session index), sets up, and then
runs its script of operations once.  Every session of a workload has
the same composition (same levels, same operation mix), so runs with
different seeds measure the same amount of work; the seed picks
families, weights, points, fields and the order.

Why these four (see also BENCHMARK.json): cli-mix is the only place
interpreter start, the CLI import and output rendering count;
transform-cold pays the dense basis build for levels new to the process
(the memory that grows as M^4); transform-warm reuses bases cached in
set-up, so products and container validation dominate; algebra-session
times the exact product, character, inversion and finite-order work
without the ~125 ms import floor of the CLI.

transform-warm runs with ``--workload transform-warm`` and ``all`` but is
not listed in BENCHMARK.json: on a shared two-vCPU host its typical
latency varied most between runs of the same code, and three workloads
leave room for longer runs.  Its per-layer targets (forward and inverse
self time, matmul flops) are still traced on transform-cold and cli-mix.

Operations call g2fun only through module attributes looked up at call
time (``lib.transforms.forward``), so a traced session sees every call.
The timed path never calls ``basis_matrix`` or ``support_mask``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

import oracle

WORKLOADS = ("cli-mix", "transform-cold", "transform-warm", "algebra-session")

ROUNDTRIP_TOL = 1e-9
UNIT_TOL = 1e-9
MATCH_TOL = 1e-9


@dataclass
class Op:
    """One timed operation: its kind, inputs, and the label used by the trace."""

    kind: str
    args: dict
    label: str
    flops: int = 0
    residual: dict = field(default_factory=dict)


class CheckFailed(Exception):
    """An operation's output disagrees with the reference."""


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng([int(k) for k in key])


# ---------------------------------------------------------------- transforms

COLD_LEVELS = tuple(range(24, 121, 16))  # M = 24, 40, ..., 120
WARM_M = 96
WARM_OPS = 4800


def _transform_op(seed: int, session: int, i: int, tag: str, M: int, unit: bool) -> Op:
    n = len(oracle.grid(M))
    spec = oracle.spectrum(tag, M)
    args = {"tag": tag, "M": M, "field_key": (seed, session, i, 7)}
    if unit:
        args["unit"] = spec[int(_rng(seed, session, i, 5).integers(len(spec)))]
    # Two dense products per operation, each 2 * rows * columns flops.
    return Op("transform", args, f"M={M}", flops=2 * 2 * len(spec) * n)


def cold_ops(seed: int, session: int, tiny: bool) -> list[Op]:
    """Every family at every level of COLD_LEVELS, in a seeded order.

    A session is a fresh process, so each (family, M) pair is new to it.
    All sessions have the same composition, so the latencies a run pools
    do not depend on the seed or on how many sessions fit in the run; the
    seed draws the order, the fields and the basis functions checked.
    """
    levels = (6, 9, 12) if tiny else COLD_LEVELS
    pairs = [(tag, M) for M in levels for tag in oracle.FAMILIES]
    order = _rng(seed, 17, session).permutation(len(pairs))
    return [_transform_op(seed, session, i, *pairs[j], unit=True) for i, j in enumerate(order)]


def warm_ops(seed: int, session: int, tiny: bool) -> list[Op]:
    M = 12 if tiny else WARM_M
    count = 40 if tiny else WARM_OPS
    ops = []
    seen = set()
    for r in range(count // 4):
        for j in _rng(seed, session, 19, r).permutation(4):
            tag = oracle.FAMILIES[j]
            ops.append(_transform_op(seed, session, len(ops), tag, M, unit=tag not in seen))
            seen.add(tag)
    return ops


def warm_levels(workload: str, tiny: bool) -> list[int]:
    return [12 if tiny else WARM_M] if workload == "transform-warm" else []


def prepare(op: Op) -> None:
    """Draw the operation's random field just before it runs (not timed)."""
    key = op.args.get("field_key")
    if key is not None:
        op.args["values"] = _rng(*key).standard_normal(len(oracle.grid(op.args["M"])))


def release(op: Op) -> None:
    op.args.pop("values", None)


def run_transform(lib, op: Op):
    a = op.args
    fam = lib.FAMILY[a["tag"]]
    f = lib.transforms.SampledField(a["M"], a["values"], fam)
    d = lib.transforms.forward(fam, a["M"], f)
    back = lib.transforms.inverse(fam, a["M"], d)
    return d, back


def check_transform(lib, op: Op, out) -> None:
    a = op.args
    d, back = out
    tag, M = a["tag"], a["M"]
    spec = oracle.spectrum(tag, M)
    if len(d.values) != len(spec):
        raise CheckFailed(f"{tag} M={M}: {len(d.values)} coefficients, expected {len(spec)}")
    mask = oracle.support_mask(tag, M)
    err = float(np.max(np.abs(np.asarray(back.values) - a["values"])[mask], initial=0.0))
    op.residual["roundtrip"] = err
    if not err <= ROUNDTRIP_TOL:
        raise CheckFailed(f"{tag} M={M}: roundtrip error {err:.3e}")
    if "unit" in a:
        # A sampled basis function must analyse to its unit coefficient.
        x1, x2 = oracle.grid_coords(M)
        basis = oracle.renormalized(tag, a["unit"], x1, x2)
        fam = lib.FAMILY[tag]
        coeffs = lib.transforms.forward(fam, M, lib.transforms.SampledField(M, basis, fam)).values
        want = np.zeros(len(spec))
        want[spec.index(tuple(a["unit"]))] = 1.0
        uerr = float(np.max(np.abs(np.asarray(coeffs) - want), initial=0.0))
        op.residual["unit"] = uerr
        if not uerr <= UNIT_TOL:
            raise CheckFailed(f"{tag} M={M}: basis {a['unit']} analyses with error {uerr:.3e}")


# ---------------------------------------------------------------- algebra

CHAR_MAX = 12
CHAR_STRIDE = 2
PRODUCT_MAX = 8
PRODUCTS = 400
EFO_MAX = 30
EFO_OPS = 10
INVERT_HEIGHT = 40


def algebra_ops(seed: int, session: int, tiny: bool) -> list[Op]:
    rng = _rng(seed, session, 23)
    cmax = 3 if tiny else CHAR_MAX
    pmax, products = (3, 10) if tiny else (PRODUCT_MAX, PRODUCTS)
    emax, efos = (8, 3) if tiny else (EFO_MAX, EFO_OPS)
    hmax = 15 if tiny else INVERT_HEIGHT
    ops = []
    weights = sorted(
        ((a, b) for a in range(cmax + 1) for b in range(cmax + 1)),
        key=lambda w: (oracle.height(w), w),
    )
    # Every CHAR_STRIDE-th weight in height order, from a phase that turns
    # with the session: the expansions of a session need the same products
    # whatever their order, and every CHAR_STRIDE sessions cover all weights.
    for v, variant in enumerate(oracle.VARIANTS):
        phase = (seed + session + v) % CHAR_STRIDE
        for lam in weights[phase::CHAR_STRIDE]:
            ops.append(Op("char", {"variant": variant, "lam": lam}, f"h={oracle.height(lam)}"))
    for _ in range(products):
        ta, tb = (oracle.FAMILIES[int(k)] for k in rng.integers(4, size=2))
        la = tuple(int(v) for v in rng.integers(pmax + 1, size=2))
        lb = tuple(int(v) for v in rng.integers(pmax + 1, size=2))
        h = oracle.height(la) + oracle.height(lb)
        ops.append(
            Op("product", {"a": (ta, la), "b": (tb, lb), "seed": int(rng.integers(1 << 30))}, f"h={h}")
        )
    for chunk in np.array_split(np.arange(1, emax + 1), efos):
        M = int(rng.choice(chunk))
        ops.append(Op("efo", {"M": M}, f"M={M}"))
    down = [(a, b) for a in range(hmax) for b in range(hmax) if oracle.height((a, b)) <= hmax]
    ops.append(Op("invert", {"weights": down}, f"h<={hmax}"))
    return [ops[int(j)] for j in rng.permutation(len(ops))]


def run_algebra(lib, op: Op):
    a = op.args
    W = lib.Weight
    if op.kind == "char":
        return lib.algebra.expand_char_in_C(a["variant"], W(*a["lam"]))
    if op.kind == "product":
        (ta, la), (tb, lb) = a["a"], a["b"]
        fa, fb = lib.FAMILY[ta], lib.FAMILY[tb]
        osum = lib.algebra.expand_product(fa, W(*la), fb, W(*lb))
        err = lib.algebra.product_check(fa, W(*la), fb, W(*lb), osum, n=10, seed=a["seed"])
        return osum, err
    if op.kind == "efo":
        classes = lib.arith.enumerate_efo(a["M"])
        return [(tuple(e.kac[:3]), lib.arith.is_rational(e)) for e in classes]
    if op.kind == "invert":
        return lib.algebra.invert_char_matrix([W(*w) for w in a["weights"]])
    raise ValueError(f"unknown operation {op.kind!r}")


def _terms(osum) -> dict[tuple[int, int], int]:
    return {(int(w[0]), int(w[1])): int(c) for w, c in osum.terms.items()}


def _char_points(variant: str, seed: int) -> tuple[np.ndarray, np.ndarray, str, tuple]:
    """Two interior points where the variant's denominator is far from zero."""
    tag, shift = oracle.VARIANTS[variant]
    x1, x2 = oracle.interior_points(_rng(seed, 29), 16)
    den = np.abs(oracle.renormalized(tag, shift, x1, x2))
    keep = np.argsort(-den)[:2]
    return x1[keep], x2[keep], tag, shift


def check_char(variant: str, lam, terms: dict, seed: int) -> None:
    if any(c == 0 or min(w) < 0 for w, c in terms.items()):
        raise CheckFailed(f"chi{variant}{lam}: zero or nondominant term")
    if variant == "full":
        total = sum(c * oracle.orbit_size(w) for w, c in terms.items())
        if total != oracle.dimension(lam):
            raise CheckFailed(f"chi{lam}: sum m*|W mu| = {total}, dimension {oracle.dimension(lam)}")
        return
    x1, x2, tag, shift = _char_points(variant, seed)
    lam_shift = (lam[0] + shift[0], lam[1] + shift[1])
    ratio = oracle.renormalized(tag, lam_shift, x1, x2) / oracle.renormalized(tag, shift, x1, x2)
    expansion = oracle.sum_values("C", terms, x1, x2).real
    scale = max(1.0, sum(abs(c) * oracle.orbit_size(w) for w, c in terms.items()))
    err = float(np.max(np.abs(ratio - expansion))) / scale
    if not err <= MATCH_TOL:
        raise CheckFailed(f"chi{variant}{lam}: expansion differs from the ratio by {err:.3e}")


def check_product(ta, la, tb, lb, family_tag: str, terms: dict, seed: int) -> None:
    if family_tag != oracle.target_family(ta, tb):
        raise CheckFailed(f"{ta}{la}*{tb}{lb}: family {family_tag}")
    x1, x2 = oracle.interior_points(_rng(seed, 31), 2)
    lhs = oracle.orbit_values(ta, la, x1, x2) * oracle.orbit_values(tb, lb, x1, x2)
    rhs = oracle.sum_values(family_tag, terms, x1, x2)
    scale = max(1.0, sum(abs(c) * oracle.orbit_size(w) for w, c in terms.items()))
    err = float(np.max(np.abs(lhs - rhs))) / scale
    if not err <= MATCH_TOL:
        raise CheckFailed(f"{ta}{la}*{tb}{lb}: expansion off by {err:.3e}")


def check_efo(M: int, pairs) -> None:
    want = oracle.efo_classes(M)
    got = [k for k, _ in pairs]
    if got != want:
        raise CheckFailed(f"efo {M}: {len(got)} classes, expected {len(want)}")
    for kac, flag in pairs:
        if bool(flag) != oracle.is_rational_class(kac, M):
            raise CheckFailed(f"efo {M}: class {kac} rational={flag}")


def check_invert(weights, inv) -> None:
    # sum_lam c_lam * chi_lam = C_mu, evaluated at the identity element.
    for mu in weights:
        total = sum(c * oracle.dimension(tuple(lam)) for lam, c in inv[mu].items())
        if total != oracle.orbit_size(mu):
            raise CheckFailed(f"inverse column {mu}: {total} != |W mu| = {oracle.orbit_size(mu)}")


def check_algebra(lib, op: Op, out) -> None:
    a = op.args
    if op.kind == "char":
        if out.family.tag != "C":
            raise CheckFailed(f"character expansion in family {out.family.tag}")
        check_char(a["variant"], a["lam"], _terms(out), 100 * a["lam"][0] + a["lam"][1])
    elif op.kind == "product":
        osum, err = out
        op.residual["product_check"] = float(err)
        if not err <= MATCH_TOL:
            raise CheckFailed(f"product_check reports {err:.3e}")
        (ta, la), (tb, lb) = a["a"], a["b"]
        check_product(ta, la, tb, lb, osum.family.tag, _terms(osum), a["seed"])
    elif op.kind == "efo":
        check_efo(a["M"], out)
    elif op.kind == "invert":
        check_invert([lib.Weight(*w) for w in a["weights"]], out)


def run_op(lib, op: Op):
    return run_transform(lib, op) if op.kind == "transform" else run_algebra(lib, op)


def check_op(lib, op: Op, out) -> None:
    if op.kind == "transform":
        check_transform(lib, op, out)
    else:
        check_algebra(lib, op, out)


# ---------------------------------------------------------------- cli-mix

CLI_KINDS = (
    "eval", "eval-grid", "transform-fwd", "transform-inv",
    "decompose", "tables-rational", "tables-char", "efo",
)
CLI_ROUNDS = 2  # rounds per session, one request of every kind each
CLI_MAX_M = 60


def _frac(rng) -> Fraction:
    return Fraction(int(rng.integers(1, 50)), int(rng.integers(51, 200)))


def _cli_request(rng, kind: str, workdir, lib, name: str, tiny: bool) -> Op:
    """Argument vector plus the expected output, computed with the library."""
    W = lib.Weight
    max_m = 12 if tiny else CLI_MAX_M
    tag = oracle.FAMILIES[int(rng.integers(4))]
    fam = lib.FAMILY[tag]
    lam = tuple(int(v) for v in rng.integers(6, size=2))
    if kind == "eval":
        x = (_frac(rng), _frac(rng))
        fv = lib.orbitfn.evaluate(fam, W(*lam), lib.Point(*x))
        argv = ["eval", tag, *map(str, lam), str(x[0]), str(x[1]), "--format", "json"]
        ref = oracle.orbit_values(tag, lam, float(x[0]), float(x[1]))
        exp = {"value": [fv.value.real, fv.value.imag], "oracle": [float(ref.real), float(ref.imag)]}
        return Op("cli", {"kind": kind, "argv": argv, "expect": exp}, kind)
    if kind == "eval-grid":
        M = int(rng.integers(3, max_m + 1))
        fmt = ("json", "csv")[int(rng.integers(2))]
        vals = lib.transforms.sample_on_grid(fam, W(*lam), M).values
        x1, x2 = oracle.grid_coords(M)
        exp = {"values": [float(v) for v in vals],
               "oracle": [float(v) for v in oracle.renormalized(tag, lam, x1, x2)]}
        argv = ["eval", tag, *map(str, lam), "--grid", str(M), "--format", fmt]
        return Op("cli", {"kind": kind, "argv": argv, "expect": exp, "fmt": fmt}, kind)
    if kind in ("transform-fwd", "transform-inv"):
        M = int(rng.integers(3, max_m + 1))
        fmt = ("json", "csv")[int(rng.integers(2))]
        path = workdir / f"{name}.{fmt}"
        if kind == "transform-fwd":
            values = rng.standard_normal(len(oracle.grid(M)))
            _write_field(path, fmt, tag, M, values)
            field_ = lib.transforms.SampledField(M, values, fam)
            want = lib.transforms.forward(fam, M, field_).values
            flag = "--forward"
        else:
            spec = oracle.spectrum(tag, M)
            values = rng.standard_normal(len(spec))
            _write_coefficients(path, fmt, tag, M, spec, values)
            vec = lib.transforms.CoefficientVector(fam, M, values)
            want = lib.transforms.inverse(fam, M, vec).values
            flag = "--inverse"
        argv = ["transform", tag, str(M), flag, str(path), "--roundtrip", "--format", "json"]
        exp = {"values": [float(v) for v in want]}
        spec_n = len(oracle.spectrum(tag, M))
        op = Op("cli", {"kind": kind, "argv": argv, "expect": exp}, f"M={M}")
        op.flops = 2 * 2 * spec_n * len(oracle.grid(M))
        return op
    if kind == "decompose":
        tb = oracle.FAMILIES[int(rng.integers(4))]
        lb = tuple(int(v) for v in rng.integers(6, size=2))
        osum = lib.algebra.expand_product(fam, W(*lam), lib.FAMILY[tb], W(*lb))
        check_product(tag, lam, tb, lb, osum.family.tag, _terms(osum), 0)
        argv = ["decompose", tag, *map(str, lam), tb, *map(str, lb), "--check", "10", "--format", "json"]
        return Op("cli", {"kind": kind, "argv": argv, "expect": json.loads(osum.to_json())}, kind)
    if kind == "tables-rational":
        fmt = ("json", "csv")[int(rng.integers(2))]
        table = lib.arith.rational_table()
        if fmt == "csv":
            exp = table.to_csv()
        else:
            exp = {"columns": [[kp.M, kp.s0, kp.s1, kp.s2] for kp in table.columns],
                   "rows": {label: list(v) for label, v in table.rows}}
        return Op("cli", {"kind": kind, "argv": ["tables", "--rational", "--format", fmt],
                          "expect": exp, "fmt": fmt}, kind)
    if kind == "tables-char":
        variant = tuple(oracle.VARIANTS)[int(rng.integers(3))]
        cmax = 3 if tiny else 8
        lam = tuple(int(v) for v in rng.integers(cmax + 1, size=2))
        osum = lib.algebra.expand_char_in_C(variant, W(*lam))
        check_char(variant, lam, _terms(osum), 0)
        argv = ["tables", "--char", variant, *map(str, lam)]
        return Op("cli", {"kind": kind, "argv": argv, "expect": osum.pretty()}, kind)
    if kind == "efo":
        M = int(rng.integers(1, (12 if tiny else 30) + 1))
        pairs = [(tuple(e.kac[:3]), lib.arith.is_rational(e)) for e in lib.arith.enumerate_efo(M)]
        check_efo(M, pairs)
        exp = [[list(k), M, bool(r)] for k, r in pairs]
        return Op("cli", {"kind": kind, "argv": ["efo", str(M), "--format", "json"], "expect": exp}, f"M={M}")
    raise ValueError(f"unknown CLI request kind {kind!r}")


def _write_field(path, fmt: str, tag: str, M: int, values) -> None:
    if fmt == "json":
        path.write_text(json.dumps({"M": M, "family": tag, "values": [float(v) for v in values]}))
        return
    lines = ["s0,s1,s2,x1,x2,value"]
    for (s0, s1, s2), v in zip(oracle.grid(M), values):
        lines.append(f"{s0},{s1},{s2},{s1 / M!r},{s2 / M!r},{float(v)!r}")
    path.write_text("\n".join(lines) + "\n")


def _write_coefficients(path, fmt: str, tag: str, M: int, spec, values) -> None:
    if fmt == "json":
        path.write_text(json.dumps({"M": M, "family": tag, "values": [float(v) for v in values]}))
        return
    lines = ["a,b,value"] + [f"{a},{b},{float(v)!r}" for (a, b), v in zip(spec, values)]
    path.write_text("\n".join(lines) + "\n")


def cli_ops(seed: int, session: int, tiny: bool, lib, workdir) -> list[Op]:
    rng = _rng(seed, session, 37)
    ops = []
    for r in range(1 if tiny else CLI_ROUNDS):
        for j in rng.permutation(len(CLI_KINDS)):
            ops.append(_cli_request(rng, CLI_KINDS[j], workdir, lib, f"r{r}k{j}", tiny))
    return ops


def _close(got, want, tol: float = 1e-12) -> bool:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    return got.shape == want.shape and bool(np.all(np.abs(got - want) <= tol * np.maximum(1.0, np.abs(want))))


def _csv_column(text: str, column: str) -> list[float]:
    lines = text.strip().splitlines()
    idx = lines[0].split(",").index(column)
    return [float(line.split(",")[idx]) for line in lines[1:]]


def check_cli(op: Op, out: tuple[int, str]) -> None:
    """Compare one CLI response (exit code, stdout) with the library result from setup."""
    rc, stdout = out
    a = op.args
    kind, exp = a["kind"], a["expect"]
    if rc != 0:
        raise CheckFailed(f"{' '.join(a['argv'])}: exit code {rc}")
    if kind == "eval":
        v = json.loads(stdout)["value"]
        got = [v["re"], v["im"]]
        if got != exp["value"] or not _close(got, exp["oracle"], MATCH_TOL):
            raise CheckFailed(f"eval: {got} != {exp['value']}")
    elif kind == "eval-grid":
        got = json.loads(stdout)["values"] if a["fmt"] == "json" else _csv_column(stdout, "value")
        if not _close(got, exp["values"]) or not _close(got, exp["oracle"], MATCH_TOL):
            raise CheckFailed("eval --grid: values differ")
    elif kind in ("transform-fwd", "transform-inv"):
        body, _, tail = stdout.rpartition("roundtrip max abs error")
        got = json.loads(body)["values"]
        if not _close(got, exp["values"]):
            raise CheckFailed(f"{kind}: values differ from the library")
        err = float(tail.rsplit("=", 1)[1])
        op.residual["roundtrip"] = err
        if not err <= ROUNDTRIP_TOL:
            raise CheckFailed(f"{kind}: roundtrip {err:.3e}")
    elif kind == "decompose":
        body, _, tail = stdout.rpartition("numeric check")
        if json.loads(body) != exp:
            raise CheckFailed("decompose: terms differ from the library")
        err = float(tail.rsplit("=", 1)[1])
        op.residual["product_check"] = err
        if not err <= MATCH_TOL:
            raise CheckFailed(f"decompose: check {err:.3e}")
    elif kind == "tables-rational":
        if a["fmt"] == "csv":
            ok = stdout == exp
        else:
            data = json.loads(stdout)
            cols = [[c["M"], *c["kac"]] for c in data["columns"]]
            ok = cols == exp["columns"] and data["rows"] == exp["rows"]
        if not ok:
            raise CheckFailed("tables --rational: table differs")
    elif kind == "tables-char":
        if stdout.strip().split(" = ", 1)[-1] != exp:
            raise CheckFailed("tables --char: expansion differs")
    elif kind == "efo":
        got = [[e["kac"], e["order"], e["rational"]] for e in json.loads(stdout)]
        if got != exp:
            raise CheckFailed("efo: classes differ")
    else:
        raise CheckFailed(f"unknown request kind {kind!r}")
