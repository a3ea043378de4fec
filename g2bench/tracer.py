"""In-memory span tracer installed from outside the program.

Spans are recorded around public names of g2fun by rebinding every
module attribute that refers to the same function object, so a call is
seen whichever module it is bound in (``transforms.sample_values``,
``algebra.signed_orbit``, ...).  A name that is missing from the
program is reported with zero calls instead of failing.

Self time is a span's duration minus the time covered by its direct
children; with one thread spans nest, so the children's durations can
simply be summed.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# span name -> (home module, attribute, extra counter)
TARGETS = {
    "transforms.forward": ("g2fun.transforms", "forward", None),
    "transforms.inverse": ("g2fun.transforms", "inverse", None),
    "transforms.basis_matrix": ("g2fun.transforms", "basis_matrix", None),
    "orbitfn.sample_values": ("g2fun.orbitfn", "sample_values", "points"),
    "lattice.grid_points": ("g2fun.lattice", "grid_points", None),
    "lattice.spectrum": ("g2fun.lattice", "spectrum", None),
    "algebra.expand_char_in_C": ("g2fun.algebra", "expand_char_in_C", None),
    "algebra.expand_product": ("g2fun.algebra", "expand_product", None),
    "algebra.invert_char_matrix": ("g2fun.algebra", "invert_char_matrix", None),
    "algebra.product_check": ("g2fun.algebra", "product_check", None),
    "rootsys.signed_orbit": ("g2fun.rootsys", "signed_orbit", None),
    "rootsys.fold_to_F": ("g2fun.rootsys", "fold_to_F", None),
    "orbitfn.evaluate": ("g2fun.orbitfn", "evaluate", None),
    "arith.is_rational": ("g2fun.arith", "is_rational", None),
    "arith.power_class": ("g2fun.arith", "power_class", None),
    "arith.enumerate_efo": ("g2fun.arith", "enumerate_efo", None),
}

# Cached functions whose hit ratio is read from cache_info() when present.
CACHED = ("transforms.basis_matrix",)


def _points(args) -> int:
    # sample_values(family, lam, x1, x2): the number of points evaluated.
    try:
        return len(args[2])
    except (IndexError, TypeError):
        return 0


class Tracer:
    """Spans of one process, kept in memory until `dump`."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.stack: list[list] = []  # [span index, child time]
        self.op_id = -1
        self.op_label = ""
        self.stats: dict[str, list[float]] = {n: [0, 0.0, 0] for n in TARGETS}
        self.by_label: dict[tuple[str, str], float] = {}
        self.missing: list[str] = []
        self.originals: dict[str, object] = {}
        self.cache_at_op: dict[str, tuple[int, int]] = {}
        self.cache_delta: dict[str, list[int]] = {}
        self.active = False  # calls outside timed operations are not recorded

    # -- recording ---------------------------------------------------------

    def begin(self, name: str) -> None:
        parent = self.stack[-1][0] if self.stack else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent, self.op_id))
        self.stack.append([len(self.spans) - 1, 0.0])

    def end(self, extra: int = 0) -> float:
        idx, child = self.stack.pop()
        name, start, _, parent, op = self.spans[idx]
        stop = time.perf_counter()
        self.spans[idx] = (name, start, stop, parent, op)
        dur = stop - start
        if self.stack:
            self.stack[-1][1] += dur
        self_s = dur - child
        st = self.stats.setdefault(name, [0, 0.0, 0])
        st[0] += 1
        st[1] += self_s
        st[2] += extra
        key = (name, self.op_label)
        self.by_label[key] = self.by_label.get(key, 0.0) + self_s
        return dur

    def start_op(self, op_id: int, label: str, kind: str) -> None:
        self.op_id = op_id
        self.op_label = label
        self.cache_at_op = self._cache_totals()
        self.begin("op." + kind)

    def end_op(self) -> float:
        dur = self.end()
        # cache_info() counts every call; keep only those inside operations
        for name, (h, m) in self._cache_totals().items():
            h0, m0 = self.cache_at_op.get(name, (h, m))
            acc = self.cache_delta.setdefault(name, [0, 0])
            acc[0] += h - h0
            acc[1] += m - m0
        return dur

    # -- installation ------------------------------------------------------

    def _wrap(self, name: str, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.begin(name)
            extra = _points(args) if counter == "points" else 0
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(extra)

        return traced

    def install(self) -> None:
        """Rebind each target in every loaded g2fun module that holds it."""
        for name, (module, attr, counter) in TARGETS.items():
            try:
                home = importlib.import_module(module)
            except ImportError:
                self.missing.append(name)
                continue
            fn = getattr(home, attr, None)
            if not callable(fn):
                self.missing.append(name)
                continue
            self.originals[name] = fn
            wrapped = self._wrap(name, fn, counter)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "g2fun" or mod_name.startswith("g2fun.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapped)

    def _cache_totals(self) -> dict[str, tuple[int, int]]:
        out = {}
        for name in CACHED:
            info = getattr(self.originals.get(name), "cache_info", None)
            if info is not None:
                ci = info()
                out[name] = (ci.hits, ci.misses)
        return out

    # -- output --------------------------------------------------------------

    def summary(self) -> dict:
        return {
            "stats": {n: [int(c), s * 1e3, int(x)] for n, (c, s, x) in self.stats.items()},
            "by_label": [[n, lab, s * 1e3] for (n, lab), s in self.by_label.items()],
            "cache": {n: list(v) for n, v in self.cache_delta.items()},
            "missing": self.missing,
        }

    def rows(self, t0: float) -> list[list]:
        """Spans as [name, start_ms, end_ms, parent index, operation id]."""
        return [
            [name, round((start - t0) * 1e3, 4), round((stop - t0) * 1e3, 4), parent, op]
            for name, start, stop, parent, op in self.spans
        ]


def dump(path, rows) -> None:
    """Write span rows as tab-separated values."""
    with open(path, "w") as fh:
        fh.write("name\tstart_ms\tend_ms\tparent\top\n")
        for row in rows:
            fh.write("\t".join(str(v) for v in row) + "\n")


def merge(summaries: list[dict]) -> dict:
    """Sum per-process summaries into one."""
    stats: dict[str, list] = {n: [0, 0.0, 0] for n in TARGETS}
    by_label: dict[tuple[str, str], float] = {}
    cache: dict[str, list[int]] = {}
    missing: set[str] = set()
    for s in summaries:
        for n, (c, ms, x) in s["stats"].items():
            st = stats.setdefault(n, [0, 0.0, 0])
            st[0] += c
            st[1] += ms
            st[2] += x
        for n, lab, ms in s["by_label"]:
            by_label[(n, lab)] = by_label.get((n, lab), 0.0) + ms
        for n, (h, m) in s["cache"].items():
            acc = cache.setdefault(n, [0, 0])
            acc[0] += h
            acc[1] += m
        missing.update(s["missing"])
    return {
        "stats": stats,
        "by_label": [[n, lab, ms] for (n, lab), ms in by_label.items()],
        "cache": cache,
        "missing": sorted(missing),
    }
