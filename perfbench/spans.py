"""Span tracer for the traced benchmark run.

Wrappers are installed around the public functions of each qident layer,
in every module namespace that looks the name up (``from x import f``
copies the binding, so ``qident.products.inv_poch_table`` and
``qident.nahm.inv_poch_table`` are patched separately), and on the
``QSeries`` and ``Catalog`` classes for operators and methods.  Each call
records one span ``(name, start, end, parent)`` in memory; self time is the
span's duration minus the time covered by its direct children.  Nothing is
installed unless a :class:`Tracer` is entered, so untraced runs execute the
library unmodified.
"""

from __future__ import annotations

import functools
import math
import sys
from bisect import bisect_right
from collections import defaultdict
from time import perf_counter

# (span name, module, attribute); "Class.attr" patches a class attribute.
TRACED = (
    ("series.mul", "qident.series", "QSeries.__mul__"),
    ("series.add", "qident.series", "QSeries.__add__"),
    ("series.invert_unit", "qident.series", "invert_unit"),
    ("series.mul_inv_one_minus", "qident.series", "mul_inv_one_minus"),
    ("series.compare", "qident.series", "compare_up_to"),
    ("series.dump", "qident.series", "dump"),
    ("products.poch_infinite", "qident.products", "poch_infinite"),
    ("products.eval_product", "qident.products", "eval_product"),
    ("products.inv_poch_table", "qident.products", "inv_poch_table"),
    ("products.poch_table", "qident.products", "poch_table"),
    ("nahm.lattice_bound", "qident.nahm", "lattice_bound"),
    ("nahm.enumerate", "qident.nahm", "multi_sum"),
    ("nahm.enumerate", "qident.nahm", "nahm_sum"),
    ("bailey.verify_pair", "qident.bailey", "verify_pair"),
    ("bailey.apply_transform", "qident.bailey", "apply_transform"),
    ("catalog.resolve", "qident.catalog", "Catalog.resolve"),
    ("catalog.verify", "qident.catalog", "Catalog.verify"),
)

# modules whose globals are scanned for bindings of the traced functions
NAMESPACES = ("qident", "qident.series", "qident.products", "qident.nahm",
              "qident.bailey", "qident.catalog")

COUNTED = ("series.mul", "series.add", "series.invert_unit",
           "series.mul_inv_one_minus", "series.compare", "series.dump",
           "products.poch_infinite", "products.eval_product",
           "products.inv_poch_table", "products.poch_table")
TIMED = COUNTED + ("nahm.lattice_bound", "nahm.enumerate",
                   "bailey.verify_pair", "bailey.apply_transform",
                   "catalog.resolve", "catalog.verify")


def _mul_pairs(a, b, out) -> int:
    """Coefficient products ``QSeries.__mul__`` forms for ``out = a * b``.

    Mirrors the kernel's loop: the shorter operand drives, and each row stops
    at the first exponent sum beyond the product's validity, which is
    ``out.order_num``.  A scalar or monomial factor forms no products.
    """
    if not hasattr(b, "terms"):
        return 0
    ka, kb = sorted(a.terms), sorted(b.terms)
    if len(ka) > len(kb):
        ka, kb = kb, ka
    onum = out.order_num
    if onum is None:
        return len(ka) * len(kb)
    return sum(bisect_right(kb, onum - n) for n in ka)


class Tracer:
    """Context manager that installs the span wrappers and removes them."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.active: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self._undo: list = []

    # -- installation ---------------------------------------------------------

    def __enter__(self) -> "Tracer":
        wrapped = {}
        for name, modname, attr in TRACED:
            owner = sys.modules[modname]
            cls_name, _, fn_name = attr.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name)
                fn = cls.__dict__[fn_name]
                self._patch(cls, fn_name, self._wrap(name, fn))
                if fn_name == "__add__":
                    self._patch(cls, "__radd__", getattr(cls, fn_name))
            else:
                fn = getattr(owner, fn_name)
                wrapped[id(fn)] = self._wrap(name, fn)  # fn stays alive
        for modname in NAMESPACES:
            mod = sys.modules[modname]
            for key, value in list(vars(mod).items()):
                if id(value) in wrapped:
                    self._patch(mod, key, wrapped[id(value)])
        return self

    def __exit__(self, *exc) -> None:
        for owner, key, old in reversed(self._undo):
            setattr(owner, key, old)
        self._undo.clear()

    def _patch(self, owner, key, new) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, new)

    def _wrap(self, name: str, fn):
        layer = name.partition(".")[0]
        spans, stack, active = self.spans, self.stack, self.active
        hook = {"series.mul": self._count_mul,
                "nahm.lattice_bound": self._count_box}.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            active[layer] += 1
            active[name] += 1
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                if hook is not None:
                    hook(args, out)
                return out
            finally:
                t1 = perf_counter()
                active[name] -= 1
                active[layer] -= 1
                stack.pop()
                spans[idx] = (name, t0, t1, parent)

        return wrapper

    # -- counters (run inside the span they describe) --------------------------

    def _count_mul(self, args, out) -> None:
        c = self.counts
        c["pairs"] += _mul_pairs(*args, out)
        c["terms_out"] += len(out.terms)
        c["frac_terms"] += sum(1 for v in out.terms.values()
                               if v.denominator != 1)
        if self.active["nahm"]:
            c["nahm_mul"] += 1

    def _count_box(self, args, out) -> None:
        # only the enumerator's own box; Catalog.verify re-derives it for
        # its report, which is not enumeration work
        if self.active["nahm.enumerate"]:
            self.counts["box_points"] += math.prod(m + 1 for m in out)

    # -- results ----------------------------------------------------------------

    def self_times(self) -> tuple[dict[str, int], dict[str, float]]:
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for i, (name, t0, t1, parent) in enumerate(self.spans):
            calls[name] += 1
            total[name] += (t1 - t0) - child[i]
        return calls, total

    def metrics(self) -> dict[str, float]:
        calls, self_s = self.self_times()
        c = self.counts
        out: dict[str, float] = {}
        for name in COUNTED:
            out[f"{name}.calls"] = calls[name]
        for name in TIMED:
            out[f"{name}.self_s"] = self_s[name]
        out["series.mul.pairs"] = c["pairs"]
        out["series.mul.terms_out"] = c["terms_out"]
        out["series.frac_share"] = (c["frac_terms"] / c["terms_out"]
                                    if c["terms_out"] else 0.0)
        out["nahm.box_points"] = c["box_points"]
        out["nahm.mul_calls"] = c["nahm_mul"]
        out["nahm.mul_per_box_point"] = (c["nahm_mul"] / c["box_points"]
                                         if c["box_points"] else 0.0)
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart\tend\tparent\n")
            for i, (name, t0, t1, parent) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{t0:.9f}\t{t1:.9f}\t{parent}\n")
