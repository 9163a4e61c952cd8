"""Command line front end.

Subcommands: ``verify`` (batch sum-versus-product checks), ``expand``
(print one side as a coefficient dump), ``list`` (ids, optionally filtered
by tag), and ``bailey`` (pair verification and transform chains).

Machine output is one tab-separated line per item, ``id  PASS|FAIL  order
ms``, stably sorted by id so runs diff cleanly; only the millisecond column
may vary between runs.  Exit status: 0 all checks passed, 1 at least one
mismatch, 2 any error (unknown ids, malformed chains or catalogs, inputs that
cannot be evaluated), reported as one ``qident: error:`` line on stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from typing import Optional, Sequence

from qident.series import DEFAULT_D, deepen_until_valid, dump
from qident.nahm import multi_sum
from qident.products import eval_product_sum
from qident.catalog import Catalog, Identity, VerificationReport, load_catalog
from qident.bailey import pairs_equal, run_chain, verify_pair


def _fmt_exp(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else \
        f"{x.numerator}/{x.denominator}"


def _order_of(args) -> Fraction:
    order = Fraction(args.order)
    if order < 0:
        raise ValueError("order must be nonnegative")
    return order


def _load(args) -> Catalog:
    path = args.catalog or os.environ.get("NAHM_CATALOG")
    return load_catalog(path)


def _usage_error(exc) -> int:
    msg = exc.args[0] if isinstance(exc, KeyError) and exc.args else str(exc)
    print(f"qident: error: {msg}", file=sys.stderr)
    return 2


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--catalog", metavar="PATH", default=None,
                        help="catalog file (default: packaged records, or "
                             "$NAHM_CATALOG when set)")
    common.add_argument("--d-lattice", dest="d_lattice", type=int,
                        default=DEFAULT_D, metavar="D",
                        help="exponent lattice denominator (default %(default)s)")
    common.add_argument("--output", choices=("human", "machine"),
                        default="human", help="report style")
    common.add_argument("--threads", type=int, default=1,
                        help="parallel verification workers")
    common.add_argument("--fail-fast", dest="fail_fast", action="store_true",
                        help="stop at the first failing identity")

    p = argparse.ArgumentParser(
        prog="qident",
        description="exact verification of q-series sum-product identities")
    sub = p.add_subparsers(dest="cmd", required=True)

    pv = sub.add_parser("verify", parents=[common],
                        help="compare sum and product sides to a given order")
    pv.add_argument("ids", nargs="+", metavar="ID",
                    help="identity ids, instance tokens like AG(3,2), a bare "
                         "family name with --k/--i, or 'all'")
    pv.add_argument("--order", default="30", help="truncation order")
    pv.add_argument("--k", type=int, default=None)
    pv.add_argument("--i", type=int, default=None)

    pe = sub.add_parser("expand", parents=[common],
                        help="print one side as an exact coefficient dump")
    pe.add_argument("id", metavar="ID")
    pe.add_argument("--side", choices=("lhs", "rhs"), default="lhs")
    pe.add_argument("--order", default="20")
    pe.add_argument("--k", type=int, default=None)
    pe.add_argument("--i", type=int, default=None)

    pl = sub.add_parser("list", parents=[common],
                        help="list identity ids and family names")
    pl.add_argument("--tag", default=None,
                    help="only fixed ids carrying this tag")

    pb = sub.add_parser("bailey", help="pair verification and chains")
    bsub = pb.add_subparsers(dest="bailey_cmd", required=True)
    bv = bsub.add_parser("verify", parents=[common],
                         help="check the defining relation of a pair")
    bv.add_argument("target", help="builtin pair name or chain expression")
    bv.add_argument("--n", type=int, default=10, metavar="N",
                    help="check indices 0..N (default %(default)s)")
    bv.add_argument("--order", default="40")
    bc = bsub.add_parser("chain", parents=[common],
                         help="apply transform steps to a seed pair")
    bc.add_argument("expr", help="chain expression, e.g. \"G1 |> S3\"")
    bc.add_argument("--equals", default=None, metavar="CHAIN",
                    help="compare against another chain's pair")
    bc.add_argument("--show", default=None, metavar="PARTS",
                    help="comma list from alpha,beta to dump")
    bc.add_argument("--n", type=int, default=5)
    bc.add_argument("--order", default="40")
    return p


# -- verify ---------------------------------------------------------------------

def _resolve_targets(cat: Catalog, args) -> list[Identity]:
    by_id: dict[str, Identity] = {}
    for token in args.ids:
        if token == "all":
            for rid in cat.ids():
                by_id[rid] = cat.get(rid)
            continue
        ident = cat.resolve(token, k=args.k, i=args.i)
        by_id[ident.id] = ident
    return [by_id[rid] for rid in sorted(by_id)]


def _emit_report(rep: VerificationReport, args) -> None:
    ms = int(round(rep.wall_time * 1000))
    if args.output == "machine":
        print(f"{rep.id}\t{rep.status}\t{_fmt_exp(rep.order)}\t{ms}")
        return
    line = (f"{rep.status}  {rep.id}  order {_fmt_exp(rep.order)}"
            f"  box {list(rep.box)}  {ms} ms")
    print(line)
    if rep.first_mismatch is not None:
        m = rep.first_mismatch
        print(f"      first mismatch at q^{_fmt_exp(m.exponent)}: "
              f"sum side {m.left}, product side {m.right}")


def cmd_verify(args) -> int:
    try:
        cat = _load(args)
        order = _order_of(args)
        targets = _resolve_targets(cat, args)
    except (OSError, KeyError, ValueError) as exc:
        return _usage_error(exc)

    def run(ident: Identity) -> VerificationReport:
        return cat.verify(ident, order, den=args.d_lattice)

    try:
        reports: list[VerificationReport] = []
        if args.fail_fast or args.threads <= 1:
            for ident in targets:
                rep = run(ident)
                reports.append(rep)
                if args.fail_fast and not rep.equal:
                    break
        else:
            with ThreadPoolExecutor(max_workers=args.threads) as pool:
                reports = list(pool.map(run, targets))
    except ValueError as exc:
        return _usage_error(exc)
    for rep in reports:
        _emit_report(rep, args)
    return 0 if all(r.equal for r in reports) else 1


# -- expand ---------------------------------------------------------------------

def cmd_expand(args) -> int:
    try:
        cat = _load(args)
        order = _order_of(args)
        ident = cat.resolve(args.id, k=args.k, i=args.i)
    except (OSError, KeyError, ValueError) as exc:
        return _usage_error(exc)
    try:
        if args.side == "lhs":
            series = multi_sum(ident.spec, order, args.d_lattice)
        else:
            series = eval_product_sum(ident.rhs, order, args.d_lattice)
    except ValueError as exc:
        return _usage_error(exc)
    sys.stdout.write(dump(series, order))
    return 0


# -- list -----------------------------------------------------------------------

def cmd_list(args) -> int:
    try:
        cat = _load(args)
    except (OSError, ValueError) as exc:
        return _usage_error(exc)
    for rid in cat.list(args.tag):
        print(rid)
    return 0


# -- bailey ---------------------------------------------------------------------

def cmd_bailey(args) -> int:
    order = None
    try:
        order = _order_of(args)
        pair = run_chain(args.target if args.bailey_cmd == "verify"
                         else args.expr)
    except ValueError as exc:
        return _usage_error(exc)

    if args.bailey_cmd == "verify":
        start = time.perf_counter()
        try:
            report = verify_pair(pair, args.n, order, args.d_lattice)
        except ValueError as exc:
            return _usage_error(exc)
        ms = int(round((time.perf_counter() - start) * 1000))
        status = "PASS" if report.ok else "FAIL"
        if args.output == "machine":
            print(f"{args.target}\t{status}\t{_fmt_exp(order)}\t{ms}")
        else:
            print(f"{status}  {args.target}  n <= {args.n}  "
                  f"order {_fmt_exp(order)}  {ms} ms")
            for n, mism in report.results:
                if mism is None:
                    continue
                print(f"      index {n}: first mismatch at "
                      f"q^{_fmt_exp(mism.exponent)}")
        return 0 if report.ok else 1

    # chain
    rc = 0
    if args.equals is not None:
        try:
            other = run_chain(args.equals)
        except ValueError as exc:
            return _usage_error(exc)
        start = time.perf_counter()
        try:
            diff = pairs_equal(pair, other, args.n, order, args.d_lattice)
        except ValueError as exc:
            return _usage_error(exc)
        ms = int(round((time.perf_counter() - start) * 1000))
        status = "PASS" if diff is None else "FAIL"
        if args.output == "machine":
            print(f"{args.expr} == {args.equals}\t{status}\t"
                  f"{_fmt_exp(order)}\t{ms}")
        else:
            print(f"{status}  {args.expr}  ==  {args.equals}  "
                  f"n <= {args.n}  order {_fmt_exp(order)}  {ms} ms")
            if diff is not None:
                n, side, mism = diff
                print(f"      {side}_{n} differs first at "
                      f"q^{_fmt_exp(mism.exponent)}")
        rc = 0 if diff is None else 1
    if args.show is not None:
        parts = [s.strip() for s in args.show.split(",") if s.strip()]
        for part in parts:
            if part not in ("alpha", "beta"):
                return _usage_error(ValueError(
                    f"--show takes alpha and/or beta, not {part!r}"))
        try:
            for n in range(args.n + 1):
                for part in parts:
                    gen = pair.alpha if part == "alpha" else pair.beta
                    series = deepen_until_valid(
                        lambda d: gen(n, d, args.d_lattice), order,
                        args.d_lattice)
                    print(f"{part}_{n}:")
                    sys.stdout.write(dump(series, order))
        except ValueError as exc:
            return _usage_error(exc)
    if args.equals is None and args.show is None:
        print(pair.name or args.expr)
    return rc


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.d_lattice < 1:
        return _usage_error(ValueError("--d-lattice must be at least 1"))
    if args.cmd == "verify":
        return cmd_verify(args)
    if args.cmd == "expand":
        return cmd_expand(args)
    if args.cmd == "list":
        return cmd_list(args)
    return cmd_bailey(args)


if __name__ == "__main__":
    sys.exit(main())
