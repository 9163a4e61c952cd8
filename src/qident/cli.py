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
from typing import Optional, Sequence

from qident.series import DEFAULT_D, dump, nonneg_order
from qident.nahm import multi_sum
from qident.products import eval_product_sum
from qident.catalog import (
    Catalog,
    Identity,
    VerificationReport,
    check_no_params,
    load_catalog,
    run_chain,
)
from qident.bailey import pairs_equal, term, verify_pair


def _load(args) -> Catalog:
    path = args.catalog or os.environ.get("NAHM_CATALOG")
    return load_catalog(path)


def _usage_error(exc) -> int:
    msg = exc.args[0] if isinstance(exc, KeyError) and exc.args else str(exc)
    print(f"qident: error: {msg}", file=sys.stderr)
    return 2


def build_parser() -> argparse.ArgumentParser:
    # one parent parser per shared option, given only to the subcommands
    # that read it
    catalog, lattice, output, fail_fast = (
        argparse.ArgumentParser(add_help=False) for _ in range(4))
    catalog.add_argument("--catalog", metavar="PATH", default=None,
                         help="catalog file (default: packaged records, or "
                              "$NAHM_CATALOG when set)")
    lattice.add_argument("--d-lattice", dest="d_lattice", type=int,
                         default=DEFAULT_D, metavar="D",
                         help="exponent lattice denominator "
                              "(default %(default)s)")
    output.add_argument("--output", choices=("human", "machine"),
                        default="human", help="report style")
    fail_fast.add_argument("--fail-fast", action="store_true",
                           help="stop at the first failing identity")

    p = argparse.ArgumentParser(
        prog="qident",
        description="exact verification of q-series sum-product identities")
    sub = p.add_subparsers(dest="cmd", required=True)

    pv = sub.add_parser("verify",
                        parents=[catalog, lattice, output, fail_fast],
                        help="compare sum and product sides to a given order")
    pv.add_argument("ids", nargs="+", metavar="ID",
                    help="identity ids, instance tokens like AG(3,2), a bare "
                         "family name with --k/--i, or 'all'")
    pv.add_argument("--order", default="30", help="truncation order")
    pv.add_argument("--k", type=int, default=None)
    pv.add_argument("--i", type=int, default=None)

    pe = sub.add_parser("expand", parents=[catalog, lattice],
                        help="print one side as an exact coefficient dump")
    pe.add_argument("id", metavar="ID")
    pe.add_argument("--side", choices=("lhs", "rhs"), default="lhs")
    pe.add_argument("--order", default="20")
    pe.add_argument("--k", type=int, default=None)
    pe.add_argument("--i", type=int, default=None)

    pl = sub.add_parser("list", parents=[catalog],
                        help="list identity ids and family names")
    pl.add_argument("--tag", default=None,
                    help="only fixed ids carrying this tag")

    pb = sub.add_parser("bailey", help="pair verification and chains")
    bsub = pb.add_subparsers(dest="bailey_cmd", required=True)
    bv = bsub.add_parser("verify", parents=[lattice, output],
                         help="check the defining relation of a pair")
    bv.add_argument("target", help="builtin pair name or chain expression")
    bv.add_argument("--n", type=int, default=10, metavar="N",
                    help="check indices 0..N (default %(default)s)")
    bv.add_argument("--order", default="40")
    bc = bsub.add_parser("chain", parents=[lattice, output],
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
            check_no_params(token, args.k, args.i)
            for rid in cat.ids():
                by_id[rid] = cat.get(rid)
            continue
        ident = cat.resolve(token, k=args.k, i=args.i)
        by_id[ident.id] = ident
    return [by_id[rid] for rid in sorted(by_id)]


def _emit(args, ok: bool, seconds: float, label: str, middle: str,
          order, notes: Sequence[str] = (),
          machine: Optional[str] = None) -> None:
    """``machine  PASS|FAIL  order  ms`` (machine defaults to label), or
    ``PASS|FAIL  label  middle  ms ms`` and one indented line per note."""
    status = "PASS" if ok else "FAIL"
    ms = int(round(seconds * 1000))
    if args.output == "machine":
        print(f"{label if machine is None else machine}\t{status}\t"
              f"{order}\t{ms}")
        return
    print(f"{status}  {label}  {middle}  {ms} ms")
    for note in notes:
        print(f"      {note}")


def cmd_verify(args) -> int:
    cat = _load(args)
    order = nonneg_order(args.order)
    reports: list[VerificationReport] = []
    for ident in _resolve_targets(cat, args):
        rep = cat.verify(ident, order, den=args.d_lattice)
        reports.append(rep)
        if args.fail_fast and not rep.equal:
            break
    for rep in reports:
        m = rep.first_mismatch
        notes = () if m is None else (
            f"first mismatch at q^{m.exponent}: "
            f"sum side {m.left}, product side {m.right}",)
        _emit(args, rep.equal, rep.wall_time, rep.id,
              f"order {rep.order}  box {list(rep.box)}", rep.order, notes)
    return 0 if all(r.equal for r in reports) else 1


# -- expand ---------------------------------------------------------------------

def cmd_expand(args) -> int:
    cat = _load(args)
    order = nonneg_order(args.order)
    ident = cat.resolve(args.id, k=args.k, i=args.i)
    if args.side == "lhs":
        series = multi_sum(ident.spec, order, args.d_lattice)
    else:
        series = eval_product_sum(ident.rhs, order, args.d_lattice)
    sys.stdout.write(dump(series, order))
    return 0


# -- list -----------------------------------------------------------------------

def cmd_list(args) -> int:
    for rid in _load(args).list(args.tag):
        print(rid)
    return 0


# -- bailey ---------------------------------------------------------------------

def cmd_bailey(args) -> int:
    order = nonneg_order(args.order)
    pair = run_chain(args.target if args.bailey_cmd == "verify" else args.expr)

    if args.bailey_cmd == "verify":
        start = time.perf_counter()
        report = verify_pair(pair, args.n, order, args.d_lattice)
        notes = [f"index {n}: first mismatch at q^{m.exponent}"
                 for n, m in report.results if m is not None]
        _emit(args, report.ok, time.perf_counter() - start, args.target,
              f"n <= {args.n}  order {order}", order, notes)
        return 0 if report.ok else 1

    # chain
    rc = 0
    if args.equals is not None:
        other = run_chain(args.equals)
        start = time.perf_counter()
        diff = pairs_equal(pair, other, args.n, order, args.d_lattice)
        notes = () if diff is None else (
            f"{diff[1]}_{diff[0]} differs first at q^{diff[2].exponent}",)
        _emit(args, diff is None, time.perf_counter() - start,
              f"{args.expr}  ==  {args.equals}",
              f"n <= {args.n}  order {order}", order, notes,
              machine=f"{args.expr} == {args.equals}")
        rc = 0 if diff is None else 1
    if args.show is not None:
        parts = [s.strip() for s in args.show.split(",") if s.strip()]
        if not parts or not set(parts) <= {"alpha", "beta"}:
            raise ValueError(f"--show takes a comma list of alpha and/or "
                             f"beta, not {args.show!r}")
        for n in range(args.n + 1):
            for part in parts:
                series = term(getattr(pair, part), n, order, args.d_lattice)
                print(f"{part}_{n}:")
                sys.stdout.write(dump(series, order))
    if args.equals is None and args.show is None:
        print(pair.name or args.expr)
    return rc


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    commands = {"verify": cmd_verify, "expand": cmd_expand, "list": cmd_list,
                "bailey": cmd_bailey}
    try:
        if getattr(args, "d_lattice", DEFAULT_D) < 1:
            raise ValueError("--d-lattice must be at least 1")
        if getattr(args, "n", 0) < 0:
            raise ValueError("--n must be at least 0")
        return commands[args.cmd](args)
    except (OSError, KeyError, ValueError, OverflowError) as exc:
        return _usage_error(exc)  # OverflowError: e.g. an order past an index
    except RecursionError:  # e.g. thousands of parentheses or chain steps
        return _usage_error("input nested or chained too deeply")
    except MemoryError:  # e.g. a family parameter too large to build
        return _usage_error("out of memory")


if __name__ == "__main__":
    sys.exit(main())
