"""Closed-loop benchmark for the qident library.

    python3 perfbench/run.py --workload verify-catalog --seed 1 --seconds 40 --trace 0

One client drives the library in process, serially: the next item starts
when the previous one has finished.  The run first checks the exactness
gate (negative controls that must FAIL), then runs the workload's items
for at most ``--seconds`` and checks every output against golden SHA-256
digests in ``perfbench/data/golden.json``.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of ``perfbench/spans.py`` with ``--trace 1``.

Workloads (see perfbench/README.md for why each was chosen):

* ``verify-catalog``: ``Catalog.verify`` on the 67 fixed records at order 60
  plus a seeded draw of 32 family instances at order 30.
* ``rhs-o200``: every fixed record's product side expanded to order 200 and
  digested; the seed does not change it.
* ``bailey-chains``: 48 transform chains drawn once from a fixed seed, each
  checked with ``verify_pair(pair, 6, 16)``.

A run's items form one pass, put in a cost-balanced order (golden-ratio
spread of reference-cost ranks), so that any stretch of the pass holds cheap
and expensive items in the proportions of the whole.  A run times a fixed
prefix of the pass (the whole pass, or its first 60 items on
``verify-catalog``) and stops when the prefix is done or the window ends,
whichever comes first.  Items the timed part did not reach are then checked
untimed at the toy sizes, so every item's output is checked on every run.
The family draw takes one instance from each run of consecutive
reference-cost ranks, so seeds cost about the same.

Latencies, throughput and set-up time are CPU time of the process doing the
work, scaled to a reference machine speed.  Next to each measurement the
benchmark times a fixed probe, a frozen copy of the seed commit's series
multiplication loop that no change to qident can speed up, and multiplies the
measured CPU time by ``PROBE_REF_S`` over the probe's time, raised to the
power ``PROBE_ELASTICITY``.  On a shared machine the speed of a core drifts
with other tenants' load; the probe follows that drift, but more strongly
than the workloads do.  The window itself is
``--seconds`` of wall time, and the summary line before the result also
gives the unscaled figures.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter, process_time
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "data" / "golden.json"
OUT = HERE / "out"

WORKLOADS = ("verify-catalog", "rhs-o200", "bailey-chains")

# orders and draw sizes; the toy sizes keep the harness test quick
SIZES = {
    "full": {"fixed": 60, "family": 30, "rhs": 200, "pair_n": 6,
             "pair_order": 16},
    "toy": {"fixed": 10, "family": 8, "rhs": 20, "pair_n": 2,
            "pair_order": 6},
}
FAMILY_K_MAX = 4
FAMILY_DRAW = 32
CHAIN_SEED = 20260814
CHAIN_COUNT = 48
GENERAL_COEFFS = tuple(Fraction(c) for c in
                       ("-1", "2", "-2", "1/2", "-1/2", "1/3", "-2/3"))
GENERAL_EXPS = tuple(Fraction(e) for e in ("1/2", "1", "3/2", "2"))

# items a run times, as a prefix of the pass; the whole pass if not named
TIMED_ITEMS = {"verify-catalog": 60}
# items the traced run times, traced and then replayed untraced
TRACE_ITEMS = 30
# item_ms.tail is the highest percentile with at least this many items beyond
TAIL_BEYOND = 10
SETUP_REPS = 9
# probe CPU time that defines the reference speed, and the number of items
# on each side whose probes are pooled for one item's scale factor
PROBE_REF_S = 0.010
PROBE_SPAN = 8
# item CPU time moves as about this power of the probe time; the value gave
# the smallest quartile spreads over 16 runs each of verify-catalog and
# rhs-o200 while the median probe ranged 5.9-11.5 ms (the full ratio, 1.0,
# over-corrects when the machine is fast, and 0.5 under-corrects)
PROBE_ELASTICITY = 0.7

# criterion 8 of the acceptance suite: perturbed right sides and the
# exponent of their first mismatch at order 30
NEGATIVE_CONTROLS = (
    ("R.R.1", "1 / ( P(1;5) * P(3;5) )", 3),
    ("R.R.2", "1 / ( P(2;5) * P(4;5) )", 3),
    ("table2.13.1", "TP(4,6,11;11) / ( P(1;2) * P(4;4) )", 4),
    ("table2.11.3", "TP(2,5,8;8) / P(1;1)", 2),
    ("table2.15.3", "NP(1;1) / ( P(2;5) * P(4;5) )", 3),
)

# chains that raise the known bailey TruncationError at the seed commit
# (_alpha_depth deepens the alphas only for negative valuation); any other
# exception, on any item, makes the run incorrect
KNOWN_TRUNCATION = frozenset(f"chain:{i}"
                             for i in (13, 15, 22, 23, 25, 31, 39))

END_TO_END_UNITS = {"setup_s": "s", "items_per_s": "1/s",
                    "item_ms.p50": "ms", "item_ms.tail": "ms",
                    "peak_rss_mb": "MB"}

# times import + load_catalog in a fresh interpreter, then the probe; the
# probe's module is imported only after the timed part, so the timed import
# pays for every module qident needs
SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
t = time.process_time()
import qident
qident.load_catalog()
setup = time.process_time() - t
sys.path.insert(0, sys.argv[2])
import statistics
from run import probe_seconds
print(setup, statistics.median(probe_seconds() for _ in range(3)))
"""


class BenchError(Exception):
    """The benchmark cannot run here (missing sources or golden data)."""


def import_library() -> SimpleNamespace:
    """qident from this checkout's src/, never an installed copy."""
    sys.path.insert(0, str(SRC))
    try:
        import qident
        from qident import bailey, catalog, nahm, products, series
    except ImportError as exc:
        raise BenchError(f"cannot import qident from {SRC}: {exc}") from None
    if not Path(qident.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"qident imported from {qident.__file__}, "
                         f"not from {SRC}")
    return SimpleNamespace(series=series, products=products, nahm=nahm,
                           bailey=bailey, catalog=catalog)


def load_golden(size: str) -> dict:
    try:
        data = json.loads(GOLDEN.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise BenchError(f"missing {GOLDEN}; run perfbench/make_golden.py") \
            from None
    if data["sizes"] != SIZES:
        raise BenchError("golden data was made for other sizes; "
                         "run perfbench/make_golden.py")
    return {"digest": data["digest"][size], "ref_ms": data["ref_ms"]}


# -- inputs ---------------------------------------------------------------------

def family_tokens(lib) -> list[str]:
    """Every family instance with k <= FAMILY_K_MAX in its stated domain."""
    out = []
    for name, gen in lib.catalog.FAMILIES.items():
        for k in range(gen.k_min, FAMILY_K_MAX + 1):
            for i in gen.i_values(k):
                out.append(f"{name}({k})" if i is None else f"{name}({k},{i})")
    return out


def draw_chains(lib, seed: int, count: int) -> list[tuple]:
    """Transform chains drawn as in acceptance criterion 5.

    A seed pair, then 1-3 steps from S1/S3/S5, replaced by a GENERAL step a
    quarter of the time, plus DJK(q^2) while the pair is relative to q.
    GENERAL's rho coefficients exclude +1, which keeps every step defined.
    """
    b, qmono, Monomial = lib.bailey, lib.series.qmono, lib.series.Monomial
    rng = random.Random(seed)
    chains = []
    for _ in range(count):
        name = rng.choice(sorted(b.BUILTIN_NAMES))
        pair = b.builtin_pair(name)
        steps = []
        for _ in range(rng.randrange(1, 4)):
            pool = [b.S1, b.S3, b.S5]
            if rng.random() < 0.25:
                pool = [b.GENERAL(
                    Monomial(rng.choice(GENERAL_COEFFS),
                             rng.choice(GENERAL_EXPS)),
                    Monomial(rng.choice(GENERAL_COEFFS),
                             rng.choice(GENERAL_EXPS)))]
            if pair.a == qmono(1):
                pool.append(b.DJK(qmono(2)))
            step = rng.choice(pool)
            steps.append(step)
            pair = b.apply_transform(pair, step)
        chains.append((name, tuple(steps)))
    return chains


def stratified(keys: list[str], cost: dict, k: int,
               rng: random.Random) -> list[str]:
    """One key from each of k runs of consecutive reference-cost ranks."""
    ranked = sorted(keys, key=lambda key: (-cost[key], key))
    n = len(ranked)
    return [ranked[rng.randrange(s * n // k, (s + 1) * n // k)]
            for s in range(k)]


def balanced(keys: list[str], cost: dict) -> list[str]:
    """Cost ranks spread by the golden ratio, so every window is a sample."""
    phi = (math.sqrt(5) - 1) / 2
    ranked = sorted(keys, key=lambda key: (-cost[key], key))
    return [key for _, key in sorted(((j * phi) % 1.0, key)
                                     for j, key in enumerate(ranked))]


def interleaved(*orders: list[str]) -> list[str]:
    """Merge lists so that every prefix holds each in proportion to its
    length, and which items of each a prefix holds does not depend on the
    others' contents."""
    return [key for _, key in sorted(((j + 0.5) / len(order), key)
                                     for order in orders
                                     for j, key in enumerate(order))]


def build_sequence(ctx, workload: str, seed: int) -> list[str]:
    """One pass of the workload's items, in cost-balanced order.

    Only ``verify-catalog`` depends on the seed, through its family draw;
    its fixed records and family instances are balanced apart, so the
    timed prefix holds the same fixed records on every seed.
    """
    cost = ctx.golden["ref_ms"]
    fixed = list(ctx.cat.ids())
    if workload == "rhs-o200":
        return balanced([f"rhs:{rid}" for rid in fixed], cost)
    if workload == "verify-catalog":
        family = stratified([f"family:{t}" for t in family_tokens(ctx.lib)],
                            cost, FAMILY_DRAW, random.Random(seed))
        return interleaved(balanced([f"fixed:{rid}" for rid in fixed], cost),
                           balanced(family, cost))
    if workload == "bailey-chains":
        return balanced([f"chain:{i}" for i in range(CHAIN_COUNT)], cost)
    raise BenchError(f"unknown workload {workload!r}")


# -- items ----------------------------------------------------------------------

def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_item(ctx, key: str) -> bool:
    """Run one item; True when its output is exactly right."""
    kind, _, name = key.partition(":")
    lib, size = ctx.lib, ctx.size
    if kind in ("fixed", "family"):
        rep = ctx.cat.verify(name, size[kind])
        want = ctx.golden["digest"][key]
        return rep.equal and rep.lhs_digest == want and rep.rhs_digest == want
    if kind == "rhs":
        order = size["rhs"]
        s = lib.products.eval_product_sum(ctx.cat.get(name).rhs, order)
        return sha256(lib.series.dump(s, order)) == ctx.golden["digest"][key]
    seed_name, steps = ctx.chains[int(name)]
    pair = lib.bailey.builtin_pair(seed_name)
    for step in steps:
        pair = lib.bailey.apply_transform(pair, step)
    return lib.bailey.verify_pair(pair, size["pair_n"], size["pair_order"]).ok


def gate(ctx) -> list[str]:
    """Problems with the negative controls; a working verifier has none."""
    problems = []
    for rid, rhs_text, exponent in NEGATIVE_CONTROLS:
        try:
            broken = dataclasses.replace(
                ctx.cat.get(rid), rhs=ctx.lib.catalog.parse_rhs(rhs_text))
            rep = ctx.cat.verify(broken, 30)
        except Exception as exc:
            problems.append(f"perturbed {rid} raised {exc!r}")
            continue
        got = None if rep.first_mismatch is None else rep.first_mismatch.exponent
        if rep.equal or got != exponent:
            problems.append(f"perturbed {rid} gave {rep.status} at {got}, "
                            f"expected FAIL at {exponent}")
    b = ctx.lib.bailey
    try:
        same = b.pairs_equal(b.builtin_pair("G1"), b.builtin_pair("G3"),
                             5, 20) is None
    except Exception as exc:
        problems.append(f"pairs_equal(G1, G3, 5, 20) raised {exc!r}")
    else:
        if same:
            problems.append("pairs_equal(G1, G3, 5, 20) found no difference")
    return problems


def _probe_operand(sign_period: int, mod: int) -> dict[int, Fraction]:
    return {n: Fraction((-1) ** (n // sign_period) * (n % mod + 1))
            for n in range(0, 200, 4)}


PROBE_A, PROBE_B = _probe_operand(4, 7), _probe_operand(10 ** 9, 5)


def probe_seconds() -> float:
    """CPU time of one fixed 50x50-term series product (~1300 Fraction
    multiply-adds), written as the seed commit's ``QSeries.__mul__`` loop."""
    t0 = process_time()
    out: dict[int, Fraction] = {}
    b = sorted(PROBE_B.items())
    for n1, c1 in sorted(PROBE_A.items()):
        for n2, c2 in b:
            n = n1 + n2
            if n > 196:
                break
            v = Fraction(out.get(n, 0)) + Fraction(c1) * c2
            v = v.numerator if v.denominator == 1 else v
            if v == 0:
                out.pop(n, None)
            else:
                out[n] = v
    return process_time() - t0


def measure(ctx, items: list[str], seconds: float = math.inf) \
        -> SimpleNamespace:
    """Run items in order until they are done or `seconds` of wall time
    have passed; the latency of each item run is its CPU time."""
    lat, probe, wrong, errors = [], [], [], []
    start = perf_counter()
    for key in items:
        if perf_counter() - start >= seconds:
            break
        probe.append(probe_seconds())
        t0 = process_time()
        try:
            if not run_item(ctx, key):
                wrong.append(key)
        except Exception as exc:  # counted as a failed item, run continues
            errors.append((key, exc))
        lat.append(process_time() - t0)
    return SimpleNamespace(lat=lat, probe=probe, wrong=wrong, errors=errors,
                           wall=perf_counter() - start)


def check_rest(ctx, items: list[str]) -> SimpleNamespace:
    """Check, untimed and at the toy sizes, the items no timed run reached."""
    toy = SimpleNamespace(**dict(vars(ctx), size=SIZES["toy"],
                                 golden=load_golden("toy")))
    return measure(toy, items)


def known_defect(ctx, key: str, exc: Exception) -> bool:
    return isinstance(exc, ctx.lib.series.TruncationError) \
        and key in KNOWN_TRUNCATION


def unexpected(ctx, res) -> list[str]:
    """Failed items other than the known truncation defect."""
    return res.wrong + [key for key, exc in res.errors
                        if not known_defect(ctx, key, exc)]


def report_failures(ctx, res) -> None:
    """One stderr line per failing item; a traceback if it is unexpected."""
    for key in dict.fromkeys(res.wrong):
        print(f"WRONG RESULT: {key} x{res.wrong.count(key)}", file=sys.stderr)
    first = {}
    for key, exc in res.errors:
        first.setdefault(key, exc)
    for key, exc in first.items():
        times = sum(k == key for k, _ in res.errors)
        print(f"failed: {key} x{times}: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        if not known_defect(ctx, key, exc):
            traceback.print_exception(exc, file=sys.stderr)


# -- metrics --------------------------------------------------------------------

def setup_seconds(reps: int) -> float:
    """Median over fresh interpreters of import + load_catalog CPU time,
    each scaled by the probe timed in the same interpreter."""
    times = []
    for _ in range(reps):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE)],
            capture_output=True, text=True, check=True, timeout=60)
        setup, probe = map(float, out.stdout.split()[-2:])
        times.append(setup * (PROBE_REF_S / probe) ** PROBE_ELASTICITY)
    return statistics.median(times)


def scaled(res) -> list[float]:
    """CPU times of the item runs at reference speed."""
    k, p = PROBE_SPAN, res.probe
    return [t * (PROBE_REF_S / statistics.median(p[max(i - k, 0):i + k + 1]))
            ** PROBE_ELASTICITY for i, t in enumerate(res.lat)]


def tail_pct(n: int) -> int:
    """Highest percentile with at least TAIL_BEYOND of n items beyond it."""
    return max((p for p in range(50, 100)
                if n - math.ceil(p * n / 100) >= TAIL_BEYOND), default=50)


def end_to_end(res, setup_s: float) -> dict[str, float]:
    lat = scaled(res)
    tail = statistics.quantiles(lat, n=100, method="inclusive")[
        tail_pct(len(lat)) - 1] if len(lat) > 1 else lat[0]
    return {
        "setup_s": setup_s,
        "items_per_s": len(lat) / sum(lat),
        "item_ms.p50": statistics.median(lat) * 1e3,
        "item_ms.tail": tail * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }


def unit_of(metric: str) -> str:
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_share", "_ratio", "_frac", "_per_box_point")):
        return "ratio"
    return "count"


def traced(ctx, args, items) -> tuple[SimpleNamespace, dict[str, float]]:
    """Per-layer metrics from tracing a fixed list of items.

    The same items are then replayed untraced, with bailey's table cache
    emptied again so both passes start equally cold, and the difference in
    probe-scaled CPU time is reported as the tracing overhead.  The result
    holds the item runs of both passes.
    """
    from spans import Tracer

    inv_table = ctx.lib.bailey._inv_table
    inv_table.cache_clear()
    with Tracer() as tracer:
        res = measure(ctx, items)
    info = inv_table.cache_info()
    metrics = tracer.metrics()
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{args.workload}-{args.seed}.tsv")
    del tracer
    inv_table.cache_clear()
    untraced = measure(ctx, items)
    lookups = info.hits + info.misses
    metrics["bailey.inv_table.hits"] = info.hits
    metrics["bailey.inv_table.misses"] = info.misses
    metrics["bailey.inv_table.hit_ratio"] = \
        info.hits / lookups if lookups else 0.0
    t_on = sum(scaled(res))
    t_off = sum(scaled(untraced))
    metrics["trace.overhead_s"] = t_on - t_off
    metrics["trace.overhead_frac"] = (t_on - t_off) / t_off
    both = SimpleNamespace(**{k: getattr(res, k) + getattr(untraced, k)
                              for k in ("lat", "probe", "wrong", "errors",
                                        "wall")})
    return both, metrics


# -- entry point ----------------------------------------------------------------

def make_context(toy: bool) -> SimpleNamespace:
    lib = import_library()
    size = "toy" if toy else "full"
    return SimpleNamespace(
        lib=lib, cat=lib.catalog.load_catalog(), size=SIZES[size],
        golden=load_golden(size),
        chains=draw_chains(lib, CHAIN_SEED, CHAIN_COUNT))


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true",
                    help="tiny orders, for the harness test")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        ctx = make_context(args.toy)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    seq = build_sequence(ctx, args.workload, args.seed)
    problems = gate(ctx)
    for p in problems:
        print(f"GATE: {p}", file=sys.stderr)
    if args.trace:
        res, metrics = traced(ctx, args, seq[:TRACE_ITEMS])
        reached = min(TRACE_ITEMS, len(seq))
    else:
        res = measure(ctx, seq[:TIMED_ITEMS.get(args.workload)],
                      seconds=args.seconds)
        metrics = end_to_end(res, setup_seconds(1 if args.toy else SETUP_REPS))
        reached = len(res.lat)
    rest = check_rest(ctx, seq[reached:])
    timed = len(res.lat)
    res.wrong += rest.wrong
    res.errors += rest.errors
    report_failures(ctx, res)
    attempted = timed + len(rest.lat)
    failed = len(res.wrong) + len(res.errors)
    bad = unexpected(ctx, res)
    how = f"{reached} items traced, then replayed untraced" if args.trace \
        else f"{timed} items timed, tail = p{tail_pct(timed)}"
    print(f"# {args.workload} seed={args.seed}: {how}, of a {len(seq)}-item "
          f"pass; {res.wall:.3f} s wall, {sum(res.lat):.3f} s item CPU, "
          f"median probe {statistics.median(res.probe) * 1e3:.3f} ms; "
          f"{len(rest.lat)} checked untimed at toy size; {failed} failed "
          f"(fail_frac {failed / attempted:.4f}), {len(bad)} unexpectedly")
    print(json.dumps({
        "correct": not problems and not bad,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
