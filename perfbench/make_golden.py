"""Regenerate perfbench/data/golden.json.

    python3 perfbench/make_golden.py

For every item the benchmark can draw, at the full and the toy sizes, this
records the SHA-256 digest of the output dump, and at the full sizes the
time one run of the item took (``ref_ms``), which only orders items so each
window of a run is a fair sample.  A verify item's digest is taken only when
its two sides agree, so every golden digest is a sum side cross-checked
against its product side (right sides alone at order 200 are pinned as
computed).  Run it again only when the benchmark's items or sizes change,
never to make a run pass.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402


def digests(lib, cat, size: dict, timings: dict | None) -> dict[str, str]:
    out = {}

    def timed(key, fn):
        t0 = perf_counter()
        value = fn()
        if timings is not None:
            timings[key] = round((perf_counter() - t0) * 1e3, 1)
        return value

    verify = [(f"fixed:{rid}", rid, size["fixed"]) for rid in cat.ids()] + \
        [(f"family:{tok}", tok, size["family"])
         for tok in run.family_tokens(lib)]
    for key, target, order in verify:
        rep = timed(key, lambda: cat.verify(target, order))
        if not rep.equal or rep.lhs_digest != rep.rhs_digest:
            raise SystemExit(f"{key} does not verify at order {order}")
        out[key] = rep.lhs_digest
    for rid in cat.ids():
        order = size["rhs"]
        s = timed(f"rhs:{rid}",
                  lambda: lib.products.eval_product_sum(cat.get(rid).rhs,
                                                        order))
        out[f"rhs:{rid}"] = run.sha256(lib.series.dump(s, order))
    return out


def chain_timings(lib, size: dict, timings: dict) -> None:
    chains = run.draw_chains(lib, run.CHAIN_SEED, run.CHAIN_COUNT)
    for i, (name, steps) in enumerate(chains):
        t0 = perf_counter()
        pair = lib.bailey.builtin_pair(name)
        for step in steps:
            pair = lib.bailey.apply_transform(pair, step)
        try:
            lib.bailey.verify_pair(pair, size["pair_n"], size["pair_order"])
        except lib.series.TruncationError:
            pass  # the known defect; the benchmark counts it as a failure
        timings[f"chain:{i}"] = round((perf_counter() - t0) * 1e3, 1)


def main() -> int:
    lib = run.import_library()
    cat = lib.catalog.load_catalog()
    ref_ms: dict[str, float] = {}
    data = {
        "sizes": run.SIZES,
        "digest": {
            "full": digests(lib, cat, run.SIZES["full"], ref_ms),
            "toy": digests(lib, cat, run.SIZES["toy"], None),
        },
        "ref_ms": ref_ms,
    }
    chain_timings(lib, run.SIZES["full"], ref_ms)
    run.GOLDEN.parent.mkdir(exist_ok=True)
    run.GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n",
                          encoding="utf-8")
    print(f"wrote {run.GOLDEN}: {len(ref_ms)} items")
    return 0


if __name__ == "__main__":
    sys.exit(main())
