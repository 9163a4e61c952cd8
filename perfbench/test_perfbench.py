"""Harness test at toy sizes, so the benchmark cannot rot.

    python3 -m pytest perfbench -q

Runs every workload untraced and traced through the real command line,
checks the printed metrics against BENCHMARK.json and the per-layer
attribution, and checks in process that the exactness gate, the golden
digests and the failure counting each catch what they are there to catch.
"""

import json
import math
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args, cwd=run.ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def toy_run(workload, trace):
    out = bench("--workload", workload, "--seed", "5", "--seconds", "1",
                "--trace", str(trace), "--toy")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, out.stderr
    assert result["attempted"] >= 1
    return result


def units(metrics):
    return {name: m["unit"] for name, m in metrics.items()}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    result = toy_run(workload, 0)
    assert units(result["metrics"]) == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    if workload != "bailey-chains":
        assert result["failed"] == 0


def test_traced_runs_attribute_work_to_the_right_layers():
    layers = {w: toy_run(w, 1)["metrics"] for w in run.WORKLOADS}
    for metrics in layers.values():
        assert units(metrics) == \
            {m["name"]: m["unit"] for m in SPEC["per_layer"]}

    def value(workload, name):
        return layers[workload][name]["value"]

    def layer_total(workload, layer):
        return sum(m["value"] for name, m in layers[workload].items()
                   if name.startswith(layer + "."))

    assert layer_total("verify-catalog", "nahm") > 0
    assert value("verify-catalog", "nahm.mul_calls") > 0
    assert layer_total("bailey-chains", "bailey") > 0
    for workload in ("rhs-o200", "bailey-chains"):
        assert layer_total(workload, "nahm") == 0
    for workload in ("verify-catalog", "rhs-o200"):
        assert layer_total(workload, "bailey") == 0
        assert value(workload, "series.frac_share") == 0
    assert value("bailey-chains", "series.frac_share") > 0
    assert value("rhs-o200", "products.poch_infinite.calls") > 0


@pytest.fixture(scope="module")
def ctx():
    return run.make_context(toy=True)


def test_gate_passes_on_the_real_verifier(ctx):
    assert run.gate(ctx) == []


def test_gate_fails_a_verifier_that_stops_comparing(ctx, monkeypatch):
    for mod in (ctx.lib.catalog, ctx.lib.bailey):
        monkeypatch.setattr(mod, "compare_up_to", lambda *a, **k: None)
    assert len(run.gate(ctx)) == len(run.NEGATIVE_CONTROLS) + 1


def test_changed_output_bytes_fail_the_item(ctx, monkeypatch):
    for key in ("fixed:R.R.1", "family:AG(3,2)", "rhs:table2.15.4"):
        assert run.run_item(ctx, key)
        digests = dict(ctx.golden["digest"], **{key: "0" * 64})
        monkeypatch.setitem(ctx.golden, "digest", digests)
        res = run.measure(ctx, [key, key])
        assert res.wrong == [key, key] and not res.errors
        monkeypatch.undo()


def test_known_truncation_defect_counts_as_failed(ctx, monkeypatch):
    b, Monomial = ctx.lib.bailey, ctx.lib.series.Monomial
    step = b.GENERAL(Monomial(Fraction(1, 3), 2), Monomial(-1, 1))
    chains = list(ctx.chains)
    chains[0] = chains[13] = ("G1", (step,))
    monkeypatch.setattr(ctx, "chains", chains)
    monkeypatch.setattr(ctx, "size", dict(ctx.size, pair_n=4, pair_order=12))
    res = run.measure(ctx, ["chain:13", "chain:0"])
    assert not res.wrong
    assert [type(exc).__name__ for _, exc in res.errors] == \
        ["TruncationError"] * 2
    # only the chains known to hit the defect at the seed commit may raise
    assert run.unexpected(ctx, res) == ["chain:0"]


def test_an_exception_on_any_other_item_makes_the_run_incorrect(
        ctx, monkeypatch, capsys):
    verify = ctx.lib.catalog.Catalog.verify

    def broken(self, target, *args, **kwargs):
        if isinstance(target, str):  # the gate's records pass as objects
            raise KeyError(target)
        return verify(self, target, *args, **kwargs)

    monkeypatch.setattr(ctx.lib.catalog.Catalog, "verify", broken)
    assert run.main(["--workload", "verify-catalog", "--seed", "5",
                     "--seconds", "1", "--trace", "0", "--toy"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"]


def test_tail_leaves_ten_items_beyond_it():
    for n, pct in ((48, 79), (60, 83), (67, 85)):
        assert run.tail_pct(n) == pct
        assert n - math.ceil(pct * n / 100) >= run.TAIL_BEYOND
        assert n - math.ceil((pct + 1) * n / 100) < run.TAIL_BEYOND


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = bench("--workload", "rhs-o200", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
