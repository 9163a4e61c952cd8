"""Command line behavior: output shapes, exit codes, determinism."""

import random
import re
import shlex
import signal
from fractions import Fraction
from pathlib import Path

import pytest

from qident.bailey import PairReport
from qident.catalog import packaged_catalog_text
from qident.cli import main
from qident.series import Mismatch

BROKEN_CATALOG = """\
[identity broken.1]
lhs.kind = multisum
vars = n
exponent = "n^2"
denoms = [q]
rhs = "1 / ( P(1;5) * P(3;5) )"

[identity broken.2]
lhs.kind = multisum
vars = n
exponent = "n^2 + n"
denoms = [q]
rhs = "1 / ( P(1;5) * P(4;5) )"

[identity good.1]
lhs.kind = multisum
vars = n
exponent = "n^2"
denoms = [q]
rhs = "1 / ( P(1;5) * P(4;5) )"
"""


INDEFINITE_CATALOG = """\
[identity indefinite.1]
lhs.kind = nahm
A = [[1, 2], [2, 1]]
b = [0, 0]
d = [1, 1]
rhs = "1 / ( P(1;5) * P(4;5) )"
"""

SHIFTED_RR1_CATALOG = """\
[identity shifted]
lhs.kind = nahm
A = [[2]]
b = [0]
d = [1]
c = 1
rhs = "1 / ( P(1;5) * P(4;5) )"
"""

RR1_RECORD = """\
[identity t]
lhs.kind = multisum
vars = i
exponent = "i^2"
denoms = [q]
rhs = "1/(P(1;5)*P(4;5))"
"""

# Catalog files for the error-path cases, written where "@name" appears
BAD_CATALOGS = {
    "indefinite": INDEFINITE_CATALOG,
    "unknown-key": RR1_RECORD + 'prefator = "q^(i)"\n',
    "kind-key": RR1_RECORD + "A = [[2]]\n",
    "repeated-key": RR1_RECORD + 'exponent = "i^2 + i"\n',
    "id-key": RR1_RECORD + "id = other\n",
    "missing-key": RR1_RECORD.replace('exponent = "i^2"\n', ""),
    "matrix-junk": INDEFINITE_CATALOG.replace("[[1, 2], [2, 1]]",
                                              "[[1,2] junk [3,4]]"),
    "extra-junk": RR1_RECORD + 'extra = ["pochf(-q; q; i)" junk]\n',
    "negative-prefactor": RR1_RECORD + 'prefactor = "q^(-i)"\n',
    "indefinite-multisum": RR1_RECORD.replace("vars = i", "vars = i, j")
    .replace('"i^2"', '"i^2 + j^2 - 3ij"').replace("[q]", "[q, q]"),
    "zero-base": RR1_RECORD + "base_substitution = 0\n",
    "route-unknown-seed": RR1_RECORD + 'route = "G9 |> S3"\n',
    "route-not-a-chain": RR1_RECORD + 'route = "G1, S3"\n',
    "zero-base-P": RR1_RECORD.replace("1/(P(1;5)*P(4;5))", "P(1;0)"),
    "negative-base-NP": RR1_RECORD.replace("1/(P(1;5)*P(4;5))", "NP(1;-1)"),
    "zero-J": RR1_RECORD.replace("1/(P(1;5)*P(4;5))", "J(0)"),
    "negative-J": RR1_RECORD.replace("1/(P(1;5)*P(4;5))", "J(-2)"),
    "zero-denominator-base": RR1_RECORD.replace("[q]", "[q^0]"),
    "two-vars-one-base": RR1_RECORD.replace("vars = i", "vars = i, j"),
    "repeated-var": RR1_RECORD.replace("vars = i", "vars = i, i"),
    "divide-by-constant": RR1_RECORD.replace("1/(P(1;5)*P(4;5))",
                                             "P(1;1) / (2 * P(2;2))"),
    "power-of-constant": RR1_RECORD.replace("1/(P(1;5)*P(4;5))",
                                            "(2 * P(1;1))^2"),
    "bad-var-name": RR1_RECORD.replace("vars = i", "vars = n_1")
    .replace('"i^2"', '"n_1^2"'),
    "zero-denominator-exponent": RR1_RECORD.replace('"i^2"', '"(1/0)i^2"'),
    "half-extra-length": RR1_RECORD + 'extra = ["pochf(-q; q; (1/2)i)"]\n',
    "negative-extra-length": RR1_RECORD + 'extra = ["pochf(-q; q; i - 1)"]\n',
    "deep-rhs": RR1_RECORD.replace("1/(P(1;5)*P(4;5))",
                                   "(" * 3000 + "P(1;1)" + ")" * 3000),
}

# an order whose exponent numerator no list index can hold
HUGE_ORDER = str(10 ** 24)


def _norm_ms(text):
    return re.sub(r"\t\d+$", "\tMS", text, flags=re.M)


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_readme_examples_run(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text(
        encoding="utf-8")
    block = readme.split("## CLI\n\n```sh\n")[1].split("```")[0]
    lines = block.splitlines()
    assert lines and all(line.startswith("qident ") for line in lines)
    for line in lines:
        rc, _, err = run(capsys, *shlex.split(line)[1:])
        assert (rc, err) == (0, ""), line
    example = readme.split("```python\n")[1].split("```")[0]
    exec(compile(example, "README.md", "exec"), {})
    assert capsys.readouterr().out == "True\n"


def test_verify_machine_golden(capsys):
    rc, out, _ = run(capsys, "verify", "R.R.2", "table2.1.1", "R.R.1",
                     "--order", "20", "--output", "machine")
    assert rc == 0
    assert _norm_ms(out) == ("R.R.1\tPASS\t20\tMS\n"
                             "R.R.2\tPASS\t20\tMS\n"
                             "table2.1.1\tPASS\t20\tMS\n")


def test_verify_unknown_id_is_usage_error(capsys):
    rc, out, err = run(capsys, "verify", "table9.1.1", "--order", "10")
    assert rc == 2
    assert out == ""
    assert "unknown identity" in err


def test_verify_family_instance_and_kwargs(capsys):
    rc, out, _ = run(capsys, "verify", "AG(2,2)", "--order", "20",
                     "--output", "machine")
    assert rc == 0 and out.startswith("AG(2,2)\tPASS")
    rc, out, _ = run(capsys, "verify", "Warnaar", "--k", "2", "--i", "1",
                     "--order", "16", "--output", "machine")
    assert rc == 0 and out.startswith("Warnaar(2,1)\tPASS")
    rc, _, err = run(capsys, "verify", "Warnaar", "--order", "10")
    assert rc == 2 and "k parameter" in err


def test_verify_fractional_order(capsys):
    rc, out, _ = run(capsys, "verify", "exam12-1", "--order", "61/2",
                     "--output", "machine")
    assert rc == 0
    assert _norm_ms(out) == "exam12-1\tPASS\t61/2\tMS\n"


def test_verify_broken_catalog_fails(tmp_path, capsys):
    path = tmp_path / "broken.cat"
    path.write_text(BROKEN_CATALOG)
    rc, out, _ = run(capsys, "verify", "all", "--order", "20",
                     "--catalog", str(path), "--output", "machine")
    assert rc == 1
    lines = out.splitlines()
    assert [l.split("\t")[1] for l in lines] == ["FAIL", "FAIL", "PASS"]
    rc, out, _ = run(capsys, "verify", "all", "--order", "20",
                     "--catalog", str(path), "--output", "machine",
                     "--fail-fast")
    assert rc == 1
    assert len(out.splitlines()) == 1
    assert out.startswith("broken.1\tFAIL")


def test_verify_human_mode_reports_mismatch(tmp_path, capsys):
    path = tmp_path / "broken.cat"
    path.write_text(BROKEN_CATALOG)
    rc, out, _ = run(capsys, "verify", "broken.1", "--order", "20",
                     "--catalog", str(path))
    assert rc == 1
    assert "FAIL" in out and "first mismatch at q^3" in out


def test_catalog_env_fallback(tmp_path, capsys, monkeypatch):
    path = tmp_path / "env.cat"
    path.write_text(BROKEN_CATALOG)
    monkeypatch.setenv("NAHM_CATALOG", str(path))
    rc, out, _ = run(capsys, "list")
    assert rc == 0
    ids = out.splitlines()
    assert ids[:3] == ["broken.1", "broken.2", "good.1"]
    # explicit flag still wins over the environment
    monkeypatch.setenv("NAHM_CATALOG", str(tmp_path / "missing.cat"))
    rc, _, err = run(capsys, "list")
    assert rc == 2


def test_nahm_record_constant_is_verified(tmp_path, capsys):
    # c = 1 shifts the Rogers-Ramanujan sum by q, so the product side no
    # longer matches, first at q^0
    path = tmp_path / "shifted.cat"
    path.write_text(SHIFTED_RR1_CATALOG)
    rc, out, _ = run(capsys, "verify", "shifted", "--order", "10",
                     "--catalog", str(path))
    assert rc == 1
    assert "first mismatch at q^0: sum side 0, product side 1" in out
    rc, out, _ = run(capsys, "expand", "shifted", "--side", "lhs",
                     "--order", "4", "--catalog", str(path))
    assert rc == 0
    assert out.splitlines()[:3] == ["order 16/4", "4/4 1", "8/4 1"]


def test_list_tag_filter(capsys):
    rc, out, _ = run(capsys, "list", "--tag", "example13")
    assert rc == 0
    assert out.splitlines() == ["eq-13-sum", "table2.13.1", "table2.13.2",
                                "table2.13.3", "table2.13.4"]
    rc, out, _ = run(capsys, "list")
    assert rc == 0
    assert len(out.splitlines()) == 88


def test_expand_rhs_dump_shape(capsys):
    rc, out, _ = run(capsys, "expand", "table2.13.1", "--side", "rhs",
                     "--order", "12")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "order 48/4"
    assert lines[1] == "0/4 1"


def test_expand_lhs_intro_coefficients(capsys):
    rc, out, _ = run(capsys, "expand", "R.R.1", "--side", "lhs",
                     "--order", "6")
    assert rc == 0
    assert out.splitlines() == [
        "order 24/4", "0/4 1", "4/4 1", "8/4 1", "12/4 1", "16/4 2",
        "20/4 2", "24/4 3"]


def test_expand_family_sides_agree(capsys):
    rc, lhs, _ = run(capsys, "expand", "AG", "--k", "3", "--i", "2",
                     "--side", "lhs", "--order", "10")
    assert rc == 0
    rc, rhs, _ = run(capsys, "expand", "AG", "--k", "3", "--i", "2",
                     "--side", "rhs", "--order", "10")
    assert rc == 0
    assert lhs == rhs


def test_expand_nahm_record(capsys):
    rc, out, _ = run(capsys, "expand", "table2.11.1", "--side", "lhs",
                     "--order", "8")
    assert rc == 0
    assert out.splitlines()[0] == "order 32/4"


def test_bailey_verify_builtin_and_chain(capsys):
    rc, out, _ = run(capsys, "bailey", "verify", "G1star", "--n", "6",
                     "--order", "30", "--output", "machine")
    assert rc == 0
    assert _norm_ms(out) == "G1star\tPASS\t30\tMS\n"
    rc, out, _ = run(capsys, "bailey", "verify", "G1 |> S1", "--n", "4",
                     "--order", "24")
    assert rc == 0 and out.startswith("PASS")


def test_bailey_chain_equals(capsys):
    rc, out, _ = run(capsys, "bailey", "chain", "G1star |> DJKLIM(q^(3/2))",
                     "--equals", "G3", "--n", "8", "--order", "30")
    assert rc == 0
    assert out.startswith("PASS")
    rc, out, _ = run(capsys, "bailey", "chain", "G1 |> S1",
                     "--equals", "G2", "--n", "4", "--order", "20")
    assert rc == 1
    assert out.startswith("FAIL")


def test_bailey_chain_equals_machine_fail_line(capsys):
    rc, out, err = run(capsys, "bailey", "chain", "G1", "--equals", "G3",
                       "--n", "3", "--order", "10", "--output", "machine")
    assert rc == 1 and err == ""
    assert _norm_ms(out) == "G1 == G3\tFAIL\t10\tMS\n"
    rc, out, _ = run(capsys, "bailey", "chain", "G1", "--equals", "G3",
                     "--n", "3", "--order", "10")
    assert rc == 1
    assert re.sub(r"  \d+ ms", "  MS ms", out) == (
        "FAIL  G1  ==  G3  n <= 3  order 10  MS ms\n"
        "      alpha_1 differs first at q^0\n")


def test_bailey_chain_equals_names_a_differing_relative_parameter(capsys):
    rc, out, _ = run(capsys, "bailey", "chain", "G1", "--equals", "G2",
                     "--n", "2", "--order", "5")
    assert rc == 1
    assert re.sub(r"  \d+ ms", "  MS ms", out) == (
        "FAIL  G1  ==  G2  n <= 2  order 5  MS ms\n"
        "      a differs first at q^0\n")


def test_bailey_chain_show_and_errors(capsys):
    rc, out, _ = run(capsys, "bailey", "chain", "G1", "--show", "beta",
                     "--n", "1", "--order", "6")
    assert rc == 0
    assert out.splitlines()[0] == "beta_0:"
    rc, _, err = run(capsys, "bailey", "chain", "G1", "--show", "gamma",
                     "--n", "1", "--order", "6")
    assert rc == 2 and "alpha" in err
    rc, _, err = run(capsys, "bailey", "chain", "G1 |> NOPE", "--order", "6")
    assert rc == 2 and "unknown transform" in err


@pytest.mark.parametrize("argv, needle", [
    (["bailey", "verify", "G1|>GENERAL(q,q)", "--n", "3", "--order", "10"],
     "GENERAL is singular for rho = q:"),
    (["expand", "R.R.1", "--order", "10", "--d-lattice", "0"],
     "--d-lattice"),
    (["bailey", "chain", "G1", "--show", "beta", "--n", "1", "--order", "4",
      "--d-lattice", "0"], "--d-lattice"),
    (["verify", "R.R.1", "--d-lattice", "0"], "--d-lattice"),
    (["bailey", "verify", "G1", "--n", "-1", "--order", "5"], "--n"),
    (["bailey", "chain", "G1", "--show", "alpha", "--n", "-2"], "--n"),
    (["expand", "indefinite.1", "--side", "lhs", "--order", "10",
      "--catalog", "@indefinite"], "positive definite"),
    (["verify", "t", "--order", "20", "--catalog", "@unknown-key"],
     "record t: unknown key 'prefator'"),
    (["verify", "t", "--order", "20", "--catalog", "@kind-key"],
     "record t: key 'A' does not apply to lhs.kind = multisum"),
    (["verify", "t", "--order", "20", "--catalog", "@repeated-key"],
     "record t: repeated key 'exponent'"),
    (["verify", "t", "--order", "20", "--catalog", "@id-key"],
     "record t: unknown key 'id'"),
    (["list", "--catalog", "@missing-key"], "record t: missing key 'exponent'"),
    (["list", "--catalog", "@matrix-junk"], "record indefinite.1: A: expected"),
    (["list", "--catalog", "@extra-junk"], "record t: extra: expected"),
    (["verify", "t", "--order", "12", "--catalog", "@negative-prefactor"],
     "prefactor exponents must have a nonnegative"),
    (["list", "--catalog", "@negative-prefactor"],
     "record t: prefactor exponents must have a nonnegative"),
    (["verify", "t", "--order", "10", "--catalog", "@indefinite-multisum"],
     "positive definite"),
    (["list", "--catalog", "@indefinite-multisum"],
     "record t: matrix is not positive definite"),
    (["list", "--catalog", "@zero-base"],
     "record t: base_substitution: must be at least 1"),
    (["list", "--catalog", "@route-unknown-seed"],
     "record t: route: unknown built-in pair 'G9'"),
    (["list", "--catalog", "@route-not-a-chain"],
     "record t: route: expected the end"),
    (["bailey", "chain", "G1", "--show", ",", "--n", "1", "--order", "3"],
     "--show takes"),
    (["bailey", "chain", "G1", "--equals", "G1", "--show", "gamma", "--n", "1",
      "--order", "3"], "--show takes"),
    (["verify", "R.R.1", "--order=-1/4"], "order must be nonnegative"),
    (["verify", "R.R.1", "--order", "1/0"], "zero denominator"),
    (["bailey", "verify", "G1", "--n", "2", "--order", "0/0"],
     "zero denominator"),
    (["list", "--catalog", "@zero-base-P"],
     "record t: rhs: infinite product needs a positive base"),
    (["list", "--catalog", "@negative-base-NP"],
     "record t: rhs: infinite product needs a positive base"),
    (["list", "--catalog", "@zero-J"],
     "record t: rhs: infinite product needs a positive base"),
    (["list", "--catalog", "@negative-J"],
     "record t: rhs: infinite product needs a positive base"),
    (["verify", "AG(3,2)", "--k", "9", "--order", "5"],
     "only with a bare family name, not 'AG(3,2)'"),
    (["expand", "R.R.1", "--k", "4", "--i", "9", "--order", "3"],
     "only with a bare family name, not 'R.R.1'"),
    (["verify", "all", "--i", "1", "--order", "3"],
     "only with a bare family name, not 'all'"),
    (["bailey", "verify", "G1 |> DJK(q^2)", "--n", "3", "--order", "6"],
     "DJK is singular on a pair relative to 1"),
    (["bailey", "verify", "G2 |> DJK(q^-2)", "--n", "2", "--order", "8"],
     "DJK is singular for b = q^-2"),
    (["list", "--catalog", "@zero-denominator-base"],
     "record t: denoms: bases must be positive"),
    (["list", "--catalog", "@two-vars-one-base"],
     "record t: 2 vars but 1 denominators"),
    (["list", "--catalog", "@repeated-var"],
     "record t: exponent: duplicate variable name 'i'"),
    (["list", "--catalog", "@divide-by-constant"],
     "record t: rhs: can only divide by a pure product"),
    (["list", "--catalog", "@power-of-constant"],
     "record t: rhs: can only power a pure product"),
    (["list", "--catalog", "@bad-var-name"],
     "record t: exponent: bad variable name 'n_1'"),
    (["verify", "t", "--order", "10", "--catalog",
      "@zero-denominator-exponent"],
     "record t: exponent: zero denominator"),
    (["list", "--catalog", "@half-extra-length"],
     "record t: extra factor lengths must be nonnegative integer forms"),
    (["list", "--catalog", "@negative-extra-length"],
     "record t: extra factor lengths must be nonnegative integer forms"),
    (["list", "--catalog", "@deep-rhs"],
     "input nested or chained too deeply"),
    (["bailey", "verify", "G1" + " |> S1" * 1500, "--n", "0", "--order", "1"],
     "input nested or chained too deeply"),
    (["expand", "R.R.1", "--side", "rhs", "--order", HUGE_ORDER],
     f"--order {HUGE_ORDER} is past the largest index"),
    (["expand", "R.R.1", "--side", "lhs", "--order", HUGE_ORDER],
     f"--order {HUGE_ORDER} is past the largest index"),
    (["verify", "AG", "--k", "3", "--i", "1", "--order", HUGE_ORDER],
     f"--order {HUGE_ORDER} is past the largest index"),
    (["bailey", "chain", "G1", "--show", "alpha", "--n", "2", "--order", "5",
      "--d-lattice", "1"], "exponent 1/2 is not on the (1/1)-lattice"),
], ids=["general-vanishing", "expand-d0", "chain-show-d0", "verify-d0",
        "bailey-verify-negative-n", "chain-show-negative-n",
        "indefinite-nahm-record", "unknown-key", "kind-key", "repeated-key",
        "id-key", "missing-key", "matrix-junk", "extra-junk",
        "negative-prefactor", "list-negative-prefactor", "indefinite-multisum",
        "list-indefinite-multisum", "list-zero-base",
        "list-route-unknown-seed", "list-route-not-a-chain",
        "chain-show-empty", "chain-equals-show-gamma",
        "verify-negative-order",
        "verify-zero-denominator-order", "bailey-zero-denominator-order",
        "list-zero-base-P", "list-negative-base-NP", "list-zero-J",
        "list-negative-J", "verify-instance-with-k", "expand-id-with-k-i",
        "verify-all-with-i", "bailey-verify-djk-on-g1",
        "bailey-verify-djk-b-q^-2",
        "list-zero-denominator-base", "list-two-vars-one-base",
        "list-repeated-var", "list-divide-by-constant",
        "list-power-of-constant", "list-bad-var-name",
        "verify-zero-denominator-exponent", "list-half-extra-length",
        "list-negative-extra-length", "list-deep-rhs",
        "bailey-verify-long-chain", "expand-rhs-huge-order",
        "expand-lhs-huge-order", "verify-family-huge-order",
        "chain-show-off-lattice"])
def test_error_paths_exit_2_with_one_line(tmp_path, capsys, argv, needle):
    def catalog(name):
        path = tmp_path / f"{name}.cat"
        path.write_text(BAD_CATALOGS[name])
        return str(path)

    argv = [catalog(a[1:]) if a.startswith("@") else a for a in argv]
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("qident: error: ") and needle in err


@pytest.mark.parametrize("argv", [
    ["bailey", "verify", "G1", "--n", "2", "--order", "5", "--catalog", "x"],
    ["bailey", "chain", "G1", "--fail-fast"],
    ["list", "--output", "machine"],
    ["expand", "R.R.1", "--fail-fast"],
])
def test_options_a_subcommand_does_not_read_are_refused(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_out_of_memory_exits_2_with_one_line(capsys, monkeypatch):
    # a family parameter too large to build, such as AG with k = 99999999999,
    # runs out of memory in Catalog.resolve; stand in for it without
    # allocating
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("qident.catalog.Catalog.resolve", exhausted)
    rc, out, err = run(capsys, "verify", "AG", "--k", "99999999999",
                       "--i", "1")
    assert rc == 2 and out == ""
    assert err.splitlines() == ["qident: error: out of memory"]


def test_bailey_verify_human_mode_lists_failing_indices(capsys, monkeypatch):
    def failing(pair, n_max, order, den):
        return PairReport(pair.name, pair.a, Fraction(order),
                          ((0, None), (1, Mismatch(Fraction(3, 2), 1, 0))))

    monkeypatch.setattr("qident.cli.verify_pair", failing)
    rc, out, err = run(capsys, "bailey", "verify", "G1", "--n", "1",
                       "--order", "10")
    assert rc == 1
    assert out.startswith("FAIL  G1")
    assert out.splitlines()[1:] == ["      index 1: first mismatch at q^3/2"]
    assert err == ""


def test_bailey_chain_name_is_accepted_as_input(capsys):
    rc, name, _ = run(capsys, "bailey", "chain",
                      "G1 |> GENERAL(-q^(1/2), q^(3/2))")
    assert rc == 0
    assert name == "G1 |> GENERAL(-q^(1/2), q^(3/2))\n"
    rc, again, _ = run(capsys, "bailey", "chain", name.strip())
    assert rc == 0 and again == name


@pytest.mark.parametrize("expr, rho, j", [
    ("G1 |> GENERAL(q, q)", "q", 0),
    ("G2 |> GENERAL(q^2, -q)", "q^2", 0),
    ("G1 |> S1 |> GENERAL(q^3, 2)", "q^3", 2),
])
def test_singular_general_is_refused_before_any_output(capsys, expr, rho, j):
    # aq/rho = q^-j makes (aq/rho;q)_n vanish for n > j; the step refuses it
    # when applied, so no beta_0 is printed before the failure
    rc, out, err = run(capsys, "bailey", "chain", expr, "--show", "beta",
                       "--n", "3", "--order", "4")
    assert rc == 2 and out == ""
    assert err.splitlines() == [
        f"qident: error: GENERAL is singular for rho = {rho}: (aq/rho;q)_n "
        f"has the factor 1 - 1 for every n > {j}"]


@pytest.mark.parametrize("expr", ["G1 |> GENERAL(q^(3/2), -q)",
                                  "G1 |> GENERAL(2*q, -q)"])
def test_general_near_singular_still_applies(capsys, expr):
    rc, out, err = run(capsys, "bailey", "chain", expr, "--show", "beta",
                       "--n", "3", "--order", "4")
    assert rc == 0 and err == ""
    assert [line for line in out.splitlines() if line.startswith("beta_")] \
        == [f"beta_{n}:" for n in range(4)]


def test_bailey_chain_rejects_leading_plus(capsys):
    rc, _, err = run(capsys, "bailey", "chain", "G1 |> DJK(+q^2)")
    assert rc == 2
    assert len(err.splitlines()) == 1 and err.startswith("qident: error: ")


# -- seeded fuzz of the exit-2 boundary ----------------------------------------

FUZZ_CHAINS = ("G1 |> S3", "G2 |> DJK(q^2) |> S1", "G1star |> DJKLIM(q^(3/2))",
               "G1 |> GENERAL(-q^(1/2), q^(3/2))", "G3 |> S1 |> S5",
               "G2 |> DJK(1/2*q^-2)")
FUZZ_ORDERS = ("-1", "-1/4", "1/0", "0/0", "", " ", "x", "1//2", "nan", "q",
               "2-1", "1/-2")


class _Hang(Exception):
    """A fuzz case outran its alarm (not an error main turns into exit 2)."""


def _edit(rng, text, alphabet):
    """text with 1-3 random character replacements, inserts or deletes."""
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(chars) + 1)
        op = rng.choice("rid") if chars else "i"
        if op == "i":
            chars.insert(i, rng.choice(alphabet))
        elif op == "r":
            chars[min(i, len(chars) - 1)] = rng.choice(alphabet)
        else:
            del chars[min(i, len(chars) - 1)]
    return "".join(chars)


def _fuzz_cases(rng, tmp_path):
    """200 argv lists: edited catalog records, edited chain text, and
    bad --order, --n and --d-lattice values.  Values go in as --opt=value
    and positionals after --, so argparse hands every one to main."""
    records = re.split(r"(?m)^(?=\[identity )", packaged_catalog_text())[1:]
    cases = []
    for j in range(80):
        path = tmp_path / f"edit{j}.cat"
        path.write_text(_edit(rng, rng.choice(records),
                              "0123456789-+*/^(),;[]=\" \nijkqPTNJ"))
        cases.append(["verify", "all", "--order=6", f"--catalog={path}"])
    for _ in range(60):
        expr = _edit(rng, rng.choice(FUZZ_CHAINS),
                     "0123456789-+*/^(),|> qGSDJKLIMNERA")
        cases.append(rng.choice([
            ["bailey", "verify", "--n=2", "--order=6", "--", expr],
            ["bailey", "chain", "--show=alpha,beta", "--n=1", "--order=4",
             "--", expr],
            ["bailey", "chain", "--equals=G1", "--n=1", "--order=4", "--",
             expr]]))
    for _ in range(60):
        cmd, takes_n = rng.choice([
            (["verify", "R.R.1"], False), (["expand", "table2.1.1"], False),
            (["bailey", "verify", "G1"], True),
            (["bailey", "chain", "G2 |> S3", "--show=beta"], True)])
        opts = ["--order=4", "--n=1"] if takes_n else ["--order=4"]
        bad = rng.choice(["order", "lattice", "n"] if takes_n
                         else ["order", "lattice"])
        if bad == "order":
            opts[0] = f"--order={rng.choice(FUZZ_ORDERS)}"
        elif bad == "n":
            opts[1] = f"--n={rng.randint(-3, -1)}"
        else:
            opts.append(f"--d-lattice={rng.choice([-4, -1, 0, 3, 5])}")
        cases.append(cmd + opts)
    return cases


def test_fuzzed_inputs_exit_0_1_or_2_with_one_error_line(tmp_path, capsys):
    """Seeded bad input never escapes main: every case exits 0, 1 or 2,
    exit 2 prints exactly one stderr line starting "qident: error:", and
    no case runs past its alarm."""
    def hang(signum, frame):
        raise _Hang()

    rng = random.Random(20261021)
    cases = _fuzz_cases(rng, tmp_path)
    assert len(cases) == 200
    codes = []
    old = signal.signal(signal.SIGALRM, hang)
    try:
        for argv in cases:
            signal.alarm(2)
            try:
                rc = main(argv)
            except _Hang:
                pytest.fail(f"no result within 2 s: {argv}")
            finally:
                signal.alarm(0)
            err = capsys.readouterr().err
            assert rc in (0, 1, 2), argv
            if rc == 2:
                lines = err.splitlines()
                assert len(lines) == 1 and lines[0].startswith(
                    "qident: error: "), (argv, err)
            codes.append(rc)
    finally:
        signal.signal(signal.SIGALRM, old)
    assert {0, 2} <= set(codes)
