"""Command line behavior: output shapes, exit codes, determinism."""

import re
from fractions import Fraction

import pytest

from qident.bailey import PairReport
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


def _norm_ms(text):
    return re.sub(r"\t\d+$", "\tMS", text, flags=re.M)


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_verify_machine_golden(capsys):
    rc, out, _ = run(capsys, "verify", "R.R.2", "table2.1.1", "R.R.1",
                     "--order", "20", "--output", "machine")
    assert rc == 0
    assert _norm_ms(out) == ("R.R.1\tPASS\t20\tMS\n"
                             "R.R.2\tPASS\t20\tMS\n"
                             "table2.1.1\tPASS\t20\tMS\n")


def test_verify_thread_count_does_not_change_output(capsys):
    ids = ["table2.13.1", "table2.13.2", "table2.13.3", "table2.13.4",
           "eq-13-sum", "R.R.1"]
    rc1, out1, _ = run(capsys, "verify", *ids, "--order", "24",
                       "--output", "machine", "--threads", "1")
    rc4, out4, _ = run(capsys, "verify", *ids, "--order", "24",
                       "--output", "machine", "--threads", "4")
    assert rc1 == rc4 == 0
    assert _norm_ms(out1) == _norm_ms(out4)
    assert [l.split("\t")[0] for l in out1.splitlines()] == sorted(set(ids))


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
     "vanishing Pochhammer factor"),
    (["expand", "R.R.1", "--order", "10", "--d-lattice", "0"],
     "--d-lattice"),
    (["bailey", "chain", "G1", "--show", "beta", "--n", "1", "--order", "4",
      "--d-lattice", "0"], "--d-lattice"),
    (["verify", "R.R.1", "--d-lattice", "0"], "--d-lattice"),
    (["expand", "indefinite.1", "--side", "lhs", "--order", "10",
      "--catalog", "INDEFINITE"], "positive definite"),
], ids=["general-vanishing", "expand-d0", "chain-show-d0", "verify-d0",
        "indefinite-nahm-record"])
def test_error_paths_exit_2_with_one_line(tmp_path, capsys, argv, needle):
    path = tmp_path / "indefinite.cat"
    path.write_text(INDEFINITE_CATALOG)
    argv = [str(path) if a == "INDEFINITE" else a for a in argv]
    rc, _, err = run(capsys, *argv)
    assert rc == 2
    assert len(err.splitlines()) == 1
    assert err.startswith("qident: error: ") and needle in err


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
