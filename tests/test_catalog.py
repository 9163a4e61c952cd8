"""Catalog records, expression parsers, families and the verify pipeline."""

import random
import re
from fractions import Fraction

import pytest

from qident.catalog import (
    FAMILIES,
    load_catalog,
    parse_affine,
    parse_catalog_text,
    parse_exponent,
    parse_extra,
    parse_prefactor,
    parse_rhs,
)
from qident.nahm import AffineForm, lattice_bound, multi_sum
from qident.products import (
    NP,
    P,
    TP,
    J,
    ProductExpr,
    eval_product_sum,
    poch_finite,
)
from qident.series import (
    Monomial,
    QSeries,
    dump,
    invert_unit,
    qmono,
    substitute_power,
)
from helpers import brute_sum, count_gap2, count_partitions

H = Fraction(1, 2)


@pytest.fixture(scope="module")
def cat():
    return load_catalog()


# -- expression parsers ----------------------------------------------------

def test_parse_exponent_basic():
    quad, lin, const = parse_exponent("i^2 + 2ij + 3j^2 - i + 5", ("i", "j"))
    assert quad == ((2, 2), (2, 6))
    assert lin == (-1, 0)
    assert const == 5
    # convention: exponent(x) = x^T quad x / 2 + lin.x + const
    assert Fraction(1, 2) * (2 * 4 + 2 * 2 * 6 + 6 * 9) - 2 + 5 \
        == 4 + 2 * 2 * 3 + 3 * 9 - 2 + 5


def test_parse_exponent_rational_and_squares():
    quad, lin, const = parse_exponent("(1/2)m^2 + mn - (3/2)n", ("m", "n"))
    assert quad == ((1, 1), (1, 0))
    assert lin == (0, Fraction(-3, 2))
    assert const == 0


def test_parse_exponent_partial_sum_names():
    # N2 = n2 + n3, N1 = n1 + n2 + n3 when vars form a consecutive block
    quad, lin, const = parse_exponent("N1^2 + N2^2 + N3^2 + N2 + N3",
                                      ("n1", "n2", "n3"))
    vals = []
    for p in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 2, 3)):
        n1, n2, n3 = p
        big = [n1 + n2 + n3, n2 + n3, n3]
        direct = sum(x * x for x in big) + big[1] + big[2]
        half = sum(quad[a][b] * p[a] * p[b]
                   for a in range(3) for b in range(3))
        vals.append(Fraction(half, 2) + sum(l * x for l, x in zip(lin, p)))
        assert vals[-1] == direct
    assert const == 0


def test_parse_exponent_errors():
    with pytest.raises(ValueError):
        parse_exponent("i^2 2j", ("i", "j"))  # missing operator
    with pytest.raises(ValueError):
        parse_exponent("i^2 +", ("i",))
    with pytest.raises(ValueError):
        parse_exponent("i^3", ("i",))
    with pytest.raises(ValueError):
        parse_exponent("ijk", ("i", "j", "k"))  # degree 3
    with pytest.raises(ValueError):
        parse_exponent("x^2", ("i",))


def test_parse_affine():
    form = parse_affine("2i + j - 3", ("i", "j"))
    assert form == AffineForm(-3, (2, 1))
    assert parse_affine("1/2 + 3/2 i", ("i",)) == AffineForm(H, (Fraction(3, 2),))
    assert parse_affine("N2", ("n1", "n2")) == AffineForm(0, (0, 1))
    with pytest.raises(ValueError):
        parse_affine("2 & i", ("i",))


def test_parse_prefactor():
    pf = parse_prefactor("1 + q^(2i + 2j + 4k + 2)", ("i", "j", "k"))
    assert pf == ((1, AffineForm(0, (0, 0, 0))),
                  (1, AffineForm(2, (2, 2, 4))))
    pf = parse_prefactor("3*q^(n) + 2", ("n",))
    assert pf == ((3, AffineForm(0, (1,))), (2, AffineForm(0, (0,))))
    with pytest.raises(ValueError):
        parse_prefactor("q^n", ("n",))  # parentheses required


def test_parse_extra():
    pf = parse_extra("pochf(-q^(1/2); q; n)", ("m", "n"))
    assert pf.arg == Monomial(-1, H)
    assert pf.base == 1
    assert pf.length == AffineForm(0, (0, 1))
    assert pf.power == 1
    inv = parse_extra("1/pochf(-q; q^2; 2m + 1)", ("m",))
    assert inv.power == -1
    assert inv.base == 2
    assert inv.length == AffineForm(1, (2,))
    with pytest.raises(ValueError):
        parse_extra("poch(-q; q; n)", ("n",))


def test_parse_rhs_atoms_and_quotients():
    assert parse_rhs("1 / ( P(1;5) * P(4;5) )") == \
        (ProductExpr((), (Monomial(1, 0),)) / (P(1, 5) * P(4, 5)),)
    assert parse_rhs("TP(1,4,7;8)") == (TP(1, 4, 7, 8),)
    assert parse_rhs("NP(1/2;1) * J(4,14)^2 / J(2)") == \
        (NP(H, 1) * J(4, 14) ** 2 / J(2),)
    assert parse_rhs("2 * P(8;8) / P(2;2)")[0].prefactor == (Monomial(2, 0),)


def test_parse_rhs_one_plus_and_lists():
    one_plus = parse_rhs("(1 + q^(3/2)) * P(2;2)")[0]
    assert one_plus.prefactor == (Monomial(1, 0), Monomial(1, Fraction(3, 2)))
    pair = parse_rhs("[ TP(3,5,8;8) / P(1;1), TP(1,7,8;8) / P(1;1) ]")
    assert len(pair) == 2
    assert pair[1] == TP(1, 7, 8, 8) / P(1, 1)


def test_parse_rhs_errors():
    with pytest.raises(ValueError):
        parse_rhs("Q(1;5)")
    with pytest.raises(ValueError):
        parse_rhs("P(1;5;7)")
    with pytest.raises(ValueError):
        parse_rhs("TP(1,4;8)")
    with pytest.raises(ValueError):
        parse_rhs("J(1,2,3)")
    with pytest.raises(ValueError):
        parse_rhs("P(1;5) P(4;5)")  # missing operator
    with pytest.raises(ValueError):
        parse_rhs("J(0,5)")  # atom constraint: 0 < a < m


# -- record parsing --------------------------------------------------------

def test_catalog_counts_and_tags(cat):
    assert len(cat.ids()) == 67
    assert cat.manifest() == {
        "intro": 2, "example1": 2, "example2": 3, "example3": 5,
        "example4": 5, "example5": 3, "example6": 2, "example7": 2,
        "example8": 3, "example9": 5, "example10": 2, "example11": 5,
        "example12": 4, "example13": 5, "example14": 3, "example15": 4,
        "example16": 3, "example17": 3, "example18": 3, "example19": 3,
    }


def test_list_and_get(cat):
    assert cat.list("example13") == [
        "eq-13-sum", "table2.13.1", "table2.13.2", "table2.13.3",
        "table2.13.4"]
    assert cat.list("nonsense") == []
    full = cat.list()
    assert len(full) == 67 + 21
    assert set(FAMILIES) <= set(full)
    with pytest.raises(KeyError):
        cat.get("table9.9.9")


def test_nahm_record_golden(cat):
    ident = cat.get("table2.11.2")
    assert ident.quadruple is not None
    q = ident.quadruple
    assert q.d == (1, 1, 2)
    assert q.A == ((2, 2, 1), (2, 4, 2), (2, 4, 3))
    assert ident.spec.names == ("n1", "n2", "n3")
    # AD is the stored displayed quadratic form
    assert ident.spec.quad == q.ad


def test_multisum_record_golden(cat):
    ident = cat.get("eq-13-sum")
    assert ident.spec.prefactor != ()
    assert ident.base_substitution == 2
    assert cat.get("exam12-1").spec.denoms == (2, 2, 4)


def test_catalog_text_errors():
    with pytest.raises(ValueError):
        parse_catalog_text("vars = i\n")
    with pytest.raises(ValueError):
        parse_catalog_text("[identity x]\njust words\n")
    dup = ("[identity x]\nlhs.kind = multisum\nvars = n\n"
           "exponent = \"n^2\"\ndenoms = [q]\nrhs = \"P(1;1)\"\n")
    with pytest.raises(ValueError):
        parse_catalog_text(dup + dup)


def test_load_catalog_from_path(tmp_path):
    text = ("[identity toy]\nlhs.kind = multisum\nvars = n\n"
            "exponent = \"n^2\"\ndenoms = [q]\n"
            "rhs = \"1 / ( P(1;5) * P(4;5) )\"\n")
    p = tmp_path / "one.cat"
    p.write_text(text)
    small = load_catalog(str(p))
    assert small.ids() == ("toy",)
    assert small.verify("toy", 25).equal


# -- verification reports --------------------------------------------------

def test_verify_report_fields(cat):
    rep = cat.verify("R.R.1", 30)
    assert rep.equal and rep.status == "PASS"
    assert rep.first_mismatch is None
    assert re.fullmatch(r"[0-9a-f]{64}", rep.lhs_digest)
    assert rep.lhs_digest == rep.rhs_digest
    assert len(rep.box) == 1 and rep.box[0] >= 5
    assert rep.lhs_terms > 0 and rep.rhs_terms > 0
    assert rep.wall_time >= 0


def test_verify_failure_carries_mismatch(cat):
    import dataclasses
    broken = dataclasses.replace(cat.get("R.R.1"),
                                 rhs=parse_rhs("1 / ( P(1;5) * P(3;5) )"))
    rep = cat.verify(broken, 30)
    assert not rep.equal and rep.status == "FAIL"
    assert rep.first_mismatch is not None
    assert rep.first_mismatch.exponent == 3
    assert rep.lhs_digest != rep.rhs_digest


def test_intro_pair_against_counting_oracles(cat):
    rr1 = cat.get("R.R.1")
    lhs = multi_sum(rr1.spec, 40)
    rhs = eval_product_sum(rr1.rhs, 40)
    for n in range(41):
        assert lhs.terms.get(4 * n, 0) == count_gap2(n)
        assert rhs.terms.get(4 * n, 0) == \
            count_partitions(n, [p for p in range(1, n + 1) if p % 5 in (1, 4)])
    rr2 = cat.get("R.R.2")
    lhs = multi_sum(rr2.spec, 40)
    for n in range(41):
        assert lhs.terms.get(4 * n, 0) == count_gap2(n, min_part=2)


def test_triple_sum_against_brute_force(cat):
    spec = cat.get("table2.13.1").spec
    order = 24
    box = lattice_bound(spec, order)

    def term(pt):
        e = spec.exponent(pt)
        if e > order:
            return None
        acc = QSeries.one(4) * Monomial(1, e)
        for t, d in enumerate(spec.denoms):
            acc = acc * invert_unit(poch_finite(qmono(d), d, pt[t], order),
                                    order)
        return acc.truncated(order)

    # widen the enumeration window so the oracle does not inherit the box
    direct = brute_sum(order, 4, [b + 2 for b in box], term)
    assert direct == multi_sum(spec, order)


def test_all_fixed_records_verify(cat):
    for rid in cat.ids():
        rep = cat.verify(rid, 30)
        assert rep.equal, f"{rid} fails first at {rep.first_mismatch}"


# -- families ----------------------------------------------------------------

def test_family_registry(cat):
    assert len(FAMILIES) == 21
    assert set(cat.families) == set(FAMILIES)


def test_family_domain_errors(cat):
    with pytest.raises(ValueError):
        cat.instantiate_family("AG", 1, 1)
    with pytest.raises(ValueError):
        cat.instantiate_family("AG", 2, 5)
    with pytest.raises(ValueError):
        cat.instantiate_family("AG", 3)  # needs i
    with pytest.raises(ValueError):
        cat.instantiate_family("thm1.2", 2, 1)  # takes only k
    with pytest.raises(ValueError):
        cat.instantiate_family("And2", 4, 2)  # k must be odd
    with pytest.raises(ValueError):
        cat.instantiate_family("And1", 3, 2)  # parity mismatch
    with pytest.raises(ValueError):
        cat.instantiate_family("exam9gen", 2, 1)
    with pytest.raises(ValueError):
        cat.instantiate_family("Bressoud1980", 2, 2)
    with pytest.raises(KeyError):
        cat.instantiate_family("nosuch", 2, 1)


def test_resolve_tokens(cat):
    assert cat.resolve("R.R.1").id == "R.R.1"
    assert cat.resolve("AG(3,2)").id == "AG(3,2)"
    assert cat.resolve("thm1.2(2)").id == "thm1.2(2)"
    assert cat.resolve("Warnaar", k=2, i=1).id == "Warnaar(2,1)"
    with pytest.raises(ValueError):
        cat.resolve("Warnaar")
    with pytest.raises(KeyError):
        cat.resolve("Zed(2,1)")


def test_warnaar_exponent_builder():
    rng = random.Random(99)
    for k in range(2, 6):
        for i in range(1, k + 1):
            spec = FAMILIES["Warnaar"].instantiate(k, i).spec
            assert spec.denoms == (1,) * (k - 1) + (2,)
            for _ in range(6):
                p = tuple(rng.randrange(5) for _ in range(k))
                big = [sum(p[t:]) for t in range(k)]
                direct = Fraction(sum(x * x for x in big), 2) + \
                    sum(big[j - 1] for j in range(i, k + 1, 2))
                assert spec.exponent(p) == direct


def test_small_family_instances_verify(cat):
    for token in ("Bressoud(2,1)", "Warnaar(2,2)", "thm1.1(1,1)",
                  "corgen13(1,2)", "gen14(1,1)", "And1(2,2)",
                  "exam9gen(3,2)", "Bressoud1980(2,1)"):
        rep = cat.verify(token, 16)
        assert rep.equal, f"{token} fails first at {rep.first_mismatch}"


def test_summed_rhs_family_full_domain(cat):
    # the one family whose rhs is a sum of products; i runs below k here
    for k in (2, 3, 4):
        for i in range(1, k):
            rep = cat.verify(f"Bressoud1980({k},{i})", 25)
            assert rep.equal, f"Bressoud1980({k},{i}) fails at {rep.first_mismatch}"


def test_family_instances_match_stored_records(cat):
    # base-halved instances reproduce the stored displayed records exactly
    X = 12
    pairing = [("corgen13(2,3)", "table2.13.1"),
               ("corgen13(2,2)", "table2.13.2"),
               ("corgen13(2,1)", "table2.13.3"),
               ("corgen13last(2)", "table2.13.4")]
    for token, rid in pairing:
        inst = cat.resolve(token)
        fixed = cat.get(rid)
        assert fixed.base_substitution == 2
        lhs = dump(substitute_power(multi_sum(inst.spec, X), 2), 2 * X)
        assert lhs == dump(multi_sum(fixed.spec, 2 * X), 2 * X)
        rhs = dump(substitute_power(eval_product_sum(inst.rhs, X), 2), 2 * X)
        assert rhs == dump(eval_product_sum(fixed.rhs, 2 * X), 2 * X)
    for token, rid in [("AG(2,2)", "R.R.1"), ("AG(2,1)", "R.R.2")]:
        inst = cat.resolve(token)
        fixed = cat.get(rid)
        assert dump(multi_sum(inst.spec, 20), 20) == \
            dump(multi_sum(fixed.spec, 20), 20)
        assert dump(eval_product_sum(inst.rhs, 20), 20) == \
            dump(eval_product_sum(fixed.rhs, 20), 20)


# -- reduction cross-checks ---------------------------------------------------

def test_reduction_routes(cat):
    rep = cat.cross_check_reduction("table2.1.1", 20)
    assert rep.equal and rep.route == "euler" and rep.removed == ("n1",)
    rep = cat.cross_check_reduction("table2.3.1", 20)
    assert rep.equal and rep.route == "merge" and rep.removed == ("n2", "n3")
    rep = cat.cross_check_reduction("table2.9.5", 20)
    assert rep.equal and rep.route == "merge" and rep.removed == ("n1", "n3")
    rep = cat.cross_check_reduction("table2.9.6", 20)
    assert rep.equal and rep.route == "merge" and rep.removed == ("n2", "n3")


def test_reduction_route_missing(cat):
    with pytest.raises(LookupError):
        cat.cross_check_reduction("table2.11.1", 10)
    with pytest.raises(LookupError):
        cat.cross_check_reduction("eq-13-sum", 10)


def test_bailey_route_for_halved_base_record(cat):
    rep = cat.cross_check_reduction("exam12-1", 24)
    assert rep.equal
    assert rep.route == "bailey"
    assert rep.removed == ("i",)
