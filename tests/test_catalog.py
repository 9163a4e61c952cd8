"""Catalog records, expression parsers, families and the verify pipeline."""

import ast
import dataclasses
import hashlib
import random
import re
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest

import qident
from qident.bailey import (
    builtin_pair,
    general_bailey_check,
    limit_identity,
    pairs_equal,
    term,
    verify_pair,
)
from qident.catalog import (
    FAMILIES,
    RECORD_KEYS,
    load_catalog,
    packaged_catalog_text,
    parse_affine,
    parse_catalog_text,
    parse_chain,
    parse_exponent,
    parse_extra,
    parse_prefactor,
    parse_rhs,
)
from qident.nahm import (
    AffineForm,
    PochFactor,
    lattice_bound,
    multi_sum,
    nahm_spec,
)
from qident.products import (
    NP,
    P,
    TP,
    J,
    PochRow,
    ProductExpr,
    eval_product,
    eval_product_sum,
    poch_infinite,
)
from qident.series import (
    Monomial,
    QSeries,
    dump,
    invert_unit,
    qmono,
    substitute_power,
)
from helpers import FAMILY_EXPONENTS, brute_sum, count_gap2, count_partitions

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
    # a family builder states the same sum as terms, through the same form
    spec = FAMILIES["AG"].instantiate(4, 2).spec
    assert (spec.quad, spec.lin, spec.const) == (quad, lin, const)


def test_parse_exponent_declared_name_shadows_a_partial_sum():
    # N1 is declared, so it is its own variable and not n1 + n2; the
    # undeclared N2 is still the derived partial sum n2
    quad, lin, const = parse_exponent("N1^2 + N2", ("n1", "n2", "N1"))
    assert quad == ((0, 0, 0), (0, 0, 0), (0, 0, 2))
    assert lin == (0, 1, 0) and const == 0


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


# Declared names for the differential test; juxtaposed names must split back
# uniquely, and the n1..nk blocks bring the partial-sum names N1..Nk.
NAME_SETS = [("i", "j"), ("i", "j", "k"), ("a", "b", "c", "d"),
             ("n1", "n2"), ("n1", "n2", "n3"), ("m", "n1", "n2"),
             ("n1", "n2", "n3", "n4")]


def _symbols(names):
    """Declared names as unit vectors plus Nj = nj + ... + nk, computed
    independently of the parser."""
    k = len(names)
    vecs = {nm: tuple(int(t == a) for t in range(k))
            for a, nm in enumerate(names)}
    block = [nm for nm in names if re.fullmatch(r"n\d", nm)]
    for j in range(1, len(block) + 1):
        vecs[f"N{j}"] = tuple(int(nm in block[j - 1:]) for nm in names)
    return vecs


def _random_poly(rng, names, cap):
    """Random nonzero rational terms of degree <= cap and their (quad, lin,
    const) with value(x) = (1/2) x^T quad x + lin.x + const."""
    vecs = _symbols(names)
    k = len(names)
    quad = [[Fraction(0)] * k for _ in range(k)]
    lin = [Fraction(0)] * k
    const = Fraction(0)
    terms = []
    for _ in range(rng.randint(1, 6)):
        coeff = Fraction(rng.choice([1, 1, 2, 3, 7]), rng.choice([1, 1, 2, 3]))
        coeff *= rng.choice([1, -1])
        factors = tuple(rng.choice(sorted(vecs)) for _ in range(rng.randint(0, cap)))
        terms.append((coeff, factors))
        if not factors:
            const += coeff
        elif len(factors) == 1:
            lin = [l + coeff * v for l, v in zip(lin, vecs[factors[0]])]
        else:
            u, v = (vecs[f] for f in factors)
            for a in range(k):
                for b in range(k):
                    quad[a][b] += coeff * (u[a] * v[b] + v[a] * u[b])
    return terms, (tuple(map(tuple, quad)), tuple(lin), const)


def _spell_ratio(rng, x):
    text = str(x.numerator) if x.denominator == 1 else \
        f"{x.numerator}/{x.denominator}"
    return rng.choice([text, f"({text})"])


def _spell_poly(rng, terms):
    """Render terms in a random choice of every accepted spelling."""
    out = []
    for n, (coeff, factors) in enumerate(terms):
        sp = rng.choice(["", " "])
        if coeff < 0 and rng.random() < 0.3:
            sign, mag = "+", f"(-{abs(coeff)})"
        else:
            sign = "-" if coeff < 0 else rng.choice(["+", "+", ""] if n == 0
                                                     else ["+"])
            mag = _spell_ratio(rng, abs(coeff))
            if abs(coeff) == 1 and factors and rng.random() < 0.6:
                mag = ""
        if mag and factors:
            mag += rng.choice(["", " ", "*", " * "])
        if len(factors) == 2 and factors[0] == factors[1]:
            body = rng.choice([f"{factors[0]}^2", factors[0] * 2,
                               f"{factors[0]} {factors[0]}"])
        else:
            body = rng.choice(["", " "]).join(factors)
        out.append(f"{sign}{sp}{mag}{body}" if n == 0 or sign else mag + body)
    return "".join(t if n == 0 else rng.choice([" ", ""]) + t
                   for n, t in enumerate(out))


def test_term_grammar_differential():
    rng = random.Random(20261018)
    for _ in range(400):
        names = rng.choice(NAME_SETS)
        terms, (quad, lin, const) = _random_poly(rng, names, 2)
        text = _spell_poly(rng, terms)
        assert parse_exponent(text, names) == (quad, lin, const), text
        terms, (_, lin, const) = _random_poly(rng, names, 1)
        text = _spell_poly(rng, terms)
        assert parse_affine(text, names) == AffineForm(const, lin), text


def test_prefactor_and_extra_round_trip():
    rng = random.Random(7)
    for _ in range(200):
        names = rng.choice(NAME_SETS)
        monos, expected = [], []
        for _ in range(rng.randint(1, 3)):
            c = Fraction(rng.choice([1, 2, 5]), rng.choice([1, 1, 3]))
            terms, (_, lin, const) = _random_poly(rng, names, 1)
            mag = str(c) if c != 1 or rng.random() < 0.5 else ""
            if mag:
                mag += rng.choice(["", "*", " * "])
            monos.append(f"{mag}q^({_spell_poly(rng, terms)})")
            expected.append((int(c) if c.denominator == 1 else c,
                             AffineForm(const, lin)))
        text = rng.choice([" + ", "+"]).join(monos)
        assert parse_prefactor(text, names) == tuple(expected), text

        coeff = rng.choice([1, -1]) * Fraction(rng.choice([1, 2]),
                                                rng.choice([1, 3]))
        exp = Fraction(rng.randint(-3, 5), rng.choice([1, 2]))
        base = rng.randint(1, 4)
        terms, (_, lin, const) = _random_poly(rng, names, 1)
        power = rng.choice([1, -1])
        arg = ("-" if coeff < 0 else "") + \
            ("" if abs(coeff) == 1 else f"{abs(coeff)}*") + "q" + \
            ("" if exp == 1 else f"^({exp})")
        text = (f"{'1/' if power < 0 else ''}pochf({arg}; "
                f"q{'' if base == 1 else f'^{base}'}; {_spell_poly(rng, terms)})")
        assert parse_extra(text, names) == PochFactor(
            Monomial(coeff, exp), Fraction(base), AffineForm(const, lin),
            power), text


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
    spec = nahm_spec([[2, 2, 1], [2, 4, 2], [2, 4, 3]], [0, 0, 0], 0,
                     [1, 1, 2])
    assert ident.spec == spec
    assert spec.names == ("n1", "n2", "n3")
    # AD is the stored displayed quadratic form
    assert spec.quad == ((2, 2, 2), (2, 4, 4), (2, 4, 6))
    assert spec.denoms == (1, 1, 2)


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


@pytest.mark.parametrize("exponent, error", [
    ("i^2 - j^2", "record indef: unbounded enumeration: nonpositive diagonal"),
    ("1/2 i^2 + 1/2 j^2 + 2ij", None),
])
def test_multisum_form_checked_at_load(exponent, error):
    text = ("[identity indef]\nlhs.kind = multisum\nvars = i, j\n"
            f'exponent = "{exponent}"\ndenoms = [q, q]\nrhs = "P(1;1)"\n')
    if error is not None:
        with pytest.raises(ValueError, match=re.escape(error)):
            parse_catalog_text(text)
        return
    # not positive definite, but with no negative entry the orthant box holds
    spec = parse_catalog_text(text)["indef"].spec
    assert lattice_bound(spec, 6) == [3, 3]


@pytest.mark.parametrize("field", [
    "A = [[1,2] junk [3,4]]",
    "A = [[2,2,1],[2,4,2],[2,4,3]",
    "b = [0, 0,]",
    "d = [1, 1/2, 2]",
])
def test_nahm_record_brackets_rejected(field):
    key = field.split()[0]
    fields = {"A": "A = [[2,2,1],[2,4,2],[2,4,3]]", "b": "b = [0, 0, 0]",
              "d": "d = [1, 1, 2]"}
    fields[key] = field
    text = ("[identity x]\nlhs.kind = nahm\n" + "\n".join(fields.values()) +
            "\nrhs = \"P(1;1)\"\n")
    with pytest.raises(ValueError, match=f"record x: {key}: "):
        parse_catalog_text(text)


@pytest.mark.parametrize("extra", [
    '["pochf(-q; q; n)" junk]',
    '["pochf(-q; q; n)", junk "1/pochf(-q; q; n)"]',
    '["pochf(-q; q; n)" "1/pochf(-q; q; n)"]',
    '"pochf(-q; q; n)"',
])
def test_extra_list_junk_rejected(extra):
    text = ("[identity x]\nlhs.kind = multisum\nvars = n\n"
            "exponent = \"n^2\"\ndenoms = [q]\n"
            f"extra = {extra}\nrhs = \"P(1;1)\"\n")
    with pytest.raises(ValueError, match="record x: extra: "):
        parse_catalog_text(text)


def test_grammar_key_production_matches_key_table():
    ebnf = resources.files("qident").joinpath(
        "data", "catalog-grammar.ebnf").read_text(encoding="utf-8")
    production = re.search(r"^key\s*=(.*?);", ebnf, re.M | re.S).group(1)
    documented = set(re.findall(r'"([^"]+)"', production))
    assert documented == set().union(*RECORD_KEYS.values())


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
            acc = acc * invert_unit(PochRow((qmono(d),), d, order)[pt[t]],
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


def test_readme_family_table_names_every_family():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = readme.split("| family | parameters |")[1].split("\n\n")[0]
    names = [name for line in table.splitlines()[2:]
             for name in re.findall(r"`([^`]+)`", line.split("|")[1])]
    assert sorted(names) == sorted(FAMILIES)


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


def test_every_family_exponent_matches_its_oracle():
    # PARSE_DIGEST pins the instances with k <= 4 only
    rng = random.Random(33)
    assert sorted(FAMILY_EXPONENTS) == sorted(FAMILIES)
    for name, gen in FAMILIES.items():
        oracle = FAMILY_EXPONENTS[name]
        for k in range(gen.k_min, 7):
            for i in gen.i_values(k):
                spec = gen.instantiate(k, i).spec
                for _ in range(4):
                    p = tuple(rng.randrange(5) for _ in spec.names)
                    assert spec.exponent(p) == oracle(k, i, p), (name, k, i, p)


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


def _family_instances(k_max=4):
    """Every family instance with k <= k_max, families in registry order."""
    return [gen.instantiate(k, i) for gen in FAMILIES.values()
            for k in range(gen.k_min, k_max + 1) for i in gen.i_values(k)]


# SHA-256 over repr(Identity) of the 67 packaged records, then of the 221
# family instances with k <= 4, one line each.  Any change to factor order,
# to Monomial normalization or to a Fraction field that becomes an int moves it.
PARSE_DIGEST = \
    "1717ad3a2f33053090cc647fb1843aca8ec361f3399f6e35b39e690028861deb"


def test_parsed_records_and_family_instances_are_pinned():
    records = parse_catalog_text(packaged_catalog_text())
    instances = _family_instances()
    assert (len(records), len(instances)) == (67, 221)
    h = hashlib.sha256()
    for ident in [*records.values(), *instances]:
        h.update(repr(ident).encode() + b"\n")
    assert h.hexdigest() == PARSE_DIGEST


def test_building_the_catalog_hashes_no_fraction(monkeypatch):
    # the product algebra keys factors and exponents by ints; a Fraction's
    # hash is pure Python and computes a modular inverse
    calls = []
    fraction_hash = Fraction.__hash__
    monkeypatch.setattr(Fraction, "__hash__",
                        lambda x: calls.append(x) or fraction_hash(x))
    assert hash(Fraction(1, 3)) == fraction_hash(Fraction(1, 3))
    assert len(calls) == 1
    calls.clear()
    parse_catalog_text(packaged_catalog_text())
    assert len(calls) == 0
    _family_instances()
    assert len(calls) == 0


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
    assert rep.equal and rep.route == "euler" and rep.removed == ("i",)
    rep = cat.cross_check_reduction("table2.3.1", 20)
    assert rep.equal and rep.route == "merge" and rep.removed == ("j", "k")
    rep = cat.cross_check_reduction("table2.9.5", 20)
    assert rep.equal and rep.route == "merge" and rep.removed == ("i", "k")
    rep = cat.cross_check_reduction("table2.9.6", 20)
    assert rep.equal and rep.route == "merge" and rep.removed == ("j", "k")


def test_reduction_route_table(cat):
    routes, unrouted = {}, []
    for rid in cat.ids():
        try:
            route = cat.cross_check_reduction(rid, 12).route
        except LookupError:
            unrouted.append(rid)
            continue
        routes[route] = routes.get(route, 0) + 1
    assert routes == {"euler": 32, "merge": 26, "bailey": 1}
    assert unrouted == ["R.R.1", "R.R.2", "eq-13-sum"] + [
        f"table2.11.{j}" for j in range(1, 6)]


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


def test_wrong_route_is_caught(cat):
    ident = cat.get("exam12-1")
    assert ident.route == parse_chain("G1 |> S3")
    wrong = dataclasses.replace(ident, route=parse_chain("G3 |> S3"))
    rep = cat.cross_check_reduction(wrong, 24)
    assert rep.route == "bailey" and not rep.equal


def test_no_record_id_in_code(cat):
    # what a record needs is stated in its record, not keyed on its id
    ids = set(cat.ids())
    for path in Path(qident.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                assert node.value not in ids, (path.name, node.value)


# -- the entry contract of every evaluator ------------------------------------

G1 = builtin_pair("G1")
EVALUATORS = {
    "poch_infinite": lambda cat, o, d: poch_infinite(qmono(1), 1, o, d),
    "eval_product": lambda cat, o, d: eval_product(P(1, 1), o, d),
    "eval_product_sum": lambda cat, o, d: eval_product_sum([P(1, 1)], o, d),
    "multi_sum": lambda cat, o, d: multi_sum(
        cat.identities["R.R.1"].spec, o, d),
    "verify_pair_n0": lambda cat, o, d: verify_pair(G1, 0, o, d),
    "verify_pair_n2": lambda cat, o, d: verify_pair(G1, 2, o, d),
    "pairs_equal": lambda cat, o, d: pairs_equal(G1, G1, 2, o, d),
    "general_bailey_check": lambda cat, o, d: general_bailey_check(
        G1, qmono(1), qmono(2), 2, o, d),
    "limit_identity": lambda cat, o, d: limit_identity(G1, o, d),
    "term": lambda cat, o, d: term(G1.alpha, 1, o, d),
    "Catalog.verify": lambda cat, o, d: cat.verify("R.R.1", o, d),
    "Catalog.cross_check_reduction":
        lambda cat, o, d: cat.cross_check_reduction("table2.1.1", o, d),
}
BAD_ENTRIES = {  # (order, den, what the message says)
    "den 0": (5, 0, "lattice denominator must be at least 1, got 0"),
    "den -4": (5, -4, "lattice denominator must be at least 1, got -4"),
    "order -1": (-1, 4, "order must be nonnegative, got -1"),
    "order 1/0": ("1/0", 4, "order has a zero denominator: 1/0"),
}


@pytest.mark.parametrize("bad", BAD_ENTRIES)
@pytest.mark.parametrize("name", EVALUATORS)
def test_every_evaluator_refuses_a_bad_order_or_lattice(cat, name, bad):
    """A lattice denominator below 1, a negative order or an order with a
    zero denominator is a ValueError with its check's one-line message:
    never another exception or message, and never a series that claims to
    be valid to the order."""
    order, den, message = BAD_ENTRIES[bad]
    with pytest.raises(ValueError) as info:
        EVALUATORS[name](cat, order, den)
    assert str(info.value) == message
