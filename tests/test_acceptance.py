"""Acceptance gate: one test per shipping criterion, one line printed each.

Each test prints ``criterion N: PASS`` on success; a failing assertion keeps
the line absent, so the captured output doubles as a checklist.
"""

import dataclasses
import random
from fractions import Fraction

import pytest

from qident.bailey import (
    BUILTIN_NAMES,
    DJK,
    GENERAL,
    S1,
    S3,
    S5,
    apply_transform,
    builtin_pair,
    pairs_equal,
    verify_pair,
)
from qident.catalog import FAMILIES, load_catalog, parse_rhs, run_chain
from qident.nahm import multi_sum
from qident.products import (
    J,
    eval_product,
    eval_product_sum,
    inv_poch_table,
    poch_infinite,
)
from qident.series import (
    Monomial,
    QSeries,
    dump,
    equal_up_to,
    invert_unit,
    qmono,
    substitute_power,
)

from helpers import triple_product_oracle

HALF = Fraction(1, 2)


@pytest.fixture(scope="module")
def cat():
    return load_catalog()


def _announce(n: int, detail: str) -> None:
    print(f"criterion {n}: PASS ({detail})")


def test_criterion_1_intro_pair_to_order_100(cat):
    for rid in ("R.R.1", "R.R.2"):
        rep = cat.verify(rid, 100)
        assert rep.equal, f"{rid} fails at {rep.first_mismatch}"
        assert rep.wall_time < 1.0, f"{rid} took {rep.wall_time:.2f}s"
    _announce(1, "R.R.1 and R.R.2 exact to q^100, under a second each")


def test_criterion_2_fixed_suite_to_order_60(cat):
    expected_counts = {
        "example1": 2, "example2": 3, "example3": 5, "example4": 5,
        "example5": 3, "example6": 2, "example7": 2, "example8": 3,
        "example9": 5, "example10": 2, "example11": 5, "example12": 4,
        "example13": 5, "example14": 3, "example15": 4, "example16": 3,
        "example17": 3, "example18": 3, "example19": 3,
    }
    manifest = cat.manifest()
    for tag, count in expected_counts.items():
        assert manifest[tag] == count, tag
    fixed = [rid for rid in cat.ids()
             if "intro" not in cat.get(rid).tags]
    assert len(fixed) == 65
    for rid in fixed:
        rep = cat.verify(rid, 60)
        assert rep.equal, f"{rid} fails at {rep.first_mismatch}"
        assert rep.wall_time < 30.0, f"{rid} took {rep.wall_time:.2f}s"
    _announce(2, "all 65 fixed identities exact to order 60 in displayed base")


def test_criterion_3_reduction_cross_checks(cat):
    blocks = [f"example{t}" for t in list(range(1, 11)) + list(range(14, 20))]
    checked = 0
    for tag in blocks:
        ids = cat.list(tag)
        assert ids, tag
        for rid in ids:
            rep = cat.cross_check_reduction(rid, 30)
            assert rep.equal, f"{rid} via {rep.route}: {rep.first_mismatch}"
            assert rep.route in ("merge", "euler")
            checked += 1
    assert checked == 51
    _announce(3, "three-way reduction agreement for 51 identities at order 30")


def test_criterion_4_families(cat):
    ran = 0

    def verify(token, order):
        nonlocal ran
        rep = cat.verify(token, order)
        assert rep.equal, f"{token} fails at {rep.first_mismatch}"
        ran += 1

    for k in (2, 3, 4):
        for i in range(1, k + 1):
            verify(f"AG({k},{i})", 60)
            verify(f"Bressoud({k},{i})", 60)
    for k in (2, 3, 4, 5):
        for i in range(1, k + 1):
            verify(f"Warnaar({k},{i})", 40)
    for k in (1, 2, 3):
        for i in range(1, k + 2):
            verify(f"thm1.1({k},{i})", 40)
            verify(f"corgen13({k},{i})", 40)
        verify(f"thm1.2({k})", 40)
        verify(f"corgen13last({k})", 40)
    for k in (1, 2, 3, 4):
        for fam in ("gen5-8a", "gen5-8b", "gen1", "gen6", "gen7", "gen10",
                    "gen14", "gen17", "gen15a", "gen15b"):
            for i in range(1, k + 2):
                verify(f"{fam}({k},{i})", 30)
    for fam in ("And1", "And2", "exam9gen"):
        gen = FAMILIES[fam]
        for k in range(gen.k_min, 5):
            for a in gen.i_values(k):
                verify(f"{fam}({k},{a})", 30)
    _announce(4, f"{ran} family instances verified across stated domains")


def test_criterion_5_bailey_suite():
    for name in BUILTIN_NAMES:
        rep = verify_pair(builtin_pair(name), 25, 60)
        assert rep.ok, f"{name}: {rep.failures}"
    deep = verify_pair(builtin_pair("G1star"), 40, 80)
    assert deep.ok, f"G1star deep: {deep.failures}"

    rng = random.Random(20260814)
    general = GENERAL(Monomial(-1, HALF), Monomial(-1, 1))
    for _ in range(50):
        name = rng.choice(sorted(BUILTIN_NAMES))
        pair = builtin_pair(name)
        steps = []
        for _ in range(rng.randrange(1, 4)):
            pool = [S1, S3, S5]
            if rng.random() < 0.25:
                pool = [general]
            if pair.a == qmono(1):
                pool.append(DJK(qmono(2)))
            step = rng.choice(pool)
            steps.append(step)
            pair = apply_transform(pair, step)
        rep = verify_pair(pair, 15, 40)
        assert rep.ok, f"{name} + {[s.kind for s in steps]}: {rep.failures}"

    moved = run_chain("G1star |> DJK_LIMIT(q^(3/2))")
    assert pairs_equal(moved, builtin_pair("G3"), 20, 40) is None
    _announce(5, "builtin pairs, 50 random chains, and the G1star -> G3 move")


def test_criterion_6_consistency_cross_claims(cat):
    X = 20
    for token, rid in (("corgen13(2,3)", "table2.13.1"),
                       ("corgen13(2,2)", "table2.13.2"),
                       ("corgen13(2,1)", "table2.13.3"),
                       ("corgen13last(2)", "table2.13.4")):
        inst = cat.resolve(token)
        fixed = cat.get(rid)
        assert fixed.base_substitution == 2
        assert dump(substitute_power(multi_sum(inst.spec, X), 2), 2 * X) == \
            dump(multi_sum(fixed.spec, 2 * X), 2 * X), token
        assert dump(substitute_power(eval_product_sum(inst.rhs, X), 2),
                    2 * X) == \
            dump(eval_product_sum(fixed.rhs, 2 * X), 2 * X), token
    for token, rid in (("AG(2,2)", "R.R.1"), ("AG(2,1)", "R.R.2")):
        inst = cat.resolve(token)
        fixed = cat.get(rid)
        assert dump(multi_sum(inst.spec, 30), 30) == \
            dump(multi_sum(fixed.spec, 30), 30), token
        assert dump(eval_product_sum(inst.rhs, 30), 30) == \
            dump(eval_product_sum(fixed.rhs, 30), 30), token
    _announce(6, "family instances reproduce stored records byte for byte")


def test_criterion_7_property_suites(cat):
    # ring axioms on randomized truncated series
    rng = random.Random(7401)

    def rand_series():
        terms = [(rng.randrange(0, 120), Fraction(rng.randrange(-9, 10)))
                 for _ in range(rng.randrange(1, 12))]
        return QSeries.from_terms(terms, den=4, order=30)

    for _ in range(25):
        a, b, c = rand_series(), rand_series(), rand_series()
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert equal_up_to(a * (b + c), a * b + a * c, 30)
        assert equal_up_to((a * b) * c, a * (b * c), 30)
        one = QSeries.one(4).truncated(30)
        assert equal_up_to(a * one, a, 30)

    # invert roundtrip for random units
    for _ in range(10):
        u = (QSeries.one(4) + rand_series() * qmono(1)).truncated(30)
        assert equal_up_to(u * invert_unit(u, 30), QSeries.one(4), 30)

    # index-merge consequence: sum over i+2j=n collapses to 1/(q;q)_n
    order = 50
    invq = inv_poch_table(qmono(1), 1, 50, order)
    invq2 = inv_poch_table(qmono(2), 2, 25, order)
    for n in range(51):
        acc = QSeries(4, {}, 200)
        for i in range(n % 2, n + 1, 2):
            j = (n - i) // 2
            acc = acc + QSeries.from_terms([(Fraction(i * (i - 1), 2), 1)]) \
                * invq[i] * invq2[j]
        assert equal_up_to(acc, invq[n], order), f"merge n={n}"

    # index-square consequence over i+j=n
    invq2 = inv_poch_table(qmono(2), 2, 50, order)
    for n in range(51):
        acc = QSeries(4, {}, 200)
        for i in range(n + 1):
            j = n - i
            acc = acc + QSeries.from_terms([(i * i + j * j - i, 1)]) \
                * invq2[i] * invq2[j]
        want = invq[n] * QSeries.from_terms([(Fraction(n * n - n, 2), 1)])
        assert equal_up_to(acc, want, order), f"square n={n}"

    # Euler's two summations against the product evaluator at order 40
    order = 40
    invq = inv_poch_table(qmono(1), 1, 81, order)
    for ze in (1, 2, HALF):
        n_max = int(order / ze) + 1
        first = QSeries(4, {}, 160)
        second = QSeries(4, {}, 160)
        for n in range(n_max + 1):
            zn = QSeries.from_terms([(ze * n, 1)])
            first = first + zn * invq[n]
            second = second + zn * invq[n] * \
                QSeries.from_terms([(Fraction(n * (n - 1), 2), 1)])
        assert equal_up_to(
            first, invert_unit(poch_infinite(qmono(ze), 1, order), order),
            order)
        assert equal_up_to(second, poch_infinite(Monomial(-1, ze), 1, order),
                           order)

    # Jacobi triple product against the bilateral theta oracle at order 40
    for a, m in ((1, 3), (2, 5), (3, 8), (5, 11)):
        assert equal_up_to(eval_product(J(a, m), 40),
                           triple_product_oracle(qmono(a), m, 40), 40)

    # the two symmetric sum pairs share one series despite distinct forms
    for left, right in (("table2.15.1", "table2.15.2"),
                        ("table2.15.3", "table2.15.4")):
        sl, sr = cat.get(left).spec, cat.get(right).spec
        assert (sl.quad, sl.lin) != (sr.quad, sr.lin)
        assert multi_sum(sl, 30) == multi_sum(sr, 30), (left, right)
    _announce(7, "ring axioms, inversion, summation lemmas, theta oracles, "
                 "symmetric pair")


def test_criterion_8_negative_controls(cat):
    controls = [
        ("R.R.1", "1 / ( P(1;5) * P(3;5) )", 3),
        ("R.R.2", "1 / ( P(2;5) * P(4;5) )", 3),
        ("table2.13.1", "TP(4,6,11;11) / ( P(1;2) * P(4;4) )", 4),
        ("table2.11.3", "TP(2,5,8;8) / P(1;1)", 2),
        ("table2.15.3", "NP(1;1) / ( P(2;5) * P(4;5) )", 3),
    ]
    for rid, rhs_text, expected_exp in controls:
        broken = dataclasses.replace(cat.get(rid), rhs=parse_rhs(rhs_text))
        rep = cat.verify(broken, 30)
        assert not rep.equal, rid
        assert rep.status == "FAIL"
        assert rep.first_mismatch is not None, rid
        assert rep.first_mismatch.exponent == expected_exp, \
            (rid, rep.first_mismatch)
    _announce(8, "five perturbed right sides fail at the frozen exponents")
