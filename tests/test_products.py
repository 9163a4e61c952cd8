"""Pochhammer/theta layer: symbols, oracle cross-checks, classical identities."""

import hashlib
import json
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from qident import products, series
from qident.catalog import load_catalog
from qident.series import (
    LatticeError,
    Monomial,
    QSeries,
    coefficient,
    dump,
    equal_up_to,
    exp_num,
    invert_unit,
    qmono,
    _mul_order,
)
from qident.products import (
    J,
    NP,
    P,
    TP,
    PochRow,
    ProductExpr,
    eval_product,
    eval_product_sum,
    inv_poch_table,
    poch_infinite,
    poch_table,
)

from helpers import (
    ORACLE_ONE,
    check_against,
    count_partitions,
    dense_factors,
    dense_inverse,
    dense_mul,
    empty_tables,
    oracle_J,
    oracle_P,
    oracle_TP,
    oracle_div,
    oracle_mul,
    oracle_pow,
    series_coeffs,
    triple_product_oracle,
)


def S(pairs, order=None, den=4):
    return QSeries.from_terms(pairs, den=den, order=order)


Q = qmono(1)


def test_poch_row_basic():
    row = PochRow((Q,), 1)
    assert row[0] == QSeries.one()
    assert row[3] == S(
        [(0, 1), (1, -1), (2, -1), (4, 1), (5, 1), (6, -1)])


def test_poch_row_refuses_a_negative_index():
    # after [3] the entry list has 4 items, so [-1] used to read entry 3
    for row in (PochRow((Q,), 1, 10), PochRow((Q,), 1, 10, 4, -1)):
        row[3]
        with pytest.raises(ValueError) as info:
            row[-1]
        assert str(info.value) == "a Pochhammer row has no entry -1"


def test_inverse_row_matches_inversion():
    inv = PochRow((Q,), 1, 8, 4, -1)[2]
    direct = invert_unit(PochRow((Q,), 1)[2], 8)
    assert inv == direct
    prod = inv * PochRow((Q,), 1)[2]
    assert equal_up_to(prod, QSeries.one(), 8)
    with pytest.raises(ValueError):
        PochRow((qmono(-2),), 1, 8, 4, -1)[3]  # (1 - q^0) factor vanishes


def test_inverse_row_grid_against_inversion():
    """Entry m of the inverse row of x, against inverting entry m of x's
    product row, the oracle for the terms and the validity; without an
    order, or with a factor 1 - 1, the inverse row refuses."""
    rng = random.Random(1606)
    for coeff in (1, -1, 2, Fraction(1, 3)):
        for base in (1, 2, Fraction(1, 2)):
            for m in range(6, 0, -1):
                for order in (Fraction(7, 2), 8, 12):
                    x = Monomial(coeff,
                                 Fraction(rng.randint(1, 12), 2) - base * m)
                    down = PochRow((x,), base)[m]
                    if down.is_zero:
                        with pytest.raises(ValueError, match="vanishing"):
                            PochRow((x,), base, order, 4, -1)[m]
                    else:
                        got = PochRow((x,), base, order, 4, -1)[m]
                        want = invert_unit(down, order)
                        assert got.terms == want.terms
                        assert got.order_num == want.order_num
                    with pytest.raises(ValueError, match="needs an order"):
                        PochRow((x,), base, None, 4, -1)
                    vanishing = qmono(-base * rng.randrange(m))
                    with pytest.raises(ValueError, match="vanishing"):
                        PochRow((vanishing,), base, order, 4, -1)[m]


def test_poch_shift_rule():
    """(a;q)_(n+1) = (a;q)_n (1 - a q^n) for n from -10 to 10, where
    (a;q)_n for n < 0 is entry -n of the inverse row of a q^n."""
    rng = random.Random(4)
    for n in range(-10, 11):
        a = Monomial(rng.choice([1, -1, 2]),
                     Fraction(2 * rng.randint(0, 2) + 1, 2))
        factor = QSeries.one() - QSeries.from_terms([(a.exp + n, a.coeff)])
        if n >= 0:
            row = PochRow((a,), 1, 40)
            lhs, rhs = row[n + 1], row[n] * factor
        else:
            lhs = PochRow((Monomial(a.coeff, a.exp + n + 1),), 1, 40, 4,
                          -1)[-n - 1]
            rhs = PochRow((Monomial(a.coeff, a.exp + n),), 1, 40, 4,
                          -1)[-n] * factor
        assert equal_up_to(lhs, rhs, 10)


def test_poch_negative_composes():
    for m in (1, 2, 3):
        x = qmono(Fraction(5, 2) - m)
        left = PochRow((x,), 1, 10, 4, -1)[m]
        right = PochRow((x,), 1)[m]
        assert equal_up_to(left * right, QSeries.one(), 8)


def test_poch_infinite_pentagonal():
    s = poch_infinite(Q, 1, 12)
    assert s == S([(0, 1), (1, -1), (2, -1), (5, 1), (7, 1), (12, -1)], 12)
    assert poch_infinite(qmono(5), 1, 4) == S([(0, 1)], 4)


def test_poch_infinite_half_exponents():
    s = poch_infinite(Monomial(-1, Fraction(1, 2)), 1, 2)
    # (1+q^(1/2))(1+q^(3/2)) to order 2; later factors start above q^2
    assert s == S([(0, 1), (Fraction(1, 2), 1), (Fraction(3, 2), 1), (2, 1)], 2)


def test_triple_product_oracle_matches_products():
    # degenerate z=q case: (q,q,1;q)_inf = 0 on both routes
    z = triple_product_oracle(Q, 1, 30)
    prod = poch_infinite(Q, 1, 30) ** 1 if False else \
        poch_infinite(Q, 1, 30) * poch_infinite(Q, 1, 30) * \
        poch_infinite(qmono(0), 1, 30)
    assert z.is_zero and prod.is_zero

    assert equal_up_to(triple_product_oracle(qmono(5), 11, 40),
                       eval_product(J(5, 11), 40), 40)

    half = triple_product_oracle(qmono(Fraction(1, 2)), Fraction(3, 2), 30)
    prod = poch_infinite(qmono(Fraction(3, 2)), Fraction(3, 2), 30) * \
        poch_infinite(qmono(Fraction(1, 2)), Fraction(3, 2), 30) * \
        poch_infinite(qmono(1), Fraction(3, 2), 30)
    assert equal_up_to(half, prod, 30)


def test_J_theta_random_against_oracle():
    rng = random.Random(11)
    for _ in range(20):
        m = rng.randint(2, 14)
        a = rng.randint(1, m - 1)
        assert equal_up_to(eval_product(J(a, m), 40),
                           triple_product_oracle(qmono(a), m, 40), 40)


def test_J_theta_symmetry():
    for (a, m) in [(2, 4), (1, 5), (3, 7)]:
        assert eval_product(J(a, m), 30) == eval_product(J(m - a, m), 30)
    with pytest.raises(ValueError):
        eval_product(J(5, 5), 10)


def test_euler_identities():
    # sum z^n/(q;q)_n = 1/(z;q)_inf and sum q^C(n,2) z^n/(q;q)_n = (-z;q)_inf
    order = 40
    for ze in (1, 2, Fraction(1, 2)):
        z = qmono(ze)
        n_max = int(order / ze) + 1
        invq = inv_poch_table(Q, 1, n_max, order)
        first = QSeries(4, {}, 160)
        second = QSeries(4, {}, 160)
        for n in range(n_max + 1):
            zn = QSeries.from_terms([(ze * n, 1)])
            first = first + zn * invq[n]
            second = second + zn * invq[n] * \
                QSeries.from_terms([(Fraction(n * (n - 1), 2), 1)])
        assert equal_up_to(first,
                           invert_unit(poch_infinite(z, 1, order), order),
                           order)
        assert equal_up_to(second,
                           poch_infinite(Monomial(-1, ze), 1, order), order)


def test_merge_lemma_consequence():
    # sum_{i+2j=n} q^(i(i-1)/2) / ((q;q)_i (q^2;q^2)_j) = 1/(q;q)_n for n <= 50
    order = 50
    invq = inv_poch_table(Q, 1, 50, order)
    invq2 = inv_poch_table(qmono(2), 2, 25, order)
    for n in range(51):
        acc = QSeries(4, {}, 200)
        for i in range(n % 2, n + 1, 2):
            j = (n - i) // 2
            gauss = QSeries.from_terms([(Fraction(i * (i - 1), 2), 1)])
            acc = acc + gauss * invq[i] * invq2[j]
        assert equal_up_to(acc, invq[n], order), f"n={n}"


def test_square_lemma_consequence():
    # sum_{i+j=n} q^(i^2+j^2-i)/((q^2;q^2)_i (q^2;q^2)_j)
    #   = q^((n^2-n)/2)/(q;q)_n for n <= 50
    order = 50
    invq = inv_poch_table(Q, 1, 50, order)
    invq2 = inv_poch_table(qmono(2), 2, 50, order)
    for n in range(51):
        acc = QSeries(4, {}, 200)
        for i in range(n + 1):
            j = n - i
            acc = acc + QSeries.from_terms([(i * i + j * j - i, 1)]) * \
                invq2[i] * invq2[j]
        want = invq[n] * QSeries.from_terms([(Fraction(n * n - n, 2), 1)])
        assert equal_up_to(acc, want, order), f"n={n}"


def test_eval_product_trivial_and_rr():
    assert eval_product(ProductExpr(), 10) == S([(0, 1)], 10)
    rr1 = ProductExpr() / (P(1, 5) * P(4, 5))
    s = eval_product(rr1, 12)
    for n in range(13):
        assert coefficient(s, n) == count_partitions(n, [p for p in range(1, 13)
                                                         if p % 5 in (1, 4)])
    assert series_coeffs(s, 6) == [1, 1, 1, 1, 2, 2, 3]


def test_eval_product_prefactor_and_sum():
    expr = (2 * TP(3, 5, 8, 8)) / P(1, 1)
    s = eval_product(expr, 10)
    assert coefficient(s, 0) == 2
    two_terms = eval_product_sum([P(1, 2), P(3, 4)], 8)
    assert equal_up_to(two_terms,
                       eval_product(P(1, 2), 8) + eval_product(P(3, 4), 8), 8)


def test_J_helpers():
    assert eval_product(J(14), 30) == poch_infinite(qmono(14), 14, 30)
    quotient = J(14) * J(28) ** 2 * J(2, 28) / (J(1, 28) * J(4, 28))
    assert coefficient(eval_product(quotient, 20), 0) == 1


def test_NP_factor():
    s = eval_product(NP(1, 2), 9)
    # (-q;q^2)_inf counts partitions into distinct odd parts
    table = [0] * 10
    table[0] = 1
    for part in (1, 3, 5, 7, 9):
        for m in range(9, part - 1, -1):
            table[m] += table[m - part]
    for n in range(10):
        assert coefficient(s, n) == table[n]


# -- differential test against the dense reference in tests/helpers.py ----

def _elementary(m, base, den, top):
    """Exponent numerators first + k*step of (m; q^base)_inf up to top."""
    first, step = int(m.exp * den), int(base * den)
    return list(range(first, top + 1, step))


def _starts(expr, den):
    """Lowest exponent numerator of each factor's series and of the
    prefactor: sum of a product's negative exponents, negated for a
    denominator."""
    starts = []
    for m, base, power in expr.factors:
        low = sum(e for e in _elementary(m, base, den, 0) if e < 0)
        starts.append(low if power > 0 else -low)
    return starts, int(min(mo.exp for mo in expr.prefactor) * den)


def _dense_product(expr, den, top):
    """(lo, coefficients at numerators lo..top) of the true, untruncated
    value of expr, built only from dense lists."""
    starts, pf_lo = _starts(expr, den)
    lo = pf_lo + sum(abs(p) * s for s, (_, _, p) in zip(starts, expr.factors))
    length = top - lo + 1
    if length <= 0:
        return lo, []
    # every partial product keeps `length` terms from its own start; an
    # elementary factor at e moves every term it touches to >= lo + e
    total = [Fraction(0)] * length
    for mo in expr.prefactor:
        if int(mo.exp * den) - pf_lo < length:
            total[int(mo.exp * den) - pf_lo] += mo.coeff
    for m, base, power in expr.factors:
        x = dense_factors(m.coeff, _elementary(m, base, den, top - lo),
                          length)
        if power < 0:
            x = dense_inverse(x, length)
        for _ in range(abs(power)):
            total = dense_mul(total, x, length)
    return lo, total


def _expected_validity(expr, onum, den):
    """The validity eval_product promises: the order, plus the valuation of
    every factor and of the prefactor, less the most negative exponent sum
    of a denominator (its inverse is only built to the order)."""
    starts, pf_lo = _starts(expr, den)
    out = onum + pf_lo
    for s, (_, _, power) in zip(starts, expr.factors):
        out += abs(power) * s
    return out + min([0] + [-s for s, (_, _, p) in zip(starts, expr.factors)
                            if p < 0])


def test_eval_product_matches_dense_oracle():
    """eval_product on random product expressions matches a dense product of
    its factors built from tests/helpers.py lists: one to eight factors with
    coefficients +-1 and rational, first exponents -2..4 (0 included), bases
    1/2..5 and powers +-1..+-3, polynomial prefactors, lattices 1/1, 1/2 and
    1/4.  The validity is the one the truncation rules promise, the terms
    agree through it and are in normal form, and a denominator that vanishes
    is refused."""
    # its own generator, so no other check's operands change
    rng = random.Random(20261021)
    coeffs = [1, -1, 1, -1, Fraction(1, 2), Fraction(-2, 3), Fraction(3, 2)]
    kinds = {"nonzero": 0, "zero": 0, "refused": 0}
    for trial in range(200):
        den = rng.choice([1, 2, 4])
        factors = tuple(
            (Monomial(rng.choice(coeffs),
                      Fraction(rng.randint(-2 * den, 4 * den), den)),
             Fraction(rng.randint((den + 1) // 2, 5 * den), den),
             rng.choice([-3, -2, -1, 1, 2, 3]))
            for _ in range(rng.randint(1, 8)))
        exps = sorted(rng.sample(range(-2 * den, 3 * den + 1),
                                 rng.randint(1, 3)))
        prefactor = tuple(
            Monomial(rng.choice([1, -2, Fraction(1, 3)]), Fraction(e, den))
            for e in exps)
        expr = ProductExpr(factors, prefactor)
        order = Fraction(rng.randint(0, 40), den)
        onum = int(order * den)
        if any(p < 0 and m.coeff == 1
               and 0 in _elementary(m, b, den, 0)
               for m, b, p in factors):
            with pytest.raises(ValueError):
                eval_product(expr, order, den)
            kinds["refused"] += 1
            continue
        kinds[_check_dense(eval_product(expr, order, den), expr, onum,
                           den)] += 1
    assert kinds["nonzero"] >= 150 and kinds["zero"] and kinds["refused"]


def _check_dense(res, expr, onum, den):
    """Check res, the value of expr at order onum/den, against the dense
    product of its factors; "nonzero" or "zero" says which check ran."""
    want = _expected_validity(expr, onum, den)
    lo, ref = _dense_product(expr, den, max(want, res.order_num))
    if any(ref[:max(want - lo + 1, 0)]):
        check_against(res, ref[:want - lo + 1], lo, want)
        return "nonzero"
    # zero through the promised validity, where any validity at which the
    # value is still zero is sound
    assert res.is_zero
    assert not any(ref[:max(res.order_num - lo + 1, 0)])
    return "zero"


GOLDEN = Path(__file__).parent / "data" / "eval_product_golden.json"


def _digest(s):
    return hashlib.sha256(f"{s.order_num}\n{dump(s)}".encode()).hexdigest()


def test_eval_product_outputs_are_pinned():
    """Every packaged right side at order 120 and 32 family instances at
    order 30 keep the validity and dump they had before the one-pass
    denominator product."""
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    cat = load_catalog()
    assert set(golden["records"]) == set(cat.ids())
    for kind, order in (("records", golden["records_order"]),
                        ("family", golden["family_order"])):
        for rid, want in golden[kind].items():
            s = eval_product_sum(cat.resolve(rid).rhs, order)
            assert _digest(s) == want, rid


def test_eval_product_edge_probes_are_pinned():
    """Zero, negative and zero-exponent factors, alone, powered, inverted
    and mixed, keep their terms and validity, or their exception."""
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    one = ProductExpr()
    probes = {"P(0,1)": P(0, 1), "NP(0,1)": NP(0, 1), "P(-1,2)": P(-1, 2),
              "NP(-1,2)": NP(-1, 2), "1/NP(0,2)": one / NP(0, 2),
              "1/NP(-1,2)": one / NP(-1, 2),
              "NP(-1,2)*P(1,1)": NP(-1, 2) * P(1, 1),
              "P(1,1)/NP(-3,2)": P(1, 1) / NP(-3, 2),
              "NP(-1,2)^2": NP(-1, 2) ** 2, "1/P(0,1)": one / P(0, 1)}
    assert set(probes) == set(golden["probes"])
    for name, expr in probes.items():
        want = golden["probes"][name]
        if isinstance(want, str):
            with pytest.raises(Exception) as err:
                eval_product(expr, golden["probe_order"])
            assert type(err.value).__name__ == want, name
            continue
        s = eval_product(expr, golden["probe_order"])
        assert s.order_num == want["order_num"], name
        assert [[n, str(c)] for n, c in sorted(s.terms.items())] == \
            want["terms"], name
    # the two the truncation rules are easiest to get wrong
    assert golden["probes"]["P(-1,2)"]["order_num"] == 5 * 4
    assert series_coeffs(eval_product(one / NP(-1, 2), 6), 6) == \
        [0, 1, -2, 3, -5, 7, -10]


# -- the packed unit pass -------------------------------------------------------

SIGNED = [1, -1, Fraction(1, 2), Fraction(-2, 3), Fraction(3, 2)]


def _random_expr(rng, den, lowest):
    """One to four signed or rational factors on the (1/den)-lattice with
    first exponents from `lowest` up, powers +-1..+-2, and a two-term
    prefactor with a negative exponent."""
    factors = tuple(
        (Monomial(rng.choice(SIGNED),
                  Fraction(rng.randint(lowest * den, 3 * den), den)),
         Fraction(rng.randint(1, 3 * den), den), rng.choice([-2, -1, 1, 2]))
        for _ in range(rng.randint(1, 4)))
    prefactor = (Monomial(rng.choice(SIGNED), Fraction(-1, den)),
                 Monomial(rng.choice(SIGNED), 1))
    return ProductExpr(factors, prefactor)


def test_unit_pass_matches_the_dense_oracle():
    """poch_infinite and eval_product, which both run the packed pass,
    match the dense products of tests/helpers.py under the validity rule of
    the factor-by-factor evaluation, on signed and rational coefficients,
    lattices 1, 2 and 4 and orders up to 120; running products with
    negative exponents seed the pass; a vanishing numerator keeps the
    validity that multiplying by the unit gave, pinned."""
    rng = random.Random(20261019)
    kinds = {"nonzero": 0, "zero": 0}
    for trial in range(45):
        den = (1, 2, 4)[trial % 3]
        onum = rng.randint(0, 120)  # order up to 120 on the 1-lattice
        m = Monomial(rng.choice(SIGNED),
                     Fraction(rng.randint(-den, 4 * den), den))
        base = Fraction(rng.randint(1, 4 * den), den)
        if m.coeff == 1 and 0 in _elementary(m, base, den, 0):
            continue  # a vanishing symbol; the pinned cases below have it
        _check_dense(poch_infinite(m, base, Fraction(onum, den), den),
                     ProductExpr(((m, base, 1),)), onum, den)
        expr = _random_expr(rng, den, -2)
        onum = rng.randint(0, 120)
        if any(p < 0 and mo.coeff == 1 and 0 in _elementary(mo, b, den, 0)
               for mo, b, p in expr.factors):
            continue
        kinds[_check_dense(eval_product(expr, Fraction(onum, den), den),
                           expr, onum, den)] += 1
    assert kinds["nonzero"] >= 25 and kinds["zero"]
    # a vanishing numerator: the running product is zero before the pass,
    # whose validity is then _mul_order's with the zero's order standing
    # in for its valuation
    pinned = [(P(0, 1) / P(1, 1), 10, 4, 40),
              (P(-1, 1) * NP(1, 2) / P(1, 1), 10, 4, 36),
              (P(-2, 1) ** 2 / NP(1, 2) ** 3, 12, 2, 36),
              (P(-1, 1) / P(Fraction(1, 2), Fraction(1, 2)) / NP(-1, 2),
               7, 4, 28),
              (ProductExpr(((Monomial(1, -3), Fraction(3), 1),),
                           (Monomial(Fraction(1, 2), -2), Monomial(3, 1)))
               / P(1, 1), 20, 1, 15),
              (P(0, 1) / P(1, 2), 0, 4, 0)]
    for expr, order, den, order_num in pinned:
        res = eval_product(expr, order, den)
        assert _check_dense(res, expr, order * den, den) == "zero"
        assert res.order_num == order_num, expr


def _random_seed(rng, den, kind):
    """A zero, exact or truncated seed on the (1/den)-lattice with signed
    and rational coefficients and exponents from -2 up."""
    if kind == "zero":
        return QSeries(den, {}, rng.randint(-2 * den, 20 * den))
    low = rng.randint(-2 * den, 2 * den)
    terms = {low + k * rng.randint(1, 2 * den): rng.choice(SIGNED)
             for k in range(rng.randint(1, 4))}
    top = None if kind == "exact" else max(terms) + rng.randint(0, 20 * den)
    return QSeries(den, terms, top)


def test_poch_infinite_takes_a_seed_and_a_power():
    """poch_infinite(m, base, order, den, power, seed) is seed times the
    symbol to the power: its validity is _mul_order's for the seed times
    the unseeded symbol, and its terms match the dense product of
    tests/helpers.py through it, on zero, exact and truncated seeds with
    negative exponents and rational coefficients, powers +-1..+-3, first
    exponents <= 0 and > 0 and lattices 1, 2 and 4; a seed on another
    lattice is refused."""
    rng = random.Random(20261022)  # its own generator
    seen = set()
    for trial in range(150):
        den = (1, 2, 4)[trial % 3]
        m = Monomial(rng.choice(SIGNED),
                     Fraction(rng.randint(-2 * den, 4 * den), den))
        base = Fraction(rng.randint(1, 3 * den), den)
        power = rng.choice([-3, -2, -1, 1, 2, 3])
        order = Fraction(rng.randint(0, 40), den)
        if power < 0 and m.coeff == 1 and 0 in _elementary(m, base, den, 0):
            continue  # a vanishing denominator, refused by its row
        kind = ("zero", "exact", "truncated")[trial % 5 % 3]
        seed = _random_seed(rng, den, kind)
        res = poch_infinite(m, base, order, den, power, seed)
        assert res.order_num == _mul_order(
            seed, poch_infinite(m, base, order, den, power)), trial
        seen.add((kind, power > 0, m.exp > 0, den))
        if seed.is_zero:
            assert res.is_zero
            continue
        prefactor = tuple(Monomial(c, Fraction(n, den))
                          for n, c in sorted(seed.terms.items()))
        expr = ProductExpr(((m, base, power),), prefactor)
        lo, ref = _dense_product(expr, den, res.order_num)
        check_against(res, ref, lo, res.order_num)
    assert len(seen) == 36  # every seed kind, sign, exponent and lattice
    with pytest.raises(LatticeError, match="lattice"):
        poch_infinite(Q, 1, 5, 4, 1, QSeries.one(2))


def _chain(factors, order, den, seed):
    """seed times every symbol of factors, one QSeries-seeded poch_infinite
    call each, so a series stands between every two passes."""
    for m, base, power in factors:
        seed = poch_infinite(m, base, order, den, power, seed)
    return seed


def test_slot_fold_matches_the_series_fold():
    """eval_product, whose fold keeps the product packed symbol to symbol,
    equals the chain of QSeries-seeded poch_infinite calls times the
    prefactor in terms and validity, and the dense product through it; a
    fold seeded with the slots of a zero, exact or truncated seed equals
    the chain from that seed.  The draws cover rational coefficients, heads
    (factors with exponent <= 0) after a pass, zero products, powers
    +-1..+-3, lattices 1, 2 and 4 and symbols that reach no slot."""
    rng = random.Random(20261023)  # its own generator
    kinds = dict.fromkeys(("rational", "head after a pass", "no slot",
                           "zero product", "zero", "exact", "truncated",
                           "refused"), 0)
    powers = set()
    for trial in range(160):
        den = (1, 2, 4)[trial % 3]
        order = Fraction(rng.randint(0, 30), den)
        onum = int(order * den)
        factors = []
        for _ in range(rng.randint(1, 5)):
            first = rng.randint(-2 * den, 4 * den)
            if rng.random() < 0.15:  # past the order: no slot to reach
                first = onum + rng.randint(1, 3 * den)
            factors.append((Monomial(rng.choice(SIGNED), Fraction(first, den)),
                            Fraction(rng.randint(1, 3 * den), den),
                            rng.choice([-3, -2, -1, 1, 2, 3])))
        prefactor = (Monomial(rng.choice(SIGNED), Fraction(-1, den)),
                     Monomial(rng.choice(SIGNED), 1))
        expr = ProductExpr(tuple(factors), prefactor)
        if any(p < 0 and m.coeff == 1 and 0 in _elementary(m, b, den, 0)
               for m, b, p in expr.factors):
            with pytest.raises(ValueError, match="vanishing"):
                eval_product(expr, order, den)
            kinds["refused"] += 1
            continue
        got = eval_product(expr, order, den)
        pf = QSeries.from_terms(((mo.exp, mo.coeff) for mo in prefactor),
                                den=den)
        want = _chain(expr.factors, order, den,
                      QSeries(den, {0: 1}, onum)) * pf
        assert (got.terms, got.order_num) == (want.terms, want.order_num)
        _check_dense(got, expr, onum, den)
        kinds["zero product"] += got.is_zero
        kind = ("zero", "exact", "truncated")[trial % 5 % 3]
        seed = _random_seed(rng, den, kind)
        slots = _chain(expr.factors, order, den, series._Slots.of(seed))
        want = _chain(expr.factors, order, den, seed)
        assert isinstance(slots, series._Slots)
        assert (slots.series().terms, slots.series().order_num) == \
            (want.terms, want.order_num)
        kinds[kind] += 1
        kinds["rational"] += any(m.coeff.denominator > 1
                                 for m, _, _ in expr.factors)
        kinds["head after a pass"] += any(
            m.exp <= 0 for m, _, _ in expr.factors[1:])
        kinds["no slot"] += any(m.exp > order for m, _, _ in expr.factors)
        powers.update(p for _, _, p in expr.factors)
    assert all(kinds.values()), kinds
    assert powers == {-3, -2, -1, 1, 2, 3}


def test_eval_product_takes_a_seed():
    """eval_product(expr, order, den, seed) is the chain of QSeries-seeded
    poch_infinite calls from seed times the prefactor, in terms and
    validity, or the same refusal, on zero, exact and truncated seeds with
    negative exponents and rational coefficients, prefactors 1, one term
    and two terms with a negative exponent, expressions with no factors and
    lattices 1, 2 and 4; a seed on another lattice is refused."""
    rng = random.Random(20261025)  # its own generator
    one = (Monomial(1, 0),)
    seen = set()
    for trial in range(240):
        den = (1, 2, 4)[trial % 3]
        order = Fraction(rng.randint(0, 30), den)
        factors = tuple(
            (Monomial(rng.choice(SIGNED),
                      Fraction(rng.randint(-2 * den, 4 * den), den)),
             Fraction(rng.randint(1, 3 * den), den),
             rng.choice([-2, -1, 1, 2]))
            for _ in range(rng.choice([0, 0, 1, 2, 3])))
        prefactor = rng.choice([
            one, (Monomial(rng.choice(SIGNED), Fraction(rng.randint(
                -den, 2 * den), den)),),
            (Monomial(rng.choice(SIGNED), Fraction(-1, den)),
             Monomial(rng.choice(SIGNED), 1))])
        kind = ("zero", "exact", "truncated")[trial % 5 % 3]
        seed = _random_seed(rng, den, kind)
        expr = ProductExpr(factors, prefactor)
        pf = QSeries.from_terms(((mo.exp, mo.coeff) for mo in prefactor),
                                den=den)
        try:
            want = _chain(factors, order, den, seed) * pf
        except ValueError as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                eval_product(expr, order, den, seed)
            seen.add("refused")
            continue
        got = eval_product(expr, order, den, seed)
        assert (got.terms, got.order_num) == (want.terms, want.order_num)
        seen.update({kind, den, ("no factors" if not factors else "factors"),
                     {1: "pf 1" if prefactor == one else "pf monomial",
                      2: "pf two terms"}[len(prefactor)]})
        if any(n < 0 for n in seed.terms):
            seen.add("negative exponent")
        if any(isinstance(c, Fraction) for c in seed.terms.values()):
            seen.add("rational")
    assert seen == {"zero", "exact", "truncated", 1, 2, 4, "no factors",
                    "factors", "pf 1", "pf monomial", "pf two terms",
                    "negative exponent", "rational", "refused"}
    for expr in (P(1, 1), ProductExpr(), ProductExpr((), (qmono(1),))):
        with pytest.raises(LatticeError, match="lattice"):
            eval_product(expr, 5, 4, QSeries.one(2))


def test_eval_product_never_multiplies_its_product(monkeypatch):
    # the prefactor joins the seed before the fold, so no series multiply
    # inside eval_product has an operand longer than the prefactor
    cat = load_catalog()
    longest = []
    mul = QSeries.__mul__

    def watch(a, b):
        if isinstance(b, QSeries):
            longest.append(max(len(a.terms), len(b.terms)))
        return mul(a, b)

    monkeypatch.setattr(QSeries, "__mul__", watch)
    for rid in cat.ids():
        for expr in cat.get(rid).rhs:
            longest.clear()
            eval_product(expr, 200)
            assert max(longest, default=0) <= len(expr.prefactor), rid


def test_eval_product_decodes_once_per_product(monkeypatch):
    # the fold carries the packed slots from symbol to symbol, so each
    # packaged right side is decoded to a series once, at the end; the memo
    # is emptied first, since a repeated side is not evaluated again
    cat = load_catalog()
    calls = []
    decode = series._Slots.series

    def slots_series(slots):
        calls.append(slots)
        return decode(slots)

    monkeypatch.setattr(series._Slots, "series", slots_series)
    for rid in cat.ids():
        for expr in cat.get(rid).rhs:
            calls.clear()
            products._memo_product.cache_clear()
            eval_product(expr, 200)
            assert len(calls) == 1, rid


def _watch_unit_widths(monkeypatch):
    """Record the width of every symbol pass and the most bits any of its
    slots uses, read from the memo entry the pass returns."""
    seen = []
    width, symbol = products._slot_width, products._symbol

    def unit_width(*args):
        seen.append([width(*args), None])
        return seen[-1][0]

    def watched_symbol(*key):
        slots, bits = symbol(*key)
        if seen and seen[-1][1] is None:  # this symbol's pass just ran
            digits = series._signed_slots(slots.x, slots.w, slots.n)
            seen[-1][1] = max((abs(c).bit_length() for c in digits),
                              default=0)
        return slots, bits

    monkeypatch.setattr(products, "_slot_width", unit_width)
    monkeypatch.setattr(products, "_symbol", watched_symbol)
    return seen


INTS = [1, -1, 2, -2]


def _rational_seed_cases():
    """Seeded passes over rational seeds: integer-coefficient symbols, a
    numerator with a negative first exponent (coefficient not 1, so it does
    not vanish) and a unit denominator among them, pass over a seed that a
    rational prefactor and the rational symbols of random factors, which
    join it as a series, make rational."""
    rng = random.Random(20261020)
    cases = []
    for den in (1, 2, 4) * 4:
        expr = _random_expr(rng, den, 1) * ProductExpr((
            (Monomial(rng.choice(INTS[1:]), Fraction(-1, den)),
             Fraction(rng.randint(1, 2 * den), den), 1),
            (Monomial(rng.choice(INTS), Fraction(1, den)),
             Fraction(rng.randint(1, 2 * den), den), rng.choice([-1, -2]))))
        cases.append((expr, Fraction(rng.randint(4, 24), den), den))
    return cases


def test_unit_width_holds_every_slot_of_the_pass(monkeypatch):
    cat = load_catalog()
    cases = [(cat.get(rid).rhs, 200, 4) for rid in cat.ids()]
    cases += [((expr,), order, den)
              for expr, order, den in _rational_seed_cases()]
    width = products._slot_width
    rational = 0
    for rhs, order, den in cases:
        # each watched or patched pass must run, not come from a memo
        empty_tables()
        seen = _watch_unit_widths(monkeypatch)
        got = eval_product_sum(rhs, order, den)
        monkeypatch.undo()
        assert seen, rhs
        # slots twice as wide give the same series, so the decoded slots
        # are the true scaled coefficients; each needs a sign bit below W
        empty_tables()
        monkeypatch.setattr(products, "_slot_width",
                            lambda *args: 2 * width(*args))
        assert eval_product_sum(rhs, order, den) == got, rhs
        monkeypatch.undo()
        assert all(bits < w - 1 for w, bits in seen), rhs
        rational += got.d > 1  # an integer pass makes no denominator
    assert rational >= 10


def test_a_short_unit_width_is_caught(monkeypatch):
    # one byte short: the largest whole-byte width that leaves the largest
    # slot of a pass no sign bit must make an integer pass, multiplied by a
    # rational symbol, raise OverflowError or decode a wrong series, so the
    # width test above would see a short one; a byte more holds every slot
    # again
    expr = ProductExpr(
        ((Monomial(Fraction(-2, 3), Fraction(-1, 2)), Fraction(1), 1),
         (Monomial(2, 1), Fraction(1, 2), -2),
         (Monomial(-1, Fraction(1, 2)), Fraction(1), -1)),
        (Monomial(1, Fraction(-1, 2)), Monomial(Fraction(1, 2), 0)))
    order, den = 6, 2
    # each pass below must run, not come from a memo
    clear = empty_tables
    clear()
    seen = _watch_unit_widths(monkeypatch)
    want = eval_product(expr, order, den)
    assert _check_dense(want, expr, order * den, den) == "nonzero"
    monkeypatch.undo()
    short = max(bits for _, bits in seen) // 8 * 8
    assert short >= 8
    clear()
    monkeypatch.setattr(products, "_slot_width", lambda *args: short + 8)
    assert eval_product(expr, order, den) == want
    clear()
    monkeypatch.setattr(products, "_slot_width", lambda *args: short)
    try:
        assert eval_product(expr, order, den) != want
    except OverflowError:
        pass


def _watch_product_widths(monkeypatch):
    """Record the width of every packed product of two symbols (the unit
    1 forms none) and the most bits any of its slots uses."""
    seen = []
    width, times = series._slot_width, series._Slots.times

    def product_width(*args):
        seen.append([width(*args), None])
        return seen[-1][0]

    def watched_times(x, y, bx, by):
        out = times(x, y, bx, by)
        if seen and seen[-1][1] is None:  # this product was just formed
            digits = series._signed_slots(out.x, out.w, out.n)
            seen[-1][1] = max((abs(c).bit_length() for c in digits),
                              default=0)
        return out

    monkeypatch.setattr(series, "_slot_width", product_width)
    monkeypatch.setattr(series._Slots, "times", watched_times)
    return seen


def test_product_width_holds_every_slot(monkeypatch):
    # a product of two packed symbols takes a width certified from their
    # bits: twice that width gives the same series, so the decoded slots
    # are the true products, and each keeps a sign bit and one to spare
    cat = load_catalog()
    cases = [(cat.get(rid).rhs, 200, 4) for rid in cat.ids()]
    cases += [((expr,), order, den)
              for expr, order, den in _rational_seed_cases()]
    width = series._slot_width
    products_seen = 0
    for rhs, order, den in cases:
        empty_tables()  # each product must be formed, not read back
        seen = _watch_product_widths(monkeypatch)
        got = eval_product_sum(rhs, order, den)
        monkeypatch.undo()
        assert all(bits < w - 1 for w, bits in seen), rhs
        products_seen += len(seen)
        empty_tables()
        monkeypatch.setattr(series, "_slot_width",
                            lambda *args: 2 * width(*args))
        assert eval_product_sum(rhs, order, den) == got, rhs
        monkeypatch.undo()
    assert products_seen > 100


def test_a_short_product_width_is_caught(monkeypatch):
    # one byte short: the largest whole-byte width that leaves the largest
    # product slot no sign bit must raise OverflowError or decode a wrong
    # series, so the width test above would see a short one; a byte more
    # holds every slot again.  Every symbol here has nonnegative
    # coefficients, so no operand slot is larger than a product slot.
    expr = P(1, 1) ** -2 * P(1, 2) ** -1 * NP(1, 1)
    order, den = 60, 4
    seen = _watch_product_widths(monkeypatch)
    want = eval_product(expr, order, den)
    monkeypatch.undo()
    assert len(seen) == 2 and _check_dense(want, expr, order * den,
                                           den) == "nonzero"
    short = max(bits for _, bits in seen) // 8 * 8
    assert short >= 8
    empty_tables()
    monkeypatch.setattr(series, "_slot_width", lambda *args: short + 8)
    assert eval_product(expr, order, den) == want
    empty_tables()
    monkeypatch.setattr(series, "_slot_width", lambda *args: short)
    try:
        assert eval_product(expr, order, den) != want
    except OverflowError:
        pass


def test_each_distinct_symbol_runs_its_pass_once(monkeypatch):
    # the 67 packaged right sides at order 200, cold: every distinct
    # infinite symbol is computed once, by at most one pass, and read from
    # the symbol memo wherever else it occurs; with the symbols warm, the
    # sides run no pass and divide nothing
    cat = load_catalog()
    sides = [cat.get(rid).rhs for rid in cat.ids()]
    distinct = {(m.coeff, m.exp, b, p) for rhs in sides for expr in rhs
                for m, b, p in expr.factors}
    calls, passes, divs = [], [], []
    step, width, div = (products.poch_infinite, products._slot_width,
                        products._div_packed)

    def watched_step(a, base, order, den, power, seed):
        calls.append((a.coeff, a.exp, base, power))
        return step(a, base, order, den, power, seed)

    def watched_width(*args):
        passes.append(calls[-1])
        return width(*args)

    monkeypatch.setattr(products, "poch_infinite", watched_step)
    monkeypatch.setattr(products, "_slot_width", watched_width)
    monkeypatch.setattr(products, "_div_packed",
                        lambda *args: divs.append(args) or div(*args))
    for rhs in sides:
        eval_product_sum(rhs, 200)
    info = products._symbol.cache_info()
    assert info.misses == len(distinct) == len(set(calls))
    assert len(passes) == len(set(passes)) and divs
    assert info.hits == len(calls) - len(distinct) > 0
    products._memo_product.cache_clear()
    passes.clear(), divs.clear()
    for rhs in sides:
        eval_product_sum(rhs, 200)
    assert passes == divs == []
    assert products._symbol.cache_info().misses == len(distinct)


def test_the_product_memo_is_keyed_by_expression_order_and_lattice(
        monkeypatch):
    memo = products._memo_product
    assert memo.cache_info().maxsize == products.PRODUCT_MEMO_SIZE == 128
    # every packaged right side at two orders, warm (a repeated side is a
    # hit), equals its fold with the memo emptied first
    cat = load_catalog()
    sides = [expr for rid in cat.ids() for expr in cat.get(rid).rhs]
    warm = {order: [eval_product(expr, order) for expr in sides]
            for order in (60, 200)}
    assert memo.cache_info().hits > 0
    for order, got in warm.items():
        for expr, s in zip(sides, got):
            memo.cache_clear()
            assert s == eval_product(expr, order), (order, expr)
    # one order numerator on two lattices: each side on its own lattice
    memo.cache_clear()
    inv = P(1, 1) ** -1
    fine, coarse = eval_product(inv, 100, 8), eval_product(inv, 200, 4)
    assert (fine.den, coarse.den) == (8, 4)
    assert fine.order_num == coarse.order_num == 800
    for s, order, den in ((fine, 100, 8), (coarse, 200, 4)):
        memo.cache_clear()
        assert s == eval_product(inv, order, den)
    # a seeded fold neither reads nor fills the memo
    seed = eval_product(NP(1, 1), 30)
    info = memo.cache_info()
    eval_product(J(1, 5), 30, 4, seed)
    poch_infinite(Q, 1, 30, 4, -1, seed)
    poch_infinite(Q, 1, 30, 4, -1, series._Slots.of(seed))
    assert memo.cache_info() == info
    # a warm hit runs no step of the fold and decodes nothing
    want = eval_product(J(2, 7) / J(1), 200)
    calls = []
    monkeypatch.setattr(products, "poch_infinite",
                        lambda *args: calls.append(args))
    monkeypatch.setattr(series._Slots, "series",
                        lambda slots: calls.append(slots))
    assert eval_product(J(2, 7) / J(1), 200) is want
    assert calls == []


def test_a_rational_symbol_joins_the_seed_as_a_series(monkeypatch):
    """A symbol whose coefficient is not an integer never reaches the
    packed pass: only integer coefficients are given a pass width or
    divided there, and the products of signed and rational symbols, powers
    +-1..+-3, lattices 1, 2 and 4, still match the dense oracle."""
    rng = random.Random(20261026)  # its own generator
    calls, packed = [], []
    step, width, div = (products.poch_infinite, products._slot_width,
                        products._div_packed)

    def watched_step(a, *args):
        calls.append(a.coeff)
        return step(a, *args)

    def watched_width(*args):  # once per pass, as a symbol is computed
        packed.append(calls[-1])
        return width(*args)

    def watched_div(p, shift, mask, c=1):
        packed.append(calls[-1])
        return div(p, shift, mask, c)

    monkeypatch.setattr(products, "poch_infinite", watched_step)
    monkeypatch.setattr(products, "_slot_width", watched_width)
    monkeypatch.setattr(products, "_div_packed", watched_div)
    for trial in range(60):
        den = (1, 2, 4)[trial % 3]
        factors = tuple(
            (Monomial(rng.choice(SIGNED + INTS),
                      Fraction(rng.randint(-den, 4 * den), den)),
             Fraction(rng.randint(1, 3 * den), den),
             rng.choice([-3, -2, -1, 1, 2, 3]))
            for _ in range(rng.randint(1, 4)))
        expr = ProductExpr(factors)
        if any(p < 0 and m.coeff == 1 and 0 in _elementary(m, b, den, 0)
               for m, b, p in factors):
            continue
        onum = rng.randint(0, 40)
        _check_dense(eval_product(expr, Fraction(onum, den), den), expr,
                     onum, den)
    assert any(type(c) is Fraction for c in calls)
    assert packed and all(type(c) is int for c in packed), set(packed)


def test_eval_product_with_no_factors_returns_seed_times_prefactor(
        monkeypatch):
    # no factor runs no pass, so nothing is encoded or decoded; the result
    # is what the slots of seed times the prefactor decode to
    decode = series._Slots.series
    decoded = []
    monkeypatch.setattr(series._Slots, "series",
                        lambda slots: decoded.append(slots) or decode(slots))
    two = (Monomial(Fraction(-2, 3), Fraction(-1, 4)), Monomial(3, 1))
    seeds = [QSeries(4, {}, 12), QSeries(4, {}), QSeries(4, {-2: 1, 3: -2}),
             QSeries(4, {0: 1, 5: 7, 9: -1}, 20),
             QSeries(4, {-1: Fraction(1, 2), 6: Fraction(-5, 3)}, 16)]
    for seed in seeds:
        for prefactor in ((Monomial(1, 0),), two):
            pf = QSeries.from_terms(((m.exp, m.coeff) for m in prefactor),
                                    den=4)
            want = decode(series._Slots.of(seed * pf))
            got = eval_product(ProductExpr((), prefactor), 5, 4, seed)
            assert (got.terms, got.order_num) == \
                (want.terms, want.order_num), (seed, prefactor)
    assert decoded == []


def test_a_monomial_joins_the_prefactor():
    half = Monomial(Fraction(1, 2), 3)
    expr = P(1, 1) * half
    assert expr.prefactor == (half,) and expr.factors == P(1, 1).factors
    assert eval_product(expr, 10) == \
        eval_product(P(1, 1), 10).scale(Fraction(1, 2)).shift(3 * 4)
    with pytest.raises(ValueError, match="can only divide by a pure product"):
        P(1, 1) / half


@pytest.mark.parametrize("call", [
    lambda: ProductExpr() * "x",
    lambda: "x" * ProductExpr(),
    lambda: ProductExpr() / "x",
], ids=["mul", "rmul", "truediv"])
def test_product_expressions_refuse_other_operands(call):
    with pytest.raises(TypeError) as info:
        call()
    assert str(info.value) == "cannot use 'x' in a product expression"


# -- the product algebra against the Fraction-keyed oracle --------------------

# Few distinct values, so equal factors meet often; 2 and 4/2 are one value.
_EXPS = (Fraction(1, 2), 1, Fraction(3, 2), 2, Fraction(4, 2), Fraction(5, 4))
_BASES = (1, 2, Fraction(3, 2), 4)


def _draw_tree(rng, depth):
    """A random product expression as a nested tuple."""
    if depth == 0 or rng.random() < 0.3:
        kind = rng.choice(("P", "NP", "TP", "J", "J1", "pf", "raw"))
        m = rng.choice(_BASES)
        if kind in ("P", "NP"):
            return (kind, rng.choice(_EXPS), m)
        if kind == "TP":
            return (kind, *rng.sample(_EXPS, 3), m)
        if kind == "J":
            return (kind, Fraction(m) * Fraction(rng.randint(1, 3), 4), m)
        if kind == "J1":
            return (kind, m)
        if kind == "pf":  # (1 + q^e), e = 0 included
            return (kind, rng.choice((0,) + _EXPS))
        # a ProductExpr written directly: rational coefficients, int bases,
        # and now and then a prefactor that cancels to zero
        factors = tuple((Monomial(rng.choice((1, -1, Fraction(1, 2),
                                               Fraction(-3, 2))),
                                  rng.choice(_EXPS)),
                         rng.choice(_BASES), rng.choice((-2, -1, 1, 3)))
                        for _ in range(rng.randint(0, 3)))
        c, e = rng.choice((1, -2, Fraction(2, 3))), rng.choice(_EXPS)
        pf = rng.choice((ORACLE_ONE, (Monomial(c, e),),
                         (Monomial(c, e), Monomial(-c, e)),
                         (Monomial(c, e), Monomial(1, 0), Monomial(c, e))))
        return ("raw", factors, pf)
    op = rng.choice(("*", "*", "/", "**", "int"))
    if op == "**":
        return (op, _draw_tree(rng, depth - 1), rng.choice((-1, 0, 2, 3)))
    if op == "int":
        return (op, _draw_tree(rng, depth - 1), rng.choice((-3, -1, 2, 5)),
                rng.random() < 0.5)
    return (op, _draw_tree(rng, depth - 1), _draw_tree(rng, depth - 1))


def _build(node):
    kind = node[0]
    if kind == "P":
        return P(*node[1:])
    if kind == "NP":
        return NP(*node[1:])
    if kind == "TP":
        return TP(*node[1:])
    if kind == "J":
        return J(*node[1:])
    if kind == "J1":
        return J(node[1])
    if kind == "pf":
        return ProductExpr((), (Monomial(1, 0), Monomial(1, node[1])))
    if kind == "raw":
        return ProductExpr(*node[1:])
    if kind == "int":
        x = _build(node[1])
        return node[2] * x if node[3] else x * node[2]
    x, y = _build(node[1]), node[2]
    if kind == "**":
        return x ** y
    return x * _build(y) if kind == "*" else x / _build(y)


def _oracle(node):
    kind = node[0]
    if kind in ("P", "NP"):
        return oracle_P(node[1], node[2], 1 if kind == "P" else -1)
    if kind == "TP":
        return oracle_TP(*node[1:])
    if kind in ("J", "J1"):
        return oracle_J(*node[1:])
    if kind == "pf":
        return (), (Monomial(1, 0), Monomial(1, node[1]))
    if kind == "raw":
        return node[1], node[2]
    if kind == "int":
        return oracle_mul(_oracle(node[1]), ((), (Monomial(node[2], 0),)))
    if kind == "**":
        return oracle_pow(_oracle(node[1]), node[2])
    x, y = _oracle(node[1]), _oracle(node[2])
    return oracle_mul(x, y) if kind == "*" else oracle_div(x, y)


def _outcome(evaluate):
    """('ok', factors, prefactor) by repr, so an int where a Fraction was
    differs, or ('error', message)."""
    try:
        factors, prefactor = evaluate()
    except ValueError as exc:
        return "error", str(exc)
    return "ok", repr(factors), repr(prefactor)


def test_product_algebra_matches_the_fraction_keyed_oracle():
    rng = random.Random(3030)
    seen = {"merged": 0, "empty": 0, "zero prefactor": 0,
            "can only divide by a pure product": 0,
            "can only power a pure product": 0}
    for _ in range(600):
        tree = _draw_tree(rng, rng.randint(1, 4))

        def lib():
            expr = _build(tree)
            return expr.factors, expr.prefactor

        got, want = _outcome(lib), _outcome(lambda: _oracle(tree))
        assert got == want, tree
        if got[0] == "error":
            seen[got[1]] += 1
        else:
            factors = _build(tree).factors
            seen["empty"] += factors == ()
            seen["merged"] += any(abs(p) > 1 for _, _, p in factors)
    assert all(seen.values()), seen


def test_product_algebra_cancels_and_refuses_a_zero_prefactor():
    x = J(Fraction(1, 2), 3) * NP(1, 2) ** 2 / P(Fraction(3, 2), 1)
    q = x / x
    assert q.factors == () and q.prefactor == (Monomial(1, 0),)
    assert (TP(1, 1, 2, 4) / P(1, 4) ** 2 / P(2, 4)).factors == ()
    # the first appearance fixes the order; a power summed to 0 drops out
    y = P(2, 1) * NP(1, 2) * P(Fraction(4, 2), 1) / NP(1, 2)
    assert y.factors == ((Monomial(1, 2), Fraction(1), 2),)
    # an int base is read as its Fraction
    z = ProductExpr(((Monomial(-1, 1), 2, 1),)) * 1
    assert repr(z.factors) == repr(((Monomial(-1, 1), Fraction(2), 1),))
    two = (Monomial(1, 0), Monomial(1, 1))
    w = ProductExpr((), (Monomial(2, 1), Monomial(-1, 0), Monomial(-2, 1),
                         Monomial(1, 0)))
    for expr in (lambda: w * 1, lambda: 3 * w,
                 lambda: ProductExpr((), two) * w):
        with pytest.raises(ValueError, match="^zero prefactor$"):
            expr()


def test_vanishing_denominator_is_refused_by_its_row():
    # 1/(1;q)_inf has the factor 1/(1 - 1); a ValueError, so the CLI exits 2
    with pytest.raises(ValueError, match="vanishing Pochhammer factor"):
        eval_product(ProductExpr() / P(0, 1), 6)


def test_poch_table_matches_finite():
    tab = poch_table(Monomial(-1, Fraction(1, 2)), 1, 6)
    for n in range(7):
        assert tab[n] == PochRow((Monomial(-1, Fraction(1, 2)),), 1)[n]
    # a row of several symbols is the product of their single rows, each
    # cut at the order; the symbol with a negative exponent comes last
    args = (Monomial(-1, Fraction(1, 2)), Monomial(2, 1), qmono(2),
            Monomial(Fraction(1, 3), -1))
    for order in (None, Fraction(7, 2), Fraction(12)):
        row = PochRow(args, 1, order, 4)
        for n in (3, 0, 6, 1, 2, 5, 4):
            want = QSeries.one(4)
            for x in args:
                want = want * PochRow((x,), 1, order, 4)[n]
            assert row[n] == want, (order, n)
            if order is not None and n:
                assert want.order_num == exp_num(order - 1, 4)


@pytest.mark.parametrize("order", [-2, Fraction(-1, 4)])
def test_negative_order_is_refused(order):
    # at a negative order the result was an empty series whose validity
    # depended on the factor count (-4 for this quotient at -2)
    for evaluate in (lambda: eval_product(NP(1, 1) / P(1, 1), order),
                     lambda: eval_product(ProductExpr(), order),
                     lambda: eval_product_sum([], order),
                     lambda: poch_infinite(qmono(1), 1, order)):
        with pytest.raises(ValueError, match="order must be nonnegative"):
            evaluate()


def test_order_zero_still_evaluates():
    for s in (eval_product(NP(1, 1) / P(1, 1), 0),
              poch_infinite(qmono(1), 1, 0)):
        assert s.terms == {0: 1} and s.order_num == 0
