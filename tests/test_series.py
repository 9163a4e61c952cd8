"""Kernel tests: arithmetic, inversion, substitution, comparison, dump format."""

import random
from fractions import Fraction

import pytest

from qident.series import (
    DEEPEN_ATTEMPTS,
    LatticeError,
    Mismatch,
    Monomial,
    QSeries,
    TruncationError,
    _Slots,
    _pack,
    _signed_slots,
    coefficient,
    compare_up_to,
    deepen_until_valid,
    dot,
    dump,
    equal_up_to,
    invert_unit,
    load_dump,
    monomial_series,
    mul_inv_one_minus,
    mul_one_minus,
    qmono,
    substitute_power,
)

from helpers import (
    check_against,
    count_partitions,
    dense,
    dense_add,
    dense_geometric,
    dense_inverse,
    dense_mul,
)


def S(pairs, order=None, den=4):
    return QSeries.from_terms(pairs, den=den, order=order)


def test_monomial_series_basics():
    assert monomial_series(qmono(0), order=40) == S([(0, 1)], 40)
    assert monomial_series(Monomial(-1, Fraction(1, 2)), order=40) == \
        S([(Fraction(1, 2), -1)], 40)
    assert monomial_series(Monomial(2, 41), order=40).is_zero


def test_constructor_drops_stored_zeros():
    s = QSeries(4, {0: 0})
    assert s.is_zero and s.min_num is None
    assert dump(s, 1) == "order 4/4\n"


def test_constructor_reduces_to_the_least_denominator():
    assert QSeries(4, {0: 0, 3: Fraction(4, 2)}) == QSeries(4, {3: 2})
    s = QSeries(4, {0: Fraction(1, 6), 2: Fraction(-3, 4)}, 8)
    assert (s.nums, s.d) == ({0: 2, 2: -9}, 12)
    half = QSeries(4, {1: Fraction(1, 2)})
    assert ((half + half).nums, (half + half).d) == ({1: 1}, 1)


def test_equality_is_between_series_only_and_a_series_is_unhashable():
    # a series never equals a scalar, from either side, even when its only
    # term is that scalar
    assert not QSeries.one() == 1
    assert not 1 == QSeries.one()
    assert QSeries.one() != Fraction(1)
    with pytest.raises(TypeError, match="unhashable"):
        hash(QSeries.one())


def test_invert_unit_skips_a_stored_zero():
    # the lowest term is q^(1/4), so the operand is not valid far enough
    with pytest.raises(TruncationError):
        invert_unit(QSeries(4, {0: 0, 1: 1}, 8), 2)


def test_zero_monomial_rejected():
    with pytest.raises(ValueError):
        Monomial(0, 3)


def test_negated_monomial_keeps_its_exponent():
    assert -Monomial(Fraction(2, 3), Fraction(5, 4)) == \
        Monomial(Fraction(-2, 3), Fraction(5, 4))
    assert -(-qmono(3)) == qmono(3)


def test_scalars_and_monomials_subtract_from_a_series():
    # a scalar or a monomial on the left is promoted to an exact series
    s = S([(0, 1), (Fraction(1, 2), -3)], order=6)
    assert 1 - s == S([(Fraction(1, 2), 3)], order=6)
    assert Fraction(1, 2) - s == S([(0, Fraction(-1, 2)),
                                    (Fraction(1, 2), 3)], order=6)
    assert Monomial(Fraction(-2, 3), 2) - s == \
        S([(0, -1), (Fraction(1, 2), 3), (2, Fraction(-2, 3))], order=6)
    assert s - qmono(0) == S([(Fraction(1, 2), -3)], order=6)


def test_repr_shows_eight_terms_and_the_validity():
    assert repr(QSeries(4, {})) == "<QSeries 0 | exact>"
    assert repr(S([(0, 2), (Fraction(1, 4), Fraction(-1, 2))], order=3)) == \
        "<QSeries 2 + -1/2*q^1/4 | O(q^3)>"
    long = repr(S([(k, 1) for k in range(10)]))
    assert long == ("<QSeries 1 + " + " + ".join(
        f"1*q^{k}" for k in range(1, 8)) + " + ... | exact>")


def test_add():
    one_plus = S([(0, 1), (1, 1)])
    one_minus = S([(0, 1), (1, -1)])
    assert one_plus + one_minus == S([(0, 2)])
    assert (one_plus + (-one_plus)).is_zero
    a = S([(0, 1), (1, 1)], order=10)
    b = S([(2, 1)], order=5)
    assert a + b == S([(0, 1), (1, 1), (2, 1)], order=5)


def test_mul_small():
    geo = S([(k, 1) for k in range(0, 9)], order=8)
    res = S([(0, 1), (1, -1)]) * geo
    assert equal_up_to(res, S([(0, 1)], 8), 8)
    sq = S([(0, 1), (1, 1)]) * S([(0, 1), (1, 1)])
    assert sq == S([(0, 1), (1, 2), (2, 1)])


def test_mul_pentagonal():
    prod = QSeries.one()
    for k in range(1, 16):
        prod = prod * S([(0, 1), (k, -1)])
    expect = S([(0, 1), (1, -1), (2, -1), (5, 1), (7, 1), (12, -1)])
    assert equal_up_to(prod, expect, 12)


def test_invert_geometric():
    inv = invert_unit(S([(0, 1), (1, -1)]), 5)
    assert inv == S([(k, 1) for k in range(6)], 5)
    assert invert_unit(QSeries.one(), 7) == S([(0, 1)], 7)


def test_invert_poch3_counts_bounded_partitions():
    poch3 = QSeries.one()
    for k in (1, 2, 3):
        poch3 = poch3 * S([(0, 1), (k, -1)])
    inv = invert_unit(poch3, 6)
    for n in range(7):
        assert coefficient(inv, n) == count_partitions(n, [1, 2, 3])
    assert inv == S([(0, 1), (1, 1), (2, 2), (3, 3), (4, 4), (5, 5), (6, 7)], 6)


def test_invert_laurent_shift():
    a = S([(-1, 2), (0, 2)])  # 2 q^-1 (1 + q)
    inv = invert_unit(a, 4)
    prod = a * inv
    assert equal_up_to(prod, QSeries.one(), 3)


def test_invert_respects_validity():
    a = S([(0, 1), (1, -1)], order=3)
    with pytest.raises(TruncationError):
        invert_unit(a, 10)
    with pytest.raises(ValueError):
        invert_unit(QSeries.zero(), 5)


def test_substitute_power():
    half = S([(0, 1), (Fraction(1, 2), 1)])
    assert substitute_power(half, 2) == S([(0, 1), (1, 1)])
    s = S([(0, 1), (1, -1), (2, -1), (5, 1)], order=6)
    assert substitute_power(s, 1) == s
    doubled = substitute_power(s, 2)
    assert doubled == S([(0, 1), (2, -1), (4, -1), (10, 1)], order=12)
    with pytest.raises(LatticeError):
        substitute_power(S([(Fraction(1, 4), 1)]), Fraction(1, 2))


def test_equal_up_to_and_mismatch():
    a = S([(0, 1), (1, 1)], order=50)
    b = S([(0, 1), (1, 1), (41, 1)], order=50)
    assert equal_up_to(a, a, 40)
    assert equal_up_to(a, b, 40)
    c = S([(0, 1), (1, 2)], order=50)
    m = compare_up_to(a, c, 1)
    assert m == Mismatch(Fraction(1), 1, 2)
    with pytest.raises(TruncationError):
        equal_up_to(S([(0, 1)], order=5), a, 10)


def test_coefficient():
    a = S([(0, 1), (1, 2)], order=10)
    assert coefficient(a, 1) == 2
    assert coefficient(a, 5) == 0
    with pytest.raises(TruncationError):
        coefficient(a, 11)


def test_lattice_mixing_rejected():
    a = S([(0, 1)], den=4)
    b = S([(0, 1)], den=2)
    with pytest.raises(LatticeError):
        a + b
    with pytest.raises(LatticeError):
        a * b


def test_mul_inv_one_minus_matches_invert():
    a = S([(0, 1), (3, 2)], order=20)
    fast = mul_inv_one_minus(a, qmono(2), 20)
    slow = a * invert_unit(S([(0, 1), (2, -1)]), 20)
    assert equal_up_to(fast, slow, 20)


def _random_series(rng, order=12, den=4):
    terms = []
    for _ in range(rng.randint(1, 6)):
        e = Fraction(rng.randint(0, order * den), den)
        c = rng.randint(-4, 4)
        if c:
            terms.append((e, c))
    return QSeries.from_terms(terms, den=den, order=order)


def test_ring_axioms_random():
    rng = random.Random(20231)
    for _ in range(60):
        a, b, c = (_random_series(rng) for _ in range(3))
        assert equal_up_to(a + b, b + a, 10)
        assert equal_up_to(a * b, b * a, 8)
        assert equal_up_to((a + b) + c, a + (b + c), 10)
        lhs = a * (b + c)
        rhs = a * b + a * c
        bound = min(x for x in (lhs.order_num, rhs.order_num) if x is not None)
        assert equal_up_to(lhs, rhs, Fraction(bound, 4))


def test_invert_roundtrip_random():
    rng = random.Random(777)
    for _ in range(100):
        a = _random_series(rng, order=16)
        a = a + (rng.choice([1, -1, 2, Fraction(1, 2)]) - a.coeff_num(0))
        inv = invert_unit(a, 8)
        assert equal_up_to(a * inv, QSeries.one(), 7)


def test_substitute_power_is_multiplicative():
    rng = random.Random(99)
    for _ in range(40):
        a = _random_series(rng)
        b = _random_series(rng)
        k = rng.choice([2, 3, Fraction(1, 2) * 2])
        left = substitute_power(a * b, k)
        right = substitute_power(a, k) * substitute_power(b, k)
        bound = min(x for x in (left.order_num, right.order_num)
                    if x is not None)
        assert equal_up_to(left, right, Fraction(bound, 4))


def test_dump_format_and_roundtrip():
    s = S([(0, 1), (Fraction(1, 2), Fraction(-1, 2)), (3, 4)], order=12)
    text = dump(s)
    assert text.splitlines()[0] == "order 48/4"
    assert text.splitlines()[1] == "0/4 1"
    assert "2/4 -1/2" in text
    assert load_dump(text) == s
    with pytest.raises(ValueError):
        dump(QSeries.one())
    assert dump(QSeries.one(), order=2).splitlines()[0] == "order 8/4"


def _scripted(valid_to):
    """Generator whose k-th result is valid to valid_to[k], whatever depth."""
    calls = []

    def build(depth):
        calls.append(depth)
        return S([(0, len(calls))], order=valid_to[len(calls) - 1])

    return build, calls


def test_deepen_returns_first_valid_result():
    build, calls = _scripted([8, Fraction(19, 2), 10, 10])
    s = deepen_until_valid(build, 10, 4)
    assert s.coeff_num(0) == 3
    assert calls == [10, 12, Fraction(25, 2)]


def test_deepen_checks_every_attempt_and_stops_at_the_limit():
    # the last permitted attempt is valid, so it must have been checked
    build, calls = _scripted([4] * (DEEPEN_ATTEMPTS - 1) + [5])
    assert deepen_until_valid(build, 5, 4).coeff_num(0) == DEEPEN_ATTEMPTS
    build, calls = _scripted([4] * (DEEPEN_ATTEMPTS + 1))
    with pytest.raises(TruncationError):
        deepen_until_valid(build, 5, 4)
    assert len(calls) == DEEPEN_ATTEMPTS


# -- differential test against the dense reference in tests/helpers.py ----

def _draw_pairs(rng, den, rational):
    """(exponent, coefficient) pairs from q^-2 to q^8, with repeats and
    cancelling pairs, so accumulation and zero-dropping are exercised."""
    pairs = []
    for _ in range(rng.randint(0, 8)):
        e = Fraction(rng.randint(-2 * den, 8 * den), den)
        if rational:
            c = Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3, 4]))
        else:
            c = rng.randint(-3, 3)
        pairs.append((e, c))
        if rng.random() < 0.2:
            pairs.append((e, -c))
    return pairs


def _draw_series(rng, den, rational):
    order = None if rng.random() < 0.3 else \
        Fraction(rng.randint(0, 10 * den), den)
    return QSeries.from_terms(_draw_pairs(rng, den, rational), den=den,
                              order=order)


def _valuation(s):
    return min(s.terms) if s.terms else s.order_num


def _min_or_none(*xs):
    xs = [x for x in xs if x is not None]
    return min(xs) if xs else None


def _product_order(a, b):
    return _min_or_none(
        None if a.order_num is None or _valuation(b) is None
        else a.order_num + _valuation(b),
        None if b.order_num is None or _valuation(a) is None
        else b.order_num + _valuation(a))


@pytest.mark.parametrize("den", [1, 4])
def test_kernel_matches_dense_reference(den):
    rng = random.Random(20261018 + den)
    # mul_one_minus draws from its own generator, which leaves the other
    # checks' operands untouched
    one_rng = random.Random(20261118 + den)
    lo, hi = -2 * den, 12 * den
    scalars = [0, 1, -1, 3, Fraction(1, 2), Fraction(-4, 3), Fraction(6, 3)]
    for trial in range(150):
        # int operands, rational operands and mixed pairs
        rational = trial % 2 == 1
        a = _draw_series(rng, den, rational)
        b = _draw_series(rng, den, trial % 3 == 1)
        x, y = dense(a, lo, hi), dense(b, lo, hi)
        oab = _min_or_none(a.order_num, b.order_num)

        check_against(a + b, dense_add(x, y), lo, oab)
        check_against(a - b, dense_add(x, [-v for v in y]), lo, oab)
        check_against(a * b, dense_mul(x, y), 2 * lo, _product_order(a, b))

        # a * (1 - c q^num) with num negative, zero or positive
        num = one_rng.randint(-2 * den, 2 * den)
        coeff = one_rng.choice(scalars[1:])
        low = min(num, 0)
        two = [Fraction(0)] * (abs(num) + 1)
        two[-low] += 1
        two[num - low] -= coeff
        check_against(mul_one_minus(a, coeff, num), dense_mul(x, two),
                       lo + low,
                       None if a.order_num is None else a.order_num + low)

        c = rng.choice(scalars)
        check_against(a.scale(c), [v * c for v in x], lo, a.order_num)

        pairs = _draw_pairs(rng, den, rational)
        order = rng.choice([None, Fraction(rng.randint(0, 10 * den), den)])
        onum = None if order is None else int(order * den)
        ref = [Fraction(0)] * (hi - lo + 1)
        for e, v in pairs:
            if onum is None or e * den <= onum:
                ref[int(e * den) - lo] += v
        check_against(QSeries.from_terms(pairs, den=den, order=order),
                       ref, lo, onum)

        step = rng.randint(1, 2 * den)
        coeff = rng.choice(scalars[1:])
        order = Fraction(rng.randint(0, 10 * den), den)
        check_against(
            mul_inv_one_minus(a, Monomial(coeff, Fraction(step, den)), order),
            dense_geometric(x, coeff, step), lo,
            _min_or_none(int(order * den), a.order_num))

        if a.is_zero:
            continue
        low = a.min_num
        order = Fraction(rng.randint(0, 6 * den), den)
        onum = int(order * den)
        if a.order_num is not None and a.order_num - 2 * low < onum:
            with pytest.raises(TruncationError):
                invert_unit(a, order)
            continue
        span = onum + low + 1
        ref = dense_inverse(dense(a, low, low + max(span, 1) - 1), span) \
            if span > 0 else []
        check_against(invert_unit(a, order), ref, -low, onum)


def test_invert_unit_on_coarse_lattices():
    """Units whose exponents above the lowest lie on a coarser lattice than
    1/den (steps of 2/4 to 3 at den 4, shifted by any lowest exponent) invert
    as the dense reference does, so stepping over that lattice skips only
    coefficients that are zero."""
    # its own generator, so no other check's operands change
    rng = random.Random(20261020)
    den = 4
    for trial in range(150):
        step = rng.choice([2, 3, 4, 6, 8, 12])
        low = rng.randint(-2 * den, 2 * den)
        c0 = rng.choice([1, -1, 2, Fraction(-1, 3)])
        pairs = [(Fraction(low, den), c0)]
        for _ in range(rng.randint(1, 6)):
            c = Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3]))
            pairs.append((Fraction(low + step * rng.randint(1, 10), den), c))
        top = rng.randint(0, 10 * den)
        a = QSeries.from_terms(pairs, den=den, order=rng.choice(
            [None, Fraction(2 * max(low, 0) + top + rng.randint(0, 8), den)]))
        order = Fraction(rng.randint(0, top), den)
        onum = int(order * den)
        span = onum + low + 1
        ref = dense_inverse(dense(a, low, low + max(span, 1) - 1), span) \
            if span > 0 else []
        check_against(invert_unit(a, order), ref, -low, onum)


def test_mul_over_common_denominators():
    """Products convolved on integer numerators over each operand's common
    denominator match the dense reference: pairwise-coprime and large
    denominators, int x Fraction and Fraction x Fraction operands, exact and
    truncated, and products that cancel to integers and to zero."""
    # its own generator, so no other check's operands change
    rng = random.Random(20261019)
    den, lo, hi = 4, -8, 48
    dens = [3, 7, 9, 11, 2**40 + 1]
    coprime = [3, 7, 11, 2**40 + 1]
    nums = [-5, -4, -2, -1, 1, 2, 4, 5]  # prime to every denominator above

    def draw(coeff):
        """1 to 8 terms, each coefficient coeff(s) for s drawn from nums."""
        pairs = [(Fraction(rng.randint(-2 * den, 8 * den), den),
                  coeff(rng.choice(nums))) for _ in range(rng.randint(1, 8))]
        order = rng.choice([None, Fraction(rng.randint(0, 10 * den), den)])
        return QSeries.from_terms(pairs, den=den, order=order)

    def frac(s):
        return Fraction(s, rng.choice(dens))

    for trial in range(200):
        kind = trial % 5
        if kind == 0:  # int x Fraction
            a, b = draw(int), draw(frac)
        elif kind == 1:  # Fraction x Fraction
            a, b = draw(frac), draw(frac)
        elif kind == 2:  # Fraction x Fraction with integer coefficients
            d1, d2 = rng.sample(coprime, 2)
            a = draw(lambda s: Fraction(s * d2, d1))
            b = draw(lambda s: Fraction(s * d1, d2))
        elif kind == 3:  # c (1 + q^e) times c' (1 - q^e): the middle cancels
            c1, c2 = frac(rng.choice(nums)), frac(rng.choice(nums))
            e = Fraction(rng.randint(1, 4 * den), den)
            a = QSeries.from_terms([(0, c1), (e, c1)], den=den)
            b = QSeries.from_terms([(0, c2), (e, -c2)], den=den,
                                   order=rng.choice([None, e, 3 * e]))
        else:  # an operand whose Fraction terms cancel to zero
            c = frac(rng.choice(nums))
            e = Fraction(rng.randint(0, 8 * den), den)
            a = QSeries.from_terms([(e, c), (e, -c)], den=den,
                                   order=rng.choice([None, e]))
            b = draw(frac)
        if rng.random() < 0.5:
            a, b = b, a
        ref = dense_mul(dense(a, lo, hi), dense(b, lo, hi))
        res = a * b
        check_against(res, ref, 2 * lo, _product_order(a, b))
        if kind == 2:
            assert all(type(c) is int for c in res.terms.values())
        if kind == 3:
            assert res.terms[0] == c1 * c2 and int(e * den) not in res.terms
        if kind == 4:
            assert res.is_zero


def _draw_dot_operand(rng, den):
    """An exact, truncated or empty truncated series from q^-2 to q^8 with
    int, small rational or large-denominator coefficients."""
    kind = rng.random()
    if kind < 0.15:
        return QSeries(den, {}, rng.randint(-2 * den, 10 * den))
    a = _draw_series(rng, den, rng.random() < 0.5)
    if kind < 0.3 and a.terms:  # denominators the others do not share
        c = Fraction(rng.choice([1, -1]), rng.choice([7, 9, 2**40 + 1]))
        a = a.scale(c)
    return a


@pytest.mark.parametrize("den", [1, 2, 4])
def test_dot_equals_the_folded_sum_of_products(den):
    """dot(pairs, onum, den) has the terms, coefficient types and validity
    of sum((a * b for a, b in pairs), QSeries(den, {}, onum)): int and
    rational operands, exact, truncated and empty truncated ones, negative
    exponents, onum None and no pairs at all."""
    # its own generator, so no other check's operands change
    rng = random.Random(20261021 + den)
    seen = set()
    for trial in range(150):
        pairs = [(_draw_dot_operand(rng, den), _draw_dot_operand(rng, den))
                 for _ in range(rng.randint(0, 5))]
        if trial % 4 == 0:  # every operand exact, so the validity may be None
            pairs = [(QSeries(den, a.terms), QSeries(den, b.terms))
                     for a, b in pairs]
        onum = rng.choice([None, rng.randint(-2 * den, 12 * den)])
        want = sum((a * b for a, b in pairs), QSeries(den, {}, onum))
        got = dot(pairs, onum, den)
        assert got.den == den and got.order_num == want.order_num
        assert [(n, c, type(c)) for n, c in sorted(got.terms.items())] == \
            [(n, c, type(c)) for n, c in sorted(want.terms.items())]
        seen.add((got.order_num is None, any(
            not s.terms and s.order_num is not None for p in pairs for s in p),
            any(type(c) is Fraction for c in got.terms.values()),
            any(n < 0 for n in got.terms)))
    # exact and truncated results, empty operands, rational and negative
    # exponent outputs all occurred
    for i in range(4):
        assert {key[i] for key in seen} == {False, True}


def test_dot_rejects_mixed_lattices():
    with pytest.raises(LatticeError):
        dot([(QSeries.one(4), QSeries.one(2))], None, 4)
    with pytest.raises(LatticeError):
        dot([(QSeries.one(4), QSeries.one(4)),
             (QSeries.one(2), QSeries.one(2))], 8, 4)
    with pytest.raises(LatticeError):  # as the folded sum does
        sum((a * b for a, b in [(QSeries.one(2), QSeries.one(2))]),
            QSeries(4, {}, 8))


@pytest.mark.parametrize("den", [1, 2, 4])
def test_a_product_with_the_exact_unit_is_the_other_factor(den):
    """a * 1 and 1 * a return a itself, equal to the product dot forms;
    a unit on another lattice is still refused, and a truncated 1 is not
    the unit."""
    rng = random.Random(20261022 + den)
    one = QSeries.one(den)
    for _ in range(60):
        a = _draw_dot_operand(rng, den)
        assert a * one is a and one * a is a
        assert a == dot(((a, one),), None, den)
    assert one * one is one
    with pytest.raises(LatticeError):
        QSeries.one(2 * den) * _draw_dot_operand(rng, den)
    a = S([(0, 1), (1, 2)], den=den)
    cut = QSeries(den, {0: 1}, 2 * den)
    assert a * cut is not a and (a * cut).order_num == 2 * den


@pytest.mark.parametrize("call, exc, message", [
    (lambda: QSeries(4, {0: 1}, 8).truncated(3), TruncationError,
     "cannot extend validity from 2 to 3"),
    (lambda: dump(QSeries(4, {0: 1}, 8), 3), TruncationError,
     "dump order exceeds series validity"),
    (lambda: load_dump("0/4 1\n"), ValueError, "missing dump header"),
    (lambda: load_dump("order 8/2\n0/2 1\n"), LatticeError,
     "dump lattice 1/2 does not match 1/4"),
    (lambda: load_dump("order 8/4\n0/4 1\n1/2 3\n"), LatticeError,
     "inconsistent lattice inside dump"),
    (lambda: mul_inv_one_minus(QSeries.one(4), qmono(0, 2), 3), ValueError,
     "geometric factor needs a positive exponent"),
    (lambda: mul_inv_one_minus(QSeries.one(4), qmono(-1), 3), ValueError,
     "geometric factor needs a positive exponent"),
    (lambda: substitute_power(QSeries.one(4), 0), ValueError,
     "substitution power must be positive"),
    (lambda: QSeries.one(0), LatticeError,
     "lattice denominator must be at least 1, got 0"),
    (lambda: QSeries(-4, {0: 1}, None), LatticeError,
     "lattice denominator must be at least 1, got -4"),
    (lambda: QSeries.one(4) + "x", TypeError,
     "cannot interpret 'x' as a series"),
    (lambda: 1.5 - QSeries.one(4), TypeError,
     "cannot interpret 1.5 as a series"),
], ids=["truncated-past-validity", "dump-past-validity", "load-no-header",
        "load-other-lattice", "load-mixed-line", "geometric-exponent-0",
        "geometric-exponent-negative", "substitute-power-0", "series-den-0",
        "series-den-negative", "add-a-string", "subtract-from-a-float"])
def test_kernel_refusals(call, exc, message):
    with pytest.raises(exc) as info:
        call()
    assert type(info.value) is exc and str(info.value) == message


def test_kernel_builds_no_fraction_per_coefficient(monkeypatch):
    """The kernel runs on integer numerators: on operands over 3, 7 and
    2**40 + 1, dot, +, -, shift, truncated and the packed codec build no
    Fraction, and scale, mul_one_minus and mul_inv_one_minus at most one per
    call, for their scalar."""
    # its own generator, so no other check's operands change
    rng = random.Random(20261022)
    den, dens = 4, [3, 7, 2**40 + 1]

    def draw():
        q = rng.choice(dens)
        pairs = [(Fraction(rng.randint(-2 * den, 8 * den), den),
                  Fraction(rng.randint(-9, 9), q))
                 for _ in range(rng.randint(2, 8))]
        return QSeries.from_terms(pairs, den=den, order=rng.choice([None, 10]))

    cases = []
    for _ in range(40):
        a, b = draw(), draw()
        c = Fraction(rng.choice([-4, 1, 5]), rng.choice(dens))
        cases.append((a, b, c, Monomial(c, Fraction(rng.randint(1, 8), den)),
                      _Slots.of(a)))
    assert sum(any(type(c) is Fraction for c in a.terms.values())
               for a, *_ in cases) > 30

    calls = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        calls.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    for a, b, c, m, slots in cases:
        calls.clear()
        dot(((a, b), (b, a)), 30, den)
        for s in (a + b, a - b, a.shift(3), a.truncated(5)):
            _Slots.of(s)
        slots.series()
        assert calls == []
        for op in (lambda: a.scale(c), lambda: mul_one_minus(a, c, -2),
                   lambda: mul_inv_one_minus(a, m, 10)):
            calls.clear()
            op()
            assert len(calls) <= 1


# -- packed series: the slot codec is the oracle -----------------------------

def _fits(digits, b):
    return all(-(1 << b - 1) <= v < 1 << b - 1 for v in digits)


def test_packed_operations_match_the_codec():
    """bits, relayout and cut of a packed series against _pack and
    _signed_slots on seeded digit vectors: widths 8 to 128 bits, strides 1
    to 4, mixed signs with digits at both ends of their range, and empty
    and one-slot vectors."""
    rng = random.Random(20261039)  # its own generator
    seen = set()
    for trial in range(400):
        w = rng.randrange(8, 129, 8)
        n = rng.choice([0, 1, 2, rng.randint(3, 40)])
        size = rng.randint(1, w)  # the digits' largest bit length + 1
        ends = [-(1 << size - 1), (1 << size - 1) - 1]
        digits = [rng.choice([rng.randint(*ends), rng.choice(ends), 0,
                              rng.randint(-3, 3)]) for _ in range(n)]
        x = _pack(digits, w)
        assert _signed_slots(x, w, n) == digits
        low, g = rng.randint(-8, 8), rng.randint(1, 3) if n > 1 else 0
        slots = _Slots(4, x, w, n, low, g, rng.choice([1, 3]), None)
        # bits: the least whole byte that holds every digit with its sign
        b = slots.bits()
        assert b % 8 == 0 and 8 <= b <= w and _fits(digits, b)
        assert b == 8 or not _fits(digits, b - 8)
        # relayout: slot s to slot stride*s of any wide enough layout
        W = rng.randrange(b, 2 * w + 9, 8)
        stride = rng.randint(1, 4)
        spread = [0] * (stride * (n - 1) + 1 if n else 0)
        spread[::stride] = digits
        assert slots.relayout(W, stride) == _pack(spread, W)
        # cut: the slots through an exponent, with their signs
        valid = rng.randint(low - 2, low + (g or 1) * (n + 1))
        cut = slots.cut(valid)
        kept = digits[:max(0, (valid - low) // (g or 1) + 1)]
        assert (cut.x, cut.n, cut.valid) == (_pack(kept, w), len(kept), valid)
        assert cut.series() == QSeries._of(
            4, {low + g * s: v for s, v in enumerate(kept)}, slots.d, valid,
            valid)
        seen.update({("n", min(n, 2)), ("stride", stride),
                     ("narrower", W < w), ("cut", len(kept) < n)})
    assert seen >= {("n", 0), ("n", 1), ("n", 2), ("narrower", True),
                    ("cut", True)} | {("stride", s) for s in range(1, 5)}


@pytest.mark.parametrize("den", [1, 4])
def test_packed_times_equals_the_series_product(den):
    """_Slots.times of two packed series is their QSeries product in terms
    and validity: exact, truncated and empty truncated operands, int and
    rational ones, the unit 1 and single terms."""
    rng = random.Random(20261040 + den)  # its own generator
    for trial in range(200):
        a, b = _draw_dot_operand(rng, den), _draw_dot_operand(rng, den)
        if trial % 7 == 0:
            a = QSeries(den, {0: 1}, rng.choice([None, 5 * den]))
        x, y = _Slots.of(a), _Slots.of(b)
        got = x.times(y, x.bits(), y.bits()).series()
        want = a * b
        assert (got.terms, got.order_num) == (want.terms, want.order_num)
