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
    coefficient,
    compare_up_to,
    deepen_until_valid,
    dump,
    equal_up_to,
    invert_unit,
    load_dump,
    monomial_series,
    mul_inv_one_minus,
    qmono,
    substitute_power,
)

from helpers import count_partitions


def S(pairs, order=None, den=4):
    return QSeries.from_terms(pairs, den=den, order=order)


def test_monomial_series_basics():
    assert monomial_series(qmono(0), order=40) == S([(0, 1)], 40)
    assert monomial_series(Monomial(-1, Fraction(1, 2)), order=40) == \
        S([(Fraction(1, 2), -1)], 40)
    assert monomial_series(Monomial(2, 41), order=40).is_zero


def test_zero_monomial_rejected():
    with pytest.raises(ValueError):
        Monomial(0, 3)


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
        a.terms[0] = rng.choice([1, -1, 2, Fraction(1, 2)])
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
