"""Lattice-sum evaluators, enumeration bounds and rank reduction."""

import dataclasses
import hashlib
import json
import random
import sys
from fractions import Fraction
from itertools import product
from math import ceil, floor
from pathlib import Path

import pytest

from qident import nahm, series
from qident.catalog import load_catalog
from qident.nahm import (
    AffineForm,
    MultiSumSpec,
    PochFactor,
    check_symmetrizable,
    eval_reduction,
    is_positive_definite,
    lattice_bound,
    multi_sum,
    nahm_spec,
    nahm_sum,
    reduce_rank,
)
from qident.products import PochRow
from qident.series import (
    LatticeError,
    Monomial,
    QSeries,
    dump,
    equal_up_to,
    exp_num,
    invert_unit,
    qmono,
)
from helpers import (
    brute_sum,
    count_gap2,
    det,
    leading_minors,
    minor,
    real_extent,
    series_coeffs,
)

H = Fraction(1, 2)


def rr_spec(shift=0):
    return nahm_spec(A=[[2]], b=[shift], c=0, d=[1])


def test_symmetrizable_checks():
    assert check_symmetrizable([[2]], [1])
    assert not check_symmetrizable([[0]], [1])
    # symmetric only after applying d
    assert check_symmetrizable([[1, 0, H], [0, 2, 1], [1, 2, 2]], [2, 2, 4])
    assert not check_symmetrizable([[1, 1], [0, 1]], [1, 1])
    # AD symmetric but indefinite
    assert not check_symmetrizable([[1, 2], [2, 1]], [1, 1])
    with pytest.raises(ValueError):
        check_symmetrizable([[1, 0]], [1, 1])


def test_quadruple_validation():
    with pytest.raises(ValueError):
        nahm_spec(A=[[2]], b=[0], c=0, d=[0])
    with pytest.raises(ValueError):
        nahm_spec(A=[[2]], b=[0, 1], c=0, d=[1])
    with pytest.raises(ValueError):
        nahm_spec(A=[[1, 1], [0, 1]], b=[0, 0], c=0, d=[1, 1])


def test_gap_two_partitions():
    # sum q^(n^2)/(q;q)_n counts partitions with gaps >= 2
    s = nahm_sum(rr_spec(), 30)
    assert series_coeffs(s, 30) == [count_gap2(n) for n in range(31)]


def test_gap_two_partitions_min_part_two():
    s = nahm_sum(rr_spec(shift=1), 30)
    assert series_coeffs(s, 30) == [count_gap2(n, 2) for n in range(31)]


def test_constant_offset():
    q = nahm_spec(A=[[2]], b=[0], c=H, d=[1])
    with_c = nahm_sum(q, 10)
    plain = nahm_sum(rr_spec(), 10)
    assert with_c == (plain * qmono(H)).truncated(10)
    off = nahm_spec(A=[[2]], b=[0], c=Fraction(1, 3), d=[1])
    with pytest.raises(LatticeError):
        nahm_sum(off, 10)


def test_order_zero():
    s = nahm_sum(rr_spec(), 0)
    assert s.coeff_num(0) == 1 and len(s.terms) == 1


def test_rank_two_against_brute_force():
    q = nahm_spec(A=[[2, 1], [1, 2]], b=[0, H], c=0, d=[1, 1])
    order = 20
    box = [b + 2 for b in lattice_bound(q, order)]

    def term(pt):
        n1, n2 = pt
        e = n1 * n1 + n1 * n2 + n2 * n2 + Fraction(n2, 2)
        if e > order:
            return None
        den1 = invert_unit(PochRow((qmono(1),), 1, order)[n1], order)
        den2 = invert_unit(PochRow((qmono(1),), 1, order)[n2], order)
        return (den1 * den2 * Monomial(1, e)).truncated(order)

    assert nahm_sum(q, order) == brute_sum(order, 4, box, term)


TABLE_SHAPED = [
    nahm_spec(A=[[1, 0, H], [0, 2, 1], [1, 2, 2]], b=b, c=0, d=[2, 2, 4])
    for b in ([0, 0, 0], [0, 0, 2], [0, 2, 4], [2, 2, 4])
]


@pytest.mark.parametrize("quad", TABLE_SHAPED + [
    rr_spec(),
    nahm_spec(A=[[2, 1], [1, 2]], b=[0, H], c=0, d=[1, 1]),
    nahm_spec(A=[[4, 1], [2, 2]], b=[-H, 1], c=0, d=[1, 2]),
])
def test_two_evaluation_routes_agree(quad):
    order = 16
    m, lin, d = quad.quad, quad.lin, quad.denoms
    box = [b + 2 for b in lattice_bound(quad, order)]

    def term(pt):
        e = sum(Fraction(m[i][j], 2) * pt[i] * pt[j]
                for i in range(quad.rank) for j in range(quad.rank)) + \
            sum(x * v for x, v in zip(lin, pt))
        if e > order:
            return None
        out = QSeries.one(4)
        for di, v in zip(d, pt):
            out = out * invert_unit(PochRow((qmono(di),), di, order)[v],
                                    order)
        return (out * Monomial(1, e)).truncated(order)

    assert nahm_sum(quad, order) == brute_sum(order, 4, box, term)


def test_lattice_bound_diagonal():
    q = nahm_spec(A=[[2, 0], [0, 2]], b=[0, 0], c=0, d=[1, 1])
    assert lattice_bound(q, 25) == [5, 5]
    assert lattice_bound(rr_spec(shift=-1), 10) == [3]


def test_lattice_bound_hands_out_a_fresh_box_each_call():
    # a caller's edits to its box must not reach the next caller
    q = nahm_spec(A=[[2, 0], [0, 2]], b=[0, 0], c=0, d=[1, 1])
    box = lattice_bound(q, 25)
    box.append(99)
    assert lattice_bound(q, 25) == [5, 5]
    assert lattice_bound(q, Fraction(25)) == [5, 5]


def test_verify_reports_the_box_its_enumeration_used():
    cat = load_catalog()
    for rid in ("R.R.1", "table2.15.4"):
        spec = cat.get(rid).spec
        assert cat.verify(rid, 40).box == tuple(lattice_bound(spec, 40))


@pytest.mark.parametrize("order", [-2, Fraction(-1, 4)])
def test_multi_sum_refuses_a_negative_order(order):
    spec = MultiSumSpec(names=("i",), quad=((Fraction(2),),),
                        lin=(Fraction(0),), denoms=(Fraction(1),))
    with pytest.raises(ValueError, match="order must be nonnegative"):
        multi_sum(spec, order)
    zero = multi_sum(spec, 0)
    assert zero.terms == {0: 1} and zero.order_num == 0


def test_lattice_bound_covers_shell():
    # no point just outside the box may have exponent <= order
    spec = TABLE_SHAPED[0]
    order = 12
    box = lattice_bound(spec, order)
    for a in range(box[0] + 3):
        for b in range(box[1] + 3):
            for c in range(box[2] + 3):
                if all(v <= m for v, m in zip((a, b, c), box)):
                    continue
                assert spec.exponent((a, b, c)) > order


def _oracle_box(spec, order):
    """The real extent of {exponent <= order} from tests/helpers.py, after
    checking lattice_bound against it: with a negative entry the box is that
    extent exactly; with none it is the orthant bound, which may stick out
    of the real extent but must still hold every point it admits."""
    box = real_extent(spec.quad, spec.lin, spec.const, order)
    bound = lattice_bound(spec, order)
    if any(x < 0 for row in spec.quad for x in row):
        assert bound == box, spec
    return box, bound


def _within(point, box):
    return all(v <= b for v, b in zip(point, box))


def test_lattice_bound_negative_entries():
    spec = nahm_spec(A=[[2, -1], [-1, 2]], b=[0, 0], c=0, d=[1, 1])
    order = 18
    box, bound = _oracle_box(spec, order)
    assert bound == [4, 4]
    for a in range(box[0] + 1):
        for b in range(box[1] + 1):
            if spec.exponent((a, b)) <= order:
                assert _within((a, b), bound)


def _random_symmetric(rng, r, kind):
    """P^T D P for a random integer P and a diagonal D that is positive
    ("definite"), has a zero ("singular") or a negative entry
    ("indefinite"); with that, it is positive definite iff det P != 0 and
    kind is "definite" (Sylvester's law of inertia)."""
    p = [[rng.randint(-2, 2) for _ in range(r)] for _ in range(r)]
    d = [rng.choice(RATS) for _ in range(r)]
    if kind != "definite":
        d[rng.randrange(r)] = 0 if kind == "singular" else -rng.choice(RATS)
    m = [[sum(p[k][i] * d[k] * p[k][j] for k in range(r)) for j in range(r)]
         for i in range(r)]
    return m, kind == "definite" and det(p) != 0


def test_positive_definite_matches_leading_minors():
    rng = random.Random(12)
    seen = set()
    for _ in range(120):
        r = rng.randint(1, 4)
        kind = rng.choice(["definite", "singular", "indefinite"])
        m, expected = _random_symmetric(rng, r, kind)
        by_minors = all(x > 0 for x in leading_minors(m))
        assert by_minors == expected, m
        mat = tuple(tuple(Fraction(x) for x in row) for row in m)
        assert is_positive_definite(mat) == by_minors, m
        # A = m diag(d)^-1 is symmetrized by d back to m
        d = [rng.randint(1, 3) for _ in range(r)]
        a = [[Fraction(x, d[j]) for j, x in enumerate(row)] for row in m]
        assert check_symmetrizable(a, d) == by_minors, (a, d)
        if r > 1 and by_minors:
            a[0][1] += 1
            assert not check_symmetrizable(a, d)
        seen.add((r, kind, by_minors))
    for r in range(1, 5):
        for kind in ("definite", "singular", "indefinite"):
            assert (r, kind, kind == "definite") in seen


def test_negative_entry_sum_matches_brute_force():
    q = nahm_spec(A=[[2, -1], [-1, 2]], b=[1, 1], c=0, d=[1, 1])
    order = 14
    box, bound = _oracle_box(q, order)

    def term(pt):
        n1, n2 = pt
        e = n1 * n1 + n2 * n2 - n1 * n2 + n1 + n2
        if e > order:
            return None
        assert _within(pt, bound)
        den1 = invert_unit(PochRow((qmono(1),), 1, order)[n1], order)
        den2 = invert_unit(PochRow((qmono(1),), 1, order)[n2], order)
        return (den1 * den2 * Monomial(1, e)).truncated(order)

    assert nahm_sum(q, order) == brute_sum(order, 4, box, term)


def test_multi_sum_extra_and_prefactor():
    # sum q^(n^2) (-q^(1/2); q)_(n+1) (1 + q^(2n+2)) / (q; q)_n
    order = 15
    spec = MultiSumSpec(
        names=("n",),
        quad=((Fraction(2),),),
        lin=(Fraction(0),),
        denoms=(Fraction(1),),
        extra=(PochFactor(Monomial(-1, H), Fraction(1),
                          AffineForm(1, [1]), 1),),
        prefactor=((1, AffineForm(0, [0])), (1, AffineForm(2, [2]))),
    )

    def term(pt):
        (n,) = pt
        if n * n > order:
            return None
        num = PochRow((Monomial(-1, H),), 1, order)[n + 1]
        den = invert_unit(PochRow((qmono(1),), 1, order)[n], order)
        two = QSeries.from_terms([(0, 1), (2 * n + 2, 1)], den=4, order=order)
        return (num * den * two * Monomial(1, n * n)).truncated(order)

    assert multi_sum(spec, order) == brute_sum(order, 4, [6], term)


def test_multi_sum_inverse_extra():
    # sum q^(n^2) / ((q; q)_n (-q^(1/2); q)_n)
    order = 15
    spec = MultiSumSpec(
        names=("n",),
        quad=((Fraction(2),),),
        lin=(Fraction(0),),
        denoms=(Fraction(1),),
        extra=(PochFactor(Monomial(-1, H), Fraction(1),
                          AffineForm(0, [1]), -1),),
    )

    def term(pt):
        (n,) = pt
        if n * n > order:
            return None
        d1 = invert_unit(PochRow((qmono(1),), 1, order)[n], order)
        d2 = invert_unit(PochRow((Monomial(-1, H),), 1, order)[n], order)
        return (d1 * d2 * Monomial(1, n * n)).truncated(order)

    assert multi_sum(spec, order) == brute_sum(order, 4, [6], term)


@pytest.mark.parametrize("order, extra, prefactor", [
    # q^(-i) lets i = 4 reach q^12 from outside the box [3]
    (12, (), ((1, AffineForm(0, [-1])),)),
    (12, (), ((1, AffineForm(-1, [1])),)),
    # (q^(-5); q)_i reaches q^-5..q^3 and still claimed O(q^10)
    (10, (PochFactor(Monomial(1, -5), Fraction(1), AffineForm(0, [1]), 1),),
     ()),
    (10, (PochFactor(Monomial(-1, 1), Fraction(-1), AffineForm(0, [1]), -1),),
     ()),
], ids=["prefactor-coeff", "prefactor-const", "extra-arg", "extra-base"])
def test_multi_sum_rejects_negative_factor_powers(order, extra, prefactor):
    with pytest.raises(ValueError, match="nonnegative"):
        spec = MultiSumSpec(names=("i",), quad=((Fraction(2),),),
                            lin=(Fraction(0),), denoms=(Fraction(1),),
                            extra=extra, prefactor=prefactor)
        multi_sum(spec, order)


@pytest.mark.parametrize("quad, denoms, error", [
    (((2,),), (0,), "denominator bases must be positive"),
    (((2,),), (-1,), "denominator bases must be positive"),
    (((2, 0, 7), (0, 2)), (1, 1), "spec dimensions disagree"),
    (((2, 0), (0, 2, 7)), (1, 1), "spec dimensions disagree"),
], ids=["base-0", "base-minus-1", "long-first-row", "long-last-row"])
def test_spec_refuses_what_multi_sum_cannot_take(quad, denoms, error):
    # multi_sum divides by 1 - q^(d v) and reads only k entries of a row
    k = len(quad)
    with pytest.raises(ValueError, match=error):
        MultiSumSpec(names=tuple("ij"[:k]),
                     quad=tuple(tuple(map(Fraction, r)) for r in quad),
                     lin=(Fraction(0),) * k,
                     denoms=tuple(map(Fraction, denoms)))


def test_reduce_rank_merge_rank_two():
    q = nahm_spec(A=[[2, 1], [2, 2]], b=[-H, 0], c=0, d=[1, 2])
    red = reduce_rank(q)
    assert red is not None and red.kind == "merge"
    assert red.removed == ("n1", "n2")
    assert red.spec.names == ("n1+2n2",)
    assert red.spec.quad == ((Fraction(1),),)
    assert red.spec.lin == (Fraction(0),)
    assert red.spec.denoms == (Fraction(1),)
    assert eval_reduction(red, 15) == nahm_sum(q, 15)


def test_reduce_rank_merge_rank_three():
    q = nahm_spec(A=[[2, 1, 1], [1, 2, 1], [2, 2, 2]], b=[0, 0, 1],
                      c=0, d=[1, 1, 2])
    red = reduce_rank(q)
    assert red is not None and red.kind == "merge"
    assert red.removed == ("n1", "n3")
    assert red.spec.names == ("n1+2n3", "n2")
    assert red.spec.quad == ((Fraction(1), Fraction(1)),
                             (Fraction(1), Fraction(2)))
    assert red.spec.lin == (H, Fraction(0))
    assert eval_reduction(red, 15) == nahm_sum(q, 15)


def test_reduce_rank_euler():
    q = nahm_spec(A=[[1, 1], [1, 2]], b=[0, 0], c=0, d=[1, 1])
    red = reduce_rank(q)
    assert red is not None and red.kind == "euler"
    assert red.removed == ("n1",)
    assert red.prefactor == ((Monomial(-1, H), Fraction(1), 1),)
    assert red.spec.extra[0].power == -1
    assert red.spec.extra[0].length.coeffs == (Fraction(1),)
    assert eval_reduction(red, 12) == nahm_sum(q, 12)


def test_reduce_rank_none():
    assert reduce_rank(rr_spec()) is None
    flat = nahm_spec(A=[[2, 0], [0, 2]], b=[0, 0], c=0, d=[1, 1])
    assert reduce_rank(flat) is None
    # euler shape but with a nonpositive shift s
    stuck = nahm_spec(A=[[1]], b=[-H], c=0, d=[1])
    assert reduce_rank(stuck) is None


@pytest.mark.parametrize("A, d, removed", [
    ([[1, 1], [H, 1]], [2, 1], "n2"),
    ([[1, 0, -1], [0, 1, 0], [-1, 0, 3]], [1, 1, 1], "n2"),
], ids=["cross-ratio-not-an-integer", "cross-ratio-negative"])
def test_reduce_rank_euler_skips_an_index_it_cannot_sum(A, d, removed):
    # n1 has the euler pure part, but its cross entry over its base is 1/2,
    # or -1: it is skipped and n2, the next index of that shape, sums away
    q = nahm_spec(A=A, b=[0] * len(d), c=0, d=d)
    red = reduce_rank(q)
    assert red is not None and red.kind == "euler"
    assert red.removed == (removed,)
    assert eval_reduction(red, 12) == nahm_sum(q, 12)


def test_reduce_rank_reads_the_spec():
    # only a plain sum has a route, and the reduced sum keeps the constant
    spec = nahm_spec(A=[[2, 1], [2, 2]], b=[-H, 0], c=1, d=[1, 2])
    red = reduce_rank(spec)
    assert red.spec.const == 1
    assert eval_reduction(red, 15) == nahm_sum(spec, 15)
    one = ((1, AffineForm(0, [0, 0])),)
    fac = (PochFactor(Monomial(-1, 1), Fraction(1), AffineForm(0, [1, 0])),)
    halved = (Fraction(1, 2), Fraction(1))
    for change in ({"prefactor": one}, {"extra": fac}, {"denoms": halved}):
        assert reduce_rank(dataclasses.replace(spec, **change)) is None


# -- seeded differential test of multi_sum against brute_sum -----------------

RATS = [Fraction(k, d) for d in (1, 2, 3, 4) for k in range(1, 2 * d + 1)]


def _random_form(rng, r):
    """An affine form with the nonnegative rational constant and
    coefficients that the grammar admits for prefactor powers."""
    return AffineForm(rng.choice([0, 0] + RATS),
                      [rng.choice([0, 0] + RATS) for _ in range(r)])


def _random_spec(rng, r, nonneg):
    """A rank-r spec whose quadratic form is positive definite; nonneg
    selects the orthant box, otherwise some cross entry is negative and the
    exact square completion gives the box and the per-node floors."""
    while True:
        quad = [[Fraction(0)] * r for _ in range(r)]
        for i in range(r):
            quad[i][i] = rng.choice(RATS)
            for j in range(i):
                x = rng.choice([0] + RATS[:6])
                if not nonneg and rng.random() < 0.6:
                    x = -x
                quad[i][j] = quad[j][i] = Fraction(x)
        has_neg = any(x < 0 for row in quad for x in row)
        if has_neg != nonneg and check_symmetrizable(quad, [1] * r):
            break
    lin = [rng.choice([-1, -Fraction(1, 2), -Fraction(1, 3), 0] + RATS[:8])
           for _ in range(r)]
    extra = []
    for _ in range(rng.randint(0, 2)):
        power = rng.choice([1, -1])
        exp = rng.choice([Fraction(1, 2), 1, Fraction(4, 3)] +
                         ([0] if power == 1 else []))
        coeff = rng.choice([1, -1, 2, -Fraction(1, 2), Fraction(2, 3)])
        length = AffineForm(rng.randint(0, 1),
                            [rng.randint(0, 1) for _ in range(r)])
        extra.append(PochFactor(Monomial(coeff, exp),
                                Fraction(rng.choice([1, 2, 3])), length,
                                power))
    prefactor = tuple((rng.choice([1, 2, Fraction(1, 3)]),
                       _random_form(rng, r))
                      for _ in range(rng.randint(0, 2)))
    return MultiSumSpec(names=tuple(f"n{i}" for i in range(r)),
                        quad=tuple(map(tuple, quad)), lin=tuple(lin),
                        denoms=tuple(Fraction(rng.choice([1, 2]))
                                     for _ in range(r)),
                        const=rng.choice([0, Fraction(1, 3), Fraction(3, 4)]),
                        extra=tuple(extra), prefactor=prefactor)


def _brute_multi_sum(spec, order, den):
    """brute_sum over the real extent of the form, each term built from its
    Pochhammer factors with the exponent computed here, to depth order - e
    for the term's exponent e before the shift by q^e, so a term at a
    negative power keeps every coefficient through the order."""
    r = spec.rank
    box, bound = _oracle_box(spec, order)
    pref = spec.prefactor or ((1, AffineForm(0, [0] * r)),)

    def term(pt):
        e = spec.const + sum(
            Fraction(spec.quad[i][j], 2) * pt[i] * pt[j]
            for i in range(r) for j in range(r)) + \
            sum(x * v for x, v in zip(spec.lin, pt))
        if e > order:
            return None
        assert _within(pt, bound), (spec, pt)
        depth = order - e
        out = QSeries.from_terms([(f.value(pt), c) for c, f in pref], den=den)
        for d, v in zip(spec.denoms, pt):
            out = out * invert_unit(PochRow((qmono(d),), d, depth, den)[v],
                                    depth)
        for f in spec.extra:
            p = PochRow((f.arg,), f.base, depth, den)[
                int(f.length.value(pt))]
            out = out * (p if f.power == 1 else invert_unit(p, depth))
        return (out.truncated(depth) * Monomial(1, e)).truncated(order)

    return brute_sum(order, den, box, term)


@pytest.mark.parametrize("nonneg", [True, False], ids=["exact", "eigen"])
def test_multi_sum_matches_brute_force_on_random_specs(nonneg):
    # den 24 holds every exponent: quad/2 has denominators up to 8, the
    # other coefficients up to 4; at rank 3 each centre of the square
    # completion has two cross coefficients
    rng = random.Random(6 + nonneg)
    den = 24
    for _ in range(12):
        r = rng.randint(1, 2) if nonneg else rng.randint(2, 3)
        spec = _random_spec(rng, r, nonneg)
        order = Fraction(rng.randint(8, 16), 2)
        got = multi_sum(spec, order, den)
        assert got == _brute_multi_sum(spec, order, den), spec
        # the kernel's normal form: no zeros, no integral Fractions
        for c in got.terms.values():
            assert c != 0
            assert not (isinstance(c, Fraction) and c.denominator == 1)


def test_negative_entry_enumeration_stays_in_the_ellipsoid(monkeypatch):
    # A single eigenvalue radius gave this spec the box [145, 145] and walked
    # all of it (21315 divisions); no point past (1, 3) has exponent <= 11/2
    spec = MultiSumSpec(names=("a", "b"),
                        quad=((Fraction(5, 3), Fraction(-1)),
                              (Fraction(-1), Fraction(2, 3))),
                        lin=(Fraction(2), H), denoms=(Fraction(1),) * 2,
                        const=Fraction(3, 4))
    order = Fraction(11, 2)
    assert lattice_bound(spec, order) == [1, 3]
    calls = []
    real = nahm._div_packed
    monkeypatch.setattr(nahm, "_div_packed",
                        lambda *args: calls.append(args) or real(*args))
    got = multi_sum(spec, order, 12)
    assert len(calls) <= 10
    assert got == _brute_multi_sum(spec, order, 12)


def test_multi_sum_linear_coefficient_off_lattice():
    # q^(i^2 + i/3): only the linear coefficient leaves the 1/4-lattice
    spec = MultiSumSpec(names=("i",), quad=((Fraction(2),),),
                        lin=(Fraction(1, 3),), denoms=(Fraction(1),))
    with pytest.raises(LatticeError):
        multi_sum(spec, 10, 4)


# -- negative exponents and the validity of the enumeration accumulator ------

# sum q^(n(n-3)/2) / (q; q)_n: n = 1 and 2 sit at q^-1, so their terms are
# needed one power deeper than the order
NEG_SPEC = MultiSumSpec(names=("n",), quad=((Fraction(1),),),
                        lin=(Fraction(-3, 2),), denoms=(Fraction(1),))
INV_EXTRA = PochFactor(Monomial(-1, H), Fraction(1), AffineForm(0, [1]), -1)


@pytest.mark.parametrize("extra", [(), (INV_EXTRA,)], ids=["plain", "extra"])
def test_multi_sum_keeps_coefficients_below_negative_exponents(extra):
    # with lin -5/2 the exponent falls from q^-2 at n = 1 to q^-3 at n = 2,
    # so the series at n = 1 must already reach what n = 2 needs
    for lin in (Fraction(-3, 2), Fraction(-5, 2)):
        spec = dataclasses.replace(NEG_SPEC, lin=(lin,), extra=extra)
        for order in (2, Fraction(19, 2)):
            assert multi_sum(spec, order) == \
                _brute_multi_sum(spec, order, 4)
    if not extra:
        # the catalog repro printed 8/4 3 at order 2
        assert multi_sum(NEG_SPEC, 2).coeff_num(8) == 6


def test_multi_sum_validity_follows_its_contributions(monkeypatch):
    # extra tables cut two powers short: the n = 0 term is then known only
    # to order - 2, and the result must say so
    cut = nahm.inv_poch_table
    monkeypatch.setattr(
        nahm, "inv_poch_table",
        lambda arg, base, n, order, den: cut(arg, base, n, order - 2, den))
    spec = dataclasses.replace(NEG_SPEC, lin=(Fraction(0),),
                               extra=(INV_EXTRA,))
    got = multi_sum(spec, 10)
    assert got.order_num == exp_num(8, 4)
    assert max(got.nums) <= got.order_num
    assert equal_up_to(got, _brute_multi_sum(spec, 10, 4), 8)


def test_a_product_cut_short_of_the_order_keeps_nothing_past_its_cut(
        monkeypatch):
    # the origin is the one point; its entry 1/(1 + q^(1/2)), valid two
    # powers short of the order, ends on a negative digit, which the cut
    # keeps signed, so no slot between the cut and the order is written
    cut = nahm.inv_poch_table
    monkeypatch.setattr(
        nahm, "inv_poch_table",
        lambda arg, base, n, order, den: cut(arg, base, n, order - 2, den))
    spec = dataclasses.replace(
        NEG_SPEC, quad=((Fraction(40),),), lin=(Fraction(0),),
        extra=(PochFactor(Monomial(-1, H), Fraction(1), AffineForm(1, [0]),
                          -1),))
    want = QSeries.from_terms(
        ((Fraction(k, 2), (-1) ** k) for k in range(18)), 4, Fraction(17, 2))
    assert multi_sum(spec, Fraction(21, 2)) == want


def test_multi_sum_is_valid_to_the_order_it_was_asked_for():
    cat = load_catalog()
    for rid in cat.ids():
        assert multi_sum(cat.get(rid).spec, 60).order_num == 240, rid
    assert multi_sum(NEG_SPEC, 2).order_num == 8


# -- the packed walk: signed coefficients and a certified slot width ---------

SIGNED = [-1, -2, Fraction(-1, 2), Fraction(2, 3), Fraction(-3, 4), 1]


def _signed_spec(rng, r):
    """A random spec whose prefactor coefficients and extra factor
    arguments have either sign and may be rational, so the accumulator
    holds negative slots and its common denominator K exceeds 1."""
    spec = _random_spec(rng, r, nonneg=r == 1 or rng.random() < 0.5)
    prefactor = tuple((rng.choice(SIGNED), _random_form(rng, r))
                      for _ in range(rng.randint(1, 3)))
    extra = []
    for _ in range(rng.randint(1, 2)):
        power = rng.choice([1, -1])
        exp = rng.choice([H, 1, Fraction(4, 3)] + ([0] if power == 1 else []))
        extra.append(PochFactor(
            Monomial(rng.choice(SIGNED[:-1] + [3]), exp),
            Fraction(rng.choice([1, 2])),
            AffineForm(rng.randint(0, 1),
                       [rng.randint(0, 1) for _ in range(r)]), power))
    return dataclasses.replace(spec, prefactor=prefactor, extra=tuple(extra))


def test_multi_sum_with_signed_rational_factors_matches_brute_force():
    rng = random.Random(1807)
    negative = 0
    for t in range(15):
        spec = _signed_spec(rng, t % 3 + 1)
        order = Fraction(rng.randint(8, 14), 2)
        got = multi_sum(spec, order, 24)
        assert got == _brute_multi_sum(spec, order, 24), spec
        negative += any(c < 0 for c in got.terms.values())
    assert negative  # the signed decode was exercised
    # two prefactor terms of opposite sign whose forms vanish at the origin
    # each meet its extra factors there, one walk per term; when the
    # origin's product with its table entries has a negative digit, that
    # signed int goes through the walk's masked add: read it from the
    # walk's leaf as the leaf returns
    leaves = []
    emit = next(c for c in nahm.multi_sum.__code__.co_consts
                if getattr(c, "co_name", None) == "emit")

    def watch(frame, event, arg):
        if event == "return" and frame.f_code is emit:
            loc = frame.f_locals
            digits = series._signed_slots(loc["p"], loc["w"], loc["n"])
            leaves.append(not any(loc["point"]) and min(digits) < 0)

    rng = random.Random(1809)
    met = 0
    for t in range(12):
        spec = _signed_spec(rng, t % 3 + 1)
        c = rng.choice(SIGNED)
        spec = dataclasses.replace(spec, prefactor=(
            (c, AffineForm(0, [0] * spec.rank)),
            (-c * rng.choice([1, 2, Fraction(1, 3)]),
             AffineForm(0, _random_form(rng, spec.rank).coeffs)),
            *spec.prefactor))
        order = Fraction(rng.randint(8, 14), 2)
        leaves.clear()
        profiler = sys.getprofile()
        sys.setprofile(watch)
        try:
            got = multi_sum(spec, order, 24)
        finally:
            sys.setprofile(profiler)
        assert got == _brute_multi_sum(spec, order, 24), spec
        met += any(leaves)
    assert met


def _pref_spec(quad, lin, prefactor, extra=()):
    """A spec over (i, j) with unit bases and (c, const, coeffs) terms."""
    return MultiSumSpec(names=("i", "j"),
                        quad=tuple(tuple(map(Fraction, row)) for row in quad),
                        lin=tuple(map(Fraction, lin)),
                        denoms=(Fraction(1),) * 2,
                        prefactor=tuple((c, AffineForm(c0, cs))
                                        for c, c0, cs in prefactor),
                        extra=extra)


def test_multi_sum_prefactor_terms_match_brute_force():
    # each term is its own walk in its own box, so a term off the lattice,
    # past the order or over a form with a negative entry is met alone
    third = Fraction(1, 3)
    off = _pref_spec([[2, 1], [1, 2]], [0, 0],
                     [(1, 0, [0, 1]), (-2 * third, 0, [third, 0])])
    with pytest.raises(LatticeError) as info:
        multi_sum(off, 10, 4)
    assert str(info.value) == "exponent 4/3 is not on the (1/4)-lattice"
    inv = PochFactor(Monomial(-1, H), Fraction(1), AffineForm(0, [1, 1]), -1)
    cases = [
        (off, 10, 12),
        # 3 q^9 lies past the order at every point
        (_pref_spec([[2, 1], [1, 3]], [H, 0],
                    [(-H, 0, [1, 0]), (2 * third, H, [0, 1]), (3, 9, [0, 0])],
                    (inv,)), 7, 4),
        (_pref_spec([[2, -1], [-1, 2]], [0, H],
                    [(2, 0, [1, 1]), (-third, H, [0, 1])]), 8, 4),
    ]
    for spec, order, den in cases:
        got = multi_sum(spec, order, den)
        want = _brute_multi_sum(spec, order, den)
        assert (got.terms, got.order_num) == (want.terms, want.order_num)
    # both terms leave the lattice, the second at an earlier point of the
    # walk: the first term's walk reports its own point, on one line
    two = _pref_spec([[2, 1], [1, 2]], [0, 0],
                     [(1, 0, [third, 0]), (1, 0, [0, 2 * third])])
    with pytest.raises(LatticeError) as info:
        multi_sum(two, 10, 4)
    assert str(info.value) == "exponent 4/3 is not on the (1/4)-lattice"


def test_coloured_partitions_match_a_product_expansion(monkeypatch):
    # from empty tables, asked in a scrambled order, so the divisor sieve
    # extends a table that already has entries
    monkeypatch.setattr(series, "_SIGMA", [0])
    monkeypatch.setattr(series, "_COLOURED", {})
    top = 150
    ns = list(range(top + 1))
    random.Random(150).shuffle(ns)
    for r in (1, 2, 3):
        want = [1] + [0] * top  # coefficients of prod_k (1 - q^k)^-r
        for _ in range(r):
            for k in range(1, top + 1):
                for n in range(k, top + 1):
                    want[n] += want[n - k]
        got = {n: series._coloured_partitions(r, n) for n in ns}
        assert [got[n] for n in range(top + 1)] == want


def _watch_widths(monkeypatch):
    """Record the slot width of every walk, check every packed division
    against an exact prefix sum, and record how many bits its slots and
    each decode's slots used, each with the width of its own walk."""
    seen = {"width": [], "series": [], "acc": []}
    width, div, signed = nahm._slot_width, nahm._div_packed, \
        series._signed_slots

    def slot_width(*args):
        seen["width"].append(width(*args))
        return seen["width"][-1]

    def div_packed(p, shift, mask):
        w = seen["width"][-1]
        n, s = mask.bit_length() // w, shift // w
        want = signed(p, w, n)
        for k in range(s, n):
            want[k] += want[k - s]
        out = div(p, shift, mask)
        assert signed(out, w, n) == want
        seen["series"].append((max(want).bit_length(), w))
        return out

    def signed_slots(x, w, n):
        out = signed(x, w, n)
        seen["acc"].append(
            (max((abs(c).bit_length() for c in out), default=0), w))
        return out

    monkeypatch.setattr(nahm, "_slot_width", slot_width)
    monkeypatch.setattr(nahm, "_div_packed", div_packed)
    # the accumulator is decoded by its slots' one reader
    monkeypatch.setattr(series, "_signed_slots", signed_slots)
    return seen


def test_slot_width_holds_every_coefficient_of_the_walk(monkeypatch):
    cat = load_catalog()
    rng = random.Random(1808)
    cases = [(cat.get(rid).spec, 60, 4) for rid in cat.ids()]
    cases += [(_signed_spec(rng, t % 3 + 1), 7, 24) for t in range(12)]
    for spec, order, den in cases:
        seen = _watch_widths(monkeypatch)
        got = multi_sum(spec, order, den)
        monkeypatch.undo()
        # one walk per prefactor term, each at its own width: the same
        # walks in slots twice as wide give the same result, so the decoded
        # slots are the true K * coefficients; a signed slot needs its bits
        # and a sign bit below the width
        assert len(seen["width"]) == max(len(spec.prefactor), 1), spec
        width = nahm._slot_width
        monkeypatch.setattr(nahm, "_slot_width",
                            lambda *args: 2 * width(*args))
        assert multi_sum(spec, order, den) == got, spec
        monkeypatch.undo()
        assert all(bits < w - 1 for bits, w in seen["acc"]), spec
        # every division was checked against an exact prefix sum
        assert all(bits < w for bits, w in seen["series"]), spec


def test_a_short_slot_width_is_caught(monkeypatch):
    # one byte short: the largest whole-byte width that leaves the largest
    # K * coefficient no sign bit must make the walk raise OverflowError or
    # decode a wrong series, so the width test above would notice it; a
    # byte more holds every coefficient again
    rng = random.Random(1809)
    cat = load_catalog()
    cases = [(cat.get("R.R.1").spec, 60, 4), (_signed_spec(rng, 2), 6, 24)]
    for spec, order, den in cases:
        want = _brute_multi_sum(spec, order, den)
        seen = _watch_widths(monkeypatch)
        assert multi_sum(spec, order, den) == want
        monkeypatch.undo()
        short = max(bits for bits, _ in seen["acc"]) // 8 * 8
        assert short >= 8, spec
        monkeypatch.setattr(nahm, "_slot_width", lambda *args: short + 8)
        assert multi_sum(spec, order, den) == want
        monkeypatch.setattr(nahm, "_slot_width", lambda *args: short)
        try:
            assert multi_sum(spec, order, den) != want
        except OverflowError:
            pass
        monkeypatch.undo()


# -- walks with extra factors: one packed leaf --------------------------------

GOLDEN = Path(__file__).parent / "data" / "multi_sum_golden.json"


def _digest(s):
    return hashlib.sha256(f"{s.order_num}\n{dump(s)}".encode()).hexdigest()


def test_extra_factor_walks_are_pinned():
    """Every routed record's reduction and every family instance (k <= 4)
    with extra factors keep the validity and dump they had when each
    point's product with its table entries was formed as a QSeries."""
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    order, cat = golden["order"], load_catalog()
    reds = {rid: reduce_rank(cat.get(rid).spec) for rid in cat.ids()}
    reds = {rid: red for rid, red in reds.items() if red is not None}
    assert sorted(reds) == sorted(golden["reductions"])
    for rid, red in reds.items():
        assert _digest(eval_reduction(red, order)) == \
            golden["reductions"][rid], rid
    assert len(golden["family"]) == 18
    for name, want in golden["family"].items():
        spec = cat.resolve(name).spec
        assert spec.extra, name
        assert _digest(multi_sum(spec, order)) == want, name


def test_a_walk_with_extra_factors_decodes_once(monkeypatch):
    # every point multiplies its packed series by the packed table entries,
    # so no QSeries product is formed and the accumulator is the one decode
    counts = {"dot": 0, "decode": 0}
    dot, decode = series.dot, series._Slots.series

    def counted(name, f):
        def wrapper(*args):
            counts[name] += 1
            return f(*args)
        return wrapper

    monkeypatch.setattr(series, "dot", counted("dot", dot))
    monkeypatch.setattr(series._Slots, "series", counted("decode", decode))
    cat = load_catalog()
    for spec in (cat.resolve("thm1.1(2,1)").spec,
                 reduce_rank(cat.get("exam12-1").spec).spec):
        assert spec.extra
        counts.update(dot=0, decode=0)
        multi_sum(spec, 30)
        assert counts == {"dot": 0, "decode": 1}


# -- the integer form against Fraction oracles -------------------------------

# the rationals in (0, 3] with denominators 1, 2, 3 and 7 (the halves
# m_ii/2 add a factor 2)
SEVENTHS = sorted({Fraction(k, d) for d in (1, 2, 3, 7)
                   for k in range(1, 3 * d + 1)})


def _exponent_oracle(spec, pt):
    """(1/2) n^T quad n + lin.n + const by the full double sum."""
    r = spec.rank
    return spec.const + sum(Fraction(spec.quad[i][j]) * pt[i] * pt[j]
                            for i in range(r) for j in range(r)) / 2 + \
        sum(x * v for x, v in zip(spec.lin, pt))


def _least(h, x):
    """min over integers n >= 0 of h n^2 + x n, by scanning past the vertex."""
    n, best = 0, Fraction(0)
    while n <= -x / (2 * h):
        n += 1
        best = min(best, h * n * n + x * n)
    return best


def _orthant_box(spec, order):
    """The box with cross terms dropped, each index scanned upward against
    the budget left after the other indices' least pure parts, with the
    last n that fits and whether it meets its budget exactly."""
    halves = [Fraction(spec.quad[i][i], 2) for i in range(spec.rank)]
    mins = [_least(h, x) for h, x in zip(halves, spec.lin)]
    out = []
    for i, (h, x) in enumerate(zip(halves, spec.lin)):
        budget = order - spec.const - (sum(mins) - mins[i])
        n, last = 0, -1
        while n <= -x / (2 * h) or h * n * n + x * n <= budget:
            if h * n * n + x * n <= budget:
                last = n
            n += 1
        out.append((max(last, 0),
                    last >= 0 and h * last * last + x * last == budget))
    return out


def _ellipsoid(spec):
    """The least value of the form and, per index, its real minimizer and
    the inverse's diagonal entry (Cramer's rule, as tests/helpers.py)."""
    quad, r = spec.quad, spec.rank
    d = det(quad)
    inv = [[(-1) ** (i + j) * det(minor(list(map(list, quad)), j, i)) / d
            for j in range(r)] for i in range(r)]
    centre = [-sum(inv[i][j] * spec.lin[j] for j in range(r))
              for i in range(r)]
    low = spec.const + sum(x * c for x, c in zip(spec.lin, centre)) / 2
    return low, centre, [inv[i][i] for i in range(r)]


def _int_form_case(rng, r, negative):
    """A rank-r spec with entries in SEVENTHS and signed rational lin and
    const, positive definite with a negative entry when `negative`, and
    with no negative entry otherwise; sometimes with a prefactor whose
    forms widen the common denominator."""
    while True:
        quad = [[Fraction(0)] * r for _ in range(r)]
        for i in range(r):
            quad[i][i] = rng.choice([x for x in SEVENTHS if 7 * x >= 3])
            for j in range(i):
                x = rng.choice([0] + [x for x in SEVENTHS if x <= 1])
                quad[i][j] = quad[j][i] = -x if negative else x
        if not negative or (any(x < 0 for row in quad for x in row)
                            and all(m > 0 for m in leading_minors(quad))):
            break
    small = [x for x in SEVENTHS if x <= 2]
    lin = [rng.choice([-1, -1, 1, 0]) * rng.choice(small) for _ in range(r)]
    const = rng.choice([-1, 1]) * rng.choice([0] + SEVENTHS)
    prefactor = ()
    if rng.random() < 0.3:
        prefactor = ((1, AffineForm(rng.choice(SEVENTHS),
                                    [rng.choice([0] + SEVENTHS)
                                     for _ in range(r)])),)
    return MultiSumSpec(names=tuple(f"n{i}" for i in range(r)),
                        quad=tuple(map(tuple, quad)), lin=tuple(lin),
                        denoms=(Fraction(1),) * r, const=const,
                        prefactor=prefactor)


def test_integer_form_matches_fraction_oracles():
    rng = random.Random(2201)
    seen = set()
    for t in range(240):
        negative = t % 3 == 0
        spec = _int_form_case(rng, rng.randint(2 if negative else 1, 3),
                              negative)
        r = spec.rank
        # an order past the constant, one below it, or one that puts the
        # bound of one index exactly on its boundary
        how = rng.choice(["above", "below", "exact", "exact"])
        if how == "above":
            order = spec.const + rng.choice(SEVENTHS)
        elif how == "below":
            order = spec.const - rng.choice([x for x in SEVENTHS if x <= 1])
        elif negative:
            low, centre, inv = _ellipsoid(spec)
            i = rng.randrange(r)
            n = max(floor(centre[i]) + 1, 0) + rng.randint(0, 2)
            order = low + (n - centre[i]) ** 2 / (2 * inv[i])
        else:
            i = rng.randrange(r)
            h, x = Fraction(spec.quad[i][i], 2), spec.lin[i]
            n = max(ceil(-x / (2 * h)), 0) + rng.randint(0, 3)
            mins = [_least(Fraction(spec.quad[j][j], 2), spec.lin[j])
                    for j in range(r) if j != i]
            order = spec.const + sum(mins) + h * n * n + x * n
        if how == "exact":
            # or just off the boundary, by far less than one unit of any
            # common denominator of the spec (they all divide 84)
            nudge = rng.choice([0, -1, -1, 1])
            order += nudge * Fraction(1, 10 ** 12)
            if nudge < 0:
                seen.add("nudged below a boundary")
        box = lattice_bound(spec, order)
        if negative:
            assert box == real_extent(spec.quad, spec.lin, spec.const,
                                      order), (spec, order)
            low, centre, inv = _ellipsoid(spec)
            exact = any(b > 0 and (b - c) ** 2 == 2 * (order - low) * v
                        for b, c, v in zip(box, centre, inv))
        else:
            want = _orthant_box(spec, order)
            assert box == [b for b, _ in want], (spec, order)
            exact = any(hit for _, hit in want)
        # every point with exponent <= order lies in the box, and the
        # integer form's exponent is the Fraction one at every point
        for pt in product(*(range(b + 3) for b in box)):
            e = _exponent_oracle(spec, pt)
            assert spec.exponent(pt) == e, (spec, pt)
            if e <= order:
                assert all(v <= b for v, b in zip(pt, box)), (spec, order, pt)
        entries = [*(x for row in spec.quad for x in row), *spec.lin,
                   spec.const]
        for d, kind in ((2, "halves"), (3, "thirds"), (7, "sevenths")):
            if any(x.denominator % d == 0 for x in entries):
                seen.add(kind)
        seen.add("budget below const" if order < spec.const
                 else "const below the order")
        if order < 0:
            seen.add("negative order")
        if exact:
            seen.add("exact square, "
                     + ("ellipsoid" if negative else "orthant"))
        if negative:
            seen.add("negative entry")
        if spec.prefactor:
            seen.add("prefactor")
    assert seen == {"halves", "thirds", "sevenths", "budget below const",
                    "const below the order", "exact square, orthant",
                    "exact square, ellipsoid", "negative entry", "prefactor",
                    "negative order", "nudged below a boundary"}


@pytest.mark.parametrize("change, message", [
    ({"quad": ((Fraction(2), Fraction(1)), (Fraction(0), Fraction(2)))},
     "quadratic form must be symmetric"),
    ({"extra": (PochFactor(qmono(1), Fraction(1), AffineForm(0, (1, 0)),
                           2),)},
     "extra factor powers are +1 or -1 only"),
    # the walk zips a form with the point, which would silently drop a long
    # form's last coefficients and give a short form's missing ones 0
    ({"prefactor": ((1, AffineForm(0, (1, 1, 5))),)},
     "spec dimensions disagree"),
    ({"prefactor": ((1, AffineForm(0, (1,))),)}, "spec dimensions disagree"),
    ({"extra": (PochFactor(qmono(1), Fraction(1), AffineForm(0, (1,))),)},
     "spec dimensions disagree"),
], ids=["non-symmetric-form", "extra-power-2", "long-prefactor-form",
        "short-prefactor-form", "short-extra-length"])
def test_spec_refusals(change, message):
    fields = dict(names=("i", "j"), quad=((Fraction(2), Fraction(1)),
                                         (Fraction(1), Fraction(2))),
                  lin=(Fraction(0), Fraction(0)),
                  denoms=(Fraction(1), Fraction(1)))
    MultiSumSpec(**fields)  # the unchanged spec is accepted
    with pytest.raises(ValueError) as info:
        MultiSumSpec(**{**fields, **change})
    assert type(info.value) is ValueError and str(info.value) == message
