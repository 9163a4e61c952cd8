"""Lattice-sum evaluators, enumeration bounds and rank reduction."""

from fractions import Fraction

import pytest

from qident.nahm import (
    AffineForm,
    MultiSumSpec,
    NahmQuadruple,
    PochFactor,
    check_symmetrizable,
    eval_reduction,
    lattice_bound,
    multi_sum,
    nahm_sum,
    partial_sum_basis,
    quadruple_spec,
    reduce_rank,
    smallest_eigenvalue_lower_bound,
)
from qident.products import poch_finite
from qident.series import (
    LatticeError,
    Monomial,
    QSeries,
    equal_up_to,
    invert_unit,
    qmono,
)
from helpers import brute_sum, count_gap2, series_coeffs

H = Fraction(1, 2)


def rr_quadruple(shift=0):
    return NahmQuadruple(A=[[2]], b=[shift], c=0, d=[1])


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
        NahmQuadruple(A=[[2]], b=[0], c=0, d=[0])
    with pytest.raises(ValueError):
        NahmQuadruple(A=[[2]], b=[0, 1], c=0, d=[1])
    with pytest.raises(ValueError):
        nahm_sum(NahmQuadruple(A=[[1, 1], [0, 1]], b=[0, 0], c=0, d=[1, 1]),
                 10)


def test_gap_two_partitions():
    # sum q^(n^2)/(q;q)_n counts partitions with gaps >= 2
    s = nahm_sum(rr_quadruple(), 30)
    assert series_coeffs(s, 30) == [count_gap2(n) for n in range(31)]


def test_gap_two_partitions_min_part_two():
    s = nahm_sum(rr_quadruple(shift=1), 30)
    assert series_coeffs(s, 30) == [count_gap2(n, 2) for n in range(31)]


def test_constant_offset():
    q = NahmQuadruple(A=[[2]], b=[0], c=H, d=[1])
    with_c = nahm_sum(q, 10, include_c=True)
    plain = nahm_sum(q, 10)
    assert with_c == (plain * qmono(H)).truncated(10)
    off = NahmQuadruple(A=[[2]], b=[0], c=Fraction(1, 3), d=[1])
    with pytest.raises(LatticeError):
        nahm_sum(off, 10, include_c=True)


def test_order_zero():
    s = nahm_sum(rr_quadruple(), 0)
    assert s.coeff_num(0) == 1 and len(s.terms) == 1


def test_rank_two_against_brute_force():
    q = NahmQuadruple(A=[[2, 1], [1, 2]], b=[0, H], c=0, d=[1, 1])
    order = 20
    box = [b + 2 for b in lattice_bound(q, order)]

    def term(pt):
        n1, n2 = pt
        e = n1 * n1 + n1 * n2 + n2 * n2 + Fraction(n2, 2)
        if e > order:
            return None
        den1 = invert_unit(poch_finite(qmono(1), 1, n1, order), order)
        den2 = invert_unit(poch_finite(qmono(1), 1, n2, order), order)
        return (den1 * den2 * Monomial(1, e)).truncated(order)

    assert nahm_sum(q, order) == brute_sum(order, 4, box, term)


TABLE_SHAPED = [
    NahmQuadruple(A=[[1, 0, H], [0, 2, 1], [1, 2, 2]], b=b, c=0, d=[2, 2, 4])
    for b in ([0, 0, 0], [0, 0, 2], [0, 2, 4], [2, 2, 4])
]


@pytest.mark.parametrize("quad", TABLE_SHAPED + [
    rr_quadruple(),
    NahmQuadruple(A=[[2, 1], [1, 2]], b=[0, H], c=0, d=[1, 1]),
    NahmQuadruple(A=[[4, 1], [2, 2]], b=[-H, 1], c=0, d=[1, 2]),
])
def test_two_evaluation_routes_agree(quad):
    order = 16
    m, lin, d = quad.ad, quad.b, quad.d
    box = [b + 2 for b in lattice_bound(quad, order)]

    def term(pt):
        e = sum(Fraction(m[i][j], 2) * pt[i] * pt[j]
                for i in range(quad.rank) for j in range(quad.rank)) + \
            sum(x * v for x, v in zip(lin, pt))
        if e > order:
            return None
        out = QSeries.one(4)
        for di, v in zip(d, pt):
            out = out * invert_unit(poch_finite(qmono(di), di, v, order),
                                    order)
        return (out * Monomial(1, e)).truncated(order)

    assert nahm_sum(quad, order) == brute_sum(order, 4, box, term)


def test_lattice_bound_diagonal():
    q = NahmQuadruple(A=[[2, 0], [0, 2]], b=[0, 0], c=0, d=[1, 1])
    assert lattice_bound(q, 25) == [5, 5]
    assert lattice_bound(rr_quadruple(shift=-1), 10) == [3]


def test_lattice_bound_covers_shell():
    # no point just outside the box may have exponent <= order
    q = TABLE_SHAPED[0]
    order = 12
    spec = quadruple_spec(q)
    box = lattice_bound(q, order)
    for a in range(box[0] + 3):
        for b in range(box[1] + 3):
            for c in range(box[2] + 3):
                if all(v <= m for v, m in zip((a, b, c), box)):
                    continue
                assert spec.exponent((a, b, c)) > order


def test_lattice_bound_negative_entries():
    q = NahmQuadruple(A=[[2, -1], [-1, 2]], b=[0, 0], c=0, d=[1, 1])
    order = 18
    spec = quadruple_spec(q)
    box = lattice_bound(q, order)
    for a in range(box[0] + 5):
        for b in range(box[1] + 5):
            if spec.exponent((a, b)) <= order:
                assert a <= box[0] and b <= box[1]


def test_eigenvalue_lower_bound():
    m = tuple(tuple(Fraction(x) for x in row)
              for row in [[2, -1, 0], [-1, 2, -1], [0, -1, 2]])
    lam = smallest_eigenvalue_lower_bound(m)
    # true smallest eigenvalue is 2 - sqrt(2)
    assert 0 < lam
    assert (2 - lam) ** 2 >= 2
    with pytest.raises(ValueError):
        smallest_eigenvalue_lower_bound(((Fraction(0),),))


def test_negative_entry_sum_matches_brute_force():
    q = NahmQuadruple(A=[[2, -1], [-1, 2]], b=[1, 1], c=0, d=[1, 1])
    order = 14
    box = [b + 3 for b in lattice_bound(q, order)]

    def term(pt):
        n1, n2 = pt
        e = n1 * n1 + n2 * n2 - n1 * n2 + n1 + n2
        if e > order:
            return None
        den1 = invert_unit(poch_finite(qmono(1), 1, n1, order), order)
        den2 = invert_unit(poch_finite(qmono(1), 1, n2, order), order)
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
        num = poch_finite(Monomial(-1, H), 1, n + 1, order)
        den = invert_unit(poch_finite(qmono(1), 1, n, order), order)
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
        d1 = invert_unit(poch_finite(qmono(1), 1, n, order), order)
        d2 = invert_unit(poch_finite(Monomial(-1, H), 1, n, order), order)
        return (d1 * d2 * Monomial(1, n * n)).truncated(order)

    assert multi_sum(spec, order) == brute_sum(order, 4, [6], term)


def test_partial_sum_basis_matches_direct():
    quad_n, lin_n = partial_sum_basis(3, [[2, 0, 0], [0, 2, 0], [0, 0, 2]],
                                      [0, 1, 0])
    spec = MultiSumSpec(names=("a", "b", "c"), quad=quad_n, lin=lin_n,
                        denoms=(Fraction(1),) * 3)
    for pt in [(0, 0, 0), (1, 0, 0), (0, 1, 2), (2, 1, 1), (1, 3, 2)]:
        big = [pt[0] + pt[1] + pt[2], pt[1] + pt[2], pt[2]]
        direct = sum(x * x for x in big) + big[1]
        assert spec.exponent(pt) == direct


def test_reduce_rank_merge_rank_two():
    q = NahmQuadruple(A=[[2, 1], [2, 2]], b=[-H, 0], c=0, d=[1, 2])
    red = reduce_rank(q)
    assert red is not None and red.kind == "merge"
    assert red.removed == ("n1", "n2")
    assert red.spec.names == ("m",)
    assert red.spec.quad == ((Fraction(1),),)
    assert red.spec.lin == (Fraction(0),)
    assert red.spec.denoms == (Fraction(1),)
    assert eval_reduction(red, 15) == nahm_sum(q, 15)


def test_reduce_rank_merge_rank_three():
    q = NahmQuadruple(A=[[2, 1, 1], [1, 2, 1], [2, 2, 2]], b=[0, 0, 1],
                      c=0, d=[1, 1, 2])
    red = reduce_rank(q)
    assert red is not None and red.kind == "merge"
    assert red.removed == ("n1", "n3")
    assert red.spec.names == ("m", "n2")
    assert red.spec.quad == ((Fraction(1), Fraction(1)),
                             (Fraction(1), Fraction(2)))
    assert red.spec.lin == (H, Fraction(0))
    assert eval_reduction(red, 15) == nahm_sum(q, 15)


def test_reduce_rank_euler():
    q = NahmQuadruple(A=[[1, 1], [1, 2]], b=[0, 0], c=0, d=[1, 1])
    red = reduce_rank(q)
    assert red is not None and red.kind == "euler"
    assert red.removed == ("n1",)
    assert red.prefactor == ((Monomial(-1, H), Fraction(1), 1),)
    assert red.spec.extra[0].power == -1
    assert red.spec.extra[0].length.coeffs == (Fraction(1),)
    assert eval_reduction(red, 12) == nahm_sum(q, 12)


def test_reduce_rank_none():
    assert reduce_rank(rr_quadruple()) is None
    flat = NahmQuadruple(A=[[2, 0], [0, 2]], b=[0, 0], c=0, d=[1, 1])
    assert reduce_rank(flat) is None
    # euler shape but with a nonpositive shift s
    stuck = NahmQuadruple(A=[[1]], b=[-H], c=0, d=[1])
    assert reduce_rank(stuck) is None
