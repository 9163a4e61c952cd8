"""Pochhammer symbols and product expressions.

Pochhammer symbols take one of two routes.  Finite symbols
prod_x (x; q^base)_n^(+-1) are the entries of one row class,
:class:`PochRow`, which grows them a factor at a time and alone decides where
an entry is cut at the order; without an order they are exact Laurent
polynomials.  Infinite symbols are truncated soundly: a factor
(1 - a q^(base*k)) is included iff its lowest nontrivial exponent is <= the
requested order, every omitted factor being 1 + O(q^(>order)).

:class:`ProductExpr` is the assembled right-hand-side shape: an optional
polynomial prefactor times a signed multiset of infinite products.

An infinite symbol (a; q^base)_infinity^power is computed once per order
and lattice, from 1, by :func:`_symbol` and kept packed (`series`'s
`_Slots`) in a memo keyed by ints: its head (the factors whose exponent is
<= 0, or all when a's coefficient is not an integer) as a series, every
other factor in one packed pass of certified width.  :func:`eval_product`
packs seed times the prefactor once, multiplies the symbols in
(:func:`poch_infinite`) and decodes once.

An unseeded :func:`eval_product` is memoized too, PRODUCT_MEMO_SIZE entries
keyed by (expr, order numerator, den), so a right side many records share
is expanded once per order and lattice; a seeded call bypasses that memo.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import itemgetter
from typing import Optional, Union

from qident.series import (
    DEFAULT_D,
    ExpLike,
    LatticeError,
    Monomial,
    QSeries,
    _Slots,
    _div_packed,
    _slot_width,
    exp_num,
    mul_inv_one_minus,
    mul_one_minus,
    nonneg_order,
)


def poch_infinite(a: Monomial, base: ExpLike, order: ExpLike,
                  den: int = DEFAULT_D, power: int = 1,
                  seed: QSeries | _Slots | None = None) -> QSeries | _Slots:
    """seed * (a; q^base)_infinity^power truncated at order.

    With a series seed, or none (1 valid to the order), it is
    :func:`eval_product` of the one symbol.  A seed in slots gives slots:
    one :meth:`_Slots.times` by the memoized symbol (:func:`_symbol`), with
    the validity :func:`_mul_order` gives seed times the symbol."""
    if not isinstance(seed, _Slots):
        return eval_product(ProductExpr(((a, base, power),)), order, den,
                            seed)
    onum = exp_num(nonneg_order(order), den)
    c, e = a.coeff, a.exp
    sym, bits = _symbol(c.numerator, c.denominator, e.numerator,
                        e.denominator, base.numerator, base.denominator,
                        power, onum, den)
    return seed.times(sym, seed.bits(), bits)


def _positive_base(base: ExpLike) -> Fraction:
    base = Fraction(base)
    if base <= 0:
        raise ValueError("infinite product needs a positive base")
    return base


# -- product expressions -----------------------------------------------------

@dataclass(frozen=True)
class ProductExpr:
    """prefactor(q) * prod (arg; q^base)_infinity^power.

    The prefactor is a polynomial stored as a tuple of monomials; factors
    with negative power sit in the denominator and must be unit series.
    """

    factors: tuple[tuple[Monomial, Fraction, int], ...] = ()
    prefactor: tuple[Monomial, ...] = (Monomial(1, 0),)

    def __mul__(self, other: Union["ProductExpr", int, Monomial]) -> "ProductExpr":
        other = _as_product(other)
        pf = tuple(a * b for a in self.prefactor for b in other.prefactor)
        return ProductExpr(_merge(self.factors + other.factors), _poly_norm(pf))

    __rmul__ = __mul__

    def __truediv__(self, other: Union["ProductExpr", int, Monomial]) -> "ProductExpr":
        other = _as_product(other)
        if other.prefactor != (Monomial(1, 0),):
            raise ValueError("can only divide by a pure product")
        inv = tuple((m, b, -p) for (m, b, p) in other.factors)
        return ProductExpr(_merge(self.factors + inv), self.prefactor)

    def __pow__(self, k: int) -> "ProductExpr":
        if self.prefactor != (Monomial(1, 0),):
            raise ValueError("can only power a pure product")
        return ProductExpr(_merge(tuple(
            (m, b, p * k) for (m, b, p) in self.factors)))


def _as_product(x) -> ProductExpr:
    if isinstance(x, ProductExpr):
        return x
    if isinstance(x, int):
        return ProductExpr((), (Monomial(x, 0),))
    if isinstance(x, Monomial):
        return ProductExpr((), (x,))
    raise TypeError(f"cannot use {x!r} in a product expression")


def _poly_norm(monos: tuple[Monomial, ...]) -> tuple[Monomial, ...]:
    """Sum equal exponents, keyed by the exponent's ints so no Fraction is
    hashed, and sort by exponent; a zero sum is dropped."""
    acc: dict[tuple[int, int], list] = {}
    for m in monos:
        e = m.exp
        key = (e.numerator, e.denominator)
        if key in acc:
            acc[key][1] += m.coeff
        else:
            acc[key] = [e, m.coeff]
    out = tuple(Monomial(c, e) for e, c in sorted(acc.values(),
                                                   key=itemgetter(0)) if c)
    if not out:
        raise ValueError("zero prefactor")
    return out


def _merge(factors):
    """Sum the powers of equal factors (m, base, power), keyed by the ints
    of m's coefficient and exponent and of the base so no Fraction is
    hashed; first-appearance order and each key's first Monomial are kept,
    and zero powers dropped."""
    acc: dict[tuple[int, ...], list] = {}
    for m, b, p in factors:
        c, e = m.coeff, m.exp
        key = (c.numerator, c.denominator, e.numerator, e.denominator,
               b.numerator, b.denominator)
        if key in acc:
            acc[key][2] += p
        else:
            acc[key] = [m, b if isinstance(b, Fraction) else Fraction(b), p]
    return tuple((m, b, p) for m, b, p in acc.values() if p)


def P(a: ExpLike, m: ExpLike) -> ProductExpr:
    """(q^a; q^m)_infinity."""
    return ProductExpr(((Monomial(1, a), _positive_base(m), 1),))


def NP(a: ExpLike, m: ExpLike) -> ProductExpr:
    """(-q^a; q^m)_infinity."""
    return ProductExpr(((Monomial(-1, a), _positive_base(m), 1),))


def TP(x: ExpLike, y: ExpLike, z: ExpLike, m: ExpLike) -> ProductExpr:
    """(q^x, q^y, q^z; q^m)_infinity."""
    m = _positive_base(m)
    return ProductExpr(_merge(tuple((Monomial(1, a), m, 1)
                                    for a in (x, y, z))))


def J(a: ExpLike, m: Optional[ExpLike] = None) -> ProductExpr:
    """J(m) = (q^m;q^m)_inf; J(a, m) = (q^a, q^(m-a), q^m; q^m)_inf."""
    if m is None:
        return P(a, a)
    a, m = Fraction(a), Fraction(m)
    if not 0 < a < m:
        raise ValueError(f"need 0 < a < m, got a={a}, m={m}")
    return TP(a, m - a, m, m)


# the 67 packaged records have 44 distinct right sides; one order fits
PRODUCT_MEMO_SIZE = 128


def eval_product(expr: ProductExpr, order: ExpLike, den: int = DEFAULT_D,
                 seed: Optional[QSeries] = None) -> QSeries:
    """seed * expr to the order (seed 1 valid to it by default): seed times
    the prefactor packed once, each memoized symbol multiplied in by
    :func:`poch_infinite`, and the product decoded once; with no factors,
    seed times the prefactor itself.  Without a seed the series comes from
    an LRU memo of PRODUCT_MEMO_SIZE entries keyed by (expr, order
    numerator, den), shared, so never to be mutated; a seeded call skips it."""
    onum = exp_num(nonneg_order(order), den)
    if seed is None:
        return _memo_product(expr, onum, den)
    if seed.den != den:
        raise LatticeError(f"mixing lattices 1/{seed.den} and 1/{den}")
    if expr.prefactor != (Monomial(1, 0),):
        seed = seed * QSeries.from_terms(
            ((mo.exp, mo.coeff) for mo in expr.prefactor), den=den)
    if not expr.factors:
        return seed
    out = _Slots.of(seed)
    for m, base, power in expr.factors:
        out = poch_infinite(m, base, order, den, power, out)
    return out.series()


@lru_cache(maxsize=PRODUCT_MEMO_SIZE)
def _memo_product(expr: ProductExpr, onum: int, den: int) -> QSeries:
    """The fold from 1 valid to the order onum/den."""
    return eval_product(expr, Fraction(onum, den), den,
                        QSeries(den, {0: 1}, onum))


# a verify-catalog pass (143 distinct symbols) hits as often as unbounded
@lru_cache(maxsize=PRODUCT_MEMO_SIZE)
def _symbol(cn: int, cd: int, en: int, ed: int, bn: int, bd: int,
            power: int, onum: int, den: int) -> tuple[_Slots, int]:
    """(a; q^base)_infinity^power from 1 valid to onum/den in slots, with
    their :meth:`_Slots.bits`, for a = cn/cd q^(en/ed) and base = bn/bd.

    The head, the factors whose exponent is <= 0 or all of them when a's
    coefficient is not an integer, is built as a series, |power| times: for
    a numerator as one polynomial, for a denominator as one inverse
    :class:`PochRow` entry.  Every other factor (1 - c q^(e/den)) goes
    through one packed pass: slot t, W bits wide, holds d times the
    coefficient at q^((low + g*t)/den), g the gcd of every e and of the
    head's stride; a factor at u = e/g slots is a shifted subtraction, a
    denominator a doubling prefix sum (:func:`_div_packed`), each cut by
    one mask.  W is certified: a numerator factor is coefficientwise at
    most its denominator's geometric series, whose coefficient at slot t
    is at most |c|^t, and the symbol, |power| times, a sub-product of
    1/(q; q)_infinity^|power|, so slot t is at most the head's l1 norm
    times |c|^t p_|power|(t), p_r the r-coloured partition count; the
    masked arithmetic is exact modulo 2^(W*slots)."""
    c, e = Fraction(cn, cd), Fraction(en, ed)
    base, first = _positive_base(Fraction(bn, bd)), exp_num(e, den)
    # the factors' exponents; the base need be on the lattice only in range
    nums = range(first, onum + 1, exp_num(base, den) if first <= onum else 1)
    k = len(nums) if cd != 1 else len(
        range(first, 1, nums.step))  # the head's factors
    seed, norm = _Slots(den, 1, 8, 1, 0, 0, 1, onum), 1  # 1 to the order
    if k and power:
        s = head = QSeries(den, {0: 1}, onum)
        if power > 0:
            for num in nums[:k]:
                head = mul_one_minus(head, c, num)
        else:
            head = PochRow((Monomial(c, e),), base, Fraction(onum, den),
                           den, -1)[k]
        for _ in range(abs(power)):
            s = s * head
        seed, norm = _Slots.of(s), sum(map(abs, s.nums.values()))
    nums, low = nums[k:], seed.low
    valid = min(seed.valid, onum + low) if seed.n else seed.valid
    if seed.n and power and nums and nums[0] <= valid - low:
        g = gcd(seed.g, *nums[:2])
        size = (valid - low) // g
        seed = seed.cut(low + size * g)
        # norm * |c|^size * p_|power|(size) bounds every slot (certified)
        W = _slot_width(norm * abs(cn) ** size, abs(power), size)
        mask = (1 << W * (size + 1)) - 1
        acc = seed.relayout(W, seed.g // g or 1) & mask
        for num in nums:
            u = num // g
            if u > size:
                break
            for _ in range(abs(power)):
                if power < 0:
                    acc = _div_packed(acc, W * u, mask, cn)
                else:  # times 1 - c x^u
                    t = acc << W * u
                    acc = (acc - t if cn == 1 else acc - cn * t) & mask
        acc -= mask + 1 if acc > mask >> 1 else 0  # least absolute residue
        seed = _Slots(den, acc, W, size + 1, low, g, seed.d, valid)
    out = seed.cut(valid)
    return out, out.bits()


def eval_product_sum(exprs, order: ExpLike, den: int = DEFAULT_D) -> QSeries:
    """Sum of product expressions (multi-term right sides), cut at order."""
    first, *rest = [eval_product(e, order, den) for e in exprs] or [
        QSeries(den, {}, exp_num(nonneg_order(order), den))]
    out = sum(rest, first)
    return out.truncated(order) if out.order_num > exp_num(order, den) else out


# -- finite Pochhammer rows ---------------------------------------------------

class PochRow:
    """prod_x (x; q^base)_n^power over x in args, power 1 or -1, for n = 0,
    1, ..., made when first read: entry n is entry n-1 times one factor
    (1 - x q^(base*(n-1)))^power per symbol.  An inverse factor 1/(1 - f)
    is the geometric series of f when f's exponent is positive, a scalar
    when it is 0, and -f^-1/(1 - f^-1) when it is negative.  The cut rule:
    with an order (an inverse row needs one), the product is cut at it after
    every factor that leaves it exact or valid past the order.  So a product
    row is exact at n = 0 and cut from its first factor on; an inverse row
    starts cut.
    """

    def __init__(self, args: tuple[Monomial, ...], base: ExpLike,
                 order: Optional[ExpLike] = None, den: int = DEFAULT_D,
                 power: int = 1):
        self.args, self.base, self.power = args, Fraction(base), power
        self.order = None if order is None else Fraction(order)
        self.onum = None if order is None else exp_num(order, den)
        if power == -1 and order is None:
            raise ValueError("an inverse Pochhammer row needs an order")
        self.entries = [QSeries(den, {0: 1},
                                None if power == 1 else self.onum)]

    def __getitem__(self, n: int) -> QSeries:
        if n < 0:
            raise ValueError(f"a Pochhammer row has no entry {n}")
        order, onum = self.order, self.onum
        while len(self.entries) <= n:
            s = self.entries[-1]
            shift = self.base * (len(self.entries) - 1)
            for x in self.args:
                f = Monomial(x.coeff, x.exp + shift)
                if self.power == 1:
                    s = mul_one_minus(s, f.coeff, exp_num(f.exp, s.den))
                elif f.exp > 0:
                    s = mul_inv_one_minus(s, f, order)
                elif f.exp == 0:
                    if f.coeff == 1:
                        raise ValueError("vanishing Pochhammer factor")
                    s = s.scale(1 / (1 - Fraction(f.coeff)))
                else:
                    r = 1 / Fraction(f.coeff)
                    s = mul_inv_one_minus(
                        s.scale(-r).shift(exp_num(-f.exp, s.den)),
                        Monomial(r, -f.exp), order)
                if onum is not None and (s.order_num is None
                                         or s.order_num > onum):
                    s = s.truncated(order)
            self.entries.append(s)
        return self.entries[n]


def inv_poch_table(arg: Monomial, base: ExpLike, n_max: int, order: ExpLike,
                   den: int = DEFAULT_D) -> list[QSeries]:
    """[1/(arg; q^base)_n for n in 0..n_max], each truncated at order."""
    row = PochRow((arg,), base, order, den, -1)
    return [row[n] for n in range(n_max + 1)]


def poch_table(arg: Monomial, base: ExpLike, n_max: int,
               order: Optional[ExpLike] = None,
               den: int = DEFAULT_D) -> list[QSeries]:
    """[(arg; q^base)_n for n in 0..n_max], cut at order if one is given."""
    row = PochRow((arg,), base, order, den)
    return [row[n] for n in range(n_max + 1)]
