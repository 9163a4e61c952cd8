"""Bailey-pair calculus over exact truncated q-series.

A pair relative to the monomial a is two sequences alpha_n, beta_n tied by

    beta_n = sum_{k=0}^n alpha_k / ((q;q)_{n-k} (aq;q)_{n+k}).

This module verifies that relation term by term, builds the classical pairs
G1, G2, G3 and G1*, applies the standard transforms (the two-parameter lemma
plus its S1/S3/S5 limits, the a -> a/q shift with parameter b, and that
shift's b -> infinity limit), sums pairs into sum-equals-product limit
identities, and parses "SEED |> STEP |> STEP(arg)" chain expressions.

Generators take (n, order, den) and return a QSeries valid at least to
order + min(0, valuation); callers that need more depth re-request through
:func:`qident.series.deepen_until_valid`, the one deepen-until-valid loop.
Pairs are immutable and generator calls are memoized per pair.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional

from qident.series import (
    DEFAULT_D,
    ExpLike,
    Mismatch,
    Monomial,
    QSeries,
    TruncationError,
    compare_up_to,
    deepen_until_valid,
    exp_num,
    invert_unit,
    parse_monomial,
    qmono,
)
from qident.products import inv_poch_table, poch_finite, poch_infinite
from qident.nahm import _ceil_sqrt

HALF = Fraction(1, 2)

Gen = Callable[..., QSeries]


def _binom2(n: int) -> int:
    return n * (n - 1) // 2


def _mpow(m: Monomial, k: int) -> Monomial:
    return Monomial(Fraction(m.coeff) ** k, m.exp * k)


def _mdiv(x: Monomial, y: Monomial) -> Monomial:
    return Monomial(Fraction(x.coeff) / Fraction(y.coeff), x.exp - y.exp)


def _one_minus(m: Monomial, den: int) -> QSeries:
    """1 - m as an exact polynomial (possibly zero)."""
    return QSeries.from_terms([(0, 1), (m.exp, -m.coeff)], den=den)


def _zero(order: ExpLike, den: int) -> QSeries:
    return QSeries(den, {}, exp_num(order, den))


def _need(order: Optional[ExpLike]) -> Fraction:
    if order is None:
        raise ValueError("this generator needs a truncation order")
    return Fraction(order)


@lru_cache(maxsize=1024)
def _inv_table(arg: Monomial, base: Fraction, n: int, order: Fraction,
               den: int) -> tuple[QSeries, ...]:
    return tuple(inv_poch_table(arg, base, n, order, den))


def _inv_qq(n: int, order: Fraction, den: int) -> tuple[QSeries, ...]:
    return _inv_table(Monomial(1, 1), Fraction(1), n, order, den)


def _memo(fn: Gen) -> Gen:
    cached = lru_cache(maxsize=None)(fn)

    def wrapper(n: int, order: Optional[ExpLike] = None,
                den: int = DEFAULT_D) -> QSeries:
        return cached(n, None if order is None else Fraction(order), den)

    return wrapper


@dataclass(frozen=True)
class BaileyPair:
    """Relative parameter a plus alpha/beta generators (n, order, den)."""

    a: Monomial
    alpha: Gen
    beta: Gen
    name: str = ""
    n_max_hint: Optional[int] = None


@dataclass(frozen=True)
class TransformStep:
    """One of S1, S3, S5, GENERAL(rho1, rho2), DJK(b), DJK_LIMIT(u)."""

    kind: str
    params: tuple[Monomial, ...] = ()


S1 = TransformStep("S1")
S3 = TransformStep("S3")
S5 = TransformStep("S5")


def GENERAL(rho1: Monomial, rho2: Monomial) -> TransformStep:
    return TransformStep("GENERAL", (rho1, rho2))


def DJK(b: Monomial) -> TransformStep:
    return TransformStep("DJK", (b,))


def DJK_LIMIT(u: Monomial) -> TransformStep:
    return TransformStep("DJK_LIMIT", (u,))


# -- built-in pairs -----------------------------------------------------------

def unit_pair(a: Monomial) -> BaileyPair:
    """alpha = delta_{n,0}; beta_n = 1/((q;q)_n (aq;q)_n)."""
    aq = Monomial(a.coeff, a.exp + 1)

    def alpha(n, order=None, den=DEFAULT_D):
        return QSeries.one(den) if n == 0 else QSeries.zero(den)

    def beta(n, order=None, den=DEFAULT_D):
        order = _need(order)
        prod = poch_finite(qmono(1), 1, n, order, den) * \
            poch_finite(aq, 1, n, order, den)
        return invert_unit(prod, order)

    return BaileyPair(a, _memo(alpha), _memo(beta), name="unit")


def _slater_beta(shift_n: bool, comp_exp: Fraction) -> Gen:
    """beta_n = q^(n if shift_n) / ((q^2;q^2)_n (-q^comp_exp; q)_n)."""
    comp = Monomial(-1, comp_exp)

    def beta(n, order=None, den=DEFAULT_D):
        order = _need(order)
        prod = poch_finite(qmono(2), 2, n, order, den) * \
            poch_finite(comp, 1, n, order, den)
        out = invert_unit(prod, order)
        return out * Monomial(1, n) if shift_n else out

    return beta


def _geometric_alpha(u_exp: Fraction, c: Fraction) -> Gen:
    """alpha_n = (-1)^n q^(u_exp*C(n+1,2)) (q^(-cn) - q^(cn+c))/(1 - q^c).

    The quotient is expanded as the exact geometric polynomial
    q^(-cn) * (1 + q^c + ... + q^(2nc)); the division is exact because the
    numerator vanishes at q^c = 1.
    """

    def alpha(n, order=None, den=DEFAULT_D):
        if n == 0:
            return QSeries.one(den)
        sign = -1 if n % 2 else 1
        base = u_exp * _binom2(n + 1) - c * n
        return QSeries.from_terms(
            [(base + c * j, sign) for j in range(2 * n + 1)], den=den)

    return alpha


def builtin_pair(name: str) -> BaileyPair:
    """The pairs G1, G2, G3 (Slater's list) and G1star."""
    key = name.replace("*", "star")
    if key == "G1":
        def alpha(n, order=None, den=DEFAULT_D):
            if n == 0:
                return QSeries.one(den)
            sign = -1 if n % 2 else 1
            e = Fraction(n * n, 2) + Fraction(_binom2(n), 2)
            return QSeries.from_terms(
                [(e, sign), (e + Fraction(n, 2), sign)], den=den)

        return BaileyPair(Monomial(1, 0), _memo(alpha),
                          _memo(_slater_beta(False, HALF)), name="G1")
    if key == "G2":
        return BaileyPair(Monomial(1, 1),
                          _memo(_geometric_alpha(Fraction(3, 2), HALF)),
                          _memo(_slater_beta(False, Fraction(3, 2))),
                          name="G2")
    if key == "G3":
        def alpha(n, order=None, den=DEFAULT_D):
            if n == 0:
                return QSeries.one(den)
            sign = -1 if n % 2 else 1
            e = Fraction(3, 2) * _binom2(n)
            return QSeries.from_terms(
                [(e, sign), (e + Fraction(3 * n, 2), sign)], den=den)

        return BaileyPair(Monomial(1, 0), _memo(alpha),
                          _memo(_slater_beta(True, HALF)), name="G3")
    if key == "G1star":
        return BaileyPair(Monomial(1, 1),
                          _memo(_geometric_alpha(Fraction(3, 2),
                                                 Fraction(1))),
                          _memo(_slater_beta(False, HALF)), name="G1star")
    raise ValueError(f"unknown built-in pair {name!r}")


BUILTIN_NAMES = ("G1", "G2", "G3", "G1star")


# -- verification -------------------------------------------------------------

@dataclass(frozen=True)
class PairReport:
    """Per-index verification outcome for a pair."""

    name: str
    a: Monomial
    order: Fraction
    results: tuple[tuple[int, Optional[Mismatch]], ...]

    @property
    def ok(self) -> bool:
        return all(m is None for _, m in self.results)

    @property
    def failures(self) -> list[int]:
        return [n for n, m in self.results if m is not None]


def _alpha_depth(p: BaileyPair, n_max: int, order: Fraction,
                 den: int) -> tuple[list[QSeries], Fraction]:
    """Alphas re-evaluated deep enough that products reach `order`."""
    alphas = [p.alpha(k, order, den) for k in range(n_max + 1)]
    vals = [Fraction(a.min_num, den) for a in alphas if a.min_num is not None]
    vmin = min([Fraction(0)] + vals)
    if vmin < 0:
        depth = order - vmin
        alphas = [p.alpha(k, depth, den) for k in range(n_max + 1)]
        return alphas, depth
    return alphas, order


def verify_pair(p: BaileyPair, n_max: int, order: ExpLike,
                den: int = DEFAULT_D) -> PairReport:
    """Check the defining relation for every n <= n_max up to order."""
    if p.n_max_hint is not None and n_max > p.n_max_hint:
        raise ValueError(f"pair only defined up to n = {p.n_max_hint}")
    order = Fraction(order)
    alphas, depth = _alpha_depth(p, n_max, order, den)
    aq = Monomial(p.a.coeff, p.a.exp + 1)
    t_q = _inv_qq(n_max, depth, den)
    t_aq = _inv_table(aq, Fraction(1), 2 * n_max, depth, den)
    results = []
    for n in range(n_max + 1):
        rhs = _zero(depth, den)
        for k in range(n + 1):
            term = alphas[k]
            if term.is_zero:
                continue
            rhs = rhs + term * t_q[n - k] * t_aq[n + k]
        lhs = deepen_until_valid(lambda d: p.beta(n, d, den), order, den)
        results.append((n, compare_up_to(lhs, rhs, order)))
    return PairReport(p.name, p.a, order, tuple(results))


def pairs_equal(p1: BaileyPair, p2: BaileyPair, n_max: int, order: ExpLike,
                den: int = DEFAULT_D) -> Optional[tuple[int, str, Mismatch]]:
    """First (n, side, mismatch) where the pairs differ, else None."""
    order = Fraction(order)
    if p1.a != p2.a:
        return (0, "a", Mismatch(p1.a.exp, p1.a.coeff, p2.a.coeff))
    for n in range(n_max + 1):
        for side in ("alpha", "beta"):
            g1, g2 = getattr(p1, side), getattr(p2, side)
            m = compare_up_to(
                deepen_until_valid(lambda d: g1(n, d, den), order, den),
                deepen_until_valid(lambda d: g2(n, d, den), order, den),
                order)
            if m is not None:
                return (n, side, m)
    return None


# -- transforms ---------------------------------------------------------------

def _derived_name(p: BaileyPair, t: TransformStep) -> str:
    tag = t.kind
    if t.params:
        tag += "(" + ",".join(f"{m.coeff}*q^{m.exp}" for m in t.params) + ")"
    return f"{p.name} |> {tag}" if p.name else tag


def _transform_s1(p: BaileyPair) -> tuple[Monomial, Gen, Gen]:
    a = p.a

    def alpha(n, order=None, den=DEFAULT_D):
        return p.alpha(n, order, den) * Monomial(Fraction(a.coeff) ** n,
                                                 n * a.exp + n * n)

    def beta(n, order=None, den=DEFAULT_D):
        order = _need(order)
        tq = _inv_qq(n, order, den)
        out = _zero(order, den)
        for r in range(n + 1):
            term = p.beta(r, order, den) * tq[n - r]
            out = out + term * Monomial(Fraction(a.coeff) ** r,
                                        r * a.exp + r * r)
        return out

    return a, alpha, beta


def _poch_ratio_transform(p: BaileyPair, num_arg: Monomial,
                          den_arg: Monomial,
                          mono: Callable[[int], Monomial]
                          ) -> tuple[Monomial, Gen, Gen]:
    """alpha'_n = alpha_n (num_arg;q)_n mono(n) / (den_arg;q)_n and
    beta'_n = sum_r beta_r (num_arg;q)_r mono(r) / ((q;q)_{n-r} (den_arg;q)_n).

    S3 and S5 are this transform with different (num_arg, den_arg, mono).
    """

    def alpha(n, order=None, den=DEFAULT_D):
        order = _need(order)
        inv = _inv_table(den_arg, Fraction(1), n, order, den)[n]
        return p.alpha(n, order, den) * \
            poch_finite(num_arg, 1, n, order, den) * inv * mono(n)

    def beta(n, order=None, den=DEFAULT_D):
        order = _need(order)
        tq = _inv_qq(n, order, den)
        acc = _zero(order, den)
        for r in range(n + 1):
            acc = acc + p.beta(r, order, den) * \
                poch_finite(num_arg, 1, r, order, den) * tq[n - r] * mono(r)
        return acc * _inv_table(den_arg, Fraction(1), n, order, den)[n]

    return p.a, alpha, beta


def _transform_s3(p: BaileyPair) -> tuple[Monomial, Gen, Gen]:
    a = p.a

    def mono(r: int) -> Monomial:
        return Monomial(Fraction(a.coeff) ** r,
                        r * a.exp + Fraction(r * r, 2))

    return _poch_ratio_transform(p, Monomial(-1, HALF),
                                 Monomial(-a.coeff, a.exp + HALF), mono)


def _transform_s5(p: BaileyPair) -> tuple[Monomial, Gen, Gen]:
    a = p.a
    if a.coeff != 1:
        raise ValueError("S5 needs a = q^e with coefficient 1")
    half_exp = a.exp / 2
    exp_num(half_exp, DEFAULT_D)  # a must be an even lattice power

    def mono(r: int) -> Monomial:
        return Monomial(1, r * half_exp + Fraction(r * r - r, 2))

    def lattice_checked(gen: Gen) -> Gen:
        def checked(n, order=None, den=DEFAULT_D):
            exp_num(half_exp, den)  # reject off-lattice square roots
            return gen(n, order, den)

        return checked

    a, alpha, beta = _poch_ratio_transform(p, Monomial(-1, half_exp + 1),
                                           Monomial(-1, half_exp), mono)
    return a, lattice_checked(alpha), lattice_checked(beta)


def _transform_general(p: BaileyPair, rho1: Monomial,
                       rho2: Monomial) -> tuple[Monomial, Gen, Gen]:
    a = p.a
    aq = Monomial(a.coeff, a.exp + 1)
    c1 = _mdiv(aq, rho1)
    c2 = _mdiv(aq, rho2)
    c12 = _mdiv(aq, rho1 * rho2)

    def alpha(n, order=None, den=DEFAULT_D):
        order = _need(order)
        i1 = _inv_table(c1, Fraction(1), n, order, den)[n]
        i2 = _inv_table(c2, Fraction(1), n, order, den)[n]
        return p.alpha(n, order, den) * \
            poch_finite(rho1, 1, n, order, den) * \
            poch_finite(rho2, 1, n, order, den) * i1 * i2 * _mpow(c12, n)

    def beta(n, order=None, den=DEFAULT_D):
        order = _need(order)
        tq = _inv_qq(n, order, den)
        acc = _zero(order, den)
        for r in range(n + 1):
            acc = acc + p.beta(r, order, den) * \
                poch_finite(rho1, 1, r, order, den) * \
                poch_finite(rho2, 1, r, order, den) * \
                poch_finite(c12, 1, n - r, order, den) * \
                tq[n - r] * _mpow(c12, r)
        i1 = _inv_table(c1, Fraction(1), n, order, den)[n]
        i2 = _inv_table(c2, Fraction(1), n, order, den)[n]
        return acc * i1 * i2

    return a, alpha, beta


def _transform_djk(p: BaileyPair, b: Monomial) -> tuple[Monomial, Gen, Gen]:
    if b.coeff == 1 and b.exp == 0:
        raise ValueError("the shift parameter b = 1 is singular")
    a = p.a
    a_new = Monomial(a.coeff, a.exp - 1)

    def _unit_inv(m: Monomial, order: Fraction, den: int) -> QSeries:
        s = _one_minus(m, den)
        if s.is_zero:
            raise ValueError(f"singular factor 1 - {m.coeff}*q^{m.exp}")
        return invert_unit(s, order)

    def alpha(n, order=None, den=DEFAULT_D):
        order = _need(order)
        one_a = _one_minus(a, den)
        if one_a.is_zero:
            return _zero(order, den)
        inv_b = _unit_inv(b, order, den)
        t = p.alpha(n, order, den) * \
            _one_minus(Monomial(b.coeff, b.exp + n), den) * inv_b * \
            _unit_inv(Monomial(a.coeff, a.exp + 2 * n), order, den)
        if n > 0:
            shift = QSeries.from_terms(
                [(a.exp + 2 * n - 2, a.coeff), (b.exp + n - 1, -b.coeff)],
                den=den)
            t = t - p.alpha(n - 1, order, den) * shift * inv_b * \
                _unit_inv(Monomial(a.coeff, a.exp + 2 * n - 2), order, den)
        return one_a * t

    def beta(n, order=None, den=DEFAULT_D):
        order = _need(order)
        bq = Monomial(b.coeff, b.exp + 1)
        return p.beta(n, order, den) * poch_finite(bq, 1, n, order, den) * \
            _inv_table(b, Fraction(1), n, order, den)[n]

    return a_new, alpha, beta


def _shape_alpha(u: Monomial, n: int, den: int) -> QSeries:
    """(-1)^n u^C(n+1,2) (q^-n - q^(n+1))/(1-q), expanded exactly."""
    if n == 0:
        return QSeries.one(den)
    sign = -1 if n % 2 else 1
    c = Fraction(u.coeff) ** _binom2(n + 1)
    base = u.exp * _binom2(n + 1) - n
    return QSeries.from_terms(
        [(base + j, sign * c) for j in range(2 * n + 1)], den=den)


def _transform_djk_limit(p: BaileyPair,
                         u: Monomial) -> tuple[Monomial, Gen, Gen]:
    if p.a != Monomial(1, 1):
        raise ValueError("the b -> infinity shift needs a pair relative to q")
    probe = Fraction(20)
    check_n = min(p.n_max_hint, 6) if p.n_max_hint is not None else 6
    for n in range(check_n + 1):
        want = _shape_alpha(u, n, DEFAULT_D)
        got = p.alpha(n, probe + n + 1, DEFAULT_D)
        try:
            m = compare_up_to(want, got, probe)
        except TruncationError:
            m = Mismatch(Fraction(0), 0, 0)
        if m is not None:
            raise ValueError(
                f"alpha_{n} does not have the required u-shape "
                f"(first difference near q^{m.exponent})")

    def alpha(n, order=None, den=DEFAULT_D):
        if n == 0:
            return QSeries.one(den)
        sign = -1 if n % 2 else 1
        c = Fraction(u.coeff) ** _binom2(n)
        base = u.exp * _binom2(n)
        return QSeries.from_terms(
            [(base, sign * c),
             (base + n * u.exp, sign * c * Fraction(u.coeff) ** n)], den=den)

    def beta(n, order=None, den=DEFAULT_D):
        return p.beta(n, order, den) * Monomial(1, n)

    return Monomial(1, 0), alpha, beta


def apply_transform(p: BaileyPair, t: TransformStep) -> BaileyPair:
    """A new pair per the displayed formulas; relative parameter may move."""
    if t.kind == "S1":
        a, alpha, beta = _transform_s1(p)
    elif t.kind == "S3":
        a, alpha, beta = _transform_s3(p)
    elif t.kind == "S5":
        a, alpha, beta = _transform_s5(p)
    elif t.kind == "GENERAL":
        a, alpha, beta = _transform_general(p, *t.params)
    elif t.kind == "DJK":
        a, alpha, beta = _transform_djk(p, *t.params)
    elif t.kind == "DJK_LIMIT":
        a, alpha, beta = _transform_djk_limit(p, *t.params)
    else:
        raise ValueError(f"unknown transform kind {t.kind!r}")
    return BaileyPair(a, _memo(alpha), _memo(beta),
                      name=_derived_name(p, t), n_max_hint=p.n_max_hint)


def chain(p0: BaileyPair, steps) -> BaileyPair:
    """Fold of apply_transform; an empty chain returns the seed pair."""
    pair = p0
    for step in steps:
        pair = apply_transform(pair, step)
    return pair


# -- identities from pairs ----------------------------------------------------

@dataclass(frozen=True)
class GeneralReport:
    lhs: QSeries
    rhs: QSeries
    mismatch: Optional[Mismatch]

    @property
    def ok(self) -> bool:
        return self.mismatch is None


def general_bailey_check(p: BaileyPair, rho1: Monomial, rho2: Monomial,
                         n: int, order: ExpLike,
                         den: int = DEFAULT_D) -> GeneralReport:
    """Both sides of the two-parameter finite identity, compared to order.

    Checked after clearing the (aq/rho1, aq/rho2; q)_n denominators, so the
    ratio (c;q)_n/(c;q)_r on the alpha side becomes the finite product
    (c q^r; q)_{n-r}.  The cleared form is equivalent for generic parameters
    and stays valid for specializations where a cleared factor vanishes.
    """
    order = Fraction(order)
    a = p.a
    aq = Monomial(a.coeff, a.exp + 1)
    c1 = _mdiv(aq, rho1)
    c2 = _mdiv(aq, rho2)
    c12 = _mdiv(aq, rho1 * rho2)

    def build_lhs(depth: Fraction) -> QSeries:
        tq = _inv_qq(n, depth, den)
        acc = _zero(depth, den)
        for j in range(n + 1):
            acc = acc + p.beta(j, depth, den) * \
                poch_finite(rho1, 1, j, depth, den) * \
                poch_finite(rho2, 1, j, depth, den) * \
                poch_finite(c12, 1, n - j, depth, den) * \
                tq[n - j] * _mpow(c12, j)
        return acc

    def build_rhs(depth: Fraction) -> QSeries:
        alphas, d2 = _alpha_depth(p, n, depth, den)
        tq = _inv_qq(n, d2, den)
        taq = _inv_table(aq, Fraction(1), 2 * n, d2, den)
        acc = _zero(d2, den)
        for r in range(n + 1):
            if alphas[r].is_zero:
                continue
            tail1 = poch_finite(Monomial(c1.coeff, c1.exp + r), 1, n - r,
                                d2, den)
            tail2 = poch_finite(Monomial(c2.coeff, c2.exp + r), 1, n - r,
                                d2, den)
            acc = acc + alphas[r] * \
                poch_finite(rho1, 1, r, d2, den) * \
                poch_finite(rho2, 1, r, d2, den) * \
                tail1 * tail2 * tq[n - r] * taq[n + r] * _mpow(c12, r)
        return acc

    lhs = deepen_until_valid(build_lhs, order, den)
    rhs = deepen_until_valid(build_rhs, order, den)
    return GeneralReport(lhs.truncated(order), rhs.truncated(order),
                         compare_up_to(lhs, rhs, order))


def limit_identity(p: BaileyPair, order: ExpLike,
                   den: int = DEFAULT_D) -> tuple[QSeries, QSeries]:
    """(sum a^n q^(n^2) beta_n, inverse (aq;q)_inf times the alpha sum).

    The cutoff is ceil(sqrt(order)) + 4; the two indices past it are checked
    to contribute only beyond the order, which certifies the truncation.
    """
    order = Fraction(order)
    a = p.a
    n_cut = _ceil_sqrt(order) + 4
    if p.n_max_hint is not None and n_cut + 2 > p.n_max_hint:
        raise ValueError("pair generators not defined far enough")

    def mono(nn: int) -> Monomial:
        return Monomial(Fraction(a.coeff) ** nn, nn * a.exp + nn * nn)

    for nn in (n_cut + 1, n_cut + 2):
        for gen, side in ((p.beta, "beta"), (p.alpha, "alpha")):
            s = gen(nn, order, den)
            if s.is_zero:
                continue
            val = Fraction(s.min_num, den) + mono(nn).exp
            if val <= order:
                raise ValueError(
                    f"{side}_{nn} still contributes at q^{val}; "
                    "valuation growth assertion failed")

    def build_lhs(depth: Fraction) -> QSeries:
        acc = _zero(depth, den)
        for nn in range(n_cut + 1):
            acc = acc + p.beta(nn, depth, den) * mono(nn)
        return acc

    def build_rhs(depth: Fraction) -> QSeries:
        aq = Monomial(a.coeff, a.exp + 1)
        acc = _zero(depth, den)
        for nn in range(n_cut + 1):
            term = p.alpha(nn, depth, den)
            if term.is_zero:
                continue
            acc = acc + term * mono(nn)
        return acc * invert_unit(poch_infinite(aq, 1, depth, den), depth)

    lhs = deepen_until_valid(build_lhs, order, den)
    rhs = deepen_until_valid(build_rhs, order, den)
    return lhs.truncated(order), rhs.truncated(order)


# -- chain expressions --------------------------------------------------------

_STEP_ARITY = {"S1": 0, "S3": 0, "S5": 0, "GENERAL": 2, "DJK": 1,
               "DJKLIM": 1, "DJK_LIMIT": 1}
_STEP_RE = re.compile(r"^([A-Za-z_][A-Za-z_0-9]*)\s*(?:\((.*)\))?$")


def parse_chain(text: str) -> tuple[str, tuple[TransformStep, ...]]:
    """Grammar: NAME (|> STEP[(params)])*; params are monomials."""
    parts = [s.strip() for s in text.split("|>")]
    if not parts[0]:
        raise ValueError("chain expression needs a seed pair name")
    steps = []
    for tok in parts[1:]:
        m = _STEP_RE.match(tok)
        if not m:
            raise ValueError(f"cannot parse chain step {tok!r}")
        name = m.group(1).upper()
        if name not in _STEP_ARITY:
            raise ValueError(f"unknown transform {m.group(1)!r}")
        raw = m.group(2)
        params = tuple(parse_monomial(s)
                       for s in raw.split(",")) if raw else ()
        if len(params) != _STEP_ARITY[name]:
            raise ValueError(
                f"{name} takes {_STEP_ARITY[name]} parameter(s), "
                f"got {len(params)}")
        kind = "DJK_LIMIT" if name == "DJKLIM" else name
        steps.append(TransformStep(kind, params))
    return parts[0], tuple(steps)


def run_chain(text: str) -> BaileyPair:
    """Parse a chain expression and fold it from its built-in seed."""
    seed, steps = parse_chain(text)
    return chain(builtin_pair(seed), steps)
