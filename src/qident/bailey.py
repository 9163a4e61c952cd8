"""Bailey-pair calculus over exact truncated q-series.

A pair relative to the monomial a is two sequences alpha_n, beta_n tied by

    beta_n = sum_{k=0}^n alpha_k / ((q;q)_{n-k} (aq;q)_{n+k}).

This module verifies that relation term by term, builds the classical pairs
G1, G2, G3 and G1*, applies the transforms of :data:`TRANSFORMS` and sums
pairs into sum-equals-product limit identities.  S1, S3, S5 and GENERAL are
one Bailey lemma, :func:`_lemma`: GENERAL is the two-parameter lemma and
S1, S3 and S5 are its limits.  The other two rows are the a -> a/q shift DJK
with parameter b and that shift's b -> infinity limit DJK_LIMIT.  Chain
expressions "SEED |> STEP |> STEP(arg)" are read by
:func:`qident.catalog.parse_chain`.

Generators take (n, order, den) and return a QSeries valid at least to
order + min(0, valuation); :func:`term` reads one entry valid through the
order, re-requesting through :func:`qident.series.deepen_until_valid`.
Pairs are immutable, and a chain prefix is one object per process:
:func:`builtin_pair` keeps one pair per name and :func:`apply_transform`
the last :data:`PAIR_TABLE_SIZE` pairs it built, one per (pair, step).  A
call that raises keeps nothing.

The rows are the caches, and nothing free of n is built per n: every finite
symbol is a :class:`qident.products.PochRow` grown a factor per new n, the
1/(x;q)_n rows (1/(1 - m) is entry 1 of m's) and the pair relation's kernel
sit in the bounded caches :func:`_inv_table` and :func:`_kernel_table`, and
each lemma pair owns a :class:`_Row` per (order, den), which also keeps its
finished alpha_n and beta_n, as a seed pair's beta keeps its entries.  So
a repeated request is a read, and a kept pair holds every row it grew:
memory grows with the orders and indices asked of the kept pairs, not
with the number of chains.
Every sum of series products, the lemma's beta'_n = sum_r u_r w_(n-r) and
the pair relation's right side in :func:`verify_pair`, is one
:func:`qident.series.dot`: one integer accumulator and one division per
coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import ceil, isqrt
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
    dot,
    exp_num,
    nonneg_order,
    qmono,
)
from qident.products import PochRow, poch_infinite

HALF = Fraction(1, 2)
PAIR_TABLE_SIZE = 16  # pairs apply_transform keeps, one per (pair, step)

Gen = Callable[..., QSeries]
Transformed = tuple[Monomial, Gen, Gen]  # new relative parameter, alpha, beta


def _binom2(n: int) -> int:
    return n * (n - 1) // 2


def _mdiv(x: Monomial, y: Monomial) -> Monomial:
    return Monomial(Fraction(x.coeff) / Fraction(y.coeff), x.exp - y.exp)


def _one_minus(m: Monomial, den: int) -> QSeries:
    """1 - m as an exact polynomial (possibly zero)."""
    return QSeries.from_terms([(0, 1), (m.exp, -m.coeff)], den=den)


def _zero(order: ExpLike, den: int) -> QSeries:
    return QSeries(den, {}, exp_num(order, den))


def _kept(row: dict, key, make: Callable[[], QSeries]) -> QSeries:
    """row[key], made by make() on the first read; a raise keeps nothing."""
    s = row.get(key)
    if s is None:
        s = row[key] = make()
    return s


@lru_cache(maxsize=1024)
def _inv_table(arg: Monomial, base: Fraction, order: Fraction,
               den: int) -> PochRow:
    return PochRow((arg,), base, order, den, -1)


@lru_cache(maxsize=64)
def _kernel_table(a: Monomial, order: Fraction,
                  den: int) -> Callable[[int, int], QSeries]:
    """(n, k) -> 1/((q;q)_(n-k) (aq;q)_(n+k)), each made when first read."""
    tq = _inv_table(qmono(1), Fraction(1), order, den)
    taq = _inv_table(Monomial(a.coeff, a.exp + 1), Fraction(1), order, den)
    cells: dict[tuple[int, int], QSeries] = {}
    return lambda n, k: _kept(cells, (n, k), lambda: tq[n - k] * taq[n + k])


def term(gen: Gen, n: int, order: ExpLike, den: int = DEFAULT_D) -> QSeries:
    """Entry n of a pair's alpha or beta, valid through the order."""
    return deepen_until_valid(lambda d: gen(n, d, den), order, den)


@dataclass(frozen=True)
class BaileyPair:
    """Relative parameter a plus alpha/beta generators (n, order, den)."""

    a: Monomial
    alpha: Gen
    beta: Gen
    name: str = ""


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

    def alpha(n, order, den=DEFAULT_D):
        return QSeries.one(den) if n == 0 else QSeries.zero(den)

    def beta(n, order, den=DEFAULT_D):
        return _inv_table(qmono(1), Fraction(1), order, den)[n] * \
            _inv_table(aq, Fraction(1), order, den)[n]

    return BaileyPair(a, alpha, beta, name="unit")


def _slater_beta(shift_n: bool, comp_exp: Fraction) -> Gen:
    """beta_n = q^(n if shift_n) / ((q^2;q^2)_n (-q^comp_exp; q)_n), each
    entry kept in a row per (order, den)."""
    comp = Monomial(-1, comp_exp)
    rows = lru_cache(maxsize=None)(lambda order, den: {})

    def make(n: int, order: Fraction, den: int) -> QSeries:
        out = _inv_table(qmono(2), Fraction(2), order, den)[n] * \
            _inv_table(comp, Fraction(1), order, den)[n]
        return out * Monomial(1, n) if shift_n else out

    def beta(n, order, den=DEFAULT_D):
        return _kept(rows(order, den), n, lambda: make(n, order, den))

    return beta


def _geometric_alpha(u: Monomial, c: Fraction) -> Gen:
    """alpha_n = (-1)^n u^C(n+1,2) (q^(-cn) - q^(cn+c))/(1 - q^c).

    The quotient is expanded as the exact geometric polynomial
    q^(-cn) * (1 + q^c + ... + q^(2nc)); the division is exact because the
    numerator vanishes at q^c = 1.
    """

    def alpha(n, order, den=DEFAULT_D):
        if n == 0:
            return QSeries.one(den)
        sign = -1 if n % 2 else 1
        coeff = sign * Fraction(u.coeff) ** _binom2(n + 1)
        base = u.exp * _binom2(n + 1) - c * n
        return QSeries.from_terms(
            [(base + c * j, coeff) for j in range(2 * n + 1)], den=den)

    return alpha


def _theta_alpha(u: Monomial, ell: Fraction) -> Gen:
    """alpha_0 = 1 and alpha_n = (-1)^n u^C(n,2) q^(ell n^2) (1 + u^n)."""

    def alpha(n, order, den=DEFAULT_D):
        if n == 0:
            return QSeries.one(den)
        sign = -1 if n % 2 else 1
        coeff = sign * Fraction(u.coeff) ** _binom2(n)
        base = u.exp * _binom2(n) + ell * n * n
        return QSeries.from_terms(
            [(base, coeff),
             (base + n * u.exp, coeff * Fraction(u.coeff) ** n)], den=den)

    return alpha


def builtin_pair(name: str) -> BaileyPair:
    """The pairs G1, G2, G3 (Slater's list) and G1star (also spelled G1*),
    one pair per name."""
    pairs = _builtin_pairs()
    key = name.replace("*", "star")
    if key not in pairs:
        raise ValueError(f"unknown built-in pair {name!r}")
    return pairs[key]


@lru_cache(maxsize=1)
def _builtin_pairs() -> dict[str, BaileyPair]:
    u = qmono(Fraction(3, 2))
    rows = {
        "G1": (qmono(0), _theta_alpha(qmono(HALF), HALF),
               _slater_beta(False, HALF)),
        "G2": (qmono(1), _geometric_alpha(u, HALF),
               _slater_beta(False, Fraction(3, 2))),
        "G3": (qmono(0), _theta_alpha(u, Fraction(0)),
               _slater_beta(True, HALF)),
        "G1star": (qmono(1), _geometric_alpha(u, Fraction(1)),
                   _slater_beta(False, HALF)),
    }
    return {key: BaileyPair(a, alpha, beta, name=key)
            for key, (a, alpha, beta) in rows.items()}


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


def _check_n_max(n_max: int) -> None:
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")


def verify_pair(p: BaileyPair, n_max: int, order: ExpLike,
                den: int = DEFAULT_D) -> PairReport:
    """Check the defining relation for every n <= n_max up to order."""
    _check_n_max(n_max)
    order = nonneg_order(order)
    onum = exp_num(order, den)
    alphas = [p.alpha(k, order, den) for k in range(n_max + 1)]
    dnum = onum - min([0] + [a.min_num for a in alphas if not a.is_zero])
    depth = Fraction(dnum, den)
    if dnum != onum:
        alphas = [p.alpha(k, depth, den) for k in range(n_max + 1)]
    kernel = _kernel_table(p.a, depth, den)
    results = []
    for n in range(n_max + 1):
        # sum_k alpha_k / ((q;q)_{n-k} (aq;q)_{n+k}) as one dot to the depth
        rhs = dot([(a, kernel(n, k))
                   for k, a in enumerate(alphas[:n + 1]) if not a.is_zero],
                  dnum, den)
        results.append((n, compare_up_to(term(p.beta, n, order, den), rhs,
                                         order)))
    return PairReport(p.name, p.a, order, tuple(results))


def pairs_equal(p1: BaileyPair, p2: BaileyPair, n_max: int, order: ExpLike,
                den: int = DEFAULT_D) -> Optional[tuple[int, str, Mismatch]]:
    """First (n, side, mismatch) where the pairs differ, else None.

    Different relative parameters are (0, "a", mismatch), where the mismatch
    compares the one-term series a1 and a2 at their first difference."""
    _check_n_max(n_max)
    order = nonneg_order(order)
    if p1.a != p2.a:
        e = min(p1.a.exp, p2.a.exp)
        c1, c2 = (m.coeff if m.exp == e else 0 for m in (p1.a, p2.a))
        return (0, "a", Mismatch(e, c1, c2))
    for n in range(n_max + 1):
        for side in ("alpha", "beta"):
            m = compare_up_to(term(getattr(p1, side), n, order, den),
                              term(getattr(p2, side), n, order, den), order)
            if m is not None:
                return (n, side, m)
    return None


# -- transforms ---------------------------------------------------------------

def _spell(m: Monomial) -> str:
    """m as the chain reader spells a monomial: 2, q, -q^(1/2), 1/3*q^-1."""
    e = m.exp
    if e == 0:
        return str(m.coeff)
    q = "q" if e == 1 else f"q^{e}" if e.denominator == 1 else f"q^({e})"
    if m.coeff in (1, -1):
        return q if m.coeff == 1 else "-" + q
    return f"{m.coeff}*{q}"


def _derived_name(p: BaileyPair, t: TransformStep) -> str:
    tag = t.kind
    if t.params:
        tag += "(" + ", ".join(_spell(m) for m in t.params) + ")"
    return f"{p.name} |> {tag}" if p.name else tag


def _power(m: Monomial, k: Fraction) -> Callable[[int], Monomial]:
    """r -> m^r q^(k r^2)."""
    return lambda r: Monomial(Fraction(m.coeff) ** r, m.exp * r + k * r * r)


class _Row:
    """A lemma's r-sum pieces that do not depend on n, at one (order, den),
    grown as higher n are asked for: the heads prod_x (x;q)_r, which alpha
    shares, the tails, u and w; and the finished alpha_n and beta_n.
    """

    def __init__(self, beta: Gen, nums: tuple[Monomial, ...],
                 tail: tuple[Monomial, ...], mono: Callable[[int], Monomial],
                 order: Fraction, den: int):
        self.beta, self.mono, self.order, self.den = beta, mono, order, den
        self.heads = PochRow(nums, 1, order, den)
        self.tails = PochRow(tail, 1, order, den)
        # u[r] = beta_r heads[r] mono(r) and w[k] = tails[k] / (q;q)_k
        self.u, self.w = [], []
        self.alphas: dict[int, QSeries] = {}
        self.betas: dict[int, QSeries] = {}

    def r_sum(self, n: int) -> QSeries:
        """sum_r beta_r mono(r) prod_x (x;q)_r (tail;q)_{n-r} / (q;q)_{n-r}."""
        order, den = self.order, self.den
        tq = _inv_table(qmono(1), Fraction(1), order, den)
        for k in range(len(self.u), n + 1):
            self.u.append(self.beta(k, order, den) * self.heads[k] *
                          self.mono(k))
            self.w.append(self.tails[k] * tq[k])
        # the zero u_r stay in: their validity bounds the sum's
        return dot(zip(self.u[:n + 1], self.w[n::-1]), exp_num(order, den),
                   den)


def _lemma(p: BaileyPair, nums: tuple[Monomial, ...],
           dens: tuple[Monomial, ...], tail: tuple[Monomial, ...],
           mono: Callable[[int], Monomial]) -> Transformed:
    """The Bailey lemma with numerator parameters nums, denominator
    parameters dens and at most one tail parameter; a stays the same.

        alpha'_n = alpha_n mono(n) prod_x (x;q)_n / prod_y (y;q)_n
        beta'_n  = prod_y (y;q)_n^-1 sum_r beta_r mono(r) prod_x (x;q)_r
                   (tail;q)_{n-r} / (q;q)_{n-r}
    """
    row = lru_cache(maxsize=None)(
        lambda order, den: _Row(p.beta, nums, tail, mono, order, den))

    def divide(s: QSeries, n: int, order: Fraction, den: int) -> QSeries:
        for y in dens:
            s = s * _inv_table(y, Fraction(1), order, den)[n]
        return s

    def alpha(n, order, den=DEFAULT_D):
        r = row(order, den)
        return _kept(r.alphas, n, lambda: divide(
            p.alpha(n, order, den) * r.heads[n], n, order, den) * mono(n))

    def beta(n, order, den=DEFAULT_D):
        r = row(order, den)
        return _kept(r.betas, n,
                     lambda: divide(r.r_sum(n), n, order, den))

    return p.a, alpha, beta


def _transform_s1(p: BaileyPair) -> Transformed:
    return _lemma(p, (), (), (), _power(p.a, Fraction(1)))


def _transform_s3(p: BaileyPair) -> Transformed:
    a = p.a
    return _lemma(p, (Monomial(-1, HALF),),
                  (Monomial(-a.coeff, a.exp + HALF),), (), _power(a, HALF))


def _transform_s5(p: BaileyPair) -> Transformed:
    a = p.a
    if a.coeff != 1:
        raise ValueError("S5 needs a = q^e with coefficient 1")
    half_exp = a.exp / 2
    exp_num(half_exp, DEFAULT_D)  # a must be an even lattice power

    def lattice_checked(gen: Gen) -> Gen:
        def checked(n, order, den=DEFAULT_D):
            exp_num(half_exp, den)  # reject off-lattice square roots
            return gen(n, order, den)

        return checked

    a, alpha, beta = _lemma(p, (Monomial(-1, half_exp + 1),),
                            (Monomial(-1, half_exp),), (),
                            _power(Monomial(1, half_exp - HALF), HALF))
    return a, lattice_checked(alpha), lattice_checked(beta)


def _transform_general(p: BaileyPair, rho1: Monomial,
                       rho2: Monomial) -> Transformed:
    aq = Monomial(p.a.coeff, p.a.exp + 1)
    dens = (_mdiv(aq, rho1), _mdiv(aq, rho2))
    for rho, y in zip((rho1, rho2), dens):  # y = q^-j makes (y;q)_n vanish
        if y.coeff == 1 and y.exp <= 0 and y.exp.denominator == 1:
            raise ValueError(f"GENERAL is singular for rho = {_spell(rho)}: "
                             f"(aq/rho;q)_n has the factor 1 - 1 for every "
                             f"n > {-y.exp}")
    c12 = _mdiv(aq, rho1 * rho2)
    return _lemma(p, (rho1, rho2), dens, (c12,), _power(c12, Fraction(0)))


def _transform_djk(p: BaileyPair, b: Monomial) -> Transformed:
    # unless b or a is some q^-j (j >= 0), no 1 - b q^k or 1 - a q^(2n)
    # that the pieces divide by is 0
    if b.coeff == 1 and b.exp <= 0 and b.exp.denominator == 1:
        raise ValueError(f"DJK is singular for b = {_spell(b)}: (b;q)_n has "
                         f"the factor 1 - 1 for every n > {-b.exp}")
    a = p.a
    if a.coeff == 1 and a.exp <= 0 and a.exp.denominator == 1:
        raise ValueError(f"DJK is singular on a pair relative to {_spell(a)}"
                         ": the shifted pair's (aq;q)_n has the factor 1 - 1")
    a_new = Monomial(a.coeff, a.exp - 1)

    def _unit_inv(m: Monomial, order: Fraction, den: int) -> QSeries:
        return _inv_table(m, Fraction(1), order, den)[1]

    def alpha(n, order, den=DEFAULT_D):
        # the factors with b lower the pieces' validity by -b.exp if b.exp < 0
        order -= min(b.exp, 0)
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
        return _one_minus(a, den) * t

    bq = Monomial(b.coeff, b.exp + 1)
    heads = lru_cache(maxsize=None)(
        lambda order, den: PochRow((bq,), 1, order, den))

    def beta(n, order, den=DEFAULT_D):
        order -= min(bq.exp, 0)  # as alpha's, for the factors of (bq; q)_n
        return p.beta(n, order, den) * heads(order, den)[n] * \
            _inv_table(b, Fraction(1), order, den)[n]

    return a_new, alpha, beta


def _transform_djk_limit(p: BaileyPair, u: Monomial) -> Transformed:
    if p.a != Monomial(1, 1):
        raise ValueError("the b -> infinity shift needs a pair relative to q")
    probe = Fraction(20)
    shape = _geometric_alpha(u, Fraction(1))
    for n in range(7):
        want = shape(n, probe, DEFAULT_D)
        got = p.alpha(n, probe + n + 1, DEFAULT_D)
        try:
            m = compare_up_to(want, got, probe)
        except TruncationError:
            m = Mismatch(Fraction(0), 0, 0)
        if m is not None:
            raise ValueError(
                f"alpha_{n} does not have the required u-shape "
                f"(first difference near q^{m.exponent})")

    def beta(n, order, den=DEFAULT_D):
        return p.beta(n, order, den) * Monomial(1, n)

    return Monomial(1, 0), _theta_alpha(u, Fraction(0)), beta


# kind -> (parameter count, builder); a builder takes the pair and the
# parameters and returns the new relative parameter, alpha and beta
TRANSFORMS: dict[str, tuple[int, Callable[..., Transformed]]] = {
    "S1": (0, _transform_s1),
    "S3": (0, _transform_s3),
    "S5": (0, _transform_s5),
    "GENERAL": (2, _transform_general),
    "DJK": (1, _transform_djk),
    "DJK_LIMIT": (1, _transform_djk_limit),
}


@lru_cache(maxsize=PAIR_TABLE_SIZE)
def apply_transform(p: BaileyPair, t: TransformStep) -> BaileyPair:
    """A pair per the displayed formulas; relative parameter may move.

    One pair per (p, t) while it stays among the last PAIR_TABLE_SIZE
    built, so equal chains share their pairs and rows."""
    if t.kind not in TRANSFORMS:
        raise ValueError(f"unknown transform kind {t.kind!r}")
    a, alpha, beta = TRANSFORMS[t.kind][1](p, *t.params)
    return BaileyPair(a, alpha, beta, name=_derived_name(p, t))


def chain(p0: BaileyPair, steps) -> BaileyPair:
    """Fold of apply_transform; an empty chain returns the seed pair."""
    pair = p0
    for step in steps:
        pair = apply_transform(pair, step)
    return pair


# -- identities from pairs ----------------------------------------------------

def limit_identity(p: BaileyPair, order: ExpLike,
                   den: int = DEFAULT_D) -> tuple[QSeries, QSeries]:
    """(sum a^n q^(n^2) beta_n, inverse (aq;q)_inf times the alpha sum).

    The cutoff is ceil(sqrt(order)) + 4; the two indices past it are checked
    to contribute only beyond the order, which certifies the truncation.
    """
    order = nonneg_order(order)
    a = p.a
    n_cut = isqrt(ceil(order) - 1) + 5 if order > 0 else 4

    mono = _power(a, Fraction(1))  # the S1 weight a^n q^(n^2)
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
        return sum((p.beta(nn, depth, den) * mono(nn)
                    for nn in range(n_cut + 1)), _zero(depth, den))

    def build_rhs(depth: Fraction) -> QSeries:
        alphas = (p.alpha(nn, depth, den) for nn in range(n_cut + 1))
        acc = sum((s * mono(nn) for nn, s in enumerate(alphas)
                   if not s.is_zero), _zero(depth, den))
        aq = Monomial(a.coeff, a.exp + 1)
        return poch_infinite(aq, 1, depth, den, -1, acc)

    lhs = deepen_until_valid(build_lhs, order, den)
    rhs = deepen_until_valid(build_rhs, order, den)
    return lhs.truncated(order), rhs.truncated(order)
