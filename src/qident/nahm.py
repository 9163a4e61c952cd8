"""Lattice-sum evaluators for quadratic-exponent q-series.

Every sum is one :class:`MultiSumSpec`, evaluated exactly over Z_{>=0}^r:
an arbitrary rational quadratic + linear exponent, per-index Pochhammer
denominators, optional extra Pochhammer factors of affine length and
per-term monomial prefactors.  A Nahm sum (A, b, c, d), with exponent
(1/2) n^T A D n + n.b + c and denominators (q^(d_i); q^(d_i))_{n_i}, is the
spec :func:`nahm_spec` builds.

Truncation is sound: :func:`lattice_bound` produces a box that provably
contains every lattice point whose exponent is <= the requested order.  When
the symmetrized matrix has only nonnegative entries the per-variable bound is
solved exactly on the orthant; otherwise the form's square is completed
exactly (a rational LDL^T, :func:`_squares`), which gives each variable its
real ellipsoid extent and the enumerator a floor at every node (Fincke-Pohst
row bounds).  The same completion decides positive definiteness.

:func:`multi_sum` walks one exponent (a prefactor term c q^(f(n)) is c
times a walk of the exponent plus f) with one running series per index, each
held as one Python int (Kronecker substitution): slot s, w bits wide, is the
coefficient of q^(G*s/den) on the sum's own lattice, so dividing by
(1 - q^(d v)) is a doubling prefix sum, a cut is a mask, and a lattice point
is one int product per extra factor table, packed once per walk, and one
masked, shifted add into an accumulator decoded once at the end, all in the
slot format `series` owns.  The walk certifies a bound from the box and the
extra factor sizes that `series._slot_width` turns into a width no slot can
carry past.  No floating point anywhere.

A :class:`MultiSumSpec` checks itself when built, so it holds only what
:func:`multi_sum` can enumerate; :func:`nahm_spec` also demands a
symmetrizable positive definite A.  Its exponent is also held once in
integers over one common denominator (:class:`ScaledForm`); ``exponent``,
the box and the walk all read that form.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import floor, gcd, isqrt, lcm, prod
from typing import NamedTuple, Optional, Sequence

from qident.series import (
    DEFAULT_D,
    ExpLike,
    LatticeError,
    Monomial,
    QSeries,
    Scalar,
    _Slots,
    _div_packed,
    _mul_valid,
    _pack,
    _slot_width,
    exp_num,
    nonneg_order,
)
from qident.products import (ProductExpr, eval_product, inv_poch_table,
                              poch_table)

Matrix = tuple[tuple[Fraction, ...], ...]
Vector = tuple[Fraction, ...]


def _mat(rows: Sequence[Sequence[ExpLike]]) -> Matrix:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def _vec(xs: Sequence[ExpLike]) -> Vector:
    return tuple(Fraction(x) for x in xs)


def _squares(m: Sequence[Sequence[Fraction]], lin: Sequence[Fraction],
             const: ExpLike) -> tuple[list[Fraction],
                                      list[tuple[Fraction, Vector]], Fraction]:
    """Complete the square of (1/2) n^T m n + lin.n + const, last index first.

    Returns (piv, centres, low) with
    form(n) = low + sum_k piv[k]/2 * (n_k - centre_k(n))^2, where
    centres[k] = (c, cs) and centre_k(n) = c + sum_{j<k} cs[j] n_j, so the
    least real value of the form over n_(k+1).. given n_0..n_k is low plus
    the first k+1 squares (the Fincke-Pohst row bound).  m must be
    symmetric; a pivot <= 0 means it is not positive definite.
    """
    a = [list(row) for row in m]
    b = list(lin)
    low = Fraction(const)
    r = len(a)
    piv: list[Fraction] = [Fraction(0)] * r
    centres: list[tuple[Fraction, Vector]] = [(Fraction(0), ())] * r
    for k in range(r - 1, -1, -1):
        p = Fraction(a[k][k])
        if p <= 0:
            raise ValueError("matrix is not positive definite")
        piv[k] = p
        centres[k] = (-b[k] / p, tuple(-a[k][j] / p for j in range(k)))
        for i in range(k):
            f = a[i][k] / p
            b[i] -= f * b[k]
            for j in range(k):
                a[i][j] -= f * a[k][j]
        low -= b[k] * b[k] / (2 * p)
    return piv, centres, low


def is_positive_definite(m: Matrix) -> bool:
    """Every pivot of the exact square completion of symmetric m is > 0."""
    try:
        _squares(m, [Fraction(0)] * len(m), 0)
    except ValueError:
        return False
    return True


def check_symmetrizable(A: Sequence[Sequence[ExpLike]],
                        d: Sequence[int]) -> bool:
    """True iff A*diag(d) is symmetric and positive definite (exact)."""
    A = _mat(A)
    if any(len(row) != len(A) for row in A) or len(d) != len(A):
        raise ValueError("A must be square and match the length of d")
    ad = tuple(tuple(row[j] * d[j] for j in range(len(d))) for row in A)
    for i in range(len(ad)):
        for j in range(i):
            if ad[i][j] != ad[j][i]:
                return False
    return is_positive_definite(ad)


# -- generic multi-sums -------------------------------------------------------

@dataclass(frozen=True)
class AffineForm:
    """const + sum coeffs[i] * n_i over a sum's index vector."""

    const: Fraction
    coeffs: Vector

    def __init__(self, const: ExpLike, coeffs: Sequence[ExpLike]):
        object.__setattr__(self, "const", Fraction(const))
        object.__setattr__(self, "coeffs", _vec(coeffs))

    def value(self, point: Sequence[int]) -> Fraction:
        return self.const + sum((c * v for c, v in zip(self.coeffs, point)),
                                Fraction(0))


@dataclass(frozen=True)
class PochFactor:
    """(arg; q^base)_length^power with an affine, point-dependent length."""

    arg: Monomial
    base: Fraction
    length: AffineForm
    power: int = 1


class ScaledForm(NamedTuple):
    """A spec's exponent times `scale`, the least common denominator of its
    halves m_ii/2, cross entries, lin and const, in ints."""

    scale: int
    half: tuple[int, ...]
    cross: tuple[tuple[int, ...], ...]  # cross[i][j] for j < i
    lin: tuple[int, ...]
    const: int

    def at(self, point: Sequence[int]) -> int:
        """The exponent at point, times scale."""
        return self.const + sum(
            v * (h * v + x + sum(c * u for c, u in zip(row, point)))
            for v, h, x, row in zip(point, self.half, self.lin, self.cross))


@dataclass(frozen=True)
class MultiSumSpec:
    """A k-fold sum with quadratic exponent and Pochhammer structure.

    exponent(n) = (1/2) n^T quad n + lin.n + const; index i contributes a
    denominator (q^(denoms[i]); q^(denoms[i]))_{n_i}; `extra` multiplies in
    Pochhammer factors of affine length; `prefactor` is a per-point
    polynomial sum of coeff * q^form(n) (empty tuple means 1).  `ints`, built
    on first use, is the exponent in integers (:class:`ScaledForm`).
    """

    names: tuple[str, ...]
    quad: Matrix
    lin: Vector
    denoms: tuple[Fraction, ...]
    const: Fraction = Fraction(0)
    extra: tuple[PochFactor, ...] = ()
    prefactor: tuple[tuple[Scalar, AffineForm], ...] = ()

    def __post_init__(self):
        # The box needs a positive diagonal, and a form with a negative
        # entry positive definite (one with none is bounded on the orthant).
        # It certifies only the quadratic exponent, so an extra factor
        # must add no negative power of q, and every base d of a divisor
        # 1 - q^(d v) is positive.  Every form has one coefficient per
        # index, since the walk zips them with the point.
        k = len(self.names)
        m = self.quad
        if len(m) != k or len(self.lin) != k or len(self.denoms) != k \
                or any(len(row) != k for row in m) \
                or any(len(f.coeffs) != k for _, f in self.prefactor) \
                or any(len(f.length.coeffs) != k for f in self.extra):
            raise ValueError("spec dimensions disagree")
        if any(d <= 0 for d in self.denoms):
            raise ValueError("denominator bases must be positive")
        for i in range(k):
            for j in range(i):
                if m[i][j] != m[j][i]:
                    raise ValueError("quadratic form must be symmetric")
        # the symmetric form's signs, from its entries' int numerators
        if any(m[i][i].numerator <= 0 for i in range(k)):
            raise ValueError("unbounded enumeration: nonpositive diagonal")
        if any(x.numerator < 0 for i in range(k) for x in m[i][:i]):
            _squares(m, self.lin, self.const)
        # A prefactor term is walked as its own spec with its own box, so
        # its sign is the catalog grammar's rule, not the walk's need.
        for _, form in self.prefactor:
            if form.const < 0 or any(c < 0 for c in form.coeffs):
                raise ValueError("prefactor exponents must have a nonnegative "
                                 "constant and coefficients")
        for f in self.extra:
            if any(c < 0 or c.denominator != 1 for c in f.length.coeffs) \
                    or f.length.const.denominator != 1 or f.length.const < 0:
                raise ValueError("extra factor lengths must be nonnegative "
                                 "integer forms")
            if f.arg.exp < 0 or f.base < 0:
                raise ValueError("extra factors need a nonnegative argument "
                                 "exponent and base")
            if f.power not in (1, -1):
                raise ValueError("extra factor powers are +1 or -1 only")

    @property
    def rank(self) -> int:
        return len(self.names)

    @cached_property
    def ints(self) -> ScaledForm:
        m, r = self.quad, self.rank
        halves = [Fraction(m[i][i], 2) for i in range(r)]
        L = lcm(*(x.denominator for x in (
            *halves, *(x for row in m for x in row), *self.lin, self.const)))

        def up(*xs: Fraction) -> tuple[int, ...]:
            return tuple(x.numerator * (L // x.denominator) for x in xs)

        return ScaledForm(
            L, up(*halves), tuple(up(*m[i][:i]) for i in range(r)),
            up(*self.lin), *up(self.const))

    def exponent(self, point: Sequence[int]) -> Fraction:
        return Fraction(self.ints.at(point), self.ints.scale)


def nahm_spec(A: Sequence[Sequence[ExpLike]], b: Sequence[ExpLike],
              c: ExpLike, d: Sequence[int]) -> MultiSumSpec:
    """The spec of the Nahm sum (A, b, c, d): exponent (1/2) n^T A D n + n.b
    + c over n1..nr with denominators (q^(d_i); q^(d_i))_{n_i}, for positive
    integer d and A*diag(d) symmetric positive definite."""
    A, b, d = _mat(A), _vec(b), tuple(int(x) for x in d)
    if any(x <= 0 for x in d):
        raise ValueError("symmetrizer entries must be positive integers")
    if len(A) != len(b) or len(A) != len(d):
        raise ValueError("rank mismatch between A, b and d")
    if not check_symmetrizable(A, d):
        raise ValueError("A*diag(d) is not symmetric positive definite")
    return MultiSumSpec(
        names=tuple(f"n{i+1}" for i in range(len(d))),
        quad=tuple(tuple(row[j] * d[j] for j in range(len(d))) for row in A),
        lin=b,
        denoms=tuple(Fraction(x) for x in d),
        const=Fraction(c),
    )


# -- enumeration bounds -------------------------------------------------------

def _min_pure_contrib(half_m: int, lin: int) -> int:
    """min over integers n >= 0 of half_m*n^2 + lin*n, for half_m > 0: n = 0
    or one side of the vertex."""
    n = max(-lin // (2 * half_m), 0)
    return min(0, half_m * n * n + lin * n,
               half_m * (n + 1) ** 2 + lin * (n + 1))


def _max_n_quadratic(half_m: int, lin: int, budget: int) -> int:
    """Largest integer n with half_m*n^2 + lin*n <= budget (half_m > 0), or
    a negative number if no n >= 0 has it: the floor of the larger root
    (isqrt floors it exactly), unless no integer lies between the roots."""
    disc = lin * lin + 4 * half_m * budget
    if disc < 0:
        return -1
    n = (isqrt(disc) - lin) // (2 * half_m)
    return n if half_m * n * n + lin * n <= budget else -1


def lattice_bound(spec: MultiSumSpec, order: ExpLike) -> list[int]:
    """Box [0..M_1] x ... x [0..M_r] holding all points with exponent <= order.

    With a nonnegative matrix, cross terms are dropped and each variable's
    quadratic is solved exactly against the budget left after the other
    variables' (possibly negative) pure minima, in the spec's integers.
    Otherwise each variable gets the exact extent of the real ellipsoid
    {form <= order}: completing the square with that variable first leaves
    its quadratic over the least value of the rest.
    """
    order, sf = Fraction(order), spec.ints
    if all(x >= 0 for row in sf.cross for x in row):
        # in units of 1/scale each pure part is an integer, so the budget
        # left after the other variables' least pure parts may be floored
        mins = [_min_pure_contrib(h, x) for h, x in zip(sf.half, sf.lin)]
        budget = floor(order * sf.scale) - sf.const - sum(mins)
        return [max(_max_n_quadratic(h, x, budget + low), 0)
                for h, x, low in zip(sf.half, sf.lin, mins)]
    m, lin, r = spec.quad, spec.lin, spec.rank
    box = []
    for i in range(r):
        idx = [i] + [j for j in range(r) if j != i]
        piv, centres, low = _squares([[m[a][b] for b in idx] for a in idx],
                                     [lin[a] for a in idx], spec.const)
        # form >= low + piv/2 (n_i - c)^2, with equality for some real rest,
        # so n_i <= c + sqrt(rad2), floored over c's denominator b
        rad2, c = (order - low) * 2 / piv[0], centres[0][0]
        b = c.denominator
        box.append(max((c.numerator + isqrt(floor(rad2 * b * b))) // b, 0)
                   if rad2 >= 0 else 0)
    return box


# -- evaluation ---------------------------------------------------------------

def _layout(gens: Sequence[int], origin: int, step: int,
            lowest: int) -> tuple[int, int]:
    """(G, base) with every exponent of the walk, in units of 1/den, equal
    to base + G*s for a slot s >= 0, when those exponents lie in
    origin + span(gens) in units of 1/L, L = den*step, and none is below
    `lowest` (in units of 1/den).  G is 1 when the span leaves the
    (1/den)-lattice; a point that lands off it then raises LatticeError."""
    g = gcd(*gens)
    if g % step or origin % step:
        return 1, lowest
    G = g // step
    return G, lowest - (lowest - origin // step) % G


def multi_sum(spec: MultiSumSpec, order: ExpLike,
              den: int = DEFAULT_D) -> QSeries:
    """Evaluate the generic spec exactly to the given order.

    A prefactor term c q^(f(n)) adds c times the sum of the spec with f
    added to its exponent and no prefactor, so a walk sees one exponent.
    Index i keeps one running series, divided by (1 - q^(d_i v)) as v steps
    up and cut to the deepest coefficient a point below it can still use, so
    no denominator table is convolved per point.  Each series is packed into
    one int on the sum's own lattice (:func:`_layout`), in slots wide enough
    for every coefficient the walk can reach (`series._slot_width`), so a
    division is a doubling prefix sum, and a point multiplies its series by
    its entry of each packed extra table (over the tables' common
    denominator kx), cut at the product's validity, and adds it into one
    accumulator that is decoded once.  The result is valid to the least
    validity of its contributions, which the cuts keep at the order.
    """
    if spec.prefactor:
        return sum(c * multi_sum(replace(
            spec, prefactor=(), const=spec.const + f.const,
            lin=tuple(x + y for x, y in zip(spec.lin, f.coeffs))), order, den)
            for c, f in spec.prefactor)
    onum = exp_num(nonneg_order(order), den)
    bounds = lattice_bound(spec, order)
    r, sf = spec.rank, spec.ints
    nonneg = all(x >= 0 for row in sf.cross for x in row)
    # Exponents are ints in units of 1/L, L = den * scale (the spec's integer
    # form times den), so a point lands on the (1/den)-lattice iff its
    # exponent is a multiple of step = scale.
    step, L = sf.scale, den * sf.scale
    half = [h * den for h in sf.half]
    cross = [[x * den for x in row] for row in sf.cross]
    lin_l = [x * den for x in sf.lin]
    const_l = sf.const * den
    lengths = [(int(f.length.const), [int(c) for c in f.length.coeffs])
               for f in spec.extra]
    denom_num = [exp_num(d, den) for d in spec.denoms]
    top = onum * step
    # A point below a node has exponent >= the node's floor.  With a
    # nonnegative form that is the partial exponent e2 plus the later
    # variables' pure minima; otherwise it is the least real value of the
    # form given the prefix, one completed square per fixed index.
    if nonneg:
        tail_min = [0] * (r + 1)
        for i in range(r - 1, -1, -1):
            tail_min[i] = tail_min[i + 1] + _min_pure_contrib(half[i],
                                                              lin_l[i])
        lowest = const_l + tail_min[0]
    else:
        piv, centres, low = _squares(spec.quad, spec.lin, spec.const)
        floors = [low] * (r + 1)  # floors[i]: the floor of the node at i
        lowest = floor(low * L)
    # coefficients past this depth reach no exponent <= the order
    root = (top - lowest) // step
    depth = Fraction(root, den)
    extra_tabs = [(poch_table if f.power == 1 else inv_poch_table)(
        f.arg, f.base, int(f.length.value(bounds)), depth, den)
        for f in spec.extra]
    # kx clears every table entry, so each slot of the accumulator is an
    # integer, kx times the coefficient
    ks = [lcm(*(t.d for t in tab)) for tab in extra_tabs]
    kx = prod(ks)
    # Q(n) - Q(0) lies in the span of Q(e_i) - Q(0) and the form's entries;
    # a running series or extra table entry has powers spanned by the
    # divisor steps and the extra factors' argument exponents and bases (an
    # off-lattice one stands in as 1, which forces G = 1)
    gens = [d * step for d in denom_num]
    gens += [h + x for h, x in zip(half, lin_l)] + [2 * h for h in half]
    gens += [x for row in cross for x in row]
    for f in spec.extra:
        gens += [x.numerator if x.denominator == 1 else 1
                 for x in (f.arg.exp * L, f.base * L)]
    G, base = _layout(gens, const_l, step, lowest // step)
    # A running series is r kinds of geometric series in q^g, g the gcd of
    # the divisor steps, so none of its coefficients through q^(g*depth)
    # exceeds p_r(depth); each point of the box adds it times one entry per
    # extra table (l1 norm at most k times the table's largest).
    bound = prod(b + 1 for b in bounds) * prod(
        max(k // t.d * sum(map(abs, t.nums.values())) for t in tab)
        for k, tab in zip(ks, extra_tabs))
    w = _slot_width(bound, r, root // gcd(*denom_num))
    # each table entry as one int (k/d times it), its validity and valuation
    packed = [[(_pack([t.nums.get(G * s, 0) * (k // t.d)
                       for s in range(max(t.nums, default=0) // G + 1)], w),
                t.order_num, t.min_num if t.nums else t.order_num)
               for t in tab] for k, tab in zip(ks, extra_tabs)]
    acc, valid, point = 0, onum, [0] * r

    def emit(expo: int, p: int, pcut: Optional[int]) -> None:
        nonlocal acc, valid
        for tab, (c0, cs) in zip(packed, lengths):
            e, ecut, elow = tab[c0 + sum(c * v for c, v in zip(cs, point))]
            low = ((p & -p).bit_length() - 1) // w * G if p else pcut
            pcut = _mul_valid(pcut, low, ecut, elow)
            # the slots through pcut are exact mod 2^(w*n) and sum, signed,
            # to less than 2^(w*n - 1): the least absolute residue (mask -1
            # keeps an exact product whole)
            mask = -1 if pcut is None else (1 << w * (pcut // G + 1)) - 1
            p = p * (e & mask) & mask
            if p > mask >> 1:
                p -= mask + 1
        if expo % step:
            raise LatticeError(f"exponent {Fraction(expo, L)} is not "
                               f"on the (1/{den})-lattice")
        shift = expo // step
        at = w * ((shift - base) // G)
        n = (onum - shift) // G + 1  # the slots that land <= the order
        acc += (p & ((1 << w * n) - 1)) << at
        if pcut is not None and pcut + shift < valid:
            valid = pcut + shift

    def rec(i: int, expo: int, p: int, pcut: Optional[int]) -> None:
        if i == r:  # the last index's need puts expo <= top
            emit(expo, p, pcut)
            return
        lq = lin_l[i] + sum(c * v for c, v in zip(cross[i], point))
        exps = [expo + (half[i] * v + lq) * v for v in range(bounds[i] + 1)]
        if nonneg:
            needs = [(top - e2 - tail_min[i + 1]) // step for e2 in exps]
        else:
            c0, cs = centres[i]
            c = c0 + sum((x * v for x, v in zip(cs, point)), Fraction(0))
            fls = [floors[i] + piv[i] * (v - c) ** 2 / 2
                   for v in range(len(exps))]
            needs = [(top - floor(f * L)) // step for f in fls]
        # the series at v feeds every later v, and the exponent need not
        # grow with v, so it is cut at the most any of them can use
        cuts = list(accumulate(reversed(needs), max))[::-1]
        for v, e2 in enumerate(exps):
            if cuts[v] < 0:
                break
            if v:
                pcut = cuts[v] if pcut is None else min(cuts[v], pcut)
                p = _div_packed(p, w * (denom_num[i] * v // G),
                                (1 << w * (pcut // G + 1)) - 1)
            if needs[v] >= 0:
                point[i] = v
                if not nonneg:
                    floors[i + 1] = fls[v]
                rec(i + 1, e2, p, pcut)
        point[i] = 0

    rec(0, const_l, 1, None)
    return _Slots(den, acc, w, max((onum - base) // G + 1, 0), base, G, kx,
                  valid).series()


# A Nahm sum is a spec from nahm_spec; the name stays for callers that look
# the evaluator up by it.
nahm_sum = multi_sum


# -- rank reduction -----------------------------------------------------------

@dataclass(frozen=True)
class Reduction:
    """A lower-rank route: optional infinite-product prefactor times a spec."""

    kind: str  # "merge" (two indices collapse) or "euler" (one sums away)
    removed: tuple[str, ...]
    prefactor: tuple[tuple[Monomial, Fraction, int], ...]
    spec: MultiSumSpec


def reduce_rank(spec: MultiSumSpec) -> Optional[Reduction]:
    """Collapse one summation index of a plain sum when its form allows it.

    A plain sum has no prefactor, no extra factor and integer bases; for any
    other spec there is no route.  M is the spec's quadratic form, indices
    keep the spec's names, and the reduced spec keeps the constant.

    Pattern "merge": indices x (base b) and z (base 2b) couple so that the
    exponent splits as b*C(x,2) + G(x + 2z); the pair then telescopes to a
    single index m = x + 2z with denominator (q^b; q^b)_m.  Matching needs
    M_zz = 4*gamma, M_xz = 2*gamma with gamma = M_xx - b, every other cross
    entry of row z double that of row x, and lin_z = 2*lin_x + b; the merged
    index, named "x+2z" after the spec's names, keeps quadratic gamma and
    gets linear lin_x + b/2.

    Pattern "euler": index x whose pure part is b*C(x,2) + s*x, s > 0, and
    whose cross coefficients are nonnegative multiples of b, sums to
    (-q^s * q^(cross(n)); q^b)_inf: a global prefactor (-q^s; q^b)_inf over
    a finite Pochhammer of affine length cross(n)/b.
    """
    m, lin, d = spec.quad, spec.lin, spec.denoms
    if spec.prefactor or spec.extra or any(x.denominator != 1 for x in d):
        return None
    r, names = spec.rank, spec.names

    for x in range(r):
        for z in range(r):
            if x == z or d[z] != 2 * d[x]:
                continue
            b = d[x]
            gamma = m[x][x] - b
            if gamma <= 0:
                continue
            if m[z][z] != 4 * gamma or m[x][z] != 2 * gamma:
                continue
            if lin[z] != 2 * lin[x] + b:
                continue
            rest = [j for j in range(r) if j not in (x, z)]
            if any(m[z][j] != 2 * m[x][j] for j in rest):
                continue
            idx = sorted([x] + rest)
            return Reduction(
                kind="merge",
                removed=(names[x], names[z]),
                prefactor=(),
                spec=MultiSumSpec(
                    names=tuple((f"{names[x]}+2{names[z]}" if i == x
                                 else names[i]) for i in idx),
                    quad=tuple(tuple(gamma if i == j == x else m[i][j]
                                     for j in idx) for i in idx),
                    lin=tuple((lin[x] + b / 2 if i == x else lin[i])
                              for i in idx),
                    denoms=tuple((b if i == x else d[i]) for i in idx),
                    const=spec.const,
                ),
            )

    for x in range(r):
        b = d[x]
        if m[x][x] != b:
            continue
        s = b / 2 + lin[x]
        if s <= 0:
            continue
        rest = [j for j in range(r) if j != x]
        steps: Optional[list[Fraction]] = []
        for j in rest:
            ratio = m[x][j] / b
            if ratio < 0 or ratio.denominator != 1:
                steps = None
                break
            steps.append(ratio)
        if steps is None:
            continue
        arg = Monomial(-1, s)
        return Reduction(
            kind="euler",
            removed=(names[x],),
            prefactor=((arg, b, 1),),
            spec=MultiSumSpec(
                names=tuple(names[j] for j in rest),
                quad=tuple(tuple(m[i][j] for j in rest) for i in rest),
                lin=tuple(lin[j] for j in rest),
                denoms=tuple(d[j] for j in rest),
                const=spec.const,
                extra=(PochFactor(arg, b, AffineForm(0, steps), -1),),
            ),
        )

    return None


def eval_reduction(red: Reduction, order: ExpLike,
                   den: int = DEFAULT_D) -> QSeries:
    """Prefactor times the reduced sum, truncated at order."""
    return eval_product(ProductExpr(red.prefactor), order, den,
                        multi_sum(red.spec, order, den))
