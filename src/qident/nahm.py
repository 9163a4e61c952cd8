"""Lattice-sum evaluators for quadratic-exponent q-series.

Two kinds of sums are evaluated exactly over Z_{>=0}^r:

* :class:`NahmQuadruple` -- (A, b, c, d) with exponent (1/2) n^T A D n + n.b
  (+ c) and denominators (q^(d_i); q^(d_i))_{n_i},
* :class:`MultiSumSpec` -- the generic shape: arbitrary rational quadratic +
  linear exponent, per-index Pochhammer denominators, optional extra
  Pochhammer factors of affine length and per-term monomial prefactors.

Truncation is sound: :func:`lattice_bound` produces a box that provably
contains every lattice point whose exponent is <= the requested order.  When
the symmetrized matrix has only nonnegative entries the per-variable bound is
solved exactly; otherwise an exact rational lower bound on the smallest
eigenvalue is found by Sturm-chain bisection on the characteristic
polynomial.  No floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Optional, Sequence, Union

from qident.series import (
    DEFAULT_D,
    ExpLike,
    Monomial,
    QSeries,
    Scalar,
    exp_num,
    qmono,
)
from qident.products import inv_poch_table, poch_table

Matrix = tuple[tuple[Fraction, ...], ...]
Vector = tuple[Fraction, ...]


def _mat(rows: Sequence[Sequence[ExpLike]]) -> Matrix:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def _vec(xs: Sequence[ExpLike]) -> Vector:
    return tuple(Fraction(x) for x in xs)


def _det(m: Sequence[Sequence[Fraction]]) -> Fraction:
    """Exact determinant by Gaussian elimination over Fraction."""
    n = len(m)
    work = [list(row) for row in m]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            det = -det
        det *= work[col][col]
        inv = Fraction(1) / work[col][col]
        for r in range(col + 1, n):
            f = work[r][col] * inv
            if f:
                work[r] = [a - f * b for a, b in zip(work[r], work[col])]
    return det


def is_positive_definite(m: Matrix) -> bool:
    """All leading principal minors > 0, computed exactly."""
    for k in range(1, len(m) + 1):
        if _det([row[:k] for row in m[:k]]) <= 0:
            return False
    return True


@dataclass(frozen=True)
class NahmQuadruple:
    """(A, b, c, d): rational matrix/vector/scalar plus the symmetrizer d."""

    A: Matrix
    b: Vector
    c: Fraction
    d: tuple[int, ...]

    def __init__(self, A, b, c, d):
        object.__setattr__(self, "A", _mat(A))
        object.__setattr__(self, "b", _vec(b))
        object.__setattr__(self, "c", Fraction(c))
        object.__setattr__(self, "d", tuple(int(x) for x in d))
        if any(x <= 0 for x in self.d):
            raise ValueError("symmetrizer entries must be positive integers")
        if len(self.A) != len(self.b) or len(self.A) != len(self.d):
            raise ValueError("rank mismatch between A, b and d")

    @property
    def rank(self) -> int:
        return len(self.d)

    @property
    def ad(self) -> Matrix:
        return tuple(tuple(row[j] * self.d[j] for j in range(self.rank))
                     for row in self.A)


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


@dataclass(frozen=True)
class MultiSumSpec:
    """A k-fold sum with quadratic exponent and Pochhammer structure.

    exponent(n) = (1/2) n^T quad n + lin.n + const; index i contributes a
    denominator (q^(denoms[i]); q^(denoms[i]))_{n_i}; `extra` multiplies in
    Pochhammer factors of affine length; `prefactor` is a per-point
    polynomial sum of coeff * q^form(n) (empty tuple means 1).
    `from_partial_sums` records that the quadratic form was converted from
    the cumulative-index basis.
    """

    names: tuple[str, ...]
    quad: Matrix
    lin: Vector
    denoms: tuple[Fraction, ...]
    const: Fraction = Fraction(0)
    extra: tuple[PochFactor, ...] = ()
    prefactor: tuple[tuple[Scalar, AffineForm], ...] = ()
    from_partial_sums: bool = False

    def __post_init__(self):
        k = len(self.names)
        if len(self.quad) != k or len(self.lin) != k or len(self.denoms) != k:
            raise ValueError("spec dimensions disagree")
        for i in range(k):
            for j in range(i):
                if self.quad[i][j] != self.quad[j][i]:
                    raise ValueError("quadratic form must be symmetric")

    @property
    def rank(self) -> int:
        return len(self.names)

    def exponent(self, point: Sequence[int]) -> Fraction:
        e = self.const
        for i, vi in enumerate(point):
            if not vi:
                continue
            e += Fraction(self.quad[i][i] * vi * vi, 2) + self.lin[i] * vi
            for j in range(i):
                if point[j]:
                    e += self.quad[i][j] * vi * point[j]
        return e


def partial_sum_basis(k: int, quad_N: Sequence[Sequence[ExpLike]],
                      lin_N: Sequence[ExpLike]) -> tuple[Matrix, Vector]:
    """Rewrite a form in N_i = n_i + ... + n_k into the raw n-basis."""
    # T[a][j] = 1 if j >= a; quad_n = T^T quad_N T, lin_n = T^T lin_N
    qn = _mat(quad_N)
    ln = _vec(lin_N)
    t = [[Fraction(int(j >= a)) for j in range(k)] for a in range(k)]
    quad = [[sum(t[a][i] * qn[a][b] * t[b][j]
                 for a in range(k) for b in range(k))
             for j in range(k)] for i in range(k)]
    lin = [sum(t[a][i] * ln[a] for a in range(k)) for i in range(k)]
    return _mat(quad), _vec(lin)


def quadruple_spec(q: NahmQuadruple, include_c: bool = False) -> MultiSumSpec:
    """View a quadruple as the equivalent generic spec."""
    return MultiSumSpec(
        names=tuple(f"n{i+1}" for i in range(q.rank)),
        quad=q.ad,
        lin=q.b,
        denoms=tuple(Fraction(x) for x in q.d),
        const=q.c if include_c else Fraction(0),
    )


# -- enumeration bounds -------------------------------------------------------

def _ceil_sqrt(x: Fraction) -> int:
    """Smallest integer k with k*k >= x, for x >= 0."""
    if x <= 0:
        return 0
    num, den = x.numerator, x.denominator
    k = isqrt(num // den)
    while k * k * den < num:
        k += 1
    return k


def _min_pure_contrib(half_m: Fraction, lin: Fraction,
                      hi: Optional[int] = None) -> Fraction:
    """min over integers n >= 0 (optionally <= hi) of half_m*n^2 + lin*n."""
    if half_m <= 0:
        raise ValueError("need a positive diagonal")
    vertex = -lin / (2 * half_m)
    cands = {0}
    for c in (int(vertex), int(vertex) + 1):
        if c >= 0 and (hi is None or c <= hi):
            cands.add(c)
    return min(half_m * c * c + lin * c for c in cands)


def _max_n_quadratic(half_m: Fraction, lin: Fraction,
                     budget: Fraction) -> int:
    """Largest integer n >= 0 with half_m*n^2 + lin*n <= budget, or -1."""
    if half_m <= 0:
        raise ValueError("need a positive diagonal")
    if budget < 0 and lin >= 0:
        return -1
    disc = lin * lin + 4 * half_m * budget
    if disc < 0:
        return -1
    n = int((Fraction(_ceil_sqrt(disc)) - lin) / (2 * half_m)) + 1
    while n >= 0 and half_m * n * n + lin * n > budget:
        n -= 1
    return n


def _charpoly(m: Matrix) -> list[Fraction]:
    """det(xI - m) coefficients, highest power first (Faddeev-LeVerrier)."""
    n = len(m)
    coeffs = [Fraction(1)]
    mk = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        step = [[mk[i][j] + (coeffs[-1] if i == j else 0) for j in range(n)]
                for i in range(n)]
        mk = [[sum(m[i][t] * step[t][j] for t in range(n)) for j in range(n)]
              for i in range(n)]
        coeffs.append(-Fraction(sum(mk[i][i] for i in range(n)), k))
    return coeffs


def _polymod(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a = list(a)
    while len(a) >= len(b):
        if a[0] != 0:
            f = a[0] / b[0]
            for i in range(1, len(b)):
                a[i] -= f * b[i]
        a.pop(0)
    while len(a) > 1 and a[0] == 0:
        a.pop(0)
    return a or [Fraction(0)]


def _sturm_chain(p: list[Fraction]) -> list[list[Fraction]]:
    deg = len(p) - 1
    dp = [p[i] * (deg - i) for i in range(deg)] or [Fraction(0)]
    chain = [list(p), dp]
    while len(chain[-1]) > 1:
        rem = _polymod(chain[-2], chain[-1])
        if len(rem) == 1 and rem[0] == 0:
            break
        chain.append([-c for c in rem])
    return chain


def _sign_changes(chain: list[list[Fraction]], x: Fraction) -> int:
    signs = []
    for poly in chain:
        v = Fraction(0)
        for c in poly:
            v = v * x + c
        if v:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def smallest_eigenvalue_lower_bound(m: Matrix) -> Fraction:
    """Exact rational 0 < L <= lambda_min(m) for symmetric PD m."""
    if not is_positive_definite(m):
        raise ValueError("matrix is not positive definite")
    chain = _sturm_chain(_charpoly(m))
    t = min(m[i][i] for i in range(len(m)))  # Rayleigh: lambda_min <= min diag
    for _ in range(128):
        if _sign_changes(chain, Fraction(0)) - _sign_changes(chain, t) == 0:
            return t
        t = t / 2
    raise ValueError("failed to bound the smallest eigenvalue")


def lattice_bound(spec: Union[NahmQuadruple, MultiSumSpec],
                  order: ExpLike) -> list[int]:
    """Box [0..M_1] x ... x [0..M_r] holding all points with exponent <= order.

    With a nonnegative matrix, cross terms are dropped and each variable's
    quadratic is solved exactly against the budget left after the other
    variables' (possibly negative) pure minima.  Otherwise a single radius
    from the smallest-eigenvalue bound applies to every variable.
    """
    if isinstance(spec, NahmQuadruple):
        spec = quadruple_spec(spec)
    m, lin = spec.quad, spec.lin
    r = spec.rank
    budget0 = Fraction(order) - spec.const
    if any(m[i][i] <= 0 for i in range(r)):
        raise ValueError("unbounded enumeration: nonpositive diagonal")
    if all(x >= 0 for row in m for x in row):
        mins = [_min_pure_contrib(Fraction(m[i][i], 2), lin[i])
                for i in range(r)]
        total_min = sum(mins, Fraction(0))
        return [max(_max_n_quadratic(Fraction(m[i][i], 2), lin[i],
                                     budget0 - (total_min - mins[i])), 0)
                for i in range(r)]
    lam = smallest_eigenvalue_lower_bound(m)
    # E >= (lam/2)|n|^2 - |lin| |n| + const
    blin = _ceil_sqrt(sum((x * x for x in lin), Fraction(0)))
    radius = _max_n_quadratic(lam / 2, Fraction(-blin), budget0)
    return [max(radius, 0)] * r


# -- evaluation ---------------------------------------------------------------

def _accumulate(acc: dict[int, Scalar], prod: QSeries, shift: int,
                coeff: Scalar, onum: int) -> None:
    for e, c in prod.terms.items():
        t = e + shift
        if t > onum:
            continue
        s = acc.get(t, 0) + c * coeff
        if s:
            acc[t] = s
        else:
            acc.pop(t, None)


def nahm_sum(spec: NahmQuadruple, order: ExpLike, include_c: bool = False,
             den: int = DEFAULT_D) -> QSeries:
    """The quadruple's sum truncated at order, evaluated as its generic spec.

    The independent oracle for this evaluator is the test suite's brute-force
    ``brute_sum`` (tests/helpers.py).
    """
    if not check_symmetrizable(spec.A, spec.d):
        raise ValueError("quadruple is not symmetrizable positive definite")
    return multi_sum(quadruple_spec(spec, include_c), order, den)


def multi_sum(spec: MultiSumSpec, order: ExpLike,
              den: int = DEFAULT_D) -> QSeries:
    """Evaluate the generic spec exactly to the given order."""
    onum = exp_num(order, den)
    bounds = lattice_bound(spec, order)
    r = spec.rank
    tabs = [inv_poch_table(qmono(spec.denoms[i]), spec.denoms[i], bounds[i],
                           order, den) for i in range(r)]
    extra_tabs = []
    for f in spec.extra:
        if any(c < 0 or c.denominator != 1 for c in f.length.coeffs) \
                or f.length.const.denominator != 1 or f.length.const < 0:
            raise ValueError("extra factor lengths must be nonnegative "
                             "integer forms")
        hi = int(f.length.value(bounds))
        if f.power == 1:
            extra_tabs.append(poch_table(f.arg, f.base, hi, order, den))
        elif f.power == -1:
            extra_tabs.append(inv_poch_table(f.arg, f.base, hi, order, den))
        else:
            raise ValueError("extra factor powers are +1 or -1 only")
    m, lin = spec.quad, spec.lin
    nonneg = all(x >= 0 for row in m for x in row)
    mins = [_min_pure_contrib(Fraction(m[i][i], 2), lin[i], bounds[i])
            for i in range(r)]
    tail_min = [Fraction(0)] * (r + 1)
    for i in range(r - 1, -1, -1):
        tail_min[i] = tail_min[i + 1] + min(mins[i], 0)
    pref = spec.prefactor or ((1, AffineForm(0, [0] * r)),)
    pref_min = min(f.const + sum((min(c, 0) * bv
                                  for c, bv in zip(f.coeffs, bounds)),
                                 Fraction(0)) for _, f in pref)
    acc: dict[int, Scalar] = {}
    point = [0] * r
    top = Fraction(order)

    def emit(expo: Fraction, prod: QSeries) -> None:
        for fi, f in enumerate(spec.extra):
            prod = prod * extra_tabs[fi][int(f.length.value(point))]
        for coeff, form in pref:
            e = expo + form.value(point)
            if e <= top:
                _accumulate(acc, prod, exp_num(e, den), coeff, onum)

    def rec(i: int, expo: Fraction, prod: QSeries) -> None:
        if i == r:
            if expo + pref_min <= top:
                emit(expo, prod)
            return
        for v in range(bounds[i] + 1):
            point[i] = v
            e2 = expo + Fraction(m[i][i] * v * v, 2) + lin[i] * v
            for j in range(i):
                e2 += m[i][j] * v * point[j]
            if nonneg and e2 + tail_min[i + 1] + pref_min > top:
                continue
            rec(i + 1, e2, prod * tabs[i][v] if v else prod)
        point[i] = 0

    rec(0, spec.const, QSeries(den, {0: 1}, onum))
    return QSeries(den, acc, onum)


# -- rank reduction -----------------------------------------------------------

@dataclass(frozen=True)
class Reduction:
    """A lower-rank route: optional infinite-product prefactor times a spec."""

    kind: str  # "merge" (two indices collapse) or "euler" (one sums away)
    removed: tuple[str, ...]
    prefactor: tuple[tuple[Monomial, Fraction, int], ...]
    spec: MultiSumSpec


def reduce_rank(q: NahmQuadruple) -> Optional[Reduction]:
    """Collapse one summation index when the quadruple allows it.

    Pattern "merge": indices x (base b) and z (base 2b) couple so that the
    exponent splits as b*C(x,2) + G(x + 2z); the pair then telescopes to a
    single index m = x + 2z with denominator (q^b; q^b)_m.  Matching needs
    M_zz = 4*gamma, M_xz = 2*gamma with gamma = M_xx - b, every other cross
    entry of row z double that of row x, and lin_z = 2*lin_x + b; the merged
    index keeps quadratic gamma and gets linear lin_x + b/2.

    Pattern "euler": index x whose pure part is b*C(x,2) + s*x, s > 0, and
    whose cross coefficients are nonnegative multiples of b, sums to
    (-q^s * q^(cross(n)); q^b)_inf: a global prefactor (-q^s; q^b)_inf over
    a finite Pochhammer of affine length cross(n)/b.
    """
    m, lin, d = q.ad, q.b, q.d
    r = q.rank
    names = tuple(f"n{i+1}" for i in range(r))

    for x in range(r):
        for z in range(r):
            if x == z or d[z] != 2 * d[x]:
                continue
            b = Fraction(d[x])
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

            def entry(i: int, j: int) -> Fraction:
                if i == x and j == x:
                    return gamma
                return m[i][j]

            return Reduction(
                kind="merge",
                removed=(names[x], names[z]),
                prefactor=(),
                spec=MultiSumSpec(
                    names=tuple(("m" if i == x else names[i]) for i in idx),
                    quad=tuple(tuple(entry(i, j) for j in idx) for i in idx),
                    lin=tuple((lin[x] + b / 2 if i == x else lin[i])
                              for i in idx),
                    denoms=tuple((b if i == x else Fraction(d[i]))
                                 for i in idx),
                ),
            )

    for x in range(r):
        b = Fraction(d[x])
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
                denoms=tuple(Fraction(d[j]) for j in rest),
                extra=(PochFactor(arg, b, AffineForm(0, steps), -1),),
            ),
        )

    return None


def eval_reduction(red: Reduction, order: ExpLike,
                   den: int = DEFAULT_D) -> QSeries:
    """Prefactor times the reduced sum, truncated at order."""
    from qident.products import ProductExpr, eval_product

    out = multi_sum(red.spec, order, den)
    if red.prefactor:
        out = out * eval_product(ProductExpr(red.prefactor), order, den)
    return out
