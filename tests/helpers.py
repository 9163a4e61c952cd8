"""Brute-force combinatorial oracles shared by the test modules.

Everything here recounts coefficients from first principles (partition
enumeration, direct nested loops) so the library under test never supplies
its own expected values.  :func:`empty_tables` resets the library's
process-wide tables, for the autouse fixture and for the tests that compare
a cold pass with a shared one.
"""

from fractions import Fraction
from functools import lru_cache
from math import floor, gcd, isqrt

from qident import bailey, products
from qident.series import DEFAULT_D, Monomial, QSeries, exp_num


def empty_tables():
    """Empty the eval_product memo, bailey's pair table, its relation
    kernels and its seed pairs, which hold the seed rows."""
    products._memo_product.cache_clear()
    bailey.apply_transform.cache_clear()
    bailey._kernel_table.cache_clear()
    bailey._builtin_pairs.cache_clear()


def count_partitions(n, allowed_parts):
    """Partitions of n into parts drawn (with repetition) from allowed_parts."""
    parts = sorted(p for p in allowed_parts if 0 < p <= n)
    table = [1] + [0] * n
    for p in parts:
        for m in range(p, n + 1):
            table[m] += table[m - p]
    return table[n]


@lru_cache(maxsize=None)
def count_gap2(n, min_part=1):
    """Partitions of n whose parts differ pairwise by at least 2."""
    if n == 0:
        return 1
    total = 0
    for smallest in range(min_part, n + 1):
        rest = n - smallest
        if rest == 0:
            total += 1
        elif rest >= smallest + 2:
            total += count_gap2(rest, smallest + 2)
    return total


def series_coeffs(s: QSeries, upto, step=1):
    """Integer-exponent coefficients [q^0], [q^step], ... as plain numbers."""
    out = []
    e = 0
    while e <= upto:
        out.append(s.coeff_num(exp_num(e, s.den)))
        e += step
    return out


def brute_sum(order, den, ranges, term):
    """Direct nested-loop sum oracle.

    ranges: list of per-index upper bounds (inclusive); term(idx) must return
    a QSeries (or None to skip).  Deliberately naive: used to double-check the
    library's evaluators on small instances.
    """
    total = QSeries(den, {}, exp_num(order, den))
    idx = [0] * len(ranges)

    def rec(pos):
        nonlocal total
        if pos == len(ranges):
            t = term(tuple(idx))
            if t is not None:
                total = total + t
            return
        for v in range(ranges[pos] + 1):
            idx[pos] = v
            rec(pos + 1)

    rec(0)
    return total.truncated(Fraction(order))


# -- quadratic forms by cofactor expansion -------------------------------------
#
# Determinants and inverses by Laplace expansion over Fraction, with no
# elimination, so they share no step with the square completion in qident.nahm.

def det(m):
    """Determinant of a small square matrix by cofactor expansion."""
    if not m:
        return Fraction(1)
    return sum(((-1) ** j * Fraction(m[0][j]) * det(minor(m, 0, j))
                for j in range(len(m))), Fraction(0))


def minor(m, i, j):
    """m without row i and column j."""
    return [row[:j] + row[j + 1:] for k, row in enumerate(m) if k != i]


def leading_minors(m):
    """The determinants of the leading k x k blocks, k = 1..rank."""
    return [det([list(row[:k]) for row in m[:k]]) for k in range(1, len(m) + 1)]


def real_extent(quad, lin, const, order):
    """Per index i, the largest integer v >= 0 with v <= x_i for some real
    x where (1/2) x^T quad x + lin.x + const <= order; 0 when there is none.

    quad must be symmetric positive definite (ranks 1-3 in the tests).  By
    Cramer's rule, inv = adj(quad) / det(quad); the form's least value is
    const - lin^T inv lin / 2 at x* = -inv lin, and with x_i = t fixed its
    least value rises by (t - x*_i)^2 / (2 inv_ii).
    """
    r = len(quad)
    d = det(quad)
    inv = [[(-1) ** (i + j) * det(minor(quad, j, i)) / d for j in range(r)]
           for i in range(r)]
    centre = [-sum(inv[i][j] * lin[j] for j in range(r)) for i in range(r)]
    slack = order - (const + sum(x * c for x, c in zip(lin, centre)) / 2)
    if slack < 0:
        return [0] * r
    out = []
    for i in range(r):
        rad2 = 2 * slack * inv[i][i]  # |t - x*_i| <= sqrt(rad2)
        v = floor(centre[i]) + isqrt(floor(rad2)) + 2
        while v > centre[i] and (v - centre[i]) ** 2 > rad2:
            v -= 1
        out.append(max(v, 0))
    return out


# -- dense kernel reference ----------------------------------------------------
#
# Plain lists of Fractions indexed from a window's lower end; nothing below
# touches QSeries arithmetic, so the kernel can be checked against it.

def dense(s: QSeries, lo, hi):
    """Stored coefficients of s at numerators lo..hi as a list of Fractions."""
    return [Fraction(s.terms.get(n, 0)) for n in range(lo, hi + 1)]


def dense_add(x, y):
    """Termwise sum of two coefficient lists on the same window."""
    return [a + b for a, b in zip(x, y)]


def dense_mul(x, y, length=None):
    """Cauchy product; the result's window starts at the sum of the starts.

    With `length`, only the product's first `length` coefficients."""
    if length is None:
        length = len(x) + len(y) - 1
    out = [Fraction(0)] * length
    for i, a in enumerate(x[:length]):
        for j, b in enumerate(y[:length - i]):
            out[i + j] += a * b
    return out


def dense_geometric(x, c, step):
    """x / (1 - c q^step) for a list that is zero below its window."""
    out = list(x)
    for k in range(step, len(out)):
        out[k] += c * out[k - step]
    return out


def dense_inverse(x, length):
    """The first `length` coefficients of 1/x, where x[0] != 0."""
    inv = []
    for k in range(length):
        s = Fraction(int(k == 0))
        for j in range(1, min(k, len(x) - 1) + 1):
            s -= x[j] * inv[k - j]
        inv.append(s / x[0])
    return inv


def dense_factors(c, exps, length):
    """The first `length` coefficients of prod (1 - c q^e) over the integers
    e in exps, from the exponent sum(e for e in exps if e < 0) up."""
    out = [1] + [0] * (length - 1)
    for e in exps:
        if e >= 0:
            out = [out[i] - (c * out[i - e] if i >= e else 0)
                   for i in range(length)]
        else:  # q^e (q^-e - c): the window moves down by -e
            out = [(out[i + e] if i >= -e else 0) - c * out[i]
                   for i in range(length)]
    return [Fraction(v) for v in out]


def check_against(res, ref, lo, order_num):
    """res has the expected validity, stores nothing outside the reference
    window or past its order, agrees with ref through its order, and keeps
    the one integer form: nonzero int numerators over a least denominator,
    read back as ints when integral."""
    assert res.order_num == order_num
    assert res.d >= 1 and gcd(res.d, *res.nums.values()) == 1
    assert all(type(c) is int and c for c in res.nums.values())
    top = lo + len(ref) - 1 if order_num is None else order_num
    assert all(lo <= n <= top for n in res.terms)
    for n in range(lo, top + 1):
        assert res.coeff_num(n) == ref[n - lo]
    for c in res.terms.values():
        assert c != 0
        assert not (isinstance(c, Fraction) and c.denominator == 1)


# -- theta sums ----------------------------------------------------------------

def triple_product_oracle(z, base, order, den=DEFAULT_D):
    """Bilateral theta sum sum_n (-1)^n q^(base*C(n,2)) z^n, truncated.

    Equals (q^base, z, q^base/z; q^base)_infinity for a Monomial z and is
    computed without reference to any product code, so it can serve as an
    oracle for it.
    """
    base = Fraction(base)
    if base <= 0:
        raise ValueError("oracle needs a positive base")
    onum = exp_num(order, den)
    terms = {}

    def put(n):
        e = base * Fraction(n * (n - 1), 2) + z.exp * n
        num = exp_num(e, den)
        if num > onum:
            return False
        c = Fraction(z.coeff) ** n if n >= 0 else Fraction(1) / \
            (Fraction(z.coeff) ** (-n))
        if n % 2:
            c = -c
        prev = Fraction(terms.get(num, 0)) + c
        if prev == 0:
            terms.pop(num, None)
        else:
            terms[num] = prev.numerator if prev.denominator == 1 else prev
        return True

    n = 0
    while put(n):
        n += 1
    n = -1
    while put(n):
        n -= 1
    return QSeries(den, terms, onum)


# -- the product-expression algebra over Fraction-keyed dicts ------------------
#
# A product expression is a pair (factors, prefactor) as in ProductExpr; equal
# factors and equal prefactor exponents are found by hashing the Fractions
# themselves, the way the algebra did before it keyed on ints.

def oracle_merge(factors):
    """Sum the powers of equal (m, base, power) factors in first-appearance
    order, dropping zero powers."""
    acc = {}
    order = []
    for (m, b, p) in factors:
        key = (m.coeff, m.exp, Fraction(b))
        if key not in acc:
            order.append(key)
            acc[key] = 0
        acc[key] += p
    return tuple((Monomial(k[0], k[1]), k[2], acc[k])
                 for k in order if acc[k] != 0)


def oracle_poly_norm(monos):
    """Sum equal exponents, sort by exponent, drop zeros; none left is a
    ValueError."""
    acc = {}
    for m in monos:
        acc[m.exp] = acc.get(m.exp, 0) + m.coeff
    out = tuple(Monomial(c, e) for e, c in sorted(acc.items()) if c != 0)
    if not out:
        raise ValueError("zero prefactor")
    return out


ORACLE_ONE = (Monomial(1, 0),)


def oracle_mul(x, y):
    pf = tuple(a * b for a in x[1] for b in y[1])
    return oracle_merge(x[0] + y[0]), oracle_poly_norm(pf)


def oracle_div(x, y):
    if y[1] != ORACLE_ONE:
        raise ValueError("can only divide by a pure product")
    return oracle_merge(x[0] + tuple((m, b, -p) for m, b, p in y[0])), x[1]


def oracle_pow(x, k):
    if x[1] != ORACLE_ONE:
        raise ValueError("can only power a pure product")
    return oracle_merge(tuple((m, b, p * k) for m, b, p in x[0])), ORACLE_ONE


def oracle_P(a, m, sign=1):
    """(sign q^a; q^m)_infinity."""
    return ((Monomial(sign, a), Fraction(m), 1),), ORACLE_ONE


def oracle_TP(x, y, z, m):
    return oracle_mul(oracle_mul(oracle_P(x, m), oracle_P(y, m)),
                      oracle_P(z, m))


def oracle_J(a, m=None):
    if m is None:
        return oracle_P(a, a)
    a, m = Fraction(a), Fraction(m)
    return oracle_TP(a, m - a, m, m)


# -- family exponents, point by point ------------------------------------------
#
# The exponent of every catalog family at an int point p, in plain Fraction
# arithmetic.  The builders state the same sums as terms over linear forms,
# so a term written wrong there disagrees with these at some point.

def _suffix_sums(vals):
    """out[j] = vals[j] + vals[j+1] + ... + vals[-1]."""
    return [sum(vals[j:]) for j in range(len(vals))]


def _sq(vals):
    return sum(v * v for v in vals)


def _tri(n):
    return Fraction(n * (n - 1), 2)


def _tri1(n):
    return Fraction(n * (n + 1), 2)


def _ag(nv, i, c=1):
    """c * (sum_j N_j^2 + sum_{j >= i} N_j) over the suffix sums N of nv."""
    N = _suffix_sums(nv)
    return c * (_sq(N) + sum(N[i - 1:]))


def _and_exp(k, a, nv):
    N = _suffix_sums(nv)
    if a % 2 == k % 2:
        return _sq(N) + 2 * sum(N[a - 1:k - 2:2])
    return _sq(N) + sum(nv[j - 1] for j in range(1, a - 2, 2)) + \
        sum(N[a - 2:])


def _warnaar(k, i, p):
    N = _suffix_sums(p)
    return Fraction(_sq(N), 2) + sum(N[i - 1::2])


def _corgen13(k, i, p):
    m, nv = p[0], p[1:]
    return Fraction(m * m, 2) + m * nv[-1] + (i is None) * m + _ag(nv, i or 1)


def _gen15(minus):
    def exponent(k, i, p):
        m, n11, n12 = p[:3]
        n1 = n11 + n12
        return _tri1(m) + m * n11 + n11 * n11 + n12 * n12 - p[minus] - \
            _tri(n1) + _ag((n1,) + p[3:], i)
    return exponent


def _bressoud1980(k, i, p):
    N = _suffix_sums(p)
    return _sq(N) - sum(N[:i])


# family name -> exponent(k, i, p)
FAMILY_EXPONENTS = {
    "AG": lambda k, i, p: _ag(p, i),
    "Bressoud": lambda k, i, p: _ag(p, i),
    "Warnaar": _warnaar,
    "thm1.1": lambda k, i, p: _ag(p, i),
    "thm1.2": lambda k, i, p: _ag(p, 1),
    "corgen13": _corgen13,
    "corgen13last": _corgen13,
    "gen5-8a": lambda k, i, p:
        _tri1(p[0]) + p[0] * p[1] + _ag(p[1:], i, 2),
    "gen5-8b": lambda k, i, p:
        _tri1(p[0]) + p[0] * p[-1] + _ag(p[1:], i, 2),
    "gen1": lambda k, i, p:
        _tri1(p[0]) + p[0] * p[1] + 2 * _tri1(p[1]) + 2 * p[1] * p[2] +
        _ag(p[2:], i, 4),
    "gen6": lambda k, i, p:
        _tri1(p[0]) + p[0] * (p[1] + 2 * p[2]) + _tri(p[1]) +
        _ag((p[1] + 2 * p[2],) + p[3:], i, 2),
    "gen7": lambda k, i, p:
        _tri1(p[0]) + p[0] * p[2] + 2 * _tri1(p[1]) + 2 * p[1] * p[2] +
        _ag(p[2:], i, 4),
    "gen10": lambda k, i, p:
        _tri(p[0]) + _tri1(p[0] + 2 * p[1]) + (p[0] + 2 * p[1]) * p[2] +
        _ag(p[2:], i, 2),
    "gen14": lambda k, i, p:
        _tri(p[k - 1]) + _ag(p[:k - 1] + (p[k - 1] + 2 * p[k],), i),
    "gen17": lambda k, i, p:
        _tri(p[0]) + _ag((p[0] + 2 * p[1],) + p[2:], i),
    "gen15a": _gen15(1),
    "gen15b": _gen15(2),
    "Bressoud1980": _bressoud1980,
    "And1": lambda k, a, p: _and_exp(k, a, p),
    "And2": lambda k, a, p: _and_exp(k, a, p),
    "exam9gen": lambda k, a, p:
        2 * _tri(p[0]) + _and_exp(k, a, (p[0] + 2 * p[1],) + p[2:]),
}
