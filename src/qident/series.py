"""Truncated formal power series in q**(1/D) with exact rational coefficients.

Every quantity in this package is ultimately a :class:`QSeries`: a sparse map
from lattice exponents to rational coefficients, together with a truncation
order up to which the coefficients are guaranteed correct.  Exponents live on
the lattice (1/D)*Z for a fixed positive integer D (default 4, which is fine
enough for the half- and quarter-integer powers that show up in theta
arguments).  Internally an exponent is stored as its integer numerator in
units of 1/D; the public entry points accept ints or Fractions and convert.

A series whose ``order_num`` is None is *exact*: a polynomial (or the zero
series) known at every exponent.  Binary operations propagate the tightest
sound truncation, so exactness survives polynomial arithmetic and decays only
when a genuinely truncated object (an infinite product, a Nahm sum, ...)
enters the computation.

No floating point is used anywhere in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple, Optional, Union

Scalar = Union[int, Fraction]
ExpLike = Union[int, Fraction]

DEFAULT_D = 4


class LatticeError(ValueError):
    """An exponent left the (1/D)-lattice, or two D-contexts were mixed."""


class TruncationError(ValueError):
    """Data past a series' validity order was requested."""


def exp_num(e: ExpLike, den: int) -> int:
    """Convert an exponent to its integer numerator in units of 1/den."""
    scaled = Fraction(e) * den
    if scaled.denominator != 1:
        raise LatticeError(f"exponent {e} is not on the (1/{den})-lattice")
    return scaled.numerator


def _clean(c: Scalar) -> Scalar:
    """Collapse integral Fractions to int so coefficient dicts stay cheap."""
    if isinstance(c, Fraction) and c.denominator == 1:
        return c.numerator
    return c


class Mismatch(NamedTuple):
    """Smallest exponent where two series disagree, with both coefficients."""

    exponent: Fraction
    left: Scalar
    right: Scalar


@dataclass(frozen=True)
class Monomial:
    """c * q**e with rational coefficient and exponent.

    Monomials parameterize Pochhammer symbols and Bailey transforms.  The
    zero monomial is disallowed; absence of a factor is expressed by absence.
    """

    coeff: Scalar
    exp: Fraction

    def __init__(self, coeff: Scalar, exp: ExpLike):
        if coeff == 0:
            raise ValueError("zero monomial is not representable")
        object.__setattr__(self, "coeff", _clean(Fraction(coeff)))
        object.__setattr__(self, "exp", Fraction(exp))

    def __neg__(self) -> "Monomial":
        return Monomial(-self.coeff, self.exp)

    def __mul__(self, other: "Monomial") -> "Monomial":
        return Monomial(self.coeff * other.coeff, self.exp + other.exp)

    def scaled_exp(self, k: ExpLike) -> "Monomial":
        return Monomial(self.coeff, self.exp * Fraction(k))


def qmono(e: ExpLike, coeff: Scalar = 1) -> Monomial:
    """Shorthand for coeff * q**e."""
    return Monomial(coeff, e)


class QSeries:
    """Sparse truncated series; immutable by convention after construction.

    ``terms`` maps exponent numerators (units of 1/den) to nonzero rational
    coefficients.  ``order_num`` is the largest exponent numerator at which
    the coefficients are guaranteed, or None for an exact polynomial.
    """

    __slots__ = ("den", "order_num", "terms")

    def __init__(self, den: int = DEFAULT_D,
                 terms: Optional[dict[int, Scalar]] = None,
                 order_num: Optional[int] = None):
        self.den = den
        self.order_num = order_num
        self.terms = {} if terms is None else terms

    # -- construction helpers ------------------------------------------------

    @classmethod
    def zero(cls, den: int = DEFAULT_D) -> "QSeries":
        return cls(den, {}, None)

    @classmethod
    def one(cls, den: int = DEFAULT_D) -> "QSeries":
        return cls(den, {0: 1}, None)

    @classmethod
    def from_terms(cls, pairs, den: int = DEFAULT_D,
                   order: Optional[ExpLike] = None) -> "QSeries":
        """Build from (exponent, coefficient) pairs given in q-units."""
        onum = None if order is None else exp_num(order, den)
        terms: dict[int, Scalar] = {}
        for e, c in pairs:
            n = exp_num(e, den)
            if onum is not None and n > onum:
                continue
            c = _clean(Fraction(c) + Fraction(terms.get(n, 0)))
            if c == 0:
                terms.pop(n, None)
            else:
                terms[n] = c
        return cls(den, terms, onum)

    # -- inspection ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def min_num(self) -> Optional[int]:
        return min(self.terms) if self.terms else None

    def coeff_num(self, n: int) -> Scalar:
        if self.order_num is not None and n > self.order_num:
            raise TruncationError(
                f"coefficient at {Fraction(n, self.den)} is beyond order "
                f"{Fraction(self.order_num, self.den)}")
        return self.terms.get(n, 0)

    def items(self) -> Iterator[tuple[int, Scalar]]:
        return iter(sorted(self.terms.items()))

    def __repr__(self) -> str:
        parts = []
        for n, c in sorted(self.terms.items())[:8]:
            e = Fraction(n, self.den)
            parts.append(f"{c}*q^{e}" if e else str(c))
        if len(self.terms) > 8:
            parts.append("...")
        body = " + ".join(parts) if parts else "0"
        tail = "exact" if self.order_num is None else \
            f"O(q^{Fraction(self.order_num, self.den)})"
        return f"<QSeries {body} | {tail}>"

    def __eq__(self, other: object) -> bool:
        """Structural equality (same lattice, order and stored terms)."""
        if not isinstance(other, QSeries):
            return NotImplemented
        return (self.den == other.den and self.order_num == other.order_num
                and self.terms == other.terms)

    def __hash__(self):
        raise TypeError("QSeries is unhashable")

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "QSeries") -> None:
        if self.den != other.den:
            raise LatticeError(
                f"mixing lattices 1/{self.den} and 1/{other.den}")

    def __add__(self, other) -> "QSeries":
        other = _promote(other, self.den)
        self._check(other)
        onum = _min_order(self.order_num, other.order_num)
        terms = dict(self.terms)
        for n, c in other.terms.items():
            s = _clean(Fraction(terms.get(n, 0)) + Fraction(c))
            if s == 0:
                terms.pop(n, None)
            else:
                terms[n] = s
        if onum is not None:
            terms = {n: c for n, c in terms.items() if n <= onum}
        return QSeries(self.den, terms, onum)

    __radd__ = __add__

    def __neg__(self) -> "QSeries":
        return QSeries(self.den, {n: -c for n, c in self.terms.items()},
                       self.order_num)

    def __sub__(self, other) -> "QSeries":
        return self + (-_promote(other, self.den))

    def __rsub__(self, other) -> "QSeries":
        return _promote(other, self.den) - self

    def __mul__(self, other) -> "QSeries":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if isinstance(other, Monomial):
            return self.scale(other.coeff).shift(exp_num(other.exp, self.den))
        self._check(other)
        onum = _mul_order(self, other)
        out: dict[int, Scalar] = {}
        a = sorted(self.terms.items())
        b = sorted(other.terms.items())
        if len(a) > len(b):
            a, b = b, a
        for n1, c1 in a:
            for n2, c2 in b:
                n = n1 + n2
                if onum is not None and n > onum:
                    break
                s = _clean(Fraction(out.get(n, 0)) + Fraction(c1) * c2)
                if s == 0:
                    out.pop(n, None)
                else:
                    out[n] = s
        return QSeries(self.den, out, onum)

    def __rmul__(self, other) -> "QSeries":
        return self.__mul__(other)

    def scale(self, c: Scalar) -> "QSeries":
        if c == 0:
            return QSeries(self.den, {}, self.order_num)
        c = _clean(Fraction(c))
        return QSeries(self.den,
                       {n: _clean(Fraction(v) * c)
                        for n, v in self.terms.items()},
                       self.order_num)

    def shift(self, num: int) -> "QSeries":
        """Multiply by q**(num/den)."""
        onum = None if self.order_num is None else self.order_num + num
        return QSeries(self.den, {n + num: c for n, c in self.terms.items()},
                       onum)

    def truncated(self, order: ExpLike) -> "QSeries":
        onum = exp_num(order, self.den)
        if self.order_num is not None and onum > self.order_num:
            raise TruncationError(
                f"cannot extend validity from "
                f"{Fraction(self.order_num, self.den)} to {order}")
        return QSeries(self.den,
                       {n: c for n, c in self.terms.items() if n <= onum},
                       onum)


def _promote(x, den: int) -> QSeries:
    if isinstance(x, QSeries):
        return x
    if isinstance(x, (int, Fraction)):
        return QSeries(den, {0: _clean(Fraction(x))} if x else {}, None)
    if isinstance(x, Monomial):
        return QSeries(den, {exp_num(x.exp, den): x.coeff}, None)
    raise TypeError(f"cannot interpret {x!r} as a series")


def _min_order(a: Optional[int], b: Optional[int]) -> Optional[int]:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _mul_order(a: QSeries, b: QSeries) -> Optional[int]:
    """Sound truncation for a product.

    Unknown terms of one factor first pollute the product at
    order + (valuation of the other factor); an exact factor never does.
    The valuation of an empty truncated series is conservatively its order.
    """
    cands = []
    if a.order_num is not None:
        vb = b.min_num if b.terms else b.order_num
        if vb is not None:
            cands.append(a.order_num + vb)
    if b.order_num is not None:
        va = a.min_num if a.terms else a.order_num
        if va is not None:
            cands.append(b.order_num + va)
    return min(cands) if cands else None


# -- spec-level operations ---------------------------------------------------

def monomial_series(m: Monomial, order: Optional[ExpLike] = None,
                    den: int = DEFAULT_D) -> QSeries:
    """A one-term series, dropped if the exponent is beyond the order."""
    n = exp_num(m.exp, den)
    onum = None if order is None else exp_num(order, den)
    terms = {n: m.coeff} if (onum is None or n <= onum) else {}
    return QSeries(den, terms, onum)


def add(a: QSeries, b: QSeries) -> QSeries:
    return a + b


def mul(a: QSeries, b: QSeries) -> QSeries:
    return a * b


def mul_inv_one_minus(a: QSeries, m: Monomial,
                      order: ExpLike) -> QSeries:
    """a / (1 - m), i.e. multiply by the geometric series of monomial m.

    The cumulative recurrence out[e] = a[e] + c * out[e - step] runs in
    O(order/step) per populated residue class, which keeps Pochhammer tables
    cheap; m must have positive exponent.
    """
    den = a.den
    step = exp_num(m.exp, den)
    if step <= 0:
        raise ValueError("geometric factor needs a positive exponent")
    onum = exp_num(order, den)
    if a.order_num is not None:
        onum = min(onum, a.order_num)
    c = m.coeff
    out: dict[int, Scalar] = {}
    residues = {n % step for n in a.terms}
    for r in residues:
        prev: Scalar = 0
        for n in range(r, onum + 1, step):
            v = _clean(Fraction(a.terms.get(n, 0)) + Fraction(c) * prev)
            prev = v
            if v != 0:
                out[n] = v
    return QSeries(den, out, onum)


def invert_unit(a: QSeries, order: ExpLike) -> QSeries:
    """b with a*b = 1 up to order, after factoring out the lowest term c*q^e."""
    if a.is_zero:
        raise ValueError("cannot invert the zero series")
    den = a.den
    onum = exp_num(order, den)
    low = a.min_num
    c0 = a.terms[low]
    if a.order_num is not None and a.order_num - 2 * low < onum:
        raise TruncationError(
            "operand is not valid far enough to invert to the requested order")
    # u = a / (c0 q^low) has constant term 1; invert by the usual recurrence.
    u = {n - low: _clean(Fraction(v) / Fraction(c0))
         for n, v in a.terms.items() if n != low}
    span = onum + low
    inv: dict[int, Scalar] = {0: 1}
    if u:
        u_items = sorted(u.items())
        known = [0]
        for n in range(1, span + 1):
            s = Fraction(0)
            for un, uc in u_items:
                if un > n:
                    break
                prev = inv.get(n - un)
                if prev is not None:
                    s += Fraction(uc) * prev
            if s:
                inv[n] = _clean(-s)
    terms = {n - low: _clean(Fraction(v) / Fraction(c0))
             for n, v in inv.items() if n - low <= onum}
    return QSeries(den, terms, onum)


def substitute_power(a: QSeries, k: ExpLike) -> QSeries:
    """Replace q by q**k; every scaled exponent must stay on the lattice."""
    k = Fraction(k)
    if k <= 0:
        raise ValueError("substitution power must be positive")
    terms: dict[int, Scalar] = {}
    for n, c in a.terms.items():
        s = n * k
        if s.denominator != 1:
            raise LatticeError(
                f"exponent {Fraction(n, a.den)}*{k} leaves the lattice")
        terms[s.numerator] = c
    onum = a.order_num
    if onum is not None:
        onum = (onum * k.numerator) // k.denominator
    return QSeries(a.den, terms, onum)


def compare_up_to(a: QSeries, b: QSeries,
                  order: ExpLike) -> Optional[Mismatch]:
    """First mismatching exponent <= order, or None when the series agree."""
    a._check(b)
    onum = exp_num(order, a.den)
    for s in (a, b):
        if s.order_num is not None and s.order_num < onum:
            raise TruncationError(
                f"operand only valid to {Fraction(s.order_num, s.den)}, "
                f"compared at {order}")
    for n in sorted(set(a.terms) | set(b.terms)):
        if n > onum:
            break
        ca, cb = a.terms.get(n, 0), b.terms.get(n, 0)
        if ca != cb:
            return Mismatch(Fraction(n, a.den), ca, cb)
    return None


def equal_up_to(a: QSeries, b: QSeries, order: ExpLike) -> bool:
    return compare_up_to(a, b, order) is None


DEEPEN_ATTEMPTS = 4


def deepen_until_valid(build: Callable[[Fraction], QSeries], order: ExpLike,
                       den: int) -> QSeries:
    """First ``build(depth)`` that is valid through `order`.

    The depth starts at `order` and grows by each result's shortfall, for at
    most DEEPEN_ATTEMPTS calls; negative-valuation factors make a result
    valid below its requested depth.
    """
    order = Fraction(order)
    onum = exp_num(order, den)
    depth = order
    for _ in range(DEEPEN_ATTEMPTS):
        s = build(depth)
        if s.order_num is None or s.order_num >= onum:
            return s
        depth += Fraction(onum - s.order_num, den)
    raise TruncationError(f"could not reach order {order}")


def coefficient(a: QSeries, e: ExpLike) -> Scalar:
    return a.coeff_num(exp_num(e, a.den))


def dump(a: QSeries, order: Optional[ExpLike] = None) -> str:
    """Stable text form: header "order <num>/<D>", then ascending terms.

    Each term line is "<num>/<D> <coeff>" with the coefficient as an integer
    or num/den fraction.  Exact series require an explicit order.
    """
    if order is None:
        if a.order_num is None:
            raise ValueError("an exact series needs an explicit dump order")
        onum = a.order_num
    else:
        onum = exp_num(order, a.den)
        if a.order_num is not None and onum > a.order_num:
            raise TruncationError("dump order exceeds series validity")
    lines = [f"order {onum}/{a.den}"]
    for n, c in sorted(a.terms.items()):
        if n > onum:
            break
        lines.append(f"{n}/{a.den} {c}")
    return "\n".join(lines) + "\n"


def load_dump(text: str, den: int = DEFAULT_D) -> QSeries:
    """Inverse of :func:`dump` (used by tests and tooling)."""
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    head = lines[0].split()
    if head[0] != "order":
        raise ValueError("missing dump header")
    onum_s, d_s = head[1].split("/")
    d = int(d_s)
    if d != den:
        raise LatticeError(f"dump lattice 1/{d} does not match 1/{den}")
    terms: dict[int, Scalar] = {}
    for ln in lines[1:]:
        e_s, c_s = ln.split()
        n_s, d2_s = e_s.split("/")
        if int(d2_s) != d:
            raise LatticeError("inconsistent lattice inside dump")
        c = Fraction(c_s)
        terms[int(n_s)] = _clean(c)
    return QSeries(den, terms, int(onum_s))


_MONOMIAL_RE = None


def parse_monomial(text: str) -> Monomial:
    """Parse "q", "q^2", "q^(3/2)", "-q^(1/2)", "3*q^2", "2", "-1/2"."""
    global _MONOMIAL_RE
    if _MONOMIAL_RE is None:
        import re
        _MONOMIAL_RE = re.compile(
            r"^(?P<sign>[+-])?\s*"
            r"(?:(?P<coeff>\d+(?:/\d+)?)\s*\*?\s*)?"
            r"(?:(?P<q>q)(?:\^(?P<exp>-?\d+|\(-?\d+(?:/\d+)?\)))?)?$")
    m = _MONOMIAL_RE.match(text.strip())
    if not m or (m.group("coeff") is None and m.group("q") is None):
        raise ValueError(f"cannot parse monomial {text!r}")
    coeff = Fraction(m.group("coeff") or 1)
    if m.group("sign") == "-":
        coeff = -coeff
    exp = Fraction(0)
    if m.group("q"):
        raw = m.group("exp")
        exp = Fraction(raw.strip("()")) if raw else Fraction(1)
    return Monomial(coeff, exp)
