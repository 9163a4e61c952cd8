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

Coefficients are stored in one form, integer numerators over their least
common denominator d with gcd(d, *numerators) = 1 (FLINT's fmpq_poly form),
so an integral series has d = 1.  Every kernel loop runs on these ints and
reduces its result once.  :func:`dot`, a sum of products, convolves every
pair into one accumulator over the lcm of the pairs' d and reduces once,
with no series additions; a product is the one-pair :func:`dot`, so the
convolution loop is written once, and a product with the exact unit 1 is
the other factor itself.  Rational coefficients enter through the
QSeries constructor and leave through ``terms``.  The packed form that the
symbol passes, the product fold and the lattice walk run on is here too.

No floating point is used anywhere in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Callable, NamedTuple, Optional, Union

Scalar = Union[int, Fraction]
ExpLike = Union[int, Fraction]

DEFAULT_D = 4


class LatticeError(ValueError):
    """An exponent left the (1/D)-lattice, or two D-contexts were mixed."""


class TruncationError(ValueError):
    """Data past a series' validity order was requested."""


def exp_num(e: ExpLike, den: int) -> int:
    """Convert an exponent to its integer numerator in units of 1/den."""
    if den < 1:
        raise LatticeError(f"lattice denominator must be at least 1, "
                           f"got {den}")
    f = e if isinstance(e, (int, Fraction)) else Fraction(e)
    num, rem = divmod(f.numerator * den, f.denominator)
    if rem:
        raise LatticeError(f"exponent {e} is not on the (1/{den})-lattice")
    return num


def nonneg_order(order: ExpLike) -> Fraction:
    """order as a Fraction; a negative order or a zero denominator is a
    ValueError."""
    try:
        value = order if isinstance(order, Fraction) else Fraction(order)
    except ZeroDivisionError:
        raise ValueError(f"order has a zero denominator: {order}") from None
    if value.numerator < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    return value


def _scalar(c: int, d: int) -> Scalar:
    """c/d as an int when integral, else as a Fraction."""
    return c // d if not c % d else Fraction(c, d)


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
        c = Fraction(coeff)
        c = c.numerator if c.denominator == 1 else c
        object.__setattr__(self, "coeff", c)
        object.__setattr__(self, "exp", Fraction(exp))

    def __neg__(self) -> "Monomial":
        return Monomial(-self.coeff, self.exp)

    def __mul__(self, other: "Monomial") -> "Monomial":
        return Monomial(self.coeff * other.coeff, self.exp + other.exp)


def qmono(e: ExpLike, coeff: Scalar = 1) -> Monomial:
    """Shorthand for coeff * q**e."""
    return Monomial(coeff, e)


class QSeries:
    """Sparse truncated series; immutable by convention after construction.

    ``nums`` maps exponent numerators (units of 1/den) to nonzero int
    numerators over ``d``, the coefficients' least common denominator, so
    that gcd(d, *nums.values()) is 1; ``terms`` derives the rational
    coefficients from them.  ``order_num`` is the largest exponent
    numerator at which the coefficients are guaranteed, or None for an
    exact polynomial.  Rational coefficients come in through the
    constructor, integer numerators through :meth:`_of`; both reduce
    through :meth:`_set`.
    """

    __slots__ = ("den", "order_num", "nums", "d")

    def __init__(self, den: int = DEFAULT_D,
                 terms: Optional[dict[int, Scalar]] = None,
                 order_num: Optional[int] = None):
        items = terms.items() if terms else ()
        d = lcm(*(c.denominator for _, c in items))
        self._set(den, {n: c.numerator * (d // c.denominator)
                        for n, c in items}, d, order_num, None)

    @classmethod
    def _of(cls, den: int, nums: dict[int, int], d: int,
            order_num: Optional[int], onum: Optional[int] = None):
        """The series nums/d, without its terms past onum if given."""
        s = cls.__new__(cls)
        s._set(den, nums, d, order_num, onum)
        return s

    def _set(self, den: int, nums: dict[int, int], d: int,
             order_num: Optional[int], onum: Optional[int]) -> None:
        """Store nums/d in lowest terms: zeros and the terms past onum
        dropped, and the gcd divided out."""
        if den < 1:
            raise LatticeError(f"lattice denominator must be at least 1, "
                               f"got {den}")
        nums = {n: c for n, c in nums.items()
                if c and (onum is None or n <= onum)}
        g = gcd(d, *nums.values()) if d != 1 else 1
        if g != 1:
            nums, d = {n: c // g for n, c in nums.items()}, d // g
        self.den, self.order_num, self.nums, self.d = den, order_num, nums, d

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
        """Build from (exponent, coefficient) pairs given in q-units,
        dropping those past the order."""
        onum = None if order is None else exp_num(order, den)
        terms: dict[int, Scalar] = {}
        for e, c in pairs:
            n = exp_num(e, den)
            if onum is None or n <= onum:
                terms[n] = terms.get(n, 0) + c
        return cls(den, terms, onum)

    # -- inspection ----------------------------------------------------------

    @property
    def terms(self) -> dict[int, Scalar]:
        """A new dict of the coefficients, each an int or, when not
        integral, a Fraction."""
        return {n: _scalar(c, self.d) for n, c in self.nums.items()}

    @property
    def is_zero(self) -> bool:
        return not self.nums

    @property
    def min_num(self) -> Optional[int]:
        return min(self.nums) if self.nums else None

    def coeff_num(self, n: int) -> Scalar:
        if self.order_num is not None and n > self.order_num:
            raise TruncationError(
                f"coefficient at {Fraction(n, self.den)} is beyond order "
                f"{Fraction(self.order_num, self.den)}")
        return _scalar(self.nums.get(n, 0), self.d)

    def __repr__(self) -> str:
        parts = []
        for n, c in sorted(self.terms.items())[:8]:
            e = Fraction(n, self.den)
            parts.append(f"{c}*q^{e}" if e else str(c))
        if len(self.nums) > 8:
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
                and self.d == other.d and self.nums == other.nums)

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
        d = lcm(self.d, other.d)
        sa, sb = d // self.d, d // other.d
        nums = {n: c * sa for n, c in self.nums.items()}
        get = nums.get
        for n, c in other.nums.items():
            nums[n] = get(n, 0) + c * sb
        return QSeries._of(self.den, nums, d, onum, onum)

    __radd__ = __add__

    def __neg__(self) -> "QSeries":
        return QSeries._of(self.den, {n: -c for n, c in self.nums.items()},
                           self.d, self.order_num)

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
        for one, x in ((self, other), (other, self)):  # the exact unit 1
            if one.order_num is None and one.d == 1 and one.nums == {0: 1}:
                return x
        return dot(((self, other),), None, self.den)

    def __rmul__(self, other) -> "QSeries":
        return self.__mul__(other)

    def scale(self, c: Scalar) -> "QSeries":
        p = c.numerator
        return QSeries._of(self.den, {n: v * p for n, v in self.nums.items()},
                           self.d * c.denominator, self.order_num)

    def shift(self, num: int) -> "QSeries":
        """Multiply by q**(num/den)."""
        onum = None if self.order_num is None else self.order_num + num
        nums = {n + num: c for n, c in self.nums.items()}
        return QSeries._of(self.den, nums, self.d, onum)

    def truncated(self, order: ExpLike) -> "QSeries":
        onum = exp_num(order, self.den)
        if self.order_num is not None and onum > self.order_num:
            raise TruncationError(
                f"cannot extend validity from "
                f"{Fraction(self.order_num, self.den)} to {order}")
        return QSeries._of(self.den, self.nums, self.d, onum, onum)


def _promote(x, den: int) -> QSeries:
    if isinstance(x, QSeries):
        return x
    if isinstance(x, (int, Fraction)):
        return QSeries(den, {0: x}, None)
    if isinstance(x, Monomial):
        return QSeries(den, {exp_num(x.exp, den): x.coeff}, None)
    raise TypeError(f"cannot interpret {x!r} as a series")


def dot(pairs, onum: Optional[int], den: int) -> QSeries:
    """The sum of a * b over pairs, starting from QSeries(den, {}, onum),
    terms and validity alike, from one integer accumulator; a * b itself
    is the one pair ((a, b),) from onum None, or the other factor when
    one is the exact unit 1.

    Every pair's :func:`_mul_order` lowers the validity, even with an empty
    truncated operand, and every row stops there.  Each product of
    numerators is scaled to D = lcm(a.d * b.d) and the sum is reduced over
    D once; one pair is its own D, so nothing is rescaled.
    """
    parts = []
    for a, b in pairs:
        for s in (a, b):
            if s.den != den:
                raise LatticeError(f"mixing lattices 1/{s.den} and 1/{den}")
        onum = _min_order(onum, _mul_order(a, b))
        if a.nums and b.nums:
            x, y = sorted(a.nums.items()), sorted(b.nums.items())
            parts.append((a.d * b.d, x, y) if len(x) <= len(y)
                         else (a.d * b.d, y, x))
    big = parts[0][0] if len(parts) == 1 else lcm(*(d for d, _, _ in parts))
    out: dict[int, int] = {}
    get = out.get
    for d, x, y in parts:
        if d != big:  # scale the shorter operand up to the common D
            s = big // d
            x = [(n, c * s) for n, c in x]
        # the shorter operand drives; each row stops past the validity
        top = x[-1][0] + y[-1][0] if onum is None else onum
        for n1, c1 in x:
            lim = top - n1
            for n2, c2 in y:
                if n2 > lim:
                    break
                n = n1 + n2
                out[n] = get(n, 0) + c1 * c2
    return QSeries._of(den, out, big, onum)


def _min_order(a: Optional[int], b: Optional[int]) -> Optional[int]:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _mul_order(a: QSeries, b: QSeries) -> Optional[int]:
    """Sound truncation for a product (:func:`_mul_valid`); the valuation
    of an empty truncated series is conservatively its order."""
    va, vb = (s.min_num if s.nums else s.order_num for s in (a, b))
    return _mul_valid(a.order_num, va, b.order_num, vb)


def _mul_valid(oa: Optional[int], va: Optional[int], ob: Optional[int],
               vb: Optional[int]) -> Optional[int]:
    """The validity of a product of factors valid to oa and ob (None when
    exact) with valuations va and vb (None for an exact zero): unknown terms
    of one factor first pollute it at its order + the other's valuation."""
    return min((o + v for o, v in ((oa, vb), (ob, va))
                if o is not None and v is not None), default=None)


# -- spec-level operations ---------------------------------------------------

def monomial_series(m: Monomial, order: Optional[ExpLike] = None,
                    den: int = DEFAULT_D) -> QSeries:
    """A one-term series, dropped if the exponent is beyond the order."""
    return QSeries.from_terms(((m.exp, m.coeff),), den, order)


def mul_one_minus(a: QSeries, c: Scalar, num: int) -> QSeries:
    """a * (1 - c q^(num/den)) in one pass over a's terms.

    The exponent numerator `num` may have any sign.  Unknown terms of a
    first pollute the product at a's order + min(num, 0); an exact a gives
    an exact product.
    """
    onum = None if a.order_num is None else a.order_num + min(num, 0)
    p, r = c.numerator, c.denominator
    out = {n: v * r for n, v in a.nums.items()}
    get = out.get
    for n, v in a.nums.items():
        t = n + num
        out[t] = get(t, 0) - p * v
    return QSeries._of(a.den, out, a.d * r, onum, onum)


def mul_inv_one_minus(a: QSeries, m: Monomial,
                      order: ExpLike) -> QSeries:
    """a / (1 - m) to `order` (or a's), i.e. a times the geometric series of
    m, which must have positive exponent.

    The cumulative recurrence out[n] = a[n] + c * out[n - step] runs in
    O(order/step) per populated residue class, for m = c q^(step/den).  With
    c = p/r, A a's numerators and top the most steps a class takes, it runs
    on y = out * a.d * r^top: y[n] = A[n] r^top + p y[n - step] / r, exact.
    """
    c, step = m.coeff, exp_num(m.exp, a.den)
    onum = exp_num(order, a.den)
    if step <= 0:
        raise ValueError("geometric factor needs a positive exponent")
    if a.order_num is not None:
        onum = min(onum, a.order_num)
    p, r = c.numerator, c.denominator
    get = a.nums.get
    out: dict[int, int] = {}
    starts: dict[int, int] = {}  # lowest exponent in each residue class
    for n in sorted(a.nums, reverse=True):
        starts[n % step] = n
    rtop = r ** max([(onum - n) // step for n in starts.values()] + [0])
    for start in starts.values():
        prev = 0
        for n in range(start, onum + 1, step):
            prev = get(n, 0) * rtop + p * prev // r
            out[n] = prev
    return QSeries._of(a.den, out, a.d * rtop, onum)


def invert_unit(a: QSeries, order: ExpLike) -> QSeries:
    """b with a*b = 1 up to order, after factoring out the lowest term c*q^e."""
    if a.is_zero:
        raise ValueError("cannot invert the zero series")
    den = a.den
    onum = exp_num(order, den)
    low = a.min_num
    if a.order_num is not None and a.order_num - 2 * low < onum:
        raise TruncationError(
            "operand is not valid far enough to invert to the requested order")
    # u = a / (c0 q^low) has constant term 1; invert by the usual recurrence.
    r0 = Fraction(a.d, a.nums[low])
    u_items = sorted((n - low, v * r0) for n, v in a.terms.items()
                     if n != low)
    inv: dict[int, Scalar] = {0: 1}
    if u_items:
        # 1/u lives on the lattice of u's exponents; step over it
        step = gcd(*(un for un, _ in u_items))
        get = inv.get
        for n in range(step, onum + low + 1, step):
            s: Scalar = 0
            for un, uc in u_items:
                if un > n:
                    break
                prev = get(n - un)
                if prev is not None:
                    s += uc * prev
            if s:
                inv[n] = -s
    return QSeries(den, {n - low: v * r0 for n, v in inv.items()
                         if n - low <= onum}, onum)


# -- packed series ---------------------------------------------------------
#
# A truncated integer series in x, held as one Python int (Kronecker
# substitution, D. Harvey, J. Symbolic Comput. 44 (2009)): slot s, `width`
# bits wide, holds the coefficient of x^s.  x -> 2^width is a ring map from
# Z[x]/(x^n) onto the integers modulo 2^(width*n), so masked shifted adds
# and products are exact, and a result with every coefficient below
# 2^(width-1) in size is read back with its signs.  The width is whole
# bytes, so slots move through bytes.  `_Slots` is packed once, decoded
# once, and in between cut, measured, re-laid out and multiplied as one int.

_SIGMA = [0]  # sigma(k), the sum of the divisors of k
_COLOURED: dict[int, list[int]] = {}  # r -> [p_r(0), p_r(1), ...]


def _coloured_partitions(r: int, n: int) -> int:
    """p_r(n), the number of r-coloured partitions of n >= 0, from
    n p_r(n) = r sum_(k=1..n) sigma(k) p_r(n-k).  Each r's table grows to
    the largest n asked for; none is built at import."""
    if len(_SIGMA) <= n:  # a divisor sieve, rebuilt to twice the length
        _SIGMA[:] = [0] * (2 * n + 1)
        for d in range(1, 2 * n + 1):
            _SIGMA[d::d] = [s + d for s in _SIGMA[d::d]]
    row = _COLOURED.setdefault(r, [1])
    for m in range(len(row), n + 1):
        row.append(r * sum(map(mul, _SIGMA[1:m + 1], reversed(row))) // m)
    return row[n]


def _slot_width(bound: int, r: int, depth: int) -> int:
    """Slot width for coefficients of size at most bound * p_r(max(depth,
    0)), p_r the r-coloured partition count: their bits, a sign bit and one
    to spare, in whole bytes.  A whole-byte width is the one contract of
    :func:`_pack` and :func:`_signed_slots`, which read slots as bytes."""
    size = bound * _coloured_partitions(r, max(depth, 0))
    return (size.bit_length() + 9) // 8 * 8


def _div_packed(p: int, shift: int, mask: int, c: int = 1) -> int:
    """p / (1 - c x^s) cut by mask, for shift = s slots in bits: p times
    (1 + c x^s)(1 + c^2 x^(2s))(1 + c^4 x^(4s))... until the stride passes
    the mask."""
    p &= mask
    end = mask.bit_length()
    while shift < end:
        p = (p + (p << shift) if c == 1 else p + c * (p << shift)) & mask
        shift, c = 2 * shift, c * c
    return p


def _pack(digits: list[int], width: int) -> int:
    """sum digits[s] * 2^(width*s) for digits of either sign, width whole
    bytes (:func:`_slot_width`): each digit + 2^(width-1) is one unsigned
    slot of width/8 bytes and a bias takes them back, so a digit that does
    not fit its slot with a sign bit raises OverflowError, never carries."""
    half, k = 1 << (width - 1), width // 8
    bias = int.from_bytes(half.to_bytes(k, "little") * len(digits), "little")
    return int.from_bytes(b"".join((d + half).to_bytes(k, "little")
                                   for d in digits), "little") - bias


def _signed_slots(x: int, width: int, n: int) -> list[int]:
    """The n lowest slots d_s of x = sum d_s 2^(width*s), lowest first, each
    with |d_s| < 2^(width-1), width whole bytes (:func:`_slot_width`): a
    bias of 2^(width-1) per slot absorbs every borrow, so each slot is read
    as an unsigned digit of width/8 bytes."""
    half, k, m = 1 << (width - 1), width // 8, (1 << width * n) - 1
    bias = int.from_bytes(half.to_bytes(k, "little") * n, "little")
    b = ((x + bias) & m).to_bytes(k * n, "little")
    return [int.from_bytes(b[i:i + k], "little") - half
            for i in range(0, k * n, k)]


class _Slots(NamedTuple):
    """A series as one int x = sum_s digit_s 2^(w*s) over n slots, digit s
    d times the coefficient at exponent numerator low + g*s, valid to
    `valid`, each digit in [-2^(w-1), 2^(w-1)).  A nonempty one has a
    nonzero first digit (one term has g = 0), so `low` is its valuation, and
    x is the exact signed sum; :meth:`series` reads x modulo 2^(w*n), so
    `nahm` hands its masked accumulator in as it is."""

    den: int
    x: int
    w: int
    n: int
    low: int
    g: int
    d: int
    valid: Optional[int]

    @classmethod
    def of(cls, s: QSeries) -> "_Slots":
        """s packed once, in the least whole-byte width."""
        low = min(s.nums, default=0)
        g = gcd(*(n - low for n in s.nums))
        n = (max(s.nums) - low) // (g or 1) + 1 if s.nums else 0
        digits = [s.nums.get(low + g * i, 0) for i in range(n)]
        w = (max(map(abs, digits), default=0).bit_length() + 8) // 8 * 8
        return cls(s.den, _pack(digits, w), w, n, low, g, s.d, s.order_num)

    def series(self) -> QSeries:
        """Digit s over d at its exponent, decoded once; none past `valid`."""
        nums = {self.low + self.g * s: v for s, v in
                enumerate(_signed_slots(self.x, self.w, self.n)) if v}
        return QSeries._of(self.den, nums, self.d, self.valid, self.valid)

    def cut(self, valid: Optional[int]) -> "_Slots":
        """The slots through `valid`, valid to it (None keeps them all)."""
        n = self.n if valid is None else max(
            min(self.n, (valid - self.low) // (self.g or 1) + 1), 0)
        x, top = self.x, 1 << self.w * n
        if n < self.n:  # the least absolute residue of the slots kept
            x &= top - 1
            x -= top if n and x >= top >> 1 else 0
        return _Slots(self.den, x, self.w, n, self.low, self.g, self.d, valid)

    def bits(self) -> int:
        """The least whole-byte width b that holds every slot, by binary
        search, with no decode: every digit is in [-2^(b-1), 2^(b-1)) iff
        x plus 2^(b-1) in each slot has no bit set from b up in any slot."""
        w, lo, hi = self.w, 8, self.w
        ones = int.from_bytes((b"\x01" + bytes(w // 8 - 1)) * self.n, "little")
        while lo < hi:
            b = (lo + hi) // 16 * 8
            clear = not (self.x + (ones << b - 1)) & (ones << w) - (ones << b)
            lo, hi = (lo, b) if clear else (b + 8, hi)
        return hi

    def relayout(self, W: int, stride: int) -> int:
        """x with slot s moved to slot stride*s of a W-bit layout, W whole
        bytes that hold every slot: each slot, biased to be unsigned, is
        copied byte by byte (``out[j::W/8*stride] = ub[j::w/8]``, in C)."""
        if self.n < 2 or W == self.w and stride == 1:
            return self.x
        k, n, step = self.w // 8, self.n, W // 8 * stride
        c = min(k, W // 8)  # the bytes that carry a slot in both layouts
        half = (1 << 8 * c - 1).to_bytes(c, "little")
        ub = (self.x + int.from_bytes((half + bytes(k - c)) * n, "little")
              ).to_bytes(k * n, "little")
        out = bytearray(step * (n - 1) + c)
        for j in range(c):
            out[j::step] = ub[j::k]
        return int.from_bytes(out, "little") - int.from_bytes(
            (half + bytes(step - c)) * (n - 1) + half, "little")

    def times(self, y: "_Slots", bx: int, by: int) -> "_Slots":
        """self * y, their slots held in bx and by bits (:meth:`bits`): one
        multiply of both re-laid out to g = gcd of their g and a width W,
        cut to :func:`_mul_valid` (an empty operand's valuation is its
        validity).  W is certified: a product slot sums at most min(n_x,
        n_y) products of two digits, so its size is at most min(n_x, n_y)
        2^(bx-1) 2^(by-1)."""
        valid = _mul_valid(self.valid, self.low if self.n else self.valid,
                           y.valid, y.low if y.n else y.valid)
        for one, other in ((self, y), (y, self)):  # a zero or the unit 1
            if not one.n or one.x == one.n == one.d == 1 and one.low == 0:
                return (other if one.n else one).cut(valid)
        g = gcd(self.g, y.g)
        W = _slot_width(min(self.n, y.n) << (bx + by - 2), 0, 0)
        sx, sy = self.g // (g or 1) or 1, y.g // (g or 1) or 1
        return _Slots(self.den, self.relayout(W, sx) * y.relayout(W, sy), W,
                      (self.n - 1) * sx + (y.n - 1) * sy + 1, self.low + y.low,
                      g, self.d * y.d, None).cut(valid)


def substitute_power(a: QSeries, k: ExpLike) -> QSeries:
    """Replace q by q**k; every scaled exponent must stay on the lattice."""
    k = Fraction(k)
    if k <= 0:
        raise ValueError("substitution power must be positive")
    kn, kd = k.numerator, k.denominator
    nums: dict[int, int] = {}
    for n, c in a.nums.items():
        s, rem = divmod(n * kn, kd)
        if rem:
            raise LatticeError(
                f"exponent {Fraction(n, a.den)}*{k} leaves the lattice")
        nums[s] = c
    onum = a.order_num
    if onum is not None:
        onum = (onum * kn) // kd
    return QSeries._of(a.den, nums, a.d, onum)


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
    an, bn, ad, bd = a.nums, b.nums, a.d, b.d
    for n in sorted(an.keys() | bn.keys()):
        if n > onum:
            break
        ca, cb = an.get(n, 0), bn.get(n, 0)
        if ca * bd != cb * ad:
            return Mismatch(Fraction(n, a.den), _scalar(ca, ad),
                            _scalar(cb, bd))
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
    order = nonneg_order(order)
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
    lines, d = [f"order {onum}/{a.den}"], a.d
    for n, c in sorted(a.nums.items()):
        if n > onum:
            break
        lines.append(f"{n}/{a.den} {c if d == 1 else _scalar(c, d)}")
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
        terms[int(n_s)] = Fraction(c_s)
    return QSeries(den, terms, int(onum_s))

