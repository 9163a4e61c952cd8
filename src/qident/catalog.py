"""Identity database and uniform verify pipeline.

Fixed records live in a small text format (documented next to the data in
``catalog-grammar.ebnf``): each ``[identity <id>]`` section carries either a
quadruple (A, b, d, optional c) or a generic multi-sum description (vars, a
quadratic exponent expression, per-index Pochhammer bases, optional per-point
prefactor polynomial, optional finite Pochhammer factors), plus a
product-quotient right-hand side.  Both forms load as one
:class:`MultiSumSpec` (a quadruple through :func:`nahm_spec`), and a form no
enumeration box can bound is rejected when the catalog loads.  An optional
``route`` key names, as a transform chain, the Bailey pair a record's
reduced sum comes from.

Parameterized families are generated in code.  Each builder registers
itself in :data:`FAMILIES` where it is written (``@_family(name, domain)``,
over a shared parameter domain where one fits) and turns (k, i) into a
concrete :class:`Identity`; families that differ only by a parameter share
one builder.  A builder states its exponent as the reader's terms, each a
coefficient times at most two int linear forms, so a non-quadratic
exponent cannot be written; one function (:func:`_form`) sums the terms
of a family and of a parsed expression alike.

The same reader parses the transform chains of ``qident bailey`` and of
``route``, "SEED |> STEP |> STEP(params)" (:func:`parse_chain`,
:func:`run_chain`), so step parameters are spelled exactly like catalog
monomials.

Verification is truncation-sound: both sides are evaluated exactly to the
requested order and compared coefficient by coefficient.  A reduction
cross-check re-derives an identity's sum side through an independent
lower-rank route (index merge or index summation, found by
:func:`reduce_rank` on the record's spec, and for a record with a ``route``
also that chain's limit identity) and demands that every series agree.
"""

from __future__ import annotations

import hashlib
import re
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from importlib import resources
from math import lcm
from typing import Callable, Optional, Sequence, Union

from qident.series import (
    DEFAULT_D,
    ExpLike,
    Mismatch,
    Monomial,
    QSeries,
    compare_up_to,
    dump,
    nonneg_order,
    substitute_power,
)
from qident.products import (
    NP,
    P,
    TP,
    J,
    ProductExpr,
    eval_product,
    eval_product_sum,
)
from qident.nahm import (
    AffineForm,
    MultiSumSpec,
    PochFactor,
    eval_reduction,
    lattice_bound,
    multi_sum,
    nahm_spec,
    reduce_rank,
)
from qident.bailey import (
    TRANSFORMS,
    BaileyPair,
    TransformStep,
    builtin_pair,
    chain as _bailey_chain,
    limit_identity,
)

HALF = Fraction(1, 2)

Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]
# a declared name as int coefficients of the summation variables
IntVector = tuple[int, ...]


# -- the reader ----------------------------------------------------------------

def _units(k: int) -> tuple[IntVector, ...]:
    """The k unit vectors of ints."""
    return tuple(tuple(int(t == a) for t in range(k)) for a in range(k))


def _plus(u: IntVector, v: IntVector, c: int = 1) -> IntVector:
    return tuple(x + c * y for x, y in zip(u, v))


def _suffix(vs: Sequence[IntVector]) -> list[IntVector]:
    """Suffix sums: out[j] = vs[j] + vs[j+1] + ... + vs[-1]."""
    out = list(vs)
    for j in range(len(out) - 2, -1, -1):
        out[j] = _plus(out[j], out[j + 1])
    return out


def _symbol_table(names: Sequence[str]) -> dict[str, IntVector]:
    """Each declared name maps to its unit vector of ints; when the declared
    names contain a consecutive block n1..nk, the suffix partial sums N1..Nk
    are added as derived symbols (Nj = nj + ... + nk)."""
    units = _units(len(names))
    sym: dict[str, IntVector] = {}
    for idx, nm in enumerate(names):
        if not nm or not nm[0].isalpha() or not nm.isalnum():
            raise ValueError(f"bad variable name {nm!r}")
        if nm in sym:
            raise ValueError(f"duplicate variable name {nm!r}")
        sym[nm] = units[idx]
    block = {}
    for idx, nm in enumerate(names):
        m = re.fullmatch(r"n(\d+)", nm)
        if m:
            block[int(m.group(1))] = idx
    if block and sorted(block) == list(range(1, len(block) + 1)):
        big = _suffix([units[block[j]] for j in range(1, len(block) + 1)])
        for j, vec in enumerate(big, 1):
            sym.setdefault(f"N{j}", vec)
    return sym


# A polynomial term: coeff times the product of at most two int linear forms.
_Term = tuple[Union[int, Fraction], list[IntVector]]


def _form(k: int, terms: Sequence[_Term]) -> tuple[list[list[Fraction]],
                                                   list[Fraction], Fraction]:
    """The sum of terms over k variables as (quad, lin, const) with
    value(x) = (1/2) x^T quad x + lin.x + const.  The terms are summed as
    int numerators over the lcm d of their coefficients' denominators, and
    each entry becomes a Fraction once, at the end."""
    d = lcm(*(c.denominator for c, _ in terms))
    quad = [[0] * k for _ in range(k)]
    lin = [0] * k
    const = 0
    for coeff, vecs in terms:
        c = coeff.numerator * (d // coeff.denominator)
        if not vecs:
            const += c
        elif len(vecs) == 1:
            lin = [l + c * x for l, x in zip(lin, vecs[0])]
        else:
            u, v = vecs
            for a, x in enumerate(u):
                if x:
                    for b, y in enumerate(v):
                        if y:
                            quad[a][b] += c * x * y
                            quad[b][a] += c * x * y
    zero = Fraction(0)

    def exact(n: int) -> Fraction:
        return Fraction(n, d) if n else zero
    return ([[exact(n) for n in row] for row in quad],
            [exact(n) for n in lin], exact(const))


# Whitespace separates tokens and is otherwise skipped; the last alternative
# catches any character no rule accepts.
_TOKEN_RE = re.compile(
    r'(\d+)|([A-Za-z][A-Za-z0-9_]*)|"([^"]*)"|(\|>|[][(),;*/^+-])|(\S)')
_TOKEN_KINDS = (None, "num", "name", "str", "sym", "bad")


def _tokenize(text: str) -> list[tuple]:
    toks: list[tuple] = []
    for m in _TOKEN_RE.finditer(text):
        kind = _TOKEN_KINDS[m.lastindex]
        val = m.group(m.lastindex)
        if kind == "bad":
            raise ValueError(f"unexpected character {val!r}")
        toks.append((kind, int(val) if kind == "num" else val))
    return toks


_SIGNS = (("sym", "+"), ("sym", "-"))


class _Reader:
    """Recursive descent over one token stream.

    Every catalog field value, and every expression inside a quoted field, is
    read by these rules; ``names`` are the summation variables that
    polynomial terms may use.
    """

    def __init__(self, text: str, names: Sequence[str] = ()):
        self.toks = _tokenize(text)
        self.i = 0
        self.k = len(names)
        self.sym = _symbol_table(names)
        self.longest_first = sorted(self.sym, key=len, reverse=True)

    # -- tokens ----------------------------------------------------------------

    def peek(self, ahead: int = 0) -> tuple:
        j = self.i + ahead
        return self.toks[j] if j < len(self.toks) else ("end", "")

    def advance(self) -> tuple:
        t = self.peek()
        if t[0] != "end":
            self.i += 1
        return t

    def fail(self, wanted: str) -> ValueError:
        t = self.peek()
        got = "the end" if t[0] == "end" else repr(t[1])
        return ValueError(f"expected {wanted}, got {got}")

    def accept(self, ch: str) -> bool:
        if self.peek() == ("sym", ch):
            self.i += 1
            return True
        return False

    def expect(self, ch: str) -> None:
        if not self.accept(ch):
            raise self.fail(repr(ch))

    def take(self, kind: str, wanted: str):
        t = self.peek()
        if t[0] != kind:
            raise self.fail(wanted)
        self.i += 1
        return t[1]

    def word(self, w: str) -> None:
        if self.peek() != ("name", w):
            raise self.fail(repr(w))
        self.i += 1

    def end(self) -> None:
        if self.peek()[0] != "end":
            raise self.fail("the end")

    # -- shared rules ----------------------------------------------------------

    def integer(self) -> int:
        return self.take("num", "an integer")

    def name(self) -> str:
        return self.take("name", "a name")

    def string(self) -> str:
        return self.take("str", "a quoted string")

    def ratio(self) -> Fraction:
        """int or int/int."""
        val = Fraction(self.integer())
        if self.accept("/"):
            den = self.integer()
            if den == 0:
                raise ValueError("zero denominator")
            val /= den
        return val

    def rational(self) -> Fraction:
        """A ratio with an optional leading minus."""
        return -self.ratio() if self.accept("-") else self.ratio()

    def qpower(self) -> Fraction:
        """The exponent of q, q^k, q^-k or q^(rational)."""
        self.word("q")
        if not self.accept("^"):
            return Fraction(1)
        if self.accept("("):
            e = self.rational()
            self.expect(")")
            return e
        return Fraction(-self.integer() if self.accept("-") else self.integer())

    def monomial(self) -> Monomial:
        """[-] [ratio [*]] q-power, or [-] ratio."""
        sign = -1 if self.accept("-") else 1
        if self.peek()[0] != "num":
            return Monomial(sign, self.qpower())
        coeff = sign * self.ratio()
        self.accept("*")
        if self.peek() != ("name", "q"):
            return Monomial(coeff, 0)
        return Monomial(coeff, self.qpower())

    def items(self, rule: Callable[[], object]) -> tuple:
        out = [rule()]
        while self.accept(","):
            out.append(rule())
        return tuple(out)

    def bracketed(self, rule: Callable[[], object]) -> tuple:
        self.expect("[")
        out = self.items(rule)
        self.expect("]")
        return out

    def names(self) -> tuple[str, ...]:
        """A comma list of names, possibly empty."""
        return () if self.peek()[0] == "end" else self.items(self.name)

    # -- polynomials -----------------------------------------------------------

    def signs(self) -> int:
        sign = 1
        while self.peek() in _SIGNS:
            if self.advance()[1] == "-":
                sign = -sign
        return sign

    def factors(self, word: str) -> list[IntVector]:
        """A run of juxtaposed declared names, longest name first."""
        out, i = [], 0
        while i < len(word):
            nm = next((s for s in self.longest_first
                       if word.startswith(s, i)), None)
            if nm is None:
                raise ValueError(f"unknown name {word[i:]!r}")
            out.append(self.sym[nm])
            i += len(nm)
        return out

    def term(self, cap: int) -> tuple[Fraction, list[IntVector]]:
        """[coeff [*]] {name [^2]} of degree at most cap; coeff is an int,
        int/int or a parenthesized rational."""
        coeff = None
        if self.accept("("):
            coeff = self.rational()
            self.expect(")")
        elif self.peek()[0] == "num":
            coeff = self.ratio()
        if coeff is not None:
            self.accept("*")
        vecs: list[IntVector] = []
        while self.peek()[0] == "name":
            vecs.extend(self.factors(self.advance()[1]))
            if self.accept("^"):
                if self.integer() != 2:
                    raise ValueError("only squares are allowed in terms")
                vecs.append(vecs[-1])
        if coeff is None and not vecs:
            raise self.fail("a term")
        if len(vecs) > cap:
            raise ValueError(f"term of degree above {cap}")
        return (Fraction(1) if coeff is None else coeff), vecs

    def poly(self, cap: int) -> tuple[list[list[Fraction]], list[Fraction],
                                      Fraction]:
        """Signed terms of degree at most cap, as :func:`_form` sums them."""
        terms = []
        while True:
            sign = self.signs()
            coeff, vecs = self.term(cap)
            terms.append((coeff if sign > 0 else -coeff, vecs))
            if self.peek() not in _SIGNS:
                break
        return _form(self.k, terms)

    def affine(self) -> AffineForm:
        _, lin, const = self.poly(1)
        return AffineForm(const, lin)

    def prefactor(self) -> tuple[tuple[Union[int, Fraction], AffineForm], ...]:
        """Monomials c, q^(affine) or c*q^(affine), joined by +."""
        entries = []
        while True:
            coeff: Union[int, Fraction] = 1
            form = None
            if self.peek()[0] == "num":
                c = self.ratio()
                coeff = c.numerator if c.denominator == 1 else c
                self.accept("*")
                if self.peek() != ("name", "q"):
                    form = AffineForm(0, [0] * self.k)
            if form is None:
                self.word("q")
                self.expect("^")
                self.expect("(")
                form = self.affine()
                self.expect(")")
            entries.append((coeff, form))
            if not self.accept("+"):
                return tuple(entries)

    def extra(self) -> PochFactor:
        """pochf(arg; q-power; affine), or 1/pochf(...) for the inverse."""
        power = 1
        if self.peek() == ("num", 1) and self.peek(1) == ("sym", "/"):
            self.i += 2
            power = -1
        self.word("pochf")
        self.expect("(")
        arg = self.monomial()
        self.expect(";")
        base = self.qpower()
        self.expect(";")
        length = self.affine()
        self.expect(")")
        return PochFactor(arg, base, length, power)

    # -- product quotients -----------------------------------------------------

    def rhs(self) -> tuple[ProductExpr, ...]:
        if self.peek() == ("sym", "["):
            return self.bracketed(self.expr)
        return (self.expr(),)

    def expr(self) -> ProductExpr:
        node = self.factor()
        while self.peek() in (("sym", "*"), ("sym", "/")):
            op = self.advance()[1]
            rhs = self.factor()
            node = node * rhs if op == "*" else node / rhs
        return node

    def factor(self) -> ProductExpr:
        t = self.peek()
        if t[0] == "num":
            self.i += 1
            node = ProductExpr((), (Monomial(t[1], 0),))
        elif t == ("sym", "(") and self.peek(1) == ("num", 1) \
                and self.peek(2) == ("sym", "+"):
            # (1 + q-power) as a polynomial prefactor
            self.i += 3
            node = ProductExpr((), (Monomial(1, 0),
                                    Monomial(1, self.qpower())))
            self.expect(")")
        elif self.accept("("):
            node = self.expr()
            self.expect(")")
        elif t[0] == "name":
            node = self.atom()
        else:
            raise self.fail("a product factor")
        while self.accept("^"):
            node = node ** self.integer()
        return node

    def atom(self) -> ProductExpr:
        name = self.name()
        self.expect("(")
        args = [self.rational()]
        while self.accept(",") or self.accept(";"):
            args.append(self.rational())
        self.expect(")")
        if name == "P" and len(args) == 2:
            return P(*args)
        if name == "NP" and len(args) == 2:
            return NP(*args)
        if name == "TP" and len(args) == 4:
            return TP(*args)
        if name == "J" and len(args) in (1, 2):
            return J(*args)
        raise ValueError(f"unknown product atom {name} with {len(args)} argument(s)")

    # -- transform chains ------------------------------------------------------

    def chain(self) -> tuple[str, tuple[TransformStep, ...]]:
        """seed {|> step}; a step is a transform name, in any case, with an
        optional parenthesized list of monomials."""
        seed = self.name()
        if self.accept("*"):
            seed += "*"
        steps = []
        while self.accept("|>"):
            word = self.name()
            kind = word.upper()
            kind = "DJK_LIMIT" if kind == "DJKLIM" else kind
            if kind not in TRANSFORMS:
                raise ValueError(f"unknown transform {word!r}")
            params: tuple[Monomial, ...] = ()
            if self.accept("(") and not self.accept(")"):
                params = self.items(self.monomial)
                self.expect(")")
            arity = TRANSFORMS[kind][0]
            if len(params) != arity:
                raise ValueError(f"{word.upper()} takes {arity} parameter(s), "
                                 f"got {len(params)}")
            steps.append(TransformStep(kind, params))
        return seed, tuple(steps)


def _read(text: str, rule: Callable[[_Reader], object],
          names: Sequence[str] = ()):
    """Apply one rule to the whole of text."""
    reader = _Reader(text, names)
    out = rule(reader)
    reader.end()
    return out


def parse_exponent(text: str, names: Sequence[str]) -> tuple[Matrix, Vector, Fraction]:
    """Quadratic-affine expression over the declared names.

    Terms are joined by + or -; each term is an optional coefficient (an
    integer, a ratio like 1/2, or a parenthesized rational like (1/2),
    optionally followed by *) and up to two name factors, juxtaposition
    meaning product and ^2 meaning the square.  Returns (quad, lin, const)
    with the symmetric-matrix convention
    exponent(x) = (1/2) x^T quad x + lin.x + const.
    """
    quad, lin, const = _read(text, lambda r: r.poly(2), names)
    return tuple(tuple(row) for row in quad), tuple(lin), const


def parse_affine(text: str, names: Sequence[str]) -> AffineForm:
    """Degree-1 expression in the same term grammar as exponents.
    Partial-sum names Nj are resolved."""
    return _read(text, _Reader.affine, names)


def parse_prefactor(text: str, names: Sequence[str]
                    ) -> tuple[tuple[Union[int, Fraction], AffineForm], ...]:
    """Sum of monomials c, q^(affine) or c*q^(affine), joined by +."""
    return _read(text, _Reader.prefactor, names)


def parse_extra(text: str, names: Sequence[str]) -> PochFactor:
    """pochf(arg; q^base; length) or 1/pochf(...) for the inverted factor."""
    return _read(text, _Reader.extra, names)


def parse_rhs(text: str) -> tuple[ProductExpr, ...]:
    """One product quotient, or a bracketed list summed term by term."""
    return _read(text, _Reader.rhs)


def parse_chain(text: str) -> tuple[str, tuple[TransformStep, ...]]:
    """A chain expression "SEED |> STEP |> STEP(params)"; the seed is not
    looked up here, and step parameters are monomials."""
    return _read(text, _Reader.chain)


def run_chain(text: str) -> BaileyPair:
    """Parse a chain expression and fold it from its built-in seed."""
    seed, steps = parse_chain(text)
    return _bailey_chain(builtin_pair(seed), steps)


# -- identity records ----------------------------------------------------------

@dataclass(frozen=True)
class Identity:
    """One verifiable sum-equals-product statement.

    ``spec`` is the sum side, whichever form the record was given in.
    ``base_substitution`` = k >= 1 records that the stored display lives in
    q**k of a finer-base statement; verification evaluates it as stored.
    ``route``, a parsed transform chain (seed, steps), names the Bailey pair
    whose limit identity, taken in that finer base and mapped back by
    q -> q**k, the record's reduced sum is (see
    :meth:`Catalog.cross_check_reduction`).
    """

    id: str
    spec: MultiSumSpec
    rhs: tuple[ProductExpr, ...]
    tags: tuple[str, ...] = ()
    base_substitution: int = 1
    route: Optional[tuple[str, tuple[TransformStep, ...]]] = None


_HEADER_RE = re.compile(r"^\[identity\s+(.+?)\]$")

_COMMON_KEYS = {"lhs.kind": True, "rhs": True, "tags": False,
                "base_substitution": False, "route": False}

# The keys a record of each lhs.kind accepts, each marked required or not.
RECORD_KEYS: dict[str, dict[str, bool]] = {
    "nahm": {**_COMMON_KEYS, "A": True, "b": True, "c": False, "d": True},
    "multisum": {**_COMMON_KEYS, "vars": True, "exponent": True,
                 "denoms": True, "prefactor": False, "extra": False},
}


def _build_record(rid: str, rec: dict[str, str]) -> Identity:
    kind = rec.get("lhs.kind")
    keys = RECORD_KEYS.get(kind)
    if keys is None:
        raise ValueError("lhs.kind must be nahm or multisum")
    for key in rec:
        if key not in keys:
            if any(key in ks for ks in RECORD_KEYS.values()):
                raise ValueError(f"key {key!r} does not apply to "
                                 f"lhs.kind = {kind}")
            raise ValueError(f"unknown key {key!r}")
    for key, required in keys.items():
        if required and key not in rec:
            raise ValueError(f"missing key {key!r}")

    def field(key: str, rule: Callable[[_Reader], object], default=None):
        if key not in rec:
            return default
        try:
            return _read(rec[key], rule)
        except ValueError as exc:
            raise ValueError(f"{key}: {exc}") from None

    def checked_chain(r: _Reader) -> tuple[str, tuple[TransformStep, ...]]:
        seed, steps = parse_chain(r.string())
        builtin_pair(seed)  # an unknown seed fails here
        return seed, steps

    tags = field("tags", _Reader.names, ())
    base = field("base_substitution", _Reader.integer, 1)
    if base < 1:
        raise ValueError(f"base_substitution: must be at least 1, got {base}")
    route = field("route", checked_chain)
    rhs = field("rhs", lambda r: parse_rhs(r.string()))
    if kind == "nahm":
        spec = nahm_spec(
            field("A", lambda r: r.bracketed(lambda: r.bracketed(r.rational))),
            field("b", lambda r: r.bracketed(r.rational)),
            field("c", _Reader.rational, 0),
            field("d", lambda r: r.bracketed(r.integer)))
        return Identity(rid, spec, rhs, tags, base, route)
    names = field("vars", _Reader.names)
    qm, lin, const = field(
        "exponent", lambda r: parse_exponent(r.string(), names))
    denoms = field("denoms", lambda r: r.bracketed(r.qpower))
    if any(x <= 0 or x.denominator != 1 for x in denoms):
        raise ValueError("denoms: bases must be positive integer powers of q")
    if len(denoms) != len(names):
        raise ValueError(f"{len(names)} vars but {len(denoms)} denominators")
    pf = field("prefactor", lambda r: parse_prefactor(r.string(), names), ())
    extra = field("extra", lambda r: tuple(parse_extra(s, names)
                                           for s in r.bracketed(r.string)), ())
    spec = MultiSumSpec(names=names, quad=qm, lin=lin, denoms=denoms,
                        const=const, extra=extra, prefactor=pf)
    return Identity(rid, spec, rhs, tags, base, route)


def parse_catalog_text(text: str) -> dict[str, Identity]:
    records: list[tuple[str, dict[str, str]]] = []
    cur: Optional[dict[str, str]] = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _HEADER_RE.match(line)
        if m:
            cur = {}
            records.append((m.group(1).strip(), cur))
            continue
        if cur is None:
            raise ValueError(f"field outside any [identity] section: {line!r}")
        if "=" not in line:
            raise ValueError(f"cannot parse catalog line {line!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        if key in cur:
            raise ValueError(f"record {records[-1][0]}: repeated key {key!r}")
        cur[key] = val
    out: dict[str, Identity] = {}
    for rid, rec in records:
        if rid in out:
            raise ValueError(f"duplicate identity id {rid!r}")
        try:
            out[rid] = _build_record(rid, rec)
        except ValueError as exc:
            raise ValueError(f"record {rid}: {exc}") from None
    return out


# -- reports -------------------------------------------------------------------

@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one sum-versus-product comparison."""

    id: str
    order: Fraction
    den: int
    equal: bool
    first_mismatch: Optional[Mismatch]
    lhs_digest: str
    rhs_digest: str
    box: tuple[int, ...]
    lhs_terms: int
    rhs_terms: int
    wall_time: float

    @property
    def status(self) -> str:
        return "PASS" if self.equal else "FAIL"


@dataclass(frozen=True)
class ReductionReport:
    """Three-way agreement: direct enumeration, reduced route, product side."""

    id: str
    route: str  # "merge" | "euler" | "bailey"
    removed: tuple[str, ...]
    order: Fraction
    equal: bool
    first_mismatch: Optional[Mismatch]


def _digest(series: QSeries, order: Fraction) -> str:
    return hashlib.sha256(dump(series, order).encode()).hexdigest()


# -- family generators ---------------------------------------------------------

def _spec(names: Sequence[str], terms: Sequence[_Term],
          denoms: Sequence[int], extra=()) -> MultiSumSpec:
    """A family's sum side, its exponent the sum of terms over names."""
    quad, lin, const = _form(len(names), terms)
    return MultiSumSpec(
        names=tuple(names),
        quad=tuple(tuple(row) for row in quad),
        lin=tuple(lin),
        denoms=tuple(Fraction(x) for x in denoms),
        const=const,
        extra=tuple(extra),
    )


# Term builders over int linear forms; c scales every term.

def _sq(vs: Sequence[IntVector], c: ExpLike = 1) -> list[_Term]:
    """c * sum of v^2 over vs."""
    return [(c, [v, v]) for v in vs]


def _one(vs: Sequence[IntVector], c: ExpLike = 1) -> list[_Term]:
    """c * sum of vs."""
    return [(c, [v]) for v in vs]


def _cross(u: IntVector, v: IntVector, c: ExpLike = 1) -> list[_Term]:
    return [(c, [u, v])]


def _tri(v: IntVector, c: ExpLike = 1) -> list[_Term]:
    """c * v(v-1)/2."""
    return _sq([v], c * HALF) + _one([v], -c * HALF)


def _tri1(v: IntVector, c: ExpLike = 1) -> list[_Term]:
    """c * v(v+1)/2."""
    return _sq([v], c * HALF) + _one([v], c * HALF)


def _nvars(k: int, start: int = 1) -> tuple[str, ...]:
    return tuple(f"n{t}" for t in range(start, k + 1))


def _ag(nv: Sequence[IntVector], i: int, c: int = 1) -> list[_Term]:
    """The Andrews-Gordon tail c * (sum_j N_j^2 + sum_{j >= i} N_j) over the
    suffix sums N of nv."""
    N = _suffix(nv)
    return _sq(N, c) + _one(N[i - 1:], c)


def _theta(ci: ExpLike, mod: ExpLike, head: ProductExpr = ProductExpr(),
           base: int = 1) -> ProductExpr:
    """head * (q^ci, q^(mod-ci), q^mod; q^mod)_inf / (q^base; q^base)_inf."""
    return head * TP(ci, mod - ci, mod, mod) / P(base, base)


# What a family builder returns: the sum side and one product quotient or a
# tuple of them summed term by term.
_Built = tuple[MultiSumSpec, Union[ProductExpr, tuple[ProductExpr, ...]]]


@dataclass(frozen=True)
class FamilyGenerator:
    """A parameterized identity family with an explicit parameter domain.

    ``i_values(k)`` lists the allowed second parameters, or is ``(None,)``
    for a family that takes only k; ``build(k, i)`` returns (spec, rhs).
    """

    name: str
    k_min: int
    domain: str
    i_values: Callable[[int], tuple[Optional[int], ...]]
    build: Callable[[int, Optional[int]], _Built]

    def instantiate(self, k: int, i: Optional[int] = None) -> Identity:
        k = int(k)
        if k < self.k_min:
            raise ValueError(
                f"{self.name}: k must be at least {self.k_min} ({self.domain})")
        allowed = self.i_values(k)
        if None in allowed:
            if i is not None:
                raise ValueError(f"{self.name} takes only k ({self.domain})")
            label = f"{self.name}({k})"
        else:
            if i is None:
                raise ValueError(f"{self.name} takes two parameters "
                                 f"({self.domain})")
            i = int(i)
            if i not in allowed:
                raise ValueError(
                    f"{self.name}: second parameter {i} is outside the "
                    f"stated range for k={k} ({self.domain})")
            label = f"{self.name}({k},{i})"
        spec, rhs = self.build(k, i)
        return Identity(id=label, spec=spec,
                        rhs=rhs if isinstance(rhs, tuple) else (rhs,),
                        tags=(self.name,))


FAMILIES: dict[str, FamilyGenerator] = {}

# A parameter domain: (least k, its statement, the allowed i for each k).
_Domain = tuple[int, str, Callable[[int], tuple[Optional[int], ...]]]
_I_TO_K: _Domain = (2, "k >= 2, 1 <= i <= k",
                    lambda k: tuple(range(1, k + 1)))
_I_TO_K1: _Domain = (1, "k >= 1, 1 <= i <= k+1",
                     lambda k: tuple(range(1, k + 2)))
_K_ONLY: _Domain = (1, "k >= 1", lambda k: (None,))


def _family(name: str, domain: _Domain):
    """Register the decorated builder as family `name` over `domain`.
    Stacked registrations run bottom-up: the lowest is listed first."""
    def register(build):
        FAMILIES[name] = FamilyGenerator(name, *domain, build)
        return build
    return register


@_family("AG", _I_TO_K)
def _build_ag(k: int, i: int) -> _Built:
    spec = _spec(_nvars(k - 1), _ag(_units(k - 1), i), (1,) * (k - 1))
    return spec, _theta(i, 2 * k + 1)


@_family("Bressoud", _I_TO_K)
def _build_bressoud(k: int, i: int) -> _Built:
    spec = _spec(_nvars(k - 1), _ag(_units(k - 1), i), (1,) * (k - 2) + (2,))
    return spec, _theta(i, 2 * k)


@_family("Warnaar", _I_TO_K)
def _build_warnaar(k: int, i: int) -> _Built:
    N = _suffix(_units(k))
    spec = _spec(_nvars(k), _sq(N, HALF) + _one(N[i - 1::2]),
                 (1,) * (k - 1) + (2,))
    return spec, _theta(Fraction(i, 2), Fraction(2 * k + 3, 2), NP(HALF, 1))


# thm1.2 and corgen13last take no i: each is its family's i = 1 sum, changed
# as noted, against the product at i = 1/2.

@_family("thm1.2", _K_ONLY)
@_family("thm1.1", _I_TO_K1)
def _build_thm1(k: int, i: Optional[int]) -> _Built:
    # thm1.2's extra factor is one longer
    extra = (PochFactor(Monomial(-1, HALF), Fraction(1),
                        AffineForm(int(i is None), _units(k)[-1]), -1),)
    spec = _spec(_nvars(k), _ag(_units(k), i or 1), (1,) * (k - 1) + (2,),
                 extra=extra)
    return spec, _theta(i or HALF, Fraction(3, 2) + 2 * k)


@_family("corgen13last", _K_ONLY)
@_family("corgen13", _I_TO_K1)
def _build_corgen13(k: int, i: Optional[int]) -> _Built:
    m, *nv = _units(k + 1)
    # corgen13last adds m
    terms = _sq([m], HALF) + _cross(m, nv[-1]) + _one([m], int(i is None)) \
        + _ag(nv, i or 1)
    spec = _spec(("m",) + _nvars(k), terms, (1,) * k + (2,))
    return spec, _theta(i or HALF, Fraction(3, 2) + 2 * k, NP(HALF, 1))


@_family("gen5-8a", _I_TO_K1)
def _build_gen58a(k: int, i: int) -> _Built:
    m, *nv = _units(k + 1)
    spec = _spec(("m",) + _nvars(k),
                 _tri1(m) + _cross(m, nv[0]) + _ag(nv, i, 2),
                 (1, 1) + (2,) * (k - 1))
    return spec, _theta(2 * i, 4 * k + 6)


@_family("gen5-8b", _I_TO_K1)
def _build_gen58b(k: int, i: int) -> _Built:
    m, *nv = _units(k + 1)
    spec = _spec(("m",) + _nvars(k),
                 _tri1(m) + _cross(m, nv[-1]) + _ag(nv, i, 2),
                 (1,) + (2,) * (k - 1) + (1,))
    return spec, _theta(2 * i, 4 * k + 6)


@_family("gen1", _I_TO_K1)
def _build_gen1(k: int, i: int) -> _Built:
    m1, m2, *nv = _units(k + 2)
    terms = _tri1(m1) + _cross(m1, m2) + _tri1(m2, 2) + \
        _cross(m2, nv[0], 2) + _ag(nv, i, 4)
    spec = _spec(("m1", "m2") + _nvars(k), terms, (1, 1, 2) + (4,) * (k - 1))
    return spec, _theta(4 * i, 8 * k + 12)


@_family("gen6", _I_TO_K1)
def _build_gen6(k: int, i: int) -> _Built:
    m, n11, n12, *rest = _units(k + 2)
    n1 = _plus(n11, n12, 2)
    terms = _tri1(m) + _cross(m, n1) + _tri(n11) + _ag([n1, *rest], i, 2)
    names = ("m", "n11", "n12") + _nvars(k, start=2)
    spec = _spec(names, terms, (1, 1, 2) + (2,) * (k - 1))
    return spec, _theta(2 * i, 4 * k + 6)


@_family("gen7", _I_TO_K1)
def _build_gen7(k: int, i: int) -> _Built:
    m1, m2, *nv = _units(k + 2)
    terms = _tri1(m1) + _cross(m1, nv[0]) + _tri1(m2, 2) + \
        _cross(m2, nv[0], 2) + _ag(nv, i, 4)
    spec = _spec(("m1", "m2") + _nvars(k), terms, (1, 2, 1) + (4,) * (k - 1))
    return spec, _theta(4 * i, 8 * k + 12)


@_family("gen10", _I_TO_K1)
def _build_gen10(k: int, i: int) -> _Built:
    m1, m2, *nv = _units(k + 2)
    s = _plus(m1, m2, 2)
    terms = _tri(m1) + _tri1(s) + _cross(s, nv[0]) + _ag(nv, i, 2)
    spec = _spec(("m1", "m2") + _nvars(k), terms, (1, 2, 1) + (2,) * (k - 1))
    return spec, _theta(2 * i, 4 * k + 6)


@_family("gen14", _I_TO_K1)
def _build_gen14(k: int, i: int) -> _Built:
    *nv, nk1, nk2 = _units(k + 1)
    terms = _tri(nk1) + _ag([*nv, _plus(nk1, nk2, 2)], i)
    spec = _spec(_nvars(k - 1) + ("nk1", "nk2"), terms, (1,) * k + (2,))
    return spec, _theta(i, 2 * k + 3)


@_family("gen17", _I_TO_K1)
def _build_gen17(k: int, i: int) -> _Built:
    n11, n12, *rest = _units(k + 1)
    terms = _tri(n11) + _ag([_plus(n11, n12, 2), *rest], i)
    spec = _spec(("n11", "n12") + _nvars(k, start=2), terms,
                 (1, 2) + (1,) * (k - 1))
    return spec, _theta(i, 2 * k + 3)


def _build_gen15(k: int, i: int, minus: int) -> _Built:
    units = _units(k + 2)
    m, n11, n12, *rest = units
    n1 = _plus(n11, n12)
    terms = _tri1(m) + _cross(m, n11) + _sq([n11, n12]) + \
        _one([units[minus]], -1) + _tri(n1, -1) + _ag([n1, *rest], i)
    names = ("m", "n11", "n12") + _nvars(k, start=2)
    spec = _spec(names, terms, (1, 1, 2) + (1,) * (k - 1))
    return spec, _theta(i, 2 * k + 3, NP(1, 1))


# gen15a subtracts n11, gen15b n12
_family("gen15a", _I_TO_K1)(partial(_build_gen15, minus=1))
_family("gen15b", _I_TO_K1)(partial(_build_gen15, minus=2))


@_family("Bressoud1980", (2, "k >= 2, 1 <= i <= k-1",
                          lambda k: tuple(range(1, k))))
def _build_bressoud1980(k: int, i: int) -> _Built:
    N = _suffix(_units(k - 1))
    spec = _spec(_nvars(k - 1), _sq(N) + _one(N[:i], -1),
                 (1,) * (k - 2) + (2,))
    rhs = tuple(TP(2 * k, k - i + 2 * m, k + i - 2 * m, 2 * k) / P(1, 1)
                for m in range(i + 1))
    return spec, rhs


def _and_exp(k: int, a: int, nv: Sequence[IntVector]) -> list[_Term]:
    """Andrews' exponent over nv = (n1, ..., n(k-1)); the first branch
    holds when a and k have the same parity."""
    N = _suffix(nv)
    if a % 2 == k % 2:
        return _sq(N) + _one(N[a - 1:k - 2:2], 2)
    # n1 + n3 + ... + n(a-3); a stop below 0 would wrap round
    return _sq(N) + _one(nv[0:max(a - 3, 0):2]) + _one(N[a - 2:])


def _and_rhs(k: int, a: int) -> ProductExpr:
    return _theta(a, 2 * k + 2, NP(1 if a % 2 == k % 2 else 2, 2), 2)


# And1's domain takes the first branch of _and_exp, And2's the second.
@_family("And2", (3, "k odd >= 3, a even, 2 <= a <= k",
                  lambda k: tuple(range(2, k + 1, 2)) if k % 2 else ()))
@_family("And1", (2, "k >= 2, 1 <= a <= k, a and k of equal parity",
                  lambda k: tuple(a for a in range(1, k + 1)
                                  if a % 2 == k % 2)))
def _build_and(k: int, a: int) -> _Built:
    spec = _spec(_nvars(k - 1), _and_exp(k, a, _units(k - 1)),
                 (2,) * (k - 1))
    return spec, _and_rhs(k, a)


@_family("exam9gen", (2, "k >= 2, 1 <= a <= k, a = k mod 2 or (k odd, a even)",
                      lambda k: tuple(a for a in range(1, k + 1)
                                      if a % 2 == k % 2
                                      or (k % 2 == 1 and a % 2 == 0))))
def _build_exam9gen(k: int, a: int) -> _Built:
    # Andrews' sum with n1 = n11 + 2 n12
    n11, n12, *rest = _units(k)
    terms = _tri(n11, 2) + _and_exp(k, a, [_plus(n11, n12, 2), *rest])
    spec = _spec(("n11", "n12") + _nvars(k - 1, start=2), terms,
                 (2, 4) + (2,) * (k - 2))
    return spec, _and_rhs(k, a)


# -- the catalog ---------------------------------------------------------------

_INSTANCE_RE = re.compile(r"(.+?)\s*\(\s*(\d+)\s*(?:,\s*(\d+)\s*)?\)\s*$")


def check_no_params(token: str, k: Optional[int], i: Optional[int]) -> None:
    """Refuse k and i for a token that is not a bare family name."""
    if k is not None or i is not None:
        raise ValueError(f"k and i parameters go only with a bare family "
                         f"name, not {token!r}")


class Catalog:
    """Read-only identity store: fixed records plus family generators."""

    def __init__(self, identities: dict[str, Identity]):
        self.identities = dict(identities)
        self.families = FAMILIES

    def ids(self) -> tuple[str, ...]:
        return tuple(sorted(self.identities))

    def get(self, rid: str) -> Identity:
        try:
            return self.identities[rid]
        except KeyError:
            raise KeyError(f"unknown identity {rid!r}") from None

    def list(self, tag: Optional[str] = None) -> list[str]:
        if tag is None:
            return sorted(self.identities) + sorted(self.families)
        return sorted(rid for rid, ident in self.identities.items()
                      if tag in ident.tags)

    def manifest(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for ident in self.identities.values():
            for tag in ident.tags:
                counts[tag] = counts.get(tag, 0) + 1
        return counts

    def instantiate_family(self, name: str, k: int,
                           i: Optional[int] = None) -> Identity:
        fam = self.families.get(name)
        if fam is None:
            raise KeyError(f"unknown family {name!r}")
        return fam.instantiate(k, i)

    def resolve(self, token: str, k: Optional[int] = None,
                i: Optional[int] = None) -> Identity:
        """Fixed id, family instance token like AG(3,2), or a bare family
        name with k (and i) parameters, the only token that takes them."""
        if token in self.families and token not in self.identities:
            if k is None:
                raise ValueError(f"family {token} needs a k parameter"
                                 f" ({self.families[token].domain})")
            return self.instantiate_family(token, k, i)
        check_no_params(token, k, i)
        if token in self.identities:
            return self.identities[token]
        m = _INSTANCE_RE.fullmatch(token)
        if m and m.group(1) in self.families:
            return self.instantiate_family(
                m.group(1), int(m.group(2)),
                int(m.group(3)) if m.group(3) else None)
        raise KeyError(f"unknown identity or family {token!r}")

    # -- verification ----------------------------------------------------------

    def verify(self, target: Union[str, Identity], order: ExpLike,
               den: int = DEFAULT_D) -> VerificationReport:
        ident = target if isinstance(target, Identity) else self.resolve(target)
        order = nonneg_order(order)
        start = time.perf_counter()
        lhs = multi_sum(ident.spec, order, den)
        rhs = eval_product_sum(ident.rhs, order, den)
        mismatch = compare_up_to(lhs, rhs, order)
        wall = time.perf_counter() - start
        return VerificationReport(
            id=ident.id,
            order=order,
            den=den,
            equal=mismatch is None,
            first_mismatch=mismatch,
            lhs_digest=_digest(lhs, order),
            rhs_digest=_digest(rhs, order),
            box=tuple(lattice_bound(ident.spec, order)),
            lhs_terms=len(lhs.nums),
            rhs_terms=len(rhs.nums),
            wall_time=wall,
        )

    def cross_check_reduction(self, target: Union[str, Identity],
                              order: ExpLike = 30,
                              den: int = DEFAULT_D) -> ReductionReport:
        """Re-verify one identity through an independent lower-rank route.

        The route is an index merge or an index summation
        (:func:`reduce_rank`).  A record with a ``route`` chain is also
        compared with that chain's limit identity: both limit sides, taken
        at order/k and mapped back by q -> q^k (k the record's
        ``base_substitution``), times the reduction's own prefactor.
        Raises LookupError when no reduction exists.
        """
        ident = target if isinstance(target, Identity) else self.resolve(target)
        order = nonneg_order(order)
        red = reduce_rank(ident.spec)
        if red is None:
            raise LookupError(f"no reduction route for {ident.id!r}")
        routes = [eval_reduction(red, order, den)]
        kind = red.kind
        if ident.route is not None:
            k = ident.base_substitution
            pair = _bailey_chain(builtin_pair(ident.route[0]), ident.route[1])
            routes += [eval_product(ProductExpr(red.prefactor), order, den,
                                    substitute_power(side, k))
                       for side in limit_identity(pair, order / k, den)]
            kind = "bailey"
        direct = multi_sum(ident.spec, order, den)
        mismatch = None
        for other in (*routes, eval_product_sum(ident.rhs, order, den)):
            mismatch = compare_up_to(direct, other, order)
            if mismatch is not None:
                break
        return ReductionReport(
            id=ident.id, route=kind, removed=red.removed, order=order,
            equal=mismatch is None, first_mismatch=mismatch)


def packaged_catalog_text() -> str:
    return resources.files("qident").joinpath(
        "data", "identities.cat").read_text(encoding="utf-8")


def load_catalog(path: Optional[str] = None) -> Catalog:
    """The packaged catalog, or records read from an explicit file path."""
    if path is None:
        text = packaged_catalog_text()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    return Catalog(parse_catalog_text(text))
