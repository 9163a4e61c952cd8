"""Identity database and uniform verify pipeline.

Fixed records live in a small text format (documented next to the data in
``catalog-grammar.ebnf``): each ``[identity <id>]`` section carries either a
quadruple (A, b, d, optional c) or a generic multi-sum description (vars, a
quadratic exponent expression, per-index Pochhammer bases, optional per-point
prefactor polynomial, optional finite Pochhammer factors), plus a
product-quotient right-hand side.  Parameterized families are generated in
code: a :class:`FamilyGenerator` turns (k, i) into a concrete
:class:`Identity` whose quadratic form is extracted from a plain Python
exponent function by exact finite differences, with randomized probes that
reject any non-quadratic function loudly.

Verification is truncation-sound: both sides are evaluated exactly to the
requested order and compared coefficient by coefficient.  A reduction
cross-check re-derives an identity's sum side through an independent
lower-rank route (index merge, index summation, or a transform-chain limit)
and demands three-way agreement.
"""

from __future__ import annotations

import hashlib
import random
import re
import time
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import Callable, Optional, Sequence, Union

from qident.series import (
    DEFAULT_D,
    ExpLike,
    Mismatch,
    Monomial,
    QSeries,
    compare_up_to,
    dump,
    parse_monomial,
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
    NahmQuadruple,
    PochFactor,
    check_symmetrizable,
    eval_reduction,
    lattice_bound,
    multi_sum,
    nahm_sum,
    quadruple_spec,
    reduce_rank,
)
from qident.bailey import S3, builtin_pair, chain as _bailey_chain, limit_identity

HALF = Fraction(1, 2)

Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]


# -- expression parsers --------------------------------------------------------

def _symbol_table(names: Sequence[str]) -> dict[str, Vector]:
    """Each declared name maps to its unit vector; when the declared names
    contain a consecutive block n1..nk, the suffix partial sums N1..Nk are
    added as derived symbols (Nj = nj + ... + nk)."""
    k = len(names)
    sym: dict[str, Vector] = {}
    for idx, nm in enumerate(names):
        if not nm or not nm[0].isalpha() or not nm.isalnum():
            raise ValueError(f"bad variable name {nm!r}")
        if nm in sym:
            raise ValueError(f"duplicate variable name {nm!r}")
        sym[nm] = tuple(Fraction(int(t == idx)) for t in range(k))
    block = {}
    for idx, nm in enumerate(names):
        m = re.fullmatch(r"n(\d+)", nm)
        if m:
            block[int(m.group(1))] = idx
    if block and sorted(block) == list(range(1, len(block) + 1)):
        for j in range(1, len(block) + 1):
            nm = f"N{j}"
            if nm in sym:
                continue
            vec = [Fraction(0)] * k
            for t in range(j, len(block) + 1):
                vec[block[t]] = Fraction(1)
            sym[nm] = tuple(vec)
    return sym


def _tokenize_names(text: str, i: int, symbols: Sequence[str]):
    for nm in symbols:
        if text.startswith(nm, i):
            return nm
    return None


def parse_exponent(text: str, names: Sequence[str]) -> tuple[Matrix, Vector, Fraction]:
    """Quadratic-affine expression over the declared names.

    Terms are joined by + or -; each term is an optional coefficient (an
    integer, or a parenthesized rational like (1/2)) followed by up to two
    name factors, juxtaposition meaning product and ^2 meaning the square.
    Returns (quad, lin, const) with the symmetric-matrix convention
    exponent(x) = (1/2) x^T quad x + lin.x + const.
    """
    sym = _symbol_table(names)
    ordered = sorted(sym, key=len, reverse=True)
    k = len(names)

    tokens: list[tuple] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "+-":
            tokens.append(("sign", ch))
            i += 1
        elif ch == "(":
            j = text.find(")", i)
            if j < 0:
                raise ValueError("unbalanced parenthesis in exponent")
            tokens.append(("coeff", Fraction(text[i + 1:j].strip())))
            i = j + 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("coeff", Fraction(text[i:j])))
            i = j
        else:
            nm = _tokenize_names(text, i, ordered)
            if nm is None:
                raise ValueError(f"unexpected character {ch!r} in exponent")
            i += len(nm)
            power = 1
            if text.startswith("^2", i):
                power = 2
                i += 2
            elif text.startswith("^", i):
                raise ValueError("only squares are allowed in exponents")
            tokens.append(("name", nm, power))

    quad = [[Fraction(0)] * k for _ in range(k)]
    lin = [Fraction(0)] * k
    const = Fraction(0)
    pos = 0
    first = True
    while pos < len(tokens):
        sign = Fraction(1)
        saw_sign = False
        while pos < len(tokens) and tokens[pos][0] == "sign":
            if tokens[pos][1] == "-":
                sign = -sign
            saw_sign = True
            pos += 1
        if pos >= len(tokens):
            raise ValueError("dangling sign in exponent")
        if not first and not saw_sign:
            raise ValueError("missing + or - between exponent terms")
        first = False
        coeff = sign
        if tokens[pos][0] == "coeff":
            coeff *= tokens[pos][1]
            pos += 1
        vecs: list[Vector] = []
        while pos < len(tokens) and tokens[pos][0] == "name":
            _, nm, power = tokens[pos]
            vecs.extend([sym[nm]] * power)
            pos += 1
        if len(vecs) > 2:
            raise ValueError("exponent term of degree above 2")
        if not vecs:
            const += coeff
        elif len(vecs) == 1:
            lin = [l + coeff * v for l, v in zip(lin, vecs[0])]
        else:
            u, v = vecs
            for a in range(k):
                for b in range(k):
                    quad[a][b] += coeff * (u[a] * v[b] + v[a] * u[b])
    return tuple(tuple(row) for row in quad), tuple(lin), const


_RAT_RE = re.compile(r"\d+(?:/\d+)?")


def parse_affine(text: str, names: Sequence[str]) -> AffineForm:
    """Degree-1 expression: terms rational, name, or rational*name (the *
    is optional), joined by + or -.  Partial-sum names Nj are resolved."""
    sym = _symbol_table(names)
    ordered = sorted(sym, key=len, reverse=True)
    k = len(names)
    const = Fraction(0)
    coeffs = [Fraction(0)] * k
    i = 0
    first = True
    while i < len(text):
        while i < len(text) and text[i].isspace():
            i += 1
        if i >= len(text):
            break
        sign = Fraction(1)
        saw_sign = False
        while i < len(text) and text[i] in "+-":
            if text[i] == "-":
                sign = -sign
            saw_sign = True
            i += 1
            while i < len(text) and text[i].isspace():
                i += 1
        if not first and not saw_sign:
            raise ValueError("missing + or - between affine terms")
        first = False
        m = _RAT_RE.match(text, i)
        coeff = sign
        if m:
            coeff *= Fraction(m.group(0))
            i = m.end()
            if i < len(text) and text[i] == "*":
                i += 1
        while i < len(text) and text[i].isspace():
            i += 1
        nm = _tokenize_names(text, i, ordered) if i < len(text) else None
        if nm is not None:
            i += len(nm)
            vec = sym[nm]
            for a in range(k):
                coeffs[a] += coeff * vec[a]
        elif m:
            const += coeff
        else:
            raise ValueError(f"cannot parse affine term near {text[i:]!r}")
    return AffineForm(const, coeffs)


def parse_prefactor(text: str, names: Sequence[str]
                    ) -> tuple[tuple[Union[int, Fraction], AffineForm], ...]:
    """Sum of monomials c, q^(affine) or c*q^(affine), joined by +."""
    k = len(names)
    entries = []
    i = 0
    n = len(text)
    while True:
        while i < n and text[i].isspace():
            i += 1
        coeff: Union[int, Fraction] = 1
        m = _RAT_RE.match(text, i)
        saw_coeff = False
        if m:
            c = Fraction(m.group(0))
            coeff = c.numerator if c.denominator == 1 else c
            i = m.end()
            saw_coeff = True
            while i < n and text[i].isspace():
                i += 1
            if i < n and text[i] == "*":
                i += 1
                while i < n and text[i].isspace():
                    i += 1
        if i < n and text[i] == "q":
            i += 1
            if not text.startswith("^(", i):
                raise ValueError("prefactor powers must be written q^(...)")
            j = text.find(")", i + 2)
            if j < 0:
                raise ValueError("unbalanced parenthesis in prefactor")
            form = parse_affine(text[i + 2:j], names)
            i = j + 1
        elif saw_coeff:
            form = AffineForm(0, [0] * k)
        else:
            raise ValueError(f"cannot parse prefactor near {text[i:]!r}")
        entries.append((coeff, form))
        while i < n and text[i].isspace():
            i += 1
        if i >= n:
            break
        if text[i] != "+":
            raise ValueError("prefactor monomials are joined by +")
        i += 1
    return tuple(entries)


_QPOW_RE = re.compile(r"^q(?:\^(\d+))?$")


def _parse_qpower(text: str) -> Fraction:
    m = _QPOW_RE.match(text.strip())
    if not m:
        raise ValueError(f"expected a power of q, got {text!r}")
    return Fraction(m.group(1) or 1)


def parse_extra(text: str, names: Sequence[str]) -> PochFactor:
    """pochf(arg; q^base; length) or 1/pochf(...) for the inverted factor."""
    t = text.strip()
    power = 1
    if t.startswith("1/"):
        power = -1
        t = t[2:].strip()
    m = re.fullmatch(r"pochf\((.*)\)", t, re.S)
    if not m:
        raise ValueError(f"cannot parse extra factor {text!r}")
    parts = m.group(1).split(";")
    if len(parts) != 3:
        raise ValueError("extra factors take arg; base; length")
    arg = parse_monomial(parts[0])
    base = _parse_qpower(parts[1])
    length = parse_affine(parts[2], names)
    return PochFactor(arg, base, length, power)


def _tokenize_rhs(text: str) -> list[tuple]:
    out: list[tuple] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            out.append(("num", int(text[i:j])))
            i = j
        elif ch.isalpha():
            j = i
            while j < len(text) and text[j].isalpha():
                j += 1
            out.append(("name", text[i:j]))
            i = j
        elif ch in "[](),;*/^+-":
            out.append(("sym", ch))
            i += 1
        else:
            raise ValueError(f"unexpected character {ch!r} in product expression")
    return out


class _RhsParser:
    """Recursive descent over product quotients of infinite Pochhammer atoms."""

    def __init__(self, text: str):
        self.toks = _tokenize_rhs(text)
        self.i = 0

    def peek(self, ahead: int = 0) -> tuple:
        j = self.i + ahead
        return self.toks[j] if j < len(self.toks) else ("end", "")

    def advance(self) -> tuple:
        t = self.peek()
        if t[0] != "end":
            self.i += 1
        return t

    def expect(self, ch: str) -> None:
        t = self.advance()
        if t != ("sym", ch):
            raise ValueError(f"expected {ch!r}, got {t[1]!r}")

    def rational(self) -> Fraction:
        neg = False
        if self.peek() == ("sym", "-"):
            self.advance()
            neg = True
        t = self.advance()
        if t[0] != "num":
            raise ValueError("expected a number")
        val = Fraction(t[1])
        if self.peek() == ("sym", "/") and self.peek(1)[0] == "num":
            self.advance()
            val /= Fraction(self.advance()[1])
        return -val if neg else val

    def value(self) -> tuple[ProductExpr, ...]:
        if self.peek() == ("sym", "["):
            self.advance()
            out = [self.expr()]
            while self.peek() == ("sym", ","):
                self.advance()
                out.append(self.expr())
            self.expect("]")
            result = tuple(out)
        else:
            result = (self.expr(),)
        if self.peek()[0] != "end":
            raise ValueError(f"trailing tokens after product expression")
        return result

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
            self.advance()
            node = ProductExpr((), (Monomial(t[1], 0),))
        elif t == ("sym", "("):
            if self.peek(1) == ("num", 1) and self.peek(2) == ("sym", "+"):
                node = self._one_plus()
            else:
                self.advance()
                node = self.expr()
                self.expect(")")
        elif t[0] == "name":
            node = self._atom()
        else:
            raise ValueError(f"unexpected token {t[1]!r} in product expression")
        while self.peek() == ("sym", "^"):
            self.advance()
            p = self.advance()
            if p[0] != "num":
                raise ValueError("powers take a plain integer")
            node = node ** p[1]
        return node

    def _one_plus(self) -> ProductExpr:
        # (1 + q^(r)) as a polynomial prefactor
        self.expect("(")
        if self.advance() != ("num", 1):
            raise ValueError("polynomial prefactors start with 1 +")
        self.expect("+")
        if self.advance() != ("name", "q"):
            raise ValueError("polynomial prefactors are of the form (1 + q^(r))")
        self.expect("^")
        self.expect("(")
        r = self.rational()
        self.expect(")")
        self.expect(")")
        return ProductExpr((), (Monomial(1, 0), Monomial(1, r)))

    def _atom(self) -> ProductExpr:
        name = self.advance()[1]
        self.expect("(")
        args = [self.rational()]
        while self.peek() in (("sym", ","), ("sym", ";")):
            self.advance()
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


def parse_rhs(text: str) -> tuple[ProductExpr, ...]:
    """One product quotient, or a bracketed list summed term by term."""
    return _RhsParser(text).value()


# -- identity records ----------------------------------------------------------

@dataclass(frozen=True)
class Identity:
    """One verifiable sum-equals-product statement.

    ``spec`` always holds the generic multi-sum view; ``quadruple`` is set in
    addition when the record was given in (A, b, c, d) form.
    ``base_substitution`` records that the stored display lives in q**k of a
    finer-base statement; it is metadata only, evaluation happens as stored.
    """

    id: str
    spec: MultiSumSpec
    rhs: tuple[ProductExpr, ...]
    tags: tuple[str, ...] = ()
    base_substitution: int = 1
    quadruple: Optional[NahmQuadruple] = None

    @property
    def lhs(self) -> Union[NahmQuadruple, MultiSumSpec]:
        return self.quadruple if self.quadruple is not None else self.spec


_HEADER_RE = re.compile(r"^\[identity\s+(.+?)\]$")


def _unquote(value: str) -> str:
    v = value.strip()
    if len(v) < 2 or v[0] != '"' or v[-1] != '"':
        raise ValueError(f"expected a quoted string, got {value!r}")
    return v[1:-1]


def _parse_vector(value: str) -> Vector:
    v = value.strip()
    if not (v.startswith("[") and v.endswith("]")):
        raise ValueError(f"expected a bracketed vector, got {value!r}")
    return tuple(Fraction(x.strip()) for x in v[1:-1].split(","))


def _parse_matrix(value: str) -> Matrix:
    v = value.strip()
    if not (v.startswith("[") and v.endswith("]")):
        raise ValueError(f"expected a bracketed matrix, got {value!r}")
    rows = re.findall(r"\[([^\[\]]*)\]", v[1:-1])
    if not rows:
        raise ValueError(f"empty matrix in {value!r}")
    return tuple(tuple(Fraction(x.strip()) for x in row.split(",")) for row in rows)


def _parse_denoms(value: str) -> tuple[Fraction, ...]:
    v = value.strip()
    if not (v.startswith("[") and v.endswith("]")):
        raise ValueError(f"expected bracketed denominators, got {value!r}")
    return tuple(_parse_qpower(x) for x in v[1:-1].split(","))


def _quoted_list(value: str) -> tuple[str, ...]:
    v = value.strip()
    if not (v.startswith("[") and v.endswith("]")):
        raise ValueError(f"expected a bracketed list, got {value!r}")
    return tuple(re.findall(r'"([^"]*)"', v))


def _build_record(rec: dict[str, str]) -> Identity:
    rid = rec["id"]
    kind = rec.get("lhs.kind", "")
    tags = tuple(s.strip() for s in rec.get("tags", "").split(",") if s.strip())
    base = int(rec.get("base_substitution", "1"))
    rhs = parse_rhs(_unquote(rec["rhs"]))
    if kind == "nahm":
        A = _parse_matrix(rec["A"])
        d_raw = _parse_vector(rec["d"])
        if any(x.denominator != 1 for x in d_raw):
            raise ValueError(f"record {rid}: d must be integral")
        d = tuple(int(x) for x in d_raw)
        b = _parse_vector(rec["b"])
        c = Fraction(rec.get("c", "0"))
        quad = NahmQuadruple(A, b, c, d)
        if not check_symmetrizable(quad.A, quad.d):
            raise ValueError(f"record {rid}: A*diag(d) is not symmetric "
                             f"positive definite")
        return Identity(rid, quadruple_spec(quad), rhs, tags, base, quad)
    if kind == "multisum":
        names = tuple(s.strip() for s in rec["vars"].split(","))
        qm, lin, const = parse_exponent(_unquote(rec["exponent"]), names)
        denoms = _parse_denoms(rec["denoms"])
        if len(denoms) != len(names):
            raise ValueError(f"record {rid}: {len(names)} vars but "
                             f"{len(denoms)} denominators")
        pf = parse_prefactor(_unquote(rec["prefactor"]), names) \
            if "prefactor" in rec else ()
        extra = tuple(parse_extra(s, names)
                      for s in _quoted_list(rec["extra"])) \
            if "extra" in rec else ()
        spec = MultiSumSpec(names=names, quad=qm, lin=lin, denoms=denoms,
                            const=const, extra=extra, prefactor=pf)
        return Identity(rid, spec, rhs, tags, base)
    raise ValueError(f"record {rid}: lhs.kind must be nahm or multisum")


def parse_catalog_text(text: str) -> dict[str, Identity]:
    records: list[dict[str, str]] = []
    cur: Optional[dict[str, str]] = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _HEADER_RE.match(line)
        if m:
            cur = {"id": m.group(1).strip()}
            records.append(cur)
            continue
        if cur is None:
            raise ValueError(f"field outside any [identity] section: {line!r}")
        if "=" not in line:
            raise ValueError(f"cannot parse catalog line {line!r}")
        key, val = line.split("=", 1)
        cur[key.strip()] = val.strip()
    out: dict[str, Identity] = {}
    for rec in records:
        ident = _build_record(rec)
        if ident.id in out:
            raise ValueError(f"duplicate identity id {ident.id!r}")
        out[ident.id] = ident
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

def _spec_from_fn(names: Sequence[str], fn: Callable[[tuple[int, ...]], ExpLike],
                  denoms: Sequence[ExpLike], extra=(), prefactor=()) -> MultiSumSpec:
    """Extract the quadratic form of a Python exponent function exactly.

    Finite differences at 0, e_a, 2e_a and e_a+e_b pin the coefficients;
    randomized probes then confirm the function really is quadratic, so a
    typo in a family formula fails construction instead of corrupting sums.
    """
    k = len(names)

    def fv(p: tuple[int, ...]) -> Fraction:
        return Fraction(fn(p))

    def unit(a: int, scale: int = 1) -> tuple[int, ...]:
        return tuple(scale if t == a else 0 for t in range(k))

    const = fv((0,) * k)
    quad = [[Fraction(0)] * k for _ in range(k)]
    lin = [Fraction(0)] * k
    singles = [fv(unit(a)) for a in range(k)]
    for a in range(k):
        quad[a][a] = fv(unit(a, 2)) - 2 * singles[a] + const
        lin[a] = singles[a] - const - quad[a][a] / 2
    for a in range(k):
        for b in range(a):
            pt = tuple(int(t in (a, b)) for t in range(k))
            quad[a][b] = quad[b][a] = \
                fv(pt) - singles[a] - singles[b] + const
    spec = MultiSumSpec(
        names=tuple(names),
        quad=tuple(tuple(row) for row in quad),
        lin=tuple(lin),
        denoms=tuple(Fraction(x) for x in denoms),
        const=const,
        extra=tuple(extra),
        prefactor=tuple(prefactor),
    )
    rng = random.Random(0x51D)
    for _ in range(8):
        p = tuple(rng.randrange(4) for _ in range(k))
        if spec.exponent(p) != fv(p):
            raise ValueError("family exponent function is not quadratic")
    return spec


def _nsuffix(vals: Sequence[int]) -> list[int]:
    """Suffix partial sums: out[j] = vals[j] + vals[j+1] + ... + vals[-1]."""
    out = [0] * len(vals)
    acc = 0
    for t in range(len(vals) - 1, -1, -1):
        acc += vals[t]
        out[t] = acc
    return out


def _sq(vals: Sequence[int]) -> int:
    return sum(v * v for v in vals)


def _tri(n: int) -> Fraction:
    return Fraction(n * (n - 1), 2)


def _tri1(n: int) -> Fraction:
    return Fraction(n * (n + 1), 2)


def _nvars(k: int, start: int = 1) -> tuple[str, ...]:
    return tuple(f"n{t}" for t in range(start, k + 1))


def _last_unit(k: int) -> tuple[int, ...]:
    return tuple(int(t == k - 1) for t in range(k))


@dataclass(frozen=True)
class FamilyGenerator:
    """A parameterized identity family with an explicit parameter domain."""

    name: str
    takes_i: bool
    k_min: int
    domain: str
    i_values: Callable[[int], tuple[Optional[int], ...]]
    build: Callable[[int, Optional[int]], Identity]

    def instantiate(self, k: int, i: Optional[int] = None) -> Identity:
        k = int(k)
        if k < self.k_min:
            raise ValueError(
                f"{self.name}: k must be at least {self.k_min} ({self.domain})")
        if self.takes_i:
            if i is None:
                raise ValueError(f"{self.name} takes two parameters "
                                 f"({self.domain})")
            i = int(i)
            allowed = self.i_values(k)
            if i not in allowed:
                raise ValueError(
                    f"{self.name}: second parameter {i} is outside the "
                    f"stated range for k={k} ({self.domain})")
            return self.build(k, i)
        if i is not None:
            raise ValueError(f"{self.name} takes only k ({self.domain})")
        return self.build(k, None)


def _family_identity(name: str, label: str, spec: MultiSumSpec,
                     rhs) -> Identity:
    rhs_t = rhs if isinstance(rhs, tuple) else (rhs,)
    return Identity(id=label, spec=spec, rhs=rhs_t, tags=(name,),
                    base_substitution=1)


def _build_ag(k: int, i: int) -> Identity:
    def fn(p):
        N = _nsuffix(p)
        return _sq(N) + sum(N[i - 1:])

    spec = _spec_from_fn(_nvars(k - 1), fn, (1,) * (k - 1))
    rhs = TP(i, 2 * k + 1 - i, 2 * k + 1, 2 * k + 1) / P(1, 1)
    return _family_identity("AG", f"AG({k},{i})", spec, rhs)


def _build_bressoud(k: int, i: int) -> Identity:
    def fn(p):
        N = _nsuffix(p)
        return _sq(N) + sum(N[i - 1:])

    spec = _spec_from_fn(_nvars(k - 1), fn, (1,) * (k - 2) + (2,))
    rhs = TP(i, 2 * k - i, 2 * k, 2 * k) / P(1, 1)
    return _family_identity("Bressoud", f"Bressoud({k},{i})", spec, rhs)


def _build_warnaar(k: int, i: int) -> Identity:
    def fn(p):
        N = _nsuffix(p)
        return HALF * _sq(N) + sum(N[j - 1] for j in range(i, k + 1, 2))

    spec = _spec_from_fn(_nvars(k), fn, (1,) * (k - 1) + (2,))
    m = Fraction(2 * k + 3, 2)
    rhs = NP(HALF, 1) * TP(Fraction(i, 2), m - Fraction(i, 2), m, m) / P(1, 1)
    return _family_identity("Warnaar", f"Warnaar({k},{i})", spec, rhs)


def _build_thm11(k: int, i: int) -> Identity:
    def fn(p):
        N = _nsuffix(p)
        return _sq(N) + sum(N[i - 1:])

    extra = (PochFactor(Monomial(-1, HALF), Fraction(1),
                        AffineForm(0, _last_unit(k)), -1),)
    spec = _spec_from_fn(_nvars(k), fn, (1,) * (k - 1) + (2,), extra=extra)
    m = Fraction(3, 2) + 2 * k
    rhs = TP(i, m - i, m, m) / P(1, 1)
    return _family_identity("thm1.1", f"thm1.1({k},{i})", spec, rhs)


def _build_thm12(k: int, _i) -> Identity:
    def fn(p):
        N = _nsuffix(p)
        return _sq(N) + sum(N)

    extra = (PochFactor(Monomial(-1, HALF), Fraction(1),
                        AffineForm(1, _last_unit(k)), -1),)
    spec = _spec_from_fn(_nvars(k), fn, (1,) * (k - 1) + (2,), extra=extra)
    m = Fraction(3, 2) + 2 * k
    rhs = TP(HALF, 1 + 2 * k, m, m) / P(1, 1)
    return _family_identity("thm1.2", f"thm1.2({k})", spec, rhs)


def _build_corgen13(k: int, i: int) -> Identity:
    def fn(p):
        m, nv = p[0], p[1:]
        N = _nsuffix(nv)
        return Fraction(m * m, 2) + m * nv[-1] + _sq(N) + sum(N[i - 1:])

    spec = _spec_from_fn(("m",) + _nvars(k), fn, (1,) * k + (2,))
    mod = Fraction(3, 2) + 2 * k
    rhs = NP(HALF, 1) * TP(i, mod - i, mod, mod) / P(1, 1)
    return _family_identity("corgen13", f"corgen13({k},{i})", spec, rhs)


def _build_corgen13last(k: int, _i) -> Identity:
    def fn(p):
        m, nv = p[0], p[1:]
        N = _nsuffix(nv)
        return Fraction(m * m, 2) + m * nv[-1] + _sq(N) + m + sum(N)

    spec = _spec_from_fn(("m",) + _nvars(k), fn, (1,) * k + (2,))
    mod = Fraction(3, 2) + 2 * k
    rhs = NP(HALF, 1) * TP(HALF, 1 + 2 * k, mod, mod) / P(1, 1)
    return _family_identity("corgen13last", f"corgen13last({k})", spec, rhs)


def _build_gen58a(k: int, i: int) -> Identity:
    def fn(p):
        m, nv = p[0], p[1:]
        N = _nsuffix(nv)
        return _tri1(m) + m * nv[0] + 2 * _sq(N) + 2 * sum(N[i - 1:])

    spec = _spec_from_fn(("m",) + _nvars(k), fn, (1, 1) + (2,) * (k - 1))
    rhs = TP(2 * i, 4 * k + 6 - 2 * i, 4 * k + 6, 4 * k + 6) / P(1, 1)
    return _family_identity("gen5-8a", f"gen5-8a({k},{i})", spec, rhs)


def _build_gen58b(k: int, i: int) -> Identity:
    def fn(p):
        m, nv = p[0], p[1:]
        N = _nsuffix(nv)
        return _tri1(m) + m * nv[-1] + 2 * _sq(N) + 2 * sum(N[i - 1:])

    spec = _spec_from_fn(("m",) + _nvars(k), fn, (1,) + (2,) * (k - 1) + (1,))
    rhs = TP(2 * i, 4 * k + 6 - 2 * i, 4 * k + 6, 4 * k + 6) / P(1, 1)
    return _family_identity("gen5-8b", f"gen5-8b({k},{i})", spec, rhs)


def _build_gen1(k: int, i: int) -> Identity:
    def fn(p):
        m1, m2, nv = p[0], p[1], p[2:]
        N = _nsuffix(nv)
        return _tri1(m1) + m1 * m2 + 2 * _tri1(m2) + 2 * m2 * nv[0] + \
            4 * _sq(N) + 4 * sum(N[i - 1:])

    spec = _spec_from_fn(("m1", "m2") + _nvars(k), fn,
                         (1, 1, 2) + (4,) * (k - 1))
    rhs = TP(4 * i, 8 * k + 12 - 4 * i, 8 * k + 12, 8 * k + 12) / P(1, 1)
    return _family_identity("gen1", f"gen1({k},{i})", spec, rhs)


def _build_gen6(k: int, i: int) -> Identity:
    def fn(p):
        m, n11, n12 = p[0], p[1], p[2]
        n1 = n11 + 2 * n12
        N = _nsuffix((n1,) + p[3:])
        return _tri1(m) + m * n1 + _tri(n11) + 2 * _sq(N) + 2 * sum(N[i - 1:])

    names = ("m", "n11", "n12") + _nvars(k, start=2)
    spec = _spec_from_fn(names, fn, (1, 1, 2) + (2,) * (k - 1))
    rhs = TP(2 * i, 4 * k + 6 - 2 * i, 4 * k + 6, 4 * k + 6) / P(1, 1)
    return _family_identity("gen6", f"gen6({k},{i})", spec, rhs)


def _build_gen7(k: int, i: int) -> Identity:
    def fn(p):
        m1, m2, nv = p[0], p[1], p[2:]
        N = _nsuffix(nv)
        return _tri1(m1) + m1 * nv[0] + 2 * _tri1(m2) + 2 * m2 * nv[0] + \
            4 * _sq(N) + 4 * sum(N[i - 1:])

    spec = _spec_from_fn(("m1", "m2") + _nvars(k), fn,
                         (1, 2, 1) + (4,) * (k - 1))
    rhs = TP(4 * i, 8 * k + 12 - 4 * i, 8 * k + 12, 8 * k + 12) / P(1, 1)
    return _family_identity("gen7", f"gen7({k},{i})", spec, rhs)


def _build_gen10(k: int, i: int) -> Identity:
    def fn(p):
        m1, m2, nv = p[0], p[1], p[2:]
        N = _nsuffix(nv)
        return _tri(m1) + _tri1(m1 + 2 * m2) + (m1 + 2 * m2) * nv[0] + \
            2 * _sq(N) + 2 * sum(N[i - 1:])

    spec = _spec_from_fn(("m1", "m2") + _nvars(k), fn,
                         (1, 2, 1) + (2,) * (k - 1))
    rhs = TP(2 * i, 4 * k + 6 - 2 * i, 4 * k + 6, 4 * k + 6) / P(1, 1)
    return _family_identity("gen10", f"gen10({k},{i})", spec, rhs)


def _build_gen14(k: int, i: int) -> Identity:
    def fn(p):
        nk1, nk2 = p[k - 1], p[k]
        nk = nk1 + 2 * nk2
        N = _nsuffix(p[:k - 1] + (nk,))
        return _tri(nk1) + _sq(N) + sum(N[i - 1:])

    names = _nvars(k - 1) + ("nk1", "nk2")
    spec = _spec_from_fn(names, fn, (1,) * (k - 1) + (1, 2))
    rhs = TP(i, 2 * k + 3 - i, 2 * k + 3, 2 * k + 3) / P(1, 1)
    return _family_identity("gen14", f"gen14({k},{i})", spec, rhs)


def _build_gen17(k: int, i: int) -> Identity:
    def fn(p):
        n11, n12 = p[0], p[1]
        n1 = n11 + 2 * n12
        N = _nsuffix((n1,) + p[2:])
        return _tri(n11) + _sq(N) + sum(N[i - 1:])

    names = ("n11", "n12") + _nvars(k, start=2)
    spec = _spec_from_fn(names, fn, (1, 2) + (1,) * (k - 1))
    rhs = TP(i, 2 * k + 3 - i, 2 * k + 3, 2 * k + 3) / P(1, 1)
    return _family_identity("gen17", f"gen17({k},{i})", spec, rhs)


def _build_gen15(which: str, k: int, i: int) -> Identity:
    def fn(p):
        m, n11, n12 = p[0], p[1], p[2]
        n1 = n11 + n12
        minus = n11 if which == "a" else n12
        N = _nsuffix((n1,) + p[3:])
        return _tri1(m) + m * n11 + n11 * n11 + n12 * n12 - minus - \
            _tri(n1) + _sq(N) + sum(N[i - 1:])

    names = ("m", "n11", "n12") + _nvars(k, start=2)
    spec = _spec_from_fn(names, fn, (1, 1, 2) + (1,) * (k - 1))
    rhs = NP(1, 1) * TP(i, 2 * k + 3 - i, 2 * k + 3, 2 * k + 3) / P(1, 1)
    name = f"gen15{which}"
    return _family_identity(name, f"{name}({k},{i})", spec, rhs)


def _build_bressoud1980(k: int, i: int) -> Identity:
    def fn(p):
        N = _nsuffix(p)
        return _sq(N) - sum(N[:i])

    spec = _spec_from_fn(_nvars(k - 1), fn, (1,) * (k - 2) + (2,))
    rhs = tuple(TP(2 * k, k - i + 2 * m, k + i - 2 * m, 2 * k) / P(1, 1)
                for m in range(i + 1))
    return _family_identity("Bressoud1980", f"Bressoud1980({k},{i})", spec, rhs)


def _build_and1(k: int, a: int) -> Identity:
    def fn(p):
        N = _nsuffix(p)
        return _sq(N) + 2 * sum(N[j - 1] for j in range(a, k - 1, 2))

    spec = _spec_from_fn(_nvars(k - 1), fn, (2,) * (k - 1))
    rhs = NP(1, 2) * TP(a, 2 * k + 2 - a, 2 * k + 2, 2 * k + 2) / P(2, 2)
    return _family_identity("And1", f"And1({k},{a})", spec, rhs)


def _build_and2(k: int, a: int) -> Identity:
    def fn(p):
        N = _nsuffix(p)
        return _sq(N) + sum(p[j - 1] for j in range(1, a - 2, 2)) + \
            sum(N[j - 1] for j in range(a - 1, k))

    spec = _spec_from_fn(_nvars(k - 1), fn, (2,) * (k - 1))
    rhs = NP(2, 2) * TP(a, 2 * k + 2 - a, 2 * k + 2, 2 * k + 2) / P(2, 2)
    return _family_identity("And2", f"And2({k},{a})", spec, rhs)


def _build_exam9gen(k: int, a: int) -> Identity:
    even_branch = a % 2 == k % 2

    def fn(p):
        n11, n12 = p[0], p[1]
        n1 = n11 + 2 * n12
        nv = (n1,) + p[2:]
        N = _nsuffix(nv)
        if even_branch:
            return 2 * _tri(n11) + _sq(N) + \
                2 * sum(N[j - 1] for j in range(a, k - 1, 2))
        return 2 * _tri(n11) + _sq(N) + \
            sum(nv[j - 1] for j in range(1, a - 2, 2)) + \
            sum(N[j - 1] for j in range(a - 1, k))

    names = ("n11", "n12") + _nvars(k - 1, start=2)
    spec = _spec_from_fn(names, fn, (2, 4) + (2,) * (k - 2))
    head = NP(1, 2) if even_branch else NP(2, 2)
    rhs = head * TP(a, 2 * k + 2 - a, 2 * k + 2, 2 * k + 2) / P(2, 2)
    return _family_identity("exam9gen", f"exam9gen({k},{a})", spec, rhs)


def _range1(hi_of: Callable[[int], int]):
    return lambda k: tuple(range(1, hi_of(k) + 1))


FAMILIES: dict[str, FamilyGenerator] = {
    g.name: g for g in (
        FamilyGenerator("AG", True, 2, "k >= 2, 1 <= i <= k",
                        _range1(lambda k: k), _build_ag),
        FamilyGenerator("Bressoud", True, 2, "k >= 2, 1 <= i <= k",
                        _range1(lambda k: k), _build_bressoud),
        FamilyGenerator("Warnaar", True, 2, "k >= 2, 1 <= i <= k",
                        _range1(lambda k: k), _build_warnaar),
        FamilyGenerator("thm1.1", True, 1, "k >= 1, 1 <= i <= k+1",
                        _range1(lambda k: k + 1), _build_thm11),
        FamilyGenerator("thm1.2", False, 1, "k >= 1",
                        lambda k: (None,), _build_thm12),
        FamilyGenerator("corgen13", True, 1, "k >= 1, 1 <= i <= k+1",
                        _range1(lambda k: k + 1), _build_corgen13),
        FamilyGenerator("corgen13last", False, 1, "k >= 1",
                        lambda k: (None,), _build_corgen13last),
        FamilyGenerator("gen5-8a", True, 1, "k >= 1, 1 <= i <= k+1",
                        _range1(lambda k: k + 1), _build_gen58a),
        FamilyGenerator("gen5-8b", True, 1, "k >= 1, 1 <= i <= k+1",
                        _range1(lambda k: k + 1), _build_gen58b),
        FamilyGenerator("gen1", True, 1, "k >= 1, 1 <= i <= k+1",
                        _range1(lambda k: k + 1), _build_gen1),
        FamilyGenerator("gen6", True, 1, "k >= 1, 1 <= i <= k+1",
                        _range1(lambda k: k + 1), _build_gen6),
        FamilyGenerator("gen7", True, 1, "k >= 1, 1 <= i <= k+1",
                        _range1(lambda k: k + 1), _build_gen7),
        FamilyGenerator("gen10", True, 1, "k >= 1, 1 <= i <= k+1",
                        _range1(lambda k: k + 1), _build_gen10),
        FamilyGenerator("gen14", True, 1, "k >= 1, 1 <= i <= k+1",
                        _range1(lambda k: k + 1), _build_gen14),
        FamilyGenerator("gen17", True, 1, "k >= 1, 1 <= i <= k+1",
                        _range1(lambda k: k + 1), _build_gen17),
        FamilyGenerator("gen15a", True, 1, "k >= 1, 1 <= i <= k+1",
                        _range1(lambda k: k + 1),
                        lambda k, i: _build_gen15("a", k, i)),
        FamilyGenerator("gen15b", True, 1, "k >= 1, 1 <= i <= k+1",
                        _range1(lambda k: k + 1),
                        lambda k, i: _build_gen15("b", k, i)),
        FamilyGenerator("Bressoud1980", True, 2, "k >= 2, 1 <= i <= k-1",
                        _range1(lambda k: k - 1), _build_bressoud1980),
        FamilyGenerator("And1", True, 2,
                        "k >= 2, 1 <= a <= k, a and k of equal parity",
                        lambda k: tuple(a for a in range(1, k + 1)
                                        if a % 2 == k % 2), _build_and1),
        FamilyGenerator("And2", True, 3,
                        "k odd >= 3, a even, 2 <= a <= k",
                        lambda k: tuple(range(2, k + 1, 2)) if k % 2 else (),
                        _build_and2),
        FamilyGenerator("exam9gen", True, 2,
                        "k >= 2, 1 <= a <= k, a = k mod 2 or (k odd, a even)",
                        lambda k: tuple(a for a in range(1, k + 1)
                                        if a % 2 == k % 2
                                        or (k % 2 == 1 and a % 2 == 0)),
                        _build_exam9gen),
    )
}


# -- the catalog ---------------------------------------------------------------

_INSTANCE_RE = re.compile(r"(.+?)\s*\(\s*(\d+)\s*(?:,\s*(\d+)\s*)?\)\s*$")


class Catalog:
    """Read-only identity store: fixed records plus family generators."""

    def __init__(self, identities: dict[str, Identity],
                 families: Optional[dict[str, FamilyGenerator]] = None):
        self.identities = dict(identities)
        self.families = dict(FAMILIES if families is None else families)

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
        name with explicit k (and i) parameters."""
        if token in self.identities:
            return self.identities[token]
        if token in self.families:
            if k is None:
                raise ValueError(f"family {token} needs a k parameter"
                                 f" ({self.families[token].domain})")
            return self.instantiate_family(token, k, i)
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
        order = Fraction(order)
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
            lhs_terms=len(lhs.terms),
            rhs_terms=len(rhs.terms),
            wall_time=wall,
        )

    def cross_check_reduction(self, target: Union[str, Identity],
                              order: ExpLike = 30,
                              den: int = DEFAULT_D) -> ReductionReport:
        """Re-verify one identity through an independent lower-rank route.

        Most records admit an index merge or an index summation on their
        quadruple view; exam12-1 instead goes through a transform-chain limit
        in the halved base.  Raises LookupError when no route exists.
        """
        ident = target if isinstance(target, Identity) else self.resolve(target)
        order = Fraction(order)
        if ident.id == "exam12-1":
            return self._bailey_route(ident, order, den)
        spec = ident.spec
        if spec.prefactor or spec.extra:
            raise LookupError(f"no reduction route for {ident.id!r}")
        if ident.quadruple is not None:
            quad = ident.quadruple
        else:
            d = []
            for x in spec.denoms:
                if x.denominator != 1:
                    raise LookupError(f"no reduction route for {ident.id!r}")
                d.append(int(x))
            A = tuple(tuple(spec.quad[a][b] / d[b] for b in range(spec.rank))
                      for a in range(spec.rank))
            quad = NahmQuadruple(A, spec.lin, spec.const, d)
        red = reduce_rank(quad)
        if red is None:
            raise LookupError(f"no reduction route for {ident.id!r}")
        direct = nahm_sum(quad, order, include_c=True, den=den)
        reduced = eval_reduction(red, order, den)
        product = eval_product_sum(ident.rhs, order, den)
        m1 = compare_up_to(direct, reduced, order)
        m2 = compare_up_to(direct, product, order)
        return ReductionReport(
            id=ident.id, route=red.kind, removed=red.removed, order=order,
            equal=m1 is None and m2 is None,
            first_mismatch=m1 if m1 is not None else m2)

    def _bailey_route(self, ident: Identity, order: Fraction,
                      den: int) -> ReductionReport:
        # After summing the first index with Euler's theorem, the remaining
        # double sum in the halved base is the limit identity of the pair
        # G1 |> S3; both limit sides are mapped back by q -> q^2 and must
        # match the direct triple enumeration and the product side.
        pair = _bailey_chain(builtin_pair("G1"), [S3])
        lim_lhs, lim_rhs = limit_identity(pair, order / 2, den)
        head = eval_product(NP(1, 2), order, den)
        route_lhs = head * substitute_power(lim_lhs, 2)
        route_rhs = head * substitute_power(lim_rhs, 2)
        direct = multi_sum(ident.spec, order, den)
        product = eval_product_sum(ident.rhs, order, den)
        mismatch = None
        for other in (route_lhs, route_rhs, product):
            mismatch = compare_up_to(direct, other, order)
            if mismatch is not None:
                break
        return ReductionReport(
            id=ident.id, route="bailey", removed=(ident.spec.names[0],),
            order=order, equal=mismatch is None, first_mismatch=mismatch)


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
