"""Sparse multivariate polynomials over Q_p, and the system file format.

A :class:`MultiPoly` maps exponent tuples to :class:`PadicNumber`
coefficients.  Monomial enumeration is graded lexicographic everywhere
(ascending total degree, lexicographically descending exponents within
a degree), which fixes the column order of the resultant matrix and
the candidate order of basis monomials.

System files look like::

    p=7 prec=6 vars=x,y
    x^2 - 2
    y - x

with one polynomial per line in infix notation; coefficients are
integers, fractions of integers coprime to p, or explicit p-power
literals like ``3*7^2``.  Parse failures report line and column.
"""

from __future__ import annotations

from dataclasses import dataclass

from .padics import PadicNumber, ParseError, is_prime


def monomials_of_degree(nvars: int, degree: int) -> list:
    """Exponent tuples with |e| = degree, lexicographically descending."""
    if nvars == 1:
        return [(degree,)]
    out = []
    for first in range(degree, -1, -1):
        for rest in monomials_of_degree(nvars - 1, degree - first):
            out.append((first,) + rest)
    return out


def monomials_upto(nvars: int, degree: int) -> list:
    """Monomial basis of V_degree in graded lex order."""
    out = []
    for d in range(degree + 1):
        out.extend(monomials_of_degree(nvars, d))
    return out


class MultiPoly:
    """A polynomial in ``nvars`` variables with PadicNumber coefficients."""

    __slots__ = ("prime", "nvars", "coeffs")

    def __init__(self, prime: int, nvars: int, coeffs: dict):
        self.prime = prime
        self.nvars = nvars
        self.coeffs = {
            e: c for e, c in coeffs.items() if not (c.is_zero and c.valuation <= 0)
        }

    @classmethod
    def constant(cls, prime, nvars, c: PadicNumber) -> "MultiPoly":
        return cls(prime, nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, prime, nvars, i, precision) -> "MultiPoly":
        e = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(prime, nvars, {e: PadicNumber.one(prime, precision)})

    @property
    def degree(self) -> int:
        if not self.coeffs:
            return 0
        return max(sum(e) for e in self.coeffs)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs or all(c.is_zero for c in self.coeffs.values())

    def __add__(self, other):
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out[e] + c if e in out else c
        return MultiPoly(self.prime, self.nvars, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return MultiPoly(self.prime, self.nvars, {e: -c for e, c in self.coeffs.items()})

    def scale(self, s: PadicNumber):
        return MultiPoly(self.prime, self.nvars, {e: s * c for e, c in self.coeffs.items()})

    def __mul__(self, other):
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                t = c1 * c2
                out[e] = out[e] + t if e in out else t
        return MultiPoly(self.prime, self.nvars, out)

    def coefficient(self, exp: tuple, precision: int) -> PadicNumber:
        return self.coeffs.get(exp, PadicNumber.zero(self.prime, precision))

    def evaluate(self, point: list) -> PadicNumber:
        acc = None
        for e, c in self.coeffs.items():
            term = c
            for x, k in zip(point, e):
                for _ in range(k):
                    term = term * x
            acc = term if acc is None else acc + term
        if acc is None:
            return PadicNumber.zero(self.prime, 1)
        return acc

    def format(self, names: list) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs, key=lambda t: (sum(t), tuple(-x for x in t))):
            c = self.coeffs[e]
            mono = "*".join(
                n if k == 1 else f"{n}^{k}" for n, k in zip(names, e) if k
            )
            if mono:
                parts.append(f"({c.compact()})*{mono}")
            else:
                parts.append(f"({c.compact()})")
        return " + ".join(parts)

    def __repr__(self):
        return f"MultiPoly(p={self.prime}, nvars={self.nvars}, {len(self.coeffs)} terms)"


# ----------------------------------------------------------------------
# parsing

def _tokenize(text, lineno):
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            out.append(("int", int(text[i:j]), i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(("name", text[i:j], i))
            i = j
            continue
        if ch in "+-*^()/":
            out.append((ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", lineno, i + 1)
    out.append(("end", None, len(text)))
    return out


class _PolyParser:
    """Recursive-descent parser for one polynomial line."""

    def __init__(self, tokens, names, prime, precision, lineno):
        self.tokens = tokens
        self.pos = 0
        self.names = names
        self.prime = prime
        self.precision = precision
        self.lineno = lineno

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message):
        column = self.peek()[2] + 1
        raise ParseError(message, self.lineno, column)

    def parse(self) -> MultiPoly:
        poly = self.expr()
        if self.peek()[0] != "end":
            self.fail(f"trailing input starting with {self.peek()[1]!r}")
        return poly

    def expr(self) -> MultiPoly:
        negate = False
        if self.peek()[0] in ("+", "-"):
            negate = self.advance()[0] == "-"
        poly = self.term()
        if negate:
            poly = -poly
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.term()
            poly = poly - rhs if op == "-" else poly + rhs
        return poly

    def term(self) -> MultiPoly:
        poly = self.power()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()[0]
            rhs = self.power()
            if op == "*":
                poly = poly * rhs
            else:
                c = self._as_constant(rhs, "division by a non-constant")
                inv = PadicNumber.one(self.prime, self.precision) / c
                poly = poly.scale(inv)
        return poly

    def power(self) -> MultiPoly:
        base = self.atom()
        if self.peek()[0] != "^":
            return base
        self.advance()
        sign = 1
        if self.peek()[0] == "-":
            self.advance()
            sign = -1
        tok = self.peek()
        if tok[0] != "int":
            self.fail("exponent must be an integer")
        self.advance()
        k = sign * tok[1]
        if k < 0:
            c = self._as_constant(base, "negative power of a non-constant")
            return MultiPoly.constant(self.prime, len(self.names), c ** k)
        out = MultiPoly.constant(
            self.prime, len(self.names), PadicNumber.one(self.prime, self.precision)
        )
        for _ in range(k):
            out = out * base
        return out

    def atom(self) -> MultiPoly:
        tok = self.peek()
        if tok[0] == "int":
            self.advance()
            return MultiPoly.constant(
                self.prime,
                len(self.names),
                PadicNumber.from_int(self.prime, tok[1], self.precision),
            )
        if tok[0] == "name":
            if tok[1] not in self.names:
                self.fail(f"unknown variable {tok[1]!r}")
            self.advance()
            return MultiPoly.variable(
                self.prime, len(self.names), self.names.index(tok[1]), self.precision
            )
        if tok[0] == "(":
            self.advance()
            poly = self.expr()
            if self.peek()[0] != ")":
                self.fail("expected ')'")
            self.advance()
            return poly
        self.fail(f"expected a coefficient or variable, found {tok[1]!r}")

    def _as_constant(self, poly: MultiPoly, message) -> PadicNumber:
        if poly.degree > 0:
            self.fail(message)
        return poly.coefficient((0,) * len(self.names), self.precision)


def parse_polynomial(text, names, prime, precision, lineno=None) -> MultiPoly:
    tokens = _tokenize(text, lineno)
    return _PolyParser(tokens, names, prime, precision, lineno).parse()


@dataclass
class SystemFile:
    prime: int
    precision: int
    names: list
    polynomials: list


def parse_system(text: str) -> SystemFile:
    """Parse the ``p=... prec=... vars=...`` header plus polynomial lines."""
    lines = text.splitlines()
    header = None
    header_lineno = 0
    for i, raw in enumerate(lines):
        if raw.strip() and not raw.strip().startswith("#"):
            header = raw.strip()
            header_lineno = i
            break
    if header is None:
        raise ParseError("empty system file", 1, 1)
    fields = {}
    for part in header.split():
        if "=" not in part:
            raise ParseError(
                f"malformed header field {part!r} (expected key=value)",
                header_lineno + 1, header.index(part) + 1,
            )
        key, _, value = part.partition("=")
        fields[key] = value
    for key in ("p", "prec", "vars"):
        if key not in fields:
            raise ParseError(f"header is missing {key!r}", header_lineno + 1, 1)
    try:
        prime = int(fields["p"])
        precision = int(fields["prec"])
    except ValueError:
        raise ParseError("p and prec must be integers", header_lineno + 1, 1)
    if not is_prime(prime):
        raise ParseError(f"p={prime} is not prime", header_lineno + 1, 1)
    if precision < 1:
        raise ParseError("prec must be >= 1", header_lineno + 1, 1)
    names = [v.strip() for v in fields["vars"].split(",") if v.strip()]
    if not names or len(set(names)) != len(names):
        raise ParseError("vars must list distinct variable names", header_lineno + 1, 1)
    polynomials = []
    for i in range(header_lineno + 1, len(lines)):
        stripped = lines[i].strip()
        if not stripped or stripped.startswith("#"):
            continue
        poly = parse_polynomial(lines[i], names, prime, precision, lineno=i + 1)
        if poly.is_zero:
            raise ParseError("zero polynomial in system", i + 1, 1)
        polynomials.append(poly)
    if not polynomials:
        raise ParseError("system file contains no polynomials", len(lines), 1)
    return SystemFile(prime=prime, precision=precision, names=names,
                      polynomials=polynomials)
