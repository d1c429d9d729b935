"""Capped-precision (zealous) arithmetic for elements of Q_p.

An element ``a = u * p^v`` known modulo ``p^N`` is stored as the triple
``(v, u, N)`` together with the prime ``p``.  The unit part ``u`` is
reduced modulo ``p^(N - v)`` and is coprime to ``p``.  An *inexact
zero* -- a value indistinguishable from 0 at precision ``N`` -- is
stored with ``v = N`` and ``u = 0``.

Precision propagates by the zealous (interval) rules: addition and
subtraction keep the minimum absolute precision of the operands,
multiplication and division keep the minimum relative precision.
Multiplying by the exact scalar ``p`` (see :meth:`PadicNumber.shift`)
raises both the valuation and the absolute precision by one.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction


class PadicError(Exception):
    """Base class for errors raised by this package."""


class PrimeMismatchError(PadicError):
    """Two values with different primes were combined."""


class PrecisionError(PadicError):
    """An operation could not be performed at the available precision."""

    def __init__(self, message, precision=None):
        super().__init__(message)
        self.precision = precision


class DomainError(PadicError):
    """The input is outside the mathematical domain of the operation."""


class ParseError(PadicError):
    """A system or matrix file is malformed."""

    def __init__(self, message, line=None, column=None):
        loc = ""
        if line is not None:
            loc = f" at line {line}" + (f", column {column}" if column is not None else "")
        super().__init__(message + loc)
        self.line = line
        self.column = column


def is_prime(n: int) -> bool:
    """Trial division, for the primes named in file headers."""
    return n >= 2 and all(n % q for q in range(2, math.isqrt(n) + 1))


def _valuation_int(a: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    v = 0
    while a % p == 0:
        a //= p
        v += 1
    return v


def sqrt_mod_p(a: int, p: int) -> int:
    """A square root of ``a`` modulo an odd prime ``p`` (Tonelli-Shanks).

    Raises :class:`DomainError` if ``a`` is not a quadratic residue.
    """
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        raise DomainError(f"{a} is not a quadratic residue mod {p}")
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # Tonelli-Shanks for p = 1 mod 4.
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        t2, i = t, 0
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


class ResidueElem:
    """An element of the residue field F_p."""

    __slots__ = ("prime", "value")

    def __init__(self, prime: int, value: int):
        self.prime = prime
        self.value = value % prime

    def lift(self, precision: int) -> "PadicNumber":
        """Interpret the residue as an element of Z_p at the given precision."""
        return PadicNumber.from_int(self.prime, self.value, precision)

    def __eq__(self, other):
        return (
            isinstance(other, ResidueElem)
            and self.prime == other.prime
            and self.value == other.value
        )

    def __hash__(self):
        return hash((self.prime, self.value))

    def __repr__(self):
        return f"ResidueElem({self.value} mod {self.prime})"


class PadicNumber:
    """One element of Q_p with capped absolute precision."""

    __slots__ = ("prime", "valuation", "unit", "precision")

    def __init__(self, prime: int, valuation: int, unit: int, precision: int):
        # Trusted raw constructor; use the classmethods for untrusted data.
        self.prime = prime
        self.valuation = valuation
        self.unit = unit
        self.precision = precision

    # ------------------------------------------------------------------
    # construction

    @classmethod
    def zero(cls, prime: int, precision: int) -> "PadicNumber":
        """The inexact zero O(p^precision)."""
        return cls(prime, precision, 0, precision)

    @classmethod
    def one(cls, prime: int, precision: int) -> "PadicNumber":
        return cls(prime, 0, 1, precision)

    @classmethod
    def from_unit(cls, prime, valuation, unit, precision) -> "PadicNumber":
        """Normalize ``unit * p^valuation + O(p^precision)``."""
        rel = precision - valuation
        if rel <= 0 or unit == 0:
            return cls.zero(prime, precision)
        unit %= prime ** rel
        if unit == 0:
            return cls.zero(prime, precision)
        if unit % prime == 0:
            t = _valuation_int(unit, prime)
            valuation += t
            rel -= t
            unit = (unit // prime ** t) % prime ** rel
        return cls(prime, valuation, unit, precision)

    @classmethod
    def from_int(cls, prime: int, value: int, precision: int) -> "PadicNumber":
        """The integer ``value`` capped at absolute precision ``precision``."""
        return cls.from_unit(prime, 0, value % prime ** max(precision, 0), precision)

    @classmethod
    def from_rational(cls, prime, num, den, precision) -> "PadicNumber":
        """The fraction num/den (den coprime considerations handled) at precision."""
        if den == 0:
            raise ZeroDivisionError("denominator is zero")
        vd = _valuation_int(den, prime) if den % prime == 0 else 0
        vn = _valuation_int(num, prime) if num and num % prime == 0 else 0
        if num == 0:
            return cls.zero(prime, precision)
        v = vn - vd
        un = num // prime ** vn
        ud = den // prime ** vd
        rel = precision - v
        if rel <= 0:
            return cls.zero(prime, precision)
        m = prime ** rel
        u = un * pow(ud, -1, m) % m
        return cls.from_unit(prime, v, u, precision)

    # ------------------------------------------------------------------
    # predicates and views

    @property
    def is_zero(self) -> bool:
        """True when indistinguishable from zero at this precision."""
        return self.unit == 0

    @property
    def relative_precision(self) -> int:
        return self.precision - self.valuation

    def norm(self) -> Fraction:
        """|a|_p as an exact rational (an upper bound for an inexact zero)."""
        v = self.valuation
        return Fraction(self.prime ** -v) if v < 0 else Fraction(1, self.prime ** v)

    def residue(self) -> ResidueElem:
        """Reduce modulo p.  Requires valuation >= 0 and precision >= 1."""
        if self.precision < 1:
            raise PrecisionError("element not known mod p", self.precision)
        if not self.is_zero and self.valuation < 0:
            raise DomainError("cannot reduce an element of negative valuation mod p")
        if self.is_zero or self.valuation > 0:
            return ResidueElem(self.prime, 0)
        return ResidueElem(self.prime, self.unit % self.prime)

    def lift_int(self) -> int:
        """The canonical integer representative (requires valuation >= 0)."""
        if self.is_zero:
            return 0
        if self.valuation < 0:
            raise DomainError("negative valuation has no integer representative")
        return self.unit * self.prime ** self.valuation

    def indistinguishable(self, other: "PadicNumber") -> bool:
        """Whether self and other agree at their common precision."""
        return (self - other).is_zero

    # ------------------------------------------------------------------
    # precision management

    def cap(self, precision: int) -> "PadicNumber":
        """Truncate the absolute precision to at most ``precision``."""
        if precision >= self.precision:
            return self
        if self.is_zero:
            return PadicNumber.zero(self.prime, precision)
        return PadicNumber.from_unit(self.prime, self.valuation, self.unit, precision)

    def with_precision(self, precision: int) -> "PadicNumber":
        """Declare the stored digits exact up to ``precision``.

        Raising the cap treats the unknown digits as zero; only callers
        holding an external argument for the extra accuracy (e.g. the
        rescaling branch of the eigensolvers) should use this.
        """
        if precision <= self.precision:
            return self.cap(precision)
        if self.is_zero:
            return PadicNumber.zero(self.prime, precision)
        return PadicNumber(self.prime, self.valuation, self.unit, precision)

    # ------------------------------------------------------------------
    # arithmetic

    def _check(self, other: "PadicNumber"):
        if self.prime != other.prime:
            raise PrimeMismatchError(
                f"mixed primes {self.prime} and {other.prime}"
            )

    def __add__(self, other: "PadicNumber") -> "PadicNumber":
        self._check(other)
        n = min(self.precision, other.precision)
        if self.is_zero:
            return other.cap(n)
        if other.is_zero:
            return self.cap(n)
        v0 = min(self.valuation, other.valuation)
        if v0 >= n:
            return PadicNumber.zero(self.prime, n)
        p = self.prime
        m = p ** (n - v0)
        s = (
            self.unit * p ** (self.valuation - v0)
            + other.unit * p ** (other.valuation - v0)
        ) % m
        return PadicNumber.from_unit(p, v0, s, n)

    def __neg__(self) -> "PadicNumber":
        if self.is_zero:
            return self
        m = self.prime ** self.relative_precision
        return PadicNumber(self.prime, self.valuation, m - self.unit, self.precision)

    def __sub__(self, other: "PadicNumber") -> "PadicNumber":
        return self + (-other)

    def __mul__(self, other: "PadicNumber") -> "PadicNumber":
        self._check(other)
        if self.is_zero or other.is_zero:
            # O(p^N) * u p^v = O(p^(N + v)); both zero gives O(p^(N1 + N2)).
            # An inexact zero O(p^N) is stored with valuation N.
            return PadicNumber.zero(self.prime, self.valuation + other.valuation)
        rel = min(self.relative_precision, other.relative_precision)
        v = self.valuation + other.valuation
        if rel <= 0:
            return PadicNumber.zero(self.prime, v + rel)
        u = self.unit * other.unit % self.prime ** rel
        return PadicNumber(self.prime, v, u, v + rel)

    def __truediv__(self, other: "PadicNumber") -> "PadicNumber":
        self._check(other)
        if other.is_zero:
            raise PrecisionError(
                "division by a value indistinguishable from zero "
                f"at precision {other.precision}",
                other.precision,
            )
        if self.is_zero:
            return PadicNumber.zero(self.prime, self.precision - other.valuation)
        rel = min(self.relative_precision, other.relative_precision)
        v = self.valuation - other.valuation
        if rel <= 0:
            return PadicNumber.zero(self.prime, v)
        m = self.prime ** rel
        u = self.unit * pow(other.unit, -1, m) % m
        return PadicNumber(self.prime, v, u, v + rel)

    def inverse(self) -> "PadicNumber":
        return PadicNumber.one(self.prime, self.precision + max(0, -self.valuation)) / self

    def __pow__(self, k: int) -> "PadicNumber":
        if k < 0:
            return self.inverse() ** (-k)
        if k == 0:
            return PadicNumber.one(self.prime, self.relative_precision)
        result = None
        base = self
        while k:
            if k & 1:
                result = base if result is None else result * base
            base = base * base
            k >>= 1
        return result

    def shift(self, k: int) -> "PadicNumber":
        """Multiply by the exact scalar p^k (k may be negative)."""
        if self.is_zero:
            return PadicNumber.zero(self.prime, self.precision + k)
        return PadicNumber(self.prime, self.valuation + k, self.unit, self.precision + k)

    def sqrt(self) -> "PadicNumber":
        """A square root, leading digit in {1, ..., (p-1)/2}.

        Requires p odd, even valuation and a quadratic-residue unit part.
        The result carries the relative precision of the input.
        """
        p = self.prime
        if p == 2:
            raise DomainError("square roots are only implemented for odd p")
        if self.is_zero:
            raise DomainError("cannot take the square root of an inexact zero")
        if self.valuation % 2 != 0:
            raise DomainError("square root of an element of odd valuation")
        rel = self.relative_precision
        s = sqrt_mod_p(self.unit, p)  # raises DomainError for non-residues
        # Hensel/Newton lift: s <- (s + u/s) / 2, doubling accuracy each pass.
        known = 1
        inv2 = pow(2, -1, p ** rel)
        while known < rel:
            known = min(2 * known, rel)
            m = p ** known
            s = (s + self.unit * pow(s, -1, m)) % m * inv2 % m
        if s % p > (p - 1) // 2:
            s = p ** rel - s
        v = self.valuation // 2
        return PadicNumber(p, v, s % p ** rel, v + rel)

    def __eq__(self, other):
        """Structural equality of stored data (not mathematical equality).

        Use :meth:`indistinguishable` to compare values at precision.
        """
        return (
            isinstance(other, PadicNumber)
            and self.prime == other.prime
            and self.valuation == other.valuation
            and self.unit == other.unit
            and self.precision == other.precision
        )

    def __hash__(self):
        return hash((self.prime, self.valuation, self.unit, self.precision))

    # ------------------------------------------------------------------
    # rendering and parsing

    def digits(self) -> list:
        """Base-p digits of the unit part from p^valuation up to p^(N-1)."""
        out = []
        u = self.unit
        for _ in range(self.relative_precision):
            out.append(u % self.prime)
            u //= self.prime
        return out

    def compact(self) -> str:
        """Compact rendering ``u*p^v + O(p^N)``."""
        p, n = self.prime, self.precision
        if self.is_zero:
            return f"O({p}^{n})"
        return f"{self.unit}*{p}^{self.valuation} + O({p}^{n})"

    def __str__(self):
        p, n = self.prime, self.precision
        if self.is_zero:
            return f"O({p}^{n})"
        terms = []
        for i, d in enumerate(self.digits()):
            if d == 0:
                continue
            e = self.valuation + i
            if e == 0:
                terms.append(f"{d}")
            elif e == 1:
                terms.append(f"{d}*{p}")
            else:
                terms.append(f"{d}*{p}^{e}")
        return " + ".join(terms) + f" + O({p}^{n})"

    def __repr__(self):
        return f"PadicNumber({self.compact()})"


_TERM_RE = re.compile(
    r"""^\s*(?P<coeff>\d+)\s*(?:\*\s*(?P<base>\d+)\s*(?:\^\s*(?P<exp>~?\d+))?)?\s*$"""
)
_BIGO_RE = re.compile(r"""^\s*O\(\s*(?P<base>\d+)\s*\^\s*(?P<prec>~?\d+)\s*\)\s*$""")


def _signed(token: str) -> int:
    return int(token.replace("~", "-"))


def parse_padic(text: str, prime: int | None = None) -> PadicNumber:
    """Parse the digit-expansion or compact textual forms.

    Accepts ``d0 + d1*p + ... + O(p^N)`` and ``u*p^v + O(p^N)`` with the
    numeral value of p written out, e.g. ``"3 + 2*7 + O(7^5)"``.
    """
    # Protect exponent minus signs before splitting the sum into terms.
    text = text.replace("^-", "^~")
    parts = [s.strip() for s in text.replace("-", "+-").split("+") if s.strip()]
    if not parts:
        raise ValueError(f"empty p-adic literal: {text!r}")
    m = _BIGO_RE.match(parts[-1])
    if m is None:
        raise ValueError(f"missing O(p^N) term in p-adic literal: {text!r}")
    base = int(m.group("base"))
    if prime is not None and base != prime:
        raise PrimeMismatchError(f"literal base {base} does not match prime {prime}")
    precision = _signed(m.group("prec"))
    total = Fraction(0)
    for part in parts[:-1]:
        sign = 1
        if part.startswith("-"):
            sign, part = -1, part[1:]
        tm = _TERM_RE.match(part)
        if tm is None:
            raise ValueError(f"bad term {part!r} in p-adic literal")
        coeff = sign * int(tm.group("coeff"))
        exp = 0
        if tm.group("base") is not None:
            if int(tm.group("base")) != base:
                raise ValueError(f"mixed bases in p-adic literal: {text!r}")
            exp = _signed(tm.group("exp")) if tm.group("exp") is not None else 1
        total += Fraction(coeff) * Fraction(base) ** exp
    return PadicNumber.from_rational(
        base, total.numerator, total.denominator, precision
    )
