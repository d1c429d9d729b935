import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from padicnla.padics import (
    DomainError,
    PadicNumber,
    PrecisionError,
    PrimeMismatchError,
    parse_padic,
)


def N(p, value, prec):
    return PadicNumber.from_int(p, value, prec)


class TestPrecisionRules:
    def test_add_keeps_min_absolute_precision(self):
        a = N(7, 2, 5)
        b = N(7, 3, 3)
        c = a + b
        assert c.precision == 3
        assert c.lift_int() == 5

    def test_cancellation_shrinks_relative_precision(self):
        # (1 + 7^99) - 1 at absolute precision 100: one significant digit left
        a = N(7, 1 + 7 ** 99, 100)
        b = N(7, 1, 100)
        c = a - b
        assert c.valuation == 99
        assert c.precision == 100
        assert c.relative_precision == 1

    def test_division_can_leave_no_digits(self):
        # ((1 + 7^99) - 1) / (7^100 known to 7^200) = 7^{-1} with zero
        # relative digits: O(7^0) around valuation -1
        num = N(7, 1 + 7 ** 99, 100) - N(7, 1, 100)
        den = PadicNumber.from_unit(7, 100, 1, 200)
        q = num / den
        assert q.valuation == -1
        assert q.precision == 0
        assert q.relative_precision == 1

    def test_mul_by_unit_keeps_absolute_precision(self):
        u = PadicNumber.from_unit(7, 0, 3, 9)
        a = N(7, 12, 4)
        assert (u * a).precision == 4

    def test_exact_p_shift_raises_absolute_precision(self):
        a = N(7, 12, 4)
        b = a.shift(1)
        assert b.precision == 5
        assert b.valuation == a.valuation + 1

    def test_prime_mismatch(self):
        with pytest.raises(PrimeMismatchError):
            N(5, 1, 3) + N(7, 1, 3)

    def test_division_by_inexact_zero(self):
        z = PadicNumber.zero(7, 4)
        with pytest.raises(PrecisionError) as exc:
            N(7, 1, 6) / z
        assert exc.value.precision == 4


class TestInexactZero:
    def test_first_class(self):
        z = PadicNumber.zero(7, 5)
        assert z.is_zero
        assert z.valuation == 5
        assert z.precision == 5

    def test_indistinguishable_is_not_equality(self):
        a = N(7, 3, 2)
        b = N(7, 3 + 49, 4)
        assert a.indistinguishable(b)
        assert a != b  # different stored precision


class TestSqrt:
    def test_sqrt_two_leading_digit(self):
        # Hensel lift of 3 (3^2 = 9 = 2 mod 7); frozen full expansion:
        # 38181^2 = 1457788761 = 2 + 12391580*7^6
        s = N(7, 2, 6).sqrt()
        assert s.lift_int() == 38181
        assert 38181 ** 2 % 7 ** 6 == 2

    def test_sqrt_square_relation(self):
        a = N(7, 2, 6)
        s = a.sqrt()
        assert (s * s - a).is_zero

    def test_sqrt_one(self):
        one = PadicNumber.one(7, 8)
        assert one.sqrt() == one

    def test_sqrt_even_valuation(self):
        a = N(7, 49, 6)
        s = a.sqrt()
        assert s.valuation == 1
        assert s.precision == 5  # relative precision preserved

    def test_sqrt_rejects_odd_valuation(self):
        with pytest.raises(DomainError):
            N(7, 7, 6).sqrt()

    def test_sqrt_rejects_nonresidue(self):
        # 3 is not a square mod 7 (squares: 1, 2, 4)
        with pytest.raises(DomainError):
            N(7, 3, 6).sqrt()

    def test_sign_convention_leading_digit_small(self):
        for a in (2, 4, 1, 16):
            s = N(7, a, 6).sqrt()
            assert 1 <= s.unit % 7 <= 3


class TestResidueRoundTrip:
    def test_lift_reduce(self):
        for c in range(7):
            x = PadicNumber.from_int(7, c, 5)
            assert x.residue().value == c

    def test_reduce_examples(self):
        assert N(7, 7, 3).residue().value == 0
        assert N(7, 4 + 7 * 3, 2).residue().value == 4

    def test_reduce_negative_valuation_rejected(self):
        x = PadicNumber.from_unit(7, -1, 3, 4)
        with pytest.raises(DomainError):
            x.residue()


class TestParsing:
    @pytest.mark.parametrize("text,val,prec", [
        ("3 + 1*7 + O(7^3)", 10, 3),
        ("2*7^2 + O(7^5)", 98, 5),
        ("O(7^4)", 0, 4),
    ])
    def test_parse_forms(self, text, val, prec):
        x = parse_padic(text, 7)
        assert x.precision == prec
        if val:
            assert x.lift_int() == val
        else:
            assert x.is_zero

    def test_parse_negative_valuation(self):
        x = parse_padic("3*7^-2 + O(7^1)", 7)
        assert x.valuation == -2
        assert x.unit % 7 == 3

    def test_str_round_trip(self):
        x = PadicNumber.from_unit(7, 1, 38181, 7)
        assert parse_padic(str(x), 7) == x


small_primes = st.sampled_from([3, 5, 7, 11])


@st.composite
def padic_numbers(draw, prime=None):
    p = prime if prime is not None else draw(small_primes)
    prec = draw(st.integers(min_value=1, max_value=12))
    value = draw(st.integers(min_value=-(p ** prec), max_value=p ** prec))
    shift = draw(st.integers(min_value=-3, max_value=3))
    return PadicNumber.from_int(p, value, prec).shift(shift)


class TestNormProperties:
    @given(st.data())
    def test_norm_multiplicative(self, data):
        p = data.draw(small_primes)
        a = data.draw(padic_numbers(prime=p))
        b = data.draw(padic_numbers(prime=p))
        prod = a * b
        if not (a.is_zero or b.is_zero or prod.is_zero):
            assert prod.norm() == a.norm() * b.norm()

    @given(st.data())
    def test_ultrametric(self, data):
        p = data.draw(small_primes)
        a = data.draw(padic_numbers(prime=p))
        b = data.draw(padic_numbers(prime=p))
        s = a + b
        if not s.is_zero:
            assert s.norm() <= max(a.norm(), b.norm())

    @given(st.data())
    def test_add_precision_exact(self, data):
        p = data.draw(small_primes)
        a = data.draw(padic_numbers(prime=p))
        b = data.draw(padic_numbers(prime=p))
        assert (a + b).precision == min(a.precision, b.precision)

    @given(st.data())
    def test_mul_relative_precision(self, data):
        p = data.draw(small_primes)
        a = data.draw(padic_numbers(prime=p))
        b = data.draw(padic_numbers(prime=p))
        c = a * b
        if not (a.is_zero or b.is_zero):
            assert c.relative_precision == min(
                a.relative_precision, b.relative_precision
            )


def assert_zero_invariant(x):
    if x.is_zero:
        assert x.valuation == x.precision
    else:
        assert x.valuation < x.precision


class TestInexactZeroInvariant:
    """An inexact zero O(p^N) is stored with valuation N, every other value
    with valuation below its precision; the library reads ``valuation``
    as "valuation, or precision for an inexact zero" on that basis."""

    @given(st.data())
    def test_operations_keep_invariant(self, data):
        p = data.draw(small_primes)
        a = data.draw(padic_numbers(prime=p))
        b = data.draw(padic_numbers(prime=p))
        k = data.draw(st.integers(min_value=-4, max_value=4))
        n = data.draw(st.integers(min_value=-2, max_value=16))
        results = [a, b, a + b, a - b, a * b, a.shift(k), a.cap(n), a.with_precision(n)]
        if not b.is_zero:
            results.append(a / b)
        for x in results:
            assert_zero_invariant(x)
