import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from padicnla.padics import PadicNumber
from padicnla.matrices import (
    PadicMatrix,
    condition_number,
    is_hessenberg_at_precision,
    norm,
)
from padicnla.eigen import (
    berkowitz_charpoly,
    block_schur_form,
    classical_eigen,
    eigenvalue_valuations,
    eigvecs,
    newton_polygon_slopes,
    poly_eval,
    power_iteration_decomposition,
    qp_poly_roots,
    qr_iteration,
)
from padicnla.residue import charpoly_residue

from helpers import conjugated, flat_residual, random_int_matrix


def residual_val(r):
    return min(
        (e.precision if e.is_zero else e.valuation) for row in r.rows for e in row
    )


def poly_from_roots(roots, p, nprec):
    """monic polynomial (low -> high) with the given Q_p roots."""
    cs = [PadicNumber.one(p, nprec)]
    for r in roots:
        if not isinstance(r, PadicNumber):
            fr = Fraction(r)
            r = PadicNumber.from_rational(p, fr.numerator, fr.denominator, nprec)
        new = [PadicNumber.zero(p, nprec) for _ in range(len(cs) + 1)]
        for i, c in enumerate(cs):
            new[i + 1] = new[i + 1] + c
            new[i] = new[i] - r * c
        cs = new
    return cs


def poly_mul(a, b):
    out = [None] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            t = x * y
            out[i + j] = t if out[i + j] is None else out[i + j] + t
    return out


class TestCharpoly:
    def test_vs_sympy_batch(self):
        rng = random.Random(1)
        p, nprec = 7, 10
        for _ in range(20):
            n = rng.randint(1, 5)
            rows = [[rng.randrange(-50, 50) for _ in range(n)] for _ in range(n)]
            a = PadicMatrix.from_int_rows(p, rows, nprec)
            chi = berkowitz_charpoly(a)
            sy = sympy.Poly(
                sympy.Matrix(rows).charpoly().as_expr(), sympy.Symbol("lambda")
            ).all_coeffs()[::-1]
            assert len(chi) == n + 1
            for c, s in zip(chi, sy):
                want = PadicNumber.from_int(p, int(s), nprec)
                assert c.indistinguishable(want.cap(c.precision))

    def test_division_free_on_singular(self):
        # Berkowitz needs no divisions, so exactly singular input is fine
        a = PadicMatrix.from_int_rows(7, [[1, 2], [2, 4]], 8)
        chi = berkowitz_charpoly(a)
        assert chi[0].is_zero  # det = 0
        assert chi[1].lift_int() == 7 ** 8 - 5  # trace is 5, coeff is -5
        assert chi[2].lift_int() == 1


class TestPolyRoots:
    def test_distinct_residues(self):
        p, nprec = 7, 10
        cs = poly_from_roots([1, 2, 3], p, nprec)
        rts = qp_poly_roots(cs, nprec)
        assert sorted(r.value.lift_int() for r in rts) == [1, 2, 3]
        assert all(r.multiplicity == 1 and r.precision == nprec for r in rts)

    def test_cluster_same_residue(self):
        # both roots are 1 mod p; Newton-polygon recursion must separate them
        p, nprec = 7, 10
        cs = poly_from_roots([1, 1 + p ** 2], p, nprec)
        rts = qp_poly_roots(cs, nprec)
        got = sorted(r.value.lift_int() for r in rts)
        assert got == [1, 1 + p ** 2]

    def test_double_root(self):
        p, nprec = 7, 10
        cs = poly_from_roots([3, 3], p, nprec)
        rts = qp_poly_roots(cs, nprec)
        assert sum(r.multiplicity for r in rts) == 2
        for r in rts:
            assert (r.value - PadicNumber.from_int(p, 3, nprec)).cap(
                r.precision
            ).is_zero

    def test_ignores_non_rational_factor(self):
        # (x - 2)(x^2 + 1) over Q_7; x^2 + 1 is irreducible mod 7
        p, nprec = 7, 10
        one = PadicNumber.one(p, nprec)
        quad = [one, PadicNumber.zero(p, nprec), one]
        cs = poly_mul(quad, poly_from_roots([2], p, nprec))
        rts = qp_poly_roots(cs, nprec)
        assert len(rts) == 1 and rts[0].value.lift_int() == 2

    def test_positive_valuation_roots(self):
        p, nprec = 7, 10
        cs = poly_from_roots([Fraction(p), Fraction(p * p)], p, nprec)
        rts = qp_poly_roots(cs, nprec)
        assert sorted(r.value.valuation for r in rts) == [1, 2]
        for r in rts:
            assert poly_eval(cs, r.value).is_zero

    def test_newton_polygon_slopes(self):
        p, nprec = 7, 10
        cs = poly_from_roots([Fraction(1), Fraction(p), Fraction(p ** 3)], p, nprec)
        assert newton_polygon_slopes(cs, nprec) == [
            Fraction(0),
            Fraction(1),
            Fraction(3),
        ]

    def test_slopes_capped(self):
        # x(x - 1): the zero root reads as slope N under the precision cap
        p, nprec = 7, 6
        one = PadicNumber.one(p, nprec)
        cs = [PadicNumber.zero(p, nprec), -one, one]
        assert newton_polygon_slopes(cs, nprec) == [Fraction(0), Fraction(nprec)]


def check_pairs(a, res, expect_count=None, floor=None):
    if floor is None:
        floor = a.flat_precision // 2
    for pair in res.pairs:
        assert norm(pair.vector) == 1
        av = a.mat_vec(pair.vector)
        for x, y in zip(av, pair.vector):
            assert (x - pair.value * y).is_zero
        assert pair.residual_valuation >= floor
    for blk in res.unresolved:
        r = (a @ blk.basis) - (blk.basis @ blk.operator)
        assert all(e.is_zero for row in r.rows for e in row)
    if expect_count is not None:
        assert len(res.pairs) == expect_count


class TestEigvecs:
    p, nprec = 7, 8

    def test_split_square_free_batch(self):
        rng = random.Random(11)
        for _ in range(10):
            n = rng.randint(2, 4)
            diags = rng.sample([1, 2, 3, 4, 5, 6], n)
            a, _ = conjugated(diags, self.p, self.nprec, rng)
            res = eigvecs(a)
            check_pairs(a, res, n)
            got = sorted(v.value.residue().value for v in res.pairs)
            assert got == sorted(d % self.p for d in diags)

    def test_repeated_residue_distinct_eigenvalues(self):
        rng = random.Random(11)
        p = self.p
        a, _ = conjugated([1, 1 + p, 3], p, self.nprec, rng)
        res = eigvecs(a)
        check_pairs(a, res)
        vals = {v.value.lift_int() % p ** 4 for v in res.pairs}
        assert {1, 1 + p, 3} <= vals

    def test_jordan_block(self):
        rng = random.Random(12)
        a, _ = conjugated(sympy.Matrix([[1, 1], [0, 1]]), self.p, self.nprec, rng)
        res = eigvecs(a)
        check_pairs(a, res)
        # defective: a single eigenvector (or an unresolved 2x2 block)
        assert len(res.pairs) + sum(b.operator.nrows for b in res.unresolved) <= 2

    def test_irreducible_residue_block(self):
        # companion of x^2 + 1, irreducible mod 7: no Q_7 eigenvalues
        a = PadicMatrix.from_int_rows(self.p, [[0, -1], [1, 0]], self.nprec)
        res = eigvecs(a)
        assert res.pairs == []
        assert len(res.unresolved) == 1
        check_pairs(a, res)

    def test_mixed_rational_and_irreducible(self):
        rng = random.Random(13)
        m = sympy.Matrix([[2, 0, 0], [0, 0, -1], [0, 1, 0]])
        a, _ = conjugated(m, self.p, self.nprec, rng)
        res = eigvecs(a)
        check_pairs(a, res, 1)
        assert res.pairs[0].value.lift_int() == 2
        assert len(res.unresolved) == 1
        assert res.unresolved[0].operator.nrows == 2

    def test_p_divisible_rescale(self):
        rng = random.Random(13)
        m = sympy.Matrix([[2, 0, 0], [0, 0, -1], [0, 1, 0]])
        a, _ = conjugated(m, self.p, self.nprec, rng)
        a2 = a.shift(2).cap(self.nprec)
        res = eigvecs(a2)
        assert len(res.pairs) == 1
        v0 = res.pairs[0].value
        assert v0.valuation == 2 and v0.unit % self.p == 2

    def test_nilpotent_at_precision(self):
        a = PadicMatrix.from_int_rows(self.p, [[0, 1], [0, 0]], self.nprec)
        res = eigvecs(a)
        check_pairs(a, res)
        assert all(pr.value.is_zero for pr in res.pairs)

    def test_fuzz_invariants(self):
        rng = random.Random(99)
        for _ in range(25):
            p = rng.choice([3, 5, 7])
            n = rng.randint(1, 4)
            rows = [[rng.randrange(-20, 20) for _ in range(n)] for _ in range(n)]
            a = PadicMatrix.from_int_rows(p, rows, 6)
            check_pairs(a, eigvecs(a), floor=1)


class TestPowerIteration:
    def test_split_square_free_blocks(self):
        rng = random.Random(21)
        p, nprec = 7, 8
        a, _ = conjugated([1, 2, 3], p, nprec, rng)
        chi = charpoly_residue(a.to_residue())
        blocks = power_iteration_decomposition(a, chi)
        assert len(blocks) == 3
        for blk in blocks:
            assert blk.basis.ncols == 1
            r = (a @ blk.basis) - (blk.basis @ blk.operator)
            assert all(e.is_zero for row in r.rows for e in row)

    def test_cofactor_block_for_irreducible_part(self):
        # diag(2) + companion of x^2 + 1: one rational block, one cofactor
        rng = random.Random(22)
        m = sympy.Matrix([[2, 0, 0], [0, 0, -1], [0, 1, 0]])
        a, _ = conjugated(m, 7, 8, rng)
        chi = charpoly_residue(a.to_residue())
        blocks = power_iteration_decomposition(a, chi)
        assert sorted(b.basis.ncols for b in blocks) == [1, 2]
        for blk in blocks:
            r = (a @ blk.basis) - (blk.basis @ blk.operator)
            assert all(e.is_zero for row in r.rows for e in row)


class TestQRIteration:
    def test_split_square_free_triangularizes(self):
        rng = random.Random(5)
        p, nprec = 5, 8
        for _ in range(8):
            n = rng.randint(2, 4)
            diags = rng.sample([1, 2, 3, 4], n)
            a, _ = conjugated(diags, p, nprec, rng)
            b, v = qr_iteration(a)
            assert residual_val((a @ v) - (v @ b)) >= nprec
            assert condition_number(v) == 1
            for i in range(1, n):
                for j in range(i):
                    e = b[i, j]
                    assert e.is_zero or e.valuation >= nprec
            got = sorted(b[i, i].residue().value for i in range(n))
            assert got == sorted(d % p for d in diags)


class TestBlockSchur:
    p, nprec = 5, 8

    def test_mixed_blocks(self):
        rng = random.Random(6)
        # diag(1, 2) + companion of x^2 + 2 (irreducible mod 5)
        m = sympy.Matrix([[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 0, -2], [0, 0, 1, 0]])
        a, _ = conjugated(m, self.p, self.nprec, rng)
        sd = block_schur_form(a)
        assert sd.residual_valuation >= self.nprec
        assert condition_number(sd.v) == 1
        sizes = sorted(
            e - s for s, e in zip(sd.block_boundaries, sd.block_boundaries[1:])
        )
        assert sizes == [1, 1, 2]

    def test_pure_power_block_refined(self):
        rng = random.Random(7)
        p = self.p
        a, _ = conjugated([1, 1 + p ** 2, 3], p, self.nprec, rng)
        sd = block_schur_form(a)
        r = (a @ sd.v) - (sd.v @ sd.t)
        assert all(e.is_zero for row in r.rows for e in row)
        assert condition_number(sd.v) == 1

    def test_jordan_block_stays_together(self):
        rng = random.Random(8)
        a, _ = conjugated(sympy.Matrix([[2, 1], [0, 2]]), self.p, self.nprec, rng)
        sd = block_schur_form(a)
        r = (a @ sd.v) - (sd.v @ sd.t)
        assert all(e.is_zero for row in r.rows for e in row)

    def test_block_of_negative_valuation_has_no_residue(self):
        p, nprec = self.p, self.nprec
        zero = PadicNumber.zero(p, nprec)
        a = PadicMatrix(p, [[PadicNumber.from_int(p, 1, nprec).shift(-1), zero],
                            [zero, PadicNumber.from_int(p, 2, nprec)]])
        sd = block_schur_form(a)
        assert sd.block_residues == [(None, 1), (2, 1)]

    def test_split_output_is_hessenberg(self):
        rng = random.Random(9)
        a, _ = conjugated([1, 2, 3, 4], self.p, self.nprec, rng)
        sd = block_schur_form(a)
        assert is_hessenberg_at_precision(sd.t)
        assert sd.residual_valuation >= self.nprec


class TestEigenvalueValuations:
    def test_vs_newton_polygon_batch(self):
        rng = random.Random(3)
        p, nprec = 5, 8
        for _ in range(30):
            n = rng.randint(2, 4)
            rows = [[rng.randrange(-30, 30) for _ in range(n)] for _ in range(n)]
            a = PadicMatrix.from_int_rows(p, rows, nprec)
            got = eigenvalue_valuations(a)
            want = newton_polygon_slopes(berkowitz_charpoly(a), nprec)
            assert got == want

    def test_non_diagonal_dominant_case(self):
        # [[p, 0], [1, 1]]: a single similarity round is not enough here
        p = 5
        a = PadicMatrix.from_int_rows(p, [[p, 0], [1, 1]], 8)
        assert eigenvalue_valuations(a) == [Fraction(0), Fraction(1)]

    def test_diagonal_powers(self):
        p = 5
        a = PadicMatrix.from_int_rows(p, [[1, 0, 0], [0, p, 0], [0, 0, p ** 2]], 8)
        assert eigenvalue_valuations(a) == [Fraction(0), Fraction(1), Fraction(2)]

    def test_unramified_irreducible(self):
        a = PadicMatrix.from_int_rows(5, [[0, -2], [1, 0]], 8)
        assert eigenvalue_valuations(a) == [Fraction(0), Fraction(0)]

    def test_ramified_half_valuations(self):
        # companion of x^2 - p: both eigenvalues have valuation 1/2
        p = 5
        a = PadicMatrix.from_int_rows(p, [[0, p], [1, 0]], 8)
        assert eigenvalue_valuations(a) == [Fraction(1, 2), Fraction(1, 2)]


@st.composite
def small_matrices(draw):
    p = draw(st.sampled_from([3, 7]))
    n = draw(st.integers(min_value=1, max_value=3))
    rows = draw(
        st.lists(
            st.lists(st.integers(min_value=-30, max_value=30), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
    return PadicMatrix.from_int_rows(p, rows, 6)


class TestProperties:
    @settings(max_examples=30, deadline=None)
    @given(small_matrices())
    def test_eigvecs_residuals_vanish(self, a):
        # degenerate inputs can honestly erode the certified precision,
        # so only the "residual indistinguishable from zero" invariant
        # is demanded here
        check_pairs(a, eigvecs(a), floor=0)

    @settings(max_examples=30, deadline=None)
    @given(small_matrices())
    def test_charpoly_trace_and_det(self, a):
        chi = berkowitz_charpoly(a)
        n = a.nrows
        tr = a[0, 0]
        for i in range(1, n):
            tr = tr + a[i, i]
        assert (chi[n - 1] + tr).is_zero  # coefficient of x^(n-1) is -trace
