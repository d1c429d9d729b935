import itertools
import random
import warnings

import pytest

from padicnla.padics import PadicNumber
from padicnla.matrices import qr
from padicnla.mpoly import parse_system
from padicnla.eigen import berkowitz_charpoly
from padicnla.solver import (
    IllConditionedWarning,
    SolverError,
    cokernel,
    macaulay_degree,
    macaulay_matrix,
    solve_system,
    truncated_normal_form,
)

from helpers import grid_system


SQRT2_SYSTEM = "p=7 prec=6 vars=x,y\nx^2 - 2\ny - x\n"


class TestMacaulay:
    def test_degree_formula(self):
        assert macaulay_degree([2, 2]) == 3
        assert macaulay_degree([1, 1, 1]) == 1
        assert macaulay_degree([3, 2]) == 4

    def test_default_degree_and_shape(self):
        sf = parse_system(SQRT2_SYSTEM)
        msys = macaulay_matrix(sf.polynomials)
        assert msys.degree == 2  # (2-1) + (1-1) + 1
        msys3 = macaulay_matrix(sf.polynomials, 3)
        # rows: f1 shifted through degree 1, f2 through degree 2
        assert msys3.matrix.nrows == 3 + 6
        assert msys3.matrix.ncols == 10  # dim of degree <= 3 in 2 vars

    def test_cokernel_dimension(self):
        sf = parse_system(SQRT2_SYSTEM)
        assert cokernel(macaulay_matrix(sf.polynomials)).nrows == 2
        assert cokernel(macaulay_matrix(sf.polynomials, 3)).nrows == 2

    def test_no_solutions_raises(self):
        # x = 1 and x = 2 simultaneously: empty variety
        sf = parse_system("p=7 prec=6 vars=x\nx - 1\nx - 2\n")
        with pytest.raises(SolverError) as e:
            solve_system(sf.polynomials, seed=0)
        assert e.value.kind == "no-solutions"


class TestNormalForm:
    def test_multiplication_operator_charpoly(self):
        sf = parse_system(SQRT2_SYSTEM)
        tnf = truncated_normal_form(sf.polynomials)
        assert tnf.pivot_valuations == [0, 0]
        # the multiplication-by-x operator satisfies x^2 = 2
        chi = berkowitz_charpoly(tnf.operators[0])
        two = PadicNumber.from_int(7, 2, 6)
        assert (chi[0] + two).is_zero
        assert chi[1].is_zero
        assert (chi[2] - PadicNumber.one(7, 6)).is_zero

    def test_operators_commute(self):
        sf = parse_system(SQRT2_SYSTEM)
        tnf = truncated_normal_form(sf.polynomials)
        x, y = tnf.operators
        comm = x @ y - y @ x
        assert all(e.is_zero for row in comm.rows for e in row)


class TestSolve:
    def test_square_root_system(self):
        sf = parse_system(SQRT2_SYSTEM)
        ss = solve_system(sf.polynomials, seed=5)
        assert len(ss.points) == 2
        assert sorted(pt.coordinates[0].residue().value for pt in ss.points) == [3, 4]
        two = PadicNumber.from_int(7, 2, 6)
        for pt in ss.points:
            assert (pt.coordinates[0] - pt.coordinates[1]).is_zero
            assert pt.residual_valuation >= 5
            assert (pt.coordinates[0] * pt.coordinates[0] - two).is_zero

    def test_linear_system(self):
        sf = parse_system("p=7 prec=6 vars=x,y\nx - 3\ny - 4\n")
        ss = solve_system(sf.polynomials, seed=1)
        assert len(ss.points) == 1
        assert ss.points[0].coordinates[0].lift_int() == 3
        assert ss.points[0].coordinates[1].lift_int() == 4
        assert ss.points[0].residual_valuation >= 6

    def test_degenerate_double_point(self):
        sf = parse_system("p=7 prec=6 vars=x\nx^2\nx\n")
        ss = solve_system(sf.polynomials, seed=1)
        assert ss.delta == 1
        assert len(ss.points) == 1
        assert ss.points[0].coordinates[0].is_zero

    def test_seed_determinism(self):
        sf = parse_system(SQRT2_SYSTEM)
        a = solve_system(sf.polynomials, seed=3)
        b = solve_system(sf.polynomials, seed=3)
        assert len(a.points) == len(b.points)
        for x, y in zip(a.points, b.points):
            for cx, cy in zip(x.coordinates, y.coordinates):
                assert cx.indistinguishable(cy)

    def test_construct_then_solve_batch(self):
        rng = random.Random(77)
        for trial in range(8):
            p = rng.choice([7, 11, 13])
            nprec = 8
            n = rng.randint(1, 3)
            sizes = [rng.randint(1, 2) for _ in range(n)]
            root_lists = [
                [a + p * rng.randrange(p ** 3) for a in rng.sample(range(1, p), m)]
                for m, _ in zip(sizes, range(n))
            ]
            polys = grid_system(p, nprec, root_lists)
            ss = solve_system(polys, seed=trial)
            expected = list(itertools.product(*root_lists))
            assert ss.delta == len(expected)
            assert len(ss.points) == len(expected)
            # Macaulay exactness: rank(Res) + delta = dim V_D
            msys = macaulay_matrix(polys)
            f = qr(msys.matrix)
            assert len(f.pivots) + ss.delta == msys.matrix.ncols
            modulus = p ** (nprec - 3)
            want = {tuple(x % modulus for x in e) for e in expected}
            for pt in ss.points:
                got = tuple(c.lift_int() % modulus for c in pt.coordinates)
                assert got in want
                assert pt.residual_valuation >= nprec - 3

    def test_permutation_of_equations_same_points(self):
        sf = parse_system(SQRT2_SYSTEM)
        a = solve_system(sf.polynomials, seed=2)
        b = solve_system(list(reversed(sf.polynomials)), seed=2)
        got_a = sorted(pt.coordinates[0].lift_int() for pt in a.points)
        got_b = sorted(pt.coordinates[0].lift_int() for pt in b.points)
        assert got_a == got_b


class TestWarnings:
    def test_fuzzy_singular_values_warn(self):
        # f = x - p^3 scaled by p: the Macaulay matrix has a singular
        # value of valuation strictly between 0 and N
        sf = parse_system("p=7 prec=6 vars=x\n7*x - 343\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ss = solve_system(sf.polynomials, seed=0)
        ill = [w.message for w in caught if isinstance(w.message, IllConditionedWarning)]
        assert [w.valuations for w in ill] == [[1]]
        assert len(ss.points) == 1
