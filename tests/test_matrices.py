import math
import random
from fractions import Fraction

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form
from hypothesis import example, given, settings, strategies as st

from padicnla import matrices
from padicnla.padics import DomainError, PadicNumber
from padicnla.matrices import (
    PadicMatrix,
    SingularMatrixError,
    _int_rows,
    _kernel_rows,
    _qr_core,
    _qr_ints,
    condition_number,
    hessenberg,
    householder,
    inverse,
    is_hessenberg_at_precision,
    norm,
    nullspace_mod_pN,
    qr,
    read_matrix,
    solve,
    svd,
    write_matrix,
)

from helpers import (flat_residual, rand_unimodular, random_int_matrix,
                     reference_qr, smith_product)

# the Smith exponents of the benchmark's factor workload
FACTOR_EXPONENTS = (1, 1, 2, 2, 3, 5, 9, 12)


def residual_flat(a, b):
    """flat precision of a - b, counting inexact zeros at their precision."""
    r = a - b
    return min(
        (e.precision if e.is_zero else e.valuation) for row in r.rows for e in row
    )


class TestQR:
    @pytest.mark.parametrize("column_pivot", [False, True])
    def test_contract_batch(self, column_pivot):
        rng = random.Random(17)
        for _ in range(25):
            p = rng.choice([7, 31])
            n = rng.randrange(2, 7)
            nprec = 10
            a = random_int_matrix(n, p, nprec, rng, val_choices=(0, 0, 1, 2))
            f = qr(a, column_pivot=column_pivot)
            # Non-unit pivots genuinely limit how well the factors are
            # determined: normalising a p^v pivot costs up to v digits.
            slack = sum(f.r[i, j].valuation for i, j in f.pivots)
            assert residual_flat(f.reconstruct(), a) >= nprec - slack
            if slack == 0:
                assert residual_flat(f.reconstruct(), a) >= nprec
            assert f.q.is_integral()
            assert condition_number(f.q) == 1
            # Hermite form: pivots are powers of p, entries above reduced
            for i, j in f.pivots:
                piv = f.r[i, j]
                assert piv.unit == 1
                for k in range(i):
                    e = f.r[k, j]
                    if not e.is_zero:
                        assert e.valuation < piv.valuation or (
                            e.lift_int() < p ** piv.valuation
                        )

    @pytest.mark.parametrize("exponents, seed", [([9, 1, 0], 60), ([1, 2, 9], 3)])
    def test_non_unit_pivots_keep_flat_precision(self, exponents, seed):
        # Non-unit pivots cost digits in Q and R; the factors must still
        # come back certified to N and reproduce A mod p^N exactly.
        p, nprec = 3, 8
        ints = smith_product(exponents, p, random.Random(seed))
        f = qr(PadicMatrix.from_int_rows(p, ints, nprec))
        assert all(e.precision == nprec for x in (f.q, f.qinv, f.r)
                   for row in x.rows for e in row)
        q = sympy.Matrix([[e.lift_int() for e in row] for row in f.q.rows])
        r = sympy.Matrix([[e.lift_int() for e in row] for row in f.r.rows])
        diff = q * r - sympy.Matrix(ints)
        assert all(x % p ** nprec == 0 for x in diff)

    def test_column_pivoted_calls_run_the_elimination_once(self, monkeypatch):
        # Column pivoting costs R no digit and Q, Qinv at most the largest
        # pivot valuation (< N), so one run at W = 2N - 1 is certified,
        # here with pivots of valuation up to 5 at N = 8.
        p, nprec = 3, 8
        exponents = (0,) * 8 + FACTOR_EXPONENTS
        a = PadicMatrix.from_int_rows(
            p, smith_product(exponents, p, random.Random(5)), nprec)
        works = []

        def counted(ints, p_, work, *args):
            works.append(work)
            return _qr_core(ints, p_, work, *args)

        monkeypatch.setattr(matrices, "_qr_core", counted)
        f = qr(a, column_pivot=True)
        assert works == [2 * nprec - 1]
        assert max(f.r[i, j].valuation for i, j in f.pivots) == 5
        for call in (lambda: svd(a), lambda: _kernel_rows(a, nprec)):
            works.clear()
            call()
            assert works == [2 * nprec - 1]
        # without column pivoting the same input needs a rerun
        works.clear()
        qr(a)
        assert len(works) > 1

    def test_singular_rows_sort_to_bottom(self):
        p, nprec = 7, 8
        a = PadicMatrix.from_int_rows(p, [[1, 2], [7, 14]], nprec)
        f = qr(a)
        # rank 1 at this precision: one pivot, bottom row indistinguishable
        # from zero
        assert len(f.pivots) == 1
        assert all(e.is_zero for e in f.r.rows[1])


class TestConditionNumber:
    def test_unimodular(self):
        rng = random.Random(5)
        u = rand_unimodular(4, rng)
        a = PadicMatrix.from_int_rows(
            7, [[int(u[i, j]) for j in range(4)] for i in range(4)], 8
        )
        assert condition_number(a) == 1

    def test_diagonal_powers(self):
        a = PadicMatrix.from_int_rows(7, [[1, 0], [0, 7 ** 3]], 8)
        assert condition_number(a) == Fraction(7 ** 3)

    def test_singular(self):
        a = PadicMatrix.from_int_rows(7, [[1, 2], [2, 4]], 8)
        assert condition_number(a) == math.inf


class TestSVD:
    def test_smith_oracle_batch(self):
        rng = random.Random(23)
        for _ in range(20):
            p = rng.choice([3, 7, 11])
            n = rng.randrange(1, 6)
            m = rng.randrange(1, 6)
            rows = [[rng.randrange(-40, 40) for _ in range(m)] for _ in range(n)]
            a = PadicMatrix.from_int_rows(p, rows, 10)
            s = svd(a)
            assert residual_flat(s.reconstruct(n, m), a) >= 10
            assert condition_number(s.u) == 1
            assert condition_number(s.v) == 1
            # oracle: p-valuations of the integer Smith invariants
            snf = smith_normal_form(sympy.Matrix(rows))
            want = []
            for i in range(min(n, m)):
                d = int(snf[i, i])
                if d == 0:
                    want.append(None)
                else:
                    v = 0
                    while d % p == 0:
                        d //= p
                        v += 1
                    want.append(min(v, 10))
            got = [
                None if (x.is_zero or x.valuation >= 10) else x.valuation
                for x in s.sigma
            ]
            assert sorted(got, key=lambda t: (t is None, t)) == sorted(
                want, key=lambda t: (t is None, t)
            )

    def test_example_unit_invariants(self):
        a = PadicMatrix.from_int_rows(7, [[2, 4], [6, 8]], 8)
        s = svd(a)
        assert [x.valuation for x in s.sigma] == [0, 0]

    def test_invariance_under_unimodular_sandwich(self):
        rng = random.Random(3)
        rows = [[2, 4, 8], [0, 14, 7], [1, 0, 49]]
        a = PadicMatrix.from_int_rows(7, rows, 8)
        base = sorted(x.valuation for x in svd(a).sigma)
        for _ in range(3):
            u = rand_unimodular(3, rng)
            w = rand_unimodular(3, rng)
            m = u * sympy.Matrix(rows) * w
            b = PadicMatrix.from_int_rows(
                7, [[int(m[i, j]) for j in range(3)] for i in range(3)], 8
            )
            assert sorted(x.valuation for x in svd(b).sigma) == base


def _valuation(d, p):
    """p-adic valuation of a nonzero integer; None for 0."""
    if d == 0:
        return None
    v = 0
    while d % p == 0:
        d //= p
        v += 1
    return v


@st.composite
def kernel_inputs(draw):
    """(p, exact integer U diag(p^k) V with U, V unimodular, flat
    precision N, precision <= N); some k are positive and some reach
    the precision."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(min_value=1, max_value=5))
    m = draw(st.integers(min_value=1, max_value=5))
    nflat = draw(st.integers(min_value=1, max_value=6))
    precision = draw(st.integers(min_value=1, max_value=nflat))
    exponents = draw(st.lists(st.integers(min_value=0, max_value=nflat + 2),
                              min_size=min(n, m), max_size=min(n, m)))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2 ** 16)))
    d = sympy.zeros(n, m)
    for i, k in enumerate(exponents):
        d[i, i] = p ** k
    a = rand_unimodular(n, rng) * d * rand_unimodular(m, rng)
    return p, [[int(x) for x in a.row(i)] for i in range(n)], nflat, precision


class TestNullspaceSolve:
    @settings(max_examples=120, deadline=None)
    @given(kernel_inputs())
    def test_nullspace_matches_smith_oracle(self, case):
        p, ints, nflat, precision = case
        n, m = len(ints), len(ints[0])
        k = nullspace_mod_pN(PadicMatrix.from_int_rows(p, ints, nflat), precision)
        snf = smith_normal_form(sympy.Matrix(ints))
        vals = [_valuation(int(snf[i, i]), p) for i in range(min(n, m))]
        want = sum(v is None or v >= precision for v in vals) + m - min(n, m)
        assert k.nrows == m and k.ncols == want
        if not want:
            return
        assert all(e.precision == precision for row in k.rows for e in row)
        kint = sympy.Matrix([[e.lift_int() for e in row] for row in k.rows])
        assert all(x % p ** precision == 0 for x in sympy.Matrix(ints) * kint)
        # K mod p has full column rank: no Smith invariant of K is divisible by p
        ksnf = smith_normal_form(kint)
        assert all(int(ksnf[j, j]) % p for j in range(want))

    def test_nullspace_annihilates(self):
        rng = random.Random(41)
        for _ in range(10):
            p, nprec, n = 7, 8, rng.randrange(2, 5)
            rows = [[rng.randrange(-20, 20) for _ in range(n)] for _ in range(n)]
            rows[-1] = [x * p ** nprec for x in rows[0]]  # force a kernel vector
            a = PadicMatrix.from_int_rows(p, rows, nprec).transpose()
            k = nullspace_mod_pN(a, nprec)
            if k.ncols == 0:
                continue
            prod = a @ k
            assert all(
                e.is_zero or e.valuation >= nprec for row in prod.rows for e in row
            )

    def test_construct_then_solve(self):
        rng = random.Random(8)
        p, nprec = 7, 10
        v = random_int_matrix(3, p, nprec, rng)
        x = random_int_matrix(3, p, nprec, rng)
        b = v @ x
        got = solve(v, b)
        assert residual_flat(v @ got, b) >= nprec - condition_number_slack(v)

    def test_inconsistent_raises(self):
        p, nprec = 7, 8
        v = PadicMatrix.from_int_rows(p, [[1], [2]], nprec)
        b = PadicMatrix.from_int_rows(p, [[0], [1]], nprec)
        with pytest.raises(SingularMatrixError):
            solve(v, b)

    def test_inverse_round_trip(self):
        rng = random.Random(2)
        u = rand_unimodular(4, rng)
        a = PadicMatrix.from_int_rows(
            7, [[int(u[i, j]) for j in range(4)] for i in range(4)], 8
        )
        ai = inverse(a)
        prod = a @ ai
        ident = PadicMatrix.identity(7, 4, 8)
        assert residual_flat(prod, ident) >= 8


def condition_number_slack(v):
    k = condition_number(v)
    if k == math.inf:
        return 10 ** 6
    return 0 if k == 1 else int(math.log(k, v.prime))


class TestHouseholder:
    def _random_admissible(self, rng, p, n, nprec):
        # unique minimal valuation, not in the first coordinate
        pos = rng.randrange(1, n)
        vals = []
        for i in range(n):
            if i == pos:
                vals.append(0)
            else:
                vals.append(rng.randrange(1, 4))
        x = [
            PadicNumber.from_int(p, rng.randrange(1, p ** 4) * p ** v, nprec)
            for v in vals
        ]
        # make sure the minimum is unique and x^T x is a square times unit:
        return x

    def test_lemma_properties_batch(self):
        rng = random.Random(97)
        count = 0
        while count < 50:
            p = rng.choice([7, 11])
            n = rng.randrange(2, 5)
            nprec = 10
            x = self._random_admissible(rng, p, n, nprec)
            try:
                h, alpha = householder(x)
            except DomainError:
                continue  # e.g. x^T x not a square; not admissible
            count += 1
            assert h.is_integral()
            ident = PadicMatrix.identity(p, n, nprec)
            assert residual_flat(h @ h, ident) >= nprec - 2
            hx = h.mat_vec(x)
            assert not hx[0].is_zero and (hx[0] - alpha).is_zero
            for e in hx[1:]:
                assert e.is_zero

    def test_rejects_min_in_first_coordinate(self):
        p, nprec = 7, 8
        x = [PadicNumber.from_int(p, 1, nprec), PadicNumber.from_int(p, 7, nprec)]
        with pytest.raises(DomainError):
            householder(x)


class TestHessenberg:
    def test_similarity_and_shape(self):
        rng = random.Random(13)
        for _ in range(8):
            p = rng.choice([7, 11])
            n = rng.randrange(2, 6)
            nprec = 8
            a = random_int_matrix(n, p, nprec, rng)
            b, v = hessenberg(a)
            assert is_hessenberg_at_precision(b)
            assert condition_number(v) == 1
            assert flat_residual(a, v, b) >= nprec


class TestFileFormat:
    def test_round_trip(self):
        rng = random.Random(55)
        a = random_int_matrix(3, 7, 6, rng, val_choices=(0, 1))
        b = read_matrix(write_matrix(a))
        assert residual_flat(a, b) >= 6
        assert b.flat_precision == a.flat_precision

    def test_negative_valuation_entries(self):
        p = 7
        x = PadicNumber.from_unit(p, -2, 3, 4)
        a = PadicMatrix(p, [[x, PadicNumber.one(p, 4)]])
        b = read_matrix(write_matrix(a))
        assert b[0, 0].valuation == -2
        assert (b[0, 0] - x).is_zero


@st.composite
def integral_matrices(draw):
    p = draw(st.sampled_from([3, 7]))
    n = draw(st.integers(min_value=1, max_value=4))
    rows = draw(
        st.lists(
            st.lists(st.integers(min_value=-60, max_value=60), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
    return PadicMatrix.from_int_rows(p, rows, 8)


@st.composite
def qr_inputs(draw):
    """Products L diag(p^k) R of rank at most r, at flat or per-entry
    precision."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(min_value=1, max_value=5))
    m = draw(st.integers(min_value=1, max_value=5))
    rank = draw(st.integers(min_value=0, max_value=min(n, m)))
    nprec = draw(st.integers(min_value=1, max_value=8))
    ints = st.integers(min_value=-9, max_value=9)
    left = draw(st.lists(st.lists(ints, min_size=rank, max_size=rank),
                         min_size=n, max_size=n))
    right = draw(st.lists(st.lists(ints, min_size=m, max_size=m),
                          min_size=rank, max_size=rank))
    scale = draw(st.lists(st.integers(min_value=0, max_value=4),
                          min_size=rank, max_size=rank))
    extra = draw(st.one_of(
        st.just([[0] * m for _ in range(n)]),
        st.lists(st.lists(st.integers(min_value=0, max_value=3), min_size=m,
                          max_size=m), min_size=n, max_size=n),
    ))
    rows = [
        [
            PadicNumber.from_int(
                p,
                sum(left[i][k] * p ** scale[k] * right[k][j] for k in range(rank)),
                nprec + extra[i][j],
            )
            for j in range(m)
        ]
        for i in range(n)
    ]
    return PadicMatrix(p, rows)


class TestProperties:
    @settings(max_examples=150, deadline=None)
    @given(qr_inputs(), st.booleans(), st.booleans())
    # the reference claims a wrong Q digit here if it skips inexact-zero multipliers
    @example(PadicMatrix.from_int_rows(2, [[3, 3, 2, 1, 0], [1, 3, 3, 1, 1],
                                          [3, 3, 0, 1, 2], [0, 2, 1, 2, 1],
                                          [2, 0, 3, 0, 3]], 2), False, True)
    # non-unit pivots of valuation up to 5 at p = 2, and two invariants >= N
    @example(PadicMatrix.from_int_rows(
        2, smith_product(FACTOR_EXPONENTS, 2, random.Random(2)), 8), False, True)
    @example(PadicMatrix.from_int_rows(
        2, smith_product(FACTOR_EXPONENTS, 2, random.Random(2)), 8), True, True)
    def test_qr_matches_zealous_reference(self, a, column_pivot, hermite):
        f = qr(a, column_pivot=column_pivot, hermite=hermite)
        ref = reference_qr(a, column_pivot=column_pivot, hermite=hermite)
        assert f.pivots == ref.pivots
        assert f.column_permutation == ref.column_permutation
        for got, want in ((f.q, ref.q), (f.qinv, ref.qinv), (f.r, ref.r)):
            for row_got, row_want in zip(got.rows, want.rows):
                for x, y in zip(row_got, row_want):
                    assert x.precision >= y.precision
                    assert (x - y).is_zero

    @settings(max_examples=150, deadline=None)
    @given(qr_inputs(), st.booleans(), st.booleans(), st.booleans(), st.booleans())
    def test_certified_run_matches_run_at_4N(self, a, column_pivot, hermite,
                                             with_q, with_qinv):
        # The per-row counts certify the run that _qr_ints returns: a run
        # at W = 4N agrees with it mod p^N on every factor it computes.
        p, nprec = a.prime, a.flat_precision
        ints = _int_rows(a, nprec)
        got = _qr_ints(ints, p, nprec, column_pivot, hermite, with_q, with_qinv)
        ref = _qr_core(ints, p, 4 * nprec, nprec, column_pivot, hermite,
                       with_q, with_qinv)
        assert got[3:] == ref[3:5]
        mod = p ** nprec
        for x, y, wanted in zip(got[:3], ref[:3], (True, with_q, with_qinv)):
            assert (x is not None) == (y is not None) == wanted
            if wanted:
                assert [[e % mod for e in row] for row in x] == \
                    [[e % mod for e in row] for row in y]

    @settings(max_examples=40, deadline=None)
    @given(integral_matrices())
    def test_qr_reconstruct(self, a):
        f = qr(a)
        slack = sum(f.r[i, j].valuation for i, j in f.pivots)
        assert residual_flat(f.reconstruct(), a) >= a.flat_precision - slack

    @settings(max_examples=40, deadline=None)
    @given(integral_matrices())
    def test_norm_submultiplicative(self, a):
        prod = a @ a
        na = norm(a)
        if norm(prod) > 0:
            assert norm(prod) <= na * na
