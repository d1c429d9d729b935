"""Shared instance builders for the test suite.

Oracle policy: anything nontrivial is checked against an independent
computation — sympy over ZZ (characteristic polynomials, Smith normal
form, exact inverses for conjugation) or direct construction (systems
built from known solution points).  sympy never touches the code under
test's own data structures.
"""

import math
import random

import sympy

from padicnla.padics import PadicNumber
from padicnla.matrices import PadicMatrix, QRFactorization, nullspace_mod_pN, solve
from padicnla.mpoly import MultiPoly
from padicnla.residue import poly_divmod, poly_mul


def rand_unimodular(n, rng, spread=3):
    """A random element of GL_n(Z) built from elementary row operations."""
    m = sympy.eye(n)
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        m[i, :] = m[i, :] + rng.randrange(-spread, spread + 1) * m[j, :]
    return m


def conjugated(diag_or_matrix, p, precision, rng):
    """U D U^{-1} over ZZ as a PadicMatrix, with U unimodular.

    The conjugation happens in exact integer arithmetic, so the
    eigenstructure of the result is known by construction.
    """
    d = diag_or_matrix
    if not isinstance(d, sympy.MatrixBase):
        d = sympy.diag(*d)
    n = d.rows
    u = rand_unimodular(n, rng)
    m = u * d * u.inv()
    rows = [[int(m[i, j]) for j in range(n)] for i in range(n)]
    return PadicMatrix.from_int_rows(p, rows, precision), u


def random_int_matrix(n, p, precision, rng, lo=-50, hi=50, val_choices=(0,)):
    rows = [
        [rng.randrange(lo, hi) * p ** rng.choice(val_choices) for _ in range(n)]
        for _ in range(n)
    ]
    return PadicMatrix.from_int_rows(p, rows, precision)


def split_squarefree_instance(n, p, precision, rng):
    """A matrix whose residue charpoly is square-free and fully split:
    conjugate diag(distinct residues) + p * (random integral)."""
    residues = rng.sample(range(1, p), n)
    d = sympy.diag(*residues)
    pert = sympy.Matrix(n, n, lambda i, j: p * rng.randrange(-5, 6))
    a, _ = conjugated(d + pert, p, precision, rng)
    return a, residues


def grid_system(p, precision, root_lists):
    """f_i = prod_j (x_i - a_ij): the solutions are exactly the grid
    product of the per-variable root lists, each with unit Jacobian when
    the roots are distinct mod p."""
    n = len(root_lists)
    polys = []
    for i, roots in enumerate(root_lists):
        f = MultiPoly.constant(p, n, PadicNumber.one(p, precision))
        xi = MultiPoly.variable(p, n, i, precision)
        for a in roots:
            f = f * (xi - MultiPoly.constant(
                p, n, PadicNumber.from_int(p, a, precision)))
        polys.append(f)
    return polys


def flat_residual(a, v, t):
    """min valuation (or precision, for inexact zeros) over A@V - V@T."""
    r = (a @ v) - (v @ t)
    return min(
        (e.precision if e.is_zero else e.valuation) for row in r.rows for e in row
    )


def zero_at_precision(x):
    return x.is_zero


def smith_product(exponents, p, rng):
    """U diag(p^k) V with U, V unimodular, as an exact integer matrix."""
    n = len(exponents)
    a = [[p ** exponents[i] if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j, c in _elementary_moves(rng, n):
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
    for i, j, c in _elementary_moves(rng, n):
        for row in a:
            row[i] += c * row[j]
    return a


def _elementary_moves(rng, n):
    """About 3n random moves "row i += c * row j" with c in [-3, 3]."""
    moves = []
    while len(moves) < 3 * n:
        i, j = rng.randrange(n), rng.randrange(n)
        c = rng.randrange(-3, 4)
        if i != j and c:
            moves.append((i, j, c))
    return moves


# ----------------------------------------------------------------------
# reference QR: the norm-pivoted elimination on PadicNumber entries, whose
# zealous arithmetic certifies every digit it keeps; matrices.qr runs the
# same steps on integers mod p^W and is compared against this.  Unlike the
# loop it was taken from, it also applies the row operations whose
# multiplier is an inexact zero: skipping one treats O(p^k) as an exact 0
# and keeps digits the multiplier does not determine.

def _row_axpy(rows, dst, src, c):
    rows[dst] = [a + c * b for a, b in zip(rows[dst], rows[src])]


def _col_axpy(rows, dst, src, c):
    for row in rows:
        row[dst] = row[dst] + c * row[src]


def zealous_qr_core(a, column_pivot, hermite, rank_prec):
    """One elimination pass; rank decisions ignore valuations >= rank_prec."""
    p = a.prime
    n, m = a.nrows, a.ncols
    nflat = a.flat_precision
    r = a.mutable()
    q = PadicMatrix.identity(p, n, nflat).mutable()
    qinv = PadicMatrix.identity(p, n, nflat).mutable()
    colperm = list(range(m))
    pivots = []
    pr = 0
    pc = 0
    while pr < n and pc < m:
        best = None
        cols = range(pc, m) if column_pivot else (pc,)
        for i in range(pr, n):
            for j in cols:
                e = r[i][j]
                if e.is_zero or e.valuation >= rank_prec:
                    continue
                key = (e.valuation, i, j)
                if best is None or key < best:
                    best = key
        if best is None:
            if column_pivot:
                break
            pc += 1
            continue
        _, bi, bj = best
        if column_pivot and bj != pc:
            for row in r:
                row[bj], row[pc] = row[pc], row[bj]
            colperm[bj], colperm[pc] = colperm[pc], colperm[bj]
        if bi != pr:
            r[bi], r[pr] = r[pr], r[bi]
            qinv[bi], qinv[pr] = qinv[pr], qinv[bi]
            for row in q:
                row[bi], row[pr] = row[pr], row[bi]
        for k in range(pr + 1, n):
            c = r[k][pc] / r[pr][pc]
            _row_axpy(r, k, pr, -c)
            _row_axpy(qinv, k, pr, -c)
            _col_axpy(q, pr, k, c)
        pivots.append((pr, pc))
        pr += 1
        pc += 1
    if hermite:
        for (i, j) in pivots:
            piv = r[i][j]
            unit = piv.shift(-piv.valuation)
            inv = unit.inverse()
            r[i] = [inv * e for e in r[i]]
            qinv[i] = [inv * e for e in qinv[i]]
            for row in q:
                row[i] = unit * row[i]
            v = r[i][j].valuation
            for i2 in range(i):
                e = r[i2][j]
                low = PadicNumber.from_int(p, e.lift_int() % p ** v, e.precision)
                c = (e - low).shift(-v)
                _row_axpy(r, i2, i, -c)
                _row_axpy(qinv, i2, i, -c)
                _col_axpy(q, i, i2, c)
    return QRFactorization(
        prime=p,
        q=PadicMatrix(p, q),
        qinv=PadicMatrix(p, qinv),
        r=PadicMatrix(p, r),
        pivots=pivots,
        column_permutation=colperm if column_pivot else None,
    )


def reference_qr(a, column_pivot=False, hermite=True):
    """The zealous pass on the input read at its flat precision N (digits
    beyond N dropped, zeros above), rerun at a working precision raised by
    the shortfall until every entry of Q, Qinv and R is certified to N, so
    that every rank decision read N digits; returned capped at N."""
    nflat = a.flat_precision
    base = a.cap(nflat)
    work = nflat
    while True:
        f = zealous_qr_core(base.with_precision(work), column_pivot, hermite, nflat)
        low = min(x.flat_precision for x in (f.q, f.qinv, f.r))
        if low >= nflat:
            break
        work += nflat - low
    return QRFactorization(
        prime=f.prime,
        q=f.q.cap(nflat),
        qinv=f.qinv.cap(nflat),
        r=f.r.cap(nflat),
        pivots=f.pivots,
        column_permutation=f.column_permutation,
    )


# ----------------------------------------------------------------------
# reference invariant-subspace step: the eigensolver's matrix powers on
# PadicNumber entries, followed by nullspace_mod_pN; eigen runs the same
# powers on integers mod p^N and is compared against these.

def zealous_matrix_poly(int_coeffs, a, precision):
    """Horner evaluation of an integer polynomial at A, entrywise zealous."""
    p = a.prime
    n = a.nrows
    acc = None
    for c in reversed(int_coeffs):
        cm = PadicMatrix.identity(p, n, precision).scale(
            PadicNumber.from_int(p, c, precision)
        )
        acc = cm if acc is None else acc @ a + cm
    return acc


def zealous_kernel_of_iterated_power(b, mult, nprec):
    """Kernel mod p^N of B squared ceil(log2(mult N)) times."""
    rounds = max(0, math.ceil(math.log2(max(2, mult * nprec))))
    b = b.cap(nprec)
    for _ in range(rounds):
        b = b @ b
    return nullspace_mod_pN(b, nprec)


def zealous_residue_cofactor_block(a, chi_residue, roots, nprec):
    """(basis, operator) of the invariant block of the residue factors of
    chi_residue without roots in F_p."""
    p = a.prime
    lin = [1]
    for lam, mult in roots:
        for _ in range(mult):
            lin = poly_mul(lin, [(-lam) % p, 1], p)
    rho, _ = poly_divmod(chi_residue.coeffs, lin, p)
    b = zealous_matrix_poly(rho, a, nprec)
    basis = zealous_kernel_of_iterated_power(b, len(rho) - 1, nprec)
    return basis, solve(basis, a @ basis)
