"""Dense matrices over Q_p with flat-precision bookkeeping.

Provides norms and condition numbers, the norm-pivoted PLU
factorization (the p-adic analogue of QR: A = Q R with Q in
GL_n(Z_p) and R upper triangular in Hermite form), the diagonal
Smith/SVD factorization A = U Sigma V^T, nullspaces mod p^N, linear
solves against well-conditioned column spans, Householder reflections
and Hessenberg reduction.

All algorithms assume integral entries; the qr/svd wrappers factor out
p^(min valuation) from matrices with negative-valuation entries and
re-attach it to R or Sigma.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .padics import (DomainError, PadicError, PadicNumber, ParseError,
                     PrecisionError, is_prime)
from .residue import ResidueMatrix


class SingularMatrixError(PadicError):
    """A solve or inversion failed at the working precision."""

    def __init__(self, message, valuation=None):
        super().__init__(message)
        self.valuation = valuation


class PadicMatrix:
    """An immutable dense matrix of :class:`PadicNumber` entries."""

    __slots__ = ("prime", "rows")

    def __init__(self, prime: int, rows):
        self.prime = prime
        self.rows = tuple(tuple(row) for row in rows)
        if self.rows:
            m = len(self.rows[0])
            if any(len(r) != m for r in self.rows):
                raise ValueError("ragged rows")
        for row in self.rows:
            for e in row:
                if e.prime != prime:
                    raise ValueError("entry prime does not match matrix prime")

    # -- construction --------------------------------------------------

    @classmethod
    def from_int_rows(cls, prime, rows, precision) -> "PadicMatrix":
        return cls(
            prime,
            [[PadicNumber.from_int(prime, x, precision) for x in row] for row in rows],
        )

    @classmethod
    def identity(cls, prime, n, precision) -> "PadicMatrix":
        one = PadicNumber.one(prime, precision)
        zero = PadicNumber.zero(prime, precision)
        return cls(prime, [[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, prime, n, m, precision) -> "PadicMatrix":
        zero = PadicNumber.zero(prime, precision)
        return cls(prime, [[zero for _ in range(m)] for _ in range(n)])

    # -- shape and entries ---------------------------------------------

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def ncols(self):
        return len(self.rows[0]) if self.rows else 0

    def __getitem__(self, idx):
        i, j = idx
        return self.rows[i][j]

    def column(self, j) -> list:
        return [row[j] for row in self.rows]

    def mutable(self) -> list:
        return [list(row) for row in self.rows]

    # -- precision and norms -------------------------------------------

    @property
    def flat_precision(self) -> int:
        """min over entries of the absolute precision (matrix O(p^N))."""
        return min(e.precision for row in self.rows for e in row)

    def min_valuation(self):
        """min entry valuation; None when every entry is an inexact zero."""
        vals = [
            e.valuation for row in self.rows for e in row if not e.is_zero
        ]
        return min(vals) if vals else None

    def norm(self) -> Fraction:
        """Operator norm w.r.t. the sup norm: max over entry norms."""
        v = self.min_valuation()
        if v is None:
            v = self.flat_precision
        return Fraction(self.prime ** -v) if v < 0 else Fraction(1, self.prime ** v)

    def is_integral(self) -> bool:
        v = self.min_valuation()
        return v is None or v >= 0

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        return PadicMatrix(
            self.prime,
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)],
        )

    def __sub__(self, other):
        return PadicMatrix(
            self.prime,
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)],
        )

    def __neg__(self):
        return PadicMatrix(self.prime, [[-a for a in row] for row in self.rows])

    def __matmul__(self, other):
        return PadicMatrix(self.prime, _mat_mul(self.rows, other.rows))

    def scale(self, s: PadicNumber):
        return PadicMatrix(self.prime, [[a * s for a in row] for row in self.rows])

    def shift(self, k: int):
        """Multiply by the exact scalar p^k."""
        return PadicMatrix(self.prime, [[a.shift(k) for a in row] for row in self.rows])

    def transpose(self):
        return PadicMatrix(self.prime, list(zip(*self.rows)))

    def cap(self, precision):
        return PadicMatrix(self.prime, [[a.cap(precision) for a in row] for row in self.rows])

    def with_precision(self, precision):
        return PadicMatrix(
            self.prime, [[a.with_precision(precision) for a in row] for row in self.rows]
        )

    def mat_vec(self, v: list) -> list:
        return [_dot(row, v) for row in self.rows]

    def hstack(self, other):
        return PadicMatrix(
            self.prime, [list(r1) + list(r2) for r1, r2 in zip(self.rows, other.rows)]
        )

    def submatrix(self, rows, cols):
        return PadicMatrix(self.prime, [[self.rows[i][j] for j in cols] for i in rows])

    # -- views ----------------------------------------------------------

    def to_residue(self) -> ResidueMatrix:
        return ResidueMatrix(
            self.prime, [[e.residue().value for e in row] for row in self.rows]
        )

    def is_diagonal_at_precision(self) -> bool:
        return all(
            e.is_zero
            for i, row in enumerate(self.rows)
            for j, e in enumerate(row)
            if i != j
        )

    def __repr__(self):
        body = "; ".join(
            " ".join(e.compact() for e in row) for row in self.rows
        )
        return f"PadicMatrix(p={self.prime}, [{body}])"


# ----------------------------------------------------------------------
# vector helpers

def _dot(u, v):
    acc = None
    for a, b in zip(u, v):
        t = a * b
        acc = t if acc is None else acc + t
    if acc is None:
        raise ValueError("empty dot product")
    return acc


def _mat_mul(a_rows, b_rows):
    bt = list(zip(*b_rows))
    return [[_dot(row, col) for col in bt] for row in a_rows]


def vector_norm(v) -> Fraction:
    vals = [e.valuation for e in v if not e.is_zero]
    w = min(vals) if vals else min(e.precision for e in v)
    p = v[0].prime
    return Fraction(p ** -w) if w < 0 else Fraction(1, p ** w)


def vector_min_valuation(v):
    vals = [e.valuation for e in v if not e.is_zero]
    return min(vals) if vals else None


def normalize_vector(v) -> list:
    """Scale by a power of p so that the sup norm is 1."""
    w = vector_min_valuation(v)
    if w is None:
        raise PrecisionError("cannot normalize a vector that vanishes at precision")
    return [e.shift(-w) for e in v]


def norm(a) -> Fraction:
    """Norm of a PadicMatrix or of a plain list of entries (a vector)."""
    if isinstance(a, PadicMatrix):
        return a.norm()
    return vector_norm(list(a))


# ----------------------------------------------------------------------
# QR (norm-pivoted PLU, Hermite-normal-form convention)

@dataclass
class QRFactorization:
    """A = Q @ R (columns permuted by column_permutation when present).

    Q is in GL_n(Z_p) and Qinv is its exact-at-precision inverse,
    accumulated from the elementary row operations.  ``pivots`` lists
    the (row, column) positions of the pivots of R.  When column
    pivoting is used, R's column j corresponds to input column
    ``column_permutation[j]``.
    """

    prime: int
    q: PadicMatrix
    qinv: PadicMatrix
    r: PadicMatrix
    pivots: list
    column_permutation: list | None = None

    def reconstruct(self) -> PadicMatrix:
        qr_ = self.q @ self.r
        if self.column_permutation is None:
            return qr_
        m = self.r.ncols
        cols = [None] * m
        for j, cj in enumerate(self.column_permutation):
            cols[cj] = qr_.column(j)
        return PadicMatrix(self.prime, list(map(list, zip(*cols))))


def _row_axpy(rows, dst, src, c):
    rows[dst] = [a + c * b for a, b in zip(rows[dst], rows[src])]


def _col_axpy(rows, dst, src, c):
    for row in rows:
        row[dst] = row[dst] + c * row[src]


def _row_scale(rows, i, c):
    rows[i] = [c * a for a in rows[i]]


def _col_scale(rows, j, c):
    for row in rows:
        row[j] = c * row[j]


def qr(a: PadicMatrix, column_pivot: bool = False, hermite: bool = True) -> QRFactorization:
    """Norm-pivoted PLU factorization of an integral matrix.

    The pivot of each step is the entry of maximal p-adic norm in the
    remaining rows (remaining submatrix, with ``column_pivot``); ties
    break to the lowest row index, then the lowest column index.  With
    ``hermite`` the pivots of R are normalized to powers of p and the
    entries above each pivot are reduced modulo that pivot.
    """
    if not a.is_integral():
        raise DomainError("qr requires integral entries; rescale by p^(-min val) first")
    nflat = a.flat_precision
    f = _qr_core(a, column_pivot, hermite, nflat)
    slack = sum(f.r[i, j].valuation for i, j in f.pivots)
    if slack == 0:
        return f
    # Divisions by non-unit pivots erode absolute precision by up to the
    # sum of the pivot valuations.  The factorization is a function of a
    # residue class mod p^nflat, so rerun it on a representative lifted
    # by that slack and cap the factors back; rank decisions still use
    # the original precision (entries with valuation >= nflat are
    # treated as zero when selecting pivots).
    f = _qr_core(a.with_precision(nflat + slack), column_pivot, hermite, nflat)
    return QRFactorization(
        prime=f.prime,
        q=f.q.cap(nflat),
        qinv=f.qinv.cap(nflat),
        r=f.r.cap(nflat),
        pivots=f.pivots,
        column_permutation=f.column_permutation,
    )


def _qr_core(a: PadicMatrix, column_pivot: bool, hermite: bool, rank_prec: int) -> QRFactorization:
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
            if r[k][pc].is_zero:
                continue
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
            _row_scale(r, i, inv)
            _row_scale(qinv, i, inv)
            _col_scale(q, i, unit)
            v = r[i][j].valuation
            for i2 in range(i):
                e = r[i2][j]
                if e.is_zero:
                    continue
                low = PadicNumber.from_int(p, e.lift_int() % p ** v, e.precision)
                c = (e - low).shift(-v)
                if c.is_zero:
                    continue
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


# ----------------------------------------------------------------------
# SVD / Smith form

@dataclass
class SVDFactorization:
    """A = U @ diag(sigma) @ V^T with U, V in GL(Z_p).

    The valuations of ``sigma`` are the Smith invariants of the column
    module, sorted ascending; trailing inexact zeros stand for
    invariants of valuation >= the flat precision.
    """

    prime: int
    u: PadicMatrix
    uinv: PadicMatrix
    sigma: list
    v: PadicMatrix
    vinv: PadicMatrix
    rank: int

    def sigma_matrix(self, nrows, ncols) -> PadicMatrix:
        p = self.prime
        prec = min(s.precision for s in self.sigma) if self.sigma else 1
        zero = PadicNumber.zero(p, prec)
        rows = []
        for i in range(nrows):
            row = [zero] * ncols
            if i < len(self.sigma) and i < ncols:
                row[i] = self.sigma[i]
            rows.append(row)
        return PadicMatrix(p, rows)

    def reconstruct(self, nrows, ncols) -> PadicMatrix:
        return self.u @ self.sigma_matrix(nrows, ncols) @ self.v.transpose()


def svd(a: PadicMatrix) -> SVDFactorization:
    """Diagonal factorization via two triangular steps.

    Runs the column-pivoted QR and peels the diagonal p-powers off R;
    global norm pivoting makes each row of R divisible by its pivot, so
    the leftover triangular factor is unimodular and lands in V.
    """
    nu = a.min_valuation()
    if nu is not None and nu < 0:
        inner = svd(a.shift(-nu))
        return SVDFactorization(
            prime=a.prime,
            u=inner.u,
            uinv=inner.uinv,
            sigma=[s.shift(nu) for s in inner.sigma],
            v=inner.v,
            vinv=inner.vinv,
            rank=inner.rank,
        )
    p = a.prime
    n, m = a.nrows, a.ncols
    nflat = a.flat_precision
    f = qr(a, column_pivot=True, hermite=True)
    rank = len(f.pivots)
    sigma = []
    w_rows = []
    for i in range(min(n, m)):
        if i < rank:
            piv = f.r[i, i]
            sigma.append(piv)
            w_rows.append([e.shift(-piv.valuation) for e in f.r.rows[i]])
        else:
            sigma.append(PadicNumber.zero(p, nflat))
    # Extend the unit rows of W to an invertible upper triangular m x m matrix.
    one = PadicNumber.one(p, nflat)
    zero = PadicNumber.zero(p, nflat)
    vbig = []
    for i in range(m):
        if i < rank:
            vbig.append(list(w_rows[i]))
        else:
            vbig.append([one if j == i else zero for j in range(m)])
    vbig_inv = _invert_unit_upper_triangular(vbig, p, nflat)
    perm = f.column_permutation
    inv_perm = [0] * m
    for j, cj in enumerate(perm):
        inv_perm[cj] = j
    # V = S @ Vbig^T where S e_j = e_{perm[j]}; row i of V is column
    # inv_perm[i] of Vbig^T, i.e. row-wise gather of Vbig columns.
    v_rows = [[vbig[j][inv_perm[i]] for j in range(m)] for i in range(m)]
    vinv_rows = [[vbig_inv[inv_perm[j]][i] for j in range(m)] for i in range(m)]
    return SVDFactorization(
        prime=p,
        u=f.q,
        uinv=f.qinv,
        sigma=sigma,
        v=PadicMatrix(p, v_rows),
        vinv=PadicMatrix(p, vinv_rows),
        rank=rank,
    )


def _invert_unit_upper_triangular(rows, p, nflat):
    """Inverse of an upper triangular matrix with unit diagonal entries."""
    m = len(rows)
    inv = [[None] * m for _ in range(m)]
    zero = PadicNumber.zero(p, nflat)
    for j in range(m):
        col = [zero] * m
        for i in range(j, -1, -1):
            rhs = PadicNumber.one(p, nflat) if i == j else PadicNumber.zero(p, nflat)
            acc = rhs
            for k in range(i + 1, j + 1):
                acc = acc - rows[i][k] * col[k]
            col[i] = acc / rows[i][i]
        for i in range(m):
            inv[i][j] = col[i]
    return inv


def nullspace_mod_pN(a: PadicMatrix, precision: int) -> PadicMatrix:
    """Basis of the free part of the kernel of A modulo p^precision.

    Kernel generators are the dual columns attached to singular values
    of valuation >= ``precision`` (and any dimensions beyond the rank
    for wide matrices).  Columns of the result extend to a basis of
    Z_p^m, so the spanned module has trivial annihilator.
    """
    s = svd(a)
    m = a.ncols
    kernel_idx = [
        j
        for j in range(m)
        if j >= len(s.sigma) or s.sigma[j].is_zero or s.sigma[j].valuation >= precision
    ]
    cols = [[s.vinv[j, i] for j in kernel_idx] for i in range(m)]
    return PadicMatrix(a.prime, cols)


# ----------------------------------------------------------------------
# solving and inversion

def solve(v: PadicMatrix, b: PadicMatrix) -> PadicMatrix:
    """X with V @ X = B, for V of full column rank at precision.

    V is expected to have unit elementary divisors (e.g. a nullspace
    basis); pivots of positive valuation cost precision and an
    inconsistent system raises :class:`SingularMatrixError`.
    """
    f = qr(v)
    k = v.ncols
    if len(f.pivots) < k:
        raise SingularMatrixError(
            f"column rank {len(f.pivots)} < {k} at working precision",
            valuation=v.flat_precision,
        )
    c = f.qinv @ b
    for i in range(k, v.nrows):
        for e in c.rows[i]:
            if not e.is_zero:
                raise SingularMatrixError(
                    "inconsistent system: residual of valuation "
                    f"{e.valuation} below the column span",
                    valuation=e.valuation,
                )
    return _back_substitute(f.r, c)


def inverse(a: PadicMatrix) -> PadicMatrix:
    """Inverse of a square matrix, via its PLU data."""
    if a.nrows != a.ncols:
        raise ValueError("inverse of a non-square matrix")
    nu = a.min_valuation()
    if nu is None:
        raise SingularMatrixError(
            "matrix vanishes at precision", valuation=a.flat_precision
        )
    if nu < 0:
        return inverse(a.shift(-nu)).shift(-nu)
    f = qr(a)
    n = a.nrows
    if len(f.pivots) < n:
        raise SingularMatrixError(
            "matrix is singular at working precision", valuation=a.flat_precision
        )
    return _back_substitute(f.r, f.qinv)


def _back_substitute(r: PadicMatrix, c: PadicMatrix) -> PadicMatrix:
    """X with R[:k, :k] X = C[:k] for k = R.ncols, where R is upper
    triangular with a nonzero diagonal (the R of a full-column-rank qr)."""
    k = r.ncols
    x_rows = [[None] * c.ncols for _ in range(k)]
    for j in range(c.ncols):
        for i in range(k - 1, -1, -1):
            acc = c[i, j]
            for t in range(i + 1, k):
                acc = acc - r[i, t] * x_rows[t][j]
            x_rows[i][j] = acc / r[i, i]
    return PadicMatrix(r.prime, x_rows)


def condition_number(a: PadicMatrix):
    """kappa(A) = |A| * |A^-1| as a Fraction, or math.inf when singular."""
    if a.nrows != a.ncols:
        raise ValueError("condition number of a non-square matrix")
    try:
        ainv = inverse(a)
    except SingularMatrixError:
        return math.inf
    return a.norm() * ainv.norm()


# ----------------------------------------------------------------------
# Householder reflections

def householder(x: list) -> tuple:
    """The reflection sending an admissible vector to alpha * e_1.

    Requires p odd and exactly one coordinate of minimal valuation,
    which must not be the first.  Returns (H, alpha) with H in
    O_n(Z_p), H^2 = I and H x = alpha e_1, alpha = sqrt(x^T x).
    """
    p = x[0].prime
    if p == 2:
        raise DomainError("Householder reflections require an odd prime")
    n = len(x)
    vals = [(e.valuation if not e.is_zero else None) for e in x]
    finite = [v for v in vals if v is not None]
    if not finite:
        raise DomainError("zero vector has no Householder reflection")
    r = min(finite)
    argmins = [i for i, v in enumerate(vals) if v == r]
    if len(argmins) != 1:
        raise DomainError("minimal-valuation coordinate is not unique")
    if argmins[0] == 0:
        raise DomainError("minimal-valuation coordinate must not be the first")
    alpha = _dot(x, x).sqrt()
    e1 = [PadicNumber.zero(p, alpha.precision) for _ in range(n)]
    e1[0] = alpha
    vvec = [(xi - a).shift(-r) for xi, a in zip(x, e1)]
    vtv = _dot(vvec, vvec)
    two = PadicNumber.from_int(p, 2, vtv.precision)
    coef = two / vtv
    nflat = min(e.precision for e in x)
    h = PadicMatrix.identity(p, n, nflat).mutable()
    for i in range(n):
        for j in range(n):
            h[i][j] = h[i][j] - coef * vvec[i] * vvec[j]
    return PadicMatrix(p, h), alpha


# ----------------------------------------------------------------------
# Hessenberg reduction

def hessenberg(a: PadicMatrix, method: str = "rows") -> tuple:
    """Similarity reduction to upper Hessenberg form: A V = V B.

    The default row-operation method eliminates each subcolumn with
    norm-pivoted row operations (mirrored column operations keep the
    similarity); ``method="householder"`` preconditions each subcolumn
    to have a unique minimal-valuation coordinate and applies the
    reflection instead.
    """
    if a.nrows != a.ncols:
        raise ValueError("hessenberg reduction of a non-square matrix")
    if not a.is_integral():
        raise DomainError("hessenberg requires integral entries")
    if method == "rows":
        return _hessenberg_rows(a)
    if method == "householder":
        return _hessenberg_householder(a)
    raise ValueError(f"unknown hessenberg method {method!r}")


def _hessenberg_rows(a: PadicMatrix):
    p = a.prime
    n = a.nrows
    nflat = a.flat_precision
    b = a.mutable()
    v = PadicMatrix.identity(p, n, nflat).mutable()

    def swap(i, j):
        b[i], b[j] = b[j], b[i]
        for row in b:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def axpy(dst, src, c):
        # B <- E B E^{-1} and V <- V E^{-1} for E adding c * row src to row dst.
        _row_axpy(b, dst, src, c)
        _col_axpy(b, src, dst, -c)
        _col_axpy(v, src, dst, -c)

    for j in range(n - 2):
        cand = [
            (b[i][j].valuation, i) for i in range(j + 1, n) if not b[i][j].is_zero
        ]
        if not cand:
            continue
        _, piv = min(cand)
        if piv != j + 1:
            swap(piv, j + 1)
        for i in range(j + 2, n):
            if b[i][j].is_zero:
                continue
            c = b[i][j] / b[j + 1][j]
            axpy(i, j + 1, -c)
    return PadicMatrix(p, b), PadicMatrix(p, v)


def _hessenberg_householder(a: PadicMatrix):
    p = a.prime
    n = a.nrows
    nflat = a.flat_precision
    b = a.mutable()
    v = PadicMatrix.identity(p, n, nflat).mutable()

    for j in range(n - 2):
        sub = [b[i][j] for i in range(j + 1, n)]
        if all(e.is_zero for e in sub):
            continue
        if len(sub) == 1:
            continue
        # Precondition: make the last subdiagonal entry the unique
        # minimal-valuation one, using the trailing row for pivoting.
        vals = [(e.valuation, i) for i, e in enumerate(sub) if not e.is_zero]
        rmin, imin = min(vals)
        last = n - 1
        tgt = j + 1 + imin
        if tgt != last:
            b[tgt], b[last] = b[last], b[tgt]
            for row in b:
                row[tgt], row[last] = row[last], row[tgt]
            for row in v:
                row[tgt], row[last] = row[last], row[tgt]
        for i in range(j + 1, last):
            e = b[i][j]
            if e.is_zero or e.valuation > rmin:
                continue
            # Knock the valuation up so the last coordinate is uniquely minimal.
            c = e / b[last][j]
            _row_axpy(b, i, last, -c)
            _col_axpy(b, last, i, c)
            _col_axpy(v, last, i, c)
        x = [b[i][j] for i in range(j + 1, n)]
        h, _ = householder(x)
        hrows = [list(row) for row in h.rows]
        _apply_block_similarity(b, v, hrows, j + 1, p)
    return PadicMatrix(p, b), PadicMatrix(p, v)


def _apply_block_similarity(b, v, hrows, offset, p):
    """B <- G^{-1} B G, V <- V G for G = diag(I, H, I); here H^2 = I."""
    n = len(b)
    k = len(hrows)
    idx = range(offset, offset + k)
    # rows: B[idx, :] <- H @ B[idx, :]
    for jcol in range(n):
        col = [b[i][jcol] for i in idx]
        new = [_dot(hrows[t], col) for t in range(k)]
        for t, i in enumerate(idx):
            b[i][jcol] = new[t]
    # columns: B[:, idx] <- B[:, idx] @ H ; V likewise
    for mat in (b, v):
        for row in mat:
            seg = [row[i] for i in idx]
            new = [_dot(seg, [hrows[t][s] for t in range(k)]) for s in range(k)]
            for s, i in enumerate(idx):
                row[i] = new[s]


def is_hessenberg_at_precision(a: PadicMatrix) -> bool:
    return all(
        a[i, j].is_zero
        for i in range(a.nrows)
        for j in range(a.ncols)
        if i > j + 1
    )


# ----------------------------------------------------------------------
# text format

_ENTRY_RE = re.compile(r"^(?P<u>-?\d+)(?:\*(?P<base>\d+)\^(?P<v>-?\d+))?$")


def write_matrix(a: PadicMatrix) -> str:
    """Render in the interchange format: header "p N n m" then rows."""
    n, m = a.nrows, a.ncols
    lines = [f"{a.prime} {a.flat_precision} {n} {m}"]
    for row in a.rows:
        parts = []
        for e in row:
            if e.is_zero:
                parts.append("0")
            elif e.valuation == 0:
                parts.append(str(e.unit))
            else:
                parts.append(f"{e.unit}*{e.prime}^{e.valuation}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def read_matrix(text: str) -> PadicMatrix:
    """Parse the interchange format; malformed input raises ParseError."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError("empty matrix file")
    try:
        p, nprec, n, m = (int(t) for t in lines[0].split())
    except ValueError as exc:
        raise ParseError(f"bad matrix header {lines[0]!r}") from exc
    if not is_prime(p):
        raise ParseError(f"p={p} is not prime")
    if nprec < 1 or n < 1 or m < 1:
        raise ParseError(f"precision and dimensions must be >= 1 in {lines[0]!r}")
    if len(lines) != n + 1:
        raise ParseError(f"expected {n} rows, found {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != m:
            raise ParseError(f"expected {m} entries per row, found {len(parts)}")
        row = []
        for part in parts:
            mm = _ENTRY_RE.match(part)
            if mm is None:
                raise ParseError(f"bad matrix entry {part!r}")
            u = int(mm.group("u"))
            if mm.group("base") is not None:
                if int(mm.group("base")) != p:
                    raise ParseError(f"entry base mismatch in {part!r}")
                v = int(mm.group("v"))
                row.append(PadicNumber.from_int(p, u, nprec - v).shift(v))
            else:
                row.append(PadicNumber.from_int(p, u, nprec))
        rows.append(row)
    return PadicMatrix(p, rows)
