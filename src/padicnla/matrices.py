"""Dense matrices over Q_p with flat-precision bookkeeping.

Provides norms and condition numbers, the norm-pivoted PLU
factorization (the p-adic analogue of QR: A = Q R with Q in
GL_n(Z_p) and R upper triangular in Hermite form), the diagonal
Smith/SVD factorization A = U Sigma V^T, nullspaces mod p^N, linear
solves against well-conditioned column spans, Householder reflections
and Hessenberg reduction.

Entries are zealous :class:`PadicNumber` scalars, except inside the
elimination of :func:`qr`, which every factorization, nullspace and
solve runs on: it reads the matrix at its flat precision N as integers
mod p^N (:func:`_int_rows`), eliminates on residues mod p^W (W >= N)
while each row of R and of Qinv, and Q as a whole, counts how many of
its digits are still certified (:func:`_qr_core`), and converts the
factors back to scalars at precision N once, at the end.  A
column-pivoted elimination loses no digit of R and fewer than N of Q
and Qinv, so it runs once, at W = 2N - 1; a partially pivoted one reruns
with W raised by the shortfall until N digits survive (:func:`_qr_ints`).
Only the factors a caller reads are accumulated: kernels and solves
skip Q, svd skips Qinv.  A kernel is read off one column-pivoted
elimination of the transpose (the rows of Qinv past the rank), so it is
certified to the precision it was asked for; :func:`_int_kernel_rows`
takes the matrix as integers, so callers that already hold integers mod
p^N (the eigensolver's matrix powers) pass them straight in, and only
the kernel rows become scalars.

All algorithms assume integral entries; the svd and nullspace wrappers
factor out p^(min valuation) from matrices with negative-valuation
entries and re-attach it to Sigma or to the invariants.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .padics import (DomainError, PadicError, PadicNumber, ParseError,
                     PrecisionError, _valuation_int, is_prime)
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
        zero = PadicNumber.zero(prime, precision)
        return cls(
            prime,
            [[PadicNumber.from_int(prime, x, precision) if x else zero for x in row]
             for row in rows],
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
    accumulated from the elementary row operations; internal callers
    that do not read one of them get None in its place (see
    :func:`_qr`).  ``pivots`` lists the (row, column) positions of the
    pivots of R.  When column pivoting is used, R's column j
    corresponds to input column ``column_permutation[j]``.
    """

    prime: int
    q: PadicMatrix | None
    qinv: PadicMatrix | None
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


def qr(a: PadicMatrix, column_pivot: bool = False, hermite: bool = True) -> QRFactorization:
    """Norm-pivoted PLU factorization of an integral matrix.

    The pivot of each step is the entry of maximal p-adic norm in the
    remaining rows (remaining submatrix, with ``column_pivot``); ties
    break to the lowest row index, then the lowest column index.  With
    ``hermite`` the pivots of R are normalized to powers of p and the
    entries above each pivot are reduced modulo that pivot.

    The input is read at its flat precision N as integers mod p^N, and
    Q, Qinv and R are returned at precision N.  Divisions by non-unit
    pivots cost digits, which the elimination counts row by row (see
    :func:`_qr_core`) and covers with a higher working precision (see
    :func:`_qr_ints`).  Rank decisions always read the digits below N.
    """
    return _qr(a, column_pivot, hermite)


def _qr(a, column_pivot=False, hermite=True, with_q=True, with_qinv=True):
    """:func:`qr`, with Q and Qinv computed only when asked for (None
    otherwise)."""
    if not a.is_integral():
        raise DomainError("qr requires integral entries; rescale by p^(-min val) first")
    p = a.prime
    nflat = a.flat_precision
    r, q, qinv, pivots, colperm = _qr_ints(
        _int_rows(a, nflat), p, nflat, column_pivot, hermite, with_q, with_qinv
    )

    def convert(rows):
        return None if rows is None else PadicMatrix.from_int_rows(p, rows, nflat)

    return QRFactorization(
        prime=p,
        q=convert(q),
        qinv=convert(qinv),
        r=convert(r),
        pivots=pivots,
        column_permutation=colperm if column_pivot else None,
    )


def _int_rows(a: PadicMatrix, precision: int) -> list:
    """The entries of an integral matrix as integers mod p^precision."""
    top = a.prime ** max(precision, 0)
    return [[e.lift_int() % top for e in row] for row in a.rows]


def _qr_ints(ints, p, precision, column_pivot, hermite, with_q=True, with_qinv=True):
    """:func:`qr` on a matrix given as integers mod p^precision.

    Returns (r, q, qinv, pivots, column permutation), residues certified
    mod p^precision; q and qinv are None unless asked for.  Under column
    pivoting R loses no digit and Q and Qinv at most the largest pivot
    valuation, which is below ``precision`` (see :func:`_qr_core`), so
    the elimination runs once, at working precision 2 precision - 1 when
    Q or Qinv is asked for and at ``precision`` otherwise.  Without it
    the elimination starts at ``precision`` and, while its counts of
    certified digits fall short, reruns on the same integers at a
    working precision raised by the shortfall.
    """
    work = precision
    if column_pivot and (with_q or with_qinv):
        work += max(precision - 1, 0)
    while True:
        r, q, qinv, pivots, colperm, known = _qr_core(
            ints, p, work, precision, column_pivot, hermite, with_q, with_qinv
        )
        if known >= precision:
            return r, q, qinv, pivots, colperm
        work += precision - known


def _qr_core(a_ints, p, work, rank_prec, column_pivot, hermite, with_q, with_qinv):
    """The elimination of :func:`qr` on integers mod p^work.

    R, and Q and Qinv when asked for (None otherwise), hold residues mod
    p^work.  Each row of R and of Qinv has its own count of certified
    digits and Q has one; all start at ``work``.  Zero tests and pivot
    valuations in a row of R read only the digits below min(its count,
    rank_prec).

    A pivot p^v u in a row of R whose entries all have valuation >= w
    certifies each multiplier it makes (r_k / pivot below it, and with
    ``hermite`` the unit u and the quotients r_k // p^v above it) to the
    count of row k, and of the pivot row, minus v.  Subtracting that
    multiple of the pivot row costs row k of R v - w digits; rows of
    Qinv and columns of Q are primitive (Q is unimodular), so they keep
    the multipliers' count.  Under column pivoting every remaining entry
    of the pivot row has valuation >= v, so w = v and R loses nothing;
    otherwise w is read from one gcd of the pivot row.  Returns (r, q,
    qinv, pivots, column permutation, known), ``known`` the least count
    of the factors computed.
    """
    n, m = len(a_ints), len(a_ints[0])
    mod = p ** max(work, 0)
    r = [list(row) for row in a_ints]
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    q = [row[:] for row in eye] if with_q else None
    qinv = eye if with_qinv else None
    rk = [work] * n     # certified digits of each row of R
    qk = [work] * n     # ... of each row of Qinv
    kq = work           # ... of Q
    colperm = list(range(m))
    pivots = []
    pivot_vals = []     # (v, w) of each pivot
    pr = 0
    pc = 0
    while pr < n and pc < m:
        # Until a candidate is found, best_v is rank_prec; after that, an
        # entry divisible by p^best_v is no better than the best so far.
        # Row i reads at most its own rk[i] digits.
        best_v = max(rank_prec, 0)
        pv = p ** best_v
        best = None
        cols = range(pc, m) if column_pivot else (pc,)
        for i in range(pr, n):
            row = r[i]
            bound = pv if rk[i] >= best_v else p ** max(rk[i], 0)
            for j in cols:
                if row[j] % bound:
                    best_v = _valuation_int(row[j], p)
                    pv = bound = p ** best_v
                    best = (i, j)
                    if not best_v:
                        break
            if not best_v:
                break
        if best is None:
            if column_pivot:
                break
            pc += 1
            continue
        bi, bj = best
        if column_pivot and bj != pc:
            for row in r:
                row[bj], row[pc] = row[pc], row[bj]
            colperm[bj], colperm[pc] = colperm[pc], colperm[bj]
        if bi != pr:
            r[bi], r[pr] = r[pr], r[bi]
            rk[bi], rk[pr] = rk[pr], rk[bi]
            qk[bi], qk[pr] = qk[pr], qk[bi]
            if qinv is not None:
                qinv[bi], qinv[pr] = qinv[pr], qinv[bi]
            if q is not None:
                for row in q:
                    row[bi], row[pr] = row[pr], row[bi]
        inv = pow(r[pr][pc] // pv, -1, mod)
        multipliers = [r[k][pc] // pv * inv % mod for k in range(pr + 1, n)]
        for k, c in enumerate(multipliers, start=pr + 1):
            if c:
                _sub_row_multiple(r, k, pr, c, mod)
                if qinv is not None:
                    _sub_row_multiple(qinv, k, pr, c, mod)
        if q is not None:
            _combine_columns(q, pr, 1, pr + 1, multipliers, mod)
        w = best_v if column_pivot else _valuation_int(math.gcd(pv, *r[pr]), p)
        for k in range(pr + 1, n):
            known_c = min(rk[k], rk[pr]) - best_v
            qk[k] = min(qk[k], qk[pr], known_c)
            kq = min(kq, known_c)
            rk[k] = known_c + w
        pivots.append((pr, pc))
        pivot_vals.append((best_v, w))
        pr += 1
        pc += 1
    if hermite:
        for (i, j), (v, w) in zip(pivots, pivot_vals):
            pv = p ** v
            unit = r[i][j] // pv
            inv = pow(unit, -1, mod)
            r[i] = [e * inv % mod for e in r[i]]
            if qinv is not None:
                qinv[i] = [e * inv % mod for e in qinv[i]]
            multipliers = [r[i2][j] // pv for i2 in range(i)]
            for i2, c in enumerate(multipliers):
                if c:
                    _sub_row_multiple(r, i2, i, c, mod)
                    if qinv is not None:
                        _sub_row_multiple(qinv, i2, i, c, mod)
            if q is not None:
                _combine_columns(q, i, unit, 0, multipliers, mod)
            known_u = rk[i] - v
            qk[i] = min(qk[i], known_u)
            kq = min(kq, known_u)
            rk[i] = known_u + w
            for i2 in range(i):
                known_c = rk[i2] - v
                qk[i2] = min(qk[i2], qk[i], known_c)
                kq = min(kq, known_c)
                rk[i2] = min(known_c + w, rk[i])
    known = min(rk)
    if qinv is not None:
        known = min(known, min(qk))
    if q is not None:
        known = min(known, kq)
    return r, q, qinv, pivots, colperm, known


def _sub_row_multiple(rows, dst, src, c, mod):
    rows[dst] = [(a - c * b) % mod for a, b in zip(rows[dst], rows[src])]


def _combine_columns(rows, dst, scale, start, multipliers, mod):
    """Q <- Q E^-1 for the row operations E of one pivot step, which
    scaled row dst by 1/scale and subtracted multipliers[t] times row dst
    from row start + t: column dst becomes scale times itself plus
    multipliers[t] times column start + t."""
    for row in rows:
        row[dst] = (scale * row[dst] + sum(map(mul, multipliers, row[start:]))) % mod


# ----------------------------------------------------------------------
# SVD / Smith form

@dataclass
class SVDFactorization:
    """A = U @ diag(sigma) @ V^T with U, V in GL(Z_p).

    The valuations of ``sigma`` are the Smith invariants of the column
    module, sorted ascending; trailing inexact zeros stand for
    invariants of valuation >= the flat precision.  Kernels and images
    do not go through this factorization: :func:`nullspace_mod_pN` and
    the image bases read them from one :func:`qr` directly.
    """

    prime: int
    u: PadicMatrix
    sigma: list
    v: PadicMatrix
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
        return SVDFactorization(a.prime, inner.u, [s.shift(nu) for s in inner.sigma],
                                inner.v, inner.rank)
    p = a.prime
    n, m = a.nrows, a.ncols
    nflat = a.flat_precision
    f = _qr(a, column_pivot=True, hermite=True, with_qinv=False)
    rank = len(f.pivots)
    one = PadicNumber.one(p, nflat)
    zero = PadicNumber.zero(p, nflat)
    sigma = [f.r[i, i] for i in range(rank)] + [zero] * (min(n, m) - rank)
    # W: the rows of R divided by their pivots, extended by unit rows to
    # an upper triangular m x m matrix with unit diagonal, so that
    # A S = U diag(sigma) W for the column permutation S e_j = e_{perm[j]}.
    w = [[e.shift(-sigma[i].valuation) for e in f.r.rows[i]] for i in range(rank)]
    w += [[one if j == i else zero for j in range(m)] for i in range(rank, m)]
    # V = S W^T: row perm[j] of V is column j of W.
    v_rows = [None] * m
    for j, cj in enumerate(f.column_permutation):
        v_rows[cj] = [row[j] for row in w]
    return SVDFactorization(prime=p, u=f.q, sigma=sigma, v=PadicMatrix(p, v_rows),
                            rank=rank)


def _kernel_rows(a: PadicMatrix, precision: int) -> tuple:
    """Rows spanning the kernel of A mod p^precision, and the Smith
    invariants of A below ``precision``.

    Runs the column-pivoted qr of A^T read mod p^precision.  Its rows of
    Qinv past the rank satisfy Qinv A^T S = R = 0 there, so they span the
    kernel; as rows of a unimodular matrix they extend to a basis of
    Z_p^m, and qr certifies them to ``precision``.  Column pivoting makes
    the pivot valuations the Smith invariants, so the rank counts the
    invariants below ``precision``.  Negative-valuation inputs are
    rescaled to integral ones, and their invariants shifted back.
    """
    nu = a.min_valuation()
    if nu is not None and nu < 0:
        rows, invariants = _kernel_rows(a.shift(-nu), precision - nu)
        return rows, [v + nu for v in invariants]
    nflat = min(a.flat_precision, precision)
    return _int_kernel_rows(_int_rows(a, nflat), a.prime, nflat)


def _int_kernel_rows(ints, p, precision) -> tuple:
    """:func:`_kernel_rows` of a matrix given as integers mod p^precision.

    Only the kernel rows of Qinv become :class:`PadicNumber` entries;
    the invariants are the valuations of the integer pivots of R.
    """
    r, _, qinv, pivots, _ = _qr_ints(list(zip(*ints)), p, precision, True, False,
                                     with_q=False)
    rows = PadicMatrix.from_int_rows(p, qinv[len(pivots):], precision).rows
    return rows, [_valuation_int(r[i][j], p) for i, j in pivots]


def nullspace_mod_pN(a: PadicMatrix, precision: int) -> PadicMatrix:
    """Basis of the free part of the kernel of A modulo p^precision.

    One generator per Smith invariant of valuation >= ``precision``
    (and per dimension beyond the rank for wide matrices), each entry
    at precision ``precision`` when A is integral and known to it.
    Columns of the result extend to a basis of Z_p^m, so the spanned
    module has trivial annihilator.
    """
    rows, _ = _kernel_rows(a, precision)
    return PadicMatrix(a.prime, [[row[i] for row in rows] for i in range(a.ncols)])


# ----------------------------------------------------------------------
# solving and inversion

def solve(v: PadicMatrix, b: PadicMatrix) -> PadicMatrix:
    """X with V @ X = B, for V of full column rank at precision.

    V is expected to have unit elementary divisors (e.g. a nullspace
    basis); pivots of positive valuation cost precision and an
    inconsistent system raises :class:`SingularMatrixError`.
    """
    f = _qr(v, with_q=False)
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
    f = _qr(a, with_q=False)
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

def hessenberg(a: PadicMatrix) -> tuple:
    """Similarity reduction to upper Hessenberg form: A V = V B.

    Eliminates each subcolumn with norm-pivoted row operations; the
    mirrored column operations keep the similarity.
    """
    if a.nrows != a.ncols:
        raise ValueError("hessenberg reduction of a non-square matrix")
    if not a.is_integral():
        raise DomainError("hessenberg requires integral entries")
    p = a.prime
    n = a.nrows
    b = a.mutable()
    v = PadicMatrix.identity(p, n, a.flat_precision).mutable()

    def swap(i, j):
        b[i], b[j] = b[j], b[i]
        for row in b:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def axpy(dst, src, c):
        # B <- E B E^{-1} and V <- V E^{-1} for E adding c * row src to row dst.
        b[dst] = [x + c * y for x, y in zip(b[dst], b[src])]
        for row in b:
            row[src] = row[src] - c * row[dst]
        for row in v:
            row[src] = row[src] - c * row[dst]

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
