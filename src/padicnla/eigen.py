"""Eigenvector and Schur-form solvers for approximate p-adic matrices.

Everything here solves the approximate-input formulation: given an
integral matrix known at flat precision N, produce pairs (lambda, v)
with |v| = 1 and A v = lambda v + O(p^N), or a block triangular T and
unimodular V with A V = V T + O(p^N).  Eigenvalues outside Q_p are
never resolved; the subspaces carrying them are returned as invariant
blocks with a residual certificate instead of being silently dropped.

The fast path seeds residue eigenvalues from the characteristic
polynomial over F_p and refines them either by repeated squaring of
the shifted matrix (power iteration) or by shifted LR steps on the
Hessenberg form.  Matrices whose residue characteristic polynomial is
a pure power fall back to a division-free characteristic polynomial
plus Hensel lifting of its roots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul

from .padics import PadicError, PadicNumber, PrecisionError, _valuation_int
from .matrices import (
    PadicMatrix,
    SingularMatrixError,
    _back_substitute,
    _dot,
    _int_kernel_rows,
    _int_rows,
    _qr,
    _qr_ints,
    hessenberg,
    normalize_vector,
    nullspace_mod_pN,
    qr,
    solve,
)
from .residue import (
    ResidueMatrix,
    ResiduePoly,
    charpoly_residue,
    is_pure_power,
    linear_roots_with_multiplicity,
    poly_divmod,
    poly_mul,
)


class EigenError(PadicError):
    """An internal invariant of the eigensolver failed (precision exhaustion)."""


@dataclass
class EigenPair:
    """An approximate eigenpair with |vector| = 1.

    ``residual_valuation`` is the entrywise minimum valuation of
    A v - lambda v, measured, never assumed.  ``multiplicity`` is the
    algebraic multiplicity the eigenvalue was recovered with.
    """

    value: PadicNumber
    vector: list
    residual_valuation: int
    multiplicity: int = 1


@dataclass
class InvariantBlock:
    """A pair (X, V) with A V = V X + O(p^N) and V of full column rank."""

    operator: PadicMatrix
    basis: PadicMatrix


@dataclass
class EigenResult:
    pairs: list = field(default_factory=list)
    unresolved: list = field(default_factory=list)


@dataclass
class SchurDecomposition:
    """Block upper triangular T and unimodular V with A V = V T + O(p^N)."""

    t: PadicMatrix
    v: PadicMatrix
    block_boundaries: list
    block_residues: list
    residual_valuation: int


# ----------------------------------------------------------------------
# small helpers

def _standard_basis(p, n, i, precision):
    e = [PadicNumber.zero(p, precision) for _ in range(n)]
    e[i] = PadicNumber.one(p, precision)
    return e


def _negligible(e: PadicNumber, precision: int) -> bool:
    return e.is_zero or e.valuation >= precision


def residual_valuation(a: PadicMatrix, value: PadicNumber, vector: list) -> int:
    """Entrywise min valuation of A v - lambda v (precision for inexact zeros)."""
    return min((x - value * y).valuation for x, y in zip(a.mat_vec(vector), vector))


def poly_eval(coeffs: list, x: PadicNumber) -> PadicNumber:
    acc = None
    for c in reversed(coeffs):
        acc = c if acc is None else acc * x + c
    return acc


def poly_derivative(coeffs: list) -> list:
    p = coeffs[0].prime
    out = []
    for i, c in enumerate(coeffs[1:], start=1):
        # i = u p^v exactly, so i c keeps the relative precision of c
        v = _valuation_int(i, p)
        u = PadicNumber.from_int(p, i // p ** v, c.relative_precision)
        out.append((u * c).shift(v))
    return out


def poly_taylor_shift(coeffs: list, center: PadicNumber) -> list:
    """Coefficients of f(center + y), by repeated synthetic division."""
    work = list(coeffs)
    out = []
    for _ in range(len(coeffs)):
        # divide work by (y) after substituting: classic Horner pass
        for i in range(len(work) - 2, -1, -1):
            work[i] = work[i] + center * work[i + 1]
        out.append(work[0])
        work = work[1:]
    return out


def _int_matmul(a: list, b: list, mod: int) -> list:
    """The product of two integer matrices, reduced mod ``mod``."""
    bt = list(zip(*b))
    return [[sum(map(mul, row, col)) % mod for col in bt] for row in a]


def _int_shifted(a: list, lam: int, mod: int) -> list:
    """A - lam I for a square integer matrix A reduced mod ``mod``."""
    return [[(x - lam) % mod if i == j else x for j, x in enumerate(row)]
            for i, row in enumerate(a)]


def _int_poly_at(coeffs: list, a: list, mod: int) -> list:
    """Horner evaluation of an integer polynomial (coefficients low to
    high) at a square integer matrix, reduced mod ``mod``."""
    n = len(a)
    acc = [[coeffs[-1] % mod if i == j else 0 for j in range(n)] for i in range(n)]
    for c in reversed(coeffs[:-1]):
        acc = _int_matmul(acc, a, mod)
        for i in range(n):
            acc[i][i] = (acc[i][i] + c) % mod
    return acc


# ----------------------------------------------------------------------
# division-free characteristic polynomial (Berkowitz)

def berkowitz_charpoly(a: PadicMatrix) -> list:
    """Monic characteristic polynomial det(xI - A), coefficients low to high.

    No divisions are performed, so coefficient absolute precision never
    drops below the flat precision of the input.
    """
    if a.nrows != a.ncols:
        raise ValueError("characteristic polynomial of a non-square matrix")
    p = a.prime
    n = a.nrows
    nflat = a.flat_precision
    one = PadicNumber.one(p, nflat)
    if n == 0:
        return [one]
    poly = [one, -a[0, 0]]  # descending coefficients of x - a11
    for i in range(1, n):
        row = a.rows[i][:i]
        s_terms = [a[i, i]]
        v = [a[k, i] for k in range(i)]
        for _ in range(i):
            s_terms.append(_dot(row, v))
            v = [_dot(a.rows[k][:i], v) for k in range(i)]
        toeplitz_col = [one] + [-s for s in s_terms]
        poly = [_dot(toeplitz_col[j::-1], poly) for j in range(i + 2)]
    return list(reversed(poly))


# ----------------------------------------------------------------------
# roots of a p-adic polynomial

@dataclass
class QpRoot:
    """An approximate root with its certified absolute precision."""

    value: PadicNumber
    multiplicity: int
    precision: int


def qp_poly_roots(coeffs: list, precision: int) -> list:
    """The roots of f in Q_p, with multiplicity-at-precision.

    Simple residue roots are lifted by Hensel's lemma; residue roots of
    higher multiplicity go through a Newton-polygon rescaling of the
    shifted polynomial and a recursion at reduced precision.  Factors
    with no Q_p roots are skipped.
    """
    coeffs = list(coeffs)
    while coeffs and coeffs[-1].is_zero:
        coeffs.pop()
    if not coeffs:
        raise ValueError("root-finding on a polynomial that vanishes at precision")
    nu = min(c.valuation for c in coeffs if not c.is_zero)
    if nu != 0:
        coeffs = [c.shift(-nu) for c in coeffs]
    return _roots_integral(coeffs, min(precision, min(c.precision for c in coeffs)))


def _roots_integral(coeffs: list, precision: int) -> list:
    p = coeffs[0].prime
    if precision <= 0:
        return []
    rbar = ResiduePoly(p, [c.residue().value for c in coeffs])
    if rbar.degree < 1:
        return []
    out = []
    for lam0, mult in linear_roots_with_multiplicity(rbar):
        if mult == 1:
            out.append(_hensel_lift(coeffs, lam0, precision))
            continue
        center = PadicNumber.from_int(p, lam0, precision)
        shifted = poly_taylor_shift(coeffs, center)
        for seg_slope, seg_len, edge_val in _positive_slopes(shifted):
            # non-integer slopes (ramified roots) are filtered upstream
            s = int(seg_slope)
            if s >= precision:
                # The cluster is indistinguishable from lam0 at precision.
                out.append(QpRoot(center, seg_len, precision))
                continue
            rescaled = [c.shift(s * i - edge_val) for i, c in enumerate(shifted)]
            sub_prec = min(c.precision for c in rescaled)
            if sub_prec <= 0:
                out.append(QpRoot(center.cap(max(1, s)), seg_len, max(1, s)))
                continue
            for sub in _roots_integral(rescaled, sub_prec):
                if sub.value.is_zero or sub.value.valuation != 0:
                    continue  # belongs to another slope segment
                value = center + sub.value.shift(s)
                out.append(
                    QpRoot(value.cap(s + sub.precision), sub.multiplicity,
                           s + sub.precision)
                )
    return out


def _hensel_lift(coeffs: list, lam0: int, precision: int) -> QpRoot:
    p = coeffs[0].prime
    deriv = poly_derivative(coeffs)
    x = PadicNumber.from_int(p, lam0, precision)
    for _ in range(2 * max(1, precision.bit_length()) + 4):
        fx = poly_eval(coeffs, x)
        if _negligible(fx, precision):
            break
        fpx = poly_eval(deriv, x)
        x = (x - fx / fpx).cap(precision)
    return QpRoot(x, 1, precision)


def _positive_slopes(coeffs: list):
    """Positive-slope segments of the Newton polygon of f.

    Yields (slope, length, value-at-left-vertex); unknown (inexact
    zero) coefficients contribute their precision as a capped height.
    """
    hull = _lower_hull([(i, c.valuation) for i, c in enumerate(coeffs)])
    for (i0, v0), (i1, v1) in zip(hull, hull[1:]):
        slope = Fraction(v0 - v1, i1 - i0)
        if slope > 0 and slope.denominator == 1:
            # min_i (val(c_i) + s*i) is attained on this segment
            yield slope, i1 - i0, v0 + int(slope) * i0


def _lower_hull(pts: list) -> list:
    hull = []
    for pt in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (pt[0] - x1) >= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    return hull


def newton_polygon_slopes(coeffs: list, precision: int | None = None) -> list:
    """Valuations of the roots of f, from the Newton polygon.

    Returns one entry per root (with multiplicity), as Fractions,
    capped at ``precision`` when given.
    """
    hull = _lower_hull([(i, c.valuation) for i, c in enumerate(coeffs)])
    out = []
    for (i0, v0), (i1, v1) in zip(hull, hull[1:]):
        slope = Fraction(v0 - v1, i1 - i0)
        for _ in range(i1 - i0):
            out.append(slope if precision is None else min(slope, Fraction(precision)))
    return sorted(out)


# ----------------------------------------------------------------------
# power iteration

def power_iteration_decomposition(
    a: PadicMatrix, chi_residue: ResiduePoly, precision: int | None = None
) -> list:
    """Split A into invariant blocks, one per residue eigenvalue.

    For each root lambda of the residue characteristic polynomial with
    multiplicity m, the shifted matrix A - lambda I is squared about
    log2(m N) times and the kernel of the result spans the invariant
    subspace; the block operator solves V X = A V.  A final block
    collects the residue factors without roots, so the returned bases
    always joint to a full basis.
    """
    n = a.nrows
    p = a.prime
    nprec = a.flat_precision if precision is None else min(precision, a.flat_precision)
    roots = linear_roots_with_multiplicity(chi_residue)
    if not roots:
        raise EigenError("power iteration needs at least one residue eigenvalue")
    ints = _int_rows(a, nprec)
    mod = p ** nprec
    blocks = []
    for lam, mult in roots:
        basis = _kernel_of_iterated_power(_int_shifted(ints, lam, mod), p, mult, nprec)
        if basis.ncols != mult:
            raise EigenError(
                f"invariant-subspace dimension {basis.ncols} does not match "
                f"multiplicity {mult} of residue eigenvalue {lam} mod {p}; "
                "working precision is exhausted"
            )
        operator = solve(basis, a @ basis)
        blocks.append(InvariantBlock(operator=operator, basis=basis))
    covered = sum(m for _, m in roots)
    if covered < n:
        blocks.append(_residue_cofactor_block(a, chi_residue, roots, nprec))
    return blocks


def _kernel_of_iterated_power(b: list, p: int, mult: int, nprec: int) -> PadicMatrix:
    """nullspace_mod_pN(B^(2^k), N) for an integral B given as integers
    mod p^N, with k = ceil(log2(mult N)) squarings.

    The kernel is read mod p^N, and zealous products of integral entries
    known to N agree with the integer products mod p^N, so the squarings
    run on the integers.
    """
    rounds = max(0, math.ceil(math.log2(max(2, mult * nprec))))
    mod = p ** nprec
    for _ in range(rounds):
        b = _int_matmul(b, b, mod)
    rows, _ = _int_kernel_rows(b, p, nprec)
    return PadicMatrix(p, [[row[i] for row in rows] for i in range(len(b))])


def _residue_cofactor_block(a, chi_residue, roots, nprec) -> InvariantBlock:
    """Invariant block for the residue factors with no roots in F_p."""
    p = a.prime
    lin = [1]
    for lam, mult in roots:
        for _ in range(mult):
            lin = poly_mul(lin, [(-lam) % p, 1], p)
    rho, rem = poly_divmod(chi_residue.coeffs, lin, p)
    if rem:
        raise EigenError("residue characteristic polynomial failed to split")
    b = _int_poly_at(rho, _int_rows(a, nprec), p ** nprec)
    deg = len(rho) - 1
    basis = _kernel_of_iterated_power(b, p, deg, nprec)
    operator = solve(basis, a @ basis)
    return InvariantBlock(operator=operator, basis=basis)


# ----------------------------------------------------------------------
# the main eigenvector driver

def eigvecs(a: PadicMatrix, precision: int | None = None) -> EigenResult:
    """All eigenpairs of A defined over Q_p, plus unresolved blocks.

    Diagonal matrices return immediately; matrices divisible by p are
    rescaled and re-run at reduced precision (the valuation shift
    restores the original absolute scale on the way out); otherwise the
    residue characteristic polynomial decides between power iteration
    (distinct residue factors) and the division-free classical fallback
    (pure-power residue).
    """
    p = a.prime
    n = a.nrows
    if a.nrows != a.ncols:
        raise ValueError("eigvecs requires a square matrix")
    nprec = a.flat_precision if precision is None else min(precision, a.flat_precision)
    a = a.cap(nprec)
    if not a.is_integral():
        raise PadicError("eigvecs requires integral entries; rescale first")

    if a.is_diagonal_at_precision():
        pairs = [
            EigenPair(
                value=a[i, i],
                vector=_standard_basis(p, n, i, nprec),
                residual_valuation=residual_valuation(
                    a, a[i, i], _standard_basis(p, n, i, nprec)
                ),
            )
            for i in range(n)
        ]
        return EigenResult(pairs=pairs, unresolved=[])

    nu = a.min_valuation()
    if nu is None:
        # Zero at precision: every unit vector is an eigenvector.
        zero = PadicNumber.zero(p, nprec)
        pairs = [
            EigenPair(zero, _standard_basis(p, n, i, nprec), nprec)
            for i in range(n)
        ]
        return EigenResult(pairs=pairs, unresolved=[])
    if nu >= 1:
        sub = eigvecs(a.shift(-nu), nprec - nu)
        pairs = []
        for pair in sub.pairs:
            value = pair.value.shift(nu)
            vector = [e.with_precision(nprec) for e in pair.vector]
            pairs.append(
                EigenPair(
                    value=value,
                    vector=vector,
                    residual_valuation=residual_valuation(a, value, vector),
                    multiplicity=pair.multiplicity,
                )
            )
        unresolved = [
            InvariantBlock(
                operator=blk.operator.shift(nu).with_precision(nprec),
                basis=blk.basis.with_precision(nprec),
            )
            for blk in sub.unresolved
        ]
        return EigenResult(pairs=pairs, unresolved=unresolved)

    chi = charpoly_residue(a.to_residue())
    roots = linear_roots_with_multiplicity(chi)
    if not roots:
        return EigenResult(
            pairs=[],
            unresolved=[InvariantBlock(a, PadicMatrix.identity(p, n, nprec))],
        )
    if is_pure_power(chi) is not None:
        return _pure_power_eigvecs(a, nprec)

    try:
        blocks = power_iteration_decomposition(a, chi, nprec)
    except EigenError:
        return classical_eigen(a, nprec)
    pairs = []
    unresolved = []
    for blk in blocks:
        if blk.operator.nrows == n:
            # Degenerate split; keep the block unresolved to avoid looping.
            unresolved.append(blk)
            continue
        sub = eigvecs(blk.operator, nprec)
        for pair in sub.pairs:
            try:
                vector = normalize_vector(blk.basis.mat_vec(pair.vector))
            except PrecisionError:
                # the mapped vector vanishes at precision; no certified
                # eigenvector can be reported for this pair
                continue
            pairs.append(
                EigenPair(
                    value=pair.value,
                    vector=vector,
                    residual_valuation=residual_valuation(a, pair.value, vector),
                    multiplicity=pair.multiplicity,
                )
            )
        for inner in sub.unresolved:
            unresolved.append(
                InvariantBlock(
                    operator=inner.operator,
                    basis=blk.basis @ inner.basis,
                )
            )
    return EigenResult(pairs=pairs, unresolved=unresolved)


def _pure_power_eigvecs(a: PadicMatrix, nprec: int) -> EigenResult:
    """Pure-power residue polynomial: try deflation before the classical
    fallback.

    The LR step schedule has nothing to offer here (one shift, already
    converged in residue), but the Hessenberg form may carry existing
    subdiagonal zeros -- e.g. an already triangular input, where the
    classical route is provably worse (the characteristic polynomial
    can lose the eigenvalues entirely at precision).  When the Schur
    form splits, eigenpairs of the diagonal blocks are lifted through
    the triangular coupling by back-substitution.
    """
    t, v = qr_iteration(a, nprec)
    bounds = _block_boundaries(t, nprec)
    if len(bounds) <= 2:
        return classical_eigen(a, nprec)
    pairs = []
    for s, e in zip(bounds, bounds[1:]):
        sub = eigvecs(t.submatrix(range(s, e), range(s, e)), nprec)
        if sub.unresolved:
            return classical_eigen(a, nprec)
        for pair in sub.pairs:
            try:
                full = _lift_through_triangular(t, s, pair.value, pair.vector, nprec)
            except PrecisionError:
                return classical_eigen(a, nprec)
            vector = normalize_vector(v.mat_vec(full))
            pairs.append(
                EigenPair(
                    value=pair.value,
                    vector=vector,
                    residual_valuation=residual_valuation(a, pair.value, vector),
                    multiplicity=pair.multiplicity,
                )
            )
    return EigenResult(pairs=pairs, unresolved=[])


def _lift_through_triangular(t: PadicMatrix, s: int, lam: PadicNumber,
                             w: list, nprec: int) -> list:
    """Extend an eigenvector of the diagonal block at [s, s+len(w)) to an
    eigenvector of the full block triangular T, solving the coupled
    upper triangular system for the leading coordinates."""
    e = s + len(w)
    y = [None] * s
    for i in range(s - 1, -1, -1):
        rhs = _dot(t.rows[i][i + 1:e], y[i + 1:] + list(w))
        d = t[i, i] - lam
        if d.is_zero:
            raise PrecisionError(
                "eigenvalue collides with an earlier diagonal block at precision",
                precision=d.precision,
            )
        y[i] = (-rhs) / d
    tail = [PadicNumber.zero(t.prime, nprec) for _ in range(t.nrows - e)]
    return y + list(w) + tail


# ----------------------------------------------------------------------
# classical (division-free) fallback

def classical_eigen(a: PadicMatrix, precision: int | None = None) -> EigenResult:
    """Eigenpairs via the division-free characteristic polynomial.

    Roots are lifted with :func:`qp_poly_roots` at whatever precision
    they support; eigenvectors come from the kernel of A - lambda I at
    that precision.  The subspace belonging to factors without Q_p
    roots is returned as one invariant block (the image of the product
    of (A - lambda I)-powers over the found roots).
    """
    p = a.prime
    n = a.nrows
    nprec = a.flat_precision if precision is None else min(precision, a.flat_precision)
    if n == 1:
        vec = [PadicNumber.one(p, nprec)]
        return EigenResult(
            pairs=[EigenPair(a[0, 0], vec, residual_valuation(a, a[0, 0], vec))],
            unresolved=[],
        )
    chi = berkowitz_charpoly(a)
    roots = qp_poly_roots(chi, nprec)
    pairs = []
    covered = 0
    for root in roots:
        kprec = max(1, min(root.precision, nprec))
        shifted = a.cap(kprec) - PadicMatrix.identity(p, n, kprec).scale(
            root.value.cap(kprec)
        )
        kernel = nullspace_mod_pN(shifted, kprec)
        if kernel.ncols == 0:
            continue
        covered += root.multiplicity
        for j in range(kernel.ncols):
            vector = normalize_vector(kernel.column(j))
            pairs.append(
                EigenPair(
                    value=root.value,
                    vector=vector,
                    residual_valuation=residual_valuation(a, root.value, vector),
                    multiplicity=root.multiplicity,
                )
            )
    unresolved = []
    if covered < n:
        unresolved.append(_complement_block(a, roots, nprec))
    return EigenResult(pairs=pairs, unresolved=unresolved)


def _complement_block(a: PadicMatrix, roots: list, nprec: int) -> InvariantBlock:
    """Invariant block complementary to the resolved root subspaces."""
    p = a.prime
    n = a.nrows
    # the roots are known to their own precision only
    work = min([nprec] + [root.value.precision for root in roots])
    mod = p ** work
    ints = _int_rows(a, work)
    b = [[int(i == j) for j in range(n)] for i in range(n)]
    for root in roots:
        shifted = _int_shifted(ints, root.value.lift_int(), mod)
        for _ in range(root.multiplicity):
            b = _int_matmul(b, shifted, mod)
    rounds = max(1, math.ceil(math.log2(max(2, n * nprec))))
    for _ in range(rounds):
        b = _int_matmul(b, b, mod)
    # image basis: the columns of Q at the pivots, all of valuation below N
    _, q, _, pivots, _ = _qr_ints(b, p, work, True, True, with_qinv=False)
    rank = len(pivots)
    if not rank:
        # the complement is not visible at this precision; report the
        # whole space as unresolved rather than claim a decomposition
        return InvariantBlock(
            operator=a.cap(nprec), basis=PadicMatrix.identity(p, n, nprec)
        )
    basis = PadicMatrix.from_int_rows(p, [row[:rank] for row in q], work)
    try:
        operator = solve(basis, a @ basis)
    except (SingularMatrixError, PrecisionError):
        return InvariantBlock(
            operator=a.cap(nprec), basis=PadicMatrix.identity(p, n, nprec)
        )
    return InvariantBlock(operator=operator, basis=basis)


# ----------------------------------------------------------------------
# shifted LR ("QR") iteration and block Schur form

def _lr_step(b, v, s, e, shift_val, p):
    """One shifted LR step on the diagonal block [s, e), updating the
    coupling blocks and the accumulated basis so A V = V B stays true."""
    sub_rows = [list(b[i][s:e]) for i in range(s, e)]
    if shift_val is not None:
        for i, row in enumerate(sub_rows):
            row[i] = row[i] - shift_val
    f = qr(PadicMatrix(p, sub_rows), hermite=False)
    new_block = f.r @ f.q
    for i in range(e - s):
        for j in range(e - s):
            val = new_block[i, j]
            if shift_val is not None and i == j:
                val = val + shift_val
            b[s + i][s + j] = val
    _change_block_basis(b, v, s, e, f.q, f.qinv)


def _change_block_basis(b, v, s, e, w, winv):
    """Finish B <- G^-1 B G and V <- V G for G = diag(I, W, I) with W on
    the diagonal block [s, e), whose new value the caller has stored."""
    wcols = [w.column(j) for j in range(e - s)]
    for i in range(s):
        seg = b[i][s:e]
        b[i][s:e] = [_dot(seg, col) for col in wcols]
    strip_cols = list(zip(*(b[i][e:] for i in range(s, e))))
    for i, wrow in enumerate(winv.rows):
        b[s + i][e:] = [_dot(wrow, col) for col in strip_cols]
    for row in v:
        seg = row[s:e]
        row[s:e] = [_dot(seg, col) for col in wcols]


def _scan_split(b, s, e, nprec):
    for k in range(s, e - 1):
        if _negligible(b[k + 1][k], nprec):
            return k
    return None


def _lr_run(b, v, s, e, p, nprec, work):
    """Run the full shift schedule on block [s, e), splitting eagerly
    whenever a subdiagonal entry becomes an inexact zero."""
    if e - s <= 1:
        return
    k = _scan_split(b, s, e, nprec)
    if k is not None:
        _lr_run(b, v, s, k + 1, p, nprec, work)
        _lr_run(b, v, k + 1, e, p, nprec, work)
        return
    block = ResidueMatrix(p, [[x.residue().value for x in b[i][s:e]] for i in range(s, e)])
    chi = charpoly_residue(block)
    roots = linear_roots_with_multiplicity(chi)
    if not roots:
        return
    if len(roots) == 1 and roots[0][1] == e - s:
        return  # pure power; the classical pass of the Schur driver handles it
    for lam, mult in roots:
        shift_val = PadicNumber.from_int(p, lam, work)
        # the subdiagonal gains one valuation per step (from as low as 0
        # after a shift change), so allow a small margin beyond m*N
        for _ in range(mult * nprec + 4):
            _lr_step(b, v, s, e, shift_val, p)
            k = _scan_split(b, s, e, nprec)
            if k is not None:
                _lr_run(b, v, s, k + 1, p, nprec, work)
                _lr_run(b, v, k + 1, e, p, nprec, work)
                return


def qr_iteration(a: PadicMatrix, precision: int | None = None) -> tuple:
    """Shifted LR iteration on the Hessenberg form: returns (B, V) with
    A V = V B + O(p^N) and B (block) upper triangular at precision.

    For each residue eigenvalue of multiplicity m, m*N constant-shift
    steps are performed; subdiagonal entries separating eigenvalues of
    distinct valuation converge to inexact zeros and the problem is
    split eagerly at every such entry.
    """
    p = a.prime
    n = a.nrows
    nprec = a.flat_precision if precision is None else min(precision, a.flat_precision)
    # Division by non-unit pivots inside the LR steps erodes precision.
    # Run on a lifted representative with enough working precision to
    # absorb the erosion and cap the result; the output is determined by
    # the input mod p^N, so any representative gives a valid answer.
    work = nprec * (n + 4)
    hess, v = hessenberg(a.cap(nprec).with_precision(work))
    b = hess.mutable()
    vm = v.mutable()
    _lr_run(b, vm, 0, n, p, nprec, work)
    return PadicMatrix(p, b).cap(nprec), PadicMatrix(p, vm).cap(nprec)


def _block_boundaries(t: PadicMatrix, nprec: int) -> list:
    bounds = [0]
    for k in range(t.nrows - 1):
        if _negligible(t[k + 1, k], nprec):
            bounds.append(k + 1)
    bounds.append(t.nrows)
    return bounds


def block_schur_form(a: PadicMatrix, precision: int | None = None) -> SchurDecomposition:
    """Block Schur form A V = V T + O(p^N) with declared block boundaries.

    Follows the same dispatch as :func:`eigvecs`: diagonal and
    p-divisible inputs short-circuit, residue polynomials without
    linear factors return (A, I) unchanged, the generic case runs the
    shifted LR iteration, and any remaining diagonal block with a
    repeated pure-power residue polynomial is refined by the classical
    fallback.  The achieved residual valuation is reported, not assumed.
    """
    p = a.prime
    n = a.nrows
    nprec = a.flat_precision if precision is None else min(precision, a.flat_precision)
    a = a.cap(nprec)
    identity = PadicMatrix.identity(p, n, nprec)
    if a.is_diagonal_at_precision():
        return _finish_schur(a, a, identity, nprec)
    nu = a.min_valuation()
    if nu is not None and nu >= 1:
        sub = block_schur_form(a.shift(-nu), nprec - nu)
        t = sub.t.shift(nu).with_precision(nprec)
        v = sub.v.with_precision(nprec)
        return _finish_schur(a, t, v, nprec)
    chi = charpoly_residue(a.to_residue())
    roots = linear_roots_with_multiplicity(chi)
    if not roots:
        return _finish_schur(a, a, identity, nprec)
    if is_pure_power(chi) is None:
        t, v = qr_iteration(a, nprec)
    else:
        t, v = a, identity
    t_rows = t.mutable()
    v_rows = v.mutable()
    # Refining a diagonal block changes no other diagonal block, so each
    # block can be read from t.
    bounds = _block_boundaries(t, nprec)
    for s, e in zip(bounds, bounds[1:]):
        if e - s < 2:
            continue
        block = t.submatrix(range(s, e), range(s, e))
        if is_pure_power(charpoly_residue(block.to_residue())) is not None:
            _classical_refine(t_rows, v_rows, block, s, nprec)
    return _finish_schur(a, PadicMatrix(p, t_rows), PadicMatrix(p, v_rows), nprec)


def _classical_refine(t_rows, v_rows, block, s, nprec):
    """Refine the pure-power diagonal block starting at row s with the
    classical fallback, when it yields a complete well-conditioned
    eigenbasis."""
    m = block.nrows
    vectors = [pair.vector for pair in classical_eigen(block, nprec).pairs]
    if len(vectors) != m:
        return
    w = PadicMatrix(block.prime, list(zip(*vectors)))
    f = _qr(w, with_q=False)
    if len(f.pivots) < m or any(f.r[i, j].valuation != 0 for i, j in f.pivots):
        return
    x = _back_substitute(f.r, f.qinv @ (block @ w))
    for i in range(m):
        t_rows[s + i][s:s + m] = x.rows[i]
    _change_block_basis(t_rows, v_rows, s, s + m, w, _back_substitute(f.r, f.qinv))


def _finish_schur(a, t, v, nprec) -> SchurDecomposition:
    bounds = _block_boundaries(t, nprec)
    residues = []
    for s, e in zip(bounds, bounds[1:]):
        try:
            # raises for blocks not known mod p or of negative valuation
            residue = t.submatrix(range(s, e), range(s, e)).to_residue()
        except PadicError:
            lam = None
        else:
            lam = is_pure_power(charpoly_residue(residue))
        residues.append((lam, e - s))
    res = (a @ v) - (v @ t)
    rv = min(e.valuation for row in res.rows for e in row)
    return SchurDecomposition(
        t=t,
        v=v,
        block_boundaries=bounds,
        block_residues=residues,
        residual_valuation=rv,
    )


# ----------------------------------------------------------------------
# eigenvalue valuations via unshifted LR

def eigenvalue_valuations(a: PadicMatrix, precision: int | None = None) -> list:
    """Valuations of the eigenvalues (sorted, with multiplicity).

    Runs unshifted LR rounds on the Hessenberg form until subdiagonal
    entries separating valuation-distinct groups have converged to
    inexact zeros, then reads each remaining diagonal block as
    contributing m copies of val(det block)/m.  Works even when the
    eigenvalues are not defined over Q_p.  Valuations are capped at the
    working precision.

    When val(det A) >= N the tail of the valuation spectrum is not
    determined by the input at all, and this capped reading may differ
    from the capped Newton-polygon reading of the characteristic
    polynomial; both are consistent with the data.
    """
    p = a.prime
    n = a.nrows
    nprec = a.flat_precision if precision is None else min(precision, a.flat_precision)
    if n == 0:
        return []
    nu = a.min_valuation()
    if nu is None:
        return [Fraction(nprec)] * n
    if nu < 0:
        inner = eigenvalue_valuations(a.shift(-nu), nprec - nu)
        return sorted(min(w + nu, Fraction(nprec)) for w in inner)
    # The valuation spectrum capped at N depends only on the entry
    # representatives mod p^N, so the rounds may run at an inflated
    # working precision; this keeps the division losses of repeated LR
    # steps away from the subdiagonal entries that decide the blocks.
    # each round can cost up to val(det) <= n*N digits and the slowest
    # split needs about n*N rounds, hence the quadratic budget
    work = 2 * n * nprec * nprec + nprec + 4
    hess, v = hessenberg(a.cap(nprec).with_precision(work))
    b = hess.mutable()
    vm = v.mutable()
    for _ in range(n * nprec):
        t = PadicMatrix(p, b)
        bounds = _block_boundaries(t, nprec)
        if all(e - s == 1 for s, e in zip(bounds, bounds[1:])):
            break
        for s, e in zip(bounds, bounds[1:]):
            if e - s >= 2:
                _lr_step(b, vm, s, e, None, p)
    return _read_block_valuations(PadicMatrix(p, b), nprec)


def _read_block_valuations(t: PadicMatrix, nprec: int) -> list:
    out = []
    bounds = _block_boundaries(t, nprec)
    for s, e in zip(bounds, bounds[1:]):
        m = e - s
        detval = _det_valuation(t.submatrix(range(s, e), range(s, e)), nprec)
        share = min(Fraction(detval, m), Fraction(nprec))
        out.extend([share] * m)
    return sorted(out)


def _det_valuation(block: PadicMatrix, nprec: int) -> int:
    """Sum of the pivot valuations of qr(block), with nprec for each
    missing pivot."""
    p = block.prime
    nflat = block.flat_precision
    r, _, _, pivots, _ = _qr_ints(_int_rows(block, nflat), p, nflat, False, False,
                                  with_q=False, with_qinv=False)
    missing = block.nrows - len(pivots)
    return sum(_valuation_int(r[i][j], p) for i, j in pivots) + missing * nprec
