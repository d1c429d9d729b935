"""0-dimensional polynomial system solving over Q_p.

Pipeline: build the resultant (Macaulay) matrix at the degree where
its image is exactly I \\cap V_D, compute the cokernel projection by a
p-adic SVD, pick a well-conditioned monomial basis of the quotient
with column-pivoted QR, read off the multiplication operators, and
extract solution coordinates from the eigenvectors of one random
linear combination of those operators.  Coordinates outside Q_p are
dropped and counted, residuals are evaluated and recorded per point.
"""

from __future__ import annotations

import random
import warnings
from dataclasses import dataclass, field

from .padics import PadicError, PadicNumber
from .matrices import PadicMatrix, _dot, solve, svd, qr
from .mpoly import monomials_upto
from .eigen import eigvecs
from .residue import poly_gcd


class SolverError(PadicError):
    def __init__(self, message, kind="usage"):
        super().__init__(message)
        self.kind = kind


class IllConditionedWarning(UserWarning):
    """The numerical rank of the resultant matrix is ambiguous at precision."""

    def __init__(self, message, valuations):
        super().__init__(message)
        self.valuations = valuations


def macaulay_degree(degrees) -> int:
    """The degree at which the resultant matrix image is all of I \\cap V_D."""
    return sum(d - 1 for d in degrees) + 1


@dataclass
class MacaulaySystem:
    prime: int
    precision: int
    nvars: int
    degree: int
    monomials: list            # column index -> exponent tuple, graded lex
    rows: list                 # row index -> (polynomial index, shift exponent)
    matrix: PadicMatrix


def macaulay_matrix(polys: list, degree: int | None = None) -> MacaulaySystem:
    """Rows enumerate the shifts q*f_i with deg q <= D - deg f_i.

    Entries are placed coefficients, no arithmetic happens, so the flat
    precision of the matrix equals the coefficient precision.
    """
    if not polys:
        raise SolverError("empty system")
    p = polys[0].prime
    nvars = polys[0].nvars
    for f in polys:
        if f.is_zero:
            raise SolverError("zero polynomial in system")
    degrees = [f.degree for f in polys]
    if degree is None:
        degree = macaulay_degree(degrees)
    if degree < max(degrees):
        raise SolverError(f"degree {degree} below the largest input degree")
    precision = min(c.precision for f in polys for c in f.coeffs.values())
    monomials = monomials_upto(nvars, degree)
    col_index = {e: j for j, e in enumerate(monomials)}
    zero = PadicNumber.zero(p, precision)
    rows = []
    data = []
    for i, f in enumerate(polys):
        for q in monomials_upto(nvars, degree - f.degree):
            row = [zero] * len(monomials)
            for e, c in f.coeffs.items():
                target = tuple(a + b for a, b in zip(e, q))
                row[col_index[target]] = c
            rows.append((i, q))
            data.append(row)
    return MacaulaySystem(
        prime=p, precision=precision, nvars=nvars, degree=degree,
        monomials=monomials, rows=rows, matrix=PadicMatrix(p, data),
    )


def cokernel(msys: MacaulaySystem) -> PadicMatrix:
    """The projection pi: V_D -> V_D / (I \\cap V_D), as a delta x dim(V_D)
    matrix whose rows annihilate every row of the resultant matrix.

    delta is read from the singular values of valuation >= N; singular
    values strictly between 0 and N make the quotient dimension
    precision-dependent and raise :class:`IllConditionedWarning`.
    """
    a = msys.matrix
    nprec = msys.precision
    s = svd(a)
    m = a.ncols
    kernel_idx = [
        j for j in range(m)
        if j >= len(s.sigma) or s.sigma[j].is_zero or s.sigma[j].valuation >= nprec
    ]
    fuzzy = [
        s.sigma[j].valuation
        for j in range(len(s.sigma))
        if not s.sigma[j].is_zero and 0 < s.sigma[j].valuation < nprec
    ]
    if fuzzy:
        warnings.warn(
            IllConditionedWarning(
                "singular values of valuation "
                f"{sorted(fuzzy)} blur the quotient dimension at precision "
                f"{nprec}",
                sorted(fuzzy),
            )
        )
    if not kernel_idx:
        raise SolverError(
            "quotient is zero at working precision: the system has no "
            "solutions or is not 0-dimensional",
            kind="no-solutions",
        )
    pi_rows = [[s.vinv[j, i] for i in range(m)] for j in kernel_idx]
    return PadicMatrix(msys.prime, pi_rows)


@dataclass
class TNF:
    """A truncated normal form: basis monomials, the projection, and the
    multiplication operators, with the QR conditioning profile."""

    prime: int
    precision: int
    degree: int
    pi: PadicMatrix
    basis: list                # delta exponent tuples, degree < D
    basis_columns: list        # their column indices in pi
    pivot_valuations: list
    operators: list            # one delta x delta matrix per variable


def select_basis(pi: PadicMatrix, msys: MacaulaySystem):
    """Choose delta monomials of degree < D whose pi-columns form a
    well-conditioned square block (column-pivoted QR, unit pivots)."""
    delta = pi.nrows
    low_idx = [j for j, e in enumerate(msys.monomials) if sum(e) < msys.degree]
    sub = pi.submatrix(range(delta), low_idx)
    f = qr(sub, column_pivot=True, hermite=False)
    pivot_vals = [f.r[i, j].valuation for i, j in f.pivots[:delta]]
    if len(f.pivots) < delta or any(v != 0 for v in pivot_vals):
        warnings.warn(
            IllConditionedWarning(
                "basis selection found only "
                f"{sum(1 for v in pivot_vals if v == 0)} unit pivots out of "
                f"{delta}; output precision is degraded",
                pivot_vals,
            )
        )
    chosen = [low_idx[f.column_permutation[j]] for _, j in f.pivots[:delta]]
    chosen_cols = sorted(chosen)
    basis = [msys.monomials[j] for j in chosen_cols]
    return basis, chosen_cols, pivot_vals


def multiplication_matrices(pi: PadicMatrix, basis_cols: list,
                            msys: MacaulaySystem) -> list:
    """[x_i]_b for every variable: column at basis monomial m is the
    b-coordinate vector of pi(x_i * m), solved against the pivot block."""
    delta = pi.nrows
    col_index = {e: j for j, e in enumerate(msys.monomials)}
    pivot_block = pi.submatrix(range(delta), basis_cols)
    ops = []
    for var in range(msys.nvars):
        cols = []
        for j in basis_cols:
            e = msys.monomials[j]
            shifted = tuple(
                a + (1 if k == var else 0) for k, a in enumerate(e)
            )
            cols.append(col_index[shifted])
        rhs = pi.submatrix(range(delta), cols)
        ops.append(solve(pivot_block, rhs))
    return ops


def truncated_normal_form(polys: list, degree: int | None = None) -> TNF:
    msys = macaulay_matrix(polys, degree)
    pi = cokernel(msys)
    basis, basis_cols, pivot_vals = select_basis(pi, msys)
    ops = multiplication_matrices(pi, basis_cols, msys)
    return TNF(
        prime=msys.prime, precision=msys.precision, degree=msys.degree,
        pi=pi, basis=basis, basis_columns=basis_cols,
        pivot_valuations=pivot_vals, operators=ops,
    )


@dataclass
class Solution:
    coordinates: list          # one PadicNumber per variable
    multiplicity: int
    residuals: list            # valuation of f_j at the point, per polynomial
    residual_valuation: int


@dataclass
class SolutionSet:
    prime: int
    precision: int
    degree: int
    delta: int
    seed: int
    points: list = field(default_factory=list)
    pivot_valuations: list = field(default_factory=list)
    unresolved_dimension: int = 0


def residual_report(point: list, polys: list) -> list:
    """Valuation of every f_j at the point (precision for inexact zeros)."""
    return [f.evaluate(point).valuation for f in polys]


def _random_unit(rng, p, nprec):
    u = rng.randrange(1, p ** nprec)
    while u % p == 0:
        u = rng.randrange(1, p ** nprec)
    return PadicNumber.from_int(p, u, nprec)


def _combined_operator(ops, rng, p, nprec):
    acc = None
    for m in ops:
        term = m.scale(_random_unit(rng, p, nprec))
        acc = term if acc is None else acc + term
    return acc


def _residue_charpoly_squarefree(l: PadicMatrix) -> bool:
    from .residue import charpoly_residue

    chi = charpoly_residue(l.to_residue())
    p = l.prime
    deriv = [(i * c) % p for i, c in enumerate(chi.coeffs)][1:]
    g = poly_gcd(chi.coeffs, deriv, p)
    return len(g) == 1


def solve_system(polys: list, seed: int = 0, degree: int | None = None) -> SolutionSet:
    """Solve a 0-dimensional system over Q_p.

    A random unit combination L of the multiplication operators is
    eigendecomposed once; by Stickelberger the eigenvectors are shared
    with every [x_i]_b, so coordinate i of the point attached to an
    eigenvector v is ([x_i]v)_k / v_k read at the maximal-norm entry k
    of v.  Draws making the residue characteristic polynomial of L
    square-full are retried up to 3 times (the eigensolver's fallback
    handles the rest).  Eigenvalues outside Q_p never produce points;
    their total block dimension is reported.
    """
    tnf = truncated_normal_form(polys, degree)
    p = tnf.prime
    nprec = tnf.precision
    rng = random.Random(seed)
    l = _combined_operator(tnf.operators, rng, p, nprec)
    for _ in range(3):
        if _residue_charpoly_squarefree(l):
            break
        l = _combined_operator(tnf.operators, rng, p, nprec)
    result = eigvecs(l, nprec)
    points = []
    for pair in result.pairs:
        k = min(range(len(pair.vector)),
                key=lambda i: (pair.vector[i].precision + 1) if pair.vector[i].is_zero
                else pair.vector[i].valuation)
        vk = pair.vector[k]
        if vk.is_zero or vk.valuation != 0:
            continue
        coords = [_dot(m.rows[k], pair.vector) / vk for m in tnf.operators]
        res = residual_report(coords, polys)
        points.append(Solution(
            coordinates=coords,
            multiplicity=pair.multiplicity,
            residuals=res,
            residual_valuation=min(res),
        ))
    points = _dedupe(points)
    unresolved = sum(b.operator.nrows for b in result.unresolved)
    return SolutionSet(
        prime=p, precision=nprec, degree=tnf.degree, delta=tnf.pi.nrows,
        seed=seed, points=points, pivot_valuations=tnf.pivot_valuations,
        unresolved_dimension=unresolved,
    )


def _dedupe(points: list) -> list:
    out = []
    for pt in points:
        for other in out:
            if all(
                (a - b).is_zero
                for a, b in zip(pt.coordinates, other.coordinates)
            ):
                other.multiplicity = max(other.multiplicity, pt.multiplicity)
                break
        else:
            out.append(pt)
    return out
