"""Finite-precision linear algebra and polynomial system solving over Q_p.

The package implements zealous (interval) p-adic arithmetic, QR/SVD
factorizations with valuation pivoting, eigensolvers for approximate
matrices, and a truncated-normal-form solver for 0-dimensional
polynomial systems, plus a small CLI (``python -m padicnla.cli`` or
the ``padicnla`` script).
"""

from .padics import (
    DomainError,
    PadicError,
    PadicNumber,
    ParseError,
    PrecisionError,
    PrimeMismatchError,
    ResidueElem,
    parse_padic,
)
from .matrices import (
    PadicMatrix,
    QRFactorization,
    SVDFactorization,
    SingularMatrixError,
    condition_number,
    hessenberg,
    householder,
    inverse,
    norm,
    nullspace_mod_pN,
    qr,
    read_matrix,
    solve,
    svd,
    write_matrix,
)
from .eigen import (
    EigenPair,
    EigenResult,
    InvariantBlock,
    SchurDecomposition,
    berkowitz_charpoly,
    block_schur_form,
    classical_eigen,
    eigenvalue_valuations,
    eigvecs,
    newton_polygon_slopes,
    power_iteration_decomposition,
    qp_poly_roots,
    qr_iteration,
)
from .mpoly import MultiPoly, parse_polynomial, parse_system
from .solver import (
    IllConditionedWarning,
    MacaulaySystem,
    SolutionSet,
    SolverError,
    TNF,
    cokernel,
    macaulay_degree,
    macaulay_matrix,
    multiplication_matrices,
    residual_report,
    select_basis,
    solve_system,
    truncated_normal_form,
)

__version__ = "0.1.0"
