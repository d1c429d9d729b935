"""Command-line front end.

Modes:
  solve   0-dimensional system file -> solution document
  eig     matrix file -> eigenpairs + unresolved block report
  schur   matrix file -> block Schur form
  qr      matrix file -> QR factorization summary
  svd     matrix file -> singular value report

Timing lives in the benchmark, ``python3 perfbench/run.py``.

Exit codes: 0 success, 2 usage/parse error, 3 no Q_p-rational
solutions, 4 ill-conditioned-at-precision warning under --strict.

The machine-readable format is JSON with sorted keys; identical
(input, seed) pairs produce byte-identical documents, and
``parse_document(emit_document(doc)) == doc``.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from dataclasses import dataclass

from .padics import DomainError, PadicError, PadicNumber
from .matrices import PadicMatrix, read_matrix, qr, svd, condition_number
from .mpoly import parse_system
from .eigen import block_schur_form, eigvecs
from .solver import IllConditionedWarning, SolverError, solve_system

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NO_SOLUTIONS = 3
EXIT_ILL_CONDITIONED = 4


@dataclass
class RunConfig:
    mode: str
    input: str
    seed: int
    output: str | None
    strict: bool
    format: str
    verbose: bool


def build_config(argv) -> RunConfig:
    parser = argparse.ArgumentParser(
        prog="padicnla",
        description="p-adic linear algebra and polynomial system solving",
    )
    parser.add_argument("--mode", required=True,
                        choices=["solve", "eig", "schur", "qr", "svd"])
    parser.add_argument("--input", required=True, help="system or matrix file")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", help="output path (default: stdout)")
    parser.add_argument("--strict", action="store_true",
                        help="escalate ill-conditioned warnings to exit code 4")
    parser.add_argument("--format", choices=["human", "json"], default="human")
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)
    return RunConfig(
        mode=args.mode, input=args.input, seed=args.seed, output=args.output,
        strict=args.strict, format=args.format, verbose=args.verbose,
    )


# ----------------------------------------------------------------------
# document plumbing

def emit_document(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def parse_document(text: str) -> dict:
    return json.loads(text)


def _num(x: PadicNumber) -> dict:
    return {
        "repr": x.compact(),
        "valuation": None if x.is_zero else x.valuation,
        "precision": x.precision,
    }


def _matrix(a: PadicMatrix) -> list:
    return [[_num(e) for e in row] for row in a.rows]


def _human_matrix(a: PadicMatrix, indent="  ") -> str:
    return "\n".join(
        indent + "  ".join(e.compact() for e in row) for row in a.rows
    )


def _read_matrix_file(config: RunConfig, square: bool = False) -> PadicMatrix:
    with open(config.input) as fh:
        a = read_matrix(fh.read())
    if square and a.nrows != a.ncols:
        raise DomainError(
            f"mode {config.mode!r} needs a square matrix, got {a.nrows}x{a.ncols}"
        )
    return a


# ----------------------------------------------------------------------
# modes

def _run_solve(config: RunConfig) -> tuple:
    with open(config.input) as fh:
        sf = parse_system(fh.read())
    ss = solve_system(sf.polynomials, seed=config.seed)
    doc = {
        "mode": "solve",
        "prime": ss.prime,
        "precision": ss.precision,
        "macaulay_degree": ss.degree,
        "quotient_dimension": ss.delta,
        "seed": ss.seed,
        "pivot_valuations": ss.pivot_valuations,
        "unresolved_dimension": ss.unresolved_dimension,
        "solutions": [
            {
                "coordinates": {
                    name: _num(c) for name, c in zip(sf.names, pt.coordinates)
                },
                "multiplicity": pt.multiplicity,
                "residual_valuations": pt.residuals,
                "residual_valuation": pt.residual_valuation,
            }
            for pt in ss.points
        ],
    }
    if config.format == "human":
        lines = [
            f"p={ss.prime} N={ss.precision} D={ss.degree} delta={ss.delta} "
            f"seed={ss.seed}",
            f"unresolved (non-Q_p) dimension: {ss.unresolved_dimension}",
        ]
        for k, pt in enumerate(ss.points):
            lines.append(f"solution {k + 1} (multiplicity {pt.multiplicity}, "
                         f"residual valuation {pt.residual_valuation}):")
            for name, c in zip(sf.names, pt.coordinates):
                lines.append(f"  {name} = {c}")
        if not ss.points:
            lines.append("no Q_p-rational solutions at this precision")
        text = "\n".join(lines) + "\n"
    else:
        text = emit_document(doc)
    status = EXIT_OK if ss.points else EXIT_NO_SOLUTIONS
    return text, status


def _run_eig(config: RunConfig) -> tuple:
    a = _read_matrix_file(config, square=True)
    result = eigvecs(a)
    doc = {
        "mode": "eig",
        "prime": a.prime,
        "precision": a.flat_precision,
        "pairs": [
            {
                "value": _num(pair.value),
                "vector": [_num(e) for e in pair.vector],
                "residual_valuation": pair.residual_valuation,
                "multiplicity": pair.multiplicity,
            }
            for pair in result.pairs
        ],
        "unresolved_blocks": [
            {"dimension": blk.operator.nrows, "operator": _matrix(blk.operator)}
            for blk in result.unresolved
        ],
    }
    if config.format == "human":
        lines = [f"p={a.prime} N={a.flat_precision} n={a.nrows}"]
        for pair in result.pairs:
            lines.append(f"lambda = {pair.value}   (residual valuation "
                         f"{pair.residual_valuation}, multiplicity {pair.multiplicity})")
            for e in pair.vector:
                lines.append(f"    {e}")
        for blk in result.unresolved:
            lines.append(f"unresolved block of dimension {blk.operator.nrows}")
        text = "\n".join(lines) + "\n"
    else:
        text = emit_document(doc)
    return text, EXIT_OK


def _run_schur(config: RunConfig) -> tuple:
    a = _read_matrix_file(config, square=True)
    sd = block_schur_form(a)
    doc = {
        "mode": "schur",
        "prime": a.prime,
        "precision": a.flat_precision,
        "t": _matrix(sd.t),
        "v": _matrix(sd.v),
        "block_boundaries": sd.block_boundaries,
        "residual_valuation": sd.residual_valuation,
    }
    if config.format == "human":
        text = (
            f"blocks at {sd.block_boundaries}, residual valuation "
            f"{sd.residual_valuation}\nT =\n{_human_matrix(sd.t)}\n"
            f"V =\n{_human_matrix(sd.v)}\n"
        )
    else:
        text = emit_document(doc)
    return text, EXIT_OK


def _run_qr(config: RunConfig) -> tuple:
    a = _read_matrix_file(config)
    f = qr(a)
    doc = {
        "mode": "qr",
        "prime": a.prime,
        "precision": a.flat_precision,
        "q": _matrix(f.q),
        "r": _matrix(f.r),
        "pivots": [list(t) for t in f.pivots],
        "condition_number_q": "1",
    }
    if config.format == "human":
        text = (
            f"pivots {f.pivots}  kappa(Q) = {condition_number(f.q)}\n"
            f"Q =\n{_human_matrix(f.q)}\nR =\n{_human_matrix(f.r)}\n"
        )
    else:
        text = emit_document(doc)
    return text, EXIT_OK


def _run_svd(config: RunConfig) -> tuple:
    a = _read_matrix_file(config)
    s = svd(a)
    doc = {
        "mode": "svd",
        "prime": a.prime,
        "precision": a.flat_precision,
        "rank": s.rank,
        "sigma": [_num(x) for x in s.sigma],
        "smith_valuations": [
            None if x.is_zero else x.valuation for x in s.sigma
        ],
        "u": _matrix(s.u),
        "v": _matrix(s.v),
    }
    if config.format == "human":
        vals = ", ".join(
            f">= {x.precision}" if x.is_zero else str(x.valuation) for x in s.sigma
        )
        text = f"rank {s.rank}, Smith valuations: {vals}\n"
    else:
        text = emit_document(doc)
    return text, EXIT_OK


_MODES = {
    "solve": _run_solve,
    "eig": _run_eig,
    "schur": _run_schur,
    "qr": _run_qr,
    "svd": _run_svd,
}


def run(config: RunConfig) -> int:
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", IllConditionedWarning)
            text, status = _MODES[config.mode](config)
        ill = [w for w in caught if isinstance(w.message, IllConditionedWarning)]
        for w in ill:
            print(f"warning: {w.message}", file=sys.stderr)
        if ill and config.strict:
            return EXIT_ILL_CONDITIONED
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_SOLUTIONS if exc.kind == "no-solutions" else EXIT_USAGE
    except PadicError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if config.output:
        with open(config.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return status


def main(argv=None) -> int:
    try:
        config = build_config(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        # argparse exits with its own code; normalize usage errors to 2
        return EXIT_USAGE if exc.code not in (0, None) else 0
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
