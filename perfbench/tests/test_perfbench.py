"""Tests of the benchmark's own generator, checker and tracer.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

import statistics
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

import checker  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from padicnla import cli  # noqa: E402,F401  (run.execute looks it up)


def _num(x, prec, p):
    """A CLI number document for the integer x known mod p^prec."""
    x %= p ** prec
    if x == 0:
        return {"repr": f"O({p}^{prec})", "valuation": None, "precision": prec}
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return {"repr": f"{x}*{p}^{v} + O({p}^{prec})", "valuation": v, "precision": prec}


def _flip(entry, p):
    """The same number with its lowest claimed digit changed."""
    u, rest = entry["repr"].split("*", 1)
    return dict(entry, repr=f"{(int(u) + 1) % p ** entry['precision'] or 1}*{rest}")


def _matmul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


# ----------------------------------------------------------------------
# generator

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload, tmp_path):
    first = workloads.write_inputs(workloads.generate(workload, 7), tmp_path / "a")
    again = workloads.write_inputs(workloads.generate(workload, 7), tmp_path / "b")
    other = workloads.generate(workload, 8)
    assert [Path(o.path).read_bytes() for o in first] == \
        [Path(o.path).read_bytes() for o in again]
    assert [o.text for o in first] != [o.text for o in other]


def test_conjugation_is_exact():
    for op in workloads.generate("eig-mixed", 3)[:len(workloads.EIG_PASS)]:
        if op.mode == "valuations":
            continue
        u, uinv, a = op.truth["u"], op.truth["uinv"], op.truth["matrix"]
        n = len(a)
        assert _matmul(u, uinv) == [[int(i == j) for j in range(n)] for i in range(n)]
        # A U = U D: the first nq columns of U are eigenvectors
        au = _matmul(a, u)
        for i, lam in enumerate(op.truth["values"]):
            assert [row[i] for row in au] == [lam * row[i] for row in u]


# ----------------------------------------------------------------------
# checker on hand-built outputs

def _good_solve_doc(op):
    p = op.truth["prime"]
    names = op.truth["names"]
    return {"solutions": [
        {"coordinates": {name: _num(x, 8, p) for name, x in zip(names, point)},
         "multiplicity": 1}
        for point in op.truth["points"]
    ]}


def test_checker_accepts_good_and_rejects_flipped_solve():
    op = workloads.grid_op(0, 7, 8, [[3, 10, 5 + 7 ** 5], [1, 2]])
    doc = _good_solve_doc(op)
    verdict = checker.check("solve", 0, doc, op.truth)
    assert verdict.ok and verdict.digits == [8] * 12
    bad = _good_solve_doc(op)
    sol = bad["solutions"][2]["coordinates"]
    sol["x"] = _flip(sol["x"], 7)
    verdict = checker.check("solve", 0, bad, op.truth)
    assert not verdict.ok and "no true point" in verdict.reason


def test_checker_rejects_missing_and_extra_solutions():
    op = workloads.grid_op(0, 5, 8, [[1, 2], [3, 4]])
    doc = _good_solve_doc(op)
    missing = {"solutions": doc["solutions"][:-1]}
    assert "missing" in checker.check("solve", 0, missing, op.truth).reason
    extra = {"solutions": doc["solutions"] + doc["solutions"][:1]}
    assert "extra" in checker.check("solve", 0, extra, op.truth).reason


def test_checker_accepts_good_and_rejects_flipped_eig():
    import random

    op = workloads.eig_op(0, "eig", "split", 5, 7, 6, random.Random(1))
    p, u = 7, op.truth["u"]
    pairs = [
        {"value": _num(lam, 6, p), "multiplicity": 1,
         "vector": [_num(row[i], 6, p) for row in u]}
        for i, lam in enumerate(op.truth["values"])
    ]
    doc = {"pairs": pairs, "unresolved_blocks": []}
    assert checker.check("eig", 0, doc, op.truth).ok
    doc["pairs"][1]["value"] = _flip(doc["pairs"][1]["value"], p)
    assert not checker.check("eig", 0, doc, op.truth).ok


def test_checker_holds_schur_to_its_residual_valuation():
    import random

    p, prec = 5, 6
    op = workloads.eig_op(0, "schur", "cluster", 4, p, prec, random.Random(2))
    u, values = op.truth["u"], op.truth["values"]
    n = len(u)
    t = [[values[i] if i == j else 0 for j in range(n)] for i in range(n)]
    t[0][1] = p ** 3      # A V = V T now holds mod p^3 only
    doc = {"precision": prec, "block_boundaries": list(range(n + 1)),
           "v": [[_num(x, prec, p) for x in row] for row in u],
           "t": [[_num(x, prec, p) for x in row] for row in t]}
    verdict = checker.check("schur", 0, dict(doc, residual_valuation=3), op.truth)
    assert verdict.ok and verdict.digits == [3]
    verdict = checker.check("schur", 0, dict(doc, residual_valuation=prec), op.truth)
    assert not verdict.ok and "A V != V T" in verdict.reason
    t[1][0] = p ** 2      # below the blocks, and not zero mod p^3
    doc["t"] = [[_num(x, prec, p) for x in row] for row in t]
    verdict = checker.check("schur", 0, dict(doc, residual_valuation=3), op.truth)
    assert not verdict.ok and "below its diagonal blocks" in verdict.reason


def test_checker_counts_exit_codes_and_exceptions():
    op = workloads.grid_op(0, 5, 8, [[1, 2], [3, 4]])
    assert checker.check("solve", 3, None, op.truth).reason == "exit code 3"
    verdict = checker.check("solve", 0, None, op.truth, error="ValueError: boom")
    assert not verdict.ok and "ValueError" in verdict.reason


# ----------------------------------------------------------------------
# the program, end to end

def test_line_points_solve_the_system():
    import random

    op = workloads.line_op(0, 7, 8, 5, 3, random.Random(2))
    assert len(op.truth["points"]) == 5
    assert len({pt[0] % 7 for pt in op.truth["points"]}) == 5
    m = 7 ** 8
    for x, y, z in op.truth["points"]:
        for line, value in zip(op.text.splitlines()[2:], (y, z)):
            terms = line.split(" + ")
            assert terms[0] in ("y", "z")
            coeffs = {t.endswith("*x"): int(t.removesuffix("*x")) for t in terms[1:]}
            assert (value + coeffs.get(True, 0) * x + coeffs.get(False, 0)) % m == 0


def test_real_output_passes_then_fails_with_one_flipped_digit(tmp_path):
    import random

    op = workloads.write_inputs(
        [workloads.line_op(0, 13, 8, 6, 2, random.Random(0))], tmp_path)[0]
    _, status, doc, error = run.execute(op, tmp_path)
    assert checker.check("solve", status, doc, op.truth, error).ok
    coord = doc["solutions"][0]["coordinates"]
    coord["y"] = _flip(coord["y"], 13)
    assert not checker.check("solve", status, doc, op.truth, error).ok


def test_known_defects_are_counted_as_failures(tmp_path):
    crash, wrong = workloads.write_inputs(workloads.known_defect_ops(), tmp_path)
    _, status, doc, error = run.execute(crash, tmp_path)
    verdict = checker.check("solve", status, doc, crash.truth, error)
    assert not verdict.ok and "ValueError" in verdict.reason
    _, status, doc, error = run.execute(wrong, tmp_path)
    assert status == 0 and len(doc["solutions"]) == 18
    verdict = checker.check("solve", status, doc, wrong.truth, error)
    assert not verdict.ok and "no true point" in verdict.reason


# ----------------------------------------------------------------------
# tracer

def test_tracer_records_nested_spans_and_restores_names(tmp_path):
    import padicnla.eigen as eigen
    import padicnla.matrices as matrices
    from padicnla.padics import PadicNumber

    before = (eigen.qr, matrices.qr, PadicNumber.__mul__)
    op = workloads.write_inputs(
        [workloads.grid_op(0, 11, 8, [[1, 2, 3], [4, 5]])], tmp_path)[0]
    tr = tracer.Tracer("padicnla")
    tr.op = 0
    tr.install()
    try:
        run.execute(op, tmp_path)
    finally:
        tr.uninstall()
    assert (eigen.qr, matrices.qr, PadicNumber.__mul__) == before
    names = [s[0] for s in tr.spans]
    assert names[0] == "cli.main" and "solver.solve_system" in names
    totals = tracer.layer_totals(tr.spans)
    assert totals["solver.eigvecs_s"] > 0 and totals["solver.l_draws"] >= 1
    assert totals["cli.main_s"] >= totals["solver.solve_system_s"] > 0
    assert tr.counts["padics.mul_calls"] > 0 and tr.counts["padics.new_objects"] > 0
    assert totals["cli.self_s"] > 0
    tr.write(tmp_path / "spans.jsonl")
    assert len((tmp_path / "spans.jsonl").read_text().splitlines()) == len(tr.spans)


@pytest.mark.parametrize("mode", ["qr", "svd"])
def test_real_factorization_passes_then_fails_with_one_flipped_digit(mode, tmp_path):
    import random

    p, prec = 5, 6
    exps = [0, 0, 1, 2, 3, 7]
    a = workloads.smith_product(exps, p, random.Random(4))
    op = workloads.Op(index=0, mode=mode, label=mode,
                      text=workloads.format_matrix(a, p, prec),
                      truth={"prime": p, "exponents": exps, "matrix": a})
    op = workloads.write_inputs([op], tmp_path)[0]
    _, status, doc, error = run.execute(op, tmp_path)
    verdict = checker.check(mode, status, doc, op.truth, error)
    assert verdict.ok and verdict.digits == [prec]
    key = "r" if mode == "qr" else "u"
    row = doc[key][0]
    j = next(j for j, e in enumerate(row) if e["valuation"] == 0)
    row[j] = _flip(row[j], p)
    assert not checker.check(mode, status, doc, op.truth, error).ok


def test_traced_eigvecs_that_raises_is_counted(tmp_path, monkeypatch):
    import random

    import padicnla.eigen as eigen

    def broken(*args, **kwargs):
        raise ValueError("injected")

    monkeypatch.setattr(eigen, "power_iteration_decomposition", broken)
    op = workloads.eig_op(0, "eig", "split", 5, 7, 8, random.Random(3))
    op = workloads.write_inputs([op], tmp_path)[0]
    tr = tracer.Tracer("padicnla")
    tr.op = 0
    tr.install()
    try:
        _, status, doc, error = run.execute(op, tmp_path)
    finally:
        tr.uninstall()
    assert "injected" in error
    assert not checker.check("eig", status, doc, op.truth, error).ok
    totals = tracer.layer_totals(tr.spans)
    assert totals["eigen.eigvecs_calls"] == 1 and totals["eigen.unresolved_dim"] == 0


def test_a_failed_operation_makes_the_run_incorrect():
    good = {"verdict": checker.Verdict(True, digits=[8])}
    bad = {"verdict": checker.Verdict(False, "wrong")}
    units = {"ops_per_s": "1/s"}
    assert run.result_line([good, good], {"ops_per_s": 1.0}, units)["correct"]
    line = run.result_line([good, bad], {"ops_per_s": 1.0}, units)
    assert not line["correct"] and line["failed"] == 1 and line["attempted"] == 2


def test_tail_is_the_mean_of_a_window_around_its_percentile():
    records = [{"seconds": float(t), "verdict": checker.Verdict(True, digits=[8])}
               for t in range(1, 101)]
    metrics, info = run.end_to_end(records, 0.1, 75, 1.0)
    assert metrics["op_s.p50"] == 50.5
    assert metrics["op_s.tail"] == statistics.fmean(range(71, 81))
    assert info["op_s.tail ops beyond"] == 20
