import json

import pytest

from padicnla.cli import (
    EXIT_ILL_CONDITIONED,
    EXIT_NO_SOLUTIONS,
    EXIT_OK,
    EXIT_USAGE,
    build_config,
    emit_document,
    main,
    parse_document,
)


SQRT2_SYSTEM = "p=7 prec=6 vars=x,y\nx^2 - 2\ny - x\n"
# residue charpoly (x-2)(x-3): fully split over F_7
MATRIX_FILE = "7 6 2 2\n2 1\n0 3\n"


@pytest.fixture
def system_file(tmp_path):
    path = tmp_path / "system.txt"
    path.write_text(SQRT2_SYSTEM)
    return str(path)


@pytest.fixture
def matrix_file(tmp_path):
    path = tmp_path / "matrix.txt"
    path.write_text(MATRIX_FILE)
    return str(path)


class TestConfig:
    def test_bench_mode_and_prime_removed(self, matrix_file):
        assert main(["--mode", "bench", "--prime", "5", "--prec", "4"]) == EXIT_USAGE
        assert main(["--mode", "qr", "--input", matrix_file, "--prime", "7"]) == EXIT_USAGE

    def test_file_modes_require_input(self):
        assert main(["--mode", "solve"]) == EXIT_USAGE

    @pytest.mark.parametrize("mode, text", [
        ("qr", "6 6 2 2\n2 1\n0 3\n"),
        ("eig", "7 6 2 3\n2 1 4\n0 3 5\n"),
        ("schur", "7 6 2 3\n2 1 4\n0 3 5\n"),
        ("qr", "7 6 2 2\n2 x\n0 3\n"),
        ("qr", "7 6 0 0\n"),
        ("qr", "7 0 2 2\n2 1\n0 3\n"),
    ], ids=["non-prime", "eig-non-square", "schur-non-square", "bad-entry",
            "no-entries", "zero-precision"])
    def test_bad_matrix_file_rejected(self, mode, text, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        assert main(["--mode", mode, "--input", str(path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_defaults(self):
        cfg = build_config(["--mode", "solve", "--input", "x"])
        assert cfg.seed == 0
        assert cfg.format == "human"
        assert not cfg.strict


class TestSolveMode:
    def test_human_output(self, system_file, capsys):
        assert main(["--mode", "solve", "--input", system_file]) == EXIT_OK
        out = capsys.readouterr().out
        assert "solution 2" in out and "delta=2" in out

    def test_json_round_trip(self, system_file, capsys):
        code = main(
            ["--mode", "solve", "--input", system_file, "--format", "json"]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        doc = parse_document(out)
        assert len(doc["solutions"]) == 2
        assert emit_document(doc) == out

    def test_byte_identical_for_same_seed(self, system_file, capsys):
        argv = [
            "--mode", "solve", "--input", system_file,
            "--format", "json", "--seed", "9",
        ]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second

    def test_no_solutions_exit_code(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("p=7 prec=6 vars=x\nx - 1\nx - 2\n")
        assert main(["--mode", "solve", "--input", str(path)]) == EXIT_NO_SOLUTIONS

    def test_parse_error_exit_code(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("p=7 prec=6 vars=x\nx + + 1\n")
        assert main(["--mode", "solve", "--input", str(path)]) == EXIT_USAGE

    def test_missing_file_exit_code(self, tmp_path):
        missing = str(tmp_path / "nope.txt")
        assert main(["--mode", "solve", "--input", missing]) == EXIT_USAGE

    def test_strict_escalates_warnings(self, tmp_path):
        path = tmp_path / "fuzzy.txt"
        path.write_text("p=7 prec=6 vars=x\n7*x - 343\n")
        assert main(["--mode", "solve", "--input", str(path)]) == EXIT_OK
        assert (
            main(["--mode", "solve", "--input", str(path), "--strict"])
            == EXIT_ILL_CONDITIONED
        )

    def test_output_file(self, system_file, tmp_path):
        out_path = tmp_path / "out.json"
        code = main(
            [
                "--mode", "solve", "--input", system_file,
                "--format", "json", "--output", str(out_path),
            ]
        )
        assert code == EXIT_OK
        doc = parse_document(out_path.read_text())
        assert len(doc["solutions"]) == 2


class TestMatrixModes:
    @pytest.mark.parametrize("mode", ["eig", "schur", "qr", "svd"])
    def test_json_round_trip(self, mode, matrix_file, capsys):
        code = main(
            ["--mode", mode, "--input", matrix_file, "--format", "json"]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        doc = parse_document(out)
        assert emit_document(doc) == out

    def test_eig_reports_pairs(self, matrix_file, capsys):
        main(["--mode", "eig", "--input", matrix_file, "--format", "json"])
        doc = parse_document(capsys.readouterr().out)
        assert doc["prime"] == 7
        assert doc["precision"] == 6
        assert len(doc["pairs"]) == 2

    def test_qr_reports_pivots(self, matrix_file, capsys):
        main(["--mode", "qr", "--input", matrix_file, "--format", "json"])
        doc = parse_document(capsys.readouterr().out)
        assert doc["condition_number_q"] == "1"
        assert len(doc["pivots"]) == 2

    def test_svd_reports_sigma(self, matrix_file, capsys):
        main(["--mode", "svd", "--input", matrix_file, "--format", "json"])
        doc = parse_document(capsys.readouterr().out)
        assert len(doc["sigma"]) == 2


class TestDocumentFormat:
    def test_sorted_keys_and_newline(self):
        text = emit_document({"b": 1, "a": [2, 3]})
        assert text.endswith("\n")
        assert json.loads(text) == {"a": [2, 3], "b": 1}
        assert text.index('"a"') < text.index('"b"')
