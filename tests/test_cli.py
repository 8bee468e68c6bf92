import gc
import importlib
import importlib.util
import inspect
import io
import json
import pkgutil
import random
import shutil
import subprocess
import time
from pathlib import Path

import pytest

import affgebra
from affgebra.checks import run_check
from affgebra.classes import MAX_N, ClassKind, MatrixClassSpec, spec_to_wire
from affgebra.cli import build_parser, main
from affgebra.affine import COMMUTATOR
from affgebra.matrix import Matrix, matrix_from_wire, matrix_to_wire
from affgebra.report import MatrixClassCarrier
from affgebra.scalars import GF, MAX_EXPONENT, MAX_P, MAX_RADICAND, MEMO_SIZE, QQ
from affgebra.transforms import THEOREM

CYCLE = Matrix(QQ, [[0, 1, 0], [0, 0, 1], [1, 0, 0]])
SWAP = Matrix(QQ, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerify:
    def test_green_run_exit_zero(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--class", "gna", "--n", "2", "--field", "Q",
            "--bracket", "commutator", "--seed", "0", "--trials", "4",
        )
        assert code == 0
        assert err == ""
        reports = [json.loads(line) for line in out.splitlines()]
        assert reports and all(r["passed"] for r in reports)
        assert {"check", "passed", "trials", "counterexample", "elapsed_ms"} == set(reports[0])

    def test_zeta_bracket(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--class", "una", "--n", "1", "--field", "Qi",
            "--bracket", "zeta:2", "--seed", "0", "--trials", "4",
        )
        assert code == 0
        names = [json.loads(line)["check"] for line in out.splitlines()]
        assert "zeta-retract-trivial" in names
        assert "bullet-assoc" not in names

    def test_characteristic_obstruction_is_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--class", "sna", "--n", "5", "--field", "GF", "--p", "5",
            "--trials", "2",
        )
        assert code == 2
        assert "NonInvertibleScalar" in err
        assert out == ""

    def test_check_selection(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--class", "gna", "--n", "1", "--checks", "malcev,antisym",
            "--trials", "3",
        )
        assert code == 0
        assert [json.loads(l)["check"] for l in out.splitlines()] == ["malcev", "antisym"]

    def test_unknown_check_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--class", "gna", "--n", "1", "--checks", "nope", "--trials", "1"
        )
        assert code == 2
        assert "nope" in err

    def test_theorem_check_selectable(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--class", "gna", "--n", "1",
            "--checks", "theorem-iso,corollary-retract", "--trials", "4",
        )
        assert code == 0
        names = [json.loads(l)["check"] for l in out.splitlines()]
        assert names == ["theorem-iso", "corollary-retract"]

    def test_bad_bracket_flag(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--class", "gna", "--n", "1", "--bracket", "poisson", "--trials", "1"
        )
        assert code == 2

    def test_no_listed_check_under_the_bracket_is_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--class", "ona", "--n", "2", "--checks", "bullet-assoc", "--bracket", "zeta:1"
        )
        assert (code, out) == (2, "")
        assert err == "error: none of the checks bullet-assoc runs under the bracket zeta:1\n"

    def test_empty_check_list_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--class", "gna", "--n", "1", "--checks", "", "--trials", "1")
        assert (code, out) == (2, "")
        assert err == "error: UnknownCheck: ''\n"


class TestFieldFlags:
    @pytest.mark.parametrize("argv, tag", [
        (("sample", "--class", "gna", "--n", "2", "--p", "7"), "Q"),
        (("dims", "--class", "una", "--n", "2", "--p", "7"), "Qi"),
        (("verify", "--class", "gna", "--n", "1", "--field", "Q", "--p", "7", "--trials", "1"), "Q"),
        (("emit-matrix", "--which", "P", "--n", "2", "--p", "7"), "Q"),
        (("emit-matrix", "--which", "Pinv", "--n", "2", "--field", "Qi", "--p", "7"), "Qi"),
    ], ids=["sample", "dims", "verify", "emit P", "emit Pinv over Qi"])
    def test_prime_without_the_field_GF_is_usage_error(self, capsys, argv, tag):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: a prime p is only for the field GF, not {tag!r}\n"

    @pytest.mark.parametrize("tag", ["Q", "Qi", "surd"])
    def test_matrix_with_a_prime_outside_GF_is_usage_error(self, capsys, tag):
        bad = json.dumps({"field": tag, "p": 7, "n": 1, "entries": [["1"]]})
        code, out, err = run_cli(capsys, "bracket", bad, '{"field":"Q","n":1,"entries":[["2"]]}')
        assert (code, out) == (2, "")
        assert err == f"error: a prime p is only for the field GF, not {tag!r}\n"

    @pytest.mark.parametrize("argv, p", [
        (("sample", "--class", "gna", "--n", "2", "--field", "GF", "--p", "1"), 1),
        (("bracket", json.dumps({"field": "GF", "p": 0, "n": 1, "entries": [["1"]]}),
          '{"field":"Q","n":1,"entries":[["2"]]}'), 0),
    ], ids=["flag", "matrix"])
    def test_a_p_that_is_not_prime_is_usage_error(self, capsys, argv, p):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: {p} is not prime\n"


class TestIsoCheck:
    def test_gna_base_point_image(self, capsys):
        code, out, _ = run_cli(
            capsys, "iso-check", "--class", "gna", "--n", "2", "--field", "Q",
            "--via", "P", "--seed", "0", "--trials", "4",
        )
        assert code == 0
        header, report = (json.loads(line) for line in out.splitlines())
        assert header["block_kind"] == "gl"
        img = matrix_from_wire(header["base_point_image"])
        assert img == Matrix.diagonal(QQ, [0, 0, 1])
        assert report["passed"]

    def test_ona_via_u_fixes_identity(self, capsys):
        code, out, _ = run_cli(
            capsys, "iso-check", "--class", "ona", "--n", "2", "--via", "U",
            "--seed", "0", "--trials", "3",
        )
        assert code == 0
        header = json.loads(out.splitlines()[0])
        img = matrix_from_wire(header["base_point_image"])
        assert img == Matrix.identity(img.field, 3)

    def test_ona_via_p_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "iso-check", "--class", "ona", "--n", "2", "--via", "P", "--trials", "2"
        )
        assert code == 2
        assert "ClassViolation" in err


class TestCorollary:
    def test_runs_green(self, capsys):
        code, out, _ = run_cli(
            capsys, "corollary", "--class", "suna", "--n", "2", "--seed", "1", "--trials", "10"
        )
        assert code == 0
        assert json.loads(out.splitlines()[0])["check"] == "corollary-retract"


class TestTrialCount:
    COMMANDS = [
        ("verify", "--class", "gna", "--n", "2", "--checks", "malcev"),
        ("iso-check", "--class", "gna", "--n", "2"),
        ("corollary", "--class", "gna", "--n", "2"),
    ]

    @pytest.mark.parametrize("trials", ["0", "-3"])
    @pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
    def test_trials_below_one_are_a_usage_error(self, capsys, command, trials):
        code, out, err = run_cli(capsys, *command, "--trials", trials)
        assert (code, out) == (2, "")
        assert err == f"error: trials must be at least 1, got {trials}\n"

    def test_conjugation_commands_default_to_their_catalogue_trials(self, capsys):
        for command, trials in (("iso-check", 50), ("corollary", 100)):
            code, out, _ = run_cli(capsys, command, "--class", "gna", "--n", "1", "--seed", "2")
            assert code == 0
            assert json.loads(out.splitlines()[-1])["trials"] == trials


class TestEmitMatrix:
    def test_integral_basis(self, capsys):
        code, out, _ = run_cli(capsys, "emit-matrix", "--which", "P", "--n", "2", "--field", "Q")
        assert code == 0
        doc = json.loads(out)
        assert doc["entries"] == [["1", "1", "1"], ["0", "-1", "1"], ["-1", "0", "1"]]

    def test_inverse_display(self, capsys):
        code, out, _ = run_cli(capsys, "emit-matrix", "--which", "Pinv", "--n", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["entries"] == [
            ["1/3", "1/3", "-2/3"], ["1/3", "-2/3", "1/3"], ["1/3", "1/3", "1/3"]
        ]

    def test_orthonormal_entries(self, capsys):
        code, out, _ = run_cli(capsys, "emit-matrix", "--which", "U", "--n", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["field"] == "surd"
        assert doc["entries"][0][0] == "1/2*sqrt(2)"

    def test_roundtrip(self, capsys):
        from affgebra.transforms import change_of_basis

        code, out, _ = run_cli(capsys, "emit-matrix", "--which", "P", "--n", "3")
        assert matrix_from_wire(json.loads(out)) == change_of_basis(3, QQ)

    def test_characteristic_obstruction(self, capsys):
        code, _, err = run_cli(
            capsys, "emit-matrix", "--which", "Pinv", "--n", "4", "--field", "GF", "--p", "5"
        )
        assert code == 2
        assert "NonInvertibleScalar" in err


    @pytest.mark.parametrize("flags", [("--field", "Q"), ("--p", "7"), ("--field", "GF", "--p", "7")])
    def test_field_flags_with_U_are_usage_error(self, capsys, flags):
        code, out, err = run_cli(capsys, "emit-matrix", "--which", "U", "--n", "1", *flags)
        assert (code, out) == (2, "")
        assert err == "error: U is over the surd field; --field and --p are only for P and Pinv\n"

    @pytest.mark.parametrize("which", ["P", "Pinv", "U"])
    @pytest.mark.parametrize("n", [0, -1, MAX_N + 1])
    def test_n_out_of_bounds(self, capsys, which, n):
        code, out, err = run_cli(capsys, "emit-matrix", "--which", which, "--n", str(n))
        assert (code, out) == (2, "")
        assert err == f"error: block size n must be between 1 and {MAX_N}, got {n}\n"


class TestBracketAndRetract:
    def test_bracket_example(self, capsys):
        a = json.dumps(matrix_to_wire(CYCLE))
        b = json.dumps(matrix_to_wire(SWAP))
        code, out, _ = run_cli(capsys, "bracket", "--bracket", "commutator", a, b)
        assert code == 0
        assert matrix_from_wire(json.loads(out)) == Matrix(
            QQ, [[1, 1, -1], [1, -1, 1], [-1, 1, 1]]
        )

    def test_retract_alternating(self, capsys):
        o = json.dumps(matrix_to_wire(CYCLE))
        code, out, _ = run_cli(capsys, "retract", "-o", o, o, o)
        assert code == 0
        assert matrix_from_wire(json.loads(out)) == CYCLE

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(matrix_to_wire(CYCLE)))
        code, out, _ = run_cli(capsys, "bracket", str(path), str(path))
        assert code == 0
        assert matrix_from_wire(json.loads(out)) == CYCLE

    def test_malformed_input(self, capsys):
        code, _, err = run_cli(capsys, "bracket", "{not json", "{}")
        assert code == 2

    def test_zero_denominator_entry_is_usage_error(self, capsys):
        good = json.dumps(matrix_to_wire(Matrix.identity(QQ, 1)))
        bad = '{"field":"Q","n":1,"entries":[["1/0"]]}'
        code, out, err = run_cli(capsys, "bracket", bad, good)
        assert code == 2
        assert out == ""
        assert err == "error: DivisionByZero: entry (row 0, column 0) '1/0': zero denominator in '1/0'\n"

    def test_non_string_entry_is_usage_error(self, capsys):
        good = json.dumps(matrix_to_wire(Matrix.identity(QQ, 1)))
        bad = '{"field":"Q","n":1,"entries":[[1]]}'
        code, out, err = run_cli(capsys, "bracket", bad, good)
        assert code == 2
        assert out == ""
        assert err == "error: MalformedWire: entry (row 0, column 0) 1: a scalar must be a string, got int 1\n"

    def test_entries_not_a_list_of_rows_is_usage_error(self, capsys):
        good = json.dumps(matrix_to_wire(Matrix.identity(QQ, 1)))
        for bad in ('{"field":"Q","n":1,"entries":5}', '{"field":"Q","n":1,"entries":["1"]}'):
            code, _, err = run_cli(capsys, "bracket", bad, good)
            assert code == 2
            assert err == "error: MalformedWire: entries must be a list of rows\n"

    @pytest.mark.parametrize(
        "bad, message",
        [
            ('{"field":"Q","n":2,"entries":[["1","2"]]}', "SizeMismatch: entry rows do not match declared size"),
            ('{"field":"Q","n":2,"entries":[["1","2"],["3"]]}', "SizeMismatch: matrix must be square and nonempty"),
            ('{"field":"Q","n":0,"entries":[]}', "SizeMismatch: matrix must be square and nonempty"),
            ('{"field":"Qi","n":1,"entries":[["1+1/0i"]]}',
             "DivisionByZero: entry (row 0, column 0) '1+1/0i': zero denominator in '1/0'"),
            ('{"field":"surd","n":2,"entries":[["1","0"],["0","1+2/0*sqrt(2)"]]}',
             "DivisionByZero: entry (row 1, column 1) '1+2/0*sqrt(2)': zero denominator in '2/0'"),
            ('{"field":"surd_c","n":1,"entries":[["(1)+(1/0)i"]]}',
             "DivisionByZero: entry (row 0, column 0) '(1)+(1/0)i': zero denominator in '1/0'"),
            ('{"field":"Q","n":2,"entries":[["1","2"],["x","1"]]}',
             "entry (row 1, column 0) 'x': Invalid literal for Fraction: 'x'"),
        ],
        ids=["rows other than n", "ragged row", "no rows", "Qi zero denominator", "surd zero denominator",
             "surd_c zero denominator", "Q junk"],
    )
    def test_malformed_entries_are_usage_errors(self, capsys, bad, message):
        good = json.dumps(matrix_to_wire(Matrix.identity(QQ, 1)))
        code, out, err = run_cli(capsys, "bracket", bad, good)
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("field, entry, want", [
        ("Qi", "1+2e-3i", "1+1/500i"),
        ("surd", "2e-3", "1/500"),
        ("surd_c", "(2e-3)+(1E+1*sqrt(2))i", "(1/500)+(10*sqrt(2))i"),
    ])
    def test_an_exponent_sign_does_not_split_an_entry(self, capsys, field, entry, want):
        # [a, b] = ab - ba + b = b for 1x1 matrices
        doc = json.dumps({"field": field, "n": 1, "entries": [[entry]]})
        code, out, err = run_cli(capsys, "bracket", doc, doc)
        assert (code, err) == (0, "")
        assert json.loads(out)["entries"] == [[want]]

    @pytest.mark.parametrize(
        "bad, message",
        [
            ('{"field":"Q","n":true,"entries":[["1"]]}', "matrix field 'n' must be int, got bool True"),
            ('{"field":"Q","n":"1","entries":[["1"]]}', "matrix field 'n' must be int, got str '1'"),
            ('{"field":"Q","entries":[["1"]]}', "matrix lacks field 'n'"),
            ('{"n":1,"entries":[["1"]]}', "matrix lacks field 'field'"),
            ('{"field":5,"n":1,"entries":[["1"]]}', "matrix field 'field' must be str, got int 5"),
            ('{"field":"GF","n":1,"entries":[["1"]]}', "matrix lacks field 'p'"),
            ('{"field":"GF","p":"7","n":1,"entries":[["1"]]}', "matrix field 'p' must be int, got str '7'"),
            ('{"field":"Q","p":"7","n":1,"entries":[["1"]]}', "matrix field 'p' must be int, got str '7'"),
            ('{"field":"Q","n":1}', "matrix lacks field 'entries'"),
        ],
    )
    def test_header_fields_are_read_as_typed_wire_fields(self, capsys, bad, message):
        good = json.dumps(matrix_to_wire(Matrix.identity(QQ, 1)))
        code, out, err = run_cli(capsys, "bracket", bad, good)
        assert (code, out) == (2, "")
        assert err == f"error: MalformedWire: {message}\n"

    def test_surd_products_of_large_radicands_do_not_factor(self, capsys):
        # sqrt(9999991)*sqrt(9999973): two primes, so the product's radicand
        # is about 1e14, which trial division takes seconds to split
        a, b = ('{"field":"surd","n":1,"entries":[["sqrt(%d)"]]}' % d for d in (9999991, 9999973))
        for kind, want in [
            ("commutator", "1*sqrt(9999973)"),  # ab - ba + b = b
            ("zeta:sqrt(2)", "1*sqrt(9999991)+1*sqrt(19999946)-1*sqrt(19999982)"),
        ]:
            start = time.perf_counter()
            code, out, err = run_cli(capsys, "bracket", "--bracket", kind, a, b)
            assert time.perf_counter() - start < 0.5
            assert (code, err) == (0, "")
            assert json.loads(out)["entries"] == [[want]]

    def test_surd_output_round_trips(self, capsys):
        # the output radicand 9999991*9999973 is above 2**46
        zero, b = ('{"field":"surd","n":1,"entries":[["%s"]]}' % e for e in ("0", "sqrt(9999973)"))
        outputs = []
        for _ in range(2):
            code, out, err = run_cli(capsys, "bracket", "--bracket", "zeta:sqrt(9999991)", zero, b)
            assert (code, err) == (0, "")
            outputs.append(json.loads(out)["entries"])
            b = out
        assert outputs == [[["1*sqrt(99999640000243)"]], [["9999991*sqrt(9999973)"]]]

    def test_radicand_above_the_bound_is_usage_error(self, capsys):
        # a 20-digit radicand: trial division up to its square root would take hours
        d = 10**19 + 51
        good = '{"field":"surd","n":1,"entries":[["1"]]}'
        bad = '{"field":"surd","n":1,"entries":[["1+sqrt(%d)"]]}' % d
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "bracket", bad, good)
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (2, "")
        entry = f"'1+sqrt({d})'"
        assert err == f"error: entry (row 0, column 0) {entry}: a radicand must be at most {MAX_RADICAND}, got {d}\n"

    @pytest.mark.parametrize("field", ["Q", "Qi", "surd"])
    @pytest.mark.parametrize("entry", ["1e999999999", "-1E-999_999_999"])
    def test_exponent_above_the_bound_is_usage_error(self, capsys, field, entry):
        # Fraction would build 10**999999999: minutes and hundreds of MB
        good = json.dumps({"field": field, "n": 1, "entries": [["1"]]})
        bad = json.dumps({"field": field, "n": 1, "entries": [[entry]]})
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "bracket", bad, good)
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        limit = f"an exponent must be at most {MAX_EXPONENT} in absolute value"
        assert err == f"error: entry (row 0, column 0) {entry!r}: {limit}, got {entry!r}\n"
        # [a, b] = b for 1 x 1 matrices, so a reads and is not written out
        at_bound = json.dumps({"field": field, "n": 1, "entries": [[f"-1e{MAX_EXPONENT}"]]})
        code, out, err = run_cli(capsys, "bracket", at_bound, good)
        assert (code, json.loads(out), err) == (0, json.loads(good), "")
        assert QQ.parse(f"-1e{MAX_EXPONENT}") == -(10**MAX_EXPONENT)

    def test_unbalanced_complex_surd_is_usage_error(self, capsys):
        good = '{"field":"surd_c","n":1,"entries":[["(1)+(0)i"]]}'
        bad = '{"field":"surd_c","n":1,"entries":[["((1)+(2)i"]]}'
        code, out, err = run_cli(capsys, "bracket", bad, good)
        assert (code, out) == (2, "")
        assert err == "error: entry (row 0, column 0) '((1)+(2)i': malformed complex surd string '((1)+(2)i'\n"

    @pytest.mark.parametrize(
        "field, entry",
        [("surd", ""), ("surd", "  "), ("surd_c", ""), ("surd_c", "()+()i"), ("surd_c", "(1)+()i"), ("surd_c", "()+(1)i")],
    )
    def test_blank_surd_is_usage_error(self, capsys, field, entry):
        # a blank scalar is not zero, and fails as it does over Q; "0" is zero
        blank_q = '{"field":"Q","n":1,"entries":[[""]]}'
        _, _, q_err = run_cli(capsys, "bracket", blank_q, '{"field":"Q","n":1,"entries":[["1"]]}')
        good = json.dumps({"field": field, "n": 1, "entries": [["1"]]})
        bad = json.dumps({"field": field, "n": 1, "entries": [[entry]]})
        code, out, err = run_cli(capsys, "bracket", bad, good)
        assert (code, out) == (2, "")
        # the same message, naming the surd entry where Q's names ''
        assert err == q_err.replace("''", repr(entry), 1) and err.count("\n") == 1
        code, out, err = run_cli(capsys, "bracket", bad.replace(json.dumps(entry), '"0"'), good)
        assert (code, err) == (0, "")

    @pytest.mark.parametrize("field", ["surd", "surd_c"])
    @pytest.mark.parametrize("entry, message", [
        ("2*sqrt(3x", "a sqrt( term must end in ')', got '2*sqrt(3x'"),
        ("sqrt(2]", "a sqrt( term must end in ')', got 'sqrt(2]'"),
        ("0*sqrt(-2)", "a radicand must not be negative, got -2"),
        ("sqrt(-2)-sqrt(-2)", "a radicand must not be negative, got -2"),
    ])
    def test_unclosed_sqrt_and_negative_radicand_are_usage_errors(self, capsys, field, entry, message):
        # a sqrt( term must end in ')', and a negative radicand is refused whatever its coefficient
        good = json.dumps({"field": field, "n": 1, "entries": [["1"]]})
        bad = json.dumps({"field": field, "n": 1, "entries": [[entry]]})
        code, out, err = run_cli(capsys, "bracket", bad, good)
        assert (code, out) == (2, "")
        assert err == f"error: entry (row 0, column 0) {entry!r}: {message}\n"


class TestDims:
    def test_table_values(self, capsys):
        for args, expected in [
            (("--class", "suna", "--n", "3"), 8),
            (("--class", "gna", "--n", "3"), 9),
            (("--class", "ona", "--n", "3"), 3),
            (("--class", "una", "--n", "2"), 4),
        ]:
            code, out, _ = run_cli(capsys, "dims", *args)
            assert code == 0
            assert int(out.strip()) == expected

    def test_block_size_above_the_bound_is_usage_error(self, capsys):
        for command in (("dims",), ("sample", "--seed", "1")):
            code, out, err = run_cli(capsys, *command, "--class", "una", "--n", str(MAX_N + 1))
            assert (code, out) == (2, "")
            assert err == f"error: block size n must be between 1 and {MAX_N}, got {MAX_N + 1}\n"

    def test_prime_above_the_bound_is_rejected_before_the_primality_test(self, capsys):
        # a 20-digit prime: trial division up to its square root would take hours
        p = 10**19 + 51
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "dims", "--class", "gna", "--n", "2", "--field", "GF", "--p", str(p))
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (2, "")
        assert err == f"error: the prime p must be at most {MAX_P}, got {p}\n"

    def test_prime_at_the_bound_is_accepted(self, capsys):
        code, out, _ = run_cli(capsys, "dims", "--class", "gna", "--n", "2", "--field", "GF", "--p", str(MAX_P))
        assert (code, out) == (0, "4\n")


class TestSample:
    def test_deterministic_stream(self, capsys):
        args = ("sample", "--class", "sna", "--n", "2", "--seed", "42", "--count", "3")
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        assert len(out1.splitlines()) == 3

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_count_below_one_is_a_usage_error(self, capsys, count):
        code, out, err = run_cli(capsys, "sample", "--class", "sna", "--n", "2", "--count", count)
        assert (code, out) == (2, "")
        assert err == f"error: count must be at least 1, got {count}\n"

    @pytest.mark.parametrize("flags", [("--c", "-1/2"), ("--field", "Qi", "--c", "-1+2i")])
    def test_a_value_that_starts_with_a_minus_and_a_digit(self, capsys, flags):
        *head, _, c = flags
        code, out, err = run_cli(capsys, "sample", "--class", "ga_c", "--n", "1", *flags)
        assert (code, err) == (0, "")
        assert (code, out, err) == run_cli(capsys, "sample", "--class", "ga_c", "--n", "1", *head, f"--c={c}")

    def test_env_seed_default(self, capsys, monkeypatch):
        monkeypatch.setenv("AFFGEBRA_SEED", "42")
        code, out_env, _ = run_cli(capsys, "sample", "--class", "sna", "--n", "2", "--count", "2")
        assert code == 0
        _, out_explicit, _ = run_cli(
            capsys, "sample", "--class", "sna", "--n", "2", "--seed", "42", "--count", "2"
        )
        assert out_env == out_explicit

    @pytest.mark.parametrize("seed", ["abc", "", "1.5"])
    def test_malformed_env_seed_is_a_usage_error(self, capsys, monkeypatch, seed):
        monkeypatch.setenv("AFFGEBRA_SEED", seed)
        code, out, err = run_cli(capsys, "sample", "--class", "gna", "--n", "1")
        assert (code, out) == (2, "")
        assert err == f"error: AFFGEBRA_SEED must be an integer, got {seed!r}\n"


class TestReproducibility:
    def test_verify_byte_identical_modulo_elapsed(self, capsys):
        args = (
            "verify", "--class", "sna", "--n", "2", "--bracket", "commutator",
            "--seed", "31", "--trials", "5",
        )
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)

        def strip_elapsed(text):
            docs = [json.loads(line) for line in text.splitlines()]
            for d in docs:
                d.pop("elapsed_ms")
            return docs

        assert strip_elapsed(out1) == strip_elapsed(out2)


class TestReplay:
    def _failing_report(self):
        def mutate(i, inputs):
            out = dict(inputs)
            out["x"] = out["x"].with_entry(0, 0, out["x"].entry(0, 0) + 1)
            return out

        spec = MatrixClassSpec(ClassKind.GNA, 2, QQ)
        return run_check("closure", spec, COMMUTATOR, seed=0, trials=5, mutate=mutate)

    def test_replay_reproduces(self, capsys, tmp_path):
        report = self._failing_report()
        path = tmp_path / "report.json"
        path.write_text(json.dumps(report.to_wire()))
        code, out, _ = run_cli(capsys, "replay", str(path))
        assert code == 0  # failure reproduced
        fresh = json.loads(out)
        assert fresh["passed"] is False
        assert fresh["check"] == "closure"

    def test_replay_inline_json(self, capsys):
        report = self._failing_report()
        code, out, _ = run_cli(capsys, "replay", json.dumps(report.to_wire()))
        assert code == 0

    def test_replay_without_counterexample(self, capsys):
        spec = MatrixClassSpec(ClassKind.GNA, 1, QQ)
        good = run_check("malcev", spec, COMMUTATOR, seed=0, trials=2)
        code, _, err = run_cli(capsys, "replay", json.dumps(good.to_wire()))
        assert code == 2

    def test_replay_unknown_check(self, capsys):
        doc = dict(self._failing_report().to_wire(), check="nope")
        code, out, err = run_cli(capsys, "replay", json.dumps(doc))
        assert (code, out) == (2, "")
        assert err == "error: UnknownCheck: 'nope'\n"

    def test_replay_exit_one_when_failure_vanishes(self, capsys):
        # undoing the perturbation makes the recorded inputs pass again,
        # so the failure does not reproduce
        report = self._failing_report()
        wire = json.loads(json.dumps(report.to_wire()))
        x = matrix_from_wire(wire["counterexample"]["inputs"]["x"])
        x = x.with_entry(0, 0, x.entry(0, 0) - 1)
        wire["counterexample"]["inputs"]["x"] = matrix_to_wire(x)
        code, out, _ = run_cli(capsys, "replay", json.dumps(wire))
        assert code == 1
        assert json.loads(out)["passed"] is True

    def test_replay_with_a_missing_input_is_usage_error(self, capsys):
        wire = json.loads(json.dumps(self._failing_report().to_wire()))
        del wire["counterexample"]["inputs"]["x"]
        code, out, err = run_cli(capsys, "replay", json.dumps(wire))
        assert (code, out) == (2, "")
        assert err == "error: MalformedWire: closure counterexample lacks input 'x'\n"

    def test_replay_of_theorem_and_corollary_with_missing_inputs(self, capsys):
        cls = {"kind": "gna", "n": 1, "field": "Q"}
        a = matrix_to_wire(Matrix.identity(QQ, 2))
        for check, inputs, want in [
            ("theorem-iso", {"a": a, "b": a, "c": a}, "lacks inputs 'alpha', 'z'"),
            ("corollary-retract", {"a": a}, "lacks input 'b'"),
            ("corollary-retract", [a], "inputs must be a JSON object"),
        ]:
            doc = {"check": check, "passed": False, "trials": 1,
                   "counterexample": {"class": cls, "via": "P", "inputs": inputs}}
            code, out, err = run_cli(capsys, "replay", json.dumps(doc))
            assert (code, out) == (2, "")
            assert err.startswith(f"error: MalformedWire: {check} counterexample")
            assert want in err and err.count("\n") == 1

    def test_replay_under_a_bracket_the_check_does_not_apply_to(self, capsys):
        point = matrix_to_wire(Matrix.identity(QQ, 3))
        doc = {"check": "zeta-retract-trivial", "passed": False, "trials": 1,
               "counterexample": {"class": {"kind": "gna", "n": 2, "field": "Q"},
                                  "bracket": {"kind": "commutator"},
                                  "inputs": {"o": point, "a": point, "b": point}}}
        code, out, err = run_cli(capsys, "replay", json.dumps(doc))
        assert (code, out) == (2, "")
        assert err == "error: zeta-retract-trivial does not apply to the bracket commutator\n"

    def test_replay_without_a_bracket_names_the_field(self, capsys):
        wire = json.loads(json.dumps(self._failing_report().to_wire()))
        del wire["counterexample"]["bracket"]
        code, out, err = run_cli(capsys, "replay", json.dumps(wire))
        assert (code, out) == (2, "")
        assert err == "error: MalformedWire: counterexample lacks field 'bracket'\n"

    def test_replay_reads_only_the_declared_inputs(self, capsys):
        def move_a(i, inputs):
            a = inputs["a"]
            return dict(inputs, a=a.with_entry(2, 0, a.entry(2, 0) + 1))

        spec = MatrixClassSpec(ClassKind.GNA, 2, QQ)
        corollary = run_check("corollary-retract", spec, COMMUTATOR, seed=0, trials=2, mutate=move_a)
        for report in (corollary, self._failing_report()):
            wire = json.loads(json.dumps(report.to_wire()))
            wire["counterexample"]["inputs"]["junk"] = 5
            code, out, err = run_cli(capsys, "replay", json.dumps(wire))
            assert (code, err) == (0, "")  # the failure reproduces
            assert json.loads(out)["counterexample"]["property"] == report.counterexample["property"]

    def test_replay_of_a_counterexample_that_is_not_an_object(self, capsys):
        doc = {"check": "closure", "passed": False, "trials": 1, "counterexample": "x"}
        code, out, err = run_cli(capsys, "replay", json.dumps(doc))
        assert (code, out) == (2, "")
        assert err == "error: MalformedWire: closure counterexample must be a JSON object\n"

    def test_replay_of_an_input_matrix_that_is_not_an_object(self, capsys):
        wire = json.loads(json.dumps(self._failing_report().to_wire()))
        wire["counterexample"]["inputs"]["x"] = [1]
        code, out, err = run_cli(capsys, "replay", json.dumps(wire))
        assert (code, out) == (2, "")
        assert err == "error: MalformedWire: a matrix document must be a JSON object\n"

    def test_replay_of_a_class_that_is_not_an_object(self, capsys):
        doc = {"check": "closure", "counterexample": {"class": 5, "inputs": {}}}
        code, out, err = run_cli(capsys, "replay", json.dumps(doc))
        assert (code, out) == (2, "")
        assert err == "error: MalformedWire: closure counterexample: class must be a JSON object\n"

    def test_replay_of_a_class_with_a_prime_outside_GF(self, capsys):
        wire = json.loads(json.dumps(self._failing_report().to_wire()))
        wire["counterexample"]["class"]["p"] = 7
        code, out, err = run_cli(capsys, "replay", json.dumps(wire))
        assert (code, out) == (2, "")
        assert err == "error: a prime p is only for the field GF, not 'Q'\n"

    @pytest.mark.parametrize("where, value, message", [
        ("class", {"kind": "gna", "n": "2", "field": "Q"}, "class field 'n' must be int, got str '2'"),
        ("bracket", 5, "a bracket must be a JSON object, got int"),
        ("class", {}, "class lacks field 'kind'"),
        ("class", {"kind": "gna", "n": 2, "field": "GF", "p": "7"}, "class field 'p' must be int, got str '7'"),
        ("class", {"kind": "gna", "n": 2, "field": "Q", "p": None}, "class field 'p' must be int, got NoneType None"),
    ], ids=["string n", "bracket not an object", "empty class", "string p", "null p"])
    def test_replay_of_wrongly_typed_fields(self, capsys, where, value, message):
        wire = json.loads(json.dumps(self._failing_report().to_wire()))
        wire["counterexample"][where] = value
        code, out, err = run_cli(capsys, "replay", json.dumps(wire))
        assert (code, out) == (2, "")
        assert err == f"error: MalformedWire: {message}\n"

    @pytest.mark.parametrize("via", [{}, [], 0, False], ids=["object", "list", "zero", "false"])
    def test_replay_of_a_wrongly_typed_route(self, capsys, via):
        spec = MatrixClassSpec(ClassKind.ONA, 1, QQ)
        carrier, rng = MatrixClassCarrier(spec), random.Random(0)
        inputs = {name: codec.to_wire(carrier, codec.sample(carrier, rng)) for name, codec in THEOREM.inputs}
        doc = {"check": "theorem-iso", "passed": False, "trials": 1,
               "counterexample": {"class": spec_to_wire(spec), "via": "U", "inputs": inputs}}
        assert run_cli(capsys, "replay", json.dumps(doc))[0] == 1  # the required route U passes
        doc["counterexample"]["via"] = via
        code, out, err = run_cli(capsys, "replay", json.dumps(doc))
        assert (code, out) == (2, "")
        assert err == f"error: MalformedWire: counterexample field 'via' must be str, got {type(via).__name__} {via!r}\n"

    @pytest.mark.parametrize("doc, message", [
        ({}, "report lacks field 'check'"),
        ({"check": ["a"]}, "report field 'check' must be str, got list ['a']"),
    ], ids=["no check", "check a list"])
    def test_replay_reads_the_check_as_a_typed_wire_field(self, capsys, doc, message):
        code, out, err = run_cli(capsys, "replay", json.dumps(doc))
        assert (code, out) == (2, "")
        assert err == f"error: MalformedWire: {message}\n"

    def test_inline_json_that_is_not_an_object(self, capsys):
        for text in ("[1]", " [1, 2]", "[]"):
            code, out, err = run_cli(capsys, "replay", text)
            assert (code, out) == (2, "")
            assert err.startswith("error: MalformedWire: the document must be a JSON object, got ")
            assert err.count("\n") == 1

    def test_file_and_stdin_documents_that_are_not_objects(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "list.json"
        path.write_text("[1]")
        code, out, err = run_cli(capsys, "replay", str(path))
        assert (code, out, err) == (2, "", "error: MalformedWire: the document must be a JSON object, got list\n")
        monkeypatch.setattr("sys.stdin", io.StringIO("3"))
        code, out, err = run_cli(capsys, "replay", "-")
        assert (code, out, err) == (2, "", "error: MalformedWire: the document must be a JSON object, got int\n")

    def test_deeply_nested_documents_are_usage_errors(self, capsys, tmp_path, monkeypatch):
        nested = "[" * 100000
        path = tmp_path / "nested.json"
        path.write_text(nested)
        monkeypatch.setattr("sys.stdin", io.StringIO(nested))
        for text in (nested, str(path), "-"):
            code, out, err = run_cli(capsys, "replay", text)
            assert (code, out, err) == (2, "", "error: MalformedWire: the document is nested too deeply\n")
        code, out, err = run_cli(capsys, "bracket", nested, "{}")
        assert (code, out, err) == (2, "", "error: MalformedWire: the document is nested too deeply\n")

    def test_stdin_report(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(self._failing_report().to_wire())))
        code, out, _ = run_cli(capsys, "replay", "-")
        assert code == 0 and json.loads(out)["passed"] is False


class TestParserReuse:
    BRACKET = ("bracket", json.dumps(matrix_to_wire(CYCLE)), json.dumps(matrix_to_wire(SWAP)))

    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()

    def test_usage_error_leaves_the_parser_as_it_was(self, capsys):
        build_parser.cache_clear()
        first = run_cli(capsys, *self.BRACKET)
        assert run_cli(capsys, "bracket", "--bracket") == (2, "", "error: argument --bracket: expected one argument\n")
        again = run_cli(capsys, *self.BRACKET)
        assert first[0] == 0 and first[2] == ""
        assert again == first

    def test_default_seed_is_read_per_call(self, capsys, monkeypatch):
        args = ("sample", "--class", "gna", "--n", "2", "--count", "2")
        outs = {}
        for seed in ("5", "6"):
            monkeypatch.setenv("AFFGEBRA_SEED", seed)
            code, outs[seed], _ = run_cli(capsys, *args)
            assert code == 0
        for seed, out in outs.items():
            assert run_cli(capsys, *args, "--seed", seed)[1] == out
        assert outs["5"] != outs["6"]


def _memos():
    """Every memo of the package that takes an argument (the shared
    parser's takes none, so it holds one entry at most)."""
    for info in pkgutil.iter_modules(affgebra.__path__):
        module = importlib.import_module(f"affgebra.{info.name}")
        for f in vars(module).values():
            if hasattr(f, "cache_info") and f.__module__ == module.__name__ and inspect.signature(f).parameters:
                yield f


class TestMemoBound:
    """A memo is keyed by request values, so each one keeps at most
    ``MEMO_SIZE`` entries, however many distinct requests a process
    serves."""

    def test_every_memo_is_bounded(self):
        memos = list(_memos())
        assert len(memos) >= 12
        assert all(f.cache_info().maxsize == MEMO_SIZE for f in memos), memos

    def test_distinct_requests_stay_within_the_bound(self, capsys):
        try:
            for c in range(1, 2 * MEMO_SIZE + 1):
                code, _, _ = run_cli(capsys, "iso-check", "--class", "ga_c", "--n", "1", "--c", str(c), "--trials", "1")
                assert code == 0
            sizes = {f.__qualname__: f.cache_info().currsize for f in _memos()}
            assert max(sizes.values()) == MEMO_SIZE, sizes
        finally:
            for f in _memos():  # leave the other tests their warm memos
                f.cache_clear()

    def test_a_prime_field_in_use_stays_one_object(self):
        m = matrix_from_wire({"field": "GF", "p": 10007, "n": 1, "entries": [["1"]]})
        gc.collect()
        assert GF(10007) is m.field


class TestConsoleScript:
    @pytest.mark.skipif(shutil.which("affgebra") is None, reason="console script not installed")
    def test_installed_entry_point(self):
        proc = subprocess.run(
            ["affgebra", "emit-matrix", "--which", "Pinv", "--n", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["entries"][2] == ["1/3", "1/3", "1/3"]


def test_benchmark_traced_names_resolve():
    """Every layer that ``perfbench/tracer.py`` times still names at
    least one function of the package."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = tracer.resolve_targets()  # every module is loaded: the CLI imports them all
    assert set(targets) == set(tracer.LAYER_FUNCTIONS)
    assert all(targets[name] for name in tracer.LAYER_FUNCTIONS)
