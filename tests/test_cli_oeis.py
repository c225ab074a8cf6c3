"""Front end: b-file handling, operator text, JSON documents, exit codes."""

import contextlib
import json
import os
import re
import sys
from fractions import Fraction

import pytest

from ansatzkit import (
    CoeffRing,
    ExpPoly,
    Poly,
    QQ,
    Sequence,
    ShiftOperator,
    expand_terms,
    fetch,
    operator_to_text,
    parse_bfile,
    parse_operator,
)
from ansatzkit import cli
from ansatzkit.cli import main
from ansatzkit.errors import (
    BFileParseError,
    LeadingAlwaysZero,
    MixedRing,
    NotFound,
    OperatorSyntaxError,
    UnknownCoefficient,
)
from ansatzkit.jsonio import dumps, loads
from ansatzkit.optext import parse_claim_terms, parse_recurrence_spec

import conftest as corpus

F = Fraction
FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


@pytest.fixture
def offline_cache(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    cache.mkdir()
    for name in os.listdir(FIXTURES):
        (cache / name).write_text(open(os.path.join(FIXTURES, name)).read())
    monkeypatch.setenv("ANSATZKIT_CACHE", str(cache))
    monkeypatch.setenv(
        "ANSATZKIT_OEIS_URL", "file://" + str(tmp_path / "missing") + "/b{digits}.txt"
    )
    return cache


class TestBFiles:
    def test_single_line(self):
        assert parse_bfile("5 8\n") == [(5, 8)]

    def test_comments_skipped(self):
        entries = parse_bfile("# header\n0 1\n1 1\n# middle\n2 2\n")
        assert entries == [(0, 1), (1, 1), (2, 2)]

    def test_bad_line_reported(self):
        with pytest.raises(BFileParseError) as info:
            parse_bfile("0 1\nnot a line\n")
        assert info.value.line_number == 2

    def test_fetch_fibonacci_fixture(self, offline_cache):
        sequence = fetch("A000045")
        assert sequence.offset == 0
        reference = expand_terms(corpus.fibonacci_system(), 10)
        assert list(sequence.terms[:10]) == list(reference.terms)

    def test_fetch_fibonorial_fixture(self, offline_cache):
        sequence = fetch("A003266")
        assert sequence.offset == 1
        assert list(sequence.terms[:6]) == [1, 1, 2, 6, 30, 240]

    def test_missing_id_not_found(self, offline_cache):
        with pytest.raises(NotFound):
            fetch("A123456")


class TestOperatorText:
    CORPUS = [
        "N^4 - 2*N^3 + 2*N - 1",
        "N^2 - N - 1",
        "(4*n + 2) - (n + 2)*N",
        "(n + 1) - (2*n + 3)*N + (n + 2)*N^2",
        "(n + 2) + 2*N - n*N^2",
        "N - (n + 1)",
        "N^2 - N - 2^n",
        "N - (n + 1)*2^n",
        "N + (-1)^n",
        "N - 2",
    ]

    def test_corpus_round_trips(self):
        for text in self.CORPUS:
            operator = parse_operator(text)
            printed = operator_to_text(operator)
            assert parse_operator(printed) == operator

    def test_ring_inference(self):
        assert parse_operator("N^2 - N - 1").ring is CoeffRing.CONSTANT
        assert parse_operator("(4*n+2) - (n+2)*N").ring is CoeffRing.POLY_N
        assert parse_operator("N^2 - N - 2^n").ring is CoeffRing.EXPPOLY

    def test_named_coefficient(self):
        from ansatzkit import register_coefficient

        fib = parse_recurrence_spec("cfinite:N^2-N-1;0,1")
        declared = {"F": register_coefficient(fib)}
        operator = parse_operator("N - F(n+2)", declared)
        assert operator.ring is CoeffRing.EXPPOLY
        printed = operator_to_text(operator, declared)
        assert parse_operator(printed, declared) == operator

    @staticmethod
    def fibonacci_declaration():
        from ansatzkit import register_coefficient

        return {"F": register_coefficient(parse_recurrence_spec("cfinite:N^2-N-1;0,1"))}

    @staticmethod
    def first_order(coeff):
        return ShiftOperator(CoeffRing.EXPPOLY, [coeff, ExpPoly.constant(1, coeff.field)])

    def test_named_coefficient_at_each_shift(self):
        declared = self.fibonacci_declaration()
        for shift in (0, 1, 7, 23):
            argument = "n" if shift == 0 else f"n+{shift}"
            expected = {
                F(1): f"N + F({argument})",
                F(-1): f"N - F({argument})",
                F(3, 2): f"N + (3/2*F({argument}))",
            }
            for ratio, text in expected.items():
                operator = self.first_order(declared["F"].shift(shift).scale(ratio))
                printed = operator_to_text(operator, declared)
                assert printed == text
                assert parse_operator(printed, declared) == operator

    def test_named_coefficient_window_ends_at_shift_23(self):
        declared = self.fibonacci_declaration()
        operator = self.first_order(declared["F"].shift(24))
        printed = operator_to_text(operator, declared)
        assert printed == (
            "N + ((103682/5*t + 64079/5)*(t)^n + (-103682/5*t + 167761/5)*(-t + 1)^n)"
        )
        with pytest.raises(OperatorSyntaxError):
            parse_operator(printed, declared)

    def test_named_coefficient_shifts_only_on_matching_bases(self, monkeypatch):
        declared = self.fibonacci_declaration()
        field = declared["F"].field
        t = field.generator()
        other_bases = [
            ExpPoly.geometric(2),
            ExpPoly.geometric(2, field),
            ExpPoly.geometric(t, field),
            ExpPoly(field, [(t, 1), (1 - t, 1), (2, 1)]),
        ]
        matches = {
            shift: declared["F"].shift(shift).scale(F(-3, 2)) for shift in (0, 1, 7, 23)
        }
        calls = []
        compose_arg = ExpPoly.compose_arg

        def counted(self, mult, offset):
            calls.append((mult, offset))
            return compose_arg(self, mult, offset)

        monkeypatch.setattr(ExpPoly, "compose_arg", counted)
        for coeff in other_bases:
            operator_to_text(self.first_order(coeff), declared)
            assert calls == []
        for shift, coeff in matches.items():
            calls.clear()
            printed = operator_to_text(self.first_order(coeff), declared)
            argument = "n" if shift == 0 else f"n+{shift}"
            assert printed == f"N - (3/2*F({argument}))"
            assert len(calls) <= shift

    @pytest.mark.parametrize(
        "ring, coeffs, text",
        [
            (CoeffRing.CONSTANT, [F(-1), 0, F(1, 2), 1], "N^3 + 1/2*N^2 - 1"),
            (CoeffRing.CONSTANT, [1, 0, F(-3, 4), -1], "-N^3 - 3/4*N^2 + 1"),
            (CoeffRing.CONSTANT, [F(2, 3), -1, 0, 5], "5*N^3 - N + 2/3"),
            (CoeffRing.POLY_N, [[-1], [], [F(1, 2)], [1]], "N^3 + 1/2*N^2 - 1"),
            (CoeffRing.POLY_N, [[1], [], [-1], [0, 1], [-1]], "-N^4 + (n)*N^3 - N^2 + 1"),
            (CoeffRing.POLY_N, [[F(-2, 3)], [1], [], [1, 1]], "(n + 1)*N^3 + N - 2/3"),
        ],
    )
    def test_number_coefficients(self, ring, coeffs, text):
        if ring is CoeffRing.POLY_N:
            coeffs = [Poly(c, QQ, "n") for c in coeffs]
        operator = ShiftOperator(ring, coeffs)
        assert operator_to_text(operator) == text
        assert parse_operator(text).promoted(ring) == operator

    def test_unknown_name(self):
        with pytest.raises(UnknownCoefficient):
            parse_operator("N - G(n+2)")

    def test_syntax_error_position(self):
        with pytest.raises(OperatorSyntaxError) as info:
            parse_operator("N^2 - @")
        assert info.value.position == 6

    def test_mixed_ring(self):
        with pytest.raises(MixedRing):
            parse_operator("(n+1)^n - N")


class TestClaimParser:
    @pytest.mark.parametrize(
        "text, terms",
        [
            (
                "a(n+1) - a(n)*a(n+1) + a(n)*a(n+2) + a(n+1)^2 - a(n+1)*a(n+2)",
                (
                    (F(1), (("a", 1),)),
                    (F(-1), (("a", 0), ("a", 1))),
                    (F(1), (("a", 0), ("a", 2))),
                    (F(1), (("a", 1), ("a", 1))),
                    (F(-1), (("a", 1), ("a", 2))),
                ),
            ),
            (
                "a(n)*a(n+2) - a(n+1)^2 + 1",
                (
                    (F(1), (("a", 0), ("a", 2))),
                    (F(-1), (("a", 1), ("a", 1))),
                    (F(1), ()),
                ),
            ),
            ("3/4*a(n+1)", ((F(3, 4), (("a", 1),)),)),
        ],
    )
    def test_terms_are_plain_pairs(self, text, terms):
        parsed = parse_claim_terms(text, {"a"})
        assert parsed == terms
        for coeff, factors in parsed:
            assert type(coeff) is Fraction and type(factors) is tuple


class TestJsonRoundTrips:
    def _assert_stable(self, obj):
        text = dumps(obj)
        parsed = loads(text)
        assert dumps(parsed) == text
        return parsed

    def test_sequence(self):
        seq = Sequence([F(1), F(-3, 2), F(10) ** 30], offset=2)
        parsed = self._assert_stable(seq)
        assert parsed == seq

    def test_constant_operator(self):
        operator = corpus.floor_square_system().operator
        parsed = self._assert_stable(operator)
        assert parsed == operator

    def test_polynomial_recurrence(self):
        system = corpus.harmonic_system()
        parsed = self._assert_stable(system)
        assert parsed == system

    def test_exponential_recurrence(self):
        system = corpus.fibonorial_system()
        parsed = self._assert_stable(system)
        assert parsed.operator == system.operator
        assert parsed.initials == system.initials

    def test_diff_equation(self):
        from ansatzkit import c2_to_diff

        equation = c2_to_diff(corpus.doubling_tail_system())
        parsed = self._assert_stable(equation)
        assert parsed == equation

    @staticmethod
    def golden_ratio_system():
        from ansatzkit import register_coefficient

        fibonacci = register_coefficient(parse_recurrence_spec("cfinite:N^2-N-1;0,1"))
        return parse_recurrence_spec("c2:N^2 - F(n+1)*N - 1;1,2", {"F": fibonacci})

    def test_golden_documents(self):
        from ansatzkit import RationalGF, c2_to_diff

        system = self.golden_ratio_system()
        equation = c2_to_diff(system)
        assert equation.rhs
        golden = {
            Sequence([F(1), F(-3, 2), F(10) ** 30], offset=2): (
                '{"offset":2,"terms":["1","-3/2","1000000000000000000000000000000"],'
                '"type":"sequence"}'
            ),
            system: (
                '{"class":"c2","coeffs":[[{"base":{"minpoly":["-1","-1","1"],"rep":["1","0"]},'
                '"poly":[["-1","0"]]}],[{"base":{"minpoly":["-1","-1","1"],"rep":["0","1"]},'
                '"poly":[["-2/5","-1/5"]]},{"base":{"minpoly":["-1","-1","1"],"rep":["1","-1"]},'
                '"poly":[["-3/5","1/5"]]}],[{"base":{"minpoly":["-1","-1","1"],"rep":["1","0"]},'
                '"poly":[["1","0"]]}]],"initials":["1","2"],"offset":0,"order":2,'
                '"type":"recurrence","validity_offset":0}'
            ),
            RationalGF([2, F(-1, 3)], [1, -1, -1]): (
                '{"den":["1","-1","-1"],"num":["2","-1/3"],"type":"rational_gf"}'
            ),
            equation: (
                '{"minpoly":["-1","-1","1"],"rhs":[["-5","0"],["-10","0"]],'
                '"terms":[{"base":["0","1"],"coeffs":[[["0","0"],["-1","2"]]]},'
                '{"base":["1","-1"],"coeffs":[[["0","0"],["1","-2"]]]},'
                '{"base":["1","0"],"coeffs":[[["-5","0"],["0","0"],["5","0"]]]}],'
                '"type":"diff_equation"}'
            ),
        }
        for obj, text in golden.items():
            assert dumps(obj) == text
            assert self._assert_stable(obj) == obj

    def test_cubic_minpoly_rejected(self):
        from ansatzkit.errors import UnsupportedField

        term = {"base": {"minpoly": ["-2", "0", "0", "1"], "rep": ["0", "1", "0"]},
                "poly": [["1", "0", "0"]]}
        document = {"type": "operator", "class": "c2", "order": 1,
                    "coeffs": [[term], [dict(term, base={"minpoly": ["0", "1"], "rep": ["1"]})]]}
        with pytest.raises(UnsupportedField):
            loads(json.dumps(document))


class TestCliCommands:
    def test_guess_fibonacci(self, offline_cache, capsys):
        code = main(
            ["guess", "--class", "cfinite", "--max-order", "5", "--oeis", "A000045"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[0] == "N^2 - N - 1"
        assert "initials: 0, 1" in out

    def test_guess_negative_path(self, offline_cache, capsys):
        code = main(
            ["guess", "--class", "cfinite", "--max-order", "1", "--oeis", "A000045"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "no cfinite recurrence" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["guess", "--class", "cfinite", "--max-order", "-1"],
            ["guess", "--class", "holonomic", "--max-degree", "-1"],
            ["guess", "--class", "poly", "--max-degree", "-2"],
            ["closedform", "--class", "poly", "--max-degree", "-1"],
        ],
        ids=["guess-cfinite-order", "guess-holonomic-degree", "guess-poly-degree", "closedform-poly-degree"],
    )
    def test_negative_bound_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(argv + ["--terms", "1,2,3,4"])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert lines[0].startswith(f"usage: ansatzkit {argv[0]} ")
        assert lines[-1].endswith(f"{argv[3]}: a bound must be non-negative, got {argv[4]}")

    def test_zero_bound_is_accepted(self, capsys):
        code = main(["guess", "--class", "poly", "--max-degree", "0", "--terms", "1,2,3,4"])
        assert capsys.readouterr().out == "no poly recurrence with degree <= 0 fits the data\n"
        assert code == 1
        code = main(["closedform", "--class", "poly", "--max-degree", "0", "--terms", "5,5,5"])
        assert capsys.readouterr().out == "5\n"
        assert code == 0

    @pytest.mark.parametrize(
        "argv, option, value",
        [
            (["asymptotics", "--series-terms", "-2", "holonomic:N-(n+1);1"], "--series-terms", "-2"),
            (["guess", "--class", "cfinite", "--margin", "-5", "--terms", "1,1,2,3,5,8"], "--margin", "-5"),
        ],
        ids=["asymptotics-series-terms", "guess-margin"],
    )
    def test_negative_count_is_a_usage_error(self, capsys, argv, option, value):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert lines[0].startswith(f"usage: ansatzkit {argv[0]} ")
        assert lines[-1].endswith(f"argument {option}: a bound must be non-negative, got {value}")

    def test_zero_count_is_accepted(self, capsys):
        code = main(["asymptotics", "--series-terms", "0", "holonomic:N-(n+1);1"])
        assert capsys.readouterr().out == "K * (n/e)^n * (1)^n * n^(1/2) * (1)\n"
        assert code == 0
        code = main(["guess", "--class", "cfinite", "--margin", "0", "--terms", "1,1,2,3,5,8"])
        assert capsys.readouterr().out == (
            "N^2 - N - 1\ninitials: 1, 1\nshape: class=cfinite order=2 degree=0 fit=4 verified=2\n"
        )
        assert code == 0

    @pytest.mark.parametrize(
        "spec, printed, document",
        [
            (
                "N^2 - N - 1;0,1",
                "(x) / (-x^2 - x + 1)",
                '{"den":["1","-1","-1"],"num":["0","1"],"type":"rational_gf"}',
            ),
            (
                "2*N^2 - 3*N + 1;2,3",
                "(2) / (1/2*x^2 - 3/2*x + 1)",
                '{"den":["1","-3/2","1/2"],"num":["2"],"type":"rational_gf"}',
            ),
        ],
    )
    def test_genfun_cfinite(self, tmp_path, capsys, spec, printed, document):
        target = tmp_path / "gf.json"
        code = main(["genfun", "--class", "cfinite", spec, "--json", str(target)])
        assert code == 0
        assert capsys.readouterr().out == printed + "\n"
        assert target.read_text() == document + "\n"

    @pytest.mark.parametrize(
        "spec, printed",
        [
            ("N^3 - 5*N^2 + 8*N - 4;1,3,10", "2 + (3/2*n - 1)*2^n"),
            ("N^3 - 3*N^2 + 3*N - 1;1,-2,3", "4*n^2 - 7*n + 1"),
            ("N^2 - N - 1;0,1", "(2/5*t - 1/5)*(t)^n + (-2/5*t + 1/5)*(-t + 1)^n"),
            ("N^2 - 2*N - 4;1,3", "(1/5*t + 3/10)*(t)^n + (-1/5*t + 7/10)*(-t + 2)^n"),
        ],
    )
    def test_closedform_cfinite(self, capsys, spec, printed):
        code = main(["closedform", "--class", "cfinite", spec])
        assert code == 0
        assert capsys.readouterr().out == printed + "\n"

    def test_usage_error_exit_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["guess", "--class", "bogus", "--terms", "1,2,3"])
        assert info.value.code == 2

    def test_operator_syntax_exit_2(self, capsys):
        code = main(["genfun", "--class", "cfinite", "N^2 - @;0,1"])
        assert code == 2

    def test_io_error_exit_3(self, offline_cache, capsys):
        code = main(["fetch", "--oeis", "A123456"])
        assert code == 3

    def test_internal_error_exit_1(self, monkeypatch, capsys):
        def inexact_division(args):
            n = Poly([0, 1], QQ, "n")
            return (n * n + 1).exact_div(n + 1)

        monkeypatch.setattr("ansatzkit.cli._cmd_guess", inexact_division)
        code = main(["guess", "--class", "cfinite", "--terms", "1,2,3"])
        assert code == 1
        assert capsys.readouterr().err == "error: polynomial division is not exact\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["closedform", "--class", "poly", "--terms", "1,2", "--max-degree", "5"],
            ["guess", "--class", "cfinite", "--terms", "1,2"],
            ["prove", "--seq", "a=holonomic:N-(n+1);1", "--expr", "a(n+1)-a(n)"],
        ],
        ids=["insufficient-terms", "too-few-to-guess", "unboundable-expression"],
    )
    def test_library_errors_other_than_internal_are_no_result(self, capsys, argv):
        # only an InternalError is reported as "error:"
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("no result: ")
        assert "Traceback" not in captured.err

    def test_two_quadratic_fields_no_result(self, capsys):
        code = main(
            [
                "genfun",
                "--class",
                "c2",
                "--coeff",
                "F=cfinite:N^2-N-1;0,1",
                "--coeff",
                "G=cfinite:N^2-2;1,1",
                "N - F(n) - G(n);1",
            ]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("no result: no supported field")

    def test_exponential_lead_zero_needs_initials(self, capsys):
        # 2^n - 1 vanishes at n = 0, as n - 1 does at n = 1
        for spec in ("c2:(2^n - 1)*N + 1;5", "holonomic:(n - 1)*N + 1;5"):
            code = main(["closure", "--kind", "parsum", spec])
            assert code == 2
            assert "initial values do not cover" in capsys.readouterr().err
        system = parse_recurrence_spec("c2:(2^n - 1)*N + 1;5,-5")
        assert system.validity_offset == 1

    def test_delayed_operand_closure(self, capsys):
        code = main(["closure", "--kind", "add", "c2:(2^n - 1)*N + 1;5,-5", "c2:N-1;1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "initials: 6, -4" in out
        assert "valid from n = 1" in out.splitlines()

    def test_class_vanishing_lead_is_rejected(self):
        with pytest.raises(LeadingAlwaysZero):
            parse_recurrence_spec("c2:(1 + (-1)^n)*N + 1;5,1,2")

    def test_unproven_validity_exit_1(self, capsys):
        from ansatzkit import register_coefficient

        coeff = "H=cfinite:N^2-2*N+5;1,1"
        # H(n) = ((1+2i)^n + (1-2i)^n)/2 as a leading coefficient parses as written
        h = register_coefficient(parse_recurrence_spec(coeff[2:]))
        system = parse_recurrence_spec("c2:H(n)*N - 1;1", {"H": h})
        assert system.validity_offset == 0
        code = main(["closure", "--kind", "parsum", "--coeff", coeff, "c2:N - H(n);1"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("no result: validity unproven")

    def test_prove_identity(self, capsys):
        code = main(
            [
                "prove",
                "--seq",
                "a=cfinite:N^4-2*N^3+2*N-1;0,0,1,2",
                "--expr",
                "a(n+1) - a(n)*a(n+1) + a(n)*a(n+2) + a(n+1)^2 - a(n+1)*a(n+2)",
                "--bound-report",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "order bound: 4 + 4*4 + 4*4 + 4*4 + 4*4 = 68" in out
        assert "PROVEN (checked 68 values)" in out

    def test_prove_applied_operator_bound_report(self, capsys):
        code = main(
            [
                "prove",
                "--seq",
                "a=cfinite:N^4-2*N^3+2*N-1;0,0,1,2",
                "--expr",
                "a(n+1) - a(n)*a(n+1) + a(n)*a(n+2) + a(n+1)^2 - a(n+1)*a(n+2)",
                "--apply",
                "N-1",
                "--bound-report",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out == (
            "order bound: 4 + 4*4 + 4*4 + 4*4 + 4*4 = 68\n"
            "PROVEN (checked 68 values)\n"
        )

    def test_prove_refuted_exit_1(self, capsys):
        code = main(
            [
                "prove",
                "--seq",
                "a=cfinite:N^2-N-1;0,1",
                "--expr",
                "a(n)*a(n+2) - a(n+1)^2 - 1",
            ]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "REFUTED" in out

    def test_json_output_byte_stable(self, offline_cache, tmp_path, capsys):
        target = tmp_path / "out.json"
        code = main(
            [
                "guess",
                "--class",
                "cfinite",
                "--max-order",
                "5",
                "--oeis",
                "A000045",
                "--json",
                str(target),
            ]
        )
        assert code == 0
        first = target.read_text()
        parsed = loads(first.strip())
        assert dumps(parsed) == first.strip()
        code = main(
            [
                "guess",
                "--class",
                "cfinite",
                "--max-order",
                "5",
                "--oeis",
                "A000045",
                "--json",
                str(target),
            ]
        )
        assert code == 0
        assert target.read_text() == first

    def test_offline_determinism(self, offline_cache, capsys):
        argv = ["closure", "--kind", "termwise",
                "cfinite:N^4-2*N^3+2*N-1;0,0,1,2", "cfinite:N^2-N-1;0,1"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        assert first.splitlines()[0] == (
            "N^8 - 2*N^7 - 4*N^6 + 8*N^5 + 5*N^4 - 8*N^3 - 4*N^2 + 2*N + 1"
        )

    def test_closure_with_named_coefficient(self, capsys):
        code = main(
            [
                "closure",
                "--kind",
                "termwise",
                "--coeff",
                "F=cfinite:N^2-N-1;0,1",
                "c2:N - F(n+2);1",
                "c2:N^2 - N - 2^n;1,1",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "N^2" in out

    def test_asymptotics_command(self, capsys):
        code = main(["asymptotics", "--series-terms", "2", "holonomic:N-(n+1);1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "(n/e)^n" in out and "n^(1/2)" in out and "1/12" in out

    def test_asymptotics_delayed_leading_coefficient(self, capsys):
        code = main(
            ["asymptotics", "--series-terms", "3", "holonomic:(n+2)+2*N-n*N^2;0,0,1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "n^(2)" in out and "-1/2" in out

    def test_spec_with_missing_initials_rejected(self, capsys):
        code = main(["genfun", "--class", "cfinite", "N^2-N-1;0"])
        assert code == 2

    def test_fetch_terms_inline(self, capsys):
        code = main(["fetch", "--terms", "1,2,4,8"])
        assert code == 0
        assert "[1, 2, 4, 8]" in capsys.readouterr().out

    def test_guess_with_offset_and_rational_terms(self, capsys):
        from fractions import Fraction as F

        acc, terms = F(0), []
        for i in range(1, 21):
            acc += F(1, i)
            terms.append(str(acc))
        code = main(
            [
                "guess", "--class", "holonomic", "--max-order", "2",
                "--max-degree", "1", "--offset", "1", "--terms", ",".join(terms),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[0] == "(n + 2)*N^2 + (-2*n - 3)*N + (n + 1)"

    def test_fetch_file_comma_list(self, tmp_path, capsys):
        path = tmp_path / "terms.txt"
        path.write_text("1,2,4,8\n")
        code = main(["fetch", "--file", str(path), "--offset", "2"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "[1, 2, 4, 8] (from n=2)"

    def test_fetch_file_comma_list_two_per_line(self, tmp_path, capsys):
        # two tokens per line, but b-file lines never hold commas
        path = tmp_path / "terms.txt"
        path.write_text("1, 2\n3, 5\n")
        code = main(["fetch", "--file", str(path)])
        assert code == 0
        assert capsys.readouterr().out.strip() == "[1, 2, 3, 5] (from n=0)"

    def test_fetch_file_comma_list_skips_comments(self, tmp_path, capsys):
        path = tmp_path / "terms.txt"
        path.write_text("# squares\n0, 1, 4,\n9, 16\n")
        code = main(["fetch", "--file", str(path)])
        assert code == 0
        assert capsys.readouterr().out.strip() == "[0, 1, 4, 9, 16] (from n=0)"

    def test_fetch_file_bfile(self, tmp_path, capsys):
        path = tmp_path / "b000045.txt"
        path.write_text("# Fibonacci\n3 2\n4 3\n5 5\n6 8\n")
        code = main(["fetch", "--file", str(path)])
        assert code == 0
        assert capsys.readouterr().out.strip() == "[2, 3, 5, 8] (from n=3)"

    def test_fetch_file_negative_first_index(self, tmp_path, capsys):
        # as for a downloaded b-file, the terms before index 0 are dropped
        path = tmp_path / "b.txt"
        path.write_text("-1 7\n0 1\n1 1\n2 2\n3 3\n")
        code = main(["fetch", "--file", str(path)])
        assert code == 0
        assert capsys.readouterr().out.strip() == "[1, 1, 2, 3] (from n=0)"

    def test_fetch_file_index_gap_exit_3(self, tmp_path, capsys):
        path = tmp_path / "b.txt"
        path.write_text("0 1\n1 1\n3 2\n4 3\n")
        code = main(["fetch", "--file", str(path)])
        assert code == 3
        assert capsys.readouterr().err.startswith("i/o error: bad b-file line")

    def test_genfun_each_class(self, capsys):
        cases = [
            (["--class", "poly", "n^2+1"], "(2*x^2 - x + 1) / (-x^3 + 3*x^2 - 3*x + 1)"),
            # the zero polynomial, not a zero operator
            (["--class", "poly", "0"], "(0) / (1)"),
            (["--class", "poly", "(n+1)^2 - n^2 - 2*n - 1"], "(0) / (1)"),
            (["--class", "cfinite", "N^2-N-1;0,1"], "(x) / (-x^2 - x + 1)"),
            (["--class", "cfinite", "--homogeneous", "N^2-N-1;0,1"], "(x) / (-x^2 - x + 1)"),
            (["--class", "holonomic", "N-(n+1);1"], "(x - 1)*f(x) + (x^2)*f'(x) = -1"),
            (
                ["--class", "holonomic", "--homogeneous", "N-(n+1);1"],
                "(1)*f(x) + (3*x - 1)*f'(x) + (x^2)*f''(x) = 0",
            ),
            (["--class", "c2", "c2:N-2^n;1"], "(-1)*f(x) + (x)*f((2)*x) = -1"),
            (
                ["--class", "c2", "--homogeneous", "c2:N-2^n;1"],
                "(-1)*f'(x) + (1)*f((2)*x) + (x)*f'((2)*x) = 0",
            ),
        ]
        for args, expected in cases:
            assert main(["genfun", *args]) == 0, args
            assert capsys.readouterr().out == expected + "\n", args

    def test_genfun_poly_needs_a_polynomial(self, capsys):
        for spec in ("N", "N-N", "n*N", "2^n"):
            assert main(["genfun", "--class", "poly", spec]) == 2, spec
            assert capsys.readouterr().err == "expected a polynomial in n\n", spec

    def test_closedform_poly(self, capsys):
        code = main(
            ["closedform", "--class", "poly", "--max-degree", "2", "--terms", "1,4,9,16,25"]
        )
        assert code == 0
        assert capsys.readouterr().out == "1 + 3*C(n,1) + 2*C(n,2)\n"

    def test_closedform_poly_negative_terms(self, capsys):
        # a negative coefficient is joined by " - ", never by "+ -"
        cases = [
            (["--terms", "1,0,-1,-2", "--max-degree", "2"], "1 - 1*C(n,1)"),
            (["--terms", "1,-1/2,3", "--max-degree", "2"], "1 - 3/2*C(n,1) + 5*C(n,2)"),
        ]
        for args, expected in cases:
            assert main(["closedform", "--class", "poly", *args]) == 0, args
            assert capsys.readouterr().out == expected + "\n", args

    def test_closedform_usage_errors(self, capsys):
        assert main(["closedform", "--class", "poly"]) == 2
        assert capsys.readouterr().err == "--class poly needs sequence input\n"
        assert main(["closedform", "--class", "cfinite"]) == 2
        assert capsys.readouterr().err == "--class cfinite needs an operator;initials spec\n"

    def test_prove_apply(self, capsys):
        # a(n+1) - a(n) = a(n-1) is no zero sequence, but N^2 - N - 1 annihilates it
        args = ["prove", "--seq", "a=cfinite:N^2-N-1;0,1", "--expr", "a(n+1) - a(n)"]
        assert main(args) == 1
        assert capsys.readouterr().out.startswith("REFUTED at n = 0")
        assert main([*args, "--apply", "N^2 - N - 1"]) == 0
        assert capsys.readouterr().out == "PROVEN (checked 4 values)\n"
        assert main([*args, "--apply", "n*N"]) == 2
        assert capsys.readouterr().err == "--apply takes a constant-coefficient operator\n"

    def test_parser_is_reused_without_state(self, monkeypatch, capsys):
        # the parser is built once per process; a second run must see only
        # its own --seq list, and the handler is looked up on every run
        seen = []
        prove = cli._cmd_prove

        def recording(args):
            seen.append(list(args.seq))
            return prove(args)

        monkeypatch.setattr(cli, "_cmd_prove", recording)
        first = ["--seq", "a=cfinite:N^2-N-1;0,1", "--seq", "b=cfinite:N-2;1"]
        assert main(["prove", *first, "--expr", "a(n+1) - a(n) - b(n)"]) == 1
        assert capsys.readouterr().out.startswith("REFUTED")
        second = ["--seq", "a=cfinite:N-2;1"]
        assert main(["prove", *second, "--expr", "a(n+1) - 2*a(n)"]) == 0
        assert capsys.readouterr().out.startswith("PROVEN")
        assert seen == [[first[1], first[3]], [second[1]]]
        assert cli.build_parser() is cli.build_parser()

    def test_asymptotics_without_template(self, capsys):
        assert main(["asymptotics", "holonomic:(n+1)*N;1"]) == 1
        assert capsys.readouterr().out == "no growth template applies\n"

    def test_asymptotics_cubic_growth_root(self, capsys):
        assert main(["asymptotics", "cfinite:N^3-2;1,1,1"]) == 1
        assert capsys.readouterr().err.startswith("no result: irreducible factor L^3 - 2")

    def test_guess_c2_is_a_usage_error(self, capsys):
        assert main(["guess", "--class", "c2", "--terms", "1,2,3"]) == 2
        assert capsys.readouterr().err == "guessing for class c2 is not supported\n"

    def test_closure_operand_counts(self, capsys):
        for kind in ("add", "termwise", "cauchy"):
            assert main(["closure", "--kind", kind, "cfinite:N-1;1"]) == 2
            assert capsys.readouterr().err == f"{kind} needs two operands\n"
        for kind in ("parsum", "subseq"):
            assert main(["closure", "--kind", kind, "cfinite:N-1;1", "cfinite:N-2;1"]) == 2
            assert capsys.readouterr().err == f"{kind} takes one operand\n"

    def test_closedform_eleven_digit_roots(self, capsys):
        code = main(
            ["closedform", "--class", "cfinite",
             "N^2 - 20000000052*N + 100000000520000000627;1,1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        terms = re.findall(r"\((-?\d+)/(\d+)\)\*(\d+)\^n", out)
        assert len(terms) == 2
        expected = [F(1), F(1)]
        while len(expected) < 10:
            expected.append(20000000052 * expected[-1] - 100000000520000000627 * expected[-2])
        for n, value in enumerate(expected):
            assert sum(F(int(a), int(b)) * int(lam) ** n for a, b, lam in terms) == value

    def test_asymptotics_thirty_digit_leading_coefficient(self, capsys):
        code = main(
            ["asymptotics",
             "holonomic:(n-5)*(n^2+1000000000000000000000000000000)*N - 1;1,2,3,4,5,6,7"]
        )
        assert code == 0

    def test_asymptotics_eleven_digit_growth_roots(self, capsys):
        code = main(
            ["asymptotics",
             "holonomic:(n+1)*N^2 - (n+1)*20000000052*N"
             " + (n+1)*100000000520000000627;1,1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "(10000000019)^n" in out and "(10000000033)^n" in out


# stdout pinned byte for byte: C2 closures whose operand has a declared
# Fibonacci coefficient, and refined growth templates
GOLDEN_STDOUT = [
    (
        ["closure", "--kind", "add", "--coeff", "F=cfinite:N^2-N-1;0,1",
         "c2:N - F(n+2);1", "c2:N - 3*2^n;2"],
        "((-3/5*t - 1/5)*(t)^n + (3/5*t - 4/5)*(-t + 1)^n + 3*2^n)*N^2"
        " + ((-1/5)*(-1)^n + (t + 3/5)*(t + 1)^n + (-t + 8/5)*(-t + 2)^n - 18*4^n)*N"
        " + ((3/5)*(-2)^n + (54/5*t + 18/5)*(4*t)^n + (-3*t - 9/5)*(2*t + 2)^n"
        " + (-54/5*t + 72/5)*(-4*t + 4)^n + (3*t - 24/5)*(-2*t + 4)^n)\n"
        "with t a root of: t^2 - t - 1 = 0\n"
        "initials: 3, 7\n",
    ),
    (
        ["closure", "--kind", "termwise", "--coeff", "F=cfinite:N^2-N-1;0,1",
         "c2:N^2 - F(n+1)*N + (-2);1,1", "c2:N + (1/2)^n;1"],
        "N^2 + ((1/10*t + 1/5)*(1/2*t)^n + (-1/10*t + 3/10)*(-1/2*t + 1/2)^n)*N - (1/4)^n\n"
        "with t a root of: t^2 - t - 1 = 0\n"
        "initials: 1, -1\n",
    ),
    (
        ["asymptotics", "--series-terms", "4", "holonomic:N-(n+1);1"],
        "K * (n/e)^n * (1)^n * n^(1/2) * (1 + (1/12)/n^1 + (1/288)/n^2"
        " + (-139/51840)/n^3 + (-571/2488320)/n^4)\n",
    ),
    (
        ["asymptotics", "--series-terms", "4", "holonomic:(n+2)+2*N-n*N^2;0,0,1"],
        "K * (-1)^n * n^(0) * (1)\nK * (1)^n * n^(2) * (1 + (-1/2)/n^2)\n",
    ),
    (
        ["asymptotics", "--series-terms", "4", "holonomic:(n+3)*N - (3/2)*(n+1)*(n+2);1"],
        "K * (n/e)^n * (3/2)^n * n^(-1/2) * (1 + (-23/12)/n^1 + (1105/288)/n^2"
        " + (-397939/51840)/n^3 + (38201573/2488320)/n^4)\n",
    ),
]


BAD_INPUTS = [
    ["guess", "--class", "cfinite", "--terms", "1,2,3/0"],
    ["guess", "--class", "cfinite", "--file", "{terms_file}"],
    ["genfun", "--class", "cfinite", "N-1;1/0"],
    ["prove", "--seq", "a=N-1;1", "--expr", "3/0*a(n)"],
    ["closure", "--kind", "subseq", "--m", "0", "cfinite:N-2;1"],
    ["prove", "--seq", "a=N-1;1", "--expr", "a(n)-1", "--from", "-3"],
    ["prove", "--seq", "a=N-1;1", "--expr", "a(n-5)-1"],
]


@pytest.mark.parametrize("argv", BAD_INPUTS)
def test_bad_input_is_a_usage_error(argv, tmp_path, capsys):
    terms_file = tmp_path / "terms.txt"
    terms_file.write_text("1, 2, 3/0\n")
    assert main([arg.format(terms_file=terms_file) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("usage error:")


# a declared NAME must be one operator or claim text can use; each of these
# was accepted before and failed later, or silently replaced a declaration
FIB = "cfinite:N^2-N-1;0,1"
BAD_NAMES = [
    (["genfun", "--class", "c2", "--coeff", f"F G={FIB}", "N - F(n);1"],
     "coefficient name 'F G' is not of the form [A-Za-z_][A-Za-z_0-9]*"),
    (["genfun", "--class", "c2", "--coeff", "=cfinite:N-2;1", "N - 2^n;1"],
     "coefficient name '' is not of the form [A-Za-z_][A-Za-z_0-9]*"),
    (["genfun", "--class", "c2", "--coeff", f"2F={FIB}", "N - 2^n;1"],
     "coefficient name '2F' is not of the form [A-Za-z_][A-Za-z_0-9]*"),
    (["genfun", "--class", "c2", "--coeff", f"N={FIB}", "N - N(n+1);1"],
     "coefficient name 'N' is the shift N or the index n"),
    (["genfun", "--class", "c2", "--coeff", f"n={FIB}", "N - n(n+1);1"],
     "coefficient name 'n' is the shift N or the index n"),
    (["closure", "--kind", "add", "--coeff", f"F={FIB}", "--coeff", "F=cfinite:N-2;1",
      "c2:N - F(n);1", "c2:N - 2;1"],
     "coefficient name 'F' is declared twice"),
    (["prove", "--seq", "a=cfinite:N-2;1", "--seq", "a=cfinite:N-3;1", "--expr", "a(n+1) - 2*a(n)"],
     "sequence name 'a' is declared twice"),
    (["prove", "--seq", "a b=cfinite:N-2;1", "--expr", "a(n+1) - 2*a(n)"],
     "sequence name 'a b' is not of the form [A-Za-z_][A-Za-z_0-9]*"),
]


@pytest.mark.parametrize("argv, message", BAD_NAMES)
def test_declared_names_must_be_usable(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"usage error: {message}\n"


def test_declared_names_are_stripped(capsys):
    argv = ["genfun", "--class", "c2", "--coeff", f" F ={FIB}", "N - F(n);1"]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    assert main(["genfun", "--class", "c2", "--coeff", f"F={FIB}", "N - F(n);1"]) == 0
    assert capsys.readouterr().out == printed


# a spec's class prefix bounds the operator's ring: a smaller one is a
# usage error, a larger one is accepted and prints what no prefix prints
SPEC_PREFIXES = [
    ("cfinite:N - n;1", 2),
    ("poly:N - n;1", 2),
    ("cfinite:N - 2^n;1", 2),
    ("holonomic:N - 2^n;1", 2),
    ("cfinite:N - 2;1", 0),
    ("poly:N - 2;1", 0),
    ("holonomic:N - 2;1", 0),
    ("holonomic:N - (n+1);1", 0),
    ("c2:N - 2;1", 0),
    ("c2:N - (n+1);1", 0),
    ("c2:N - 2^n;1", 0),
]


@pytest.mark.parametrize("spec, code", SPEC_PREFIXES)
def test_spec_prefix_bounds_the_ring(spec, code, capsys):
    argv = ["closure", "--kind", "add", spec, "cfinite:N-1;1"]
    assert main(argv) == code
    captured = capsys.readouterr()
    if code:
        assert captured.out == ""
        assert captured.err.startswith("usage error: class ")
        return
    assert main(["closure", "--kind", "add", spec.split(":", 1)[1], "cfinite:N-1;1"]) == 0
    assert capsys.readouterr().out == captured.out


@pytest.mark.parametrize("argv, stdout", GOLDEN_STDOUT)
def test_golden_stdout(argv, stdout, capsys):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == stdout
    assert captured.err == ""


@contextlib.contextmanager
def unlimited_digits():
    """Lift CPython's int <-> str digit limit (3.11, and 3.10.7 on) within
    the block, where the interpreter has one."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def digit_limit():
    return sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None


SEVENS = 7 * (10**5000 - 1) // 9  # 5000 digits, built without reading text


def big_closure():
    """A sum whose initials pass 4300 digits: a(n + 1) = (n - 2000) a(n),
    a(0) = 1, plus 2^n; the relation holds from n = 2003 on, so the
    initials run to a(2004), of 5736 digits."""
    argv = ["closure", "--kind", "add", "holonomic:N - (n - 2000);1", "cfinite:N-2;1"]
    a = [1]
    for n in range(2004):
        a.append(a[-1] * (n - 2000))
    initials = ", ".join(str(x + 2**n) for n, x in enumerate(a))
    out = (
        "(n - 2002)*N^2 + (-n^2 + 3999*n - 3997996)*N + (2*n^2 - 8002*n + 8004000)\n"
        f"initials: {initials}\nvalid from n = 2003\n"
    )
    return argv, out


def big_guess():
    """A geometric sequence whose first term has 5000 digits."""
    terms = ",".join(str(SEVENS * 2**i) for i in range(12))
    argv = ["guess", "--class", "cfinite", "--terms", terms]
    out = f"N - 2\ninitials: {SEVENS}\nshape: class=cfinite order=1 degree=0 fit=2 verified=10\n"
    return argv, out


class TestBigIntegers:
    """Integers past CPython's 4300-digit limit for int <-> str conversion
    read and print in full through the CLI, which lifts the limit for one
    call and restores it."""

    @pytest.mark.parametrize("case", [big_closure, big_guess], ids=["closure", "guess"])
    def test_prints_in_full(self, case, capsys):
        with unlimited_digits():
            argv, expected = case()
        before = digit_limit()
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert digit_limit() == before
        assert captured.err == ""
        with unlimited_digits():
            assert captured.out == expected

    def test_json_document_round_trips(self, tmp_path, capsys):
        target = tmp_path / "out.json"
        with unlimited_digits():
            argv = big_guess()[0] + ["--json", str(target)]
        assert main(argv) == 0
        first = target.read_text()
        assert main(argv) == 0
        assert target.read_text() == first
        with unlimited_digits():
            parsed = loads(first.strip())
            assert dumps(parsed) == first.strip()
        assert parsed.initials == (SEVENS,)
