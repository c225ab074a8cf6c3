"""Command line front end.

Exit codes: 0 success, 1 no result (no fitting recurrence, refuted
identity, unusable leading coefficient, unproven validity, too few terms:
every library error but a usage or I/O one, printed as ``no result:``) or
internal error (a failed invariant check, printed as ``error:``), 2 usage
error, 3 I/O error (download, cache, file problems).
"""

import argparse
import sys
from functools import cache

from . import closure, guess, jsonio, oeis
from .asymptotics import leading_forms, refine_series
from .c2 import register_coefficient
from .closedform import cfinite_closed_form, poly_binomial_form
from .closure import ClaimTerm, IdentityClaim, prove_identity
from .errors import (
    AnsatzError,
    BFileParseError,
    InternalError,
    MixedRing,
    NetworkError,
    NotFound,
    OperatorSyntaxError,
    UnknownCoefficient,
)
from .genfun import c2_to_diff, genfun_cfinite, genfun_polynomial, holonomic_to_diff, homogenize
from .optext import (
    is_name,
    operator_to_text,
    parse_claim_terms,
    parse_operator,
    parse_polynomial,
    parse_rational,
    parse_recurrence_spec,
)
from .sequences import CoeffRing, Sequence

EXIT_OK = 0
EXIT_NO_RESULT = 1
EXIT_USAGE = 2
EXIT_IO = 3

_USAGE_ERRORS = (
    OperatorSyntaxError,
    UnknownCoefficient,
    MixedRing,
    ValueError,
)
_IO_ERRORS = (NetworkError, NotFound, BFileParseError, OSError)


def _add_input_arguments(parser, required=True):
    group = parser.add_mutually_exclusive_group(required=required)
    group.add_argument("--oeis", metavar="AXXXXXX", help="sequence id to fetch")
    group.add_argument("--terms", metavar="CSV", help="inline comma-separated terms")
    group.add_argument("--file", metavar="PATH", help="b-file or comma/space separated terms")


def _add_common(parser):
    parser.add_argument("--json", metavar="PATH", help="also write a JSON document")
    parser.add_argument(
        "--coeff",
        metavar="NAME=SPEC",
        action="append",
        default=[],
        help="declare a coefficient sequence, e.g. F=cfinite:N^2-N-1;0,1",
    )
    parser.add_argument("--offset", type=int, default=0, help="index of the first term")


def _bound(text):
    """A shape bound or a count (``--margin``, ``--series-terms``): a
    non-negative integer, else a usage error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"a bound must be non-negative, got {text}")
    return value


def _load_sequence(args):
    if args.oeis:
        return oeis.fetch(args.oeis)
    if args.terms is not None:
        values = [parse_rational(part) for part in args.terms.split(",") if part.strip()]
        return Sequence(values, args.offset)
    with open(args.file) as fh:
        text = fh.read()
    stripped = [line for line in text.splitlines() if line.strip() and not line.lstrip().startswith("#")]
    # b-file lines are "index value" pairs and never contain commas
    if stripped and all(len(line.split()) == 2 and "," not in line for line in stripped):
        return oeis._sequence_from_entries(oeis.parse_bfile(text), args.file)
    values = [parse_rational(tok) for tok in " ".join(stripped).replace(",", " ").split()]
    return Sequence(values, args.offset)


def _declaration(item, kind, declared, reserved=()):
    """The NAME and SPEC of a ``NAME=SPEC`` declaration of a ``kind``
    ("coefficient" or "sequence"); a usage error for a NAME that operator
    or claim text could not use: not an identifier, one of ``reserved``,
    or already in ``declared``."""
    if "=" not in item:
        raise OperatorSyntaxError(f"{kind} declaration needs NAME=SPEC", 0)
    name, spec = item.split("=", 1)
    name = name.strip()
    if not is_name(name):
        raise ValueError(f"{kind} name {name!r} is not of the form [A-Za-z_][A-Za-z_0-9]*")
    if name in reserved:
        raise ValueError(f"{kind} name {name!r} is the shift N or the index n")
    if name in declared:
        raise ValueError(f"{kind} name {name!r} is declared twice")
    return name, spec


def _declarations(args):
    declared = {}
    for item in args.coeff:
        # N and n are the shift and the index of operator text
        name, spec = _declaration(item, "coefficient", declared, ("N", "n"))
        declared[name] = register_coefficient(parse_recurrence_spec(spec, declared))
    return declared


def _write_json(args, obj):
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(jsonio.dumps(obj))
            fh.write("\n")


def _parse_system(args, spec):
    return parse_recurrence_spec(spec, _declarations(args))


# -- subcommands ---------------------------------------------------------------


def _cmd_fetch(args):
    sequence = _load_sequence(args)
    print(sequence)
    _write_json(args, sequence)
    return EXIT_OK


def _cmd_guess(args):
    sequence = _load_sequence(args)
    options = {"margin": args.margin} if args.margin is not None else {}
    if args.assume_bound:
        options["assume_bound"] = True
    if args.klass == "poly":
        report = guess.guess_polynomial(sequence, args.max_degree, **options)
    elif args.klass == "cfinite":
        report = guess.guess_cfinite(sequence, args.max_order, **options)
    elif args.klass == "holonomic":
        report = guess.guess_holonomic(
            sequence, args.max_order, args.max_degree, **options
        )
    else:
        print("guessing for class c2 is not supported", file=sys.stderr)
        return EXIT_USAGE
    if report.result is None:
        bound = (
            f"order <= {args.max_order}"
            if args.klass != "poly"
            else f"degree <= {args.max_degree}"
        )
        print(f"no {args.klass} recurrence with {bound} fits the data")
        return EXIT_NO_RESULT
    system = report.result
    print(operator_to_text(system.operator))
    print("initials:", ", ".join(str(v) for v in system.initials))
    if report.poly is not None:
        print("closed form:", report.poly)
    shape = report.shape
    line = f"shape: class={shape[0]} order={shape[1]} degree={shape[2]}"
    line += f" fit={report.terms_used_for_fit} verified={report.terms_verified}"
    if report.proven:
        line += " proven"
    if report.degenerate:
        line += " degenerate"
    print(line)
    _write_json(args, system)
    return EXIT_OK


def _cmd_genfun(args):
    if args.klass == "poly":
        poly = parse_polynomial(args.spec, _declarations(args))
        if poly is None:
            print("expected a polynomial in n", file=sys.stderr)
            return EXIT_USAGE
        result = genfun_polynomial(poly)
        print(result)
        _write_json(args, result)
        return EXIT_OK
    system = _parse_system(args, args.spec)
    if args.klass == "cfinite":
        result = genfun_cfinite(system)
    elif args.klass == "holonomic":
        result = holonomic_to_diff(system)
    elif args.klass == "c2":
        result = c2_to_diff(system)
    else:
        return EXIT_USAGE
    if args.homogeneous and args.klass in ("holonomic", "c2"):
        result = homogenize(result)
    print(result)
    _write_json(args, result)
    return EXIT_OK


def _cmd_closedform(args):
    if args.klass == "poly":
        if not (args.oeis or args.terms or args.file):
            print("--class poly needs sequence input", file=sys.stderr)
            return EXIT_USAGE
        sequence = _load_sequence(args)
        form = poly_binomial_form(sequence, args.max_degree)
        print(form)
        return EXIT_OK
    if not args.spec:
        print("--class cfinite needs an operator;initials spec", file=sys.stderr)
        return EXIT_USAGE
    system = _parse_system(args, args.spec)
    closed = cfinite_closed_form(system)
    print(closed)
    return EXIT_OK


_KINDS = {
    "add": closure.ADD,
    "termwise": closure.TERMWISE,
    "cauchy": closure.CAUCHY,
    "parsum": closure.PARTIAL_SUM,
    "subseq": closure.SUBSEQUENCE,
}


def _cmd_closure(args):
    kind = _KINDS[args.kind]
    declared = _declarations(args)
    systems = [parse_recurrence_spec(spec, declared) for spec in args.spec]
    if kind in (closure.ADD, closure.TERMWISE, closure.CAUCHY):
        if len(systems) != 2:
            print(f"{args.kind} needs two operands", file=sys.stderr)
            return EXIT_USAGE
        result = closure.combine(kind, systems[0], systems[1])
    else:
        if len(systems) != 1:
            print(f"{args.kind} takes one operand", file=sys.stderr)
            return EXIT_USAGE
        result = closure.combine(kind, systems[0], mult=args.m)
    print(operator_to_text(result.operator, declared))
    if result.operator.ring is CoeffRing.EXPPOLY:
        field = result.operator.coeffs[-1].field
        if field.degree > 1:
            print(f"with t a root of: {field.minpoly} = 0")
    print("initials:", ", ".join(str(v) for v in result.initials))
    if result.validity_offset:
        print(f"valid from n = {result.validity_offset}")
    _write_json(args, result)
    return EXIT_OK


def _cmd_asymptotics(args):
    system = _parse_system(args, args.spec)
    forms = leading_forms(system.operator)
    if not forms:
        print("no growth template applies")
        return EXIT_NO_RESULT
    for form in forms:
        refined = refine_series(form, system.operator, args.series_terms)
        print(refined)
    return EXIT_OK


def _cmd_prove(args):
    systems = {}
    for item in args.seq:
        name, spec = _declaration(item, "sequence", systems)
        systems[name] = parse_recurrence_spec(spec)
    pairs = parse_claim_terms(args.expr, set(systems))
    applied = ()
    if args.apply:
        operator = parse_operator(args.apply)
        if operator.ring is not CoeffRing.CONSTANT:
            print("--apply takes a constant-coefficient operator", file=sys.stderr)
            return EXIT_USAGE
        applied = (tuple(operator.coeffs),)
    terms = tuple(ClaimTerm(coeff, factors, *applied) for coeff, factors in pairs)
    claim = IdentityClaim(systems, terms, args.from_n)
    certificate = prove_identity(claim)
    if args.bound_report:
        print(f"order bound: {certificate.bound_trace}")
    if certificate.verdict == "proven":
        print(f"PROVEN (checked {certificate.terms_checked} values)")
        return EXIT_OK
    print(
        f"REFUTED at n = {certificate.witness}"
        f" (value {certificate.witness_value})"
    )
    return EXIT_NO_RESULT


@cache
def build_parser():
    """The argument parser, built once per process; ``main`` finds each
    command's handler by name, ``_cmd_<command>``."""
    parser = argparse.ArgumentParser(
        prog="ansatzkit",
        description="guess, convert, combine and prove linear recurrences",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fetch", help="download or load a sequence")
    _add_input_arguments(p)
    _add_common(p)

    p = sub.add_parser("guess", help="fit a recurrence to data")
    _add_input_arguments(p)
    _add_common(p)
    p.add_argument("--class", dest="klass", required=True,
                   choices=["poly", "cfinite", "holonomic", "c2"])
    p.add_argument("--max-order", type=_bound, default=4)
    p.add_argument("--max-degree", type=_bound, default=3)
    p.add_argument("--margin", type=_bound, default=None)
    p.add_argument("--assume-bound", action="store_true",
                   help="treat the bounds as known, making the fit a proof")

    p = sub.add_parser("genfun", help="generating function equation of a recurrence")
    p.add_argument("--class", dest="klass", required=True,
                   choices=["poly", "cfinite", "holonomic", "c2"])
    p.add_argument("--homogeneous", action="store_true")
    _add_common(p)
    p.add_argument("spec", help="operator;initials (or a polynomial in n for --class poly)")

    p = sub.add_parser("closedform", help="closed-form solution")
    p.add_argument("--class", dest="klass", required=True, choices=["poly", "cfinite"])
    p.add_argument("--max-degree", type=_bound, default=8)
    _add_common(p)
    p.add_argument("spec", nargs="?", help="operator;initials for --class cfinite")
    _add_input_arguments(p, required=False)

    p = sub.add_parser("closure", help="combine recurrences")
    p.add_argument("--kind", required=True, choices=sorted(_KINDS))
    p.add_argument("--m", type=int, default=2, help="subsequence multiplier")
    _add_common(p)
    p.add_argument("spec", nargs="+", help="operand operator;initials specs")

    p = sub.add_parser("asymptotics", help="growth templates of a recurrence")
    p.add_argument("--series-terms", type=_bound, default=2)
    _add_common(p)
    p.add_argument("spec", help="operator;initials")

    p = sub.add_parser("prove", help="prove an identity by closure bounds")
    p.add_argument("--seq", metavar="NAME=SPEC", action="append", default=[],
                   required=True)
    p.add_argument("--expr", required=True, help="polynomial combination, e.g. a(n)*a(n+2) - a(n+1)^2")
    p.add_argument("--apply", metavar="OPERATOR",
                   help="shift operator applied to the whole expression")
    p.add_argument("--from", dest="from_n", type=int, default=0)
    p.add_argument("--bound-report", action="store_true")
    return parser


def main(argv=None):
    # exact terms pass CPython's int <-> str digit limit quickly (2000! has
    # 5736 digits); lift it for this call only, as main may run in-process
    limit = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return _run(build_parser().parse_args(argv))
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def _run(args):
    handler = globals()[f"_cmd_{args.command}"]
    try:
        return handler(args)
    except _IO_ERRORS as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except _USAGE_ERRORS as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InternalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_RESULT
    except AnsatzError as exc:
        print(f"no result: {exc}", file=sys.stderr)
        return EXIT_NO_RESULT


if __name__ == "__main__":
    sys.exit(main())
