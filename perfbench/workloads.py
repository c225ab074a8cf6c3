"""Seeded workload generators.

Every workload is a list of cases built from ``--seed`` alone.  A case holds
the call into ansatzkit that the benchmark times, an answer check that uses
only ``reference`` (never the code under test), the canonical text of the
answer for the output digest, and a corruption of the answer that perturbs
one returned coefficient, used by the self-test.

Case mixes are fixed per workload; the seed only draws coefficients and
initial values inside each fixed shape, so the total cost of a corpus
changes little from seed to seed.
"""

import io
import json
import os
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction

import ansatzkit
from ansatzkit import cli

import reference as ref


@dataclass
class Case:
    label: str
    call: object  # () -> answer; the timed work
    check: object  # answer -> bool, independent of ansatzkit
    canon: object  # answer -> str, for the output digest
    corrupt: object  # answer -> answer with one returned coefficient perturbed


def stratified(cases, rng):
    """Interleave the case labels evenly, in a seeded order, so that every
    prefix of the corpus (the traced subset is one) has the full mix."""
    groups = {}
    for case in cases:
        groups.setdefault(case.label, []).append(case)
    keyed = []
    for group in groups.values():
        for index, case in enumerate(group):
            keyed.append(((index + rng.random()) / len(group), case))
    keyed.sort(key=lambda item: item[0])
    return [case for _, case in keyed]


# -- operands ------------------------------------------------------------------


@dataclass
class Operand:
    """A recurrence as input text plus plain data for the reference."""

    klass: str  # "cfinite", "holonomic" or "c2"
    operator_text: str
    coeffs: list  # plain coefficients, low shift first
    initials: list
    mod: tuple = ref.RATIONAL
    uses_fibonacci: bool = False

    @property
    def spec(self):
        values = ",".join(str(v) for v in self.initials)
        return f"{self.klass}:{self.operator_text};{values}"

    def terms(self, count):
        return ref.unroll(self.coeffs, self.initials, count, self.mod)

    def system(self, declarations):
        return ansatzkit.parse_recurrence_spec(self.spec, declarations)


GOLDEN = (Fraction(-1), Fraction(-1))  # t^2 - t - 1 = 0, t the golden ratio
FIB_SPEC = "cfinite:N^2-N-1;0,1"


def fibonacci_coeff(shift):
    """F(n + shift) in Binet form over Q(t), t^2 = t + 1."""
    phi = (Fraction(0), Fraction(1))
    psi = (Fraction(1), Fraction(-1))
    inv_sqrt5 = (Fraction(-1, 5), Fraction(2, 5))  # 1/(2t - 1)
    first = ref.qmul(ref.qpow(phi, shift, GOLDEN), inv_sqrt5, GOLDEN)
    second = ref.qneg(ref.qmul(ref.qpow(psi, shift, GOLDEN), inv_sqrt5, GOLDEN))
    return [(phi, [first]), (psi, [second])]


def negated(terms):
    return [(base, [ref.qneg(c) for c in poly]) for base, poly in terms]


def _signed_join(parts):
    text = parts[0]
    for part in parts[1:]:
        text += f" - {part[1:]}" if part.startswith("-") else f" + {part}"
    return text


def poly_text(coeffs):
    """Text of a polynomial in n with rational coefficients, high power first."""
    parts = []
    for power in range(len(coeffs) - 1, -1, -1):
        c = coeffs[power]
        if not c:
            continue
        mono = "" if power == 0 else ("n" if power == 1 else f"n^{power}")
        if not mono:
            parts.append(str(c))
        elif c == 1:
            parts.append(mono)
        elif c == -1:
            parts.append(f"-{mono}")
        else:
            parts.append(f"{c}*{mono}")
    return _signed_join(parts) if parts else "0"


def coeff_text(terms):
    """Text of sum_k p_k(n) * b_k^n for rational bases and integer polys."""
    parts = []
    for base, poly in terms:
        body = poly_text(poly)
        if base == 1:
            parts.append(f"({body})" if len(parts) or " " in body else body)
            continue
        power = f"({base})^n"
        if body == "1":
            parts.append(power)
        elif body == "-1":
            parts.append(f"-{power}")
        elif " " in body:
            parts.append(f"({body})*{power}")
        else:
            parts.append(f"{body}*{power}")
    return _signed_join(parts)


def operator_text(coeff_texts):
    """Join coefficient texts (low shift first) into operator text."""
    parts = []
    for power in range(len(coeff_texts) - 1, -1, -1):
        body = coeff_texts[power]
        if body in ("0", ""):
            continue
        shift = "" if power == 0 else ("N" if power == 1 else f"N^{power}")
        if not shift:
            parts.append(f"({body})")
        elif body == "1":
            parts.append(shift)
        else:
            parts.append(f"({body})*{shift}")
    return _signed_join(parts)


def plain_exppoly(terms):
    return [(ref.q(base), [ref.q(c) for c in poly]) for base, poly in terms]


def random_nonzero(rng, low, high):
    while True:
        value = rng.randint(low, high)
        if value:
            return value


def random_initials(rng, count):
    return [rng.choice([1, -1, 2, -2, 3]) for _ in range(count)]


def expand_roots(roots):
    """Coefficients (low power first) of prod (x - r) over ``roots``."""
    coeffs = [1]
    for r in roots:
        coeffs = [a - r * b for a, b in zip([0] + coeffs, coeffs + [0])]
    return coeffs


def cfinite_operand(rng, order):
    """Characteristic roots drawn from +-1, +-2, so terms grow at most like
    2^n and the cost of a case depends on its order, not on the draw."""
    coeffs = expand_roots([rng.choice([1, -1, 2, -2]) for _ in range(order)])
    return Operand(
        "cfinite",
        operator_text([str(c) for c in coeffs]),
        [ref.poly_coeff([c]) for c in coeffs],
        random_initials(rng, order),
    )


def holonomic_operand(rng, order, degree):
    """Leading coefficient (n + 1)...(n + degree), which never vanishes at
    n >= 0; lower coefficients of full degree with entries +-1, +-2."""
    lead = expand_roots(range(-1, -degree - 1, -1))
    coeffs = [[rng.choice([1, -1, 2, -2]) for _ in range(degree + 1)] for _ in range(order)]
    coeffs.append(lead)
    return Operand(
        "holonomic",
        operator_text([poly_text(c) for c in coeffs]),
        [ref.poly_coeff(c) for c in coeffs],
        random_initials(rng, order),
    )


C2_BASES = [Fraction(2), Fraction(3), Fraction(-1), Fraction(-2), Fraction(1, 2), Fraction(3, 2)]


def exppoly_term(rng, sign=None):
    """A single term c*b^n with a rational base b (possibly 1), of the
    given sign if one is given.  A sum like 2(-1)^n - 2 would vanish on a
    residue class, a zero divisor that c2_combine rejects with
    LeadingAlwaysZero by design."""
    bases = C2_BASES + [Fraction(1)]
    if sign is not None:
        bases = [b for b in bases if (b > 0) == (sign > 0)]
    (base,) = rng.sample(bases, 1)
    return [(base, [rng.choice([1, -1, 2, -2])])]


def geometric_operand(rng):
    """a(n+1) = c b^n a(n) with a rational base b."""
    coeffs = [[(rng.choice(C2_BASES), [random_nonzero(rng, -3, 3)])], [(Fraction(1), [1])]]
    return Operand(
        "c2",
        operator_text([coeff_text(c) for c in coeffs]),
        [plain_exppoly(c) for c in coeffs],
        random_initials(rng, 1),
    )


def c2_operand(rng, order, same_sign=False):
    """Exponential-polynomial coefficients with rational bases: one term
    c*b^n each, and a leading coefficient that never vanishes.  With
    ``same_sign`` every base has the sign of the leading one, so no
    coefficient alternates in sign relative to the leading coefficient."""
    lead_base = rng.choice(C2_BASES)
    lead = [(lead_base, [rng.choice([1, -1, 2, -2])])]
    sign = lead_base if same_sign else None
    lower = [exppoly_term(rng, sign) for _ in range(order)]
    coeffs = lower + [lead]
    return Operand(
        "c2",
        operator_text([coeff_text(c) for c in coeffs]),
        [plain_exppoly(c) for c in coeffs],
        random_initials(rng, order),
    )


def fibonacci_operand(rng, order):
    """a(n+1) = F(n+k) a(n) or a(n+2) = F(n+k) a(n+1) - c a(n): operands
    whose coefficient is a shifted Fibonacci number."""
    shift = rng.randint(1, 3)
    arg = f"n+{shift}"
    if order == 1:
        coeffs = [negated(fibonacci_coeff(shift)), ref.poly_coeff([1])]
        text = f"N - F({arg})"
        initials = [random_nonzero(rng, 1, 3)]
    else:
        c = random_nonzero(rng, -2, 2)
        coeffs = [ref.poly_coeff([c]), negated(fibonacci_coeff(shift)), ref.poly_coeff([1])]
        text = f"N^2 - F({arg})*N + ({c})"
        initials = random_initials(rng, 2)
    return Operand("c2", text, coeffs, initials, GOLDEN, uses_fibonacci=True)


# -- answers of the library workloads -----------------------------------------


def _text(value):
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_text(v) for v in value) + "]"
    return str(value)


def system_canon(system):
    """Exact coefficients, modulus, initials and validity offset, rendered
    without calling ansatzkit (so digests add nothing to traced layers)."""
    coeffs, mod = ref.library_operator(system.operator)
    return "|".join([_text(coeffs), _text(mod), _text(system.initials), str(system.validity_offset)])


def corrupt_system(system):
    """Perturb the constant-shift coefficient of the returned operator."""
    op = system.operator
    coeffs = list(op.coeffs)
    coeffs[0] = coeffs[0] + 1
    perturbed = ansatzkit.ShiftOperator(op.ring, coeffs)
    return ansatzkit.RecurrenceSystem(
        perturbed, system.initials, system.validity_offset, system.offset
    )


def combined_terms(kind, a, b, count, mult=1):
    """Reference terms of the combination, from the operands' own terms."""
    if kind == "subsequence":
        inner = a.terms(mult * (count - 1) + 1)
        return [inner[mult * n] for n in range(count)]
    if kind == "partial_sum":
        out, acc = [], Fraction(0)
        for v in a.terms(count):
            acc += v
            out.append(acc)
        return out
    x, y = a.terms(count), b.terms(count)
    if kind == "add":
        return [u + v for u, v in zip(x, y)]
    if kind == "termwise":
        return [u * v for u, v in zip(x, y)]
    if kind == "cauchy":
        return [sum((x[i] * y[n - i] for i in range(n + 1)), Fraction(0)) for n in range(count)]
    raise ValueError(kind)


KINDS = {
    "add": ansatzkit.ADD,
    "termwise": ansatzkit.TERMWISE,
    "partial_sum": ansatzkit.PARTIAL_SUM,
    "subsequence": ansatzkit.SUBSEQUENCE,
    "cauchy": ansatzkit.CAUCHY,
}


def closure_case(label, kind, a, b, mult, check_terms):
    """Case for ``combine(kind, a, b)``; the answer must describe the
    reference combination of the operands' terms."""
    declarations = {}
    if a.uses_fibonacci or (b is not None and b.uses_fibonacci):
        fib = ansatzkit.parse_recurrence_spec(FIB_SPEC)
        declarations["F"] = ansatzkit.register_coefficient(fib)
    sys_a = a.system(declarations)
    sys_b = b.system(declarations) if b is not None else None
    terms = combined_terms(kind, a, b, check_terms, mult)
    library_kind = KINDS[kind]

    def call():
        return ansatzkit.combine(library_kind, sys_a, sys_b, mult=mult)

    def check(system):
        return ref.check_library_system(system, terms)

    return Case(label, call, check, system_canon, corrupt_system)


# -- c2-closure ---------------------------------------------------------------

# (kind, order of a, order of b or None); "g" is a single-term order-1
# operand.  Shapes whose cost varies little with the draw, so the corpus
# costs about the same under every seed.
C2_SHAPES = (
    [("add", "g", "g")] * 8
    + [("add", 2, 1)] * 6
    + [("termwise", 1, 1)] * 16
    + [("termwise", 2, 1)] * 12
    + [("termwise", 2, 2)] * 8
    + [("partial_sum", 1, None)] * 10
    + [("partial_sum", 2, None)] * 10
    + [("subsequence", 1, None)] * 10
    + [("subsequence", 2, None)] * 10
)
# (kind, order of the Fibonacci-coefficient operand); the second operand of
# add and termwise is a rational-base one of order 1
C2_FIB_SHAPES = [("add", 1)] * 2 + [("partial_sum", 1)] * 2 + [("partial_sum", 2)] * 2 + [("termwise", 1)] * 2 + [("subsequence", 1)] * 2


def c2_operand_of(rng, shape, same_sign=False):
    return geometric_operand(rng) if shape == "g" else c2_operand(rng, shape, same_sign)


def c2_closure(seed):
    rng = random.Random(f"c2-closure:{seed}")
    cases = []
    for kind, ra, rb in C2_SHAPES:
        # In a termwise product of two order-2 operands, a coefficient that
        # alternates in sign relative to the leading one can make every
        # candidate's leading coefficient vanish on a parity class, and
        # c2_combine then raises LeadingAlwaysZero (a library limitation,
        # see README.md); those operands keep to one sign.
        same_sign = kind == "termwise" and ra == rb == 2
        a = c2_operand_of(rng, ra, same_sign)
        b = c2_operand_of(rng, rb, same_sign) if rb else None
        mult = rng.randint(2, 3) if kind == "subsequence" else 1
        cases.append(closure_case(f"{kind}/{ra}{rb or ''}", kind, a, b, mult, 30))
    for kind, order in C2_FIB_SHAPES:
        a = fibonacci_operand(rng, order)
        b = geometric_operand(rng) if kind == "add" else c2_operand(rng, 1) if kind == "termwise" else None
        mult = 2 if kind == "subsequence" else 1
        cases.append(closure_case(f"{kind}/sqrt5-{order}", kind, a, b, mult, 30))
    return stratified(cases, rng)


# -- holonomic-closure -----------------------------------------------------------

# (kind, (order, degree) of a, (order, degree) of b or None).  Groups of
# similar cost sit where the quantiles fall: 35 order-2 + order-1 adds
# around the median (the 75th case) and 20 order-2 + order-2 adds around
# the 90th percentile (the 16th case from the top).
HOLONOMIC_SHAPES = (
    [("add", (1, 1), (1, 1))] * 14
    + [("add", (2, 2), (1, 1))] * 35
    + [("add", (3, 1), (1, 1))] * 6
    + [("add", (2, 1), (1, 2))] * 6
    + [("add", (3, 2), (1, 1))] * 6
    + [("add", (2, 2), (2, 1))] * 20
    + [("add", (3, 2), (2, 1))] * 3
    + [("termwise", (1, 1), (1, 1))] * 14
    + [("termwise", (2, 1), (2, 1))] * 8
    + [("termwise", (3, 1), (2, 0))] * 6
    + [("partial_sum", (2, 2), None)] * 8
    + [("partial_sum", (3, 1), None)] * 7
    + [("subsequence", (1, 2), None)] * 5
    + [("cauchy", (1, 1), (1, 1))] * 6
    + [("cauchy", (1, 0), (1, 1))] * 6
)


def holonomic_closure(seed):
    rng = random.Random(f"holonomic-closure:{seed}")
    cases = []
    for kind, shape_a, shape_b in HOLONOMIC_SHAPES:
        a = holonomic_operand(rng, *shape_a)
        b = holonomic_operand(rng, *shape_b) if shape_b else None
        mult = rng.randint(2, 3) if kind == "subsequence" else 1
        shapes = "x".join(f"{o}.{d}" for o, d in [shape_a] + ([shape_b] if shape_b else []))
        cases.append(closure_case(f"{kind}/{shapes}", kind, a, b, mult, 45))
    return stratified(cases, rng)


# -- guess ------------------------------------------------------------------------------


def report_canon(report):
    if report.result is None:
        return "none"
    text = system_canon(report.result) + "|" + repr(report.shape)
    if report.poly is not None:
        text += "|" + str(report.poly)
    return text


def corrupt_report(report):
    if report.result is None:
        # a fabricated fit where none exists: a(n+1) = a(n)
        op = ansatzkit.ShiftOperator(ansatzkit.CoeffRing.CONSTANT, [-1, 1])
        fake = ansatzkit.RecurrenceSystem(op, [0], 0, 0)
        return ansatzkit.GuessReport(fake, ("cfinite", 1, 0), 2, 0)
    return ansatzkit.GuessReport(
        corrupt_system(report.result),
        report.shape,
        report.terms_used_for_fit,
        report.terms_verified,
        report.poly + 1 if report.poly is not None else None,
    )


def guess_case(label, guesser, terms, given, bounds, fresh):
    """Guess from the first ``given`` terms; the result must describe all
    of ``fresh`` (which extends them) or, with ``fresh`` None, not exist."""
    sequence = ansatzkit.Sequence(terms[:given])

    def call():
        # looked up per call so that traced wrappers are seen
        return getattr(ansatzkit, guesser)(sequence, *bounds)

    def check(report):
        if fresh is None:
            return report.result is None
        if report.result is None:
            return False
        if report.poly is not None:
            values = [sum(Fraction(c) * n**k for k, c in enumerate(report.poly.coeffs)) for n in range(len(fresh))]
            if values != fresh:
                return False
        return ref.check_library_system(report.result, fresh)

    return Case(label, call, check, report_canon, corrupt_report)


# Only the 9 no-fit and order-3, degree-2 cases cost more than the 14 of
# shape (2, 2), so the 90th percentile (the 16th case from the top) falls
# inside that group; most C-finite cases have order 4, so the median falls
# inside that one.
GUESS_HOLONOMIC_SHAPES = {(1, 1): 5, (2, 0): 4, (3, 0): 4, (1, 2): 5, (2, 1): 5, (3, 1): 8, (2, 2): 14, (3, 2): 4}
GUESS_CFINITE_ORDERS = [1, 2, 3] * 4 + [4] * 40 + [5, 6] * 4


def guess(seed):
    rng = random.Random(f"guess:{seed}")
    cases = []
    for (order, degree), count in GUESS_HOLONOMIC_SHAPES.items():
        for _ in range(count):
            fresh = holonomic_operand(rng, order, degree).terms(120)
            cases.append(guess_case(f"holonomic/{order},{degree}", "guess_holonomic", fresh, 80, (4, 3), fresh))
    for order in GUESS_CFINITE_ORDERS:
        fresh = cfinite_operand(rng, order).terms(60)
        cases.append(guess_case(f"cfinite/{order}", "guess_cfinite", fresh, 40, (8,), fresh))
    for index in range(36):
        degree = index % 7
        coeffs = [rng.randint(-5, 5) for _ in range(degree)] + [random_nonzero(rng, -5, 5)]
        fresh = [sum(Fraction(c) * n**k for k, c in enumerate(coeffs)) for n in range(40)]
        cases.append(guess_case(f"poly/{degree}", "guess_polynomial", fresh, 20, (8,), fresh))
    for _ in range(5):
        noise = [rng.randint(-99, 99) for _ in range(120)]
        cases.append(guess_case("nofit", "guess_holonomic", noise, 120, (4, 4), None))
    return stratified(cases, rng)


# -- cli-mix ----------------------------------------------------------------------------


@dataclass
class CliAnswer:
    code: int
    stdout: str
    json: str


def cli_canon(answer):
    return f"{answer.code}\n{answer.stdout}\n{answer.json}"


def _bump_first_number(text):
    """Add one to the first integer after the first digit-free prefix."""
    return re.sub(r"\d+", lambda m: str(int(m.group()) + 1), text, count=1)


def corrupt_cli(answer):
    if answer.json:
        doc = json.loads(answer.json)
        if doc["type"] == "recurrence":
            # the leading coefficient, which is never zero
            coeff = doc["coeffs"][-1]
            if isinstance(coeff, str):
                doc["coeffs"][-1] = str(Fraction(coeff) + 1)
            elif isinstance(coeff[0], str):
                coeff[0] = str(Fraction(coeff[0]) + 1)
            else:
                term = coeff[0]["poly"][0]
                term[0] = str(Fraction(term[0]) + 1)
        elif doc["type"] == "rational_gf":
            doc["num"] = [str(Fraction(doc["num"][0]) + 1)] + doc["num"][1:] if doc["num"] else ["1"]
        else:
            poly = doc["terms"][0]["coeffs"][0]
            poly[0][0] = str(Fraction(poly[0][0]) + 1)
        return CliAnswer(answer.code, answer.stdout, json.dumps(doc))
    if "PROVEN" in answer.stdout:
        return CliAnswer(1, answer.stdout.replace("PROVEN", "REFUTED"), "")
    if "REFUTED" in answer.stdout:
        return CliAnswer(0, answer.stdout.replace("REFUTED", "PROVEN"), "")
    if answer.stdout.startswith("K * "):
        # perturb the power of n in the template
        text = re.sub(r"n\^\((-?[\d/]+)\)", lambda m: f"n^({Fraction(m.group(1)) + 1})", answer.stdout, count=1)
        return CliAnswer(answer.code, text, "")
    return CliAnswer(answer.code, _bump_first_number(answer.stdout), "")


class CliRunner:
    """Runs ``ansatzkit.cli.main`` in-process with captured output; --json
    documents go to one file per case under ``workdir``."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.count = 0

    def case(self, label, argv, check, with_json=True):
        path = None
        if with_json:
            path = os.path.join(self.workdir, f"case{self.count}.json")
            argv = argv + ["--json", path]
        self.count += 1

        def call():
            if path and os.path.exists(path):
                os.remove(path)
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:  # argparse rejects the request
                    code = exc.code
            text = ""
            if path and os.path.exists(path):
                with open(path) as fh:
                    text = fh.read()
            return CliAnswer(code, out.getvalue(), text)

        return Case(label, call, check, cli_canon, corrupt_cli)


def _expect(code, check):
    def run(answer):
        return answer.code == code and check(answer)

    return run


def _terms_csv(values):
    return ",".join(str(v) for v in values)


def cli_mix(seed, workdir):
    rng = random.Random(f"cli-mix:{seed}")
    runner = CliRunner(workdir)
    cases = []
    add = cases.append
    for index in range(12):
        op = cfinite_operand(rng, 1 + index % 3)
        fresh = op.terms(60)
        add(runner.case("guess/cfinite", ["guess", "--class", "cfinite", "--max-order", "4", "--terms=" + _terms_csv(fresh[:20])],
                        _expect(0, lambda a, f=fresh: ref.check_json_system(a.json, f))))
    for index in range(8):
        op = holonomic_operand(rng, 1 + index % 2, 1)
        fresh = op.terms(60)
        add(runner.case("guess/holonomic", ["guess", "--class", "holonomic", "--max-order", "2", "--max-degree", "1", "--terms=" + _terms_csv(fresh[:30])],
                        _expect(0, lambda a, f=fresh: ref.check_json_system(a.json, f))))
    for index in range(6):
        coeffs = [rng.randint(-5, 5) for _ in range(index % 4)] + [random_nonzero(rng, -5, 5)]
        fresh = [sum(Fraction(c) * n**k for k, c in enumerate(coeffs)) for n in range(40)]
        add(runner.case("guess/poly", ["guess", "--class", "poly", "--max-degree", "5", "--terms=" + _terms_csv(fresh[:12])],
                        _expect(0, lambda a, f=fresh: ref.check_json_system(a.json, f))))
    for index in range(10):
        op = cfinite_operand(rng, 1 + index % 4)
        fresh = op.terms(40)
        add(runner.case("genfun/cfinite", ["genfun", "--class", "cfinite", op.spec.split(":", 1)[1]],
                        _expect(0, lambda a, f=fresh: ref.check_json_rational_gf(a.json, f))))
    for index in range(8):
        op = holonomic_operand(rng, 1 + index % 2, 1 + index % 2)
        fresh = op.terms(40)
        argv = ["genfun", "--class", "holonomic", op.spec.split(":", 1)[1]]
        if index % 2:
            argv.insert(3, "--homogeneous")
        add(runner.case("genfun/holonomic", argv, _expect(0, lambda a, f=fresh: ref.check_json_diff_equation(a.json, f))))
    for index in range(6):
        op = c2_operand(rng, 1 + index % 2)
        fresh = op.terms(40)
        add(runner.case("genfun/c2", ["genfun", "--class", "c2", op.spec.split(":", 1)[1]],
                        _expect(0, lambda a, f=fresh: ref.check_json_diff_equation(a.json, f))))
    for _ in range(10):
        # (N^2 - p N - s)(N - c) with an irreducible quadratic factor
        while True:
            p, s = rng.randint(-3, 3), rng.randint(-3, 3)
            disc = p * p + 4 * s
            if s and disc != 0 and (disc < 0 or round(disc**0.5) ** 2 != disc):
                break
        c = random_nonzero(rng, -2, 2)
        char = [Fraction(s * c), Fraction(-s + p * c), Fraction(-p - c), Fraction(1)]
        op = Operand("cfinite", operator_text([str(x) for x in char]), [ref.poly_coeff([x]) for x in char], random_initials(rng, 3))
        fresh = op.terms(30)
        mod = (Fraction(-s), Fraction(-p))
        add(runner.case("closedform", ["closedform", "--class", "cfinite", op.spec.split(":", 1)[1]],
                        _expect(0, lambda a, f=fresh, m=mod: ref.check_closed_form(a.stdout, f, m)), with_json=False))
    closure_kinds = ["add", "termwise", "cauchy", "parsum", "subseq"]
    reference_kinds = {"parsum": "partial_sum", "subseq": "subsequence"}
    for index in range(15):
        kind = closure_kinds[index % len(closure_kinds)]
        a = cfinite_operand(rng, 1 + index % 2)
        b = cfinite_operand(rng, 2) if kind in ("add", "termwise", "cauchy") else None
        fresh = combined_terms(reference_kinds.get(kind, kind), a, b, 40, 2)
        specs = [a.spec] + ([b.spec] if b else [])
        add(runner.case("closure/cfinite", ["closure", "--kind", kind] + specs,
                        _expect(0, lambda x, f=fresh: ref.check_json_system(x.json, f))))
    for index in range(4):
        kind = ["add", "termwise"][index % 2]
        a = fibonacci_operand(rng, 1)
        b = geometric_operand(rng)
        fresh = combined_terms(kind, a, b, 40)
        add(runner.case("closure/c2-golden", ["closure", "--kind", kind, "--coeff", f"F={FIB_SPEC}", a.spec, b.spec],
                        _expect(0, lambda x, f=fresh: ref.check_json_system(x.json, f))))
    for index in range(5):
        a = holonomic_operand(rng, 1, 1)
        b = holonomic_operand(rng, 1, index % 2)
        fresh = combined_terms("cauchy", a, b, 45)
        add(runner.case("closure/holonomic-cauchy", ["closure", "--kind", "cauchy", a.spec, b.spec],
                        _expect(0, lambda x, f=fresh: ref.check_json_system(x.json, f))))
    for index in range(8):
        # hypergeometric q(n) a(n+1) = mu p(n) a(n), factors (n + j) with j >= 1
        top = [rng.randint(1, 4) for _ in range(rng.randint(0, 2))]
        bottom = [rng.randint(1, 4) for _ in range(rng.randint(0, 2))]
        mu = Fraction(random_nonzero(rng, -3, 4), rng.randint(1, 2))
        p = [mu * c for c in expand_roots([-j for j in top])]
        qq = expand_roots([-j for j in bottom])
        text = f"({poly_text(qq)})*N - ({poly_text(p)})"
        coeffs = [ref.poly_coeff([-c for c in p]), ref.poly_coeff(qq)]
        op = Operand("holonomic", text, coeffs, [random_nonzero(rng, 1, 5)])
        add(runner.case("asymptotics", ["asymptotics", op.spec, "--series-terms", str(2 + index % 2)],
                        _expect(0, lambda a, m=mu, t=top, b=bottom: ref.check_hypergeometric_form(a.stdout, m, t, b)),
                        with_json=False))
    for index in range(8):
        # Cassini-type identity a(n) a(n+2) - a(n+1)^2 = D for a(n+2) = k a(n+1) - a(n)
        k = rng.randint(2, 5)
        a0, a1 = rng.randint(0, 4), rng.randint(1, 5)
        constant = a0 * (k * a1 - a0) - a1 * a1
        truth = index % 2 == 0
        claimed = constant if truth else constant + random_nonzero(rng, -2, 2)
        sign = "-" if claimed >= 0 else "+"
        expr = f"a(n)*a(n+2) - a(n+1)^2 {sign} {abs(claimed)}"
        want = "PROVEN" if truth else "REFUTED"
        add(runner.case("prove", ["prove", "--seq", f"a=cfinite:N^2-{k}*N+1;{a0},{a1}", "--expr", expr, "--bound-report"],
                        _expect(0 if truth else 1, lambda a, w=want: w in a.stdout.split()), with_json=False))
    return stratified(cases, rng)


WORKLOADS = {
    "c2-closure": lambda seed, workdir: c2_closure(seed),
    "holonomic-closure": lambda seed, workdir: holonomic_closure(seed),
    "guess": lambda seed, workdir: guess(seed),
    "cli-mix": cli_mix,
}
