"""Per-layer tracing installed from outside ansatzkit.

Each target function is replaced by a wrapper wherever it is bound: under
its name in every loaded ``ansatzkit.*`` module namespace, and under every
attribute of its class that refers to it (so ``__rmul__ = __mul__`` aliases
are traced too).  A wrapper counts calls and accumulates inclusive time
(outermost activation only, so recursion is not counted twice) and self
time (its duration minus that of wrapped calls made inside it).
"""

import functools
import sys
import time

# (metric prefix, module, attribute path) -- the layers are the modules
TARGETS = [
    ("guess.guess_holonomic", "guess", "guess_holonomic"),
    ("guess.guess_cfinite", "guess", "guess_cfinite"),
    ("guess.guess_polynomial", "guess", "guess_polynomial"),
    ("closure.combination_matrix", "closure", "combination_matrix"),
    ("closure.probe_leading_coefficient", "closure", "probe_leading_coefficient"),
    ("closure.holonomic_cauchy", "closure", "holonomic_cauchy"),
    ("closure.prove_identity", "closure", "prove_identity"),
    ("genfun.holonomic_to_diff", "genfun", "holonomic_to_diff"),
    ("genfun.homogenize", "genfun", "homogenize"),
    ("genfun.diff_to_holonomic", "genfun", "diff_to_holonomic"),
    ("genfun.genfun_cfinite", "genfun", "genfun_cfinite"),
    ("genfun.c2_to_diff", "genfun", "c2_to_diff"),
    ("closedform.cfinite_closed_form", "closedform", "cfinite_closed_form"),
    ("c2.register_coefficient", "c2", "register_coefficient"),
    ("asymptotics.leading_forms", "asymptotics", "leading_forms"),
    ("asymptotics.refine_series", "asymptotics", "refine_series"),
    ("linalg.left_null_space", "linalg", "left_null_space"),
    ("linalg.solve_linear", "linalg", "solve_linear"),
    ("linalg.clear_denominators", "linalg", "clear_denominators"),
    ("linalg.clear_exppoly_denominators", "linalg", "clear_exppoly_denominators"),
    ("sequences.expand_terms", "sequences", "expand_terms"),
    ("sequences.verify_annihilates", "sequences", "verify_annihilates"),
    ("sequences.leading_validity_offset", "sequences", "leading_validity_offset"),
    ("polynomials.Poly.divmod", "polynomials", "Poly.__divmod__"),
    ("polynomials.Poly.mul", "polynomials", "Poly.__mul__"),
    ("polynomials.poly_gcd", "polynomials", "poly_gcd"),
    ("ratfunc.RationalFunction.init", "ratfunc", "RationalFunction.__init__"),
    ("fields.NumberFieldElement.mul", "fields", "NumberFieldElement.__mul__"),
    ("fields.NumberFieldElement.inverse", "fields", "NumberFieldElement.inverse"),
    ("fields.NumberFieldElement.pow", "fields", "NumberFieldElement.__pow__"),
    ("exppoly.ExpPoly.evaluate", "exppoly", "ExpPoly.evaluate"),
    ("exppoly.ExpPolyFraction.mul", "exppoly", "ExpPolyFraction.__mul__"),
    ("exppoly.ExpPolyFraction.add", "exppoly", "ExpPolyFraction.__add__"),
    ("optext.parse_recurrence_spec", "optext", "parse_recurrence_spec"),
    ("optext.operator_to_text", "optext", "operator_to_text"),
    ("jsonio.dumps", "jsonio", "dumps"),
]

EXTRA_METRICS = [
    ("linalg.left_null_space.cells", "count", "lower"),
    ("linalg.left_null_space.nonempty_ratio", "ratio", "higher"),
    ("closure.probe_leading_coefficient.accept_ratio", "ratio", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


def metric_names():
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []
    for prefix, _, _ in TARGETS:
        out.append((f"{prefix}.calls", "count", "lower"))
        out.append((f"{prefix}.total_s", "s", "lower"))
        out.append((f"{prefix}.self_s", "s", "lower"))
    return out + EXTRA_METRICS


class Tracer:
    def __init__(self):
        self.stats = {prefix: [0, 0.0, 0.0] for prefix, _, _ in TARGETS}
        self.cells = 0
        self.nonempty = 0
        self.accepted = 0
        self._stack = []
        self._undo = []

    def _wrap(self, prefix, fn, observe=None):
        stats = self.stats[prefix]
        stack = self._stack
        depth = [0]
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            depth[0] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                depth[0] -= 1
                stats[0] += 1
                if not depth[0]:
                    stats[1] += elapsed
                stats[2] += elapsed - children[0]
                if stack:
                    stack[-1][0] += elapsed
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _observe_null_space(self, args, basis):
        rows = args[0]
        self.cells += len(rows) * (len(rows[0]) if rows else 0)
        self.nonempty += bool(basis)

    def _observe_probe(self, args, validity):
        self.accepted += validity is not None

    def install(self):
        """Wrap every target at every place it is bound."""
        modules = [
            module
            for name, module in list(sys.modules.items())
            if module is not None and (name == "ansatzkit" or name.startswith("ansatzkit."))
        ]
        observers = {
            "linalg.left_null_space": self._observe_null_space,
            "closure.probe_leading_coefficient": self._observe_probe,
        }
        for prefix, module_name, path in TARGETS:
            module = sys.modules[f"ansatzkit.{module_name}"]
            if "." in path:
                class_name, attr = path.split(".")
                owners = [getattr(module, class_name)]
                original = owners[0].__dict__[attr]
            else:
                owners = modules
                original = getattr(module, path)
            wrapper = self._wrap(prefix, original, observers.get(prefix))
            for owner in owners:
                for key, value in list(vars(owner).items()):
                    if value is original:
                        setattr(owner, key, wrapper)
                        self._undo.append((owner, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def calls(self):
        return {prefix: values[0] for prefix, values in self.stats.items()}

    def metrics(self):
        out = {}
        for prefix, (calls, total, self_time) in self.stats.items():
            out[f"{prefix}.calls"] = calls
            out[f"{prefix}.total_s"] = total
            out[f"{prefix}.self_s"] = self_time
        null_calls = self.stats["linalg.left_null_space"][0]
        probe_calls = self.stats["closure.probe_leading_coefficient"][0]
        out["linalg.left_null_space.cells"] = self.cells
        out["linalg.left_null_space.nonempty_ratio"] = self.nonempty / null_calls if null_calls else 0.0
        out["closure.probe_leading_coefficient.accept_ratio"] = (
            self.accepted / probe_calls if probe_calls else 0.0
        )
        return out
