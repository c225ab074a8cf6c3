#!/usr/bin/env python3
"""Benchmark for ansatzkit: seeded workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload guess --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

Load model: closed loop, one caller in one process and one thread; each case
starts when the previous one returns.  ``--trace 0`` times the corpus in
repeated passes for ``--seconds`` and prints the end-to-end metrics;
``--trace 1`` runs a fixed prefix of the corpus once untraced and twice with
per-layer wrappers installed, and prints the per-layer metrics.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ["c2-closure", "holonomic-closure", "guess", "cli-mix"]
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919  # never used while tuning; confirms a claimed gain
DEFAULT_SECONDS = 25
IMPORT_REPEATS = 5
BUILD_REPEATS = 3
CASE_DEADLINE_S = 30.0
HARD_STOP_S = 140.0  # cases still unrun by then count as failed
REF_NOMINAL_S = 0.0013  # reference-kernel time at the nominal machine speed
PROBE_EVERY_S = 0.25
PROBE_WINDOW_S = 3.0
PROBE_MIN_SAMPLES = 5
SETUP_PROBES = 10  # kernel runs before and after set-up, for its speed
# Traced subset: a fixed corpus prefix, so call counts repeat exactly.
TRACE_CASES = {"c2-closure": 60, "holonomic-closure": 100, "guess": 50, "cli-mix": 100}

END_TO_END = [
    ("cases_per_s", "1/s"),
    ("case_ms.p50", "ms"),
    ("case_ms.p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]


def reference_kernel():
    """Fixed pure-Python work, independent of ansatzkit and of the rest of
    the benchmark: 80 terms of a(n+3) = -((1-2n) a(n) + (n+2) a(n+1) +
    (n^2-1) a(n+2)) / (n^2+4n+3) in exact rationals.  Never change it:
    timings are scaled by its speed."""
    a = [Fraction(1), Fraction(2), Fraction(-1)]
    for n in range(77):
        acc = (1 - 2 * n) * a[n] + (n + 2) * a[n + 1] + (n * n - 1) * a[n + 2]
        a.append(-acc / (n * n + 4 * n + 3))
    return a[-1]


class SpeedProbe:
    """Times the reference kernel between cases, to express case times at
    the nominal machine speed.  On a shared machine the processor itself
    runs up to 1.8x slower for minutes at a time; the kernel slows down with
    it, so scaling by nominal / local kernel time removes most of that."""

    def __init__(self):
        self.samples = []  # (start, seconds)
        self.last = -math.inf

    def probe(self):
        start = time.perf_counter()
        reference_kernel()
        self.samples.append((start, time.perf_counter() - start))
        self.last = start

    def tick(self):
        if time.perf_counter() - self.last >= PROBE_EVERY_S:
            self.probe()

    def overall(self):
        return REF_NOMINAL_S / statistics.median(s for _, s in self.samples)

    def factor(self, at):
        """nominal / median kernel time around instant ``at``."""
        near = sorted(self.samples, key=lambda sample: abs(sample[0] - at))
        window = [s for t, s in near if abs(t - at) <= PROBE_WINDOW_S]
        if len(window) < PROBE_MIN_SAMPLES:
            window = [s for _, s in near[:PROBE_MIN_SAMPLES]]
        return REF_NOMINAL_S / statistics.median(window)


class CaseTimeout(BaseException):
    """Raised by the alarm handler; a BaseException so no library handler
    for ordinary errors swallows it."""


def _on_alarm(signum, frame):
    raise CaseTimeout()


def execute(case, deadline):
    """Run one case under a deadline: (answer or None, seconds, error)."""
    signal.setitimer(signal.ITIMER_REAL, max(deadline, 0.001))
    start = time.perf_counter()
    try:
        answer = case.call()
        return answer, time.perf_counter() - start, None
    except CaseTimeout:
        return None, time.perf_counter() - start, "deadline"
    except Exception as exc:  # any failure of the code under test counts
        return None, time.perf_counter() - start, f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def judge(case, answer, error):
    """True when the case produced an answer its independent check accepts."""
    if error is not None:
        return False
    try:
        return bool(case.check(answer))
    except Exception:
        return False


class Pass:
    """Outcomes of running a list of cases, possibly several times each."""

    def __init__(self, cases):
        self.cases = cases
        self.samples = [[] for _ in cases]
        self.starts = [[] for _ in cases]
        self.canon = [None] * len(cases)
        self.good = [True] * len(cases)
        self.errors = {}
        self.attempted = 0
        self.failed = 0

    def run(self, index, deadline):
        case = self.cases[index]
        self.starts[index].append(time.perf_counter())
        answer, seconds, error = execute(case, deadline)
        self.attempted += 1
        self.samples[index].append(seconds)
        text = None
        if error is None:
            try:
                text = case.canon(answer)
            except Exception as exc:
                error = f"canon {type(exc).__name__}: {exc}"
        if self.canon[index] is None:
            ok = judge(case, answer, error)
            self.canon[index] = text if ok else f"failed: {error}"
        else:
            # repeats must reproduce the first, already checked, answer
            ok = error is None and text == self.canon[index] and self.good[index]
        if not ok:
            self.failed += 1
            self.good[index] = False
            self.errors.setdefault(case.label, error or "rejected by check")
        return seconds

    def digest(self):
        h = hashlib.sha256()
        for text in self.canon:
            h.update((text or "").encode())
            h.update(b"\0")
        return h.hexdigest()

    def case_times(self, speed=None):
        """Per-case median time; with a SpeedProbe, at nominal speed."""
        if speed is None:
            return [statistics.median(s) for s in self.samples if s]
        return [
            statistics.median(x * speed.factor(t) for x, t in zip(s, starts))
            for s, starts in zip(self.samples, self.starts)
            if s
        ]


def measure_import():
    """Median time to import ansatzkit in a fresh interpreter."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import ansatzkit"
    times = []
    for attempt in range(IMPORT_REPEATS + 1):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True)
        if attempt:  # the first one may compile bytecode
            times.append(time.perf_counter() - start)
    return statistics.median(times)


def build(workloads, name, seed, workdir):
    times = []
    cases = None
    for _ in range(BUILD_REPEATS):
        cases = None
        gc.collect()
        start = time.perf_counter()
        cases = workloads.WORKLOADS[name](seed, str(workdir))
        times.append(time.perf_counter() - start)
    return cases, statistics.median(times)


def warm_up(cases):
    """Run the first case of each label once, untimed: a process's first
    pass over the code paths runs markedly slower than later ones."""
    seen = set()
    for case in cases:
        if case.label not in seen:
            seen.add(case.label)
            execute(case, CASE_DEADLINE_S)


def timed_passes(cases, seconds, started, speed):
    """Repeat the corpus until ``seconds`` have passed (at least once)."""
    result = Pass(cases)
    gc.collect()
    begin = time.perf_counter()
    passes = 0
    while True:
        for index in range(len(cases)):
            speed.tick()
            now = time.perf_counter()
            if passes and now - begin >= seconds:
                return result, passes
            remaining = HARD_STOP_S - (now - started)
            if remaining <= 0:
                result.attempted += 1
                result.failed += 1
                result.samples[index].append(CASE_DEADLINE_S)
                result.starts[index].append(now)
                result.good[index] = False
                result.errors.setdefault(cases[index].label, "not run before the hard stop")
                continue
            result.run(index, min(CASE_DEADLINE_S, remaining))
        passes += 1


def single_pass(cases):
    result = Pass(cases)
    gc.collect()
    for index in range(len(cases)):
        result.run(index, CASE_DEADLINE_S)
    return result


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(result, setup_s, speed=None):
    times = result.case_times(speed)
    correct = sum(1 for ok, s in zip(result.good, result.samples) if ok and s)
    return {
        "cases_per_s": correct / sum(times),
        "case_ms.p50": statistics.median(times) * 1000.0,
        "case_ms.p90": quantile(times, 90) * 1000.0,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run_untraced(args, cases, setup, setup_speed, started, record):
    warm_up(cases)
    speed = SpeedProbe()
    result, passes = timed_passes(cases, args.seconds, started, speed)
    metrics = end_to_end(result, setup * setup_speed, speed)
    raw = end_to_end(result, setup)
    fail_ratio = result.failed / result.attempted
    record.update(passes=passes, fail_ratio=fail_ratio, raw_metrics=raw,
                  case_samples_s=result.samples,
                  speed_factor=speed.overall(), setup_speed_factor=setup_speed)
    print(f"workload {args.workload}  seed {args.seed}  cases {len(cases)}  passes {passes}"
          f"  per-case time = median of its {passes}-{passes + 1} runs")
    print(f"  {'':<13} {'at nominal':>14}  {'':<4} {'raw wall':>14}   (speed factor {record['speed_factor']:.3f})")
    for name, unit in END_TO_END:
        print(f"  {name:<13} {metrics[name]:>14.4f} {unit:<4} {raw[name]:>14.4f}")
    print(f"  {'fail_ratio':<13} {fail_ratio:>14.4f} ratio  ({result.failed} of {result.attempted} runs)")
    units = dict(END_TO_END)
    return result, {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}


def run_traced(args, cases, record):
    import tracing

    subset = cases[: TRACE_CASES[args.workload]]
    single_pass(subset)  # warm-up: a process's first pass runs slower
    # each case runs untraced, traced, and traced again under a second
    # tracer, so machine-speed drift cancels out of the overhead ratio
    base, first, second = Pass(subset), Pass(subset), Pass(subset)
    tracers = (tracing.Tracer(), tracing.Tracer())
    gc.collect()
    for index in range(len(subset)):
        base.run(index, CASE_DEADLINE_S)
        for tracer, result in zip(tracers, (first, second)):
            tracer.install()
            try:
                result.run(index, CASE_DEADLINE_S)
            finally:
                tracer.uninstall()
    base_s = sum(base.case_times())
    metrics = tracers[0].metrics()
    calls, repeat_calls = tracers[0].calls(), tracers[1].calls()
    traced_s = sum(first.case_times())
    metrics["trace.overhead_ratio"] = traced_s / base_s
    repeats = calls == repeat_calls
    same_answers = base.canon == first.canon == second.canon
    record.update(
        traced_cases=len(subset),
        untraced_pass_s=base_s,
        traced_pass_s=traced_s,
        calls_repeat=repeats,
        answers_unchanged_by_tracing=same_answers,
        calls=calls,
    )
    print(f"workload {args.workload}  seed {args.seed}  traced cases {len(subset)}"
          f"  untraced {base_s:.3f} s  traced {traced_s:.3f} s")
    print(f"  call counts repeat: {repeats}   answers unchanged by tracing: {same_answers}")
    units = {name: unit for name, unit, _ in tracing.metric_names()}
    for name, _, _ in tracing.metric_names():
        if metrics[name]:
            print(f"  {name:<52} {metrics[name]:>14.4f} {units[name]}")
    out = {name: {"value": metrics[name], "unit": units[name]} for name, _, _ in tracing.metric_names()}
    combined = Pass(subset)
    combined.attempted = base.attempted + first.attempted + second.attempted
    combined.failed = base.failed + first.failed + second.failed
    if not (repeats and same_answers):
        combined.failed += 1
    combined.canon = first.canon
    combined.errors = {**base.errors, **first.errors, **second.errors}
    return combined, out


def run_all(args):
    """Run every workload in its own process and print one table."""
    rows = {}
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        rows[name] = result
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, value in result["metrics"].items():
            metrics[f"{name}/{metric}"] = value
    if not args.trace:
        print()
        names = [n for n, _ in END_TO_END] + ["fail_ratio"]
        print(f"{'workload':<18}" + "".join(f"{n:>14}" for n in names))
        for name, result in rows.items():
            values = [result["metrics"][n]["value"] for n, _ in END_TO_END]
            values.append(result["failed"] / result["attempted"])
            print(f"{name:<18}" + "".join(f"{v:>14.4f}" for v in values))
        print(f"{'unit':<18}" + "".join(f"{u:>14}" for _, u in END_TO_END) + f"{'ratio':>14}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; {HELD_OUT_SEED} is held out)")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="length of the timed pass in seconds")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "ansatzkit" / "__init__.py").is_file():
        print(f"no ansatzkit sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    started = time.perf_counter()
    sys.path[:0] = [str(SRC), str(HERE)]
    setup_probe = SpeedProbe()
    for _ in range(SETUP_PROBES):
        setup_probe.probe()
    import_s = measure_import()
    import ansatzkit

    if Path(ansatzkit.__file__).resolve().parent != SRC / "ansatzkit":
        print(f"imported ansatzkit from {ansatzkit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    signal.signal(signal.SIGALRM, _on_alarm)
    workdir = HERE / "work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    try:
        cases, build_s = build(workloads, args.workload, args.seed, workdir)
        for _ in range(SETUP_PROBES):
            setup_probe.probe()
        setup_speed = setup_probe.overall()
        record.update(import_s=import_s, build_s=build_s, cases=len(cases))
        if args.trace:
            result, metrics = run_traced(args, cases, record)
        else:
            result, metrics = run_untraced(args, cases, import_s + build_s, setup_speed, started, record)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    digest = result.digest()
    correct = result.failed == 0
    record.update(digest=digest, attempted=result.attempted, failed=result.failed,
                  errors=result.errors, metrics=metrics)
    print(f"  digest sha256:{digest}")
    for label, error in sorted(result.errors.items()):
        print(f"  failed {label}: {error}")
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    with open(results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps({"correct": correct, "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
