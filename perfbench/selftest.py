#!/usr/bin/env python3
"""Self-test of the benchmark's answer checks.

For every workload, the first case of each label is run once.  Its answer
must be accepted, and the same answer with one returned coefficient
perturbed must be counted as failed by the accounting the timed pass uses.
Exits with code 1 when either does not hold.  Run from the repository root:

    python3 perfbench/selftest.py
"""

import dataclasses
import os
import shutil
import signal
import sys

import run


def outcome(case, answer):
    """Failures the benchmark counts when ``case`` returns ``answer``."""
    replay = dataclasses.replace(case, call=lambda: answer)
    result = run.Pass([replay])
    result.run(0, run.CASE_DEADLINE_S)
    return result.failed


def main():
    sys.path[:0] = [str(run.SRC), str(run.HERE)]
    import workloads

    signal.signal(signal.SIGALRM, run._on_alarm)
    workdir = run.HERE / "work" / f"selftest-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    problems = []
    try:
        for name in run.WORKLOADS:
            cases = workloads.WORKLOADS[name](run.DEFAULT_SEED, str(workdir))
            firsts = {}
            for case in cases:
                firsts.setdefault(case.label, case)
            accepted = rejected = 0
            for label, case in sorted(firsts.items()):
                answer, _, error = run.execute(case, run.CASE_DEADLINE_S)
                if error is not None:
                    problems.append(f"{name} {label}: raised {error}")
                    continue
                if outcome(case, answer) == 0:
                    accepted += 1
                else:
                    problems.append(f"{name} {label}: honest answer counted as failed")
                if outcome(case, case.corrupt(answer)) == 1:
                    rejected += 1
                else:
                    problems.append(f"{name} {label}: corrupted answer not counted as failed")
            total = len(firsts)
            print(f"{name:<18} honest answers accepted {accepted}/{total}"
                  f"   corrupted answers counted as failed {rejected}/{total}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems:
        print(f"  {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
