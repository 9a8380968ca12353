"""Fast self-test of the benchmark: every workload at a small size.

Run from the repository root:

    python3 perfbench/selftest.py

It checks that every metric named in BENCHMARK.json is emitted with its
unit, untraced and traced, that the seed code passes every output check,
and that a deliberately broken output (a NaN final image) raises
failed_frac. Exits 0 when all of that holds.
"""

import json
import math
import shutil
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent


def _expect(cond, message, problems):
    if not cond:
        problems.append(message)


def _check_emitted(summary, declared, section, problems):
    for entry in declared:
        got = summary[section].get(entry["name"])
        where = f"{summary['workload']} {section} {entry['name']}"
        _expect(got is not None, f"{where}: not emitted", problems)
        if got is None:
            continue
        _expect(got["unit"] == entry["unit"], f"{where}: unit {got['unit']!r}, "
                f"BENCHMARK.json says {entry['unit']!r}", problems)
        value = got["value"]
        _expect(isinstance(value, (int, float)) and math.isfinite(value),
                f"{where}: value {value!r} is not a finite number", problems)


def main():
    run._limit_blas_threads()
    run._import_package()
    import numpy as np
    import workloads

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    problems = []
    _expect(sorted(names) == sorted(workloads.WORKLOADS),
            f"BENCHMARK.json workloads {names} differ from run.py", problems)
    work = HERE / "out" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    for name in workloads.WORKLOADS:
        wl = workloads.small(workloads.WORKLOADS[name])
        for trace in (0, 1):
            summary = run.run_workload(wl, 0, 0.0, trace, work)
            _expect(summary["failed"] == 0,
                    f"{name} trace={trace}: checks failed: {summary['failures']}", problems)
            if trace:
                _check_emitted(summary, spec["per_layer"], "layers", problems)
            else:
                _check_emitted(summary, spec["end_to_end"], "report", problems)
            print(f"{name:16s} trace={trace} jobs={summary['attempted']} "
                  f"failed={summary['failed']}")

    # a NaN final image fed to the checker must count as a failed job
    original = workloads.run_job

    def broken(*args, **kwargs):
        res = original(*args, **kwargs)
        x, metrics = res.outputs["pdhg"]
        res.outputs["pdhg"] = (np.full_like(x, np.nan), metrics)
        return res

    workloads.run_job = broken
    try:
        for name in ("denoise64", "tiny_dense"):
            summary = run.run_workload(workloads.small(workloads.WORKLOADS[name]), 0, 0.0,
                                       0, work)
            frac = summary["report"]["failed_frac"]["value"]
            _expect(frac == 1.0, f"{name}: NaN final image gave failed_frac {frac}",
                    problems)
            failures = summary["failures"]
            _expect(any("non-finite final image" in f for f in failures)
                    and not any("raised" in f for f in failures),
                    f"{name}: unexpected failures {failures}", problems)
            print(f"{name:16s} broken output: failed_frac={frac}")
    finally:
        workloads.run_job = original
    shutil.rmtree(work, ignore_errors=True)

    for p in problems:
        print(f"PROBLEM {p}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
