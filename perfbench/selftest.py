"""Self-test of the benchmark on the tiny `smoke-d1` workload.

    python3 perfbench/selftest.py

Run from the root of a source checkout (about half a minute).  It checks:

* run.py prints, for --trace 0 and --trace 1, every metric BENCHMARK.json
  names, with its unit, both as a `metric` line and in the final JSON
  line, and the final line has exactly the contract's keys;
* in a traced pass the self times of all spans add up to the traced
  wall time of the steps, and two traced passes at one seed give the
  same work counters;
* run.py exits non-zero without a result line in a directory that holds
  only BENCHMARK.json and the benchmark's files.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracing  # noqa: E402  (the benchmark's own modules sit beside this file)
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
UNREACHED = {"spectral.multiply.calls", "spectral.multiply.pairs"}


def check(ok: bool, what) -> None:
    if not ok:
        raise AssertionError(what)


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py"] + args,
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def check_metrics(spec: dict) -> None:
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run(["--workload", "smoke-d1", "--seed", "0",
                     "--seconds", "1", "--trace", str(trace)])
        check(proc.returncode == 0, proc.stdout + proc.stderr)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        check(set(result) == RESULT_KEYS, result.keys())
        check(result["correct"] and result["failed"] == 0, lines)
        check(result["attempted"] >= 1, "no record attempted")
        wanted = {m["name"]: m["unit"] for m in spec[group]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        check(got == wanted, (group, set(got) ^ set(wanted)))
        printed = {ln.split()[1]: ln.split()[3] for ln in lines
                   if ln.startswith("metric ")}
        check(printed == wanted, (group, set(printed) ^ set(wanted)))
        for name, m in result["metrics"].items():
            check(isinstance(m["value"], (int, float)), name)
        if trace:
            # smoke-d1 runs all five suites, so every traced function is
            # reached except `multiply`, which no suite calls
            zero = {k for k, m in result["metrics"].items() if m["value"] == 0}
            check(zero <= UNREACHED, f"metrics read 0: {sorted(zero - UNREACHED)}")


def check_self_times() -> None:
    import torusflow.cli as cli

    tmp = os.path.join(ROOT, ".perfbench", "selftest-tmp")
    os.makedirs(tmp, exist_ok=True)
    try:
        runner = worker.Runner(cli, WORKLOADS["smoke-d1"], tmp)
        counts = []
        for _ in range(2):
            tracer = tracing.Tracer()
            tracer.install()
            try:
                ps = runner.run_pass(0, tracer)
            finally:
                tracer.uninstall()
            self_total = sum(tracer.self_times())
            gap = ps["wall_s"] - self_total
            check(0 <= gap <= 0.01 * ps["wall_s"] + 0.005,
                  f"self times {self_total} s against traced wall {ps['wall_s']} s")
            counts.append(dict(tracer.counts))
        check(counts[0] == counts[1], "work counters differ between passes")
        check(not runner.problems and runner.failed == 0, runner.problems)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def check_bare_directory() -> None:
    bare = os.path.join(ROOT, ".perfbench", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(["--workload", "algebra-d2", "--seed", "0",
                     "--seconds", "1", "--trace", "0"], cwd=bare)
        check(proc.returncode != 0, "exit status 0 without a source tree")
        check('"correct"' not in proc.stdout, proc.stdout)
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    check_metrics(spec)
    check_self_times()
    check_bare_directory()
    print("perfbench self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
