"""Run one workload in a fresh process and write what it measured as JSON.

Started by run.py with the package source on PYTHONPATH:

    python3 perfbench/worker.py --workload W --seed N --seconds S \
        --trace 0|1 --tmp DIR --result PATH [--spans PATH]

Every step goes through `torusflow.cli.main`, the console script's entry,
with its summary output discarded.  Each step's CSV is checked: the step
exits 0, every record passes, the record names are the expected ones in
order, and a rerun at the same config seed gives the same bytes.

Untraced (--trace 0): one pass per input seed, repeated while another
round fits in S seconds; if only one round fits, the first step of the
first seed's pass runs again, untimed, so the run still checks a rerun.  Traced (--trace 1): an
untraced round, then the same round with the tracer installed, repeated
while another pair fits.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from typing import Dict, List, Optional

import tracing
from workloads import WORKLOADS, expected_names, input_seeds


def _records(data: bytes) -> List[tuple]:
    """(suite, name, passed) per CSV row.

    The report writer does not quote fields, and record names such as
    `vacuum_identity[0,t=0.5]` contain commas, so a row has as many extra
    fields as its name has commas; no other column can hold one.
    """
    lines = data.decode("utf-8").splitlines()
    if not lines:
        return []
    width = len(lines[0].split(","))
    rows = []
    for line in lines[1:]:
        fields = line.split(",")
        extra = len(fields) - width
        if extra < 0:  # a truncated row matches no expected name
            rows.append((fields[0], None, None))
            continue
        rows.append((fields[0], ",".join(fields[1:2 + extra]), fields[2 + extra]))
    return rows


class Runner:
    """Runs passes of one workload and checks every report they write."""

    def __init__(self, cli, steps, tmp: str):
        self.cli = cli
        self.steps = steps
        self.tmp = tmp
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self._digests: Dict[tuple, str] = {}

    def _config(self, seed: int) -> str:
        path = os.path.join(self.tmp, f"seed-{seed}.cfg")
        if not os.path.exists(path):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(f"seed = {seed}\n")
        return path

    def run_pass(self, seed: int, tracer: Optional[tracing.Tracer] = None) -> dict:
        steps = [self.run_step(seed, suite, dim, tracer) for suite, dim in self.steps]
        return {"seed": seed, "traced": tracer is not None,
                "wall_s": sum(s["wall_s"] for s in steps), "steps": steps}

    def run_step(self, seed: int, suite: str, dim: int,
                 tracer: Optional[tracing.Tracer] = None) -> dict:
        out = os.path.join(self.tmp, "report.csv")
        if os.path.exists(out):
            os.remove(out)
        argv = ["run", "--config", self._config(seed), "--suite", suite,
                "--dim", str(dim), "--format", "csv", "--out", out]
        label = f"{suite}-d{dim}"
        if tracer is not None:
            tracer.run_id = f"{seed}:{label}"
        start = time.perf_counter()
        code = self._main(argv, tracer)
        wall = time.perf_counter() - start
        self._check(seed, suite, dim, code, out)
        return {"step": label, "wall_s": wall, "exit": code}

    def _main(self, argv: List[str], tracer: Optional[tracing.Tracer]):
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                if tracer is None:
                    return self.cli.main(argv)
                return tracer.span("cli.main", self.cli.main, argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2
        except Exception:
            # a crashed step loses its records; the run goes on
            self.problems.append(f"{' '.join(argv)}: {traceback.format_exc()}")
            return -1

    def _check(self, seed: int, suite: str, dim: int, code, out: str) -> None:
        expected = expected_names(suite, dim)
        self.attempted += len(expected)
        label = f"{suite} d={dim} seed={seed}"
        if code != 0:
            self.problems.append(f"{label}: exit status {code}")
        try:
            with open(out, "rb") as fh:
                data = fh.read()
        except OSError:
            self.problems.append(f"{label}: no report written")
            self.failed += len(expected)
            return
        rows = _records(data)
        if [r[1] for r in rows] != expected or any(r[0] != suite for r in rows):
            self.problems.append(f"{label}: records differ from the expected list")
            self.failed += len(expected)
            return
        bad = [name for _, name, passed in rows if passed != "true"]
        if bad:
            self.problems.append(f"{label}: failed records {bad}")
        self.failed += len(bad)
        digest = hashlib.sha256(data).hexdigest()
        if self._digests.setdefault((seed, suite, dim), digest) != digest:
            self.problems.append(f"{label}: report differs from an earlier "
                                 "run at the same seed")


def _round(runner: Runner, seeds: List[int], traced: bool,
           passes: List[dict]) -> List[tracing.Tracer]:
    tracers = []
    for s in seeds:
        tracer = None
        if traced:
            tracer = tracing.Tracer()
            tracer.install()
        try:
            passes.append(runner.run_pass(s, tracer))
        finally:
            if tracer is not None:
                tracer.uninstall()
                tracers.append(tracer)
    return tracers


def _round_totals(tracers: List[tracing.Tracer]) -> Dict[str, float]:
    """Sums over the round's passes; `_max` counters take the maximum."""
    total: Dict[str, float] = Counter()
    for tr in tracers:
        for key, value in list(tr.counts.items()) + list(tracing.layer_totals(tr).items()):
            if key.endswith("_max"):
                total[key] = max(total[key], value)
            else:
                total[key] += value
    return dict(total)


def _is_time(key: str) -> bool:
    return key.endswith((".s", ".self_s"))


def _per_step_self(tracers: List[tracing.Tracer]) -> Dict[str, Dict[str, float]]:
    """Self time by step (summed over input seeds) and span name."""
    out: Dict[str, Dict[str, float]] = {}
    for tr in tracers:
        for (name, _, _, _, run), s in zip(tr.spans, tr.self_times()):
            step = out.setdefault(run.split(":", 1)[1], Counter())
            step[name] += s
    return {k: dict(v) for k, v in out.items()}


def _write_spans(path: str, rounds: List[List[tracing.Tracer]]) -> None:
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        fh.write("round\tpass\tindex\tname\tstart\tend\tparent\trun\n")
        for r, tracers in enumerate(rounds):
            for p, tr in enumerate(tracers):
                for i, (name, start, end, parent, run) in enumerate(tr.spans):
                    fh.write(f"{r}\t{p}\t{i}\t{name}\t{start!r}\t{end!r}"
                             f"\t{parent}\t{run}\n")


def _host() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv: Optional[List[str]] = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tmp", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--spans")
    args = p.parse_args(argv)

    import torusflow.cli as cli

    runner = Runner(cli, WORKLOADS[args.workload], args.tmp)
    seeds = input_seeds(args.seed)
    passes: List[dict] = []
    rounds: List[List[tracing.Tracer]] = []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        _round(runner, seeds, False, passes)
        if args.trace:
            rounds.append(_round(runner, seeds, True, passes))
        if time.perf_counter() - start + (time.perf_counter() - t) > args.seconds:
            break
    if not args.trace and len(passes) == len(seeds):
        # untimed rerun, so that every run checks byte-identical reports
        runner.run_step(seeds[0], *runner.steps[0])

    result = {
        "passes": passes,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "problems": runner.problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "host": _host(),
    }
    if args.trace:
        totals = [_round_totals(r) for r in rounds]
        exact = {k: v for k, v in totals[0].items() if not _is_time(k)}
        for other in totals[1:]:
            if {k: other.get(k, 0) for k in exact} != exact:
                runner.problems.append("work counters differ between traced rounds")
        layers = dict(exact)
        for key in {k for t in totals for k in t if _is_time(k)}:
            layers[key] = statistics.median(t.get(key, 0.0) for t in totals)

        def round_walls(traced: bool) -> List[float]:
            walls: Dict[int, float] = Counter()
            for i, ps in enumerate(x for x in passes if x["traced"] == traced):
                walls[i // len(seeds)] += ps["wall_s"]
            return list(walls.values())

        layers["trace_overhead_s"] = (statistics.median(round_walls(True))
                                      - statistics.median(round_walls(False)))
        result["layers"] = layers
        result["per_step_self_s"] = _per_step_self(rounds[0])
        result["seed_pass_counts"] = _round_totals(rounds[0][:1])
        result["not_traced"] = rounds[0][0].missing
        if args.spans:
            _write_spans(args.spans, rounds)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
