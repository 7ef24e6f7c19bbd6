"""The torusflow benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports the package from
`src/` and exits 2 without a result when that tree is missing.  It takes
the median of several fresh-interpreter imports of `torusflow.cli` as
`setup_s`, then starts one fresh worker process (worker.py) that runs
the workload with one BLAS thread.  With --trace 0 the last line holds
the end-to-end metrics, with --trace 1 the per-layer metrics of a traced
round.  The lines above it name each metric with its unit, the host,
and the record check (`check_fail_ratio`).  Exit status is 0 when every
check passed, 1 when a check failed, 2 when the run could not be made.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List

from workloads import SEEDED_SUITES, WORKLOADS, input_seeds

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

#: each run must end within this many seconds
RUN_LIMIT_S = 170.0

SETUP_SAMPLES = 7

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

PER_LAYER = (
    ("spectral.mul_free.calls", "count"),
    ("spectral.mul_free.self_s", "s"),
    ("spectral.mul_free.pairs", "count"),
    ("spectral.multiply.calls", "count"),
    ("spectral.multiply.pairs", "count"),
    ("spectral.values_on_grid.calls", "count"),
    ("spectral.values_on_grid.self_s", "s"),
    ("spectral.values_on_grid.points", "count"),
    ("spectral.sup_norm.calls", "count"),
    ("spectral.sup_norm.s", "s"),
    ("spectral.TrigPoly.new.calls", "count"),
    ("structure.psi_map.calls", "count"),
    ("structure.psi_map.s", "s"),
    ("structure.kernel_eval.s", "s"),
    ("structure.theta_apply.s", "s"),
    ("structure.sobolev_w2inf_norm.s", "s"),
    ("structure.nested_phi_growth.s", "s"),
    ("flow.ModeSpace.psi_matrix.calls", "count"),
    ("flow.ModeSpace.psi_matrix.self_s", "s"),
    ("flow.ModeSpace.psi_matrix.columns", "count"),
    ("flow.ModeSpace.mult_matrix.calls", "count"),
    ("flow.ModeSpace.mult_matrix.hit_ratio", "ratio"),
    ("flow.ModeSpace.gram_matrix.s", "s"),
    ("flow.expm.calls", "count"),
    ("flow.expm.s", "s"),
    ("flow.expm.order_max", "count"),
    ("flow.expm.n3_sum", "proxy-ops"),
    ("flow.texp_matrix_element.calls", "count"),
    ("flow.texp_matrix_element.s", "s"),
    ("flow.picard_terms.s", "s"),
    ("flow.flow_inner.calls", "count"),
    ("flow.flow_inner.s", "s"),
    ("flow.factorization_check.s", "s"),
    ("flow.positivity_probe.s", "s"),
    ("trace.heat_trace_direct.calls", "count"),
    ("trace.heat_trace_direct.s", "s"),
    ("trace.heat_trace_direct.points", "count"),
    ("trace.theta_reference.s", "s"),
    ("trace.z_for_tail.calls", "count"),
    ("trace.z_for_tail.s", "s"),
    ("trace.z_for_tail.z_max", "count"),
    ("trace.heat_trace_via_flow.s", "s"),
    ("trace.heat_trace_via_flow.modes", "count"),
    ("trace.weyl_fit.s", "s"),
    ("suites.run_identities.s", "s"),
    ("suites.run_growth.s", "s"),
    ("suites.run_flow.s", "s"),
    ("suites.run_trace.s", "s"),
    ("suites.run_action.s", "s"),
    ("suites.records", "count"),
    ("cli.run.self_s", "s"),
    ("report.emit.s", "s"),
    ("report.emit.bytes", "B"),
    ("trace_overhead_s", "s"),
)


def _env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _setup_times(env: Dict[str, str]) -> List[float]:
    """Seconds from starting an interpreter to `torusflow.cli` imported.

    The first import is untimed: it writes the bytecode caches that an
    installed package already has.
    """
    times = []
    for i in range(SETUP_SAMPLES + 1):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import torusflow.cli"],
                       env=env, cwd=ROOT, check=True, timeout=60)
        if i:
            times.append(time.perf_counter() - start)
    return times


def _source_id() -> Dict[str, str]:
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(SRC, "torusflow"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    commit = "not a git checkout"
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or commit
        except OSError:
            commit = "git not available"
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def _wall_s(passes: List[dict]) -> float:
    """Sum over input seeds of each seed's median pass time."""
    by_seed: Dict[int, List[float]] = {}
    for p in passes:
        by_seed.setdefault(p["seed"], []).append(p["wall_s"])
    return sum(statistics.median(v) for v in by_seed.values())


def _tail(walls: List[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(walls)
    if n < 20:
        return "no percentile above the median has ten samples beyond it"
    pct = 100 * (n - 10) // n
    return f"p{pct} {statistics.quantiles(walls, n=100)[pct - 1]:.3f} s"


def _layer_metrics(layers: Dict[str, float]) -> Dict[str, float]:
    calls = layers.get("flow.ModeSpace.mult_matrix.calls", 0)
    hits = layers.get("flow.ModeSpace.mult_matrix.hits", 0)
    derived = {"flow.ModeSpace.mult_matrix.hit_ratio": hits / calls if calls else 0.0}
    return {name: derived.get(name, layers.get(name, 0)) for name, _ in PER_LAYER}


def _print_trace_summary(worker: dict) -> None:
    if worker["not_traced"]:
        print("not defined at this commit, so not traced: "
              + ", ".join(worker["not_traced"]))
    for step, names in worker["per_step_self_s"].items():
        top = sorted(names.items(), key=lambda kv: -kv[1])[:5]
        print(f"self time in {step}: "
              + ", ".join(f"{n} {v:.3f} s" for n, v in top))
    counts = {k: v for k, v in worker["seed_pass_counts"].items()
              if not k.endswith((".s", ".self_s"))}
    print("work counters of the pass at the benchmark seed: "
          + json.dumps(dict(sorted(counts.items()))))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="torusflow benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    if not os.path.isfile(os.path.join(SRC, "torusflow", "cli.py")):
        print(f"error: no torusflow source tree at {SRC}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    env = _env()
    os.makedirs(OUT_DIR, exist_ok=True)
    tmp = os.path.join(OUT_DIR, f"tmp-{os.getpid()}")
    os.makedirs(tmp)
    result_path = os.path.join(tmp, "result.json")
    spans_path = os.path.join(
        OUT_DIR, f"spans-{args.workload}-seed{args.seed}.tsv.gz")
    try:
        setup = _setup_times(env)
        cmd = [sys.executable, os.path.join(ROOT, "perfbench", "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--tmp", tmp, "--result", result_path]
        if args.trace:
            cmd += ["--spans", spans_path]
        limit = RUN_LIMIT_S - (time.perf_counter() - started)
        proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=limit,
                              stdout=subprocess.DEVNULL)
        if proc.returncode != 0:
            print(f"error: worker exited with status {proc.returncode}",
                  file=sys.stderr)
            return 2
        with open(result_path, encoding="utf-8") as fh:
            worker = json.load(fh)
    except subprocess.TimeoutExpired as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except subprocess.CalledProcessError as exc:
        print(f"error: importing torusflow.cli failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    seeds = input_seeds(args.seed)
    steps = WORKLOADS[args.workload]
    walls = sorted(p["wall_s"] for p in worker["passes"] if not p["traced"])
    host = dict(worker["host"], **_source_id(), seed=args.seed,
                input_seeds=seeds, workload=args.workload, trace=args.trace)
    print(f"perfbench {args.workload}: steps "
          + ", ".join(f"{s} d={d}" + ("" if s in SEEDED_SUITES
                                      else " (ignores the seed)")
                      for s, d in steps)
          + f"; one pass per input seed {seeds}")
    print("host " + json.dumps(host))
    for problem in worker["problems"]:
        print(f"check failed: {problem}")
    ratio = worker["failed"] / worker["attempted"]
    print(f"check_fail_ratio {ratio:g} ratio ({worker['failed']} of "
          f"{worker['attempted']} records failed or lost)")

    if args.trace:
        _print_trace_summary(worker)
        units = dict(PER_LAYER)
        values = _layer_metrics(worker["layers"])
    else:
        units = dict(END_TO_END)
        values = {
            "wall_s": _wall_s(worker["passes"]),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": worker["peak_rss_mb"],
        }
        print(f"wall_s {values['wall_s']:.4f} s: sum over {len(seeds)} input "
              f"seeds of each seed's median pass time; {len(walls)} passes, "
              f"min {walls[0]:.3f} s, median {statistics.median(walls):.3f} s, "
              f"max {walls[-1]:.3f} s, {_tail(walls)}")
        print(f"setup_s {values['setup_s']:.4f} s: median of {len(setup)} "
              f"fresh interpreters, min {min(setup):.4f} s, "
              f"max {max(setup):.4f} s")
        print(f"peak_rss_mb {values['peak_rss_mb']:.1f} MB")
    for name, value in values.items():
        print(f"metric {name} {value!r} {units[name]}")

    correct = not worker["problems"] and worker["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
