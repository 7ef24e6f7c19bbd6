"""The benchmark's workloads and the records each step must produce.

A step is one `torusflow run --suite S --dim D --format csv` at the
default config plus a generated config file that sets `seed`.  A pass is
a workload's steps, in order, at one config seed.  A run makes one pass
per input seed, so every run covers `INPUT_SEEDS` inputs: the sup-norm
refinement of `growth` makes one pass's cost swing by a third from seed
to seed, and summing several inputs keeps that out of the run-to-run
spread.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

Step = Tuple[str, int]

WORKLOADS: Dict[str, Tuple[Step, ...]] = {
    # spectral and structure layers; no expm, so it bypasses flow changes
    "algebra-d2": (("identities", 2), ("growth", 2)),
    # flow layer both ways: N-mode generators and N^2 superoperators
    "flow-d2": (("trace", 2), ("flow", 2), ("flow", 1)),
    # the d=3 suites that finish at the default config: dense lattice
    # grids in the direct trace route and the flow at N = 125
    "dim3-light": (("flow", 3), ("action", 3)),
    # tiny d=1 workload for the self-test; not part of BENCHMARK.json
    "smoke-d1": (("identities", 1), ("growth", 1), ("flow", 1),
                 ("trace", 1), ("action", 1)),
}

#: config seeds per run: the benchmark seed, then offsets far past it
INPUT_SEEDS = 4
SEED_STRIDE = 1_000_000

#: `trace` and `action` ignore the config seed; the other suites draw
#: their inputs from it
SEEDED_SUITES = ("identities", "growth", "flow")


def input_seeds(seed: int) -> List[int]:
    return [seed + j * SEED_STRIDE for j in range(INPUT_SEEDS)]


_LAMBDAS = ("5", "5.94604", "7.07107", "8.40896", "10", "11.8921",
            "14.1421", "16.8179", "20")


def expected_names(suite: str, dim: int) -> List[str]:
    """Record names, in order, that the suite emits at the default config."""
    if suite == "identities":
        return [f"{check}[{i}]" for i in range(12)
                for check in ("cocycle", "theta_one", "delta_squared", "kernel")]
    if suite == "growth":
        return [f"{check}[{i}]" for i in range(12)
                for check in ("product_rule", "commutation", "lap_vs_hessian",
                              "sobolev_theta", "heat_contraction", "nested_phi")]
    if suite == "flow":
        names = [f"vacuum_identity[{i},t={t}]" for i in range(3)
                 for t in ("0.5", "1.0")]
        names += ["picard_tail[0]", "picard_tail[1]"]
        if dim > 2:
            return names
        if dim == 1:
            names.append("factorization")
        return names + ["positivity_min", "positivity_ratio"]
    if suite == "trace":
        return ([f"theta_point[t={t}]" for t in ("0.05", "0.1", "0.5", "1.0")]
                + [f"flow_point[t={t}]" for t in ("0.25", "1.0")])
    if suite == "action":
        return ([f"action_point[lambda={lam}]" for lam in _LAMBDAS]
                + ["slope", "prefactor"])
    raise ValueError(f"unknown suite {suite!r}")
