"""The torusflow command line front end.

Verbs:

* ``run``         execute verification suites and write a report
* ``list-suites`` name the available suites
* ``explain``     describe what each assertion in a suite checks

Configuration is a flat key=value text file plus command line overrides;
no environment variables are consulted, so an archived config file
reproduces its run exactly.  Exit status is 0 when every executed
assertion passed, 1 when any failed, 2 when the run could not execute
(bad config, I/O failure, or a truncation error surfaced by a suite).
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from . import suites
from .errors import ConfigInvalid, TorusFlowError
from .report import Record, Report, emit

SUITE_CHOICES = suites.SUITE_ORDER + ("all",)

_SUITE_DESCRIPTIONS = {
    "identities": "exact structure-map identities (cocycle, unit, kernel)",
    "growth": "derivative, Sobolev, and iterated-map growth bounds",
    "flow": "semigroup, Picard, factorization, and positivity checks",
    "trace": "heat trace vs theta resummation and flow recovery",
    "action": "spectral action scaling fit against the Weyl term",
}


@dataclass(frozen=True)
class RunConfig:
    dim: int = 1
    cap: int = 8
    z: float = 6.0
    seed: int = 0
    suite: str = "all"
    out: Optional[str] = None
    fmt: str = "csv"
    theta_times: Tuple[float, ...] = (0.05, 0.1, 0.5, 1.0)
    flow_times: Tuple[float, ...] = (0.25, 1.0)
    lambdas: Tuple[float, ...] = ()
    tols: Dict[str, float] = field(default_factory=dict)

    def tolerance(self, suite: str) -> float:
        return self.tols.get(suite, suites.DEFAULT_TOLS[suite])

    def validate(self) -> None:
        if self.dim not in (1, 2, 3):
            raise ConfigInvalid(f"dim: must be 1, 2, or 3, got {self.dim}")
        if self.cap < 0:
            raise ConfigInvalid(f"cap: must be nonnegative, got {self.cap}")
        if not (math.isfinite(self.z) and self.z >= 0):
            raise ConfigInvalid(f"z: must be finite and nonnegative, got {self.z}")
        if self.cap < self.z:
            raise ConfigInvalid(
                f"cap: mode cap {self.cap} below eigenvalue cutoff z={self.z}")
        if self.seed < 0:
            raise ConfigInvalid(f"seed: must be nonnegative, got {self.seed}")
        if self.suite not in SUITE_CHOICES:
            raise ConfigInvalid(f"suite: unknown suite {self.suite!r}")
        if self.fmt not in ("csv", "json"):
            raise ConfigInvalid(f"format: must be csv or json, got {self.fmt!r}")
        for name, tol in self.tols.items():
            if name not in suites.SUITE_ORDER:
                raise ConfigInvalid(f"tol: unknown suite {name!r}")
            if not tol > 0:
                raise ConfigInvalid(f"tol: tolerance for {name} must be > 0")
        for label, grid in (("theta_times", self.theta_times),
                            ("flow_times", self.flow_times),
                            ("lambdas", self.lambdas)):
            if not all(math.isfinite(v) and v > 0 for v in grid):
                raise ConfigInvalid(f"{label}: entries must be finite and positive")

    def echo(self) -> Dict[str, object]:
        return {
            "dim": self.dim,
            "cap": self.cap,
            "z": self.z,
            "seed": self.seed,
            "suite": self.suite,
            "format": self.fmt,
            "theta_times": list(self.theta_times),
            "flow_times": list(self.flow_times),
            "lambdas": list(self.lambdas),
            "tolerances": {s: self.tolerance(s) for s in suites.SUITE_ORDER},
        }


def _parse_floats(text: str, key: str) -> Tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError as exc:
        raise ConfigInvalid(f"{key}: expected comma-separated reals") from exc


def _parse_int(text: str, key: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ConfigInvalid(f"{key}: expected an integer, got {text!r}") from exc


def load_config_file(path: str) -> Dict[str, str]:
    """Flat key=value lines; blank lines and # comments ignored."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigInvalid(f"config: cannot read {path}: {exc}") from exc
    out: Dict[str, str] = {}
    for ln, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigInvalid(f"config: line {ln} is not key=value: {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def config_from_pairs(pairs: Dict[str, str],
                      base: Optional[RunConfig] = None) -> RunConfig:
    cfg = base or RunConfig()
    tols = dict(cfg.tols)
    updates: Dict[str, object] = {}
    for key, value in pairs.items():
        if key == "dim":
            updates["dim"] = _parse_int(value, key)
        elif key == "cap":
            updates["cap"] = _parse_int(value, key)
        elif key == "z":
            try:
                updates["z"] = float(value)
            except ValueError as exc:
                raise ConfigInvalid(f"z: expected a real, got {value!r}") from exc
        elif key == "seed":
            updates["seed"] = _parse_int(value, key)
        elif key == "suite":
            updates["suite"] = value
        elif key == "out":
            updates["out"] = value
        elif key == "format":
            updates["fmt"] = value
        elif key == "theta_times":
            updates["theta_times"] = _parse_floats(value, key)
        elif key == "flow_times":
            updates["flow_times"] = _parse_floats(value, key)
        elif key == "lambdas":
            updates["lambdas"] = _parse_floats(value, key)
        elif key.startswith("tol."):
            suite = key[len("tol."):]
            try:
                tols[suite] = float(value)
            except ValueError as exc:
                raise ConfigInvalid(f"{key}: expected a real") from exc
        else:
            raise ConfigInvalid(f"config: unknown key {key!r}")
    updates["tols"] = tols
    return replace(cfg, **updates)


def _suite_records(name: str, config: RunConfig) -> List[Record]:
    tol = config.tolerance(name)
    try:
        if name == "identities":
            return suites.run_identities(config.dim, config.cap, tol,
                                         config.seed)
        if name == "growth":
            return suites.run_growth(config.dim, config.cap, tol, config.seed)
        if name == "flow":
            return suites.run_flow(config.dim, config.cap, tol, config.seed)
        if name == "trace":
            return suites.run_trace(config.dim, config.cap, config.z, tol,
                                    config.theta_times, config.flow_times)
        if name == "action":
            return suites.run_action(config.dim, tol, config.lambdas)
        raise ConfigInvalid(f"suite: unknown suite {name!r}")
    except TorusFlowError as exc:
        raise type(exc)(
            f"suite {name} (dim={config.dim}, cap={config.cap}, "
            f"z={config.z}): {exc}") from exc


def run(config: RunConfig) -> Report:
    """Execute the selected suites and write the report if an output
    path is configured.  Suites run one after another in fixed suite
    order, so reports are deterministic."""
    config.validate()
    started = time.monotonic()
    names = list(suites.SUITE_ORDER) if config.suite == "all" else [config.suite]
    records = [r for n in names for r in _suite_records(n, config)]
    report = Report(records, {
        "config": config.echo(),
        "wall_time_s": time.monotonic() - started,
    })
    if config.out:
        emit(report, config.out, config.fmt)
    return report


def _print_summary(report: Report) -> None:
    by_suite: Dict[str, List[Record]] = {}
    for r in report.records:
        by_suite.setdefault(r.suite, []).append(r)
    for name, recs in by_suite.items():
        ok = sum(1 for r in recs if r.passed)
        print(f"{name}: {ok}/{len(recs)} passed")
        for r in recs:
            if not r.passed:
                print(f"  FAIL {r.name}: residual={r.residual!r} "
                      f"bound={r.bound!r}")
    total_fail = len(report.failed())
    wall = report.metadata.get("wall_time_s", 0.0)
    verdict = "all passed" if total_fail == 0 else f"{total_fail} failed"
    print(f"{len(report.records)} records, {verdict} ({wall:.2f}s)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torusflow",
        description="verification suites for heat traces and the spectral "
                    "action realized through a quantum stochastic flow")
    sub = parser.add_subparsers(dest="verb", required=True)

    runp = sub.add_parser("run", help="execute suites and emit a report")
    runp.add_argument("--config", help="flat key=value config file")
    runp.add_argument("--suite", choices=SUITE_CHOICES)
    runp.add_argument("--out", help="report output path")
    runp.add_argument("--format", choices=("csv", "json"), dest="fmt")
    runp.add_argument("--dim", type=int)
    runp.add_argument("--cap", type=int)
    runp.add_argument("--tol", action="append", default=[],
                      metavar="SUITE=VALUE",
                      help="override one suite tolerance")

    sub.add_parser("list-suites", help="name the available suites")

    exp = sub.add_parser("explain",
                         help="describe what each assertion in a suite checks")
    exp.add_argument("suite", choices=suites.SUITE_ORDER)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        cfg = config_from_pairs(load_config_file(args.config), cfg)
    overrides: Dict[str, str] = {}
    if args.suite is not None:
        overrides["suite"] = args.suite
    if args.out is not None:
        overrides["out"] = args.out
    if args.fmt is not None:
        overrides["format"] = args.fmt
    if args.dim is not None:
        overrides["dim"] = str(args.dim)
    if args.cap is not None:
        overrides["cap"] = str(args.cap)
    for pair in args.tol:
        if "=" not in pair:
            raise ConfigInvalid(f"tol: expected SUITE=VALUE, got {pair!r}")
        name, value = pair.split("=", 1)
        overrides[f"tol.{name.strip()}"] = value.strip()
    return config_from_pairs(overrides, cfg)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.verb == "list-suites":
        for name in suites.SUITE_ORDER:
            print(f"{name}: {_SUITE_DESCRIPTIONS[name]}")
        return 0
    if args.verb == "explain":
        print(f"suite {args.suite}:")
        for line in suites.EXPLANATIONS[args.suite]:
            print(f"  - {line}")
        return 0
    try:
        config = _config_from_args(args)
        report = run(config)
    except TorusFlowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _print_summary(report)
    return 0 if report.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
