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
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import suites
from .errors import ConfigInvalid, TorusFlowError
from .report import Record, Report, emit

SUITE_CHOICES = tuple(suites.SUITES) + ("all",)


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
        return self.tols.get(suite, suites.SUITES[suite].tol)

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
            if name not in suites.SUITES:
                raise ConfigInvalid(f"tol: unknown suite {name!r}")
            if not (math.isfinite(tol) and tol > 0):
                raise ConfigInvalid(
                    f"tol: tolerance for {name} must be finite and > 0")
        for label, grid in (("theta_times", self.theta_times),
                            ("flow_times", self.flow_times),
                            ("lambdas", self.lambdas)):
            if not all(math.isfinite(v) and v > 0 for v in grid):
                raise ConfigInvalid(f"{label}: entries must be finite and positive")

    def echo(self) -> Dict[str, object]:
        """Every key's value except ``out``, which says where the report
        goes, not what produced it; grids as lists."""
        out: Dict[str, object] = {}
        for key, (name, _, _) in _KEYS.items():
            if key != "out":
                value = getattr(self, name)
                out[key] = list(value) if isinstance(value, tuple) else value
        out["tolerances"] = {s: self.tolerance(s) for s in suites.SUITES}
        return out


def _reals(text: str) -> Tuple[float, ...]:
    return tuple(float(v) for v in text.split(",") if v.strip())


#: config key -> (RunConfig field, parser, the form the parser expects);
#: ``tol.<suite>`` keys take a real each and fill ``RunConfig.tols``
_KEYS: Dict[str, Tuple[str, Callable[[str], object], str]] = {
    "dim": ("dim", int, "an integer"),
    "cap": ("cap", int, "an integer"),
    "z": ("z", float, "a real"),
    "seed": ("seed", int, "an integer"),
    "suite": ("suite", str, "a suite name"),
    "out": ("out", str, "a path"),
    "format": ("fmt", str, "csv or json"),
    "theta_times": ("theta_times", _reals, "comma-separated reals"),
    "flow_times": ("flow_times", _reals, "comma-separated reals"),
    "lambdas": ("lambdas", _reals, "comma-separated reals"),
}
_TOL = ("tols", float, "a real")

#: run flags that set a config key, as (argparse dest, config key)
_FLAG_KEYS = (("suite", "suite"), ("out", "out"), ("fmt", "format"),
              ("dim", "dim"), ("cap", "cap"))


def load_config_file(path: str) -> Dict[str, str]:
    """Flat key=value lines; blank lines and # comments ignored.  A key
    may appear once."""
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
        key, value = (part.strip() for part in line.split("=", 1))
        if key in out:
            raise ConfigInvalid(f"config: line {ln} repeats key {key!r}")
        out[key] = value
    return out


def config_from_pairs(pairs: Dict[str, str],
                      base: Optional[RunConfig] = None) -> RunConfig:
    cfg = base or RunConfig()
    tols = dict(cfg.tols)
    updates: Dict[str, object] = {"tols": tols}
    for key, text in pairs.items():
        is_tol = key.startswith("tol.")
        if not is_tol and key not in _KEYS:
            raise ConfigInvalid(f"config: unknown key {key!r}")
        name, parse, form = _TOL if is_tol else _KEYS[key]
        try:
            value = parse(text)
        except ValueError as exc:
            raise ConfigInvalid(f"{key}: expected {form}, got {text!r}") from exc
        if is_tol:
            tols[key[len("tol."):]] = value
        else:
            updates[name] = value
    return replace(cfg, **updates)


def _suite_records(name: str, config: RunConfig) -> List[Record]:
    try:
        return suites.SUITES[name].run(config, config.tolerance(name))
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
    names = list(suites.SUITES) if config.suite == "all" else [config.suite]
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
    exp.add_argument("suite", choices=tuple(suites.SUITES))
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        cfg = config_from_pairs(load_config_file(args.config), cfg)
    overrides = {key: str(getattr(args, dest)) for dest, key in _FLAG_KEYS
                 if getattr(args, dest) is not None}
    for pair in args.tol:
        if "=" not in pair:
            raise ConfigInvalid(f"tol: expected SUITE=VALUE, got {pair!r}")
        name, value = pair.split("=", 1)
        overrides[f"tol.{name.strip()}"] = value.strip()
    return config_from_pairs(overrides, cfg)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.verb == "list-suites":
        for name, suite in suites.SUITES.items():
            print(f"{name}: {suite.summary}")
        return 0
    if args.verb == "explain":
        print(f"suite {args.suite}:")
        for line in suites.SUITES[args.suite].checks:
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
