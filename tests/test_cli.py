"""Report rendering, configuration handling, and the CLI verbs."""

import json
import math
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

from torusflow import ConfigInvalid, IoFailure
from torusflow import suites
from torusflow.cli import (_KEYS, RunConfig, config_from_pairs,
                           load_config_file, main, run)
from torusflow.report import (Record, Report, emit, format_float, render_csv,
                              render_json)
from torusflow.suites import SUITES


# ----------------------------------------------------------------- report

def test_format_float_round_trips():
    for x in (1.0 / 3.0, math.pi, 1e-17, -2.5e300, 0.1 + 0.2, 6.0):
        assert float(format_float(x)) == x


def test_render_csv_empty_report():
    assert render_csv(Report()) == "suite,name,passed,residual,bound\n"


def test_render_csv_rows_and_columns():
    rep = Report([
        Record("trace", "theta_t_0.05", True, residual=1e-12, bound=1e-10,
               fields={"t": 0.05, "trace_flow": None}),
        Record("trace", "flow_t_1", False, residual=2.0, bound=1.0,
               fields={"t": 1.0, "trace_flow": 1.7726372048266523}),
    ])
    lines = render_csv(rep).splitlines()
    assert lines[0] == "suite,name,passed,residual,bound,t,trace_flow"
    assert lines[1].startswith("trace,theta_t_0.05,true,")
    assert lines[1].endswith(",0.050000000000000003,")  # None renders empty
    assert lines[2].split(",")[2] == "false"
    assert "1.7726372048266523" in lines[2]


def test_render_json_structure():
    rep = Report([Record("flow", "vacuum", True)], {"config": {"dim": 1}})
    payload = json.loads(render_json(rep))
    assert payload["metadata"]["config"]["dim"] == 1
    rec = payload["records"][0]
    assert rec["suite"] == "flow" and rec["passed"] is True
    assert rec["residual"] is None


def test_record_normalizes_numpy_scalars():
    # suites compare with numpy floats; np.bool_/np.float64 must not
    # reach json.dumps
    res = np.float64(1e-12)
    rec = Record("flow", "vacuum", res <= 1e-10, residual=res,
                 bound=np.float64(1e-10), fields={"t": np.float64(0.5),
                                                  "trace_flow": None})
    assert type(rec.passed) is bool
    assert type(rec.residual) is float and type(rec.bound) is float
    assert type(rec.fields["t"]) is float and rec.fields["trace_flow"] is None
    json.loads(render_json(Report([rec])))


def test_emit_unknown_format_and_bad_path(tmp_path):
    rep = Report([Record("flow", "vacuum", True)])
    with pytest.raises(IoFailure):
        emit(rep, str(tmp_path / "r.xml"), "xml")
    with pytest.raises(IoFailure):
        emit(rep, str(tmp_path / "missing" / "r.csv"), "csv")
    target = tmp_path / "r.csv"
    emit(rep, str(target), "csv")
    assert target.read_text().startswith("suite,name,passed")


# ------------------------------------------------------------------ config

def test_default_config_is_valid():
    RunConfig().validate()


def test_config_validation_failures():
    # each bad value is refused up front, naming its key, so the run
    # exits 2 instead of failing inside a suite
    nan, inf = math.nan, math.inf
    bad = [
        ("dim", RunConfig(dim=4)),
        ("cap", RunConfig(cap=-1, z=0.0)),
        ("z", RunConfig(z=-2.0)),
        ("z", RunConfig(z=nan)),
        ("z", RunConfig(z=inf)),
        ("cap", RunConfig(cap=4, z=6.0)),
        ("seed", RunConfig(seed=-1)),
        ("suite", RunConfig(suite="bogus")),
        ("format", RunConfig(fmt="xml")),
        ("tol", RunConfig(tols={"bogus": 1e-9})),
        ("tol", RunConfig(tols={"flow": 0.0})),
        ("tol", RunConfig(tols={"flow": inf})),
        ("theta_times", RunConfig(theta_times=(0.1, -0.5))),
        ("theta_times", RunConfig(theta_times=(0.1, inf))),
        ("flow_times", RunConfig(flow_times=(0.5, nan))),
        ("lambdas", RunConfig(lambdas=(0.0,))),
        ("lambdas", RunConfig(lambdas=(nan, 2.0))),
    ]
    for key, cfg in bad:
        with pytest.raises(ConfigInvalid, match=f"^{key}: "):
            cfg.validate()


def test_tolerance_lookup_and_override():
    cfg = RunConfig(tols={"flow": 1e-6})
    assert cfg.tolerance("flow") == 1e-6
    assert cfg.tolerance("trace") == SUITES["trace"].tol


def test_config_from_pairs_parsing():
    cfg = config_from_pairs({
        "dim": "2", "cap": "5", "z": "3.5", "seed": "11",
        "suite": "trace", "format": "json",
        "theta_times": "0.1, 0.5", "lambdas": "5,10,20",
        "tol.flow": "1e-8",
    })
    assert cfg.dim == 2 and cfg.cap == 5 and cfg.z == 3.5
    assert cfg.seed == 11
    assert cfg.suite == "trace" and cfg.fmt == "json"
    assert cfg.theta_times == (0.1, 0.5)
    assert cfg.lambdas == (5.0, 10.0, 20.0)
    assert cfg.tols == {"flow": 1e-8}


def test_config_from_pairs_rejects_garbage():
    with pytest.raises(ConfigInvalid, match="^config: unknown key 'nope'"):
        config_from_pairs({"nope": "1"})
    # a value the key's parser refuses is named by its key
    for key, value in (("dim", "two"), ("z", "wide"),
                       ("theta_times", "0.1,fast"), ("tol.flow", "tight")):
        with pytest.raises(ConfigInvalid, match=f"^{key}: expected "):
            config_from_pairs({key: value})
    with pytest.raises(ConfigInvalid, match="workers"):
        config_from_pairs({"workers": "2"})


def test_config_file_sets_every_key(tmp_path):
    out = tmp_path / "r.json"
    pairs = {
        "dim": "1", "cap": "4", "z": "2", "seed": "5", "suite": "action",
        "out": str(out), "format": "json", "theta_times": "0.1, 0.5",
        "flow_times": "0.25,0.75", "lambdas": "5,10,20", "tol.trace": "1e-8",
    }
    assert set(pairs) == set(_KEYS) | {"tol.trace"}
    path = tmp_path / "all.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in pairs.items()))
    cfg = config_from_pairs(load_config_file(str(path)))
    assert cfg == RunConfig(dim=1, cap=4, z=2.0, seed=5, suite="action",
                            out=str(out), fmt="json", theta_times=(0.1, 0.5),
                            flow_times=(0.25, 0.75),
                            lambdas=(5.0, 10.0, 20.0), tols={"trace": 1e-8})
    rep = run(cfg)
    # the echo lists the grids, leaves the output path out and names
    # every suite's tolerance
    assert rep.metadata["config"] == {
        "dim": 1, "cap": 4, "z": 2.0, "seed": 5, "suite": "action",
        "format": "json", "theta_times": [0.1, 0.5],
        "flow_times": [0.25, 0.75], "lambdas": [5.0, 10.0, 20.0],
        "tolerances": {"identities": 1e-12, "growth": 1e-10, "flow": 1e-10,
                       "trace": 1e-8, "action": 1e-2},
    }
    payload = json.loads(out.read_text())
    assert payload["metadata"]["config"] == rep.metadata["config"]


def test_load_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment line\n"
        "dim = 1\n"
        "\n"
        "cap = 6   # trailing comment\n"
        "z = 2\n")
    pairs = load_config_file(str(path))
    assert pairs == {"dim": "1", "cap": "6", "z": "2"}
    cfg = config_from_pairs(pairs)
    assert (cfg.dim, cfg.cap, cfg.z) == (1, 6, 2.0)


def test_load_config_file_errors(tmp_path):
    with pytest.raises(ConfigInvalid):
        load_config_file(str(tmp_path / "absent.cfg"))
    bad = tmp_path / "bad.cfg"
    bad.write_text("this line has no equals\n")
    with pytest.raises(ConfigInvalid):
        load_config_file(str(bad))
    twice = tmp_path / "twice.cfg"
    twice.write_text("dim = 1\ncap = 6\n# dim = 3\ndim=2\n")
    with pytest.raises(ConfigInvalid, match="config: line 4 repeats key 'dim'"):
        load_config_file(str(twice))


def test_cli_overrides_win_over_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("dim = 1\ncap = 6\nz = 2\nsuite = identities\n")
    base = config_from_pairs(load_config_file(str(path)))
    final = config_from_pairs({"cap": "7"}, base)
    assert final.cap == 7
    assert final.z == 2.0 and final.suite == "identities"


# --------------------------------------------------------------- run/main

def _fast_config(**kw):
    base = dict(dim=1, cap=4, z=2.0, suite="identities")
    base.update(kw)
    return RunConfig(**base)


def test_run_produces_passing_report():
    rep = run(_fast_config())
    assert rep.records and rep.all_passed
    assert all(r.suite == "identities" for r in rep.records)
    assert rep.metadata["config"]["cap"] == 4


def test_run_is_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run(_fast_config(out=str(a)))
    run(_fast_config(out=str(b)))
    assert a.read_bytes() == b.read_bytes()
    ja = tmp_path / "a.json"
    jb = tmp_path / "b.json"
    run(_fast_config(out=str(ja), fmt="json"))
    run(_fast_config(out=str(jb), fmt="json"))
    pa = json.loads(ja.read_text())
    pb = json.loads(jb.read_text())
    del pa["metadata"]["wall_time_s"], pb["metadata"]["wall_time_s"]
    assert pa == pb
    # the flow suite builds every operator as one dense array from index
    # arithmetic, the growth suite its products from FFTs; a rerun
    # must reproduce each report byte for byte too
    for suite in ("flow", "growth"):
        fa = tmp_path / f"{suite}_a.csv"
        fb = tmp_path / f"{suite}_b.csv"
        run(_fast_config(out=str(fa), dim=2, suite=suite))
        run(_fast_config(out=str(fb), dim=2, suite=suite))
        assert fa.read_bytes() == fb.read_bytes()


def test_run_dispatches_to_the_module_runners(monkeypatch):
    # each table entry looks its run_* function up when called, so a
    # rebound module attribute (a profiler's span wrapper) is what runs
    seen = []
    for name in SUITES:
        original = getattr(suites, f"run_{name}")

        def recording(*args, _name=name, _original=original, **kwargs):
            seen.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(suites, f"run_{name}", recording)
    rep = run(_fast_config(suite="all"))
    assert seen == list(SUITES)
    assert list(dict.fromkeys(r.suite for r in rep.records)) == list(SUITES)


def test_run_rejects_invalid_config():
    with pytest.raises(ConfigInvalid):
        run(RunConfig(dim=9))


def test_main_exit_codes(tmp_path):
    cfg = tmp_path / "fast.cfg"
    cfg.write_text("dim = 1\ncap = 4\nz = 2\nsuite = identities\n")
    out = tmp_path / "idem.json"
    code = main(["run", "--config", str(cfg),
                 "--out", str(out), "--format", "json"])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["records"]
    # absurdly tight tolerance forces honest failures
    assert main(["run", "--config", str(cfg),
                 "--tol", "identities=1e-30"]) == 1
    # config errors exit 2 without running anything
    assert main(["run", "--dim", "4"]) == 2
    assert main(["run", "--cap", "4"]) == 2  # cap below default z


def test_main_refuses_the_removed_depth_knob(tmp_path, capsys):
    # the flow pairing is full-series only, so there is no Picard order
    # to set: the flag is a usage error and the key an unknown key
    with pytest.raises(SystemExit) as exc:
        main(["run", "--suite", "flow", "--depth", "3"])
    assert exc.value.code == 2
    assert "--depth" in capsys.readouterr().err
    cfg = tmp_path / "depth.cfg"
    cfg.write_text("depth = 3\n")
    assert main(["run", "--suite", "flow", "--config", str(cfg)]) == 2
    assert "config: unknown key 'depth'" in capsys.readouterr().err


def test_main_refuses_a_cap_past_the_dense_budget(capsys):
    # identities and growth draw their polynomials at the run's cap: at
    # d=3 cap 1000 the draw is refused before anything is allocated
    for suite in ("identities", "growth"):
        start = time.perf_counter()
        assert main(["run", "--suite", suite, "--dim", "3",
                     "--cap", "1000"]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert f"suite {suite} (dim=3, cap=1000" in err
        assert "dense entries at cap 1000, dim 3" in err


def test_main_listing_verbs(capsys):
    assert main(["list-suites"]) == 0
    out = capsys.readouterr().out
    for name in SUITES:
        assert name in out
    assert main(["explain", "flow"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("suite flow:")
    with pytest.raises(SystemExit):
        main(["explain", "bogus"])


def test_main_reports_bad_tol_syntax(capsys):
    assert main(["run", "--tol", "flowtight"]) == 2
    err = capsys.readouterr().err
    assert "SUITE=VALUE" in err


def test_cli_import_loads_no_heavy_scipy_module(tmp_path):
    # the package needs numpy only: neither the import nor a run that
    # builds and exponentiates mode-space operators loads any scipy module
    src = Path(__file__).resolve().parents[1] / "src"
    path = [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
                         if p]
    cfg = tmp_path / "fast.cfg"
    cfg.write_text("dim = 1\ncap = 4\nz = 2\n")
    code = textwrap.dedent("""
        import json, sys
        import torusflow.cli as cli
        def scipy_modules():
            return [m for m in sys.modules if m.split(".")[0] == "scipy"]
        cfg, out = sys.argv[1:]
        seen = [scipy_modules()]
        seen.append(cli.main(["run", "--config", cfg, "--out", out,
                              "--suite", "identities"]))
        seen.append(scipy_modules())
        for suite in ("flow", "trace"):
            seen.append(cli.main(["run", "--config", cfg, "--out", out,
                                  "--suite", suite]))
        seen.append(scipy_modules())
        print(json.dumps(seen))
    """)
    out = subprocess.run([sys.executable, "-c", code, str(cfg), str(tmp_path / "r.csv")],
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
                         check=True)
    assert json.loads(out.stdout.splitlines()[-1]) == [[], 0, [], 0, 0, []]


def test_every_suite_runs_with_scipy_unimportable(tmp_path):
    # a subprocess that cannot import scipy writes, at d = 1, 2, 3, the
    # bytes a run in this process writes
    src = Path(__file__).resolve().parents[1] / "src"
    path = [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
                         if p]
    code = textwrap.dedent("""
        import sys
        sys.modules["scipy"] = None  # any import of scipy now raises
        import torusflow.cli as cli
        for d in ("1", "2", "3"):
            out = sys.argv[1] + d + ".csv"
            assert cli.main(["run", "--suite", "all", "--dim", d, "--out", out]) == 0
    """)
    subprocess.run([sys.executable, "-c", code, str(tmp_path / "blocked")],
                   capture_output=True, text=True,
                   env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
                   check=True)
    for d in ("1", "2", "3"):
        normal = tmp_path / f"normal{d}.csv"
        assert main(["run", "--suite", "all", "--dim", d, "--out", str(normal)]) == 0
        assert (tmp_path / f"blocked{d}.csv").read_bytes() == normal.read_bytes()
