"""Report rendering, configuration handling, and the CLI verbs."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from torusflow import ConfigInvalid, IoFailure
from torusflow.cli import (RunConfig, config_from_pairs, load_config_file,
                           main, run)
from torusflow.report import (Record, Report, emit, format_float, render_csv,
                              render_json)
from torusflow.suites import DEFAULT_TOLS, SUITE_ORDER


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
    assert cfg.tolerance("trace") == DEFAULT_TOLS["trace"]


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
    with pytest.raises(ConfigInvalid):
        config_from_pairs({"nope": "1"})
    with pytest.raises(ConfigInvalid):
        config_from_pairs({"dim": "two"})
    with pytest.raises(ConfigInvalid):
        config_from_pairs({"z": "wide"})
    with pytest.raises(ConfigInvalid):
        config_from_pairs({"theta_times": "0.1,fast"})
    with pytest.raises(ConfigInvalid):
        config_from_pairs({"tol.flow": "tight"})
    with pytest.raises(ConfigInvalid, match="workers"):
        config_from_pairs({"workers": "2"})


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


def test_main_listing_verbs(capsys):
    assert main(["list-suites"]) == 0
    out = capsys.readouterr().out
    for name in SUITE_ORDER:
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


def test_cli_import_loads_no_heavy_scipy_module():
    # each of these adds a large share of the CLI start-up time
    src = Path(__file__).resolve().parents[1] / "src"
    path = [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
                         if p]
    code = ("import sys, torusflow.cli; "
            "print([m for m in ('scipy.signal', 'scipy.linalg') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
                         check=True)
    assert out.stdout.strip() == "[]"
