"""Suite runners: record shapes, pass status, and error context."""

import json

import pytest

from torusflow import CapExceeded
from torusflow.cli import RunConfig, run
from torusflow.report import render_csv, render_json
from torusflow.spectral import TrigPoly
from torusflow.suites import (SUITES, run_action, run_flow, run_growth,
                              run_identities)


def test_every_suite_is_described():
    for suite in SUITES.values():
        assert suite.tol > 0
        assert suite.summary
        assert suite.checks and all(suite.checks)


def test_identities_records():
    recs = run_identities(1, 4, SUITES["identities"].tol, seed=0)
    assert len(recs) == 48  # 12 samples x 4 assertions
    assert all(r.passed for r in recs)
    kinds = {r.name.split("[")[0] for r in recs}
    assert kinds == {"cocycle", "theta_one", "delta_squared", "kernel"}


def test_identities_records_dim3_default_cap():
    recs = run_identities(3, 8, SUITES["identities"].tol, seed=0)
    assert len(recs) == 48
    assert all(r.passed for r in recs)


def test_growth_records():
    recs = run_growth(1, 4, SUITES["growth"].tol, seed=0)
    assert len(recs) == 72  # 12 samples x 6 assertions
    assert all(r.passed for r in recs)


def test_growth_records_dim3_default_cap():
    recs = run_growth(3, 8, SUITES["growth"].tol, seed=0)
    assert len(recs) == 72
    assert all(r.passed for r in recs)


@pytest.mark.parametrize("dim", [1, 2])
def test_lap_vs_hessian_fails_with_a_halved_laplacian(monkeypatch, dim):
    laplacian = TrigPoly.laplacian
    monkeypatch.setattr(TrigPoly, "laplacian",
                        lambda self: 0.5 * laplacian(self))
    recs = run_growth(dim, 4, SUITES["growth"].tol, seed=0)
    lap = [r for r in recs if r.name.startswith("lap_vs_hessian")]
    assert len(lap) == 12
    assert not any(r.passed for r in lap)


def test_flow_records():
    recs = run_flow(1, 8, SUITES["flow"].tol, seed=0)
    names = [r.name for r in recs]
    assert sum(n.startswith("vacuum_identity") for n in names) == 6
    assert sum(n.startswith("picard_tail") for n in names) == 2
    assert "factorization" in names
    assert "positivity_min" in names and "positivity_ratio" in names
    assert all(r.passed for r in recs)
    # the computed bounds are certificates, not placeholders
    fact = next(r for r in recs if r.name == "factorization")
    assert 0.0 <= fact.residual <= fact.bound < 1.0


@pytest.mark.parametrize("seed", range(4))
def test_factorization_record_certifies(seed):
    # the bound, four times the cap sensitivity, must hold and stay far
    # below the value it certifies
    recs = run_flow(1, 8, SUITES["flow"].tol, seed=seed)
    fact = next(r for r in recs if r.name == "factorization")
    assert fact.residual <= fact.bound
    assert fact.bound <= 1e-4 * max(1.0, abs(fact.fields["rhs"]))


def test_trace_records_pin_column_layout():
    recs = SUITES["trace"].run(RunConfig(dim=1, z=6.0), SUITES["trace"].tol)
    assert len(recs) == 6  # four theta points, two flow points
    assert all(r.passed for r in recs)
    first = recs[0]
    assert list(first.fields) == ["t", "trace_direct", "trace_flow",
                                  "theta_ref", "abs_err"]
    assert first.fields["trace_flow"] is None  # theta rows carry no flow value
    flow_rows = [r for r in recs if r.name.startswith("flow_point")]
    assert all(r.fields["trace_flow"] is not None for r in flow_rows)


def test_action_records():
    recs = run_action(1, SUITES["action"].tol)
    assert len(recs) == 11  # nine scales plus slope and prefactor
    assert all(r.passed for r in recs)
    slope = next(r for r in recs if r.name == "slope")
    assert slope.residual <= 1e-10  # far inside the 1e-2 gate


def test_full_run_record_count():
    rep = run(RunConfig(dim=1, cap=4, z=2.0))
    assert len(rep.records) == 148
    assert rep.all_passed
    suites_seen = [r.suite for r in rep.records]
    # suites run one after another in fixed suite order
    assert suites_seen == sorted(suites_seen, key=list(SUITES).index)
    # every record the suites can produce must survive both emitters
    json.loads(render_json(rep))
    assert render_csv(rep).count("\n") == 149


def test_suite_errors_carry_context():
    # z = 40000 passes config validation but the direct trace's table
    # budget refuses it before allocating
    with pytest.raises(CapExceeded) as exc:
        run(RunConfig(dim=1, cap=40000, z=40000.0, suite="trace"))
    msg = str(exc.value)
    assert msg.startswith("suite trace (dim=1")
    assert "z=40000" in msg
