"""Heat traces, theta references, Weyl asymptotics."""

import math
import time
import tracemalloc

import numpy as np
import pytest

from torusflow import CapExceeded, GeometryMismatch, cli, spectral
from torusflow.trace import (WeylFit, heat_trace_direct, heat_trace_via_flow,
                             shell_counts, spectral_action, spinor_rank,
                             theta_reference, weyl_fit, z_for_tail)

# frozen sums, computed once from the defining series
TRACE_T1_CIRCLE = 1.7726372048266523      # sum over Z of e^{-n^2}
TRACE_T1_TORUS2 = 3.1422426599356457      # the square of the above
THETA_005_CIRCLE = 7.926654595212022      # sqrt(pi / 0.05)
THETA_01_CIRCLE = 5.604991216397929
THETA_05_CIRCLE = 2.5066282880429052
THETA_01_TORUS2 = 31.41592653589793       # pi / 0.1


# ------------------------------------------------------------------ table

def test_shell_counts_slice_facts():
    # 13 lattice points with |k| <= 6 on the circle and |k| <= 2 on T^2
    assert shell_counts(1, 36).sum() == 13
    assert shell_counts(2, 4).sum() == 13
    assert shell_counts(1, 0).tolist() == [1]
    # |k| = 5 on T^2: (+-5, 0), (0, +-5) and the eight points like (3, 4)
    assert shell_counts(2, 25)[25] == 12
    assert shell_counts(3, 5).dtype == np.int64


def test_shell_counts_refuse_int64_overflow():
    # r_60(25) is about 3.2e24: the counts would wrap
    with pytest.raises(CapExceeded, match="overflow int64"):
        shell_counts(60, 25)
    assert shell_counts(12, 16)[16] > 0


def test_shell_counts_match_jacobi_four_squares():
    r4 = shell_counts(4, 900)
    assert r4[0] == 1
    for n in range(1, 901):
        assert r4[n] == 8 * sum(m for m in range(1, n + 1)
                                if n % m == 0 and m % 4 != 0), n


def test_shell_counts_match_brute_force():
    for dim, box in ((1, 30), (2, 20), (3, 12), (4, 6)):
        sq = sum(a * a for a in np.ogrid[(slice(-box, box + 1),) * dim])
        # the box holds every point with |k|^2 <= box^2
        want = np.bincount(sq.ravel())[:box * box + 1]
        assert shell_counts(dim, box * box).tolist() == want.tolist()
        # a table that ends between two squares
        n = box * box - 3
        assert shell_counts(dim, n).tolist() == want[:n + 1].tolist()


def test_cutoff_must_be_nonnegative():
    for dim in (1, 2, 3):
        with pytest.raises(GeometryMismatch, match="cutoff must be nonnegative"):
            heat_trace_direct(1.0, -1.0, dim)
        with pytest.raises(GeometryMismatch, match="cutoff must be nonnegative"):
            heat_trace_via_flow(1.0, -1.0, dim)
    with pytest.raises(GeometryMismatch):
        heat_trace_direct(1.0, 1.0, 0)
    with pytest.raises(GeometryMismatch):
        heat_trace_via_flow(1.0, 1.0, 0)
    with pytest.raises(GeometryMismatch):
        shell_counts(0, 4)
    with pytest.raises(GeometryMismatch):
        shell_counts(1, -1)


def test_cutoff_boundary_is_inclusive():
    # |k| = z exactly is kept: the shell |k| = 5 on T^2 adds 12 e^{-25}
    gap = heat_trace_direct(1.0, 5.0, 2) - heat_trace_direct(1.0, 5.0 - 1e-9, 2)
    assert gap == pytest.approx(12 * math.exp(-25.0), rel=1e-4)
    assert abs(heat_trace_via_flow(0.04, 5.0, 2)
               - heat_trace_direct(0.04, 5.0, 2)) <= 1e-9


# ------------------------------------------------------------------ traces

def test_direct_trace_frozen_values():
    assert heat_trace_direct(1.0, 6.0, 1) == pytest.approx(
        TRACE_T1_CIRCLE, abs=1e-14)
    assert heat_trace_direct(1.0, 6.0, 2) == pytest.approx(
        TRACE_T1_TORUS2, abs=1e-13)


def test_direct_trace_needs_positive_time():
    with pytest.raises(GeometryMismatch):
        heat_trace_direct(0.0, 4.0, 1)
    with pytest.raises(GeometryMismatch):
        heat_trace_direct(-1.0, 4.0, 1)


def test_theta_reference_frozen_values():
    assert theta_reference(0.05, 1) == pytest.approx(THETA_005_CIRCLE, abs=1e-12)
    assert theta_reference(0.1, 1) == pytest.approx(THETA_01_CIRCLE, abs=1e-12)
    assert theta_reference(0.5, 1) == pytest.approx(THETA_05_CIRCLE, abs=1e-12)
    assert theta_reference(0.1, 2) == pytest.approx(THETA_01_TORUS2, abs=1e-11)


def test_direct_matches_theta_identity():
    for dim in (1, 2):
        for t in (0.05, 0.1, 0.5, 1.0):
            z = z_for_tail(t, dim)
            assert abs(heat_trace_direct(t, z, dim)
                       - theta_reference(t, dim)) <= 1e-10


def test_theta_reference_at_large_time():
    # t = 1e4 sums over |k| <= 285: a table, not a 571^3 box
    started = time.monotonic()
    assert theta_reference(1e4, 3) == pytest.approx(1.0, abs=1e-12)
    assert time.monotonic() - started < 1.0
    # t = 1e8 would need |k| <= 28471: refused before allocating
    started = time.monotonic()
    with pytest.raises(CapExceeded, match=r"theta reference at t=1e\+08, dim 3"):
        theta_reference(1e8, 3)
    assert time.monotonic() - started < 1.0
    # the cutoff starts next to its root, so a huge t reaches the refusal
    # without stepping through millions of integers first
    started = time.monotonic()
    with pytest.raises(CapExceeded, match=r"theta reference at t=1e\+12, dim 1"):
        theta_reference(1e12, 1)
    with pytest.raises(CapExceeded):
        theta_reference(1e300, 1)
    assert time.monotonic() - started < 0.1
    for t in (math.inf, math.nan):
        with pytest.raises(GeometryMismatch, match="finite t > 0"):
            theta_reference(t, 1)


def test_z_for_tail_frozen_table():
    assert [z_for_tail(t, 1) for t in (0.05, 0.1, 0.5, 1.0)] == [24, 17, 8, 6]
    assert [z_for_tail(t, 2) for t in (0.05, 0.1, 0.5, 1.0)] == [26, 19, 8, 6]


def test_z_for_tail_frozen_action_cutoffs():
    # the cutoffs of the default action scales and of the d=3 trace points,
    # frozen from a linear search z = 1, 2, ... over the same tail bound
    lams = np.geomspace(5.0, 20.0, 9)
    assert [z_for_tail(lam ** -2, 1, 1e-13) for lam in lams] == [
        28, 33, 40, 47, 56, 67, 80, 95, 113]
    assert [z_for_tail(lam ** -2, 2, 1e-13) for lam in lams] == [
        30, 36, 43, 51, 61, 73, 87, 103, 123]
    assert [z_for_tail(lam ** -2, 3, 1e-13) for lam in lams] == [
        32, 38, 46, 55, 65, 78, 93, 111, 133]
    assert [z_for_tail(t, 3) for t in (0.05, 0.1, 0.5, 1.0)] == [28, 20, 9, 6]
    assert z_for_tail(300.0 ** -2, 3, 1e-13) == 2154


def test_direct_trace_refuses_a_lattice_past_its_budget(tmp_path, capsys):
    # z = 2154 at d=3 would be a table of 3e10 additions: refused before
    # allocating
    with pytest.raises(CapExceeded, match=r"t=1.11111e-05, z=2154, dim 3"):
        heat_trace_direct(300.0 ** -2, 2154.0, 3)
    cfg = tmp_path / "big.cfg"
    cfg.write_text("lambdas = 5,1000\n")
    started = time.monotonic()
    code = cli.main(["run", "--suite", "action", "--dim", "3",
                     "--config", str(cfg), "--out", str(tmp_path / "a.csv")])
    err = capsys.readouterr().err
    assert code == 2
    assert "suite action" in err and "entry additions, over the budget" in err
    assert time.monotonic() - started < 5.0


def test_flow_trace_refuses_a_mode_grid_past_the_budget(monkeypatch, tmp_path,
                                                       capsys):
    # at a 1024-entry budget the d=2 grid at z = 20 (3362 entries) is
    # refused before it is built, and the refusal names z
    monkeypatch.setattr(spectral, "_DENSE_BUDGET", 1 << 10)
    with pytest.raises(CapExceeded, match=r"flow trace at t=0.5, z=20, dim 2: "
                                          r"mode grid needs 3362 dense entries"):
        heat_trace_via_flow(0.5, 20.0, 2)
    cfg = tmp_path / "z.cfg"
    cfg.write_text("z = 20\n")
    code = cli.main(["run", "--suite", "trace", "--dim", "2", "--cap", "20",
                     "--config", str(cfg), "--out", str(tmp_path / "t.csv")])
    assert code == 2
    assert "flow trace at t=" in capsys.readouterr().err


def test_z_for_tail_guards():
    with pytest.raises(GeometryMismatch):
        z_for_tail(0.0, 1)
    with pytest.raises(GeometryMismatch):
        z_for_tail(1.0, 1, tol=0.0)


def test_flow_trace_matches_direct():
    for dim in (1, 2):
        for t in (0.25, 1.0):
            z = 6.0 if dim == 1 else 3.0
            got = heat_trace_via_flow(t, z, dim)
            want = heat_trace_direct(t, z, dim)
            assert abs(got - want) <= 1e-9


def test_flow_trace_dim3_at_default_cap(tmp_path, capsys):
    for t in (0.25, 1.0):
        got = heat_trace_via_flow(t, 6.0, 3)
        assert abs(got - heat_trace_direct(t, 6.0, 3)) <= 1e-9
    out = tmp_path / "trace.csv"
    code = cli.main(["run", "--suite", "trace", "--dim", "3",
                     "--format", "csv", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 6
    assert all(row.split(",")[2] == "true" for row in rows)


def test_flow_trace_allocates_for_the_cutoff_not_the_cap(tmp_path, capsys):
    # the flow route builds its modes at floor(z): a cap of 1000 allocates
    # no (2001)^3 mode box and changes no byte of the report
    heat_trace_via_flow(0.5, 2.0, 3)  # keeps first-use imports out of the peak
    reports = []
    for cap in ("8", "1000"):
        out = tmp_path / f"trace{cap}.csv"
        start = time.perf_counter()
        tracemalloc.start()
        try:
            code = cli.main(["run", "--suite", "trace", "--dim", "3", "--cap", cap,
                             "--format", "csv", "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 5.0
        assert code == 0
        assert peak < 2 ** 20
        reports.append(out.read_bytes())
    capsys.readouterr()
    assert reports[1] == reports[0]


def test_flow_trace_needs_positive_time():
    with pytest.raises(GeometryMismatch):
        heat_trace_via_flow(0.0, 4.0, 1)


# ------------------------------------------------------------------ action

def test_spinor_rank_values():
    assert [spinor_rank(d) for d in (1, 2, 3, 4)] == [1, 2, 2, 4]


def test_spectral_action_decouples_at_small_scale():
    # Lambda -> 0 freezes every nonzero mode; only k = 0 survives
    for dim in (1, 2):
        val = spectral_action(0.05, 6.0, dim)
        assert val == pytest.approx(spinor_rank(dim), abs=1e-12)


def test_spectral_action_guard():
    with pytest.raises(GeometryMismatch):
        spectral_action(0.0, 4.0, 1)


def test_weyl_fit_recovers_volume_term():
    import numpy as np
    lams = np.geomspace(5.0, 20.0, 9)
    for dim in (1, 2):
        fit = weyl_fit(lams, dim)
        assert fit.slope == pytest.approx(float(dim), abs=1e-10)
        want = WeylFit.expected_prefactor(dim)
        assert fit.prefactor == pytest.approx(want, rel=1e-10)
        assert len(fit.rows) == 9


def test_weyl_fit_builds_one_table_per_fit(monkeypatch):
    from torusflow import trace
    calls = []

    def counted(dim, n):
        calls.append((dim, n))
        return shell_counts(dim, n)

    monkeypatch.setattr(trace, "shell_counts", counted)
    lams = np.geomspace(5.0, 20.0, 9)
    for dim in (1, 2, 3):
        for _ in range(2):  # a second fit builds its own table: no memo
            calls.clear()
            fit = weyl_fit(lams, dim)
            assert len(calls) == 1
        for lam, action in fit.rows:
            z = z_for_tail(lam ** -2, dim, 1e-13)
            assert action == spectral_action(lam, z, dim)


def test_weyl_fit_dim3_memory():
    # the d=3 cutoffs reach z = 133: a 17690-entry table, not a 267^3 box
    tracemalloc.start()
    try:
        weyl_fit(np.geomspace(5.0, 20.0, 9), 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def test_weyl_expected_prefactors():
    assert WeylFit.expected_prefactor(1) == pytest.approx(math.sqrt(math.pi))
    assert WeylFit.expected_prefactor(2) == pytest.approx(2.0 * math.pi)


def test_weyl_fit_needs_two_scales():
    for lams in ([10.0], [5.0, 5.0]):
        with pytest.raises(GeometryMismatch):
            weyl_fit(lams, 1)
