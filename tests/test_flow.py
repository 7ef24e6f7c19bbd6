"""Time-ordered evolution, Picard expansion, and the Fock engine."""

import math
import time
import tracemalloc

import mpmath
import numpy as np
import pytest

from torusflow import (BasisMismatch, CapExceeded, GeometryMismatch,
                       NotPositive, flow, spectral)
from torusflow.flow import (FlowProblem, ModeSpace, _expm_action,
                            _taylor_steps, factorization_check, flow_inner,
                            picard_terms, positivity_probe,
                            texp_matrix_element, vacuum_expectation)
from torusflow.fock import SimpleNoisePath, TimeMesh, noise_inner
from torusflow.sampling import noise_path, one_form, poly, rng_for
from torusflow.spectral import (TWO_PI, OneForm, TrigPoly,
                                exterior_derivative, mode_grid, mul_free)
from torusflow.structure import psi_map

E_HALF_PI = 1.9054722647301798    # e^{-1/2} pi
E_TWO_2PI = 0.8503366631752727    # e^{-2} 2 pi


def cos1(cap=4):
    return TrigPoly.cosine((1,), 1, cap)


def dform(poly_):
    return exterior_derivative(poly_)


def zero_path(dim=1, t=1.0):
    return SimpleNoisePath.zero(dim, horizon=max(t, 1.0))


# ------------------------------------------------------------- mode space
# The loops below are the column-by-column reference builds that the
# closed-form dense operators replace.

def _modes(space):
    return [tuple(k) for k in mode_grid(space.dim, space.cap).tolist()]


def _psi_columns(space, xi, eta):
    m = np.zeros((space.size, space.size), dtype=complex)
    index = {k: i for i, k in enumerate(_modes(space))}
    for col, k in enumerate(_modes(space)):
        out = psi_map(TrigPoly.mode(k, space.dim, space.cap), xi, eta)
        for mu, c in out.items():
            if mu in index:  # modes past the cap are dropped
                m[index[mu], col] += c
    return m


def _mult_loop(space, h):
    m = np.zeros((space.size, space.size), dtype=complex)
    index = {k: i for i, k in enumerate(_modes(space))}
    for col, k in enumerate(_modes(space)):
        for mu, c in h.items():
            row = index.get(tuple(a + b for a, b in zip(k, mu)))
            if row is not None:
                m[row, col] += c
    return m


def _gram_loop(space, v1, v2):
    g = np.zeros((space.size, space.size), dtype=complex)
    qs = [mul_free(TrigPoly.mode(l, space.dim, space.cap), v2)
          for l in _modes(space)]
    for i, k in enumerate(_modes(space)):
        pk = mul_free(TrigPoly.mode(k, space.dim, space.cap), v1)
        for j, ql in enumerate(qs):
            g[i, j] = pk.l2_inner(ql)
    return g


def _rel_gap(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


@pytest.mark.parametrize("dim,cap", [(1, 4), (2, 3), (3, 2)])
def test_mode_space_operators_match_column_builds(dim, cap):
    rng = rng_for(100 + dim)
    space = ModeSpace(dim, cap)
    xi = one_form(rng, dim, cap, 1, scale=0.4)
    eta = one_form(rng, dim, cap, 1, scale=0.4)
    zero = OneForm.zero(dim, 0)
    # xi at twice the cap reaches past the space's cap; xi and eta at
    # different caps
    wide = one_form(rng, dim, 2 * cap, cap + 1, scale=0.4)
    narrow = one_form(rng, dim, cap + 1, 1, scale=0.4)
    for x, e in ((xi, eta), (xi, zero), (wide, eta), (xi, narrow)):
        gen = space.psi_matrix(x, e)
        want = _psi_columns(space, x, e)
        assert _rel_gap(gen, want) <= 1e-13
    # noise reaching past the cap: escaping modes are dropped
    h = poly(rng, dim, 2 * cap, cap + 1)
    got = space._assemble(h.coeffs[None], [np.ones(space.size)], "multiplier")
    assert np.array_equal(got, _mult_loop(space, h))
    nil = TrigPoly.zero(dim, 2 * cap)
    empty = np.zeros((space.size, space.size), dtype=complex)
    assert np.array_equal(
        space._assemble(nil.coeffs[None], [np.ones(space.size)], "multiplier"), empty)
    v1 = poly(rng, dim, cap, 1)
    v2 = poly(rng, dim, cap, 2)
    assert _rel_gap(space.gram_matrix(v1, v2),
                    _gram_loop(space, v1, v2)) <= 1e-13
    assert np.array_equal(space.gram_matrix(nil, v2), empty)


def test_zero_noise_generator_is_the_diagonal_laplacian():
    space = ModeSpace(2, 3)
    zero = OneForm.zero(2, 0)
    want = np.array([-0.5 * (a * a + b * b) for a, b in _modes(space)],
                    dtype=complex)
    assert np.array_equal(space.psi_matrix(zero, zero), np.diag(want))
    # the diagonal path reads the same vector off the mode grid
    diag, spread = space.diagonal(zero, zero)
    assert spread == 0
    assert np.array_equal(diag, want)


def test_dense_budget_refuses_before_allocating():
    x = TrigPoly.one(3, 8)
    zero = SimpleNoisePath.zero(3, horizon=1.0)
    p = FlowProblem(x, zero, zero, x, x, 1.0)
    start = time.perf_counter()
    with pytest.raises(CapExceeded, match=r"cap 8, dim 3"):
        picard_terms(p, 8)
    with pytest.raises(CapExceeded, match=r"dense entries"):
        ModeSpace(3, 8).gram_matrix(x, x)
    # the terms at N = 441 fit the budget, but the 51 blocks a read of
    # ``blocks`` would form, with the Taylor loop's terms, do not
    y = TrigPoly.one(2, 10)
    zero = SimpleNoisePath.zero(2, horizon=1.0)
    series = picard_terms(FlowProblem(y, zero, zero, y, y, 1.0), 50)
    with pytest.raises(CapExceeded, match=r"cap 10, dim 2"):
        series.blocks
    assert time.perf_counter() - start < 1.0


def test_mode_grid_is_charged_before_it_is_built(monkeypatch):
    # at a 1024-entry budget the d N = 3362 grid entries of d=2, cap 20
    # are refused before the grid exists, as is a problem's space at
    # that cap when a route first reads it
    monkeypatch.setattr(spectral, "_DENSE_BUDGET", 1 << 10)
    built = []
    monkeypatch.setattr(flow, "mode_grid",
                        lambda dim, cap: built.append(cap) or mode_grid(dim, cap))
    with pytest.raises(CapExceeded, match=r"mode grid needs 3362 dense "
                                          r"entries at cap 20, dim 2"):
        ModeSpace(2, 20)
    x = TrigPoly.one(2, 20)
    zero = SimpleNoisePath.zero(2, horizon=1.0)
    with pytest.raises(CapExceeded, match=r"mode grid"):
        picard_terms(FlowProblem(x, zero, zero, x, x, 1.0), 2)
    assert ModeSpace(2, 7).size == 225  # 450 grid entries fit
    assert built == [7]


# ------------------------------------------------------------------- texp

def test_texp_zero_noise_cos():
    p = FlowProblem(cos1(), zero_path(), zero_path(), cos1(),
                    TrigPoly.one(1, 4), 1.0)
    val = texp_matrix_element(p)
    assert val.real == pytest.approx(E_HALF_PI, abs=1e-12)
    assert abs(val.imag) < 1e-14


def test_texp_unital():
    rng = rng_for(1)
    t = 0.75
    f = noise_path(rng, 1, 3, 2, horizon=t, max_mode=1, scale=0.4)
    g = noise_path(rng, 1, 3, 2, horizon=t, max_mode=1, scale=0.4)
    u = poly(rng, 1, 3, 1)
    v = poly(rng, 1, 3, 1)
    p = FlowProblem(TrigPoly.one(1, 3), f, g, u, v, t)
    want = np.exp(noise_inner(g, f)) * u.l2_inner(v)
    assert texp_matrix_element(p) == pytest.approx(want, rel=1e-12)


def test_texp_zero_horizon():
    u = cos1()
    v = TrigPoly.one(1, 4)
    x = TrigPoly.mode((2,), 1, 4)
    p = FlowProblem(x, zero_path(), zero_path(), u, v, 0.0)
    assert texp_matrix_element(p) == pytest.approx(u.l2_inner(mul_free(x, v)))


def test_texp_ordering_sensitivity():
    rng = rng_for(12)
    w1 = dform(cos1(3))
    w2 = dform(TrigPoly.sine((1,), 1, 3))
    mesh = TimeMesh([0.0, 0.5, 1.0])
    u = poly(rng, 1, 3, 1)
    v = poly(rng, 1, 3, 1)
    x = poly(rng, 1, 3, 1)
    fwd = SimpleNoisePath(mesh, (w1, w2))
    rev = SimpleNoisePath(mesh, (w2, w1))
    a = texp_matrix_element(FlowProblem(x, fwd, zero_path(), u, v, 1.0))
    b = texp_matrix_element(FlowProblem(x, rev, zero_path(), u, v, 1.0))
    assert abs(a - b) > 1e-6


def test_flow_problem_validation():
    with pytest.raises(GeometryMismatch):
        FlowProblem(cos1(), zero_path(), zero_path(), cos1(),
                    TrigPoly.one(1, 4), -0.5)
    f = SimpleNoisePath.indicator(dform(cos1()), 0.0, 2.0)
    with pytest.raises(GeometryMismatch):
        FlowProblem(cos1(), f, zero_path(), cos1(), TrigPoly.one(1, 4), 1.0)


# ----------------------------------------------------------------- vacuum

def test_vacuum_expectation_examples():
    one = TrigPoly.one(1, 4)
    u = poly(rng_for(0), 1, 4, 2)
    v = poly(rng_for(1), 1, 4, 2)
    assert vacuum_expectation(one, u, v, 2.0) == pytest.approx(u.l2_inner(v))
    x = poly(rng_for(2), 1, 4, 2)
    got = vacuum_expectation(x, u, v, 0.0)
    assert got == pytest.approx(u.l2_inner(mul_free(x, v)))
    e2 = TrigPoly.mode((2,), 1, 4)
    val = vacuum_expectation(e2, e2, one, 1.0)
    assert val.real == pytest.approx(E_TWO_2PI, abs=1e-12)


def test_vacuum_identity_matches_heat_semigroup():
    rng = rng_for(17)
    one_t = (0.1, 0.5, 1.0, 2.0)
    for _ in range(8):
        x = poly(rng, 1, 6, 6)
        u = poly(rng, 1, 6, 6)
        v = poly(rng, 1, 6, 6)
        for t in one_t:
            got = vacuum_expectation(x, u, v, t)
            want = u.l2_inner(mul_free(x.heat(t, halved=True), v))
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


# ----------------------------------------------------------------- picard

def test_picard_order_zero():
    rng = rng_for(4)
    t = 0.8
    f = noise_path(rng, 1, 3, 1, horizon=t, max_mode=1, scale=0.4)
    g = noise_path(rng, 1, 3, 1, horizon=t, max_mode=1, scale=0.4)
    x = poly(rng, 1, 3, 1)
    u = poly(rng, 1, 3, 1)
    v = poly(rng, 1, 3, 1)
    series = picard_terms(FlowProblem(x, f, g, u, v, t), 0)
    want = np.exp(noise_inner(g, f)) * u.l2_inner(mul_free(x, v))
    assert series.terms[0] == pytest.approx(want, rel=1e-12)


def test_picard_order_one_single_interval():
    t = 0.6
    wf = dform(0.5 * cos1(4))
    wg = dform(0.3 * TrigPoly.sine((1,), 1, 4))
    f = SimpleNoisePath.indicator(wf, 0.0, t)
    g = SimpleNoisePath.indicator(wg, 0.0, t)
    x, u, v = cos1(4), cos1(4), TrigPoly.one(1, 4)
    series = picard_terms(FlowProblem(x, f, g, u, v, t), 1)
    coh = np.exp(noise_inner(g, f))
    psi_x = psi_map(x, wf, wg)
    want = coh * t * u.l2_inner(mul_free(psi_x, v))
    assert series.terms[1] == pytest.approx(want, rel=1e-11)


def test_picard_partial_sums_approach_texp():
    rng = rng_for(23)
    for _ in range(4):
        t = 0.8
        f = noise_path(rng, 1, 3, 2, horizon=t, max_mode=1, scale=0.35)
        g = noise_path(rng, 1, 3, 2, horizon=t, max_mode=1, scale=0.35)
        x = poly(rng, 1, 3, 1)
        u = poly(rng, 1, 3, 1)
        v = poly(rng, 1, 3, 1)
        p = FlowProblem(x, f, g, u, v, t)
        series = picard_terms(p, 8)
        target = texp_matrix_element(p)
        assert abs(series.partial_sum() - target) <= series.tail_bound(8)


def test_coherent_bra_with_its_own_breakpoints():
    # f breaks at 0.5 and g at 0.25: both routes run on the merged mesh
    rng = rng_for(3)
    x, u, v = (poly(rng, 1, 3, 1) for _ in range(3))
    f = SimpleNoisePath(TimeMesh([0.0, 0.5, 1.0]),
                        tuple(one_form(rng, 1, 3, 1, scale=0.4) for _ in range(2)))
    g = SimpleNoisePath(TimeMesh([0.0, 0.25, 1.0]),
                        tuple(one_form(rng, 1, 3, 1, scale=0.4) for _ in range(2)))
    p = FlowProblem(x, f, g, u, v, 1.0)
    want = texp_matrix_element(p)
    assert want == pytest.approx(-1.026 + 1.681j, abs=1e-3)
    series = picard_terms(p, 12)
    assert abs(series.partial_sum() - want) <= series.tail_bound(12)


def test_picard_block_norms_track_factorial_envelope():
    # order-n block of prod exp(dt Psi) is bounded by S^n / n!
    rng = rng_for(29)
    t = 0.8
    f = noise_path(rng, 1, 3, 2, horizon=t, max_mode=1, scale=0.35)
    g = noise_path(rng, 1, 3, 2, horizon=t, max_mode=1, scale=0.35)
    p = FlowProblem(poly(rng, 1, 3, 1), f, g, poly(rng, 1, 3, 1),
                    poly(rng, 1, 3, 1), t)
    series = picard_terms(p, 8)
    assert len(series.block_norms) == 9
    assert series.block_norms[0] == 1.0
    for n, bn in enumerate(series.block_norms):
        assert bn <= series.s_const ** n / math.factorial(n) * (1 + 1e-12)
    # each term is the pairing read off the order-n block; the terms come
    # from the propagated vector, so they agree to round-off
    space = ModeSpace(1, 3)
    coh = np.exp(noise_inner(g, f))
    for n, block in enumerate(series.blocks):
        y = space.from_vec(block @ space.to_vec(p.x))
        assert series.terms[n] == pytest.approx(
            coh * p.u.l2_inner(mul_free(y, p.v)), rel=1e-12)


def test_picard_terms_propagate_vectors_not_blocks():
    # d=2 cap 10, N = 441: the nine order blocks would take 9 N^2 complex
    # entries; the terms propagate N-vectors, so the peak is set by the
    # generators the space keeps, one per cell
    rng = rng_for(7)
    f = noise_path(rng, 2, 10, 2, horizon=0.8, max_mode=1)
    g = noise_path(rng, 2, 10, 2, horizon=0.8, max_mode=1)
    p = FlowProblem(poly(rng, 2, 10, 1), f, g, poly(rng, 2, 10, 1),
                    poly(rng, 2, 10, 1), 0.8)
    blocks_bytes = 9 * 441 ** 2 * 16
    tracemalloc.start()
    try:
        series = picard_terms(p, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < blocks_bytes / 4
    assert abs(series.partial_sum() - texp_matrix_element(p)) \
        <= series.tail_bound(8)
    # the blocks are still there when read
    assert len(series.blocks) == 9
    assert series.block_norms[0] == 1.0


def _count_builds(monkeypatch):
    """Record the noise pair of every generator ``psi_matrix`` builds."""
    built = []
    build = ModeSpace.psi_matrix

    def counted(space, xi, eta):
        built.append((xi, eta))
        return build(space, xi, eta)

    monkeypatch.setattr(ModeSpace, "psi_matrix", counted)
    return built


def test_picard_terms_build_each_generator_once(monkeypatch):
    # s_const's norms come from the generators the recursion builds
    rng = rng_for(31)
    t = 0.8
    f = noise_path(rng, 1, 3, 3, horizon=t, max_mode=1, scale=0.35)
    g = noise_path(rng, 1, 3, 2, horizon=t, max_mode=1, scale=0.35)
    p = FlowProblem(poly(rng, 1, 3, 1), f, g, poly(rng, 1, 3, 1),
                    poly(rng, 1, 3, 1), t)
    built = _count_builds(monkeypatch)
    series = picard_terms(p, 6)
    cells = p.cells()
    assert len(built) == len(cells) > 1
    space = ModeSpace(1, 3)
    s_const = 0.0
    for dt, fc, gc in cells:
        s_const += dt * float(np.linalg.norm(space.psi_matrix(fc, gc), 2))
    assert series.s_const == s_const


def test_routes_on_one_problem_build_each_generator_once(monkeypatch):
    built = _count_builds(monkeypatch)
    # the probe's norm and matrix element share each sample's Psi(f, f)
    positivity_probe(cos1(2) + 2.0, 0.25, samples=4)
    assert len(built) == 4
    # a pairing of a problem with itself reads Psi(f, f) once per cell
    # and each cell's diagonal once
    rng = rng_for(33)
    t = 0.8
    f = noise_path(rng, 1, 3, 3, horizon=t, max_mode=1, scale=0.35)
    v = poly(rng, 1, 3, 1)
    p = FlowProblem(poly(rng, 1, 3, 1), f, f, v, v, t)
    built.clear()
    flow_inner(p, p)
    assert built == [(fc, fc) for _, fc, _ in p.cells()]
    assert len(p.space._cells) == len(built) == 3
    # the matrix element of the same problem reads every generator the
    # pairing kept and builds none
    built.clear()
    texp_matrix_element(p)
    assert built == []


def _two_cell_problems(dim, cap, scale=0.35):
    """p = (x, f, g, u, v) and q = (x, g, f, u, v) on two noisy cells."""
    rng = rng_for(37)
    t = 0.5
    f = noise_path(rng, dim, cap, 2, horizon=t, max_mode=1, scale=scale)
    g = noise_path(rng, dim, cap, 2, horizon=t, max_mode=1, scale=scale)
    x, u, v = (poly(rng, dim, cap, 1) for _ in range(3))
    return FlowProblem(x, f, g, u, v, t), FlowProblem(x, g, f, u, v, t)


def test_series_matrix_element_and_blocks_build_each_generator_once(monkeypatch):
    p, _ = _two_cell_problems(1, 3)
    built = _count_builds(monkeypatch)
    series = picard_terms(p, 6)
    texp_matrix_element(p)
    assert len(series.blocks) == 7
    assert built == [(fc, gc) for _, fc, gc in p.cells()]


def test_pairing_then_matrix_element_build_each_distinct_pair_once(monkeypatch):
    p, q = _two_cell_problems(1, 3)
    built = _count_builds(monkeypatch)
    flow_inner(p, q)
    texp_matrix_element(p)
    pairs = [pair for _, fc, gc in p.cells() for pair in ((fc, gc), (gc, fc))]
    assert len(set(pairs)) == len(pairs) == 4
    assert built == pairs


def test_kept_generators_are_read_only_and_unchanged():
    # every generator the space keeps, checked after each route against
    # its bits when first kept
    p, q = _two_cell_problems(1, 3)
    series = picard_terms(p, 6)
    bits = {}
    for run in (lambda: texp_matrix_element(p), lambda: flow_inner(p, q),
                lambda: picard_terms(p, 6), lambda: series.blocks):
        run()
        for pair, cell in p.space._cells.items():
            assert not cell.psi.flags.writeable
            with pytest.raises(ValueError):
                cell.psi[0, 0] = 0
            want = bits.setdefault(pair, cell.psi.view(np.uint64).copy())
            assert np.array_equal(cell.psi.view(np.uint64), want)
    assert len(bits) == 4


#: the N x N working arrays each route charges, beside the generators kept
_WORKING = {"coherent propagation": 2, "picard generator SVD": 1,
            "picard graded blocks": 10, "flow pairing kernel": 12}


def _route(what, p, q):
    """The call of the route that charges ``what``, on p's space; the
    blocks are read off a series made here, before the call."""
    if what == "picard graded blocks":
        series = picard_terms(p, 4)
        return lambda: series.blocks
    return {"coherent propagation": lambda: texp_matrix_element(p),
            "picard generator SVD": lambda: picard_terms(p, 4),
            "flow pairing kernel": lambda: flow_inner(p, q)}[what]


@pytest.mark.parametrize("what", sorted(_WORKING))
@pytest.mark.parametrize("after_pairing", [False, True])
def test_dense_charge_counts_every_kept_generator(monkeypatch, what, after_pairing):
    # d=2 cap 2, N = 25: a call's working arrays plus every generator the
    # space keeps after it, those a pairing kept first included
    p, q = _two_cell_problems(2, 2, scale=0.1)
    n2 = p.space.size ** 2
    cells = {(fc, gc) for _, fc, gc in p.cells()}
    both = cells | {(gc, fc) for fc, gc in cells}
    if after_pairing:
        flow_inner(p, q)
    call = _route(what, p, q)
    reads = both if what == "flow pairing kernel" else cells
    kept = both if after_pairing else set()
    need = (_WORKING[what] + len(kept | reads)) * n2
    built = _count_builds(monkeypatch)
    monkeypatch.setattr(spectral, "_DENSE_BUDGET", need - n2)
    with pytest.raises(CapExceeded, match=rf"{what} needs {need} dense "
                                          rf"entries at cap 2, dim 2"):
        call()
    assert built == []
    monkeypatch.setattr(spectral, "_DENSE_BUDGET", need + n2)
    call()


@pytest.mark.parametrize("what", sorted(_WORKING))
def test_route_peaks_stay_within_their_dense_charge(monkeypatch, what):
    # d=2 cap 6, N = 169: the traced peak of each route against the
    # largest dense charge it takes, at 16 bytes per complex entry
    p, q = _two_cell_problems(2, 6, scale=0.1)
    call = _route(what, p, q)
    charged = []
    check = flow.check_dense
    monkeypatch.setattr(flow, "check_dense",
                        lambda entries, *args: charged.append(entries) or check(entries, *args))
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * max(charged)


def test_a_tiny_coupling_beside_a_unit_centre_is_noise(monkeypatch):
    # |1| + |1e-300| - |1| rounds to 0; the off-centre sum does not, so
    # the cell is propagated as noisy, not read off the diagonal
    xi = OneForm([TrigPoly(1, 2, {(0,): 1.0, (1,): 1e-300})])
    zero = OneForm.zero(1, 0)
    _, spread = ModeSpace(1, 3).diagonal(xi, zero)
    assert spread > 0
    calls = []
    propagate = flow._expm_action

    def counted(*args):
        calls.append(1)
        return propagate(*args)

    monkeypatch.setattr(flow, "_expm_action", counted)
    path = SimpleNoisePath.indicator(xi, 0.0, 0.5)
    x = cos1(3)
    one = TrigPoly.one(1, 3)
    got = texp_matrix_element(FlowProblem(x, path, zero_path(1, 0.5), x, one, 0.5))
    assert calls == [1]
    # the coupling is far below round-off: the drift is the shift i k
    want = sum(0.25 * TWO_PI * np.exp(-0.25 + 0.5j * k) for k in (1, -1))
    assert got == pytest.approx(want, rel=1e-13)


def test_picard_zero_horizon_collapses_to_order_zero():
    x, u, v = cos1(), cos1(), TrigPoly.one(1, 4)
    zero = SimpleNoisePath(TimeMesh([0.0]), (), dim=1)
    series = picard_terms(FlowProblem(x, zero, zero, u, v, 0.0), 4)
    assert series.terms[0] == pytest.approx(u.l2_inner(mul_free(x, v)))
    assert all(term == 0 for term in series.terms[1:])
    assert series.s_const == 0.0


def test_picard_rejects_negative_order():
    p = FlowProblem(cos1(), zero_path(), zero_path(), cos1(),
                    TrigPoly.one(1, 4), 1.0)
    with pytest.raises(GeometryMismatch):
        picard_terms(p, -1)


def test_picard_tail_bound_past_float_range_certifies_nothing():
    # s_const = 800: e^800 overflows a float, so the bound is inf; a
    # zero prefactor still bounds the tail by 0
    x = TrigPoly.one(1, 40)
    z = SimpleNoisePath.zero(1, 1.0)
    series = picard_terms(FlowProblem(x, z, z, x, x, 1.0), 8)
    assert series.s_const == 800.0
    assert series.tail_bound(8) == math.inf
    assert series.tail_bound(200) == math.inf  # (N + 1)! past float range
    series.prefactor = 0.0
    assert series.tail_bound(8) == 0.0
    # a finite bound keeps its value
    series.s_const, series.prefactor = 2.0, 3.0
    assert series.tail_bound(4) == 3.0 * 2.0 ** 5 * math.exp(2.0) / 120


# ------------------------------------------------------------- pairings

def test_engine_unital_argument():
    # J_t(1 (x) E(f)) v = v E(f): the coherent matrix element and the
    # kernel pairing both see the unit
    rng = rng_for(6)
    t = 1.0
    f = noise_path(rng, 1, 3, 2, horizon=t, max_mode=1, scale=0.4)
    one = TrigPoly.one(1, 3)
    v = poly(rng, 1, 3, 1)
    u = poly(rng, 1, 3, 1)
    g = noise_path(rng, 1, 3, 2, horizon=t, max_mode=1, scale=0.4)
    got = texp_matrix_element(FlowProblem(one, f, g, u, v, t))
    want = np.exp(noise_inner(g, f)) * u.l2_inner(v)
    assert got == pytest.approx(want, rel=1e-11)
    p = FlowProblem(one, f, zero_path(1, t), v, v, t)
    want_sq = np.exp(noise_inner(f, f).real) * v.l2_norm() ** 2
    assert flow_inner(p, p).real == pytest.approx(want_sq, rel=1e-11)


def test_engine_zero_noise_reproduces_vacuum():
    # with no noise the kernel generator is diagonal, -|k - l|^2 / 2, so
    # the pairing is the heat semigroup on x1* x2 with nothing compressed
    rng = rng_for(8)
    t = 0.7
    for dim, cap in ((1, 3), (2, 2)):
        x1, x2, v1, v2 = (poly(rng, dim, cap, 1) for _ in range(4))
        zero = zero_path(dim, t)
        got = flow_inner(FlowProblem(x1, zero, zero, v1, v1, t),
                         FlowProblem(x2, zero, zero, v2, v2, t))
        prod = mul_free(x1.conjugate(), x2)
        want = vacuum_expectation(prod, v1, v2, t)
        assert got == pytest.approx(want, rel=1e-12)


# (dim, n_max) -> <u E(g), J(x1 (x) E(f1)) v1> to order n_max, None the
# full series, pinned from an independent order-by-order Taylor loop
_PINNED_ENGINE = dict([
    ((1, 0), 1.7997318609300346-2.7519163549396759j),
    ((1, 1), 0.86737205461695477-2.5155608063838066j),
    ((1, 2), 0.97631733763152895-2.5081967675786894j),
    ((1, 3), 0.9827690965243695-2.4983045714736258j),
    ((1, None), 0.97848156636163175-2.5040402265446193j),
    ((2, 0), -120.2102065428072+236.48596608694822j),
    ((2, 1), 31.356404490298658+175.37937596046032j),
    ((2, 2), -2.8678036007125058+151.93736407747349j),
    ((2, 3), -17.335677649111346+176.7652443580817j),
    ((2, None), -7.4309458053707971+168.17432225266498j),
])

# dim -> the full-series flow_inner of the same two problems
_PINNED_PAIRING = {
    1: -4.2910533049406512-1.5321753049893172j,
    2: 13.732209059608909-24.634958672246455j,
}


def _engine_problems(dim, cap):
    """Two seeded two-cell flow problems, a bra function and a bra path."""
    rng = rng_for(40 + dim)
    t = 0.6
    f1 = noise_path(rng, dim, cap, 2, horizon=t, max_mode=1, scale=0.3)
    f2 = noise_path(rng, dim, cap, 2, horizon=t, max_mode=1, scale=0.3)
    g = noise_path(rng, dim, cap, 2, horizon=t, max_mode=1, scale=0.3)
    zero = SimpleNoisePath.zero(dim, t)
    x1, x2, v1, v2, u = (poly(rng, dim, cap, 1) for _ in range(5))
    return (FlowProblem(x1, f1, zero, v1, v1, t),
            FlowProblem(x2, f2, zero, v2, v2, t), u, g)


@pytest.mark.parametrize("dim,cap", [(1, 3), (2, 2)])
def test_engine_pairings_pinned_at_every_order(dim, cap):
    pa, pb, u, g = _engine_problems(dim, cap)
    coherent = FlowProblem(pa.x, pa.f, g, u, pa.v, pa.horizon)
    series = picard_terms(coherent, 3)
    for n_max in (0, 1, 2, 3, None):
        got = (texp_matrix_element(coherent) if n_max is None
               else series.partial_sum(n_max))
        assert got == pytest.approx(_PINNED_ENGINE[dim, n_max], rel=1e-12)
    assert flow_inner(pa, pb) == pytest.approx(_PINNED_PAIRING[dim], rel=1e-12)


@pytest.mark.parametrize("dim,cap", [(1, 3), (2, 2)])
def test_flow_problem_takes_u_and_v_at_any_cap(dim, cap):
    # u and v enter only through uncapped products and pairings, so
    # moving them off x's cap changes no value
    pa, pb, u, g = _engine_problems(dim, cap)
    aligned = FlowProblem(pa.x, pa.f, g, u, pa.v, pa.horizon)
    want = (texp_matrix_element(aligned), picard_terms(aligned, 3).terms,
            flow_inner(pa, pb))
    for other in (1, cap + 3):
        def moved(p, bra):
            return FlowProblem(p.x, p.f, p.g, bra.with_cap(other),
                               p.v.with_cap(other), p.horizon)
        qa, qb = moved(pa, pa.v), moved(pb, pb.v)
        coherent = moved(aligned, u)
        assert qa.v.cap == other != pa.v.cap
        got = (texp_matrix_element(coherent), picard_terms(coherent, 3).terms,
               flow_inner(qa, qb))
        assert got == want


def test_engine_pairing_matches_texp_oracle():
    # with x1 = 1 only the right-hand generator Psi(f2, f1) acts on the
    # kernel's unit row, so the pairing is the coherent matrix element
    # <v1 E(f1), J(x2 (x) E(f2)) v2>
    rng = rng_for(29)
    t = 0.8
    mesh = TimeMesh([0.0, 0.4, t])
    one = TrigPoly.one(1, 3)
    for _ in range(3):
        fvals = tuple(dform(poly(rng, 1, 3, 1, self_adjoint=True, scale=0.3))
                      for _ in range(2))
        gvals = tuple(dform(poly(rng, 1, 3, 1, self_adjoint=True, scale=0.3))
                      for _ in range(2))
        f = SimpleNoisePath(mesh, fvals)
        g = SimpleNoisePath(mesh, gvals)
        x, v1, v2 = (poly(rng, 1, 3, 1) for _ in range(3))
        got = flow_inner(FlowProblem(one, g, zero_path(1, t), v1, v1, t),
                         FlowProblem(x, f, zero_path(1, t), v2, v2, t))
        want = texp_matrix_element(FlowProblem(x, f, g, v1, v2, t))
        assert got == pytest.approx(want, rel=1e-12)


def _mp_expm_action(a, b):
    """exp(a) b at 30 digits."""
    with mpmath.workdps(30):
        out = mpmath.expm(mpmath.matrix(a.tolist())) * mpmath.matrix(b.tolist())
        return np.array([complex(z) for z in out], dtype=complex)


@pytest.mark.parametrize("cap,cells,horizon", [(1, 2, 0.6), (2, 2, 0.6), (2, 1, 10.0)])
def test_propagators_match_mpmath_on_the_kron_superoperator(cap, cells, horizon):
    # the pairing's generator written out as the N^2 x N^2 superoperator
    # kron(A^H, 1) + kron(1, B^T) + diag(k.l) on the row-major kernel; the
    # long horizon takes the 1-norm past 63, where scipy would switch to
    # power-norm estimates and this propagator only takes more steps
    rng = rng_for(60 + cap)
    f1 = noise_path(rng, 1, cap, cells, horizon=horizon, max_mode=1, scale=0.4)
    f2 = noise_path(rng, 1, cap, cells, horizon=horizon, max_mode=1, scale=0.4)
    x1, x2, v1, v2 = (poly(rng, 1, cap, 1) for _ in range(4))
    zero = zero_path(1, horizon)
    pa = FlowProblem(x1, f1, zero, v1, v1, horizon)
    pb = FlowProblem(x2, f2, zero, v2, v2, horizon)
    space = ModeSpace(1, cap)
    size = space.size
    eye = np.eye(size)
    k = mode_grid(1, cap)
    w = space.gram_matrix(v1, v2).ravel()
    big = 0.0
    for (dt, c1, _), (_, c2, _) in zip(pa.cells(), pb.cells()):
        gen = dt * (np.kron(space.psi_matrix(c1, c2).conj().T, eye)
                    + np.kron(eye, space.psi_matrix(c2, c1).T)
                    + np.diag((k @ k.T).ravel()))
        want = _mp_expm_action(gen, w)
        mu = np.trace(gen) / size ** 2
        shifted = gen - mu * np.eye(size ** 2)
        norm1 = np.abs(shifted).sum(axis=0).max()
        big = max(big, norm1)
        got = _expm_action(shifted.__matmul__, norm1, mu, w)
        assert _rel_gap(got, want) <= 1e-13
        w = want
    assert (big > 63) == (horizon > 1)
    want = np.exp(noise_inner(f1, f2)) * np.vdot(space.to_vec(x1),
                                                  w.reshape(size, size)
                                                  @ space.to_vec(x2))
    assert abs(flow_inner(pa, pb) - want) <= 1e-13 * abs(want)


def test_taylor_steps_keep_the_first_minimum():
    def by_min(norm1):
        if norm1 == 0:
            return 0, 1
        return min(((m, math.ceil(norm1 / theta))
                    for m, theta in flow._THETA.items()),
                   key=lambda ms: ms[0] * ms[1])

    # ties sit where norm1 / theta_m is a whole number
    points = [0.0]
    for theta in flow._THETA.values():
        for x in (theta, 7 * theta, 100 * theta):
            points += [np.nextafter(x, 0), x, np.nextafter(x, np.inf)]
    for x in map(float, points):
        assert _taylor_steps(x) == by_min(x)


def _expm_action_norm_every_term(apply, norm1, mu, b):
    """``_expm_action`` with the sum's max norm taken at every term: the
    reference its stopping test must reproduce bit for bit."""
    m, s = _taylor_steps(norm1)
    eta = np.exp(mu / s)
    f = b
    for _ in range(s):
        c1 = np.abs(b).max()
        for j in range(m):
            b = (1.0 / (s * (j + 1))) * apply(b)
            c2 = np.abs(b).max()
            f = f + b
            if c1 + c2 <= 2.0 ** -53 * np.abs(f).max():
                break
            c1 = c2
        f = eta * f
        b = f
    return f


def _same_bits(got, want):
    return got.shape == want.shape and np.array_equal(
        got.view(np.uint64), want.view(np.uint64))


def _both_expm_actions(apply, norm1, mu, b):
    """(result, applications) of the propagator and of the reference."""
    out = []
    for run in (_expm_action, _expm_action_norm_every_term):
        calls = []

        def counted(x):
            calls.append(1)
            return apply(x)

        out.append((run(counted, norm1, mu, b), len(calls)))
    return out


@pytest.mark.parametrize("dim,cap", [(1, 4), (2, 2), (3, 1)])
def test_taylor_stop_takes_the_norm_only_where_it_can_pass(dim, cap):
    # generators scaled to 1-norms from 0 to 30, on N-vectors and on
    # N x N pairing kernels: every break and every bit as the reference
    rng = rng_for(70 + dim)
    space = ModeSpace(dim, cap)
    size = space.size
    kl = (space._k @ space._k.T).astype(complex)
    for target in (0.0, 1e-3, 0.3, 2.0, 7.5, 30.0):
        xi, eta = (one_form(rng, dim, cap, 1, scale=0.5) for _ in range(2))
        a = space.psi_matrix(xi, eta)
        a *= target / max(np.abs(a).sum(axis=0).max(), 1e-300)
        mu = np.trace(a) / size
        a.flat[:: size + 1] -= mu
        norm1 = float(np.abs(a).sum(axis=0).max())
        b = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        (got, n_got), (want, n_want) = _both_expm_actions(a.__matmul__, norm1, mu, b)
        assert n_got == n_want and _same_bits(got, want)
        # the pairing kernel under W -> A^H W + W B + (t k.l - mu) o W
        c = space.psi_matrix(eta, xi) * (target / 4)
        ah = (a * 0.5).conj().T
        shifted = 1e-2 * target * kl - mu
        w = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        (got, n_got), (want, n_want) = _both_expm_actions(
            lambda x: ah @ x + x @ c + shifted * x, 2 * norm1 + 1.0, mu, w)
        assert n_got == n_want and _same_bits(got, want)


def test_taylor_stop_edge_cases():
    rng = rng_for(75)
    size = 9
    a = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    norm1 = float(np.abs(a).sum(axis=0).max())
    # a zero start stops at the first term
    zero = np.zeros(size, dtype=complex)
    (got, n_got), (want, n_want) = _both_expm_actions(a.__matmul__, norm1, 0.5, zero)
    assert n_got == n_want and _same_bits(got, want) and not got.any()
    # a nilpotent generator: the terms vanish exactly after size - 1 steps
    shift = np.diag(np.full(size - 1, 3.0 + 1j), k=1)
    b = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    (got, n_got), (want, n_want) = _both_expm_actions(
        shift.__matmul__, float(np.abs(shift).sum(axis=0).max()), 0.0, b)
    assert n_got == n_want and _same_bits(got, want)
    # terms that meet the stop with equality: 2^-54 + 2^-54 against
    # 2^-53 ||1 + 2^-54 + 2^-54|| = 2^-53, so the bound on the sum must
    # not fall below the sum itself, or the stop is missed
    def scripted(x):
        # the terms 1, 2^-54 and 0.5 * 2^-53 = 2^-54
        step = {1.0: 2.0 ** -54, 2.0 ** -54: 2.0 ** -53}.get(float(x[0].real), 0.0)
        return np.full(1, step, dtype=complex)

    (got, n_got), (want, n_want) = _both_expm_actions(
        scripted, 1.0, 0.0, np.ones(1, dtype=complex))
    assert n_got == n_want == 2 and _same_bits(got, want) and got[0] == 1.0
    # a NaN entry: neither side ever breaks
    b[3] = np.nan
    (got, n_got), (want, n_want) = _both_expm_actions(a.__matmul__, norm1, 0.0, b)
    m, s = _taylor_steps(norm1)
    assert n_got == n_want == m * s and _same_bits(got, want)


def test_engine_gates():
    # one entry budget: d=3, cap 8 is refused before anything is built
    x = TrigPoly.one(3, 8)
    f = SimpleNoisePath.indicator(
        dform(TrigPoly.cosine((1, 0, 0), 3, 8)), 0.0, 0.25)
    p = FlowProblem(x, f, zero_path(3, 0.25), x, x, 0.25)
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded, match=r"\d+ dense entries at cap 8, dim 3"):
            flow_inner(p, p)
        with pytest.raises(CapExceeded, match=r"cap 8, dim 3"):
            factorization_check(x, x, f, f, x, x, 0.25)
        # at cap 4 the kernel fits, but not a noisy cell's Taylor steps
        rng = rng_for(9)
        x = TrigPoly.one(3, 4)
        f = noise_path(rng, 3, 4, 1, horizon=0.25, max_mode=1, scale=0.3)
        p = FlowProblem(x, f, zero_path(3, 0.25), x, x, 0.25)
        with pytest.raises(CapExceeded, match=r"flow pairing propagation .* cap 4, dim 3"):
            flow_inner(p, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2 ** 20
    # cap 5 and five mesh cells are within it
    one = TrigPoly.one(1, 5)
    c = TrigPoly.cosine((1,), 1, 5)
    fine = SimpleNoisePath(TimeMesh([0.0, 0.2, 0.4, 0.6, 0.8, 1.0]),
                           tuple(dform(0.3 * c) for _ in range(5)))
    rep = factorization_check(c + 2.0, c + 2.0, fine, fine, one, one, 1.0)
    assert rep.residual <= rep.bound
    # kernels need one mode space and one time mesh
    two = FlowProblem(one, fine, zero_path(1, 1.0), one, one, 1.0)
    plain = FlowProblem(one, zero_path(1, 1.0), zero_path(1, 1.0), one, one, 1.0)
    small = TrigPoly.one(1, 4)
    with pytest.raises(BasisMismatch, match="time meshes"):
        flow_inner(two, plain)
    with pytest.raises(BasisMismatch, match="mode spaces"):
        flow_inner(plain, FlowProblem(small, zero_path(), zero_path(),
                                      small, small, 1.0))


# ---------------------------------------------------------- factorization

def test_factorization_constant_first_argument():
    one = TrigPoly.one(1, 2)
    f = SimpleNoisePath.indicator(dform(0.4 * cos1(2)), 0.0, 0.25)
    rep = factorization_check(one, cos1(2) + 2.0, f, f, one, one, 0.25)
    assert rep.residual <= rep.bound


def test_factorization_zero_horizon_exact():
    one = TrigPoly.one(1, 2)
    zf = SimpleNoisePath(TimeMesh([0.0]), (), dim=1)
    rep = factorization_check(cos1(2) + 1.5, cos1(2) + 1.5, zf, zf,
                              one, one, 0.0)
    assert rep.residual == 0.0


def test_factorization_cos_quarter():
    for cap in (2, 5):
        one = TrigPoly.one(1, cap)
        c = cos1(cap)
        f = SimpleNoisePath.indicator(dform(c), 0.0, 0.25)
        rep = factorization_check(c, c, f, f, one, one, 0.25)
        assert rep.residual <= rep.bound
        assert rep.bound < 1.0  # the certificate is not vacuous
        assert rep.residual == pytest.approx(abs(rep.lhs - rep.rhs))


def test_factorization_requires_selfadjoint():
    e = TrigPoly.mode((1,), 1, 2)
    one = TrigPoly.one(1, 2)
    f = SimpleNoisePath.indicator(dform(cos1(2)), 0.0, 0.25)
    with pytest.raises(ValueError):
        factorization_check(e, e, f, f, one, one, 0.25)


# ------------------------------------------------------------- positivity

def test_positivity_identity_argument():
    rep = positivity_probe(TrigPoly.one(1, 2), 0.25, samples=3)
    assert rep.min_pairing > 0
    assert rep.max_ratio == pytest.approx(1.0, abs=1e-9)
    assert rep.sup_x == pytest.approx(1.0)


def test_positivity_shifted_cosine():
    x = cos1(2) + 2.0
    rep = positivity_probe(x, 0.25, samples=4)
    assert rep.min_pairing >= -1e-8
    assert rep.max_ratio <= rep.sup_x + 1e-6
    assert len(rep.rows) == 4


def test_positivity_rejects_negative_region():
    with pytest.raises(NotPositive):
        positivity_probe(cos1(2), 0.25, samples=2)
    with pytest.raises(NotPositive):
        positivity_probe(TrigPoly.mode((1,), 1, 2), 0.25, samples=2)


def test_positivity_refuses_what_it_cannot_certify():
    # 1 + cos x >= 0 touches 0 at x = pi, so no grid minimum minus a
    # positive slack can certify it
    with pytest.raises(NotPositive, match="cannot certify nonnegativity"):
        positivity_probe(cos1(2) + 1.0, 0.25, samples=2)
