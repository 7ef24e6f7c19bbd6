"""Acceptance gate: seven integration criteria with stated tolerances.

Each criterion prints exactly one verdict line (through the capture
escape hatch, so the line is visible in plain pytest output) and then
asserts.  Tolerances and runtime budgets are fixed here on purpose;
loosening them is a code change a reviewer has to see.
"""

import math
import time

import mpmath
import numpy as np
import pytest

from torusflow.flow import (FlowProblem, factorization_check, picard_terms,
                            positivity_probe, texp_matrix_element,
                            vacuum_expectation)
from torusflow.fock import SimpleNoisePath
from torusflow.sampling import noise_path, one_form, poly, rng_for
from torusflow.spectral import (TrigPoly, covariant_derivative,
                                exterior_derivative, form_inner,
                                mul_free, pointwise_length_sq)
from torusflow.structure import (AugmentedVector, delta, delta_squared,
                                 generator_L, kernel_eval,
                                 sobolev_w2inf_norm, theta_apply)
from torusflow.trace import (WeylFit, heat_trace_direct, heat_trace_via_flow,
                             theta_reference, weyl_fit, z_for_tail)


def _verdict(capsys, num, label, ok, detail, elapsed, budget):
    mark = "PASS" if ok and elapsed <= budget else "FAIL"
    with capsys.disabled():
        print(f"criterion {num} ({label}): {mark} "
              f"[{detail}; {elapsed:.2f}s of {budget:.0f}s]")
    assert ok, f"criterion {num}: {detail}"
    assert elapsed <= budget, f"criterion {num} exceeded {budget}s"


def test_criterion_1_vacuum_identity(capsys):
    # 50 random (x, u, v) on the circle, modes up to 6, four times
    started = time.monotonic()
    rng = rng_for(101)
    worst = 0.0
    for _ in range(50):
        x = poly(rng, 1, 6, 6, scale=0.5)
        u = poly(rng, 1, 6, 6, scale=0.5)
        v = poly(rng, 1, 6, 6, scale=0.5)
        for t in (0.1, 0.5, 1.0, 2.0):
            got = vacuum_expectation(x, u, v, t)
            want = u.l2_inner(mul_free(x.heat(t, halved=True), v))
            worst = max(worst, abs(got - want))
    elapsed = time.monotonic() - started
    _verdict(capsys, 1, "vacuum identity", worst <= 1e-10,
             f"max |texp - semigroup| = {worst:.3e}, tol 1e-10",
             elapsed, 10.0)


def test_criterion_2_picard_oracle(capsys):
    # 20 random 2-interval problems: tail bound plus factorial decay
    started = time.monotonic()
    rng = rng_for(202)
    worst_excess = -math.inf
    worst_ratio_excess = -math.inf
    for _ in range(20):
        t = 0.8
        f = noise_path(rng, 1, 3, 2, horizon=t, max_mode=1, scale=0.35)
        g = noise_path(rng, 1, 3, 2, horizon=t, max_mode=1, scale=0.35)
        x = poly(rng, 1, 3, 1, scale=0.7)
        u = poly(rng, 1, 3, 1, scale=0.7)
        v = poly(rng, 1, 3, 1, scale=0.7)
        p = FlowProblem(x, f, g, u, v, t)
        series = picard_terms(p, 8)
        gap = abs(series.partial_sum(8) - texp_matrix_element(p))
        worst_excess = max(worst_excess, gap - series.tail_bound(8))
        # per-order block norms decay like c t / (n + 1) with c = S / t;
        # the scalar terms are unusable here because cancellation dips
        # make consecutive ratios spike
        c = series.s_const / t
        for n in range(2, 8):
            lo, hi = series.block_norms[n], series.block_norms[n + 1]
            worst_ratio_excess = max(worst_ratio_excess,
                                     hi / lo - c * t / (n + 1))
    elapsed = time.monotonic() - started
    ok = worst_excess <= 0.0 and worst_ratio_excess <= 0.0
    _verdict(capsys, 2, "picard vs texp", ok,
             f"max (gap - tail bound) = {worst_excess:.3e}, "
             f"max decay-ratio excess = {worst_ratio_excess:.3e}",
             elapsed, 30.0)


def test_criterion_3_structure_identities(capsys):
    started = time.monotonic()
    rng = rng_for(303)
    worst = 0.0
    for _ in range(50):
        x = poly(rng, 1, 8, 2)
        y = poly(rng, 1, 8, 2)
        cap = x.max_abs_mode() + y.max_abs_mode()
        lhs = form_inner(delta(x), delta(y)).with_cap(cap)
        xs = x.conjugate()
        rhs = (generator_L(mul_free(xs, y)).with_cap(cap)
               - mul_free(xs, generator_L(y)).with_cap(cap)
               - mul_free(generator_L(x).conjugate(), y).with_cap(cap))
        worst = max(worst, (lhs - rhs).l2_norm() / max(1.0, rhs.l2_norm()))

        v = AugmentedVector.product(
            poly(rng, 1, 8, 2),
            complex(rng.standard_normal(), rng.standard_normal()),
            one_form(rng, 1, 8, 2))
        worst = max(worst, theta_apply(TrigPoly.one(1, 8), v).norm())

        dd = delta_squared(poly(rng, 1, 8, 2))
        worst = max(worst, math.sqrt(sum(q.l2_norm() ** 2
                                         for q in dd.comps.values())))

        a1 = poly(rng, 1, 8, 2, self_adjoint=True)
        a2 = poly(rng, 1, 8, 2, self_adjoint=True)
        b1 = poly(rng, 1, 8, 2)
        b2 = poly(rng, 1, 8, 2)
        closed = kernel_eval(a1, a2, b1, b2, route="closed")
        oracle = kernel_eval(a1, a2, b1, b2, route="oracle")
        cap2 = max(closed.cap, oracle.cap)
        gap = (closed.with_cap(cap2) - oracle.with_cap(cap2)).l2_norm()
        worst = max(worst, gap / max(1.0, oracle.l2_norm()))
    elapsed = time.monotonic() - started
    _verdict(capsys, 3, "structure identities", worst <= 1e-12,
             f"max residual = {worst:.3e}, tol 1e-12", elapsed, 5.0)


def test_criterion_4_growth_suite(capsys):
    started = time.monotonic()
    rng = rng_for(404)
    worst = 0.0
    for dim in (1, 2):
        for _ in range(25):
            x = poly(rng, dim, 4, 2)
            y = poly(rng, dim, 4, 2)
            dxy = exterior_derivative(mul_free(x, y))
            for ax in range(dim):
                other = (mul_free(x.partial(ax), y)
                         + mul_free(x, y.partial(ax)))
                gap = (dxy.comps[ax] - other).l2_norm()
                worst = max(worst, gap / max(1.0, other.l2_norm()))

            grad_lap = covariant_derivative(x.laplacian(), 1)
            grad = covariant_derivative(x, 1)
            for ax in range(dim):
                gap = (grad_lap.component((ax,))
                       - grad.component((ax,)).laplacian()).l2_norm()
                worst = max(worst, gap)

            n = 4 * max(1, x.max_abs_mode()) + 3
            lap_vals = np.abs(x.laplacian().values_on_grid(n))
            hess = pointwise_length_sq(covariant_derivative(x, 2))
            hess_vals = np.sqrt(np.maximum(hess.values_on_grid(n).real, 0.0))
            worst = max(worst, float(np.max(
                lap_vals - math.sqrt(dim) * hess_vals)))

            a = poly(rng, dim, 4, 2, self_adjoint=True)
            v = AugmentedVector.product(
                poly(rng, dim, 4, 2),
                complex(rng.standard_normal(), rng.standard_normal()),
                one_form(rng, dim, 4, 2))
            lhs = theta_apply(a, v).norm()
            rhs = 4 * dim * sobolev_w2inf_norm(a) * v.norm()
            worst = max(worst, (lhs - rhs) / max(1.0, rhs))
    elapsed = time.monotonic() - started
    _verdict(capsys, 4, "derivative and Sobolev bounds", worst <= 1e-10,
             f"max violation = {worst:.3e}, tol 1e-10", elapsed, 10.0)


def test_criterion_5_trace_identity(capsys):
    started = time.monotonic()
    worst_theta = 0.0
    for dim in (1, 2):
        for t in (0.05, 0.1, 0.5, 1.0):
            z = z_for_tail(t, dim)
            worst_theta = max(worst_theta,
                              abs(heat_trace_direct(t, z, dim)
                                  - theta_reference(t, dim)))
    worst_flow = 0.0
    for dim in (1, 2):
        for t in (0.25, 1.0):
            worst_flow = max(worst_flow,
                             abs(heat_trace_via_flow(t, 6.0, dim)
                                 - heat_trace_direct(t, 6.0, dim)))

    def theta3(t):
        # on the circle sum_k e^{-t k^2} = sum_k q^{k^2} = theta_3(0, q),
        # the Jacobi theta function at nome q = e^{-t}
        with mpmath.workdps(50):
            return float(mpmath.jtheta(3, 0, mpmath.exp(-t)))

    ref_direct = abs(heat_trace_direct(1.0, z_for_tail(1.0, 1), 1) - theta3(1.0))
    ref_theta = abs(theta_reference(0.05, 1) - theta3(0.05))
    elapsed = time.monotonic() - started
    ok = (worst_theta <= 1e-10 and worst_flow <= 1e-9
          and ref_direct <= 1e-9 and ref_theta <= 1e-9)
    _verdict(capsys, 5, "heat trace vs theta and flow", ok,
             f"max |direct - theta| = {worst_theta:.3e} (tol 1e-10), "
             f"max |flow - direct| = {worst_flow:.3e} (tol 1e-9), "
             f"reference gaps {ref_direct:.2e}/{ref_theta:.2e}",
             elapsed, 60.0)


def test_criterion_6_weyl_scaling(capsys):
    started = time.monotonic()
    lams = np.geomspace(5.0, 20.0, 9)
    detail = []
    ok = True
    for dim in (1, 2):
        fit = weyl_fit(lams, dim)
        slope_err = abs(fit.slope - dim)
        pref_err = abs(fit.prefactor - WeylFit.expected_prefactor(dim)) \
            / WeylFit.expected_prefactor(dim)
        ok = ok and slope_err <= 0.01 and pref_err <= 0.01
        detail.append(f"d={dim}: slope err {slope_err:.2e}, "
                      f"prefactor rel err {pref_err:.2e}")
    elapsed = time.monotonic() - started
    _verdict(capsys, 6, "spectral action scaling", ok,
             "; ".join(detail) + "; tols 0.01", elapsed, 30.0)


def test_criterion_7_factorization_positivity(capsys):
    started = time.monotonic()
    rng = rng_for(707)
    one = TrigPoly.one(1, 4)
    worst_excess = -math.inf
    cases = 0
    for i in range(10):
        a1 = one + poly(rng, 1, 4, 1, self_adjoint=True, scale=0.4)
        a2 = one + poly(rng, 1, 4, 1, self_adjoint=True, scale=0.4)
        h1 = poly(rng, 1, 4, 1, self_adjoint=True, scale=0.3)
        h2 = poly(rng, 1, 4, 1, self_adjoint=True, scale=0.3)
        stop = 0.4 if i % 2 == 0 else 0.2
        f1 = SimpleNoisePath.indicator(exterior_derivative(h1), 0.0, stop)
        f2 = SimpleNoisePath.indicator(exterior_derivative(h2), 0.0, stop)
        v1 = one + poly(rng, 1, 4, 1, scale=0.2)
        v2 = one + poly(rng, 1, 4, 1, scale=0.2)
        rep = factorization_check(a1, a2, f1, f2, v1, v2, 0.4)
        worst_excess = max(worst_excess, rep.residual - rep.bound)
        cases += 1
    x = 2.0 * TrigPoly.one(1, 4) + TrigPoly.cosine((1,), 1, 4)
    probe = positivity_probe(x, 0.25, samples=8, seed=707)
    elapsed = time.monotonic() - started
    ok = (cases == 10 and worst_excess <= 0.0
          and probe.min_pairing >= -1e-8
          and probe.max_ratio <= probe.sup_x + 1e-6)
    _verdict(capsys, 7, "factorization and positivity", ok,
             f"max (residual - bound) = {worst_excess:.3e} over 10 cases, "
             f"min pairing {probe.min_pairing:.3e}, "
             f"ratio margin {probe.sup_x + 1e-6 - probe.max_ratio:.3e}",
             elapsed, 120.0)
