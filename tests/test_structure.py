"""Generator, derivation and the block action Theta."""

import math

import pytest

from torusflow import GeometryMismatch
from torusflow.sampling import one_form, poly, rng_for
from torusflow.spectral import (OneForm, TrigPoly, exterior_derivative,
                                form_inner, mul_free)
from torusflow.structure import (AugmentedVector, delta, delta_squared,
                                 generator_L, kernel_eval, nested_phi_growth,
                                 phi_map, psi_map, sobolev_w2inf_norm,
                                 theta_apply)


def cos1(dim=1, cap=4):
    return TrigPoly.cosine((1,) + (0,) * (dim - 1), dim, cap)


def sin1(dim=1, cap=4):
    return TrigPoly.sine((1,) + (0,) * (dim - 1), dim, cap)


# -------------------------------------------------------------- generator

def test_generator_examples():
    assert generator_L(TrigPoly.one(1, 3)).is_zero()
    e2 = TrigPoly.mode((2,), 1, 3)
    assert (generator_L(e2) + 2.0 * e2).is_zero()
    c = cos1()
    assert (generator_L(c) + 0.5 * c).is_zero()


def test_generator_commutes_with_adjoint():
    rng = rng_for(2)
    for _ in range(8):
        f = poly(rng, 2, 3, 2)
        lhs = generator_L(f.conjugate())
        rhs = generator_L(f).conjugate()
        assert (lhs - rhs).is_zero(1e-14)


# ------------------------------------------------------------- derivation

def test_delta_leibniz():
    f, g = cos1(), sin1()
    fg = mul_free(f, g).with_cap(4)
    lhs = delta(fg)
    rhs_comps = []
    for i in range(1):
        t = (mul_free(delta(f).comps[i], g).with_cap(4)
             + mul_free(f, delta(g).comps[i]).with_cap(4))
        rhs_comps.append(t)
    for a, b in zip(lhs.comps, rhs_comps):
        assert (a - b).is_zero(1e-15)


def test_delta_squared_vanishes_on_basis():
    for dim, cap in ((1, 4), (2, 2)):
        from itertools import product
        for k in product(range(-cap, cap + 1), repeat=dim):
            t = delta_squared(TrigPoly.mode(k, dim, cap))
            assert all(p.is_zero() for p in t.comps.values())
            assert t.rank == 2


# ----------------------------------------------------------------- kernel

def test_kernel_constant_first_slot():
    c = TrigPoly.constant(2.0, 1, 4)
    b = cos1()
    for route in ("closed", "oracle"):
        out = kernel_eval(c, TrigPoly.one(1, 4), b, b, route=route)
        assert out.is_zero(1e-13)


def test_kernel_cos_example():
    one = TrigPoly.one(1, 4)
    out = kernel_eval(cos1(), one, cos1(), one)
    assert out.coeff((0,)) == pytest.approx(0.5)
    assert out.coeff((2,)) == pytest.approx(-0.25)
    assert out.coeff((-2,)) == pytest.approx(-0.25)


def test_kernel_routes_agree_on_random_quadruples():
    rng = rng_for(7)
    for _ in range(20):
        a1 = poly(rng, 1, 16, 4, self_adjoint=True)
        a2 = poly(rng, 1, 16, 4, self_adjoint=True)
        b1 = poly(rng, 1, 16, 4)
        b2 = poly(rng, 1, 16, 4)
        closed = kernel_eval(a1, a2, b1, b2, route="closed")
        oracle = kernel_eval(a1, a2, b1, b2, route="oracle")
        scale = max(1.0, closed.coeff_l1())
        assert (closed - oracle).is_zero(1e-12 * scale)


def test_kernel_unknown_route():
    one = TrigPoly.one(1, 2)
    with pytest.raises(ValueError):
        kernel_eval(one, one, one, one, route="galerkin")


def test_cocycle_identity():
    # <delta x, delta y> = L(x* y) - x* L(y) - L(x)* y, exactly
    rng = rng_for(13)
    for dim in (1, 2):
        for _ in range(6):
            x = poly(rng, dim, 8, 2)
            y = poly(rng, dim, 8, 2)
            cap = x.max_abs_mode() + y.max_abs_mode()
            lhs = form_inner(delta(x), delta(y)).with_cap(cap)
            xs = x.conjugate()
            rhs = (generator_L(mul_free(xs, y)).with_cap(cap)
                   - mul_free(xs, generator_L(y)).with_cap(cap)
                   - mul_free(generator_L(x).conjugate(), y).with_cap(cap))
            scale = max(1.0, x.coeff_l1() * y.coeff_l1())
            assert (lhs - rhs).is_zero(1e-12 * scale)


# -------------------------------------------------------------- psi / phi

def test_psi_map_examples():
    zero_form = OneForm.zero(1, 2)
    xi = exterior_derivative(cos1(2 - 1, 2))
    one = TrigPoly.one(1, 2)
    assert psi_map(one, xi, xi).is_zero()
    out = psi_map(cos1(1, 2), exterior_derivative(cos1(1, 2)), zero_form)
    # 1/2 - 1/2 cos x - 1/2 cos 2x
    assert out.coeff((0,)) == pytest.approx(0.5)
    assert out.coeff((1,)) == pytest.approx(-0.25)
    assert out.coeff((-1,)) == pytest.approx(-0.25)
    assert out.coeff((2,)) == pytest.approx(-0.25)
    x = TrigPoly.mode((2,), 1, 2)
    assert (psi_map(x, zero_form, zero_form) - generator_L(x)).is_zero()


def test_phi_maps_assemble_psi():
    rng = rng_for(21)
    x = poly(rng, 1, 6, 2)
    xi = one_form(rng, 1, 6, 2)
    eta = one_form(rng, 1, 6, 2)
    full = psi_map(x, xi, eta)
    partial = phi_map(x, xi) + form_inner(eta, delta(x)).with_cap(phi_map(x, xi).cap)
    assert (full.with_cap(partial.cap) - partial).is_zero(1e-13)


def test_psi_map_dimension_check():
    with pytest.raises(GeometryMismatch):
        psi_map(TrigPoly.one(1, 2), OneForm.zero(2, 2), OneForm.zero(1, 2))


# ---------------------------------------------------------------- sobolev

def test_sobolev_values():
    assert sobolev_w2inf_norm(TrigPoly.one(1, 2)) == pytest.approx(1.0)
    assert sobolev_w2inf_norm(cos1(1, 2)) == pytest.approx(3.0, abs=1e-8)
    assert sobolev_w2inf_norm(TrigPoly.mode((2,), 1, 2)) == pytest.approx(7.0, abs=1e-8)


# ------------------------------------------------------------------ theta

def test_theta_annihilates_constants():
    v = AugmentedVector.product(cos1(), 1.0 + 0.5j,
                                exterior_derivative(sin1()))
    out = theta_apply(TrigPoly.one(1, 4), v)
    assert out.is_zero(1e-15)
    assert out.norm() == pytest.approx(0.0, abs=1e-12)


def test_theta_scalar_weight_example():
    one = TrigPoly.one(1, 4)
    v = AugmentedVector.product(one, 1.0, OneForm.zero(1, 4))
    out = theta_apply(cos1(), v)
    assert (out.scalar_part + 0.5 * cos1(1, out.scalar_part.cap)).is_zero(1e-15)
    secs = out.form_sections()
    assert (secs[0] + sin1(1, secs[0].cap)).is_zero(1e-15)


def test_theta_form_pairing_example():
    one = TrigPoly.one(1, 4)
    v = AugmentedVector.product(one, 0.0, exterior_derivative(cos1()))
    out = theta_apply(cos1(), v)
    # scalar picks up <dcos, dcos> = sin^2
    assert out.scalar_part.coeff((0,)) == pytest.approx(0.5)
    assert out.scalar_part.coeff((2,)) == pytest.approx(-0.25)
    assert all(s.is_zero(1e-15) for s in out.form_sections())


def test_theta_sobolev_bound():
    rng = rng_for(31)
    for dim in (1, 2):
        for _ in range(8):
            a = poly(rng, dim, 4, 2, self_adjoint=True)
            v = AugmentedVector.product(
                poly(rng, dim, 4, 2),
                complex(rng.standard_normal(), rng.standard_normal()),
                one_form(rng, dim, 4, 2),
            )
            lhs = theta_apply(a, v).norm()
            rhs = 4.0 * dim * sobolev_w2inf_norm(a) * v.norm()
            assert lhs <= rhs * (1.0 + 1e-10) + 1e-12


def test_augmented_vector_norm_decomposition():
    psi = cos1(1, 3)
    omega = exterior_derivative(sin1(1, 3))
    v = AugmentedVector.product(psi, 2.0, omega)
    direct = (2.0 * psi).l2_norm() ** 2
    direct += sum(s.l2_norm() ** 2 for s in v.form_sections())
    assert v.norm_sq() == pytest.approx(direct)
    assert v.norm() == pytest.approx(math.sqrt(direct))
    # seeded vectors: the grid norm against the convolved form sections
    rng = rng_for(17)
    for dim in (1, 2, 3):
        for _ in range(3):
            v = AugmentedVector.product(
                poly(rng, dim, 4, 2),
                complex(rng.standard_normal(), rng.standard_normal()),
                one_form(rng, dim, 4, 3),
            )
            direct = v.scalar_part.l2_norm() ** 2
            direct += sum(s.l2_norm() ** 2 for s in v.form_sections())
            assert v.norm_sq() == pytest.approx(direct, rel=1e-12)


def test_augmented_vector_geometry_check():
    with pytest.raises(GeometryMismatch):
        AugmentedVector(TrigPoly.one(1, 2), TrigPoly.one(2, 2),
                        OneForm.zero(2, 2))


# ------------------------------------------------------------- nested phi

def test_nested_phi_growth_certified():
    rng = rng_for(5)
    x = poly(rng, 1, 6, 2, self_adjoint=True, scale=0.5)
    xis = [one_form(rng, 1, 6, 1, scale=0.5) for _ in range(6)]
    rep = nested_phi_growth(x, xis)
    assert len(rep.sup_norms) == 6
    assert rep.holds()
    for n, s in enumerate(rep.sup_norms):
        assert s <= rep.envelope(n + 1) * (1.0 + 1e-9) + 1e-9


def test_nested_phi_growth_dim_check():
    with pytest.raises(GeometryMismatch):
        nested_phi_growth(TrigPoly.one(1, 2), [OneForm.zero(2, 2)])
