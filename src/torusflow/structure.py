"""Structure maps of the Laplacian-generated flow.

The flow on the torus algebra is specified by a structure matrix

    Theta = [[ L,      <., da> ],
             [ 1 (x) da,  0    ]]

with generator L = -Delta/2, derivation delta(f) = 1 (x) df, its adjoint
delta(f)^dagger (a (x) w) = a <df, w>, and vanishing conservation part.
This module implements the blocks, the augmented vectors they act on,
the quadratic kernel in both its closed form and its four-term defining
expression, the combined map psi used by the flow compression, and the
Sobolev / nested-composition growth estimates.

All pairings conjugate their first argument (see spectral.form_inner).
Phi is L plus the annihilation term sum_i (d_i x) xi_i, since
conj(d_i(x*)) = d_i x entry for entry, and psi is Phi plus the creation
term; each map derives what it reads from its operands' own arrays and
hands nothing on.  The Sobolev norm reads all
its derivative components off one grid transform where they fit in one
stack (``spectral.lengths_on_grid``).
The augmented vector norm puts the diagonal module norm on the form leg:
|psi (x) w|^2 = |w|^2 |psi|^2 and |psi (x) omega|^2 = integral of
|psi|^2 ell(omega)^2.  Under this norm the bound
|Theta(a) v| <= 4 d |a|_{W^{2,inf}} |v| is an actual theorem.
"""

from __future__ import annotations

import math
from functools import reduce
from operator import add
from typing import List, Sequence, Tuple

from .errors import GeometryMismatch
from .spectral import (
    CovariantTensor,
    OneForm,
    TrigPoly,
    covariant_derivative,
    exterior_derivative,
    form_inner,
    lengths_on_grid,
    mul_free,
    sup_grid_size,
)

__all__ = [
    "generator_L",
    "delta",
    "delta_squared",
    "kernel_eval",
    "psi_map",
    "phi_map",
    "sobolev_w2inf_norm",
    "AugmentedVector",
    "theta_apply",
    "NestedPhiGrowth",
    "nested_phi_growth",
]


# ----------------------------------------------------------------------
# structure matrix blocks


def generator_L(x: TrigPoly) -> TrigPoly:
    """Semigroup generator L(x) = -Delta(x)/2, diagonal on modes."""
    return -0.5 * x.laplacian()


def delta(x: TrigPoly) -> OneForm:
    """The derivation delta(x) = dx (the one-form leg of 1 (x) dx)."""
    return exterior_derivative(x)


def delta_squared(x: TrigPoly) -> CovariantTensor:
    """Iterated derivation (delta (x) 1)(delta(x)), identically zero.

    delta(x) is presented as 1 (x) dx, so the extension applies delta to
    the constant scalar leg: delta(1) (x) dx = 0.  The zero rank-2 tensor
    is returned with the computation spelled out rather than short-cut,
    so the convention itself is what gets exercised.
    """
    scalar_leg = TrigPoly.one(x.dim, x.cap)
    dleg = delta(scalar_leg)
    dx = delta(x)
    comps = {}
    for i in range(x.dim):
        for j in range(x.dim):
            comps[(i, j)] = mul_free(dleg.comps[i], dx.comps[j]).with_cap(x.cap)
    return CovariantTensor(x.dim, 2, comps)


# ----------------------------------------------------------------------
# quadratic kernel, closed form vs defining oracle


def kernel_eval(a1: TrigPoly, a2: TrigPoly, b1: TrigPoly, b2: TrigPoly,
                route: str = "closed") -> TrigPoly:
    """K_L((a1,a2),(b1,b2)) along either of its two derivations.

    route="closed" evaluates <d(a1*), d(b1)> a2 b2, the form the kernel
    collapses to on a flat torus.  route="oracle" evaluates the defining
    four-term expression

        L(f1* f2* g2 g1) + f1* L(f2* g2) g1
          - L(f1* f2* g2) g1 - f1* L(f2* g2 g1)

    under f1 = a1, f2 = a2, g1 = b1, g2 = b2.  The two routes agree when
    a1 and a2 are self-adjoint (the collapse uses f = f*); b1, b2 are
    unconstrained.  Intermediates are formed in lifted ambient caps; the
    value must fit the largest input cap or CapExceeded is raised.
    """
    caps = (a1.cap, a2.cap, b1.cap, b2.cap)
    working_cap = max(caps)
    if route == "closed":
        out = form_inner(exterior_derivative(a1.conjugate()), exterior_derivative(b1))
        return mul_free(mul_free(out, a2), b2).with_cap(working_cap)
    if route == "oracle":
        f1s = a1.conjugate()
        f2s = a2.conjugate()
        f12 = mul_free(f1s, f2s)
        g21 = mul_free(b2, b1)
        t1 = generator_L(mul_free(f12, g21))
        t2 = mul_free(f1s, mul_free(generator_L(mul_free(f2s, b2)), b1))
        t3 = mul_free(generator_L(mul_free(f12, b2)), b1)
        t4 = mul_free(f1s, generator_L(mul_free(f2s, g21)))
        return (t1 + t2 - t3 - t4).with_cap(working_cap)
    raise ValueError(f"unknown kernel route {route!r}")


# ----------------------------------------------------------------------
# the combined flow map psi and its projections


def phi_map(x: TrigPoly, xi: OneForm) -> TrigPoly:
    """Phi_xi(x) = L(x) + <delta(x*), xi>, the annihilation-side map.

    The annihilation term is formed as sum_i (d_i x) xi_i, in axis order:
    <delta(x*), xi> conjugates the first leg, and conj(d_i(x*)) = d_i x
    entry for entry.  The two arrays can differ only in the sign of a
    zero entry, which a direct product's sums, started from +0, do not
    see; so the term skips two conjugations and a flip per axis and
    keeps the pairing's bits (tests compare the two routes on uint64
    views at d = 1, 2, 3).
    """
    if x.dim != xi.dim:
        raise GeometryMismatch("phi_map operands live on different tori")
    out = generator_L(x)
    if xi.is_zero():
        return out
    return out + reduce(add, (mul_free(x.partial(i), w) for i, w in enumerate(xi.comps)))


def psi_map(x: TrigPoly, xi: OneForm, eta: OneForm) -> TrigPoly:
    """psi(x, xi, eta) = L(x) + <delta(x*), xi> + <eta, delta(x)>.

    xi plays the annihilation coupling (``phi_map``), eta the creation
    coupling; both pairings are pointwise, and each term reads only the
    operands' own arrays.  With xi = eta = 0 this is L.  The result is
    returned at the smallest lifted cap covering all three terms; strict
    truncation is the caller's business.
    """
    if x.dim != xi.dim or x.dim != eta.dim:
        raise GeometryMismatch("psi_map operands live on different tori")
    out = phi_map(x, xi)
    return out if eta.is_zero() else out + form_inner(eta, delta(x))


# ----------------------------------------------------------------------
# Sobolev data


def sobolev_w2inf_norm(a: TrigPoly) -> float:
    """|a|_{W^{2,inf}} = sup|a| + sup ell(grad a) + sup ell(grad^2 a).

    Each sup is the max over one exact grid, the lower side of the sup
    bracket: the norm only sits on the bound side of 4 d |a|_{W^{2,inf}}
    |v|, so a smaller value makes that check stricter, never weaker.
    The components of the three tensors are read off one grid transform
    where they fit in one stack (``spectral.lengths_on_grid``).
    """
    n = sup_grid_size(a.max_abs_mode())
    lengths = lengths_on_grid([covariant_derivative(a, order) for order in range(3)], n)
    return sum(float(ell.max()) for ell in lengths)


# ----------------------------------------------------------------------
# augmented vectors and the block action of Theta


class AugmentedVector:
    """A vector in H (x) (C (+) k0) split as scalar and form parts.

    The scalar part is a single TrigPoly (the complex weight is folded
    in).  The form part is kept as a pair (psi, omega) because the block
    action pairs omega against da while psi multiplies unconjugated; the
    pair cannot be collapsed without losing that asymmetry.
    """

    __slots__ = ("scalar_part", "form_psi", "form_omega")

    def __init__(self, scalar_part: TrigPoly, form_psi: TrigPoly, form_omega: OneForm):
        if scalar_part.dim != form_psi.dim or scalar_part.dim != form_omega.dim:
            raise GeometryMismatch("augmented vector parts live on different tori")
        self.scalar_part = scalar_part
        self.form_psi = form_psi
        self.form_omega = form_omega

    @classmethod
    def product(cls, psi: TrigPoly, weight: complex, omega: OneForm) -> "AugmentedVector":
        """Build psi (x) (weight (+) omega)."""
        return cls(weight * psi, psi, omega)

    @property
    def dim(self) -> int:
        return self.scalar_part.dim

    def form_sections(self) -> Tuple[TrigPoly, ...]:
        """The folded components psi * omega_i of the form part."""
        return tuple(mul_free(self.form_psi, w) for w in self.form_omega.comps)

    def norm_sq(self) -> float:
        """|scalar|^2 + sum_i |psi omega_i|^2, each L2 norm read off the
        coefficients by Parseval."""
        return sum(p.l2_norm() ** 2
                   for p in (self.scalar_part,) + self.form_sections())

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())

    def __repr__(self):
        return (f"AugmentedVector(scalar={self.scalar_part!r}, "
                f"psi={self.form_psi!r}, omega={self.form_omega!r})")


def theta_apply(a: TrigPoly, v: AugmentedVector) -> AugmentedVector:
    """Block action of the structure matrix Theta(a).

    scalar out = L(a) * (w psi) + psi <omega, da>
    form out   = (w psi) (x) da
    """
    if a.dim != v.dim:
        raise GeometryMismatch("theta_apply operands live on different tori")
    da = exterior_derivative(a)
    t1 = mul_free(v.scalar_part, generator_L(a))
    t2 = mul_free(v.form_psi, form_inner(v.form_omega, da))
    return AugmentedVector(t1 + t2, v.scalar_part, da)


# ----------------------------------------------------------------------
# nested Phi composition growth


class NestedPhiGrowth:
    """Certified upper ends of the sup norms of Phi compositions against
    their a priori bound.

    The bound cascades the coefficient l1 norm: one application of
    Phi_xi to y with mode radius kappa multiplies l1 by at most
    m(kappa) = d kappa^2 / 2 + kappa * L1(xi), and the radius grows by
    the radius of xi.  The reported constants reshape the product bound
    into C * (2 sqrt(d) M^2)^n with C = l1(x) and
    M = sqrt(max_step_factor / (2 sqrt(d))).
    """

    __slots__ = ("sup_norms", "bounds", "c_const", "m_const", "dim")

    def __init__(self, sup_norms: List[float], bounds: List[float],
                 c_const: float, m_const: float, dim: int):
        self.sup_norms = sup_norms
        self.bounds = bounds
        self.c_const = c_const
        self.m_const = m_const
        self.dim = dim

    def envelope(self, n: int) -> float:
        """C * (2 sqrt(d) M^2)^n."""
        return self.c_const * (2.0 * math.sqrt(self.dim) * self.m_const ** 2) ** n

    def holds(self) -> bool:
        if any(s > b * (1.0 + 1e-12) + 1e-9 for s, b in zip(self.sup_norms, self.bounds)):
            return False
        return all(s <= self.envelope(n + 1) * (1.0 + 1e-12) + 1e-9
                   for n, s in enumerate(self.sup_norms))


def nested_phi_growth(x: TrigPoly, xi_seq: Sequence[OneForm]) -> NestedPhiGrowth:
    """Apply Phi_{xi_n} o ... o Phi_{xi_1} to x and certify the growth.

    Returns the certified upper end of each sup bracket after each
    application together with the running l1 cascade bound.  The bound
    is rigorous, not fitted: l1 is submultiplicative under products and
    a partial derivative multiplies l1 by at most the mode radius.
    """
    for xi in xi_seq:
        if xi.dim != x.dim:
            raise GeometryMismatch("xi sequence lives on a different torus")
    d = x.dim
    xi_radius = max((max(c.max_abs_mode() for c in xi.comps) for xi in xi_seq),
                    default=0)
    xi_l1 = max((sum(c.coeff_l1() for c in xi.comps) for xi in xi_seq), default=0.0)

    chain = x
    kappa = x.max_abs_mode()
    running = x.coeff_l1()
    sups: List[float] = []
    bounds: List[float] = []
    factors: List[float] = []
    for xi in xi_seq:
        chain = phi_map(chain, xi)
        factor = d * kappa * kappa / 2.0 + kappa * xi_l1
        factors.append(factor)
        running *= factor
        kappa += xi_radius
        sups.append(chain.sup_norm()[1])
        bounds.append(running)
    peak = max(factors, default=1.0)
    m_const = math.sqrt(max(peak, 1e-30) / (2.0 * math.sqrt(d)))
    return NestedPhiGrowth(sups, bounds, x.coeff_l1(), m_const, d)
