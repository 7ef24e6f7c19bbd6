"""Quantum stochastic flow on the capped mode space.

Three mutually checking evaluation routes for the flow j_t driven by
piecewise constant one-form noise:

* ``texp_matrix_element``: coherent matrix elements by applying each
  interval's propagator exp(dt Psi) to the argument vector, latest
  interval first (so the earliest sits outermost).
* ``picard_terms``: the same quantity as an iterated-integral series;
  on constant intervals the simplex integrals are exact Taylor terms,
  so the order-n block is the degree-n part of the product of the
  interval exponentials, with a factorial tail bound.
* ``flow_inner``: the pairing of two flow vectors
  J_t(x (x) E(f)) v.  Creation increments entangle the function leg
  with the one-form leg, so the vectors are never stored: a bilinear
  kernel evolves per interval under the two sides' generators and the
  matched creation-creation channel, and the coherent-coherent residue
  contributes the exact global factor exp(<f1, f2>).  The factorization
  check compares it with the first route.

Two expansions serve these routes.  The exponential routes sum each
cell's generator and propagate a vector through its exponential; the
Picard blocks run one Taylor loop per cell over the orders already
present and drop the orders past the budget.

Everything is Galerkin-compressed onto the modes |k|_inf <= cap; both
sides of every cross-check share that compression.  On that mode space
the generator has the closed form Psi(xi, eta) = L + sum_i
M(xi_i + conj eta_i) D_i (``ModeSpace.psi_matrix``), stored sparse:
zero-noise propagators are diagonal and exponentiate entrywise, noisy
ones act on vectors through ``expm_multiply`` (Al-Mohy & Higham, SIAM
J. Sci. Comput. 33(2), 2011).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy import sparse

from .errors import (BasisMismatch, CapExceeded, GeometryMismatch,
                     NotPositive)
from .fock import SimpleNoisePath, TimeMesh, noise_inner
from .spectral import (TWO_PI, OneForm, TrigPoly, exterior_derivative,
                       flat_index, lifted_sum, mode_grid, mul_free)

__all__ = [
    "ModeSpace",
    "diagonal_entries",
    "FlowProblem",
    "texp_matrix_element",
    "PicardSeries",
    "picard_terms",
    "vacuum_expectation",
    "flow_inner",
    "FactorizationReport",
    "factorization_check",
    "PositivityReport",
    "positivity_probe",
]

#: hard budget on the mode-space array entries one call allocates (Picard
#: blocks, Gram matrices, pairing kernels with their superoperators)
_DENSE_BUDGET = 1 << 24


class ModeSpace:
    """The lattice modes |k|_inf <= cap as a vector space.

    A vector is the C-order ravel of a ``TrigPoly`` coefficient array at
    this cap (``spectral.mode_grid`` lists the modes in that order), so
    operators are built by index arithmetic and stored as sparse CSR.
    """

    __slots__ = ("dim", "cap", "_k", "_mult_cache")

    def __init__(self, dim: int, cap: int):
        if dim < 1 or cap < 0:
            raise GeometryMismatch("mode space needs dim >= 1 and cap >= 0")
        self.dim = dim
        self.cap = cap
        self._k = mode_grid(dim, cap)
        self._mult_cache: Dict[Tuple, sparse.csr_array] = {}

    @property
    def size(self) -> int:
        return self._k.shape[0]

    def check_dense(self, entries: int, what: str) -> None:
        """Refuse an allocation of ``entries`` array entries past the budget."""
        if entries > _DENSE_BUDGET:
            raise CapExceeded(
                f"{what} needs {entries} dense entries at cap {self.cap}, "
                f"dim {self.dim} (budget {_DENSE_BUDGET}); lower the cap"
            )

    def to_vec(self, p: TrigPoly) -> np.ndarray:
        if p.dim != self.dim:
            raise GeometryMismatch("polynomial lives on a different torus")
        return p.with_cap(self.cap).coeffs.flatten()

    def from_vec(self, v: np.ndarray) -> TrigPoly:
        shape = (2 * self.cap + 1,) * self.dim
        return TrigPoly(self.dim, self.cap, np.array(v, dtype=complex).reshape(shape))

    def partial_matrix(self, axis: int) -> sparse.csr_array:
        return sparse.diags_array(1j * self._k[:, axis]).tocsr()

    def _shift_matrix(self, h: TrigPoly, out_cap: int) -> sparse.csr_array:
        """Column k holds e_k h on the modes |m|_inf <= out_cap; modes
        escaping out_cap are dropped."""
        rows, cols, vals = [], [], []
        for mu, c in h.items():
            tgt = self._k + np.asarray(mu, dtype=np.int64)
            keep = np.all(np.abs(tgt) <= out_cap, axis=1)
            rows.append(flat_index(tgt[keep], out_cap))
            cols.append(np.flatnonzero(keep))
            vals.append(np.full(cols[-1].size, c, dtype=complex))
        shape = ((2 * out_cap + 1) ** self.dim, self.size)
        if not rows:
            return sparse.csr_array(shape, dtype=complex)
        return sparse.csr_array(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=shape)

    def mult_matrix(self, h: TrigPoly) -> sparse.csr_array:
        """Compression of multiplication by h; escaping modes are dropped."""
        key = (h.cap, (h.coeffs + 0.0).tobytes())  # + 0.0 maps -0.0 to 0.0
        hit = self._mult_cache.get(key)
        if hit is None:
            hit = self._mult_cache[key] = self._shift_matrix(h, self.cap)
        return hit

    def psi_matrix(self, xi: OneForm, eta: Optional[OneForm]) -> sparse.csr_array:
        """Compression of psi(., xi, eta) = L + sum_i M(xi_i + conj eta_i) D_i.

        <d(x*), xi> = sum_i xi_i d_i x and <eta, dx> = sum_i conj(eta_i) d_i x,
        so only the multiplier of each partial depends on the noise; with
        xi = eta = 0 the generator is the diagonal L = -Delta/2.
        """
        if eta is None:
            eta = OneForm.zero(self.dim, 0)
        if xi.dim != self.dim or eta.dim != self.dim:
            raise GeometryMismatch("noise lives on a different torus")
        out = sparse.diags_array(-0.5 * np.sum(self._k ** 2, axis=1)
                                 .astype(complex)).tocsr()
        for i in range(self.dim):
            h = lifted_sum(xi.comps[i], eta.comps[i].conjugate())
            if not h.is_zero():
                out = out + self.mult_matrix(h) @ self.partial_matrix(i)
        return out

    def gram_matrix(self, v1: TrigPoly, v2: TrigPoly) -> np.ndarray:
        """G[k,l] = <e_k v1, e_l v2> in L2; products taken uncapped."""
        self.check_dense(self.size ** 2, "gram matrix")
        lift = self.cap + max(v1.max_abs_mode(), v2.max_abs_mode())
        a = self._shift_matrix(v1, lift)
        b = self._shift_matrix(v2, lift)
        return TWO_PI ** self.dim * (a.conj().T @ b).toarray()


def diagonal_entries(gen: sparse.csr_array) -> Optional[np.ndarray]:
    """The diagonal of a sparse generator, or None if any off-diagonal
    entry is nonzero."""
    coo = gen.tocoo()
    if np.any((coo.row != coo.col) & (coo.data != 0)):
        return None
    return gen.diagonal()


def _propagate(gen: sparse.csr_array, dt: float, y: np.ndarray) -> np.ndarray:
    """exp(dt gen) y: elementwise for a diagonal generator, otherwise the
    action of the exponential (Al-Mohy & Higham 2011) without forming it."""
    diag = diagonal_entries(gen)
    if diag is not None:
        return np.exp(dt * diag) * y
    # imported on first use: scipy.sparse.linalg pulls in scipy.linalg,
    # about 0.1 s of every CLI start, and only noisy generators need it
    from scipy.sparse.linalg import expm_multiply
    return expm_multiply(dt * gen, y)


@dataclass(frozen=True)
class FlowProblem:
    """One flow evaluation: argument x, noise paths f (ket) and g (bra),
    boundary functions u (bra) and v (ket), and the time horizon."""

    x: TrigPoly
    f: SimpleNoisePath
    g: SimpleNoisePath
    u: TrigPoly
    v: TrigPoly
    horizon: float

    def __post_init__(self):
        if self.horizon < 0:
            raise GeometryMismatch("horizon must be nonnegative")
        d = self.x.dim
        for name, p in (("u", self.u), ("v", self.v)):
            if p.dim != d:
                raise GeometryMismatch(f"{name} lives on a different torus")
            if p.cap != self.x.cap:
                raise GeometryMismatch(f"{name} does not share the cap of x")
        for name, path in (("f", self.f), ("g", self.g)):
            if path.dim != d:
                raise GeometryMismatch(f"path {name} lives on a different torus")
            if path.support_end() > self.horizon + 1e-12:
                raise GeometryMismatch(
                    f"path {name} is supported past the horizon {self.horizon}"
                )

    @property
    def dim(self) -> int:
        return self.x.dim

    @property
    def cap(self) -> int:
        return self.x.cap

    def mesh(self) -> TimeMesh:
        return self.f.mesh.merged(self.g.mesh).refined_to(self.horizon)

    def cells(self) -> List[Tuple[float, OneForm, OneForm]]:
        """(width, f value, g value) per cell, earliest first."""
        out = []
        for a, b in self.mesh().cells():
            out.append((b - a, self.f.value_at(a), self.g.value_at(a)))
        return out


def texp_matrix_element(p: FlowProblem) -> complex:
    """exp(<g,f>) <u, (E_1 ... E_m)(x) v> with E_j = exp(dt_j Psi_j).

    The earliest interval sits outermost, so the latest propagator hits x
    first.  The final multiplication by v and the pairing against u are
    taken uncapped; only the evolution itself is compressed.
    """
    space = ModeSpace(p.dim, p.cap)
    y = space.to_vec(p.x)
    for dt, fc, gc in reversed(p.cells()):
        y = _propagate(space.psi_matrix(fc, gc), dt, y)
    y = space.from_vec(y)
    return np.exp(noise_inner(p.g, p.f)) * p.u.l2_inner(mul_free(y, p.v))


@dataclass
class PicardSeries:
    """Iterated-integral contributions plus their factorial envelope.

    ``terms[n]`` is the order-n matrix element; |terms[n]| is bounded by
    prefactor * s_const**n / n!, and the tail past N by
    prefactor * s_const**(N+1) * e**s_const / (N+1)!.

    ``block_norms[n]`` is the operator norm of the order-n block before
    pairing.  Scalar terms can dip through zero by cancellation, so decay
    diagnostics should read the block norms instead.
    """

    terms: List[complex]
    s_const: float
    prefactor: float
    block_norms: List[float]

    def partial_sum(self, n_max: Optional[int] = None) -> complex:
        terms = self.terms if n_max is None else self.terms[: n_max + 1]
        return sum(terms)

    def term_bound(self, n: int) -> float:
        return self.prefactor * self.s_const ** n / math.factorial(n)

    def tail_bound(self, after: int) -> float:
        return (self.prefactor * self.s_const ** (after + 1)
                * math.exp(self.s_const) / math.factorial(after + 1))


def picard_terms(p: FlowProblem, n_max: int) -> PicardSeries:
    """Orders 0..n_max of the iterated-integral expansion.

    Per interval the simplex integrals of a constant generator collapse
    to the Taylor terms (dt Psi)^k / k!, so the order-n block is the
    degree-n part of the product of the interval exponentials, applied
    latest interval first so the earliest sits outermost, as in the
    exponential route.  ``blocks[n]`` is the order-n block; each cell's
    Taylor loop moves the blocks present up one order per step and drops
    those past n_max, which is what ends it.
    """
    if n_max < 0:
        raise GeometryMismatch("n_max must be nonnegative")
    space = ModeSpace(p.dim, p.cap)
    space.check_dense((n_max + 1) * space.size ** 2, "picard graded blocks")
    cells = [(dt, space.psi_matrix(fc, gc)) for dt, fc, gc in p.cells()]
    s_const = 0.0
    for dt, psi in cells:
        s_const += dt * float(np.linalg.norm(psi.toarray(), 2))
    blocks = [np.eye(space.size, dtype=complex)]
    for dt, psi in reversed(cells):
        out = list(blocks)
        term = blocks  # term[j] is of order j + k
        k = 0
        while term:
            k += 1
            term = [psi @ b * (dt / k) for b in term[: n_max + 1 - k]]
            for j, b in enumerate(term):
                if j + k < len(out):
                    out[j + k] = out[j + k] + b
                else:
                    out.append(b)
        blocks = out
    empty = np.zeros((space.size, space.size), dtype=complex)
    graded = blocks + [empty] * (n_max + 1 - len(blocks))
    xv = space.to_vec(p.x)
    coh = np.exp(noise_inner(p.g, p.f))
    terms = [coh * p.u.l2_inner(mul_free(space.from_vec(a @ xv), p.v))
             for a in graded]
    prefactor = (abs(coh) * p.u.l2_norm() * p.v.l2_norm()
                 * math.sqrt(space.size) * float(np.linalg.norm(xv)))
    block_norms = [float(np.linalg.norm(a, 2)) for a in graded]
    return PicardSeries(terms, s_const, prefactor, block_norms)


def vacuum_expectation(x: TrigPoly, u: TrigPoly, v: TrigPoly, t: float) -> complex:
    """<u Omega, j_t(x) v Omega>: the zero-noise matrix element."""
    zero = SimpleNoisePath.zero(x.dim, horizon=max(t, 1.0))
    return texp_matrix_element(FlowProblem(x, zero, zero, u, v, t))


def flow_inner(p1: FlowProblem, p2: FlowProblem) -> complex:
    """<J(x1 (x) E(f1)) v1, J(x2 (x) E(f2)) v2>: the pairing of two flow
    vectors, read off the x, f and v of each problem.

    Creation increments entangle the function leg with the one-form leg,
    so the vectors are never stored; the bilinear kernel W with value
    x1^H W x2 evolves per mesh cell by

        dW = Psi(f1, f2)^H W + W Psi(f2, f1) + sum_i D_i^H W D_i

    Each side's generator carries its own noise and the creation legs
    that the other side's coherent datum eats; the last term is the
    matched creation-creation channel, entrywise multiplication by k.l
    since the partials are diagonal.  The coherent residues contribute
    exp(<f1, f2>) globally.

    The kernel, and with it each cell's summed superoperator entries
    (nnz(kron(A, B)) = nnz(A) nnz(B)), is checked against the dense
    budget before the kernel or any superoperator is allocated.
    """
    if p1.dim != p2.dim or p1.cap != p2.cap:
        raise BasisMismatch("flow problems use different mode spaces")
    if p1.mesh() != p2.mesh():
        raise BasisMismatch("flow problems use different time meshes")
    space = ModeSpace(p1.dim, p1.cap)
    size = space.size
    space.check_dense(size ** 2, "flow pairing kernel")
    cells = []
    for (dt, f1c, _), (_, f2c, _) in zip(p1.cells(), p2.cells()):
        a = space.psi_matrix(f1c, f2c)
        b = a if p2.f is p1.f else space.psi_matrix(f2c, f1c)
        space.check_dense(2 * size ** 2 + size * (a.nnz + b.nnz),
                          "flow pairing cell")
        cells.append((dt, a, b))
    eye = sparse.eye_array(size, dtype=complex, format="csr")
    k = space._k
    legs = sparse.diags_array((k @ k.T).ravel().astype(complex)).tocsr()
    w = space.gram_matrix(p1.v, p2.v).reshape(-1)
    for dt, a, b in cells:
        gen = (sparse.kron(a.conj().T, eye, format="csr")
               + sparse.kron(eye, b.T, format="csr") + legs)
        w = _propagate(gen, dt, w)
    x1, x2 = space.to_vec(p1.x), space.to_vec(p2.x)
    total = complex(np.vdot(x1, w.reshape(size, size) @ x2))
    return np.exp(noise_inner(p1.f, p2.f)) * total


@dataclass
class FactorizationReport:
    """Cross-check of the flow pairing against the transported product."""

    lhs: complex
    rhs: complex
    residual: float
    bound: float
    cap_sensitivity: float


def factorization_check(a1: TrigPoly, a2: TrigPoly,
                        f1: SimpleNoisePath, f2: SimpleNoisePath,
                        v1: TrigPoly, v2: TrigPoly,
                        t: float) -> FactorizationReport:
    """|<J(a1 (x) Ef1)v1, J(a2 (x) Ef2)v2> - <v1 Ef1, J(a1* a2 (x) Ef2)v2>|.

    The identity is exact for the uncompressed flow, so the residual of
    the two full-series routes is compression error.  The reported bound
    is four times the measured sensitivity of both routes to raising the
    mode cap by two, plus a float slop.  Every pairing, the cap + 2 pass
    included, checks its entries against the dense budget before
    allocating.
    """
    if not (a1.is_selfadjoint() and a2.is_selfadjoint()):
        raise ValueError("the factorization identity is checked for "
                         "self-adjoint arguments")
    if t < 0:
        raise GeometryMismatch("horizon must be nonnegative")
    zero = SimpleNoisePath.zero(a1.dim, max(t, 1.0))

    def lhs_at(cap: int) -> complex:
        va, vb = v1.with_cap(cap), v2.with_cap(cap)
        pa = FlowProblem(a1.with_cap(cap), f1, zero, va, va, t)
        pb = FlowProblem(a2.with_cap(cap), f2, zero, vb, vb, t)
        return flow_inner(pa, pb)

    def rhs_at(cap: int) -> complex:
        prod = mul_free(a1.conjugate(), a2).with_cap(cap)
        return texp_matrix_element(FlowProblem(prod, f2, f1, v1.with_cap(cap),
                                               v2.with_cap(cap), t))

    cap = a1.cap
    lhs = lhs_at(cap)
    rhs = rhs_at(cap)
    cap_sens = abs(lhs_at(cap + 2) - lhs) + abs(rhs_at(cap + 2) - rhs)
    scale = max(1.0, abs(lhs), abs(rhs))
    residual = abs(lhs - rhs)
    bound = 4 * cap_sens + 1e-9 * scale
    return FactorizationReport(lhs, rhs, residual, bound, cap_sens)


@dataclass
class PositivityReport:
    min_pairing: float
    max_ratio: float
    sup_x: float
    rows: List[Tuple[float, float]] = field(default_factory=list)


def positivity_probe(x: TrigPoly, t: float, samples: int = 8,
                     seed: int = 0) -> PositivityReport:
    """min <theta, j_t(x) theta> and max ||j_t(x) theta|| / ||theta||.

    theta ranges over random coherent states v E(f) with exact one-form
    noise: the pairing is the coherent matrix element
    ``texp_matrix_element`` and the norm the kernel pairing ``flow_inner``.  x must be
    pointwise nonnegative: certified on x's sup grid as grid minimum
    minus slack >= -1e-12 (``TrigPoly._sup_grid``; NotPositive otherwise,
    so an x touching 0 is refused).  The flow then keeps the pairings
    nonnegative and the norm ratio below sup_x, the grid max, which is
    the strict side of the sup bracket for that check.
    """
    if not x.is_selfadjoint():
        raise NotPositive("argument is not self-adjoint")
    vals, slack = x._sup_grid()
    low = float(vals.real.min()) - slack
    if low < -1e-12:
        raise NotPositive(f"cannot certify nonnegativity: grid min - slack = {low:.3e}")
    rng = np.random.default_rng(seed)
    d = x.dim
    sup_x = float(np.abs(vals).max())
    basis_modes = [tuple(int(i == j) for i in range(d)) for j in range(d)]
    min_pair = math.inf
    max_ratio = 0.0
    rows: List[Tuple[float, float]] = []
    for _ in range(samples):
        coeffs = {(0,) * d: 1.0 + 0.0j}
        for k in basis_modes:
            c = (rng.normal() + 1j * rng.normal()) * 0.3
            coeffs[k] = c
            coeffs[tuple(-v for v in k)] = c.conjugate()
        v = TrigPoly(d, x.cap, coeffs)
        h = TrigPoly.zero(d, x.cap)
        for k in basis_modes:
            h = h + TrigPoly.cosine(k, d, x.cap) * rng.normal() * 0.4 \
                + TrigPoly.sine(k, d, x.cap) * rng.normal() * 0.4
        f = SimpleNoisePath.indicator(exterior_derivative(h), 0.0, t)
        pairing = texp_matrix_element(FlowProblem(x, f, f, v, v, t))
        prob = FlowProblem(x, f, SimpleNoisePath.zero(d, t), v, v, t)
        norm_sq = flow_inner(prob, prob).real
        theta_sq = math.exp(noise_inner(f, f).real) * v.l2_norm() ** 2
        ratio = math.sqrt(max(norm_sq, 0.0) / theta_sq)
        min_pair = min(min_pair, pairing.real)
        max_ratio = max(max_ratio, ratio)
        rows.append((pairing.real, ratio))
    return PositivityReport(min_pair, max_ratio, sup_x, rows)
