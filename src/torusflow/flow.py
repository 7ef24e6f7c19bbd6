"""Quantum stochastic flow on the capped mode space.

Three mutually checking evaluation routes for the flow j_t driven by
piecewise constant one-form noise:

* ``texp_matrix_element``: coherent matrix elements by applying each
  interval's propagator exp(dt Psi) to the argument vector, latest
  interval first (so the earliest sits outermost).
* ``picard_terms``: the same quantity as an iterated-integral series;
  on constant intervals the simplex integrals are exact Taylor terms,
  so the order-n term is the degree-n part of the product of the
  interval exponentials applied to x, with a factorial tail bound.
* ``flow_inner``: the pairing of two flow vectors
  J_t(x (x) E(f)) v.  Creation increments entangle the function leg
  with the one-form leg, so the vectors are never stored: a bilinear
  kernel evolves per interval under the two sides' generators and the
  matched creation-creation channel, and the coherent-coherent residue
  contributes the exact global factor exp(<f1, f2>).  The factorization
  check compares it with the first route.

Two expansions serve these routes.  The exponential routes sum each
cell's generator and propagate a vector through its exponential.  The
Picard series runs one Taylor recursion per cell (``_graded``) over the
orders already present and drops the orders past n_max.  It propagates
the argument vector, so each order is an N-vector and each step a sparse
mat-vec, and every order's term is read off one functional, conj(v) u.
The N x N order blocks and their operator norms are computed only when
read (``PicardSeries.blocks``, ``block_norms``), by the same recursion
started from the identity, and only then charged against the dense
budget.

Everything is Galerkin-compressed onto the modes |k|_inf <= cap; both
sides of every cross-check share that compression.  On that mode space
the generator has the closed form Psi(xi, eta) = L + sum_i
M(xi_i + conj eta_i) D_i (``ModeSpace.psi_matrix``), stored sparse:
zero-noise propagators are diagonal and exponentiate entrywise, noisy
ones act on vectors through ``expm_multiply`` (Al-Mohy & Higham, SIAM
J. Sci. Comput. 33(2), 2011).  One index computation builds every
mode-space operator, sum_j M(c_j) diag(w_j) with entry
[m, k] = sum_j c_j[m-k] w_j[k] (``ModeSpace._assemble``): the
multiplication operator M(h)[m, k] = h_{m-k}, unit weights; the Gram matrix
<e_k v1, e_l v2> = (2 pi)^d (conj(v1) v2)_{k-l} of the pairing, the
multiplication operator of conj(v1) v2; and Psi, with L the weights
-|k|^2/2 on M(1) and D_i the weights i k_i.

scipy is imported only where a mode-space operator is built or
exponentiated, never at module level: ``scipy.sparse`` is about half of
the CLI import time, and only the runs that build an operator (the
``trace`` and ``flow`` suites) need it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

from .errors import BasisMismatch, GeometryMismatch, NotPositive
from .fock import SimpleNoisePath, TimeMesh, noise_inner
from .spectral import (TWO_PI, OneForm, TrigPoly, check_dense,
                       exterior_derivative, flat_index, mode_grid, mul_free)

if TYPE_CHECKING:
    from scipy import sparse

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

class ModeSpace:
    """The lattice modes |k|_inf <= cap as a vector space.

    A vector is the C-order ravel of a ``TrigPoly`` coefficient array at
    this cap (``spectral.mode_grid`` lists the modes in that order), so
    operators are built by index arithmetic and stored as sparse CSR.
    """

    __slots__ = ("dim", "cap", "_k")

    def __init__(self, dim: int, cap: int):
        if dim < 1 or cap < 0:
            raise GeometryMismatch("mode space needs dim >= 1 and cap >= 0")
        self.dim = dim
        self.cap = cap
        self._k = mode_grid(dim, cap)

    @property
    def size(self) -> int:
        return self._k.shape[0]

    def check_dense(self, entries: int, what: str) -> None:
        """Refuse an allocation of ``entries`` array entries past the
        dense budget (``spectral.check_dense``)."""
        check_dense(entries, what, self.cap, self.dim)

    def to_vec(self, p: TrigPoly) -> np.ndarray:
        if p.dim != self.dim:
            raise GeometryMismatch("polynomial lives on a different torus")
        return p.with_cap(self.cap).coeffs.flatten()

    def from_vec(self, v: np.ndarray) -> TrigPoly:
        shape = (2 * self.cap + 1,) * self.dim
        return TrigPoly(self.dim, self.cap, np.array(v, dtype=complex).reshape(shape))

    def _assemble(self, terms: List[Tuple[TrigPoly, np.ndarray]]
                  ) -> sparse.csr_array:
        """sum_j M(c_j) diag(w_j) for ``terms`` = [(c_j, w_j)]: entry
        [m, k] = sum_j c_j[m - k] w_j[k] over the union of the c_j
        supports, with the modes escaping the cap and the zero entries
        dropped, in one CSR construction."""
        from scipy import sparse  # deferred: scipy.sparse is half the CLI import
        lift = max(c.cap for c, _ in terms)
        coeffs = np.stack([c.with_cap(lift).coeffs for c, _ in terms])
        support = np.any(coeffs != 0, axis=0)
        mu = np.argwhere(support) - lift
        shift, col = np.nonzero(
            np.abs(self._k + mu[:, None]).max(axis=2) <= self.cap)
        vals = np.zeros(col.size, dtype=complex)
        for c, (_, w) in zip(coeffs[:, support], terms):
            vals += c[shift] * w[col]
        keep = vals != 0
        col = col[keep]
        rows = flat_index(self._k[col] + mu[shift[keep]], self.cap)
        # a (row, column) pair occurs once (distinct shifts of a column
        # land on distinct rows), so sorting by row, then column, is the
        # canonical CSR order
        order = np.lexsort((col, rows))
        indptr = np.zeros(self.size + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=self.size), out=indptr[1:])
        return sparse.csr_array((vals[keep][order], col[order], indptr),
                                shape=(self.size, self.size))

    def psi_matrix(self, xi: OneForm, eta: OneForm) -> sparse.csr_array:
        """Compression of psi(., xi, eta) = L + sum_i M(xi_i + conj eta_i) D_i.

        <d(x*), xi> = sum_i xi_i d_i x and <eta, dx> = sum_i conj(eta_i) d_i x,
        so only the multiplier of each partial depends on the noise.  L is
        M(1) with weights -|k|^2/2 and D_i the weights i k_i, so the
        generator is one ``_assemble``; with xi = eta = 0 it is the
        diagonal L = -Delta/2.
        """
        if xi.dim != self.dim or eta.dim != self.dim:
            raise GeometryMismatch("noise lives on a different torus")
        terms = [(TrigPoly.one(self.dim, 0), -0.5 * np.sum(self._k ** 2, axis=1))]
        terms += [(xi.comps[i] + eta.comps[i].conjugate(),
                   1j * self._k[:, i]) for i in range(self.dim)]
        return self._assemble(terms)

    def gram_matrix(self, v1: TrigPoly, v2: TrigPoly) -> np.ndarray:
        """G[k,l] = <e_k v1, e_l v2> in L2 = (2 pi)^d (conj(v1) v2)_{k-l},
        the multiplication operator of the uncapped product conj(v1) v2."""
        self.check_dense(self.size ** 2, "gram matrix")
        h = mul_free(v1.conjugate(), v2)
        return TWO_PI ** self.dim * self._assemble([(h, np.ones(self.size))]).toarray()


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
    # about 0.1 s more than the operator builders' scipy.sparse, and only
    # noisy generators need it
    from scipy.sparse.linalg import expm_multiply
    return expm_multiply(dt * gen, y)


@dataclass(frozen=True)
class FlowProblem:
    """One flow evaluation: argument x, noise paths f (ket) and g (bra),
    boundary functions u (bra) and v (ket), and the time horizon.

    The mode space is x's; u and v may sit at any cap, since they enter
    only through uncapped products and pairings."""

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
    # the pairing's dot runs over x's mode box, or u's support where that
    # reaches further, so u's cap moves no bit of the value
    u = p.u.with_cap(max(p.cap, p.u.max_abs_mode()))
    return np.exp(noise_inner(p.g, p.f)) * u.l2_inner(mul_free(y, p.v))


def _graded(cells: List[Tuple[float, sparse.csr_array]], start: np.ndarray,
            n_max: int) -> List[np.ndarray]:
    """Orders 0..n_max of E_1 ... E_m start, E_j = exp(dt_j Psi_j), by
    Taylor recursion, latest cell first so the earliest sits outermost.

    ``start`` is a vector or a matrix of columns.  Each cell's loop moves
    the orders present up one order per step, adds the step into them in
    place and drops the orders past n_max, which is what ends it.
    """
    graded = [start]
    for dt, psi in reversed(cells):
        term = graded  # term[j] is of order j + k
        k = 0
        while term:
            k += 1
            # the whole step is formed before it is added (the first step
            # reads the orders); replacing one order at a time frees each
            # old term at once
            term = term[: n_max + 1 - k]
            for j, b in enumerate(term):
                term[j] = psi @ b * (dt / k)
            for j, b in enumerate(term):
                if j + k < len(graded):
                    graded[j + k] += b
                else:
                    graded.append(b)
    return graded + [np.zeros_like(start)] * (n_max + 1 - len(graded))


@dataclass
class PicardSeries:
    """Iterated-integral contributions plus their factorial envelope.

    ``terms[n]`` is the order-n matrix element; |terms[n]| is bounded by
    prefactor * s_const**n / n!, and the tail past N by
    prefactor * s_const**(N+1) * e**s_const / (N+1)!.

    ``blocks[n]`` is the order-n block before pairing, and
    ``block_norms[n]`` its operator norm; both are computed on first read,
    the blocks by the terms' Taylor recursion run from the identity on the
    kept ``cells`` (width, generator), earliest first, on ``space``.  The
    first read charges the blocks against the dense budget: the blocks,
    one Taylor step's terms and the product being formed.  Scalar terms
    can dip through zero by cancellation, so decay diagnostics should read
    the block norms instead.
    """

    terms: List[complex]
    s_const: float
    prefactor: float
    space: ModeSpace = field(repr=False)
    cells: List[Tuple[float, sparse.csr_array]] = field(repr=False)

    @cached_property
    def blocks(self) -> List[np.ndarray]:
        size = self.space.size
        self.space.check_dense(2 * len(self.terms) * size ** 2,
                               "picard graded blocks")
        return _graded(self.cells, np.eye(size, dtype=complex),
                       len(self.terms) - 1)

    @cached_property
    def block_norms(self) -> List[float]:
        return [float(np.linalg.norm(a, 2)) for a in self.blocks]

    def partial_sum(self, n_max: Optional[int] = None) -> complex:
        terms = self.terms if n_max is None else self.terms[: n_max + 1]
        return sum(terms)

    def tail_bound(self, after: int) -> float:
        return (self.prefactor * self.s_const ** (after + 1)
                * math.exp(self.s_const) / math.factorial(after + 1))


def picard_terms(p: FlowProblem, n_max: int) -> PicardSeries:
    """Orders 0..n_max of the iterated-integral expansion.

    Per interval the simplex integrals of a constant generator collapse
    to the Taylor terms (dt Psi)^k / k!, so the order-n block is the
    degree-n part of the product of the interval exponentials, applied
    latest interval first so the earliest sits outermost, as in the
    exponential route.  The recursion (``_graded``) propagates the
    argument vector x, so order n is the N-vector y_n = block_n x and each
    step is a sparse mat-vec; the N x N blocks are formed, and charged
    against the dense budget, only when read (``PicardSeries.blocks``).
    Every term is read off one functional: <u, y v> = <conj(v) u, y>, so
    w = conj(v) u is formed once and terms[n] = exp(<g, f>) <w, y_n>.
    """
    if n_max < 0:
        raise GeometryMismatch("n_max must be nonnegative")
    space = ModeSpace(p.dim, p.cap)
    # each cell's generator is densified for its SVD, beside the SVD's copy
    space.check_dense(2 * space.size ** 2, "picard generator SVD")
    cells = [(dt, space.psi_matrix(fc, gc)) for dt, fc, gc in p.cells()]
    s_const = 0.0
    for dt, psi in cells:
        s_const += dt * float(np.linalg.norm(psi.toarray(), 2))
    xv = space.to_vec(p.x)
    coh = np.exp(noise_inner(p.g, p.f))
    w = mul_free(p.v.conjugate(), p.u)
    terms = [coh * w.l2_inner(space.from_vec(y))
             for y in _graded(cells, xv, n_max)]
    prefactor = (abs(coh) * p.u.l2_norm() * p.v.l2_norm()
                 * math.sqrt(space.size) * float(np.linalg.norm(xv)))
    return PicardSeries(terms, s_const, prefactor, space, cells)


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
    from scipy import sparse  # deferred: scipy.sparse is half the CLI import
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
        pa = FlowProblem(a1.with_cap(cap), f1, zero, v1, v1, t)
        pb = FlowProblem(a2.with_cap(cap), f2, zero, v2, v2, t)
        return flow_inner(pa, pb)

    def rhs_at(cap: int) -> complex:
        prod = mul_free(a1.conjugate(), a2).with_cap(cap)
        return texp_matrix_element(FlowProblem(prod, f2, f1, v1, v2, t))

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
