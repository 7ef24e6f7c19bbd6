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
* ``fock_picard_apply`` / ``flow_inner``: the flow vector
  J_t(x (x) E(f)) v itself.  Creation increments entangle the function
  leg with the one-form leg, so the vector is represented through its
  pairing calculus: ``pair_coherent`` evolves a vector and
  ``flow_inner`` a bilinear kernel under a per-interval list of sparse
  mechanisms.  For the kernel these are the two one-sided generators,
  the matched creation-creation channel (paired coordinate partials),
  and creation against the opposite coherent datum (multiplication by
  the conjugated component composed with the partial, inserted at the
  creation time).  The coherent-coherent residue contributes the exact
  global factor exp(<f1, f2>).

Each expansion is stated once.  A mechanism ``(step, op)`` is an
operator together with the counters (order, creation legs) it raises.
The full series sums a cell's mechanisms into one generator and
propagates it.  Every truncated expansion (the Picard blocks and both
truncated pairings) hands the same mechanisms to one graded Taylor
series, ``_graded_series``, which drops the terms whose counters pass
the order and depth budgets.

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

from .errors import (BasisMismatch, CapExceeded, DepthExceeded,
                     GeometryMismatch, NotPositive)
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
    "FlowFockVector",
    "fock_picard_apply",
    "flow_inner",
    "FactorizationReport",
    "factorization_check",
    "PositivityReport",
    "positivity_probe",
]

#: hard budget on the entries of the dense mode-space arrays one call
#: allocates (Picard blocks, pairing kernels, Gram matrices)
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

    def check_dense(self, blocks: int, what: str) -> None:
        """Refuse ``blocks`` dense size x size arrays past the budget."""
        entries = blocks * self.size ** 2
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
        self.check_dense(1, "gram matrix")
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


#: graded state: counter tuple -> array
_State = Dict[Tuple[int, ...], np.ndarray]
#: mechanisms: (counter step, sparse operator)
_Mechs = List[Tuple[Tuple[int, ...], sparse.csr_array]]


def _graded_series(state: _State, mechs: _Mechs, dt: float,
                   caps: Tuple[int, ...]) -> _State:
    """exp(dt sum_j op_j) on a graded state, one Taylor order at a time.

    ``state`` maps counter tuples to arrays.  Each mechanism
    ``(step, op)`` sends an entry to ``op @ entry`` and raises its
    counters by ``step``; terms whose counters pass ``caps`` are dropped,
    which is what ends the series.
    """
    out = dict(state)
    term = state
    k = 0
    while term:
        k += 1
        nxt: _State = {}
        for key, entry in term.items():
            for step, op in mechs:
                to = tuple(a + b for a, b in zip(key, step))
                if all(a <= c for a, c in zip(to, caps)):
                    moved = op @ entry * (dt / k)
                    nxt[to] = nxt[to] + moved if to in nxt else moved
        for key, entry in nxt.items():
            out[key] = out[key] + entry if key in out else entry
        term = nxt
    return out


def _evolve_cell(state: _State, mechs: _Mechs, dt: float,
                 caps: Optional[Tuple[int, ...]]) -> _State:
    """One mesh cell of a pairing.  The full series (``caps`` None)
    propagates the mechanisms summed in list order as one generator; a
    truncated one keeps the graded pieces of the same exponential."""
    if caps is None:
        gen = sum((op for _, op in mechs[1:]), mechs[0][1])
        return {key: _propagate(gen, dt, y) for key, y in state.items()}
    return _graded_series(state, mechs, dt, caps)


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
    degree-n part of the graded series of the interval exponentials,
    applied latest interval first so the earliest sits outermost, as in
    the exponential route.
    """
    if n_max < 0:
        raise GeometryMismatch("n_max must be nonnegative")
    space = ModeSpace(p.dim, p.cap)
    space.check_dense(n_max + 1, "picard graded blocks")
    cells = [(dt, space.psi_matrix(fc, gc)) for dt, fc, gc in p.cells()]
    s_const = 0.0
    for dt, psi in cells:
        s_const += dt * float(np.linalg.norm(psi.toarray(), 2))
    state = {(0,): np.eye(space.size, dtype=complex)}
    for dt, psi in reversed(cells):
        state = _graded_series(state, [((1,), psi)], dt, (n_max,))
    empty = np.zeros((space.size, space.size), dtype=complex)
    graded = [state.get((n,), empty) for n in range(n_max + 1)]
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


# ----------------------------------------------------------------------
# explicit Fock engine


class _EngineCell:
    """Per-interval data shared by the pairing mechanisms."""

    __slots__ = ("dt", "form", "phi")

    def __init__(self, dt: float, form: OneForm, phi: np.ndarray):
        self.dt = dt
        self.form = form
        self.phi = phi


class FlowFockVector:
    """Truncated flow vector J_t^{(<= n_max)}(x (x) E(f)) v.

    The creation legs are module-entangled with the function slot, so
    amplitudes over any fixed one-form basis cannot carry them exactly;
    the vector is stored as its generating data (argument, noise path,
    per-cell compressed generators) and all inner products are evaluated
    through the pairing calculus in ``flow_inner``.  ``n_max`` = None
    means the full series (one exponential per interval).
    """

    def __init__(self, problem: FlowProblem, n_max: Optional[int], depth: int,
                 space: ModeSpace, cells: List[_EngineCell]):
        self.problem = problem
        self.n_max = n_max
        self.depth = depth
        self.space = space
        self.cells = cells

    @property
    def x_vec(self) -> np.ndarray:
        return self.space.to_vec(self.problem.x)

    def inner(self, other: "FlowFockVector") -> complex:
        return flow_inner(self, other)

    def pair_coherent(self, u: TrigPoly, g: SimpleNoisePath) -> complex:
        """<u E(g), self>: pairing against a coherent vector.

        Creation legs are consumed by g cell by cell: each leg inserts
        multiplication by conj(g_i) composed with the i-th partial at
        the creation position inside the evolution.
        """
        space = self.space
        if u.dim != space.dim:
            raise GeometryMismatch("u lives on a different torus")
        mesh = self.problem.mesh()
        g = g.on_mesh(mesh)
        caps = None if self.n_max is None else (self.n_max, self.depth)
        state = {(0, 0): self.x_vec}  # (order, legs) -> vector
        for cell, (a, _) in zip(self.cells[::-1], mesh.cells()[::-1]):
            gc = g.value_at(a)
            mechs = [((1, 0), cell.phi)]
            for i in range(space.dim):
                h = gc.comps[i]
                if not h.is_zero():
                    ins = space.mult_matrix(h.conjugate()) @ space.partial_matrix(i)
                    mechs.append(((1, 1), ins))
            state = _evolve_cell(state, mechs, cell.dt, caps)
        poly = space.from_vec(sum(state.values()))
        coh = np.exp(noise_inner(g, self.problem.f))
        return coh * u.l2_inner(mul_free(poly, self.problem.v))


def _build_vector(p: FlowProblem, n_max: Optional[int], depth: int,
                  loss_tol: float = 1e-6) -> FlowFockVector:
    space = ModeSpace(p.dim, p.cap)
    cells = []
    for dt, fc, _ in p.cells():
        cells.append(_EngineCell(dt, fc, space.psi_matrix(fc, None)))
    if n_max is not None and n_max > depth:
        # order budget allows more creation increments than the leg
        # budget keeps, so the vector genuinely drops content: bound
        # the clipped sectors by a factorial envelope
        gram = space.gram_matrix(p.v, p.v)
        # ||D_i|| = cap: the partials are diagonal with entries i k_i
        d_norms = float(space.dim * space.cap ** 2)
        beta_legs = sum(c.dt * d_norms for c in cells)
        beta_all = sum(c.dt * 2 * float(np.linalg.norm(c.phi.toarray(), 2))
                       for c in cells) + beta_legs
        pref = float(np.linalg.norm(space.to_vec(p.x))) ** 2 * \
            float(np.linalg.norm(gram, 2))
        tail = 0.0
        q = depth + 1
        fact = math.factorial(q)
        for _ in range(60):
            inc = beta_legs ** q / fact
            tail += inc
            if inc < 1e-18 * max(tail, 1.0):
                break
            q += 1
            fact *= q
        leg_loss = pref * math.exp(beta_all - beta_legs) * tail
        if leg_loss > loss_tol:
            raise DepthExceeded(
                f"creation content past {depth} legs bounded only by "
                f"{leg_loss:.3e} (> {loss_tol:.1e})"
            )
    return FlowFockVector(p, n_max, depth, space, cells)


def _check_engine_budget(p: FlowProblem, depth: int) -> None:
    """At most 4 mesh intervals and 3 creation legs per pairing."""
    if p.mesh().num_cells > 4:
        raise GeometryMismatch("the explicit engine is limited to 4 mesh cells")
    if depth > 3:
        raise DepthExceeded("the explicit engine is limited to depth <= 3")


def fock_picard_apply(p: FlowProblem, n_max: Optional[int], depth: int,
                      loss_tol: float = 1e-6) -> FlowFockVector:
    """Build the truncated flow vector for later pairings.

    Small scales only: mode cap <= 4 on top of the engine's mesh and
    depth budget keeps every pairing a handful of small propagations.
    n_max = None keeps the full series (legs included, whatever the
    depth); DepthExceeded fires when a finite order budget clips
    creation content past ``depth`` legs by more than ``loss_tol``.
    """
    if p.cap > 4:
        raise CapExceeded("the explicit engine is limited to mode cap <= 4")
    _check_engine_budget(p, depth)
    return _build_vector(p, n_max, depth, loss_tol)


def _superop(a_left: Optional[sparse.csr_array],
             b_right: Optional[sparse.csr_array],
             size: int) -> sparse.csr_array:
    """Row-major sparse matrix for W -> A W B (A or B may be the identity)."""
    eye = sparse.eye_array(size, dtype=complex, format="csr")
    a = eye if a_left is None else a_left
    b = eye if b_right is None else b_right
    return sparse.kron(a, b.T, format="csr")


def flow_inner(v1: FlowFockVector, v2: FlowFockVector) -> complex:
    """<v1, v2>: joint pairing of two flow vectors on the same mesh.

    The bilinear kernel W with value x1^H W x2 evolves per interval by

        dW = Phi1^H W + W Phi2                (one-sided generators)
           + sum_i D_i^H W D_i                (matched creation legs)
           + sum_i (M_{conj f2,i} D_i)^H W    (side-1 legs eaten by f2)
           + sum_i W (M_{conj f1,i} D_i)      (side-2 legs eaten by f1)

    and the coherent residues contribute exp(<f1, f2>) globally.
    Finite n_max/depth truncations keep the graded pieces of the same
    expansion.  Both vectors must be full series or both truncated: a
    full-series vector against a truncated one raises BasisMismatch.
    """
    if v1.space.dim != v2.space.dim or v1.space.cap != v2.space.cap:
        raise BasisMismatch("flow vectors use different mode spaces")
    m1, m2 = v1.problem.mesh(), v2.problem.mesh()
    if m1 != m2:
        raise BasisMismatch("flow vectors use different time meshes")
    if v1.depth != v2.depth:
        raise BasisMismatch("flow vectors use different depths")
    if (v1.n_max is None) != (v2.n_max is None):
        raise BasisMismatch("a full-series flow vector cannot be paired "
                            "with a truncated one")
    space = v1.space
    size = space.size
    caps = None if v1.n_max is None else (v1.n_max, v2.n_max, v1.depth, v2.depth)
    gram = space.gram_matrix(v1.problem.v, v2.problem.v)
    state = {(0, 0, 0, 0): gram.reshape(-1)}  # (n1, n2, l1, l2) -> raveled W
    for c1, c2 in zip(v1.cells, v2.cells):
        mechs = [((1, 0, 0, 0), _superop(c1.phi.conj().T, None, size)),
                 ((0, 1, 0, 0), _superop(None, c2.phi, size))]
        for i in range(space.dim):
            d_i = space.partial_matrix(i)
            mechs.append(((1, 1, 1, 1), _superop(d_i.conj().T, d_i, size)))
            f2i = c2.form.comps[i]
            if not f2i.is_zero():
                ins = space.mult_matrix(f2i.conjugate()) @ d_i
                mechs.append(((1, 0, 1, 0), _superop(ins.conj().T, None, size)))
            f1i = c1.form.comps[i]
            if not f1i.is_zero():
                ins = space.mult_matrix(f1i.conjugate()) @ d_i
                mechs.append(((0, 1, 0, 1), _superop(None, ins, size)))
        state = _evolve_cell(state, mechs, c1.dt, caps)
    x1, x2 = v1.x_vec, v2.x_vec
    total = sum(complex(np.vdot(x1, w.reshape(size, size) @ x2))
                for w in state.values())
    return np.exp(noise_inner(v1.problem.f, v2.problem.f)) * total


@dataclass
class FactorizationReport:
    """Cross-check of the flow pairing against the transported product."""

    lhs: complex
    rhs: complex
    residual: float
    bound: float
    truncation_deficit: float
    cap_sensitivity: float


def factorization_check(a1: TrigPoly, a2: TrigPoly,
                        f1: SimpleNoisePath, f2: SimpleNoisePath,
                        v1: TrigPoly, v2: TrigPoly, t: float,
                        n_max: Optional[int] = 3, depth: int = 3,
                        safety: float = 4.0) -> FactorizationReport:
    """|<J(a1 (x) Ef1)v1, J(a2 (x) Ef2)v2> - <v1 Ef1, J(a1* a2 (x) Ef2)v2>|.

    The reported bound combines the measured distance of the truncated
    pairing from its full-series value, the measured sensitivity of both
    routes to raising the mode cap by two (scaled by ``safety``), and a
    float slop; the identity itself is exact for the uncompressed flow.
    The engine's mesh and depth budget is checked before any pairing;
    its cap limit is not, since the cap + 2 pass runs past it anyway.
    """
    if not (a1.is_selfadjoint() and a2.is_selfadjoint()):
        raise ValueError("the factorization identity is checked for "
                         "self-adjoint arguments")
    if t < 0:
        raise GeometryMismatch("horizon must be nonnegative")
    zero = SimpleNoisePath.zero(a1.dim, max(t, 1.0))
    _check_engine_budget(FlowProblem(a1, f1, zero, v1, v1, t), depth)
    _check_engine_budget(FlowProblem(a2, f2, zero, v2, v2, t), depth)

    def lhs_at(cap: int, n_max_, depth_) -> complex:
        va, vb = v1.with_cap(cap), v2.with_cap(cap)
        pa = FlowProblem(a1.with_cap(cap), f1, zero, va, va, t)
        pb = FlowProblem(a2.with_cap(cap), f2, zero, vb, vb, t)
        return flow_inner(_build_vector(pa, n_max_, depth_),
                          _build_vector(pb, n_max_, depth_))

    def rhs_at(cap: int) -> complex:
        prod = mul_free(a1.conjugate(), a2).with_cap(cap)
        return texp_matrix_element(FlowProblem(prod, f2, f1, v1.with_cap(cap),
                                               v2.with_cap(cap), t))

    cap = a1.cap
    lhs = lhs_at(cap, n_max, depth)
    rhs = rhs_at(cap)
    lhs_full = lhs_at(cap, None, depth) if n_max is not None else lhs
    trunc = abs(lhs - lhs_full)
    lhs_hi = lhs_at(cap + 2, None, depth)
    rhs_hi = rhs_at(cap + 2)
    cap_sens = abs(lhs_hi - lhs_full) + abs(rhs_hi - rhs)
    scale = max(1.0, abs(lhs), abs(rhs))
    residual = abs(lhs - rhs)
    bound = trunc + safety * cap_sens + 1e-9 * scale
    return FactorizationReport(lhs, rhs, residual, bound, trunc, cap_sens)


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
    noise, evaluated through the full Fock engine pairing.  x must be
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
        prob = FlowProblem(x, f, SimpleNoisePath.zero(d, t), v, v, t)
        vec = fock_picard_apply(prob, None, 3)
        pairing = vec.pair_coherent(v, f)
        norm_sq = flow_inner(vec, vec).real
        theta_sq = math.exp(noise_inner(f, f).real) * v.l2_norm() ** 2
        ratio = math.sqrt(max(norm_sq, 0.0) / theta_sq)
        min_pair = min(min_pair, pairing.real)
        max_ratio = max(max_ratio, ratio)
        rows.append((pairing.real, ratio))
    return PositivityReport(min_pair, max_ratio, sup_x, rows)
