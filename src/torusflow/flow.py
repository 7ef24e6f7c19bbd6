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

Two expansions serve these routes.  The exponential routes propagate a
vector, or the pairing kernel, through each cell's exponential.  The
Picard series runs one Taylor recursion per cell (``_graded``) over the
orders already present and drops the orders past n_max.  It propagates
the argument vector, so each order is an N-vector and each step a
mat-vec, and every order's term is read off one functional, conj(v) u.
The N x N order blocks and their operator norms are computed only when
read (``PicardSeries.blocks``, ``block_norms``), by the same recursion
started from the identity, and only then charged against the dense
budget.

Every route reads a cell's data off the problem's mode space
(``FlowProblem.space``), which lives as long as the problem and keeps
one read-only memo entry per noise pair (``ModeSpace._cell``): the
multipliers xi_i + conj eta_i as coefficient arrays, the diagonal and
the spread read off them, and the generator from its first read on
(``ModeSpace._generator``).  So every route run on one problem builds a
pair's generator once, and each call charges the generators kept after
it against the dense budget (``ModeSpace.check_kept``).

Everything is Galerkin-compressed onto the modes |k|_inf <= cap; both
sides of every cross-check share that compression.  On that mode space
the generator has the closed form Psi(xi, eta) = L + sum_i
M(xi_i + conj eta_i) D_i (``ModeSpace.psi_matrix``), one dense N x N
array.  One index computation builds every mode-space operator,
sum_j M(c_j) diag(w_j) with entry [m, k] = sum_j c_j[m-k] w_j[k]
(``ModeSpace._assemble``): the multiplication operator
M(h)[m, k] = h_{m-k}, unit weights; the Gram matrix
<e_k v1, e_l v2> = (2 pi)^d (conj(v1) v2)_{k-l} of the pairing, the
multiplication operator of conj(v1) v2; and Psi, with L the weights
-|k|^2/2 on M(1) and D_i the weights i k_i.

A cell whose multipliers xi_i + conj eta_i are all constant, zero noise
included, has a diagonal generator, read off the coefficients
(``ModeSpace.diagonal``) and exponentiated entrywise; nothing N x N is
built for it.  Every other cell propagates by ``_expm_action``,
algorithm 3.2 of Al-Mohy & Higham (SIAM J. Sci. Comput. 33(2), 2011):
shift by the mean diagonal, take the Taylor degree m and the step count
s from a 1-norm bound, and stop each step's series once its terms fall
below the unit roundoff, taking the sum's norm only where that stop can
pass.  The pairing applies its generator to the
N x N kernel without storing the N^2 x N^2 superoperator.  Before a
call allocates anything N x N it reads (m, s) off a 1-norm bound taken
from the noise coefficients and charges m s applications against one
work budget (``spectral.check_work``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import (Callable, Dict, Iterable, List, NamedTuple, Optional,
                    Sequence, Tuple)

import numpy as np

from .errors import BasisMismatch, GeometryMismatch, NotPositive
from .fock import SimpleNoisePath, TimeMesh, noise_inner
from .spectral import (TWO_PI, OneForm, TrigPoly, check_dense, check_work,
                       exterior_derivative, flat_index, mode_grid, mul_free)

__all__ = [
    "ModeSpace",
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

class _Cell(NamedTuple):
    """One noise pair's multipliers c_i = xi_i + conj eta_i as a
    (d,) + (2r + 1,)^d coefficient stack at the larger cap r of xi and
    eta, with the diagonal and spread that ``ModeSpace.diagonal`` reads
    off them, and the generator once it is read (``ModeSpace._generator``)."""

    mult: np.ndarray
    diag: np.ndarray
    spread: float
    psi: Optional[np.ndarray] = None


class ModeSpace:
    """The lattice modes |k|_inf <= cap as a vector space.

    A vector is the C-order ravel of a ``TrigPoly`` coefficient array at
    this cap (``spectral.mode_grid`` lists the modes in that order), so
    operators are built by index arithmetic as dense N x N arrays.  The
    d x N mode grid is charged against the dense budget before it is
    built.

    A space computes each noise pair's multipliers once, on first use,
    and keeps them, with the diagonal and spread read off them, as long
    as it lives: a few N-vectors per pair, keyed by the pair's one-form
    objects.  The pair's generator joins them on its first read
    (``_generator``), one N x N array; every kept array is read-only.
    """

    __slots__ = ("dim", "cap", "_k", "_cells")

    def __init__(self, dim: int, cap: int):
        if dim < 1 or cap < 0:
            raise GeometryMismatch("mode space needs dim >= 1 and cap >= 0")
        self.dim = dim
        self.cap = cap
        self.check_dense(dim * (2 * cap + 1) ** dim, "mode grid")
        self._k = mode_grid(dim, cap)
        self._cells: Dict[Tuple[OneForm, OneForm], _Cell] = {}

    @property
    def size(self) -> int:
        return self._k.shape[0]

    def check_dense(self, entries: int, what: str) -> None:
        """Refuse an allocation of ``entries`` array entries past the
        dense budget (``spectral.check_dense``)."""
        check_dense(entries, what, self.cap, self.dim)

    def check_kept(self, working: int, pairs: Iterable[Tuple[OneForm, OneForm]],
                   what: str) -> None:
        """Charge a call's ``working`` N x N arrays against the dense budget
        with every generator kept after it: those kept and those of ``pairs``."""
        kept = {key for key, cell in self._cells.items() if cell.psi is not None}
        self.check_dense((working + len(kept.union(pairs))) * self.size ** 2, what)

    def to_vec(self, p: TrigPoly) -> np.ndarray:
        if p.dim != self.dim:
            raise GeometryMismatch("polynomial lives on a different torus")
        return p.with_cap(self.cap).coeffs.flatten()

    def from_vec(self, v: np.ndarray) -> TrigPoly:
        shape = (2 * self.cap + 1,) * self.dim
        return TrigPoly(self.dim, self.cap, np.array(v, dtype=complex).reshape(shape))

    def _assemble(self, coeffs: np.ndarray, weights: Sequence[np.ndarray],
                  what: str) -> np.ndarray:
        """sum_j M(c_j) diag(w_j) for the coefficient arrays c_j =
        ``coeffs[j]``, all at one cap, and the ``weights`` w_j: entry
        [m, k] = sum_j c_j[m - k] w_j[k] over the union of the c_j
        supports, with the modes escaping the cap dropped, in one dense
        array charged against the dense budget as ``what``."""
        self.check_dense(self.size ** 2, what)
        lift = coeffs.shape[1] // 2
        support = np.any(coeffs != 0, axis=0)
        mu = np.argwhere(support) - lift
        shift, col = np.nonzero(
            np.abs(self._k + mu[:, None]).max(axis=2) <= self.cap)
        vals = np.zeros(col.size, dtype=complex)
        for c, w in zip(coeffs[:, support], weights):
            vals += c[shift] * w[col]
        out = np.zeros((self.size, self.size), dtype=complex)
        # a (row, column) pair occurs once: distinct shifts of a column
        # land on distinct rows
        out[flat_index(self._k[col] + mu[shift], self.cap), col] = vals
        return out

    def _laplacian(self) -> np.ndarray:
        """The weights -|k|^2/2 of L = -Delta/2 on this space's modes."""
        return -0.5 * np.sum(self._k ** 2, axis=1)

    def _cell(self, xi: OneForm, eta: OneForm) -> _Cell:
        """The pair's multipliers c_i = xi_i + conj eta_i, the multiplier
        of the partial d_i in Psi, summed as coefficient arrays at one
        cap (conj eta_i is eta_i's array flipped and conjugated), with
        the diagonal and spread read off them; computed on the pair's
        first use and kept."""
        cell = self._cells.get((xi, eta))
        if cell is not None:
            return cell
        if xi.dim != self.dim or eta.dim != self.dim:
            raise GeometryMismatch("noise lives on a different torus")
        r = max(xi.cap, eta.cap)
        xs, es = (np.stack([c.with_cap(r).coeffs for c in form.comps])
                  for form in (xi, eta))
        mult = xs + np.flip(es, axis=tuple(range(1, self.dim + 1))).conj()
        centre = (slice(None),) + (r,) * self.dim
        diag = self._laplacian().astype(complex)
        for i, c0 in enumerate(mult[centre]):
            diag += c0 * (1j * self._k[:, i])
        # the off-centre entries summed as they are: sum |c| - |c_0|
        # would round a tiny coupling beside a unit centre down to 0
        off = np.abs(mult)
        off[centre] = 0
        for a in (mult, diag):
            a.flags.writeable = False
        cell = self._cells[xi, eta] = _Cell(mult, diag, self.cap * float(off.sum()))
        return cell

    def psi_matrix(self, xi: OneForm, eta: OneForm) -> np.ndarray:
        """Compression of psi(., xi, eta) = L + sum_i M(xi_i + conj eta_i) D_i.

        <d(x*), xi> = sum_i xi_i d_i x and <eta, dx> = sum_i conj(eta_i) d_i x,
        so only the multiplier of each partial depends on the noise.  L is
        M(1) with weights -|k|^2/2 and D_i the weights i k_i, so the
        generator is one ``_assemble`` of the pair's multipliers
        (``_cell``); with xi = eta = 0 it is the diagonal L = -Delta/2.
        """
        mult = self._cell(xi, eta).mult
        one = np.zeros((1,) + mult.shape[1:], dtype=complex)
        one[(0,) + (mult.shape[1] // 2,) * self.dim] = 1.0
        weights = [self._laplacian()] + [1j * self._k[:, i] for i in range(self.dim)]
        return self._assemble(np.concatenate([one, mult]), weights,
                              "mode-space generator")

    def _generator(self, xi: OneForm, eta: OneForm) -> np.ndarray:
        """``psi_matrix(xi, eta)``, built on the pair's first read and
        kept, read-only, in its memo entry (``_cell``) as long as the
        space lives; callers charge it with ``check_kept``."""
        cell = self._cell(xi, eta)
        if cell.psi is None:
            psi = self.psi_matrix(xi, eta)
            psi.flags.writeable = False
            cell = self._cells[xi, eta] = cell._replace(psi=psi)
        return cell.psi

    def diagonal(self, xi: OneForm, eta: OneForm) -> Tuple[np.ndarray, float]:
        """(diag, spread), read off the multipliers c_i of the pair
        (``_cell``, so computed once per pair and kept): the diagonal
        L + sum_i c_i[0] i k_i of ``psi_matrix(xi, eta)``, entry for
        entry and read-only, and spread = cap sum_i ||c_i - c_i[0]||_l1,
        which bounds the l1 norm of every row and column of the rest.  A
        zero spread means constant multipliers and a diagonal generator."""
        cell = self._cell(xi, eta)
        return cell.diag, cell.spread

    def gram_matrix(self, v1: TrigPoly, v2: TrigPoly) -> np.ndarray:
        """G[k,l] = <e_k v1, e_l v2> in L2 = (2 pi)^d (conj(v1) v2)_{k-l},
        the multiplication operator of the uncapped product conj(v1) v2."""
        h = mul_free(v1.conjugate(), v2)
        return TWO_PI ** self.dim * self._assemble(h.coeffs[None], [np.ones(self.size)],
                                                   "gram matrix")


#: theta_m: m Taylor terms of exp(A) meet double precision on a step with
#: ||A||_1 <= theta_m.  m <= 30 from table A.3 of Higham & Al-Mohy,
#: "Computing matrix functions", Acta Numerica 19 (2010), the rest from
#: table 3.1 of Al-Mohy & Higham (2011); the values scipy's
#: ``sparse.linalg._expm_multiply`` lists.
_THETA = {
    1: 2.29e-16, 2: 2.58e-8, 3: 1.39e-5, 4: 3.40e-4, 5: 2.40e-3,
    6: 9.07e-3, 7: 2.38e-2, 8: 5.00e-2, 9: 8.96e-2, 10: 1.44e-1,
    11: 2.14e-1, 12: 3.00e-1, 13: 4.00e-1, 14: 5.14e-1, 15: 6.41e-1,
    16: 7.81e-1, 17: 9.31e-1, 18: 1.09, 19: 1.26, 20: 1.44,
    21: 1.62, 22: 1.82, 23: 2.01, 24: 2.22, 25: 2.43,
    26: 2.64, 27: 2.86, 28: 3.08, 29: 3.31, 30: 3.54,
    35: 4.7, 40: 6.0, 45: 7.2, 50: 8.5, 55: 9.9,
}


def _taylor_steps(norm1: float) -> Tuple[int, int]:
    """(m, s), the Taylor degree and the step count that minimise m s
    with s = ceil(norm1 / theta_m); (0, 1) for a zero norm."""
    if norm1 == 0:
        return 0, 1
    best, cost = None, math.inf
    for m, theta in _THETA.items():
        s = math.ceil(norm1 / theta)
        if m * s < cost:  # strict, so the first minimum is kept
            best, cost = (m, s), m * s
    return best


def _expm_action(apply: Callable[[np.ndarray], np.ndarray], norm1: float,
                 mu: complex, b: np.ndarray) -> np.ndarray:
    """exp(mu + A) b, where ``apply(x)`` = A x and ``norm1`` >= ||A||_1.

    Algorithm 3.2 of Al-Mohy & Higham (2011) as scipy's ``expm_multiply``
    runs it: s steps of m Taylor terms each (``_taylor_steps``), a step
    ending early once two consecutive terms are below 2^-53 of the sum
    in the max norm, and e^{mu / s} multiplied in per step.  A larger
    ``norm1`` costs terms, not accuracy.

    The sum's max norm is taken only when the stop can pass.  ``bound``
    is at least the computed ||f||_inf: it starts at c1, since a step
    starts with f = b, and grows by each term's norm times 1 + 2^-48,
    which covers the complex add, the 1 ulp of ``np.abs`` and its own
    rounding, plus the least normal number, which covers subnormal
    round-off.  While c1 + c2 exceeds 2^-53 bound, the stop fails as it
    would on the exact norm; otherwise the exact norm decides and
    replaces the bound.  So every break, and every bit, is as with the
    norm taken at each term.
    """
    m, s = _taylor_steps(norm1)
    eta = np.exp(mu / s)
    tiny = float(np.finfo(float).tiny)
    f = b
    for _ in range(s):
        c1 = bound = float(np.abs(b).max())
        for j in range(m):
            b = (1.0 / (s * (j + 1))) * apply(b)
            c2 = float(np.abs(b).max())
            f = f + b
            bound = (bound + c2) * (1.0 + 2.0 ** -48) + tiny
            if c1 + c2 <= 2.0 ** -53 * bound:
                bound = float(np.abs(f).max())
                if c1 + c2 <= 2.0 ** -53 * bound:
                    break
            c1 = c2
        f = eta * f
        b = f
    return f


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

    @cached_property
    def space(self) -> ModeSpace:
        """x's mode space, made on first read and kept with the problem,
        so the routes run on one problem share what it keeps: each noise
        pair's multipliers and, once read, its generator."""
        return ModeSpace(self.dim, self.cap)

    def mesh(self) -> TimeMesh:
        return self.f.mesh.merged(self.g.mesh).refined_to(self.horizon)

    @cached_property
    def _cells(self) -> Tuple[Tuple[float, OneForm, OneForm], ...]:
        return tuple((b - a, self.f.value_at(a), self.g.value_at(a))
                     for a, b in self.mesh().cells())

    def cells(self) -> List[Tuple[float, OneForm, OneForm]]:
        """(width, f value, g value) per cell, earliest first; the same
        one-form objects on every call, so they key the space's memo."""
        return list(self._cells)


def _propagate(psi: np.ndarray, dt: float, y: np.ndarray) -> np.ndarray:
    """exp(dt psi) y for a dense generator ``psi``, left as it is: dt psi
    is formed anew, shifted by its mean diagonal, and the steps are
    chosen at its exact 1-norm."""
    a = dt * psi
    mu = np.trace(a) / a.shape[0]
    a.flat[:: a.shape[0] + 1] -= mu
    return _expm_action(a.__matmul__, float(np.abs(a).sum(axis=0).max()), mu, y)


def texp_matrix_element(p: FlowProblem) -> complex:
    """exp(<g,f>) <u, (E_1 ... E_m)(x) v> with E_j = exp(dt_j Psi_j).

    The earliest interval sits outermost, so the latest propagator hits x
    first.  The final multiplication by v and the pairing against u are
    taken uncapped; only the evolution itself is compressed.  A cell
    with a diagonal generator propagates entrywise; every other cell's
    Taylor steps are charged against the work budget, at N^2 per
    mat-vec, and its arrays against the dense budget with every
    generator kept after the call, before any generator is built.  The
    diagonals and generators come from the problem's space
    (``FlowProblem.space``), so no route of the problem builds one twice.
    """
    space = p.space
    size = space.size
    cells = [(dt, fc, gc) + space.diagonal(fc, gc) for dt, fc, gc in p.cells()]
    # m s mat-vecs per noisy cell, at ||Psi - mu||_1 <= max |diag - mu| + spread
    steps = sum(math.prod(_taylor_steps(dt * (np.abs(d - d.mean()).max() + spread)))
                for dt, _, _, d, spread in cells if spread)
    if steps:  # a noisy cell's scaled generator and its absolute values
        space.check_kept(2, [(fc, gc) for _, fc, gc, _, spread in cells if spread],
                         "coherent propagation")
    check_work(steps * size ** 2, "coherent propagation", p.cap, p.dim)
    y = space.to_vec(p.x)
    for dt, fc, gc, diag, spread in reversed(cells):
        if spread:
            y = _propagate(space._generator(fc, gc), dt, y)
        else:
            y = np.exp(dt * diag) * y
    y = space.from_vec(y)
    return np.exp(noise_inner(p.g, p.f)) * p.u.l2_inner(mul_free(y, p.v))


def _graded(space: ModeSpace, cells: List[Tuple[float, OneForm, OneForm]],
            start: np.ndarray, n_max: int) -> List[np.ndarray]:
    """Orders 0..n_max of E_1 ... E_m start, E_j = exp(dt_j Psi_j), by
    Taylor recursion, latest cell first so the earliest sits outermost.

    ``cells`` are (width, xi, eta) and ``start`` is a vector or a matrix
    of columns.  Each cell's generator is read off the space
    (``ModeSpace._generator``).  The loop moves the orders present up
    one order per step, adds the step into them in place and drops the
    orders past n_max, which is what ends it.
    """
    graded = [start]
    for dt, xi, eta in reversed(cells):
        psi = space._generator(xi, eta)
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
    prefactor * s_const**(N+1) * e**s_const / (N+1)!, inf only where that
    bound overflows a float (``tail_bound``).

    ``blocks[n]`` is the order-n block before pairing, and
    ``block_norms[n]`` its operator norm; both are computed on first read,
    the blocks by the terms' Taylor recursion run from the identity on the
    kept ``cells`` (width, xi, eta), earliest first, on ``space``.  The
    first read charges the blocks and one Taylor step's terms against
    the dense budget, with every cell's generator, which the space keeps
    (``ModeSpace.check_kept``).  Scalar terms
    can dip through zero by cancellation, so decay diagnostics should read
    the block norms instead.
    """

    terms: List[complex]
    s_const: float
    prefactor: float
    space: ModeSpace = field(repr=False)
    cells: List[Tuple[float, OneForm, OneForm]] = field(repr=False)

    @cached_property
    def blocks(self) -> List[np.ndarray]:
        self.space.check_kept(2 * len(self.terms),
                              [(xi, eta) for _, xi, eta in self.cells],
                              "picard graded blocks")
        return _graded(self.space, self.cells,
                       np.eye(self.space.size, dtype=complex), len(self.terms) - 1)

    @cached_property
    def block_norms(self) -> List[float]:
        return [float(np.linalg.norm(a, 2)) for a in self.blocks]

    def partial_sum(self, n_max: Optional[int] = None) -> complex:
        terms = self.terms if n_max is None else self.terms[: n_max + 1]
        return sum(terms)

    def tail_bound(self, after: int) -> float:
        """prefactor * s^(N+1) * e^s / (N+1)! for N = ``after``.  Where a
        factor or a partial product leaves the float range the bound is
        summed in log space and rounded up: at least the smallest
        subnormal, inf only where the bound itself overflows.  A positive
        finite bound of the float formula is returned as it is."""
        p, s = self.prefactor, self.s_const
        try:
            bound = p * s ** (after + 1) * math.exp(s) / math.factorial(after + 1)
            if 0.0 < bound < math.inf or not (0.0 < p < math.inf and 0.0 < s < math.inf):
                return bound
        except OverflowError:
            if not (p and s):
                return 0.0
        terms = (math.log(p), (after + 1) * math.log(s), s, -math.lgamma(after + 2))
        # each term is within a few ulps of its size, and exp within one
        # ulp of its result: 2^-40 of the sizes covers both, with room
        log_bound = math.fsum(terms) + 2.0 ** -40 * sum(map(abs, terms))
        try:
            return math.nextafter(math.exp(log_bound), math.inf)
        except OverflowError:  # a bound that certifies nothing
            return math.inf


def picard_terms(p: FlowProblem, n_max: int) -> PicardSeries:
    """Orders 0..n_max of the iterated-integral expansion.

    Per interval the simplex integrals of a constant generator collapse
    to the Taylor terms (dt Psi)^k / k!, so the order-n block is the
    degree-n part of the product of the interval exponentials, applied
    latest interval first so the earliest sits outermost, as in the
    exponential route.  The recursion (``_graded``) propagates the
    argument vector x, so order n is the N-vector y_n = block_n x and each
    step is a mat-vec; the N x N blocks are formed, and charged
    against the dense budget, only when read (``PicardSeries.blocks``).
    s_const sums dt ||Psi||_2 in cell order off the generators the space
    keeps (``ModeSpace._generator``), which the recursion then reads.
    Every term is read off one functional: <u, y v> = <conj(v) u, y>, so
    w = conj(v) u is formed once and terms[n] = exp(<g, f>) <w, y_n>.
    """
    if n_max < 0:
        raise GeometryMismatch("n_max must be nonnegative")
    space = p.space
    cells = p.cells()
    # an SVD's copy of one generator, beside every cell's generator
    space.check_kept(1, [(xi, eta) for _, xi, eta in cells], "picard generator SVD")
    s_const = 0.0
    for dt, xi, eta in cells:
        s_const += dt * float(np.linalg.norm(space._generator(xi, eta), 2))
    xv = space.to_vec(p.x)
    graded = _graded(space, cells, xv, n_max)
    coh = np.exp(noise_inner(p.g, p.f))
    w = mul_free(p.v.conjugate(), p.u)
    terms = [coh * w.l2_inner(space.from_vec(y)) for y in graded]
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

    A cell propagates W by W -> A^H W + W B + K o W with A = dt Psi(f1, f2),
    B = dt Psi(f2, f1) and K = dt k.l, applied to the N x N kernel; the
    N^2 x N^2 superoperator is never stored.  Its mean diagonal is
    mu = (N (tr A^H + tr B) + sum K) / N^2, where sum K = |sum_k k|^2 = 0.
    The Taylor steps are chosen at its exact 1-norm after the shift,
    read column by column off A, B and K.  With constant multipliers A
    and B are diagonal and so is the superoperator: it acts entrywise.

    The kernel is checked against the dense budget, and every cell's
    Taylor steps against the work budget, before anything N x N is
    allocated: at 2 N^3 + N^2 multiply-adds per application and at the
    1-norm bound ||A^H||_1 + ||B||_inf + max |K - mu|, with ||A||_inf
    read off the coefficients (``ModeSpace.diagonal``); the generators
    the space keeps after the call are charged with the kernel.  The
    diagonals and generators come from p1's space
    (``FlowProblem.space``), so a pair (f1, f2) is read once per cell
    when f1 is f2, and a matrix element of p1 builds none of them again.
    """
    if p1.dim != p2.dim or p1.cap != p2.cap:
        raise BasisMismatch("flow problems use different mode spaces")
    if p1.mesh() != p2.mesh():
        raise BasisMismatch("flow problems use different time meshes")
    space = p1.space
    size = space.size
    reach = p1.dim * p1.cap ** 2  # k.l runs over [-reach, reach], both ends
    cells = []
    steps = 0
    for (dt, f1c, _), (_, f2c, _) in zip(p1.cells(), p2.cells()):
        (da, sa), (db, sb) = space.diagonal(f1c, f2c), space.diagonal(f2c, f1c)
        mu = dt * (da.sum().conjugate() + db.sum()) / size
        if sa + sb:
            # ||A^H||_1 = ||A||_inf <= max |diag A| + spread, B alike
            steps += math.prod(_taylor_steps(
                dt * (np.abs(da).max() + sa + np.abs(db).max() + sb)
                + max(abs(dt * reach - mu), abs(dt * reach + mu))))
        cells.append((dt, f1c, f2c, da, db, mu, sa + sb))
    # the kernel, k.l, the scaled generators and a Taylor step's terms:
    # at most 12 N x N arrays at once, beside the generators kept
    space.check_kept(12, [pair for _, f1c, f2c, *_, spread in cells if spread
                          for pair in ((f1c, f2c), (f2c, f1c))], "flow pairing kernel")
    check_work(steps * (2 * size ** 3 + size ** 2), "flow pairing propagation",
               p1.cap, p1.dim)
    k = space._k
    kl = (k @ k.T).astype(complex)
    w = space.gram_matrix(p1.v, p2.v)
    for dt, f1c, f2c, da, db, mu, spread in cells:
        if not spread:
            w = np.exp(dt * ((da.conj()[:, None] + db) + kl)) * w
            continue
        a = dt * space._generator(f1c, f2c)
        b = a if f2c is f1c else dt * space._generator(f2c, f1c)
        ah = a.conj().T
        shifted = dt * kl - mu
        # the shifted superoperator's exact 1-norm: its column (k, l) holds
        # row k of A and row l of B off their diagonals, and one diagonal entry
        off_a, off_b = (np.abs(m).sum(axis=1) - np.abs(np.diag(m)) for m in (a, b))
        cols = off_a[:, None] + off_b + np.abs(np.diag(a).conj()[:, None] + np.diag(b) + shifted)
        w = _expm_action(lambda x: ah @ x + x @ b + shifted * x,
                         float(cols.max()), mu, w)
    x1, x2 = space.to_vec(p1.x), space.to_vec(p2.x)
    total = complex(np.vdot(x1, w @ x2))
    return np.exp(noise_inner(p1.f, p2.f)) * total


@dataclass
class FactorizationReport:
    """Cross-check of the flow pairing against the transported product."""

    lhs: complex
    rhs: complex
    residual: float
    bound: float


def factorization_check(a1: TrigPoly, a2: TrigPoly,
                        f1: SimpleNoisePath, f2: SimpleNoisePath,
                        v1: TrigPoly, v2: TrigPoly,
                        t: float) -> FactorizationReport:
    """|<J(a1 (x) Ef1)v1, J(a2 (x) Ef2)v2> - <v1 Ef1, J(a1* a2 (x) Ef2)v2>|.

    The identity is exact for the uncompressed flow, so the residual of
    the two full-series routes is compression error.  The reported bound
    is four times the measured sensitivity of both routes to raising the
    mode cap by two, plus a float slop.  Every pairing and matrix
    element, the cap + 2 pass included, checks its kernel against the
    dense budget and its Taylor steps against the work budget before
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
    return FactorizationReport(lhs, rhs, residual, bound)


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
    ``texp_matrix_element`` and the norm the kernel pairing ``flow_inner``,
    both of one problem (x, f, f, v, v, t), since the pairing ignores the
    bra path: the pairing builds the sample's generator Psi(f, f) and
    the problem's space keeps it, so the matrix element reads it there
    and it is built once per sample.  x must be
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
        prob = FlowProblem(x, f, f, v, v, t)
        norm_sq = flow_inner(prob, prob).real
        pairing = texp_matrix_element(prob)
        theta_sq = math.exp(noise_inner(f, f).real) * v.l2_norm() ** 2
        ratio = math.sqrt(max(norm_sq, 0.0) / theta_sq)
        min_pair = min(min_pair, pairing.real)
        max_ratio = max(max_ratio, ratio)
        rows.append((pairing.real, ratio))
    return PositivityReport(min_pair, max_ratio, sup_x, rows)
