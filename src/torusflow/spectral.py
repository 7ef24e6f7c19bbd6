"""Exact spectral calculus on the flat torus T^d = R^d / (2*pi*Z)^d.

The function algebra is the space of finite trigonometric polynomials
f(x) = sum_k c_k e^{i k.x} on the modes |k|_inf <= cap.  A polynomial
stores its coefficients as one dense complex array of shape
(2 cap + 1,)^d, with the coefficient of mode k at index k + cap; the
C-order ravel of that array is the mode-space vector layout of
``flow.ModeSpace`` (see ``mode_grid``), so this module alone decides the
layout.  Every value carries a hard mode cap: an operation whose exact
result needs a mode with |k|_inf above the cap raises CapExceeded rather
than aliasing or projecting.  No value depends on the cap: pairings,
norms, sup brackets and grids read the box of the mode radius
(``TrigPoly._support``), which no cap moves.

Every product is one batched FFT pair (``mul_free``), exact at the
lifted cap ra + rb, that keeps each mode no pair of nonzero coefficients
reaches an exact zero, and every sum is exact at the larger of its
operands' caps; a smaller cap is applied by ``TrigPoly.with_cap``.
One dense budget (``check_dense``) bounds the array entries a call may
allocate: a product's FFT stack, a sampled polynomial
(``sampling.poly``) and the mode-space arrays of ``flow``; one work
budget (``check_work``) bounds the multiply-adds of a ``flow``
propagation.

Integrals and identities are read off the coefficients (Parseval,
``TrigPoly.l2_inner``); a grid is read only for a supremum, as a bracket
off one exact grid (``TrigPoly.sup_norm``).
Where the sup sits on the bound side, callers take the grid max
(``structure.sobolev_w2inf_norm``, ``flow.positivity_probe``); where it
is compared against a bound, the certified upper end
(``structure.nested_phi_growth``).

Conventions used throughout the package:

* the Laplacian has nonnegative spectrum, Delta e^{i k.x} = |k|^2 e^{i k.x}
  (equivalently Delta = -sum_i d^2/dx_i^2);
* all sesquilinear pairings conjugate their FIRST argument;
* the metric is the identity in coordinates, so covariant derivatives are
  plain coordinate partials and tensor contractions are index sums.
"""

from __future__ import annotations

import math
from functools import lru_cache, reduce
from itertools import product as iter_product
from operator import add
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

import numpy as np

from .errors import CapExceeded, GeometryMismatch, RankMismatch

ModeKey = Tuple[int, ...]

TWO_PI = 2.0 * math.pi

#: hard budget on the array entries one call allocates: a product's FFT
#: stack, a sampled coefficient box, and the mode-space arrays of ``flow``
#: (generators, Picard blocks, Gram matrices, pairing kernels)
_DENSE_BUDGET = 1 << 24

#: hard budget on the complex multiply-adds of one ``flow`` call's
#: propagations, Taylor terms times the cost of one generator application
#: (a call at the budget ran about 0.5 s as a pairing, 2-6 s as mat-vecs,
#: on a 2-core host with one BLAS thread)
_WORK_BUDGET = 1 << 33


def check_dense(entries: int, what: str, cap: int, dim: int) -> None:
    """Refuse an allocation of ``entries`` array entries past the budget,
    naming the cap and the dim that set its size."""
    if entries > _DENSE_BUDGET:
        raise CapExceeded(
            f"{what} needs {entries} dense entries at cap {cap}, "
            f"dim {dim} (budget {_DENSE_BUDGET}); lower the cap"
        )


def check_work(work: int, what: str, cap: int, dim: int) -> None:
    """Refuse a propagation of ``work`` multiply-adds past the budget,
    naming the cap and the dim that set its size."""
    if work > _WORK_BUDGET:
        raise CapExceeded(
            f"{what} needs {work} multiply-adds at cap {cap}, "
            f"dim {dim} (work budget {_WORK_BUDGET}); lower the cap"
        )


# ----------------------------------------------------------------------
# the coefficient layout (cached grids are shared, so they are read-only)


@lru_cache(maxsize=None)
def _axis_modes(dim: int, cap: int) -> Tuple[np.ndarray, ...]:
    """Per-axis mode numbers k_i, shaped to broadcast over the array."""
    grids = tuple(np.ogrid[(slice(-cap, cap + 1),) * dim])
    for k in grids:
        k.flags.writeable = False
    return grids


@lru_cache(maxsize=None)
def _mode_sq(dim: int, cap: int) -> np.ndarray:
    """|k|^2 over the coefficient array."""
    out = sum(k * k for k in _axis_modes(dim, cap)).astype(float)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def _mode_inf(dim: int, cap: int) -> np.ndarray:
    """|k|_inf over the coefficient array, in the smallest integer type."""
    out = reduce(np.maximum, map(np.abs, _axis_modes(dim, cap))).astype(np.min_scalar_type(cap))
    out.flags.writeable = False
    return out


def mode_grid(dim: int, cap: int) -> np.ndarray:
    """The modes |k|_inf <= cap as rows of an (N, dim) array, in the
    C-order ravel of the coefficient array (lexicographic order)."""
    return np.indices((2 * cap + 1,) * dim).reshape(dim, -1).T - cap


def flat_index(modes, cap: int) -> np.ndarray:
    """Positions of the rows of ``modes`` in the C-order ravel of a cap
    ``cap`` coefficient array; a mode past the cap raises CapExceeded."""
    modes = np.asarray(modes, dtype=np.int64)
    over = np.flatnonzero(np.abs(modes).max(axis=1) > cap)
    if over.size:
        k = tuple(modes[over[0]].tolist())
        raise CapExceeded(f"mode {k} exceeds the working cap {cap}")
    shape = (2 * cap + 1,) * modes.shape[1]
    return np.ravel_multi_index(tuple((modes + cap).T), shape)


def _box(dim: int, cap: int, inner: int) -> Tuple[slice, ...]:
    """The modes |k|_inf <= inner inside a cap ``cap`` array."""
    return (slice(cap - inner, cap + inner + 1),) * dim


def _radius(arr: np.ndarray, cap: int) -> int:
    """Largest |k|_inf of a nonzero entry (0 if there is none)."""
    return int(_mode_inf(arr.ndim, cap).max(initial=0, where=arr != 0))


class TrigPoly:
    """A finite trigonometric polynomial with a hard mode cap.

    ``TrigPoly(dim, cap, {mode: coeff})`` places the given coefficients;
    a dense complex array of shape (2 cap + 1,)^d is adopted as the
    coefficient array itself (and made read-only).  Instances are
    immutable; all arithmetic returns new objects.  A sum is taken at
    the larger of the two caps, the smaller operand zero-padded, as a
    product is taken at the lifted cap; ``*`` scales by a number only,
    and the product of two polynomials is ``mul_free``.
    """

    __slots__ = ("dim", "cap", "_a", "_r")

    def __init__(self, dim: int, cap: int,
                 coeffs: Union[Mapping[ModeKey, complex], np.ndarray, None] = None):
        if dim < 1:
            raise GeometryMismatch(f"dimension must be >= 1, got {dim}")
        if cap < 0:
            raise GeometryMismatch(f"cap must be >= 0, got {cap}")
        self.dim = int(dim)
        self.cap = int(cap)
        shape = (2 * self.cap + 1,) * self.dim
        if isinstance(coeffs, np.ndarray):
            arr = coeffs.astype(complex, copy=False)
            if arr.shape != shape:
                raise GeometryMismatch(
                    f"coefficient array of shape {arr.shape}, expected {shape}")
        else:
            arr = np.zeros(shape, dtype=complex)
            for k, c in (coeffs or {}).items():
                if len(k) != dim:
                    raise GeometryMismatch(
                        f"mode {tuple(k)} has length {len(k)}, expected {dim}")
                if complex(c) == 0:
                    continue
                if max(abs(int(v)) for v in k) > cap:
                    raise CapExceeded(f"mode {tuple(k)} exceeds cap {cap}")
                arr[tuple(int(v) + cap for v in k)] = c
        arr.flags.writeable = False
        self._a = arr
        self._r: Optional[int] = None

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, dim: int, cap: int) -> "TrigPoly":
        return cls(dim, cap)

    @classmethod
    def constant(cls, value: complex, dim: int, cap: int) -> "TrigPoly":
        return cls(dim, cap, {(0,) * dim: complex(value)})

    @classmethod
    def one(cls, dim: int, cap: int) -> "TrigPoly":
        return cls.constant(1.0, dim, cap)

    @classmethod
    def mode(cls, k, dim: int, cap: int, amplitude: complex = 1.0) -> "TrigPoly":
        """The pure oscillation amplitude * e^{i k.x}."""
        return cls(dim, cap, {tuple(k): complex(amplitude)})

    @classmethod
    def cosine(cls, k, dim: int, cap: int) -> "TrigPoly":
        return cls.mode(k, dim, cap, 0.5) + cls.mode([-v for v in k], dim, cap, 0.5)

    @classmethod
    def sine(cls, k, dim: int, cap: int) -> "TrigPoly":
        return cls.mode(k, dim, cap, -0.5j) + cls.mode([-v for v in k], dim, cap, 0.5j)

    # ------------------------------------------------------------------
    # inspection

    @property
    def coeffs(self) -> np.ndarray:
        """The read-only coefficient array; mode k sits at index k + cap."""
        return self._a

    def coeff(self, k) -> complex:
        k = tuple(int(v) for v in k)
        if len(k) != self.dim:
            raise GeometryMismatch(f"mode {k} has length {len(k)}, expected {self.dim}")
        if max(abs(v) for v in k) > self.cap:
            return 0.0 + 0.0j
        return complex(self._a[tuple(v + self.cap for v in k)])

    def items(self) -> List[Tuple[ModeKey, complex]]:
        """(mode, coefficient) for every nonzero coefficient, in C order."""
        nz = np.nonzero(self._a)
        modes = (np.stack(nz, axis=1) - self.cap).tolist()
        return list(zip(map(tuple, modes), self._a[nz].tolist()))

    def __len__(self) -> int:
        return int(np.count_nonzero(self._a))

    def is_zero(self, tol: float = 0.0) -> bool:
        return not (self._a.any() if tol == 0 else (np.abs(self._a) > tol).any())

    def is_selfadjoint(self) -> bool:
        """f = f* as a function, i.e. coeff(-k) = conj(coeff(k)) to 1e-12."""
        return not np.any(np.abs(np.flip(self._a) - self._a.conj()) > 1e-12)

    def max_abs_mode(self) -> int:
        """Largest |k|_inf actually present (0 for the zero polynomial),
        computed on first read and kept: the coefficients never change."""
        if self._r is None:
            self._r = _radius(self._a, self.cap)
        return self._r

    def _support(self, r: Optional[int] = None) -> np.ndarray:
        """A view of the coefficients on the box |k|_inf <= r <= cap, by
        default the box of the mode radius, which no cap moves."""
        return self._a[_box(self.dim, self.cap, self.max_abs_mode() if r is None else r)]

    def coeff_l1(self) -> float:
        return float(np.abs(self._support()).sum())

    # ------------------------------------------------------------------
    # ring structure

    def _new(self, arr: np.ndarray) -> "TrigPoly":
        return TrigPoly(self.dim, self.cap, arr)

    def __add__(self, other):
        """The sum at the larger of the two caps."""
        if isinstance(other, (int, float, complex)):
            other = TrigPoly.constant(other, self.dim, self.cap)
        if not isinstance(other, TrigPoly):
            raise TypeError(f"expected TrigPoly, got {type(other)!r}")
        if self.dim != other.dim:
            raise GeometryMismatch(f"summands live on tori of dimension "
                                   f"{self.dim} and {other.dim}")
        if self.cap == other.cap:
            return self._new(self._a + other._a)
        cap = max(self.cap, other.cap)
        return TrigPoly(self.dim, cap, self.with_cap(cap)._a + other.with_cap(cap)._a)

    __radd__ = __add__

    def __neg__(self):
        return self._new(-self._a)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self._new(complex(other) * self._a)
        return NotImplemented

    __rmul__ = __mul__

    def conjugate(self) -> "TrigPoly":
        """Complex conjugate as a function: coeff(k) -> conj(coeff(-k))."""
        return self._new(np.flip(self._a).conj())

    def with_cap(self, cap: int) -> "TrigPoly":
        """Same polynomial under a different truncation budget: the one
        place a cap is applied.  Raises CapExceeded if a nonzero mode lies
        past ``cap``; a crop is copied, so the result does not keep the
        larger array alive."""
        if cap == self.cap:
            return self
        if cap < self.cap:
            if self.max_abs_mode() > cap:
                raise CapExceeded(
                    f"mode radius {self.max_abs_mode()} exceeds cap {cap}")
            return TrigPoly(self.dim, cap, self._support(cap).copy())
        out = np.zeros((2 * cap + 1,) * self.dim, dtype=complex)
        out[_box(self.dim, cap, self.cap)] = self._a
        return TrigPoly(self.dim, cap, out)

    # ------------------------------------------------------------------
    # analysis

    def partial(self, axis: int) -> "TrigPoly":
        """Coordinate partial derivative d/dx_axis (mode caps unchanged)."""
        if not (0 <= axis < self.dim):
            raise GeometryMismatch(f"axis {axis} out of range for dim {self.dim}")
        return self._new(self._a * (1j * _axis_modes(self.dim, self.cap)[axis]))

    def laplacian(self) -> "TrigPoly":
        """Nonnegative Laplacian: coeff(k) -> |k|^2 coeff(k)."""
        return self._new(self._a * _mode_sq(self.dim, self.cap))

    def heat(self, t: float, halved: bool = False) -> "TrigPoly":
        """Heat semigroup e^{-t Delta} (or e^{-t Delta / 2} if halved).

        The factor is a complex exponential, the same one the flow's
        zero-noise propagator takes, so the two agree bitwise.
        """
        if t < 0:
            raise ValueError(f"heat semigroup needs t >= 0, got {t}")
        rate = -t / (2.0 if halved else 1.0)
        return self._new(self._a * np.exp(rate * _mode_sq(self.dim, self.cap) + 0j))

    def l2_inner(self, other: "TrigPoly") -> complex:
        """(2*pi)^d sum_k conj(a_k) b_k, conjugate linear in self, over the
        box of the smaller mode radius: every mode where both are nonzero."""
        if self.dim != other.dim:
            raise GeometryMismatch("l2 pairing across different dimensions")
        r = min(self.max_abs_mode(), other.max_abs_mode())
        dot = np.vdot(self._support(r), other._support(r))
        return complex(dot) * TWO_PI ** self.dim

    def l2_norm(self) -> float:
        return math.sqrt(max(self.l2_inner(self).real, 0.0))

    def values_on_grid(self, n: int) -> np.ndarray:
        """Exact values on the uniform n^d grid x_j = 2*pi*j/n.

        Requires n > 2 * max_abs_mode so distinct modes land in distinct
        FFT bins; this makes the inverse FFT an exact evaluation.
        """
        r = self.max_abs_mode()
        if n <= 2 * r:
            raise ValueError(f"grid size {n} too small for modes up to {r}")
        bins = np.arange(-r, r + 1) % n
        arr = np.zeros((n,) * self.dim, dtype=complex)
        arr[np.ix_(*([bins] * self.dim))] = self._support()
        return np.fft.ifftn(arr) * (n ** self.dim)

    def _sup_grid(self) -> Tuple[np.ndarray, float]:
        """Exact values on the ``sup_grid_size`` grid, and the slack
        (pi / n) sum_k |k|_1 |c_k| by which |f| can move off a node: each
        coordinate is within pi / n of one and |d_i f| <= sum |k_i c_k|."""
        n = sup_grid_size(self.max_abs_mode())
        k1 = sum(np.abs(k) for k in _axis_modes(self.dim, self.max_abs_mode()))
        slack = math.pi / n * float(np.sum(k1 * np.abs(self._support())))
        return self.values_on_grid(n), slack

    def sup_norm(self) -> Tuple[float, float]:
        """(lower, upper) around sup |f|: the grid max, and the grid max
        plus the slack of ``_sup_grid`` capped at the coefficient l1 norm."""
        vals, slack = self._sup_grid()
        top = float(np.abs(vals).max())
        return top, min(top + slack, self.coeff_l1())

    def __repr__(self):
        terms = ", ".join(f"{k}: {c:.6g}" for k, c in self.items())
        return f"TrigPoly(dim={self.dim}, cap={self.cap}, {{{terms}}})"


# ----------------------------------------------------------------------
# module-level operations (the public op surface)


def mul_free(a: TrigPoly, b: TrigPoly) -> TrigPoly:
    """Pointwise product at the lifted cap ra + rb (the cap never makes it
    raise CapExceeded; only the dense budget does, below); ``with_cap``
    applies a smaller cap.

    One batched FFT pair on the (2r + 1)^d box, r = ra + rb, which holds
    the linear convolution without wrap; the stack of four such boxes is
    charged against the dense budget before it is allocated.  The 0/1
    support masks ride along and their product counts the pairs that
    reach each mode.  A mode none reaches is set to exact 0, so the radius
    follows from the supports alone; a reached mode that cancels holds
    round-off.  A zero factor reaches no mode: its product is the exact
    zero at cap r, formed with no FFT.
    """
    if a.dim != b.dim:
        raise GeometryMismatch("operands live on tori of different dimension")
    ra, rb = a.max_abs_mode(), b.max_abs_mode()
    r = ra + rb
    shape, axes = (2 * r + 1,) * a.dim, tuple(range(1, a.dim + 1))
    check_dense(4 * (2 * r + 1) ** a.dim, "product FFT stack", r, a.dim)
    if a.is_zero() or b.is_zero():
        return TrigPoly(a.dim, r)  # no pair reaches any mode
    stack = np.zeros((4,) + shape, dtype=complex)
    # each support box sits at the origin corner
    stack[(0,) + _box(a.dim, ra, ra)] = a._support()
    stack[(1,) + _box(a.dim, rb, rb)] = b._support()
    stack[2:] = stack[:2] != 0
    # NumPy 2 warns without ``axes``; ``s`` spares it a shape lookup per call
    f = np.fft.fftn(stack, s=shape, axes=axes)
    out, reach = np.fft.ifftn(f[0::2] * f[1::2], s=shape, axes=axes)
    out[reach.real < 0.5] = 0
    # ``out`` is a view into the inverse-FFT stack: copy it, so the
    # product does not keep that stack alive
    return TrigPoly(a.dim, r, out.copy())


def sup_grid_size(radius: int) -> int:
    """The smallest power of two above 2 * radius: the grid on which the
    modes |k|_inf <= radius land in distinct FFT bins."""
    return 1 << (2 * radius).bit_length()


# ----------------------------------------------------------------------
# covariant tensors (iterated coordinate partials; Christoffels vanish)


class CovariantTensor:
    """A rank-k covariant tensor with TrigPoly components.

    On the flat torus the covariant derivative is the coordinate partial,
    so nabla^k f is the symmetric tensor of k-fold partials.  Components
    are stored densely over all d^k index tuples (d and k are tiny here).
    """

    __slots__ = ("dim", "cap", "rank", "comps")

    def __init__(self, dim: int, cap: int, rank: int, comps: Dict[Tuple[int, ...], TrigPoly]):
        self.dim = dim
        self.cap = cap
        self.rank = rank
        self.comps = comps

    def component(self, idx: Tuple[int, ...]) -> TrigPoly:
        return self.comps[tuple(idx)]

    def length_on_grid(self, n: int) -> np.ndarray:
        """ell(t) = sqrt(sum_I |t_I|^2) on the uniform n^d grid, from the
        components' exact grid values (n > 2 * their mode radius)."""
        return np.sqrt(sum(np.abs(c.values_on_grid(n)) ** 2
                           for c in self.comps.values()))


def covariant_derivative(f: TrigPoly, order: int) -> CovariantTensor:
    """nabla^order f as a CovariantTensor (order 0 wraps f itself)."""
    if order < 0:
        raise RankMismatch(f"derivative order must be >= 0, got {order}")
    comps: Dict[Tuple[int, ...], TrigPoly] = {}
    for idx in iter_product(range(f.dim), repeat=order):
        poly = f
        for ax in idx:
            poly = poly.partial(ax)
        comps[idx] = poly
    return CovariantTensor(f.dim, f.cap, order, comps)


def tensor_inner(s: CovariantTensor, t: CovariantTensor) -> TrigPoly:
    """Pointwise full contraction <s, t> = sum_I conj(s_I) t_I.

    Conjugation of the first argument is function conjugation.  The result
    is returned in a lifted cap (contraction is a pairing, not an algebra
    element under the caller's budget).
    """
    if s.rank != t.rank:
        raise RankMismatch(f"cannot contract rank {s.rank} against rank {t.rank}")
    if s.dim != t.dim:
        raise GeometryMismatch("tensors live on tori of different dimension")
    return reduce(add, (mul_free(s.component(idx).conjugate(), t.component(idx))
                        for idx in iter_product(range(s.dim), repeat=s.rank)))


def pointwise_length_sq(s: CovariantTensor) -> TrigPoly:
    """ell(s)^2 = <s, s>, a real nonnegative function."""
    return tensor_inner(s, s)


# ----------------------------------------------------------------------
# one-forms


class OneForm:
    """A differential one-form sum_i w_i dx^i with TrigPoly coefficients."""

    __slots__ = ("dim", "cap", "comps")

    def __init__(self, comps: Iterable[TrigPoly]):
        comps = tuple(comps)
        if not comps:
            raise GeometryMismatch("a one-form needs at least one component")
        dim = comps[0].dim
        cap = comps[0].cap
        for c in comps:
            if c.dim != dim or c.cap != cap:
                raise GeometryMismatch("one-form components do not share geometry")
        if len(comps) != dim:
            raise GeometryMismatch(f"{len(comps)} components for dimension {dim}")
        self.dim = dim
        self.cap = cap
        self.comps = comps

    @classmethod
    def zero(cls, dim: int, cap: int) -> "OneForm":
        return cls(tuple(TrigPoly.zero(dim, cap) for _ in range(dim)))

    def is_zero(self, tol: float = 0.0) -> bool:
        return all(c.is_zero(tol) for c in self.comps)

    def k0_inner(self, other: "OneForm") -> complex:
        """Hilbert inner product on L2 one-forms: integral of <w, e> over M."""
        if self.dim != other.dim:
            raise GeometryMismatch("pairing one-forms of different dimension")
        return sum(a.l2_inner(b) for a, b in zip(self.comps, other.comps))

    def __repr__(self):
        return f"OneForm({', '.join(repr(c) for c in self.comps)})"


def exterior_derivative(f: TrigPoly) -> OneForm:
    """df = sum_i (d_i f) dx^i."""
    return OneForm(tuple(f.partial(i) for i in range(f.dim)))


def form_inner(w: OneForm, e: OneForm) -> TrigPoly:
    """Pointwise pairing <w, e> = sum_i conj(w_i) e_i as a function.

    Conjugate linear in the first argument; coincides with the plain
    unconjugated pairing when the first argument is self-adjoint.
    """
    if w.dim != e.dim:
        raise GeometryMismatch("pairing one-forms of different dimension")
    return reduce(add, (mul_free(a.conjugate(), b)
                        for a, b in zip(w.comps, e.comps)))
