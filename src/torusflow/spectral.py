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
(``TrigPoly._support``), which no cap moves.  The radius and that box
are derived state only: each polynomial finds them from its own array
on first read and keeps them, and no operation hands them to another.

Every product (``mul_free``) is exact at the lifted cap ra + rb and keeps
each mode no pair of nonzero coefficients reaches an exact zero.  A small
product is a direct sum over the pairs (``_direct_product``), where such
a mode sums exact zeros; a large one is one FFT pair on its two data
boxes (``_fft_product``), and its 0/1 masks go through a second pair,
to find the unreached modes, only when some mode of the data's product
lies at or below the FFT's round-off level, as every unreached mode does.
Every sum is exact at the larger of its operands' caps; a smaller cap is
applied by ``TrigPoly.with_cap``.
One dense budget (``check_dense``) bounds the array entries a call may
allocate: a product's FFT stack, a sampled polynomial
(``sampling.poly``) and the mode-space arrays of ``flow``; one work
budget (``check_work``) bounds the multiply-adds of a ``flow``
propagation.

Integrals and identities are read off the coefficients (Parseval,
``TrigPoly.l2_inner``); a grid is read only for a supremum, as a bracket
off one exact grid (``TrigPoly.sup_norm``).  Several polynomials are
read off one inverse FFT of their stacked boxes (``grid_values``), as a
tensor's components are (``lengths_on_grid``).
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
from typing import (Dict, Iterable, List, Mapping, Optional, Sequence, Tuple,
                    Union)

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


@lru_cache(maxsize=None)
def _box(dim: int, cap: int, inner: int) -> Tuple[slice, ...]:
    """The modes |k|_inf <= inner inside a cap ``cap`` array."""
    return (slice(cap - inner, cap + inner + 1),) * dim


@lru_cache(maxsize=None)
def _ik(dim: int, cap: int, axis: int) -> np.ndarray:
    """i k_axis, the factor of d/dx_axis over the coefficient array."""
    out = 1j * _axis_modes(dim, cap)[axis]
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def _grid_index(dim: int, r: int, n: int) -> Tuple[np.ndarray, ...]:
    """The ``np.ix_`` index that scatters the modes |k|_inf <= r into
    their bins of an n^d FFT grid."""
    bins = np.arange(-r, r + 1) % n
    out = np.ix_(*([bins] * dim))
    for b in out:
        b.flags.writeable = False
    return out


def _radius(arr: np.ndarray, cap: int) -> int:
    """Largest |k|_inf of a nonzero entry (0 if there is none)."""
    return int(_mode_inf(arr.ndim, cap).max(initial=0, where=arr != 0))


class TrigPoly:
    """A finite trigonometric polynomial with a hard mode cap.

    ``TrigPoly(dim, cap, {mode: coeff})`` places the given coefficients;
    a dense complex array of shape (2 cap + 1,)^d is adopted as the
    coefficient array itself (and made read-only).  Instances are
    immutable; all arithmetic returns new objects.  The mode radius and
    the view of its box are derived state only: each is found from the
    object's own array on first read and kept, and no operation hands
    either to its result.  A sum is taken at the larger of the two caps,
    the smaller operand zero-padded, as a product is taken at the lifted
    cap; ``*`` scales by a number only, and the product of two
    polynomials is ``mul_free``.
    """

    __slots__ = ("dim", "cap", "_a", "_r", "_s")

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
        self._s: Optional[np.ndarray] = None

    @classmethod
    def _of(cls, dim: int, cap: int, arr: np.ndarray) -> "TrigPoly":
        """Adopt ``arr``, a complex array of the cap's shape that the
        caller made and holds no other reference to, without the checks
        of ``__init__``; its radius is found, as for any polynomial, on
        first read."""
        out = cls.__new__(cls)
        arr.flags.writeable = False
        out.dim, out.cap, out._a, out._r, out._s = dim, cap, arr, None, None
        return out

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
        if tol == 0:  # a kept positive radius has a nonzero entry
            return not (self._r or self._a.any())
        return not (np.abs(self._a) > tol).any()

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
        default the box of the mode radius, which no cap moves (that view
        is kept)."""
        if r is not None and r != self._r:
            return self._a[_box(self.dim, self.cap, r)]
        if self._s is None:
            self._s = self._a[_box(self.dim, self.cap, self.max_abs_mode())]
        return self._s

    def coeff_l1(self) -> float:
        return float(np.abs(self._support()).sum())

    # ------------------------------------------------------------------
    # ring structure

    def _new(self, arr: np.ndarray) -> "TrigPoly":
        return TrigPoly._of(self.dim, self.cap, arr)

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
        return TrigPoly._of(self.dim, cap, self.with_cap(cap)._a + other.with_cap(cap)._a)

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
        return self._new(self._a[(slice(None, None, -1),) * self.dim].conj())

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
            return TrigPoly._of(self.dim, cap, self._support(cap).copy())
        out = np.zeros((2 * cap + 1,) * self.dim, dtype=complex)
        out[_box(self.dim, cap, self.cap)] = self._a
        return TrigPoly._of(self.dim, cap, out)

    # ------------------------------------------------------------------
    # analysis

    def partial(self, axis: int) -> "TrigPoly":
        """Coordinate partial derivative d/dx_axis (mode caps unchanged)."""
        if not (0 <= axis < self.dim):
            raise GeometryMismatch(f"axis {axis} out of range for dim {self.dim}")
        return self._new(self._a * _ik(self.dim, self.cap, axis))

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
        return grid_values((self,), n)[0]

    def _sup_grid(self) -> Tuple[np.ndarray, float]:
        """Exact values on the ``sup_grid_size`` grid, and the slack
        (pi / n) sum_k |k|_1 |c_k| by which |f| can move off a node: each
        coordinate is within pi / n of one and |d_i f| <= sum |k_i c_k|."""
        r = self.max_abs_mode()
        n = sup_grid_size(r)
        k1 = sum(np.abs(k) for k in _axis_modes(self.dim, r))
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


def _fft_product(dim: int, ra: int, rb: int, box_a, box_b) -> np.ndarray:
    """The linear convolution of two boxes of radii ra and rb on the
    (2r + 1)^d box, r = ra + rb, which holds it without wrap: both boxes
    sit at its origin corner in one stack, transformed together, and
    their product is transformed back."""
    r = ra + rb
    shape, axes = (2 * r + 1,) * dim, tuple(range(1, dim + 1))
    stack = np.zeros((2,) + shape, dtype=complex)
    stack[(0,) + _box(dim, ra, ra)] = box_a
    stack[(1,) + _box(dim, rb, rb)] = box_b
    # NumPy 2 warns without ``axes``; ``s`` spares it a shape lookup per call
    f = np.fft.fftn(stack, s=shape, axes=axes)
    return np.fft.ifftn(f[0] * f[1], s=shape, axes=tuple(range(dim)))


#: the crossover of the two product kernels: a product whose direct sums
#: take at most this many multiply-adds, (2 ra + 1)(2 rb + 1) w^(2d - 2),
#: is summed directly, a larger one goes through the FFT (per-product
#: timings in BENCH_direct_product.json)
_DIRECT_MACS = 1 << 18


def _direct_product(dim: int, ra: int, rb: int, box_a, box_b) -> np.ndarray:
    """The same convolution as ``_fft_product``, as direct sums over the
    pairs: each box is laid out in rows of the product's width w = 2r + 1
    and cut after its last entry, so the 1-D convolution of the two
    ravels is the d-D one, w^d entries long (a pair's indices add to at
    most w - 1 along each axis, so no sum spills into the next row).  At
    d = 1 each row is a copy of its box.  The result owns its entries."""
    w = 2 * (ra + rb) + 1
    flat = []
    for ri, box in ((ra, box_a), (rb, box_b)):
        n = 2 * ri + 1
        rows = np.zeros((n,) + (w,) * (dim - 1), dtype=complex)
        rows[(slice(None),) + (slice(n),) * (dim - 1)] = box
        flat.append(rows.ravel()[:2 * ri * sum(w ** j for j in range(dim)) + 1])
    out = np.convolve(*flat)
    out.shape = (w,) * dim  # in place: the result keeps owning its entries
    return out


def mul_free(a: TrigPoly, b: TrigPoly) -> TrigPoly:
    """Pointwise product at the lifted cap ra + rb (the cap never makes it
    raise CapExceeded; only the dense budget does, below); ``with_cap``
    applies a smaller cap.

    A mode no pair reaches is an exact 0, so the radius follows from the
    supports alone.  A product of at most _DIRECT_MACS multiply-adds is
    direct sums over the pairs (``_direct_product``): a mode no pair
    reaches sums exact zeros, and each mode's error is bounded term by
    term.  A larger one is one FFT pair on the two support boxes
    (``_fft_product``), where a mode no pair reaches holds round-off.  On
    the n = (2r + 1)^d box that round-off is at most about
    3 log2(n) 7u sqrt(n) ||a||_2 ||b||_2 (Higham, Accuracy and Stability
    of Numerical Algorithms, 2nd ed., 2002, Thm 24.2), below
    2^-44 sqrt(n) ||a||_2 ||b||_2 at every n <= 2^22 the dense budget
    admits.  So a product whose every mode is above
    tau = 2^-40 sqrt(n) ||a||_2 ||b||_2 has no unreached mode; any
    other, NaN and inf included, sends the 0/1 masks through a second FFT
    pair and zeroes the modes they count below 0.5.  A reached mode whose
    pairs cancel keeps its round-off.  So four (2r + 1)^d boxes are
    charged against the dense budget before anything is allocated; the
    direct sums allocate about three.  A zero factor reaches no mode: its
    product is the exact zero at cap r, formed with no sum.
    """
    if a.dim != b.dim:
        raise GeometryMismatch("operands live on tori of different dimension")
    dim, ra, rb = a.dim, a.max_abs_mode(), b.max_abs_mode()
    r = ra + rb
    check_dense(4 * (2 * r + 1) ** dim, "product FFT stack", r, dim)
    sa, sb = a._support(), b._support()
    # a positive radius has a nonzero entry; at radius 0 the box is read
    if not ((ra or sa.any()) and (rb or sb.any())):
        # no pair reaches any mode
        return TrigPoly._of(dim, r, np.zeros((2 * r + 1,) * dim, dtype=complex))
    if (2 * ra + 1) * (2 * rb + 1) * (2 * r + 1) ** (2 * dim - 2) <= _DIRECT_MACS:
        return TrigPoly._of(dim, r, _direct_product(dim, ra, rb, sa, sb))
    out = _fft_product(dim, ra, rb, sa, sb)
    tau = 2.0 ** -40 * math.sqrt(out.size) * np.linalg.norm(sa) * np.linalg.norm(sb)
    if not (np.abs(out) > tau).all():
        out[_fft_product(dim, ra, rb, sa != 0, sb != 0).real < 0.5] = 0
    return TrigPoly._of(dim, r, out)


def sup_grid_size(radius: int) -> int:
    """The smallest power of two above 2 * radius: the grid on which the
    modes |k|_inf <= radius land in distinct FFT bins."""
    return 1 << (2 * radius).bit_length()


def grid_values(polys: Sequence[TrigPoly], n: int) -> np.ndarray:
    """Exact values of each of ``polys`` (one torus) on the uniform n^d
    grid, stacked along a new first axis: each support box is scattered
    into its bins and the stack takes one inverse FFT over the grid axes.
    Slice j equals, bit for bit, the transform of polys[j] alone: the FFT
    treats each slice as its own transform.  Requires n > 2 r for every
    mode radius r, so distinct modes land in distinct bins."""
    dim = polys[0].dim
    shape = (n,) * dim
    stack = np.zeros((len(polys),) + shape, dtype=complex)
    for j, p in enumerate(polys):
        r = p.max_abs_mode()
        if n <= 2 * r:
            raise ValueError(f"grid size {n} too small for modes up to {r}")
        stack[(j,) + _grid_index(dim, r, n)] = p._support()
    # ``s`` spares the FFT a shape lookup per call, as in ``_fft_product``
    return np.fft.ifftn(stack, s=shape, axes=tuple(range(1, dim + 1))) * (n ** dim)


# ----------------------------------------------------------------------
# covariant tensors (iterated coordinate partials; Christoffels vanish)


class CovariantTensor:
    """A rank-k covariant tensor with TrigPoly components.

    On the flat torus the covariant derivative is the coordinate partial,
    so nabla^k f is the symmetric tensor of k-fold partials.  Components
    are stored densely over all d^k index tuples (d and k are tiny here).
    """

    __slots__ = ("dim", "rank", "comps")

    def __init__(self, dim: int, rank: int, comps: Dict[Tuple[int, ...], TrigPoly]):
        self.dim = dim
        self.rank = rank
        self.comps = comps

    def component(self, idx: Tuple[int, ...]) -> TrigPoly:
        return self.comps[tuple(idx)]


#: the most grid entries one ``lengths_on_grid`` stack holds (16 MB of
#: complex values); past it the components go through several stacks,
#: so a large grid costs no more memory than a few components' values
_GRID_STACK = 1 << 20


def lengths_on_grid(tensors: Sequence[CovariantTensor], n: int) -> List[np.ndarray]:
    """ell(t) = sqrt(sum_I |t_I|^2) of each tensor t on the n^d grid, the
    components of all of them read off ``grid_values`` stacks of at most
    _GRID_STACK entries (one stack, where they fit); each tensor's
    |t_I|^2 are added in its component order."""
    comps = [(j, c) for j, t in enumerate(tensors) for c in t.comps.values()]
    step = max(1, _GRID_STACK // n ** tensors[0].dim)
    squares: List = [0] * len(tensors)
    for lo in range(0, len(comps), step):
        chunk = comps[lo:lo + step]
        for (j, _), vals in zip(chunk, grid_values([c for _, c in chunk], n)):
            squares[j] = squares[j] + np.abs(vals) ** 2
    return [np.sqrt(s) for s in squares]


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
    return CovariantTensor(f.dim, order, comps)


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
