"""Exact spectral calculus on the flat torus T^d = R^d / (2*pi*Z)^d.

The function algebra is the space of finite trigonometric polynomials
f(x) = sum_k c_k e^{i k.x}, stored as a sparse map from integer mode
vectors to complex coefficients.  Every value carries a hard mode cap:
an operation whose exact result needs a mode with |k|_inf above the cap
raises CapExceeded rather than aliasing or projecting.

Conventions used throughout the package:

* the Laplacian has nonnegative spectrum, Delta e^{i k.x} = |k|^2 e^{i k.x}
  (equivalently Delta = -sum_i d^2/dx_i^2);
* all sesquilinear pairings conjugate their FIRST argument;
* the metric is the identity in coordinates, so covariant derivatives are
  plain coordinate partials and tensor contractions are index sums.
"""

from __future__ import annotations

import math
from itertools import product as iter_product
from typing import Dict, Iterable, Tuple

import numpy as np

from .errors import CapExceeded, GeometryMismatch, RankMismatch

ModeKey = Tuple[int, ...]

TWO_PI = 2.0 * math.pi

#: coefficients with modulus at or below this are dropped as exact zeros
_COEFF_PRUNE = 0.0

#: relative tolerance of the sup-norm grid refinement loop
SUP_NORM_TOL = 1e-12

#: hard budget on total grid points used by one sup-norm evaluation
_SUP_GRID_BUDGET = 1 << 22


def _check_mode(k, dim: int) -> ModeKey:
    k = tuple(int(v) for v in k)
    if len(k) != dim:
        raise GeometryMismatch(f"mode {k} has length {len(k)}, expected {dim}")
    return k


class TrigPoly:
    """A finite trigonometric polynomial with a hard mode cap.

    Instances are immutable by convention; all arithmetic returns new
    objects.  Binary operations require both operands to share dimension
    and cap (the cap is part of the truncation contract of a computation).
    """

    __slots__ = ("dim", "cap", "_c")

    def __init__(self, dim: int, cap: int, coeffs: Dict[ModeKey, complex] | None = None):
        if dim < 1:
            raise GeometryMismatch(f"dimension must be >= 1, got {dim}")
        if cap < 0:
            raise GeometryMismatch(f"cap must be >= 0, got {cap}")
        self.dim = int(dim)
        self.cap = int(cap)
        clean: Dict[ModeKey, complex] = {}
        if coeffs:
            for k, c in coeffs.items():
                k = _check_mode(k, dim)
                c = complex(c)
                if abs(c) <= _COEFF_PRUNE:
                    continue
                if max(abs(v) for v in k) > cap:
                    raise CapExceeded(f"mode {k} exceeds cap {cap}")
                clean[k] = c
        self._c = clean

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
        return cls(dim, cap, {_check_mode(k, dim): complex(amplitude)})

    @classmethod
    def cosine(cls, k, dim: int, cap: int) -> "TrigPoly":
        k = _check_mode(k, dim)
        mk = tuple(-v for v in k)
        if k == mk:
            return cls.constant(1.0, dim, cap)
        return cls(dim, cap, {k: 0.5, mk: 0.5})

    @classmethod
    def sine(cls, k, dim: int, cap: int) -> "TrigPoly":
        k = _check_mode(k, dim)
        mk = tuple(-v for v in k)
        if k == mk:
            return cls.zero(dim, cap)
        return cls(dim, cap, {k: -0.5j, mk: 0.5j})

    # ------------------------------------------------------------------
    # inspection

    def coeff(self, k) -> complex:
        return self._c.get(_check_mode(k, self.dim), 0.0 + 0.0j)

    def items(self):
        return self._c.items()

    def modes(self):
        return self._c.keys()

    def __len__(self) -> int:
        return len(self._c)

    def is_zero(self, tol: float = 0.0) -> bool:
        return all(abs(c) <= tol for c in self._c.values())

    def is_selfadjoint(self, tol: float = 1e-12) -> bool:
        """f = f* as a function, i.e. coeff(-k) = conj(coeff(k))."""
        for k, c in self._c.items():
            mk = tuple(-v for v in k)
            if abs(self._c.get(mk, 0.0) - c.conjugate()) > tol:
                return False
        return True

    def max_abs_mode(self) -> int:
        """Largest |k|_inf actually present (0 for the zero polynomial)."""
        if not self._c:
            return 0
        return max(max(abs(v) for v in k) if k else 0 for k in self._c)

    def coeff_l1(self) -> float:
        return float(sum(abs(c) for c in self._c.values()))

    # ------------------------------------------------------------------
    # ring structure

    def _compat(self, other: "TrigPoly") -> None:
        if not isinstance(other, TrigPoly):
            raise TypeError(f"expected TrigPoly, got {type(other)!r}")
        if self.dim != other.dim or self.cap != other.cap:
            raise GeometryMismatch(
                f"operands do not share geometry: (dim={self.dim}, cap={self.cap})"
                f" vs (dim={other.dim}, cap={other.cap})"
            )

    def __add__(self, other):
        if isinstance(other, (int, float, complex)):
            other = TrigPoly.constant(other, self.dim, self.cap)
        self._compat(other)
        out = dict(self._c)
        for k, c in other._c.items():
            s = out.get(k, 0.0) + c
            if s == 0:
                out.pop(k, None)
            else:
                out[k] = s
        return TrigPoly(self.dim, self.cap, out)

    __radd__ = __add__

    def __neg__(self):
        return TrigPoly(self.dim, self.cap, {k: -c for k, c in self._c.items()})

    def __sub__(self, other):
        if isinstance(other, (int, float, complex)):
            other = TrigPoly.constant(other, self.dim, self.cap)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            z = complex(other)
            return TrigPoly(self.dim, self.cap, {k: z * c for k, c in self._c.items()})
        return multiply(self, other)

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self.__mul__(other)
        return NotImplemented

    def conjugate(self) -> "TrigPoly":
        """Complex conjugate as a function: coeff(k) -> conj(coeff(-k))."""
        return TrigPoly(
            self.dim, self.cap,
            {tuple(-v for v in k): c.conjugate() for k, c in self._c.items()},
        )

    adjoint = conjugate

    def with_cap(self, cap: int) -> "TrigPoly":
        """Same polynomial under a different truncation budget."""
        return TrigPoly(self.dim, cap, self._c)

    def project(self, cap: int) -> Tuple["TrigPoly", float]:
        """Drop modes above ``cap``; returns (projection, l2 norm dropped)."""
        kept: Dict[ModeKey, complex] = {}
        dropped = 0.0
        for k, c in self._c.items():
            if (max(abs(v) for v in k) if k else 0) <= cap:
                kept[k] = c
            else:
                dropped += abs(c) ** 2
        return TrigPoly(self.dim, cap, kept), math.sqrt(dropped) * TWO_PI ** (self.dim / 2)

    # ------------------------------------------------------------------
    # analysis

    def partial(self, axis: int) -> "TrigPoly":
        """Coordinate partial derivative d/dx_axis (mode caps unchanged)."""
        if not (0 <= axis < self.dim):
            raise GeometryMismatch(f"axis {axis} out of range for dim {self.dim}")
        return TrigPoly(
            self.dim, self.cap,
            {k: (1j * k[axis]) * c for k, c in self._c.items() if k[axis] != 0},
        )

    def laplacian(self) -> "TrigPoly":
        """Nonnegative Laplacian: coeff(k) -> |k|^2 coeff(k)."""
        return TrigPoly(
            self.dim, self.cap,
            {k: sum(v * v for v in k) * c for k, c in self._c.items()},
        )

    def heat(self, t: float, halved: bool = False) -> "TrigPoly":
        """Heat semigroup e^{-t Delta} (or e^{-t Delta / 2} if halved)."""
        if t < 0:
            raise ValueError(f"heat semigroup needs t >= 0, got {t}")
        denom = 2.0 if halved else 1.0
        return TrigPoly(
            self.dim, self.cap,
            {k: math.exp(-t * sum(v * v for v in k) / denom) * c
             for k, c in self._c.items()},
        )

    def l2_inner(self, other: "TrigPoly") -> complex:
        """(2*pi)^d sum_k conj(a_k) b_k; conjugate linear in self."""
        if self.dim != other.dim:
            raise GeometryMismatch("l2 pairing across different dimensions")
        small, big = (self._c, other._c) if len(self._c) <= len(other._c) else (other._c, self._c)
        acc = 0.0 + 0.0j
        if small is self._c:
            for k, c in small.items():
                acc += c.conjugate() * big.get(k, 0.0)
        else:
            for k, c in small.items():
                acc += big.get(k, 0.0).conjugate() * c
        return acc * TWO_PI ** self.dim

    def l2_norm(self) -> float:
        return math.sqrt(max(self.l2_inner(self).real, 0.0))

    def values_on_grid(self, n: int) -> np.ndarray:
        """Exact values on the uniform n^d grid x_j = 2*pi*j/n.

        Requires n > 2 * max_abs_mode so distinct modes land in distinct
        FFT bins; this makes the inverse FFT an exact evaluation.
        """
        if n <= 2 * self.max_abs_mode():
            raise ValueError(f"grid size {n} too small for modes up to {self.max_abs_mode()}")
        arr = np.zeros((n,) * self.dim, dtype=complex)
        for k, c in self._c.items():
            arr[tuple(v % n for v in k)] += c
        return np.fft.ifftn(arr) * (n ** self.dim)

    def sup_norm(self, tol: float = SUP_NORM_TOL) -> float:
        """Sup of |f| over the torus via dyadic grid refinement.

        The estimate is a max over sample points, so it approaches the
        true sup from below; refinement stops once doubling the grid
        moves the value by a relative amount below ``tol``.
        """
        if not self._c:
            return 0.0
        n = 8
        while n <= 2 * self.max_abs_mode():
            n *= 2
        best = float(np.abs(self.values_on_grid(n)).max())
        while (2 * n) ** self.dim <= _SUP_GRID_BUDGET:
            n *= 2
            nxt = float(np.abs(self.values_on_grid(n)).max())
            gain = nxt - best
            best = nxt
            if gain <= tol * max(1.0, best):
                break
        return best

    def __repr__(self):
        terms = ", ".join(f"{k}: {c:.6g}" for k, c in sorted(self._c.items()))
        return f"TrigPoly(dim={self.dim}, cap={self.cap}, {{{terms}}})"


# ----------------------------------------------------------------------
# module-level operations (the public op surface)


def multiply(a: TrigPoly, b: TrigPoly) -> TrigPoly:
    """Pointwise product by exact coefficient convolution.

    Raises CapExceeded if the exact product carries any mode above the
    shared cap; nothing is silently projected.
    """
    a._compat(b)
    return _convolve(a, b, a.cap)


def mul_free(a: TrigPoly, b: TrigPoly) -> TrigPoly:
    """Product computed in a lifted ambient cap (never raises CapExceeded).

    Used by pairings whose results are consumed as scalars or sup-norms,
    where no truncation budget constrains the intermediate.
    """
    if a.dim != b.dim:
        raise GeometryMismatch("operands live on tori of different dimension")
    return _convolve(a, b, a.max_abs_mode() + b.max_abs_mode())


def _convolve(a: TrigPoly, b: TrigPoly, cap: int) -> TrigPoly:
    out: Dict[ModeKey, complex] = {}
    for ka, ca in a._c.items():
        for kb, cb in b._c.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            s = out.get(k, 0.0) + ca * cb
            if s == 0:
                out.pop(k, None)
            else:
                out[k] = s
    for k in out:
        if (max(abs(v) for v in k) if k else 0) > cap:
            raise CapExceeded(
                f"product mode {k} exceeds cap {cap}; enlarge the cap or rescale the problem"
            )
    return TrigPoly(a.dim, cap, out)


def laplacian(f: TrigPoly) -> TrigPoly:
    return f.laplacian()


def l2_inner(f: TrigPoly, g: TrigPoly) -> complex:
    return f.l2_inner(g)


def sup_norm(f: TrigPoly, tol: float = SUP_NORM_TOL) -> float:
    return f.sup_norm(tol=tol)


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
        return self.comps.get(tuple(idx)) or TrigPoly.zero(self.dim, self.cap)

    def is_symmetric(self, tol: float = 0.0) -> bool:
        for idx, poly in self.comps.items():
            s = tuple(sorted(idx))
            ref = self.comps.get(s)
            if ref is None:
                return poly.is_zero(tol)
            if not (poly - ref).is_zero(tol):
                return False
        return True


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
    lifted_cap = 0
    acc: Dict[ModeKey, complex] = {}
    for idx in iter_product(range(s.dim), repeat=s.rank):
        term = mul_free(s.component(idx).conjugate(), t.component(idx))
        lifted_cap = max(lifted_cap, term.cap)
        for k, c in term.items():
            v = acc.get(k, 0.0) + c
            if v == 0:
                acc.pop(k, None)
            else:
                acc[k] = v
    return TrigPoly(s.dim, lifted_cap, acc)


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

    def __add__(self, other: "OneForm") -> "OneForm":
        return OneForm(tuple(a + b for a, b in zip(self.comps, other.comps)))

    def __sub__(self, other: "OneForm") -> "OneForm":
        return OneForm(tuple(a - b for a, b in zip(self.comps, other.comps)))

    def __neg__(self) -> "OneForm":
        return OneForm(tuple(-a for a in self.comps))

    def scale(self, z: complex) -> "OneForm":
        return OneForm(tuple(z * a for a in self.comps))

    def conjugate(self) -> "OneForm":
        return OneForm(tuple(a.conjugate() for a in self.comps))

    def k0_inner(self, other: "OneForm") -> complex:
        """Hilbert inner product on L2 one-forms: integral of <w, e> over M."""
        if self.dim != other.dim:
            raise GeometryMismatch("pairing one-forms of different dimension")
        return sum(a.l2_inner(b) for a, b in zip(self.comps, other.comps))

    def k0_norm(self) -> float:
        return math.sqrt(max(self.k0_inner(self).real, 0.0))

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
    acc: Dict[ModeKey, complex] = {}
    lifted = 0
    for a, b in zip(w.comps, e.comps):
        term = mul_free(a.conjugate(), b)
        lifted = max(lifted, term.cap)
        for k, c in term.items():
            v = acc.get(k, 0.0) + c
            if v == 0:
                acc.pop(k, None)
            else:
                acc[k] = v
    return TrigPoly(w.dim, lifted, acc)
