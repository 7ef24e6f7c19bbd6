"""Heat-kernel traces and the bosonic spectral action on flat tori.

Three routes to Tr e^{-t Laplacian} keep each other honest: the direct
lattice sum over eigenvalues, the Poisson-resummed theta series (exact
for every t, not just asymptotically), and the vacuum flow: the diagonal
of the flow's zero-noise propagator e^{2t L} on the mode space, summed
over the spectrum slice.  The flow transports functions by e^{tL} with
L = -Laplacian/2 and therefore runs at flow time 2t.

The spectral action with the Gaussian weight is the same trace at
t = Lambda^{-2} scaled by the spinor rank; its large-Lambda growth is
the volume (Weyl) term, which is the only surviving coefficient here
since flat tori carry no curvature corrections.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import CapExceeded, GeometryMismatch
from .flow import ModeSpace, diagonal_entries
from .spectral import OneForm, flat_index, mode_grid

__all__ = [
    "SpectrumSlice",
    "heat_trace_direct",
    "heat_trace_via_flow",
    "theta_reference",
    "z_for_tail",
    "spinor_rank",
    "spectral_action",
    "WeylFit",
    "weyl_fit",
]

#: hard budget on the (2 floor(z) + 1)^d lattice box of the direct trace
_LATTICE_BUDGET = 1 << 25


@dataclass(frozen=True)
class SpectrumSlice:
    """All lattice modes with Euclidean length at most z."""

    z: float
    dim: int
    modes: Tuple[Tuple[int, ...], ...]

    @classmethod
    def build(cls, dim: int, z: float) -> "SpectrumSlice":
        if dim < 1:
            raise GeometryMismatch("dimension must be at least 1")
        if z < 0:
            raise GeometryMismatch("cutoff must be nonnegative")
        grid = mode_grid(dim, int(math.floor(z)))
        keep = np.sum(grid * grid, axis=1) <= z * z + 1e-12
        return cls(z, dim, tuple(map(tuple, grid[keep].tolist())))

    @property
    def count(self) -> int:
        return len(self.modes)


def _box_sq(m: int, dim: int) -> np.ndarray:
    """|k|^2 over the box |k|_inf <= m as one float array of shape
    (2m+1,)*dim, broadcast from the per-axis squares (exact integers, so
    the summation order cannot change a value)."""
    return sum(a.astype(float) ** 2 for a in np.ogrid[(slice(-m, m + 1),) * dim])


def heat_trace_direct(t: float, z: float, dim: int) -> float:
    """sum of e^{-t |k|^2} over lattice points with |k| <= z."""
    if t <= 0:
        raise GeometryMismatch("heat trace needs t > 0")
    m = int(math.floor(z))
    if (2 * m + 1) ** dim > _LATTICE_BUDGET:
        raise CapExceeded(
            f"direct trace at t={t:g}, z={z:g}, dim {dim} needs {(2 * m + 1) ** dim}"
            f" lattice points, over the budget of {_LATTICE_BUDGET}")
    sq = _box_sq(m, dim)
    mask = sq <= z * z + 1e-12
    return float(np.sum(np.exp(-t * sq[mask])))


def theta_reference(t: float, dim: int) -> float:
    """(pi/t)^{d/2} sum e^{-pi^2 |k|^2 / t}: the resummed heat trace.

    This is an identity, not an asymptotic: it equals the direct sum for
    every t, with the series converging fast for small t where the
    direct sum is expensive.
    """
    if t <= 0:
        raise GeometryMismatch("theta reference needs t > 0")
    m = 1
    while math.pi ** 2 * m * m / t < 80.0:
        m += 1
    sq = _box_sq(m, dim)
    return float((math.pi / t) ** (dim / 2.0)
                 * np.sum(np.exp(-(math.pi ** 2) * sq / t)))


def z_for_tail(t: float, dim: int, tol: float = 1e-12) -> int:
    """Smallest integer cutoff whose discarded Gaussian tail is below tol.

    Modes with |k| in (n-1, n] number at most (2n+1)^d - (2n-1)^d, so
    the tail past z is bounded by sum_{n>z} 2d(2n+1)^{d-1} e^{-t(n-1)^2}.
    """
    if t <= 0 or tol <= 0:
        raise GeometryMismatch("z_for_tail needs t > 0 and tol > 0")

    def tail(z: int) -> float:
        acc = 0.0
        for n in range(z + 1, z + 10002):
            inc = 2 * dim * (2 * n + 1) ** (dim - 1) * math.exp(-t * (n - 1) ** 2)
            acc += inc
            if inc < tol * 1e-4:
                break
        return acc

    # the tail only shrinks as z grows: double past the answer, then bisect
    hi = 1
    while tail(hi) >= tol:
        hi *= 2
    return bisect_left(range(hi), True, hi // 2 + 1, key=lambda z: tail(z) < tol)


def heat_trace_via_flow(t: float, z: float, dim: int,
                        cap: Optional[int] = None) -> float:
    """Trace read off the flow's zero-noise propagator.

    The flow transports x by e^{tL} = e^{-t Laplacian / 2}, so the heat
    trace at time t is read off at flow time 2t: the sum over |k| <= z of
    the diagonal entries <phi_k, j_{2t}(phi_k) 1> / ||phi_k||^2 of the
    propagator exp(2t Psi(0, 0)) on the modes |k|_inf <= cap.  That
    generator is diagonal, so its exponential is taken entrywise.
    """
    if t <= 0:
        raise GeometryMismatch("heat trace needs t > 0")
    slc = SpectrumSlice.build(dim, z)
    if cap is None:
        cap = int(math.floor(z))
    space = ModeSpace(dim, cap)
    diag = diagonal_entries(space.psi_matrix(OneForm.zero(dim, 0), None))
    if diag is None:
        raise GeometryMismatch("the zero-noise generator is not diagonal")
    prop = np.exp(2.0 * t * diag)
    total = 0.0
    for k, i in zip(slc.modes, flat_index(slc.modes, cap)):
        val = prop[i]
        if abs(val.imag) > 1e-10 * max(1.0, abs(val.real)):
            raise GeometryMismatch(f"trace term for mode {k} is not real: {val}")
        total += val.real
    return float(total)


def spinor_rank(dim: int) -> int:
    """2^{floor(d/2)}: rank of the trivial spinor bundle on T^d."""
    return 2 ** (dim // 2)


def spectral_action(lam: float, z: float, dim: int) -> float:
    """Tr f(D/Lambda) with Gaussian f: the heat trace at t = Lambda^{-2}
    times the spinor rank (D^2 acts as the scalar Laplacian entrywise on
    the flat torus)."""
    if lam <= 0:
        raise GeometryMismatch("spectral action needs Lambda > 0")
    return spinor_rank(dim) * heat_trace_direct(lam ** -2, z, dim)


@dataclass
class WeylFit:
    """Log-log fit of the spectral action against the scale."""

    slope: float
    prefactor: float
    rows: List[Tuple[float, float]]

    @staticmethod
    def expected_prefactor(dim: int) -> float:
        return spinor_rank(dim) * (2 * math.pi) ** dim / (4 * math.pi) ** (dim / 2.0)


def weyl_fit(lams: Sequence[float], dim: int, tol: float = 1e-13) -> WeylFit:
    """Fit log S(Lambda) = slope * log Lambda + log prefactor.

    Each action value uses a cutoff generous enough that the discarded
    tail cannot bias the fit at the working tolerance.
    """
    lams = sorted(float(l) for l in lams)
    if len(lams) < 2:
        raise GeometryMismatch("the fit needs at least two scales")
    rows = []
    for lam in lams:
        z = z_for_tail(lam ** -2, dim, tol)
        rows.append((lam, spectral_action(lam, z, dim)))
    logs = np.log(np.array([[l, s] for l, s in rows]))
    slope, intercept = np.polyfit(logs[:, 0], logs[:, 1], 1)
    return WeylFit(float(slope), float(math.exp(intercept)), rows)
