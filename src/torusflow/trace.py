"""Heat-kernel traces and the bosonic spectral action on flat tori.

Three routes to Tr e^{-t Laplacian} keep each other honest.  The direct
lattice sum over eigenvalues and the Poisson-resummed theta series (exact
for every t, not just asymptotically) both read one integer table of
eigenvalue multiplicities, ``shell_counts``, whose work is checked against
``_LATTICE_BUDGET`` before allocation.  The table starts from r_1, known
in closed form, and adds one shift pass per further axis.  A sum up to
|k|^2 <= n reads the table's prefix, so a Weyl fit builds one table, at
its largest cutoff, for all its scales.  The vacuum flow sums the
diagonal of the flow's zero-noise propagator e^{2t L} over the modes
|k| <= z; it transports functions by e^{tL} with L = -Laplacian/2 and
therefore runs at flow time 2t.

The spectral action with the Gaussian weight is the same trace at
t = Lambda^{-2} scaled by the spinor rank; its large-Lambda growth is
the volume (Weyl) term, which is the only surviving coefficient here
since flat tori carry no curvature corrections.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .errors import CapExceeded, GeometryMismatch
from .flow import ModeSpace
from .spectral import OneForm

__all__ = [
    "shell_counts",
    "heat_trace_direct",
    "heat_trace_via_flow",
    "theta_reference",
    "z_for_tail",
    "spinor_rank",
    "spectral_action",
    "WeylFit",
    "weyl_fit",
]

#: hard budget on the entry additions of a ``shell_counts`` table (about 1 s)
_LATTICE_BUDGET = 1 << 30


def shell_counts(dim: int, n: int) -> np.ndarray:
    """r_dim(0..n) as int64, the number of k in Z^dim with |k|^2 = m.

    r_1 is 1 at 0 and 2 at every nonzero square; each further axis adds
    the previous table shifted by every s^2 <= n, once for s = 0 and twice
    (for +-s) for s > 0.
    """
    if dim < 1 or n < 0:
        raise GeometryMismatch(f"r_d(0..n) needs d >= 1 and n >= 0, got d={dim}, n={n}")
    root = math.isqrt(n)
    work = dim * (root + 1) * (n + 1)
    if work > _LATTICE_BUDGET:
        raise CapExceeded(f"the table r_{dim}(0..{n}) needs {work} entry additions,"
                          f" over the budget of {_LATTICE_BUDGET}")
    if (2 * root + 1) ** dim >= 1 << 63:  # no entry exceeds the box count
        raise CapExceeded(f"the table r_{dim}(0..{n}) could overflow int64 counts")
    counts = np.zeros(n + 1, dtype=np.int64)
    counts[0] = 1
    counts[np.arange(1, root + 1) ** 2] = 2
    for _ in range(dim - 1):
        twice = 2 * counts
        counts = counts.copy()  # the s = 0 shift
        for s in range(1, root + 1):
            counts[s * s:] += twice[:n + 1 - s * s]
    return counts


def _table(dim: int, n: int, what: str) -> np.ndarray:
    """``shell_counts(dim, n)``; a refusal names ``what``."""
    try:
        return shell_counts(dim, n)
    except CapExceeded as exc:
        raise CapExceeded(f"{what}: {exc}") from None


def _shell_sum(counts: np.ndarray, n: int, rate: float) -> float:
    """sum_{m <= n} r(m) e^{-rate m}, read off the prefix of a table."""
    return float(counts[:n + 1] @ np.exp(-rate * np.arange(n + 1)))


def _shell_index(z: float) -> int:
    """The largest m = |k|^2 with |k| <= z."""
    return math.floor(z * z + 1e-12)


def _direct_what(t: float, z: float, dim: int) -> str:
    return f"direct trace at t={t:g}, z={z:g}, dim {dim}"


def heat_trace_direct(t: float, z: float, dim: int) -> float:
    """sum of e^{-t |k|^2} over lattice points with |k| <= z."""
    if t <= 0:
        raise GeometryMismatch("heat trace needs t > 0")
    if z < 0:
        raise GeometryMismatch("cutoff must be nonnegative")
    n = _shell_index(z)
    return _shell_sum(_table(dim, n, _direct_what(t, z, dim)), n, t)


def theta_reference(t: float, dim: int) -> float:
    """(pi/t)^{d/2} sum e^{-pi^2 |k|^2 / t}: the resummed heat trace.

    This is an identity, not an asymptotic: it equals the direct sum for
    every t, with the series converging fast for small t where the
    direct sum is expensive.  The terms past |k| = m are below e^{-80}.
    A t whose (pi/t)^(d/2) or pi^2/t overflows a float is refused.
    """
    if not 0 < t < math.inf:
        raise GeometryMismatch("theta reference needs a finite t > 0")
    rate = math.pi ** 2 / t
    try:
        scale = (math.pi / t) ** (dim / 2.0)
    except OverflowError:
        scale = math.inf
    if max(scale, rate) == math.inf:
        raise GeometryMismatch(f"theta reference at t={t:g}, dim {dim}: "
                               f"(pi/t)^(d/2) or pi^2/t overflows a float")
    # start just below the root of pi^2 m^2 / t = 80, so the loop takes a
    # few steps at any t instead of one step per integer; past 2^52 a unit
    # step no longer moves the float predicate, and the table budget
    # refuses a cutoff that large anyway
    m = max(1, int(math.sqrt(80.0 * t) / math.pi) - 1)
    while m < 2 ** 52 and math.pi ** 2 * m * m / t < 80.0:
        m += 1
    counts = _table(dim, m * m, f"theta reference at t={t:g}, dim {dim}")
    return scale * _shell_sum(counts, m * m, rate)


def z_for_tail(t: float, dim: int, tol: float = 1e-12) -> int:
    """Smallest integer cutoff whose discarded Gaussian tail is below tol.

    Modes with |k| in (n-1, n] number at most (2n+1)^d - (2n-1)^d, so
    the tail past z is bounded by sum_{n>z} 2d(2n+1)^{d-1} e^{-t(n-1)^2}.
    The search stops, refused, at a too small z whose successor's table
    r_d(0..(z + 1)^2) has more entries than ``_LATTICE_BUDGET`` allows.
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
        if (hi + 1) ** 2 >= _LATTICE_BUDGET:
            raise CapExceeded(f"tail cutoff at t={t:g}, dim {dim}: past z={hi}, over the"
                              f" budget of {_LATTICE_BUDGET} table entry additions")
        hi *= 2
    return bisect_left(range(hi), True, hi // 2 + 1, key=lambda z: tail(z) < tol)


def heat_trace_via_flow(t: float, z: float, dim: int) -> float:
    """Trace read off the flow's zero-noise propagator.

    The flow transports x by e^{tL} = e^{-t Laplacian / 2}, so the heat
    trace at time t is read off at flow time 2t: the sum over |k| <= z of
    the diagonal entries <phi_k, j_{2t}(phi_k) 1> / ||phi_k||^2 of the
    propagator exp(2t Psi(0, 0)) on the modes |k|_inf <= floor(z), the
    only ones the sum reads.  That generator is diagonal, -|k|^2/2 read
    off the mode grid (``ModeSpace.diagonal``) with nothing N x N built,
    so its exponential is taken entrywise.
    """
    if t <= 0:
        raise GeometryMismatch("heat trace needs t > 0")
    if z < 0:
        raise GeometryMismatch("cutoff must be nonnegative")
    m = math.floor(z)
    try:
        space = ModeSpace(dim, m)
    except CapExceeded as exc:
        raise CapExceeded(f"flow trace at t={t:g}, z={z:g}, dim {dim}: {exc}") from None
    zero = OneForm.zero(dim, 0)
    diag, _ = space.diagonal(zero, zero)
    keep = -2 * diag.real <= z * z + 1e-12
    vals = np.exp(2.0 * t * diag)[keep]
    if np.any(np.abs(vals.imag) > 1e-10 * np.maximum(1.0, np.abs(vals.real))):
        raise GeometryMismatch(f"the trace terms over |k| <= {z:g} are not real: {vals}")
    # a left-to-right sum in C order, not numpy's pairwise one
    return float(sum(vals.real.tolist()))


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


def weyl_fit(lams: Sequence[float], dim: int) -> WeylFit:
    """Fit log S(Lambda) = slope * log Lambda + log prefactor.

    Each action value uses a cutoff generous enough that the discarded
    tail cannot bias the fit at the working tolerance.  Every cutoff is
    picked first; one ``shell_counts`` table at the largest then serves
    every scale, whose sum reads its prefix, so each row equals
    ``spectral_action(Lambda, z, dim)`` bit for bit.
    """
    lams = sorted(float(l) for l in lams)
    if len(set(lams)) < 2:
        raise GeometryMismatch("the fit needs at least two distinct scales")
    cuts = []
    for lam in lams:
        if lam <= 0:
            raise GeometryMismatch("spectral action needs Lambda > 0")
        t = lam ** -2
        z = z_for_tail(t, dim, 1e-13)
        cuts.append((lam, t, z, _shell_index(z)))
    _, t, z, n = max(cuts, key=lambda c: c[3])
    counts = _table(dim, n, _direct_what(t, z, dim))
    rows = [(lam, spinor_rank(dim) * _shell_sum(counts, n, t))
            for lam, t, _, n in cuts]
    logs = np.log(np.array([[l, s] for l, s in rows]))
    slope, intercept = np.polyfit(logs[:, 0], logs[:, 1], 1)
    return WeylFit(float(slope), float(math.exp(intercept)), rows)
