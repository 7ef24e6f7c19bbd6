"""Discretized one-form noise: time meshes, simple paths, and their pairing.

The flow is driven by piecewise constant paths in L2(R+, k0): one
one-form per cell of a finite time mesh, vanishing past the last
breakpoint.  ``noise_inner`` is the exact one-particle pairing of two
such paths, the exponent of the coherent-vector overlap
<E(f), E(g)> = exp(<f, g>) that the flow's pairing calculus multiplies
in globally.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from .errors import GeometryMismatch
from .spectral import OneForm

__all__ = [
    "TimeMesh",
    "SimpleNoisePath",
    "noise_inner",
]


class TimeMesh:
    """Increasing breakpoints 0 = t_0 < t_1 < ... < t_m."""

    __slots__ = ("points",)

    def __init__(self, points: Iterable[float]):
        pts = tuple(float(p) for p in points)
        if len(pts) < 1 or pts[0] != 0.0:
            raise GeometryMismatch("time mesh must start at 0")
        for a, b in zip(pts, pts[1:]):
            if not b > a:
                raise GeometryMismatch("time mesh breakpoints must increase")
        self.points = pts

    @property
    def num_cells(self) -> int:
        return len(self.points) - 1

    def cells(self) -> List[Tuple[float, float]]:
        return list(zip(self.points, self.points[1:]))

    @property
    def horizon(self) -> float:
        return self.points[-1]

    def merged(self, other: "TimeMesh") -> "TimeMesh":
        pts = sorted(set(self.points) | set(other.points))
        return TimeMesh(pts)

    def refined_to(self, horizon: float) -> "TimeMesh":
        """Cut or extend the mesh so it ends exactly at ``horizon``."""
        if horizon < 0:
            raise GeometryMismatch("horizon must be nonnegative")
        pts = [p for p in self.points if p < horizon]
        pts.append(horizon)
        return TimeMesh(pts)

    def __eq__(self, other):
        return isinstance(other, TimeMesh) and self.points == other.points

    def __hash__(self):
        return hash(self.points)

    def __repr__(self):
        return f"TimeMesh({list(self.points)})"


class SimpleNoisePath:
    """Piecewise constant k0-valued path: one OneForm per mesh cell.

    The path vanishes beyond the last breakpoint, so the range is finite
    and every integral below terminates.
    """

    __slots__ = ("mesh", "values", "dim")

    def __init__(self, mesh: TimeMesh, values: Sequence[OneForm],
                 dim: Optional[int] = None):
        values = tuple(values)
        if len(values) != mesh.num_cells:
            raise GeometryMismatch(
                f"{len(values)} values for {mesh.num_cells} mesh cells"
            )
        if values:
            dim = values[0].dim
        elif dim is None:
            raise GeometryMismatch("an empty path needs an explicit dimension")
        for w in values:
            if w.dim != dim:
                raise GeometryMismatch("path values live on different tori")
        self.mesh = mesh
        self.values = values
        self.dim = dim

    @classmethod
    def zero(cls, dim: int, horizon: float = 1.0) -> "SimpleNoisePath":
        return cls(TimeMesh([0.0, horizon]), (OneForm.zero(dim, 0),))

    @classmethod
    def indicator(cls, omega: OneForm, start: float, stop: float) -> "SimpleNoisePath":
        """omega * 1_{[start, stop)}."""
        if not 0 <= start < stop:
            raise GeometryMismatch("indicator support must satisfy 0 <= start < stop")
        pts = [0.0, start, stop] if start > 0 else [0.0, stop]
        mesh = TimeMesh(pts)
        vals = []
        for a, _ in mesh.cells():
            vals.append(omega if a >= start else OneForm.zero(omega.dim, omega.cap))
        return cls(mesh, vals)

    def value_at(self, s: float) -> OneForm:
        for (a, b), w in zip(self.mesh.cells(), self.values):
            if a <= s < b:
                return w
        return OneForm.zero(self.dim, 0)

    def is_zero(self) -> bool:
        return all(w.is_zero() for w in self.values)

    def support_end(self) -> float:
        end = 0.0
        for (a, b), w in zip(self.mesh.cells(), self.values):
            if not w.is_zero():
                end = b
        return end


def noise_inner(f: SimpleNoisePath, g: SimpleNoisePath) -> complex:
    """<f, g> = integral over time of <f(s), g(s)>_{k0}, f conjugated.

    Computed exactly on the merged mesh; both paths vanish beyond their
    own support so the integral is finite.
    """
    if f.dim != g.dim:
        raise GeometryMismatch("noise paths live on different tori")
    pts = sorted(set(f.mesh.points) | set(g.mesh.points))
    acc = 0.0 + 0.0j
    for a, b in zip(pts, pts[1:]):
        fa = f.value_at(a)
        ga = g.value_at(a)
        if fa.is_zero() or ga.is_zero():
            continue
        acc += (b - a) * fa.k0_inner(ga)
    return acc
