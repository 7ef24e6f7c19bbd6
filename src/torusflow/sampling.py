"""Seeded random inputs for suites and property checks.

Everything here draws from a caller-supplied numpy Generator so suite
output is reproducible from the config seed alone.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .fock import SimpleNoisePath, TimeMesh
from .spectral import OneForm, TrigPoly, check_dense


def rng_for(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def poly(rng: np.random.Generator, dim: int, cap: int,
         max_mode: Optional[int] = None, self_adjoint: bool = False,
         scale: float = 1.0) -> TrigPoly:
    """Random polynomial with modes in the |k|_inf <= max_mode box.

    Self-adjoint draws pair each mode with its negative so the result is
    fixed by conjugation.
    """
    m = cap if max_mode is None else min(max_mode, cap)
    # the draw fills the (2m+1)^d box, and the result the cap's box
    check_dense((2 * cap + 1) ** dim, "sampled polynomial", cap, dim)
    # one draw per mode in C order, real part then imaginary part
    draw = rng.standard_normal((2 * m + 1,) * dim + (2,))
    coeffs = scale * (draw[..., 0] + 1j * draw[..., 1]) / 2.0
    if self_adjoint:
        coeffs = coeffs + np.flip(coeffs).conj()
    return TrigPoly(dim, m, coeffs).with_cap(cap)


def one_form(rng: np.random.Generator, dim: int, cap: int,
             max_mode: Optional[int] = None, scale: float = 1.0) -> OneForm:
    return OneForm(tuple(poly(rng, dim, cap, max_mode, scale=scale)
                         for _ in range(dim)))


def noise_path(rng: np.random.Generator, dim: int, cap: int,
               num_cells: int, horizon: float = 1.0,
               max_mode: Optional[int] = None,
               scale: float = 0.3) -> SimpleNoisePath:
    """Simple path with num_cells equal cells filling [0, horizon]."""
    points = tuple(horizon * i / num_cells for i in range(num_cells + 1))
    values = tuple(one_form(rng, dim, cap, max_mode, scale=scale)
                   for _ in range(num_cells))
    return SimpleNoisePath(TimeMesh(points), values)
