"""Seeded random inputs for suites and property checks.

Everything here draws from a caller-supplied numpy Generator so suite
output is reproducible from the config seed alone.
"""

from __future__ import annotations

from itertools import product as iter_product
from typing import Optional

import numpy as np

from .fock import SimpleNoisePath, TimeMesh
from .spectral import OneForm, TrigPoly


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
    coeffs = {}
    for k in iter_product(range(-m, m + 1), repeat=dim):
        c = scale * (rng.standard_normal() + 1j * rng.standard_normal()) / 2.0
        coeffs[k] = coeffs.get(k, 0.0) + c
        if self_adjoint:
            nk = tuple(-v for v in k)
            coeffs[nk] = coeffs.get(nk, 0.0) + np.conj(c)
    return TrigPoly(dim, cap, coeffs)


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
