"""Seeded draws: the vectorized polynomial draw keeps the random stream."""

from itertools import product

import numpy as np

from torusflow.sampling import poly, rng_for
from torusflow.spectral import TrigPoly


def scalar_poly(rng, dim, cap, max_mode=None, self_adjoint=False, scale=1.0):
    """Reference draw: two scalar normals per mode of the |k|_inf <= m
    box in lexicographic order, accumulated mode by mode."""
    m = cap if max_mode is None else min(max_mode, cap)
    coeffs = {}
    for k in product(range(-m, m + 1), repeat=dim):
        c = scale * (rng.standard_normal() + 1j * rng.standard_normal()) / 2.0
        coeffs[k] = coeffs.get(k, 0.0) + c
        if self_adjoint:
            nk = tuple(-v for v in k)
            coeffs[nk] = coeffs.get(nk, 0.0) + np.conj(c)
    return TrigPoly(dim, cap, coeffs)


def test_poly_matches_the_scalar_draw_bitwise():
    for seed in range(6):
        for dim in (1, 2, 3):
            for cap, max_mode in ((0, None), (2, None), (3, 1), (4, 2), (2, 5)):
                for self_adjoint in (False, True):
                    for scale in (1.0, 0.3, 2.5):
                        fast, slow = rng_for(seed), rng_for(seed)
                        got = poly(fast, dim, cap, max_mode, self_adjoint, scale)
                        want = scalar_poly(slow, dim, cap, max_mode,
                                           self_adjoint, scale)
                        assert got.cap == want.cap
                        assert got.coeffs.tobytes() == want.coeffs.tobytes()
                        # the generator is left in the same state
                        assert fast.standard_normal() == slow.standard_normal()
