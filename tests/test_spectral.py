"""Spectral calculus: algebra, Laplacian, derivatives, pairings."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torusflow import CapExceeded, GeometryMismatch, RankMismatch
from torusflow.flow import ModeSpace
from torusflow.sampling import one_form, poly, rng_for
from torusflow import spectral
from torusflow.spectral import (OneForm, TrigPoly, _box, _radius,
                                covariant_derivative, exterior_derivative,
                                flat_index, form_inner, mul_free,
                                pointwise_length_sq, tensor_inner)

TWO_PI = 2.0 * math.pi


def random_poly(rng, dim, cap, m, self_adjoint=False):
    coeffs = {}
    from itertools import product
    for k in product(range(-m, m + 1), repeat=dim):
        c = (rng.standard_normal() + 1j * rng.standard_normal()) / 2.0
        coeffs[k] = coeffs.get(k, 0.0) + c
        if self_adjoint:
            nk = tuple(-v for v in k)
            coeffs[nk] = coeffs.get(nk, 0.0) + np.conj(c)
    return TrigPoly(dim, cap, coeffs)


# ---------------------------------------------------------------- algebra

def test_multiply_inverse_modes():
    e = TrigPoly.mode((1,), 1, 2)
    einv = TrigPoly.mode((-1,), 1, 2)
    p = mul_free(e, einv).with_cap(2)
    assert (p - TrigPoly.one(1, 2)).is_zero()
    with pytest.raises(TypeError):  # `*` only scales by a number
        e * einv


def test_multiply_two_cos_squared():
    # (2cos x)^2 = 2 + 2cos 2x
    f = 2.0 * TrigPoly.cosine((1,), 1, 2)
    p = mul_free(f, f).with_cap(2)
    assert p.coeff((0,)) == pytest.approx(2.0)
    assert p.coeff((2,)) == pytest.approx(1.0)
    assert p.coeff((-2,)) == pytest.approx(1.0)


def test_multiply_cap_exceeded():
    e = TrigPoly.mode((1,), 1, 1)
    with pytest.raises(CapExceeded):
        mul_free(e, e).with_cap(1)


def test_mul_free_lifts_cap():
    e = TrigPoly.mode((1,), 1, 1)
    p = mul_free(e, e)
    assert p.coeff((2,)) == pytest.approx(1.0)
    assert p.cap >= 2


def test_mul_free_refuses_a_stack_past_the_dense_budget():
    # 4 (2r + 1)^3 entries at r = 82 exceed the budget; each factor holds
    # one mode, so only the product's FFT stack would be large
    e = TrigPoly.mode((41, 0, 0), 3, 41)
    with pytest.raises(CapExceeded, match=r"product FFT stack .* cap 82, dim 3"):
        mul_free(e, e)
    # r = 41 fits
    assert mul_free(e, TrigPoly.one(3, 0)).coeff((41, 0, 0)) == 1.0


def test_constructor_rejects_out_of_cap_modes():
    with pytest.raises(CapExceeded):
        TrigPoly(1, 1, {(2,): 1.0})


def test_geometry_validation():
    with pytest.raises(GeometryMismatch):
        TrigPoly(0, 3)
    with pytest.raises(GeometryMismatch):
        mul_free(TrigPoly.one(1, 2), TrigPoly.one(2, 2))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_sum_lifts_to_the_larger_cap(dim):
    rng = np.random.default_rng(30 + dim)
    f = random_poly(rng, dim, 2, 2)
    g = random_poly(rng, dim, 4, 3)
    padded = np.zeros((9,) * dim, dtype=complex)
    padded[(slice(2, 7),) * dim] = f.coeffs
    for got, want in ((f + g, padded + g.coeffs), (g + f, g.coeffs + padded),
                      (f - g, padded + -g.coeffs), (g - f, g.coeffs + -padded)):
        assert got.cap == 4
        assert np.array_equal(got.coeffs, want)
    # equal caps keep the single array add
    assert np.array_equal((g + g).coeffs, g.coeffs + g.coeffs)
    with pytest.raises(GeometryMismatch):
        f + random_poly(rng, dim % 3 + 1, 2, 1)
    with pytest.raises(TypeError):
        f + g.coeffs.tolist()


def _pairwise_product(a, b):
    """The product as the sum over all coefficient pairs, mode by mode."""
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            out[k] = out.get(k, 0.0) + ca * cb
    return out


def _scattered_poly(rng, dim, cap, count):
    """A few random modes inside the cap, so products have gaps."""
    modes = rng.integers(-cap, cap + 1, size=(count, dim)).tolist()
    return TrigPoly(dim, cap, {tuple(k): complex(*rng.standard_normal(2))
                               for k in modes})


def _reach(ref):
    """Radius of the exact product: the largest |k|_inf that does not cancel."""
    return max((max(abs(v) for v in k) for k, c in ref.items() if c != 0),
               default=0)


def _assert_matches(p, ref):
    scale = max(abs(c) for c in ref.values())
    for k, c in ref.items():
        # a reached mode whose pairs cancel holds round-off only
        assert abs(p.coeff(k) - c) <= (1e-13 if c else 1e-15) * scale
    # every mode no pair reaches is an exact zero
    for k, c in p.items():
        assert k in ref, f"mode {k} outside the product support holds {c}"
    assert p.max_abs_mode() == _reach(ref)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_products_match_pairwise_reference(dim):
    rng = np.random.default_rng(40 + dim)
    cap = 3
    pairs = [(random_poly(rng, dim, cap, 1), random_poly(rng, dim, cap, 2)),
             (_scattered_poly(rng, dim, cap, 3), random_poly(rng, dim, cap, 1)),
             (_scattered_poly(rng, dim, cap, 4), _scattered_poly(rng, dim, cap, 5)),
             (TrigPoly.zero(dim, cap), random_poly(rng, dim, cap, 2))]
    if dim == 2:
        # (e^{i(x+y)} + e^{i(x-y)}) (e^{i(x+y)} - e^{i(x-y)}): mode (2, 0)
        # is reached by two pairs that cancel exactly
        up, down = TrigPoly.mode((1, 1), 2, cap), TrigPoly.mode((1, -1), 2, cap)
        pairs.append((up + down, up - down))
        assert _pairwise_product(*pairs[-1])[(2, 0)] == 0
    for a, b in pairs:
        ref = _pairwise_product(a, b)
        p = mul_free(a, b)
        assert p.cap == a.max_abs_mode() + b.max_abs_mode()
        if not ref:
            assert p.is_zero()
            continue
        _assert_matches(p, ref)
        reach = _reach(ref)
        for c in range(max(a.max_abs_mode(), b.max_abs_mode()), reach + 2):
            if c < reach:
                with pytest.raises(CapExceeded):
                    mul_free(a.with_cap(c), b.with_cap(c)).with_cap(c)
            else:
                q = mul_free(a.with_cap(c), b.with_cap(c)).with_cap(c)
                assert q.cap == c
                _assert_matches(q, ref)


def test_products_own_their_coefficients():
    # a product cut out of the FFT output must not hold that array alive
    a = TrigPoly.cosine((1, 0), 2, 4)
    assert mul_free(a, a).coeffs.base is None  # cap = r
    r_is_cap = mul_free(a.with_cap(2), a.with_cap(2)).with_cap(2)
    assert r_is_cap.coeffs.base is None
    e, einv = TrigPoly.mode((1, 1), 2, 1), TrigPoly.mode((-1, -1), 2, 1)
    p = mul_free(e, einv).with_cap(1)  # r = 2 cropped to cap 1
    assert p.coeffs.base is None
    assert (p - TrigPoly.one(2, 1)).is_zero()


def _four_box_product(a, b):
    """The product with the support masks in the same FFT batch as the
    data, every product transforming four boxes: the reference that the
    FFT products must reproduce bit for bit."""
    ra, rb = a.max_abs_mode(), b.max_abs_mode()
    r = ra + rb
    shape, axes = (2 * r + 1,) * a.dim, tuple(range(1, a.dim + 1))
    if a.is_zero() or b.is_zero():
        return TrigPoly(a.dim, r)
    stack = np.zeros((4,) + shape, dtype=complex)
    stack[(0,) + _box(a.dim, ra, ra)] = a._support()
    stack[(1,) + _box(a.dim, rb, rb)] = b._support()
    stack[2:] = stack[:2] != 0
    f = np.fft.fftn(stack, s=shape, axes=axes)
    out, reach = np.fft.ifftn(f[0::2] * f[1::2], s=shape, axes=axes)
    out[reach.real < 0.5] = 0
    return TrigPoly(a.dim, r, out.copy())


def _support_zoo(rng, dim):
    """Factors of radius up to 4 with every kind of support the suites
    multiply: full boxes, random sparse masks, partials (one plane
    dropped), Laplacians (origin dropped), conjugates and pure modes."""
    full4, full2 = random_poly(rng, dim, 4, 4), random_poly(rng, dim, 4, 2)
    mask = rng.random((9,) * dim) < 0.4
    mask[(8,) + (4,) * (dim - 1)] = True  # keep radius 4
    sparse = TrigPoly(dim, 4, full4.coeffs * mask)
    return [full4, full2, sparse, _scattered_poly(rng, dim, 4, 3),
            full4.partial(dim - 1), full2.partial(0), full4.laplacian(),
            sparse.conjugate(), TrigPoly.mode((-3,) + (1,) * (dim - 1), dim, 4),
            TrigPoly.one(dim, 4)]


def _sparse_poly(rng, dim, r, density):
    """A radius r polynomial on a random mask of the given density."""
    full = random_poly(rng, dim, r, r)
    mask = rng.random(full.coeffs.shape) < density
    mask[(2 * r,) + (r,) * (dim - 1)] = True  # keep radius r
    return TrigPoly(dim, r, full.coeffs * mask)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_fft_products_match_four_box_products(monkeypatch, dim):
    monkeypatch.setattr(spectral, "_DIRECT_MACS", 0)  # every product by FFT
    rng = np.random.default_rng(70 + dim)
    zoo = _support_zoo(rng, dim)
    pairs = [(a, b) for i, a in enumerate(zoo) for b in zoo[i:]]
    pairs.append((TrigPoly.zero(dim, 4), zoo[0]))
    pairs.append((zoo[2], TrigPoly.zero(dim, 4)))
    # (1 + e^{2ix}) (1 - e^{2ix}): mode 2 is reached by two pairs that
    # cancel, so it keeps its round-off
    one, e2 = TrigPoly.one(dim, 4), TrigPoly.mode((2,) + (0,) * (dim - 1), dim, 4)
    pairs.append((one + e2, one - e2))
    if dim == 2:
        # random sparse supports against a full box
        full = random_poly(rng, 2, 4, 4)
        pairs += [(_sparse_poly(rng, 2, 4, 0.5), full) for _ in range(40)]
    for a, b in pairs:
        want = _four_box_product(a, b)
        got = mul_free(a, b)
        assert np.array_equal(got.coeffs, want.coeffs)
        assert got.cap == want.cap
        assert got.max_abs_mode() == want.max_abs_mode()


def _count_mask_transforms(monkeypatch):
    """Count the FFT pairs ``mul_free`` runs on 0/1 masks."""
    calls = []
    fft_product = spectral._fft_product

    def counted(dim, ra, rb, box_a, box_b):
        calls.append(box_a.dtype == bool)
        return fft_product(dim, ra, rb, box_a, box_b)

    monkeypatch.setattr(spectral, "_fft_product", counted)
    return calls


def test_fft_products_transform_masks_only_past_an_unreached_mode(monkeypatch):
    monkeypatch.setattr(spectral, "_DIRECT_MACS", 0)  # every product by FFT
    rng = np.random.default_rng(81)
    full, other = random_poly(rng, 3, 4, 4), random_poly(rng, 3, 4, 4)
    sparse = _sparse_poly(rng, 3, 4, 0.02)
    one, e2 = TrigPoly.one(3, 4), TrigPoly.mode((2, 0, 0), 3, 4)
    # f d_2 f = d_2 (f^2) / 2 cancels at every mode with k_2 = 0, so the
    # partial multiplies another full box
    cases = [(full, full, 0), (full.partial(2), other, 0),
             (sparse, sparse, 1), (one + e2, one - e2, 1)]
    calls = _count_mask_transforms(monkeypatch)
    for a, b, masks in cases:
        want = _four_box_product(a, b)
        calls.clear()
        got = mul_free(a, b)
        assert calls.count(True) == masks and calls.count(False) == 1
        assert np.array_equal(got.coeffs, want.coeffs)
        if masks:  # the masks were needed: some mode is unreached
            assert np.count_nonzero(want.coeffs) < want.coeffs.size
    # (1 + e^{2ix}) (1 - e^{2ix}) keeps the round-off of mode 2
    assert mul_free(one + e2, one - e2).coeff((2, 0, 0)) == \
        _four_box_product(one + e2, one - e2).coeff((2, 0, 0))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
def test_fft_products_zero_unreached_modes_past_nan_and_inf(monkeypatch, bad):
    monkeypatch.setattr(spectral, "_DIRECT_MACS", 0)  # every product by FFT
    rng = np.random.default_rng(82)
    full = random_poly(rng, 2, 4, 4)
    for sparse in (_sparse_poly(rng, 2, 4, 0.3), _sparse_poly(rng, 2, 4, 0.05)):
        arr = sparse.coeffs.copy()
        arr[tuple(np.argwhere(arr != 0)[0])] = bad
        a = TrigPoly(2, 4, arr)
        for x, y in ((a, full), (a, sparse), (a, a)):
            # an inf turns some transformed entries into NaN
            with np.errstate(invalid="ignore"):
                want = _four_box_product(x, y).coeffs
                got = mul_free(x, y).coeffs
            assert np.array_equal(got, want, equal_nan=True)
            unreached = want == 0
            assert unreached.any() and not got[unreached].any()


def test_fft_round_off_at_unreached_modes_is_far_below_the_level():
    # sparse supports with coefficients over 16 orders of magnitude, on
    # product boxes of lengths 9, 17 and 23 at d = 1, 2, 3 (the primes
    # take pocketfft's generic passes) and 211 at d=1 (its Bluestein
    # path); the worst seen is about 2^-14 of tau
    rng = np.random.default_rng(83)
    radii = {1: [(2, 2), (4, 4), (3, 5), (5, 6), (52, 53)],
             2: [(2, 2), (4, 4), (3, 5), (5, 6)],
             3: [(2, 2), (4, 4), (3, 5), (5, 6)]}
    worst = 0.0
    for dim, pairs in radii.items():
        for ra, rb in pairs:
            for _ in range(6):
                factors = []
                for ri in (ra, rb):
                    p = _sparse_poly(rng, dim, ri, rng.uniform(0.05, 0.6))
                    tails = 10.0 ** rng.uniform(-8, 8, p.coeffs.shape)
                    factors.append(TrigPoly(dim, ri, p.coeffs * tails))
                sa, sb = (f._support() for f in factors)
                out = spectral._fft_product(dim, ra, rb, sa, sb)
                reach = spectral._fft_product(dim, ra, rb, sa != 0, sb != 0).real >= 0.5
                assert not reach.all()
                tau = 2.0 ** -40 * math.sqrt(out.size) \
                    * np.linalg.norm(sa) * np.linalg.norm(sb)
                worst = max(worst, float(np.abs(out[~reach]).max()) / tau)
    assert 0 < worst <= 2.0 ** -8


def _long_double_product(a, b):
    """The product and |a| * |b| (the convolution of the magnitudes),
    summed pair by pair in long double."""
    ra, rb = a.max_abs_mode(), b.max_abs_mode()
    shape = (2 * (ra + rb) + 1,) * a.dim
    out = np.zeros(shape, dtype=np.clongdouble)
    mag = np.zeros(shape, dtype=np.longdouble)
    sa, sb = a._support(), b._support().astype(np.clongdouble)
    for idx in zip(*np.nonzero(sa)):
        at = tuple(slice(i, i + 2 * rb + 1) for i in idx)
        out[at] += np.clongdouble(sa[idx]) * sb
        mag[at] += abs(np.clongdouble(sa[idx])) * np.abs(sb)
    return out, mag


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_direct_products_are_sums_over_the_pairs(monkeypatch, dim):
    # every product by direct sums, past the crossover too
    monkeypatch.setattr(spectral, "_DIRECT_MACS", 1 << 62)
    u = np.finfo(float).eps / 2
    rng = np.random.default_rng(90 + dim)
    zoo = _support_zoo(rng, dim)
    pairs = [(a, b) for i, a in enumerate(zoo) for b in zoo[i:]]
    one, e2 = TrigPoly.one(dim, 4), TrigPoly.mode((2,) + (0,) * (dim - 1), dim, 4)
    pairs.append((one + e2, one - e2))
    for a, b in pairs:
        ra, rb = a.max_abs_mode(), b.max_abs_mode()
        w = 2 * (ra + rb) + 1
        p = mul_free(a, b)
        assert p.cap == ra + rb and p.coeffs.base is None
        ref, mag = _long_double_product(a, b)
        # a mode no pair reaches sums exact zeros
        assert not p.coeffs[mag == 0].any()
        # each mode is a dot product of at most n terms, the rows of the
        # smaller box laid out at width w: with sqrt(2) gamma_2 per complex
        # product, its error is at most gamma_{n+2} |a| * |b| (Higham 2002,
        # sec. 3.1 and 3.6); the bound doubles that for the reference
        n = (2 * min(ra, rb) + 1) * w ** (dim - 1)
        err = np.abs(p.coeffs - ref).astype(float)
        assert np.all(err <= 2 * (n + 2) * u * mag.astype(float))
        # the FFT's error is normwise: at most a small multiple of
        # N u max |a| * |b| at every mode of its N = w^d box
        fft = _four_box_product(a, b).coeffs
        assert np.abs(p.coeffs - fft).max() <= 4 * w ** dim * u * float(mag.max())
    # (1 + e^{2ix}) (1 - e^{2ix}) = 1 - e^{4ix}: the odd modes are not
    # reached, and the two pairs that reach mode 2 cancel exactly
    p = mul_free(one + e2, one - e2)
    assert p.items() == [((0,) * dim, 1), ((4,) + (0,) * (dim - 1), -1)]
    assert p.max_abs_mode() == 4


@pytest.mark.parametrize("dim, small, large", [(1, 4, 256), (2, 4, 8), (3, 2, 4)])
def test_products_take_direct_sums_below_the_crossover(dim, small, large):
    # two full boxes of radius ``small`` multiply below the crossover and
    # two of radius ``large`` above it; the two kernels differ at
    # round-off, so the bits tell which one made the product
    rng = np.random.default_rng(100 + dim)
    for r, direct in ((small, True), (large, False)):
        macs = (2 * r + 1) ** 2 * (4 * r + 1) ** (2 * dim - 2)
        assert (macs <= spectral._DIRECT_MACS) == direct
        a, b = random_poly(rng, dim, r, r), random_poly(rng, dim, r, r)
        by_sums = spectral._direct_product(dim, r, r, a.coeffs, b.coeffs)
        by_fft = _four_box_product(a, b).coeffs
        assert not np.array_equal(by_sums, by_fft)
        assert np.array_equal(mul_free(a, b).coeffs,
                              by_sums if direct else by_fft)


def _row_layout_product(dim, ra, rb, box_a, box_b):
    """The direct sums with every box laid out in zero-padded rows of the
    product's width, as every d once took them."""
    w = 2 * (ra + rb) + 1
    flat = []
    for ri, box in ((ra, box_a), (rb, box_b)):
        n = 2 * ri + 1
        rows = np.zeros((n,) + (w,) * (dim - 1), dtype=complex)
        rows[(slice(None),) + (slice(n),) * (dim - 1)] = box
        flat.append(rows.ravel()[:2 * ri * sum(w ** j for j in range(dim)) + 1])
    return np.convolve(*flat).reshape((w,) * dim).copy()


def test_d1_products_convolve_the_boxes_themselves():
    # d=1 takes the row path too: each row is a copy of its box, so the
    # products equal the row layout bit for bit; the factors sit at caps
    # above their radii, so the boxes are views into larger arrays
    rng = np.random.default_rng(77)
    zoo = _support_zoo(rng, 1) + [random_poly(rng, 1, 9, 7), TrigPoly.mode((2,), 1, 6)]
    for a, b in [(a, b) for a in zoo for b in zoo]:
        ra, rb = a.max_abs_mode(), b.max_abs_mode()
        p = mul_free(a, b)
        assert p.coeffs.base is None
        assert np.array_equal(
            p.coeffs, _row_layout_product(1, ra, rb, a._support(), b._support()))


def test_cached_radius_matches_the_coefficients():
    rng = np.random.default_rng(12)
    # the y-mode is the only one partial_y keeps; heat(100) flushes e^{3ix}
    f = TrigPoly(2, 4, {(3, 0): 1.0, (0, 1): 0.5, (-1, 2): 0.25j})
    g = random_poly(rng, 2, 4, 1)
    assert (f.max_abs_mode(), g.max_abs_mode()) == (3, 1)  # warm caches
    made = [TrigPoly.zero(2, 4), TrigPoly.one(2, 4), f, g,
            mul_free(f, g).with_cap(4), mul_free(f, f), f.with_cap(3),
            f.with_cap(7),
            f.conjugate(), f.partial(0), f.partial(1), f.heat(0.1),
            f.heat(100.0), f + g.with_cap(6), f + g, 2.0 * f,
            TrigPoly(2, 4, np.array(f.coeffs))]
    # d_x (e^{2iy} + e^{ix}) = i e^{ix}, and 0.5 flushes a subnormal
    h = TrigPoly.mode((0, 2), 2, 3) + TrigPoly.mode((1, 0), 2, 3)
    s = TrigPoly(2, 3, {(0, 2): 5e-324, (1, 0): 1.0})
    assert (h.max_abs_mode(), s.max_abs_mode()) == (2, 2)
    made += [-f, f.laplacian(), f.with_cap(3).with_cap(5), h.partial(0), 0.5 * s]
    radii = [p.max_abs_mode() for p in made]
    assert radii == [_radius(p.coeffs, p.cap) for p in made]
    assert f.partial(1).max_abs_mode() == 2
    assert f.heat(100.0).max_abs_mode() == 2
    assert h.partial(0).max_abs_mode() == 1 and (0.5 * s).max_abs_mode() == 1
    # negation, conjugate, laplacian and with_cap up, down and at the
    # radius, on the zero polynomial, constants, and subnormal, inf and
    # NaN coefficients: each result's radius and kept view come from its
    # own array, even where the input's radius was read first
    for dim in (1, 2, 3):
        zoo = _odd_polys(dim) + [random_poly(rng, dim, 3, m) for m in (0, 1, 3)]
        for p in zoo:
            r = p.max_abs_mode()
            with np.errstate(invalid="ignore"):
                made = [-p, p.conjugate(), p.laplacian(), p.with_cap(6),
                        p.with_cap(r), p.with_cap(6).with_cap(3)]
            for q in made:
                assert q.max_abs_mode() == _radius(q.coeffs, q.cap)
                assert np.array_equal(q._support(),
                                      q.coeffs[_box(dim, q.cap, q.max_abs_mode())],
                                      equal_nan=True)


def _odd_polys(dim):
    """The zero polynomial, constants, and radius-2 polynomials holding a
    subnormal, an inf or a NaN, at the centre and off it."""
    out = [TrigPoly.zero(dim, 3), TrigPoly.one(dim, 3), TrigPoly.constant(np.nan, dim, 3)]
    k = (2,) + (0,) * (dim - 1)
    for bad in (5e-324, -5e-324j, np.inf, complex(0, -np.inf), np.nan):
        out.append(TrigPoly(dim, 3, {k: bad, (0,) * dim: 1.0}))
        out.append(TrigPoly(dim, 3, {k: 1.0, (0,) * dim: bad}))
    return out


@pytest.mark.parametrize("dim", [2, 3])
def test_constant_products_lay_out_rows_of_width_one(dim):
    # two nonzero constants: the product's rows are one entry wide
    a, b = TrigPoly.constant(2.0, dim, 3), TrigPoly.constant(-1.5j, dim, 1)
    p = mul_free(a, b)
    assert p.cap == 0 and p.max_abs_mode() == 0 and p.coeffs.base is None
    assert p.coeff((0,) * dim) == -3.0j


def _own_grid(p, n):
    """values_on_grid as one transform of its own support box."""
    r = p.max_abs_mode()
    arr = np.zeros((n,) * p.dim, dtype=complex)
    arr[spectral._grid_index(p.dim, r, n)] = p._support()
    return np.fft.ifftn(arr) * (n ** p.dim)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_grid_values_slices_match_their_own_transforms(dim):
    rng = np.random.default_rng(150 + dim)
    polys = [random_poly(rng, dim, 4, m) for m in (3, 0, 1, 2)]
    polys += [TrigPoly.zero(dim, 4), TrigPoly.constant(0.5, dim, 2),
              polys[0].partial(dim - 1), TrigPoly.mode((0,) * (dim - 1) + (-3,), dim, 3)]
    for n in (8, 9, 16):
        stack = spectral.grid_values(polys, n)
        assert stack.shape == (len(polys),) + (n,) * dim
        for p, got in zip(polys, stack):
            assert np.array_equal(got.view(np.uint64), _own_grid(p, n).view(np.uint64))
            assert np.array_equal(got.view(np.uint64),
                                  p.values_on_grid(n).view(np.uint64))
    # radius 0 on a one-point grid
    c = TrigPoly.constant(1.5 - 2j, dim, 2)
    assert spectral.grid_values([c], 1).tolist() == [np.full((1,) * dim, 1.5 - 2j).tolist()]
    with pytest.raises(ValueError):
        spectral.grid_values([c, polys[0]], 6)  # radius 3 needs n > 6


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("per_stack", [None, 1, 2])
def test_length_on_grid_matches_the_per_component_route(dim, per_stack, monkeypatch):
    # one stack for every component, or stacks of one and two components
    if per_stack is not None:
        monkeypatch.setattr(spectral, "_GRID_STACK", per_stack * 16 ** dim)
    rng = np.random.default_rng(160 + dim)
    f = random_poly(rng, dim, 4, 3)
    tensors = [covariant_derivative(f, order) for order in (0, 1, 2)]
    lengths = spectral.lengths_on_grid(tensors, 16)
    for t, got in zip(tensors, lengths):
        want = np.sqrt(sum(np.abs(c.values_on_grid(16)) ** 2 for c in t.comps.values()))
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        one = spectral.lengths_on_grid((t,), 16)[0]
        assert np.array_equal(one.view(np.uint64), want.view(np.uint64))


def test_mode_space_vectors_round_trip():
    rng = np.random.default_rng(9)
    for dim in (1, 2, 3):
        space = ModeSpace(dim, 3)
        p = random_poly(rng, dim, 3, 2)
        v = space.to_vec(p)
        assert v.shape == (space.size,)
        for k, c in p.items():
            assert v[flat_index([k], 3)[0]] == c
        back = space.from_vec(v)
        assert back.cap == 3 and np.array_equal(back.coeffs, p.coeffs)
        # a polynomial at a smaller cap is padded into the space
        q = random_poly(rng, dim, 1, 1)
        back = space.from_vec(space.to_vec(q))
        assert back.cap == 3 and (back - q.with_cap(3)).is_zero()
        with pytest.raises(CapExceeded):
            space.to_vec(TrigPoly.mode((4,) + (0,) * (dim - 1), dim, 4))


# -------------------------------------------------------------- laplacian

def test_laplacian_examples():
    assert TrigPoly.one(1, 3).laplacian().is_zero()
    e3 = TrigPoly.mode((3,), 1, 3)
    assert (e3.laplacian() - 9.0 * e3).is_zero()
    e11 = TrigPoly.mode((1, 1), 2, 2)
    assert (e11.laplacian() - 2.0 * e11).is_zero()


@settings(max_examples=40, derandomize=True)
@given(st.integers(-5, 5), st.integers(-5, 5))
def test_eigenrelation_all_modes(k1, k2):
    e = TrigPoly.mode((k1, k2), 2, 5)
    lam = k1 * k1 + k2 * k2
    assert (e.laplacian() - float(lam) * e).is_zero()


def test_heat_semigroup():
    f = TrigPoly.cosine((1,), 1, 2) + TrigPoly.mode((2,), 1, 2)
    assert (f.heat(0.0) - f).is_zero()
    h = f.heat(1.0, halved=True)
    assert h.coeff((1,)) == pytest.approx(0.5 * math.exp(-0.5))
    assert h.coeff((2,)) == pytest.approx(math.exp(-2.0))
    # t=2 halved equals t=1 unhalved
    assert (f.heat(2.0, halved=True) - f.heat(1.0)).is_zero(1e-15)


def test_heat_rejects_negative_time():
    with pytest.raises(ValueError):
        TrigPoly.one(1, 1).heat(-0.1)


# ------------------------------------------------------------ derivatives

def test_covariant_derivative_examples():
    f = TrigPoly.cosine((1,), 1, 3)
    d0 = covariant_derivative(f, 0)
    assert (d0.component(()) - f).is_zero()
    d1 = covariant_derivative(f, 1)
    msin = -1.0 * TrigPoly.sine((1,), 1, 3)
    assert (d1.component((0,)) - msin).is_zero(1e-15)
    e = TrigPoly.mode((4,), 1, 4)
    d2 = covariant_derivative(e, 2)
    assert (d2.component((0, 0)) + 16.0 * e).is_zero(1e-12)


@settings(max_examples=25, derandomize=True)
@given(st.integers(0, 400))
def test_hessian_symmetry(seed):
    rng = np.random.default_rng(seed)
    f = random_poly(rng, 2, 3, 2)
    comps = covariant_derivative(f, 2).comps
    assert (comps[(0, 1)] - comps[(1, 0)]).is_zero(1e-12)


def test_tensor_inner_examples():
    dcos = covariant_derivative(TrigPoly.cosine((1,), 1, 2), 1)
    dsin = covariant_derivative(TrigPoly.sine((1,), 1, 2), 1)
    # (-sin)(cos) = -1/2 sin 2x
    p = tensor_inner(dcos, dsin)
    target = -0.5 * TrigPoly.sine((2,), 1, p.cap)
    assert (p - target).is_zero(1e-15)
    # l(grad e^{inx})^2 = n^2
    e = TrigPoly.mode((3,), 1, 3)
    ln = tensor_inner(covariant_derivative(e, 1), covariant_derivative(e, 1))
    assert (ln - TrigPoly.constant(9.0, 1, ln.cap)).is_zero(1e-12)


def test_tensor_inner_rank_mismatch():
    f = TrigPoly.cosine((1,), 1, 2)
    with pytest.raises(RankMismatch):
        tensor_inner(covariant_derivative(f, 1), covariant_derivative(f, 2))


def test_covariant_derivative_negative_rank():
    with pytest.raises(RankMismatch):
        covariant_derivative(TrigPoly.one(1, 1), -1)


# ----------------------------------------------------------------- forms

def test_exterior_derivative_examples():
    assert exterior_derivative(TrigPoly.one(1, 2)).is_zero()
    w = exterior_derivative(TrigPoly.cosine((1,), 1, 2))
    assert (w.comps[0] + TrigPoly.sine((1,), 1, 2)).is_zero(1e-15)
    e = TrigPoly.mode((1, 2), 2, 2)
    w2 = exterior_derivative(e)
    assert (w2.comps[0] - 1j * e).is_zero(1e-15)
    assert (w2.comps[1] - 2j * e).is_zero(1e-15)


def test_exactness_cross_derivatives():
    # for w = df the cross partials agree
    rng = np.random.default_rng(3)
    f = random_poly(rng, 2, 4, 2)
    w = exterior_derivative(f)
    diff = w.comps[0].partial(1) - w.comps[1].partial(0)
    assert diff.is_zero(1e-13)


def test_form_inner_examples():
    dcos = exterior_derivative(TrigPoly.cosine((1,), 1, 2))
    dsin = exterior_derivative(TrigPoly.sine((1,), 1, 2))
    p = form_inner(dcos, dsin)
    assert (p + 0.5 * TrigPoly.sine((2,), 1, p.cap)).is_zero(1e-15)
    zero = OneForm.zero(1, 2)
    assert form_inner(zero, dsin).is_zero()
    q = form_inner(dcos, dcos)
    # sin^2 = 1/2 - 1/2 cos 2x
    assert q.coeff((0,)) == pytest.approx(0.5)
    assert q.coeff((2,)) == pytest.approx(-0.25)
    assert q.coeff((-2,)) == pytest.approx(-0.25)


# --------------------------------------------------------------- pairings

def test_l2_inner_orthogonality():
    e1 = TrigPoly.mode((1,), 1, 2)
    e2 = TrigPoly.mode((2,), 1, 2)
    assert e1.l2_inner(e1) == pytest.approx(TWO_PI)
    assert e1.l2_inner(e2) == 0
    # first argument conjugated
    f = 1j * e1
    assert f.l2_inner(e1) == pytest.approx(-1j * TWO_PI)
    assert e1.l2_inner(f) == pytest.approx(1j * TWO_PI)


def test_l2_norm_cos():
    # ||cos||^2 = pi on the circle
    c = TrigPoly.cosine((1,), 1, 1)
    assert c.l2_norm() == pytest.approx(math.sqrt(math.pi))


@settings(max_examples=40, derandomize=True)
@given(st.integers(0, 10 ** 6), st.integers(1, 3))
def test_scalars_do_not_depend_on_the_cap(seed, dim):
    # every scalar is summed over a support box, which no cap moves, so
    # lifting an operand to a larger cap changes no bit of it
    rng = rng_for(seed)
    f, g = (poly(rng, dim, 3, int(rng.integers(0, 4))) for _ in range(2))
    w, e = (one_form(rng, dim, 3, int(rng.integers(0, 4))) for _ in range(2))
    for cap in (4, 5, 7, 9):
        fl, gl = f.with_cap(cap), g.with_cap(cap)
        wl, el = (OneForm(tuple(c.with_cap(cap) for c in v.comps)) for v in (w, e))
        pair, k0 = f.l2_inner(g), w.k0_inner(e)
        assert fl.l2_inner(g) == f.l2_inner(gl) == fl.l2_inner(gl) == pair
        assert wl.k0_inner(e) == w.k0_inner(el) == wl.k0_inner(el) == k0
        assert fl.l2_norm() == f.l2_norm()
        assert fl.coeff_l1() == f.coeff_l1()
        assert fl.sup_norm() == f.sup_norm()
        # the grid slack alone, which the l1 end of the bracket can hide
        assert fl._sup_grid()[1] == f._sup_grid()[1]


def test_sup_norm_examples():
    lower, upper = TrigPoly.cosine((1,), 1, 1).sup_norm()
    assert lower == pytest.approx(1.0, abs=1e-12)
    assert lower <= upper + 1e-15 and upper >= 1.0 - 1e-15
    assert TrigPoly.one(1, 1).sup_norm() == pytest.approx((1.0, 1.0))
    assert TrigPoly.zero(2, 3).sup_norm() == (0.0, 0.0)


def _dense_sup(f, n):
    return float(np.abs(f.values_on_grid(n)).max())


def test_sup_norm_brackets_an_off_grid_peak():
    # cos(x - 0.3) peaks at x = 0.3, between the nodes of its 4-point grid
    f = (math.cos(0.3) * TrigPoly.cosine((1,), 1, 1)
         + math.sin(0.3) * TrigPoly.sine((1,), 1, 1))
    lower, upper = f.sup_norm()
    true_sup = _dense_sup(f, 4096)
    assert lower == pytest.approx(math.cos(0.3), abs=1e-12)   # 0.955
    assert true_sup == pytest.approx(1.0, abs=1e-6)
    assert lower < true_sup <= upper


@pytest.mark.parametrize("dim,n_ref", [(1, 256), (2, 128)])
def test_sup_norm_brackets_random_polys(dim, n_ref):
    rng = np.random.default_rng(606 + dim)
    for _ in range(40):
        f = random_poly(rng, dim, 4, int(rng.integers(1, 5)))
        lower, upper = f.sup_norm()
        true_sup = _dense_sup(f, n_ref)
        assert lower <= true_sup * (1 + 1e-12) + 1e-12
        assert true_sup <= upper * (1 + 1e-12) + 1e-12
        assert upper <= f.coeff_l1() + 1e-12


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("rank", [0, 1, 2])
def test_length_on_grid_matches_coefficient_length(dim, rank):
    rng = np.random.default_rng(10 * dim + rank)
    f = random_poly(rng, dim, 3, 2)
    t = covariant_derivative(f, rank)
    n = 4 * 2 + 3
    want = np.sqrt(pointwise_length_sq(t).values_on_grid(n).real)
    got = spectral.lengths_on_grid((t,), n)[0]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * want.max())


def test_values_on_grid_matches_direct_eval():
    f = TrigPoly.cosine((2,), 1, 2) + 0.5 * TrigPoly.sine((1,), 1, 2)
    n = 9
    vals = f.values_on_grid(n)
    xs = 2 * math.pi * np.arange(n) / n
    direct = np.cos(2 * xs) + 0.5 * np.sin(xs)
    np.testing.assert_allclose(vals.real, direct, atol=1e-12)
    np.testing.assert_allclose(vals.imag, 0.0, atol=1e-12)


def test_with_cap_strictness():
    f = TrigPoly.cosine((3,), 1, 4)
    with pytest.raises(CapExceeded):
        f.with_cap(2)
    assert f.with_cap(6).cap == 6


# ------------------------------------------------ product rules and bounds

@settings(max_examples=30, derandomize=True)
@given(st.integers(0, 500))
def test_laplacian_product_rule(seed):
    # Delta(fg) = f Delta(g) + g Delta(f) - 2 <grad f, grad g>
    # mixed term unconjugated: the identity is bilinear
    rng = np.random.default_rng(seed)
    f = random_poly(rng, 1, 8, 2)
    g = random_poly(rng, 1, 8, 2)
    lhs = mul_free(f, g).laplacian().with_cap(8)
    cross = TrigPoly.zero(1, 8)
    for ax in range(1):
        cross = cross + mul_free(f.partial(ax), g.partial(ax)).with_cap(8)
    rhs = (mul_free(f, g.laplacian()).with_cap(8)
           + mul_free(g, f.laplacian()).with_cap(8)
           - 2.0 * cross)
    assert (lhs - rhs).is_zero(1e-12)


@settings(max_examples=15, derandomize=True)
@given(st.integers(0, 500), st.integers(1, 3))
def test_commutator_laplacian_covariant(seed, rank):
    rng = np.random.default_rng(seed)
    f = random_poly(rng, 2, 3, 1)
    a = covariant_derivative(f.laplacian(), rank)
    b = covariant_derivative(f, rank)
    for idx, comp in b.comps.items():
        assert (a.component(idx) - comp.laplacian()).is_zero(1e-11)


def test_laplacian_pointwise_bound():
    rng = np.random.default_rng(11)
    for _ in range(10):
        f = random_poly(rng, 2, 4, 2)
        n = 4 * 2 + 3
        lap = np.abs(f.laplacian().values_on_grid(n))
        hess = pointwise_length_sq(covariant_derivative(f, 2))
        hv = np.sqrt(np.maximum(hess.values_on_grid(n).real, 0.0))
        assert np.all(lap <= math.sqrt(2) * hv + 1e-10)


def test_gradient_growth_per_mode():
    # l(grad^k phi) = |k|^k for pure modes, and sup ratios <= lambda^2
    for n in (1, 2, 3):
        e = TrigPoly.mode((n,), 1, n)
        prev = None
        for k in range(1, 4):
            lk = pointwise_length_sq(covariant_derivative(e, k))
            val = math.sqrt(max(lk.coeff((0,) * 1).real, 0.0))
            assert val == pytest.approx(float(n) ** k, rel=1e-12)
            assert val <= (1.0 + n * n) ** k
            if prev is not None:
                assert val / prev <= n * n + 1e-12
            prev = val


def test_iterated_laplacian_growth():
    # ||Delta^k f||_inf <= C K^k with C = sum |coeffs|, K = max eigenvalue
    rng = np.random.default_rng(5)
    f = random_poly(rng, 1, 6, 3)
    c_const = f.coeff_l1()
    k_const = float(f.max_abs_mode() ** 2)
    g = f
    for k in range(1, 9):
        g = g.laplacian()
        assert g.sup_norm()[1] <= c_const * k_const ** k + 1e-9


def test_sobolev_sup_bound():
    # sup|f| <= sum |coeffs|, the crude but exact l1 bound used by growth
    rng = np.random.default_rng(8)
    for _ in range(10):
        f = random_poly(rng, 1, 5, 3)
        assert f.sup_norm()[1] <= f.coeff_l1() + 1e-9
