"""Time meshes, simple noise paths, and their pairing."""

import math

import pytest

from torusflow import GeometryMismatch
from torusflow.fock import SimpleNoisePath, TimeMesh, noise_inner
from torusflow.spectral import TrigPoly, exterior_derivative


def dcos(dim=1, cap=2):
    return exterior_derivative(TrigPoly.cosine((1,) + (0,) * (dim - 1), dim, cap))


# -------------------------------------------------------------------- mesh

def test_time_mesh_basics():
    m = TimeMesh([0.0, 0.5, 2.0])
    assert m.num_cells == 2
    assert m.cells() == [(0.0, 0.5), (0.5, 2.0)]
    assert m.horizon == 2.0


def test_time_mesh_degenerate_point():
    m = TimeMesh([0.0])
    assert m.num_cells == 0
    assert m.cells() == []
    assert m.horizon == 0.0


def test_time_mesh_validation():
    with pytest.raises(GeometryMismatch):
        TimeMesh([0.5, 1.0])
    with pytest.raises(GeometryMismatch):
        TimeMesh([0.0, 1.0, 1.0])
    with pytest.raises(GeometryMismatch):
        TimeMesh([])


def test_time_mesh_merge_and_refine():
    a = TimeMesh([0.0, 1.0])
    b = TimeMesh([0.0, 0.25, 1.5])
    m = a.merged(b)
    assert m.points == (0.0, 0.25, 1.0, 1.5)
    assert a.refined_to(0.5).points == (0.0, 0.5)
    assert a.refined_to(2.5).points == (0.0, 1.0, 2.5)
    assert a.refined_to(0.0).points == (0.0,)


# -------------------------------------------------------------------- path

def test_indicator_and_value_at():
    p = SimpleNoisePath.indicator(dcos(), 1.0, 3.0)
    assert p.value_at(0.5).is_zero()
    assert not p.value_at(1.0).is_zero()
    assert p.value_at(2.9) is p.value_at(1.0)
    assert p.value_at(3.0).is_zero()
    assert p.support_end() == 3.0


def test_empty_path_needs_dimension():
    with pytest.raises(GeometryMismatch):
        SimpleNoisePath(TimeMesh([0.0]), ())
    p = SimpleNoisePath(TimeMesh([0.0]), (), dim=2)
    assert p.dim == 2 and p.is_zero()


def test_noise_inner_examples():
    w = dcos()
    f = SimpleNoisePath.indicator(w, 0.0, 1.0)
    zero = SimpleNoisePath.zero(1, horizon=1.0)
    assert noise_inner(zero, f) == 0
    # ||dcos||^2 = ||sin||^2 = pi over one unit of time
    assert noise_inner(f, f) == pytest.approx(math.pi)
    g = SimpleNoisePath.indicator(w, 1.0, 3.0)
    h = SimpleNoisePath.indicator(w, 0.0, 2.0)
    assert noise_inner(h, g) == pytest.approx(math.pi)  # overlap length 1
    assert noise_inner(f, g) == 0  # disjoint supports


def test_noise_inner_conjugates_first_argument():
    w = dcos()
    f = SimpleNoisePath.indicator(w.scale(1j), 0.0, 1.0)
    g = SimpleNoisePath.indicator(w, 0.0, 1.0)
    assert noise_inner(f, g) == pytest.approx(-1j * math.pi)
    assert noise_inner(g, f) == pytest.approx(1j * math.pi)
