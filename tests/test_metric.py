"""Curvature-weighted inner product on normal fields and its Riesz map."""

import numpy as np
import pytest

import shapeopt.curve as curve
from conftest import circle
from shapeopt import (ExperimentSpec, HessianOperator, SolverConfig,
                      covariant_derivative, inner, norm,
                      initial_shape, riemannian_hessian_form, riesz_gradient)
from shapeopt.errors import DimensionMismatch
from shapeopt.harness.properties import random_star_curve
from shapeopt.metric import check_A, metric_weight


def test_check_A_rejects_negative_and_non_finite():
    for bad in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="metric parameter A must be >= 0"):
            check_A(bad)


def test_check_A_returns_a_float():
    assert check_A(0) == 0.0 and type(check_A(0)) is float
    assert check_A(np.float32(2.0)) == 2.0
    assert type(check_A(np.float32(2.0))) is float
    assert check_A(2.0) == 2.0


@pytest.mark.parametrize("use", [
    lambda c, z, A: SolverConfig(A=A),
    lambda c, z, A: ExperimentSpec(A=A),
    lambda c, z, A: metric_weight(c, A),
    lambda c, z, A: inner(c, A, z, z),
    lambda c, z, A: norm(c, A, z),
    lambda c, z, A: riesz_gradient(c, A, z),
    lambda c, z, A: covariant_derivative(c, A, z, z, z),
    lambda c, z, A: riemannian_hessian_form(c, A, (z, z + 1.0), z, z),
    lambda c, z, A: HessianOperator.general_form(c, A, (z, z + 1.0)),
])
def test_every_use_of_a_rejects_a_bad_a(use):
    c = circle(16)
    z = np.zeros(16)
    use(c, z, 0.5)
    for bad in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="metric parameter A must be >= 0"):
            use(c, z, bad)


def test_weight_is_one_plus_a_kappa_squared():
    c = circle(100, 2.0)  # kappa = 1/2 up to the stencil error
    w = metric_weight(c, 3.0)
    np.testing.assert_allclose(w, 1.75, atol=2e-3)
    np.testing.assert_allclose(metric_weight(c, 0.0), 1.0)


def test_unweighted_inner_of_ones_is_perimeter():
    c = circle(100)
    ones = np.ones(100)
    assert abs(inner(c, 0.0, ones, ones) - 2.0 * np.pi) < 1e-3 * 2.0 * np.pi


def test_weighted_inner_on_circle():
    # radius 2, A=3: constant weight 1.75 against perimeter 4*pi
    c = circle(200, 2.0)
    ones = np.ones(200)
    assert abs(inner(c, 3.0, ones, ones) - 1.75 * 4.0 * np.pi) < 4e-3


def test_inner_symmetric_bilinear():
    c = circle(64)
    rng = np.random.default_rng(11)
    h, k, m = rng.standard_normal((3, 64))
    a = inner(c, 1.5, h, k)
    assert a == inner(c, 1.5, k, h)
    combo = inner(c, 1.5, 2.0 * h + 0.7 * m, k)
    assert abs(combo - (2.0 * a + 0.7 * inner(c, 1.5, m, k))) < 1e-12


def test_norm_matches_inner():
    c = circle(64)
    rng = np.random.default_rng(12)
    h = rng.standard_normal(64)
    assert abs(norm(c, 2.0, h) - np.sqrt(inner(c, 2.0, h, h))) < 1e-14


def test_riesz_gradient_represents_the_kernel_pairing():
    # defining property: <riesz(g), h>_GA = sum g h w for every h
    c = circle(100)
    rng = np.random.default_rng(13)
    g = rng.standard_normal(100)
    grad = riesz_gradient(c, 1.0, g)
    for h in rng.standard_normal((5, 100)):
        pairing = float(np.sum(g * h * c.geometry.weights))
        assert abs(inner(c, 1.0, grad, h) - pairing) < 1e-12


def test_riesz_gradient_unweighted_is_identity():
    c = circle(100)
    g = np.cos(3.0 * c.params)
    np.testing.assert_array_equal(riesz_gradient(c, 0.0, g), g)


def test_field_length_mismatch():
    c = circle(64)
    with pytest.raises(DimensionMismatch):
        inner(c, 0.0, np.ones(64), np.ones(63))


def test_zero_a_forms_no_weight_and_keeps_the_bits(monkeypatch):
    # at A = 0 inner and riesz_gradient read no curvature; on finite
    # curvature they equal the weighted forms bit for bit (1*x and x/1
    # are exact)
    reads = []
    stencil = curve._curvature
    monkeypatch.setattr(curve, "_curvature", lambda *args: reads.append(1) or stencil(*args))
    rng = np.random.default_rng(73)
    for c in (circle(16), initial_shape(100), random_star_curve(400, rng, amplitude=0.3)):
        g, h = rng.standard_normal((2, c.n_nodes))
        product, gradient = inner(c, 0.0, g, h), riesz_gradient(c, 0.0, g)
        assert norm(c, 0.0, g) ** 2 == pytest.approx(inner(c, 0.0, g, g))
        assert reads == []
        weight = 1.0 + 0.0 * c.curvature ** 2
        assert np.isfinite(c.curvature).all() and reads == [1]
        assert product.hex() == float((weight * (g * h) * c.geometry.weights).sum()).hex()
        assert np.array_equal(gradient.view(np.int64), (g / weight).view(np.int64))
        assert gradient is not g and gradient.flags.writeable
        reads.clear()
