"""Covariant derivative, the two Hessian representations, Newton solves,
and the cubic-remainder probe of the quadratic model."""

import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from conftest import circle
from shapeopt import (HessianOperator, VolumeFunctional, covariant_derivative,
                      hessian_at_solution, riemannian_hessian_form,
                      solve_hessian, standard_shape_hessian_form,
                      taylor_remainder_probe)
from shapeopt.errors import SingularHessian
from shapeopt.functional import boundary_kernel
from shapeopt.harness import reference_ellipse
from shapeopt.harness.properties import (low_frequency_field, random_star_curve,
                                         taylor_slope)


def kernels(c, mu):
    return boundary_kernel(c, VolumeFunctional.quadratic_mso(mu))


def test_covariant_derivative_circle_unweighted():
    # constant fields, flat extension: only the kappa/2 term survives
    c = circle(200)
    ones = np.ones(200)
    out = covariant_derivative(c, 0.0, ones, ones, np.zeros(200))
    npt.assert_allclose(out, 0.5, atol=1e-3)


def test_covariant_derivative_circle_weighted():
    # A=1 on the unit circle adds kappa^3/(1+kappa^2) = 1/2
    c = circle(200)
    ones = np.ones(200)
    out = covariant_derivative(c, 1.0, ones, ones, np.zeros(200))
    npt.assert_allclose(out, 1.0, atol=1e-3)


def test_covariant_derivative_zero_field():
    c = circle(64)
    out = covariant_derivative(c, 1.0, np.ones(64), np.zeros(64), np.zeros(64))
    npt.assert_array_equal(out, 0.0)


def test_riemannian_form_bitwise_symmetric():
    rng = np.random.default_rng(21)
    c = random_star_curve(100, rng)
    pk = kernels(c, 2.0)
    for _ in range(10):
        a, b = rng.standard_normal((2, 100))
        assert riemannian_hessian_form(c, 1.0, pk, a, b) \
            == riemannian_hessian_form(c, 1.0, pk, b, a)


def test_standard_form_extension_dependence():
    # away from the zero level set the extension term breaks symmetry
    c = circle(100, 1.2)
    pk = kernels(c, 1.0)
    rng = np.random.default_rng(3)
    a, b, dva, dvb = rng.standard_normal((4, 100))
    fwd = standard_shape_hessian_form(c, pk, a, b, dvb)
    rev = standard_shape_hessian_form(c, pk, b, a, dva)
    assert abs(fwd - rev) > 1e-2
    assert riemannian_hessian_form(c, 0.0, pk, a, b) \
        == riemannian_hessian_form(c, 0.0, pk, b, a)


def test_multiplication_factor_on_optimal_ellipse():
    # nu = 2 sqrt(x^2 + mu^4 y^2) on the ellipse: 2 on the long axis,
    # 2 mu on the short one
    c = reference_ellipse(100, 2.0)
    op = hessian_at_solution(c, 2.0)
    assert op.mass == 1.0
    assert abs(op.d[0] - 2.0) < 1e-12
    assert abs(op.d[25] - 4.0) < 1e-12
    assert np.all(op.d > 2.0 - 1e-3) and np.all(op.d < 4.0 + 1e-3)


def test_riemannian_form_is_multiplication_at_solution():
    c = reference_ellipse(100, 2.0)
    pk = kernels(c, 2.0)
    nu = hessian_at_solution(c, 2.0).d
    w = c.geometry.weights
    rng = np.random.default_rng(22)
    for _ in range(10):
        a, b = rng.standard_normal((2, 100))
        form = riemannian_hessian_form(c, 0.0, pk, a, b)
        diag = float(np.sum(nu * a * b * w))
        assert abs(form - diag) < 1e-8 * max(abs(form), abs(diag))


def test_solve_multiplication_pointwise():
    c = circle(64)
    op = HessianOperator.multiplication(c, np.full(64, 2.0))
    npt.assert_array_equal(solve_hessian(op, np.ones(64)), 0.5)


def test_solve_multiplication_singular():
    c = circle(64)
    nu = np.full(64, 2.0)
    nu[10] = 0.0
    with pytest.raises(SingularHessian):
        solve_hessian(HessianOperator.multiplication(c, nu), np.ones(64))


def test_general_form_matches_multiplication_at_solution():
    # the Newton step at the solution does not depend on the metric
    c = reference_ellipse(100, 2.0)
    f = VolumeFunctional.quadratic_mso(2.0)
    mult = hessian_at_solution(c, 2.0)
    rhss = np.random.default_rng(23).standard_normal((5, 100))
    for A in (0.0, 0.5, 1.0):
        gen = HessianOperator.general_form(c, A, boundary_kernel(c, f))
        for rhs in rhss:
            a = solve_hessian(gen, rhs)
            b = solve_hessian(mult, rhs)
            assert np.max(np.abs(a - b)) < 1e-6 * np.max(np.abs(b)), A


def test_hessian_at_solution_rejects_mu_below_one():
    with pytest.raises(ValueError):
        hessian_at_solution(reference_ellipse(100, 2.0), 0.5)


def test_general_form_diagonal_matches_quadrature_form():
    # the diagonal field is the form on basis pairs (e_j, e_j), and the
    # form vanishes on off-diagonal pairs, including the wrap-around ones
    for seed, A in ((31, 0.0), (32, 0.5), (33, 1.0)):
        rng = np.random.default_rng(seed)
        c = random_star_curve(40, rng)
        pk = kernels(c, 2.0)
        op = HessianOperator.general_form(c, A, pk)
        basis = np.eye(40)
        for j in range(40):
            ref = riemannian_hessian_form(c, A, pk, basis[j], basis[j])
            assert abs(op.d[j] - ref) <= 1e-10 * abs(ref)
        for j, k in [(j, j + 1) for j in range(39)] + [(0, 39), (2, 39)]:
            assert riemannian_hessian_form(c, A, pk, basis[j], basis[k]) == 0.0


def test_solve_general_form_matches_dense_solve():
    # the dense solve of the diagonal system stays the oracle, bit for bit
    rng = np.random.default_rng(34)
    for A in (0.0, 0.5, 1.0):
        c = random_star_curve(60, rng)
        op = HessianOperator.general_form(c, A, kernels(c, 2.0))
        for rhs in rng.standard_normal((3, 60)):
            npt.assert_array_equal(solve_hessian(op, rhs),
                                   np.linalg.solve(np.diag(op.d), op.mass * rhs))


def test_solve_general_form_singular():
    c = circle(64)
    dpsi_dn = np.ones(64)
    dpsi_dn[10] = 0.0
    with pytest.raises(SingularHessian):
        HessianOperator.general_form(c, 0.5, (np.zeros(64), dpsi_dn))
    # with psi = 0 the diagonal is dpsi_dn w, so its spread is dpsi_dn's
    dpsi_dn[10] = 1e-13
    with pytest.raises(SingularHessian):
        HessianOperator.general_form(c, 0.5, (np.zeros(64), dpsi_dn))
    dpsi_dn[10] = 1e-11
    HessianOperator.general_form(c, 0.5, (np.zeros(64), dpsi_dn))


def test_general_form_solve_memory_is_linear():
    # a dense N x N operator at N = 4000 would take > 100 MB
    c = random_star_curve(4000, np.random.default_rng(35))
    pk = kernels(c, 2.0)
    rhs = np.ones(4000)
    tracemalloc.start()
    try:
        solve_hessian(HessianOperator.general_form(c, 0.5, pk), rhs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_taylor_probe_zero_step():
    c = reference_ellipse(100, 2.0)
    f = VolumeFunctional.quadratic_mso(2.0)
    rng = np.random.default_rng(24)
    h = low_frequency_field(100, rng)
    [(t, rem)] = taylor_remainder_probe(f, c, 0.0, h, [0.0])
    assert t == 0.0 and rem == 0.0


def test_taylor_probe_cubic_at_solution():
    # at a stationary shape the quadratic model leaves a cubic remainder
    c = reference_ellipse(600, 2.0)
    f = VolumeFunctional.quadratic_mso(2.0)
    rng = np.random.default_rng(25)
    h = low_frequency_field(600, rng)
    assert 2.5 <= taylor_slope(f, c, 0.0, h) <= 3.5
