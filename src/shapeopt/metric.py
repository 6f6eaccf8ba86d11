"""Curvature-weighted inner product on normal fields.

For scalar fields alpha, beta on a curve with curvature kappa and node
weights w, the metric with parameter A >= 0 is

    inner(alpha, beta) = sum_i (1 + A kappa_i^2) alpha_i beta_i w_i.

A = 0 recovers the plain L2 product in the length measure, and there no
weight is formed: ``inner`` and ``riesz_gradient`` skip the factor
1 + 0 kappa^2, which changes no bit of a finite result (1*x and x/1 are
exact) and reads no curvature, so steepest descent and multiplicative
Newton at A = 0 never run the curvature stencil.  A is a plain float
everywhere; ``check_A`` is the one place that validates it.  The Riesz
map turns the derivative field g of a functional (its L2 density) into
the gradient with respect to this metric by pointwise division:

    grad = g / (1 + A kappa^2).

Only steepest descent needs it: a Newton step solves hess(delta, .) =
-df(.), which pairs the Hessian with the density g directly and holds no
metric (see ``calculus``).
"""

import math

from .curve import as_field


def check_A(A):
    """The metric parameter A as a float; raises ValueError unless A is
    finite and >= 0."""
    A = float(A)
    if not math.isfinite(A) or A < 0.0:
        raise ValueError(f"metric parameter A must be >= 0, got {A}")
    return A


def metric_weight(c, A):
    """Pointwise factor 1 + A kappa^2 on curve c."""
    return 1.0 + check_A(A) * c.curvature ** 2


def inner(c, A, alpha, beta):
    """Metric inner product of two normal fields on curve c.

    The product alpha*beta is formed first, so swapping the arguments
    returns the identical floating-point value.  At A = 0 the weight is
    not formed.
    """
    alpha = as_field(c, alpha, "alpha")
    beta = as_field(c, beta, "beta")
    prod = alpha * beta
    if check_A(A):
        prod = metric_weight(c, A) * prod
    return float((prod * c.geometry.weights).sum())


def norm(c, A, alpha):
    return math.sqrt(inner(c, A, alpha, alpha))


def riesz_gradient(c, A, g):
    """Gradient of a functional from its derivative density g.

    g is the field with df(alpha) = sum g alpha w; the gradient in the
    A-weighted metric is g / (1 + A kappa^2), which reproduces df through
    inner(c, A, grad, alpha).  At A = 0 it is a copy of g, and the weight
    is not formed.
    """
    g = as_field(c, g, "g")
    if check_A(A):
        return g / metric_weight(c, A)
    return g.copy()
