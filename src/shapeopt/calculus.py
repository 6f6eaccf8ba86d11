"""Second-order shape calculus: the covariant derivative of normal fields,
shape Hessian bilinear forms, solvable Hessian operators, and a probe for
the quadratic Taylor model.

Two Hessian forms are implemented for volume functionals.  The repeated
shape derivative ("standard" form) depends on how the perturbation fields
are extended off the boundary and is not symmetric in its two arguments.
The Riemannian form obtained by differentiating the gradient covariantly,

    hess(alpha, beta) = sum [ dpsi_dn + (kappa/2) psi
                              - A kappa^3 psi / (1 + A kappa^2) ] alpha beta w
                        - sum psi A kappa (alpha beta)_tautau w,

needs no extension data and is symmetric exactly: the discrete integrand
depends on the two fields only through the pointwise product alpha*beta.

The same product structure makes the form diagonal in the nodal basis,
so ``HessianOperator`` holds it as one diagonal field.  A Newton step
solves hess(delta, .) = -df(.) with df(alpha) = sum g alpha w, and
``solve_hessian`` does that pointwise against the derivative density g.
The equation pairs the Hessian with df directly, so no metric enters the
solve: the metric parameter A shapes the Hessian form only through its
connection terms, which carry a factor psi and vanish at a stationary
shape.  There the form collapses to multiplication by nu = dpsi_dn, the
same for every A, which for the quadratic objective is the explicit field
nu = 2 (x1 n1 + mu^2 x2 n2); ``hessian_at_solution`` builds that
operator along any iterate.

At A = 0 the connection term psi A kappa (alpha beta)_tautau is
identically zero, and ``riemannian_hessian_form`` and
``HessianOperator.general_form`` skip its stencil, as ``metric`` skips
the weight 1 + 0 kappa^2.  The pointwise factor keeps its A-terms, so a
non-finite curvature still makes the form singular.
"""

from dataclasses import dataclass

import numpy as np

from .curve import _padded, _periodic, as_field, retract, tangential_second_derivative
from .errors import SingularHessian
from .functional import VolumeFunctional, boundary_kernel, evaluate_general
from .metric import check_A, inner


def covariant_derivative(c, A, alpha, beta, dbeta_dn):
    """Covariant derivative of the normal field beta along alpha.

    With kappa the curvature and A the metric parameter,

        nabla_alpha beta = (dbeta/dn) alpha
                           + (1/2)(kappa + 2 A kappa^3/(1+A kappa^2)) alpha beta
                           + A kappa (alpha beta)_tautau.

    The normal derivative dbeta_dn of an extension of beta is the
    caller's to supply; it is the only extension-dependent ingredient,
    and the Hessian forms below are arranged so they never need it.
    """
    A = check_A(A)
    alpha = as_field(c, alpha, "alpha")
    beta = as_field(c, beta, "beta")
    dbeta_dn = as_field(c, dbeta_dn, "dbeta_dn")
    kappa = c.curvature
    mid = 0.5 * (kappa + 2.0 * A * kappa ** 3 / (1.0 + A * kappa ** 2))
    return dbeta_dn * alpha + mid * alpha * beta \
        + A * kappa * tangential_second_derivative(c, alpha * beta)


def standard_shape_hessian_form(c, psi_kernels, alpha, beta, dW_normal):
    """Repeated shape derivative of a volume functional.

    psi_kernels is the pair (psi, dpsi_dn) on the nodes, as returned by
    ``functional.boundary_kernel``; dW_normal supplies the per-node value
    <DW V, n> of the chosen extension of the perturbation fields.  The
    result is

        sum (dpsi_dn + kappa psi) alpha beta w  +  sum psi dW_normal w,

    which is generally not symmetric under swapping the two fields: the
    asymmetry sits in the extension term that the covariant form removes.
    """
    g, dpsi_dn = psi_kernels
    alpha = as_field(c, alpha, "alpha")
    beta = as_field(c, beta, "beta")
    dW_normal = as_field(c, dW_normal, "dW_normal")
    return float(np.sum(((dpsi_dn + c.curvature * g) * alpha * beta
                         + g * dW_normal) * c.geometry.weights))


def _hessian_coefficient(A, kappa, g, dpsi_dn):
    """The pointwise factor dpsi_dn + (kappa/2) psi - A kappa^3 psi /
    (1 + A kappa^2) of the covariant Hessian form, for psi = g."""
    return dpsi_dn + 0.5 * kappa * g - A * kappa ** 3 * g / (1.0 + A * kappa ** 2)


def riemannian_hessian_form(c, A, psi_kernels, alpha, beta):
    """Covariant (extension-free) Hessian form of a volume functional.

    Symmetric in (alpha, beta) to the last bit: the product field
    alpha*beta is formed once and every term acts on it.  At A = 0 the
    connection term is identically zero and its stencil is skipped, as
    in ``HessianOperator.general_form``.
    """
    A = check_A(A)
    g, dpsi_dn = psi_kernels
    alpha = as_field(c, alpha, "alpha")
    beta = as_field(c, beta, "beta")
    kappa = c.curvature
    prod = alpha * beta
    form = _hessian_coefficient(A, kappa, g, dpsi_dn) * prod
    if A != 0.0:
        form -= g * A * kappa * tangential_second_derivative(c, prod)
    return float(np.sum(form * c.geometry.weights))


@dataclass(frozen=True, eq=False)
class HessianOperator:
    """The shape Hessian at a curve as a diagonal field in the nodal basis.

    A Newton step solves d * delta = -mass * g pointwise, where g is the
    derivative density and mass is the nodal pairing weight that turns g
    into df on the nodal basis; neither depends on the metric.
    ``multiplication`` holds pointwise scaling by a field nu (d = nu,
    mass = 1), valid where the boundary kernel psi vanishes (stationary
    shapes, and a useful surrogate along the way).  ``general_form`` holds
    the diagonal of the full covariant form on the nodal basis, whose
    pairing weight is the node weight w.  Both constructors raise
    SingularHessian when the field cannot be inverted.
    """
    curve: object
    d: np.ndarray
    mass: object = 1.0

    @classmethod
    def multiplication(cls, curve, nu):
        nu = as_field(curve, nu, "nu")
        small = np.abs(nu).min()
        if small <= 1e-12:
            raise SingularHessian(f"multiplication factor has min |nu| = {small:.3e}")
        return cls(curve, nu)

    @classmethod
    def general_form(cls, curve, A, psi_kernels):
        """Diagonal of the covariant Hessian form in the nodal basis.

        For nodal indicator fields e_j the pointwise product e_j * e_k
        vanishes unless j = k, and the discrete form acts on fields only
        through that product, so the form is diagonal:

            d_j = coeff_j w_j - (S^T E)_j,   E_i = (psi A kappa w)_i,

        with S the second-difference stencil of tangential_second_derivative
        and coeff the pointwise factor of riemannian_hessian_form.  The
        mass is the node weight w, since df(e_j) = g_j w_j.  max|d| /
        min|d| is the condition number of the diagonal; above 1e12, or
        with a non-finite entry, the form counts as singular.
        """
        A = check_A(A)
        g = as_field(curve, psi_kernels[0], "psi")
        dpsi_dn = as_field(curve, psi_kernels[1], "dpsi_dn")
        kappa, w = curve.curvature, curve.geometry.weights
        coeff = _hessian_coefficient(A, kappa, g, dpsi_dn)
        d = coeff * w
        if A != 0.0:  # E vanishes identically at A = 0
            # transpose of the second-difference stencil applied to E
            dp = curve.chords
            dm = _periodic(dp)[:-1]  # the chords keep chord N-1 first
            cm = 2.0 / (dm * (dm + dp))
            c0 = -2.0 / (dm * dp)
            cp = 2.0 / (dp * (dm + dp))
            E = g * A * kappa * w
            d -= _padded(E * cm)[2:] + E * c0 + _padded(E * cp)[:-2]

        size = np.abs(d)
        with np.errstate(all="ignore"):
            ratio = size.max() / size.min()
        if not ratio <= 1e12:  # also true for a zero or non-finite entry
            raise SingularHessian(f"general-form diagonal has max|d|/min|d| = {ratio:.3e}")
        return cls(curve, d, w)


def hessian_at_solution(c, mu):
    """Multiplication-operator Hessian of the quadratic objective.

    nu = dpsi_dn = 2 (x1 n1 + mu^2 x2 n2) at node i, the boundary kernel's
    normal derivative evaluated with the curve's own normals.  On the
    optimal ellipse this equals 2 sqrt(s1^2 + mu^4 s2^2) and ranges over
    [2, 2 mu]; along other iterates it serves as the Newton surrogate that
    becomes exact in the limit.  Raises ValueError for mu < 1, like
    ``VolumeFunctional.quadratic_mso``.
    """
    _, nu = boundary_kernel(c, VolumeFunctional.quadratic_mso(mu))
    return HessianOperator.multiplication(c, nu)


def solve_hessian(H, g):
    """The field delta with hess(delta, .) = df(.), where df(alpha) =
    sum g alpha w; the Newton step is its negative.

    g is the derivative density of the functional (the boundary kernel
    psi), not a gradient, so no metric enters.  The operator is a diagonal
    field, so the solve is pointwise: delta = mass * g / d.  For a
    multiplication operator that is division by nu; for the general form,
    g is first paired with the nodal basis through the node weights w.
    """
    g = as_field(H.curve, g, "g")
    return H.mass * g / H.d


def taylor_remainder_probe(f, c, A, h, t_list):
    """Remainders of the quadratic model of f along the normal field h.

    For each t the curve is retracted by t*h (nodes moved along their
    normals) and

        remainder(t) = | f(c_t) - f(c) - t df(h) - (t^2/2) hess(h, h) |

    is returned as a list of (t, remainder) pairs.  Both values of f use
    the fan quadrature, but the model does not: df(h) pairs the nodal
    boundary kernel with h, and hess(h, h) is the paper's Hessian formula
    on that kernel.  Their slope and curvature differ from the fan rule's
    derivatives by O(N^-2), terms of order t and t^2 that bend the
    remainder's log-log slope away from cubic at small t (at some seeds
    ``verify`` reads a slope above its bound of 3.5 for this reason).  At a
    stationary shape the remainder decays cubically in t; away from
    stationarity the straight-line retraction feeds the gradient into the
    second-order term (the connection correction), so cubic decay should
    only be expected where the boundary kernel vanishes.  Raises
    ShapeDegenerate if a probed polygon leaves the admissible set.
    """
    h = as_field(c, h, "h")
    g, dpsi_dn = boundary_kernel(c, f)
    slope = inner(c, 0.0, g, h)  # df(h) = sum g h w
    curv = riemannian_hessian_form(c, A, (g, dpsi_dn), h, h)
    f0 = evaluate_general(c, f)
    out = []
    for t in t_list:
        t = float(t)
        ft = evaluate_general(retract(c, h, t), f)
        out.append((t, abs(ft - f0 - t * slope - 0.5 * t * t * curv)))
    return out
