"""Volume-integrand objectives f(Omega) = integral of psi over the enclosed
region, and the distance surrogates used to monitor optimizer progress.

Two quadratures are provided.  For the quadratic family

    psi(x) = x1^2 + mu^2 x2^2 - 1,   mu >= 1,

``evaluate_mso`` integrates in polar coordinates of the stretched plane
y = (x1, mu*x2), where the region of interest becomes a perturbed unit
disk: with rho = |y| the primitive P(rho) = rho^4/4 - rho^2/2 gives the
radial integral in closed form and only the angular direction is
discretized (trapezoid over the node angles).  ``evaluate_general``
handles arbitrary integrands by fanning the polygon into triangles from
the node centroid with a three-midpoint rule per triangle, exact for
quadratic psi.

Angle convention: ``evaluate_mso`` and ``distance_bar`` measure node
angles by default in the original plane (``angles="nodes"``) while radii
are taken in the stretched plane.  Pass ``angles="stretched"`` to measure
angles of the stretched nodes as well; that variant is the consistent
quadrature of the area integral (it matches ``evaluate_general`` as the
node count grows), whereas the default matches the convention used by the
reference optimizer runs that the regression suite pins down.  The two
coincide for mu = 1 and at any curve whose stretched image is a circle.
"""

import numpy as np

from .curve import DiscreteCurve, _wrapped_angle_steps, shift_next
from .errors import NotStarShaped, ProjectionFailed


class VolumeFunctional:
    """Objective f(Omega) = integral of psi over the region bounded by the
    curve.

    psi and grad_psi are vectorized callables on (M, 2) point arrays,
    returning (M,) values and (M, 2) gradients.  Instances are built with
    ``quadratic_mso`` or ``custom``; ``mu`` is set only for the quadratic
    family and selects the exact polar evaluation path.
    """

    def __init__(self, psi, grad_psi, mu=None):
        self.psi = psi
        self.grad_psi = grad_psi
        self.mu = mu

    @classmethod
    def quadratic_mso(cls, mu):
        """psi(x) = x1^2 + mu^2 x2^2 - 1 with its exact gradient."""
        mu = float(mu)
        if not (mu >= 1.0 and np.isfinite(mu * mu)):
            raise ValueError(f"mu must be >= 1 with a finite mu^2, got {mu}")

        def psi(p):
            p = np.asarray(p, dtype=float)
            return p[..., 0] ** 2 + mu ** 2 * p[..., 1] ** 2 - 1.0

        def grad_psi(p):
            p = np.asarray(p, dtype=float)
            return np.stack([2.0 * p[..., 0], 2.0 * mu ** 2 * p[..., 1]], axis=-1)

        return cls(psi, grad_psi, mu=mu)

    @classmethod
    def custom(cls, psi, grad_psi=None):
        return cls(psi, grad_psi, mu=None)

    @property
    def is_quadratic_mso(self):
        return self.mu is not None

    def evaluate(self, c):
        """Objective value on curve c, dispatching to the polar rule for
        the quadratic family and to the fan rule otherwise."""
        if self.is_quadratic_mso:
            return evaluate_mso(c, self.mu)
        return evaluate_general(c, self)


def _require_star(dang, where):
    """Raise NotStarShaped unless the wrapped angle steps dang are all
    positive and wind once around the origin: the polar quadratures
    require the node angles to be strictly monotone modulo 2*pi."""
    if np.any(dang <= 0.0):
        raise NotStarShaped(f"{where}: node angles are not monotone around the origin")
    if abs(dang.sum() - 2.0 * np.pi) > 1e-9:
        raise NotStarShaped(f"{where}: node angles do not wind once around the origin")


def _polar_pieces(c, mu, angles, where):
    """Angle steps and stretched squared radii of c, kept on the curve per
    (mu, angles) so that evaluate_mso and distance_bar of one iterate
    compute them once; the node-angle steps are the curve's own
    ``angle_steps``.  They skip _require_star when the curve is
    ``star_certified``: the certificate's steps all exceed 1e-12 and sum
    to 2*pi within 1e-9, which passes both of its tests.  A NotStarShaped
    is not kept: each call that fails raises again, naming its own caller
    ``where``."""
    key = (mu, angles)
    pieces = c._polar.get(key)
    if pieces is None:
        nodes = c.nodes
        if angles == "nodes":
            dang = c.angle_steps
            if not c.star_certified:
                _require_star(dang, where)
        else:
            dang = _wrapped_angle_steps(np.column_stack([nodes[:, 0], mu * nodes[:, 1]]))
            dang.setflags(write=False)
            _require_star(dang, where)
        rho2 = nodes[:, 0] ** 2 + mu ** 2 * nodes[:, 1] ** 2
        rho2.setflags(write=False)
        pieces = c._polar[key] = (dang, rho2)
    return pieces


def evaluate_mso(c, mu, angles="nodes"):
    """Polar-trapezoid value of the quadratic objective on curve c.

    With rho the stretched node radius and P(rho) = rho^4/4 - rho^2/2,

        f ~ (1/2mu) sum_i dang_i (P_{i+1} + P_i).

    See the module docstring for the ``angles`` convention.  Raises
    NotStarShaped when the curve is not star-shaped about the origin.
    """
    dang, rho2 = _polar_pieces(c, float(mu), angles, "evaluate_mso")
    P = rho2 ** 2 / 4.0 - rho2 / 2.0
    return float(np.sum(dang * (shift_next(P) + P)) / (2.0 * mu))


def evaluate_general(c, f):
    """Integral of f.psi over the polygon via a centroid fan.

    Each boundary edge spans a triangle with the node centroid; the
    three-edge-midpoint rule on each triangle is exact for quadratic
    integrands, so the only error is the polygonal boundary itself.
    """
    nodes = c.nodes
    psi = f.psi if isinstance(f, VolumeFunctional) else f
    z = nodes.mean(axis=0)
    a = nodes
    b = shift_next(nodes)
    area2 = (a[:, 0] - z[0]) * (b[:, 1] - z[1]) - (a[:, 1] - z[1]) * (b[:, 0] - z[0])
    vals = psi((a + b) / 2.0) + psi((b + z) / 2.0) + psi((z + a) / 2.0)
    return float(np.sum(area2 * vals) / 6.0)


def boundary_kernel(c, f):
    """Pointwise boundary data (g, dpsi_dn) of a volume functional.

    g_i = psi(node_i) is the density of the first shape derivative,
    df(alpha) = sum g alpha w; dpsi_dn_i = <grad psi(node_i), n_i> feeds
    the second-derivative forms.  No quadrature is involved.
    """
    g = np.asarray(f.psi(c.nodes), dtype=float)
    if f.grad_psi is None:
        raise ValueError("functional has no gradient field; construct it with grad_psi")
    gp = np.asarray(f.grad_psi(c.nodes), dtype=float)
    dpsi_dn = np.sum(gp * c.geometry.normal, axis=1)
    return g, dpsi_dn


def distance_bar(c, mu, angles="nodes"):
    """First distance surrogate: the angular integral of the stretched
    radial defect, (1/2mu) sum_i dang_i (|rho_{i+1} - 1| + |rho_i - 1|).

    Zero exactly when the stretched image of the curve has unit node
    radii.  Raises NotStarShaped like evaluate_mso.
    """
    dang, rho2 = _polar_pieces(c, float(mu), angles, "distance_bar")
    q = np.abs(np.sqrt(rho2) - 1.0)
    return float(np.sum(dang * (shift_next(q) + q)) / (2.0 * mu))


def distance_tilde(c, reference, window=2.0):
    """Second distance surrogate: represent c as reference + alpha*n and
    integrate |alpha| over the reference curve.

    alpha is recovered per reference node by intersecting the node's
    normal line with the polygon c and keeping the intersection closest
    to the node; offsets beyond ``window`` are discarded.  Intended for
    nearby shapes.  Raises ProjectionFailed when some normal line finds
    no admissible intersection, which happens when the shapes are far
    apart or the normal rays of the reference do not cover c.
    """
    ref_nodes = reference.nodes
    geo = reference.geometry
    a = c.nodes
    d = shift_next(a) - a
    offsets = np.empty(reference.n_nodes)
    misses = 0
    for i, (p, n) in enumerate(zip(ref_nodes, geo.normal)):
        den = n[0] * d[:, 1] - n[1] * d[:, 0]
        ap = a - p
        with np.errstate(divide="ignore", invalid="ignore"):
            s = (ap[:, 0] * d[:, 1] - ap[:, 1] * d[:, 0]) / den
            u = (ap[:, 0] * n[1] - ap[:, 1] * n[0]) / den
        # slack on the segment-parameter test so an intersection at a
        # polygon vertex is claimed by exactly one of the two segments
        ok = (np.abs(den) > 1e-14) & (u >= -1e-9) & (u < 1.0 - 1e-9) & (np.abs(s) <= window)
        if not ok.any():
            misses += 1
            offsets[i] = np.nan
            continue
        sv = s[ok]
        offsets[i] = sv[np.argmin(np.abs(sv))]
    if misses:
        raise ProjectionFailed(
            f"{misses} of {reference.n_nodes} reference normal lines miss the "
            f"curve within window {window}; the shapes are too far apart for "
            "a normal-field representation")
    return float(np.sum(np.abs(offsets) * geo.weights))


def mso_step_objective(curve_or_nodes, step, mu):
    """Exact decrease function t -> f(nodes + t*step) - f(nodes) for the
    quadratic family, in the default node-angle convention.

    Built for line searches near optimality: the difference is assembled
    from per-node increments (radial and angular) instead of subtracting
    two nearly equal objective values, so minima far below the rounding
    noise of evaluate_mso remain resolvable.  ``curve_or_nodes`` is a
    DiscreteCurve, whose ``angle_steps`` are reused, or a raw (N, 2) node
    array; ``step`` is a raw (N, 2) array.  The caller guarantees the
    probed polygons stay star-shaped.

    The returned closure reuses buffers allocated here, so a probe makes
    no array allocation; each call still depends on t alone.
    """
    if isinstance(curve_or_nodes, DiscreteCurve):
        nodes, dang0 = curve_or_nodes.nodes, curve_or_nodes.angle_steps
    else:
        nodes = np.asarray(curve_or_nodes, dtype=float)
        dang0 = _wrapped_angle_steps(nodes)
    step = np.asarray(step, dtype=float)
    # contiguous copies of the columns: the probe's ufuncs run faster on them
    x, y = nodes[:, 0].copy(), nodes[:, 1].copy()
    sx, sy = step[:, 0].copy(), step[:, 1].copy()
    rho2_0 = x ** 2 + mu ** 2 * y ** 2
    P0 = rho2_0 ** 2 / 4.0 - rho2_0 / 2.0
    # rho2(t) = rho2_0 + t*lin + t^2*quad in the stretched plane
    lin = 2.0 * (x * sx + mu ** 2 * y * sy)
    quad = sx ** 2 + mu ** 2 * sy ** 2
    cross0 = x * sy - y * sx

    n = len(x)
    u, v, term = np.empty(n), np.empty(n), np.empty(n)
    # one extra slot holds element 0 again, so [1:] is the periodic next
    dP_ext, P_ext, ang_ext = np.empty(n + 1), np.empty(n + 1), np.empty(n + 1)
    dP, P_t, dang_node = dP_ext[:n], P_ext[:n], ang_ext[:n]

    def delta_phi(t):
        # each line is one operation of the expression in its comment,
        # in the order numpy evaluates that expression
        np.multiply(t, lin, out=u)
        np.multiply(t * t, quad, out=v)
        np.add(u, v, out=u)                    # u = t*lin + t*t*quad
        np.multiply(0.5, u, out=v)
        np.add(rho2_0, v, out=v)
        np.subtract(v, 1.0, out=v)             # v = rho2_0 + 0.5*u - 1
        np.multiply(u, v, out=dP)
        np.divide(dP, 2.0, out=dP)             # P(rho2_t) - P(rho2_0) exactly
        np.add(P0, dP, out=P_t)                # P_t = P0 + dP
        np.multiply(t, sx, out=u)
        np.add(x, u, out=u)
        np.multiply(x, u, out=u)
        np.multiply(t, sy, out=v)
        np.add(y, v, out=v)
        np.multiply(y, v, out=v)
        np.add(u, v, out=u)                    # dot = x*(x + t*sx) + y*(y + t*sy)
        np.multiply(t, cross0, out=v)
        np.arctan2(v, u, out=dang_node)
        dP_ext[n], P_ext[n], ang_ext[n] = dP[0], P_t[0], dang_node[0]
        np.add(dP_ext[1:], dP, out=term)
        np.multiply(dang0, term, out=term)     # dang0*(next(dP) + dP)
        np.subtract(ang_ext[1:], dang_node, out=u)
        np.add(P_ext[1:], P_t, out=v)
        np.multiply(u, v, out=u)               # ddang*(next(P_t) + P_t)
        np.add(term, u, out=term)
        return float(term.sum() / (2.0 * mu))

    return delta_phi
