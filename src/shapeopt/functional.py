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

What an iterate of the quadratic family derives from its nodes is formed
once and kept on the curve (``_quadratic_record``, one per mu): the node
columns, their squares, rho^2 and psi.  The polar pieces read rho^2 from
it, ``boundary_kernel`` returns its psi with the exact normal derivative,
and the line-search set-up of ``mso_step_objective`` reads the columns,
the squares and psi.
"""

from collections import namedtuple

import numpy as np

from .curve import DiscreteCurve, _wrapped_angle_steps, shift_next, shift_prev
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
    if (dang <= 0.0).any():
        raise NotStarShaped(f"{where}: node angles are not monotone around the origin")
    if abs(dang.sum() - 2.0 * np.pi) > 1e-9:
        raise NotStarShaped(f"{where}: node angles do not wind once around the origin")


_QuadraticRecord = namedtuple("_QuadraticRecord", "x y xx yy rho2 psi")


def _quadratic_record(curve_or_nodes, mu):
    """What an iterate of the quadratic family derives from its nodes:
    the contiguous columns x and y, xx = x*x, yy = y*y, the stretched
    squared radius rho2 = xx + mu^2 yy and psi = rho2 - 1, the integrand
    at the nodes.  Every array is read-only and has the bits of the
    direct formulas (x ** 2 + mu ** 2 * y ** 2 - 1.0 for psi).

    A DiscreteCurve keeps its record per mu, so the polar pieces,
    boundary_kernel and the set-up of mso_step_objective of one iterate
    share it; a raw (N, 2) node array gets a fresh record on each call.
    Pure arithmetic: it raises no NotStarShaped, whatever the nodes."""
    if isinstance(curve_or_nodes, DiscreteCurve):
        kept = curve_or_nodes._quadratic
        if mu not in kept:
            kept[mu] = _quadratic_record(curve_or_nodes.nodes, mu)
        return kept[mu]
    nodes = np.asarray(curve_or_nodes, dtype=float)
    x, y = nodes[:, 0].copy(), nodes[:, 1].copy()
    xx, yy = x * x, y * y
    rho2 = xx + mu ** 2 * yy
    rec = _QuadraticRecord(x, y, xx, yy, rho2, rho2 - 1.0)
    for arr in rec:
        arr.setflags(write=False)
    return rec


def _polar_pieces(c, mu, angles, where):
    """Angle steps and stretched squared radii of c, kept on the curve per
    (mu, angles) so that evaluate_mso and distance_bar of one iterate
    compute them once; the node-angle steps are the curve's own
    ``angle_steps`` and the radii the rho2 of its quadratic record.  They
    skip _require_star when the curve is ``star_certified``: the
    certificate's steps all exceed 1e-12 and sum to 2*pi within 1e-9,
    which passes both of its tests.  A NotStarShaped is not kept: each
    call that fails raises again, naming its own caller ``where``."""
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
        pieces = c._polar[key] = (dang, _quadratic_record(c, mu).rho2)
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
    return float((dang * (shift_next(P) + P)).sum() / (2.0 * mu))


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
    return float((area2 * vals).sum() / 6.0)


def boundary_kernel(c, f):
    """Pointwise boundary data (g, dpsi_dn) of a volume functional.

    g_i = psi(node_i) is the density of the first shape derivative,
    df(alpha) = sum g alpha w; dpsi_dn_i = <grad psi(node_i), n_i> feeds
    the second-derivative forms.  No quadrature is involved.

    For the quadratic family g is the psi of the curve's quadratic record
    (read-only) and dpsi_dn = (2x) n1 + (2 mu^2 y) n2, the bits of
    f.psi and of the row sum of f.grad_psi times the normals.
    """
    if f.is_quadratic_mso:
        rec = _quadratic_record(c, f.mu)
        normal = c.geometry.normal
        dpsi_dn = (2.0 * rec.x) * normal[:, 0] + (2.0 * f.mu ** 2 * rec.y) * normal[:, 1]
        return rec.psi, dpsi_dn
    g = np.asarray(f.psi(c.nodes), dtype=float)
    if f.grad_psi is None:
        raise ValueError("functional has no gradient field; construct it with grad_psi")
    gp = np.asarray(f.grad_psi(c.nodes), dtype=float)
    dpsi_dn = (gp * c.geometry.normal).sum(axis=1)
    return g, dpsi_dn


def distance_bar(c, mu, angles="nodes"):
    """First distance surrogate: the angular integral of the stretched
    radial defect, (1/2mu) sum_i dang_i (|rho_{i+1} - 1| + |rho_i - 1|).

    Zero exactly when the stretched image of the curve has unit node
    radii.  Raises NotStarShaped like evaluate_mso.
    """
    dang, rho2 = _polar_pieces(c, float(mu), angles, "distance_bar")
    q = np.abs(np.sqrt(rho2) - 1.0)
    return float((dang * (shift_next(q) + q)).sum() / (2.0 * mu))


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
    DiscreteCurve, whose ``angle_steps`` and quadratic record are reused,
    or a raw (N, 2) node array; ``step`` is a raw (N, 2) array, whose
    columns are copied unless they are contiguous already (a column-major
    step).  The caller guarantees the probed polygons stay star-shaped.

    With dP_i = P(rho_i(t)) - P(rho_i(0)) and a_i the angle that node i
    turns through, the angle step dang_i of evaluate_mso becomes
    dang_i + a_{i+1} - a_i, and summing by parts gives

        2 mu phi(t) = sum_i dP_i (dang_i + dang_{i-1} + a_{i+1} - a_{i-1})
                      + sum_i a_i D_i,   D_i = P0_{i-1} - P0_{i+1}.

    Every term is an increment: dP_i is formed as the product
    (rho2_t - rho2_0)(rho2_0 - 1 + (rho2_t - rho2_0)/2)/2, a_i as the
    arctan2 of the cross and dot products of the old and moved node,
    and D_i as (r_{i-1} - r_{i+1})(r_{i-1} + r_{i+1})/4 with
    r = rho2_0 - 1.  D vanishes on the optimal ellipse, so the angular
    sum carries no constant P0 that would have to cancel: the telescoping
    sum of (a_{i+1} - a_i)(P0_{i+1} + P0_i) in the direct form is gone.

    Everything that does not depend on t is computed here, once per
    search: x*x + y*y, x*sx + y*sy, the cross product, the summed angle
    steps and D; r is the psi of the quadratic record, whose columns and
    squares this reads as well.  The returned closure reuses buffers
    allocated here, so a probe makes no array allocation; each call still
    depends on t alone.
    """
    if isinstance(curve_or_nodes, DiscreteCurve):
        dang0 = curve_or_nodes.angle_steps
    else:
        curve_or_nodes = np.asarray(curve_or_nodes, dtype=float)
        dang0 = _wrapped_angle_steps(curve_or_nodes)
    x, y, xx, yy, _, r = _quadratic_record(curve_or_nodes, mu)
    step = np.asarray(step, dtype=float)
    # contiguous columns: the ufuncs run faster on them
    sx, sy = np.ascontiguousarray(step[:, 0]), np.ascontiguousarray(step[:, 1])
    mu2 = mu ** 2
    xsx, ysy = x * sx, y * sy
    # rho2(t) = rho2_0 + 2*(t*lin + t^2*quad) in the stretched plane
    lin = xsx + mu2 * ysy
    quad = (sx * sx + mu2 * (sy * sy)) / 2.0
    # dot and cross products of the moved node with the old one
    r2, xs = xx + yy, xsx + ysy
    cross0 = x * sy - y * sx
    dang_sum = dang0 + shift_prev(dang0)
    rm, rp = shift_prev(r), shift_next(r)
    D = (rm - rp) * (rm + rp) / 4.0

    n = len(x)
    u, v, dP = np.empty(n), np.empty(n), np.empty(n)
    # a_ext[1:n+1] holds a; slots 0 and n+1 hold a_{n-1} and a_0
    a_ext = np.empty(n + 2)
    a, a_next, a_prev = a_ext[1:n + 1], a_ext[2:], a_ext[:n]
    # t and t*t as 0-d arrays: a ufunc takes them faster than a float
    tt, tt2 = np.empty(()), np.empty(())
    mul, add, sub, atan2 = np.multiply, np.add, np.subtract, np.arctan2

    def delta_phi(t):
        tt[()], tt2[()] = t, t * t
        mul(tt, lin, u)
        mul(tt2, quad, v)
        add(u, v, u)                           # u = (rho2_t - rho2_0)/2
        add(r, u, v)
        mul(u, v, dP)                          # dP = P(rho2_t) - P(rho2_0)
        mul(tt, xs, u)
        add(r2, u, u)
        mul(tt, cross0, v)
        atan2(v, u, a)
        a_ext[0], a_ext[n + 1] = a[n - 1], a[0]
        sub(a_next, a_prev, u)
        add(dang_sum, u, u)
        mul(dP, u, u)
        mul(a, D, v)
        add(u, v, u)
        return float(u.sum() / (2.0 * mu))

    return delta_phi
