"""Discrete closed planar curves and their local geometry.

A shape is represented by a periodic polygon of N nodes.  Tangent vectors
of the shape manifold are normal fields: one scalar per node, the field
h = alpha * n.  Normal fields are passed around as plain 1-D float arrays;
``as_field`` validates them at operation boundaries, once per field: a
field already validated against a curve travels as a ``_CheckedField``.

Periodic stencils read ghost columns.  A curve stores its nodes once,
as ``columns``, a (2, N+2) array whose contiguous rows are x and y with
node N-1 stored before node 0 and node 0 after node N-1 (ghost cells, as
for periodic finite-volume stencils); ``nodes`` is the (N, 2) view
``columns[:, 1:-1].T``.  Row slices [2:], [1:-1] and [:-2] are the next,
own and previous node of every node, as views: the chords, the central
chord, the curvature stencil, the angle steps and the star certificate's
radii read them without copying.  An array derived from them that a
periodic stencil shifts again is kept the same way, and handed out as
the view of its node range: ``chords`` and ``angle_steps`` (length N+1,
entry N-1 first) and the rho2 and psi of the quadratic record (length
N+2, entry 0 also last).  ``_periodic`` returns the whole array behind
such a view, so the shifted neighbours are views too.  A field that
arrives as N plain values is padded the same way, once, by ``_padded``.
Every periodic stencil reads its neighbours through one of these layouts.

A curve is immutable and keeps only what its nodes and params determine,
read-only.  ``columns`` (with its view ``nodes``) and ``chords`` (the
forward chord lengths |node_{i+1} - node_i|, from the constructor's
coincident-node check) are set when it is built; every other field is a
cached property, computed on its first read and kept:

- ``geometry``: the unit tangent as contiguous columns tx and ty, the
  one representation of the frame (the outward normal is (ty, -tx),
  formed from them where it is read), and the node quadrature weights;
- ``curvature``: the signed curvature from three-point parameter
  stencils, whose weights (``_stencil``) depend on the params alone and
  are shared with every curve retracted from it, which keeps the params;
  only the A-terms of the metric and the Hessian forms read it, so
  steepest descent and multiplicative Newton at A = 0 never form it;
- ``angle_steps``: the wrapped polar angle steps between consecutive
  nodes about the origin; ``check_simple``,
  ``functional.evaluate_mso``/``distance_bar`` (node-angle convention) and
  the set-up of ``functional.mso_step_objective`` all read this one array;
- ``star_certified``: whether those steps pass the star certificate of
  ``check_simple``, which reads it with the polar quadratures;
- the quadratic record of ``functional._quadratic_record``: for the
  quadratic family psi = x^2 + mu^2 y^2 - 1, the node columns x and y
  (views of ``columns``), xx, yy, rho2 = xx + mu^2 yy and psi, one entry
  per mu on first use; the polar quadratures (with the angle steps
  above), ``functional.boundary_kernel`` and the set-up of
  ``functional.mso_step_objective`` all read it.

A curve that ``retract`` returns carries its columns, params, chords,
angle steps and star flag, and the stencil weights when its source had
formed them; everything else is computed on first use.
"""

import json
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DegenerateCurve, DimensionMismatch, ShapeDegenerate

MIN_NODES = 8


def as_field(c, values, name="field"):
    """Validate a per-node scalar field against curve c and return it as
    a float array.  Raises DimensionMismatch on length or finiteness
    violations.  A ``_CheckedField`` of c's length is returned as its
    values, which passed these checks when it was made."""
    if type(values) is _CheckedField and values.values.shape[0] == c.n_nodes:
        return values.values
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.shape[0] != c.n_nodes:
        raise DimensionMismatch(
            f"{name}: expected {c.n_nodes} values, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise DimensionMismatch(f"{name}: contains non-finite values")
    return arr


class _CheckedField:
    """A field that ``as_field`` validated against curve, handed on to the
    functions that take fields on that curve so that they do not validate
    it again: ``solver.optimize`` checks each direction where it receives
    it and passes it on like this to the line search, the step norm and
    the retraction, none of which changes its values."""

    __slots__ = ("values",)

    def __init__(self, curve, values, name="field"):
        self.values = as_field(curve, values, name)


def _ghost_columns(nodes):
    """The read-only (2, N+2) ghost columns of an (N, 2) node array: row 0
    holds x and row 1 y, each with node N-1 stored before node 0 and node
    0 after node N-1."""
    columns = np.empty((2, len(nodes) + 2))
    columns[:, 1:-1] = nodes.T
    columns[:, 0], columns[:, -1] = nodes[-1], nodes[0]
    columns.setflags(write=False)
    return columns


def _padded(u):
    """The (N+2,) periodic padding of a per-node field u: entry N-1 first
    and entry 0 last, like the quadratic record's rho2 and psi, so [2:] is
    the next entry of every node and [:-2] the previous one, as views."""
    return np.concatenate((u[-1:], u, u[:1]))


def _periodic(view):
    """The periodic array behind a node-range view handed out by this
    module or by ``functional._quadratic_record``: ``chords`` and
    ``angle_steps`` have N+1 entries and the record's rho2 and psi N+2;
    each stores entry N-1 first and the view as [1:N+1], and the N+2
    arrays store entry 0 last.  So [:N] of the result is the previous
    entry of every node and, of the N+2 arrays, [2:] the next, both as
    views.  ValueError when view is not a view of such an array (a copy,
    or a view into a larger buffer)."""
    base = view.base
    if base is None or base.ndim != 1 or not 1 <= len(base) - len(view) <= 2:
        raise ValueError("expected the node-range view of a periodic array")
    return base


def signed_area(columns):
    """Shoelace area of the closed polygon with the (2, N+2) ghost
    columns ``columns``; positive for counterclockwise."""
    (x, y), (xn, yn) = columns[:, 1:-1], columns[:, 2:]
    return 0.5 * float((x * yn - xn * y).sum())


def _angle_steps(x, y):
    """Polar angle increments about the origin between consecutive nodes,
    wrapped into [-pi, pi), from the ghost columns x and y: the arctan2
    angle of each node, its forward difference d, then
    (d + pi) mod 2*pi - pi.  The result has length N+1: entry 0 is the
    step from node N-1 to node 0 and entry i+1 the step from node i to
    node i+1, so [1:] is the node range and [:-1] its periodic shift.

    The remainder is taken by branches: s = d + pi lies in [-pi, 3*pi]
    since arctan2 returns angles in [-pi, pi], and numpy's float
    remainder of such an s by 2*pi is s + 2*pi below zero (rounded, so
    up to 2*pi itself), s - 2*pi at or above 2*pi (exact by Sterbenz's
    lemma, +0.0 at 2*pi) and s otherwise (+0.0 at zero, where s is never
    -0.0).  Both masks are taken from s before either branch is applied.
    The result is the remainder form's, bit for bit, nan included."""
    ang = np.arctan2(y, x)
    s = ang[1:] - ang[:-1]
    s += np.pi
    below, above = s < 0.0, s >= 2.0 * np.pi
    s[below] += 2.0 * np.pi
    s[above] -= 2.0 * np.pi
    s -= np.pi
    return s


# the star certificate of check_simple: every wrapped angle step in
# (_STEP_MARGIN, pi - _STEP_MARGIN) and every squared node radius in
# [_RADIUS2_MIN, _RADIUS2_MAX]
_STEP_MARGIN = 1e-12
_RADIUS2_MIN, _RADIUS2_MAX = 1e-290, 1e290


def _star_certified(nodes, dang):
    """True when the angle steps dang of nodes certify the polygon as
    simple and counterclockwise; see check_simple.  Every comparison is
    written so that a nan makes it False."""
    if not (abs(dang.sum() - 2.0 * np.pi) <= 1e-9
            and dang.min() > _STEP_MARGIN and dang.max() < np.pi - _STEP_MARGIN):
        return False
    x, y = nodes[:, 0], nodes[:, 1]
    r2 = x * x + y * y
    return bool(r2.min() >= _RADIUS2_MIN and r2.max() <= _RADIUS2_MAX)


# candidate pairs tested per chunk; bounds the broad phase's memory when
# every segment overlaps every other in x (a comb or zigzag)
_PAIR_CHUNK = 1 << 16
# a pair of segments d_i, d_j counts as parallel, and so as not crossing,
# unless |d_i x d_j| > _SIN_MIN * |d_i| * |d_j|: a test on the angle
# between them, the same at every scale
_SIN_MIN = 1e-10


def _segments_intersect(columns):
    """True if any two non-adjacent segments of the closed polygon with
    the (2, N+2) ghost columns ``columns`` properly cross.

    Sort-and-sweep broad phase on segment bounding boxes (the sweep of
    Shamos-Hoey and Bentley-Ottmann): the boxes are sorted by xmin,
    ``searchsorted`` on xmax yields every pair that overlaps in x, and
    pairs that miss in y or are adjacent are dropped.  The exact test
    then runs on the survivors with the arithmetic of an all-pairs loop
    over i < j: r = node_j - node_i, den = d_i x d_j with
    |den| > _SIN_MIN * |d_i| * |d_j| (lengths from hypot) and t, u
    strictly inside (0, 1).

    Each box is padded by a forward bound on how far the computed t and
    u can place the crossing from the segments.  With eps the machine
    epsilon, each cross product is computed within 8 eps |p||q| of its
    exact value, so the degeneracy test leaves |den| > s |d_i||d_j| with
    s = _SIN_MIN (1 - 4 eps) - 8 eps; with grow = 8 eps / s and D the
    diameter of the nodes, the computed t lands within
    e_i = (grow (D + |d_i|) + eps |d_i|) / (1 - grow) / |d_i| of the
    exact one.
    A pair whose computed t and u lie in (0, 1) therefore has its exact
    crossing point within e_i |d_i| of segment i and e_j |d_j| of
    segment j, so boxes padded by those distances (plus the rounding of
    the padded box edges, 8 eps max|node|) overlap.  The result is the
    all-pairs loop's boolean, bit for bit.  The pad is about 2e-5 D for
    every segment, whatever its length.

    Cost is O(N log N) plus the candidate pairs, which is O(N) for the
    smooth curves the solvers produce.  Pairs are generated in chunks of
    at most ``_PAIR_CHUNK`` and the function returns on the first hit,
    so the worst case (all pairs overlapping in x and y) is O(N^2) time
    in O(N + chunk) memory.
    """
    n = columns.shape[1] - 2
    (x, y), (xn, yn) = columns[:, 1:-1], columns[:, 2:]
    dx, dy = xn - x, yn - y

    eps = np.finfo(float).eps
    seglen = np.hypot(dx, dy)
    diam = float(np.hypot(np.ptp(x), np.ptp(y)))
    grow = 8.0 * eps / (_SIN_MIN * (1.0 - 4.0 * eps) - 8.0 * eps)
    pad = ((grow * (diam + seglen) + eps * seglen) / (1.0 - grow)
           + 8.0 * eps * float(np.abs(columns).max()))
    xlo, xhi = np.minimum(x, xn) - pad, np.maximum(x, xn) + pad
    ylo, yhi = np.minimum(y, yn) - pad, np.maximum(y, yn) + pad

    order = np.argsort(xlo)
    end = np.searchsorted(xlo[order], xhi[order], side="right")
    counts = end - np.arange(n) - 1
    cum = np.cumsum(counts)

    row = 0
    while row < n:
        base = int(cum[row - 1]) if row else 0
        stop = max(int(np.searchsorted(cum, base + _PAIR_CHUNK, side="right")), row + 1)
        cnt = counts[row:stop]
        k = np.repeat(np.arange(row, stop), cnt)
        m = k + 1 + np.arange(len(k)) - np.repeat(np.cumsum(cnt) - cnt, cnt)
        row = stop
        p, q = order[k], order[m]
        i, j = np.minimum(p, q), np.maximum(p, q)
        # adjacent segments, including the wrap pair (0, N-1), share an
        # endpoint and are skipped
        keep = ((ylo[p] <= yhi[q]) & (ylo[q] <= yhi[p])
                & (j - i >= 2) & (j - i != n - 1))
        i, j = i[keep], j[keep]
        rx, ry = x[j] - x[i], y[j] - y[i]
        dix, diy, djx, djy = dx[i], dy[i], dx[j], dy[j]
        den = dix * djy - diy * djx
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (rx * djy - ry * djx) / den
            u = (rx * diy - ry * dix) / den
        hit = ((np.abs(den) > _SIN_MIN * seglen[i] * seglen[j])
               & (t > 0) & (t < 1) & (u > 0) & (u < 1))
        if hit.any():
            return True
    return False


def _retraces(columns):
    """True if two adjacent segments of the closed polygon with the (2,
    N+2) ghost columns ``columns`` run back along each other: they are
    parallel by the _SIN_MIN test of _segments_intersect and their dot
    product is negative."""
    dx, dy = columns[:, 1:] - columns[:, :-1]
    seglen = np.hypot(dx, dy)
    cross = dx[:-1] * dy[1:] - dy[:-1] * dx[1:]
    dot = dx[:-1] * dx[1:] + dy[:-1] * dy[1:]
    return bool(((np.abs(cross) <= _SIN_MIN * seglen[:-1] * seglen[1:]) & (dot < 0.0)).any())


def check_simple(curve_or_nodes):
    """True iff the closed polygon is admissible: no two non-adjacent
    segments intersect, no two adjacent ones run back along each other
    (a retrace) and the orientation is counterclockwise.

    Orientation is part of the test because a curve update that flips the
    winding has passed through a degenerate state even when the final
    polygon does not self-cross (for example a circle pushed inward
    through its own center).  A retrace, where node i+1 lies on the ray
    from node i back through node i-1, turns the polygon by pi at node i
    without a proper crossing.  Accepts a DiscreteCurve, whose
    ``angle_steps`` it computes or reuses, or a raw (N, 2) node array,
    which is inadmissible when any coordinate is not finite.

    Star certificate, O(N).  Let the wrapped angle steps d_i about the
    origin all lie in (m, pi - m) with margin m = 1e-12 and sum to 2*pi
    within 1e-9, and let no node lie at the origin.  Then the true
    counterclockwise angle from node i to node i+1 lies in (0, pi) and
    the true angles sum to exactly 2*pi, so the rays through the nodes
    cut the plane into N convex sectors, one per edge, that meet only
    along their boundary rays.  Edge i lies in its own sector and misses
    the origin, non-adjacent sectors share only the origin, and adjacent
    edges meet their common ray only at their common node: the polygon
    is simple, and counterclockwise since it winds once around the
    origin.  The margin covers the rounding of the computed steps: a
    node angle from arctan2 is within a few ulps of pi of the true one,
    and the difference, the wrap (d + pi) mod 2*pi - pi and the rounded
    constants pi and 2*pi add a few ulps of 2*pi each, so every
    computed step is within 1e-14 of the true one.  A computed step in
    (m, pi - m) therefore places the true one in (0, pi), far from the
    wrap's jump at +-pi, and the sums of the computed and the true steps
    differ by at most 1e-9 + N*1e-14, far less than the 2*pi between
    windings.  "No node at the origin" is taken as every squared node
    radius in [1e-290, 1e290]: then each shoelace term of signed_area,
    |p_i||p_{i+1}| sin(d_i) with sin(d_i) > 1e-12, computes positive and
    finite, so a certified polygon also has a positive computed area.
    It is accepted without computing that area or running
    ``_segments_intersect``, which the tests check agrees on certified
    polygons down to steps at the margin and nodes near the origin.  A
    certified polygon cannot retrace: its angle steps lie in (0, pi).

    Every other polygon runs the general test: signed_area (reusing the
    orientation area that the DiscreteCurve constructor computed, when
    it kept the node order), the O(N) retrace test ``_retraces`` and the
    bounding-box sweep of ``_segments_intersect``, O(N log N) plus the
    candidate pairs; a polygon whose segments all overlap each other
    falls back to O(N^2) time in bounded chunks.
    """
    if isinstance(curve_or_nodes, DiscreteCurve):
        columns, area = curve_or_nodes.columns, curve_or_nodes._area
        certified = curve_or_nodes.star_certified
    else:
        nodes = np.asarray(curve_or_nodes, dtype=float)
        if not np.isfinite(nodes).all():
            return False
        columns, area = _ghost_columns(nodes), None
        certified = _star_certified(columns[:, 1:-1].T, _angle_steps(*columns)[1:])
    if certified:
        return True
    if area is None:
        area = signed_area(columns)
    if area <= 0.0:
        return False
    return not (_retraces(columns) or _segments_intersect(columns))


class CurveGeometry(NamedTuple):
    """The frame and the weights of a DiscreteCurve, three read-only
    (N,) arrays.

    tx, ty  : contiguous columns of the unit tangent from periodic
              central differences
    weights : quadrature weights for the length measure ds; their sum is
              exactly the polygon perimeter

    The frame is held only as the columns tx and ty: the outward unit
    normal is (ty, -tx), the tangent rotated by -90 degrees, which its
    readers form from them.  The curvature is the curve's own
    ``curvature``.
    """

    tx: np.ndarray
    ty: np.ndarray
    weights: np.ndarray


class DiscreteCurve:
    """Periodic polygon of N planar nodes, oriented counterclockwise.

    Parameters
    ----------
    nodes : (N, 2) array of node coordinates, N >= 8, consecutive nodes
        distinct.  Orientation is normalized on construction: if the
        signed area is negative the node order is reversed so that the
        outward-normal convention holds unconditionally.
    params : optional (N,) strictly increasing parameter values in
        [0, 2*pi); defaults to the equidistant grid 2*pi*i/N.
    require_simple : when True (default) a zero central chord (node i+1
        on node i-1, DegenerateCurve, from the ``geometry`` it reads) or a
        polygon that check_simple rejects (ShapeDegenerate) is rejected.
        Pass False to build a non-admissible polygon on purpose, e.g. to
        feed check_simple.

    ``columns`` (the (2, N+2) ghost columns of the module docstring),
    ``nodes`` (its (N, 2) view), ``params`` and ``chords`` (the (N,)
    forward chord lengths) are read-only arrays set on construction.
    ``geometry`` (a CurveGeometry), ``curvature`` and ``angle_steps``
    (read-only (N,) arrays) and ``star_certified`` (a bool) are cached
    properties; the curvature raises DegenerateCurve on a zero-speed
    stencil.
    """

    def __init__(self, nodes, params=None, require_simple=True):
        nodes = np.asarray(nodes, dtype=float)
        if nodes.ndim != 2 or nodes.shape[1] != 2:
            raise DegenerateCurve(f"nodes must be (N, 2), got {nodes.shape}")
        n = nodes.shape[0]
        if n < MIN_NODES:
            raise DegenerateCurve(f"need at least {MIN_NODES} nodes, got {n}")
        _check_finite(nodes)
        columns = _ghost_columns(nodes)
        chords = _chords(columns)

        if params is None:
            params = 2.0 * np.pi * np.arange(n) / n
        else:
            params = np.array(params, dtype=float)
            if params.shape != (n,):
                raise DegenerateCurve("params length must match node count")
            # written so that a nan or an infinite value fails it
            if not ((np.diff(params) > 0).all() and params[0] >= 0
                    and params[-1] < 2 * np.pi):
                raise DegenerateCurve("params must be strictly increasing in [0, 2*pi)")

        area = signed_area(columns)
        if area < 0.0:
            # reverse traversal so orientation is counterclockwise; keep the
            # first node first and mirror the parameter gaps
            order = np.concatenate([[0], np.arange(n - 1, 0, -1)])
            gaps, _ = _param_gaps(params)
            params = params[0] + np.concatenate([[0.0], np.cumsum(gaps[::-1][:-1])])
            columns = _ghost_columns(nodes[order])
            chords = _chords(columns)
            # the reversed polygon sums its shoelace terms in another order
            area = None

        self._set(columns, params, area)
        self.chords = chords
        if require_simple:
            self.geometry  # DegenerateCurve on a zero central chord
            if not check_simple(self):
                raise ShapeDegenerate("polygon self-intersects")

    @classmethod
    def _unchecked(cls, columns, source):
        """Curve on fresh read-only ghost columns, moved from the curve
        source, whose validated read-only params it shares, and its
        stencil weights if it formed them, with no chords yet: retract
        runs its checks on it, then sets its ``chords`` from _chords."""
        c = cls.__new__(cls)
        c._set(columns, source.params)
        if "_stencil" in vars(source):
            c._stencil = source._stencil
        return c

    def _set(self, columns, params, area=None):
        """columns: read-only ghost columns, whose node range becomes
        ``nodes``."""
        params.setflags(write=False)
        self.columns = columns
        self.nodes = columns[:, 1:-1].T
        self.params = params
        # signed_area(columns) when the constructor has it, for check_simple
        self._area = area
        # mu -> the read-only record of functional._quadratic_record
        self._quadratic = {}

    @property
    def n_nodes(self):
        return self.nodes.shape[0]

    @cached_property
    def geometry(self):
        """The frame (tx, ty) from the central chords node_{i+1} -
        node_{i-1}, and the weights, the mean of the two chords at each
        node."""
        central, norms = _central_differences(self.columns)
        tx, ty = central / norms
        # the backward chord at node i is the forward chord at node i-1
        chords = _periodic(self.chords)
        weights = 0.5 * (chords[1:] + chords[:-1])
        for arr in (tx, ty, weights):
            arr.setflags(write=False)
        return CurveGeometry(tx, ty, weights)

    @cached_property
    def _stencil(self):
        """The curvature stencil weights of params; _unchecked hands a
        moved curve those its source formed."""
        return _stencil_weights(self.params)

    @cached_property
    def curvature(self):
        """(N,) signed curvature from the stencil weights of params."""
        kappa = _curvature(self.columns, self._stencil)
        kappa.setflags(write=False)
        return kappa

    @cached_property
    def angle_steps(self):
        """(N,) wrapped polar angle steps about the origin from node i to
        node i+1."""
        dang = _angle_steps(*self.columns)
        dang.setflags(write=False)
        return dang[1:]

    @cached_property
    def star_certified(self):
        """True when ``angle_steps`` pass the star certificate of
        check_simple."""
        return _star_certified(self.nodes, self.angle_steps)

    # -- serialization ----------------------------------------------------

    def to_csv(self, path):
        """Write one ``x,y`` row per node.  repr() gives the shortest
        decimal that round-trips, so reading the file back reproduces the
        coordinates exactly."""
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write("".join(f"{x!r},{y!r}\n" for x, y in self.nodes.tolist()))

    @classmethod
    def from_csv(cls, path, **kwargs):
        rows = []
        with open(path, "r", encoding="ascii") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                x, y = line.split(",")
                rows.append((float(x), float(y)))
        return cls(np.array(rows), **kwargs)

    def to_json(self, path):
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            json.dump({"nodes": self.nodes.tolist()}, fh)
            fh.write("\n")

    @classmethod
    def from_json(cls, path, **kwargs):
        with open(path, "r", encoding="ascii") as fh:
            data = json.load(fh)
        return cls(np.array(data["nodes"], dtype=float), **kwargs)


def _check_finite(nodes):
    if not np.isfinite(nodes).all():
        raise DegenerateCurve("nodes contain non-finite coordinates")


def _chords(columns):
    """Chord lengths |node_{i+1} - node_i| from the ghost columns, as the
    node-range view [1:] of a read-only (N+1,) array with chord N-1
    first, the ``chords`` of a curve.  DegenerateCurve when two
    consecutive nodes coincide."""
    dx, dy = columns[:, 1:] - columns[:, :-1]
    chords = np.sqrt(dx * dx + dy * dy)
    if (chords == 0.0).any():
        raise DegenerateCurve("consecutive nodes coincide")
    chords.setflags(write=False)
    return chords[1:]


def _param_gaps(params):
    """Forward parameter gaps d+ with periodic wrap, and backward gaps d-."""
    dp = np.diff(np.append(params, params[0] + 2 * np.pi))
    return dp, _padded(dp)[:-2]


def _stencil_weights(params):
    """Weights of the three-point parameter stencils of _curvature:
    (dm, dp, den, cp, cm, c0, s).  They depend on params alone, which a
    retraction keeps, so a curve computes them once and the curves moved
    from it share them."""
    dp, dm = _param_gaps(params)
    return dm, dp, dm * dp * (dm + dp), dm ** 2, dp ** 2, dp ** 2 - dm ** 2, dm + dp


def _central_differences(columns):
    """(node_{i+1} - node_{i-1}, its length) of the ghost columns;
    DegenerateCurve where a length is zero."""
    cx, cy = central = columns[:, 2:] - columns[:, :-2]
    norms = np.sqrt(cx * cx + cy * cy)
    if (norms == 0.0).any():
        raise DegenerateCurve("central difference stencil produced a zero tangent")
    return central, norms


def _curvature(columns, stencil):
    """Curvature kappa = (x'y'' - y'x'') / |(x', y')|^3 with three-point
    stencils in the parameter; the nonuniform weights reduce to the
    classical central differences on the equidistant grid."""
    nxt, cur, prv = columns[:, 2:], columns[:, 1:-1], columns[:, :-2]
    dm, dp, den, cp, cm, c0, s = stencil
    d1x, d1y = (cp * nxt - cm * prv + c0 * cur) / den
    d2x, d2y = 2.0 * (dm * nxt + dp * prv - s * cur) / den
    speed = np.sqrt(d1x * d1x + d1y * d1y)
    if (speed == 0.0).any():
        raise DegenerateCurve("zero speed in curvature stencil")
    return (d1x * d2y - d1y * d2x) / speed ** 3


def retract(c, h, t=1.0):
    """Move every node of c by t*h_i along its outward normal.

    The straight-line retraction of the shape manifold: r_c(t h) has nodes
    nodes_i + t h_i n_i with parameters carried over unchanged.  The moved
    polygon must stay admissible: ShapeDegenerate is raised when it
    self-intersects, or when a local tangent reverses against the
    pre-step tangent.  The tangent test catches updates that drag the
    curve through itself and out the other side (for example a unit
    circle moved inward by 1.5), which end simple and counterclockwise
    again and so would slip past a pure self-intersection check.
    DegenerateCurve is raised when a moved node is not finite or two
    consecutive moved nodes coincide.

    Each call builds the moved curve once, on fresh ghost columns written
    from the outward normals (ty, -tx), and runs every check on it.  The
    finiteness test runs only on a moved curve that is not
    ``star_certified``: the certificate's radius bounds already hold its
    nodes finite.
    """
    h = as_field(c, h, "h")
    geo = c.geometry
    th = float(t) * h
    columns = np.empty_like(c.columns)
    x, y = columns[:, 1:-1]
    np.multiply(th, geo.ty, out=x)
    np.add(c.columns[0, 1:-1], x, out=x)
    np.multiply(th, geo.tx, out=y)
    np.subtract(c.columns[1, 1:-1], y, out=y)
    columns[:, 0], columns[:, -1] = columns[:, -2], columns[:, 1]
    columns.setflags(write=False)
    moved = DiscreteCurve._unchecked(columns, c)
    cx, cy = columns[:, 2:] - columns[:, :-2]
    if (cx * geo.tx + cy * geo.ty <= 0.0).any():
        raise ShapeDegenerate("retraction reversed the local orientation of the curve")
    if not moved.star_certified:
        _check_finite(columns)
    if not check_simple(moved):
        raise ShapeDegenerate("retracted polygon self-intersects")
    moved.chords = _chords(columns)
    return moved


def tangential_second_derivative(c, u):
    """Discrete second derivative u_tautau along the curve.

    Three-point second-difference stencil for unequally spaced points,
    with the chord lengths to the two neighbors as arc distances:

        u_tautau(i) ~ 2 [ u(i-1)/(d-(d-+d+)) - u(i)/(d-d+) + u(i+1)/(d+(d-+d+)) ]

    Exact for fields quadratic in arc length; second order on smooth data.
    """
    u = as_field(c, u, "u")
    dp = c.chords
    dm = _periodic(dp)[:-1]
    ue = _padded(u)
    return 2.0 * (dm * ue[2:] + dp * ue[:-2] - (dm + dp) * u) / (dm * dp * (dm + dp))
