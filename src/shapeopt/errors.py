"""Exception hierarchy for shapeopt.

Every error raised by the library derives from ShapeOptError so callers can
catch the whole family at an API boundary.  Once a run has started,
``solver.optimize`` returns such an error as its last record's ``stop``.
"""


class ShapeOptError(Exception):
    """Base class for all shapeopt errors."""


class DegenerateCurve(ShapeOptError):
    """Node data cannot define a curve (too few nodes, coincident
    consecutive nodes, or a zero difference stencil)."""


class DimensionMismatch(ShapeOptError):
    """A per-node field does not match the curve's node count, or
    contains non-finite entries."""


class NotStarShaped(ShapeOptError):
    """Polar-coordinate evaluation requires the curve to be star shaped
    with respect to the origin; the node angles are not monotone."""


class ShapeDegenerate(ShapeOptError):
    """A curve update left the admissible set: the moved polygon
    self-intersects or its orientation flipped."""


class SingularHessian(ShapeOptError):
    """The Hessian operator is not invertible at the requested point."""


class ProjectionFailed(ShapeOptError):
    """A normal ray from the reference curve does not meet the target
    polygon inside the search window."""


class LineSearchFailed(ShapeOptError):
    """No step length with an objective decrease could be found."""


class InsufficientData(ShapeOptError):
    """Not enough iteration records to compute the requested diagnostic."""
