"""The convergence scoreboard: the run families that pin what the solver
does, in one place.

``cells()`` is the convergence matrix: every method from the packaged
start at mu in {2, 3} and from the 8 warm starts at mu = 2, at A in
{0, 0.5, 1} and N in {100, 400, 1600}, with the solver's default stop
distance 1e-7 (270 runs).  The Table-1 pair follows it: steepest descent
and multiplicative Newton from the packaged start at N in {64000,
102400}, with ``table1``'s stop distance 5e-9.  ``run_cell(cell)``
returns a cell's records.  ``general_warm_starts()`` and
``custom_runs()`` are the run families of the listings below that the
tests share.

Run as a script, the module prints one listing, named on the command
line: each record's floats as hex, a sha256 of its nodes and its stop.

    PYTHONPATH=src python src/shapeopt/harness/scoreboard.py matrix

- ``matrix``: the records of every cell, in the order of ``cells()``;
- ``general_warm``: general-form Newton from the 16 warm starts drawn
  with ``default_rng(7)`` at N=800, at A = 0 and 0.5;
- ``custom_calculus``: the custom functional ``ELLIPSE_PSI``, psi =
  x^2 + 4y^2 - 1 on the fan quadrature, monitored by distance_tilde
  against the ellipse, from three 1%-perturbed ellipses at N=100 and
  400 for every method and A in {0, 0.5, 1}; then the general-path
  calculus at A = 0.7, and the Riemannian form also at A = 0, on 20
  seeded star curves;
- ``wide``: a closed curve with coordinates of both signs and radii 1e-6
  to 1e8, as the CSV input of ``render``.

The listings are compared byte for byte across commits, so a script
copy of this file must run against an older ``src``: it imports only
absolute ``shapeopt`` names.
"""

import hashlib
import sys
from typing import NamedTuple, Optional

import numpy as np

from shapeopt import (METHODS, NEWTON_GENERAL_FORM, NEWTON_MULTIPLICATIVE,
                      STEEPEST_DESCENT, ExperimentSpec, HessianOperator,
                      SolverConfig, VolumeFunctional, boundary_kernel,
                      covariant_derivative, optimize, retract,
                      riemannian_hessian_form, tangential_second_derivative)
from shapeopt.errors import ShapeOptError
from shapeopt.functional import evaluate_general
from shapeopt.harness import initial_shape, reference_ellipse
from shapeopt.harness.properties import low_frequency_field, random_star_curve

MATRIX_STOP = SolverConfig().stop_distance  # 1e-7
TABLE1_STOP = ExperimentSpec().stop_distance  # 5e-9
# psi = x^2 + 4y^2 - 1: the quadratic family's mu=2 ellipse through the
# custom functional's fan quadrature
ELLIPSE_PSI = VolumeFunctional.custom(
    lambda p: p[..., 0] ** 2 + 4.0 * p[..., 1] ** 2 - 1.0,
    lambda p: np.stack([2.0 * p[..., 0], 8.0 * p[..., 1]], axis=-1))


def warm_start(n, rng, amplitude=None):
    """The optimal mu=2 ellipse at n nodes retracted by a seeded
    low-frequency field of the given amplitude, by default one drawn
    from rng.uniform(0.02, 0.1) before the field."""
    if amplitude is None:
        amplitude = rng.uniform(0.02, 0.1)
    return retract(reference_ellipse(n, 2.0), amplitude * low_frequency_field(n, rng))


def warm_starts(n, count):
    """The first count warm starts of the matrix: start i is drawn with
    default_rng(i)."""
    return [warm_start(n, np.random.default_rng(seed)) for seed in range(count)]


class Cell(NamedTuple):
    """One scoreboard run: the packaged start (seed None) or warm start
    seed at n nodes, the mu of the quadratic functional, and the solver
    configuration, which names the stop distance."""
    n: int
    mu: float
    seed: Optional[int]
    config: SolverConfig

    @property
    def name(self):
        return f"start{self.mu:g}" if self.seed is None else f"warm{self.seed}"


def cells():
    """The convergence matrix in its listing order, then the Table-1 pair
    at large N."""
    out = []
    for n in (100, 400, 1600):
        starts = [(mu, None, {}) for mu in (2.0, 3.0)]
        starts += [(2.0, seed, {"max_iterations": 100}) for seed in range(8)]
        out += [Cell(n, mu, seed, SolverConfig(method=method, A=A, stop_distance=MATRIX_STOP,
                                               **settings))
                for mu, seed, settings in starts
                for method in METHODS for A in (0.0, 0.5, 1.0)]
    out += [Cell(n, 2.0, None, SolverConfig(method=method, stop_distance=TABLE1_STOP))
            for n in (64000, 102400) for method in (STEEPEST_DESCENT, NEWTON_MULTIPLICATIVE)]
    return out


def run_cell(cell):
    """The records of one cell's run."""
    if cell.seed is None:
        c0 = initial_shape(cell.n)
    else:
        c0 = warm_start(cell.n, np.random.default_rng(cell.seed))
    return optimize(c0, VolumeFunctional.quadratic_mso(cell.mu), cell.config)


def _sha(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def _line(*fields):
    return " ".join(map(str, fields))


def _record_fields(r):
    floats = (r.objective, r.distance, r.step_scale, r.step_norm,
              r.contraction_ratio, r.quadratic_ratio)
    return (r.index, *(v if v is None else float(v).hex() for v in floats),
            _sha(r.nodes), r.stop)


def matrix():
    for cell in cells():
        for r in run_cell(cell):
            yield _line(cell.n, cell.name, cell.config.method, cell.config.A, *_record_fields(r))


def general_warm_starts():
    """The 16 warm starts at N=800 drawn with default_rng(7), those of the
    newton_general_warm_n800 benchmark."""
    rng = np.random.default_rng(7)
    return [warm_start(800, rng) for _ in range(16)]


def custom_runs():
    """The 54 runs of ELLIPSE_PSI, monitored by distance_tilde against the
    ellipse, from three 1%-perturbed ellipses at N=100 and 400, for every
    method and A in {0, 0.5, 1}: a list of ((n, method, A, start),
    records)."""
    runs = []
    for n in (100, 400):
        rng = np.random.default_rng(3)
        ellipse = reference_ellipse(n, 2.0)
        starts = [warm_start(n, rng, 0.01) for _ in range(3)]
        for method in METHODS:
            for A in (0.0, 0.5, 1.0):
                for i, c0 in enumerate(starts):
                    config = SolverConfig(method=method, A=A, max_iterations=20)
                    runs.append(((n, method, A, i),
                                 optimize(c0, ELLIPSE_PSI, config, reference=ellipse)))
    return runs


def general_warm():
    f = VolumeFunctional.quadratic_mso(2.0)
    starts = general_warm_starts()
    for A in (0.0, 0.5):
        for i, c0 in enumerate(starts):
            for r in optimize(c0, f, SolverConfig(method=NEWTON_GENERAL_FORM, A=A)):
                yield _line(A, i, *_record_fields(r))


def custom_calculus():
    for key, records in custom_runs():
        for r in records:
            yield _line(*key, *_record_fields(r))
    rng = np.random.default_rng(17)
    for i in range(20):
        c = random_star_curve(200, rng)
        alpha, beta, dbeta = rng.standard_normal((3, 200))
        kernels = boundary_kernel(c, ELLIPSE_PSI)
        yield _line(i, float(evaluate_general(c, ELLIPSE_PSI)).hex(),
                    _sha(tangential_second_derivative(c, alpha)),
                    _sha(covariant_derivative(c, 0.7, alpha, beta, dbeta)),
                    float(riemannian_hessian_form(c, 0.7, kernels, alpha, beta)).hex(),
                    float(riemannian_hessian_form(c, 0.0, kernels, alpha, beta)).hex())
        try:
            yield _line(i, _sha(HessianOperator.general_form(c, 0.7, kernels).d))
        except ShapeOptError as exc:
            yield _line(i, type(exc).__name__, exc)


def wide():
    t = 2.0 * np.pi * np.arange(64) / 64
    r = 10.0 ** np.random.default_rng(5).uniform(-6.0, 8.0, 64)
    for x, y in zip(r * np.cos(t), r * np.sin(t)):
        yield f"{float(x)!r},{float(y)!r}"


LISTINGS = {listing.__name__: listing for listing in (matrix, general_warm, custom_calculus, wide)}

if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1] not in LISTINGS:
        sys.exit(f"usage: scoreboard.py {{{','.join(LISTINGS)}}}")
    for line in LISTINGS[sys.argv[1]]():
        print(line)
