"""The benchmark's workloads: seeded inputs, the timed op, and the check
of each op's output.

``WORKLOADS[name](seed, scratch)`` builds a ``Prepared`` workload.  Its
inputs are made once from the seed; ``start(i)`` hands op i its argument
(untimed), ``op`` is the timed call into the package, and ``check``
returns None for a correct output or a message saying what is wrong.
Every op goes through a module attribute (``solver.optimize``,
``experiment.run_table1``) so that the traced run sees it.
"""

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import shapeopt.solver as solver
from shapeopt import (NEWTON_GENERAL_FORM, NEWTON_MULTIPLICATIVE,
                      DiscreteCurve, ExperimentSpec, SolverConfig,
                      VolumeFunctional, initial_shape, reference_ellipse,
                      retract)
from shapeopt.errors import ShapeOptError
from shapeopt.harness import experiment
from shapeopt.harness.properties import low_frequency_field

MU = 2.0
# Distinct starts made per set-up; ops beyond this many reuse them in turn.
POOL = {"newton_batch_n100": 64, "newton_general_warm_n800": 16}


@dataclass
class Prepared:
    start: Callable          # start(i) -> argument of op i
    op: Callable             # op(argument) -> output, the timed call
    check: Callable          # check(argument, output) -> None or message
    probe: Callable = None   # untimed known-defect attempt -> (failed, text)


def pinched_shape(N, phase):
    """The packaged pinched start sampled at s_i = 2 pi (i + phase) / N;
    phase 0 gives ``initial_shape(N)`` node for node."""
    s = 2.0 * np.pi * (np.arange(N) + phase) / N
    x = 0.5 * (np.cos(s) - 0.15 * np.abs(1.0 - np.sin(2.0 * s)) * np.cos(s))
    y = 0.5 * (np.sin(s) - 0.15 * np.abs(1.0 - np.cos(2.0 * s)) * np.cos(s))
    return np.column_stack([x, y])


def _check_records(config, records):
    final = records[-1].distance
    if final is None or not final < config.stop_distance:
        return f"final distance {final!r} not below {config.stop_distance!r}"
    return None


def _optimize_workload(config, pool):
    """An op is one optimize call from the next start of the pool.  The
    pool holds validated node arrays; each op gets a fresh curve so no
    geometry cached by an earlier op is reused."""
    f = VolumeFunctional.quadratic_mso(MU)
    params = [c.params for c in pool]
    nodes = [c.nodes for c in pool]

    def start(i):
        k = i % len(pool)
        return DiscreteCurve(nodes[k], params=params[k], require_simple=False)

    return Prepared(start=start,
                    op=lambda c0: solver.optimize(c0, f, config),
                    check=lambda c0, records: _check_records(config, records))


def table1_n1600(seed, scratch):
    """The packaged two-method run at N=1600 writing into scratch.  The
    problem is deterministic; the seed is unused."""
    spec = ExperimentSpec(N=1600, output_dir=str(scratch))

    def check(_, report):
        try:
            with open(Path(scratch) / "table1.json", encoding="ascii") as fh:
                emitted = json.load(fh)
        except (OSError, ValueError) as exc:
            return f"table1.json unreadable: {exc}"
        for method in spec.methods:
            slug = experiment.METHOD_SLUGS[method]
            rows = emitted.get("methods", {}).get(slug, {}).get("rows")
            if not isinstance(rows, list) or not rows:
                return f"table1.json has no row list for {slug}"
            final = rows[-1]["dbar"]
            if final is None or not final < spec.stop_distance:
                return f"{slug}: final distance {final!r} not below {spec.stop_distance!r}"
            if len(rows) != len(report["records"][slug]):
                return f"{slug}: table1.json rows differ from the returned records"
        return None

    return Prepared(start=lambda i: spec, op=lambda s: experiment.run_table1(s),
                    check=check)


def newton_batch_n100(seed, scratch):
    """Multiplicative Newton at N=100 from the pinched start, each start
    sampled at a seeded node phase in [0, 1)."""
    rng = np.random.default_rng(seed)
    pool = [DiscreteCurve(pinched_shape(100, phase))
            for phase in rng.random(POOL["newton_batch_n100"])]
    return _optimize_workload(SolverConfig(method=NEWTON_MULTIPLICATIVE), pool)


def newton_general_warm_n800(seed, scratch):
    """General-form Newton at N=800 from the optimal ellipse retracted by
    a seeded low-frequency field of amplitude in [0.02, 0.1].  The probe
    runs the same method once from the packaged pinched start."""
    rng = np.random.default_rng(seed)
    ellipse = reference_ellipse(800, MU)
    pool = [retract(ellipse, rng.uniform(0.02, 0.1) * low_frequency_field(800, rng))
            for _ in range(POOL["newton_general_warm_n800"])]
    config = SolverConfig(method=NEWTON_GENERAL_FORM)
    prepared = _optimize_workload(config, pool)
    f = VolumeFunctional.quadratic_mso(MU)

    def probe():
        """Outcome of the packaged-start attempt: (failed, description)."""
        try:
            records = solver.optimize(initial_shape(800), f, config)
        except ShapeOptError as exc:
            done = len(getattr(exc, "records", []))
            return True, f"failed at k={max(done - 1, 0)}: {type(exc).__name__}: {exc}"
        problem = _check_records(config, records)
        return bool(problem), problem or f"converged in {len(records) - 1} iterations"

    prepared.probe = probe
    return prepared


WORKLOADS = {w.__name__: w for w in (table1_n1600, newton_batch_n100,
                                     newton_general_warm_n800)}
