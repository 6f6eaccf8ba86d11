"""The two-method benchmark: steepest descent versus Newton on the
quadratic objective, from a pinched starting shape to the optimal
ellipse, with per-iteration CSV, a side-by-side comparison table, and
SVG overlays of the iterate curves.
"""

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..curve import DiscreteCurve
from ..functional import VolumeFunctional
from ..metric import check_A
from ..solver import (METHODS, NEWTON_GENERAL_FORM, NEWTON_MULTIPLICATIVE,
                      STEEPEST_DESCENT, SolverConfig, convergence_diagnostics,
                      optimize)
from .svg import render_curves

METHOD_SLUGS = {
    STEEPEST_DESCENT: "sd",
    NEWTON_MULTIPLICATIVE: "newton",
    NEWTON_GENERAL_FORM: "newton-general",
}

# (column, IterationRecord attribute) of the per-iteration CSV and JSON rows
COLUMNS = (("k", "index"), ("f", "objective"), ("dbar", "distance"),
           ("alpha", "step_scale"), ("step_norm", "step_norm"),
           ("contraction_ratio", "contraction_ratio"),
           ("quadratic_ratio", "quadratic_ratio"))
CSV_HEADER = ",".join(column for column, _ in COLUMNS)


@dataclass(frozen=True)
class ExperimentSpec:
    """Configuration of a benchmark run.

    The defaults (mu=2, N=100, A=0, exact line search) are the
    configuration of the reference tables the regression suite compares
    against.  stop_distance is tighter than the library solver default
    because the recorded reference trajectories continue below 1e-8;
    seed feeds only the randomized property suite.
    """
    mu: float = 2.0
    N: int = 100
    A: float = 0.0
    methods: tuple = (STEEPEST_DESCENT, NEWTON_MULTIPLICATIVE)
    seed: int = 0
    output_dir: str = "."
    stop_distance: float = 5e-9

    def __post_init__(self):
        VolumeFunctional.quadratic_mso(self.mu)  # rejects mu < 1 or a non-finite mu^2
        if self.N < 8:
            raise ValueError("N must be >= 8")
        check_A(self.A)  # rejects a negative or non-finite A
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise ValueError(f"unknown methods {unknown}; expected among {METHODS}")
        if not self.methods:
            raise ValueError("methods must name at least one method")
        if len(set(self.methods)) != len(self.methods):
            raise ValueError(f"methods {list(self.methods)} name a method twice")
        if not self.stop_distance > 0.0:
            raise ValueError("stop_distance must be positive")


def initial_shape(N):
    """Pinched starting curve of the benchmark,

        c0(s) = (1/2) (cos s - 0.15 |1 - sin 2s| cos s,
                       sin s - 0.15 |1 - cos 2s| cos s),

    sampled at s_i = 2*pi*i/N.  Star-shaped but far from elliptical.
    """
    s = 2.0 * np.pi * np.arange(N) / N
    x = 0.5 * (np.cos(s) - 0.15 * np.abs(1.0 - np.sin(2.0 * s)) * np.cos(s))
    y = 0.5 * (np.sin(s) - 0.15 * np.abs(1.0 - np.cos(2.0 * s)) * np.cos(s))
    return DiscreteCurve(np.column_stack([x, y]))


def reference_ellipse(N, mu):
    """The optimal shape x1^2 + mu^2 x2^2 = 1, nodes (cos t_i, sin t_i / mu)."""
    t = 2.0 * np.pi * np.arange(N) / N
    return DiscreteCurve(np.column_stack([np.cos(t), np.sin(t) / mu]))


def _fmt(value):
    return "" if value is None else repr(value)


def _write_csv(path, records):
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in records:
            fh.write(",".join(_fmt(getattr(r, attr)) for _, attr in COLUMNS) + "\n")


def _rows_json(records):
    return [{column: getattr(r, attr) for column, attr in COLUMNS} for r in records]


def solve_and_write(c0, f, config, csv_path, svg_path):
    """Optimize from c0, write the CSV and the SVG of the iterates, and
    return (records, diagnostics), diagnostics None below three records."""
    records = optimize(c0, f, config)
    _write_csv(csv_path, records)
    render_curves([r.nodes for r in records], svg_path)
    diagnostics = convergence_diagnostics(records) if len(records) >= 3 else None
    return records, diagnostics


def _comparison_text(per_method):
    """Side-by-side table, four significant digits for f, scientific
    notation for the distance, two decimals for the step parameter."""
    slugs = list(per_method)
    header = ["   k"]
    for slug in slugs:
        header += [f"{'f_' + slug:>10}", f"{'d_' + slug:>10}", f"{'a_' + slug:>6}"]
    lines = ["  ".join(header)]
    depth = max(len(records) for records in per_method.values())
    for k in range(depth):
        row = [f"{k:4d}"]
        for slug in slugs:
            records = per_method[slug]
            if k < len(records):
                r = records[k]
                row += [f"{r.objective:10.4f}", f"{r.distance:10.3e}",
                        "  --- " if r.step_scale is None else f"{r.step_scale:6.2f}"]
            else:
                row += [" " * 10, " " * 10, " " * 6]
        lines.append("  ".join(row))
    return "\n".join(lines) + "\n"


def run_table1(spec):
    """Run the configured methods from the pinched start and write the
    comparison artifacts into spec.output_dir.

    Per method: <out>/table1_<slug>.csv (one row per visited curve) and
    <out>/iterates_<slug>.svg (all iterates, blue start to red finish).
    Across methods: table1.txt (side-by-side) and table1.json (full
    precision rows, late-phase diagnostics and each run's stop reason).
    Outputs are byte-stable for a fixed spec.  A run that a solver error
    ends still writes every artifact, and its stop names the error.
    Returns a report dict with the records, stop reasons, diagnostics,
    and output paths.
    """
    out = Path(spec.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    c0 = initial_shape(spec.N)
    f = VolumeFunctional.quadratic_mso(spec.mu)
    per_method = {}
    report = {"mu": spec.mu, "N": spec.N, "A": spec.A, "methods": {}}
    for method in spec.methods:
        slug = METHOD_SLUGS[method]
        config = SolverConfig(method=method, A=spec.A,
                              stop_distance=spec.stop_distance)
        csv_path = out / f"table1_{slug}.csv"
        svg_path = out / f"iterates_{slug}.svg"
        records, diagnostics = solve_and_write(c0, f, config, csv_path, svg_path)
        per_method[slug] = records
        report["methods"][slug] = {
            "rows": _rows_json(records),
            "stop": records[-1].stop,
            "diagnostics": diagnostics,
            "csv": str(csv_path),
            "svg": str(svg_path),
        }

    text_path = out / "table1.txt"
    with open(text_path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(_comparison_text(per_method))
    json_path = out / "table1.json"
    with open(json_path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(json.dumps(report, indent=1) + "\n")
    report["records"] = per_method
    report["table_text"] = str(text_path)
    report["table_json"] = str(json_path)
    return report
