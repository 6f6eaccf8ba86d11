"""Command line entry points.

    shapeopt table1  [--mu F] [--nodes N] [--metric-a F] [--out DIR] [--config FILE]
    shapeopt run     --method {sd,newton,newton-general} [--mu F] [--nodes N]
                     [--metric-a F] [--max-iterations K] [--stop-distance F]
                     [--out DIR] [--config FILE]
    shapeopt verify  [--seed S] [--out DIR] [--config FILE]
    shapeopt render  --input curve.csv --out fig.svg

A JSON config file may supply defaults via --config, with the
ExperimentSpec fields that the command reads (CONFIG_KEYS); explicit
flags override it, and any other key is bad input.  Exit codes: 0
success, 1 property suite failure, 2 a run stopped on a solver error
(outputs still written), 3 bad input.
"""

import argparse
import json
import sys
from pathlib import Path

from ..curve import DiscreteCurve
from ..errors import ShapeOptError
from ..functional import VolumeFunctional
from ..solver import STOP_REASONS, SolverConfig
from .experiment import (METHOD_SLUGS, ExperimentSpec, initial_shape,
                         run_table1, solve_and_write)
from .properties import run_property_suite
from .svg import render_curves

EXIT_OK = 0
EXIT_SUITE_FAILED = 1
EXIT_SOLVER_ERROR = 2
EXIT_BAD_INPUT = 3

# the --method names: the output slugs of the methods
CLI_METHODS = {slug: method for method, slug in METHOD_SLUGS.items()}


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit with the bad-input code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_BAD_INPUT, f"{self.prog}: error: {message}\n")


# each flag's dest is the ExperimentSpec field it overrides
def _add_output_flags(p):
    p.add_argument("--out", dest="output_dir", type=str, default=None,
                   help="output directory")
    p.add_argument("--config", type=str, default=None,
                   help="JSON file with the ExperimentSpec fields the command "
                        "reads; flags override")


def _add_shape_flags(p):
    p.add_argument("--mu", type=float, default=None, help="stretch parameter (default 2)")
    p.add_argument("--nodes", dest="N", type=int, default=None,
                   help="node count (default 100)")
    p.add_argument("--metric-a", dest="A", type=float, default=None,
                   help="metric parameter A (default 0)")
    _add_output_flags(p)


# (JSON types, description) of each ExperimentSpec field a config file may
# set; a bool is neither a number nor an integer here
_NUMBER = ((int, float), "a number")
_INTEGER = (int, "an integer")
CONFIG_FIELDS = {"mu": _NUMBER, "N": _INTEGER, "A": _NUMBER, "seed": _INTEGER,
                 "output_dir": (str, "a string"), "stop_distance": _NUMBER}
# the config keys each command reads: verify's suite fixes its own shapes,
# table1 and run draw nothing at random, and run takes its one method from
# --method
CONFIG_KEYS = {
    "table1": ("mu", "N", "A", "methods", "output_dir", "stop_distance"),
    "run": ("mu", "N", "A", "output_dir", "stop_distance"),
    "verify": ("seed", "output_dir"),
}


def _build_spec(args, **defaults):
    """ExperimentSpec from defaults, then the --config file, then flags.
    A config key that the command does not read, a misspelt one
    included, is a ValueError."""
    values = dict(defaults)
    if args.config is not None:
        with open(args.config, "r", encoding="ascii") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError("config file must hold a JSON object")
        accepted = CONFIG_KEYS[args.command]
        ignored = sorted(key for key in raw if key not in accepted)
        if ignored:
            raise ValueError(f"config keys {ignored} are not read by {args.command}; "
                             f"it reads {list(accepted)}")
        for key, (kind, description) in CONFIG_FIELDS.items():
            if key in raw:
                value = raw[key]
                if isinstance(value, bool) or not isinstance(value, kind):
                    raise ValueError(f"config {key} must be {description}, got {value!r}")
                values[key] = value
        if "methods" in raw:
            names = raw["methods"]
            if not isinstance(names, list) or not all(isinstance(m, str) for m in names):
                raise ValueError(f"config methods must be a list of names, got {names!r}")
            try:
                values["methods"] = tuple(CLI_METHODS[m] for m in names)
            except KeyError as exc:
                raise ValueError(f"unknown method {exc.args[0]!r} in config; "
                                 f"expected among {sorted(CLI_METHODS)}") from exc
    for key in CONFIG_FIELDS:
        val = getattr(args, key, None)  # each command has some of these flags
        if val is not None:
            values[key] = val
    return ExperimentSpec(**values)


def _exit_code(stops):
    return EXIT_OK if all(stop in STOP_REASONS for stop in stops) else EXIT_SOLVER_ERROR


def cmd_table1(args):
    report = run_table1(_build_spec(args))
    for slug, data in report["methods"].items():
        final = data["rows"][-1]
        print(f"{slug}: {final['k']} iterations, final f = {final['f']:.6f}, "
              f"final distance = {final['dbar']:.3e}, stop = {data['stop']}")
        print(f"  {data['csv']}\n  {data['svg']}")
    print(f"comparison: {report['table_text']}, {report['table_json']}")
    return _exit_code(data["stop"] for data in report["methods"].values())


def cmd_run(args):
    spec = _build_spec(args, stop_distance=1e-7)
    method = CLI_METHODS[args.method]
    slug = METHOD_SLUGS[method]
    config = SolverConfig(method=method, A=spec.A, max_iterations=args.max_iterations,
                          stop_distance=spec.stop_distance)
    f = VolumeFunctional.quadratic_mso(spec.mu)
    out = Path(spec.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"run_{slug}.csv"
    svg_path = out / f"iterates_{slug}.svg"
    records, diagnostics = solve_and_write(initial_shape(spec.N), f, config,
                                           csv_path, svg_path)
    summary = {
        "method": slug,
        "iterations": len(records) - 1,
        "final_objective": records[-1].objective,
        "final_distance": records[-1].distance,
        "stop": records[-1].stop,
        "csv": str(csv_path),
        "svg": str(svg_path),
        "diagnostics": diagnostics,
    }
    print(json.dumps(summary, indent=1))
    return _exit_code([records[-1].stop])


def cmd_verify(args):
    spec = _build_spec(args)
    report = run_property_suite(spec)
    width = max(len(e["name"]) for e in report["checks"])
    for e in report["checks"]:
        status = "pass" if e["passed"] else "FAIL"
        print(f"{status}  {e['name']:<{width}}  {e['value']:.3e} {e['comparator']} "
              f"{e['bound']:g}")
    print(f"report: {report['path']}")
    return EXIT_OK if report["passed"] else EXIT_SUITE_FAILED


def cmd_render(args):
    path = Path(args.input)
    try:
        if path.suffix.lower() == ".json":
            curve = DiscreteCurve.from_json(path, require_simple=False)
        else:
            curve = DiscreteCurve.from_csv(path, require_simple=False)
    except ShapeOptError as exc:
        print(f"bad input: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    render_curves([curve.nodes], args.out)
    print(args.out)
    return EXIT_OK


def build_parser():
    parser = _Parser(prog="shapeopt",
                     description="Shape optimization on discrete closed curves")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("table1", help="run the two-method benchmark and write "
                                      "the comparison table")
    _add_shape_flags(p)
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("run", help="run a single method")
    _add_shape_flags(p)
    p.add_argument("--method", required=True, choices=sorted(CLI_METHODS))
    p.add_argument("--max-iterations", type=int, default=50)
    p.add_argument("--stop-distance", type=float, default=None)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("verify", help="run the seeded property suite")
    p.add_argument("--seed", type=int, default=None, help="property-suite seed (default 0)")
    _add_output_flags(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("render", help="render a curve file to SVG")
    p.add_argument("--input", required=True, help="curve .csv (x,y rows) or .json")
    p.add_argument("--out", required=True, help="output .svg path")
    p.set_defaults(func=cmd_render)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"bad input: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
