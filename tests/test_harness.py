"""Experiment orchestration: benchmark reproduction artifacts, SVG
rendering, the property suite, and the command-line interface."""

import json
import os
import subprocess
import sys
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from conftest import circle
from shapeopt import (NEWTON_GENERAL_FORM, NEWTON_MULTIPLICATIVE, STEEPEST_DESCENT,
                      DiscreteCurve, ExperimentSpec, IterationRecord, initial_shape,
                      reference_ellipse, run_table1)
from shapeopt.harness import cli, experiment, properties
from shapeopt.harness.cli import main
from shapeopt.harness.experiment import CSV_HEADER
from shapeopt.harness.properties import random_star_curve
from shapeopt.harness.svg import _drawable, _polyline, _ramp, render_curves


def polyline_count(path):
    root = ET.parse(path).getroot()
    return sum(1 for el in root.iter() if el.tag.endswith("polyline"))


def test_spec_validation():
    spec = ExperimentSpec()
    assert (spec.mu, spec.N, spec.A) == (2.0, 100, 0.0)
    for mu in (0.5, float("nan"), float("inf"), 1e300):  # 1e300**2 overflows
        with pytest.raises(ValueError):
            ExperimentSpec(mu=mu)
    with pytest.raises(ValueError):
        ExperimentSpec(N=4)
    for A in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            ExperimentSpec(A=A)
    with pytest.raises(ValueError):
        ExperimentSpec(methods=("downhill-simplex",))
    with pytest.raises(ValueError, match="at least one method"):
        ExperimentSpec(methods=())
    with pytest.raises(ValueError, match="twice"):
        ExperimentSpec(methods=(STEEPEST_DESCENT, NEWTON_MULTIPLICATIVE, STEEPEST_DESCENT))
    with pytest.raises(ValueError):
        ExperimentSpec(stop_distance=0.0)


def test_initial_shape_pinned_nodes():
    c = initial_shape(100)
    npt.assert_allclose(c.nodes[0], [0.425, 0.0], atol=1e-15)
    npt.assert_allclose(c.nodes[25], [0.0, 0.5], atol=1e-15)
    assert c.n_nodes == 100


def test_reference_ellipse_on_level_set():
    e = reference_ellipse(100, 2.0)
    level = e.nodes[:, 0] ** 2 + 4.0 * e.nodes[:, 1] ** 2 - 1.0
    npt.assert_allclose(level, 0.0, atol=1e-14)
    npt.assert_allclose(e.nodes[25], [0.0, 0.5], atol=1e-15)
    npt.assert_allclose(reference_ellipse(64, 1.0).nodes, circle(64).nodes)


def test_random_star_curves_below_amplitude_0_2_are_certified():
    # the radius is at least 1 - 5*amplitude, positive below 0.2
    rng = np.random.default_rng(67)
    for n in (8, 101, 1600):
        for _ in range(200):
            assert random_star_curve(n, rng, amplitude=0.19).star_certified, n


def test_run_table1_artifacts(tmp_path):
    report = run_table1(ExperimentSpec(output_dir=str(tmp_path)))

    newton_csv = (tmp_path / "table1_newton.csv").read_text().splitlines()
    assert newton_csv[0] == CSV_HEADER
    assert len(newton_csv) - 1 <= 6
    assert float(newton_csv[-1].split(",")[2]) <= 1e-7

    sd_csv = (tmp_path / "table1_sd.csv").read_text().splitlines()
    assert 16 <= len(sd_csv) - 1 <= 18

    for slug in ("sd", "newton"):
        rows = report["methods"][slug]["rows"]
        assert abs(rows[-1]["f"] + 0.7854) < 1e-3
        assert polyline_count(tmp_path / f"iterates_{slug}.svg") == len(rows)

    table = json.loads((tmp_path / "table1.json").read_text())
    assert set(table["methods"]) == {"sd", "newton"}
    assert (tmp_path / "table1.txt").read_text().count("-0.7854") >= 2


def test_run_table1_deterministic(tmp_path):
    names = ("table1_sd.csv", "table1_newton.csv", "table1.txt",
             "table1.json", "iterates_sd.svg", "iterates_newton.svg")
    spec = ExperimentSpec(output_dir=str(tmp_path))
    run_table1(spec)
    first = {name: (tmp_path / name).read_bytes() for name in names}
    run_table1(spec)
    for name in names:
        assert (tmp_path / name).read_bytes() == first[name], name


def test_render_curves(tmp_path):
    out = tmp_path / "fig.svg"
    render_curves([circle(50).nodes, circle(50, 0.5).nodes], out)
    root = ET.parse(out).getroot()
    assert root.get("viewBox") == "-120000 -120000 240000 240000"
    assert polyline_count(out) == 2


def test_render_curves_rejects_non_finite_nodes(tmp_path):
    # a bad curve first, in the middle or last raises its message before
    # the file is opened: no file appears, and an existing one keeps its bytes
    too_far = np.nextafter(_largest_drawable(), np.inf)
    bads = []
    for value in (np.nan, np.inf, -np.inf, 1e14, -1e14, too_far, -too_far):
        bad = circle(20).nodes.copy()
        bad[3, 1] = value
        bads.append((bad, "has a node that is not finite or beyond 9.2e13"))
    bads.append((np.empty((0, 2)), "has no nodes"))
    new, old = tmp_path / "new.svg", tmp_path / "old.svg"
    old.write_bytes(b"old bytes")
    for bad, message in bads:
        for i in range(3):
            curves = [circle(20).nodes, circle(20, 0.5).nodes]
            curves.insert(i, bad)
            for out in (new, old):
                with pytest.raises(ValueError, match=f"^curve {i} {message}$"):
                    render_curves(curves, out)
            assert not new.exists()
            assert old.read_bytes() == b"old bytes"


def test_render_curves_without_curves(tmp_path):
    render_curves([], tmp_path / "empty.svg")
    assert (tmp_path / "empty.svg").read_bytes() == (
        b'<?xml version="1.0" encoding="UTF-8"?>\n'
        b'<svg xmlns="http://www.w3.org/2000/svg" '
        b'viewBox="-120000 -120000 240000 240000">\n</svg>\n')


def test_polyline_points_format():
    # points are integers in units of 1e-5 with y negated; a node with y == 0.0
    # prints 0, never -0; the first node closes the loop
    nodes = np.array([[1.0, 0.0], [0.1, 0.3], [-0.5, -1e-17], [0.0, -0.25]])
    assert _polyline(nodes, "rgb(0,0,255)") == (
        b'<polyline points="100000,0 10000,-30000 -50000,0 0,25000 100000,0" '
        b'fill="none" stroke="rgb(0,0,255)" stroke-width="1200" />')


def _polyline_float_format(nodes, color):
    # the points as formatted before the int64 cast: %d of the rounded floats
    q = np.rint(np.column_stack([nodes[:, 0], -nodes[:, 1]]) * 100000.0)
    pts = ("%d,%d " * (len(q) + 1))[:-1] % tuple(np.vstack([q, q[:1]]).ravel().tolist())
    return (f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1200" />'
            .encode("ascii"))


def _largest_drawable():
    # the largest coordinate whose scaled, rounded value stays below 2**63
    x = 2.0 ** 63 / 1e5
    while np.rint(x * 1e5) >= 2.0 ** 63:
        x = np.nextafter(x, 0.0)
    return float(x)


def _render_float_format(node_arrays):
    # the SVG file as render_curves writes it, with the points of the oracle
    lines = [b'<?xml version="1.0" encoding="UTF-8"?>',
             b'<svg xmlns="http://www.w3.org/2000/svg" '
             b'viewBox="-120000 -120000 240000 240000">']
    for i, nodes in enumerate(node_arrays):
        lines.append(_polyline_float_format(nodes, _ramp(i, len(node_arrays))))
    return b"\n".join(lines) + b"\n</svg>\n"


def test_polyline_matches_float_format():
    rng = np.random.default_rng(59)
    top = _largest_drawable()
    # the scaled values 10**k - 1 and 10**k, of both signs in both columns:
    # every digit count from 1 to 19 next to smaller ones in one curve
    scaled = [v for k in range(19) for v in (10 ** k - 1, 10 ** k)]
    edges = np.array([[v / 1e5, -v / 1e5] for v in scaled]
                     + [[-v / 1e5, v / 1e5] for v in scaled]
                     + [[0.0, -0.0], [-0.0, 0.0], [top, -top], [-top, top]])
    tokens = _polyline(edges, "red").decode("ascii").split('"')[1].replace(",", " ").split()
    assert {len(t.lstrip("-")) for t in tokens} == set(range(1, 20))
    for v in scaled:
        if v < 2 ** 53:  # exactly representable, so rint(1e5 * v / 1e5) == v
            assert {str(v), str(-v)} <= set(tokens), v
    curves = [edges]
    curves += [random_star_curve(n, rng).nodes for n in (8, 100, 1600)]
    curves += [scale * rng.standard_normal((64, 2)) for scale in 10.0 ** np.arange(-6, 13)]
    curves += [np.array([[v / 1e5, 0.5], [-0.5, -v / 1e5], [0.0, 0.0]]) for v in scaled]
    curves.append(np.array([[-0.0, -0.0], [0.0, 1e-17], [-4e-6, 6e-6], [-5e-6, 5e-6],
                            [1.5e-5, -2.5e-5], [-1e-300, 1.0]]))
    curves.append(np.array([[top, -top], [-top, top], [9.2e13, -9e13],
                            [np.nextafter(top, 0.0), 1e13]]))
    for nodes in curves:
        assert _polyline(nodes, "red") == _polyline_float_format(nodes, "red")
    too_far = np.nextafter(top, np.inf)
    for bad in (too_far, -too_far):
        with pytest.raises(ValueError, match="^curve has a node that is not finite or beyond"):
            _drawable(np.array([[0.0, 1.0], [bad, 0.0], [0.0, 0.0]]), "curve")


def test_render_curves_matches_float_format_on_table1_iterates(tmp_path):
    report = run_table1(ExperimentSpec(N=1600, output_dir=str(tmp_path)))
    for slug, records in report["records"].items():
        expected = _render_float_format([r.nodes for r in records])
        assert (tmp_path / f"iterates_{slug}.svg").read_bytes() == expected, slug


def test_render_curves_int64_range(tmp_path):
    far = circle(20).nodes.copy()
    far[3] = [9e13, -9e13]
    out = tmp_path / "fig.svg"
    render_curves([circle(20).nodes, far], out)
    assert "9000000000000000000,9000000000000000000" in out.read_text()
    far[3] = [1e14, 0.0]
    with pytest.raises(ValueError, match="curve 1 "):
        render_curves([circle(20).nodes, far], tmp_path / "far.svg")
    assert not (tmp_path / "far.svg").exists()


def test_render_curves_memory_does_not_grow_with_curve_count(tmp_path):
    # the file is written polyline by polyline, so the peak is one
    # polyline's, whatever the number of curves
    nodes = reference_ellipse(1600, 2.0).nodes
    peaks = []
    for count in (4, 32):
        tracemalloc.start()
        try:
            render_curves([nodes] * count, tmp_path / f"fig_{count}.svg")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
    assert polyline_count(tmp_path / "fig_32.svg") == 32
    assert peaks[1] < 2 * peaks[0], peaks


def test_run_table1_svg_points_are_scaled_integers(tmp_path):
    report = run_table1(ExperimentSpec(output_dir=str(tmp_path)))
    for slug, records in report["records"].items():
        root = ET.parse(tmp_path / f"iterates_{slug}.svg").getroot()
        assert root.get("viewBox") == "-120000 -120000 240000 240000"
        polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
        assert len(polylines) == len(records) == len(report["methods"][slug]["rows"])
        for el, record in zip(polylines, records):
            tokens = el.get("points").replace(",", " ").split()
            assert all(t.lstrip("-").isdigit() for t in tokens), slug
            assert not any(t.startswith("-0") for t in tokens), slug
            points = np.array([int(t) for t in tokens], dtype=float).reshape(-1, 2)
            assert (points[-1] == points[0]).all()
            expected = np.column_stack([record.nodes[:, 0], -record.nodes[:, 1]])
            assert np.abs(points[:-1] / 1e5 - expected).max() <= 0.5e-5 + 1e-9


def test_cli_run_newton(tmp_path, capsys):
    assert main(["run", "--method", "newton", "--out", str(tmp_path)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["iterations"] <= 5
    assert summary["final_distance"] < 1e-7
    assert (tmp_path / "run_newton.csv").exists()
    assert (tmp_path / "iterates_newton.svg").exists()
    # the multiplicative Newton step holds no metric: at A = 0.5 it
    # converges in 4 iterations, as at A = 0
    assert main(["run", "--method", "newton", "--metric-a", "0.5",
                 "--out", str(tmp_path / "a05")]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["stop"] == "distance" and summary["iterations"] == 4


def test_cli_run_writes_partial_outputs_on_solver_error(tmp_path, capsys):
    # at mu=3 the second Newton step leaves the admissible set
    code = main(["run", "--method", "newton", "--mu", "3", "--out", str(tmp_path)])
    assert code == 2
    assert json.loads(capsys.readouterr().out)["stop"].startswith("ShapeDegenerate: ")
    rows = (tmp_path / "run_newton.csv").read_text().splitlines()
    assert len(rows) == 3  # header plus the two partial records
    assert polyline_count(tmp_path / "iterates_newton.svg") == 2


def test_cli_table1(tmp_path, capsys):
    assert main(["table1", "--out", str(tmp_path / "mu2")]) == 0
    assert "newton" in capsys.readouterr().out
    table = json.loads((tmp_path / "mu2" / "table1.json").read_text())
    assert [m["stop"] for m in table["methods"].values()] == ["distance", "distance"]


def test_cli_module_table1_fails_at_mu3(tmp_path):
    # both methods fail at mu=3; every artifact is still written, and
    # python -m shapeopt.harness.cli hands main's exit code 2 to the shell
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[2]))
    out = subprocess.run([sys.executable, "-m", "shapeopt.harness.cli", "table1", "--mu", "3",
                          "--out", str(tmp_path)], env=env, capture_output=True, text=True)
    assert out.returncode == 2, out.stderr
    table = json.loads((tmp_path / "table1.json").read_text())
    assert all(m["stop"].startswith("ShapeDegenerate: ")
               for m in table["methods"].values())
    for name in ("table1.txt", "table1_sd.csv", "table1_newton.csv",
                 "iterates_sd.svg", "iterates_newton.svg"):
        assert (tmp_path / name).exists(), name


def test_cli_verify(tmp_path, capsys):
    assert main(["verify", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    report = json.loads((tmp_path / "properties.json").read_text())
    assert report["passed"] is True
    # dropping, reordering or loosening a check changes this list
    assert [(e["name"], e["comparator"], e["bound"]) for e in report["checks"]] == [
        ("hessian_symmetry_max_relative_asymmetry", "<", 1e-12),
        ("multiplication_consistency_max_relative_gap", "<", 1e-6),
        ("nu_range_deviation", "<=", 1e-3),
        ("gradient_fd_max_relative_error", "<", 1e-2),
        ("taylor_min_slope", ">=", 2.5),
        ("taylor_max_slope", "<=", 3.5),
        ("mso_general_max_relative_gap", "<", 1e-6),
        ("coercivity_min_rayleigh", ">=", 1.9),
        ("distance_bar_at_solution", "<", 1e-6),
        ("curvature_error_ratio", ">=", 3.5),
        ("perimeter_error_ratio", ">=", 3.5),
        ("objective_error_ratio", ">=", 3.5),
        ("retraction_rigidity_max_deviation", "<=", 0.0),
        ("sd_final_gradient_norm", "<", 1e-5),
        ("newton_final_gradient_norm", "<", 1e-5),
        ("sd_monotone_min_early_decrease", ">", 0.0),
        ("newton_contraction_monotone_max_diff", "<", 0.0),
    ]


def test_cli_rejects_flags_a_command_ignores(tmp_path, capsys):
    # verify's suite fixes its own shapes; table1 and run draw nothing at random
    for argv in (["verify", "--nodes", "400"], ["verify", "--mu", "3"],
                 ["verify", "--metric-a", "1"], ["table1", "--seed", "5"],
                 ["run", "--method", "sd", "--seed", "5"]):
        with pytest.raises(SystemExit) as info:
            main([*argv, "--out", str(tmp_path / "out")])
        assert info.value.code == 3, argv
        assert "unrecognized arguments" in capsys.readouterr().err, argv
    assert not (tmp_path / "out").exists()


def test_property_solver_checks_report_a_failed_solve(monkeypatch):
    def failed_solve(c0, f, config):
        return [IterationRecord(index=0, objective=f.evaluate(c0), nodes=c0.nodes,
                                stop="LineSearchFailed: no decrease")]

    monkeypatch.setattr(properties, "optimize", failed_solve)
    entries = properties._solver_checks()
    assert len(entries) == 4
    assert not any(e["passed"] for e in entries)


def test_cli_render_roundtrip(tmp_path):
    curve_path = tmp_path / "curve.json"
    circle(40).to_json(curve_path)
    svg_path = tmp_path / "curve.svg"
    assert main(["render", "--input", str(curve_path), "--out", str(svg_path)]) == 0
    assert polyline_count(svg_path) == 1


def test_cli_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "spec.json"
    cfg.write_text(json.dumps({"N": 64, "mu": 2.0}))
    code = main(["run", "--method", "newton", "--config", str(cfg),
                 "--nodes", "72", "--out", str(tmp_path)])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    rows = (tmp_path / "run_newton.csv").read_text().splitlines()
    assert summary["iterations"] + 2 == len(rows)  # header plus one row per curve


def test_cli_run_stop_distance_precedence(tmp_path, capsys):
    def iterations(*argv):
        assert main(["run", "--method", "sd", "--out", str(tmp_path), *argv]) == 0
        return json.loads(capsys.readouterr().out)["iterations"]

    cfg = tmp_path / "spec.json"
    cfg.write_text(json.dumps({"stop_distance": 0.01}))
    from_config = iterations("--config", str(cfg))
    assert from_config == iterations("--stop-distance", "0.01") == 4
    assert iterations("--config", str(cfg), "--stop-distance", "0.1") < from_config
    assert iterations() > from_config  # default 1e-7


def test_cli_bad_inputs(tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        main(["run", "--out", str(tmp_path)])  # --method is required
    assert info.value.code == 3
    with pytest.raises(SystemExit) as info:
        main(["run", "--method", "simplex", "--out", str(tmp_path)])
    assert info.value.code == 3
    for argv in (["--mu", "0.5"], ["--mu", "inf"], ["--mu", "1e300"],
                 ["--metric-a", "inf"]):
        assert main(["table1", *argv, "--out", str(tmp_path)]) == 3, argv
    assert main(["run", "--method", "sd", "--mu", "1e300", "--out", str(tmp_path)]) == 3
    assert main(["render", "--input", str(tmp_path / "missing.csv"),
                 "--out", str(tmp_path / "x.svg")]) == 3
    far = circle(20).nodes.copy()
    far[3] = [1e14, 0.0]
    np.savetxt(tmp_path / "far.csv", far, delimiter=",")
    assert main(["render", "--input", str(tmp_path / "far.csv"),
                 "--out", str(tmp_path / "far.svg")]) == 3
    assert not (tmp_path / "far.svg").exists()
    cfg = tmp_path / "bad.json"
    for bad in ({"mu": "2", "A": "0"}, {"mu": "2"}, {"A": "0"}, {"mu": True},
                {"stop_distance": "1e-3"}, {"N": "100"}, {"N": 100.0}, {"N": True},
                {"seed": "1"}, {"seed": 1.5}, {"seed": False}, {"output_dir": 3},
                {"output_dir": None}, {"methods": 3}, {"methods": "sd"},
                {"methods": [["sd"]]}, {"methods": ["sd", None]}):
        cfg.write_text(json.dumps(bad))
        for command in ("table1", "verify"):
            assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 3, bad
    assert main(["run", "--method", "sd", "--config", str(cfg), "--out", str(tmp_path)]) == 3
    # a key that the command does not read, misspelt or ignored, is bad
    # input too, whatever its value
    for command, keys in (("table1", ("nodes", "seed", "max_iterations")),
                          ("run", ("nodes", "seed", "methods")),
                          ("verify", ("nodes", "N", "mu", "A", "methods",
                                      "stop_distance"))):
        for key in keys:
            cfg.write_text(json.dumps({key: ["sd"] if key == "methods" else 400}))
            argv = [command, "--config", str(cfg), "--out", str(tmp_path)]
            if command == "run":
                argv += ["--method", "sd"]
            assert main(argv) == 3, (command, key)
            assert f"config keys ['{key}'] are not read by {command}" \
                in capsys.readouterr().err, (command, key)
    assert not (tmp_path / "table1.json").exists()
    assert not (tmp_path / "properties.json").exists()
    assert not (tmp_path / "run_sd.csv").exists()
    capsys.readouterr()


def _file_bytes(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_table1_rewrites_its_outputs(tmp_path):
    # each file is rewritten at its new length: N=100 over the files of
    # N=1600 (whose SVGs are larger), or over longer junk in every file,
    # leaves the bytes of a fresh N=100 run, in the same files
    out = tmp_path / "out"
    run_table1(ExperimentSpec(output_dir=str(out)))
    fresh = _file_bytes(out)
    inodes = {name: (out / name).stat().st_ino for name in fresh}
    run_table1(ExperimentSpec(N=1600, output_dir=str(out)))
    larger = _file_bytes(out)
    assert sorted(larger) == sorted(fresh)
    for name in ("iterates_sd.svg", "iterates_newton.svg"):
        assert len(larger[name]) > 10 * len(fresh[name])
    run_table1(ExperimentSpec(output_dir=str(out)))
    assert _file_bytes(out) == fresh
    for name, data in fresh.items():
        (out / name).write_bytes(b"#" * (2 * len(data)))
    run_table1(ExperimentSpec(output_dir=str(out)))
    assert _file_bytes(out) == fresh
    assert {name: (out / name).stat().st_ino for name in fresh} == inodes
    # the curve files likewise
    for suffix, write, read in ((".csv", DiscreteCurve.to_csv, DiscreteCurve.from_csv),
                                (".json", DiscreteCurve.to_json, DiscreteCurve.from_json)):
        path = tmp_path / f"curve{suffix}"
        write(initial_shape(1600), path)
        write(circle(40), path)
        assert np.array_equal(read(path).nodes, circle(40).nodes)
        write(circle(40), tmp_path / f"fresh{suffix}")
        assert path.read_bytes() == (tmp_path / f"fresh{suffix}").read_bytes()


def test_a_writer_that_raises_leaves_no_old_bytes(tmp_path, monkeypatch):
    # a CSV whose row formatting raises partway holds a prefix of its new
    # bytes and nothing of the longer file it replaced
    run_table1(ExperimentSpec(output_dir=str(tmp_path / "fresh")))
    fresh = (tmp_path / "fresh" / "table1_sd.csv").read_bytes()
    out = tmp_path / "out"
    out.mkdir()
    (out / "table1_sd.csv").write_bytes(b"#" * (2 * len(fresh)))
    calls = []
    fmt = experiment._fmt

    def failing(value):
        calls.append(value)
        if len(calls) > 3 * len(experiment.COLUMNS):
            raise RuntimeError("formatting failed")
        return fmt(value)

    monkeypatch.setattr(experiment, "_fmt", failing)
    with pytest.raises(RuntimeError):
        run_table1(ExperimentSpec(output_dir=str(out)))
    left = (out / "table1_sd.csv").read_bytes()
    assert fresh.startswith(left) and len(left) < len(fresh)


def test_table1_outputs_write_through_links(tmp_path):
    # a symlinked output writes its target, a hard-linked one keeps its
    # links and mode, and a new file gets the mode of a plain open
    run_table1(ExperimentSpec(output_dir=str(tmp_path / "fresh")))
    fresh = _file_bytes(tmp_path / "fresh")
    out = tmp_path / "out"
    out.mkdir()
    target, linked = tmp_path / "target.txt", tmp_path / "linked.csv"
    for path in (target, linked):
        path.write_text("stale\n" * 10000)
    (out / "table1.txt").symlink_to(target)
    os.link(linked, out / "table1_sd.csv")
    linked.chmod(0o640)
    run_table1(ExperimentSpec(output_dir=str(tmp_path / "out")))
    assert (out / "table1.txt").is_symlink()
    assert target.read_bytes() == fresh["table1.txt"]
    assert linked.read_bytes() == fresh["table1_sd.csv"]
    assert (out / "table1_sd.csv").stat().st_ino == linked.stat().st_ino
    assert linked.stat().st_mode & 0o777 == 0o640
    new_file = (out / "table1.json").stat().st_mode
    assert new_file == (tmp_path / "fresh" / "table1.json").stat().st_mode


def test_cli_unwritable_output_is_bad_input(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    (out / "table1.json").mkdir()  # an output path that is a directory
    assert main(["table1", "--out", str(out)]) == 3
    assert "bad input" in capsys.readouterr().err


def test_cli_read_only_output_is_bad_input(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    locked = out / "table1.json"
    locked.write_text("{}\n")
    locked.chmod(0o444)
    if os.access(locked, os.W_OK):
        pytest.skip("this user may write a read-only file")
    assert main(["table1", "--out", str(out)]) == 3
    assert "Permission denied" in capsys.readouterr().err
    assert locked.read_text() == "{}\n"


def test_cli_rejects_empty_or_repeated_methods(tmp_path, capsys):
    cfg = tmp_path / "methods.json"
    for methods in ([], ["sd", "sd"], ["sd", "newton", "sd"]):
        cfg.write_text(json.dumps({"methods": methods}))
        out = tmp_path / "out"
        assert main(["table1", "--config", str(cfg), "--out", str(out)]) == 3, methods
        assert "bad input: methods" in capsys.readouterr().err
        assert not out.exists(), methods


def test_cli_method_names_are_the_output_slugs(tmp_path, capsys):
    # the names --method and a config's methods take are the slugs of the
    # output files; any other name is bad input that lists them
    assert cli.CLI_METHODS == {"sd": STEEPEST_DESCENT, "newton": NEWTON_MULTIPLICATIVE,
                               "newton-general": NEWTON_GENERAL_FORM}
    cfg = tmp_path / "methods.json"
    cfg.write_text(json.dumps({"methods": ["sd", "steepest-descent"]}))
    out = tmp_path / "out"
    assert main(["table1", "--config", str(cfg), "--out", str(out)]) == 3
    assert ("bad input: unknown method 'steepest-descent' in config; expected among "
            "['newton', 'newton-general', 'sd']") in capsys.readouterr().err
    assert not out.exists()
