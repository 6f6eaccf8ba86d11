"""The convergence scoreboard: every cell's stop class and iteration count
against the checked-in pins, and the module as a standalone script.

Regenerate the pins with

    PYTHONPATH=src python tests/test_scoreboard.py > tests/scoreboard_pins.txt
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

from shapeopt.harness import scoreboard
from shapeopt.harness.scoreboard import cells, general_warm, run_cell

PINS = Path(__file__).with_name("scoreboard_pins.txt")


def _pin(cell):
    """The cell (N, start, method, A, stop distance), then the stop class
    and iteration count of its run."""
    records = run_cell(cell)
    c = cell.config
    return " ".join(map(str, (cell.n, cell.name, c.method, c.A, c.stop_distance,
                              records[-1].stop.split(":")[0], len(records) - 1)))


def test_every_cell_is_pinned():
    # a ratchet: a change that makes a cell converge updates its pin and
    # names the cell in CHANGES.md, and no converged cell may be lost
    pins = PINS.read_text().splitlines()
    got = [_pin(cell) for cell in cells()]
    lost = [p for p, g in zip(pins, got)
            if p.split()[-2] == "distance" and g.split()[-2] != "distance"]
    assert not lost, f"converged cells lost: {lost}"
    assert got == pins


def test_module_runs_as_a_standalone_script(tmp_path):
    # a copy of the module runs against another tree's src, so it imports
    # only absolute shapeopt names
    script = tmp_path / "scoreboard.py"
    shutil.copy(scoreboard.__file__, script)
    env = dict(os.environ, PYTHONPATH=str(Path(scoreboard.__file__).parents[2]))
    out = subprocess.run([sys.executable, str(script), "general_warm"], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout == "".join(line + "\n" for line in general_warm())


if __name__ == "__main__":
    for cell in cells():
        print(_pin(cell))
