"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload of ``workloads.WORKLOADS`` (the gated ones of
BENCHMARK.json and the one kept for runs by hand) at minimum length (one
op after set-up), untraced and traced, through the benchmark's command
line.  It
checks that the result line has exactly its four keys and every
named metric with its unit, that every span lies inside its parent and
carries its parent's op id, that the packaged-start general-form attempt
is reported (today as a failure at k=0) without crashing the run, and
that the seeded pinched start at phase 0 is the packaged start.  Exits
1 on the first failed check.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def check(condition, message):
    if not condition:
        sys.exit(f"smoke: FAILED: {message}")


def run(workload, trace):
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(command + ["--workload", workload, "--seed", "7",
                                     "--seconds", "0.001", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=180)
    check(proc.returncode == 0, f"{workload} trace {trace} exited "
                                f"{proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def check_result(workload, trace, result, expected):
    where = f"{workload} trace {trace}"
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{where}: result keys {sorted(result)}")
    check(result["correct"] is True, f"{where}: not correct")
    check(result["attempted"] >= 1 and result["failed"] == 0,
          f"{where}: attempted {result['attempted']}, failed {result['failed']}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    check(got == expected, f"{where}: metrics {got} != {expected}")
    for name, m in result["metrics"].items():
        check(isinstance(m["value"], (int, float)), f"{where}: {name} is {m['value']!r}")


def check_spans(workload):
    spans = [json.loads(line) for line in
             (ROOT / "perfbench" / "out" / f"spans-{workload}-seed7.jsonl").open()]
    check(spans, f"{workload}: no spans")
    for s in spans:
        check(s["start"] <= s["end"], f"{workload}: span {s['id']} ends before it starts")
        if s["parent"] is not None:
            p = spans[s["parent"]]
            check(p["start"] <= s["start"] and s["end"] <= p["end"] and p["op"] == s["op"],
                  f"{workload}: span {s['id']} ({s['name']}) outside its parent "
                  f"{p['id']} ({p['name']})")
        else:
            check(s["name"] == "op", f"{workload}: root span {s['id']} is {s['name']}")


def check_pinched_start():
    import numpy as np
    from shapeopt import initial_shape
    from workloads import pinched_shape
    for n in (100, 800):
        check(np.array_equal(pinched_shape(n, 0.0), initial_shape(n).nodes),
              f"pinched_shape({n}, 0) differs from initial_shape({n})")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS
    gated = [w["name"] for w in spec["workloads"]]
    check(set(gated) <= set(WORKLOADS), f"BENCHMARK.json names unknown workloads {gated}")
    for name in WORKLOADS:
        for trace, expected in ((0, end_to_end), (1, per_layer)):
            report, result = run(name, trace)
            check_result(name, trace, result, expected)
            if trace:
                check_spans(name)
                check(any(line.strip().startswith("tracing overhead") for line in report),
                      f"{name}: no tracing overhead line")
            if name == "newton_general_warm_n800":
                probe = [line for line in report if "packaged_start_probe_failed" in line]
                check(len(probe) == 1, f"{name}: packaged-start attempt not reported")
                print(f"smoke: {name} trace {trace}: {probe[0].strip()}")
        print(f"smoke: {name} ok")
    check_pinched_start()
    print("smoke: all checks passed")


if __name__ == "__main__":
    main()
