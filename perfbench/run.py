"""shapeopt benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory and nowhere else.  Load is a closed loop with one
caller: each op starts after the previous one returns.  Every op's
output is checked; an op that raises or fails its check counts as
failed and the run goes on.

Printed: a human-readable report (every end-to-end metric with its
unit, the environment, and with --trace 1 the per-layer metrics and the
tracing overhead), then as the last line one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are
the end-to-end ones; with --trace 1 the per-layer ones.  In a traced run
ops alternate between traced and untraced, so the overhead compares ops
taken under the same conditions; spans go to perfbench/out/.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
# One BLAS thread: the loop has one caller, and a second thread on a
# small shared machine adds more run-to-run noise than speed.
BLAS_THREADS = 1
SETUP_REPEATS = 3
TAIL_BEYOND = 10
# The end-to-end metrics of the result line.  ops_per_s, op_s.tail and
# ops_failed are printed in the report only; see METRICS.md for why.
END_TO_END = {"setup_s": "s", "op_s.p50": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0.0:
        p.error("--seconds must be positive")
    return args


def import_package():
    """Import shapeopt from this checkout's src and the benchmark modules;
    return the seconds it took.  Exits with status 1, printing no result,
    when the checkout has no package source."""
    if not (SRC / "shapeopt" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC / 'shapeopt'}; "
                 "run from the root of a shapeopt checkout")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import shapeopt
    import spans  # noqa: F401  (imported here so its cost is part of set-up)
    import workloads  # noqa: F401
    elapsed = perf_counter() - t0
    if Path(shapeopt.__file__).resolve().parent != (SRC / "shapeopt").resolve():
        sys.exit(f"perfbench: shapeopt imported from {shapeopt.__file__}, not {SRC}")
    return elapsed


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed):
    import numpy as np
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = None
    return {"cpu": cpu or platform.processor() or None,
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": BLAS_THREADS,
            "git_commit": git_commit(), "seed": seed}


def tail(times):
    """Highest whole percentile above the median with at least
    TAIL_BEYOND samples above it, as (percentile, value); None for too
    few samples."""
    n = len(times)
    ordered = sorted(times)
    for pct in range(99, 50, -1):
        rank = -(-pct * n // 100)          # nearest-rank percentile
        if n - rank >= TAIL_BEYOND:
            return pct, ordered[rank - 1]
    return None


def set_up(make, seed, scratch):
    """Build the workload and run one untimed warm-up op, SETUP_REPEATS
    times; return the last build and the median set-up time."""
    durations = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        prepared = make(seed, scratch)
        prepared.op(prepared.start(0))
        durations.append(perf_counter() - t0)
    return prepared, statistics.median(durations)


def timed(op, arg):
    """(seconds, output, error) of one op; error is None on return."""
    t0 = perf_counter()
    try:
        out, error = op(arg), None
    except Exception as exc:  # a failed op is counted, not fatal
        out, error = None, f"{type(exc).__name__}: {exc}"
    return perf_counter() - t0, out, error


def measure(prepared, seconds, recorder):
    """Closed loop for `seconds`, and at least one op (two when traced,
    so both kinds are seen).  With a recorder, even-numbered ops run
    traced.  Returns per-op records and the loop's wall time."""
    import spans
    min_ops = 1 if recorder is None else 2
    ops = []
    loop_start = perf_counter()
    i = 0
    while i < min_ops or perf_counter() - loop_start < seconds:
        arg = prepared.start(i)
        traced = recorder is not None and i % 2 == 0
        if traced:
            recorder.op = i
            with spans.installed(recorder):
                root = recorder.begin("op")
                dt, out, error = timed(prepared.op, arg)
                recorder.end(root, error and error.split(":")[0])
        else:
            dt, out, error = timed(prepared.op, arg)
        if error is None:
            problem = prepared.check(arg, out)
            if problem:
                error = "incorrect: " + problem
        ops.append({"s": dt, "traced": traced, "error": error})
        i += 1
    return ops, perf_counter() - loop_start


def summarize(ops, wall):
    ok = [op["s"] for op in ops if op["error"] is None]
    return {"attempted": len(ops), "failed": len(ops) - len(ok),
            "ops_per_s": len(ok) / wall,
            "op_s.p50": statistics.median(ok) if ok else None,
            "tail": tail(ok), "n": len(ok)}


def main(argv=None):
    args = parse_args(argv)
    import_s = import_package()
    import spans
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    OUT.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        prepared, setup_med = set_up(WORKLOADS[args.workload], args.seed, scratch)
        recorder = spans.Recorder() if args.trace else None
        ops, wall = measure(prepared, args.seconds, recorder)
        probe = prepared.probe() if prepared.probe else None
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    untraced = summarize([op for op in ops if not op["traced"]], wall)
    everything = summarize(ops, wall)
    incorrect = [op for op in ops if (op["error"] or "").startswith("incorrect")]
    first_error = next((op["error"] for op in ops if op["error"]), None)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("environment " + json.dumps(environment(args.seed)))
    # op times come from untraced ops only; ops_per_s counts every op
    p50 = untraced["op_s.p50"]
    e2e = {"setup_s": import_s + setup_med, "op_s.p50": p50,
           "ops_per_s": everything["ops_per_s"], "peak_rss_mb": peak_rss_mb}
    print(f"  setup_s      {e2e['setup_s']:.6f} s  (import {import_s:.4f} s + "
          f"median of {SETUP_REPEATS} set-ups with warm-up op {setup_med:.4f} s)")
    print(f"  op_s.p50     {p50:.6f} s  (n={untraced['n']})" if p50 is not None
          else "  op_s.p50     absent  (no successful op)")
    if untraced["tail"]:
        pct, value = untraced["tail"]
        print(f"  op_s.tail    {value:.6f} s  (p{pct}, n={untraced['n']}, "
              f">={TAIL_BEYOND} beyond)")
    else:
        print(f"  op_s.tail    absent  (n={untraced['n']}: too few successful ops "
              f"for a percentile above p50 with {TAIL_BEYOND} beyond)")
    print(f"  ops_per_s    {e2e['ops_per_s']:.6f} 1/s  (closed loop, 1 caller, "
          f"wall {wall:.3f} s{', traced ops included' if args.trace else ''})")
    print(f"  ops_failed   {everything['failed']}/{everything['attempted']}")
    print(f"  peak_rss_mb  {peak_rss_mb:.3f} MB")
    if first_error:
        print(f"  first failure: {first_error}")
    if probe is not None:
        failed, text = probe
        print(f"  packaged_start_probe_failed {int(failed)}/1  (untimed, outside "
              f"ops_failed and the result line): {text}")

    if args.trace:
        traced = summarize([op for op in ops if op["traced"]], wall)
        n_traced = traced["attempted"]
        metrics = spans.layer_metrics(recorder, n_traced)
        for name, m in metrics.items():
            print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
        if traced["op_s.p50"] is not None and untraced["op_s.p50"] is not None:
            diff = traced["op_s.p50"] - untraced["op_s.p50"]
            print(f"  tracing overhead: {diff:+.6f} s per op = traced op_s.p50 "
                  f"{traced['op_s.p50']:.6f} s (n={traced['n']}) - untraced "
                  f"op_s.p50 {untraced['op_s.p50']:.6f} s (n={untraced['n']})")
        trace_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        recorder.write_jsonl(trace_path)
        print(f"  spans: {len(recorder.spans)} written to {trace_path.relative_to(ROOT)}")
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END.items()}

    result = {"correct": not incorrect and p50 is not None,
              "attempted": everything["attempted"], "failed": everything["failed"],
              "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
