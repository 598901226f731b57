"""Benchmark of the isotropy package: one workload, one seed, one result.

    python3 perfbench/run.py --workload group|codim|cli --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout (the directory holding src/isotropy).
Each workload is a closed loop with one caller: an operation starts when
the previous one has returned.  A run does a fixed number of whole rounds
of a fixed operation list, round(S / ROUND_S[workload]) clamped to 1..3,
so the mix of operations never depends on how fast the program is.

--trace 0 prints the end-to-end metrics: every time is scaled to the
reference machine's speed by the yardstick bursts timed around it
(yardstick.py), and latencies are geometric means per size class.
--trace 1 runs the same rounds twice, untraced and then traced (each in a
fresh interpreter), and prints the per-layer metrics, with self times
scaled by the traced run's median burst; trace.overhead is the ratio of
the two timed phases, each scaled by its own median burst.  The last line
of stdout is one JSON object with the keys correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import yardstick  # noqa: E402

# Seconds one round takes on the reference machine (2 CPUs, Python 3.11,
# fractions backend).
ROUND_S = {"group": 25.0, "codim": 25.0, "cli": 25.0}
SETUPS = 11         # set-ups per run; setup_s is their median
SMALL_N = 8         # latency_small_ms: structures with n <= SMALL_N
LARGE_N = 14        # latency_large_ms: structures with n >= LARGE_N
DEADLINE_S = 170.0  # every worker must have ended by then


def spawn_worker(args, out_dir, deadline, trace=0, setup_only=False):
    argv = [sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--rounds", str(args.rounds), "--trace", str(trace),
            "--out", out_dir]
    if setup_only:
        argv.append("--setup-only")
    env = dict(os.environ, PERFBENCH_SPAWN=repr(time.monotonic()))
    proc = subprocess.run(argv, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def typical_ms(times, keep):
    """Geometric mean over one size class: every operation's relative
    change counts alike, whether it takes 5 ms or 500 ms."""
    values = [t for n, t in times if keep(n)]
    if not values:
        raise RuntimeError("a size class has no operations")
    return statistics.geometric_mean(values) * 1000.0


def end_to_end(result, setup_s):
    """Metrics of one untraced run; every time is scaled by the yardstick
    bursts around it."""
    bursts = result["bursts"]
    times = [(n, t * yardstick.op_scale(bursts, k))
             for n, t, _, k in result["records"]]
    return {
        "ops_per_s": {"value": len(times) / sum(t for _, t in times),
                      "unit": "1/s"},
        "latency_small_ms": {"value": typical_ms(times, lambda n: n <= SMALL_N),
                             "unit": "ms"},
        "latency_large_ms": {"value": typical_ms(times, lambda n: n >= LARGE_N),
                             "unit": "ms"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
    }


def report_problems(result):
    for line in result["failures"]:
        print(f"failed: {line}", file=sys.stderr)
    for line in result["problems"]:
        print(f"check failed: {line}", file=sys.stderr)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(ROUND_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "isotropy", "__init__.py")):
        print("run.py: no src/isotropy here; run from the repository root",
              file=sys.stderr)
        return 2
    args.rounds = max(1, min(3, round(args.seconds / ROUND_S[args.workload])))
    deadline = time.monotonic() + DEADLINE_S
    out_dir = os.path.abspath(os.path.join(
        ".perfbench-out", f"{args.workload}-{args.seed}-t{args.trace}-{os.getpid()}"))
    os.makedirs(out_dir, exist_ok=True)

    try:
        if args.trace:
            plain = spawn_worker(args, os.path.join(out_dir, "plain"), deadline)
            traced = spawn_worker(args, os.path.join(out_dir, "traced"), deadline,
                                  trace=1)
            import spans
            layers = traced["layers"]
            scale = yardstick.scale(traced["bursts"])
            overhead = ((traced["wall_s"] * scale)
                        / (plain["wall_s"] * yardstick.scale(plain["bursts"])))
            metrics = spans.layer_metrics(
                layers["merged"], layers["elements"], overhead,
                layers["start_s"], layers["bytes_in"])
            for metric in metrics.values():
                if metric["unit"] == "s":
                    metric["value"] *= scale
            results = [plain, traced]
        else:
            setups = [spawn_worker(args, os.path.join(out_dir, f"setup{i}"),
                                   deadline, setup_only=True)
                      for i in range(SETUPS - 1)]
            main_run = spawn_worker(args, os.path.join(out_dir, "run"), deadline)
            setups = [s["setup_s"] * yardstick.scale(s["bursts"])
                      for s in setups + [main_run]]
            metrics = end_to_end(main_run, statistics.median(setups))
            results = [main_run]
    finally:
        if not args.trace:
            shutil.rmtree(out_dir, ignore_errors=True)

    for result in results:
        report_problems(result)
    last = results[-1]
    print(f"backend: {last['backend']}, rounds: {args.rounds}, "
          f"timed phase: {last['wall_s']:.2f} s wall, "
          f"yardstick scale {yardstick.scale(last['bursts']):.3f}", file=sys.stderr)
    print(json.dumps({
        "correct": all(r["problem_count"] == 0 for r in results),
        "attempted": last["attempted"],
        "failed": last["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
