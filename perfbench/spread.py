"""Run the benchmark on several seeds and report how steady it is.

    python3 perfbench/spread.py --workload alloc-open --runs 10 \\
        --seconds 12 [--first-seed 1]

For every end-to-end metric, raw and host-speed corrected side by side:
the median and the interquartile distance as a share of the median, the
steadiness measure the bounds in BENCHMARK.json are checked with.  The
per-workload choice in ``run.py``'s ``CORRECTED`` was made from this
comparison.  Runs are sequential, one benchmark process at a time.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

from measure import spread

HERE = os.path.dirname(os.path.abspath(__file__))


def one_run(workload: str, seed: int, seconds: float, trace: int):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=600,
        cwd=os.path.dirname(HERE))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stdout}\n{proc.stderr}")
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    rows = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        detail, result = one_run(args.workload, seed, args.seconds, 0)
        rows.append((detail, result))
        values = {k: round(v["value"], 4)
                  for k, v in result["metrics"].items()}
        print(json.dumps({"seed": seed, "correct": result["correct"],
                          "digest": detail["digest"][:12],
                          "campaigns": detail["campaigns"],
                          **values}), flush=True)
    print(f"{args.workload}: {args.runs} runs, reported"
          f" {rows[0][0]['reported']}")
    for name in rows[0][1]["metrics"]:
        line = f"  {name:12s}"
        for kind in ("raw", "corrected"):
            values = [d[kind][name] for d, _ in rows]
            line += (f"  {kind} median {statistics.median(values):10.4f}"
                     f" spread {spread(values):.4f}")
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
