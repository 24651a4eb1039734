"""Compare this tree's benchmark metrics with another checkout's.

Runs `perfbench/run.py --workload W --seed N --seconds 25 --trace 0` in
OTHER_CHECKOUT (the parent) and in this tree (the change), in --pairs
alternating pairs; the side that runs first swaps from pair to pair.
Prints each run's `correct`, `attempted` and `failed` and its end-to-end
metrics as BENCHMARK.json declares them. Then, per metric: each side's
median and quartiles, in how many pairs the change did better (ties
count for neither side), and whether every change run did better than
every parent run. Exits 1 if a run was not correct or failed a request,
else 0.

    python tools/ab_pairs.py OTHER_CHECKOUT --workload W [--pairs 10] [--seed 1]

Each run writes under its own checkout's .perfbench_work/.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SECONDS = "25"


def end_to_end():
    """(name, better) of each end-to-end metric in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return [(m["name"], m["better"]) for m in json.load(fh)["end_to_end"]]


def bench(root, workload, seed):
    """The JSON result line of one untraced perfbench run in root, or
    None if the run printed none."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", SECONDS, "--trace", "0"],
        cwd=root, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        sys.stderr.write(proc.stderr)
        return None
    return json.loads(lines[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("other", metavar="OTHER_CHECKOUT")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    metrics = end_to_end()
    sides = {"parent": os.path.abspath(args.other), "change": ROOT}
    values = {side: {m: [] for m, _ in metrics} for side in sides}
    ok = True
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            res = bench(sides[side], args.workload, args.seed)
            if res is None:
                print(f"pair {pair + 1} {side}: no result", flush=True)
                ok = False
                for m, _ in metrics:
                    values[side][m].append(float("nan"))
                continue
            ok &= res["correct"] and res["failed"] == 0
            cells = []
            for m, _ in metrics:
                values[side][m].append(res["metrics"][m]["value"])
                cells.append(f"{m}={res['metrics'][m]['value']:.4g}")
            print(f"pair {pair + 1} {side}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']} "
                  + " ".join(cells), flush=True)
    print(f"# {args.workload}, seed {args.seed}, {args.pairs} pairs")
    for m, better in metrics:
        sign = 1.0 if better == "lower" else -1.0
        parent = np.array(values["parent"][m])
        change = np.array(values["change"][m])
        wins = int(np.sum(sign * change < sign * parent))
        every = bool(np.max(sign * change) < np.min(sign * parent))
        q = {side: np.percentile(values[side][m], [25, 50, 75])
             for side in sides}
        print(f"{m} ({better} is better): parent median {q['parent'][1]:.4g} "
              f"[{q['parent'][0]:.4g}, {q['parent'][2]:.4g}], change median "
              f"{q['change'][1]:.4g} [{q['change'][0]:.4g}, "
              f"{q['change'][2]:.4g}]; change better in {wins} of "
              f"{args.pairs} pairs; every change run better: "
              f"{'yes' if every else 'no'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
