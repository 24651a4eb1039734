"""Check that this tree writes the same report bytes as another checkout.

Generates the seed-1 inputs of the three perfbench workloads once with
perfbench/gen.py (`plan` 24 h, `screen` 48 h, `scenarios` 720 h), then
runs bessplan.pipeline.main from each tree on them in child processes
pinned to one BLAS thread: `run` on `plan` for requests 1000-1003, `stat`
on `screen` and `scenarios` on `scenarios` for requests 1000-1001. Prints
one line per run and every report file that differs, or that only one
tree wrote, and exits 1 if any does or an exit code differs, else 0.
For each file both trees wrote, it says how far the reports moved: the
largest absolute difference over numeric cells (CSV cells, or the
leaves of a JSON report), and how many rows or non-numeric cells
differ.
Inputs and reports go to a temporary directory that is removed
afterwards.

    python tools/same_reports.py OTHER_CHECKOUT
"""

from __future__ import annotations

import argparse
import csv
import filecmp
import json
import math
import os
import subprocess
import sys
import tempfile

# (workload, horizon hours or None for the workload's own, command,
#  request seeds)
RUNS = (("plan", None, "run", (1000, 1001, 1002, 1003)),
        ("screen", None, "stat", (1000, 1001)),
        ("scenarios", 720, "scenarios", (1000, 1001)))
ONE_THREAD = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                     "MKL_NUM_THREADS")}
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHILD = ("import sys; from bessplan.pipeline import main; "
         "sys.exit(main(sys.argv[1:]))")


def run_tree(root, argv):
    """Exit code of bessplan.pipeline.main(argv) imported from root/src."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
               PYTHONDONTWRITEBYTECODE="1", **ONE_THREAD)
    return subprocess.run([sys.executable, "-c", CHILD, *argv], env=env,
                          stdout=subprocess.DEVNULL).returncode


def differing(a, b):
    """Relative paths of files under a or b that are not byte-identical."""
    names = set()
    for top in (a, b):
        for parent, _, files in os.walk(top):
            names.update(os.path.relpath(os.path.join(parent, f), top)
                         for f in files)
    return sorted(n for n in names
                  if not (os.path.isfile(os.path.join(a, n)) and
                          os.path.isfile(os.path.join(b, n)) and
                          filecmp.cmp(os.path.join(a, n), os.path.join(b, n),
                                      shallow=False)))


def rows(path):
    """A report's cells: CSV rows, or one [key path, value] row per leaf
    of a JSON document."""
    with open(path, newline="") as fh:
        if not path.endswith(".json"):
            return list(csv.reader(fh))
        out = []

        def walk(doc, key):
            if isinstance(doc, (dict, list)):
                items = doc.items() if isinstance(doc, dict) \
                    else enumerate(doc)
                for k, v in items:
                    walk(v, f"{key}/{k}")
            else:
                out.append([key, json.dumps(doc)])

        walk(json.load(fh), "")
        return out


def number(cell):
    """The cell as a float, or None if it is not a number."""
    try:
        return float(cell)
    except ValueError:
        return None


def moved(a, b):
    """How far report b is from report a, as one line of text."""
    ra, rb = rows(a), rows(b)
    worst, labels = 0.0, 0
    for x, y in zip(ra, rb):
        labels += abs(len(x) - len(y))
        for u, v in zip(x, y):
            if u == v:
                continue
            fu, fv = number(u), number(v)
            if fu is None or fv is None:
                labels += 1
            else:
                d = abs(fu - fv)
                worst = max(worst, math.inf if math.isnan(d) else d)
    text = f"max |diff| {worst:.3g}"
    if len(ra) != len(rb):
        text += f", {len(ra)}/{len(rb)} rows"
    if labels:
        text += f", {labels} non-numeric cells differ"
    return text


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("other", help="checkout to compare against")
    args = ap.parse_args(argv)
    trees = {"this": ROOT,
             "other": os.path.abspath(args.other)}
    sys.path.insert(0, os.path.join(trees["this"], "perfbench"))
    import gen

    bad = 0
    with tempfile.TemporaryDirectory() as work:
        for workload, hours, command, seeds in RUNS:
            config = gen.generate(trees["this"], workload, 1,
                                  os.path.join(work, workload), hours=hours)
            for seed in seeds:
                out = {}
                codes = []
                for tree, root in trees.items():
                    out[tree] = os.path.join(work, tree, f"{workload}-{seed}")
                    codes.append(run_tree(root, [
                        command, "--config", config, "--seed", str(seed),
                        "--out", out[tree]]))
                diff = differing(out["this"], out["other"])
                same = not diff and codes[0] == codes[1]
                bad += not same
                n = len(os.listdir(out["this"])) \
                    if os.path.isdir(out["this"]) else 0
                print(f"{workload} {command} request {seed}: exit "
                      f"{codes[0]}/{codes[1]}, {n} files, "
                      f"{'identical' if same else 'DIFFERENT'}")
                for name in diff:
                    a, b = (os.path.join(out[t], name) for t in out)
                    if os.path.isfile(a) and os.path.isfile(b):
                        print(f"  differs: {name}: {moved(a, b)}")
                    else:
                        print(f"  differs: {name}: written by one tree only")
    print(f"# {bad} of {sum(len(r[3]) for r in RUNS)} runs differ")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
