"""List every function in src/bessplan that the benchmark flows never run.

Generates the seed-1 inputs of the three perfbench workloads with
perfbench/gen.py (`screen` 48 h, `plan` 24 h, `scenarios` 720 h), runs
bessplan.pipeline.main on each for request seeds 1000 and 1001 under
sys.setprofile and threading.setprofile, and records the code object of
every Python call. It then walks each module's syntax tree and prints
every `def`, nested ones included, whose code never ran, as
`file:line qualified.name`. A decorated `def` starts at its first
decorator, as its code object does. Inputs and reports go to a
temporary directory that is removed afterwards.

    python tools/reach_trace.py [--root REPO]
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import os
import sys
import tempfile
import threading

# (workload, horizon hours or None for the workload's own, command)
RUNS = (("screen", None, "stat"), ("plan", None, "run"),
        ("scenarios", 720, "scenarios"))
REQUESTS = (1000, 1001)


def defs(path):
    """(first line, qualified name) of every def in one module."""
    out = []

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] +
                            [d.lineno for d in child.decorator_list])
                name = prefix + child.name
                out.append((first, name))
                walk(child, name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, prefix + child.name + ".")
            else:
                walk(child, prefix)

    with open(path) as fh:
        walk(ast.parse(fh.read(), path), "")
    return out


def run_flows(root, work):
    """Exit codes of the flows; returns the (file, line) of each call."""
    sys.path[:0] = [os.path.join(root, "src"),
                    os.path.join(root, "perfbench")]
    import gen
    from bessplan import pipeline

    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            seen.add((code.co_filename, code.co_firstlineno))

    codes = {}
    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        for workload, hours, command in RUNS:
            inputs = os.path.join(work, workload)
            config = gen.generate(root, workload, 1, inputs, hours=hours)
            for seed in REQUESTS:
                out = os.path.join(inputs, f"req{seed}")
                with contextlib.redirect_stdout(io.StringIO()):
                    codes[workload, seed] = pipeline.main(
                        [command, "--config", config, "--seed", str(seed),
                         "--out", out])
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    return codes, seen


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))),
        help="repository root (default: the one holding this script)")
    args = ap.parse_args(argv)
    root = os.path.abspath(args.root)
    package = os.path.join(root, "src", "bessplan")
    with tempfile.TemporaryDirectory() as work:
        codes, seen = run_flows(root, work)
    for (workload, seed), code in codes.items():
        print(f"# {workload} request {seed}: exit {code}")
    ran = {(os.path.realpath(f), line) for f, line in seen}
    never = []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(package, name)
        real = os.path.realpath(path)
        never.extend(f"{name}:{line} {qual}" for line, qual in defs(path)
                     if (real, line) not in ran)
    print(f"# {len(never)} defs never ran")
    print("\n".join(never))
    return 0


if __name__ == "__main__":
    sys.exit(main())
