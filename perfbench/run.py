"""Benchmark of the staged planning flow (screen, plan, scenarios).

    python3 perfbench/run.py --workload {screen,plan,scenarios} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout. The run generates its inputs
from the seed, measures set-up in fresh processes, then drives
bessplan.pipeline.main as one closed-loop client in a fresh process
with BLAS/OpenMP pinned to one thread, checks every request's output
outside the timed region, and prints one "name value unit" line per
metric followed by a JSON result line. --trace 0 reports the
end-to-end metrics; --trace 1 runs a fixed list of requests untraced
and then traced, and reports the per-layer metrics and the tracing
overhead. A result file recording the environment is written under
.perfbench_work/results/. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Thread pools of the numeric libraries, pinned in this process and in
# every process it starts; unpinned, a 2-core machine measures the
# scheduler.
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import gen  # noqa: E402
from layertrace import PER_LAYER  # noqa: E402
SETUP_SAMPLES = 5
# Whole-run budget, s: the run must end well inside 180 s.
DEADLINE_S = 170.0
CHECK_RESERVE_S = 25.0

END_TO_END = {"setup_s": "s", "req_s": "s", "peak_rss_mb": "MB"}


def _git_commit(root):
    """HEAD commit of a git checkout at root, else None."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def _environment(seed, versions):
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "pinned": dict(PINNED),
        "python": versions.get("python"),
        "numpy": versions.get("numpy"),
        "scipy": versions.get("scipy"),
        "git_commit": _git_commit(ROOT),
        "seed": seed,
    }


def _worker_env():
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    return env


def measure_setup(config):
    """Seconds from process start to 'ready' in one fresh process."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
         "--config", config, "--setup-only"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        env=_worker_env(), cwd=ROOT, text=True)
    try:
        line = proc.stdout.readline()
        dt = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError("set-up probe failed")
    return dt


def run_worker(spec, config, seed, work, tag, trace, seconds, requests,
               timeout):
    """Serve requests in a fresh pinned process; returns its record."""
    result = os.path.join(work, f"{tag}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
           "--config", config, "--command", spec["command"],
           "--seed", str(seed), "--seconds", str(seconds),
           "--requests", str(requests), "--trace", str(trace),
           "--outdir", os.path.join(work, tag), "--result", result]
    with open(os.path.join(work, f"{tag}.log"), "w") as log:
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                env=_worker_env(), cwd=ROOT)
        try:
            proc.wait(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RuntimeError(f"{tag} pass exceeded its time budget")
    if proc.returncode != 0 or not os.path.isfile(result):
        raise RuntimeError(f"{tag} worker exited with {proc.returncode}")
    with open(result) as fh:
        return json.load(fh)


def _scenario_overlay(config, seed, outdir):
    """Overlaid profiles the program derives for a request seed.

    Runs the program's own `scenarios` command, which applies the same
    EV overlay as the screening run, so the sweep sees the same demand.
    """
    from bessplan.pipeline import main as bessplan_main
    with contextlib.redirect_stdout(io.StringIO()):
        code = bessplan_main(["scenarios", "--config", config,
                              "--seed", str(seed), "--out", outdir])
    if code != 0:
        raise RuntimeError(f"scenarios command exited with {code}")
    return os.path.join(outdir, "profiles_overlaid.csv")


def check_requests(workload, work, config, requests):
    """Check every request's output; returns {index: [errors]}."""
    with open(config) as fh:
        cfg = json.load(fh)
    feeder = checks.Feeder.from_file(os.path.join(work, "input",
                                                  "feeder.json"))
    base = None
    if workload == "scenarios":
        base = checks.read_profiles(os.path.join(work, "input",
                                                 "profiles.csv"))
    out = {}
    for req in requests:
        code = req["exit_code"]
        if req["error"] is not None or code is None or code >= 2:
            out[req["index"]] = [f"request failed: exit {code} "
                                 f"{(req['error'] or '').strip()[-300:]}"]
            continue
        try:
            if workload == "screen":
                path = _scenario_overlay(config, req["seed"],
                                         req["outdir"] + "-oracle")
                volts = checks.oracle_voltages(feeder, path)
                errs = checks.check_screen(req["outdir"], feeder, volts)
            elif workload == "plan":
                errs = checks.check_plan(req["outdir"], feeder,
                                         cfg["bess"]["e_max_kwh"])
            else:
                sc = cfg["scenarios"]
                errs = checks.check_scenarios(
                    req["outdir"], base, feeder, sc["penetration"],
                    sc.get("growth", 1.0), math.ceil(len(base[0]) / 24))
        except (OSError, ValueError, KeyError, RuntimeError) as exc:
            errs = [f"output unreadable: {exc!r}"]
        out[req["index"]] = errs
    return out


def workload_lines(workload, spec, cfg, requests):
    """The workload's own named metrics, for the human-readable report."""
    busy = sum(r["seconds"] for r in requests)
    lines = []
    if workload == "screen":
        lines.append(("screen_hours_per_s",
                      spec["hours"] * len(requests) / busy, "1/s"))
    elif workload == "plan":
        lines.append(("plan_req_s", busy / len(requests), "s"))
        total = 0.0
        for r in requests:
            try:
                with open(os.path.join(r["outdir"], "summary.json")) as fh:
                    total += json.load(fh)["total_capacity_kwh"]
            except (OSError, ValueError, KeyError):
                pass
        lines.append(("plan_capacity_kwh", total, "kWh"))
    else:
        days = math.ceil(spec["hours"] / 24)
        lines.append(("scenario_days_per_s",
                      cfg["scenarios"]["n"] * days * len(requests) / busy,
                      "1/s"))
    return lines


def measure(args, spec, work):
    """Set up, serve and check one run; returns its result document."""
    start = time.monotonic()
    config = gen.generate(ROOT, args.workload, args.seed,
                          os.path.join(work, "input"))
    with open(config) as fh:
        cfg = json.load(fh)

    setup = [measure_setup(config) for _ in range(SETUP_SAMPLES)]

    def budget():
        return DEADLINE_S - CHECK_RESERVE_S - (time.monotonic() - start)

    if args.trace:
        n = spec["trace_requests"]
        plain = run_worker(spec, config, args.seed, work, "untraced", 0,
                           0, n, budget())
        record = run_worker(spec, config, args.seed, work, "traced", 1,
                            0, n, budget())
        passes = {"untraced": plain, "traced": record}
    else:
        record = run_worker(spec, config, args.seed, work, "timed", 0,
                            args.seconds, 0, budget())
        passes = {"timed": record}

    errors = {}
    for tag, p in passes.items():
        for idx, errs in check_requests(args.workload, work, config,
                                        p["requests"]).items():
            if errs:
                errors[f"{tag}-{idx}"] = errs

    timed = record["requests"]
    if args.trace:
        overhead = (sum(r["seconds"] for r in timed)
                    - sum(r["seconds"] for r in plain["requests"]))
        values = dict(record["layer_metrics"])
        values["trace.overhead_s"] = overhead
        metrics = {m: {"value": values[m], "unit": unit}
                   for m, unit in PER_LAYER.items()}
        extra = []
    else:
        values = {
            "setup_s": statistics.median(setup),
            "req_s": statistics.median(r["seconds"] for r in timed),
            "peak_rss_mb": record["peak_rss_kb"] / 1024.0,
        }
        metrics = {m: {"value": v, "unit": END_TO_END[m]}
                   for m, v in values.items()}
        extra = workload_lines(args.workload, spec, cfg, timed)

    requests = [{"pass": tag, **{k: r[k] for k in
                                   ("index", "seed", "seconds", "exit_code")}}
                for tag, p in passes.items() for r in p["requests"]]
    doc = {
        "workload": args.workload,
        "why": spec["why"],
        "settings": spec["config"],
        "trace": args.trace,
        "environment": _environment(args.seed, record["versions"]),
        "setup_samples_s": setup,
        "requests": requests,
        "check_errors": errors,
        "metrics": metrics,
        "workload_metrics": {m: {"value": v, "unit": u}
                             for m, v, u in extra},
    }
    if args.trace:
        doc["spans"] = record["spans"]
    return doc


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(gen.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    if not os.path.isfile(os.path.join(ROOT, "src", "bessplan",
                                       "pipeline.py")):
        print(f"no program sources under {ROOT}/src", file=sys.stderr)
        return 2
    spec = gen.WORKLOADS[args.workload]
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    base_dir = os.path.join(ROOT, ".perfbench_work")
    work = os.path.join(base_dir, name)
    results = os.path.join(base_dir, "results")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(results, exist_ok=True)
    try:
        doc = measure(args, spec, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    spans = doc.pop("spans", None)
    with open(os.path.join(results, f"{name}.json"), "w") as fh:
        json.dump(doc, fh, indent=1)
    if spans is not None:
        with open(os.path.join(results, f"{name}-spans.json"), "w") as fh:
            json.dump(spans, fh)

    errors, metrics = doc["check_errors"], doc["metrics"]
    failed, attempted = len(errors), len(doc["requests"])
    for key, errs in sorted(errors.items()):
        print(f"check failed (request {key}): {errs[0]}", file=sys.stderr)
    lines = [(m, v["value"], v["unit"]) for m, v in metrics.items()]
    lines += [(m, v["value"], v["unit"])
              for m, v in doc["workload_metrics"].items()]
    if not args.trace:
        lines.append(("fail_ratio", failed / attempted, "ratio"))
    for metric, value, unit in lines:
        print(f"{metric} {value:.6g} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
