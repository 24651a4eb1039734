"""Tests of the benchmark itself, at a tiny size.

They drive the same code as a benchmark run (input generator, pinned
worker process, tracer, output checks) on a few hours, one small plan
and a few chargers, show that the sweep oracle agrees with the
program's screening solves, and that corrupted outputs fail their
checks.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import csv
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import gen  # noqa: E402
import layertrace  # noqa: E402
import run  # noqa: E402

SEED = 3


def serve(tmp_path, workload, hours, overrides, requests=1, trace=0,
          tag="t"):
    """Generate tiny inputs and serve requests in a pinned worker."""
    config = gen.generate(ROOT, workload, SEED, str(tmp_path / "input"),
                          hours=hours, overrides=overrides)
    record = run.run_worker(gen.WORKLOADS[workload], config, SEED,
                            str(tmp_path), tag, trace, 0, requests, 170)
    return config, record


def rewrite_csv(path, edit):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def corrupted(outdir, tmp_path):
    bad = str(tmp_path / "corrupted")
    shutil.copytree(outdir, bad)
    return bad


# --- sweep oracle -----------------------------------------------------------

FEEDER6 = {
    "name": "feeder6",
    "bases": {"s_mva": 1.0, "v_kv": 11.0},
    "limits": {"v_lower_pu": 0.95, "v_upper_pu": 1.05},
    "buses": [{"id": 1, "kind": "slack", "p_base_kw": 0.0,
               "q_base_kvar": 0.0}]
    + [{"id": b, "kind": "pq", "p_base_kw": 0.0, "q_base_kvar": 0.0}
       for b in range(2, 7)],
    "branches": [
        {"from": 1, "to": 2, "r_pu": 0.012, "x_pu": 0.008},
        {"from": 2, "to": 3, "r_pu": 0.018, "x_pu": 0.011},
        {"from": 3, "to": 4, "r_pu": 0.022, "x_pu": 0.013},
        {"from": 2, "to": 5, "r_pu": 0.016, "x_pu": 0.010},
        {"from": 6, "to": 5, "r_pu": 0.020, "x_pu": 0.012},
    ],
}


def test_sweep_oracle_agrees_with_run_vva():
    from bessplan.netmodel import LoadProfileSet, load_network
    from bessplan.vva import run_vva
    net = load_network(FEEDER6)
    feeder = checks.Feeder(FEEDER6)
    rng = np.random.default_rng(0)
    ids = list(range(2, 7))
    p = rng.uniform(100.0, 400.0, size=(3, 5))
    q = 0.5 * p
    horizon = np.datetime64("2025-01-01T00", "h") + np.arange(3)
    sol = run_vva(net, LoadProfileSet(horizon, ids, p, q))
    for t in range(3):
        pk = np.concatenate([[0.0], p[t]])
        qk = np.concatenate([[0.0], q[t]])
        ref = checks.sweep_power_flow(feeder, pk, qk, hour=t)
        assert ref.min() < 0.99
        assert np.max(np.abs(np.sqrt(sol.v_sq[:, t]) - ref)) < \
            checks.VOLTAGE_TOL / 10


def test_sweep_is_flat_at_zero_load():
    feeder = checks.Feeder(FEEDER6)
    volts = checks.sweep_power_flow(feeder, [0.0] * 6, [0.0] * 6)
    assert np.allclose(volts, 1.0)


# --- workloads at a tiny size -----------------------------------------------

def test_screen_outputs_pass_and_corruption_fails(tmp_path):
    config, rec = serve(tmp_path, "screen", 20,
                        {"scenarios": {"n": 5}})
    reqs = rec["requests"]
    assert [r["exit_code"] for r in reqs] == [0]
    assert run.check_requests("screen", str(tmp_path), config, reqs) == \
        {0: []}
    outdir = reqs[0]["outdir"]
    feeder = checks.Feeder.from_file(str(tmp_path / "input" /
                                         "feeder.json"))
    volts = checks.oracle_voltages(feeder, outdir + "-oracle/"
                                   "profiles_overlaid.csv")

    bad = corrupted(outdir, tmp_path)

    def nudge(rows):
        rows[1][3] = repr(float(rows[1][3]) + 1e-4)
    rewrite_csv(os.path.join(bad, "violations.csv"), nudge)
    assert any("sweep" in e for e in checks.check_screen(bad, feeder, volts))

    shutil.rmtree(bad)
    bad = corrupted(outdir, tmp_path)
    rewrite_csv(os.path.join(bad, "violations.csv"), lambda rows: rows.pop())
    errors = checks.check_screen(bad, feeder, volts)
    assert any("missing" in e for e in errors)


def test_plan_outputs_pass_and_corruption_fails(tmp_path):
    config, rec = serve(tmp_path, "plan", 24, {})
    reqs = rec["requests"]
    assert reqs[0]["exit_code"] in (0, 1)
    assert run.check_requests("plan", str(tmp_path), config, reqs) == \
        {0: []}
    feeder = checks.Feeder.from_file(str(tmp_path / "input" /
                                         "feeder.json"))
    bad = corrupted(reqs[0]["outdir"], tmp_path)

    def oversize(rows):
        rows[1][2] = "1000.5"
    rewrite_csv(os.path.join(bad, "plan.csv"), oversize)
    assert any("outside" in e for e in checks.check_plan(bad, feeder, 1000.0))

    with open(os.path.join(bad, "summary.json")) as fh:
        doc = json.load(fh)
    doc["status"] = "stopped:plan"
    with open(os.path.join(bad, "summary.json"), "w") as fh:
        json.dump(doc, fh)
    assert any("status" in e for e in checks.check_plan(bad, feeder, 1000.0))


def test_scenarios_outputs_pass_and_corruption_fails(tmp_path):
    config, rec = serve(tmp_path, "scenarios", 72,
                        {"scenarios": {"n": 4, "penetration": 0.2}})
    reqs = rec["requests"]
    assert [r["exit_code"] for r in reqs] == [0]
    assert run.check_requests("scenarios", str(tmp_path), config, reqs) == \
        {0: []}
    feeder = checks.Feeder.from_file(str(tmp_path / "input" /
                                         "feeder.json"))
    base = checks.read_profiles(str(tmp_path / "input" / "profiles.csv"))
    outdir = reqs[0]["outdir"]

    bad = corrupted(outdir, tmp_path)

    def bump(rows):
        rows[5][2] = repr(float(rows[5][2]) + 0.5)
    rewrite_csv(os.path.join(bad, "profiles_overlaid.csv"), bump)
    errors = checks.check_scenarios(bad, base, feeder, 0.2, 1.0, 3)
    assert errors

    shutil.rmtree(bad)
    bad = corrupted(outdir, tmp_path)
    path = os.path.join(bad, "scenarios.csv")
    with open(path) as fh:
        lines = fh.readlines()
    lines[2] = lines[2].rsplit(",", 1)[0] + ",-1.0\n"
    with open(path, "w") as fh:
        fh.writelines(lines)
    errors = checks.check_scenarios(bad, base, feeder, 0.2, 1.0, 3)
    assert "negative scenario kW" in errors


def test_sessions_split_back_to_back_and_catch_overlap():
    row = np.zeros(48)
    row[2:5] = 6.0
    row[5] = 2.5            # partial final hour
    row[6:8] = 4.0          # next session starts the following hour
    assert [(s, n) for s, n, _ in checks.sessions(row)] == [(2, 4), (6, 2)]
    one_day = np.zeros(24)
    one_day[3:6] = 5.0
    one_day[4:6] += 3.0     # a second session overlapping the first
    assert len(checks.sessions(one_day)) > 1


# --- tracing ----------------------------------------------------------------

def test_traced_counts_repeat_for_one_seed(tmp_path):
    counts = []
    for tag in ("a", "b"):
        _, rec = serve(tmp_path / tag, "screen", 20, {"scenarios": {"n": 5}},
                       trace=1)
        m = rec["layer_metrics"]
        counts.append({k: m[k] for k in ("ipm.calls", "ipm.iters",
                                         "vva.hours", "stat.sens_solves",
                                         "scenarios.events",
                                         "conic.relax_calls")})
        assert m["vva.hours"] > 20
        assert m["ipm.dense_calls"] == m["ipm.calls"] > 0
        assert set(m) == set(layertrace.PER_LAYER)
        names = {s["name"] for s in rec["spans"]}
        assert {"pipeline.request", "vva.run", "conic.relax",
                "ipm.conelp", "stat.sens"} <= names
    assert counts[0] == counts[1]


def test_install_and_uninstall_restore_the_program():
    import bessplan._ipm as ipm
    from bessplan.netmodel import LoadProfileSet
    before = (ipm.conelp, LoadProfileSet.__dict__["from_csv"])
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        assert ipm.conelp is not before[0]
        assert isinstance(LoadProfileSet.__dict__["from_csv"], classmethod)
    finally:
        tracer.uninstall()
    assert (ipm.conelp, LoadProfileSet.__dict__["from_csv"]) == before


def test_self_time_subtracts_the_union_of_children():
    tr = layertrace.Tracer()
    tr.spans = [["pipeline.request", 0.0, 10.0, None, 0],
                ["conic.relax", 1.0, 4.0, 0, 0],
                ["conic.relax", 3.0, 6.0, 0, 0],   # overlaps its sibling
                ["ipm.conelp", 1.5, 3.5, 1, 0]]
    st = tr.self_times()
    assert st["pipeline"] == pytest.approx(5.0)
    assert st["conic"] == pytest.approx(1.0 + 3.0)
    assert st["ipm"] == pytest.approx(2.0)


# --- the command without sources -------------------------------------------

def test_run_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "plan", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
