"""Command-line tests of the pipeline subcommands.

`scenarios` runs on a small IEEE-33 input (48 h of noisy base load).
It must exit 0, be byte-stable for a fixed --seed, write the same
bytes a csv.writer with repr float cells would (the oracle is inlined
below), and exit 2 on a missing input file.

`vva`, `stat`, `plan`, `validate`, `economics` and `run` run on a 5-bus
line feeder over one day whose evening peak undervolts the far end.
Each command must exit 0 with its status in summary.json, and write the
same report bytes twice for one --seed, the second time on two threads.
A passing plan's validated voltages lie within the limits up to
VALIDATION_TOL. An unknown config key or a mistyped value exits 2, and
an error while writing the reports, outside any stage, exits 2 or 3 by
its type, never 1. Each report table has one header: scored_days.csv
keeps its ten columns when no day was scored. A storage cap far below
what the peak needs, or a node limit that stops sizing with a minimum
unit size before any integer solution, exits 3 from the plan stage; the
first names the hours no capacity can fix after a one-node sizing
solve. Without a minimum unit size sizing has no binary, so a one-node
limit still yields a passing plan. Every command that sized a plan
writes its final gap to summary.json as plan_gap, and every one that
validated it the number of days its own schedule certified as
certified_days. A plan sized on a short sag that fails validation on a
longer one exits 1 when the round cap stops it; without the cap,
backtracking monitors the longer sag, although it scores 0, and passes.
Round r sizes on the r + 1 best-ranked windows, and rounds that monitor
every ranked window without a pass end on the exhausted-list note. A
`stat` k_max of 1 puts every candidate in one cluster, and a k_max of
0 exits 2 naming the key.
A horizon that starts at 06:00 certifies its sized calendar day, and a
seven-day window over three violating days of a ten-day horizon is
sized and passes. A run fed the distributions the `scenarios` command
wrote writes the reports of a run that fits them itself, and the
"year" economics scope prices the whole horizon, not the window. The
sizing root of a storage cap far below the need reads `stalled`: its
interior point stops early, not at the iteration limit, and reports
the iterations it ran: one fewer than its KKT factorizations.
"""

import csv
import io
import json
import math
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest

from bessplan import _ipm, oep, pipeline
from bessplan.netmodel import LoadProfileSet, load_network
from bessplan.oep import VALIDATION_TOL, BessPlan
from bessplan.pipeline import (_overlaid_profiles, load_config, main,
                               read_tariff)
from bessplan.scenarios import (generate_annual, overlay_penetration,
                                read_distributions)
from bessplan.stat import (NodeFeatures, daily_metrics, diversity_filter,
                           normalize_and_score, rank_windows)
from bessplan.vva import ViolationRecord
from helpers_power import feeder4

FILES = ("scenarios.csv", "distributions.json", "profiles_overlaid.csv")
HOURS = 48
SCEN = {"n": 6, "daily_prob": 0.9, "penetration": 0.5, "growth": 1.1}


def csv_bytes(header, rows):
    """What csv.writer writes for these rows, floats as repr."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else v
                         for v in row])
    return buf.getvalue().encode()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    doc = json.loads(resources.files("bessplan.data")
                     .joinpath("ieee33.json").read_text())
    (root / "feeder.json").write_text(json.dumps(doc))
    net = load_network(doc)
    ids = [b for i, b in enumerate(net.ids) if i != net.slack]
    rng = np.random.default_rng(4)
    cols = [net.idx[b] for b in ids]
    factor = rng.uniform(0.5, 1.0, (HOURS, len(ids)))
    horizon = np.datetime64("2025-01-01T00", "h") + np.arange(HOURS)
    LoadProfileSet(horizon, ids, net.p_base_kw[cols] * factor,
                   net.q_base_kvar[cols] * factor).to_csv(
        root / "profiles.csv")
    (root / "tariff.txt").write_text("\n".join(["0.1"] * 24) + "\n")
    config = {"network": "feeder.json", "profiles": "profiles.csv",
              "tariff": "tariff.txt", "outdir": "out", "scenarios": SCEN}
    path = root / "config.json"
    path.write_text(json.dumps(config))
    return root


def run_scenarios(inputs, out, seed=7, config="config.json"):
    return main(["scenarios", "--config", str(inputs / config),
                 "--out", str(out), "--seed", str(seed)])


def test_exit_zero_and_byte_stable(inputs, tmp_path):
    assert run_scenarios(inputs, tmp_path / "a") == 0
    assert run_scenarios(inputs, tmp_path / "b") == 0
    for name in FILES:
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes(), name


def test_files_match_csv_writer_oracle(inputs, tmp_path):
    out = tmp_path / "out"
    assert run_scenarios(inputs, out, seed=11) == 0
    # rebuild what the run wrote from its own inputs and snapshot
    net = load_network(str(inputs / "feeder.json"))
    base = LoadProfileSet.from_csv(inputs / "profiles.csv")
    dist = read_distributions(out / "distributions.json")
    scen = generate_annual(dist, SCEN["n"], SCEN["daily_prob"], seed=11,
                           days=math.ceil(HOURS / 24))
    over = overlay_penetration(net, base, scen, SCEN["penetration"],
                               SCEN["growth"], 11)
    assert np.any(scen.series > 0)

    want = csv_bytes(["timestamp", "bus_id", "p_kw", "q_kvar"],
                     [[str(over.horizon[k]), b, float(over.p_kw[k, j]),
                       float(over.q_kvar[k, j])]
                      for k in range(over.n_hours)
                      for j, b in enumerate(over.bus_ids)])
    assert (out / "profiles_overlaid.csv").read_bytes() == want

    meta = (f"# seed=11 daily_prob={SCEN['daily_prob']!r} "
            f"n={scen.n} hours={scen.n_hours}\n").encode()
    want = meta + csv_bytes(
        ["scenario", "day", "hour", "kw"],
        [[k, int(t) // 24, int(t) % 24, float(scen.series[k, t])]
         for k in range(scen.n) for t in np.nonzero(scen.series[k])[0]])
    assert (out / "scenarios.csv").read_bytes() == want


def test_missing_profiles_exit_two(inputs, tmp_path, capsys):
    doc = json.loads((inputs / "config.json").read_text())
    doc["profiles"] = "no_such_profiles.csv"
    (inputs / "missing.json").write_text(json.dumps(doc))
    assert run_scenarios(inputs, tmp_path / "out",
                         config="missing.json") == 2
    assert "profiles file not found" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# -- the solver subcommands on a small feeder --------------------------

STATUS = {"vva": "stopped:vva", "stat": "stopped:stat",
          "plan": "stopped:plan", "validate": "pass", "economics": "pass",
          "run": "pass"}
LINE_BUSES = (2, 3, 4, 5)


LINE_FEEDER = {
    "name": "line5", "bases": {"s_mva": 1.0, "v_kv": 11.0},
    "limits": {"v_lower_pu": 0.95, "v_upper_pu": 1.05},
    "buses": [{"id": 1, "kind": "slack", "p_base_kw": 0.0,
               "q_base_kvar": 0.0}] +
             [{"id": b, "kind": "load", "p_base_kw": 200.0,
               "q_base_kvar": 90.0} for b in LINE_BUSES],
    "branches": [{"from": b - 1, "to": b, "r_pu": 0.02, "x_pu": 0.012}
                 for b in LINE_BUSES]}


def write_line_inputs(root, shape, config, start="2025-01-01T00"):
    """Line feeder, profiles of base load x shape (per hour) from start,
    a tariff and config.json; returns the config path."""
    (root / "feeder.json").write_text(json.dumps(LINE_FEEDER))
    factor = np.repeat(np.asarray(shape)[:, None], len(LINE_BUSES), axis=1)
    horizon = np.datetime64(start, "h") + np.arange(len(shape))
    LoadProfileSet(horizon, list(LINE_BUSES), 200.0 * factor,
                   90.0 * factor).to_csv(root / "profiles.csv")
    (root / "tariff.txt").write_text(
        "\n".join(["0.1"] * 17 + ["0.3"] * 4 + ["0.1"] * 3) + "\n")
    config = {"network": "feeder.json", "profiles": "profiles.csv",
              "tariff": "tariff.txt", "outdir": "out", **config}
    (root / "config.json").write_text(json.dumps(config))
    return root / "config.json"


@pytest.fixture(scope="module")
def line_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("line")
    # half load except a full-load peak at 17:00-19:00
    shape = np.where((np.arange(24) >= 17) & (np.arange(24) < 20), 1.0, 0.5)
    write_line_inputs(root, shape, {
        "scenarios": {"n": 4, "daily_prob": 0.9, "penetration": 0.5},
        "stat": {"window_days": 1}})
    return root


@pytest.fixture(scope="module")
def line_runs(line_inputs):
    """{(command, run): (exit code, outdir)}; run "b" uses two threads."""
    runs = {}
    for cmd in STATUS:
        for tag, extra in (("a", []), ("b", ["--threads", "2"])):
            out = line_inputs / cmd / tag
            rc = main([cmd, "--config", str(line_inputs / "config.json"),
                       "--out", str(out), "--seed", "3", *extra])
            runs[cmd, tag] = (rc, out)
    return runs


@pytest.mark.parametrize("cmd", sorted(STATUS))
def test_command_exits_zero_with_its_status(line_runs, cmd):
    for tag in "ab":
        rc, out = line_runs[cmd, tag]
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == STATUS[cmd]
        assert summary["violations"] > 0
        # only the commands that price the plan write economics rows
        rows = (out / "economics.csv").read_text().splitlines()[1:]
        assert bool(rows) == (cmd in ("economics", "run"))
        # every command that sized a plan reports its final gap, and
        # every one that validated it the days its schedule certified
        assert ("plan_gap" in summary) == (cmd not in ("vva", "stat"))
        assert ("certified_days" in summary) == \
            (cmd in ("validate", "economics", "run"))
        if cmd == "run":
            assert 0.0 <= summary["plan_gap"] < math.inf
            assert summary["certified_days"] == 1
        if STATUS[cmd] == "pass":
            with open(out / "voltage_summary.csv", newline="") as fh:
                after = [r for r in csv.DictReader(fh)
                         if r["phase"] == "after"]
            assert len(after) == len(LINE_BUSES) + 1
            for row in after:
                assert float(row["min"]) >= 0.95 - VALIDATION_TOL
                assert float(row["max"]) <= 1.05 + VALIDATION_TOL


@pytest.mark.parametrize("cmd", sorted(STATUS))
def test_reports_byte_stable_for_one_seed(line_runs, cmd):
    a, b = line_runs[cmd, "a"][1], line_runs[cmd, "b"][1]
    names = sorted(p.name for p in a.iterdir())
    assert "summary.json" in names
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_economics_cells_are_plain_floats(line_runs):
    with open(line_runs["run", "a"][1] / "economics.csv", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header[0] == "label" and rows
    for row in rows:
        for cell in row[1:]:
            float(cell)


@pytest.mark.parametrize("key, value, message", [
    ("bogus", 1, "unknown config keys: ['bogus']"),
    ("solver", {"big_m": "capacity"}, "unknown keys in 'solver'"),
    ("solver", {"time_limit": 60.0}, "unknown keys in 'solver'"),
    ("threads", "2", "[config] threads must be an integer >= 1"),
    ("threads", 1.5, "[config] threads must be an integer >= 1"),
    ("backtrack_cap", "3", "[config] backtrack_cap must be an integer >= 1"),
    ("outdir", 5, "[config] 'outdir' must be a path string"),
    ("distributions", 3, "[config] 'distributions' must be a path string"),
])
def test_unknown_config_key_exits_two(line_inputs, tmp_path, capsys, key,
                                      value, message):
    doc = json.loads((line_inputs / "config.json").read_text())
    doc[key] = value
    path = line_inputs / "unknown.json"
    path.write_text(json.dumps(doc))
    assert main(["stat", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("exc, code", [
    (KeyError("no such column"), 2), (OSError("disk full"), 2),
    (ZeroDivisionError("division by zero"), 3), (AttributeError("x"), 3)])
def test_error_outside_a_stage_is_classified(line_inputs, tmp_path, capsys,
                                             monkeypatch, exc, code):
    # writing the reports is the one step main runs outside a stage
    def failing(report, outdir):
        raise exc

    monkeypatch.setattr(pipeline, "emit_reports", failing)
    assert main(["vva", "--config", str(line_inputs / "config.json"),
                 "--out", str(tmp_path / "out")]) == code
    assert capsys.readouterr().err.startswith(f"[output] {exc}")


SCORED_DAYS = ["date", "count", "total_sev", "max_sev", "duration", "score",
               "norm_count", "norm_total_sev", "norm_max_sev",
               "norm_duration"]


def test_report_tables_are_written_from_the_domain_objects(tmp_path):
    days = normalize_and_score(daily_metrics([
        ViolationRecord(5, 20, np.datetime64("2030-01-01T20"), 0.93, 0.02,
                        "under"),
        ViolationRecord(5, 45, np.datetime64("2030-01-02T21"), 0.91, 0.04,
                        "under")]))
    wins = rank_windows(days, 1)
    f = NodeFeatures(3, 0.0, 0.0, 0)
    f.m_comb = 1.0
    cset = diversity_filter([f], feeder4(), threshold=0.1, target=1)
    pipeline.emit_reports(pipeline.PvmReport(
        "stopped:stat", {}, scored_days=tuple(days), windows=tuple(wins),
        windows_used=tuple(wins[:1]), candidates=cset), tmp_path)

    def table(name):
        with open(tmp_path / name, newline="") as fh:
            return list(csv.DictReader(fh))

    rows = table("scored_days.csv")
    assert len(rows) == 2 and list(rows[0]) == SCORED_DAYS
    assert [r["date"] for r in rows] == ["2030-01-01", "2030-01-02"]
    assert rows[1]["norm_max_sev"] == "1.0" and rows[1]["score"] == "0.5"
    rows = table("windows.csv")
    assert (rows[0]["rank"], rows[0]["start"], rows[0]["used"]) == \
        ("1", "2030-01-02", "True")
    assert [r["used"] for r in rows[1:]] == ["False"] * (len(rows) - 1)
    (row,) = table("candidates.csv")
    assert (row["bus"], row["accepted"], row["reason"]) == ("3", "True", "ok")


def test_empty_scored_days_keep_their_columns(line_runs, tmp_path):
    # a run that stops before scoring, or needs no investment, writes
    # the header of a scored run
    pipeline.emit_reports(pipeline.PvmReport("no-investment", {}), tmp_path)
    for out in (tmp_path, line_runs["vva", "a"][1], line_runs["run", "a"][1]):
        with open(out / "scored_days.csv", newline="") as fh:
            assert next(csv.reader(fh)) == SCORED_DAYS


def test_k_max_one_is_one_cluster_and_zero_exits_two(tmp_path, capsys):
    # a 1.4x evening peak undervolts three or more buses, so K = 2..k_max
    # is empty only because of k_max
    shape = np.where((np.arange(24) >= 17) & (np.arange(24) < 20), 1.4, 0.5)
    for k_max, code in ((1, 0), (0, 2)):
        config = write_line_inputs(tmp_path, shape, {
            "scenarios": {"daily_prob": 0.0, "penetration": 0.0},
            "stat": {"window_days": 1, "k_max": k_max}})
        assert main(["stat", "--config", str(config),
                     "--out", str(tmp_path / f"out{k_max}")]) == code
    with open(tmp_path / "out1" / "candidates.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) >= 3 and {r["cluster"] for r in rows} == {"0"}
    assert "[config] 'stat': k_max must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "out0").exists()


def sizing_solves(monkeypatch):
    """(status, node count) of the sizing solves of the runs that
    follow."""
    real = oep.solve_misocp
    solves = []

    def spy(prog, cfg=None, trace=None):
        res = real(prog, cfg, trace)
        solves.append((res.status, res.iterations))
        return res

    monkeypatch.setattr(oep, "solve_misocp", spy)
    return solves


@pytest.mark.parametrize("e_max_kwh", [0.1, 1.0, 10.0, 30.0])
def test_unfixable_violations_exit_three(line_inputs, tmp_path, capsys,
                                         monkeypatch, e_max_kwh):
    doc = json.loads((line_inputs / "config.json").read_text())
    # the evening peak needs more than 30 kWh at the far end. Without a
    # minimum unit size sizing declares no binary, so the node cap never
    # binds: the root relaxation alone ends without a plan, whether
    # infeasible or stalled, and the full-capacity check names the hours.
    # Here the interior point stops early, on a breakdown or a singular
    # KKT matrix well before its 100 iterations, and says so
    doc["bess"] = {"e_max_kwh": e_max_kwh}
    doc["solver"] = {"feas_tol": 1e-7, "cone_tol": 1e-7, "node_limit": 100}
    path = line_inputs / "small_bess.json"
    path.write_text(json.dumps(doc))
    solves = sizing_solves(monkeypatch)
    assert main(["run", "--config", str(path), "--out",
                 str(tmp_path / "out"), "--seed", "3"]) == 3
    assert "[plan] violations cannot be fixed within the capacity caps; " \
        "binding hours: [17, 18, 19]" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert solves == [("stalled", 1)]


def test_interior_point_reports_the_iterations_it_ran(line_inputs, tmp_path,
                                                      monkeypatch):
    # every interior-point solve factors its KKT matrix once for the
    # starting point and once per iteration, so it reports one iteration
    # fewer than it made factorizations, also when it stops early and
    # returns an earlier, better iterate, as the stalled sizing root does
    doc = json.loads((line_inputs / "config.json").read_text())
    doc["bess"] = {"e_max_kwh": 10.0}
    doc["solver"] = {"feas_tol": 1e-7, "cone_tol": 1e-7, "node_limit": 100}
    path = line_inputs / "count_iterations.json"
    path.write_text(json.dumps(doc))
    solves = []      # (in sizing, status, iterations, factorizations)
    factored = [0]
    sizing = [False]

    def counted(real):
        def factory(*args):
            factor = real(*args)

            def spy(W):
                out = factor(W)
                factored[0] += 1
                return out
            return spy
        return factory

    real_conelp = _ipm.conelp

    def conelp(*args, **kw):
        factored[0] = 0
        raw = real_conelp(*args, **kw)
        solves.append((sizing[0], raw["status"], raw["iterations"],
                       factored[0]))
        return raw

    real_misocp = oep.solve_misocp

    def misocp(*args, **kw):
        sizing[0] = True
        try:
            return real_misocp(*args, **kw)
        finally:
            sizing[0] = False

    for name in ("_kkt_dense", "_kkt_sparse"):
        monkeypatch.setattr(_ipm, name, counted(getattr(_ipm, name)))
    monkeypatch.setattr(_ipm, "conelp", conelp)
    monkeypatch.setattr(oep, "solve_misocp", misocp)
    assert main(["run", "--config", str(path), "--out",
                 str(tmp_path / "out"), "--seed", "3"]) == 3
    root = [s for s in solves if s[0]]
    assert len(root) == 1 and root[0][1] == "unknown"
    assert all(iters == factors - 1 for _, _, iters, factors in solves)


def test_config_keys_mirror_pvm_config(line_inputs):
    cfg = load_config(line_inputs / "config.json")
    assert cfg.threads == 1 and cfg.economics_scope == "window"
    assert cfg.scenarios.n == 4 and cfg.stat.window_days == 1
    assert cfg.solver is None
    assert cfg.network == str(line_inputs / "feeder.json")


def test_sizing_without_incumbent_exits_three(line_inputs, tmp_path,
                                             capsys):
    # one node is the root relaxation, whose installation flag (of a
    # 10 kWh minimum unit) is fractional
    doc = json.loads((line_inputs / "config.json").read_text())
    doc["bess"] = {"e_min_kwh": 10.0}
    doc["solver"] = {"node_limit": 1}
    path = line_inputs / "one_node.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--config", str(path), "--out",
                 str(tmp_path / "out"), "--seed", "3"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("[plan] ") and "no-incumbent" in err
    assert not (tmp_path / "out").exists()


def test_zero_margin_sizing_is_one_relaxation(line_inputs, tmp_path,
                                              monkeypatch):
    # without a minimum unit size sizing has no binary to branch on, so
    # even a one-node limit gives the plan: its root relaxation, sized to
    # the limits with no margin, which validation passes
    doc = json.loads((line_inputs / "config.json").read_text())
    doc["solver"] = {"feas_tol": 1e-7, "cone_tol": 1e-7, "node_limit": 1}
    path = line_inputs / "zero_margin.json"
    path.write_text(json.dumps(doc))
    solves = sizing_solves(monkeypatch)
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out),
                 "--seed", "3"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "pass" and summary["plan_gap"] == 0.0
    assert summary["total_capacity_kwh"] > 0 and solves == [("optimal", 1)]


def test_failed_validation_exits_one(tmp_path):
    # a one-hour sag on day 1 outranks a six-hour one on day 2 by maximum
    # severity, so the plan is sized on the short sag; the long one needs
    # more energy than it holds, and a one-round cap stops the run
    # before backtracking adds day 2
    shape = np.full(48, 0.5)
    shape[18] = 1.3
    shape[40:46] = 1.25
    config = write_line_inputs(tmp_path, shape, {
        "scenarios": {"daily_prob": 0.0, "penetration": 0.0},
        "stat": {"window_days": 1, "weights": [0, 0, 1, 0]},
        "solver": {"feas_tol": 1e-7, "cone_tol": 1e-7, "node_limit": 4},
        "backtrack_cap": 1})
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "fail"
    assert summary["total_capacity_kwh"] > 0
    assert summary["notes"] == [
        "backtrack cap 1 reached without a passing validation"]
    with open(out / "verdicts.csv", newline="") as fh:
        rounds = list(csv.DictReader(fh))
    assert rounds[0]["round"] == "0" and rounds[0]["passed"] == "False"
    assert int(rounds[0]["residual_count"]) > 0
    assert rounds[0]["infeasible_days"] == "24"


def test_zero_score_day_is_monitored_after_a_failed_round(tmp_path):
    # the same two sags without a round cap: day 2 scores 0 by maximum
    # severity, yet it is ranked, so backtracking sizes both days
    shape = np.full(48, 0.5)
    shape[18] = 1.3
    shape[40:46] = 1.25
    config = write_line_inputs(tmp_path, shape, {
        "scenarios": {"daily_prob": 0.0, "penetration": 0.0},
        "stat": {"window_days": 1, "weights": [0, 0, 1, 0]},
        "solver": {"feas_tol": 1e-7, "cone_tol": 1e-7, "node_limit": 4}})
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "pass" and summary["rounds"] == 2
    assert summary["windows_used"] == [["2025-01-01", "2025-01-01"],
                                       ["2025-01-02", "2025-01-02"]]


def test_rounds_stop_once_every_ranked_window_is_monitored(tmp_path,
                                                           monkeypatch):
    # round r sizes on the r + 1 best-ranked windows. With validation
    # made to fail, a round cap equal to the two ranked windows ends
    # on the exhausted list, not on the cap
    shape = np.full(48, 0.5)
    shape[18] = 1.3
    shape[40:46] = 1.25
    config = write_line_inputs(tmp_path, shape, {
        "scenarios": {"daily_prob": 0.0, "penetration": 0.0},
        "stat": {"window_days": 1, "weights": [0, 0, 1, 0]},
        "solver": {"feas_tol": 1e-7, "cone_tol": 1e-7, "node_limit": 4},
        "backtrack_cap": 2})
    real = pipeline.validate_plan

    def failing(*args, **kwargs):
        return replace(real(*args, **kwargs), residuals=(
            ViolationRecord(5, 40, None, 0.9, 0.05, "under"),))

    monkeypatch.setattr(pipeline, "validate_plan", failing)
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "fail" and summary["rounds"] == 2
    assert summary["windows_used"] == [["2025-01-01", "2025-01-01"],
                                       ["2025-01-02", "2025-01-02"]]
    assert summary["notes"] == [
        "backtracking exhausted the ranked window list (2 windows, all "
        "monitored); the plan cannot cover the remaining infeasible days"]
    with open(out / "verdicts.csv", newline="") as fh:
        assert [r["monitored_hours"] for r in csv.DictReader(fh)] == \
            ["24", "48"]


def test_horizon_from_six_am_certifies_its_sized_day(tmp_path):
    # 06:00 to 05:00 the next morning: the 17:00-19:00 peak falls on the
    # first calendar date, rows 0-17, which sizing chains and validation
    # cuts as one day, so the plan's own schedule certifies it
    clock = np.datetime64("2025-01-01T06", "h") + np.arange(24)
    hod = (clock - clock.astype("datetime64[D]")).astype(int)
    shape = np.where((hod >= 17) & (hod < 20), 1.0, 0.5)
    config = write_line_inputs(tmp_path, shape, {
        "scenarios": {"daily_prob": 0.0, "penetration": 0.0},
        "stat": {"window_days": 1}}, start="2025-01-01T06")
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "pass" and summary["certified_days"] == 1


def test_window_longer_than_the_violating_days(tmp_path):
    # ten days of which the first three peak: the default seven-day
    # window is longer than the violating days but fits the horizon
    shape = np.full(240, 0.5)
    for day, peak in enumerate((1.0, 1.04, 0.98)):
        shape[24 * day + 17:24 * day + 20] = peak
    config = write_line_inputs(tmp_path, shape, {
        "scenarios": {"daily_prob": 0.0, "penetration": 0.0}})
    out = tmp_path / "out"
    assert main(["stat", "--config", str(config), "--out", str(out)]) == 0
    with open(out / "windows.csv", newline="") as fh:
        windows = list(csv.DictReader(fh))
    assert [(w["start"], w["end"]) for w in windows] == \
        [("2025-01-01", "2025-01-07")]
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "pass" and summary["rounds"] == 1
    assert summary["certified_days"] == 7


def test_distributions_file_replaces_the_fit(line_inputs, line_runs,
                                             tmp_path):
    # the distributions the scenarios command writes, fed back through
    # the config, give the reports of a run that fits them itself
    scen = tmp_path / "scen"
    assert main(["scenarios", "--config", str(line_inputs / "config.json"),
                 "--out", str(scen), "--seed", "3"]) == 0
    doc = json.loads((line_inputs / "config.json").read_text())
    doc["distributions"] = str(scen / "distributions.json")
    path = line_inputs / "fitted.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out),
                 "--seed", "3"]) == 0
    ref = line_runs["run", "a"][1]
    names = sorted(p.name for p in ref.iterdir())
    assert names == sorted(p.name for p in out.iterdir())
    for name in names:
        assert (out / name).read_bytes() == (ref / name).read_bytes(), name


def test_year_scope_prices_the_whole_horizon(tmp_path):
    # a 48 h horizon sized on a one-day window: economics_scope "year"
    # prices both days, the storage-free one and the plan's alike
    day = np.where((np.arange(24) >= 17) & (np.arange(24) < 20), 1.0, 0.5)
    config = write_line_inputs(tmp_path, np.tile(day, 2), {
        "scenarios": {"n": 4, "daily_prob": 0.9, "penetration": 0.5},
        "stat": {"window_days": 1}, "economics_scope": "year"})
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out),
                 "--seed", "3"]) == 0
    with open(out / "verdicts.csv", newline="") as fh:
        assert [r["monitored_hours"] for r in csv.DictReader(fh)] == ["24"]
    cfg = load_config(config)
    cfg = replace(cfg, scenarios=replace(cfg.scenarios, seed=3))
    net = load_network(cfg.network)
    profiles = _overlaid_profiles(cfg, net,
                                  LoadProfileSet.from_csv(cfg.profiles))[0]
    tariff = read_tariff(cfg.tariff, profiles.hour_of_day)
    with open(out / "plan.csv", newline="") as fh:
        caps = {int(r["bus"]): float(r["capacity_kwh"])
                for r in csv.DictReader(fh)}
    empty = BessPlan.empty(spec=cfg.bess)
    runs = [oep.tou_dispatch(net, profiles, plan_, tariff, cfg=cfg.solver)
            for plan_ in (empty, replace(empty, capacity_kwh=caps))]
    assert [[d.hours for d in r.days] for r in runs] == \
        [[tuple(range(24)), tuple(range(24, 48))]] * 2
    with open(out / "economics.csv", newline="") as fh:
        (row,) = list(csv.reader(fh))[1:]
    assert row[0] == "year"
    # cost and losses without, then with, storage
    assert [float(row[k]) for k in (1, 2, 5, 6)] == \
        [runs[0].cost, runs[1].cost, runs[0].losses_kwh, runs[1].losses_kwh]
