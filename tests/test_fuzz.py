"""Seeded fuzz of the `run` command on IEEE-33.

Each case draws a horizon of 24 or 48 h, a peak scale, an EV overlay, a
tariff with free hours, a storage envelope, a candidate target and a
node limit from its seed, and runs the whole flow in-process. The
verdict must agree with independent checks:

- the exit code is 0 (pass), 1 (fail) or 3 (no plan);
- exit 3 names binding hours, and dispatching the sized window at full
  capacity on every candidate leaves exactly those hours outside the
  limits;
- a monitored day whose plan schedule holds the limits under the sweep
  power flow of tests/helpers_power.py is certified without a solve, so
  `fail` needs a monitored day whose plan schedule does not.

The seeds are fixed in advance, not chosen by their outcome; a seed
that shows a defect outside this check's reach is marked, not dropped.
"""

import json
import math
import re
from importlib import resources

import numpy as np
import pytest

from bessplan import pipeline
from bessplan.netmodel import LoadProfileSet, load_network
from bessplan.oep import VALIDATION_TOL, _day_chunks, dispatch_day, residuals
from helpers_power import sweep_power_flow

# seed 0 draws two violating days of which stat ranks only the first:
# min-max scoring gives the milder day 0 and rank_windows leaves
# zero-score days out, so backtracking never monitors it and the run
# fails on it
SEEDS = (pytest.param(0, marks=pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="a violating day scored 0 by stat is never monitored")), 1, 2)


def write_case(root, seed):
    """Inputs of one fuzz case under root; returns the config path."""
    rng = np.random.default_rng([seed, 33])
    doc = json.loads(resources.files("bessplan.data")
                     .joinpath("ieee33.json").read_text())
    (root / "feeder.json").write_text(json.dumps(doc))
    net = load_network(doc)
    ids = [b for i, b in enumerate(net.ids) if i != net.slack]
    cols = [net.idx[b] for b in ids]
    hours = int(rng.choice([24, 48]))
    hod = np.arange(hours) % 24
    shape = 0.55 + 0.45 * np.exp(-0.5 * ((hod - 19) / 2.5) ** 2)
    factor = rng.uniform(0.6, 1.3) * shape[:, None] * \
        rng.uniform(0.97, 1.03, (hours, len(ids)))
    horizon = np.datetime64("2025-01-01T00", "h") + np.arange(hours)
    LoadProfileSet(horizon, ids, net.p_base_kw[cols] * factor,
                   net.q_base_kvar[cols] * factor).to_csv(
        root / "profiles.csv")
    prices = rng.uniform(0.05, 0.4, 24)
    prices[rng.choice(24, 3, replace=False)] = 0.0
    (root / "tariff.txt").write_text(
        "".join(f"{p!r}\n" for p in prices.tolist()))
    config = {
        "network": "feeder.json", "profiles": "profiles.csv",
        "tariff": "tariff.txt", "outdir": "out",
        "scenarios": {"n": int(rng.integers(5, 30)), "daily_prob": 0.9,
                      "penetration": float(rng.uniform(0.2, 0.6))},
        "stat": {"window_days": 1, "target": int(rng.integers(1, 6))},
        "bess": {"e_min_kwh": float(rng.choice([0.0, 100.0, 400.0])),
                 "e_max_kwh": float(rng.uniform(500.0, 3000.0))},
        "solver": {"feas_tol": 1e-7, "cone_tol": 1e-7,
                   "node_limit": int(rng.integers(2, 9))}}
    (root / "config.json").write_text(json.dumps(config))
    return root / "config.json"


def schedule_holds(net, profiles, plan_, day):
    """Whether the plan's own schedule keeps the day within the limits
    (up to VALIDATION_TOL) under the oracle sweep."""
    p_kw, q_kvar = profiles.aligned(net)
    pos = {t: k for k, t in enumerate(plan_.hours)}
    for t in day:
        p, q = p_kw[t].copy(), q_kvar[t].copy()
        for b in plan_.buses:
            i, k = net.idx[b], pos[t]
            p[i] += plan_.charge_kw[b][k] - plan_.discharge_kw[b][k]
            q[i] -= plan_.q_kvar[b][k]
        v = np.sqrt(sweep_power_flow(net, p, q, hour=t)[0])
        if np.any(v < net.v_lower - VALIDATION_TOL) or \
                np.any(v > net.v_upper + VALIDATION_TOL):
            return False
    return True


@pytest.mark.parametrize("seed", SEEDS)
def test_run_verdict_agrees_with_the_oracles(tmp_path, monkeypatch, capsys,
                                             seed):
    config = write_case(tmp_path, seed)
    seen = {}

    def spy(name):
        real = getattr(pipeline, name)

        def wrapped(*args, **kwargs):
            seen[name] = (args, real(*args, **kwargs))
            return seen[name][1]
        monkeypatch.setattr(pipeline, name, wrapped)

    for name in ("build_toep", "solve_plan", "validate_plan"):
        spy(name)
    rc = pipeline.main(["run", "--config", str(config), "--out",
                        str(tmp_path / "out"), "--seed", str(seed)])
    assert rc in (0, 1, 3)
    (net, profiles, monitored, buses, spec), _ = seen["build_toep"]
    days = _day_chunks(monitored)

    if rc == 3:
        named = re.search(r"binding hours: \[([\d, ]+)\]",
                          capsys.readouterr().err)
        assert named, "exit 3 without binding hours"
        full = dict.fromkeys(buses, spec.e_max_kwh)
        binding = set()
        for day in days:
            out = dispatch_day(net, profiles, day, full, spec,
                               (net.v_lower, net.v_upper))
            binding.update(r.hour for r in residuals(net, profiles, day,
                                                     out.v_sq))
        assert sorted(binding) == [int(h) for h in named[1].split(",")]
        return

    plan_ = seen["solve_plan"][1]
    verdict = seen["validate_plan"][1]
    holds = {day[0]: schedule_holds(net, profiles, plan_, day)
             for day in days}
    for first, ok in holds.items():
        if ok:
            assert first in verdict.certified_days
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["status"] == ("pass" if rc == 0 else "fail")
    if rc == 1:
        assert not all(holds.values()), \
            "fail although every monitored day's plan schedule holds"
    assert math.isfinite(summary["total_capacity_kwh"])
