"""Seeded input generator for the planning-flow benchmark.

For one workload and one seed it writes the four files the program
reads: a copy of a bundled feeder, hourly base profiles, a 24-value
time-of-use tariff and a run configuration. The profiles are per-bus
base load x a daily evening-peak shape x seeded multiplicative noise.
Nothing else reaches the program; requests within a run differ only by
the --seed passed on the command line (EV overlay and clustering).
"""

from __future__ import annotations

import csv
import json
import os

import numpy as np

# Fraction of the feeder's nominal load by hour of day: a night trough,
# a morning shoulder and an evening peak at 19:00-20:00.
EVENING_PEAK = (
    0.50, 0.46, 0.44, 0.43, 0.44, 0.48, 0.56, 0.64,
    0.68, 0.68, 0.67, 0.66, 0.65, 0.64, 0.64, 0.66,
    0.72, 0.82, 0.93, 1.00, 0.98, 0.88, 0.72, 0.58,
)

# $/kWh: off-peak night, shoulder day, on-peak 17:00-21:00.
TOU_PRICES = (
    0.08, 0.08, 0.08, 0.08, 0.08, 0.08, 0.12, 0.12,
    0.12, 0.12, 0.12, 0.12, 0.12, 0.12, 0.12, 0.12,
    0.12, 0.30, 0.30, 0.30, 0.30, 0.12, 0.12, 0.08,
)

NOISE_SIGMA = 0.03
START = "2025-01-01T00"

# Per-workload inputs and settings. `peak` scales the nominal feeder
# load at the evening peak; `config` is merged into the run
# configuration the program reads; `trace_requests` is the fixed
# request count of a traced run. The `why` line is mirrored in
# BENCHMARK.json.
WORKLOADS = {
    "screen": {
        "why": "stat on IEEE-69 over 48 h with EV overlay, threads 2, "
               "default solver: per-hour dense-KKT screening solves and "
               "sensitivities; never reaches oep or branch-and-bound",
        "command": "stat",
        "feeder": "ieee69",
        "hours": 48,
        "peak": 1.0,
        "trace_requests": 2,
        "config": {
            "threads": 2,
            "scenarios": {"n": 40, "daily_prob": 0.9, "penetration": 0.5},
            "stat": {"window_days": 1},
        },
    },
    "plan": {
        "why": "run on IEEE-33 over 24 h with EV overlay, threads 1, "
               "solver feas_tol/cone_tol 1e-7 node_limit 2: sparse-KKT "
               "branch-and-bound in sizing, validation and economics",
        "command": "run",
        "feeder": "ieee33",
        "hours": 24,
        "peak": 0.8,
        "trace_requests": 1,
        "config": {
            "threads": 1,
            "scenarios": {"n": 20, "daily_prob": 0.9, "penetration": 0.3},
            "stat": {"window_days": 1, "n_max_top": 3, "target": 5},
            # 400 kWh minimum units leave voltage margin at validation;
            # see README.md for what zero-margin plans trigger
            "bess": {"e_min_kwh": 400.0, "e_max_kwh": 1000.0},
            "solver": {"feas_tol": 1e-7, "cone_tol": 1e-7,
                       "node_limit": 2},
        },
    },
    "scenarios": {
        "why": "scenarios on IEEE-69 over 8760 h with 200 chargers, "
               "threads 1, no solver: profile CSV read/write and "
               "per-charger-day session sampling",
        "command": "scenarios",
        "feeder": "ieee69",
        "hours": 8760,
        "peak": 1.0,
        "trace_requests": 1,
        "config": {
            "threads": 1,
            "scenarios": {"n": 200, "daily_prob": 0.9, "penetration": 1.0},
        },
    },
}


def bundled_feeder(root, name):
    """Parsed JSON of a feeder shipped with the package sources."""
    path = os.path.join(root, "src", "bessplan", "data", f"{name}.json")
    with open(path) as fh:
        return json.load(fh)


def base_profiles(feeder, hours, peak, rng):
    """(horizon strings, bus ids, p_kw, q_kvar) for the non-slack buses."""
    buses = [b for b in feeder["buses"] if b.get("kind") != "slack"]
    ids = [b["id"] for b in buses]
    p0 = np.array([b["p_base_kw"] for b in buses], dtype=float)
    q0 = np.array([b["q_base_kvar"] for b in buses], dtype=float)
    shape = peak * np.resize(np.asarray(EVENING_PEAK), hours)
    noise = 1.0 + NOISE_SIGMA * rng.standard_normal((hours, len(ids)))
    factor = shape[:, None] * np.clip(noise, 0.5, 1.5)
    stamps = np.datetime64(START, "h") + np.arange(hours)
    return [str(t) for t in stamps], ids, p0 * factor, q0 * factor


def write_profiles(path, stamps, ids, p_kw, q_kvar):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", "bus_id", "p_kw", "q_kvar"])
        for k, ts in enumerate(stamps):
            for j, bid in enumerate(ids):
                writer.writerow([ts, bid, repr(float(p_kw[k, j])),
                                 repr(float(q_kvar[k, j]))])


def generate(root, workload, seed, outdir, hours=None, overrides=None):
    """Write one workload's inputs under outdir; returns the config path.

    hours and overrides shrink a workload for tests: hours replaces the
    horizon length, overrides is merged into the configuration tables.
    """
    spec = WORKLOADS[workload]
    hours = spec["hours"] if hours is None else hours
    os.makedirs(outdir, exist_ok=True)
    rng = np.random.default_rng([seed % (1 << 32), 7919])

    feeder = bundled_feeder(root, spec["feeder"])
    with open(os.path.join(outdir, "feeder.json"), "w") as fh:
        json.dump(feeder, fh, indent=1)
    write_profiles(os.path.join(outdir, "profiles.csv"),
                   *base_profiles(feeder, hours, spec["peak"], rng))
    with open(os.path.join(outdir, "tariff.txt"), "w") as fh:
        fh.write("# $/kWh by hour of day\n")
        fh.writelines(f"{p!r}\n" for p in TOU_PRICES)

    config = {"network": "feeder.json", "profiles": "profiles.csv",
              "tariff": "tariff.txt", "outdir": "out"}
    for key, value in spec["config"].items():
        config[key] = dict(value) if isinstance(value, dict) else value
    for key, value in (overrides or {}).items():
        if isinstance(value, dict):
            config.setdefault(key, {}).update(value)
        else:
            config[key] = value
    path = os.path.join(outdir, "config.json")
    with open(path, "w") as fh:
        json.dump(config, fh, indent=1, sort_keys=True)
    return path
