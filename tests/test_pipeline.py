"""Command-line tests of the `scenarios` subcommand.

A small IEEE-33 input (48 h of noisy base load) is generated per test
module. The run must exit 0, be byte-stable for a fixed --seed, write
the same bytes a csv.writer with repr float cells would (the oracle is
inlined below), and exit 2 on a missing input file.
"""

import csv
import io
import json
import math
from importlib import resources

import numpy as np
import pytest

from bessplan.netmodel import LoadProfileSet, load_network
from bessplan.pipeline import main
from bessplan.scenarios import (generate_annual, overlay_penetration,
                                read_distributions)

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
