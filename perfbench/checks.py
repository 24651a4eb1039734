"""Output checks for the benchmark's requests.

Each check reads the files one request wrote and returns a list of
failure messages (empty when the output is correct). They run outside
the timed region. Nothing here imports the program: the feeder, the
profiles and the reports are parsed from the files, and the screening
voltages are compared with an independent backward/forward-sweep power
flow.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

# Agreement required between screened voltages and the sweep, p.u.
VOLTAGE_TOL = 1e-5
# Slack allowed on capacity bounds (kWh) and validated voltages (p.u.).
CAPACITY_TOL = 1e-6
LIMIT_TOL = 1e-6
# Float slack when matching overlaid series to scenario rows, kW.
KW_TOL = 1e-9

PLAN_STATUSES = ("pass", "fail", "no-investment")


class Feeder:
    """Radial feeder in per-unit, rooted at its slack bus."""

    def __init__(self, doc):
        s_mva = float(doc["bases"]["s_mva"])
        v_kv = float(doc["bases"]["v_kv"])
        z_base = v_kv ** 2 / s_mva
        self.s_base_kw = 1000.0 * s_mva
        self.v_lower = float(doc["limits"].get("v_lower_pu", 0.95))
        self.v_upper = float(doc["limits"].get("v_upper_pu", 1.05))
        self.slack_voltage = doc.get("slack_voltage_pu", 1.0)
        self.ids = [b["id"] for b in doc["buses"]]
        pos = {bid: i for i, bid in enumerate(self.ids)}
        self.slack = next(i for i, b in enumerate(doc["buses"])
                          if b.get("kind") == "slack")
        n = len(self.ids)
        adj = [[] for _ in range(n)]
        for br in doc["branches"]:
            a, b = pos[br["from"]], pos[br["to"]]
            r = br["r_pu"] if "r_pu" in br else br["r_ohm"] / z_base
            x = br["x_pu"] if "x_pu" in br else br["x_ohm"] / z_base
            adj[a].append((b, float(r), float(x)))
            adj[b].append((a, float(r), float(x)))
        # BFS from the slack: order lists parents before children
        self.parent = [-1] * n
        self.r = [0.0] * n          # impedance of the branch feeding bus i
        self.x = [0.0] * n
        self.order = [self.slack]
        seen = {self.slack}
        for u in self.order:
            for v, r, x in adj[u]:
                if v not in seen:
                    seen.add(v)
                    self.parent[v] = u
                    self.r[v], self.x[v] = r, x
                    self.order.append(v)
        self.children = [[] for _ in range(n)]
        for v in self.order[1:]:
            self.children[self.parent[v]].append(v)

    @classmethod
    def from_file(cls, path):
        with open(path) as fh:
            return cls(json.load(fh))

    def slack_v(self, hour):
        if isinstance(self.slack_voltage, (int, float)):
            return float(self.slack_voltage)
        return float(self.slack_voltage[hour])


def sweep_power_flow(feeder, p_kw, q_kvar, hour=0, tol=1e-13,
                     max_iter=500):
    """Exact radial branch-flow solution; returns bus voltages, p.u.

    Backward sweep: each branch carries its bus's demand, the flows of
    its child branches and its own losses r*l. Forward sweep: squared
    voltages drop along each branch by 2(rP + xQ) - |z|^2 l. Losses are
    re-estimated from the new flows until both sweeps reach a fixed
    point, where the branch-flow equations hold exactly.
    """
    n = len(feeder.ids)
    p = [float(v) / feeder.s_base_kw for v in p_kw]
    q = [float(v) / feeder.s_base_kw for v in q_kvar]
    v = [feeder.slack_v(hour) ** 2] * n
    L = [0.0] * n     # squared current of the branch feeding bus i
    P = [0.0] * n
    Q = [0.0] * n
    r, x, parent = feeder.r, feeder.x, feeder.parent
    below = feeder.order[1:]
    for _ in range(max_iter):
        for i in reversed(below):
            kids = feeder.children[i]
            P[i] = p[i] + sum(P[k] for k in kids) + r[i] * L[i]
            Q[i] = q[i] + sum(Q[k] for k in kids) + x[i] * L[i]
        dv = 0.0
        for i in below:
            nv = (v[parent[i]] - 2.0 * (r[i] * P[i] + x[i] * Q[i])
                  + (r[i] ** 2 + x[i] ** 2) * L[i])
            dv = max(dv, abs(nv - v[i]))
            v[i] = nv
        dl = 0.0
        for i in below:
            nl = (P[i] ** 2 + Q[i] ** 2) / v[parent[i]]
            dl = max(dl, abs(nl - L[i]))
            L[i] = nl
        if max(dv, dl) < tol:
            break
    else:
        raise RuntimeError("power-flow sweep did not converge")
    return np.sqrt(np.array(v))


def read_profiles(path):
    """(timestamps, bus ids, p_kw, q_kvar) from a profile CSV.

    Rows may come in any order; each (timestamp, bus) cell is placed by
    its key, and a cell that is missing stays NaN.
    """
    stamps = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(0,),
                        dtype="datetime64[h]", ndmin=1)
    data = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(1, 2, 3),
                      ndmin=2)
    times, t_pos = np.unique(stamps, return_inverse=True)
    ids, b_pos = np.unique(data[:, 0].astype(int), return_inverse=True)
    p = np.full((len(times), len(ids)), np.nan)
    q = np.full_like(p, np.nan)
    p[t_pos, b_pos] = data[:, 1]
    q[t_pos, b_pos] = data[:, 2]
    return times, [int(b) for b in ids], p, q


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _read_summary(outdir):
    with open(os.path.join(outdir, "summary.json")) as fh:
        return json.load(fh)


def oracle_voltages(feeder, profiles_path):
    """(n_bus, T) sweep voltages over every hour of a profile file."""
    _, ids, p, q = read_profiles(profiles_path)
    cols = {b: j for j, b in enumerate(ids)}
    n, T = len(feeder.ids), p.shape[0]
    volts = np.empty((n, T))
    for t in range(T):
        pk = np.zeros(n)
        qk = np.zeros(n)
        for i, b in enumerate(feeder.ids):
            if b in cols:
                pk[i], qk[i] = p[t, cols[b]], q[t, cols[b]]
        volts[:, t] = sweep_power_flow(feeder, pk, qk, hour=t)
    return volts


def check_screen(outdir, feeder, volts, tol=VOLTAGE_TOL):
    """Screening reports against sweep voltages of the same profiles.

    Every violations.csv row must match the sweep voltage of its
    bus-hour; every bus-hour the sweep puts clearly outside the limits
    must have a row and none clearly inside may; the 'before' voltage
    summary must match every bus's sweep minimum and maximum.
    """
    errors = []
    pos = {b: i for i, b in enumerate(feeder.ids)}
    lo, hi = feeder.v_lower, feeder.v_upper
    rows = _read_csv(os.path.join(outdir, "violations.csv"))
    listed = set()
    for row in rows:
        bus, hour = int(row["bus"]), int(row["hour"])
        V = float(row["voltage"])
        ref = volts[pos[bus], hour]
        listed.add((bus, hour))
        if abs(V - ref) > tol:
            errors.append(f"violation bus {bus} hour {hour}: {V!r} vs "
                          f"sweep {ref!r}")
        want = "under" if V < lo else "over"
        sev = lo - V if want == "under" else V - hi
        if row["kind"] != want or not math.isclose(
                float(row["severity"]), sev, abs_tol=1e-12) or sev <= 0:
            errors.append(f"violation bus {bus} hour {hour}: bad kind or "
                          f"severity {row['kind']} {row['severity']}")
    for i, bus in enumerate(feeder.ids):
        for t in range(volts.shape[1]):
            ref = volts[i, t]
            clear_out = ref < lo - tol or ref > hi + tol
            clear_in = lo + tol < ref < hi - tol
            if clear_out and (bus, t) not in listed:
                errors.append(f"bus {bus} hour {t} at {ref:.6f} p.u. "
                              "missing from violations.csv")
            elif clear_in and (bus, t) in listed:
                errors.append(f"bus {bus} hour {t} at {ref:.6f} p.u. "
                              "listed as a violation")
    summary = [r for r in _read_csv(os.path.join(outdir,
                                                 "voltage_summary.csv"))
               if r["phase"] == "before"]
    if len(summary) != len(feeder.ids):
        errors.append(f"voltage summary covers {len(summary)} of "
                      f"{len(feeder.ids)} buses")
    for row in summary:
        i = pos[int(row["bus"])]
        for key, ref in (("min", volts[i].min()), ("max", volts[i].max())):
            if abs(float(row[key]) - ref) > tol:
                errors.append(f"summary bus {row['bus']} {key}: "
                              f"{row[key]} vs sweep {ref!r}")
    doc = _read_summary(outdir)
    if doc["violations"] != len(rows):
        errors.append(f"summary counts {doc['violations']} violations, "
                      f"violations.csv has {len(rows)}")
    if doc["status"] != "stopped:stat":
        errors.append(f"screen status {doc['status']!r}")
    return errors


def check_plan(outdir, feeder, e_max_kwh):
    """Planning reports: status, capacity bounds, validated voltages."""
    errors = []
    doc = _read_summary(outdir)
    status = doc["status"]
    if status not in PLAN_STATUSES:
        errors.append(f"plan status {status!r}")
    caps = [float(r["capacity_kwh"])
            for r in _read_csv(os.path.join(outdir, "plan.csv"))]
    for cap in caps:
        if not -CAPACITY_TOL <= cap <= e_max_kwh + CAPACITY_TOL:
            errors.append(f"capacity {cap!r} kWh outside [0, {e_max_kwh}]")
    if not math.isclose(sum(caps), doc["total_capacity_kwh"],
                        rel_tol=1e-9, abs_tol=1e-9):
        errors.append("summary capacity differs from plan.csv")
    if status == "pass":
        after = [r for r in _read_csv(os.path.join(outdir,
                                                   "voltage_summary.csv"))
                 if r["phase"] == "after"]
        if not after:
            errors.append("pass without an 'after' voltage summary")
        for row in after:
            if float(row["min"]) < feeder.v_lower - LIMIT_TOL or \
                    float(row["max"]) > feeder.v_upper + LIMIT_TOL:
                errors.append(f"bus {row['bus']} after planning outside "
                              f"limits: {row['min']}..{row['max']}")
    return errors


def read_scenario_series(path):
    """(n, hours) kW array from a scenarios.csv file."""
    with open(path) as fh:
        head = fh.readline()
    meta = dict(kv.split("=", 1) for kv in head[1:].split())
    series = np.zeros((int(meta["n"]), int(meta["hours"])))
    rows = np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)
    k = rows[:, 0].astype(int)
    t = rows[:, 1].astype(int) * 24 + rows[:, 2].astype(int)
    series[k, t] = rows[:, 3]
    return series


def sessions(row):
    """Split one charger series into (start, hours, kWh) sessions.

    A session charges at one constant power for whole hours and may end
    in one partial hour at a lower power. A charger that never runs two
    sessions at once yields series that split this way exactly.
    """
    out = []
    nz = np.flatnonzero(row)
    if not nz.size:
        return out
    # runs of consecutive charging hours
    breaks = np.flatnonzero(np.diff(nz) > 1)
    for run in np.split(nz, breaks + 1):
        k = 0
        while k < len(run):
            p = row[run[k]]
            j = k
            while j + 1 < len(run) and abs(row[run[j + 1]] - p) <= \
                    KW_TOL * max(1.0, p):
                j += 1
            if j + 1 < len(run) and row[run[j + 1]] < p:
                j += 1      # partial final hour
            out.append((int(run[k]), j - k + 1,
                        float(row[run[k]:run[j] + 1].sum())))
            k = j + 1
    return out


def check_scenarios(outdir, base_profiles, feeder, penetration, growth,
                    days):
    """Invariants any valid charger sampler and overlay keep.

    Series are non-negative and cover the horizon; each charger series
    splits into disjoint sessions (see sessions), at most one per day;
    the overlay adds to each chosen bus exactly one scenario row (so
    the added energy equals that of the assigned rows), leaves the
    other buses and all reactive power unchanged, and chooses
    round(penetration * eligible buses) buses.
    """
    errors = []
    series = read_scenario_series(os.path.join(outdir, "scenarios.csv"))
    if series.min(initial=0.0) < 0:
        errors.append("negative scenario kW")
    if series.shape[1] < days * 24:
        errors.append(f"scenarios cover {series.shape[1]} hours")
    for k, row in enumerate(series):
        found = len(sessions(row))
        if found > days:
            errors.append(f"scenario {k}: {found} disjoint sessions in "
                          f"{days} days, so some overlap")

    _, ids, p0, q0 = base_profiles
    _, ids1, p1, q1 = read_profiles(os.path.join(outdir,
                                                 "profiles_overlaid.csv"))
    if ids1 != ids or p1.shape != p0.shape:
        return errors + ["overlaid profiles do not match the base layout"]
    if np.any(p1 < 0):
        errors.append("negative overlaid demand")
    if not np.allclose(q1, q0 * growth, rtol=0, atol=KW_TOL):
        errors.append("overlay changed reactive power")
    added = p1 - p0 * growth
    H = p0.shape[0]
    head = series[:, :H]
    chosen = 0
    added_kwh = 0.0
    assigned_kwh = 0.0
    for j, bus in enumerate(ids):
        col = added[:, j]
        if np.all(np.abs(col) <= KW_TOL * (1.0 + p0[:, j])):
            continue
        chosen += 1
        tol = KW_TOL * (1.0 + p1[:, j])
        match = np.flatnonzero(np.all(np.abs(head - col) <= tol, axis=1))
        if not match.size:
            errors.append(f"bus {bus}: added load is not a scenario row")
            continue
        added_kwh += float(col.sum())
        assigned_kwh += float(head[match[0]].sum())
    want = int(round(penetration * (len(feeder.ids) - 1)))
    if chosen != want:
        errors.append(f"{chosen} buses overlaid, expected {want}")
    if not math.isclose(added_kwh, assigned_kwh, rel_tol=1e-9):
        errors.append(f"overlay added {added_kwh} kWh, assigned rows "
                      f"hold {assigned_kwh} kWh")
    return errors
