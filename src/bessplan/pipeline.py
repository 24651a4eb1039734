"""End-to-end planning flow and command-line front end.

The run is staged: screen the full horizon for voltage violations,
reduce the problem in time (worst stress window) and space (clustered
candidate buses), size and place storage over the monitored window,
then validate day by day across the whole horizon. A failed validation
backtracks by adding the next-ranked window and re-planning, up to a
round cap. Reports are plain CSV/JSON files, byte-stable under a fixed
master seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .conic import SolverConfig
from .netmodel import (LoadProfileSet, NetworkError, load_network)
from .oep import (BessPlan, BessSpec, PlanError, TouTariff, _day_chunks,
                  build_toep, dispatch_day)
from .oep import plan as solve_plan
from .oep import savings_report, tou_dispatch
from .scenarios import (ScenarioError, detect_events, extract_ev_load,
                        fit_event_distributions, generate_annual,
                        overlay_penetration, read_distributions,
                        synth_households, write_distributions,
                        write_scenarios)
from .stat import (CandidateSet, DEFAULT_WEIGHTS, DEFAULT_WINDOW_DAYS,
                   METRICS, build_pool, candidate_rows, cluster,
                   combined_metric, daily_metrics, diversity_filter,
                   node_features, normalize_and_score, peak_severity_hour,
                   rank_windows, scored_day_rows, select_worst_window,
                   sensitivities, window_hours, window_rows)
from .vva import detect_violations, node_stats, run_vva, violation_records

BACKTRACK_CAP = 5


class StageError(RuntimeError):
    """A pipeline stage failed; the stage tag prefixes the message."""

    def __init__(self, stage, message):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


def _stage(tag, fn, *args, **kwargs):
    """Run one stage, tagging any foreign exception with its name."""
    try:
        return fn(*args, **kwargs)
    except StageError:
        raise
    except Exception as exc:
        raise StageError(tag, str(exc)) from exc


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class ScenarioParams:
    """Monte Carlo overlay knobs; seed is the pipeline's master seed."""

    n: int = 40
    daily_prob: float = 0.9
    penetration: float = 1.0
    growth: float = 1.0
    seed: int = 0


@dataclass(frozen=True)
class StatParams:
    weights: tuple = DEFAULT_WEIGHTS
    window_days: int = DEFAULT_WINDOW_DAYS
    alpha_eol: float = 1.0
    n_max_top: int = 5
    n_min_bottom: int = 1
    k_max: int = 10
    threshold: float | None = None   # electrical-distance threshold
    target: int | None = None        # diversity-filter target count


@dataclass(frozen=True)
class PvmConfig:
    """Resolved run configuration; all referenced files must exist."""

    network: str
    profiles: str
    tariff: str
    outdir: str
    scenarios: ScenarioParams = field(default_factory=ScenarioParams)
    stat: StatParams = field(default_factory=StatParams)
    bess: BessSpec = field(default_factory=BessSpec)
    solver: SolverConfig | None = None  # None: per-stage tuned defaults
    distributions: str | None = None    # optional fitted-KDE snapshot
    economics_scope: str = "window"     # "window" | "year"
    backtrack_cap: int = BACKTRACK_CAP
    threads: int = 1

    def __post_init__(self):
        for label, path in (("network", self.network),
                            ("profiles", self.profiles),
                            ("tariff", self.tariff)):
            if not os.path.isfile(path):
                raise StageError("config", f"{label} file not found: {path}")
        if self.distributions is not None and \
                not os.path.isfile(self.distributions):
            raise StageError(
                "config", f"distributions file not found: {self.distributions}")
        if self.economics_scope not in ("window", "year"):
            raise StageError(
                "config", f"economics_scope must be 'window' or 'year', "
                          f"got {self.economics_scope!r}")
        if self.backtrack_cap < 1:
            raise StageError("config", "backtrack_cap must be >= 1")
        if self.threads < 1:
            raise StageError("config", "threads must be >= 1")


_TOP_KEYS = {"network", "profiles", "tariff", "outdir", "scenarios", "stat",
             "bess", "solver", "distributions", "economics_scope",
             "backtrack_cap", "threads"}
_REQUIRED = ("network", "profiles", "tariff", "outdir")


def _section(doc, key, cls):
    sub = doc.get(key)
    if sub is None:
        return cls()
    if not isinstance(sub, dict):
        raise StageError("config", f"'{key}' must be a table of fields")
    allowed = {f.name for f in fields(cls)}
    unknown = set(sub) - allowed
    if unknown:
        raise StageError(
            "config", f"unknown keys in '{key}': {sorted(unknown)}")
    sub = {k: tuple(v) if isinstance(v, list) else v for k, v in sub.items()}
    try:
        return cls(**sub)
    except (TypeError, ValueError) as exc:
        raise StageError("config", f"'{key}': {exc}") from exc


def load_config(path) -> PvmConfig:
    """Parse a JSON config whose keys mirror PvmConfig exactly.

    Relative paths (including outdir) resolve against the config file's
    directory. Unknown keys anywhere are rejected.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise StageError("config", f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise StageError("config", f"malformed config: {exc}") from exc
    if not isinstance(doc, dict):
        raise StageError("config", "config root must be an object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise StageError("config", f"unknown config keys: {sorted(unknown)}")
    missing = [k for k in _REQUIRED if k not in doc]
    if missing:
        raise StageError("config", f"missing required keys: {missing}")

    base = os.path.dirname(os.path.abspath(path))

    def resolve(p):
        return p if p is None or os.path.isabs(p) else os.path.join(base, p)

    kv = {}
    for key in ("economics_scope", "backtrack_cap", "threads"):
        if key in doc:
            kv[key] = doc[key]
    return PvmConfig(
        network=resolve(doc["network"]),
        profiles=resolve(doc["profiles"]),
        tariff=resolve(doc["tariff"]),
        outdir=resolve(doc["outdir"]),
        scenarios=_section(doc, "scenarios", ScenarioParams),
        stat=_section(doc, "stat", StatParams),
        bess=_section(doc, "bess", BessSpec),
        solver=_section(doc, "solver", SolverConfig)
        if "solver" in doc else None,
        distributions=resolve(doc.get("distributions")),
        **kv)


def read_tariff(path, n_hours) -> TouTariff:
    """Load $/kWh prices: one value per line, '#' comments allowed.

    Exactly 24 values form a daily pattern tiled across the horizon;
    otherwise the file must cover the horizon and is truncated to it.
    """
    vals = []
    with open(path) as fh:
        for line in fh:
            s = line.split("#", 1)[0].strip()
            if s:
                vals.append(float(s))
    if not vals:
        raise ValueError(f"tariff file {path} has no prices")
    if len(vals) == 24:
        return TouTariff.from_daily_pattern(vals, n_hours)
    if len(vals) < n_hours:
        raise ValueError(
            f"tariff covers {len(vals)} hours, horizon needs {n_hours}")
    return TouTariff(np.asarray(vals[:n_hours]))


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class ValidationVerdict:
    """Outcome of one full-horizon validation round.

    hours/v_sq carry the validated voltages (relaxed re-solves included
    for failed days) for reporting; monitored lists the planning hours
    the round's plan was sized on.
    """

    passed: bool
    residuals: tuple          # ViolationRecord from relaxed re-solves
    infeasible_days: tuple    # first hour of each infeasible day
    round_index: int
    hours: tuple = ()
    v_sq: object = None       # (n_bus, len(hours))
    monitored: tuple = ()

    def __post_init__(self):
        if not self.passed and not (self.residuals or self.infeasible_days):
            raise ValueError(
                "failed verdict must carry residuals or infeasible days")


def validate_plan(net, profiles, plan_: BessPlan, spec=None, v_limits=None,
                  hours=None, cfg=None, threads: int = 1,
                  round_index: int = 0) -> ValidationVerdict:
    """Re-dispatch the frozen plan day by day with hard voltage limits.

    Every day solves a loss-minimizing operation with daily-cyclic SOC.
    The verdict passes iff all days are feasible; failed days get a
    relaxed re-solve (limits dropped) whose violations become the
    residual records.
    """
    spec = spec or plan_.spec
    if v_limits is None:
        v_limits = (net.v_lower, net.v_upper)
    if hours is None:
        hours = range(profiles.n_hours)
    days = _day_chunks(hours)
    caps = plan_.capacity_kwh

    def one(day):
        return dispatch_day(net, profiles, day, caps, spec, v_limits, cfg=cfg)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(one, days))
    else:
        parts = [one(d) for d in days]

    infeasible = []
    residuals = []
    blocks = []
    kept_hours = []
    for day, part in zip(days, parts):
        if part.status == "infeasible":
            infeasible.append(day[0])
            diag = dispatch_day(net, profiles, day, caps, spec, None, cfg=cfg)
            if diag.status != "infeasible":
                residuals.extend(violation_records(
                    net.ids, day, profiles.horizon[day], diag.v_sq,
                    *v_limits))
                blocks.append(diag.v_sq)
                kept_hours.extend(day)
        else:
            blocks.append(part.v_sq)
            kept_hours.extend(day)
    v_sq = np.hstack(blocks) if blocks else np.zeros((net.n_bus, 0))
    return ValidationVerdict(not infeasible, tuple(residuals),
                             tuple(infeasible), round_index,
                             tuple(kept_hours), v_sq)


def backtrack(used, ranked):
    """Grow the monitored set by the best-ranked window not yet used."""
    for w in ranked:
        if w not in used:
            return list(used) + [w]
    raise PlanError(
        "backtracking exhausted the ranked window list "
        f"({len(ranked)} windows, all monitored); the plan cannot cover "
        "the remaining infeasible days")


# ---------------------------------------------------------------------------
# report


@dataclass
class PvmReport:
    """Everything a run produced, in emission-ready form."""

    status: str               # pass | fail | no-investment | stopped:<stage>
    violations: tuple         # screening ViolationRecord rows
    bus_stats: tuple          # NodeViolationStats for violating buses
    scored_days: tuple        # DailyStress, scored
    windows: tuple            # ranked CriticalWindow list
    windows_used: tuple       # windows the final plan monitored
    candidates: CandidateSet | None
    plan: BessPlan | None
    verdicts: tuple           # ValidationVerdict per round
    economics: tuple          # savings_report rows
    summary_before: dict      # bus -> (min, q1, median, q3, max) p.u.
    summary_after: dict
    notes: tuple = ()

    def __post_init__(self):
        if self.status == "pass":
            last = self.verdicts[-1]
            if not (last.passed and not last.residuals):
                raise ValueError("pass status with a failing final verdict")
        if self.status == "no-investment" and self.violations:
            raise ValueError("no-investment status despite violations")


def _five_number(series):
    return (float(series.min()), float(np.percentile(series, 25.0)),
            float(np.median(series)), float(np.percentile(series, 75.0)),
            float(series.max()))


def voltage_summary(bus_ids, volts) -> dict:
    """Per-bus five-number summary of an (n_bus, T) voltage array."""
    return {b: _five_number(volts[i]) for i, b in enumerate(bus_ids)}


# ---------------------------------------------------------------------------
# the run


def _fit_panel_distributions(seed):
    """Fit event KDEs from the synthetic meter panel (no real data)."""
    comp, _, base = synth_households(seed=seed)
    ext = extract_ev_load(comp, base)
    events = [e for j in range(ext.shape[1]) for e in detect_events(ext[:, j])]
    return fit_event_distributions(events)


def _distributions_for(cfg: PvmConfig):
    if cfg.distributions is not None:
        return read_distributions(cfg.distributions)
    return _fit_panel_distributions(cfg.scenarios.seed)


def _overlaid_profiles(cfg, net, base):
    sp = cfg.scenarios
    dist = _distributions_for(cfg)
    days = math.ceil(base.n_hours / 24)
    scen = generate_annual(dist, sp.n, sp.daily_prob, seed=sp.seed,
                           days=days, threads=cfg.threads or None)
    return overlay_penetration(net, base, scen, sp.penetration, sp.growth,
                               sp.seed), scen


def run_pvm(cfg: PvmConfig, stop_after=None, economics=True) -> PvmReport:
    """Execute the staged flow; returns the report (no files written).

    stop_after in {"vva", "stat", "plan"} truncates the run for the
    matching CLI subcommand; economics=False skips the tariff dispatch
    comparison.
    """
    net = _stage("input", load_network, cfg.network)
    base = _stage("input", LoadProfileSet.from_csv, cfg.profiles)
    profiles, _ = _stage("scenarios", _overlaid_profiles, cfg, net, base)
    tariff = _stage("input", read_tariff, cfg.tariff, profiles.n_hours)

    sol = _stage("vva", run_vva, net, profiles, cfg=cfg.solver,
                 threads=cfg.threads)
    records = _stage("vva", detect_violations, sol, net.v_lower, net.v_upper)
    before = voltage_summary(sol.bus_ids, sol.voltage())

    if not records:
        return PvmReport(
            "no-investment", (), (), (), (), (), None, None, (), (),
            before, before,
            notes=("screening found no violations; no investment needed",))

    vbuses = sorted({r.bus for r in records})
    stats = tuple(node_stats(records, len(sol.hours), vbuses))
    if stop_after == "vva":
        return PvmReport("stopped:vva", tuple(records), stats, (), (), (),
                         None, None, (), (), before, {})

    st = cfg.stat
    days = _stage("stat", lambda: normalize_and_score(
        daily_metrics(records), st.weights))
    ranked = _stage("stat", rank_windows, days, st.window_days)
    if not ranked:
        # all-zero stress scores (single violating day): fall back to
        # the plain worst window
        ranked = [_stage("stat", select_worst_window, days, st.window_days)]

    p_kw, q_kvar = profiles.aligned(net)
    peak = _stage("stat", peak_severity_hour, records)
    sens = _stage("stat", sensitivities, net, p_kw[peak], q_kvar[peak],
                  vbuses, cfg=cfg.solver, threads=cfg.threads, hour=peak)
    feats = _stage("stat", node_features, net, records, len(sol.hours), sens)
    _stage("stat", combined_metric, feats, st.alpha_eol)
    _stage("stat", cluster, feats, k_max=st.k_max, seed=cfg.scenarios.seed)
    pool = _stage("stat", build_pool, feats, st.n_max_top, st.n_min_bottom)
    cset = _stage("stat", diversity_filter, pool, net,
                  threshold=st.threshold, target=st.target)

    if stop_after == "stat":
        return PvmReport("stopped:stat", tuple(records), stats, tuple(days),
                         tuple(ranked), (ranked[0],), cset, None, (), (),
                         before, {})

    # plan / validate / backtrack rounds
    used = [ranked[0]]
    windows_used = []
    monitored = []
    verdicts = []
    notes = []
    plan_ = None
    status = "fail"
    for round_index in range(cfg.backtrack_cap):
        windows_used = list(used)
        monitored = sorted({h for w in used for h in window_hours(w, profiles)})
        prog = _stage("plan", build_toep, net, profiles, monitored,
                      cset.buses, cfg.bess)
        plan_ = _stage("plan", solve_plan, prog, cfg.solver)
        if stop_after == "plan":
            return PvmReport("stopped:plan", tuple(records), stats,
                             tuple(days), tuple(ranked), tuple(used), cset,
                             plan_, (), (), before, {})
        verdict = _stage(
            "validate", validate_plan, net, profiles, plan_, spec=cfg.bess,
            cfg=cfg.solver, threads=cfg.threads, round_index=round_index)
        verdict = replace(verdict, monitored=tuple(monitored))
        verdicts.append(verdict)
        if verdict.passed:
            status = "pass"
            break
        try:
            used = backtrack(used, ranked)
        except PlanError as exc:
            notes.append(str(exc))
            break
    else:
        notes.append(f"backtrack cap {cfg.backtrack_cap} reached without a "
                     "passing validation")

    last = verdicts[-1]
    after = voltage_summary(net.ids, np.sqrt(last.v_sq)) \
        if len(last.hours) else {}

    rows = ()
    if economics and status == "pass":
        scope = monitored if cfg.economics_scope == "window" \
            else range(profiles.n_hours)
        empty = BessPlan.empty(spec=cfg.bess)
        base_run = _stage("economics", tou_dispatch, net, profiles, empty,
                          tariff, hours=scope, cfg=cfg.solver,
                          threads=cfg.threads)
        bess_run = _stage("economics", tou_dispatch, net, profiles, plan_,
                          tariff, hours=scope, cfg=cfg.solver,
                          threads=cfg.threads)
        label = cfg.economics_scope
        rows = tuple(savings_report(
            {label: (base_run.cost, base_run.losses_kwh)},
            {label: (bess_run.cost, bess_run.losses_kwh)}))

    return PvmReport(status, tuple(records), stats, tuple(days),
                     tuple(ranked), tuple(windows_used), cset, plan_,
                     tuple(verdicts), rows, before, after, tuple(notes))


# ---------------------------------------------------------------------------
# emission


def _cell(x):
    if isinstance(x, bool):
        return str(x)
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])


def emit_reports(report: PvmReport, outdir) -> dict:
    """Write the run's artifacts; returns {name: path}.

    Output is byte-stable for a fixed master seed: row orders are
    deterministic and floats are emitted with repr.
    """
    os.makedirs(outdir, exist_ok=True)
    paths = {}

    def out(name):
        paths[name] = os.path.join(outdir, name)
        return paths[name]

    _write_csv(out("violations.csv"),
               ["bus", "hour", "when", "voltage", "severity", "kind"],
               [(r.bus, r.hour, str(r.when), r.voltage, r.severity, r.kind)
                for r in report.violations])

    day_rows = scored_day_rows(report.scored_days)
    _write_csv(out("scored_days.csv"),
               list(day_rows[0]) if day_rows else
               ["date", "count", "total_sev", "max_sev", "duration", "score"],
               [list(row.values()) for row in day_rows])

    wrows = window_rows(report.windows)
    used = set(report.windows_used)
    _write_csv(out("windows.csv"),
               ["rank", "start", "end", "days", "score", "used"],
               [list(row.values()) + [report.windows[i] in used]
                for i, row in enumerate(wrows)])

    crows = candidate_rows(report.candidates) if report.candidates else []
    _write_csv(out("candidates.csv"),
               ["bus", "m_comb", "cluster", "accepted", "reason"],
               [[row["bus"], row["m_comb"], row["cluster"], row["accepted"],
                 row["reason"]] for row in crows])

    prows = []
    if report.plan is not None:
        prows = [(b, report.plan.installed[b], report.plan.capacity_kwh[b])
                 for b in report.plan.buses]
    _write_csv(out("plan.csv"), ["bus", "installed", "capacity_kwh"], prows)

    _write_csv(out("verdicts.csv"),
               ["round", "passed", "monitored_hours", "infeasible_days",
                "residual_count"],
               [(v.round_index, v.passed, len(v.monitored),
                 ";".join(str(d) for d in v.infeasible_days),
                 len(v.residuals)) for v in report.verdicts])

    _write_csv(out("economics.csv"),
               ["label", "cost $ w.o. BESS", "cost $ w. BESS",
                "cost $ Savings", "Savings %", "losses kWh w.o. BESS",
                "losses kWh w. BESS", "loss reduction kWh", "reduction %"],
               [(r["label"], r["cost_base"], r["cost_bess"],
                 r["cost_savings"], r["cost_savings_pct"], r["loss_base"],
                 r["loss_bess"], r["loss_reduction"],
                 r["loss_reduction_pct"]) for r in report.economics])

    vrows = []
    for phase, summary in (("before", report.summary_before),
                           ("after", report.summary_after)):
        for bus in sorted(summary):
            vrows.append((phase, bus) + summary[bus])
    _write_csv(out("voltage_summary.csv"),
               ["phase", "bus", "min", "q1", "median", "q3", "max"], vrows)

    summary = {
        "status": report.status,
        "violations": len(report.violations),
        "worst_voltage": min((r.voltage for r in report.violations
                              if r.kind == "under"), default=None),
        "windows_used": [[str(w.start), str(w.end)]
                         for w in report.windows_used],
        "candidate_buses": list(report.candidates.buses)
        if report.candidates else [],
        "plan_buses": sorted(b for b in (report.plan.installed or {})
                             if report.plan.installed[b])
        if report.plan else [],
        "total_capacity_kwh": report.plan.total_capacity_kwh()
        if report.plan else 0.0,
        "objective": report.plan.objective if report.plan else 0.0,
        "rounds": len(report.verdicts),
        "notes": list(report.notes),
    }
    with open(out("summary.json"), "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    return paths


# ---------------------------------------------------------------------------
# CLI


def _emit_scenarios(cfg: PvmConfig) -> int:
    """The `scenarios` subcommand: generate, overlay, persist."""
    net = _stage("input", load_network, cfg.network)
    base = _stage("input", LoadProfileSet.from_csv, cfg.profiles)
    dist = _stage("scenarios", _distributions_for, cfg)
    sp = cfg.scenarios
    scen = _stage("scenarios", generate_annual, dist, sp.n, sp.daily_prob,
                  seed=sp.seed, days=math.ceil(base.n_hours / 24),
                  threads=cfg.threads or None)
    overlaid = _stage("scenarios", overlay_penetration, net, base, scen,
                      sp.penetration, sp.growth, sp.seed)
    os.makedirs(cfg.outdir, exist_ok=True)
    write_scenarios(os.path.join(cfg.outdir, "scenarios.csv"), scen)
    write_distributions(os.path.join(cfg.outdir, "distributions.json"), dist)
    overlaid.to_csv(os.path.join(cfg.outdir, "profiles_overlaid.csv"))
    print(f"wrote {scen.n} scenarios and the overlaid profiles to "
          f"{cfg.outdir}")
    return 0


_STOP_FOR = {"vva": "vva", "stat": "stat", "plan": "plan"}


def build_parser():
    p = argparse.ArgumentParser(
        prog="bessplan",
        description="Screen a feeder for EV-induced voltage violations and "
                    "plan battery storage against them.")
    p.add_argument("command",
                   choices=["scenarios", "vva", "stat", "plan", "validate",
                            "economics", "run"])
    p.add_argument("--config", required=True, help="JSON run configuration")
    p.add_argument("--seed", type=int, default=None,
                   help="override the master seed")
    p.add_argument("--out", default=None, help="override the output directory")
    p.add_argument("--threads", type=int, default=None)
    return p


def _classify(exc: StageError) -> int:
    if exc.stage in ("config", "input"):
        return 2
    cause = exc.__cause__
    if isinstance(cause, (PlanError, ArithmeticError)):
        return 3
    if isinstance(cause, (NetworkError, ScenarioError, ValueError, KeyError,
                          TypeError, OSError)):
        return 2
    return 3


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = replace(cfg, scenarios=replace(cfg.scenarios,
                                                 seed=args.seed))
        if args.out is not None:
            cfg = replace(cfg, outdir=args.out)
        if args.threads is not None:
            cfg = replace(cfg, threads=args.threads)

        if args.command == "scenarios":
            return _emit_scenarios(cfg)

        report = run_pvm(cfg, stop_after=_STOP_FOR.get(args.command),
                         economics=args.command in ("economics", "run"))
        emit_reports(report, cfg.outdir)
        if args.command == "economics" and report.economics:
            for row in report.economics:
                print(f"{row['label']}: cost {row['cost_base']:.2f} -> "
                      f"{row['cost_bess']:.2f} $ (saves "
                      f"{row['cost_savings']:.2f}), losses "
                      f"{row['loss_base']:.1f} -> {row['loss_bess']:.1f} kWh")
        cap = report.plan.total_capacity_kwh() if report.plan else 0.0
        print(f"status={report.status} violations={len(report.violations)} "
              f"capacity_kwh={cap:.1f} reports={cfg.outdir}")
        return 0 if report.status != "fail" else 1
    except StageError as exc:
        print(exc, file=sys.stderr)
        return _classify(exc)
    except (NetworkError, ScenarioError, ValueError, OSError) as exc:
        print(f"[input] {exc}", file=sys.stderr)
        return 2
    except (PlanError, RuntimeError) as exc:
        print(f"[solver] {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
