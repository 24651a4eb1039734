"""End-to-end planning flow and command-line front end.

The run is staged: screen the full horizon for voltage violations,
reduce the problem in time (worst stress window) and space (clustered
candidate buses), size and place storage over the monitored window, then
validate day by day across the whole horizon. A day is a calendar date
of the profile horizon's timestamps (LoadProfileSet.days), the same days
stat scores and sizing chains, and a daily tariff prices each hour by
its clock hour. A day the plan's own schedule holds under the exact
power flow passes without a solve, every other day takes one elastic
convex solve and is judged on the exact power flow of the schedule it
returns; branch-and-bound runs in sizing alone, over the installation
flags of a minimum unit size. A failed validation backtracks by adding
the next-ranked window and re-planning, up to a round cap. Reports are
plain CSV/JSON files, byte-stable under a fixed master seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass, field, fields, replace

import numpy as np

from ._parallel import pmap
from .conic import SolverConfig
from .netmodel import (LoadProfileSet, NetworkError, load_network)
from .oep import (BessPlan, BessSpec, PlanError, TouTariff, build_toep,
                  certify_day, dispatch_day, residuals)
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
                   rank_windows, scored_day_rows, sensitivities,
                   window_hours, window_rows)
# not called here: rank_windows ranks every violating day, so its first
# window is this choice. It stays a pipeline attribute because the
# benchmark's layer tracer (perfbench/layertrace.py) wraps it there.
from .stat import select_worst_window  # noqa: F401
from .vva import detect_violations, node_stats, run_vva

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


_TOP_KEYS = {f.name for f in fields(PvmConfig)}
_REQUIRED = ("network", "profiles", "tariff", "outdir")
_PATHS = _REQUIRED + ("distributions",)
# table-valued keys and the dataclass each parses into; every other
# key is taken as written
_SECTIONS = {"scenarios": ScenarioParams, "stat": StatParams,
             "bess": BessSpec, "solver": SolverConfig}


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
    for f in fields(PvmConfig):
        if f.name not in doc:
            continue
        if f.name in _SECTIONS:
            kv[f.name] = _section(doc, f.name, _SECTIONS[f.name])
        elif f.name in _PATHS:
            kv[f.name] = resolve(doc[f.name])
        else:
            kv[f.name] = doc[f.name]
    return PvmConfig(**kv)


def read_tariff(path, hour_of_day) -> TouTariff:
    """Load $/kWh prices for the profile rows whose clock hours
    (LoadProfileSet.hour_of_day) are given: one value per line, '#'
    comments allowed.

    Exactly 24 values form a daily pattern indexed by clock hour, 0 at
    midnight; otherwise the file gives one price per row, must cover
    the horizon and is truncated to it.
    """
    n_hours = len(hour_of_day)
    vals = []
    with open(path) as fh:
        for line in fh:
            s = line.split("#", 1)[0].strip()
            if s:
                vals.append(float(s))
    if not vals:
        raise ValueError(f"tariff file {path} has no prices")
    if len(vals) == 24:
        return TouTariff.from_daily_pattern(vals, hour_of_day)
    if len(vals) < n_hours:
        raise ValueError(
            f"tariff covers {len(vals)} hours, horizon needs {n_hours}")
    return TouTariff(np.asarray(vals[:n_hours]))


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class ValidationVerdict:
    """Outcome of one full-horizon validation round.

    v_sq carries the validated voltages of every horizon hour for
    reporting: on a certified day the exact power flow of the plan's own
    schedule, on every other day that of the elastic dispatch's
    schedule. residuals are the bus-hours more than VALIDATION_TOL
    outside the limits, and infeasible_days the first hour of each day
    they fall on, a day the plan cannot hold within the hard limits.
    certified_days lists the first hour of each day passed without a
    solve. monitored lists the planning hours the round's plan was sized
    on.
    """

    residuals: tuple          # ViolationRecord beyond VALIDATION_TOL
    infeasible_days: tuple    # first hour of each day with a residual
    round_index: int
    v_sq: np.ndarray          # (n_bus, n_hours)
    monitored: tuple = ()
    certified_days: tuple = ()

    @property
    def passed(self):
        return not self.residuals


def validate_plan(net, profiles, plan_: BessPlan, cfg=None, threads: int = 1,
                  round_index: int = 0) -> ValidationVerdict:
    """Check the frozen plan calendar day by calendar day
    (LoadProfileSet.days) over the whole horizon.

    A day inside the sized window whose own schedule holds the limits
    under the exact power flow is certified without a solve
    (oep.certify_day). Every other day is one loss-minimizing operation
    of the plan's storage (plan_.spec) with daily-cyclic SOC and the
    network's voltage limits made elastic: one convex solve, whose
    netted schedule's exact power flow gives the day's voltages (see
    dispatch_day). So only a branch current cap or a load the feeder
    cannot carry makes a day infeasible (PlanError), and only this
    dispatch can fail a day. The verdict passes iff no voltage ends
    more than oep.VALIDATION_TOL p.u. outside the limits; the ones that
    do are the residual records (oep.residuals).
    """
    days = profiles.days()
    v_day = {d[0]: certify_day(net, profiles, plan_, d) for d in days}
    certified = tuple(t for t, v in v_day.items() if v is not None)
    open_days = [d for d in days if v_day[d[0]] is None]

    def one(day):
        return dispatch_day(net, profiles, day, plan_.capacity_kwh,
                            plan_.spec, (net.v_lower, net.v_upper), cfg=cfg)

    for day, part in zip(open_days, pmap(one, open_days, threads)):
        v_day[day[0]] = part.v_sq
    v_sq = np.hstack([v_day[d[0]] for d in days])
    out = tuple(residuals(net, profiles, range(profiles.n_hours), v_sq))
    failed = {r.hour for r in out}
    return ValidationVerdict(
        out, tuple(d[0] for d in days if failed.intersection(d)),
        round_index, v_sq, certified_days=certified)


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
        if self.status == "pass" and not self.verdicts[-1].passed:
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
    """(overlaid profiles, charger scenarios, their distributions)."""
    sp = cfg.scenarios
    dist = _distributions_for(cfg)
    # scenario hour 0 is midnight; overlay_penetration aligns it with
    # the clock hour of the first profile row
    days = math.ceil((base.hour_of_day[0] + base.n_hours) / 24)
    scen = generate_annual(dist, sp.n, sp.daily_prob, seed=sp.seed,
                           days=days, threads=cfg.threads)
    return overlay_penetration(net, base, scen, sp.penetration, sp.growth,
                               sp.seed), scen, dist


def run_pvm(cfg: PvmConfig, stop_after=None, economics=True) -> PvmReport:
    """Execute the staged flow; returns the report (no files written).

    stop_after "vva", "stat" or "plan" truncates the run after that
    stage, for the matching CLI subcommand; any other value runs every
    stage. economics=False skips the tariff dispatch comparison.
    """
    net = _stage("input", load_network, cfg.network)
    base = _stage("input", LoadProfileSet.from_csv, cfg.profiles)
    profiles, _, _ = _stage("scenarios", _overlaid_profiles, cfg, net, base)
    tariff = _stage("input", read_tariff, cfg.tariff, profiles.hour_of_day)

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

    p_kw, q_kvar = profiles.aligned(net)
    peak = _stage("stat", peak_severity_hour, records)
    sens = _stage("stat", sensitivities, net, p_kw[peak], q_kvar[peak],
                  vbuses, cfg=cfg.solver, threads=cfg.threads, hour=peak,
                  base=sol.voltage()[:, sol.hours.index(peak)])
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
            "validate", validate_plan, net, profiles, plan_, cfg=cfg.solver,
            threads=cfg.threads, round_index=round_index)
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

    after = voltage_summary(net.ids, np.sqrt(verdicts[-1].v_sq))

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
        # repr(np.float64) is "np.float64(...)" under NumPy 2
        return repr(float(x))
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
    if report.plan is not None:
        # relative distance of the sizing incumbent from its bound
        summary["plan_gap"] = report.plan.gap
    if report.verdicts:
        # days the final round passed on the plan's own schedule
        summary["certified_days"] = len(report.verdicts[-1].certified_days)
    with open(out("summary.json"), "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    return paths


# ---------------------------------------------------------------------------
# CLI


def _emit_scenarios(cfg: PvmConfig) -> int:
    """The `scenarios` subcommand: generate, overlay, persist."""
    net = _stage("input", load_network, cfg.network)
    base = _stage("input", LoadProfileSet.from_csv, cfg.profiles)
    overlaid, scen, dist = _stage("scenarios", _overlaid_profiles, cfg, net,
                                  base)
    os.makedirs(cfg.outdir, exist_ok=True)
    write_scenarios(os.path.join(cfg.outdir, "scenarios.csv"), scen)
    write_distributions(os.path.join(cfg.outdir, "distributions.json"), dist)
    overlaid.to_csv(os.path.join(cfg.outdir, "profiles_overlaid.csv"))
    print(f"wrote {scen.n} scenarios and the overlaid profiles to "
          f"{cfg.outdir}")
    return 0


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

        report = run_pvm(cfg, stop_after=args.command,
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
