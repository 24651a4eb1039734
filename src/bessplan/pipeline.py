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
plain CSV/JSON files, byte-stable under a fixed master seed. The program
runs on one thread: stages, days and solves run in order on the caller.

The command line exits 0 for any status but fail, 1 for fail, 2 for a
config or input error and 3 for a planning or solver one (_classify).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import typing
from dataclasses import MISSING, dataclass, field, fields, replace

import numpy as np

from .conic import SolverConfig
from .netmodel import (LoadProfileSet, NetworkError, check_growth,
                       load_network)
from .oep import (BessPlan, BessSpec, PlanError, TouTariff, build_toep,
                  certify_day, dispatch_day, residuals)
from .oep import plan as solve_plan
from .oep import savings_report, tou_dispatch
from .scenarios import (ScenarioError, check_scenario_count, check_share,
                        detect_events, extract_ev_load,
                        fit_event_distributions, generate_annual,
                        overlay_penetration, read_distributions,
                        synth_households, write_distributions,
                        write_scenarios)
from .stat import (CandidateSet, DEFAULT_WEIGHTS, DEFAULT_WINDOW_DAYS,
                   METRICS, build_pool, check_quotas, check_window_days,
                   checked_weights, cluster, combined_metric,
                   daily_metrics, diversity_filter, node_features,
                   normalize_and_score, peak_severity_hour, rank_windows,
                   sensitivities, window_hours)
# not called here: rank_windows ranks every violating day, so its first
# window is this choice. It stays a pipeline attribute because the
# benchmark's layer tracer (perfbench/layertrace.py) wraps it there.
from .stat import select_worst_window  # noqa: F401
from .vva import node_stats, run_vva, violation_records

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

    def __post_init__(self):
        check_scenario_count(self.n)
        check_share("daily_prob", self.daily_prob)
        check_share("penetration", self.penetration)
        check_growth(self.growth)


@dataclass(frozen=True)
class StatParams:
    weights: tuple = DEFAULT_WEIGHTS
    window_days: int = DEFAULT_WINDOW_DAYS
    alpha_eol: float = 1.0           # weight of the normalized leaf term
    n_max_top: int = 5
    n_min_bottom: int = 1
    k_max: int = 10
    threshold: float | None = None   # electrical-distance threshold
    target: int | None = None        # diversity-filter target count

    def __post_init__(self):
        checked_weights(self.weights)
        check_window_days(self.window_days)
        check_quotas(self.n_max_top, self.n_min_bottom)
        if self.k_max < 1:
            raise ValueError("k_max must be >= 1")
        if not 0.0 <= self.alpha_eol < math.inf:
            raise ValueError("alpha_eol must be finite and >= 0")
        if self.threshold is not None and not 0.0 <= self.threshold:
            raise ValueError("threshold must be None or >= 0")
        if self.target is not None and self.target < 1:
            raise ValueError("target must be None or >= 1")


@dataclass(frozen=True)
class PvmConfig:
    """Resolved run configuration; all referenced files must exist.

    threads is accepted and validated (an integer >= 1) but read by no
    code: the program runs on one thread, and the key is kept only so
    that existing configs load.
    """

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
    threads: int = 1  # unread: kept so that existing configs load

    def __post_init__(self):
        for label, path in (("network", self.network),
                            ("profiles", self.profiles),
                            ("tariff", self.tariff)):
            if not os.path.isfile(path):
                raise ValueError(f"{label} file not found: {path}")
        if self.distributions is not None and \
                not os.path.isfile(self.distributions):
            raise ValueError(
                f"distributions file not found: {self.distributions}")
        if self.economics_scope not in ("window", "year"):
            raise ValueError(f"economics_scope must be 'window' or 'year', "
                             f"got {self.economics_scope!r}")
        for name in ("backtrack_cap", "threads"):
            value = getattr(self, name)
            if type(value) is not int or value < 1:
                raise ValueError(f"{name} must be an integer >= 1")


_PATHS = ("network", "profiles", "tariff", "outdir", "distributions")
# table-valued keys of the config root and the dataclass each parses into
_SECTIONS = {"scenarios": ScenarioParams, "stat": StatParams,
             "bess": BessSpec, "solver": SolverConfig}
# the JSON value types a table field of each annotated type takes
_JSON_TYPES = {int: {int}, float: {int, float}, tuple: {list},
               type(None): {type(None)}}


def _section(doc, cls, key=None, base=""):
    """Build cls from one JSON table: the config root if key is None,
    else the table under key.

    Lists become tuples, tables parse into their _SECTIONS class (null
    or absent for the defaults) and relative paths join base. An unknown
    or missing key, a table value of a JSON type its field's annotation
    does not take (_JSON_TYPES), or another wrong type or bad value is a
    config error.
    """
    if not isinstance(doc, dict):
        raise StageError("config", f"'{key}' must be a table of fields"
                         if key else "config root must be an object")
    unknown = set(doc) - {f.name for f in fields(cls)}
    if unknown:
        raise StageError("config", f"unknown keys in '{key}': "
                         f"{sorted(unknown)}" if key else
                         f"unknown config keys: {sorted(unknown)}")
    missing = [f.name for f in fields(cls) if f.name not in doc and
               f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise StageError("config", f"missing required keys: {missing}")
    hints = typing.get_type_hints(cls) if key else {}
    kv = {}
    for name, value in doc.items():
        hint = hints.get(name)
        if hint and not any(type(value) in _JSON_TYPES[kind] for kind in
                            typing.get_args(hint) or (hint,)):
            raise StageError("config", f"'{key}': {name} must be "
                             f"{getattr(hint, '__name__', hint)}, not "
                             f"{json.dumps(value)}")
        if name in _SECTIONS:
            if value is None:
                continue
            value = _section(value, _SECTIONS[name], name)
        elif name in _PATHS and value is not None:
            if not isinstance(value, str):
                raise StageError("config", f"'{name}' must be a path string")
            value = os.path.join(base, value)
        elif isinstance(value, list):
            value = tuple(value)
        kv[name] = value
    try:
        return cls(**kv)
    except (TypeError, ValueError) as exc:
        raise StageError("config", f"'{key}': {exc}" if key else str(exc)) \
            from exc


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
    base = os.path.dirname(os.path.abspath(path))
    return _section(doc, PvmConfig, base=base)


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
    monitored: tuple
    certified_days: tuple

    @property
    def passed(self):
        return not self.residuals


def validate_plan(net, profiles, plan_: BessPlan, cfg=None,
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
    for day in days:
        if v_day[day[0]] is None:
            v_day[day[0]] = dispatch_day(
                net, profiles, day, plan_.capacity_kwh, plan_.spec,
                (net.v_lower, net.v_upper), cfg=cfg).v_sq
    v_sq = np.hstack([v_day[d[0]] for d in days])
    out = tuple(residuals(net, profiles, range(profiles.n_hours), v_sq))
    failed = {r.hour for r in out}
    return ValidationVerdict(
        out, tuple(d[0] for d in days if failed.intersection(d)),
        round_index, v_sq, plan_.hours, certified)


# ---------------------------------------------------------------------------
# report


@dataclass
class PvmReport:
    """Everything a run produced, in emission-ready form; what a run
    stopped before is left empty."""

    status: str               # pass | fail | no-investment | stopped:<stage>
    summary_before: dict      # bus -> (min, q1, median, q3, max) p.u.
    violations: tuple = ()    # screening ViolationRecord rows
    bus_stats: tuple = ()     # NodeViolationStats for violating buses
    scored_days: tuple = ()   # DailyStress, scored
    windows: tuple = ()       # ranked CriticalWindow list
    windows_used: tuple = ()  # windows the final plan monitored
    candidates: CandidateSet | None = None
    plan: BessPlan | None = None
    verdicts: tuple = ()      # ValidationVerdict per round
    economics: tuple = ()     # savings_report rows
    summary_after: dict = field(default_factory=dict)
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
                           days=days)
    return overlay_penetration(net, base, scen, sp.penetration, sp.growth,
                               sp.seed), scen, dist


def run_pvm(cfg: PvmConfig, command: str) -> PvmReport:
    """Execute the staged flow of one CLI command; returns the report (no
    files written).

    "vva", "stat" and "plan" stop after that stage, "validate",
    "economics" and "run" run every stage, and only "economics" and
    "run" price a passing plan by the tariff dispatch comparison.
    """
    net = _stage("input", load_network, cfg.network)
    base = _stage("input", LoadProfileSet.from_csv, cfg.profiles)
    profiles, _, _ = _stage("scenarios", _overlaid_profiles, cfg, net, base)
    tariff = _stage("input", read_tariff, cfg.tariff, profiles.hour_of_day)

    sol = _stage("vva", run_vva, net, profiles, cfg=cfg.solver)
    records = tuple(_stage("vva", violation_records, net.ids, sol.hours,
                           profiles.horizon[list(sol.hours)], sol.v_sq,
                           net.v_lower, net.v_upper))
    before = voltage_summary(net.ids, sol.voltage())

    if not records:
        return PvmReport(
            "no-investment", before, summary_after=before,
            notes=("screening found no violations; no investment needed",))

    vbuses = sorted({r.bus for r in records})
    stats = tuple(node_stats(records, len(sol.hours), vbuses))
    if command == "vva":
        return PvmReport("stopped:vva", before, records, stats)

    st = cfg.stat
    days = tuple(_stage("stat", lambda: normalize_and_score(
        daily_metrics(records), st.weights)))
    ranked = tuple(_stage("stat", rank_windows, days, st.window_days))

    p_kw, q_kvar = profiles.aligned(net)
    peak = _stage("stat", peak_severity_hour, records)
    sens = _stage("stat", sensitivities, net, p_kw[peak], q_kvar[peak],
                  vbuses, cfg=cfg.solver, hour=peak,
                  base=sol.voltage()[:, sol.hours.index(peak)])
    feats = _stage("stat", node_features, net, records, len(sol.hours), sens)
    _stage("stat", combined_metric, feats, st.alpha_eol)
    _stage("stat", cluster, feats, k_max=st.k_max, seed=cfg.scenarios.seed)
    pool = _stage("stat", build_pool, feats, st.n_max_top, st.n_min_bottom)
    cset = _stage("stat", diversity_filter, pool, net,
                  threshold=st.threshold, target=st.target)

    if command == "stat":
        return PvmReport("stopped:stat", before, records, stats, days, ranked,
                         ranked[:1], cset)

    # plan / validate rounds: round r sizes on the r + 1 best-ranked
    # windows, so a failed round backtracks to the next-ranked window
    verdicts = []
    notes = []
    status = "fail"
    for round_index in range(min(cfg.backtrack_cap, len(ranked))):
        used = ranked[:round_index + 1]
        monitored = sorted({h for w in used for h in window_hours(w, profiles)})
        prog = _stage("plan", build_toep, net, profiles, monitored,
                      cset.buses, cfg.bess)
        plan_ = _stage("plan", solve_plan, prog, cfg.solver)
        if command == "plan":
            return PvmReport("stopped:plan", before, records, stats, days,
                             ranked, used, cset, plan_)
        verdict = _stage(
            "validate", validate_plan, net, profiles, plan_, cfg=cfg.solver,
            round_index=round_index)
        verdicts.append(verdict)
        if verdict.passed:
            status = "pass"
            break
    else:
        if len(ranked) <= cfg.backtrack_cap:
            notes.append("backtracking exhausted the ranked window list "
                         f"({len(ranked)} windows, all monitored); the plan "
                         "cannot cover the remaining infeasible days")
        else:
            notes.append(f"backtrack cap {cfg.backtrack_cap} reached "
                         "without a passing validation")

    after = voltage_summary(net.ids, np.sqrt(verdicts[-1].v_sq))

    rows = ()
    if command in ("economics", "run") and status == "pass":
        scope = monitored if cfg.economics_scope == "window" \
            else range(profiles.n_hours)
        empty = BessPlan.empty(spec=cfg.bess)
        base_run = _stage("economics", tou_dispatch, net, profiles, empty,
                          tariff, hours=scope, cfg=cfg.solver)
        bess_run = _stage("economics", tou_dispatch, net, profiles, plan_,
                          tariff, hours=scope, cfg=cfg.solver)
        label = cfg.economics_scope
        rows = tuple(savings_report(
            {label: (base_run.cost, base_run.losses_kwh)},
            {label: (bess_run.cost, bess_run.losses_kwh)}))

    return PvmReport(status, before, records, stats, days, ranked, used, cset,
                     plan_, tuple(verdicts), rows, after, tuple(notes))


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

    _write_csv(out("scored_days.csv"),
               ["date", "count", "total_sev", "max_sev", "duration",
                "score"] + [f"norm_{k}" for k in METRICS],
               [[str(d.date), d.count, d.total_sev, d.max_sev, d.duration,
                 d.score] + [d.norm[k] for k in METRICS]
                for d in report.scored_days])

    _write_csv(out("windows.csv"),
               ["rank", "start", "end", "days", "score", "used"],
               [(i + 1, str(w.start), str(w.end), w.days, w.score,
                 w in report.windows_used)
                for i, w in enumerate(report.windows)])

    header = ["bus", "m_comb", "cluster", "accepted", "reason"]
    _write_csv(out("candidates.csv"), header,
               [[row[k] for k in header] for row in
                (report.candidates.provenance if report.candidates else ())])

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
        "plan_buses": sorted(b for b, on in report.plan.installed.items()
                             if on)
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
    return p


def _classify(exc: Exception) -> int:
    """Exit code of an exception main caught: 2 for a config or input
    error, 3 for a planning or solver one. A StageError is judged by its
    stage and its cause, any other exception, raised outside a stage,
    by itself."""
    if isinstance(exc, StageError):
        if exc.stage in ("config", "input"):
            return 2
        exc = exc.__cause__
    if isinstance(exc, (PlanError, ArithmeticError)):
        return 3
    if isinstance(exc, (NetworkError, ScenarioError, ValueError, KeyError,
                        TypeError, OSError)):
        return 2
    return 3


def _configure(args) -> PvmConfig:
    """The config file's PvmConfig with the command-line overrides."""
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, scenarios=replace(cfg.scenarios, seed=args.seed))
    if args.out is not None:
        cfg = replace(cfg, outdir=args.out)
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _stage("config", _configure, args)
        if args.command == "scenarios":
            return _emit_scenarios(cfg)

        report = run_pvm(cfg, args.command)
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
    except Exception as exc:
        # outside a stage main only writes the reports
        print(exc if isinstance(exc, StageError) else f"[output] {exc}",
              file=sys.stderr)
        return _classify(exc)


if __name__ == "__main__":
    sys.exit(main())
