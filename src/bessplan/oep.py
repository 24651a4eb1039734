"""Targeted storage expansion planning and dispatch on radial feeders.

build_toep assembles the capital-cost-minimizing sizing/placement
MISOCP over a reduced hour window and candidate-bus set: branch-flow
physics per hour with hard voltage limits, plus per-candidate storage
blocks (capacity gating, charge/discharge and reactive bounds gated by
binaries through computed big-M constants, SOC band, hourly energy
dynamics with cyclic closure at the window ends). plan() solves and
audits. tou_dispatch re-optimizes a fixed plan against an hourly
tariff, day by day.

Unit conventions: network flows in p.u. on the network bases; storage
power in kW, energy in kWh; the balance rows carry the kW -> p.u.
conversion factor so both live in one program.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .conic import ConicProgram, SolverConfig, solve_misocp
from .netmodel import LoadProfileSet, Network
from .vva import _hour_block


class PlanError(RuntimeError):
    """Planning failed; .hours carries the binding window hours if known."""

    def __init__(self, message, hours=()):
        super().__init__(message)
        self.hours = tuple(hours)


class AuditError(RuntimeError):
    """A solved plan failed a post-hoc physical audit."""


@dataclass(frozen=True)
class BessSpec:
    """Storage technology envelope and capital cost."""

    e_min_kwh: float = 0.0
    e_max_kwh: float = 1000.0
    soc_min: float = 0.1
    soc_max: float = 0.9
    soc_initial: float = 0.5
    eta_ch: float = 0.95
    eta_dis: float = 0.95
    c_rate_ch: float = 0.5    # 1/h
    c_rate_dis: float = 0.5   # 1/h
    kq_inj: float = 0.5       # kvar per kWh
    kq_abs: float = 0.5
    c_cap_per_kwh: float = 300.0

    def __post_init__(self):
        if not 0.0 <= self.soc_min < self.soc_max <= 1.0:
            raise ValueError("need 0 <= soc_min < soc_max <= 1")
        if not self.soc_min <= self.soc_initial <= self.soc_max:
            raise ValueError("soc_initial must lie in the SOC band")
        if not (0.0 < self.eta_ch <= 1.0 and 0.0 < self.eta_dis <= 1.0):
            raise ValueError("efficiencies must be in (0, 1]")
        if self.e_min_kwh < 0 or self.e_min_kwh > self.e_max_kwh:
            raise ValueError("need 0 <= e_min_kwh <= e_max_kwh")
        for rate in (self.c_rate_ch, self.c_rate_dis, self.kq_inj,
                     self.kq_abs, self.c_cap_per_kwh):
            if rate < 0:
                raise ValueError("rates and costs must be >= 0")

    def big_m_active(self):
        """kW cap decoupled from any particular solution."""
        return max(self.c_rate_ch, self.c_rate_dis) * self.e_max_kwh

    def big_m_reactive(self):
        return max(self.kq_inj, self.kq_abs) * self.e_max_kwh


@dataclass
class BessPlan:
    buses: tuple              # candidate bus ids, declaration order
    hours: tuple              # absolute planning hours (possibly gapped)
    installed: dict           # bus -> bool
    capacity_kwh: dict        # bus -> float
    charge_kw: dict           # bus -> (T,) array over self.hours
    discharge_kw: dict
    q_inj_kvar: dict
    q_abs_kvar: dict
    e_ess_kwh: dict           # end-of-hour stored energy
    e_start_kwh: dict         # anchor energy at each window start
    objective: float
    gap: float
    spec: BessSpec = field(default_factory=BessSpec)

    def total_capacity_kwh(self):
        return float(sum(self.capacity_kwh.values()))

    @classmethod
    def empty(cls, buses=(), spec=None):
        """Zero-investment plan (screening found nothing to fix)."""
        z = np.zeros(0)
        return cls(tuple(buses), (), {b: False for b in buses},
                   {b: 0.0 for b in buses}, {b: z for b in buses},
                   {b: z for b in buses}, {b: z for b in buses},
                   {b: z for b in buses}, {b: z for b in buses},
                   {b: 0.0 for b in buses}, 0.0, 0.0,
                   spec or BessSpec())


@dataclass(frozen=True)
class TouTariff:
    """Hourly energy prices ($/kWh) aligned with profile hour indices."""

    prices: np.ndarray

    def __post_init__(self):
        prices = np.asarray(self.prices, dtype=float)
        if prices.ndim != 1 or len(prices) == 0:
            raise ValueError("tariff needs a 1-d price schedule")
        if np.any(prices < 0):
            raise ValueError("tariff prices must be >= 0")
        object.__setattr__(self, "prices", prices)

    @classmethod
    def from_daily_pattern(cls, pattern24, n_hours):
        pattern24 = np.asarray(pattern24, dtype=float)
        if pattern24.shape != (24,):
            raise ValueError("daily pattern must have 24 entries")
        reps = int(np.ceil(n_hours / 24))
        return cls(np.tile(pattern24, reps)[:n_hours])

    def covers(self, hours):
        return max(hours) < len(self.prices) and min(hours) >= 0


def _segments(hours):
    """Split sorted unique hours into maximal contiguous runs."""
    hours = sorted(set(int(t) for t in hours))
    if not hours:
        raise ValueError("empty hour set")
    runs = [[hours[0]]]
    for t in hours[1:]:
        if t == runs[-1][-1] + 1:
            runs[-1].append(t)
        else:
            runs.append([t])
    return runs


def _day_chunks(hours):
    """Contiguous runs of the hours, cut into blocks of at most 24."""
    return [run[i:i + 24] for run in _segments(hours)
            for i in range(0, len(run), 24)]


def _storage_block(prog, spec, bus, hours, k_pu, cap_name, p_extra,
                   q_extra, bus_idx):
    """Variables and rows for one storage unit over contiguous hours.

    cap_name is either the Ecap variable name (sizing mode) or a float
    frozen capacity (dispatch mode). Returns the E-chain var names.
    """
    m_act = spec.big_m_active()
    m_rea = spec.big_m_reactive()
    sized = isinstance(cap_name, str)

    def cap_coeff(coeffs, factor, rhs=0.0):
        """coeffs + (-factor * capacity) <= rhs, folding constants."""
        if sized:
            coeffs[cap_name] = coeffs.get(cap_name, 0.0) - factor
            prog.add_ineq(coeffs, rhs)
        else:
            prog.add_ineq(coeffs, rhs + factor * cap_name)

    e_prev = None
    e_names = []
    cap_ub = spec.e_max_kwh if sized else cap_name
    for t in hours:
        pch = prog.add_var(f"Pch[{bus},{t}]", lb=0.0, ub=m_act)
        pdis = prog.add_var(f"Pdis[{bus},{t}]", lb=0.0, ub=m_act)
        qinj = prog.add_var(f"Qinj[{bus},{t}]", lb=0.0, ub=m_rea)
        qabs = prog.add_var(f"Qabs[{bus},{t}]", lb=0.0, ub=m_rea)
        uch = prog.add_var(f"uch[{bus},{t}]", binary=True)
        udis = prog.add_var(f"udis[{bus},{t}]", binary=True)
        uinj = prog.add_var(f"uinj[{bus},{t}]", binary=True)
        uabs = prog.add_var(f"uabs[{bus},{t}]", binary=True)
        e = prog.add_var(f"E[{bus},{t}]", lb=0.0,
                         ub=spec.soc_max * cap_ub)
        e_names.append(e)

        cap_coeff({pch: 1.0}, spec.c_rate_ch)
        prog.add_ineq({pch: 1.0, uch: -m_act}, 0.0)
        cap_coeff({pdis: 1.0}, spec.c_rate_dis)
        prog.add_ineq({pdis: 1.0, udis: -m_act}, 0.0)
        cap_coeff({qinj: 1.0}, spec.kq_inj)
        prog.add_ineq({qinj: 1.0, uinj: -m_rea}, 0.0)
        cap_coeff({qabs: 1.0}, spec.kq_abs)
        prog.add_ineq({qabs: 1.0, uabs: -m_rea}, 0.0)
        prog.add_ineq({uch: 1.0, udis: 1.0}, 1.0)
        prog.add_ineq({uinj: 1.0, uabs: 1.0}, 1.0)
        cap_coeff({e: 1.0}, spec.soc_max)
        cap_coeff({e: -1.0}, -spec.soc_min)

        dyn = {e: 1.0, pch: -spec.eta_ch, pdis: 1.0 / spec.eta_dis}
        if e_prev is None:
            if sized:
                dyn[cap_name] = -spec.soc_initial
                prog.add_eq(dyn, 0.0)
            else:
                prog.add_eq(dyn, spec.soc_initial * cap_name)
        else:
            dyn[e_prev] = -1.0
            prog.add_eq(dyn, 0.0)
        e_prev = e

        p_extra.setdefault(t, {}).setdefault(bus_idx, {})
        p_extra[t][bus_idx][pch] = -k_pu
        p_extra[t][bus_idx][pdis] = k_pu
        q_extra.setdefault(t, {}).setdefault(bus_idx, {})
        q_extra[t][bus_idx][qabs] = -k_pu
        q_extra[t][bus_idx][qinj] = k_pu

    if sized:
        prog.add_eq({e_prev: 1.0, cap_name: -spec.soc_initial}, 0.0)
    else:
        prog.add_eq({e_prev: 1.0}, spec.soc_initial * cap_name)
    return e_names


def _anchor_binaries(prog, obj):
    """Add a tiny tie-break cost to every binary in the program.

    Commitment binaries otherwise carry zero cost, so the relaxation has
    a flat optimal face (any z in [Ecap/Emax, 1] is optimal, same for
    the mode flags) and the interior-point endgame stalls just short of
    tolerance on that degenerate face. The anchor sits orders of
    magnitude below the real cost terms, so sizes and dispatch are
    unaffected; it only makes the relaxed binaries unique.
    """
    scale = max((abs(v) for v in obj.values()), default=1.0)
    eps = 1e-5 * max(1.0, scale)
    for name in prog.binaries:
        obj[name] = obj.get(name, 0.0) + eps


def build_toep(net: Network, profiles: LoadProfileSet, hours, candidates,
               spec: BessSpec, v_limits=None) -> ConicProgram:
    """Sizing/placement program over the given hours and candidate buses.

    hours may contain gaps; each maximal contiguous run carries its own
    SOC chain, anchored and cyclically closed at soc_initial. v_limits
    defaults to the network's (v_lower, v_upper).
    """
    candidates = list(candidates)
    if not candidates:
        raise ValueError("empty candidate set")
    for b in candidates:
        if b not in net.idx:
            raise ValueError(f"unknown candidate bus {b}")
        if net.idx[b] == net.slack:
            raise ValueError("slack bus cannot host storage")
    if len(set(candidates)) != len(candidates):
        raise ValueError("duplicate candidate buses")
    if v_limits is None:
        v_limits = (net.v_lower, net.v_upper)
    runs = _segments(hours)
    flat_hours = [t for run in runs for t in run]
    p_kw, q_kvar = profiles.aligned(net)
    if flat_hours[-1] >= p_kw.shape[0] or flat_hours[0] < 0:
        raise ValueError("window not covered by profiles")

    prog = ConicProgram(f"toep-{net.name}")
    k_pu = net.to_pu_power(1.0)
    obj = {}
    caps = {}
    for b in candidates:
        z = prog.add_var(f"z[{b}]", binary=True)
        cap = prog.add_var(f"Ecap[{b}]", lb=0.0, ub=spec.e_max_kwh)
        prog.add_ineq({z: spec.e_min_kwh, cap: -1.0}, 0.0)
        prog.add_ineq({cap: 1.0, z: -spec.e_max_kwh}, 0.0)
        obj[cap] = spec.c_cap_per_kwh
        caps[b] = cap

    p_extra = {}
    q_extra = {}
    for b in candidates:
        for run in runs:
            _storage_block(prog, spec, b, run, k_pu, caps[b], p_extra,
                           q_extra, net.idx[b])

    vb = (v_limits[0] ** 2, v_limits[1] ** 2)
    for t in flat_hours:
        p_pu = net.to_pu_power(p_kw[t])
        q_pu = net.to_pu_power(q_kvar[t])
        _hour_block(prog, net, p_pu, q_pu, t, net.slack_v(t) ** 2,
                    v_bounds=vb, p_extra=p_extra.get(t),
                    q_extra=q_extra.get(t))
    _anchor_binaries(prog, obj)
    prog.minimize(obj)
    prog._meta = {
        "kind": "toep", "net": net, "profiles": profiles,
        "candidates": tuple(candidates), "runs": runs, "spec": spec,
        "v_limits": v_limits,
    }
    return prog


def _collect_dispatch(res, buses, hours):
    def grab(prefix, b):
        return np.array([res.x[f"{prefix}[{b},{t}]"] for t in hours])

    out = {
        "charge_kw": {b: grab("Pch", b) for b in buses},
        "discharge_kw": {b: grab("Pdis", b) for b in buses},
        "q_inj_kvar": {b: grab("Qinj", b) for b in buses},
        "q_abs_kvar": {b: grab("Qabs", b) for b in buses},
        "e_ess_kwh": {b: grab("E", b) for b in buses},
    }
    return out


def audit_plan(plan: BessPlan, spec: BessSpec, runs, tol=1e-6):
    """Physical consistency checks on an extracted plan.

    Raises AuditError on: simultaneous charge/discharge or inj/abs,
    dispatch at uninstalled buses, SOC band escapes, energy dynamics
    replay drift beyond tol, or broken cyclic closure.
    """
    pos = {t: k for k, t in enumerate(plan.hours)}
    for b in plan.buses:
        cap = plan.capacity_kwh[b]
        ch, dis = plan.charge_kw[b], plan.discharge_kw[b]
        qi, qa = plan.q_inj_kvar[b], plan.q_abs_kvar[b]
        e = plan.e_ess_kwh[b]
        if not plan.installed[b]:
            if cap > tol or any(np.max(a, initial=0.0) > tol
                                for a in (ch, dis, qi, qa)):
                raise AuditError(f"bus {b}: dispatch without installation")
        both = np.minimum(ch, dis)
        if both.size and both.max() > tol:
            raise AuditError(f"bus {b}: simultaneous charge/discharge "
                             f"{both.max():.3e} kW")
        both = np.minimum(qi, qa)
        if both.size and both.max() > tol:
            raise AuditError(f"bus {b}: simultaneous reactive inj/abs "
                             f"{both.max():.3e} kvar")
        if e.size:
            if e.min() < spec.soc_min * cap - tol or \
                    e.max() > spec.soc_max * cap + tol:
                raise AuditError(f"bus {b}: stored energy outside SOC band")
        for run in runs:
            prev = plan.e_start_kwh[b]
            for t in run:
                k = pos[t]
                prev = prev + ch[k] * spec.eta_ch - dis[k] / spec.eta_dis
                if abs(prev - e[k]) > tol:
                    raise AuditError(f"bus {b} hour {t}: energy replay "
                                     f"drift {abs(prev - e[k]):.3e} kWh")
            if abs(prev - plan.e_start_kwh[b]) > tol:
                raise AuditError(f"bus {b}: window not cyclic "
                                 f"({prev:.6f} vs {plan.e_start_kwh[b]:.6f})")


def _planning_config() -> SolverConfig:
    """Default solver settings for the week-scale sizing programs.

    These relaxations are heavily dual-degenerate (thousands of big-M
    gates whose multipliers are not unique), so the interior point
    stalls around 1e-7 scaled residuals no matter how long it runs.
    1e-7 targets accept that plateau; plan feasibility is still audited
    independently at 1e-6 after extraction.
    """
    return SolverConfig(feas_tol=1e-7, cone_tol=1e-7)


def plan(prog: ConicProgram, cfg: SolverConfig | None = None) -> BessPlan:
    """Solve a build_toep program and extract the audited plan."""
    meta = getattr(prog, "_meta", None)
    if not meta or meta.get("kind") != "toep":
        raise ValueError("prog must come from build_toep")
    cfg = cfg or _planning_config()
    res = solve_misocp(prog, cfg)
    if res.status == "infeasible":
        hours = _binding_hours(meta)
        raise PlanError(
            "violations cannot be fixed within the capacity caps; "
            f"binding hours: {list(hours)}", hours)
    if res.status == "unbounded":
        raise PlanError("planning program unbounded (bad inputs)")

    spec = meta["spec"]
    buses = meta["candidates"]
    runs = meta["runs"]
    hours = tuple(t for run in runs for t in run)
    disp = _collect_dispatch(res, buses, hours)
    caps = {b: float(res.x[f"Ecap[{b}]"]) for b in buses}
    installed = {b: res.x[f"z[{b}]"] >= 0.5 for b in buses}
    # investment cost only; the solver objective also carries the
    # binary tie-break anchor
    cost = sum(spec.c_cap_per_kwh * c for c in caps.values())
    out = BessPlan(
        buses=buses, hours=hours, installed=installed,
        capacity_kwh=caps, objective=cost,
        gap=res.gap if res.gap is not None else math.nan,
        e_start_kwh={b: spec.soc_initial * caps[b] for b in buses},
        spec=spec, **disp)
    audit_plan(out, spec, runs)
    return out


def _binding_hours(meta):
    """Window hours that violate limits even before any storage exists."""
    from .vva import detect_violations, run_vva
    net = meta["net"]
    hours = [t for run in meta["runs"] for t in run]
    sol = run_vva(net, meta["profiles"], hours=hours)
    v_lo, v_hi = meta["v_limits"]
    return sorted({r.hour for r in detect_violations(sol, v_lo, v_hi)})


@dataclass
class DayDispatch:
    hours: tuple
    status: str
    cost: float               # $ under the day's prices (0 for loss runs)
    losses_kwh: float
    v_sq: np.ndarray          # (n_bus, len(hours))
    storage: dict             # field -> {bus: (T,) array}


def dispatch_day(net, profiles, hours, capacity_kwh, spec, v_limits,
                 prices=None, cfg=None):
    """Operate fixed storage over one contiguous hour run.

    Loss-minimizing when prices is None, else minimizes energy cost at
    the slack injection. Cyclic SOC anchored at soc_initial. Buses
    with zero capacity contribute no variables, so a zero plan is the
    plain network model.
    """
    cfg = cfg or _planning_config()
    runs = _segments(hours)
    if len(runs) != 1:
        raise ValueError("dispatch_day needs contiguous hours")
    hours = runs[0]
    p_kw, q_kvar = profiles.aligned(net)
    if hours[-1] >= p_kw.shape[0]:
        raise ValueError("hours not covered by profiles")
    active = {b: c for b, c in capacity_kwh.items() if c > 1e-9}

    prog = ConicProgram(f"dispatch-{net.name}-{hours[0]}")
    k_pu = net.to_pu_power(1.0)
    p_extra = {}
    q_extra = {}
    for b, cap in active.items():
        _storage_block(prog, spec, b, hours, k_pu, float(cap), p_extra,
                       q_extra, net.idx[b])
    vb = None if v_limits is None else \
        (v_limits[0] ** 2, v_limits[1] ** 2)
    obj = {}
    for t in hours:
        _hour_block(prog, net, net.to_pu_power(p_kw[t]),
                    net.to_pu_power(q_kvar[t]), t, net.slack_v(t) ** 2,
                    v_bounds=vb, p_extra=p_extra.get(t),
                    q_extra=q_extra.get(t))
        if prices is None:
            for e in range(net.n_branch):
                name = f"l[{e},{t}]"
                obj[name] = obj.get(name, 0.0) + net.r[e]
        else:
            # $ per hour = price ($/kWh) * slack injection (kW) * 1 h
            obj[f"Ps[{t}]"] = float(prices[t]) * 1000.0 * net.s_base_mva
    _anchor_binaries(prog, obj)
    prog.minimize(obj)

    res = solve_misocp(prog, cfg)
    n, T = net.n_bus, len(hours)
    if res.status == "infeasible":
        return DayDispatch(tuple(hours), "infeasible", math.inf,
                           math.inf, np.zeros((n, 0)), {})
    if res.status not in ("optimal", "gap-limit"):
        raise RuntimeError(f"dispatch solve failed: {res.status}")
    v_sq = np.array([[res.x[f"v[{i},{t}]"] for t in hours]
                     for i in range(n)])
    losses_pu = sum(net.r[e] * res.x[f"l[{e},{t}]"]
                    for e in range(net.n_branch) for t in hours)
    losses_kwh = losses_pu * 1000.0 * net.s_base_mva
    cost = 0.0
    if prices is not None:
        cost = sum(float(prices[t]) * 1000.0 * net.s_base_mva *
                   res.x[f"Ps[{t}]"] for t in hours)
    storage = _collect_dispatch(res, list(active), hours) if active else {}
    return DayDispatch(tuple(hours), "optimal", cost, losses_kwh, v_sq,
                       storage)


@dataclass
class TouResult:
    cost: float
    losses_kwh: float
    days: tuple               # per-day DayDispatch


def tou_dispatch(net, profiles, plan_: BessPlan, tariff: TouTariff,
                 v_limits=None, hours=None, cfg=None,
                 threads: int = 1) -> TouResult:
    """Cost-optimal operation of a fixed plan under an hourly tariff.

    Days solve independently (daily-cyclic SOC); infeasible days raise
    with the day's first hour named.
    """
    if hours is None:
        hours = range(profiles.n_hours)
    hours = sorted(set(int(t) for t in hours))
    if not tariff.covers(hours):
        raise ValueError("tariff does not cover the requested hours")
    spec = plan_.spec
    days = _day_chunks(hours)

    def one(day):
        return dispatch_day(net, profiles, day, plan_.capacity_kwh,
                            spec, v_limits, prices=tariff.prices, cfg=cfg)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(one, days))
    else:
        parts = [one(d) for d in days]
    for day, part in zip(days, parts):
        if part.status == "infeasible":
            raise PlanError(f"dispatch infeasible on day starting hour "
                            f"{day[0]}", day)
    return TouResult(sum(p.cost for p in parts),
                     sum(p.losses_kwh for p in parts), tuple(parts))


def savings_report(baseline: dict, with_bess: dict) -> list:
    """Rows of absolute and relative savings per labeled run.

    baseline / with_bess: label -> (cost, losses); labels must match.
    """
    if set(baseline) != set(with_bess):
        raise ValueError("mismatched run labels between the two sides")
    rows = []
    for label in baseline:
        c0, l0 = baseline[label]
        c1, l1 = with_bess[label]
        rows.append({
            "label": label,
            "cost_base": c0, "cost_bess": c1,
            "cost_savings": c0 - c1,
            "cost_savings_pct": 100.0 * (c0 - c1) / c0 if c0 else 0.0,
            "loss_base": l0, "loss_bess": l1,
            "loss_reduction": l0 - l1,
            "loss_reduction_pct": 100.0 * (l0 - l1) / l0 if l0 else 0.0,
        })
    return rows
