"""Targeted storage expansion planning and dispatch on radial feeders.

build_toep assembles the capital-cost-minimizing sizing/placement
program over a reduced hour window and candidate-bus set: branch-flow
physics per hour with hard voltage limits, plus per-candidate storage
blocks (charge, discharge and one signed reactive output within the
capacity's rate and kvar bands, SOC band, hourly energy dynamics with
daily-cyclic closure). A day is a calendar date of the profile horizon
(LoadProfileSet.days), so sizing, validation and pricing cut the same
days wherever the horizon starts. Its only binaries are the
per-candidate installation flags z of a minimum unit size e_min_kwh > 0;
without one sizing is a single convex solve. plan() solves it (by
branch-and-bound when there are flags, the only mixed-integer solve
here), nets and audits the result, and when the solve returns no plan
tells a window no capacity can fix from a solver failure. dispatch_day
operates a fixed plan over one calendar day by one convex solve of the
same storage model (_feeder builds both programs), its capacities
substituted as constants as branch-and-bound substitutes a binary, with
the voltage limits elastic when it validates, and reports the exact
power flow (by sweep) of the netted schedule; a day without storage is
that power flow alone. certify_day passes a day of the sized window on
the plan's own schedule and the power flow, without a solve.
tou_dispatch re-optimizes a fixed plan against an hourly tariff, day by
day; a daily tariff pattern prices each row by its clock hour.

Unit conventions: network flows in p.u. on the network bases; storage
power in kW, energy in kWh; the balance rows carry the kW -> p.u.
conversion factor so both live in one program.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ._parallel import pmap
from .conic import (ConicProgram, SolverConfig, solve_misocp,
                    solve_relaxation)
from .netmodel import LoadProfileSet, Network
from .vva import PowerFlowError, _hour_block, power_flow, violation_records

# cost of an elastic voltage limit per p.u. of v^2 it gives: far above
# the loss terms, so a day that can hold the limits does
VIOLATION_PENALTY = 100.0
# tolerance (kWh, kW, kvar) of the physical plan audit
AUDIT_TOL = 1e-6
# p.u. a validated voltage may end outside the limits: above the
# interior point's noise on a plan sized to the limits (about 3e-7)
VALIDATION_TOL = 5e-7


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


@dataclass
class BessPlan:
    buses: tuple              # candidate bus ids, declaration order
    hours: tuple              # absolute planning hours (possibly gapped)
    installed: dict           # bus -> bool
    capacity_kwh: dict        # bus -> float
    charge_kw: dict           # bus -> (T,) array over self.hours
    discharge_kw: dict
    q_kvar: dict              # reactive output, > 0 injects, < 0 absorbs
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
                   {b: z for b in buses},
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
    def from_daily_pattern(cls, pattern24, hour_of_day):
        """Row t pays pattern24[hour_of_day[t]], its clock hour's price."""
        pattern24 = np.asarray(pattern24, dtype=float)
        if pattern24.shape != (24,):
            raise ValueError("daily pattern must have 24 entries")
        return cls(pattern24[np.asarray(hour_of_day)])

    def covers(self, hours):
        return max(hours) < len(self.prices) and min(hours) >= 0


def _storage_block(prog, spec, bus, hours, cap):
    """Variables and rows for one storage unit over contiguous hours,
    sized by the capacity variable cap; returns {hour: (Pch, Pdis, Qb)}.

    Sizing leaves cap free; dispatch fixes it at the installed size,
    substituted as branch-and-bound substitutes a binary
    (solve_relaxation's fixes). No binary gates charge and discharge,
    and no bound repeats a capacity row: the schedule is netted after
    the solve (_collect_dispatch).
    """
    out = {}
    e_prev = None
    for t in hours:
        pch = prog.add_var(f"Pch[{bus},{t}]", lb=0.0)
        pdis = prog.add_var(f"Pdis[{bus},{t}]", lb=0.0)
        qb = prog.add_var(f"Qb[{bus},{t}]")    # the capacity rows bound it
        e = prog.add_var(f"E[{bus},{t}]")      # and the SOC band rows E
        for coeffs, factor in (({pch: 1.0}, spec.c_rate_ch),
                               ({pdis: 1.0}, spec.c_rate_dis),
                               ({qb: 1.0}, spec.kq_inj),
                               ({qb: -1.0}, spec.kq_abs),
                               ({e: 1.0}, spec.soc_max),
                               ({e: -1.0}, -spec.soc_min)):
            prog.add_ineq({**coeffs, cap: -factor}, 0.0)
        dyn = {e: 1.0, pch: -spec.eta_ch, pdis: 1.0 / spec.eta_dis}
        if e_prev is None:
            dyn[cap] = -spec.soc_initial
        else:
            dyn[e_prev] = -1.0
        prog.add_eq(dyn, 0.0)
        e_prev = e
        out[t] = (pch, pdis, qb)
    prog.add_eq({e_prev: 1.0, cap: -spec.soc_initial}, 0.0)
    return out


def _feeder(prog, net, profiles, runs, caps, spec, v_bounds=None):
    """Branch-flow hour blocks over every hour of runs, with one storage
    chain per run for each unit of caps ({bus: capacity variable})
    injecting at its bus; returns {hour: that hour's v names}.

    v_bounds, if given, is _hour_block's (v_lo_sq, v_hi_sq).
    """
    k_pu = net.to_pu_power(1.0)
    p_extra, q_extra = {}, {}
    for b, cap in caps.items():
        i = net.idx[b]
        for run in runs:
            for t, (pch, pdis, qb) in \
                    _storage_block(prog, spec, b, run, cap).items():
                p_extra.setdefault(t, {})[i] = {pch: -k_pu, pdis: k_pu}
                q_extra.setdefault(t, {})[i] = {qb: k_pu}
    p_kw, q_kvar = profiles.aligned(net)
    return {t: _hour_block(prog, net, net.to_pu_power(p_kw[t]),
                           net.to_pu_power(q_kvar[t]), t,
                           net.slack_v(t) ** 2, v_bounds=v_bounds,
                           p_extra=p_extra.get(t),
                           q_extra=q_extra.get(t))[0]
            for run in runs for t in run}


def _anchor_binaries(prog, obj):
    """Add a tiny tie-break cost to every installation flag z of a
    sizing program (the only binaries any program declares).

    The flags otherwise carry zero cost, so the relaxation has a flat
    optimal face (any z in [Ecap/Emax, 1] is optimal) and the
    interior-point endgame stalls just short of tolerance on that
    degenerate face. The anchor sits orders of magnitude below the real
    cost terms, so sizes and dispatch are unaffected; it only makes the
    relaxed flags unique.
    """
    scale = max((abs(v) for v in obj.values()), default=1.0)
    eps = 1e-5 * max(1.0, scale)
    for name in prog.binaries:
        obj[name] = obj.get(name, 0.0) + eps


def build_toep(net: Network, profiles: LoadProfileSet, hours, candidates,
               spec: BessSpec) -> ConicProgram:
    """Sizing/placement program over the given hours and candidate buses.

    hours may contain gaps. Each day of it (a block of at most 24
    contiguous hours on one calendar date, LoadProfileSet.days, as
    validation cuts them) carries its own SOC chain, anchored and
    cyclically closed at soc_initial, so the days share only the
    investment variables and every day's schedule is a feasible
    operation of the daily-cyclic dispatch_day. Every non-slack
    bus is held within the network's voltage limits. A candidate gets
    an installation flag z only when a unit has a minimum size
    (spec.e_min_kwh > 0): without one, Ecap <= e_max_kwh * z holds at
    z = 1 for every Ecap, so the flag could not change the answer.
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
    runs = profiles.days(hours)

    prog = ConicProgram(f"toep-{net.name}")
    obj = {}
    caps = {}
    for b in candidates:
        cap = prog.add_var(f"Ecap[{b}]", lb=0.0, ub=spec.e_max_kwh)
        if spec.e_min_kwh > 0:
            z = prog.add_var(f"z[{b}]", binary=True)
            prog.add_ineq({z: spec.e_min_kwh, cap: -1.0}, 0.0)
            prog.add_ineq({cap: 1.0, z: -spec.e_max_kwh}, 0.0)
        obj[cap] = spec.c_cap_per_kwh
        caps[b] = cap
    _feeder(prog, net, profiles, runs, caps, spec,
            v_bounds=(net.v_lower ** 2, net.v_upper ** 2))
    _anchor_binaries(prog, obj)
    prog.minimize(obj)
    prog._meta = {
        "kind": "toep", "net": net, "profiles": profiles,
        "candidates": tuple(candidates), "runs": runs, "spec": spec,
    }
    return prog


def _collect_dispatch(res, buses, hours, spec):
    """The storage schedule of res over hours, each hour netted at
    unchanged stored energy: with dE = eta_ch * Pch - Pdis / eta_dis,
    Pch becomes max(dE, 0) / eta_ch and Pdis max(-dE, 0) * eta_dis.

    The netted schedule keeps every stored energy, meets every rate and
    reactive row, and only lowers the load, so no program needs a binary
    to exclude simultaneous charge and discharge (Li, Guo, Sun & Wang,
    IEEE TPWRS 2016).
    """
    def grab(prefix, b):
        return np.array([res.x[f"{prefix}[{b},{t}]"] for t in hours])

    out = {"charge_kw": {}, "discharge_kw": {},
           "q_kvar": {b: grab("Qb", b) for b in buses},
           "e_ess_kwh": {b: grab("E", b) for b in buses}}
    for b in buses:
        de = spec.eta_ch * grab("Pch", b) - grab("Pdis", b) / spec.eta_dis
        out["charge_kw"][b] = np.maximum(de, 0.0) / spec.eta_ch
        out["discharge_kw"][b] = np.maximum(-de, 0.0) * spec.eta_dis
    return out


def audit_plan(plan: BessPlan, spec: BessSpec, runs):
    """Physical consistency checks on an extracted plan.

    Raises AuditError on: simultaneous charge/discharge, dispatch at
    uninstalled buses, SOC band escapes, energy dynamics replay drift
    beyond AUDIT_TOL, or broken cyclic closure.
    """
    pos = {t: k for k, t in enumerate(plan.hours)}
    for b in plan.buses:
        cap = plan.capacity_kwh[b]
        ch, dis = plan.charge_kw[b], plan.discharge_kw[b]
        e = plan.e_ess_kwh[b]
        if not plan.installed[b]:
            if cap > AUDIT_TOL or any(
                    np.max(np.abs(a), initial=0.0) > AUDIT_TOL
                    for a in (ch, dis, plan.q_kvar[b])):
                raise AuditError(f"bus {b}: dispatch without installation")
        both = np.minimum(ch, dis)
        if both.size and both.max() > AUDIT_TOL:
            raise AuditError(f"bus {b}: simultaneous charge/discharge "
                             f"{both.max():.3e} kW")
        if e.size:
            if e.min() < spec.soc_min * cap - AUDIT_TOL or \
                    e.max() > spec.soc_max * cap + AUDIT_TOL:
                raise AuditError(f"bus {b}: stored energy outside SOC band")
        for run in runs:
            prev = plan.e_start_kwh[b]
            for t in run:
                k = pos[t]
                prev = prev + ch[k] * spec.eta_ch - dis[k] / spec.eta_dis
                if abs(prev - e[k]) > AUDIT_TOL:
                    raise AuditError(f"bus {b} hour {t}: energy replay "
                                     f"drift {abs(prev - e[k]):.3e} kWh")
            if abs(prev - plan.e_start_kwh[b]) > AUDIT_TOL:
                raise AuditError(f"bus {b}: window not cyclic "
                                 f"({prev:.6f} vs {plan.e_start_kwh[b]:.6f})")


def _planning_config() -> SolverConfig:
    """Default solver settings for the week-scale sizing programs.

    These relaxations are heavily dual-degenerate (many storage and flow
    rows whose multipliers are not unique), so the interior point
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
    if res.status not in ("optimal", "gap-limit"):
        raise _unsolved(meta, res.status, cfg)

    spec = meta["spec"]
    buses = meta["candidates"]
    runs = meta["runs"]
    hours = tuple(t for run in runs for t in run)
    disp = _collect_dispatch(res, buses, hours, spec)
    caps = {b: float(res.x[f"Ecap[{b}]"]) for b in buses}
    installed = {b: caps[b] > AUDIT_TOL for b in buses}
    # investment cost only; the solver objective also carries the
    # binary tie-break anchor
    cost = sum(spec.c_cap_per_kwh * c for c in caps.values())
    out = BessPlan(
        buses=buses, hours=hours, installed=installed,
        capacity_kwh=caps, objective=cost,
        gap=res.gap,
        e_start_kwh={b: spec.soc_initial * caps[b] for b in buses},
        spec=spec, **disp)
    audit_plan(out, spec, runs)
    return out


def _unsolved(meta, status, cfg):
    """PlanError for a sizing solve that returned no plan.

    Every candidate at e_max_kwh can run the schedule of any smaller
    plan (its energy, raised by soc_initial times the added capacity,
    stays in the SOC band), so each run of the window is dispatched at
    those capacities with elastic limits: the hours still outside them
    cannot be fixed by any plan. If there are none, a plan exists and
    the solve's status is the error.
    """
    net, profiles, spec = meta["net"], meta["profiles"], meta["spec"]
    full = dict.fromkeys(meta["candidates"], spec.e_max_kwh)
    hours = set()
    for run in meta["runs"]:
        day = dispatch_day(net, profiles, run, full, spec,
                           (net.v_lower, net.v_upper), cfg=cfg)
        hours.update(r.hour for r in residuals(net, profiles, run, day.v_sq))
    if hours:
        return PlanError("violations cannot be fixed within the capacity "
                         f"caps; binding hours: {sorted(hours)}",
                         sorted(hours))
    return PlanError(f"planning solve ended {status}")


def residuals(net, profiles, hours, v_sq):
    """Records of the bus-hours of v_sq, (n_bus, len(hours)), that end
    more than VALIDATION_TOL outside the network's voltage limits."""
    hours = list(hours)
    return [r for r in violation_records(
        net.ids, hours, profiles.horizon[hours], v_sq, net.v_lower,
        net.v_upper) if r.severity > VALIDATION_TOL]


def _flow_with(net, profiles, hours, p_add=None, q_add=None):
    """Exact power flow (v_sq, i_sq, P, Q) of the profiles over hours,
    with p_add/q_add ({bus index: (H,) kW}) added to the net load.

    Raises PowerFlowError where the feeder cannot carry that load: the
    sweep finds no power flow, or a branch current exceeds its cap.
    """
    p_kw, q_kvar = profiles.aligned(net)
    p, q = p_kw[hours].T, q_kvar[hours].T
    for i, kw in (p_add or {}).items():
        p[i] += kw
    for i, kvar in (q_add or {}).items():
        q[i] += kvar
    flow = power_flow(net, p, q, [net.slack_v(t) for t in hours])
    if np.any(flow[1] > net.i_sq_limit[:, None]):    # NaN: no cap
        raise PowerFlowError("a branch current exceeds its cap")
    return flow


def certify_day(net, profiles, plan_: BessPlan, hours):
    """v_sq of the day's hours under the plan's own schedule, if that
    schedule holds the day; else None.

    The day must lie inside plan_.hours with every unit's stored energy
    at soc_initial * capacity (within AUDIT_TOL) at both ends, so that
    the audited schedule is a feasible operation of dispatch_day's
    daily-cyclic program. It holds the day when its exact power flow
    keeps every voltage within VALIDATION_TOL of the limits and every
    branch current within its cap.
    """
    hours = list(hours)
    pos = {t: k for k, t in enumerate(plan_.hours)}
    if not all(t in pos for t in hours):
        return None
    ks = [pos[t] for t in hours]
    p_add, q_add = {}, {}
    for b in plan_.buses:
        e = plan_.e_ess_kwh[b]
        # the end of the previous hour, or the anchor of a run's start
        start = e[pos[hours[0] - 1]] if hours[0] - 1 in pos \
            else plan_.e_start_kwh[b]
        target = plan_.spec.soc_initial * plan_.capacity_kwh[b]
        if abs(start - target) > AUDIT_TOL or \
                abs(e[ks[-1]] - target) > AUDIT_TOL:
            return None
        i = net.idx[b]
        p_add[i] = plan_.charge_kw[b][ks] - plan_.discharge_kw[b][ks]
        q_add[i] = -plan_.q_kvar[b][ks]
    try:
        v_sq = _flow_with(net, profiles, hours, p_add, q_add)[0]
    except PowerFlowError:
        return None
    return None if residuals(net, profiles, hours, v_sq) else v_sq


@dataclass
class DayDispatch:
    hours: tuple
    status: str               # "optimal"; a day that fails raises
    cost: float               # $ under the day's prices (0 for loss runs)
    losses_kwh: float
    v_sq: np.ndarray          # (n_bus, len(hours))
    storage: dict             # field -> {bus: (T,) array}


def dispatch_day(net, profiles, hours, capacity_kwh, spec, v_limits,
                 prices=None, cfg=None):
    """Operate fixed storage over contiguous hours of one calendar day
    (one run of LoadProfileSet.days).

    Loss-minimizing when prices is None, else minimizes energy cost at
    the slack injection. Cyclic SOC anchored at soc_initial. Only the
    installed units (capacity above AUDIT_TOL) get variables.

    The day is one convex solve of sizing's storage and flow model
    (_feeder) at the fixed capacities, whose schedule is netted hour by
    hour at unchanged stored energy (_collect_dispatch). That only lowers the
    load, so with prices >= 0 the netted schedule also reaches the
    relaxation's bound. Voltages, losses and cost are the exact radial
    power flow of that schedule (Farivar & Low, IEEE TPWRS 2013), the
    same tail as a day with no unit, which takes no solve. So they hold
    even where the relaxation's cones are loose, as in free hours, whose
    losses carry no price.

    v_limits (lo, hi) p.u., if given, is elastic: each non-slack
    bus-hour has a slack s >= 0 with v + s/k >= lo^2 and v - s/k <= hi^2,
    k = VIOLATION_PENALTY, at unit cost (k per p.u. of v^2), so idle
    storage is always feasible and the objective keeps its scale. A day
    infeasible anyway (past a branch current cap, or a load the feeder
    cannot carry) raises PlanError.
    """
    cfg = cfg or _planning_config()
    runs = profiles.days(hours)
    if len(runs) != 1:
        raise ValueError("dispatch_day needs contiguous hours of one day")
    hours = runs[0]
    active = {b: c for b, c in capacity_kwh.items() if c > AUDIT_TOL}
    if not active:
        return _flow_day(net, profiles, hours, prices, {})

    prog = ConicProgram(f"dispatch-{net.name}-{hours[0]}")
    caps = {b: prog.add_var(f"Ecap[{b}]") for b in active}
    obj = {}
    unit = 1.0 / VIOLATION_PENALTY    # v^2 bought by one unit of slack
    for t, v in _feeder(prog, net, profiles, [hours], caps, spec).items():
        if v_limits is not None:
            for i in range(net.n_bus):
                if i != net.slack:
                    s = prog.add_var(f"s[{i},{t}]", lb=0.0)
                    prog.add_ineq({v[i]: -1.0, s: -unit}, -v_limits[0] ** 2)
                    prog.add_ineq({v[i]: 1.0, s: -unit}, v_limits[1] ** 2)
                    obj[s] = 1.0
        if prices is None:
            for e in range(net.n_branch):
                name = f"l[{e},{t}]"
                obj[name] = obj.get(name, 0.0) + net.r[e]
        else:
            # $ per hour = price ($/kWh) * slack injection (kW) * 1 h
            obj[f"Ps[{t}]"] = float(prices[t]) * 1000.0 * net.s_base_mva
    prog.minimize(obj)

    res = solve_relaxation(prog, cfg,
                           fixes={caps[b]: c for b, c in active.items()})
    if res.status == "infeasible":
        raise PlanError(f"dispatch infeasible on day starting hour "
                        f"{hours[0]}", hours)
    if res.status != "optimal":
        raise RuntimeError(f"dispatch solve failed: {res.status}")
    storage = _collect_dispatch(res, list(active), hours, spec)
    return _flow_day(net, profiles, hours, prices, storage)


def _flow_day(net, profiles, hours, prices, storage):
    """The DayDispatch of a fixed storage schedule (dispatch_day's
    storage dict, {} for none): its exact power flow, losses and cost
    at the slack injection."""
    p_add, q_add = {}, {}
    for b in storage.get("charge_kw", {}):
        i = net.idx[b]
        p_add[i] = storage["charge_kw"][b] - storage["discharge_kw"][b]
        q_add[i] = -storage["q_kvar"][b]
    try:
        v_sq, i_sq, P, _ = _flow_with(net, profiles, hours, p_add, q_add)
    except PowerFlowError as exc:
        raise PlanError(f"dispatch infeasible on day starting hour "
                        f"{hours[0]}: {exc}", hours) from exc
    cost = 0.0
    if prices is not None:
        # the slack bus's own load plus the flows leaving it
        p_kw = profiles.aligned(net)[0]
        p_slack = net.to_pu_power(p_kw[hours, net.slack]) + \
            P[net.down[net.slack]].sum(axis=0)
        cost = sum(float(prices[t]) * 1000.0 * net.s_base_mva * float(ps)
                   for t, ps in zip(hours, p_slack))
    losses_kwh = float((net.r @ i_sq).sum()) * 1000.0 * net.s_base_mva
    return DayDispatch(tuple(hours), "optimal", cost, losses_kwh, v_sq,
                       storage)


@dataclass
class TouResult:
    cost: float
    losses_kwh: float
    days: tuple               # per-day DayDispatch


def tou_dispatch(net, profiles, plan_: BessPlan, tariff: TouTariff,
                 hours=None, cfg=None, threads: int = 1) -> TouResult:
    """Cost-optimal operation of a fixed plan under an hourly tariff.

    The hours (default: the whole horizon) are cut into calendar days
    (LoadProfileSet.days). Days solve independently (daily-cyclic SOC)
    with no voltage limits, so a day is infeasible only where the
    network cannot carry its load, for example past a branch current
    cap; dispatch_day then raises PlanError naming the day's first
    hour.
    """
    days = profiles.days(hours)
    if not tariff.covers(np.concatenate(days)):
        raise ValueError("tariff does not cover the requested hours")
    spec = plan_.spec

    def one(day):
        return dispatch_day(net, profiles, day, plan_.capacity_kwh,
                            spec, None, prices=tariff.prices, cfg=cfg)

    parts = pmap(one, days, threads)
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
