"""Voltage screening on radial feeders via loss-minimizing cone programs.

The branch-flow model works in squared voltage v and squared current l
per branch, with sending-end flows P, Q. Minimizing total ohmic losses
with no voltage limits lets violations show up instead of being cut
off; the rotated-cone relaxation v*l >= P^2 + Q^2 is tight for that
objective on radial networks, which run_vva verifies after each solve.
Hours are independent subproblems (nothing couples them here), so a
year is 8760 small solves instead of one huge one. power_flow computes
the same exact radial power flow for many hours at once by
backward/forward sweep, without a solver.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._parallel import pmap
from .conic import ConicProgram, SolverConfig, solve_relaxation
from .netmodel import LoadProfileSet, Network

# cone slack (p.u.) above which a screened branch-hour counts as loose
LOOSE_CONE_TOL = 1e-6
# p.u. by which screened voltages may differ from the exact power flow
# before loose cones are warned about
EXACT_V_TOL = 1e-6
# power_flow stops once no squared voltage or current moves more than
# SWEEP_TOL p.u. in a sweep, and gives up after SWEEP_LIMIT sweeps
SWEEP_TOL = 1e-13
SWEEP_LIMIT = 500


@dataclass
class FlowSolution:
    """Per-hour branch-flow results in p.u. on the network's bases."""

    bus_ids: tuple
    branches: tuple          # (from_id, to_id) per branch
    hours: tuple             # absolute hour indices into the profile horizon
    times: tuple             # matching timestamps
    v_sq: np.ndarray         # (n_bus, T)
    i_sq: np.ndarray         # (n_branch, T)
    p_flow: np.ndarray       # (n_branch, T)
    q_flow: np.ndarray       # (n_branch, T)
    p_slack: np.ndarray      # (T,)
    q_slack: np.ndarray      # (T,)
    losses: np.ndarray       # (T,)
    loose_cones: tuple = ()  # (branch_idx, hour, slack) above tolerance

    def voltage(self):
        """Voltage magnitudes, p.u."""
        return np.sqrt(self.v_sq)


@dataclass(frozen=True)
class ViolationRecord:
    bus: int
    hour: int                # absolute hour index
    when: object             # timestamp of the hour
    voltage: float           # p.u.
    severity: float          # p.u., > 0 by construction
    kind: str                # "under" | "over"


@dataclass(frozen=True)
class NodeViolationStats:
    bus: int
    p_uv: float
    p_ov: float

    @property
    def f_viol(self):
        return self.p_uv + self.p_ov


def _hour_block(prog, net, p_pu, q_pu, t, vs_sq, v_bounds=None,
                p_extra=None, q_extra=None):
    """Append one hour's variables and rows; returns the name maps.

    v_bounds, if given, is (v_lo_sq, v_hi_sq) applied to non-slack
    buses. p_extra/q_extra map bus index -> {var_name: coeff} merged
    into that bus's balance left-hand side (storage terms live there).
    """
    n, m = net.n_bus, net.n_branch
    v = []
    for i in range(n):
        if v_bounds is not None and i != net.slack:
            v.append(prog.add_var(f"v[{i},{t}]", lb=v_bounds[0],
                                  ub=v_bounds[1]))
        else:
            v.append(prog.add_var(f"v[{i},{t}]"))
    P = [prog.add_var(f"P[{e},{t}]") for e in range(m)]
    Q = [prog.add_var(f"Q[{e},{t}]") for e in range(m)]
    L = [prog.add_var(f"l[{e},{t}]") for e in range(m)]
    ps = prog.add_var(f"Ps[{t}]")
    qs = prog.add_var(f"Qs[{t}]")

    for i in range(n):
        down = net.down[i]
        if i == net.slack:
            pc = {ps: 1.0}
            qc = {qs: 1.0}
        else:
            e = net.parent_branch[i]
            pc = {P[e]: 1.0, L[e]: -net.r[e]}
            qc = {Q[e]: 1.0, L[e]: -net.x[e]}
        for e in down:
            pc[P[e]] = pc.get(P[e], 0.0) - 1.0
            qc[Q[e]] = qc.get(Q[e], 0.0) - 1.0
        if p_extra and i in p_extra:
            pc.update(p_extra[i])
        if q_extra and i in q_extra:
            qc.update(q_extra[i])
        prog.add_eq(pc, p_pu[i])
        prog.add_eq(qc, q_pu[i])

    prog.add_eq({v[net.slack]: 1.0}, vs_sq)
    for e in range(m):
        i, j = net.fidx[e], net.tidx[e]
        r, x = net.r[e], net.x[e]
        prog.add_eq({v[i]: 1.0, v[j]: -1.0, P[e]: -2.0 * r,
                     Q[e]: -2.0 * x, L[e]: r * r + x * x}, 0.0)
        prog.add_rotated_cone(v[i], L[e], [P[e], Q[e]])
        if net.i_sq_limit[e] is not None and \
                math.isfinite(net.i_sq_limit[e]):
            prog.add_ineq({L[e]: 1.0}, float(net.i_sq_limit[e]))
    return v, P, Q, L, ps, qs


class PowerFlowError(RuntimeError):
    """The sweep found no power flow: the feeder cannot carry the load."""


def power_flow(net: Network, p_kw, q_kvar, v_slack):
    """Exact radial power flow of every hour at once, by backward/forward
    sweep; returns (v_sq, i_sq, P, Q) in p.u.

    p_kw, q_kvar are (n_bus, H) net loads and v_slack the (H,) slack
    voltage magnitudes, p.u. Each sweep sums the loads and the latest
    losses below every branch (backward), then drops the squared voltage
    along each path from the slack (forward), until both move less than
    SWEEP_TOL. This is the loss-minimizing SOCP's optimum whenever that
    relaxation is exact, as it is on a radial feeder without voltage
    limits (Farivar & Low, IEEE TPWRS 2013). Raises PowerFlowError when
    a voltage collapses or the sweep does not settle in SWEEP_LIMIT.
    """
    n, m = net.n_bus, net.n_branch
    p = net.to_pu_power(p_kw)
    q = net.to_pu_power(q_kvar)
    vs = np.asarray(v_slack, dtype=float) ** 2
    # path[j, e] = 1 where branch e lies between the slack and bus j
    path = np.zeros((n, m))
    for j in net.order:
        if j != net.slack:
            e = net.parent_branch[j]
            path[j] = path[net.fidx[e]]
            path[j, e] = 1.0
    below = path.T              # below[e, j]: bus j lies below branch e
    sub = below[:, net.tidx]    # sub[e, f]: branch f lies at or below e
    r, x = net.r[:, None], net.x[:, None]
    z_sq = r * r + x * x
    v = np.tile(vs, (n, 1))
    L = np.zeros((m, vs.size))
    # a diverging sweep overflows before its voltages turn negative
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(SWEEP_LIMIT):
            P = below @ p + sub @ (r * L)
            Q = below @ q + sub @ (x * L)
            nv = vs - path @ (2.0 * (r * P + x * Q) - z_sq * L)
            v_from = nv[net.fidx]
            if not np.all(v_from > 0.0):
                raise PowerFlowError("power-flow sweep: voltage collapsed")
            nL = (P * P + Q * Q) / v_from
            step = max(np.abs(nv - v).max(initial=0.0),
                       np.abs(nL - L).max(initial=0.0))
            v, L = nv, nL
            if step < SWEEP_TOL:
                return v, L, P, Q
    raise PowerFlowError(f"power-flow sweep did not converge in "
                         f"{SWEEP_LIMIT} sweeps")


def _extract_hour(net, res, t):
    n, m = net.n_bus, net.n_branch
    v = np.array([res.x[f"v[{i},{t}]"] for i in range(n)])
    P = np.array([res.x[f"P[{e},{t}]"] for e in range(m)])
    Q = np.array([res.x[f"Q[{e},{t}]"] for e in range(m)])
    L = np.array([res.x[f"l[{e},{t}]"] for e in range(m)])
    return v, P, Q, L, res.x[f"Ps[{t}]"], res.x[f"Qs[{t}]"]


def run_vva(net: Network, profiles: LoadProfileSet, hours=None,
            cfg: SolverConfig | None = None, threads: int = 1) -> FlowSolution:
    """Solve each hour independently and concatenate the results.

    Raises on any infeasible hour. Cone slack above LOOSE_CONE_TOL is
    collected in loose_cones. Slack of that size is often the interior
    point's noise on an exact relaxation, so those hours are checked
    against the exact power flow, and a voltage more than EXACT_V_TOL
    off it, or no power flow at all, is warned about. It is not raised,
    since the screening result is still usable for locating
    undervoltage.
    """
    if hours is None:
        hours = range(profiles.n_hours)
    hours = [int(t) for t in hours]
    if not hours:
        raise ValueError("no hours requested")
    if max(hours) >= profiles.n_hours or min(hours) < 0:
        raise ValueError("profiles do not cover requested hours")
    cfg = cfg or SolverConfig()
    p_kw, q_kvar = profiles.aligned(net)
    n, m = net.n_bus, net.n_branch

    def solve_one(t):
        prog = ConicProgram(f"vva-{net.name}-h{t}")
        p_pu = net.to_pu_power(p_kw[t])
        q_pu = net.to_pu_power(q_kvar[t])
        _, _, _, L, _, _ = _hour_block(prog, net, p_pu, q_pu, t,
                                       net.slack_v(t) ** 2)
        prog.minimize({L[e]: net.r[e] for e in range(m)})
        res = solve_relaxation(prog, cfg)
        if res.status != "optimal":
            raise RuntimeError(f"screening hour {t}: solver status "
                               f"{res.status}")
        return _extract_hour(net, res, t)

    parts = pmap(solve_one, hours, threads)

    T = len(hours)
    v_sq = np.empty((n, T))
    i_sq = np.empty((m, T))
    p_flow = np.empty((m, T))
    q_flow = np.empty((m, T))
    p_slack = np.empty(T)
    q_slack = np.empty(T)
    for k, (v, P, Q, L, ps, qs) in enumerate(parts):
        v_sq[:, k] = v
        i_sq[:, k] = L
        p_flow[:, k] = P
        q_flow[:, k] = Q
        p_slack[k] = ps
        q_slack[k] = qs
    losses = net.r @ i_sq

    slack = v_sq[net.fidx, :] * i_sq - p_flow ** 2 - q_flow ** 2
    at = np.nonzero(slack > LOOSE_CONE_TOL)
    loose = [(int(e), hours[k], float(slack[e, k])) for e, k in zip(*at)]
    if loose:
        ks = np.unique(at[1])
        sel = [hours[k] for k in ks]
        try:
            exact = power_flow(net, p_kw[sel].T, q_kvar[sel].T,
                               [net.slack_v(t) for t in sel])[0]
        except PowerFlowError as exc:
            off, gap = math.inf, str(exc)
        else:
            off = float(np.abs(np.sqrt(v_sq[:, ks]) - np.sqrt(exact)).max())
            gap = f"voltages off the power flow by {off:.3e} p.u."
        if off > EXACT_V_TOL:
            worst = max(s for _, _, s in loose)
            warnings.warn(f"cone relaxation loose on {len(loose)} "
                          f"branch-hours (max slack {worst:.3e}; {gap})",
                          RuntimeWarning, stacklevel=2)
    times = tuple(profiles.horizon[t] for t in hours)
    branches = tuple((net.ids[net.fidx[e]], net.ids[net.tidx[e]])
                     for e in range(m))
    return FlowSolution(tuple(net.ids), branches, tuple(hours), times,
                        v_sq, i_sq, p_flow, q_flow, p_slack, q_slack,
                        losses, tuple(loose))


def detect_violations(sol: FlowSolution, v_lower: float,
                      v_upper: float) -> list:
    """One record per bus-hour strictly outside [v_lower, v_upper].

    Severity is the distance to the violated limit in p.u.
    """
    return violation_records(sol.bus_ids, sol.hours, sol.times, sol.v_sq,
                             v_lower, v_upper)


def violation_records(bus_ids, hours, times, v_sq, v_lower: float,
                      v_upper: float) -> list:
    """detect_violations on bare arrays, hour by hour in bus order.

    v_sq is (n_bus, T) squared voltage; hours[k] and times[k] label
    its column k.
    """
    volts = np.sqrt(v_sq)
    under = volts < v_lower
    over = volts > v_upper
    severity = np.where(under, v_lower - volts, volts - v_upper)
    k, b = np.nonzero((under | over).T)
    return [ViolationRecord(bus_ids[i], hours[t], times[t], V, sev,
                            "under" if low else "over")
            for t, i, V, sev, low in zip(
                k.tolist(), b.tolist(), volts[b, k].tolist(),
                severity[b, k].tolist(), under[b, k].tolist())]


def node_stats(records, n_hours: int, buses) -> list:
    """Violation frequency per bus over a horizon of n_hours."""
    if n_hours <= 0:
        raise ValueError("n_hours must be positive")
    uv = {b: 0 for b in buses}
    ov = {b: 0 for b in buses}
    for rec in records:
        if rec.bus not in uv:
            continue
        if rec.kind == "under":
            uv[rec.bus] += 1
        else:
            ov[rec.bus] += 1
    return [NodeViolationStats(b, uv[b] / n_hours, ov[b] / n_hours)
            for b in buses]
