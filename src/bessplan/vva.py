"""Voltage screening on radial feeders via loss-minimizing cone programs.

The branch-flow model works in squared voltage v and squared current l
per branch, with sending-end flows P, Q. Minimizing total ohmic losses
with no voltage limits lets violations show up instead of being cut
off; the rotated-cone relaxation v*l >= P^2 + Q^2 is tight for that
objective on radial networks, which run_vva verifies after each solve.
Hours are independent subproblems (nothing couples them here), so a
year is 8760 small solves instead of one huge one.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .conic import ConicProgram, SolverConfig, solve_relaxation
from .netmodel import LoadProfileSet, Network


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


def build_vva(net: Network, profiles: LoadProfileSet, hours) -> ConicProgram:
    """Loss-minimizing screening program over the given hours.

    One variable block per hour, no voltage limits. Objective is total
    r*l over all branch-hours.
    """
    hours = [int(t) for t in hours]
    p_kw, q_kvar = profiles.aligned(net)
    if max(hours) >= p_kw.shape[0] or min(hours) < 0:
        raise ValueError("profiles do not cover requested hours")
    prog = ConicProgram(f"vva-{net.name}")
    obj = {}
    for t in hours:
        p_pu = net.to_pu_power(p_kw[t])
        q_pu = net.to_pu_power(q_kvar[t])
        vs = net.slack_v(t) ** 2
        _, _, _, L, _, _ = _hour_block(prog, net, p_pu, q_pu, t, vs)
        for e in range(net.n_branch):
            obj[L[e]] = net.r[e]
    prog.minimize(obj)
    return prog


def _extract_hour(net, res, t):
    n, m = net.n_bus, net.n_branch
    v = np.array([res.x[f"v[{i},{t}]"] for i in range(n)])
    P = np.array([res.x[f"P[{e},{t}]"] for e in range(m)])
    Q = np.array([res.x[f"Q[{e},{t}]"] for e in range(m)])
    L = np.array([res.x[f"l[{e},{t}]"] for e in range(m)])
    return v, P, Q, L, res.x[f"Ps[{t}]"], res.x[f"Qs[{t}]"]


def run_vva(net: Network, profiles: LoadProfileSet, hours=None,
            cfg: SolverConfig | None = None, threads: int = 1,
            cone_tol: float = 1e-6) -> FlowSolution:
    """Solve each hour independently and concatenate the results.

    Raises on any infeasible hour; cone slack above cone_tol is
    collected in loose_cones and warned about, not raised, since the
    screening result is still usable for locating undervoltage.
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

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(solve_one, hours))
    else:
        parts = [solve_one(t) for t in hours]

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
    loose = [(int(e), hours[k], float(slack[e, k]))
             for e, k in zip(*np.nonzero(slack > cone_tol))]
    if loose:
        worst = max(s for _, _, s in loose)
        warnings.warn(f"cone relaxation loose on {len(loose)} "
                      f"branch-hours (max slack {worst:.3e})",
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
