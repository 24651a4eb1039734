"""Independent power-flow oracle and small feeder fixtures.

The sweep solver iterates backward (aggregate sending-end flows with
the latest loss estimates) and forward (propagate squared voltages)
until fixed point; at convergence it satisfies the exact branch-flow
equations, so it is a solver-free reference for the cone model.
"""

import numpy as np

from bessplan.netmodel import LoadProfileSet, load_network


def sweep_power_flow(net, p_kw, q_kvar, hour=0, tol=1e-13, max_iter=500):
    """Exact radial power flow; returns (v_sq, i_sq, P, Q) in p.u."""
    n, m = net.n_bus, net.n_branch
    p = net.to_pu_power(np.asarray(p_kw, dtype=float))
    q = net.to_pu_power(np.asarray(q_kvar, dtype=float))
    vs = net.slack_v(hour) ** 2
    v = np.full(n, vs)
    L = np.zeros(m)
    P = np.zeros(m)
    Q = np.zeros(m)
    rx2 = net.r ** 2 + net.x ** 2
    for _ in range(max_iter):
        for i in reversed(net.order):
            if i == net.slack:
                continue
            e = net.parent_branch[i]
            kids = net.down[i]
            P[e] = p[i] + P[kids].sum() + net.r[e] * L[e]
            Q[e] = q[i] + Q[kids].sum() + net.x[e] * L[e]
        dv = 0.0
        for i in net.order:
            if i == net.slack:
                continue
            e = net.parent_branch[i]
            nv = v[net.fidx[e]] - 2.0 * (net.r[e] * P[e] +
                                         net.x[e] * Q[e]) + rx2[e] * L[e]
            dv = max(dv, abs(nv - v[i]))
            v[i] = nv
        nL = (P ** 2 + Q ** 2) / v[net.fidx]
        dL = float(np.max(np.abs(nL - L))) if m else 0.0
        L = nL
        if max(dv, dL) < tol:
            break
    else:
        raise RuntimeError("power-flow sweep did not converge")
    return v, L, P, Q


def feeder(n_bus, branches, loads, s_mva=1.0, name="feeder", **extra):
    """Small per-unit feeder; loads maps bus id -> (p_kw, q_kvar).

    extra holds further top-level document keys (slack_voltage_pu).
    """
    doc = {
        "name": name,
        "bases": {"s_mva": s_mva, "v_kv": 11.0},
        "limits": {"v_lower_pu": 0.95, "v_upper_pu": 1.05},
        "buses": [{"id": 1, "kind": "slack", "p_base_kw": 0.0,
                   "q_base_kvar": 0.0}] +
                 [{"id": b, "kind": "load",
                   "p_base_kw": loads.get(b, (0.0, 0.0))[0],
                   "q_base_kvar": loads.get(b, (0.0, 0.0))[1]}
                  for b in range(2, n_bus + 1)],
        "branches": [{"from": f, "to": t, "r_pu": r, "x_pu": x}
                     for f, t, r, x in branches],
        **extra,
    }
    return load_network(doc)


def feeder2(p_kw=600.0, q_kvar=300.0):
    return feeder(2, [(1, 2, 0.02, 0.01)], {2: (p_kw, q_kvar)},
                  name="feeder2")


def feeder4():
    branches = [(1, 2, 0.015, 0.010), (2, 3, 0.020, 0.012),
                (3, 4, 0.025, 0.015)]
    loads = {2: (250.0, 120.0), 3: (300.0, 150.0), 4: (220.0, 100.0)}
    return feeder(4, branches, loads, name="feeder4")


def feeder6():
    branches = [(1, 2, 0.012, 0.008), (2, 3, 0.018, 0.011),
                (3, 4, 0.022, 0.013), (2, 5, 0.016, 0.010),
                (5, 6, 0.020, 0.012)]
    loads = {2: (180.0, 90.0), 3: (240.0, 110.0), 4: (200.0, 95.0),
             5: (160.0, 80.0), 6: (210.0, 100.0)}
    return feeder(6, branches, loads, name="feeder6")


def profiles_from_rows(net, start, rows):
    """LoadProfileSet from per-hour rows of {bus: (p_kw, q_kvar)}."""
    ids = [b for b in net.ids if b != net.ids[net.slack]]
    H = len(rows)
    p = np.zeros((H, len(ids)))
    q = np.zeros((H, len(ids)))
    for t, row in enumerate(rows):
        for j, b in enumerate(ids):
            if b in row:
                p[t, j], q[t, j] = row[b]
    horizon = np.datetime64(start, "h") + np.arange(H)
    return LoadProfileSet(horizon, ids, p, q)
