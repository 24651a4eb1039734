"""Shared instance generators and independent oracles for solver tests.

The facility family gives small mixed-integer cone programs whose exact
optimum is recoverable by full enumeration of the binaries, with each
enumerated subproblem built as a fresh program (binaries pinned through
bounds), so the oracle never touches the branch-and-bound path. The
grid oracle minimizes over a dense multiscale grid and only ever
reports feasible points, so it brackets the optimum from above and
converges on convex sets with interior.
"""

import math

import numpy as np

from bessplan.conic import ConicProgram, solve_relaxation


def make_facility_instance(seed, nb, fixed=None):
    """Facility commitment with quadratic transport losses.

    Binary z_i opens a site with capacity cap_i at fixed cost f_i;
    flows y_i <= cap_i * z_i must cover demand D; a rotated cone
    charges loss l_i >= y_i^2 at unit cost g_i. With `fixed`, the
    binaries become pinned continuous variables instead.
    """
    rng = np.random.default_rng(seed)
    cap = rng.uniform(1.0, 3.0, nb).round(2)
    f = rng.uniform(0.5, 2.0, nb).round(2)
    g = rng.uniform(0.1, 0.5, nb).round(2)
    demand = round(float(cap.sum()) * rng.uniform(0.3, 0.55), 2)
    prog = ConicProgram(f"facility-{seed}-{nb}")
    one = prog.add_var("one", lb=1.0, ub=1.0)
    obj = {}
    ys = {}
    for i in range(nb):
        if fixed is None:
            z = prog.add_var(f"z{i}", binary=True)
        else:
            z = prog.add_var(f"z{i}", lb=float(fixed[i]),
                             ub=float(fixed[i]))
        y = prog.add_var(f"y{i}", lb=0.0, ub=float(cap[i]))
        loss = prog.add_var(f"l{i}", lb=0.0)
        prog.add_ineq({y: 1.0, z: -float(cap[i])}, 0.0)
        prog.add_rotated_cone(one, loss, [y])
        obj[z] = float(f[i])
        obj[loss] = float(g[i])
        ys[y] = -1.0
    prog.add_ineq(ys, -demand)
    prog.minimize(obj)
    return prog


def enumerate_facility(seed, nb):
    """Exact optimum by solving all 2**nb pinned continuous programs."""
    best = math.inf
    for mask in range(2 ** nb):
        bits = [(mask >> i) & 1 for i in range(nb)]
        res = solve_relaxation(make_facility_instance(seed, nb, fixed=bits))
        if res.status == "optimal" and res.objective < best:
            best = res.objective
    return best


def make_random_socp(seed, n=5, n_cones=3):
    """Random bounded SOCP built around a strictly feasible origin.

    Returns (prog, oracle_data) where oracle_data carries the box and
    the affine cone definitions ||A x + b|| <= a0 . x + b0 needed by
    grid_search_socp. The program holds each as the rotated cone
    t*w >= ||u||^2 with w = t, u = A x + b and t = a0 . x + b0.
    """
    rng = np.random.default_rng(seed)
    c = rng.normal(size=n).round(3)
    lo = np.full(n, -2.0)
    hi = np.full(n, 2.0)
    prog = ConicProgram(f"socp-{seed}")
    xs = [prog.add_var(f"x{d}", lb=lo[d], ub=hi[d]) for d in range(n)]
    cones = []
    for k in range(n_cones):
        A = (rng.normal(size=(2, n)) * 0.4).round(3)
        b = rng.normal(size=2).round(3)
        a0 = (rng.normal(size=n) * 0.2).round(3)
        b0 = round(float(np.linalg.norm(b)) + 1.0, 3)
        t = prog.add_var(f"t{k}")
        prog.add_eq({t: 1.0, **{xs[d]: -a0[d] for d in range(n)}}, b0)
        us = []
        for r in range(2):
            u = prog.add_var(f"u{k}_{r}")
            prog.add_eq({u: 1.0, **{xs[d]: -A[r, d] for d in range(n)}},
                        b[r])
            us.append(u)
        w = prog.add_var(f"w{k}")
        prog.add_eq({w: 1.0, t: -1.0}, 0.0)
        prog.add_rotated_cone(t, w, us)
        cones.append((a0, b0, A, b))
    prog.minimize({xs[d]: c[d] for d in range(n)})
    return prog, (c, lo, hi, cones)


def grid_search_socp(oracle_data, rounds=18, pts=9):
    """Multiscale dense grid minimization over box and cone rows.

    Only feasible grid points count, so every reported value is an
    upper bound on the optimum; zooming around the incumbent drives the
    bracket down to ~1e-6 resolution on convex feasible sets.
    """
    c, lo, hi, cones = oracle_data
    n = len(lo)
    center = 0.5 * (lo + hi)
    radius = 0.5 * (hi - lo)
    best_val, best_x = math.inf, None
    for _ in range(rounds):
        axes = [np.linspace(max(lo[d], center[d] - radius[d]),
                            min(hi[d], center[d] + radius[d]), pts)
                for d in range(n)]
        grid = np.stack(np.meshgrid(*axes, indexing="ij"),
                        axis=-1).reshape(-1, n)
        feas = np.ones(len(grid), dtype=bool)
        for a0, b0, A, b in cones:
            lhs = np.linalg.norm(grid @ A.T + b, axis=1)
            feas &= lhs <= grid @ a0 + b0
        vals = grid @ c
        vals[~feas] = np.inf
        k = int(np.argmin(vals))
        if vals[k] < best_val:
            best_val, best_x = float(vals[k]), grid[k].copy()
        if best_x is not None:
            center = best_x
        radius = radius * 0.45
    return best_val
