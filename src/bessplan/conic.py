"""Cone-program modeling layer with a reference solver behind it.

Programs are built from named variables, linear rows, and rotated
second-order cone rows v*l >= sum p_i^2, the branch-flow cone; a norm
bound ||u|| <= t is the rotated cone t*w >= sum u_i^2 with w = t.
seal() converts to the conic standard form consumed by the
interior-point reference backend (bessplan._ipm); a branch-and-bound
layer handles binary variables.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import _ipm

# a binary within INT_TOL of 0 or 1 is integral, and a rounded one is 1
# only above it: 1e-5, the usual integrality tolerance of MIP solvers.
# An interior point leaves an unused installation flag at about 1e-6,
# and rounding that up installs a whole unit nothing asked for.
INT_TOL = 1e-5


@dataclass
class SolverConfig:
    """Solver tolerances and mixed-integer limits."""

    feas_tol: float = 1e-8
    cone_tol: float = 1e-8
    mip_gap: float = 0.001
    # relaxations branch-and-bound may solve, the root included; the
    # heuristic and incumbent solves do not count
    node_limit: int = 20000
    max_iters: int = 100  # interior-point iterations per solve

    def __post_init__(self):
        if not (0.0 < self.feas_tol < math.inf and
                0.0 < self.cone_tol < math.inf):
            raise ValueError("tolerances must be positive and finite")
        if not 0.0 < self.mip_gap < 1.0:
            raise ValueError("mip_gap must be in (0, 1)")
        for name in ("node_limit", "max_iters"):
            value = getattr(self, name)
            if type(value) is not int or value < 1:
                raise ValueError(f"{name} must be an integer >= 1")


@dataclass
class SolveResult:
    status: str  # optimal | infeasible | unbounded | iteration-limit |
    # stalled (the interior point stopped early: a stall, a breakdown or
    # a singular KKT matrix), or from solve_misocp gap-limit |
    # no-incumbent (empty x, infinite gap)
    objective: float
    x: dict
    gap: float | None = None  # relative MIP gap, None for pure relaxations
    max_residual: float = math.nan
    iterations: int = 0


class ConicProgram:
    """Linear objective over continuous/binary variables with linear and
    rotated second-order-cone rows. Mutable until sealed."""

    def __init__(self, name=""):
        self.name = name
        self._names = []
        self._index = {}
        self._lb = []
        self._ub = []
        self._binary = []
        self._obj = {}
        self._eqs = []     # (coeffs: {idx: a}, rhs)
        self._ineqs = []   # (coeffs, rhs), meaning coeffs . x <= rhs
        self._cones = []   # (v, l, [terms])
        self._sealed = None

    # -- construction ----------------------------------------------------

    def add_var(self, name, lb=None, ub=None, binary=False):
        self._mutable()
        if name in self._index:
            raise ValueError(f"variable {name!r} already declared")
        if binary:
            # binaries always carry [0,1] box, intersected with user bounds
            lb = 0.0 if lb is None else max(0.0, float(lb))
            ub = 1.0 if ub is None else min(1.0, float(ub))
        self._index[name] = len(self._names)
        self._names.append(name)
        self._lb.append(None if lb is None else float(lb))
        self._ub.append(None if ub is None else float(ub))
        if binary:
            self._binary.append(self._index[name])
        return name

    def minimize(self, coeffs):
        self._mutable()
        self._obj = self._row(coeffs)

    def add_eq(self, coeffs, rhs):
        self._mutable()
        self._eqs.append((self._row(coeffs), float(rhs)))

    def add_ineq(self, coeffs, rhs):
        """coeffs . x <= rhs."""
        self._mutable()
        self._ineqs.append((self._row(coeffs), float(rhs)))

    def add_rotated_cone(self, v, l, terms):
        """v * l >= sum(t^2 for t in terms), v >= 0, l >= 0."""
        self._mutable()
        terms = [self._idx(t) for t in terms]
        if not terms:
            raise ValueError("rotated cone needs at least one term")
        vi, li = self._idx(v), self._idx(l)
        if vi == li:
            raise ValueError("rotated cone needs distinct v and l")
        self._cones.append((vi, li, terms))

    def _row(self, coeffs):
        return {self._idx(nm): float(a) for nm, a in coeffs.items()
                if a != 0.0}

    def _idx(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"unknown variable {name!r}") from None

    def _mutable(self):
        if self._sealed is not None:
            raise ValueError("program is sealed")

    # -- sealed form -------------------------------------------------------

    @property
    def n_vars(self):
        return len(self._names)

    @property
    def binaries(self):
        return tuple(self._names[j] for j in self._binary)

    def seal(self):
        """Freeze and build the standard-form matrices (idempotent)."""
        if self._sealed is not None:
            return self._sealed
        n = self.n_vars
        rows, cols, vals, h = [], [], [], []

        def put(r, coeffs, rhs):
            for j, a in coeffs.items():
                rows.append(r)
                cols.append(j)
                vals.append(a)
            h.append(rhs)

        r = 0
        for j in range(n):
            if self._lb[j] is not None:
                put(r, {j: -1.0}, -self._lb[j])
                r += 1
            if self._ub[j] is not None:
                put(r, {j: 1.0}, self._ub[j])
                r += 1
        for coeffs, rhs in self._ineqs:
            put(r, coeffs, rhs)
            r += 1
        nl = r
        q = []
        for a, b_, terms in self._cones:
            # (v+l, v-l, 2p) in a second-order cone of size len(p)+2
            put(r, {a: -1.0, b_: -1.0}, 0.0)
            r += 1
            put(r, {a: -1.0, b_: 1.0}, 0.0)
            r += 1
            for tm in terms:
                put(r, {tm: -2.0}, 0.0)
                r += 1
            q.append(len(terms) + 2)

        G = sp.csr_matrix((vals, (rows, cols)), shape=(r, n))
        hv = np.array(h, dtype=float)

        arows, acols, avals, bv = [], [], [], []
        for i, (coeffs, rhs) in enumerate(self._eqs):
            for j, a in coeffs.items():
                arows.append(i)
                acols.append(j)
                avals.append(a)
            bv.append(rhs)
        A = sp.csr_matrix((avals, (arows, acols)),
                          shape=(len(self._eqs), n))
        c = np.zeros(n)
        for j, a in self._obj.items():
            c[j] = a
        self._sealed = {
            "c": c, "G": G, "h": hv, "dims": {"l": nl, "q": q},
            "A": A, "b": np.array(bv, dtype=float),
        }
        return self._sealed


def max_residual(prog: ConicProgram, assignment) -> float:
    """Worst absolute violation of any declared row at the given point.

    Evaluates the rows as declared (bounds, equalities, inequalities,
    cones), not the sealed matrices, so it is an independent check on
    both the solver and the standard-form conversion.
    """
    x = np.empty(prog.n_vars)
    for nm, j in prog._index.items():
        if nm not in assignment:
            raise ValueError(f"assignment missing variable {nm!r}")
        x[j] = assignment[nm]
    worst = 0.0
    for j in range(prog.n_vars):
        if prog._lb[j] is not None:
            worst = max(worst, prog._lb[j] - x[j])
        if prog._ub[j] is not None:
            worst = max(worst, x[j] - prog._ub[j])
    for coeffs, rhs in prog._eqs:
        worst = max(worst, abs(sum(a * x[j] for j, a in coeffs.items()) - rhs))
    for coeffs, rhs in prog._ineqs:
        worst = max(worst, sum(a * x[j] for j, a in coeffs.items()) - rhs)
    for a, b_, terms in prog._cones:
        worst = max(worst, -x[a], -x[b_],
                    sum(x[t] ** 2 for t in terms) - x[a] * x[b_])
    return float(worst)


def _run_ipm(prog, cfg, fixes=None):
    """Continuous solve with the variables in fixes ({index: value})
    substituted as constants.

    A fixed column moves into the right-hand sides and its cost into
    pcost. Linear rows it leaves without a variable are dropped; if one
    of them does not hold (0 <= h or 0 == b, to cfg.feas_tol) the node
    is infeasible without a solve. x comes back over every variable,
    fixed ones at their exact values. Without fixes the sealed matrices
    go to the solver as they are.
    """
    sealed = prog.seal()
    c, G, h, dims = sealed["c"], sealed["G"], sealed["h"], sealed["dims"]
    A, b = sealed["A"], sealed["b"]
    scale = max(1.0, np.max(np.abs(c)) if c.size else 1.0)
    if fixes:
        fixed = np.array(sorted(fixes))
        val = np.array([float(fixes[j]) for j in fixed])
        free = np.ones(len(c), dtype=bool)
        free[fixed] = False
        h = h - G[:, fixed] @ val
        b = b - A[:, fixed] @ val
        const = float(c[fixed] @ val)
        G, A, c = G[:, free], A[:, free], c[free]
        keep_g = np.diff(G.indptr) > 0
        keep_g[dims["l"]:] = True       # cone rows keep their cone's size
        keep_a = np.diff(A.indptr) > 0
        if np.any(h[~keep_g] < -cfg.feas_tol) or \
                np.any(np.abs(b[~keep_a]) > cfg.feas_tol):
            return {"status": "primal infeasible", "x": None,
                    "pcost": None, "iterations": 0}, scale
        dims = {"l": int(np.count_nonzero(keep_g[:dims["l"]])),
                "q": dims["q"]}
        G, h, A, b = G[keep_g], h[keep_g], A[keep_a], b[keep_a]
    raw = _ipm.conelp(c / scale, G, h, dims, A, b,
                      feastol=cfg.feas_tol, abstol=cfg.cone_tol,
                      reltol=cfg.cone_tol, maxiters=cfg.max_iters)
    if fixes and raw["x"] is not None:
        x = np.empty(len(free))
        x[free] = raw["x"]
        x[fixed] = val
        raw["x"] = x
        if raw["pcost"] is not None:
            raw["pcost"] += const / scale
    return raw, scale


_STATUS = {
    "optimal": "optimal",
    "primal infeasible": "infeasible",
    "dual infeasible": "unbounded",
}


def _status(raw):
    """SolveResult status of a conelp result: an 'unknown' one that ran
    out of iterations reads iteration-limit, any other stalled."""
    if raw["status"] == "unknown":
        return "iteration-limit" if raw["reason"] == "max-iters" \
            else "stalled"
    return _STATUS[raw["status"]]


def solve_relaxation(prog: ConicProgram, cfg: SolverConfig | None = None,
                     fixes=None) -> SolveResult:
    """Solve with binaries relaxed to [0,1] and the variables in fixes
    ({name: value}) substituted as constants (_run_ipm); x covers every
    variable, fixed ones at their exact values. Deterministic."""
    cfg = cfg or SolverConfig()
    raw, scale = _run_ipm(prog, cfg, {prog._idx(nm): v for nm, v in
                                      (fixes or {}).items()})
    status = _status(raw)
    if raw["x"] is None:
        return SolveResult(status, math.inf, {}, None, math.inf,
                           raw["iterations"])
    xs = {nm: float(v) for nm, v in zip(prog._names, raw["x"])}
    obj = (raw["pcost"] if raw["pcost"] is not None else math.nan)
    obj = obj * scale
    if status == "unbounded":
        obj = -math.inf
        res = math.nan
    else:
        res = max_residual(prog, xs)
    return SolveResult(status, obj, xs, None, res, raw["iterations"])


def _heuristic_fixes(prog, relax_x):
    """Round binaries up from any relaxation value above INT_TOL, the
    rule for the root heuristic and for an integral node alike."""
    return {j: (1.0 if relax_x[j] > INT_TOL else 0.0) for j in prog._binary}


def solve_misocp(prog: ConicProgram, cfg: SolverConfig | None = None,
                 trace: list | None = None) -> SolveResult:
    """Branch-and-bound on the binary variables over the conic relaxation.

    Best-bound node selection; branches on the most fractional binary,
    ties to the lowest declaration index. The rounding heuristic
    (_heuristic_fixes) runs once, on the root relaxation. Stops at
    relative gap <= cfg.mip_gap (optimal) or at the node limit
    (gap-limit). A node whose two children would bring the count to
    cfg.node_limit is not expanded: the search would stop before
    examining either child, so they could not yield an incumbent, only a
    tighter bound. The gap is measured against the bound of the node the
    search stopped at; at node_limit 2 that is the root, after the root
    and one heuristic solve. A search that stops before any integer
    solution, a root relaxation without a point too, reports
    no-incumbent with an empty x and an infinite gap. A program without
    binaries is its root relaxation, solved once: a root that does not
    end optimal reports its own status, with an empty x.

    If trace is a list, one (node_bound, incumbent_objective) pair is
    appended per processed node; bounds are non-decreasing and incumbent
    objectives non-increasing over the run.
    """
    cfg = cfg or SolverConfig()
    binaries = list(prog._binary)

    def names_of(vec):
        return {nm: float(v) for nm, v in zip(prog._names, vec)}

    def node_solve(fixes):
        raw, scale = _run_ipm(prog, cfg, fixes)
        status = _status(raw)
        obj = None
        if raw["x"] is not None and raw["pcost"] is not None:
            obj = raw["pcost"] * scale
        return status, obj, raw["x"]

    incumbent = None  # (objective, assignment dict)
    nodes_done = 0

    def try_incumbent(fixes):
        """Solve the continuous restriction under full binary fixes."""
        nonlocal incumbent
        status, obj, xv = node_solve(fixes)
        if status == "optimal" and \
                (incumbent is None or obj < incumbent[0] - 1e-12):
            incumbent = (obj, names_of(xv))

    # Root relaxation.
    status, obj, xv = node_solve({})
    nodes_done += 1
    if status == "infeasible":
        return SolveResult("infeasible", math.inf, {}, math.inf, math.inf, 1)
    if status == "unbounded":
        return SolveResult("unbounded", -math.inf, {}, math.inf, math.nan, 1)
    if not binaries:
        # nothing to branch on: the root is the answer, or there is none
        if status != "optimal":
            return SolveResult(status, math.inf, {}, math.inf, math.inf, 1)
        if trace is not None:
            trace.append((obj, math.inf))
        xs = names_of(xv)
        return SolveResult("optimal", obj, xs, 0.0, max_residual(prog, xs), 1)

    counter = 0
    heap = []  # (bound, counter, fixes, frac_x)
    if xv is not None:
        heapq.heappush(heap, (obj if obj is not None else -math.inf,
                              counter, {}, xv))

    def within_gap(bound):
        """No node of this bound can improve the incumbent enough."""
        return incumbent is not None and bound >= incumbent[0] - \
            cfg.mip_gap * max(1.0, abs(incumbent[0]))

    # bound of the node the search stopped at: in best-bound order the
    # least bound left, so the final gap is measured against it
    stop = None
    while heap:
        bound, _, fixes, xv = heapq.heappop(heap)
        if trace is not None:
            trace.append((bound, math.inf if incumbent is None
                          else incumbent[0]))
        if within_gap(bound) or nodes_done >= cfg.node_limit:
            stop = bound
            break

        # Choose the most fractional binary; integral point = incumbent.
        best_j, best_frac = None, INT_TOL
        for j in binaries:
            if j in fixes:
                continue
            frac = min(xv[j], 1.0 - xv[j])
            if frac > best_frac:
                best_j, best_frac = j, frac
        if best_j is None:
            # fixed binaries come back at their exact values
            try_incumbent(_heuristic_fixes(prog, xv))
            continue

        if nodes_done == 1:    # the root
            try_incumbent(_heuristic_fixes(prog, xv))
            if within_gap(bound):
                stop = bound
                break
        if nodes_done + 2 >= cfg.node_limit:
            stop = bound
            break

        for val in (0.0, 1.0):
            child = dict(fixes)
            child[best_j] = val
            status, cobj, cxv = node_solve(child)
            nodes_done += 1
            if status == "infeasible" or cxv is None:
                continue
            cbound = cobj if status == "optimal" else bound
            if within_gap(cbound):
                continue
            counter += 1
            heapq.heappush(heap, (max(cbound, bound), counter, child, cxv))

    if incumbent is None:
        return SolveResult("no-incumbent", math.inf, {}, math.inf,
                           math.inf, nodes_done)
    lb = incumbent[0] if stop is None else stop
    gap = max(0.0, incumbent[0] - lb) / max(1.0, abs(incumbent[0]))
    xs = incumbent[1]
    status = "optimal" if gap <= cfg.mip_gap else "gap-limit"
    return SolveResult(status, incumbent[0], xs, gap,
                       max_residual(prog, xs), nodes_done)
