"""Modeling layer and solver tests.

Expected values come from independent oracles in helpers_conic: a
multiscale grid search for the random SOCP and full binary enumeration
for the mixed-integer family. Closed-form cases (a norm bound written
as a rotated cone, a rotated cone at a known point) are checked
directly.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bessplan import conic
from bessplan.conic import (ConicProgram, SolverConfig, max_residual,
                            solve_misocp, solve_relaxation)
from helpers_conic import (enumerate_facility, grid_search_socp,
                           make_facility_instance, make_random_socp)


class TestModeling:
    def test_duplicate_variable_rejected(self):
        prog = ConicProgram()
        prog.add_var("x")
        with pytest.raises(ValueError, match="already declared"):
            prog.add_var("x")

    def test_unknown_variable_rejected(self):
        prog = ConicProgram()
        prog.add_var("x")
        with pytest.raises(ValueError, match="unknown variable"):
            prog.add_eq({"y": 1.0}, 0.0)

    def test_sealed_program_is_immutable(self):
        prog = ConicProgram()
        x = prog.add_var("x", lb=0.0)
        prog.minimize({x: 1.0})
        prog.seal()
        with pytest.raises(ValueError, match="sealed"):
            prog.add_var("y")
        with pytest.raises(ValueError, match="sealed"):
            prog.add_ineq({x: 1.0}, 1.0)

    def test_binary_bounds_forced_into_unit_box(self):
        prog = ConicProgram()
        prog.add_var("z", lb=-3.0, ub=7.0, binary=True)
        assert prog._lb[0] == 0.0 and prog._ub[0] == 1.0
        assert prog.binaries == ("z",)

    def test_rotated_cone_needs_distinct_vars(self):
        prog = ConicProgram()
        v = prog.add_var("v")
        p = prog.add_var("p")
        with pytest.raises(ValueError, match="distinct"):
            prog.add_rotated_cone(v, v, [p])

    def test_empty_cone_rejected(self):
        prog = ConicProgram()
        t = prog.add_var("t")
        w = prog.add_var("w")
        with pytest.raises(ValueError, match="at least one term"):
            prog.add_rotated_cone(t, w, [])

    def test_config_validation(self):
        with pytest.raises(ValueError, match="positive"):
            SolverConfig(feas_tol=0.0)
        with pytest.raises(ValueError, match="mip_gap"):
            SolverConfig(mip_gap=1.5)


class TestRelaxation:
    def test_norm_cone_hypotenuse(self):
        # min t s.t. ||(3,4)|| <= t, as t*w >= 3^2 + 4^2 with w = t  ->  5
        prog = ConicProgram()
        t = prog.add_var("t")
        w = prog.add_var("w")
        u1 = prog.add_var("u1")
        u2 = prog.add_var("u2")
        prog.add_eq({u1: 1.0}, 3.0)
        prog.add_eq({u2: 1.0}, 4.0)
        prog.add_eq({w: 1.0, t: -1.0}, 0.0)
        prog.add_rotated_cone(t, w, [u1, u2])
        prog.minimize({t: 1.0})
        res = solve_relaxation(prog)
        assert res.status == "optimal"
        assert abs(res.objective - 5.0) <= 1e-6
        assert res.max_residual <= 1e-6

    def test_rotated_cone_tight_at_optimum(self):
        # min l s.t. v*l >= 0.6^2 + 0.8^2 with v = 1  ->  l = 1
        prog = ConicProgram()
        v = prog.add_var("v", lb=1.0, ub=1.0)
        l = prog.add_var("l", lb=0.0)
        p = prog.add_var("p")
        q = prog.add_var("q")
        prog.add_eq({p: 1.0}, 0.6)
        prog.add_eq({q: 1.0}, 0.8)
        prog.add_rotated_cone(v, l, [p, q])
        prog.minimize({l: 1.0})
        res = solve_relaxation(prog)
        assert res.status == "optimal"
        assert abs(res.x["l"] - 1.0) <= 1e-6
        assert res.max_residual <= 1e-6

    def test_infeasible_reported_not_raised(self):
        prog = ConicProgram()
        x = prog.add_var("x", ub=1.0)
        prog.add_ineq({x: -1.0}, -2.0)  # x >= 2 against x <= 1
        prog.minimize({x: 1.0})
        res = solve_relaxation(prog)
        assert res.status == "infeasible"
        assert res.x == {}

    def test_unbounded_reported(self):
        prog = ConicProgram()
        x = prog.add_var("x", lb=0.0)
        prog.minimize({x: -1.0})
        res = solve_relaxation(prog)
        assert res.status == "unbounded"
        assert res.objective == -math.inf

    def test_matches_grid_search_oracle(self):
        prog, oracle = make_random_socp(seed=11)
        res = solve_relaxation(prog)
        assert res.status == "optimal"
        bracket = grid_search_socp(oracle)
        assert abs(res.objective - bracket) <= 1e-4
        assert res.max_residual <= 1e-6

    def test_residual_evaluator_flags_bad_point(self):
        # |u| <= t as t*w >= u^2 with w = t: the cone row is off by
        # u^2 - t*w, the equality by |w - t|
        prog = ConicProgram()
        t = prog.add_var("t")
        w = prog.add_var("w")
        u = prog.add_var("u")
        prog.add_eq({u: 1.0}, 3.0)
        prog.add_eq({w: 1.0, t: -1.0}, 0.0)
        prog.add_rotated_cone(t, w, [u])
        prog.minimize({t: 1.0})
        assert max_residual(prog, {"t": 1.0, "w": 1.0, "u": 3.0}) == 8.0
        assert max_residual(prog, {"t": 3.0, "w": 3.0, "u": 3.0}) <= 1e-12
        assert max_residual(prog, {"t": 3.0, "w": 4.0, "u": 3.0}) == 1.0
        with pytest.raises(ValueError, match="missing variable"):
            max_residual(prog, {"t": 3.0, "w": 3.0})

    def test_deterministic_bitwise(self):
        a = solve_relaxation(make_random_socp(seed=4)[0])
        b = solve_relaxation(make_random_socp(seed=4)[0])
        assert a.objective == b.objective
        assert a.x == b.x

    def test_fixes_equal_the_program_with_constants_folded(self):
        def unit(cap=None):
            """Two outputs within rates of a capacity that an energy row
            also holds, their squares as losses; cap, if given, is
            folded into the right-hand sides by hand."""
            prog = ConicProgram()
            one = prog.add_var("one", lb=1.0, ub=1.0)
            p0 = prog.add_var("p0", lb=0.0)
            p1 = prog.add_var("p1", lb=0.0)
            e = prog.add_var("e", lb=0.0)
            loss = prog.add_var("l", lb=0.0)
            obj = {loss: 1.0, e: 0.1}
            if cap is None:
                c = prog.add_var("cap", lb=0.0, ub=10.0)
                prog.add_ineq({p0: 1.0, c: -0.5}, 0.0)
                prog.add_ineq({p1: 1.0, c: -0.3}, 0.0)
                prog.add_eq({e: 1.0, p0: -1.0, p1: 1.0, c: -0.25}, 0.0)
                obj[c] = 0.5
            else:
                prog.add_ineq({p0: 1.0}, 0.5 * cap)
                prog.add_ineq({p1: 1.0}, 0.3 * cap)
                prog.add_eq({e: 1.0, p0: -1.0, p1: 1.0}, 0.25 * cap)
            prog.add_ineq({p0: -1.0, p1: -1.0}, -1.5)
            prog.add_rotated_cone(one, loss, [p0, p1])
            prog.minimize(obj)
            return prog

        cap = 2.7
        fixed = solve_relaxation(unit(), fixes={"cap": cap})
        folded = solve_relaxation(unit(cap))
        assert fixed.status == folded.status == "optimal"
        assert set(fixed.x) == set(folded.x) | {"cap"}
        assert fixed.x["cap"] == cap
        for name, value in folded.x.items():
            assert abs(fixed.x[name] - value) <= 1e-9
        assert abs(fixed.objective - (folded.objective + 0.5 * cap)) <= 1e-9
        assert fixed.max_residual <= 1e-6


class TestMISOCP:
    def test_commitment_threshold_forces_binary(self):
        # Demand forces z = 1, which drags capacity up to 0.3.
        prog = ConicProgram()
        z = prog.add_var("z", binary=True)
        e = prog.add_var("e", lb=0.0, ub=1.0)
        prog.add_ineq({e: -1.0}, -0.25)      # e >= 0.25
        prog.add_ineq({z: 0.3, e: -1.0}, 0.0)  # e >= 0.3 z
        prog.add_ineq({e: 1.0, z: -1.0}, 0.0)  # e <= z
        prog.minimize({e: 1.0})
        relax = solve_relaxation(prog)
        assert abs(relax.objective - 0.25) <= 1e-6  # fractional z helps
        res = solve_misocp(prog)
        assert res.status == "optimal"
        assert abs(res.objective - 0.3) <= 1e-6
        assert res.x["z"] == 1.0
        assert res.gap <= 0.001
        assert res.max_residual <= 1e-6

    def test_integral_relaxation_short_circuits(self):
        # Relaxation already lands on z = 1; branch-and-bound must agree.
        prog = ConicProgram()
        z = prog.add_var("z", binary=True)
        y = prog.add_var("y", lb=0.0, ub=2.0)
        prog.add_ineq({y: 1.0, z: -2.0}, 0.0)
        prog.add_ineq({y: -1.0}, -2.0)  # y >= 2 pins y, hence z
        prog.minimize({y: 1.0, z: 0.5})
        relax = solve_relaxation(prog)
        res = solve_misocp(prog)
        assert res.status == "optimal"
        assert abs(res.objective - relax.objective) <= 1e-6
        assert res.iterations <= 3

    def test_matches_enumeration(self):
        for seed, nb in [(101, 3), (102, 4), (103, 5), (104, 6), (105, 4)]:
            exact = enumerate_facility(seed, nb)
            res = solve_misocp(make_facility_instance(seed, nb))
            assert res.status == "optimal", (seed, res.status)
            rel = abs(res.objective - exact) / max(1.0, abs(exact))
            assert rel <= 1e-6, (seed, res.objective, exact)
            assert res.gap <= 0.001
            assert res.max_residual <= 1e-6
            for name in res.x:
                if name.startswith("z"):
                    assert res.x[name] in (0.0, 1.0)

    def test_program_without_binaries_solves_once(self, monkeypatch):
        # the root relaxation is the answer: one solve, reported with the
        # fields branch-and-bound gave it (gap 0, one node, one trace pair)
        prog = ConicProgram()
        v = prog.add_var("v", lb=1.0, ub=1.0)
        l = prog.add_var("l", lb=0.0)
        p = prog.add_var("p")
        prog.add_eq({p: 1.0}, 0.6)
        prog.add_rotated_cone(v, l, [p])
        prog.minimize({l: 1.0})
        relax = solve_relaxation(prog)
        real = conic._ipm.conelp
        calls = []
        monkeypatch.setattr(conic._ipm, "conelp",
                            lambda *a, **k: calls.append(a) or real(*a, **k))
        trace = []
        res = solve_misocp(prog, trace=trace)
        assert len(calls) == 1
        assert (res.status, res.objective, res.x, res.gap,
                res.max_residual, res.iterations) == \
            ("optimal", relax.objective, relax.x, 0.0, relax.max_residual, 1)
        assert trace == [(relax.objective, math.inf)]

    def test_program_without_binaries_reports_a_stalled_root(
            self, monkeypatch):
        # a root that ends short of optimal is not solved again as an
        # incumbent: its status comes back with no point
        prog = make_random_socp(3)[0]
        real = conic._ipm.conelp
        calls = []
        monkeypatch.setattr(conic._ipm, "conelp",
                            lambda *a, **k: calls.append(a) or real(*a, **k))
        res = solve_misocp(prog, SolverConfig(max_iters=1))
        assert len(calls) == 1
        assert (res.status, res.x, res.gap, res.iterations) == \
            ("iteration-limit", {}, math.inf, 1)

    def test_infeasible_instance(self):
        prog = ConicProgram()
        z = prog.add_var("z", binary=True)
        prog.add_ineq({z: -1.0}, -2.0)  # z >= 2 impossible
        prog.minimize({z: 1.0})
        res = solve_misocp(prog)
        assert res.status == "infeasible"

    def test_node_limit_without_incumbent(self):
        prog = make_facility_instance(7, 6)
        res = solve_misocp(prog, SolverConfig(node_limit=1))
        assert res.status == "no-incumbent"
        assert res.gap == math.inf
        assert res.x == {}

    def test_node_limit_gap_is_measured_at_the_stop_node(self):
        # best-bound order stops at the least open bound, so the bound of
        # the last node processed is a lower bound on the optimum, and the
        # reported gap is measured against it
        trace = []
        res = solve_misocp(make_facility_instance(42, 6),
                           SolverConfig(mip_gap=1e-6, node_limit=5),
                           trace=trace)
        assert res.status == "gap-limit"
        bound, incumbent = trace[-1]
        assert incumbent == res.objective
        assert res.gap == max(0.0, res.objective - bound) / \
            max(1.0, abs(res.objective))
        assert res.gap > 1e-6
        exact = enumerate_facility(42, 6)
        assert bound <= exact + 1e-6 and exact <= res.objective + 1e-6

    def test_node_limit_two_stops_after_the_root_and_heuristic(
            self, monkeypatch):
        # the root's two children would bring the count to the limit, so
        # the search would stop before examining either: they are not
        # solved, and the gap is measured against the root bound
        prog = make_facility_instance(42, 6)
        root = solve_relaxation(make_facility_instance(42, 6))
        real = conic._ipm.conelp
        calls = []
        monkeypatch.setattr(conic._ipm, "conelp",
                            lambda *a, **k: calls.append(a) or real(*a, **k))
        res = solve_misocp(prog, SolverConfig(mip_gap=1e-6, node_limit=2))
        assert len(calls) == 2
        assert res.status == "gap-limit" and res.iterations == 1
        assert res.gap == (res.objective - root.objective) / \
            max(1.0, abs(res.objective))
        assert res.gap > 1e-6

    def test_bound_and_incumbent_monotone(self):
        trace = []
        res = solve_misocp(make_facility_instance(42, 6),
                           SolverConfig(mip_gap=1e-6), trace=trace)
        assert res.status == "optimal"
        assert len(trace) >= 2
        bounds = [b for b, _ in trace]
        incs = [i for _, i in trace]
        assert all(b1 <= b2 + 1e-9 for b1, b2 in zip(bounds, bounds[1:]))
        assert all(i1 >= i2 for i1, i2 in zip(incs, incs[1:]))

    def test_fixed_binary_closes_its_big_m_row_exactly(self):
        # z = 0 closes y through a 1000x big-M row. Were z fixed through
        # its bound rows, it would keep the interior point's slack, which
        # the row passes on to y 1000-fold (2e-7 here); as a constant it
        # leaves y only the zero-width box [0, 0] of y's own rows
        prog = ConicProgram()
        y = prog.add_var("y", lb=0.0, ub=1000.0)
        z = prog.add_var("z", binary=True)
        prog.add_ineq({y: 1.0, z: -1000.0}, 0.0)
        one = prog.add_var("one", lb=1.0, ub=1.0)
        w = prog.add_var("w", lb=1.0, ub=2.0)
        prog.add_rotated_cone(one, w, [y])  # w >= y^2
        prog.minimize({z: 1.0, w: 0.01})
        res = solve_misocp(prog, SolverConfig(feas_tol=1e-7, cone_tol=1e-7))
        assert res.status == "optimal"
        assert res.x["z"] == 0.0
        assert abs(res.x["y"]) <= 1e-9

    def test_fixes_that_empty_a_row(self, monkeypatch):
        # a + b <= 1 and a - b == 0 hold only the fixed binaries; x <= a + b
        prog = ConicProgram()
        a = prog.add_var("a", binary=True)
        b = prog.add_var("b", binary=True)
        x = prog.add_var("x", lb=0.0, ub=2.0)
        prog.add_ineq({a: 1.0, b: 1.0}, 1.0)
        prog.add_ineq({x: 1.0, a: -1.0, b: -1.0}, 0.0)
        prog.minimize({a: 0.5, b: 0.25, x: -1.0})
        cfg = SolverConfig()
        calls = []
        real = conic._ipm.conelp
        monkeypatch.setattr(conic._ipm, "conelp", lambda *args, **kw:
                            calls.append(args) or real(*args, **kw))
        # the emptied row reads 0 <= 1 - 2: infeasible without a solve
        raw, _ = conic._run_ipm(prog, cfg, {0: 1.0, 1: 1.0})
        assert raw["status"] == "primal infeasible" and raw["x"] is None
        assert calls == []
        # 0 <= 1 - 1 holds and is dropped; the fixed costs count
        raw, scale = conic._run_ipm(prog, cfg, {0: 1.0, 1: 0.0})
        assert raw["status"] == "optimal"
        assert raw["x"][0] == 1.0 and raw["x"][1] == 0.0
        assert abs(raw["x"][2] - 1.0) <= 1e-6
        assert abs(raw["pcost"] * scale + 0.5) <= 1e-6
        assert calls[-1][1].shape == (3, 1)   # x's two bounds, x <= 1
        eq = ConicProgram()
        a = eq.add_var("a", binary=True)
        b = eq.add_var("b", binary=True)
        x = eq.add_var("x", lb=0.0, ub=1.0)
        eq.add_eq({a: 1.0, b: -1.0}, 0.0)
        eq.minimize({x: 1.0})
        assert conic._run_ipm(eq, cfg, {0: 1.0, 1: 0.0})[0]["status"] == \
            "primal infeasible"
        assert conic._run_ipm(eq, cfg, {0: 1.0, 1: 1.0})[0]["status"] == \
            "optimal"

    def test_deterministic_bitwise(self):
        a = solve_misocp(make_facility_instance(55, 5))
        b = solve_misocp(make_facility_instance(55, 5))
        assert a.objective == b.objective
        assert a.x == b.x
        assert a.iterations == b.iterations

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10 ** 6))
    def test_enumeration_property(self, seed):
        exact = enumerate_facility(seed, 3)
        res = solve_misocp(make_facility_instance(seed, 3))
        assert res.status == "optimal"
        assert abs(res.objective - exact) <= 1e-6 * max(1.0, abs(exact))
