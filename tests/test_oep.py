"""Storage sizing/placement and dispatch tests.

The sizing answer is checked against an independent oracle: a greedy
charge/discharge simulation on the exact sweep power flow, wrapped in a
1-D search over capacity. Without a minimum unit size sizing declares
no binary and is one interior-point solve, which a spy on the solver
counts. Energy dynamics are pinned by hand-computable two-hour
instances solved through the relaxation only. A day without storage, a
dispatched day's schedule and a day validation certifies on the plan's
own schedule are checked against the sweep oracle, and a spy on
dispatch_day shows which days still take a solve: a plan sized on two
days at once closes each day's SOC chain, so both are certified. A
three-day window of the plan benchmark's load, whose sizing root
stalls, is pinned as an expected failure (tests/data holds its load).
"""

import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from bessplan import conic, pipeline
from bessplan.conic import ConicProgram, solve_relaxation
from bessplan.oep import (AUDIT_TOL, VALIDATION_TOL, AuditError, BessPlan,
                          BessSpec, PlanError, TouTariff, _storage_block,
                          audit_plan, build_toep, dispatch_day, plan,
                          savings_report, tou_dispatch)
from helpers_power import (base_profiles, feeder, feeder2,
                           profiles_from_rows, sweep_power_flow)


def uv_feeder(**extra):
    """2-bus feeder whose evening peak undervolts without storage."""
    return feeder(2, [(1, 2, 0.05, 0.03)], {2: (150.0, 60.0)}, name="uv2",
                  **extra)


def uv_rows(peak=(950.0, 380.0), base=(150.0, 60.0), peak_hours=(18, 19),
            n_hours=24):
    return [{2: peak if t in peak_hours else base} for t in range(n_hours)]


def uv_profiles(**kw):
    net = uv_feeder()
    return net, profiles_from_rows(net, "2024-06-01T00", uv_rows(**kw))


def active_only_spec(**kw):
    """No reactive capability, so the discharge oracle is exact."""
    return BessSpec(kq_inj=0.0, kq_abs=0.0, **kw)


class TestBessSpec:
    @pytest.mark.parametrize("bad", [
        dict(soc_min=0.5, soc_max=0.5),
        dict(soc_min=-0.1),
        dict(soc_max=1.2),
        dict(soc_initial=0.05),
        dict(eta_ch=0.0),
        dict(eta_dis=1.3),
        dict(e_min_kwh=-1.0),
        dict(e_min_kwh=2000.0),
        dict(c_rate_ch=-0.1),
        dict(c_cap_per_kwh=-5.0),
    ])
    def test_envelope_validation(self, bad):
        with pytest.raises(ValueError):
            BessSpec(**bad)


class TestTariff:
    def test_daily_pattern_tiles(self):
        pattern = np.linspace(0.1, 0.5, 24)
        tariff = TouTariff.from_daily_pattern(pattern, np.arange(30) % 24)
        assert len(tariff.prices) == 30
        assert np.array_equal(tariff.prices[24:], pattern[:6])
        assert tariff.covers(range(30))
        assert not tariff.covers([30])

    def test_daily_pattern_follows_the_clock(self, tmp_path):
        # a horizon that starts at 18:00 pays the 19:00 price on its
        # second row, whether the pattern comes as prices or a file
        pattern = np.linspace(0.1, 0.5, 24)
        profiles = base_profiles(feeder2(), "2024-06-01T18", 30)
        tariff = TouTariff.from_daily_pattern(pattern, profiles.hour_of_day)
        assert profiles.horizon[1] == np.datetime64("2024-06-01T19")
        assert tariff.prices[1] == pattern[19]
        assert np.array_equal(tariff.prices[6:30], pattern)
        path = tmp_path / "tariff.txt"
        path.write_text("".join(f"{p!r}\n" for p in pattern.tolist()))
        read = pipeline.read_tariff(path, profiles.hour_of_day)
        assert np.array_equal(read.prices, tariff.prices)

    def test_validation(self):
        with pytest.raises(ValueError, match="24"):
            TouTariff.from_daily_pattern(np.ones(23), 24)
        with pytest.raises(ValueError, match=">= 0"):
            TouTariff(np.array([0.1, -0.2]))
        with pytest.raises(ValueError, match="1-d"):
            TouTariff(np.ones((2, 2)))


class TestBuildStructure:
    def test_single_candidate_day_counts(self):
        net = feeder2()
        profiles = base_profiles(net, "2024-06-01T00", 24)
        prog = build_toep(net, profiles, range(24), [2], BessSpec())
        # no minimum unit size, so no installation flag
        assert prog.binaries == ()
        # per hour: 6 flow rows + 1 SOC dynamics row; +1 cyclic closure
        assert len(prog._eqs) == 24 * 6 + 24 + 1
        # per hour: 4 capacity couplings (charge, discharge, reactive
        # both ways) + 2 SOC band rows
        assert len(prog._ineqs) == 24 * 6
        assert len(prog._cones) == 24
        # the capacity rows bound power and stored energy: no variable
        # of the storage block carries a bound that repeats one
        for name in ("Pch[2,5]", "Pdis[2,5]", "E[2,5]"):
            assert prog._ub[prog._index[name]] is None
        assert prog._lb[prog._index["E[2,5]"]] is None

    def test_minimum_unit_size_adds_one_flag_per_candidate(self):
        net = feeder2()
        profiles = base_profiles(net, "2024-06-01T00", 24)
        prog = build_toep(net, profiles, range(24), [2],
                          BessSpec(e_min_kwh=100.0))
        assert prog.binaries == ("z[2]",)
        # and its two gating rows: e_min_kwh * z <= Ecap <= e_max_kwh * z
        assert len(prog._ineqs) == 24 * 6 + 2

    def test_storage_rows_bound_every_storage_variable(self):
        # one storage form for sizing and dispatch: the capacity rows
        # bound power and stored energy, so no storage variable carries
        # an upper bound: per hour 4 capacity couplings + 2 SOC band rows
        prog = ConicProgram("block")
        cap = prog.add_var("Ecap[2]")
        blocks = _storage_block(prog, BessSpec(), 2, list(range(24)), cap)
        assert list(blocks) == list(range(24))
        assert blocks[5] == ("Pch[2,5]", "Pdis[2,5]", "Qb[2,5]")
        assert len(prog._ineqs) == 24 * 6
        assert prog.binaries == ()
        assert all(ub is None for ub in prog._ub)

    def test_gapped_window_gets_one_chain_per_day(self):
        net = feeder2()
        profiles = base_profiles(net, "2024-06-01T00", 96)
        hours = list(range(48)) + list(range(72, 96))
        prog = build_toep(net, profiles, hours, [2], BessSpec())
        assert prog.binaries == ()
        # three cyclic closures, one per day, the two-day run included
        assert len(prog._eqs) == 72 * 6 + 72 + 3
        assert [run[0] for run in prog._meta["runs"]] == [0, 24, 72]

    def test_input_validation(self):
        net = feeder2()
        profiles = base_profiles(net, "2024-06-01T00", 24)
        spec = BessSpec()
        with pytest.raises(ValueError, match="empty"):
            build_toep(net, profiles, range(24), [], spec)
        with pytest.raises(ValueError, match="unknown"):
            build_toep(net, profiles, range(24), [9], spec)
        with pytest.raises(ValueError, match="slack"):
            build_toep(net, profiles, range(24), [1], spec)
        with pytest.raises(ValueError, match="duplicate"):
            build_toep(net, profiles, range(24), [2, 2], spec)
        with pytest.raises(ValueError, match="window"):
            build_toep(net, profiles, range(36), [2], spec)

    def test_plan_rejects_foreign_program(self):
        prog = ConicProgram("adhoc")
        prog.add_var("x", lb=0.0)
        prog.minimize({"x": 1.0})
        with pytest.raises(ValueError, match="build_toep"):
            plan(prog)


def pinned_block(spec, pins, cap=400.0, hours=(0, 1)):
    """Standalone 2-hour storage chain with charge/discharge pinned."""
    prog = ConicProgram("chain")
    _storage_block(prog, spec, 2, list(hours), prog.add_var("Ecap[2]"))
    for name, val in pins.items():
        prog.add_eq({name: 1.0}, val)
    prog.minimize({})    # the pins and the cyclic closure fix every value
    res = solve_relaxation(prog, fixes={"Ecap[2]": cap})
    assert res.status == "optimal"
    return res


class TestEnergyDynamics:
    # the final discharge is left free: the cyclic closure row must
    # force it to return exactly what the pinned charge stored

    def test_lossless_round_trip(self):
        spec = BessSpec(eta_ch=1.0, eta_dis=1.0)
        res = pinned_block(spec, {"Pch[2,0]": 100.0, "Pdis[2,0]": 0.0,
                                  "Pch[2,1]": 0.0})
        # start at 0.5 * 400 = 200 kWh; unit efficiency returns exactly
        assert res.x["E[2,0]"] == pytest.approx(300.0, abs=1e-6)
        assert res.x["E[2,1]"] == pytest.approx(200.0, abs=1e-6)
        assert res.x["Pdis[2,1]"] == pytest.approx(100.0, abs=1e-6)

    def test_charge_conversion(self):
        res = pinned_block(BessSpec(), {"Pch[2,0]": 100.0, "Pdis[2,0]": 0.0,
                                        "Pch[2,1]": 0.0})
        # 100 kW for an hour at eta_ch 0.95 stores 95 kWh
        assert res.x["E[2,0]"] - 200.0 == pytest.approx(95.0, abs=1e-6)
        assert res.x["E[2,1]"] == pytest.approx(200.0, abs=1e-6)
        # both conversions hit the round trip: 95 * 0.95 kW comes back
        assert res.x["Pdis[2,1]"] == pytest.approx(90.25, abs=1e-6)


class TestZeroViolationPlan:
    def test_healthy_window_buys_nothing(self):
        net = feeder2()  # 600 kW load sits at v = 0.985, no violation
        profiles = base_profiles(net, "2024-06-01T00", 24)
        prog = build_toep(net, profiles, range(24), [2], BessSpec())
        result = plan(prog)
        assert result.total_capacity_kwh() <= 1e-6
        assert result.objective <= 1e-3
        assert not any(result.installed.values())
        for b in result.buses:
            # an uninstalled unit's capacity carries only the interior
            # point's noise at its zero lower bound
            assert result.capacity_kwh[b] <= 1e-8
            assert result.charge_kw[b].max(initial=0.0) <= 1e-6
            assert result.discharge_kw[b].max(initial=0.0) <= 1e-6


def min_restoring_discharge(net, p_kw, q_kvar, v_lo):
    """Smallest load-bus discharge lifting every voltage to v_lo."""
    v, _, _, _ = sweep_power_flow(net, p_kw, q_kvar)
    if math.sqrt(v.min()) >= v_lo:
        return 0.0
    lo, hi = 0.0, float(p_kw[1])
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        p2 = np.array(p_kw, float)
        p2[1] -= mid
        v, _, _, _ = sweep_power_flow(net, p2, q_kvar)
        if math.sqrt(v.min()) >= v_lo:
            hi = mid
        else:
            lo = mid
    return hi


def greedy_feasible(cap, d_req, spec, net, p_kw, q_kvar, v_lo):
    """Can a cap-kWh unit clear d_req with max-charge-then-refill?

    Charging as hard as allowed before the last violating hour maximizes
    the energy available there, so feasibility of this policy equals
    feasibility of the capacity.
    """
    if max(d_req.values(), default=0.0) <= 1e-9:
        return True
    if cap <= 0.0:
        return False
    if max(d_req.values()) > spec.c_rate_dis * cap + 1e-9:
        return False
    e = spec.soc_initial * cap
    peak_end = max(t for t, d in d_req.items() if d > 0)
    for t in range(p_kw.shape[0]):
        d = d_req.get(t, 0.0)
        if d > 0.0:
            e -= d / spec.eta_dis
            if e < spec.soc_min * cap - 1e-7:
                return False
        else:
            target = spec.soc_max * cap if t < peak_end \
                else spec.soc_initial * cap
            c = min(spec.c_rate_ch * cap,
                    max(0.0, target - e) / spec.eta_ch)
            p2 = np.array(p_kw[t], float)
            p2[1] += c
            v, _, _, _ = sweep_power_flow(net, p2, q_kvar[t])
            assert math.sqrt(v.min()) >= v_lo - 1e-9, \
                "fixture must leave charging headroom"
            e += spec.eta_ch * c
    return e >= spec.soc_initial * cap - 1e-6


def oracle_min_capacity(net, profiles, spec, v_lo):
    p_kw, q_kvar = profiles.aligned(net)
    d_req = {t: min_restoring_discharge(net, p_kw[t], q_kvar[t], v_lo)
             for t in range(p_kw.shape[0])}

    def ok(cap):
        return greedy_feasible(cap, d_req, spec, net, p_kw, q_kvar, v_lo)

    coarse = next(c for c in np.arange(0.0, spec.e_max_kwh + 10.0, 10.0)
                  if ok(c))
    lo, hi = coarse - 10.0, coarse
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi, d_req


class TestMinimalCapacity:
    def test_planner_matches_greedy_search(self):
        net, profiles = uv_profiles()
        spec = active_only_spec()
        oracle, d_req = oracle_min_capacity(net, profiles, spec, 0.95)
        assert set(t for t, d in d_req.items() if d > 0) == {18, 19}
        prog = build_toep(net, profiles, range(24), [2], spec)
        result = plan(prog)
        assert result.installed[2]
        planned = result.total_capacity_kwh()
        assert abs(planned - oracle) <= 0.01 * oracle
        assert result.objective == pytest.approx(
            spec.c_cap_per_kwh * planned, rel=1e-9)

        # independent complementarity and replay audit of the dispatch
        ch, dis = result.charge_kw[2], result.discharge_kw[2]
        assert np.minimum(ch, dis).max() <= 1e-6
        e = spec.soc_initial * planned
        for k in range(24):
            e = e + ch[k] * spec.eta_ch - dis[k] / spec.eta_dis
            assert abs(e - result.e_ess_kwh[2][k]) <= 1e-6
        assert abs(e - spec.soc_initial * planned) <= 1e-6

    def test_tighter_limit_needs_no_less_storage(self):
        spec = active_only_spec()
        cap = {}
        for v_lo in (0.95, 0.955):
            net = uv_feeder(limits={"v_lower_pu": v_lo, "v_upper_pu": 1.05})
            profiles = profiles_from_rows(net, "2024-06-01T00", uv_rows())
            prog = build_toep(net, profiles, range(24), [2], spec)
            cap[v_lo] = plan(prog).total_capacity_kwh()
        assert cap[0.955] >= cap[0.95] - 1e-6

    def test_sizing_without_a_minimum_unit_is_one_solve(self, monkeypatch):
        # with e_min_kwh 0 an installation flag could not change the
        # answer: the program declares no binary and plan solves it once
        net, profiles = uv_profiles()
        prog = build_toep(net, profiles, range(24), [2], active_only_spec())
        assert prog.binaries == ()
        real = conic._ipm.conelp
        calls = []
        monkeypatch.setattr(conic._ipm, "conelp", lambda *a, **k:
                            calls.append(a) or real(*a, **k))
        result = plan(prog)
        assert len(calls) == 1
        assert result.gap == 0.0 and result.installed == {2: True}

    def test_unfixable_window_reports_binding_hours(self):
        net, profiles = uv_profiles()
        spec = active_only_spec(e_max_kwh=5.0)
        prog = build_toep(net, profiles, range(24), [2], spec)
        with pytest.raises(PlanError) as err:
            plan(prog)
        assert tuple(err.value.hours) == (18, 19)

    @pytest.mark.xfail(raises=AssertionError,
                       reason="the 72 h sizing root stalls on its dual "
                              "residual (ROADMAP item 3)")
    def test_three_day_window_sizes(self):
        # the plan benchmark's IEEE-33 load with its request-1000 EV
        # overlay (perfbench/gen.py seed 1, 96 h), rows 0-71: sizing five
        # candidates over three days must end with a plan. Its root
        # relaxation stops stalled, primal residual ~3e-9 and dual ~1e-5,
        # on one BLAS thread as the benchmark runs it; two threads round
        # differently and end optimal, so the solve runs in a child
        # process with the pool pinned
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path),
                   OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1")
        path = os.path.join(os.path.dirname(__file__), "data",
                            "ieee33_ev_72h.csv")
        out = subprocess.run([sys.executable, "-c", THREE_DAY_SIZING, path],
                             env=env, capture_output=True, text=True,
                             check=True)
        assert out.stdout.strip() in ("optimal", "gap-limit"), out.stdout


THREE_DAY_SIZING = """
import sys
from bessplan import conic
from bessplan.netmodel import LoadProfileSet
from bessplan.oep import BessSpec, build_toep
from helpers_power import load_bundled
prog = build_toep(load_bundled("ieee33"), LoadProfileSet.from_csv(sys.argv[1]),
                  range(72), (18, 33, 16, 31, 12),
                  BessSpec(e_min_kwh=0.0, e_max_kwh=1000.0))
print(conic.solve_misocp(prog, conic.SolverConfig(
    feas_tol=1e-7, cone_tol=1e-7, node_limit=2)).status)
"""


def tiny_plan(**overrides):
    base = dict(
        buses=(2,), hours=(0, 1), capacity_kwh={2: 100.0},
        charge_kw={2: np.zeros(2)}, discharge_kw={2: np.zeros(2)},
        q_kvar={2: np.zeros(2)}, e_ess_kwh={2: np.full(2, 50.0)},
        gap=0.0, spec=BessSpec())
    base.update(overrides)
    return BessPlan(**base)


class TestAuditPlan:
    def test_clean_plan_passes(self):
        plan_ = tiny_plan()
        audit_plan(plan_, [[0, 1]])

    def test_simultaneous_charge_discharge(self):
        plan_ = tiny_plan(charge_kw={2: np.array([50.0, 0.0])},
                          discharge_kw={2: np.array([50.0, 0.0])})
        with pytest.raises(AuditError, match="simultaneous"):
            audit_plan(plan_, [[0, 1]])

    def test_dispatch_without_installation(self):
        plan_ = tiny_plan(capacity_kwh={2: 0.0},
                          charge_kw={2: np.array([1.0, 0.0])})
        with pytest.raises(AuditError, match="installation"):
            audit_plan(plan_, [[0, 1]])

    def test_soc_band_escape(self):
        plan_ = tiny_plan(
            charge_kw={2: np.array([45.0 / 0.95, 0.0])},
            discharge_kw={2: np.array([0.0, 45.0 * 0.95])},
            e_ess_kwh={2: np.array([95.0, 50.0])})
        with pytest.raises(AuditError, match="SOC band"):
            audit_plan(plan_, [[0, 1]])

    def test_energy_replay_drift(self):
        plan_ = tiny_plan(e_ess_kwh={2: np.array([60.0, 50.0])})
        with pytest.raises(AuditError, match="replay drift"):
            audit_plan(plan_, [[0, 1]])

    def test_broken_cycle(self):
        plan_ = tiny_plan(charge_kw={2: np.array([10.0, 0.0])},
                          e_ess_kwh={2: np.full(2, 59.5)})
        with pytest.raises(AuditError, match="cyclic"):
            audit_plan(plan_, [[0, 1]])


def flat_profiles(net, p_kw, q_kvar, n_hours=24):
    rows = [{2: (p_kw, q_kvar)} for _ in range(n_hours)]
    return profiles_from_rows(net, "2024-06-01T00", rows)


def peaked_profiles(net, n_hours=24):
    rows = [{2: (900.0, 400.0) if t % 24 in (18, 19) else (400.0, 150.0)}
            for t in range(n_hours)]
    return profiles_from_rows(net, "2024-06-01T00", rows)


def tou_pattern():
    prices = np.full(24, 0.2)
    prices[:8] = 0.08
    prices[18:20] = 0.6
    return prices


def schedule_flow(net, profiles, out):
    """Oracle power flow of a DayDispatch's storage schedule over its
    hours: (v_sq, i_sq, slack injection in p.u.), hours as columns."""
    p_kw, q_kvar = profiles.aligned(net)
    cols = []
    for k, t in enumerate(out.hours):
        p, q = p_kw[t].copy(), q_kvar[t].copy()
        for b in out.storage.get("charge_kw", {}):
            i = net.idx[b]
            p[i] += out.storage["charge_kw"][b][k] - \
                out.storage["discharge_kw"][b][k]
            q[i] -= out.storage["q_kvar"][b][k]
        v, L, _, _ = sweep_power_flow(net, p, q, hour=t)
        cols.append((v, L, net.to_pu_power(p.sum()) + float(net.r @ L)))
    v_sq, i_sq, p_slack = zip(*cols)
    return np.array(v_sq).T, np.array(i_sq).T, np.array(p_slack)


class TestDispatchDay:
    def test_zero_capacity_is_plain_network(self):
        net = feeder2()
        profiles = flat_profiles(net, 500.0, 200.0)
        spec = BessSpec()
        bare = dispatch_day(net, profiles, range(24), {}, spec, None)
        zero = dispatch_day(net, profiles, range(24), {2: 0.0}, spec, None)
        assert zero.storage == {}
        assert abs(zero.losses_kwh - bare.losses_kwh) <= 1e-12

    def test_zero_plan_is_the_oracle_power_flow(self):
        # no unit leaves nothing to decide: voltages, losses and the
        # slack's cost are the exact power flow's, with or without limits
        net, profiles = uv_profiles()
        prices = tou_pattern()
        p_kw, q_kvar = profiles.aligned(net)
        for limits in (None, (0.95, 1.05)):
            out = dispatch_day(net, profiles, range(24), {2: 0.0},
                               BessSpec(), limits, prices=prices)
            assert out.status == "optimal" and out.storage == {}
            cost = losses = 0.0
            for t in range(24):
                v, L, _, _ = sweep_power_flow(net, p_kw[t], q_kvar[t])
                assert np.abs(out.v_sq[:, t] - v).max() <= 1e-10
                loss = float(net.r @ L) * 1000.0
                losses += loss
                cost += prices[t] * (p_kw[t].sum() + loss)
            assert out.losses_kwh == pytest.approx(losses, rel=1e-12)
            assert out.cost == pytest.approx(cost, rel=1e-12)

    @pytest.mark.parametrize("net, load", [
        # past the sweep's voltage collapse
        (feeder2(), (30000.0, 10000.0)),
        # past a branch current cap: 100 A is about 1.9 p.u. on these
        # bases, and 2500 kW draws 2.6
        (uv_feeder(i_limit_a=100.0), (2500.0, 800.0))])
    def test_zero_plan_day_the_feeder_cannot_carry(self, net, load):
        profiles = profiles_from_rows(net, "2024-06-01T00", [{2: load}] * 24)
        with pytest.raises(PlanError, match="hour 0"):
            dispatch_day(net, profiles, range(24), {}, BessSpec(), None)

    def test_flat_price_flat_load_no_arbitrage(self):
        net = feeder2()
        profiles = flat_profiles(net, 500.0, 200.0)
        spec = BessSpec(eta_ch=1.0, eta_dis=1.0, kq_inj=0.0, kq_abs=0.0)
        prices = np.full(24, 0.2)
        base = dispatch_day(net, profiles, range(24), {}, spec, None,
                            prices=prices)
        bess = dispatch_day(net, profiles, range(24), {2: 400.0}, spec,
                            None, prices=prices)
        assert abs(bess.cost - base.cost) <= 1e-3 * base.cost

    def test_tou_arbitrage_cuts_cost(self):
        net = feeder2()
        profiles = peaked_profiles(net)
        spec = BessSpec()
        prices = tou_pattern()
        base = dispatch_day(net, profiles, range(24), {}, spec, None,
                            prices=prices)
        bess = dispatch_day(net, profiles, range(24), {2: 400.0}, spec,
                            None, prices=prices)
        assert bess.cost < base.cost - 1.0

    def test_storage_never_raises_minimum_losses(self):
        net = feeder2()
        profiles = peaked_profiles(net)
        spec = BessSpec()
        base = dispatch_day(net, profiles, range(24), {}, spec, None)
        bess = dispatch_day(net, profiles, range(24), {2: 400.0}, spec,
                            None)
        assert bess.losses_kwh <= base.losses_kwh + 1e-6

    def test_hour_validation(self):
        net = feeder2()
        profiles = flat_profiles(net, 500.0, 200.0)
        with pytest.raises(ValueError, match="contiguous"):
            dispatch_day(net, profiles, [0, 2], {}, BessSpec(), None)
        with pytest.raises(ValueError, match="covered"):
            dispatch_day(net, profiles, range(23, 26), {}, BessSpec(),
                         None)

    def test_hopeless_day_ends_below_the_limit(self):
        # the voltage limits are elastic: a load no storage can lift
        # solves, and the day's voltage is the bare load flow's, far
        # below the lower limit (a one-hour cyclic day cannot discharge)
        net = uv_feeder()
        rows = [{2: (2500.0, 800.0)}]
        profiles = profiles_from_rows(net, "2024-06-01T00", rows)
        out = dispatch_day(net, profiles, [0], {2: 1.0},
                           active_only_spec(e_max_kwh=1.0), (0.95, 1.05))
        assert out.status == "optimal"
        p_kw, q_kvar = profiles.aligned(net)
        v, _, _, _ = sweep_power_flow(net, p_kw[0], q_kvar[0])
        assert np.abs(out.v_sq[:, 0] - v).max() <= 1e-6
        assert math.sqrt(out.v_sq[net.idx[2], 0]) < 0.95 - 0.01

    def test_elastic_limits_outbid_the_losses(self):
        # hour 5 undervolts on a low slack voltage; hour 6 carries a far
        # larger load on a high one, so the losses would rather the
        # storage discharge there. The unit sized on the day holds the
        # energy for hour 5 but not for full power in both hours, so
        # the elastic day must pay for hour 5 against the losses
        sv = [1.0] * 24
        sv[5], sv[6] = 0.965, 1.04
        net = feeder(2, [(1, 2, 0.05, 0.03)], {2: (150.0, 60.0)},
                     name="trade2", slack_voltage_pu=sv)
        rows = [{2: (150.0, 60.0)} for _ in range(24)]
        rows[5] = {2: (400.0, 100.0)}
        rows[6] = {2: (1600.0, 100.0)}
        profiles = profiles_from_rows(net, "2024-06-01T00", rows)
        spec = active_only_spec(e_max_kwh=2000.0)
        caps = plan(build_toep(net, profiles, range(24), [2], spec)) \
            .capacity_kwh
        loss_only = dispatch_day(net, profiles, range(24), caps, spec, None)
        assert math.sqrt(loss_only.v_sq[1].min()) < 0.95 - 1e-3
        held = dispatch_day(net, profiles, range(24), caps, spec,
                            (0.95, 1.05))
        assert math.sqrt(held.v_sq[1].min()) >= 0.95 - 5e-7

    @pytest.mark.parametrize("free_hours", [range(6), range(24)])
    def test_free_hours_report_the_schedules_own_losses(self, free_hours):
        # in a free hour losses carry no price, so the day program's
        # cones go loose there; the day still reports the exact power
        # flow of the schedule it returns
        net = feeder2()
        profiles = peaked_profiles(net)
        prices = tou_pattern()
        prices[list(free_hours)] = 0.0
        out = dispatch_day(net, profiles, range(24), {2: 400.0}, BessSpec(),
                           None, prices=prices)
        v_sq, i_sq, p_slack = schedule_flow(net, profiles, out)
        losses = float((net.r @ i_sq).sum()) * 1000.0
        assert out.losses_kwh == pytest.approx(losses, rel=1e-9)
        assert out.cost == pytest.approx(
            float(prices @ p_slack) * 1000.0, rel=1e-9, abs=1e-9)
        assert np.abs(out.v_sq - v_sq).max() <= 1e-10

    @pytest.mark.parametrize("limits", [None, (0.95, 1.05)])
    def test_schedule_is_complementary_and_replays(self, limits):
        # a priced day, and an elastic-limit day that must lift the sag
        net, profiles = uv_profiles()
        spec = BessSpec()
        prices = tou_pattern() if limits is None else None
        out = dispatch_day(net, profiles, range(24), {2: 600.0}, spec,
                           limits, prices=prices)
        ch, dis = out.storage["charge_kw"][2], out.storage["discharge_kw"][2]
        e_kwh = out.storage["e_ess_kwh"][2]
        assert np.minimum(ch, dis).max() == 0.0
        assert dis.max() > 1.0
        e = e0 = spec.soc_initial * 600.0
        for k in range(24):
            e = e + ch[k] * spec.eta_ch - dis[k] / spec.eta_dis
            assert abs(e - e_kwh[k]) <= AUDIT_TOL
        assert abs(e - e0) <= AUDIT_TOL
        if limits is not None:
            assert math.sqrt(out.v_sq[1].min()) >= 0.95 - VALIDATION_TOL

    def test_binding_branch_cap_holds_under_the_power_flow(self):
        # the cheap night hours charge up to the 60 A cap (1.31 p.u. of
        # current squared), which the schedule's power flow must hold
        net = uv_feeder(i_limit_a=60.0)
        profiles = profiles_from_rows(net, "2024-06-01T00",
                                      [{2: (1000.0, 400.0)}] * 24)
        out = dispatch_day(net, profiles, range(24), {2: 2000.0},
                           BessSpec(), None, prices=tou_pattern())
        i_sq = schedule_flow(net, profiles, out)[1][0]
        cap = net.i_sq_limit[0]
        assert np.count_nonzero(i_sq > cap * (1.0 - 1e-6)) >= 8
        assert i_sq.max() <= cap


class TestTouDispatch:
    def test_empty_plan_matches_per_day_baseline(self):
        net = feeder2()
        profiles = flat_profiles(net, 500.0, 200.0, n_hours=48)
        spec = BessSpec()
        tariff = TouTariff.from_daily_pattern(tou_pattern(),
                                              profiles.hour_of_day)
        out = tou_dispatch(net, profiles, BessPlan.empty((2,), spec),
                           tariff)
        manual = [dispatch_day(net, profiles, range(d * 24, d * 24 + 24),
                               {}, spec, None, prices=tariff.prices)
                  for d in (0, 1)]
        assert len(out.days) == 2
        assert out.cost == pytest.approx(sum(p.cost for p in manual),
                                         abs=1e-9)
        assert out.losses_kwh == pytest.approx(
            sum(p.losses_kwh for p in manual), abs=1e-9)

    def test_storage_never_costs_more(self):
        net = feeder2()
        profiles = profiles_from_rows(net, "2024-06-01T00",
                                      uv_rows(peak=(900.0, 400.0),
                                              base=(400.0, 150.0),
                                              n_hours=48))
        spec = BessSpec()
        tariff = TouTariff.from_daily_pattern(tou_pattern(),
                                              profiles.hour_of_day)
        base = tou_dispatch(net, profiles, BessPlan.empty((2,), spec),
                            tariff)
        with_bess = tou_dispatch(net, profiles, _fixed_plan(spec, 400.0),
                                 tariff)
        assert with_bess.cost <= base.cost + 1e-9

    def test_uncovered_tariff_rejected(self):
        net = feeder2()
        profiles = flat_profiles(net, 500.0, 200.0, n_hours=48)
        tariff = TouTariff(tou_pattern())
        with pytest.raises(ValueError, match="cover"):
            tou_dispatch(net, profiles, BessPlan.empty((2,), BessSpec()),
                         tariff)

    def test_impossible_day_names_its_start(self):
        # 100 A is about 1.9 p.u. of current on the 1 MVA, 11 kV bases:
        # the base load draws about 0.16 p.u., the hour-30 load at least
        # 2.6 p.u., more than the 1 kWh unit can offset
        net = uv_feeder(i_limit_a=100.0)
        rows = uv_rows(peak_hours=(), n_hours=48)  # healthy everywhere
        rows[30] = {2: (2500.0, 800.0)}
        profiles = profiles_from_rows(net, "2024-06-01T00", rows)
        spec = active_only_spec(e_max_kwh=1.0)
        tariff = TouTariff.from_daily_pattern(tou_pattern(),
                                              profiles.hour_of_day)
        with pytest.raises(PlanError, match="hour 24") as err:
            tou_dispatch(net, profiles, _fixed_plan(spec, 1.0), tariff)
        assert err.value.hours[0] == 24


def _fixed_plan(spec, cap):
    """Plan shell carrying just a frozen capacity for dispatch runs."""
    plan_ = BessPlan.empty((2,), spec)
    plan_.capacity_kwh[2] = cap
    return plan_


@pytest.fixture(scope="module")
def two_peak_days():
    """uv2 over two days with an evening sag each, and a plan sized on
    the first day only: (net, profiles, plan)."""
    net = uv_feeder()
    profiles = profiles_from_rows(net, "2024-06-01T00",
                                  uv_rows(peak_hours=(18, 19, 42, 43),
                                          n_hours=48))
    return net, profiles, plan(build_toep(net, profiles, range(24), [2],
                                          BessSpec()))


@pytest.fixture(scope="module")
def two_day_plan(two_peak_days):
    """two_peak_days' plan sized on both days at once."""
    net, profiles, _ = two_peak_days
    return plan(build_toep(net, profiles, range(48), [2], BessSpec()))


class TestValidatePlan:
    """A day the plan's own schedule holds needs no dispatch solve."""

    @staticmethod
    def validate(monkeypatch, net, profiles, plan_):
        """validate_plan's verdict and the first hour of each day it
        dispatched."""
        real = pipeline.dispatch_day
        calls = []

        def spy(net, profiles, hours, *args, **kwargs):
            calls.append(list(hours)[0])
            return real(net, profiles, hours, *args, **kwargs)

        monkeypatch.setattr(pipeline, "dispatch_day", spy)
        return pipeline.validate_plan(net, profiles, plan_), calls

    def test_covered_day_is_certified_by_its_schedule(self, monkeypatch,
                                                      two_peak_days):
        net, profiles, plan_ = two_peak_days
        verdict, calls = self.validate(monkeypatch, net, profiles, plan_)
        assert verdict.passed
        # day 1 lies outside the sized window: it still needs a solve
        assert calls == [24] and verdict.certified_days == (0,)
        p_kw, q_kvar = profiles.aligned(net)
        for t in range(24):
            p, q = p_kw[t].copy(), q_kvar[t].copy()
            p[1] += plan_.charge_kw[2][t] - plan_.discharge_kw[2][t]
            q[1] -= plan_.q_kvar[2][t]
            v = sweep_power_flow(net, p, q)[0]
            assert np.abs(verdict.v_sq[:, t] - v).max() <= 1e-10

    def test_window_of_two_days_is_certified_day_by_day(self, monkeypatch,
                                                        two_peak_days,
                                                        two_day_plan):
        # sized on both days at once, each day closes its own SOC chain,
        # so both replay as daily-cyclic days and need no solve
        net, profiles, day_plan = two_peak_days
        plan_ = two_day_plan
        cap = plan_.capacity_kwh[2]
        assert cap == pytest.approx(day_plan.capacity_kwh[2], rel=1e-6)
        target = plan_.spec.soc_initial * cap
        assert abs(plan_.e_ess_kwh[2][23] - target) <= AUDIT_TOL
        verdict, calls = self.validate(monkeypatch, net, profiles, plan_)
        assert verdict.passed
        assert calls == [] and verdict.certified_days == (0, 24)

    @pytest.mark.parametrize("window, dispatched, certified", [
        pytest.param(24, [0, 24], (), id="end"),
        pytest.param(48, [0], (24,), id="end-of-two-day-window")])
    def test_off_target_boundary_energy_is_dispatched(
            self, monkeypatch, two_peak_days, two_day_plan, window,
            dispatched, certified):
        # day 0 ends off its anchor; day 24's chain starts at its own
        # anchor, so inside the window its schedule still certifies it
        net, profiles, day_plan = two_peak_days
        plan_ = day_plan if window == 24 else two_day_plan
        e = plan_.e_ess_kwh[2].copy()
        e[23] += 1e-3
        moved = replace(plan_, e_ess_kwh={2: e})
        verdict, calls = self.validate(monkeypatch, net, profiles, moved)
        assert verdict.passed
        assert calls == dispatched and verdict.certified_days == certified

    def test_violating_replay_is_dispatched(self, monkeypatch,
                                            two_peak_days):
        # an idle schedule leaves the sag: only the day solve can pass it
        net, profiles, plan_ = two_peak_days
        zero = np.zeros(24)
        idle = replace(plan_, charge_kw={2: zero}, discharge_kw={2: zero},
                       q_kvar={2: zero},
                       e_ess_kwh={2: np.full(
                           24, plan_.spec.soc_initial * plan_.capacity_kwh[2])})
        verdict, calls = self.validate(monkeypatch, net, profiles, idle)
        assert verdict.passed
        assert calls == [0, 24] and verdict.certified_days == ()


class TestSavingsReport:
    def test_reference_rows(self):
        rows = savings_report(
            {"year": (0.97, 150.41)},
            {"year": (0.83, 132.05)})
        (row,) = rows
        assert row["cost_savings"] == pytest.approx(0.14, abs=1e-12)
        assert round(row["cost_savings_pct"], 2) == 14.43
        assert row["loss_reduction"] == pytest.approx(18.36, abs=1e-12)
        assert round(row["loss_reduction_pct"], 2) == 12.21

    def test_identical_runs_and_zero_base(self):
        rows = savings_report({"a": (5.0, 2.0), "b": (0.0, 0.0)},
                              {"a": (5.0, 2.0), "b": (0.0, 0.0)})
        for row in rows:
            assert row["cost_savings_pct"] == 0.0
            assert row["loss_reduction_pct"] == 0.0

    def test_label_mismatch(self):
        with pytest.raises(ValueError, match="label"):
            savings_report({"a": (1.0, 1.0)}, {"b": (1.0, 1.0)})
