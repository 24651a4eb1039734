"""Screening model tests against an independent sweep power-flow oracle.

The vectorized sweep in the package (power_flow) is checked against the
same oracle and against the screening solve.
"""

import json
import math
import warnings
from importlib import resources

import numpy as np
import pytest

from bessplan.netmodel import load_network
from bessplan.vva import (PowerFlowError, _hour_block, node_stats,
                          power_flow, run_vva, violation_records)
from bessplan.conic import ConicProgram, solve_relaxation
from helpers_power import (base_profiles, feeder2, feeder4, feeder6,
                           load_bundled, profiles_from_rows,
                           sweep_power_flow)


def constant_profiles(net, hours=1):
    return base_profiles(net, "2024-06-01T00", hours)


def screening_program(net, profiles, hours):
    """One loss-minimizing program over several hours' _hour_blocks."""
    p_kw, q_kvar = profiles.aligned(net)
    prog = ConicProgram("joint")
    obj = {}
    for t in hours:
        L = _hour_block(prog, net, net.to_pu_power(p_kw[t]),
                        net.to_pu_power(q_kvar[t]), t,
                        net.slack_v(t) ** 2)[3]
        obj.update((L[e], net.r[e]) for e in range(net.n_branch))
    prog.minimize(obj)
    return prog


class TestBuildVva:
    """The per-hour screening model that run_vva assembles and solves."""

    def test_two_bus_row_counts(self):
        net = feeder2()
        prog = screening_program(net, constant_profiles(net), [0])
        # 4 balance rows + 1 slack voltage row + 1 drop row, 1 cone
        assert len(prog._eqs) == 6
        assert len(prog._cones) == 1
        assert len(prog._ineqs) == 0

    def test_zero_load_fixed_point(self):
        net = feeder4()
        rows = [{b: (0.0, 0.0) for b in (2, 3, 4)}]
        sol = run_vva(net, profiles_from_rows(net, "2024-06-01T00", rows))
        assert np.allclose(sol.v_sq, 1.0, atol=1e-7)
        assert np.all(sol.losses <= 1e-9)

    def test_current_cap_row_included_when_limit_given(self):
        doc = {
            "name": "capped",
            "bases": {"s_mva": 1.0, "v_kv": 11.0},
            "limits": {"v_lower_pu": 0.95, "v_upper_pu": 1.05},
            "buses": [
                {"id": 1, "kind": "slack", "p_base_kw": 0, "q_base_kvar": 0},
                {"id": 2, "kind": "load", "p_base_kw": 100,
                 "q_base_kvar": 40},
            ],
            "branches": [{"from": 1, "to": 2, "r_pu": 0.02, "x_pu": 0.01,
                          "i_limit_a": 500.0}],
        }
        from bessplan.netmodel import load_network
        net = load_network(doc)
        prog = screening_program(net, constant_profiles(net), [0])
        assert len(prog._ineqs) == 1


class TestOracleEquivalence:
    @pytest.mark.parametrize("make", [feeder2, feeder4, feeder6])
    def test_voltages_match_sweep(self, make):
        net = make()
        sol = run_vva(net, constant_profiles(net))
        v_ref, l_ref, p_ref, q_ref = sweep_power_flow(
            net, net.p_base_kw, net.q_base_kvar)
        assert np.max(np.abs(sol.voltage()[:, 0] - np.sqrt(v_ref))) <= 1e-6
        assert np.max(np.abs(sol.i_sq[:, 0] - l_ref)) <= 1e-6
        assert np.max(np.abs(sol.p_flow[:, 0] - p_ref)) <= 1e-6

    def test_cone_tight_and_balance_audit(self):
        net = feeder6()
        sol = run_vva(net, constant_profiles(net))
        assert sol.loose_cones == ()
        gap = sol.v_sq[net.fidx, 0] * sol.i_sq[:, 0] \
            - sol.p_flow[:, 0] ** 2 - sol.q_flow[:, 0] ** 2
        assert np.max(np.abs(gap)) <= 1e-6
        # independent balance re-evaluation at every non-slack bus
        p_pu = net.to_pu_power(net.p_base_kw)
        for i in range(net.n_bus):
            if i == net.slack:
                continue
            e = net.parent_branch[i]
            res = sol.p_flow[e, 0] - net.r[e] * sol.i_sq[e, 0] \
                - sol.p_flow[net.down[i], 0].sum() - p_pu[i]
            assert abs(res) <= 1e-7

    def test_slack_injection_covers_load_plus_losses(self):
        net = feeder4()
        sol = run_vva(net, constant_profiles(net))
        p_pu = net.to_pu_power(net.p_base_kw).sum()
        assert abs(sol.p_slack[0] - (p_pu + sol.losses[0])) <= 1e-7

    def test_doubling_leaf_load_depresses_voltage(self):
        net = feeder4()
        base = run_vva(net, constant_profiles(net))
        rows = [{2: (250.0, 120.0), 3: (300.0, 150.0), 4: (440.0, 200.0)}]
        heavy = run_vva(net, profiles_from_rows(net, "2024-06-01T00", rows))
        i4 = net.ids.index(4)
        assert heavy.v_sq[i4, 0] < base.v_sq[i4, 0] + 1e-12

    def test_hour_separability(self):
        net = feeder4()
        rows = [
            {2: (250.0, 120.0), 3: (300.0, 150.0), 4: (220.0, 100.0)},
            {2: (120.0, 60.0), 3: (150.0, 70.0), 4: (520.0, 240.0)},
            {2: (380.0, 180.0), 3: (90.0, 40.0), 4: (310.0, 140.0)},
        ]
        profiles = profiles_from_rows(net, "2024-06-01T00", rows)
        joint = solve_relaxation(screening_program(net, profiles, [0, 1, 2]))
        assert joint.status == "optimal"
        per_hour = run_vva(net, profiles).losses
        # recover per-hour loss from the joint solve
        for t in range(3):
            loss_t = sum(net.r[e] * joint.x[f"l[{e},{t}]"]
                         for e in range(net.n_branch))
            assert abs(loss_t - per_hour[t]) <= 1e-9
        assert abs(joint.objective - sum(per_hour)) <= 1e-9

    def test_33_bus_fixture_hour(self):
        net = load_bundled("ieee33")
        sol = run_vva(net, constant_profiles(net))
        v_ref = sweep_power_flow(net, net.p_base_kw, net.q_base_kvar)[0]
        assert np.max(np.abs(sol.v_sq[:, 0] - v_ref)) <= 1e-6
        # the canonical full-load minimum sits near 0.913 p.u. at bus 18
        i18 = net.ids.index(18)
        volts = sol.voltage()[:, 0]
        assert volts.argmin() == i18
        assert abs(volts[i18] - 0.9131) <= 5e-4


# a slack-voltage schedule over the four hours of TestPowerFlow
SLACK_SCHEDULE = [1.0, 1.03, 0.97, 1.05]


def ieee33(**extra):
    doc = json.loads(resources.files("bessplan.data")
                     .joinpath("ieee33.json").read_text())
    return load_network({**doc, **extra})


def scaled_rows(net, factors):
    """Per-hour rows of each bus's base load times the hour's factor."""
    return [{b: (f * net.p_base_kw[i], f * net.q_base_kvar[i])
             for i, b in enumerate(net.ids) if i != net.slack}
            for f in factors]


class TestPowerFlow:
    """The vectorized sweep against the per-hour oracle and the SOCP."""

    @pytest.mark.parametrize("make", [feeder4, feeder6, ieee33])
    def test_matches_oracle_sweep_and_screen(self, make):
        net = make(slack_voltage_pu=SLACK_SCHEDULE)
        profiles = profiles_from_rows(net, "2024-06-01T00",
                                      scaled_rows(net, [1.0, 0.4, 1.3, 0.8]))
        p_kw, q_kvar = profiles.aligned(net)
        v, L, P, Q = power_flow(net, p_kw.T, q_kvar.T, SLACK_SCHEDULE)
        for t in range(4):
            ref = sweep_power_flow(net, p_kw[t], q_kvar[t], hour=t)
            for got, want in zip((v, L, P, Q), ref):
                assert np.max(np.abs(got[:, t] - want)) <= 1e-10
        sol = run_vva(net, profiles)
        assert np.max(np.abs(v - sol.v_sq)) <= 1e-6
        assert np.max(np.abs(L - sol.i_sq)) <= 1e-6
        assert np.max(np.abs(P - sol.p_flow)) <= 1e-6

    def test_diverging_overloaded_feeder_raises(self):
        # 30 MW through 0.02 p.u. of resistance on a 1 MVA base is
        # beyond what any voltage can carry
        net = feeder2(p_kw=30000.0, q_kvar=10000.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PowerFlowError):
                power_flow(net, net.p_base_kw[:, None],
                           net.q_base_kvar[:, None], [1.0])


class TestLooseConeWarning:
    def test_solver_noise_on_an_exact_relaxation_is_quiet(self):
        # the cones end about 2e-6 loose on every hour, yet the voltages
        # match the exact power flow to about 4e-10 p.u.
        net = load_bundled("ieee69")
        profiles = base_profiles(net, "2025-01-01T00", 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = run_vva(net, profiles)
        assert sol.loose_cones
        exact = power_flow(net, net.p_base_kw[:, None],
                           net.q_base_kvar[:, None], [1.0])[0]
        assert np.abs(sol.voltage() - np.sqrt(exact)).max() <= 1e-6

    def test_no_power_flow_warns_at_the_caller(self, monkeypatch):
        from bessplan import vva

        def no_flow(*args):
            raise PowerFlowError("no power flow")

        monkeypatch.setattr(vva, "power_flow", no_flow)
        net = load_bundled("ieee69")
        with pytest.warns(RuntimeWarning, match="no power flow") as seen:
            run_vva(net, base_profiles(net, "2025-01-01T00", 1))
        assert seen[0].filename == __file__


class TestViolations:
    def _records(self, volts):
        """Records of one hour whose buses 1..n have these voltages."""
        volts = np.asarray(volts, dtype=float)[:, None]
        return violation_records(
            tuple(range(1, volts.shape[0] + 1)), (0,),
            (np.datetime64("2024-06-01T00", "h"),), volts ** 2, 0.95, 1.05)

    def test_severity_arithmetic(self):
        recs = self._records([1.0, 0.93, 1.07, 0.87])
        by_bus = {r.bus: r for r in recs}
        assert set(by_bus) == {2, 3, 4}
        assert abs(by_bus[2].severity - 0.02) <= 1e-12
        assert by_bus[2].kind == "under"
        assert abs(by_bus[3].severity - 0.02) <= 1e-12
        assert by_bus[3].kind == "over"
        assert abs(by_bus[4].severity - 0.08) <= 1e-12
        assert all(r.severity > 0 for r in recs)

    def test_in_band_voltage_makes_no_record(self):
        assert self._records([1.0, 1.0]) == []

    def test_node_stats_ratios(self):
        recs = self._records([1.0, 0.93, 1.07])
        stats = {s.bus: s for s in node_stats(recs, 1, (1, 2, 3))}
        assert stats[1].f_viol == 0.0
        assert stats[2].p_uv == 1.0 and stats[2].p_ov == 0.0
        assert stats[3].p_ov == 1.0
        assert stats[2].f_viol == 1.0

    def test_synthetic_frequency_ratio(self):
        from bessplan.vva import ViolationRecord
        t0 = np.datetime64("2024-01-01T00", "h")
        recs = [ViolationRecord(5, t, t0 + t, 0.94, 0.01, "under")
                for t in range(87)] + \
            [ViolationRecord(5, 100, t0 + 100, 0.948, 0.002, "under")]
        stats = {s.bus: s for s in node_stats(recs, 8760, (5,))}
        assert abs(stats[5].p_uv - 88 / 8760) <= 1e-12
